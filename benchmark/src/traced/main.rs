//! The traced binary: the same workloads, run for their per-layer
//! metrics. It alone carries the counting allocator, `TimedTransport`,
//! the benchmark's own loop over `Network`, the timestamps around the udp
//! node's calls and the probes; end-to-end metrics never come from here.

#![deny(unsafe_code)]

mod alloc;
mod bare;
mod probes;
mod sim_trace;
mod timed;
mod trace;
mod udp_trace;

use homa_benchmark::cli;
use homa_benchmark::metrics::{render_result, Metrics, PER_LAYER};
use homa_benchmark::plan::{rpc_plan, Scale};
use homa_benchmark::run::Outcome;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// What a traced run hands back to `main`.
pub struct Traced {
    /// Checks, counts and the per-layer metric values.
    pub outcome: Outcome,
    /// Rows of the reconciliation table, µs per message.
    pub reconciliation: Vec<(String, f64)>,
    /// The spans to write out.
    pub sinks: Vec<trace::SpanSink>,
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse(&argv).map_err(|e| format!("{e}\n{}", cli::USAGE))?;
    if !args.trace || args.check || args.aa.is_some() {
        return Err(
            "this is the traced binary: it takes --workload, --seed, --seconds and --trace 1"
                .into(),
        );
    }
    let workload = args.workload.ok_or("--workload is required")?;
    let mut metrics = Metrics::new(PER_LAYER);
    metrics.set("bench.canary_ns", probes::canary_ns());
    let Traced { outcome: mut out, reconciliation, sinks } =
        match rpc_plan(workload, args.seed, Scale::Full) {
            Some(plan) => udp_trace::run(&plan, args.seconds, metrics)?,
            None => sim_trace::run(workload, args.seed, args.seconds, metrics)?,
        };
    // The slower of the two canary readings: a reading well above the
    // machine's usual one says the whole row was taken on a slow machine.
    let canary = out.metrics.get("bench.canary_ns").max(probes::canary_ns());
    out.metrics.set("bench.canary_ns", canary);

    eprint!("{}", out.metrics.render_table());
    if !reconciliation.is_empty() {
        eprintln!("reconciliation, us of CPU per message:");
        for (name, v) in &reconciliation {
            eprintln!("  {name:<40} {v:>14.4}");
        }
    }
    let line = render_result(out.correct, out.attempted, out.failed, &out.metrics);
    let path = trace::write_trace(workload.name(), args.seed, &line, &reconciliation, &sinks)
        .map_err(|e| format!("writing the trace: {e}"))?;
    eprintln!("trace written to {}", path.display());
    println!("{line}");
    Ok(if out.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("homa-benchmark-traced: {e}");
        ExitCode::from(2)
    })
}
