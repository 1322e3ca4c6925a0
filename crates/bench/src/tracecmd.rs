//! The `repro trace` subcommand: replay a scenario spec line with the
//! flight recorder enabled and summarize what the fabric did.
//!
//! Three artifacts per run:
//!
//! * `TRACE.jsonl` — the raw trace, one JSON object per line in global
//!   `(time, seq)` order (byte-identical run to run).
//! * A per-priority TOR-downlink utilization table — the receiver-side
//!   view the paper's Figures 9/21 reason about: scheduled traffic
//!   concentrates on the low priority levels, unscheduled on the high
//!   ones.
//! * A message-lifecycle summary: where delivered messages spent their
//!   time (switch queueing vs serialization) and how much grant/resend
//!   traffic drove them — the trace-level analogue of Figure 10's
//!   queueing breakdown.
//!
//! Everything here is a pure fold over the recorded trace; nothing feeds
//! back into the simulation, so a traced run delivers the same messages
//! at the same times as an untraced one.

use crate::{run_protocol_scenario, Protocol};
use homa_harness::driver::OnewayOpts;
use homa_harness::ScenarioSpec;
use homa_sim::trace::{render_jsonl, summarize_messages};
use homa_sim::{MsgLifecycle, NodeId, SimDuration, Timeline};
use std::fmt::Write as _;

/// Output of one traced run.
pub struct TraceRun {
    /// Canonical JSONL trace, one record per line.
    pub jsonl: String,
    /// Records in the trace (post-eviction).
    pub kept: usize,
    /// Oldest records evicted by the ring (0 = complete trace).
    pub dropped: u64,
    /// Human-readable utilization + lifecycle report.
    pub report: String,
}

/// Fixed bucket width for the utilization timeline.
const BUCKET: SimDuration = SimDuration::from_micros(10);

/// How many of the slowest lifecycles the report lists individually.
const SLOWEST: usize = 5;

/// Run `spec` for protocol `p` with the flight recorder capped at `cap`
/// records, and fold the trace into the run's artifacts.
pub fn trace_run(p: Protocol, spec: &ScenarioSpec, cap: usize) -> TraceRun {
    let mut opts = OnewayOpts::default().with_trace();
    opts.trace_cap = cap;
    let res = run_protocol_scenario(p, spec, &opts, None);

    let jsonl = render_jsonl(&res.trace);
    let mut rep = String::new();
    let _ = writeln!(rep, "=== trace: {} ===", spec.to_spec_line());
    let _ = writeln!(
        rep,
        "protocol {}; injected {}, delivered {}; trace records {} ({} dropped)",
        p.name(),
        res.injected,
        res.delivered,
        res.trace.len(),
        res.trace_dropped,
    );
    let g = &res.stats.grants;
    let _ = writeln!(
        rep,
        "grants: {} issued, {} bytes credit; resends requested: {}",
        g.grants_issued, g.granted_bytes, g.resends_requested
    );

    // Per-priority utilization over TOR→host downlinks (ports
    // 0..hosts_per_rack on every TOR are the host-facing ones).
    let hpr = spec.topology().hosts_per_rack;
    let tl = Timeline::from_records(&res.trace, BUCKET, res.duration, |node, port| {
        matches!(node, NodeId::Tor(_)) && port < hpr
    });
    let util = tl.utilization_by_prio();
    rep.push('\n');
    let _ = writeln!(
        rep,
        "TOR-downlink utilization by priority ({}us buckets over {:.3}ms, {} active ports)",
        BUCKET.as_nanos() / 1_000,
        res.duration.as_nanos() as f64 / 1e6,
        tl.ports,
    );
    let _ = writeln!(rep, "  prio  util");
    for (prio, u) in util.iter().enumerate() {
        let _ = writeln!(rep, "  P{prio}    {u:.4}");
    }
    let _ = writeln!(rep, "  all   {:.4}", util.iter().sum::<f64>());

    // Message lifecycles: only messages that completed inside the trace
    // contribute to the time breakdowns.
    let lifecycles = summarize_messages(&res.trace);
    let done: Vec<&MsgLifecycle> = lifecycles.iter().filter(|l| l.delivered.is_some()).collect();
    rep.push('\n');
    let _ = writeln!(
        rep,
        "message lifecycles ({} started, {} delivered in-trace)",
        lifecycles.len(),
        done.len()
    );
    if !done.is_empty() {
        let n = done.len() as f64;
        let lat: Vec<u64> =
            done.iter().map(|l| l.latency().map(|d| d.as_nanos()).unwrap_or(0)).collect();
        let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / n / 1_000.0;
        let max = |xs: &[u64]| xs.iter().copied().max().unwrap_or(0) as f64 / 1_000.0;
        let queued: Vec<u64> = done.iter().map(|l| l.queued_ns).collect();
        let tx: Vec<u64> = done.iter().map(|l| l.tx_ns).collect();
        let _ = writeln!(rep, "  latency:  mean {:9.2}us  max {:9.2}us", mean(&lat), max(&lat));
        let _ =
            writeln!(rep, "  queueing: mean {:9.2}us  max {:9.2}us", mean(&queued), max(&queued));
        let _ = writeln!(rep, "  tx:       mean {:9.2}us  max {:9.2}us", mean(&tx), max(&tx));
        let _ = writeln!(
            rep,
            "  grants/msg: mean {:.2}   resends/msg: mean {:.2}",
            done.iter().map(|l| l.grants as u64).sum::<u64>() as f64 / n,
            done.iter().map(|l| l.resends as u64).sum::<u64>() as f64 / n,
        );
        let mut slowest = done.clone();
        slowest.sort_by_key(|l| std::cmp::Reverse(l.latency().map(|d| d.as_nanos()).unwrap_or(0)));
        let _ = writeln!(rep, "  slowest {} by latency:", SLOWEST.min(slowest.len()));
        let _ =
            writeln!(rep, "    src    dst    len        latency     queued      tx        grants");
        for l in slowest.iter().take(SLOWEST) {
            let _ = writeln!(
                rep,
                "    h{:<5} h{:<5} {:<10} {:>9.2}us {:>9.2}us {:>9.2}us {:>4}",
                l.src.0,
                l.dst.0,
                l.len,
                l.latency().map(|d| d.as_nanos()).unwrap_or(0) as f64 / 1_000.0,
                l.queued_ns as f64 / 1_000.0,
                l.tx_ns as f64 / 1_000.0,
                l.grants,
            );
        }
    }

    TraceRun { jsonl, kept: res.trace.len(), dropped: res.trace_dropped, report: rep }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homa_harness::FabricSpec;
    use homa_workloads::Workload;

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec::new(
            "trace_tiny",
            FabricSpec::MultiTor { hosts: 16 },
            Workload::W2,
            0.5,
            60,
            42,
        )
    }

    #[test]
    fn traced_run_produces_jsonl_and_report() {
        let tr = trace_run(Protocol::Homa, &tiny_spec(), 1 << 20);
        assert_eq!(tr.dropped, 0, "tiny run must fit the ring");
        assert!(tr.kept > 0, "trace must not be empty");
        assert_eq!(tr.jsonl.lines().count(), tr.kept);
        // Every line is a flat JSON object with a time and an event tag.
        for line in tr.jsonl.lines().take(50) {
            assert!(line.starts_with("{\"t\":"), "bad line {line:?}");
            assert!(line.contains("\"ev\":"), "bad line {line:?}");
            assert!(line.ends_with('}'), "bad line {line:?}");
        }
        assert!(tr.report.contains("TOR-downlink utilization by priority"));
        assert!(tr.report.contains("message lifecycles"));
        assert!(tr.report.contains("delivered in-trace"));
    }

    #[test]
    fn tracing_does_not_change_the_run() {
        // The flight recorder must be observation-only: same spec, traced
        // and untraced, delivers the same messages over the same fabric
        // trajectory (event count is the fingerprint).
        let spec = tiny_spec();
        let traced =
            run_protocol_scenario(Protocol::Homa, &spec, &OnewayOpts::default().with_trace(), None);
        let plain = run_protocol_scenario(Protocol::Homa, &spec, &OnewayOpts::default(), None);
        assert_eq!(traced.delivered, plain.delivered);
        assert_eq!(traced.stats.events_processed, plain.stats.events_processed);
        assert_eq!(traced.duration, plain.duration);
        assert!(!traced.trace.is_empty());
        assert!(plain.trace.is_empty());
    }
}
