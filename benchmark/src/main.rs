//! The measured binary: end-to-end metrics, `--check`, `--aa`. It
//! carries no instrumentation; on `--trace 1` it replaces itself with the
//! traced binary built beside it.

use homa_benchmark::cli::{self, Args};
use homa_benchmark::metrics::render_result;
use homa_benchmark::plan::{Scale, WorkloadId};
use homa_benchmark::run::{run_measured, Budget};
use std::process::ExitCode;

fn check(args: &Args) -> Result<(), String> {
    let workloads = args.workload.map_or(WorkloadId::ALL.to_vec(), |w| vec![w]);
    for w in workloads {
        let out = run_measured(w, args.seed, Budget::Repeats(2), Scale::Tenth)?;
        if !out.correct || out.failed != 0 {
            return Err(format!("{}: {} of {} failed", w.name(), out.failed, out.attempted));
        }
        eprintln!("{}: ok\n{}", w.name(), out.metrics.render_table());
    }
    println!("check: ok");
    Ok(())
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse(&argv).map_err(|e| format!("{e}\n{}", cli::USAGE))?;
    if args.trace {
        use std::os::unix::process::CommandExt;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let traced = exe.with_file_name("homa-benchmark-traced");
        // `exec` returns only if it failed.
        let err = std::process::Command::new(&traced).args(&argv).exec();
        return Err(format!("{}: {err}", traced.display()));
    }
    if args.check {
        return check(&args).map(|()| ExitCode::SUCCESS);
    }
    if let Some(n) = args.aa {
        let (report, ok) = homa_benchmark::aa::run(n, args.seconds)?;
        println!("{report}");
        return Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE });
    }
    let workload = args.workload.expect("parse() requires it");
    let out = run_measured(workload, args.seed, Budget::Seconds(args.seconds), Scale::Full)?;
    eprint!("{}", out.metrics.render_table());
    println!("{}", render_result(out.correct, out.attempted, out.failed, &out.metrics));
    Ok(if out.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("homa-benchmark: {e}");
        ExitCode::from(2)
    })
}
