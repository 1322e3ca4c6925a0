//! Every run `repro` logs replays from its line. The progress lines of
//! `repro fig8` (W3: echo RPCs and the one-way stream), `fig10` (incast,
//! control on and off) and `fig16` (three scheduled-priority variants)
//! are read back by `parse_run_line` and rerun through
//! `run_protocol_scenario` to the delivered, aborted and event counts
//! they logged; fig16's first and fig8's stream line are replayed by
//! `repro trace` as well. Runs that differ in protocol, variant or shape
//! print different lines, and every line is a run of shell words that a
//! shell passes on unquoted.

use homa_bench::{parse_run_line, run_protocol_scenario, tally};
use homa_harness::driver::OnewayOpts;
use std::collections::BTreeSet;
use std::process::Command;

/// `repro <args>`'s stdout and stderr; panics unless it exits 0.
fn repro(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(["--out-dir", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("repro runs");
    let text = |b: Vec<u8>| String::from_utf8(b).expect("utf-8 output");
    let (stdout, stderr) = (text(out.stdout), text(out.stderr));
    assert!(out.status.success(), "repro {args:?} failed:\n{stderr}");
    (stdout, stderr)
}

/// The run line and tally of every progress line `repro <figure>` prints.
fn logged_runs(figure: &[&str]) -> Vec<(String, String)> {
    let (_, stderr) = repro(&[figure, &["--seed", "42", "--scale", "0.02"][..]].concat());
    let runs: Vec<(String, String)> = (stderr.lines())
        .filter(|l| l.starts_with("  proto="))
        .map(|l| {
            let (run, rest) = l.trim().split_once("  ").expect("a run line, then its tally");
            let (tally, _secs) = rest.rsplit_once("  ").expect("a tally, then wall seconds");
            (run.to_string(), tally.to_string())
        })
        .collect();
    for (line, _) in &runs {
        let shell_safe = |c: char| c.is_ascii_alphanumeric() || " =._:,-".contains(c);
        assert!(line.chars().all(shell_safe), "a shell would not take `{line}` unquoted");
    }
    let lines: BTreeSet<&String> = runs.iter().map(|(line, _)| line).collect();
    assert_eq!(lines.len(), runs.len(), "two runs of {figure:?} print the same line");
    runs
}

#[test]
fn every_logged_run_replays_to_its_counts() {
    let fig8 = logged_runs(&["fig8", "--workloads", "W3"]);
    let fig10 = logged_runs(&["fig10"]);
    let fig16 = logged_runs(&["fig16"]);
    // Five Homa-family RPC runs and the stream's one-ways; six fan-ins,
    // each with control and without; three variants at three loads.
    assert_eq!((fig8.len(), fig10.len(), fig16.len()), (6, 12, 9));
    for (line, _) in &fig8 {
        let one_way = line.starts_with("proto=Stream");
        assert_eq!(line.ends_with("shape=rpc"), !one_way, "{line}");
    }
    assert!(fig10.iter().all(|(line, _)| line.contains("variant=") && line.ends_with("incast")));
    for (line, logged) in fig8.iter().chain(&fig10).chain(&fig16) {
        let (p, variant, spec) = parse_run_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        let res = run_protocol_scenario(p, &spec, &OnewayOpts::default(), variant);
        assert_eq!(&tally(&res), logged, "{line}");
    }
    // `repro trace` reports the same tally for the runs it replays.
    let stream = fig8.iter().find(|(line, _)| line.starts_with("proto=Stream "));
    for (line, logged) in [&fig16[0], stream.expect("fig8 runs the stream")] {
        let mut trace = vec!["trace", "--cap", "1"];
        trace.extend(line.split(' '));
        let (report, _) = repro(&trace);
        assert!(report.contains(&format!("{logged}; trace records")), "{report}");
    }
}
