//! `perf-smoke` — the CI fixed-point and footprint gate.
//!
//! Runs a fixed set of deterministic scenarios (fixed seed; W4 at 80%
//! load on 40- to 1,024-host multi-TOR leaf–spine fabrics, an incast
//! under link flaps, and 200,000 W1 messages on the 160-host fabric,
//! where per-message state rather than the event engine sets the cost
//! and the footprint),
//! measures wall-clock, events/sec and peak resident set, and emits a
//! machine-readable JSON report. CI compares the report against the
//! checked-in `BENCH_BASELINE.json` and fails when a deterministic count
//! changed or peak RSS grew by more than 25%. Wall-clock and events/sec
//! are recorded and printed but not gated: the baseline's machine is not
//! CI's, so a fixed tolerance against it either passes a regression
//! (`w4_80_160h` runs 1,870–2,230 ms here against the recorded 2,630) or
//! fails on noise. Speed claims come from alternated parent/change pairs
//! of `bash benchmark/run.sh`.
//!
//! ```text
//! perf-smoke [--out PATH] [--quick] [--rss] [--only SUBSTR]
//!     run the scenarios, print the JSON report, write it to PATH
//!     (default BENCH_PR.json); `--rss` samples per-scenario peak
//!     resident set (VmHWM, Linux) into the report's `peak_rss_kb`
//!     column; `--only` keeps just the scenarios whose name contains
//!     SUBSTR. When more than one scenario is selected, each runs in a
//!     child `perf-smoke --only <name>` process, so its peak resident
//!     set is its own and not the high-water mark of the rows before it.
//!     Where the time goes inside a run is the benchmark's question:
//!     `bash benchmark/run.sh --trace 1`.
//!
//! perf-smoke --compare BASELINE CURRENT
//!     print both reports' counts and peak RSS side by side with
//!     CURRENT's times (BASELINE's times follow on a history line: they
//!     were recorded on another machine), and exit nonzero if CURRENT's
//!     deterministic counts (messages, events, delivered) differ from
//!     BASELINE's (which means the simulation itself changed — refresh
//!     the baseline deliberately if intended) or its peak RSS is more
//!     than 25% above it. The RSS check is skipped when either report
//!     lacks the column.
//! ```
//!
//! To refresh the baseline after an intentional change:
//! `cargo run --release -p homa-bench --bin perf-smoke -- --rss --out BENCH_BASELINE.json`

use homa_bench::perfjson::{parse_report, render_report, Report, ScenarioReport};
use homa_bench::{run_protocol_scenario, Protocol};
use homa_harness::driver::{OnewayOpts, OnewayResult};
use homa_harness::ScenarioSpec;
use std::process::{Command, Stdio};
use std::time::Instant;

/// One gate scenario as a spec line (fixed seed: the runs are
/// deterministic, so the baseline's event counts must reproduce exactly),
/// plus the minimum delivered fraction it must reach. The uniform
/// scenarios must complete outright; the incast-under-flaps scenario
/// legitimately loses the few one-way messages whose every packet died on
/// the downed link (fire-and-forget), so its floor is lower — and the
/// exact delivered count is still pinned by the baseline comparison.
const GATE: [(&str, f64); 6] = [
    ("name=w4_80_40h fabric=mtor:40 wl=W4 load=0.8 msgs=1200 seed=42", 0.99),
    ("name=w4_80_100h fabric=mtor:100 wl=W4 load=0.8 msgs=3000 seed=42", 0.99),
    // The churn scenario the event engine targets: the largest multi-TOR
    // fabric the ROADMAP names (160 hosts, 16 racks), same W4 @ 80% shape
    // as the smaller rows.
    ("name=w4_80_160h fabric=mtor:160 wl=W4 load=0.8 msgs=4800 seed=42", 0.99),
    // Pins the scenario subsystem: a 20-wide incast at 80% of the
    // receiver's downlink, with that downlink flapping five times during
    // the burst. Event and delivered counts gate on this, so neither the
    // TrafficMatrix stream nor the fault dispatch path can drift silently.
    (
        "name=incast20_flap_40h fabric=mtor:40 wl=W4 load=0.8 msgs=600 seed=42 traffic=incast:20 \
         faults=5000000:down:hdn0,5500000:up:hdn0,15000000:down:hdn0,15500000:up:hdn0,\
         25000000:down:hdn0,25500000:up:hdn0,35000000:down:hdn0,35500000:up:hdn0,\
         45000000:down:hdn0,45500000:up:hdn0",
        0.90,
    ),
    // The short-message path: the benchmark's `sim_w1_small` spec, eight
    // events a message, nearly every message one packet. The whole run
    // fits inside one linger window (§3.8), so its peak RSS is what a
    // sender retains per fully-sent one-way times 200,000: 14 MB as
    // 40-byte slots of `SenderState`'s own-message store. A hash-table
    // entry per lingering one-way reads 25 MB or more.
    ("name=w1_80_160h fabric=mtor:160 wl=W1 load=0.8 msgs=200000 seed=42", 0.99),
    // The memory-lean scale target: 1024 hosts in 64 racks of 16 under 4
    // spines, same W4 @ 80% shape, with a message budget (~30 msgs/host)
    // that makes retained-per-message state visible in peak RSS. Runs with
    // streaming sketches only (no per-message records), so its
    // `peak_rss_kb` column is the arena/sketch regression gate.
    ("name=w4_80_1kh fabric=mtor:1024 wl=W4 load=0.8 msgs=30720 seed=42", 0.99),
];

/// The gate's scenarios, with a quarter of the messages under `--quick`.
fn gate_scenarios(quick: bool) -> Vec<(ScenarioSpec, f64)> {
    let scale = if quick { 4 } else { 1 };
    GATE.iter()
        .map(|&(line, min_delivered_frac)| {
            let spec = ScenarioSpec::parse_spec_line(line).expect("a gate line parses");
            let messages = spec.messages / scale;
            (spec.with_messages(messages), min_delivered_frac)
        })
        .collect()
}

/// Peak resident set (VmHWM) of this process in KiB, from
/// `/proc/self/status`; 0 when unavailable (non-Linux).
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
        }
    }
    0
}

/// How one gate invocation runs: which scenario subset, and whether
/// peak RSS is sampled.
struct GateCfg {
    quick: bool,
    rss: bool,
    /// Keep only scenarios whose name contains this substring.
    only: Option<String>,
}

/// Run one scenario, returning the result, wall seconds and peak RSS.
fn run_once(spec: &ScenarioSpec, rss: bool) -> (OnewayResult, f64, u64) {
    let start = Instant::now();
    let res = run_protocol_scenario(Protocol::Homa, spec, &OnewayOpts::default(), None);
    let wall = start.elapsed().as_secs_f64();
    let peak_kb = if rss { peak_rss_kb() } else { 0 };
    (res, wall, peak_kb)
}

/// Run scenario `name` in a child `perf-smoke --only <name>` and return
/// its report's one row. No scenario's full name is a substring of
/// another's, so the child selects that row alone and runs it in-process.
fn run_in_child(name: &str, cfg: &GateCfg) -> ScenarioReport {
    let exe = std::env::current_exe().expect("perf-smoke knows its own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--only", name, "--out", "/dev/null"]);
    if cfg.quick {
        cmd.arg("--quick");
    }
    if cfg.rss {
        cmd.arg("--rss");
    }
    let out = cmd.stderr(Stdio::inherit()).output().expect("perf-smoke starts a child");
    if !out.status.success() {
        eprintln!("perf-smoke: the child running {name} failed ({})", out.status);
        std::process::exit(out.status.code().unwrap_or(2));
    }
    let report = String::from_utf8_lossy(&out.stdout);
    let mut report = parse_report(&report).unwrap_or_else(|e| {
        eprintln!("perf-smoke: cannot parse the report of {name}: {e}");
        std::process::exit(2);
    });
    assert_eq!(report.scenarios.len(), 1, "the child ran exactly {name}");
    report.scenarios.remove(0)
}

fn run_gate(cfg: &GateCfg) -> Report {
    let selected: Vec<(ScenarioSpec, f64)> = gate_scenarios(cfg.quick)
        .into_iter()
        .filter(|(spec, _)| cfg.only.as_ref().is_none_or(|f| spec.name.contains(f.as_str())))
        .collect();
    let mut scenarios = Vec::new();
    for (spec, min_delivered_frac) in &selected {
        if selected.len() > 1 {
            scenarios.push(run_in_child(&spec.name, cfg));
            continue;
        }
        eprintln!("running {} ...", spec.name);
        let (res, wall, peak_kb) = run_once(spec, cfg.rss);
        let events = res.stats.events_processed;
        let wall_ms = wall * 1e3;
        let eps = events as f64 / wall.max(1e-9);
        assert!(
            res.delivered as f64 >= res.injected as f64 * *min_delivered_frac,
            "{}: only {}/{} delivered — scenario miscalibrated",
            spec.name,
            res.delivered,
            res.injected
        );
        scenarios.push(ScenarioReport {
            name: spec.name.clone(),
            hosts: spec.fabric.hosts() as u64,
            messages: res.injected,
            delivered: res.delivered,
            events,
            sim_ns: res.duration.as_nanos(),
            wall_ms,
            events_per_sec: eps,
            peak_rss_kb: peak_kb,
        });
        eprintln!(
            "  {}: {:.0} ms, {} events, {:.0} events/s{}",
            spec.name,
            wall_ms,
            events,
            eps,
            if peak_kb > 0 { format!(", peak RSS {peak_kb} KiB") } else { String::new() },
        );
        // The wheel's counters on this row (deterministic, like `events`).
        let e = res.engine_stats;
        eprintln!(
            "  {}: {} wheel and {} far inserts; {} instants popped, {} at most at one",
            spec.name, e.bucket_events, e.far_events, e.epochs_merged, e.max_epoch_events,
        );
    }
    if scenarios.is_empty() {
        eprintln!("perf-smoke: --only {:?} matched no scenario", cfg.only.as_deref().unwrap_or(""));
        std::process::exit(2);
    }
    Report {
        schema: 1,
        produced_by: format!(
            "perf-smoke (homa-bench), seed 42, engine Hierarchical{}",
            if cfg.quick { ", quick" } else { "" }
        ),
        scenarios,
    }
}

/// How far above the baseline a row's peak RSS may sit. The only guard on
/// the 1,024-host footprint until the benchmark has a workload that size.
const RSS_TOLERANCE: f64 = 0.25;

/// Compare `cur` against `base`; returns human-readable failures.
fn regressions(base: &Report, cur: &Report) -> Vec<String> {
    let mut fails = Vec::new();
    for b in &base.scenarios {
        let Some(c) = cur.scenarios.iter().find(|s| s.name == b.name) else {
            fails.push(format!("{}: missing from current report", b.name));
            continue;
        };
        if c.messages != b.messages {
            // Different injection budgets are a comparison mistake (e.g. a
            // --quick report against the full baseline), not a regression.
            fails.push(format!(
                "{}: scenario shapes differ (messages {} -> {}); are you comparing \
                 a --quick report against a full baseline?",
                b.name, b.messages, c.messages
            ));
            continue;
        }
        if c.events != b.events {
            fails.push(format!(
                "{}: deterministic event count changed ({} -> {}); if the simulation \
                 change is intentional, refresh BENCH_BASELINE.json",
                b.name, b.events, c.events
            ));
        }
        if c.delivered != b.delivered {
            fails.push(format!(
                "{}: delivered count changed ({} -> {})",
                b.name, b.delivered, c.delivered
            ));
        }
        // Peak-RSS gate: only when both sides actually sampled it (a 0
        // means --rss was off, the platform lacks VmHWM, or the report
        // predates the column).
        if b.peak_rss_kb > 0
            && c.peak_rss_kb > 0
            && c.peak_rss_kb as f64 > b.peak_rss_kb as f64 * (1.0 + RSS_TOLERANCE)
        {
            fails.push(format!(
                "{}: peak RSS regressed {} KiB -> {} KiB (> {:.0}% tolerance)",
                b.name,
                b.peak_rss_kb,
                c.peak_rss_kb,
                RSS_TOLERANCE * 100.0
            ));
        }
    }
    fails
}

fn compare(base_path: &str, cur_path: &str) -> i32 {
    let load = |p: &str| -> Report {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("perf-smoke: cannot read {p}: {e}");
            std::process::exit(2);
        });
        parse_report(&text).unwrap_or_else(|e| {
            eprintln!("perf-smoke: cannot parse {p}: {e}");
            std::process::exit(2);
        })
    };
    let base = load(base_path);
    let cur = load(cur_path);
    println!(
        "perf-smoke comparison (counts exact, peak RSS within {:.0}%, times not gated):",
        RSS_TOLERANCE * 100.0
    );
    println!(
        "{:<18} {:>10} {:>10} {:>9} {:>9} {:>10} {:>10} {:>9} {:>11}",
        "scenario",
        "base ev",
        "cur ev",
        "base dlv",
        "cur dlv",
        "base rss",
        "cur rss",
        "cur ms",
        "cur ev/s"
    );
    let rss_col = |kb: u64| {
        if kb > 0 {
            format!("{:.1} MiB", kb as f64 / 1024.0)
        } else {
            "-".to_string()
        }
    };
    for b in &base.scenarios {
        if let Some(c) = cur.scenarios.iter().find(|s| s.name == b.name) {
            println!(
                "{:<18} {:>10} {:>10} {:>9} {:>9} {:>10} {:>10} {:>9.1} {:>11.0}",
                b.name,
                b.events,
                c.events,
                b.delivered,
                c.delivered,
                rss_col(b.peak_rss_kb),
                rss_col(c.peak_rss_kb),
                c.wall_ms,
                c.events_per_sec
            );
        }
    }
    // The baseline's times describe the machine and the moment it was
    // recorded on, so they are history, not a reference for this run.
    println!("history: the baseline's times, recorded on another machine:");
    for b in &base.scenarios {
        println!("  {:<18} {:>9.1} ms {:>11.0} ev/s", b.name, b.wall_ms, b.events_per_sec);
    }
    let fails = regressions(&base, &cur);
    if fails.is_empty() {
        println!("OK: counts match, peak RSS within {:.0}%", RSS_TOLERANCE * 100.0);
        0
    } else {
        for f in &fails {
            eprintln!("FAIL: {f}");
        }
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_PR.json");
    let mut quick = false;
    let mut rss = false;
    let mut only: Option<String> = None;
    let mut compare_paths: Option<(String, String)> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = args.get(i).cloned().unwrap_or_else(|| usage("--out needs a path"));
            }
            "--quick" => quick = true,
            "--rss" => rss = true,
            "--only" => {
                i += 1;
                only =
                    Some(args.get(i).cloned().unwrap_or_else(|| usage("--only needs a substring")));
            }
            "--compare" => {
                let b = args.get(i + 1).cloned().unwrap_or_else(|| usage("--compare BASE CUR"));
                let c = args.get(i + 2).cloned().unwrap_or_else(|| usage("--compare BASE CUR"));
                compare_paths = Some((b, c));
                i += 2;
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }

    if let Some((base, cur)) = compare_paths {
        std::process::exit(compare(&base, &cur));
    }

    let cfg = GateCfg { quick, rss, only };
    let report = run_gate(&cfg);
    let json = render_report(&report);
    print!("{json}");
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("perf-smoke: cannot write {out}: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote {out}");
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("perf-smoke: {err}");
    }
    eprintln!(
        "usage: perf-smoke [--out PATH] [--quick] [--rss] [--only SUBSTR]\n\
         \x20      perf-smoke --compare BASELINE CURRENT"
    );
    std::process::exit(2);
}
