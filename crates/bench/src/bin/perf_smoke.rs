//! `perf-smoke` — the CI fixed-point and footprint gate.
//!
//! Runs a fixed set of deterministic scenarios (fixed seed; W4 at 80%
//! load on 40- to 160-host multi-TOR fabrics and the 1,024-host fat
//! tree, an incast under link flaps, and 200,000 W1 messages on the
//! 160-host fabric, where per-message state rather than the event engine
//! sets the cost and the footprint),
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
//!     SUBSTR. Where the time goes inside a run is the benchmark's
//!     question: `bash benchmark/run.sh --trace 1`.
//!
//! perf-smoke --compare BASELINE CURRENT
//!     print both reports side by side and exit nonzero if CURRENT's
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
use homa_harness::{FabricSpec, ScenarioSpec};
use homa_sim::{FaultPlan, HostId, LinkId};
use homa_workloads::{TrafficSpec, Workload};
use std::time::Instant;

/// Fixed seed for every gate scenario: the runs are deterministic, so
/// the baseline's event counts must reproduce exactly.
const SEED: u64 = 42;

/// One gate scenario plus the minimum delivered fraction it must reach.
/// The uniform scenarios must complete outright; the incast-under-flaps
/// scenario legitimately loses the few one-way messages whose every
/// packet died on the downed link (fire-and-forget), so its floor is
/// lower — and the exact delivered count is still pinned by the
/// baseline comparison.
struct GateScenario {
    spec: ScenarioSpec,
    min_delivered_frac: f64,
}

fn gate_scenarios(quick: bool) -> Vec<GateScenario> {
    let scale = if quick { 4 } else { 1 };
    vec![
        GateScenario {
            spec: ScenarioSpec::new(
                "w4_80_40h",
                FabricSpec::MultiTor { hosts: 40 },
                Workload::W4,
                0.8,
                1_200 / scale,
                SEED,
            ),
            min_delivered_frac: 0.99,
        },
        GateScenario {
            spec: ScenarioSpec::new(
                "w4_80_100h",
                FabricSpec::MultiTor { hosts: 100 },
                Workload::W4,
                0.8,
                3_000 / scale,
                SEED,
            ),
            min_delivered_frac: 0.99,
        },
        // The churn scenario the calendar engine targets: the
        // largest multi-TOR fabric the ROADMAP names (160 hosts, 16
        // racks), same W4 @ 80% shape as the smaller rows.
        GateScenario {
            spec: ScenarioSpec::new(
                "w4_80_160h",
                FabricSpec::MultiTor { hosts: 160 },
                Workload::W4,
                0.8,
                4_800 / scale,
                SEED,
            ),
            min_delivered_frac: 0.99,
        },
        // Pins the scenario subsystem: a 20-wide incast at 80% of the
        // victim's downlink, with that downlink flapping five times
        // during the burst. Event and delivered counts gate on this, so
        // neither the TrafficMatrix stream nor the fault dispatch path
        // can drift silently.
        GateScenario {
            spec: ScenarioSpec::new(
                "incast20_flap_40h",
                FabricSpec::MultiTor { hosts: 40 },
                Workload::W4,
                0.8,
                600 / scale,
                SEED,
            )
            .with_traffic(TrafficSpec::incast(20))
            .with_faults(FaultPlan::new().link_flaps(
                LinkId::HostDownlink(HostId(0)),
                5_000_000,
                500_000,
                10_000_000,
                5,
            )),
            min_delivered_frac: 0.90,
        },
        // The short-message path: the benchmark's `sim_w1_small` spec,
        // eight events a message, nearly every message one packet. The
        // whole run fits inside one linger window (§3.8), so its peak RSS
        // is what a sender retains per fully-sent one-way times 200,000:
        // 25 MB as parked-ring records, 58 MB when they were whole
        // messages in two hash tables.
        GateScenario {
            spec: ScenarioSpec::new(
                "w1_80_160h",
                FabricSpec::MultiTor { hosts: 160 },
                Workload::W1,
                0.8,
                200_000 / scale,
                SEED,
            ),
            min_delivered_frac: 0.99,
        },
        // The memory-lean scale target: 1024 hosts on a k=16 fat tree,
        // same W4 @ 80% shape, with a message budget (~30 msgs/host)
        // that makes retained-per-message state visible in peak RSS.
        // Runs with streaming sketches only (no per-message records), so
        // its `peak_rss_kb` column is the arena/sketch regression gate.
        GateScenario {
            spec: ScenarioSpec::new(
                "w4_80_1kh",
                FabricSpec::FatTree { k: 16 },
                Workload::W4,
                0.8,
                30_720 / scale,
                SEED,
            ),
            min_delivered_frac: 0.99,
        },
    ]
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

/// Reset the VmHWM peak to the current RSS (write `5` to
/// `/proc/self/clear_refs`), so each scenario's peak is its own.
/// Best-effort: on kernels/filesystems that refuse the write, peaks
/// accumulate monotonically across scenarios — still a valid upper
/// bound, just a coarser one.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
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
    if rss {
        reset_peak_rss();
    }
    let start = Instant::now();
    let res = run_protocol_scenario(Protocol::Homa, spec, &OnewayOpts::default(), None);
    let wall = start.elapsed().as_secs_f64();
    let peak_kb = if rss { peak_rss_kb() } else { 0 };
    (res, wall, peak_kb)
}

fn run_gate(cfg: &GateCfg) -> Report {
    let mut scenarios = Vec::new();
    for GateScenario { spec, min_delivered_frac } in gate_scenarios(cfg.quick) {
        if let Some(f) = &cfg.only {
            if !spec.name.contains(f.as_str()) {
                continue;
            }
        }
        eprintln!("running {} ...", spec.name);
        let (res, wall, peak_kb) = run_once(&spec, cfg.rss);
        let events = res.stats.events_processed;
        let wall_ms = wall * 1e3;
        let eps = events as f64 / wall.max(1e-9);
        assert!(
            res.delivered as f64 >= res.injected as f64 * min_delivered_frac,
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
        // The calendar's shape on this row (deterministic, like `events`).
        let e = res.engine_stats;
        let scheduled = (e.bucket_events + e.late_events + e.far_events).max(1);
        eprintln!(
            "  {}: epochs hold {:.1} events on average, {} at most; {:.3} of events scheduled late",
            spec.name,
            e.bucket_events as f64 / e.epochs_merged.max(1) as f64,
            e.max_epoch_events,
            e.late_events as f64 / scheduled as f64,
        );
    }
    if scenarios.is_empty() {
        eprintln!("perf-smoke: --only {:?} matched no scenario", cfg.only.as_deref().unwrap_or(""));
        std::process::exit(2);
    }
    Report {
        schema: 1,
        produced_by: format!(
            "perf-smoke (homa-bench), seed {SEED}, engine Hierarchical{}",
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
        "{:<14} {:>12} {:>12} {:>14} {:>14} {:>12} {:>12}",
        "scenario", "base ms", "cur ms", "base ev/s", "cur ev/s", "base rss", "cur rss"
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
                "{:<14} {:>12.1} {:>12.1} {:>14.0} {:>14.0} {:>12} {:>12}",
                b.name,
                b.wall_ms,
                c.wall_ms,
                b.events_per_sec,
                c.events_per_sec,
                rss_col(b.peak_rss_kb),
                rss_col(c.peak_rss_kb)
            );
        }
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
