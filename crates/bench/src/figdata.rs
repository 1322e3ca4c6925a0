//! Figure-data builders behind the `repro` binary.
//!
//! Each paper figure/table has a builder that *runs the experiment and
//! returns the data* as a [`FigTable`] (printing the familiar text table
//! as it goes): the `repro` binary is a thin CLI over this module, the
//! golden tests pin the tables' schema and seed-42 numbers, and the
//! `repro compare` figure-accuracy gate joins the tables against the
//! digitized reference curves in [`homa_harness::figures`].
//!
//! Rows destined for the comparison carry the canonical columns
//! (`workload`/`protocol`/`variant`/`load`/`metric`/`x`/`value`, see
//! [`measured_points`]); everything else is free-form per figure.

use crate::perfjson::{render_table, Field, FigRow, FigTable};
use crate::{run_protocol_rpc_scenario, run_protocol_scenario, Protocol};
use homa::HomaConfig;
use homa_baselines::homa_sim::static_map_for_workload;
use homa_baselines::HomaSimTransport;
use homa_harness::capacity::{max_sustainable_load, max_sustainable_load_with, CapacitySearch};
use homa_harness::driver::OnewayOpts;
use homa_harness::figures::{self, MeasuredPoint};
use homa_harness::render::{delta_report, fmt_bps, fmt_bytes, slowdown_table};
use homa_harness::slowdown::SlowdownSummary;
use homa_harness::{FabricSpec, ScenarioSpec};
use homa_sim::{PortClass, SimDuration, Topology};
use homa_workloads::Workload;
use std::collections::BTreeMap;

/// Options shared by every `repro` experiment (the binary's CLI flags).
#[derive(Debug, Clone)]
pub struct ReproOpts {
    /// Paper-scale fabric and message counts (`--full`).
    pub full: bool,
    /// Workloads to sweep where a figure allows a choice.
    pub workloads: Vec<Workload>,
    /// Loads to sweep where a figure allows a choice.
    pub loads: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
    /// Multiplier on per-workload message budgets (`--scale`).
    pub msgs_scale: f64,
    /// Number of size bins in slowdown tables.
    pub bins: usize,
}

impl Default for ReproOpts {
    fn default() -> Self {
        ReproOpts {
            full: false,
            workloads: vec![Workload::W2, Workload::W4],
            loads: vec![0.8],
            seed: 1,
            msgs_scale: 1.0,
            bins: 10,
        }
    }
}

impl ReproOpts {
    /// Simulation fabric: scaled-down by default, Figure 11's 144 hosts
    /// with `--full`.
    pub fn fabric_spec(&self) -> FabricSpec {
        if self.full {
            FabricSpec::Paper
        } else {
            FabricSpec::LeafSpine { racks: 3, hosts_per_rack: 8, spines: 2 }
        }
    }

    /// The fabric as a concrete topology (for printing shapes and
    /// computing link capacities).
    pub fn fabric(&self) -> Topology {
        self.fabric_spec().topology()
    }

    /// A one-way [`ScenarioSpec`] on this run's fabric and seed.
    fn spec(&self, name: &str, w: Workload, load: f64, msgs: u64) -> ScenarioSpec {
        ScenarioSpec::new(name, self.fabric_spec(), w, load, msgs, self.seed)
    }

    /// Message budget per workload, chosen so event counts (~bytes) are
    /// comparable across workloads.
    pub fn msgs_for(&self, w: Workload) -> u64 {
        let base = match w {
            Workload::W1 => 40_000,
            Workload::W2 => 25_000,
            Workload::W3 => 12_000,
            Workload::W4 => 3_000,
            Workload::W5 => 500,
        };
        let full_mult = if self.full { 8 } else { 1 };
        ((base * full_mult) as f64 * self.msgs_scale) as u64
    }

    /// Deterministic provenance string for `FIG_<n>.json` (no
    /// timestamps: golden tests pin whole files).
    fn stamp(&self, figure: &str) -> String {
        format!(
            "repro {figure} (homa-bench), seed {}, scale {}, {}",
            self.seed,
            self.msgs_scale,
            if self.full { "paper-scale fabric" } else { "reduced fabric" }
        )
    }
}

/// Tiny builder so row construction reads as a sentence.
struct Row(FigRow);

impl Row {
    fn new() -> Row {
        Row(BTreeMap::new())
    }

    fn s(mut self, k: &str, v: &str) -> Row {
        self.0.insert(k.to_string(), Field::Text(v.to_string()));
        self
    }

    fn n(mut self, k: &str, v: f64) -> Row {
        self.0.insert(k.to_string(), Field::Num(v));
        self
    }

    /// The canonical curve-identity columns (who measured what).
    fn curve(self, workload: &str, protocol: &str, variant: &str, load: f64, metric: &str) -> Row {
        self.s("workload", workload)
            .s("protocol", protocol)
            .s("variant", variant)
            .n("load", load)
            .s("metric", metric)
    }

    /// The canonical data columns (where the point sits).
    fn xy(self, x: f64, value: f64) -> Row {
        self.n("x", x).n("value", value)
    }

    fn push(self, t: &mut FigTable) {
        t.rows.push(self.0);
    }
}

/// Extract the measured points of a table: every row carrying the full
/// set of canonical columns (`variant` defaults to empty). This is the
/// contract between the figure builders and the comparison gate; the
/// golden tests pin it.
pub fn measured_points(t: &FigTable) -> Vec<MeasuredPoint> {
    t.rows
        .iter()
        .filter_map(|row| {
            Some(MeasuredPoint {
                figure: t.figure.clone(),
                workload: row.get("workload")?.as_text()?.to_string(),
                protocol: row.get("protocol")?.as_text()?.to_string(),
                variant: row
                    .get("variant")
                    .and_then(|f| f.as_text())
                    .unwrap_or_default()
                    .to_string(),
                load: row.get("load")?.as_num()?,
                metric: row.get("metric")?.as_text()?.to_string(),
                x: row.get("x")?.as_num()?,
                y: row.get("value")?.as_num()?,
            })
        })
        .collect()
}

/// One canonical row per slowdown bin, x = the bin's cumulative
/// message-count percentile (the x-axis of Figures 8/9/12/13).
fn push_slowdown_bins(
    t: &mut FigTable,
    workload: &str,
    protocol: &str,
    load: f64,
    metric: &str,
    s: &SlowdownSummary,
) {
    let total: usize = s.bins.iter().map(|b| b.count).sum();
    let mut cum = 0usize;
    for b in &s.bins {
        cum += b.count;
        let x = 100.0 * cum as f64 / total.max(1) as f64;
        let value = if metric.starts_with("p50") { b.p50 } else { b.p99 };
        Row::new()
            .curve(workload, protocol, "", load, metric)
            .xy(x, value)
            .n("min_size", b.min_size as f64)
            .n("max_size", b.max_size as f64)
            .n("count", b.count as f64)
            .push(t);
    }
}

/// Figure 1: the workload CDFs (message- and byte-weighted).
pub fn fig1(opts: &ReproOpts) -> FigTable {
    let mut t = FigTable::new("fig1", opts.stamp("fig1"));
    println!("=== Figure 1: workload message-size CDFs ===");
    for w in Workload::ALL {
        let d = w.dist();
        println!("\n{w} ({}) — mean {:.0} B", w.description(), d.mean());
        println!("{:>6} {:>12} {:>14} {:>14}", "pct", "size", "CDF(msgs)", "CDF(bytes)");
        for (pct, size) in d.decile_points() {
            println!(
                "{:>5.0}% {:>12} {:>13.1}% {:>13.1}%",
                pct,
                size,
                d.cdf(size) * 100.0,
                d.byte_weighted_cdf(size) * 100.0
            );
            Row::new()
                .s("workload", w.name())
                .n("x", pct)
                .n("size", size as f64)
                .n("cdf_msgs", d.cdf(size))
                .n("cdf_bytes", d.byte_weighted_cdf(size))
                .push(&mut t);
        }
    }
    t
}

/// Figure 4: unscheduled priority allocation per workload.
pub fn fig4(opts: &ReproOpts) -> FigTable {
    let mut t = FigTable::new("fig4", opts.stamp("fig4"));
    println!("\n=== Figure 4: unscheduled priority allocation (8 levels) ===");
    let cfg = HomaConfig::default();
    for w in Workload::ALL {
        let map = static_map_for_workload(&w.dist(), &cfg);
        let d = w.dist();
        let unsched_frac = d.mean_capped(cfg.rtt_bytes) / d.mean();
        print!(
            "{w}: unscheduled bytes {:>4.1}% -> {} unscheduled + {} scheduled levels; cutoffs: ",
            unsched_frac * 100.0,
            map.unsched_levels,
            map.sched_levels()
        );
        let mut cutoff_text = String::new();
        if map.cutoffs.is_empty() {
            println!("(single unscheduled level)");
        } else {
            let mut prev = 1u64;
            let top = map.num_priorities - 1;
            for (i, &c) in map.cutoffs.iter().enumerate() {
                let seg = format!("P{}:{}..{}B ", top - i as u8, prev, c);
                print!("{seg}");
                cutoff_text.push_str(&seg);
                prev = c + 1;
            }
            let last = format!("P{}:{}B+", top - map.cutoffs.len() as u8, prev);
            println!("{last}");
            cutoff_text.push_str(&last);
        }
        Row::new()
            .s("workload", w.name())
            .n("unsched_frac", unsched_frac)
            .n("unsched_levels", map.unsched_levels as f64)
            .n("sched_levels", map.sched_levels() as f64)
            .s("cutoffs", cutoff_text.trim())
            .push(&mut t);
    }
    t
}

/// Figures 8/9: implementation echo-RPC slowdown. Both figures
/// summarize the same runs (p99 vs p50), so they are built together.
pub fn fig8_9(opts: &ReproOpts) -> (FigTable, FigTable) {
    let mut t8 = FigTable::new("fig8", opts.stamp("fig8"));
    let mut t9 = FigTable::new("fig9", opts.stamp("fig9"));
    println!("\n=== Figures 8/9 (p99/p50): echo RPC slowdown, 16-node cluster, 80% load ===");
    let cluster = FabricSpec::SingleSwitch { hosts: 16 };
    let workloads = if opts.workloads == ReproOpts::default().workloads {
        vec![Workload::W3, Workload::W4, Workload::W5]
    } else {
        opts.workloads.clone()
    };
    let protos = [
        Protocol::Homa,
        Protocol::HomaP(4),
        Protocol::HomaP(2),
        Protocol::HomaP(1),
        Protocol::Basic,
    ];
    let push_overall = |t: &mut FigTable,
                        w: Workload,
                        p: Protocol,
                        metric: &str,
                        stat: f64,
                        done: u64,
                        all: u64| {
        Row::new()
            .curve(w.name(), &p.name(), "", 0.8, metric)
            .xy(0.0, stat)
            .n("completed", done as f64)
            .n("issued", all as f64)
            .push(t);
    };
    for w in workloads {
        let n = opts.msgs_for(w);
        let spec = ScenarioSpec::new("fig8_9_rpc", cluster, w, 0.8, n, opts.seed);
        println!("\n--- workload {w}, {n} RPCs ---");
        for p in protos {
            let res = run_protocol_rpc_scenario(p, &spec, &OnewayOpts::default().with_records());
            let s = SlowdownSummary::from_records(&res.records, opts.bins);
            println!(
                "{:<10} completed {}/{} overall p99 {:>8.2}  p50 {:>8.2}",
                p.name(),
                res.delivered,
                res.injected,
                s.overall_p99,
                s.overall_p50
            );
            for b in &s.bins {
                println!(
                    "    {:>10}..{:<10} {:>8.2} {:>8.2}",
                    b.min_size, b.max_size, b.p99, b.p50
                );
            }
            push_slowdown_bins(&mut t8, w.name(), &p.name(), 0.8, "p99_slowdown", &s);
            push_overall(&mut t8, w, p, "overall_p99", s.overall_p99, res.delivered, res.injected);
            push_slowdown_bins(&mut t9, w.name(), &p.name(), 0.8, "p50_slowdown", &s);
            push_overall(&mut t9, w, p, "overall_p50", s.overall_p50, res.delivered, res.injected);
        }
        // The streaming baseline demonstrates head-of-line blocking
        // (one-way messages; the effect the paper's TCP/InfRC rows show).
        let res = run_protocol_scenario(
            Protocol::Stream,
            &ScenarioSpec::new("fig8_9_stream", cluster, w, 0.8, opts.msgs_for(w), opts.seed),
            &OnewayOpts::default().with_records(),
            None,
        );
        let s = SlowdownSummary::from_records(&res.records, opts.bins);
        println!(
            "{:<10} (one-way) delivered {}/{} overall p99 {:>8.2}  p50 {:>8.2}",
            Protocol::Stream.name(),
            res.delivered,
            res.injected,
            s.overall_p99,
            s.overall_p50
        );
        push_overall(
            &mut t8,
            w,
            Protocol::Stream,
            "overall_p99",
            s.overall_p99,
            res.delivered,
            res.injected,
        );
        push_overall(
            &mut t9,
            w,
            Protocol::Stream,
            "overall_p50",
            s.overall_p50,
            res.delivered,
            res.injected,
        );
    }
    (t8, t9)
}

/// Figure 8: echo-RPC p99 slowdown.
pub fn fig8(opts: &ReproOpts) -> FigTable {
    fig8_9(opts).0
}

/// Figure 9: echo-RPC median slowdown.
pub fn fig9(opts: &ReproOpts) -> FigTable {
    fig8_9(opts).1
}

/// Figure 10: incast throughput with/without incast control.
pub fn fig10(opts: &ReproOpts) -> FigTable {
    let mut t = FigTable::new("fig10", opts.stamp("fig10"));
    println!("\n=== Figure 10: incast (10 KB responses, 15 servers) ===");
    let cluster = FabricSpec::SingleSwitch { hosts: 16 };
    let sweep: Vec<u64> = if opts.full {
        vec![16, 64, 128, 256, 512, 1024, 2048, 4096]
    } else {
        vec![16, 64, 128, 256, 512, 1024]
    };
    println!("{:>12} {:>32} {:>32}", "concurrent", "with control", "without control");
    for &n in &sweep {
        let mut row = Vec::new();
        for enabled in [true, false] {
            let cfg = HomaConfig {
                incast_threshold: if enabled { 32 } else { u32::MAX },
                ..HomaConfig::default()
            };
            let spec = ScenarioSpec::incast("fig10", cluster, n, opts.seed);
            let res = spec.run_incast(
                None,
                |h| HomaSimTransport::new(h, cfg.clone()),
                &OnewayOpts::default(),
            );
            let drops = res.stats.total_drops();
            row.push(format!(
                "{} ({} aborted, {drops} drops)",
                fmt_bps(res.delivered_bps),
                res.aborted
            ));
            Row::new()
                .n("concurrent", n as f64)
                .s("variant", if enabled { "control" } else { "no_control" })
                .n("throughput_bps", res.delivered_bps)
                .n("aborted", res.aborted as f64)
                .n("drops", drops as f64)
                .push(&mut t);
        }
        println!("{n:>12} {:>32} {:>32}", row[0], row[1]);
    }
    t
}

/// Figures 12/13: simulation slowdown across protocols. Both figures
/// summarize the same runs (p99 vs p50), so they are built together.
pub fn fig12_13(opts: &ReproOpts) -> (FigTable, FigTable) {
    let mut t12 = FigTable::new("fig12", opts.stamp("fig12"));
    let mut t13 = FigTable::new("fig13", opts.stamp("fig13"));
    println!("\n=== Figures 12/13 (p99/p50): one-way slowdown on the leaf-spine fabric ===");
    let topo = opts.fabric();
    println!(
        "fabric: {} hosts ({} racks x {}), {} spines",
        topo.num_hosts(),
        topo.racks,
        topo.hosts_per_rack,
        topo.spines
    );
    for &load in &opts.loads {
        for &w in &opts.workloads {
            let n = opts.msgs_for(w);
            println!("\n--- workload {w}, load {:.0}%, {n} messages ---", load * 100.0);
            let mut protos =
                vec![Protocol::Homa, Protocol::Pfabric, Protocol::Phost, Protocol::Pias];
            if w == Workload::W5 {
                protos.push(Protocol::Ndp); // the paper runs NDP on W5 only
            }
            for p in protos {
                // pHost and NDP cannot sustain 80% (Fig 12 caption): cap
                // their load at the paper's observed limits.
                let eff_load = match p {
                    Protocol::Phost => load.min(0.7),
                    Protocol::Ndp => load.min(0.7),
                    _ => load,
                };
                let res = run_protocol_scenario(
                    p,
                    &opts.spec("fig12_13", w, eff_load, n),
                    &OnewayOpts::default().with_records(),
                    None,
                );
                let s = SlowdownSummary::from_records(&res.records, opts.bins);
                let small_p99 = SlowdownSummary::small_message_p99(&res.records, 0.5);
                println!(
                    "{:<10} load {:>3.0}% delivered {}/{} small-msg p99 {:>7.2}",
                    p.name(),
                    eff_load * 100.0,
                    res.delivered,
                    res.injected,
                    small_p99,
                );
                print!("{}", slowdown_table(&format!("  {} bins:", p.name()), &s));
                push_slowdown_bins(&mut t12, w.name(), &p.name(), eff_load, "p99_slowdown", &s);
                Row::new()
                    .curve(w.name(), &p.name(), "", eff_load, "small_msg_p99")
                    .xy(0.0, small_p99)
                    .n("delivered", res.delivered as f64)
                    .n("injected", res.injected as f64)
                    .push(&mut t12);
                push_slowdown_bins(&mut t13, w.name(), &p.name(), eff_load, "p50_slowdown", &s);
                Row::new()
                    .curve(w.name(), &p.name(), "", eff_load, "overall_p50")
                    .xy(0.0, s.overall_p50)
                    .n("delivered", res.delivered as f64)
                    .n("injected", res.injected as f64)
                    .push(&mut t13);
            }
        }
    }
    (t12, t13)
}

/// Figure 12: p99 one-way slowdown.
pub fn fig12(opts: &ReproOpts) -> FigTable {
    fig12_13(opts).0
}

/// Figure 13: median one-way slowdown.
pub fn fig13(opts: &ReproOpts) -> FigTable {
    fig12_13(opts).1
}

/// Figure 14: sources of tail delay for short messages.
pub fn fig14(opts: &ReproOpts) -> FigTable {
    let mut t = FigTable::new("fig14", opts.stamp("fig14"));
    println!("\n=== Figure 14: tail-delay attribution for short messages (80% load) ===");
    let workloads = if opts.workloads == ReproOpts::default().workloads {
        Workload::ALL.to_vec()
    } else {
        opts.workloads.clone()
    };
    println!("{:>4} {:>16} {:>16} {:>10}", "wl", "queueing(us)", "preempt-lag(us)", "samples");
    for w in workloads {
        let res = run_protocol_scenario(
            Protocol::Homa,
            &opts.spec("fig14", w, 0.8, opts.msgs_for(w)),
            &OnewayOpts { track_delay: true, ..OnewayOpts::default() }.with_records(),
            None,
        );
        // Short messages: smallest 20% (W5: single-packet messages).
        let mut recs = res.records.clone();
        recs.sort_by_key(|r| r.size);
        let cut = match w {
            Workload::W5 => recs.iter().filter(|r| r.size <= 1_400).count().max(1),
            _ => (recs.len() / 5).max(1),
        };
        let short = &recs[..cut.min(recs.len())];
        // Near-p99 selection: slowdowns between p97 and p99.9.
        let mut by_slow = short.to_vec();
        by_slow.sort_by(|a, b| a.slowdown().partial_cmp(&b.slowdown()).expect("no NaN"));
        let lo = (by_slow.len() as f64 * 0.97) as usize;
        let hi = ((by_slow.len() as f64 * 0.999) as usize).max(lo + 1).min(by_slow.len());
        let sel = &by_slow[lo..hi];
        let n = sel.len().max(1) as f64;
        let q: f64 = sel.iter().map(|r| r.delay.queueing.as_micros_f64()).sum::<f64>() / n;
        let l: f64 = sel.iter().map(|r| r.delay.preemption_lag.as_micros_f64()).sum::<f64>() / n;
        println!("{:>4} {q:>16.3} {l:>16.3} {:>10}", w.name(), sel.len());
        Row::new()
            .curve(w.name(), "Homa", "", 0.8, "queueing_us")
            .xy(0.0, q)
            .n("samples", sel.len() as f64)
            .push(&mut t);
        Row::new()
            .curve(w.name(), "Homa", "", 0.8, "preempt_lag_us")
            .xy(0.0, l)
            .n("samples", sel.len() as f64)
            .push(&mut t);
    }
    t
}

/// Figure 15: maximum sustainable network load per protocol.
pub fn fig15(opts: &ReproOpts) -> FigTable {
    let mut t = FigTable::new("fig15", opts.stamp("fig15"));
    println!("\n=== Figure 15: maximum sustainable load ===");
    let protos = if opts.full {
        vec![Protocol::Homa, Protocol::Pfabric, Protocol::Phost, Protocol::Pias]
    } else {
        vec![Protocol::Homa, Protocol::Phost]
    };
    println!("{:>4} {:<10} {:>10} {:>14}", "wl", "protocol", "max load", "goodput frac");
    for &w in &opts.workloads {
        let dist = w.dist();
        let n = opts.msgs_for(w) / 2;
        // The base spec for this workload; each probe reruns it at the
        // bisection's trial load.
        let base = opts.spec("fig15", w, 0.0, n);
        for &p in &protos {
            let cap = match p {
                Protocol::Homa => {
                    let cfg = HomaConfig::default();
                    let map = static_map_for_workload(&dist, &cfg);
                    max_sustainable_load(
                        &base,
                        None,
                        |h| HomaSimTransport::new(h, cfg.clone()).with_static_map(map.clone()),
                        CapacitySearch { lo: 0.5, hi: 0.98, tol: 0.03 },
                    )
                    .0
                }
                _ => {
                    // Generic path: bisection over the dispatcher. A short
                    // drain budget makes the criterion meaningful at
                    // reduced message counts: an over-capacity run cannot
                    // catch up within it.
                    let probe_opts =
                        OnewayOpts { drain: SimDuration::from_millis(20), ..OnewayOpts::default() };
                    max_sustainable_load_with(
                        |load| {
                            let res = run_protocol_scenario(
                                p,
                                &base.clone().with_load(load),
                                &probe_opts,
                                None,
                            );
                            res.delivered as f64 / res.injected.max(1) as f64
                        },
                        CapacitySearch { lo: 0.3, hi: 0.98, tol: 0.03 },
                    )
                    .0
                }
            };
            // Application-goodput fraction at the capacity point.
            let res = run_protocol_scenario(
                p,
                &base.clone().with_load((cap - 0.02).max(0.1)),
                &OnewayOpts::default(),
                None,
            );
            let frac = if res.stats.tor_down_wire_bytes > 0 {
                res.stats.tor_down_goodput_bytes as f64 / res.stats.tor_down_wire_bytes as f64
            } else {
                0.0
            };
            println!(
                "{:>4} {:<10} {:>9.0}% {:>13.0}%",
                w.name(),
                p.name(),
                cap * 100.0,
                cap * frac * 100.0
            );
            Row::new()
                .curve(w.name(), &p.name(), "", 0.0, "max_load")
                .xy(0.0, cap)
                .n("goodput_frac", frac)
                .push(&mut t);
        }
    }
    t
}

/// Figure 16: wasted bandwidth vs load for different overcommitment.
pub fn fig16(opts: &ReproOpts) -> FigTable {
    let mut t = FigTable::new("fig16", opts.stamp("fig16"));
    println!("\n=== Figure 16: wasted bandwidth vs load (W4) ===");
    let scheds: Vec<u8> = if opts.full { vec![1, 2, 3, 4, 5, 7] } else { vec![1, 3, 7] };
    let loads: Vec<f64> =
        if opts.full { vec![0.5, 0.6, 0.7, 0.8, 0.85, 0.9] } else { vec![0.5, 0.7, 0.85] };
    let n = opts.msgs_for(Workload::W4);
    println!("{:>12} {:>8} {:>16} {:>16}", "sched prios", "load", "wasted bw", "delivered");
    for &s in &scheds {
        for &load in &loads {
            let cfg = HomaConfig {
                num_priorities: s + 1,
                unsched_levels_override: Some(1),
                ..HomaConfig::default()
            };
            let res = run_protocol_scenario(
                Protocol::Homa,
                &opts.spec("fig16", Workload::W4, load, n),
                &OnewayOpts { sample_wasted: true, ..OnewayOpts::default() },
                Some(cfg),
            );
            println!(
                "{s:>12} {:>7.0}% {:>15.1}% {:>11}/{}",
                load * 100.0,
                res.wasted_fraction * 100.0,
                res.delivered,
                res.injected
            );
            // Per the reference encoding, the canonical `load` is 0 and
            // the network load rides the x axis (XAxis::Load).
            Row::new()
                .curve("W4", "Homa", &format!("sched={s}"), 0.0, "wasted_frac")
                .xy(load, res.wasted_fraction)
                .n("net_load", load)
                .n("delivered", res.delivered as f64)
                .n("injected", res.injected as f64)
                .push(&mut t);
        }
    }
    t
}

/// Figure 17: number of unscheduled priority levels (W1).
pub fn fig17(opts: &ReproOpts) -> FigTable {
    let mut t = FigTable::new("fig17", opts.stamp("fig17"));
    println!("\n=== Figure 17: unscheduled priority levels (W1, 80% load, 1 sched) ===");
    let n = opts.msgs_for(Workload::W1);
    for u in [1u8, 2, 3, 7] {
        let cfg = HomaConfig {
            num_priorities: u + 1,
            unsched_levels_override: Some(u),
            ..HomaConfig::default()
        };
        let res = run_protocol_scenario(
            Protocol::Homa,
            &opts.spec("fig17", Workload::W1, 0.8, n),
            &OnewayOpts::default().with_records(),
            Some(cfg),
        );
        let s = SlowdownSummary::from_records(&res.records, opts.bins);
        let small = SlowdownSummary::small_message_p99(&res.records, 0.5);
        println!(
            "unsched={u}: overall p99 {:>7.2}  small-msg p99 {:>7.2}  delivered {}/{}",
            s.overall_p99, small, res.delivered, res.injected
        );
        Row::new()
            .curve("W1", "Homa", &format!("unsched={u}"), 0.8, "overall_p99")
            .xy(0.0, s.overall_p99)
            .n("small_msg_p99", small)
            .n("delivered", res.delivered as f64)
            .n("injected", res.injected as f64)
            .push(&mut t);
    }
    t
}

/// Figure 18: cutoff point between two unscheduled priorities (W3).
pub fn fig18(opts: &ReproOpts) -> FigTable {
    let mut t = FigTable::new("fig18", opts.stamp("fig18"));
    println!("\n=== Figure 18: unscheduled cutoff sweep (W3, 80% load, 2 unsched) ===");
    let dist = Workload::W3.dist();
    let n = opts.msgs_for(Workload::W3);
    // Homa's own equal-bytes choice, for reference.
    let auto = static_map_for_workload(
        &dist,
        &HomaConfig { unsched_levels_override: Some(2), ..HomaConfig::default() },
    );
    println!("Homa's equal-bytes algorithm picks cutoff {:?}", auto.cutoffs);
    for cutoff in [100u64, 400, 1_000, 2_000, 4_000] {
        let cfg = HomaConfig {
            unsched_levels_override: Some(2),
            cutoff_override: Some(vec![cutoff]),
            ..HomaConfig::default()
        };
        let res = run_protocol_scenario(
            Protocol::Homa,
            &opts.spec("fig18", Workload::W3, 0.8, n),
            &OnewayOpts::default().with_records(),
            Some(cfg),
        );
        let s = SlowdownSummary::from_records(&res.records, opts.bins);
        let small = SlowdownSummary::small_message_p99(&res.records, 0.5);
        println!(
            "cutoff={cutoff:>5}B: overall p99 {:>7.2}  small-msg p99 {:>7.2}",
            s.overall_p99, small
        );
        Row::new()
            .curve("W3", "Homa", &format!("cutoff={cutoff}"), 0.8, "overall_p99")
            .xy(0.0, s.overall_p99)
            .n("small_msg_p99", small)
            .push(&mut t);
    }
    t
}

/// Figure 19: number of scheduled priority levels (W4).
pub fn fig19(opts: &ReproOpts) -> FigTable {
    let mut t = FigTable::new("fig19", opts.stamp("fig19"));
    println!("\n=== Figure 19: scheduled priority levels (W4, 80% load, 1 unsched) ===");
    let n = opts.msgs_for(Workload::W4);
    for s in [4u8, 7] {
        let cfg = HomaConfig {
            num_priorities: s + 1,
            unsched_levels_override: Some(1),
            ..HomaConfig::default()
        };
        let res = run_protocol_scenario(
            Protocol::Homa,
            &opts.spec("fig19", Workload::W4, 0.8, n),
            &OnewayOpts::default().with_records(),
            Some(cfg),
        );
        let sm = SlowdownSummary::from_records(&res.records, opts.bins);
        println!(
            "sched={s}: overall p99 {:>7.2}  delivered {}/{}",
            sm.overall_p99, res.delivered, res.injected
        );
        Row::new()
            .curve("W4", "Homa", &format!("sched={s}"), 0.8, "overall_p99")
            .xy(0.0, sm.overall_p99)
            .n("delivered", res.delivered as f64)
            .n("injected", res.injected as f64)
            .push(&mut t);
    }
    t
}

/// Figure 20: unscheduled-bytes limit (W4).
pub fn fig20(opts: &ReproOpts) -> FigTable {
    let mut t = FigTable::new("fig20", opts.stamp("fig20"));
    println!("\n=== Figure 20: unscheduled byte limit (W4, 80% load) ===");
    let n = opts.msgs_for(Workload::W4);
    let rtt = HomaConfig::default().rtt_bytes;
    for (label, limit) in
        [("1B", 1u64), ("500B", 500), ("1000B", 1_000), ("RTTbytes", rtt), ("2xRTTbytes", 2 * rtt)]
    {
        let cfg = HomaConfig { unsched_limit: limit, ..HomaConfig::default() };
        let res = run_protocol_scenario(
            Protocol::Homa,
            &opts.spec("fig20", Workload::W4, 0.8, n),
            &OnewayOpts::default().with_records(),
            Some(cfg),
        );
        let s = SlowdownSummary::from_records(&res.records, opts.bins);
        let small = SlowdownSummary::small_message_p99(&res.records, 0.5);
        println!(
            "unsched_limit={label:>10}: overall p99 {:>7.2}  small-msg p99 {:>7.2}",
            s.overall_p99, small
        );
        Row::new()
            .curve("W4", "Homa", &format!("unsched_limit={label}"), 0.8, "overall_p99")
            .xy(0.0, s.overall_p99)
            .n("small_msg_p99", small)
            .n("unsched_limit_bytes", limit as f64)
            .push(&mut t);
    }
    t
}

/// Figure 21: traffic per priority level vs load (W3).
pub fn fig21(opts: &ReproOpts) -> FigTable {
    let mut t = FigTable::new("fig21", opts.stamp("fig21"));
    println!("\n=== Figure 21: priority level usage (W3) ===");
    let topo = opts.fabric();
    let n = opts.msgs_for(Workload::W3);
    println!(
        "{:>6} {}",
        "load",
        (0..8).map(|i| format!("{:>8}", format!("P{i}"))).collect::<String>()
    );
    for load in [0.5, 0.8, 0.9] {
        let res = run_protocol_scenario(
            Protocol::Homa,
            &opts.spec("fig21", Workload::W3, load, n),
            &OnewayOpts::default(),
            None,
        );
        // Fraction of total available uplink bandwidth per priority.
        let capacity_bytes =
            topo.num_hosts() as f64 * topo.host_link_bps as f64 / 8.0 * res.duration.as_secs_f64();
        let row: String = res
            .prio_bytes
            .iter()
            .map(|&b| format!("{:>7.1}%", b as f64 / capacity_bytes * 100.0))
            .collect();
        println!("{:>5.0}% {row}", load * 100.0);
        for (i, &b) in res.prio_bytes.iter().enumerate() {
            Row::new()
                .curve("W3", "Homa", &format!("P{i}"), 0.0, "prio_frac")
                .xy(load, b as f64 / capacity_bytes)
                .push(&mut t);
        }
    }
    t
}

/// Table 1: queue lengths at the three fabric levels.
pub fn table1(opts: &ReproOpts) -> FigTable {
    let mut t = FigTable::new("table1", opts.stamp("table1"));
    println!("\n=== Table 1: switch queue lengths at 80% load (mean/max) ===");
    let workloads = if opts.workloads == ReproOpts::default().workloads {
        Workload::ALL.to_vec()
    } else {
        opts.workloads.clone()
    };
    println!(
        "{:<12} {}",
        "queue",
        workloads.iter().map(|w| format!("{:>20}", w.name())).collect::<String>()
    );
    let mut rows: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for &w in &workloads {
        let res = run_protocol_scenario(
            Protocol::Homa,
            &opts.spec("table1", w, 0.8, opts.msgs_for(w)),
            &OnewayOpts::default(),
            None,
        );
        for class in [PortClass::TorUp, PortClass::SpineDown, PortClass::TorDown] {
            let mean = res.stats.mean_queue_bytes(class).unwrap_or(0.0);
            let max = res.stats.max_queue_bytes(class).unwrap_or(0) as f64;
            rows.entry(class.label()).or_default().push(format!(
                "{:>8}/{:>8}",
                fmt_bytes(mean),
                fmt_bytes(max)
            ));
            Row::new()
                .s("workload", w.name())
                .s("queue", class.label())
                .n("mean_bytes", mean)
                .n("max_bytes", max)
                .push(&mut t);
        }
    }
    for (label, cells) in rows {
        println!("{label:<12} {}", cells.iter().map(|c| format!("{c:>20}")).collect::<String>());
    }
    t
}

/// The figures `repro compare` checks against [`figures::REFERENCE`]:
/// 12/13 (slowdown curves), 14 (delay attribution, report-only),
/// 15 (capacity), 16 (wasted bandwidth).
pub const COMPARE_FIGURES: &[&str] = &["fig12", "fig13", "fig14", "fig15", "fig16"];

/// Run the comparison set of figures and return their tables.
pub fn run_compare_set(opts: &ReproOpts) -> Vec<FigTable> {
    let (t12, t13) = fig12_13(opts);
    vec![t12, t13, fig14(opts), fig15(opts), fig16(opts)]
}

/// The outcome of a figure-accuracy comparison.
pub struct CompareOutcome {
    /// The rendered per-point/per-curve delta report.
    pub report: String,
    /// Gate verdict: failing curve keys, or a join-failure error.
    pub failures: Result<Vec<String>, String>,
    /// How many *gated* reference curves joined at least one measured
    /// point. A clean gate verdict means nothing if this is zero (all
    /// the gated curves were skipped); callers must not report success
    /// on it.
    pub gated_curves_joined: usize,
    /// The deltas as a machine-readable table (`COMPARE.json`).
    pub delta_table: FigTable,
}

/// Join measured figure tables against the digitized reference curves.
pub fn compare_tables(tables: &[FigTable], tol_scale: f64, produced_by: String) -> CompareOutcome {
    let measured: Vec<MeasuredPoint> = tables.iter().flat_map(measured_points).collect();
    let deltas = figures::compare_curves(&measured);
    let report = delta_report(&deltas, tol_scale);
    let failures = figures::gate_failures(&deltas, tol_scale);
    let gated_curves_joined =
        deltas.iter().filter(|d| d.curve.gate && !d.points.is_empty()).count();
    let mut delta_table = FigTable::new("compare", produced_by);
    for d in &deltas {
        for p in &d.points {
            let mut row = Row::new()
                .s("figure", d.curve.figure)
                .curve(
                    d.curve.workload,
                    d.curve.protocol,
                    d.curve.variant,
                    d.curve.load,
                    d.curve.metric,
                )
                .xy(p.x, p.measured)
                .n("reference", p.reference)
                .n("abs_delta", p.abs_delta())
                .n("rel_delta", p.rel_delta());
            // Percentile axes get the concrete size at that percentile,
            // so the delta tables read in bytes as well as percentiles.
            if d.curve.x_axis == figures::XAxis::MsgPercentile {
                if let Some(w) = Workload::parse(d.curve.workload) {
                    let decile = ((p.x / 10.0).round() as usize).clamp(1, 10) - 1;
                    row = row.n("approx_size", w.decile_sizes()[decile] as f64);
                }
            }
            row.push(&mut delta_table);
        }
        if !d.points.is_empty() {
            Row::new()
                .s("figure", d.curve.figure)
                .s("curve", &d.curve.key())
                .s("metric", "curve_summary")
                .n("rms_rel", d.rms_rel())
                .n("worst_rel", d.worst().map(|w| w.rel_delta()).unwrap_or(0.0))
                .n("tolerance", d.curve.rel_tolerance * tol_scale)
                .n("missing_points", d.missing.len() as f64)
                .s(
                    "verdict",
                    if !d.curve.gate {
                        "report-only"
                    } else if d.within_tolerance(tol_scale) {
                        "pass"
                    } else {
                        "fail"
                    },
                )
                .push(&mut delta_table);
        }
    }
    CompareOutcome { report, failures, gated_curves_joined, delta_table }
}

/// Write a table to `dir/FIG_<n>.json`, returning the path.
pub fn write_table(dir: &std::path::Path, t: &FigTable) -> std::io::Result<std::path::PathBuf> {
    let path = dir.join(t.file_name());
    std::fs::write(&path, render_table(t))?;
    Ok(path)
}
