//! Figure-data builders behind the `repro` binary.
//!
//! [`FIGURES`] is the one list of the paper's figures and tables: per
//! entry the tables it produces, a title and the builder that *runs the
//! experiment and returns the data* as [`FigTable`]s. `repro <name>`,
//! `all`, `compare`, `--from-dir` and the help text all walk that list.
//! Builders print nothing: `repro`'s text is
//! [`render_text`](crate::perfjson::render_text) of the rows the JSON
//! holds, and this module's only output is one progress line on stderr
//! per scenario run (`logged`).
//!
//! Figures 17–20 are one sweep, [`ablation`]: one row per [`Variant`] of
//! Homa's configuration. What `sched=N`, `unsched=N`, `cutoff=N` and
//! `unsched_limit=…` mean as a [`HomaConfig`] is written once, in
//! [`Variant::config`], which Figure 16 and `tests/ablations.rs` use too.
//!
//! Rows destined for the comparison carry the canonical columns
//! (`workload`/`protocol`/`variant`/`load`/`metric`/`x`/`value`, see
//! [`measured_points`]); everything else is free-form per figure.

use crate::perfjson::{Field, FigRow, FigTable};
use crate::{run_protocol_rpc_scenario, run_protocol_scenario, Protocol};
use homa::config::RTT_BYTES;
use homa::HomaConfig;
use homa_baselines::homa_sim::static_map_for_workload;
use homa_baselines::HomaSimTransport;
use homa_harness::capacity::{max_sustainable_load, max_sustainable_load_with, CapacitySearch};
use homa_harness::driver::{OnewayOpts, OnewayResult};
use homa_harness::figures::{self, MeasuredPoint};
use homa_harness::render::delta_report;
use homa_harness::slowdown::SlowdownSummary;
use homa_harness::{FabricSpec, ScenarioSpec};
use homa_sim::{PortClass, SimDuration};
use homa_workloads::Workload;
use std::time::Instant;

/// One entry of the paper's evaluation: the tables one builder produces.
pub struct Figure {
    /// The tables `build` returns, in order. Builders whose figures are
    /// two summaries of the same runs (8/9, 12/13) produce both, so
    /// asking for either writes both rather than re-simulating.
    pub tables: &'static [&'static str],
    /// What the figure shows (text header and `repro help`).
    pub title: &'static str,
    /// Run the experiment and return its tables.
    pub build: fn(&ReproOpts) -> Vec<FigTable>,
}

impl Figure {
    const fn new(
        tables: &'static [&'static str],
        title: &'static str,
        build: fn(&ReproOpts) -> Vec<FigTable>,
    ) -> Figure {
        Figure { tables, title, build }
    }

    /// Whether `repro compare` reads these tables: whether any of them
    /// has a digitized published curve in [`figures::REFERENCE`].
    pub fn compared(&self) -> bool {
        figures::REFERENCE.iter().any(|curve| self.tables.contains(&curve.figure))
    }
}

/// Every figure and table `repro` regenerates, in paper order.
pub const FIGURES: &[Figure] = &[
    Figure::new(&["fig1"], "workload message-size CDFs", fig1),
    Figure::new(&["fig4"], "unscheduled priority allocation (8 levels)", fig4),
    Figure::new(
        &["fig8", "fig9"],
        "echo-RPC slowdown by size, p99 / p50 (16-node cluster, 80% load)",
        fig8_9,
    ),
    Figure::new(
        &["fig10"],
        "incast throughput with and without incast control (10 KB responses, 15 servers)",
        fig10,
    ),
    Figure::new(
        &["fig12", "fig13"],
        "one-way slowdown by size, p99 / p50 (leaf-spine fabric)",
        fig12_13,
    ),
    Figure::new(&["fig14"], "tail-delay attribution for short messages (80% load)", fig14),
    Figure::new(&["fig15"], "maximum sustainable load", fig15),
    Figure::new(&["fig16"], "wasted bandwidth vs load by scheduled priorities (W4)", fig16),
    Figure::new(&["fig17"], "unscheduled priority levels (W1, 80% load, 1 scheduled)", |o| {
        vec![ablation(&FIG17, FIG17.variants, o)]
    }),
    Figure::new(&["fig18"], "cutoff between two unscheduled priorities (W3, 80% load)", |o| {
        vec![ablation(&FIG18, FIG18.variants, o)]
    }),
    Figure::new(&["fig19"], "scheduled priority levels (W4, 80% load, 1 unscheduled)", |o| {
        vec![ablation(&FIG19, FIG19.variants, o)]
    }),
    Figure::new(&["fig20"], "unscheduled byte limit (W4, 80% load)", |o| {
        vec![ablation(&FIG20, FIG20.variants, o)]
    }),
    Figure::new(&["fig21"], "uplink bandwidth per priority level vs load (W3)", fig21),
    Figure::new(&["table1"], "switch queue lengths at 80% load", table1),
];

/// The registry entry that produces table `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.tables.contains(&name))
}

/// Options shared by every `repro` experiment (the binary's CLI flags).
#[derive(Debug, Clone)]
pub struct ReproOpts {
    /// Paper-scale fabric and message counts (`--full`).
    pub full: bool,
    /// Workloads to sweep where a figure allows a choice; `None` is the
    /// figure's own default set.
    pub workloads: Option<Vec<Workload>>,
    /// Loads to sweep where a figure allows a choice; `None` is the
    /// figure's own default set.
    pub loads: Option<Vec<f64>>,
    /// RNG seed.
    pub seed: u64,
    /// Multiplier on per-workload message budgets (`--scale`).
    pub msgs_scale: f64,
    /// Number of size bins in slowdown tables.
    pub bins: usize,
}

impl Default for ReproOpts {
    fn default() -> Self {
        ReproOpts { full: false, workloads: None, loads: None, seed: 1, msgs_scale: 1.0, bins: 10 }
    }
}

impl ReproOpts {
    /// The workloads asked for, or the figure's `default` set.
    pub fn workloads_or<'a>(&'a self, default: &'a [Workload]) -> &'a [Workload] {
        self.workloads.as_deref().unwrap_or(default)
    }

    /// Simulation fabric: scaled-down by default, Figure 11's 144 hosts
    /// with `--full`.
    pub fn fabric_spec(&self) -> FabricSpec {
        if self.full {
            FabricSpec::Paper
        } else {
            FabricSpec::LeafSpine { racks: 3, hosts_per_rack: 8, spines: 2 }
        }
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

    /// New empty table `figure`, with a deterministic provenance string
    /// (no timestamps: golden tests pin whole files).
    fn table(&self, figure: &str) -> FigTable {
        let fabric = if self.full { "paper-scale fabric" } else { "reduced fabric" };
        FigTable::new(
            figure,
            format!(
                "repro {figure} (homa-bench), seed {}, scale {}, {fabric}",
                self.seed, self.msgs_scale
            ),
        )
    }
}

/// Every scenario a builder runs goes through here, so no run is silent:
/// one stderr line of protocol, replayable spec line, delivered/injected
/// and wall seconds (`repro` adds each entry's total).
fn logged(p: Protocol, spec: &ScenarioSpec, run: impl FnOnce() -> OnewayResult) -> OnewayResult {
    let start = Instant::now();
    let res = run();
    eprintln!(
        "  {:<8} {}  {}/{}  {:.2}s",
        p.name(),
        spec.to_spec_line(),
        res.delivered,
        res.injected,
        start.elapsed().as_secs_f64()
    );
    res
}

/// A one-way run of `p` on `spec` (the shape of every figure but 8–10).
fn oneway(
    p: Protocol,
    spec: &ScenarioSpec,
    opts: &OnewayOpts,
    cfg: Option<HomaConfig>,
) -> OnewayResult {
    logged(p, spec, || run_protocol_scenario(p, spec, opts, cfg))
}

/// Tiny builder so row construction reads as a sentence.
struct Row(FigRow);

impl Row {
    fn new() -> Row {
        Row(FigRow::new())
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
fn fig1(opts: &ReproOpts) -> Vec<FigTable> {
    let mut t = opts.table("fig1");
    for w in Workload::ALL {
        let d = w.dist();
        for (pct, size) in d.decile_points() {
            Row::new()
                .s("workload", w.name())
                .n("x", pct)
                .n("size", size as f64)
                .n("cdf_msgs", d.cdf(size))
                .n("cdf_bytes", d.byte_weighted_cdf(size))
                .push(&mut t);
        }
    }
    vec![t]
}

/// Figure 4: unscheduled priority allocation per workload.
fn fig4(opts: &ReproOpts) -> Vec<FigTable> {
    let mut t = opts.table("fig4");
    let cfg = HomaConfig::default();
    for w in Workload::ALL {
        let d = w.dist();
        let map = static_map_for_workload(&d, &cfg);
        // "P7:1..280B P6:281..1035B P5:1036B+": the size range of each
        // unscheduled level, highest priority first.
        let top = map.num_priorities - 1;
        let mut cutoffs = String::new();
        let mut prev = 1u64;
        for (i, &c) in map.cutoffs.iter().enumerate() {
            cutoffs.push_str(&format!("P{}:{prev}..{c}B ", top - i as u8));
            prev = c + 1;
        }
        if !map.cutoffs.is_empty() {
            cutoffs.push_str(&format!("P{}:{prev}B+", top - map.cutoffs.len() as u8));
        }
        Row::new()
            .s("workload", w.name())
            .n("unsched_frac", d.mean_capped(cfg.rtt_bytes) / d.mean())
            .n("unsched_levels", map.unsched_levels as f64)
            .n("sched_levels", map.sched_levels() as f64)
            .s("cutoffs", &cutoffs)
            .push(&mut t);
    }
    vec![t]
}

/// Figures 8/9: implementation echo-RPC slowdown. Both figures
/// summarize the same runs (p99 vs p50), so they are built together.
fn fig8_9(opts: &ReproOpts) -> Vec<FigTable> {
    let mut t8 = opts.table("fig8");
    let mut t9 = opts.table("fig9");
    let cluster = FabricSpec::SingleSwitch { hosts: 16 };
    let records = OnewayOpts::default().with_records();
    let protos = [
        Protocol::Homa,
        Protocol::HomaP(4),
        Protocol::HomaP(2),
        Protocol::HomaP(1),
        Protocol::Basic,
        // The streaming baseline demonstrates head-of-line blocking
        // (one-way messages; the effect the paper's TCP/InfRC rows
        // show). It contributes an overall row only.
        Protocol::Stream,
    ];
    for &w in opts.workloads_or(&[Workload::W3, Workload::W4, Workload::W5]) {
        let n = opts.msgs_for(w);
        for p in protos {
            let res = if p == Protocol::Stream {
                let spec = ScenarioSpec::new("fig8_9_stream", cluster, w, 0.8, n, opts.seed);
                oneway(p, &spec, &records, None)
            } else {
                let spec = ScenarioSpec::new("fig8_9_rpc", cluster, w, 0.8, n, opts.seed);
                logged(p, &spec, || run_protocol_rpc_scenario(p, &spec, &records))
            };
            let s = SlowdownSummary::from_records(&res.records, opts.bins);
            for (t, bins, overall, stat) in [
                (&mut t8, "p99_slowdown", "overall_p99", s.overall_p99),
                (&mut t9, "p50_slowdown", "overall_p50", s.overall_p50),
            ] {
                if p != Protocol::Stream {
                    push_slowdown_bins(t, w.name(), &p.name(), 0.8, bins, &s);
                }
                Row::new()
                    .curve(w.name(), &p.name(), "", 0.8, overall)
                    .xy(0.0, stat)
                    .n("completed", res.delivered as f64)
                    .n("issued", res.injected as f64)
                    .push(t);
            }
        }
    }
    vec![t8, t9]
}

/// Figure 10: incast throughput with/without incast control.
fn fig10(opts: &ReproOpts) -> Vec<FigTable> {
    let mut t = opts.table("fig10");
    let cluster = FabricSpec::SingleSwitch { hosts: 16 };
    let sweep: &[u64] = if opts.full {
        &[16, 64, 128, 256, 512, 1024, 2048, 4096]
    } else {
        &[16, 64, 128, 256, 512, 1024]
    };
    for &n in sweep {
        for enabled in [true, false] {
            let cfg = HomaConfig {
                incast_threshold: if enabled { 32 } else { u32::MAX },
                ..HomaConfig::default()
            };
            let spec = ScenarioSpec::incast("fig10", cluster, n, opts.seed);
            let res = logged(Protocol::Homa, &spec, || {
                spec.run_incast(
                    None,
                    |h| HomaSimTransport::new(h, cfg.clone()),
                    &OnewayOpts::default(),
                )
            });
            Row::new()
                .n("concurrent", n as f64)
                .s("variant", if enabled { "control" } else { "no_control" })
                .n("throughput_bps", res.delivered_bps)
                .n("aborted", res.aborted as f64)
                .n("drops", res.stats.total_drops() as f64)
                .push(&mut t);
        }
    }
    vec![t]
}

/// Figures 12/13: simulation slowdown across protocols. Both figures
/// summarize the same runs (p99 vs p50), so they are built together.
fn fig12_13(opts: &ReproOpts) -> Vec<FigTable> {
    let mut t12 = opts.table("fig12");
    let mut t13 = opts.table("fig13");
    for &load in opts.loads.as_deref().unwrap_or(&[0.8]) {
        for &w in opts.workloads_or(&[Workload::W2, Workload::W4]) {
            let n = opts.msgs_for(w);
            let mut protos =
                vec![Protocol::Homa, Protocol::Pfabric, Protocol::Phost, Protocol::Pias];
            if w == Workload::W5 {
                protos.push(Protocol::Ndp); // the paper runs NDP on W5 only
            }
            for p in protos {
                // pHost and NDP cannot sustain 80% (Fig 12 caption): cap
                // their load at the paper's observed limits.
                let eff_load = match p {
                    Protocol::Phost | Protocol::Ndp => load.min(0.7),
                    _ => load,
                };
                let res = oneway(
                    p,
                    &opts.spec("fig12_13", w, eff_load, n),
                    &OnewayOpts::default().with_records(),
                    None,
                );
                let s = SlowdownSummary::from_records(&res.records, opts.bins);
                let small_p99 = SlowdownSummary::small_message_p99(&res.records, 0.5);
                for (t, bins, summary, stat) in [
                    (&mut t12, "p99_slowdown", "small_msg_p99", small_p99),
                    (&mut t13, "p50_slowdown", "overall_p50", s.overall_p50),
                ] {
                    push_slowdown_bins(t, w.name(), &p.name(), eff_load, bins, &s);
                    Row::new()
                        .curve(w.name(), &p.name(), "", eff_load, summary)
                        .xy(0.0, stat)
                        .n("delivered", res.delivered as f64)
                        .n("injected", res.injected as f64)
                        .push(t);
                }
            }
        }
    }
    vec![t12, t13]
}

/// Figure 14: sources of tail delay for short messages.
fn fig14(opts: &ReproOpts) -> Vec<FigTable> {
    let mut t = opts.table("fig14");
    for &w in opts.workloads_or(&Workload::ALL) {
        let res = oneway(
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
        for (metric, value) in [("queueing_us", q), ("preempt_lag_us", l)] {
            Row::new()
                .curve(w.name(), "Homa", "", 0.8, metric)
                .xy(0.0, value)
                .n("samples", sel.len() as f64)
                .push(&mut t);
        }
    }
    vec![t]
}

/// Figure 15: maximum sustainable network load per protocol.
fn fig15(opts: &ReproOpts) -> Vec<FigTable> {
    let mut t = opts.table("fig15");
    let protos: &[Protocol] = if opts.full {
        &[Protocol::Homa, Protocol::Pfabric, Protocol::Phost, Protocol::Pias]
    } else {
        &[Protocol::Homa, Protocol::Phost]
    };
    for &w in opts.workloads_or(&[Workload::W2, Workload::W4]) {
        let dist = w.dist();
        let n = opts.msgs_for(w) / 2;
        // The base spec for this workload; each probe reruns it at the
        // bisection's trial load.
        let base = opts.spec("fig15", w, 0.0, n);
        for &p in protos {
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
                            let res = oneway(p, &base.clone().with_load(load), &probe_opts, None);
                            res.delivered as f64 / res.injected.max(1) as f64
                        },
                        CapacitySearch { lo: 0.3, hi: 0.98, tol: 0.03 },
                    )
                    .0
                }
            };
            // Application-goodput fraction at the capacity point.
            let res = oneway(
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
            Row::new()
                .curve(w.name(), &p.name(), "", 0.0, "max_load")
                .xy(0.0, cap)
                .n("goodput_frac", frac)
                .push(&mut t);
        }
    }
    vec![t]
}

/// One configuration of an ablation: a `variant` label and the
/// [`HomaConfig`] it stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Variant {
    /// `unsched=N`: N unscheduled levels above one scheduled level.
    Unsched(u8),
    /// `sched=N`: N scheduled levels below one unscheduled level.
    Sched(u8),
    /// `cutoff=N`: two unscheduled levels split at N bytes.
    Cutoff(u64),
    /// `unsched_limit=<name>`: at most this many blind bytes per message.
    UnschedLimit(&'static str, u64),
}

impl Variant {
    /// The row's `variant` column.
    pub fn label(&self) -> String {
        match self {
            Variant::Unsched(n) => format!("unsched={n}"),
            Variant::Sched(n) => format!("sched={n}"),
            Variant::Cutoff(bytes) => format!("cutoff={bytes}"),
            Variant::UnschedLimit(name, _) => format!("unsched_limit={name}"),
        }
    }

    /// The configuration the label stands for.
    pub fn config(&self) -> HomaConfig {
        let base = HomaConfig::default();
        match *self {
            Variant::Unsched(n) => {
                HomaConfig { num_priorities: n + 1, unsched_levels_override: Some(n), ..base }
            }
            Variant::Sched(n) => {
                HomaConfig { num_priorities: n + 1, unsched_levels_override: Some(1), ..base }
            }
            Variant::Cutoff(bytes) => HomaConfig {
                unsched_levels_override: Some(2),
                cutoff_override: Some(vec![bytes]),
                ..base
            },
            Variant::UnschedLimit(_, bytes) => HomaConfig { unsched_limit: bytes, ..base },
        }
    }
}

/// One of Figures 17–20: a workload and the variants swept on it.
pub struct Ablation {
    /// The table this sweep fills.
    pub figure: &'static str,
    /// The workload every variant runs (at 80% load).
    pub workload: Workload,
    /// The variants the figure shows, in row order.
    pub variants: &'static [Variant],
}

/// Figure 17: number of unscheduled priority levels (W1).
pub const FIG17: Ablation = Ablation {
    figure: "fig17",
    workload: Workload::W1,
    variants: &[Variant::Unsched(1), Variant::Unsched(2), Variant::Unsched(3), Variant::Unsched(7)],
};

/// Figure 18: cutoff point between two unscheduled priorities (W3).
pub const FIG18: Ablation = Ablation {
    figure: "fig18",
    workload: Workload::W3,
    variants: &[
        Variant::Cutoff(100),
        Variant::Cutoff(400),
        Variant::Cutoff(1_000),
        Variant::Cutoff(2_000),
        Variant::Cutoff(4_000),
    ],
};

/// Figure 19: number of scheduled priority levels (W4).
pub const FIG19: Ablation = Ablation {
    figure: "fig19",
    workload: Workload::W4,
    variants: &[Variant::Sched(4), Variant::Sched(7)],
};

/// Figure 20: unscheduled-bytes limit (W4).
pub const FIG20: Ablation = Ablation {
    figure: "fig20",
    workload: Workload::W4,
    variants: &[
        Variant::UnschedLimit("1B", 1),
        Variant::UnschedLimit("500B", 500),
        Variant::UnschedLimit("1000B", 1_000),
        Variant::UnschedLimit("RTTbytes", RTT_BYTES),
        Variant::UnschedLimit("2xRTTbytes", 2 * RTT_BYTES),
    ],
};

/// Figures 17–20: Homa on `a.workload` at 80% load, one row per variant
/// (`overall_p99`, with the small-message tail and completion beside it).
/// `variants` is `a.variants` or, for a test that needs two rows, two.
pub fn ablation(a: &Ablation, variants: &[Variant], opts: &ReproOpts) -> FigTable {
    let mut t = opts.table(a.figure);
    let spec = opts.spec(a.figure, a.workload, 0.8, opts.msgs_for(a.workload));
    for v in variants {
        let res =
            oneway(Protocol::Homa, &spec, &OnewayOpts::default().with_records(), Some(v.config()));
        let s = SlowdownSummary::from_records(&res.records, opts.bins);
        Row::new()
            .curve(a.workload.name(), "Homa", &v.label(), 0.8, "overall_p99")
            .xy(0.0, s.overall_p99)
            .n("small_msg_p99", SlowdownSummary::small_message_p99(&res.records, 0.5))
            .n("delivered", res.delivered as f64)
            .n("injected", res.injected as f64)
            .push(&mut t);
    }
    t
}

/// Figure 16: wasted bandwidth vs load for different overcommitment.
/// (Not an [`ablation`]: its metric comes from the wasted-bandwidth
/// sampler and its x axis is the load.)
fn fig16(opts: &ReproOpts) -> Vec<FigTable> {
    let mut t = opts.table("fig16");
    let scheds: &[u8] = if opts.full { &[1, 2, 3, 4, 5, 7] } else { &[1, 3, 7] };
    let loads: &[f64] =
        if opts.full { &[0.5, 0.6, 0.7, 0.8, 0.85, 0.9] } else { &[0.5, 0.7, 0.85] };
    let n = opts.msgs_for(Workload::W4);
    for v in scheds.iter().map(|&s| Variant::Sched(s)) {
        for &load in loads {
            let res = oneway(
                Protocol::Homa,
                &opts.spec("fig16", Workload::W4, load, n),
                &OnewayOpts { sample_wasted: true, ..OnewayOpts::default() },
                Some(v.config()),
            );
            // Per the reference encoding, the canonical `load` is 0 and
            // the network load rides the x axis (XAxis::Load).
            Row::new()
                .curve("W4", "Homa", &v.label(), 0.0, "wasted_frac")
                .xy(load, res.wasted_fraction)
                .n("net_load", load)
                .n("delivered", res.delivered as f64)
                .n("injected", res.injected as f64)
                .push(&mut t);
        }
    }
    vec![t]
}

/// Figure 21: traffic per priority level vs load (W3).
fn fig21(opts: &ReproOpts) -> Vec<FigTable> {
    let mut t = opts.table("fig21");
    let n = opts.msgs_for(Workload::W3);
    for load in [0.5, 0.8, 0.9] {
        let res = oneway(
            Protocol::Homa,
            &opts.spec("fig21", Workload::W3, load, n),
            &OnewayOpts::default(),
            None,
        );
        // Fraction of total available uplink bandwidth per priority: each
        // level's share of the uplink bytes times the offered wire load,
        // so the eight bars stack to the load. (Bytes over `duration`'s
        // capacity stack to a fraction of it: most of a run is the drain
        // of W3's longest messages, when nothing is offered.)
        let total = res.prio_bytes.iter().sum::<u64>().max(1) as f64;
        for (i, &b) in res.prio_bytes.iter().enumerate() {
            Row::new()
                .curve("W3", "Homa", &format!("P{i}"), 0.0, "prio_frac")
                .xy(load, b as f64 / total * load)
                .push(&mut t);
        }
    }
    vec![t]
}

/// Table 1: queue lengths at the three fabric levels.
fn table1(opts: &ReproOpts) -> Vec<FigTable> {
    let mut t = opts.table("table1");
    for &w in opts.workloads_or(&Workload::ALL) {
        let res = oneway(
            Protocol::Homa,
            &opts.spec("table1", w, 0.8, opts.msgs_for(w)),
            &OnewayOpts::default(),
            None,
        );
        for class in [PortClass::TorUp, PortClass::SpineDown, PortClass::TorDown] {
            Row::new()
                .s("workload", w.name())
                .s("queue", class.label())
                .n("mean_bytes", res.stats.mean_queue_bytes(class).unwrap_or(0.0))
                .n("max_bytes", res.stats.max_queue_bytes(class).unwrap_or(0) as f64)
                .push(&mut t);
        }
    }
    vec![t]
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
