//! Digitized reference curves from the paper's Figures 12–16, and the
//! delta machinery behind the `repro compare` figure-accuracy gate.
//!
//! The published curves were digitized from the SIGCOMM 2018 paper and
//! its extended version (arXiv 1803.09615): for each curve we tabulate
//! `(x, y)` points — message-count percentiles for the slowdown figures
//! (the x-axis convention of [`crate::slowdown`]), network load for the
//! wasted-bandwidth sweep, or a single point for scalar figures — with
//! per-point provenance comments recording which panel the value was
//! read from. Digitization from log-scale plots is approximate (±10–20%
//! per point is typical); every curve therefore carries its own relative
//! tolerance, and curves where our reduced-scale reproduction knowingly
//! deviates are marked `gate: false` (reported, never failing). The
//! honest-gaps discussion lives in `EXPERIMENTS.md`.
//!
//! The comparison itself is pure data-joining: [`compare_curves`] takes
//! the measured points a `repro` run produced (extracted from the
//! canonical columns of the `FIG_<n>.json` tables), joins them against
//! [`REFERENCE`], and returns per-curve [`CurveDelta`]s with per-point
//! absolute/relative errors, the worst point, and the curve RMS —
//! everything the gate and the delta tables in `EXPERIMENTS.md` need.

/// How a curve's x coordinate is interpreted when joining measured
/// points to reference points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XAxis {
    /// x is a message-count percentile (10, 20, ..., 100): the slowdown
    /// figures. Measured bins join to the nearest reference percentile
    /// within [`MSG_PCTILE_JOIN_SLACK`].
    MsgPercentile,
    /// x is a network load fraction (0.5, 0.7, ...): Figure 16's sweep.
    Load,
    /// The curve is a single scalar (x = 0): Figure 15's capacity bars,
    /// Figure 14's delay attributions.
    Scalar,
}

impl XAxis {
    /// Maximum |measured.x − reference.x| for a join, in the axis' units.
    fn join_slack(self) -> f64 {
        match self {
            // Reduced-scale runs have bin boundaries that are not exact
            // deciles (equal-count chunks of a non-multiple-of-ten
            // message budget); accept the nearest bin within 8 points.
            XAxis::MsgPercentile => MSG_PCTILE_JOIN_SLACK,
            XAxis::Load => 0.015,
            XAxis::Scalar => 1e-9,
        }
    }
}

/// Join slack for percentile axes (see [`XAxis::MsgPercentile`]).
pub const MSG_PCTILE_JOIN_SLACK: f64 = 8.0;

/// One published curve to compare a reproduction run against.
#[derive(Debug, Clone, Copy)]
pub struct RefCurve {
    /// Which figure the curve is from (`"fig12"`, ...).
    pub figure: &'static str,
    /// Workload name (`"W4"`).
    pub workload: &'static str,
    /// Protocol name as the `repro` tables print it (`"Homa"`).
    pub protocol: &'static str,
    /// Sub-curve discriminator where one panel holds several curves per
    /// protocol (Figure 16's `"sched=1"` overcommitment degrees);
    /// empty when unused.
    pub variant: &'static str,
    /// Network load the curve was published at.
    pub load: f64,
    /// Metric name as the `repro` tables emit it (`"p99_slowdown"`).
    pub metric: &'static str,
    /// Interpretation of the x coordinates.
    pub x_axis: XAxis,
    /// Gate threshold on the curve's RMS relative error.
    pub rel_tolerance: f64,
    /// Whether drift past the tolerance fails `repro compare`. Curves
    /// our reduced-scale setup knowingly cannot match are report-only.
    pub gate: bool,
    /// Where the numbers were read from.
    pub provenance: &'static str,
    /// `(x, y)` reference points.
    pub points: &'static [(f64, f64)],
}

impl RefCurve {
    /// Human-readable curve key (`fig12 W4/Homa@80% p99_slowdown`).
    pub fn key(&self) -> String {
        let variant =
            if self.variant.is_empty() { String::new() } else { format!(" [{}]", self.variant) };
        format!(
            "{} {}/{}{}@{:.0}% {}",
            self.figure,
            self.workload,
            self.protocol,
            variant,
            self.load * 100.0,
            self.metric
        )
    }
}

/// One measured data point extracted from a `FIG_<n>.json` table's
/// canonical columns.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredPoint {
    /// Figure the point came from (`"fig12"`).
    pub figure: String,
    /// Workload name.
    pub workload: String,
    /// Protocol name.
    pub protocol: String,
    /// Sub-curve discriminator (empty when unused).
    pub variant: String,
    /// Network load of the run.
    pub load: f64,
    /// Metric name.
    pub metric: String,
    /// x coordinate (percentile / load / 0).
    pub x: f64,
    /// Measured value.
    pub y: f64,
}

/// Reference vs. measured at one joined x.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointDelta {
    /// The reference x the join anchored on.
    pub x: f64,
    /// Published value.
    pub reference: f64,
    /// Measured value.
    pub measured: f64,
}

impl PointDelta {
    /// measured − reference.
    pub fn abs_delta(&self) -> f64 {
        self.measured - self.reference
    }

    /// (measured − reference) / reference.
    pub fn rel_delta(&self) -> f64 {
        self.abs_delta() / self.reference
    }
}

/// The comparison result for one reference curve.
#[derive(Debug, Clone)]
pub struct CurveDelta {
    /// The curve compared against.
    pub curve: &'static RefCurve,
    /// Joined points (reference order).
    pub points: Vec<PointDelta>,
    /// Reference x values no measured point joined to (e.g. the run
    /// used different loads or workloads).
    pub missing: Vec<f64>,
}

impl CurveDelta {
    /// Root-mean-square of the per-point relative errors; 0 when no
    /// points joined.
    pub fn rms_rel(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.points.iter().map(|p| p.rel_delta().powi(2)).sum();
        (sum / self.points.len() as f64).sqrt()
    }

    /// The point with the largest |relative error|.
    pub fn worst(&self) -> Option<&PointDelta> {
        self.points.iter().max_by(|a, b| {
            a.rel_delta().abs().partial_cmp(&b.rel_delta().abs()).expect("no NaN deltas")
        })
    }

    /// Whether the curve's RMS relative error is within its own
    /// `rel_tolerance`. A curve with no joined points trivially passes —
    /// the caller decides whether an entirely-unjoined comparison is an
    /// error.
    pub fn within_tolerance(&self) -> bool {
        self.rms_rel() <= self.curve.rel_tolerance
    }

    /// Whether this curve should fail the gate: a gated curve with at
    /// least one joined point fails on drift past tolerance *or* on any
    /// unjoined reference point — a partial join means the run stopped
    /// covering percentiles the reference pins (e.g. too few messages),
    /// and a regression confined to the unjoined points must not pass
    /// silently. A fully-unjoined curve is skipped instead (the run
    /// deliberately excluded its workload/load; [`gate_failures`] still
    /// errors when *nothing* joined at all).
    pub fn gated_failure(&self) -> bool {
        self.curve.gate
            && !self.points.is_empty()
            && (!self.within_tolerance() || !self.missing.is_empty())
    }
}

/// Join `measured` points against every curve in [`REFERENCE`].
pub fn compare_curves(measured: &[MeasuredPoint]) -> Vec<CurveDelta> {
    REFERENCE
        .iter()
        .map(|curve| {
            let mine: Vec<&MeasuredPoint> = measured
                .iter()
                .filter(|m| {
                    m.figure == curve.figure
                        && m.workload == curve.workload
                        && m.protocol == curve.protocol
                        && m.variant == curve.variant
                        && m.metric == curve.metric
                        && (m.load - curve.load).abs() <= 0.015
                })
                .collect();
            let slack = curve.x_axis.join_slack();
            let mut points = Vec::new();
            let mut missing = Vec::new();
            for &(rx, ry) in curve.points {
                let nearest = mine
                    .iter()
                    .min_by(|a, b| {
                        let da = (a.x - rx).abs();
                        let db = (b.x - rx).abs();
                        da.partial_cmp(&db).expect("no NaN x")
                    })
                    .filter(|m| (m.x - rx).abs() <= slack);
                match nearest {
                    Some(m) => points.push(PointDelta { x: rx, reference: ry, measured: m.y }),
                    None => missing.push(rx),
                }
            }
            CurveDelta { curve, points, missing }
        })
        .collect()
}

/// Gate verdict over a whole comparison: the failing curve keys, or an
/// error when nothing joined at all (which means the extraction or the
/// run shape broke, not that the reproduction is perfect).
pub fn gate_failures(deltas: &[CurveDelta]) -> Result<Vec<String>, String> {
    if deltas.iter().all(|d| d.points.is_empty()) {
        return Err("no measured point joined any reference curve; \
             the run shape or the FIG_*.json extraction is broken"
            .into());
    }
    Ok(deltas
        .iter()
        .filter(|d| d.gated_failure())
        .map(|d| {
            if !d.within_tolerance() {
                format!(
                    "{}: RMS rel err {:.2} > tolerance {:.2}",
                    d.curve.key(),
                    d.rms_rel(),
                    d.curve.rel_tolerance
                )
            } else {
                format!(
                    "{}: {} of {} reference points unjoined (x = {:?}); run with the \
                     default bins/loads so every published point is covered",
                    d.curve.key(),
                    d.missing.len(),
                    d.curve.points.len(),
                    d.missing
                )
            }
        })
        .collect())
}

// ---------------------------------------------------------------------
// The digitized reference data.
//
// Slowdown curves (fig12/fig13): x = message-count percentile, i.e. the
// right edge of each decile bin of the workload's message-size
// distribution (10 = smallest 10% of messages). y = slowdown. Values
// were read off the published log-scale panels; the per-point comments
// give the approximate size at that percentile (from
// `Workload::decile_sizes`) to make re-digitization reproducible.
//
// Capacity bars (fig15): single scalar per (workload, protocol).
// Wasted-bandwidth curves (fig16): x = network load fraction.
// Delay attribution (fig14): single scalar per workload, microseconds.
// ---------------------------------------------------------------------

/// Every digitized reference curve, in figure order.
pub static REFERENCE: &[RefCurve] = &[
    // ----------------------------------------------------- Figure 12
    RefCurve {
        figure: "fig12",
        workload: "W2",
        protocol: "Homa",
        variant: "",
        load: 0.8,
        metric: "p99_slowdown",
        x_axis: XAxis::MsgPercentile,
        rel_tolerance: 0.60,
        gate: true,
        provenance: "SIGCOMM'18 Fig 12, W2 panel (99th percentile, 80% load), log-scale read",
        points: &[
            (10.0, 1.7),  // ~3 B messages
            (20.0, 1.7),  // ~34 B
            (30.0, 1.7),  // ~58 B
            (40.0, 1.8),  // ~171 B
            (50.0, 1.8),  // ~269 B
            (60.0, 1.8),  // ~320 B
            (70.0, 1.9),  // ~366 B
            (80.0, 1.9),  // ~427 B
            (90.0, 2.0),  // ~512 B
            (100.0, 2.8), // tail: up to 262 KB
        ],
    },
    RefCurve {
        figure: "fig12",
        workload: "W4",
        protocol: "Homa",
        variant: "",
        load: 0.8,
        metric: "p99_slowdown",
        x_axis: XAxis::MsgPercentile,
        rel_tolerance: 0.60,
        gate: true,
        provenance: "SIGCOMM'18 Fig 12, W4 panel (99th percentile, 80% load), log-scale read",
        points: &[
            (10.0, 2.2),  // ~315 B messages (single packet)
            (20.0, 2.2),  // ~376 B
            (30.0, 2.3),  // ~502 B
            (40.0, 2.3),  // ~561 B
            (50.0, 2.4),  // ~662 B
            (60.0, 2.5),  // ~960 B
            (70.0, 2.8),  // ~6.4 KB (multi-packet, still unscheduled)
            (80.0, 3.2),  // ~49 KB (scheduled)
            (90.0, 4.0),  // ~120 KB
            (100.0, 5.5), // tail: up to 10 MB
        ],
    },
    // The 50%-load points come from the extended paper's load sweep
    // (arXiv 1803.09615); at half load queueing nearly vanishes and the
    // p99 sits close to the preemption-lag floor.
    RefCurve {
        figure: "fig12",
        workload: "W2",
        protocol: "Homa",
        variant: "",
        load: 0.5,
        metric: "p99_slowdown",
        x_axis: XAxis::MsgPercentile,
        rel_tolerance: 0.60,
        gate: true,
        provenance: "arXiv 1803.09615 load sweep, W2 at 50% load, approximate read",
        points: &[
            (10.0, 1.4),  // ~3 B
            (20.0, 1.4),  // ~34 B
            (30.0, 1.4),  // ~58 B
            (40.0, 1.5),  // ~171 B
            (50.0, 1.5),  // ~269 B
            (60.0, 1.5),  // ~320 B
            (70.0, 1.5),  // ~366 B
            (80.0, 1.6),  // ~427 B
            (90.0, 1.6),  // ~512 B
            (100.0, 2.0), // tail
        ],
    },
    RefCurve {
        figure: "fig12",
        workload: "W4",
        protocol: "Homa",
        variant: "",
        load: 0.5,
        metric: "p99_slowdown",
        x_axis: XAxis::MsgPercentile,
        rel_tolerance: 0.60,
        gate: true,
        provenance: "arXiv 1803.09615 load sweep, W4 at 50% load, approximate read",
        points: &[
            (10.0, 1.8),  // ~315 B
            (20.0, 1.8),  // ~376 B
            (30.0, 1.9),  // ~502 B
            (40.0, 1.9),  // ~561 B
            (50.0, 2.0),  // ~662 B
            (60.0, 2.0),  // ~960 B
            (70.0, 2.2),  // ~6.4 KB
            (80.0, 2.5),  // ~49 KB
            (90.0, 3.0),  // ~120 KB
            (100.0, 4.0), // tail
        ],
    },
    // Baseline curves: reported for context, never gated — our
    // reduced-scale fabric (24 hosts vs. 144) shifts their congestion
    // behavior more than Homa's (see EXPERIMENTS.md, honest gaps).
    RefCurve {
        figure: "fig12",
        workload: "W4",
        protocol: "pFabric",
        variant: "",
        load: 0.8,
        metric: "p99_slowdown",
        x_axis: XAxis::MsgPercentile,
        rel_tolerance: 1.0,
        gate: false,
        provenance: "SIGCOMM'18 Fig 12, W4 panel, pFabric curve, log-scale read",
        points: &[
            (10.0, 2.4),  // ~315 B
            (20.0, 2.4),  // ~376 B
            (30.0, 2.5),  // ~502 B
            (40.0, 2.5),  // ~561 B
            (50.0, 2.6),  // ~662 B
            (60.0, 2.7),  // ~960 B
            (70.0, 3.0),  // ~6.4 KB
            (80.0, 3.5),  // ~49 KB
            (90.0, 4.5),  // ~120 KB
            (100.0, 6.5), // tail
        ],
    },
    RefCurve {
        figure: "fig12",
        workload: "W4",
        protocol: "PIAS",
        variant: "",
        load: 0.8,
        metric: "p99_slowdown",
        x_axis: XAxis::MsgPercentile,
        rel_tolerance: 1.5,
        gate: false,
        provenance: "SIGCOMM'18 Fig 12, W4 panel, PIAS curve, log-scale read (steep tail)",
        points: &[
            (10.0, 2.6),    // ~315 B: first MLFQ level, near Homa
            (20.0, 2.7),    // ~376 B
            (30.0, 2.9),    // ~502 B
            (40.0, 3.2),    // ~561 B
            (50.0, 3.8),    // ~662 B
            (60.0, 5.0),    // ~960 B
            (70.0, 9.0),    // ~6.4 KB: demoted below short flows
            (80.0, 18.0),   // ~49 KB
            (90.0, 45.0),   // ~120 KB
            (100.0, 130.0), // tail: big flows starve at low priority
        ],
    },
    // ----------------------------------------------------- Figure 13
    RefCurve {
        figure: "fig13",
        workload: "W2",
        protocol: "Homa",
        variant: "",
        load: 0.8,
        metric: "p50_slowdown",
        x_axis: XAxis::MsgPercentile,
        rel_tolerance: 0.40,
        gate: true,
        provenance: "SIGCOMM'18 Fig 13, W2 panel (median, 80% load)",
        points: &[
            (10.0, 1.1),  // ~3 B
            (20.0, 1.1),  // ~34 B
            (30.0, 1.1),  // ~58 B
            (40.0, 1.2),  // ~171 B
            (50.0, 1.2),  // ~269 B
            (60.0, 1.2),  // ~320 B
            (70.0, 1.2),  // ~366 B
            (80.0, 1.2),  // ~427 B
            (90.0, 1.3),  // ~512 B
            (100.0, 1.5), // tail
        ],
    },
    RefCurve {
        figure: "fig13",
        workload: "W4",
        protocol: "Homa",
        variant: "",
        load: 0.8,
        metric: "p50_slowdown",
        x_axis: XAxis::MsgPercentile,
        rel_tolerance: 0.40,
        gate: true,
        provenance: "SIGCOMM'18 Fig 13, W4 panel (median, 80% load)",
        points: &[
            (10.0, 1.3),  // ~315 B
            (20.0, 1.3),  // ~376 B
            (30.0, 1.3),  // ~502 B
            (40.0, 1.4),  // ~561 B
            (50.0, 1.4),  // ~662 B
            (60.0, 1.5),  // ~960 B
            (70.0, 1.6),  // ~6.4 KB
            (80.0, 1.8),  // ~49 KB
            (90.0, 2.0),  // ~120 KB
            (100.0, 2.5), // tail
        ],
    },
    RefCurve {
        figure: "fig13",
        workload: "W2",
        protocol: "Homa",
        variant: "",
        load: 0.5,
        metric: "p50_slowdown",
        x_axis: XAxis::MsgPercentile,
        rel_tolerance: 0.40,
        gate: true,
        provenance: "arXiv 1803.09615 load sweep, W2 median at 50% load",
        points: &[
            (10.0, 1.05), // ~3 B
            (30.0, 1.05), // ~58 B
            (50.0, 1.1),  // ~269 B
            (70.0, 1.1),  // ~366 B
            (90.0, 1.1),  // ~512 B
            (100.0, 1.3), // tail
        ],
    },
    RefCurve {
        figure: "fig13",
        workload: "W4",
        protocol: "Homa",
        variant: "",
        load: 0.5,
        metric: "p50_slowdown",
        x_axis: XAxis::MsgPercentile,
        rel_tolerance: 0.40,
        gate: true,
        provenance: "arXiv 1803.09615 load sweep, W4 median at 50% load",
        points: &[
            (10.0, 1.2),  // ~315 B
            (30.0, 1.2),  // ~502 B
            (50.0, 1.3),  // ~662 B
            (70.0, 1.4),  // ~6.4 KB
            (90.0, 1.6),  // ~120 KB
            (100.0, 1.9), // tail
        ],
    },
    // ----------------------------------------------------- Figure 14
    // Tail-delay attribution for short messages at 80% load. The paper
    // reports the dominant component is downlink queueing behind other
    // unscheduled packets, a few microseconds at the near-p99. Absolute
    // microseconds depend strongly on fabric scale, so these stay
    // report-only.
    RefCurve {
        figure: "fig14",
        workload: "W4",
        protocol: "Homa",
        variant: "",
        load: 0.8,
        metric: "queueing_us",
        x_axis: XAxis::Scalar,
        rel_tolerance: 1.0,
        gate: false,
        provenance: "SIGCOMM'18 Fig 14, W4 bar: near-p99 queueing delay for short messages",
        points: &[(0.0, 8.0)],
    },
    RefCurve {
        figure: "fig14",
        workload: "W2",
        protocol: "Homa",
        variant: "",
        load: 0.8,
        metric: "queueing_us",
        x_axis: XAxis::Scalar,
        rel_tolerance: 1.0,
        gate: false,
        provenance: "SIGCOMM'18 Fig 14, W2 bar: near-p99 queueing delay for short messages",
        points: &[(0.0, 4.0)],
    },
    // ----------------------------------------------------- Figure 15
    // Maximum sustainable load as a fraction of host link bandwidth.
    RefCurve {
        figure: "fig15",
        workload: "W2",
        protocol: "Homa",
        variant: "",
        load: 0.0,
        metric: "max_load",
        x_axis: XAxis::Scalar,
        rel_tolerance: 0.12,
        gate: true,
        provenance: "SIGCOMM'18 Fig 15, W2 Homa bar (~92% of link bandwidth)",
        points: &[(0.0, 0.92)],
    },
    RefCurve {
        figure: "fig15",
        workload: "W4",
        protocol: "Homa",
        variant: "",
        load: 0.0,
        metric: "max_load",
        x_axis: XAxis::Scalar,
        rel_tolerance: 0.12,
        gate: true,
        provenance: "SIGCOMM'18 Fig 15, W4 Homa bar (~93% of link bandwidth)",
        points: &[(0.0, 0.93)],
    },
    RefCurve {
        figure: "fig15",
        workload: "W2",
        protocol: "pHost",
        variant: "",
        load: 0.0,
        metric: "max_load",
        x_axis: XAxis::Scalar,
        rel_tolerance: 0.25,
        gate: false,
        provenance: "SIGCOMM'18 Fig 15, W2 pHost bar (~73%; Fig 12 caption notes pHost \
                     cannot sustain 80%)",
        points: &[(0.0, 0.73)],
    },
    RefCurve {
        figure: "fig15",
        workload: "W4",
        protocol: "pHost",
        variant: "",
        load: 0.0,
        metric: "max_load",
        x_axis: XAxis::Scalar,
        rel_tolerance: 0.25,
        gate: false,
        provenance: "SIGCOMM'18 Fig 15, W4 pHost bar (~72%)",
        points: &[(0.0, 0.72)],
    },
    // ----------------------------------------------------- Figure 16
    // Wasted downlink bandwidth vs. load for different degrees of
    // overcommitment (number of scheduled priority levels), W4. The
    // paper's headline: with no overcommitment (1 scheduled level) a
    // receiver's downlink idles noticeably while grants are withheld;
    // 7 levels reclaim most of it. Our reduced 24-host fabric
    // reproduces the *shape* (waste grows with load, overcommitment
    // shrinks it) at ~5-8x smaller magnitude, and with overcommitment
    // >= 3 the measured waste is ~0 at this scale — so only the
    // degree-1 curve is gated (a generous tolerance that still fails
    // if the waste signal disappears entirely or explodes), and the
    // higher-degree curves are report-only. See EXPERIMENTS.md.
    RefCurve {
        figure: "fig16",
        workload: "W4",
        protocol: "Homa",
        variant: "sched=1",
        load: 0.0, // per-point loads carry the x axis
        metric: "wasted_frac",
        x_axis: XAxis::Load,
        rel_tolerance: 0.90,
        gate: true,
        provenance: "SIGCOMM'18 Fig 16, overcommitment degree 1 curve",
        points: &[
            (0.5, 0.04),  // at 50% load
            (0.7, 0.09),  // at 70% load
            (0.85, 0.16), // at 85% load
        ],
    },
    RefCurve {
        figure: "fig16",
        workload: "W4",
        protocol: "Homa",
        variant: "sched=3",
        load: 0.0,
        metric: "wasted_frac",
        x_axis: XAxis::Load,
        rel_tolerance: 0.80,
        gate: false,
        provenance: "SIGCOMM'18 Fig 16, overcommitment degree 3 curve (report-only: \
                     measured waste ~0 at reduced scale)",
        points: &[
            (0.5, 0.02),  // at 50% load
            (0.7, 0.04),  // at 70% load
            (0.85, 0.08), // at 85% load
        ],
    },
    RefCurve {
        figure: "fig16",
        workload: "W4",
        protocol: "Homa",
        variant: "sched=7",
        load: 0.0,
        metric: "wasted_frac",
        x_axis: XAxis::Load,
        rel_tolerance: 0.80,
        gate: false,
        provenance: "SIGCOMM'18 Fig 16, overcommitment degree 7 curve (report-only: \
                     measured waste ~0 at reduced scale)",
        points: &[
            (0.5, 0.01),  // at 50% load
            (0.7, 0.02),  // at 70% load
            (0.85, 0.05), // at 85% load
        ],
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_tables_are_sane() {
        assert!(!REFERENCE.is_empty());
        for c in REFERENCE {
            assert!(!c.points.is_empty(), "{}: empty curve", c.key());
            assert!(c.rel_tolerance > 0.0, "{}: nonpositive tolerance", c.key());
            assert!(!c.provenance.is_empty(), "{}: missing provenance", c.key());
            for &(x, y) in c.points {
                assert!(y > 0.0, "{}: nonpositive reference value at x={x}", c.key());
                match c.x_axis {
                    XAxis::MsgPercentile => assert!((0.0..=100.0).contains(&x)),
                    XAxis::Load => assert!((0.0..=1.0).contains(&x)),
                    XAxis::Scalar => assert_eq!(x, 0.0),
                }
            }
        }
    }

    #[test]
    fn acceptance_coverage_w2_w4_at_two_loads() {
        // The figure-accuracy gate must cover W2 and W4 at two loads
        // (the PR's acceptance criterion); pin it here so the reference
        // tables cannot silently lose that coverage.
        for wl in ["W2", "W4"] {
            let loads: Vec<f64> = REFERENCE
                .iter()
                .filter(|c| c.figure == "fig12" && c.workload == wl && c.protocol == "Homa")
                .map(|c| c.load)
                .collect();
            assert!(
                loads.contains(&0.5) && loads.contains(&0.8),
                "fig12 {wl}/Homa must be digitized at loads 0.5 and 0.8, got {loads:?}"
            );
        }
    }

    fn mp(
        figure: &str,
        wl: &str,
        proto: &str,
        load: f64,
        metric: &str,
        x: f64,
        y: f64,
    ) -> MeasuredPoint {
        MeasuredPoint {
            figure: figure.into(),
            workload: wl.into(),
            protocol: proto.into(),
            variant: String::new(),
            load,
            metric: metric.into(),
            x,
            y,
        }
    }

    #[test]
    fn exact_match_passes() {
        let curve = &REFERENCE[0]; // fig12 W2/Homa@0.8
        let measured: Vec<MeasuredPoint> = curve
            .points
            .iter()
            .map(|&(x, y)| mp("fig12", "W2", "Homa", 0.8, "p99_slowdown", x, y))
            .collect();
        let deltas = compare_curves(&measured);
        let d = deltas.iter().find(|d| std::ptr::eq(d.curve, curve)).unwrap();
        assert_eq!(d.points.len(), curve.points.len());
        assert!(d.missing.is_empty());
        assert_eq!(d.rms_rel(), 0.0);
        assert!(d.within_tolerance());
        assert!(!d.gated_failure());
        let fails = gate_failures(&deltas).unwrap();
        assert!(fails.is_empty(), "{fails:?}");
    }

    #[test]
    fn drift_fails_gated_curves_only() {
        let curve = &REFERENCE[0];
        // 3x the published values: far past a 0.6 RMS tolerance.
        let measured: Vec<MeasuredPoint> = curve
            .points
            .iter()
            .map(|&(x, y)| mp("fig12", "W2", "Homa", 0.8, "p99_slowdown", x, 3.0 * y))
            .collect();
        let deltas = compare_curves(&measured);
        let d = deltas.iter().find(|d| std::ptr::eq(d.curve, curve)).unwrap();
        assert!((d.rms_rel() - 2.0).abs() < 1e-9, "rms {}", d.rms_rel());
        assert!(d.gated_failure());
        let fails = gate_failures(&deltas).unwrap();
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("fig12 W2/Homa"));
    }

    #[test]
    fn ungated_drift_reports_but_passes() {
        // pFabric fig12 is report-only.
        let curve =
            REFERENCE.iter().find(|c| c.protocol == "pFabric" && c.figure == "fig12").unwrap();
        let measured: Vec<MeasuredPoint> = curve
            .points
            .iter()
            .map(|&(x, y)| {
                let mut m = mp("fig12", "W4", "pFabric", 0.8, "p99_slowdown", x, 10.0 * y);
                m.protocol = "pFabric".into();
                m
            })
            .collect();
        let deltas = compare_curves(&measured);
        let d = deltas.iter().find(|d| std::ptr::eq(d.curve, curve)).unwrap();
        assert!(!d.within_tolerance());
        assert!(!d.gated_failure(), "ungated curve must not fail the gate");
        assert!(gate_failures(&deltas).unwrap().is_empty());
    }

    #[test]
    fn off_decile_bins_join_to_nearest() {
        // Reduced-scale bins land at 9.7%, 19.4%, ... — they must still
        // join the 10/20/... reference percentiles.
        let curve = &REFERENCE[0];
        let measured: Vec<MeasuredPoint> = curve
            .points
            .iter()
            .map(|&(x, y)| mp("fig12", "W2", "Homa", 0.8, "p99_slowdown", x * 0.97, y))
            .collect();
        let deltas = compare_curves(&measured);
        let d = deltas.iter().find(|d| std::ptr::eq(d.curve, curve)).unwrap();
        assert_eq!(d.points.len(), curve.points.len(), "missing: {:?}", d.missing);
    }

    #[test]
    fn unjoined_comparison_is_an_error() {
        assert!(gate_failures(&compare_curves(&[])).is_err());
        // Wrong load: nothing joins.
        let measured = vec![mp("fig12", "W2", "Homa", 0.65, "p99_slowdown", 50.0, 1.8)];
        assert!(gate_failures(&compare_curves(&measured)).is_err());
    }

    #[test]
    fn missing_reference_points_are_tracked() {
        // Only the 50th percentile measured: the rest are missing, the
        // joined point still produces a delta.
        let measured = vec![mp("fig12", "W4", "Homa", 0.8, "p99_slowdown", 50.0, 2.4)];
        let deltas = compare_curves(&measured);
        let d = deltas
            .iter()
            .find(|d| {
                d.curve.workload == "W4"
                    && d.curve.load == 0.8
                    && d.curve.figure == "fig12"
                    && d.curve.protocol == "Homa"
            })
            .unwrap();
        assert_eq!(d.points.len(), 1);
        assert_eq!(d.missing.len(), d.curve.points.len() - 1);
        assert_eq!(d.points[0].x, 50.0);
        assert!((d.points[0].rel_delta()).abs() < 1e-9);
        // A partial join on a gated curve fails the gate even though the
        // joined point is within tolerance: a regression confined to the
        // unjoined percentiles must not pass silently.
        assert!(d.within_tolerance());
        assert!(d.gated_failure());
        let fails = gate_failures(&deltas).unwrap();
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("unjoined"), "{fails:?}");
    }
}
