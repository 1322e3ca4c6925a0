//! Plain-text rendering of experiment outputs.
//!
//! Slowdown summaries for the examples and the per-curve delta tables of
//! `repro compare` (figure tables: `homa_bench::perfjson::render_text`).

use crate::figures::CurveDelta;
use crate::slowdown::SlowdownSummary;

/// Render a slowdown summary as the paper's figure rows: one row per
/// size bin with p50 and p99 slowdown.
pub fn slowdown_table(label: &str, s: &SlowdownSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{label}\n{:>12} {:>12} {:>8} {:>10} {:>10}\n",
        "min_size", "max_size", "count", "p50", "p99"
    ));
    for b in &s.bins {
        out.push_str(&format!(
            "{:>12} {:>12} {:>8} {:>10.2} {:>10.2}\n",
            b.min_size, b.max_size, b.count, b.p50, b.p99
        ));
    }
    out.push_str(&format!("overall: p50 {:.2}  p99 {:.2}\n", s.overall_p50, s.overall_p99));
    out
}

/// Render a figure-accuracy comparison as the delta tables recorded in
/// `EXPERIMENTS.md`: one block per reference curve with per-point
/// reference/measured/delta columns, then the curve's RMS relative
/// error, worst point, and gate verdict.
pub fn delta_report(deltas: &[CurveDelta]) -> String {
    let mut out = String::new();
    for d in deltas {
        if d.points.is_empty() && d.missing.len() == d.curve.points.len() {
            out.push_str(&format!("{}: no measured points (skipped)\n\n", d.curve.key()));
            continue;
        }
        out.push_str(&format!("{}\n", d.curve.key()));
        out.push_str(&format!(
            "{:>10} {:>10} {:>10} {:>10} {:>9}\n",
            "x", "reference", "measured", "delta", "rel"
        ));
        for p in &d.points {
            out.push_str(&format!(
                "{:>10} {:>10.3} {:>10.3} {:>+10.3} {:>+8.1}%\n",
                fmt_axis(p.x),
                p.reference,
                p.measured,
                p.abs_delta(),
                p.rel_delta() * 100.0
            ));
        }
        for x in &d.missing {
            let reference =
                d.curve.points.iter().find(|(rx, _)| rx == x).map(|(_, y)| *y).unwrap_or(f64::NAN);
            out.push_str(&format!(
                "{:>10} {reference:>10.3} {:>10} {:>10} {:>9}\n",
                fmt_axis(*x),
                "-",
                "-",
                "-"
            ));
        }
        let verdict = if !d.curve.gate {
            "report-only".to_string()
        } else if d.gated_failure() {
            if d.within_tolerance() {
                format!("FAIL ({} reference points unjoined)", d.missing.len())
            } else {
                "FAIL".to_string()
            }
        } else {
            "PASS".to_string()
        };
        let worst = d
            .worst()
            .map(|w| format!("worst {:+.1}% at x={}", w.rel_delta() * 100.0, fmt_axis(w.x)))
            .unwrap_or_else(|| "no joined points".into());
        out.push_str(&format!(
            "curve: RMS rel err {:.2} (tolerance {:.2}) — {worst} — {verdict}\n\n",
            d.rms_rel(),
            d.curve.rel_tolerance
        ));
    }
    out
}

/// Axis values print as percentiles/loads without trailing noise.
fn fmt_axis(x: f64) -> String {
    if x.fract() == 0.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slowdown::{MsgRecord, SlowdownSummary};

    #[test]
    fn tables_render_without_panic() {
        let records: Vec<MsgRecord> = (1..=40)
            .map(|i| MsgRecord {
                size: i * 100,
                injected_ns: 0,
                completed_ns: 2_000 * i,
                unloaded_ns: 1_000,
                delay: Default::default(),
            })
            .collect();
        let s = SlowdownSummary::from_records(&records, 4);
        let t = slowdown_table("fig-test", &s);
        assert!(t.contains("fig-test"));
        assert!(t.contains("overall"));
    }

    #[test]
    fn delta_report_renders_pass_fail_and_missing() {
        use crate::figures::{compare_curves, MeasuredPoint, REFERENCE};
        let curve = &REFERENCE[0]; // fig12 W2/Homa@0.8
        let mut measured: Vec<MeasuredPoint> = curve
            .points
            .iter()
            .map(|&(x, y)| MeasuredPoint {
                figure: "fig12".into(),
                workload: "W2".into(),
                protocol: "Homa".into(),
                variant: String::new(),
                load: 0.8,
                metric: "p99_slowdown".into(),
                x,
                y: y * 1.1,
            })
            .collect();
        let deltas = compare_curves(&measured);
        let text = delta_report(&deltas);
        assert!(text.contains("fig12 W2/Homa@80% p99_slowdown"));
        assert!(text.contains("PASS"), "{text}");
        assert!(text.contains("worst +10.0%"), "{text}");
        // Curves with no points at all render as skipped.
        assert!(text.contains("skipped"), "{text}");
        // Drift far past tolerance flips the verdict.
        for m in &mut measured {
            m.y *= 10.0;
        }
        let text = delta_report(&compare_curves(&measured));
        assert!(text.contains("FAIL"), "{text}");
    }
}
