//! `--aa N`: does the benchmark agree with itself? Two interleaved sets
//! of N measured runs of every workload on one build, each run a fresh
//! process with its own seed; for each end-to-end metric both medians,
//! their relative difference, the spread within a set, and the bound.

use crate::metrics::{parse_result_values, Better, END_TO_END};
use crate::plan::WorkloadId;

use std::fmt::Write as _;
use std::process::Command;

/// One measured run in a child process; the metric values of its result
/// line.
fn child_run(workload: WorkloadId, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let values = parse_result_values(line).ok_or_else(|| {
        format!(
            "{} seed {seed}: no correct result line (exit {:?})",
            workload.name(),
            out.status.code()
        )
    })?;
    Ok(END_TO_END.iter().map(|d| values[d.name]).collect())
}

/// The `k`-th quartile of sorted `v` as Python's
/// `statistics.quantiles(v, n=4)` gives it: the exclusive method,
/// position `(n + 1) · k / 4`, interpolated. The second is the median.
fn quartile(v: &[f64], k: usize) -> f64 {
    let n = v.len();
    if n < 2 {
        return v[0];
    }
    let pos = (n + 1) as f64 * k as f64 / 4.0;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    v[j - 1] + (pos - j as f64) * (v[j] - v[j - 1])
}

/// Median of `values`, the mean of the middle two when their count is even.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quartile(&v, 2)
}

/// Interquartile range as a share of the median: the spread the builder's
/// contract checks.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (quartile(&v, 3) - quartile(&v, 1)) / quartile(&v, 2)
}

/// Run the A/A comparison and render it as a markdown report. The
/// `bool` is false when any metric's second median is worse than its
/// first by more than its bound, or any spread exceeds its bound.
pub fn run(n: usize, seconds: f64) -> Result<(String, bool), String> {
    let mut report = String::new();
    let mut ok = true;
    let _ = writeln!(
        report,
        "Two interleaved sets (A, B) of {n} measured runs per workload, {seconds} s each, one build; \
         run i of set A uses seed 100+i, of set B seed 200+i.\n\n\
         | workload | metric | median A | median B | B vs A | spread A | spread B | bound | verdict |\n\
         |---|---|---|---|---|---|---|---|---|"
    );
    for workload in WorkloadId::ALL {
        let mut sets = [vec![Vec::new(); END_TO_END.len()], vec![Vec::new(); END_TO_END.len()]];
        for i in 0..n {
            // Alternate which set goes first, so neither always runs on
            // the machine state the other left behind.
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                let seed = 100 * (set as u64 + 1) + i as u64;
                let values = child_run(workload, seed, seconds)?;
                eprintln!("{} set {} run {i}: {values:?}", workload.name(), ["A", "B"][set]);
                for (slot, v) in sets[set].iter_mut().zip(values) {
                    slot.push(v);
                }
            }
        }
        for (m, def) in END_TO_END.iter().enumerate() {
            let (a, b) = (median(&sets[0][m]), median(&sets[1][m]));
            let worse = match def.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let (sa, sb) = (iqr_over_median(&sets[0][m]), iqr_over_median(&sets[1][m]));
            let bound = def.bound.expect("end-to-end metrics have bounds");
            // The set-up time is held to its bound on the medians only.
            let spread_ok = def.name == "setup_s" || (sa <= bound && sb <= bound);
            let pass = worse <= bound && spread_ok;
            ok &= pass;
            let _ = writeln!(
                report,
                "| {} | {} | {a:.6} | {b:.6} | {:+.2}% | {:.2}% | {:.2}% | {:.0}% | {} |",
                workload.name(),
                def.name,
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "EXCEEDS" }
            );
        }
    }
    Ok((report, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[3.0]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
