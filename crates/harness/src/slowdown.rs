//! The paper's slowdown metric and its size-binned summaries.
//!
//! Slowdown is "the ratio of the actual time required to complete a
//! message/RPC divided by the best possible time for one of that size on
//! an unloaded network" (§5.1). Figures 8/9/12/13 plot p99 and p50
//! slowdown over an x-axis that is *linear in the total number of
//! messages* — each of the ten ticks covers 10% of messages. We summarize
//! with the same convention: messages sorted by size and cut into
//! equal-count bins.

use homa_sim::stats::percentile;
use homa_sim::{DelayBreakdown, QuantileSketch};

/// One delivered message/RPC observation.
#[derive(Debug, Clone, Copy)]
pub struct MsgRecord {
    /// Message size in bytes (for RPCs, the echoed payload size).
    pub size: u64,
    /// Injection time, nanoseconds.
    pub injected_ns: u64,
    /// Completion time, nanoseconds.
    pub completed_ns: u64,
    /// Best-possible completion time on an unloaded fabric, nanoseconds.
    pub unloaded_ns: u64,
    /// Queueing-delay attribution accumulated by the message's packets
    /// (zero unless the transport tracks it).
    pub delay: DelayBreakdown,
}

impl MsgRecord {
    /// Observed completion time in nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.completed_ns - self.injected_ns
    }

    /// The slowdown ratio (≥ 1 in a well-calibrated experiment).
    pub fn slowdown(&self) -> f64 {
        self.latency_ns() as f64 / self.unloaded_ns.max(1) as f64
    }
}

/// Slowdown statistics for one size bin.
#[derive(Debug, Clone)]
pub struct SlowdownBin {
    /// Smallest message size in the bin.
    pub min_size: u64,
    /// Largest message size in the bin.
    pub max_size: u64,
    /// Number of messages.
    pub count: usize,
    /// Median slowdown.
    pub p50: f64,
    /// 99th-percentile slowdown.
    pub p99: f64,
    /// Mean slowdown.
    pub mean: f64,
}

/// A full size-binned slowdown summary.
#[derive(Debug, Clone)]
pub struct SlowdownSummary {
    /// Equal-message-count bins in ascending size order.
    pub bins: Vec<SlowdownBin>,
    /// Overall p99 slowdown.
    pub overall_p99: f64,
    /// Overall median slowdown.
    pub overall_p50: f64,
}

/// One size-ordered pass over `records`: `(size, slowdown)` pairs sorted
/// by size (stable, so equal sizes keep injection order). Shared by
/// [`SlowdownSummary::from_records`] and
/// [`SlowdownSummary::small_message_p99`] so each computes every
/// slowdown exactly once and sorts by size exactly once.
fn sorted_size_slowdowns(records: &[MsgRecord]) -> Vec<(u64, f64)> {
    let mut v: Vec<(u64, f64)> = records.iter().map(|r| (r.size, r.slowdown())).collect();
    v.sort_by_key(|e| e.0);
    v
}

impl SlowdownSummary {
    /// Summarize `records` into `nbins` equal-count size bins.
    pub fn from_records(records: &[MsgRecord], nbins: usize) -> SlowdownSummary {
        assert!(nbins >= 1);
        let by_size = sorted_size_slowdowns(records);
        let mut bins = Vec::with_capacity(nbins);
        let mut scratch: Vec<f64> = Vec::new();
        if !by_size.is_empty() {
            let per = by_size.len().div_ceil(nbins);
            scratch.reserve(per);
            for chunk in by_size.chunks(per) {
                scratch.clear();
                scratch.extend(chunk.iter().map(|&(_, s)| s));
                scratch.sort_by(|a, b| a.partial_cmp(b).expect("no NaN slowdowns"));
                bins.push(SlowdownBin {
                    min_size: chunk.first().expect("nonempty").0,
                    max_size: chunk.last().expect("nonempty").0,
                    count: chunk.len(),
                    p50: percentile(&scratch, 50.0),
                    p99: percentile(&scratch, 99.0),
                    mean: scratch.iter().sum::<f64>() / scratch.len() as f64,
                });
            }
        }
        let mut all: Vec<f64> = by_size.into_iter().map(|(_, s)| s).collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("no NaN slowdowns"));
        SlowdownSummary {
            bins,
            overall_p99: percentile(&all, 99.0),
            overall_p50: percentile(&all, 50.0),
        }
    }

    /// p99 slowdown restricted to the smallest `frac` of messages (the
    /// paper's "shortest 50% of messages" style statements, and the
    /// Figure 14 short-message selection).
    pub fn small_message_p99(records: &[MsgRecord], frac: f64) -> f64 {
        let by_size = sorted_size_slowdowns(records);
        let take = ((by_size.len() as f64 * frac).ceil() as usize).max(1).min(by_size.len());
        let mut s: Vec<f64> = by_size[..take].iter().map(|&(_, s)| s).collect();
        s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        percentile(&s, 99.0)
    }
}

/// Per-size-bucket slowdown state inside a [`SlowdownSketch`].
#[derive(Debug, Clone)]
struct SizeBucket {
    min_size: u64,
    max_size: u64,
    slowdowns: QuantileSketch,
}

/// Streaming replacement for retaining every [`MsgRecord`]: memory is
/// O(occupied sketch bins), not O(messages), which is what lets a
/// 1k-host run with tens of thousands of messages keep a flat footprint.
///
/// Sizes are hashed into logarithmic buckets (relative width `alpha`)
/// and each bucket carries a [`QuantileSketch`] of slowdowns, so
/// [`summary`](SlowdownSketch::summary) can rebuild the paper's
/// equal-message-count size bins after the fact by walking buckets in
/// ascending size order. Quantiles carry the sketch's `alpha` relative
/// error; bin *edges* land on size-bucket boundaries, so each bin holds
/// its target message count only to within one bucket's population.
/// Counts, means, and size extrema are exact.
#[derive(Debug, Clone)]
pub struct SlowdownSketch {
    alpha: f64,
    ln_gamma: f64,
    by_size: std::collections::BTreeMap<i32, SizeBucket>,
    overall: QuantileSketch,
}

impl SlowdownSketch {
    /// A sketch with relative quantile error at most `alpha`.
    pub fn new(alpha: f64) -> SlowdownSketch {
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        SlowdownSketch {
            alpha,
            ln_gamma: gamma.ln(),
            by_size: Default::default(),
            overall: QuantileSketch::new(alpha),
        }
    }

    fn size_key(&self, size: u64) -> i32 {
        if size <= 1 {
            0
        } else {
            ((size as f64).ln() / self.ln_gamma).ceil() as i32
        }
    }

    /// Record one delivered message of `size` bytes with the given
    /// slowdown ratio.
    pub fn push(&mut self, size: u64, slowdown: f64) {
        self.overall.push(slowdown);
        let b = self.by_size.entry(self.size_key(size)).or_insert_with(|| SizeBucket {
            min_size: size,
            max_size: size,
            slowdowns: QuantileSketch::new(self.alpha),
        });
        b.min_size = b.min_size.min(size);
        b.max_size = b.max_size.max(size);
        b.slowdowns.push(slowdown);
    }

    /// Messages recorded so far (exact).
    pub fn count(&self) -> u64 {
        self.overall.count()
    }

    /// Fold another sketch into this one (same `alpha` required).
    pub fn merge(&mut self, other: &SlowdownSketch) {
        self.overall.merge(&other.overall);
        for (&key, ob) in &other.by_size {
            let b = self.by_size.entry(key).or_insert_with(|| SizeBucket {
                min_size: ob.min_size,
                max_size: ob.max_size,
                slowdowns: QuantileSketch::new(self.alpha),
            });
            b.min_size = b.min_size.min(ob.min_size);
            b.max_size = b.max_size.max(ob.max_size);
            b.slowdowns.merge(&ob.slowdowns);
        }
    }

    /// Rebuild the equal-count size-bin summary from the sketch.
    pub fn summary(&self, nbins: usize) -> SlowdownSummary {
        assert!(nbins >= 1);
        let total = self.count();
        let mut bins = Vec::new();
        if total > 0 {
            let per = total.div_ceil(nbins as u64);
            let mut cur: Option<SizeBucket> = None;
            for b in self.by_size.values() {
                match &mut cur {
                    None => cur = Some(b.clone()),
                    Some(c) => {
                        c.min_size = c.min_size.min(b.min_size);
                        c.max_size = c.max_size.max(b.max_size);
                        c.slowdowns.merge(&b.slowdowns);
                    }
                }
                let filled = cur.as_ref().expect("just set").slowdowns.count() >= per;
                if filled {
                    bins.push(Self::finish_bin(cur.take().expect("nonempty")));
                }
            }
            if let Some(c) = cur {
                bins.push(Self::finish_bin(c));
            }
        }
        SlowdownSummary {
            bins,
            overall_p99: self.overall.percentile(99.0),
            overall_p50: self.overall.percentile(50.0),
        }
    }

    fn finish_bin(b: SizeBucket) -> SlowdownBin {
        SlowdownBin {
            min_size: b.min_size,
            max_size: b.max_size,
            count: b.slowdowns.count() as usize,
            p50: b.slowdowns.percentile(50.0),
            p99: b.slowdowns.percentile(99.0),
            mean: b.slowdowns.mean(),
        }
    }

    /// p99 slowdown over (approximately) the smallest `frac` of
    /// messages; the cut lands on a size-bucket boundary.
    pub fn small_p99(&self, frac: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let want = ((total as f64 * frac).ceil() as u64).max(1);
        let mut merged: Option<QuantileSketch> = None;
        for b in self.by_size.values() {
            match &mut merged {
                None => merged = Some(b.slowdowns.clone()),
                Some(m) => m.merge(&b.slowdowns),
            }
            if merged.as_ref().expect("just set").count() >= want {
                break;
            }
        }
        merged.map(|m| m.percentile(99.0)).unwrap_or(0.0)
    }
}

impl Default for SlowdownSketch {
    /// 1% relative quantile error — well inside the repro-gate
    /// tolerances used by `repro compare`.
    fn default() -> Self {
        SlowdownSketch::new(0.01)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(size: u64, lat: u64, unloaded: u64) -> MsgRecord {
        MsgRecord {
            size,
            injected_ns: 1_000,
            completed_ns: 1_000 + lat,
            unloaded_ns: unloaded,
            delay: DelayBreakdown::default(),
        }
    }

    #[test]
    fn slowdown_ratio() {
        let r = rec(100, 4_000, 2_000);
        assert!((r.slowdown() - 2.0).abs() < 1e-12);
        assert_eq!(r.latency_ns(), 4_000);
    }

    #[test]
    fn bins_are_equal_count_and_size_ordered() {
        let records: Vec<MsgRecord> = (1..=100).map(|i| rec(i * 10, 1_000 * i, 1_000)).collect();
        let s = SlowdownSummary::from_records(&records, 10);
        assert_eq!(s.bins.len(), 10);
        for b in &s.bins {
            assert_eq!(b.count, 10);
        }
        // Bins ascend in size and (here) in slowdown.
        for w in s.bins.windows(2) {
            assert!(w[0].max_size <= w[1].min_size);
            assert!(w[0].p50 < w[1].p50);
        }
    }

    #[test]
    fn overall_percentiles() {
        let records: Vec<MsgRecord> = (1..=1000).map(|i| rec(50, i, 1)).collect();
        let s = SlowdownSummary::from_records(&records, 4);
        assert!((s.overall_p50 - 500.5).abs() < 1.0);
        assert!(s.overall_p99 > 985.0 && s.overall_p99 <= 1000.0);
    }

    #[test]
    fn small_message_p99_uses_smallest() {
        let mut records: Vec<MsgRecord> = (0..50).map(|_| rec(10, 100, 100)).collect();
        records.extend((0..50).map(|_| rec(1_000_000, 100_000, 100)));
        let small = SlowdownSummary::small_message_p99(&records, 0.5);
        assert!((small - 1.0).abs() < 1e-9, "small messages all slowdown 1, got {small}");
    }

    #[test]
    fn empty_records_do_not_panic() {
        let s = SlowdownSummary::from_records(&[], 10);
        assert!(s.bins.is_empty());
        assert_eq!(s.overall_p99, 0.0);
    }

    /// Pins the exact percentile outputs of the shared single-sort path,
    /// so any future refactor of `from_records`/`small_message_p99` that
    /// shifts interpolation or bin boundaries trips here.
    #[test]
    fn summary_percentiles_are_pinned() {
        // Slowdown of record i is exactly i (i = 1..=100); sizes ascend
        // with i so size bins are slowdown bins.
        let records: Vec<MsgRecord> = (1..=100).map(|i| rec(i * 10, 1_000 * i, 1_000)).collect();
        let s = SlowdownSummary::from_records(&records, 10);
        // Bin 0 holds slowdowns 1..=10: linear-interpolated nearest ranks.
        assert!((s.bins[0].p50 - 5.5).abs() < 1e-9);
        assert!((s.bins[0].p99 - 9.91).abs() < 1e-9);
        assert!((s.bins[0].mean - 5.5).abs() < 1e-9);
        // Overall: slowdowns 1..=100.
        assert!((s.overall_p50 - 50.5).abs() < 1e-9);
        assert!((s.overall_p99 - 99.01).abs() < 1e-9);
        // Smallest 20%: slowdowns 1..=20.
        let small = SlowdownSummary::small_message_p99(&records, 0.2);
        assert!((small - 19.81).abs() < 1e-9, "got {small}");
    }

    #[test]
    fn sketch_tracks_exact_summary_within_alpha() {
        let records: Vec<MsgRecord> =
            (1..=2000).map(|i| rec(i * 7 % 9_000 + 1, 900 + (i * 37) % 4_000, 1_000)).collect();
        let exact = SlowdownSummary::from_records(&records, 10);
        let mut sk = SlowdownSketch::default();
        for r in &records {
            sk.push(r.size, r.slowdown());
        }
        assert_eq!(sk.count(), 2000);
        let approx = sk.summary(10);
        let rel = |a: f64, b: f64| (a - b).abs() / b.max(1e-12);
        // Overall quantiles carry only the sketch's alpha error.
        assert!(rel(approx.overall_p50, exact.overall_p50) < 0.011);
        assert!(rel(approx.overall_p99, exact.overall_p99) < 0.011);
        // Binned views also agree coarsely despite bucket-edge binning.
        assert!(!approx.bins.is_empty() && approx.bins.len() <= 11);
        let count: usize = approx.bins.iter().map(|b| b.count).sum();
        assert_eq!(count, 2000, "sketch bins must partition all messages");
        let small_exact = SlowdownSummary::small_message_p99(&records, 0.5);
        let small_approx = sk.small_p99(0.5);
        assert!(
            rel(small_approx, small_exact) < 0.15,
            "small p99: sketch {small_approx} vs exact {small_exact}"
        );
    }

    #[test]
    fn sketch_merge_matches_single_stream() {
        let mut a = SlowdownSketch::default();
        let mut b = SlowdownSketch::default();
        let mut whole = SlowdownSketch::default();
        for i in 1..=500u64 {
            let (size, slow) = (i * 13 % 2_000 + 1, 1.0 + (i % 90) as f64 / 10.0);
            whole.push(size, slow);
            if i % 2 == 0 {
                a.push(size, slow)
            } else {
                b.push(size, slow)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        let (sa, sw) = (a.summary(10), whole.summary(10));
        assert_eq!(sa.overall_p99, sw.overall_p99);
        assert_eq!(sa.bins.len(), sw.bins.len());
    }
}
