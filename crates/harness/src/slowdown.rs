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

impl SizeBucket {
    /// Fold `other` into this bucket.
    fn merge(&mut self, other: &SizeBucket) {
        self.min_size = self.min_size.min(other.min_size);
        self.max_size = self.max_size.max(other.max_size);
        self.slowdowns.merge(&other.slowdowns);
    }
}

/// Streaming replacement for retaining every [`MsgRecord`]: memory is
/// O(occupied sketch bins), not O(messages), which is what lets a
/// 1k-host run with tens of thousands of messages keep a flat footprint.
///
/// Sizes are hashed into logarithmic buckets (relative width
/// [`QuantileSketch::ALPHA`]) and each bucket carries a [`QuantileSketch`]
/// of slowdowns, so [`summary`](SlowdownSketch::summary) can rebuild the
/// paper's equal-message-count size bins after the fact by walking
/// buckets in ascending size order, and the overall percentiles by
/// merging them all. Quantiles carry the same relative error; bin
/// *edges* land on size-bucket boundaries, so each bin holds its target
/// message count only to within one bucket's population. Counts, means,
/// and size extrema are exact.
///
/// The buckets are one dense vector from the smallest size key seen to
/// the largest: a size key is `ceil(ln(size) / ln(gamma))`, so 1 B to
/// 64 MiB spans about 900 slots, and a delivery costs one index.
#[derive(Debug, Clone)]
pub struct SlowdownSketch {
    /// `ln(gamma)` of the size buckets, cached.
    ln_gamma: f64,
    /// The size key of `by_size[0]`.
    lo_key: i32,
    /// One slot per size key, boxed: a key no message has landed on costs
    /// a null pointer, not a whole bucket.
    by_size: Vec<Option<Box<SizeBucket>>>,
    count: u64,
}

impl SlowdownSketch {
    fn size_key(&self, size: u64) -> i32 {
        if size <= 1 {
            0
        } else {
            ((size as f64).ln() / self.ln_gamma).ceil() as i32
        }
    }

    /// The bucket of size key `key`, growing the vector at either end to
    /// reach it, and starting it at `size` if it is new.
    fn bucket(&mut self, key: i32, size: u64) -> &mut SizeBucket {
        if self.by_size.is_empty() {
            self.lo_key = key;
        } else if key < self.lo_key {
            let grow = (self.lo_key - key) as usize;
            self.by_size.splice(0..0, std::iter::repeat_n(None, grow));
            self.lo_key = key;
        }
        let i = (key - self.lo_key) as usize;
        if i >= self.by_size.len() {
            self.by_size.resize(i + 1, None);
        }
        self.by_size[i].get_or_insert_with(|| {
            let slowdowns = QuantileSketch::default();
            Box::new(SizeBucket { min_size: size, max_size: size, slowdowns })
        })
    }

    /// The occupied buckets in ascending size order.
    fn buckets(&self) -> impl Iterator<Item = &SizeBucket> {
        self.by_size.iter().flatten().map(|b| &**b)
    }

    /// Record one delivered message of `size` bytes with the given
    /// slowdown ratio.
    pub fn push(&mut self, size: u64, slowdown: f64) {
        self.count += 1;
        let b = self.bucket(self.size_key(size), size);
        b.min_size = b.min_size.min(size);
        b.max_size = b.max_size.max(size);
        b.slowdowns.push(slowdown);
    }

    /// Messages recorded so far (exact).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold another sketch into this one.
    pub fn merge(&mut self, other: &SlowdownSketch) {
        self.count += other.count;
        for (i, ob) in other.by_size.iter().enumerate() {
            if let Some(ob) = ob {
                self.bucket(other.lo_key + i as i32, ob.min_size).merge(ob);
            }
        }
    }

    /// Rebuild the equal-count size-bin summary from the sketch.
    pub fn summary(&self, nbins: usize) -> SlowdownSummary {
        assert!(nbins >= 1);
        let total = self.count();
        let mut bins = Vec::new();
        let mut overall = QuantileSketch::default();
        if total > 0 {
            let per = total.div_ceil(nbins as u64);
            let mut cur: Option<SizeBucket> = None;
            for b in self.buckets() {
                overall.merge(&b.slowdowns);
                match &mut cur {
                    None => cur = Some(b.clone()),
                    Some(c) => c.merge(b),
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
            overall_p99: overall.percentile(99.0),
            overall_p50: overall.percentile(50.0),
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
        for b in self.buckets() {
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
    fn default() -> Self {
        SlowdownSketch {
            ln_gamma: QuantileSketch::GAMMA.ln(),
            lo_key: 0,
            by_size: Vec::new(),
            count: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FuzzFamily, SplitMix64};
    use std::collections::BTreeMap;

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

    /// The tree-backed quantile sketch [`QuantileSketch`]'s vector of
    /// buckets replaced, kept as the property's reference.
    #[derive(Clone)]
    struct MapQuantiles {
        bins: BTreeMap<i32, u64>,
        zero_count: u64,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    }

    impl MapQuantiles {
        fn new() -> Self {
            let (min, max) = (f64::INFINITY, f64::NEG_INFINITY);
            MapQuantiles { bins: BTreeMap::new(), zero_count: 0, count: 0, sum: 0.0, min, max }
        }

        fn push(&mut self, v: f64) {
            self.count += 1;
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
            if v <= 0.0 {
                self.zero_count += 1;
            } else {
                let key = (v.ln() / QuantileSketch::GAMMA.ln()).ceil() as i32;
                *self.bins.entry(key).or_insert(0) += 1;
            }
        }

        fn percentile(&self, p: f64) -> f64 {
            if self.count == 0 {
                return 0.0;
            }
            let rank = ((p / 100.0) * (self.count - 1) as f64).round() as u64;
            if rank < self.zero_count {
                return 0.0;
            }
            let mut seen = self.zero_count;
            for (&key, &n) in &self.bins {
                seen += n;
                if seen > rank {
                    let gamma_k = (key as f64 * QuantileSketch::GAMMA.ln()).exp();
                    return (2.0 * gamma_k / (QuantileSketch::GAMMA + 1.0))
                        .clamp(self.min, self.max);
                }
            }
            self.max
        }

        fn mean(&self) -> f64 {
            if self.count == 0 {
                0.0
            } else {
                self.sum / self.count as f64
            }
        }

        fn merge(&mut self, other: &MapQuantiles) {
            for (&key, &n) in &other.bins {
                *self.bins.entry(key).or_insert(0) += n;
            }
            self.zero_count += other.zero_count;
            self.count += other.count;
            self.sum += other.sum;
            if other.count > 0 {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
    }

    /// The tree-backed slowdown sketch, with its separate overall
    /// sketch, that [`SlowdownSketch`] replaced.
    #[derive(Clone)]
    struct MapSlowdowns {
        by_size: BTreeMap<i32, (u64, u64, MapQuantiles)>,
        overall: MapQuantiles,
    }

    impl MapSlowdowns {
        fn new() -> Self {
            MapSlowdowns { by_size: BTreeMap::new(), overall: MapQuantiles::new() }
        }

        fn push(&mut self, size: u64, slowdown: f64) {
            self.overall.push(slowdown);
            let key = match size {
                0 | 1 => 0,
                _ => ((size as f64).ln() / QuantileSketch::GAMMA.ln()).ceil() as i32,
            };
            let b = self.by_size.entry(key).or_insert((size, size, MapQuantiles::new()));
            b.0 = b.0.min(size);
            b.1 = b.1.max(size);
            b.2.push(slowdown);
        }

        fn merge(&mut self, other: &MapSlowdowns) {
            self.overall.merge(&other.overall);
            for (&key, ob) in &other.by_size {
                let b = self.by_size.entry(key).or_insert((ob.0, ob.1, MapQuantiles::new()));
                b.0 = b.0.min(ob.0);
                b.1 = b.1.max(ob.1);
                b.2.merge(&ob.2);
            }
        }

        /// `summary(nbins)` as `(min, max, count, p50, p99, mean)` rows
        /// and the overall p50 and p99, every float as its bits.
        fn summary(&self, nbins: usize) -> (Vec<[u64; 6]>, [u64; 2]) {
            let per = self.overall.count.div_ceil(nbins as u64);
            let row = |b: &(u64, u64, MapQuantiles)| {
                let q = &b.2;
                let bits = [q.percentile(50.0), q.percentile(99.0), q.mean()].map(f64::to_bits);
                [b.0, b.1, q.count, bits[0], bits[1], bits[2]]
            };
            let mut rows = Vec::new();
            let mut cur: Option<(u64, u64, MapQuantiles)> = None;
            for b in self.by_size.values() {
                match &mut cur {
                    None => cur = Some(b.clone()),
                    Some(c) => {
                        c.0 = c.0.min(b.0);
                        c.1 = c.1.max(b.1);
                        c.2.merge(&b.2);
                    }
                }
                if cur.as_ref().expect("just set").2.count >= per {
                    rows.push(row(&cur.take().expect("nonempty")));
                }
            }
            rows.extend(cur.as_ref().map(row));
            let overall = [self.overall.percentile(50.0), self.overall.percentile(99.0)];
            (rows, overall.map(f64::to_bits))
        }

        fn small_p99(&self, frac: f64) -> f64 {
            if self.overall.count == 0 {
                return 0.0;
            }
            let want = ((self.overall.count as f64 * frac).ceil() as u64).max(1);
            let mut merged: Option<MapQuantiles> = None;
            for b in self.by_size.values() {
                match &mut merged {
                    None => merged = Some(b.2.clone()),
                    Some(m) => m.merge(&b.2),
                }
                if merged.as_ref().expect("just set").count >= want {
                    break;
                }
            }
            merged.map(|m| m.percentile(99.0)).unwrap_or(0.0)
        }
    }

    /// A slowdown from one of five regimes: zero, negative, below 1
    /// (negative bucket keys), ordinary, and NDP's wide spread.
    fn draw_slowdown(rng: &mut SplitMix64) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        match rng.below(8) {
            0 => 0.0,
            1 => -10.0 * unit,
            2 => (-5.0 * unit).exp(),
            3..=5 => 1.0 + 19.0 * unit,
            _ => (5_000f64.ln() * unit).exp(),
        }
    }

    /// A size from 0 B to 30 MB, log-uniform, with the ends drawn often.
    fn draw_size(rng: &mut SplitMix64) -> u64 {
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        match rng.below(16) {
            0 => rng.below(3),
            1 => 30_000_000,
            _ => (30e6f64.ln() * unit).exp() as u64,
        }
    }

    fn assert_same_slowdowns(got: &SlowdownSketch, want: &MapSlowdowns) {
        assert_eq!(got.count(), want.overall.count);
        let s = got.summary(10);
        let rows: Vec<[u64; 6]> = s
            .bins
            .iter()
            .map(|b| {
                let bits = [b.p50, b.p99, b.mean].map(f64::to_bits);
                [b.min_size, b.max_size, b.count as u64, bits[0], bits[1], bits[2]]
            })
            .collect();
        let overall = [s.overall_p50, s.overall_p99].map(f64::to_bits);
        assert_eq!((rows, overall), want.summary(10));
        assert_eq!(got.small_p99(0.1).to_bits(), want.small_p99(0.1).to_bits());
    }

    fn assert_same_quantiles(got: &QuantileSketch, want: &MapQuantiles) {
        assert_eq!((got.count(), got.bin_count()), (want.count, want.bins.len()));
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(got.percentile(p).to_bits(), want.percentile(p).to_bits(), "p{p}");
        }
        assert_eq!(got.mean().to_bits(), want.mean().to_bits());
    }

    /// The vector-backed sketches answer every query bit for bit like the
    /// tree-backed ones they replaced, over random streams and merges.
    #[test]
    fn sketches_answer_like_the_maps_they_replaced() {
        const FAMILY: FuzzFamily = FuzzFamily::new("sketches");
        FAMILY.check_seeds("sketches_answer_like_the_maps_they_replaced", |rng| {
            let parts = rng.range(1, 4) as usize;
            let mut sketches = Vec::new();
            for _ in 0..parts {
                let (mut slow, mut slow_ref) = (SlowdownSketch::default(), MapSlowdowns::new());
                let (mut q, mut q_ref) = (QuantileSketch::default(), MapQuantiles::new());
                for _ in 0..rng.edge_range(0, 3_000) {
                    let (size, slowdown) = (draw_size(rng), draw_slowdown(rng));
                    slow.push(size, slowdown);
                    slow_ref.push(size, slowdown);
                    q.push(slowdown);
                    q_ref.push(slowdown);
                }
                assert_same_slowdowns(&slow, &slow_ref);
                assert_same_quantiles(&q, &q_ref);
                sketches.push((slow, slow_ref, q, q_ref));
            }
            let (mut slow, mut slow_ref, mut q, mut q_ref) = sketches.remove(0);
            for (s, s_ref, o, o_ref) in &sketches {
                slow.merge(s);
                slow_ref.merge(s_ref);
                q.merge(o);
                q_ref.merge(o_ref);
                assert_same_slowdowns(&slow, &slow_ref);
                assert_same_quantiles(&q, &q_ref);
            }
        });
    }
}
