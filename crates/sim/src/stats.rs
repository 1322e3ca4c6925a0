//! Run statistics: per-class queue occupancy, drops and trims, delivered
//! bytes, grant credit, and the slowdown sketch.
//!
//! These feed Table 1 (queue lengths per fabric level) and Figure 15 (the
//! goodput share of the bytes delivered at capacity) of the paper.

use crate::queues::LEVELS;

/// Classification of an egress port by its position in the fabric, matching
/// the rows of Table 1 in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortClass {
    /// Host NIC → TOR.
    HostUp,
    /// TOR → spine (the paper's "TOR→Aggr").
    TorUp,
    /// Spine → TOR (the paper's "Aggr→TOR").
    SpineDown,
    /// TOR → host (the paper's "TOR→host", where Homa's queueing
    /// concentrates).
    TorDown,
}

impl PortClass {
    /// Human-readable label matching the paper's Table 1.
    pub fn label(self) -> &'static str {
        match self {
            PortClass::HostUp => "host->TOR",
            PortClass::TorUp => "TOR->Aggr",
            PortClass::SpineDown => "Aggr->TOR",
            PortClass::TorDown => "TOR->host",
        }
    }
}

/// Per-port transmission counters maintained by the network.
#[derive(Debug, Clone, Default)]
pub struct PortStats {
    /// Total wire bytes transmitted.
    pub wire_bytes: u64,
    /// Application-goodput bytes transmitted.
    pub goodput_bytes: u64,
    /// Packets transmitted (the debug conservation check counts the
    /// packets handed to NICs with it).
    pub packets: u64,
    /// Wire bytes transmitted per strict-priority level (Figure 21).
    pub bytes_by_prio: [u64; LEVELS],
}

/// Grant/overcommit credit issued by one receiver transport (or, summed
/// at harvest, by every receiver in a run). Receiver-driven protocols
/// report these through [`crate::Transport::grant_stats`]; the defaults
/// are zero for protocols without grants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GrantStats {
    /// Grant packets put on the wire.
    pub grants_issued: u64,
    /// Total new credit granted, in bytes (the integral of the
    /// overcommitment the receiver extended).
    pub granted_bytes: u64,
    /// Resend (retransmission) requests issued.
    pub resends_requested: u64,
}

impl GrantStats {
    /// Accumulate another receiver's counters into this one.
    pub fn merge(&mut self, other: &GrantStats) {
        self.grants_issued += other.grants_issued;
        self.granted_bytes += other.granted_bytes;
        self.resends_requested += other.resends_requested;
    }
}

/// Aggregate statistics for a finished (or in-progress) run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Mean queue bytes per class: the mean over the class's ports of
    /// each port's time-weighted mean (0 for a class with no port).
    pub queue_means: Vec<(PortClass, f64)>,
    /// Max queue bytes per class.
    pub queue_maxes: Vec<(PortClass, u64)>,
    /// Total drops per class.
    pub drops: Vec<(PortClass, u64)>,
    /// Total trims per class.
    pub trims: Vec<(PortClass, u64)>,
    /// Wire bytes delivered on TOR→host downlinks.
    pub tor_down_wire_bytes: u64,
    /// Goodput bytes delivered on TOR→host downlinks.
    pub tor_down_goodput_bytes: u64,
    /// Total simulator events processed when the stats were harvested
    /// (the numerator of the `perf-smoke` events/sec metric).
    pub events_processed: u64,
    /// Fault events applied from an installed [`crate::FaultPlan`]
    /// (0 when no plan was installed).
    pub faults_applied: u64,
    /// Packets dropped because they were routed to a downed link.
    pub fault_drops: u64,
    /// Packet deliveries deferred by a receiver-pause fault (handed to
    /// the transport on resume).
    pub deferred_deliveries: u64,
    /// Grant/overcommit credit summed over every receiver transport
    /// (zeros for protocols without receiver-driven grants).
    pub grants: GrantStats,
}

impl RunStats {
    /// Mean queue bytes for a class, if any port of that class exists.
    pub fn mean_queue_bytes(&self, class: PortClass) -> Option<f64> {
        self.queue_means.iter().find(|(c, _)| *c == class).map(|&(_, m)| m)
    }

    /// Max queue bytes for a class.
    pub fn max_queue_bytes(&self, class: PortClass) -> Option<u64> {
        self.queue_maxes.iter().find(|(c, _)| *c == class).map(|&(_, m)| m)
    }

    /// Total drops across all classes.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().map(|&(_, d)| d).sum()
    }

    /// Total trims across all classes.
    pub fn total_trims(&self) -> u64 {
        self.trims.iter().map(|&(_, t)| t).sum()
    }
}

/// A mergeable streaming quantile sketch with bounded *relative* error,
/// in the style of DDSketch (Masson et al., VLDB 2019): log-spaced
/// buckets of ratio `gamma = (1+alpha)/(1-alpha)` so any quantile
/// estimate is within [`alpha`](Self::ALPHA) of the true value, using
/// O(bins) memory regardless of how many observations are pushed.
///
/// This is what lets the harness hot path drop its retained
/// `Vec<MsgRecord>` (O(messages) heap) for slowdown percentiles:
/// slowdowns span `[1, ~1000]`, which a 1% sketch covers in a few
/// hundred buckets. Non-positive observations are counted in a
/// dedicated zero bucket and reported as 0.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// `ln(gamma)`, cached: bucket key of `v` is `ceil(ln(v)/ln_gamma)`.
    ln_gamma: f64,
    /// The occupied buckets as `(key, count)`, in ascending key order (so
    /// quantile scans and Debug output are deterministic), found by
    /// binary search: a few hundred keys at most, so an insert moves
    /// little and a lookup touches no node of a tree.
    bins: Vec<(i32, u64)>,
    /// Observations `<= 0` (the log mapping can't represent them).
    zero_count: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch {
            ln_gamma: Self::GAMMA.ln(),
            bins: Vec::new(),
            zero_count: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl QuantileSketch {
    /// The relative-error bound of every quantile estimate: 1 %, well
    /// inside the tolerances `repro compare` gates on.
    pub const ALPHA: f64 = 0.01;
    /// The ratio between consecutive bucket bounds.
    pub const GAMMA: f64 = (1.0 + Self::ALPHA) / (1.0 - Self::ALPHA);

    /// Record one observation.
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        if v <= 0.0 {
            self.zero_count += 1;
        } else {
            let key = (v.ln() / self.ln_gamma).ceil() as i32;
            match self.bins.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(i) => self.bins[i].1 += 1,
                Err(i) => self.bins.insert(i, (key, 1)),
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of live buckets: the memory footprint, 16 bytes each plus
    /// the vector's spare capacity.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// Mean of observations (exact, not sketched; 0 if none).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Minimum observation (exact; 0 if none).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation (exact; 0 if none).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Estimate the `p`-th percentile (`p` in `[0, 100]`), within
    /// [`ALPHA`](Self::ALPHA) relative error. Returns 0.0 on an empty
    /// sketch.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // Same nearest-rank convention as [`percentile`] over a sorted
        // slice: rank in [0, count-1].
        let rank = ((p / 100.0) * (self.count - 1) as f64).round() as u64;
        if rank < self.zero_count {
            return 0.0;
        }
        let mut seen = self.zero_count;
        for &(key, n) in &self.bins {
            seen += n;
            if seen > rank {
                // Bucket k covers (gamma^(k-1), gamma^k]; the midpoint
                // 2*gamma^k/(gamma+1) is within alpha of any member.
                let gamma_k = (key as f64 * self.ln_gamma).exp();
                return (2.0 * gamma_k / (Self::GAMMA + 1.0)).clamp(self.min, self.max);
            }
        }
        self.max()
    }

    /// Merge another sketch into this one.
    pub fn merge(&mut self, other: &QuantileSketch) {
        // Both sides are sorted: append, merge the two runs (a stable
        // sort finds them) and fold equal keys.
        self.bins.extend_from_slice(&other.bins);
        self.bins.sort_by_key(|&(k, _)| k);
        self.bins.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        self.zero_count += other.zero_count;
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }
}

/// Percentile over a *sorted* slice using nearest-rank interpolation.
///
/// `p` in `[0, 100]`. Returns 0.0 on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_basics() {
        let v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert!((percentile(&v, 50.0) - 50.5).abs() < 1e-9);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert!((percentile(&v, 99.0) - 99.01).abs() < 0.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn port_class_labels() {
        assert_eq!(PortClass::TorDown.label(), "TOR->host");
        assert_eq!(PortClass::TorUp.label(), "TOR->Aggr");
    }

    #[test]
    fn quantile_sketch_bounded_relative_error() {
        // Uniform, exponential-ish and constant streams: every sketched
        // percentile must be within alpha (plus rank slack) of exact.
        let mut s = QuantileSketch::default();
        let vals: Vec<f64> = (1..=10_000).map(|i| 1.0 + (i as f64) * 0.37).collect();
        for &v in &vals {
            s.push(v);
        }
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9] {
            let exact = percentile(&sorted, p);
            let est = s.percentile(p);
            let rel = (est - exact).abs() / exact;
            assert!(rel <= 0.011, "p{p}: exact {exact} vs sketch {est} (rel {rel})");
        }
        assert_eq!(s.count(), 10_000);
        assert!((s.mean() - sorted.iter().sum::<f64>() / 10_000.0).abs() < 1e-6);
        assert_eq!(s.min(), sorted[0]);
        assert_eq!(s.max(), sorted[9_999]);
        // O(bins): four orders of magnitude of values fit in few hundred buckets.
        assert!(s.bin_count() < 600, "{} buckets", s.bin_count());
    }

    #[test]
    fn quantile_sketch_merge_matches_single_stream() {
        let mut all = QuantileSketch::default();
        let mut a = QuantileSketch::default();
        let mut b = QuantileSketch::default();
        for i in 1..=1_000 {
            let v = (i as f64).sqrt();
            all.push(v);
            if i % 2 == 0 {
                a.push(v);
            } else {
                b.push(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        for p in [5.0, 50.0, 95.0, 99.0] {
            assert_eq!(a.percentile(p), all.percentile(p), "merge diverged at p{p}");
        }
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn quantile_sketch_edge_cases() {
        let empty = QuantileSketch::default();
        assert_eq!(empty.percentile(50.0), 0.0);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.min(), 0.0);
        assert_eq!(empty.max(), 0.0);

        // Non-positive values land in the zero bucket and report as 0.
        let mut s = QuantileSketch::default();
        s.push(-3.0);
        s.push(0.0);
        s.push(10.0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.percentile(0.0), 0.0);
        let p100 = s.percentile(100.0);
        assert!((p100 - 10.0).abs() / 10.0 <= 0.01, "p100 {p100}");

        // A single value is reported (nearly) exactly at every percentile.
        let mut one = QuantileSketch::default();
        one.push(42.0);
        for p in [0.0, 50.0, 100.0] {
            assert!((one.percentile(p) - 42.0).abs() / 42.0 <= 0.01);
        }
    }
}
