//! Run statistics: link utilization, queue occupancy, drops.
//!
//! These feed Table 1 (queue lengths per fabric level), Figure 15
//! (bandwidth utilization), and Figure 16 (wasted bandwidth) of the paper.

use crate::time::SimTime;

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

/// Online mean/max accumulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamingStats {
    count: u64,
    sum: f64,
    max: f64,
}

impl StreamingStats {
    /// Record one observation.
    pub fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations (0 if none).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Maximum observation (0 if none).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &StreamingStats) {
        self.count += other.count;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

/// Per-port transmission statistics maintained by the network.
#[derive(Debug, Clone, Default)]
pub struct PortStats {
    /// Total nanoseconds the port spent serializing packets.
    pub busy_ns: u64,
    /// Total wire bytes transmitted.
    pub wire_bytes: u64,
    /// Application-goodput bytes transmitted.
    pub goodput_bytes: u64,
    /// Packets transmitted.
    pub packets: u64,
    /// Wire bytes transmitted per strict-priority level (Figure 21).
    pub bytes_by_prio: [u64; 8],
    /// Packets dropped at this port's queue.
    pub drops: u64,
    /// Packets trimmed at this port's queue (NDP).
    pub trims: u64,
    /// Packets ECN-marked at this port's queue.
    pub ecn_marks: u64,
    /// Time-weighted mean queue length in bytes (filled in at harvest).
    pub mean_queue_bytes: f64,
    /// Maximum instantaneous queue length in bytes.
    pub max_queue_bytes: u64,
}

impl PortStats {
    /// Link utilization over `[0, now]` (busy fraction).
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now.as_nanos() == 0 {
            0.0
        } else {
            self.busy_ns as f64 / now.as_nanos() as f64
        }
    }
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
    /// Per-class aggregation of queue-length statistics: `(class, mean
    /// accumulator over ports' mean bytes, max over ports' max bytes)`.
    pub queue_means: Vec<(PortClass, StreamingStats)>,
    /// Max queue bytes per class.
    pub queue_maxes: Vec<(PortClass, u64)>,
    /// Total drops per class.
    pub drops: Vec<(PortClass, u64)>,
    /// Total trims per class.
    pub trims: Vec<(PortClass, u64)>,
    /// Sum of wire bytes transmitted on host uplinks (offered) and TOR
    /// downlinks (delivered).
    pub host_up_wire_bytes: u64,
    /// Wire bytes delivered on TOR→host downlinks.
    pub tor_down_wire_bytes: u64,
    /// Goodput bytes delivered on TOR→host downlinks.
    pub tor_down_goodput_bytes: u64,
    /// Mean downlink utilization across hosts.
    pub mean_downlink_utilization: f64,
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
        self.queue_means.iter().find(|(c, _)| *c == class).map(|(_, s)| s.mean())
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
/// estimate is within `alpha` of the true value, using O(bins) memory
/// regardless of how many observations are pushed.
///
/// This is what lets the harness hot path drop its retained
/// `Vec<MsgRecord>` (O(messages) heap) for slowdown percentiles:
/// slowdowns span `[1, ~1000]`, which a 1% sketch covers in a few
/// hundred buckets. Non-positive observations are counted in a
/// dedicated zero bucket and reported as 0.
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    alpha: f64,
    /// `ln(gamma)`, cached: bucket key of `v` is `ceil(ln(v)/ln_gamma)`.
    ln_gamma: f64,
    /// Sparse bucket -> count map. BTreeMap keeps iteration (and thus
    /// quantile scans and Debug output) deterministic.
    bins: std::collections::BTreeMap<i32, u64>,
    /// Observations `<= 0` (the log mapping can't represent them).
    zero_count: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new(0.01)
    }
}

impl QuantileSketch {
    /// A sketch whose quantile estimates have relative error at most
    /// `alpha` (e.g. 0.01 for 1%).
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        QuantileSketch {
            alpha,
            ln_gamma: gamma.ln(),
            bins: std::collections::BTreeMap::new(),
            zero_count: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The configured relative-error bound.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

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
            *self.bins.entry(key).or_insert(0) += 1;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of live buckets (the memory footprint, up to the map's
    /// per-node overhead).
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
    /// `alpha` relative error. Returns 0.0 on an empty sketch.
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
        for (&key, &n) in &self.bins {
            seen += n;
            if seen > rank {
                // Bucket k covers (gamma^(k-1), gamma^k]; the midpoint
                // 2*gamma^k/(gamma+1) is within alpha of any member.
                let gamma_k = (key as f64 * self.ln_gamma).exp();
                let gamma = (1.0 + self.alpha) / (1.0 - self.alpha);
                return (2.0 * gamma_k / (gamma + 1.0)).clamp(self.min, self.max);
            }
        }
        self.max()
    }

    /// Merge another sketch into this one. Both must have been built
    /// with the same `alpha`.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            (self.alpha - other.alpha).abs() < 1e-12,
            "cannot merge sketches with different error bounds"
        );
        for (&key, &n) in &other.bins {
            *self.bins.entry(key).or_insert(0) += n;
        }
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
    fn streaming_stats_mean_max() {
        let mut s = StreamingStats::default();
        for v in [1.0, 2.0, 3.0, 10.0] {
            s.push(v);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 4.0).abs() < 1e-12);
        assert_eq!(s.max(), 10.0);
    }

    #[test]
    fn streaming_stats_merge() {
        let mut a = StreamingStats::default();
        a.push(1.0);
        let mut b = StreamingStats::default();
        b.push(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 2.0).abs() < 1e-12);
        assert_eq!(a.max(), 3.0);
    }

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
    fn port_stats_utilization() {
        let s = PortStats { busy_ns: 500, ..Default::default() };
        assert!((s.utilization(SimTime::from_nanos(1000)) - 0.5).abs() < 1e-12);
        assert_eq!(s.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn quantile_sketch_bounded_relative_error() {
        // Uniform, exponential-ish and constant streams: every sketched
        // percentile must be within alpha (plus rank slack) of exact.
        let mut s = QuantileSketch::new(0.01);
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
        let mut all = QuantileSketch::new(0.01);
        let mut a = QuantileSketch::new(0.01);
        let mut b = QuantileSketch::new(0.01);
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
