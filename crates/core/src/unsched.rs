//! Unscheduled priority allocation (§3.4, Figure 4).
//!
//! The 8 network priority levels are split between unscheduled (blind)
//! and scheduled (granted) packets, and message-size cutoffs are placed
//! between the unscheduled levels:
//!
//! 1. Measure the fraction of incoming bytes that arrive unscheduled
//!    (`min(size, RTTbytes)` of every message).
//! 2. Reserve that fraction of the priority levels — the *highest* ones —
//!    for unscheduled packets (at least one, at most `P-1` so one
//!    scheduled level always exists).
//! 3. Choose size cutoffs between the unscheduled levels so each level
//!    carries the same number of unscheduled bytes, with smaller messages
//!    on higher levels.
//!
//! [`TrafficTracker`] runs the algorithm over a message-size histogram,
//! and [`PriorityMap`] is what it produces. The map is configured, as in
//! the paper's implementation, whose cutoffs were "precomputed based on
//! knowledge of the benchmark workload" (§4): a run feeds the tracker the
//! workload's size distribution once and installs the map at every
//! endpoint, which uses it both to grant and to send. Cutoffs are not
//! measured while a run goes, and no packet carries them.

use crate::config::HomaConfig;

/// A complete priority allocation: the levels and cutoffs an endpoint
/// grants with and sends with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PriorityMap {
    /// Total priority levels (`P`).
    pub num_priorities: u8,
    /// Levels reserved for unscheduled packets (the top `unsched_levels`).
    pub unsched_levels: u8,
    /// Ascending size boundaries between unscheduled levels
    /// (`unsched_levels - 1` entries). A message of `len <= cutoffs[0]`
    /// uses the top level; `len <= cutoffs[i]` uses level `P-1-i`; larger
    /// than all cutoffs uses the lowest unscheduled level.
    pub cutoffs: Vec<u64>,
}

impl PriorityMap {
    /// Number of scheduled levels (`P - unsched`, at least 1 unless P==1).
    pub fn sched_levels(&self) -> u8 {
        if self.num_priorities == 1 {
            1
        } else {
            self.num_priorities - self.unsched_levels
        }
    }

    /// The priority level for an *unscheduled* packet of a message of
    /// `len` bytes: smallest messages get the highest level.
    pub fn unsched_prio(&self, len: u64) -> u8 {
        let top = self.num_priorities - 1;
        for (i, &c) in self.cutoffs.iter().enumerate() {
            if len <= c {
                return top - i as u8;
            }
        }
        top - self.cutoffs.len() as u8
    }

    /// The priority level for a *scheduled* packet given the rank the
    /// receiver assigned (`0` = lowest scheduled level). Clamped into the
    /// scheduled band.
    pub fn sched_prio(&self, rank: u8) -> u8 {
        rank.min(self.sched_levels() - 1)
    }

    /// Highest scheduled level index.
    pub fn max_sched_prio(&self) -> u8 {
        self.sched_levels() - 1
    }
}

/// Evenly log-spaced fallback cutoffs below `limit`, for a tracker that
/// has seen no unscheduled bytes.
fn default_cutoffs(unsched_levels: u8, limit: u64) -> Vec<u64> {
    let n = unsched_levels.saturating_sub(1) as usize;
    if n == 0 {
        return Vec::new();
    }
    let lo = 64f64.ln();
    let hi = (limit.max(128) as f64).ln();
    (1..=n).map(|i| (lo + (hi - lo) * i as f64 / (n + 1) as f64).exp().round() as u64).collect()
}

/// The traffic mix a [`PriorityMap`] is derived from.
///
/// Maintains a log-bucketed histogram of message sizes weighted by
/// unscheduled and total bytes. `recompute` implements the Figure 4
/// algorithm against the histogram.
#[derive(Debug, Clone)]
pub struct TrafficTracker {
    /// log2-spaced buckets: bucket `i` covers sizes `[2^(i/4), 2^((i+1)/4))`
    /// — quarter-decades give ~3% size resolution, plenty for cutoffs.
    unsched_bytes: Vec<f64>,
    total_unsched: f64,
    total_bytes: f64,
}

const BUCKETS: usize = 128; // covers sizes up to 2^32 at 4 buckets/octave

fn bucket_of(size: u64) -> usize {
    let s = size.max(1) as f64;
    ((s.log2() * 4.0) as usize).min(BUCKETS - 1)
}

fn bucket_upper(i: usize) -> u64 {
    2f64.powf((i + 1) as f64 / 4.0).ceil() as u64
}

impl TrafficTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        TrafficTracker { unsched_bytes: vec![0.0; BUCKETS], total_unsched: 0.0, total_bytes: 0.0 }
    }

    /// Record an incoming message of `len` bytes under blind-prefix limit
    /// `unsched_limit`.
    pub fn record(&mut self, len: u64, unsched_limit: u64) {
        let unsched = len.min(unsched_limit) as f64;
        self.unsched_bytes[bucket_of(len)] += unsched;
        self.total_unsched += unsched;
        self.total_bytes += len as f64;
    }

    /// Fraction of observed bytes that were unscheduled; 0 before any
    /// traffic, so an empty tracker reserves one unscheduled level.
    pub fn unsched_fraction(&self) -> f64 {
        if self.total_bytes == 0.0 {
            0.0
        } else {
            self.total_unsched / self.total_bytes
        }
    }

    /// Derive a [`PriorityMap`] per the Figure 4 algorithm, respecting any
    /// overrides in `cfg`. This is the one way a map is built; an empty
    /// tracker's map, one unscheduled level unless `cfg` overrides it, is
    /// what an endpoint uses before a map is installed.
    pub fn recompute(&self, cfg: &HomaConfig) -> PriorityMap {
        let p = cfg.num_priorities;
        if p == 1 {
            return PriorityMap { num_priorities: 1, unsched_levels: 1, cutoffs: vec![] };
        }
        // Step 1-2: split levels by unscheduled byte fraction.
        let unsched_levels = match cfg.unsched_levels_override {
            Some(u) => u.clamp(1, p - 1),
            None => {
                let frac = self.unsched_fraction();
                ((frac * p as f64).round() as u8).clamp(1, p - 1)
            }
        };
        // Step 3: equal-byte cutoffs.
        let cutoffs = match &cfg.cutoff_override {
            Some(c) => {
                let mut c = c.clone();
                c.truncate(unsched_levels as usize - 1);
                c
            }
            None => self.equal_byte_cutoffs(unsched_levels, cfg.unsched_limit),
        };
        PriorityMap { num_priorities: p, unsched_levels, cutoffs }
    }

    /// Size boundaries placing `1/levels` of unscheduled bytes in each
    /// unscheduled level; log-spaced below `unsched_limit` if no
    /// unscheduled bytes were seen.
    fn equal_byte_cutoffs(&self, levels: u8, unsched_limit: u64) -> Vec<u64> {
        let n = levels.saturating_sub(1) as usize;
        if n == 0 || self.total_unsched == 0.0 {
            return default_cutoffs(levels, unsched_limit);
        }
        let mut cutoffs = Vec::with_capacity(n);
        let mut acc = 0.0;
        let mut next_target = 1;
        for (i, &b) in self.unsched_bytes.iter().enumerate() {
            acc += b;
            while next_target <= n && acc >= self.total_unsched * next_target as f64 / levels as f64
            {
                cutoffs.push(bucket_upper(i));
                next_target += 1;
            }
            if next_target > n {
                break;
            }
        }
        while cutoffs.len() < n {
            let last = cutoffs.last().copied().unwrap_or(64);
            cutoffs.push(last * 2);
        }
        // Strictly ascending.
        for i in 1..cutoffs.len() {
            if cutoffs[i] <= cutoffs[i - 1] {
                cutoffs[i] = cutoffs[i - 1] + 1;
            }
        }
        cutoffs
    }
}

impl Default for TrafficTracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HomaConfig {
        HomaConfig::default()
    }

    #[test]
    fn default_map_has_one_unsched_level() {
        let m = TrafficTracker::new().recompute(&cfg());
        assert_eq!(m, PriorityMap { num_priorities: 8, unsched_levels: 1, cutoffs: vec![] });
        assert_eq!(m.sched_levels(), 7);
        assert_eq!(m.unsched_prio(1), 7);
        assert_eq!(m.unsched_prio(1_000_000), 7);
    }

    #[test]
    fn unsched_prio_maps_small_to_high() {
        let m =
            PriorityMap { num_priorities: 8, unsched_levels: 4, cutoffs: vec![280, 1_000, 4_000] };
        assert_eq!(m.unsched_prio(100), 7);
        assert_eq!(m.unsched_prio(280), 7);
        assert_eq!(m.unsched_prio(281), 6);
        assert_eq!(m.unsched_prio(1_000), 6);
        assert_eq!(m.unsched_prio(3_000), 5);
        assert_eq!(m.unsched_prio(1_000_000), 4);
        assert_eq!(m.sched_levels(), 4);
        assert_eq!(m.max_sched_prio(), 3);
    }

    #[test]
    fn sched_prio_clamps_to_band() {
        let m =
            PriorityMap { num_priorities: 8, unsched_levels: 6, cutoffs: vec![10, 20, 30, 40, 50] };
        assert_eq!(m.sched_levels(), 2);
        assert_eq!(m.sched_prio(0), 0);
        assert_eq!(m.sched_prio(1), 1);
        assert_eq!(m.sched_prio(9), 1);
    }

    #[test]
    fn tracker_fraction_splits_levels() {
        // All tiny messages: everything unscheduled -> 7 unsched levels
        // (clamped to leave one scheduled).
        let mut t = TrafficTracker::new();
        for _ in 0..1_000 {
            t.record(100, 9_700);
        }
        assert!((t.unsched_fraction() - 1.0).abs() < 1e-9);
        let m = t.recompute(&cfg());
        assert_eq!(m.unsched_levels, 7);
        assert_eq!(m.sched_levels(), 1);

        // All huge messages: unscheduled fraction tiny -> 1 unsched level.
        let mut t = TrafficTracker::new();
        for _ in 0..100 {
            t.record(10_000_000, 9_700);
        }
        assert!(t.unsched_fraction() < 0.01);
        let m = t.recompute(&cfg());
        assert_eq!(m.unsched_levels, 1);
        assert_eq!(m.sched_levels(), 7);
    }

    #[test]
    fn equal_byte_cutoffs_balance_traffic() {
        // Two size classes with equal unscheduled byte volume: the cutoff
        // should separate them.
        let mut t = TrafficTracker::new();
        for _ in 0..10_000 {
            t.record(100, 9_700); // 1e6 unscheduled bytes total
        }
        for _ in 0..100 {
            t.record(10_000, 9_700); // ~0.97e6 unscheduled bytes total
        }
        let cfg = HomaConfig { unsched_levels_override: Some(2), ..HomaConfig::default() };
        let m = t.recompute(&cfg);
        assert_eq!(m.cutoffs.len(), 1);
        let c = m.cutoffs[0];
        assert!((100..10_000).contains(&c), "cutoff {c} should separate the two size classes");
        // Small messages land on the top priority.
        assert_eq!(m.unsched_prio(100), 7);
        assert_eq!(m.unsched_prio(10_000), 6);
    }

    #[test]
    fn cutoff_override_respected() {
        let cfg = HomaConfig {
            unsched_levels_override: Some(2),
            cutoff_override: Some(vec![1_930]),
            ..HomaConfig::default()
        };
        let t = TrafficTracker::new();
        let m = t.recompute(&cfg);
        assert_eq!(m.cutoffs, vec![1_930]);
        assert_eq!(m.unsched_prio(1_930), 7);
        assert_eq!(m.unsched_prio(1_931), 6);
    }

    #[test]
    fn empty_tracker_fallback_cutoffs_stay_below_the_blind_prefix() {
        let cfg = HomaConfig {
            unsched_levels_override: Some(3),
            unsched_limit: 1_000,
            ..HomaConfig::default()
        };
        // Log-spaced between 64 bytes and the limit: 64 · (1000/64)^(i/3).
        assert_eq!(TrafficTracker::new().recompute(&cfg).cutoffs, vec![160, 400]);
    }

    #[test]
    fn single_priority_degenerates() {
        let cfg = HomaConfig { num_priorities: 1, ..HomaConfig::default() };
        let t = TrafficTracker::new();
        let m = t.recompute(&cfg);
        assert_eq!(m.unsched_levels, 1);
        assert_eq!(m.sched_levels(), 1);
        assert_eq!(m.unsched_prio(123), 0);
        assert_eq!(m.sched_prio(3), 0);
    }

    #[test]
    fn w2_like_distribution_produces_figure4_shape() {
        // Figure 4: for W2 about 80% of bytes are unscheduled and Homa
        // allocates 6 of 8 levels to unscheduled packets, with the top
        // level covering roughly sizes 1-280 bytes. Feed the tracker a
        // deterministic quantile sweep of the reconstructed W2.
        let mut t = TrafficTracker::new();
        let w2 = homa_workloads::Workload::W2.dist();
        let n = 4_000;
        for i in 0..n {
            let p = (i as f64 + 0.5) / n as f64;
            t.record(w2.quantile(p), 9_700);
        }
        let m = t.recompute(&cfg());
        assert_eq!(m.unsched_levels, 6, "unsched fraction {}", t.unsched_fraction());
        // Cutoffs ascend and the top level covers the smallest messages
        // (first cutoff in the low hundreds of bytes, Figure 4's ~280).
        assert!(m.cutoffs.windows(2).all(|w| w[0] < w[1]));
        let first = m.cutoffs[0];
        assert!((100..=600).contains(&first), "first cutoff {first}");
    }
}
