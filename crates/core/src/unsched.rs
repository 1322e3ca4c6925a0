//! Unscheduled priority allocation (§3.4, Figure 4).
//!
//! Receivers decide how the 8 network priority levels are split between
//! unscheduled (blind) and scheduled (granted) packets, and where the
//! message-size cutoffs between unscheduled levels fall:
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
//! [`PriorityMap`] is the resulting allocation; [`TrafficTracker`] is the
//! receiver-side measurement machine that produces it (the paper's
//! implementation precomputed the map from workload knowledge; both paths
//! are supported — see `HomaConfig::dynamic_cutoffs`).

use crate::config::HomaConfig;
use crate::packets::CutoffsUpdate;

/// A complete priority allocation for one receiver's downlink.
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
    /// Version for dissemination.
    pub version: u64,
}

impl PriorityMap {
    /// An allocation with a single unscheduled level and `P-1` scheduled
    /// levels — the safe default before any traffic has been observed.
    pub fn default_for(cfg: &HomaConfig) -> Self {
        let p = cfg.num_priorities;
        let unsched = cfg.unsched_levels_override.unwrap_or(1).min(p.max(2) - 1).max(1);
        let unsched = if p == 1 { 1 } else { unsched };
        let cutoffs = match &cfg.cutoff_override {
            Some(c) => {
                assert_eq!(
                    c.len() as u8,
                    unsched - 1,
                    "cutoff_override length must be unsched_levels - 1"
                );
                c.clone()
            }
            None => default_cutoffs(unsched, cfg.unsched_limit),
        };
        PriorityMap { num_priorities: p, unsched_levels: unsched, cutoffs, version: 0 }
    }

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

    /// Serialize for dissemination in GRANT/CUTOFFS packets.
    pub fn to_update(&self) -> CutoffsUpdate {
        CutoffsUpdate {
            version: self.version,
            unsched_levels: self.unsched_levels,
            cutoffs: self.cutoffs.clone(),
        }
    }

    /// Apply a disseminated update (sender side). Returns true if newer.
    pub fn apply_update(&mut self, u: &CutoffsUpdate) -> bool {
        if u.version <= self.version {
            return false;
        }
        self.version = u.version;
        self.unsched_levels = u.unsched_levels.clamp(1, self.num_priorities.max(2) - 1).max(1);
        if self.num_priorities == 1 {
            self.unsched_levels = 1;
        }
        self.cutoffs = u.cutoffs.clone();
        self.cutoffs.truncate(self.unsched_levels as usize - 1);
        true
    }
}

/// Evenly log-spaced fallback cutoffs below `limit` used before any
/// measurement exists.
fn default_cutoffs(unsched_levels: u8, limit: u64) -> Vec<u64> {
    let n = unsched_levels.saturating_sub(1) as usize;
    if n == 0 {
        return Vec::new();
    }
    let lo = 64f64.ln();
    let hi = (limit.max(128) as f64).ln();
    (1..=n).map(|i| (lo + (hi - lo) * i as f64 / (n + 1) as f64).exp().round() as u64).collect()
}

/// Receiver-side traffic measurement that derives a [`PriorityMap`].
///
/// Maintains a log-bucketed histogram of incoming message sizes weighted
/// by unscheduled and total bytes. `recompute` implements the Figure 4
/// algorithm against the histogram.
#[derive(Debug, Clone)]
pub struct TrafficTracker {
    /// log2-spaced buckets: bucket `i` covers sizes `[2^(i/4), 2^((i+1)/4))`
    /// — quarter-decades give ~3% size resolution, plenty for cutoffs.
    unsched_bytes: Vec<f64>,
    total_unsched: f64,
    total_bytes: f64,
    messages_seen: u64,
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
        TrafficTracker {
            unsched_bytes: vec![0.0; BUCKETS],
            total_unsched: 0.0,
            total_bytes: 0.0,
            messages_seen: 0,
        }
    }

    /// Record an incoming message of `len` bytes under blind-prefix limit
    /// `unsched_limit`.
    pub fn record(&mut self, len: u64, unsched_limit: u64) {
        let unsched = len.min(unsched_limit) as f64;
        self.unsched_bytes[bucket_of(len)] += unsched;
        self.total_unsched += unsched;
        self.total_bytes += len as f64;
        self.messages_seen += 1;
    }

    /// Messages recorded so far.
    pub fn messages_seen(&self) -> u64 {
        self.messages_seen
    }

    /// Fraction of observed bytes that were unscheduled.
    pub fn unsched_fraction(&self) -> f64 {
        if self.total_bytes == 0.0 {
            1.0
        } else {
            self.total_unsched / self.total_bytes
        }
    }

    /// Derive a fresh [`PriorityMap`] per the Figure 4 algorithm,
    /// respecting any overrides in `cfg`. `version` should exceed the
    /// previous map's version.
    pub fn recompute(&self, cfg: &HomaConfig, version: u64) -> PriorityMap {
        let p = cfg.num_priorities;
        if p == 1 {
            return PriorityMap { num_priorities: 1, unsched_levels: 1, cutoffs: vec![], version };
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
            None => self.equal_byte_cutoffs(unsched_levels),
        };
        PriorityMap { num_priorities: p, unsched_levels, cutoffs, version }
    }

    /// Size boundaries placing `1/levels` of unscheduled bytes in each
    /// unscheduled level.
    fn equal_byte_cutoffs(&self, levels: u8) -> Vec<u64> {
        let n = levels.saturating_sub(1) as usize;
        if n == 0 || self.total_unsched == 0.0 {
            return default_cutoffs(levels, 10_000);
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
        let m = PriorityMap::default_for(&cfg());
        assert_eq!(m.unsched_levels, 1);
        assert_eq!(m.sched_levels(), 7);
        assert_eq!(m.unsched_prio(1), 7);
        assert_eq!(m.unsched_prio(1_000_000), 7);
    }

    #[test]
    fn unsched_prio_maps_small_to_high() {
        let m = PriorityMap {
            num_priorities: 8,
            unsched_levels: 4,
            cutoffs: vec![280, 1_000, 4_000],
            version: 1,
        };
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
        let m = PriorityMap {
            num_priorities: 8,
            unsched_levels: 6,
            cutoffs: vec![10, 20, 30, 40, 50],
            version: 1,
        };
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
        let m = t.recompute(&cfg(), 1);
        assert_eq!(m.unsched_levels, 7);
        assert_eq!(m.sched_levels(), 1);

        // All huge messages: unscheduled fraction tiny -> 1 unsched level.
        let mut t = TrafficTracker::new();
        for _ in 0..100 {
            t.record(10_000_000, 9_700);
        }
        assert!(t.unsched_fraction() < 0.01);
        let m = t.recompute(&cfg(), 1);
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
        let m = t.recompute(&cfg, 1);
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
        let m = t.recompute(&cfg, 3);
        assert_eq!(m.cutoffs, vec![1_930]);
        assert_eq!(m.unsched_prio(1_930), 7);
        assert_eq!(m.unsched_prio(1_931), 6);
    }

    #[test]
    fn update_round_trip_and_versioning() {
        let mut t = TrafficTracker::new();
        for _ in 0..100 {
            t.record(500, 9_700);
        }
        let m = t.recompute(&cfg(), 5);
        let upd = m.to_update();
        let mut sender_side = PriorityMap::default_for(&cfg());
        assert!(sender_side.apply_update(&upd));
        assert_eq!(sender_side.unsched_levels, m.unsched_levels);
        assert_eq!(sender_side.cutoffs, m.cutoffs);
        // Stale updates ignored.
        let stale = CutoffsUpdate { version: 2, unsched_levels: 1, cutoffs: vec![] };
        assert!(!sender_side.apply_update(&stale));
        assert_eq!(sender_side.version, 5);
    }

    #[test]
    fn single_priority_degenerates() {
        let cfg = HomaConfig { num_priorities: 1, ..HomaConfig::default() };
        let t = TrafficTracker::new();
        let m = t.recompute(&cfg, 1);
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
        let m = t.recompute(&cfg(), 1);
        assert_eq!(m.unsched_levels, 6, "unsched fraction {}", t.unsched_fraction());
        // Cutoffs ascend and the top level covers the smallest messages
        // (first cutoff in the low hundreds of bytes, Figure 4's ~280).
        assert!(m.cutoffs.windows(2).all(|w| w[0] < w[1]));
        let first = m.cutoffs[0];
        assert!((100..=600).contains(&first), "first cutoff {first}");
    }
}
