//! Maximum sustainable load search (Figure 15).
//!
//! The paper defines a protocol's capacity as the highest offered load at
//! which queues do not grow without bound ("the load generator runs
//! open-loop, so if the offered load exceeds the protocol's capacity,
//! queues grow without bound"). We probe this with a bisection: a load is
//! *sustainable* if, within a bounded drain budget after the last
//! injection, (almost) every message completes.

/// Outcome of one probe.
#[derive(Debug, Clone, Copy)]
pub struct CapacityProbe {
    /// Offered load probed.
    pub load: f64,
    /// Fraction of injected messages delivered within the budget.
    pub delivered_frac: f64,
    /// Whether the load counted as sustainable.
    pub sustainable: bool,
}

/// Lower bracket: if this load is not sustainable the capacity is 0.0.
const LO: f64 = 0.5;
/// Upper bracket: if this load *is* sustainable it is the capacity,
/// without bisecting further.
const HI: f64 = 0.98;
/// The bisection stops once the bracket is narrower than this.
const TOL: f64 = 0.03;

/// Bisect for the maximum sustainable load given a probe function that
/// maps an offered load to the delivered fraction of a bounded run.
/// A probe counts as sustainable at 99.5% completion. Returns the
/// highest sustainable load found (within 0.03 of the true one, between
/// 0.5 and 0.98) and the probe history.
pub fn max_sustainable_load(mut probe: impl FnMut(f64) -> f64) -> (f64, Vec<CapacityProbe>) {
    let mut probes = Vec::new();
    let mut check = |load: f64| -> bool {
        let frac = probe(load);
        // 99.5% completion within the drain budget counts as keeping up.
        let ok = frac >= 0.995;
        probes.push(CapacityProbe { load, delivered_frac: frac, sustainable: ok });
        ok
    };

    let (mut lo, mut hi) = (LO, HI);
    // Establish brackets.
    if !check(lo) {
        return (0.0, probes);
    }
    if check(hi) {
        return (hi, probes);
    }
    while hi - lo > TOL {
        let mid = (lo + hi) / 2.0;
        if check(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, probes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::OnewayOpts;
    use crate::scenario::{FabricSpec, ScenarioSpec};
    use homa::HomaConfig;
    use homa_baselines::HomaSimTransport;
    use homa_workloads::Workload;

    #[test]
    fn homa_sustains_moderate_load_on_small_cluster() {
        let spec = ScenarioSpec::new(
            "cap_w1_8h",
            FabricSpec::SingleSwitch { hosts: 8 },
            Workload::W1,
            0.0, // overridden per probe
            400,
            11,
        );
        let (cap, probes) = max_sustainable_load(|load| {
            let make = |h| HomaSimTransport::new(h, HomaConfig::default());
            let res = spec.clone().with_load(load).run_oneway(None, make, &OnewayOpts::default());
            res.delivered as f64 / res.injected.max(1) as f64
        });
        assert!(cap >= 0.5, "homa must sustain 50% on W1, probes: {probes:?}");
        assert!(!probes.is_empty());
    }

    #[test]
    fn bisection_brackets_behave() {
        // Unsustainable at the low bracket → capacity 0.
        let (cap, probes) = max_sustainable_load(|_| 0.5);
        assert_eq!(cap, 0.0);
        assert_eq!(probes.len(), 1);
        // Sustainable at the high bracket → returned directly.
        let (cap, probes) = max_sustainable_load(|_| 1.0);
        assert_eq!(cap, 0.98);
        assert_eq!(probes.len(), 2);
        // A sharp cliff at 0.8 is localized to within the tolerance.
        let (cap, _) = max_sustainable_load(|load| if load <= 0.8 { 1.0 } else { 0.9 });
        assert!(cap <= 0.8 && 0.8 - cap < TOL, "cliff at 0.8, found {cap}");
    }
}
