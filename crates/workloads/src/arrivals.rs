//! Open-loop Poisson arrivals and load arithmetic.
//!
//! The paper's simulations create messages at senders "according to a
//! Poisson process", with the rate selected to produce a target *network
//! load*: the fraction of available network bandwidth consumed by goodput
//! packets, including protocol headers and the minimum control overhead
//! (§5.2). [`LoadPlan`] performs that conversion; [`PoissonArrivals`]
//! yields `(time, size, src, dst)` tuples for the drivers.

use crate::dist::MessageSizeDist;
use crate::traffic::{TrafficMatrix, VictimSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Converts a target network load into a per-sender message arrival rate.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Number of hosts generating traffic.
    pub hosts: u32,
    /// Capacity of one host link in bits per second.
    pub host_link_bps: u64,
    /// Target load as a fraction of aggregate host-link bandwidth (0..1).
    pub load: f64,
    /// Mean message size in application bytes.
    pub mean_msg_bytes: f64,
    /// Per-message protocol overhead in wire bytes (headers for all its
    /// packets plus amortized control packets).
    pub mean_overhead_bytes: f64,
}

impl LoadPlan {
    /// Mean wire bytes consumed per message.
    pub fn mean_wire_bytes(&self) -> f64 {
        self.mean_msg_bytes + self.mean_overhead_bytes
    }

    /// Aggregate message arrival rate (messages per second) across all
    /// hosts that produces the target load.
    pub fn aggregate_rate(&self) -> f64 {
        let capacity_bytes_per_sec = self.hosts as f64 * self.host_link_bps as f64 / 8.0;
        self.load * capacity_bytes_per_sec / self.mean_wire_bytes()
    }

    /// Mean interarrival time between messages fabric-wide, in seconds.
    pub fn mean_interarrival_secs(&self) -> f64 {
        1.0 / self.aggregate_rate()
    }

    /// Estimate per-message protocol overhead for a transport that segments
    /// into `payload`-byte packets with `header` bytes of framing each, and
    /// sends roughly one `ctrl`-byte control packet per data packet beyond
    /// the blind `unsched` prefix.
    pub fn estimate_overhead(
        dist: &MessageSizeDist,
        payload: u64,
        header: u64,
        ctrl: u64,
        unsched: u64,
    ) -> f64 {
        // Numerical expectation over the quantile grid.
        let n = 10_000;
        let mut total = 0.0;
        for i in 0..n {
            let p = (i as f64 + 0.5) / n as f64;
            let s = dist.quantile(p);
            let pkts = s.div_ceil(payload).max(1);
            let sched_bytes = s.saturating_sub(unsched);
            let grants = sched_bytes.div_ceil(payload);
            total += (pkts * header + grants * ctrl) as f64;
        }
        total / n as f64
    }
}

/// An open-loop Poisson arrival generator over a fixed host population.
///
/// By default senders and receivers are drawn uniformly at random
/// (receiver != sender), matching the paper's all-to-all communication
/// pattern; [`with_matrix`](Self::with_matrix) swaps in any
/// [`TrafficMatrix`] pattern, [`with_mix`](Self::with_mix) makes the
/// size distribution bimodal, and [`with_victim`](Self::with_victim)
/// overlays a periodic victim flow. The unadorned generator is
/// draw-for-draw identical to its historical behavior, so existing seeds
/// replay unchanged.
#[derive(Debug)]
pub struct PoissonArrivals {
    rng: StdRng,
    dist: MessageSizeDist,
    matrix: TrafficMatrix,
    /// Second size mode: `frac` of messages sample from this
    /// distribution instead of `dist`.
    mix: Option<(MessageSizeDist, f64)>,
    victim: Option<VictimSpec>,
    victim_next_ns: u64,
    /// Mean interarrival in nanoseconds (fabric-wide).
    mean_gap_ns: f64,
    next_ns: u64,
}

/// One generated message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time in nanoseconds.
    pub at_ns: u64,
    /// Sending host index.
    pub src: u32,
    /// Receiving host index (never equal to `src`).
    pub dst: u32,
    /// Message size in bytes.
    pub size: u64,
    /// True when this arrival belongs to the victim-flow overlay rather
    /// than the main pattern.
    pub victim: bool,
}

impl PoissonArrivals {
    /// New generator: fabric-wide mean interarrival `mean_gap_secs`,
    /// message sizes from `dist`, uniform src/dst over `hosts`.
    pub fn new(seed: u64, dist: MessageSizeDist, hosts: u32, mean_gap_secs: f64) -> Self {
        assert!(hosts >= 2);
        assert!(mean_gap_secs > 0.0);
        let mut gen = PoissonArrivals {
            rng: StdRng::seed_from_u64(seed),
            dist,
            matrix: TrafficMatrix::uniform(hosts),
            mix: None,
            victim: None,
            victim_next_ns: 0,
            mean_gap_ns: mean_gap_secs * 1e9,
            next_ns: 0,
        };
        gen.next_ns = gen.sample_gap();
        gen
    }

    /// Replace the uniform pattern with `matrix` (built over the same
    /// host population).
    pub fn with_matrix(mut self, matrix: TrafficMatrix) -> Self {
        self.matrix = matrix;
        self
    }

    /// Sample `frac` of message sizes from `second` instead of the
    /// primary distribution (a bimodal workload mix).
    pub fn with_mix(mut self, second: MessageSizeDist, frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac));
        self.mix = Some((second, frac));
        self
    }

    /// Overlay a periodic victim flow; its arrivals interleave with the
    /// main pattern in time order and carry `victim: true`.
    pub fn with_victim(mut self, victim: VictimSpec) -> Self {
        self.victim_next_ns = victim.period_ns;
        self.victim = Some(victim);
        self
    }

    fn sample_gap(&mut self) -> u64 {
        // Exponential via inverse transform; bounded away from 0 to keep
        // u64 math safe.
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        (-u.ln() * self.mean_gap_ns).round().max(1.0) as u64
    }

    /// Generate the next arrival (victim overlay and main pattern merged
    /// in time order; the victim wins ties so its cadence never slips).
    pub fn next_arrival(&mut self) -> Arrival {
        if let Some(v) = self.victim {
            if self.victim_next_ns <= self.next_ns {
                let at_ns = self.victim_next_ns;
                self.victim_next_ns += v.period_ns;
                return Arrival { at_ns, src: v.src, dst: v.dst, size: v.size, victim: true };
            }
        }
        let at_ns = self.next_ns;
        self.next_ns += self.sample_gap();
        let (src, dst) = self.matrix.draw(&mut self.rng);
        let size = match &self.mix {
            Some((second, frac)) if self.rng.gen::<f64>() < *frac => second.sample(&mut self.rng),
            _ => self.dist.sample(&mut self.rng),
        };
        Arrival { at_ns, src, dst, size, victim: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn load_plan_rate_math() {
        let plan = LoadPlan {
            hosts: 10,
            host_link_bps: 10_000_000_000,
            load: 0.8,
            mean_msg_bytes: 10_000.0,
            mean_overhead_bytes: 0.0,
        };
        // 10 hosts x 1.25 GB/s x 0.8 / 10 KB = 1M messages/sec.
        let rate = plan.aggregate_rate();
        assert!((rate - 1_000_000.0).abs() / 1_000_000.0 < 1e-9);
        assert!((plan.mean_interarrival_secs() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn arrivals_have_expected_rate() {
        let dist = MessageSizeDist::fixed(1000);
        let mut gen = PoissonArrivals::new(42, dist, 4, 1e-6);
        let mut count = 0u64;
        loop {
            let a = gen.next_arrival();
            if a.at_ns > 1_000_000_000 {
                break;
            }
            count += 1;
        }
        // ~1M arrivals in a simulated second, within 1%.
        assert!((count as f64 - 1e6).abs() / 1e6 < 0.01, "count={count}");
    }

    #[test]
    fn arrivals_never_self_addressed() {
        let dist = Workload::W1.dist();
        let mut gen = PoissonArrivals::new(7, dist, 3, 1e-6);
        for _ in 0..10_000 {
            let a = gen.next_arrival();
            assert_ne!(a.src, a.dst);
            assert!(a.src < 3 && a.dst < 3);
            assert!(a.size >= 1);
        }
    }

    #[test]
    fn arrivals_deterministic_per_seed() {
        let run = |seed| {
            let mut g = PoissonArrivals::new(seed, Workload::W2.dist(), 8, 1e-6);
            (0..100).map(|_| g.next_arrival()).collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn arrival_times_strictly_increase() {
        let mut g = PoissonArrivals::new(9, Workload::W3.dist(), 8, 1e-7);
        let mut prev = 0;
        for _ in 0..10_000 {
            let a = g.next_arrival();
            assert!(a.at_ns > prev);
            prev = a.at_ns;
        }
    }

    #[test]
    fn matrix_composition_redirects_endpoints() {
        use crate::traffic::TrafficMatrix;
        let mut g = PoissonArrivals::new(11, MessageSizeDist::fixed(500), 8, 1e-6)
            .with_matrix(TrafficMatrix::incast(4, 8));
        let mut prev = 0u64;
        for _ in 0..200 {
            let a = g.next_arrival();
            assert!(a.at_ns > prev);
            prev = a.at_ns;
            assert_eq!(a.dst, 0);
            assert!((1..=4).contains(&a.src));
            assert!((500..=501).contains(&a.size), "size {}", a.size);
            assert!(!a.victim);
        }
    }

    #[test]
    fn victim_overlay_interleaves_in_time_order() {
        use crate::traffic::VictimSpec;
        let mut g = PoissonArrivals::new(5, Workload::W1.dist(), 8, 1e-6)
            .with_victim(VictimSpec::new(7, 0, 2_000, 10_000));
        let mut prev = 0u64;
        let mut victims = 0u64;
        let mut last_victim_at = 0u64;
        for _ in 0..5_000 {
            let a = g.next_arrival();
            assert!(a.at_ns >= prev, "arrivals out of order");
            prev = a.at_ns;
            if a.victim {
                victims += 1;
                assert_eq!((a.src, a.dst, a.size), (7, 0, 2_000));
                assert_eq!(a.at_ns, last_victim_at + 10_000, "victim cadence slipped");
                last_victim_at = a.at_ns;
            }
        }
        assert!(victims > 100, "victim overlay starved: {victims}");
    }

    #[test]
    fn bimodal_mix_samples_both_modes() {
        let small = MessageSizeDist::fixed(10);
        let mut g = PoissonArrivals::new(3, MessageSizeDist::fixed(1_000_000), 4, 1e-6)
            .with_mix(small, 0.3);
        let (mut a, mut b) = (0u64, 0u64);
        for _ in 0..5_000 {
            let size = g.next_arrival().size;
            if size <= 100 {
                a += 1;
            } else {
                b += 1;
            }
        }
        let frac = a as f64 / (a + b) as f64;
        assert!((0.25..0.35).contains(&frac), "mix fraction {frac}");
    }

    #[test]
    fn overhead_estimate_reasonable() {
        let d = Workload::W4.dist();
        let oh = LoadPlan::estimate_overhead(&d, 1400, 60, 40, 9700);
        // W4 mean is ~ tens of KB; overhead should be a few percent of it.
        let mean = d.mean();
        assert!(oh > 0.0 && oh < mean * 0.2, "oh={oh} mean={mean}");
    }
}
