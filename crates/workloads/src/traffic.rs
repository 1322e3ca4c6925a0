//! Source–destination traffic patterns ([`TrafficMatrix`]) and their
//! declarative descriptions ([`TrafficSpec`]).
//!
//! The paper's simulations draw senders and receivers uniformly at random
//! (§5.2); its incast figure (Figure 10, §3.6) is a closed-loop driver
//! shape that borrows this module's fan-in rotation. Two patterns cover
//! every run:
//!
//! * [`PatternSpec::Uniform`] — the paper's default: src and dst drawn
//!   uniformly at random, dst ≠ src. Byte-compatible with the historical
//!   behavior (same RNG draws in the same order), so existing seeds
//!   replay unchanged.
//! * [`PatternSpec::Incast { fan_in }`] — `fan_in` senders all target
//!   host 0 (round-robin over senders), the §3.6 stress shape.

use crate::workload::Workload;
use homa_sim::Xoshiro256PlusPlus;
use std::convert::Infallible;

/// The source–destination pattern of a traffic scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PatternSpec {
    /// Uniform-random all-to-all (the paper's §5.2 default).
    Uniform,
    /// `fan_in` senders (hosts `1..=fan_in`, round-robin) all send to
    /// host 0.
    Incast {
        /// Number of distinct senders converging on host 0 (capped at
        /// `hosts - 1`).
        fan_in: u32,
    },
}

/// A bimodal workload mix, of which no value can exist: kept for the
/// frozen `benchmark/`, which reads `second` and `frac`; ROADMAP item 10
/// deletes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixSpec {
    /// The second mode's workload.
    pub second: Workload,
    /// Fraction of messages drawn from `second`.
    pub frac: f64,
    never: Infallible,
}

/// Declarative description of a scenario's traffic. The default spec
/// reproduces the historical uniform-random behavior bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// Source–destination pattern.
    pub pattern: PatternSpec,
    /// Always `None`: kept for the frozen `benchmark/`; ROADMAP item 10
    /// deletes it.
    pub victim: Option<Infallible>,
    /// Always `None`: kept for the frozen `benchmark/`; ROADMAP item 10
    /// deletes it.
    pub mix: Option<MixSpec>,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        TrafficSpec { pattern: PatternSpec::Uniform, victim: None, mix: None }
    }
}

impl TrafficSpec {
    /// The historical uniform-random pattern (the default).
    pub fn uniform() -> Self {
        TrafficSpec::default()
    }

    /// An incast of `fan_in` senders onto host 0.
    pub fn incast(fan_in: u32) -> Self {
        assert!(fan_in >= 1, "incast needs at least one sender");
        TrafficSpec { pattern: PatternSpec::Incast { fan_in }, ..TrafficSpec::default() }
    }

    /// Whether this spec is exactly the historical default (uniform),
    /// i.e. replays existing seeds unchanged.
    pub fn is_default(&self) -> bool {
        *self == TrafficSpec::default()
    }

    /// Materialize the pattern for a fabric of `hosts` hosts. The last
    /// two arguments are ignored: kept for the frozen `benchmark/`;
    /// ROADMAP item 10 deletes them.
    pub fn matrix(&self, hosts: u32, _hosts_per_rack: u32, _seed: u64) -> TrafficMatrix {
        match self.pattern {
            PatternSpec::Uniform => TrafficMatrix::uniform(hosts),
            PatternSpec::Incast { fan_in } => TrafficMatrix::incast(fan_in, hosts),
        }
    }

    /// How many host links the pattern actually loads, for converting a
    /// target load fraction into an arrival rate. The uniform pattern
    /// spreads across every host uplink; an incast is bottlenecked by the
    /// single receiver's downlink, so "80% load" means 80% of *that* link.
    pub fn loaded_links(&self, hosts: u32) -> u32 {
        match self.pattern {
            PatternSpec::Incast { .. } => 1,
            PatternSpec::Uniform => hosts,
        }
    }
}

/// A materialized, stateful source–destination generator. Created from a
/// [`TrafficSpec`] (or directly via [`TrafficMatrix::incast`]) and driven
/// by [`draw`](Self::draw) once per message.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    hosts: u32,
    /// `(senders, next)` of an incast; `None` is uniform.
    incast: Option<(u32, u32)>,
}

impl TrafficMatrix {
    /// The uniform-random pattern.
    pub fn uniform(hosts: u32) -> Self {
        assert!(hosts >= 2, "patterns need at least two hosts");
        TrafficMatrix { hosts, incast: None }
    }

    /// An incast of `fan_in` senders onto host 0: successive draws
    /// rotate round-robin over hosts `1..=min(fan_in, hosts-1)`. This is
    /// also the fan-in selector `run_incast` uses for its request
    /// spraying.
    pub fn incast(fan_in: u32, hosts: u32) -> Self {
        assert!(hosts >= 2, "patterns need at least two hosts");
        TrafficMatrix { hosts, incast: Some((fan_in.clamp(1, hosts - 1), 0)) }
    }

    /// Draw the next pair of an incast, which never consumes randomness.
    /// Lets closed-loop drivers like `run_incast` share the pattern
    /// without owning an RNG.
    ///
    /// # Panics
    /// If the pattern is uniform — use [`draw`](Self::draw) for that.
    pub fn draw_rotational(&mut self) -> (u32, u32) {
        let (senders, next) = self.incast.as_mut().expect("uniform pattern needs an RNG; use draw");
        let src = 1 + (*next % *senders);
        *next = next.wrapping_add(1);
        (src, 0)
    }

    /// Draw the next `(src, dst)` pair. An incast advances its rotation;
    /// the uniform pattern makes exactly the two `below` draws the
    /// historical generator made, so default-spec runs replay
    /// bit-for-bit.
    pub fn draw(&mut self, rng: &mut Xoshiro256PlusPlus) -> (u32, u32) {
        match self.incast {
            Some(_) => self.draw_rotational(),
            None => uniform_pair(rng, self.hosts),
        }
    }
}

/// The historical uniform draw: src uniform, dst uniform over the other
/// hosts.
fn uniform_pair(rng: &mut Xoshiro256PlusPlus, hosts: u32) -> (u32, u32) {
    let src = rng.below(hosts);
    let mut dst = rng.below(hosts - 1);
    if dst >= src {
        dst += 1;
    }
    (src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::new(7)
    }

    #[test]
    fn uniform_matches_historical_draws() {
        // The matrix's uniform draw must consume the RNG exactly like the
        // historical inline code, so default-spec runs replay unchanged.
        let mut a = rng();
        let mut b = rng();
        let mut m = TrafficMatrix::uniform(16);
        for _ in 0..1_000 {
            let got = m.draw(&mut a);
            let src = b.below(16);
            let mut dst = b.below(15);
            if dst >= src {
                dst += 1;
            }
            assert_eq!(got, (src, dst));
        }
    }

    #[test]
    fn incast_rotates_over_fan_in_senders() {
        let mut m = TrafficMatrix::incast(3, 10);
        let mut r = rng();
        let pairs: Vec<(u32, u32)> = (0..7).map(|_| m.draw(&mut r)).collect();
        assert_eq!(pairs, vec![(1, 0), (2, 0), (3, 0), (1, 0), (2, 0), (3, 0), (1, 0)]);
    }

    #[test]
    fn incast_fan_in_caps_at_population() {
        let mut m = TrafficMatrix::incast(64, 5);
        let mut r = rng();
        for _ in 0..20 {
            let (src, dst) = m.draw(&mut r);
            assert_eq!(dst, 0);
            assert!((1..5).contains(&src));
        }
    }

    #[test]
    fn loaded_links_normalization() {
        assert_eq!(TrafficSpec::uniform().loaded_links(40), 40);
        assert_eq!(TrafficSpec::incast(20).loaded_links(40), 1);
    }

    #[test]
    fn default_spec_is_default() {
        assert!(TrafficSpec::default().is_default());
        assert!(TrafficSpec::uniform().is_default());
        assert!(!TrafficSpec::incast(4).is_default());
    }
}
