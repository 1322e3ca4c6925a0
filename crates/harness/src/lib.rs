//! # homa-harness — experiment drivers for the paper's evaluation
//!
//! Everything needed to regenerate the tables and figures of §5 of the
//! Homa paper on the `homa-sim` fabric. The single driving surface is
//! the [`ScenarioSpec`]: build one (fabric shape, workload, load, seed,
//! traffic pattern, fault plan, experiment [`Shape`]), then call
//! [`ScenarioSpec::run`] on it — one method for the three arrival shapes
//! (one-way messages, echo RPCs, incast) over one run core, taking
//! [`OnewayOpts`] (six measurement knobs) and returning
//! [`OnewayResult`]. Every run is a pure function of its spec, and every
//! spec serializes to a one-line replay string via
//! [`ScenarioSpec::to_spec_line`].
//!
//! * [`scenario`] — declarative [`ScenarioSpec`]s and their run method;
//!   the vocabulary of the figures, the `perf-smoke` CI gate, the
//!   determinism tests and the fuzz suites.
//! * [`driver`] — the run core behind [`ScenarioSpec::run`] (one event
//!   pump, one drain loop, one result: delivery accounting,
//!   wasted-bandwidth sampling, delay attribution) and the three arrival
//!   shapes that feed it: Poisson one-way messages for the §5.2
//!   simulations, Poisson echo RPCs for the §5.1 implementation
//!   measurements, closed-loop incast rounds for Figure 10.
//! * [`spec_line`] — the canonical `key=value` text encoding of a spec
//!   (`format ∘ parse` identity), so any run — including a shrunk fuzz
//!   failure — is replayable from a pasted line.
//! * [`fuzzing`] — the randomized-testing kit every crate tests with
//!   ([`SplitMix64`], [`FuzzFamily`]: one generator, one loop, one replay
//!   variable), plus seeded scenario generation
//!   ([`ScenarioSpec::arbitrary`]) and deterministic shrinking
//!   ([`fuzzing::shrink_to_minimal`]) for the scenario-level fuzz suites.
//! * [`slowdown`] — per-message records and the paper's slowdown metric:
//!   observed completion time over the best possible time on an unloaded
//!   network, summarized at p50/p99 over size bins that are linear in
//!   message count (the x-axis convention of Figures 8/9/12/13).
//! * [`capacity`] — the highest-sustainable-load search behind Figure 15.
//! * [`figures`] — digitized reference curves from the published
//!   Figures 12–16 and the delta machinery of the `repro compare`
//!   figure-accuracy gate.
//! * [`render`] — the plain-text delta tables of `repro compare`, as
//!   recorded in `EXPERIMENTS.md`.
//!
//! ## Paper map
//!
//! | module | paper section |
//! |---|---|
//! | [`scenario`] | §5.2 simulation configurations as values |
//! | [`driver`] | §5.1–§5.2 experiment setups |
//! | [`slowdown`] | §5.1 slowdown metric, Figures 8/9/12/13 binning |
//! | [`capacity`] | Figure 15 capacity search |
//! | [`figures`] | Figures 12–16 published curves |
//! | [`render`] | Figures 12–16 deltas as text |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capacity;
pub mod driver;
pub mod figures;
pub mod fuzzing;
pub mod render;
pub mod scenario;
pub mod slowdown;
pub mod spec_line;

pub use capacity::{max_sustainable_load, CapacityProbe};
pub use driver::{OnewayOpts, OnewayResult};
pub use figures::{compare_curves, CurveDelta, MeasuredPoint, PointDelta, RefCurve};
pub use fuzzing::stateful::{parse_ops_line, shrink_ops_to_minimal, OpTrace};
pub use fuzzing::{
    failure_or_panic, shrink_to_minimal, shrink_to_minimal_with, FuzzFamily, SplitMix64,
};
pub use scenario::{FabricSpec, ScenarioSpec, Shape};
pub use slowdown::{MsgRecord, SlowdownBin, SlowdownSummary};
