//! Differential engine fuzzing: every arbitrary [`ScenarioSpec`] must
//! pop its events in the reference heap's exact `(time, seq)` order, and
//! replay bit-identically.
//!
//! This is the randomized companion to `tests/determinism.rs`: instead
//! of a handful of hand-picked scenarios, each iteration draws a spec
//! from the whole generator space — fabrics, workloads, traffic
//! patterns, fault schedules. The comparison against
//! the heap happens inside the run: with debug assertions on, the
//! timing wheel carries the heap as a shadow and panics with
//! `engine diverged at t=…` on the first pop the two disagree on (see
//! `homa_sim::events`). On top of that each spec runs twice and must
//! produce identical `MsgRecord` streams, `RunStats`, sketches and
//! delivery accounting.
//!
//! The family therefore proves nothing in a build without debug
//! assertions, and **fails** there instead of passing vacuously: run it
//! with plain `cargo test`, or optimized with
//! `CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true cargo test --release`.
//!
//! On a divergence panic or a mismatch the harness shrinks the spec to a
//! minimal still-failing one and prints it as a one-line replay string
//! (also appended under `$HOMA_FUZZ_FAILURE_DIR` for CI artifact upload).
//! Replay locally with
//! `HOMA_FUZZ_REPLAY='differential:<line>' cargo test --test fuzz_differential replay`.
//!
//! Iteration counts honor `HOMA_FUZZ_ITERS`; the `#[ignore]` variant is
//! the nightly long haul.

use homa_bench::{run_protocol_scenario, Protocol};
use homa_harness::driver::OnewayOpts;
use homa_harness::{failure_or_panic, shrink_to_minimal, FuzzFamily, ScenarioSpec};

const FAMILY: FuzzFamily = FuzzFamily::new("differential");

/// The protocols differentially fuzzed, rotated per iteration: Homa
/// plus the two baselines with the most transport-side state.
const PROTOCOLS: [Protocol; 3] = [Protocol::Homa, Protocol::Phost, Protocol::Pfabric];

/// Lossless signature of one run: Debug formatting is exact for the
/// integer fields and bit-faithful for the floats.
fn signature(p: Protocol, spec: &ScenarioSpec) -> String {
    let res = run_protocol_scenario(p, spec, &OnewayOpts::default().with_records(), None);
    format!(
        "records {:?} | sketch {:?} | stats {:?} | d{} a{} l{} dup{}",
        res.records,
        res.sketch,
        res.stats,
        res.delivered,
        res.aborted,
        res.lost,
        res.duplicate_deliveries,
    )
}

/// `Some(detail)` if a run of `spec` trips the event-order oracle (or any
/// other debug invariant), or two runs of it differ; else `None`.
fn diverges(p: Protocol, spec: &ScenarioSpec) -> Option<String> {
    failure_or_panic(|| {
        let first = signature(p, spec);
        (signature(p, spec) != first).then(|| format!("two runs differ under {p:?}"))
    })
}

/// The oracle lives behind `debug_assertions`; without it this family
/// would compare a run with itself and call that agreement.
fn require_oracle() {
    if !cfg!(debug_assertions) {
        panic!(
            "fuzz_differential needs the event-order oracle: build with debug assertions \
             (plain `cargo test`, or CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true with --release)"
        );
    }
}

fn check_seed_range(first_seed: u64, iters: u64) {
    require_oracle();
    for i in 0..iters {
        let seed = first_seed + i;
        let spec = ScenarioSpec::arbitrary(seed);
        let p = PROTOCOLS[(seed % PROTOCOLS.len() as u64) as usize];
        if let Some(detail) = diverges(p, &spec) {
            let minimal = shrink_to_minimal(&spec, |s| diverges(p, s).is_some());
            FAMILY.fail(&minimal.to_spec_line(), &format!("seed {seed}: {detail}"));
        }
    }
}

/// The smoke budget is one seed range run as two tests, half each, so
/// the harness puts the halves on two threads: under the oracle a
/// debug-profile run costs about a quarter more CPU than it used to.
#[test]
fn arbitrary_specs_hold_the_event_order_and_replay_identically_low_seeds() {
    check_seed_range(1_000, FAMILY.iters(20) / 2);
}

#[test]
fn arbitrary_specs_hold_the_event_order_and_replay_identically_high_seeds() {
    let iters = FAMILY.iters(20);
    check_seed_range(1_000 + iters / 2, iters - iters / 2);
}

/// Nightly long-haul sweep on a disjoint seed range.
#[test]
#[ignore = "long-haul fuzz loop; run with --ignored (nightly CI)"]
fn long_haul_differential_fuzz() {
    check_seed_range(100_000, FAMILY.iters(20) * 25);
}

/// Replay hook: set `HOMA_FUZZ_REPLAY` to the `differential:<spec line>`
/// a fuzz failure printed and this test re-runs it under the oracle (it
/// passes trivially when the variable is unset or names another family).
#[test]
fn replay_spec_line_from_env() {
    let Some(line) = FAMILY.replay() else { return };
    require_oracle();
    let spec = ScenarioSpec::parse_spec_line(&line).expect("the replay line must be a spec line");
    for p in PROTOCOLS {
        if let Some(detail) = diverges(p, &spec) {
            panic!("replayed spec still fails: {detail}\n  {line}");
        }
    }
}
