//! Stateful model-based endpoint fuzzing: arbitrary interleavings of
//! the [`homa::HomaEndpoint`] driving surface across an adversarial
//! in-memory channel, checked against the reference model in
//! `homa_harness::fuzzing::stateful` after every op and at quiescence.
//!
//! Failures shrink to a one-line op trace and are reported through the
//! family plumbing (stderr + `$HOMA_FUZZ_FAILURE_DIR/stateful.txt`).
//! Replay a shrunk line with:
//!
//! ```text
//! HOMA_FUZZ_REPLAY='stateful:ra:200:30000,pa:8,db:8,xb,ta:2100000' \
//!     cargo test --test fuzz_stateful replay_ops_line_from_env
//! ```

use homa_harness::fuzzing::stateful::{check_ops_caught, trace_deliveries};
use homa_harness::{parse_ops_line, shrink_ops_to_minimal, FuzzFamily, OpTrace};

const FAMILY: FuzzFamily = FuzzFamily::new("stateful");

fn check_seed_range(first_seed: u64, iters: u64) {
    for i in 0..iters {
        let seed = first_seed + i;
        let trace = OpTrace::arbitrary(seed);
        if let Err(detail) = check_ops_caught(&trace) {
            let minimal = shrink_ops_to_minimal(&trace, |t| check_ops_caught(t).is_err());
            FAMILY.fail(&minimal.to_ops_line(), &format!("model diverged (seed {seed}): {detail}"));
        }
    }
}

#[test]
fn endpoint_pairs_match_the_model_on_arbitrary_traces() {
    check_seed_range(3_000, FAMILY.iters(50));
}

/// Nightly long-haul sweep on a disjoint seed range.
#[test]
#[ignore = "long-haul fuzz loop; run with --ignored (nightly CI)"]
fn long_haul_stateful_fuzz() {
    check_seed_range(300_000, FAMILY.iters(50) * 25);
}

/// Replay hook: run a single shrunk op trace from the environment.
#[test]
fn replay_ops_line_from_env() {
    let Some(line) = FAMILY.replay() else { return };
    let trace = parse_ops_line(&line).unwrap_or_else(|e| panic!("bad ops line `{line}`: {e}"));
    match check_ops_caught(&trace) {
        Ok(()) => println!("replayed `{line}`: model satisfied"),
        Err(detail) => panic!("replayed `{line}`: {detail}"),
    }
}

/// Shrinker soundness on a run-outcome predicate: the shrunk trace must
/// still reproduce the original predicate, and must be locally minimal
/// (no single candidate still fails it).
#[test]
fn shrunk_op_traces_still_reproduce_and_are_locally_minimal() {
    let mut checked = 0;
    for seed in 3_000.. {
        let trace = OpTrace::arbitrary(seed);
        // Predicate: the trace actually delivers something — a property
        // of the run, not of the op list's shape.
        let fails = |t: &OpTrace| trace_deliveries(t) > 0;
        if !fails(&trace) {
            continue;
        }
        let minimal = shrink_ops_to_minimal(&trace, fails);
        assert!(
            trace_deliveries(&minimal) > 0,
            "seed {seed}: shrunk trace `{}` no longer delivers",
            minimal.to_ops_line()
        );
        for cand in minimal.shrink() {
            assert_eq!(
                trace_deliveries(&cand),
                0,
                "seed {seed}: `{}` is not minimal — candidate `{}` still delivers",
                minimal.to_ops_line(),
                cand.to_ops_line()
            );
        }
        // Deterministic: shrinking twice lands on the same trace.
        assert_eq!(shrink_ops_to_minimal(&trace, fails), minimal, "seed {seed} nondeterministic");
        checked += 1;
        if checked == 3 {
            break;
        }
    }
    assert_eq!(checked, 3, "generator never produced delivering traces");
}
