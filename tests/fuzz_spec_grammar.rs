//! Spec-line grammar fuzzing: mutated `ScenarioSpec` lines (deleted and
//! duplicated keys, bit-flips, truncation, separator injection, unknown
//! keys, numeric overflow strings) must never panic the parser, never be
//! silently accepted, and — when still legal — re-format to a fixed
//! point. Rejections must name the offending key.
//!
//! Failures shrink to a minimal line and are reported through the
//! family plumbing (stderr + `$HOMA_FUZZ_FAILURE_DIR/spec-grammar.txt`).
//! Replay a shrunk line with:
//!
//! ```text
//! HOMA_FUZZ_REPLAY='spec-grammar:name=x fabric=ss4 wl=w9' \
//!     cargo test --test fuzz_spec_grammar replay_line_from_env
//! ```

use homa_harness::fuzzing::grammar::{
    check_mutant_line_caught, mutate_spec_line, shrink_line, shrink_line_to_minimal,
};
use homa_harness::{FuzzFamily, ScenarioSpec};

const FAMILY: FuzzFamily = FuzzFamily::new("spec-grammar");

fn check_seed_range(first_seed: u64, iters: u64) {
    for i in 0..iters {
        let seed = first_seed + i;
        let line = mutate_spec_line(seed);
        if let Err(detail) = check_mutant_line_caught(&line) {
            let minimal = shrink_line_to_minimal(&line, |l| check_mutant_line_caught(l).is_err());
            FAMILY.fail(&minimal, &format!("parser contract broken (seed {seed}): {detail}"));
        }
    }
}

#[test]
fn parser_survives_arbitrary_grammar_mutations() {
    check_seed_range(4_000, FAMILY.iters(500));
}

/// Nightly long-haul sweep on a disjoint seed range.
#[test]
#[ignore = "long-haul fuzz loop; run with --ignored (nightly CI)"]
fn long_haul_spec_grammar_fuzz() {
    check_seed_range(400_000, FAMILY.iters(500) * 20);
}

/// Replay hook: re-check a single (possibly shrunk) line from the
/// environment.
#[test]
fn replay_line_from_env() {
    let Some(line) = FAMILY.replay() else { return };
    match check_mutant_line_caught(&line) {
        Ok(()) => println!("replayed `{line}`: parser contract holds"),
        Err(detail) => panic!("replayed `{line}`: {detail}"),
    }
}

/// Shrinker soundness over real mutants: for seeds whose mutant the
/// parser rejects, the shrunk line must still be rejected and must be
/// locally minimal against the same predicate.
#[test]
fn shrunk_lines_still_reproduce_and_are_locally_minimal() {
    let rejects = |l: &String| ScenarioSpec::parse_spec_line(l).is_err();
    let mut checked = 0;
    for seed in 4_000.. {
        let line = mutate_spec_line(seed);
        if !rejects(&line) {
            continue;
        }
        let minimal = shrink_line_to_minimal(&line, rejects);
        assert!(rejects(&minimal), "seed {seed}: shrunk `{minimal}` no longer rejected");
        for cand in shrink_line(&minimal) {
            assert!(
                !rejects(&cand),
                "seed {seed}: `{minimal}` is not minimal — `{cand}` still rejected"
            );
        }
        assert_eq!(shrink_line_to_minimal(&line, rejects), minimal, "seed {seed} nondeterministic");
        checked += 1;
        if checked == 25 {
            break;
        }
    }
    assert_eq!(checked, 25, "mutator never produced rejected lines");
}
