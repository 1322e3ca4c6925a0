//! Transport-conservation fuzzing: on every arbitrary [`ScenarioSpec`],
//! each of the six transports must conserve messages exactly.
//!
//! The invariants, per run:
//!
//! * every planned message is injected (`injected == spec.messages`);
//! * every injected message is accounted for exactly once
//!   (`delivered + aborted + lost == injected`);
//! * nothing is delivered twice (`duplicate_deliveries == 0`);
//! * the record streams cover exactly the deliveries
//!   (`records + victim_records == delivered`), and the streaming
//!   sketch saw exactly the non-victim deliveries;
//! * the run trips no debug-build invariant (the event-order oracle, the
//!   strict-priority non-inversion check, the fabric's `debug_assert!`s):
//!   a panic counts as a failure and shrinks like one.
//!
//! Failures shrink to a minimal spec and print a one-line replay string
//! (also appended under `$HOMA_FUZZ_FAILURE_DIR` for CI artifacts).
//! Iteration counts honor `HOMA_FUZZ_ITERS`; the `#[ignore]` variant is
//! the nightly long haul.

use homa_bench::{run_protocol_scenario, Protocol};
use homa_harness::driver::OnewayOpts;
use homa_harness::{failure_or_panic, shrink_to_minimal, FuzzFamily, ScenarioSpec};

const FAMILY: FuzzFamily = FuzzFamily::new("conservation");

const TRANSPORTS: [Protocol; 6] = [
    Protocol::Homa,
    Protocol::Basic,
    Protocol::Pfabric,
    Protocol::Phost,
    Protocol::Pias,
    Protocol::Stream,
];

/// `Some(detail)` if `p` violates conservation on `spec` or panics on
/// it, else `None`.
fn violates_conservation(p: Protocol, spec: &ScenarioSpec) -> Option<String> {
    failure_or_panic(|| conservation_detail(p, spec))
}

fn conservation_detail(p: Protocol, spec: &ScenarioSpec) -> Option<String> {
    let res = run_protocol_scenario(p, spec, &OnewayOpts::default().with_records(), None);
    if res.injected != spec.messages {
        return Some(format!(
            "{:?}: injected {} of {} planned messages",
            p, res.injected, spec.messages
        ));
    }
    if res.delivered + res.aborted + res.lost != res.injected {
        return Some(format!(
            "{:?}: {} delivered + {} aborted + {} lost != {} injected",
            p, res.delivered, res.aborted, res.lost, res.injected
        ));
    }
    if res.duplicate_deliveries != 0 {
        return Some(format!("{:?}: {} duplicate deliveries", p, res.duplicate_deliveries));
    }
    let recorded = (res.records.len() + res.victim_records.len()) as u64;
    if recorded != res.delivered {
        return Some(format!("{:?}: {} records for {} deliveries", p, recorded, res.delivered));
    }
    if res.sketch.count() != res.records.len() as u64 {
        return Some(format!(
            "{:?}: sketch saw {} messages, records hold {}",
            p,
            res.sketch.count(),
            res.records.len()
        ));
    }
    None
}

fn check_seed_range(first_seed: u64, iters: u64) {
    for i in 0..iters {
        let seed = first_seed + i;
        let spec = ScenarioSpec::arbitrary(seed);
        for p in TRANSPORTS {
            if let Some(detail) = violates_conservation(p, &spec) {
                let minimal = shrink_to_minimal(&spec, |s| violates_conservation(p, s).is_some());
                FAMILY.fail(
                    &minimal.to_spec_line(),
                    &format!("conservation violated (seed {seed}): {detail}"),
                );
            }
        }
    }
}

/// The smoke budget is one seed range run as two tests, half each, so
/// the harness puts the halves on two threads.
#[test]
fn all_transports_conserve_messages_on_arbitrary_specs_low_seeds() {
    check_seed_range(2_000, FAMILY.iters(10) / 2);
}

#[test]
fn all_transports_conserve_messages_on_arbitrary_specs_high_seeds() {
    let iters = FAMILY.iters(10);
    check_seed_range(2_000 + iters / 2, iters - iters / 2);
}

/// Nightly long-haul sweep on a disjoint seed range.
#[test]
#[ignore = "long-haul fuzz loop; run with --ignored (nightly CI)"]
fn long_haul_conservation_fuzz() {
    check_seed_range(200_000, FAMILY.iters(10) * 25);
}

/// Replay hook: set `HOMA_FUZZ_REPLAY` to the `conservation:<spec line>`
/// a fuzz failure printed and this test re-checks conservation on it for
/// every transport (it passes trivially when the variable is unset or
/// names another family).
#[test]
fn replay_spec_line_from_env() {
    let Some(line) = FAMILY.replay() else { return };
    let spec = ScenarioSpec::parse_spec_line(&line)
        .unwrap_or_else(|e| panic!("bad spec line `{line}`: {e}"));
    for p in TRANSPORTS {
        if let Some(detail) = violates_conservation(p, &spec) {
            panic!("replayed spec still violates conservation: {detail}\n  {line}");
        }
    }
}
