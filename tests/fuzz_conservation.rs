//! Transport-conservation fuzzing: on every arbitrary [`ScenarioSpec`],
//! each of the six transports must conserve messages exactly, and the
//! run must repeat bit for bit.
//!
//! The invariants, per run:
//!
//! * every planned message is injected (`injected == spec.messages`);
//! * every injected message is accounted for exactly once
//!   (`delivered + aborted + lost == injected`);
//! * nothing is delivered twice (`duplicate_deliveries == 0`);
//! * the record stream covers exactly the deliveries
//!   (`records == delivered`), and so does the streaming sketch;
//! * the run trips no debug-build invariant: the run core's delivery
//!   contract (each delivery at its destination, from its sender, with
//!   its length; the transports' byte counters equal to the deliveries),
//!   the timing wheel's heap oracle (`engine diverged at t=…`), the
//!   fabric's packet conservation, the `debug_assert!`s. A panic counts
//!   as a failure and shrinks like one;
//! * for the protocol the spec's seed rotates to (Homa, pHost or
//!   pFabric), a second run of the spec has the same records, sketch,
//!   `RunStats` and counts.
//!
//! Those checks exist only with debug assertions, so the family **fails**
//! without them instead of passing vacuously: run it with plain
//! `cargo test`, or optimized with
//! `CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true cargo test --release`.
//!
//! Failures shrink to a minimal spec and print a one-line replay string
//! (also appended under `$HOMA_FUZZ_FAILURE_DIR` for CI artifacts):
//! `HOMA_FUZZ_REPLAY='conservation:<line>' cargo test --test fuzz_conservation replay`.
//! Iteration counts honor `HOMA_FUZZ_ITERS`; the `#[ignore]` variant is
//! the nightly long haul.

use homa_bench::{run_protocol_scenario, Protocol};
use homa_harness::driver::{OnewayOpts, OnewayResult};
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

/// The protocols whose runs are also repeated, one per spec, rotated by
/// its seed: Homa plus the two baselines with the most transport-side
/// state.
const REPEATED: [Protocol; 3] = [Protocol::Homa, Protocol::Phost, Protocol::Pfabric];

fn run(p: Protocol, spec: &ScenarioSpec) -> OnewayResult {
    run_protocol_scenario(p, spec, &OnewayOpts::default().with_records(), None)
}

/// Lossless signature of one run: Debug formatting is exact for the
/// integer fields and bit-faithful for the floats.
fn signature(res: &OnewayResult) -> String {
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

/// `Some(detail)` if `p` violates conservation on `spec`, panics on it,
/// or (for the protocol `spec`'s seed rotates to) runs it differently a
/// second time; else `None`.
fn violates_conservation(p: Protocol, spec: &ScenarioSpec) -> Option<String> {
    failure_or_panic(|| {
        let res = run(p, spec);
        conservation_detail_of(p, spec, &res).or_else(|| {
            let repeated = p == REPEATED[(spec.seed % REPEATED.len() as u64) as usize];
            (repeated && signature(&run(p, spec)) != signature(&res))
                .then(|| format!("{p:?}: two runs differ"))
        })
    })
}

fn conservation_detail(p: Protocol, spec: &ScenarioSpec) -> Option<String> {
    conservation_detail_of(p, spec, &run(p, spec))
}

fn conservation_detail_of(p: Protocol, spec: &ScenarioSpec, res: &OnewayResult) -> Option<String> {
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
    let recorded = res.records.len() as u64;
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

/// Most of the checks live behind `debug_assertions`; without them this
/// family would skip what it exists for and pass.
fn require_oracle() {
    if !cfg!(debug_assertions) {
        panic!(
            "fuzz_conservation needs the debug-build checks: build with debug assertions \
             (plain `cargo test`, or CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true with --release)"
        );
    }
}

fn check_seed_range(first_seed: u64, iters: u64) {
    require_oracle();
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

/// Pinned defect: the long haul's seed 200187, shrunk. Host 4's receive
/// path pauses for 17.5 ms while it sends an 18,938-byte message to host 0,
/// so host 0's RESENDs for the message's tail queue up unread. On resume
/// host 4 answers every one of them; the first answer completes the
/// message, and a later one re-creates it at host 0 as a fresh inbound
/// message (the receiver keeps no completed-message state, §3.8). The
/// sender still lingers on the message, so it answers that ghost's own
/// RESENDs and Homa delivers the message twice. A fix flips the first
/// assertion; until then the long haul fails on that seed.
#[test]
fn homa_delivers_twice_after_a_long_receiver_pause() {
    let line = "name=fuzz_0000000000030dfb fabric=sw:5 wl=W4 load=0.3 msgs=51 seed=200187 \
                traffic=incast:7 faults=26634780:rate:hup2:2673048782,12388051:pause:4,\
                29853167:resume:4";
    let spec = ScenarioSpec::parse_spec_line(line).expect("the pinned line parses");
    assert_eq!(
        conservation_detail(Protocol::Homa, &spec).as_deref(),
        Some("Homa: 1 duplicate deliveries")
    );
    for p in &TRANSPORTS[1..] {
        assert_eq!(conservation_detail(*p, &spec), None, "{p:?}");
    }
}

/// Replay hook: set `HOMA_FUZZ_REPLAY` to the `conservation:<spec line>`
/// a fuzz failure printed and this test re-checks conservation on it for
/// every transport, and repeatability for the one its seed rotates to
/// (it passes trivially when the variable is unset or names another
/// family).
#[test]
fn replay_spec_line_from_env() {
    let Some(line) = FAMILY.replay() else { return };
    require_oracle();
    let spec = ScenarioSpec::parse_spec_line(&line)
        .unwrap_or_else(|e| panic!("bad spec line `{line}`: {e}"));
    for p in TRANSPORTS {
        if let Some(detail) = violates_conservation(p, &spec) {
            panic!("replayed spec still violates conservation: {detail}\n  {line}");
        }
    }
}
