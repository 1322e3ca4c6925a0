//! Differential engine fuzzing: every arbitrary [`ScenarioSpec`] must
//! replay bit-identically on both event engines (the hierarchical
//! calendar and the legacy heap it is checked against).
//!
//! This is the randomized companion to `tests/determinism.rs`: instead
//! of a handful of hand-picked scenarios, each iteration draws a spec
//! from the whole generator space — fabrics, workloads, traffic
//! overlays, victims, mixes, fault schedules — and demands identical
//! `MsgRecord` streams, `RunStats`, sketches and delivery accounting
//! from both engines.
//!
//! On a mismatch the harness shrinks the spec to a minimal still-failing
//! one and prints it as a one-line replay string (also appended under
//! `$HOMA_FUZZ_FAILURE_DIR` for CI artifact upload). Replay locally with
//! `HOMA_FUZZ_REPLAY='<line>' cargo test --test fuzz_differential replay`.
//!
//! Iteration counts honor `HOMA_FUZZ_ITERS`; the `#[ignore]` variant is
//! the nightly long haul.

use homa_bench::{run_protocol_scenario, Protocol};
use homa_harness::driver::OnewayOpts;
use homa_harness::{shrink_to_minimal, FuzzFamily, ScenarioSpec};
use homa_sim::EngineKind;

const FAMILY: FuzzFamily = FuzzFamily::new("differential", "HOMA_FUZZ_REPLAY");

/// The protocols differentially fuzzed, rotated per iteration: Homa
/// plus the two baselines with the most transport-side state.
const PROTOCOLS: [Protocol; 3] = [Protocol::Homa, Protocol::Phost, Protocol::Pfabric];

/// Lossless signature of one run: Debug formatting is exact for the
/// integer fields and bit-faithful for the floats.
fn signature(p: Protocol, spec: &ScenarioSpec, engine: EngineKind) -> String {
    let res = run_protocol_scenario(
        p,
        &spec.clone().with_engine(engine),
        &OnewayOpts::default().with_records(),
        None,
    );
    format!(
        "records {:?} | victims {:?} | sketch {:?} | stats {:?} | d{} a{} l{} dup{}",
        res.records,
        res.victim_records,
        res.sketch,
        res.stats,
        res.delivered,
        res.aborted,
        res.lost,
        res.duplicate_deliveries,
    )
}

/// `Some(detail)` if the hierarchical engine disagrees with the legacy
/// heap on `spec`, else `None`.
fn engines_disagree(p: Protocol, spec: &ScenarioSpec) -> Option<String> {
    let reference = signature(p, spec, EngineKind::LegacyHeap);
    (signature(p, spec, EngineKind::Hierarchical) != reference)
        .then(|| format!("hier diverged from legacy under {p:?}"))
}

fn check_seed_range(first_seed: u64, iters: u64) {
    for i in 0..iters {
        let seed = first_seed + i;
        let spec = ScenarioSpec::arbitrary(seed);
        let p = PROTOCOLS[(seed % PROTOCOLS.len() as u64) as usize];
        if let Some(detail) = engines_disagree(p, &spec) {
            let minimal = shrink_to_minimal(&spec, |s| engines_disagree(p, s).is_some());
            FAMILY.fail(
                &minimal.to_spec_line(),
                &format!("engines disagree (seed {seed}): {detail}"),
            );
        }
    }
}

#[test]
fn arbitrary_specs_replay_identically_on_all_engines() {
    check_seed_range(1_000, FAMILY.iters(20));
}

/// Nightly long-haul sweep on a disjoint seed range.
#[test]
#[ignore = "long-haul fuzz loop; run with --ignored (nightly CI)"]
fn long_haul_differential_fuzz() {
    check_seed_range(100_000, FAMILY.iters(20) * 25);
}

/// Replay hook: set `HOMA_FUZZ_REPLAY` to a spec line printed by a fuzz
/// failure and this test re-runs it on both engines (it passes
/// trivially when the variable is unset).
#[test]
fn replay_spec_line_from_env() {
    let Some(line) = FAMILY.replay() else { return };
    let spec = ScenarioSpec::parse_spec_line(&line).expect("HOMA_FUZZ_REPLAY must be a spec line");
    for p in PROTOCOLS {
        if let Some(detail) = engines_disagree(p, &spec) {
            panic!("replayed spec still fails: {detail}\n  {line}");
        }
    }
}
