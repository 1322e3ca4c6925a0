//! Golden test for the flight-recorder JSONL export.
//!
//! A small seed-42 run is pinned **byte-for-byte**. The trace rides the
//! same `(time, seq)` total order the engines replay bit-identically
//! (see the `determinism` suite), so any diff here means either the
//! simulator/transport behavior changed (refresh deliberately — the
//! perf gate's pinned event counts will flag it too) or the JSONL
//! rendering drifted (don't let it: downstream tooling parses these
//! lines).
//!
//! To refresh after an intentional change:
//! `BLESS=1 cargo test -p homa-bench --test trace_golden`

use homa_bench::tracecmd::trace_run;
use homa_bench::Protocol;
use homa_harness::{FabricSpec, ScenarioSpec};
use homa_sim::FlightRecorder;
use homa_workloads::Workload;

/// The spec the golden trace was generated from (equivalent to
/// `repro trace name=trace_golden fabric=mtor:16 wl=W2 load=0.5
/// msgs=40 seed=42`).
fn golden_spec() -> ScenarioSpec {
    ScenarioSpec::new("trace_golden", FabricSpec::MultiTor { hosts: 16 }, Workload::W2, 0.5, 40, 42)
}

const GOLDEN_PATH: &str = "tests/golden/TRACE_seed42_w2.jsonl";

#[test]
fn trace_jsonl_seed42_matches_golden() {
    let tr = trace_run(Protocol::Homa, &golden_spec(), FlightRecorder::DEFAULT_CAP);
    assert_eq!(tr.dropped, 0, "golden run must fit the ring");
    if std::env::var("BLESS").is_ok() {
        std::fs::write(GOLDEN_PATH, &tr.jsonl).expect("write golden");
        return;
    }
    let golden = include_str!("golden/TRACE_seed42_w2.jsonl");
    assert_eq!(
        tr.jsonl, golden,
        "TRACE.jsonl drifted from the golden file. If the simulation change is \
         intentional, refresh with: BLESS=1 cargo test -p homa-bench --test trace_golden"
    );
}
