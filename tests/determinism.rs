//! Determinism: one [`ScenarioSpec`] + seed is one run, bit for bit, and
//! that run pops its events in exact `(time, seq)` order.
//!
//! Every row runs its scenario twice and requires the full `MsgRecord`
//! stream and the harvested `RunStats` to be identical — not
//! statistically close, *identical*. The event order itself is checked
//! inside each run: in a build with debug assertions (`cargo test`, and
//! CI's optimized runs, which set
//! `CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true`) the timing wheel
//! carries a reference heap and panics with `engine diverged at t=…` on
//! the first pop the two disagree on (see `homa_sim::events`). Together
//! these are the contract that lets the perf gate pin deterministic
//! event counts in `BENCH_BASELINE.json`.
//!
//! A fault row also requires its plan to act: every member-link event of
//! the plan is applied before the run ends, a downed link drops packets,
//! and a receiver pause defers deliveries. A plan timed past the end of
//! its run would repeat trivially while exercising nothing.

use homa_bench::{run_protocol_scenario, Protocol};
use homa_harness::driver::OnewayOpts;
use homa_harness::{FabricSpec, ScenarioSpec};
use homa_sim::{Fault, FaultPlan, HostId, LinkId, RunStats};
use homa_workloads::{TrafficSpec, Workload};

/// Every event of `spec`'s fault plan was applied, and the plan bit:
/// packets died on a downed link and, if the plan pauses a receiver,
/// deliveries were deferred.
fn assert_faults_bite(spec: &ScenarioSpec, stats: &RunStats) {
    let events = spec.faults.resolve(&spec.topology()).expect("plan fits its fabric").len();
    let name = &spec.name;
    assert_eq!(stats.faults_applied, events as u64, "{name}: plan outlasts the run");
    assert!(stats.fault_drops > 0, "{name}: no packet died on a downed link");
    if spec.faults.events.iter().any(|(_, f)| matches!(f, Fault::PauseReceiver(_))) {
        assert!(stats.deferred_deliveries > 0, "{name}: the pause deferred nothing");
    }
}

/// Exact signature of a run: every record field (sizes, injection and
/// completion times, unloaded denominators, delay attribution) plus the
/// full fabric statistics. Debug formatting is lossless for the integer
/// fields and bit-faithful for the floats.
fn run_signature(p: Protocol, spec: &ScenarioSpec) -> (String, String, u64, u64) {
    let res = run_protocol_scenario(p, spec, &OnewayOpts::default().with_records(), None);
    assert_eq!(res.injected, spec.messages, "{}: injection shortfall", spec.name);
    assert_eq!(
        res.delivered + res.aborted + res.lost,
        spec.messages,
        "{}: messages unaccounted for",
        spec.name
    );
    if !spec.faults.is_empty() {
        assert_faults_bite(spec, &res.stats);
    }
    (
        format!("{:?}", res.records),
        format!("{:?}", res.stats),
        res.delivered,
        res.stats.events_processed,
    )
}

fn assert_repeatable(p: Protocol, spec: ScenarioSpec) {
    let first = run_signature(p, &spec);
    let again = run_signature(p, &spec);
    assert_eq!(first.3, again.3, "{}: event counts diverged", spec.name);
    assert_eq!(first.2, again.2, "{}: delivered counts diverged", spec.name);
    assert_eq!(first.0, again.0, "{}: MsgRecord streams diverged", spec.name);
    assert_eq!(first.1, again.1, "{}: RunStats diverged", spec.name);
}

#[test]
fn homa_repeats_on_multi_tor_fabric() {
    assert_repeatable(
        Protocol::Homa,
        // Mirrors the perf gate's `w4_80_40h` scenario exactly, so the
        // event count pinned in BENCH_BASELINE.json is one the oracle
        // has checked pop by pop.
        ScenarioSpec::new(
            "det_homa_40h",
            FabricSpec::MultiTor { hosts: 40 },
            Workload::W4,
            0.8,
            1_200,
            42,
        ),
    );
}

#[test]
fn homa_repeats_on_leaf_spine() {
    assert_repeatable(
        Protocol::Homa,
        ScenarioSpec::new(
            "det_homa_ls",
            FabricSpec::LeafSpine { racks: 2, hosts_per_rack: 6, spines: 2 },
            Workload::W2,
            0.7,
            800,
            7,
        ),
    );
}

#[test]
fn phost_repeats() {
    assert_repeatable(
        Protocol::Phost,
        ScenarioSpec::new(
            "det_phost",
            FabricSpec::LeafSpine { racks: 2, hosts_per_rack: 6, spines: 2 },
            Workload::W2,
            0.6,
            600,
            13,
        ),
    );
}

#[test]
fn homa_repeats_under_incast_flap_and_pause() {
    // The fault path is where an ordering bug would be most likely:
    // fault events share lanes with packet events, receiver-pause defers
    // and replays deliveries, and link flaps force the RESEND machinery
    // through retransmission timing. The run must still repeat bit for
    // bit — including the fault counters in RunStats. The pause sits
    // between two flaps on the incast's receiver, host 0.
    let spec = ScenarioSpec::new(
        "det_fault_incast",
        FabricSpec::LeafSpine { racks: 2, hosts_per_rack: 6, spines: 2 },
        Workload::W2,
        0.5,
        700,
        21,
    )
    .with_traffic(TrafficSpec::incast(8))
    .with_faults(
        FaultPlan::new()
            .link_flaps(LinkId::HostDownlink(HostId(0)), 100_000, 50_000, 150_000, 4)
            .receiver_pause(HostId(0), 160_000, 240_000)
            .rate_limit(LinkId::TorUplink { rack: 0, spine: 0 }, 20_000, 650_000, 10_000_000_000),
    );
    assert_repeatable(Protocol::Homa, spec);
}

#[test]
fn phost_repeats_under_link_flaps() {
    let spec = ScenarioSpec::new(
        "det_fault_phost",
        FabricSpec::LeafSpine { racks: 2, hosts_per_rack: 6, spines: 2 },
        Workload::W2,
        0.5,
        500,
        13,
    )
    .with_faults(FaultPlan::new().link_flaps(
        LinkId::SpineDownlink { spine: 1, rack: 1 },
        10_000,
        5_000,
        12_000,
        3,
    ));
    assert_repeatable(Protocol::Phost, spec);
}

#[test]
fn homa_repeats_under_rack_outage() {
    // Correlated failure: a whole rack goes dark mid-run and comes back.
    // The composite fault expands to one event per member link at the
    // same instant; both runs must produce identical records, loss
    // accounting and fault counters.
    let spec = ScenarioSpec::new(
        "det_rack_outage",
        FabricSpec::MultiTor { hosts: 16 },
        Workload::W2,
        0.45,
        600,
        17,
    )
    .with_faults(FaultPlan::new().rack_outage(1, 20_000, 60_000));
    assert_repeatable(Protocol::Homa, spec);
}

#[test]
fn homa_repeats_under_spine_outage() {
    let spec = ScenarioSpec::new(
        "det_spine_outage",
        FabricSpec::LeafSpine { racks: 2, hosts_per_rack: 6, spines: 2 },
        Workload::W2,
        0.5,
        500,
        29,
    )
    .with_faults(FaultPlan::new().spine_outage(0, 15_000, 45_000));
    assert_repeatable(Protocol::Homa, spec);
}

#[test]
fn homa_repeats_on_faulted_fat_tree() {
    // The 1k-host scale fabric in miniature: a k=4 fat tree with the
    // deterministic counter-spray on TOR, aggregation and core tiers,
    // stressed with the same fault vocabulary as the leaf–spine rows.
    // Agg 0 serves pod 0, so `TorUplink { rack: 0, spine: 0 }` is a
    // valid pod-local uplink for the rate limit.
    let spec = ScenarioSpec::new(
        "det_fault_fat_tree",
        FabricSpec::FatTree { k: 4 },
        Workload::W2,
        0.5,
        700,
        23,
    )
    .with_faults(
        FaultPlan::new()
            .link_flaps(LinkId::HostDownlink(HostId(1)), 20_000, 10_000, 25_000, 4)
            .receiver_pause(HostId(5), 40_000, 90_000)
            .rate_limit(LinkId::TorUplink { rack: 0, spine: 0 }, 10_000, 110_000, 10_000_000_000),
    );
    assert_repeatable(Protocol::Homa, spec);
}

#[test]
fn trace_jsonl_is_byte_identical_across_runs() {
    // The flight recorder writes in `(time, seq)` dispatch order, so one
    // spec line must render the *same bytes* of TRACE.jsonl every time —
    // the contract behind the trace-golden CI job. Faults and incast are on
    // so the trace carries fault and drop records, not just the happy
    // path.
    let spec = ScenarioSpec::new(
        "det_trace",
        FabricSpec::LeafSpine { racks: 2, hosts_per_rack: 6, spines: 2 },
        Workload::W2,
        0.5,
        400,
        21,
    )
    .with_traffic(TrafficSpec::incast(6))
    .with_faults(FaultPlan::new().link_flaps(
        LinkId::HostDownlink(HostId(2)),
        50_000,
        30_000,
        100_000,
        3,
    ));

    let jsonl = || {
        let res =
            run_protocol_scenario(Protocol::Homa, &spec, &OnewayOpts::default().with_trace(), None);
        assert_eq!(res.trace_dropped, 0, "trace must fit the ring");
        assert_faults_bite(&spec, &res.stats);
        assert!(!res.trace.is_empty(), "empty trace");
        homa_sim::trace::render_jsonl(&res.trace)
    };
    assert_eq!(jsonl(), jsonl(), "trace bytes diverged between two runs of one spec");
}

#[test]
fn pfabric_repeats() {
    assert_repeatable(
        Protocol::Pfabric,
        ScenarioSpec::new(
            "det_pfabric",
            FabricSpec::SingleSwitch { hosts: 8 },
            Workload::W2,
            0.6,
            600,
            5,
        ),
    );
}
