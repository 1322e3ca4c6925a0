//! Cross-engine determinism: the calendar event engine must replay the
//! legacy single-heap engine — the reference oracle — bit-for-bit.
//!
//! Both engines order events by the same globally-assigned `(time, seq)`
//! key, so for one [`ScenarioSpec`] + seed the full `MsgRecord` stream and the harvested
//! `RunStats` must be identical — not statistically close, *identical*.
//! This is the contract that lets the perf gate pin deterministic event
//! counts in `BENCH_BASELINE.json`.

use homa_bench::{run_protocol_scenario, Protocol};
use homa_harness::driver::OnewayOpts;
use homa_harness::{FabricSpec, ScenarioSpec};
use homa_sim::{EngineKind, FaultPlan, HostId, LinkId};
use homa_workloads::{TrafficSpec, VictimSpec, Workload};

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
    (
        format!("{:?} | victims {:?}", res.records, res.victim_records),
        format!("{:?}", res.stats),
        res.delivered,
        res.stats.events_processed,
    )
}

fn assert_engines_agree(p: Protocol, spec: ScenarioSpec) {
    let hier = run_signature(p, &spec.clone().with_engine(EngineKind::Hierarchical));
    let legacy = run_signature(p, &spec.clone().with_engine(EngineKind::LegacyHeap));
    assert_eq!(
        hier.3, legacy.3,
        "{}: event counts diverged (hier {} vs legacy {})",
        spec.name, hier.3, legacy.3
    );
    assert_eq!(hier.2, legacy.2, "{}: delivered counts diverged", spec.name);
    assert_eq!(hier.0, legacy.0, "{}: MsgRecord streams diverged", spec.name);
    assert_eq!(hier.1, legacy.1, "{}: RunStats diverged", spec.name);

    // And the hierarchical engine agrees with itself across runs.
    let again = run_signature(p, &spec.clone().with_engine(EngineKind::Hierarchical));
    assert_eq!(hier, again, "{}: hierarchical engine not repeatable", spec.name);
}

#[test]
fn homa_engines_agree_on_multi_tor_fabric() {
    assert_engines_agree(
        Protocol::Homa,
        // Mirrors the perf gate's `w4_80_40h` scenario exactly, so the
        // pinned event count in BENCH_BASELINE.json is engine-independent.
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
fn homa_engines_agree_on_leaf_spine() {
    assert_engines_agree(
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
fn phost_engines_agree() {
    assert_engines_agree(
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
fn homa_engines_agree_under_incast_flap_and_pause() {
    // The fault path is where engine divergence would be most likely:
    // fault events share lanes with packet events, receiver-pause defers
    // and replays deliveries, and link flaps force the RESEND machinery
    // through retransmission timing. The engines must still replay each
    // other bit-for-bit — including the fault counters in RunStats.
    let spec = ScenarioSpec::new(
        "det_fault_incast",
        FabricSpec::LeafSpine { racks: 2, hosts_per_rack: 6, spines: 2 },
        Workload::W2,
        0.5,
        700,
        21,
    )
    .with_traffic(TrafficSpec::incast(8).with_victim(VictimSpec::new(9, 3, 20_000, 100_000)))
    .with_faults(
        FaultPlan::new()
            .link_flaps(LinkId::HostDownlink(HostId(0)), 300_000, 150_000, 600_000, 4)
            .receiver_pause(HostId(3), 500_000, 900_000)
            .rate_limit(
                LinkId::TorUplink { rack: 0, spine: 0 },
                100_000,
                2_000_000,
                10_000_000_000,
            ),
    );
    assert_engines_agree(Protocol::Homa, spec);
}

#[test]
fn phost_engines_agree_under_link_flaps() {
    let spec = ScenarioSpec::new(
        "det_fault_phost",
        FabricSpec::LeafSpine { racks: 2, hosts_per_rack: 6, spines: 2 },
        Workload::W2,
        0.5,
        500,
        13,
    )
    .with_traffic(TrafficSpec::shuffle())
    .with_faults(FaultPlan::new().link_flaps(
        LinkId::SpineDownlink { spine: 1, rack: 1 },
        200_000,
        100_000,
        500_000,
        3,
    ));
    assert_engines_agree(Protocol::Phost, spec);
}

#[test]
fn homa_engines_agree_under_rack_outage() {
    // Correlated failure: a whole rack goes dark mid-run and comes back.
    // The composite fault expands to one event per member link at the
    // same instant; both engines must replay identical records, loss
    // accounting and fault counters.
    let spec = ScenarioSpec::new(
        "det_rack_outage",
        FabricSpec::MultiTor { hosts: 16 },
        Workload::W2,
        0.45,
        600,
        17,
    )
    .with_faults(FaultPlan::new().rack_outage(1, 400_000, 1_200_000));
    assert_engines_agree(Protocol::Homa, spec);
}

#[test]
fn homa_engines_agree_under_spine_outage() {
    let spec = ScenarioSpec::new(
        "det_spine_outage",
        FabricSpec::LeafSpine { racks: 2, hosts_per_rack: 6, spines: 2 },
        Workload::W2,
        0.5,
        500,
        29,
    )
    .with_traffic(TrafficSpec::shuffle())
    .with_faults(FaultPlan::new().spine_outage(0, 300_000, 900_000));
    assert_engines_agree(Protocol::Homa, spec);
}

#[test]
fn homa_engines_agree_on_faulted_fat_tree() {
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
    .with_traffic(TrafficSpec::shuffle())
    .with_faults(
        FaultPlan::new()
            .link_flaps(LinkId::HostDownlink(HostId(1)), 300_000, 150_000, 600_000, 4)
            .receiver_pause(HostId(5), 500_000, 900_000)
            .rate_limit(
                LinkId::TorUplink { rack: 0, spine: 0 },
                100_000,
                2_000_000,
                10_000_000_000,
            ),
    );
    assert_engines_agree(Protocol::Homa, spec);
}

#[test]
fn trace_jsonl_is_byte_identical_across_engines() {
    // The flight recorder writes in the `(time, seq)` dispatch order the
    // engines already agree on, so one spec line must render the *same
    // bytes* of TRACE.jsonl no matter which engine replayed it — the
    // contract behind the trace-golden CI job. Faults and incast are on
    // so the trace exercises drop/preemption/resend records, not just
    // the happy path.
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
        300_000,
        150_000,
        600_000,
        3,
    ));

    let jsonl_for = |engine: EngineKind| {
        let res = run_protocol_scenario(
            Protocol::Homa,
            &spec.clone().with_engine(engine),
            &OnewayOpts::default().with_trace(),
            None,
        );
        assert_eq!(res.trace_dropped, 0, "{engine:?}: trace must fit the ring");
        assert!(!res.trace.is_empty(), "{engine:?}: empty trace");
        homa_sim::trace::render_jsonl(&res.trace)
    };

    let legacy = jsonl_for(EngineKind::LegacyHeap);
    let hier = jsonl_for(EngineKind::Hierarchical);
    assert_eq!(legacy, hier, "Hierarchical trace bytes diverged from LegacyHeap");
}

#[test]
fn pfabric_engines_agree() {
    assert_engines_agree(
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
