//! Cross-crate integration tests: the full Homa stack on the simulated
//! leaf-spine fabric.

use homa::HomaConfig;
use homa_baselines::homa_sim::static_map_for_workload;
use homa_baselines::HomaSimTransport;
use homa_bench::{run_protocol_scenario, Protocol};
use homa_harness::driver::OnewayOpts;
use homa_harness::slowdown::SlowdownSummary;
use homa_harness::{FabricSpec, ScenarioSpec};
use homa_sim::PortClass;
use homa_workloads::Workload;

const FABRIC: FabricSpec = FabricSpec::LeafSpine { racks: 3, hosts_per_rack: 8, spines: 2 };

#[test]
fn homa_delivers_everything_on_the_fabric_at_80_percent() {
    let spec = ScenarioSpec::new("full_w2", FABRIC, Workload::W2, 0.8, 3_000, 7);
    let res =
        run_protocol_scenario(Protocol::Homa, &spec, &OnewayOpts::default().with_records(), None);
    assert_eq!(res.delivered, res.injected, "no lost messages");
    assert_eq!(res.aborted, 0);
    assert_eq!(res.duplicate_deliveries, 0);
    assert_eq!(res.stats.total_drops(), 0, "Homa's buffering avoids drops");
    // All slowdowns >= ~1 (sanity of the unloaded-latency denominator).
    for r in &res.records {
        assert!(r.slowdown() > 0.9, "slowdown {} for size {}", r.slowdown(), r.size);
    }
}

#[test]
fn homa_tail_latency_beats_streaming_under_load() {
    // The paper's core claim, end to end: under load, Homa's small-message
    // p99 slowdown is far below a TCP-like stream transport's.
    let spec = ScenarioSpec::new(
        "full_w3",
        FabricSpec::SingleSwitch { hosts: 10 },
        Workload::W3,
        0.7,
        4_000,
        3,
    );
    let homa =
        run_protocol_scenario(Protocol::Homa, &spec, &OnewayOpts::default().with_records(), None);
    let stream =
        run_protocol_scenario(Protocol::Stream, &spec, &OnewayOpts::default().with_records(), None);
    let h = SlowdownSummary::small_message_p99(&homa.records, 0.5);
    let s = SlowdownSummary::small_message_p99(&stream.records, 0.5);
    assert!(h * 3.0 < s, "expected >=3x tail gap, got homa={h:.2} stream={s:.2}");
}

#[test]
fn queueing_concentrates_at_tor_downlinks() {
    // Table 1's structural claim: with per-packet spraying, mean queue
    // lengths in the core stay below the TOR->host downlinks'.
    let spec = ScenarioSpec::new("full_w4_queues", FABRIC, Workload::W4, 0.8, 1_500, 5);
    let res = run_protocol_scenario(Protocol::Homa, &spec, &OnewayOpts::default(), None);
    let down = res.stats.mean_queue_bytes(PortClass::TorDown).unwrap();
    let up = res.stats.mean_queue_bytes(PortClass::TorUp).unwrap();
    let spine = res.stats.mean_queue_bytes(PortClass::SpineDown).unwrap();
    assert!(down > up, "downlink {down:.0}B vs uplink {up:.0}B");
    assert!(down > spine, "downlink {down:.0}B vs spine {spine:.0}B");
    // And absolute occupancy is modest (paper: means of 1-17 KB).
    assert!(down < 60_000.0, "mean downlink queue {down:.0}B too large");
}

#[test]
fn restricting_priorities_hurts_tail_latency() {
    // Figures 8/17: HomaP1 (single priority level) must be measurably
    // worse than full Homa for small messages under load.
    let spec = ScenarioSpec::new("full_w1_prios", FABRIC, Workload::W1, 0.8, 8_000, 11);
    let dist = Workload::W1.dist();
    let run = |prios: u8| {
        let cfg = HomaConfig { num_priorities: prios, ..HomaConfig::default() };
        let map = static_map_for_workload(&dist, &cfg);
        let res = spec.run(
            None,
            |h| HomaSimTransport::new(h, cfg.clone()).with_static_map(map.clone()),
            &OnewayOpts::default().with_records(),
        );
        assert!(res.delivered >= res.injected * 99 / 100);
        SlowdownSummary::small_message_p99(&res.records, 0.5)
    };
    let p8 = run(8);
    let p1 = run(1);
    assert!(p1 > p8 * 1.3, "single priority should degrade tails: P8={p8:.2} P1={p1:.2}");
}

#[test]
fn overcommitment_limits_inflight_buffering() {
    // §3.5: the degree of overcommitment bounds TOR buffering to roughly
    // K * RTTbytes (plus unscheduled collisions).
    let spec = ScenarioSpec::new(
        "full_w4_overcommit",
        FabricSpec::SingleSwitch { hosts: 16 },
        Workload::W4,
        0.8,
        800,
        9,
    );
    let res = run_protocol_scenario(Protocol::Homa, &spec, &OnewayOpts::default(), None);
    let max_q = res.stats.max_queue_bytes(PortClass::TorDown).unwrap();
    // 7 scheduled levels x 9.7KB plus a generous unscheduled allowance.
    assert!(max_q < 350_000, "max TOR downlink queue {max_q}B exceeds the overcommitment bound");
}

#[test]
fn deterministic_experiments() {
    let spec = ScenarioSpec::new(
        "full_det",
        FabricSpec::LeafSpine { racks: 2, hosts_per_rack: 4, spines: 1 },
        Workload::W2,
        0.6,
        500,
        99,
    );
    let run = || {
        let res = run_protocol_scenario(
            Protocol::Homa,
            &spec,
            &OnewayOpts::default().with_records(),
            None,
        );
        res.records.iter().map(|r| (r.size, r.completed_ns)).collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "same seed, same results");
}

#[test]
fn spec_line_replays_a_full_stack_run() {
    // The replay contract end to end: serialize a spec, parse it back,
    // and get bit-identical results from the parsed copy.
    let spec = ScenarioSpec::new("full_replay", FABRIC, Workload::W2, 0.6, 800, 77);
    let replayed = ScenarioSpec::parse_spec_line(&spec.to_spec_line()).expect("line parses");
    let sig = |s: &ScenarioSpec| {
        let res =
            run_protocol_scenario(Protocol::Homa, s, &OnewayOpts::default().with_records(), None);
        (res.records.iter().map(|r| (r.size, r.completed_ns)).collect::<Vec<_>>(), res.delivered)
    };
    assert_eq!(sig(&spec), sig(&replayed), "replayed spec diverged from the original");
}
