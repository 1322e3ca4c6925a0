//! Fault-path demo: a 20-wide open-loop incast with a flapping receiver
//! downlink and a receiver pause, run identically across the six
//! byte-conserving transports.
//!
//! ```text
//! cargo run --release --example scenario_faults
//! ```
//!
//! This is the runnable form of the `TrafficSpec`/`FaultPlan` example in
//! the README, and the source of the incast/flap slowdown table in
//! EXPERIMENTS.md.

use homa_bench::{run_protocol_scenario, Protocol};
use homa_harness::driver::OnewayOpts;
use homa_harness::{FabricSpec, ScenarioSpec, SlowdownSummary};
use homa_sim::{FaultPlan, HostId, LinkId};
use homa_workloads::{TrafficSpec, Workload};

fn main() {
    // Twenty senders converge on host 0 at 80% of its downlink; the
    // downlink flaps three times during the burst and host 0's software
    // stalls for 150µs near the end.
    let spec = ScenarioSpec::new(
        "incast20_flap_40h",
        FabricSpec::MultiTor { hosts: 40 },
        Workload::W2,
        0.5,
        1_500,
        99,
    )
    .with_traffic(TrafficSpec::incast(20))
    .with_faults(
        FaultPlan::new()
            .link_flaps(LinkId::HostDownlink(HostId(0)), 200_000, 60_000, 400_000, 3)
            .receiver_pause(HostId(0), 1_300_000, 1_450_000),
    );

    println!("# {} — W2 @ 50% of host 0's downlink, seed {}", spec.name, spec.seed);
    println!();
    println!("| transport | delivered | lost | fault drops | p50 | p99 |");
    println!("|---|---|---|---|---|---|");
    for p in [
        Protocol::Homa,
        Protocol::Pfabric,
        Protocol::Phost,
        Protocol::Pias,
        Protocol::Ndp,
        Protocol::Stream,
    ] {
        let res = run_protocol_scenario(p, &spec, &OnewayOpts::default().with_records(), None);
        assert_eq!(res.injected, spec.messages);
        assert_eq!(res.delivered + res.aborted + res.lost, spec.messages);
        let s = SlowdownSummary::from_records(&res.records, 1);
        println!(
            "| {} | {}/{} | {} | {} | {:.1} | {:.1} |",
            p.name(),
            res.delivered,
            res.injected,
            res.lost,
            res.stats.fault_drops,
            s.overall_p50,
            s.overall_p99,
        );
    }
    println!();
    println!(
        "slowdown = completion time / unloaded best case. `lost` counts one-way \
         messages whose every packet died on the downed link (fire-and-forget: \
         no transport-level delivery guarantee exists for them)."
    );
}
