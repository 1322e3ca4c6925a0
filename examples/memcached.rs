//! A memcached-like workload (W1) under load: the scenario that motivates
//! Homa's design.
//!
//! Runs the W1 (Facebook memcached ETC) message-size distribution over a
//! loaded leaf-spine fabric and prints the tail-latency picture the
//! paper's Figure 12 shows: p50/p99 slowdown per size bin at 80% load.
//!
//! ```sh
//! cargo run --release --example memcached
//! ```

use homa_bench::{run_protocol_scenario, Protocol};
use homa_harness::driver::OnewayOpts;
use homa_harness::render::slowdown_table;
use homa_harness::slowdown::SlowdownSummary;
use homa_harness::{FabricSpec, ScenarioSpec};
use homa_workloads::Workload;

fn main() {
    let spec = ScenarioSpec::new(
        "memcached_w1",
        FabricSpec::LeafSpine { racks: 3, hosts_per_rack: 8, spines: 2 }, // 24 hosts, 2 spines
        Workload::W1,
        0.8,
        20_000,
        42,
    );
    let dist = Workload::W1.dist();
    println!(
        "W1 ({}) — mean message {:.0} B, {} hosts, 80% load",
        Workload::W1.description(),
        dist.mean(),
        spec.topology().num_hosts()
    );
    println!("replay line: {}", spec.to_spec_line());

    for p in [Protocol::Homa, Protocol::Phost] {
        let res = run_protocol_scenario(p, &spec, &OnewayOpts::default().with_records(), None);
        let s = SlowdownSummary::from_records(&res.records, 10);
        println!("\n{} — delivered {}/{} messages", p.name(), res.delivered, res.injected);
        print!("{}", slowdown_table("slowdown by message-size decile:", &s));
    }
    println!("\nHoma's unscheduled priorities, cut by message size from the");
    println!("workload's distribution, keep p99 slowdown flat across sizes;");
    println!("pHost's single blind priority level cannot.");
}
