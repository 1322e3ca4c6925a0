//! Quickstart: run Homa RPCs through a simulated 16-node cluster.
//!
//! Builds the §5.1 cluster (16 hosts on one 10 Gbps switch), issues a few
//! echo RPCs through the full Homa stack — blind transmission, grants,
//! priorities — and prints their latencies.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use homa::HomaConfig;
use homa_baselines::{HomaMeta, HomaSimTransport};
use homa_sim::{AppEvent, HostId, Network, NetworkConfig, SimTime, Topology};

fn main() {
    // A 16-host, single-switch cluster with the paper's timing constants
    // (10 Gbps links, 250 ns switch delay, 1.5 us host software delay).
    let topo = Topology::single_switch(16);
    let mut net: Network<HomaMeta, HomaSimTransport> =
        Network::new(topo, NetworkConfig::default(), |h| {
            HomaSimTransport::new(h, HomaConfig::default())
        });

    // Issue echo RPCs of increasing size from host 0 to host 1.
    let sizes = [100u64, 1_000, 10_000, 100_000, 1_000_000];
    let mut issued_at = Vec::new();
    println!("{:>12} {:>14} {:>12}", "size (B)", "RTT (us)", "slowdown");
    for (i, &size) in sizes.iter().enumerate() {
        issued_at.push(net.now());
        net.inject_rpc(HostId(0), HostId(1), size, i as u64);

        // Drive the simulation until this RPC completes; echo requests
        // back as the server application.
        let mut done = false;
        while !done {
            net.run_next_before(SimTime::MAX).expect("events pending");
            for (at, host, ev) in net.take_app_events() {
                match ev {
                    AppEvent::RpcRequestArrived { client, rpc, request_len } => {
                        // The server application: echo the payload back.
                        net.inject_response(host, client, rpc, request_len);
                    }
                    AppEvent::RpcCompleted { tag, response_len, .. } => {
                        assert_eq!(tag as usize, i);
                        assert_eq!(response_len, size);
                        let rtt = at - issued_at[i];
                        // Best case: one request crossing + one response
                        // crossing of an idle fabric.
                        let topo = net.topology();
                        let class = topo.path_class(HostId(0), HostId(1));
                        let best =
                            2 * topo.unloaded_one_way_class(size, 1_400, 60, class).as_nanos();
                        println!(
                            "{size:>12} {:>14.2} {:>12.2}",
                            rtt.as_micros_f64(),
                            rtt.as_nanos() as f64 / best as f64
                        );
                        done = true;
                    }
                    other => panic!("unexpected event {other:?}"),
                }
            }
        }
    }
    println!("\nAll RPCs completed on an idle fabric at slowdown ~1.0 — as");
    println!("expected: Homa's blind first-RTT transmission means a small RPC");
    println!("needs no scheduling round-trip at all.");
}
