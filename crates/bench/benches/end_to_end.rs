//! End-to-end simulation throughput: how many simulated messages per
//! wall-clock second the full stack sustains, for Homa and each baseline.
//! (Criterion companion to the `repro` binary's figure runs.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use homa_bench::{run_protocol_scenario, Protocol};
use homa_harness::driver::OnewayOpts;
use homa_harness::{FabricSpec, ScenarioSpec};
use homa_workloads::Workload;

fn bench_protocols(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    let spec = ScenarioSpec::new(
        "bench_oneway_w2",
        FabricSpec::SingleSwitch { hosts: 8 },
        Workload::W2,
        0.6,
        500,
        1,
    );
    for p in [Protocol::Homa, Protocol::Basic, Protocol::Pfabric, Protocol::Phost, Protocol::Pias] {
        g.bench_with_input(BenchmarkId::new("oneway_500msgs_w2", p.name()), &p, |b, &p| {
            b.iter(|| {
                let res = run_protocol_scenario(p, &spec, &OnewayOpts::default(), None);
                assert!(res.delivered >= 495);
                res.delivered
            })
        });
    }
    g.finish();
}

fn bench_fabric_scale(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    for (label, fabric) in [
        ("single16", FabricSpec::SingleSwitch { hosts: 16 }),
        ("fabric24", FabricSpec::LeafSpine { racks: 3, hosts_per_rack: 8, spines: 2 }),
    ] {
        let spec = ScenarioSpec::new("bench_w1_1k", fabric, Workload::W1, 0.8, 1_000, 2);
        g.bench_function(format!("homa_w1_1k_{label}"), |b| {
            b.iter(|| {
                let res =
                    run_protocol_scenario(Protocol::Homa, &spec, &OnewayOpts::default(), None);
                assert_eq!(res.delivered, 1_000);
            })
        });
    }
    g.finish();
}

/// The perf-smoke shape as a criterion bench: W4 at 80% on the 100-host
/// multi-TOR fabric, on the calendar engine and on the reference heap.
fn bench_100host_engines(c: &mut Criterion) {
    use homa_harness::{FabricSpec, ScenarioSpec};
    use homa_sim::EngineKind;
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    for (label, engine) in [("hier", EngineKind::Hierarchical), ("legacy", EngineKind::LegacyHeap)]
    {
        let spec = ScenarioSpec::new(
            "bench_100h",
            FabricSpec::MultiTor { hosts: 100 },
            Workload::W4,
            0.8,
            500,
            2,
        )
        .with_engine(engine);
        g.bench_function(format!("homa_w4_100host_{label}"), |b| {
            b.iter(|| {
                let res =
                    run_protocol_scenario(Protocol::Homa, &spec, &OnewayOpts::default(), None);
                assert!(res.delivered >= 495);
                res.stats.events_processed
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_protocols, bench_fabric_scale, bench_100host_engines);
criterion_main!(benches);
