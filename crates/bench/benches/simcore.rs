//! Micro-benchmarks for the simulation kernel: event queues (flat and
//! hierarchical), sustained churn at 100-host scale, and priority queues.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use homa_sim::{EngineKind, EventEngine, EventQueue, LaneId, SimTime};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("simcore");
    g.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            for i in 0..1_000u64 {
                // Pseudo-random times to exercise heap reordering.
                let t = (i.wrapping_mul(2654435761)) % 100_000;
                q.schedule(SimTime::from_nanos(t), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            acc
        })
    });
    g.finish();
}

/// The operation sequence of a sustained churn benchmark: near-monotone
/// per-lane times (the TxDone / SwitchArrive pattern — each lane's next
/// event is almost always later than its last), with ~3% of arrivals
/// slightly out of order. Pre-generated — absolute times included — so
/// both engines replay identical operations and the timed loop contains
/// nothing but engine work.
fn churn_ops(lanes: u32, n: usize) -> Vec<(u32, u64)> {
    let mut lcg = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        lcg >> 33
    };
    let mut lane_clock = vec![0i64; lanes as usize];
    (0..n)
        .map(|_| {
            let lane = (next() % lanes as u64) as u32;
            let r = next();
            let delta = if r % 33 == 0 { -((r % 500) as i64) } else { (r % 2_000) as i64 };
            let t = (lane_clock[lane as usize] + delta).max(0);
            lane_clock[lane as usize] = t.max(lane_clock[lane as usize]);
            (lane, t as u64)
        })
        .collect()
}

/// Sustained event churn shaped like the multi-TOR fabrics the perf gate
/// runs (40 hosts → 47 lanes, 100 → 113, 160 → 179): a deep steady
/// state, then one pop + one push per step. Run on both engines over the
/// *identical* operation sequence — this pair is the ROADMAP's "2x churn"
/// measurement (see EXPERIMENTS.md).
fn bench_engine_churn(c: &mut Criterion) {
    const STEADY: usize = 20_000;
    const STEPS: usize = 100_000;

    // (host count, lanes = hosts + TORs + spines) per Topology::multi_tor.
    for (hosts, lanes) in [(40u32, 47u32), (100, 113), (160, 179)] {
        let ops = churn_ops(lanes, STEADY + STEPS);
        let run = |kind: EngineKind| {
            let mut q: EventEngine<u64> = EventEngine::new(kind, lanes);
            for (i, &(lane, t)) in ops[..STEADY].iter().enumerate() {
                q.schedule(LaneId(lane), SimTime::from_nanos(t), i as u64);
            }
            let mut acc = 0u64;
            for (i, &(lane, t)) in ops[STEADY..].iter().enumerate() {
                let (_, v) = q.pop().expect("steady state");
                acc = acc.wrapping_add(v);
                q.schedule(LaneId(lane), SimTime::from_nanos(t), i as u64);
            }
            acc
        };
        let mut g = c.benchmark_group("simcore");
        g.sample_size(10);
        g.bench_function(format!("engine_churn_{hosts}host_hier"), |b| {
            b.iter(|| black_box(run(EngineKind::Hierarchical)))
        });
        g.bench_function(format!("engine_churn_{hosts}host_flat"), |b| {
            b.iter(|| black_box(run(EngineKind::LegacyHeap)))
        });
        g.finish();
    }

    // The `event_queue_push_pop_1k` pattern at 100-host scale: fill 100k
    // events across the fabric's lanes, then drain completely.
    let ops = churn_ops(113, 100_000);
    let fill_drain = move |kind: EngineKind| {
        let mut q: EventEngine<u64> = EventEngine::new(kind, 113);
        for (i, &(lane, t)) in ops.iter().enumerate() {
            q.schedule(LaneId(lane), SimTime::from_nanos(t), i as u64);
        }
        let mut acc = 0u64;
        while let Some((_, v)) = q.pop() {
            acc = acc.wrapping_add(v);
        }
        acc
    };
    let mut g = c.benchmark_group("simcore");
    g.sample_size(10);
    g.bench_function("event_queue_push_pop_100k_hier", |b| {
        b.iter(|| black_box(fill_drain(EngineKind::Hierarchical)))
    });
    g.bench_function("event_queue_push_pop_100k_flat", |b| {
        b.iter(|| black_box(fill_drain(EngineKind::LegacyHeap)))
    });
    g.finish();
}

fn bench_port_queue(c: &mut Criterion) {
    use homa_sim::queues::PortQueue;
    use homa_sim::{Packet, PacketMeta, QueueDiscipline};

    #[derive(Debug, Clone)]
    struct M(u32, u8);
    impl PacketMeta for M {
        fn wire_bytes(&self) -> u32 {
            self.0
        }
        fn priority(&self) -> u8 {
            self.1
        }
        fn is_control(&self) -> bool {
            false
        }
        fn goodput_bytes(&self) -> u32 {
            self.0
        }
    }

    let mut g = c.benchmark_group("simcore");
    g.bench_function("strict_priority_enqueue_dequeue_256", |b| {
        b.iter(|| {
            let mut q: PortQueue<M> = PortQueue::new(QueueDiscipline::strict8(1 << 20));
            for i in 0..256u32 {
                let pkt =
                    Packet::new(homa_sim::HostId(0), homa_sim::HostId(1), M(1_460, (i % 8) as u8));
                q.enqueue(SimTime::from_nanos(i as u64), pkt, None);
            }
            let mut n = 0;
            while q.dequeue(SimTime::from_nanos(1_000)).is_some() {
                n += 1;
            }
            n
        })
    });
    g.finish();
}

criterion_group!(benches, bench_event_queue, bench_engine_churn, bench_port_queue);
criterion_main!(benches);
