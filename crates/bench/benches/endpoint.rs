//! Micro-benchmarks for the Homa protocol state machines: how fast can a
//! sender/receiver pair push a message through the endpoint logic
//! (no fabric, zero-latency shuttle)?

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use homa::packets::PeerId;
use homa::{HomaConfig, HomaEndpoint};

fn shuttle_message(len: u64) -> u64 {
    let mut a = HomaEndpoint::new(PeerId(0), HomaConfig::default());
    let mut b = HomaEndpoint::new(PeerId(1), HomaConfig::default());
    a.send_message(0, PeerId(1), len, 1);
    let mut packets = 0u64;
    loop {
        let mut moved = false;
        while let Some((_, pkt)) = a.poll_transmit(0) {
            packets += 1;
            b.on_packet(0, PeerId(0), pkt);
            moved = true;
        }
        while let Some((_, pkt)) = b.poll_transmit(0) {
            packets += 1;
            a.on_packet(0, PeerId(1), pkt);
            moved = true;
        }
        if !moved {
            break;
        }
    }
    assert_eq!(b.delivered_msgs(), 1);
    packets
}

fn bench_endpoint(c: &mut Criterion) {
    let mut g = c.benchmark_group("endpoint");
    for len in [100u64, 10_000, 1_000_000] {
        g.throughput(Throughput::Bytes(len));
        g.bench_function(format!("message_{len}B"), |b| {
            b.iter(|| shuttle_message(std::hint::black_box(len)))
        });
    }
    g.bench_function("rpc_echo_1KB", |b| {
        b.iter(|| {
            let mut a = HomaEndpoint::new(PeerId(0), HomaConfig::default());
            let mut sv = HomaEndpoint::new(PeerId(1), HomaConfig::default());
            a.begin_rpc(0, PeerId(1), 1_000, 7);
            for _ in 0..8 {
                while let Some((_, pkt)) = a.poll_transmit(0) {
                    sv.on_packet(0, PeerId(0), pkt);
                }
                for ev in sv.take_events() {
                    if let homa::HomaEvent::RequestArrived { client, rpc_seq, len, .. } = ev {
                        sv.send_response(0, client, rpc_seq, len, 0);
                    }
                }
                while let Some((_, pkt)) = sv.poll_transmit(0) {
                    a.on_packet(0, PeerId(1), pkt);
                }
            }
            assert!(a
                .take_events()
                .iter()
                .any(|e| matches!(e, homa::HomaEvent::RpcCompleted { .. })));
        })
    });
    g.finish();
}

/// Per-packet cost against retained state: 100 B one-ways — send, poll,
/// deliver — through a sender already holding `lingering` fully-sent
/// ones. Sends are spaced a `lingering`-th of the linger window apart and
/// every batch ends in one `timer_tick`, which therefore expires exactly
/// one batch of old entries: each iteration sees the same retained count.
fn bench_oneway_small(c: &mut Criterion) {
    const BATCH: u64 = 100;
    let mut g = c.benchmark_group("oneway_small");
    g.throughput(Throughput::Elements(BATCH));
    for lingering in [100u64, 10_000] {
        let cfg = HomaConfig::default();
        let step = 4 * cfg.resend_interval_ns / lingering;
        let mut a = HomaEndpoint::new(PeerId(0), cfg.clone());
        let mut b = HomaEndpoint::new(PeerId(1), cfg);
        let mut sent = 0u64;
        let mut send_batch = |n: u64| {
            for _ in 0..n {
                let now = sent * step;
                a.send_message(now, PeerId(1), 100, sent);
                let (_, pkt) = a.poll_transmit(now).expect("one blind packet");
                b.on_packet(now, PeerId(0), pkt);
                sent += 1;
            }
            assert_eq!(b.take_events().len() as u64, n);
            a.timer_tick((sent - 1) * step);
            assert_eq!(a.outbound_count() as u64, lingering, "retained count drifted");
        };
        send_batch(lingering);
        g.bench_function(format!("after_{lingering}_sent"), |bch| {
            bch.iter(|| send_batch(std::hint::black_box(BATCH)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_endpoint, bench_oneway_small);
criterion_main!(benches);
