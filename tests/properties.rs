//! Properties spanning crates: end-to-end delivery for arbitrary message
//! mixes and workload CDF invariants. Each case builds its whole input
//! from one seed, so a failure is a seed that fails alone:
//! `HOMA_FUZZ_REPLAY='cross-crate-properties:seed=<n>' cargo test --test properties`.

use homa::packets::PeerId;
use homa::{HomaConfig, HomaEndpoint};
use homa_harness::FuzzFamily;
use homa_workloads::MessageSizeDist;

const FAMILY: FuzzFamily = FuzzFamily::new("cross-crate-properties");

/// A zero-latency lossless shuttle between two endpoints must deliver
/// every message exactly once, whatever the mix.
#[test]
fn endpoint_delivers_arbitrary_message_mixes() {
    FAMILY.check_seeds("endpoint_delivers_arbitrary_message_mixes", |rng| {
        let sizes: Vec<u64> = (0..rng.range(1, 19)).map(|_| rng.edge_range(1, 199_999)).collect();
        let mut a = HomaEndpoint::new(PeerId(0), HomaConfig::default());
        let mut b = HomaEndpoint::new(PeerId(1), HomaConfig::default());
        for (i, &s) in sizes.iter().enumerate() {
            a.send_message(0, PeerId(1), s, i as u64);
        }
        loop {
            let mut moved = false;
            while let Some((_, pkt)) = a.poll_transmit(0) {
                b.on_packet(0, PeerId(0), pkt);
                moved = true;
            }
            while let Some((_, pkt)) = b.poll_transmit(0) {
                a.on_packet(0, PeerId(1), pkt);
                moved = true;
            }
            if !moved {
                break;
            }
        }
        let evs = b.take_events();
        assert_eq!(evs.len(), sizes.len());
        assert_eq!(b.delivered_bytes(), sizes.iter().sum::<u64>());
    });
}

#[test]
fn cdf_quantile_consistency() {
    FAMILY.check_seeds("cdf_quantile_consistency", |rng| {
        // Build a valid anchor set from arbitrary input.
        let mut sizes: Vec<u64> =
            (0..rng.range(2, 7)).map(|_| rng.edge_range(1, 999_999)).collect();
        let p = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        sizes.sort_unstable();
        sizes.dedup();
        if sizes.len() < 2 {
            return;
        }
        let n = sizes.len();
        let pts: Vec<(u64, f64)> =
            sizes.into_iter().enumerate().map(|(i, s)| (s, i as f64 / (n - 1) as f64)).collect();
        let d = MessageSizeDist::from_anchors(pts);
        // Quantile is monotone and stays in support.
        let q = d.quantile(p);
        assert!(q >= d.min_size() && q <= d.max_size());
        let q2 = d.quantile((p + 0.05).min(1.0));
        assert!(q2 >= q);
        // CDF inverts within tolerance.
        let back = d.cdf(q);
        assert!((back - p).abs() < 0.1, "p={p} q={q} back={back}");
    });
}
