//! Properties of the protocol core's invariants. Each case builds its
//! whole input from one seed, so a failure is a seed that fails alone:
//! `HOMA_FUZZ_REPLAY='core-properties:seed=<n>' cargo test -p homa --test properties`.

use homa::messages::{merge_ranges, InboundMessage, OutboundMessage, Silence};
use homa::packets::{Dir, MsgKey, PeerId};
use homa::unsched::TrafficTracker;
use homa::HomaConfig;
use homa_harness::FuzzFamily;

const FAMILY: FuzzFamily = FuzzFamily::new("core-properties");

fn key() -> MsgKey {
    MsgKey { origin: PeerId(1), seq: 1, dir: Dir::Oneway }
}

/// The allocate-and-merge loop `InboundMessage::record` and
/// `OutboundMessage::queue_retx` each carried before they shared
/// `merge_ranges`: the reference the in-place merge is held to.
fn merged_copy(ranges: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut sorted = ranges.to_vec();
    sorted.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
    for &(o, l) in &sorted {
        if let Some(last) = merged.last_mut() {
            if o <= last.0 + last.1 {
                let new_end = (o + l).max(last.0 + last.1);
                last.1 = new_end - last.0;
                continue;
            }
        }
        merged.push((o, l));
    }
    merged
}

#[test]
fn merge_ranges_matches_the_allocating_merge() {
    FAMILY.check_seeds("merge_ranges_matches_the_allocating_merge", |rng| {
        // Offsets on a coarse grid and lengths around its step, so
        // overlapping, touching, nested, duplicate and disjoint ranges
        // all turn up in one list.
        let ranges: Vec<(u64, u64)> = (0..rng.below(40))
            .map(|_| (rng.edge_range(0, 39) * 100, rng.edge_range(1, 249)))
            .collect();
        let mut in_place = ranges.clone();
        merge_ranges(&mut in_place);
        assert_eq!(in_place, merged_copy(&ranges));
        assert!(in_place.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0), "not disjoint");
        // Merging what is already merged changes nothing.
        let again = in_place.clone();
        merge_ranges(&mut in_place);
        assert_eq!(in_place, again);
    });
}

#[test]
fn inbound_reassembly_any_order() {
    FAMILY.check_seeds("inbound_reassembly_any_order", |rng| {
        let len = rng.edge_range(1, 99_999);
        // Fragment [0, len) into packet-size pieces, deliver them in an
        // arbitrary order (with duplicates), assert exact completion.
        let mut m = InboundMessage::new(key(), PeerId(1), len, 0);
        let pkts: Vec<(u64, u64)> =
            (0..len.div_ceil(1_400)).map(|i| (i * 1_400, 1_400.min(len - i * 1_400))).collect();
        // Arbitrary delivery order with repetition.
        for _ in 0..rng.range(1, 63) {
            let (off, l) = pkts[rng.below(pkts.len() as u64) as usize];
            m.record(off, l);
            assert!(m.received() <= len);
        }
        // Deliver everything to finish.
        for &(off, l) in &pkts {
            m.record(off, l);
        }
        assert!(m.complete());
        assert_eq!(m.received(), len);
        assert_eq!(m.first_gap(), None);
        assert_eq!(m.contiguous(), len);
    });
}

#[test]
fn inbound_gap_is_truly_missing() {
    FAMILY.check_seeds("inbound_gap_is_truly_missing", |rng| {
        let len = rng.edge_range(2_800, 49_999);
        let mut m = InboundMessage::new(key(), PeerId(1), len, 0);
        let npkts = len.div_ceil(1_400);
        for _ in 0..rng.below(20) {
            let i = rng.below(npkts);
            m.record(i * 1_400, 1_400.min(len - i * 1_400));
        }
        if let Some((off, l)) = m.first_gap() {
            assert!(l >= 1);
            assert!(off + l <= len);
            // The reported gap must not overlap anything received: feeding
            // it back must add exactly l bytes.
            let before = m.received();
            let added = m.record(off, l);
            assert_eq!(added, l);
            assert_eq!(m.received(), before + l);
        } else {
            assert!(m.complete());
        }
    });
}

#[test]
fn outbound_chunks_cover_exactly_once() {
    FAMILY.check_seeds("outbound_chunks_cover_exactly_once", |rng| {
        let len = rng.edge_range(1, 59_999);
        let mut grants_left = rng.range(1, 9);
        let mut m = OutboundMessage {
            key: key(),
            dst: PeerId(2),
            len,
            sent: 0,
            granted: 1_400.min(len),
            unsched_limit: 1_400.min(len),
            sched_prio: 0,
            unsched_prio: 7,
            retx: Vec::new(),
            incast_mark: false,
            tag: 0,
            created_at: 0,
            silence: Silence::new(0),
        };
        let mut covered = vec![false; len as usize];
        loop {
            while let Some((off, l, retx)) = m.next_chunk() {
                assert!(!retx);
                assert!(l > 0);
                for b in off..off + l as u64 {
                    assert!(!covered[b as usize], "byte {b} sent twice");
                    covered[b as usize] = true;
                }
            }
            if m.fully_sent() || grants_left == 0 {
                break;
            }
            grants_left -= 1;
            m.granted = (m.granted + rng.edge_range(1, 19_999)).min(len);
        }
        // Every byte sent at most once; bytes sent = m.sent.
        let sent_count = covered.iter().filter(|&&c| c).count() as u64;
        assert_eq!(sent_count, m.sent);
    });
}

#[test]
fn tracker_cutoffs_always_valid() {
    FAMILY.check_seeds("tracker_cutoffs_always_valid", |rng| {
        let sizes: Vec<u64> =
            (0..rng.range(1, 199)).map(|_| rng.edge_range(1, 9_999_999)).collect();
        // Unset for a quarter of the cases.
        let unsched_override = rng.chance(3, 4).then(|| rng.edge_range(1, 7) as u8);
        let mut t = TrafficTracker::new();
        for &s in &sizes {
            t.record(s, 9_700);
        }
        let cfg = HomaConfig { unsched_levels_override: unsched_override, ..HomaConfig::default() };
        let map = t.recompute(&cfg);
        // Structural invariants.
        assert!(map.unsched_levels >= 1);
        assert!(map.unsched_levels < map.num_priorities);
        assert_eq!(map.cutoffs.len() as u8, map.unsched_levels - 1);
        assert!(map.cutoffs.windows(2).all(|w| w[0] < w[1]));
        // Every size maps into the unscheduled band.
        for &s in &sizes {
            let p = map.unsched_prio(s);
            assert!(p >= map.num_priorities - map.unsched_levels);
            assert!(p < map.num_priorities);
        }
        // Smaller size never gets lower priority.
        let mut prev = map.unsched_prio(1);
        for s in [10u64, 100, 1_000, 10_000, 100_000, 1_000_000] {
            let p = map.unsched_prio(s);
            assert!(p <= prev);
            prev = p;
        }
    });
}
