//! Property-based tests for the protocol core's invariants.

use homa::messages::{merge_ranges, InboundMessage, OutboundMessage};
use homa::packets::{Dir, MsgKey, PeerId};
use homa::unsched::TrafficTracker;
use homa::HomaConfig;
use proptest::prelude::*;

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

proptest! {
    #[test]
    fn merge_ranges_matches_the_allocating_merge(
        // Offsets on a coarse grid and lengths around its step, so
        // overlapping, touching, nested, duplicate and disjoint ranges
        // all turn up in one list.
        raw in proptest::collection::vec((0u64..40, 1u64..250), 0..40),
    ) {
        let ranges: Vec<(u64, u64)> = raw.iter().map(|&(slot, l)| (slot * 100, l)).collect();
        let mut in_place = ranges.clone();
        merge_ranges(&mut in_place);
        prop_assert_eq!(&in_place, &merged_copy(&ranges));
        prop_assert!(in_place.windows(2).all(|w| w[0].0 + w[0].1 < w[1].0), "not disjoint");
        // Merging what is already merged changes nothing.
        let again = in_place.clone();
        merge_ranges(&mut in_place);
        prop_assert_eq!(in_place, again);
    }

    #[test]
    fn inbound_reassembly_any_order(
        len in 1u64..100_000,
        order in proptest::collection::vec(any::<u64>(), 1..64),
    ) {
        // Fragment [0, len) into packet-size pieces, deliver them in an
        // arbitrary order (with duplicates), assert exact completion.
        let mut m = InboundMessage::new(key(), PeerId(1), len, 0);
        let pkts: Vec<(u64, u64)> = (0..len.div_ceil(1_400))
            .map(|i| (i * 1_400, 1_400.min(len - i * 1_400)))
            .collect();
        // Arbitrary delivery order with repetition.
        for &o in &order {
            let (off, l) = pkts[(o % pkts.len() as u64) as usize];
            m.record(off, l);
            prop_assert!(m.received() <= len);
        }
        // Deliver everything to finish.
        for &(off, l) in &pkts {
            m.record(off, l);
        }
        prop_assert!(m.complete());
        prop_assert_eq!(m.received(), len);
        prop_assert_eq!(m.first_gap(), None);
        prop_assert_eq!(m.contiguous(), len);
    }

    #[test]
    fn inbound_gap_is_truly_missing(
        len in 2_800u64..50_000,
        received in proptest::collection::vec(any::<u64>(), 0..20),
    ) {
        let mut m = InboundMessage::new(key(), PeerId(1), len, 0);
        let npkts = len.div_ceil(1_400);
        for &r in &received {
            let i = r % npkts;
            m.record(i * 1_400, 1_400.min(len - i * 1_400));
        }
        if let Some((off, l)) = m.first_gap() {
            prop_assert!(l >= 1);
            prop_assert!(off + l <= len);
            // The reported gap must not overlap anything received: feeding
            // it back must add exactly l bytes.
            let before = m.received();
            let added = m.record(off, l);
            prop_assert_eq!(added, l);
            prop_assert_eq!(m.received(), before + l);
        } else {
            prop_assert!(m.complete());
        }
    }

    #[test]
    fn outbound_chunks_cover_exactly_once(
        len in 1u64..60_000,
        grant_steps in proptest::collection::vec(1u64..20_000, 1..10),
    ) {
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
            last_peer_activity: 0,
            stall_pokes: 0,
        };
        let mut covered = vec![false; len as usize];
        let mut grants = grant_steps.into_iter();
        loop {
            while let Some((off, l, retx)) = m.next_chunk(1_400) {
                prop_assert!(!retx);
                prop_assert!(l > 0);
                for b in off..off + l as u64 {
                    prop_assert!(!covered[b as usize], "byte {} sent twice", b);
                    covered[b as usize] = true;
                }
            }
            if m.fully_sent() {
                break;
            }
            match grants.next() {
                Some(g) => {
                    let new = (m.granted + g).min(len);
                    m.granted = new;
                    if new == m.granted && m.granted < len && new <= m.sent {
                        // No progress possible and no more grants coming.
                        if m.granted <= m.sent { continue; }
                    }
                }
                None => break,
            }
        }
        // Every byte sent at most once; bytes sent = m.sent.
        let sent_count = covered.iter().filter(|&&c| c).count() as u64;
        prop_assert_eq!(sent_count, m.sent);
    }

    #[test]
    fn tracker_cutoffs_always_valid(
        sizes in proptest::collection::vec(1u64..10_000_000, 1..200),
        unsched_override in proptest::option::of(1u8..8),
    ) {
        let mut t = TrafficTracker::new();
        for &s in &sizes {
            t.record(s, 9_700);
        }
        let cfg = HomaConfig { unsched_levels_override: unsched_override, ..HomaConfig::default() };
        let map = t.recompute(&cfg, 1);
        // Structural invariants.
        prop_assert!(map.unsched_levels >= 1);
        prop_assert!(map.unsched_levels < map.num_priorities);
        prop_assert_eq!(map.cutoffs.len() as u8, map.unsched_levels - 1);
        prop_assert!(map.cutoffs.windows(2).all(|w| w[0] < w[1]));
        // Every size maps into the unscheduled band.
        for &s in &sizes {
            let p = map.unsched_prio(s);
            prop_assert!(p >= map.num_priorities - map.unsched_levels);
            prop_assert!(p < map.num_priorities);
        }
        // Smaller size never gets lower priority.
        let mut prev = map.unsched_prio(1);
        for s in [10u64, 100, 1_000, 10_000, 100_000, 1_000_000] {
            let p = map.unsched_prio(s);
            prop_assert!(p <= prev);
            prev = p;
        }
    }
}
