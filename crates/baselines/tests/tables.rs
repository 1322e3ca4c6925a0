//! The positional flow tables of `homa_baselines::common` against the
//! hash tables they replaced. The reference copies below are the
//! `HashMap`/`HashSet`-backed `FlowTable` and `ReassemblyTable` the
//! baselines used before; both sides are driven by the same seeded op
//! stream and must give the same answer to every call. Each case builds
//! its whole stream from one seed, so a failure is a seed that fails
//! alone: `HOMA_FUZZ_REPLAY='tables:seed=<n>' cargo test -p homa-baselines --test tables`.

use homa::config::MAX_PAYLOAD;
use homa::messages::InboundMessage;
use homa::packets::PeerId;
use homa_baselines::common::{
    packets_for, payload_at, FlowId, FlowTable, ReassemblyTable, RxEntry, RxProgress,
};
use homa_harness::FuzzFamily;
use homa_sim::{AppEvent, HostId, TransportActions};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

const FAMILY: FuzzFamily = FuzzFamily::new("tables");

/// The sender-side table as it was: a map plus an insertion-order ring.
struct RefFlowTable<K, S> {
    map: HashMap<K, S>,
    ring: Vec<K>,
    rr_next: usize,
}

impl<K: Copy + Eq + Hash, S> RefFlowTable<K, S> {
    fn new() -> Self {
        RefFlowTable { map: HashMap::new(), ring: Vec::new(), rr_next: 0 }
    }

    fn insert(&mut self, key: K, state: S) {
        let prev = self.map.insert(key, state);
        assert!(prev.is_none(), "duplicate flow key");
        self.ring.push(key);
    }

    fn remove(&mut self, key: K) -> Option<S> {
        let state = self.map.remove(&key)?;
        if let Some(pos) = self.ring.iter().position(|&k| k == key) {
            self.ring.remove(pos);
            if pos < self.rr_next {
                self.rr_next -= 1;
            }
            if self.rr_next >= self.ring.len() {
                self.rr_next = 0;
            }
        }
        Some(state)
    }

    fn get_mut(&mut self, key: K) -> Option<&mut S> {
        self.map.get_mut(&key)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut S> {
        self.map.values_mut()
    }

    fn select_min<R: Ord>(&self, mut rank: impl FnMut(K, &S) -> Option<R>) -> Option<K> {
        self.map
            .iter()
            .filter_map(|(&k, s)| rank(k, s).map(|r| (r, k)))
            .min_by(|a, b| a.0.cmp(&b.0))
            .map(|(_, k)| k)
    }

    fn select_rr(&mut self, mut eligible: impl FnMut(K, &mut S) -> bool) -> Option<K> {
        let n = self.ring.len();
        for step in 0..n {
            let idx = (self.rr_next + step) % n;
            let key = self.ring[idx];
            let state = self.map.get_mut(&key).expect("ring key in map");
            if eligible(key, state) {
                self.rr_next = (idx + 1) % n;
                return Some(key);
            }
        }
        None
    }
}

/// The receiver-side table as it was: a map of flows in progress and a
/// set of delivered ones.
struct RefReassemblyTable<X> {
    flows: HashMap<FlowId, RxEntry<X>>,
    delivered: HashSet<FlowId>,
    delivered_bytes: u64,
}

impl<X> RefReassemblyTable<X> {
    fn new() -> Self {
        RefReassemblyTable { flows: HashMap::new(), delivered: HashSet::new(), delivered_bytes: 0 }
    }

    fn is_delivered(&self, flow: &FlowId) -> bool {
        self.delivered.contains(flow)
    }

    fn upsert_with(
        &mut self,
        flow: FlowId,
        msg_len: u64,
        tag: u64,
        now_ns: u64,
        mk_ext: impl FnOnce() -> X,
    ) -> Option<&mut RxEntry<X>> {
        if self.delivered.contains(&flow) {
            return None;
        }
        Some(self.flows.entry(flow).or_insert_with(|| RxEntry {
            msg: InboundMessage::new(flow.msg_key(), PeerId(flow.src.0), msg_len, now_ns),
            tag,
            ext: mk_ext(),
        }))
    }

    fn record(&mut self, flow: FlowId, offset: u64, payload: u32, tag: u64) -> RxProgress {
        let e = self.flows.get_mut(&flow).expect("record on unknown flow");
        if offset == 0 {
            e.tag = tag;
        }
        e.msg.record(offset, payload as u64);
        RxProgress { complete: e.msg.complete(), contiguous: e.msg.contiguous() }
    }

    fn deliver_if_complete(&mut self, flow: FlowId, act: &mut TransportActions) -> bool {
        let complete = self.flows.get(&flow).is_some_and(|e| e.msg.complete());
        if complete {
            let e = self.flows.remove(&flow).expect("checked above");
            let len = e.msg.len;
            self.delivered_bytes += len;
            self.delivered.insert(flow);
            act.event(AppEvent::MessageDelivered { src: flow.src, tag: e.tag, len });
        }
        complete
    }

    fn get(&self, flow: &FlowId) -> Option<&RxEntry<X>> {
        self.flows.get(flow)
    }

    fn get_mut(&mut self, flow: &FlowId) -> Option<&mut RxEntry<X>> {
        self.flows.get_mut(flow)
    }

    fn iter(&self) -> impl Iterator<Item = (&FlowId, &RxEntry<X>)> {
        self.flows.iter()
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut RxEntry<X>> {
        self.flows.values_mut()
    }

    fn any_incomplete(&self) -> bool {
        self.flows.values().any(|e| !e.msg.complete())
    }
}

/// What a test can see of one reassembly entry.
fn view(e: &RxEntry<u64>) -> (u64, u64, u64, bool, u64, u64) {
    (e.msg.len, e.msg.received(), e.msg.contiguous(), e.msg.complete(), e.tag, e.ext)
}

/// Inserts with ascending seqs and gaps, removals anywhere relative to
/// the round-robin cursor (and of flows that are gone), SRPT picks with
/// unique ranks, FIFO and round-robin picks, lookups and whole-table
/// updates: the same answers from both tables, every step.
#[test]
fn flow_table_answers_like_the_hash_table_it_replaced() {
    FAMILY.check_seeds("flow_table_answers_like_the_hash_table_it_replaced", |rng| {
        let src = HostId(rng.below(8) as u32);
        let mut new: FlowTable<u64> = FlowTable::new();
        let mut old: RefFlowTable<FlowId, u64> = RefFlowTable::new();
        // Every id ever inserted: removed ones stay, to be removed again.
        let mut ids: Vec<FlowId> = Vec::new();
        let mut next_seq = rng.range(0, 3);
        let modulus = rng.range(2, 5);
        for _ in 0..rng.range(1, 400) {
            match rng.below(8) {
                0 | 1 => {
                    let flow = FlowId { src, seq: next_seq };
                    next_seq += rng.range(1, 3);
                    let state = rng.below(20);
                    new.insert(flow, state);
                    old.insert(flow, state);
                    ids.push(flow);
                }
                2 if !ids.is_empty() => {
                    let flow = ids[rng.below(ids.len() as u64) as usize];
                    assert_eq!(new.remove(flow), old.remove(flow), "remove {flow:?}");
                }
                3 => {
                    // SRPT: the state is the remaining size, the seq the
                    // unique tie-break; picking sends some bytes.
                    let cut = rng.below(20);
                    let rank = |f: FlowId, &s: &u64| (s >= cut).then_some((s, f.seq));
                    let want = old.select_min(rank);
                    let got = new.select_min(rank);
                    assert_eq!(got.as_ref().map(|(f, _)| *f), want, "select_min above {cut}");
                    if let (Some((_, s)), Some(f)) = (got, want) {
                        *s /= 2;
                        *old.get_mut(f).expect("picked") /= 2;
                    }
                }
                4 => {
                    let residue = rng.below(modulus);
                    let ready = |s: &u64| s % modulus == residue;
                    let want = old.select_min(|f, s| ready(s).then_some(f.seq));
                    let got = new.select_first(ready);
                    assert_eq!(got.as_ref().map(|(f, _)| *f), want, "select_first");
                    if let (Some((_, s)), Some(f)) = (got, want) {
                        *s += 1;
                        *old.get_mut(f).expect("picked") += 1;
                    }
                }
                5 => {
                    // The eligibility check may change the state it looks
                    // at, as the transports' window checks may.
                    let residue = rng.below(modulus);
                    let mut looked = 0;
                    let got = new.select_rr(|_, s| {
                        looked += 1;
                        *s += 1;
                        *s % modulus == residue
                    });
                    let got = got.map(|(f, s)| {
                        *s *= 3;
                        f
                    });
                    let mut looked_old = 0;
                    let want = old.select_rr(|_, s| {
                        looked_old += 1;
                        *s += 1;
                        *s % modulus == residue
                    });
                    if let Some(f) = want {
                        *old.get_mut(f).expect("picked") *= 3;
                    }
                    assert_eq!(got, want, "select_rr");
                    assert_eq!(looked, looked_old, "select_rr looked at other flows");
                }
                6 => {
                    let bump = rng.below(3);
                    new.values_mut().for_each(|s| *s += bump);
                    old.values_mut().for_each(|s| *s += bump);
                }
                _ => {
                    let flow = FlowId { src, seq: rng.range(0, next_seq) };
                    assert_eq!(new.get_mut(flow).copied(), old.get_mut(flow).copied(), "{flow:?}");
                }
            }
            assert_eq!(new.len(), old.len());
            assert_eq!(new.is_empty(), old.len() == 0);
        }
        for flow in ids {
            assert_eq!(new.get_mut(flow).copied(), old.get_mut(flow).copied(), "end {flow:?}");
        }
    });
}

/// Packets of flows from a few sources, in any order: first contact,
/// records and deliveries out of order within one source, late
/// duplicates after delivery, zero-length flows, pHost's token pick and
/// whole-table sweeps. The same answers from both tables, every step.
#[test]
fn reassembly_table_answers_like_the_hash_tables_it_replaced() {
    FAMILY.check_seeds("reassembly_table_answers_like_the_hash_tables_it_replaced", |rng| {
        let mut new: ReassemblyTable<u64> = ReassemblyTable::new();
        let mut old: RefReassemblyTable<u64> = RefReassemblyTable::new();
        let (mut act_new, mut act_old) = (TransportActions::new(), TransportActions::new());
        let sources = rng.range(1, 5) as u32;
        let mut next_seq = vec![rng.below(3); sources as usize];
        // Every flow ever announced, with its length.
        let mut flows: Vec<(FlowId, u64)> = Vec::new();
        let mut now = 0;
        for _ in 0..rng.range(1, 500) {
            now += rng.below(1_000);
            match rng.below(10) {
                0 | 1 => {
                    let src = rng.below(sources as u64) as u32;
                    let flow = FlowId { src: HostId(src * 3), seq: next_seq[src as usize] };
                    next_seq[src as usize] += rng.range(1, 4);
                    let len = match rng.below(4) {
                        0 => 0,
                        1 => rng.range(1, MAX_PAYLOAD as u64),
                        _ => rng.range(1, 5 * MAX_PAYLOAD as u64),
                    };
                    flows.push((flow, len));
                }
                2..=5 if !flows.is_empty() => {
                    // A packet of a known flow; the pick is of any flow,
                    // so delivered ones bring late duplicates.
                    let (flow, len) = flows[rng.below(flows.len() as u64) as usize];
                    let offset = rng.below(packets_for(len)) * MAX_PAYLOAD as u64;
                    let payload = payload_at(len, offset);
                    let tag = rng.below(4);
                    let got = new.upsert_with(flow, len, tag, now, || now);
                    let want = old.upsert_with(flow, len, tag, now, || now).is_some();
                    assert_eq!(got.is_some(), want, "upsert {flow:?}");
                    let Some(mut slot) = got else { continue };
                    if rng.chance(3, 4) {
                        let p = slot.record(offset, payload, tag);
                        let q = old.record(flow, offset, payload, tag);
                        assert_eq!((p.complete, p.contiguous), (q.complete, q.contiguous));
                    }
                    assert_eq!(view(slot.entry()), view(old.get(&flow).expect("upserted")));
                    if rng.chance(3, 4) {
                        let delivered = slot.deliver_if_complete(&mut act_new);
                        assert_eq!(delivered, old.deliver_if_complete(flow, &mut act_old));
                    }
                }
                6 => {
                    // pHost's token pick, which then changes the pick.
                    let cut = rng.below(3 * MAX_PAYLOAD as u64);
                    let rank = |f: FlowId, e: &RxEntry<u64>| {
                        (e.msg.remaining() >= cut).then(|| (e.msg.remaining(), f))
                    };
                    let want = old.iter().filter_map(|(&f, e)| rank(f, e)).min().map(|(_, f)| f);
                    let got = new.select_min(rank);
                    assert_eq!(got.as_ref().map(|(f, _)| *f), want, "select_min above {cut}");
                    if let (Some((_, e)), Some(f)) = (got, want) {
                        e.ext += 7;
                        old.get_mut(&f).expect("picked").ext += 7;
                    }
                }
                7 => {
                    new.values_mut().for_each(|e| e.ext = e.ext / 2 + e.msg.received());
                    old.values_mut().for_each(|e| e.ext = e.ext / 2 + e.msg.received());
                }
                _ if !flows.is_empty() => {
                    let (flow, _) = flows[rng.below(flows.len() as u64) as usize];
                    assert_eq!(new.is_delivered(&flow), old.is_delivered(&flow), "{flow:?}");
                    assert_eq!(new.get(&flow).map(view), old.get(&flow).map(view), "{flow:?}");
                }
                _ => {}
            }
            assert_eq!(new.any_incomplete(), old.any_incomplete());
            assert_eq!(new.delivered_bytes(), old.delivered_bytes);
            assert_eq!(act_new.events(), act_old.events());
        }
        let walked: Vec<FlowId> = new.iter().map(|(f, _)| *f).collect();
        assert!(walked.is_sorted(), "flows walk in id order");
        assert_eq!(walked.len(), old.iter().count());
        for (flow, _) in flows {
            assert_eq!(new.is_delivered(&flow), old.is_delivered(&flow), "end {flow:?}");
            assert_eq!(new.get(&flow).map(view), old.get(&flow).map(view), "end {flow:?}");
        }
    });
}
