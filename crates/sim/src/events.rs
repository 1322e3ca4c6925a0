//! The discrete-event engine and its reference oracle.
//!
//! Events are totally ordered by `(time, sequence)`, where the sequence
//! number is assigned globally at insertion. Events scheduled for the same
//! instant therefore fire in insertion order, which makes runs fully
//! deterministic — the test suite and the reproducibility goals of the
//! repository depend on it.
//!
//! * [`HierEventQueue`] — the engine every [`crate::Network`] runs on: a
//!   timing wheel with one slot per nanosecond. The wheel covers
//!   `[base, base + WHEEL_NS)`, where `base` is the highest instant popped,
//!   and each slot is a FIFO of the events due at its instant, linked
//!   through a slab of nodes. `seq` is assigned at insertion, so a slot's
//!   insertion order *is* its `seq` order and nothing is ever sorted. A
//!   two-level occupancy bitmap (one bit per slot, one per 64 slots) finds
//!   the next occupied instant in a few word scans. Events at or beyond
//!   the horizon (retransmission timers, mostly) wait in the **far** heap
//!   of 24-byte `(time, seq, node)` keys. Each migrates into its slot as
//!   soon as a pop brings its instant inside the horizon: before any later
//!   insert can reach that instant, so it keeps its place ahead of them.
//!   Nothing is scheduled before `base`: the fabric never does, and
//!   `schedule` panics, naming the instant and `base`, if asked to.
//!
//!   A payload is written into a slab node at `schedule`, read at `pop`
//!   and never moved in between, whether its node is filed in a slot or
//!   in the far heap. Vacated nodes are reused last in first out: the
//!   slab is as long as the most events ever pending at once, and an
//!   insert writes the node a pop just read. An insert inside the horizon and a pop of
//!   the next instant's head are O(1) and compare no two events.
//! * [`EventQueue`] — a plain binary heap over the same `(time, seq)`
//!   key. Simple enough to trust by reading, which is why it stays: it
//!   is the oracle the wheel is checked against.
//!
//! ## The debug-build oracle
//!
//! Both queues assign `seq` at insertion, so agreeing on the pop order
//! is a property of the queue alone. In every build with
//! `debug_assertions` on — `cargo test`, and the optimized CI fuzz and
//! determinism jobs, which set `CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS` —
//! a [`HierEventQueue`] carries a shadow [`EventQueue`]: `schedule`
//! mirrors each `(time, seq)` key into it, and every `pop` /
//! `pop_if_before` requires the wheel's answer to be the heap's
//! minimum (and a bounded miss to be a miss on the heap too). The first
//! disagreement panics, naming where the run broke:
//!
//! ```text
//! engine diverged at t=1280ns: wheel popped (1536ns, seq 7), oracle (1280ns, seq 9)
//! ```
//!
//! Read it as: the oracle's pair is the event that *should* have fired
//! at `t`; the wheel's pair is what it produced instead (or
//! `nothing`, for a bounded pop that missed an event that was due). So
//! every test and fuzz run is also an engine-order run. Builds without
//! debug assertions carry no shadow field and no check. The oracle keeps
//! its own `(time, seq)` entries and knows nothing of nodes: it judges the
//! order of keys. That a key comes back with *its own* payload is what
//! `hier_matches_flat_on_random_interleavings` checks.
//!
//! ## Lanes
//!
//! The constructor takes a lane count and `schedule` a [`LaneId`], left
//! from an engine that ran groups of fabric nodes in parallel. The wheel
//! is global, so a lane orders nothing: `schedule` range-checks it and
//! drops it. [`crate::Network`] builds its queue with one lane and
//! schedules everything on it; the parameter stays only because the
//! frozen `benchmark/` passes one (ROADMAP removes it when the benchmark
//! is next opened).

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Opaque token identifying a timer registered by a transport or the
/// experiment driver. The meaning of the value is private to whoever
/// scheduled it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerToken(pub u64);

/// Identifies one event lane of a [`HierEventQueue`]: a dense index below
/// the lane count the engine was built with. The engine range-checks the
/// tag and nothing else (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LaneId(pub u32);

/// The wheel's span in nanoseconds, one slot each. It covers every
/// regular fabric delay — at most 1.2 µs of serialization at 10 Gb/s, the
/// 1.5 µs host delay, 250 ns per switch — so only timers go far.
const WHEEL_NS: u64 = 1 << 13;
/// Words of the slot-occupancy bitmap.
const WORDS: usize = (WHEEL_NS / 64) as usize;
/// The end of a slot's list.
const NIL: u32 = u32::MAX;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// What the far heap orders: an event's `(time, seq)` place in the total
/// order and the slab node its payload waits in. `seq` is unique, so the
/// derived ordering never reaches `node`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    node: u32,
}

/// A slab node: one pending payload and the next node of its slot.
struct Node<E> {
    next: u32,
    payload: Option<E>,
    /// The event's `seq`, which only the oracle reads.
    #[cfg(debug_assertions)]
    seq: u64,
}

/// A deterministic min-heap of timestamped events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedule `payload` to fire at `at`. Events at equal times fire in the
    /// order they were scheduled.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Remove and return the earliest event if it fires at or before `t`:
    /// one heap probe instead of the `peek_time`-then-`pop` pair the
    /// dispatch loops used to do.
    pub fn pop_if_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek()?.at > t {
            return None;
        }
        self.pop()
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Counters describing how the wheel behaved over a run; exposed for
/// `perf-smoke` output and engine tuning. The frozen `benchmark/` reads
/// these field names, so they keep the names of an epoch calendar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of event lanes the engine was built with.
    pub lanes: u32,
    /// Width of a wheel slot in nanoseconds: 1.
    pub bucket_width_ns: u64,
    /// Events inserted into the wheel (the O(1) path).
    pub bucket_events: u64,
    /// Always 0: nothing is scheduled before the highest instant popped.
    /// Kept because the frozen `benchmark/` reads it.
    pub late_events: u64,
    /// Events inserted at or beyond the wheel's horizon, into the far
    /// heap (far-future timers).
    pub far_events: u64,
    /// Distinct instants popped.
    pub epochs_merged: u64,
    /// Most events popped at one instant.
    pub max_epoch_events: u64,
}

/// The timing-wheel event engine: one FIFO per nanosecond over a
/// `WHEEL_NS` horizon and a far heap beyond it, both over one payload
/// slab. Same `(time, seq)` total order as [`EventQueue`], but neither an
/// insert nor a pop on the hot path compares two events.
pub struct HierEventQueue<E> {
    /// The highest instant popped: the wheel holds `[base, base + WHEEL_NS)`.
    base: u64,
    /// `(head, tail)` node of each slot's FIFO, `NIL` when empty; the
    /// events due at instant `t` are in slot `t % WHEEL_NS`.
    slots: Vec<(u32, u32)>,
    /// One bit per slot, set while the slot is occupied.
    occupied: [u64; WORDS],
    /// One bit per word of `occupied`, set while the word is nonzero.
    summary: [u64; WORDS / 64],
    /// Keys at or beyond the horizon, min first.
    far: BinaryHeap<Reverse<Key>>,
    /// The payload slab: a node's payload is `Some` from `schedule` to
    /// `pop` and never moves in between.
    nodes: Vec<Node<E>>,
    /// Vacant nodes, last in first out.
    free: Vec<u32>,
    next_seq: u64,
    /// The latest instant popped and how many events it has popped.
    instant: (Option<SimTime>, u64),
    stats: EngineStats,
    /// The reference heap, fed the same `(time, seq)` keys (its payload
    /// is the wheel's `seq`) and popped in lockstep; see the module docs.
    #[cfg(debug_assertions)]
    oracle: EventQueue<u64>,
}

impl<E> HierEventQueue<E> {
    /// An empty engine with `lanes` event lanes.
    pub fn new(lanes: u32) -> Self {
        assert!(lanes >= 1, "need at least one lane");
        HierEventQueue {
            base: 0,
            slots: vec![(NIL, NIL); WHEEL_NS as usize],
            occupied: [0; WORDS],
            summary: [0; WORDS / 64],
            far: BinaryHeap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            instant: (None, 0),
            stats: EngineStats { lanes, bucket_width_ns: 1, ..EngineStats::default() },
            #[cfg(debug_assertions)]
            oracle: EventQueue::new(),
        }
    }

    /// Schedule `payload` on `lane` at `at`. Events at equal times fire in
    /// the order they were scheduled, across all lanes.
    ///
    /// # Panics
    /// If `lane` is out of range for this engine, or `at` is before the
    /// highest instant popped.
    // Forced: every fabric handler schedules, and its event should go
    // straight into the slab node rather than through a call's arguments.
    #[inline(always)]
    pub fn schedule(&mut self, lane: LaneId, at: SimTime, payload: E) {
        assert!(
            lane.0 < self.stats.lanes,
            "lane {} out of range ({} lanes)",
            lane.0,
            self.stats.lanes
        );
        // Hot path first: one wrapping compare covers the whole horizon
        // (an instant before `base` wraps to a huge value).
        let t = at.as_nanos();
        let in_wheel = t.wrapping_sub(self.base) < WHEEL_NS;
        assert!(
            in_wheel || t >= self.base,
            "event scheduled at {t}ns, before the latest instant popped ({}ns)",
            self.base
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        #[cfg(debug_assertions)]
        self.oracle.schedule(at, seq);
        // The payload goes into the node most recently vacated, else a new
        // one at the end, and stays there until it is popped.
        let node = Node {
            next: NIL,
            payload: Some(payload),
            #[cfg(debug_assertions)]
            seq,
        };
        let node = match self.free.pop() {
            Some(i) => {
                debug_assert!(self.nodes[i as usize].payload.is_none(), "vacant node is occupied");
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                u32::try_from(self.nodes.len() - 1).expect("over u32::MAX events pending")
            }
        };
        if in_wheel {
            self.link(t, node);
            self.stats.bucket_events += 1;
        } else {
            self.far.push(Reverse(Key { at, seq, node }));
            self.stats.far_events += 1;
        }
    }

    /// Append `node` to the FIFO of instant `t`, which is inside the horizon.
    #[inline(always)]
    fn link(&mut self, t: u64, node: u32) {
        let s = (t % WHEEL_NS) as usize;
        let tail = self.slots[s].1;
        if tail == NIL {
            self.slots[s].0 = node;
            self.occupied[s / 64] |= 1 << (s % 64);
            self.summary[s / 4096] |= 1 << (s / 64 % 64);
        } else {
            self.nodes[tail as usize].next = node;
        }
        self.slots[s].1 = node;
    }

    /// The first occupied slot at or after `from`, without wrapping.
    fn occupied_from(&self, from: usize) -> Option<usize> {
        let w = from / 64;
        let bits = self.occupied[w] & (u64::MAX << (from % 64));
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        let from = w + 1;
        let w = (from / 64..self.summary.len()).find_map(|i| {
            let bits = self.summary[i] & if i == from / 64 { u64::MAX << (from % 64) } else { !0 };
            (bits != 0).then(|| i * 64 + bits.trailing_zeros() as usize)
        })?;
        Some(w * 64 + self.occupied[w].trailing_zeros() as usize)
    }

    /// The wheel's earliest instant and its slot.
    fn wheel_head(&self) -> Option<(u64, usize)> {
        let b = (self.base % WHEEL_NS) as usize;
        let s = self.occupied_from(b).or_else(|| self.occupied_from(0))?;
        Some((self.base + (s as u64 + WHEEL_NS - b as u64) % WHEEL_NS, s))
    }

    /// Move `base` up to `to` and bring every far key the new horizon
    /// covers into its slot, in `(time, seq)` order.
    fn advance(&mut self, to: u64) {
        self.base = to;
        while let Some(&Reverse(k)) = self.far.peek() {
            if k.at.as_nanos() - to >= WHEEL_NS {
                break;
            }
            self.far.pop();
            self.link(k.at.as_nanos(), k.node);
        }
    }

    /// Pick the earliest event if it fires at or before `bound` and take
    /// its node off the wheel.
    fn pop_node(&mut self, bound: Option<SimTime>) -> Option<(SimTime, u32)> {
        let due = |at: u64| bound.is_none_or(|b| at <= b.as_nanos());
        let (t, s) = match self.wheel_head() {
            Some(head) => head,
            None => {
                // An empty wheel: jump to the first far instant, if due.
                let t = self.far.peek()?.0.at.as_nanos();
                if !due(t) {
                    return None;
                }
                self.advance(t);
                self.wheel_head().expect("the far minimum migrated")
            }
        };
        if !due(t) {
            return None;
        }
        if t > self.base {
            self.advance(t);
        }
        let (node, _) = self.slots[s];
        let next = self.nodes[node as usize].next;
        self.slots[s].0 = next;
        if next == NIL {
            self.slots[s].1 = NIL;
            self.occupied[s / 64] &= !(1 << (s % 64));
            if self.occupied[s / 64] == 0 {
                self.summary[s / 4096] &= !(1 << (s / 64 % 64));
            }
        }
        Some((SimTime::from_nanos(t), node))
    }

    /// The pop every public variant builds on: [`Self::pop_node`] picks
    /// the event, debug builds check it against the oracle, and its
    /// payload leaves the slab.
    #[inline]
    fn pop_bounded(&mut self, bound: Option<SimTime>) -> Option<(SimTime, E)> {
        let got = self.pop_node(bound);
        #[cfg(debug_assertions)]
        self.check_against_oracle(bound, got.map(|(at, n)| (at, self.nodes[n as usize].seq)));
        let (at, node) = got?;
        if self.instant.0 != Some(at) {
            self.instant = (Some(at), 0);
            self.stats.epochs_merged += 1;
        }
        self.instant.1 += 1;
        self.stats.max_epoch_events = self.stats.max_epoch_events.max(self.instant.1);
        let payload = self.nodes[node as usize].payload.take().expect("a pending node is full");
        self.free.push(node);
        Some((at, payload))
    }

    /// Pop the oracle in lockstep and require it to agree with what the
    /// wheel just returned for the same `bound`.
    #[cfg(debug_assertions)]
    fn check_against_oracle(&mut self, bound: Option<SimTime>, got: Option<(SimTime, u64)>) {
        let want = match bound {
            Some(t) => self.oracle.pop_if_before(t),
            None => self.oracle.pop(),
        };
        if got != want {
            let show = |e: Option<(SimTime, u64)>| match e {
                Some((at, seq)) => format!("({}ns, seq {seq})", at.as_nanos()),
                None => "nothing".to_string(),
            };
            let t = want.or(got).map_or(0, |(at, _)| at.as_nanos());
            panic!("engine diverged at t={t}ns: wheel popped {}, oracle {}", show(got), show(want));
        }
    }

    /// Remove and return the earliest event across all lanes.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_bounded(None)
    }

    /// Remove and return the earliest event if it fires at or before `t`.
    pub fn pop_if_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        self.pop_bounded(Some(t))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        match self.wheel_head() {
            Some((t, _)) => Some(SimTime::from_nanos(t)),
            None => self.far.peek().map(|k| k.0.at),
        }
    }

    /// Number of pending events across all lanes.
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Behavior counters accumulated so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Corrupt the wheel by swapping the FIFOs of its next two occupied
    /// instants, so a test can show the oracle catches a wheel that pops
    /// out of order.
    #[cfg(test)]
    fn swap_next_two_instants(&mut self) {
        let (_, a) = self.wheel_head().expect("an instant pending");
        let b = self.occupied_from(a + 1).expect("a second instant pending");
        self.slots.swap(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_time_tracks_minimum() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_nanos(9), ());
        q.schedule(SimTime::from_nanos(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_is_deterministic() {
        // Two independently-built queues with the same operations produce
        // the same sequence.
        let run = || {
            let mut q = EventQueue::new();
            let mut out = Vec::new();
            q.schedule(SimTime::from_nanos(4), 1);
            q.schedule(SimTime::from_nanos(4), 2);
            out.push(q.pop().unwrap().1);
            q.schedule(SimTime::from_nanos(4), 3);
            q.schedule(SimTime::from_nanos(2), 4);
            while let Some((_, v)) = q.pop() {
                out.push(v);
            }
            out
        };
        assert_eq!(run(), run());
        assert_eq!(run(), vec![1, 4, 2, 3]);
    }

    #[test]
    fn pop_if_before_respects_threshold() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop_if_before(SimTime::from_nanos(5)), None);
        assert_eq!(q.pop_if_before(SimTime::from_nanos(10)), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(q.pop_if_before(SimTime::from_nanos(15)), None);
        assert_eq!(q.pop_if_before(SimTime::from_nanos(25)), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(q.pop_if_before(SimTime::MAX), None);
    }

    #[test]
    fn hier_pops_in_time_order_across_lanes() {
        let mut q = HierEventQueue::new(3);
        q.schedule(LaneId(0), SimTime::from_nanos(30), "c");
        q.schedule(LaneId(1), SimTime::from_nanos(10), "a");
        q.schedule(LaneId(2), SimTime::from_nanos(20), "b");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn hier_equal_times_fire_in_insertion_order_across_lanes() {
        let mut q = HierEventQueue::new(4);
        let t = SimTime::from_nanos(5);
        for i in 0..100u32 {
            q.schedule(LaneId(i % 4), t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn hier_horizon_edges_file_into_wheel_or_far_heap() {
        // From base 0 the wheel covers [0, WHEEL_NS): its last instant is
        // a wheel insert, the horizon itself and anything beyond go far.
        let mut q = HierEventQueue::new(1);
        q.schedule(LaneId(0), SimTime::from_nanos(WHEEL_NS + 5), "beyond");
        q.schedule(LaneId(0), SimTime::from_nanos(WHEEL_NS), "horizon");
        q.schedule(LaneId(0), SimTime::from_nanos(WHEEL_NS - 1), "last");
        q.schedule(LaneId(0), SimTime::from_nanos(3), "first");
        let s = q.stats();
        assert_eq!((s.bucket_events, s.far_events, s.late_events), (2, 2, 0));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        let order: Vec<_> =
            std::iter::from_fn(|| q.pop()).map(|(at, v)| (at.as_nanos(), v)).collect();
        assert_eq!(
            order,
            [(3, "first"), (WHEEL_NS - 1, "last"), (WHEEL_NS, "horizon"), (WHEEL_NS + 5, "beyond")]
        );
        // Popping 3 brought WHEEL_NS inside the horizon and popping
        // WHEEL_NS - 1 brought WHEEL_NS + 5: both far keys migrated, into
        // slots 0 and 5 of the wrapped wheel, and popped from there.
        assert!(q.is_empty());
    }

    #[test]
    fn hier_far_timer_keeps_its_place_ahead_of_a_later_insert_at_its_instant() {
        let mut q = HierEventQueue::new(1);
        let t = 3 * WHEEL_NS;
        q.schedule(LaneId(0), SimTime::from_nanos(t), "timer");
        q.schedule(LaneId(0), SimTime::from_nanos(t - WHEEL_NS + 1), "step");
        assert_eq!(q.stats().far_events, 2);
        // Popping `step` brings `t` inside the horizon: the timer migrates
        // into its slot before the next insert can reach that instant.
        assert_eq!(q.pop(), Some((SimTime::from_nanos(t - WHEEL_NS + 1), "step")));
        q.schedule(LaneId(0), SimTime::from_nanos(t), "later");
        assert_eq!(q.stats().bucket_events, 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(t), "timer")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(t), "later")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn hier_far_future_events_beyond_the_horizon() {
        let mut q = HierEventQueue::new(2);
        q.schedule(LaneId(0), SimTime::from_nanos(WHEEL_NS * 5), "far");
        q.schedule(LaneId(1), SimTime::from_nanos(10), "near");
        q.schedule(LaneId(0), SimTime::from_nanos(WHEEL_NS * 5 + 1), "far2");
        q.schedule(LaneId(1), SimTime::MAX, "end of time");
        assert_eq!(q.stats().far_events, 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(WHEEL_NS * 5)));
        // A bounded miss leaves both far keys where they are.
        assert_eq!(q.pop_if_before(SimTime::from_nanos(WHEEL_NS * 5 - 1)), None);
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop().unwrap().1, "far2");
        assert_eq!(q.pop(), Some((SimTime::MAX, "end of time")));
        assert_eq!(q.pop(), None);
    }

    /// The wheel and the reference heap must pop identical sequences
    /// for identical schedule calls — compared from outside, value by
    /// value, on top of the built-in shadow check — with `payload(i)` as
    /// the `i`th event's payload.
    fn matches_flat_with<E: PartialEq + std::fmt::Debug>(payload: impl Fn(u64) -> E) {
        let mut lcg = 0xDEAD_BEEFu64;
        let mut next = move || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut flat: EventQueue<E> = EventQueue::new();
        let mut hier: HierEventQueue<E> = HierEventQueue::new(7);
        let (mut popped, mut base) = (0u64, 0);
        let mut peak_len = 0;
        for i in 0..5_000u64 {
            let r = next();
            if r % 3 != 0 || flat.is_empty() {
                let lane = LaneId((r % 7) as u32);
                // Times up to three horizons past the latest pop: wheel
                // and far inserts alike.
                let at = SimTime::from_nanos(base + r % (3 * WHEEL_NS));
                flat.schedule(at, payload(i));
                hier.schedule(lane, at, payload(i));
            } else {
                let got = if r % 2 == 0 {
                    popped += 1;
                    let got = hier.pop();
                    assert_eq!(flat.pop(), got);
                    got
                } else {
                    let t = SimTime::from_nanos(base + next() % (3 * WHEEL_NS));
                    let got = hier.pop_if_before(t);
                    assert_eq!(flat.pop_if_before(t), got);
                    got
                };
                if let Some((at, _)) = got {
                    base = at.as_nanos();
                }
            }
            assert_eq!(flat.len(), hier.len());
            assert_eq!(flat.peek_time(), hier.peek_time());
            peak_len = peak_len.max(hier.len());
        }
        while let Some(got) = hier.pop() {
            assert_eq!(Some(got), flat.pop());
            popped += 1;
        }
        assert_eq!(flat.pop(), None);
        assert!(popped > 1_000, "exercised only {popped} pops");
        let s = hier.stats();
        assert!(s.bucket_events > 1_000 && s.far_events > 100, "{s:?}");
        assert_eq!(s.late_events, 0);
        // Vacated nodes were reused: the slab is no longer than the most
        // events ever pending, and a drained one is all vacant, with every
        // slot and occupancy bit clear.
        assert!(hier.nodes.len() <= peak_len, "{} nodes for {peak_len}", hier.nodes.len());
        assert_eq!(hier.free.len(), hier.nodes.len(), "a drained slab is all vacant");
        assert!(hier.nodes.iter().all(|n| n.payload.is_none()));
        assert!(hier.slots.iter().all(|&s| s == (NIL, NIL)), "a drained slot kept a node");
        assert!(hier.occupied.iter().chain(&hier.summary).all(|&w| w == 0));
    }

    #[test]
    fn hier_matches_flat_on_random_interleavings() {
        matches_flat_with(|i| i);
        // A payload that owns memory and differs from every other in
        // bytes (the low two carry `i`) and from its neighbours in length:
        // a key that came back with another event's slot would show.
        matches_flat_with(|i| i.to_le_bytes()[..2 + (i % 7) as usize].to_vec());
    }

    #[test]
    fn hier_stats_track_bucket_population() {
        let mut q = HierEventQueue::new(2);
        // Ten events at four instants, one beyond the horizon.
        for (i, ns) in
            [300, 300, 300, 310, 310, 320, 300, 310, 300, WHEEL_NS + 7].iter().enumerate()
        {
            q.schedule(LaneId(0), SimTime::from_nanos(*ns), i);
        }
        let s = q.stats();
        assert_eq!(s.lanes, 2);
        assert_eq!(s.bucket_width_ns, 1);
        assert_eq!((s.bucket_events, s.far_events, s.late_events), (9, 1, 0));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(300), 0)));
        // At the last instant popped: still a wheel insert, behind the
        // four still due there.
        q.schedule(LaneId(0), SimTime::from_nanos(300), 10);
        assert_eq!(q.stats().bucket_events, 10);
        while q.pop().is_some() {}
        let s = q.stats();
        // 300, 310, 320 and the far one; six events at 300.
        assert_eq!(s.epochs_merged, 4);
        assert_eq!(s.max_epoch_events, 6);
        assert_eq!(s.late_events, 0);
    }

    #[test]
    #[should_panic(expected = "event scheduled at 299ns, before the latest instant popped (300ns)")]
    fn a_schedule_before_the_latest_pop_panics() {
        let mut q = HierEventQueue::new(1);
        q.schedule(LaneId(0), SimTime::from_nanos(300), ());
        q.pop();
        q.schedule(LaneId(0), SimTime::from_nanos(299), ());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "engine diverged at t=2020ns: wheel popped (2020ns, seq 2), oracle (2020ns, seq 1)"
    )]
    fn oracle_catches_a_calendar_that_pops_out_of_order() {
        let mut q = HierEventQueue::new(1);
        for (i, ns) in [2010, 2020, 2030].into_iter().enumerate() {
            q.schedule(LaneId(0), SimTime::from_nanos(ns), i);
        }
        // What is left after the first pop is swapped behind the oracle's
        // back: instant 2020 now holds the event due at 2030.
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2010), 0)));
        q.swap_next_two_instants();
        q.pop();
    }
}
