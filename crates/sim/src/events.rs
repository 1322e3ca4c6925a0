//! The discrete-event engine and its reference oracle.
//!
//! Events are totally ordered by `(time, sequence)`, where the sequence
//! number is assigned globally at insertion. Events scheduled for the same
//! instant therefore fire in insertion order, which makes runs fully
//! deterministic — the test suite and the reproducibility goals of the
//! repository depend on it.
//!
//! * [`HierEventQueue`] — the engine every [`crate::Network`] runs on: a
//!   calendar-bucketed queue that makes 100+ host fabrics affordable.
//!   Time is divided into fixed-width *epochs* (the width is sized from
//!   the fabric's minimum link delay, rounded to a power of two so the
//!   epoch of a timestamp is one shift). It is built from three parts:
//!
//!   * **Keys.** What the calendar orders is a 24-byte key
//!     `(time, seq, slot)`: an event's place in the total order plus the
//!     index of its payload. A pending key sits in one of four places: a
//!     ring of *buckets*, one per near-future epoch, absorbing the
//!     overwhelmingly common insert in O(1) (unsorted append); a *far*
//!     spill heap for timers beyond the ring horizon (`RING_EPOCHS` ×
//!     width ahead — retransmission timers, mostly); the *current run* —
//!     when an epoch becomes current its bucket is sorted once by
//!     `(time, seq)`, the bucket-synchronized merge, and then served by
//!     popping from the end of the run in O(1); or a small *late* heap
//!     for events that land at or below the current epoch after its
//!     merge (same-instant timers, back-to-back `TxDone`s), compared
//!     against the run head on every pop.
//!   * **The payload slab.** A payload (136 bytes for a fabric event) is
//!     written into a slab slot at `schedule`, read at `pop` and never
//!     moved in between, so the append, the sort and both heaps shuffle
//!     24 bytes per event whatever `E` is. Vacated slots are reused
//!     last-in-first-out: the slab is as long as the most events ever
//!     pending at once, and an insert writes the slot a pop just read.
//!   * **The spare list.** A merged epoch's spent key buffer goes onto a
//!     last-in-first-out spare list and the next ring slot that turns
//!     non-empty takes it from there, so the buffers in use number the
//!     epochs that are non-empty at once (tens), not the ring's 4,096
//!     slots, and the one handed out is the one most recently touched.
//!
//!   `pop_if_before` on the hot dispatch path is therefore O(1)
//!   amortized — a comparison against the run tail plus the one-time
//!   sort share of each event — where a single heap pays `O(log n)` of
//!   the *total* pending population.
//! * [`EventQueue`] — a plain binary heap over the same `(time, seq)`
//!   key. Simple enough to trust by reading, which is why it stays: it
//!   is the oracle the calendar is checked against.
//!
//! ## The debug-build oracle
//!
//! Both queues assign `seq` at insertion, so agreeing on the pop order
//! is a property of the queue alone. In every build with
//! `debug_assertions` on — `cargo test`, and the optimized CI fuzz and
//! determinism jobs, which set `CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS` —
//! a [`HierEventQueue`] carries a shadow [`EventQueue`]: `schedule`
//! mirrors each `(time, seq)` key into it, and every `pop` /
//! `pop_if_before` requires the calendar's answer to be the heap's
//! minimum (and a bounded miss to be a miss on the heap too). The first
//! disagreement panics, naming where the run broke:
//!
//! ```text
//! engine diverged at t=1280ns: calendar popped (1536ns, seq 7), oracle (1280ns, seq 9)
//! ```
//!
//! Read it as: the oracle's pair is the event that *should* have fired
//! at `t`; the calendar's pair is what the bucket structure produced
//! instead (or `nothing`, for a bounded pop that missed an event that
//! was due). So every test and fuzz run is also an engine-order run.
//! Builds without debug assertions carry no shadow field and no check.
//! The oracle keeps its own `(time, seq)` entries and knows nothing of
//! slots: it judges the order of keys. That a key comes back with *its
//! own* payload is what `hier_matches_flat_on_random_interleavings` checks.
//!
//! ## Lanes
//!
//! The constructors take a lane count and `schedule` a [`LaneId`], left
//! from an engine that ran groups of fabric nodes in parallel. The
//! calendar is global, so a lane orders nothing: `schedule` range-checks
//! it and drops it. [`crate::Network`] builds its queue with one lane and
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

/// Number of near-future epochs the calendar ring covers. Events beyond
/// `RING_EPOCHS * width` nanoseconds ahead spill to the far heap until
/// their epoch comes within reach of becoming current. Sized so a deep
/// steady state on a *small* fabric (fewer nodes → a wider pending-time
/// span per event population) still fits in the ring: 4096 × 256 ns ≈
/// 1 ms of horizon, while the ring's empty slots cost only pointers.
const RING_EPOCHS: u64 = 4096;

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

/// What the calendar orders: an event's `(time, seq)` place in the total
/// order and the slab slot its payload waits in. `seq` is unique, so the
/// derived ordering never reaches `slot`. 24 bytes whatever the payload.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
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

/// Counters describing how the calendar engine behaved over a run;
/// exposed for `perf-smoke` output and engine tuning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of event lanes the engine was built with.
    pub lanes: u32,
    /// Calendar bucket width in nanoseconds.
    pub bucket_width_ns: u64,
    /// Events inserted into a near-future ring bucket (the O(1) path).
    pub bucket_events: u64,
    /// Events that landed at or below the already-merged current epoch
    /// and went to the late heap (same-instant timers, back-to-back
    /// transmissions).
    pub late_events: u64,
    /// Events beyond the ring horizon that spilled to the far heap
    /// (far-future timers).
    pub far_events: u64,
    /// Epochs merged into a current run (bucket sort + reverse).
    pub epochs_merged: u64,
    /// Largest single merged epoch population.
    pub max_epoch_events: u64,
}

/// The calendar-bucketed event engine: a ring of epoch buckets merged one
/// epoch at a time, with a late heap for intra-epoch arrivals and a far
/// heap for timers beyond the ring horizon, all ordering 24-byte keys over
/// one payload slab. Same `(time, seq)` total order as [`EventQueue`],
/// but the hot pop is a tail comparison instead of a heap probe over
/// every pending event.
pub struct HierEventQueue<E> {
    /// Epoch width is `1 << shift` nanoseconds.
    shift: u32,
    /// The epoch currently merged into `current`/served by `late`.
    cur_epoch: u64,
    /// The current epoch's keys, sorted *descending* by `(time, seq)`
    /// so the minimum pops from the back in O(1).
    current: Vec<Key>,
    /// Keys at or below the current epoch that arrived after its merge.
    late: BinaryHeap<Reverse<Key>>,
    /// Near-future buckets, indexed by `epoch % RING_EPOCHS`. A slot is
    /// owned by exactly one epoch at a time, and holds a buffer only
    /// while it is non-empty: it takes one from `spare` when its first
    /// key arrives and gives it up when its epoch is merged.
    ring: Vec<Vec<Key>>,
    /// Spent (empty, capacity-bearing) key buffers, last in first out.
    spare: Vec<Vec<Key>>,
    /// Nonempty ring epochs, min first. An epoch is pushed exactly once
    /// (when its slot turns nonempty) and popped exactly once (when it is
    /// merged), so there are no stale entries to skip.
    active: BinaryHeap<Reverse<u64>>,
    /// Keys beyond the ring horizon; merged directly when their epoch
    /// becomes current.
    far: BinaryHeap<Reverse<Key>>,
    /// The payload slab: `payloads[key.slot]` is `Some` from `schedule`
    /// to `pop` and never moves in between.
    payloads: Vec<Option<E>>,
    /// Vacant slab slots, last in first out.
    free: Vec<u32>,
    next_seq: u64,
    len: usize,
    stats: EngineStats,
    /// The reference heap, fed the same `(time, seq)` keys (its payload
    /// is the calendar's `seq`) and popped in lockstep; see the module
    /// docs.
    #[cfg(debug_assertions)]
    oracle: EventQueue<u64>,
}

impl<E> HierEventQueue<E> {
    /// An empty engine with `lanes` event lanes and the default 256 ns
    /// bucket width.
    pub fn new(lanes: u32) -> Self {
        Self::with_bucket_width(lanes, 256)
    }

    /// An empty engine with `lanes` lanes and epoch buckets of
    /// `width_ns` nanoseconds, rounded up to a power of two (fabrics pass
    /// their minimum link delay here — 250 ns on the paper fabric, so
    /// buckets are 256 ns wide).
    pub fn with_bucket_width(lanes: u32, width_ns: u64) -> Self {
        assert!(lanes >= 1, "need at least one lane");
        let shift = width_ns.max(1).next_power_of_two().trailing_zeros().min(30);
        HierEventQueue {
            shift,
            cur_epoch: 0,
            current: Vec::new(),
            late: BinaryHeap::new(),
            ring: (0..RING_EPOCHS).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            active: BinaryHeap::new(),
            far: BinaryHeap::new(),
            payloads: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            len: 0,
            stats: EngineStats { lanes, bucket_width_ns: 1 << shift, ..EngineStats::default() },
            #[cfg(debug_assertions)]
            oracle: EventQueue::new(),
        }
    }

    fn epoch_of(&self, at: SimTime) -> u64 {
        at.as_nanos() >> self.shift
    }

    /// Schedule `payload` on `lane` at `at`. Events at equal times fire in
    /// the order they were scheduled, across all lanes.
    ///
    /// # Panics
    /// If `lane` is out of range for this engine.
    pub fn schedule(&mut self, lane: LaneId, at: SimTime, payload: E) {
        assert!(
            lane.0 < self.stats.lanes,
            "lane {} out of range ({} lanes)",
            lane.0,
            self.stats.lanes
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        #[cfg(debug_assertions)]
        self.oracle.schedule(at, seq);
        // The payload goes into the slab slot most recently vacated, else
        // a new one at the end, and stays there until it is popped.
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.payloads.push(None);
                u32::try_from(self.payloads.len() - 1).expect("over u32::MAX events pending")
            }
        };
        debug_assert!(self.payloads[slot as usize].is_none(), "vacant slot is occupied");
        self.payloads[slot as usize] = Some(payload);
        let key = Key { at, seq, slot };
        let e = self.epoch_of(at);
        // Hot path first: one wrapping compare covers the whole ring
        // window `cur_epoch < e < cur_epoch + RING_EPOCHS` (an epoch at
        // or below `cur_epoch` wraps to a huge value and falls through).
        if e.wrapping_sub(self.cur_epoch.wrapping_add(1)) < RING_EPOCHS - 1 {
            let bucket = &mut self.ring[(e % RING_EPOCHS) as usize];
            if bucket.is_empty() {
                // An empty slot holds no buffer; the most recently spent
                // one is the likeliest to still be in cache.
                if let Some(buf) = self.spare.pop() {
                    *bucket = buf;
                }
                self.active.push(Reverse(e));
            }
            debug_assert!(
                bucket.first().is_none_or(|k| k.at.as_nanos() >> self.shift == e),
                "ring slot epoch collision"
            );
            bucket.push(key);
            self.stats.bucket_events += 1;
        } else if e <= self.cur_epoch {
            // At or below the merged epoch: joins the late heap and is
            // compared against the current run head on every pop, so
            // ordering stays exact even for "past" inserts.
            self.late.push(Reverse(key));
            self.stats.late_events += 1;
        } else {
            self.far.push(Reverse(key));
            self.stats.far_events += 1;
        }
        self.len += 1;
    }

    /// Advance to the next nonempty epoch and merge its bucket (plus any
    /// far events that fall in it) into the current run. No-op while the
    /// current epoch still has events to serve, and — crucially — never
    /// advances *past* `bound_epoch`: a bounded pop that finds only a
    /// far-future timer must not drag `cur_epoch` forward, or every
    /// near-term insert until simulated time caught up would land in the
    /// O(log n) late heap instead of an O(1) ring bucket.
    #[inline]
    fn ensure_current(&mut self, bound_epoch: Option<u64>) {
        if !self.current.is_empty() || !self.late.is_empty() || self.len == 0 {
            return;
        }
        self.advance_epoch(bound_epoch);
    }

    #[cold]
    fn advance_epoch(&mut self, bound_epoch: Option<u64>) {
        while self.current.is_empty() && self.late.is_empty() && self.len > 0 {
            let ring_next = self.active.peek().map(|r| r.0);
            let far_next = self.far.peek().map(|k| self.epoch_of(k.0.at));
            let next = match (ring_next, far_next) {
                (Some(a), Some(f)) => a.min(f),
                (Some(a), None) => a,
                (None, Some(f)) => f,
                (None, None) => unreachable!("len > 0 with every store empty"),
            };
            // Every event in epoch `next` fires strictly after the bound;
            // leave the merge point where it is and let the pop miss.
            if bound_epoch.is_some_and(|b| next > b) {
                return;
            }
            self.cur_epoch = next;
            if ring_next == Some(next) {
                self.active.pop();
                // The bucket becomes the run; the spent run buffer goes
                // on top of the spare list for the next slot that turns
                // non-empty, so a one-off dense epoch pins one buffer,
                // not a ring slot for the next 4,096 epochs.
                let bucket = std::mem::take(&mut self.ring[(next % RING_EPOCHS) as usize]);
                let spent = std::mem::replace(&mut self.current, bucket);
                if spent.capacity() > 0 {
                    self.spare.push(spent);
                }
            }
            while self.far.peek().is_some_and(|k| self.epoch_of(k.0.at) == next) {
                self.current.push(self.far.pop().expect("peeked").0);
            }
            // The bucket-synchronized merge: one sort per epoch, then
            // every pop within the epoch is O(1) off the back.
            self.current.sort_unstable_by(|a, b| b.cmp(a));
            self.stats.epochs_merged += 1;
            self.stats.max_epoch_events =
                self.stats.max_epoch_events.max(self.current.len() as u64);
        }
    }

    /// The pop every public variant builds on: [`Self::pop_calendar`]
    /// picks the key, debug builds check it against the oracle, and the
    /// key's payload leaves the slab.
    #[inline]
    fn pop_bounded(&mut self, bound: Option<SimTime>) -> Option<(SimTime, E)> {
        let got = self.pop_calendar(bound);
        #[cfg(debug_assertions)]
        self.check_against_oracle(bound, got.map(|k| (k.at, k.seq)));
        let key = got?;
        let payload =
            self.payloads[key.slot as usize].take().expect("a pending key's slot is full");
        self.free.push(key.slot);
        Some((key.at, payload))
    }

    /// Pop the oracle in lockstep and require it to agree with what the
    /// calendar just returned for the same `bound`.
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
            panic!(
                "engine diverged at t={t}ns: calendar popped {}, oracle {}",
                show(got),
                show(want)
            );
        }
    }

    /// One-pass conditional pop: advance the merge point, check the head
    /// against `bound`, and take it — the hot dispatch-path primitive.
    #[inline]
    fn pop_calendar(&mut self, bound: Option<SimTime>) -> Option<Key> {
        self.ensure_current(bound.map(|t| self.epoch_of(t)));
        let take_run = match (self.current.last(), self.late.peek()) {
            (Some(r), Some(l)) => *r <= l.0,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let head_at = if take_run {
            self.current.last().expect("matched").at
        } else {
            self.late.peek().expect("matched").0.at
        };
        if bound.is_some_and(|t| head_at > t) {
            return None;
        }
        self.len -= 1;
        if take_run {
            self.current.pop()
        } else {
            self.late.pop().map(|k| k.0)
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
        let run = self.current.last().map(|k| k.at);
        let late = self.late.peek().map(|k| k.0.at);
        let near = match (run, late) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        if near.is_some() {
            // Anything in the ring or far heap lives in a later epoch.
            return near;
        }
        // Cold path (current epoch exhausted, merge not yet advanced):
        // scan the next nonempty bucket for its minimum.
        let ring_min = self
            .active
            .peek()
            .and_then(|r| self.ring[(r.0 % RING_EPOCHS) as usize].iter().map(|k| k.at).min());
        let far_min = self.far.peek().map(|k| k.0.at);
        match (ring_min, far_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of pending events across all lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Behavior counters accumulated so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Corrupt the merged run by swapping its next two events, so a test
    /// can show the oracle catches a calendar that pops out of order.
    #[cfg(test)]
    fn swap_next_two_of_run(&mut self) {
        let n = self.current.len();
        self.current.swap(n - 1, n - 2);
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
    fn hier_late_arrivals_into_current_epoch_order_correctly() {
        // Pop once (merging the first epoch), then schedule into it: the
        // late heap must interleave exactly by (time, seq).
        let mut q = HierEventQueue::with_bucket_width(1, 1024);
        q.schedule(LaneId(0), SimTime::from_nanos(100), "a");
        q.schedule(LaneId(0), SimTime::from_nanos(500), "d");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(LaneId(0), SimTime::from_nanos(200), "b");
        q.schedule(LaneId(0), SimTime::from_nanos(300), "c");
        assert!(q.stats().late_events >= 2, "{:?}", q.stats());
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "d");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn hier_far_future_events_beyond_ring_horizon() {
        // Horizon = RING_EPOCHS * width; schedule far beyond it, plus a
        // near event, and check ordering and the far counter.
        let mut q = HierEventQueue::with_bucket_width(2, 256);
        let horizon = RING_EPOCHS * 256;
        q.schedule(LaneId(0), SimTime::from_nanos(horizon * 5), "far");
        q.schedule(LaneId(1), SimTime::from_nanos(10), "near");
        q.schedule(LaneId(0), SimTime::from_nanos(horizon * 5 + 1), "far2");
        assert_eq!(q.stats().far_events, 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(horizon * 5)));
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop().unwrap().1, "far2");
        assert_eq!(q.pop(), None);
    }

    /// The calendar and the reference heap must pop identical sequences
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
        let mut hier: HierEventQueue<E> = HierEventQueue::with_bucket_width(7, 64);
        let mut popped = 0u64;
        let (mut peak_len, mut peak_epochs) = (0, 0);
        for i in 0..5_000u64 {
            let r = next();
            if r % 3 != 0 || flat.is_empty() {
                let lane = LaneId((r % 7) as u32);
                let at = SimTime::from_nanos(r % 10_000);
                flat.schedule(at, payload(i));
                hier.schedule(lane, at, payload(i));
            } else if r % 2 == 0 {
                assert_eq!(flat.pop(), hier.pop());
                popped += 1;
            } else {
                let t = SimTime::from_nanos(next() % 10_000);
                assert_eq!(flat.pop_if_before(t), hier.pop_if_before(t));
            }
            assert_eq!(flat.len(), hier.len());
            assert_eq!(flat.peek_time(), hier.peek_time());
            peak_len = peak_len.max(hier.len());
            peak_epochs = peak_epochs.max(hier.active.len());
        }
        while let Some(got) = hier.pop() {
            assert_eq!(Some(got), flat.pop());
            popped += 1;
        }
        assert_eq!(flat.pop(), None);
        assert!(popped > 1_000, "exercised only {popped} pops");
        // Vacated slots were reused and spent buffers handed on: the slab
        // is no longer than the most events ever pending, and no more key
        // buffers exist than epochs were ever non-empty at once.
        assert!(hier.payloads.len() <= peak_len, "{} slots for {peak_len}", hier.payloads.len());
        assert_eq!(hier.free.len(), hier.payloads.len(), "a drained slab is all vacant");
        assert!(hier.spare.len() <= peak_epochs, "{} spares for {peak_epochs}", hier.spare.len());
        assert!(hier.ring.iter().all(|b| b.capacity() == 0), "a merged slot kept its buffer");
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
        let mut q = HierEventQueue::with_bucket_width(2, 256);
        for i in 0..10u64 {
            q.schedule(LaneId(0), SimTime::from_nanos(300 + i * 10), i);
        }
        let s = q.stats();
        assert_eq!(s.lanes, 2);
        assert_eq!(s.bucket_width_ns, 256);
        assert_eq!(s.bucket_events, 10);
        assert_eq!(s.far_events, 0);
        // Draining merges the (single) epoch bucket once.
        while q.pop().is_some() {}
        let s = q.stats();
        assert_eq!(s.epochs_merged, 1);
        assert_eq!(s.max_epoch_events, 10);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "engine diverged at t=2020ns: calendar popped (2030ns, seq 2), oracle (2020ns, seq 1)"
    )]
    fn oracle_catches_a_calendar_that_pops_out_of_order() {
        // Three events in one ring epoch (epoch 0 would go to the late
        // heap instead of a bucket).
        let mut q = HierEventQueue::with_bucket_width(1, 1024);
        for (i, ns) in [2010, 2020, 2030].into_iter().enumerate() {
            q.schedule(LaneId(0), SimTime::from_nanos(ns), i);
        }
        // The first pop merges the epoch into the run; what is left of
        // it is then swapped behind the oracle's back.
        assert_eq!(q.pop(), Some((SimTime::from_nanos(2010), 0)));
        q.swap_next_two_of_run();
        q.pop();
    }
}
