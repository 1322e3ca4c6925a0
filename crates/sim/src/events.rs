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
//!   epoch of a timestamp is one shift). Pending events live in one of
//!   four places:
//!
//!   1. a ring of *buckets*, one per near-future epoch, absorbing the
//!      overwhelmingly common insert in O(1) (unsorted append);
//!   2. a *far* spill heap for timers beyond the ring horizon
//!      (`RING_EPOCHS` × width ahead — retransmission timers, mostly);
//!   3. the *current run*: when an epoch becomes current, its bucket is
//!      sorted once by `(time, seq)` — the bucket-synchronized merge —
//!      and then served by popping from the end of the run in O(1);
//!   4. a small *late* heap for events that land at or below the
//!      current epoch after its merge (same-instant timers, back-to-back
//!      `TxDone`s), compared against the run head on every pop.
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
//!
//! Events are scheduled with a [`LaneId`] naming the fabric node whose
//! state their dispatch touches. The calendar itself is global, so the
//! lane orders nothing: it is range-checked at the call site.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Opaque token identifying a timer registered by a transport or the
/// experiment driver. The meaning of the value is private to whoever
/// scheduled it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimerToken(pub u64);

/// Identifies one event lane of a [`HierEventQueue`]. Lanes are dense
/// indices assigned by whoever builds the engine (the network maps hosts,
/// TORs and spines to consecutive lanes). The engine range-checks the
/// tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LaneId(pub u32);

/// Number of near-future epochs the calendar ring covers. Events beyond
/// `RING_EPOCHS * width` nanoseconds ahead spill to the far heap until
/// their epoch comes within reach of becoming current. Sized so a deep
/// steady state on a *small* fabric (fewer lanes → a wider pending-time
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
    /// Recycled epoch buckets trimmed back to their recent high-water
    /// mark.
    pub buffer_trims: u64,
}

/// The calendar-bucketed event engine: a ring of epoch buckets merged one
/// epoch at a time, with a late heap for intra-epoch arrivals and a far
/// heap for timers beyond the ring horizon. Same `(time, seq)` total
/// order as [`EventQueue`], but the hot pop is a tail comparison instead
/// of a heap probe over every pending event.
pub struct HierEventQueue<E> {
    /// Epoch width is `1 << shift` nanoseconds.
    shift: u32,
    /// The epoch currently merged into `current`/served by `late`.
    cur_epoch: u64,
    /// The current epoch's events, sorted *descending* by `(time, seq)`
    /// so the minimum pops from the back in O(1).
    current: Vec<Entry<E>>,
    /// Events at or below the current epoch that arrived after its merge.
    late: BinaryHeap<Entry<E>>,
    /// Near-future buckets, indexed by `epoch % RING_EPOCHS`. A slot is
    /// owned by exactly one epoch at a time (`slot_epoch`).
    ring: Vec<Vec<Entry<E>>>,
    slot_epoch: Vec<u64>,
    /// Nonempty ring epochs, min first. An epoch is pushed exactly once
    /// (when its slot turns nonempty) and popped exactly once (when it is
    /// merged), so there are no stale entries to skip.
    active: BinaryHeap<std::cmp::Reverse<u64>>,
    /// Events beyond the ring horizon; merged directly when their epoch
    /// becomes current.
    far: BinaryHeap<Entry<E>>,
    next_seq: u64,
    len: usize,
    stats: EngineStats,
    /// Tracks per-epoch occupancy so recycled epoch buffers are trimmed
    /// back toward the recent high-water mark (a dense burst would
    /// otherwise pin peak capacity forever).
    bucket_hw: crate::arena::HighWater,
    /// Latest capacity target reported by `bucket_hw`; checked against
    /// every buffer that circulates through `current`, since a ballooned
    /// buffer may sit parked in a ring slot for thousands of epochs
    /// between visits. `usize::MAX` until the first report, so nothing
    /// trims before an occupancy baseline exists.
    bucket_trim_target: usize,
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
            slot_epoch: vec![0; RING_EPOCHS as usize],
            active: BinaryHeap::new(),
            far: BinaryHeap::new(),
            next_seq: 0,
            len: 0,
            stats: EngineStats { lanes, bucket_width_ns: 1 << shift, ..EngineStats::default() },
            bucket_hw: crate::arena::HighWater::default(),
            bucket_trim_target: usize::MAX,
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
        let entry = Entry { at, seq, payload };
        let e = self.epoch_of(at);
        // Hot path first: one wrapping compare covers the whole ring
        // window `cur_epoch < e < cur_epoch + RING_EPOCHS` (an epoch at
        // or below `cur_epoch` wraps to a huge value and falls through).
        if e.wrapping_sub(self.cur_epoch.wrapping_add(1)) < RING_EPOCHS - 1 {
            let slot = (e % RING_EPOCHS) as usize;
            if self.ring[slot].is_empty() {
                self.slot_epoch[slot] = e;
                self.active.push(std::cmp::Reverse(e));
            }
            debug_assert_eq!(self.slot_epoch[slot], e, "ring slot epoch collision");
            self.ring[slot].push(entry);
            self.stats.bucket_events += 1;
        } else if e <= self.cur_epoch {
            // At or below the merged epoch: joins the late heap and is
            // compared against the current run head on every pop, so
            // ordering stays exact even for "past" inserts.
            self.late.push(entry);
            self.stats.late_events += 1;
        } else {
            self.far.push(entry);
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
            let far_next = self.far.peek().map(|e| self.epoch_of(e.at));
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
                let slot = (next % RING_EPOCHS) as usize;
                // Trim the outgoing (empty) run buffer back to the
                // recent per-epoch high-water before donating it to the
                // ring, so a one-off dense epoch doesn't pin its peak
                // capacity for the rest of the run. The target updates
                // periodically; the (cheap) capacity check runs on every
                // circulating buffer so a ballooned one is caught the
                // first time it resurfaces from its ring slot.
                if let Some(target) = self.bucket_hw.observe(self.ring[slot].len()) {
                    self.bucket_trim_target = target;
                }
                if crate::arena::trim_capacity(&mut self.current, self.bucket_trim_target) {
                    self.stats.buffer_trims += 1;
                }
                // Swap the (empty, capacity-bearing) current run into the
                // slot so bucket buffers are recycled instead of
                // reallocated every epoch.
                std::mem::swap(&mut self.current, &mut self.ring[slot]);
            }
            while self.far.peek().is_some_and(|e| self.epoch_of(e.at) == next) {
                self.current.push(self.far.pop().expect("peeked"));
            }
            // The bucket-synchronized merge: one sort per epoch, then
            // every pop within the epoch is O(1) off the back.
            self.current.sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
            self.stats.epochs_merged += 1;
            self.stats.max_epoch_events =
                self.stats.max_epoch_events.max(self.current.len() as u64);
        }
    }

    /// The pop every public variant builds on: [`Self::pop_calendar`],
    /// checked against the oracle in debug builds.
    #[inline]
    fn pop_entry_bounded(&mut self, bound: Option<SimTime>) -> Option<Entry<E>> {
        let got = self.pop_calendar(bound);
        #[cfg(debug_assertions)]
        self.check_against_oracle(bound, got.as_ref().map(|e| (e.at, e.seq)));
        got
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
    fn pop_calendar(&mut self, bound: Option<SimTime>) -> Option<Entry<E>> {
        self.ensure_current(bound.map(|t| self.epoch_of(t)));
        let take_run = match (self.current.last(), self.late.peek()) {
            (Some(r), Some(l)) => (r.at, r.seq) <= (l.at, l.seq),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let head_at = if take_run {
            self.current.last().expect("matched").at
        } else {
            self.late.peek().expect("matched").at
        };
        if bound.is_some_and(|t| head_at > t) {
            return None;
        }
        self.len -= 1;
        if take_run {
            self.current.pop()
        } else {
            self.late.pop()
        }
    }

    /// Remove and return the earliest event across all lanes.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry_bounded(None).map(|e| (e.at, e.payload))
    }

    /// Remove and return the earliest event if it fires at or before `t`.
    pub fn pop_if_before(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        self.pop_entry_bounded(Some(t)).map(|e| (e.at, e.payload))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let run = self.current.last().map(|e| e.at);
        let late = self.late.peek().map(|e| e.at);
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
            .and_then(|r| self.ring[(r.0 % RING_EPOCHS) as usize].iter().map(|e| e.at).min());
        let far_min = self.far.peek().map(|e| e.at);
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
    fn hier_trims_burst_epoch_capacity() {
        // One dense epoch balloons its bucket buffer; after the burst
        // ages out of the high-water window (two 1024-observation
        // periods) and the ballooned buffer circulates back out of its
        // ring slot (RING_EPOCHS later), the engine releases the excess
        // capacity and counts the trim.
        let mut q = HierEventQueue::with_bucket_width(1, 1024);
        let t = |k: u64| SimTime::from_nanos(k * 1024);
        for i in 0..1000u64 {
            q.schedule(LaneId(0), t(1), i);
        }
        for _ in 0..1000 {
            q.pop().unwrap();
        }
        assert_eq!(q.stats().buffer_trims, 0, "nothing to trim while the burst is recent");
        // Sparse epochs: one event each, walking far enough that the
        // burst leaves both high-water periods and its buffer resurfaces
        // from the ring (RING_EPOCHS = 4096 epochs later).
        for k in 2..4200u64 {
            q.schedule(LaneId(0), t(k), k);
            q.pop().unwrap();
        }
        assert!(q.is_empty());
        assert!(q.stats().buffer_trims >= 1, "burst capacity never trimmed: {:?}", q.stats());
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

    #[test]
    fn hier_matches_flat_on_random_interleavings() {
        // The calendar and the reference heap must pop identical
        // sequences for identical schedule calls — here compared from
        // outside, value by value, on top of the built-in shadow check.
        let mut lcg = 0xDEAD_BEEFu64;
        let mut next = move || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut flat: EventQueue<u64> = EventQueue::new();
        let mut hier: HierEventQueue<u64> = HierEventQueue::with_bucket_width(7, 64);
        let mut popped = 0u64;
        for i in 0..5_000u64 {
            let r = next();
            if r % 3 != 0 || flat.is_empty() {
                let lane = LaneId((r % 7) as u32);
                let at = SimTime::from_nanos(r % 10_000);
                flat.schedule(at, i);
                hier.schedule(lane, at, i);
            } else if r % 2 == 0 {
                assert_eq!(flat.pop(), hier.pop());
                popped += 1;
            } else {
                let t = SimTime::from_nanos(next() % 10_000);
                assert_eq!(flat.pop_if_before(t), hier.pop_if_before(t));
            }
            assert_eq!(flat.len(), hier.len());
            assert_eq!(flat.peek_time(), hier.peek_time());
        }
        while let Some(got) = hier.pop() {
            assert_eq!(Some(got), flat.pop());
            popped += 1;
        }
        assert_eq!(flat.pop(), None);
        assert!(popped > 1_000, "exercised only {popped} pops");
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
