//! Egress-port queue disciplines.
//!
//! Each switch output port owns one [`PortQueue`], configured with a
//! [`QueueKind`]:
//!
//! * [`QueueKind::StrictPriority`] — the commodity switch the paper
//!   builds on: one FIFO per each of its [`LEVELS`] priority levels,
//!   higher levels strictly first. Used by Homa, pHost, PIAS, Basic and
//!   Stream.
//! * [`QueueKind::Pfabric`] — pFabric's idealized switch: dequeue the packet
//!   with the fewest remaining message bytes; on overflow drop the queued
//!   packet with the *most* remaining bytes. Control packets are served
//!   before data.
//! * [`QueueKind::NdpTrim`] — NDP's switch: a FIFO of at most
//!   [`NDP_DATA_PACKETS`] data packets; when it is full an arriving data
//!   packet has its payload trimmed off and the header joins a
//!   strictly-higher-priority control queue.
//!
//! All disciplines share a byte capacity, optional ECN marking (used by the
//! PIAS/DCTCP baseline) and the preemption-lag accounting that feeds
//! Figure 14: a packet that arrives while the link sends a packet it
//! outranks is credited the rest of that transmission as preemption lag,
//! and the rest of its wait is ordinary queueing delay. Nothing else is
//! ever credited: a port only starts a packet that no waiting packet
//! outranks (the fabric asserts it in debug builds, through
//! [`PortQueue::waiting_outranks`]).

use crate::packet::{Packet, PacketMeta};
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Priority levels of a strict-priority port: the paper's commodity
/// switch. Every [`PacketMeta::priority`] is below it.
pub const LEVELS: usize = 8;

/// Untrimmed data packets an NDP port queues before it trims: the NDP
/// paper's switch queue.
pub const NDP_DATA_PACKETS: usize = 8;

/// Which scheduling/drop policy a port uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// One FIFO per each of the [`LEVELS`] priority levels; strictly
    /// higher levels first.
    StrictPriority,
    /// pFabric: dequeue smallest-remaining, drop largest-remaining.
    Pfabric,
    /// NDP: a data FIFO of [`NDP_DATA_PACKETS`] with payload trimming to
    /// a high-priority control queue.
    NdpTrim,
}

/// ECN marking configuration (DCTCP-style instantaneous-queue marking).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcnConfig {
    /// Mark packets when the queue holds at least this many bytes at
    /// enqueue time.
    pub threshold_bytes: u64,
}

/// Full configuration of one port's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueDiscipline {
    /// Scheduling/drop policy.
    pub kind: QueueKind,
    /// Total byte capacity of the port buffer (all levels together).
    pub cap_bytes: u64,
    /// Optional ECN marking.
    pub ecn: Option<EcnConfig>,
}

impl QueueDiscipline {
    /// The paper's commodity switch: [`LEVELS`] strict priorities sharing
    /// `cap_bytes` of buffer, and no ECN.
    pub fn strict8(cap_bytes: u64) -> Self {
        QueueDiscipline { kind: QueueKind::StrictPriority, cap_bytes, ecn: None }
    }
}

/// Outcome of offering a packet to a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Packet queued intact.
    Accepted,
    /// Packet (or, for pFabric, a different queued packet) was dropped.
    Dropped,
    /// The packet's payload was trimmed; its header was queued.
    Trimmed,
}

struct Waiting<M> {
    pkt: Packet<M>,
    enqueued_at: SimTime,
    /// Preemption lag, credited once at arrival: the rest of the
    /// transmission of the outranked packet then on the link.
    lag: SimDuration,
}

/// A port's queue: state for whichever discipline is configured.
pub struct PortQueue<M> {
    disc: QueueDiscipline,
    /// Strict priority: one FIFO per level, index = level (0 lowest).
    levels: Vec<VecDeque<Waiting<M>>>,
    /// pFabric's scanned pool, or NDP's data FIFO.
    pool: VecDeque<Waiting<M>>,
    /// NDP control/trimmed-header queue (strictly before `pool`).
    ctrl: VecDeque<Waiting<M>>,
    bytes: u64,
    /// Packets queued across `levels`, `pool` and `ctrl`: kept beside
    /// `bytes` so [`len`](Self::len) is a field read.
    packets: usize,
    /// Statistics counters (read by the port owner).
    pub drops: u64,
    /// Number of packets trimmed by this queue (NDP).
    pub trims: u64,
    max_bytes_seen: u64,
    /// Time-weighted integral of queue bytes (for mean queue length).
    byte_time_integral: u128,
    last_change: SimTime,
    /// `(waited, lag)` of the most recent dequeue — read by the flight
    /// recorder so the per-packet wait can be traced without changing the
    /// `dequeue` signature.
    last_wait: (SimDuration, SimDuration),
}

impl<M: PacketMeta> PortQueue<M> {
    /// An empty queue with the given discipline.
    pub fn new(disc: QueueDiscipline) -> Self {
        let levels = match disc.kind {
            QueueKind::StrictPriority => (0..LEVELS).map(|_| VecDeque::new()).collect(),
            _ => Vec::new(),
        };
        PortQueue {
            disc,
            levels,
            pool: VecDeque::new(),
            ctrl: VecDeque::new(),
            bytes: 0,
            packets: 0,
            drops: 0,
            trims: 0,
            max_bytes_seen: 0,
            byte_time_integral: 0,
            last_change: SimTime::ZERO,
            last_wait: (SimDuration::ZERO, SimDuration::ZERO),
        }
    }

    /// Bytes currently queued (not counting any packet being transmitted).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of packets currently queued: a count kept by the same two
    /// functions that keep [`bytes`](Self::bytes), not a walk over the
    /// FIFOs — the fabric asks on every arrival at an idle port. Debug
    /// builds check it against the FIFOs on every call.
    pub fn len(&self) -> usize {
        debug_assert_eq!(
            self.packets,
            self.levels.iter().map(|q| q.len()).sum::<usize>() + self.pool.len() + self.ctrl.len(),
            "packet count out of step with the FIFOs"
        );
        self.packets
    }

    /// Whether the queue holds no packets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest instantaneous queue length observed, in bytes.
    pub fn max_bytes_seen(&self) -> u64 {
        self.max_bytes_seen
    }

    /// Time-weighted mean queue length in bytes over `[0, now]`.
    pub fn mean_bytes(&self, now: SimTime) -> f64 {
        if now.as_nanos() == 0 {
            return 0.0;
        }
        let integral = self.byte_time_integral
            + self.bytes as u128 * (now.as_nanos() - self.last_change.as_nanos()) as u128;
        integral as f64 / now.as_nanos() as f64
    }

    fn touch(&mut self, now: SimTime) {
        let dt = now.as_nanos().saturating_sub(self.last_change.as_nanos());
        self.byte_time_integral += self.bytes as u128 * dt as u128;
        self.last_change = now;
    }

    /// One packet of `b` bytes joins the queue.
    fn account_add(&mut self, now: SimTime, b: u64) {
        self.touch(now);
        self.bytes += b;
        self.packets += 1;
        self.max_bytes_seen = self.max_bytes_seen.max(self.bytes);
    }

    /// One packet of `b` bytes leaves the queue.
    fn account_remove(&mut self, now: SimTime, b: u64) {
        self.touch(now);
        debug_assert!(self.bytes >= b && self.packets >= 1);
        self.bytes -= b;
        self.packets -= 1;
    }

    /// Offer `pkt` to the queue at time `now`.
    ///
    /// `in_flight` is the packet currently being transmitted on this port
    /// (if any) and when its transmission ends, so that an arrival which
    /// outranks it can be credited preemption lag for the remainder of
    /// that transmission. It is lent, not copied, and it is the whole
    /// packet rather than its metadata because rank can depend on the
    /// envelope: an NDP trimmed header is data by its metadata and
    /// control by its `was_trimmed` flag.
    pub fn enqueue(
        &mut self,
        now: SimTime,
        mut pkt: Packet<M>,
        in_flight: Option<(&Packet<M>, SimTime)>,
    ) -> EnqueueOutcome {
        // ECN: mark based on instantaneous occupancy at arrival.
        if let Some(ecn) = self.disc.ecn {
            if self.bytes >= ecn.threshold_bytes {
                pkt.ecn = true;
            }
        }

        let size = pkt.wire_bytes() as u64;
        let mut outcome = EnqueueOutcome::Accepted;

        match self.disc.kind {
            QueueKind::StrictPriority => {
                if self.bytes + size > self.disc.cap_bytes {
                    self.drops += 1;
                    return EnqueueOutcome::Dropped;
                }
                let lvl = pkt.priority() as usize;
                let w = self.fresh_waiting(now, pkt, in_flight);
                self.account_add(now, size);
                self.levels[lvl].push_back(w);
            }
            QueueKind::Pfabric => {
                if self.bytes + size > self.disc.cap_bytes {
                    // Drop the packet with the largest remaining bytes among
                    // the queued data packets and the arrival. Control
                    // packets are never dropped (they are tiny).
                    let arriving_rem = pkt.meta.fine_priority();
                    let victim = self
                        .pool
                        .iter()
                        .enumerate()
                        .filter_map(|(i, w)| w.pkt.meta.fine_priority().map(|r| (i, r)))
                        .max_by_key(|&(i, r)| (r, i));
                    match (victim, arriving_rem) {
                        (Some((vi, vr)), Some(ar)) if vr >= ar => {
                            // Evict the queued packet, admit the arrival.
                            let evicted = self.pool.remove(vi).expect("victim index valid");
                            self.account_remove(now, evicted.pkt.wire_bytes() as u64);
                            self.drops += 1;
                            let w = self.fresh_waiting(now, pkt, in_flight);
                            self.account_add(now, size);
                            self.pool.push_back(w);
                            outcome = EnqueueOutcome::Accepted;
                        }
                        (_, Some(_)) => {
                            // Arrival has the most remaining bytes (or queue
                            // holds only control packets): drop the arrival.
                            self.drops += 1;
                            return EnqueueOutcome::Dropped;
                        }
                        (_, None) => {
                            // Control packet: admit even over capacity.
                            let w = self.fresh_waiting(now, pkt, in_flight);
                            self.account_add(now, size);
                            self.pool.push_back(w);
                        }
                    }
                } else {
                    let w = self.fresh_waiting(now, pkt, in_flight);
                    self.account_add(now, size);
                    self.pool.push_back(w);
                }
            }
            QueueKind::NdpTrim => {
                let is_ctrl = pkt.meta.is_control() || pkt.was_trimmed;
                if is_ctrl {
                    if self.bytes + size > self.disc.cap_bytes {
                        self.drops += 1;
                        return EnqueueOutcome::Dropped;
                    }
                    let w = self.fresh_waiting(now, pkt, in_flight);
                    self.account_add(now, size);
                    self.ctrl.push_back(w);
                } else if self.pool.len() >= NDP_DATA_PACKETS {
                    match pkt.meta.trimmed() {
                        Some(tm) => {
                            self.trims += 1;
                            let mut header = pkt.clone();
                            header.meta = tm;
                            header.was_trimmed = true;
                            let hsize = header.wire_bytes() as u64;
                            let w = self.fresh_waiting(now, header, in_flight);
                            self.account_add(now, hsize);
                            self.ctrl.push_back(w);
                            outcome = EnqueueOutcome::Trimmed;
                        }
                        None => {
                            self.drops += 1;
                            return EnqueueOutcome::Dropped;
                        }
                    }
                } else {
                    if self.bytes + size > self.disc.cap_bytes {
                        self.drops += 1;
                        return EnqueueOutcome::Dropped;
                    }
                    let w = self.fresh_waiting(now, pkt, in_flight);
                    self.account_add(now, size);
                    self.pool.push_back(w);
                }
            }
        }
        outcome
    }

    fn fresh_waiting(
        &self,
        now: SimTime,
        pkt: Packet<M>,
        in_flight: Option<(&Packet<M>, SimTime)>,
    ) -> Waiting<M> {
        // If the link is currently sending something this packet outranks,
        // the remainder of that transmission is preemption lag.
        let mut lag = SimDuration::ZERO;
        if let Some((sending, ends_at)) = in_flight {
            if ends_at > now && self.would_outrank(&pkt, sending) {
                lag = ends_at - now;
            }
        }
        Waiting { pkt, enqueued_at: now, lag }
    }

    /// Hot-path bypass for an idle port: when the queue is empty and
    /// `pkt` would be accepted intact, perform exactly the accounting an
    /// enqueue-then-immediate-dequeue pair would (byte integral touch,
    /// `max_bytes_seen`, ECN marking) and return `true` so the caller can
    /// transmit the packet directly, skipping the per-level FIFOs and the
    /// dequeue scan. Returns `false` — with `pkt` untouched — whenever
    /// the discipline might drop, trim or reorder, in which case the
    /// caller must fall back to [`enqueue`](Self::enqueue).
    ///
    /// Only call this when the port is idle: a zero-length wait means no
    /// delay attribution and no preemption lag can accrue.
    pub fn pass_through(&mut self, now: SimTime, pkt: &mut Packet<M>) -> bool {
        if !self.is_empty() {
            return false;
        }
        let size = pkt.wire_bytes() as u64;
        if size > self.disc.cap_bytes {
            return false;
        }
        // Same ECN rule as `enqueue`: mark on instantaneous occupancy at
        // arrival (zero here, so only a zero threshold marks).
        if let Some(ecn) = self.disc.ecn {
            if self.bytes >= ecn.threshold_bytes {
                pkt.ecn = true;
            }
        }
        self.account_add(now, size);
        self.account_remove(now, size);
        true
    }

    /// Remove and return the next packet to transmit, stamping its delay
    /// attribution. Returns `None` when the queue is empty.
    pub fn dequeue(&mut self, now: SimTime) -> Option<Packet<M>> {
        let w = match self.disc.kind {
            QueueKind::StrictPriority => {
                let lvl = (0..LEVELS).rev().find(|&l| !self.levels[l].is_empty())?;
                self.levels[lvl].pop_front().expect("level nonempty")
            }
            QueueKind::Pfabric => {
                if self.pool.is_empty() {
                    return None;
                }
                // Control packets first, then smallest remaining; FIFO
                // within ties (stable via index).
                let idx = self
                    .pool
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, w)| match w.pkt.meta.fine_priority() {
                        None => (0u8, 0u64, *i),
                        Some(r) => (1u8, r, *i),
                    })
                    .map(|(i, _)| i)
                    .expect("pool nonempty");
                self.pool.remove(idx).expect("index valid")
            }
            QueueKind::NdpTrim => {
                if let Some(w) = self.ctrl.pop_front() {
                    w
                } else {
                    self.pool.pop_front()?
                }
            }
        };
        self.account_remove(now, w.pkt.wire_bytes() as u64);
        let mut pkt = w.pkt;
        let waited = now.saturating_since(w.enqueued_at);
        // The outranked packet finished before this one could start; a
        // downed link only delays the start further.
        debug_assert!(w.lag <= waited, "lag {:?} exceeds the wait {waited:?}", w.lag);
        pkt.delay.record_wait(waited, w.lag);
        self.last_wait = (waited.saturating_sub(w.lag), w.lag);
        Some(pkt)
    }

    /// `(queueing, preemption lag)` of the most recently dequeued packet's
    /// wait in this queue. Undefined before the first dequeue.
    pub fn last_wait(&self) -> (SimDuration, SimDuration) {
        self.last_wait
    }

    /// Whether packet `a` strictly outranks `b` under this queue's
    /// discipline — the same rule the lag accounting uses, exposed so the
    /// flight recorder can report preemptions of an in-flight packet.
    pub fn would_outrank(&self, a: &Packet<M>, b: &Packet<M>) -> bool {
        outranks_kind(self.disc.kind, &a.meta, a.was_trimmed, &b.meta, b.was_trimmed)
    }

    /// Whether any packet still waiting strictly outranks `taken` under
    /// this queue's discipline. Never true of the packet
    /// [`dequeue`](Self::dequeue) just returned: that is the
    /// non-inversion invariant the fabric asserts in debug builds, and
    /// why a packet's preemption lag is all credited at its arrival.
    pub fn waiting_outranks(&self, taken: &Packet<M>) -> bool {
        match self.disc.kind {
            QueueKind::StrictPriority => {
                self.levels[taken.priority() as usize + 1..].iter().any(|q| !q.is_empty())
            }
            kind => self.pool.iter().chain(&self.ctrl).any(|w| {
                outranks_kind(kind, &w.pkt.meta, w.pkt.was_trimmed, &taken.meta, taken.was_trimmed)
            }),
        }
    }
}

/// Whether packet metadata `a` strictly outranks `b` under queue `kind`.
fn outranks_kind<M: PacketMeta>(
    kind: QueueKind,
    a: &M,
    a_trimmed: bool,
    b: &M,
    b_trimmed: bool,
) -> bool {
    match kind {
        QueueKind::StrictPriority => a.priority() > b.priority(),
        QueueKind::Pfabric => {
            // Control packets outrank data; among data, fewer remaining
            // bytes outranks more.
            match (a.fine_priority(), b.fine_priority()) {
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (Some(ra), Some(rb)) => ra < rb,
                (None, None) => false,
            }
        }
        QueueKind::NdpTrim => (a.is_control() || a_trimmed) && !(b.is_control() || b_trimmed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::testutil::{pkt, TestMeta};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn strict(cap: u64) -> PortQueue<TestMeta> {
        PortQueue::new(QueueDiscipline::strict8(cap))
    }

    #[test]
    fn strict_priority_orders_by_level() {
        let mut q = strict(1 << 20);
        q.enqueue(t(0), pkt(0, 1, TestMeta::data(100, 1)), None);
        q.enqueue(t(0), pkt(0, 1, TestMeta::data(100, 5)), None);
        q.enqueue(t(0), pkt(0, 1, TestMeta::data(100, 3)), None);
        // Taking a level-3 packet now would invert: level 5 still waits.
        assert!(q.waiting_outranks(&pkt(0, 1, TestMeta::data(100, 3))));
        let first = q.dequeue(t(1)).unwrap();
        assert_eq!(first.priority(), 5);
        assert!(!q.waiting_outranks(&first));
        assert_eq!(q.dequeue(t(1)).unwrap().priority(), 3);
        assert_eq!(q.dequeue(t(1)).unwrap().priority(), 1);
        assert!(q.dequeue(t(1)).is_none());
    }

    #[test]
    fn strict_priority_fifo_within_level() {
        let mut q = strict(1 << 20);
        for bytes in [100, 200, 300] {
            q.enqueue(t(0), pkt(0, 1, TestMeta::data(bytes, 2)), None);
        }
        assert_eq!(q.dequeue(t(1)).unwrap().wire_bytes(), 100);
        assert_eq!(q.dequeue(t(1)).unwrap().wire_bytes(), 200);
        assert_eq!(q.dequeue(t(1)).unwrap().wire_bytes(), 300);
    }

    #[test]
    fn strict_priority_drops_over_capacity() {
        let mut q = strict(250);
        assert_eq!(
            q.enqueue(t(0), pkt(0, 1, TestMeta::data(200, 0)), None),
            EnqueueOutcome::Accepted
        );
        assert_eq!(
            q.enqueue(t(0), pkt(0, 1, TestMeta::data(100, 7)), None),
            EnqueueOutcome::Dropped
        );
        assert_eq!(q.drops, 1);
        assert_eq!(q.bytes(), 200);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_priority_above_the_levels_is_refused() {
        strict(1 << 20).enqueue(t(0), pkt(0, 1, TestMeta::data(100, LEVELS as u8)), None);
    }

    #[test]
    fn ecn_marks_over_threshold() {
        // Every packet at priority 0: one strict-priority level is a FIFO.
        let mut q: PortQueue<TestMeta> = PortQueue::new(QueueDiscipline {
            ecn: Some(EcnConfig { threshold_bytes: 150 }),
            ..QueueDiscipline::strict8(1 << 20)
        });
        q.enqueue(t(0), pkt(0, 1, TestMeta::data(100, 0)), None);
        q.enqueue(t(0), pkt(0, 1, TestMeta::data(100, 0)), None);
        // Queue now holds 200 >= 150 bytes: third packet is marked.
        q.enqueue(t(0), pkt(0, 1, TestMeta::data(100, 0)), None);
        let a = q.dequeue(t(0)).unwrap();
        let b = q.dequeue(t(0)).unwrap();
        let c = q.dequeue(t(0)).unwrap();
        assert!(!a.ecn && !b.ecn && c.ecn);
    }

    #[test]
    fn pfabric_dequeues_smallest_remaining() {
        let mut q: PortQueue<TestMeta> = PortQueue::new(QueueDiscipline {
            kind: QueueKind::Pfabric,
            cap_bytes: 1 << 20,
            ecn: None,
        });
        let mut big = TestMeta::data(1500, 0);
        big.remaining = Some(100_000);
        let mut small = TestMeta::data(1500, 0);
        small.remaining = Some(500);
        q.enqueue(t(0), pkt(0, 1, big), None);
        q.enqueue(t(0), pkt(0, 1, small), None);
        assert_eq!(q.dequeue(t(1)).unwrap().meta.remaining, Some(500));
        assert_eq!(q.dequeue(t(1)).unwrap().meta.remaining, Some(100_000));
    }

    #[test]
    fn pfabric_control_first() {
        let mut q: PortQueue<TestMeta> = PortQueue::new(QueueDiscipline {
            kind: QueueKind::Pfabric,
            cap_bytes: 1 << 20,
            ecn: None,
        });
        let mut data = TestMeta::data(1500, 0);
        data.remaining = Some(1);
        q.enqueue(t(0), pkt(0, 1, data.clone()), None);
        q.enqueue(t(0), pkt(0, 1, TestMeta::control(40, 0)), None);
        assert!(q.waiting_outranks(&pkt(0, 1, data)), "control waits behind data");
        let first = q.dequeue(t(1)).unwrap();
        assert!(first.meta.control);
        assert!(!q.waiting_outranks(&first));
    }

    #[test]
    fn pfabric_drops_largest_remaining_on_overflow() {
        let mut q: PortQueue<TestMeta> = PortQueue::new(QueueDiscipline {
            kind: QueueKind::Pfabric,
            cap_bytes: 3000,
            ecn: None,
        });
        let mut big = TestMeta::data(1500, 0);
        big.remaining = Some(100_000);
        let mut small = TestMeta::data(1500, 0);
        small.remaining = Some(500);
        q.enqueue(t(0), pkt(0, 1, big), None);
        q.enqueue(t(0), pkt(0, 1, small), None);
        // Queue full (3000 bytes). A medium packet evicts the big one.
        let mut med = TestMeta::data(1500, 0);
        med.remaining = Some(10_000);
        assert_eq!(q.enqueue(t(0), pkt(0, 1, med), None), EnqueueOutcome::Accepted);
        assert_eq!(q.drops, 1);
        let remainings: Vec<_> =
            std::iter::from_fn(|| q.dequeue(t(1))).map(|p| p.meta.remaining.unwrap()).collect();
        assert_eq!(remainings, vec![500, 10_000]);
    }

    #[test]
    fn pfabric_drops_arrival_when_it_is_largest() {
        let mut q: PortQueue<TestMeta> = PortQueue::new(QueueDiscipline {
            kind: QueueKind::Pfabric,
            cap_bytes: 1500,
            ecn: None,
        });
        let mut small = TestMeta::data(1500, 0);
        small.remaining = Some(500);
        q.enqueue(t(0), pkt(0, 1, small), None);
        let mut big = TestMeta::data(1500, 0);
        big.remaining = Some(9_999_999);
        assert_eq!(q.enqueue(t(0), pkt(0, 1, big), None), EnqueueOutcome::Dropped);
        assert_eq!(q.drops, 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn ndp_trims_when_data_queue_full() {
        let mut q: PortQueue<TestMeta> = PortQueue::new(QueueDiscipline {
            kind: QueueKind::NdpTrim,
            cap_bytes: 1 << 20,
            ecn: None,
        });
        for _ in 0..NDP_DATA_PACKETS {
            q.enqueue(t(0), pkt(0, 1, TestMeta::data(1500, 0)), None);
        }
        assert_eq!(
            q.enqueue(t(0), pkt(0, 1, TestMeta::data(1500, 0)), None),
            EnqueueOutcome::Trimmed
        );
        assert_eq!(q.trims, 1);
        // Trimmed header dequeues before the full data packets.
        let first = q.dequeue(t(1)).unwrap();
        assert!(first.was_trimmed);
        assert_eq!(first.wire_bytes(), 60);
    }

    #[test]
    fn ndp_control_packets_bypass_data() {
        let mut q: PortQueue<TestMeta> = PortQueue::new(QueueDiscipline {
            kind: QueueKind::NdpTrim,
            cap_bytes: 1 << 20,
            ecn: None,
        });
        q.enqueue(t(0), pkt(0, 1, TestMeta::data(1500, 0)), None);
        q.enqueue(t(0), pkt(0, 1, TestMeta::control(40, 0)), None);
        assert!(q.dequeue(t(1)).unwrap().meta.control);
    }

    #[test]
    fn delay_attribution_queueing_vs_lag() {
        let mut q = strict(1 << 20);
        // A low-priority packet is in flight until t=1000; a high-priority
        // packet arriving at t=0 accrues 1000ns of preemption lag.
        let inflight = pkt(0, 1, TestMeta::data(1250, 0));
        q.enqueue(t(0), pkt(0, 1, TestMeta::data(100, 7)), Some((&inflight, t(1000))));
        let p = q.dequeue(t(1000)).unwrap();
        assert_eq!(p.delay.preemption_lag.as_nanos(), 1000);
        assert_eq!(p.delay.queueing.as_nanos(), 0);
    }

    #[test]
    fn delay_attribution_equal_priority_is_queueing() {
        let mut q = strict(1 << 20);
        let inflight = pkt(0, 1, TestMeta::data(1250, 7));
        q.enqueue(t(0), pkt(0, 1, TestMeta::data(100, 7)), Some((&inflight, t(1000))));
        let p = q.dequeue(t(1000)).unwrap();
        assert_eq!(p.delay.preemption_lag.as_nanos(), 0);
        assert_eq!(p.delay.queueing.as_nanos(), 1000);
    }

    #[test]
    fn ndp_control_is_not_preempted_by_an_in_flight_trimmed_header() {
        // A trimmed header is data by its metadata and control by its
        // flag. One is on the wire until t=48 when a control packet
        // arrives: the two rank equal, so the wait is queueing, not lag.
        let mut q: PortQueue<TestMeta> = PortQueue::new(QueueDiscipline {
            kind: QueueKind::NdpTrim,
            cap_bytes: 1 << 20,
            ecn: None,
        });
        let mut header = pkt(0, 1, TestMeta::data(1500, 0).trimmed().unwrap());
        header.was_trimmed = true;
        let pull = pkt(1, 0, TestMeta::control(40, 0));
        assert!(!q.would_outrank(&pull, &header));
        q.enqueue(t(0), pull, Some((&header, t(48))));
        let p = q.dequeue(t(48)).unwrap();
        assert_eq!(p.delay.preemption_lag.as_nanos(), 0);
        assert_eq!(p.delay.queueing.as_nanos(), 48);
        // Against an untrimmed data packet the same arrival is preempted.
        let data = pkt(0, 1, TestMeta::data(1500, 0));
        q.enqueue(t(100), pkt(1, 0, TestMeta::control(40, 0)), Some((&data, t(1300))));
        assert_eq!(q.dequeue(t(1300)).unwrap().delay.preemption_lag.as_nanos(), 1200);
    }

    #[test]
    fn mean_and_max_bytes_tracking() {
        let mut q = strict(1 << 20);
        q.enqueue(t(0), pkt(0, 1, TestMeta::data(1000, 0)), None);
        // Queue holds 1000 bytes over [0, 1000), then empties.
        let _ = q.dequeue(t(1000));
        assert_eq!(q.max_bytes_seen(), 1000);
        let mean = q.mean_bytes(t(2000));
        assert!((mean - 500.0).abs() < 1e-6, "mean {mean}");
    }
}
