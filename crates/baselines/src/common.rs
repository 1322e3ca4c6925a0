//! Shared scaffolding for the baseline transports.
//!
//! Every non-Homa transport in this crate (pFabric, pHost, PIAS, NDP,
//! and the TCP-like stream) needs the same mechanical substrate:
//! message fragmentation, per-flow reassembly with delivery accounting,
//! a send queue with a protocol-specific ordering policy, lazily
//! cancelled timers, and a control-packet queue that drains ahead of
//! data. This module implements each of those once, so a baseline file
//! contains only the protocol's actual scheduling/priority/recovery
//! logic:
//!
//! * [`ReassemblyTable`] — per-flow inbound reassembly over the protocol
//!   core's `InboundMessage`, with delivery events and goodput
//!   accounting; generic over per-flow extension state (pHost hangs its
//!   token-scheduler fields off it).
//! * [`FlowTable`] + [`TxBody`] — sender-side flow state with the three
//!   orderings the baselines use: SRPT-style `select_min`, FIFO
//!   `select_first`, and round-robin `select_rr`; `TxBody` owns
//!   fragmentation (retransmissions first, then fresh bytes up to a
//!   caller-supplied limit).
//!
//! Both tables keep their flows in `Vec`s in [`FlowId`] order and find
//! them by binary search: the ids are the simulator's own, so no hashing
//! is needed, and every walk over a table runs in one fixed order.
//! * [`TickTimer`] — the arm-once/lazily-cancel periodic timer pattern
//!   required by the simulator's non-cancellable timers.
//! * [`CtrlQueue`] — queued control packets, drained by `next_packet`
//!   before any data (the fabric serves control at high priority; the
//!   sender must do the same).

use homa::config::{DATA_OVERHEAD, MAX_PAYLOAD};
use homa::messages::InboundMessage;
use homa::packets::{Dir, MsgKey, PeerId};
use homa_sim::{AppEvent, HostId, Packet, SimDuration, SimTime, TimerToken, TransportActions};
use std::collections::VecDeque;

/// Identity of a message/flow within a baseline transport: sending host
/// plus a sender-local sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId {
    /// Sending host.
    pub src: HostId,
    /// Sender-local sequence number.
    pub seq: u64,
}

impl FlowId {
    /// The protocol-core message key for this flow (baselines reuse the
    /// core's reassembly buffers, which are keyed by [`MsgKey`]).
    pub fn msg_key(&self) -> MsgKey {
        MsgKey { origin: PeerId(self.src.0), seq: self.seq, dir: Dir::Oneway }
    }
}

/// Number of data packets for a message of `len` bytes. A zero-length
/// message still occupies one (empty) packet: the receiver must learn
/// of it to deliver it.
pub fn packets_for(len: u64) -> u64 {
    len.div_ceil(MAX_PAYLOAD as u64).max(1)
}

/// Payload size of the packet at `offset` within a message of `len`
/// bytes. Offsets at or past the end of the message (possible with
/// stale retransmissions) yield an empty payload rather than an
/// underflow.
pub fn payload_at(len: u64, offset: u64) -> u32 {
    (len.saturating_sub(offset).min(MAX_PAYLOAD as u64)) as u32
}

/// Serialization time of one full-size data packet on a host link, in
/// nanoseconds — the natural pacing quantum for token/pull schedulers.
pub fn full_packet_time_ns(link_bps: u64) -> u64 {
    ((MAX_PAYLOAD + DATA_OVERHEAD) as u128 * 8 * 1_000_000_000).div_ceil(link_bps as u128) as u64
}

/// Convert a [`SimTime`] to integer nanoseconds (the protocol cores use
/// raw nanoseconds).
pub fn ns(t: SimTime) -> u64 {
    t.as_nanos()
}

// ---------------------------------------------------------------------
// Receive side: per-flow reassembly.
// ---------------------------------------------------------------------

/// One inbound flow: the core's reassembly state plus the
/// application tag and protocol-specific extension state `X`.
#[derive(Debug)]
pub struct RxEntry<X = ()> {
    /// Reassembly state (which byte ranges have arrived).
    pub msg: InboundMessage,
    /// Application tag echoed in the delivery event. Carried in data
    /// packets; authoritative once the offset-0 packet arrives.
    pub tag: u64,
    /// Protocol-specific per-flow receiver state.
    pub ext: X,
}

/// Receiver-side flow table: creates reassembly state on first contact,
/// folds in data packets, and converts completion into a
/// [`AppEvent::MessageDelivered`] plus goodput accounting.
///
/// Flows in progress sit in a `Vec` sorted by [`FlowId`] and are found
/// by binary search; iteration runs in that order. Delivered flows leave
/// a tombstone behind: a late duplicate (e.g. a retransmission whose ack
/// was lost) must not rebuild reassembly state and deliver the same
/// message twice. [`Self::upsert_with`] returns `None` for such flows so
/// callers can re-ack/re-notify the sender without touching receive
/// state. A tombstone is the flow's `seq` in an ascending `Vec` kept per
/// source host, so the cost is one word per completed message; the
/// per-source list grows only as far as the highest source heard from.
#[derive(Debug)]
pub struct ReassemblyTable<X = ()> {
    flows: Vec<(FlowId, RxEntry<X>)>,
    delivered: Vec<Vec<u64>>,
    delivered_bytes: u64,
}

impl<X> Default for ReassemblyTable<X> {
    fn default() -> Self {
        Self::new()
    }
}

impl<X> ReassemblyTable<X> {
    /// Empty table.
    pub fn new() -> Self {
        ReassemblyTable { flows: Vec::new(), delivered: Vec::new(), delivered_bytes: 0 }
    }

    /// Where `flow` is, or would be inserted, in the sorted flow list.
    fn position(&self, flow: FlowId) -> Result<usize, usize> {
        self.flows.binary_search_by(|(f, _)| f.cmp(&flow))
    }

    /// True when `flow` has already been delivered to the application.
    pub fn is_delivered(&self, flow: &FlowId) -> bool {
        self.delivered
            .get(flow.src.0 as usize)
            .is_some_and(|seqs| seqs.binary_search(&flow.seq).is_ok())
    }

    /// Get-or-create the entry for `flow`, building extension state with
    /// `mk_ext` on first contact, and hand it back as an [`RxSlot`] that
    /// records packets and delivers without a second lookup. Returns
    /// `None` if the flow has already been delivered (late duplicate — do
    /// not rebuild state).
    pub fn upsert_with(
        &mut self,
        flow: FlowId,
        msg_len: u64,
        tag: u64,
        now_ns: u64,
        mk_ext: impl FnOnce() -> X,
    ) -> Option<RxSlot<'_, X>> {
        if self.is_delivered(&flow) {
            return None;
        }
        let idx = self.position(flow).unwrap_or_else(|idx| {
            let msg = InboundMessage::new(flow.msg_key(), PeerId(flow.src.0), msg_len, now_ns);
            self.flows.insert(idx, (flow, RxEntry { msg, tag, ext: mk_ext() }));
            idx
        });
        Some(RxSlot { table: self, idx })
    }

    /// Get-or-create with default extension state. Returns `None` for
    /// already-delivered flows (see [`Self::upsert_with`]).
    pub fn upsert(
        &mut self,
        flow: FlowId,
        msg_len: u64,
        tag: u64,
        now_ns: u64,
    ) -> Option<RxSlot<'_, X>>
    where
        X: Default,
    {
        self.upsert_with(flow, msg_len, tag, now_ns, X::default)
    }

    /// Entry lookup.
    pub fn get(&self, flow: &FlowId) -> Option<&RxEntry<X>> {
        self.position(*flow).ok().map(|idx| &self.flows[idx].1)
    }

    /// The flow minimizing `rank` among those it ranks (`None` marks a
    /// flow ineligible), with its entry. Ties go to the lowest
    /// [`FlowId`]; include a unique component in the rank anyway, so the
    /// choice says what it means.
    pub fn select_min<R: Ord>(
        &mut self,
        rank: impl FnMut(FlowId, &RxEntry<X>) -> Option<R>,
    ) -> Option<(FlowId, &mut RxEntry<X>)> {
        let idx = min_index(&self.flows, rank)?;
        let (flow, entry) = &mut self.flows[idx];
        Some((*flow, entry))
    }

    /// Iterate (flow, entry) pairs in [`FlowId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&FlowId, &RxEntry<X>)> {
        self.flows.iter().map(|(f, e)| (f, e))
    }

    /// Iterate entries mutably, in [`FlowId`] order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut RxEntry<X>> {
        self.flows.iter_mut().map(|(_, e)| e)
    }

    /// True while any tracked flow is still incomplete (drives pacer
    /// continuation in the receiver-driven baselines).
    pub fn any_incomplete(&self) -> bool {
        self.flows.iter().any(|(_, e)| !e.msg.complete())
    }

    /// Application bytes delivered so far (the transport goodput
    /// counter).
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }
}

/// One flow of a [`ReassemblyTable`], found by
/// [`ReassemblyTable::upsert_with`]: records packets into it and delivers
/// it without looking it up again.
#[derive(Debug)]
pub struct RxSlot<'a, X> {
    table: &'a mut ReassemblyTable<X>,
    idx: usize,
}

impl<X> RxSlot<'_, X> {
    /// The flow's entry.
    pub fn entry(&mut self) -> &mut RxEntry<X> {
        &mut self.table.flows[self.idx].1
    }

    /// Fold one data packet in: refresh the tag if this is the offset-0
    /// packet, record the bytes, and report progress. Delivery is a
    /// separate step ([`Self::deliver_if_complete`]) so protocols can
    /// emit acks/pulls against the updated state first.
    pub fn record(&mut self, offset: u64, payload: u32, tag: u64) -> RxProgress {
        let e = self.entry();
        if offset == 0 {
            e.tag = tag;
        }
        e.msg.record(offset, payload as u64);
        RxProgress { complete: e.msg.complete(), contiguous: e.msg.contiguous() }
    }

    /// If the flow has fully arrived, retire it: count its bytes as
    /// delivered, emit [`AppEvent::MessageDelivered`], drop the entry and
    /// leave its tombstone. Returns whether delivery happened.
    pub fn deliver_if_complete(self, act: &mut TransportActions) -> bool {
        let table = self.table;
        if !table.flows[self.idx].1.msg.complete() {
            return false;
        }
        let (flow, e) = table.flows.remove(self.idx);
        let len = e.msg.len;
        table.delivered_bytes += len;
        let src = flow.src.0 as usize;
        if table.delivered.len() <= src {
            table.delivered.resize_with(src + 1, Vec::new);
        }
        let seqs = &mut table.delivered[src];
        let at = seqs.partition_point(|&s| s < flow.seq);
        debug_assert!(seqs.get(at) != Some(&flow.seq), "flow delivered twice");
        seqs.insert(at, flow.seq);
        act.event(AppEvent::MessageDelivered { src: flow.src, tag: e.tag, len });
        true
    }
}

/// Progress report from [`RxSlot::record`].
#[derive(Debug, Clone, Copy)]
pub struct RxProgress {
    /// All bytes of the message have arrived.
    pub complete: bool,
    /// Contiguous prefix length (cumulative-ack point).
    pub contiguous: u64,
}

// ---------------------------------------------------------------------
// Send side: fragmentation and flow selection.
// ---------------------------------------------------------------------

/// The fragmentation core of one outbound message/stream: which bytes
/// have been sent fresh, and which offsets are queued for
/// retransmission. Protocol-specific window state (acks, grants, cwnd)
/// lives in the surrounding per-protocol struct.
///
/// A zero-length message still announces itself with exactly one empty
/// packet (matching [`packets_for`]); the message-oriented transports
/// deliver it from that packet alone. (The byte-stream transport
/// cannot: stream message boundaries travel with payload bytes, so
/// zero-length messages are outside its model.)
#[derive(Debug)]
pub struct TxBody {
    /// Destination host.
    pub dst: HostId,
    /// Total length in bytes (for streams: bytes enqueued so far).
    pub len: u64,
    /// Application tag.
    pub tag: u64,
    /// Next never-sent byte offset.
    pub fresh: u64,
    /// Offsets queued for retransmission (served before fresh bytes).
    pub retx: VecDeque<u64>,
    /// Whether the single empty packet of a zero-length message has
    /// been emitted.
    announced: bool,
}

impl TxBody {
    /// New body for a `len`-byte message to `dst`.
    pub fn new(dst: HostId, len: u64, tag: u64) -> Self {
        TxBody { dst, len, tag, fresh: 0, retx: VecDeque::new(), announced: false }
    }

    /// Queue `offset` for retransmission unless already queued.
    pub fn queue_retx(&mut self, offset: u64) {
        if !self.retx.contains(&offset) {
            self.retx.push_back(offset);
        }
    }

    /// Drop a pending retransmission (e.g. the ack overtook the loss
    /// signal).
    pub fn cancel_retx(&mut self, offset: u64) {
        self.retx.retain(|&o| o != offset);
    }

    /// True when a call to [`Self::next_chunk`] with the same
    /// `fresh_limit` would produce a packet.
    pub fn has_work(&self, fresh_limit: u64) -> bool {
        !self.retx.is_empty()
            || self.fresh < fresh_limit.min(self.len)
            || (self.len == 0 && !self.announced)
    }

    /// Take the next chunk to transmit: queued retransmissions first,
    /// then fresh bytes while `fresh < fresh_limit` (callers pass their
    /// window/grant/credit limit; it is clamped to the message length).
    /// Fresh payloads stop at the credit boundary, so byte-precise
    /// windows (pHost tokens, DCTCP cwnd, stream windows) are honoured
    /// exactly. Returns `(offset, payload_bytes, is_retransmission)`.
    pub fn next_chunk(&mut self, fresh_limit: u64) -> Option<(u64, u32, bool)> {
        if let Some(offset) = self.retx.pop_front() {
            return Some((offset, payload_at(self.len, offset), true));
        }
        if let Some(empty) = self.take_empty_announcement() {
            return Some(empty);
        }
        let limit = fresh_limit.min(self.len);
        if self.fresh < limit {
            let offset = self.fresh;
            let payload = (limit - offset).min(MAX_PAYLOAD as u64) as u32;
            self.fresh += payload as u64;
            return Some((offset, payload, false));
        }
        None
    }

    /// Like [`Self::next_chunk`], but fresh packets are always
    /// full-size (up to the message end): the limit is an eligibility
    /// threshold rather than a byte-precise cap. This is NDP's
    /// whole-packet credit model, where the blind window may be
    /// exceeded by the tail of the packet that crosses it.
    pub fn next_chunk_whole(&mut self, fresh_limit: u64) -> Option<(u64, u32, bool)> {
        if let Some(offset) = self.retx.pop_front() {
            return Some((offset, payload_at(self.len, offset), true));
        }
        if let Some(empty) = self.take_empty_announcement() {
            return Some(empty);
        }
        if self.fresh < fresh_limit.min(self.len) {
            let offset = self.fresh;
            let payload = payload_at(self.len, offset);
            self.fresh += payload as u64;
            return Some((offset, payload, false));
        }
        None
    }

    /// The one empty packet a zero-length message owes the receiver,
    /// if it has not been emitted yet.
    fn take_empty_announcement(&mut self) -> Option<(u64, u32, bool)> {
        if self.len == 0 && !self.announced {
            self.announced = true;
            return Some((0, 0, false));
        }
        None
    }
}

/// Sender-side flow table with the orderings the baselines need.
///
/// A sender's flows sit in a `Vec` in insertion order. A transport
/// numbers its own messages, so their [`FlowId`]s ascend in that order
/// and a lookup is a binary search. The same `Vec` is the round-robin
/// ring for [`Self::select_rr`] and the arrival sequence for FIFO
/// policies ([`Self::select_first`]).
#[derive(Debug)]
pub struct FlowTable<S> {
    flows: Vec<(FlowId, S)>,
    rr_next: usize,
}

impl<S> Default for FlowTable<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> FlowTable<S> {
    /// Empty table.
    pub fn new() -> Self {
        FlowTable { flows: Vec::new(), rr_next: 0 }
    }

    /// Where `flow` is in the table.
    fn position(&self, flow: FlowId) -> Option<usize> {
        self.flows.binary_search_by(|(f, _)| f.cmp(&flow)).ok()
    }

    /// Insert a new flow; its id must be above every id inserted before.
    pub fn insert(&mut self, flow: FlowId, state: S) {
        debug_assert!(
            self.flows.last().is_none_or(|(last, _)| *last < flow),
            "flow ids must be inserted in ascending order"
        );
        self.flows.push((flow, state));
    }

    /// Remove a flow, keeping the round-robin cursor coherent.
    pub fn remove(&mut self, flow: FlowId) -> Option<S> {
        let pos = self.position(flow)?;
        let (_, state) = self.flows.remove(pos);
        if pos < self.rr_next {
            self.rr_next -= 1;
        }
        if self.rr_next >= self.flows.len() {
            self.rr_next = 0;
        }
        Some(state)
    }

    /// Mutable state lookup.
    pub fn get_mut(&mut self, flow: FlowId) -> Option<&mut S> {
        let pos = self.position(flow)?;
        Some(&mut self.flows[pos].1)
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Iterate states mutably, in insertion order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut S> {
        self.flows.iter_mut().map(|(_, s)| s)
    }

    /// Pick the eligible flow minimizing `rank` (SRPT and friends), with
    /// its state. Returning `None` from `rank` marks a flow ineligible.
    /// Ties go to the earliest flow; include a unique component (e.g.
    /// `FlowId::seq`) in the rank anyway, so the choice says what it
    /// means.
    pub fn select_min<R: Ord>(
        &mut self,
        rank: impl FnMut(FlowId, &S) -> Option<R>,
    ) -> Option<(FlowId, &mut S)> {
        let pos = min_index(&self.flows, rank)?;
        let (flow, state) = &mut self.flows[pos];
        Some((*flow, state))
    }

    /// Pick the oldest eligible flow (FIFO), with its state.
    pub fn select_first(
        &mut self,
        mut eligible: impl FnMut(&S) -> bool,
    ) -> Option<(FlowId, &mut S)> {
        let (flow, state) = self.flows.iter_mut().find(|(_, s)| eligible(s))?;
        Some((*flow, state))
    }

    /// Pick the next eligible flow in round-robin order, with its state,
    /// and advance the cursor past it.
    pub fn select_rr(
        &mut self,
        mut eligible: impl FnMut(FlowId, &mut S) -> bool,
    ) -> Option<(FlowId, &mut S)> {
        let flows = &mut self.flows;
        let pos = round_robin(flows.len(), &mut self.rr_next, |i| {
            let (flow, state) = &mut flows[i];
            eligible(*flow, state)
        })?;
        let (flow, state) = &mut self.flows[pos];
        Some((*flow, state))
    }
}

/// The index of the item minimizing `rank` among those it ranks; the
/// first such on a tie.
fn min_index<T, R: Ord>(
    items: &[(FlowId, T)],
    mut rank: impl FnMut(FlowId, &T) -> Option<R>,
) -> Option<usize> {
    let mut best: Option<(R, usize)> = None;
    for (i, (flow, item)) in items.iter().enumerate() {
        if let Some(r) = rank(*flow, item) {
            if best.as_ref().is_none_or(|(b, _)| r < *b) {
                best = Some((r, i));
            }
        }
    }
    best.map(|(_, i)| i)
}

/// One round-robin step over a ring of `n` slots: the first slot from
/// `*cursor` on, wrapping, that is `eligible`. The cursor moves past it.
pub(crate) fn round_robin(
    n: usize,
    cursor: &mut usize,
    mut eligible: impl FnMut(usize) -> bool,
) -> Option<usize> {
    let pick = (0..n).map(|step| (*cursor + step) % n).find(|&i| eligible(i))?;
    *cursor = (pick + 1) % n;
    Some(pick)
}

// ---------------------------------------------------------------------
// Timers and control queues.
// ---------------------------------------------------------------------

/// The arm-once / lazily-cancelled periodic timer every baseline needs.
///
/// The simulator's timers cannot be cancelled (see
/// [`homa_sim::Transport::on_timer`]); the working pattern is: arm at
/// most one outstanding timer, re-arm from the timer callback while
/// work remains, and mark disarmed otherwise so stale fires are cheap
/// no-ops.
#[derive(Debug)]
pub struct TickTimer {
    token: TimerToken,
    period: SimDuration,
    armed: bool,
}

impl TickTimer {
    /// Timer identified by `token`, firing every `period`.
    pub fn new(token: TimerToken, period: SimDuration) -> Self {
        TickTimer { token, period, armed: false }
    }

    /// Arm the timer if it is not already pending.
    pub fn ensure(&mut self, now: SimTime, act: &mut TransportActions) {
        if !self.armed {
            self.armed = true;
            act.timer_after(now, self.period, self.token);
        }
    }

    /// Schedule the next tick unconditionally (call from the timer
    /// callback to keep a periodic timer running).
    pub fn rearm(&mut self, now: SimTime, act: &mut TransportActions) {
        self.armed = true;
        act.timer_after(now, self.period, self.token);
    }

    /// Stop re-arming; an already-scheduled fire becomes a no-op whose
    /// only effect is re-entering [`homa_sim::Transport::on_timer`].
    pub fn disarm(&mut self) {
        self.armed = false;
    }

    /// Whether `token` identifies this timer.
    pub fn matches(&self, token: TimerToken) -> bool {
        self.token == token
    }
}

/// Queued control packets, drained ahead of data.
///
/// `next_packet` implementations call [`Self::pop_packet`] first, which
/// keeps the sim-layer contract that control precedes data at the
/// sender.
#[derive(Debug)]
pub struct CtrlQueue<M> {
    q: VecDeque<(HostId, M)>,
}

impl<M> Default for CtrlQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> CtrlQueue<M> {
    /// Empty queue.
    pub fn new() -> Self {
        CtrlQueue { q: VecDeque::new() }
    }

    /// Queue `meta` for transmission to `dst`.
    pub fn push(&mut self, dst: HostId, meta: M) {
        self.q.push_back((dst, meta));
    }

    /// Take the oldest queued control packet as a wire packet from `me`.
    pub fn pop_packet(&mut self, me: HostId) -> Option<Packet<M>>
    where
        M: homa_sim::PacketMeta,
    {
        self.q.pop_front().map(|(dst, meta)| Packet::new(me, dst, meta))
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_math() {
        assert_eq!(packets_for(1), 1);
        assert_eq!(packets_for(1_400), 1);
        assert_eq!(packets_for(1_401), 2);
        assert_eq!(payload_at(1_401, 0), 1_400);
        assert_eq!(payload_at(1_401, 1_400), 1);
        assert_eq!(payload_at(100, 0), 100);
    }

    #[test]
    fn zero_length_message_still_one_packet() {
        // A 0-byte message must still announce itself with one (empty)
        // packet, and its only packet carries no payload.
        assert_eq!(packets_for(0), 1);
        assert_eq!(payload_at(0, 0), 0);
    }

    #[test]
    fn payload_at_never_underflows() {
        // Stale retransmission offsets past the end of the message must
        // yield an empty payload, not a subtraction overflow.
        assert_eq!(payload_at(100, 100), 0);
        assert_eq!(payload_at(100, 1_000_000), 0);
        assert_eq!(payload_at(0, 1), 0);
    }

    #[test]
    fn full_packet_time() {
        // 1460 bytes at 10 Gbps = 1168 ns.
        assert_eq!(full_packet_time_ns(10_000_000_000), 1_168);
    }

    #[test]
    fn tx_body_serves_retx_before_fresh_and_respects_limits() {
        let mut b = TxBody::new(HostId(1), 3_000, 9);
        // First fresh chunk up to a 1500-byte credit limit.
        assert_eq!(b.next_chunk(1_500), Some((0, 1_400, false)));
        // Credit boundary produces a short packet.
        assert_eq!(b.next_chunk(1_500), Some((1_400, 100, false)));
        assert_eq!(b.next_chunk(1_500), None);
        // A queued retransmission outranks fresh bytes.
        b.queue_retx(0);
        b.queue_retx(0); // deduplicated
        assert_eq!(b.next_chunk(3_000), Some((0, 1_400, true)));
        assert_eq!(b.next_chunk(3_000), Some((1_500, 1_400, false)));
        assert_eq!(b.next_chunk(3_000), Some((2_900, 100, false)));
        assert!(!b.has_work(3_000));
    }

    #[test]
    fn flow_table_select_min_is_srpt() {
        let mut t: FlowTable<u64> = FlowTable::new();
        let f = |seq| FlowId { src: HostId(0), seq };
        t.insert(f(1), 500);
        t.insert(f(2), 100);
        t.insert(f(3), 900);
        let pick = |t: &mut FlowTable<u64>, above: u64| {
            t.select_min(|k, &rem| (rem > above).then_some((rem, k.seq))).map(|(k, _)| k)
        };
        assert_eq!(pick(&mut t, 0), Some(f(2)));
        // Ineligible flows are skipped.
        assert_eq!(pick(&mut t, 100), Some(f(1)));
        t.remove(f(2));
        assert_eq!(pick(&mut t, 0), Some(f(1)));
        // The selected flow's state comes back for the caller to change.
        *t.select_min(|k, _| Some(k.seq)).unwrap().1 = 50;
        assert_eq!(pick(&mut t, 0), Some(f(1)));
        assert_eq!(t.get_mut(f(1)), Some(&mut 50));
    }

    #[test]
    fn flow_table_select_first_is_fifo() {
        let mut t: FlowTable<bool> = FlowTable::new();
        let f = |seq| FlowId { src: HostId(4), seq };
        for (seq, ready) in [(3, false), (7, true), (9, true)] {
            t.insert(f(seq), ready);
        }
        assert_eq!(t.select_first(|&ready| ready).map(|(k, _)| k), Some(f(7)));
        t.remove(f(7));
        assert_eq!(t.select_first(|&ready| ready).map(|(k, _)| k), Some(f(9)));
        assert_eq!(t.select_first(|_| false), None);
    }

    #[test]
    fn flow_table_round_robin_cycles_fairly() {
        let mut t: FlowTable<u32> = FlowTable::new();
        let f = |seq| FlowId { src: HostId(1), seq };
        for seq in 0..3 {
            t.insert(f(seq), 0);
        }
        let mut picks = Vec::new();
        for _ in 0..6 {
            let (k, _) = t.select_rr(|_, _| true).unwrap();
            picks.push(k.seq);
        }
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        // Removal keeps the cursor coherent.
        t.remove(f(1));
        let (k1, _) = t.select_rr(|_, _| true).unwrap();
        let (k2, _) = t.select_rr(|_, _| true).unwrap();
        assert_ne!(k1, k2);
        assert!(k1 != f(1) && k2 != f(1));
    }

    #[test]
    fn round_robin_starts_at_the_cursor_and_moves_past_the_pick() {
        let mut cursor = 2;
        assert_eq!(round_robin(4, &mut cursor, |i| i != 2), Some(3));
        assert_eq!(cursor, 0);
        assert_eq!(round_robin(4, &mut cursor, |i| i == 1), Some(1));
        assert_eq!(cursor, 2);
        assert_eq!(round_robin(4, &mut cursor, |_| false), None);
        assert_eq!(cursor, 2);
        assert_eq!(round_robin(0, &mut cursor, |_| true), None);
    }

    #[test]
    fn tx_body_zero_length_announces_exactly_once() {
        // A 0-byte message owes the receiver one empty packet — and only
        // one, whatever the credit limit.
        let mut b = TxBody::new(HostId(1), 0, 3);
        assert!(b.has_work(0), "empty message must still have its announcement to send");
        assert_eq!(b.next_chunk(0), Some((0, 0, false)));
        assert!(!b.has_work(u64::MAX));
        assert_eq!(b.next_chunk(u64::MAX), None);
        // Whole-packet variant behaves identically.
        let mut b = TxBody::new(HostId(1), 0, 3);
        assert_eq!(b.next_chunk_whole(0), Some((0, 0, false)));
        assert_eq!(b.next_chunk_whole(u64::MAX), None);
    }

    #[test]
    fn reassembly_delivers_once_with_goodput() {
        let mut rx: ReassemblyTable = ReassemblyTable::new();
        let flow = FlowId { src: HostId(3), seq: 1 };
        let mut act = TransportActions::new();
        let mut slot = rx.upsert(flow, 2_000, 7, 0).expect("fresh flow");
        let p = slot.record(1_400, 600, 7);
        assert!(!p.complete);
        assert_eq!(p.contiguous, 0);
        assert!(!slot.deliver_if_complete(&mut act));
        let mut slot = rx.upsert(flow, 2_000, 7, 0).expect("still in progress");
        let p = slot.record(0, 1_400, 7);
        assert!(p.complete);
        assert_eq!(p.contiguous, 2_000);
        assert!(slot.deliver_if_complete(&mut act));
        // Gone after delivery; bytes counted exactly once.
        assert!(rx.upsert(flow, 2_000, 7, 0).is_none());
        assert_eq!(rx.delivered_bytes(), 2_000);
        assert!(rx.get(&flow).is_none());
    }

    #[test]
    fn reassembly_tombstones_block_duplicate_delivery() {
        // A retransmission arriving after delivery (its acks were lost)
        // must not rebuild state and deliver the message twice.
        let mut rx: ReassemblyTable = ReassemblyTable::new();
        let flow = FlowId { src: HostId(2), seq: 9 };
        let mut act = TransportActions::new();
        let mut slot = rx.upsert(flow, 500, 1, 0).expect("fresh flow");
        slot.record(0, 500, 1);
        assert!(slot.deliver_if_complete(&mut act));
        assert!(rx.is_delivered(&flow));
        // The same seq from another source is another flow.
        assert!(!rx.is_delivered(&FlowId { src: HostId(1), seq: 9 }));
        // The late duplicate is refused; goodput unchanged.
        assert!(rx.upsert(flow, 500, 1, 10).is_none());
        assert_eq!(rx.delivered_bytes(), 500);
        assert_eq!(
            act.events().iter().filter(|e| matches!(e, AppEvent::MessageDelivered { .. })).count(),
            1
        );
    }

    #[test]
    fn reassembly_tag_refreshes_on_first_packet() {
        // Entries created by a non-first packet carry a provisional tag
        // until offset 0 arrives (pHost creates entries from RTS with no
        // tag at all).
        let mut rx: ReassemblyTable = ReassemblyTable::new();
        let flow = FlowId { src: HostId(1), seq: 4 };
        rx.upsert(flow, 2_000, 999, 0).expect("fresh flow").record(1_400, 600, 999);
        let mut slot = rx.upsert(flow, 2_000, 999, 0).expect("in progress");
        slot.record(0, 1_400, 42);
        let mut act = TransportActions::new();
        assert!(slot.deliver_if_complete(&mut act));
        assert!(matches!(act.events(), [AppEvent::MessageDelivered { tag: 42, len: 2_000, .. }]));
        assert_eq!(rx.delivered_bytes(), 2_000);
    }

    #[test]
    fn reassembly_walks_flows_in_id_order() {
        let mut rx: ReassemblyTable = ReassemblyTable::new();
        let ids = [(2, 5), (0, 9), (2, 1), (1, 3)];
        for (src, seq) in ids {
            rx.upsert(FlowId { src: HostId(src), seq }, 100, 0, 0);
        }
        let walked: Vec<(u32, u64)> = rx.iter().map(|(f, _)| (f.src.0, f.seq)).collect();
        assert_eq!(walked, vec![(0, 9), (1, 3), (2, 1), (2, 5)]);
        let smallest = rx.select_min(|f, e| Some((e.msg.remaining(), f))).map(|(f, _)| f);
        assert_eq!(smallest, Some(FlowId { src: HostId(0), seq: 9 }));
    }
}
