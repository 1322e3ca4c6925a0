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
//!   orderings the baselines use: SRPT-style `select_min`, FIFO (a
//!   degenerate `select_min` on arrival sequence), and round-robin
//!   `select_rr`; `TxBody` owns fragmentation (retransmissions first,
//!   then fresh bytes up to a caller-supplied limit).
//! * [`TickTimer`] — the arm-once/lazily-cancel periodic timer pattern
//!   required by the simulator's non-cancellable timers.
//! * [`CtrlQueue`] — queued control packets, drained by `next_packet`
//!   before any data (the fabric serves control at high priority; the
//!   sender must do the same).

use homa::messages::InboundMessage;
use homa::packets::{Dir, MsgKey, PeerId};
use homa_sim::{AppEvent, HostId, Packet, SimDuration, SimTime, TimerToken, TransportActions};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// Maximum application payload per data packet, shared by all transports
/// so comparisons are apples-to-apples (the paper's simulations use
/// 1500-byte Ethernet frames; 1400 payload + 60 header + framing
/// approximates that): the Homa core's own constant.
pub const MAX_PAYLOAD: u32 = homa::config::MAX_PAYLOAD;
/// Wire overhead of a data packet beyond its payload.
pub const DATA_OVERHEAD: u32 = homa::config::DATA_OVERHEAD;
/// Wire size of control packets (tokens, acks, pulls, RTS...).
pub const CTRL_BYTES: u32 = homa::config::CTRL_BYTES;
/// Default RTTbytes on the paper's 10 Gbps fabric.
pub const RTT_BYTES: u64 = homa::config::RTT_BYTES;

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
/// Delivered flows leave a tombstone behind: a late duplicate (e.g. a
/// retransmission whose ack was lost) must not rebuild reassembly
/// state and deliver the same message twice. [`Self::upsert_with`]
/// returns `None` for such flows so callers can re-ack/re-notify the
/// sender without touching receive state. Tombstones are flow ids
/// only, so the cost is a few words per completed message.
#[derive(Debug, Default)]
pub struct ReassemblyTable<X = ()> {
    flows: HashMap<FlowId, RxEntry<X>>,
    delivered: std::collections::HashSet<FlowId>,
    delivered_bytes: u64,
}

impl<X> ReassemblyTable<X> {
    /// Empty table.
    pub fn new() -> Self {
        ReassemblyTable {
            flows: HashMap::new(),
            delivered: std::collections::HashSet::new(),
            delivered_bytes: 0,
        }
    }

    /// True when `flow` has already been delivered to the application.
    pub fn is_delivered(&self, flow: &FlowId) -> bool {
        self.delivered.contains(flow)
    }

    /// Get-or-create the entry for `flow`, building extension state with
    /// `mk_ext` on first contact. Returns `None` if the flow has
    /// already been delivered (late duplicate — do not rebuild state).
    pub fn upsert_with(
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

    /// Get-or-create with default extension state. Returns `None` for
    /// already-delivered flows (see [`Self::upsert_with`]).
    pub fn upsert(
        &mut self,
        flow: FlowId,
        msg_len: u64,
        tag: u64,
        now_ns: u64,
    ) -> Option<&mut RxEntry<X>>
    where
        X: Default,
    {
        self.upsert_with(flow, msg_len, tag, now_ns, X::default)
    }

    /// Fold one data packet into `flow` (which must exist): refresh the
    /// tag if this is the offset-0 packet, record the bytes, and report
    /// progress. Delivery is a separate step ([`Self::deliver_if_complete`])
    /// so protocols can emit acks/pulls against the updated state first.
    pub fn record(&mut self, flow: FlowId, offset: u64, payload: u32, tag: u64) -> RxProgress {
        let e = self.flows.get_mut(&flow).expect("record on unknown flow");
        if offset == 0 {
            e.tag = tag;
        }
        e.msg.record(offset, payload as u64);
        RxProgress { complete: e.msg.complete(), contiguous: e.msg.contiguous() }
    }

    /// If `flow` has fully arrived, retire it: count its bytes as
    /// delivered, emit [`AppEvent::MessageDelivered`], and drop the
    /// entry. Returns whether delivery happened.
    pub fn deliver_if_complete(&mut self, flow: FlowId, act: &mut TransportActions) -> bool {
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

    /// Entry lookup.
    pub fn get(&self, flow: &FlowId) -> Option<&RxEntry<X>> {
        self.flows.get(flow)
    }

    /// Mutable entry lookup.
    pub fn get_mut(&mut self, flow: &FlowId) -> Option<&mut RxEntry<X>> {
        self.flows.get_mut(flow)
    }

    /// Iterate (flow, entry) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&FlowId, &RxEntry<X>)> {
        self.flows.iter()
    }

    /// Iterate entries mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut RxEntry<X>> {
        self.flows.values_mut()
    }

    /// True while any tracked flow is still incomplete (drives pacer
    /// continuation in the receiver-driven baselines).
    pub fn any_incomplete(&self) -> bool {
        self.flows.values().any(|e| !e.msg.complete())
    }

    /// Application bytes delivered so far (the transport goodput
    /// counter).
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }
}

/// Progress report from [`ReassemblyTable::record`].
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
/// Keys are small `Copy` identifiers ([`FlowId`], or [`HostId`] for the
/// per-destination stream transport). Insertion order is retained: it
/// is the round-robin ring for [`Self::select_rr`] and the arrival
/// sequence for FIFO policies.
#[derive(Debug)]
pub struct FlowTable<K, S> {
    map: HashMap<K, S>,
    ring: Vec<K>,
    rr_next: usize,
}

impl<K: Copy + Eq + Hash, S> Default for FlowTable<K, S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Eq + Hash, S> FlowTable<K, S> {
    /// Empty table.
    pub fn new() -> Self {
        FlowTable { map: HashMap::new(), ring: Vec::new(), rr_next: 0 }
    }

    /// Insert a new flow (keys must be unique).
    pub fn insert(&mut self, key: K, state: S) {
        let prev = self.map.insert(key, state);
        debug_assert!(prev.is_none(), "duplicate flow key");
        self.ring.push(key);
    }

    /// Remove a flow, keeping the round-robin cursor coherent.
    pub fn remove(&mut self, key: K) -> Option<S> {
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

    /// True when `key` is tracked.
    pub fn contains(&self, key: K) -> bool {
        self.map.contains_key(&key)
    }

    /// Shared state lookup.
    pub fn get(&self, key: K) -> Option<&S> {
        self.map.get(&key)
    }

    /// Mutable state lookup.
    pub fn get_mut(&mut self, key: K) -> Option<&mut S> {
        self.map.get_mut(&key)
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate (key, state) pairs (hash order).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &S)> {
        self.map.iter()
    }

    /// Iterate states mutably (hash order).
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut S> {
        self.map.values_mut()
    }

    /// Pick the eligible flow minimizing `rank` (SRPT and friends;
    /// FIFO is `rank = arrival seq`). Returning `None` from `rank`
    /// marks a flow ineligible. Ties break on the rank's own ordering,
    /// so include a unique component (e.g. `FlowId::seq`) for
    /// determinism.
    pub fn select_min<R: Ord>(&self, mut rank: impl FnMut(K, &S) -> Option<R>) -> Option<K> {
        self.map
            .iter()
            .filter_map(|(&k, s)| rank(k, s).map(|r| (r, k)))
            .min_by(|a, b| a.0.cmp(&b.0))
            .map(|(_, k)| k)
    }

    /// Pick the next eligible flow in round-robin order and advance the
    /// cursor past it.
    pub fn select_rr(&mut self, mut eligible: impl FnMut(K, &mut S) -> bool) -> Option<K> {
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
        let mut t: FlowTable<FlowId, u64> = FlowTable::new();
        let f = |seq| FlowId { src: HostId(0), seq };
        t.insert(f(1), 500);
        t.insert(f(2), 100);
        t.insert(f(3), 900);
        assert_eq!(t.select_min(|k, &rem| Some((rem, k.seq))), Some(f(2)));
        // Ineligible flows are skipped.
        assert_eq!(t.select_min(|k, &rem| (rem > 100).then_some((rem, k.seq))), Some(f(1)));
        t.remove(f(2));
        assert_eq!(t.select_min(|k, &rem| Some((rem, k.seq))), Some(f(1)));
    }

    #[test]
    fn flow_table_round_robin_cycles_fairly() {
        let mut t: FlowTable<HostId, u32> = FlowTable::new();
        for h in 0..3 {
            t.insert(HostId(h), 0);
        }
        let mut picks = Vec::new();
        for _ in 0..6 {
            let k = t.select_rr(|_, _| true).unwrap();
            picks.push(k.0);
        }
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        // Removal keeps the cursor coherent.
        t.remove(HostId(1));
        let k1 = t.select_rr(|_, _| true).unwrap();
        let k2 = t.select_rr(|_, _| true).unwrap();
        assert_ne!(k1, k2);
        assert!(k1 != HostId(1) && k2 != HostId(1));
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
        assert!(rx.upsert(flow, 2_000, 7, 0).is_some());
        let p = rx.record(flow, 1_400, 600, 7);
        assert!(!p.complete);
        assert_eq!(p.contiguous, 0);
        assert!(!rx.deliver_if_complete(flow, &mut act));
        let p = rx.record(flow, 0, 1_400, 7);
        assert!(p.complete);
        assert_eq!(p.contiguous, 2_000);
        assert!(rx.deliver_if_complete(flow, &mut act));
        // Gone after delivery; bytes counted exactly once.
        assert!(!rx.deliver_if_complete(flow, &mut act));
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
        rx.upsert(flow, 500, 1, 0).expect("fresh flow");
        rx.record(flow, 0, 500, 1);
        assert!(rx.deliver_if_complete(flow, &mut act));
        assert!(rx.is_delivered(&flow));
        // The late duplicate is refused; goodput unchanged.
        assert!(rx.upsert(flow, 500, 1, 10).is_none());
        assert!(!rx.deliver_if_complete(flow, &mut act));
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
        rx.upsert(flow, 2_000, 999, 0).expect("fresh flow");
        rx.record(flow, 1_400, 600, 999);
        rx.record(flow, 0, 1_400, 42);
        let mut act = TransportActions::new();
        assert!(rx.deliver_if_complete(flow, &mut act));
        assert_eq!(rx.delivered_bytes(), 2_000);
    }
}
