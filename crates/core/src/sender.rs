//! Sender-side protocol state (§3.2, §4).
//!
//! The sender keeps an [`OutboundMessage`] per message in flight and
//! implements SRPT across them: whenever the NIC asks for a packet, the
//! transmittable message with the fewest remaining bytes wins. Grants
//! raise per-message transmission limits; RESENDs queue retransmission
//! ranges (answered with BUSY when the sender is occupied with
//! higher-priority messages, so the peer doesn't time out).
//!
//! State lifecycle follows §3.8: response messages are discarded the
//! moment their last byte is handed to the NIC (servers keep no state for
//! completed RPCs); request messages are owned by the RPC layer and
//! removed when the response arrives; one-way messages linger for four
//! resend intervals after their last byte so a late RESEND can still be
//! answered. A lingering one-way has nothing to send, so it is *parked*:
//! taken out of the map the per-packet paths scan (SRPT selection, the
//! BUSY check, the stall sweep) and kept as a 40-byte `Parked` record
//! in a ring sorted by sequence number, which only keyed lookups touch.
//! A RESEND that queues a retransmission rebuilds the message and moves
//! it back until the retransmission has gone out. Per-packet cost
//! therefore follows the number of messages with work left, not the
//! number merely retained, and retention costs a `push_back`, not a
//! hash-table insert: most one-ways are a single packet (§2), so every
//! one of them passes through here.
//!
//! A parked record holds what the protocol can still be asked about —
//! `seq`, `len`, `tag`, `created_at`, `dst`, both priorities and the
//! incast mark — and nothing that follows from "every byte was sent":
//! `sent == granted == len` (a grant never exceeds `len`, and `sent`
//! never exceeds the grant), `retx` is empty, `unsched_limit` is
//! `cfg.unsched_limit_for(incast_mark)` clipped to `len`, and the key's
//! `origin` is the endpoint's own id, the same for every one-way it
//! sends. `last_peer_activity` and `stall_pokes` are not kept because
//! nothing reads them again: the stall sweep skips a message that is
//! `transmittable` or `fully_sent`, and a woken one-way is the first
//! until its retransmission is out and the second from then on.

use crate::config::HomaConfig;
use crate::messages::OutboundMessage;
use crate::packets::{BusyHeader, DataHeader, Dir, MsgKey, PeerId};
use crate::unsched::PriorityMap;
use crate::Nanos;
use std::collections::{HashMap, VecDeque};

/// How the sender reacted to an incoming RESEND.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResendReaction {
    /// Retransmission queued; data will flow shortly.
    Queued,
    /// Sender is busy with shorter messages; a BUSY notification should be
    /// sent so the peer does not time out (the retransmission is queued
    /// regardless and will be served in SRPT order).
    QueuedButBusy(BusyHeader),
    /// The message is unknown (state already discarded, or never existed).
    Unknown,
}

/// A fully-sent one-way retained for late RESENDs: the fields of its
/// [`OutboundMessage`] that a full send does not determine (module doc).
#[derive(Debug, Clone, Copy)]
struct Parked {
    seq: u64,
    len: u64,
    tag: u64,
    created_at: Nanos,
    dst: PeerId,
    sched_prio: u8,
    unsched_prio: u8,
    incast_mark: bool,
}

impl Parked {
    /// The message as it stood when its last byte went out.
    fn wake(&self, key: MsgKey, cfg: &HomaConfig) -> OutboundMessage {
        OutboundMessage {
            key,
            dst: self.dst,
            len: self.len,
            sent: self.len,
            granted: self.len,
            unsched_limit: cfg.unsched_limit_for(self.incast_mark).min(self.len),
            sched_prio: self.sched_prio,
            unsched_prio: self.unsched_prio,
            retx: Vec::new(),
            incast_mark: self.incast_mark,
            tag: self.tag,
            created_at: self.created_at,
            last_peer_activity: self.created_at,
            stall_pokes: 0,
        }
    }
}

/// Sender half of a Homa endpoint.
#[derive(Debug)]
pub struct SenderState {
    cfg: HomaConfig,
    /// Messages that may still have bytes to send; every per-packet scan
    /// runs over these.
    msgs: HashMap<MsgKey, OutboundMessage>,
    /// Fully-sent one-way messages retained so that late RESENDs can
    /// still be answered, strictly ascending in `seq`. Never scanned. A
    /// key is in at most one of `msgs` and `parked`. One-ways are parked
    /// just after they are sent and sequence numbers are handed out in
    /// order, so a new record almost always belongs at the back.
    parked: VecDeque<Parked>,
    /// `origin` of every parked key — the endpoint's own id — learned
    /// from the first one-way parked.
    origin: Option<PeerId>,
    /// `(seq, expire_at)` per full send of a one-way. `expire_at` is a
    /// constant past a non-decreasing clock, so push order is expiry
    /// order and expiry pops from the front.
    linger: VecDeque<(u64, Nanos)>,
}

impl SenderState {
    /// New sender state.
    pub fn new(cfg: HomaConfig) -> Self {
        SenderState {
            cfg,
            msgs: HashMap::new(),
            parked: VecDeque::new(),
            origin: None,
            linger: VecDeque::new(),
        }
    }

    /// Number of messages with state held.
    pub fn active_messages(&self) -> usize {
        self.msgs.len() + self.parked.len()
    }

    /// Where `seq` is in the parked ring, or where it would go.
    fn parked_slot(&self, seq: u64) -> Result<usize, usize> {
        self.parked.binary_search_by_key(&seq, |p| p.seq)
    }

    /// Index of the parked record for `key`, if there is one.
    fn parked_index(&self, key: MsgKey) -> Option<usize> {
        if key.dir != Dir::Oneway || self.origin != Some(key.origin) {
            return None;
        }
        self.parked_slot(key.seq).ok()
    }

    /// Begin transmitting a message. `peer_map` supplies the receiver's
    /// unscheduled priority cutoffs (disseminated or statically
    /// configured).
    #[allow(clippy::too_many_arguments)]
    pub fn start_message(
        &mut self,
        now: Nanos,
        key: MsgKey,
        dst: PeerId,
        len: u64,
        tag: u64,
        incast_mark: bool,
        peer_map: &PriorityMap,
    ) {
        let unsched_limit = self.cfg.unsched_limit_for(incast_mark).min(len.max(1));
        let msg = OutboundMessage {
            key,
            dst,
            len,
            sent: 0,
            granted: unsched_limit,
            unsched_limit,
            sched_prio: 0,
            unsched_prio: peer_map.unsched_prio(len),
            retx: Vec::new(),
            incast_mark,
            tag,
            created_at: now,
            last_peer_activity: now,
            stall_pokes: 0,
        };
        self.msgs.insert(key, msg);
    }

    /// Handle a GRANT: raise the transmission limit and adopt the
    /// receiver-assigned scheduled priority.
    pub fn on_grant(&mut self, now: Nanos, key: MsgKey, offset: u64, prio: u8) -> bool {
        if let Some(m) = self.msgs.get_mut(&key) {
            if offset > m.granted {
                m.granted = offset.min(m.len);
            }
            m.sched_prio = prio;
            m.last_peer_activity = now;
            m.stall_pokes = 0;
            return true;
        }
        // A lingering one-way is granted in full already: only the
        // priority is news.
        match self.parked_index(key) {
            Some(i) => {
                self.parked[i].sched_prio = prio;
                true
            }
            None => false,
        }
    }

    /// Sender-side stall recovery for messages whose receiver has gone
    /// silent (no grants for a resend interval). For one-way messages the
    /// entire blind prefix may have been lost — the receiver does not even
    /// know the message exists — so retransmit the first packet to
    /// re-create receiver state. For *responses* the client's own chasing
    /// (RESENDs while `awaiting_first_response`, receiver gap chasing
    /// after) covers every loss pattern, so a silent client means the RPC
    /// is dead on its side; just age the state out without retransmitting
    /// (found by the stateful model fuzzer: stalled response state used
    /// to leak forever once the client aborted the RPC). Requests are
    /// skipped: the client RPC sweep owns their whole lifecycle. Gives up
    /// after the abort budget and returns the abandoned `(dst, tag)`s.
    pub fn poke_stalled(&mut self, now: Nanos) -> Vec<(PeerId, u64)> {
        let interval = self.cfg.resend_interval_ns;
        let limit = self.cfg.abort_after_resends;
        let payload = self.cfg.max_payload as u64;
        let mut abandoned = Vec::new();
        let mut dead = Vec::new();
        // Sorted key order so retransmit state changes (and the abandoned
        // list) are independent of HashMap iteration order.
        let mut keys: Vec<MsgKey> = self.msgs.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let m = self.msgs.get_mut(&key).expect("key just collected");
            if m.key.dir == Dir::Request || m.fully_sent() || m.transmittable() {
                continue;
            }
            if now.saturating_sub(m.last_peer_activity) < interval {
                continue;
            }
            if m.stall_pokes >= limit {
                dead.push(m.key);
                abandoned.push((m.dst, m.tag));
                continue;
            }
            m.stall_pokes += 1;
            m.last_peer_activity = now;
            if m.key.dir == Dir::Oneway {
                m.queue_retx(0, payload.min(m.len));
            }
        }
        for k in dead {
            self.msgs.remove(&k);
        }
        abandoned
    }

    /// Handle a RESEND for one of our outbound messages.
    pub fn on_resend(&mut self, key: MsgKey, offset: u64, length: u64, prio: u8) -> ResendReaction {
        if !self.msgs.contains_key(&key) {
            let Some(i) = self.parked_index(key) else {
                return ResendReaction::Unknown;
            };
            let p = &mut self.parked[i];
            p.sched_prio = prio;
            if offset >= (offset + length).min(p.len) {
                // Clipped to nothing: it stays parked, and no other
                // message has fewer than its zero bytes left.
                return ResendReaction::Queued;
            }
            // A parked one-way with a retransmission to queue has work
            // again.
            let woken = p.wake(key, &self.cfg);
            self.parked.remove(i);
            self.msgs.insert(key, woken);
        }
        let shortest_other = self
            .msgs
            .values()
            .filter(|m| m.key != key && m.transmittable())
            .map(|m| m.remaining())
            .min();
        let m = self.msgs.get_mut(&key).expect("found or just woken");
        // Also treat the RESEND as an implicit grant: the receiver
        // must have been expecting these bytes.
        if offset + length > m.granted {
            m.granted = (offset + length).min(m.len);
        }
        m.sched_prio = prio;
        m.queue_retx(offset, length);
        match shortest_other {
            Some(r) if r < m.remaining() => ResendReaction::QueuedButBusy(BusyHeader { key }),
            _ => ResendReaction::Queued,
        }
    }

    /// SRPT packet selection: produce the next DATA packet for the wire,
    /// or `None` when nothing is transmittable.
    pub fn next_data_packet(&mut self, now: Nanos) -> Option<(PeerId, DataHeader)> {
        let max_payload = self.cfg.max_payload;
        let m = self
            .msgs
            .values_mut()
            .filter(|m| m.transmittable())
            .min_by_key(|m| (m.remaining(), m.created_at, m.key))?;
        let key = m.key;
        let (offset, payload, retransmit) = m.next_chunk(max_payload).expect("transmittable");
        let unscheduled = offset < m.unsched_limit && !retransmit;
        let hdr = DataHeader {
            key,
            msg_len: m.len,
            offset,
            payload,
            prio: if unscheduled { m.unsched_prio } else { m.sched_prio },
            unscheduled,
            retransmit,
            incast_mark: m.incast_mark,
            tag: m.tag,
        };
        let dst = m.dst;
        if m.fully_sent() {
            self.on_fully_sent(now, key);
        }
        Some((dst, hdr))
    }

    /// Apply the state-retention policy when a message's last byte goes
    /// out (§3.8).
    fn on_fully_sent(&mut self, now: Nanos, key: MsgKey) {
        match key.dir {
            // Servers discard all RPC state as soon as the response is
            // fully transmitted; a later RESEND for it is treated as an
            // unknown message (and triggers re-execution upstream).
            Dir::Response => {
                self.msgs.remove(&key);
            }
            // One-way messages linger for late retransmissions, bounded
            // by a few resend intervals, out of the scanned map.
            Dir::Oneway => {
                if let Some(m) = self.msgs.remove(&key) {
                    self.park(&m);
                }
                let expire = now + 4 * self.cfg.resend_interval_ns;
                self.linger.push_back((key.seq, expire));
            }
            // Requests are retained until the RPC completes (the response
            // acknowledges them); the RPC layer removes them.
            Dir::Request => {}
        }
    }

    /// File a fully-sent one-way in the parked ring.
    fn park(&mut self, m: &OutboundMessage) {
        debug_assert!(m.fully_sent() && m.sent == m.len && m.granted == m.len);
        let origin = *self.origin.get_or_insert(m.key.origin);
        assert_eq!(origin, m.key.origin, "one sender's one-way messages share one origin");
        let rec = Parked {
            seq: m.key.seq,
            len: m.len,
            tag: m.tag,
            created_at: m.created_at,
            dst: m.dst,
            sched_prio: m.sched_prio,
            unsched_prio: m.unsched_prio,
            incast_mark: m.incast_mark,
        };
        match self.parked.back() {
            // A straggler: a long message that finished after shorter,
            // later ones, or a woken one parked again.
            Some(back) if back.seq >= rec.seq => match self.parked_slot(rec.seq) {
                Ok(i) => self.parked[i] = rec,
                Err(i) => self.parked.insert(i, rec),
            },
            _ => self.parked.push_back(rec),
        }
    }

    /// Remove a message (used by the RPC layer when a response arrives,
    /// or on abort).
    pub fn remove(&mut self, key: MsgKey) {
        if self.msgs.remove(&key).is_none() {
            if let Some(i) = self.parked_index(key) {
                self.parked.remove(i);
            }
        }
    }

    /// Whether the sender holds state for `key`.
    pub fn contains(&self, key: MsgKey) -> bool {
        self.msgs.contains_key(&key) || self.parked_index(key).is_some()
    }

    /// A copy of a message's state (diagnostics/tests); a parked one is
    /// rebuilt from its record.
    pub fn get(&self, key: MsgKey) -> Option<OutboundMessage> {
        self.msgs
            .get(&key)
            .cloned()
            .or_else(|| self.parked_index(key).map(|i| self.parked[i].wake(key, &self.cfg)))
    }

    /// Whether any message currently has transmittable bytes.
    pub fn has_transmittable(&self) -> bool {
        self.msgs.values().any(|m| m.transmittable())
    }

    /// Snapshot of outbound messages:
    /// `(key, len, sent, granted, retx_ranges)`. Diagnostics only.
    pub fn outbound_snapshot(&self) -> Vec<(MsgKey, u64, u64, u64, usize)> {
        let parked = self.origin.into_iter().flat_map(|origin| {
            self.parked.iter().map(move |p| {
                (MsgKey { origin, seq: p.seq, dir: Dir::Oneway }, p.len, p.len, p.len, 0)
            })
        });
        self.msgs
            .values()
            .map(|m| (m.key, m.len, m.sent, m.granted, m.retx.len()))
            .chain(parked)
            .collect()
    }

    /// Garbage-collect lingering one-way state.
    pub fn expire_lingering(&mut self, now: Nanos) {
        while let Some(&(seq, at)) = self.linger.front() {
            if at > now {
                break;
            }
            self.linger.pop_front();
            // Only parked state is dropped: a one-way back in `msgs` has a
            // retransmission queued, and lingers afresh once that is out.
            if let Ok(i) = self.parked_slot(seq) {
                self.parked.remove(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seq: u64) -> MsgKey {
        MsgKey { origin: PeerId(0), seq, dir: Dir::Oneway }
    }

    fn sender() -> SenderState {
        SenderState::new(HomaConfig::default())
    }

    fn map() -> PriorityMap {
        PriorityMap {
            num_priorities: 8,
            unsched_levels: 4,
            cutoffs: vec![280, 1_000, 4_000],
            version: 1,
        }
    }

    #[test]
    fn small_message_single_unscheduled_packet() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 100, 9, false, &map());
        let (dst, hdr) = s.next_data_packet(0).unwrap();
        assert_eq!(dst, PeerId(1));
        assert_eq!(hdr.offset, 0);
        assert_eq!(hdr.payload, 100);
        assert!(hdr.unscheduled);
        assert_eq!(hdr.prio, 7, "tiny message goes at top priority");
        assert_eq!(hdr.tag, 9);
        assert!(s.next_data_packet(0).is_none());
    }

    #[test]
    fn unsched_prefix_then_waits_for_grant() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 100_000, 0, false, &map());
        let mut sent = 0u64;
        while let Some((_, hdr)) = s.next_data_packet(0) {
            assert!(hdr.unscheduled);
            assert_eq!(hdr.prio, 4, "large message lowest unsched level");
            sent += hdr.payload as u64;
        }
        assert_eq!(sent, 9_700, "exactly RTTbytes sent blindly");
        // A grant opens more of the message at a scheduled priority.
        assert!(s.on_grant(0, key(1), 12_000, 2));
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert!(!hdr.unscheduled);
        assert_eq!(hdr.prio, 2);
        assert_eq!(hdr.offset, 9_700);
    }

    #[test]
    fn srpt_prefers_fewest_remaining() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 8_000, 0, false, &map());
        s.start_message(0, key(2), PeerId(2), 300, 0, false, &map());
        // The 300-byte message wins even though it arrived second.
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert_eq!(hdr.key, key(2));
        // Then the big one.
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert_eq!(hdr.key, key(1));
    }

    #[test]
    fn srpt_switches_to_shorter_message_mid_stream() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 9_000, 0, false, &map());
        let _ = s.next_data_packet(0).unwrap(); // 1400 of msg 1
        s.start_message(0, key(2), PeerId(2), 500, 0, false, &map());
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert_eq!(hdr.key, key(2), "new shorter message preempts");
    }

    #[test]
    fn grant_monotone_and_clamped() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 5_000, 0, false, &map());
        assert!(s.on_grant(0, key(1), 1_000_000, 0));
        assert_eq!(s.get(key(1)).unwrap().granted, 5_000);
        // Stale (smaller) grant does not shrink the window.
        assert!(s.on_grant(0, key(1), 10, 0));
        assert_eq!(s.get(key(1)).unwrap().granted, 5_000);
        assert!(!s.on_grant(0, key(99), 10, 0));
    }

    #[test]
    fn resend_queues_retransmission() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 3_000, 0, false, &map());
        while s.next_data_packet(0).is_some() {}
        let r = s.on_resend(key(1), 0, 1_400, 5);
        assert_eq!(r, ResendReaction::Queued);
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert!(hdr.retransmit);
        assert_eq!(hdr.offset, 0);
        assert_eq!(hdr.payload, 1_400);
        assert_eq!(hdr.prio, 5, "retransmission uses RESEND's priority");
    }

    #[test]
    fn resend_while_busy_with_shorter_message_yields_busy() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 50_000, 0, false, &map());
        while s.next_data_packet(0).is_some() {}
        s.start_message(0, key(2), PeerId(2), 200, 0, false, &map());
        // msg2 (200B) outranks the retransmission of msg1.
        match s.on_resend(key(1), 0, 1_400, 3) {
            ResendReaction::QueuedButBusy(b) => assert_eq!(b.key, key(1)),
            other => panic!("expected busy, got {other:?}"),
        }
        // SRPT still sends msg2 first.
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert_eq!(hdr.key, key(2));
    }

    #[test]
    fn resend_unknown_message() {
        let mut s = sender();
        assert_eq!(s.on_resend(key(1), 0, 100, 0), ResendReaction::Unknown);
    }

    #[test]
    fn response_state_discarded_after_last_byte() {
        let mut s = sender();
        let rk = MsgKey { origin: PeerId(9), seq: 1, dir: Dir::Response };
        s.start_message(0, rk, PeerId(9), 1_000, 0, false, &map());
        let _ = s.next_data_packet(0).unwrap();
        assert!(!s.contains(rk), "response state dropped at full send (§3.8)");
        assert_eq!(s.on_resend(rk, 0, 100, 0), ResendReaction::Unknown);
    }

    #[test]
    fn oneway_lingers_then_expires() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 500, 0, false, &map());
        let _ = s.next_data_packet(0).unwrap();
        assert!(s.contains(key(1)), "one-way lingers for late RESENDs");
        assert_eq!(s.on_resend(key(1), 0, 500, 7), ResendReaction::Queued);
        let _ = s.next_data_packet(0).unwrap();
        // Expire after the linger window.
        s.expire_lingering(1_000_000_000);
        assert!(!s.contains(key(1)));
    }

    /// One fully-sent (parked) 500-byte one-way whose last byte went out
    /// at `sent_at`.
    fn parked_oneway(sent_at: Nanos) -> SenderState {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 500, 0, false, &map());
        let _ = s.next_data_packet(sent_at).unwrap();
        assert!(s.parked_index(key(1)).is_some() && s.msgs.is_empty(), "fully sent: parked");
        s
    }

    const LINGER: Nanos = 4 * 2_000_000;

    #[test]
    fn resend_unparks_retransmits_reparks_and_first_deadline_holds() {
        let mut s = parked_oneway(1_000);
        assert!(!s.has_transmittable());
        assert!(s.next_data_packet(2_000).is_none());
        assert_eq!(s.on_resend(key(1), 0, 500, 3), ResendReaction::Queued);
        assert!(s.msgs.contains_key(&key(1)) && s.parked.is_empty(), "work again: scanned");
        assert!(s.has_transmittable());
        let (dst, hdr) = s.next_data_packet(3_000_000).unwrap();
        assert_eq!(dst, PeerId(1));
        assert!(hdr.retransmit);
        assert_eq!((hdr.offset, hdr.payload, hdr.prio), (0, 500, 3));
        assert!(s.parked_index(key(1)).is_some() && s.msgs.is_empty(), "retransmitted: re-parked");
        // The retransmission does not extend the retention window.
        s.expire_lingering(1_000 + LINGER - 1);
        assert!(s.contains(key(1)));
        s.expire_lingering(1_000 + LINGER);
        assert!(!s.contains(key(1)), "expires at the first linger deadline");
        assert_eq!(s.on_resend(key(1), 0, 500, 3), ResendReaction::Unknown);
        // The second full send's entry finds nothing and is dropped.
        s.expire_lingering(3_000_000 + LINGER);
        assert!(s.linger.is_empty());
    }

    #[test]
    fn expiry_spares_a_oneway_with_a_retransmission_pending() {
        let mut s = parked_oneway(0);
        s.on_resend(key(1), 0, 500, 3);
        s.expire_lingering(LINGER);
        assert!(s.contains(key(1)), "retransmission still owed");
        let _ = s.next_data_packet(LINGER).unwrap();
        s.expire_lingering(2 * LINGER);
        assert!(!s.contains(key(1)), "lingers afresh after the retransmission, then expires");
    }

    #[test]
    fn resend_clipped_to_nothing_leaves_it_parked() {
        let mut s = parked_oneway(0);
        // Entirely beyond the message: nothing to retransmit.
        assert_eq!(s.on_resend(key(1), 500, 1_400, 3), ResendReaction::Queued);
        assert!(s.parked_index(key(1)).is_some() && s.msgs.is_empty());
        assert!(!s.has_transmittable());
        assert!(s.next_data_packet(0).is_none());
    }

    #[test]
    fn late_grant_for_parked_key_is_accepted_and_inert() {
        let mut s = parked_oneway(0);
        let before = s.outbound_snapshot();
        assert!(s.on_grant(10, key(1), 1_000_000, 2), "state is still held: grant accepted");
        assert!(s.parked_index(key(1)).is_some() && s.msgs.is_empty());
        assert_eq!(s.outbound_snapshot(), before);
        assert!(!s.has_transmittable());
        assert!(s.next_data_packet(10).is_none());
        s.expire_lingering(LINGER);
        assert!(!s.contains(key(1)), "a grant does not extend retention");
    }

    #[test]
    fn accessors_cover_parked_entries() {
        let mut s = parked_oneway(0);
        s.start_message(0, key(2), PeerId(1), 50_000, 0, false, &map());
        assert_eq!(s.active_messages(), 2);
        assert!(s.contains(key(1)) && s.contains(key(2)));
        assert_eq!(s.get(key(1)).map(|m| m.sent), Some(500));
        let mut snap = s.outbound_snapshot();
        snap.sort_unstable();
        assert_eq!(snap, vec![(key(1), 500, 500, 500, 0), (key(2), 50_000, 0, 9_700, 0)]);
        s.remove(key(1));
        assert!(!s.contains(key(1)));
        assert_eq!(s.active_messages(), 1);
        assert_eq!(s.on_resend(key(1), 0, 500, 0), ResendReaction::Unknown);
    }

    #[test]
    fn parked_messages_do_not_make_the_sender_busy() {
        let mut s = sender();
        // A long message stalled on grants, then many short ones sent and parked.
        s.start_message(0, key(1), PeerId(1), 50_000, 0, false, &map());
        while s.next_data_packet(0).is_some() {}
        for seq in 2..50 {
            s.start_message(0, key(seq), PeerId(2), 200, 0, false, &map());
            let _ = s.next_data_packet(0).unwrap();
        }
        assert_eq!(s.msgs.len(), 1);
        assert_eq!(s.on_resend(key(1), 0, 1_400, 3), ResendReaction::Queued);
    }

    #[test]
    fn incast_mark_limits_blind_prefix() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 50_000, 0, true, &map());
        let mut sent = 0u64;
        while let Some((_, hdr)) = s.next_data_packet(0) {
            assert!(hdr.incast_mark);
            sent += hdr.payload as u64;
        }
        assert_eq!(sent, 400, "incast-marked message sends only a few hundred blind bytes");
    }

    #[test]
    fn deterministic_tie_break_on_equal_remaining() {
        let mut s = sender();
        s.start_message(0, key(2), PeerId(1), 1_000, 0, false, &map());
        s.start_message(0, key(1), PeerId(1), 1_000, 0, false, &map());
        // Equal remaining and equal creation time: lower key wins.
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert_eq!(hdr.key, key(1));
    }

    #[test]
    fn unknown_resend_does_not_scan_the_active_messages() {
        let mut s = sender();
        for seq in 1..=1_000 {
            s.start_message(0, key(seq), PeerId(1), 50_000, 0, false, &map());
        }
        // Never started, wrong origin, and a request sharing a live seq.
        assert_eq!(s.on_resend(key(5_000), 0, 1_400, 3), ResendReaction::Unknown);
        let stranger = MsgKey { origin: PeerId(9), ..key(1) };
        assert_eq!(s.on_resend(stranger, 0, 1_400, 3), ResendReaction::Unknown);
        let request = MsgKey { dir: Dir::Request, ..key(1) };
        assert_eq!(s.on_resend(request, 0, 1_400, 3), ResendReaction::Unknown);
        assert_eq!(s.active_messages(), 1_000);
    }

    #[test]
    fn retained_records_stay_small() {
        fn entry_bytes<T>(_: &VecDeque<T>) -> usize {
            size_of::<T>()
        }
        let s = sender();
        assert!(entry_bytes(&s.parked) <= 40);
        assert_eq!(entry_bytes(&s.linger), 16);
    }

    /// The store the parked ring replaced, as the reference it is held
    /// to: every message whole in one of two hash tables, `linger` keyed
    /// by the full `MsgKey`.
    struct TableSender {
        cfg: HomaConfig,
        msgs: HashMap<MsgKey, OutboundMessage>,
        kept: HashMap<MsgKey, OutboundMessage>,
        linger: VecDeque<(MsgKey, Nanos)>,
    }

    impl TableSender {
        fn get_mut(&mut self, key: MsgKey) -> Option<&mut OutboundMessage> {
            self.msgs.get_mut(&key).or_else(|| self.kept.get_mut(&key))
        }

        fn on_grant(&mut self, now: Nanos, key: MsgKey, offset: u64, prio: u8) -> bool {
            let Some(m) = self.get_mut(key) else { return false };
            if offset > m.granted {
                m.granted = offset.min(m.len);
            }
            m.sched_prio = prio;
            m.last_peer_activity = now;
            m.stall_pokes = 0;
            true
        }

        fn on_resend(&mut self, key: MsgKey, offset: u64, length: u64, prio: u8) -> ResendReaction {
            let shortest_other = self
                .msgs
                .values()
                .filter(|m| m.key != key && m.transmittable())
                .map(|m| m.remaining())
                .min();
            let Some(m) = self.get_mut(key) else { return ResendReaction::Unknown };
            if offset + length > m.granted {
                m.granted = (offset + length).min(m.len);
            }
            m.sched_prio = prio;
            m.queue_retx(offset, length);
            let reaction = match shortest_other {
                Some(r) if r < m.remaining() => ResendReaction::QueuedButBusy(BusyHeader { key }),
                _ => ResendReaction::Queued,
            };
            if !m.fully_sent() {
                if let Some(m) = self.kept.remove(&key) {
                    self.msgs.insert(key, m);
                }
            }
            reaction
        }

        fn next_data_packet(&mut self, now: Nanos) -> Option<(PeerId, DataHeader)> {
            let key = self
                .msgs
                .values()
                .filter(|m| m.transmittable())
                .min_by_key(|m| (m.remaining(), m.created_at, m.key))?
                .key;
            let m = self.msgs.get_mut(&key).unwrap();
            let (offset, payload, retransmit) = m.next_chunk(self.cfg.max_payload).unwrap();
            let unscheduled = offset < m.unsched_limit && !retransmit;
            let hdr = DataHeader {
                key,
                msg_len: m.len,
                offset,
                payload,
                prio: if unscheduled { m.unsched_prio } else { m.sched_prio },
                unscheduled,
                retransmit,
                incast_mark: m.incast_mark,
                tag: m.tag,
            };
            let dst = m.dst;
            if m.fully_sent() {
                match key.dir {
                    Dir::Response => {
                        self.msgs.remove(&key);
                    }
                    Dir::Oneway => {
                        if let Some(m) = self.msgs.remove(&key) {
                            self.kept.insert(key, m);
                        }
                        self.linger.push_back((key, now + 4 * self.cfg.resend_interval_ns));
                    }
                    Dir::Request => {}
                }
            }
            Some((dst, hdr))
        }

        fn remove(&mut self, key: MsgKey) {
            if self.msgs.remove(&key).is_none() {
                self.kept.remove(&key);
            }
        }

        fn contains(&self, key: MsgKey) -> bool {
            self.msgs.contains_key(&key) || self.kept.contains_key(&key)
        }

        fn outbound_snapshot(&self) -> Vec<(MsgKey, u64, u64, u64, usize)> {
            self.msgs
                .values()
                .chain(self.kept.values())
                .map(|m| (m.key, m.len, m.sent, m.granted, m.retx.len()))
                .collect()
        }

        fn expire_lingering(&mut self, now: Nanos) {
            while let Some(&(key, at)) = self.linger.front() {
                if at > now {
                    break;
                }
                self.linger.pop_front();
                self.kept.remove(&key);
            }
        }
    }

    #[test]
    fn parked_ring_answers_like_the_tables_it_replaced() {
        const FAMILY: homa_harness::FuzzFamily = homa_harness::FuzzFamily::new("parked-ring");
        FAMILY.check_seeds("parked_ring_answers_like_the_tables_it_replaced", |rng| {
            const SIZES: [u64; 8] = [1, 200, 1_400, 1_401, 5_000, 9_700, 30_000, 200_000];
            const STEPS: [Nanos; 4] = [0, 1_000, 50_000, 300_000];
            let mut s = sender();
            let mut t = TableSender {
                cfg: HomaConfig::default(),
                msgs: HashMap::new(),
                kept: HashMap::new(),
                linger: VecDeque::new(),
            };
            // Every key started so far with its length; ops pick from it,
            // half the time among the latest eight.
            let mut started: Vec<(MsgKey, u64)> = Vec::new();
            let mut now: Nanos = 0;
            for _ in 0..rng.range(1, 399) {
                let (op, a, b) =
                    (rng.edge_range(0, 15), rng.next_u64() >> 32, rng.next_u64() >> 32);
                now += STEPS[(a % 4) as usize];
                let pick = |started: &[(MsgKey, u64)]| {
                    let (n, r) = (started.len(), b as usize / 2);
                    if n == 0 {
                        return None;
                    }
                    Some(started[if b % 2 == 0 { n - 1 - r % n.min(8) } else { r % n }])
                };
                match op {
                    // Mostly one-ways of mixed sizes — a big low-seq one
                    // finishes after small high-seq ones — and some RPC
                    // halves, which never park.
                    0..=2 => {
                        let seq = started.len() as u64 + 1;
                        let k = match b % 8 {
                            0 => MsgKey { dir: Dir::Request, ..key(seq) },
                            1 => MsgKey { origin: PeerId(7), seq, dir: Dir::Response },
                            _ => key(seq),
                        };
                        let len = SIZES[(a / 4 % 8) as usize];
                        let (dst, mark) = (PeerId(1 + (b % 3) as u32), b % 5 == 0);
                        s.start_message(now, k, dst, len, a, mark, &map());
                        let unsched_limit = t.cfg.unsched_limit_for(mark).min(len);
                        let msg = OutboundMessage {
                            key: k,
                            dst,
                            len,
                            sent: 0,
                            granted: unsched_limit,
                            unsched_limit,
                            sched_prio: 0,
                            unsched_prio: map().unsched_prio(len),
                            retx: Vec::new(),
                            incast_mark: mark,
                            tag: a,
                            created_at: now,
                            last_peer_activity: now,
                            stall_pokes: 0,
                        };
                        t.msgs.insert(k, msg);
                        started.push((k, len));
                    }
                    3..=8 => assert_eq!(s.next_data_packet(now), t.next_data_packet(now)),
                    9 => {
                        if let Some((k, _)) = pick(&started) {
                            let (offset, prio) = (a % 300_000, (a % 8) as u8);
                            assert_eq!(
                                s.on_grant(now, k, offset, prio),
                                t.on_grant(now, k, offset, prio)
                            );
                        }
                    }
                    // RESENDs the receiver could send: part of the
                    // message, all of it, or a range past its end.
                    10 | 11 => {
                        if let Some((k, len)) = pick(&started) {
                            let (offset, length) = match a / 4 % 3 {
                                0 => (a % len, 1 + a % 3_000),
                                1 => (0, len),
                                _ => (len + a % 2, 1_400),
                            };
                            let prio = (a % 8) as u8;
                            assert_eq!(
                                s.on_resend(k, offset, length, prio),
                                t.on_resend(k, offset, length, prio)
                            );
                        }
                    }
                    // RESENDs nobody should answer: a seq never started,
                    // a live seq under another origin or as a request.
                    12 => {
                        let k = match (a / 4 % 3, pick(&started)) {
                            (1, Some((k, _))) => MsgKey { origin: PeerId(99), ..k },
                            (2, Some((k, _))) => MsgKey { dir: Dir::Request, ..k },
                            _ => key(started.len() as u64 + 1 + b % 5),
                        };
                        assert_eq!(s.on_resend(k, 0, 1_400, 0), t.on_resend(k, 0, 1_400, 0));
                    }
                    13 => {
                        if let Some((k, _)) = pick(&started) {
                            s.remove(k);
                            t.remove(k);
                        }
                    }
                    _ => {
                        // Far enough, sometimes, to pass linger deadlines.
                        now += (b % 4) * 1_000_000;
                        s.expire_lingering(now);
                        t.expire_lingering(now);
                    }
                }
                assert_eq!(s.active_messages(), t.msgs.len() + t.kept.len());
                for &(k, _) in &started {
                    assert_eq!(s.contains(k), t.contains(k), "{:?}", k);
                }
                let (mut got, mut want) = (s.outbound_snapshot(), t.outbound_snapshot());
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want);
                assert_eq!(s.msgs.len(), t.msgs.len());
                assert!(
                    s.parked.iter().zip(s.parked.iter().skip(1)).all(|(x, y)| x.seq < y.seq),
                    "ring out of order"
                );
            }
        });
    }
}
