//! Receiver-side protocol state (§3.3–§3.5, §3.7).
//!
//! The receiver is where Homa's intelligence lives:
//!
//! * **Grant scheduling** (§3.3): for every active inbound message, keep
//!   `RTTbytes` of granted-but-not-received data outstanding, one grant
//!   per arriving data packet.
//! * **Controlled overcommitment** (§3.5): at most `K` messages are
//!   *active* (receiving grants) at once, `K` defaulting to the number of
//!   scheduled priority levels; the rest are paused. If there are more
//!   incomplete messages than `K`, only those with the fewest remaining
//!   bytes are granted (SRPT).
//! * **Scheduled priorities** (§3.4): each active message gets its own
//!   priority level, fewest-remaining-bytes highest — but allocated from
//!   the *lowest* levels up, so that a newly arriving shorter message can
//!   be granted a *higher* level than the packets already buffered in the
//!   TOR (avoiding preemption lag, Figure 5).
//! * **Loss detection** (§3.7): Homa has no acks, so the receiver is the
//!   one that notices loss. Each inbound message holds a
//!   [`Silence`](crate::messages::Silence), heard by every DATA and BUSY
//!   packet. A message that is owed bytes and has been silent for a
//!   resend interval gets a RESEND for its first missing range, clipped
//!   to `RTTbytes`; after `abort_after_resends` unanswered ones it is
//!   aborted. The client's response chase and the sender's stall poke
//!   (`endpoint`, `sender`) ask the same clock.

use crate::config::{HomaConfig, RTT_BYTES};
use crate::messages::{sorted_keys, Due, InboundMessage};
use crate::packets::{DataHeader, GrantHeader, MsgKey, PeerId};
use crate::unsched::PriorityMap;
use crate::Nanos;
use std::collections::HashMap;

/// A fully-received message handed up by the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveredMessage {
    /// Message identity.
    pub key: MsgKey,
    /// Sender.
    pub src: PeerId,
    /// Length in bytes.
    pub len: u64,
    /// Application tag from the first packet.
    pub tag: u64,
    /// Whether the request carried the incast mark.
    pub incast_mark: bool,
    /// When the first packet of the message arrived.
    pub first_arrival: Nanos,
}

/// An abort notification: a peer stopped responding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InboundAbort {
    /// The abandoned message.
    pub key: MsgKey,
    /// Its sender.
    pub src: PeerId,
}

/// Receiver half of a Homa endpoint.
#[derive(Debug)]
pub struct ReceiverState {
    cfg: HomaConfig,
    msgs: HashMap<MsgKey, InboundMessage>,
    /// Bytes of goodput delivered to the application.
    delivered_bytes: u64,
    /// Messages delivered to the application.
    delivered_msgs: u64,
    /// True when the last scheduling pass had incomplete messages beyond
    /// the overcommitment limit (the Figure 16 "withholding" probe).
    withholding: bool,
    /// GRANT packets issued, blind re-issues included.
    grants_issued: u64,
    /// Total new credit extended via grants, in bytes (excludes the
    /// implicit credit of unscheduled data).
    granted_bytes: u64,
    /// [`reschedule`](Self::reschedule)'s candidate list, kept between
    /// calls for its allocation (the pass runs once per DATA packet).
    cands: Vec<(u64, MsgKey)>,
}

impl ReceiverState {
    /// New receiver state.
    pub fn new(cfg: HomaConfig) -> Self {
        ReceiverState {
            cfg,
            msgs: HashMap::new(),
            delivered_bytes: 0,
            delivered_msgs: 0,
            withholding: false,
            grants_issued: 0,
            granted_bytes: 0,
            cands: Vec::new(),
        }
    }

    /// The configured degree of overcommitment: how many messages may be
    /// granted to simultaneously (§3.5 — defaults to the number of
    /// scheduled priority levels).
    pub fn overcommit_degree(&self, map: &PriorityMap) -> usize {
        match self.cfg.overcommit_override {
            Some(k) => k.max(1) as usize,
            None => map.sched_levels() as usize,
        }
    }

    /// Handle an arriving DATA packet. Returns the completed message, if
    /// this packet finished one; grants produced by the scheduling pass
    /// are appended to `grants`.
    ///
    /// A message that arrives whole in a packet at offset 0 for a key with
    /// no state (most of W1–W3, §2) is delivered straight from the header.
    /// The general path would give the same answer the long way: create
    /// an entry, record one range that covers it, take the blind bytes as
    /// granted (no GRANT: nothing is left to grant), find it complete,
    /// build the same `DeliveredMessage` from fields just copied out of
    /// the header, remove the entry and reschedule over the same
    /// messages as before. A key that already has state — a partly
    /// received message whose sender restarted — takes the general path,
    /// which merges the packet into what is there.
    pub fn on_data(
        &mut self,
        now: Nanos,
        from: PeerId,
        hdr: &DataHeader,
        map: &PriorityMap,
        grants: &mut Vec<(PeerId, GrantHeader)>,
    ) -> Option<DeliveredMessage> {
        if hdr.offset == 0
            && hdr.msg_len > 0
            && u64::from(hdr.payload) >= hdr.msg_len
            && !self.msgs.contains_key(&hdr.key)
        {
            self.delivered_bytes += hdr.msg_len;
            self.delivered_msgs += 1;
            self.reschedule(map, grants);
            return Some(DeliveredMessage {
                key: hdr.key,
                src: from,
                len: hdr.msg_len,
                tag: hdr.tag,
                incast_mark: hdr.incast_mark,
                first_arrival: now,
            });
        }
        let m = self
            .msgs
            .entry(hdr.key)
            .or_insert_with(|| InboundMessage::new(hdr.key, from, hdr.msg_len, now));
        m.silence.heard(now);
        if hdr.offset == 0 {
            m.tag = hdr.tag;
            m.incast_mark = hdr.incast_mark;
        }
        m.record(hdr.offset, hdr.payload as u64);
        // Unscheduled bytes are implicitly granted: keep our grant
        // bookkeeping ahead of what the sender already sent blindly.
        if hdr.unscheduled {
            let blind_end = (hdr.offset + hdr.payload as u64).min(m.len);
            if blind_end > m.granted {
                m.granted = blind_end;
            } else if blind_end < m.granted && !m.complete() {
                // Blind data below our grant high-water: the sender has
                // restarted from scratch (at-least-once re-execution of an
                // RPC rebuilds its response with fresh state, §3.8). Our
                // grant bookkeeping is ahead of what the new sender
                // incarnation knows, so re-issue the current grant or it
                // will wait forever.
                self.grants_issued += 1;
                grants.push((
                    m.src,
                    GrantHeader {
                        key: m.key,
                        offset: m.granted,
                        prio: m.sched_prio,
                        cutoffs: None,
                    },
                ));
            }
        }

        let done = if m.complete() {
            let d = DeliveredMessage {
                key: m.key,
                src: m.src,
                len: m.len,
                tag: m.tag,
                incast_mark: m.incast_mark,
                first_arrival: m.first_arrival,
            };
            self.delivered_bytes += d.len;
            self.delivered_msgs += 1;
            self.msgs.remove(&hdr.key);
            Some(d)
        } else {
            None
        };

        self.reschedule(map, grants);
        done
    }

    /// A BUSY packet: the sender is alive but occupied — reset the loss
    /// timer for the message.
    pub fn on_busy(&mut self, now: Nanos, key: MsgKey) {
        if let Some(m) = self.msgs.get_mut(&key) {
            m.silence.heard(now);
        }
    }

    /// The grant scheduling pass (§3.4–3.5). Ranks incomplete messages by
    /// remaining bytes (SRPT), grants to the top `K`, assigns each active
    /// message a distinct scheduled priority from the lowest level upward,
    /// and records whether any message is being withheld.
    pub fn reschedule(&mut self, map: &PriorityMap, grants: &mut Vec<(PeerId, GrantHeader)>) {
        let k = self.overcommit_degree(map);
        // Candidates: every incomplete message. A message that is fully
        // granted but not yet fully received still *occupies* one of the
        // K overcommitment slots — only when its data actually arrives
        // (completing it) may a withheld message start receiving grants
        // (§3.3: "Once a grant has been sent for the last bytes of a
        // message, data packets for that message may result in grants to
        // other messages"). Without this, grants cascade to every inbound
        // message and the TOR buffer grows unboundedly under incast.
        let mut cands = std::mem::take(&mut self.cands);
        cands.clear();
        cands.extend(self.msgs.values().filter(|m| !m.complete()).map(|m| (m.remaining(), m.key)));
        cands.sort_unstable();
        self.withholding = cands.len() > k
            && cands[k..].iter().any(|&(_, key)| {
                let m = &self.msgs[&key];
                m.granted < m.len
            });

        let active_count = cands.len().min(k);
        let active = &cands[..active_count];
        for (rank, &(_, key)) in active.iter().enumerate() {
            // Fewest-remaining (rank 0) gets the *highest* level among the
            // ones in use, but levels are filled from the bottom of the
            // scheduled band: with A active messages, ranks map to levels
            // A-1, A-2, ..., 0 (clamped to the scheduled band). This is
            // the paper's lowest-available-priority rule that eliminates
            // preemption lag (Figure 5).
            let level = (active_count - 1 - rank) as u8;
            let prio = map.sched_prio(level);
            let m = self.msgs.get_mut(&key).expect("candidate exists");
            let prio_changed = m.sched_prio != prio;
            m.sched_prio = prio;
            let target = (m.received() + RTT_BYTES).min(m.len);
            if target > m.granted || (prio_changed && m.granted < m.len) {
                if target > m.granted {
                    self.granted_bytes += target - m.granted;
                    m.granted = target;
                }
                self.grants_issued += 1;
                grants.push((
                    m.src,
                    GrantHeader { key: m.key, offset: m.granted, prio, cutoffs: None },
                ));
            }
        }
        // Liveness: an incomplete message is receiving bytes, withheld by
        // overcommitment, or chased by the loss sweep. The active ones
        // must be owed bytes, or nothing would ever move them.
        debug_assert!(
            active.iter().all(|(_, key)| self.msgs[key].expecting()),
            "an active message is owed no bytes: {:?}",
            self.inbound_snapshot()
        );
        // Scheduled priorities (§3.4): no active message rides an
        // unscheduled level, and a shorter message's level is at least the
        // next one's. With one priority the two bands share level 0.
        debug_assert!(
            active.iter().all(|(_, key)| self.msgs[key].sched_prio <= map.max_sched_prio())
                && active
                    .windows(2)
                    .all(|w| self.msgs[&w[0].1].sched_prio >= self.msgs[&w[1].1].sched_prio),
            "scheduled levels break §3.4 (top scheduled level {}): {:?}",
            map.max_sched_prio(),
            active.iter().map(|(rem, key)| (*rem, self.msgs[key].sched_prio)).collect::<Vec<_>>()
        );
        self.cands = cands;
    }

    /// Periodic loss-detection sweep (§3.7), in key order: each message
    /// owed bytes whose sender has been silent for a resend interval gets
    /// a gap request `(src, key, offset, length)` in `resends`, and one
    /// still silent after `abort_after_resends` requests is aborted.
    /// Aborting frees overcommitment slots, so the grant scheduler reruns
    /// and `grants` may be produced for previously-withheld messages.
    pub fn timer_tick(
        &mut self,
        now: Nanos,
        map: &PriorityMap,
        resends: &mut Vec<(PeerId, MsgKey, u64, u64)>,
        aborts: &mut Vec<InboundAbort>,
        grants: &mut Vec<(PeerId, GrantHeader)>,
    ) {
        let mut removed_any = false;
        for key in sorted_keys(&self.msgs) {
            let m = self.msgs.get_mut(&key).expect("key just collected");
            if !m.expecting() {
                continue;
            }
            match m.silence.check(now, &self.cfg) {
                Due::Wait => {}
                Due::Prod => {
                    let (offset, length) = m.first_gap().expect("incomplete message has a gap");
                    resends.push((m.src, key, offset, length.min(RTT_BYTES)));
                }
                Due::GiveUp => {
                    let src = m.src;
                    self.msgs.remove(&key);
                    aborts.push(InboundAbort { key, src });
                    removed_any = true;
                }
            }
        }
        if removed_any {
            // Freed slots must go to withheld messages immediately — no
            // data packet may ever arrive to trigger the next pass.
            self.reschedule(map, grants);
        }
    }

    /// Whether the receiver is withholding grants from at least one
    /// incomplete message because of the overcommitment limit.
    pub fn withholding(&self) -> bool {
        self.withholding
    }

    /// Total application bytes delivered.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Total messages delivered.
    pub fn delivered_msgs(&self) -> u64 {
        self.delivered_msgs
    }

    /// Number of incomplete inbound messages.
    pub fn inbound_count(&self) -> usize {
        self.msgs.len()
    }

    /// Total grants issued (diagnostics).
    pub fn grants_issued(&self) -> u64 {
        self.grants_issued
    }

    /// Total new credit extended via grants, in bytes. Unscheduled data is
    /// implicitly granted and is *not* counted here — this is the credit
    /// the grant scheduler (§3.3/§3.5) chose to put on the wire.
    pub fn granted_bytes(&self) -> u64 {
        self.granted_bytes
    }

    /// Read access to an inbound message (tests).
    pub fn get(&self, key: MsgKey) -> Option<&InboundMessage> {
        self.msgs.get(&key)
    }

    /// Snapshot of all incomplete inbound messages:
    /// `(key, len, received, granted, resends)` sorted by remaining bytes,
    /// `resends` counting those sent since the sender last spoke.
    /// Diagnostics only.
    pub fn inbound_snapshot(&self) -> Vec<(MsgKey, u64, u64, u64, u32)> {
        let mut v: Vec<_> = self
            .msgs
            .values()
            .map(|m| (m.key, m.len, m.received(), m.granted, m.silence.prods()))
            .collect();
        v.sort_by_key(|&(_, len, recv, _, _)| len - recv);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packets::Dir;

    fn key(seq: u64) -> MsgKey {
        MsgKey { origin: PeerId(5), seq, dir: Dir::Oneway }
    }

    fn data(seq: u64, msg_len: u64, offset: u64, payload: u32, unsched: bool) -> DataHeader {
        DataHeader {
            key: key(seq),
            msg_len,
            offset,
            payload,
            prio: 0,
            unscheduled: unsched,
            retransmit: false,
            incast_mark: false,
            tag: seq * 10,
        }
    }

    fn map() -> PriorityMap {
        PriorityMap { num_priorities: 8, unsched_levels: 1, cutoffs: vec![] }
    }

    fn rx() -> ReceiverState {
        ReceiverState::new(HomaConfig::default())
    }

    #[test]
    fn single_packet_message_delivered_no_grants() {
        let mut r = rx();
        let mut grants = Vec::new();
        let d = r.on_data(0, PeerId(5), &data(1, 100, 0, 100, true), &map(), &mut grants);
        let d = d.expect("delivered");
        assert_eq!(d.len, 100);
        assert_eq!(d.tag, 10);
        assert!(grants.is_empty());
        assert_eq!(r.delivered_msgs(), 1);
        assert_eq!(r.inbound_count(), 0);
    }

    #[test]
    fn multi_packet_message_gets_grants_rtt_ahead() {
        let mut r = rx();
        let mut grants = Vec::new();
        let len = 100_000;
        let d = r.on_data(0, PeerId(5), &data(1, len, 0, 1_400, true), &map(), &mut grants);
        assert!(d.is_none());
        assert_eq!(grants.len(), 1);
        let (_, g) = &grants[0];
        assert_eq!(g.offset, 1_400 + 9_700, "grant reaches RTTbytes past received");
        assert_eq!(g.prio, 0, "single message uses lowest scheduled level");
    }

    #[test]
    fn overcommit_limits_active_messages() {
        let cfg = HomaConfig { overcommit_override: Some(2), ..HomaConfig::default() };
        let mut r = ReceiverState::new(cfg);
        let mut grants = Vec::new();
        // Three big inbound messages; only two should be granted.
        for seq in 1..=3 {
            r.on_data(
                0,
                PeerId(5),
                &data(seq, 1_000_000 + seq, 0, 1_400, true),
                &map(),
                &mut grants,
            );
        }
        let granted_keys: std::collections::HashSet<_> =
            grants.iter().map(|(_, g)| g.key).collect();
        assert_eq!(granted_keys.len(), 2);
        assert!(r.withholding(), "third message is withheld");
        // The two smallest-remaining are the active ones.
        assert!(granted_keys.contains(&key(1)));
        assert!(granted_keys.contains(&key(2)));
    }

    #[test]
    fn scheduled_priorities_fill_from_bottom() {
        let mut r = rx(); // K = 7 scheduled levels
        let mut grants = Vec::new();
        // One active message: gets level 0 (lowest).
        r.on_data(0, PeerId(5), &data(1, 500_000, 0, 1_400, true), &map(), &mut grants);
        assert_eq!(grants.last().unwrap().1.prio, 0);
        grants.clear();
        // Second (smaller-remaining) message arrives: it must get level 1
        // while the first drops to level 0.
        r.on_data(0, PeerId(5), &data(2, 100_000, 0, 1_400, true), &map(), &mut grants);
        let (_, g2) = grants.iter().find(|(_, g)| g.key == key(2)).expect("grant for msg2");
        assert_eq!(g2.prio, 1, "shorter message gets the higher of the used levels");
    }

    #[test]
    fn priority_change_triggers_grant_even_without_new_bytes() {
        let mut r = rx();
        let mut grants = Vec::new();
        r.on_data(0, PeerId(5), &data(1, 500_000, 0, 1_400, true), &map(), &mut grants);
        let before = grants.len();
        // A new shorter message re-ranks msg1 from level 0... it stays 0
        // (it is the larger one), but msg2 gets level 1.
        r.on_data(0, PeerId(5), &data(2, 50_000, 0, 1_400, true), &map(), &mut grants);
        assert!(grants.len() > before);
        let g1_after: Vec<_> = grants[before..].iter().filter(|(_, g)| g.key == key(1)).collect();
        // msg1's priority did not change (still lowest), so no redundant
        // grant for it beyond byte progress.
        assert!(g1_after.is_empty());
    }

    #[test]
    fn completion_activates_withheld_message() {
        let cfg = HomaConfig { overcommit_override: Some(1), ..HomaConfig::default() };
        let mut r = ReceiverState::new(cfg);
        let mut grants = Vec::new();
        r.on_data(0, PeerId(5), &data(1, 20_000, 0, 1_400, true), &map(), &mut grants);
        r.on_data(0, PeerId(5), &data(2, 30_000, 0, 1_400, true), &map(), &mut grants);
        assert!(r.withholding());
        let before = grants.iter().filter(|(_, g)| g.key == key(2)).count();
        assert_eq!(before, 0, "msg2 withheld while msg1 active");
        // Deliver the rest of msg1.
        let mut off = 1_400;
        while off < 20_000 {
            let pay = 1_400.min(20_000 - off) as u32;
            r.on_data(1, PeerId(5), &data(1, 20_000, off, pay, false), &map(), &mut grants);
            off += pay as u64;
        }
        assert_eq!(r.delivered_msgs(), 1);
        let after = grants.iter().filter(|(_, g)| g.key == key(2)).count();
        assert!(after > 0, "msg2 granted once msg1 completed");
        assert!(!r.withholding());
    }

    #[test]
    fn resend_after_silence_and_abort_after_retries() {
        let mut r = rx();
        let mut grants = Vec::new();
        r.on_data(0, PeerId(5), &data(1, 50_000, 0, 1_400, true), &map(), &mut grants);
        let mut resends = Vec::new();
        let mut aborts = Vec::new();
        // Silent for 2ms -> first RESEND for the gap right after received.
        r.timer_tick(2_100_000, &map(), &mut resends, &mut aborts, &mut Vec::new());
        assert_eq!(resends, vec![(PeerId(5), key(1), 1_400, 9_700)]);
        assert!(aborts.is_empty());
        // Keep being silent: more RESENDs, then abort.
        let mut t = 2_100_000u64;
        for _ in 0..10 {
            t += 2_100_000;
            r.timer_tick(t, &map(), &mut resends, &mut aborts, &mut Vec::new());
        }
        assert_eq!(aborts.len(), 1);
        assert_eq!(aborts[0].key, key(1));
        assert_eq!(r.inbound_count(), 0);
    }

    #[test]
    fn busy_resets_loss_timer() {
        let mut r = rx();
        let mut grants = Vec::new();
        r.on_data(0, PeerId(5), &data(1, 50_000, 0, 1_400, true), &map(), &mut grants);
        let mut resends = Vec::new();
        let mut aborts = Vec::new();
        r.on_busy(1_900_000, key(1));
        r.timer_tick(2_100_000, &map(), &mut resends, &mut aborts, &mut Vec::new());
        assert!(resends.is_empty(), "BUSY deferred the RESEND");
        r.timer_tick(4_000_000, &map(), &mut resends, &mut aborts, &mut Vec::new());
        assert_eq!(resends.len(), 1);
    }

    #[test]
    fn no_resend_for_quiescent_ungranted_message() {
        // A message that is fully caught up to its grants (e.g. paused by
        // overcommitment) is not chased with RESENDs.
        let cfg = HomaConfig { overcommit_override: Some(1), ..HomaConfig::default() };
        let mut r = ReceiverState::new(cfg);
        let mut grants = Vec::new();
        // msg2 has fewer remaining bytes and is the active one; msg1
        // (one blind packet of a 400 KB message, arriving second) is
        // withheld.
        let mut off = 0;
        while off < 9_700 {
            let pay = 1_400.min(9_700 - off) as u32;
            r.on_data(0, PeerId(5), &data(2, 200_000, off, pay, true), &map(), &mut grants);
            off += pay as u64;
        }
        r.on_data(0, PeerId(5), &data(1, 400_000, 0, 1_400, true), &map(), &mut grants);
        assert!(grants.iter().all(|(_, g)| g.key == key(2)), "only msg2 granted");
        let mut resends = Vec::new();
        let mut aborts = Vec::new();
        r.timer_tick(5_000_000, &map(), &mut resends, &mut aborts, &mut Vec::new());
        // msg2 is granted-and-expecting -> chased. msg1 is withheld (its
        // granted == received) -> not chased, because its sender is not
        // expected to transmit.
        assert!(!resends.is_empty());
        assert!(resends.iter().all(|&(_, k, _, _)| k == key(2)), "{resends:?}");
    }

    #[test]
    fn duplicate_data_does_not_double_deliver() {
        let mut r = rx();
        let mut grants = Vec::new();
        let d1 = r.on_data(0, PeerId(5), &data(1, 100, 0, 100, true), &map(), &mut grants);
        assert!(d1.is_some());
        // Retransmitted duplicate of a completed message: a fresh inbound
        // state is created; it completes again (at-least-once semantics —
        // duplicate suppression happens above the transport, §3.8).
        let d2 = r.on_data(1, PeerId(5), &data(1, 100, 0, 100, true), &map(), &mut grants);
        assert_eq!(d2.map(|d| d.first_arrival), Some(1));
        assert_eq!((r.delivered_msgs(), r.delivered_bytes()), (2, 200));
        assert_eq!(r.inbound_count(), 0);
    }

    #[test]
    fn oversized_first_packet_delivers_the_message_length() {
        let mut r = rx();
        let mut grants = Vec::new();
        let d = r.on_data(3, PeerId(5), &data(1, 100, 0, 1_400, true), &map(), &mut grants);
        let want = DeliveredMessage {
            key: key(1),
            src: PeerId(5),
            len: 100,
            tag: 10,
            incast_mark: false,
            first_arrival: 3,
        };
        assert_eq!(d, Some(want));
        assert!(grants.is_empty());
        assert_eq!((r.delivered_msgs(), r.delivered_bytes()), (1, 100));
        assert_eq!(r.inbound_count(), 0);
    }

    #[test]
    fn empty_message_is_delivered_empty() {
        let mut r = rx();
        let mut grants = Vec::new();
        let d = r.on_data(0, PeerId(5), &data(1, 0, 0, 0, true), &map(), &mut grants);
        assert_eq!(d.map(|d| d.len), Some(0));
        assert_eq!((r.delivered_msgs(), r.delivered_bytes()), (1, 0));
        assert_eq!(r.inbound_count(), 0);
    }

    #[test]
    fn whole_message_retransmission_completes_existing_partial_state() {
        let mut r = rx();
        let mut grants = Vec::new();
        // A middle packet first: the key has state when the whole message
        // comes in one (retransmitted) packet.
        assert!(r
            .on_data(0, PeerId(5), &data(1, 1_000, 400, 300, true), &map(), &mut grants)
            .is_none());
        assert_eq!(r.inbound_count(), 1);
        let d = r.on_data(7, PeerId(5), &data(1, 1_000, 0, 1_000, false), &map(), &mut grants);
        let d = d.expect("completed through the existing state");
        assert_eq!(
            (d.len, d.first_arrival),
            (1_000, 0),
            "the first packet's arrival, not this one's"
        );
        assert_eq!((r.delivered_msgs(), r.delivered_bytes()), (1, 1_000));
        assert_eq!(r.inbound_count(), 0);
    }

    #[test]
    fn one_packet_delivery_leaves_withholding_as_a_full_pass_would() {
        let cfg = HomaConfig { overcommit_override: Some(1), ..HomaConfig::default() };
        let mut r = ReceiverState::new(cfg);
        let mut grants = Vec::new();
        r.on_data(0, PeerId(5), &data(1, 20_000, 0, 1_400, true), &map(), &mut grants);
        assert!(!r.withholding());
        // A one-packet message arrives while nothing is withheld, then
        // while something is: the probe follows the incomplete messages.
        assert!(r
            .on_data(1, PeerId(5), &data(8, 100, 0, 100, true), &map(), &mut grants)
            .is_some());
        assert!(!r.withholding());
        r.on_data(2, PeerId(5), &data(2, 30_000, 0, 1_400, true), &map(), &mut grants);
        assert!(r
            .on_data(3, PeerId(5), &data(9, 100, 0, 100, true), &map(), &mut grants)
            .is_some());
        assert!(r.withholding());
        let before = grants.len();
        r.reschedule(&map(), &mut grants);
        assert_eq!(grants.len(), before, "the delivery's own pass left nothing to grant");
        assert!(r.withholding());
        assert_eq!(r.inbound_count(), 2);
    }
}
