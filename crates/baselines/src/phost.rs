//! pHost (Gao et al., CoNEXT 2015) on the shared fabric.
//!
//! pHost is the receiver-driven scheduler closest to Homa (§2.2, §7 of
//! the Homa paper). Mechanisms modelled, per the original paper and the
//! Homa paper's description:
//!
//! * a sender announces each message with an RTS and may transmit the
//!   first RTTbytes as *free* (token-less) packets;
//! * the receiver paces out one token per packet-time of its downlink,
//!   always to the pending message with the fewest remaining bytes
//!   (SRPT), with at most a BDP of tokens outstanding per message —
//!   **no overcommitment**: one message is scheduled at a time;
//! * if a granted sender stays silent past a timeout the receiver
//!   *downgrades* it for a while and gives its tokens to other messages;
//! * only two static priorities: RTS/free/control packets travel high,
//!   scheduled data travels low.
//!
//! The limitations the Homa paper demonstrates — a single priority level
//! for all blind transmissions, preemption lag for multi-RTT messages,
//! and wasted downlink bandwidth when senders do not respond to tokens
//! (Figures 12/15) — all emerge from these mechanics.

use crate::common::{
    full_packet_time_ns, ns, CtrlQueue, FlowId, FlowTable, ReassemblyTable, TickTimer, TxBody,
};
use homa::config::{CTRL_BYTES, DATA_OVERHEAD, MAX_PAYLOAD, RTT_BYTES};
use homa_sim::{
    HostId, Packet, PacketMeta, SimDuration, SimTime, TimerToken, Transport, TransportActions,
};

/// pHost configuration: the one value that comes from the fabric.
#[derive(Debug, Clone)]
pub struct PhostConfig {
    /// Downlink speed used to pace tokens, bits/second.
    pub link_bps: u64,
}

impl Default for PhostConfig {
    fn default() -> Self {
        PhostConfig { link_bps: 10_000_000_000 }
    }
}

/// Free (token-less) bytes at the head of each message.
const FREE_BYTES: u64 = RTT_BYTES;
/// Maximum tokens outstanding per message, in bytes.
const TOKEN_WINDOW: u64 = RTT_BYTES;
/// Silence threshold after which a granted sender is downgraded, ns.
const DOWNGRADE_NS: u64 = 30_000;
/// How long a downgraded sender stays penalized, ns.
const PENALTY_NS: u64 = 100_000;

/// Packet metadata for pHost.
#[derive(Debug, Clone)]
pub enum PhostMeta {
    /// Request-to-send: announces a message.
    Rts {
        /// Message identity.
        flow: FlowId,
        /// Message length.
        msg_len: u64,
    },
    /// One packet's worth of transmission credit.
    Token {
        /// Message being granted.
        flow: FlowId,
        /// Byte offset this token authorizes.
        offset: u64,
    },
    /// Data segment.
    Data {
        /// Message identity.
        flow: FlowId,
        /// Message length.
        msg_len: u64,
        /// Offset of this segment.
        offset: u64,
        /// Payload bytes.
        payload: u32,
        /// True for token-less (free) packets — they travel at the high
        /// static priority.
        free: bool,
        /// Application tag.
        tag: u64,
    },
}

/// pHost's two static priorities (of the 8 available, it uses 2).
const HIGH: u8 = 7;
const LOW: u8 = 0;

impl PacketMeta for PhostMeta {
    fn wire_bytes(&self) -> u32 {
        match self {
            PhostMeta::Data { payload, .. } => payload + DATA_OVERHEAD,
            _ => CTRL_BYTES,
        }
    }
    fn priority(&self) -> u8 {
        match self {
            PhostMeta::Data { free, .. } => {
                if *free {
                    HIGH
                } else {
                    LOW
                }
            }
            _ => HIGH,
        }
    }
    fn is_control(&self) -> bool {
        !matches!(self, PhostMeta::Data { .. })
    }
    fn goodput_bytes(&self) -> u32 {
        match self {
            PhostMeta::Data { payload, .. } => *payload,
            _ => 0,
        }
    }
}

/// Sender-side flow state: grant level on top of the shared body.
#[derive(Debug)]
struct TxMsg {
    body: TxBody,
    /// Bytes authorized (free prefix + tokens).
    granted: u64,
}

/// Receiver-side token-scheduler state, hung off the shared reassembly
/// entry.
#[derive(Debug, Default)]
struct RxSched {
    /// Bytes granted via tokens (absolute offset; starts at free prefix).
    granted: u64,
    /// Last data arrival.
    last_data: u64,
    /// Penalized (downgraded) until this time.
    penalized_until: u64,
}

const PACER_TOKEN: TimerToken = TimerToken(4);

/// The pHost transport instance for one host.
pub struct PhostTransport {
    me: HostId,
    next_seq: u64,
    tx: FlowTable<TxMsg>,
    rx: ReassemblyTable<RxSched>,
    ctrl: CtrlQueue<PhostMeta>,
    pacer: TickTimer,
}

impl PhostTransport {
    /// New pHost transport for host `me`.
    pub fn new(me: HostId, cfg: PhostConfig) -> Self {
        let gap = SimDuration::from_nanos(full_packet_time_ns(cfg.link_bps));
        PhostTransport {
            me,
            next_seq: 1,
            tx: FlowTable::new(),
            rx: ReassemblyTable::new(),
            ctrl: CtrlQueue::new(),
            pacer: TickTimer::new(PACER_TOKEN, gap),
        }
    }

    /// The receiver's token pass: pick the SRPT-best eligible message and
    /// credit one packet.
    fn issue_token(&mut self, now: SimTime) {
        let t = ns(now);
        // Full FlowId in the rank: `seq` alone collides across senders.
        // With it the rank is unique, so the pick does not rest on the
        // order the table is walked in.
        let best = self.rx.select_min(|id, f| {
            let eligible = !f.msg.complete()
                && f.ext.granted < f.msg.len
                && f.ext.granted.saturating_sub(f.msg.received()) < TOKEN_WINDOW
                && f.ext.penalized_until <= t;
            eligible.then(|| (f.msg.remaining(), id))
        });
        if let Some((id, f)) = best {
            let offset = f.ext.granted;
            f.ext.granted = (f.ext.granted + MAX_PAYLOAD as u64).min(f.msg.len);
            self.ctrl.push(id.src, PhostMeta::Token { flow: id, offset });
        }
    }

    /// Downgrade granted-but-silent senders (pHost's timeout mechanism).
    fn downgrade_silent(&mut self, now: SimTime) {
        let t = ns(now);
        for f in self.rx.values_mut() {
            if f.ext.granted > f.msg.received()
                && f.ext.penalized_until <= t
                && t.saturating_sub(f.ext.last_data) > DOWNGRADE_NS
            {
                f.ext.penalized_until = t + PENALTY_NS;
                // Rescind unused credit so it can be re-issued to others.
                f.ext.granted = f.msg.received().max(FREE_BYTES.min(f.msg.len));
            }
        }
    }
}

impl Transport<PhostMeta> for PhostTransport {
    fn on_packet(&mut self, now: SimTime, pkt: Packet<PhostMeta>, act: &mut TransportActions) {
        match pkt.meta {
            PhostMeta::Rts { flow, msg_len } => {
                // A late RTS for a delivered message is dropped by the
                // tombstone check inside upsert_with.
                let _ = self.rx.upsert_with(flow, msg_len, 0, ns(now), || RxSched {
                    granted: FREE_BYTES.min(msg_len),
                    last_data: ns(now),
                    penalized_until: 0,
                });
                self.pacer.ensure(now, act);
            }
            PhostMeta::Token { flow, offset } => {
                if let Some(m) = self.tx.get_mut(flow) {
                    let end = (offset + MAX_PAYLOAD as u64).min(m.body.len);
                    if end > m.granted {
                        m.granted = end;
                    }
                    act.kick_tx();
                }
            }
            PhostMeta::Data { flow, msg_len, offset, payload, tag, .. } => {
                let entry = self.rx.upsert_with(flow, msg_len, tag, ns(now), || RxSched {
                    granted: FREE_BYTES.min(msg_len),
                    last_data: ns(now),
                    penalized_until: 0,
                });
                if let Some(mut slot) = entry {
                    slot.record(offset, payload, tag);
                    let f = slot.entry();
                    f.ext.last_data = ns(now);
                    f.ext.penalized_until = 0;
                    slot.deliver_if_complete(act);
                }
                self.pacer.ensure(now, act);
            }
        }
    }

    fn on_timer(&mut self, now: SimTime, token: TimerToken, act: &mut TransportActions) {
        debug_assert!(self.pacer.matches(token));
        self.downgrade_silent(now);
        self.issue_token(now);
        if !self.ctrl.is_empty() {
            act.kick_tx();
        }
        // Keep pacing while there is anything to schedule.
        if self.rx.any_incomplete() {
            self.pacer.rearm(now, act);
        } else {
            self.pacer.disarm();
        }
    }

    fn next_packet(&mut self, _now: SimTime) -> Option<Packet<PhostMeta>> {
        if let Some(pkt) = self.ctrl.pop_packet(self.me) {
            return Some(pkt);
        }
        // SRPT among messages with authorized bytes.
        let (flow, m) = self.tx.select_min(|f, m| {
            m.body.has_work(m.granted).then(|| (m.body.len - m.body.fresh, f.seq))
        })?;
        let (offset, payload, _) = m.body.next_chunk(m.granted).expect("has_work");
        let free = offset < FREE_BYTES;
        let pkt =
            PhostMeta::Data { flow, msg_len: m.body.len, offset, payload, free, tag: m.body.tag };
        let dst = m.body.dst;
        if m.body.fresh >= m.body.len {
            self.tx.remove(flow);
        }
        Some(Packet::new(self.me, dst, pkt))
    }

    fn inject_message(
        &mut self,
        _now: SimTime,
        dst: HostId,
        len: u64,
        tag: u64,
        act: &mut TransportActions,
    ) {
        let flow = FlowId { src: self.me, seq: self.next_seq };
        self.next_seq += 1;
        let granted = FREE_BYTES.min(len);
        self.tx.insert(flow, TxMsg { body: TxBody::new(dst, len, tag), granted });
        self.ctrl.push(dst, PhostMeta::Rts { flow, msg_len: len });
        act.kick_tx();
    }

    fn delivered_bytes(&self) -> u64 {
        self.rx.delivered_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homa_sim::{AppEvent, Network, NetworkConfig, Topology};

    fn net(n: u32) -> Network<PhostMeta, PhostTransport> {
        Network::new(Topology::single_switch(n), NetworkConfig::default(), |h| {
            PhostTransport::new(h, PhostConfig::default())
        })
    }

    #[test]
    fn small_message_free_window_only() {
        let mut net = net(4);
        net.inject_message(HostId(0), HostId(1), 5_000, 1);
        net.run_until(SimTime::from_millis(2));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1);
        // Under the free window, latency is close to raw serialization.
        assert!(evs[0].0.as_micros_f64() < 10.0);
    }

    #[test]
    fn zero_length_message_delivers() {
        let mut net = net(4);
        net.inject_message(HostId(0), HostId(1), 0, 12);
        net.run_until(SimTime::from_millis(1));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1, "empty message announces itself with one packet");
        assert!(matches!(evs[0].2, AppEvent::MessageDelivered { len: 0, tag: 12, .. }));
    }

    #[test]
    fn large_message_paced_by_tokens() {
        let mut net = net(4);
        net.inject_message(HostId(0), HostId(1), 500_000, 2);
        net.run_until(SimTime::from_millis(10));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1, "token pacing sustains the transfer");
        // ~0.43ms of serialization; allow pacing overhead.
        assert!(evs[0].0.as_micros_f64() < 800.0, "took {}us", evs[0].0.as_micros_f64());
    }

    #[test]
    fn srpt_scheduling_among_inbound() {
        let mut net = net(4);
        net.inject_message(HostId(0), HostId(3), 1_000_000, 1);
        net.inject_message(HostId(1), HostId(3), 50_000, 2);
        net.run_until(SimTime::from_millis(30));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 2);
        assert!(
            matches!(evs[0].2, AppEvent::MessageDelivered { tag: 2, .. }),
            "receiver tokens favour the shorter message"
        );
    }

    #[test]
    fn all_messages_complete_under_fanin() {
        let mut net = net(8);
        for s in 0..7u32 {
            net.inject_message(HostId(s), HostId(7), 60_000, s as u64);
        }
        net.run_until(SimTime::from_millis(20));
        assert_eq!(net.take_app_events().len(), 7);
    }
}
