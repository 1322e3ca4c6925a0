//! NDP (Handley et al., SIGCOMM 2017) on the shared fabric.
//!
//! NDP re-architects the fabric: switches keep extremely short data
//! queues (8 packets) and, instead of dropping on overflow, *trim*
//! packets to their headers and forward the headers at high priority.
//! The receiver learns of every packet — trimmed or not — and paces PULL
//! packets back to the senders at its downlink rate, servicing senders
//! round-robin (fair share). Senders blast the first RTTbytes blindly,
//! then send one packet per PULL, retransmitting trimmed offsets first.
//!
//! Per the Homa paper's analysis (§5.2), NDP's fair-share (non-SRPT)
//! scheduling and lack of overcommitment produce uniformly high slowdown
//! for messages longer than RTTbytes, and senders without prioritized
//! transmit queues suffer head-of-line blocking for short messages.
//! The fabric should be configured with [`fabric_queues`]
//! (trim-capable short queues).

use crate::common::{
    full_packet_time_ns, ns, CtrlQueue, FlowId, FlowTable, ReassemblyTable, TickTimer, TxBody,
};
use homa::config::{CTRL_BYTES, DATA_OVERHEAD, MAX_PAYLOAD, RTT_BYTES};
use homa_sim::{
    HostId, Packet, PacketMeta, SimDuration, SimTime, TimerToken, Transport, TransportActions,
};
use std::collections::VecDeque;

/// NDP configuration: the one value that comes from the fabric.
#[derive(Debug, Clone)]
pub struct NdpConfig {
    /// Downlink speed used to pace pulls, bits/second.
    pub link_bps: u64,
}

impl Default for NdpConfig {
    fn default() -> Self {
        NdpConfig { link_bps: 10_000_000_000 }
    }
}

/// Initial blind window per message (RTTbytes).
const INITIAL_WINDOW: u64 = RTT_BYTES;

/// Packet metadata for NDP.
#[derive(Debug, Clone)]
pub enum NdpMeta {
    /// Data segment (possibly trimmed to a header in the fabric).
    Data {
        /// Message identity.
        flow: FlowId,
        /// Message length.
        msg_len: u64,
        /// Offset of this segment.
        offset: u64,
        /// Payload bytes (0 after trimming).
        payload: u32,
        /// Application tag.
        tag: u64,
        /// Retransmission flag.
        retx: bool,
    },
    /// Receiver-paced transmission credit, optionally requesting a
    /// specific trimmed offset.
    Pull {
        /// Message being pulled.
        flow: FlowId,
        /// Specific offset to retransmit (trimmed earlier), or `None` for
        /// the next fresh packet.
        retx_offset: Option<u64>,
    },
    /// Receiver's completion notice: the sender may discard flow state.
    Done {
        /// Completed message.
        flow: FlowId,
    },
}

impl PacketMeta for NdpMeta {
    fn wire_bytes(&self) -> u32 {
        match self {
            NdpMeta::Data { payload, .. } => payload + DATA_OVERHEAD,
            NdpMeta::Pull { .. } | NdpMeta::Done { .. } => CTRL_BYTES,
        }
    }
    fn priority(&self) -> u8 {
        // NDP's priorities are structural (trimmed headers + control in
        // the high queue); the NdpTrim discipline keys on is_control /
        // was_trimmed, not this value.
        0
    }
    fn is_control(&self) -> bool {
        !matches!(self, NdpMeta::Data { .. })
    }
    fn goodput_bytes(&self) -> u32 {
        match self {
            NdpMeta::Data { payload, retx: false, .. } => *payload,
            _ => 0,
        }
    }
    fn trimmed(&self) -> Option<Self> {
        match self {
            NdpMeta::Data { flow, msg_len, offset, tag, retx, .. } => Some(NdpMeta::Data {
                flow: *flow,
                msg_len: *msg_len,
                offset: *offset,
                payload: 0,
                tag: *tag,
                retx: *retx,
            }),
            NdpMeta::Pull { .. } | NdpMeta::Done { .. } => None,
        }
    }
}

/// Sender-side flow state: pull credit on top of the shared body.
#[derive(Debug)]
struct TxMsg {
    body: TxBody,
    /// Bytes authorized: initial window plus one packet per pull.
    granted: u64,
}

const PACER_TOKEN: TimerToken = TimerToken(5);

/// The NDP transport instance for one host.
pub struct NdpTransport {
    me: HostId,
    next_seq: u64,
    tx: FlowTable<TxMsg>,
    rx: ReassemblyTable,
    /// Fair-share pull queue: FIFO of pending pulls (flow, retx offset).
    pulls: VecDeque<(HostId, FlowId, Option<u64>)>,
    ctrl: CtrlQueue<NdpMeta>,
    pacer: TickTimer,
}

impl NdpTransport {
    /// New NDP transport for host `me`.
    pub fn new(me: HostId, cfg: NdpConfig) -> Self {
        let gap = SimDuration::from_nanos(full_packet_time_ns(cfg.link_bps));
        NdpTransport {
            me,
            next_seq: 1,
            tx: FlowTable::new(),
            rx: ReassemblyTable::new(),
            pulls: VecDeque::new(),
            ctrl: CtrlQueue::new(),
            pacer: TickTimer::new(PACER_TOKEN, gap),
        }
    }
}

impl Transport<NdpMeta> for NdpTransport {
    fn on_packet(&mut self, now: SimTime, pkt: Packet<NdpMeta>, act: &mut TransportActions) {
        match pkt.meta {
            NdpMeta::Data { flow, msg_len, offset, payload, tag, .. } => {
                let Some(mut slot) = self.rx.upsert(flow, msg_len, tag, ns(now)) else {
                    // Late duplicate of a delivered message: repeat the
                    // completion notice so the sender frees its state,
                    // without rebuilding receive state or pacing pulls.
                    self.ctrl.push(flow.src, NdpMeta::Done { flow });
                    act.kick_tx();
                    return;
                };
                // A zero-payload packet is a fabric-trimmed header —
                // unless the message itself is empty, in which case it
                // is the message's one legitimate packet.
                let trimmed = pkt.was_trimmed || (payload == 0 && msg_len > 0);
                if trimmed {
                    // Header-only arrival: the payload was cut in the
                    // fabric; schedule a retransmission pull.
                    self.pulls.push_back((flow.src, flow, Some(offset)));
                } else {
                    slot.record(offset, payload, tag);
                    if slot.deliver_if_complete(act) {
                        self.ctrl.push(flow.src, NdpMeta::Done { flow });
                        act.kick_tx();
                        self.pacer.ensure(now, act);
                        return;
                    }
                    // Fair share: each arrival earns the flow one more
                    // pull if it still has unpulled fresh bytes.
                    self.pulls.push_back((flow.src, flow, None));
                }
                self.pacer.ensure(now, act);
            }
            NdpMeta::Pull { flow, retx_offset } => {
                if let Some(m) = self.tx.get_mut(flow) {
                    match retx_offset {
                        Some(o) => m.body.queue_retx(o),
                        None => {
                            m.granted = (m.granted + MAX_PAYLOAD as u64).min(m.body.len);
                        }
                    }
                    act.kick_tx();
                }
            }
            NdpMeta::Done { flow } => {
                self.tx.remove(flow);
            }
        }
    }

    fn on_timer(&mut self, now: SimTime, token: TimerToken, act: &mut TransportActions) {
        debug_assert!(self.pacer.matches(token));
        // Emit one pull per packet-time (receiver-paced downlink).
        while let Some((dst, flow, retx)) = self.pulls.pop_front() {
            // Skip pulls for flows that completed meanwhile.
            let alive = self.rx.get(&flow).map(|f| !f.msg.complete()).unwrap_or(false);
            if alive {
                self.ctrl.push(dst, NdpMeta::Pull { flow, retx_offset: retx });
                act.kick_tx();
                break;
            }
        }
        if !self.pulls.is_empty() || self.rx.any_incomplete() {
            self.pacer.rearm(now, act);
        } else {
            self.pacer.disarm();
        }
    }

    fn next_packet(&mut self, _now: SimTime) -> Option<Packet<NdpMeta>> {
        if let Some(pkt) = self.ctrl.pop_packet(self.me) {
            return Some(pkt);
        }
        // NDP senders keep a FIFO transmit queue (no SRPT — the Homa
        // paper calls out the resulting head-of-line blocking). Serve
        // flows in insertion order: retransmissions first within a flow.
        let (flow, m) = self.tx.select_first(|m| m.body.has_work(m.granted))?;
        let (offset, payload, retx) = m.body.next_chunk_whole(m.granted).expect("has_work");
        let pkt =
            NdpMeta::Data { flow, msg_len: m.body.len, offset, payload, tag: m.body.tag, retx };
        // Sender state is retained until the receiver's Done arrives:
        // even the final packet can be trimmed in the fabric and need a
        // pulled retransmission.
        Some(Packet::new(self.me, m.body.dst, pkt))
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
        let granted = INITIAL_WINDOW.min(len);
        self.tx.insert(flow, TxMsg { body: TxBody::new(dst, len, tag), granted });
        act.kick_tx();
    }

    fn delivered_bytes(&self) -> u64 {
        self.rx.delivered_bytes()
    }
}

/// Fabric configuration for NDP: trim-capable data queues of
/// [`homa_sim::queues::NDP_DATA_PACKETS`] on every switch port.
pub fn fabric_queues(_cfg: &NdpConfig) -> homa_sim::QueueDiscipline {
    homa_sim::QueueDiscipline { kind: homa_sim::QueueKind::NdpTrim, cap_bytes: 1 << 20, ecn: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homa_sim::{AppEvent, Network, NetworkConfig, Topology};

    fn net(n: u32) -> Network<NdpMeta, NdpTransport> {
        let netcfg = NetworkConfig::uniform(1, fabric_queues(&NdpConfig::default()));
        Network::new(Topology::single_switch(n), netcfg, |h| {
            NdpTransport::new(h, NdpConfig::default())
        })
    }

    #[test]
    fn message_within_initial_window() {
        let mut net = net(4);
        net.inject_message(HostId(0), HostId(1), 5_000, 1);
        net.run_until(SimTime::from_millis(2));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1);
    }

    #[test]
    fn zero_length_message_delivers() {
        // The empty announcement packet must not be mistaken for a
        // fabric-trimmed header (both have payload 0).
        let mut net = net(4);
        net.inject_message(HostId(0), HostId(1), 0, 14);
        net.run_until(SimTime::from_millis(1));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1, "empty message announces itself with one packet");
        assert!(matches!(evs[0].2, AppEvent::MessageDelivered { len: 0, tag: 14, .. }));
    }

    #[test]
    fn long_message_sustained_by_pulls() {
        let mut net = net(4);
        net.inject_message(HostId(0), HostId(1), 300_000, 2);
        net.run_until(SimTime::from_millis(10));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1, "pull pacing completes the transfer");
    }

    #[test]
    fn trimming_recovers_under_incast() {
        let mut net = net(8);
        // Seven senders blast one receiver: the 8-packet data queues trim
        // heavily, and everything must still arrive via pull-retx.
        for s in 0..7u32 {
            net.inject_message(HostId(s), HostId(7), 50_000, s as u64);
        }
        net.run_until(SimTime::from_millis(50));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 7, "all messages recovered after trimming");
        let stats = net.harvest_stats();
        assert!(stats.total_trims() > 0, "trimming must have occurred");
        assert_eq!(stats.total_drops(), 0, "NDP trims instead of dropping");
    }

    #[test]
    fn fair_share_round_robins_flows() {
        let mut net = net(4);
        // Two long messages into one receiver: fair share means they
        // finish at roughly the same time (unlike SRPT run-to-completion).
        net.inject_message(HostId(0), HostId(3), 200_000, 1);
        net.inject_message(HostId(1), HostId(3), 200_000, 2);
        net.run_until(SimTime::from_millis(20));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 2);
        let t1 = evs[0].0.as_micros_f64();
        let t2 = evs[1].0.as_micros_f64();
        assert!((t2 - t1).abs() < 0.25 * t2.max(t1), "fair share: {t1} vs {t2}");
    }
}
