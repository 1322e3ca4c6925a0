//! pFabric (Alizadeh et al., SIGCOMM 2013) on the shared fabric.
//!
//! pFabric achieves near-optimal tail latency by pushing SRPT into the
//! switches: every data packet carries the number of bytes remaining in
//! its message, switches dequeue the packet with the *fewest* remaining
//! bytes and, on overflow, drop the queued packet with the *most*. Rate
//! control is minimal: every message starts at line rate with a window of
//! one bandwidth-delay product, relying on priority dropping instead of
//! congestion avoidance; losses are recovered by per-message timeouts.
//!
//! The fabric must be configured with [`homa_sim::QueueKind::Pfabric`]
//! queues and a small per-port buffer (the original paper uses ~2 BDP;
//! see [`fabric_queues`]).
//!
//! The Homa paper's observations reproduced here: latency close to Homa's
//! across sizes (Figure 12), but wasted bandwidth from dropped-then-
//! retransmitted packets limits the sustainable load (Figure 15).

use crate::common::{
    ns, payload_at, CtrlQueue, FlowId, FlowTable, ReassemblyTable, TickTimer, TxBody,
};
use homa::config::{CTRL_BYTES, DATA_OVERHEAD, MAX_PAYLOAD, RTT_BYTES};
use homa_sim::{
    HostId, Packet, PacketMeta, SimDuration, SimTime, TimerToken, Transport, TransportActions,
};
use std::collections::BTreeSet;

/// pFabric configuration: none; the transport runs on the fixed
/// parameters below.
#[derive(Debug, Clone, Default)]
pub struct PfabricConfig {}

/// Per-message window of unacked packets, in bytes (1 BDP).
const WINDOW: u64 = RTT_BYTES;
/// Per-message retransmission timeout in nanoseconds.
const RTO_NS: u64 = 100_000;
/// Per-port buffer for the fabric (2 BDP, per the pFabric paper), read by
/// [`fabric_queues`] so the harness configures the switches consistently.
const QUEUE_CAP_BYTES: u64 = 2 * RTT_BYTES * 2;

/// Packet metadata for pFabric.
#[derive(Debug, Clone)]
pub enum PfabricMeta {
    /// A data packet tagged with its message's remaining bytes.
    Data {
        /// Flow (message) identity.
        flow: FlowId,
        /// Total message length.
        msg_len: u64,
        /// Offset of this packet.
        offset: u64,
        /// Payload bytes.
        payload: u32,
        /// Remaining bytes of the message as of transmission — the
        /// in-fabric priority (smaller = more urgent).
        remaining: u64,
        /// Application tag.
        tag: u64,
        /// Retransmission flag (excluded from goodput).
        retx: bool,
    },
    /// Per-packet ack.
    Ack {
        /// Flow the ack belongs to.
        flow: FlowId,
        /// Offset being acknowledged.
        offset: u64,
    },
}

impl PacketMeta for PfabricMeta {
    fn wire_bytes(&self) -> u32 {
        match self {
            PfabricMeta::Data { payload, .. } => payload + DATA_OVERHEAD,
            PfabricMeta::Ack { .. } => CTRL_BYTES,
        }
    }
    fn priority(&self) -> u8 {
        0 // strict-priority levels unused; the Pfabric queue discipline keys on fine_priority
    }
    fn fine_priority(&self) -> Option<u64> {
        match self {
            PfabricMeta::Data { remaining, .. } => Some(*remaining),
            PfabricMeta::Ack { .. } => None, // control: served first, never dropped
        }
    }
    fn is_control(&self) -> bool {
        matches!(self, PfabricMeta::Ack { .. })
    }
    fn goodput_bytes(&self) -> u32 {
        match self {
            PfabricMeta::Data { payload, retx: false, .. } => *payload,
            _ => 0,
        }
    }
}

#[derive(Debug)]
struct TxMsg {
    body: TxBody,
    /// Sent but unacked offsets.
    unacked: BTreeSet<u64>,
    /// Acked byte count.
    acked_bytes: u64,
    /// Last ack progress (for RTO).
    last_progress: u64,
}

impl TxMsg {
    fn remaining(&self) -> u64 {
        self.body.len - self.acked_bytes
    }
    fn window_used(&self) -> u64 {
        self.unacked.len() as u64 * MAX_PAYLOAD as u64
    }
    fn has_sendable(&self) -> bool {
        self.body.has_work(self.body.len) && self.window_used() < WINDOW
    }
    fn done(&self) -> bool {
        self.acked_bytes >= self.body.len
    }
}

const RTO_TOKEN: TimerToken = TimerToken(3);
const RTO_TICK: SimDuration = SimDuration::from_micros(50);

/// The pFabric transport instance for one host.
pub struct PfabricTransport {
    me: HostId,
    next_seq: u64,
    tx: FlowTable<TxMsg>,
    rx: ReassemblyTable,
    ctrl: CtrlQueue<PfabricMeta>,
    rto: TickTimer,
}

impl PfabricTransport {
    /// New pFabric transport for host `me`.
    pub fn new(me: HostId, _cfg: PfabricConfig) -> Self {
        PfabricTransport {
            me,
            next_seq: 1,
            tx: FlowTable::new(),
            rx: ReassemblyTable::new(),
            ctrl: CtrlQueue::new(),
            rto: TickTimer::new(RTO_TOKEN, RTO_TICK),
        }
    }
}

impl Transport<PfabricMeta> for PfabricTransport {
    fn on_packet(&mut self, now: SimTime, pkt: Packet<PfabricMeta>, act: &mut TransportActions) {
        self.rto.ensure(now, act);
        match pkt.meta {
            PfabricMeta::Data { flow, msg_len, offset, payload, tag, .. } => {
                // Always ack — even late duplicates of a delivered
                // message, so the sender's RTO loop terminates.
                self.ctrl.push(pkt.src, PfabricMeta::Ack { flow, offset });
                if let Some(mut slot) = self.rx.upsert(flow, msg_len, tag, ns(now)) {
                    slot.record(offset, payload, tag);
                    slot.deliver_if_complete(act);
                }
                act.kick_tx();
            }
            PfabricMeta::Ack { flow, offset } => {
                let mut finished = false;
                if let Some(m) = self.tx.get_mut(flow) {
                    if m.unacked.remove(&offset) {
                        m.acked_bytes += payload_at(m.body.len, offset) as u64;
                        m.last_progress = ns(now);
                    }
                    // An ack also cancels any queued retransmission.
                    m.body.cancel_retx(offset);
                    finished = m.done();
                }
                if finished {
                    self.tx.remove(flow);
                }
                act.kick_tx();
            }
        }
    }

    fn on_timer(&mut self, now: SimTime, _token: TimerToken, act: &mut TransportActions) {
        let mut kick = false;
        for m in self.tx.values_mut() {
            if !m.unacked.is_empty() && ns(now).saturating_sub(m.last_progress) > RTO_NS {
                // Requeue all unacked packets (priority dropping means the
                // small-remaining ones almost never get here).
                for &o in m.unacked.iter() {
                    m.body.queue_retx(o);
                }
                m.unacked.clear();
                m.last_progress = ns(now);
                kick = true;
            }
        }
        if kick {
            act.kick_tx();
        }
        self.rto.rearm(now, act);
    }

    fn next_packet(&mut self, _now: SimTime) -> Option<Packet<PfabricMeta>> {
        if let Some(pkt) = self.ctrl.pop_packet(self.me) {
            return Some(pkt);
        }
        // Sender-side SRPT: among messages with window space, fewest
        // remaining bytes first (pFabric hosts transmit their
        // highest-priority flow).
        let (flow, m) =
            self.tx.select_min(|f, m| m.has_sendable().then(|| (m.remaining(), f.seq)))?;
        let (offset, payload, retx) = m.body.next_chunk(m.body.len).expect("has_sendable");
        m.unacked.insert(offset);
        Some(Packet::new(
            self.me,
            m.body.dst,
            PfabricMeta::Data {
                flow,
                msg_len: m.body.len,
                offset,
                payload,
                remaining: m.remaining(),
                tag: m.body.tag,
                retx,
            },
        ))
    }

    fn inject_message(
        &mut self,
        now: SimTime,
        dst: HostId,
        len: u64,
        tag: u64,
        act: &mut TransportActions,
    ) {
        self.rto.ensure(now, act);
        let flow = FlowId { src: self.me, seq: self.next_seq };
        self.next_seq += 1;
        self.tx.insert(
            flow,
            TxMsg {
                body: TxBody::new(dst, len, tag),
                unacked: BTreeSet::new(),
                acked_bytes: 0,
                last_progress: ns(now),
            },
        );
        act.kick_tx();
    }

    fn delivered_bytes(&self) -> u64 {
        self.rx.delivered_bytes()
    }
}

/// Fabric configuration matching the pFabric paper: small per-port
/// buffers with priority dropping on every switch port.
pub fn fabric_queues(_cfg: &PfabricConfig) -> homa_sim::QueueDiscipline {
    homa_sim::QueueDiscipline {
        kind: homa_sim::QueueKind::Pfabric,
        cap_bytes: QUEUE_CAP_BYTES,
        ecn: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homa_sim::{AppEvent, Network, NetworkConfig, Topology};

    fn net(n: u32) -> Network<PfabricMeta, PfabricTransport> {
        let netcfg = NetworkConfig::uniform(1, fabric_queues(&PfabricConfig::default()));
        Network::new(Topology::single_switch(n), netcfg, |h| {
            PfabricTransport::new(h, PfabricConfig::default())
        })
    }

    #[test]
    fn single_message_delivers() {
        let mut net = net(4);
        net.inject_message(HostId(0), HostId(1), 50_000, 3);
        net.run_until(SimTime::from_millis(5));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1);
        assert!(matches!(evs[0].2, AppEvent::MessageDelivered { len: 50_000, tag: 3, .. }));
    }

    #[test]
    fn zero_length_message_delivers() {
        let mut net = net(4);
        net.inject_message(HostId(0), HostId(1), 0, 11);
        net.run_until(SimTime::from_millis(1));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1, "empty message announces itself with one packet");
        assert!(matches!(evs[0].2, AppEvent::MessageDelivered { len: 0, tag: 11, .. }));
    }

    #[test]
    fn short_message_preempts_long_in_fabric() {
        let mut net = net(4);
        // Saturate the downlink with a huge transfer, then inject a tiny
        // message: priority dropping + smallest-remaining dequeue should
        // deliver it almost immediately.
        net.inject_message(HostId(0), HostId(2), 5_000_000, 1);
        net.run_until(SimTime::from_micros(200));
        net.inject_message(HostId(1), HostId(2), 200, 2);
        net.run_until(SimTime::from_millis(20));
        let evs = net.take_app_events();
        let tiny = evs
            .iter()
            .find(|(_, _, e)| matches!(e, AppEvent::MessageDelivered { tag: 2, .. }))
            .expect("tiny delivered");
        let delay_us = tiny.0.as_micros_f64() - 200.0;
        assert!(delay_us < 30.0, "tiny message took {delay_us}us under load");
    }

    #[test]
    fn drops_recovered_by_timeout() {
        let mut net = net(6);
        // Five senders converge on one receiver; the tiny pFabric buffers
        // will drop from the largest flows, which must recover.
        for s in 0..5u32 {
            net.inject_message(HostId(s), HostId(5), 100_000, s as u64);
        }
        net.run_until(SimTime::from_millis(50));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 5, "all messages complete despite drops");
        let stats = net.harvest_stats();
        assert!(stats.total_drops() > 0, "priority dropping must have occurred");
    }

    #[test]
    fn srpt_finishes_short_flows_first_under_contention() {
        let mut net = net(4);
        net.inject_message(HostId(0), HostId(3), 1_000_000, 1);
        net.inject_message(HostId(1), HostId(3), 30_000, 2);
        net.run_until(SimTime::from_millis(30));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 2);
        assert!(
            matches!(evs[0].2, AppEvent::MessageDelivered { tag: 2, .. }),
            "short flow completes first under SRPT"
        );
    }
}
