//! A TCP-like byte-stream transport: one FIFO stream per destination.
//!
//! This is the comparison transport for the paper's streaming argument
//! (§3.1, Figure 8's TCP/InfRC curves): applications typically use a
//! single stream per destination, so a short message queued behind a long
//! one suffers head-of-line blocking — the paper measures a ~100x tail
//! latency penalty. The model here:
//!
//! * messages to the same destination are serialized FIFO into one stream;
//! * a fixed window (one bandwidth-delay product) of unacked
//!   bytes, cumulative acks, go-back-N on timeout;
//! * no network priorities (everything at level 0);
//! * fair round-robin between streams at the sender.
//!
//! Streams reuse the sender-side fragmentation from [`crate::common`]
//! ([`TxBody`]); a stream is per destination host rather than per flow,
//! so both directions are kept in lists indexed by the dense [`HostId`].
//! Reassembly is byte-stream-specific (in-order delivery with message
//! boundaries), so it stays local.

use crate::common::{ns, round_robin, CtrlQueue, TickTimer, TxBody};
use homa::config::{CTRL_BYTES, DATA_OVERHEAD, RTT_BYTES};
use homa_sim::{
    AppEvent, HostId, Packet, PacketMeta, SimDuration, SimTime, TimerToken, Transport,
    TransportActions,
};
use std::collections::VecDeque;

/// Stream transport configuration: none; the transport runs on the
/// fixed parameters below.
#[derive(Debug, Clone, Default)]
pub struct StreamConfig {}

/// Maximum unacked bytes per stream (one BDP).
const WINDOW: u64 = RTT_BYTES;
/// Retransmission timeout (go-back-N restart) in nanoseconds.
const RTO_NS: u64 = 1_000_000;

/// Packet metadata for the stream transport.
#[derive(Debug, Clone)]
pub enum StreamMeta {
    /// A data segment within the per-destination stream.
    Data {
        /// Offset of this segment within the byte stream.
        offset: u64,
        /// Payload bytes carried.
        payload: u32,
        /// Message boundaries starting within this segment, as
        /// `(tag, len, start_offset)` (receiver-side delivery
        /// bookkeeping).
        msgs: Vec<(u64, u64, u64)>,
    },
    /// Cumulative acknowledgment of stream bytes below `offset`.
    Ack {
        /// All bytes below this stream offset have been received.
        offset: u64,
    },
}

impl PacketMeta for StreamMeta {
    fn wire_bytes(&self) -> u32 {
        match self {
            StreamMeta::Data { payload, .. } => payload + DATA_OVERHEAD,
            StreamMeta::Ack { .. } => CTRL_BYTES,
        }
    }
    fn priority(&self) -> u8 {
        0
    }
    fn is_control(&self) -> bool {
        matches!(self, StreamMeta::Ack { .. })
    }
    fn goodput_bytes(&self) -> u32 {
        match self {
            StreamMeta::Data { payload, .. } => *payload,
            _ => 0,
        }
    }
}

/// One direction of a stream (sender side): the shared fragmentation
/// body (`len` = bytes enqueued so far, `fresh` = next byte to send)
/// plus cumulative-ack bookkeeping.
#[derive(Debug)]
struct TxStream {
    body: TxBody,
    /// Cumulative ack received.
    acked: u64,
    /// Message boundaries: (tag, len, start_offset), FIFO.
    msgs: VecDeque<(u64, u64, u64)>,
    /// Last time the ack point advanced (for RTO).
    last_progress: u64,
}

/// Receiver side of a stream.
#[derive(Debug, Default)]
struct RxStream {
    /// In-order bytes received.
    in_order: u64,
    /// Out-of-order segments (offset, len) awaiting the gap to fill.
    ooo: Vec<(u64, u64)>,
    /// Known message boundaries: (tag, len, start_offset).
    msgs: VecDeque<(u64, u64, u64)>,
}

const RTO_TOKEN: TimerToken = TimerToken(2);
const RTO_TICK: SimDuration = SimDuration::from_micros(500);

/// The stream transport instance for one host.
pub struct StreamTransport {
    me: HostId,
    /// Outgoing streams, indexed by destination host.
    tx: Vec<Option<TxStream>>,
    /// Destinations with an outgoing stream, in the order the streams
    /// opened: the round-robin ring.
    ring: Vec<HostId>,
    rr_next: usize,
    /// Incoming streams, indexed by source host.
    rx: Vec<RxStream>,
    acks: CtrlQueue<StreamMeta>,
    delivered: u64,
    rto: TickTimer,
}

impl StreamTransport {
    /// New stream transport for host `me`.
    pub fn new(me: HostId, _cfg: StreamConfig) -> Self {
        StreamTransport {
            me,
            tx: Vec::new(),
            ring: Vec::new(),
            rr_next: 0,
            rx: Vec::new(),
            acks: CtrlQueue::new(),
            delivered: 0,
            rto: TickTimer::new(RTO_TOKEN, RTO_TICK),
        }
    }

    /// The outgoing stream to `dst`, if one is open.
    fn tx_mut(&mut self, dst: HostId) -> Option<&mut TxStream> {
        self.tx.get_mut(dst.0 as usize)?.as_mut()
    }

    /// The incoming stream from `src`, opened on first contact.
    fn rx_mut(&mut self, src: HostId) -> &mut RxStream {
        let i = src.0 as usize;
        if self.rx.len() <= i {
            self.rx.resize_with(i + 1, RxStream::default);
        }
        &mut self.rx[i]
    }

    fn deliver_in_order(&mut self, src: HostId, act: &mut TransportActions) {
        let rx = &mut self.rx[src.0 as usize];
        // Merge out-of-order segments into the in-order point.
        loop {
            let mut advanced = false;
            let mut i = 0;
            while i < rx.ooo.len() {
                let (o, l) = rx.ooo[i];
                if o <= rx.in_order {
                    rx.in_order = rx.in_order.max(o + l);
                    rx.ooo.swap_remove(i);
                    advanced = true;
                } else {
                    i += 1;
                }
            }
            if !advanced {
                break;
            }
        }
        // Emit every message fully below the in-order point.
        while let Some(&(tag, len, start)) = rx.msgs.front() {
            if start + len <= rx.in_order {
                rx.msgs.pop_front();
                self.delivered += len;
                act.event(AppEvent::MessageDelivered { src, tag, len });
            } else {
                break;
            }
        }
    }
}

impl Transport<StreamMeta> for StreamTransport {
    fn on_packet(&mut self, now: SimTime, pkt: Packet<StreamMeta>, act: &mut TransportActions) {
        self.rto.ensure(now, act);
        match pkt.meta {
            StreamMeta::Data { offset, payload, ref msgs } => {
                let rx = self.rx_mut(pkt.src);
                for &m in msgs {
                    // Register unseen message boundaries in order.
                    if rx.msgs.iter().all(|&(_, _, s)| s != m.2) && m.2 + m.1 > rx.in_order {
                        rx.msgs.push_back(m);
                    }
                }
                if offset + payload as u64 > rx.in_order {
                    rx.ooo.push((offset, payload as u64));
                }
                self.deliver_in_order(pkt.src, act);
                let in_order = self.rx_mut(pkt.src).in_order;
                self.acks.push(pkt.src, StreamMeta::Ack { offset: in_order });
                act.kick_tx();
            }
            StreamMeta::Ack { offset } => {
                if let Some(tx) = self.tx_mut(pkt.src) {
                    if offset > tx.acked {
                        tx.acked = offset;
                        tx.last_progress = ns(now);
                        // Completed messages can be forgotten.
                        while let Some(&(_, len, start)) = tx.msgs.front() {
                            if start + len <= tx.acked {
                                tx.msgs.pop_front();
                            } else {
                                break;
                            }
                        }
                    }
                }
                act.kick_tx();
            }
        }
    }

    fn on_timer(&mut self, now: SimTime, _token: TimerToken, act: &mut TransportActions) {
        // Go-back-N: any stream stalled past the RTO restarts from the ack
        // point.
        let mut kick = false;
        for tx in self.tx.iter_mut().flatten() {
            if tx.acked < tx.body.fresh && ns(now).saturating_sub(tx.last_progress) > RTO_NS {
                tx.body.fresh = tx.acked;
                tx.last_progress = ns(now);
                kick = true;
            }
        }
        if kick {
            act.kick_tx();
        }
        self.rto.rearm(now, act);
    }

    fn next_packet(&mut self, _now: SimTime) -> Option<Packet<StreamMeta>> {
        // Acks first.
        if let Some(pkt) = self.acks.pop_packet(self.me) {
            return Some(pkt);
        }
        // Round-robin across streams with window space and data.
        let (ring, streams) = (&self.ring, &self.tx);
        let pick = round_robin(ring.len(), &mut self.rr_next, |i| {
            let tx = streams[ring[i].0 as usize].as_ref().expect("the ring names open streams");
            tx.body.has_work(tx.acked + WINDOW)
        })?;
        let dst = self.ring[pick];
        let tx = self.tx_mut(dst).expect("the ring names open streams");
        let (offset, payload, _) = tx.body.next_chunk(tx.acked + WINDOW).expect("eligible");
        // Message boundaries that start within this segment.
        let msgs: Vec<(u64, u64, u64)> = tx
            .msgs
            .iter()
            .filter(|&&(_, _, s)| s >= offset && s < offset + payload as u64)
            .copied()
            .collect();
        Some(Packet::new(self.me, dst, StreamMeta::Data { offset, payload, msgs }))
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
        let i = dst.0 as usize;
        if self.tx.len() <= i {
            self.tx.resize_with(i + 1, || None);
        }
        let tx = self.tx[i].get_or_insert_with(|| {
            self.ring.push(dst);
            TxStream {
                body: TxBody::new(dst, 0, 0),
                acked: 0,
                msgs: VecDeque::new(),
                last_progress: 0,
            }
        });
        let start = tx.body.len;
        tx.msgs.push_back((tag, len, start));
        tx.body.len += len;
        if tx.last_progress == 0 {
            tx.last_progress = ns(now);
        }
        act.kick_tx();
    }

    fn delivered_bytes(&self) -> u64 {
        self.delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homa_sim::{Network, NetworkConfig, Topology};

    fn net(n: u32) -> Network<StreamMeta, StreamTransport> {
        Network::new(Topology::single_switch(n), NetworkConfig::default(), |h| {
            StreamTransport::new(h, StreamConfig::default())
        })
    }

    #[test]
    fn single_message_delivery() {
        let mut net = net(4);
        net.inject_message(HostId(0), HostId(1), 10_000, 5);
        net.run_until(SimTime::from_millis(5));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1);
        assert!(matches!(evs[0].2, AppEvent::MessageDelivered { len: 10_000, tag: 5, .. }));
    }

    #[test]
    fn fifo_head_of_line_blocking() {
        // A short message behind a long one on the same stream must wait:
        // this is the pathology Homa's message orientation removes.
        let mut net = net(4);
        net.inject_message(HostId(0), HostId(1), 2_000_000, 1);
        net.inject_message(HostId(0), HostId(1), 100, 2);
        net.run_until(SimTime::from_millis(50));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 2);
        // Big message delivered first despite the tiny one being "urgent".
        assert!(matches!(evs[0].2, AppEvent::MessageDelivered { tag: 1, .. }));
        assert!(matches!(evs[1].2, AppEvent::MessageDelivered { tag: 2, .. }));
        // The tiny message's delivery time is dominated by the big one:
        // ~1.7ms of serialization, vs ~2us if it went first.
        assert!(evs[1].0.as_micros_f64() > 1_000.0);
    }

    #[test]
    fn separate_destinations_do_not_block() {
        let mut net = net(4);
        net.inject_message(HostId(0), HostId(1), 2_000_000, 1);
        net.inject_message(HostId(0), HostId(2), 100, 2);
        net.run_until(SimTime::from_millis(50));
        let evs = net.take_app_events();
        // The tiny message to a different host is only slowed by its share
        // of the sender uplink, far less than full serialization of 2MB.
        let tiny = evs
            .iter()
            .find(|(_, _, e)| matches!(e, AppEvent::MessageDelivered { tag: 2, .. }))
            .unwrap();
        assert!(tiny.0.as_micros_f64() < 1_500.0, "tiny at {}us", tiny.0.as_micros_f64());
    }

    #[test]
    fn window_paces_long_transfers() {
        let mut net = net(4);
        net.inject_message(HostId(0), HostId(1), 500_000, 9);
        net.run_until(SimTime::from_millis(20));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1, "long transfer completes under windowed acks");
    }

    #[test]
    fn many_messages_fifo_order() {
        let mut net = net(4);
        for i in 0..20 {
            net.inject_message(HostId(0), HostId(1), 1_000, i);
        }
        net.run_until(SimTime::from_millis(20));
        let evs = net.take_app_events();
        let tags: Vec<u64> = evs
            .iter()
            .filter_map(|(_, _, e)| match e {
                AppEvent::MessageDelivered { tag, .. } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(tags, (0..20).collect::<Vec<_>>(), "streams deliver FIFO");
    }
}
