//! The top-level Homa endpoint: one per host.
//!
//! [`HomaEndpoint`] composes the sender and receiver state machines with
//! the RPC layer (§3.1), incast control (§3.6), loss recovery (§3.7)
//! and at-least-once re-execution (§3.8), under one configured priority
//! allocation (§3.4) that it grants with and sends to every peer with.
//! It is a pure state machine: feed it packets and clock ticks, pull
//! packets out of it. Both the simulator adapter and the UDP driver are
//! thin shells around this type.

use crate::config::{HomaConfig, RTT_BYTES};
use crate::messages::{sorted_keys, Due, Silence};
use crate::packets::{
    BusyHeader, DataHeader, Dir, GrantHeader, HomaPacket, MsgKey, PeerId, ResendHeader,
};
use crate::receiver::{InboundAbort, ReceiverState};
use crate::sender::{ResendReaction, SenderState};
use crate::unsched::{PriorityMap, TrafficTracker};
use crate::Nanos;
use std::collections::{HashMap, VecDeque};

/// Application-visible events produced by the endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HomaEvent {
    /// A one-way message arrived in full.
    MessageDelivered {
        /// Sender of the message.
        src: PeerId,
        /// Sender-assigned message sequence number (with `src`, uniquely
        /// identifies the message; payload-carrying drivers key their
        /// reassembly buffers on it).
        seq: u64,
        /// Message length in bytes.
        len: u64,
        /// Application tag from the sender.
        tag: u64,
    },
    /// An RPC request arrived; the application should eventually call
    /// [`HomaEndpoint::send_response`] with the given sequence number.
    RequestArrived {
        /// The client that issued the RPC.
        client: PeerId,
        /// RPC sequence number (pass back to `send_response`).
        rpc_seq: u64,
        /// Request length in bytes.
        len: u64,
        /// Application tag.
        tag: u64,
    },
    /// An RPC we issued completed: its response arrived in full.
    RpcCompleted {
        /// The server.
        server: PeerId,
        /// The RPC sequence returned by `begin_rpc`.
        rpc_seq: u64,
        /// The tag passed to `begin_rpc`.
        tag: u64,
        /// Response length in bytes.
        resp_len: u64,
    },
    /// An RPC we issued was aborted after repeated unanswered RESENDs.
    RpcAborted {
        /// The server that stopped responding.
        server: PeerId,
        /// The tag passed to `begin_rpc`.
        tag: u64,
    },
    /// An inbound message was abandoned (its sender went silent).
    InboundAborted {
        /// The message that was abandoned mid-receive.
        key: MsgKey,
        /// The sender that went silent.
        src: PeerId,
    },
    /// An outbound message was abandoned because its receiver went
    /// silent: a one-way the receiver never granted despite repeated
    /// first-packet retransmissions, or a response whose client stopped
    /// granting (it completed or aborted the RPC on its side).
    OutboundAborted {
        /// The unreachable receiver.
        dst: PeerId,
        /// Tag of the abandoned message.
        tag: u64,
    },
}

/// Client-side state for an outstanding RPC.
#[derive(Debug)]
struct ClientRpc {
    server: PeerId,
    tag: u64,
    /// The server's silence, heard by BUSY, while the response has not
    /// sent a packet; `None` from its first packet on, when the
    /// receiver's own gap chase takes over loss recovery.
    chase: Option<Silence>,
}

/// Server-side record of a delivered request awaiting its response.
#[derive(Debug)]
struct ServerRpc {
    client: PeerId,
    incast_mark: bool,
}

/// A complete Homa protocol endpoint.
#[derive(Debug)]
pub struct HomaEndpoint {
    me: PeerId,
    cfg: HomaConfig,
    sender: SenderState,
    receiver: ReceiverState,
    /// The priority allocation: our downlink's when we grant, and every
    /// peer's when we send, since all endpoints of a run share it.
    map: PriorityMap,
    ctrl: VecDeque<(PeerId, HomaPacket)>,
    /// Where `on_data` collects the grants of one scheduling pass; empty
    /// between calls, kept for its capacity.
    grant_scratch: Vec<(PeerId, GrantHeader)>,
    events: Vec<HomaEvent>,
    /// Every RESEND this endpoint has queued for the wire: receiver-side
    /// gap chasing, client-side response chasing, and server-side request
    /// re-requests (§3.7).
    resends_sent: u64,
    next_seq: u64,
    client_rpcs: HashMap<u64, ClientRpc>,
    server_rpcs: HashMap<MsgKey, ServerRpc>,
}

impl HomaEndpoint {
    /// A new endpoint for peer `me`.
    pub fn new(me: PeerId, cfg: HomaConfig) -> Self {
        cfg.validate();
        HomaEndpoint {
            me,
            sender: SenderState::new(cfg.clone()),
            receiver: ReceiverState::new(cfg.clone()),
            map: TrafficTracker::new().recompute(&cfg),
            ctrl: VecDeque::new(),
            grant_scratch: Vec::new(),
            events: Vec::new(),
            resends_sent: 0,
            next_seq: 1,
            client_rpcs: HashMap::new(),
            server_rpcs: HashMap::new(),
            cfg,
        }
    }

    /// This endpoint's peer id.
    pub fn peer_id(&self) -> PeerId {
        self.me
    }

    /// The configuration in effect.
    pub fn config(&self) -> &HomaConfig {
        &self.cfg
    }

    /// Install a precomputed priority allocation, used both for our own
    /// downlink and for every peer we send to. This models the paper's
    /// implementation, where cutoffs were "precomputed based on knowledge
    /// of the benchmark workload" (§4). Install it before the first send:
    /// a message takes its unscheduled priority when it starts.
    pub fn set_static_priority_map(&mut self, map: PriorityMap) {
        debug_assert_eq!(self.sender.active_messages(), 0, "map installed mid-send");
        self.map = map;
    }

    /// The priority allocation in effect.
    pub fn priority_map(&self) -> &PriorityMap {
        &self.map
    }

    /// Begin a one-way message; returns its sequence number.
    pub fn send_message(&mut self, now: Nanos, dst: PeerId, len: u64, tag: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = MsgKey { origin: self.me, seq, dir: Dir::Oneway };
        self.sender.start_message(now, key, dst, len, tag, false, &self.map);
        seq
    }

    /// Begin an RPC; returns its sequence number. The response is
    /// reported via [`HomaEvent::RpcCompleted`] carrying `tag`.
    pub fn begin_rpc(&mut self, now: Nanos, server: PeerId, req_len: u64, tag: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        // Incast control (§3.6): mark requests issued while many RPCs are
        // already outstanding, so the server clamps the response's blind
        // prefix.
        let incast_mark = self.client_rpcs.len() as u32 >= self.cfg.incast_threshold;
        let key = MsgKey { origin: self.me, seq, dir: Dir::Request };
        self.sender.start_message(now, key, server, req_len, tag, incast_mark, &self.map);
        self.client_rpcs.insert(seq, ClientRpc { server, tag, chase: Some(Silence::new(now)) });
        seq
    }

    /// Send the response for a previously-delivered request (identified by
    /// the client peer and RPC sequence from [`HomaEvent::RequestArrived`]).
    pub fn send_response(
        &mut self,
        now: Nanos,
        client: PeerId,
        rpc_seq: u64,
        resp_len: u64,
        tag: u64,
    ) {
        let req_key = MsgKey { origin: client, seq: rpc_seq, dir: Dir::Request };
        let incast_mark = self
            .server_rpcs
            .remove(&req_key)
            .map(|s| {
                debug_assert_eq!(s.client, client);
                s.incast_mark
            })
            .unwrap_or(false);
        let key = req_key.flipped();
        self.sender.start_message(now, key, client, resp_len, tag, incast_mark, &self.map);
    }

    /// Number of RPCs this endpoint has outstanding as a client.
    pub fn outstanding_rpcs(&self) -> usize {
        self.client_rpcs.len()
    }

    /// Process an incoming packet from `from`.
    pub fn on_packet(&mut self, now: Nanos, from: PeerId, pkt: HomaPacket) {
        match pkt {
            HomaPacket::Data(hdr) => self.on_data(now, from, hdr),
            HomaPacket::Grant(g) => {
                self.sender.on_grant(now, g.key, g.offset, g.prio);
            }
            HomaPacket::Resend(r) => self.on_resend(now, from, r),
            HomaPacket::Busy(b) => {
                self.receiver.on_busy(now, b.key);
                // A BUSY about a response also reassures the waiting
                // client RPC.
                if b.key.dir == Dir::Response && b.key.origin == self.me {
                    if let Some(chase) =
                        self.client_rpcs.get_mut(&b.key.seq).and_then(|rpc| rpc.chase.as_mut())
                    {
                        chase.heard(now);
                    }
                }
            }
        }
    }

    fn on_data(&mut self, now: Nanos, from: PeerId, hdr: DataHeader) {
        // Response packets reassure the client RPC immediately.
        if hdr.key.dir == Dir::Response && hdr.key.origin == self.me {
            match self.client_rpcs.get_mut(&hdr.key.seq) {
                Some(rpc) => rpc.chase = None,
                // Stray packet for an RPC that already completed or
                // aborted (a duplicate from re-execution, or a
                // retransmission that crossed the completing packet).
                // Discard it: resurrecting receiver state for it would
                // create a "ghost" inbound message with no live sender,
                // which would squat on an overcommitment slot.
                None => return,
            }
        }

        let mut grants = std::mem::take(&mut self.grant_scratch);
        let delivered = self.receiver.on_data(now, from, &hdr, &self.map, &mut grants);
        self.ctrl.extend(grants.drain(..).map(|(dst, g)| (dst, HomaPacket::Grant(g))));
        self.grant_scratch = grants;

        if let Some(d) = delivered {
            match d.key.dir {
                Dir::Oneway => self.events.push(HomaEvent::MessageDelivered {
                    src: d.src,
                    seq: d.key.seq,
                    len: d.len,
                    tag: d.tag,
                }),
                Dir::Request => {
                    self.server_rpcs
                        .insert(d.key, ServerRpc { client: d.src, incast_mark: d.incast_mark });
                    self.events.push(HomaEvent::RequestArrived {
                        client: d.src,
                        rpc_seq: d.key.seq,
                        len: d.len,
                        tag: d.tag,
                    });
                }
                Dir::Response => {
                    if d.key.origin == self.me {
                        if let Some(rpc) = self.client_rpcs.remove(&d.key.seq) {
                            // The response acknowledges the request: drop
                            // the request's sender state (§3.1 — "the
                            // response serves as an acknowledgment").
                            self.sender.remove(d.key.flipped());
                            self.events.push(HomaEvent::RpcCompleted {
                                server: rpc.server,
                                rpc_seq: d.key.seq,
                                tag: rpc.tag,
                                resp_len: d.len,
                            });
                        }
                        // Duplicate responses (re-execution) are dropped
                        // here: the RPC entry is already gone.
                    }
                }
            }
        }
    }

    fn on_resend(&mut self, now: Nanos, from: PeerId, r: ResendHeader) {
        match self.sender.on_resend(r.key, r.offset, r.length, r.prio) {
            ResendReaction::Queued => {}
            ResendReaction::QueuedButBusy(b) => {
                self.ctrl.push_back((from, HomaPacket::Busy(b)));
            }
            ResendReaction::Unknown => {
                match r.key.dir {
                    // A RESEND for a response we know nothing about: the
                    // paper's server-side recovery (§3.7) — assume the
                    // request was lost and ask for its first RTTbytes,
                    // which leads to re-execution (§3.8). If the request
                    // is in fact still arriving or still executing, send
                    // BUSY instead so the client keeps waiting.
                    Dir::Response => {
                        let req_key = r.key.flipped();
                        let request_in_progress = self.receiver.get(req_key).is_some()
                            || self.server_rpcs.contains_key(&req_key);
                        if request_in_progress {
                            self.ctrl
                                .push_back((from, HomaPacket::Busy(BusyHeader { key: r.key })));
                            self.receiver.on_busy(now, req_key);
                        } else {
                            self.resend(from, req_key, 0, RTT_BYTES);
                        }
                    }
                    // A RESEND for a request or one-way whose state we
                    // discarded: nothing useful to do (the RPC completed,
                    // aborted, or never existed).
                    Dir::Request | Dir::Oneway => {}
                }
            }
        }
    }

    /// Queue a RESEND (§3.7) for `length` bytes of `key` at `offset`, at
    /// the highest scheduled priority.
    fn resend(&mut self, dst: PeerId, key: MsgKey, offset: u64, length: u64) {
        self.resends_sent += 1;
        let prio = self.map.max_sched_prio();
        self.ctrl.push_back((dst, HomaPacket::Resend(ResendHeader { key, offset, length, prio })));
    }

    /// Give up on client RPC `seq`: release its request's sender state,
    /// which only the response would have (§3.1), and report the abort.
    /// False if there is no such RPC.
    fn abort_rpc(&mut self, seq: u64) -> bool {
        let Some(rpc) = self.client_rpcs.remove(&seq) else { return false };
        self.sender.remove(MsgKey { origin: self.me, seq, dir: Dir::Request });
        self.events.push(HomaEvent::RpcAborted { server: rpc.server, tag: rpc.tag });
        true
    }

    /// Periodic housekeeping: loss-detection sweeps, client RPC timeouts
    /// and lingering-state expiry. Call every few hundred microseconds.
    pub fn timer_tick(&mut self, now: Nanos) {
        // Receiver-side gap chasing.
        let mut resends = Vec::new();
        let mut aborts: Vec<InboundAbort> = Vec::new();
        let mut grants: Vec<(PeerId, GrantHeader)> = Vec::new();
        self.receiver.timer_tick(now, &self.map, &mut resends, &mut aborts, &mut grants);
        for (dst, key, offset, length) in resends {
            self.resend(dst, key, offset, length);
        }
        for (dst, g) in grants {
            self.ctrl.push_back((dst, HomaPacket::Grant(g)));
        }
        for a in aborts {
            // An abandoned inbound *response* is the death of one of our
            // own RPCs: once its first packet arrived the client sweep
            // below stops chasing it (its `chase` is gone), so if we
            // dropped only the receiver state here the RPC entry — and
            // the retained request sender state that is only released by
            // the response (§3.1) — would leak forever. Abort the RPC
            // instead of reporting a generic inbound abort.
            let ours = a.key.dir == Dir::Response && a.key.origin == self.me;
            if !(ours && self.abort_rpc(a.key.seq)) {
                self.events.push(HomaEvent::InboundAborted { key: a.key, src: a.src });
            }
        }

        // Client-side response timeouts (§3.7): chase responses that have
        // not produced a single packet yet — sent "even if the request has
        // not been fully transmitted".
        for seq in sorted_keys(&self.client_rpcs) {
            let rpc = self.client_rpcs.get_mut(&seq).expect("seq just collected");
            let Some(chase) = rpc.chase.as_mut() else { continue };
            match chase.check(now, &self.cfg) {
                Due::Wait => {}
                Due::Prod => {
                    let (server, key) =
                        (rpc.server, MsgKey { origin: self.me, seq, dir: Dir::Response });
                    self.resend(server, key, 0, RTT_BYTES);
                }
                Due::GiveUp => {
                    self.abort_rpc(seq);
                }
            }
        }

        self.sender.expire_lingering(now);

        // Sender-side stall recovery: one-way messages whose entire
        // blind prefix was lost (the receiver cannot chase what it never
        // learned about) and responses whose client has gone silent.
        for (dst, tag) in self.sender.poke_stalled(now) {
            self.events.push(HomaEvent::OutboundAborted { dst, tag });
        }
    }

    /// Pull the next packet for the wire: control packets first (they
    /// travel at the highest priority and unblock peers), then SRPT data.
    pub fn poll_transmit(&mut self, now: Nanos) -> Option<(PeerId, HomaPacket)> {
        if let Some(p) = self.ctrl.pop_front() {
            return Some(p);
        }
        let (dst, hdr) = self.sender.next_data_packet(now)?;
        // §3.4, sender side: an unscheduled packet rides the level the
        // cutoffs give its message's length. Every endpoint holds the one
        // map, installed before its first send, so this is exact.
        debug_assert!(
            !hdr.unscheduled || hdr.prio == self.map.unsched_prio(hdr.msg_len),
            "unscheduled DATA of {:?} ({} bytes) at P{}, the cutoffs give P{}",
            hdr.key,
            hdr.msg_len,
            hdr.prio,
            self.map.unsched_prio(hdr.msg_len)
        );
        Some((dst, HomaPacket::Data(hdr)))
    }

    /// Whether a call to [`poll_transmit`](Self::poll_transmit) would
    /// currently yield a packet.
    pub fn has_pending_tx(&self) -> bool {
        !self.ctrl.is_empty() || self.sender.has_transmittable()
    }

    /// Drain application events.
    pub fn take_events(&mut self) -> Vec<HomaEvent> {
        std::mem::take(&mut self.events)
    }

    /// Drain application events in place: the same events in the same
    /// order as [`take_events`](Self::take_events), but the endpoint
    /// keeps its buffer, so a caller that looks after every packet
    /// allocates nothing per delivery.
    pub fn drain_events(&mut self) -> std::vec::Drain<'_, HomaEvent> {
        self.events.drain(..)
    }

    /// The Figure 16 probe: is this receiver withholding grants because of
    /// the overcommitment limit?
    pub fn withholding_grants(&self) -> bool {
        self.receiver.withholding()
    }

    /// Application bytes delivered to this endpoint.
    pub fn delivered_bytes(&self) -> u64 {
        self.receiver.delivered_bytes()
    }

    /// Messages delivered to this endpoint.
    pub fn delivered_msgs(&self) -> u64 {
        self.receiver.delivered_msgs()
    }

    /// Incomplete inbound messages (diagnostics).
    pub fn inbound_count(&self) -> usize {
        self.receiver.inbound_count()
    }

    /// Grant packets this endpoint's receiver role has issued.
    pub fn grants_issued(&self) -> u64 {
        self.receiver.grants_issued()
    }

    /// Bytes of new credit the receiver role has extended via grants
    /// (unscheduled data's implicit credit excluded).
    pub fn granted_bytes(&self) -> u64 {
        self.receiver.granted_bytes()
    }

    /// RESEND packets this endpoint has queued for the wire, in any role.
    pub fn resends_sent(&self) -> u64 {
        self.resends_sent
    }

    /// Outbound messages with retained state (diagnostics).
    pub fn outbound_count(&self) -> usize {
        self.sender.active_messages()
    }

    /// Whether the sender still holds state for `key`. Drivers that
    /// store payloads outside the endpoint (e.g. the UDP node) use this
    /// to garbage-collect buffers: once the sender has dropped a
    /// message, no retransmission can ever ask for its bytes again.
    pub fn outbound_contains(&self, key: MsgKey) -> bool {
        self.sender.contains(key)
    }

    /// Whether the receiver holds state for the incomplete inbound message
    /// `key`: the counterpart of [`outbound_contains`](Self::outbound_contains)
    /// for drivers that keep reassembly buffers outside the endpoint.
    pub fn inbound_contains(&self, key: MsgKey) -> bool {
        self.receiver.get(key).is_some()
    }

    /// Snapshot of incomplete inbound messages (diagnostics); see
    /// [`crate::receiver::ReceiverState::inbound_snapshot`].
    pub fn inbound_snapshot(&self) -> Vec<(MsgKey, u64, u64, u64, u32)> {
        self.receiver.inbound_snapshot()
    }

    /// Snapshot of outbound messages (diagnostics); see
    /// [`crate::sender::SenderState::outbound_snapshot`].
    pub fn outbound_snapshot(&self) -> Vec<(MsgKey, u64, u64, u64, usize)> {
        self.sender.outbound_snapshot()
    }

    /// Delivered requests still waiting for the application to call
    /// [`send_response`](Self::send_response) (diagnostics; the stateful
    /// fuzzer's model uses this to drive its quiescence drain).
    pub fn server_rpcs_pending(&self) -> usize {
        self.server_rpcs.len()
    }

    /// Sequence numbers of outstanding client RPCs, sorted (diagnostics).
    pub fn client_rpc_seqs(&self) -> Vec<u64> {
        sorted_keys(&self.client_rpcs)
    }

    /// Control packets queued but not yet pulled by
    /// [`poll_transmit`](Self::poll_transmit) (diagnostics).
    pub fn pending_ctrl(&self) -> usize {
        self.ctrl.len()
    }
}

/// Drive packets between two endpoints until both go quiet — a test
/// helper that models a lossless, zero-latency wire (loss is injected by
/// the `drop` filter returning true).
#[cfg(test)]
pub(crate) fn shuttle(
    a: &mut HomaEndpoint,
    b: &mut HomaEndpoint,
    now: Nanos,
    mut drop: impl FnMut(&HomaPacket) -> bool,
) {
    loop {
        let mut progressed = false;
        while let Some((dst, pkt)) = a.poll_transmit(now) {
            progressed = true;
            assert_eq!(dst, b.peer_id(), "test shuttle only supports two peers");
            if !drop(&pkt) {
                b.on_packet(now, a.peer_id(), pkt);
            }
        }
        while let Some((dst, pkt)) = b.poll_transmit(now) {
            progressed = true;
            assert_eq!(dst, a.peer_id(), "test shuttle only supports two peers");
            if !drop(&pkt) {
                a.on_packet(now, b.peer_id(), pkt);
            }
        }
        if !progressed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (HomaEndpoint, HomaEndpoint) {
        (
            HomaEndpoint::new(PeerId(0), HomaConfig::default()),
            HomaEndpoint::new(PeerId(1), HomaConfig::default()),
        )
    }

    #[test]
    fn oneway_message_end_to_end() {
        let (mut a, mut b) = pair();
        a.send_message(0, PeerId(1), 50_000, 42);
        shuttle(&mut a, &mut b, 0, |_| false);
        let evs = b.take_events();
        assert_eq!(
            evs,
            vec![HomaEvent::MessageDelivered { src: PeerId(0), seq: 1, len: 50_000, tag: 42 }]
        );
        assert_eq!(b.delivered_bytes(), 50_000);
        assert_eq!(b.inbound_count(), 0);
    }

    #[test]
    fn drain_events_yields_what_take_events_would() {
        // Two receivers fed the same traffic: one-packet one-ways, a long
        // one and a request, so several events are pending at once.
        let feed = |b: &mut HomaEndpoint| {
            let mut a = HomaEndpoint::new(PeerId(0), HomaConfig::default());
            for (len, tag) in [(100, 1), (20_000, 2), (300, 3)] {
                a.send_message(0, PeerId(1), len, tag);
            }
            a.begin_rpc(0, PeerId(1), 50, 4);
            shuttle(&mut a, b, 0, |_| false);
        };
        let (_, mut taken) = pair();
        let (_, mut drained) = pair();
        feed(&mut taken);
        feed(&mut drained);
        let want = taken.take_events();
        assert_eq!(want.len(), 4);
        assert_eq!(drained.drain_events().collect::<Vec<_>>(), want);
        assert!(drained.take_events().is_empty(), "drained once");
    }

    #[test]
    fn rpc_end_to_end() {
        let (mut a, mut b) = pair();
        a.begin_rpc(0, PeerId(1), 300, 7);
        shuttle(&mut a, &mut b, 0, |_| false);
        let evs = b.take_events();
        let (client, rpc_seq) = match &evs[..] {
            [HomaEvent::RequestArrived { client, rpc_seq, len: 300, tag: 7 }] => {
                (*client, *rpc_seq)
            }
            other => panic!("unexpected events {other:?}"),
        };
        assert_eq!(client, PeerId(0));
        assert_eq!(a.outstanding_rpcs(), 1);
        b.send_response(0, client, rpc_seq, 12_345, 7);
        shuttle(&mut a, &mut b, 0, |_| false);
        let evs = a.take_events();
        assert_eq!(
            evs,
            vec![HomaEvent::RpcCompleted {
                server: PeerId(1),
                rpc_seq: 1,
                tag: 7,
                resp_len: 12_345
            }]
        );
        assert_eq!(a.outstanding_rpcs(), 0);
        // No state leaks: both sides clean.
        assert_eq!(a.inbound_count(), 0);
        assert_eq!(b.inbound_count(), 0);
        assert_eq!(b.outbound_count(), 0, "server kept no RPC state (§3.8)");
    }

    #[test]
    fn lost_data_recovered_by_resend() {
        let (mut a, mut b) = pair();
        a.send_message(0, PeerId(1), 20_000, 1);
        // Drop the third data packet once.
        let mut count = 0;
        shuttle(&mut a, &mut b, 0, |p| {
            if matches!(p, HomaPacket::Data(_)) {
                count += 1;
                count == 3
            } else {
                false
            }
        });
        assert!(b.take_events().is_empty(), "message incomplete after loss");
        // The receiver's loss sweep requests the gap; recovery completes.
        b.timer_tick(3_000_000);
        shuttle(&mut a, &mut b, 3_000_000, |_| false);
        let evs = b.take_events();
        assert_eq!(evs.len(), 1);
        assert!(matches!(evs[0], HomaEvent::MessageDelivered { len: 20_000, .. }));
    }

    #[test]
    fn lost_response_triggers_reexecution() {
        // §3.7/§3.8: the server discards RPC state once the response is
        // sent. If the entire response is lost, the client RESENDs the
        // response; the server treats it as unknown and RESENDs the
        // request; the request retransmission re-executes the RPC.
        let (mut a, mut b) = pair();
        a.begin_rpc(0, PeerId(1), 200, 9);
        shuttle(&mut a, &mut b, 0, |_| false);
        let evs = b.take_events();
        let (client, rpc_seq) = match &evs[..] {
            [HomaEvent::RequestArrived { client, rpc_seq, .. }] => (*client, *rpc_seq),
            other => panic!("unexpected {other:?}"),
        };
        // Server responds but the whole response is lost.
        b.send_response(0, client, rpc_seq, 500, 9);
        shuttle(
            &mut a,
            &mut b,
            0,
            |p| matches!(p, HomaPacket::Data(h) if h.key.dir == Dir::Response),
        );
        assert!(a.take_events().is_empty());
        // Client times out and chases the response; the server re-requests
        // the request; client retransmits it; server re-executes
        // (RequestArrived fires again).
        a.timer_tick(3_000_000);
        shuttle(&mut a, &mut b, 3_000_000, |_| false);
        let evs = b.take_events();
        assert!(
            evs.iter().any(
                |e| matches!(e, HomaEvent::RequestArrived { rpc_seq: s, .. } if *s == rpc_seq)
            ),
            "request re-executed, got {evs:?}"
        );
        // Second execution's response completes the RPC.
        b.send_response(3_000_000, client, rpc_seq, 500, 9);
        shuttle(&mut a, &mut b, 3_000_000, |_| false);
        let evs = a.take_events();
        assert_eq!(
            evs,
            vec![HomaEvent::RpcCompleted { server: PeerId(1), rpc_seq, tag: 9, resp_len: 500 }]
        );
    }

    #[test]
    fn unresponsive_server_aborts_rpc() {
        let (mut a, _b) = pair();
        a.begin_rpc(0, PeerId(1), 100, 3);
        // Nothing ever comes back; tick through the retry budget.
        let mut t = 0;
        let mut aborted = false;
        for _ in 0..20 {
            t += 2_500_000;
            a.timer_tick(t);
            for e in a.take_events() {
                if matches!(e, HomaEvent::RpcAborted { tag: 3, .. }) {
                    aborted = true;
                }
            }
        }
        assert!(aborted, "client rpc aborted after retries");
        assert_eq!(a.outstanding_rpcs(), 0);
        assert_eq!(a.outbound_count(), 0);
    }

    #[test]
    fn incast_marked_requests_clamp_response_prefix() {
        let cfg = HomaConfig { incast_threshold: 2, ..HomaConfig::default() };
        let mut a = HomaEndpoint::new(PeerId(0), cfg.clone());
        let mut b = HomaEndpoint::new(PeerId(1), cfg);
        // Two outstanding RPCs below threshold, third gets marked.
        a.begin_rpc(0, PeerId(1), 10, 1);
        a.begin_rpc(0, PeerId(1), 10, 2);
        a.begin_rpc(0, PeerId(1), 10, 3);
        shuttle(&mut a, &mut b, 0, |_| false);
        let reqs: Vec<_> = b.take_events();
        assert_eq!(reqs.len(), 3);
        for e in &reqs {
            if let HomaEvent::RequestArrived { client, rpc_seq, .. } = e {
                b.send_response(0, *client, *rpc_seq, 50_000, 0);
            }
        }
        // Count blind (unscheduled) response bytes per message.
        let mut unsched: HashMap<u64, u64> = HashMap::new();
        while let Some((_, pkt)) = b.poll_transmit(0) {
            if let HomaPacket::Data(h) = &pkt {
                if h.unscheduled {
                    *unsched.entry(h.key.seq).or_default() += h.payload as u64;
                }
            }
            a.on_packet(0, PeerId(1), pkt);
            // Drain grants generated by `a` so `b` keeps sending.
            while let Some((_, back)) = a.poll_transmit(0) {
                b.on_packet(0, PeerId(0), back);
            }
        }
        let mut counts: Vec<u64> = unsched.values().copied().collect();
        counts.sort_unstable();
        assert_eq!(counts[0], 400, "marked RPC's response clamped to incast limit");
        assert_eq!(counts[1], 9_700);
        assert_eq!(counts[2], 9_700);
    }

    #[test]
    fn many_concurrent_messages_all_complete() {
        let (mut a, mut b) = pair();
        for i in 0..50 {
            a.send_message(0, PeerId(1), 1_000 + i * 997, i);
        }
        shuttle(&mut a, &mut b, 0, |_| false);
        let evs = b.take_events();
        assert_eq!(evs.len(), 50);
        let total: u64 = (0..50).map(|i| 1_000 + i * 997).sum();
        assert_eq!(b.delivered_bytes(), total);
        assert_eq!(a.outbound_count(), 50, "one-way state lingers until expiry");
        a.timer_tick(100_000_000);
        assert_eq!(a.outbound_count(), 0);
    }

    /// Retained one-way state stays visible and answerable however much
    /// of it there is, and all of it goes at the linger deadline.
    #[test]
    fn many_lingering_oneways_stay_answerable_until_expiry() {
        let (mut a, mut b) = pair();
        for i in 0..5_000 {
            a.send_message(0, PeerId(1), 100, i);
            let (_, pkt) = a.poll_transmit(0).expect("one blind packet");
            b.on_packet(0, PeerId(0), pkt);
        }
        assert_eq!(b.delivered_msgs(), 5_000);
        assert!(!a.has_pending_tx());
        assert_eq!(a.outbound_count(), 5_000, "every one-way lingers");
        let first = MsgKey { origin: PeerId(0), seq: 1, dir: Dir::Oneway };
        assert!(a.outbound_contains(first));
        a.on_packet(
            1_000,
            PeerId(1),
            HomaPacket::Resend(ResendHeader { key: first, offset: 0, length: 100, prio: 5 }),
        );
        match a.poll_transmit(1_000) {
            Some((dst, HomaPacket::Data(h))) => {
                assert_eq!(dst, PeerId(1));
                assert!(h.retransmit);
                assert_eq!((h.key, h.offset, h.payload, h.prio), (first, 0, 100, 5));
            }
            other => panic!("expected the retransmission, got {other:?}"),
        }
        assert_eq!(a.outbound_count(), 5_000);
        a.timer_tick(4 * a.config().resend_interval_ns);
        assert_eq!(a.outbound_count(), 0, "all retained state expires");
        assert!(!a.outbound_contains(first));
    }

    /// Regression (found by the stateful model fuzzer): once the first
    /// response packet arrives, the client sweep stops chasing the RPC
    /// (its `chase` is gone) — loss recovery belongs to
    /// the receiver's gap chasing. If the receiver then gives up on the
    /// partially-received response, the endpoint used to report only a
    /// generic `InboundAborted` and leave the client RPC entry (plus the
    /// retained request sender state) leaked forever: never completed,
    /// never aborted. The inbound-response abort must abort the RPC.
    #[test]
    fn abandoned_partial_response_aborts_the_rpc() {
        let (mut a, mut b) = pair();
        a.begin_rpc(0, PeerId(1), 200, 11);
        shuttle(&mut a, &mut b, 0, |_| false);
        let (client, rpc_seq) = match &b.take_events()[..] {
            [HomaEvent::RequestArrived { client, rpc_seq, .. }] => (*client, *rpc_seq),
            other => panic!("unexpected {other:?}"),
        };
        // The server responds, but only the first response packet ever
        // reaches the client; the server then goes silent for good.
        b.send_response(0, client, rpc_seq, 50_000, 11);
        let mut first_resp = None;
        while let Some((_, pkt)) = b.poll_transmit(0) {
            if matches!(&pkt, HomaPacket::Data(h) if h.key.dir == Dir::Response)
                && first_resp.is_none()
            {
                first_resp = Some(pkt);
            }
        }
        a.on_packet(0, PeerId(1), first_resp.expect("server sent a response packet"));
        assert_eq!(a.inbound_count(), 1, "partial response state exists");
        // Tick through the receiver's chase budget; every RESEND it emits
        // goes unanswered.
        let mut t = 0;
        let mut aborted = false;
        for _ in 0..20 {
            t += 2_500_000;
            a.timer_tick(t);
            while a.poll_transmit(t).is_some() {}
            for e in a.take_events() {
                assert!(
                    !matches!(e, HomaEvent::InboundAborted { .. }),
                    "response abort must surface as RpcAborted, not InboundAborted"
                );
                if matches!(e, HomaEvent::RpcAborted { server: PeerId(1), tag: 11 }) {
                    aborted = true;
                }
            }
        }
        assert!(aborted, "abandoned response must abort the RPC");
        assert_eq!(a.outstanding_rpcs(), 0, "client RPC entry leaked");
        assert_eq!(a.inbound_count(), 0, "partial response state leaked");
        assert_eq!(a.outbound_count(), 0, "request sender state leaked");
    }

    /// Regression (found by the stateful model fuzzer): a response whose
    /// client stopped granting — because the client aborted the RPC after
    /// receiving only a prefix — used to sit in the server's sender state
    /// forever. The stall sweep must age it out.
    #[test]
    fn stalled_response_state_ages_out_when_client_goes_silent() {
        let (mut a, mut b) = pair();
        a.begin_rpc(0, PeerId(1), 200, 13);
        shuttle(&mut a, &mut b, 0, |_| false);
        let (client, rpc_seq) = match &b.take_events()[..] {
            [HomaEvent::RequestArrived { client, rpc_seq, .. }] => (*client, *rpc_seq),
            other => panic!("unexpected {other:?}"),
        };
        // The response needs grants beyond the blind prefix, but the
        // client never sends another packet.
        b.send_response(0, client, rpc_seq, 50_000, 13);
        while b.poll_transmit(0).is_some() {}
        assert_eq!(b.outbound_count(), 1, "response awaiting grants");
        let mut t = 0;
        let mut abandoned = false;
        for _ in 0..20 {
            t += 2_500_000;
            b.timer_tick(t);
            while b.poll_transmit(t).is_some() {}
            for e in b.take_events() {
                if matches!(e, HomaEvent::OutboundAborted { dst, tag: 13 } if dst == client) {
                    abandoned = true;
                }
            }
        }
        assert!(abandoned, "silent client must abandon the response");
        assert_eq!(b.outbound_count(), 0, "response sender state leaked");
    }

    /// §3.7's sender-side timer on its exact schedule: a one-way whose
    /// every DATA packet is lost leaves its receiver nothing to chase, so
    /// the sender re-sends the first packet once per silent resend
    /// interval, `abort_after_resends` times, then abandons the message.
    #[test]
    fn oneway_lost_whole_is_poked_on_schedule_then_abandoned() {
        let (mut a, mut b) = pair();
        let (interval, budget) = (a.config().resend_interval_ns, a.config().abort_after_resends);
        a.send_message(0, PeerId(1), 20_000, 21);
        let (mut pokes, mut abandoned) = (Vec::new(), Vec::new());
        let mut t = 0;
        while t <= 2 * u64::from(budget + 1) * interval {
            a.timer_tick(t);
            while let Some((_, pkt)) = a.poll_transmit(t) {
                match pkt {
                    HomaPacket::Data(h) if h.retransmit => pokes.push((t, h.offset, h.payload)),
                    HomaPacket::Data(_) => {}
                    other => panic!("the sender sent {other:?}"),
                }
            }
            abandoned.extend(a.take_events().into_iter().map(|e| (t, e)));
            t += interval / 4;
        }
        let want: Vec<_> = (1..=u64::from(budget)).map(|i| (i * interval, 0, 1_400)).collect();
        assert_eq!(pokes, want);
        let gave_up = u64::from(budget + 1) * interval;
        assert_eq!(
            abandoned,
            vec![(gave_up, HomaEvent::OutboundAborted { dst: PeerId(1), tag: 21 })]
        );
        assert_eq!((a.outbound_count(), a.inbound_count(), a.pending_ctrl()), (0, 0, 0));
        assert!(!a.has_pending_tx());
        b.timer_tick(t);
        assert_eq!((b.inbound_count(), b.outbound_count()), (0, 0), "the receiver never knew");
    }

    /// Pinned edge case: DATA arriving again after full delivery. The
    /// receiver keeps no completed-message state (§3.8), so a duplicated
    /// single-packet message is re-delivered whole (at-least-once at the
    /// transport level — deduplication belongs to the application), and a
    /// duplicated *fragment* creates a ghost inbound message with no live
    /// sender that must be swept out by the abort timer, not squat on an
    /// overcommitment slot forever.
    #[test]
    fn duplicate_data_after_delivery_is_bounded() {
        let (mut a, mut b) = pair();
        // Single-packet message: duplicate re-delivers.
        a.send_message(0, PeerId(1), 400, 1);
        let (_, pkt) = a.poll_transmit(0).expect("blind packet");
        b.on_packet(0, PeerId(0), pkt.clone());
        assert_eq!(b.delivered_msgs(), 1);
        b.on_packet(0, PeerId(0), pkt);
        assert_eq!(b.delivered_msgs(), 2, "duplicate full message re-delivers (§3.8)");
        assert_eq!(b.inbound_count(), 0, "no ghost state from a complete duplicate");

        // Multi-packet message: a duplicated fragment after delivery
        // creates a ghost that the sweep must abort.
        a.send_message(0, PeerId(1), 20_000, 2);
        let mut first_frag = None;
        shuttle(&mut a, &mut b, 0, |p| {
            if let HomaPacket::Data(h) = p {
                if h.key.seq == 2 && h.offset == 0 && first_frag.is_none() {
                    first_frag = Some(p.clone());
                }
            }
            false
        });
        assert_eq!(b.delivered_msgs(), 3);
        b.on_packet(0, PeerId(0), first_frag.expect("captured first fragment"));
        assert_eq!(b.inbound_count(), 1, "ghost fragment state exists");
        let mut t = 0;
        for _ in 0..20 {
            t += 2_500_000;
            b.timer_tick(t);
            while b.poll_transmit(t).is_some() {}
        }
        assert_eq!(b.inbound_count(), 0, "ghost must be swept, not squat forever");
        assert!(
            b.take_events().iter().any(|e| matches!(e, HomaEvent::InboundAborted { .. })),
            "ghost sweep surfaces as an inbound abort"
        );
    }

    /// Pinned edge case: RESEND for a `MsgKey` the sender knows nothing
    /// about. For one-ways and requests the state was discarded on
    /// purpose (completed, aborted, or never existed) and the RESEND must
    /// be ignored without creating state; for responses it is the §3.7
    /// server-side recovery signal — re-request the request's blind
    /// prefix so the RPC re-executes (§3.8).
    #[test]
    fn resend_for_unknown_msgkey() {
        let (_, mut b) = pair();
        let prio = 0;
        for dir in [Dir::Oneway, Dir::Request] {
            let key = MsgKey { origin: PeerId(1), seq: 77, dir };
            b.on_packet(
                0,
                PeerId(0),
                HomaPacket::Resend(ResendHeader { key, offset: 0, length: 9_700, prio }),
            );
            assert!(!b.has_pending_tx(), "unknown {dir:?} RESEND must be ignored");
            assert_eq!(b.outbound_count(), 0);
            assert_eq!(b.inbound_count(), 0);
        }
        // Unknown response key, no request in progress: the server asks
        // for the request again instead.
        let resp_key = MsgKey { origin: PeerId(0), seq: 78, dir: Dir::Response };
        b.on_packet(
            0,
            PeerId(0),
            HomaPacket::Resend(ResendHeader { key: resp_key, offset: 0, length: 9_700, prio }),
        );
        match b.poll_transmit(0) {
            Some((dst, HomaPacket::Resend(r))) => {
                assert_eq!(dst, PeerId(0));
                assert_eq!(r.key, resp_key.flipped(), "server re-requests the request");
                assert_eq!(r.offset, 0);
            }
            other => panic!("expected a request re-request, got {other:?}"),
        }
        assert_eq!(b.resends_sent(), 1);
    }

    #[test]
    fn withholding_probe_reflects_overcommit() {
        let cfg = HomaConfig { overcommit_override: Some(1), ..HomaConfig::default() };
        let mut a = HomaEndpoint::new(PeerId(0), cfg.clone());
        let mut b = HomaEndpoint::new(PeerId(1), cfg);
        a.send_message(0, PeerId(1), 1_000_000, 1);
        a.send_message(0, PeerId(1), 2_000_000, 2);
        // Push only the blind prefixes across (no grants back), so both
        // messages are incomplete at b.
        for _ in 0..14 {
            if let Some((_, pkt)) = a.poll_transmit(0) {
                b.on_packet(0, PeerId(0), pkt);
            }
        }
        assert!(b.withholding_grants(), "one of two messages must be withheld");
    }
}
