//! The interface between protocol state machines and the simulated fabric.
//!
//! A [`Transport`] is one host's protocol instance (Homa, pFabric, ...).
//! It is a pure state machine: the network calls it with packets and
//! timers, and *pulls* outgoing packets from it whenever the host's uplink
//! is free. The pull model mirrors the paper's implementation note (§4)
//! that Homa keeps the NIC queue nearly empty so the sender can reorder
//! outgoing packets — with a pull, sender-side SRPT is exact.

use crate::events::TimerToken;
use crate::packet::{Packet, PacketMeta};
use crate::time::{SimDuration, SimTime};
use crate::topology::HostId;

/// Events a transport reports up to the application / experiment driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppEvent {
    /// A one-way message arrived in full at this host.
    MessageDelivered {
        /// Sender of the message.
        src: HostId,
        /// The sender-assigned tag passed to `inject_message`.
        tag: u64,
        /// Message length in application bytes.
        len: u64,
    },
    /// An RPC issued from this host completed (response fully received).
    RpcCompleted {
        /// The server that executed the RPC.
        server: HostId,
        /// The tag passed to `inject_rpc`.
        tag: u64,
        /// Response length in bytes.
        response_len: u64,
    },
    /// A request arrived at this host acting as a server. The driver is
    /// expected to send the response via `Transport::inject_response`.
    RpcRequestArrived {
        /// The client that issued the RPC.
        client: HostId,
        /// Protocol-level identifier to pass back to `inject_response`.
        rpc: u64,
        /// Request length in bytes.
        request_len: u64,
    },
    /// An RPC or message was aborted after exhausting retries.
    Aborted {
        /// Peer of the failed exchange.
        peer: HostId,
        /// Tag of the failed message/RPC.
        tag: u64,
    },
}

/// Side effects produced by a transport callback.
///
/// The fields are private by contract: transports *request* effects
/// through the methods below, and only the fabric (this crate) consumes
/// them. This keeps the interface one-directional — a transport cannot
/// observe or retract another callback's pending actions.
#[derive(Debug, Default)]
pub struct TransportActions {
    /// Timers to schedule (absolute times). Timers are not cancellable;
    /// transports are expected to ignore stale fires (lazy cancellation).
    timers: Vec<(SimTime, TimerToken)>,
    /// Set when the transport may now have packets to transmit; the network
    /// will poll `next_packet` if the uplink is idle.
    tx_kick: bool,
    /// Application-visible events.
    events: Vec<AppEvent>,
}

impl TransportActions {
    /// Empty action set.
    pub fn new() -> Self {
        TransportActions::default()
    }

    /// Clear in place (the network reuses one instance per host).
    pub fn reset(&mut self) {
        self.timers.clear();
        self.tx_kick = false;
        self.events.clear();
    }

    /// Schedule a timer at the absolute time `at` with `token`. Timers
    /// cannot be cancelled; schedule sparingly and ignore stale fires.
    pub fn timer(&mut self, at: SimTime, token: TimerToken) {
        self.timers.push((at, token));
    }

    /// Schedule a timer `after` from `now` — the common relative form.
    pub fn timer_after(&mut self, now: SimTime, after: SimDuration, token: TimerToken) {
        self.timers.push((now + after, token));
    }

    /// Request a transmit poll.
    pub fn kick_tx(&mut self) {
        self.tx_kick = true;
    }

    /// Emit an application event.
    pub fn event(&mut self, ev: AppEvent) {
        self.events.push(ev);
    }

    /// Application events emitted so far this callback (read-only; used
    /// by drivers and tests that inspect a transport's output directly).
    pub fn events(&self) -> &[AppEvent] {
        &self.events
    }

    /// Fabric side: drain scheduled timers.
    pub(crate) fn drain_timers(&mut self) -> std::vec::Drain<'_, (SimTime, TimerToken)> {
        self.timers.drain(..)
    }

    /// Fabric side: drain emitted events.
    pub(crate) fn drain_events(&mut self) -> std::vec::Drain<'_, AppEvent> {
        self.events.drain(..)
    }

    /// Fabric side: consume the transmit-poll request.
    pub(crate) fn take_tx_kick(&mut self) -> bool {
        std::mem::take(&mut self.tx_kick)
    }
}

/// One host's protocol instance: a plain state machine the fabric
/// drives from its single dispatch loop.
pub trait Transport<M: PacketMeta> {
    /// A packet addressed to this host has been received and the host
    /// software delay has elapsed.
    fn on_packet(&mut self, now: SimTime, pkt: Packet<M>, act: &mut TransportActions);

    /// A previously-scheduled timer fired.
    fn on_timer(&mut self, now: SimTime, token: TimerToken, act: &mut TransportActions);

    /// The uplink is idle: return the next packet to transmit, or `None`.
    /// Called again immediately after each transmission completes, so the
    /// transport can implement SRPT/pacing exactly.
    ///
    /// Contract: queued *control* packets (acks, grants, tokens, pulls)
    /// must be returned before any data packet — the fabric serves
    /// control at high priority, and a sender that buries control
    /// behind data deadlocks its own flow-control loop. Returned
    /// packets must carry this host as their source.
    fn next_packet(&mut self, now: SimTime) -> Option<Packet<M>>;

    /// Begin sending a one-way message of `len` bytes to `dst`. `tag` is
    /// opaque and is echoed in the receiver's
    /// [`AppEvent::MessageDelivered`].
    fn inject_message(
        &mut self,
        now: SimTime,
        dst: HostId,
        len: u64,
        tag: u64,
        act: &mut TransportActions,
    );

    /// Begin an RPC: send a request of `req_len` bytes to `server`; the
    /// response is reported via [`AppEvent::RpcCompleted`] with `tag`.
    /// Transports that only support one-way messages may leave this
    /// unimplemented.
    fn inject_rpc(
        &mut self,
        _now: SimTime,
        _server: HostId,
        _req_len: u64,
        _tag: u64,
        _act: &mut TransportActions,
    ) {
        unimplemented!("this transport does not support RPCs")
    }

    /// Send the response for an RPC previously surfaced via
    /// [`AppEvent::RpcRequestArrived`].
    fn inject_response(
        &mut self,
        _now: SimTime,
        _client: HostId,
        _rpc: u64,
        _resp_len: u64,
        _act: &mut TransportActions,
    ) {
        unimplemented!("this transport does not support RPCs")
    }

    /// Instrumentation hook for the Figure 16 wasted-bandwidth metric:
    /// true when this host, as a *receiver*, has at least one incomplete
    /// inbound message to which it is currently *not* granting (i.e. work
    /// it is withholding because of overcommitment limits). Protocols
    /// without grant withholding return false.
    fn withholding_grants(&self, _now: SimTime) -> bool {
        false
    }

    /// Bytes of (application) goodput this transport has delivered to its
    /// local application. Used for throughput accounting.
    fn delivered_bytes(&self) -> u64 {
        0
    }

    /// Retrieve (and clear) the accumulated queueing-delay attribution for
    /// a delivered message, identified by its sender and tag. Transports
    /// that do not track attribution return the zero breakdown. Used by
    /// the Figure 14 analysis; tracking may need to be enabled explicitly
    /// on the transport.
    fn take_message_delay(&mut self, _src: HostId, _tag: u64) -> crate::delay::DelayBreakdown {
        crate::delay::DelayBreakdown::default()
    }

    /// Grant/overcommit credit this host has issued as a *receiver*,
    /// summed into [`crate::RunStats::grants`] at harvest. Protocols
    /// without receiver-driven grants report zeros.
    fn grant_stats(&self) -> crate::stats::GrantStats {
        crate::stats::GrantStats::default()
    }
}
