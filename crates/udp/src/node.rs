//! The threaded UDP driver around [`HomaEndpoint`]. The crate docs say what
//! one driver turn is, why its drain is gated and what a merged GRANT costs.

use homa::packets::{Dir, HomaPacket, MsgKey, PeerId};
use homa::{HomaConfig, HomaEndpoint, HomaEvent};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct UdpConfig {
    /// Protocol configuration.
    pub homa: HomaConfig,
    /// Bound on the application event channel. An application that stops
    /// consuming [`UdpEvent`]s no longer grows the queue without limit:
    /// once `event_channel_cap` events are queued, further events are
    /// dropped with a `WouldBlock`-style signal counted in
    /// [`HomaUdpNode::events_dropped`]. Note the drop is at the
    /// *application* boundary: the protocol may already have
    /// acknowledged a message whose `Message` event is shed, so a
    /// latency-insensitive consumer that cannot tolerate shedding
    /// should poll `events_dropped` (or set `0` = unbounded, the
    /// pre-backpressure behavior).
    pub event_channel_cap: usize,
}

impl Default for UdpConfig {
    fn default() -> Self {
        UdpConfig {
            homa: HomaConfig {
                // Loopback/kernel RTTs are far larger than a datacenter
                // fabric; keep the paper's byte constants but stretch the
                // loss timers.
                resend_interval_ns: 20_000_000, // 20 ms
                ..HomaConfig::default()
            },
            event_channel_cap: 1024,
        }
    }
}

/// Most packets one `pump` call takes from the endpoint under the shared
/// lock before sending them. The cap bounds one lock hold, the transmit
/// arena, and what one batch puts into a peer's socket buffer with nothing
/// pacing it (64 full datagrams are ~150 KB of the kernel's 208 KB): a
/// restarted sender is granted its whole message at once, and a larger
/// batch lost its tail to the buffer every time it was re-sent. The rest
/// goes out on the driver's next turn, after it has read the socket again.
const TX_BATCH: usize = 64;

/// Most datagrams one driver turn reads, drain included, before it pumps:
/// one lock hold. Seven packets a message are in flight (`rtt_bytes`).
const RX_BATCH: usize = 64;

/// Socket read timeout, and so how often an idle driver runs its timer tick
/// and buffer sweep and looks at `stop`. Small against the resend intervals
/// in use (2 to 20 ms), so that a RESEND or an abort is not late by much; the
/// kernel rounds it up to a scheduler tick, so an idle node in fact ticks
/// every 4 to 8 ms. No caller ever asked for another value.
const POLL_INTERVAL: Duration = Duration::from_micros(500);

/// Application events surfaced by the node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UdpEvent {
    /// A one-way message arrived.
    Message {
        /// The sender.
        from: PeerId,
        /// Sender-supplied tag.
        tag: u64,
        /// Message payload.
        data: Vec<u8>,
    },
    /// An RPC request arrived; respond via [`HomaUdpNode::respond`].
    Request {
        /// The client.
        from: PeerId,
        /// RPC handle to pass to `respond`.
        rpc: u64,
        /// Request payload.
        data: Vec<u8>,
    },
    /// An RPC we issued completed.
    Response {
        /// The server.
        from: PeerId,
        /// The tag passed to [`HomaUdpNode::call`].
        tag: u64,
        /// Response payload.
        data: Vec<u8>,
    },
    /// An RPC or message failed permanently.
    Aborted {
        /// Peer of the failed exchange.
        peer: PeerId,
        /// Tag of the failed operation.
        tag: u64,
    },
}

/// The application's event queue, as [`HomaUdpNode::events`] hands it out.
/// The node's threads push without ever waiting; any thread may receive. The
/// node owns the queue for as long as it lives, so there is no disconnected
/// state: a receive ends with an event or a timeout.
pub struct EventQueue {
    items: Mutex<VecDeque<UdpEvent>>,
    /// Signalled once per event pushed.
    ready: Condvar,
    /// Most events held at once.
    cap: usize,
}

impl EventQueue {
    /// A queue of at most `cap` events; 0 is no bound.
    fn new(cap: usize) -> Self {
        let cap = if cap > 0 { cap } else { usize::MAX };
        EventQueue { items: Mutex::new(VecDeque::new()), ready: Condvar::new(), cap }
    }

    /// Pushes and pops are whole `VecDeque` operations, so a thread that
    /// panicked with the lock held left the queue sound: poison is ignored.
    fn items(&self) -> MutexGuard<'_, VecDeque<UdpEvent>> {
        self.items.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queue `ev` and wake one receiver, or refuse it (false) when full.
    fn push(&self, ev: UdpEvent) -> bool {
        let mut items = self.items();
        if items.len() >= self.cap {
            return false;
        }
        items.push_back(ev);
        drop(items);
        self.ready.notify_one();
        true
    }

    /// Block until an event arrives.
    pub fn recv(&self) -> UdpEvent {
        let mut items = self
            .ready
            .wait_while(self.items(), |q| q.is_empty())
            .unwrap_or_else(PoisonError::into_inner);
        items.pop_front().expect("woken with an event queued")
    }

    /// Block up to `timeout` for an event; `Timeout` is the only error.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<UdpEvent, RecvTimeoutError> {
        let (mut items, _) = self
            .ready
            .wait_timeout_while(self.items(), timeout, |q| q.is_empty())
            .unwrap_or_else(PoisonError::into_inner);
        items.pop_front().ok_or(RecvTimeoutError::Timeout)
    }

    /// Number of events currently queued.
    pub fn len(&self) -> usize {
        self.items().len()
    }

    /// Whether no event is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Point-in-time driver counters for one node — the run summary printed
/// (or asserted on) when a node winds down. The load-bearing field is
/// `events_dropped`: a non-zero value means the application fell behind
/// the bounded event channel and messages were shed at the delivery
/// boundary (see [`UdpConfig::event_channel_cap`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// The node's identity.
    pub peer: PeerId,
    /// Events currently queued for the application.
    pub events_queued: usize,
    /// Events dropped because the bounded channel was full.
    pub events_dropped: u64,
    /// Outbound payload buffers still retained (in flight or lingering).
    pub out_payloads: usize,
    /// Reassembly buffers held for inbound messages still arriving.
    pub in_buffers: usize,
    /// Datagrams read from the socket, undecodable and filtered included.
    pub datagrams_rx: u64,
    /// Datagrams handed to `send_to`, failed sends included.
    pub datagrams_tx: u64,
    /// Driver turns that read at least one datagram.
    pub rx_turns: u64,
    /// Of `datagrams_rx`, those a turn's non-blocking drain read.
    pub rx_drained: u64,
    /// GRANTs folded into an earlier GRANT of the same transmit batch.
    pub grants_merged: u64,
    /// `send_to` calls that failed: packets lost before the wire.
    pub tx_errors: u64,
}

impl std::fmt::Display for RunSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self { datagrams_rx: rx, datagrams_tx: tx, rx_turns, rx_drained, tx_errors, .. } = self;
        let Self { events_queued: queued, events_dropped: shed, out_payloads, in_buffers, .. } =
            self;
        write!(
            f,
            "node {}: {queued} events queued, {shed} dropped (channel overflow), {out_payloads} \
             out-payloads retained, {in_buffers} in-buffers; rx {rx} in {rx_turns} turns \
             ({rx_drained} drained), tx {tx} ({tx_errors} errors, {} grants merged)",
            self.peer.0, self.grants_merged
        )
    }
}

/// Map a Homa priority level (0–7) to a DSCP code point. Homa's eight
/// levels map onto the class-selector code points CS0–CS7; deployments
/// configure their switches to serve them as strict priorities (the
/// kernel-bypass implementation in the paper programs the NIC/switch
/// directly instead).
pub fn priority_to_dscp(prio: u8) -> u8 {
    (prio.min(7)) << 3
}

/// Largest message a peer may announce, in bytes. A DATA header is a
/// peer's claim, not a fact, and the reassembly buffer is allocated from
/// it; 64 MiB clears every workload's largest message (W5: 28.84 MB).
const MAX_MSG_LEN: u64 = 64 << 20;

/// A receive-side packet filter (test hook for loss injection).
type RxDropFilter = Box<dyn FnMut(&HomaPacket) -> bool + Send>;

struct Shared {
    ep: HomaEndpoint,
    /// Payload store for outbound messages.
    out_payloads: HashMap<MsgKey, Vec<u8>>,
    /// Reassembly buffers for inbound messages.
    in_buffers: HashMap<MsgKey, Vec<u8>>,
    /// Peer address table.
    peers: HashMap<PeerId, SocketAddr>,
    addr_to_peer: HashMap<SocketAddr, PeerId>,
    /// Test hook: drop incoming packets matching the filter.
    rx_drop: Option<RxDropFilter>,
    /// The traffic counters, as [`HomaUdpNode::run_summary`] reports them.
    sum: RunSummary,
}

thread_local! {
    /// This thread's transmit arena, reused by every `pump`: the packets
    /// staged, their encodings back to back, each one's address and end.
    #[allow(clippy::type_complexity)]
    static TX: RefCell<(Vec<(PeerId, HomaPacket)>, Vec<u8>, Vec<(SocketAddr, usize)>)> =
        RefCell::default();
}

/// Stage `pkt` for `dst`; true if it was a GRANT folded into an earlier
/// GRANT of the batch for the same peer and message. Grants are cumulative:
/// the larger offset, the newer priority and the newer `cutoffs` (the older
/// one's if only it has any) say what both did.
fn stage(staged: &mut Vec<(PeerId, HomaPacket)>, dst: PeerId, pkt: HomaPacket) -> bool {
    if let HomaPacket::Grant(new) = &pkt {
        let earlier = staged.iter_mut().find_map(|(d, p)| match p {
            HomaPacket::Grant(g) if *d == dst && g.key == new.key => Some(g),
            _ => None,
        });
        if let Some(old) = earlier {
            old.offset = old.offset.max(new.offset);
            old.prio = new.prio;
            old.cutoffs = new.cutoffs.clone().or(old.cutoffs.take());
            return true;
        }
    }
    staged.push((dst, pkt));
    false
}

/// One Homa endpoint bound to a UDP socket, serviced by a background
/// thread.
pub struct HomaUdpNode {
    me: PeerId,
    socket: UdpSocket,
    shared: Mutex<Shared>,
    events: EventQueue,
    /// Events the full queue refused (the driver's `WouldBlock`
    /// backpressure signal).
    events_dropped: AtomicU64,
    stop: AtomicBool,
}

impl HomaUdpNode {
    /// Bind a node with identity `me` to `addr` and start its driver
    /// thread.
    pub fn bind<A: ToSocketAddrs>(me: PeerId, addr: A, cfg: UdpConfig) -> io::Result<Arc<Self>> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_read_timeout(Some(POLL_INTERVAL))?;
        let node = Arc::new(HomaUdpNode {
            me,
            socket,
            shared: Mutex::new(Shared {
                ep: HomaEndpoint::new(me, cfg.homa),
                out_payloads: HashMap::new(),
                in_buffers: HashMap::new(),
                peers: HashMap::new(),
                addr_to_peer: HashMap::new(),
                rx_drop: None,
                sum: RunSummary { peer: me, ..RunSummary::default() },
            }),
            events: EventQueue::new(cfg.event_channel_cap),
            events_dropped: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let driver = Arc::clone(&node);
        std::thread::Builder::new()
            .name(format!("homa-udp-{}", me.0))
            .spawn(move || driver.run())
            .expect("spawn driver thread");
        Ok(node)
    }

    /// The local socket address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// The one way to the shared state. Poison is ignored: a panic in an
    /// application thread, or in the test hook a driver runs, must not stop
    /// every other thread of the node at its next `unwrap`.
    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register a peer's address.
    pub fn add_peer(&self, peer: PeerId, addr: SocketAddr) {
        let mut s = self.lock();
        s.peers.insert(peer, addr);
        s.addr_to_peer.insert(addr, peer);
    }

    /// Install a receive-side drop filter (test hook for loss injection).
    pub fn set_rx_drop_filter(&self, f: impl FnMut(&HomaPacket) -> bool + Send + 'static) {
        self.lock().rx_drop = Some(Box::new(f));
    }

    /// What `send_message`, `call` and `respond` share, under one lock take:
    /// refuse a peer with no address, have `start` open the message in the
    /// endpoint and name it, keep its payload; then transmit.
    fn start_outbound(
        &self,
        peer: PeerId,
        data: Vec<u8>,
        start: impl FnOnce(&mut HomaEndpoint, u64, u64) -> MsgKey,
    ) -> io::Result<u64> {
        let mut s = self.lock();
        if !s.peers.contains_key(&peer) {
            return Err(io::Error::new(io::ErrorKind::NotFound, "unknown peer"));
        }
        let key = start(&mut s.ep, now_ns(), data.len() as u64);
        s.out_payloads.insert(key, data);
        drop(s);
        self.pump();
        Ok(key.seq)
    }

    /// Send a one-way message.
    pub fn send_message(&self, dst: PeerId, data: Vec<u8>, tag: u64) -> io::Result<u64> {
        self.start_outbound(dst, data, |ep, now, len| {
            let seq = ep.send_message(now, dst, len, tag);
            MsgKey { origin: self.me, seq, dir: Dir::Oneway }
        })
    }

    /// Issue an RPC; the response arrives as [`UdpEvent::Response`] with
    /// `tag`.
    pub fn call(&self, server: PeerId, request: Vec<u8>, tag: u64) -> io::Result<u64> {
        self.start_outbound(server, request, |ep, now, len| {
            let seq = ep.begin_rpc(now, server, len, tag);
            MsgKey { origin: self.me, seq, dir: Dir::Request }
        })
    }

    /// Respond to an RPC surfaced via [`UdpEvent::Request`].
    pub fn respond(&self, client: PeerId, rpc: u64, response: Vec<u8>) -> io::Result<()> {
        self.start_outbound(client, response, |ep, now, len| {
            ep.send_response(now, client, rpc, len, rpc);
            MsgKey { origin: client, seq: rpc, dir: Dir::Response }
        })
        .map(drop)
    }

    /// The application event queue.
    pub fn events(&self) -> &EventQueue {
        &self.events
    }

    /// Number of application events dropped because the bounded event
    /// channel was full when the driver tried to deliver them (see
    /// [`UdpConfig::event_channel_cap`]). A growing value is the signal
    /// to drain [`events`](Self::events) faster or raise the bound.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped.load(Ordering::Relaxed)
    }

    /// Snapshot the node's driver counters as a [`RunSummary`]. The
    /// summary is how channel overflow becomes visible: callers that
    /// shut a node down should check (or log) `events_dropped` here
    /// rather than silently losing sheds.
    pub fn run_summary(&self) -> RunSummary {
        let s = self.lock();
        RunSummary {
            events_queued: self.events.len(),
            events_dropped: self.events_dropped(),
            out_payloads: s.out_payloads.len(),
            in_buffers: s.in_buffers.len(),
            ..s.sum.clone()
        }
    }

    /// Number of outbound payload buffers currently retained (shrinks to
    /// zero once sent messages are delivered/acknowledged and their
    /// retransmission window has passed).
    pub fn out_payload_count(&self) -> usize {
        self.lock().out_payloads.len()
    }

    /// Stop the driver thread (the node drains on drop of the last Arc).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Transmit what the endpoint has ready, up to [`TX_BATCH`] packets:
    /// [`stage`]d and encoded into this thread's arena under the lock, sent
    /// with no lock held. Driver and application threads all send here.
    fn pump(&self) {
        TX.with_borrow_mut(|(staged, bytes, spans)| {
            bytes.clear();
            spans.clear();
            let mut s = self.lock();
            let now = now_ns();
            while staged.len() < TX_BATCH {
                let Some((dst, pkt)) = s.ep.poll_transmit(now) else { break };
                s.sum.grants_merged += u64::from(stage(staged, dst, pkt));
            }
            for (dst, pkt) in staged.drain(..) {
                let payload = match &pkt {
                    HomaPacket::Data(h) => {
                        let span = h.offset as usize..h.offset as usize + h.payload as usize;
                        s.out_payloads.get(&h.key).and_then(|p| p.get(span))
                    }
                    _ => Some(&[][..]),
                };
                // The endpoint emits DATA only for messages it holds and the
                // GC keeps exactly those; were one gone, send no made-up bytes.
                debug_assert!(payload.is_some(), "DATA without its payload: {pkt:?}");
                let (Some(&addr), Some(payload)) = (s.peers.get(&dst), payload) else { continue };
                homa_wire::encode_into(&pkt, payload, bytes);
                spans.push((addr, bytes.len()));
            }
            s.sum.datagrams_tx += spans.len() as u64;
            drop(s);
            let (mut start, mut errors) = (0, 0);
            for &(addr, end) in spans.iter() {
                // DSCP marking would go here (requires raw socket options);
                // see `priority_to_dscp`. A failed send is a lost packet.
                errors += u64::from(self.socket.send_to(&bytes[start..end], addr).is_err());
                start = end;
            }
            if errors > 0 {
                self.lock().sum.tx_errors += errors;
            }
        });
    }

    fn run(self: Arc<Self>) {
        use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
        let mut buf = vec![0u8; 64 * 1024];
        let mut last_tick = Instant::now();
        while !self.stop.load(Ordering::SeqCst) {
            match self.socket.recv_from(&mut buf) {
                Ok((n, from_addr)) => self.rx_turn(&mut buf, n, from_addr),
                // A timeout or a signal: nothing arrived, the node lives.
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
                Err(_) => break,
            }
            if last_tick.elapsed() >= POLL_INTERVAL {
                last_tick = Instant::now();
                let mut s = self.lock();
                s.ep.timer_tick(now_ns());
                self.drain_events(&mut s);
                // GC delivered out-payloads: once the endpoint's sender
                // has dropped a message (response acked, one-way linger
                // expired, or aborted), no retransmission can ask for its
                // bytes — the buffer is dead weight on a long-running
                // node.
                let Shared { ep, out_payloads, in_buffers, .. } = &mut *s;
                out_payloads.retain(|key, _| ep.outbound_contains(*key));
                // Likewise a buffer whose DATA the endpoint discarded (a stray
                // response packet) or completed without an event.
                in_buffers.retain(|key, _| ep.inbound_contains(*key));
                drop(s);
            }
            self.pump();
        }
    }

    /// The receive half of a turn, under one lock take: the datagram just
    /// read into `buf` and, if the endpoint now has something to send, what
    /// else the socket already holds.
    fn rx_turn(&self, buf: &mut [u8], n: usize, from_addr: SocketAddr) {
        let mut s = self.lock();
        s.sum.rx_turns += 1;
        self.on_datagram(&mut s, &buf[..n], from_addr);
        if s.ep.has_pending_tx() && self.socket.set_nonblocking(true).is_ok() {
            for _ in 1..RX_BATCH {
                let Ok((n, from_addr)) = self.socket.recv_from(buf) else { break };
                s.sum.rx_drained += 1;
                self.on_datagram(&mut s, &buf[..n], from_addr);
            }
            // Left non-blocking, the loop in `run` would spin: stop it.
            self.socket.set_nonblocking(false).unwrap_or_else(|_| self.shutdown());
        }
        self.drain_events(&mut s);
    }

    fn on_datagram(&self, s: &mut Shared, dgram: &[u8], from_addr: SocketAddr) {
        s.sum.datagrams_rx += 1;
        let Ok((pkt, payload_off)) = homa_wire::decode(dgram) else { return };
        let Some(&from) = s.addr_to_peer.get(&from_addr) else { return };
        if let Some(f) = s.rx_drop.as_mut() {
            if f(&pkt) {
                return;
            }
        }
        // Stash payload bytes into the reassembly buffer before the
        // endpoint consumes the header.
        if let HomaPacket::Data(h) = &pkt {
            // The header is the peer's claim: drop a packet whose span
            // overflows or overruns the message it announces, or that
            // announces more than the cap, before anything is allocated
            // or indexed from it.
            let span_end = h.offset.checked_add(u64::from(h.payload));
            let Some(end) = span_end.filter(|&e| e <= h.msg_len && h.msg_len <= MAX_MSG_LEN) else {
                return;
            };
            let buf = s.in_buffers.entry(h.key).or_insert_with(|| vec![0u8; h.msg_len as usize]);
            let start = (h.offset as usize).min(buf.len());
            let end = (end as usize).min(buf.len());
            let avail = &dgram[payload_off..payload_off + h.payload as usize];
            buf[start..end].copy_from_slice(&avail[..end - start]);
        }
        s.ep.on_packet(now_ns(), from, pkt);
    }

    fn drain_events(&self, s: &mut Shared) {
        for ev in s.ep.take_events() {
            let out = match ev {
                HomaEvent::MessageDelivered { src, seq, tag, .. } => {
                    let key = MsgKey { origin: src, seq, dir: Dir::Oneway };
                    let data = s.in_buffers.remove(&key).unwrap_or_default();
                    Some(UdpEvent::Message { from: src, tag, data })
                }
                HomaEvent::RequestArrived { client, rpc_seq, .. } => {
                    let key = MsgKey { origin: client, seq: rpc_seq, dir: Dir::Request };
                    let data = s.in_buffers.remove(&key).unwrap_or_default();
                    Some(UdpEvent::Request { from: client, rpc: rpc_seq, data })
                }
                HomaEvent::RpcCompleted { server, rpc_seq, tag, .. } => {
                    let key = MsgKey { origin: self.me, seq: rpc_seq, dir: Dir::Response };
                    let data = s.in_buffers.remove(&key).unwrap_or_default();
                    // The request payload is no longer needed.
                    s.out_payloads.remove(&MsgKey {
                        origin: self.me,
                        seq: rpc_seq,
                        dir: Dir::Request,
                    });
                    Some(UdpEvent::Response { from: server, tag, data })
                }
                HomaEvent::RpcAborted { server, tag } => {
                    Some(UdpEvent::Aborted { peer: server, tag })
                }
                HomaEvent::OutboundAborted { dst, tag } => {
                    Some(UdpEvent::Aborted { peer: dst, tag })
                }
                HomaEvent::InboundAborted { key, .. } => {
                    // Free the partial reassembly buffer of the abandoned
                    // inbound; it will never complete.
                    s.in_buffers.remove(&key);
                    None
                }
            };
            if let Some(ev) = out {
                // Non-blocking delivery: an event the full queue refuses is
                // dropped and counted rather than growing the queue (or
                // stalling the socket thread) without bound.
                if !self.events.push(ev) {
                    self.events_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

impl Drop for HomaUdpNode {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// Monotonic nanoseconds since an arbitrary process-local epoch.
fn now_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn pair() -> (Arc<HomaUdpNode>, Arc<HomaUdpNode>) {
        pair_with(UdpConfig::default())
    }

    fn pair_with(cfg: UdpConfig) -> (Arc<HomaUdpNode>, Arc<HomaUdpNode>) {
        let a = HomaUdpNode::bind(PeerId(0), ("127.0.0.1", 0), cfg.clone()).unwrap();
        let b = HomaUdpNode::bind(PeerId(1), ("127.0.0.1", 0), cfg).unwrap();
        a.add_peer(PeerId(1), b.local_addr().unwrap());
        b.add_peer(PeerId(0), a.local_addr().unwrap());
        (a, b)
    }

    #[test]
    fn oneway_message_over_loopback() {
        let (a, b) = pair();
        let payload: Vec<u8> = (0..5_000u32).map(|i| (i % 251) as u8).collect();
        a.send_message(PeerId(1), payload.clone(), 77).unwrap();
        match b.events().recv_timeout(Duration::from_secs(5)).unwrap() {
            UdpEvent::Message { from, tag, data } => {
                assert_eq!(from, PeerId(0));
                assert_eq!(tag, 77);
                assert_eq!(data, payload);
            }
            other => panic!("unexpected {other:?}"),
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn rpc_echo_over_loopback() {
        let (a, b) = pair();
        a.call(PeerId(1), b"hello homa".to_vec(), 5).unwrap();
        match b.events().recv_timeout(Duration::from_secs(5)).unwrap() {
            UdpEvent::Request { from, rpc, data } => {
                assert_eq!(data, b"hello homa");
                b.respond(from, rpc, data).unwrap();
            }
            other => panic!("unexpected {other:?}"),
        }
        match a.events().recv_timeout(Duration::from_secs(5)).unwrap() {
            UdpEvent::Response { from, tag, data } => {
                assert_eq!(from, PeerId(1));
                assert_eq!(tag, 5);
                assert_eq!(data, b"hello homa");
            }
            other => panic!("unexpected {other:?}"),
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn large_message_spans_many_packets() {
        let (a, b) = pair();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i * 7 % 253) as u8).collect();
        a.send_message(PeerId(1), payload.clone(), 9).unwrap();
        match b.events().recv_timeout(Duration::from_secs(10)).unwrap() {
            UdpEvent::Message { data, .. } => assert_eq!(data, payload),
            other => panic!("unexpected {other:?}"),
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn loss_recovered_by_resend() {
        let (a, b) = pair();
        // Drop the first two data packets b receives.
        let mut dropped = 0;
        b.set_rx_drop_filter(move |p| {
            if matches!(p, HomaPacket::Data(_)) && dropped < 2 {
                dropped += 1;
                true
            } else {
                false
            }
        });
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 256) as u8).collect();
        a.send_message(PeerId(1), payload.clone(), 3).unwrap();
        match b.events().recv_timeout(Duration::from_secs(10)).unwrap() {
            UdpEvent::Message { data, .. } => assert_eq!(data, payload),
            other => panic!("unexpected {other:?}"),
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn every_entry_point_refuses_a_peer_it_has_no_address_for() {
        let (a, b) = pair();
        let stranger = PeerId(9);
        fn kind<T>(r: io::Result<T>) -> Result<T, io::ErrorKind> {
            r.map_err(|e| e.kind())
        }
        assert_eq!(kind(a.send_message(stranger, vec![1; 64], 1)), Err(io::ErrorKind::NotFound));
        assert_eq!(kind(a.call(stranger, vec![2; 64], 2)), Err(io::ErrorKind::NotFound));
        // Before, `respond` opened the response, kept its payload, and every
        // packet of it was then dropped for want of an address.
        assert_eq!(kind(a.respond(stranger, 3, vec![3; 64])), Err(io::ErrorKind::NotFound));
        assert_eq!(a.out_payload_count(), 0, "a refused message kept its payload");
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn out_payload_map_shrinks_after_delivery() {
        // Short retransmission window so the one-way linger (4x resend
        // interval) expires quickly and the driver GC can reap the
        // payload buffer.
        let cfg = UdpConfig {
            homa: HomaConfig { resend_interval_ns: 5_000_000, ..HomaConfig::default() },
            ..UdpConfig::default()
        };
        let a = HomaUdpNode::bind(PeerId(0), ("127.0.0.1", 0), cfg.clone()).unwrap();
        let b = HomaUdpNode::bind(PeerId(1), ("127.0.0.1", 0), cfg).unwrap();
        a.add_peer(PeerId(1), b.local_addr().unwrap());
        b.add_peer(PeerId(0), a.local_addr().unwrap());

        for i in 0..8u64 {
            let payload: Vec<u8> = (0..10_000u32).map(|x| (x % 255) as u8).collect();
            a.send_message(PeerId(1), payload, i).unwrap();
        }
        assert!(a.out_payload_count() >= 1, "payloads retained while in flight");
        for _ in 0..8 {
            match b.events().recv_timeout(Duration::from_secs(5)).unwrap() {
                UdpEvent::Message { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        // All delivered; after the linger window the sender drops its
        // state and the driver GC must shrink the map to empty.
        let deadline = Instant::now() + Duration::from_secs(5);
        while a.out_payload_count() > 0 {
            assert!(Instant::now() < deadline, "out_payloads never GC'd: {}", {
                a.out_payload_count()
            });
            std::thread::sleep(Duration::from_millis(10));
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn rpc_payloads_released_after_completion() {
        let (a, b) = pair();
        a.call(PeerId(1), vec![7u8; 5_000], 1).unwrap();
        match b.events().recv_timeout(Duration::from_secs(5)).unwrap() {
            UdpEvent::Request { from, rpc, data } => b.respond(from, rpc, data).unwrap(),
            other => panic!("unexpected {other:?}"),
        }
        match a.events().recv_timeout(Duration::from_secs(5)).unwrap() {
            UdpEvent::Response { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        // The response acknowledges the request, and the server drops
        // response state once fully sent — both maps must empty out.
        let deadline = Instant::now() + Duration::from_secs(5);
        while a.out_payload_count() > 0 || b.out_payload_count() > 0 {
            assert!(
                Instant::now() < deadline,
                "rpc payloads never GC'd: client {} server {}",
                a.out_payload_count(),
                b.out_payload_count()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn bounded_event_channel_fills_then_drains() {
        // Cap the event channel at 3 and deliver 8 messages without the
        // application consuming any: exactly 3 queue, the rest are
        // dropped with the backpressure counter ticking. Draining the
        // bound restores delivery.
        let cfg = UdpConfig { event_channel_cap: 3, ..UdpConfig::default() };
        let a = HomaUdpNode::bind(PeerId(0), ("127.0.0.1", 0), cfg.clone()).unwrap();
        let b = HomaUdpNode::bind(PeerId(1), ("127.0.0.1", 0), cfg).unwrap();
        a.add_peer(PeerId(1), b.local_addr().unwrap());
        b.add_peer(PeerId(0), a.local_addr().unwrap());

        for i in 0..8u64 {
            a.send_message(PeerId(1), vec![i as u8; 64], i).unwrap();
        }
        // Wait until every message has been delivered or dropped at the
        // event channel (3 queued + 5 dropped).
        let deadline = Instant::now() + Duration::from_secs(10);
        while b.events().len() < 3 || b.events_dropped() < 5 {
            assert!(
                Instant::now() < deadline,
                "backpressure never engaged: {} queued, {} dropped",
                b.events().len(),
                b.events_dropped()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(b.events().len(), 3, "bound exceeded");
        assert_eq!(b.events_dropped(), 5);

        // The run summary surfaces the overflow: full channel, five
        // sheds, all visible in one snapshot (and its printed form).
        let full = b.run_summary();
        assert_eq!(full.events_queued, 3);
        assert_eq!(full.events_dropped, 5);
        assert!(
            full.to_string().contains("5 dropped (channel overflow)"),
            "summary must name the drop count: {full}"
        );

        // Drain the bound; the channel is usable again afterwards.
        for _ in 0..3 {
            match b.events().recv_timeout(Duration::from_secs(5)).unwrap() {
                UdpEvent::Message { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        a.send_message(PeerId(1), b"after-drain".to_vec(), 99).unwrap();
        match b.events().recv_timeout(Duration::from_secs(5)).unwrap() {
            UdpEvent::Message { tag, data, .. } => {
                assert_eq!(tag, 99);
                assert_eq!(data, b"after-drain");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Post-drain summary: queue empty again, but the drop counter is
        // cumulative — the overflow stays on the record.
        let drained = b.run_summary();
        assert_eq!(drained.events_queued, 0);
        assert_eq!(drained.events_dropped, 5);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn hostile_data_headers_are_dropped_and_the_node_keeps_serving() {
        use homa::packets::DataHeader;
        let (a, b) = pair();
        // A registered peer whose socket we drive by hand.
        let rogue = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        b.add_peer(PeerId(2), rogue.local_addr().unwrap());
        let data = |seq, msg_len, offset, payload: u32| {
            let h = DataHeader {
                key: MsgKey { origin: PeerId(2), seq, dir: Dir::Oneway },
                msg_len,
                offset,
                payload,
                prio: 0,
                unscheduled: true,
                retransmit: false,
                incast_mark: false,
                tag: seq,
            };
            homa_wire::encode(&HomaPacket::Data(h), &vec![0xAB; payload as usize])
        };
        for dgram in [
            data(1, u64::MAX, 0, 8),        // allocation of whatever is claimed
            data(2, 100, u64::MAX - 3, 8),  // offset + payload wraps
            data(3, 100, 96, 8),            // span overruns the message
            data(4, MAX_MSG_LEN + 1, 0, 8), // over the cap, otherwise sane
        ] {
            rogue.send_to(&dgram, b.local_addr().unwrap()).unwrap();
        }
        // The driver thread survived all four: an echo RPC still completes.
        a.call(PeerId(1), b"still there?".to_vec(), 9).unwrap();
        match b.events().recv_timeout(Duration::from_secs(5)).expect("server went deaf") {
            UdpEvent::Request { from, rpc, data } => b.respond(from, rpc, data).unwrap(),
            other => panic!("unexpected {other:?}"),
        }
        match a.events().recv_timeout(Duration::from_secs(5)).expect("no echo") {
            UdpEvent::Response { tag, data, .. } => {
                assert_eq!(tag, 9);
                assert_eq!(data, b"still there?");
            }
            other => panic!("unexpected {other:?}"),
        }
        // None of them reached the buffer table or the endpoint.
        assert!(b.lock().in_buffers.is_empty(), "hostile DATA was buffered");
        assert_eq!(b.events().len(), 0, "hostile DATA surfaced an event");
        a.shutdown();
        b.shutdown();
    }

    fn aborted(tag: u64) -> UdpEvent {
        UdpEvent::Aborted { peer: PeerId(0), tag }
    }

    #[test]
    fn a_push_from_another_thread_wakes_a_blocked_receiver() {
        let q = EventQueue::new(0);
        let woke_after = std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                let start = Instant::now();
                (q.recv_timeout(Duration::from_secs(30)), start.elapsed())
            });
            // Whether the receiver is already waiting or not yet: it gets the
            // event, long before its deadline.
            std::thread::sleep(Duration::from_millis(20));
            assert!(q.push(aborted(7)));
            receiver.join().unwrap()
        });
        assert_eq!(woke_after.0, Ok(aborted(7)));
        assert!(woke_after.1 < Duration::from_secs(10), "woken by the deadline: {woke_after:?}");
        // The blocking form, the same way round.
        let got = std::thread::scope(|s| {
            let receiver = s.spawn(|| q.recv());
            assert!(q.push(aborted(8)));
            receiver.join().unwrap()
        });
        assert_eq!(got, aborted(8));
    }

    #[test]
    fn an_empty_queue_times_out_no_earlier_than_asked() {
        let q = EventQueue::new(4);
        let (start, wait) = (Instant::now(), Duration::from_millis(30));
        assert_eq!(q.recv_timeout(wait), Err(RecvTimeoutError::Timeout));
        assert!(start.elapsed() >= wait, "returned after {:?}", start.elapsed());
        // An event already queued is returned at once, zero timeout included.
        assert!(q.push(aborted(1)));
        assert_eq!(q.recv_timeout(Duration::ZERO), Ok(aborted(1)));
    }

    #[test]
    fn a_full_queue_refuses_the_push_until_a_slot_is_drained() {
        let q = EventQueue::new(2);
        assert!(q.is_empty());
        assert!(q.push(aborted(1)) && q.push(aborted(2)));
        assert!(!q.push(aborted(3)), "pushed past the bound");
        assert_eq!(q.len(), 2);
        assert_eq!(q.recv(), aborted(1));
        assert!(q.push(aborted(3)), "a drained slot admits the next push");
        assert_eq!(q.len(), 2);
        assert_eq!((q.recv(), q.recv()), (aborted(2), aborted(3)));
        // 0 is no bound.
        let unbounded = EventQueue::new(0);
        assert!((0..5_000).all(|i| unbounded.push(aborted(i))));
        assert_eq!(unbounded.len(), 5_000);
    }

    fn grant(seq: u64, offset: u64, prio: u8, cutoffs: Option<u64>) -> HomaPacket {
        use homa::packets::{CutoffsUpdate, GrantHeader};
        HomaPacket::Grant(GrantHeader {
            key: MsgKey { origin: PeerId(0), seq, dir: Dir::Oneway },
            offset,
            prio,
            cutoffs: cutoffs.map(|version| CutoffsUpdate {
                version,
                unsched_levels: 1,
                cutoffs: vec![version],
            }),
        })
    }

    #[test]
    fn stage_merges_grants_of_one_message_and_nothing_else() {
        use homa::packets::{BusyHeader, CutoffsUpdate, DataHeader, ResendHeader};
        let key = MsgKey { origin: PeerId(0), seq: 1, dir: Dir::Oneway };
        let resend = HomaPacket::Resend(ResendHeader { key, offset: 0, length: 9, prio: 7 });
        let busy = HomaPacket::Busy(BusyHeader { key });
        let cutoffs =
            HomaPacket::Cutoffs(CutoffsUpdate { version: 2, unsched_levels: 1, cutoffs: vec![] });
        let data = HomaPacket::Data(DataHeader {
            key,
            msg_len: 9,
            offset: 0,
            payload: 9,
            prio: 0,
            unscheduled: true,
            retransmit: false,
            incast_mark: false,
            tag: 0,
        });
        let (p, q) = (PeerId(5), PeerId(6));
        let mut staged = Vec::new();
        let merged: Vec<bool> = [
            (p, grant(1, 3_000, 2, Some(8))),
            (p, resend.clone()),
            (p, grant(1, 5_000, 4, None)), // merges: larger offset, newer prio
            (p, grant(2, 1_000, 1, None)), // another message
            (q, grant(1, 9_000, 6, None)), // another peer
            (p, busy.clone()),
            (p, grant(1, 4_000, 3, None)), // merges: a smaller offset never shrinks the window
            (p, cutoffs.clone()),
            (p, data.clone()),
            (p, data.clone()), // DATA is never merged
            (q, grant(1, 9_500, 5, Some(11))),
            (q, grant(1, 9_900, 5, Some(12))), // merges: both carry cutoffs, the newer wins
        ]
        .into_iter()
        .map(|(dst, pkt)| stage(&mut staged, dst, pkt))
        .collect();
        let t = true;
        assert_eq!(merged, [false, false, t, false, false, false, t, false, false, false, t, t]);
        // Everything else passes through, in order; the older grant's
        // cutoffs survive two merges with grants that carry none.
        assert_eq!(
            staged,
            [
                (p, grant(1, 5_000, 3, Some(8))),
                (p, resend),
                (p, grant(2, 1_000, 1, None)),
                (q, grant(1, 9_900, 5, Some(12))),
                (p, busy),
                (p, cutoffs),
                (p, data.clone()),
                (p, data),
            ]
        );
    }

    #[test]
    fn a_slow_receiver_answers_a_burst_of_data_with_one_grant() {
        use std::sync::atomic::AtomicU64;
        let (a, b) = pair();
        let (data_seen, grants_seen) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        // 200 us per DATA packet at the receiver: the sender's window
        // queues up on the socket behind the packet being handled.
        let n = Arc::clone(&data_seen);
        b.set_rx_drop_filter(move |p| {
            if matches!(p, HomaPacket::Data(_)) {
                n.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
            }
            false
        });
        let n = Arc::clone(&grants_seen);
        a.set_rx_drop_filter(move |p| {
            if matches!(p, HomaPacket::Grant(_)) {
                n.fetch_add(1, Ordering::Relaxed);
            }
            false
        });
        let payload: Vec<u8> = (0..256 * 1024u32).map(|i| (i * 31 % 251) as u8).collect();
        a.send_message(PeerId(1), payload.clone(), 4).unwrap();
        match b.events().recv_timeout(Duration::from_secs(20)).unwrap() {
            UdpEvent::Message { data, .. } => assert_eq!(data, payload),
            other => panic!("unexpected {other:?}"),
        }
        let (data, grants) =
            (data_seen.load(Ordering::Relaxed), grants_seen.load(Ordering::Relaxed));
        assert!(grants * 2 < data, "{grants} GRANT datagrams answered {data} DATA packets");
        let sum = b.run_summary();
        assert!(sum.grants_merged > 0 && sum.rx_drained > 0, "nothing merged: {sum}");
        a.shutdown();
        b.shutdown();
    }

    /// A valid encoding of each packet kind in turn, `msg_len` at most 1 MiB.
    fn valid_datagram(rng: &mut homa_harness::SplitMix64, me: PeerId) -> Vec<u8> {
        use homa::packets::{BusyHeader, CutoffsUpdate, DataHeader, GrantHeader, ResendHeader};
        let key = MsgKey {
            // Half the keys claim to be about the node's own RPCs.
            origin: if rng.below(2) == 0 { me } else { PeerId(rng.below(4) as u32) },
            seq: rng.below(64),
            dir: [Dir::Request, Dir::Response, Dir::Oneway][rng.below(3) as usize],
        };
        let msg_len = 1 + rng.below(1 << 20);
        let cutoffs = CutoffsUpdate {
            version: rng.below(8),
            unsched_levels: 1 + rng.below(7) as u8,
            cutoffs: (0..rng.below(8)).map(|_| rng.below(1 << 20)).collect(),
        };
        let mut payload = Vec::new();
        let pkt = match rng.below(5) {
            0 => {
                let offset = rng.below(msg_len);
                payload = vec![0xEE; rng.below((msg_len - offset).min(1_400) + 1) as usize];
                HomaPacket::Data(DataHeader {
                    key,
                    msg_len,
                    offset,
                    payload: payload.len() as u32,
                    prio: rng.below(8) as u8,
                    unscheduled: rng.below(2) == 0,
                    retransmit: rng.below(2) == 0,
                    incast_mark: rng.below(2) == 0,
                    tag: rng.next_u64(),
                })
            }
            1 => HomaPacket::Grant(GrantHeader {
                key,
                offset: rng.below(msg_len),
                prio: rng.below(8) as u8,
                cutoffs: (rng.below(2) == 0).then_some(cutoffs),
            }),
            2 => HomaPacket::Resend(ResendHeader {
                key,
                offset: rng.below(msg_len),
                length: rng.below(msg_len),
                prio: rng.below(8) as u8,
            }),
            3 => HomaPacket::Busy(BusyHeader { key }),
            _ => HomaPacket::Cutoffs(cutoffs),
        };
        homa_wire::encode(&pkt, &payload)
    }

    #[test]
    fn hostile_datagrams_leave_the_node_serving_and_its_buffers_empty() {
        // A short resend interval, so that the abort window (five
        // unanswered RESENDs) of whatever the junk started passes quickly.
        let (a, b) = pair_with(UdpConfig {
            homa: HomaConfig { resend_interval_ns: 2_000_000, ..HomaConfig::default() },
            ..UdpConfig::default()
        });
        // A registered peer whose socket we drive by hand.
        let rogue = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        b.add_peer(PeerId(2), rogue.local_addr().unwrap());
        let mut rng = homa_harness::SplitMix64::new(0x5eed_0bad);
        for i in 0..2_000u32 {
            let mut dgram = valid_datagram(&mut rng, PeerId(1));
            match rng.below(4) {
                0 => dgram = (0..rng.below(200)).map(|_| rng.next_u64() as u8).collect(),
                1 => {
                    let bit = rng.below(dgram.len() as u64 * 8) as usize;
                    dgram[bit / 8] ^= 1 << (bit % 8);
                }
                2 => dgram.truncate(rng.below(dgram.len() as u64) as usize),
                _ => {}
            }
            rogue.send_to(&dgram, b.local_addr().unwrap()).unwrap();
            // Let the node keep up: a full socket buffer would shed the rest.
            if i % 64 == 63 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // The driver thread survived them all: an echo RPC still completes.
        // Junk that happened to be a whole message surfaces first.
        a.call(PeerId(1), vec![0x42; 30_000], 9).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match b.events().recv_timeout(left).expect("server went deaf") {
                UdpEvent::Request { from: PeerId(0), rpc, data } => {
                    b.respond(PeerId(0), rpc, data).unwrap();
                    break;
                }
                _ => continue,
            }
        }
        match a.events().recv_timeout(Duration::from_secs(10)).expect("no echo") {
            UdpEvent::Response { tag, data, .. } => {
                assert_eq!(tag, 9);
                assert_eq!(data, vec![0x42; 30_000]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Once the abort window has passed, nothing the junk started is
        // still holding a reassembly buffer.
        let deadline = Instant::now() + Duration::from_secs(10);
        while b.run_summary().in_buffers > 0 {
            assert!(Instant::now() < deadline, "buffers never freed: {}", b.run_summary());
            std::thread::sleep(Duration::from_millis(10));
        }
        // ... and most of the junk did reach it (a full socket buffer sheds).
        assert!(b.run_summary().datagrams_rx >= 1_000, "junk was shed: {}", b.run_summary());
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn dscp_mapping() {
        assert_eq!(priority_to_dscp(0), 0);
        assert_eq!(priority_to_dscp(7), 56);
        assert_eq!(priority_to_dscp(99), 56);
    }
}
