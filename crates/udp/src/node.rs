//! The threaded UDP driver around the node's core: the socket, the clock,
//! the lock and the thread. The crate docs say what one driver turn is, why
//! its drain is gated and what a merged GRANT costs.

use crate::node_core::{NodeCore, Open, SEGMENT};
use homa::packets::{HomaPacket, PeerId};
use homa::HomaConfig;
use std::cell::RefCell;
use std::collections::VecDeque;
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

/// Most datagrams in one send: the kernel's `UDP_MAX_SEGMENTS` (64), and no
/// more than fit in the largest UDP payload over IPv4 (65,507 bytes): 45.
const MAX_SEGMENTS: usize = if 65_507 / SEGMENT < 64 { 65_507 / SEGMENT } else { 64 };

/// Most datagrams one driver turn handles, drain included, before it pumps:
/// one lock hold. Seven packets a message are in flight (`RTT_BYTES`). A
/// read is never split across turns, so a turn whose last read is a
/// coalesced one may handle up to `MAX_SEGMENTS` − 1 more.
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
    /// Datagrams (segments) read from the socket, undecodable and filtered
    /// included: a coalesced read counts each datagram it holds.
    pub datagrams_rx: u64,
    /// Receive system calls that carried them: one per coalesced send of a
    /// peer once the node reads with `UDP_GRO`, else one each.
    pub rx_reads: u64,
    /// Reads the kernel flagged truncated, dropped whole and counted here
    /// only.
    pub rx_truncated: u64,
    /// Datagrams handed to the kernel, lost ones included.
    pub datagrams_tx: u64,
    /// Send system calls that carried them: one per run of full-size DATA
    /// datagrams to one peer while segmentation offload works, else one each.
    pub tx_sends: u64,
    /// Driver turns: one per blocking read that returned something.
    pub rx_turns: u64,
    /// Of `datagrams_rx`, those a turn's non-blocking drain read.
    pub rx_drained: u64,
    /// GRANTs folded into an earlier GRANT of the same transmit batch.
    pub grants_merged: u64,
    /// Datagrams whose send failed: packets lost before the wire.
    pub tx_errors: u64,
}

impl std::fmt::Display for RunSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self { datagrams_rx: rx, rx_reads, rx_truncated, rx_turns, rx_drained, .. } = self;
        let Self { events_queued: queued, events_dropped: shed, out_payloads, in_buffers, .. } =
            self;
        let Self { datagrams_tx: tx, tx_sends, tx_errors, grants_merged, .. } = self;
        write!(
            f,
            "node {}: {queued} events queued, {shed} dropped (channel overflow), {out_payloads} \
             out-payloads retained, {in_buffers} in-buffers; rx {rx} in {rx_reads} reads \
             ({rx_turns} turns, {rx_drained} drained, {rx_truncated} truncated reads dropped), \
             tx {tx} in {tx_sends} sends ({tx_errors} errors, {grants_merged} grants merged)",
            self.peer.0
        )
    }
}

thread_local! {
    /// This thread's transmit arena, reused by every `pump`: datagrams back
    /// to back, and each one's address and end.
    #[allow(clippy::type_complexity)]
    static TX: RefCell<(Vec<u8>, Vec<(SocketAddr, usize)>)> = RefCell::default();
}

/// How many datagrams of `spans` (each `(address, end)` in the arena, the
/// first starting at `start`) one send carries when the kernel cuts sends
/// into `segment`-byte datagrams: the longest run to one address in which
/// every datagram but the last is exactly `segment` bytes, at most
/// [`MAX_SEGMENTS`]. The kernel then cuts the run back into the very same
/// datagrams. With `segment` 0, no segmentation, a run is one datagram.
fn run_len(spans: &[(SocketAddr, usize)], start: usize, segment: usize) -> usize {
    let Some(&(addr, _)) = spans.first() else { return 0 };
    let (mut len, mut from) = (0, start);
    for &(to, end) in spans.iter().take(MAX_SEGMENTS) {
        if to != addr {
            break;
        }
        len += 1;
        if end - from != segment {
            break;
        }
        from = end;
    }
    len
}

/// Send the datagrams of `bytes` that `spans` delimit, each [`run_len`] run
/// in one `send` while `coalesce` holds. A send made while it held that the
/// kernel refuses for its segmentation ([`refuses_segmentation`]), a single
/// GRANT's included, clears `coalesce`, has `unsegment` turn the socket's
/// segmentation off, and goes again one datagram at a time, as do all later
/// sends: the refusal is a property of the path, and every retransmission
/// would be refused too. Any other failure loses the run's datagrams and
/// leaves `coalesce` alone: one unreachable peer must not cost the others
/// their segmentation. Returns the sends made and the datagrams lost.
///
/// [`refuses_segmentation`]: crate::sys::refuses_segmentation
fn transmit(
    bytes: &[u8],
    spans: &[(SocketAddr, usize)],
    coalesce: &AtomicBool,
    mut send: impl FnMut(&[u8], SocketAddr) -> io::Result<usize>,
    unsegment: impl Fn(),
) -> (u64, u64) {
    let (mut sends, mut lost, mut at, mut start) = (0, 0, 0, 0);
    while at < spans.len() {
        let segmented = coalesce.load(Ordering::Relaxed);
        let len = run_len(&spans[at..], start, if segmented { SEGMENT } else { 0 });
        let (addr, end) = spans[at + len - 1];
        sends += 1;
        match send(&bytes[start..end], addr) {
            Ok(_) => {}
            // The flag is down once this arm has run, so a span goes again
            // at most once. A run another thread planned before it fell goes
            // out as one datagram, whose first packet alone the receiver
            // reads, and a send made before that thread's `unsegment` is
            // refused: losses the protocol recovers.
            Err(e) if segmented && crate::sys::refuses_segmentation(&e) => {
                if coalesce.swap(false, Ordering::Relaxed) {
                    unsegment();
                }
                continue;
            }
            // A failed send is lost packets, which the protocol recovers.
            Err(_) => lost += len as u64,
        }
        (at, start) = (at + len, end);
    }
    (sends, lost)
}

/// One Homa endpoint bound to a UDP socket, serviced by a background
/// thread.
pub struct HomaUdpNode {
    socket: UdpSocket,
    core: Mutex<NodeCore>,
    events: EventQueue,
    /// Events the full queue refused (the driver's `WouldBlock`
    /// backpressure signal).
    events_dropped: AtomicU64,
    /// Send system calls made, as [`RunSummary::tx_sends`] reports them.
    tx_sends: AtomicU64,
    /// Whether sends coalesce runs of full-size DATA datagrams: the socket
    /// took `UDP_SEGMENT` at bind, and the kernel has refused no send for it
    /// since.
    coalesce: AtomicBool,
    /// Whether the socket was asked for `UDP_GRO`, once, at the first
    /// full-size datagram it read: from then on a peer's coalesced send
    /// arrives as one read. The crate docs say why not at `bind`.
    gro: AtomicBool,
    stop: AtomicBool,
}

impl HomaUdpNode {
    /// Bind a node with identity `me` to `addr` and start its driver
    /// thread.
    pub fn bind<A: ToSocketAddrs>(me: PeerId, addr: A, cfg: UdpConfig) -> io::Result<Arc<Self>> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_read_timeout(Some(POLL_INTERVAL))?;
        let coalesce = crate::sys::set_udp_segment(&socket, SEGMENT as u16).is_ok();
        let node = Arc::new(HomaUdpNode {
            socket,
            core: Mutex::new(NodeCore::new(me, cfg.homa)),
            events: EventQueue::new(cfg.event_channel_cap),
            events_dropped: AtomicU64::new(0),
            tx_sends: AtomicU64::new(0),
            coalesce: AtomicBool::new(coalesce),
            gro: AtomicBool::new(false),
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

    /// The one way to the core. Poison is ignored: a panic in an
    /// application thread, or in the test hook a driver runs, must not stop
    /// every other thread of the node at its next `unwrap`.
    fn lock(&self) -> MutexGuard<'_, NodeCore> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register a peer's address.
    pub fn add_peer(&self, peer: PeerId, addr: SocketAddr) {
        self.lock().add_peer(peer, addr);
    }

    /// Install a receive-side drop filter (test hook for loss injection).
    pub fn set_rx_drop_filter(&self, f: impl FnMut(&HomaPacket) -> bool + Send + 'static) {
        self.lock().rx_drop = Some(Box::new(f));
    }

    /// What `send_message`, `call` and `respond` share: the core opens the
    /// message under one lock take, then the caller transmits.
    fn start(&self, peer: PeerId, data: Vec<u8>, open: Open) -> io::Result<u64> {
        let seq = self.lock().start(now_ns(), peer, data, open)?;
        self.pump();
        Ok(seq)
    }

    /// Send a one-way message.
    pub fn send_message(&self, dst: PeerId, data: Vec<u8>, tag: u64) -> io::Result<u64> {
        self.start(dst, data, Open::Message { tag })
    }

    /// Issue an RPC; the response arrives as [`UdpEvent::Response`] with
    /// `tag`.
    pub fn call(&self, server: PeerId, request: Vec<u8>, tag: u64) -> io::Result<u64> {
        self.start(server, request, Open::Call { tag })
    }

    /// Respond to an RPC surfaced via [`UdpEvent::Request`].
    pub fn respond(&self, client: PeerId, rpc: u64, response: Vec<u8>) -> io::Result<()> {
        self.start(client, response, Open::Response { rpc }).map(drop)
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
            tx_sends: self.tx_sends.load(Ordering::Relaxed),
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

    /// Stop the driver thread. It holds the node until it stops, so a node
    /// that is never shut down serves until the process exits.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Transmit what the endpoint has ready: encoded into this thread's
    /// arena under the lock ([`NodeCore::poll`]), sent with no lock held by
    /// [`transmit`]. Driver and application threads all send here.
    fn pump(&self) {
        TX.with_borrow_mut(|(bytes, spans)| {
            self.lock().poll(now_ns(), bytes, spans);
            let (sends, lost) = transmit(
                bytes,
                spans,
                &self.coalesce,
                |dgram, addr| self.socket.send_to(dgram, addr),
                // Should even this fail, single sends fail too and are lost.
                || {
                    let _ = crate::sys::set_udp_segment(&self.socket, 0);
                },
            );
            self.tx_sends.fetch_add(sends, Ordering::Relaxed);
            if lost > 0 {
                self.lock().sum.tx_errors += lost;
            }
        });
    }

    fn run(self: Arc<Self>) {
        use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
        let mut buf = vec![0u8; 64 * 1024];
        let mut last_tick = Instant::now();
        while !self.stop.load(Ordering::SeqCst) {
            match crate::sys::recv(&self.socket, &mut buf, false) {
                Ok(read) => self.rx_turn(&mut buf, read),
                // A timeout or a signal: nothing arrived, the node lives.
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
                Err(_) => break,
            }
            if last_tick.elapsed() >= POLL_INTERVAL {
                last_tick = Instant::now();
                let mut s = self.lock();
                s.tick(now_ns());
                self.deliver(&mut s);
            }
            self.pump();
        }
    }

    /// The receive half of a turn, under one lock take: the read just made
    /// into `buf` and, if the endpoint now has something to send, what else
    /// the socket already holds, read without waiting until a read finds
    /// nothing or the turn has handled [`RX_BATCH`] datagrams. A read the
    /// kernel truncated is dropped whole: its last datagrams are missing, or
    /// cut short. The first full-size datagram turns `UDP_GRO` on, or if the
    /// kernel refuses, leaves reads one datagram each for good.
    fn rx_turn(&self, buf: &mut [u8], first: crate::sys::Read) {
        let on_read = |s: &mut NodeCore, buf: &[u8], read: crate::sys::Read| {
            if read.truncated {
                s.sum.rx_truncated += 1;
                return 0;
            }
            if read.len == SEGMENT && !self.gro.swap(true, Ordering::Relaxed) {
                let _ = crate::sys::set_udp_gro(&self.socket);
            }
            s.on_read(now_ns(), read.from, &buf[..read.len], read.segment)
        };
        let mut s = self.lock();
        s.sum.rx_turns += 1;
        let mut handled = on_read(&mut s, buf, first);
        if s.ep.has_pending_tx() {
            while handled < RX_BATCH {
                let Ok(read) = crate::sys::recv(&self.socket, buf, true) else { break };
                let n = on_read(&mut s, buf, read);
                s.sum.rx_drained += n as u64;
                // A truncated read counts as one, so that the drain ends.
                handled += n.max(1);
            }
        }
        self.deliver(&mut s);
    }

    /// Queue the core's events for the application, never waiting: one the
    /// full queue refuses is dropped and counted, not held without bound.
    fn deliver(&self, s: &mut NodeCore) {
        for ev in s.take_events() {
            if !self.events.push(ev) {
                self.events_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
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
    use crate::node_core::{split_read, stage, MAX_MSG_LEN};
    use homa::packets::{Dir, MsgKey};
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

    fn grant(seq: u64, offset: u64, prio: u8) -> HomaPacket {
        use homa::packets::GrantHeader;
        HomaPacket::Grant(GrantHeader {
            key: MsgKey { origin: PeerId(0), seq, dir: Dir::Oneway },
            offset,
            prio,
            cutoffs: None,
        })
    }

    #[test]
    fn stage_merges_grants_of_one_message_and_nothing_else() {
        use homa::packets::{BusyHeader, DataHeader, ResendHeader};
        let key = MsgKey { origin: PeerId(0), seq: 1, dir: Dir::Oneway };
        let resend = HomaPacket::Resend(ResendHeader { key, offset: 0, length: 9, prio: 7 });
        let busy = HomaPacket::Busy(BusyHeader { key });
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
            (p, grant(1, 3_000, 2)),
            (p, resend.clone()),
            (p, grant(1, 5_000, 4)), // merges: larger offset, newer prio
            (p, grant(2, 1_000, 1)), // another message
            (q, grant(1, 9_000, 6)), // another peer
            (p, busy.clone()),
            (p, grant(1, 4_000, 3)), // merges: a smaller offset never shrinks the window
            (p, data.clone()),
            (p, data.clone()), // DATA is never merged
            (q, grant(1, 9_900, 5)),
        ]
        .into_iter()
        .map(|(dst, pkt)| stage(&mut staged, dst, pkt))
        .collect();
        let t = true;
        assert_eq!(merged, [false, false, t, false, false, false, t, false, false, t]);
        // Everything else passes through, in order.
        assert_eq!(
            staged,
            [
                (p, grant(1, 5_000, 3)),
                (p, resend),
                (p, grant(2, 1_000, 1)),
                (q, grant(1, 9_900, 5)),
                (p, busy),
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
        let pkt = match rng.below(4) {
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
            _ => HomaPacket::Busy(BusyHeader { key }),
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

    /// `(address, end)` spans of datagrams of the given lengths, back to back.
    fn spans(datagrams: &[(SocketAddr, usize)]) -> Vec<(SocketAddr, usize)> {
        let mut end = 0;
        datagrams
            .iter()
            .map(|&(addr, len)| {
                end += len;
                (addr, end)
            })
            .collect()
    }

    /// The run lengths `pump` sends `spans` in, given the segment size.
    fn runs(spans: &[(SocketAddr, usize)], segment: usize) -> Vec<usize> {
        let (mut out, mut at, mut start) = (Vec::new(), 0, 0);
        while at < spans.len() {
            let len = run_len(&spans[at..], start, segment);
            out.push(len);
            (at, start) = (at + len, spans[at + len - 1].1);
        }
        out
    }

    fn addrs() -> (SocketAddr, SocketAddr) {
        ("127.0.0.1:7000".parse().unwrap(), "127.0.0.1:7001".parse().unwrap())
    }

    /// A GRANT as the node sends every one: no cutoffs.
    const GRANT: usize = homa_wire::HEADER_LEN + 9;

    #[test]
    fn full_size_datagrams_to_one_peer_coalesce_up_to_the_cap() {
        let (p, _) = addrs();
        assert_eq!(MAX_SEGMENTS, 45);
        assert_eq!(runs(&spans(&[(p, SEGMENT); 100]), SEGMENT), [45, 45, 10]);
        // With no segmentation every datagram is its own send.
        assert_eq!(runs(&spans(&[(p, SEGMENT); 3]), 0), [1, 1, 1]);
    }

    #[test]
    fn a_short_datagram_ends_a_run_as_its_last_segment() {
        let (p, _) = addrs();
        let d = [(p, SEGMENT), (p, SEGMENT), (p, 500), (p, SEGMENT), (p, SEGMENT - 1), (p, 1)];
        assert_eq!(runs(&spans(&d), SEGMENT), [3, 2, 1]);
        // One byte too long is not a segment either.
        assert_eq!(runs(&spans(&[(p, SEGMENT + 1), (p, SEGMENT)]), SEGMENT), [1, 1]);
    }

    #[test]
    fn a_change_of_address_ends_a_run() {
        let (p, q) = addrs();
        let d = [(p, SEGMENT), (p, SEGMENT), (q, SEGMENT), (q, 700), (p, SEGMENT), (q, SEGMENT)];
        assert_eq!(runs(&spans(&d), SEGMENT), [2, 2, 1, 1]);
    }

    #[test]
    fn a_grant_is_never_followed_by_another_datagram_in_one_send() {
        let (p, _) = addrs();
        let d = [(p, GRANT), (p, SEGMENT), (p, SEGMENT), (p, GRANT), (p, GRANT), (p, SEGMENT)];
        assert_eq!(runs(&spans(&d), SEGMENT), [1, 3, 1, 1]);
    }

    /// Datagrams, each with its address.
    type Datagrams = Vec<(SocketAddr, Vec<u8>)>;

    /// The datagrams `spans` delimit in `bytes`.
    fn datagrams(bytes: &[u8], spans: &[(SocketAddr, usize)]) -> Datagrams {
        let mut start = 0;
        spans
            .iter()
            .map(|&(addr, end)| (addr, bytes[std::mem::replace(&mut start, end)..end].to_vec()))
            .collect()
    }

    /// `transmit` over a fake kernel on a path whose MTU is below a segment:
    /// while the socket segments, every send is refused with EINVAL, however
    /// short; once `unsegment` has run, every send goes out. Returns the
    /// result, the datagrams sent and the `unsegment` calls.
    fn over_a_small_mtu(
        bytes: &[u8],
        spans: &[(SocketAddr, usize)],
        coalesce: &AtomicBool,
    ) -> ((u64, u64), Datagrams, u64) {
        let (segmenting, unsegmented) =
            (AtomicBool::new(coalesce.load(Ordering::Relaxed)), AtomicU64::new(0));
        let mut sent = Vec::new();
        let send = |dgram: &[u8], addr: SocketAddr| {
            if segmenting.load(Ordering::Relaxed) {
                return Err(io::Error::from_raw_os_error(crate::sys::EINVAL));
            }
            sent.push((addr, dgram.to_vec()));
            Ok(dgram.len())
        };
        let unsegment = || {
            segmenting.store(false, Ordering::Relaxed);
            unsegmented.fetch_add(1, Ordering::Relaxed);
        };
        let result = transmit(bytes, spans, coalesce, send, unsegment);
        (result, sent, unsegmented.load(Ordering::Relaxed))
    }

    #[test]
    fn a_refused_coalesced_send_goes_again_one_datagram_at_a_time() {
        let (p, q) = addrs();
        let d = spans(&[(p, SEGMENT), (p, SEGMENT), (p, 9), (q, GRANT), (q, SEGMENT), (q, 30)]);
        let bytes: Vec<u8> = (0..d.last().unwrap().1).map(|i| i as u8).collect();
        let coalesce = AtomicBool::new(true);
        // One refused send of three, then six single ones: nothing lost.
        let (result, sent, unsegmented) = over_a_small_mtu(&bytes, &d, &coalesce);
        assert_eq!((result, unsegmented), ((7, 0), 1));
        assert!(!coalesce.load(Ordering::Relaxed));
        assert_eq!(sent, datagrams(&bytes, &d));
        // Later batches are not coalesced: the refusal is the path's.
        let (result, sent, unsegmented) = over_a_small_mtu(&bytes, &d, &coalesce);
        assert_eq!((result, unsegmented), ((6, 0), 0));
        assert_eq!(sent, datagrams(&bytes, &d));
        // With the flag down, the same error is a loss, not another try.
        let refused = |_: &[u8], _| Err(io::Error::from_raw_os_error(crate::sys::EMSGSIZE));
        assert_eq!(transmit(&bytes, &d, &coalesce, refused, || panic!("reset twice")), (6, 6));
    }

    #[test]
    fn a_node_that_sends_only_grants_falls_back_too() {
        // The kernel refuses a GRANT on a segmenting socket as it refuses a
        // run: a receiver that never coalesces must still turn it off.
        let (p, q) = addrs();
        let d = spans(&[(p, GRANT), (p, GRANT), (q, GRANT + 8)]);
        let bytes: Vec<u8> = (0..d.last().unwrap().1).map(|i| (i * 3) as u8).collect();
        let coalesce = AtomicBool::new(true);
        let (result, sent, unsegmented) = over_a_small_mtu(&bytes, &d, &coalesce);
        assert_eq!((result, unsegmented), ((4, 0), 1));
        assert!(!coalesce.load(Ordering::Relaxed));
        assert_eq!(sent, datagrams(&bytes, &d));
    }

    #[test]
    fn a_send_failing_for_another_reason_loses_its_run_and_keeps_coalescing() {
        let (p, q) = addrs();
        let d = spans(&[(p, SEGMENT), (p, SEGMENT), (p, 9), (q, GRANT), (p, GRANT)]);
        let bytes: Vec<u8> = (0..d.last().unwrap().1).map(|i| i as u8).collect();
        let coalesce = AtomicBool::new(true);
        // ENETUNREACH to `p`, EPERM (a firewall) on the GRANT to `p`.
        let mut sent = Vec::new();
        let mut fails = [101, 1].into_iter();
        let send = |dgram: &[u8], addr: SocketAddr| {
            if addr == p {
                return Err(io::Error::from_raw_os_error(fails.next().unwrap()));
            }
            sent.push((addr, dgram.to_vec()));
            Ok(dgram.len())
        };
        // The run of three is one send and three losses; `q`'s GRANT goes out.
        let result = transmit(&bytes, &d, &coalesce, send, || panic!("segmentation turned off"));
        assert_eq!(result, (3, 4));
        assert!(coalesce.load(Ordering::Relaxed));
        assert_eq!(sent, datagrams(&bytes, &d)[3..4]);
    }

    #[test]
    fn a_coalesced_read_splits_into_the_datagrams_sent() {
        const FAMILY: homa_harness::FuzzFamily = homa_harness::FuzzFamily::new("udp-split");
        FAMILY.check_seeds("a_coalesced_read_splits_into_the_datagrams_sent", |rng| {
            let segment = rng.edge_range(1, SEGMENT as u64) as usize;
            let full = rng.edge_range(0, MAX_SEGMENTS as u64 - 1) as usize;
            let last = rng.edge_range(1, segment as u64) as usize;
            let mut bytes = |n: usize| (0..n).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>();
            let mut sent: Vec<Vec<u8>> = (0..full).map(|_| bytes(segment)).collect();
            sent.push(bytes(last));
            let read = sent.concat();
            let split = split_read(&read, segment);
            assert!(split.eq(sent.iter().map(Vec::as_slice)), "{full} x {segment} + {last} bytes");
        });
        // With no segment size a read is one datagram, and so is an empty one.
        let one = |read: &[u8], segment| -> Vec<Vec<u8>> {
            split_read(read, segment).map(<[u8]>::to_vec).collect()
        };
        assert_eq!(one(&[1, 2, 3], 0), [vec![1, 2, 3]]);
        assert_eq!(one(&[], 0), [vec![]]);
        assert_eq!(one(&[], SEGMENT), [vec![]]);
    }

    #[test]
    fn gro_waits_for_the_first_full_size_datagram_at_its_receiver() {
        let (a, b) = pair();
        let gro = |n: &HomaUdpNode| n.gro.load(Ordering::Relaxed);
        for i in 0..100u64 {
            a.call(PeerId(1), vec![i as u8; 64], i).unwrap();
            match b.events().recv_timeout(Duration::from_secs(5)).unwrap() {
                UdpEvent::Request { from, rpc, data } => b.respond(from, rpc, data).unwrap(),
                other => panic!("unexpected {other:?}"),
            }
            match a.events().recv_timeout(Duration::from_secs(5)).unwrap() {
                UdpEvent::Response { tag, .. } => assert_eq!(tag, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(!gro(&a) && !gro(&b), "64-byte RPCs turned GRO on");
        // 1,400 + 1,400 + 1,400 + 800 bytes: three full-size datagrams.
        a.send_message(PeerId(1), vec![3; 5_000], 7).unwrap();
        match b.events().recv_timeout(Duration::from_secs(5)).unwrap() {
            UdpEvent::Message { data, .. } => assert_eq!(data, vec![3; 5_000]),
            other => panic!("unexpected {other:?}"),
        }
        assert!(gro(&b), "the receiver read full-size DATA and did not turn GRO on");
        assert!(!gro(&a), "the sender read none and turned GRO on");
        a.shutdown();
        b.shutdown();
    }

    /// Core `i`'s address on the in-memory wire.
    fn addr(i: usize) -> SocketAddr {
        SocketAddr::from(([10, 0, 0, 1 + i as u8], 4_000))
    }

    /// Virtual time one round of the in-memory wire takes.
    const ROUND_NS: u64 = 10_000;

    /// Virtual time a script waits for an event before it gives up.
    const PATIENCE_NS: u64 = 10_000_000_000;

    /// Two cores, `PeerId(0)` and `PeerId(1)`, joined by an in-memory wire
    /// on a virtual clock: no socket, no thread, no timing luck. Each send
    /// arrives whole as one read, as a segmented send does at a `UDP_GRO`
    /// socket.
    struct TwoCores {
        cores: [NodeCore; 2],
        now: u64,
        /// Every send, with its sender's index, in order.
        wire: Vec<(usize, Vec<u8>)>,
        /// The events each core raised and no script has taken yet.
        events: [Vec<UdpEvent>; 2],
    }

    impl TwoCores {
        fn new(homa: HomaConfig) -> Self {
            let cores = [0, 1].map(|i| {
                let mut core = NodeCore::new(PeerId(i as u32), homa.clone());
                core.add_peer(PeerId(1 - i as u32), addr(1 - i));
                core
            });
            TwoCores { cores, now: 0, wire: Vec::new(), events: Default::default() }
        }

        /// One round: each core in turn transmits what it has, which the
        /// other reads at once; then the clock moves on, and every
        /// `POLL_INTERVAL` both cores tick.
        fn round(&mut self) {
            let (mut bytes, mut spans) = (Vec::new(), Vec::new());
            for i in 0..2 {
                self.cores[i].poll(self.now, &mut bytes, &mut spans);
                let mut sends = Vec::new();
                let send = |dgram: &[u8], _| {
                    sends.push(dgram.to_vec());
                    Ok(dgram.len())
                };
                transmit(&bytes, &spans, &AtomicBool::new(true), send, || {});
                for read in sends {
                    let rx = &mut self.cores[1 - i];
                    rx.on_read(self.now, addr(i), &read, SEGMENT);
                    self.events[1 - i].extend(rx.take_events());
                    self.wire.push((i, read));
                }
            }
            self.now += ROUND_NS;
            if self.now % POLL_INTERVAL.as_nanos() as u64 == 0 {
                for (core, events) in self.cores.iter_mut().zip(&mut self.events) {
                    core.tick(self.now);
                    events.extend(core.take_events());
                }
            }
        }

        /// Run rounds until core `i` has raised an event `want` takes, and
        /// take it; `None` once `limit_ns` of virtual time has passed.
        fn until(
            &mut self,
            i: usize,
            limit_ns: u64,
            want: impl Fn(&UdpEvent) -> bool,
        ) -> Option<UdpEvent> {
            let deadline = self.now + limit_ns;
            loop {
                if let Some(at) = self.events[i].iter().position(&want) {
                    return Some(self.events[i].remove(at));
                }
                if self.now >= deadline {
                    return None;
                }
                self.round();
            }
        }

        /// An echo RPC of `len` bytes from core 0 to core 1, checked whole
        /// both ways.
        fn echo(&mut self, len: usize) {
            let request: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let call = Open::Call { tag: len as u64 };
            self.cores[0].start(self.now, PeerId(1), request.clone(), call).unwrap();
            let got = self.until(1, PATIENCE_NS, |e| matches!(e, UdpEvent::Request { .. }));
            let Some(UdpEvent::Request { from, rpc, data }) = got else { panic!("no request") };
            assert!(data == request, "the {len}-byte request differs");
            self.cores[1].start(self.now, from, data, Open::Response { rpc }).unwrap();
            let got = self.until(0, PATIENCE_NS, |e| matches!(e, UdpEvent::Response { .. }));
            let Some(UdpEvent::Response { tag, data, .. }) = got else { panic!("no response") };
            assert_eq!(tag, len as u64);
            assert!(data == request, "the {len}-byte response differs");
        }

        /// Both cores' counters, with the buffers each holds.
        fn summaries(&self) -> [RunSummary; 2] {
            self.cores.each_ref().map(|c| RunSummary {
                out_payloads: c.out_payloads.len(),
                in_buffers: c.in_buffers.len(),
                ..c.sum.clone()
            })
        }
    }

    /// 256 KiB, and a size typical of W2 (mean request 300–700 bytes).
    const SIZES: [usize; 2] = [256 * 1024, 500];

    #[test]
    fn two_cores_complete_echo_rpcs_without_a_socket_and_free_their_buffers() {
        let mut t = TwoCores::new(UdpConfig::default().homa);
        for len in SIZES {
            t.echo(len);
        }
        // A few ticks later, both sweeps have left nothing behind.
        assert_eq!(t.until(0, 5 * POLL_INTERVAL.as_nanos() as u64, |_| true), None);
        let [client, server] = t.summaries();
        assert_eq!((client.out_payloads, client.in_buffers), (0, 0), "{client}");
        assert_eq!((server.out_payloads, server.in_buffers), (0, 0), "{server}");
        assert!(server.grants_merged > 0, "a window read in one round, one GRANT: {server}");
        assert_grants_are_bare(&t);
    }

    /// A retransmission read after the packet that completes a request, but
    /// before the request's event is taken, starts the request anew at the
    /// endpoint (§3.8's re-execution). Both copies must arrive whole: the
    /// retransmitted bytes belong in the second copy's buffer, not in the
    /// one the first copy's event takes.
    #[test]
    fn a_retransmission_read_beside_the_completing_packet_leaves_both_requests_whole() {
        let mut t = TwoCores::new(UdpConfig::default().homa);
        let len = 2 * homa::config::MAX_PAYLOAD as usize;
        let request: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        t.cores[0].start(0, PeerId(1), request.clone(), Open::Call { tag: 1 }).unwrap();
        let (mut bytes, mut spans) = (Vec::new(), Vec::new());
        t.cores[0].poll(0, &mut bytes, &mut spans);
        let [(_, cut), (_, end)] = spans[..] else { panic!("two DATA packets: {spans:?}") };
        let (first, second) = (&bytes[..cut], &bytes[cut..end]);
        for dgram in [first, second, first] {
            t.cores[1].on_read(0, addr(0), dgram, 0);
        }
        t.events[1].extend(t.cores[1].take_events());
        let mut requests = Vec::new();
        while let Some(UdpEvent::Request { data, .. }) =
            t.until(1, 100_000_000, |e| matches!(e, UdpEvent::Request { .. }))
        {
            requests.push(data);
        }
        assert_eq!(requests.len(), 2, "the retransmission started no second request");
        for data in requests {
            let at = data.iter().zip(&request).position(|(a, b)| a != b);
            assert!(data == request, "a request differs from byte {at:?}");
        }
    }

    #[test]
    fn the_same_script_twice_gives_equal_counters_and_equal_datagram_bytes() {
        let run = || {
            let mut t = TwoCores::new(UdpConfig::default().homa);
            SIZES.into_iter().for_each(|len| t.echo(len));
            (t.summaries(), t.wire, t.now)
        };
        let (first, second) = (run(), run());
        assert_eq!(first.0, second.0);
        assert_eq!(first.2, second.2, "the script took different virtual times");
        assert!(first.1 == second.1, "the datagrams differ");
    }

    #[test]
    fn two_cores_complete_a_256_kib_rpc_with_one_data_datagram_in_seven_lost() {
        let mut t = TwoCores::new(UdpConfig::default().homa);
        let (mut rng, lost) = (homa_harness::SplitMix64::new(7), Arc::new(AtomicU64::new(0)));
        let count = Arc::clone(&lost);
        t.cores[1].rx_drop = Some(Box::new(move |p| {
            let drop = matches!(p, HomaPacket::Data(_)) && rng.below(7) == 0;
            count.fetch_add(u64::from(drop), Ordering::Relaxed);
            drop
        }));
        t.echo(256 * 1024);
        assert!(lost.load(Ordering::Relaxed) >= 20, "{} lost", lost.load(Ordering::Relaxed));
        assert_grants_are_bare(&t);
    }

    /// Every datagram on the wire, in order, with its sender's index.
    fn wire_datagrams(t: &TwoCores) -> impl Iterator<Item = (usize, &[u8])> {
        t.wire.iter().flat_map(|(i, send)| split_read(send, SEGMENT).map(move |d| (*i, d)))
    }

    /// Every packet on the wire, in order, with its sender's index.
    fn packets(t: &TwoCores) -> Vec<(usize, HomaPacket)> {
        let decode = |(i, d)| (i, homa_wire::decode(d).expect("a valid datagram").0);
        wire_datagrams(t).map(decode).collect()
    }

    /// Every GRANT on the wire is the 27-byte kind: cutoffs are configured
    /// at both ends, so no grant carries them, the first to a peer included.
    fn assert_grants_are_bare(t: &TwoCores) {
        let grants: Vec<usize> = wire_datagrams(t)
            .filter(|(_, d)| matches!(homa_wire::decode(d), Ok((HomaPacket::Grant(_), _))))
            .map(|(_, d)| d.len())
            .collect();
        assert!(!grants.is_empty(), "no GRANT on the wire");
        assert!(grants.iter().all(|&len| len == GRANT), "GRANT datagram sizes {grants:?}");
    }

    /// Loss recovery does not finish a one-way yet. With every seventh DATA
    /// datagram lost, a 256 KiB one-way never arrives. The receiver asks for
    /// one gap per resend interval, and each lost packet's bytes stay in the
    /// granted window until resent, so the sender's last byte waits for the
    /// gaps before it. Four intervals after that byte the sender forgets the
    /// message; the next gap goes unanswered, and after `abort_after_resends`
    /// silent RESENDs the receiver gives up and frees its reassembly buffer.
    /// Once recovery finishes, the first assertion flips.
    #[test]
    fn loss_recovery_does_not_finish_a_256_kib_one_way_losing_every_seventh_data_datagram() {
        let homa = HomaConfig { resend_interval_ns: 2_000_000, ..UdpConfig::default().homa };
        let mut t = TwoCores::new(homa.clone());
        let mut data = 0;
        t.cores[1].rx_drop = Some(Box::new(move |p| {
            data += u64::from(matches!(p, HomaPacket::Data(_)));
            matches!(p, HomaPacket::Data(_)) && data % 7 == 0
        }));
        t.cores[0].start(0, PeerId(1), vec![7; 256 * 1024], Open::Message { tag: 1 }).unwrap();
        while (t.now == 0 || !t.cores[1].in_buffers.is_empty()) && t.now < 1_000_000_000 {
            t.round();
        }
        let let_go = t.now;
        assert_eq!(t.until(1, 1_000_000_000, |_| true), None, "the one-way arrived");
        assert_eq!(let_go, 90_000_000, "the receiver freed its buffer at {let_go} ns");
        let [sender, receiver] = t.summaries();
        assert_eq!((sender.out_payloads, receiver.in_buffers), (0, 0), "{sender}\n{receiver}");
        // 31 gaps asked for and answered, one each 2.5 ms (the interval,
        // rounded up to the tick), then five RESENDs for the 32nd in vain.
        let wire = packets(&t);
        let asked: Vec<u64> = wire
            .iter()
            .filter_map(|(_, p)| if let HomaPacket::Resend(r) = p { Some(r.offset) } else { None })
            .collect();
        let silent = homa.abort_after_resends as usize;
        assert_eq!(asked.len(), 31 + silent, "{asked:?}");
        assert!(asked[31..].iter().all(|&offset| offset == 240_100), "{asked:?}");
        let answered = wire.iter().filter(|(_, p)| {
            matches!(p, HomaPacket::Data(h) if h.retransmit && asked[..31].contains(&h.offset))
        });
        assert_eq!(answered.count(), 31);
        // The last byte went out after the 28th gap was filled, at 70 ms.
        let last_byte = wire.iter().position(|(_, p)| match p {
            HomaPacket::Data(h) => !h.retransmit && h.offset + u64::from(h.payload) == h.msg_len,
            _ => false,
        });
        let asked_first = wire[..last_byte.expect("the last byte was sent")]
            .iter()
            .filter(|(_, p)| matches!(p, HomaPacket::Resend(_)))
            .count();
        assert_eq!(asked_first, 28);
        // Until then the sender's stall poke also re-sends the first
        // packet, which arrived long ago, each 2.5 ms: a RESEND does not
        // count as hearing from the receiver, only a GRANT does.
        let resent: Vec<u64> = wire
            .iter()
            .filter_map(|(i, p)| match p {
                HomaPacket::Data(h) if *i == 0 && h.retransmit => Some(h.offset),
                _ => None,
            })
            .collect();
        assert_eq!(resent.len(), 59);
        assert_eq!(resent.iter().filter(|&&offset| offset == 0).count(), 28, "{resent:?}");
    }
}
