//! The UDP node's logic without its socket, its clock or its thread: the
//! crate docs say which half owns what. The module is private, so `pub`
//! here is the crate's.

use crate::node::{RunSummary, UdpEvent};
use homa::packets::{Dir, HomaPacket, MsgKey, PeerId};
use homa::{HomaConfig, HomaEndpoint, HomaEvent};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;

/// Bytes of a full-size DATA datagram, and so the size the kernel cuts a
/// coalesced send into: every DATA packet but a message's last is this long.
pub const SEGMENT: usize = homa_wire::DATA_HEADER_LEN + homa::config::MAX_PAYLOAD as usize;

// Under 40 bytes of IPv6 and 8 of UDP header, a segment fits a 1,500-byte MTU.
const _: () = assert!(SEGMENT + 48 <= 1_500, "a full DATA datagram overruns a 1,500-byte MTU");

/// Most packets one [`NodeCore::poll`] takes from the endpoint under the
/// node's lock before they are sent. The cap bounds one lock hold, the
/// transmit arena, and what one batch puts into a peer's socket buffer with
/// nothing pacing it: 64 full datagrams are charged 147 KB of the kernel's
/// 208 KB as 64 buffers, 94 KB as the two coalesced ones a receiver with
/// `UDP_GRO` holds them in (Linux 6.18, loopback). A restarted sender is
/// granted its whole message at once, and a larger batch lost its tail to
/// the buffer every time it was re-sent. The rest goes out on the driver's
/// next turn, after it has read the socket again.
const TX_BATCH: usize = 64;

/// Largest message a peer may announce, in bytes. A DATA header is a
/// peer's claim, not a fact, and the reassembly buffer is allocated from
/// it; 64 MiB clears every workload's largest message (W5: 28.84 MB).
pub const MAX_MSG_LEN: u64 = 64 << 20;

/// A receive-side packet filter (test hook for loss injection).
type RxDropFilter = Box<dyn FnMut(&HomaPacket) -> bool + Send>;

/// What [`NodeCore::start`] opens for the application: a one-way message
/// with a tag, an RPC whose response carries the tag, or the response to the
/// peer's RPC `rpc`.
pub enum Open {
    Message { tag: u64 },
    Call { tag: u64 },
    Response { rpc: u64 },
}

/// The endpoint and everything the node keeps beside it.
pub struct NodeCore {
    pub ep: HomaEndpoint,
    /// Payload store for outbound messages.
    pub out_payloads: HashMap<MsgKey, Vec<u8>>,
    /// Reassembly buffers for inbound messages.
    pub in_buffers: HashMap<MsgKey, Vec<u8>>,
    /// Buffers of the messages the endpoint completed since the events
    /// were last taken, in completion order. A completed buffer leaves
    /// `in_buffers` with the packet that completes it, so a retransmission
    /// of the same key read before the events are taken, which the
    /// endpoint takes for a new message (§3.8's re-execution), gets a
    /// buffer of its own: it neither writes into the one being delivered
    /// nor leaves its bytes behind in it.
    completed: Vec<(MsgKey, Vec<u8>)>,
    /// Peer address table.
    peers: HashMap<PeerId, SocketAddr>,
    addr_to_peer: HashMap<SocketAddr, PeerId>,
    /// Test hook: drop incoming packets matching the filter.
    pub rx_drop: Option<RxDropFilter>,
    /// The traffic counters; the node adds the ones only it sees.
    pub sum: RunSummary,
    /// The packets one [`poll`](Self::poll) stages, kept for their capacity.
    staged: Vec<(PeerId, HomaPacket)>,
}

/// Stage `pkt` for `dst`; true if it was a GRANT folded into an earlier
/// GRANT of the batch for the same peer and message. Grants are cumulative:
/// the larger offset and the newer priority say what both did.
pub fn stage(staged: &mut Vec<(PeerId, HomaPacket)>, dst: PeerId, pkt: HomaPacket) -> bool {
    if let HomaPacket::Grant(new) = &pkt {
        let earlier = staged.iter_mut().find_map(|(d, p)| match p {
            HomaPacket::Grant(g) if *d == dst && g.key == new.key => Some(g),
            _ => None,
        });
        if let Some(old) = earlier {
            old.offset = old.offset.max(new.offset);
            old.prio = new.prio;
            return true;
        }
    }
    staged.push((dst, pkt));
    false
}

/// The datagrams of `read`, which the kernel coalesced at `segment` bytes:
/// each is `segment` long but the last, which is 1 to `segment` bytes. With
/// `segment` 0 the read is one datagram, and so is an empty read.
pub fn split_read(read: &[u8], segment: usize) -> impl ExactSizeIterator<Item = &[u8]> {
    let size = if segment == 0 { read.len() } else { segment };
    let count = if read.is_empty() { 1 } else { read.len().div_ceil(size) };
    (0..count).map(move |i| &read[i * size..read.len().min((i + 1) * size)])
}

impl NodeCore {
    pub fn new(me: PeerId, homa: HomaConfig) -> Self {
        NodeCore {
            ep: HomaEndpoint::new(me, homa),
            out_payloads: HashMap::new(),
            in_buffers: HashMap::new(),
            completed: Vec::new(),
            peers: HashMap::new(),
            addr_to_peer: HashMap::new(),
            rx_drop: None,
            sum: RunSummary { peer: me, ..RunSummary::default() },
            staged: Vec::new(),
        }
    }

    pub fn add_peer(&mut self, peer: PeerId, addr: SocketAddr) {
        self.peers.insert(peer, addr);
        self.addr_to_peer.insert(addr, peer);
    }

    /// Refuse a peer with no address; else open `open` to `peer` in the
    /// endpoint at `now`, keep its payload `data`, and return its sequence
    /// number.
    pub fn start(&mut self, now: u64, peer: PeerId, data: Vec<u8>, open: Open) -> io::Result<u64> {
        if !self.peers.contains_key(&peer) {
            return Err(io::Error::new(io::ErrorKind::NotFound, "unknown peer"));
        }
        let (me, len) = (self.ep.peer_id(), data.len() as u64);
        let (origin, seq, dir) = match open {
            Open::Message { tag } => (me, self.ep.send_message(now, peer, len, tag), Dir::Oneway),
            Open::Call { tag } => (me, self.ep.begin_rpc(now, peer, len, tag), Dir::Request),
            Open::Response { rpc } => {
                self.ep.send_response(now, peer, rpc, len, rpc);
                (peer, rpc, Dir::Response)
            }
        };
        self.out_payloads.insert(MsgKey { origin, seq, dir }, data);
        Ok(seq)
    }

    /// Hand each datagram of `read`, one read's bytes from `from` that the
    /// kernel coalesced at `segment` bytes ([`split_read`]), to the endpoint
    /// at `now`, and return how many there were.
    pub fn on_read(&mut self, now: u64, from: SocketAddr, read: &[u8], segment: usize) -> usize {
        self.sum.rx_reads += 1;
        let datagrams = split_read(read, segment);
        let n = datagrams.len();
        datagrams.for_each(|dgram| self.on_datagram(now, from, dgram));
        n
    }

    fn on_datagram(&mut self, now: u64, from_addr: SocketAddr, dgram: &[u8]) {
        self.sum.datagrams_rx += 1;
        let Ok((pkt, payload_off)) = homa_wire::decode(dgram) else { return };
        let Some(&from) = self.addr_to_peer.get(&from_addr) else { return };
        if let Some(f) = self.rx_drop.as_mut() {
            if f(&pkt) {
                return;
            }
        }
        // Stash payload bytes into the reassembly buffer before the
        // endpoint consumes the header.
        let key = if let HomaPacket::Data(h) = &pkt {
            // The header is the peer's claim: drop a packet whose span
            // overflows or overruns the message it announces, or that
            // announces more than the cap, before anything is allocated
            // or indexed from it.
            let span_end = h.offset.checked_add(u64::from(h.payload));
            let Some(end) = span_end.filter(|&e| e <= h.msg_len && h.msg_len <= MAX_MSG_LEN) else {
                return;
            };
            let buf = self.in_buffers.entry(h.key).or_insert_with(|| vec![0u8; h.msg_len as usize]);
            let start = (h.offset as usize).min(buf.len());
            let end = (end as usize).min(buf.len());
            let avail = &dgram[payload_off..payload_off + h.payload as usize];
            buf[start..end].copy_from_slice(&avail[..end - start]);
            Some(h.key)
        } else {
            None
        };
        let delivered = self.ep.delivered_msgs();
        self.ep.on_packet(now, from, pkt);
        if let Some(key) = key.filter(|_| self.ep.delivered_msgs() > delivered) {
            let buf = self.in_buffers.remove(&key).unwrap_or_default();
            self.completed.push((key, buf));
        }
    }

    /// The endpoint's timer tick at `now`, then both buffer sweeps. Take the
    /// events of every `on_read` before the next tick: the sweep frees the
    /// reassembly buffer of a message the endpoint has delivered.
    pub fn tick(&mut self, now: u64) {
        self.ep.timer_tick(now);
        // A completion whose event was taken took its buffer along; one
        // without an event (a response to an aborted call) leaves it here.
        self.completed.clear();
        // GC delivered out-payloads: once the endpoint's sender has dropped
        // a message (response acked, one-way linger expired, or aborted), no
        // retransmission can ask for its bytes — the buffer is dead weight
        // on a long-running node.
        self.out_payloads.retain(|key, _| self.ep.outbound_contains(*key));
        // Likewise a buffer whose DATA the endpoint discarded (a stray
        // response packet).
        self.in_buffers.retain(|key, _| self.ep.inbound_contains(*key));
    }

    /// Encode what the endpoint has ready at `now`, up to [`TX_BATCH`]
    /// packets, into `bytes`, back to back: each [`stage`]d, then its header
    /// and the payload slice borrowed from the payload store. `spans` gets
    /// each one's peer address and end.
    pub fn poll(&mut self, now: u64, bytes: &mut Vec<u8>, spans: &mut Vec<(SocketAddr, usize)>) {
        bytes.clear();
        spans.clear();
        while self.staged.len() < TX_BATCH {
            let Some((dst, pkt)) = self.ep.poll_transmit(now) else { break };
            self.sum.grants_merged += u64::from(stage(&mut self.staged, dst, pkt));
        }
        for (dst, pkt) in self.staged.drain(..) {
            let payload = match &pkt {
                HomaPacket::Data(h) => {
                    let span = h.offset as usize..h.offset as usize + h.payload as usize;
                    self.out_payloads.get(&h.key).and_then(|p| p.get(span))
                }
                _ => Some(&[][..]),
            };
            // The endpoint emits DATA only for messages it holds and the
            // GC keeps exactly those; were one gone, send no made-up bytes.
            debug_assert!(payload.is_some(), "DATA without its payload: {pkt:?}");
            let (Some(&addr), Some(payload)) = (self.peers.get(&dst), payload) else { continue };
            homa_wire::encode_into(&pkt, payload, bytes);
            spans.push((addr, bytes.len()));
        }
        self.sum.datagrams_tx += spans.len() as u64;
    }

    /// The application events the endpoint raised since the last call, each
    /// taking its message's bytes out of the core.
    pub fn take_events(&mut self) -> impl Iterator<Item = UdpEvent> + '_ {
        let NodeCore { ep, out_payloads, in_buffers, completed, .. } = self;
        let me = ep.peer_id();
        let mut take = move |key| match completed.iter().position(|(k, _)| *k == key) {
            Some(i) => completed.remove(i).1,
            None => Vec::new(),
        };
        ep.drain_events().filter_map(move |ev| match ev {
            HomaEvent::MessageDelivered { src, seq, tag, .. } => {
                let data = take(MsgKey { origin: src, seq, dir: Dir::Oneway });
                Some(UdpEvent::Message { from: src, tag, data })
            }
            HomaEvent::RequestArrived { client, rpc_seq, .. } => {
                let data = take(MsgKey { origin: client, seq: rpc_seq, dir: Dir::Request });
                Some(UdpEvent::Request { from: client, rpc: rpc_seq, data })
            }
            HomaEvent::RpcCompleted { server, rpc_seq, tag, .. } => {
                let data = take(MsgKey { origin: me, seq: rpc_seq, dir: Dir::Response });
                // The request payload is no longer needed.
                out_payloads.remove(&MsgKey { origin: me, seq: rpc_seq, dir: Dir::Request });
                Some(UdpEvent::Response { from: server, tag, data })
            }
            HomaEvent::RpcAborted { server, tag } => Some(UdpEvent::Aborted { peer: server, tag }),
            HomaEvent::OutboundAborted { dst, tag } => Some(UdpEvent::Aborted { peer: dst, tag }),
            HomaEvent::InboundAborted { key, .. } => {
                // Free the partial reassembly buffer of the abandoned
                // inbound; it will never complete.
                in_buffers.remove(&key);
                None
            }
        })
    }
}
