//! # homa-udp — Homa over real UDP sockets
//!
//! A threaded driver that runs the [`homa`] protocol core over
//! `std::net::UdpSocket`, carrying real payload bytes with the
//! [`homa_wire`] binary encoding. This is the repository's analogue of
//! the paper's RAMCloud/DPDK implementation (§4): where the paper
//! bypasses the kernel and programs NIC priority queues, we use ordinary
//! sockets and map Homa's packet priorities to DSCP code points (see
//! [`node::priority_to_dscp`]) — commodity switches can be configured to
//! honour them. The protocol logic (grants, priorities,
//! overcommitment, RESEND/BUSY recovery, at-least-once RPCs) is the
//! *same code* that runs packet-accurately in the simulator.
//!
//! ## Quick start
//!
//! ```no_run
//! use homa::packets::PeerId;
//! use homa_udp::{HomaUdpNode, UdpConfig, UdpEvent};
//!
//! let server = HomaUdpNode::bind(PeerId(1), "127.0.0.1:7001", UdpConfig::default()).unwrap();
//! let client = HomaUdpNode::bind(PeerId(0), "127.0.0.1:7000", UdpConfig::default()).unwrap();
//! client.add_peer(PeerId(1), "127.0.0.1:7001".parse().unwrap());
//! server.add_peer(PeerId(0), "127.0.0.1:7000".parse().unwrap());
//!
//! client.call(PeerId(1), b"ping".to_vec(), 1).unwrap();
//! match server.events().recv() {
//!     UdpEvent::Request { from, rpc, data } => server.respond(from, rpc, data).unwrap(),
//!     other => panic!("unexpected {other:?}"),
//! }
//! match client.events().recv() {
//!     UdpEvent::Response { data, .. } => assert_eq!(data, b"ping"),
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```
//!
//! ## One driver turn
//!
//! Each node has one driver thread ([`node`]'s `run`) and one lock around
//! the endpoint, the payload store and the reassembly buffers. A turn is:
//!
//! 1. **One blocking `recvmsg`** (`sys::recv`, a foreign call: `std` reads
//!    no control message), bounded by the 500 µs `POLL_INTERVAL` (a timeout
//!    or a signal is an empty turn, not an error). A read may hold many
//!    datagrams: once the socket has `UDP_GRO`, the kernel hands a peer's
//!    segmented send (step 3) over whole, up to 45 datagrams in one read,
//!    with their segment size in a control message, and the driver cuts the
//!    read at that size and hands each datagram on as if read alone. Every
//!    datagram of a read has the same sender, as the kernel coalesces one
//!    flow only. A read the kernel flags truncated is dropped whole. Where
//!    the option is refused (not Linux, or a kernel before 5.0) a read is
//!    one datagram. It is set lazily, at the first full-size datagram the
//!    node reads, because it is not free: the system's first GRO socket
//!    takes ~15 µs to set it and ~15 µs more to close, later ones 0.3 µs (a
//!    pinned micro-benchmark on Linux 6.18: 15.1–15.9 against 0.27 µs; the
//!    kernel switching its UDP encapsulation path on and off fits that). A
//!    node that only exchanges short messages, the set-up probe's 64-byte
//!    RPC among them, never pays.
//! 2. **A gated drain.** If that read left the endpoint with something to
//!    send (`HomaEndpoint::has_pending_tx`: a GRANT to issue, or DATA that
//!    a GRANT just released), the driver reads whatever else is already
//!    queued on the socket with `MSG_DONTWAIT`, until a read finds nothing
//!    or the turn has handled `RX_BATCH` datagrams; a read is never split
//!    across turns, so a turn can exceed that by up to 44. Every datagram of
//!    the turn is handled under one lock take and application events are
//!    delivered once, at its end. The drain costs one failed read, which a
//!    turn that has nothing to answer — a single-packet request or
//!    response, most of W2 — does not pay.
//! 3. **One `pump`**, which takes up to `TX_BATCH` packets from the
//!    endpoint, *merges the GRANTs*, encodes each header and the payload
//!    slice borrowed from the payload store straight into a per-thread
//!    byte arena ([`homa_wire::encode_into`]), and sends the datagrams
//!    with no lock held. Each run of adjacent full-size DATA datagrams
//!    (1,446 bytes) to one peer, at most 45 of them and the run's last one
//!    any size, goes out in **one `send_to`**: at `bind` the socket was
//!    given `UDP_SEGMENT` = 1,446 (a foreign call too, in `sys`),
//!    so the kernel cuts the send back into the same datagrams and the wire
//!    does not change. GRANTs and other short datagrams end a run. Where the
//!    option is refused (not Linux, or a kernel before 4.18) every send is
//!    one datagram. The kernel checks the option on every send, a GRANT's
//!    too: a send it refuses for it (EIO on an IPsec route or a device that
//!    cannot checksum a segment, EINVAL or EMSGSIZE below a 1,446-byte path
//!    MTU) turns it off and goes again one datagram at a time, as do all
//!    later sends. Any other failed send is lost datagrams and changes
//!    nothing. `send_message`,
//!    `call` and `respond` run the same `pump` on the calling thread, so
//!    nothing waits for the driver to wake up.
//!
//! **Merged GRANTs.** The endpoint issues one GRANT per DATA packet
//! (§3.3); a turn that read N DATA packets of one message therefore finds
//! N GRANTs for it in its batch. Grants are cumulative — "you may send
//! everything below `offset`" — so the node sends one: the largest offset,
//! the newest priority, and a piggybacked `cutoffs` update never dropped
//! (the newer if both carry one). This is what Homa/Linux gets from GRO
//! batches. The endpoint's grant policy and counters are untouched; the
//! merge is a property of the batch, and a node that reads one datagram
//! per turn sends exactly the grants it always did. For loss it means one
//! datagram now carries several packets' worth of window: losing it stalls
//! the message for that whole window instead of one packet of it, and the
//! receiver's RESEND sweep (§3.7) recovers it the way it recovers any lost
//! GRANT — the sender treats the RESEND as an implicit grant.
//!
//! [`RunSummary`] counts what the turn did: `datagrams_rx`/`datagrams_tx`,
//! `rx_reads`/`tx_sends` (the system calls that carried them),
//! `rx_truncated` (reads dropped whole), `rx_turns`, `rx_drained`
//! (datagrams that arrived through the drain),
//! `grants_merged` and `tx_errors` (a datagram whose send failed is a lost
//! packet, which the protocol recovers; it is counted, not retried, unless
//! the failure was segmentation's).
//!
//! ## Paper map
//!
//! | module | paper section |
//! |---|---|
//! | [`node`] | §4's implementation layer: socket I/O threads, pacing, DSCP priority mapping, RPC surface |

#![warn(missing_docs)]
// `deny`, not `forbid`: `sys`, the foreign calls, allows it for itself.
#![deny(unsafe_code)]

pub mod node;
mod sys;

pub use node::{EventQueue, HomaUdpNode, RunSummary, UdpConfig, UdpEvent};
