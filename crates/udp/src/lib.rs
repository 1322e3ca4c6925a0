//! # homa-udp — Homa over real UDP sockets
//!
//! A threaded driver that runs the [`homa`] protocol core over
//! `std::net::UdpSocket`, carrying real payload bytes with the
//! [`homa_wire`] binary encoding. This is the repository's analogue of
//! the paper's RAMCloud/DPDK implementation (§4), and the protocol logic is
//! the *same code* that runs packet-accurately in the simulator. Only its
//! receiver-driven half runs here (grants, overcommitment, RESEND/BUSY
//! recovery, at-least-once RPCs): the paper programs NIC priority queues,
//! and over sockets every packet leaves at one priority.
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
//! A node is two halves. [`HomaUdpNode`] owns the socket, the clock, the
//! lock, the driver thread ([`node`]'s `run`), the [`EventQueue`], the sends
//! and the offload flags. Behind the lock, the private `NodeCore` owns the
//! endpoint, the payload store, the reassembly buffers and their guard
//! against hostile headers, the peer table, the drop-filter hook and the
//! [`RunSummary`] counters. It takes the time (read once per read, tick and
//! send) and each read's bytes as arguments, and names no socket and no
//! clock (CI checks), so `node`'s tests run two cores joined by an in-memory
//! wire on a virtual clock. A turn is:
//!
//! 1. **One blocking `recvmsg`** (`sys::recv`, a foreign call: `std` reads
//!    no control message), bounded by the 500 µs `POLL_INTERVAL` (a timeout
//!    or a signal is an empty turn, not an error). With `UDP_GRO`, a read may
//!    hold a peer's whole segmented send (step 3): up to 45 datagrams of one
//!    sender, which the core cuts back at the segment size the kernel
//!    reports. A truncated read is dropped whole. The node sets the option
//!    at the first full-size datagram it reads, not at `bind`: the system's
//!    first GRO socket costs ~15 µs to set and ~15 µs to close (pinned, Linux
//!    6.18: 15.1–15.9 against 0.27 µs), which a node that only exchanges
//!    short messages would pay for nothing. Where the option is refused (not
//!    Linux, or a kernel before 5.0) a read is one datagram.
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
//! 3. **One `pump`**: the core takes up to `TX_BATCH` packets from the
//!    endpoint, *merges the GRANTs*, and encodes each header and the payload
//!    slice borrowed from the payload store straight into a per-thread byte
//!    arena ([`homa_wire::encode_into`]); the node sends them with no lock
//!    held. Each run of adjacent full-size DATA datagrams (1,446 bytes) to
//!    one peer, at most 45 of them and the run's last one any size, goes out
//!    in **one `send_to`**: at `bind` the socket was given `UDP_SEGMENT` =
//!    1,446 (a foreign call too, in `sys`), so the kernel cuts the send back
//!    into the same datagrams and the wire does not change. GRANTs and other
//!    short datagrams end a run. Where the option is refused (not Linux, or a
//!    kernel before 4.18), and from the first send the kernel refuses for it
//!    (`transmit` says which), every send is one datagram. `send_message`,
//!    `call` and `respond` run the same `pump` on the calling thread, so
//!    nothing waits for the driver to wake up.
//!
//! **Merged GRANTs.** The endpoint issues one GRANT per DATA packet
//! (§3.3), so a turn that read N DATA packets of one message finds N GRANTs
//! for it in its batch. Grants are cumulative — "you may send everything
//! below `offset`" — so the node sends one (`stage` says how they merge), as
//! Homa/Linux does for a GRO batch. The endpoint's grant policy and counters
//! are untouched, and a node that reads one datagram per turn sends exactly
//! the grants it always did. Losing a merged GRANT stalls its message for
//! the whole window instead of one packet of it; the receiver's RESEND sweep
//! (§3.7) recovers it as it recovers any lost GRANT, since the sender treats
//! the RESEND as an implicit grant.
//!
//! ## Paper map
//!
//! | module | paper section |
//! |---|---|
//! | [`node`] | §4's implementation layer: the socket, the driver thread, the RPC surface, and behind the lock the core (payload store, reassembly, grant merging) |

#![warn(missing_docs)]
// `deny`, not `forbid`: `sys`, the foreign calls, allows it for itself.
#![deny(unsafe_code)]

pub mod node;
mod node_core;
mod sys;

pub use node::{EventQueue, HomaUdpNode, RunSummary, UdpConfig, UdpEvent};
