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
//! 1. **One blocking `recv_from`**, bounded by the 500 µs `POLL_INTERVAL` (a
//!    timeout or a signal is an empty turn, not an error).
//! 2. **A gated drain.** If that datagram left the endpoint with something
//!    to send (`HomaEndpoint::has_pending_tx`: a GRANT to issue, or DATA
//!    that a GRANT just released), the driver reads whatever else is
//!    already queued on the socket without blocking, at most `RX_BATCH`
//!    datagrams in the turn. Every datagram of the turn is handled under
//!    one lock take and application events are delivered once, at its
//!    end. `std` has no `MSG_DONTWAIT`, so the drain brackets itself with
//!    `set_nonblocking(true)` / `(false)`: two system calls and one failed
//!    read. That price is why the drain is selected from what the code can
//!    observe and not always on: a turn that has nothing to answer — a
//!    single-packet request or response, most of W2 — does not pay it. If
//!    the socket cannot be made blocking again the driver stops instead of
//!    spinning.
//! 3. **One `pump`**, which takes up to `TX_BATCH` packets from the
//!    endpoint, *merges the GRANTs*, encodes each header and the payload
//!    slice borrowed from the payload store straight into a per-thread
//!    byte arena ([`homa_wire::encode_into`]), and `send_to`s the datagrams
//!    with no lock held. `send_message`, `call` and `respond` run the same
//!    `pump` on the calling thread, so nothing waits for the driver to
//!    wake up.
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
//! `rx_turns`, `rx_drained` (datagrams that arrived through the drain),
//! `grants_merged` and `tx_errors` (a failed `send_to` is a lost packet,
//! which the protocol recovers; it is counted, not retried).
//!
//! ## Paper map
//!
//! | module | paper section |
//! |---|---|
//! | [`node`] | §4's implementation layer: socket I/O threads, pacing, DSCP priority mapping, RPC surface |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod node;

pub use node::{EventQueue, HomaUdpNode, RunSummary, UdpConfig, UdpEvent};
