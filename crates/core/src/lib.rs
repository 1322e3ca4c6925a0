//! # homa — the Homa transport protocol core
//!
//! A from-scratch implementation of the protocol described in
//! *Homa: A Receiver-Driven Low-Latency Transport Protocol Using Network
//! Priorities* (Montazeri, Li, Alizadeh, Ousterhout — SIGCOMM 2018).
//!
//! Homa is a connectionless, message-oriented datacenter transport
//! optimized for tail latency of small messages under load. Its defining
//! mechanisms, all implemented here:
//!
//! * **Blind (unscheduled) transmission** of the first `RTTbytes` of every
//!   message, so single-packet messages complete in half an RTT (§3.2).
//! * **Receiver-driven flow control**: everything past the blind prefix is
//!   sent only in response to per-packet GRANTs that keep exactly
//!   `RTTbytes` of data in flight per message (§3.3).
//! * **Priority allocation** (§3.4): unscheduled packets are prioritized
//!   by message size against cutoffs that the Figure 4 algorithm computes
//!   from the workload's size distribution and that every endpoint is
//!   configured with, as in the paper's implementation (§4); scheduled
//!   packets get a per-message priority carried in each GRANT, allocated
//!   from the *lowest* scheduled level upward to avoid preemption lag.
//! * **Controlled overcommitment** (§3.5): a receiver grants to at most
//!   one message per scheduled priority level, trading bounded TOR
//!   buffering for high downlink utilization.
//! * **Sender-side SRPT** (§3.2): when several messages have transmittable
//!   bytes, the one with fewest remaining bytes goes first, and control
//!   packets precede data.
//! * **RPCs, not connections** (§3.1): at-least-once semantics, no
//!   explicit acks (the response acknowledges the request), receiver-driven
//!   loss recovery via RESEND/BUSY (§3.7), and server state that is
//!   discarded as soon as the response is transmitted (§3.8).
//! * **Incast control** (§3.6): clients count outstanding RPCs and mark
//!   requests so servers clamp the blind prefix of large responses.
//!
//! ## Architecture
//!
//! The crate is I/O-free and clock-free: [`HomaEndpoint`] is a pure state
//! machine driven by `on_packet` / `timer_tick` / `poll_transmit` calls,
//! with time passed in as integer nanoseconds ([`Nanos`]). The same
//! endpoint runs packet-accurately inside the `homa-sim` discrete-event
//! simulator and over real UDP sockets in `homa-udp`.
//!
//! ## Paper map
//!
//! | module | paper section |
//! |---|---|
//! | [`packets`] | §3.1 packet types (DATA/GRANT/RESEND/BUSY) and RPC keys |
//! | [`config`] | §3 protocol parameters (RTTbytes, priority counts, overcommitment) |
//! | [`unsched`] | §3.4 unscheduled priority allocation: cutoffs from the workload's traffic mix |
//! | [`sender`] | §3.2 blind transmission + sender-side SRPT |
//! | [`receiver`] | §3.3–§3.6 grant scheduling, priority assignment, overcommitment, incast control |
//! | [`messages`] | §3.1/§3.8 message reassembly and RPC lifetimes |
//! | [`messages::Silence`] | §3.7 loss recovery's one retry rule: the receiver's gap chase, the client's response chase and the sender's stall poke each hold one |
//! | [`endpoint`] | the assembled protocol machine (§3, §3.7 RESEND/BUSY handling) |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod endpoint;
pub mod messages;
pub mod packets;
pub mod receiver;
pub mod sender;
pub mod unsched;

pub use config::HomaConfig;
pub use endpoint::{HomaEndpoint, HomaEvent};
pub use packets::{
    BusyHeader, DataHeader, Dir, GrantHeader, HomaPacket, MsgKey, PeerId, ResendHeader,
};
pub use unsched::{PriorityMap, TrafficTracker};

/// Absolute time in integer nanoseconds. The protocol core is agnostic to
/// where time comes from (simulated clock or a monotonic OS clock).
pub type Nanos = u64;
