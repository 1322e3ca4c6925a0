//! # homa-baselines — transports on the simulated fabric
//!
//! This crate binds protocol state machines to the `homa-sim` fabric:
//!
//! * [`homa_sim`] — the adapter that runs the real [`homa`] protocol core
//!   ([`homa::HomaEndpoint`]) as a simulator [`Transport`]. The paper's
//!   `HomaPx` variants (restricted priority counts) and the RAMCloud
//!   *Basic* transport (receiver-driven grants, no priorities, unlimited
//!   overcommitment) are configuration presets of the same adapter.
//! * [`stream`] — a TCP-like single-FIFO-per-destination byte stream, the
//!   head-of-line-blocking comparison of Figure 8.
//! * [`phost`] — pHost (Gao et al., CoNEXT 2015): receiver token
//!   scheduling, free tokens for the first RTTbytes, two static
//!   priorities, sender downgrade timeouts, no overcommitment.
//! * [`pias`] — PIAS (Bai et al., NSDI 2015): sender-side multi-level
//!   feedback queue priorities with workload-tuned demotion thresholds
//!   over a DCTCP-style ECN windowed transport.
//! * [`pfabric`] — pFabric (Alizadeh et al., SIGCOMM 2013):
//!   remaining-size packet priorities with drop-largest/dequeue-smallest
//!   switches, line-rate senders with BDP windows and timeout
//!   retransmission.
//! * [`ndp`] — NDP (Handley et al., SIGCOMM 2017): packet trimming,
//!   receiver-paced pull queue with fair-share (round-robin) scheduling,
//!   no overcommitment.
//!
//! Every transport implements the simulator's [`Transport`] trait over
//! its own packet metadata and reports deliveries through
//! [`AppEvent`](homa_sim_crate::AppEvent)s, so the experiment harness can
//! drive any of them interchangeably.
//!
//! ## Paper map
//!
//! | module | paper section |
//! |---|---|
//! | [`homa_sim`] | §5.2's Homa simulation (and §5.1's HomaPx / Basic variants of Figures 8/9) |
//! | [`stream`] | §5.1's TCP head-of-line-blocking comparison |
//! | [`pfabric`] / [`phost`] / [`pias`] / [`ndp`] | §5.2's comparison transports (Figures 12–15) |
//! | [`common`] | shared scaffolding (flow tables, reassembly, timers) — engineering, not paper |
//!
//! ## Fixed parameters
//!
//! Every transport sends the Homa core's packet sizes
//! (`homa::config::{MAX_PAYLOAD, DATA_OVERHEAD, CTRL_BYTES}`), so
//! comparisons are apples-to-apples, and sizes its windows in
//! `homa::config::RTT_BYTES` (9,700 bytes, one BDP of the paper's 10 Gbps
//! fabric). The rest are private constants in each module, with where the
//! value comes from:
//!
//! * [`pfabric`]: `WINDOW` = 1 BDP and `QUEUE_CAP_BYTES` = 4 × RTTbytes
//!   per port, the pFabric paper's line-rate start and ~2-BDP buffers;
//!   `RTO_NS` = 100 µs, this model's.
//! * [`phost`]: `FREE_BYTES` = `TOKEN_WINDOW` = 1 BDP, the pHost paper's
//!   free tokens and per-message token cap; `DOWNGRADE_NS` = 30 µs and
//!   `PENALTY_NS` = 100 µs, this model's downgrade timeouts.
//! * [`pias`]: `DCTCP_G` = 1/16, DCTCP's EWMA weight; `INIT_CWND` = 1 BDP,
//!   `MIN_CWND` = one packet, `MAX_CWND` = 4 BDP, `RTO_NS` = 500 µs and
//!   `ECN_THRESHOLD_BYTES` = 30 KB, this model's.
//! * [`ndp`]: `INITIAL_WINDOW` = 1 BDP, the NDP paper's blind first RTT.
//!   Its switch queue of 8 data packets is the fabric's
//!   (`homa_sim::queues::NDP_DATA_PACKETS`).
//! * [`stream`]: `WINDOW` = 1 BDP and `RTO_NS` = 1 ms, this model's.
//!
//! The config structs keep only what an input sets: PIAS's demotion
//! thresholds, tuned per workload ([`PiasConfig::thresholds_for`]), and
//! the link speed pHost and NDP pace at, read from the topology.
//! [`PfabricConfig`] and [`StreamConfig`] are empty.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

// Renamed import so the module named `homa_sim` below doesn't collide
// with the `homa-sim` crate (the leading `::` forces the extern crate).
use ::homa_sim as homa_sim_crate;
pub use homa_sim_crate::transport::Transport;

pub mod common;
pub mod homa_sim;
pub mod ndp;
pub mod pfabric;
pub mod phost;
pub mod pias;
pub mod stream;

pub use homa_sim::{HomaMeta, HomaSimTransport};
pub use ndp::{NdpConfig, NdpMeta, NdpTransport};
pub use pfabric::{PfabricConfig, PfabricMeta, PfabricTransport};
pub use phost::{PhostConfig, PhostMeta, PhostTransport};
pub use pias::{PiasConfig, PiasMeta, PiasTransport};
pub use stream::{StreamConfig, StreamMeta, StreamTransport};
