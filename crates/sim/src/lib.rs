//! # homa-sim — a deterministic packet-level datacenter network simulator
//!
//! This crate is the simulation substrate used to reproduce the evaluation of
//! *Homa: A Receiver-Driven Low-Latency Transport Protocol Using Network
//! Priorities* (SIGCOMM 2018). It plays the role the authors' OMNeT++
//! simulator played: a packet-level, discrete-event model of a two-level
//! leaf–spine datacenter fabric with priority-queue switches.
//!
//! ## Model
//!
//! * **Store-and-forward** switching (the paper's simulated switches do not
//!   support cut-through), with the paper's 250 ns per-switch internal
//!   delay.
//! * **Zero propagation delay**, per the paper: a link delays a packet by
//!   its peer's switch or host software delay alone.
//! * **Per-packet spraying**: packets from a TOR to the spine layer pick a
//!   random uplink, so core congestion is negligible and queueing
//!   concentrates on TOR→host downlinks.
//! * **Host model**: unlimited software throughput but a fixed software
//!   turnaround delay (1.5 µs in the paper) between a packet arriving at a
//!   host NIC and the transport being able to react to it.
//! * **Egress queue disciplines**, one for every switch port of a fabric:
//!   strict priority (8 levels, the commodity-switch model Homa/PIAS/pHost
//!   use), pFabric's dequeue-smallest-remaining/drop-largest-remaining and
//!   NDP's trim-to-header. ECN marking is supported for DCTCP-style
//!   baselines.
//!
//! ## Structure
//!
//! The simulator is generic over the protocol's packet metadata type
//! ([`PacketMeta`]), so each transport protocol (Homa and every baseline)
//! carries its own headers through the same fabric. Protocol state machines
//! implement [`Transport`] and are pulled for packets NIC-style whenever
//! their host uplink goes idle, which lets senders reorder traffic (SRPT)
//! without modelling a deep NIC queue.
//!
//! Determinism: all events are ordered by `(time, sequence)` and all
//! randomness derives from one seeded generator ([`rng`]), so a run is a
//! pure function of its configuration.
//!
//! ## Paper map
//!
//! | module | paper section |
//! |---|---|
//! | [`topology`] | §5.2 two-level leaf–spine fabric (Figure 11's 144 hosts) |
//! | [`queues`] | §5.2 switch models: strict priority (Homa/PIAS/pHost), pFabric, NDP trimming, ECN |
//! | [`network`] / [`events`] | the discrete-event substrate standing in for OMNeT++ |
//! | [`transport`] | the protocol-facing driver API (pull-model NICs, §5.2 host model) |
//! | [`delay`] | Figure 14's per-packet delay attribution |
//! | [`stats`] | Table 1 queue statistics, §5 run accounting |
//! | [`faults`] | beyond-paper: link flaps, receiver pauses, rate limits (scenario stress) |
//! | [`rng`] | the seeded streams: §5.2 Poisson arrivals and per-packet spraying, fuzz inputs |
//! | [`packet`] / [`time`] | shared vocabulary types |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod delay;
pub mod events;
pub mod faults;
pub mod network;
pub mod packet;
pub mod queues;
pub mod rng;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;
pub mod transport;

pub use delay::DelayBreakdown;
pub use events::{EngineStats, EventQueue, HierEventQueue, LaneId, TimerToken};
pub use faults::{resolve_fault, Fault, FaultAction, FaultError, FaultPlan, LinkId};
pub use network::{Network, NetworkConfig};
pub use packet::{CtrlKind, Packet, PacketMeta};
pub use queues::{EcnConfig, QueueDiscipline, QueueKind};
pub use rng::{SplitMix64, Xoshiro256PlusPlus};
pub use stats::{GrantStats, PortClass, PortStats, QuantileSketch, RunStats};
pub use time::{SimDuration, SimTime};
pub use topology::{HostId, NodeId, PathClass, PortSpec, Topology, TopologyError};
pub use trace::{FlightRecorder, MsgLifecycle, TraceEvent, TraceRecord};
pub use transport::{AppEvent, Transport, TransportActions};
