//! # homa-workloads — datacenter message-size workloads W1–W5
//!
//! The Homa paper designs and evaluates against five message-size
//! distributions (Figure 1):
//!
//! | id | source | character |
//! |----|--------|-----------|
//! | W1 | Facebook memcached (ETC model) | almost all tiny messages |
//! | W2 | Google search application | small messages, some KBs |
//! | W3 | aggregated Google datacenter traffic | mixed |
//! | W4 | Facebook Hadoop cluster | medium/heavy-tailed |
//! | W5 | DCTCP web-search benchmark | very heavy-tailed |
//!
//! The underlying traces are proprietary, but the paper's figures expose
//! each distribution's *message-count deciles* (the x-axis tick marks of
//! Figures 8/12 are the 10%, 20%, ..., 100% quantiles of message size).
//! This crate reconstructs each workload as a piecewise log-linear CDF
//! through those published anchor points — see `DESIGN.md` for the
//! substitution rationale. The reconstructed distributions reproduce the
//! properties the paper's results depend on: W1–W3 carry most *bytes* in
//! small (≤ RTTbytes) messages, while W4–W5 carry most bytes in messages
//! of hundreds of kilobytes or more.
//!
//! The crate also supplies the Poisson open-loop arrival machinery and the
//! load arithmetic used by every experiment.
//!
//! ## Paper map
//!
//! | module | paper section |
//! |---|---|
//! | [`workload`] | Figure 1's W1–W5 definitions (+ the decile points the figure-accuracy gate joins on) |
//! | [`dist`] | the piecewise log-linear CDF reconstruction behind Figure 1 |
//! | [`arrivals`] | §5.1/§5.2 open-loop Poisson traffic at a target load |
//! | [`traffic`] | §5.2's uniform senders and receivers, and §3.6's incast as an open-loop pattern |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrivals;
pub mod dist;
pub mod traffic;
pub mod workload;

pub use arrivals::{Arrival, LoadPlan, PoissonArrivals};
pub use dist::MessageSizeDist;
pub use traffic::{MixSpec, PatternSpec, TrafficMatrix, TrafficSpec};
pub use workload::Workload;
