//! The repository's benchmark: five workloads over the simulator and the
//! UDP node, four end-to-end metrics from a measured run, and per-layer
//! metrics from a separate traced run. `README.md` in this directory
//! explains every metric and workload and the timing rule.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aa;
pub mod cli;
pub mod metrics;
pub mod plan;
pub mod procfs;
pub mod run;
pub mod sim;
pub mod stats;
pub mod udp;
