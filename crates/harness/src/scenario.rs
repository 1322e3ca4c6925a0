//! Declarative experiment scenarios — the driving API.
//!
//! A [`ScenarioSpec`] names everything that makes a run what it is —
//! fabric shape, workload, offered load, message budget, seed, traffic
//! pattern, fault schedule and experiment [`Shape`] — in one value, and
//! is the *only* way to start an experiment: [`ScenarioSpec::run`]
//! drives the spec's shape (one-way messages, echo RPCs or Figure 10's
//! incast) over one run core ([`crate::driver`]), with one options type
//! ([`OnewayOpts`]: `sample_wasted`, `track_delay`, `drain`,
//! `keep_records`, `trace`, `trace_cap`) and one result type
//! ([`OnewayResult`]). The `perf-smoke` CI gate, the determinism tests,
//! the fuzzers, the figures and the nightly long-haul matrix all
//! describe their runs this way, so "the 100-host W4 run at 80% load
//! with seed 42" is a value that can be logged, compared, fuzzed, shrunk
//! and replayed exactly — including from its one-line text form
//! ([`ScenarioSpec::to_spec_line`] / [`ScenarioSpec::parse_spec_line`]).

use crate::driver::{self, OnewayOpts, OnewayResult};
use homa_sim::{
    FaultPlan, HostId, NetworkConfig, PacketMeta, QueueDiscipline, Topology, TopologyError,
    Transport,
};
use homa_workloads::{TrafficSpec, Workload};

/// The fabric a scenario runs on, by shape rather than by a prebuilt
/// [`Topology`] — so specs stay small, printable and comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricSpec {
    /// `n` hosts on one switch ([`Topology::single_switch`]).
    SingleSwitch {
        /// Number of hosts.
        hosts: u32,
    },
    /// An explicit leaf–spine shape ([`Topology::scaled_fabric`]).
    LeafSpine {
        /// Number of racks.
        racks: u32,
        /// Hosts per rack.
        hosts_per_rack: u32,
        /// Number of spine switches.
        spines: u32,
    },
    /// A multi-TOR fabric sized by host count ([`Topology::multi_tor`]).
    MultiTor {
        /// Total hosts: ≥ 16 and divisible by 10, 16 or 8, so the fabric
        /// has at least two racks.
        hosts: u32,
    },
    /// The paper's Figure 11 fabric: 144 hosts, 9 racks, 4 spines.
    Paper,
}

impl FabricSpec {
    /// Materialize the topology.
    ///
    /// # Panics
    /// If the shape cannot be built ([`Self::try_topology`] returns the
    /// error instead; a parsed spec line has already passed it).
    #[track_caller]
    pub fn topology(&self) -> Topology {
        self.try_topology().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The topology, or why this shape cannot be built: a constructor's
    /// own complaint, else [`Topology::check_shape`]'s.
    pub fn try_topology(&self) -> Result<Topology, TopologyError> {
        let topo = match *self {
            FabricSpec::SingleSwitch { hosts } => Topology::single_switch(hosts),
            FabricSpec::LeafSpine { racks, hosts_per_rack, spines } => {
                Topology::scaled_fabric(racks, hosts_per_rack, spines)
            }
            FabricSpec::MultiTor { hosts } => Topology::try_multi_tor(hosts)?,
            FabricSpec::Paper => Topology::paper_fabric(),
        };
        topo.check_shape()?;
        Ok(topo)
    }

    /// Total hosts in the fabric.
    pub fn hosts(&self) -> u32 {
        match *self {
            FabricSpec::SingleSwitch { hosts } | FabricSpec::MultiTor { hosts } => hosts,
            FabricSpec::LeafSpine { racks, hosts_per_rack, .. } => racks * hosts_per_rack,
            FabricSpec::Paper => 144,
        }
    }
}

/// How a run's messages arrive: the three experiment shapes of §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Shape {
    /// Poisson one-way messages placed by the traffic pattern (§5.2,
    /// Figures 12–21, Table 1).
    #[default]
    Oneway,
    /// Poisson echo RPCs from the first eight hosts to the rest (§5.1,
    /// Figures 8–9); the fabric needs at least nine hosts. A "message"
    /// of the result is a whole RPC, sized by its echoed payload.
    Rpc,
    /// Figure 10: three rounds of `messages` concurrent RPCs from host
    /// 0, each answered with 10 KB; RPCs still out 500 ms into a round
    /// count as aborted, and `delivered_bps` is the response goodput.
    /// Closed-loop: the traffic stays uniform and the load 0.
    Incast,
}

impl Shape {
    /// The `shape=` token's value.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Oneway => "oneway",
            Shape::Rpc => "rpc",
            Shape::Incast => "incast",
        }
    }
}

/// One fully-specified experiment: everything a run is a pure function
/// of, minus the transport (which the caller supplies, so one spec can be
/// replayed across protocols).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Short machine-friendly name (`w4_80_100h`, no whitespace); keys
    /// the perf-smoke baseline comparison and leads the spec line.
    pub name: String,
    /// Fabric shape.
    pub fabric: FabricSpec,
    /// Message-size workload (the paper's W1–W5).
    pub workload: Workload,
    /// Offered load as a fraction of aggregate host-link bandwidth.
    pub load: f64,
    /// Messages (or RPCs, or concurrent incast requests) to inject.
    pub messages: u64,
    /// Seed for all randomness in the run.
    pub seed: u64,
    /// Source–destination pattern: the paper's uniform-random all-to-all
    /// (the default) or an incast onto host 0.
    pub traffic: TrafficSpec,
    /// Declarative fault schedule (link flaps, receiver pauses, rate
    /// limits). Empty by default: no events are scheduled and runs are
    /// unchanged.
    pub faults: FaultPlan,
    /// The experiment shape (one-way by default).
    pub shape: Shape,
}

impl ScenarioSpec {
    /// A one-way spec with uniform traffic and no faults.
    pub fn new(
        name: impl Into<String>,
        fabric: FabricSpec,
        workload: Workload,
        load: f64,
        messages: u64,
        seed: u64,
    ) -> Self {
        ScenarioSpec {
            name: name.into(),
            fabric,
            workload,
            load,
            messages,
            seed,
            traffic: TrafficSpec::default(),
            faults: FaultPlan::default(),
            shape: Shape::Oneway,
        }
    }

    /// An incast spec ([`Shape::Incast`]): `concurrent` parallel RPCs
    /// per round converging on host 0. Incast is closed-loop, so `load`
    /// is fixed at `0.0` and the workload picks only the Homa priority
    /// map ([`Workload::W4`]) — the Figure 10 shape (10 KB responses,
    /// three rounds) is fixed in [`crate::driver`].
    pub fn incast(name: impl Into<String>, fabric: FabricSpec, concurrent: u64, seed: u64) -> Self {
        ScenarioSpec::new(name, fabric, Workload::W4, 0.0, concurrent, seed)
            .with_shape(Shape::Incast)
    }

    /// The same scenario in a different experiment shape.
    pub fn with_shape(mut self, shape: Shape) -> Self {
        self.shape = shape;
        self
    }

    /// The same scenario under a different traffic pattern.
    pub fn with_traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = traffic;
        self
    }

    /// The same scenario with a fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The same scenario at a different offered load (capacity probes).
    pub fn with_load(mut self, load: f64) -> Self {
        self.load = load;
        self
    }

    /// The same scenario with a different message budget (shrinking).
    pub fn with_messages(mut self, messages: u64) -> Self {
        self.messages = messages;
        self
    }

    /// Materialize the topology.
    pub fn topology(&self) -> Topology {
        self.fabric.topology()
    }

    /// Fabric configuration with a protocol-specific queue discipline on
    /// every port class (pFabric, PIAS, NDP), or the default when `None`.
    pub fn netcfg_with(&self, queues: Option<QueueDiscipline>) -> NetworkConfig {
        match queues {
            Some(q) => NetworkConfig::uniform(self.seed, q),
            None => NetworkConfig { seed: self.seed, ..NetworkConfig::default() },
        }
    }

    /// Run the experiment this spec describes, in its [`Shape`]: `make`
    /// builds one transport per host, `queues` overrides the switch queue
    /// discipline (pFabric, PIAS, NDP), and `opts` holds the measurement
    /// knobs (`drain` and `sample_wasted` do not apply to a closed-loop
    /// incast). The spec's traffic pattern and fault schedule are
    /// borrowed, not copied, for the run.
    ///
    /// # Panics
    /// If an RPC or incast spec fails [`ScenarioSpec::check_buildable`]'s
    /// shape rules (a parsed spec line has already passed them).
    pub fn run<M, T>(
        &self,
        queues: Option<QueueDiscipline>,
        make: impl FnMut(HostId) -> T,
        opts: &OnewayOpts,
    ) -> OnewayResult
    where
        M: PacketMeta,
        T: Transport<M>,
    {
        self.check_shape().unwrap_or_else(|e| panic!("scenario '{}': {e}", self.name));
        match self.shape {
            Shape::Oneway => driver::oneway(self, queues, make, opts),
            Shape::Rpc => driver::rpc_echo(self, queues, make, opts),
            Shape::Incast => driver::incast(self, queues, make, opts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homa::HomaConfig;
    use homa_baselines::HomaSimTransport;

    #[test]
    fn fabric_specs_materialize() {
        assert_eq!(FabricSpec::SingleSwitch { hosts: 8 }.topology().num_hosts(), 8);
        assert_eq!(FabricSpec::MultiTor { hosts: 100 }.topology().num_hosts(), 100);
        assert_eq!(FabricSpec::Paper.topology().num_hosts(), 144);
        let ls = FabricSpec::LeafSpine { racks: 3, hosts_per_rack: 8, spines: 2 };
        assert_eq!(ls.topology().num_hosts(), 24);
        assert_eq!(ls.hosts(), 24);
        assert_eq!(FabricSpec::Paper.hosts(), 144);
        assert_eq!(FabricSpec::MultiTor { hosts: 1024 }.topology().num_hosts(), 1024);
    }

    #[test]
    fn spec_drives_oneway_run() {
        let spec = ScenarioSpec::new(
            "smoke",
            FabricSpec::SingleSwitch { hosts: 6 },
            Workload::W2,
            0.5,
            120,
            3,
        );
        let res = spec.run(
            None,
            |h| HomaSimTransport::new(h, HomaConfig::default()),
            &OnewayOpts::default(),
        );
        assert_eq!(res.injected, 120);
        assert_eq!(res.delivered, 120);
        assert!(res.records.is_empty(), "records retained without opt-in");
        assert_eq!(res.sketch.count(), 120);
    }

    #[test]
    fn default_spec_has_inert_traffic_and_faults() {
        let spec = ScenarioSpec::new(
            "plain",
            FabricSpec::SingleSwitch { hosts: 4 },
            Workload::W1,
            0.5,
            10,
            1,
        );
        assert!(spec.traffic.is_default());
        assert!(spec.faults.is_empty());
        assert_eq!(spec.shape, Shape::Oneway);
    }

    #[test]
    fn traffic_and_fault_spec_drive_a_scenario_run() {
        use homa_sim::{FaultPlan, HostId, LinkId};
        use homa_workloads::TrafficSpec;
        let spec = ScenarioSpec::new(
            "incast_flap",
            FabricSpec::SingleSwitch { hosts: 10 },
            Workload::W2,
            0.4,
            200,
            5,
        )
        .with_traffic(TrafficSpec::incast(6))
        .with_faults(
            FaultPlan::new()
                .link_flaps(LinkId::HostDownlink(HostId(0)), 50_000, 60_000, 200_000, 2)
                .receiver_pause(HostId(2), 10_000, 80_000),
        );
        let res = spec.run(
            None,
            |h| HomaSimTransport::new(h, HomaConfig::default()),
            &OnewayOpts::default(),
        );
        assert_eq!(res.injected, 200);
        assert_eq!(res.stats.faults_applied, 6);
        assert_eq!(res.delivered + res.aborted + res.lost, 200);
        assert!(res.stats.fault_drops > 0, "flap never bit");
        assert!(res.delivered >= 120, "delivered only {}", res.delivered);
    }

    #[test]
    fn leaf_spine_spec_keeps_one_record_per_message_on_request() {
        let spec = ScenarioSpec::new(
            "ab",
            FabricSpec::LeafSpine { racks: 2, hosts_per_rack: 4, spines: 2 },
            Workload::W1,
            0.6,
            200,
            9,
        );
        let res = spec.run(
            None,
            |h| HomaSimTransport::new(h, HomaConfig::default()),
            &OnewayOpts::default().with_records(),
        );
        assert_eq!(res.records.len(), 200);
        assert!(res.records.iter().all(|r| r.completed_ns > 0));
    }
}
