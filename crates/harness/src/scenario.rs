//! Declarative experiment scenarios — the driving API.
//!
//! A [`ScenarioSpec`] names everything that makes a run what it is —
//! fabric shape, workload, offered load, message budget, seed, traffic
//! pattern, fault schedule — in one value, and is the
//! *only* way to start an experiment: [`ScenarioSpec::run_oneway`],
//! [`ScenarioSpec::run_rpc_echo`] and [`ScenarioSpec::run_incast`] are
//! three arrival shapes over one run core ([`crate::driver`]), sharing
//! one options type ([`OnewayOpts`]: `sample_wasted`, `track_delay`,
//! `drain`, `keep_records`, `trace`, `trace_cap`) and one result type
//! ([`OnewayResult`]). The `perf-smoke` CI gate, the determinism tests,
//! the fuzzers and the nightly long-haul matrix all describe their runs
//! this way, so "the 100-host W4 run at 80% load with seed 42" is a
//! value that can be logged, compared, fuzzed, shrunk and replayed
//! exactly — including from its one-line text form
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
    /// A three-tier k-ary fat tree ([`Topology::fat_tree`]): `k³/4`
    /// hosts. `FatTree { k: 16 }` is the 1024-host scale fabric.
    FatTree {
        /// Fat-tree arity (even, ≥ 4).
        k: u32,
    },
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
            FabricSpec::FatTree { k } => Topology::try_fat_tree(k)?,
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
            FabricSpec::FatTree { k } => k * k * k / 4,
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
}

impl ScenarioSpec {
    /// A spec with uniform traffic and no faults.
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
        }
    }

    /// An incast spec: `concurrent` parallel RPCs per round converging on
    /// host 0. Incast is closed-loop, so `load` is fixed at `0.0` and the
    /// workload field is an unused placeholder ([`Workload::W4`]) — the
    /// Figure 10 shape (10 KB responses, three rounds) is fixed in
    /// [`crate::driver`].
    pub fn incast(name: impl Into<String>, fabric: FabricSpec, concurrent: u64, seed: u64) -> Self {
        ScenarioSpec::new(name, fabric, Workload::W4, 0.0, concurrent, seed)
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

    /// Fabric configuration for this spec: seeded, with the default
    /// strict-priority queues.
    pub fn netcfg(&self) -> NetworkConfig {
        self.netcfg_with(None)
    }

    /// Fabric configuration with a protocol-specific queue discipline on
    /// every port class (pFabric, PIAS, NDP), or the default when `None`.
    pub fn netcfg_with(&self, queues: Option<QueueDiscipline>) -> NetworkConfig {
        match queues {
            Some(q) => NetworkConfig::uniform(self.seed, q),
            None => NetworkConfig { seed: self.seed, ..NetworkConfig::default() },
        }
    }

    /// Run the all-to-all one-way experiment this spec describes (the
    /// §5.2 setup): `make` builds one transport per host, `queues`
    /// overrides the switch queue discipline (pFabric, PIAS, NDP), and
    /// `opts` holds the measurement knobs. The spec's traffic pattern and
    /// fault schedule are borrowed, not copied, for the run.
    pub fn run_oneway<M, T>(
        &self,
        queues: Option<QueueDiscipline>,
        make: impl FnMut(HostId) -> T,
        opts: &OnewayOpts,
    ) -> OnewayResult
    where
        M: PacketMeta,
        T: Transport<M>,
    {
        driver::oneway(self, queues, make, opts)
    }

    /// Run the §5.1 echo-RPC experiment this spec describes:
    /// `self.messages` echo RPCs from the first 8 hosts to the rest (so
    /// the fabric needs at least 9). In the result a "message" is a whole
    /// RPC, sized by its echoed payload.
    pub fn run_rpc_echo<M, T>(
        &self,
        queues: Option<QueueDiscipline>,
        make: impl FnMut(HostId) -> T,
        opts: &OnewayOpts,
    ) -> OnewayResult
    where
        M: PacketMeta,
        T: Transport<M>,
    {
        driver::rpc_echo(self, queues, make, opts)
    }

    /// Run the Figure 10 incast this spec describes: three rounds of
    /// `self.messages` concurrent RPCs from host 0, each answered with
    /// 10 KB; RPCs still out 500 ms into a round count as aborted, and
    /// `delivered_bps` is the aggregate response goodput. Requires an
    /// incast-shaped spec (default traffic, zero load — see
    /// [`ScenarioSpec::incast`]); the fault schedule is installed like
    /// the other shapes'. `opts.drain` and `opts.sample_wasted` do not
    /// apply to a closed-loop run.
    pub fn run_incast<M, T>(
        &self,
        queues: Option<QueueDiscipline>,
        make: impl FnMut(HostId) -> T,
        opts: &OnewayOpts,
    ) -> OnewayResult
    where
        M: PacketMeta,
        T: Transport<M>,
    {
        driver::incast(self, queues, make, opts)
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
        let ft = FabricSpec::FatTree { k: 4 };
        assert_eq!(ft.topology().num_hosts(), 16);
        assert_eq!(ft.hosts(), 16);
        assert_eq!(FabricSpec::FatTree { k: 16 }.hosts(), 1024);
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
        let res = spec.run_oneway(
            None,
            |h| HomaSimTransport::new(h, HomaConfig::default()),
            &OnewayOpts::default(),
        );
        assert_eq!(res.injected, 120);
        assert_eq!(res.delivered, 120);
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
        let res = spec.run_oneway(
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
    fn fat_tree_spec_drives_oneway_run() {
        let spec =
            ScenarioSpec::new("ft", FabricSpec::FatTree { k: 4 }, Workload::W2, 0.5, 150, 13);
        let res = spec.run_oneway(
            None,
            |h| HomaSimTransport::new(h, HomaConfig::default()),
            &OnewayOpts::default(),
        );
        assert_eq!(res.injected, 150);
        assert_eq!(res.delivered, 150);
        assert!(res.records.is_empty(), "records retained without opt-in");
        assert_eq!(res.sketch.count(), 150);
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
        let res = spec.run_oneway(
            None,
            |h| HomaSimTransport::new(h, HomaConfig::default()),
            &OnewayOpts::default().with_records(),
        );
        assert_eq!(res.records.len(), 200);
        assert!(res.records.iter().all(|r| r.completed_ns > 0));
    }
}
