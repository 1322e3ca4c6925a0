//! Declarative fault injection: link flaps, receiver pauses, and
//! per-link rate reductions.
//!
//! A [`FaultPlan`] (alias [`FaultSpec`]) is a list of time-stamped
//! [`Fault`]s naming fabric links ([`LinkId`]) and hosts. Installing a
//! plan on a [`crate::Network`] (via
//! [`install_faults`](crate::Network::install_faults)) schedules each
//! fault as an ordinary event on the affected node's event lane: the same
//! `(time, seq)` total order governs faults and packets alike.
//!
//! Semantics (see `crate::network` for the dispatch-path checks):
//!
//! * **Link down** — the egress port stops serving its queue and any
//!   packet *newly routed* to it is dropped (counted in
//!   [`crate::RunStats::fault_drops`]). The packet already on the wire
//!   completes; queued packets survive and resume on link-up. A down
//!   *host uplink* simply stops the NIC pull — the pull-model transport
//!   keeps its own queue, so nothing is lost on the sending host.
//! * **Receiver pause** — packets that finish arriving at a paused host
//!   are buffered in arrival order and handed to the transport when the
//!   host resumes (counted in
//!   [`crate::RunStats::deferred_deliveries`]). Timers still fire: a
//!   paused receiver models a stalled application/NIC-rx ring, not a
//!   stopped clock.
//! * **Rate limit** — the egress port's serialization rate changes for
//!   packets that *begin* transmission after the fault.
//!
//! An empty plan is the default everywhere and schedules nothing, so
//! existing scenarios replay event-for-event.
//!
//! ## Resolution
//!
//! What a fault touches is a pure function of the plan and the topology:
//! [`FaultPlan::resolve`] turns each fault into one [`FaultAction`] per
//! egress port it touches by looking links up in the wiring table
//! ([`Topology::switch_ports`]), or says why the fabric has no such link.
//! The network schedules exactly that list, the spec-line parser runs the
//! same call to reject a line whose faults do not fit its fabric, and the
//! fuzz shrinker runs it to decide which faults survive a smaller fabric.

use crate::stats::PortClass;
use crate::time::SimTime;
use crate::topology::{HostId, NodeId, Topology};

/// Names one directed link (equivalently: one egress port) of the
/// fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkId {
    /// Host NIC → TOR uplink of a host.
    HostUplink(HostId),
    /// TOR → host downlink serving a host.
    HostDownlink(HostId),
    /// TOR `rack` → spine `spine` uplink.
    TorUplink {
        /// Rack whose TOR owns the port.
        rack: u32,
        /// Destination spine switch.
        spine: u32,
    },
    /// Spine `spine` → TOR `rack` downlink.
    SpineDownlink {
        /// Spine switch that owns the port.
        spine: u32,
        /// Destination rack.
        rack: u32,
    },
}

/// One declarative fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Take a link down.
    LinkDown(LinkId),
    /// Bring a link back up.
    LinkUp(LinkId),
    /// Reduce (or change) a link's serialization rate to `bps`.
    RateLimit {
        /// The link to limit.
        link: LinkId,
        /// New rate in bits per second (> 0).
        bps: u64,
    },
    /// Restore a link's rate to its topology-configured value.
    RateRestore(LinkId),
    /// Pause packet delivery to a host's transport.
    PauseReceiver(HostId),
    /// Resume delivery; buffered packets are handed over in order.
    ResumeReceiver(HostId),
    /// Correlated failure: every link touching rack `rack` goes down as
    /// one fault event — each member host's uplink and downlink, the
    /// TOR's uplinks, and the spine downlinks into the rack. The network
    /// expands the composite into per-link actions at the same instant
    /// (in a fixed canonical order), so runs stay repeatable;
    /// `RunStats::faults_applied` counts each member link.
    RackOutage {
        /// The rack that loses power.
        rack: u32,
    },
    /// Restore every link a [`Fault::RackOutage`] of the same rack took
    /// down, together.
    RackRestore {
        /// The rack to restore.
        rack: u32,
    },
    /// Correlated failure: spine switch `spine` goes dark — its downlinks
    /// and every TOR's uplink to it go down as one fault event.
    SpineOutage {
        /// The spine switch that fails.
        spine: u32,
    },
    /// Restore every link a [`Fault::SpineOutage`] of the same spine took
    /// down, together.
    SpineRestore {
        /// The spine switch to restore.
        spine: u32,
    },
}

/// What a resolved fault does to one egress port (the pause pair: to the
/// host that owns it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Stop serving the port; packets newly routed to it are dropped.
    LinkDown,
    /// Resume service.
    LinkUp,
    /// Serialize at this many bits per second from the next packet on.
    SetRate(u64),
    /// Back to the topology's rate.
    RestoreRate,
    /// Buffer deliveries to the host.
    PauseRx,
    /// Hand the buffered deliveries over, in order.
    ResumeRx,
}

/// Why a fault does not fit a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The fault that could not be resolved.
    pub fault: Fault,
    /// What the fabric lacks, e.g. `no such spine 4`.
    pub reason: String,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({:?})", self.reason, self.fault)
    }
}

impl std::error::Error for FaultError {}

/// `node`, if the fabric has it.
fn known(topo: &Topology, node: NodeId) -> Result<NodeId, String> {
    match node {
        NodeId::Host(h) if h.0 >= topo.num_hosts() => Err(format!("no such host {h}")),
        NodeId::Tor(r) if r >= topo.racks => Err(format!("no such rack {r}")),
        NodeId::Spine(s) if s >= topo.spines => Err(format!("no such spine {s}")),
        _ => Ok(node),
    }
}

/// The egress port a [`LinkId`] names.
fn link_port(topo: &Topology, link: LinkId) -> Result<(NodeId, u32), String> {
    // The port of switch `from` whose peer is `to`. Every leaf–spine TOR
    // reaches every spine, so a miss means a fat-tree pair in two pods
    // (or a core, which links to aggregation switches only).
    let toward = |from: NodeId, to: NodeId| {
        let (from, to) = (known(topo, from)?, known(topo, to)?);
        let port = topo.switch_ports(from).iter().position(|p| p.peer == to);
        port.map(|i| (from, i as u32)).ok_or_else(|| {
            format!(
                "{from:?} has no link to {to:?}: TORs link to aggregation switches of their \
                 own pod only"
            )
        })
    };
    match link {
        LinkId::HostUplink(h) => Ok((known(topo, NodeId::Host(h))?, 0)),
        LinkId::HostDownlink(h) => {
            known(topo, NodeId::Host(h))?;
            let nic = topo.host_port(h);
            Ok((nic.peer, nic.peer_port))
        }
        LinkId::TorUplink { rack, spine } => toward(NodeId::Tor(rack), NodeId::Spine(spine)),
        LinkId::SpineDownlink { spine, rack } => toward(NodeId::Spine(spine), NodeId::Tor(rack)),
    }
}

/// Every egress port an outage of switch `sw` touches, in the order
/// [`resolve_fault`] documents.
fn member_ports(topo: &Topology, sw: NodeId) -> Result<Vec<(NodeId, u32)>, String> {
    let sw = known(topo, sw)?;
    let mut out = Vec::new();
    for (i, p) in topo.switch_ports(sw).iter().enumerate() {
        let (own, back) = ((sw, i as u32), (p.peer, p.peer_port));
        out.extend(if p.class == PortClass::TorDown { [back, own] } else { [own, back] });
    }
    Ok(out)
}

/// Resolve one declarative fault against `topo`.
///
/// A composite fault (a rack or spine outage, or its restore) expands to
/// one action per member port in a canonical order: each of the switch's
/// links, in port order, as the switch's own port then the peer's port
/// back — except that a host link lists the host's uplink first. For a
/// rack that is, per host, its uplink then its downlink, then per TOR
/// uplink the uplink itself and the upper switch's downlink into the
/// rack; for an upper switch (a spine, an aggregation switch or a core)
/// each downlink or core uplink and the port that answers it.
pub fn resolve_fault(
    topo: &Topology,
    fault: Fault,
) -> Result<Vec<(NodeId, u32, FaultAction)>, FaultError> {
    use FaultAction::*;
    let one = |link, action| link_port(topo, link).map(|(n, p)| vec![(n, p, action)]);
    let host = |h, action| known(topo, NodeId::Host(h)).map(|n| vec![(n, 0, action)]);
    let all = |sw, action| {
        member_ports(topo, sw).map(|ps| ps.into_iter().map(|(n, p)| (n, p, action)).collect())
    };
    let resolved = match fault {
        Fault::LinkDown(l) => one(l, LinkDown),
        Fault::LinkUp(l) => one(l, LinkUp),
        Fault::RateLimit { bps: 0, .. } => Err("rate limit must be positive".to_string()),
        Fault::RateLimit { link, bps } => one(link, SetRate(bps)),
        Fault::RateRestore(l) => one(l, RestoreRate),
        Fault::PauseReceiver(h) => host(h, PauseRx),
        Fault::ResumeReceiver(h) => host(h, ResumeRx),
        Fault::RackOutage { rack } => all(NodeId::Tor(rack), LinkDown),
        Fault::RackRestore { rack } => all(NodeId::Tor(rack), LinkUp),
        Fault::SpineOutage { spine } => all(NodeId::Spine(spine), LinkDown),
        Fault::SpineRestore { spine } => all(NodeId::Spine(spine), LinkUp),
    };
    resolved.map_err(|reason| FaultError { fault, reason })
}

/// A time-stamped fault schedule. Times are absolute simulation
/// nanoseconds; events at equal times apply in the order they were
/// added.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// `(at_ns, fault)` pairs; need not be pre-sorted.
    pub events: Vec<(u64, Fault)>,
}

/// The name `ScenarioSpec` uses for its fault field.
pub type FaultSpec = FaultPlan;

impl FaultPlan {
    /// An empty plan (the default; schedules nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Add one fault at `at_ns`.
    pub fn at(mut self, at_ns: u64, fault: Fault) -> Self {
        self.events.push((at_ns, fault));
        self
    }

    /// Flap `link` down/up `flaps` times: down at
    /// `first_down_ns + i * period_ns` for `down_ns` each.
    pub fn link_flaps(
        mut self,
        link: LinkId,
        first_down_ns: u64,
        down_ns: u64,
        period_ns: u64,
        flaps: u32,
    ) -> Self {
        assert!(down_ns > 0 && down_ns < period_ns, "flap must come back up within its period");
        for i in 0..flaps as u64 {
            let down_at = first_down_ns + i * period_ns;
            self.events.push((down_at, Fault::LinkDown(link)));
            self.events.push((down_at + down_ns, Fault::LinkUp(link)));
        }
        self
    }

    /// Pause delivery to `host` at `at_ns`, resuming at `resume_ns`.
    pub fn receiver_pause(mut self, host: HostId, at_ns: u64, resume_ns: u64) -> Self {
        assert!(resume_ns > at_ns, "resume must follow pause");
        self.events.push((at_ns, Fault::PauseReceiver(host)));
        self.events.push((resume_ns, Fault::ResumeReceiver(host)));
        self
    }

    /// Take all of rack `rack`'s links down at `at_ns` and restore them
    /// together at `restore_ns` (a whole-rack power event).
    pub fn rack_outage(mut self, rack: u32, at_ns: u64, restore_ns: u64) -> Self {
        assert!(restore_ns > at_ns, "restore must follow the outage");
        self.events.push((at_ns, Fault::RackOutage { rack }));
        self.events.push((restore_ns, Fault::RackRestore { rack }));
        self
    }

    /// Take spine `spine` dark at `at_ns` and restore it at `restore_ns`.
    pub fn spine_outage(mut self, spine: u32, at_ns: u64, restore_ns: u64) -> Self {
        assert!(restore_ns > at_ns, "restore must follow the outage");
        self.events.push((at_ns, Fault::SpineOutage { spine }));
        self.events.push((restore_ns, Fault::SpineRestore { spine }));
        self
    }

    /// Limit `link` to `bps` between `at_ns` and `restore_ns`.
    pub fn rate_limit(mut self, link: LinkId, at_ns: u64, restore_ns: u64, bps: u64) -> Self {
        assert!(bps > 0, "rate limit must be positive");
        assert!(restore_ns > at_ns, "restore must follow the limit");
        self.events.push((at_ns, Fault::RateLimit { link, bps }));
        self.events.push((restore_ns, Fault::RateRestore(link)));
        self
    }

    /// The events sorted by time (stable: same-time events keep insertion
    /// order), as `(time, fault)` pairs ready for scheduling.
    pub fn sorted_events(&self) -> Vec<(SimTime, Fault)> {
        let mut evs: Vec<(u64, Fault)> = self.events.clone();
        evs.sort_by_key(|&(at, _)| at);
        evs.into_iter().map(|(at, f)| (SimTime::from_nanos(at), f)).collect()
    }

    /// The plan resolved against `topo`, in scheduling order: one
    /// `(time, node, egress port, action)` per port a fault touches, or
    /// the first fault the fabric cannot carry.
    pub fn resolve(
        &self,
        topo: &Topology,
    ) -> Result<Vec<(SimTime, NodeId, u32, FaultAction)>, FaultError> {
        let mut out = Vec::new();
        for (at, fault) in self.sorted_events() {
            out.extend(resolve_fault(topo, fault)?.into_iter().map(|(n, p, a)| (at, n, p, a)));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flap_builder_generates_pairs() {
        let link = LinkId::HostDownlink(HostId(3));
        let plan = FaultPlan::new().link_flaps(link, 1_000, 200, 500, 3);
        assert_eq!(plan.events.len(), 6);
        let sorted = plan.sorted_events();
        assert_eq!(sorted[0], (SimTime::from_nanos(1_000), Fault::LinkDown(link)));
        assert_eq!(sorted[1], (SimTime::from_nanos(1_200), Fault::LinkUp(link)));
        assert_eq!(sorted[4], (SimTime::from_nanos(2_000), Fault::LinkDown(link)));
        assert_eq!(sorted[5], (SimTime::from_nanos(2_200), Fault::LinkUp(link)));
    }

    #[test]
    fn sorted_events_are_stable_within_a_time() {
        let plan = FaultPlan::new()
            .at(500, Fault::PauseReceiver(HostId(1)))
            .at(100, Fault::LinkDown(LinkId::HostUplink(HostId(0))))
            .at(500, Fault::ResumeReceiver(HostId(2)));
        let sorted = plan.sorted_events();
        assert_eq!(sorted[0].1, Fault::LinkDown(LinkId::HostUplink(HostId(0))));
        assert_eq!(sorted[1].1, Fault::PauseReceiver(HostId(1)));
        assert_eq!(sorted[2].1, Fault::ResumeReceiver(HostId(2)));
    }

    #[test]
    fn default_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
        assert!(!FaultPlan::new().at(0, Fault::PauseReceiver(HostId(0))).is_empty());
    }

    #[test]
    #[should_panic(expected = "within its period")]
    fn flap_rejects_overlapping_period() {
        let _ = FaultPlan::new().link_flaps(LinkId::HostUplink(HostId(0)), 0, 500, 500, 2);
    }

    #[test]
    fn outage_builders_pair_down_with_restore() {
        let plan = FaultPlan::new().rack_outage(2, 1_000, 9_000).spine_outage(1, 3_000, 4_000);
        let sorted = plan.sorted_events();
        assert_eq!(sorted[0], (SimTime::from_nanos(1_000), Fault::RackOutage { rack: 2 }));
        assert_eq!(sorted[1], (SimTime::from_nanos(3_000), Fault::SpineOutage { spine: 1 }));
        assert_eq!(sorted[2], (SimTime::from_nanos(4_000), Fault::SpineRestore { spine: 1 }));
        assert_eq!(sorted[3], (SimTime::from_nanos(9_000), Fault::RackRestore { rack: 2 }));
    }

    #[test]
    #[should_panic(expected = "restore must follow")]
    fn outage_rejects_inverted_interval() {
        let _ = FaultPlan::new().rack_outage(0, 500, 500);
    }

    /// `(node, port)` pairs of a resolved single fault.
    fn ports(topo: &Topology, fault: Fault) -> Vec<(NodeId, u32)> {
        resolve_fault(topo, fault).unwrap().into_iter().map(|(n, p, _)| (n, p)).collect()
    }

    const fn host(h: u32) -> NodeId {
        NodeId::Host(HostId(h))
    }
    use NodeId::{Spine, Tor};

    // The four expansion tests below hold the table-driven resolver to
    // the order the hand-written one produced (printed at PR 19): event
    // sequence numbers, and so tie-breaks, follow it.

    #[test]
    fn leaf_spine_rack_outage_expands_in_canonical_order() {
        let topo = Topology::scaled_fabric(2, 4, 2);
        let want = vec![
            (host(4), 0),
            (Tor(1), 0),
            (host(5), 0),
            (Tor(1), 1),
            (host(6), 0),
            (Tor(1), 2),
            (host(7), 0),
            (Tor(1), 3),
            (Tor(1), 4),
            (Spine(0), 1),
            (Tor(1), 5),
            (Spine(1), 1),
        ];
        assert_eq!(ports(&topo, Fault::RackOutage { rack: 1 }), want);
        let restore = resolve_fault(&topo, Fault::RackRestore { rack: 1 }).unwrap();
        assert!(restore.iter().all(|&(_, _, a)| a == FaultAction::LinkUp));
        assert_eq!(restore.iter().map(|&(n, p, _)| (n, p)).collect::<Vec<_>>(), want);
    }

    #[test]
    fn leaf_spine_spine_outage_expands_in_canonical_order() {
        let topo = Topology::scaled_fabric(2, 4, 2);
        assert_eq!(
            resolve_fault(&topo, Fault::SpineRestore { spine: 1 }).unwrap(),
            vec![
                (Spine(1), 0, FaultAction::LinkUp),
                (Tor(0), 5, FaultAction::LinkUp),
                (Spine(1), 1, FaultAction::LinkUp),
                (Tor(1), 5, FaultAction::LinkUp),
            ]
        );
    }

    #[test]
    fn fat_tree_rack_outage_expands_in_canonical_order() {
        let want = vec![
            (host(6), 0),
            (Tor(3), 0),
            (host(7), 0),
            (Tor(3), 1),
            (Tor(3), 2),
            (Spine(2), 1),
            (Tor(3), 3),
            (Spine(3), 1),
        ];
        assert_eq!(ports(&Topology::fat_tree(4), Fault::RackOutage { rack: 3 }), want);
    }

    #[test]
    fn fat_tree_agg_and_core_outages_expand_in_canonical_order() {
        let topo = Topology::fat_tree(4);
        // Aggregation switch 5 (pod 2, column 1): two edge links, then
        // its uplinks to cores 10 and 11.
        assert_eq!(
            ports(&topo, Fault::SpineOutage { spine: 5 }),
            vec![
                (Spine(5), 0),
                (Tor(4), 3),
                (Spine(5), 1),
                (Tor(5), 3),
                (Spine(5), 2),
                (Spine(10), 2),
                (Spine(5), 3),
                (Spine(11), 2),
            ]
        );
        // Core 10 (column 1, first of its column): one link per pod, to
        // that pod's column-1 aggregation switch.
        assert_eq!(
            ports(&topo, Fault::SpineOutage { spine: 10 }),
            vec![
                (Spine(10), 0),
                (Spine(1), 2),
                (Spine(10), 1),
                (Spine(3), 2),
                (Spine(10), 2),
                (Spine(5), 2),
                (Spine(10), 3),
                (Spine(7), 2),
            ]
        );
        assert_eq!(
            ports(&topo, Fault::SpineOutage { spine: 8 })[..4],
            [(Spine(8), 0), (Spine(0), 2), (Spine(8), 1), (Spine(2), 2)]
        );
    }

    #[test]
    fn link_faults_resolve_to_one_port() {
        let topo = Topology::scaled_fabric(2, 4, 2);
        let h = HostId(6);
        assert_eq!(ports(&topo, Fault::LinkDown(LinkId::HostUplink(h))), [(host(6), 0)]);
        assert_eq!(ports(&topo, Fault::LinkUp(LinkId::HostDownlink(h))), [(Tor(1), 2)]);
        assert_eq!(
            resolve_fault(
                &topo,
                Fault::RateLimit { link: LinkId::TorUplink { rack: 1, spine: 1 }, bps: 7 }
            ),
            Ok(vec![(Tor(1), 5, FaultAction::SetRate(7))])
        );
        assert_eq!(
            ports(&topo, Fault::RateRestore(LinkId::SpineDownlink { spine: 0, rack: 1 })),
            [(Spine(0), 1)]
        );
        assert_eq!(
            resolve_fault(&topo, Fault::PauseReceiver(h)),
            Ok(vec![(host(6), 0, FaultAction::PauseRx)])
        );
    }

    #[test]
    fn fat_tree_tor_uplink_fault_resolves_to_pod_local_port() {
        // Rack 2 is in pod 1 (aggs 2 and 3); its uplink to agg 3 is the
        // TOR's second uplink port.
        let plan = FaultPlan::new().link_flaps(
            LinkId::TorUplink { rack: 2, spine: 3 },
            1_000,
            1_000,
            10_000,
            1,
        );
        assert_eq!(
            plan.resolve(&Topology::fat_tree(4)).unwrap(),
            vec![
                (SimTime::from_nanos(1_000), Tor(2), 3, FaultAction::LinkDown),
                (SimTime::from_nanos(2_000), Tor(2), 3, FaultAction::LinkUp),
            ]
        );
    }

    #[test]
    fn fat_tree_rejects_cross_pod_uplink_fault() {
        // Agg 0 lives in pod 0; rack 2 is in pod 1 — no such link. Nor
        // does a core (8) have a downlink into a rack.
        let topo = Topology::fat_tree(4);
        for link in [
            LinkId::TorUplink { rack: 2, spine: 0 },
            LinkId::SpineDownlink { spine: 0, rack: 2 },
            LinkId::SpineDownlink { spine: 8, rack: 0 },
        ] {
            let err = resolve_fault(&topo, Fault::LinkDown(link)).unwrap_err();
            assert_eq!(err.fault, Fault::LinkDown(link));
            assert!(err.reason.contains("pod"), "{err}");
        }
    }

    #[test]
    fn faults_naming_what_the_fabric_lacks_are_errors() {
        let sw = Topology::single_switch(8);
        let why = |topo: &Topology, f: Fault| resolve_fault(topo, f).unwrap_err().reason;
        assert_eq!(why(&sw, Fault::SpineOutage { spine: 0 }), "no such spine 0");
        assert_eq!(why(&sw, Fault::RackRestore { rack: 1 }), "no such rack 1");
        assert_eq!(why(&sw, Fault::PauseReceiver(HostId(8))), "no such host h8");
        assert_eq!(why(&sw, Fault::LinkUp(LinkId::HostDownlink(HostId(9)))), "no such host h9");
        let up = LinkId::TorUplink { rack: 0, spine: 5 };
        assert_eq!(why(&sw, Fault::LinkDown(up)), "no such spine 5");
        assert_eq!(why(&Topology::paper_fabric(), Fault::LinkDown(up)), "no such spine 5");
        let zero = Fault::RateLimit { link: LinkId::HostUplink(HostId(0)), bps: 0 };
        assert_eq!(why(&sw, zero), "rate limit must be positive");
        // The whole plan fails on its first misfit, and says which.
        let plan = FaultPlan::new().receiver_pause(HostId(1), 10, 20).spine_outage(0, 30, 40);
        let err = plan.resolve(&sw).unwrap_err();
        assert_eq!(err.fault, Fault::SpineOutage { spine: 0 });
        assert_eq!(err.to_string(), "no such spine 0 (SpineOutage { spine: 0 })");
    }
}
