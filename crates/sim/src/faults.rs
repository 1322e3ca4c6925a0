//! Declarative fault injection: link flaps, receiver pauses, and
//! per-link rate reductions, each on one host's links or receiver.
//!
//! A [`FaultPlan`] is a list of time-stamped [`Fault`]s naming a host's
//! uplink or downlink ([`LinkId`]) or the host itself. Installing a plan
//! on a [`crate::Network`] (via
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
//! [`resolve_fault`] turns a fault into the one egress port it acts on
//! (the host's NIC, or the TOR port that serves the host) and its
//! [`FaultAction`], or says why the fabric has no such host. The network
//! schedules exactly that, the spec-line parser runs the same call to
//! reject a line whose faults do not fit its fabric, and the fuzz
//! shrinker runs it to decide which faults survive a smaller fabric.

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
    /// What the fabric lacks, e.g. `no such host h9`.
    pub reason: String,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({:?})", self.reason, self.fault)
    }
}

impl std::error::Error for FaultError {}

/// Host `h`, if the fabric has it.
fn known(topo: &Topology, h: HostId) -> Result<HostId, String> {
    if h.0 < topo.num_hosts() {
        Ok(h)
    } else {
        Err(format!("no such host {h}"))
    }
}

/// The egress port a [`LinkId`] names.
fn link_port(topo: &Topology, link: LinkId) -> Result<(NodeId, u32), String> {
    match link {
        LinkId::HostUplink(h) => Ok((NodeId::Host(known(topo, h)?), 0)),
        LinkId::HostDownlink(h) => {
            let nic = topo.host_port(known(topo, h)?);
            Ok((nic.peer, nic.peer_port))
        }
    }
}

/// Resolve one declarative fault against `topo`: the egress port it acts
/// on (a pause or resume names the host's own port 0) and what it does
/// there.
pub fn resolve_fault(
    topo: &Topology,
    fault: Fault,
) -> Result<(NodeId, u32, FaultAction), FaultError> {
    use FaultAction::*;
    let on = |link, action| link_port(topo, link).map(|(n, p)| (n, p, action));
    let host = |h, action| known(topo, h).map(|h| (NodeId::Host(h), 0, action));
    let resolved = match fault {
        Fault::LinkDown(l) => on(l, LinkDown),
        Fault::LinkUp(l) => on(l, LinkUp),
        Fault::RateLimit { bps: 0, .. } => Err("rate limit must be positive".to_string()),
        Fault::RateLimit { link, bps } => on(link, SetRate(bps)),
        Fault::RateRestore(l) => on(l, RestoreRate),
        Fault::PauseReceiver(h) => host(h, PauseRx),
        Fault::ResumeReceiver(h) => host(h, ResumeRx),
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
    /// `(time, node, egress port, action)` per event, or the first fault
    /// the fabric cannot carry.
    pub fn resolve(
        &self,
        topo: &Topology,
    ) -> Result<Vec<(SimTime, NodeId, u32, FaultAction)>, FaultError> {
        self.sorted_events()
            .into_iter()
            .map(|(at, fault)| resolve_fault(topo, fault).map(|(n, p, a)| (at, n, p, a)))
            .collect()
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
    fn link_faults_resolve_to_one_port() {
        use FaultAction::*;
        // Host 6 is port 6 of the one switch, and port 2 of rack 1's TOR
        // on the two-rack leaf-spine.
        for (topo, tor) in [
            (Topology::single_switch(8), (NodeId::Tor(0), 6)),
            (Topology::scaled_fabric(2, 4, 2), (NodeId::Tor(1), 2)),
        ] {
            let h = HostId(6);
            let nic = (NodeId::Host(h), 0);
            let (up, down) = (LinkId::HostUplink(h), LinkId::HostDownlink(h));
            for (fault, (node, port), action) in [
                (Fault::LinkDown(up), nic, LinkDown),
                (Fault::LinkUp(up), nic, LinkUp),
                (Fault::LinkDown(down), tor, LinkDown),
                (Fault::LinkUp(down), tor, LinkUp),
                (Fault::RateLimit { link: up, bps: 7 }, nic, SetRate(7)),
                (Fault::RateRestore(up), nic, RestoreRate),
                (Fault::RateLimit { link: down, bps: 7 }, tor, SetRate(7)),
                (Fault::RateRestore(down), tor, RestoreRate),
                (Fault::PauseReceiver(h), nic, PauseRx),
                (Fault::ResumeReceiver(h), nic, ResumeRx),
            ] {
                assert_eq!(resolve_fault(&topo, fault), Ok((node, port, action)), "{fault:?}");
            }
        }
    }

    #[test]
    fn faults_naming_what_the_fabric_lacks_are_errors() {
        let sw = Topology::single_switch(8);
        let why = |topo: &Topology, f: Fault| resolve_fault(topo, f).unwrap_err().reason;
        assert_eq!(why(&sw, Fault::PauseReceiver(HostId(8))), "no such host h8");
        assert_eq!(why(&sw, Fault::LinkUp(LinkId::HostDownlink(HostId(9)))), "no such host h9");
        let past = LinkId::HostUplink(HostId(144));
        assert_eq!(why(&sw, Fault::LinkDown(past)), "no such host h144");
        assert_eq!(why(&Topology::paper_fabric(), Fault::LinkDown(past)), "no such host h144");
        let zero = Fault::RateLimit { link: LinkId::HostUplink(HostId(0)), bps: 0 };
        assert_eq!(why(&sw, zero), "rate limit must be positive");
        // The whole plan fails on its first misfit, and says which.
        let plan =
            FaultPlan::new().receiver_pause(HostId(1), 10, 20).receiver_pause(HostId(8), 30, 40);
        let err = plan.resolve(&sw).unwrap_err();
        assert_eq!(err.fault, Fault::PauseReceiver(HostId(8)));
        assert_eq!(err.to_string(), "no such host h8 (PauseReceiver(HostId(8)))");
    }
}
