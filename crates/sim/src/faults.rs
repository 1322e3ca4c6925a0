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

use crate::time::SimTime;
use crate::topology::HostId;

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
}
