//! Network topologies.
//!
//! The paper evaluates Homa on two fabrics:
//!
//! * **Implementation cluster** (Figures 8–10): 16 hosts on one 10 Gbps
//!   switch — [`Topology::single_switch`].
//! * **Simulation fabric** (Figure 11, used for Figures 12–21 and Table 1):
//!   144 hosts in 9 racks of 16, a TOR per rack, 4 spine switches —
//!   [`Topology::paper_fabric`].
//!
//! Both are instances of a two-level leaf–spine parameterized here by its
//! shape alone, and so are the larger fabrics of the scale runs
//! ([`Topology::multi_tor`]). Every fabric has Figure 11's links and
//! delays: 10 Gbps host links, 40 Gbps TOR↔spine links
//! ([`Topology::UPLINK_BPS`]), 250 ns of switch delay
//! ([`Topology::SWITCH_DELAY`]), 1.5 µs of host software turnaround
//! ([`Topology::HOST_SW_DELAY`]) and no propagation delay.
//! Packets travelling between racks are sprayed uniformly across spine
//! uplinks (per-packet load balancing, §2.2 of the paper).
//!
//! [`Topology::switch_ports`] is the one wiring table — each switch's
//! egress ports in index order, each with its peer, the peer's port back,
//! its role and its rate. The network builds its ports by walking that
//! table; fault resolution ([`crate::faults`]) finds a host's downlink
//! through [`Topology::host_port`].

use crate::stats::PortClass;
use crate::time::SimDuration;

/// Identifier of a host (0-based, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// A node in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeId {
    /// An end host.
    Host(HostId),
    /// Top-of-rack switch for rack `r`.
    Tor(u32),
    /// Spine switch `s`.
    Spine(u32),
}

/// How far apart two hosts sit in the fabric — the key for the
/// unloaded-latency model (and the slowdown denominator cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathClass {
    /// Same rack: host → TOR → host.
    SameRack,
    /// Different racks: host → TOR → spine → TOR → host.
    CrossRack,
}

/// Why a fabric cannot be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// `multi_tor`: no rack size of 10, 16 or 8 divides the host count
    /// into at least two racks.
    AwkwardHostCount(u32),
    /// [`Topology::check_shape`] failed, for the reason given.
    BadShape(&'static str),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::AwkwardHostCount(hosts) => write!(
                f,
                "multi_tor: pick a host count >= 16 divisible by 10, 16 or 8, got {hosts}"
            ),
            TopologyError::BadShape(why) => write!(f, "bad fabric shape: {why}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// One egress port as the wiring table lists it (see
/// [`Topology::switch_ports`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSpec {
    /// The node at the far end of the link.
    pub peer: NodeId,
    /// The peer's egress port that leads back to this node.
    pub peer_port: u32,
    /// The port's role, which also selects its queue discipline.
    pub class: PortClass,
    /// Link speed in bits/second.
    pub rate_bps: u64,
}

/// A two-level leaf–spine fabric: its shape, and the host link rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Number of racks (each with one TOR switch).
    pub racks: u32,
    /// Hosts per rack.
    pub hosts_per_rack: u32,
    /// Number of spine switches, each linked to every TOR (0 for a
    /// single-rack cluster).
    pub spines: u32,
    /// Host↔TOR link speed in bits/second: Figure 11's 10 Gbps on every
    /// fabric the constructors build.
    pub host_link_bps: u64,
}

impl Topology {
    /// TOR↔spine link speed in bits/second (Figure 11).
    pub const UPLINK_BPS: u64 = 40_000_000_000;
    /// Per-switch internal (processing) delay (Figure 11).
    pub const SWITCH_DELAY: SimDuration = SimDuration::from_nanos(250);
    /// Host software turnaround: delay from a packet fully arriving at a
    /// host NIC until the transport can react to it (Figure 11).
    pub const HOST_SW_DELAY: SimDuration = SimDuration::from_nanos(1_500);

    /// The Figure 11 fabric: 9 racks x 16 hosts, 4 spines.
    pub fn paper_fabric() -> Self {
        Topology::scaled_fabric(9, 16, 4)
    }

    /// A leaf–spine fabric of the given shape with the paper's link
    /// speeds and delays, for faster experiments.
    pub fn scaled_fabric(racks: u32, hosts_per_rack: u32, spines: u32) -> Self {
        Topology { racks, hosts_per_rack, spines, host_link_bps: 10_000_000_000 }
    }

    /// A multi-TOR fabric for `hosts` hosts (40, 100, 160, ...), with the
    /// paper's link speeds and delays. Hosts are grouped into racks of 10
    /// (or 16/8 when 10 does not divide `hosts`), and the spine layer is
    /// sized so the fabric is not oversubscribed — the shape the scale
    /// experiments and the `perf-smoke` CI gate run on (1,024 hosts make
    /// 64 racks of 16 under 4 spines).
    ///
    /// # Panics
    /// If no rack size of 10, 16 or 8 divides `hosts` into at least two
    /// racks (so `hosts` must be ≥ 16 and divisible by one of them;
    /// counts like 8 or 10 make a single rack — use
    /// [`single_switch`](Self::single_switch) for those). CLI paths that
    /// want a one-line error instead use
    /// [`try_multi_tor`](Self::try_multi_tor).
    #[track_caller]
    pub fn multi_tor(hosts: u32) -> Self {
        Topology::try_multi_tor(hosts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`multi_tor`](Self::multi_tor) that reports awkward host counts
    /// as a [`TopologyError`] instead of panicking.
    pub fn try_multi_tor(hosts: u32) -> Result<Self, TopologyError> {
        let hosts_per_rack = [10u32, 16, 8]
            .into_iter()
            .find(|hpr| hosts % hpr == 0 && hosts / hpr >= 2)
            .ok_or(TopologyError::AwkwardHostCount(hosts))?;
        let racks = hosts / hosts_per_rack;
        let base = Topology::paper_fabric();
        // Enough spine bandwidth that a rack's full uplink demand fits:
        // hosts_per_rack * 10G <= spines * 40G.
        let spines = (hosts_per_rack as u64 * base.host_link_bps).div_ceil(Self::UPLINK_BPS) as u32;
        Ok(Topology { racks, hosts_per_rack, spines, ..base })
    }

    /// The implementation cluster of §5.1: `n` hosts on a single 10 Gbps
    /// switch.
    pub fn single_switch(n: u32) -> Self {
        Topology { racks: 1, hosts_per_rack: n, spines: 0, ..Topology::paper_fabric() }
    }

    /// Total number of hosts.
    pub fn num_hosts(&self) -> u32 {
        self.racks * self.hosts_per_rack
    }

    /// Rack index of a host.
    pub fn rack_of(&self, h: HostId) -> u32 {
        h.0 / self.hosts_per_rack
    }

    /// Index of `h` within its rack (the TOR's downlink port number).
    pub fn index_in_rack(&self, h: HostId) -> u32 {
        h.0 % self.hosts_per_rack
    }

    /// Number of egress ports on a TOR switch (down + up).
    pub fn tor_ports(&self) -> u32 {
        self.hosts_per_rack + self.spines
    }

    /// A host's NIC port: its peer is the host's TOR, and the port back
    /// is the TOR's downlink to the host.
    pub fn host_port(&self, h: HostId) -> PortSpec {
        PortSpec {
            peer: NodeId::Tor(self.rack_of(h)),
            peer_port: self.index_in_rack(h),
            class: PortClass::HostUp,
            rate_bps: self.host_link_bps,
        }
    }

    /// Every switch of the fabric: the TORs in rack order, then the
    /// spines in id order.
    pub fn switches(&self) -> impl Iterator<Item = NodeId> {
        (0..self.racks).map(NodeId::Tor).chain((0..self.spines).map(NodeId::Spine))
    }

    /// The wiring table: the egress ports of switch `node`, in port-index
    /// order. A TOR has one downlink per host of its rack, then one uplink
    /// to every spine (whose down port is the rack's number); a spine has
    /// one downlink per rack.
    ///
    /// # Panics
    /// If `node` is a host.
    pub fn switch_ports(&self, node: NodeId) -> Vec<PortSpec> {
        let hpr = self.hosts_per_rack;
        let link = |class, peer, peer_port, rate_bps| PortSpec { peer, peer_port, class, rate_bps };
        match node {
            NodeId::Host(_) => panic!("hosts are not switches"),
            NodeId::Tor(r) => (0..hpr)
                .map(|i| {
                    link(
                        PortClass::TorDown,
                        NodeId::Host(HostId(r * hpr + i)),
                        0,
                        self.host_link_bps,
                    )
                })
                .chain(
                    (0..self.spines)
                        .map(|j| link(PortClass::TorUp, NodeId::Spine(j), r, Self::UPLINK_BPS)),
                )
                .collect(),
            NodeId::Spine(s) => (0..self.racks)
                .map(|r| link(PortClass::SpineDown, NodeId::Tor(r), hpr + s, Self::UPLINK_BPS))
                .collect(),
        }
    }

    /// The shape check [`crate::Network::new`] and the spec-line parser
    /// share: what every fabric needs whatever built it.
    pub fn check_shape(&self) -> Result<(), TopologyError> {
        let why = if self.racks < 1 {
            "need at least one rack"
        } else if self.hosts_per_rack < 2 {
            "need at least two hosts per rack"
        } else if self.racks > 1 && self.spines < 1 {
            "multi-rack fabrics need spines"
        } else if self.host_link_bps == 0 {
            "link rates must be positive"
        } else if self.racks.checked_mul(self.hosts_per_rack).is_none() {
            "host count overflows u32"
        } else {
            return Ok(());
        };
        Err(TopologyError::BadShape(why))
    }

    /// How far apart two hosts sit (the unloaded-latency path class).
    pub fn path_class(&self, a: HostId, b: HostId) -> PathClass {
        if self.rack_of(a) == self.rack_of(b) {
            PathClass::SameRack
        } else {
            PathClass::CrossRack
        }
    }

    /// All hosts in the fabric.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> {
        (0..self.num_hosts()).map(HostId)
    }

    /// The number of uplink-speed hops and switch traversals of the
    /// class's store-and-forward path (host links excluded: every path
    /// starts and ends with one).
    fn path_hops(&self, class: PathClass) -> (u64, u64) {
        match class {
            // Host -> TOR -> host.
            PathClass::SameRack => (0, 1),
            // Host -> TOR -> spine -> TOR -> host.
            PathClass::CrossRack => (2, 3),
        }
    }

    /// The minimum one-way latency for `len` application bytes between
    /// hosts separated by `class` on an idle network, per the
    /// store-and-forward model. All bytes serialize onto the host uplink
    /// back-to-back; the *last* packet then store-and-forwards across the
    /// remaining hops, and the receiver's software delay is added.
    /// `per_packet_payload` and `per_packet_overhead` describe the
    /// transport's segmentation. The harness's slowdown denominator
    /// (`Run::unloaded_ns`) is this, per message, for its path's class.
    pub fn unloaded_one_way_class(
        &self,
        len: u64,
        per_packet_payload: u64,
        per_packet_overhead: u64,
        class: PathClass,
    ) -> SimDuration {
        let full_pkts = len / per_packet_payload;
        let tail = len % per_packet_payload;
        let npkts = full_pkts + (tail > 0) as u64;
        let npkts = npkts.max(1);
        let last_pkt_bytes = if tail > 0 {
            tail + per_packet_overhead
        } else {
            per_packet_payload + per_packet_overhead
        };
        let wire_total = len + npkts * per_packet_overhead;

        let (uplink_hops, switch_hops) = self.path_hops(class);
        let first_link = SimDuration::serialization(wire_total, self.host_link_bps);
        let mut rest = SimDuration::ZERO;
        rest += Self::SWITCH_DELAY * switch_hops;
        rest += SimDuration::serialization(last_pkt_bytes, Self::UPLINK_BPS) * uplink_hops;
        rest += SimDuration::serialization(last_pkt_bytes, self.host_link_bps);
        first_link + rest + Self::HOST_SW_DELAY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's RTTbytes evidence (§2.2), kept beside its tests: the
    /// endpoint reads the constant `homa::config::RTT_BYTES`.
    impl Topology {
        /// Round-trip time for a minimal control packet exchange: a small
        /// packet (e.g. a grant of `ctrl_bytes`) travelling one way, the peer's
        /// software turnaround, and a full-size data packet (`data_bytes` on the
        /// wire) travelling back. This is the quantity the paper uses to define
        /// `RTTbytes` (§2.2: "about 9.7 Kbytes" on the simulated fabric).
        fn control_data_rtt(&self, ctrl_bytes: u64, data_bytes: u64) -> SimDuration {
            // The pacing RTT is the fabric's *longest* unloaded path.
            let class = if self.spines > 0 { PathClass::CrossRack } else { PathClass::SameRack };
            let (uplink_hops, switch_hops) = self.path_hops(class);
            let one_way = |bytes: u64| -> SimDuration {
                let mut d = SimDuration::ZERO;
                d += SimDuration::serialization(bytes, self.host_link_bps) * 2;
                d += SimDuration::serialization(bytes, Self::UPLINK_BPS) * uplink_hops;
                d += Self::SWITCH_DELAY * switch_hops;
                d
            };
            one_way(ctrl_bytes) + Self::HOST_SW_DELAY + one_way(data_bytes) + Self::HOST_SW_DELAY
        }

        /// The bandwidth-delay product of the fabric in whole bytes:
        /// `RTTbytes` in the paper's terminology.
        fn rtt_bytes(&self, ctrl_bytes: u64, data_bytes: u64) -> u64 {
            let rtt = self.control_data_rtt(ctrl_bytes, data_bytes);
            let bits = rtt.as_nanos() as u128 * self.host_link_bps as u128 / 1_000_000_000;
            (bits / 8) as u64
        }
    }

    #[test]
    fn paper_fabric_shape() {
        let t = Topology::paper_fabric();
        assert_eq!(t.num_hosts(), 144);
        assert_eq!(t.tor_ports(), 20);
        assert_eq!(t.rack_of(HostId(0)), 0);
        assert_eq!(t.rack_of(HostId(15)), 0);
        assert_eq!(t.rack_of(HostId(16)), 1);
        assert_eq!(t.index_in_rack(HostId(17)), 1);
        assert_eq!(t.rack_of(HostId(143)), 8);
    }

    #[test]
    fn multi_tor_shapes() {
        let t = Topology::multi_tor(40);
        assert_eq!((t.racks, t.hosts_per_rack, t.num_hosts()), (4, 10, 40));
        assert!(t.spines >= 3, "oversubscribed: {} spines", t.spines);
        let t = Topology::multi_tor(100);
        assert_eq!((t.racks, t.hosts_per_rack, t.num_hosts()), (10, 10, 100));
        let t = Topology::multi_tor(160);
        assert_eq!((t.racks, t.hosts_per_rack, t.num_hosts()), (16, 10, 160));
        let t = Topology::multi_tor(16);
        assert_eq!((t.racks, t.hosts_per_rack, t.num_hosts()), (2, 8, 16));
        let t = Topology::multi_tor(1024);
        assert_eq!((t.racks, t.hosts_per_rack, t.spines, t.num_hosts()), (64, 16, 4, 1024));
        // Spine bandwidth covers a full rack's uplink demand.
        for hosts in [40, 100, 160, 1024] {
            let t = Topology::multi_tor(hosts);
            assert!(
                t.spines as u64 * Topology::UPLINK_BPS >= t.hosts_per_rack as u64 * t.host_link_bps,
                "{hosts}-host fabric oversubscribed"
            );
        }
    }

    #[test]
    #[should_panic(expected = "multi_tor")]
    fn multi_tor_rejects_awkward_host_counts() {
        let _ = Topology::multi_tor(17);
    }

    #[test]
    fn rtt_bytes_close_to_paper() {
        // The paper reports ~9.7 KB RTTbytes on the Figure 11 fabric
        // (§2.2). With this repo's framing (a 40-byte GRANT, a 1,460-byte
        // full DATA frame) the fabric's own figure is within 5 % of the
        // constant every endpoint uses. The 1,024-host scale fabric has the
        // same cross-rack path, so it runs at the same RTTbytes.
        use homa::config::{CTRL_BYTES, DATA_OVERHEAD, MAX_PAYLOAD, RTT_BYTES};
        let rtt_bytes =
            |t: Topology| t.rtt_bytes(CTRL_BYTES.into(), (MAX_PAYLOAD + DATA_OVERHEAD).into());
        let rb = rtt_bytes(Topology::paper_fabric());
        assert_eq!(rb, 9_375);
        assert!(rb.abs_diff(RTT_BYTES) * 20 <= RTT_BYTES, "rtt_bytes {rb} vs {RTT_BYTES}");
        assert_eq!(rtt_bytes(Topology::multi_tor(1024)), rb);
    }

    #[test]
    fn unloaded_single_packet_latency_close_to_paper() {
        // Paper: minimum one-way time for a small message is 2.3us on the
        // simulated fabric.
        let t = Topology::paper_fabric();
        let d = t.unloaded_one_way_class(100, 1400, 60, PathClass::CrossRack);
        let us = d.as_micros_f64();
        assert!((1.9..2.9).contains(&us), "unloaded {us}us out of expected band");
    }

    #[test]
    fn unloaded_latency_monotone_in_size() {
        let t = Topology::paper_fabric();
        for class in [PathClass::SameRack, PathClass::CrossRack] {
            let mut prev = SimDuration::ZERO;
            for len in [1u64, 100, 1_000, 10_000, 100_000, 1_000_000] {
                let d = t.unloaded_one_way_class(len, 1400, 60, class);
                assert!(d >= prev, "latency not monotone at {len} ({class:?})");
                prev = d;
            }
        }
    }

    #[test]
    fn unloaded_large_message_dominated_by_line_rate() {
        let t = Topology::paper_fabric();
        let len = 10_000_000u64;
        let d = t.unloaded_one_way_class(len, 1400, 60, PathClass::CrossRack);
        // 10 MB at 10 Gbps is 8ms of pure serialization; overheads add a
        // few percent but the total must be within 10%.
        let pure = 8.0e-3;
        assert!((d.as_secs_f64() - pure).abs() / pure < 0.10);
    }

    #[test]
    fn single_switch_unloaded_is_shorter() {
        let big = Topology::paper_fabric();
        let small = Topology::single_switch(16);
        let across = |t: &Topology| {
            let class = t.path_class(HostId(0), HostId(t.num_hosts() - 1));
            t.unloaded_one_way_class(100, 1400, 60, class)
        };
        assert!(across(&small) < across(&big));
    }

    #[test]
    fn try_constructors_report_errors() {
        assert_eq!(Topology::try_multi_tor(17), Err(TopologyError::AwkwardHostCount(17)));
        assert!(Topology::try_multi_tor(17).unwrap_err().to_string().contains("multi_tor"));
        assert!(Topology::try_multi_tor(40).is_ok());
        let overflow = TopologyError::BadShape("host count overflows u32");
        assert_eq!(Topology::scaled_fabric(70_000, 70_000, 1).check_shape(), Err(overflow));
    }

    #[test]
    fn shape_check_names_what_is_missing() {
        let why = |t: Topology| t.check_shape().unwrap_err().to_string();
        assert_eq!(
            why(Topology::single_switch(1)),
            "bad fabric shape: need at least two hosts per rack"
        );
        assert_eq!(
            why(Topology::scaled_fabric(0, 4, 1)),
            "bad fabric shape: need at least one rack"
        );
        assert_eq!(
            why(Topology::scaled_fabric(2, 4, 0)),
            "bad fabric shape: multi-rack fabrics need spines"
        );
        assert_eq!(Topology::paper_fabric().check_shape(), Ok(()));
        assert_eq!(Topology::single_switch(2).check_shape(), Ok(()));
    }
}
