//! Network topologies.
//!
//! The paper evaluates Homa on two fabrics:
//!
//! * **Implementation cluster** (Figures 8–10): 16 hosts on one 10 Gbps
//!   switch — [`Topology::single_switch`].
//! * **Simulation fabric** (Figure 11, used for Figures 12–21 and Table 1):
//!   144 hosts in 9 racks of 16, a TOR per rack, 4 spine (aggregation)
//!   switches, 10 Gbps host links and 40 Gbps TOR↔spine links, 250 ns of
//!   switch delay, zero propagation delay, and 1.5 µs of host software
//!   turnaround — [`Topology::paper_fabric`].
//!
//! Both are instances of a two-level leaf–spine parameterized here. Packets
//! travelling between racks are sprayed uniformly across spine uplinks
//! (per-packet load balancing, §2.2 of the paper).
//!
//! For experiments beyond the paper's fabric size the same struct also
//! describes a **three-tier k-ary fat tree** ([`Topology::fat_tree`]):
//! k pods of k/2 edge (TOR) and k/2 aggregation switches plus (k/2)²
//! cores, for k³/4 hosts. The `kind` field selects the wiring, and this
//! module is where it is read: [`Topology::switch_ports`] is the one
//! wiring table — each switch's egress ports in index order, each with
//! its peer, the peer's port back, its role and its rate. The network
//! builds its ports by walking that table and fault resolution
//! ([`crate::faults`]) looks links up in it; beyond it, only packet
//! routing and the unloaded-latency model here know one fabric kind from
//! another.

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
    /// Spine (aggregation) switch `s`.
    Spine(u32),
}

/// How the switch layers above the TORs are wired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricKind {
    /// Two tiers: every TOR has one uplink to every spine switch.
    LeafSpine,
    /// Three tiers: a k-ary fat tree. Racks are edge switches grouped
    /// into pods of k/2; the `spines` field counts aggregation switches
    /// (ids `0..k²/2`, k/2 per pod) followed by core switches
    /// (ids `k²/2..k²/2 + k²/4`).
    FatTree {
        /// Fat-tree arity (even, ≥ 4): k pods, k/2 hosts per edge.
        k: u32,
    },
}

/// How far apart two hosts sit in the fabric — the key for the
/// unloaded-latency model (and the slowdown denominator cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathClass {
    /// Same rack: host → TOR → host.
    SameRack,
    /// Different rack, same pod (fat tree only): two uplink-speed hops
    /// through one aggregation switch.
    IntraPod,
    /// Cross-pod (fat tree: through a core; leaf–spine: through a
    /// spine — the leaf–spine fabric has a single "pod").
    InterPod,
}

/// Why a fabric cannot be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// `multi_tor`: no rack size of 10, 16 or 8 divides the host count
    /// into at least two racks.
    AwkwardHostCount(u32),
    /// `fat_tree`: the arity must be even and at least 4.
    BadFatTreeArity(u32),
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
            TopologyError::BadFatTreeArity(k) => {
                write!(f, "fat_tree: arity must be even and >= 4, got {k}")
            }
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

/// A fabric description: leaf–spine or three-tier fat tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Number of racks (each with one TOR switch).
    pub racks: u32,
    /// Hosts per rack.
    pub hosts_per_rack: u32,
    /// Number of switches above the TOR tier (0 for a single-rack
    /// cluster). Leaf–spine: the spine count. Fat tree: aggregation +
    /// core switches (see [`FabricKind::FatTree`] for the id layout).
    pub spines: u32,
    /// Wiring of the tiers above the TORs.
    pub kind: FabricKind,
    /// Host↔TOR link speed in bits/second.
    pub host_link_bps: u64,
    /// TOR↔spine link speed in bits/second.
    pub uplink_bps: u64,
    /// Per-switch internal (processing) delay.
    pub switch_delay: SimDuration,
    /// Host software turnaround: delay from a packet fully arriving at a
    /// host NIC until the transport can react to it.
    pub host_sw_delay: SimDuration,
    /// Per-link propagation delay (0 in the paper's simulations).
    pub prop_delay: SimDuration,
}

impl Topology {
    /// The Figure 11 fabric: 9 racks x 16 hosts, 4 spines, 10/40 Gbps,
    /// 250 ns switch delay, 1.5 µs host software delay, zero propagation.
    pub fn paper_fabric() -> Self {
        Topology {
            racks: 9,
            hosts_per_rack: 16,
            spines: 4,
            kind: FabricKind::LeafSpine,
            host_link_bps: 10_000_000_000,
            uplink_bps: 40_000_000_000,
            switch_delay: SimDuration::from_nanos(250),
            host_sw_delay: SimDuration::from_nanos(1_500),
            prop_delay: SimDuration::ZERO,
        }
    }

    /// A scaled-down leaf–spine fabric with the paper's link speeds and
    /// delays, for faster experiments. Uplink capacity is kept
    /// non-oversubscribed like the paper's fabric.
    pub fn scaled_fabric(racks: u32, hosts_per_rack: u32, spines: u32) -> Self {
        Topology { racks, hosts_per_rack, spines, ..Topology::paper_fabric() }
    }

    /// A multi-TOR fabric for `hosts` hosts (40, 100, 160, ...), with the
    /// paper's link speeds and delays. Hosts are grouped into racks of 10
    /// (or 16/8 when 10 does not divide `hosts`), and the spine layer is
    /// sized so the fabric is not oversubscribed — the shape the scale
    /// experiments and the `perf-smoke` CI gate run on.
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
        let spines = (hosts_per_rack as u64 * base.host_link_bps).div_ceil(base.uplink_bps) as u32;
        Ok(Topology { racks, hosts_per_rack, spines, ..base })
    }

    /// A k-ary three-tier fat tree with the paper's link speeds and
    /// delays: k pods, each with k/2 edge (TOR) switches of k/2 hosts
    /// and k/2 aggregation switches, plus (k/2)² core switches — k³/4
    /// hosts total (k = 16 gives 1024 hosts), wired as
    /// [`switch_ports`](Self::switch_ports) lists. Cross-rack packets are
    /// sprayed deterministically across uplinks at every tier (see
    /// `Network`).
    ///
    /// # Panics
    /// If `k` is odd or below 4 ([`try_fat_tree`](Self::try_fat_tree)
    /// returns the error instead).
    #[track_caller]
    pub fn fat_tree(k: u32) -> Self {
        Topology::try_fat_tree(k).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`fat_tree`](Self::fat_tree) with a `Result` for CLI paths.
    pub fn try_fat_tree(k: u32) -> Result<Self, TopologyError> {
        if k < 4 || k % 2 != 0 {
            return Err(TopologyError::BadFatTreeArity(k));
        }
        if u128::from(k).pow(3) / 4 > u128::from(u32::MAX) {
            return Err(TopologyError::BadShape("host count overflows u32"));
        }
        let half = k / 2;
        Ok(Topology {
            racks: k * half,                // k pods * k/2 edge switches
            hosts_per_rack: half,           // k/2 hosts per edge switch
            spines: k * half + half * half, // aggs then cores
            kind: FabricKind::FatTree { k },
            ..Topology::paper_fabric()
        })
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

    /// Number of uplink ports on a TOR switch: one per spine in a
    /// leaf–spine fabric, one per pod-local aggregation switch (k/2) in
    /// a fat tree.
    pub fn tor_uplinks(&self) -> u32 {
        match self.kind {
            FabricKind::LeafSpine => self.spines,
            FabricKind::FatTree { k } => k / 2,
        }
    }

    /// Number of egress ports on a TOR switch (down + up).
    pub fn tor_ports(&self) -> u32 {
        self.hosts_per_rack + self.tor_uplinks()
    }

    /// Aggregation switches in a fat tree (0 in a leaf–spine fabric,
    /// where every upper-tier switch is a "spine").
    pub fn num_aggs(&self) -> u32 {
        match self.kind {
            FabricKind::LeafSpine => 0,
            FabricKind::FatTree { k } => k * (k / 2),
        }
    }

    /// Core switches in a fat tree (0 in a leaf–spine fabric).
    pub fn num_cores(&self) -> u32 {
        match self.kind {
            FabricKind::LeafSpine => 0,
            FabricKind::FatTree { k } => (k / 2) * (k / 2),
        }
    }

    /// The pod a rack belongs to (0 in a leaf–spine fabric, which is a
    /// single pod).
    pub fn pod_of_rack(&self, rack: u32) -> u32 {
        match self.kind {
            FabricKind::LeafSpine => 0,
            FabricKind::FatTree { k } => rack / (k / 2),
        }
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
    /// upper tiers in id order.
    pub fn switches(&self) -> impl Iterator<Item = NodeId> {
        (0..self.racks).map(NodeId::Tor).chain((0..self.spines).map(NodeId::Spine))
    }

    /// The wiring table: the egress ports of switch `node`, in port-index
    /// order.
    ///
    /// * A TOR has one downlink per host of its rack, then its uplinks:
    ///   to every spine (whose down port is the rack's number), or on a
    ///   fat tree to its pod's aggregation switches (whose down port is
    ///   the rack's index within the pod).
    /// * A leaf–spine spine has one downlink per rack.
    /// * Aggregation switch `a` (pod `a / (k/2)`, column `a % (k/2)`) has
    ///   k/2 downlinks to its pod's edges, then k/2 uplinks to the cores
    ///   of its column; agg → core carries the same up-facing role (and
    ///   discipline) as TOR → agg.
    /// * A core has one downlink per pod, to that pod's aggregation
    ///   switch of the core's column.
    ///
    /// # Panics
    /// If `node` is a host.
    pub fn switch_ports(&self, node: NodeId) -> Vec<PortSpec> {
        let hpr = self.hosts_per_rack;
        let link = |class, peer, peer_port| PortSpec {
            peer,
            peer_port,
            class,
            rate_bps: if class == PortClass::TorDown {
                self.host_link_bps
            } else {
                self.uplink_bps
            },
        };
        let (up, down) = (PortClass::TorUp, PortClass::SpineDown);
        match (node, self.kind) {
            (NodeId::Host(_), _) => panic!("hosts are not switches"),
            (NodeId::Tor(r), kind) => (0..hpr)
                .map(|i| link(PortClass::TorDown, NodeId::Host(HostId(r * hpr + i)), 0))
                .chain((0..self.tor_uplinks()).map(|j| match kind {
                    FabricKind::LeafSpine => link(up, NodeId::Spine(j), r),
                    FabricKind::FatTree { k } => {
                        let half = k / 2;
                        link(up, NodeId::Spine(r / half * half + j), r % half)
                    }
                }))
                .collect(),
            (NodeId::Spine(s), FabricKind::LeafSpine) => {
                (0..self.racks).map(|r| link(down, NodeId::Tor(r), hpr + s)).collect()
            }
            (NodeId::Spine(s), FabricKind::FatTree { k }) => {
                let (half, naggs) = (k / 2, self.num_aggs());
                if s < naggs {
                    let (pod, col) = (s / half, s % half);
                    (0..half)
                        .map(|i| link(down, NodeId::Tor(pod * half + i), hpr + col))
                        .chain(
                            (0..half).map(|j| link(up, NodeId::Spine(naggs + col * half + j), pod)),
                        )
                        .collect()
                } else {
                    let (col, j) = ((s - naggs) / half, (s - naggs) % half);
                    (0..k)
                        .map(|pod| link(down, NodeId::Spine(pod * half + col), half + j))
                        .collect()
                }
            }
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
        } else if self.host_link_bps == 0 || self.uplink_bps == 0 {
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
        let (ra, rb) = (self.rack_of(a), self.rack_of(b));
        if ra == rb {
            PathClass::SameRack
        } else if let FabricKind::FatTree { .. } = self.kind {
            if self.pod_of_rack(ra) == self.pod_of_rack(rb) {
                PathClass::IntraPod
            } else {
                PathClass::InterPod
            }
        } else {
            PathClass::InterPod
        }
    }

    /// The minimum delay for a transmitted packet to *arrive* at the next
    /// switch: propagation plus the switch's internal delay (250 ns on
    /// the paper fabric). This is the smallest latency by which an event
    /// at one switch can cause an event at another, which makes it the
    /// natural calendar bucket width of the event engine.
    pub fn min_forward_delay(&self) -> SimDuration {
        self.prop_delay + self.switch_delay
    }

    /// All hosts in the fabric.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> {
        (0..self.num_hosts()).map(HostId)
    }

    /// The minimum one-way network latency for a message of `len`
    /// application bytes between hosts in *different* racks on an idle
    /// network, per the store-and-forward model: full wire serialization on
    /// the sender's host link plus per-hop forwarding of the final packet,
    /// plus the receiver's software delay. `per_packet_payload` and
    /// `per_packet_overhead` describe the transport's segmentation.
    ///
    /// Used as the slowdown denominator (slowdown = observed / this).
    pub fn unloaded_one_way(
        &self,
        len: u64,
        per_packet_payload: u64,
        per_packet_overhead: u64,
    ) -> SimDuration {
        self.unloaded_one_way_path(len, per_packet_payload, per_packet_overhead, self.spines > 0)
    }

    /// [`unloaded_one_way`](Self::unloaded_one_way) with explicit path
    /// selection: `cross_rack = false` computes the two-hop, single-switch
    /// path for hosts in the same rack; `true` assumes the longest path
    /// in the fabric (cross-pod on a fat tree). Callers that know the
    /// exact path use [`unloaded_one_way_class`](Self::unloaded_one_way_class).
    pub fn unloaded_one_way_path(
        &self,
        len: u64,
        per_packet_payload: u64,
        per_packet_overhead: u64,
        cross_rack: bool,
    ) -> SimDuration {
        let class = if cross_rack { PathClass::InterPod } else { PathClass::SameRack };
        self.unloaded_one_way_class(len, per_packet_payload, per_packet_overhead, class)
    }

    /// The number of uplink-speed hops, switch traversals and propagation
    /// hops of the class's store-and-forward path (host links excluded:
    /// every path starts and ends with one).
    fn path_hops(&self, class: PathClass) -> (u64, u64, u64) {
        match (class, self.kind) {
            // Host -> TOR -> host.
            (PathClass::SameRack, _) => (0, 1, 2),
            // Host -> TOR -> spine/agg -> TOR -> host. A leaf–spine
            // fabric is a single pod, so its cross-rack path is the
            // same shape regardless of the class label.
            (PathClass::IntraPod, _) | (PathClass::InterPod, FabricKind::LeafSpine) => (2, 3, 4),
            // Host -> TOR -> agg -> core -> agg -> TOR -> host.
            (PathClass::InterPod, FabricKind::FatTree { .. }) => (4, 5, 6),
        }
    }

    /// The minimum one-way latency for `len` application bytes between
    /// hosts separated by `class`, per the store-and-forward model. All
    /// bytes serialize onto the host uplink back-to-back; the *last*
    /// packet then store-and-forwards across the remaining hops.
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

        let (uplink_hops, switch_hops, prop_hops) = self.path_hops(class);
        let first_link = SimDuration::serialization(wire_total, self.host_link_bps);
        let mut rest = SimDuration::ZERO;
        rest += self.switch_delay * switch_hops;
        rest += SimDuration::serialization(last_pkt_bytes, self.uplink_bps) * uplink_hops;
        rest += SimDuration::serialization(last_pkt_bytes, self.host_link_bps);
        first_link + rest + self.prop_delay * prop_hops + self.host_sw_delay
    }

    /// Round-trip time for a minimal control packet exchange: a small
    /// packet (e.g. a grant of `ctrl_bytes`) travelling one way, the peer's
    /// software turnaround, and a full-size data packet (`data_bytes` on the
    /// wire) travelling back. This is the quantity the paper uses to define
    /// `RTTbytes` (§2.2: "about 9.7 Kbytes" on the simulated fabric).
    pub fn control_data_rtt(&self, ctrl_bytes: u64, data_bytes: u64) -> SimDuration {
        // The pacing RTT is the fabric's *longest* unloaded path: cross-pod
        // on a fat tree, cross-rack on a leaf–spine.
        let class = if self.spines > 0 { PathClass::InterPod } else { PathClass::SameRack };
        let (uplink_hops, switch_hops, prop_hops) = self.path_hops(class);
        let one_way = |bytes: u64| -> SimDuration {
            let mut d = SimDuration::ZERO;
            d += SimDuration::serialization(bytes, self.host_link_bps) * 2;
            d += SimDuration::serialization(bytes, self.uplink_bps) * uplink_hops;
            d += self.switch_delay * switch_hops;
            d += self.prop_delay * prop_hops;
            d
        };
        one_way(ctrl_bytes) + self.host_sw_delay + one_way(data_bytes) + self.host_sw_delay
    }

    /// The bandwidth-delay product of the fabric in bytes, rounded up to
    /// whole bytes: `RTTbytes` in the paper's terminology.
    pub fn rtt_bytes(&self, ctrl_bytes: u64, data_bytes: u64) -> u64 {
        let rtt = self.control_data_rtt(ctrl_bytes, data_bytes);
        let bits = rtt.as_nanos() as u128 * self.host_link_bps as u128 / 1_000_000_000;
        (bits / 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Spine bandwidth covers a full rack's uplink demand.
        for hosts in [40, 100, 160] {
            let t = Topology::multi_tor(hosts);
            assert!(
                t.spines as u64 * t.uplink_bps >= t.hosts_per_rack as u64 * t.host_link_bps,
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
        // The paper reports ~7.8us control->data RTT and ~9.7 KB RTTbytes
        // on the Figure 11 fabric with full-size (1538B wire) data packets.
        let t = Topology::paper_fabric();
        let rtt = t.control_data_rtt(64, 1538);
        let us = rtt.as_micros_f64();
        assert!((6.0..9.5).contains(&us), "rtt {us}us out of expected band");
        let rb = t.rtt_bytes(64, 1538);
        assert!((7_500..12_000).contains(&rb), "rtt_bytes {rb} out of expected band");
    }

    #[test]
    fn unloaded_single_packet_latency_close_to_paper() {
        // Paper: minimum one-way time for a small message is 2.3us on the
        // simulated fabric.
        let t = Topology::paper_fabric();
        let d = t.unloaded_one_way(100, 1400, 60);
        let us = d.as_micros_f64();
        assert!((1.9..2.9).contains(&us), "unloaded {us}us out of expected band");
    }

    #[test]
    fn unloaded_latency_monotone_in_size() {
        let t = Topology::paper_fabric();
        let mut prev = SimDuration::ZERO;
        for len in [1u64, 100, 1_000, 10_000, 100_000, 1_000_000] {
            let d = t.unloaded_one_way(len, 1400, 60);
            assert!(d >= prev, "latency not monotone at {len}");
            prev = d;
        }
    }

    #[test]
    fn unloaded_large_message_dominated_by_line_rate() {
        let t = Topology::paper_fabric();
        let len = 10_000_000u64;
        let d = t.unloaded_one_way(len, 1400, 60);
        // 10 MB at 10 Gbps is 8ms of pure serialization; overheads add a
        // few percent but the total must be within 10%.
        let pure = 8.0e-3;
        assert!((d.as_secs_f64() - pure).abs() / pure < 0.10);
    }

    #[test]
    fn single_switch_unloaded_is_shorter() {
        let big = Topology::paper_fabric();
        let small = Topology::single_switch(16);
        assert!(small.unloaded_one_way(100, 1400, 60) < big.unloaded_one_way(100, 1400, 60));
    }

    #[test]
    fn fat_tree_shapes() {
        let t = Topology::fat_tree(4);
        assert_eq!((t.racks, t.hosts_per_rack, t.num_hosts()), (8, 2, 16));
        assert_eq!((t.num_aggs(), t.num_cores(), t.spines), (8, 4, 12));
        assert_eq!(t.tor_uplinks(), 2);
        assert_eq!(t.tor_ports(), 4);

        let t = Topology::fat_tree(16);
        assert_eq!((t.racks, t.hosts_per_rack, t.num_hosts()), (128, 8, 1024));
        assert_eq!((t.num_aggs(), t.num_cores(), t.spines), (128, 64, 192));
        assert_eq!(t.tor_uplinks(), 8);
    }

    #[test]
    fn fat_tree_uplink_peers_and_pods() {
        let t = Topology::fat_tree(4);
        // Rack 0 and 1 form pod 0; rack 2 and 3 form pod 1; ...
        assert_eq!(t.pod_of_rack(0), 0);
        assert_eq!(t.pod_of_rack(1), 0);
        assert_eq!(t.pod_of_rack(2), 1);
        assert_eq!(t.pod_of_rack(7), 3);
        // Pod-local aggregation switches, down port = rack index in pod.
        let uplink = |t: &Topology, rack: u32, j: u32| {
            let p = t.switch_ports(NodeId::Tor(rack))[(t.hosts_per_rack + j) as usize];
            (p.peer, p.peer_port)
        };
        assert_eq!(uplink(&t, 0, 0), (NodeId::Spine(0), 0));
        assert_eq!(uplink(&t, 0, 1), (NodeId::Spine(1), 0));
        assert_eq!(uplink(&t, 1, 0), (NodeId::Spine(0), 1));
        assert_eq!(uplink(&t, 3, 1), (NodeId::Spine(3), 1));
        assert_eq!(uplink(&t, 7, 1), (NodeId::Spine(7), 1));
        // Leaf–spine wiring unchanged: spine j, down port = rack.
        let ls = Topology::multi_tor(40);
        assert_eq!(uplink(&ls, 2, 1), (NodeId::Spine(1), 2));
        assert_eq!(ls.pod_of_rack(3), 0);
    }

    #[test]
    fn fat_tree_path_classes() {
        let t = Topology::fat_tree(4); // hpr=2, racks of pods {0,1},{2,3},...
        assert_eq!(t.path_class(HostId(0), HostId(1)), PathClass::SameRack);
        assert_eq!(t.path_class(HostId(0), HostId(2)), PathClass::IntraPod);
        assert_eq!(t.path_class(HostId(0), HostId(4)), PathClass::InterPod);
        let ls = Topology::paper_fabric();
        assert_eq!(ls.path_class(HostId(0), HostId(1)), PathClass::SameRack);
        assert_eq!(ls.path_class(HostId(0), HostId(16)), PathClass::InterPod);
    }

    #[test]
    fn fat_tree_unloaded_ordering() {
        let t = Topology::fat_tree(16);
        for len in [100u64, 10_000, 1_000_000] {
            let same = t.unloaded_one_way_class(len, 1400, 60, PathClass::SameRack);
            let intra = t.unloaded_one_way_class(len, 1400, 60, PathClass::IntraPod);
            let inter = t.unloaded_one_way_class(len, 1400, 60, PathClass::InterPod);
            assert!(same < intra, "same-rack not shortest at {len}");
            assert!(intra < inter, "intra-pod not shorter than cross-pod at {len}");
        }
        // On a leaf–spine fabric InterPod and IntraPod are the same path,
        // and unloaded_one_way keeps its historical (cross-rack) value.
        let ls = Topology::paper_fabric();
        assert_eq!(
            ls.unloaded_one_way_class(100, 1400, 60, PathClass::IntraPod),
            ls.unloaded_one_way_class(100, 1400, 60, PathClass::InterPod)
        );
        assert_eq!(
            ls.unloaded_one_way(100, 1400, 60),
            ls.unloaded_one_way_path(100, 1400, 60, true)
        );
    }

    #[test]
    fn try_constructors_report_errors() {
        assert_eq!(Topology::try_multi_tor(17), Err(TopologyError::AwkwardHostCount(17)));
        assert!(Topology::try_multi_tor(17).unwrap_err().to_string().contains("multi_tor"));
        assert_eq!(Topology::try_fat_tree(3), Err(TopologyError::BadFatTreeArity(3)));
        assert_eq!(Topology::try_fat_tree(5), Err(TopologyError::BadFatTreeArity(5)));
        assert!(Topology::try_fat_tree(2).unwrap_err().to_string().contains("fat_tree"));
        assert!(Topology::try_fat_tree(4).is_ok());
        assert!(Topology::try_multi_tor(40).is_ok());
        let overflow = TopologyError::BadShape("host count overflows u32");
        assert_eq!(Topology::try_fat_tree(4_000_000_000), Err(overflow.clone()));
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

    #[test]
    #[should_panic(expected = "fat_tree")]
    fn fat_tree_rejects_odd_arity() {
        let _ = Topology::fat_tree(5);
    }

    #[test]
    fn fat_tree_rtt_larger_than_leaf_spine() {
        let ft = Topology::fat_tree(16);
        let ls = Topology::paper_fabric();
        assert!(ft.control_data_rtt(64, 1538) > ls.control_data_rtt(64, 1538));
        assert!(ft.rtt_bytes(64, 1538) > ls.rtt_bytes(64, 1538));
    }
}
