//! The simulation engine: hosts, switches, links, and the event loop.
//!
//! [`Network`] owns one transport instance per host plus the fabric state
//! (ports, queues, in-flight transmissions) and advances everything through
//! a single deterministic event queue.
//!
//! Life of a packet:
//!
//! 1. A transport's `next_packet` hands the packet to its host NIC when the
//!    uplink goes idle (pull model, so sender-side SRPT is exact).
//! 2. Serialization occupies the link for `wire_bytes * 8 / rate`.
//! 3. The TOR receives it after the switch's internal delay
//!    (store-and-forward), routes it — directly to a rack-local host port,
//!    or sprayed across a random spine uplink — and offers it to the egress
//!    port's [`PortQueue`].
//! 4. Ports drain their queues as fast as the link allows; each hop
//!    accumulates delay attribution into the packet.
//! 5. When the packet fully arrives at the destination host, the host
//!    software delay elapses and the receiving transport's `on_packet`
//!    runs.
//!
//! ## State layout and dispatch
//!
//! Fabric state is two flat tables. `Hosts` is a struct-of-arrays indexed
//! by [`HostId`]: transports, NIC ports, pause flags and pause buffers,
//! plus the one action buffer every transport callback borrows.
//! `switches` holds the TORs in rack order and then the upper tiers, each
//! switch a vector of ports built by walking the wiring table
//! ([`Topology::switch_ports`]); a port records its peer, so nothing past
//! construction asks how the fabric is wired, and only `route` reads the
//! fabric kind. Each event names the node whose state it touches, and the
//! network runs exactly one dispatch loop: pop the earliest event from the
//! queue, index the host or switch it names, and write whatever it
//! produces — new events, application events, trace records — straight
//! back. Events are totally ordered by `(time, seq)` with `seq` assigned
//! at insertion, so a run is a pure function of its inputs. The queue is
//! a [`HierEventQueue`]; in debug builds it checks every pop against a
//! reference heap (see [`crate::events`]), and `serve_queue` checks that
//! no waiting packet outranked the one it took, so every test and fuzz
//! run is also an invariant run.

use crate::events::{EngineStats, HierEventQueue, LaneId, TimerToken};
use crate::faults::{FaultAction, FaultPlan};
use crate::packet::{CtrlKind, Packet, PacketMeta};
use crate::queues::{PortQueue, QueueDiscipline};
use crate::stats::{PortClass, PortStats, RunStats, StreamingStats};
use crate::time::{SimDuration, SimTime};
use crate::topology::{FabricKind, HostId, NodeId, PortSpec, Topology};
use crate::trace::{FlightRecorder, TraceEvent, TraceRecord};
use crate::transport::{AppEvent, Transport, TransportActions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fabric-wide configuration knobs that are not part of the topology.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Seed for all fabric randomness (packet spraying).
    pub seed: u64,
    /// Queue discipline for TOR→host ports (where Homa's queueing lives).
    pub tor_down: QueueDiscipline,
    /// Queue discipline for TOR→spine ports.
    pub tor_up: QueueDiscipline,
    /// Queue discipline for spine→TOR ports.
    pub spine_down: QueueDiscipline,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        // 1 MB shared buffer per port, 8 strict priorities: a generous
        // commodity switch, per the paper's observation that Homa's peak
        // occupancy (146 KB) is well within typical switch capacity.
        NetworkConfig {
            seed: 1,
            tor_down: QueueDiscipline::strict8(1 << 20),
            tor_up: QueueDiscipline::strict8(1 << 20),
            spine_down: QueueDiscipline::strict8(1 << 20),
        }
    }
}

impl NetworkConfig {
    /// Same discipline on every switch port.
    pub fn uniform(seed: u64, disc: QueueDiscipline) -> Self {
        NetworkConfig { seed, tor_down: disc, tor_up: disc, spine_down: disc }
    }

    /// The queue discipline of a port of `class`.
    fn discipline(&self, class: PortClass) -> QueueDiscipline {
        match class {
            // Host NIC egress: the transport is the queue (pull model);
            // discipline here is irrelevant but harmless.
            PortClass::HostUp => QueueDiscipline::strict8(u64::MAX),
            PortClass::TorDown => self.tor_down,
            PortClass::TorUp => self.tor_up,
            PortClass::SpineDown => self.spine_down,
        }
    }
}

enum Ev<M> {
    /// A port finished serializing its current packet.
    TxDone { node: NodeId, port: u32 },
    /// A packet fully arrived at a switch (post internal delay).
    SwitchArrive { node: NodeId, pkt: Packet<M> },
    /// A packet is delivered to a host transport (post software delay).
    HostDeliver { host: HostId, pkt: Packet<M> },
    /// A transport timer fired.
    Timer { host: HostId, token: TimerToken },
    /// A scheduled fault takes effect (see [`crate::faults`]).
    Fault { node: NodeId, port: u32, action: FaultAction },
}

/// The lane every event is scheduled on. The calendar is global and a
/// lane orders nothing (see [`crate::events`]), so the queue is built
/// with one.
const LANE: LaneId = LaneId(0);

struct Port<M> {
    queue: PortQueue<M>,
    rate_bps: u64,
    /// The topology-configured rate, restored after a rate-limit fault.
    base_rate_bps: u64,
    /// Link state; a downed port neither serves its queue nor accepts
    /// newly-routed packets (they are fault-dropped).
    up: bool,
    peer: NodeId,
    class: PortClass,
    /// The packet currently being serialized, with its completion time.
    sending: Option<(Packet<M>, SimTime)>,
    stats: PortStats,
}

impl<M: PacketMeta> Port<M> {
    fn new(cfg: &NetworkConfig, spec: PortSpec) -> Self {
        Port {
            queue: PortQueue::new(cfg.discipline(spec.class)),
            rate_bps: spec.rate_bps,
            base_rate_bps: spec.rate_bps,
            up: true,
            peer: spec.peer,
            class: spec.class,
            sending: None,
            stats: PortStats::default(),
        }
    }

    fn busy(&self) -> bool {
        self.sending.is_some()
    }
}

struct SwitchNode<M> {
    ports: Vec<Port<M>>,
    /// Deterministic-spray counter for fat-tree uplink selection: mixed
    /// with the packet's flow key per decision (see [`Self::spray_next`]).
    spray: u64,
}

impl<M> SwitchNode<M> {
    /// Draw this switch's next deterministic spray decision for a
    /// `src → dst` packet: the flow key hashed with a per-switch
    /// counter, reduced to `0..n`.
    fn spray_next(&mut self, src: HostId, dst: HostId, n: u32) -> u32 {
        let c = self.spray;
        self.spray = self.spray.wrapping_add(1);
        let key = ((src.0 as u64) << 32) | dst.0 as u64;
        (splitmix64(key ^ c.wrapping_mul(0xD1B54A32D192ED03)) % n as u64) as u32
    }
}

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer used for
/// deterministic ECMP-style spray.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Every host of the fabric, struct-of-arrays, indexed by [`HostId`]: the
/// hot fields (ports in the TxDone path, transports in the delivery path)
/// are contiguous instead of interleaved in one node struct, and the cold
/// pause state does not pad the hot cache lines.
struct Hosts<M, T> {
    /// One transport per host.
    transports: Vec<T>,
    /// Host NIC egress ports.
    ports: Vec<Port<M>>,
    /// Receiver-pause flags.
    paused: Vec<bool>,
    /// Packets buffered while paused (delivered in order on resume).
    pause_bufs: Vec<Vec<Packet<M>>>,
    /// The action buffer every transport callback records into.
    scratch: TransportActions,
}

/// Index of switch `node` in `Network::switches`: TORs in rack order,
/// then the upper tiers (the order of [`Topology::switches`]).
fn switch_index(topo: &Topology, node: NodeId) -> usize {
    match node {
        NodeId::Tor(r) => r as usize,
        NodeId::Spine(s) => (topo.racks + s) as usize,
        NodeId::Host(_) => unreachable!("hosts are not switches"),
    }
}

/// Egress `port` of `node` (a host has only its NIC port).
fn port_mut<'a, M, T>(
    topo: &Topology,
    hosts: &'a mut Hosts<M, T>,
    switches: &'a mut [SwitchNode<M>],
    node: NodeId,
    port: u32,
) -> &'a mut Port<M> {
    match node {
        NodeId::Host(h) => &mut hosts.ports[h.0 as usize],
        sw => &mut switches[switch_index(topo, sw)].ports[port as usize],
    }
}

/// What every dispatch function reaches besides the host or switch its
/// event names: the topology, the event queue and application-event log
/// it writes to, the flight recorder, and the fabric's spray RNG.
struct Ctx<'a, M: PacketMeta> {
    topo: &'a Topology,
    queue: &'a mut HierEventQueue<Ev<M>>,
    app_events: &'a mut Vec<(SimTime, HostId, AppEvent)>,
    tracer: Option<&'a mut FlightRecorder>,
    rng: &'a mut StdRng,
}

impl<M: PacketMeta> Ctx<'_, M> {
    /// Whether the flight recorder wants events: one bool test. Call
    /// sites must guard with this before constructing a [`TraceEvent`].
    fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Record one trace event at `at` (a no-op unless [`Self::tracing`]).
    fn trace(&mut self, at: SimTime, ev: TraceEvent) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record(at, ev);
        }
    }
}

/// Run one callback of `host`'s transport against the shared action
/// buffer, then apply what it recorded: timers, application events, and
/// a transmit poll if it asked for one.
fn call_transport<M: PacketMeta, T: Transport<M>, R>(
    cx: &mut Ctx<'_, M>,
    hosts: &mut Hosts<M, T>,
    now: SimTime,
    host: HostId,
    f: impl FnOnce(&mut T, &mut TransportActions) -> R,
) -> R {
    let mut act = std::mem::take(&mut hosts.scratch);
    act.reset();
    let r = f(&mut hosts.transports[host.0 as usize], &mut act);
    for (at, token) in act.drain_timers() {
        debug_assert!(at >= now, "timer scheduled in the past");
        cx.queue.schedule(LANE, at.max(now), Ev::Timer { host, token });
    }
    for ev in act.drain_events() {
        if cx.tracing() {
            if let AppEvent::MessageDelivered { src, tag, len } = &ev {
                cx.trace(now, TraceEvent::MsgDelivered { host, src: *src, tag: *tag, len: *len });
            }
        }
        cx.app_events.push((now, host, ev));
    }
    let kick = act.take_tx_kick();
    hosts.scratch = act;
    if kick {
        poll_host_tx(cx, hosts, now, host);
    }
    r
}

/// Hand a fully-arrived packet to a host's transport (the tail of the
/// `HostDeliver` path, also used when a paused receiver resumes).
fn deliver_to_host<M: PacketMeta, T: Transport<M>>(
    cx: &mut Ctx<'_, M>,
    hosts: &mut Hosts<M, T>,
    now: SimTime,
    host: HostId,
    pkt: Packet<M>,
) {
    if cx.tracing() {
        if let Some(CtrlKind::Grant { offset, prio }) = pkt.meta.ctrl_kind() {
            cx.trace(now, TraceEvent::GrantReceived { host, from: pkt.src, offset, prio });
        }
    }
    call_transport(cx, hosts, now, host, |t, act| t.on_packet(now, pkt, act));
}

/// If the host uplink is idle, pull the next packet from the transport.
fn poll_host_tx<M: PacketMeta, T: Transport<M>>(
    cx: &mut Ctx<'_, M>,
    hosts: &mut Hosts<M, T>,
    now: SimTime,
    host: HostId,
) {
    let i = host.0 as usize;
    let port = &mut hosts.ports[i];
    if port.busy() || !port.up {
        return;
    }
    if let Some(pkt) = hosts.transports[i].next_packet(now) {
        debug_assert_eq!(pkt.src, host, "transport emitted packet with wrong source");
        if cx.tracing() {
            // Grants and resends are protocol-level control packets; the
            // fabric learns their meaning via [`PacketMeta::ctrl_kind`]
            // at the one place every transmission passes through.
            match pkt.meta.ctrl_kind() {
                Some(CtrlKind::Grant { offset, prio }) => {
                    cx.trace(
                        now,
                        TraceEvent::GrantIssued { from: host, to: pkt.dst, offset, prio },
                    );
                }
                Some(CtrlKind::Resend { offset, len }) => {
                    cx.trace(now, TraceEvent::Resend { from: host, to: pkt.dst, offset, len });
                }
                _ => {}
            }
        }
        begin_tx(cx, now, NodeId::Host(host), 0, port, pkt);
    }
}

/// Occupy `port` (egress `port_idx` of `node`) with `pkt` and schedule
/// the `TxDone` that frees it. Emits the packet's one
/// [`TraceEvent::TxStart`] when tracing.
fn begin_tx<M: PacketMeta>(
    cx: &mut Ctx<'_, M>,
    now: SimTime,
    node: NodeId,
    port_idx: u32,
    port: &mut Port<M>,
    pkt: Packet<M>,
) {
    debug_assert!(!port.busy(), "begin_tx on busy port");
    let dur = SimDuration::serialization(pkt.wire_bytes() as u64, port.rate_bps);
    let done_at = now + dur;
    port.stats.busy_ns += dur.as_nanos();
    port.stats.wire_bytes += pkt.wire_bytes() as u64;
    port.stats.goodput_bytes += pkt.meta.goodput_bytes() as u64;
    port.stats.packets += 1;
    port.stats.bytes_by_prio[(pkt.priority() as usize).min(7)] += pkt.wire_bytes() as u64;
    if cx.tracing() {
        cx.trace(
            now,
            TraceEvent::TxStart {
                node,
                port: port_idx,
                src: pkt.src,
                dst: pkt.dst,
                prio: pkt.priority(),
                bytes: pkt.wire_bytes(),
                dur_ns: dur.as_nanos(),
            },
        );
    }
    // Preemption-lag accounting for everything still waiting.
    port.queue.on_tx_start(&pkt, dur);
    port.sending = Some((pkt, done_at));
    cx.queue.schedule(LANE, done_at, Ev::TxDone { node, port: port_idx });
}

/// Start serializing the head of switch port `port`'s queue, if any
/// (the port must be idle), emitting its [`TraceEvent::Dequeue`]: the
/// wait split comes from [`PortQueue::last_wait`] — pure queueing behind
/// equal-or-higher traffic vs. preemption lag.
fn serve_queue<M: PacketMeta>(
    cx: &mut Ctx<'_, M>,
    now: SimTime,
    node: NodeId,
    port_idx: u32,
    port: &mut Port<M>,
) {
    let Some(next) = port.queue.dequeue(now) else { return };
    debug_assert!(
        !port.queue.waiting_outranks(&next),
        "priority inversion at {node:?} port {port_idx}: a waiting packet outranks the one dequeued"
    );
    if cx.tracing() {
        let (waited, lag) = port.queue.last_wait();
        cx.trace(
            now,
            TraceEvent::Dequeue {
                node,
                port: port_idx,
                src: next.src,
                dst: next.dst,
                prio: next.priority(),
                bytes: next.wire_bytes(),
                waited_ns: waited.as_nanos(),
                lag_ns: lag.as_nanos(),
                qbytes: port.queue.bytes(),
            },
        );
    }
    begin_tx(cx, now, node, port_idx, port, next);
}

fn on_tx_done<M: PacketMeta, T: Transport<M>>(
    cx: &mut Ctx<'_, M>,
    hosts: &mut Hosts<M, T>,
    switches: &mut [SwitchNode<M>],
    now: SimTime,
    node: NodeId,
    port_idx: u32,
) {
    let port = port_mut(cx.topo, hosts, switches, node, port_idx);
    let (pkt, _) = port.sending.take().expect("TxDone without transmission");

    // Deliver to the peer.
    match port.peer {
        NodeId::Host(h) => {
            let at = now + cx.topo.prop_delay + cx.topo.host_sw_delay;
            cx.queue.schedule(LANE, at, Ev::HostDeliver { host: h, pkt });
        }
        sw @ (NodeId::Tor(_) | NodeId::Spine(_)) => {
            let at = now + cx.topo.prop_delay + cx.topo.switch_delay;
            cx.queue.schedule(LANE, at, Ev::SwitchArrive { node: sw, pkt });
        }
    }

    // Keep the port busy with the next packet, if any.
    match node {
        NodeId::Host(h) => poll_host_tx(cx, hosts, now, h),
        // A downed link finishes its in-flight packet but does not
        // start another; service resumes on the LinkUp fault.
        _ if !port.up => {}
        _ => serve_queue(cx, now, node, port_idx, port),
    }
}

/// Pick the egress port for a `src → dst` packet at switch `sw` (which
/// is `node`).
///
/// Leaf–spine: cross-rack traffic at a TOR is sprayed across spine
/// uplinks from the fabric's seeded RNG, one draw per such arrival in
/// dispatch order.
///
/// Fat tree: up-facing hops (TOR → agg, agg → core) spray via the
/// switch's own deterministic counter hash ([`SwitchNode::spray_next`]);
/// down-facing hops are fully determined by `dst`.
fn route<M: PacketMeta>(
    cx: &mut Ctx<'_, M>,
    sw: &mut SwitchNode<M>,
    node: NodeId,
    src: HostId,
    dst: HostId,
) -> u32 {
    let topo = cx.topo;
    let dst_rack = topo.rack_of(dst);
    match (node, topo.kind) {
        (NodeId::Tor(r), _) if dst_rack == r => topo.index_in_rack(dst),
        (NodeId::Tor(_), FabricKind::LeafSpine) => {
            topo.hosts_per_rack + cx.rng.gen_range(0..topo.spines)
        }
        (NodeId::Tor(_), FabricKind::FatTree { k }) => {
            topo.hosts_per_rack + sw.spray_next(src, dst, k / 2)
        }
        (NodeId::Spine(_), FabricKind::LeafSpine) => dst_rack,
        (NodeId::Spine(s), FabricKind::FatTree { k }) => {
            let half = k / 2;
            if s < topo.num_aggs() {
                // Aggregation switch: down to the pod-local edge, or up
                // across its core uplinks (ports half..k).
                if topo.pod_of_rack(dst_rack) == s / half {
                    dst_rack % half
                } else {
                    half + sw.spray_next(src, dst, half)
                }
            } else {
                // Core switch: one down port per pod.
                topo.pod_of_rack(dst_rack)
            }
        }
        (NodeId::Host(_), _) => unreachable!("hosts do not route"),
    }
}

fn on_switch_arrive<M: PacketMeta>(
    cx: &mut Ctx<'_, M>,
    switches: &mut [SwitchNode<M>],
    fault_drops: &mut u64,
    now: SimTime,
    node: NodeId,
    mut pkt: Packet<M>,
) {
    let sw = &mut switches[switch_index(cx.topo, node)];
    let port_idx = route(cx, sw, node, pkt.src, pkt.dst);
    let port = &mut sw.ports[port_idx as usize];

    // Link-state check: packets routed to a downed egress are lost
    // (the switch has nowhere to forward them); transports recover
    // via their own retransmission machinery.
    if !port.up {
        if cx.tracing() {
            cx.trace(
                now,
                TraceEvent::FaultDrop {
                    node,
                    port: port_idx,
                    src: pkt.src,
                    dst: pkt.dst,
                    prio: pkt.priority(),
                },
            );
        }
        *fault_drops += 1;
        return;
    }

    // Hot-path bypass: an idle port with an empty queue transmits the
    // packet immediately; `pass_through` performs the byte/ECN
    // accounting of an enqueue-then-dequeue pair without touching the
    // per-level FIFOs (observable state is identical). No enqueue or
    // dequeue trace events fire here — the packet never waited; its
    // `TxStart` is the whole story.
    if !port.busy() && port.queue.pass_through(now, &mut pkt) {
        begin_tx(cx, now, node, port_idx, port, pkt);
        return;
    }

    if cx.tracing() {
        // Preemption, observed at the moment it begins: the arrival
        // outranks the packet occupying the link and will wait out its
        // residual serialization (Fig. 14's preemption lag).
        if let Some((sending, ends_at)) = &port.sending {
            if *ends_at > now && port.queue.would_outrank(&pkt, sending) {
                cx.trace(
                    now,
                    TraceEvent::Preempted {
                        node,
                        port: port_idx,
                        prio: pkt.priority(),
                        over_prio: sending.priority(),
                        lag_ns: ends_at.saturating_since(now).as_nanos(),
                    },
                );
            }
        }
    }

    let (src, dst, prio) = (pkt.src, pkt.dst, pkt.priority());
    let qbytes_before = port.queue.bytes();
    // The packet on the wire is lent to the queue: `sending` and `queue`
    // are disjoint fields of the port.
    let in_flight = port.sending.as_ref().map(|(p, t)| (p, *t));
    let outcome = port.queue.enqueue(now, pkt, in_flight);
    if cx.tracing() {
        cx.trace(
            now,
            TraceEvent::Enqueue {
                node,
                port: port_idx,
                src,
                dst,
                prio,
                bytes: port.queue.bytes().saturating_sub(qbytes_before) as u32,
                qpkts: port.queue.len() as u32,
                qbytes: port.queue.bytes(),
                outcome,
            },
        );
    }
    if !port.busy() {
        serve_queue(cx, now, node, port_idx, port);
    }
}

fn apply_fault<M: PacketMeta, T: Transport<M>>(
    cx: &mut Ctx<'_, M>,
    hosts: &mut Hosts<M, T>,
    switches: &mut [SwitchNode<M>],
    now: SimTime,
    node: NodeId,
    port_idx: u32,
    action: FaultAction,
) {
    if let FaultAction::PauseRx | FaultAction::ResumeRx = action {
        let NodeId::Host(h) = node else { unreachable!("receiver pause resolved to a host") };
        let i = h.0 as usize;
        hosts.paused[i] = action == FaultAction::PauseRx;
        if !hosts.paused[i] {
            // Deliver everything buffered while paused, in arrival
            // order, at the resume instant. The buffer is swapped
            // back after draining so its allocation is reused next
            // pause.
            let mut buf = std::mem::take(&mut hosts.pause_bufs[i]);
            for pkt in buf.drain(..) {
                deliver_to_host(cx, hosts, now, h, pkt);
            }
            hosts.pause_bufs[i] = buf;
        }
        return;
    }
    let port = port_mut(cx.topo, hosts, switches, node, port_idx);
    match action {
        FaultAction::LinkDown => port.up = false,
        FaultAction::LinkUp => {
            port.up = true;
            // Restart service: a host pulls from its transport, a
            // switch port from its (preserved) queue.
            match node {
                NodeId::Host(h) => poll_host_tx(cx, hosts, now, h),
                _ if port.busy() => {}
                _ => serve_queue(cx, now, node, port_idx, port),
            }
        }
        FaultAction::SetRate(bps) => port.rate_bps = bps,
        FaultAction::RestoreRate => port.rate_bps = port.base_rate_bps,
        FaultAction::PauseRx | FaultAction::ResumeRx => unreachable!("handled above"),
    }
}

/// Summary of one `run_until` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepOutput {
    /// Number of events processed.
    pub events: u64,
}

/// The simulated network: fabric plus one transport per host.
pub struct Network<M: PacketMeta, T: Transport<M>> {
    topo: Topology,
    cfg: NetworkConfig,
    now: SimTime,
    queue: HierEventQueue<Ev<M>>,
    hosts: Hosts<M, T>,
    /// TORs in rack order, then the upper tiers (see [`switch_index`]).
    switches: Vec<SwitchNode<M>>,
    rng: StdRng,
    app_events: Vec<(SimTime, HostId, AppEvent)>,
    events_processed: u64,
    faults_applied: u64,
    fault_drops: u64,
    deferred_deliveries: u64,
    /// The flight recorder, when [`Self::enable_trace`] installed one.
    /// `None` costs one branch per guarded emit site.
    tracer: Option<FlightRecorder>,
}

impl<M: PacketMeta, T: Transport<M>> Network<M, T> {
    /// Build a network over `topo` with a transport per host produced by
    /// `make_transport`.
    ///
    /// # Panics
    /// If `topo` fails [`Topology::check_shape`].
    pub fn new(
        topo: Topology,
        cfg: NetworkConfig,
        make_transport: impl FnMut(HostId) -> T,
    ) -> Self {
        topo.check_shape().unwrap_or_else(|e| panic!("{e}"));
        let n = topo.num_hosts() as usize;
        let hosts = Hosts {
            transports: topo.hosts().map(make_transport).collect(),
            ports: topo.hosts().map(|h| Port::new(&cfg, topo.host_port(h))).collect(),
            paused: vec![false; n],
            pause_bufs: (0..n).map(|_| Vec::new()).collect(),
            scratch: TransportActions::new(),
        };
        let switches = topo
            .switches()
            .map(|sw| SwitchNode {
                ports: topo.switch_ports(sw).into_iter().map(|p| Port::new(&cfg, p)).collect(),
                spray: 0,
            })
            .collect();
        // One lane (`LANE`); calendar buckets are sized from the fabric's
        // minimum forward delay.
        let bucket_ns = topo.min_forward_delay().as_nanos().max(1);
        Network {
            queue: HierEventQueue::with_bucket_width(1, bucket_ns),
            rng: StdRng::seed_from_u64(cfg.seed),
            topo,
            cfg,
            now: SimTime::ZERO,
            hosts,
            switches,
            app_events: Vec::new(),
            events_processed: 0,
            faults_applied: 0,
            fault_drops: 0,
            deferred_deliveries: 0,
            tracer: None,
        }
    }

    /// Install a [`FlightRecorder`] retaining at most `cap` records
    /// (see [`FlightRecorder::DEFAULT_CAP`]). Tracing changes **no**
    /// simulation state: event counts, statistics, and delivery times
    /// are bit-identical with tracing on or off.
    pub fn enable_trace(&mut self, cap: usize) {
        self.tracer = Some(FlightRecorder::new(cap));
    }

    /// Drain the recorded trace, in emission order (global `(time,
    /// seq)` dispatch order). Empty when tracing is off.
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.tracer.as_mut().map(FlightRecorder::take).unwrap_or_default()
    }

    /// Oldest trace records evicted because the recorder's ring filled.
    pub fn trace_dropped(&self) -> u64 {
        self.tracer.as_ref().map_or(0, FlightRecorder::dropped)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology this network was built over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Read access to a host's transport.
    pub fn transport(&self, h: HostId) -> &T {
        &self.hosts.transports[h.0 as usize]
    }

    /// Mutate a host's transport through a closure; any actions it records
    /// (timers, tx kicks, app events) are applied afterwards.
    pub fn with_transport<R>(
        &mut self,
        h: HostId,
        f: impl FnOnce(&mut T, SimTime, &mut TransportActions) -> R,
    ) -> R {
        let now = self.now;
        let Self { topo, hosts, queue, rng, app_events, tracer, .. } = self;
        let cx = &mut Ctx { topo, queue, app_events, tracer: tracer.as_mut(), rng };
        call_transport(cx, hosts, now, h, |t, act| f(t, now, act))
    }

    /// Begin a one-way message from `src` to `dst` at the current time.
    pub fn inject_message(&mut self, src: HostId, dst: HostId, len: u64, tag: u64) {
        assert_ne!(src, dst, "self-messages not modelled");
        if let Some(t) = self.tracer.as_mut() {
            t.record(self.now, TraceEvent::MsgStart { src, dst, len, tag });
        }
        self.with_transport(src, |t, now, act| t.inject_message(now, dst, len, tag, act));
    }

    /// Begin an RPC from `client` to `server` at the current time.
    pub fn inject_rpc(&mut self, client: HostId, server: HostId, req_len: u64, tag: u64) {
        assert_ne!(client, server, "self-RPCs not modelled");
        self.with_transport(client, |t, now, act| t.inject_rpc(now, server, req_len, tag, act));
    }

    /// Send an RPC response from `server` back to `client`.
    pub fn inject_response(&mut self, server: HostId, client: HostId, rpc: u64, resp_len: u64) {
        self.with_transport(server, |t, now, act| {
            t.inject_response(now, client, rpc, resp_len, act)
        });
    }

    /// Dispatch one popped event at the current time: index the host or
    /// switch it names and run its handler.
    fn dispatch(&mut self, ev: Ev<M>) {
        let now = self.now;
        let Self { topo, hosts, switches, queue, rng, app_events, tracer, .. } = self;
        let cx = &mut Ctx { topo, queue, app_events, tracer: tracer.as_mut(), rng };
        match ev {
            Ev::TxDone { node, port } => on_tx_done(cx, hosts, switches, now, node, port),
            Ev::SwitchArrive { node, pkt } => {
                on_switch_arrive(cx, switches, &mut self.fault_drops, now, node, pkt)
            }
            Ev::HostDeliver { host, pkt } => {
                if hosts.paused[host.0 as usize] {
                    hosts.pause_bufs[host.0 as usize].push(pkt);
                    self.deferred_deliveries += 1;
                } else {
                    deliver_to_host(cx, hosts, now, host, pkt);
                }
            }
            Ev::Fault { node, port, action } => {
                self.faults_applied += 1;
                apply_fault(cx, hosts, switches, now, node, port, action)
            }
            Ev::Timer { host, token } => {
                call_transport(cx, hosts, now, host, |t, act| t.on_timer(now, token, act))
            }
        }
    }

    /// Process all events up to and including time `t`, then advance the
    /// clock to `t`.
    pub fn run_until(&mut self, t: SimTime) -> StepOutput {
        let mut out = StepOutput::default();
        while let Some((at, ev)) = self.queue.pop_if_before(t) {
            debug_assert!(at >= self.now, "event in the past");
            self.now = at;
            self.dispatch(ev);
            out.events += 1;
            self.events_processed += 1;
        }
        if t > self.now {
            self.now = t;
        }
        out
    }

    /// Process the next pending event *batch* — every event at the
    /// earliest pending timestamp at or before `limit`, plus anything
    /// dispatched there that lands at the same instant — and return that
    /// timestamp (`now` afterwards), with a single queue probe. Returns
    /// `None` (leaving `now` untouched) when nothing is pending at or
    /// before `limit`.
    pub fn run_next_before(&mut self, limit: SimTime) -> Option<SimTime> {
        let (at, ev) = self.queue.pop_if_before(limit)?;
        self.now = at;
        self.dispatch(ev);
        self.events_processed += 1;
        while let Some((at2, ev2)) = self.queue.pop_if_before(at) {
            self.now = at2;
            self.dispatch(ev2);
            self.events_processed += 1;
        }
        self.now = at;
        Some(at)
    }

    /// Total events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Behavior counters of the underlying event engine.
    pub fn engine_stats(&self) -> EngineStats {
        self.queue.stats()
    }

    /// Drain application events accumulated since the last call.
    pub fn take_app_events(&mut self) -> Vec<(SimTime, HostId, AppEvent)> {
        std::mem::take(&mut self.app_events)
    }

    /// True when host `h`'s TOR→host downlink is idle (nothing serializing,
    /// nothing queued). Used by the Figure 16 wasted-bandwidth probe.
    pub fn downlink_idle(&self, h: HostId) -> bool {
        let nic = self.topo.host_port(h);
        let tor = &self.switches[switch_index(&self.topo, nic.peer)];
        let port = &tor.ports[nic.peer_port as usize];
        !port.busy() && port.queue.is_empty()
    }

    /// Total wire bytes transmitted on host uplinks per priority level
    /// (Figure 21's traffic-by-priority accounting).
    pub fn uplink_bytes_by_prio(&self) -> [u64; 8] {
        let mut out = [0u64; 8];
        for p in &self.hosts.ports {
            for (i, b) in p.stats.bytes_by_prio.iter().enumerate() {
                out[i] += b;
            }
        }
        out
    }

    /// Install a declarative fault plan: each fault becomes an event,
    /// ordered like any other. Composite faults (whole-rack /
    /// whole-spine outages) expand into one event per member port at the
    /// same instant, in a fixed canonical order (see
    /// [`crate::faults::resolve_fault`]). May be called repeatedly;
    /// faults must not be scheduled in the past.
    ///
    /// # Panics
    /// If the plan names a host, switch or link the fabric lacks, with
    /// the [`crate::faults::FaultError`] as the message.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        for (at, node, port, action) in plan.resolve(&self.topo).unwrap_or_else(|e| panic!("{e}")) {
            assert!(
                at >= self.now,
                "fault scheduled in the past: {action:?} on {node:?} port {port} at {at:?}"
            );
            self.queue.schedule(LANE, at, Ev::Fault { node, port, action });
        }
    }

    /// Whether host `h`'s transport is withholding grants right now
    /// (Figure 16 probe; see [`Transport::withholding_grants`]).
    pub fn withholding(&self, h: HostId) -> bool {
        self.transport(h).withholding_grants(self.now)
    }

    /// Collect fabric-level statistics.
    pub fn harvest_stats(&self) -> RunStats {
        let mut stats = RunStats {
            events_processed: self.events_processed,
            faults_applied: self.faults_applied,
            fault_drops: self.fault_drops,
            deferred_deliveries: self.deferred_deliveries,
            ..RunStats::default()
        };
        let now = self.now;
        let classes =
            [PortClass::HostUp, PortClass::TorUp, PortClass::SpineDown, PortClass::TorDown];
        let mut means: Vec<(PortClass, StreamingStats)> =
            classes.iter().map(|&c| (c, StreamingStats::default())).collect();
        let mut maxes: Vec<(PortClass, u64)> = classes.iter().map(|&c| (c, 0)).collect();
        let mut drops: Vec<(PortClass, u64)> = classes.iter().map(|&c| (c, 0)).collect();
        let mut trims: Vec<(PortClass, u64)> = classes.iter().map(|&c| (c, 0)).collect();

        let mut visit = |port: &Port<M>| {
            let idx = classes.iter().position(|&c| c == port.class).expect("known class");
            means[idx].1.push(port.queue.mean_bytes(now));
            maxes[idx].1 = maxes[idx].1.max(port.queue.max_bytes_seen());
            drops[idx].1 += port.queue.drops;
            trims[idx].1 += port.queue.trims;
            match port.class {
                PortClass::HostUp => stats.host_up_wire_bytes += port.stats.wire_bytes,
                PortClass::TorDown => {
                    stats.tor_down_wire_bytes += port.stats.wire_bytes;
                    stats.tor_down_goodput_bytes += port.stats.goodput_bytes;
                    stats.mean_downlink_utilization += port.stats.utilization(now);
                }
                _ => {}
            }
        };

        // The per-class queue means are float sums, so the visiting order
        // is part of the result: per rack its host uplinks and then its
        // TOR's ports, then the upper-tier switches.
        let (tors, upper) = self.switches.split_at(self.topo.racks as usize);
        let rack_nics = self.hosts.ports.chunks(self.topo.hosts_per_rack as usize);
        for (nics, tor) in rack_nics.zip(tors) {
            nics.iter().chain(&tor.ports).for_each(&mut visit);
        }
        upper.iter().flat_map(|sw| &sw.ports).for_each(&mut visit);
        let nhosts = self.topo.num_hosts();
        if nhosts > 0 {
            stats.mean_downlink_utilization /= nhosts as f64;
        }
        for t in &self.hosts.transports {
            stats.grants.merge(&t.grant_stats());
        }
        stats.queue_means = means;
        stats.queue_maxes = maxes;
        stats.drops = drops;
        stats.trims = trims;
        stats
    }

    /// Seed used by this network's RNG (for reporting).
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::testutil::TestMeta;

    /// A trivially simple transport used to exercise the fabric: it sends
    /// each injected message as a single packet and reports delivery.
    struct Echoless {
        me: HostId,
        outbox: std::collections::VecDeque<Packet<TestMeta>>,
        delivered: u64,
    }

    impl Transport<TestMeta> for Echoless {
        fn on_packet(&mut self, _now: SimTime, pkt: Packet<TestMeta>, act: &mut TransportActions) {
            self.delivered += pkt.meta.goodput_bytes() as u64;
            act.event(AppEvent::MessageDelivered {
                src: pkt.src,
                tag: pkt.meta.bytes as u64,
                len: pkt.meta.goodput_bytes() as u64,
            });
        }
        fn on_timer(&mut self, _now: SimTime, _token: TimerToken, _act: &mut TransportActions) {}
        fn next_packet(&mut self, _now: SimTime) -> Option<Packet<TestMeta>> {
            self.outbox.pop_front()
        }
        fn inject_message(
            &mut self,
            _now: SimTime,
            dst: HostId,
            len: u64,
            _tag: u64,
            act: &mut TransportActions,
        ) {
            self.outbox.push_back(Packet::new(self.me, dst, TestMeta::data(len as u32 + 60, 0)));
            act.kick_tx();
        }
        fn delivered_bytes(&self) -> u64 {
            self.delivered
        }
    }

    fn simple_net(topo: Topology) -> Network<TestMeta, Echoless> {
        Network::new(topo, NetworkConfig::default(), |h| Echoless {
            me: h,
            outbox: Default::default(),
            delivered: 0,
        })
    }

    #[test]
    fn single_packet_crosses_single_switch() {
        let mut net = simple_net(Topology::single_switch(4));
        net.inject_message(HostId(0), HostId(1), 100, 7);
        net.run_until(SimTime::from_millis(1));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1);
        let (at, host, ev) = &evs[0];
        assert_eq!(*host, HostId(1));
        assert!(
            matches!(ev, AppEvent::MessageDelivered { src, len: 100, .. } if *src == HostId(0))
        );
        // 160B on the wire at 10G = 128ns per host link; two links, one
        // switch delay (250ns), plus 1.5us software delay.
        let expect = 128 + 250 + 128 + 1500;
        assert_eq!(at.as_nanos(), expect);
    }

    #[test]
    fn cross_rack_goes_through_spine() {
        let topo = Topology::scaled_fabric(2, 2, 1);
        let mut net = simple_net(topo);
        net.inject_message(HostId(0), HostId(3), 1000, 1);
        net.run_until(SimTime::from_millis(1));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1);
        // Wire 1060B: host link 848ns, uplink (40G) 212ns x2, host link
        // 848ns, 3 switch delays, 1.5us software.
        let expect = 848 + 250 + 212 + 250 + 212 + 250 + 848 + 1500;
        assert_eq!(evs[0].0.as_nanos(), expect);
    }

    #[test]
    fn two_senders_share_one_downlink() {
        let mut net = simple_net(Topology::single_switch(4));
        net.inject_message(HostId(0), HostId(2), 1000, 1);
        net.inject_message(HostId(1), HostId(2), 1000, 2);
        net.run_until(SimTime::from_millis(1));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 2);
        // Both packets arrive at the TOR simultaneously; the second must
        // wait for the first to serialize on the downlink (848ns for
        // 1060B).
        let gap = evs[1].0.as_nanos() - evs[0].0.as_nanos();
        assert_eq!(gap, 848);
    }

    #[test]
    fn stats_track_utilization_and_queues() {
        let mut net = simple_net(Topology::single_switch(4));
        for i in 0..50 {
            net.inject_message(HostId(0), HostId(2), 1400, i);
            net.inject_message(HostId(1), HostId(2), 1400, 100 + i);
        }
        net.run_until(SimTime::from_millis(1));
        let stats = net.harvest_stats();
        assert_eq!(stats.total_drops(), 0);
        // The shared downlink must have queued somewhere along the way.
        assert!(stats.max_queue_bytes(PortClass::TorDown).unwrap() > 0);
        assert!(stats.tor_down_wire_bytes >= 100 * 1460);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let topo = Topology::scaled_fabric(2, 4, 2);
            let mut net = simple_net(topo);
            for i in 0..20 {
                net.inject_message(
                    HostId(i % 8),
                    HostId((i + 3) % 8),
                    500 + (i as u64) * 7,
                    i as u64,
                );
                net.run_until(SimTime::from_micros(5 * (i as u64 + 1)));
            }
            net.run_until(SimTime::from_millis(2));
            net.take_app_events()
                .into_iter()
                .map(|(t, h, _)| (t.as_nanos(), h.0))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn scripted_multi_tor_run_holds_the_event_order() {
        // 40 hosts, 200 staggered messages: the queue's shadow oracle
        // (debug builds) checks every one of the run's pops.
        let mut net = simple_net(Topology::multi_tor(40));
        for i in 0..200u32 {
            net.inject_message(
                HostId(i % 40),
                HostId((i * 7 + 1) % 40),
                300 + (i as u64) * 13,
                i as u64,
            );
            net.run_until(SimTime::from_micros(2 * (i as u64 + 1)));
        }
        net.run_until(SimTime::from_millis(5));
        assert_eq!(net.take_app_events().len(), 200);
        assert!(net.events_processed() > 500, "only {} events", net.events_processed());
    }

    #[test]
    fn hundred_host_fabric_delivers_all_to_all() {
        let topo = Topology::multi_tor(100);
        let mut net = simple_net(topo);
        for i in 0..100u32 {
            net.inject_message(HostId(i), HostId((i + 37) % 100), 2_000, i as u64);
        }
        net.run_until(SimTime::from_millis(10));
        assert_eq!(net.take_app_events().len(), 100);
        let stats = net.harvest_stats();
        assert_eq!(stats.total_drops(), 0);
        assert_eq!(stats.events_processed, net.events_processed());
    }

    #[test]
    fn run_next_before_steps_one_timestamp() {
        let mut net = simple_net(Topology::single_switch(4));
        net.inject_message(HostId(0), HostId(1), 100, 1);
        // First batch: the host uplink TxDone at 128ns.
        let first = net.run_next_before(SimTime::from_millis(1)).expect("events pending");
        assert_eq!(first.as_nanos(), 128);
        assert_eq!(net.now(), first);
        // Stepping drains the run eventually and then reports None.
        let mut last = first;
        while let Some(at) = net.run_next_before(SimTime::from_millis(1)) {
            assert!(at >= last, "stepped backwards");
            last = at;
        }
        assert_eq!(net.take_app_events().len(), 1);
        assert_eq!(net.now(), last, "None leaves the clock at the last batch");
    }

    #[test]
    fn downed_link_drops_and_recovery_resumes_queue() {
        use crate::faults::{FaultPlan, LinkId};
        let mut net = simple_net(Topology::single_switch(4));
        // Host 2's downlink is down from 1µs to 100µs.
        net.install_faults(&FaultPlan::new().link_flaps(
            LinkId::HostDownlink(HostId(2)),
            1_000,
            99_000,
            1_000_000,
            1,
        ));
        // First message crosses before the fault.
        net.inject_message(HostId(0), HostId(2), 100, 1);
        net.run_until(SimTime::from_micros(5));
        assert_eq!(net.take_app_events().len(), 1);
        // Messages sent into the dark window are fault-dropped at the TOR.
        net.inject_message(HostId(0), HostId(2), 100, 2);
        net.inject_message(HostId(1), HostId(2), 100, 3);
        net.run_until(SimTime::from_millis(1));
        assert_eq!(net.take_app_events().len(), 0, "packets crossed a downed link");
        let stats = net.harvest_stats();
        assert_eq!(stats.fault_drops, 2);
        assert_eq!(stats.faults_applied, 2);
        // After link-up, traffic flows again.
        net.inject_message(HostId(0), HostId(2), 100, 4);
        net.run_until(SimTime::from_millis(2));
        assert_eq!(net.take_app_events().len(), 1);
    }

    #[test]
    fn downed_link_preserves_queued_packets() {
        use crate::faults::{Fault, FaultPlan, LinkId};
        let mut net = simple_net(Topology::single_switch(4));
        let link = LinkId::HostDownlink(HostId(2));
        // Two senders race onto host 2's downlink; the loser is queued at
        // the TOR when the link goes down mid-burst, and must survive.
        net.inject_message(HostId(0), HostId(2), 1000, 1);
        net.inject_message(HostId(1), HostId(2), 1000, 2);
        // Down just after the first packet starts serializing on the
        // downlink (~1100ns: 848ns uplink + 250ns switch delay).
        net.install_faults(
            &FaultPlan::new().at(1_200, Fault::LinkDown(link)).at(500_000, Fault::LinkUp(link)),
        );
        net.run_until(SimTime::from_micros(400));
        // Only the in-flight packet arrived during the outage.
        assert_eq!(net.take_app_events().len(), 1);
        net.run_until(SimTime::from_millis(1));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1, "queued packet lost across the flap");
        assert!(evs[0].0 >= SimTime::from_micros(500), "served before link-up");
        assert_eq!(net.harvest_stats().fault_drops, 0);
    }

    #[test]
    fn receiver_pause_defers_then_delivers_in_order() {
        use crate::faults::FaultPlan;
        let mut net = simple_net(Topology::single_switch(4));
        net.install_faults(&FaultPlan::new().receiver_pause(HostId(2), 1_000, 50_000));
        for i in 0..5u64 {
            net.inject_message(HostId(0), HostId(2), 200 + i, i);
        }
        net.run_until(SimTime::from_micros(40));
        assert_eq!(net.take_app_events().len(), 0, "paused host processed packets");
        net.run_until(SimTime::from_millis(1));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 5);
        // All five delivered exactly at the resume instant, in send order.
        for (i, (at, host, ev)) in evs.iter().enumerate() {
            assert_eq!(at.as_nanos(), 50_000);
            assert_eq!(*host, HostId(2));
            assert!(
                matches!(ev, AppEvent::MessageDelivered { len, .. } if *len == 200 + i as u64),
                "out of order at {i}: {ev:?}"
            );
        }
        let stats = net.harvest_stats();
        assert_eq!(stats.deferred_deliveries, 5);
        assert_eq!(stats.faults_applied, 2);
    }

    #[test]
    fn rate_limit_slows_then_restores() {
        use crate::faults::{FaultPlan, LinkId};
        let mut net = simple_net(Topology::single_switch(4));
        // Cut host 0's uplink to 1 Gbps for the first 100µs.
        net.install_faults(&FaultPlan::new().rate_limit(
            LinkId::HostUplink(HostId(0)),
            0,
            100_000,
            1_000_000_000,
        ));
        // Advance past the fault instant so the SetRate event has fired
        // (injection at the same instant would race the event queue).
        net.run_until(SimTime::from_nanos(10));
        let t0 = net.now();
        net.inject_message(HostId(0), HostId(1), 1000, 1);
        net.run_until(SimTime::from_millis(1));
        let evs = net.take_app_events();
        // 1060B at 1G = 8480ns first hop (vs 848ns at 10G), then 250ns
        // switch + 848ns downlink + 1.5µs software.
        assert_eq!((evs[0].0 - t0).as_nanos(), 8480 + 250 + 848 + 1500);
        // After restore, the same transfer is back to full speed.
        net.inject_message(HostId(0), HostId(1), 1000, 2);
        let t0 = net.now();
        net.run_until(SimTime::from_millis(2));
        let evs = net.take_app_events();
        assert_eq!((evs[0].0 - t0).as_nanos(), 848 + 250 + 848 + 1500);
    }

    #[test]
    fn downed_host_uplink_holds_packets_in_transport() {
        use crate::faults::{Fault, FaultPlan, LinkId};
        let mut net = simple_net(Topology::single_switch(4));
        let link = LinkId::HostUplink(HostId(0));
        net.install_faults(
            &FaultPlan::new().at(100, Fault::LinkDown(link)).at(200_000, Fault::LinkUp(link)),
        );
        net.run_until(SimTime::from_micros(1));
        // Injected while the uplink is down: the pull model keeps the
        // packet in the transport, so nothing is lost.
        net.inject_message(HostId(0), HostId(1), 500, 1);
        net.run_until(SimTime::from_micros(100));
        assert_eq!(net.take_app_events().len(), 0);
        net.run_until(SimTime::from_millis(1));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1);
        assert!(evs[0].0 >= SimTime::from_micros(200));
        assert_eq!(net.harvest_stats().fault_drops, 0);
    }

    #[test]
    fn faulted_run_holds_the_event_order() {
        // Fault events share the queue with packet events, the pause replays
        // deferred deliveries at one instant and the flaps restart port
        // service: the shadow oracle checks the order through all of it.
        use crate::faults::{FaultPlan, LinkId};
        let mut net = simple_net(Topology::scaled_fabric(2, 4, 2));
        net.install_faults(
            &FaultPlan::new()
                .link_flaps(LinkId::HostDownlink(HostId(3)), 5_000, 20_000, 50_000, 4)
                .receiver_pause(HostId(1), 10_000, 120_000)
                .rate_limit(LinkId::TorUplink { rack: 0, spine: 0 }, 0, 300_000, 5_000_000_000),
        );
        for i in 0..120u32 {
            net.inject_message(
                HostId(i % 8),
                HostId((i * 3 + 1) % 8),
                400 + i as u64 * 11,
                i as u64,
            );
            net.run_until(SimTime::from_micros(3 * (i as u64 + 1)));
        }
        net.run_until(SimTime::from_millis(5));
        let stats = net.harvest_stats();
        assert_eq!(stats.faults_applied, 12);
        assert_eq!(net.take_app_events().len() as u64 + stats.fault_drops, 120);
    }

    #[test]
    fn rack_outage_downs_and_restores_all_member_links() {
        use crate::faults::FaultPlan;
        let topo = Topology::scaled_fabric(2, 2, 1);
        let mut net = simple_net(topo);
        // Rack 0 (hosts 0, 1) dark from 1µs to 300µs: 2 host uplinks +
        // 2 TOR downlinks + 1 TOR uplink + 1 spine downlink = 6 links
        // down, 6 back up.
        net.install_faults(&FaultPlan::new().rack_outage(0, 1_000, 300_000));
        net.run_until(SimTime::from_micros(2));
        // Into the rack: dropped at the spine's downed downlink.
        net.inject_message(HostId(2), HostId(0), 200, 1);
        // Out of the rack: held in the transport (downed uplink).
        net.inject_message(HostId(0), HostId(3), 200, 2);
        net.run_until(SimTime::from_micros(250));
        assert_eq!(net.take_app_events().len(), 0, "traffic crossed a dark rack");
        net.run_until(SimTime::from_millis(2));
        let evs = net.take_app_events();
        // The held outbound message delivers after restore; the inbound
        // one was wholly dropped.
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].1, HostId(3));
        assert!(evs[0].0 >= SimTime::from_micros(300));
        let stats = net.harvest_stats();
        assert_eq!(stats.faults_applied, 12, "6 member links x down+up");
        assert!(stats.fault_drops >= 1);
    }

    #[test]
    fn spine_outage_reroutes_nothing_but_drops_sprayed_packets() {
        use crate::faults::FaultPlan;
        // 2 racks, 2 spines: a downed spine drops the packets sprayed
        // onto it while the other spine keeps carrying traffic.
        let topo = Topology::scaled_fabric(2, 2, 2);
        let mut net = simple_net(topo);
        net.install_faults(&FaultPlan::new().spine_outage(0, 1_000, 500_000));
        net.run_until(SimTime::from_micros(2));
        for i in 0..20u64 {
            net.inject_message(HostId(0), HostId(2), 300, i);
        }
        net.run_until(SimTime::from_millis(2));
        let delivered = net.take_app_events().len();
        let stats = net.harvest_stats();
        // 2 spine downlinks + 2 TOR uplinks, down then up.
        assert_eq!(stats.faults_applied, 8);
        assert_eq!(delivered as u64 + stats.fault_drops, 20, "packets unaccounted for");
        assert!(stats.fault_drops > 0, "no packet ever sprayed onto the dark spine");
        assert!(delivered > 0, "the healthy spine carried nothing");
    }

    #[test]
    fn fat_tree_cross_pod_latency_matches_model() {
        // k=4: racks of 2 hosts, pods of 2 racks. Host 0 (pod 0) to host
        // 14 (rack 7, pod 3) crosses TOR → agg → core → agg → TOR.
        let mut net = simple_net(Topology::fat_tree(4));
        net.inject_message(HostId(0), HostId(14), 1000, 1);
        net.run_until(SimTime::from_millis(1));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].1, HostId(14));
        // Wire 1060B: 848ns host link, 4 uplink hops at 40G (212ns), 5
        // switch delays, 848ns final host link, 1.5µs software.
        let expect = 848 + 5 * 250 + 4 * 212 + 848 + 1500;
        assert_eq!(evs[0].0.as_nanos(), expect);
        // And the unloaded model agrees exactly.
        let model = net.topology().unloaded_one_way_class(
            1000,
            1400,
            60,
            crate::topology::PathClass::InterPod,
        );
        assert_eq!(evs[0].0.as_nanos(), model.as_nanos());
    }

    #[test]
    fn fat_tree_intra_pod_latency_matches_model() {
        // Host 0 (rack 0) to host 2 (rack 1): same pod, one agg hop.
        let mut net = simple_net(Topology::fat_tree(4));
        net.inject_message(HostId(0), HostId(2), 1000, 1);
        net.run_until(SimTime::from_millis(1));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1);
        let expect = 848 + 3 * 250 + 2 * 212 + 848 + 1500;
        assert_eq!(evs[0].0.as_nanos(), expect);
        let model = net.topology().unloaded_one_way_class(
            1000,
            1400,
            60,
            crate::topology::PathClass::IntraPod,
        );
        assert_eq!(evs[0].0.as_nanos(), model.as_nanos());
    }

    #[test]
    fn fat_tree_scripted_run_delivers_everything() {
        // The fat tree sprays from per-switch counters instead of the
        // fabric RNG; the run must lose nothing and (debug builds) keep
        // the shadow oracle's order on all three tiers.
        let mut net = simple_net(Topology::fat_tree(4));
        for i in 0..200u32 {
            net.inject_message(
                HostId(i % 16),
                HostId((i * 7 + 1) % 16),
                300 + (i as u64) * 13,
                i as u64,
            );
            net.run_until(SimTime::from_micros(2 * (i as u64 + 1)));
        }
        net.run_until(SimTime::from_millis(5));
        assert_eq!(net.take_app_events().len(), 200, "fat tree lost messages");
    }

    #[test]
    fn fat_tree_spray_uses_every_uplink() {
        let topo = Topology::fat_tree(4);
        let hpr = topo.hosts_per_rack as usize;
        let mut net = simple_net(topo);
        // One flow, many packets: the counter-mixed hash must still
        // spread them across both of the TOR's agg uplinks (per-packet
        // spray, not per-flow ECMP).
        for i in 0..40u64 {
            net.inject_message(HostId(0), HostId(15), 500, i);
        }
        net.run_until(SimTime::from_millis(5));
        assert_eq!(net.take_app_events().len(), 40);
        let up: Vec<u64> = net.switches[0].ports[hpr..].iter().map(|p| p.stats.packets).collect();
        assert!(up.iter().all(|&n| n > 0), "an uplink never carried traffic: {up:?}");
        assert_eq!(up.iter().sum::<u64>(), 40);
    }

    #[test]
    fn fat_tree_rack_outage_expands_to_all_member_links() {
        use crate::faults::FaultPlan;
        // k=4 rack: 2 host links (x2 ports) + 2 uplinks (x2 ports) = 8
        // ports down + 8 up.
        let mut net = simple_net(Topology::fat_tree(4));
        net.install_faults(&FaultPlan::new().rack_outage(0, 1_000, 300_000));
        net.run_until(SimTime::from_millis(1));
        assert_eq!(net.harvest_stats().faults_applied, 16);
    }

    #[test]
    fn fat_tree_agg_outage_drops_sprayed_packets_only() {
        use crate::faults::FaultPlan;
        // Down one of pod 0's aggregation switches: cross-rack traffic
        // sprayed onto it drops, the other agg keeps carrying.
        let mut net = simple_net(Topology::fat_tree(4));
        net.install_faults(&FaultPlan::new().spine_outage(0, 1_000, 2_000_000));
        net.run_until(SimTime::from_micros(2));
        for i in 0..20u64 {
            net.inject_message(HostId(0), HostId(2), 300, i);
        }
        net.run_until(SimTime::from_millis(1));
        let delivered = net.take_app_events().len();
        let stats = net.harvest_stats();
        // Agg 0: 2 edge links + 2 core links = 4 member links, down only
        // (restore is beyond the horizon).
        assert_eq!(stats.faults_applied, 8);
        assert_eq!(delivered as u64 + stats.fault_drops, 20, "packets unaccounted for");
        assert!(stats.fault_drops > 0 && delivered > 0);
    }

    #[test]
    #[should_panic(expected = "no such spine 0")]
    fn install_faults_panics_with_the_resolvers_message() {
        use crate::faults::FaultPlan;
        let mut net = simple_net(Topology::single_switch(4));
        net.install_faults(&FaultPlan::new().spine_outage(0, 1_000, 2_000));
    }

    #[test]
    #[should_panic(expected = "bad fabric shape: need at least two hosts per rack")]
    fn new_panics_with_the_shape_checks_message() {
        let _ = simple_net(Topology::single_switch(1));
    }

    #[test]
    fn downlink_idle_probe() {
        let mut net = simple_net(Topology::single_switch(4));
        assert!(net.downlink_idle(HostId(2)));
        net.inject_message(HostId(0), HostId(2), 14_000, 1);
        // Run a tiny amount: packet still serializing on uplink.
        net.run_until(SimTime::from_nanos(100));
        assert!(net.downlink_idle(HostId(2)));
        net.run_until(SimTime::from_millis(1));
        assert!(net.downlink_idle(HostId(2)));
        assert!(net.transport(HostId(2)).delivered_bytes() > 0);
    }
}
