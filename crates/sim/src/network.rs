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
//! 3. When serialization ends the packet moves onto the port's *wire*, a
//!    FIFO of packets on their way to the peer, each with its due time,
//!    and one `Arrive` event naming the port is scheduled for that time.
//!    A link's delay (the peer's switch or host software delay; links
//!    have no propagation delay) is constant, so packets arrive in the
//!    order they left, and `Arrive` pops the wire's head; the event
//!    carries no packet.
//! 4. The TOR takes it off the wire after the switch's internal delay
//!    (store-and-forward), routes it — directly to a rack-local host port,
//!    or sprayed across a random spine uplink — and offers it to the egress
//!    port's [`PortQueue`].
//! 5. Ports drain their queues as fast as the link allows; each hop
//!    accumulates delay attribution into the packet. A packet that arrives
//!    while the link sends one it outranks is credited the rest of that
//!    transmission as preemption lag (Figure 14), the rest of its wait as
//!    queueing; a port only ever starts a packet no waiting one outranks.
//! 6. When the packet comes off the last wire, the host software delay has
//!    elapsed and the receiving transport's `on_packet` runs (or, while
//!    the receiver is paused, the packet waits in its pause buffer).
//!
//! ## State layout and dispatch
//!
//! Fabric state is two flat tables. `Hosts` is a struct-of-arrays indexed
//! by [`HostId`]: transports, NIC ports, pause flags and pause buffers,
//! plus the one action buffer every transport callback borrows.
//! `switches` holds the TORs in rack order and then the spines, each
//! switch a vector of ports built by walking the wiring table
//! ([`Topology::switch_ports`]); a port records its peer, so nothing past
//! construction asks how the fabric is wired. Each event names the node
//! whose state it touches, and the network runs exactly one dispatch loop:
//! pop the earliest event from the queue, index the host or switch it
//! names, and write whatever it produces — new events, application events,
//! trace records — straight back. Events are totally ordered by `(time, seq)` with `seq` assigned
//! at insertion, so a run is a pure function of its inputs. The queue is
//! a [`HierEventQueue`]; in debug builds it checks every pop against a
//! reference heap (see [`crate::events`]), and `serve_queue` checks that
//! no waiting packet outranked the one it took, so every test and fuzz
//! run is also an invariant run.
//!
//! ## Conservation
//!
//! Every packet a transport hands to its NIC is, from then on, in exactly
//! one place: being serialized on a port, on a wire, in a switch queue or
//! a pause buffer, delivered, fault-dropped, or dropped by a queue (an NDP
//! trimmed header counts as its original packet). Debug builds check that
//! every `CONSERVATION_EVERY` events and whenever the event queue drains,
//! and panic with `fabric conservation broken at t=…`; release builds
//! keep no counter for it and run the same events.

use crate::events::{EngineStats, HierEventQueue, LaneId, TimerToken};
use crate::faults::{FaultAction, FaultPlan};
use crate::packet::{CtrlKind, Packet, PacketMeta};
use crate::queues::{PortQueue, QueueDiscipline, LEVELS};
use crate::rng::Xoshiro256PlusPlus;
use crate::stats::{PortClass, PortStats, RunStats};
use crate::time::{SimDuration, SimTime};
use crate::topology::{HostId, NodeId, PortSpec, Topology};
use crate::trace::{FlightRecorder, TraceEvent, TraceRecord};
use crate::transport::{AppEvent, Transport, TransportActions};
use std::collections::VecDeque;

/// Fabric-wide configuration knobs that are not part of the topology.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Seed for all fabric randomness (packet spraying).
    pub seed: u64,
    /// Queue discipline of every switch port: TOR→host (where Homa's
    /// queueing lives), TOR→spine and spine→TOR.
    pub queues: QueueDiscipline,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        // 1 MB shared buffer per port, 8 strict priorities: a generous
        // commodity switch, per the paper's observation that Homa's peak
        // occupancy (146 KB) is well within typical switch capacity.
        NetworkConfig::uniform(1, QueueDiscipline::strict8(1 << 20))
    }
}

impl NetworkConfig {
    /// Same discipline on every switch port.
    pub fn uniform(seed: u64, disc: QueueDiscipline) -> Self {
        NetworkConfig { seed, queues: disc }
    }

    /// The queue discipline of a port of `class`.
    fn discipline(&self, class: PortClass) -> QueueDiscipline {
        match class {
            // Host NIC egress: the transport is the queue (pull model);
            // discipline here is irrelevant but harmless.
            PortClass::HostUp => QueueDiscipline::strict8(u64::MAX),
            PortClass::TorDown | PortClass::TorUp | PortClass::SpineDown => self.queues,
        }
    }
}

/// A fabric event: 16 bytes, no packet (packets wait in port state) and
/// no fault action (a rate is 8 bytes; the action waits in the fault
/// table).
enum Ev {
    /// A port finished serializing its current packet.
    TxDone { node: NodeId, port: u32 },
    /// The head of egress `port` of `node`'s wire reached the peer, past
    /// its switch's internal delay or its host's software delay.
    Arrive { node: NodeId, port: u32 },
    /// A transport timer fired.
    Timer { host: HostId, token: TimerToken },
    /// A scheduled fault takes effect (see [`crate::faults`]): the index
    /// of its `(node, port, action)` in the network's fault table.
    Fault(u32),
}

/// How many events apart debug builds check conservation (see the
/// module docs).
#[cfg(debug_assertions)]
const CONSERVATION_EVERY: u64 = 4_096;

/// The lane every event is scheduled on. The wheel is global and a
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
    /// Packets that finished serializing and are on their way to `peer`,
    /// each with the time it arrives there; in departure order, which is
    /// arrival order because the link's delay is constant.
    wire: VecDeque<(Packet<M>, SimTime)>,
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
            wire: VecDeque::new(),
            stats: PortStats::default(),
        }
    }

    fn busy(&self) -> bool {
        self.sending.is_some()
    }
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
    /// Packets handed to a transport's `on_packet`, for the conservation
    /// check.
    #[cfg(debug_assertions)]
    delivered: u64,
}

/// Index of switch `node` in `Network::switches`: TORs in rack order,
/// then the spines (the order of [`Topology::switches`]).
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
    switches: &'a mut [Vec<Port<M>>],
    node: NodeId,
    port: u32,
) -> &'a mut Port<M> {
    match node {
        NodeId::Host(h) => &mut hosts.ports[h.0 as usize],
        sw => &mut switches[switch_index(topo, sw)][port as usize],
    }
}

/// What every dispatch function reaches besides the host or switch its
/// event names: the topology, the event queue and application-event log
/// it writes to, the flight recorder, and the fabric's spray RNG.
struct Ctx<'a> {
    topo: &'a Topology,
    queue: &'a mut HierEventQueue<Ev>,
    app_events: &'a mut Vec<(SimTime, HostId, AppEvent)>,
    tracer: Option<&'a mut FlightRecorder>,
    rng: &'a mut Xoshiro256PlusPlus,
}

impl Ctx<'_> {
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
    cx: &mut Ctx<'_>,
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

/// Hand a fully-arrived packet to a host's transport (the tail of an
/// `Arrive` at a host, also used when a paused receiver resumes).
fn deliver_to_host<M: PacketMeta, T: Transport<M>>(
    cx: &mut Ctx<'_>,
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
    #[cfg(debug_assertions)]
    {
        hosts.delivered += 1;
    }
    call_transport(cx, hosts, now, host, |t, act| t.on_packet(now, pkt, act));
}

/// If the host uplink is idle, pull the next packet from the transport.
fn poll_host_tx<M: PacketMeta, T: Transport<M>>(
    cx: &mut Ctx<'_>,
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
    cx: &mut Ctx<'_>,
    now: SimTime,
    node: NodeId,
    port_idx: u32,
    port: &mut Port<M>,
    pkt: Packet<M>,
) {
    debug_assert!(!port.busy(), "begin_tx on busy port");
    let dur = SimDuration::serialization(pkt.wire_bytes() as u64, port.rate_bps);
    let done_at = now + dur;
    port.stats.wire_bytes += pkt.wire_bytes() as u64;
    port.stats.goodput_bytes += pkt.meta.goodput_bytes() as u64;
    port.stats.packets += 1;
    port.stats.bytes_by_prio[pkt.priority() as usize] += pkt.wire_bytes() as u64;
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
    port.sending = Some((pkt, done_at));
    cx.queue.schedule(LANE, done_at, Ev::TxDone { node, port: port_idx });
}

/// Start serializing the head of switch port `port`'s queue, if any
/// (the port must be idle), emitting its [`TraceEvent::Dequeue`]: the
/// wait split comes from [`PortQueue::last_wait`] — pure queueing behind
/// equal-or-higher traffic vs. preemption lag.
fn serve_queue<M: PacketMeta>(
    cx: &mut Ctx<'_>,
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
    cx: &mut Ctx<'_>,
    hosts: &mut Hosts<M, T>,
    switches: &mut [Vec<Port<M>>],
    now: SimTime,
    node: NodeId,
    port_idx: u32,
) {
    let port = port_mut(cx.topo, hosts, switches, node, port_idx);
    let (pkt, _) = port.sending.take().expect("TxDone without transmission");

    // Onto the wire to the peer.
    let delay = match port.peer {
        NodeId::Host(_) => Topology::HOST_SW_DELAY,
        NodeId::Tor(_) | NodeId::Spine(_) => Topology::SWITCH_DELAY,
    };
    let at = now + delay;
    port.wire.push_back((pkt, at));
    cx.queue.schedule(LANE, at, Ev::Arrive { node, port: port_idx });

    // Keep the port busy with the next packet, if any.
    match node {
        NodeId::Host(h) => poll_host_tx(cx, hosts, now, h),
        // A downed link finishes its in-flight packet but does not
        // start another; service resumes on the LinkUp fault.
        _ if !port.up => {}
        _ => serve_queue(cx, now, node, port_idx, port),
    }
}

/// Pick the egress port for a packet to `dst` at switch `node`. A TOR
/// delivers rack-local traffic to the host's downlink and sprays the rest
/// across its spine uplinks from the fabric's seeded RNG, one draw per
/// such arrival in dispatch order; a spine forwards down to `dst`'s rack.
fn route(cx: &mut Ctx<'_>, node: NodeId, dst: HostId) -> u32 {
    let topo = cx.topo;
    let dst_rack = topo.rack_of(dst);
    match node {
        NodeId::Tor(r) if dst_rack == r => topo.index_in_rack(dst),
        NodeId::Tor(_) => topo.hosts_per_rack + cx.rng.below(topo.spines),
        NodeId::Spine(_) => dst_rack,
        NodeId::Host(_) => unreachable!("hosts do not route"),
    }
}

fn on_switch_arrive<M: PacketMeta>(
    cx: &mut Ctx<'_>,
    switches: &mut [Vec<Port<M>>],
    fault_drops: &mut u64,
    now: SimTime,
    node: NodeId,
    mut pkt: Packet<M>,
) {
    let port_idx = route(cx, node, pkt.dst);
    let port = &mut switches[switch_index(cx.topo, node)][port_idx as usize];

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
    cx: &mut Ctx<'_>,
    hosts: &mut Hosts<M, T>,
    switches: &mut [Vec<Port<M>>],
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

/// The simulated network: fabric plus one transport per host.
pub struct Network<M: PacketMeta, T: Transport<M>> {
    topo: Topology,
    now: SimTime,
    queue: HierEventQueue<Ev>,
    hosts: Hosts<M, T>,
    /// Each switch's egress ports: TORs in rack order, then the spines
    /// (see [`switch_index`]).
    switches: Vec<Vec<Port<M>>>,
    rng: Xoshiro256PlusPlus,
    app_events: Vec<(SimTime, HostId, AppEvent)>,
    /// Every installed fault, in installation order; an [`Ev::Fault`]
    /// names its entry.
    faults: Vec<(NodeId, u32, FaultAction)>,
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
            #[cfg(debug_assertions)]
            delivered: 0,
        };
        let switches = topo
            .switches()
            .map(|sw| topo.switch_ports(sw).into_iter().map(|p| Port::new(&cfg, p)).collect())
            .collect();
        Network {
            queue: HierEventQueue::new(1),
            rng: Xoshiro256PlusPlus::new(cfg.seed),
            topo,
            now: SimTime::ZERO,
            hosts,
            switches,
            app_events: Vec::new(),
            faults: Vec::new(),
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
    fn dispatch(&mut self, ev: Ev) {
        let now = self.now;
        let Self { topo, hosts, switches, queue, rng, app_events, tracer, faults, .. } = self;
        let cx = &mut Ctx { topo, queue, app_events, tracer: tracer.as_mut(), rng };
        match ev {
            Ev::TxDone { node, port } => on_tx_done(cx, hosts, switches, now, node, port),
            Ev::Arrive { node, port } => {
                let link = port_mut(cx.topo, hosts, switches, node, port);
                let (pkt, due) = link.wire.pop_front().expect("Arrive with an empty wire");
                debug_assert_eq!(due, now, "wire of {node:?} port {port} out of order");
                let peer = link.peer;
                match peer {
                    NodeId::Host(h) if hosts.paused[h.0 as usize] => {
                        hosts.pause_bufs[h.0 as usize].push(pkt);
                        self.deferred_deliveries += 1;
                    }
                    NodeId::Host(h) => deliver_to_host(cx, hosts, now, h, pkt),
                    sw => on_switch_arrive(cx, switches, &mut self.fault_drops, now, sw, pkt),
                }
            }
            Ev::Fault(i) => {
                let (node, port, action) = faults[i as usize];
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
    pub fn run_until(&mut self, t: SimTime) {
        while let Some((at, ev)) = self.queue.pop_if_before(t) {
            self.step(at, ev);
        }
        if t > self.now {
            self.now = t;
        }
    }

    /// Process the next pending event *batch* — every event at the
    /// earliest pending timestamp at or before `limit`, plus anything
    /// dispatched there that lands at the same instant — and return that
    /// timestamp (`now` afterwards), with a single queue probe. Returns
    /// `None` (leaving `now` untouched) when nothing is pending at or
    /// before `limit`.
    pub fn run_next_before(&mut self, limit: SimTime) -> Option<SimTime> {
        let (at, ev) = self.queue.pop_if_before(limit)?;
        self.step(at, ev);
        while let Some((at2, ev2)) = self.queue.pop_if_before(at) {
            self.step(at2, ev2);
        }
        self.now = at;
        Some(at)
    }

    /// Dispatch one popped event at its time and count it.
    fn step(&mut self, at: SimTime, ev: Ev) {
        debug_assert!(at >= self.now, "event in the past");
        self.now = at;
        self.dispatch(ev);
        self.events_processed += 1;
        #[cfg(debug_assertions)]
        if self.events_processed % CONSERVATION_EVERY == 0 || self.queue.is_empty() {
            self.check_conservation();
        }
    }

    /// Panic unless every packet handed to a NIC is in exactly one place
    /// (see the module docs).
    #[cfg(debug_assertions)]
    fn check_conservation(&self) {
        let handed: u64 = self.hosts.ports.iter().map(|p| p.stats.packets).sum();
        let ports = self.hosts.ports.iter().chain(self.switches.iter().flatten());
        let on_ports: u64 = ports
            .map(|p| {
                u64::from(p.busy()) + p.wire.len() as u64 + p.queue.len() as u64 + p.queue.drops
            })
            .sum();
        let paused: u64 = self.hosts.pause_bufs.iter().map(|b| b.len() as u64).sum();
        let held = on_ports + paused + self.hosts.delivered + self.fault_drops;
        assert_eq!(
            handed,
            held,
            "fabric conservation broken at t={}ns: {handed} packets handed to NICs, {held} \
             serializing, on a wire, queued, paused, delivered or dropped",
            self.now.as_nanos()
        );
    }

    /// Behavior counters of the underlying event engine.
    pub fn engine_stats(&self) -> EngineStats {
        self.queue.stats()
    }

    /// Drain application events accumulated since the last call.
    pub fn take_app_events(&mut self) -> Vec<(SimTime, HostId, AppEvent)> {
        std::mem::take(&mut self.app_events)
    }

    /// Swap the application events accumulated since the last call into
    /// `buf`, whose contents and allocation the network keeps for the
    /// events that follow: a caller that clears `buf` after reading it
    /// drains events with no allocation per call.
    pub fn swap_app_events(&mut self, buf: &mut Vec<(SimTime, HostId, AppEvent)>) {
        std::mem::swap(&mut self.app_events, buf);
    }

    /// True when host `h`'s TOR→host downlink is idle (nothing serializing,
    /// nothing queued). Used by the Figure 16 wasted-bandwidth probe.
    pub fn downlink_idle(&self, h: HostId) -> bool {
        let nic = self.topo.host_port(h);
        let tor = &self.switches[switch_index(&self.topo, nic.peer)];
        let port = &tor[nic.peer_port as usize];
        !port.busy() && port.queue.is_empty()
    }

    /// Total wire bytes transmitted on host uplinks per priority level
    /// (Figure 21's traffic-by-priority accounting).
    pub fn uplink_bytes_by_prio(&self) -> [u64; LEVELS] {
        let mut out = [0u64; LEVELS];
        for p in &self.hosts.ports {
            for (i, b) in p.stats.bytes_by_prio.iter().enumerate() {
                out[i] += b;
            }
        }
        out
    }

    /// Install a declarative fault plan: each fault becomes one event on
    /// the one port it acts on (see [`crate::faults::resolve_fault`]),
    /// ordered like any other. May be called repeatedly; faults must not
    /// be scheduled in the past.
    ///
    /// # Panics
    /// If the plan names a host the fabric lacks, with the
    /// [`crate::faults::FaultError`] as the message.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        for (at, node, port, action) in plan.resolve(&self.topo).unwrap_or_else(|e| panic!("{e}")) {
            assert!(
                at >= self.now,
                "fault scheduled in the past: {action:?} on {node:?} port {port} at {at:?}"
            );
            let i = u32::try_from(self.faults.len()).expect("over u32::MAX faults");
            self.faults.push((node, port, action));
            self.queue.schedule(LANE, at, Ev::Fault(i));
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
        // Per class: the sum of its ports' mean queue bytes and their count.
        let mut means: Vec<(f64, u64)> = vec![(0.0, 0); classes.len()];
        let mut maxes: Vec<(PortClass, u64)> = classes.iter().map(|&c| (c, 0)).collect();
        let mut drops: Vec<(PortClass, u64)> = classes.iter().map(|&c| (c, 0)).collect();
        let mut trims: Vec<(PortClass, u64)> = classes.iter().map(|&c| (c, 0)).collect();

        let mut visit = |port: &Port<M>| {
            let idx = classes.iter().position(|&c| c == port.class).expect("known class");
            means[idx].0 += port.queue.mean_bytes(now);
            means[idx].1 += 1;
            maxes[idx].1 = maxes[idx].1.max(port.queue.max_bytes_seen());
            drops[idx].1 += port.queue.drops;
            trims[idx].1 += port.queue.trims;
            if port.class == PortClass::TorDown {
                stats.tor_down_wire_bytes += port.stats.wire_bytes;
                stats.tor_down_goodput_bytes += port.stats.goodput_bytes;
            }
        };

        // The per-class queue means are float sums, so the visiting order
        // is part of the result: per rack its host uplinks and then its
        // TOR's ports, then the spines.
        let (tors, spines) = self.switches.split_at(self.topo.racks as usize);
        let rack_nics = self.hosts.ports.chunks(self.topo.hosts_per_rack as usize);
        for (nics, tor) in rack_nics.zip(tors) {
            nics.iter().chain(tor).for_each(&mut visit);
        }
        spines.iter().flatten().for_each(&mut visit);
        for t in &self.hosts.transports {
            stats.grants.merge(&t.grant_stats());
        }
        stats.queue_means = classes
            .iter()
            .zip(means)
            .map(|(&c, (sum, n))| (c, if n == 0 { 0.0 } else { sum / n as f64 }))
            .collect();
        stats.queue_maxes = maxes;
        stats.drops = drops;
        stats.trims = trims;
        stats
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
        outbox: VecDeque<Packet<TestMeta>>,
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
    fn a_fabric_event_carries_no_packet() {
        assert!(size_of::<Ev>() <= 16, "{} bytes", size_of::<Ev>());
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
    fn stats_track_queues_and_delivered_bytes() {
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
        let events = net.harvest_stats().events_processed;
        assert!(events > 500, "only {events} events");
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
        assert_eq!(net.harvest_stats().total_drops(), 0);
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
    fn separately_installed_faults_apply_their_own_actions_in_order() {
        // Two plans on one port and one host, each fault an entry of the
        // fault table: at one instant they apply in insertion order, and
        // each applies its own action.
        use crate::faults::{Fault, FaultPlan, LinkId};
        let link = LinkId::HostUplink(HostId(0));
        let slow = Fault::RateLimit { link, bps: 1_000_000_000 };
        let first_hop = |first: Fault, second: Fault| {
            let mut net = simple_net(Topology::single_switch(4));
            net.install_faults(
                &FaultPlan::new().at(1_000, first).at(1_000, Fault::PauseReceiver(HostId(1))),
            );
            net.install_faults(
                &FaultPlan::new().at(1_000, second).at(50_000, Fault::ResumeReceiver(HostId(1))),
            );
            net.run_until(SimTime::from_micros(10));
            net.inject_message(HostId(0), HostId(1), 1000, 1);
            net.run_until(SimTime::from_nanos(49_999));
            assert_eq!(net.take_app_events().len(), 0, "paused host processed packets");
            net.run_until(SimTime::from_micros(50));
            assert_eq!(net.take_app_events().len(), 1, "resume hands the packet over");
            let t0 = net.now();
            net.inject_message(HostId(0), HostId(1), 1000, 2);
            net.run_until(SimTime::from_millis(1));
            let evs = net.take_app_events();
            let stats = net.harvest_stats();
            assert_eq!((stats.faults_applied, stats.deferred_deliveries), (4, 1));
            (evs[0].0 - t0).as_nanos() - (250 + 848 + 1500)
        };
        assert_eq!(first_hop(slow, Fault::RateRestore(link)), 848);
        assert_eq!(first_hop(Fault::RateRestore(link), slow), 8480);
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
                .rate_limit(LinkId::HostUplink(HostId(0)), 0, 300_000, 5_000_000_000),
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
    #[should_panic(expected = "no such host h4")]
    fn install_faults_panics_with_the_resolvers_message() {
        use crate::faults::FaultPlan;
        let mut net = simple_net(Topology::single_switch(4));
        net.install_faults(&FaultPlan::new().receiver_pause(HostId(4), 1_000, 2_000));
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
