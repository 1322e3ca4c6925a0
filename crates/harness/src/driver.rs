//! Generic experiment drivers.
//!
//! Three experiment shapes cover every figure in the paper, all driven
//! through [`crate::ScenarioSpec`] (the sole public entry point — see
//! [`ScenarioSpec::run_oneway`](crate::ScenarioSpec::run_oneway) and
//! friends):
//!
//! * one-way — the §5.2 simulation setup: all-to-all one-way messages
//!   with Poisson arrivals at a target network load
//!   (Figures 12–21, Table 1).
//! * RPC echo — the §5.1 implementation setup: clients issue echo RPCs
//!   to servers (Figures 8–9).
//! * incast — Figure 10: one client, many concurrent RPCs with 10 KB
//!   responses.
//!
//! This module owns the option/result types and the run loops; the
//! fabric, workload, load, seed, engine, traffic pattern and fault
//! schedule all come from the spec, so every run is replayable from the
//! spec's one-line text form (`ScenarioSpec::to_spec_line`).

use crate::scenario::ScenarioSpec;
use crate::slowdown::{MsgRecord, SlowdownSketch};
use homa_sim::{
    AppEvent, EngineProfile, EngineStats, FlightRecorder, HostId, Network, PacketMeta, PathClass,
    QueueDiscipline, RunStats, SimDuration, SimTime, TraceRecord, Transport,
};
use homa_workloads::{LoadPlan, PoissonArrivals, TrafficMatrix};
use std::collections::HashMap;

/// Per-packet constants used for unloaded-latency denominators and load
/// planning; all transports in this repository share them (see
/// `homa_baselines::common`).
pub const PAYLOAD: u64 = 1_400;
/// Wire overhead per data packet.
pub const OVERHEAD: u64 = 60;
/// Wire size of control packets.
pub const CTRL: u64 = 40;

/// Options for [`ScenarioSpec::run_oneway`]: the measurement knobs that
/// are *not* part of what a scenario is (those — fabric, workload, load,
/// traffic, faults — live on the spec itself).
#[derive(Debug, Clone)]
pub struct OnewayOpts {
    /// Sample the Figure 16 wasted-bandwidth probe.
    pub sample_wasted: bool,
    /// Probe cadence.
    pub sample_interval: SimDuration,
    /// Ask transports for per-message delay attribution (Figure 14).
    pub track_delay: bool,
    /// Extra simulated time allowed after the last injection for
    /// outstanding messages to finish.
    pub drain: SimDuration,
    /// Messages at the head of the run excluded from the records
    /// (warm-up transient).
    pub warmup_msgs: u64,
    /// Retain every per-message [`MsgRecord`] in the result (O(messages)
    /// memory). Off by default: the always-on [`SlowdownSketch`] covers
    /// slowdown summaries in O(sketch bins), which is what keeps 1k-host
    /// runs memory-flat. Figure pipelines and tests that read
    /// `records`/`victim_records` opt in.
    pub keep_records: bool,
    /// Record a flight-recorder trace of the run into
    /// [`OnewayResult::trace`]. Only effective when the simulator's
    /// `trace` feature is compiled in; without it the result's trace is
    /// empty and the run is bit-identical to an untraced one.
    pub trace: bool,
    /// Ring capacity (records) for the flight recorder when `trace` is
    /// set; the oldest records are dropped beyond it.
    pub trace_cap: usize,
}

impl Default for OnewayOpts {
    fn default() -> Self {
        OnewayOpts {
            sample_wasted: false,
            sample_interval: SimDuration::from_micros(10),
            track_delay: false,
            drain: SimDuration::from_millis(200),
            warmup_msgs: 0,
            keep_records: false,
            trace: false,
            trace_cap: FlightRecorder::DEFAULT_CAP,
        }
    }
}

impl OnewayOpts {
    /// Opt in to exact per-message records (`records`/`victim_records`
    /// populated); memory grows with message count.
    pub fn with_records(mut self) -> Self {
        self.keep_records = true;
        self
    }

    /// Opt in to flight-recorder tracing with the default ring capacity.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// Result of a one-way experiment.
#[derive(Debug)]
pub struct OnewayResult {
    /// Per-message observations (post-warmup, delivered only; the victim
    /// overlay's messages are reported in `victim_records` instead).
    /// Empty unless [`OnewayOpts::keep_records`] is set — the streaming
    /// [`sketch`](OnewayResult::sketch) is the default summary channel.
    pub records: Vec<MsgRecord>,
    /// Observations for the victim-flow overlay, if the traffic spec has
    /// one (empty otherwise, and empty unless
    /// [`OnewayOpts::keep_records`] is set).
    pub victim_records: Vec<MsgRecord>,
    /// Always-on streaming slowdown summary over the same non-victim,
    /// post-warmup messages `records` would hold; O(sketch bins) memory
    /// regardless of message count.
    pub sketch: SlowdownSketch,
    /// Messages injected.
    pub injected: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages aborted by the transport.
    pub aborted: u64,
    /// Messages still outstanding when the run ended: not delivered and
    /// not aborted. Nonzero either when the drain budget ran out under
    /// overload, or under fault injection — a one-way message whose every
    /// packet died on a downed link is unrecoverable (fire-and-forget:
    /// the receiver never learned of it, and the sender's lingering state
    /// expires without an acknowledgment mechanism, per §3.8).
    pub lost: u64,
    /// Deliveries of a message that had already been delivered or
    /// aborted, or of a tag never injected. Always zero for a correct
    /// transport; the conservation fuzzer asserts it.
    pub duplicate_deliveries: u64,
    /// Fabric statistics at harvest.
    pub stats: RunStats,
    /// Mean fraction of receiver time with an idle downlink while grants
    /// were withheld (Figure 16's y-axis); NaN if not sampled.
    pub wasted_fraction: f64,
    /// Wall-clock of the simulated run.
    pub duration: SimTime,
    /// Wire bytes per priority level on host uplinks (Figure 21).
    pub prio_bytes: [u64; 8],
    /// Offered goodput in bits/sec during the injection phase.
    pub offered_bps: f64,
    /// Delivered goodput in bits/sec over the whole run.
    pub delivered_bps: f64,
    /// Flight-recorder trace of the run, in `(time, seq)` order. Empty
    /// unless [`OnewayOpts::trace`] was set and the simulator's `trace`
    /// feature is compiled in.
    pub trace: Vec<TraceRecord>,
    /// Trace records dropped because the recorder ring filled (oldest
    /// first); nonzero means `trace` holds only the tail of the run.
    pub trace_dropped: u64,
    /// Deterministic event-engine counters (calendar bucket, late and
    /// far insert counts, epoch occupancy) at harvest.
    pub engine_stats: EngineStats,
    /// Wall-clock dispatch-loop profile of the run's engine. All zeros
    /// unless the simulator's `engine-profile` cargo feature is enabled;
    /// never deterministic — diagnostics only.
    pub engine_profile: EngineProfile,
}

/// Memoized unloaded-latency lookup passed through the event handler.
type UnloadedCache<'a, M, T> = dyn FnMut(&Network<M, T>, u64, PathClass) -> u64 + 'a;

/// Bitset over message tags `0..n_msgs`: which messages have already been
/// resolved (delivered or aborted). Backs the duplicate-delivery counter
/// in O(messages/8) memory.
struct ResolvedSet {
    bits: Vec<u64>,
    len: u64,
}

impl ResolvedSet {
    fn new(n: u64) -> Self {
        ResolvedSet { bits: vec![0u64; (n as usize).div_ceil(64)], len: n }
    }

    fn mark(&mut self, tag: u64) {
        if tag < self.len {
            self.bits[(tag / 64) as usize] |= 1u64 << (tag % 64);
        }
    }

    /// True if `tag` was previously resolved *or* was never a valid tag —
    /// either way a delivery for it is spurious.
    fn spurious(&self, tag: u64) -> bool {
        tag >= self.len || self.bits[(tag / 64) as usize] & (1u64 << (tag % 64)) != 0
    }
}

/// Run the all-to-all one-way-message experiment `spec` describes: inject
/// `spec.messages` Poisson arrivals at `spec.load`, then drain.
/// Entry point: [`ScenarioSpec::run_oneway`].
pub(crate) fn oneway<M, T>(
    spec: &ScenarioSpec,
    queues: Option<QueueDiscipline>,
    make: impl FnMut(HostId) -> T,
    opts: &OnewayOpts,
) -> OnewayResult
where
    M: PacketMeta,
    T: Transport<M>,
{
    let topo = spec.topology();
    let dist = spec.workload.dist();
    let traffic = &spec.traffic;
    let (load, n_msgs, seed) = (spec.load, spec.messages, spec.seed);
    let hosts = topo.num_hosts();
    // A bimodal mix shifts the mean message size (and overhead); fold the
    // second mode into the load arithmetic so the target load stays
    // honest.
    let (mean_msg_bytes, mean_overhead_bytes) = match &traffic.mix {
        Some(mix) => {
            let second = mix.second.dist();
            let f = mix.frac;
            (
                (1.0 - f) * dist.mean() + f * second.mean(),
                (1.0 - f) * LoadPlan::estimate_overhead(&dist, PAYLOAD, OVERHEAD, CTRL, 9_700)
                    + f * LoadPlan::estimate_overhead(&second, PAYLOAD, OVERHEAD, CTRL, 9_700),
            )
        }
        None => (dist.mean(), LoadPlan::estimate_overhead(&dist, PAYLOAD, OVERHEAD, CTRL, 9_700)),
    };
    let plan = LoadPlan {
        // Patterns that concentrate on one link (incast) interpret `load`
        // against that bottleneck, not the whole fabric.
        hosts: traffic.loaded_links(hosts),
        host_link_bps: topo.host_link_bps,
        load,
        mean_msg_bytes,
        mean_overhead_bytes,
    };
    let mut gen = PoissonArrivals::new(
        seed ^ 0x9e37_79b9,
        dist.clone(),
        hosts,
        plan.mean_interarrival_secs(),
    )
    .with_matrix(traffic.matrix(hosts, topo.hosts_per_rack, seed));
    if let Some(mix) = &traffic.mix {
        gen = gen.with_mix(mix.second.dist(), mix.frac);
    }
    if let Some(victim) = traffic.victim {
        gen = gen.with_victim(victim);
    }
    let mut net: Network<M, T> = Network::new(topo.clone(), spec.netcfg_with(queues), make);
    if !spec.faults.is_empty() {
        net.install_faults(&spec.faults);
    }
    if opts.trace {
        net.enable_trace(opts.trace_cap);
    }

    // tag -> (size, injected_ns, path_class, victim)
    let mut pending: HashMap<u64, (u64, u64, PathClass, bool)> = HashMap::new();
    let mut unloaded_cache: HashMap<(u64, PathClass), u64> = HashMap::new();
    let mut records =
        if opts.keep_records { Vec::with_capacity(n_msgs as usize) } else { Vec::new() };
    let mut victim_records = Vec::new();
    let mut sketch = SlowdownSketch::default();
    let mut resolved = ResolvedSet::new(n_msgs);
    let mut injected = 0u64;
    let mut delivered = 0u64;
    let mut aborted = 0u64;
    let mut duplicate_deliveries = 0u64;
    let mut injected_bytes = 0u64;
    let mut delivered_goodput_bytes = 0u64;

    // Wasted-bandwidth sampling state.
    let mut next_sample = SimTime::ZERO + opts.sample_interval;
    let mut samples = 0u64;
    let mut wasted_hits = 0u64;

    let mut unloaded_of = |net: &Network<M, T>, size: u64, class: PathClass| -> u64 {
        *unloaded_cache.entry((size, class)).or_insert_with(|| {
            net.topology().unloaded_one_way_class(size, PAYLOAD, OVERHEAD, class).as_nanos()
        })
    };

    let handle_events = |net: &mut Network<M, T>,
                         pending: &mut HashMap<u64, (u64, u64, PathClass, bool)>,
                         resolved: &mut ResolvedSet,
                         records: &mut Vec<MsgRecord>,
                         victim_records: &mut Vec<MsgRecord>,
                         sketch: &mut SlowdownSketch,
                         delivered: &mut u64,
                         aborted: &mut u64,
                         duplicate_deliveries: &mut u64,
                         delivered_goodput_bytes: &mut u64,
                         unloaded_cache: &mut UnloadedCache<'_, M, T>| {
        for (at, host, ev) in net.take_app_events() {
            match ev {
                AppEvent::MessageDelivered { src, tag, len } => {
                    if let Some((size, injected_ns, class, victim)) = pending.remove(&tag) {
                        debug_assert_eq!(size, len);
                        resolved.mark(tag);
                        *delivered += 1;
                        if tag >= opts.warmup_msgs {
                            *delivered_goodput_bytes += size;
                            let delay = if opts.track_delay {
                                net.with_transport(host, |t, _, _| t.take_message_delay(src, tag))
                            } else {
                                Default::default()
                            };
                            let unloaded_ns = unloaded_cache(net, size, class);
                            let rec = MsgRecord {
                                size,
                                injected_ns,
                                completed_ns: at.as_nanos(),
                                unloaded_ns,
                                delay,
                            };
                            if !victim {
                                sketch.push(size, rec.slowdown());
                            }
                            if opts.keep_records {
                                if victim {
                                    victim_records.push(rec);
                                } else {
                                    records.push(rec);
                                }
                            }
                        }
                    } else if resolved.spurious(tag) {
                        *duplicate_deliveries += 1;
                    }
                }
                AppEvent::Aborted { tag, .. } if pending.remove(&tag).is_some() => {
                    resolved.mark(tag);
                    *aborted += 1;
                }
                _ => {}
            }
        }
    };

    // Injection phase.
    while injected < n_msgs {
        let arrival = gen.next_arrival();
        let at = SimTime::from_nanos(arrival.at_ns);
        // Process events (and samples) up to the arrival.
        while opts.sample_wasted && next_sample <= at {
            net.run_until(next_sample);
            handle_events(
                &mut net,
                &mut pending,
                &mut resolved,
                &mut records,
                &mut victim_records,
                &mut sketch,
                &mut delivered,
                &mut aborted,
                &mut duplicate_deliveries,
                &mut delivered_goodput_bytes,
                &mut unloaded_of,
            );
            for h in net.topology().hosts() {
                samples += 1;
                if net.downlink_idle(h) && net.withholding(h) {
                    wasted_hits += 1;
                }
            }
            next_sample += opts.sample_interval;
        }
        net.run_until(at);
        handle_events(
            &mut net,
            &mut pending,
            &mut resolved,
            &mut records,
            &mut victim_records,
            &mut sketch,
            &mut delivered,
            &mut aborted,
            &mut duplicate_deliveries,
            &mut delivered_goodput_bytes,
            &mut unloaded_of,
        );
        let tag = injected;
        let class = topo.path_class(HostId(arrival.src), HostId(arrival.dst));
        net.inject_message(HostId(arrival.src), HostId(arrival.dst), arrival.size, tag);
        pending.insert(tag, (arrival.size, at.as_nanos(), class, arrival.victim));
        injected += 1;
        injected_bytes += arrival.size;
    }
    let inject_end = net.now();

    // Drain phase. `run_next_before` advances through one event batch
    // per iteration with a single queue probe (no peek-then-pop pair).
    let deadline = inject_end + opts.drain;
    while !pending.is_empty() && net.now() < deadline {
        if net.run_next_before(deadline).is_none() {
            break;
        }
        handle_events(
            &mut net,
            &mut pending,
            &mut resolved,
            &mut records,
            &mut victim_records,
            &mut sketch,
            &mut delivered,
            &mut aborted,
            &mut duplicate_deliveries,
            &mut delivered_goodput_bytes,
            &mut unloaded_of,
        );
    }

    let duration = net.now();
    let trace = net.take_trace();
    let trace_dropped = net.trace_dropped();
    let engine_stats = net.engine_stats();
    let engine_profile = net.engine_profile();
    let stats = net.harvest_stats();
    let prio_bytes = net.uplink_bytes_by_prio();
    let offered_bps = if inject_end.as_nanos() > 0 {
        injected_bytes as f64 * 8.0 / inject_end.as_secs_f64()
    } else {
        0.0
    };
    let delivered_bps = if duration.as_nanos() > 0 {
        delivered_goodput_bytes as f64 * 8.0 / duration.as_secs_f64()
    } else {
        0.0
    };

    OnewayResult {
        records,
        victim_records,
        sketch,
        injected,
        delivered,
        aborted,
        lost: pending.len() as u64,
        duplicate_deliveries,
        stats,
        wasted_fraction: if samples > 0 { wasted_hits as f64 / samples as f64 } else { f64::NAN },
        duration,
        prio_bytes,
        offered_bps,
        delivered_bps,
        trace,
        trace_dropped,
        engine_stats,
        engine_profile,
    }
}

/// Options for [`ScenarioSpec::run_rpc_echo`].
#[derive(Debug, Clone)]
pub struct RpcOpts {
    /// Number of client hosts (the first `clients` host ids); the rest
    /// are servers.
    pub clients: u32,
    /// Drain budget after the last injection.
    pub drain: SimDuration,
    /// RPCs at the head of the run excluded from the records.
    pub warmup: u64,
}

impl Default for RpcOpts {
    fn default() -> Self {
        RpcOpts { clients: 8, drain: SimDuration::from_millis(200), warmup: 0 }
    }
}

/// Result of an RPC-echo experiment.
#[derive(Debug)]
pub struct RpcResult {
    /// Per-RPC observations (echo size, issue → response-complete).
    pub records: Vec<MsgRecord>,
    /// RPCs issued.
    pub issued: u64,
    /// RPCs completed.
    pub completed: u64,
    /// RPCs aborted.
    pub aborted: u64,
    /// Fabric statistics.
    pub stats: RunStats,
    /// Simulated duration.
    pub duration: SimTime,
}

/// The §5.1 echo benchmark: each client issues echo RPCs of
/// workload-sampled sizes to random servers at `spec.load`; servers
/// return the same payload. Entry point: [`ScenarioSpec::run_rpc_echo`].
pub(crate) fn rpc_echo<M, T>(
    spec: &ScenarioSpec,
    queues: Option<QueueDiscipline>,
    make: impl FnMut(HostId) -> T,
    opts: &RpcOpts,
) -> RpcResult
where
    M: PacketMeta,
    T: Transport<M>,
{
    let topo = spec.topology();
    let dist = spec.workload.dist();
    let (load, n_rpcs, seed) = (spec.load, spec.messages, spec.seed);
    let hosts = topo.num_hosts();
    assert!(opts.clients < hosts, "need at least one server");
    let servers = hosts - opts.clients;
    let plan = LoadPlan {
        hosts: opts.clients,
        host_link_bps: topo.host_link_bps,
        load,
        mean_msg_bytes: dist.mean(),
        mean_overhead_bytes: LoadPlan::estimate_overhead(&dist, PAYLOAD, OVERHEAD, CTRL, 9_700),
    };
    let mut gen = PoissonArrivals::new(
        seed ^ 0x51ed_2701,
        dist.clone(),
        opts.clients.max(2),
        plan.mean_interarrival_secs(),
    );
    let mut net: Network<M, T> = Network::new(topo.clone(), spec.netcfg_with(queues), make);
    if !spec.faults.is_empty() {
        net.install_faults(&spec.faults);
    }
    let mut rng_srv = seed.wrapping_mul(0x2545_F491_4F6C_DD1D);

    let mut pending: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut unloaded_cache: HashMap<u64, u64> = HashMap::new();
    let mut records = Vec::with_capacity(n_rpcs as usize);
    let (mut issued, mut completed, mut aborted) = (0u64, 0u64, 0u64);

    let mut process = |net: &mut Network<M, T>,
                       pending: &mut HashMap<u64, (u64, u64)>,
                       records: &mut Vec<MsgRecord>,
                       completed: &mut u64,
                       aborted: &mut u64| {
        for (at, host, ev) in net.take_app_events() {
            match ev {
                AppEvent::RpcRequestArrived { client, rpc, request_len } => {
                    // Echo: the response is the request payload.
                    net.inject_response(host, client, rpc, request_len);
                }
                AppEvent::RpcCompleted { tag, response_len, .. } => {
                    if let Some((size, injected_ns)) = pending.remove(&tag) {
                        debug_assert_eq!(size, response_len);
                        *completed += 1;
                        if tag >= opts.warmup {
                            let unloaded_ns = *unloaded_cache.entry(size).or_insert_with(|| {
                                // Echo RPC: request one way, response back.
                                2 * net
                                    .topology()
                                    .unloaded_one_way(size, PAYLOAD, OVERHEAD)
                                    .as_nanos()
                            });
                            records.push(MsgRecord {
                                size,
                                injected_ns,
                                completed_ns: at.as_nanos(),
                                unloaded_ns,
                                delay: Default::default(),
                            });
                        }
                    }
                }
                AppEvent::Aborted { tag, .. } => {
                    if pending.remove(&tag).is_some() {
                        *aborted += 1;
                    }
                }
                AppEvent::MessageDelivered { .. } => {}
            }
        }
    };

    while issued < n_rpcs {
        let arrival = gen.next_arrival();
        let at = SimTime::from_nanos(arrival.at_ns);
        net.run_until(at);
        process(&mut net, &mut pending, &mut records, &mut completed, &mut aborted);
        // Random client issues to a random server.
        rng_srv = rng_srv.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let client = HostId(arrival.src % opts.clients);
        let server = HostId(opts.clients + ((rng_srv >> 33) as u32 % servers));
        let tag = issued;
        net.inject_rpc(client, server, arrival.size, tag);
        pending.insert(tag, (arrival.size, at.as_nanos()));
        issued += 1;
    }
    let deadline = net.now() + opts.drain;
    while !pending.is_empty() && net.now() < deadline {
        if net.run_next_before(deadline).is_none() {
            break;
        }
        process(&mut net, &mut pending, &mut records, &mut completed, &mut aborted);
    }

    let stats = net.harvest_stats();
    RpcResult { records, issued, completed, aborted, stats, duration: net.now() }
}

/// Options for [`ScenarioSpec::run_incast`].
#[derive(Debug, Clone)]
pub struct IncastOpts {
    /// Response size in bytes (the paper's Figure 10 uses 10 KB).
    pub resp_len: u64,
    /// Number of rounds to repeat the fan-in.
    pub rounds: u32,
    /// Simulated-time budget per round before outstanding RPCs are
    /// written off as aborted.
    pub per_round_timeout: SimDuration,
}

impl Default for IncastOpts {
    fn default() -> Self {
        IncastOpts { resp_len: 10_000, rounds: 3, per_round_timeout: SimDuration::from_millis(500) }
    }
}

/// Result of one incast configuration (Figure 10).
#[derive(Debug, Clone)]
pub struct IncastResult {
    /// Number of concurrent RPCs per round.
    pub concurrent: u64,
    /// Aggregate response goodput in bits/sec.
    pub throughput_bps: f64,
    /// RPCs that had to be aborted.
    pub aborted: u64,
    /// Packet drops observed in the fabric.
    pub drops: u64,
    /// Full fabric statistics.
    pub stats: RunStats,
}

/// Figure 10: a single client issues `spec.messages` RPCs in parallel
/// (round-robin over the other hosts); each response is
/// `opts.resp_len` bytes. Repeats for `opts.rounds` rounds and reports
/// aggregate throughput. Entry point: [`ScenarioSpec::run_incast`].
///
/// Contract (pinned by tests): the spec's `faults` are installed on the
/// fabric like the other two drivers; `traffic` must be the default
/// (the fan-in *is* the traffic pattern) and `load` must be `0.0` (the
/// run is closed-loop) — non-conforming specs are rejected loudly
/// rather than silently ignored.
pub(crate) fn incast<M, T>(
    spec: &ScenarioSpec,
    queues: Option<QueueDiscipline>,
    make: impl FnMut(HostId) -> T,
    opts: &IncastOpts,
) -> IncastResult
where
    M: PacketMeta,
    T: Transport<M>,
{
    assert!(
        spec.traffic.is_default(),
        "incast scenario '{}': the rotational fan-in is the traffic pattern; \
         a non-default TrafficSpec would be silently ignored — remove it",
        spec.name
    );
    assert!(
        spec.load == 0.0,
        "incast scenario '{}': the run is closed-loop (no Poisson arrivals), \
         so `load` has no effect — set it to 0.0",
        spec.name
    );
    let topo = spec.topology();
    let concurrent = spec.messages;
    let hosts = topo.num_hosts();
    let mut net: Network<M, T> = Network::new(topo.clone(), spec.netcfg_with(queues), make);
    if !spec.faults.is_empty() {
        net.install_faults(&spec.faults);
    }
    let client = HostId(0);
    let mut tag = 0u64;
    let mut delivered_bytes = 0u64;
    let mut aborted = 0u64;
    let start = net.now();
    for _ in 0..opts.rounds {
        // The response fan-in is exactly the incast traffic pattern: the
        // matrix's (sender, 0) pairs name each round's servers (responses
        // converge on host 0, the client).
        let mut fan_in = TrafficMatrix::incast(concurrent.min(u32::MAX as u64) as u32, hosts);
        let mut outstanding = std::collections::HashSet::new();
        for _ in 0..concurrent {
            let (server, to) = fan_in.draw_rotational();
            debug_assert_eq!(to, client.0, "incast matrix must target the client");
            net.inject_rpc(client, HostId(server), 100, tag);
            outstanding.insert(tag);
            tag += 1;
        }
        let deadline = net.now() + opts.per_round_timeout;
        while !outstanding.is_empty() && net.now() < deadline {
            if net.run_next_before(deadline).is_none() {
                break;
            }
            for (_, host, ev) in net.take_app_events() {
                match ev {
                    AppEvent::RpcRequestArrived { client, rpc, .. } => {
                        net.inject_response(host, client, rpc, opts.resp_len);
                    }
                    AppEvent::RpcCompleted { tag, .. } if outstanding.remove(&tag) => {
                        delivered_bytes += opts.resp_len;
                    }
                    AppEvent::Aborted { tag, .. } if outstanding.remove(&tag) => {
                        aborted += 1;
                    }
                    _ => {}
                }
            }
        }
        aborted += outstanding.len() as u64;
    }
    let elapsed = (net.now() - start).as_secs_f64();
    let stats = net.harvest_stats();
    IncastResult {
        concurrent,
        throughput_bps: if elapsed > 0.0 { delivered_bytes as f64 * 8.0 / elapsed } else { 0.0 },
        aborted,
        drops: stats.total_drops(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FabricSpec;
    use homa::HomaConfig;
    use homa_baselines::HomaSimTransport;
    use homa_workloads::{TrafficSpec, Workload};

    fn homa(h: HostId) -> HomaSimTransport {
        HomaSimTransport::new(h, HomaConfig::default())
    }

    #[test]
    fn oneway_small_run_records_everything() {
        let spec = ScenarioSpec::new(
            "small",
            FabricSpec::SingleSwitch { hosts: 8 },
            Workload::W1,
            0.5,
            500,
            7,
        );
        let res = spec.run_oneway(None, homa, &OnewayOpts::default().with_records());
        assert_eq!(res.injected, 500);
        assert_eq!(res.delivered, 500, "all messages must complete");
        assert_eq!(res.aborted, 0);
        assert_eq!(res.duplicate_deliveries, 0);
        assert_eq!(res.records.len(), 500);
        // Slowdowns are sane: >= ~1 (small numerical tolerance).
        for r in &res.records {
            assert!(r.slowdown() > 0.9, "slowdown {} for size {}", r.slowdown(), r.size);
        }
    }

    #[test]
    fn oneway_sketch_agrees_with_exact_records() {
        use crate::slowdown::SlowdownSummary;
        let spec = ScenarioSpec::new(
            "sketch",
            FabricSpec::MultiTor { hosts: 32 },
            Workload::W2,
            0.6,
            600,
            5,
        );
        let res = spec.run_oneway(None, homa, &OnewayOpts::default().with_records());
        // The sketch runs alongside the exact records and must tell the
        // same story within its alpha.
        assert_eq!(res.sketch.count(), res.records.len() as u64);
        let exact = SlowdownSummary::from_records(&res.records, 10);
        let approx = res.sketch.summary(10);
        let rel = |a: f64, b: f64| (a - b).abs() / b.max(1e-12);
        assert!(
            rel(approx.overall_p50, exact.overall_p50) < 0.011,
            "p50 {} vs {}",
            approx.overall_p50,
            exact.overall_p50
        );
        assert!(
            rel(approx.overall_p99, exact.overall_p99) < 0.011,
            "p99 {} vs {}",
            approx.overall_p99,
            exact.overall_p99
        );
        // delivered_bps no longer depends on retained records.
        let goodput: u64 = res.records.iter().map(|r| r.size).sum();
        let expect = goodput as f64 * 8.0 / res.duration.as_secs_f64();
        assert!((res.delivered_bps - expect).abs() < 1e-6);
    }

    #[test]
    fn rpc_echo_small_run() {
        let spec = ScenarioSpec::new(
            "rpc",
            FabricSpec::SingleSwitch { hosts: 16 },
            Workload::W3,
            0.4,
            300,
            3,
        );
        let res = spec.run_rpc_echo(None, homa, &RpcOpts::default());
        assert_eq!(res.issued, 300);
        assert_eq!(res.completed, 300);
        for r in &res.records {
            assert!(r.slowdown() > 0.9);
        }
    }

    #[test]
    fn oneway_incast_pattern_converges_on_host_zero() {
        use homa_workloads::VictimSpec;
        let spec = ScenarioSpec::new(
            "conv",
            FabricSpec::SingleSwitch { hosts: 12 },
            Workload::W2,
            0.5,
            400,
            11,
        )
        .with_traffic(TrafficSpec::incast(8).with_victim(VictimSpec::new(9, 10, 5_000, 50_000)));
        let res = spec.run_oneway(None, homa, &OnewayOpts::default().with_records());
        assert_eq!(res.injected, 400);
        assert_eq!(res.delivered, 400, "incast at 50% of the victim downlink must complete");
        // The victim overlay's completions are separated out.
        assert!(!res.victim_records.is_empty(), "no victim records");
        assert_eq!(res.records.len() + res.victim_records.len(), 400);
        for r in &res.victim_records {
            assert_eq!(r.size, 5_000);
        }
    }

    #[test]
    fn oneway_under_link_flap_recovers() {
        use homa_sim::{FaultPlan, LinkId};
        // Flap host 1's downlink four times during the run. Messages
        // that kept at least one surviving packet are recovered by
        // RESEND; only wholly-dropped one-way messages may be lost
        // (fire-and-forget), and every message must be accounted for.
        let spec = ScenarioSpec::new(
            "flap",
            FabricSpec::SingleSwitch { hosts: 8 },
            Workload::W3,
            0.5,
            600,
            3,
        )
        .with_faults(FaultPlan::new().link_flaps(
            LinkId::HostDownlink(HostId(1)),
            100_000,
            150_000,
            400_000,
            4,
        ));
        let res = spec.run_oneway(None, homa, &OnewayOpts::default());
        assert_eq!(res.injected, 600);
        assert_eq!(res.stats.faults_applied, 8);
        assert_eq!(
            res.delivered + res.aborted + res.lost,
            600,
            "messages unaccounted for: {} delivered, {} aborted, {} lost",
            res.delivered,
            res.aborted,
            res.lost
        );
        assert_eq!(res.duplicate_deliveries, 0);
        assert!(res.stats.fault_drops > 0, "flaps never bit");
        assert!(res.delivered >= 500, "flap recovery too lossy: {}", res.delivered);
    }

    #[test]
    fn incast_round_completes() {
        let spec = ScenarioSpec::incast("inc64", FabricSpec::SingleSwitch { hosts: 16 }, 64, 7);
        let res = spec.run_incast(
            None,
            homa,
            &IncastOpts {
                rounds: 2,
                per_round_timeout: SimDuration::from_millis(100),
                ..IncastOpts::default()
            },
        );
        assert_eq!(res.aborted, 0, "64-wide incast survives with control");
        assert!(res.throughput_bps > 1e9, "throughput {}", res.throughput_bps);
    }

    #[test]
    fn incast_installs_spec_faults() {
        use homa_sim::{FaultPlan, LinkId};
        // The satellite contract: an incast spec's fault schedule is
        // installed on the fabric, not silently dropped. The client's
        // downlink flap must show up in the fault counters and bite.
        let spec = ScenarioSpec::incast("inc_flap", FabricSpec::SingleSwitch { hosts: 16 }, 64, 7)
            .with_faults(FaultPlan::new().link_flaps(
                LinkId::HostDownlink(HostId(0)),
                20_000,
                60_000,
                200_000,
                2,
            ));
        let res = spec.run_incast(
            None,
            homa,
            &IncastOpts {
                rounds: 2,
                per_round_timeout: SimDuration::from_millis(100),
                ..IncastOpts::default()
            },
        );
        assert_eq!(res.stats.faults_applied, 4, "fault schedule not installed");
        assert!(res.stats.fault_drops > 0, "client downlink flap never bit");
        // The faulted run must still make progress once the link is back.
        assert!(res.throughput_bps > 0.0);
    }

    #[test]
    #[should_panic(expected = "the rotational fan-in is the traffic pattern")]
    fn incast_rejects_non_default_traffic() {
        let spec = ScenarioSpec::incast("bad", FabricSpec::SingleSwitch { hosts: 8 }, 16, 1)
            .with_traffic(TrafficSpec::shuffle());
        spec.run_incast(None, homa, &IncastOpts::default());
    }

    #[test]
    #[should_panic(expected = "closed-loop")]
    fn incast_rejects_nonzero_load() {
        let spec = ScenarioSpec::new(
            "bad_load",
            FabricSpec::SingleSwitch { hosts: 8 },
            Workload::W4,
            0.5,
            16,
            1,
        );
        spec.run_incast(None, homa, &IncastOpts::default());
    }
}
