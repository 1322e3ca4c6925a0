//! Generic experiment driver: one run core, three arrival shapes, all
//! entered through [`crate::ScenarioSpec`]'s run methods.
//!
//! * one-way — the §5.2 simulation setup: one-way messages with Poisson
//!   arrivals at a target network load, placed by the spec's traffic
//!   matrix, victim overlay and workload mix (Figures 12–21, Table 1).
//! * RPC echo — the §5.1 implementation setup: Poisson arrivals, each a
//!   client's echo RPC to a random server (Figures 8–9).
//! * incast — Figure 10: closed-loop rounds of concurrent RPCs from one
//!   client with 10 KB responses, stragglers written off per round.
//!
//! A shape decides only where the next arrival comes from and how long
//! a response is. The private run core owns the rest — the `Network`,
//! the outstanding messages, every tally, the one application-event
//! pump, the one drain loop — and every shape takes [`OnewayOpts`] and
//! returns [`OnewayResult`]. What a run *is* (fabric, workload, load,
//! seed, traffic, faults) comes from the spec, so every run is
//! replayable from its one-line text form (`ScenarioSpec::to_spec_line`).

use crate::scenario::ScenarioSpec;
use crate::slowdown::{MsgRecord, SlowdownSketch};
use homa_sim::{
    AppEvent, EngineStats, FlightRecorder, HostId, Network, PacketMeta, PathClass, QueueDiscipline,
    RunStats, SimDuration, SimTime, TraceRecord, Transport,
};
use homa_workloads::{LoadPlan, MessageSizeDist, PoissonArrivals, TrafficMatrix};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative hash for maps whose keys this process makes up itself:
/// `pending` (tags are injection order) and the `unloaded` memo (sizes the
/// generator drew, path classes of this fabric). `std`'s keyed SipHash costs
/// more than the rest of a `pending` round trip and guards against keys
/// chosen to collide, which nobody can choose here. It stays private to this
/// file: a map keyed by anything that can arrive off the wire — `MsgKey`,
/// `PeerId`, RPC ids, in `homa` and the UDP node that runs the same core —
/// must keep the keyed default, or one peer can degrade it to a list.
#[derive(Default)]
struct OwnKeyHasher(u64);

impl Hasher for OwnKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type OwnKeyMap<K, V> = HashMap<K, V, BuildHasherDefault<OwnKeyHasher>>;

/// Per-packet constants used for unloaded-latency denominators and load
/// planning: the ones every transport in this repository is built on
/// (`homa::config`, from which `homa_baselines::common` takes its own).
pub const PAYLOAD: u64 = homa::config::MAX_PAYLOAD as u64;
/// Wire overhead per data packet.
pub const OVERHEAD: u64 = homa::config::DATA_OVERHEAD as u64;
/// Wire size of control packets.
pub const CTRL: u64 = homa::config::CTRL_BYTES as u64;

/// Cadence of the Figure 16 wasted-bandwidth probe.
const SAMPLE_INTERVAL: SimDuration = SimDuration::from_micros(10);
/// Echo-RPC shape: the first `RPC_CLIENTS` host ids issue, the rest serve.
const RPC_CLIENTS: u32 = 8;
/// Incast shape (Figure 10): request and response bytes, fan-in rounds,
/// and the simulated time a round gets before its stragglers are aborted.
const INCAST_REQ_LEN: u64 = 100;
const INCAST_RESP_LEN: u64 = 10_000;
const INCAST_ROUNDS: u64 = 3;
const INCAST_ROUND_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// Options shared by the three run methods of [`ScenarioSpec`]: the
/// measurement knobs that are *not* part of what a scenario is (those —
/// fabric, workload, load, traffic, faults — live on the spec itself).
#[derive(Debug, Clone)]
pub struct OnewayOpts {
    /// Sample the Figure 16 wasted-bandwidth probe (every 10 µs, on the
    /// arrival clock — the closed-loop incast shape has none).
    pub sample_wasted: bool,
    /// Ask transports for per-message delay attribution (Figure 14).
    pub track_delay: bool,
    /// Extra simulated time allowed after the last injection for
    /// outstanding messages to finish (incast rounds have their own
    /// fixed write-off budget instead).
    pub drain: SimDuration,
    /// Retain every per-message [`MsgRecord`] in the result (O(messages)
    /// memory). Off by default: the always-on [`SlowdownSketch`] covers
    /// slowdown summaries in O(sketch bins), which is what keeps 1k-host
    /// runs memory-flat. Figure pipelines and tests that read
    /// `records`/`victim_records` opt in.
    pub keep_records: bool,
    /// Record a flight-recorder trace of the run into
    /// [`OnewayResult::trace`]. The run itself is bit-identical to an
    /// untraced one.
    pub trace: bool,
    /// Ring capacity (records) for the flight recorder when `trace` is
    /// set; the oldest records are dropped beyond it.
    pub trace_cap: usize,
}

impl Default for OnewayOpts {
    fn default() -> Self {
        OnewayOpts {
            sample_wasted: false,
            track_delay: false,
            drain: SimDuration::from_millis(200),
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

/// Result of a run, whatever its arrival shape. "Message" below is a
/// one-way message or a whole RPC (issued → response complete), sized by
/// the payload whose arrival completes it.
#[derive(Debug, Default)]
pub struct OnewayResult {
    /// Per-message observations (delivered only; the victim overlay's
    /// messages are reported in `victim_records` instead).
    /// Empty unless [`OnewayOpts::keep_records`] is set — the streaming
    /// [`sketch`](OnewayResult::sketch) is the default summary channel.
    pub records: Vec<MsgRecord>,
    /// Observations for the victim-flow overlay, if the traffic spec has
    /// one (empty otherwise, and empty unless
    /// [`OnewayOpts::keep_records`] is set).
    pub victim_records: Vec<MsgRecord>,
    /// Always-on streaming slowdown summary over the same non-victim
    /// messages `records` would hold; O(sketch bins) memory regardless
    /// of message count.
    pub sketch: SlowdownSketch,
    /// Messages injected (RPCs issued).
    pub injected: u64,
    /// Messages delivered (RPCs completed).
    pub delivered: u64,
    /// Messages aborted by the transport, plus incast RPCs written off
    /// when their round timed out.
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
    /// Offered goodput in bits/sec up to the last injection.
    pub offered_bps: f64,
    /// Delivered goodput in bits/sec over the whole run.
    pub delivered_bps: f64,
    /// Flight-recorder trace of the run, in `(time, seq)` order. Empty
    /// unless [`OnewayOpts::trace`] was set.
    pub trace: Vec<TraceRecord>,
    /// Trace records dropped because the recorder ring filled (oldest
    /// first); nonzero means `trace` holds only the tail of the run.
    pub trace_dropped: u64,
    /// Deterministic event-engine counters (calendar bucket, late and
    /// far insert counts, epoch occupancy) at harvest.
    pub engine_stats: EngineStats,
}

/// Bitset over message tags: which messages have already been resolved
/// (delivered or aborted). Backs the duplicate-delivery counter in
/// O(messages/8) memory.
#[derive(Default)]
struct ResolvedSet {
    bits: Vec<u64>,
}

impl ResolvedSet {
    fn mark(&mut self, tag: u64) {
        let word = (tag / 64) as usize;
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        self.bits[word] |= 1u64 << (tag % 64);
    }

    fn contains(&self, tag: u64) -> bool {
        self.bits.get((tag / 64) as usize).is_some_and(|w| w & (1u64 << (tag % 64)) != 0)
    }
}

/// What the core remembers about an injected message until it resolves.
struct Pending {
    /// Bytes whose arrival completes it (message or response length).
    size: u64,
    injected_ns: u64,
    unloaded_ns: u64,
    victim: bool,
}

/// The run core every arrival shape drives: the fabric, the outstanding
/// messages (tags are injection order) and every tally.
struct Run<'a, M: PacketMeta, T: Transport<M>> {
    net: Network<M, T>,
    opts: &'a OnewayOpts,
    /// Response length servers send; `None` echoes the request.
    resp_len: Option<u64>,
    pending: OwnKeyMap<u64, Pending>,
    resolved: ResolvedSet,
    /// Memoized one-way unloaded latency by `(size, path class)`.
    unloaded: OwnKeyMap<(u64, PathClass), u64>,
    /// Records, sketch and message counts accumulate here; `finish`
    /// fills in what is only known at the end.
    out: OnewayResult,
    injected_bytes: u64,
    delivered_bytes: u64,
    last_inject: SimTime,
    // Wasted-bandwidth sampling state.
    next_sample: SimTime,
    samples: u64,
    wasted_hits: u64,
}

impl<'a, M: PacketMeta, T: Transport<M>> Run<'a, M, T> {
    /// Build `spec`'s fabric and install its fault schedule and the
    /// recorder.
    fn new(
        spec: &ScenarioSpec,
        queues: Option<QueueDiscipline>,
        make: impl FnMut(HostId) -> T,
        opts: &'a OnewayOpts,
    ) -> Self {
        let mut net = Network::new(spec.topology(), spec.netcfg_with(queues), make);
        if !spec.faults.is_empty() {
            net.install_faults(&spec.faults);
        }
        if opts.trace {
            net.enable_trace(opts.trace_cap);
        }
        Run {
            net,
            opts,
            resp_len: None,
            pending: OwnKeyMap::default(),
            resolved: ResolvedSet::default(),
            unloaded: OwnKeyMap::default(),
            out: OnewayResult::default(),
            injected_bytes: 0,
            delivered_bytes: 0,
            last_inject: SimTime::ZERO,
            next_sample: SimTime::ZERO + SAMPLE_INTERVAL,
            samples: 0,
            wasted_hits: 0,
        }
    }

    fn unloaded_ns(&mut self, size: u64, class: PathClass) -> u64 {
        let topo = self.net.topology();
        *self.unloaded.entry((size, class)).or_insert_with(|| {
            topo.unloaded_one_way_class(size, PAYLOAD, OVERHEAD, class).as_nanos()
        })
    }

    /// Book the next tag as outstanding from now and return it.
    fn book(&mut self, size: u64, unloaded_ns: u64, victim: bool) -> u64 {
        let tag = self.out.injected;
        self.last_inject = self.net.now();
        let injected_ns = self.last_inject.as_nanos();
        self.pending.insert(tag, Pending { size, injected_ns, unloaded_ns, victim });
        self.out.injected += 1;
        self.injected_bytes += size;
        tag
    }

    /// Inject a one-way message at the current time.
    fn inject_message(&mut self, src: HostId, dst: HostId, size: u64, victim: bool) {
        let class = self.net.topology().path_class(src, dst);
        let unloaded_ns = self.unloaded_ns(size, class);
        let tag = self.book(size, unloaded_ns, victim);
        self.net.inject_message(src, dst, size, tag);
    }

    /// Issue an RPC at the current time; its best case is the request
    /// one way plus the response back.
    fn inject_rpc(&mut self, client: HostId, server: HostId, req_len: u64) {
        let class = self.net.topology().path_class(client, server);
        let resp_len = self.resp_len.unwrap_or(req_len);
        let unloaded_ns = self.unloaded_ns(req_len, class) + self.unloaded_ns(resp_len, class);
        let tag = self.book(resp_len, unloaded_ns, false);
        self.net.inject_rpc(client, server, req_len, tag);
    }

    /// The one application-event pump: settle deliveries, completions
    /// and aborts against `pending`, and answer RPC requests.
    fn pump(&mut self) {
        for (at, host, ev) in self.net.take_app_events() {
            let (tag, len, from) = match ev {
                AppEvent::MessageDelivered { src, tag, len } => (tag, len, Some(src)),
                AppEvent::RpcCompleted { tag, response_len, .. } => (tag, response_len, None),
                AppEvent::RpcRequestArrived { client, rpc, request_len } => {
                    let len = self.resp_len.unwrap_or(request_len);
                    self.net.inject_response(host, client, rpc, len);
                    continue;
                }
                AppEvent::Aborted { tag, .. } => {
                    if self.pending.remove(&tag).is_some() {
                        self.resolved.mark(tag);
                        self.out.aborted += 1;
                    }
                    continue;
                }
            };
            let Some(p) = self.pending.remove(&tag) else {
                // Resolved before, or never injected. (A straggler of a
                // written-off incast round is neither.)
                if tag >= self.out.injected || self.resolved.contains(tag) {
                    self.out.duplicate_deliveries += 1;
                }
                continue;
            };
            debug_assert_eq!(p.size, len);
            self.resolved.mark(tag);
            self.out.delivered += 1;
            self.delivered_bytes += p.size;
            let delay = match from {
                Some(src) if self.opts.track_delay => {
                    self.net.with_transport(host, |t, _, _| t.take_message_delay(src, tag))
                }
                _ => Default::default(),
            };
            let rec = MsgRecord {
                size: p.size,
                injected_ns: p.injected_ns,
                completed_ns: at.as_nanos(),
                unloaded_ns: p.unloaded_ns,
                delay,
            };
            if !p.victim {
                self.out.sketch.push(p.size, rec.slowdown());
            }
            if self.opts.keep_records {
                let out = &mut self.out;
                if p.victim { &mut out.victim_records } else { &mut out.records }.push(rec);
            }
        }
    }

    /// Run the fabric up to the next arrival at `at`, stopping at every
    /// probe instant on the way when sampling is on.
    fn advance(&mut self, at: SimTime) {
        while self.opts.sample_wasted && self.next_sample <= at {
            self.net.run_until(self.next_sample);
            self.pump();
            for h in self.net.topology().hosts() {
                self.samples += 1;
                if self.net.downlink_idle(h) && self.net.withholding(h) {
                    self.wasted_hits += 1;
                }
            }
            self.next_sample += SAMPLE_INTERVAL;
        }
        self.net.run_until(at);
        self.pump();
    }

    /// Step event batch by event batch until nothing is outstanding or
    /// `budget` of simulated time has passed.
    fn drain(&mut self, budget: SimDuration) {
        let deadline = self.net.now() + budget;
        while !self.pending.is_empty() && self.net.now() < deadline {
            if self.net.run_next_before(deadline).is_none() {
                break;
            }
            self.pump();
        }
    }

    fn finish(mut self) -> OnewayResult {
        let bps = |bytes: u64, over: SimTime| match over.as_nanos() {
            0 => 0.0,
            _ => bytes as f64 * 8.0 / over.as_secs_f64(),
        };
        let duration = self.net.now();
        OnewayResult {
            lost: self.pending.len() as u64,
            // 0/0 when the probe never ran: NaN.
            wasted_fraction: self.wasted_hits as f64 / self.samples as f64,
            duration,
            offered_bps: bps(self.injected_bytes, self.last_inject),
            delivered_bps: bps(self.delivered_bytes, duration),
            trace: self.net.take_trace(),
            trace_dropped: self.net.trace_dropped(),
            engine_stats: self.net.engine_stats(),
            stats: self.net.harvest_stats(),
            prio_bytes: self.net.uplink_bytes_by_prio(),
            ..self.out
        }
    }
}

/// Mean wire overhead per message of `dist`, for load planning.
fn mean_overhead(dist: &MessageSizeDist) -> f64 {
    LoadPlan::estimate_overhead(dist, PAYLOAD, OVERHEAD, CTRL, homa::config::RTT_BYTES)
}

/// Run the one-way-message experiment `spec` describes: inject
/// `spec.messages` Poisson arrivals at `spec.load`, placed by the spec's
/// traffic pattern, then drain. Entry point: [`ScenarioSpec::run_oneway`].
pub(crate) fn oneway<M: PacketMeta, T: Transport<M>>(
    spec: &ScenarioSpec,
    queues: Option<QueueDiscipline>,
    make: impl FnMut(HostId) -> T,
    opts: &OnewayOpts,
) -> OnewayResult {
    let mut run = Run::new(spec, queues, make, opts);
    let topo = run.net.topology();
    let dist = spec.workload.dist();
    let traffic = &spec.traffic;
    let hosts = topo.num_hosts();
    // A bimodal mix shifts the mean message size (and overhead); fold the
    // second mode into the load arithmetic so the target load stays
    // honest.
    let mix = traffic.mix.as_ref().map(|m| (m.second.dist(), m.frac));
    let blend = |of: &dyn Fn(&MessageSizeDist) -> f64| match &mix {
        Some((second, f)) => (1.0 - f) * of(&dist) + f * of(second),
        None => of(&dist),
    };
    let plan = LoadPlan {
        // Patterns that concentrate on one link (incast) interpret `load`
        // against that bottleneck, not the whole fabric.
        hosts: traffic.loaded_links(hosts),
        host_link_bps: topo.host_link_bps,
        load: spec.load,
        mean_msg_bytes: blend(&MessageSizeDist::mean),
        mean_overhead_bytes: blend(&mean_overhead),
    };
    let gap = plan.mean_interarrival_secs();
    let mut gen = PoissonArrivals::new(spec.seed ^ 0x9e37_79b9, dist, hosts, gap)
        .with_matrix(traffic.matrix(hosts, topo.hosts_per_rack, spec.seed));
    if let Some((second, frac)) = mix {
        gen = gen.with_mix(second, frac);
    }
    if let Some(victim) = traffic.victim {
        gen = gen.with_victim(victim);
    }
    for _ in 0..spec.messages {
        let a = gen.next_arrival();
        run.advance(SimTime::from_nanos(a.at_ns));
        run.inject_message(HostId(a.src), HostId(a.dst), a.size, a.victim);
    }
    run.drain(opts.drain);
    run.finish()
}

/// The §5.1 echo benchmark: clients (the first [`RPC_CLIENTS`] hosts)
/// issue `spec.messages` echo RPCs of workload-sampled sizes to random
/// servers at `spec.load`; servers return the same payload. Entry point:
/// [`ScenarioSpec::run_rpc_echo`].
pub(crate) fn rpc_echo<M: PacketMeta, T: Transport<M>>(
    spec: &ScenarioSpec,
    queues: Option<QueueDiscipline>,
    make: impl FnMut(HostId) -> T,
    opts: &OnewayOpts,
) -> OnewayResult {
    let mut run = Run::new(spec, queues, make, opts);
    let topo = run.net.topology();
    let dist = spec.workload.dist();
    assert!(RPC_CLIENTS < topo.num_hosts(), "echo RPCs need {RPC_CLIENTS} clients and a server");
    let servers = topo.num_hosts() - RPC_CLIENTS;
    let plan = LoadPlan {
        hosts: RPC_CLIENTS,
        host_link_bps: topo.host_link_bps,
        load: spec.load,
        mean_msg_bytes: dist.mean(),
        mean_overhead_bytes: mean_overhead(&dist),
    };
    let gap = plan.mean_interarrival_secs();
    let mut gen = PoissonArrivals::new(spec.seed ^ 0x51ed_2701, dist, RPC_CLIENTS, gap);
    let mut rng_srv = spec.seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
    for _ in 0..spec.messages {
        let a = gen.next_arrival();
        run.advance(SimTime::from_nanos(a.at_ns));
        // The arrival's source is the client; the server is drawn apart.
        rng_srv = rng_srv.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let server = HostId(RPC_CLIENTS + ((rng_srv >> 33) as u32 % servers));
        run.inject_rpc(HostId(a.src), server, a.size);
    }
    run.drain(opts.drain);
    run.finish()
}

/// Figure 10: host 0 issues `spec.messages` RPCs in parallel (round-robin
/// over the other hosts), each answered with [`INCAST_RESP_LEN`] bytes,
/// for [`INCAST_ROUNDS`] rounds; `delivered_bps` is the aggregate
/// response goodput. Entry point: [`ScenarioSpec::run_incast`].
///
/// A spec with a non-default `traffic` or a nonzero `load` is rejected
/// loudly rather than silently ignored (pinned by tests).
pub(crate) fn incast<M: PacketMeta, T: Transport<M>>(
    spec: &ScenarioSpec,
    queues: Option<QueueDiscipline>,
    make: impl FnMut(HostId) -> T,
    opts: &OnewayOpts,
) -> OnewayResult {
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
    let concurrent = spec.messages;
    let mut run = Run::new(spec, queues, make, opts);
    run.resp_len = Some(INCAST_RESP_LEN);
    let hosts = run.net.topology().num_hosts();
    let client = HostId(0);
    for _ in 0..INCAST_ROUNDS {
        // The response fan-in is exactly the incast traffic pattern: the
        // matrix's (sender, 0) pairs name each round's servers (responses
        // converge on host 0, the client).
        let mut fan_in = TrafficMatrix::incast(concurrent.min(u32::MAX as u64) as u32, hosts);
        for _ in 0..concurrent {
            let (server, to) = fan_in.draw_rotational();
            debug_assert_eq!(to, client.0, "incast matrix must target the client");
            run.inject_rpc(client, HostId(server), INCAST_REQ_LEN);
        }
        run.drain(INCAST_ROUND_TIMEOUT);
        // Write the round's stragglers off as aborted. Their tags stay
        // unresolved, so a late completion is ignored, not a duplicate.
        run.out.aborted += run.pending.len() as u64;
        run.pending.clear();
    }
    run.finish()
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
        let res = spec.run_rpc_echo(None, homa, &OnewayOpts::default().with_records());
        assert_eq!(res.injected, 300);
        assert_eq!(res.delivered, 300);
        assert_eq!(res.records.len(), 300);
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

    /// Recorded at the parent of the run-core refactor (three rounds,
    /// 500 ms write-off, 10 KB responses, seed 42, 16-host switch):
    /// `(concurrent, incast_threshold, events, drops, delivered_bps bits)`.
    /// Without control the 256-wide fan-in overruns the switch.
    #[test]
    fn incast_numerics_are_pinned() {
        for (n, threshold, events, drops, bps_bits) in [
            (64u64, 32u32, 8_280u64, 0u64, 0x4201_4fdc_98dd_7126u64),
            (64, u32::MAX, 8_280, 0, 0x4201_02dd_1955_9c69),
            (256, 32, 31_624, 0, 0x4201_a7db_da3c_0462),
            (256, u32::MAX, 46_632, 2_829, 0x41d8_e542_868b_f8fb),
        ] {
            let cfg = HomaConfig { incast_threshold: threshold, ..HomaConfig::default() };
            let spec = ScenarioSpec::incast("pin", FabricSpec::SingleSwitch { hosts: 16 }, n, 42);
            let res = spec.run_incast(
                None,
                |h| HomaSimTransport::new(h, cfg.clone()),
                &OnewayOpts::default(),
            );
            let case = format!("{n}-wide, threshold {threshold}");
            assert_eq!(res.stats.events_processed, events, "{case}");
            assert_eq!((res.injected, res.delivered, res.aborted), (3 * n, 3 * n, 0), "{case}");
            assert_eq!(res.stats.total_drops(), drops, "{case}");
            assert_eq!(res.delivered_bps.to_bits(), bps_bits, "{case}: {}", res.delivered_bps);
        }
    }

    #[test]
    fn all_shapes_conserve_messages_under_a_flap() {
        use homa_sim::{FaultPlan, LinkId};
        type Shape = fn(&ScenarioSpec, &OnewayOpts) -> OnewayResult;
        let cluster = FabricSpec::SingleSwitch { hosts: 16 };
        let open = |name| ScenarioSpec::new(name, cluster, Workload::W3, 0.5, 400, 3);
        let rows: [(ScenarioSpec, Shape, u64); 3] = [
            (open("oneway"), |s, o| s.run_oneway(None, homa, o), 400),
            (open("rpc"), |s, o| s.run_rpc_echo(None, homa, o), 400),
            (
                ScenarioSpec::incast("incast", cluster, 64, 3),
                |s, o| s.run_incast(None, homa, o),
                3 * 64,
            ),
        ];
        for (spec, shape, injected) in rows {
            // Flap host 0's downlink twice during the run: host 0 is the
            // incast client and an echo client, so every shape sends it
            // payload the flap cuts. Whatever kept a surviving packet is
            // recovered by RESEND; a wholly-dropped one-way message may be
            // lost (fire-and-forget); every message must be accounted for.
            let spec = spec.with_faults(FaultPlan::new().link_flaps(
                LinkId::HostDownlink(HostId(0)),
                20_000,
                60_000,
                200_000,
                2,
            ));
            let res = shape(&spec, &OnewayOpts::default());
            let name = &spec.name;
            assert_eq!(res.injected, injected, "{name}");
            assert_eq!(
                res.delivered + res.aborted + res.lost,
                injected,
                "{name}: {} delivered, {} aborted, {} lost",
                res.delivered,
                res.aborted,
                res.lost
            );
            assert_eq!(res.stats.faults_applied, 4, "{name}: fault schedule not installed");
            assert!(res.stats.fault_drops > 0, "{name}: flap never bit");
            assert_eq!(res.duplicate_deliveries, 0, "{name}");
            assert!(res.delivered >= injected * 5 / 6, "{name}: too lossy: {}", res.delivered);
            assert_eq!(res.sketch.count(), res.delivered, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "the rotational fan-in is the traffic pattern")]
    fn incast_rejects_non_default_traffic() {
        let spec = ScenarioSpec::incast("bad", FabricSpec::SingleSwitch { hosts: 8 }, 16, 1)
            .with_traffic(TrafficSpec::shuffle());
        spec.run_incast(None, homa, &OnewayOpts::default());
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
        spec.run_incast(None, homa, &OnewayOpts::default());
    }
}
