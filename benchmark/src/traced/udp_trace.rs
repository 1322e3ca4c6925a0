//! Timestamps at the udp node's boundaries: around `call` and `respond`,
//! and at event receipt on the client and the echo thread.

use crate::probes::{self, CoreTraffic};
use crate::trace::SpanSink;
use crate::{alloc, Traced};
use homa_benchmark::metrics::Metrics;
use homa_benchmark::plan::{Reply, RpcPlan};
use homa_benchmark::procfs::{process_cpu_ns, threads, ThreadCpu};
use homa_benchmark::run::{finish_udp, Outcome};
use homa_benchmark::stats::{best_of, median, percentile, repeat_spread};
use homa_benchmark::udp::{run_repeat, EchoServer, Pair, RepeatOutcome, RpcProbe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// An RTT above the node's 20 ms resend interval means loss recovery ran.
const SLOW_RTT_NS: u64 = 20_000_000;

/// The timestamps of one repeat, in nanoseconds after `epoch`. Client-side
/// arrays are indexed by request number; server-side ones by the RPC's
/// sequence number modulo the plan length (one repeat's sequence numbers
/// are consecutive, so the slots are distinct).
pub struct Stamps {
    epoch: Instant,
    on: AtomicBool,
    call_begin: Vec<AtomicU64>,
    call_end: Vec<AtomicU64>,
    seq: Vec<AtomicU64>,
    response_seen: Vec<AtomicU64>,
    request_seen: Vec<AtomicU64>,
    respond_begin: Vec<AtomicU64>,
    respond_end: Vec<AtomicU64>,
}

/// What the stamps of one repeat say.
#[derive(Debug, Clone, Default)]
pub struct RepeatLatencies {
    /// Round-trip times, `call` entered to `Response` received, µs.
    pub rtt_us: Vec<f64>,
    /// `call` entered to `Request` received by the echo thread, µs.
    pub req_leg_us: Vec<f64>,
    /// `respond` entered to `Response` received by the client, µs.
    pub resp_leg_us: Vec<f64>,
    /// Mean µs inside `call`.
    pub call_us: f64,
    /// Mean µs inside `respond`.
    pub respond_us: f64,
    /// RTTs above the resend interval.
    pub slow_rpcs: u64,
}

impl RepeatLatencies {
    /// The `p`-th percentile of the RTTs.
    pub fn rtt_percentile(&self, p: f64) -> f64 {
        percentile(&mut self.rtt_us.clone(), p).unwrap_or(0.0)
    }
}

impl Stamps {
    /// Stamps for plans of `n` requests; off until [`set_on`](Self::set_on).
    pub fn new(n: usize) -> Self {
        let col = || (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Stamps {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            call_begin: col(),
            call_end: col(),
            seq: col(),
            response_seen: col(),
            request_seen: col(),
            respond_begin: col(),
            respond_end: col(),
        }
    }

    /// Turn stamping on or off (off costs one relaxed load per hook).
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Relaxed);
    }

    fn stamp(&self, col: &[AtomicU64], slot: usize) {
        if self.on.load(Relaxed) {
            col[slot % col.len()].store(self.epoch.elapsed().as_nanos() as u64, Relaxed);
        }
    }

    /// Reduce the repeat just finished; every request must have completed.
    /// Also records `call`/`respond` spans into `sink`.
    pub fn reduce(&self, sink: &mut SpanSink, respond_sink: &mut SpanSink) -> RepeatLatencies {
        let n = self.call_begin.len();
        let get = |col: &[AtomicU64], i: usize| col[i % n].load(Relaxed);
        let mut out = RepeatLatencies::default();
        let (mut call_ns, mut respond_ns) = (0u64, 0u64);
        for i in 0..n {
            let s = get(&self.seq, i) as usize;
            let (cb, ce, rs) =
                (get(&self.call_begin, i), get(&self.call_end, i), get(&self.response_seen, i));
            let (qs, pb, pe) = (
                get(&self.request_seen, s),
                get(&self.respond_begin, s),
                get(&self.respond_end, s),
            );
            let rtt = rs.saturating_sub(cb);
            out.rtt_us.push(rtt as f64 / 1e3);
            out.req_leg_us.push(qs.saturating_sub(cb) as f64 / 1e3);
            out.resp_leg_us.push(rs.saturating_sub(pb) as f64 / 1e3);
            out.slow_rpcs += u64::from(rtt > SLOW_RTT_NS);
            call_ns += ce.saturating_sub(cb);
            respond_ns += pe.saturating_sub(pb);
            sink.record("HomaUdpNode::call", cb, ce.saturating_sub(cb), i as u64);
            respond_sink.record("HomaUdpNode::respond", pb, pe.saturating_sub(pb), i as u64);
        }
        out.call_us = call_ns as f64 / 1e3 / n as f64;
        out.respond_us = respond_ns as f64 / 1e3 / n as f64;
        out
    }
}

impl RpcProbe for Stamps {
    fn call_begin(&self, i: usize) {
        self.stamp(&self.call_begin, i);
    }
    fn call_end(&self, i: usize, seq: u64) {
        self.stamp(&self.call_end, i);
        self.seq[i].store(seq, Relaxed);
    }
    fn response_seen(&self, i: usize) {
        self.stamp(&self.response_seen, i);
    }
    fn request_seen(&self, rpc: u64) {
        self.stamp(&self.request_seen, rpc as usize);
    }
    fn respond_begin(&self, rpc: u64) {
        self.stamp(&self.respond_begin, rpc as usize);
    }
    fn respond_end(&self, rpc: u64) {
        self.stamp(&self.respond_end, rpc as usize);
    }
}

/// CPU nanoseconds, user ticks and system ticks of the threads whose
/// name passes `keep`.
fn cpu_of(threads: &[ThreadCpu], keep: impl Fn(&str) -> bool) -> (u64, u64, u64) {
    threads
        .iter()
        .filter(|t| keep(&t.name))
        .fold((0, 0, 0), |acc, t| (acc.0 + t.cpu_ns, acc.1 + t.utime_ticks, acc.2 + t.stime_ticks))
}

/// The traced run of a udp workload: repeats alternate between stamps off
/// (the cost the measured binary sees) and stamps on, then one repeat
/// with the counting allocator on, then the core and wire probes.
pub fn run(plan: &RpcPlan, seconds: f64, mut m: Metrics) -> Result<Traced, String> {
    let n = plan.requests.len();
    let pair = Pair::bind().map_err(|e| format!("bind: {e}"))?;
    let stamps = Arc::new(Stamps::new(n));
    let echo = EchoServer::start(Arc::clone(&pair.server), plan.reply, Arc::clone(&stamps));
    let is_driver = |name: &str| name.starts_with("homa-udp-");

    let mut total = RepeatOutcome::default();
    let (mut plain_cpu, mut plain_wall, mut stamped_cpu) = (Vec::new(), Vec::new(), Vec::new());
    let mut latencies: Vec<RepeatLatencies> = Vec::new();
    let mut sinks: Vec<SpanSink> = Vec::new();
    let mut warmup_s = 0.0;
    let before = threads();
    let started = Instant::now();
    let mut rep = 0u64;
    // At least two repeats of each kind; more while the budget (less a
    // fifth kept for the counted repeat and the probes) holds another.
    while rep < 4
        || started.elapsed().as_secs_f64() * (rep + 1) as f64 / rep as f64 <= seconds * 0.8
    {
        let on = rep % 2 == 1;
        stamps.set_on(on);
        let cpu0 = process_cpu_ns();
        let t = Instant::now();
        total += run_repeat(&pair, plan, rep * n as u64, &*stamps);
        let wall = t.elapsed().as_secs_f64();
        let cpu = process_cpu_ns().saturating_sub(cpu0) as f64 / 1e9;
        if rep == 0 {
            warmup_s = wall;
        }
        if on {
            stamped_cpu.push(cpu);
            let mut calls = SpanSink::new("udp", rep as u32).with_parent("run_repeat");
            let mut responds = SpanSink::new("udp", rep as u32).with_parent("bench-echo");
            if total.failed + total.mismatched == 0 {
                latencies.push(stamps.reduce(&mut calls, &mut responds));
            }
            sinks.extend([calls, responds]);
        } else {
            plain_cpu.push(cpu);
            plain_wall.push(wall);
        }
        rep += 1;
    }
    let after = threads();
    let measured_rpcs = (rep * n as u64) as f64;

    stamps.set_on(false);
    alloc::enable();
    total += run_repeat(&pair, plan, rep * n as u64, &*stamps);
    let alloc_stats = alloc::disable();
    std::thread::sleep(std::time::Duration::from_millis(2));
    let out_payloads = pair.client.out_payload_count() + pair.server.out_payload_count();
    let dropped = pair.client.events_dropped() + pair.server.events_dropped();
    finish_udp(pair, echo)?;

    let delta = |keep: &dyn Fn(&str) -> bool| {
        let (b, a) = (cpu_of(&before, keep), cpu_of(&after, keep));
        (a.0.saturating_sub(b.0), a.1.saturating_sub(b.1), a.2.saturating_sub(b.2))
    };
    let drivers = delta(&is_driver);
    let apps = delta(&|name: &str| !is_driver(name));
    m.set("udp.driver_cpu_us_per_msg", drivers.0 as f64 / 1e3 / measured_rpcs);
    m.set("udp.app_cpu_us_per_msg", apps.0 as f64 / 1e3 / measured_rpcs);
    let (user, sys) = (drivers.1 + apps.1, drivers.2 + apps.2);
    m.set("udp.sys_cpu_frac", sys as f64 / (user + sys).max(1) as f64);

    let over = |f: &dyn Fn(&RepeatLatencies) -> f64| -> f64 {
        if latencies.is_empty() {
            0.0
        } else {
            best_of(&latencies.iter().map(f).collect::<Vec<_>>())
        }
    };
    let med = |v: &[f64]| median(&mut v.to_vec()).unwrap_or(0.0);
    m.set("rtt_p50_us", over(&|l| l.rtt_percentile(50.0)));
    m.set("udp.rtt_p99_us", over(&|l| l.rtt_percentile(99.0)));
    m.set("udp.rtt_p999_us", over(&|l| l.rtt_percentile(99.9)));
    m.set("udp.req_leg_p50_us", over(&|l| med(&l.req_leg_us)));
    m.set("udp.resp_leg_p50_us", over(&|l| med(&l.resp_leg_us)));
    m.set("udp.call_us", over(&|l| l.call_us));
    m.set("udp.respond_us", over(&|l| l.respond_us));
    m.set("udp.slow_rpcs", latencies.iter().map(|l| l.slow_rpcs).sum::<u64>() as f64);
    m.set("udp.goodput_mbps", plan.payload_bytes() as f64 * 8.0 / best_of(&plain_wall) / 1e6);
    m.set("udp.events_dropped", dropped as f64);
    m.set("udp.aborted", total.failed as f64);
    m.set("udp.out_payloads_end", out_payloads as f64);

    let traffic = match plan.reply {
        Reply::Echo => CoreTraffic::RpcEcho,
        Reply::Checksum => CoreTraffic::RpcChecksum,
    };
    let sizes: Vec<u64> = plan.requests.iter().map(|r| u64::from(r.len)).collect();
    let core = probes::core_costs(&sizes, plan.outstanding, traffic);
    m.set("core.endpoint_ns_per_pkt", core.ns_per_pkt);
    m.set("core.endpoint_us_per_rpc", core.us_per_rpc);
    m.set("core.pkts_per_rpc", core.pkts_per_rpc);
    m.set("core.grants_per_msg", core.grants_per_msg);
    m.set("core.resends", core.resends as f64);
    m.set("core.outbound_peak", core.outbound_peak as f64);
    let wire = probes::wire_costs();
    m.set("wire.encode_data_ns", wire.encode_data_ns);
    m.set("wire.decode_data_ns", wire.decode_data_ns);
    m.set("wire.encode_ctrl_ns", wire.encode_ctrl_ns);
    m.set("wire.decode_ctrl_ns", wire.decode_ctrl_ns);
    m.set("wire.allocs_per_pkt", wire.allocs_per_pkt);

    // What the node costs per RPC beyond the endpoint and the codec: the
    // mutex, the payload copies, the syscalls, the channel wake-ups.
    let cpu_us = best_of(&plain_cpu) * 1e6 / n as f64;
    let ctrl_pkts = core.pkts_per_rpc - core.data_pkts_per_rpc;
    let wire_us = (core.data_pkts_per_rpc * (wire.encode_data_ns + wire.decode_data_ns)
        + ctrl_pkts * (wire.encode_ctrl_ns + wire.decode_ctrl_ns))
        / 1e3;
    m.set("udp.self_us_per_msg", cpu_us - core.us_per_rpc - wire_us);

    m.set("alloc.count_per_msg", alloc_stats.count as f64 / n as f64);
    m.set("alloc.bytes_per_msg", alloc_stats.bytes as f64 / n as f64);
    m.set("alloc.heap_peak_mb", alloc_stats.peak_live_bytes as f64 / 1e6);
    m.set(
        "bench.trace_overhead_frac",
        (best_of(&stamped_cpu) - best_of(&plain_cpu)) / best_of(&plain_cpu),
    );
    m.set("bench.repeat_spread", repeat_spread(&plain_cpu));
    m.set("bench.warmup_s", warmup_s);

    let reconciliation = vec![
        ("core (HomaEndpoint probe)".to_string(), core.us_per_rpc),
        ("wire (codec probe x packets)".to_string(), wire_us),
        (
            "udp self (mutex, copies, syscalls, wake-ups)".to_string(),
            cpu_us - core.us_per_rpc - wire_us,
        ),
        ("cpu_us_per_msg (stamps off)".to_string(), cpu_us),
    ];
    let failed = total.failed + total.mismatched;
    let outcome =
        Outcome { correct: total.mismatched == 0, attempted: total.attempted, failed, metrics: m };
    Ok(Traced { outcome, reconciliation, sinks })
}
