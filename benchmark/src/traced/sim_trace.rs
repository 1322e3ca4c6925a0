//! The traced run of a simulator workload.

use crate::bare::{Bare, BareRun, Plain, Timed};
use crate::probes::{self, CoreTraffic};
use crate::timed::{self, Call, TimedShared};
use crate::trace::SpanSink;
use crate::{alloc, Traced};
use homa_bench::{run_protocol_scenario, Protocol};
use homa_benchmark::metrics::Metrics;
use homa_benchmark::plan::{sim_parts, Scale, SimPart, WorkloadId};
use homa_benchmark::procfs::process_cpu_ns;
use homa_benchmark::run::{checked_sim_pass, Outcome};
use homa_benchmark::sim::{arrival_generator, dispatch, Fingerprint};
use homa_benchmark::stats::repeat_spread;
use homa_harness::driver::{OnewayOpts, OnewayResult};
use homa_sim::PortClass;
use std::sync::Arc;
use std::time::Instant;

/// CPU seconds of `f`, and its result.
fn cpu_timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let cpu0 = process_cpu_ns();
    let out = f();
    (process_cpu_ns().saturating_sub(cpu0) as f64 / 1e9, out)
}

/// The best (least CPU) of each kind of pass over one scenario.
struct PartBest {
    /// `run_protocol_scenario`, plain transports, counting allocator off.
    oneway_cpu_s: f64,
    /// The benchmark's own loop, plain transports.
    bare: BareRun,
    /// The benchmark's own loop, `TimedTransport`s.
    timed: BareRun,
    timed_shared: Arc<TimedShared>,
}

/// The switch-queue discipline the probe should be charged at for `p`.
fn queue_ns_for(p: Protocol, (strict, pfabric, ndp): (f64, f64, f64)) -> f64 {
    match p {
        Protocol::Pfabric => pfabric,
        Protocol::Ndp => ndp,
        _ => strict,
    }
}

/// Run the traced passes over the scenarios of `id` and fill in the
/// per-layer metrics.
pub fn run(id: WorkloadId, seed: u64, seconds: f64, mut m: Metrics) -> Result<Traced, String> {
    let parts = sim_parts(id, seed, Scale::Full);
    let msgs: u64 = parts.iter().map(|p| p.spec.messages).sum();
    let cost = timed::calibrate(&parts[0].spec.topology());
    let mut bench_sink = SpanSink::new("bench", 0).with_parent("main");
    let epoch = Instant::now();
    let mut span = |name: &'static str, start: Instant| {
        bench_sink.record(
            name,
            (start - epoch).as_nanos() as u64,
            start.elapsed().as_nanos() as u64,
            0,
        );
    };

    let mut first: Vec<Fingerprint> = Vec::new();
    let mut results: Vec<OnewayResult> = Vec::new();
    let mut best: Vec<PartBest> = Vec::new();
    let mut alloc_stats = alloc::AllocStats::default();
    let mut oneway_totals: Vec<f64> = Vec::new();
    let mut warmup_s = 0.0;
    let mut sets = 0usize;
    let started = Instant::now();
    // One set is four passes over every scenario. More sets only if the
    // budget holds another whole one.
    while sets == 0 || started.elapsed().as_secs_f64() * (sets + 1) as f64 / sets as f64 <= seconds
    {
        // Pass 1, counting allocator on. First, so it also takes the cold
        // start; its time is reported only as the warm-up.
        let t = Instant::now();
        alloc::enable();
        let (counted_cpu, counted) = cpu_timed(|| {
            checked_sim_pass(&parts, Scale::Full, &mut first, homa_benchmark::sim::run_pass)
        });
        let stats = alloc::disable();
        span("run_protocol_scenario(counting allocator)", t);
        counted?;
        if sets == 0 {
            alloc_stats = stats;
            warmup_s = t.elapsed().as_secs_f64();
        }
        oneway_totals.push(counted_cpu);

        // Pass 2: the public entry point as the measured binary runs it.
        let t = Instant::now();
        let mut cpus = Vec::new();
        let pass = checked_sim_pass(&parts, Scale::Full, &mut first, |parts: &[SimPart]| {
            parts
                .iter()
                .map(|p| {
                    let (cpu, res) = cpu_timed(|| {
                        run_protocol_scenario(p.protocol, &p.spec, &OnewayOpts::default(), None)
                    });
                    cpus.push(cpu);
                    res
                })
                .collect()
        })?;
        span("run_protocol_scenario", t);
        oneway_totals.push(cpus.iter().sum());
        if results.is_empty() {
            results = pass;
        }

        // Passes 3 and 4: the benchmark's own loop, plain and timed.
        for (i, part) in parts.iter().enumerate() {
            let t = Instant::now();
            let bare = dispatch(part.protocol, &part.spec, Bare(Plain));
            span("bare_loop", t);
            let shared = TimedShared::new(part.spec.messages, &part.spec.topology(), sets as u32);
            shared.assert_single_threaded();
            let t = Instant::now();
            let timed = dispatch(part.protocol, &part.spec, Bare(Timed(Arc::clone(&shared))));
            span("bare_loop(TimedTransport)", t);
            for (what, run) in [("plain", &bare), ("timed", &timed)] {
                if run.stats.events_processed != first[i].events
                    || [run.delivered, run.aborted] != first[i].fates[..2]
                {
                    return Err(format!(
                        "{}: the benchmark's own loop ({what}) processed {} events and delivered {}, \
                         run_protocol_scenario {} and {}",
                        part.spec.name,
                        run.stats.events_processed,
                        run.delivered,
                        first[i].events,
                        first[i].fates[0]
                    ));
                }
            }
            if sets == 0 {
                best.push(PartBest { oneway_cpu_s: cpus[i], bare, timed, timed_shared: shared });
            } else {
                let b = &mut best[i];
                b.oneway_cpu_s = b.oneway_cpu_s.min(cpus[i]);
                if bare.cpu_s < b.bare.cpu_s {
                    b.bare = bare;
                }
                if timed.cpu_s < b.timed.cpu_s {
                    b.timed = timed;
                    b.timed_shared = shared;
                }
            }
        }
        sets += 1;
    }

    // Totals over the scenarios, in seconds of CPU.
    let events: u64 = first.iter().map(|f| f.events).sum();
    let sum = |f: &dyn Fn(&PartBest, &SimPart) -> f64| -> f64 {
        best.iter().zip(&parts).map(|(b, p)| f(b, p)).sum()
    };
    let oneway_s = sum(&|b, _| b.oneway_cpu_s);
    let bare_s = sum(&|b, _| b.bare.cpu_s);
    let timed_s = sum(&|b, _| b.timed.cpu_s);
    let build_s = sum(&|b, _| b.bare.build_us / 1e6);
    let arrivals_s = sum(&|b, p| b.bare.arrival_ns_per_msg * p.spec.messages as f64 / 1e9);
    let wrapper_s = sum(&|b, _| {
        Call::ALL.iter().map(|&c| b.timed_shared.calls(c)).sum::<u64>() as f64 * cost.per_call_ns
            / 1e9
    });
    let transport_s = sum(&|b, _| b.timed_shared.total_ns(cost.clock_ns) / 1e9);
    let fabric_s = timed_s - wrapper_s; // transports plus sim::network
    let network_self_s = fabric_s - transport_s;
    let harness_self_s = oneway_s - bare_s - arrivals_s - build_s;
    let per_msg = |s: f64| s * 1e6 / msgs as f64;

    if let [res] = &results[..] {
        let summary = res.sketch.summary(10);
        m.set("sim_slowdown_p50", summary.overall_p50);
        m.set("sim_slowdown_p99", summary.overall_p99);
        m.set("sim_small_slowdown_p99", res.sketch.small_p99(0.1));
        m.set("sim_goodput_gbps", res.delivered_bps / 1e9);
        m.set("transport.cost_growth", best[0].timed_shared.cost_growth());
    } else {
        for ((part, res), b) in parts.iter().zip(&results).zip(&best) {
            m.set(
                &format!("baselines.{}.cpu_us_per_msg", part.label),
                b.oneway_cpu_s * 1e6 / part.spec.messages as f64,
            );
            m.set(
                &format!("baselines.{}.slowdown_p99", part.label),
                res.sketch.summary(10).overall_p99,
            );
        }
    }
    m.set("workloads.arrival_ns_per_msg", arrivals_s * 1e9 / msgs as f64);
    m.set("harness.self_us_per_msg", per_msg(harness_self_s));
    m.set("harness.events_per_msg", events as f64 / msgs as f64);
    m.set("sim.network.self_ns_per_event", network_self_s * 1e9 / events as f64);
    m.set("sim.network.events", events as f64);
    m.set("sim.network.run_calls", sum(&|b, _| b.bare.run_calls as f64));
    m.set("sim.network.build_us", build_s * 1e6);
    m.set(
        "sim.network.fault_drops",
        results.iter().map(|r| r.stats.fault_drops).sum::<u64>() as f64,
    );
    m.set(
        "sim.network.deferred_deliveries",
        results.iter().map(|r| r.stats.deferred_deliveries).sum::<u64>() as f64,
    );

    let engine: Vec<_> = results.iter().map(|r| r.engine_stats).collect();
    let scheduled: u64 =
        engine.iter().map(|e| e.bucket_events + e.late_events + e.far_events).sum();
    let churn_ns = probes::event_churn_ns(engine[0].lanes);
    m.set("sim.events.churn_ns_per_op", churn_ns);
    m.set(
        "sim.events.late_frac",
        engine.iter().map(|e| e.late_events).sum::<u64>() as f64 / scheduled.max(1) as f64,
    );
    m.set(
        "sim.events.far_frac",
        engine.iter().map(|e| e.far_events).sum::<u64>() as f64 / scheduled.max(1) as f64,
    );
    m.set(
        "sim.events.max_epoch_events",
        engine.iter().map(|e| e.max_epoch_events).max().unwrap_or(0) as f64,
    );
    m.set("sim.events.model_share", churn_ns * events as f64 / (oneway_s * 1e9));

    let queue_ns = probes::queue_costs_ns();
    m.set("sim.queues.strict_ns_per_pkt", queue_ns.0);
    m.set("sim.queues.pfabric_ns_per_pkt", queue_ns.1);
    m.set("sim.queues.ndp_ns_per_pkt", queue_ns.2);
    m.set("sim.queues.drops", results.iter().map(|r| r.stats.total_drops()).sum::<u64>() as f64);
    m.set(
        "sim.queues.trims",
        results.iter().flat_map(|r| r.stats.trims.iter().map(|&(_, t)| t)).sum::<u64>() as f64,
    );
    m.set(
        "sim.queues.max_bytes_tor_down",
        results
            .iter()
            .filter_map(|r| r.stats.max_queue_bytes(PortClass::TorDown))
            .max()
            .unwrap_or(0) as f64,
    );
    let queue_model_s = sum(&|b, p| {
        let (packets, hops) = b.timed_shared.packets_and_hops();
        queue_ns_for(p.protocol, queue_ns) * packets as f64 * hops / 1e9
    });
    m.set("sim.queues.model_share", queue_model_s / oneway_s);

    for call in Call::ALL {
        let calls: u64 = best.iter().map(|b| b.timed_shared.calls(call)).sum();
        let ns: f64 = best
            .iter()
            .map(|b| {
                b.timed_shared.mean_ns(call, cost.clock_ns) * b.timed_shared.calls(call) as f64
            })
            .sum();
        m.set(&format!("transport.{}_ns", call.short()), ns / calls.max(1) as f64);
        m.set(&format!("transport.{}_calls", call.short()), calls as f64);
    }
    m.set("transport.share", transport_s / fabric_s);

    // The endpoint alone, on the sizes of the first scenario's arrivals,
    // as many as one host sends in the run: a sender keeps a one-way
    // message's state after its last packet (nothing acknowledges it), so
    // what a call costs depends on how many came before on that host.
    let topo = parts[0].spec.topology();
    let mut gen = arrival_generator(&parts[0].spec, &topo);
    let per_host = (parts[0].spec.messages / u64::from(topo.num_hosts())).max(16);
    let sizes: Vec<u64> = (0..per_host).map(|_| gen.next_arrival().size).collect();
    let core = probes::core_costs(&sizes, 8, CoreTraffic::Oneway);
    m.set("core.endpoint_ns_per_pkt", core.ns_per_pkt);
    m.set("core.endpoint_us_per_rpc", core.us_per_rpc);
    m.set("core.pkts_per_rpc", core.pkts_per_rpc);
    m.set("core.grants_per_msg", core.grants_per_msg);
    m.set("core.resends", core.resends as f64);
    m.set("core.outbound_peak", core.outbound_peak as f64);

    m.set("alloc.count_per_msg", alloc_stats.count as f64 / msgs as f64);
    m.set("alloc.bytes_per_msg", alloc_stats.bytes as f64 / msgs as f64);
    m.set("alloc.heap_peak_mb", alloc_stats.peak_live_bytes as f64 / 1e6);
    m.set("alloc.count_per_event", alloc_stats.count as f64 / events as f64);

    // What is left of the wrapper's cost after the calibrated part is
    // taken out, as a share of the untraced loop.
    m.set("bench.trace_overhead_frac", (fabric_s - bare_s) / bare_s);
    m.set("bench.repeat_spread", repeat_spread(&oneway_totals));
    m.set("bench.warmup_s", warmup_s);

    let layers = [
        ("transport (TimedTransport)", transport_s),
        ("sim::network self", network_self_s),
        ("harness self", harness_self_s),
        ("workloads (arrival generation)", arrivals_s),
        ("Network::new", build_s),
    ];
    let mut reconciliation: Vec<(String, f64)> =
        layers.iter().map(|&(n, s)| (n.to_string(), per_msg(s))).collect();
    let layer_sum: f64 = layers.iter().map(|&(_, s)| s).sum();
    reconciliation.push(("sum of layers".into(), per_msg(layer_sum)));
    reconciliation.push(("cpu_us_per_msg (run_protocol_scenario)".into(), per_msg(oneway_s)));
    reconciliation.push(("residual (measured - layers)".into(), per_msg(oneway_s - layer_sum)));
    reconciliation.push(("residual / measured".into(), (oneway_s - layer_sum) / oneway_s));

    let mut sinks = vec![bench_sink];
    sinks.extend(best.iter().map(|b| b.timed_shared.take_sink()));
    let attempted = msgs * 2 * sets as u64;
    let outcome = Outcome { correct: true, attempted, failed: 0, metrics: m };
    Ok(Traced { outcome, reconciliation, sinks })
}
