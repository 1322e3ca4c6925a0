//! The simulator workloads: running their scenarios through the public
//! entry points, checking what comes out, and timing the set-up section.

use crate::plan::{Scale, SimPart};
use homa_baselines::homa_sim::static_map_for_workload;
use homa_baselines::{
    HomaSimTransport, NdpConfig, NdpTransport, PfabricConfig, PfabricTransport, PhostConfig,
    PhostTransport, PiasConfig, PiasTransport, StreamConfig, StreamTransport,
};
use homa_bench::{fabric_queues_for, homa_config_for, run_protocol_scenario, Protocol};
use homa_harness::driver::{OnewayOpts, OnewayResult, CTRL, OVERHEAD, PAYLOAD};
use homa_harness::ScenarioSpec;
use homa_sim::{HostId, Network, PacketMeta, QueueDiscipline, Topology, Transport};
use homa_workloads::{LoadPlan, PoissonArrivals};
use std::time::Instant;

/// Something that runs a scenario given the transport constructor its
/// protocol needs. [`dispatch`] picks the constructor; the driver is
/// generic over the transport type, so one driver serves all protocols.
pub trait SimDriver {
    /// What a run produces.
    type Out;
    /// Run `spec` with one `make(host)` transport per host on a fabric
    /// with `queues` (or the default strict-priority queues).
    fn drive<M: PacketMeta, T: Transport<M>>(
        self,
        spec: &ScenarioSpec,
        queues: Option<QueueDiscipline>,
        make: impl FnMut(HostId) -> T,
    ) -> Self::Out;
}

/// Hand `driver` the queue discipline and transport constructor of
/// protocol `p`, configured exactly as
/// [`homa_bench::run_protocol_scenario`] configures them. The traced run
/// checks that claim: its own loop over `Network` must process the same
/// number of events as `run_protocol_scenario` on the same spec.
pub fn dispatch<D: SimDriver>(p: Protocol, spec: &ScenarioSpec, driver: D) -> D::Out {
    let dist = spec.workload.dist();
    let queues = fabric_queues_for(p, &dist);
    let link = spec.topology().host_link_bps;
    match p {
        Protocol::Homa | Protocol::HomaP(_) | Protocol::Basic => {
            let cfg = homa_config_for(p);
            let map = static_map_for_workload(&dist, &cfg);
            driver.drive(spec, queues, |h| {
                HomaSimTransport::new(h, cfg.clone()).with_static_map(map.clone())
            })
        }
        Protocol::Stream => {
            driver.drive(spec, queues, |h| StreamTransport::new(h, StreamConfig::default()))
        }
        Protocol::Pfabric => {
            driver.drive(spec, queues, |h| PfabricTransport::new(h, PfabricConfig::default()))
        }
        Protocol::Phost => driver.drive(spec, queues, |h| {
            PhostTransport::new(h, PhostConfig { link_bps: link, ..PhostConfig::default() })
        }),
        Protocol::Pias => {
            let thresholds = PiasConfig::thresholds_for(&dist, 8);
            let cfg = PiasConfig { thresholds, ..PiasConfig::default() };
            driver.drive(spec, queues, |h| PiasTransport::new(h, cfg.clone()))
        }
        Protocol::Ndp => driver.drive(spec, queues, |h| {
            NdpTransport::new(h, NdpConfig { link_bps: link, ..NdpConfig::default() })
        }),
    }
}

/// The open-loop Poisson arrival stream `ScenarioSpec::run_oneway` draws
/// for `spec`, rebuilt from the same public pieces so that the
/// benchmark's own loop over `Network` injects the same messages.
pub fn arrival_generator(spec: &ScenarioSpec, topo: &Topology) -> PoissonArrivals {
    let dist = spec.workload.dist();
    let traffic = &spec.traffic;
    let hosts = topo.num_hosts();
    let overhead = |d| LoadPlan::estimate_overhead(d, PAYLOAD, OVERHEAD, CTRL, 9_700);
    let (mean_msg_bytes, mean_overhead_bytes) = match &traffic.mix {
        Some(mix) => {
            let (second, f) = (mix.second.dist(), mix.frac);
            (
                (1.0 - f) * dist.mean() + f * second.mean(),
                (1.0 - f) * overhead(&dist) + f * overhead(&second),
            )
        }
        None => (dist.mean(), overhead(&dist)),
    };
    let plan = LoadPlan {
        hosts: traffic.loaded_links(hosts),
        host_link_bps: topo.host_link_bps,
        load: spec.load,
        mean_msg_bytes,
        mean_overhead_bytes,
    };
    let mut gen =
        PoissonArrivals::new(spec.seed ^ 0x9e37_79b9, dist, hosts, plan.mean_interarrival_secs())
            .with_matrix(traffic.matrix(hosts, topo.hosts_per_rack, spec.seed));
    if let Some(mix) = &traffic.mix {
        gen = gen.with_mix(mix.second.dist(), mix.frac);
    }
    if let Some(victim) = traffic.victim {
        gen = gen.with_victim(victim);
    }
    gen
}

/// The set-up section of a simulator scenario, built through public
/// constructors: topology, priority map and transport configuration,
/// `Network::new` with one transport per host, fault schedule, arrival
/// generator.
struct BuildOnly;

impl SimDriver for BuildOnly {
    type Out = ();
    fn drive<M: PacketMeta, T: Transport<M>>(
        self,
        spec: &ScenarioSpec,
        queues: Option<QueueDiscipline>,
        make: impl FnMut(HostId) -> T,
    ) {
        let topo = spec.topology();
        let gen = arrival_generator(spec, &topo);
        let mut net: Network<M, T> = Network::new(topo, spec.netcfg_with(queues), make);
        if !spec.faults.is_empty() {
            net.install_faults(&spec.faults);
        }
        std::hint::black_box((&net, &gen));
    }
}

/// Wall seconds to set up every scenario of a workload once.
pub fn setup_once(parts: &[SimPart]) -> f64 {
    let start = Instant::now();
    for part in parts {
        dispatch(part.protocol, &part.spec.clone(), BuildOnly);
    }
    start.elapsed().as_secs_f64()
}

/// Everything about a run that must repeat bit for bit: counts and
/// simulated-time results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Simulator events processed.
    pub events: u64,
    /// Messages delivered, aborted, lost.
    pub fates: [u64; 3],
    /// Simulated nanoseconds the run covered.
    pub sim_ns: u64,
    /// Bits of the slowdown sketch's ten-bin summary, the small-message
    /// p99 and the delivered goodput.
    pub result_bits: Vec<u64>,
}

impl Fingerprint {
    /// The fingerprint of `res`.
    pub fn of(res: &OnewayResult) -> Self {
        let summary = res.sketch.summary(10);
        let mut result_bits = vec![
            res.sketch.count(),
            summary.overall_p50.to_bits(),
            summary.overall_p99.to_bits(),
            res.sketch.small_p99(0.1).to_bits(),
            res.delivered_bps.to_bits(),
        ];
        for b in &summary.bins {
            result_bits.extend([
                b.count as u64,
                b.p50.to_bits(),
                b.p99.to_bits(),
                b.mean.to_bits(),
            ]);
        }
        Fingerprint {
            events: res.stats.events_processed,
            fates: [res.delivered, res.aborted, res.lost],
            sim_ns: res.duration.as_nanos(),
            result_bits,
        }
    }
}

/// The checks every simulator result must pass; an `Err` names the first
/// one that failed.
pub fn check_result(part: &SimPart, res: &OnewayResult) -> Result<(), String> {
    let name = &part.spec.name;
    let n = part.spec.messages;
    if res.injected != n {
        return Err(format!("{name}: injected {} of {n} messages", res.injected));
    }
    if res.delivered + res.aborted + res.lost != res.injected {
        return Err(format!(
            "{name}: {} delivered + {} aborted + {} lost != {} injected",
            res.delivered, res.aborted, res.lost, res.injected
        ));
    }
    if res.duplicate_deliveries != 0 {
        return Err(format!("{name}: {} duplicate deliveries", res.duplicate_deliveries));
    }
    if (res.delivered as f64) < n as f64 * part.min_delivered_frac {
        return Err(format!("{name}: only {}/{n} delivered", res.delivered));
    }
    Ok(())
}

/// The event count `BENCH_BASELINE.json` (at the repository root, read
/// when the benchmark runs) records for scenario `row`.
pub fn baseline_events(row: &str) -> Result<u64, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_BASELINE.json");
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let report = homa_bench::perfjson::parse_report(&json)?;
    report
        .scenarios
        .iter()
        .find(|s| s.name == row)
        .map(|s| s.events)
        .ok_or_else(|| format!("{path} has no row {row}"))
}

/// The seed at which the pinned scenarios must reproduce the baseline's
/// event counts.
pub const BASELINE_SEED: u64 = 42;

/// At the baseline seed and full scale, a scenario with a baseline row
/// must process exactly the events the row records.
pub fn check_baseline(part: &SimPart, scale: Scale, events: u64) -> Result<(), String> {
    let Some(row) = part.baseline_row else { return Ok(()) };
    if part.spec.seed != BASELINE_SEED || scale != Scale::Full {
        return Ok(());
    }
    let want = baseline_events(row)?;
    if events == want {
        Ok(())
    } else {
        Err(format!("{row}: {events} events, BENCH_BASELINE.json says {want}"))
    }
}

/// One pass over a workload's scenarios through
/// [`homa_bench::run_protocol_scenario`].
pub fn run_pass(parts: &[SimPart]) -> Vec<OnewayResult> {
    parts
        .iter()
        .map(|p| run_protocol_scenario(p.protocol, &p.spec, &OnewayOpts::default(), None))
        .collect()
}
