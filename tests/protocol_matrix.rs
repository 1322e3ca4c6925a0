//! Every transport in the comparison matrix completes a moderate-load run
//! on the leaf-spine fabric — the invariant behind all the figure runs —
//! and conserves bytes exactly under an identical W4 scenario.

use homa::HomaConfig;
use homa_baselines::{
    ndp, pfabric, pias, HomaSimTransport, NdpConfig, NdpTransport, PfabricConfig, PfabricTransport,
    PhostConfig, PhostTransport, PiasConfig, PiasTransport, StreamConfig, StreamTransport,
};
use homa_bench::{run_protocol_scenario, Protocol};
use homa_harness::driver::OnewayOpts;
use homa_harness::{FabricSpec, ScenarioSpec};
use homa_sim::{
    AppEvent, HostId, Network, NetworkConfig, PacketMeta, QueueDiscipline, SimTime, Topology,
    Transport,
};
use homa_workloads::Workload;
use std::collections::HashMap;

fn check(p: Protocol, w: Workload, load: f64, n: u64) {
    check_on(p, w, load, n, 17, FabricSpec::LeafSpine { racks: 2, hosts_per_rack: 6, spines: 2 });
}

fn check_on(p: Protocol, w: Workload, load: f64, n: u64, seed: u64, fabric: FabricSpec) {
    let spec = ScenarioSpec::new("matrix", fabric, w, load, n, seed);
    let res = run_protocol_scenario(p, &spec, &OnewayOpts::default(), None);
    assert_eq!(res.injected, n);
    let frac = res.delivered as f64 / n as f64;
    assert!(
        frac >= 0.99,
        "{} on {w} (seed {seed}): delivered only {}/{n}",
        p.name(),
        res.delivered
    );
}

#[test]
fn homa_all_workloads() {
    for w in [Workload::W1, Workload::W2, Workload::W3] {
        check(Protocol::Homa, w, 0.7, 1_500);
    }
    check(Protocol::Homa, Workload::W4, 0.7, 500);
    check(Protocol::Homa, Workload::W5, 0.7, 80);
}

#[test]
fn pfabric_matrix() {
    check(Protocol::Pfabric, Workload::W2, 0.7, 1_500);
    check(Protocol::Pfabric, Workload::W4, 0.6, 400);
}

#[test]
fn phost_matrix() {
    check(Protocol::Phost, Workload::W2, 0.6, 1_500);
    check(Protocol::Phost, Workload::W4, 0.5, 400);
}

#[test]
fn pias_matrix() {
    check(Protocol::Pias, Workload::W2, 0.6, 1_500);
    check(Protocol::Pias, Workload::W4, 0.5, 400);
}

#[test]
fn ndp_on_w5() {
    // The paper evaluates NDP on W5 only (full-size packets).
    check(Protocol::Ndp, Workload::W5, 0.5, 60);
}

#[test]
fn basic_and_stream() {
    check(Protocol::Basic, Workload::W3, 0.6, 1_000);
    check(Protocol::Stream, Workload::W3, 0.6, 1_000);
}

// ---------------------------------------------------------------------
// Nightly long-haul matrix: a second seed, more messages, and a bigger
// fabric than the per-PR runs — every transport in the comparison. These
// are `#[ignore]`d so PR CI stays fast; the scheduled nightly workflow
// runs them with `cargo test --release -- --ignored`.
// ---------------------------------------------------------------------

const LONG_SEED: u64 = 99;
const LONG_FABRIC: FabricSpec = FabricSpec::LeafSpine { racks: 3, hosts_per_rack: 8, spines: 2 };

#[test]
#[ignore = "long-haul: run by the nightly CI job"]
fn long_haul_homa_second_seed() {
    check_on(Protocol::Homa, Workload::W2, 0.8, 6_000, LONG_SEED, LONG_FABRIC);
    check_on(Protocol::Homa, Workload::W4, 0.8, 2_000, LONG_SEED, LONG_FABRIC);
}

#[test]
#[ignore = "long-haul: run by the nightly CI job"]
fn long_haul_homa_100_hosts() {
    check_on(
        Protocol::Homa,
        Workload::W4,
        0.8,
        6_000,
        LONG_SEED,
        FabricSpec::MultiTor { hosts: 100 },
    );
}

#[test]
#[ignore = "long-haul: run by the nightly CI job"]
fn long_haul_pfabric_second_seed() {
    check_on(Protocol::Pfabric, Workload::W2, 0.7, 4_000, LONG_SEED, LONG_FABRIC);
}

#[test]
#[ignore = "long-haul: run by the nightly CI job"]
fn long_haul_phost_second_seed() {
    check_on(Protocol::Phost, Workload::W2, 0.6, 4_000, LONG_SEED, LONG_FABRIC);
}

#[test]
#[ignore = "long-haul: run by the nightly CI job"]
fn long_haul_pias_second_seed() {
    check_on(Protocol::Pias, Workload::W2, 0.6, 4_000, LONG_SEED, LONG_FABRIC);
}

#[test]
#[ignore = "long-haul: run by the nightly CI job"]
fn long_haul_ndp_second_seed() {
    check_on(Protocol::Ndp, Workload::W5, 0.5, 200, LONG_SEED, LONG_FABRIC);
}

#[test]
#[ignore = "long-haul: run by the nightly CI job"]
fn long_haul_basic_and_stream_second_seed() {
    check_on(Protocol::Basic, Workload::W3, 0.6, 3_000, LONG_SEED, LONG_FABRIC);
    check_on(Protocol::Stream, Workload::W3, 0.6, 3_000, LONG_SEED, LONG_FABRIC);
}

// ---------------------------------------------------------------------
// Nightly fault matrix: every transport in the byte-conservation set
// runs the incast-of-20 + link-flap + receiver-pause scenario to
// quiescence. The invariants are accounting ones — every injected
// message is delivered, aborted, or counted lost (a one-way message
// whose every packet died on a downed link is unrecoverable by design),
// and the faults demonstrably fired. Run with
// `cargo test --release --test protocol_matrix -- --ignored`.
// ---------------------------------------------------------------------

#[cfg(test)]
fn fault_matrix_spec(p: Protocol) -> ScenarioSpec {
    use homa_harness::{FabricSpec, ScenarioSpec};
    use homa_sim::{FaultPlan, LinkId};
    use homa_workloads::TrafficSpec;
    ScenarioSpec::new(
        format!("fault_incast20_{}", p.name()),
        FabricSpec::MultiTor { hosts: 40 },
        Workload::W2,
        0.5,
        1_500,
        LONG_SEED,
    )
    .with_traffic(TrafficSpec::incast(20))
    // The whole schedule sits inside the ~1.7ms injection window so every
    // fault fires for every transport (after the last injection the run
    // only continues while messages are outstanding).
    .with_faults(
        FaultPlan::new()
            .link_flaps(LinkId::HostDownlink(HostId(0)), 200_000, 60_000, 400_000, 3)
            .receiver_pause(HostId(0), 1_300_000, 1_450_000),
    )
}

#[cfg(test)]
fn check_fault_matrix(p: Protocol) {
    use homa_bench::run_protocol_scenario;
    let spec = fault_matrix_spec(p);
    let res = run_protocol_scenario(p, &spec, &OnewayOpts::default(), None);
    assert_eq!(res.injected, spec.messages, "{}: injection shortfall", p.name());
    assert_eq!(
        res.delivered + res.aborted + res.lost,
        spec.messages,
        "{}: unaccounted messages",
        p.name()
    );
    assert_eq!(res.stats.faults_applied, 8, "{}: fault schedule truncated", p.name());
    let frac = res.delivered as f64 / spec.messages as f64;
    assert!(frac >= 0.80, "{}: only {:.1}% delivered under faults", p.name(), frac * 100.0);
}

#[test]
#[ignore = "long-haul: run by the nightly CI job"]
fn long_haul_fault_matrix_homa() {
    check_fault_matrix(Protocol::Homa);
}

#[test]
#[ignore = "long-haul: run by the nightly CI job"]
fn long_haul_fault_matrix_pfabric() {
    check_fault_matrix(Protocol::Pfabric);
}

#[test]
#[ignore = "long-haul: run by the nightly CI job"]
fn long_haul_fault_matrix_phost() {
    check_fault_matrix(Protocol::Phost);
}

#[test]
#[ignore = "long-haul: run by the nightly CI job"]
fn long_haul_fault_matrix_pias() {
    check_fault_matrix(Protocol::Pias);
}

#[test]
#[ignore = "long-haul: run by the nightly CI job"]
fn long_haul_fault_matrix_ndp() {
    check_fault_matrix(Protocol::Ndp);
}

#[test]
#[ignore = "long-haul: run by the nightly CI job"]
fn long_haul_fault_matrix_stream() {
    check_fault_matrix(Protocol::Stream);
}

// ---------------------------------------------------------------------
// Conservation: under one identical W4 scenario (same sizes, same
// endpoints, same injection times, same fabric seed), every transport
// must hand the application exactly the injected bytes — nothing lost,
// nothing delivered twice. This is the contract the shared
// `baselines::common` scaffolding (reassembly table, send queues,
// fragmentation) owes every protocol built on it.
// ---------------------------------------------------------------------

const CONSERVE_HOSTS: u32 = 8;
const CONSERVE_MSGS: u64 = 60;
const CONSERVE_SEED: u64 = 0xC0FFEE;

/// Source–destination pattern of a conservation scenario: the historical
/// uniform row plus the `TrafficMatrix` incast row.
#[derive(Clone, Copy)]
enum ConservePattern {
    Uniform,
    Incast,
}

impl ConservePattern {
    const ALL: [ConservePattern; 2] = [ConservePattern::Uniform, ConservePattern::Incast];

    fn name(self) -> &'static str {
        match self {
            ConservePattern::Uniform => "uniform",
            ConservePattern::Incast => "incast",
        }
    }
}

/// The shared scenario: deterministic W4 sizes at a fixed cadence, with
/// endpoints from the selected pattern. Returns
/// `(at_ns, src, dst, size, tag)`.
fn conserve_scenario(pattern: ConservePattern) -> Vec<(u64, HostId, HostId, u64, u64)> {
    use homa_workloads::TrafficMatrix;

    let dist = Workload::W4.dist();
    let mut x = CONSERVE_SEED;
    let mut lcg = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x >> 33
    };
    let mut matrix = match pattern {
        // The historical uniform row keeps its original LCG endpoint
        // draws (bit-compatible with the pre-TrafficMatrix test).
        ConservePattern::Uniform => None,
        ConservePattern::Incast => Some(TrafficMatrix::incast(5, CONSERVE_HOSTS)),
    };
    (0..CONSERVE_MSGS)
        .map(|i| {
            // Quantile-sampled sizes, capped below the extreme tail so a
            // single 10 MB outlier doesn't dominate the run.
            let p = (lcg() % 10_000) as f64 / 10_000.0;
            let size = dist.quantile(p.min(0.995)).max(1);
            let (src, dst) = match &mut matrix {
                None => {
                    let src = (lcg() % CONSERVE_HOSTS as u64) as u32;
                    let dst_raw = (lcg() % (CONSERVE_HOSTS as u64 - 1)) as u32;
                    let dst = if dst_raw >= src { dst_raw + 1 } else { dst_raw };
                    (src, dst)
                }
                Some(m) => m.draw_rotational(),
            };
            (i * 30_000, HostId(src), HostId(dst), size, i)
        })
        .collect()
}

/// Drive one transport through the shared scenario (both traffic
/// patterns) and assert exact byte conservation under each.
fn assert_conserves<M, T>(
    name: &str,
    queues: Option<QueueDiscipline>,
    mut mk: impl FnMut(HostId) -> T,
) where
    M: PacketMeta,
    T: Transport<M>,
{
    for pattern in ConservePattern::ALL {
        assert_conserves_on(name, pattern, queues, &mut mk);
    }
}

/// One transport, one traffic pattern: exact byte conservation.
fn assert_conserves_on<M, T>(
    name: &str,
    pattern: ConservePattern,
    queues: Option<QueueDiscipline>,
    mk: impl FnMut(HostId) -> T,
) where
    M: PacketMeta,
    T: Transport<M>,
{
    let name = &format!("{name}/{}", pattern.name());
    let netcfg = match queues {
        Some(q) => NetworkConfig::uniform(CONSERVE_SEED, q),
        None => NetworkConfig { seed: CONSERVE_SEED, ..NetworkConfig::default() },
    };
    let topo = Topology::single_switch(CONSERVE_HOSTS);
    let mut net: Network<M, T> = Network::new(topo, netcfg, mk);

    let scenario = conserve_scenario(pattern);
    let injected_bytes: u64 = scenario.iter().map(|&(_, _, _, size, _)| size).sum();
    let mut expect: HashMap<u64, (HostId, HostId, u64)> = HashMap::new();
    let mut deliveries = Vec::new();

    for (at_ns, src, dst, size, tag) in scenario {
        net.run_until(SimTime::from_nanos(at_ns));
        deliveries.extend(net.take_app_events());
        net.inject_message(src, dst, size, tag);
        expect.insert(tag, (src, dst, size));
    }
    net.run_until(SimTime::from_millis(500));
    deliveries.extend(net.take_app_events());

    // Exactly one delivery per message, at the right host, with the
    // right sender and length.
    let mut seen: HashMap<u64, u64> = HashMap::new();
    for (_, host, ev) in &deliveries {
        if let AppEvent::MessageDelivered { src, tag, len } = ev {
            let &(exp_src, exp_dst, exp_size) =
                expect.get(tag).unwrap_or_else(|| panic!("{name}: unknown tag {tag}"));
            assert_eq!(*src, exp_src, "{name}: tag {tag} wrong sender");
            assert_eq!(*host, exp_dst, "{name}: tag {tag} delivered to wrong host");
            assert_eq!(*len, exp_size, "{name}: tag {tag} wrong length");
            *seen.entry(*tag).or_default() += 1;
        }
    }
    for (tag, &count) in &seen {
        assert_eq!(count, 1, "{name}: tag {tag} delivered {count} times");
    }
    assert_eq!(
        seen.len() as u64,
        CONSERVE_MSGS,
        "{name}: {} of {CONSERVE_MSGS} messages delivered",
        seen.len()
    );

    // Goodput accounting agrees: summed transport counters equal the
    // injected bytes exactly (no loss, no double-count).
    let delivered_bytes: u64 =
        (0..CONSERVE_HOSTS).map(|h| net.transport(HostId(h)).delivered_bytes()).sum();
    assert_eq!(
        delivered_bytes, injected_bytes,
        "{name}: delivered {delivered_bytes} bytes of {injected_bytes} injected"
    );
}

#[test]
fn conservation_homa() {
    assert_conserves("Homa", None, |h| HomaSimTransport::new(h, HomaConfig::default()));
}

#[test]
fn conservation_pfabric() {
    let cfg = PfabricConfig::default();
    assert_conserves("pFabric", Some(pfabric::fabric_queues(&cfg)), move |h| {
        PfabricTransport::new(h, PfabricConfig::default())
    });
}

#[test]
fn conservation_phost() {
    assert_conserves("pHost", None, |h| PhostTransport::new(h, PhostConfig::default()));
}

#[test]
fn conservation_pias() {
    let cfg = PiasConfig::default();
    assert_conserves("PIAS", Some(pias::fabric_queues(&cfg)), move |h| {
        PiasTransport::new(h, PiasConfig::default())
    });
}

#[test]
fn conservation_ndp() {
    let cfg = NdpConfig::default();
    assert_conserves("NDP", Some(ndp::fabric_queues(&cfg)), move |h| {
        NdpTransport::new(h, NdpConfig::default())
    });
}

#[test]
fn conservation_stream() {
    assert_conserves("Stream", None, |h| StreamTransport::new(h, StreamConfig::default()));
}
