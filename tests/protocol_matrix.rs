//! Every transport in the comparison matrix completes a moderate-load run
//! on the leaf-spine fabric — the invariant behind all the figure runs —
//! and delivers every message exactly once under an identical W4
//! scenario.

use homa_bench::{run_protocol_scenario, Protocol};
use homa_harness::driver::OnewayOpts;
use homa_harness::{FabricSpec, ScenarioSpec};
use homa_sim::{FaultPlan, HostId, LinkId};
use homa_workloads::{TrafficSpec, Workload};

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

fn fault_matrix_spec(p: Protocol) -> ScenarioSpec {
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

fn check_fault_matrix(p: Protocol) {
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
// Conservation: every transport, under the same W4 scenario on one
// switch, uniform and as a five-way incast, at a load where each of them
// delivers every message. What a delivery must be — at its destination,
// from its sender, with its length, and summing to the transports' own
// delivered-byte counters — the run core checks on every run in builds
// with debug assertions; this table adds that nothing is lost and
// nothing arrives twice.
// ---------------------------------------------------------------------

fn assert_conserves(p: Protocol) {
    for traffic in [TrafficSpec::uniform(), TrafficSpec::incast(5)] {
        let spec = ScenarioSpec::new(
            "conserve",
            FabricSpec::SingleSwitch { hosts: 8 },
            Workload::W4,
            0.8,
            60,
            0xC0FFEE,
        )
        .with_traffic(traffic);
        let res = run_protocol_scenario(p, &spec, &OnewayOpts::default(), None);
        let case = format!("{} under {}", p.name(), spec.to_spec_line());
        assert_eq!(res.injected, 60, "{case}");
        assert_eq!(res.delivered, res.injected, "{case}");
        assert_eq!(res.duplicate_deliveries, 0, "{case}");
    }
}

#[test]
fn conservation_homa() {
    assert_conserves(Protocol::Homa);
}

#[test]
fn conservation_pfabric() {
    assert_conserves(Protocol::Pfabric);
}

#[test]
fn conservation_phost() {
    assert_conserves(Protocol::Phost);
}

#[test]
fn conservation_pias() {
    assert_conserves(Protocol::Pias);
}

#[test]
fn conservation_ndp() {
    assert_conserves(Protocol::Ndp);
}

#[test]
fn conservation_stream() {
    assert_conserves(Protocol::Stream);
}
