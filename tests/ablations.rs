//! Integration tests for the paper's mechanism ablations: each of Homa's
//! design choices must have a measurable effect in the direction the
//! paper reports. The Figure 17/18/20/21 and Table 1 claims are ordinal
//! assertions over the rows `repro` writes, at the `--scale 0.2` of the
//! CI figure gate and at both of its seeds.

use homa_bench::figdata::{ablation, figure, Ablation, ReproOpts, Variant, FIG17, FIG18, FIG20};
use homa_bench::perfjson::FigRow;
use homa_bench::{run_protocol_scenario, Protocol};
use homa_harness::driver::OnewayOpts;
use homa_harness::slowdown::SlowdownSummary;
use homa_harness::{FabricSpec, ScenarioSpec};
use homa_workloads::Workload;

const FABRIC: FabricSpec = FabricSpec::LeafSpine { racks: 3, hosts_per_rack: 8, spines: 2 };

/// `small_msg_p99` of each labelled variant of `a` (all of them for an
/// empty `labels`), from the table `repro` builds at `seed`.
fn small_msg_p99(a: &Ablation, labels: &[&str], seed: u64) -> Vec<f64> {
    let picked: Vec<Variant> = (a.variants.iter().copied())
        .filter(|v| labels.is_empty() || labels.contains(&v.label().as_str()))
        .collect();
    let table = ablation(a, &picked, &gate_opts(seed));
    table.rows.iter().map(|r| r["small_msg_p99"].as_num().expect("numeric column")).collect()
}

fn gate_opts(seed: u64) -> ReproOpts {
    ReproOpts { seed, msgs_scale: 0.2, ..ReproOpts::default() }
}

/// The rows of the one table `repro <name>` writes at `seed`.
fn rows_of(name: &str, seed: u64) -> Vec<FigRow> {
    let build = figure(name).expect("a registered figure").build;
    build(&gate_opts(seed)).remove(0).rows
}

#[test]
fn delay_attribution_shows_preemption_lag_dominates() {
    // Figure 14's machinery: with delay tracking on, short messages near
    // the tail must show nonzero preemption lag, and (on priority-enabled
    // Homa) lag should dominate same-priority queueing.
    let spec = ScenarioSpec::new("ablate_delay", FABRIC, Workload::W2, 0.8, 6_000, 21);
    let res = run_protocol_scenario(
        Protocol::Homa,
        &spec,
        &OnewayOpts { track_delay: true, ..OnewayOpts::default() }.with_records(),
        None,
    );
    let mut recs = res.records.clone();
    recs.sort_by_key(|r| r.size);
    let short = &recs[..recs.len() / 5];
    let lag: f64 = short.iter().map(|r| r.delay.preemption_lag.as_micros_f64()).sum();
    let queue: f64 = short.iter().map(|r| r.delay.queueing.as_micros_f64()).sum();
    assert!(lag > 0.0, "some preemption lag must be observed at 80% load");
    assert!(
        lag > queue,
        "priorities should convert queueing into (smaller) preemption lag: lag={lag:.1}us queue={queue:.1}us"
    );
}

#[test]
fn overcommitment_reduces_wasted_bandwidth() {
    // Figure 16's headline: more scheduled priorities (higher
    // overcommitment) means less wasted receiver bandwidth on W4.
    let spec = ScenarioSpec::new("ablate_sched", FABRIC, Workload::W4, 0.75, 1_200, 13);
    let run = |sched: u8| {
        let res = run_protocol_scenario(
            Protocol::Homa,
            &spec,
            &OnewayOpts { sample_wasted: true, ..OnewayOpts::default() },
            Some(Variant::Sched(sched)),
        );
        res.wasted_fraction
    };
    let w1 = run(1);
    let w7 = run(7);
    assert!(
        w1 > w7 + 0.02,
        "overcommitment must reduce waste: 1 sched -> {:.1}%, 7 sched -> {:.1}%",
        w1 * 100.0,
        w7 * 100.0
    );
}

#[test]
fn more_unscheduled_levels_improve_w1_tails() {
    // Figure 17: W1 needs multiple unscheduled levels, and each one added
    // helps (unsched = 1, 2, 3, 7).
    for seed in [42, 7] {
        let p99 = small_msg_p99(&FIG17, &[], seed);
        assert!(p99.windows(2).all(|w| w[0] >= w[1]), "seed {seed}: not monotone: {p99:?}");
        assert!(
            p99[0] >= p99[3] * 1.5,
            "seed {seed}: one unscheduled level must be >=1.5x worse than seven: {p99:?}"
        );
    }
}

#[test]
fn balanced_cutoff_beats_the_extremes() {
    // Figure 18: with two unscheduled levels, a cutoff that starves one of
    // them (100 B) is the worst choice and the best one is interior.
    for seed in [42, 7] {
        let p99 = small_msg_p99(&FIG18, &[], seed);
        let by_value = |i: &usize, j: &usize| p99[*i].total_cmp(&p99[*j]);
        let worst = (0..p99.len()).max_by(by_value).expect("rows");
        let best = (0..p99.len()).min_by(by_value).expect("rows");
        assert_eq!(worst, 0, "seed {seed}: cutoff=100 must be the worst: {p99:?}");
        assert!((1..=3).contains(&best), "seed {seed}: the best cutoff is interior: {p99:?}");
    }
}

#[test]
fn blind_transmission_matters_for_small_messages() {
    // Figure 20: a tiny unscheduled limit forces a scheduling round trip
    // onto every message and inflates small-message latency.
    for seed in [42, 7] {
        let p99 = small_msg_p99(&FIG20, &["unsched_limit=1B", "unsched_limit=RTTbytes"], seed);
        assert!(
            p99[0] >= p99[1] * 1.5,
            "seed {seed}: suppressing blind transmission must hurt (1B, RTTbytes): {p99:?}"
        );
    }
}

#[test]
fn priority_levels_stack_to_the_load_and_scheduled_ones_fill_from_the_bottom() {
    // Figure 21: the bars are fractions of the available bandwidth, so
    // the eight of one load stack to that load; W3 spreads unscheduled
    // bytes over all four of its levels, and scheduled bytes use the
    // lowest level first (§3.4, Figure 5), so P0 outweighs P1–P3.
    for seed in [42, 7] {
        let rows = rows_of("fig21", seed);
        for load in [0.5, 0.8, 0.9] {
            let frac: Vec<f64> = (rows.iter().filter(|r| r["x"].as_num() == Some(load)))
                .map(|r| r["value"].as_num().expect("numeric column"))
                .collect();
            assert_eq!(frac.len(), 8, "seed {seed}, load {load}: one row a level");
            let sum: f64 = frac.iter().sum();
            assert!((sum - load).abs() <= 0.1 * load, "seed {seed}, load {load}: sum {sum}");
            assert!(frac[4..].iter().all(|&f| f > 0.0), "seed {seed}, load {load}: {frac:?}");
            assert!(
                frac[0] > frac[1..4].iter().sum::<f64>(),
                "seed {seed}, load {load}: scheduled bytes must sit at the bottom: {frac:?}"
            );
        }
    }
}

#[test]
fn queueing_lives_at_the_tor_downlinks() {
    // Table 1: at 80% load queues build where receivers' downlinks are
    // shared, and the core stays nearly empty, on every workload. Rows
    // come three a workload: TOR->Aggr, Aggr->TOR, TOR->host.
    for seed in [42, 7] {
        let rows = rows_of("table1", seed);
        assert_eq!(rows.len(), 3 * Workload::ALL.len());
        for of_workload in rows.chunks(3) {
            let who = format!("seed {seed}, {:?}", of_workload[2]["workload"]);
            assert_eq!(of_workload[2]["queue"].as_text(), Some("TOR->host"), "{who}");
            let column = |c: &str| -> Vec<f64> {
                of_workload.iter().map(|r| r[c].as_num().expect("numeric column")).collect()
            };
            let (mean, max) = (column("mean_bytes"), column("max_bytes"));
            assert!(mean[2] >= 3.0 * mean[0].max(mean[1]), "{who}: means {mean:?}");
            assert!(max[2] > max[0].max(max[1]), "{who}: maxima {max:?}");
        }
    }
}

#[test]
fn pias_single_packet_messages_ride_top_priority_on_w3() {
    // §5.2: "PIAS is nearly identical to Homa for small messages in
    // workload W3" — its always-top-priority first packet happens to
    // match Homa's W3 allocation. (On W1, with many blind priority
    // levels, PIAS is considerably worse — Figure 12.)
    let spec3 = ScenarioSpec::new("ablate_pias_w3", FABRIC, Workload::W3, 0.7, 4_000, 51);
    let homa =
        run_protocol_scenario(Protocol::Homa, &spec3, &OnewayOpts::default().with_records(), None);
    let pias =
        run_protocol_scenario(Protocol::Pias, &spec3, &OnewayOpts::default().with_records(), None);
    let h = SlowdownSummary::small_message_p99(&homa.records, 0.3);
    let p = SlowdownSummary::small_message_p99(&pias.records, 0.3);
    // Near-parity for sub-packet W3 messages, not catastrophically worse
    // like a streaming transport.
    assert!(p < h * 2.5, "PIAS single-packet handling broken: homa={h:.2} pias={p:.2}");

    // And the W1 contrast from Figure 12: PIAS measurably worse there.
    let spec1 = ScenarioSpec::new("ablate_pias_w1", FABRIC, Workload::W1, 0.7, 6_000, 51);
    let homa1 =
        run_protocol_scenario(Protocol::Homa, &spec1, &OnewayOpts::default().with_records(), None);
    let pias1 =
        run_protocol_scenario(Protocol::Pias, &spec1, &OnewayOpts::default().with_records(), None);
    let h1 = SlowdownSummary::small_message_p99(&homa1.records, 0.3);
    let p1 = SlowdownSummary::small_message_p99(&pias1.records, 0.3);
    assert!(
        p1 > h1 * 1.5,
        "PIAS should trail Homa on W1 small messages: homa={h1:.2} pias={p1:.2}"
    );
}
