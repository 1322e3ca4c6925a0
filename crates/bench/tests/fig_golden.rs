//! Golden tests for the machine-readable figure output.
//!
//! Two layers of pinning:
//!
//! * **Schema** — the canonical comparison columns
//!   (`workload`/`protocol`/`variant`/`load`/`metric`/`x`/`value`) must
//!   survive in every comparison-relevant table, and `FIG_*.json` must
//!   round-trip through the hand-rolled parser. The `repro compare`
//!   gate and the nightly figure-accuracy job both read these files;
//!   renaming a column would silently unjoin every reference curve.
//! * **Numbers** — seed-42 reduced-scale `repro fig12` (one-way shape)
//!   and `repro fig8` (echo-RPC shape) runs are pinned byte-for-byte.
//!   The simulation is deterministic, so any diff means either the
//!   simulator/transport behavior changed (refresh deliberately, and
//!   expect the perf gate to flag it too) or the JSON formatting
//!   drifted (don't).
//!
//! To refresh after an intentional change:
//! `BLESS=1 cargo test -p homa-bench --test fig_golden`

use homa_bench::figdata::{figure, measured_points, ReproOpts};
use homa_bench::perfjson::{parse_table, render_table};
use homa_workloads::Workload;

/// The options the golden files were generated with (equivalent to
/// `repro <fig> --workloads <W> --loads 0.8 --scale 0.05 --seed 42`).
fn golden_opts(workload: Workload) -> ReproOpts {
    ReproOpts {
        full: false,
        workloads: Some(vec![workload]),
        loads: Some(vec![0.8]),
        seed: 42,
        msgs_scale: 0.05,
    }
}

/// One pinned table: its name in the registry, workload, checked-in
/// bytes and the path `BLESS=1` rewrites.
type Golden = (&'static str, Workload, &'static str, &'static str);

/// `fig12` pins the one-way driver shape (four protocols on W4), `fig8`
/// the echo-RPC shape (600 RPCs × five Homa variants on W3, plus the
/// one-way streaming row).
const GOLDENS: [Golden; 2] = [
    (
        "fig12",
        Workload::W4,
        include_str!("golden/FIG_12_seed42_w4.json"),
        "tests/golden/FIG_12_seed42_w4.json",
    ),
    (
        "fig8",
        Workload::W3,
        include_str!("golden/FIG_8_seed42_w3.json"),
        "tests/golden/FIG_8_seed42_w3.json",
    ),
];

#[test]
fn seed42_reduced_figures_match_goldens() {
    for (name, workload, golden, path) in GOLDENS {
        let built = (figure(name).expect("registered").build)(&golden_opts(workload));
        let table = built.iter().find(|t| t.figure == name).expect("builder returns its table");
        let json = render_table(table);
        if std::env::var("BLESS").is_ok() {
            std::fs::write(path, &json).expect("write golden");
            continue;
        }
        assert_eq!(
            json, golden,
            "{path} drifted from the golden file. If the simulation change is \
             intentional, refresh with: BLESS=1 cargo test -p homa-bench --test fig_golden"
        );
    }
}

#[test]
fn fig12_schema_has_canonical_columns_and_round_trips() {
    let golden = include_str!("golden/FIG_12_seed42_w4.json");
    let table = parse_table(golden).expect("golden parses");
    assert_eq!(table.figure, "fig12");
    assert_eq!(table.schema, 1);

    // Render → parse is the identity on our own files.
    let back = parse_table(&render_table(&table)).expect("round trip");
    assert_eq!(back, table);

    // Every row must carry the canonical comparison columns; the gate
    // joins reference curves on exactly these.
    let points = measured_points(&table);
    assert_eq!(points.len(), table.rows.len(), "every fig12 row must extract as a measured point");
    // 4 protocols (Homa/pFabric/pHost/PIAS) x (10 bins + 1 summary row).
    assert_eq!(points.len(), 44);
    for p in &points {
        assert_eq!(p.workload, "W4");
        assert!(p.load > 0.0 && p.load <= 1.0, "load {}", p.load);
        assert!(p.metric == "p99_slowdown" || p.metric == "small_msg_p99", "{}", p.metric);
        assert!(p.y.is_finite() && p.y > 0.0, "value {}", p.y);
    }
    // The percentile bins cover the full x axis for each protocol.
    let homa_xs: Vec<f64> = points
        .iter()
        .filter(|p| p.protocol == "Homa" && p.metric == "p99_slowdown")
        .map(|p| p.x)
        .collect();
    assert_eq!(homa_xs, vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]);
}

#[test]
fn fig12_golden_joins_the_reference_curves() {
    // The pinned table must actually join the digitized fig12 W4/Homa
    // reference curve — if the join breaks, the nightly gate would
    // silently compare nothing.
    let golden = include_str!("golden/FIG_12_seed42_w4.json");
    let table = parse_table(golden).expect("golden parses");
    let deltas = homa_harness::figures::compare_curves(&measured_points(&table));
    let joined: Vec<_> = deltas.iter().filter(|d| !d.points.is_empty()).collect();
    assert!(
        joined.iter().any(|d| d.curve.workload == "W4"
            && d.curve.protocol == "Homa"
            && d.curve.figure == "fig12"
            && d.points.len() == d.curve.points.len()),
        "fig12 W4/Homa@80% must fully join the reference curve"
    );
}
