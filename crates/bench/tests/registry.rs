//! The figure registry is the one list: what `repro help` names, what
//! each builder returns, what `repro compare` reads and what the text
//! view shows are all checked against `figdata::FIGURES` here.

use homa_bench::figdata::{figure, ReproOpts, FIGURES};
use homa_bench::perfjson::{fmt_num, parse_table, render_text, Field, CANONICAL_COLUMNS};
use homa_workloads::Workload;
use std::collections::BTreeSet;
use std::process::Command;

/// `fig<digits>` / `table<digits>`: the shape of a table name.
fn is_table_name(tok: &str) -> bool {
    ["fig", "table"].iter().any(|p| {
        tok.strip_prefix(p).is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()))
    })
}

#[test]
fn every_name_help_lists_resolves_and_every_table_is_listed() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).arg("help").output().expect("run repro");
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).expect("utf-8 help");
    let listed: BTreeSet<&str> = help.split_whitespace().filter(|t| is_table_name(t)).collect();
    for name in &listed {
        assert!(figure(name).is_some(), "help lists {name}, which no registry entry produces");
    }
    let registered: BTreeSet<&str> = FIGURES.iter().flat_map(|f| f.tables).copied().collect();
    assert_eq!(listed, registered);
    assert_eq!(registered.len(), 16, "Figures 1, 4, 8-10, 12-21 and Table 1");
}

#[test]
fn every_builder_returns_its_declared_tables_in_order() {
    // Tiny budgets: this checks names (it is what catches a fig8/fig9
    // swap), not numbers.
    let opts = ReproOpts { msgs_scale: 0.02, seed: 42, ..ReproOpts::default() };
    for fig in FIGURES {
        let built: Vec<String> = (fig.build)(&opts).into_iter().map(|t| t.figure).collect();
        assert_eq!(built, fig.tables, "{}", fig.title);
    }
}

#[test]
fn the_compared_subset_is_figures_12_to_16() {
    let compared: Vec<&str> =
        FIGURES.iter().filter(|f| f.compared()).flat_map(|f| f.tables).copied().collect();
    assert_eq!(compared, ["fig12", "fig13", "fig14", "fig15", "fig16"]);
}

#[test]
fn workloads_mean_what_was_typed() {
    // fig14 defaults to all five workloads; asking for two must run two
    // (the parent compared against the default *value* W2,W4 and ran five).
    let opts = ReproOpts {
        workloads: Some(vec![Workload::W2, Workload::W4]),
        msgs_scale: 0.02,
        ..ReproOpts::default()
    };
    let table = &(figure("fig14").expect("registered").build)(&opts)[0];
    let workloads: BTreeSet<&str> =
        table.rows.iter().filter_map(|r| r.get("workload")?.as_text()).collect();
    assert_eq!(workloads, BTreeSet::from(["W2", "W4"]));
    assert_eq!(table.rows.len(), 4, "two metrics per workload");
}

#[test]
fn text_view_is_the_table_one_line_per_row() {
    let golden = include_str!("golden/FIG_12_seed42_w4.json");
    let table = parse_table(golden).expect("golden parses");
    let text = render_text(&table);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), table.rows.len() + 1, "a header, then one line per row");

    // Canonical columns first, in their fixed order, then the rest in key
    // order (fig12 rows carry all seven).
    let header: Vec<&str> = lines[0].split_whitespace().collect();
    assert_eq!(header[..7], CANONICAL_COLUMNS);
    assert!(header[7..].is_sorted(), "{header:?}");

    // Text and JSON agree digit for digit: every numeric token of the
    // text is some cell's `fmt_num`, which is what the JSON holds.
    let numbers: BTreeSet<String> =
        table.rows.iter().flat_map(|r| r.values()).filter_map(Field::as_num).map(fmt_num).collect();
    for (line, row) in lines[1..].iter().zip(&table.rows) {
        let cells: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(cells.len(), header.len(), "absent and empty cells print `-`: {line}");
        for (col, cell) in header.iter().zip(cells) {
            if cell.parse::<f64>().is_ok() {
                assert!(numbers.contains(cell) && golden.contains(cell), "{col}={cell}");
            }
            assert_eq!(cell == "-", row.get(*col).is_none_or(|f| f.as_text() == Some("")));
        }
    }
}
