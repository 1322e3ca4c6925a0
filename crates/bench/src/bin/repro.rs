//! `repro` — regenerate every table and figure of the Homa paper.
//!
//! One subcommand per table of `figdata::FIGURES`, the list that `all`,
//! `compare`, `--from-dir` and `repro help` also walk (this file names
//! no figure). Runs are reduced-scale by default, a full sweep in
//! seconds; `--full` is paper scale (144 hosts, 8x the messages). Every
//! table is written as `FIG_<n>.json` and printed to stdout as text —
//! two renderings of the same rows — while stderr carries one progress
//! line per simulation run (its run line, then its tally) and the wall
//! time of each figure. `repro trace <run line>` replays any such run.
//!
//! `repro compare` is the figure-accuracy gate: it re-runs (or loads,
//! with `--from-dir`) the figures that have digitized published curves
//! (12–16, `homa_harness::figures`), prints per-point delta tables,
//! writes `COMPARE.json`, and exits nonzero when a gated curve drifts
//! past its tolerance.
//!
//! ```text
//! repro fig12 --workloads W2,W4 --loads 0.8
//! repro table1
//! repro all [--compare]
//! repro compare [--from-dir DIR]
//! repro trace proto=Homa variant=sched=1 name=fig16 fabric=ls:3x8x2 wl=W4 ...
//! ```

use homa_bench::figdata::{
    compare_tables, figure, measured_points, CompareOutcome, Figure, ReproOpts, FIGURES,
};
use homa_bench::perfjson::{parse_table, render_table, render_text, FigTable};
use homa_bench::{parse_run_line, tracecmd};
use homa_sim::FlightRecorder;
use homa_workloads::Workload;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One-line usage error, exit 2 (satellite fix: bad CLI input must not
/// panic deep in the harness).
fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

/// The value of the flag at `args[*i]`: the next argument.
fn take(args: &[String], i: &mut usize) -> String {
    *i += 1;
    args.get(*i).cloned().unwrap_or_else(|| die(&format!("{} needs a value", args[*i - 1])))
}

/// `v` parsed as the `what` that `flag` takes.
fn parsed<T: std::str::FromStr>(flag: &str, what: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| die(&format!("{flag} takes {what}, got {v:?}")))
}

struct Cli {
    opts: ReproOpts,
    out_dir: PathBuf,
    from_dir: Option<PathBuf>,
    compare_after: bool,
}

fn parse_cli(args: &[String]) -> Cli {
    let mut cli = Cli {
        opts: ReproOpts::default(),
        out_dir: PathBuf::from("."),
        from_dir: None,
        compare_after: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => cli.opts.full = true,
            "--compare" => cli.compare_after = true,
            "--seed" => {
                cli.opts.seed = parsed("--seed", "an unsigned integer", &take(args, &mut i))
            }
            "--scale" => {
                let v = take(args, &mut i);
                cli.opts.msgs_scale = parsed("--scale", "a number", &v);
                if cli.opts.msgs_scale <= 0.0 || !cli.opts.msgs_scale.is_finite() {
                    die(&format!("--scale must be a positive number, got {v}"));
                }
            }
            "--workloads" => {
                let parse = |s| {
                    Workload::parse(s).unwrap_or_else(|| {
                        die(&format!("unknown workload {s:?} (expected W1..W5)"))
                    })
                };
                cli.opts.workloads = Some(take(args, &mut i).split(',').map(parse).collect());
            }
            "--loads" => {
                let parse = |s| {
                    let l: f64 = parsed("--loads", "numbers", s);
                    if !(l > 0.0 && l <= 1.0) {
                        die(&format!("load {s} out of range: loads are fractions in (0, 1]"));
                    }
                    l
                };
                cli.opts.loads = Some(take(args, &mut i).split(',').map(parse).collect());
            }
            "--out-dir" => cli.out_dir = PathBuf::from(take(args, &mut i)),
            "--from-dir" => cli.from_dir = Some(PathBuf::from(take(args, &mut i))),
            other => die(&format!("unknown option {other:?} (see 'repro help')")),
        }
        i += 1;
    }
    cli
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args.split_first().map_or(("help", &[][..]), |(c, r)| (c.as_str(), r));
    // `trace` takes a raw run line whose `key=value` fields are not
    // options; it must dispatch before the shared option parser, which
    // would die on them as unknown flags.
    if cmd == "trace" {
        run_trace(rest);
        return;
    }
    let mut cli = parse_cli(rest);
    if cli.from_dir.is_some() && cmd != "compare" {
        die("--from-dir only applies to 'repro compare' (it would silently skip the run)");
    }

    // The reference curves are digitized at 50% and 80% load; compare
    // runs sweep both unless the user narrowed them explicitly.
    let comparing = cmd == "compare" || cli.compare_after;
    if comparing && cli.opts.loads.is_none() {
        cli.opts.loads = Some(vec![0.5, 0.8]);
    }

    let figs: Vec<&Figure> = match cmd {
        "help" | "--help" | "-h" => {
            help();
            return;
        }
        "all" => FIGURES.iter().collect(),
        "compare" => FIGURES.iter().filter(|f| f.compared()).collect(),
        name => vec![figure(name).unwrap_or_else(|| {
            eprintln!("unknown experiment '{name}'");
            help();
            std::process::exit(2);
        })],
    };
    if let Err(e) = std::fs::create_dir_all(&cli.out_dir) {
        die(&format!("cannot create --out-dir {}: {e}", cli.out_dir.display()));
    }
    let tables = match &cli.from_dir {
        Some(dir) => load_tables(dir, &figs),
        None => build_tables(&figs, &cli),
    };
    if comparing {
        std::process::exit(run_comparison(&cli, &tables));
    }
}

/// Write a table to `dir/FIG_<n>.json`.
fn write_or_die(dir: &Path, t: &FigTable) {
    let path = dir.join(t.file_name());
    match std::fs::write(&path, render_table(t)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => die(&format!("cannot write {}: {e}", path.display())),
    }
}

/// Run each entry's builder in registry order (so the output reads like
/// the paper); as each returns, print its wall time (stderr) and its
/// tables as text (stdout), and write them as JSON.
fn build_tables(figs: &[&Figure], cli: &Cli) -> Vec<FigTable> {
    let mut tables = Vec::new();
    for fig in figs {
        let start = Instant::now();
        let built = (fig.build)(&cli.opts);
        eprintln!("{}: {:.1}s", fig.tables.join(" "), start.elapsed().as_secs_f64());
        for t in &built {
            print!("\n=== {}: {} ===\n{}", t.figure, fig.title, render_text(t));
            write_or_die(&cli.out_dir, t);
        }
        tables.extend(built);
    }
    tables
}

/// `repro trace <run-line> [--cap N] [--out-dir DIR]`: replay a run
/// with the flight recorder on, write `TRACE.jsonl`, and print the
/// per-priority utilization and message-lifecycle summaries. The run
/// line is what a progress line of `repro` starts with
/// (`homa_bench::run_line`) or a bare spec line, which runs Homa, so a
/// line can be pasted verbatim from `repro`'s stderr, a fuzzer artifact
/// or EXPERIMENTS.md.
fn run_trace(args: &[String]) {
    let mut fields: Vec<String> = Vec::new();
    let mut cap = FlightRecorder::DEFAULT_CAP;
    let mut out_dir = PathBuf::from(".");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cap" => {
                let v = take(args, &mut i);
                cap =
                    v.parse().ok().filter(|&c| c > 0).unwrap_or_else(|| {
                        die(&format!("--cap takes a positive integer, got {v:?}"))
                    });
            }
            "--out-dir" => out_dir = PathBuf::from(take(args, &mut i)),
            tok if tok.contains('=') => fields.push(tok.to_string()),
            other => die(&format!("unknown option {other:?} (see 'repro help')")),
        }
        i += 1;
    }
    if fields.is_empty() {
        die("trace needs a run line (key=value fields, e.g. \
             'proto=pFabric name=t fabric=mtor:40 wl=W4 load=0.8 msgs=2000 seed=42')");
    }
    let (proto, variant, spec) = parse_run_line(&fields.join(" ")).unwrap_or_else(|e| die(&e));
    let tr = tracecmd::trace_run(proto, variant, &spec, cap);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        die(&format!("cannot create --out-dir {}: {e}", out_dir.display()));
    }
    let path = out_dir.join("TRACE.jsonl");
    if let Err(e) = std::fs::write(&path, &tr.jsonl) {
        die(&format!("cannot write {}: {e}", path.display()));
    }
    eprintln!("wrote {} ({} records, {} dropped)", path.display(), tr.kept, tr.dropped);
    print!("{}", tr.report);
}

/// Load the compared figures' tables from a directory of previously
/// written `FIG_<n>.json` files. Every one must be present — a partial
/// directory (an interrupted earlier run) would otherwise skip gated
/// curves and let the gate pass vacuously.
fn load_tables(dir: &Path, figs: &[&Figure]) -> Vec<FigTable> {
    figs.iter()
        .flat_map(|fig| fig.tables)
        .map(|name| {
            let path = dir.join(FigTable::new(name, String::new()).file_name());
            let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                die(&format!(
                    "cannot read {}: {e} (the gate needs every comparison figure; \
                     regenerate with 'repro all' or 'repro compare')",
                    path.display()
                ))
            });
            parse_table(&json)
                .unwrap_or_else(|e| die(&format!("cannot parse {}: {e}", path.display())))
        })
        .collect()
}

/// Join measured tables against the reference curves; print the delta
/// report, write `COMPARE.json`, and return the process exit code.
fn run_comparison(cli: &Cli, tables: &[FigTable]) -> i32 {
    let n_points: usize = tables.iter().map(|t| measured_points(t).len()).sum();
    println!("\n=== repro compare: measured vs published Figures 12-16 ===");
    println!("{} measured points from {} tables", n_points, tables.len());
    let CompareOutcome { report, failures, gated_curves_joined, delta_table } =
        compare_tables(tables, format!("repro compare, seed {}", cli.opts.seed));
    print!("{report}");
    write_or_die(&cli.out_dir, &delta_table);
    match failures {
        Err(e) => {
            eprintln!("FAIL: {e}");
            1
        }
        Ok(fails) if !fails.is_empty() => {
            for f in &fails {
                eprintln!("FAIL: {f}");
            }
            eprintln!(
                "figure accuracy drifted on {} curve(s); if the change is an intentional \
                 fidelity improvement, update homa_harness::figures and EXPERIMENTS.md",
                fails.len()
            );
            1
        }
        Ok(_) if gated_curves_joined == 0 => {
            // A verdict with no gated curve joined is vacuous, not a pass
            // (e.g. the run was narrowed to workloads/loads the reference
            // doesn't cover).
            eprintln!(
                "FAIL: no gated reference curve was covered by this run; \
                 use the default workloads/loads so the gate checks something"
            );
            1
        }
        Ok(_) => {
            println!("OK: all {gated_curves_joined} gated curves joined and within tolerance");
            0
        }
    }
}

fn help() {
    println!(
        "repro — regenerate the figures/tables of the Homa paper (SIGCOMM 2018)\n\
         usage: repro <experiment> [options]\n\
         experiments:"
    );
    for fig in FIGURES {
        let mark = if fig.compared() { " [compared]" } else { "" };
        println!("  {:<12} {}{mark}", fig.tables.join(" "), fig.title);
    }
    println!(
        "  all          every experiment above\n\
         options: --full              paper-scale topology and message counts\n\
         \x20        --workloads LIST    e.g. W1,W3,W5 (default: each figure's own set)\n\
         \x20        --loads LIST        e.g. 0.5,0.8; fractions in (0,1] (default 0.8)\n\
         \x20        --scale F           multiply message budgets by F\n\
         \x20        --seed N            RNG seed (default 1)\n\
         \x20        --out-dir DIR       where FIG_<n>.json files go (default .)\n\
         each table is written as FIG_<n>.json and printed as text; progress goes to stderr\n\
         \n\
         repro compare [--from-dir DIR]\n\
         \x20   re-run (or load from DIR) the [compared] figures, diff against the\n\
         \x20   digitized published curves, write COMPARE.json, exit 1 on gated drift\n\
         repro all --compare\n\
         \x20   regenerate everything, then run the comparison on the fresh tables\n\
         repro trace <run-line> [--cap N] [--out-dir DIR]\n\
         \x20   replay a run with the flight recorder on: the run line a progress\n\
         \x20   line of repro starts with (proto=P [variant=V] name=... shape=...)\n\
         \x20   or a bare spec line (Homa); writes TRACE.jsonl and prints the run's\n\
         \x20   tally, per-priority utilization and message lifecycle summaries\n\
         \x20   (spec grammar: see homa-harness spec_line)"
    );
}
