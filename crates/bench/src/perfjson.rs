//! Minimal JSON writer/reader for the machine-readable report formats.
//!
//! The workspace builds offline, without serde, so the perf gate and the
//! `repro` binary carry their own serializer for the two schemas they
//! need:
//!
//! * [`Report`] — the `perf-smoke` format: a flat object per scenario
//!   inside a `"scenarios"` array.
//! * [`FigTable`] — the `repro` figure format (`FIG_<n>.json`): a flat
//!   object per data row inside a `"rows"` array, with free-form columns
//!   ([`Field`]: string or number) so every figure can carry its own
//!   shape while the comparison gate reads the canonical columns it
//!   needs. [`render_text`] is the same rows as the aligned text table
//!   `repro` prints.
//!
//! The parsers accept exactly what the renderers emit (plus whitespace
//! variations) — they are readers for our own files, not general JSON
//! parsers.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One cell of a [`FigTable`] row: a string or a (finite) number.
///
/// There is no bool/null; figure rows don't need them, and keeping the
/// domain tiny keeps the round-trip rule honest: on parse, any cell that
/// parses as `f64` comes back as [`Field::Num`], everything else as
/// [`Field::Text`] — so text columns must not hold purely numeric
/// strings (ours are workload/protocol/metric names, which never are).
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// A string cell.
    Text(String),
    /// A numeric cell.
    Num(f64),
}

impl Field {
    /// The cell as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Field::Num(n) => Some(*n),
            Field::Text(_) => None,
        }
    }

    /// The cell as text, if it is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Field::Text(s) => Some(s),
            Field::Num(_) => None,
        }
    }
}

/// One row of figure data: column name → cell. Columns are free-form;
/// the `repro compare` gate looks for the [`CANONICAL_COLUMNS`].
pub type FigRow = BTreeMap<String, Field>;

/// The columns that say which curve a row belongs to and where its point
/// sits, in the order the text view shows them.
pub const CANONICAL_COLUMNS: [&str; 7] =
    ["workload", "protocol", "variant", "load", "metric", "x", "value"];

/// Machine-readable data for one figure/table of the paper, written as
/// `FIG_<n>.json` next to the text output.
#[derive(Debug, Clone, PartialEq)]
pub struct FigTable {
    /// Schema version (bump when the canonical columns change meaning).
    pub schema: u32,
    /// Which figure this is (`"fig12"`, `"table1"`, ...).
    pub figure: String,
    /// Free-form description of what produced the table (deterministic:
    /// no timestamps, so golden tests can pin whole files).
    pub produced_by: String,
    /// Data rows in presentation order.
    pub rows: Vec<FigRow>,
}

impl FigTable {
    /// New empty table for `figure`.
    pub fn new(figure: &str, produced_by: String) -> FigTable {
        FigTable { schema: 1, figure: figure.to_string(), produced_by, rows: Vec::new() }
    }

    /// The `FIG_12.json`-style file name for this table.
    pub fn file_name(&self) -> String {
        let f = &self.figure;
        let upper = match f.strip_prefix("fig") {
            Some(n) => format!("FIG_{n}"),
            None => match f.strip_prefix("table") {
                Some(n) => format!("TABLE_{n}"),
                None => f.to_ascii_uppercase(),
            },
        };
        format!("{upper}.json")
    }
}

/// Canonical number formatting for [`Field::Num`]: integers print bare,
/// everything else with six decimals, trailing zeros trimmed. The format
/// is deterministic (golden tests pin it) and survives the parse rule
/// (`f64` round-trip at six decimals is what the comparisons need).
pub fn fmt_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{n:.0}")
    } else {
        let s = format!("{n:.6}");
        let s = s.trim_end_matches('0');
        let s = s.strip_suffix('.').unwrap_or(s);
        s.to_string()
    }
}

/// Serialize a figure table as pretty-printed JSON.
pub fn render_table(t: &FigTable) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {},", t.schema);
    let _ = writeln!(out, "  \"figure\": \"{}\",", escape(&t.figure));
    let _ = writeln!(out, "  \"produced_by\": \"{}\",", escape(&t.produced_by));
    out.push_str("  \"rows\": [\n");
    for (i, row) in t.rows.iter().enumerate() {
        out.push_str("    {");
        for (j, (k, v)) in row.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            match v {
                Field::Text(s) => {
                    let _ = write!(out, "\"{}\": \"{}\"", escape(k), escape(s));
                }
                Field::Num(n) => {
                    let _ = write!(out, "\"{}\": {}", escape(k), fmt_num(*n));
                }
            }
        }
        out.push_str(if i + 1 < t.rows.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Render a figure table as aligned text: a header line, then one line
/// per row. The [`CANONICAL_COLUMNS`] that any row carries come first,
/// then the rest in key order. Numbers go through [`fmt_num`], so the
/// text and the JSON agree digit for digit; an absent (or empty) cell
/// prints `-`.
pub fn render_text(t: &FigTable) -> String {
    let present: BTreeSet<&str> =
        t.rows.iter().flat_map(|r| r.keys().map(String::as_str)).collect();
    let cols: Vec<&str> = (CANONICAL_COLUMNS.into_iter().filter(|c| present.contains(c)))
        .chain(present.iter().copied().filter(|c| !CANONICAL_COLUMNS.contains(c)))
        .collect();
    let mut lines: Vec<Vec<String>> = vec![cols.iter().map(|c| c.to_string()).collect()];
    lines.extend(t.rows.iter().map(|row| {
        cols.iter()
            .map(|&c| match row.get(c) {
                Some(Field::Text(s)) if !s.is_empty() => s.clone(),
                Some(Field::Num(n)) => fmt_num(*n),
                _ => "-".to_string(),
            })
            .collect()
    }));
    let widths: Vec<usize> = (0..cols.len())
        .map(|i| lines.iter().map(|l| l[i].chars().count()).max().unwrap_or(0))
        .collect();
    let mut out = String::new();
    for line in &lines {
        for (i, (cell, width)) in line.iter().zip(&widths).enumerate() {
            let _ = write!(out, "{}{cell:>width$}", if i > 0 { "  " } else { "" });
        }
        out.push('\n');
    }
    out
}

/// Parse a figure table produced by [`render_table`]. Cells that parse
/// as `f64` come back numeric, the rest as text (see [`Field`]).
///
/// The top-level object is recognized by carrying both `figure` and
/// `schema`; the `schema`/`produced_by` column names are therefore
/// reserved and must not appear in data rows (a row column named
/// `figure` alone is fine — `COMPARE.json` uses one).
pub fn parse_table(json: &str) -> Result<FigTable, String> {
    let objects = flat_objects(json)?;
    let mut table = FigTable::new("", String::new());
    let mut saw_header = false;
    let mut rows = Vec::new();
    for obj in objects {
        if obj.contains_key("figure") && obj.contains_key("schema") {
            // The top-level object (it closes last, but order among rows
            // is preserved either way).
            saw_header = true;
            table.figure = obj.get("figure").cloned().unwrap_or_default();
            table.produced_by = obj.get("produced_by").cloned().unwrap_or_default();
            if let Some(s) = obj.get("schema") {
                table.schema = s.parse().map_err(|e| format!("bad schema: {e}"))?;
            }
        } else {
            let row: FigRow = obj
                .into_iter()
                .map(|(k, v)| {
                    let field = match v.parse::<f64>() {
                        Ok(n) if n.is_finite() => Field::Num(n),
                        _ => Field::Text(v),
                    };
                    (k, field)
                })
                .collect();
            rows.push(row);
        }
    }
    if !saw_header {
        return Err("not a figure table: no top-level \"schema\"/\"produced_by\" header".into());
    }
    table.rows = rows;
    Ok(table)
}

/// Measurements for one scenario of a perf-smoke run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name (`w4_80_100h`); the key baselines are matched on.
    pub name: String,
    /// Hosts in the fabric.
    pub hosts: u64,
    /// Messages injected.
    pub messages: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Simulator events processed — deterministic for a given seed, so a
    /// mismatch against the baseline means the simulation itself changed.
    pub events: u64,
    /// Simulated duration of the run, nanoseconds.
    pub sim_ns: u64,
    /// Wall-clock of the run, milliseconds.
    pub wall_ms: f64,
    /// Events processed per wall-clock second.
    pub events_per_sec: f64,
    /// Peak resident set (VmHWM) observed for the run, in KiB; 0 when
    /// RSS sampling was off or unavailable (non-Linux), and absent from
    /// reports written before the column existed — the parser defaults
    /// those to 0, and the gate skips the RSS comparison when either
    /// side is 0.
    pub peak_rss_kb: u64,
}

/// A whole perf-smoke report.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Schema version (bump when fields change incompatibly).
    pub schema: u32,
    /// Free-form description of what produced the report.
    pub produced_by: String,
    /// Per-scenario measurements.
    pub scenarios: Vec<ScenarioReport>,
}

/// Serialize a report as pretty-printed JSON.
pub fn render_report(r: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": {},", r.schema);
    let _ = writeln!(out, "  \"produced_by\": \"{}\",", escape(&r.produced_by));
    out.push_str("  \"scenarios\": [\n");
    for (i, s) in r.scenarios.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", escape(&s.name));
        let _ = writeln!(out, "      \"hosts\": {},", s.hosts);
        let _ = writeln!(out, "      \"messages\": {},", s.messages);
        let _ = writeln!(out, "      \"delivered\": {},", s.delivered);
        let _ = writeln!(out, "      \"events\": {},", s.events);
        let _ = writeln!(out, "      \"sim_ns\": {},", s.sim_ns);
        let _ = writeln!(out, "      \"wall_ms\": {:.3},", s.wall_ms);
        let _ = writeln!(out, "      \"events_per_sec\": {:.1},", s.events_per_sec);
        let _ = writeln!(out, "      \"peak_rss_kb\": {}", s.peak_rss_kb);
        out.push_str(if i + 1 < r.scenarios.len() { "    },\n" } else { "    }\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Parse a report produced by [`render_report`]. Returns a readable error
/// for anything malformed.
pub fn parse_report(json: &str) -> Result<Report, String> {
    let objects = flat_objects(json)?;
    let mut schema = 0u32;
    let mut produced_by = String::new();
    let mut scenarios = Vec::new();
    for obj in objects {
        if let Some(name) = obj.get("name") {
            let get = |k: &str| -> Result<f64, String> {
                obj.get(k)
                    .ok_or_else(|| format!("scenario {name}: missing field {k:?}"))?
                    .parse::<f64>()
                    .map_err(|e| format!("scenario {name}: bad {k:?}: {e}"))
            };
            scenarios.push(ScenarioReport {
                name: name.clone(),
                hosts: get("hosts")? as u64,
                messages: get("messages")? as u64,
                delivered: get("delivered")? as u64,
                events: get("events")? as u64,
                sim_ns: get("sim_ns")? as u64,
                wall_ms: get("wall_ms")?,
                events_per_sec: get("events_per_sec")?,
                // Optional: pre-RSS-era reports lack the column.
                peak_rss_kb: obj
                    .get("peak_rss_kb")
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0),
            });
        } else {
            // The top-level object (fields outside any scenario).
            if let Some(s) = obj.get("schema") {
                schema = s.parse().map_err(|e| format!("bad schema: {e}"))?;
            }
            if let Some(p) = obj.get("produced_by") {
                produced_by = p.clone();
            }
        }
    }
    if scenarios.is_empty() {
        return Err("no scenarios found".into());
    }
    Ok(Report { schema, produced_by, scenarios })
}

/// Split a JSON document into flat key→value maps: one for each
/// `{...}` nesting level encountered. Strings lose their quotes; numbers
/// stay textual. Arrays only serve as grouping.
fn flat_objects(json: &str) -> Result<Vec<BTreeMap<String, String>>, String> {
    let mut stack: Vec<BTreeMap<String, String>> = Vec::new();
    let mut done: Vec<BTreeMap<String, String>> = Vec::new();
    let mut key: Option<String> = None;
    let mut chars = json.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' => {
                // A container discharges any pending key ("scenarios": [...]).
                key = None;
                stack.push(BTreeMap::new());
            }
            '[' => key = None,
            '}' => {
                let obj = stack.pop().ok_or("unbalanced '}'")?;
                done.push(obj);
                key = None;
            }
            '"' => {
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('\\') => match chars.next() {
                            Some(e) => s.push(e),
                            None => return Err("dangling escape".into()),
                        },
                        Some('"') => break,
                        Some(ch) => s.push(ch),
                        None => return Err("unterminated string".into()),
                    }
                }
                let top = stack.last_mut().ok_or("value outside object")?;
                match key.take() {
                    None => key = Some(s),
                    Some(k) => {
                        top.insert(k, s);
                    }
                }
            }
            ':' | ',' | ']' => {}
            c if c.is_whitespace() => {}
            c => {
                // A bare token: number, true/false/null.
                let mut tok = String::new();
                tok.push(c);
                while let Some(&n) = chars.peek() {
                    if n == ',' || n == '}' || n == ']' || n.is_whitespace() {
                        break;
                    }
                    tok.push(n);
                    chars.next();
                }
                let top = stack.last_mut().ok_or("value outside object")?;
                let k = key.take().ok_or_else(|| format!("bare value {tok:?} without key"))?;
                top.insert(k, tok);
            }
        }
    }
    if !stack.is_empty() {
        return Err("unbalanced '{'".into());
    }
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            schema: 1,
            produced_by: "perf-smoke test".into(),
            scenarios: vec![
                ScenarioReport {
                    name: "w4_80_40h".into(),
                    hosts: 40,
                    messages: 2000,
                    delivered: 2000,
                    events: 123_456,
                    sim_ns: 7_000_000,
                    wall_ms: 321.5,
                    events_per_sec: 383_999.9,
                    peak_rss_kb: 51_200,
                },
                ScenarioReport {
                    name: "w4_80_100h".into(),
                    hosts: 100,
                    messages: 4000,
                    delivered: 3999,
                    events: 999_999,
                    sim_ns: 9_000_000,
                    wall_ms: 1000.0,
                    events_per_sec: 999_999.0,
                    peak_rss_kb: 0,
                },
            ],
        }
    }

    #[test]
    fn round_trips() {
        let r = sample();
        let json = render_report(&r);
        let back = parse_report(&json).unwrap();
        assert_eq!(back.schema, 1);
        assert_eq!(back.produced_by, "perf-smoke test");
        assert_eq!(back.scenarios.len(), 2);
        assert_eq!(back.scenarios[0], r.scenarios[0]);
        assert_eq!(back.scenarios[1].delivered, 3999);
        assert!((back.scenarios[1].wall_ms - 1000.0).abs() < 1e-9);
        assert_eq!(back.scenarios[0].peak_rss_kb, 51_200);
        assert_eq!(back.scenarios[1].peak_rss_kb, 0);
    }

    #[test]
    fn parse_tolerates_whitespace_and_ordering() {
        let json = r#"{"schema":1,"produced_by":"x","scenarios":[
            {"events":10,"name":"a","hosts":2,"messages":1,"delivered":1,
             "sim_ns":5,"events_per_sec":2.0,"wall_ms":5.0}]}"#;
        let r = parse_report(json).unwrap();
        assert_eq!(r.scenarios[0].name, "a");
        assert_eq!(r.scenarios[0].events, 10);
        // The sample predates the RSS column: it must parse,
        // defaulting it to 0 (which disables that gate).
        assert_eq!(r.scenarios[0].peak_rss_kb, 0);
    }

    #[test]
    fn parse_ignores_the_removed_scaling_efficiency_column() {
        // Reports written while the parallel engine existed carry a
        // per-scenario `scaling_efficiency`; they must keep parsing.
        let json = r#"{"schema":1,"produced_by":"x","scenarios":[
            {"name":"a","hosts":2,"messages":1,"delivered":1,"events":10,
             "sim_ns":5,"wall_ms":5.0,"events_per_sec":2.0,"peak_rss_kb":7,
             "scaling_efficiency":0.875}]}"#;
        let r = parse_report(json).unwrap();
        assert_eq!(r.scenarios[0].events, 10);
        assert_eq!(r.scenarios[0].peak_rss_kb, 7);
        assert_eq!(parse_report(&render_report(&r)).unwrap(), r);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_report("{").is_err());
        assert!(parse_report("{}").is_err());
        assert!(parse_report(r#"{"scenarios":[{"name":"a"}]}"#).is_err());
    }

    fn fig_sample() -> FigTable {
        let mut t = FigTable::new("fig12", "repro fig12, seed 42".into());
        let mut row = FigRow::new();
        row.insert("workload".into(), Field::Text("W4".into()));
        row.insert("protocol".into(), Field::Text("Homa".into()));
        row.insert("load".into(), Field::Num(0.8));
        row.insert("metric".into(), Field::Text("p99_slowdown".into()));
        row.insert("x".into(), Field::Num(10.0));
        row.insert("value".into(), Field::Num(2.25));
        t.rows.push(row);
        let mut row = FigRow::new();
        row.insert("workload".into(), Field::Text("W4".into()));
        row.insert("count".into(), Field::Num(300.0));
        t.rows.push(row);
        t
    }

    #[test]
    fn fig_table_round_trips() {
        let t = fig_sample();
        let json = render_table(&t);
        let back = parse_table(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn fig_table_file_names() {
        assert_eq!(FigTable::new("fig12", String::new()).file_name(), "FIG_12.json");
        assert_eq!(FigTable::new("table1", String::new()).file_name(), "TABLE_1.json");
        assert_eq!(FigTable::new("compare", String::new()).file_name(), "COMPARE.json");
    }

    #[test]
    fn rows_with_a_figure_column_are_not_mistaken_for_the_header() {
        // COMPARE.json rows carry a "figure" column; they must parse as
        // rows, not clobber the table header.
        let mut t = FigTable::new("compare", "repro compare, seed 42".into());
        for fig in ["fig12", "fig15"] {
            let mut row = FigRow::new();
            row.insert("figure".into(), Field::Text(fig.into()));
            row.insert("reference".into(), Field::Num(2.2));
            row.insert("value".into(), Field::Num(1.7));
            t.rows.push(row);
        }
        let back = parse_table(&render_table(&t)).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.figure, "compare");
        assert_eq!(back.rows.len(), 2);
    }

    #[test]
    fn fig_table_rejects_non_tables() {
        assert!(parse_table(r#"{"rows":[{"x":1}]}"#).is_err());
        assert!(parse_table("{").is_err());
        // A perf-smoke report is not a figure table.
        assert!(parse_table(&render_report(&sample())).is_err());
    }

    #[test]
    fn num_formatting_is_canonical() {
        assert_eq!(fmt_num(3.0), "3");
        assert_eq!(fmt_num(-2.0), "-2");
        assert_eq!(fmt_num(0.8), "0.8");
        assert_eq!(fmt_num(2.25), "2.25");
        assert_eq!(fmt_num(1.0 / 3.0), "0.333333");
        assert_eq!(fmt_num(0.0), "0");
    }
}
