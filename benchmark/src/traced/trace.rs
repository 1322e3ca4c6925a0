//! Spans kept in memory during a traced run and written out at its end:
//! aggregates per (layer, function, repeat) and a 1-in-1,024 sample of
//! individual spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// One individual span of the sample.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The function the span covers.
    pub function: &'static str,
    /// Start, nanoseconds after the run's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Count and total time of the spans of one function.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    /// Spans recorded.
    pub count: u64,
    /// Their durations, summed.
    pub total_ns: u64,
}

/// Keep one individual span in this many.
pub const KEEP_EVERY: u64 = 1_024;

/// The spans of one layer in one repeat.
#[derive(Debug, Clone)]
pub struct SpanSink {
    /// The layer (crate or module) the functions belong to.
    pub layer: &'static str,
    /// Which repeat of the run.
    pub repeat: u32,
    /// The span that contains these: the function of the benchmark that
    /// called into the layer.
    pub parent: &'static str,
    /// Aggregates by function.
    pub by_function: BTreeMap<&'static str, Aggregate>,
    /// The sampled individual spans.
    pub sample: Vec<Span>,
}

impl SpanSink {
    /// An empty sink for `layer`.
    pub fn new(layer: &'static str, repeat: u32) -> Self {
        SpanSink {
            layer,
            repeat,
            parent: "Network::run",
            by_function: BTreeMap::new(),
            sample: Vec::new(),
        }
    }

    /// The same sink under another parent span.
    pub fn with_parent(mut self, parent: &'static str) -> Self {
        self.parent = parent;
        self
    }

    /// Record one span; `ordinal` is its number among the spans of its
    /// function, which decides whether it joins the sample.
    pub fn record(&mut self, function: &'static str, start_ns: u64, dur_ns: u64, ordinal: u64) {
        let a = self.by_function.entry(function).or_default();
        a.count += 1;
        a.total_ns += dur_ns;
        if ordinal.is_multiple_of(KEEP_EVERY) {
            self.sample.push(Span { function, start_ns, dur_ns });
        }
    }
}

/// Where the trace of `workload` goes: `out/` beside this package's
/// manifest, inside the checkout.
pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("{workload}.trace.json"))
}

/// Write the trace file: the run's metrics, the reconciliation rows and
/// every sink.
pub fn write_trace(
    workload: &str,
    seed: u64,
    metrics_json: &str,
    reconciliation: &[(String, f64)],
    sinks: &[SpanSink],
) -> std::io::Result<PathBuf> {
    let mut out = String::new();
    let _ = write!(out, "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n");
    let _ = writeln!(out, "  \"result\": {metrics_json},");
    out.push_str("  \"reconciliation_us_per_msg\": {");
    for (i, (name, v)) in reconciliation.iter().enumerate() {
        let _ = write!(out, "{}\"{name}\": {v}", if i == 0 { "" } else { ", " });
    }
    out.push_str("},\n  \"aggregates\": [\n");
    let mut first = true;
    for s in sinks {
        for (f, a) in &s.by_function {
            let _ = write!(
                out,
                "{}    {{\"layer\": \"{}\", \"function\": \"{f}\", \"repeat\": {}, \"count\": {}, \"total_ns\": {}, \"parent\": \"{}\"}}",
                if first { "" } else { ",\n" },
                s.layer, s.repeat, a.count, a.total_ns, s.parent
            );
            first = false;
        }
    }
    out.push_str("\n  ],\n  \"sampled_spans\": [\n");
    let mut first = true;
    for s in sinks {
        for sp in &s.sample {
            let _ = write!(
                out,
                "{}    {{\"layer\": \"{}\", \"function\": \"{}\", \"repeat\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
                if first { "" } else { ",\n" },
                s.layer, sp.function, s.repeat, sp.start_ns, sp.dur_ns
            );
            first = false;
        }
    }
    out.push_str("\n  ]\n}\n");
    let path = trace_path(workload);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, out)?;
    Ok(path)
}
