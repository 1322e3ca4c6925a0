//! The metric registry: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! names (a unit test compares the two), and a run that sets a name not
//! registered here panics.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name: letters, digits, `_`, `.`, `-`; starts with a letter or digit.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: Some(bound) }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: None }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: None }
}

/// The end-to-end metrics, printed by an untraced run of every workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", 0.25),
    e2e("wall_us_per_op", "us", 0.25),
    e2e("cpu_us_per_op", "us", 0.25),
    e2e("peak_rss_mb", "MB", 0.25),
];

/// The per-layer metrics, printed by a traced run of every workload. A
/// metric that does not apply to the workload reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // What a user of the simulator or the node sees, on the workloads
    // that have it (they cannot be end-to-end: that list is common to
    // all workloads and may hold no zeros).
    lo("sim_slowdown_p50", "ratio"),
    lo("sim_slowdown_p99", "ratio"),
    lo("sim_small_slowdown_p99", "ratio"),
    hi("sim_goodput_gbps", "Gbit/s"),
    lo("rtt_p50_us", "us"),
    // workloads
    lo("workloads.arrival_ns_per_msg", "ns"),
    // harness
    lo("harness.self_us_per_msg", "us"),
    lo("harness.events_per_msg", "count"),
    // sim::network
    lo("sim.network.self_ns_per_event", "ns"),
    lo("sim.network.events", "count"),
    lo("sim.network.run_calls", "count"),
    lo("sim.network.build_us", "us"),
    lo("sim.network.fault_drops", "count"),
    lo("sim.network.deferred_deliveries", "count"),
    // sim::events
    lo("sim.events.churn_ns_per_op", "ns"),
    lo("sim.events.late_frac", "ratio"),
    lo("sim.events.far_frac", "ratio"),
    lo("sim.events.max_epoch_events", "count"),
    lo("sim.events.model_share", "ratio"),
    // sim::queues
    lo("sim.queues.strict_ns_per_pkt", "ns"),
    lo("sim.queues.pfabric_ns_per_pkt", "ns"),
    lo("sim.queues.ndp_ns_per_pkt", "ns"),
    lo("sim.queues.drops", "count"),
    lo("sim.queues.trims", "count"),
    lo("sim.queues.max_bytes_tor_down", "bytes"),
    lo("sim.queues.model_share", "ratio"),
    // transports, through the simulator's `Transport` trait
    lo("transport.on_packet_ns", "ns"),
    lo("transport.next_packet_ns", "ns"),
    lo("transport.on_timer_ns", "ns"),
    lo("transport.inject_ns", "ns"),
    lo("transport.on_packet_calls", "count"),
    lo("transport.next_packet_calls", "count"),
    lo("transport.on_timer_calls", "count"),
    lo("transport.inject_calls", "count"),
    lo("transport.share", "ratio"),
    lo("transport.cost_growth", "ratio"),
    // baselines: the sub-scenarios of `sim_mix_baselines`
    lo("baselines.pfabric.cpu_us_per_msg", "us"),
    lo("baselines.phost.cpu_us_per_msg", "us"),
    lo("baselines.pias.cpu_us_per_msg", "us"),
    lo("baselines.ndp.cpu_us_per_msg", "us"),
    lo("baselines.incast_flap.cpu_us_per_msg", "us"),
    lo("baselines.pfabric.slowdown_p99", "ratio"),
    lo("baselines.phost.slowdown_p99", "ratio"),
    lo("baselines.pias.slowdown_p99", "ratio"),
    lo("baselines.ndp.slowdown_p99", "ratio"),
    lo("baselines.incast_flap.slowdown_p99", "ratio"),
    // core: `HomaEndpoint` alone
    lo("core.endpoint_ns_per_pkt", "ns"),
    lo("core.endpoint_us_per_rpc", "us"),
    lo("core.pkts_per_rpc", "count"),
    lo("core.grants_per_msg", "count"),
    lo("core.resends", "count"),
    lo("core.outbound_peak", "count"),
    // wire codec
    lo("wire.encode_data_ns", "ns"),
    lo("wire.decode_data_ns", "ns"),
    lo("wire.encode_ctrl_ns", "ns"),
    lo("wire.decode_ctrl_ns", "ns"),
    lo("wire.allocs_per_pkt", "count"),
    // udp node
    lo("udp.call_us", "us"),
    lo("udp.respond_us", "us"),
    lo("udp.req_leg_p50_us", "us"),
    lo("udp.resp_leg_p50_us", "us"),
    lo("udp.rtt_p99_us", "us"),
    lo("udp.rtt_p999_us", "us"),
    lo("udp.driver_cpu_us_per_msg", "us"),
    lo("udp.app_cpu_us_per_msg", "us"),
    lo("udp.sys_cpu_frac", "ratio"),
    hi("udp.goodput_mbps", "Mbit/s"),
    lo("udp.slow_rpcs", "count"),
    lo("udp.events_dropped", "count"),
    lo("udp.aborted", "count"),
    lo("udp.out_payloads_end", "count"),
    lo("udp.self_us_per_msg", "us"),
    // heap, from the counting allocator of the traced binary
    lo("alloc.count_per_msg", "count"),
    lo("alloc.bytes_per_msg", "bytes"),
    lo("alloc.heap_peak_mb", "MB"),
    lo("alloc.count_per_event", "count"),
    // how far to trust the row
    lo("bench.trace_overhead_frac", "ratio"),
    lo("bench.repeat_spread", "ratio"),
    lo("bench.canary_ns", "ns"),
    lo("bench.warmup_s", "s"),
];

/// The rule for metric and workload names: at most 64 letters, digits,
/// `_`, `.` and `-`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Values for one of the two metric lists. Every listed metric starts at
/// 0 ("does not apply"); setting an unlisted name panics.
#[derive(Debug, Clone)]
pub struct Metrics {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// All of `defs`, at 0.
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Metrics { defs, values: defs.iter().map(|d| (d.name, 0.0)).collect() }
    }

    /// Record `value` under `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.values.get_mut(name) {
            Some(slot) => *slot = value,
            None => panic!("metric {name} is not registered in metrics.rs"),
        }
    }

    /// The value recorded under `name` (0 if never set).
    pub fn get(&self, name: &str) -> f64 {
        *self.values.get(name).unwrap_or_else(|| panic!("metric {name} is not registered"))
    }

    /// `(definition, value)` in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().map(|d| (d, self.values[d.name]))
    }

    /// A table for people, one metric per line.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (d, v) in self.iter() {
            let _ = writeln!(out, "  {:<40} {:>16} {}", d.name, fmt_value(v), d.unit);
        }
        out
    }
}

/// A number as measured, with all its digits, in a form JSON accepts.
pub fn fmt_value(v: f64) -> String {
    assert!(v.is_finite(), "JSON has no NaN or infinity");
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// The result line the driver reads: one JSON object with exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`.
pub fn render_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (d, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            fmt_value(v),
            d.unit
        );
    }
    out.push_str("}}");
    out
}

/// Read back the `name → value` pairs of a [`render_result`] line (the
/// A/A mode parses its child runs with it). `None` if `line` is not one.
pub fn parse_result_values(line: &str) -> Option<BTreeMap<String, f64>> {
    let body = line.trim().strip_prefix("{\"correct\": true,")?;
    let mut out = BTreeMap::new();
    let metrics = &body[body.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    for part in metrics.split("\"unit\"") {
        // Each part ends with `"<name>": {"value": <number>, `.
        let Some(vpos) = part.rfind("{\"value\": ") else { continue };
        let value = part[vpos + "{\"value\": ".len()..].trim_end_matches([',', ' ']);
        let head = part[..vpos].trim_end().strip_suffix(':')?;
        let name = head.rsplit('"').nth(1)?;
        out.insert(name.to_string(), value.parse().ok()?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_rule_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(seen.insert(d.name), "metric {} listed twice", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "bad unit for {}", d.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn name_rule() {
        for ok in ["setup_s", "sim.network.self_ns_per_event", "9p", "a-b"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "µs", "a/b", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_round_trips() {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 0.012_345_678_9);
        m.set("wall_us_per_op", 799.0);
        let line = render_result(true, 4800, 0, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4800, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0123456789, \"unit\": \"s\"}"));
        assert!(line.contains("\"wall_us_per_op\": {\"value\": 799, \"unit\": \"us\"}"));
        assert!(!line.contains('\n'));
        let back = parse_result_values(&line).expect("parses");
        assert_eq!(back.len(), END_TO_END.len());
        assert_eq!(back["setup_s"], 0.012_345_678_9);
        assert_eq!(back["peak_rss_mb"], 0.0);
        assert_eq!(parse_result_values("{\"correct\": false, ...}"), None);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_metric_is_refused() {
        Metrics::new(END_TO_END).set("rtt_p50_us", 1.0);
    }

    /// `BENCHMARK.json` and this registry must name the same metrics with
    /// the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> String {
            let start = json.find(&format!("\"{key}\": [")).unwrap_or_else(|| panic!("no {key}"));
            let rest = &json[start..];
            rest[..rest.find(']').expect("closing bracket")].to_string()
        };
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let sec = section(key);
            assert_eq!(sec.matches("\"name\"").count(), defs.len(), "{key} length");
            for d in defs {
                let mut want = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    d.name,
                    d.unit,
                    match d.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    }
                );
                if let Some(b) = d.bound {
                    let _ = write!(want, ", \"bound\": {b}");
                }
                want.push('}');
                assert!(sec.contains(&want), "BENCHMARK.json {key} lacks {want}");
            }
        }
    }
}
