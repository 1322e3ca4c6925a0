//! The `repro trace` subcommand: replay a scenario spec line with the
//! flight recorder enabled and summarize what the fabric did.
//!
//! Three artifacts per run:
//!
//! * `TRACE.jsonl` — the raw trace, one JSON object per line in global
//!   `(time, seq)` order (byte-identical run to run).
//! * A per-priority TOR-downlink utilization table over the whole run —
//!   the receiver-side view the paper's Figures 9/21 reason about:
//!   scheduled traffic concentrates on the low priority levels,
//!   unscheduled on the high ones.
//! * A message-lifecycle summary: where delivered messages spent their
//!   time (switch queueing vs serialization) and how much grant/resend
//!   traffic drove them — the trace-level analogue of Figure 10's
//!   queueing breakdown.
//!
//! Everything here is a pure fold over the recorded trace; nothing feeds
//! back into the simulation, so a traced run delivers the same messages
//! at the same times as an untraced one.

use crate::{run_protocol_scenario, Protocol};
use homa_harness::driver::OnewayOpts;
use homa_harness::ScenarioSpec;
use homa_sim::queues::LEVELS;
use homa_sim::trace::{render_jsonl, summarize_messages};
use homa_sim::{MsgLifecycle, NodeId, SimTime, TraceEvent, TraceRecord};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Output of one traced run.
pub struct TraceRun {
    /// Canonical JSONL trace, one record per line.
    pub jsonl: String,
    /// Records in the trace (post-eviction).
    pub kept: usize,
    /// Oldest records evicted by the ring (0 = complete trace).
    pub dropped: u64,
    /// Human-readable utilization + lifecycle report.
    pub report: String,
}

/// How many of the slowest lifecycles the report lists individually.
const SLOWEST: usize = 5;

/// Run `spec` for protocol `p` with the flight recorder capped at `cap`
/// records, and fold the trace into the run's artifacts.
pub fn trace_run(p: Protocol, spec: &ScenarioSpec, cap: usize) -> TraceRun {
    let mut opts = OnewayOpts::default().with_trace();
    opts.trace_cap = cap;
    let res = run_protocol_scenario(p, spec, &opts, None);

    let jsonl = render_jsonl(&res.trace);
    let mut rep = String::new();
    let _ = writeln!(rep, "=== trace: {} ===", spec.to_spec_line());
    let _ = writeln!(
        rep,
        "protocol {}; injected {}, delivered {}; trace records {} ({} dropped)",
        p.name(),
        res.injected,
        res.delivered,
        res.trace.len(),
        res.trace_dropped,
    );
    let g = &res.stats.grants;
    let _ = writeln!(
        rep,
        "grants: {} issued, {} bytes credit; resends requested: {}",
        g.grants_issued, g.granted_bytes, g.resends_requested
    );

    let (util, ports) =
        tor_downlink_utilization(&res.trace, spec.topology().hosts_per_rack, res.duration);
    rep.push('\n');
    let _ = writeln!(
        rep,
        "TOR-downlink utilization by priority (over {:.3}ms, {ports} active ports)",
        res.duration.as_nanos() as f64 / 1e6,
    );
    let _ = writeln!(rep, "  prio  util");
    for (prio, u) in util.iter().enumerate() {
        let _ = writeln!(rep, "  P{prio}    {u:.4}");
    }
    let _ = writeln!(rep, "  all   {:.4}", util.iter().sum::<f64>());

    // Message lifecycles: only messages that completed inside the trace
    // contribute to the time breakdowns.
    let lifecycles = summarize_messages(&res.trace);
    let done: Vec<&MsgLifecycle> = lifecycles.iter().filter(|l| l.delivered.is_some()).collect();
    rep.push('\n');
    let _ = writeln!(
        rep,
        "message lifecycles ({} started, {} delivered in-trace)",
        lifecycles.len(),
        done.len()
    );
    if !done.is_empty() {
        let n = done.len() as f64;
        let lat: Vec<u64> =
            done.iter().map(|l| l.latency().map(|d| d.as_nanos()).unwrap_or(0)).collect();
        let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / n / 1_000.0;
        let max = |xs: &[u64]| xs.iter().copied().max().unwrap_or(0) as f64 / 1_000.0;
        let queued: Vec<u64> = done.iter().map(|l| l.queued_ns).collect();
        let tx: Vec<u64> = done.iter().map(|l| l.tx_ns).collect();
        let _ = writeln!(rep, "  latency:  mean {:9.2}us  max {:9.2}us", mean(&lat), max(&lat));
        let _ =
            writeln!(rep, "  queueing: mean {:9.2}us  max {:9.2}us", mean(&queued), max(&queued));
        let _ = writeln!(rep, "  tx:       mean {:9.2}us  max {:9.2}us", mean(&tx), max(&tx));
        let _ = writeln!(
            rep,
            "  grants/msg: mean {:.2}   resends/msg: mean {:.2}",
            done.iter().map(|l| l.grants as u64).sum::<u64>() as f64 / n,
            done.iter().map(|l| l.resends as u64).sum::<u64>() as f64 / n,
        );
        let mut slowest = done.clone();
        slowest.sort_by_key(|l| std::cmp::Reverse(l.latency().map(|d| d.as_nanos()).unwrap_or(0)));
        let _ = writeln!(rep, "  slowest {} by latency:", SLOWEST.min(slowest.len()));
        let _ =
            writeln!(rep, "    src    dst    len        latency     queued      tx        grants");
        for l in slowest.iter().take(SLOWEST) {
            let _ = writeln!(
                rep,
                "    h{:<5} h{:<5} {:<10} {:>9.2}us {:>9.2}us {:>9.2}us {:>4}",
                l.src.0,
                l.dst.0,
                l.len,
                l.latency().map(|d| d.as_nanos()).unwrap_or(0) as f64 / 1_000.0,
                l.queued_ns as f64 / 1_000.0,
                l.tx_ns as f64 / 1_000.0,
                l.grants,
            );
        }
    }

    TraceRun { jsonl, kept: res.trace.len(), dropped: res.trace_dropped, report: rep }
}

/// Busy fraction by priority of the TOR→host downlinks (ports
/// `0..hosts_per_rack` of every TOR) over `[0, end)`, and how many of them
/// transmitted: each `TxStart`'s serialization time, cut at `end`, summed
/// per priority and divided by active ports × `end`.
fn tor_downlink_utilization(
    records: &[TraceRecord],
    hosts_per_rack: u32,
    end: SimTime,
) -> ([f64; LEVELS], usize) {
    let end = end.as_nanos();
    let mut busy = [0u64; LEVELS];
    let mut ports = HashSet::new();
    for r in records {
        let TraceEvent::TxStart { node: node @ NodeId::Tor(_), port, prio, dur_ns, .. } = r.ev
        else {
            continue;
        };
        if port < hosts_per_rack {
            ports.insert((node, port));
            let start = r.at.as_nanos();
            busy[prio as usize] += (start + dur_ns).min(end).saturating_sub(start);
        }
    }
    let link_ns = (ports.len() as u64 * end).max(1) as f64;
    (busy.map(|b| b as f64 / link_ns), ports.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use homa_harness::FabricSpec;
    use homa_sim::queues::EnqueueOutcome;
    use homa_sim::{FlightRecorder, HostId};
    use homa_workloads::Workload;

    fn tx(at: u64, node: NodeId, port: u32, prio: u8, dur_ns: u64) -> TraceRecord {
        let (src, dst) = (HostId(0), HostId(1));
        let ev = TraceEvent::TxStart { node, port, src, dst, prio, bytes: 0, dur_ns };
        TraceRecord { at: SimTime::from_nanos(at), ev }
    }

    #[test]
    fn utilization_folds_downlink_transmissions_over_the_run() {
        let enqueue = TraceEvent::Enqueue {
            node: NodeId::Tor(1),
            port: 0,
            src: HostId(0),
            dst: HostId(1),
            prio: 2,
            bytes: 1_000,
            qpkts: 1,
            qbytes: 1_000,
            outcome: EnqueueOutcome::Accepted,
        };
        let recs = [
            tx(0, NodeId::Tor(0), 0, 7, 100),
            // A queue record adds no busy time.
            TraceRecord { at: SimTime::from_nanos(50), ev: enqueue },
            // Port 4 of a TOR with four hosts is an uplink; a host's own
            // port is no TOR downlink.
            tx(100, NodeId::Tor(0), 4, 7, 500),
            tx(100, NodeId::Host(HostId(0)), 0, 7, 500),
            // Crosses the end of the run at 1,000 ns: 150 of 300 ns count.
            tx(850, NodeId::Tor(1), 3, 0, 300),
        ];
        let (util, ports) = tor_downlink_utilization(&recs, 4, SimTime::from_nanos(1_000));
        assert_eq!(ports, 2);
        assert_eq!(util, [0.075, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.05]);
        assert_eq!(tor_downlink_utilization(&recs[1..4], 4, SimTime::from_nanos(1_000)).1, 0);
    }

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec::new(
            "trace_tiny",
            FabricSpec::MultiTor { hosts: 16 },
            Workload::W2,
            0.5,
            60,
            42,
        )
    }

    #[test]
    fn traced_run_produces_jsonl_and_report() {
        let tr = trace_run(Protocol::Homa, &tiny_spec(), FlightRecorder::DEFAULT_CAP);
        assert_eq!(tr.dropped, 0, "tiny run must fit the ring");
        assert!(tr.kept > 0, "trace must not be empty");
        assert_eq!(tr.jsonl.lines().count(), tr.kept);
        // Every line is a flat JSON object with a time and an event tag.
        for line in tr.jsonl.lines().take(50) {
            assert!(line.starts_with("{\"t\":"), "bad line {line:?}");
            assert!(line.contains("\"ev\":"), "bad line {line:?}");
            assert!(line.ends_with('}'), "bad line {line:?}");
        }
        assert!(tr.report.contains("TOR-downlink utilization by priority"));
        assert!(tr.report.contains("message lifecycles"));
        assert!(tr.report.contains("delivered in-trace"));
    }

    #[test]
    fn tracing_does_not_change_the_run() {
        // The flight recorder must be observation-only: same spec, traced
        // and untraced, delivers the same messages over the same fabric
        // trajectory (event count is the fingerprint).
        let spec = tiny_spec();
        let traced =
            run_protocol_scenario(Protocol::Homa, &spec, &OnewayOpts::default().with_trace(), None);
        let plain = run_protocol_scenario(Protocol::Homa, &spec, &OnewayOpts::default(), None);
        assert_eq!(traced.delivered, plain.delivered);
        assert_eq!(traced.stats.events_processed, plain.stats.events_processed);
        assert_eq!(traced.duration, plain.duration);
        assert!(!traced.trace.is_empty());
        assert!(plain.trace.is_empty());
    }
}
