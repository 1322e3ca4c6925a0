//! The measured run of a workload: set-up probe, repeats of identical
//! work, output checks, the four end-to-end metrics.

use crate::metrics::{Metrics, END_TO_END};
use crate::plan::{rpc_plan, sim_parts, RpcPlan, Scale, SimPart, WorkloadId};
use crate::procfs::{allowed_cpus, peak_rss_mb, process_cpu_ns, steal_ns};
use crate::sim::{self, Fingerprint};
use crate::stats::{best_of, median};
use crate::udp::{self, EchoServer, NoProbe, Pair, RepeatOutcome};
use std::sync::Arc;
use std::time::Instant;

/// Fewest runs of the set-up section per benchmark run.
const MIN_SETUP_PROBES: usize = 9;
/// Most runs of the set-up section; cheap set-ups reach it.
const MAX_SETUP_PROBES: usize = 101;
/// Stop probing a slow set-up once the probes took this long in all.
const SETUP_PROBE_BUDGET_S: f64 = 1.5;

/// How many repeats a run makes.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Repeat until the measured time reaches this many seconds, and at
    /// least [`Budget::MIN_REPEATS`] times.
    Seconds(f64),
    /// Exactly this many repeats (`--check`).
    Repeats(usize),
}

impl Budget {
    /// Fewest repeats of a timed run: the first is cold, and the counts of
    /// the others are compared with it.
    pub const MIN_REPEATS: usize = 3;
    const MAX_REPEATS: usize = 64;

    /// Whether to start another repeat after `done` repeats took
    /// `elapsed_s` in all: yes while the next one, if it takes the mean so
    /// far, still ends within the budget.
    pub fn wants_more(self, done: usize, elapsed_s: f64) -> bool {
        match self {
            Budget::Repeats(n) => done < n,
            Budget::Seconds(s) => {
                done < Self::MIN_REPEATS
                    || (done < Self::MAX_REPEATS
                        && elapsed_s * (done + 1) as f64 / done as f64 <= s)
            }
        }
    }
}

/// Wall and process-CPU seconds of each repeat.
#[derive(Debug, Clone, Default)]
pub struct RepeatTimes {
    /// Wall seconds per repeat, less the time the hypervisor kept this
    /// process's CPUs from the guest during it (`steal` in `/proc/stat`).
    /// On a shared host that time runs to seconds per repeat and says
    /// nothing about the program. CPU time never includes it.
    pub wall_s: Vec<f64>,
    /// CPU seconds (user + system, every thread) per repeat.
    pub cpu_s: Vec<f64>,
    /// Seconds stolen during all repeats together.
    pub stolen_s: f64,
}

/// Run `body(repeat_index)` as the budget allows, timing each call.
pub fn repeat_timed(
    budget: Budget,
    mut body: impl FnMut(usize) -> Result<(), String>,
) -> Result<RepeatTimes, String> {
    let mut times = RepeatTimes::default();
    let mut elapsed = 0.0;
    let cpus = allowed_cpus();
    while budget.wants_more(times.wall_s.len(), elapsed) {
        let (cpu0, steal0) = (process_cpu_ns(), steal_ns(&cpus));
        let start = Instant::now();
        body(times.wall_s.len())?;
        let wall = start.elapsed().as_secs_f64();
        let steal = steal_ns(&cpus).saturating_sub(steal0) as f64 / 1e9;
        times.cpu_s.push(process_cpu_ns().saturating_sub(cpu0) as f64 / 1e9);
        times.wall_s.push((wall - steal).max(0.0));
        times.stolen_s += steal;
        elapsed += wall;
    }
    Ok(times)
}

/// Median wall seconds of repeated runs of a set-up section. A set-up
/// of a fraction of a millisecond is mostly thread creation and first
/// wake-ups, whose best case is a matter of luck; the median repeats.
pub fn median_setup(mut once: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(MAX_SETUP_PROBES);
    let mut total = 0.0;
    while times.len() < MIN_SETUP_PROBES
        || (times.len() < MAX_SETUP_PROBES && total < SETUP_PROBE_BUDGET_S)
    {
        let t = once()?;
        total += t;
        times.push(t);
    }
    Ok(median(&mut times).expect("at least MIN_SETUP_PROBES"))
}

/// The inputs of a workload, generated from the seed.
pub enum Inputs {
    /// Simulator scenarios.
    Sim(Vec<SimPart>),
    /// A udp request plan.
    Udp(RpcPlan),
}

impl Inputs {
    /// Generate the inputs of `id`.
    pub fn generate(id: WorkloadId, seed: u64, scale: Scale) -> Inputs {
        match rpc_plan(id, seed, scale) {
            Some(plan) => Inputs::Udp(plan),
            None => Inputs::Sim(sim_parts(id, seed, scale)),
        }
    }

    /// Messages (or RPCs) one repeat attempts.
    pub fn msgs_per_repeat(&self) -> u64 {
        match self {
            Inputs::Sim(parts) => parts.iter().map(|p| p.spec.messages).sum(),
            Inputs::Udp(plan) => plan.requests.len() as u64,
        }
    }

    /// Median wall seconds of the workload's set-up section.
    pub fn setup_s(&self) -> Result<f64, String> {
        match self {
            Inputs::Sim(parts) => median_setup(|| Ok(sim::setup_once(parts))),
            Inputs::Udp(_) => {
                median_setup(|| udp::setup_once().map_err(|e| format!("udp set-up: {e}")))
            }
        }
    }
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Messages or RPCs attempted in the measured repeats.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// The metric values.
    pub metrics: Metrics,
}

/// Run one pass of the simulator scenarios, check every result, and
/// compare its counts and simulated-time results with `first`'s.
pub fn checked_sim_pass(
    parts: &[SimPart],
    scale: Scale,
    first: &mut Vec<Fingerprint>,
    run: impl FnOnce(&[SimPart]) -> Vec<homa_harness::OnewayResult>,
) -> Result<Vec<homa_harness::OnewayResult>, String> {
    let results = run(parts);
    let prints: Vec<Fingerprint> = results.iter().map(Fingerprint::of).collect();
    for (part, res) in parts.iter().zip(&results) {
        sim::check_result(part, res)?;
        sim::check_baseline(part, scale, res.stats.events_processed)?;
    }
    if first.is_empty() {
        *first = prints;
    } else if *first != prints {
        return Err(format!("repeats disagree: {first:?} then {prints:?}"));
    }
    Ok(results)
}

/// The udp checks after the last repeat: nothing shed at the event
/// channels, the echo thread answered everything, both driver threads end.
pub fn finish_udp(pair: Pair, echo: EchoServer) -> Result<(), String> {
    let respond_errors = echo.stop();
    let dropped = pair.client.events_dropped() + pair.server.events_dropped();
    let stopped = pair.shutdown();
    if respond_errors != 0 {
        return Err(format!("{respond_errors} respond() calls failed"));
    }
    if dropped != 0 {
        return Err(format!("{dropped} events dropped at the event channels"));
    }
    if !stopped {
        return Err("driver threads did not stop".into());
    }
    Ok(())
}

/// The measured (untraced) run of workload `id`.
pub fn run_measured(
    id: WorkloadId,
    seed: u64,
    budget: Budget,
    scale: Scale,
) -> Result<Outcome, String> {
    let inputs = Inputs::generate(id, seed, scale);
    let setup_s = inputs.setup_s()?;
    let per_repeat = inputs.msgs_per_repeat();
    // The unit of work the time metrics are divided by: a simulated event
    // or an RPC. Events, not messages, for the simulator: the events a
    // message takes depend on the sizes the seed happened to draw (by
    // several percent over 4,800 W4 messages), the host time an event
    // takes does not.
    let (times, ops_per_repeat, attempted, failed, correct) = match &inputs {
        Inputs::Sim(parts) => {
            let mut first = Vec::new();
            let times = repeat_timed(budget, |_| {
                checked_sim_pass(parts, scale, &mut first, sim::run_pass).map(drop)
            })?;
            let attempted = per_repeat * times.wall_s.len() as u64;
            let events: u64 = first.iter().map(|f| f.events).sum();
            (times, events, attempted, 0, true)
        }
        Inputs::Udp(plan) => {
            let pair = Pair::bind().map_err(|e| format!("bind: {e}"))?;
            let echo = EchoServer::start(Arc::clone(&pair.server), plan.reply, Arc::new(NoProbe));
            let mut total = RepeatOutcome::default();
            let times = repeat_timed(budget, |rep| {
                total += udp::run_repeat(&pair, plan, rep as u64 * per_repeat, &NoProbe);
                Ok(())
            })?;
            finish_udp(pair, echo)?;
            let failed = total.failed + total.mismatched;
            (times, per_repeat, total.attempted, failed, total.mismatched == 0)
        }
    };
    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("setup_s", setup_s);
    metrics.set("wall_us_per_op", best_of(&times.wall_s) * 1e6 / ops_per_repeat as f64);
    metrics.set("cpu_us_per_op", best_of(&times.cpu_s) * 1e6 / ops_per_repeat as f64);
    metrics.set("peak_rss_mb", peak_rss_mb());
    eprintln!(
        "{}: seed {seed}, {} repeats of {per_repeat} messages ({ops_per_repeat} ops), \
         wall s/repeat {:.3?}, cpu s/repeat {:.3?}, {:.2} s stolen",
        id.name(),
        times.wall_s.len(),
        times.wall_s,
        times.cpu_s,
        times.stolen_s
    );
    Ok(Outcome { correct, attempted, failed, metrics })
}
