//! The workspace's one randomized-testing kit: a seedable generator
//! ([`SplitMix64`]), one loop with iteration scaling, failure artifacts
//! and replay ([`FuzzFamily`]), greedy shrinking
//! ([`shrink_to_minimal_with`]) and panic capture ([`failure_or_panic`]).
//!
//! Two kinds of family run on it. *Seed-keyed* properties (the core,
//! simulator-kernel, cross-crate and UDP read-split properties) build their whole input
//! from one `u64` seed and run under [`FuzzFamily::check_seeds`]; a
//! failure is the line `seed=<n>`, which fails by itself. *Line-keyed*
//! families draw something printable — a [`ScenarioSpec`], an op trace, a
//! mutated spec line — shrink it, and report the shrunk line. Either way
//! `HOMA_FUZZ_REPLAY='<family>:<line>'` re-runs exactly that case in the
//! family named and nowhere else.
//!
//! The conservation fuzzer (`tests/fuzz_conservation.rs`) and the
//! spec-grammar mutator draw whole scenarios from
//! [`ScenarioSpec::arbitrary`]: a seeded, bounded walk over the fabric ×
//! workload × load × traffic × fault space. Because every run here is a
//! pure function of its spec, a failing draw is fully captured by its
//! [`ScenarioSpec::to_spec_line`] string — the harness shrinks the spec
//! with [`shrink_to_minimal`] and prints that line for exact replay. A
//! run that trips a debug-build invariant (the event-order oracle in
//! `homa_sim::events`, the run core's delivery contract in
//! [`crate::driver`], a `debug_assert!` in the fabric) counts as a
//! failure like any other: [`failure_or_panic`] turns the panic into a
//! detail string, so it shrinks and replays the same way.
//!
//! Generation is deliberately conservative about validity: fault events
//! only ever name hosts that exist on the drawn fabric. The goal is for
//! *every* generated spec to be a legal run, so any panic or divergence
//! the fuzzers see is a real bug, not a generator artifact.

use crate::driver;
use crate::scenario::{FabricSpec, ScenarioSpec};
use homa_sim::{resolve_fault, Fault, FaultPlan, HostId, LinkId};
use homa_workloads::{TrafficSpec, Workload};

/// The randomized-testing generator, written beside the simulation's own
/// in [`homa_sim::rng`].
pub use homa_sim::SplitMix64;

pub mod grammar;
pub mod stateful;

/// All workloads, in index order, for seeded selection.
const WORKLOADS: [Workload; 5] =
    [Workload::W1, Workload::W2, Workload::W3, Workload::W4, Workload::W5];

/// Message budget for a drawn workload: heavy-tailed distributions get
/// fewer messages so a single fuzz iteration stays in the tens of
/// milliseconds even on the larger fabrics.
fn message_budget(rng: &mut SplitMix64, wl: Workload) -> u64 {
    match wl {
        Workload::W1 => rng.range(120, 300),
        Workload::W2 => rng.range(100, 240),
        Workload::W3 => rng.range(80, 180),
        Workload::W4 => rng.range(50, 120),
        Workload::W5 => rng.range(24, 48),
    }
}

fn arbitrary_fabric(rng: &mut SplitMix64) -> FabricSpec {
    match rng.below(3) {
        0 => FabricSpec::SingleSwitch { hosts: rng.range(4, 12) as u32 },
        1 => FabricSpec::LeafSpine {
            racks: rng.range(2, 3) as u32,
            hosts_per_rack: rng.range(4, 6) as u32,
            spines: rng.range(1, 2) as u32,
        },
        _ => FabricSpec::MultiTor { hosts: [16, 24, 32][rng.below(3) as usize] },
    }
}

fn arbitrary_traffic(rng: &mut SplitMix64) -> TrafficSpec {
    if rng.chance(1, 2) {
        TrafficSpec::uniform()
    } else {
        TrafficSpec::incast(rng.range(2, 8) as u32)
    }
}

/// The simulated time a one-way run of `spec` takes, on average, to
/// inject its messages: `messages` mean interarrival gaps of its load plan.
fn arrival_span_ns(spec: &ScenarioSpec) -> u64 {
    let plan = driver::oneway_plan(spec, &spec.topology(), &spec.workload.dist());
    (spec.messages as f64 * plan.mean_interarrival_secs() * 1e9) as u64
}

/// Fault plans are drawn from the whole vocabulary — uplink and downlink
/// flaps, receiver pauses, host-link rate limits. Every instant, a
/// fault's end included, falls in the first half of the spec's arrival
/// span: a run lasts at least until its last arrival, and Poisson jitter
/// puts that before half the span only with negligible odds, so the whole
/// plan applies.
fn arbitrary_faults(rng: &mut SplitMix64, spec: &ScenarioSpec) -> FaultPlan {
    let mut plan = FaultPlan::new();
    if !rng.chance(45, 100) {
        return plan;
    }
    let half_span = (arrival_span_ns(spec) / 2).max(2);
    for _ in 0..rng.range(1, 3) {
        let host = HostId(rng.below(spec.fabric.hosts() as u64) as u32);
        let at = rng.below(half_span - 1);
        let end = rng.range(at + 1, half_span - 1);
        match rng.below(4) {
            0 => {
                let link = if rng.chance(1, 2) {
                    LinkId::HostUplink(host)
                } else {
                    LinkId::HostDownlink(host)
                };
                plan = plan.at(at, Fault::LinkDown(link)).at(end, Fault::LinkUp(link));
            }
            1 => plan = plan.receiver_pause(host, at, end),
            2 => {
                let link = LinkId::HostUplink(host);
                plan = plan.rate_limit(link, at, end, rng.range(500_000_000, 4_000_000_000));
            }
            _ => {
                let link = LinkId::HostDownlink(host);
                plan = plan
                    .at(at, Fault::RateLimit { link, bps: rng.range(500_000_000, 4_000_000_000) })
                    .at(end, Fault::RateRestore(link));
            }
        }
    }
    plan
}

impl ScenarioSpec {
    /// A seeded, bounded random scenario: every draw is a legal run on
    /// its own fabric, and the whole spec (including `spec.seed`, set to
    /// the generator seed) is determined by `seed`. Used by the fuzz
    /// suites; `HOMA_FUZZ_ITERS` scales how many draws they take.
    pub fn arbitrary(seed: u64) -> ScenarioSpec {
        let mut rng = SplitMix64::new(seed);
        let fabric = arbitrary_fabric(&mut rng);
        let workload = WORKLOADS[rng.below(5) as usize];
        let messages = message_budget(&mut rng, workload);
        let load = rng.range(6, 15) as f64 / 20.0; // 0.30..=0.75 in 0.05 steps
        let traffic = arbitrary_traffic(&mut rng);
        let spec =
            ScenarioSpec::new(format!("fuzz_{seed:016x}"), fabric, workload, load, messages, seed)
                .with_traffic(traffic);
        let faults = arbitrary_faults(&mut rng, &spec);
        spec.with_faults(faults)
    }

    /// Candidate simplifications of this spec, most aggressive first:
    /// halve the message count, step the fabric down a size class, drop
    /// fault events one at a time, and finally flatten the pattern to
    /// uniform. Each candidate is itself a legal spec, so
    /// [`shrink_to_minimal`] can greedily walk this list while a failure
    /// predicate still fires.
    pub fn shrink(&self) -> Vec<ScenarioSpec> {
        let mut out = Vec::new();
        if self.messages > 24 {
            out.push(self.clone().with_messages(self.messages / 2));
        }
        if let Some(smaller) = shrink_fabric(self.fabric) {
            out.push(refit(self.clone(), smaller));
        }
        if !self.faults.is_empty() {
            for drop in 0..self.faults.events.len() {
                let mut plan = self.faults.clone();
                plan.events.remove(drop);
                out.push(self.clone().with_faults(plan));
            }
        }
        if !self.traffic.is_default() {
            out.push(self.clone().with_traffic(TrafficSpec::uniform()));
        }
        // A smaller fabric may leave an RPC spec without a server.
        out.retain(|spec| spec.check_shape().is_ok());
        out
    }
}

/// One size-class step down, terminating at `SingleSwitch { hosts: 4 }`.
fn shrink_fabric(f: FabricSpec) -> Option<FabricSpec> {
    match f {
        FabricSpec::Paper => Some(FabricSpec::MultiTor { hosts: 16 }),
        FabricSpec::MultiTor { hosts } if hosts > 16 => Some(FabricSpec::MultiTor { hosts: 16 }),
        FabricSpec::MultiTor { .. } => {
            Some(FabricSpec::LeafSpine { racks: 2, hosts_per_rack: 4, spines: 1 })
        }
        FabricSpec::LeafSpine { .. } => Some(FabricSpec::SingleSwitch { hosts: 8 }),
        FabricSpec::SingleSwitch { hosts } if hosts > 4 => {
            Some(FabricSpec::SingleSwitch { hosts: (hosts / 2).max(4) })
        }
        FabricSpec::SingleSwitch { .. } => None,
    }
}

/// Move `spec` onto a smaller fabric, dropping any fault event that names
/// a host the new fabric doesn't have.
fn refit(spec: ScenarioSpec, fabric: FabricSpec) -> ScenarioSpec {
    let topo = fabric.topology();
    let mut faults = spec.faults.clone();
    faults.events.retain(|&(_, f)| resolve_fault(&topo, f).is_ok());
    let mut out = spec;
    out.fabric = fabric;
    out.with_faults(faults)
}

/// Greedily shrink `initial` while `fails` keeps returning true, taking
/// the first failing candidate produced by `candidates` at each step.
/// Deterministic: the same input, candidate function and predicate
/// always land on the same minimum, and the result is locally minimal —
/// no single candidate of the returned value still fails. All three
/// fuzz shrinkers (scenario specs, op traces, mutated spec lines) are
/// thin wrappers over this loop.
pub fn shrink_to_minimal_with<T: Clone>(
    initial: &T,
    candidates: impl Fn(&T) -> Vec<T>,
    mut fails: impl FnMut(&T) -> bool,
) -> T {
    let mut current = initial.clone();
    'outer: loop {
        for candidate in candidates(&current) {
            if fails(&candidate) {
                current = candidate;
                continue 'outer;
            }
        }
        return current;
    }
}

/// Greedily shrink `spec` while `fails` keeps returning true, taking
/// the first failing candidate at each step. Deterministic: the same
/// spec and predicate always shrink to the same minimal spec. The
/// predicate is re-run once per accepted candidate, so the cost is
/// `O(steps × candidates)` runs of the scenario.
pub fn shrink_to_minimal(
    spec: &ScenarioSpec,
    fails: impl FnMut(&ScenarioSpec) -> bool,
) -> ScenarioSpec {
    shrink_to_minimal_with(spec, ScenarioSpec::shrink, fails)
}

/// Run `f`, turning a panic inside it into `Err(panic message)`, so
/// "never panics" is checkable and shrinkable like any other failure.
/// Every fuzz check builds and drops its own state, so nothing broken is
/// observable after the catch. The panic hook still prints each message
/// to stderr as it happens.
fn catch_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// Run a scenario-level fuzz predicate (`Some(detail)` = failed) with a
/// panic counted as a failure. This is what lets a debug-invariant panic
/// — `engine diverged at t=…`, a priority inversion, an event in the
/// past — shrink to a one-line replay spec instead of aborting the fuzz
/// loop at the first hit.
pub fn failure_or_panic(check: impl FnOnce() -> Option<String>) -> Option<String> {
    catch_panic(check).unwrap_or_else(|msg| Some(format!("panicked: {msg}")))
}

/// The iteration budget `HOMA_FUZZ_ITERS` asks for (`raw` is its value),
/// or `default` when it is unset. A value that is not a number panics:
/// read as "unset", a typo in CI's `500` would quietly run the default
/// and stay green.
fn parse_iters(raw: Option<&str>, default: u64) -> u64 {
    let Some(raw) = raw else { return default };
    raw.trim().parse().unwrap_or_else(|e| panic!("HOMA_FUZZ_ITERS=`{raw}` is not a count: {e}"))
}

/// Append `entry` to `<dir>/<family>.txt`, creating both as needed. The
/// error names the path, so a CI artifact that went missing says why.
fn append_failure(dir: &str, family: &str, entry: &str) -> Result<(), String> {
    use std::io::Write as _;
    let path = std::path::Path::new(dir).join(format!("{family}.txt"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::OpenOptions::new().create(true).append(true).open(&path))
        .and_then(|mut f| writeln!(f, "{entry}"))
        .map_err(|e| format!("failure artifact {} not written: {e}", path.display()))
}

/// Record a fuzz failure: always printed to stderr, and appended to
/// `$HOMA_FUZZ_FAILURE_DIR/<family>.txt` when that variable is set (CI
/// uploads the directory as an artifact). Each line is a replayable
/// line followed by ` # <detail>`.
fn report_failure(family: &str, line: &str, detail: &str) {
    eprintln!("[{family}] FUZZ FAILURE — replay with:\n  {line}\n  ({detail})");
    if let Ok(dir) = std::env::var("HOMA_FUZZ_FAILURE_DIR") {
        if let Err(e) = append_failure(&dir, family, &format!("{line} # {detail}")) {
            eprintln!("[{family}] {e}");
        }
    }
}

/// One fuzz family: its name, and with it the conventions every family
/// follows. The name is the artifact file
/// (`$HOMA_FUZZ_FAILURE_DIR/<name>.txt`) and the prefix that addresses a
/// replay line to this family (`HOMA_FUZZ_REPLAY='<name>:<line>'`);
/// `HOMA_FUZZ_ITERS` scales every family alike. All ten families —
/// wire, conservation, stateful, spec-grammar and the six seed-keyed
/// property families — run their loops through one of these.
#[derive(Debug, Clone, Copy)]
pub struct FuzzFamily {
    /// Family name: artifact file stem and replay-line prefix.
    pub name: &'static str,
}

impl FuzzFamily {
    /// The family called `name`.
    pub const fn new(name: &'static str) -> Self {
        FuzzFamily { name }
    }

    /// Iteration budget: `HOMA_FUZZ_ITERS` if set (anything but a count
    /// panics), else `default`. CI smoke jobs pin the variable to 500;
    /// the `#[ignore]` long-haul variants multiply the result.
    pub fn iters(&self, default: u64) -> u64 {
        parse_iters(std::env::var("HOMA_FUZZ_ITERS").ok().as_deref(), default)
    }

    /// The line to replay, if `HOMA_FUZZ_REPLAY` is addressed to this
    /// family. A line for another family is that family's to run, so a
    /// whole-workspace `cargo test` with the variable set replays once.
    pub fn replay(&self) -> Option<String> {
        self.addressed(&std::env::var("HOMA_FUZZ_REPLAY").ok()?).map(str::to_string)
    }

    /// `value` without its `<name>:` prefix, if it carries this family's.
    fn addressed<'a>(&self, value: &'a str) -> Option<&'a str> {
        value.strip_prefix(self.name)?.strip_prefix(':')
    }

    /// Record a (shrunk) failure — on stderr, and as a line of
    /// `$HOMA_FUZZ_FAILURE_DIR/<name>.txt` when that is set — and panic
    /// with the replay instructions, so a failing CI log is self-describing.
    pub fn fail(&self, minimal_line: &str, detail: &str) -> ! {
        let name = self.name;
        let addressed = format!("{name}:{minimal_line}");
        report_failure(name, &addressed, detail);
        panic!("[{name}] {detail}\nreplay with:\n  HOMA_FUZZ_REPLAY='{addressed}' cargo test\n");
    }

    /// The loop every seed-keyed property runs: `case` draws its whole
    /// input from the generator it is handed, `SplitMix64::new(seed)`, and
    /// asserts, once for each seed in `0..iters(64)`. A panic in `case` is
    /// the failure; it is reported as the line `seed=<n>`. When
    /// `HOMA_FUZZ_REPLAY='<name>:seed=<n>'` is set, every property of the
    /// family runs that seed alone.
    pub fn check_seeds(&self, property: &str, case: impl Fn(&mut SplitMix64)) {
        let replayed = self.replay().map(|line| {
            let seed = line.trim().strip_prefix("seed=").and_then(|n| n.parse::<u64>().ok());
            seed.unwrap_or_else(|| panic!("[{}] replay line `{line}` is not `seed=<n>`", self.name))
        });
        let seeds = match replayed {
            Some(seed) => seed..seed.saturating_add(1),
            None => 0..self.iters(64),
        };
        for seed in seeds {
            if let Err(msg) = catch_panic(|| case(&mut SplitMix64::new(seed))) {
                self.fail(&format!("seed={seed}"), &format!("{property}: panicked: {msg}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homa_workloads::PatternSpec;

    /// What a `debug_assert!` or a silent default let through in release
    /// builds is refused in every build, by name.
    #[test]
    fn bad_arguments_and_bad_budgets_are_refused() {
        assert_eq!(parse_iters(None, 20), 20);
        assert_eq!(parse_iters(Some("500"), 20), 500);
        let refused: [(fn(), &str); 3] = [
            (|| _ = SplitMix64::new(3).range(5, 4), "range(5, 4): the range is empty"),
            (|| _ = SplitMix64::new(3).below(0), "below(0)"),
            (|| _ = parse_iters(Some("5OO"), 20), "HOMA_FUZZ_ITERS=`5OO` is not a count"),
        ];
        for (call, want) in refused {
            let msg = catch_panic(call).expect_err(want);
            assert!(msg.contains(want), "`{msg}` does not say `{want}`");
        }
    }

    #[test]
    fn an_unwritable_failure_artifact_says_so_and_names_the_path() {
        // A regular file where the directory should be.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
        let err = append_failure(dir, "wire", "line # detail").expect_err("a file is no directory");
        assert!(err.contains("Cargo.toml/wire.txt not written: "), "{err}");
    }

    /// `check_seeds` runs its whole budget, and the line its failure prints
    /// through `fail` is the line `replay` answers — for the family that
    /// printed it and for no other.
    #[test]
    fn a_failing_seed_is_reported_as_a_line_only_its_own_family_replays() {
        let family = FuzzFamily::new("sim");
        let budget = family.iters(64);
        let ran = std::cell::Cell::new(0);
        family.check_seeds("counts", |_| ran.set(ran.get() + 1));
        assert_eq!(ran.get(), budget);
        if budget == 0 {
            return;
        }
        // The case is handed `SplitMix64::new(seed)`: fail on seed 0's.
        let unlucky = SplitMix64::new(0).next_u64();
        let msg = catch_panic(|| {
            family.check_seeds("odd_one_out", |rng| assert_ne!(rng.next_u64(), unlucky, "unlucky"))
        })
        .expect_err("seed 0 fails");
        assert!(msg.contains("odd_one_out: panicked: "), "{msg}");
        let (_, rest) = msg.split_once("HOMA_FUZZ_REPLAY='").expect("a replay command");
        let (value, _) = rest.split_once("' cargo test").expect("a quoted value");
        for name in ["sim", "sim-properties", "si", "wire"] {
            let want = (name == "sim").then_some("seed=0");
            assert_eq!(FuzzFamily::new(name).addressed(value), want, "{name} reads `{value}`");
        }
        // A line-keyed family's line has colons and spaces of its own.
        let line = "name=x fabric=sw:8 faults=100:down:h2";
        let value = format!("conservation:{line}");
        assert_eq!(FuzzFamily::new("conservation").addressed(&value), Some(line));
    }

    #[test]
    fn arbitrary_is_deterministic_and_bounded() {
        for seed in 0..200 {
            let a = ScenarioSpec::arbitrary(seed);
            let b = ScenarioSpec::arbitrary(seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            let hosts = a.fabric.hosts();
            assert!((4..=32).contains(&hosts), "seed {seed}: {hosts} hosts");
            assert!((24..=300).contains(&a.messages), "seed {seed}: {} msgs", a.messages);
            assert!((0.30..=0.75).contains(&a.load), "seed {seed}: load {}", a.load);
            assert_eq!(a.seed, seed);
            assert_eq!(a.check_buildable(), Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn arbitrary_fault_instants_fall_in_the_first_half_of_the_arrival_span() {
        let mut faulted = 0;
        for seed in 0..1_000 {
            let spec = ScenarioSpec::arbitrary(seed);
            let half_span = arrival_span_ns(&spec) / 2;
            for &(at, fault) in &spec.faults.events {
                assert!(at < half_span, "seed {seed}: {fault:?} at {at} ns, span/2 {half_span} ns");
            }
            faulted += u32::from(!spec.faults.is_empty());
        }
        assert!(faulted > 400, "only {faulted}/1000 specs faulted");
    }

    #[test]
    fn arbitrary_specs_round_trip_through_spec_lines() {
        for seed in 0..500 {
            let spec = ScenarioSpec::arbitrary(seed);
            let line = spec.to_spec_line();
            let back = ScenarioSpec::parse_spec_line(&line)
                .unwrap_or_else(|e| panic!("seed {seed}: `{line}` failed to parse: {e}"));
            assert_eq!(back, spec, "seed {seed} diverged via `{line}`");
        }
    }

    #[test]
    fn arbitrary_covers_the_scenario_space() {
        let mut fabrics = [false; 3];
        let mut faulted = 0;
        let (mut uniform, mut incast) = (0, 0);
        for seed in 0..400 {
            let s = ScenarioSpec::arbitrary(seed);
            let idx = match s.fabric {
                FabricSpec::SingleSwitch { .. } => 0,
                FabricSpec::LeafSpine { .. } => 1,
                _ => 2,
            };
            fabrics[idx] = true;
            faulted += u32::from(!s.faults.is_empty());
            match s.traffic.pattern {
                PatternSpec::Uniform => uniform += 1,
                PatternSpec::Incast { .. } => incast += 1,
            }
        }
        assert!(fabrics.iter().all(|&f| f), "some fabric class never drawn");
        assert!(faulted > 80, "only {faulted}/400 runs faulted");
        assert!(uniform > 100, "only {uniform}/400 uniform patterns");
        assert!(incast > 100, "only {incast}/400 incast patterns");
    }

    #[test]
    fn shrink_candidates_stay_legal() {
        // An RPC spec on 16 hosts shrinks to no 8-host fabric: no server.
        let rpc = ScenarioSpec::arbitrary(3).with_shape(crate::Shape::Rpc);
        let rpc =
            refit(rpc.with_traffic(TrafficSpec::uniform()), FabricSpec::MultiTor { hosts: 16 });
        let specs = (0..150).map(ScenarioSpec::arbitrary).chain([rpc]);
        for (seed, spec) in specs.enumerate() {
            for cand in spec.shrink() {
                assert_eq!(cand.check_buildable(), Ok(()), "seed {seed} shrank off-fabric");
                // Every candidate must still serialize and replay.
                let line = cand.to_spec_line();
                assert_eq!(ScenarioSpec::parse_spec_line(&line).unwrap(), cand);
            }
        }
    }

    #[test]
    fn refit_keeps_the_faults_that_still_fit() {
        let plan = FaultPlan::new()
            .receiver_pause(HostId(5), 50_000, 90_000)
            .receiver_pause(HostId(30), 50_000, 90_000)
            .link_flaps(LinkId::HostDownlink(HostId(12)), 100_000, 20_000, 50_000, 2)
            .rate_limit(LinkId::HostUplink(HostId(20)), 7, 200_000, 1_000_000_000);
        let spec =
            ScenarioSpec::new("r", FabricSpec::MultiTor { hosts: 40 }, Workload::W2, 0.5, 50, 1)
                .with_faults(plan);
        assert_eq!(spec.check_buildable(), Ok(()));
        // 16 hosts: hosts 20 and 30 go, hosts 5 and 12 stay.
        let smaller = refit(spec.clone(), FabricSpec::MultiTor { hosts: 16 });
        assert_eq!(smaller.check_buildable(), Ok(()));
        assert_eq!(smaller.faults.events.len(), spec.faults.events.len() - 4);
        assert!(smaller.faults.events.contains(&(50_000, Fault::PauseReceiver(HostId(5)))));
        assert!(smaller
            .faults
            .events
            .contains(&(100_000, Fault::LinkDown(LinkId::HostDownlink(HostId(12))))));
        // Eight hosts: the pause of host 5 is all that is left.
        let single = refit(smaller, FabricSpec::SingleSwitch { hosts: 8 });
        assert_eq!(single.faults, FaultPlan::new().receiver_pause(HostId(5), 50_000, 90_000));
    }

    /// The acceptance-criterion demo in miniature: a predicate that
    /// fails whenever a spec still carries any fault event shrinks down
    /// to a single-event plan on the smallest fabric — and the result
    /// is printable and replayable as a one-line spec.
    #[test]
    fn shrinker_reaches_a_minimal_failing_spec() {
        let seed = (0..5_000)
            .find(|&s| ScenarioSpec::arbitrary(s).faults.events.len() >= 2)
            .expect("generator never produced a multi-fault plan");
        let spec = ScenarioSpec::arbitrary(seed);
        let minimal = shrink_to_minimal(&spec, |s| !s.faults.is_empty());
        assert_eq!(minimal.faults.events.len(), 1, "should shrink to exactly one fault");
        assert!(minimal.messages <= 24, "messages should have been halved to the floor");
        assert!(
            matches!(minimal.fabric, FabricSpec::SingleSwitch { hosts: 4 })
                || minimal.faults.events.len() == 1,
            "fabric should shrink while the fault survives refitting"
        );
        let line = minimal.to_spec_line();
        assert_eq!(ScenarioSpec::parse_spec_line(&line).unwrap(), minimal);
        // Deterministic: shrinking again lands on the same spec.
        assert_eq!(shrink_to_minimal(&spec, |s| !s.faults.is_empty()), minimal);
    }

    #[test]
    fn a_panicking_check_shrinks_like_any_other_failure() {
        let spec = ScenarioSpec::arbitrary(11);
        assert_eq!(failure_or_panic(|| None), None);
        assert_eq!(failure_or_panic(|| Some("plain".into())), Some("plain".into()));
        // A check that panics on every spec above the message floor
        // shrinks to that floor, and the detail carries the message.
        let blows = |s: &ScenarioSpec| -> Option<String> {
            assert!(s.messages <= 24, "engine diverged at t=7ns ({} msgs)", s.messages);
            None
        };
        let detail = failure_or_panic(|| blows(&spec)).expect("panic must count as a failure");
        assert!(detail.starts_with("panicked: engine diverged at t=7ns"), "{detail}");
        let minimal = shrink_to_minimal(&spec, |s| failure_or_panic(|| blows(s)).is_some());
        assert!((25..=49).contains(&minimal.messages), "shrank to {}", minimal.messages);
    }

    #[test]
    fn shrink_to_minimal_returns_input_when_nothing_smaller_fails() {
        let spec = ScenarioSpec::arbitrary(7);
        assert_eq!(shrink_to_minimal(&spec, |s| s == &spec), spec);
    }
}
