//! The workspace's one randomized-testing kit: a seedable generator
//! ([`SplitMix64`]), one loop with iteration scaling, failure artifacts
//! and replay ([`FuzzFamily`]), greedy shrinking
//! ([`shrink_to_minimal_with`]) and panic capture ([`failure_or_panic`]).
//!
//! Two kinds of family run on it. *Seed-keyed* properties (the core,
//! simulator-kernel and cross-crate properties) build their whole input
//! from one `u64` seed and run under [`FuzzFamily::check_seeds`]; a
//! failure is the line `seed=<n>`, which fails by itself. *Line-keyed*
//! families draw something printable — a [`ScenarioSpec`], an op trace, a
//! mutated spec line — shrink it, and report the shrunk line. Either way
//! `HOMA_FUZZ_REPLAY='<family>:<line>'` re-runs exactly that case in the
//! family named and nowhere else.
//!
//! The differential and conservation fuzzers (`tests/fuzz_differential.rs`,
//! `tests/fuzz_conservation.rs`) draw whole scenarios from
//! [`ScenarioSpec::arbitrary`]: a seeded, bounded walk over the fabric ×
//! workload × load × traffic × fault space. Because every run here is a
//! pure function of its spec, a failing draw is fully captured by its
//! [`ScenarioSpec::to_spec_line`] string — the harness shrinks the spec
//! with [`shrink_to_minimal`] and prints that line for exact replay. A
//! run that trips a debug-build invariant (the event-order oracle in
//! `homa_sim::events`, a `debug_assert!` in the fabric) counts as a
//! failure like any other: [`failure_or_panic`] turns the panic into a
//! detail string, so it shrinks and replays the same way.
//!
//! Generation is deliberately conservative about validity: victim flows
//! and fault events only ever name hosts that exist on the drawn fabric,
//! cross-rack hotspots are only drawn on multi-rack fabrics, and fault
//! plans stick to the host-level vocabulary (link flaps, receiver
//! pauses, rate limits) that is meaningful on every topology. The goal
//! is for *every* generated spec to be a legal run, so any panic or
//! divergence the fuzzers see is a real bug, not a generator artifact.

use crate::scenario::{FabricSpec, ScenarioSpec};
use homa_sim::{resolve_fault, Fault, FaultPlan, HostId, LinkId};
use homa_workloads::{TrafficSpec, VictimSpec, Workload};

pub mod grammar;
pub mod stateful;

/// SplitMix64: tiny, seedable, and statistically fine for test-case
/// generation. Hand-rolled so the fuzzers add no dependencies; pinned to
/// the published vectors by `splitmix64_matches_the_published_vectors`.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose whole stream is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`. `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "SplitMix64::below(0): an empty range has no draw");
        self.next_u64() % n
    }

    /// Uniform draw in the inclusive range `[lo, hi]`, up to and
    /// including the full `[0, u64::MAX]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "SplitMix64::range({lo}, {hi}): the range is empty");
        match (hi - lo).checked_add(1) {
            Some(span) => lo + self.below(span),
            None => self.next_u64(),
        }
    }

    /// A draw in `[lo, hi]` with one draw in eight pinned to an endpoint,
    /// half to each: the pressure on boundaries a property's integer
    /// inputs need when nothing shrinks a failure toward them.
    pub fn edge_range(&mut self, lo: u64, hi: u64) -> u64 {
        match self.below(16) {
            0 => lo,
            1 => hi,
            _ => self.range(lo, hi),
        }
    }

    /// True with probability `num`/`den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

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
    match rng.below(4) {
        0 => FabricSpec::SingleSwitch { hosts: rng.range(4, 12) as u32 },
        1 => FabricSpec::LeafSpine {
            racks: rng.range(2, 3) as u32,
            hosts_per_rack: rng.range(4, 6) as u32,
            spines: rng.range(1, 2) as u32,
        },
        2 => FabricSpec::MultiTor { hosts: [16, 24, 32][rng.below(3) as usize] },
        _ => FabricSpec::FatTree { k: 4 },
    }
}

fn multi_rack(fabric: FabricSpec) -> bool {
    !matches!(fabric, FabricSpec::SingleSwitch { .. })
}

fn arbitrary_traffic(rng: &mut SplitMix64, fabric: FabricSpec, hosts: u32) -> TrafficSpec {
    let mut traffic = if rng.chance(1, 2) {
        TrafficSpec::uniform()
    } else {
        match rng.below(4) {
            0 => TrafficSpec::permutation(),
            1 => TrafficSpec::incast(rng.range(2, 8) as u32),
            2 => TrafficSpec::shuffle(),
            // Cross-rack hotspots need more than one rack to make sense;
            // on single-switch fabrics fall back to a rack-local one.
            _ => {
                let frac = rng.range(3, 9) as f64 / 10.0;
                TrafficSpec::hotspot(frac, !multi_rack(fabric) || rng.chance(1, 2))
            }
        }
    };
    if hosts >= 3 && rng.chance(3, 10) {
        let src = rng.below(hosts as u64) as u32;
        let dst = (src + 1 + rng.below(hosts as u64 - 1) as u32) % hosts;
        traffic = traffic.with_victim(VictimSpec::new(
            src,
            dst,
            rng.range(1_000, 50_000),
            rng.range(100_000, 1_000_000),
        ));
    }
    if rng.chance(1, 4) {
        let second = WORKLOADS[rng.below(5) as usize];
        traffic = traffic.with_mix(second, rng.range(1, 5) as f64 / 10.0);
    }
    traffic
}

/// Fault plans are drawn from the host-level vocabulary only — uplink
/// and downlink flaps, receiver pauses, host-link rate limits — which
/// is valid on every fabric. Times sit inside the first few hundred
/// microseconds so faults actually overlap the injected traffic.
fn arbitrary_faults(rng: &mut SplitMix64, hosts: u32) -> FaultPlan {
    let mut plan = FaultPlan::new();
    if !rng.chance(45, 100) {
        return plan;
    }
    for _ in 0..rng.range(1, 3) {
        let host = HostId(rng.below(hosts as u64) as u32);
        let at = rng.range(50_000, 400_000);
        let dur = rng.range(20_000, 200_000);
        match rng.below(4) {
            0 => {
                let link = if rng.chance(1, 2) {
                    LinkId::HostUplink(host)
                } else {
                    LinkId::HostDownlink(host)
                };
                plan = plan.at(at, Fault::LinkDown(link)).at(at + dur, Fault::LinkUp(link));
            }
            1 => plan = plan.receiver_pause(host, at, at + dur),
            2 => {
                let link = LinkId::HostUplink(host);
                plan = plan.rate_limit(link, at, rng.range(500_000_000, 4_000_000_000), at + dur);
            }
            _ => {
                let link = LinkId::HostDownlink(host);
                plan = plan
                    .at(at, Fault::RateLimit { link, bps: rng.range(500_000_000, 4_000_000_000) })
                    .at(at + dur, Fault::RateRestore(link));
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
        let hosts = fabric.hosts();
        let workload = WORKLOADS[rng.below(5) as usize];
        let messages = message_budget(&mut rng, workload);
        let load = rng.range(6, 15) as f64 / 20.0; // 0.30..=0.75 in 0.05 steps
        let traffic = arbitrary_traffic(&mut rng, fabric, hosts);
        let faults = arbitrary_faults(&mut rng, hosts);
        ScenarioSpec::new(format!("fuzz_{seed:016x}"), fabric, workload, load, messages, seed)
            .with_traffic(traffic)
            .with_faults(faults)
    }

    /// Candidate simplifications of this spec, most aggressive first:
    /// halve the message count, step the fabric down a size class, drop
    /// fault events one at a time, drop the victim flow, drop the
    /// workload mix, and finally flatten the pattern to uniform. Each
    /// candidate is itself a legal spec, so [`shrink_to_minimal`] can
    /// greedily walk this list while a failure predicate still fires.
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
        if self.traffic.victim.is_some() {
            let mut t = self.traffic;
            t.victim = None;
            out.push(self.clone().with_traffic(t));
        }
        if self.traffic.mix.is_some() {
            let mut t = self.traffic;
            t.mix = None;
            out.push(self.clone().with_traffic(t));
        }
        if !matches!(self.traffic.pattern, homa_workloads::PatternSpec::Uniform) {
            let mut t = self.traffic;
            t.pattern = homa_workloads::PatternSpec::Uniform;
            out.push(self.clone().with_traffic(t));
        }
        out
    }
}

/// One size-class step down, terminating at `SingleSwitch { hosts: 4 }`.
fn shrink_fabric(f: FabricSpec) -> Option<FabricSpec> {
    match f {
        FabricSpec::FatTree { .. } | FabricSpec::Paper => Some(FabricSpec::MultiTor { hosts: 16 }),
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

/// Move `spec` onto a smaller fabric, dropping any traffic overlay that
/// names a host and any fault event that names a host, switch or link the
/// new fabric doesn't have (a rack or spine outage that still fits
/// survives), and flattening cross-rack hotspots when the new fabric has
/// one rack.
fn refit(spec: ScenarioSpec, fabric: FabricSpec) -> ScenarioSpec {
    let hosts = fabric.hosts();
    let mut traffic = spec.traffic;
    if let Some(v) = traffic.victim {
        if v.src >= hosts || v.dst >= hosts {
            traffic.victim = None;
        }
    }
    if let homa_workloads::PatternSpec::Hotspot { hot_frac, rack_local: false } = traffic.pattern {
        if !multi_rack(fabric) {
            traffic.pattern = homa_workloads::PatternSpec::Hotspot { hot_frac, rack_local: true };
        }
    }
    let topo = fabric.topology();
    let mut faults = spec.faults.clone();
    faults.events.retain(|&(_, f)| resolve_fault(&topo, f).is_ok());
    let mut out = spec;
    out.fabric = fabric;
    out.with_traffic(traffic).with_faults(faults)
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
/// `HOMA_FUZZ_ITERS` scales every family alike. All nine families —
/// wire, differential, conservation, stateful, spec-grammar and the four
/// seed-keyed property files — run their loops through one of these.
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

    #[test]
    fn splitmix64_matches_the_published_vectors() {
        // The first outputs of Vigna's reference `splitmix64.c`. The
        // benchmark's RPC plan and every property ride on this stream.
        let first = |seed, n| {
            let mut rng = SplitMix64::new(seed);
            (0..n).map(|_| rng.next_u64()).collect::<Vec<u64>>()
        };
        let want_1234567 = [
            6_457_827_717_110_365_317,
            3_203_168_211_198_807_973,
            9_817_491_932_198_370_423,
            4_593_380_528_125_082_431,
            16_408_922_859_458_223_821,
        ];
        assert_eq!(first(1_234_567, 5), want_1234567);
        assert_eq!(
            first(0, 3),
            [0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4, 0x06c4_5d18_8009_454f]
        );
    }

    #[test]
    fn ranges_reach_the_whole_u64_and_edge_draws_reach_both_ends() {
        let mut rng = SplitMix64::new(3);
        let mut twin = rng.clone();
        assert_eq!(rng.range(0, u64::MAX), twin.next_u64());
        assert_eq!(rng.range(u64::MAX, u64::MAX), u64::MAX);
        let (mut lo, mut hi) = (0, 0);
        for _ in 0..8_000 {
            assert!(rng.range(u64::MAX - 2, u64::MAX) >= u64::MAX - 2);
            match rng.edge_range(5, 1_000_004) {
                5 => lo += 1,
                1_000_004 => hi += 1,
                draw => assert!((5..1_000_004).contains(&draw)),
            }
        }
        // One draw in sixteen at each end; a uniform draw would give none.
        assert!((400..600).contains(&lo) && (400..600).contains(&hi), "lo {lo}, hi {hi}");
    }

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
            if let Some(v) = a.traffic.victim {
                assert!(v.src < hosts && v.dst < hosts && v.src != v.dst);
            }
            assert_eq!(a.check_buildable(), Ok(()), "seed {seed}");
        }
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
        let mut fabrics = [false; 4];
        let mut faulted = 0;
        let mut victims = 0;
        let mut mixed = 0;
        let mut non_uniform = 0;
        for seed in 0..400 {
            let s = ScenarioSpec::arbitrary(seed);
            let idx = match s.fabric {
                FabricSpec::SingleSwitch { .. } => 0,
                FabricSpec::LeafSpine { .. } => 1,
                FabricSpec::MultiTor { .. } => 2,
                _ => 3,
            };
            fabrics[idx] = true;
            faulted += u32::from(!s.faults.is_empty());
            victims += u32::from(s.traffic.victim.is_some());
            mixed += u32::from(s.traffic.mix.is_some());
            non_uniform +=
                u32::from(!matches!(s.traffic.pattern, homa_workloads::PatternSpec::Uniform));
        }
        assert!(fabrics.iter().all(|&f| f), "some fabric class never drawn");
        assert!(faulted > 80, "only {faulted}/400 runs faulted");
        assert!(victims > 50, "only {victims}/400 runs had victims");
        assert!(mixed > 40, "only {mixed}/400 runs had mixes");
        assert!(non_uniform > 100, "only {non_uniform}/400 non-uniform patterns");
    }

    #[test]
    fn shrink_candidates_stay_legal() {
        for seed in 0..150 {
            let spec = ScenarioSpec::arbitrary(seed);
            for cand in spec.shrink() {
                let hosts = cand.fabric.hosts();
                if let Some(v) = cand.traffic.victim {
                    assert!(v.src < hosts && v.dst < hosts, "seed {seed} shrank off-fabric");
                }
                assert_eq!(cand.check_buildable(), Ok(()), "seed {seed} shrank off-fabric");
                // Every candidate must still serialize and replay.
                let line = cand.to_spec_line();
                assert_eq!(ScenarioSpec::parse_spec_line(&line).unwrap(), cand);
            }
        }
    }

    #[test]
    fn refit_keeps_the_switch_level_faults_that_still_fit() {
        let plan = FaultPlan::new()
            .rack_outage(1, 100_000, 200_000)
            .rack_outage(3, 100_000, 200_000)
            .spine_outage(0, 120_000, 180_000)
            .receiver_pause(HostId(5), 50_000, 90_000)
            .receiver_pause(HostId(30), 50_000, 90_000)
            .at(7, Fault::LinkDown(LinkId::TorUplink { rack: 1, spine: 1 }));
        let spec =
            ScenarioSpec::new("r", FabricSpec::MultiTor { hosts: 40 }, Workload::W2, 0.5, 50, 1)
                .with_faults(plan);
        assert_eq!(spec.check_buildable(), Ok(()));
        // 40 hosts are 4 racks under 3 spines; 16 hosts are 2 racks under
        // 2: rack 3 and host 30 go, everything else still names something.
        let smaller = refit(spec.clone(), FabricSpec::MultiTor { hosts: 16 });
        assert_eq!(smaller.check_buildable(), Ok(()));
        assert_eq!(smaller.faults.events.len(), spec.faults.events.len() - 4);
        assert!(smaller.faults.events.contains(&(100_000, Fault::RackOutage { rack: 1 })));
        assert!(smaller.faults.events.contains(&(120_000, Fault::SpineOutage { spine: 0 })));
        // One switch has no spine and no second rack: the host pause is
        // all that is left.
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
