//! Canonical one-line text encoding of a [`ScenarioSpec`].
//!
//! Every run in this repository is a pure function of its spec, so a
//! spec's text form *is* a replay token: the fuzzers print the shrunk
//! line of any failing scenario, CI uploads them as artifacts, and
//! [`ScenarioSpec::parse_spec_line`] turns a pasted line back into the
//! exact run. The encoding is a flat sequence of `key=value` fields:
//!
//! ```text
//! name=det_fault_incast fabric=ls:2x6x2 wl=W2 load=0.5 msgs=700 seed=21 \
//!   traffic=incast:8 faults=100000:down:hdn0,150000:up:hdn0,160000:pause:0,240000:resume:0
//! ```
//!
//! Field grammar (all values whitespace-free):
//!
//! * `fabric` — `sw:<hosts>` | `ls:<racks>x<hpr>x<spines>` |
//!   `mtor:<hosts>` | `paper` | `ft:<k>`
//! * `wl` — `W1`..`W5`
//! * `load` — `f64` via Rust's shortest round-trip `Display`
//! * `traffic` — `uniform` | `incast:<fan_in>`, `fan_in` ≥ 1
//! * `faults` — `-` for an empty plan, else comma-joined
//!   `<at_ns>:<action>` events where `action` is one of
//!   `down:<link>` `up:<link>` `rate:<link>:<bps>` `raterestore:<link>`
//!   `pause:<host>` `resume:<host>` `rackout:<rack>` `rackrestore:<rack>`
//!   `spineout:<spine>` `spinerestore:<spine>`, and `<link>` is
//!   `hup<host>` | `hdn<host>` | `tor<rack>-<spine>` | `spd<spine>-<rack>`
//!
//! `format ∘ parse` is the identity on every spec whose name is free of
//! whitespace (names with whitespace are sanitized to `_` on output);
//! the fuzz suite pins this property over [`ScenarioSpec::arbitrary`].

use crate::scenario::{FabricSpec, ScenarioSpec};
use homa_sim::{Fault, FaultPlan, HostId, LinkId};
use homa_workloads::{PatternSpec, TrafficSpec, Workload};

fn fabric_str(f: FabricSpec) -> String {
    match f {
        FabricSpec::SingleSwitch { hosts } => format!("sw:{hosts}"),
        FabricSpec::LeafSpine { racks, hosts_per_rack, spines } => {
            format!("ls:{racks}x{hosts_per_rack}x{spines}")
        }
        FabricSpec::MultiTor { hosts } => format!("mtor:{hosts}"),
        FabricSpec::Paper => "paper".into(),
        FabricSpec::FatTree { k } => format!("ft:{k}"),
    }
}

fn parse_fabric(s: &str) -> Result<FabricSpec, String> {
    if s == "paper" {
        return Ok(FabricSpec::Paper);
    }
    let (kind, rest) = s.split_once(':').ok_or_else(|| format!("bad fabric `{s}`"))?;
    let num = |t: &str| t.parse::<u32>().map_err(|_| format!("bad fabric number in `{s}`"));
    match kind {
        "sw" => Ok(FabricSpec::SingleSwitch { hosts: num(rest)? }),
        "mtor" => Ok(FabricSpec::MultiTor { hosts: num(rest)? }),
        "ft" => Ok(FabricSpec::FatTree { k: num(rest)? }),
        "ls" => {
            let parts: Vec<&str> = rest.split('x').collect();
            if parts.len() != 3 {
                return Err(format!("bad leaf-spine shape `{s}` (want ls:RxHxS)"));
            }
            Ok(FabricSpec::LeafSpine {
                racks: num(parts[0])?,
                hosts_per_rack: num(parts[1])?,
                spines: num(parts[2])?,
            })
        }
        _ => Err(format!("unknown fabric kind `{kind}`")),
    }
}

fn traffic_str(t: &TrafficSpec) -> String {
    match t.pattern {
        PatternSpec::Uniform => "uniform".to_string(),
        PatternSpec::Incast { fan_in } => format!("incast:{fan_in}"),
    }
}

fn parse_traffic(s: &str) -> Result<TrafficSpec, String> {
    if s == "uniform" {
        return Ok(TrafficSpec::uniform());
    }
    let Some(fan_in) = s.strip_prefix("incast:") else {
        return Err(format!("unknown traffic pattern `{s}`"));
    };
    match fan_in.parse::<u32>() {
        Ok(n) if n >= 1 => Ok(TrafficSpec::incast(n)),
        _ => Err(format!("bad incast fan-in in `{s}`")),
    }
}

fn link_str(l: LinkId) -> String {
    match l {
        LinkId::HostUplink(h) => format!("hup{}", h.0),
        LinkId::HostDownlink(h) => format!("hdn{}", h.0),
        LinkId::TorUplink { rack, spine } => format!("tor{rack}-{spine}"),
        LinkId::SpineDownlink { spine, rack } => format!("spd{spine}-{rack}"),
    }
}

fn parse_link(s: &str) -> Result<LinkId, String> {
    let pair = |t: &str| -> Result<(u32, u32), String> {
        let (a, b) = t.split_once('-').ok_or_else(|| format!("bad link `{s}`"))?;
        Ok((
            a.parse::<u32>().map_err(|_| format!("bad link `{s}`"))?,
            b.parse::<u32>().map_err(|_| format!("bad link `{s}`"))?,
        ))
    };
    if let Some(t) = s.strip_prefix("hup") {
        Ok(LinkId::HostUplink(HostId(t.parse().map_err(|_| format!("bad link `{s}`"))?)))
    } else if let Some(t) = s.strip_prefix("hdn") {
        Ok(LinkId::HostDownlink(HostId(t.parse().map_err(|_| format!("bad link `{s}`"))?)))
    } else if let Some(t) = s.strip_prefix("tor") {
        let (rack, spine) = pair(t)?;
        Ok(LinkId::TorUplink { rack, spine })
    } else if let Some(t) = s.strip_prefix("spd") {
        let (spine, rack) = pair(t)?;
        Ok(LinkId::SpineDownlink { spine, rack })
    } else {
        Err(format!("unknown link `{s}`"))
    }
}

fn fault_str(f: Fault) -> String {
    match f {
        Fault::LinkDown(l) => format!("down:{}", link_str(l)),
        Fault::LinkUp(l) => format!("up:{}", link_str(l)),
        Fault::RateLimit { link, bps } => format!("rate:{}:{bps}", link_str(link)),
        Fault::RateRestore(l) => format!("raterestore:{}", link_str(l)),
        Fault::PauseReceiver(h) => format!("pause:{}", h.0),
        Fault::ResumeReceiver(h) => format!("resume:{}", h.0),
        Fault::RackOutage { rack } => format!("rackout:{rack}"),
        Fault::RackRestore { rack } => format!("rackrestore:{rack}"),
        Fault::SpineOutage { spine } => format!("spineout:{spine}"),
        Fault::SpineRestore { spine } => format!("spinerestore:{spine}"),
    }
}

fn parse_fault(s: &str) -> Result<Fault, String> {
    let (kind, rest) = s.split_once(':').ok_or_else(|| format!("bad fault `{s}`"))?;
    let host = |t: &str| -> Result<HostId, String> {
        Ok(HostId(t.parse::<u32>().map_err(|_| format!("bad host in `{s}`"))?))
    };
    let num = |t: &str| t.parse::<u32>().map_err(|_| format!("bad number in `{s}`"));
    match kind {
        "down" => Ok(Fault::LinkDown(parse_link(rest)?)),
        "up" => Ok(Fault::LinkUp(parse_link(rest)?)),
        "rate" => {
            let (link, bps) =
                rest.rsplit_once(':').ok_or_else(|| format!("bad rate fault `{s}`"))?;
            Ok(Fault::RateLimit {
                link: parse_link(link)?,
                bps: bps.parse::<u64>().map_err(|_| format!("bad bps in `{s}`"))?,
            })
        }
        "raterestore" => Ok(Fault::RateRestore(parse_link(rest)?)),
        "pause" => Ok(Fault::PauseReceiver(host(rest)?)),
        "resume" => Ok(Fault::ResumeReceiver(host(rest)?)),
        "rackout" => Ok(Fault::RackOutage { rack: num(rest)? }),
        "rackrestore" => Ok(Fault::RackRestore { rack: num(rest)? }),
        "spineout" => Ok(Fault::SpineOutage { spine: num(rest)? }),
        "spinerestore" => Ok(Fault::SpineRestore { spine: num(rest)? }),
        _ => Err(format!("unknown fault `{s}`")),
    }
}

fn faults_str(plan: &FaultPlan) -> String {
    if plan.is_empty() {
        return "-".into();
    }
    plan.events
        .iter()
        .map(|&(at, f)| format!("{at}:{}", fault_str(f)))
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_faults(s: &str) -> Result<FaultPlan, String> {
    if s == "-" {
        return Ok(FaultPlan::default());
    }
    let mut plan = FaultPlan::default();
    for ev in s.split(',') {
        let (at, fault) = ev.split_once(':').ok_or_else(|| format!("bad fault event `{ev}`"))?;
        let at = at.parse::<u64>().map_err(|_| format!("bad fault time in `{ev}`"))?;
        plan.events.push((at, parse_fault(fault)?));
    }
    Ok(plan)
}

impl ScenarioSpec {
    /// The spec as one replayable line of `key=value` fields (see the
    /// module docs for the grammar). Whitespace in the name is sanitized
    /// to `_` so the line always splits back into exactly eight fields.
    pub fn to_spec_line(&self) -> String {
        let name: String =
            self.name.chars().map(|c| if c.is_whitespace() { '_' } else { c }).collect();
        format!(
            "name={name} fabric={} wl={} load={} msgs={} seed={} traffic={} faults={}",
            fabric_str(self.fabric),
            self.workload.name(),
            self.load,
            self.messages,
            self.seed,
            traffic_str(&self.traffic),
            faults_str(&self.faults),
        )
    }

    /// Parse a line produced by [`ScenarioSpec::to_spec_line`] back into
    /// the spec. `traffic` and `faults` may be omitted (they default);
    /// the other six fields are required. Unknown keys are an error, so
    /// typos — and lines from before PR 16, which carried an `engine`
    /// field — fail loudly rather than replaying the wrong run. So are a
    /// fabric that cannot be built and a fault naming something the
    /// fabric lacks ([`ScenarioSpec::check_buildable`]): they used to
    /// parse and then panic mid-run.
    pub fn parse_spec_line(line: &str) -> Result<ScenarioSpec, String> {
        let mut name = None;
        let mut fabric = None;
        let mut workload = None;
        let mut load = None;
        let mut messages = None;
        let mut seed = None;
        let mut traffic = TrafficSpec::default();
        let mut faults = FaultPlan::default();
        for field in line.split_whitespace() {
            let (key, value) =
                field.split_once('=').ok_or_else(|| format!("bad field `{field}` (want k=v)"))?;
            // Every parse error names the field it came from and the
            // offending value, so a mangled replay line points straight
            // at the broken key instead of a context-free complaint.
            let ctx = |e: String| format!("field `{key}`: {e}");
            match key {
                "name" => name = Some(value.to_string()),
                "fabric" => fabric = Some(parse_fabric(value).map_err(ctx)?),
                "wl" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| ctx(format!("unknown workload `{value}`")))?,
                    )
                }
                "load" => {
                    load =
                        Some(value.parse::<f64>().map_err(|_| ctx(format!("bad load `{value}`")))?)
                }
                "msgs" => {
                    messages =
                        Some(value.parse::<u64>().map_err(|_| ctx(format!("bad msgs `{value}`")))?)
                }
                "seed" => {
                    seed =
                        Some(value.parse::<u64>().map_err(|_| ctx(format!("bad seed `{value}`")))?)
                }
                "traffic" => traffic = parse_traffic(value).map_err(ctx)?,
                "faults" => faults = parse_faults(value).map_err(ctx)?,
                other => return Err(format!("unknown field `{other}` (value `{value}`)")),
            }
        }
        let req = |what: &str| format!("missing required field `{what}`");
        let spec = ScenarioSpec::new(
            name.ok_or_else(|| req("name"))?,
            fabric.ok_or_else(|| req("fabric"))?,
            workload.ok_or_else(|| req("wl"))?,
            load.ok_or_else(|| req("load"))?,
            messages.ok_or_else(|| req("msgs"))?,
            seed.ok_or_else(|| req("seed"))?,
        )
        .with_traffic(traffic)
        .with_faults(faults);
        spec.check_buildable()?;
        Ok(spec)
    }

    /// Whether the fabric can be built and carries every fault of the
    /// plan: what a run would otherwise discover by panicking in
    /// `Network::new` or `install_faults`. The error names the field and
    /// the offending value, like every other parse error.
    pub fn check_buildable(&self) -> Result<(), String> {
        let topo = self.fabric.try_topology().map_err(|e| {
            format!("field `fabric`: cannot build `{}`: {e}", fabric_str(self.fabric))
        })?;
        self.faults.resolve(&topo).map(drop).map_err(|e| {
            let fault = fault_str(e.fault);
            format!(
                "field `faults`: {} in `{fault}` on fabric `{}`",
                e.reason,
                fabric_str(self.fabric)
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trips(spec: &ScenarioSpec) {
        let line = spec.to_spec_line();
        let back = ScenarioSpec::parse_spec_line(&line)
            .unwrap_or_else(|e| panic!("parse of `{line}` failed: {e}"));
        assert_eq!(&back, spec, "round trip diverged for `{line}`");
        // And the text form itself is a fixed point.
        assert_eq!(back.to_spec_line(), line);
    }

    #[test]
    fn plain_spec_round_trips() {
        round_trips(&ScenarioSpec::new(
            "w4_80_100h",
            FabricSpec::MultiTor { hosts: 100 },
            Workload::W4,
            0.8,
            3_000,
            42,
        ));
    }

    #[test]
    fn every_fabric_round_trips() {
        for fabric in [
            FabricSpec::SingleSwitch { hosts: 8 },
            FabricSpec::LeafSpine { racks: 3, hosts_per_rack: 8, spines: 2 },
            FabricSpec::MultiTor { hosts: 40 },
            FabricSpec::Paper,
            FabricSpec::FatTree { k: 4 },
        ] {
            round_trips(&ScenarioSpec::new("x", fabric, Workload::W1, 0.55, 700, 9));
        }
    }

    #[test]
    fn traffic_patterns_round_trip() {
        for traffic in [TrafficSpec::uniform(), TrafficSpec::incast(1), TrafficSpec::incast(20)] {
            round_trips(
                &ScenarioSpec::new(
                    "t",
                    FabricSpec::MultiTor { hosts: 40 },
                    Workload::W2,
                    0.5,
                    500,
                    7,
                )
                .with_traffic(traffic),
            );
        }
    }

    #[test]
    fn fault_vocabulary_round_trips() {
        let plan = FaultPlan::new()
            .link_flaps(LinkId::HostDownlink(HostId(0)), 300_000, 150_000, 600_000, 2)
            .receiver_pause(HostId(3), 500_000, 900_000)
            .rate_limit(LinkId::TorUplink { rack: 0, spine: 1 }, 100_000, 2_000_000, 10_000_000)
            .rack_outage(1, 400_000, 1_200_000)
            .spine_outage(0, 300_000, 900_000)
            .at(42, Fault::LinkDown(LinkId::SpineDownlink { spine: 1, rack: 0 }))
            .at(43, Fault::LinkUp(LinkId::HostUplink(HostId(7))));
        round_trips(
            &ScenarioSpec::new(
                "faulty",
                FabricSpec::LeafSpine { racks: 2, hosts_per_rack: 6, spines: 2 },
                Workload::W2,
                0.5,
                700,
                21,
            )
            .with_faults(plan),
        );
    }

    #[test]
    fn float_loads_round_trip_exactly() {
        for load in [0.1, 0.3333333333333333, 0.8, 0.955, 1.0, 0.05] {
            round_trips(&ScenarioSpec::new(
                "f",
                FabricSpec::SingleSwitch { hosts: 4 },
                Workload::W3,
                load,
                10,
                1,
            ));
        }
    }

    #[test]
    fn whitespace_in_names_is_sanitized() {
        let spec = ScenarioSpec::new(
            "two words",
            FabricSpec::SingleSwitch { hosts: 4 },
            Workload::W1,
            0.5,
            10,
            1,
        );
        let back = ScenarioSpec::parse_spec_line(&spec.to_spec_line()).unwrap();
        assert_eq!(back.name, "two_words");
    }

    #[test]
    fn defaulted_fields_may_be_omitted() {
        let spec =
            ScenarioSpec::parse_spec_line("name=a fabric=sw:8 wl=w2 load=0.5 msgs=100 seed=3")
                .unwrap();
        assert!(spec.traffic.is_default());
        assert!(spec.faults.is_empty());
    }

    #[test]
    fn parse_errors_name_the_offending_key_and_value() {
        let cases = [
            (
                "name=a fabric=nope:3 wl=W1 load=0.5 msgs=10 seed=1",
                "field `fabric`: unknown fabric kind `nope`",
            ),
            (
                "name=a fabric=sw:8 wl=W9 load=0.5 msgs=10 seed=1",
                "field `wl`: unknown workload `W9`",
            ),
            ("name=a fabric=sw:8 wl=W1 load=x msgs=10 seed=1", "field `load`: bad load `x`"),
            ("name=a fabric=sw:8 wl=W1 load=0.5 msgs=ten seed=1", "field `msgs`: bad msgs `ten`"),
            ("name=a fabric=sw:8 wl=W1 load=0.5 msgs=10 seed=-1", "field `seed`: bad seed `-1`"),
            // There is one engine: the removed selector is a plain
            // unknown key, whatever it names.
            (
                "name=a fabric=sw:8 wl=W1 load=0.5 msgs=10 seed=1 engine=hier",
                "unknown field `engine` (value `hier`)",
            ),
            (
                "name=a fabric=sw:8 wl=W1 load=0.5 msgs=10 seed=1 engine=legacy",
                "unknown field `engine` (value `legacy`)",
            ),
            (
                "name=a fabric=sw:8 wl=W1 load=0.5 msgs=10 seed=1 traffic=blizzard",
                "field `traffic`: unknown traffic pattern `blizzard`",
            ),
            // The removed patterns and overlays are unknown patterns.
            (
                "name=a fabric=sw:8 wl=W1 load=0.5 msgs=10 seed=1 traffic=shuffle",
                "field `traffic`: unknown traffic pattern `shuffle`",
            ),
            (
                "name=a fabric=sw:8 wl=W1 load=0.5 msgs=10 seed=1 traffic=uniform+victim:1:2:4:3",
                "field `traffic`: unknown traffic pattern `uniform+victim:1:2:4:3`",
            ),
            // An incast needs a sender; fan-ins wider than u32 are
            // rejected, not truncated.
            (
                "name=a fabric=sw:8 wl=W1 load=0.5 msgs=10 seed=1 traffic=incast:0",
                "field `traffic`: bad incast fan-in in `incast:0`",
            ),
            (
                "name=a fabric=sw:8 wl=W1 load=0.5 msgs=10 seed=1 traffic=incast:4294967296",
                "field `traffic`: bad incast fan-in in `incast:4294967296`",
            ),
            (
                "name=a fabric=sw:8 wl=W1 load=0.5 msgs=10 seed=1 faults=12:explode:hup1",
                "field `faults`: unknown fault `explode:hup1`",
            ),
            (
                "name=a fabric=sw:8 wl=W1 load=0.5 msgs=10 seed=1 color=red",
                "unknown field `color` (value `red`)",
            ),
            ("name=a fabric=sw:8 wl=W1 msgs=10 seed=1", "missing required field `load`"),
            ("notafield", "bad field `notafield` (want k=v)"),
            // Regressions: each of these parsed, then panicked mid-run in
            // `Network::new` or `install_faults` with a backtrace.
            (
                "name=t fabric=sw:8 wl=W4 load=0.5 msgs=50 seed=1 faults=1000:down:tor0-5",
                "field `faults`: no such spine 5 in `down:tor0-5` on fabric `sw:8`",
            ),
            (
                "name=t fabric=sw:8 wl=W4 load=0.5 msgs=50 seed=1 faults=1000:spineout:0",
                "field `faults`: no such spine 0 in `spineout:0` on fabric `sw:8`",
            ),
            (
                "name=t fabric=sw:1 wl=W4 load=0.5 msgs=50 seed=1",
                "field `fabric`: cannot build `sw:1`: bad fabric shape: need at least two hosts \
                 per rack",
            ),
            (
                "name=t fabric=mtor:7 wl=W4 load=0.5 msgs=50 seed=1",
                "field `fabric`: cannot build `mtor:7`: multi_tor: pick a host count >= 16 \
                 divisible by 10, 16 or 8, got 7",
            ),
            (
                "name=t fabric=ft:5 wl=W4 load=0.5 msgs=50 seed=1",
                "field `fabric`: cannot build `ft:5`: fat_tree: arity must be even and >= 4, got 5",
            ),
            (
                "name=t fabric=ls:0x4x1 wl=W4 load=0.5 msgs=50 seed=1",
                "field `fabric`: cannot build `ls:0x4x1`: bad fabric shape: need at least one rack",
            ),
            (
                "name=t fabric=ls:2x4x0 wl=W4 load=0.5 msgs=50 seed=1",
                "field `fabric`: cannot build `ls:2x4x0`: bad fabric shape: multi-rack fabrics \
                 need spines",
            ),
            // The same checks reach every fault and every size.
            (
                "name=t fabric=ft:4 wl=W4 load=0.5 msgs=50 seed=1 faults=5:up:hup3,9:down:tor2-0",
                "field `faults`: Tor(2) has no link to Spine(0): TORs link to aggregation \
                 switches of their own pod only in `down:tor2-0` on fabric `ft:4`",
            ),
            (
                "name=t fabric=sw:8 wl=W4 load=0.5 msgs=50 seed=1 faults=5:rate:hup3:0",
                "field `faults`: rate limit must be positive in `rate:hup3:0` on fabric `sw:8`",
            ),
            (
                "name=t fabric=ls:4294967295x4294967295x1 wl=W4 load=0.5 msgs=50 seed=1",
                "field `fabric`: cannot build `ls:4294967295x4294967295x1`: bad fabric shape: \
                 host count overflows u32",
            ),
        ];
        for (line, want) in cases {
            let err = ScenarioSpec::parse_spec_line(line).expect_err(line);
            assert_eq!(err, want, "wrong error for `{line}`");
        }
    }

    #[test]
    fn hostile_lines_fail_loudly() {
        for bad in [
            "",
            "name=a",
            "name=a fabric=nope:3 wl=W1 load=0.5 msgs=10 seed=1",
            "name=a fabric=sw:8 wl=W9 load=0.5 msgs=10 seed=1",
            "name=a fabric=sw:8 wl=W1 load=x msgs=10 seed=1",
            "name=a fabric=sw:8 wl=W1 load=0.5 msgs=10 seed=1 engine=hier",
            "name=a fabric=sw:8 wl=W1 load=0.5 msgs=10 seed=1 traffic=blizzard",
            "name=a fabric=sw:8 wl=W1 load=0.5 msgs=10 seed=1 faults=12:explode:hup1",
            "name=a fabric=sw:8 wl=W1 load=0.5 msgs=10 seed=1 color=red",
            "notafield",
        ] {
            assert!(ScenarioSpec::parse_spec_line(bad).is_err(), "`{bad}` should not parse");
        }
    }
}
