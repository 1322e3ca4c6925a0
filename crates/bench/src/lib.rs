//! # homa-bench — shared experiment dispatch for the `repro` binary, the
//! `perf-smoke` gate and the benchmark.
//!
//! The paper compares seven transports. [`Protocol`] names them and
//! [`run_protocol_scenario`] dispatches a harness [`ScenarioSpec`], in
//! any of its three shapes, to the right transport/fabric combination
//! (each protocol needs its own queue discipline in the switches, per
//! its original design), under a [`Variant`] of Homa's configuration
//! where a figure sweeps one.
//!
//! A run is one line: [`run_line`] writes the spec line behind a
//! `proto=` token (and, for a variant, a `variant=` token), and
//! [`parse_run_line`] reads it back. `repro` prints that line for every
//! run it makes, and `repro trace <run line>` replays it.
//!
//! ## Paper map
//!
//! | module | paper section |
//! |---|---|
//! | [`Protocol`] dispatch | §5.1–§5.2 transport comparison |
//! | [`figdata`] | `FIGURES`: every §5 figure/table as one registry of data builders (+ the Figures 12–16 accuracy gate) |
//! | [`perfjson`] | machine-readable results (`BENCH_*.json`, `FIG_*.json`) and their text view |
//! | [`tracecmd`] | flight-recorder trace export + summaries (`repro trace`) |
//! | `bin/repro` | the §5 evaluation, regenerated: a CLI over the registry |
//! | `bin/perf-smoke` | CI performance-regression gate (not in the paper) |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod figdata;
pub mod perfjson;
pub mod tracecmd;

pub use figdata::Variant;
use homa::HomaConfig;
use homa_baselines::{
    homa_sim::{basic_config, homa_px_config, static_map_for_workload},
    ndp, pfabric, pias, HomaSimTransport, NdpConfig, NdpTransport, PfabricConfig, PfabricTransport,
    PhostConfig, PhostTransport, PiasConfig, PiasTransport, StreamConfig, StreamTransport,
};
use homa_harness::driver::{OnewayOpts, OnewayResult};
use homa_harness::{ScenarioSpec, Shape};
use homa_sim::QueueDiscipline;
use homa_workloads::MessageSizeDist;

/// The transports evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Homa with the full 8 priority levels and workload-derived cutoffs.
    Homa,
    /// Homa restricted to `n` priority levels (Figures 8/9's HomaPx).
    HomaP(u8),
    /// RAMCloud Basic: receiver-driven, no priorities, unlimited
    /// overcommitment.
    Basic,
    /// TCP-like single stream per destination.
    Stream,
    /// pFabric.
    Pfabric,
    /// pHost.
    Phost,
    /// PIAS.
    Pias,
    /// NDP.
    Ndp,
}

impl Protocol {
    /// Display name as used in the paper's figures.
    pub fn name(&self) -> String {
        match self {
            Protocol::Homa => "Homa".into(),
            Protocol::HomaP(n) => format!("HomaP{n}"),
            Protocol::Basic => "Basic".into(),
            Protocol::Stream => "Stream(TCP-like)".into(),
            Protocol::Pfabric => "pFabric".into(),
            Protocol::Phost => "pHost".into(),
            Protocol::Pias => "PIAS".into(),
            Protocol::Ndp => "NDP".into(),
        }
    }

    /// The name as a `proto=` token: [`Protocol::name`] but `Stream`,
    /// whose parentheses a shell would not take unquoted.
    pub fn token(&self) -> String {
        match self {
            Protocol::Stream => "Stream".into(),
            _ => self.name(),
        }
    }

    /// Parse a protocol name or token (case-insensitive; `homap4` style
    /// for priority-restricted Homa).
    pub fn parse(s: &str) -> Option<Protocol> {
        let l = s.to_ascii_lowercase();
        match l.as_str() {
            "homa" => Some(Protocol::Homa),
            "basic" => Some(Protocol::Basic),
            "stream" | "tcp" | "stream(tcp-like)" => Some(Protocol::Stream),
            "pfabric" => Some(Protocol::Pfabric),
            "phost" => Some(Protocol::Phost),
            "pias" => Some(Protocol::Pias),
            "ndp" => Some(Protocol::Ndp),
            _ => l.strip_prefix("homap").and_then(|n| n.parse::<u8>().ok()).map(Protocol::HomaP),
        }
    }

    /// Homa and its restricted forms: the only transports that run RPCs.
    pub fn homa_family(self) -> bool {
        matches!(self, Protocol::Homa | Protocol::HomaP(_) | Protocol::Basic)
    }
}

/// The Homa configuration used for a protocol variant, with cutoffs
/// derived from `dist` (the paper's §4 precomputed-priorities setup).
pub fn homa_config_for(p: Protocol) -> HomaConfig {
    match p {
        Protocol::Homa => HomaConfig::default(),
        Protocol::HomaP(n) => homa_px_config(n),
        Protocol::Basic => basic_config(),
        _ => HomaConfig::default(),
    }
}

/// The switch queue discipline a protocol requires, or `None` for the
/// default strict-priority fabric. pFabric needs priority-drop queues,
/// NDP trimming queues, PIAS ECN marking; everything else runs on
/// commodity strict priorities. No discipline depends on the workload
/// (`_dist`).
pub fn fabric_queues_for(p: Protocol, _dist: &MessageSizeDist) -> Option<QueueDiscipline> {
    match p {
        Protocol::Pfabric => Some(pfabric::fabric_queues(&PfabricConfig::default())),
        Protocol::Pias => Some(pias::fabric_queues(&PiasConfig::default())),
        Protocol::Ndp => Some(ndp::fabric_queues(&NdpConfig::default())),
        _ => None,
    }
}

/// Run the experiment a [`ScenarioSpec`] describes, in its shape, for
/// any protocol, honoring the spec's fabric, workload, load, seed,
/// traffic pattern and fault schedule; `variant` replaces the Homa
/// family's configuration ([`parse_run_line`] takes one for Homa only).
/// This is the one entry point of `repro`, the `perf-smoke` gate, the
/// determinism tests and the fuzz suites.
///
/// # Panics
/// On an RPC or incast spec for a protocol outside the Homa family,
/// which sends one-way messages only ([`parse_run_line`] rejects it).
pub fn run_protocol_scenario(
    p: Protocol,
    spec: &ScenarioSpec,
    opts: &OnewayOpts,
    variant: Option<Variant>,
) -> OnewayResult {
    let dist = spec.workload.dist();
    let queues = fabric_queues_for(p, &dist);
    let link = spec.topology().host_link_bps;
    match p {
        Protocol::Homa | Protocol::HomaP(_) | Protocol::Basic => {
            let cfg = variant.map_or_else(|| homa_config_for(p), |v| v.config());
            let map = static_map_for_workload(&dist, &cfg);
            spec.run(
                queues,
                |h| {
                    let t = HomaSimTransport::new(h, cfg.clone()).with_static_map(map.clone());
                    if opts.track_delay {
                        t.with_delay_tracking()
                    } else {
                        t
                    }
                },
                opts,
            )
        }
        Protocol::Stream => {
            spec.run(queues, |h| StreamTransport::new(h, StreamConfig::default()), opts)
        }
        Protocol::Pfabric => {
            spec.run(queues, |h| PfabricTransport::new(h, PfabricConfig::default()), opts)
        }
        Protocol::Phost => {
            spec.run(queues, move |h| PhostTransport::new(h, PhostConfig { link_bps: link }), opts)
        }
        Protocol::Pias => {
            // Eight levels' demotion thresholds, tuned to the workload.
            let pcfg = PiasConfig { thresholds: PiasConfig::thresholds_for(&dist, 8) };
            spec.run(queues, move |h| PiasTransport::new(h, pcfg.clone()), opts)
        }
        Protocol::Ndp => {
            spec.run(queues, move |h| NdpTransport::new(h, NdpConfig { link_bps: link }), opts)
        }
    }
}

/// A run as one line: `proto=<token>`, `variant=<label>` when a variant
/// configures it, then the spec line (which names the shape).
pub fn run_line(p: Protocol, variant: Option<Variant>, spec: &ScenarioSpec) -> String {
    let variant = variant.map(|v| format!(" variant={}", v.label())).unwrap_or_default();
    format!("proto={}{variant} {}", p.token(), spec.to_spec_line())
}

/// The run a [`run_line`] names. A line without `proto=` is Homa's, so a
/// bare spec line replays as it always did. An unknown protocol or
/// variant, a variant on any protocol but Homa (it would replace that
/// protocol's own configuration) and an RPC or incast shape for a
/// one-way-only transport are errors that name their field, like the
/// spec line's own.
pub fn parse_run_line(line: &str) -> Result<(Protocol, Option<Variant>, ScenarioSpec), String> {
    let (mut proto, mut variant, mut spec_fields) = (Protocol::Homa, None, Vec::new());
    for field in line.split_whitespace() {
        match field.split_once('=') {
            Some(("proto", v)) => {
                proto = Protocol::parse(v)
                    .ok_or_else(|| format!("field `proto`: unknown protocol `{v}`"))?
            }
            Some(("variant", v)) => {
                variant = Some(
                    Variant::parse(v)
                        .ok_or_else(|| format!("field `variant`: unknown variant `{v}`"))?,
                )
            }
            _ => spec_fields.push(field),
        }
    }
    let spec = ScenarioSpec::parse_spec_line(&spec_fields.join(" "))?;
    if let Some(v) = variant.filter(|_| proto != Protocol::Homa) {
        let label = v.label();
        return Err(format!("field `variant`: `{label}` configures Homa, not {}", proto.token()));
    }
    if !proto.homa_family() && spec.shape != Shape::Oneway {
        let shape = spec.shape.name();
        return Err(format!("field `shape`: {} sends no RPCs for shape={shape}", proto.token()));
    }
    Ok((proto, variant, spec))
}

/// A run's counts as `repro` logs them and `repro trace` reports them.
pub fn tally(res: &OnewayResult) -> String {
    format!(
        "delivered={} injected={} aborted={} events={}",
        res.delivered, res.injected, res.aborted, res.stats.events_processed
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use homa_harness::FabricSpec;
    use homa_workloads::Workload;

    const PROTOCOLS: [Protocol; 8] = [
        Protocol::Homa,
        Protocol::HomaP(4),
        Protocol::Basic,
        Protocol::Stream,
        Protocol::Pfabric,
        Protocol::Phost,
        Protocol::Pias,
        Protocol::Ndp,
    ];

    #[test]
    fn protocol_parse_round_trip() {
        for p in PROTOCOLS {
            assert_eq!(Protocol::parse(&p.name()), Some(p), "{}", p.name());
            assert_eq!(Protocol::parse(&p.token()), Some(p), "{}", p.token());
            assert!(p.token().chars().all(|c| c.is_ascii_alphanumeric()), "{}", p.token());
        }
        assert_eq!(Protocol::parse("tcp"), Some(Protocol::Stream));
        assert_eq!(Protocol::parse("nope"), None);
    }

    #[test]
    fn every_protocol_completes_a_tiny_run() {
        let spec = ScenarioSpec::new(
            "tiny_w2_6h",
            FabricSpec::SingleSwitch { hosts: 6 },
            Workload::W2,
            0.4,
            150,
            5,
        );
        for p in PROTOCOLS.into_iter().filter(|&p| p != Protocol::HomaP(4)) {
            let res = run_protocol_scenario(p, &spec, &OnewayOpts::default(), None);
            assert_eq!(res.injected, 150, "{}", p.name());
            assert!(res.delivered >= 148, "{} delivered only {}/150", p.name(), res.delivered);
        }
    }

    #[test]
    fn run_lines_default_to_homa_and_errors_name_their_field() {
        let spec = "name=a fabric=sw:16 wl=W4 load=0.8 msgs=10 seed=1";
        for (extra, want) in [
            ("proto=QUIC", "field `proto`: unknown protocol `QUIC`"),
            ("variant=sched=9", "field `variant`: unknown variant `sched=9`"),
            ("variant=turbo", "field `variant`: unknown variant `turbo`"),
            (
                "proto=pFabric variant=sched=1",
                "field `variant`: `sched=1` configures Homa, not pFabric",
            ),
            (
                "proto=Basic variant=sched=1",
                "field `variant`: `sched=1` configures Homa, not Basic",
            ),
            (
                "proto=HomaP4 variant=control",
                "field `variant`: `control` configures Homa, not HomaP4",
            ),
            ("proto=NDP shape=rpc", "field `shape`: NDP sends no RPCs for shape=rpc"),
            (
                "proto=Stream(TCP-like) shape=incast load=0",
                "field `shape`: Stream sends no RPCs for shape=incast",
            ),
            (
                "shape=incast",
                "field `load`: `0.8` with shape=incast: the rounds are closed-loop, so load=0",
            ),
        ] {
            let line = format!("{spec} {extra}");
            assert_eq!(parse_run_line(&line).map(drop), Err(want.to_string()), "{line}");
        }
        // A bare spec line is Homa's run, so older replay lines replay.
        let (p, variant, _) = parse_run_line(spec).expect("a spec line is a run line");
        assert_eq!((p, variant), (Protocol::Homa, None));
    }

    #[test]
    fn every_variant_a_figure_runs_is_named_by_its_label() {
        use figdata::{FIG10, FIG16, FIG17, FIG18, FIG19, FIG20};
        let ablations = [FIG17, FIG18, FIG19, FIG20].into_iter().flat_map(|a| a.variants);
        for v in ablations.chain(&FIG16).chain(&FIG10) {
            assert_eq!(Variant::parse(&v.label()), Some(*v), "{}", v.label());
        }
        // The FIG JSON `variant` columns these labels write.
        let labels = FIG10.map(|v| v.label()).join(" ") + " " + &FIG20.variants[3].label();
        assert_eq!(labels, "control no_control unsched_limit=RTTbytes");
    }
}
