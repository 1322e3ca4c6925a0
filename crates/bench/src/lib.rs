//! # homa-bench — shared experiment dispatch for the `repro` binary, the
//! `perf-smoke` gate and the benchmark.
//!
//! The paper compares seven transports. [`Protocol`] names them and
//! [`run_protocol_scenario`] / [`run_protocol_rpc_scenario`] dispatch a
//! harness [`ScenarioSpec`] to the right transport/fabric combination
//! (each protocol needs its own queue discipline in the switches, per
//! its original design).
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

use homa::HomaConfig;
use homa_baselines::{
    homa_sim::{basic_config, homa_px_config, static_map_for_workload},
    ndp, pfabric, pias, HomaSimTransport, NdpConfig, NdpTransport, PfabricConfig, PfabricTransport,
    PhostConfig, PhostTransport, PiasConfig, PiasTransport, StreamConfig, StreamTransport,
};
use homa_harness::driver::{OnewayOpts, OnewayResult};
use homa_harness::ScenarioSpec;
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

    /// Parse a protocol name (case-insensitive; `homap4` style for
    /// priority-restricted Homa).
    pub fn parse(s: &str) -> Option<Protocol> {
        let l = s.to_ascii_lowercase();
        match l.as_str() {
            "homa" => Some(Protocol::Homa),
            "basic" => Some(Protocol::Basic),
            "stream" | "tcp" => Some(Protocol::Stream),
            "pfabric" => Some(Protocol::Pfabric),
            "phost" => Some(Protocol::Phost),
            "pias" => Some(Protocol::Pias),
            "ndp" => Some(Protocol::Ndp),
            _ => l.strip_prefix("homap").and_then(|n| n.parse::<u8>().ok()).map(Protocol::HomaP),
        }
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
/// commodity strict priorities.
pub fn fabric_queues_for(p: Protocol, dist: &MessageSizeDist) -> Option<QueueDiscipline> {
    match p {
        Protocol::Pfabric => Some(pfabric::fabric_queues(&PfabricConfig::default())),
        Protocol::Pias => Some(pias::fabric_queues(&pias_config_for(dist))),
        Protocol::Ndp => Some(ndp::fabric_queues(&NdpConfig::default())),
        _ => None,
    }
}

/// PIAS with its eight levels' demotion thresholds tuned to `dist`.
fn pias_config_for(dist: &MessageSizeDist) -> PiasConfig {
    PiasConfig { thresholds: PiasConfig::thresholds_for(dist, 8), ..PiasConfig::default() }
}

/// Run the one-way experiment a [`ScenarioSpec`] describes for any
/// protocol, honoring the spec's fabric, workload, load, seed, event
/// engine, traffic pattern and fault schedule. This is the entry point
/// the `perf-smoke` gate, the determinism tests and the fuzz suites use.
pub fn run_protocol_scenario(
    p: Protocol,
    spec: &ScenarioSpec,
    opts: &OnewayOpts,
    homa_override: Option<HomaConfig>,
) -> OnewayResult {
    let dist = spec.workload.dist();
    let queues = || fabric_queues_for(p, &dist);
    let link = spec.topology().host_link_bps;
    match p {
        Protocol::Homa | Protocol::HomaP(_) | Protocol::Basic => {
            let cfg = homa_override.unwrap_or_else(|| homa_config_for(p));
            let map = static_map_for_workload(&dist, &cfg);
            spec.run_oneway(
                queues(),
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
            spec.run_oneway(queues(), |h| StreamTransport::new(h, StreamConfig::default()), opts)
        }
        Protocol::Pfabric => {
            spec.run_oneway(queues(), |h| PfabricTransport::new(h, PfabricConfig::default()), opts)
        }
        Protocol::Phost => spec.run_oneway(
            queues(),
            move |h| {
                PhostTransport::new(h, PhostConfig { link_bps: link, ..PhostConfig::default() })
            },
            opts,
        ),
        Protocol::Pias => {
            // The fabric and the hosts take the same config: derive it once.
            let pcfg = pias_config_for(&dist);
            let queues = Some(pias::fabric_queues(&pcfg));
            spec.run_oneway(queues, move |h| PiasTransport::new(h, pcfg.clone()), opts)
        }
        Protocol::Ndp => spec.run_oneway(
            queues(),
            move |h| NdpTransport::new(h, NdpConfig { link_bps: link, ..NdpConfig::default() }),
            opts,
        ),
    }
}

/// Run the §5.1 echo-RPC experiment (Figures 8/9) a [`ScenarioSpec`]
/// describes. Only the RAMCloud-comparable transports support RPCs.
pub fn run_protocol_rpc_scenario(
    p: Protocol,
    spec: &ScenarioSpec,
    opts: &OnewayOpts,
) -> OnewayResult {
    match p {
        Protocol::Homa | Protocol::HomaP(_) | Protocol::Basic => {
            let cfg = homa_config_for(p);
            let map = static_map_for_workload(&spec.workload.dist(), &cfg);
            spec.run_rpc_echo(
                None,
                |h| HomaSimTransport::new(h, cfg.clone()).with_static_map(map.clone()),
                opts,
            )
        }
        other => panic!("{} does not support the RPC echo benchmark", other.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homa_harness::FabricSpec;
    use homa_workloads::Workload;

    #[test]
    fn protocol_parse_round_trip() {
        for p in [
            Protocol::Homa,
            Protocol::HomaP(4),
            Protocol::Basic,
            Protocol::Pfabric,
            Protocol::Phost,
            Protocol::Pias,
            Protocol::Ndp,
        ] {
            assert_eq!(Protocol::parse(&p.name()), Some(p), "{}", p.name());
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
        for p in [
            Protocol::Homa,
            Protocol::Basic,
            Protocol::Stream,
            Protocol::Pfabric,
            Protocol::Phost,
            Protocol::Pias,
            Protocol::Ndp,
        ] {
            let res = run_protocol_scenario(p, &spec, &OnewayOpts::default(), None);
            assert_eq!(res.injected, 150, "{}", p.name());
            assert!(res.delivered >= 148, "{} delivered only {}/150", p.name(), res.delivered);
        }
    }

    #[test]
    fn rpc_scenario_dispatch_runs_homa_family() {
        // Eight clients (the echo shape's constant) and four servers.
        let spec = ScenarioSpec::new(
            "rpc_w1_12h",
            FabricSpec::SingleSwitch { hosts: 12 },
            Workload::W1,
            0.3,
            120,
            3,
        );
        let res = run_protocol_rpc_scenario(Protocol::Homa, &spec, &OnewayOpts::default());
        assert_eq!(res.injected, 120);
        assert!(res.delivered >= 118, "only {}/120 RPCs completed", res.delivered);
    }
}
