//! Command-line arguments, shared by the measured and the traced binary.

use crate::plan::WorkloadId;

/// What the command line asked for.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload <name>`; `--check` and `--aa` run all five without it.
    pub workload: Option<WorkloadId>,
    /// `--seed <u64>`: every input is generated from it.
    pub seed: u64,
    /// `--seconds <n>`: how long one run measures.
    pub seconds: f64,
    /// `--trace 1` (or a bare `--trace`): the per-layer run.
    pub trace: bool,
    /// `--check`: one-tenth sizes, two repeats, all output checks.
    pub check: bool,
    /// `--aa <n>`: two interleaved sets of `n` runs of every workload.
    pub aa: Option<usize>,
}

/// The usage text.
pub const USAGE: &str =
    "usage: run.sh --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]
       run.sh --check [--workload <name>] [--seed <u64>]
       run.sh --aa <n> [--seconds <n>]
workloads: sim_w4_fabric sim_w1_small sim_mix_baselines udp_w2_rpc udp_bulk_256k";

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut out =
        Args { workload: None, seed: 42, seconds: 12.0, trace: false, check: false, aa: None };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                out.workload = Some(
                    WorkloadId::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                out.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                out.seconds = s;
            }
            "--trace" => {
                // `--trace 0|1` for the driver, a bare `--trace` for people.
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--check" => out.check = true,
            "--aa" => {
                let n: usize = value("a count")?.parse().map_err(|e| format!("--aa: {e}"))?;
                if n == 0 {
                    return Err("--aa needs at least 1 run per set".into());
                }
                out.aa = Some(n);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.workload.is_none() && !out.check && out.aa.is_none() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_form_parses() {
        let a = parse(&args("--workload udp_w2_rpc --seed 7 --seconds 15 --trace 0")).expect("ok");
        assert_eq!(a.workload, Some(WorkloadId::UdpW2Rpc));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15.0, false));
        assert!(parse(&args("--workload udp_w2_rpc --trace 1")).expect("ok").trace);
        assert!(parse(&args("--trace --workload udp_w2_rpc")).expect("ok").trace);
    }

    #[test]
    fn bad_input_is_refused_with_a_reason() {
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "--workload sim_w1_small --seed x",
            "--workload sim_w1_small --seconds 0",
            "--workload sim_w1_small --frobnicate",
            "--aa 0",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
        assert!(parse(&args("--check")).is_ok());
        assert_eq!(parse(&args("--aa 5")).expect("ok").aa, Some(5));
    }
}
