//! From `--workload` and `--seed` to the inputs of a run. The seed is
//! consumed here and nowhere else: the program under test only ever
//! receives the generated specs and request plans.

use homa_bench::Protocol;
use homa_harness::{FabricSpec, ScenarioSpec, SplitMix64};
use homa_sim::{FaultPlan, HostId, LinkId};
use homa_workloads::{TrafficSpec, Workload};

/// The five workloads. `BENCHMARK.json` records why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// Homa, W4 at 80% load, 160 hosts: the event engine dominates.
    SimW4Fabric,
    /// Homa, W1 at 80% load, 160 hosts: the per-message path dominates.
    SimW1Small,
    /// pFabric, pHost, PIAS, NDP on W3 at 50%, then Homa under incast
    /// with link flaps: the other queue disciplines and the fault path.
    SimMixBaselines,
    /// W2-sized echo RPCs between two UDP nodes on loopback.
    UdpW2Rpc,
    /// 256 KiB requests between the same two nodes.
    UdpBulk256k,
}

impl WorkloadId {
    /// Every workload, in the order `--check` and `--aa` run them.
    pub const ALL: [WorkloadId; 5] = [
        WorkloadId::SimW4Fabric,
        WorkloadId::SimW1Small,
        WorkloadId::SimMixBaselines,
        WorkloadId::UdpW2Rpc,
        WorkloadId::UdpBulk256k,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::SimW4Fabric => "sim_w4_fabric",
            WorkloadId::SimW1Small => "sim_w1_small",
            WorkloadId::SimMixBaselines => "sim_mix_baselines",
            WorkloadId::UdpW2Rpc => "udp_w2_rpc",
            WorkloadId::UdpBulk256k => "udp_bulk_256k",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Full size, or the one-tenth sizes of `--check`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes every reported number uses.
    Full,
    /// One tenth of the messages: a smoke test of the benchmark itself.
    Tenth,
}

impl Scale {
    fn of(self, n: u64) -> u64 {
        match self {
            Scale::Full => n,
            Scale::Tenth => n / 10,
        }
    }
}

/// One simulator scenario of a workload.
#[derive(Debug, Clone)]
pub struct SimPart {
    /// Short label (`homa`, `pfabric`, ..., `incast_flap`) used in
    /// per-layer metric names.
    pub label: &'static str,
    /// The transport that runs it.
    pub protocol: Protocol,
    /// The scenario.
    pub spec: ScenarioSpec,
    /// Smallest delivered share that still counts as a correct run. Only
    /// the scenario with link flaps may lose messages: a one-way message
    /// whose every packet died on the downed link is unrecoverable.
    pub min_delivered_frac: f64,
    /// The `BENCH_BASELINE.json` row whose event count this scenario must
    /// reproduce at seed 42 and full scale, if it has one.
    pub baseline_row: Option<&'static str>,
}

/// The scenarios of a simulator workload, in run order; empty for the udp
/// workloads.
pub fn sim_parts(id: WorkloadId, seed: u64, scale: Scale) -> Vec<SimPart> {
    let fabric = FabricSpec::MultiTor { hosts: 160 };
    match id {
        // Same spec as perf-smoke's `w4_80_160h`.
        WorkloadId::SimW4Fabric => vec![SimPart {
            label: "homa",
            protocol: Protocol::Homa,
            spec: ScenarioSpec::new("w4_80_160h", fabric, Workload::W4, 0.8, scale.of(4_800), seed),
            min_delivered_frac: 1.0,
            baseline_row: Some("w4_80_160h"),
        }],
        WorkloadId::SimW1Small => vec![SimPart {
            label: "homa",
            protocol: Protocol::Homa,
            spec: ScenarioSpec::new(
                "w1_80_160h",
                fabric,
                Workload::W1,
                0.8,
                scale.of(200_000),
                seed,
            ),
            min_delivered_frac: 1.0,
            baseline_row: None,
        }],
        WorkloadId::SimMixBaselines => {
            let small = FabricSpec::MultiTor { hosts: 40 };
            let mut parts: Vec<SimPart> = [
                ("pfabric", Protocol::Pfabric),
                ("phost", Protocol::Phost),
                ("pias", Protocol::Pias),
                ("ndp", Protocol::Ndp),
            ]
            .into_iter()
            .map(|(label, protocol)| SimPart {
                label,
                protocol,
                spec: ScenarioSpec::new(
                    format!("w3_50_40h_{label}"),
                    small,
                    Workload::W3,
                    0.5,
                    scale.of(40_000),
                    seed,
                ),
                min_delivered_frac: 1.0,
                baseline_row: None,
            })
            .collect();
            // Same spec as perf-smoke's `incast20_flap_40h`.
            parts.push(SimPart {
                label: "incast_flap",
                protocol: Protocol::Homa,
                spec: ScenarioSpec::new(
                    "incast20_flap_40h",
                    small,
                    Workload::W4,
                    0.8,
                    scale.of(600),
                    seed,
                )
                .with_traffic(TrafficSpec::incast(20))
                .with_faults(FaultPlan::new().link_flaps(
                    LinkId::HostDownlink(HostId(0)),
                    5_000_000,
                    500_000,
                    10_000_000,
                    5,
                )),
                min_delivered_frac: 0.90,
                baseline_row: Some("incast20_flap_40h"),
            });
            parts
        }
        WorkloadId::UdpW2Rpc | WorkloadId::UdpBulk256k => Vec::new(),
    }
}

/// What the echo server sends back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// The request payload itself.
    Echo,
    /// The 8-byte checksum of the request payload.
    Checksum,
}

/// One request of an [`RpcPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Where its payload starts in the plan's pool.
    pub offset: u32,
    /// Payload length in bytes.
    pub len: u32,
    /// [`checksum`] of the payload.
    pub sum: u64,
}

/// The requests of one repeat of a udp workload, the same in every repeat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcPlan {
    /// Random bytes the request payloads are cut from.
    pub pool: Vec<u8>,
    /// The requests, in issue order.
    pub requests: Vec<Request>,
    /// RPCs the client keeps outstanding (closed loop).
    pub outstanding: usize,
    /// What the server replies.
    pub reply: Reply,
}

impl RpcPlan {
    /// The payload of request `i`.
    pub fn payload(&self, i: usize) -> &[u8] {
        let r = self.requests[i];
        &self.pool[r.offset as usize..(r.offset + r.len) as usize]
    }

    /// Request bytes plus response bytes of the whole plan.
    pub fn payload_bytes(&self) -> u64 {
        self.requests
            .iter()
            .map(|r| {
                u64::from(r.len)
                    + match self.reply {
                        Reply::Echo => u64::from(r.len),
                        Reply::Checksum => 8,
                    }
            })
            .sum()
    }
}

const POOL_BYTES: usize = 512 * 1024;
const BULK_BYTES: u32 = 256 * 1024;

/// The request plan of a udp workload; `None` for the simulator workloads.
pub fn rpc_plan(id: WorkloadId, seed: u64, scale: Scale) -> Option<RpcPlan> {
    let (count, outstanding, reply) = match id {
        WorkloadId::UdpW2Rpc => (scale.of(100_000), 8, Reply::Echo),
        WorkloadId::UdpBulk256k => (scale.of(1_500), 2, Reply::Checksum),
        _ => return None,
    };
    let mut rng = SplitMix64::new(seed ^ 0x7564_705f_706c_616e);
    let mut pool = vec![0u8; POOL_BYTES];
    for word in pool.chunks_exact_mut(8) {
        word.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let dist = Workload::W2.dist();
    let mut requests = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let len = match id {
            WorkloadId::UdpBulk256k => BULK_BYTES,
            // 53 random bits make a uniform draw in [0, 1).
            _ => dist.quantile((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64) as u32,
        };
        let offset = rng.below((POOL_BYTES as u32 - len + 1).into()) as u32;
        let sum = checksum(&pool[offset as usize..(offset + len) as usize]);
        requests.push(Request { offset, len, sum });
    }
    Some(RpcPlan { pool, requests, outstanding, reply })
}

/// A 64-bit checksum of `data`, eight bytes at a step (an FNV-style
/// multiply-xor over words, then the tail bytes and the length).
pub fn checksum(data: &[u8]) -> u64 {
    const K: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes")))
            .wrapping_mul(K)
            .rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K);
    }
    (h ^ data.len() as u64).wrapping_mul(K)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        for id in [WorkloadId::UdpW2Rpc, WorkloadId::UdpBulk256k] {
            let a = rpc_plan(id, 7, Scale::Tenth).expect("udp workload");
            assert_eq!(a, rpc_plan(id, 7, Scale::Tenth).expect("udp workload"));
            assert_ne!(a, rpc_plan(id, 8, Scale::Tenth).expect("udp workload"));
        }
        for id in [WorkloadId::SimW4Fabric, WorkloadId::SimW1Small, WorkloadId::SimMixBaselines] {
            let specs = |seed| -> Vec<ScenarioSpec> {
                sim_parts(id, seed, Scale::Full).into_iter().map(|p| p.spec).collect()
            };
            assert_eq!(specs(7), specs(7));
            assert_ne!(specs(7), specs(8));
            assert!(rpc_plan(id, 7, Scale::Full).is_none());
        }
    }

    #[test]
    fn plans_have_the_documented_shape() {
        let w2 = rpc_plan(WorkloadId::UdpW2Rpc, 42, Scale::Full).expect("udp workload");
        assert_eq!((w2.requests.len(), w2.outstanding, w2.reply), (100_000, 8, Reply::Echo));
        let mean = w2.requests.iter().map(|r| f64::from(r.len)).sum::<f64>() / 100_000.0;
        assert!((300.0..700.0).contains(&mean), "W2 mean request is {mean} B");
        assert!(w2.requests.iter().all(|r| r.len >= 1 && r.len <= 262_144));
        let bulk = rpc_plan(WorkloadId::UdpBulk256k, 42, Scale::Full).expect("udp workload");
        assert_eq!((bulk.requests.len(), bulk.outstanding), (1_500, 2));
        assert!(bulk.requests.iter().all(|r| r.len == 262_144));
        assert_eq!(bulk.payload_bytes(), 1_500 * (262_144 + 8));
        assert_eq!(checksum(bulk.payload(3)), bulk.requests[3].sum);
    }

    #[test]
    fn workload_names_round_trip_and_follow_the_name_rule() {
        for w in WorkloadId::ALL {
            assert_eq!(WorkloadId::parse(w.name()), Some(w));
            assert!(crate::metrics::valid_name(w.name()));
        }
        assert_eq!(WorkloadId::parse("sim_w5"), None);
    }

    #[test]
    fn checksum_sees_every_byte_and_the_length() {
        let base = vec![0u8; 19];
        let sum = checksum(&base);
        for i in 0..base.len() {
            let mut d = base.clone();
            d[i] = 1;
            assert_ne!(checksum(&d), sum, "byte {i}");
        }
        assert_ne!(checksum(&base[..18]), sum);
    }
}
