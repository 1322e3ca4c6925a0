//! Isolated loops over one layer's public API each, fed the inputs the
//! workload generated where the layer takes inputs.

use homa::packets::{DataHeader, Dir, GrantHeader, HomaPacket, MsgKey, PeerId};
use homa::{HomaConfig, HomaEndpoint, HomaEvent};
use homa_baselines::{ndp, pfabric, NdpConfig, PfabricConfig};
use homa_harness::SplitMix64;
use homa_sim::queues::PortQueue;
use homa_sim::{HierEventQueue, HostId, LaneId, Packet, PacketMeta, QueueDiscipline, SimTime};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Best of `rounds` timings of `f`, in nanoseconds per `ops` operations.
fn best_ns_per_op(rounds: usize, ops: u64, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    best
}

/// A fixed arithmetic loop that touches no memory beyond a 512 KiB table:
/// nanoseconds per iteration. Timed before and after a run, it tells a
/// slow machine from a slow program.
pub fn canary_ns() -> f64 {
    const ITERS: u64 = 2_000_000;
    let mut table = vec![0u64; 1 << 16];
    best_ns_per_op(5, ITERS, || {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut table[(x & 0xffff) as usize];
            *slot = slot.wrapping_add(x ^ i);
        }
        black_box(&table);
    })
}

/// `HierEventQueue` under the hold model: `PENDING` events pending over
/// `lanes` lanes; each step pops the earliest and schedules a new one a
/// per-hop delay later. Nanoseconds per pop-and-schedule pair.
pub fn event_churn_ns(lanes: u32) -> f64 {
    const PENDING: u64 = 4_096;
    const STEPS: u64 = 400_000;
    let lanes = lanes.max(1);
    let mut rng = SplitMix64::new(1);
    // Serialization and switch delays of the simulated fabric run from a
    // few hundred nanoseconds to a few microseconds.
    let mut delay = move || 200 + rng.below(3_800);
    best_ns_per_op(3, STEPS, || {
        let mut q: HierEventQueue<u64> = HierEventQueue::new(lanes);
        for i in 0..PENDING {
            q.schedule(LaneId((i % u64::from(lanes)) as u32), SimTime::from_nanos(delay()), i);
        }
        for i in 0..STEPS {
            let (at, payload) = q.pop().expect("the queue never drains");
            let lane = LaneId((payload % u64::from(lanes)) as u32);
            q.schedule(lane, SimTime::from_nanos(at.as_nanos() + delay()), payload ^ i);
        }
        black_box(q.len());
    })
}

/// Packet metadata for the queue probe: a data packet of a message with
/// `remaining` bytes to go, trimmable to its header.
#[derive(Debug, Clone)]
struct ProbeMeta {
    bytes: u32,
    prio: u8,
    remaining: u64,
}

impl PacketMeta for ProbeMeta {
    fn wire_bytes(&self) -> u32 {
        self.bytes
    }
    fn priority(&self) -> u8 {
        self.prio
    }
    fn fine_priority(&self) -> Option<u64> {
        Some(self.remaining)
    }
    fn is_control(&self) -> bool {
        false
    }
    fn goodput_bytes(&self) -> u32 {
        self.bytes.saturating_sub(60)
    }
    fn trimmed(&self) -> Option<Self> {
        Some(ProbeMeta { bytes: 60, ..self.clone() })
    }
}

/// `PortQueue::{enqueue, dequeue}` under discipline `disc`, at a standing
/// depth of 1 and of 64 packets: nanoseconds per packet through the
/// queue, the mean of the two depths.
fn queue_ns_per_pkt(disc: QueueDiscipline) -> f64 {
    const STEPS: u64 = 200_000;
    let mut total = 0.0;
    for depth in [1u64, 64] {
        total += best_ns_per_op(3, STEPS, || {
            let mut rng = SplitMix64::new(depth);
            let mut q: PortQueue<ProbeMeta> = PortQueue::new(disc);
            let mut pkt = move || {
                let meta = ProbeMeta {
                    bytes: 1_460,
                    prio: rng.below(8) as u8,
                    remaining: 1 + rng.below(1_000_000),
                };
                Packet::new(HostId(0), HostId(1), meta)
            };
            let mut now = 0u64;
            for _ in 1..depth {
                q.enqueue(SimTime::from_nanos(now), pkt(), None);
            }
            for _ in 0..STEPS {
                now += 1_200;
                q.enqueue(SimTime::from_nanos(now), pkt(), None);
                black_box(q.dequeue(SimTime::from_nanos(now)));
            }
        });
    }
    total / 2.0
}

/// Queue cost under the three disciplines the simulator workloads use:
/// `(strict priority, pFabric, NDP trimming)`.
pub fn queue_costs_ns() -> (f64, f64, f64) {
    (
        queue_ns_per_pkt(QueueDiscipline::strict8(1 << 20)),
        queue_ns_per_pkt(pfabric::fabric_queues(&PfabricConfig::default())),
        queue_ns_per_pkt(ndp::fabric_queues(&NdpConfig::default())),
    )
}

/// What the codec probe measured.
#[derive(Debug, Clone, Copy)]
pub struct WireCosts {
    /// `encode` of a 1,400-byte DATA packet, ns.
    pub encode_data_ns: f64,
    /// `decode` of it, ns.
    pub decode_data_ns: f64,
    /// `encode` of a GRANT, ns.
    pub encode_ctrl_ns: f64,
    /// `decode` of it, ns.
    pub decode_ctrl_ns: f64,
    /// Heap allocations per DATA packet encoded and decoded.
    pub allocs_per_pkt: f64,
}

/// `homa_wire::{encode, decode}` on a full DATA packet and a GRANT.
pub fn wire_costs() -> WireCosts {
    const OPS: u64 = 200_000;
    let key = MsgKey { origin: PeerId(3), seq: 77, dir: Dir::Request };
    let data = HomaPacket::Data(DataHeader {
        key,
        msg_len: 1_000_000,
        offset: 42_000,
        payload: 1_400,
        prio: 5,
        unscheduled: false,
        retransmit: false,
        incast_mark: false,
        tag: 9,
    });
    let payload = vec![0xab_u8; 1_400];
    let grant = HomaPacket::Grant(GrantHeader { key, offset: 123, prio: 3, cutoffs: None });
    let data_wire = homa_wire::encode(&data, &payload);
    let grant_wire = homa_wire::encode(&grant, &[]);
    let time = |f: &mut dyn FnMut()| {
        best_ns_per_op(3, OPS, || {
            for _ in 0..OPS {
                f();
            }
        })
    };
    let encode_data_ns = time(&mut || {
        black_box(homa_wire::encode(black_box(&data), black_box(&payload)));
    });
    let decode_data_ns = time(&mut || {
        black_box(homa_wire::decode(black_box(&data_wire)).expect("valid"));
    });
    let encode_ctrl_ns = time(&mut || {
        black_box(homa_wire::encode(black_box(&grant), &[]));
    });
    let decode_ctrl_ns = time(&mut || {
        black_box(homa_wire::decode(black_box(&grant_wire)).expect("valid"));
    });
    crate::alloc::enable();
    for _ in 0..1_000 {
        let wire = homa_wire::encode(black_box(&data), black_box(&payload));
        black_box(homa_wire::decode(&wire).expect("valid"));
    }
    let allocs_per_pkt = crate::alloc::disable().count as f64 / 1_000.0;
    WireCosts { encode_data_ns, decode_data_ns, encode_ctrl_ns, decode_ctrl_ns, allocs_per_pkt }
}

/// What the endpoint probe measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreCosts {
    /// Nanoseconds of endpoint work per packet moved.
    pub ns_per_pkt: f64,
    /// Microseconds of endpoint work per RPC (or one-way message).
    pub us_per_rpc: f64,
    /// Packets per RPC, data and control, both directions.
    pub pkts_per_rpc: f64,
    /// Of those, DATA packets.
    pub data_pkts_per_rpc: f64,
    /// GRANTs issued per message.
    pub grants_per_msg: f64,
    /// RESENDs issued.
    pub resends: u64,
    /// Most outbound messages either endpoint held at once.
    pub outbound_peak: usize,
}

/// What the messages of a core probe are.
#[derive(Debug, Clone, Copy)]
pub enum CoreTraffic {
    /// Echo RPCs: the response is as long as the request.
    RpcEcho,
    /// RPCs with an 8-byte response.
    RpcChecksum,
    /// One-way messages.
    Oneway,
}

/// Two `HomaEndpoint`s joined by in-memory queues, replaying `sizes`
/// with `window` messages in flight, through `begin_rpc` /
/// `send_message`, `poll_transmit`, `on_packet`, `send_response` and
/// `timer_tick`. No fabric, no sockets, no payload bytes: the protocol
/// state machine alone. Time advances 1 µs per shuttle round, so no loss
/// timer ever fires.
pub fn core_costs(sizes: &[u64], window: usize, traffic: CoreTraffic) -> CoreCosts {
    if sizes.is_empty() {
        return CoreCosts::default();
    }
    let (ca, cb) = (PeerId(0), PeerId(1));
    let mut a = HomaEndpoint::new(ca, HomaConfig::default());
    let mut b = HomaEndpoint::new(cb, HomaConfig::default());
    let mut wire_ab: VecDeque<HomaPacket> = VecDeque::new();
    let mut wire_ba: VecDeque<HomaPacket> = VecDeque::new();
    let (mut next, mut inflight, mut done) = (0usize, 0usize, 0usize);
    let (mut packets, mut data_packets, mut now, mut outbound_peak) = (0u64, 0u64, 0u64, 0usize);
    let mut idle_rounds = 0u32;
    let start = Instant::now();
    while done < sizes.len() {
        while next < sizes.len() && inflight < window {
            match traffic {
                CoreTraffic::Oneway => a.send_message(now, cb, sizes[next], next as u64),
                _ => a.begin_rpc(now, cb, sizes[next], next as u64),
            };
            next += 1;
            inflight += 1;
        }
        now += 1_000;
        // A bounded burst per side per round, as a NIC queue would allow.
        for _ in 0..8 {
            let Some((_, pkt)) = a.poll_transmit(now) else { break };
            wire_ab.push_back(pkt);
        }
        for _ in 0..8 {
            let Some((_, pkt)) = b.poll_transmit(now) else { break };
            wire_ba.push_back(pkt);
        }
        let moved = (wire_ab.len() + wire_ba.len()) as u64;
        packets += moved;
        data_packets +=
            wire_ab.iter().chain(&wire_ba).filter(|p| matches!(p, HomaPacket::Data(_))).count()
                as u64;
        idle_rounds = if moved == 0 { idle_rounds + 1 } else { 0 };
        assert!(idle_rounds < 100_000, "core probe stalled with {inflight} messages in flight");
        for pkt in wire_ab.drain(..) {
            b.on_packet(now, ca, pkt);
        }
        for pkt in wire_ba.drain(..) {
            a.on_packet(now, cb, pkt);
        }
        for ev in b.take_events() {
            match ev {
                HomaEvent::RequestArrived { client, rpc_seq, len, .. } => {
                    let resp = if matches!(traffic, CoreTraffic::RpcEcho) { len } else { 8 };
                    b.send_response(now, client, rpc_seq, resp, rpc_seq);
                }
                HomaEvent::MessageDelivered { .. } => {
                    done += 1;
                    inflight -= 1;
                }
                _ => {}
            }
        }
        for ev in a.take_events() {
            if matches!(ev, HomaEvent::RpcCompleted { .. }) {
                done += 1;
                inflight -= 1;
            }
        }
        if now % 256_000 == 0 {
            a.timer_tick(now);
            b.timer_tick(now);
        }
        outbound_peak = outbound_peak.max(a.outbound_count()).max(b.outbound_count());
    }
    let ns = start.elapsed().as_nanos() as f64;
    let msgs = match traffic {
        CoreTraffic::Oneway => sizes.len(),
        _ => 2 * sizes.len(),
    };
    CoreCosts {
        ns_per_pkt: ns / packets.max(1) as f64,
        us_per_rpc: ns / 1e3 / sizes.len() as f64,
        pkts_per_rpc: packets as f64 / sizes.len() as f64,
        data_pkts_per_rpc: data_packets as f64 / sizes.len() as f64,
        grants_per_msg: (a.grants_issued() + b.grants_issued()) as f64 / msgs as f64,
        resends: a.resends_sent() + b.resends_sent(),
        outbound_peak,
    }
}
