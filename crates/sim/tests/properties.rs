//! Properties of the simulation kernel. Each case builds its whole input
//! from one seed, so a failure is a seed that fails alone:
//! `HOMA_FUZZ_REPLAY='sim-properties:seed=<n>' cargo test -p homa-sim --test properties`.

use homa_harness::{FuzzFamily, SplitMix64};
use homa_sim::queues::{EnqueueOutcome, PortQueue};
use homa_sim::{
    EventQueue, HierEventQueue, HostId, LaneId, Packet, PacketMeta, QueueDiscipline, QueueKind,
    SimDuration, SimTime,
};

const FAMILY: FuzzFamily = FuzzFamily::new("sim-properties");

#[derive(Debug, Clone)]
struct M {
    /// Identity in the lag property; 0 elsewhere.
    id: u32,
    bytes: u32,
    prio: u8,
    remaining: u64,
    ctrl: bool,
}

impl PacketMeta for M {
    fn wire_bytes(&self) -> u32 {
        self.bytes
    }
    fn priority(&self) -> u8 {
        self.prio
    }
    fn fine_priority(&self) -> Option<u64> {
        if self.ctrl {
            None
        } else {
            Some(self.remaining)
        }
    }
    fn is_control(&self) -> bool {
        self.ctrl
    }
    fn goodput_bytes(&self) -> u32 {
        self.bytes
    }
    fn trimmed(&self) -> Option<Self> {
        if self.ctrl {
            None
        } else {
            Some(M { bytes: 60, ..self.clone() })
        }
    }
}

fn arb_meta(rng: &mut SplitMix64) -> M {
    M {
        id: 0,
        bytes: rng.edge_range(60, 1_999) as u32,
        prio: rng.edge_range(0, 7) as u8,
        remaining: rng.edge_range(0, 999_999),
        ctrl: rng.chance(1, 2),
    }
}

/// A port under `kind` with no byte cap to speak of and no ECN.
fn port(kind: QueueKind) -> PortQueue<M> {
    PortQueue::new(QueueDiscipline { kind, cap_bytes: 1 << 30, ecn: None })
}

/// A [`port`] offered between one and `max` arbitrary packets a
/// nanosecond apart, with their count and total bytes.
fn offered_port(rng: &mut SplitMix64, kind: QueueKind, max: u64) -> (PortQueue<M>, usize, u64) {
    let mut q = port(kind);
    let (n, mut bytes) = (rng.range(1, max), 0);
    for i in 0..n {
        let pkt = Packet::new(HostId(0), HostId(1), arb_meta(rng));
        bytes += pkt.meta.bytes as u64;
        q.enqueue(SimTime::from_nanos(i), pkt, None);
    }
    (q, n as usize, bytes)
}

#[test]
fn event_queue_pops_sorted() {
    FAMILY.check_seeds("event_queue_pops_sorted", |rng| {
        let mut q = EventQueue::new();
        let scheduled = rng.range(1, 199);
        for i in 0..scheduled {
            q.schedule(SimTime::from_nanos(rng.edge_range(0, 999_999)), i);
        }
        let mut prev = SimTime::ZERO;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= prev);
            prev = t;
            n += 1;
        }
        assert_eq!(n, scheduled);
    });
}

#[test]
fn strict_priority_conserves_packets_and_bytes() {
    FAMILY.check_seeds("strict_priority_conserves_packets_and_bytes", |rng| {
        let (mut q, n, bytes) = offered_port(rng, QueueKind::StrictPriority, 99);
        assert_eq!(q.bytes(), bytes);
        assert_eq!(q.len(), n);
        // Dequeue: priorities never increase.
        let mut prev = u8::MAX;
        let mut out = 0;
        while let Some(p) = q.dequeue(SimTime::from_micros(1)) {
            assert!(p.priority() <= prev);
            prev = p.priority();
            out += 1;
        }
        assert_eq!(out, n);
        assert_eq!(q.bytes(), 0);
    });
}

#[test]
fn pfabric_dequeues_in_remaining_order_among_data() {
    FAMILY.check_seeds("pfabric_dequeues_in_remaining_order_among_data", |rng| {
        let (mut q, ..) = offered_port(rng, QueueKind::Pfabric, 79);
        // Control packets drain first, then data in ascending remaining.
        let mut seen_data = false;
        let mut prev_rem = 0u64;
        while let Some(p) = q.dequeue(SimTime::from_micros(1)) {
            match p.meta.fine_priority() {
                None => assert!(!seen_data, "control after data"),
                Some(r) => {
                    if seen_data {
                        assert!(r >= prev_rem, "remaining order violated");
                    }
                    seen_data = true;
                    prev_rem = r;
                }
            }
        }
    });
}

#[test]
fn ndp_never_drops_data_it_can_trim() {
    FAMILY.check_seeds("ndp_never_drops_data_it_can_trim", |rng| {
        let (mut q, n, _) = offered_port(rng, QueueKind::NdpTrim, 99);
        assert_eq!(q.drops, 0, "trimmable data is never dropped");
        // Every packet (possibly trimmed) comes back out.
        let mut out = 0;
        while q.dequeue(SimTime::from_micros(1)).is_some() {
            out += 1;
        }
        assert_eq!(out, n);
    });
}

/// One port under each discipline: packets arrive while the link is busy
/// or idle, and whenever it is idle the next packet is dequeued and put
/// on the wire. A packet's preemption lag is exactly what it was credited
/// at arrival, the rest of the transmission of a packet it outranks (an
/// NDP arrival ranks as the trimmed header it may become), and nothing
/// ever waits that outranks a packet the port starts.
#[test]
fn preemption_lag_is_the_outranked_residual_at_arrival() {
    /// The reference rank of each discipline, written from its
    /// definition: priority, then pFabric's control-first and
    /// fewest-remaining-bytes, then NDP's control-or-trimmed first.
    fn outranks(kind: QueueKind, a: &Packet<M>, b: &Packet<M>) -> bool {
        match kind {
            QueueKind::StrictPriority => a.meta.prio > b.meta.prio,
            QueueKind::Pfabric => match (a.meta.ctrl, b.meta.ctrl) {
                (true, false) => true,
                (false, false) => a.meta.remaining < b.meta.remaining,
                _ => false,
            },
            QueueKind::NdpTrim => {
                let high = |p: &Packet<M>| p.meta.ctrl || p.was_trimmed;
                high(a) && !high(b)
            }
        }
    }
    FAMILY.check_seeds("preemption_lag_is_the_outranked_residual_at_arrival", |rng| {
        let kind = [QueueKind::StrictPriority, QueueKind::Pfabric, QueueKind::NdpTrim]
            [rng.below(3) as usize];
        let mut q = port(kind);
        // Each waiting packet's arrival time and expected lag, by id.
        let mut waiting = std::collections::HashMap::new();
        let mut sending: Option<(Packet<M>, SimTime)> = None;
        let mut now = 0u64;
        for id in 0..rng.range(1, 299) as u32 {
            now += rng.edge_range(1, 399);
            if sending.as_ref().is_some_and(|(_, ends)| ends.as_nanos() <= now) {
                sending = None;
            }
            if rng.chance(1, 2) {
                // Few distinct remaining sizes, so pFabric ties are common.
                let remaining = rng.edge_range(0, 3);
                let pkt = Packet::new(HostId(0), HostId(1), M { id, remaining, ..arb_meta(rng) });
                let mut queued = pkt.clone();
                let in_flight = sending.as_ref().map(|(p, t)| (p, *t));
                let outcome = q.enqueue(SimTime::from_nanos(now), pkt, in_flight);
                assert_ne!(outcome, EnqueueOutcome::Dropped);
                queued.was_trimmed = outcome == EnqueueOutcome::Trimmed;
                let lag = match &sending {
                    Some((s, ends)) if outranks(kind, &queued, s) => ends.as_nanos() - now,
                    _ => 0,
                };
                waiting.insert(id, (now, lag));
            }
            if sending.is_none() {
                if let Some(p) = q.dequeue(SimTime::from_nanos(now)) {
                    assert!(
                        !q.waiting_outranks(&p),
                        "started {p:?} while a waiting packet outranks it"
                    );
                    let (at, lag) = waiting.remove(&p.meta.id).expect("dequeued a packet once");
                    assert_eq!(p.delay.preemption_lag.as_nanos(), lag, "{kind:?} lag of {p:?}");
                    assert_eq!(p.delay.queueing.as_nanos(), now - at - lag, "{kind:?} queueing");
                    let dur = SimDuration::serialization(p.wire_bytes() as u64, 10_000_000_000);
                    sending = Some((p, SimTime::from_nanos(now) + dur));
                }
            }
            assert_eq!(q.len(), waiting.len());
        }
    });
}

/// Packet sizes, sizes either side of the largest whose bit count times
/// 10⁹ still fits a u64, and sizes far beyond it.
#[test]
fn serialization_in_64_bits_equals_the_128_bit_formula() {
    FAMILY.check_seeds("serialization_in_64_bits_equals_the_128_bit_formula", |rng| {
        let x = rng.edge_range(0, 3_999_999_999);
        let rate = rng.edge_range(1, 400_000_000_000);
        let edge = u64::MAX / 8_000_000_000;
        let bytes = match rng.below(3) {
            0 => x % 10_000,
            1 => edge - 1_000 + x % 2_000,
            _ => edge + x,
        };
        let wide = (bytes as u128 * 8_000_000_000).div_ceil(rate as u128) as u64;
        assert_eq!(SimDuration::serialization(bytes, rate).as_nanos(), wide);
    });
}

/// Bimodal times: near-term events (up to 200 µs, so many land past the
/// wheel's 8,192 ns horizon; one drawn before the latest pop is moved up
/// to it) plus timers a full second out, interleaved with pops. The wheel
/// must stay in (time, seq) lockstep with the plain heap through wheel
/// and far-heap inserts and far-to-wheel migrations alike.
#[test]
fn calendar_matches_heap_with_far_future_timers() {
    FAMILY.check_seeds("calendar_matches_heap_with_far_future_timers", |rng| {
        let mut flat: EventQueue<usize> = EventQueue::new();
        let mut hier: HierEventQueue<usize> = HierEventQueue::new(5);
        // The latest instant popped: nothing may be scheduled before it.
        let mut base = SimTime::ZERO;
        for i in 0..rng.range(1, 299) as usize {
            let (kind, t) = (rng.edge_range(0, 3), rng.edge_range(0, 199_999));
            let (far, lane) = (rng.chance(1, 2), rng.edge_range(0, 4) as u32);
            let popped = match kind {
                0 | 1 => {
                    let at = if far {
                        SimTime::from_nanos(1_000_000_000 + t * 37)
                    } else {
                        SimTime::from_nanos(t)
                    }
                    .max(base);
                    flat.schedule(at, i);
                    hier.schedule(LaneId(lane), at, i);
                    None
                }
                2 => {
                    let got = hier.pop();
                    assert_eq!(flat.pop(), got);
                    got
                }
                _ => {
                    let got = hier.pop_if_before(SimTime::from_nanos(t));
                    assert_eq!(flat.pop_if_before(SimTime::from_nanos(t)), got);
                    got
                }
            };
            if let Some((at, _)) = popped {
                base = at;
            }
            assert_eq!(flat.len(), hier.len());
            assert_eq!(flat.peek_time(), hier.peek_time());
        }
        loop {
            let (a, b) = (flat.pop(), hier.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    });
}

/// Many events at a handful of distinct instants spread across lanes:
/// (time, seq) ties must resolve purely by insertion order, never by lane.
#[test]
fn simultaneous_ties_across_lanes_fire_in_insertion_order() {
    FAMILY.check_seeds("simultaneous_ties_across_lanes_fire_in_insertion_order", |rng| {
        let mut flat: EventQueue<usize> = EventQueue::new();
        let mut hier: HierEventQueue<usize> = HierEventQueue::new(7);
        for i in 0..rng.range(1, 199) as usize {
            let (lane, slot) = (rng.edge_range(0, 6) as u32, rng.edge_range(0, 2));
            let at = SimTime::from_nanos(1_000 * slot);
            flat.schedule(at, i);
            hier.schedule(LaneId(lane), at, i);
        }
        let mut prev: Option<(SimTime, usize)> = None;
        while let Some(got) = hier.pop() {
            assert_eq!(Some(got), flat.pop());
            if let Some((pt, pi)) = prev {
                assert!(got.0 > pt || got.1 > pi, "insertion order violated");
            }
            prev = Some(got);
        }
        assert_eq!(flat.pop(), None);
    });
}

#[test]
fn delay_attribution_never_exceeds_wait() {
    FAMILY.check_seeds("delay_attribution_never_exceeds_wait", |rng| {
        let mut d = homa_sim::DelayBreakdown::default();
        let mut total = 0u64;
        for _ in 0..rng.range(1, 49) {
            let (w, l) = (rng.edge_range(0, 9_999), rng.edge_range(0, 9_999));
            d.record_wait(SimDuration::from_nanos(w), SimDuration::from_nanos(l.min(w)));
            total += w;
        }
        assert_eq!(d.total().as_nanos(), total);
        assert!(d.preemption_lag.as_nanos() <= total);
    });
}

/// The wiring table is symmetric on every fabric shape: each switch
/// port's peer has a port back to it at the recorded index, at the
/// same rate and in the opposite role; every host is some TOR's down
/// port exactly once; and the port counts are those of the shape.
#[test]
fn wiring_table_is_symmetric() {
    use homa_sim::{NodeId, PortClass, Topology};
    FAMILY.check_seeds("wiring_table_is_symmetric", |rng| {
        let (a, b) = (rng.edge_range(0, 5) as u32, rng.edge_range(0, 5) as u32);
        let c = rng.edge_range(0, 3) as u32;
        let topo = match rng.edge_range(0, 2) {
            0 => Topology::single_switch(2 + a * 3 + b),
            1 => Topology::scaled_fabric(1 + a, 2 + b, 1 + c),
            _ => Topology::multi_tor([16, 24, 32, 40, 100, 160, 1024][rng.below(7) as usize]),
        };
        assert_eq!(topo.check_shape(), Ok(()));
        assert_eq!(topo.switches().count() as u32, topo.racks + topo.spines);
        for h in topo.hosts() {
            let (r, i) = (topo.rack_of(h), topo.index_in_rack(h));
            assert_eq!(r * topo.hosts_per_rack + i, h.0);
            assert!(i < topo.hosts_per_rack);
        }
        let mut tor_ports_of_host = vec![0u32; topo.num_hosts() as usize];
        for sw in topo.switches() {
            let ports = topo.switch_ports(sw);
            let want = match sw {
                NodeId::Tor(_) => topo.tor_ports(),
                _ => topo.racks,
            };
            assert_eq!(ports.len() as u32, want, "port count of {sw:?}");
            for (i, p) in ports.iter().enumerate() {
                let back = match p.peer {
                    NodeId::Host(h) => {
                        assert_eq!(p.class, PortClass::TorDown);
                        assert_eq!(p.peer_port, 0);
                        tor_ports_of_host[h.0 as usize] += 1;
                        topo.host_port(h)
                    }
                    peer => topo.switch_ports(peer)[p.peer_port as usize],
                };
                assert_eq!(back.peer, sw, "{sw:?} port {i} is not answered");
                assert_eq!(back.peer_port, i as u32);
                assert_eq!(back.rate_bps, p.rate_bps);
                let opposite = match p.class {
                    PortClass::TorDown => PortClass::HostUp,
                    PortClass::TorUp => PortClass::SpineDown,
                    PortClass::SpineDown => PortClass::TorUp,
                    PortClass::HostUp => unreachable!("a switch port is never a host uplink"),
                };
                assert_eq!(back.class, opposite);
            }
        }
        assert!(tor_ports_of_host.iter().all(|&n| n == 1), "a host is not wired exactly once");
    });
}
