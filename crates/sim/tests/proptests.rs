//! Property-based tests for the simulation kernel.

use homa_sim::queues::PortQueue;
use homa_sim::{
    EventQueue, HierEventQueue, LaneId, Packet, PacketMeta, QueueDiscipline, QueueKind,
    SimDuration, SimTime,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct M {
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

fn arb_meta() -> impl Strategy<Value = M> {
    (60u32..2_000, 0u8..8, 0u64..1_000_000, any::<bool>())
        .prop_map(|(bytes, prio, remaining, ctrl)| M { bytes, prio, remaining, ctrl })
}

proptest! {
    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut prev = SimTime::ZERO;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= prev);
            prev = t;
            n += 1;
        }
        prop_assert_eq!(n, times.len());
    }

    #[test]
    fn strict_priority_conserves_packets_and_bytes(metas in proptest::collection::vec(arb_meta(), 1..100)) {
        let mut q: PortQueue<M> = PortQueue::new(QueueDiscipline::strict8(1 << 30));
        let mut total_bytes = 0u64;
        for (i, m) in metas.iter().enumerate() {
            let pkt = Packet::new(homa_sim::HostId(0), homa_sim::HostId(1), m.clone());
            total_bytes += m.bytes as u64;
            q.enqueue(SimTime::from_nanos(i as u64), pkt, None);
        }
        prop_assert_eq!(q.bytes(), total_bytes);
        prop_assert_eq!(q.len(), metas.len());
        // Dequeue: priorities never increase.
        let mut prev = u8::MAX;
        let mut out = 0;
        while let Some(p) = q.dequeue(SimTime::from_micros(1)) {
            prop_assert!(p.priority() <= prev);
            prev = p.priority();
            out += 1;
        }
        prop_assert_eq!(out, metas.len());
        prop_assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn pfabric_dequeues_in_remaining_order_among_data(metas in proptest::collection::vec(arb_meta(), 1..80)) {
        let mut q: PortQueue<M> = PortQueue::new(QueueDiscipline {
            kind: QueueKind::Pfabric,
            cap_bytes: 1 << 30,
            ecn: None,
        });
        for (i, m) in metas.iter().enumerate() {
            let pkt = Packet::new(homa_sim::HostId(0), homa_sim::HostId(1), m.clone());
            q.enqueue(SimTime::from_nanos(i as u64), pkt, None);
        }
        // Control packets drain first, then data in ascending remaining.
        let mut seen_data = false;
        let mut prev_rem = 0u64;
        while let Some(p) = q.dequeue(SimTime::from_micros(1)) {
            match p.meta.fine_priority() {
                None => prop_assert!(!seen_data, "control after data"),
                Some(r) => {
                    if seen_data {
                        prop_assert!(r >= prev_rem, "remaining order violated");
                    }
                    seen_data = true;
                    prev_rem = r;
                }
            }
        }
    }

    #[test]
    fn ndp_never_drops_data_it_can_trim(metas in proptest::collection::vec(arb_meta(), 1..100)) {
        let mut q: PortQueue<M> = PortQueue::new(QueueDiscipline {
            kind: QueueKind::NdpTrim { data_cap_packets: 4 },
            cap_bytes: 1 << 30,
            ecn: None,
        });
        let n = metas.len();
        for (i, m) in metas.iter().enumerate() {
            let pkt = Packet::new(homa_sim::HostId(0), homa_sim::HostId(1), m.clone());
            q.enqueue(SimTime::from_nanos(i as u64), pkt, None);
        }
        prop_assert_eq!(q.drops, 0, "trimmable data is never dropped");
        // Every packet (possibly trimmed) comes back out.
        let mut out = 0;
        while q.dequeue(SimTime::from_micros(1)).is_some() {
            out += 1;
        }
        prop_assert_eq!(out, n);
    }

    #[test]
    fn on_tx_start_matches_a_scan_of_every_waiting_packet(
        // One port under strict priority: packets arrive while the link
        // is busy or idle, and whenever it is idle the head is dequeued
        // and put on the wire. With fewer than 8 levels several
        // priorities clamp into the top one, where a waiting 5 still
        // outranks an in-service 3.
        level_exp in 0u32..4,
        ops in proptest::collection::vec((any::<bool>(), 0u8..8, 1u64..400), 1..200),
    ) {
        /// The reference: per-level FIFOs of `(id, prio, enqueued_at, lag)`
        /// whose transmission-start pass visits every waiting packet.
        struct Model {
            levels: Vec<std::collections::VecDeque<(u32, u8, u64, u64)>>,
        }
        impl Model {
            fn tx_start(&mut self, started_prio: u8, dur: u64) {
                for w in self.levels.iter_mut().flatten() {
                    if w.1 > started_prio {
                        w.3 += dur;
                    }
                }
            }
            /// `(id, queueing, preemption lag)` of the next packet out.
            fn dequeue(&mut self, now: u64) -> Option<(u32, u64, u64)> {
                let (id, _, at, lag) = self.levels.iter_mut().rev().find_map(|q| q.pop_front())?;
                let lag = lag.min(now - at);
                Some((id, now - at - lag, lag))
            }
        }
        let levels = 1u8 << level_exp;
        let mut q: PortQueue<M> = PortQueue::new(QueueDiscipline {
            kind: QueueKind::StrictPriority { levels },
            cap_bytes: 1 << 30,
            ecn: None,
        });
        let mut model = Model { levels: (0..levels).map(|_| Default::default()).collect() };
        let mut sending: Option<(Packet<M>, SimTime)> = None;
        let mut now = 0u64;
        for (i, &(arrive, prio, dt)) in ops.iter().enumerate() {
            now += dt;
            if sending.as_ref().is_some_and(|(_, ends)| ends.as_nanos() <= now) {
                sending = None;
            }
            if arrive {
                // `bytes` doubles as the packet's identity.
                let id = 60 + i as u32;
                let meta = M { bytes: id, prio, remaining: 0, ctrl: false };
                let pkt = Packet::new(homa_sim::HostId(0), homa_sim::HostId(1), meta);
                let lag = match &sending {
                    Some((s, ends)) if s.priority() < prio => ends.as_nanos() - now,
                    _ => 0,
                };
                q.enqueue(SimTime::from_nanos(now), pkt, sending.as_ref().map(|(p, t)| (p, *t)));
                model.levels[prio.min(levels - 1) as usize].push_back((id, prio, now, lag));
            }
            if sending.is_none() {
                let got = q.dequeue(SimTime::from_nanos(now));
                let want = model.dequeue(now);
                prop_assert_eq!(
                    got.as_ref().map(|p| {
                        (p.meta.bytes, p.delay.queueing.as_nanos(), p.delay.preemption_lag.as_nanos())
                    }),
                    want
                );
                if let Some(p) = got {
                    let dur = SimDuration::serialization(p.wire_bytes() as u64, 10_000_000_000);
                    q.on_tx_start(&p, dur);
                    model.tx_start(p.priority(), dur.as_nanos());
                    sending = Some((p, SimTime::from_nanos(now) + dur));
                }
            }
            prop_assert_eq!(q.len(), model.levels.iter().map(|l| l.len()).sum::<usize>());
        }
    }

    #[test]
    fn serialization_in_64_bits_equals_the_128_bit_formula(
        // Packet sizes, sizes either side of the largest whose bit count
        // times 10⁹ still fits a u64, and sizes far beyond it.
        mode in 0u8..3,
        x in 0u64..4_000_000_000,
        rate in 1u64..400_000_000_001,
    ) {
        let edge = u64::MAX / 8_000_000_000;
        let bytes = match mode {
            0 => x % 10_000,
            1 => edge - 1_000 + x % 2_000,
            _ => edge + x,
        };
        let wide = (bytes as u128 * 8_000_000_000).div_ceil(rate as u128) as u64;
        prop_assert_eq!(SimDuration::serialization(bytes, rate).as_nanos(), wide);
    }

    #[test]
    fn calendar_matches_heap_with_far_future_timers(
        // Bimodal times: hot near-term events plus timers far beyond the
        // calendar's ring horizon (4096 buckets x 256ns ≈ 1.05ms; the
        // far mode reaches a full second), interleaved with pops. The calendar
        // engine must stay in (time, seq) lockstep with the plain heap
        // through ring, late-heap and far-heap migrations alike.
        ops in proptest::collection::vec(
            (0u8..4, 0u64..200_000, any::<bool>(), 0u32..5), 1..300),
    ) {
        let mut flat: EventQueue<usize> = EventQueue::new();
        let mut hier: HierEventQueue<usize> = HierEventQueue::with_bucket_width(5, 256);
        for (i, &(kind, t, far, lane)) in ops.iter().enumerate() {
            match kind {
                0 | 1 => {
                    let at = if far {
                        SimTime::from_nanos(1_000_000_000 + t * 37)
                    } else {
                        SimTime::from_nanos(t)
                    };
                    flat.schedule(at, i);
                    hier.schedule(LaneId(lane), at, i);
                }
                2 => prop_assert_eq!(flat.pop(), hier.pop()),
                _ => prop_assert_eq!(
                    flat.pop_if_before(SimTime::from_nanos(t)),
                    hier.pop_if_before(SimTime::from_nanos(t))
                ),
            }
            prop_assert_eq!(flat.len(), hier.len());
            prop_assert_eq!(flat.peek_time(), hier.peek_time());
        }
        loop {
            let (a, b) = (flat.pop(), hier.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn simultaneous_ties_across_lanes_fire_in_insertion_order(
        // Many events at a handful of distinct instants spread across
        // lanes: (time, seq) ties must resolve purely by insertion
        // order, never by lane.
        lanes in proptest::collection::vec((0u32..7, 0u64..3), 1..200),
    ) {
        let mut flat: EventQueue<usize> = EventQueue::new();
        let mut hier: HierEventQueue<usize> = HierEventQueue::with_bucket_width(7, 256);
        for (i, &(lane, slot)) in lanes.iter().enumerate() {
            let at = SimTime::from_nanos(1_000 * slot);
            flat.schedule(at, i);
            hier.schedule(LaneId(lane), at, i);
        }
        let mut prev: Option<(SimTime, usize)> = None;
        while let Some(got) = hier.pop() {
            prop_assert_eq!(Some(got), flat.pop());
            if let Some((pt, pi)) = prev {
                prop_assert!(got.0 > pt || got.1 > pi, "insertion order violated");
            }
            prev = Some(got);
        }
        prop_assert_eq!(flat.pop(), None);
    }

    #[test]
    fn delay_attribution_never_exceeds_wait(
        waits in proptest::collection::vec((0u64..10_000, 0u64..10_000), 1..50),
    ) {
        use homa_sim::DelayBreakdown;
        let mut d = DelayBreakdown::default();
        let mut total = 0u64;
        for (w, l) in waits {
            let lag = l.min(w);
            d.record_wait(SimDuration::from_nanos(w), SimDuration::from_nanos(lag));
            total += w;
        }
        prop_assert_eq!(d.total().as_nanos(), total);
        prop_assert!(d.preemption_lag.as_nanos() <= total);
    }
}

proptest! {
    /// The wiring table is symmetric on every fabric shape: each switch
    /// port's peer has a port back to it at the recorded index, at the
    /// same rate and in the opposite role; every host is some TOR's down
    /// port exactly once; and the port counts are those of the shape.
    #[test]
    fn wiring_table_is_symmetric(shape in 0u32..4, a in 0u32..6, b in 0u32..6, c in 0u32..4) {
        use homa_sim::{FabricKind, NodeId, PortClass, Topology};
        let topo = match shape {
            0 => Topology::single_switch(2 + a * 3 + b),
            1 => Topology::scaled_fabric(1 + a, 2 + b, 1 + c),
            2 => Topology::multi_tor([16, 24, 32, 40, 100, 160][a as usize]),
            _ => Topology::fat_tree(4 + 2 * (a % 5)),
        };
        prop_assert_eq!(topo.check_shape(), Ok(()));
        prop_assert_eq!(topo.switches().count() as u32, topo.racks + topo.spines);
        for h in topo.hosts() {
            let (r, i) = (topo.rack_of(h), topo.index_in_rack(h));
            prop_assert_eq!(r * topo.hosts_per_rack + i, h.0);
            prop_assert!(i < topo.hosts_per_rack);
        }
        let mut tor_ports_of_host = vec![0u32; topo.num_hosts() as usize];
        for sw in topo.switches() {
            let ports = topo.switch_ports(sw);
            let want = match (sw, topo.kind) {
                (NodeId::Tor(_), _) => topo.tor_ports(),
                (_, FabricKind::LeafSpine) => topo.racks,
                (_, FabricKind::FatTree { k }) => k,
            };
            prop_assert_eq!(ports.len() as u32, want, "port count of {:?}", sw);
            for (i, p) in ports.iter().enumerate() {
                let back = match p.peer {
                    NodeId::Host(h) => {
                        prop_assert_eq!(p.class, PortClass::TorDown);
                        prop_assert_eq!(p.peer_port, 0);
                        tor_ports_of_host[h.0 as usize] += 1;
                        topo.host_port(h)
                    }
                    peer => topo.switch_ports(peer)[p.peer_port as usize],
                };
                prop_assert_eq!(back.peer, sw, "{:?} port {} is not answered", sw, i);
                prop_assert_eq!(back.peer_port, i as u32);
                prop_assert_eq!(back.rate_bps, p.rate_bps);
                let opposite = match p.class {
                    PortClass::TorDown => PortClass::HostUp,
                    PortClass::TorUp => PortClass::SpineDown,
                    PortClass::SpineDown => PortClass::TorUp,
                    PortClass::HostUp => unreachable!("a switch port is never a host uplink"),
                };
                prop_assert_eq!(back.class, opposite);
            }
        }
        prop_assert!(tor_ports_of_host.iter().all(|&n| n == 1), "a host is not wired exactly once");
    }

    /// Unloaded latency respects the hop hierarchy on any fat tree and
    /// any message size: same-rack <= intra-pod <= inter-pod, the path
    /// class is symmetric, and the minimum forward delay (the calendar
    /// bucket width) is positive.
    #[test]
    fn fat_tree_unloaded_monotone_and_symmetric(
        half in 2u32..6,
        len in 1u64..200_000,
        a in 0u32..1_000,
        b in 0u32..1_000,
    ) {
        use homa_sim::PathClass;
        let topo = homa_sim::Topology::fat_tree(half * 2);
        let n = topo.num_hosts();
        let (a, b) = (homa_sim::HostId(a % n), homa_sim::HostId(b % n));
        prop_assert_eq!(topo.path_class(a, b), topo.path_class(b, a));
        let t = |c| topo.unloaded_one_way_class(len, 1_400, 60, c).as_nanos();
        prop_assert!(t(PathClass::SameRack) <= t(PathClass::IntraPod));
        prop_assert!(t(PathClass::IntraPod) <= t(PathClass::InterPod));
        prop_assert!(topo.min_forward_delay().as_nanos() > 0);
    }
}
