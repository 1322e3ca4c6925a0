//! The Homa protocol core as a simulator transport.
//!
//! [`HomaSimTransport`] is a thin shell: it converts between simulator
//! types ([`HostId`], [`SimTime`], [`Packet`]) and protocol-core types
//! ([`PeerId`], nanoseconds, [`HomaPacket`]), drives the endpoint's
//! periodic timer, and surfaces protocol events as simulator
//! [`AppEvent`]s.
//!
//! The paper's comparison variants are presets of this adapter:
//!
//! * `HomaPx` (Figures 8–9): [`homa_px_config`] restricts the number of
//!   priority levels.
//! * *Basic* (RAMCloud's receiver-driven transport without priorities or
//!   overcommitment limits): [`basic_config`].

use crate::common::ns;
use homa::config::{CTRL_BYTES, DATA_OVERHEAD};
use homa::packets::{HomaPacket, PeerId};
use homa::{HomaConfig, HomaEndpoint, HomaEvent, PriorityMap, TrafficTracker};
use homa_sim::{
    AppEvent, CtrlKind, HostId, Packet, PacketMeta, SimDuration, SimTime, TimerToken, Transport,
    TransportActions,
};
use homa_workloads::MessageSizeDist;

/// The tag of an abort that names no message the application injected:
/// an inbound message given up on, or a response, to which
/// `inject_response` gives no tag. A server's response sequence number in
/// its place could name a pending message of the driver's.
const NO_TAG: u64 = u64::MAX;

/// Simulator packet metadata for Homa: the protocol packet plus the
/// sender's top priority level, which its control packets use.
#[derive(Debug, Clone)]
pub struct HomaMeta {
    /// The protocol-level packet.
    pub pkt: HomaPacket,
    top_prio: u8,
}

impl PacketMeta for HomaMeta {
    fn wire_bytes(&self) -> u32 {
        match &self.pkt {
            HomaPacket::Data(h) => h.payload + DATA_OVERHEAD,
            _ => CTRL_BYTES,
        }
    }

    fn priority(&self) -> u8 {
        match &self.pkt {
            HomaPacket::Data(h) => h.prio,
            // "All packet types except DATA are sent at highest priority"
            // (Figure 3).
            _ => self.top_prio,
        }
    }

    fn is_control(&self) -> bool {
        self.pkt.is_control()
    }

    fn goodput_bytes(&self) -> u32 {
        match &self.pkt {
            HomaPacket::Data(h) if !h.retransmit => h.payload,
            _ => 0,
        }
    }

    fn ctrl_kind(&self) -> Option<CtrlKind> {
        match &self.pkt {
            HomaPacket::Grant(g) => Some(CtrlKind::Grant { offset: g.offset, prio: g.prio }),
            HomaPacket::Resend(r) => Some(CtrlKind::Resend { offset: r.offset, len: r.length }),
            _ => None,
        }
    }
}

/// Periodic housekeeping cadence for the endpoint (loss sweeps).
const TICK: SimDuration = SimDuration::from_micros(250);
const TICK_TOKEN: TimerToken = TimerToken(1);

/// [`homa::HomaEndpoint`] adapted to the simulator's [`Transport`] trait.
pub struct HomaSimTransport {
    me: HostId,
    ep: HomaEndpoint,
    tick_armed: bool,
    /// When true, per-message queueing-delay attribution is accumulated
    /// for the Figure 14 analysis (keyed by sender and tag).
    track_delay: bool,
    delay_acc: std::collections::HashMap<(HostId, u64), homa_sim::DelayBreakdown>,
}

impl HomaSimTransport {
    /// New transport for host `me`.
    pub fn new(me: HostId, cfg: HomaConfig) -> Self {
        HomaSimTransport {
            me,
            ep: HomaEndpoint::new(PeerId(me.0), cfg),
            tick_armed: false,
            track_delay: false,
            delay_acc: Default::default(),
        }
    }

    /// Enable per-message delay attribution (Figure 14).
    pub fn with_delay_tracking(mut self) -> Self {
        self.track_delay = true;
        self
    }

    /// Install a precomputed priority map (the paper's §4 setup: cutoffs
    /// derived from workload knowledge).
    pub fn with_static_map(mut self, map: PriorityMap) -> Self {
        self.ep.set_static_priority_map(map);
        self
    }

    /// Access the underlying endpoint (instrumentation).
    pub fn endpoint(&self) -> &HomaEndpoint {
        &self.ep
    }

    fn arm_tick(&mut self, now: SimTime, act: &mut TransportActions) {
        if !self.tick_armed {
            self.tick_armed = true;
            act.timer(now + TICK, TICK_TOKEN);
        }
    }

    fn drain_events(&mut self, act: &mut TransportActions) {
        for ev in self.ep.drain_events() {
            match ev {
                HomaEvent::MessageDelivered { src, len, tag, .. } => {
                    act.event(AppEvent::MessageDelivered { src: HostId(src.0), tag, len });
                }
                HomaEvent::RequestArrived { client, rpc_seq, len, .. } => {
                    act.event(AppEvent::RpcRequestArrived {
                        client: HostId(client.0),
                        rpc: rpc_seq,
                        request_len: len,
                    });
                }
                HomaEvent::RpcCompleted { server, tag, resp_len, .. } => {
                    act.event(AppEvent::RpcCompleted {
                        server: HostId(server.0),
                        tag,
                        response_len: resp_len,
                    });
                }
                HomaEvent::RpcAborted { server, tag } => {
                    act.event(AppEvent::Aborted { peer: HostId(server.0), tag });
                }
                HomaEvent::InboundAborted { src, .. } => {
                    act.event(AppEvent::Aborted { peer: HostId(src.0), tag: NO_TAG });
                }
                HomaEvent::OutboundAborted { dst, tag } => {
                    act.event(AppEvent::Aborted { peer: HostId(dst.0), tag });
                }
            }
        }
    }

    fn wrap(&self, dst: PeerId, pkt: HomaPacket) -> Packet<HomaMeta> {
        let top_prio = self.ep.config().num_priorities - 1;
        Packet::new(self.me, HostId(dst.0), HomaMeta { pkt, top_prio })
    }
}

impl Transport<HomaMeta> for HomaSimTransport {
    fn on_packet(&mut self, now: SimTime, pkt: Packet<HomaMeta>, act: &mut TransportActions) {
        self.arm_tick(now, act);
        if self.track_delay {
            if let HomaPacket::Data(h) = &pkt.meta.pkt {
                self.delay_acc.entry((pkt.src, h.tag)).or_default().merge(&pkt.delay);
            }
        }
        self.ep.on_packet(ns(now), PeerId(pkt.src.0), pkt.meta.pkt);
        self.drain_events(act);
        if self.ep.has_pending_tx() {
            act.kick_tx();
        }
    }

    fn on_timer(&mut self, now: SimTime, token: TimerToken, act: &mut TransportActions) {
        debug_assert_eq!(token, TICK_TOKEN);
        self.ep.timer_tick(ns(now));
        act.timer(now + TICK, TICK_TOKEN);
        self.drain_events(act);
        if self.ep.has_pending_tx() {
            act.kick_tx();
        }
    }

    fn next_packet(&mut self, now: SimTime) -> Option<Packet<HomaMeta>> {
        self.ep.poll_transmit(ns(now)).map(|(dst, pkt)| self.wrap(dst, pkt))
    }

    fn inject_message(
        &mut self,
        now: SimTime,
        dst: HostId,
        len: u64,
        tag: u64,
        act: &mut TransportActions,
    ) {
        self.arm_tick(now, act);
        self.ep.send_message(ns(now), PeerId(dst.0), len, tag);
        act.kick_tx();
    }

    fn inject_rpc(
        &mut self,
        now: SimTime,
        server: HostId,
        req_len: u64,
        tag: u64,
        act: &mut TransportActions,
    ) {
        self.arm_tick(now, act);
        self.ep.begin_rpc(ns(now), PeerId(server.0), req_len, tag);
        act.kick_tx();
    }

    fn inject_response(
        &mut self,
        now: SimTime,
        client: HostId,
        rpc: u64,
        resp_len: u64,
        act: &mut TransportActions,
    ) {
        self.arm_tick(now, act);
        self.ep.send_response(ns(now), PeerId(client.0), rpc, resp_len, NO_TAG);
        act.kick_tx();
    }

    fn withholding_grants(&self, _now: SimTime) -> bool {
        self.ep.withholding_grants()
    }

    fn delivered_bytes(&self) -> u64 {
        self.ep.delivered_bytes()
    }

    fn take_message_delay(&mut self, src: HostId, tag: u64) -> homa_sim::DelayBreakdown {
        self.delay_acc.remove(&(src, tag)).unwrap_or_default()
    }

    fn grant_stats(&self) -> homa_sim::GrantStats {
        homa_sim::GrantStats {
            grants_issued: self.ep.grants_issued(),
            granted_bytes: self.ep.granted_bytes(),
            resends_requested: self.ep.resends_sent(),
        }
    }
}

/// The paper's `HomaPx` variants: Homa restricted to `priorities`
/// priority levels (Figures 8–9).
pub fn homa_px_config(priorities: u8) -> HomaConfig {
    HomaConfig { num_priorities: priorities, ..HomaConfig::default() }
}

/// RAMCloud's *Basic* transport: "similar to Homa in that it is
/// receiver-driven, with grants and unscheduled packets. However, Basic
/// does not use priorities and it has no limit on overcommitment:
/// receivers grant independently to all incoming messages" (§5.1).
pub fn basic_config() -> HomaConfig {
    HomaConfig { num_priorities: 1, overcommit_override: Some(u8::MAX), ..HomaConfig::default() }
}

/// Build the workload-derived static priority map the paper's
/// implementation precomputes (§4): measure the message-size distribution
/// and run the Figure 4 algorithm once.
pub fn static_map_for_workload(dist: &MessageSizeDist, cfg: &HomaConfig) -> PriorityMap {
    let mut tracker = TrafficTracker::new();
    let n = 20_000;
    for i in 0..n {
        let p = (i as f64 + 0.5) / n as f64;
        tracker.record(dist.quantile(p), cfg.unsched_limit);
    }
    tracker.recompute(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use homa_sim::{Network, NetworkConfig, QueueDiscipline, Topology};
    use homa_workloads::Workload;

    fn homa_net(n: u32) -> Network<HomaMeta, HomaSimTransport> {
        let topo = Topology::single_switch(n);
        Network::new(topo, NetworkConfig::default(), |h| {
            HomaSimTransport::new(h, HomaConfig::default())
        })
    }

    #[test]
    fn small_message_one_way_latency_is_near_hardware() {
        let mut net = homa_net(4);
        net.inject_message(HostId(0), HostId(1), 100, 1);
        net.run_until(SimTime::from_millis(1));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1);
        let (at, host, ev) = &evs[0];
        assert_eq!(*host, HostId(1));
        assert!(matches!(ev, AppEvent::MessageDelivered { len: 100, tag: 1, .. }));
        // Single switch: ~128+128ns links + 250ns switch + 1.5us software.
        let us = at.as_micros_f64();
        assert!(us < 2.5, "unloaded small message took {us}us");
    }

    #[test]
    fn large_message_completes_at_line_rate() {
        let mut net = homa_net(4);
        let len = 10_000_000u64;
        net.inject_message(HostId(0), HostId(1), len, 7);
        net.run_until(SimTime::from_millis(30));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1, "10MB message must complete");
        let at = evs[0].0.as_secs_f64();
        // Pure serialization of 10MB + headers at 10 Gbps is ~8.34ms;
        // grants should keep the pipe full, so within 12%.
        let pure = len as f64 * 8.0 / 10e9 * (1460.0 / 1400.0);
        assert!((at - pure).abs() / pure < 0.12, "completion {at}s vs line-rate {pure}s");
    }

    #[test]
    fn rpc_echo_round_trip() {
        let mut net = homa_net(4);
        net.inject_rpc(HostId(0), HostId(1), 100, 42);
        // Drive; server echoes via the driver when the request arrives.
        let mut done = false;
        for _ in 0..100 {
            net.run_next_before(SimTime::from_millis(5));
            for (_, host, ev) in net.take_app_events() {
                match ev {
                    AppEvent::RpcRequestArrived { client, rpc, request_len } => {
                        net.inject_response(host, client, rpc, request_len);
                    }
                    AppEvent::RpcCompleted { tag: 42, response_len: 100, .. } => done = true,
                    other => panic!("unexpected event {other:?}"),
                }
            }
            if done {
                break;
            }
        }
        assert!(done, "rpc completed");
        // Paper: 100-byte echo RPC takes 4.7us unloaded on 10G — ours has
        // comparable structure (two crossings + two software delays).
        assert!(net.now().as_micros_f64() < 5_000.0);
    }

    #[test]
    fn concurrent_senders_all_deliver() {
        let mut net = homa_net(8);
        let mut expected = 0u64;
        for i in 0..30u64 {
            let src = HostId((i % 7) as u32);
            net.inject_message(src, HostId(7), 5_000 + i * 331, i);
            expected += 5_000 + i * 331;
        }
        net.run_until(SimTime::from_millis(20));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 30);
        assert_eq!(net.transport(HostId(7)).delivered_bytes(), expected);
        let stats = net.harvest_stats();
        assert_eq!(stats.total_drops(), 0, "no drops with Homa's buffering");
    }

    #[test]
    fn static_map_matches_workload_character() {
        let cfg = HomaConfig::default();
        let m1 = static_map_for_workload(&Workload::W1.dist(), &cfg);
        assert_eq!(m1.unsched_levels, 7, "W1 is almost fully unscheduled");
        let m4 = static_map_for_workload(&Workload::W4.dist(), &cfg);
        assert_eq!(m4.unsched_levels, 1, "W4 is almost fully scheduled");
        let m3 = static_map_for_workload(&Workload::W3.dist(), &cfg);
        assert_eq!(m3.unsched_levels, 4, "W3 splits evenly (Figure 21)");
    }

    #[test]
    fn basic_config_is_p1_unlimited() {
        let cfg = basic_config();
        assert_eq!(cfg.num_priorities, 1);
        assert_eq!(cfg.overcommit_override, Some(u8::MAX));
        // And it still delivers traffic.
        let topo = Topology::single_switch(4);
        let mut net: Network<HomaMeta, HomaSimTransport> =
            Network::new(topo, NetworkConfig::default(), |h| {
                HomaSimTransport::new(h, basic_config())
            });
        net.inject_message(HostId(0), HostId(1), 50_000, 1);
        net.inject_message(HostId(2), HostId(1), 50_000, 2);
        net.run_until(SimTime::from_millis(5));
        assert_eq!(net.take_app_events().len(), 2);
    }

    #[test]
    fn loss_recovery_across_racks_holds_the_event_order() {
        // The loss-recovery path (RESENDs, retransmissions) is where
        // event ordering is at its most delicate: ten senders overflow a
        // three-packet buffer across racks, and the queue's shadow oracle
        // (debug builds) checks every pop of the recovery.
        let cfg = NetworkConfig::uniform(1, QueueDiscipline::strict8(4_500)); // 3 packets
        let topo = Topology::multi_tor(16);
        let mut net: Network<HomaMeta, HomaSimTransport> =
            Network::new(topo, cfg, |h| HomaSimTransport::new(h, HomaConfig::default()));
        for s in 0..10u32 {
            net.inject_message(HostId(s), HostId(15), 30_000, s as u64);
        }
        net.run_until(SimTime::from_millis(50));
        assert!(net.harvest_stats().total_drops() > 0, "test must actually drop packets");
        assert_eq!(net.take_app_events().len(), 10, "all messages recovered via RESEND");
    }

    #[test]
    fn loss_recovery_inside_fabric() {
        // Force drops by shrinking every switch buffer drastically.
        let cfg = NetworkConfig::uniform(1, QueueDiscipline::strict8(4_500)); // 3 packets
        let topo = Topology::single_switch(6);
        let mut net: Network<HomaMeta, HomaSimTransport> =
            Network::new(topo, cfg, |h| HomaSimTransport::new(h, HomaConfig::default()));
        // Five senders blast one receiver simultaneously: unscheduled
        // collisions overflow the tiny buffer.
        for s in 0..5u32 {
            net.inject_message(HostId(s), HostId(5), 30_000, s as u64);
        }
        net.run_until(SimTime::from_millis(50));
        let evs = net.take_app_events();
        let stats = net.harvest_stats();
        assert!(stats.total_drops() > 0, "test must actually drop packets");
        assert_eq!(evs.len(), 5, "all messages recovered via RESEND");
    }
}
