//! PIAS (Bai et al., NSDI 2015) on the shared fabric.
//!
//! PIAS assigns in-network priorities at the *sender* with no knowledge
//! of message sizes: every flow starts at the highest priority and is
//! demoted through a multi-level feedback queue as it transmits more
//! bytes, crossing workload-tuned thresholds. Transport is DCTCP-style:
//! ECN marks from the fabric drive a windowed multiplicative backoff.
//!
//! The Homa paper's critique reproduced here (§5.2): short messages queue
//! behind the high-priority *prefixes* of long messages; long messages
//! struggle to finish because their priority keeps dropping; and without
//! receiver scheduling, congestion triggers ECN backoff (notably on W4).
//!
//! The fabric must be configured with ECN marking
//! ([`fabric_queues`]).

use crate::common::{
    ns, CtrlQueue, FlowId, FlowTable, ReassemblyTable, TickTimer, TxBody, CTRL_BYTES,
    DATA_OVERHEAD, MAX_PAYLOAD, RTT_BYTES,
};
use homa_sim::{
    EcnConfig, HostId, Packet, PacketMeta, SimDuration, SimTime, TimerToken, Transport,
    TransportActions,
};
use homa_workloads::MessageSizeDist;

/// PIAS configuration.
#[derive(Debug, Clone)]
pub struct PiasConfig {
    /// Ascending byte thresholds demoting a flow from priority `7-k` to
    /// `7-k-1` once its sent bytes exceed `thresholds[k]`. At most 7
    /// entries (8 levels).
    pub thresholds: Vec<u64>,
    /// Initial congestion window in bytes.
    pub init_cwnd: u64,
    /// Minimum congestion window in bytes.
    pub min_cwnd: u64,
    /// Maximum congestion window in bytes.
    pub max_cwnd: u64,
    /// DCTCP g parameter (EWMA weight for the marked fraction).
    pub dctcp_g: f64,
    /// Retransmission timeout (go-back-N) in nanoseconds.
    pub rto_ns: u64,
    /// ECN marking threshold for fabric queues, in bytes.
    pub ecn_threshold_bytes: u64,
}

impl Default for PiasConfig {
    fn default() -> Self {
        PiasConfig {
            thresholds: vec![1_500, 10_000, 50_000, 200_000, 1_000_000, 5_000_000, 20_000_000],
            init_cwnd: RTT_BYTES,
            min_cwnd: MAX_PAYLOAD as u64,
            max_cwnd: 4 * RTT_BYTES,
            dctcp_g: 0.0625,
            rto_ns: 500_000,
            ecn_threshold_bytes: 30_000,
        }
    }
}

impl PiasConfig {
    /// Derive demotion thresholds for a workload, mimicking PIAS's
    /// per-workload threshold tuning: boundaries that spread the
    /// workload's *bytes* evenly across the 8 levels, floored at one
    /// packet so single-packet messages always ride the top level (the
    /// behaviour the Homa paper notes for W1-W3).
    pub fn thresholds_for(dist: &MessageSizeDist, levels: u8) -> Vec<u64> {
        // `MessageSizeDist::byte_weighted_cdf` as a table: the grid sizes
        // ascend, so the bytes at or below a size are a prefix of the grid
        // and its sum is a running sum (`below[j]` = first `j` sizes).
        let grid: Vec<u64> = dist.size_grid().collect();
        let mut below = Vec::with_capacity(grid.len() + 1);
        below.push(0.0f64);
        for &s in &grid {
            below.push(below[below.len() - 1] + s as f64);
        }
        let total = below[grid.len()];
        let byte_weighted_cdf = |size: u64| below[grid.partition_point(|&s| s <= size)] / total;

        let n = levels.saturating_sub(1) as usize;
        let mut out = Vec::with_capacity(n);
        for k in 1..=n {
            let target = k as f64 / levels as f64;
            let mut lo = 0.0f64;
            let mut hi = 1.0f64;
            // The byte-weighted CDF is monotone in size; binary-search the
            // message-count quantile whose byte CDF hits `target`.
            for _ in 0..40 {
                let mid = (lo + hi) / 2.0;
                let size = dist.quantile(mid);
                if byte_weighted_cdf(size) < target {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let t = dist.quantile(hi).max(MAX_PAYLOAD as u64 * k as u64);
            out.push(t);
        }
        // Strictly ascending.
        for i in 1..out.len() {
            if out[i] <= out[i - 1] {
                out[i] = out[i - 1] + 1;
            }
        }
        out
    }

    /// Priority for a packet of a flow that has already sent
    /// `bytes_sent` bytes: top level until the first threshold, then
    /// demoted per level.
    pub fn prio_for(&self, bytes_sent: u64) -> u8 {
        for (k, &t) in self.thresholds.iter().enumerate() {
            if bytes_sent < t {
                return 7 - k as u8;
            }
        }
        (7 - self.thresholds.len()) as u8
    }
}

/// Packet metadata for PIAS.
#[derive(Debug, Clone)]
pub enum PiasMeta {
    /// Data segment at an MLFQ-assigned priority.
    Data {
        /// Flow identity.
        flow: FlowId,
        /// Message length.
        msg_len: u64,
        /// Offset of this segment.
        offset: u64,
        /// Payload bytes.
        payload: u32,
        /// MLFQ priority stamped by the sender.
        prio: u8,
        /// Application tag.
        tag: u64,
        /// Retransmission flag.
        retx: bool,
    },
    /// Cumulative ack with ECN echo.
    Ack {
        /// Flow identity.
        flow: FlowId,
        /// All bytes below this offset received in order.
        cum_offset: u64,
        /// Whether the acked packet carried an ECN mark.
        ecn_echo: bool,
    },
}

impl PacketMeta for PiasMeta {
    fn wire_bytes(&self) -> u32 {
        match self {
            PiasMeta::Data { payload, .. } => payload + DATA_OVERHEAD,
            PiasMeta::Ack { .. } => CTRL_BYTES,
        }
    }
    fn priority(&self) -> u8 {
        match self {
            PiasMeta::Data { prio, .. } => *prio,
            PiasMeta::Ack { .. } => 7,
        }
    }
    fn is_control(&self) -> bool {
        matches!(self, PiasMeta::Ack { .. })
    }
    fn goodput_bytes(&self) -> u32 {
        match self {
            PiasMeta::Data { payload, retx: false, .. } => *payload,
            _ => 0,
        }
    }
}

/// Sender-side flow state: DCTCP window machinery on the shared body.
#[derive(Debug)]
struct TxFlow {
    body: TxBody,
    acked: u64,
    /// DCTCP state.
    cwnd: f64,
    alpha: f64,
    marked: u64,
    total: u64,
    window_end: u64,
    last_progress: u64,
}

const RTO_TOKEN: TimerToken = TimerToken(6);
const RTO_TICK: SimDuration = SimDuration::from_micros(250);

/// The PIAS transport instance for one host.
pub struct PiasTransport {
    me: HostId,
    cfg: PiasConfig,
    next_seq: u64,
    tx: FlowTable<FlowId, TxFlow>,
    rx: ReassemblyTable,
    ctrl: CtrlQueue<PiasMeta>,
    rto: TickTimer,
}

impl PiasTransport {
    /// New PIAS transport for host `me`.
    pub fn new(me: HostId, cfg: PiasConfig) -> Self {
        PiasTransport {
            me,
            cfg,
            next_seq: 1,
            tx: FlowTable::new(),
            rx: ReassemblyTable::new(),
            ctrl: CtrlQueue::new(),
            rto: TickTimer::new(RTO_TOKEN, RTO_TICK),
        }
    }
}

impl Transport<PiasMeta> for PiasTransport {
    fn on_packet(&mut self, now: SimTime, pkt: Packet<PiasMeta>, act: &mut TransportActions) {
        self.rto.ensure(now, act);
        match pkt.meta {
            PiasMeta::Data { flow, msg_len, offset, payload, tag, .. } => {
                let cum = if self.rx.upsert(flow, msg_len, tag, ns(now)).is_some() {
                    let progress = self.rx.record(flow, offset, payload, tag);
                    progress.contiguous
                } else {
                    // Late duplicate of a delivered message: re-ack the
                    // full length so the sender retires the flow.
                    msg_len
                };
                self.ctrl.push(pkt.src, PiasMeta::Ack { flow, cum_offset: cum, ecn_echo: pkt.ecn });
                self.rx.deliver_if_complete(flow, act);
                act.kick_tx();
            }
            PiasMeta::Ack { flow, cum_offset, ecn_echo } => {
                let mut finished = false;
                if let Some(f) = self.tx.get_mut(flow) {
                    if cum_offset > f.acked {
                        f.acked = cum_offset;
                        f.last_progress = ns(now);
                    }
                    // DCTCP accounting: one observation per ack.
                    f.total += 1;
                    if ecn_echo {
                        f.marked += 1;
                    }
                    if f.acked >= f.window_end {
                        // End of a congestion window: update alpha, adjust
                        // cwnd.
                        let frac = if f.total > 0 { f.marked as f64 / f.total as f64 } else { 0.0 };
                        f.alpha = (1.0 - self.cfg.dctcp_g) * f.alpha + self.cfg.dctcp_g * frac;
                        if frac > 0.0 {
                            f.cwnd *= 1.0 - f.alpha / 2.0;
                        } else {
                            f.cwnd += MAX_PAYLOAD as f64;
                        }
                        f.cwnd = f.cwnd.clamp(self.cfg.min_cwnd as f64, self.cfg.max_cwnd as f64);
                        f.marked = 0;
                        f.total = 0;
                        f.window_end = f.acked + f.cwnd as u64;
                    }
                    finished = f.acked >= f.body.len;
                }
                if finished {
                    self.tx.remove(flow);
                }
                act.kick_tx();
            }
        }
    }

    fn on_timer(&mut self, now: SimTime, _token: TimerToken, act: &mut TransportActions) {
        // Go-back-N on stall.
        let mut kick = false;
        let rto_ns = self.cfg.rto_ns;
        let min_cwnd = self.cfg.min_cwnd as f64;
        for f in self.tx.values_mut() {
            if f.acked < f.body.fresh && ns(now).saturating_sub(f.last_progress) > rto_ns {
                f.body.fresh = f.acked;
                f.last_progress = ns(now);
                f.cwnd = (f.cwnd / 2.0).max(min_cwnd);
                kick = true;
            }
        }
        if kick {
            act.kick_tx();
        }
        self.rto.rearm(now, act);
    }

    fn next_packet(&mut self, _now: SimTime) -> Option<Packet<PiasMeta>> {
        if let Some(pkt) = self.ctrl.pop_packet(self.me) {
            return Some(pkt);
        }
        // Fair round-robin across flows with window space (TCP-like; PIAS
        // does not reorder at the sender).
        let flow = self.tx.select_rr(|_, f| {
            let limit = (f.acked + f.cwnd as u64).min(f.body.len);
            f.body.has_work(limit)
        })?;
        let f = self.tx.get_mut(flow).expect("selected");
        let limit = (f.acked + f.cwnd as u64).min(f.body.len);
        let (offset, payload, retx) = f.body.next_chunk(limit).expect("eligible");
        let prio = self.cfg.prio_for(offset);
        Some(Packet::new(
            self.me,
            f.body.dst,
            PiasMeta::Data {
                flow,
                msg_len: f.body.len,
                offset,
                payload,
                prio,
                tag: f.body.tag,
                retx,
            },
        ))
    }

    fn inject_message(
        &mut self,
        now: SimTime,
        dst: HostId,
        len: u64,
        tag: u64,
        act: &mut TransportActions,
    ) {
        self.rto.ensure(now, act);
        let flow = FlowId { src: self.me, seq: self.next_seq };
        self.next_seq += 1;
        self.tx.insert(
            flow,
            TxFlow {
                body: TxBody::new(dst, len, tag),
                acked: 0,
                cwnd: self.cfg.init_cwnd as f64,
                alpha: 0.0,
                marked: 0,
                total: 0,
                window_end: self.cfg.init_cwnd,
                last_progress: ns(now),
            },
        );
        act.kick_tx();
    }

    fn delivered_bytes(&self) -> u64 {
        self.rx.delivered_bytes()
    }
}

/// Fabric configuration for PIAS: strict priorities with DCTCP-style ECN
/// marking.
pub fn fabric_queues(cfg: &PiasConfig) -> homa_sim::QueueDiscipline {
    homa_sim::QueueDiscipline {
        kind: homa_sim::QueueKind::StrictPriority { levels: 8 },
        cap_bytes: 1 << 20,
        ecn: Some(EcnConfig { threshold_bytes: cfg.ecn_threshold_bytes }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homa_sim::{AppEvent, Network, NetworkConfig, Topology};
    use homa_workloads::Workload;

    fn net(n: u32) -> Network<PiasMeta, PiasTransport> {
        let cfg = PiasConfig::default();
        let netcfg = NetworkConfig::uniform(1, fabric_queues(&cfg));
        Network::new(Topology::single_switch(n), netcfg, move |h| {
            PiasTransport::new(h, PiasConfig::default())
        })
    }

    #[test]
    fn mlfq_priorities_demote_with_bytes_sent() {
        let cfg = PiasConfig::default();
        assert_eq!(cfg.prio_for(0), 7);
        assert_eq!(cfg.prio_for(1_400), 7);
        assert_eq!(cfg.prio_for(1_500), 6);
        assert_eq!(cfg.prio_for(60_000), 4);
        assert_eq!(cfg.prio_for(100_000_000), 0);
    }

    #[test]
    fn thresholds_derived_from_workload_ascend() {
        for w in [Workload::W1, Workload::W3, Workload::W5] {
            let t = PiasConfig::thresholds_for(&w.dist(), 8);
            assert_eq!(t.len(), 7);
            assert!(t.windows(2).all(|x| x[0] < x[1]), "{w}: {t:?}");
            assert!(t[0] >= MAX_PAYLOAD as u64, "single-packet messages stay on top");
        }
    }

    /// Values from the per-probe `byte_weighted_cdf` sweep this table
    /// replaced: the running sum adds the same terms in the same order.
    #[test]
    fn thresholds_match_the_full_sweep_on_every_workload() {
        let pinned: [(Workload, [u64; 7]); 5] = [
            (Workload::W1, [1400, 2800, 4200, 5600, 7000, 8400, 9800]),
            (Workload::W2, [1400, 2800, 4200, 5600, 7000, 28888, 144427]),
            (Workload::W3, [1400, 5043, 11175, 19530, 509845, 2107042, 4283418]),
            (Workload::W4, [943024, 2237583, 3527644, 4827999, 6115879, 7412349, 8709967]),
            (Workload::W5, [3764911, 9334199, 13404892, 16488665, 19578935, 22669961, 25748794]),
        ];
        for (w, want) in pinned {
            assert_eq!(PiasConfig::thresholds_for(&w.dist(), 8), want, "{w}");
        }
    }

    #[test]
    fn single_message_delivers() {
        let mut net = net(4);
        net.inject_message(HostId(0), HostId(1), 40_000, 4);
        net.run_until(SimTime::from_millis(10));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1);
        assert!(matches!(evs[0].2, AppEvent::MessageDelivered { len: 40_000, tag: 4, .. }));
    }

    #[test]
    fn zero_length_message_delivers() {
        let mut net = net(4);
        net.inject_message(HostId(0), HostId(1), 0, 13);
        net.run_until(SimTime::from_millis(1));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 1, "empty message announces itself with one packet");
        assert!(matches!(evs[0].2, AppEvent::MessageDelivered { len: 0, tag: 13, .. }));
    }

    #[test]
    fn short_messages_beat_long_prefixes_eventually() {
        let mut net = net(4);
        net.inject_message(HostId(0), HostId(3), 3_000_000, 1);
        net.run_until(SimTime::from_micros(500));
        net.inject_message(HostId(1), HostId(3), 300, 2);
        net.run_until(SimTime::from_millis(40));
        let evs = net.take_app_events();
        let tiny = evs
            .iter()
            .find(|(_, _, e)| matches!(e, AppEvent::MessageDelivered { tag: 2, .. }))
            .expect("tiny delivered");
        // The long flow has been demoted below P7 by 500us (it has sent
        // >1500 bytes), so the tiny message overtakes in-network.
        let delay = tiny.0.as_micros_f64() - 500.0;
        assert!(delay < 50.0, "tiny message took {delay}us");
    }

    #[test]
    fn ecn_backoff_engages_under_congestion() {
        let mut net = net(6);
        for s in 0..5u32 {
            net.inject_message(HostId(s), HostId(5), 500_000, s as u64);
        }
        net.run_until(SimTime::from_millis(50));
        let evs = net.take_app_events();
        assert_eq!(evs.len(), 5, "all complete");
        let stats = net.harvest_stats();
        assert_eq!(stats.total_drops(), 0, "ECN avoids drops");
    }
}
