//! `TimedTransport`: a `homa_sim::Transport` around the real transport
//! that counts every call and times one call in sixteen, chosen by a
//! fixed pseudo-random sequence.

use crate::trace::SpanSink;
use homa_sim::{
    DelayBreakdown, GrantStats, HostId, Packet, PacketMeta, SimTime, TimerToken, Topology,
    Transport, TransportActions,
};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The four calls of the `Transport` trait the fabric makes per packet,
/// timer or message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `on_packet`
    OnPacket = 0,
    /// `next_packet`
    NextPacket = 1,
    /// `on_timer`
    OnTimer = 2,
    /// `inject_message`
    Inject = 3,
}

impl Call {
    /// All four, in index order.
    pub const ALL: [Call; 4] = [Call::OnPacket, Call::NextPacket, Call::OnTimer, Call::Inject];

    /// The trait method's name.
    pub fn name(self) -> &'static str {
        ["on_packet", "next_packet", "on_timer", "inject_message"][self as usize]
    }

    /// The name used in metric names (`transport.<short>_ns`).
    pub fn short(self) -> &'static str {
        ["on_packet", "next_packet", "on_timer", "inject"][self as usize]
    }
}

/// One call in this many is timed, on average. Which ones is decided by
/// a fixed pseudo-random sequence per call kind, not by counting to
/// sixteen: the fabric calls `next_packet` in pairs (one returns the
/// packet, the next returns `None`), and a fixed stride would time only
/// one of the two.
pub const SAMPLE_EVERY: u64 = 16;

/// Counters shared by the wrappers of every host of one run. The default
/// engine runs every transport on the calling thread, so the counters
/// are read and written with plain relaxed loads and stores, not
/// read-modify-write instructions: that keeps counting at about a
/// nanosecond a call. A threaded engine would lose counts here, and
/// [`assert_single_threaded`](TimedShared::assert_single_threaded) says
/// so loudly.
#[derive(Debug)]
pub struct TimedShared {
    calls: [AtomicU64; 4],
    dice: [AtomicU64; 4],
    sampled: [AtomicU64; 4],
    sampled_ns: [AtomicU64; 4],
    /// Packets `next_packet` returned, and the switch ports they cross.
    packets: AtomicU64,
    port_hops: AtomicU64,
    /// Sampled transport nanoseconds accumulated when the inject count
    /// crossed each tenth of the message budget.
    tenths: Mutex<Vec<u64>>,
    messages: u64,
    hosts_per_rack: u32,
    owner: std::thread::ThreadId,
    epoch: Instant,
    sink: Mutex<SpanSink>,
}

impl TimedShared {
    /// Counters for a run of `messages` messages over `topo`.
    pub fn new(messages: u64, topo: &Topology, repeat: u32) -> Arc<Self> {
        Arc::new(TimedShared {
            calls: Default::default(),
            dice: Default::default(),
            sampled: Default::default(),
            sampled_ns: Default::default(),
            packets: AtomicU64::new(0),
            port_hops: AtomicU64::new(0),
            tenths: Mutex::new(Vec::with_capacity(10)),
            messages,
            hosts_per_rack: topo.hosts_per_rack,
            owner: std::thread::current().id(),
            epoch: Instant::now(),
            sink: Mutex::new(SpanSink::new("transport", repeat)),
        })
    }

    /// Panic unless called on the thread that built the counters.
    pub fn assert_single_threaded(&self) {
        assert_eq!(
            std::thread::current().id(),
            self.owner,
            "TimedTransport counts without atomic read-modify-write; run it on one thread"
        );
    }

    fn bump(cell: &AtomicU64, by: u64) -> u64 {
        let v = cell.load(Relaxed) + by;
        cell.store(v, Relaxed);
        v
    }

    /// Calls made to `call`.
    pub fn calls(&self, call: Call) -> u64 {
        self.calls[call as usize].load(Relaxed)
    }

    /// Calls to `call` that were timed.
    pub fn sampled(&self, call: Call) -> u64 {
        self.sampled[call as usize].load(Relaxed)
    }

    /// Mean nanoseconds of one `call`, from the timed ones, less the cost
    /// of reading the clock (`clock_ns` per timed call).
    pub fn mean_ns(&self, call: Call, clock_ns: f64) -> f64 {
        let n = self.sampled(call);
        if n == 0 {
            return 0.0;
        }
        (self.sampled_ns[call as usize].load(Relaxed) as f64 / n as f64 - clock_ns).max(0.0)
    }

    /// Estimated nanoseconds spent inside the transports in all: each
    /// call kind's mean times its call count.
    pub fn total_ns(&self, clock_ns: f64) -> f64 {
        Call::ALL.iter().map(|&c| self.mean_ns(c, clock_ns) * self.calls(c) as f64).sum()
    }

    /// Packets sent and the mean number of switch and NIC ports each
    /// crossed (2 within a rack, 4 across racks on a leaf-spine fabric).
    pub fn packets_and_hops(&self) -> (u64, f64) {
        let p = self.packets.load(Relaxed);
        (p, if p == 0 { 0.0 } else { self.port_hops.load(Relaxed) as f64 / p as f64 })
    }

    /// Transport cost per message in the ninth tenth of the messages over
    /// that in the second tenth (the first carries the ramp-up, the last
    /// the drain). Above 1, a message costs more the more messages came
    /// before it. 0 when the run had fewer than ten marks.
    pub fn cost_growth(&self) -> f64 {
        let t = self.tenths.lock().expect("no panics while held");
        if t.len() < 9 || t[1] <= t[0] {
            return 0.0;
        }
        (t[8] - t[7]) as f64 / (t[1] - t[0]) as f64
    }

    /// The aggregated spans and the sampled individual ones.
    pub fn take_sink(&self) -> SpanSink {
        std::mem::replace(
            &mut *self.sink.lock().expect("no panics while held"),
            SpanSink::new("transport", 0),
        )
    }

    fn mark_tenth(&self) {
        let total: u64 = self.sampled_ns.iter().map(|c| c.load(Relaxed)).sum();
        self.tenths.lock().expect("no panics while held").push(total);
    }
}

/// The wrapper. Generic, so each protocol gets its own monomorphised
/// copy and the inner calls stay static.
pub struct TimedTransport<T> {
    inner: T,
    shared: Arc<TimedShared>,
}

impl<T> TimedTransport<T> {
    /// Wrap `inner`, counting into `shared`.
    pub fn new(inner: T, shared: Arc<TimedShared>) -> Self {
        TimedTransport { inner, shared }
    }

    #[inline(always)]
    fn timed<R>(&mut self, call: Call, f: impl FnOnce(&mut T) -> R) -> R {
        let s = &*self.shared;
        TimedShared::bump(&s.calls[call as usize], 1);
        // One step of Knuth's 64-bit linear congruential generator; its
        // top bits are the good ones.
        let dice = &s.dice[call as usize];
        let roll = dice
            .load(Relaxed)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        dice.store(roll, Relaxed);
        if !(roll >> 32).is_multiple_of(SAMPLE_EVERY) {
            return f(&mut self.inner);
        }
        let start = Instant::now();
        let out = f(&mut self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        let k = TimedShared::bump(&s.sampled[call as usize], 1);
        TimedShared::bump(&s.sampled_ns[call as usize], ns);
        s.sink.lock().expect("no panics while held").record(
            call.name(),
            (start - s.epoch).as_nanos() as u64,
            ns,
            k,
        );
        out
    }
}

impl<M: PacketMeta, T: Transport<M>> Transport<M> for TimedTransport<T> {
    fn on_packet(&mut self, now: SimTime, pkt: Packet<M>, act: &mut TransportActions) {
        self.timed(Call::OnPacket, |t| t.on_packet(now, pkt, act))
    }

    fn on_timer(&mut self, now: SimTime, token: TimerToken, act: &mut TransportActions) {
        self.timed(Call::OnTimer, |t| t.on_timer(now, token, act))
    }

    fn next_packet(&mut self, now: SimTime) -> Option<Packet<M>> {
        let pkt = self.timed(Call::NextPacket, |t| t.next_packet(now));
        if let Some(p) = &pkt {
            let s = &*self.shared;
            let same_rack = p.src.0 / s.hosts_per_rack == p.dst.0 / s.hosts_per_rack;
            TimedShared::bump(&s.packets, 1);
            TimedShared::bump(&s.port_hops, if same_rack { 2 } else { 4 });
        }
        pkt
    }

    fn inject_message(
        &mut self,
        now: SimTime,
        dst: HostId,
        len: u64,
        tag: u64,
        act: &mut TransportActions,
    ) {
        self.timed(Call::Inject, |t| t.inject_message(now, dst, len, tag, act));
        let s = &*self.shared;
        let injected = s.calls(Call::Inject);
        if s.messages >= 10 && injected.is_multiple_of(s.messages / 10) {
            s.mark_tenth();
        }
    }

    fn withholding_grants(&self, now: SimTime) -> bool {
        self.inner.withholding_grants(now)
    }

    fn delivered_bytes(&self) -> u64 {
        self.inner.delivered_bytes()
    }

    fn take_message_delay(&mut self, src: HostId, tag: u64) -> DelayBreakdown {
        self.inner.take_message_delay(src, tag)
    }

    fn grant_stats(&self) -> GrantStats {
        self.inner.grant_stats()
    }
}

/// Nanoseconds one timed call spends reading the clock: the median of
/// many back-to-back `Instant::now()` / `elapsed()` pairs.
pub fn clock_cost_ns() -> f64 {
    let mut samples: Vec<f64> = (0..20_001)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(t).elapsed().as_nanos() as f64
        })
        .collect();
    homa_benchmark::stats::median(&mut samples).expect("nonempty")
}

/// A transport that does nothing, for calibrating the wrapper.
struct Null;

#[derive(Debug, Clone)]
struct NullMeta;

impl PacketMeta for NullMeta {
    fn wire_bytes(&self) -> u32 {
        0
    }
    fn priority(&self) -> u8 {
        0
    }
    fn is_control(&self) -> bool {
        true
    }
    fn goodput_bytes(&self) -> u32 {
        0
    }
}

impl Transport<NullMeta> for Null {
    fn on_packet(&mut self, _: SimTime, _: Packet<NullMeta>, _: &mut TransportActions) {}
    fn on_timer(&mut self, _: SimTime, _: TimerToken, _: &mut TransportActions) {}
    fn next_packet(&mut self, _: SimTime) -> Option<Packet<NullMeta>> {
        None
    }
    fn inject_message(&mut self, _: SimTime, _: HostId, _: u64, _: u64, _: &mut TransportActions) {}
}

/// What the wrapper itself costs, so it can be subtracted.
#[derive(Debug, Clone, Copy)]
pub struct WrapperCost {
    /// Nanoseconds of clock reading inside one timed span.
    pub clock_ns: f64,
    /// Nanoseconds the wrapper adds per call, the timed ones averaged in:
    /// counting, and one call in sixteen two clock reads and a span record.
    pub per_call_ns: f64,
}

/// Measure [`WrapperCost`] by wrapping a transport that does nothing.
pub fn calibrate(topo: &Topology) -> WrapperCost {
    const CALLS: u64 = 1_600_000;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let shared = TimedShared::new(0, topo, 0);
        let mut t = TimedTransport::new(Null, shared);
        let start = Instant::now();
        for _ in 0..CALLS {
            std::hint::black_box(t.next_packet(SimTime::ZERO));
        }
        best = best.min(start.elapsed().as_nanos() as f64 / CALLS as f64);
    }
    WrapperCost { clock_ns: clock_cost_ns(), per_call_ns: best }
}
