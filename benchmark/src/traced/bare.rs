//! The benchmark's own loop over `Network`: the same arrivals as
//! `run_oneway`, injected and drained through
//! `Network::{inject_message, run_until, run_next_before,
//! take_app_events}` with the least bookkeeping that still knows when
//! every message has met its fate. Its CPU time is the fabric plus the
//! transports; what `run_oneway` costs beyond it is the harness.

use crate::timed::{TimedShared, TimedTransport};
use homa_benchmark::procfs::process_cpu_ns;
use homa_benchmark::sim::{arrival_generator, SimDriver};
use homa_harness::driver::OnewayOpts;
use homa_harness::ScenarioSpec;
use homa_sim::{
    AppEvent, HostId, Network, PacketMeta, QueueDiscipline, RunStats, SimTime, Transport,
};
use homa_workloads::arrivals::Arrival;
use std::sync::Arc;
use std::time::Instant;

/// How a driver dresses each transport before handing it to the fabric.
pub trait Wrap {
    /// The dressed transport.
    type Of<M: PacketMeta, T: Transport<M>>: Transport<M>;
    /// Dress `t`.
    fn wrap<M: PacketMeta, T: Transport<M>>(&self, t: T) -> Self::Of<M, T>;
}

/// No wrapper: the transport itself.
pub struct Plain;

impl Wrap for Plain {
    type Of<M: PacketMeta, T: Transport<M>> = T;
    fn wrap<M: PacketMeta, T: Transport<M>>(&self, t: T) -> T {
        t
    }
}

/// Wrap in [`TimedTransport`].
pub struct Timed(pub Arc<TimedShared>);

impl Wrap for Timed {
    type Of<M: PacketMeta, T: Transport<M>> = TimedTransport<T>;
    fn wrap<M: PacketMeta, T: Transport<M>>(&self, t: T) -> TimedTransport<T> {
        TimedTransport::new(t, Arc::clone(&self.0))
    }
}

/// What the bare loop measured.
#[derive(Debug, Clone)]
pub struct BareRun {
    /// CPU seconds of the loop, arrivals and `Network::new` excluded.
    pub cpu_s: f64,
    /// Wall microseconds of `Network::new` with every transport.
    pub build_us: f64,
    /// Wall nanoseconds to draw the arrivals, per message.
    pub arrival_ns_per_msg: f64,
    /// `run_until` plus `run_next_before` calls made.
    pub run_calls: u64,
    /// Messages delivered and aborted.
    pub delivered: u64,
    /// See `delivered`.
    pub aborted: u64,
    /// Fabric statistics at the end.
    pub stats: RunStats,
}

/// The bare loop, with wrapped transports.
pub struct Bare<W>(pub W);

impl<W: Wrap> SimDriver for Bare<W> {
    type Out = BareRun;
    fn drive<M: PacketMeta, T: Transport<M>>(
        self,
        spec: &ScenarioSpec,
        queues: Option<QueueDiscipline>,
        mut make: impl FnMut(HostId) -> T,
    ) -> BareRun {
        let topo = spec.topology();
        let n = spec.messages;
        let mut gen = arrival_generator(spec, &topo);
        let start = Instant::now();
        let arrivals: Vec<Arrival> = (0..n).map(|_| gen.next_arrival()).collect();
        let arrival_ns_per_msg = start.elapsed().as_nanos() as f64 / n.max(1) as f64;

        let start = Instant::now();
        let mut net: Network<M, W::Of<M, T>> =
            Network::new(topo, spec.netcfg_with(queues), |h| self.0.wrap(make(h)));
        if !spec.faults.is_empty() {
            net.install_faults(&spec.faults);
        }
        let build_us = start.elapsed().as_secs_f64() * 1e6;

        let (mut delivered, mut aborted, mut run_calls) = (0u64, 0u64, 0u64);
        // A message meets one fate: the first of delivery and abort. Under
        // faults a sender can abort a message the receiver already has.
        let mut settled = vec![false; n as usize];
        let mut settle =
            |net: &mut Network<M, W::Of<M, T>>, delivered: &mut u64, aborted: &mut u64| {
                for (_, _, ev) in net.take_app_events() {
                    let (tag, count) = match ev {
                        AppEvent::MessageDelivered { tag, .. } => (tag, &mut *delivered),
                        AppEvent::Aborted { tag, .. } => (tag, &mut *aborted),
                        _ => continue,
                    };
                    if let Some(slot) = settled.get_mut(tag as usize).filter(|s| !**s) {
                        *slot = true;
                        *count += 1;
                    }
                }
            };
        let cpu0 = process_cpu_ns();
        for (tag, a) in arrivals.iter().enumerate() {
            net.run_until(SimTime::from_nanos(a.at_ns));
            run_calls += 1;
            settle(&mut net, &mut delivered, &mut aborted);
            net.inject_message(HostId(a.src), HostId(a.dst), a.size, tag as u64);
        }
        let deadline = net.now() + OnewayOpts::default().drain;
        loop {
            settle(&mut net, &mut delivered, &mut aborted);
            // `run_oneway` stops draining once no message is pending.
            // Its checks have already shown no duplicate deliveries on
            // this spec, so counting fates finds the same moment.
            if delivered + aborted >= n || net.now() >= deadline {
                break;
            }
            run_calls += 1;
            if net.run_next_before(deadline).is_none() {
                break;
            }
        }
        let cpu_s = process_cpu_ns().saturating_sub(cpu0) as f64 / 1e9;
        BareRun {
            cpu_s,
            build_us,
            arrival_ns_per_msg,
            run_calls,
            delivered,
            aborted,
            stats: net.harvest_stats(),
        }
    }
}
