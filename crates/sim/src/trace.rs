//! The flight recorder: event-level tracing and derived timelines.
//!
//! Aggregate [`crate::RunStats`] answer *how much*; this module answers
//! *when* and *why*. With tracing enabled
//! ([`crate::Network::enable_trace`]), the fabric emits a typed
//! [`TraceEvent`] at every observable transition — packet enqueue/dequeue
//! with priority and queue depth, transmission start, grant issued and
//! received, resend request, preemption of a lower-priority packet,
//! fault drop, message start and delivery — into a bounded
//! [`FlightRecorder`] ring.
//!
//! Three properties the rest of the workspace depends on:
//!
//! * **Free when off.** Every emit site is guarded by a `tracing()`
//!   check that short-circuits on one bool when no recorder is
//!   installed. Trace events are *not* simulator events: they never
//!   enter the event engine, so event counts and all simulation state
//!   are bit-identical with tracing on or off (`perf-smoke --compare`
//!   reads the untraced event counts exactly; `homa-bench`'s
//!   `tracing_does_not_change_the_run` compares the two runs).
//! * **Dispatch order.** Records are written in dispatch order, which
//!   is the global `(time, seq)` order, so one spec renders one byte
//!   stream (`tests/determinism.rs` pins this).
//! * **Deterministic serialization.** [`TraceRecord::write_jsonl`]
//!   renders a canonical one-object-per-line JSON form with fixed key
//!   order, so a trace can be golden-tested byte-for-byte.
//!
//! On top of the raw record stream, [`Timeline`] folds per-priority link
//! utilization and queue occupancy into fixed-width time buckets (the
//! paper's Fig. 9 visibility), and [`summarize_messages`] reconstructs
//! per-message lifecycles — queueing vs. transmission vs. grant/resend
//! activity — for the `repro trace` summarize view.

use crate::queues::EnqueueOutcome;
use crate::time::{SimDuration, SimTime};
use crate::topology::{HostId, NodeId};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;

fn outcome_label(o: EnqueueOutcome) -> &'static str {
    match o {
        EnqueueOutcome::Accepted => "ok",
        EnqueueOutcome::Dropped => "drop",
        EnqueueOutcome::Trimmed => "trim",
    }
}

/// One observable transition in the fabric. Every variant is a flat
/// `Copy` value — recording is a ring-buffer store, no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message was handed to a sender transport.
    MsgStart {
        /// Sending host.
        src: HostId,
        /// Receiving host.
        dst: HostId,
        /// Application bytes.
        len: u64,
        /// Application tag (echoed in the matching delivery).
        tag: u64,
    },
    /// A receiver transport delivered a complete message.
    MsgDelivered {
        /// Host that completed the delivery.
        host: HostId,
        /// Original sender.
        src: HostId,
        /// Application tag from the matching [`TraceEvent::MsgStart`].
        tag: u64,
        /// Application bytes delivered.
        len: u64,
    },
    /// A packet was offered to a switch egress queue.
    Enqueue {
        /// Switch holding the queue.
        node: NodeId,
        /// Egress port index on that switch.
        port: u32,
        /// Packet's source host.
        src: HostId,
        /// Packet's destination host.
        dst: HostId,
        /// Packet priority (0 = lowest, 7 = highest).
        prio: u8,
        /// Bytes the queue actually gained (post-trim; 0 on drop).
        bytes: u32,
        /// Queued packets after the operation.
        qpkts: u32,
        /// Queued bytes after the operation.
        qbytes: u64,
        /// Accepted, dropped, or trimmed.
        outcome: EnqueueOutcome,
    },
    /// A packet left a switch egress queue and began transmission.
    Dequeue {
        /// Switch holding the queue.
        node: NodeId,
        /// Egress port index on that switch.
        port: u32,
        /// Packet's source host.
        src: HostId,
        /// Packet's destination host.
        dst: HostId,
        /// Packet priority at dequeue (post-trim).
        prio: u8,
        /// Wire bytes leaving the queue.
        bytes: u32,
        /// Time spent waiting behind equal-or-higher-priority traffic,
        /// nanoseconds (preemption lag excluded — add `lag_ns` for the
        /// total wait).
        waited_ns: u64,
        /// Of the wait, time attributable to a lower-priority packet
        /// holding the link (preemption lag), nanoseconds.
        lag_ns: u64,
        /// Queued bytes remaining after the dequeue.
        qbytes: u64,
    },
    /// A packet began serialization onto a link (host NIC pulls and
    /// switch pass-throughs included — every transmission has exactly
    /// one `TxStart`).
    TxStart {
        /// Transmitting node.
        node: NodeId,
        /// Egress port index.
        port: u32,
        /// Packet's source host.
        src: HostId,
        /// Packet's destination host.
        dst: HostId,
        /// Packet priority.
        prio: u8,
        /// Wire bytes serialized.
        bytes: u32,
        /// Serialization time at this link's rate, nanoseconds.
        dur_ns: u64,
    },
    /// An arriving packet outranks the packet currently occupying the
    /// link — the arrival will wait out the residual serialization
    /// (Fig. 14's preemption lag, observed at the moment it begins).
    Preempted {
        /// Switch where the collision happened.
        node: NodeId,
        /// Egress port index.
        port: u32,
        /// Priority of the arriving (winning) packet.
        prio: u8,
        /// Priority of the in-flight (losing) packet.
        over_prio: u8,
        /// Residual serialization time of the in-flight packet,
        /// nanoseconds.
        lag_ns: u64,
    },
    /// A packet was discarded because its egress link was faulted down.
    FaultDrop {
        /// Switch that dropped the packet.
        node: NodeId,
        /// Faulted egress port index.
        port: u32,
        /// Packet's source host.
        src: HostId,
        /// Packet's destination host.
        dst: HostId,
        /// Packet priority.
        prio: u8,
    },
    /// A receiver transport put a grant on the wire.
    GrantIssued {
        /// Granting (receiving) host.
        from: HostId,
        /// Granted (sending) host.
        to: HostId,
        /// New granted byte offset.
        offset: u64,
        /// Scheduled priority the grant assigns.
        prio: u8,
    },
    /// A sender transport received a grant.
    GrantReceived {
        /// Host receiving the grant (the message sender).
        host: HostId,
        /// Host that issued it (the message receiver).
        from: HostId,
        /// Granted byte offset.
        offset: u64,
        /// Scheduled priority assigned.
        prio: u8,
    },
    /// A receiver transport requested retransmission of a byte range.
    Resend {
        /// Requesting (receiving) host.
        from: HostId,
        /// Host asked to retransmit (the message sender).
        to: HostId,
        /// First missing byte.
        offset: u64,
        /// Missing byte count.
        len: u64,
    },
}

/// A timestamped [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time the event fired.
    pub at: SimTime,
    /// What happened.
    pub ev: TraceEvent,
}

fn write_node(out: &mut String, node: NodeId) {
    match node {
        NodeId::Host(h) => {
            let _ = write!(out, "\"h{}\"", h.0);
        }
        NodeId::Tor(r) => {
            let _ = write!(out, "\"tor{r}\"");
        }
        NodeId::Spine(s) => {
            let _ = write!(out, "\"spine{s}\"");
        }
    }
}

impl TraceRecord {
    /// Append the canonical JSONL form of this record (one JSON object,
    /// fixed key order, trailing newline) to `out`. Hand-rolled — the
    /// workspace builds offline, without serde — and deterministic, so
    /// traces can be compared byte-for-byte.
    pub fn write_jsonl(&self, out: &mut String) {
        let t = self.at.as_nanos();
        match self.ev {
            TraceEvent::MsgStart { src, dst, len, tag } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"ev\":\"msg_start\",\"src\":{},\"dst\":{},\"len\":{len},\"tag\":{tag}}}",
                    src.0, dst.0
                );
            }
            TraceEvent::MsgDelivered { host, src, tag, len } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"ev\":\"msg_done\",\"host\":{},\"src\":{},\"tag\":{tag},\"len\":{len}}}",
                    host.0, src.0
                );
            }
            TraceEvent::Enqueue { node, port, src, dst, prio, bytes, qpkts, qbytes, outcome } => {
                let _ = write!(out, "{{\"t\":{t},\"ev\":\"enq\",\"node\":");
                write_node(out, node);
                let _ = write!(
                    out,
                    ",\"port\":{port},\"src\":{},\"dst\":{},\"prio\":{prio},\"bytes\":{bytes},\"qpkts\":{qpkts},\"qbytes\":{qbytes},\"outcome\":\"{}\"}}",
                    src.0,
                    dst.0,
                    outcome_label(outcome)
                );
            }
            TraceEvent::Dequeue {
                node,
                port,
                src,
                dst,
                prio,
                bytes,
                waited_ns,
                lag_ns,
                qbytes,
            } => {
                let _ = write!(out, "{{\"t\":{t},\"ev\":\"deq\",\"node\":");
                write_node(out, node);
                let _ = write!(
                    out,
                    ",\"port\":{port},\"src\":{},\"dst\":{},\"prio\":{prio},\"bytes\":{bytes},\"waited_ns\":{waited_ns},\"lag_ns\":{lag_ns},\"qbytes\":{qbytes}}}",
                    src.0, dst.0
                );
            }
            TraceEvent::TxStart { node, port, src, dst, prio, bytes, dur_ns } => {
                let _ = write!(out, "{{\"t\":{t},\"ev\":\"tx\",\"node\":");
                write_node(out, node);
                let _ = write!(
                    out,
                    ",\"port\":{port},\"src\":{},\"dst\":{},\"prio\":{prio},\"bytes\":{bytes},\"dur_ns\":{dur_ns}}}",
                    src.0, dst.0
                );
            }
            TraceEvent::Preempted { node, port, prio, over_prio, lag_ns } => {
                let _ = write!(out, "{{\"t\":{t},\"ev\":\"preempt\",\"node\":");
                write_node(out, node);
                let _ = write!(
                    out,
                    ",\"port\":{port},\"prio\":{prio},\"over_prio\":{over_prio},\"lag_ns\":{lag_ns}}}"
                );
            }
            TraceEvent::FaultDrop { node, port, src, dst, prio } => {
                let _ = write!(out, "{{\"t\":{t},\"ev\":\"fault_drop\",\"node\":");
                write_node(out, node);
                let _ = write!(
                    out,
                    ",\"port\":{port},\"src\":{},\"dst\":{},\"prio\":{prio}}}",
                    src.0, dst.0
                );
            }
            TraceEvent::GrantIssued { from, to, offset, prio } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"ev\":\"grant_tx\",\"from\":{},\"to\":{},\"offset\":{offset},\"prio\":{prio}}}",
                    from.0, to.0
                );
            }
            TraceEvent::GrantReceived { host, from, offset, prio } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"ev\":\"grant_rx\",\"host\":{},\"from\":{},\"offset\":{offset},\"prio\":{prio}}}",
                    host.0, from.0
                );
            }
            TraceEvent::Resend { from, to, offset, len } => {
                let _ = write!(
                    out,
                    "{{\"t\":{t},\"ev\":\"resend\",\"from\":{},\"to\":{},\"offset\":{offset},\"len\":{len}}}",
                    from.0, to.0
                );
            }
        }
        out.push('\n');
    }
}

/// Render a slice of records as canonical JSONL (one record per line).
pub fn render_jsonl(records: &[TraceRecord]) -> String {
    // ~120 bytes per rendered line in practice; reserve once.
    let mut out = String::with_capacity(records.len() * 120 + 16);
    for r in records {
        r.write_jsonl(&mut out);
    }
    out
}

/// A bounded ring of [`TraceRecord`]s. When full, the *oldest* record is
/// evicted (flight-recorder semantics: the end of the run is what you
/// usually need) and `dropped` counts the evictions so truncation is
/// never silent.
#[derive(Debug)]
pub struct FlightRecorder {
    records: VecDeque<TraceRecord>,
    cap: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// Default ring capacity: 2^18 records (~10 MB), enough for every
    /// packet event of a perf-smoke-sized run.
    pub const DEFAULT_CAP: usize = 1 << 18;

    /// A recorder retaining at most `cap` records (minimum 1).
    pub fn new(cap: usize) -> Self {
        FlightRecorder { records: VecDeque::new(), cap: cap.max(1), dropped: 0 }
    }

    /// Append a record, evicting the oldest if the ring is full.
    #[inline]
    pub fn record(&mut self, at: SimTime, ev: TraceEvent) {
        if self.records.len() == self.cap {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord { at, ev });
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded (or everything was taken).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Oldest records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain the ring into a `Vec` in recording order.
    pub fn take(&mut self) -> Vec<TraceRecord> {
        self.records.drain(..).collect()
    }
}

/// Per-priority link utilization and queue occupancy folded into
/// fixed-width time buckets — the paper's Fig. 9 view, derived entirely
/// from a recorded trace (no simulator-side cost).
///
/// Utilization buckets accumulate serialization nanoseconds per priority
/// over every port matched by the fold's filter, with transmissions that
/// span bucket boundaries split proportionally. Occupancy buckets track
/// the peak of the aggregate queued bytes per priority across matched
/// ports, reconstructed from enqueue/dequeue byte deltas.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// Bucket width, nanoseconds.
    pub bucket_ns: u64,
    /// Per bucket: busy (serializing) nanoseconds by priority, summed
    /// over matched ports.
    pub busy_ns_by_prio: Vec<[u64; 8]>,
    /// Per bucket: peak aggregate queued bytes by priority across
    /// matched ports.
    pub peak_queue_by_prio: Vec<[u64; 8]>,
    /// Distinct matched ports that transmitted at least once.
    pub ports: usize,
}

impl Timeline {
    /// Fold `records` into buckets of `bucket` width, covering
    /// `[0, end)`. Only events at ports for which `port_filter` returns
    /// `true` contribute (pass `|_, _| true` for the whole fabric, or
    /// filter to TOR downlinks for the paper's receiver-side view).
    pub fn from_records(
        records: &[TraceRecord],
        bucket: SimDuration,
        end: SimTime,
        mut port_filter: impl FnMut(NodeId, u32) -> bool,
    ) -> Timeline {
        let bucket_ns = bucket.as_nanos().max(1);
        let nbuckets = (end.as_nanos().div_ceil(bucket_ns)).max(1) as usize;
        let mut tl = Timeline {
            bucket_ns,
            busy_ns_by_prio: vec![[0u64; 8]; nbuckets],
            peak_queue_by_prio: vec![[0u64; 8]; nbuckets],
            ports: 0,
        };
        // Aggregate queued bytes per priority across matched ports.
        let mut occupancy = [0u64; 8];
        let mut tx_ports: HashMap<(NodeId, u32), ()> = HashMap::new();
        for r in records {
            let t = r.at.as_nanos();
            match r.ev {
                TraceEvent::TxStart { node, port, prio, dur_ns, .. } if port_filter(node, port) => {
                    tx_ports.entry((node, port)).or_insert(());
                    let p = (prio as usize).min(7);
                    // Split the serialization interval across buckets.
                    let mut start = t;
                    let end_tx = t + dur_ns;
                    while start < end_tx {
                        let b = (start / bucket_ns) as usize;
                        if b >= nbuckets {
                            break;
                        }
                        let bucket_end = (b as u64 + 1) * bucket_ns;
                        let slice = end_tx.min(bucket_end) - start;
                        tl.busy_ns_by_prio[b][p] += slice;
                        start = bucket_end;
                    }
                }
                TraceEvent::Enqueue { node, port, prio, bytes, .. } if port_filter(node, port) => {
                    let p = (prio as usize).min(7);
                    occupancy[p] += bytes as u64;
                    let b = ((t / bucket_ns) as usize).min(nbuckets - 1);
                    tl.peak_queue_by_prio[b][p] = tl.peak_queue_by_prio[b][p].max(occupancy[p]);
                }
                TraceEvent::Dequeue { node, port, prio, bytes, .. } if port_filter(node, port) => {
                    let p = (prio as usize).min(7);
                    occupancy[p] = occupancy[p].saturating_sub(bytes as u64);
                    let b = ((t / bucket_ns) as usize).min(nbuckets - 1);
                    tl.peak_queue_by_prio[b][p] = tl.peak_queue_by_prio[b][p].max(occupancy[p]);
                }
                _ => {}
            }
        }
        tl.ports = tx_ports.len();
        tl
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.busy_ns_by_prio.len()
    }

    /// Whole-run utilization fraction per priority: busy time at each
    /// priority divided by total matched link-time (`ports × span`).
    /// Zeros if no matched port ever transmitted.
    pub fn utilization_by_prio(&self) -> [f64; 8] {
        let mut out = [0.0f64; 8];
        let span_ns = self.bucket_ns * self.buckets() as u64;
        let denom = (self.ports as u64 * span_ns) as f64;
        if denom == 0.0 {
            return out;
        }
        for b in &self.busy_ns_by_prio {
            for (o, busy) in out.iter_mut().zip(b.iter()) {
                *o += *busy as f64;
            }
        }
        for o in &mut out {
            *o /= denom;
        }
        out
    }
}

/// One message's reconstructed lifecycle, from a recorded trace.
///
/// Queueing and transmission time are attributed per `(src, dst)` pair
/// while the message is outstanding: when several messages between the
/// same pair overlap in time, packet-level waits are charged to the
/// earliest still-open message (the trace does not tag packets with
/// message identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgLifecycle {
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Application tag.
    pub tag: u64,
    /// Application bytes.
    pub len: u64,
    /// When the message was handed to the sender.
    pub start: SimTime,
    /// When it was delivered (`None` if the trace ends first).
    pub delivered: Option<SimTime>,
    /// Nanoseconds the message's packets spent waiting in switch queues
    /// (queueing + preemption lag).
    pub queued_ns: u64,
    /// Nanoseconds of serialization on the sender's uplink.
    pub tx_ns: u64,
    /// Grants received by the sender while the message was open.
    pub grants: u32,
    /// Resend requests received by the sender while the message was open.
    pub resends: u32,
}

impl MsgLifecycle {
    /// End-to-end latency, if the message completed inside the trace.
    pub fn latency(&self) -> Option<SimDuration> {
        self.delivered.map(|d| d.saturating_since(self.start))
    }
}

/// Reconstruct the lifecycle of every message started in `records`, in
/// start order. See [`MsgLifecycle`] for the attribution rules.
pub fn summarize_messages(records: &[TraceRecord]) -> Vec<MsgLifecycle> {
    let mut out: Vec<MsgLifecycle> = Vec::new();
    // Open messages per (src, dst), as indices into `out`, FIFO.
    let mut open: HashMap<(HostId, HostId), VecDeque<usize>> = HashMap::new();
    let first_open =
        |open: &HashMap<(HostId, HostId), VecDeque<usize>>,
         src: HostId,
         dst: HostId|
         -> Option<usize> { open.get(&(src, dst)).and_then(|q| q.front().copied()) };
    for r in records {
        match r.ev {
            TraceEvent::MsgStart { src, dst, len, tag } => {
                out.push(MsgLifecycle {
                    src,
                    dst,
                    tag,
                    len,
                    start: r.at,
                    delivered: None,
                    queued_ns: 0,
                    tx_ns: 0,
                    grants: 0,
                    resends: 0,
                });
                open.entry((src, dst)).or_default().push_back(out.len() - 1);
            }
            TraceEvent::MsgDelivered { host, src, tag, .. } => {
                if let Some(q) = open.get_mut(&(src, host)) {
                    // Deliveries can complete out of FIFO order (SRPT);
                    // close the matching tag, else the oldest.
                    let pos = q.iter().position(|&i| out[i].tag == tag).unwrap_or(0);
                    if let Some(i) = q.remove(pos) {
                        out[i].delivered = Some(r.at);
                    }
                }
            }
            TraceEvent::Dequeue { src, dst, waited_ns, lag_ns, .. } => {
                if let Some(i) = first_open(&open, src, dst) {
                    out[i].queued_ns += waited_ns + lag_ns;
                }
            }
            TraceEvent::TxStart { node, src, dst, dur_ns, .. } if node == NodeId::Host(src) => {
                if let Some(i) = first_open(&open, src, dst) {
                    out[i].tx_ns += dur_ns;
                }
            }
            TraceEvent::GrantReceived { host, from, .. } => {
                if let Some(i) = first_open(&open, host, from) {
                    out[i].grants += 1;
                }
            }
            TraceEvent::Resend { from, to, .. } => {
                if let Some(i) = first_open(&open, to, from) {
                    out[i].resends += 1;
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(n: u32) -> HostId {
        HostId(n)
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let mut fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.record(
                SimTime::from_nanos(i),
                TraceEvent::MsgStart { src: h(0), dst: h(1), len: i, tag: i },
            );
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 2);
        let taken = fr.take();
        assert!(fr.is_empty());
        // Oldest evicted: survivors are records 2..5 in order.
        assert_eq!(taken[0].at, SimTime::from_nanos(2));
        assert_eq!(taken[2].at, SimTime::from_nanos(4));
    }

    #[test]
    fn jsonl_is_canonical_and_stable() {
        let recs = [
            TraceRecord {
                at: SimTime::from_nanos(10),
                ev: TraceEvent::Enqueue {
                    node: NodeId::Tor(2),
                    port: 3,
                    src: h(1),
                    dst: h(9),
                    prio: 6,
                    bytes: 1460,
                    qpkts: 2,
                    qbytes: 2920,
                    outcome: EnqueueOutcome::Accepted,
                },
            },
            TraceRecord {
                at: SimTime::from_nanos(11),
                ev: TraceEvent::GrantIssued { from: h(9), to: h(1), offset: 9800, prio: 5 },
            },
        ];
        let got = render_jsonl(&recs);
        assert_eq!(
            got,
            "{\"t\":10,\"ev\":\"enq\",\"node\":\"tor2\",\"port\":3,\"src\":1,\"dst\":9,\
             \"prio\":6,\"bytes\":1460,\"qpkts\":2,\"qbytes\":2920,\"outcome\":\"ok\"}\n\
             {\"t\":11,\"ev\":\"grant_tx\",\"from\":9,\"to\":1,\"offset\":9800,\"prio\":5}\n"
        );
    }

    #[test]
    fn jsonl_covers_every_variant() {
        let evs = [
            TraceEvent::MsgStart { src: h(0), dst: h(1), len: 100, tag: 1 },
            TraceEvent::MsgDelivered { host: h(1), src: h(0), tag: 1, len: 100 },
            TraceEvent::Dequeue {
                node: NodeId::Spine(0),
                port: 1,
                src: h(0),
                dst: h(1),
                prio: 7,
                bytes: 100,
                waited_ns: 5,
                lag_ns: 2,
                qbytes: 0,
            },
            TraceEvent::TxStart {
                node: NodeId::Host(h(0)),
                port: 0,
                src: h(0),
                dst: h(1),
                prio: 7,
                bytes: 100,
                dur_ns: 80,
            },
            TraceEvent::Preempted {
                node: NodeId::Tor(0),
                port: 0,
                prio: 7,
                over_prio: 1,
                lag_ns: 40,
            },
            TraceEvent::FaultDrop { node: NodeId::Tor(1), port: 2, src: h(0), dst: h(1), prio: 0 },
            TraceEvent::GrantReceived { host: h(0), from: h(1), offset: 50, prio: 3 },
            TraceEvent::Resend { from: h(1), to: h(0), offset: 0, len: 100 },
        ];
        for ev in evs {
            let mut line = String::new();
            TraceRecord { at: SimTime::from_nanos(1), ev }.write_jsonl(&mut line);
            assert!(line.starts_with("{\"t\":1,\"ev\":\""), "{line}");
            assert!(line.ends_with("}\n"), "{line}");
        }
    }

    #[test]
    fn timeline_folds_utilization_and_occupancy() {
        let tor = NodeId::Tor(0);
        let recs = [
            // 100 ns of prio-7 serialization spanning the 0/1 bucket edge.
            TraceRecord {
                at: SimTime::from_nanos(950),
                ev: TraceEvent::TxStart {
                    node: tor,
                    port: 0,
                    src: h(0),
                    dst: h(1),
                    prio: 7,
                    bytes: 125,
                    dur_ns: 100,
                },
            },
            TraceRecord {
                at: SimTime::from_nanos(100),
                ev: TraceEvent::Enqueue {
                    node: tor,
                    port: 0,
                    src: h(0),
                    dst: h(1),
                    prio: 0,
                    bytes: 1000,
                    qpkts: 1,
                    qbytes: 1000,
                    outcome: EnqueueOutcome::Accepted,
                },
            },
            TraceRecord {
                at: SimTime::from_nanos(1200),
                ev: TraceEvent::Dequeue {
                    node: tor,
                    port: 0,
                    src: h(0),
                    dst: h(1),
                    prio: 0,
                    bytes: 1000,
                    waited_ns: 1100,
                    lag_ns: 0,
                    qbytes: 0,
                },
            },
        ];
        let tl = Timeline::from_records(
            &recs,
            SimDuration::from_nanos(1000),
            SimTime::from_nanos(2000),
            |_, _| true,
        );
        assert_eq!(tl.buckets(), 2);
        assert_eq!(tl.ports, 1);
        assert_eq!(tl.busy_ns_by_prio[0][7], 50);
        assert_eq!(tl.busy_ns_by_prio[1][7], 50);
        assert_eq!(tl.peak_queue_by_prio[0][0], 1000);
        assert_eq!(tl.peak_queue_by_prio[1][0], 0);
        let util = tl.utilization_by_prio();
        assert!((util[7] - 0.05).abs() < 1e-9, "{util:?}");
        // Filtered fold sees nothing.
        let none = Timeline::from_records(
            &recs,
            SimDuration::from_nanos(1000),
            SimTime::from_nanos(2000),
            |_, _| false,
        );
        assert_eq!(none.ports, 0);
        assert_eq!(none.utilization_by_prio(), [0.0; 8]);
    }

    #[test]
    fn lifecycle_reconstruction_attributes_phases() {
        let recs = [
            TraceRecord {
                at: SimTime::from_nanos(0),
                ev: TraceEvent::MsgStart { src: h(0), dst: h(1), len: 2000, tag: 42 },
            },
            TraceRecord {
                at: SimTime::from_nanos(10),
                ev: TraceEvent::TxStart {
                    node: NodeId::Host(h(0)),
                    port: 0,
                    src: h(0),
                    dst: h(1),
                    prio: 6,
                    bytes: 1060,
                    dur_ns: 848,
                },
            },
            TraceRecord {
                at: SimTime::from_nanos(900),
                ev: TraceEvent::Dequeue {
                    node: NodeId::Tor(0),
                    port: 1,
                    src: h(0),
                    dst: h(1),
                    prio: 6,
                    bytes: 1060,
                    waited_ns: 300,
                    lag_ns: 50,
                    qbytes: 0,
                },
            },
            TraceRecord {
                at: SimTime::from_nanos(1000),
                ev: TraceEvent::GrantReceived { host: h(0), from: h(1), offset: 2000, prio: 5 },
            },
            TraceRecord {
                at: SimTime::from_nanos(3000),
                ev: TraceEvent::MsgDelivered { host: h(1), src: h(0), tag: 42, len: 2000 },
            },
        ];
        let ms = summarize_messages(&recs);
        assert_eq!(ms.len(), 1);
        let m = &ms[0];
        assert_eq!((m.src, m.dst, m.tag, m.len), (h(0), h(1), 42, 2000));
        assert_eq!(m.delivered, Some(SimTime::from_nanos(3000)));
        assert_eq!(m.latency(), Some(SimDuration::from_nanos(3000)));
        assert_eq!(m.queued_ns, 350);
        assert_eq!(m.tx_ns, 848);
        assert_eq!(m.grants, 1);
        assert_eq!(m.resends, 0);
    }

    #[test]
    fn lifecycle_closes_matching_tag_out_of_order() {
        // Two overlapping messages on the same pair; the short one (tag 2)
        // completes first — SRPT — and must close its own entry.
        let recs = [
            TraceRecord {
                at: SimTime::from_nanos(0),
                ev: TraceEvent::MsgStart { src: h(0), dst: h(1), len: 9000, tag: 1 },
            },
            TraceRecord {
                at: SimTime::from_nanos(5),
                ev: TraceEvent::MsgStart { src: h(0), dst: h(1), len: 100, tag: 2 },
            },
            TraceRecord {
                at: SimTime::from_nanos(500),
                ev: TraceEvent::MsgDelivered { host: h(1), src: h(0), tag: 2, len: 100 },
            },
            TraceRecord {
                at: SimTime::from_nanos(9000),
                ev: TraceEvent::MsgDelivered { host: h(1), src: h(0), tag: 1, len: 9000 },
            },
        ];
        let ms = summarize_messages(&recs);
        assert_eq!(ms[0].delivered, Some(SimTime::from_nanos(9000)));
        assert_eq!(ms[1].delivered, Some(SimTime::from_nanos(500)));
    }
}
