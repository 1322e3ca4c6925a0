//! Stateful model-based fuzzing of [`HomaEndpoint`] pairs.
//!
//! The scenario fuzzers exercise whole simulator runs; this module goes
//! one level deeper and drives the protocol state machine itself. A
//! seeded op-sequence generator ([`OpTrace::arbitrary`]) interleaves the
//! endpoint's entire public driving surface — `send_message`,
//! `begin_rpc`, `send_response`, `on_packet`, `timer_tick`,
//! `poll_transmit` — with faults on an adversarial in-memory channel
//! (drop, duplicate, reorder within a bounded window, delay past the
//! resend timeout). A small reference model checks protocol invariants
//! after every op:
//!
//! * granted / sent / received bytes never exceed the message length,
//!   and every in-flight DATA header's `msg_len` matches the model;
//! * delivery is at-most-once per [`MsgKey`] *unless the channel made
//!   byte-level redundancy possible* (a duplicated DATA packet, or any
//!   `retransmit` DATA observed on the wire — Homa is at-least-once by
//!   design, §3.8, so duplicates are only legal when duplicate bytes
//!   exist);
//! * no new grants for a delivered message (same redundancy carve-out:
//!   ghost state re-created by duplicate DATA may re-grant);
//! * `RpcCompleted` fires at most once per RPC, never after an abort,
//!   and always with the length the application actually responded with;
//! * `outstanding_rpcs` / `client_rpc_seqs` bookkeeping matches the
//!   model exactly, and `delivered_bytes` is monotone.
//!
//! After the op sequence, the harness drains the pair over a fault-free
//! channel (answering every delivered request like a well-behaved
//! application) and requires full quiescence: no inbound or outbound
//! state, no outstanding RPCs, no pending packets, and every message
//! accounted for — delivered, aborted, or provably lost to a channel
//! drop. Failures shrink with the family-wide greedy shrinker to a
//! replayable one-line op trace ([`OpTrace::to_ops_line`] /
//! [`parse_ops_line`]), mirroring the spec-line replay flow.

use super::{shrink_to_minimal_with, SplitMix64};
use homa::config::HomaConfig;
use homa::endpoint::{HomaEndpoint, HomaEvent};
use homa::packets::{Dir, HomaPacket, MsgKey, PeerId};
use std::collections::{HashMap, HashSet, VecDeque};

/// Which endpoint of the pair an op acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// Endpoint `a`, peer id 0.
    A,
    /// Endpoint `b`, peer id 1.
    B,
}

impl End {
    fn idx(self) -> usize {
        match self {
            End::A => 0,
            End::B => 1,
        }
    }

    fn peer(self) -> PeerId {
        PeerId(self.idx() as u32)
    }

    fn other(self) -> End {
        match self {
            End::A => End::B,
            End::B => End::A,
        }
    }

    fn letter(self) -> char {
        match self {
            End::A => 'a',
            End::B => 'b',
        }
    }

    fn from_letter(c: char) -> Option<End> {
        match c {
            'a' => Some(End::A),
            'b' => Some(End::B),
            _ => None,
        }
    }
}

/// One step of a stateful fuzz run. Channel-fault ops act on the queue
/// of packets *headed to* the named endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `who` starts a one-way message of `len` bytes to the other end.
    SendMessage {
        /// Acting endpoint.
        who: End,
        /// Message length in bytes (≥ 1).
        len: u64,
    },
    /// `who` begins an RPC; the eventual response will be `resp_len`.
    BeginRpc {
        /// Acting endpoint (the client).
        who: End,
        /// Request length in bytes (≥ 1).
        req_len: u64,
        /// Response length the application will answer with (≥ 1).
        resp_len: u64,
    },
    /// `who` answers its oldest still-unanswered delivered request.
    /// A no-op if none is pending.
    Respond {
        /// Acting endpoint (the server).
        who: End,
    },
    /// Pull up to `count` packets out of `who` onto the channel.
    Poll {
        /// Acting endpoint.
        who: End,
        /// Maximum packets to pull.
        count: u32,
    },
    /// Deliver up to `count` queued packets into `to`.
    Deliver {
        /// Receiving endpoint.
        to: End,
        /// Maximum packets to deliver.
        count: u32,
    },
    /// Advance the shared clock by `advance_ns`, then tick `who`.
    Tick {
        /// Endpoint whose timers run.
        who: End,
        /// Nanoseconds to advance the shared clock first.
        advance_ns: u64,
    },
    /// Drop the head packet queued toward `to`.
    DropHead {
        /// Victim queue's endpoint.
        to: End,
    },
    /// Duplicate the head packet queued toward `to` (copy goes to the
    /// back of the queue).
    DupHead {
        /// Victim queue's endpoint.
        to: End,
    },
    /// Swap the head packet toward `to` with the one `depth` places
    /// behind it (bounded-window reorder).
    ReorderHead {
        /// Victim queue's endpoint.
        to: End,
        /// Window depth (clamped to the queue).
        depth: u32,
    },
    /// Move the head packet toward `to` to the back of the queue; with
    /// a following [`Op::Tick`] past the resend interval this models
    /// delay beyond the retransmission timeout.
    DelayHead {
        /// Victim queue's endpoint.
        to: End,
    },
}

/// A replayable sequence of [`Op`]s: the stateful analog of a
/// [`crate::ScenarioSpec`] — a run is a pure function of its trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    /// The ops, applied in order.
    pub ops: Vec<Op>,
}

/// Clock advances the generator draws from: sub-interval nudges, just
/// past the resend interval (2 ms by default), and far past the whole
/// abort budget.
const TICK_ADVANCES: [u64; 5] = [50_000, 300_000, 2_100_000, 2_600_000, 11_000_000];

fn arbitrary_len(rng: &mut SplitMix64) -> u64 {
    match rng.below(10) {
        0..=3 => rng.range(1, 1_400),     // single packet
        4..=6 => rng.range(1_401, 9_700), // inside the blind prefix
        _ => rng.range(9_701, 60_000),    // needs grants
    }
}

fn arbitrary_end(rng: &mut SplitMix64) -> End {
    if rng.chance(1, 2) {
        End::A
    } else {
        End::B
    }
}

impl OpTrace {
    /// A seeded, bounded random op sequence. Polls and delivers dominate
    /// so traffic actually flows; ticks use the `TICK_ADVANCES` table so resend
    /// and abort timers genuinely fire; faults are common enough that
    /// most traces exercise loss recovery.
    pub fn arbitrary(seed: u64) -> OpTrace {
        let mut rng = SplitMix64::new(seed);
        let n = rng.range(16, 48);
        let mut ops = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let who = arbitrary_end(&mut rng);
            let op = match rng.below(25) {
                0..=2 => Op::SendMessage { who, len: arbitrary_len(&mut rng) },
                3..=5 => Op::BeginRpc {
                    who,
                    req_len: arbitrary_len(&mut rng),
                    resp_len: arbitrary_len(&mut rng),
                },
                6..=7 => Op::Respond { who },
                8..=12 => Op::Poll { who, count: rng.range(1, 8) as u32 },
                13..=17 => Op::Deliver { to: who, count: rng.range(1, 8) as u32 },
                18..=21 => Op::Tick {
                    who,
                    advance_ns: TICK_ADVANCES[rng.below(TICK_ADVANCES.len() as u64) as usize],
                },
                22 => Op::DropHead { to: who },
                23 => Op::DupHead { to: who },
                _ => {
                    if rng.chance(1, 2) {
                        Op::ReorderHead { to: who, depth: rng.range(1, 4) as u32 }
                    } else {
                        Op::DelayHead { to: who }
                    }
                }
            };
            ops.push(op);
        }
        OpTrace { ops }
    }

    /// The one-line replay encoding: comma-joined op tokens (`ma:5000`,
    /// `ra:300:5000`, `sb`, `pa:3`, `db:2`, `ta:2100000`, `xa`, `ub`,
    /// `oa:3`, `yb`), or `-` for the empty trace. Inverse of
    /// [`parse_ops_line`].
    pub fn to_ops_line(&self) -> String {
        if self.ops.is_empty() {
            return "-".to_string();
        }
        let toks: Vec<String> = self
            .ops
            .iter()
            .map(|op| match *op {
                Op::SendMessage { who, len } => format!("m{}:{len}", who.letter()),
                Op::BeginRpc { who, req_len, resp_len } => {
                    format!("r{}:{req_len}:{resp_len}", who.letter())
                }
                Op::Respond { who } => format!("s{}", who.letter()),
                Op::Poll { who, count } => format!("p{}:{count}", who.letter()),
                Op::Deliver { to, count } => format!("d{}:{count}", to.letter()),
                Op::Tick { who, advance_ns } => format!("t{}:{advance_ns}", who.letter()),
                Op::DropHead { to } => format!("x{}", to.letter()),
                Op::DupHead { to } => format!("u{}", to.letter()),
                Op::ReorderHead { to, depth } => format!("o{}:{depth}", to.letter()),
                Op::DelayHead { to } => format!("y{}", to.letter()),
            })
            .collect();
        toks.join(",")
    }

    /// Candidate simplifications, most aggressive first: drop each
    /// channel-fault op, drop each op of any kind, then halve message
    /// lengths (floored at one byte). Every candidate is itself a legal
    /// trace, so the greedy shrinker can walk the list freely.
    pub fn shrink(&self) -> Vec<OpTrace> {
        let mut out = Vec::new();
        let is_fault = |op: &Op| {
            matches!(
                op,
                Op::DropHead { .. }
                    | Op::DupHead { .. }
                    | Op::ReorderHead { .. }
                    | Op::DelayHead { .. }
            )
        };
        for i in 0..self.ops.len() {
            if is_fault(&self.ops[i]) {
                let mut ops = self.ops.clone();
                ops.remove(i);
                out.push(OpTrace { ops });
            }
        }
        for i in 0..self.ops.len() {
            if !is_fault(&self.ops[i]) {
                let mut ops = self.ops.clone();
                ops.remove(i);
                out.push(OpTrace { ops });
            }
        }
        for i in 0..self.ops.len() {
            let halved = match self.ops[i] {
                Op::SendMessage { who, len } if len > 1 => {
                    Some(Op::SendMessage { who, len: (len / 2).max(1) })
                }
                Op::BeginRpc { who, req_len, resp_len } if req_len > 1 || resp_len > 1 => {
                    Some(Op::BeginRpc {
                        who,
                        req_len: (req_len / 2).max(1),
                        resp_len: (resp_len / 2).max(1),
                    })
                }
                _ => None,
            };
            if let Some(op) = halved {
                let mut ops = self.ops.clone();
                ops[i] = op;
                out.push(OpTrace { ops });
            }
        }
        out
    }
}

fn parse_end(tok: &str, i: usize, c: char) -> Result<End, String> {
    End::from_letter(c).ok_or_else(|| format!("op {i} `{tok}`: endpoint must be `a` or `b`"))
}

fn parse_num(tok: &str, i: usize, part: &str, what: &str) -> Result<u64, String> {
    part.parse().map_err(|_| format!("op {i} `{tok}`: bad {what} `{part}`"))
}

/// Parse a [`OpTrace::to_ops_line`] string back into a trace. Errors
/// name the offending op index and token, mirroring the named-key
/// errors of [`crate::ScenarioSpec::parse_spec_line`].
pub fn parse_ops_line(line: &str) -> Result<OpTrace, String> {
    let line = line.trim();
    if line.is_empty() {
        return Err("empty ops line (use `-` for the empty trace)".to_string());
    }
    if line == "-" {
        return Ok(OpTrace { ops: Vec::new() });
    }
    let mut ops = Vec::new();
    for (i, tok) in line.split(',').enumerate() {
        let tok = tok.trim();
        let mut chars = tok.chars();
        let (kind, end_ch) = match (chars.next(), chars.next()) {
            (Some(k), Some(e)) => (k, e),
            _ => return Err(format!("op {i} `{tok}`: too short")),
        };
        let who = parse_end(tok, i, end_ch)?;
        let rest: &str = chars.as_str();
        let args: Vec<&str> = if rest.is_empty() {
            Vec::new()
        } else {
            let rest = rest
                .strip_prefix(':')
                .ok_or_else(|| format!("op {i} `{tok}`: expected `:` before arguments"))?;
            rest.split(':').collect()
        };
        let argc = |want: usize| -> Result<(), String> {
            if args.len() == want {
                Ok(())
            } else {
                Err(format!("op {i} `{tok}`: expected {want} argument(s), got {}", args.len()))
            }
        };
        let op = match kind {
            'm' => {
                argc(1)?;
                Op::SendMessage { who, len: parse_num(tok, i, args[0], "length")?.max(1) }
            }
            'r' => {
                argc(2)?;
                Op::BeginRpc {
                    who,
                    req_len: parse_num(tok, i, args[0], "request length")?.max(1),
                    resp_len: parse_num(tok, i, args[1], "response length")?.max(1),
                }
            }
            's' => {
                argc(0)?;
                Op::Respond { who }
            }
            'p' => {
                argc(1)?;
                Op::Poll { who, count: parse_num(tok, i, args[0], "count")? as u32 }
            }
            'd' => {
                argc(1)?;
                Op::Deliver { to: who, count: parse_num(tok, i, args[0], "count")? as u32 }
            }
            't' => {
                argc(1)?;
                Op::Tick { who, advance_ns: parse_num(tok, i, args[0], "advance")? }
            }
            'x' => {
                argc(0)?;
                Op::DropHead { to: who }
            }
            'u' => {
                argc(0)?;
                Op::DupHead { to: who }
            }
            'o' => {
                argc(1)?;
                Op::ReorderHead { to: who, depth: parse_num(tok, i, args[0], "depth")? as u32 }
            }
            'y' => {
                argc(0)?;
                Op::DelayHead { to: who }
            }
            other => return Err(format!("op {i} `{tok}`: unknown op kind `{other}`")),
        };
        ops.push(op);
    }
    Ok(OpTrace { ops })
}

/// What the model knows about one message or RPC; indexed by its
/// application tag (the harness hands out unique tags).
#[derive(Debug)]
enum Rec {
    Oneway {
        from: End,
        key: MsgKey,
        len: u64,
        delivered: u32,
        out_aborted: bool,
    },
    Rpc {
        client: End,
        seq: u64,
        req_len: u64,
        resp_len: u64,
        completed: bool,
        aborted: bool,
        requests_arrived: u32,
    },
}

/// The whole harness: two real endpoints, the adversarial channel
/// between them, and the reference model.
struct Harness {
    eps: [HomaEndpoint; 2],
    /// `queues[i]` holds `(from, packet)` pairs headed to endpoint `i`.
    queues: [VecDeque<(PeerId, HomaPacket)>; 2],
    now: u64,
    records: Vec<Rec>,
    oneway_by_key: HashMap<MsgKey, usize>,
    rpc_by_seq: HashMap<(usize, u64), usize>,
    /// Requests delivered to an endpoint and not yet answered:
    /// `(client peer, rpc seq, tag)`.
    pending_requests: [VecDeque<(PeerId, u64, usize)>; 2],
    /// Keys for which the channel (or a retransmission) made duplicate
    /// bytes possible: dup-faulted DATA, or any `retransmit` DATA seen.
    redundant: HashSet<MsgKey>,
    /// Keys that lost a DATA packet to a channel drop.
    dropped: HashSet<MsgKey>,
    /// Keys whose receiver gave up on the inbound mid-message (the
    /// sender looked silent). For a one-way this is a legal terminal
    /// state: fire-and-forget messages carry no delivery guarantee once
    /// the receiver aborts.
    inbound_aborted: HashSet<MsgKey>,
    /// Keys whose delivery happened while control packets were still
    /// queued: a pre-delivery grant may surface from the queue later, so
    /// the grant-after-delivery check must give these amnesty.
    grant_amnesty: HashSet<MsgKey>,
    last_delivered_bytes: [u64; 2],
}

impl Harness {
    fn new() -> Harness {
        let cfg = HomaConfig::default();
        Harness {
            eps: [
                HomaEndpoint::new(End::A.peer(), cfg.clone()),
                HomaEndpoint::new(End::B.peer(), cfg),
            ],
            queues: [VecDeque::new(), VecDeque::new()],
            now: 0,
            records: Vec::new(),
            oneway_by_key: HashMap::new(),
            rpc_by_seq: HashMap::new(),
            pending_requests: [VecDeque::new(), VecDeque::new()],
            redundant: HashSet::new(),
            dropped: HashSet::new(),
            inbound_aborted: HashSet::new(),
            grant_amnesty: HashSet::new(),
            last_delivered_bytes: [0, 0],
        }
    }

    /// The model's expected length for any key it has ever created.
    fn expected_len(&self, key: MsgKey) -> Option<u64> {
        match key.dir {
            Dir::Oneway => self.oneway_by_key.get(&key).map(|&t| match self.records[t] {
                Rec::Oneway { len, .. } => len,
                Rec::Rpc { .. } => unreachable!("oneway index points at rpc"),
            }),
            Dir::Request | Dir::Response => {
                let client = End::from_letter((b'a' + key.origin.0 as u8) as char)?;
                let &t = self.rpc_by_seq.get(&(client.idx(), key.seq))?;
                match self.records[t] {
                    Rec::Rpc { req_len, resp_len, .. } => {
                        Some(if key.dir == Dir::Request { req_len } else { resp_len })
                    }
                    Rec::Oneway { .. } => unreachable!("rpc index points at oneway"),
                }
            }
        }
    }

    /// True once `key`'s payload has been delivered (one-way delivered,
    /// request executed, or response completed) — after which new grants
    /// are only legal if duplicate bytes exist for the key.
    fn key_delivered(&self, key: MsgKey) -> bool {
        match key.dir {
            Dir::Oneway => self.oneway_by_key.get(&key).is_some_and(
                |&t| matches!(self.records[t], Rec::Oneway { delivered, .. } if delivered > 0),
            ),
            Dir::Request | Dir::Response => {
                let Some(client) = End::from_letter((b'a' + key.origin.0 as u8) as char) else {
                    return false;
                };
                let Some(&t) = self.rpc_by_seq.get(&(client.idx(), key.seq)) else {
                    return false;
                };
                match &self.records[t] {
                    Rec::Rpc { requests_arrived, completed, .. } => {
                        if key.dir == Dir::Request {
                            *requests_arrived > 0
                        } else {
                            *completed
                        }
                    }
                    Rec::Oneway { .. } => false,
                }
            }
        }
    }

    /// Inspect a packet an endpoint just handed to the channel.
    fn observe_outgoing(&mut self, from: End, pkt: &HomaPacket) -> Result<(), String> {
        match pkt {
            HomaPacket::Data(h) => {
                let Some(len) = self.expected_len(h.key) else {
                    return Err(format!("{from:?} sent DATA for unknown key {:?}", h.key));
                };
                if h.msg_len != len {
                    return Err(format!(
                        "DATA for {:?} advertises msg_len {} but the model says {len}",
                        h.key, h.msg_len
                    ));
                }
                if h.offset + h.payload as u64 > len {
                    return Err(format!(
                        "DATA for {:?} spans {}..{} past its length {len}",
                        h.key,
                        h.offset,
                        h.offset + h.payload as u64
                    ));
                }
                if h.retransmit {
                    self.redundant.insert(h.key);
                }
            }
            HomaPacket::Grant(g) => {
                if self.key_delivered(g.key)
                    && !self.redundant.contains(&g.key)
                    && !self.grant_amnesty.contains(&g.key)
                {
                    return Err(format!(
                        "grant for {:?} after delivery with no duplicate bytes in flight",
                        g.key
                    ));
                }
                if let Some(len) = self.expected_len(g.key) {
                    if g.offset > len {
                        return Err(format!(
                            "grant for {:?} extends credit to {} past length {len}",
                            g.key, g.offset
                        ));
                    }
                }
            }
            HomaPacket::Resend(_) | HomaPacket::Busy(_) | HomaPacket::Cutoffs(_) => {}
        }
        Ok(())
    }

    /// Drain and model-check one endpoint's application events.
    fn process_events(&mut self, end: End) -> Result<(), String> {
        let events = self.eps[end.idx()].take_events();
        let stale_ctrl = self.eps[end.idx()].pending_ctrl() > 0;
        for ev in events {
            match ev {
                HomaEvent::MessageDelivered { src, seq, len, tag } => {
                    let key = MsgKey { origin: src, seq, dir: Dir::Oneway };
                    if stale_ctrl {
                        self.grant_amnesty.insert(key);
                    }
                    let Some(&t) = self.oneway_by_key.get(&key) else {
                        return Err(format!("{end:?} delivered unknown one-way {key:?}"));
                    };
                    let redundant = self.redundant.contains(&key);
                    let Rec::Oneway { from, len: mlen, delivered, .. } = &mut self.records[t]
                    else {
                        unreachable!("oneway index points at rpc");
                    };
                    if tag != t as u64 {
                        return Err(format!("one-way {key:?} delivered with tag {tag}, want {t}"));
                    }
                    if *mlen != len {
                        return Err(format!(
                            "one-way {key:?} delivered {len} bytes, model says {mlen}"
                        ));
                    }
                    if from.other() != end {
                        return Err(format!("one-way {key:?} delivered to its own sender"));
                    }
                    *delivered += 1;
                    if *delivered > 1 && !redundant {
                        return Err(format!(
                            "one-way {key:?} delivered {delivered} times with no duplicate bytes \
                             in flight"
                        ));
                    }
                }
                HomaEvent::RequestArrived { client, rpc_seq, len, tag } => {
                    let t = tag as usize;
                    let req_key = MsgKey { origin: client, seq: rpc_seq, dir: Dir::Request };
                    if stale_ctrl {
                        self.grant_amnesty.insert(req_key);
                    }
                    let redundant = self.redundant.contains(&req_key);
                    let Some(Rec::Rpc { client: c, seq, req_len, requests_arrived, .. }) =
                        self.records.get_mut(t)
                    else {
                        return Err(format!("{end:?} got request with unknown tag {tag}"));
                    };
                    if c.peer() != client || *seq != rpc_seq || c.other() != end {
                        return Err(format!(
                            "request tag {tag} arrived from {client:?} seq {rpc_seq}, model says \
                             {c:?} seq {seq}"
                        ));
                    }
                    if *req_len != len {
                        return Err(format!(
                            "request tag {tag} arrived with {len} bytes, model says {req_len}"
                        ));
                    }
                    *requests_arrived += 1;
                    if *requests_arrived > 1 && !redundant {
                        return Err(format!(
                            "request tag {tag} executed {requests_arrived} times with no \
                             duplicate bytes in flight"
                        ));
                    }
                    self.pending_requests[end.idx()].push_back((client, rpc_seq, t));
                }
                HomaEvent::RpcCompleted { server, rpc_seq, tag, resp_len } => {
                    let t = tag as usize;
                    if stale_ctrl {
                        self.grant_amnesty.insert(MsgKey {
                            origin: end.peer(),
                            seq: rpc_seq,
                            dir: Dir::Response,
                        });
                    }
                    let Some(Rec::Rpc { client, seq, resp_len: want, completed, aborted, .. }) =
                        self.records.get_mut(t)
                    else {
                        return Err(format!("{end:?} completed rpc with unknown tag {tag}"));
                    };
                    if *client != end || *seq != rpc_seq || client.other().peer() != server {
                        return Err(format!(
                            "rpc tag {tag} completed at {end:?} from {server:?} seq {rpc_seq}, \
                             model says client {client:?} seq {seq}"
                        ));
                    }
                    if *completed {
                        return Err(format!("rpc tag {tag} completed twice"));
                    }
                    if *aborted {
                        return Err(format!("rpc tag {tag} completed after aborting"));
                    }
                    if *want != resp_len {
                        return Err(format!(
                            "rpc tag {tag} completed with {resp_len} response bytes, the \
                             application answered with {want}"
                        ));
                    }
                    *completed = true;
                }
                HomaEvent::RpcAborted { server, tag } => {
                    let t = tag as usize;
                    let Some(Rec::Rpc { client, completed, aborted, .. }) = self.records.get_mut(t)
                    else {
                        return Err(format!("{end:?} aborted rpc with unknown tag {tag}"));
                    };
                    if *client != end || client.other().peer() != server {
                        return Err(format!("rpc tag {tag} aborted at the wrong endpoint"));
                    }
                    if *completed {
                        return Err(format!("rpc tag {tag} aborted after completing"));
                    }
                    if *aborted {
                        return Err(format!("rpc tag {tag} aborted twice"));
                    }
                    *aborted = true;
                }
                HomaEvent::OutboundAborted { dst, tag } => {
                    let t = tag as usize;
                    match self.records.get_mut(t) {
                        Some(Rec::Oneway { from, out_aborted, .. }) => {
                            if *from != end || from.other().peer() != dst {
                                return Err(format!(
                                    "one-way tag {tag} abandoned at the wrong endpoint"
                                ));
                            }
                            if *out_aborted {
                                return Err(format!("one-way tag {tag} abandoned twice"));
                            }
                            *out_aborted = true;
                        }
                        // A response the server gave up on: legal whenever
                        // the client side stopped granting; no bookkeeping
                        // beyond existence (the RPC outcome is tracked at
                        // the client).
                        Some(Rec::Rpc { client, .. }) => {
                            if client.other() != end {
                                return Err(format!(
                                    "response tag {tag} abandoned by the client side"
                                ));
                            }
                        }
                        None => {
                            return Err(format!("{end:?} abandoned unknown tag {tag}"));
                        }
                    }
                }
                // A one-way or request sender went silent mid-message
                // and the receiver gave up. Record the key: at
                // quiescence this is a legal terminal state for a
                // one-way (fire-and-forget delivery is forfeit once the
                // receiver aborts, e.g. when a packet sat in the
                // channel past the sender's linger window).
                HomaEvent::InboundAborted { key, .. } => {
                    if key.dir != Dir::Response && key.origin == end.peer() {
                        return Err(format!(
                            "{end:?} reported an inbound abort for a message it sent ({key:?})"
                        ));
                    }
                    self.inbound_aborted.insert(key);
                }
            }
        }
        Ok(())
    }

    /// Snapshot + bookkeeping invariants, checked after every op.
    fn check_invariants(&mut self) -> Result<(), String> {
        for end in [End::A, End::B] {
            let ep = &self.eps[end.idx()];
            let delivered = ep.delivered_bytes();
            if delivered < self.last_delivered_bytes[end.idx()] {
                return Err(format!("{end:?} delivered_bytes went backwards"));
            }
            self.last_delivered_bytes[end.idx()] = delivered;

            for (key, len, received, granted, _) in ep.inbound_snapshot() {
                if granted > len {
                    return Err(format!("{end:?} inbound {key:?} granted {granted} > len {len}"));
                }
                if received > len {
                    return Err(format!("{end:?} inbound {key:?} received {received} > len {len}"));
                }
                match self.expected_len(key) {
                    Some(want) if want == len => {}
                    Some(want) => {
                        return Err(format!(
                            "{end:?} inbound {key:?} has len {len}, model says {want}"
                        ));
                    }
                    None => return Err(format!("{end:?} inbound state for unknown key {key:?}")),
                }
            }
            for (key, len, sent, granted, _) in ep.outbound_snapshot() {
                if granted > len {
                    return Err(format!("{end:?} outbound {key:?} granted {granted} > len {len}"));
                }
                if sent > len {
                    return Err(format!("{end:?} outbound {key:?} sent {sent} > len {len}"));
                }
                match self.expected_len(key) {
                    Some(want) if want == len => {}
                    Some(want) => {
                        return Err(format!(
                            "{end:?} outbound {key:?} has len {len}, model says {want}"
                        ));
                    }
                    None => return Err(format!("{end:?} outbound state for unknown key {key:?}")),
                }
            }

            // Client bookkeeping: the endpoint's outstanding set must be
            // exactly the model's open RPCs for this end.
            let mut want: Vec<u64> = self
                .records
                .iter()
                .filter_map(|r| match r {
                    Rec::Rpc { client, seq, completed, aborted, .. }
                        if *client == end && !completed && !aborted =>
                    {
                        Some(*seq)
                    }
                    _ => None,
                })
                .collect();
            want.sort_unstable();
            let got = ep.client_rpc_seqs();
            if got != want {
                return Err(format!(
                    "{end:?} outstanding rpc seqs {got:?} diverge from the model's {want:?}"
                ));
            }
            if ep.outstanding_rpcs() != want.len() {
                return Err(format!(
                    "{end:?} outstanding_rpcs() {} != open set {}",
                    ep.outstanding_rpcs(),
                    want.len()
                ));
            }
        }
        Ok(())
    }

    fn respond_oldest(&mut self, who: End) {
        if let Some((client, seq, tag)) = self.pending_requests[who.idx()].pop_front() {
            let resp_len = match self.records[tag] {
                Rec::Rpc { resp_len, .. } => resp_len,
                Rec::Oneway { .. } => unreachable!("pending request points at oneway"),
            };
            self.eps[who.idx()].send_response(self.now, client, seq, resp_len, tag as u64);
        }
    }

    fn poll_onto_channel(&mut self, who: End, count: u32) -> Result<(), String> {
        for _ in 0..count {
            let Some((dst, pkt)) = self.eps[who.idx()].poll_transmit(self.now) else {
                break;
            };
            if dst != who.other().peer() {
                return Err(format!("{who:?} addressed a packet to {dst:?}"));
            }
            self.observe_outgoing(who, &pkt)?;
            self.queues[who.other().idx()].push_back((who.peer(), pkt));
        }
        Ok(())
    }

    fn deliver(&mut self, to: End, count: u32) {
        for _ in 0..count {
            let Some((from, pkt)) = self.queues[to.idx()].pop_front() else {
                break;
            };
            self.eps[to.idx()].on_packet(self.now, from, pkt);
        }
    }

    fn apply(&mut self, op: Op) -> Result<(), String> {
        match op {
            Op::SendMessage { who, len } => {
                let len = len.max(1);
                let tag = self.records.len();
                let seq =
                    self.eps[who.idx()].send_message(self.now, who.other().peer(), len, tag as u64);
                let key = MsgKey { origin: who.peer(), seq, dir: Dir::Oneway };
                self.records.push(Rec::Oneway {
                    from: who,
                    key,
                    len,
                    delivered: 0,
                    out_aborted: false,
                });
                self.oneway_by_key.insert(key, tag);
            }
            Op::BeginRpc { who, req_len, resp_len } => {
                let (req_len, resp_len) = (req_len.max(1), resp_len.max(1));
                let tag = self.records.len();
                let seq = self.eps[who.idx()].begin_rpc(
                    self.now,
                    who.other().peer(),
                    req_len,
                    tag as u64,
                );
                self.records.push(Rec::Rpc {
                    client: who,
                    seq,
                    req_len,
                    resp_len,
                    completed: false,
                    aborted: false,
                    requests_arrived: 0,
                });
                self.rpc_by_seq.insert((who.idx(), seq), tag);
            }
            Op::Respond { who } => self.respond_oldest(who),
            Op::Poll { who, count } => self.poll_onto_channel(who, count)?,
            Op::Deliver { to, count } => self.deliver(to, count),
            Op::Tick { who, advance_ns } => {
                self.now += advance_ns;
                self.eps[who.idx()].timer_tick(self.now);
            }
            Op::DropHead { to } => {
                if let Some((_, HomaPacket::Data(h))) = self.queues[to.idx()].pop_front() {
                    self.dropped.insert(h.key);
                }
            }
            Op::DupHead { to } => {
                if let Some(front) = self.queues[to.idx()].front().cloned() {
                    if let HomaPacket::Data(h) = &front.1 {
                        self.redundant.insert(h.key);
                    }
                    self.queues[to.idx()].push_back(front);
                }
            }
            Op::ReorderHead { to, depth } => {
                let q = &mut self.queues[to.idx()];
                if q.len() >= 2 {
                    let j = (depth as usize).clamp(1, q.len() - 1);
                    q.swap(0, j);
                }
            }
            Op::DelayHead { to } => {
                let q = &mut self.queues[to.idx()];
                if let Some(front) = q.pop_front() {
                    q.push_back(front);
                }
            }
        }
        self.process_events(End::A)?;
        self.process_events(End::B)?;
        self.check_invariants()
    }

    /// Fault-free drain to quiescence: pump every packet across, answer
    /// every delivered request, and tick time forward so resend and
    /// abort timers resolve whatever the adversarial phase left behind.
    fn drain(&mut self) -> Result<(), String> {
        let interval = self.eps[0].config().resend_interval_ns;
        for round in 0..48 {
            loop {
                let mut progressed = false;
                for end in [End::A, End::B] {
                    let before = self.queues[end.other().idx()].len();
                    self.poll_onto_channel(end, u32::MAX)?;
                    progressed |= self.queues[end.other().idx()].len() != before;
                }
                for end in [End::A, End::B] {
                    progressed |= !self.queues[end.idx()].is_empty();
                    self.deliver(end, u32::MAX);
                }
                for end in [End::A, End::B] {
                    progressed |= !self.pending_requests[end.idx()].is_empty();
                    while !self.pending_requests[end.idx()].is_empty() {
                        self.respond_oldest(end);
                    }
                }
                self.process_events(End::A)?;
                self.process_events(End::B)?;
                self.check_invariants()?;
                if !progressed {
                    break;
                }
            }
            // Past the resend interval (and on the last rounds, far past
            // every linger window) so sweeps fire.
            self.now += if round >= 40 { 50 * interval } else { interval + 100_000 };
            self.eps[0].timer_tick(self.now);
            self.eps[1].timer_tick(self.now);
            self.process_events(End::A)?;
            self.process_events(End::B)?;
            self.check_invariants()?;
        }
        self.check_quiescent()
    }

    fn check_quiescent(&self) -> Result<(), String> {
        for end in [End::A, End::B] {
            let ep = &self.eps[end.idx()];
            if ep.has_pending_tx() {
                return Err(format!("{end:?} still has pending packets at quiescence"));
            }
            if ep.inbound_count() != 0 {
                return Err(format!(
                    "{end:?} holds {} incomplete inbound messages at quiescence: {:?}",
                    ep.inbound_count(),
                    ep.inbound_snapshot()
                ));
            }
            if ep.outbound_count() != 0 {
                return Err(format!(
                    "{end:?} holds {} outbound messages at quiescence: {:?}",
                    ep.outbound_count(),
                    ep.outbound_snapshot()
                ));
            }
            if ep.outstanding_rpcs() != 0 {
                return Err(format!(
                    "{end:?} still has {} outstanding rpcs at quiescence (seqs {:?})",
                    ep.outstanding_rpcs(),
                    ep.client_rpc_seqs()
                ));
            }
            if ep.server_rpcs_pending() != 0 {
                return Err(format!(
                    "{end:?} still has {} unanswered requests after the drain responded to \
                     everything",
                    ep.server_rpcs_pending()
                ));
            }
        }
        // Every message reached a terminal state the channel can explain.
        for (t, rec) in self.records.iter().enumerate() {
            match rec {
                Rec::Oneway { key, delivered, out_aborted, .. } => {
                    if *delivered == 0
                        && !out_aborted
                        && !self.dropped.contains(key)
                        && !self.inbound_aborted.contains(key)
                    {
                        return Err(format!(
                            "one-way tag {t} ({key:?}) vanished: never delivered, the sender \
                             never abandoned it, the receiver never aborted it, and the channel \
                             dropped none of its packets"
                        ));
                    }
                }
                Rec::Rpc { seq, completed, aborted, .. } => {
                    if !completed && !aborted {
                        return Err(format!(
                            "rpc tag {t} (seq {seq}) never completed and never aborted"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Run a trace through the pair-plus-model harness: every op is applied,
/// invariants are checked after each, and the run ends with a fault-free
/// drain to quiescence. `Err` carries the first divergence.
pub fn check_ops(trace: &OpTrace) -> Result<(), String> {
    let mut h = Harness::new();
    for (i, &op) in trace.ops.iter().enumerate() {
        h.apply(op).map_err(|e| format!("after op {i} ({op:?}): {e}"))?;
    }
    h.drain().map_err(|e| format!("at quiescence: {e}"))
}

/// [`check_ops`], but with endpoint panics converted into `Err` so the
/// shrinker can minimize panicking traces the same way as divergences.
pub fn check_ops_caught(trace: &OpTrace) -> Result<(), String> {
    super::catch_panic(|| check_ops(trace))
        .unwrap_or_else(|msg| Err(format!("endpoint panicked: {msg}")))
}

/// Greedily shrink `trace` while `fails` keeps returning true; the
/// op-trace instantiation of
/// [`shrink_to_minimal_with`].
pub fn shrink_ops_to_minimal(trace: &OpTrace, fails: impl FnMut(&OpTrace) -> bool) -> OpTrace {
    shrink_to_minimal_with(trace, OpTrace::shrink, fails)
}

/// Total messages delivered across both endpoints after running `trace`
/// (ops plus the fault-free drain), with model verdicts ignored: a
/// deterministic run-outcome probe, used to exercise the shrinker
/// against predicates about what a trace *does* rather than how it is
/// shaped.
pub fn trace_deliveries(trace: &OpTrace) -> u64 {
    let mut h = Harness::new();
    for &op in &trace.ops {
        let _ = h.apply(op);
    }
    let _ = h.drain();
    h.eps[0].delivered_msgs() + h.eps[1].delivered_msgs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arbitrary_is_deterministic_and_bounded() {
        for seed in 0..300 {
            let a = OpTrace::arbitrary(seed);
            let b = OpTrace::arbitrary(seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!((16..=48).contains(&a.ops.len()), "seed {seed}: {} ops", a.ops.len());
        }
    }

    #[test]
    fn ops_lines_round_trip() {
        for seed in 0..300 {
            let trace = OpTrace::arbitrary(seed);
            let line = trace.to_ops_line();
            let back = parse_ops_line(&line)
                .unwrap_or_else(|e| panic!("seed {seed}: `{line}` failed to parse: {e}"));
            assert_eq!(back, trace, "seed {seed} diverged via `{line}`");
        }
        assert_eq!(parse_ops_line("-").unwrap(), OpTrace { ops: Vec::new() });
        assert_eq!(OpTrace { ops: Vec::new() }.to_ops_line(), "-");
    }

    #[test]
    fn ops_line_errors_name_the_op() {
        for bad in ["za", "m", "ma", "ma:xx", "ra:5", "pa:1:2", "mq:5", "ma:5,,", "oa"] {
            let err = parse_ops_line(bad).expect_err(&format!("`{bad}` should not parse"));
            assert!(err.contains("op "), "`{bad}` error lacks op index: {err}");
            assert!(err.contains('`'), "`{bad}` error lacks a quoted token: {err}");
        }
    }

    #[test]
    fn generator_covers_every_op_kind() {
        let mut seen = [false; 10];
        for seed in 0..200 {
            for op in OpTrace::arbitrary(seed).ops {
                let i = match op {
                    Op::SendMessage { .. } => 0,
                    Op::BeginRpc { .. } => 1,
                    Op::Respond { .. } => 2,
                    Op::Poll { .. } => 3,
                    Op::Deliver { .. } => 4,
                    Op::Tick { .. } => 5,
                    Op::DropHead { .. } => 6,
                    Op::DupHead { .. } => 7,
                    Op::ReorderHead { .. } => 8,
                    Op::DelayHead { .. } => 9,
                };
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some op kind never drawn: {seen:?}");
    }

    /// A small deterministic smoke run: the model accepts clean seeds.
    #[test]
    fn model_accepts_early_seeds() {
        for seed in 0..50 {
            let trace = OpTrace::arbitrary(seed);
            if let Err(e) = check_ops(&trace) {
                panic!("seed {seed} (`{}`) diverged: {e}", trace.to_ops_line());
            }
        }
    }

    /// A hand-written lossy exchange: drop the whole response, let the
    /// RPC recover through §3.7/§3.8 re-execution during the drain.
    #[test]
    fn model_accepts_handwritten_loss_trace() {
        let line = "ra:200:30000,pa:8,da:8,db:8,sb,pb:4,xb,xb,xb,xb,ta:2100000,pa:4";
        let trace = parse_ops_line(line).unwrap();
        check_ops(&trace).unwrap_or_else(|e| panic!("`{line}` diverged: {e}"));
    }

    #[test]
    fn shrink_candidates_stay_parseable() {
        for seed in 0..50 {
            let trace = OpTrace::arbitrary(seed);
            for cand in trace.shrink() {
                let line = cand.to_ops_line();
                assert_eq!(parse_ops_line(&line).unwrap(), cand, "seed {seed} via `{line}`");
            }
        }
    }
}
