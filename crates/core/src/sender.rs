//! Sender-side protocol state (§3.2, §4).
//!
//! The sender keeps an [`OutboundMessage`] per message in flight and
//! implements SRPT across them: whenever the NIC asks for a packet, the
//! transmittable message with the fewest remaining bytes wins. Grants
//! raise per-message transmission limits; RESENDs queue retransmission
//! ranges (answered with BUSY when the sender is occupied with
//! higher-priority messages, so the peer doesn't time out).
//!
//! State lifecycle follows §3.8: response messages are discarded the
//! moment their last byte is handed to the NIC (servers keep no state for
//! completed RPCs); request messages are owned by the RPC layer and
//! removed when the response arrives; one-way messages linger for four
//! resend intervals after their last byte so a late RESEND can still be
//! answered. Most one-ways are a single packet (§2), so every one of them
//! passes through that retention, and the state is laid out for it in
//! three stores:
//!
//! * **The active list**, a dense `Vec` of the messages with work left
//!   plus fully-sent requests. It is all that the per-packet paths scan
//!   (SRPT selection, the BUSY check, the stall sweep), so their cost
//!   follows the messages with work left, not the messages retained.
//! * **The own-message store**: the endpoint's own one-ways and requests,
//!   found by sequence number in 64-slot chunks. Their keys differ only
//!   in `seq`, handed out in rising order, so a slot is found by
//!   subtraction, with no hash. A slot is vacant, an index into the active
//!   list, or a *parked* one-way: one with nothing left to send, kept as
//!   a 40-byte record whose `seq` is its position. A chunk is freed the
//!   moment its last slot vacates, so one long message holding the front
//!   pins a run of empty chunk handles, not of slots.
//! * **Responses** alone are found through a hash map into the active
//!   list. Their keys are the client's (its id and its sequence
//!   numbers), so they are neither dense nor ours to choose, and the map
//!   keeps `std`'s keyed hash: a peer must not be able to pick keys that
//!   collide.
//!
//! A parked record holds what the protocol can still be asked about —
//! `len`, `tag`, `created_at`, `dst`, both priorities and the incast mark
//! — plus its first linger deadline, and nothing that follows from
//! "every byte was sent": `sent == granted == len` (a grant never exceeds
//! `len`, and `sent` never exceeds the grant), `retx` is empty,
//! `unsched_limit` is `cfg.unsched_limit_for(incast_mark)` clipped to
//! `len`, and the key's `origin` is the endpoint's own id, the same for
//! every message it starts. Its `silence` is not kept because nothing
//! reads it again: the stall sweep skips a message that is
//! `transmittable` or `fully_sent`, and a woken one-way is the first
//! until its retransmission is out and the second from then on. A RESEND
//! that queues a retransmission wakes the record into the active list
//! until the retransmission has gone out.
//!
//! Expiry needs no queue for a first full send: own messages start in
//! `seq` order with the clock, and none expires sooner than four resend
//! intervals after it started, so a sweep walks the store from the front
//! and stops at the first message too young to have expired. Only a
//! woken one-way's re-park queues a `(seq, deadline)` entry: its slot
//! keeps the earlier deadline while no sweep has passed it, and the queue
//! keeps the later one. A record therefore goes at the first deadline a
//! sweep reaches while it is parked, as if every full send queued one,
//! and a retransmission never extends retention.

use crate::config::{HomaConfig, MAX_PAYLOAD};
use crate::messages::{Due, OutboundMessage, Silence};
use crate::packets::{BusyHeader, DataHeader, Dir, MsgKey, PeerId};
use crate::unsched::PriorityMap;
use crate::Nanos;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// How the sender reacted to an incoming RESEND.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResendReaction {
    /// Retransmission queued; data will flow shortly.
    Queued,
    /// Sender is busy with shorter messages; a BUSY notification should be
    /// sent so the peer does not time out (the retransmission is queued
    /// regardless and will be served in SRPT order).
    QueuedButBusy(BusyHeader),
    /// The message is unknown (state already discarded, or never existed).
    Unknown,
}

/// A fully-sent one-way retained for late RESENDs: the fields of its
/// [`OutboundMessage`] that a full send does not determine (module doc).
#[derive(Debug, Clone, Copy)]
struct Parked {
    len: u64,
    tag: u64,
    created_at: Nanos,
    /// The first linger deadline still to come when it was parked: an
    /// expiry sweep at or past it drops the record.
    expire_at: Nanos,
    dst: PeerId,
    sched_prio: u8,
    unsched_prio: u8,
    incast_mark: bool,
}

impl Parked {
    /// The message as it stood when its last byte went out.
    fn wake(&self, key: MsgKey, cfg: &HomaConfig) -> OutboundMessage {
        OutboundMessage {
            key,
            dst: self.dst,
            len: self.len,
            sent: self.len,
            granted: self.len,
            unsched_limit: cfg.unsched_limit_for(self.incast_mark).min(self.len),
            sched_prio: self.sched_prio,
            unsched_prio: self.unsched_prio,
            retx: Vec::new(),
            incast_mark: self.incast_mark,
            tag: self.tag,
            created_at: self.created_at,
            silence: Silence::new(self.created_at),
        }
    }
}

/// What the own-message store holds for one sequence number.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Vacant,
    /// The message is `active[at]`. A woken one-way carries the
    /// `expire_at` it was parked with, which its re-park keeps if no
    /// sweep has reached it yet.
    Active {
        at: u32,
        parked_until: Option<Nanos>,
    },
    Parked(Parked),
}

/// Slots per chunk of the own-message store.
const CHUNK: u64 = 64;

#[derive(Debug)]
struct Chunk {
    slots: [Slot; CHUNK as usize],
    /// Slots that are not vacant.
    live: u32,
}

/// The endpoint's own messages by sequence number (module doc).
#[derive(Debug, Default)]
struct OwnStore {
    /// Sequence number of the first slot of `chunks[0]`, a multiple of
    /// [`CHUNK`].
    base: u64,
    /// `None` is a chunk whose every slot is vacant; neither end is one.
    chunks: VecDeque<Option<Box<Chunk>>>,
    /// Slots that are not vacant, over all chunks.
    live: usize,
}

impl OwnStore {
    /// `(chunk, slot)` of `seq`, if it lies in the span.
    fn locate(&self, seq: u64) -> Option<(usize, usize)> {
        let off = seq.checked_sub(self.base)?;
        let c = usize::try_from(off / CHUNK).ok()?;
        (c < self.chunks.len()).then_some((c, (off % CHUNK) as usize))
    }

    fn get(&self, seq: u64) -> Option<&Slot> {
        let (c, i) = self.locate(seq)?;
        self.chunks[c].as_ref().map(|ch| &ch.slots[i])
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut Slot> {
        let (c, i) = self.locate(seq)?;
        self.chunks[c].as_mut().map(|ch| &mut ch.slots[i])
    }

    /// Fill `seq`'s slot, growing the span to reach it.
    fn set(&mut self, seq: u64, slot: Slot) {
        let first = seq - seq % CHUNK;
        if self.chunks.is_empty() {
            self.base = first;
        }
        while first < self.base {
            self.chunks.push_front(None);
            self.base -= CHUNK;
        }
        let c = ((first - self.base) / CHUNK) as usize;
        if c >= self.chunks.len() {
            self.chunks.resize_with(c + 1, || None);
        }
        let chunk = self.chunks[c].get_or_insert_with(|| {
            Box::new(Chunk { slots: [Slot::Vacant; CHUNK as usize], live: 0 })
        });
        let s = &mut chunk.slots[(seq % CHUNK) as usize];
        if matches!(s, Slot::Vacant) {
            chunk.live += 1;
            self.live += 1;
        }
        *s = slot;
    }

    /// Vacate slot `i` of chunk `c`, freeing the chunk if that was its
    /// last live slot. Leaves the ends to [`trim`](Self::trim).
    fn clear(&mut self, c: usize, i: usize) {
        let Some(chunk) = self.chunks[c].as_mut() else { return };
        if !matches!(chunk.slots[i], Slot::Vacant) {
            chunk.slots[i] = Slot::Vacant;
            chunk.live -= 1;
            self.live -= 1;
            if chunk.live == 0 {
                self.chunks[c] = None;
            }
        }
    }

    /// Drop freed chunks from both ends of the span.
    fn trim(&mut self) {
        while matches!(self.chunks.front(), Some(None)) {
            self.chunks.pop_front();
            self.base += CHUNK;
        }
        while matches!(self.chunks.back(), Some(None)) {
            self.chunks.pop_back();
        }
    }

    fn vacate(&mut self, seq: u64) {
        if let Some((c, i)) = self.locate(seq) {
            self.clear(c, i);
            self.trim();
        }
    }

    /// Drop every parked record with `expire_at <= now`, walking from the
    /// front and stopping at the first message that started within
    /// `linger` of `now` (module doc). `created_at` reads an active
    /// slot's start time.
    fn sweep(&mut self, now: Nanos, linger: Nanos, created_at: impl Fn(u32) -> Nanos) {
        'walk: for c in 0..self.chunks.len() {
            for i in 0..CHUNK as usize {
                let Some(chunk) = &self.chunks[c] else { continue 'walk };
                let started = match chunk.slots[i] {
                    Slot::Vacant => continue,
                    Slot::Active { at, .. } => created_at(at),
                    Slot::Parked(p) if p.expire_at <= now => {
                        self.clear(c, i);
                        continue;
                    }
                    Slot::Parked(p) => p.created_at,
                };
                if started + linger > now {
                    break 'walk;
                }
            }
        }
        self.trim();
    }

    /// `(seq, record)` of every parked one-way.
    fn parked(&self) -> impl Iterator<Item = (u64, &Parked)> {
        let base = self.base;
        self.chunks.iter().enumerate().flat_map(move |(c, ch)| {
            ch.iter().flat_map(move |ch| {
                ch.slots.iter().enumerate().filter_map(move |(i, s)| match s {
                    Slot::Parked(p) => Some((base + c as u64 * CHUNK + i as u64, p)),
                    _ => None,
                })
            })
        })
    }
}

/// Where a held message is.
enum Held {
    Active(usize),
    Parked,
}

/// Sender half of a Homa endpoint.
#[derive(Debug)]
pub struct SenderState {
    cfg: HomaConfig,
    /// Messages that may still have bytes to send, and fully-sent
    /// requests; every per-packet scan runs over these.
    active: Vec<OutboundMessage>,
    /// The endpoint's own one-ways and requests by sequence number.
    own: OwnStore,
    /// `origin` of every own key — the endpoint's own id — learned from
    /// the first own message started.
    origin: Option<PeerId>,
    /// `seq` and start time of the newest own message: both rise, which
    /// the expiry walk relies on.
    newest: (u64, Nanos),
    /// Index into `active` of each response.
    responses: HashMap<MsgKey, u32>,
    /// `(seq, expire_at)` per re-park of a woken one-way. `expire_at` is a
    /// constant past a non-decreasing clock, so push order is expiry
    /// order and expiry pops from the front.
    linger: VecDeque<(u64, Nanos)>,
    /// `now` of the latest expiry sweep.
    swept: Nanos,
}

impl SenderState {
    /// New sender state.
    pub fn new(cfg: HomaConfig) -> Self {
        SenderState {
            cfg,
            active: Vec::new(),
            own: OwnStore::default(),
            origin: None,
            newest: (0, 0),
            responses: HashMap::new(),
            linger: VecDeque::new(),
            swept: 0,
        }
    }

    /// Number of messages with state held.
    pub fn active_messages(&self) -> usize {
        self.responses.len() + self.own.live
    }

    /// How long a one-way is retained after a full send.
    fn linger_ns(&self) -> Nanos {
        4 * self.cfg.resend_interval_ns
    }

    /// Where the state for `key` is held, if it is.
    fn held(&self, key: MsgKey) -> Option<Held> {
        if key.dir == Dir::Response {
            return self.responses.get(&key).map(|&at| Held::Active(at as usize));
        }
        if self.origin != Some(key.origin) {
            return None;
        }
        match *self.own.get(key.seq)? {
            Slot::Active { at, .. } if self.active[at as usize].key == key => {
                Some(Held::Active(at as usize))
            }
            Slot::Parked(_) if key.dir == Dir::Oneway => Some(Held::Parked),
            _ => None,
        }
    }

    /// The parked record of `seq`, which [`held`](Self::held) found.
    fn parked_mut(&mut self, seq: u64) -> &mut Parked {
        match self.own.get_mut(seq) {
            Some(Slot::Parked(p)) => p,
            _ => unreachable!("seq {seq} is not parked"),
        }
    }

    /// Take `active[at]` out of the active list, re-pointing the message
    /// moved into its place. The caller clears the taken one's index.
    fn take(&mut self, at: usize) -> OutboundMessage {
        let m = self.active.swap_remove(at);
        if let Some(moved) = self.active.get(at) {
            let to = at as u32;
            match moved.key.dir {
                Dir::Response => *self.responses.get_mut(&moved.key).expect("indexed") = to,
                _ => match self.own.get_mut(moved.key.seq) {
                    Some(Slot::Active { at, .. }) => *at = to,
                    _ => unreachable!("{:?} is active", moved.key),
                },
            }
        }
        m
    }

    /// Begin transmitting a message. `map` supplies the unscheduled
    /// priority cutoffs, the configured map every endpoint shares.
    #[allow(clippy::too_many_arguments)]
    pub fn start_message(
        &mut self,
        now: Nanos,
        key: MsgKey,
        dst: PeerId,
        len: u64,
        tag: u64,
        incast_mark: bool,
        map: &PriorityMap,
    ) {
        let unsched_limit = self.cfg.unsched_limit_for(incast_mark).min(len.max(1));
        let msg = OutboundMessage {
            key,
            dst,
            len,
            sent: 0,
            granted: unsched_limit,
            unsched_limit,
            sched_prio: 0,
            unsched_prio: map.unsched_prio(len),
            retx: Vec::new(),
            incast_mark,
            tag,
            created_at: now,
            silence: Silence::new(now),
        };
        let at = self.active.len() as u32;
        if key.dir == Dir::Response {
            // A second response for a live key (§3.8 re-execution)
            // replaces the first.
            match self.responses.entry(key) {
                Entry::Occupied(e) => self.active[*e.get() as usize] = msg,
                Entry::Vacant(e) => {
                    e.insert(at);
                    self.active.push(msg);
                }
            }
            return;
        }
        let origin = *self.origin.get_or_insert(key.origin);
        assert_eq!(origin, key.origin, "one sender's own messages share one origin");
        debug_assert!(
            key.seq > self.newest.0 && now >= self.newest.1,
            "own message {key:?} at {now} after seq {} at {}",
            self.newest.0,
            self.newest.1
        );
        self.newest = (key.seq, now);
        match self.own.get(key.seq) {
            Some(&Slot::Active { at, .. }) => self.active[at as usize] = msg,
            _ => {
                self.active.push(msg);
                self.own.set(key.seq, Slot::Active { at, parked_until: None });
            }
        }
    }

    /// Handle a GRANT: raise the transmission limit and adopt the
    /// receiver-assigned scheduled priority.
    pub fn on_grant(&mut self, now: Nanos, key: MsgKey, offset: u64, prio: u8) -> bool {
        match self.held(key) {
            Some(Held::Active(at)) => {
                let m = &mut self.active[at];
                if offset > m.granted {
                    m.granted = offset.min(m.len);
                }
                m.sched_prio = prio;
                m.silence.heard(now);
                true
            }
            // A lingering one-way is granted in full already: only the
            // priority is news.
            Some(Held::Parked) => {
                self.parked_mut(key.seq).sched_prio = prio;
                true
            }
            None => false,
        }
    }

    /// Sender-side stall recovery for messages whose receiver has gone
    /// silent (no grants for a resend interval). For one-way messages the
    /// entire blind prefix may have been lost — the receiver does not even
    /// know the message exists — so retransmit the first packet to
    /// re-create receiver state. For *responses* the client's own chasing
    /// (RESENDs until the first response packet, receiver gap chasing
    /// after) covers every loss pattern, so a silent client means the RPC
    /// is dead on its side; just age the state out without retransmitting
    /// (found by the stateful model fuzzer: stalled response state used
    /// to leak forever once the client aborted the RPC). Requests are
    /// skipped: the client RPC sweep owns their whole lifecycle. Gives up
    /// after the abort budget and returns the abandoned `(dst, tag)`s, in
    /// key order.
    pub fn poke_stalled(&mut self, now: Nanos) -> Vec<(PeerId, u64)> {
        let mut abandoned = Vec::new();
        for m in &mut self.active {
            if m.key.dir == Dir::Request || m.fully_sent() || m.transmittable() {
                continue;
            }
            match m.silence.check(now, &self.cfg) {
                Due::Prod if m.key.dir == Dir::Oneway => {
                    m.queue_retx(0, u64::from(MAX_PAYLOAD).min(m.len));
                }
                Due::Wait | Due::Prod => {}
                Due::GiveUp => abandoned.push((m.key, m.dst, m.tag)),
            }
        }
        abandoned.sort_unstable_by_key(|&(key, ..)| key);
        abandoned
            .into_iter()
            .map(|(key, dst, tag)| {
                self.remove(key);
                (dst, tag)
            })
            .collect()
    }

    /// Handle a RESEND for one of our outbound messages.
    pub fn on_resend(&mut self, key: MsgKey, offset: u64, length: u64, prio: u8) -> ResendReaction {
        let at = match self.held(key) {
            None => return ResendReaction::Unknown,
            Some(Held::Active(at)) => at,
            Some(Held::Parked) => {
                let p = self.parked_mut(key.seq);
                p.sched_prio = prio;
                if offset >= (offset + length).min(p.len) {
                    // Clipped to nothing: it stays parked, and no other
                    // message has fewer than its zero bytes left.
                    return ResendReaction::Queued;
                }
                // A parked one-way with a retransmission to queue has
                // work again.
                let p = *p;
                let at = self.active.len();
                self.active.push(p.wake(key, &self.cfg));
                let parked_until = Some(p.expire_at);
                self.own.set(key.seq, Slot::Active { at: at as u32, parked_until });
                at
            }
        };
        let shortest_other = self
            .active
            .iter()
            .filter(|m| m.key != key && m.transmittable())
            .map(|m| m.remaining())
            .min();
        let m = &mut self.active[at];
        // Also treat the RESEND as an implicit grant: the receiver
        // must have been expecting these bytes.
        if offset + length > m.granted {
            m.granted = (offset + length).min(m.len);
        }
        m.sched_prio = prio;
        m.queue_retx(offset, length);
        match shortest_other {
            Some(r) if r < m.remaining() => ResendReaction::QueuedButBusy(BusyHeader { key }),
            _ => ResendReaction::Queued,
        }
    }

    /// SRPT packet selection: produce the next DATA packet for the wire,
    /// or `None` when nothing is transmittable.
    pub fn next_data_packet(&mut self, now: Nanos) -> Option<(PeerId, DataHeader)> {
        let (at, m) = self
            .active
            .iter_mut()
            .enumerate()
            .filter(|(_, m)| m.transmittable())
            .min_by_key(|(_, m)| (m.remaining(), m.created_at, m.key))?;
        let key = m.key;
        let (offset, payload, retransmit) = m.next_chunk().expect("transmittable");
        let unscheduled = offset < m.unsched_limit && !retransmit;
        let hdr = DataHeader {
            key,
            msg_len: m.len,
            offset,
            payload,
            prio: if unscheduled { m.unsched_prio } else { m.sched_prio },
            unscheduled,
            retransmit,
            incast_mark: m.incast_mark,
            tag: m.tag,
        };
        // §3.3: fresh bytes go out only inside the grant (the blind
        // prefix counts as granted), and a retransmission only repeats
        // bytes already sent.
        debug_assert!(
            offset + u64::from(payload) <= if retransmit { m.sent } else { m.granted.min(m.len) },
            "DATA [{offset}, +{payload}) of {key:?} (retransmit {retransmit}) past its limit: \
             sent {}, granted {}, len {}",
            m.sent,
            m.granted,
            m.len
        );
        let dst = m.dst;
        if m.fully_sent() {
            self.on_fully_sent(now, at);
        }
        Some((dst, hdr))
    }

    /// Apply the state-retention policy when `active[at]`'s last byte
    /// goes out (§3.8).
    fn on_fully_sent(&mut self, now: Nanos, at: usize) {
        let key = self.active[at].key;
        match key.dir {
            // Servers discard all RPC state as soon as the response is
            // fully transmitted; a later RESEND for it is treated as an
            // unknown message (and triggers re-execution upstream).
            Dir::Response => {
                self.responses.remove(&key);
                self.take(at);
            }
            // One-way messages linger for late retransmissions, bounded
            // by a few resend intervals, out of the scanned list.
            Dir::Oneway => {
                let Some(&Slot::Active { parked_until, .. }) = self.own.get(key.seq) else {
                    unreachable!("{key:?} is active")
                };
                let deadline = now + self.linger_ns();
                let expire_at = match parked_until {
                    None => deadline,
                    // A re-park: this deadline is queued, and the first
                    // one still holds unless a sweep has passed it.
                    Some(first) => {
                        self.linger.push_back((key.seq, deadline));
                        if first > self.swept {
                            first
                        } else {
                            deadline
                        }
                    }
                };
                let m = self.take(at);
                debug_assert!(m.fully_sent() && m.sent == m.len && m.granted == m.len);
                let rec = Parked {
                    len: m.len,
                    tag: m.tag,
                    created_at: m.created_at,
                    expire_at,
                    dst: m.dst,
                    sched_prio: m.sched_prio,
                    unsched_prio: m.unsched_prio,
                    incast_mark: m.incast_mark,
                };
                self.own.set(key.seq, Slot::Parked(rec));
            }
            // Requests are retained until the RPC completes (the response
            // acknowledges them); the RPC layer removes them.
            Dir::Request => {}
        }
    }

    /// Remove a message (used by the RPC layer when a response arrives,
    /// or on abort).
    pub fn remove(&mut self, key: MsgKey) {
        match self.held(key) {
            Some(Held::Active(at)) if key.dir == Dir::Response => {
                self.responses.remove(&key);
                self.take(at);
            }
            Some(Held::Active(at)) => {
                self.take(at);
                self.own.vacate(key.seq);
            }
            Some(Held::Parked) => self.own.vacate(key.seq),
            None => {}
        }
    }

    /// Whether the sender holds state for `key`.
    pub fn contains(&self, key: MsgKey) -> bool {
        self.held(key).is_some()
    }

    /// A copy of a message's state (diagnostics/tests); a parked one is
    /// rebuilt from its record.
    pub fn get(&self, key: MsgKey) -> Option<OutboundMessage> {
        match self.held(key)? {
            Held::Active(at) => Some(self.active[at].clone()),
            Held::Parked => match self.own.get(key.seq)? {
                Slot::Parked(p) => Some(p.wake(key, &self.cfg)),
                _ => None,
            },
        }
    }

    /// Whether any message currently has transmittable bytes.
    pub fn has_transmittable(&self) -> bool {
        self.active.iter().any(|m| m.transmittable())
    }

    /// Snapshot of outbound messages:
    /// `(key, len, sent, granted, retx_ranges)`. Diagnostics only.
    pub fn outbound_snapshot(&self) -> Vec<(MsgKey, u64, u64, u64, usize)> {
        let parked = self.origin.into_iter().flat_map(|origin| {
            self.own.parked().map(move |(seq, p)| {
                (MsgKey { origin, seq, dir: Dir::Oneway }, p.len, p.len, p.len, 0)
            })
        });
        self.active
            .iter()
            .map(|m| (m.key, m.len, m.sent, m.granted, m.retx.len()))
            .chain(parked)
            .collect()
    }

    /// Garbage-collect lingering one-way state. Only parked records are
    /// dropped: a one-way in the active list has a retransmission
    /// queued, and lingers afresh once that is out.
    pub fn expire_lingering(&mut self, now: Nanos) {
        self.swept = now;
        while let Some(&(seq, at)) = self.linger.front() {
            if at > now {
                break;
            }
            self.linger.pop_front();
            if let Some(Slot::Parked(_)) = self.own.get(seq) {
                self.own.vacate(seq);
            }
        }
        let (linger, active) = (self.linger_ns(), &self.active);
        self.own.sweep(now, linger, |at| active[at as usize].created_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seq: u64) -> MsgKey {
        MsgKey { origin: PeerId(0), seq, dir: Dir::Oneway }
    }

    fn sender() -> SenderState {
        SenderState::new(HomaConfig::default())
    }

    fn map() -> PriorityMap {
        PriorityMap { num_priorities: 8, unsched_levels: 4, cutoffs: vec![280, 1_000, 4_000] }
    }

    #[test]
    fn small_message_single_unscheduled_packet() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 100, 9, false, &map());
        let (dst, hdr) = s.next_data_packet(0).unwrap();
        assert_eq!(dst, PeerId(1));
        assert_eq!(hdr.offset, 0);
        assert_eq!(hdr.payload, 100);
        assert!(hdr.unscheduled);
        assert_eq!(hdr.prio, 7, "tiny message goes at top priority");
        assert_eq!(hdr.tag, 9);
        assert!(s.next_data_packet(0).is_none());
    }

    #[test]
    fn unsched_prefix_then_waits_for_grant() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 100_000, 0, false, &map());
        let mut sent = 0u64;
        while let Some((_, hdr)) = s.next_data_packet(0) {
            assert!(hdr.unscheduled);
            assert_eq!(hdr.prio, 4, "large message lowest unsched level");
            sent += hdr.payload as u64;
        }
        assert_eq!(sent, 9_700, "exactly RTTbytes sent blindly");
        // A grant opens more of the message at a scheduled priority.
        assert!(s.on_grant(0, key(1), 12_000, 2));
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert!(!hdr.unscheduled);
        assert_eq!(hdr.prio, 2);
        assert_eq!(hdr.offset, 9_700);
    }

    #[test]
    fn srpt_prefers_fewest_remaining() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 8_000, 0, false, &map());
        s.start_message(0, key(2), PeerId(2), 300, 0, false, &map());
        // The 300-byte message wins even though it arrived second.
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert_eq!(hdr.key, key(2));
        // Then the big one.
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert_eq!(hdr.key, key(1));
    }

    #[test]
    fn srpt_switches_to_shorter_message_mid_stream() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 9_000, 0, false, &map());
        let _ = s.next_data_packet(0).unwrap(); // 1400 of msg 1
        s.start_message(0, key(2), PeerId(2), 500, 0, false, &map());
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert_eq!(hdr.key, key(2), "new shorter message preempts");
    }

    #[test]
    fn grant_monotone_and_clamped() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 5_000, 0, false, &map());
        assert!(s.on_grant(0, key(1), 1_000_000, 0));
        assert_eq!(s.get(key(1)).unwrap().granted, 5_000);
        // Stale (smaller) grant does not shrink the window.
        assert!(s.on_grant(0, key(1), 10, 0));
        assert_eq!(s.get(key(1)).unwrap().granted, 5_000);
        assert!(!s.on_grant(0, key(99), 10, 0));
    }

    #[test]
    fn resend_queues_retransmission() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 3_000, 0, false, &map());
        while s.next_data_packet(0).is_some() {}
        let r = s.on_resend(key(1), 0, 1_400, 5);
        assert_eq!(r, ResendReaction::Queued);
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert!(hdr.retransmit);
        assert_eq!(hdr.offset, 0);
        assert_eq!(hdr.payload, 1_400);
        assert_eq!(hdr.prio, 5, "retransmission uses RESEND's priority");
    }

    #[test]
    fn resend_while_busy_with_shorter_message_yields_busy() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 50_000, 0, false, &map());
        while s.next_data_packet(0).is_some() {}
        s.start_message(0, key(2), PeerId(2), 200, 0, false, &map());
        // msg2 (200B) outranks the retransmission of msg1.
        match s.on_resend(key(1), 0, 1_400, 3) {
            ResendReaction::QueuedButBusy(b) => assert_eq!(b.key, key(1)),
            other => panic!("expected busy, got {other:?}"),
        }
        // SRPT still sends msg2 first.
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert_eq!(hdr.key, key(2));
    }

    #[test]
    fn resend_unknown_message() {
        let mut s = sender();
        assert_eq!(s.on_resend(key(1), 0, 100, 0), ResendReaction::Unknown);
    }

    #[test]
    fn response_state_discarded_after_last_byte() {
        let mut s = sender();
        let rk = MsgKey { origin: PeerId(9), seq: 1, dir: Dir::Response };
        s.start_message(0, rk, PeerId(9), 1_000, 0, false, &map());
        let _ = s.next_data_packet(0).unwrap();
        assert!(!s.contains(rk), "response state dropped at full send (§3.8)");
        assert_eq!(s.on_resend(rk, 0, 100, 0), ResendReaction::Unknown);
    }

    #[test]
    fn oneway_lingers_then_expires() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 500, 0, false, &map());
        let _ = s.next_data_packet(0).unwrap();
        assert!(s.contains(key(1)), "one-way lingers for late RESENDs");
        assert_eq!(s.on_resend(key(1), 0, 500, 7), ResendReaction::Queued);
        let _ = s.next_data_packet(0).unwrap();
        // Expire after the linger window.
        s.expire_lingering(1_000_000_000);
        assert!(!s.contains(key(1)));
    }

    fn is_parked(s: &SenderState, k: MsgKey) -> bool {
        matches!(s.held(k), Some(Held::Parked))
    }

    /// One fully-sent (parked) 500-byte one-way whose last byte went out
    /// at `sent_at`.
    fn parked_oneway(sent_at: Nanos) -> SenderState {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 500, 0, false, &map());
        let _ = s.next_data_packet(sent_at).unwrap();
        assert!(is_parked(&s, key(1)) && s.active.is_empty(), "fully sent: parked");
        s
    }

    const LINGER: Nanos = 4 * 2_000_000;

    #[test]
    fn resend_unparks_retransmits_reparks_and_first_deadline_holds() {
        let mut s = parked_oneway(1_000);
        assert!(!s.has_transmittable());
        assert!(s.next_data_packet(2_000).is_none());
        assert_eq!(s.on_resend(key(1), 0, 500, 3), ResendReaction::Queued);
        assert!(s.active.len() == 1 && !is_parked(&s, key(1)), "work again: scanned");
        assert!(s.has_transmittable());
        let (dst, hdr) = s.next_data_packet(3_000_000).unwrap();
        assert_eq!(dst, PeerId(1));
        assert!(hdr.retransmit);
        assert_eq!((hdr.offset, hdr.payload, hdr.prio), (0, 500, 3));
        assert!(is_parked(&s, key(1)) && s.active.is_empty(), "retransmitted: re-parked");
        // The retransmission does not extend the retention window.
        s.expire_lingering(1_000 + LINGER - 1);
        assert!(s.contains(key(1)));
        s.expire_lingering(1_000 + LINGER);
        assert!(!s.contains(key(1)), "expires at the first linger deadline");
        assert_eq!(s.on_resend(key(1), 0, 500, 3), ResendReaction::Unknown);
        // The second full send's entry finds nothing and is dropped.
        s.expire_lingering(3_000_000 + LINGER);
        assert!(s.linger.is_empty());
    }

    #[test]
    fn expiry_spares_a_oneway_with_a_retransmission_pending() {
        let mut s = parked_oneway(0);
        s.on_resend(key(1), 0, 500, 3);
        s.expire_lingering(LINGER);
        assert!(s.contains(key(1)), "retransmission still owed");
        let _ = s.next_data_packet(LINGER).unwrap();
        s.expire_lingering(2 * LINGER);
        assert!(!s.contains(key(1)), "lingers afresh after the retransmission, then expires");
    }

    #[test]
    fn resend_clipped_to_nothing_leaves_it_parked() {
        let mut s = parked_oneway(0);
        // Entirely beyond the message: nothing to retransmit.
        assert_eq!(s.on_resend(key(1), 500, 1_400, 3), ResendReaction::Queued);
        assert!(is_parked(&s, key(1)) && s.active.is_empty());
        assert!(!s.has_transmittable());
        assert!(s.next_data_packet(0).is_none());
    }

    #[test]
    fn late_grant_for_parked_key_is_accepted_and_inert() {
        let mut s = parked_oneway(0);
        let before = s.outbound_snapshot();
        assert!(s.on_grant(10, key(1), 1_000_000, 2), "state is still held: grant accepted");
        assert!(is_parked(&s, key(1)) && s.active.is_empty());
        assert_eq!(s.outbound_snapshot(), before);
        assert!(!s.has_transmittable());
        assert!(s.next_data_packet(10).is_none());
        s.expire_lingering(LINGER);
        assert!(!s.contains(key(1)), "a grant does not extend retention");
    }

    #[test]
    fn accessors_cover_parked_entries() {
        let mut s = parked_oneway(0);
        s.start_message(0, key(2), PeerId(1), 50_000, 0, false, &map());
        assert_eq!(s.active_messages(), 2);
        assert!(s.contains(key(1)) && s.contains(key(2)));
        assert_eq!(s.get(key(1)).map(|m| m.sent), Some(500));
        let mut snap = s.outbound_snapshot();
        snap.sort_unstable();
        assert_eq!(snap, vec![(key(1), 500, 500, 500, 0), (key(2), 50_000, 0, 9_700, 0)]);
        s.remove(key(1));
        assert!(!s.contains(key(1)));
        assert_eq!(s.active_messages(), 1);
        assert_eq!(s.on_resend(key(1), 0, 500, 0), ResendReaction::Unknown);
    }

    #[test]
    fn parked_messages_do_not_make_the_sender_busy() {
        let mut s = sender();
        // A long message stalled on grants, then many short ones sent and parked.
        s.start_message(0, key(1), PeerId(1), 50_000, 0, false, &map());
        while s.next_data_packet(0).is_some() {}
        for seq in 2..50 {
            s.start_message(0, key(seq), PeerId(2), 200, 0, false, &map());
            let _ = s.next_data_packet(0).unwrap();
        }
        assert_eq!(s.active.len(), 1);
        assert_eq!(s.on_resend(key(1), 0, 1_400, 3), ResendReaction::Queued);
    }

    #[test]
    fn incast_mark_limits_blind_prefix() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 50_000, 0, true, &map());
        let mut sent = 0u64;
        while let Some((_, hdr)) = s.next_data_packet(0) {
            assert!(hdr.incast_mark);
            sent += hdr.payload as u64;
        }
        assert_eq!(sent, 400, "incast-marked message sends only a few hundred blind bytes");
    }

    #[test]
    fn deterministic_tie_break_on_equal_remaining() {
        // Own keys start in `seq` order; responses carry the client's
        // keys and may start in any order.
        let resp = |seq| MsgKey { origin: PeerId(7), seq, dir: Dir::Response };
        let mut s = sender();
        s.start_message(0, resp(2), PeerId(7), 1_000, 0, false, &map());
        s.start_message(0, resp(1), PeerId(7), 1_000, 0, false, &map());
        // Equal remaining and equal creation time: lower key wins.
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert_eq!(hdr.key, resp(1));
    }

    #[test]
    fn unknown_resend_does_not_scan_the_active_messages() {
        let mut s = sender();
        for seq in 1..=1_000 {
            s.start_message(0, key(seq), PeerId(1), 50_000, 0, false, &map());
        }
        // Never started, wrong origin, and a request sharing a live seq.
        assert_eq!(s.on_resend(key(5_000), 0, 1_400, 3), ResendReaction::Unknown);
        let stranger = MsgKey { origin: PeerId(9), ..key(1) };
        assert_eq!(s.on_resend(stranger, 0, 1_400, 3), ResendReaction::Unknown);
        let request = MsgKey { dir: Dir::Request, ..key(1) };
        assert_eq!(s.on_resend(request, 0, 1_400, 3), ResendReaction::Unknown);
        assert_eq!(s.active_messages(), 1_000);
    }

    #[test]
    fn retained_records_stay_small() {
        fn entry_bytes<T>(_: &VecDeque<T>) -> usize {
            size_of::<T>()
        }
        assert!(size_of::<Slot>() <= 40);
        assert_eq!(entry_bytes(&sender().linger), 16);
        assert_eq!(size_of::<Option<Box<Chunk>>>(), 8, "a freed chunk costs its handle");
    }

    /// Chunks holding at least one live slot.
    fn live_chunks(s: &SenderState) -> usize {
        s.own.chunks.iter().flatten().count()
    }

    #[test]
    fn a_pinned_span_costs_chunks_not_slots() {
        let mut s = sender();
        // Never granted past its blind prefix: active, at the front.
        s.start_message(0, key(1), PeerId(1), 50_000, 0, false, &map());
        while s.next_data_packet(0).is_some() {}
        // Linger deadlines of the one-packet one-ways not yet expired.
        let mut unexpired: VecDeque<Nanos> = VecDeque::new();
        for seq in 2..=100_001 {
            let now = seq * 1_000;
            s.start_message(now, key(seq), PeerId(2), 200, 0, false, &map());
            let (_, hdr) = s.next_data_packet(now).unwrap();
            assert_eq!(hdr.key, key(seq));
            unexpired.push_back(now + LINGER);
            // A sweep per 250 µs timer tick.
            if seq % 250 == 0 {
                s.expire_lingering(now);
                while unexpired.front().is_some_and(|&at| at <= now) {
                    unexpired.pop_front();
                }
                assert_eq!(s.active_messages(), 1 + unexpired.len());
                assert!(s.contains(key(1)) && s.active.len() == 1);
                // The stuck message's chunk, and those the unexpired
                // records span.
                assert!(
                    live_chunks(&s) <= 1 + unexpired.len().div_ceil(64) + 1,
                    "{} live chunks for {} records at seq {seq}",
                    live_chunks(&s),
                    unexpired.len()
                );
            }
        }
        assert!(unexpired.len() > 7_000, "the span is pinned while records live");
        s.expire_lingering(200_000_000);
        assert_eq!((s.active_messages(), live_chunks(&s)), (1, 1));
        s.remove(key(1));
        assert_eq!((s.active_messages(), s.own.chunks.len()), (0, 0));
    }

    /// The stores the own-message store replaced, as the reference it is held
    /// to: every message whole in one of two hash tables, `linger` keyed
    /// by the full `MsgKey`.
    struct TableSender {
        cfg: HomaConfig,
        sending: HashMap<MsgKey, OutboundMessage>,
        kept: HashMap<MsgKey, OutboundMessage>,
        linger: VecDeque<(MsgKey, Nanos)>,
    }

    impl TableSender {
        fn get_mut(&mut self, key: MsgKey) -> Option<&mut OutboundMessage> {
            self.sending.get_mut(&key).or_else(|| self.kept.get_mut(&key))
        }

        fn on_grant(&mut self, now: Nanos, key: MsgKey, offset: u64, prio: u8) -> bool {
            let Some(m) = self.get_mut(key) else { return false };
            if offset > m.granted {
                m.granted = offset.min(m.len);
            }
            m.sched_prio = prio;
            m.silence.heard(now);
            true
        }

        fn on_resend(&mut self, key: MsgKey, offset: u64, length: u64, prio: u8) -> ResendReaction {
            let shortest_other = self
                .sending
                .values()
                .filter(|m| m.key != key && m.transmittable())
                .map(|m| m.remaining())
                .min();
            let Some(m) = self.get_mut(key) else { return ResendReaction::Unknown };
            if offset + length > m.granted {
                m.granted = (offset + length).min(m.len);
            }
            m.sched_prio = prio;
            m.queue_retx(offset, length);
            let reaction = match shortest_other {
                Some(r) if r < m.remaining() => ResendReaction::QueuedButBusy(BusyHeader { key }),
                _ => ResendReaction::Queued,
            };
            if !m.fully_sent() {
                if let Some(m) = self.kept.remove(&key) {
                    self.sending.insert(key, m);
                }
            }
            reaction
        }

        fn next_data_packet(&mut self, now: Nanos) -> Option<(PeerId, DataHeader)> {
            let key = self
                .sending
                .values()
                .filter(|m| m.transmittable())
                .min_by_key(|m| (m.remaining(), m.created_at, m.key))?
                .key;
            let m = self.sending.get_mut(&key).unwrap();
            let (offset, payload, retransmit) = m.next_chunk().unwrap();
            let unscheduled = offset < m.unsched_limit && !retransmit;
            let hdr = DataHeader {
                key,
                msg_len: m.len,
                offset,
                payload,
                prio: if unscheduled { m.unsched_prio } else { m.sched_prio },
                unscheduled,
                retransmit,
                incast_mark: m.incast_mark,
                tag: m.tag,
            };
            let dst = m.dst;
            if m.fully_sent() {
                match key.dir {
                    Dir::Response => {
                        self.sending.remove(&key);
                    }
                    Dir::Oneway => {
                        if let Some(m) = self.sending.remove(&key) {
                            self.kept.insert(key, m);
                        }
                        self.linger.push_back((key, now + 4 * self.cfg.resend_interval_ns));
                    }
                    Dir::Request => {}
                }
            }
            Some((dst, hdr))
        }

        fn remove(&mut self, key: MsgKey) {
            if self.sending.remove(&key).is_none() {
                self.kept.remove(&key);
            }
        }

        fn contains(&self, key: MsgKey) -> bool {
            self.sending.contains_key(&key) || self.kept.contains_key(&key)
        }

        fn outbound_snapshot(&self) -> Vec<(MsgKey, u64, u64, u64, usize)> {
            self.sending
                .values()
                .chain(self.kept.values())
                .map(|m| (m.key, m.len, m.sent, m.granted, m.retx.len()))
                .collect()
        }

        fn expire_lingering(&mut self, now: Nanos) {
            while let Some(&(key, at)) = self.linger.front() {
                if at > now {
                    break;
                }
                self.linger.pop_front();
                self.kept.remove(&key);
            }
        }
    }

    /// The store's own bookkeeping: every active message is indexed where
    /// its key says, every index points back at it, and the chunk counts
    /// and ends agree with the slots.
    fn assert_indexed(s: &SenderState) {
        for (at, m) in s.active.iter().enumerate() {
            let found = match m.key.dir {
                Dir::Response => s.responses.get(&m.key).map(|&i| i as usize),
                _ => match s.own.get(m.key.seq) {
                    Some(&Slot::Active { at, .. }) => Some(at as usize),
                    _ => None,
                },
            };
            assert_eq!(found, Some(at), "{:?}", m.key);
        }
        let own_active = s.active.iter().filter(|m| m.key.dir != Dir::Response).count();
        assert_eq!(s.active.len() - own_active, s.responses.len());
        let mut live = 0;
        for ch in s.own.chunks.iter().flatten() {
            let n = ch.slots.iter().filter(|s| !matches!(s, Slot::Vacant)).count();
            assert!(n > 0 && n == ch.live as usize, "chunk live count {} of {n}", ch.live);
            live += n;
        }
        assert_eq!(live, s.own.live);
        assert_eq!(s.own.live - s.own.parked().count(), own_active);
        assert!(
            !matches!(s.own.chunks.front(), Some(None))
                && !matches!(s.own.chunks.back(), Some(None))
        );
    }

    #[test]
    fn own_store_answers_like_the_tables_it_replaced() {
        const FAMILY: homa_harness::FuzzFamily = homa_harness::FuzzFamily::new("own-store");
        FAMILY.check_seeds("own_store_answers_like_the_tables_it_replaced", |rng| {
            const SIZES: [u64; 8] = [1, 200, 1_400, 1_401, 5_000, 9_700, 30_000, 200_000];
            const STEPS: [Nanos; 4] = [0, 1_000, 50_000, 300_000];
            let mut s = sender();
            let mut t = TableSender {
                cfg: HomaConfig::default(),
                sending: HashMap::new(),
                kept: HashMap::new(),
                linger: VecDeque::new(),
            };
            let start = |s: &mut SenderState, t: &mut TableSender, now, k, dst, len, tag, mark| {
                s.start_message(now, k, dst, len, tag, mark, &map());
                let unsched_limit = t.cfg.unsched_limit_for(mark).min(len);
                let msg = OutboundMessage {
                    key: k,
                    dst,
                    len,
                    sent: 0,
                    granted: unsched_limit,
                    unsched_limit,
                    sched_prio: 0,
                    unsched_prio: map().unsched_prio(len),
                    retx: Vec::new(),
                    incast_mark: mark,
                    tag,
                    created_at: now,
                    silence: Silence::new(now),
                };
                t.sending.insert(k, msg);
            };
            let drain = |s: &mut SenderState, t: &mut TableSender, now| loop {
                let sent = s.next_data_packet(now);
                assert_eq!(sent, t.next_data_packet(now));
                if sent.is_none() {
                    break;
                }
            };
            let mut now: Nanos = 0;
            // Half the cases pin the front of the store: an own message
            // that no op picks, so it is never granted past its blind
            // prefix and stays active while later ones park and expire.
            if rng.chance(1, 2) {
                let k =
                    MsgKey { dir: [Dir::Oneway, Dir::Request][rng.below(2) as usize], ..key(1) };
                start(&mut s, &mut t, now, k, PeerId(3), 200_000, 0, false);
            }
            // Every other key started so far with its length; ops pick
            // from it, half the time among the latest eight.
            let mut started: Vec<(MsgKey, u64)> = Vec::new();
            let next_seq = |started: &[(MsgKey, u64)]| started.len() as u64 + 2;
            for _ in 0..rng.range(1, 399) {
                let (op, a, b) =
                    (rng.edge_range(0, 17), rng.next_u64() >> 32, rng.next_u64() >> 32);
                now += STEPS[(a % 4) as usize];
                let pick = |started: &[(MsgKey, u64)], dir: Option<Dir>| {
                    let of: Vec<_> =
                        started.iter().filter(|(k, _)| dir.is_none_or(|d| k.dir == d)).collect();
                    let (n, r) = (of.len(), b as usize / 2);
                    if n == 0 {
                        return None;
                    }
                    Some(*of[if b % 2 == 0 { n - 1 - r % n.min(8) } else { r % n }])
                };
                match op {
                    // Mostly one-ways of mixed sizes — a big low-seq one
                    // finishes after small high-seq ones — and some RPC
                    // halves, which never park.
                    0..=2 => {
                        let seq = next_seq(&started);
                        let k = match b % 8 {
                            0 => MsgKey { dir: Dir::Request, ..key(seq) },
                            1 => MsgKey { origin: PeerId(7), seq, dir: Dir::Response },
                            _ => key(seq),
                        };
                        let len = SIZES[(a / 4 % 8) as usize];
                        let (dst, mark) = (PeerId(1 + (b % 3) as u32), b % 5 == 0);
                        start(&mut s, &mut t, now, k, dst, len, a, mark);
                        started.push((k, len));
                    }
                    3..=8 => assert_eq!(s.next_data_packet(now), t.next_data_packet(now)),
                    9 => {
                        if let Some((k, _)) = pick(&started, None) {
                            let (offset, prio) = (a % 300_000, (a % 8) as u8);
                            assert_eq!(
                                s.on_grant(now, k, offset, prio),
                                t.on_grant(now, k, offset, prio)
                            );
                        }
                    }
                    // RESENDs the receiver could send: part of the
                    // message, all of it, or a range past its end.
                    10 | 11 => {
                        if let Some((k, len)) = pick(&started, None) {
                            let (offset, length) = match a / 4 % 3 {
                                0 => (a % len, 1 + a % 3_000),
                                1 => (0, len),
                                _ => (len + a % 2, 1_400),
                            };
                            let prio = (a % 8) as u8;
                            assert_eq!(
                                s.on_resend(k, offset, length, prio),
                                t.on_resend(k, offset, length, prio)
                            );
                        }
                    }
                    // RESENDs nobody should answer: a seq never started,
                    // a live seq under another origin or as a request.
                    12 => {
                        let k = match (a / 4 % 3, pick(&started, None)) {
                            (1, Some((k, _))) => MsgKey { origin: PeerId(99), ..k },
                            (2, Some((k, _))) => MsgKey { dir: Dir::Request, ..k },
                            _ => key(next_seq(&started) + b % 5),
                        };
                        assert_eq!(s.on_resend(k, 0, 1_400, 0), t.on_resend(k, 0, 1_400, 0));
                    }
                    13 => {
                        if let Some((k, _)) = pick(&started, None) {
                            s.remove(k);
                            t.remove(k);
                        }
                    }
                    // A second response for a started response key: one
                    // still live is replaced (§3.8 re-execution).
                    14 => {
                        if let Some((k, _)) = pick(&started, Some(Dir::Response)) {
                            let len = SIZES[(a / 4 % 8) as usize];
                            start(&mut s, &mut t, now, k, PeerId(7), len, a, b % 5 == 0);
                            started.iter_mut().filter(|(sk, _)| *sk == k).for_each(|e| e.1 = len);
                        }
                    }
                    // A one-way woken twice, with an expiry sweep between
                    // the wakes.
                    15 => {
                        if let Some((k, len)) = pick(&started, Some(Dir::Oneway)) {
                            for wake in 0..2 {
                                if wake == 1 {
                                    now += (a % 3) * 3_000_000;
                                    s.expire_lingering(now);
                                    t.expire_lingering(now);
                                }
                                assert_eq!(s.on_resend(k, 0, len, 2), t.on_resend(k, 0, len, 2));
                                drain(&mut s, &mut t, now);
                            }
                        }
                    }
                    // A request sent in full, then removed.
                    16 => {
                        if let Some((k, len)) = pick(&started, Some(Dir::Request)) {
                            assert_eq!(s.on_grant(now, k, len, 1), t.on_grant(now, k, len, 1));
                            drain(&mut s, &mut t, now);
                            assert_eq!(s.contains(k), t.contains(k));
                            s.remove(k);
                            t.remove(k);
                        }
                    }
                    _ => {
                        // Far enough, sometimes, to pass linger deadlines.
                        now += (b % 4) * 1_000_000;
                        s.expire_lingering(now);
                        t.expire_lingering(now);
                    }
                }
                assert_eq!(s.active_messages(), t.sending.len() + t.kept.len());
                for &(k, _) in &started {
                    assert_eq!(s.contains(k), t.contains(k), "{:?}", k);
                }
                let (mut got, mut want) = (s.outbound_snapshot(), t.outbound_snapshot());
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want);
                assert_eq!(s.active.len(), t.sending.len());
                assert_indexed(&s);
            }
        });
    }
}
