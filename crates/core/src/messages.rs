//! Per-message state: outbound transmission progress and inbound
//! reassembly.
//!
//! Homa messages are byte ranges delivered in DATA packets that may arrive
//! in any order (per-packet spraying reorders them in the core, §3.3).
//! [`InboundMessage`] tracks received ranges and exposes the first gap for
//! RESEND requests; [`OutboundMessage`] tracks how far the sender has
//! transmitted, how far the receiver has granted, and any retransmission
//! ranges queued by RESENDs.

use crate::packets::{MsgKey, PeerId};
use crate::Nanos;

/// Sort `(offset, length)` ranges and merge those that overlap or touch,
/// in place: afterwards they are sorted, disjoint and separated by gaps.
/// Runs once per DATA packet on the receive side, so it allocates
/// nothing.
pub fn merge_ranges(ranges: &mut Vec<(u64, u64)>) {
    ranges.sort_unstable();
    // `ranges[..kept]` is the merged prefix; each later range either
    // extends its last element or becomes the next one.
    let mut kept = 0;
    for i in 0..ranges.len() {
        let (o, l) = ranges[i];
        if kept > 0 && o <= ranges[kept - 1].0 + ranges[kept - 1].1 {
            let last = &mut ranges[kept - 1];
            last.1 = (o + l).max(last.0 + last.1) - last.0;
        } else {
            ranges[kept] = (o, l);
            kept += 1;
        }
    }
    ranges.truncate(kept);
}

/// State of a message being transmitted.
#[derive(Debug, Clone)]
pub struct OutboundMessage {
    /// Message identity.
    pub key: MsgKey,
    /// Destination peer.
    pub dst: PeerId,
    /// Total length in bytes.
    pub len: u64,
    /// Next fresh byte to transmit (bytes below this are sent, modulo
    /// retransmissions).
    pub sent: u64,
    /// Bytes the receiver has authorized (initialized to the blind
    /// prefix; raised by GRANTs).
    pub granted: u64,
    /// End of the blind (unscheduled) prefix for this message.
    pub unsched_limit: u64,
    /// Priority for scheduled packets, from the latest GRANT.
    pub sched_prio: u8,
    /// Priority for unscheduled packets (from the receiver's disseminated
    /// cutoffs, stamped at message creation).
    pub unsched_prio: u8,
    /// Pending retransmission ranges (offset, length) requested via
    /// RESEND, served before fresh data.
    pub retx: Vec<(u64, u64)>,
    /// Incast-control mark to stamp on this message's packets.
    pub incast_mark: bool,
    /// Application tag (travels in the first packet).
    pub tag: u64,
    /// When the message was submitted (for diagnostics).
    pub created_at: Nanos,
    /// Last time the receiver showed signs of life for this message
    /// (grant or resend); drives the sender-side stall poke for one-way
    /// messages whose blind prefix was lost entirely.
    pub last_peer_activity: Nanos,
    /// Number of stall pokes sent without any grant progress.
    pub stall_pokes: u32,
}

impl OutboundMessage {
    /// Bytes not yet transmitted (the sender-side SRPT rank; retransmit
    /// ranges count as remaining work).
    pub fn remaining(&self) -> u64 {
        let fresh = self.len - self.sent;
        let retx: u64 = self.retx.iter().map(|&(_, l)| l).sum();
        fresh + retx
    }

    /// Whether the sender currently has bytes it is allowed to put on the
    /// wire.
    pub fn transmittable(&self) -> bool {
        !self.retx.is_empty() || (self.sent < self.granted.min(self.len))
    }

    /// Whether every byte (including retransmissions) has been sent.
    pub fn fully_sent(&self) -> bool {
        self.sent >= self.len && self.retx.is_empty()
    }

    /// Queue a retransmission range, clipped to the message and merged
    /// with pending ranges.
    pub fn queue_retx(&mut self, offset: u64, length: u64) {
        let end = (offset + length).min(self.len).min(self.sent);
        if offset >= end {
            return;
        }
        self.retx.push((offset, end - offset));
        // Merge overlaps to keep the list tiny.
        merge_ranges(&mut self.retx);
    }

    /// Take the next chunk to transmit, up to `max_payload` bytes:
    /// retransmissions first, then fresh granted bytes. Returns
    /// `(offset, len, is_retransmit)`. Fresh chunks never span the
    /// unscheduled/scheduled boundary, since the two sides carry
    /// different priorities.
    pub fn next_chunk(&mut self, max_payload: u32) -> Option<(u64, u32, bool)> {
        if let Some((o, l)) = self.retx.first_mut() {
            let take = (*l).min(max_payload as u64) as u32;
            let off = *o;
            *o += take as u64;
            *l -= take as u64;
            if *l == 0 {
                self.retx.remove(0);
            }
            return Some((off, take, true));
        }
        let limit = self.granted.min(self.len);
        if self.sent < limit {
            let mut take = (limit - self.sent).min(max_payload as u64);
            if self.sent < self.unsched_limit {
                take = take.min(self.unsched_limit - self.sent);
            }
            let take = take as u32;
            let off = self.sent;
            self.sent += take as u64;
            return Some((off, take, false));
        }
        None
    }
}

/// State of a message being received.
#[derive(Debug, Clone)]
pub struct InboundMessage {
    /// Message identity.
    pub key: MsgKey,
    /// Sending peer.
    pub src: PeerId,
    /// Total length (learned from the first DATA packet).
    pub len: u64,
    /// Received byte ranges, sorted and disjoint.
    ranges: Vec<(u64, u64)>,
    /// Total distinct bytes received.
    received: u64,
    /// Highest grant offset this receiver has issued for the message.
    pub granted: u64,
    /// Scheduled priority currently assigned to the message (meaningful
    /// only while the message is active).
    pub sched_prio: u8,
    /// Last time any packet (DATA or BUSY) arrived for this message.
    pub last_activity: Nanos,
    /// Consecutive RESENDs sent without progress.
    pub resends_outstanding: u32,
    /// Application tag from the first packet.
    pub tag: u64,
    /// Whether the first packet carried the incast mark (relevant for
    /// requests: clamps the response's blind prefix).
    pub incast_mark: bool,
    /// When the first packet arrived (for latency accounting).
    pub first_arrival: Nanos,
}

impl InboundMessage {
    /// Fresh inbound state for a message of `len` bytes from `src`.
    pub fn new(key: MsgKey, src: PeerId, len: u64, now: Nanos) -> Self {
        InboundMessage {
            key,
            src,
            len,
            ranges: Vec::new(),
            received: 0,
            granted: 0,
            sched_prio: 0,
            last_activity: now,
            resends_outstanding: 0,
            tag: 0,
            incast_mark: false,
            first_arrival: now,
        }
    }

    /// Record a received range. Returns the number of *new* bytes.
    pub fn record(&mut self, offset: u64, length: u64) -> u64 {
        let end = (offset + length).min(self.len);
        if offset >= end {
            return 0;
        }
        let before = self.received;
        self.ranges.push((offset, end - offset));
        merge_ranges(&mut self.ranges);
        self.received = self.ranges.iter().map(|&(_, l)| l).sum();
        self.received - before
    }

    /// Total distinct bytes received so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Bytes still missing.
    pub fn remaining(&self) -> u64 {
        self.len - self.received
    }

    /// Whether the whole message has arrived.
    pub fn complete(&self) -> bool {
        self.received >= self.len
    }

    /// The first missing byte range `(offset, length)`, for RESEND.
    pub fn first_gap(&self) -> Option<(u64, u64)> {
        if self.complete() {
            return None;
        }
        match self.ranges.first() {
            None => Some((0, self.len)),
            Some(&(o, l)) => {
                if o > 0 {
                    Some((0, o))
                } else {
                    let end = o + l;
                    let next_start = self.ranges.get(1).map(|&(o2, _)| o2).unwrap_or(self.len);
                    Some((end, next_start - end))
                }
            }
        }
    }

    /// Contiguously received prefix length.
    pub fn contiguous(&self) -> u64 {
        match self.ranges.first() {
            Some(&(0, l)) => l,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packets::Dir;

    fn key() -> MsgKey {
        MsgKey { origin: PeerId(1), seq: 7, dir: Dir::Oneway }
    }

    fn outbound(len: u64, granted: u64) -> OutboundMessage {
        OutboundMessage {
            key: key(),
            dst: PeerId(2),
            len,
            sent: 0,
            granted,
            unsched_limit: granted,
            sched_prio: 0,
            unsched_prio: 7,
            retx: Vec::new(),
            incast_mark: false,
            tag: 0,
            created_at: 0,
            last_peer_activity: 0,
            stall_pokes: 0,
        }
    }

    #[test]
    fn outbound_chunks_respect_grant() {
        let mut m = outbound(10_000, 3_000);
        let mut sent = 0;
        while let Some((off, l, retx)) = m.next_chunk(1_400) {
            assert!(!retx);
            assert_eq!(off, sent);
            sent += l as u64;
        }
        assert_eq!(sent, 3_000);
        assert!(!m.transmittable());
        // A grant extends transmission.
        m.granted = 10_000;
        assert!(m.transmittable());
        let (off, l, _) = m.next_chunk(1_400).unwrap();
        assert_eq!(off, 3_000);
        assert_eq!(l, 1_400);
    }

    #[test]
    fn outbound_remaining_counts_retx() {
        let mut m = outbound(10_000, 10_000);
        while m.next_chunk(1_400).is_some() {}
        assert_eq!(m.remaining(), 0);
        assert!(m.fully_sent());
        m.queue_retx(0, 2_000);
        assert_eq!(m.remaining(), 2_000);
        assert!(!m.fully_sent());
        let (off, l, retx) = m.next_chunk(1_400).unwrap();
        assert!(retx);
        assert_eq!((off, l), (0, 1_400));
        let (off, l, retx) = m.next_chunk(1_400).unwrap();
        assert!(retx);
        assert_eq!((off, l), (1_400, 600));
        assert!(m.fully_sent());
    }

    #[test]
    fn retx_merges_overlaps_and_clips_to_sent() {
        let mut m = outbound(10_000, 10_000);
        m.sent = 5_000;
        m.queue_retx(1_000, 1_000);
        m.queue_retx(1_500, 1_000);
        assert_eq!(m.retx, vec![(1_000, 1_500)]);
        // Beyond `sent` is clipped: those bytes were never transmitted.
        m.queue_retx(4_500, 2_000);
        assert_eq!(m.retx, vec![(1_000, 1_500), (4_500, 500)]);
        // Entirely beyond sent: ignored.
        m.queue_retx(6_000, 100);
        assert_eq!(m.retx.len(), 2);
    }

    #[test]
    fn inbound_reassembles_out_of_order() {
        let mut m = InboundMessage::new(key(), PeerId(1), 4_200, 0);
        assert_eq!(m.record(1_400, 1_400), 1_400);
        assert!(!m.complete());
        assert_eq!(m.first_gap(), Some((0, 1_400)));
        assert_eq!(m.record(0, 1_400), 1_400);
        assert_eq!(m.contiguous(), 2_800);
        assert_eq!(m.first_gap(), Some((2_800, 1_400)));
        assert_eq!(m.record(2_800, 1_400), 1_400);
        assert!(m.complete());
        assert_eq!(m.first_gap(), None);
    }

    #[test]
    fn inbound_duplicates_count_once() {
        let mut m = InboundMessage::new(key(), PeerId(1), 2_000, 0);
        assert_eq!(m.record(0, 1_000), 1_000);
        assert_eq!(m.record(0, 1_000), 0);
        assert_eq!(m.record(500, 1_000), 500);
        assert_eq!(m.received(), 1_500);
        assert_eq!(m.remaining(), 500);
    }

    #[test]
    fn inbound_clips_ranges_beyond_len() {
        let mut m = InboundMessage::new(key(), PeerId(1), 1_000, 0);
        assert_eq!(m.record(500, 10_000), 500);
        assert_eq!(m.record(2_000, 100), 0);
        assert_eq!(m.first_gap(), Some((0, 500)));
    }

    #[test]
    fn gap_in_middle_reported_after_prefix() {
        let mut m = InboundMessage::new(key(), PeerId(1), 5_000, 0);
        m.record(0, 1_000);
        m.record(3_000, 1_000);
        assert_eq!(m.first_gap(), Some((1_000, 2_000)));
        m.record(1_000, 2_000);
        assert_eq!(m.first_gap(), Some((4_000, 1_000)));
    }
}
