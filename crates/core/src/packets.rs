//! Protocol packet types (Figure 3 of the paper).
//!
//! Homa uses four packet types. DATA flows sender→receiver; GRANT and
//! RESEND flow receiver→sender; BUSY flows sender→receiver. All types
//! except DATA travel at the highest network priority. A fifth type,
//! CUTOFFS, carries the receiver's unscheduled priority allocation to
//! senders — the paper piggybacks this on other packets; we piggyback on
//! GRANTs and additionally send it standalone when no grant is pending
//! (the Linux HomaModule does the same).
//!
//! These are *protocol-level* representations. `homa-wire` provides the
//! binary encoding used on real networks; the simulator carries these
//! structs directly.

/// A transport-level peer address. In the simulator this is the host id;
/// over UDP it indexes a socket-address table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u32);

impl std::fmt::Display for PeerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peer{}", self.0)
    }
}

/// Direction of a message within an RPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    /// Client → server request.
    Request,
    /// Server → client response.
    Response,
    /// A one-way message outside any RPC (used by the paper's simulation
    /// workloads; equivalent to an RPC whose response is implicit).
    Oneway,
}

/// Globally-unique message identifier: the originating client's peer id,
/// the client-assigned RPC sequence number, and the direction. Request and
/// response of one RPC share `(origin, seq)` and differ in `dir`; this is
/// the paper's "RPCid is included in all packets associated with the RPC".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgKey {
    /// The client that generated the RPC id (for one-way messages, the
    /// sender).
    pub origin: PeerId,
    /// Client-assigned sequence number, unique per origin.
    pub seq: u64,
    /// Which message of the RPC this is.
    pub dir: Dir,
}

impl MsgKey {
    /// The key of this RPC's message in the opposite direction.
    pub fn flipped(self) -> MsgKey {
        let dir = match self.dir {
            Dir::Request => Dir::Response,
            Dir::Response => Dir::Request,
            Dir::Oneway => Dir::Oneway,
        };
        MsgKey { dir, ..self }
    }
}

/// DATA: a range of bytes within a message (§3, Figure 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataHeader {
    /// Message this packet belongs to.
    pub key: MsgKey,
    /// Total message length in bytes ("Also indicates total message
    /// length" — lets the receiver plan grants from the first packet).
    pub msg_len: u64,
    /// Offset of this packet's first byte within the message.
    pub offset: u64,
    /// Number of payload bytes in this packet.
    pub payload: u32,
    /// Network priority the sender stamped on the packet (receiver-chosen:
    /// via cutoffs for unscheduled, via GRANT for scheduled packets).
    pub prio: u8,
    /// True for packets within the blind prefix.
    pub unscheduled: bool,
    /// True when this packet is a retransmission (excluded from goodput).
    pub retransmit: bool,
    /// Incast-control mark (§3.6): set on requests issued while the client
    /// had many outstanding RPCs; tells the server to clamp the response's
    /// blind prefix.
    pub incast_mark: bool,
    /// Application tag carried in the message's first packet (offset 0).
    /// This stands in for application framing; the experiment harness uses
    /// it to correlate injections with deliveries.
    pub tag: u64,
}

/// GRANT: permission to transmit up to `offset`, at `prio` (§3.3–3.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrantHeader {
    /// Message being granted.
    pub key: MsgKey,
    /// The sender may now transmit all bytes below this offset.
    pub offset: u64,
    /// Priority the sender must stamp on the granted packets.
    pub prio: u8,
    /// Piggybacked unscheduled-priority allocation of the granting
    /// receiver (version, cutoffs), if it changed recently.
    pub cutoffs: Option<CutoffsUpdate>,
}

/// RESEND: receiver-driven retransmission request (§3.7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResendHeader {
    /// Message with missing bytes.
    pub key: MsgKey,
    /// First missing byte.
    pub offset: u64,
    /// Length of the missing range.
    pub length: u64,
    /// Priority to use for the retransmitted data.
    pub prio: u8,
}

/// BUSY: "my response to your RESEND will be delayed" (§3.7); prevents the
/// peer from timing out while the sender works on higher-priority traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusyHeader {
    /// Message the BUSY refers to.
    pub key: MsgKey,
}

/// A receiver's unscheduled-priority allocation, disseminated to senders
/// (§3.4, Figure 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutoffsUpdate {
    /// Monotonic version so senders keep only the newest allocation.
    pub version: u64,
    /// Number of priority levels reserved for unscheduled packets (the
    /// top `unsched_levels` of the priority space).
    pub unsched_levels: u8,
    /// Ascending message-size boundaries between unscheduled levels;
    /// `cutoffs.len() == unsched_levels - 1`. A message of size `s` uses
    /// the highest level if `s <= cutoffs[0]`, and so on downward.
    pub cutoffs: Vec<u64>,
}

/// Any Homa packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HomaPacket {
    /// Data segment.
    Data(DataHeader),
    /// Transmission grant.
    Grant(GrantHeader),
    /// Retransmission request.
    Resend(ResendHeader),
    /// Busy notification.
    Busy(BusyHeader),
    /// Standalone cutoffs dissemination.
    Cutoffs(CutoffsUpdate),
}

impl HomaPacket {
    /// The message this packet pertains to, if any.
    pub fn key(&self) -> Option<MsgKey> {
        match self {
            HomaPacket::Data(h) => Some(h.key),
            HomaPacket::Grant(h) => Some(h.key),
            HomaPacket::Resend(h) => Some(h.key),
            HomaPacket::Busy(h) => Some(h.key),
            HomaPacket::Cutoffs(_) => None,
        }
    }

    /// Whether this is a control packet (everything except DATA).
    pub fn is_control(&self) -> bool {
        !matches!(self, HomaPacket::Data(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> MsgKey {
        MsgKey { origin: PeerId(3), seq: 42, dir: Dir::Request }
    }

    #[test]
    fn flipped_swaps_direction() {
        let k = key();
        assert_eq!(k.flipped().dir, Dir::Response);
        assert_eq!(k.flipped().flipped(), k);
        let ow = MsgKey { dir: Dir::Oneway, ..k };
        assert_eq!(ow.flipped(), ow);
    }

    #[test]
    fn control_classification() {
        let d = HomaPacket::Data(DataHeader {
            key: key(),
            msg_len: 100,
            offset: 0,
            payload: 100,
            prio: 7,
            unscheduled: true,
            retransmit: false,
            incast_mark: false,
            tag: 0,
        });
        assert!(!d.is_control());
        assert_eq!(d.key(), Some(key()));
        let g = HomaPacket::Grant(GrantHeader { key: key(), offset: 10, prio: 0, cutoffs: None });
        assert!(g.is_control());
        let c = HomaPacket::Cutoffs(CutoffsUpdate {
            version: 1,
            unsched_levels: 4,
            cutoffs: vec![100, 200, 300],
        });
        assert!(c.is_control());
        assert_eq!(c.key(), None);
    }
}
