//! Packets and protocol metadata.
//!
//! The simulator moves [`Packet`] envelopes between hosts. The envelope
//! carries addressing, instrumentation (delay attribution for Figure 14 of
//! the paper) and flags the fabric may set (ECN, trimming). Everything the
//! *protocol* cares about lives in the generic metadata `M`, so Homa and
//! each baseline define their own headers while sharing the fabric.

use crate::delay::DelayBreakdown;
use crate::topology::HostId;

/// Protocol-visible meaning of a control packet, for the flight
/// recorder. The fabric is protocol-agnostic, but grant and resend
/// events are central to the paper's analysis; metadata types that have
/// them report their semantics here so the trace layer can emit
/// [`crate::trace::TraceEvent::GrantIssued`]-family events from the
/// shared dispatch path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlKind {
    /// A receiver-driven grant: credit up to byte `offset`, send at
    /// scheduled priority `prio`.
    Grant {
        /// Granted byte offset.
        offset: u64,
        /// Scheduled priority assigned by the receiver.
        prio: u8,
    },
    /// A retransmission request for `len` bytes starting at `offset`.
    Resend {
        /// First missing byte.
        offset: u64,
        /// Missing byte count.
        len: u64,
    },
    /// Any other control packet (acks, busy, cutoff updates, ...).
    Other,
}

/// Protocol-specific packet metadata carried through the fabric.
///
/// Implementations should be cheap to clone; simulated packets carry no
/// payload bytes, only sizes.
pub trait PacketMeta: Clone + std::fmt::Debug + 'static {
    /// Total size of this packet on the wire, in bytes, including protocol
    /// headers and link-layer framing. This is what serialization time and
    /// queue occupancy are computed from.
    fn wire_bytes(&self) -> u32;

    /// The in-network priority of this packet for strict-priority queues.
    /// Higher values are served first; commodity switches provide 8 levels
    /// (0–7). Protocols that do not use priorities return 0 for everything.
    fn priority(&self) -> u8;

    /// Fine-grained priority for pFabric-style switches: the number of
    /// bytes remaining in the packet's message, where *smaller is more
    /// urgent*. `None` means the packet is not participating in pFabric
    /// scheduling (e.g. a control packet, which is served first).
    fn fine_priority(&self) -> Option<u64> {
        None
    }

    /// Whether this is a control packet (grant, token, ack, ...). Control
    /// packets bypass data in several disciplines and are excluded from
    /// goodput accounting.
    fn is_control(&self) -> bool;

    /// Application payload bytes carried (for goodput accounting).
    fn goodput_bytes(&self) -> u32;

    /// NDP-style trimming: return a copy of this packet with its payload
    /// removed (header retained) if the protocol supports it. The trimmed
    /// copy's [`wire_bytes`](Self::wire_bytes) should be the header size.
    /// `None` (the default) means the packet is dropped instead.
    fn trimmed(&self) -> Option<Self> {
        None
    }

    /// What kind of control packet this is, for trace attribution.
    /// `None` (the default) means data or a protocol without
    /// grant/resend semantics; only consulted when tracing is enabled.
    fn ctrl_kind(&self) -> Option<CtrlKind> {
        None
    }
}

/// A packet in flight: envelope plus protocol metadata.
#[derive(Debug, Clone)]
pub struct Packet<M> {
    /// Originating host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Protocol metadata (headers).
    pub meta: M,
    /// ECN congestion-experienced mark, set by the fabric when a queue
    /// exceeds its marking threshold (used by the PIAS/DCTCP baseline).
    pub ecn: bool,
    /// Set by the fabric if the packet's payload was trimmed in transit
    /// (NDP baseline).
    pub was_trimmed: bool,
    /// Accumulated queueing-delay attribution across all hops.
    pub delay: DelayBreakdown,
}

impl<M: PacketMeta> Packet<M> {
    /// A fresh packet from `src` to `dst` carrying `meta`.
    pub fn new(src: HostId, dst: HostId, meta: M) -> Self {
        Packet { src, dst, meta, ecn: false, was_trimmed: false, delay: DelayBreakdown::default() }
    }

    /// Wire size of the packet in bytes (delegates to the metadata).
    pub fn wire_bytes(&self) -> u32 {
        self.meta.wire_bytes()
    }

    /// Strict priority level of the packet (delegates to the metadata).
    pub fn priority(&self) -> u8 {
        self.meta.priority()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A minimal metadata type used by the simulator's own unit tests.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TestMeta {
        pub bytes: u32,
        pub prio: u8,
        pub control: bool,
        pub remaining: Option<u64>,
    }

    impl TestMeta {
        pub fn data(bytes: u32, prio: u8) -> Self {
            TestMeta { bytes, prio, control: false, remaining: None }
        }
        pub fn control(bytes: u32, prio: u8) -> Self {
            TestMeta { bytes, prio, control: true, remaining: None }
        }
    }

    impl PacketMeta for TestMeta {
        fn wire_bytes(&self) -> u32 {
            self.bytes
        }
        fn priority(&self) -> u8 {
            self.prio
        }
        fn fine_priority(&self) -> Option<u64> {
            self.remaining
        }
        fn is_control(&self) -> bool {
            self.control
        }
        fn goodput_bytes(&self) -> u32 {
            if self.control {
                0
            } else {
                self.bytes.saturating_sub(60)
            }
        }
        fn trimmed(&self) -> Option<Self> {
            if self.control {
                None
            } else {
                Some(TestMeta {
                    bytes: 60,
                    prio: 7,
                    control: self.control,
                    remaining: self.remaining,
                })
            }
        }
    }

    pub fn pkt(src: u32, dst: u32, meta: TestMeta) -> Packet<TestMeta> {
        Packet::new(HostId(src), HostId(dst), meta)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn envelope_defaults() {
        let p = pkt(0, 1, TestMeta::data(1500, 3));
        assert!(!p.ecn);
        assert!(!p.was_trimmed);
        assert_eq!(p.wire_bytes(), 1500);
        assert_eq!(p.priority(), 3);
        assert_eq!(p.delay.total().as_nanos(), 0);
    }

    #[test]
    fn test_meta_trim_produces_header_only() {
        let m = TestMeta::data(1500, 0);
        let t = m.trimmed().unwrap();
        assert_eq!(t.bytes, 60);
        assert_eq!(t.prio, 7);
        let c = TestMeta::control(40, 7);
        assert!(c.trimmed().is_none());
    }
}
