//! Protocol configuration.

/// Maximum application payload bytes per DATA packet. With
/// [`DATA_OVERHEAD`] it approximates the 1500-byte Ethernet frames of
/// the paper's simulations. The baseline transports and the harness
/// define their packet sizes from these four constants, so every
/// comparison runs on the same framing.
pub const MAX_PAYLOAD: u32 = 1_400;
/// Wire overhead of a DATA packet beyond its payload (Homa header +
/// IP/Ethernet framing).
pub const DATA_OVERHEAD: u32 = 60;
/// Wire size of a control packet (GRANT/RESEND/BUSY/CUTOFFS).
pub const CTRL_BYTES: u32 = 40;
/// RTTbytes on the paper's simulated 10 Gbps fabric.
pub const RTT_BYTES: u64 = 9_700;

/// All tunables of a Homa endpoint.
///
/// Defaults correspond to the paper's 10 Gbps configuration: `RTTbytes ≈
/// 10 KB`, 8 in-network priority levels, millisecond-scale loss timers.
/// The experiment sweeps of §5.2 (Figures 16–20) are expressed as
/// overrides here.
#[derive(Debug, Clone, PartialEq)]
pub struct HomaConfig {
    /// The bandwidth-delay product: how many bytes a sender transmits
    /// blindly before switching to grant-paced transmission, and how far
    /// ahead of received data grants reach. ~9.7 KB on the paper's
    /// simulated fabric, 10 KB in their implementation.
    pub rtt_bytes: u64,

    /// Cap on blindly-transmitted bytes per message. Normally equal to
    /// [`rtt_bytes`](Self::rtt_bytes); Figure 20 sweeps it independently.
    pub unsched_limit: u64,

    /// Number of in-network priority levels available (8 on commodity
    /// switches).
    pub num_priorities: u8,

    /// Force the split between unscheduled (top) and scheduled (bottom)
    /// levels instead of deriving it from traffic: `Some(u)` reserves `u`
    /// levels for unscheduled packets. Used by Figures 16–19.
    pub unsched_levels_override: Option<u8>,

    /// Force the message-size cutoffs between unscheduled levels
    /// (ascending sizes; level P7 covers sizes ≤ first cutoff). Used by
    /// Figure 18. `None` derives cutoffs from traffic (Figure 4
    /// algorithm).
    pub cutoff_override: Option<Vec<u64>>,

    /// Degree of overcommitment: how many messages a receiver grants to
    /// simultaneously. `None` (the paper's policy) uses the number of
    /// scheduled priority levels.
    pub overcommit_override: Option<u8>,

    /// Maximum application payload bytes per DATA packet.
    pub max_payload: u32,

    /// Wire overhead of a DATA packet beyond its payload: Homa header +
    /// IP/Ethernet framing.
    pub data_overhead: u32,

    /// Wire size of a control packet (GRANT/RESEND/BUSY/CUTOFFS).
    pub ctrl_bytes: u32,

    /// Receiver-side loss detection: if an incomplete inbound message sees
    /// no packets for this long, send a RESEND ("a few milliseconds" in
    /// the paper).
    pub resend_interval_ns: u64,

    /// Give up on a peer after this many consecutive unanswered RESENDs.
    pub abort_after_resends: u32,

    /// Incast control (§3.6): when a client has more than this many
    /// outstanding RPCs, new requests are marked so the server limits the
    /// response's blind prefix.
    pub incast_threshold: u32,

    /// Blind-prefix limit applied to responses of incast-marked RPCs
    /// ("a few hundred bytes").
    pub incast_unsched_limit: u64,

    /// Whether receivers measure incoming traffic and recompute
    /// unscheduled cutoffs on the fly. The paper's implementation
    /// precomputed cutoffs from workload knowledge; ours supports both.
    pub dynamic_cutoffs: bool,

    /// Messages observed between dynamic cutoff recomputations.
    pub cutoff_refresh_msgs: u64,
}

impl Default for HomaConfig {
    fn default() -> Self {
        HomaConfig {
            rtt_bytes: RTT_BYTES,
            unsched_limit: RTT_BYTES,
            num_priorities: 8,
            unsched_levels_override: None,
            cutoff_override: None,
            overcommit_override: None,
            max_payload: MAX_PAYLOAD,
            data_overhead: DATA_OVERHEAD,
            ctrl_bytes: CTRL_BYTES,
            resend_interval_ns: 2_000_000, // 2 ms
            abort_after_resends: 5,
            incast_threshold: 64,
            incast_unsched_limit: 400,
            dynamic_cutoffs: false,
            cutoff_refresh_msgs: 1_000,
        }
    }
}

impl HomaConfig {
    /// Full wire size of a DATA packet carrying `payload` bytes.
    pub fn data_wire_bytes(&self, payload: u32) -> u32 {
        payload + self.data_overhead
    }

    /// Wire size of a full-size DATA packet.
    pub fn full_data_wire_bytes(&self) -> u32 {
        self.data_wire_bytes(self.max_payload)
    }

    /// Number of DATA packets needed for a message of `len` bytes.
    pub fn packets_for(&self, len: u64) -> u64 {
        len.div_ceil(self.max_payload as u64).max(1)
    }

    /// The blind-prefix limit for a message, honouring the incast mark.
    pub fn unsched_limit_for(&self, incast_marked: bool) -> u64 {
        if incast_marked {
            self.incast_unsched_limit.min(self.unsched_limit)
        } else {
            self.unsched_limit
        }
    }

    /// Validate internal consistency; called by `HomaEndpoint::new`.
    pub fn validate(&self) {
        assert!(self.rtt_bytes > 0, "rtt_bytes must be positive");
        assert!(self.max_payload > 0, "max_payload must be positive");
        assert!((1..=8).contains(&self.num_priorities), "num_priorities must be in 1..=8");
        if let Some(u) = self.unsched_levels_override {
            assert!(
                u >= 1 && u < self.num_priorities || self.num_priorities == 1 && u == 1,
                "unsched levels must leave at least one scheduled level (or num_priorities == 1)"
            );
        }
        if let Some(c) = &self.cutoff_override {
            assert!(c.windows(2).all(|w| w[0] < w[1]), "cutoffs must be ascending");
        }
        assert!(self.resend_interval_ns > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_paper_like() {
        let c = HomaConfig::default();
        c.validate();
        assert_eq!(c.rtt_bytes, 9_700);
        assert_eq!(c.num_priorities, 8);
        assert_eq!(c.full_data_wire_bytes(), 1_460);
    }

    #[test]
    fn packets_for_rounds_up() {
        let c = HomaConfig::default();
        assert_eq!(c.packets_for(1), 1);
        assert_eq!(c.packets_for(1_400), 1);
        assert_eq!(c.packets_for(1_401), 2);
        assert_eq!(c.packets_for(14_000), 10);
        // Zero-length messages still need one (empty) packet.
        assert_eq!(c.packets_for(0), 1);
    }

    #[test]
    fn incast_clamps_unsched() {
        let c = HomaConfig::default();
        assert_eq!(c.unsched_limit_for(false), 9_700);
        assert_eq!(c.unsched_limit_for(true), 400);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn rejects_unsorted_cutoffs() {
        let c = HomaConfig { cutoff_override: Some(vec![100, 100]), ..HomaConfig::default() };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "scheduled level")]
    fn rejects_all_unscheduled() {
        let c = HomaConfig { unsched_levels_override: Some(8), ..HomaConfig::default() };
        c.validate();
    }
}
