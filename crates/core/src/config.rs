//! Protocol configuration.
//!
//! The framing and the fabric's RTTbytes are constants: every endpoint,
//! the baseline transports and the harness's slowdown denominator read
//! the same values, so a packet is sized one way everywhere.
//! [`HomaConfig`] holds only what an experiment varies.

/// Maximum application payload bytes per DATA packet. With
/// [`DATA_OVERHEAD`] it approximates the 1500-byte Ethernet frames of
/// the paper's simulations. The baseline transports and the harness
/// define their packet sizes from these constants, so every
/// comparison runs on the same framing.
pub const MAX_PAYLOAD: u32 = 1_400;
/// Wire overhead of a DATA packet beyond its payload (Homa header +
/// IP/Ethernet framing).
pub const DATA_OVERHEAD: u32 = 60;
/// Wire size of a control packet (GRANT/RESEND/BUSY).
pub const CTRL_BYTES: u32 = 40;
/// RTTbytes on the paper's simulated 10 Gbps fabric ("about 9.7
/// Kbytes", §2.2): how far ahead of received data grants reach, and the
/// default blind prefix ([`HomaConfig::unsched_limit`]).
pub const RTT_BYTES: u64 = 9_700;
/// Blind-prefix limit applied to responses of incast-marked RPCs ("a
/// few hundred bytes", §3.6).
pub const INCAST_UNSCHED_LIMIT: u64 = 400;

/// The settings of a Homa endpoint that an experiment varies.
///
/// Defaults correspond to the paper's 10 Gbps configuration: a blind
/// prefix of [`RTT_BYTES`], 8 in-network priority levels,
/// millisecond-scale loss timers. The experiment sweeps of §5.2
/// (Figures 16–20) are expressed as overrides here.
#[derive(Debug, Clone, PartialEq)]
pub struct HomaConfig {
    /// Cap on blindly-transmitted bytes per message. Normally equal to
    /// [`RTT_BYTES`]; Figure 20 sweeps it independently.
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
}

impl Default for HomaConfig {
    fn default() -> Self {
        HomaConfig {
            unsched_limit: RTT_BYTES,
            num_priorities: 8,
            unsched_levels_override: None,
            cutoff_override: None,
            overcommit_override: None,
            resend_interval_ns: 2_000_000, // 2 ms
            abort_after_resends: 5,
            incast_threshold: 64,
        }
    }
}

impl HomaConfig {
    /// The blind-prefix limit for a message, honouring the incast mark.
    pub fn unsched_limit_for(&self, incast_marked: bool) -> u64 {
        if incast_marked {
            INCAST_UNSCHED_LIMIT.min(self.unsched_limit)
        } else {
            self.unsched_limit
        }
    }

    /// Validate internal consistency; called by `HomaEndpoint::new`.
    pub fn validate(&self) {
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
        assert_eq!(c.unsched_limit, 9_700);
        assert_eq!(c.num_priorities, 8);
        assert_eq!(MAX_PAYLOAD + DATA_OVERHEAD, 1_460);
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
