//! Per-packet delay attribution.
//!
//! Figure 14 of the paper decomposes the tail latency of short messages
//! into *preemption lag* (a high-priority packet waiting for a
//! lower-priority packet that already occupies the link — unavoidable
//! without link-level preemption) and *queueing delay* (waiting behind
//! packets of equal or higher priority). The fabric accumulates both
//! components into every packet as it traverses queues; the harness
//! aggregates them per message.

use crate::time::SimDuration;

/// Accumulated wait-time decomposition for one packet across all hops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DelayBreakdown {
    /// Time spent waiting while the output link was busy transmitting a
    /// *lower-priority* packet (Figure 14's "PreemptionLag").
    pub preemption_lag: SimDuration,
    /// Time spent waiting behind packets of equal or higher priority
    /// (Figure 14's "QueuingDelay").
    pub queueing: SimDuration,
}

impl DelayBreakdown {
    /// Total queue-induced delay experienced by the packet.
    pub fn total(&self) -> SimDuration {
        self.preemption_lag + self.queueing
    }

    /// Record a completed wait interval of `waited` total, of which
    /// `lag` was attributable to a lower-priority packet holding the link.
    /// The remainder is classified as queueing delay.
    pub fn record_wait(&mut self, waited: SimDuration, lag: SimDuration) {
        debug_assert!(lag <= waited, "lag {lag:?} exceeds wait {waited:?}");
        self.preemption_lag += lag;
        self.queueing += waited.saturating_sub(lag);
    }

    /// Merge another breakdown into this one (used when aggregating the
    /// packets of a message).
    pub fn merge(&mut self, other: &DelayBreakdown) {
        self.preemption_lag += other.preemption_lag;
        self.queueing += other.queueing;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_wait_splits_components() {
        let mut d = DelayBreakdown::default();
        d.record_wait(SimDuration::from_nanos(100), SimDuration::from_nanos(30));
        assert_eq!(d.preemption_lag.as_nanos(), 30);
        assert_eq!(d.queueing.as_nanos(), 70);
        assert_eq!(d.total().as_nanos(), 100);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = DelayBreakdown::default();
        a.record_wait(SimDuration::from_nanos(10), SimDuration::from_nanos(10));
        let mut b = DelayBreakdown::default();
        b.record_wait(SimDuration::from_nanos(5), SimDuration::ZERO);
        a.merge(&b);
        assert_eq!(a.preemption_lag.as_nanos(), 10);
        assert_eq!(a.queueing.as_nanos(), 5);
    }
}
