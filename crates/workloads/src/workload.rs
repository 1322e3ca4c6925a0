//! The five paper workloads.
//!
//! Anchor points are the message-count deciles published as the x-axis
//! tick labels of Figures 8/12 in the paper (each tick is 10% of all
//! messages), with the minimum size chosen per workload. Sizes are
//! application-level message sizes in bytes.

use crate::dist::MessageSizeDist;

/// One of the five workloads from Figure 1 of the paper, ordered by
/// average message size (W1 smallest, W5 most heavy-tailed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Facebook memcached ETC accesses: almost all messages are tiny.
    W1,
    /// Google search application.
    W2,
    /// All applications aggregated in a Google datacenter.
    W3,
    /// Facebook Hadoop cluster.
    W4,
    /// DCTCP web-search benchmark (the classic heavy-tailed workload).
    W5,
}

impl Workload {
    /// All five workloads in paper order.
    pub const ALL: [Workload; 5] =
        [Workload::W1, Workload::W2, Workload::W3, Workload::W4, Workload::W5];

    /// Short name ("W1" ... "W5").
    pub fn name(self) -> &'static str {
        match self {
            Workload::W1 => "W1",
            Workload::W2 => "W2",
            Workload::W3 => "W3",
            Workload::W4 => "W4",
            Workload::W5 => "W5",
        }
    }

    /// Human description as given in Figure 1 of the paper.
    pub fn description(self) -> &'static str {
        match self {
            Workload::W1 => "Facebook memcached (ETC model)",
            Workload::W2 => "Google search application",
            Workload::W3 => "Google datacenter aggregate",
            Workload::W4 => "Facebook Hadoop cluster",
            Workload::W5 => "DCTCP web search",
        }
    }

    /// The reconstructed message-size distribution (see module docs).
    pub fn dist(self) -> MessageSizeDist {
        match self {
            // W1's top decile is refined beyond the published deciles so
            // that >70% of *bytes* sit in messages under 1000 B, matching
            // the paper's description of the ETC workload ("more than 70%
            // of all network traffic, measured in bytes, was in messages
            // less than 1000 bytes").
            Workload::W1 => MessageSizeDist::from_anchors(vec![
                (1, 0.0),
                (2, 0.1),
                (3, 0.2),
                (5, 0.3),
                (11, 0.4),
                (28, 0.5),
                (85, 0.6),
                (167, 0.7),
                (291, 0.8),
                (508, 0.9),
                (650, 0.95),
                (900, 0.98),
                (1_500, 0.995),
                (16_129, 1.0),
            ]),
            // W2's top decile is refined so that ~75-80% of bytes are
            // unscheduled under RTTbytes = 9.7 KB, matching Figure 4
            // ("About 80% of all bytes are unscheduled" for W2, with 6 of
            // 8 levels allocated to unscheduled packets).
            Workload::W2 => MessageSizeDist::from_anchors(vec![
                (1, 0.0),
                (3, 0.1),
                (34, 0.2),
                (58, 0.3),
                (171, 0.4),
                (269, 0.5),
                (320, 0.6),
                (366, 0.7),
                (427, 0.8),
                (512, 0.9),
                (640, 0.95),
                (1_100, 0.98),
                (4_000, 0.995),
                (30_000, 0.999),
                (262_144, 1.0),
            ]),
            // W3's top decile is refined so that ~50% of bytes are
            // unscheduled, matching §5.2/Figure 21 (Homa "splits the
            // priorities evenly between scheduled and unscheduled" for
            // W3: 4 of 8 levels).
            Workload::W3 => MessageSizeDist::from_anchors(vec![
                (30, 0.0),
                (36, 0.1),
                (77, 0.2),
                (110, 0.3),
                (158, 0.4),
                (268, 0.5),
                (313, 0.6),
                (402, 0.7),
                (573, 0.8),
                (1_755, 0.9),
                (5_000, 0.95),
                (9_700, 0.975),
                (25_000, 0.99925),
                (5_114_695, 1.0),
            ]),
            Workload::W4 => MessageSizeDist::from_deciles(
                280,
                [315, 376, 502, 561, 662, 960, 6_387, 49_408, 120_373],
                10_000_000,
            ),
            Workload::W5 => MessageSizeDist::from_deciles(
                1_430,
                [7_210, 21_630, 28_840, 50_470, 70_658, 269_654, 1_058_428, 2_210_586, 11_537_442],
                28_840_000,
            ),
        }
    }

    /// Message sizes at the distribution's count deciles (10%..100%),
    /// i.e. the published x-axis tick labels of Figures 8/12. The
    /// figure-accuracy gate (`repro compare`) uses these to annotate
    /// reference percentiles with concrete sizes.
    pub fn decile_sizes(self) -> [u64; 10] {
        self.dist().decile_points().map(|(_, size)| size)
    }

    /// Parse "W1".."W5" (case-insensitive).
    pub fn parse(s: &str) -> Option<Workload> {
        match s.to_ascii_uppercase().as_str() {
            "W1" => Some(Workload::W1),
            "W2" => Some(Workload::W2),
            "W3" => Some(Workload::W3),
            "W4" => Some(Workload::W4),
            "W5" => Some(Workload::W5),
            _ => None,
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_by_mean_size() {
        let means: Vec<f64> = Workload::ALL.iter().map(|w| w.dist().mean()).collect();
        for w in means.windows(2) {
            assert!(w[0] < w[1], "workload means not increasing: {means:?}");
        }
    }

    #[test]
    fn w1_is_dominated_by_tiny_messages() {
        let d = Workload::W1.dist();
        // >85% of messages under 1000 bytes (paper: "more than 85%" for
        // three of the workloads, W1 the most extreme).
        assert!(d.cdf(1000) > 0.85, "cdf(1000)={}", d.cdf(1000));
        // W1: most bytes are in messages under 1000 bytes too (paper: >70%).
        assert!(d.byte_weighted_cdf(1000) > 0.70, "bytes cdf = {}", d.byte_weighted_cdf(1000));
    }

    #[test]
    fn w5_is_heavy_tailed() {
        let d = Workload::W5.dist();
        // Most bytes in messages over 1 MB (paper: messages > 1MB are 95%
        // of bytes for the web-search workload).
        assert!(
            d.byte_weighted_cdf(1_000_000) < 0.20,
            "bytes cdf = {}",
            d.byte_weighted_cdf(1_000_000)
        );
        // But a majority of *messages* are under 100 KB ("any message
        // shorter than 100 Kbytes was considered short").
        assert!(d.cdf(100_000) > 0.5);
    }

    #[test]
    fn deciles_match_anchors() {
        let d = Workload::W3.dist();
        assert_eq!(d.quantile(0.1), 36);
        assert_eq!(d.quantile(0.5), 268);
        assert_eq!(d.quantile(0.9), 1_755);
        assert_eq!(d.quantile(1.0), 5_114_695);
    }

    #[test]
    fn decile_sizes_match_quantiles() {
        for w in Workload::ALL {
            let d = w.dist();
            let deciles = w.decile_sizes();
            assert_eq!(deciles.len(), 10);
            for (i, &size) in deciles.iter().enumerate() {
                assert_eq!(size, d.quantile((i + 1) as f64 / 10.0));
            }
            // Deciles are non-decreasing and end at the support maximum.
            for pair in deciles.windows(2) {
                assert!(pair[0] <= pair[1]);
            }
            assert_eq!(deciles[9], d.max_size());
        }
    }

    #[test]
    fn parse_round_trips() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert_eq!(Workload::parse(&w.name().to_lowercase()), Some(w));
        }
        assert_eq!(Workload::parse("W9"), None);
    }

    #[test]
    fn unscheduled_fractions_match_paper_priority_splits() {
        // §5.2: Homa "allocates 7 priority levels for unscheduled packets
        // in W1, 4 in W3, and only 1 in W4 and W5"; Figure 4 shows 6 for
        // W2. The allocation is round(8 * unscheduled_byte_fraction), so
        // each workload's fraction must land in the corresponding band.
        let rtt = 9_700;
        let frac = |w: Workload| {
            let d = w.dist();
            d.mean_capped(rtt) / d.mean()
        };
        let levels = |f: f64| ((f * 8.0).round() as u8).clamp(1, 7);
        assert_eq!(levels(frac(Workload::W1)), 7, "W1 f={}", frac(Workload::W1));
        assert_eq!(levels(frac(Workload::W2)), 6, "W2 f={}", frac(Workload::W2));
        assert_eq!(levels(frac(Workload::W3)), 4, "W3 f={}", frac(Workload::W3));
        assert_eq!(levels(frac(Workload::W4)), 1, "W4 f={}", frac(Workload::W4));
        assert_eq!(levels(frac(Workload::W5)), 1, "W5 f={}", frac(Workload::W5));
    }

    #[test]
    fn unscheduled_fraction_decreases_with_heavier_tails() {
        // The fraction of bytes sent blindly (first RTTbytes of each
        // message) is what drives Homa's priority split: high for W1,
        // low for W5 (paper Figure 4 / §5.2: 7 unscheduled levels for W1,
        // 1 for W4/W5).
        let rtt = 9_700;
        let fracs: Vec<f64> = Workload::ALL
            .iter()
            .map(|w| {
                let d = w.dist();
                d.mean_capped(rtt) / d.mean()
            })
            .collect();
        assert!(fracs[0] > 0.9, "W1 unscheduled fraction {}", fracs[0]);
        assert!(fracs[4] < 0.2, "W5 unscheduled fraction {}", fracs[4]);
        for w in fracs.windows(2) {
            assert!(w[0] >= w[1] - 0.05, "not roughly decreasing: {fracs:?}");
        }
    }
}
