//! Piecewise log-linear message-size distributions.
//!
//! A [`MessageSizeDist`] is defined by anchor points `(size, cum_prob)`
//! with sizes strictly increasing and probabilities non-decreasing from 0
//! to 1. Between anchors the quantile function interpolates linearly in
//! `log(size)` — the natural interpolation for the many-decades size
//! ranges of datacenter workloads.

use rand::Rng;

/// A message-size distribution given as a piecewise log-linear CDF.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageSizeDist {
    /// `(size_bytes, cumulative_probability)` anchors; the first has
    /// probability 0.0 and the last 1.0.
    anchors: Vec<(u64, f64)>,
}

impl MessageSizeDist {
    /// Build a distribution from CDF anchors.
    ///
    /// # Panics
    ///
    /// If fewer than two anchors are given, sizes are not strictly
    /// increasing, probabilities are not non-decreasing, or the endpoints
    /// are not 0.0 / 1.0.
    pub fn from_anchors(anchors: Vec<(u64, f64)>) -> Self {
        assert!(anchors.len() >= 2, "need at least two anchors");
        assert_eq!(anchors.first().unwrap().1, 0.0, "first anchor must have p=0");
        assert_eq!(anchors.last().unwrap().1, 1.0, "last anchor must have p=1");
        for w in anchors.windows(2) {
            assert!(w[0].0 < w[1].0, "sizes must be strictly increasing: {:?}", w);
            assert!(w[0].1 <= w[1].1, "probabilities must be non-decreasing: {:?}", w);
            assert!(w[0].0 >= 1, "sizes must be >= 1");
        }
        MessageSizeDist { anchors }
    }

    /// A distribution from decile anchors as published in the paper's
    /// figures: `min` is the smallest message (p=0), `deciles` are the
    /// 10%..90% quantiles, and `max` the largest (p=1).
    pub fn from_deciles(min: u64, deciles: [u64; 9], max: u64) -> Self {
        let mut anchors = Vec::with_capacity(11);
        anchors.push((min, 0.0));
        for (i, &d) in deciles.iter().enumerate() {
            anchors.push((d, (i as f64 + 1.0) / 10.0));
        }
        anchors.push((max, 1.0));
        // Published deciles occasionally repeat a size (heavy point mass);
        // nudge duplicates up by one byte to keep sizes strictly
        // increasing while preserving the distribution shape.
        for i in 1..anchors.len() {
            if anchors[i].0 <= anchors[i - 1].0 {
                anchors[i].0 = anchors[i - 1].0 + 1;
            }
        }
        Self::from_anchors(anchors)
    }

    /// A fixed-size (degenerate) distribution, handy for tests and incast
    /// experiments.
    pub fn fixed(size: u64) -> Self {
        assert!(size >= 1);
        MessageSizeDist { anchors: vec![(size, 0.0), (size + 1, 1.0)] }
    }

    /// The quantile function: the message size at cumulative probability
    /// `p` ∈ [0, 1].
    pub fn quantile(&self, p: f64) -> u64 {
        let p = p.clamp(0.0, 1.0);
        let a = &self.anchors;
        if p <= a[0].1 {
            return a[0].0;
        }
        for w in a.windows(2) {
            let (s0, p0) = w[0];
            let (s1, p1) = w[1];
            if p <= p1 {
                if p1 <= p0 {
                    return s1;
                }
                let frac = (p - p0) / (p1 - p0);
                let ls = (s0 as f64).ln() + frac * ((s1 as f64).ln() - (s0 as f64).ln());
                return ls.exp().round().max(1.0) as u64;
            }
        }
        a.last().unwrap().0
    }

    /// Cumulative probability that a message is `<= size` (inverse of
    /// [`quantile`](Self::quantile), linear in log-size within segments).
    pub fn cdf(&self, size: u64) -> f64 {
        let a = &self.anchors;
        if size <= a[0].0 {
            return if size == a[0].0 { a[0].1.max(f64::MIN_POSITIVE) } else { 0.0 };
        }
        if size >= a.last().unwrap().0 {
            return 1.0;
        }
        for w in a.windows(2) {
            let (s0, p0) = w[0];
            let (s1, p1) = w[1];
            if size <= s1 {
                let frac =
                    ((size as f64).ln() - (s0 as f64).ln()) / ((s1 as f64).ln() - (s0 as f64).ln());
                return p0 + frac * (p1 - p0);
            }
        }
        1.0
    }

    /// Draw a message size.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.quantile(rng.gen::<f64>())
    }

    /// Mean message size in bytes, computed by integrating the quantile
    /// function over each log-linear segment in closed form.
    pub fn mean(&self) -> f64 {
        let mut total = 0.0;
        for w in self.anchors.windows(2) {
            let (s0, p0) = w[0];
            let (s1, p1) = w[1];
            let dp = p1 - p0;
            if dp <= 0.0 {
                continue;
            }
            let r = s1 as f64 / s0 as f64;
            // ∫ s0 * r^u du over u in [0,1], scaled by dp.
            let seg_mean =
                if (r - 1.0).abs() < 1e-12 { s0 as f64 } else { s0 as f64 * (r - 1.0) / r.ln() };
            total += dp * seg_mean;
        }
        total
    }

    /// Mean of `min(size, cap)` — the expected *unscheduled* bytes per
    /// message when the first `cap` (RTTbytes) bytes are sent blindly.
    /// Computed numerically over a fine quantile grid.
    pub fn mean_capped(&self, cap: u64) -> f64 {
        let n = 10_000;
        let mut total = 0.0;
        for i in 0..n {
            let p = (i as f64 + 0.5) / n as f64;
            total += self.quantile(p).min(cap) as f64;
        }
        total / n as f64
    }

    /// The sizes [`byte_weighted_cdf`](Self::byte_weighted_cdf) integrates
    /// over, ascending: the quantile at the midpoint of each of 20,000
    /// equal-probability cells.
    pub fn size_grid(&self) -> impl Iterator<Item = u64> + '_ {
        let n = 20_000;
        (0..n).map(move |i| self.quantile((i as f64 + 0.5) / n as f64))
    }

    /// Fraction of all *bytes* belonging to messages of size `<= size`
    /// (the paper's Figure 1 lower panel / Figure 4 y-axis), computed
    /// numerically.
    pub fn byte_weighted_cdf(&self, size: u64) -> f64 {
        let mut below = 0.0;
        let mut total = 0.0;
        for s in self.size_grid() {
            let s = s as f64;
            total += s;
            if s <= size as f64 {
                below += s;
            }
        }
        if total == 0.0 {
            0.0
        } else {
            below / total
        }
    }

    /// The smallest message size in the distribution's support.
    pub fn min_size(&self) -> u64 {
        self.anchors[0].0
    }

    /// The largest message size in the distribution's support.
    pub fn max_size(&self) -> u64 {
        self.anchors.last().unwrap().0
    }

    /// The anchor points (for plotting Figure 1).
    pub fn anchors(&self) -> &[(u64, f64)] {
        &self.anchors
    }

    /// The message-count deciles of the distribution: `(percentile,
    /// size)` at 10%, 20%, ..., 100%. These are the x-axis tick marks of
    /// Figures 8/9/12/13 (each tick covers 10% of messages), and the
    /// points the `repro compare` gate joins reference curves on.
    pub fn decile_points(&self) -> [(f64, u64); 10] {
        std::array::from_fn(|i| {
            let p = (i + 1) as f64 / 10.0;
            (p * 100.0, self.quantile(p))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn simple() -> MessageSizeDist {
        MessageSizeDist::from_anchors(vec![(10, 0.0), (100, 0.5), (1000, 1.0)])
    }

    #[test]
    fn quantile_hits_anchors() {
        let d = simple();
        assert_eq!(d.quantile(0.0), 10);
        assert_eq!(d.quantile(0.5), 100);
        assert_eq!(d.quantile(1.0), 1000);
    }

    #[test]
    fn quantile_log_linear_between_anchors() {
        let d = simple();
        // Halfway (p=0.25) between 10 and 100 in log space is ~31.6.
        let q = d.quantile(0.25);
        assert!((31..=33).contains(&q), "got {q}");
    }

    #[test]
    fn cdf_inverts_quantile() {
        let d = simple();
        for p in [0.05, 0.1, 0.3, 0.5, 0.7, 0.95] {
            let s = d.quantile(p);
            let back = d.cdf(s);
            assert!((back - p).abs() < 0.02, "p={p} size={s} back={back}");
        }
    }

    #[test]
    fn cdf_boundaries() {
        let d = simple();
        assert_eq!(d.cdf(5), 0.0);
        assert_eq!(d.cdf(1000), 1.0);
        assert_eq!(d.cdf(100_000), 1.0);
    }

    #[test]
    fn sample_within_support_and_distributed() {
        let d = simple();
        let mut rng = StdRng::seed_from_u64(7);
        let mut below_100 = 0;
        let n = 20_000;
        for _ in 0..n {
            let s = d.sample(&mut rng);
            assert!((10..=1000).contains(&s));
            if s <= 100 {
                below_100 += 1;
            }
        }
        let frac = below_100 as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn mean_matches_monte_carlo() {
        let d = simple();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200_000;
        let mc: f64 = (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        let analytic = d.mean();
        assert!((mc - analytic).abs() / analytic < 0.02, "mc={mc} analytic={analytic}");
    }

    #[test]
    fn mean_capped_below_mean() {
        let d = simple();
        assert!(d.mean_capped(50) < d.mean());
        assert!(d.mean_capped(1_000_000) <= d.mean() * 1.01);
        // Cap below min: everything capped.
        assert!((d.mean_capped(10) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn byte_weighted_cdf_is_below_count_cdf_for_small_sizes() {
        // Small messages hold a smaller share of bytes than of counts.
        let d = simple();
        assert!(d.byte_weighted_cdf(100) < d.cdf(100));
        assert!(d.byte_weighted_cdf(1000) > 0.99);
    }

    #[test]
    fn fixed_dist_always_returns_size() {
        let d = MessageSizeDist::fixed(777);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let s = d.sample(&mut rng);
            assert!((777..=778).contains(&s));
        }
    }

    #[test]
    fn from_deciles_dedups_repeated_sizes() {
        let d = MessageSizeDist::from_deciles(5, [10, 10, 10, 20, 30, 40, 50, 60, 70], 100);
        assert_eq!(d.quantile(0.0), 5);
        assert_eq!(d.quantile(1.0), 100);
        // Monotone quantile.
        let mut prev = 0;
        for i in 0..=100 {
            let q = d.quantile(i as f64 / 100.0);
            assert!(q >= prev);
            prev = q;
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_non_increasing_sizes() {
        let _ = MessageSizeDist::from_anchors(vec![(10, 0.0), (10, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "first anchor")]
    fn rejects_bad_first_probability() {
        let _ = MessageSizeDist::from_anchors(vec![(10, 0.1), (20, 1.0)]);
    }
}
