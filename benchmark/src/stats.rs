//! Reducers: percentiles over samples and best-of-R over repeats.

/// The `p`-th percentile (0–100) of `samples` by the nearest-rank rule;
/// sorts in place. `None` for an empty slice.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Median by the nearest-rank rule; sorts in place.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Best (smallest) of the per-repeat values: interference only ever adds
/// time, so the minimum is the estimator that repeats. Panics on an
/// empty slice or a NaN — a repeat that produced no timing is a bug.
pub fn best_of(per_repeat: &[f64]) -> f64 {
    assert!(!per_repeat.is_empty(), "best_of needs at least one repeat");
    assert!(per_repeat.iter().all(|v| !v.is_nan()), "NaN timing in {per_repeat:?}");
    per_repeat.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `(median − min) ÷ min` over the repeats: how far a single repeat can
/// sit above the reported best.
pub fn repeat_spread(per_repeat: &[f64]) -> f64 {
    let min = best_of(per_repeat);
    let med = median(&mut per_repeat.to_vec()).expect("nonempty");
    if min > 0.0 {
        (med - min) / min
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), Some(50.0));
        assert_eq!(percentile(&mut v, 99.0), Some(99.0));
        assert_eq!(percentile(&mut v, 100.0), Some(100.0));
        assert_eq!(percentile(&mut v, 0.0), Some(1.0));
        assert_eq!(percentile(&mut [7.0], 99.9), Some(7.0));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn median_of_even_count_is_lower_middle() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn best_of_is_the_minimum() {
        assert_eq!(best_of(&[4.1, 5.46, 4.10, 4.3]), 4.10);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn best_of_rejects_nan() {
        best_of(&[1.0, f64::NAN]);
    }

    #[test]
    fn spread_is_relative_to_the_minimum() {
        assert!((repeat_spread(&[1.0, 1.2, 1.1]) - 0.1).abs() < 1e-12);
        assert_eq!(repeat_spread(&[2.0]), 0.0);
    }
}
