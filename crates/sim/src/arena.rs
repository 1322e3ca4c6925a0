//! Capacity control for recycled hot-path buffers.
//!
//! The calendar engine hands the same epoch-bucket `Vec`s round and
//! round (see [`crate::events::HierEventQueue`]), so steady state
//! allocates nothing — but a buffer that is only ever cleared keeps the
//! capacity of the densest epoch it has held. [`HighWater`] and
//! [`trim_capacity`] release that capacity once the burst has aged out.

/// Periodic trim-to-recent-high-water for recycled buffers.
///
/// Recycled containers keep their capacity forever, so one burst (an
/// incast filling a dense calendar epoch) pins peak capacity for the
/// rest of a 100M-event run. A `HighWater` watches the
/// occupancy a buffer actually reaches and, once per `period`
/// observations, reports the high-water mark of the last **two**
/// periods as the capacity target — so a trim lags one full period
/// behind a burst and a buffer that is still hot never shrinks under
/// its working set.
#[derive(Debug, Clone)]
pub struct HighWater {
    period: u32,
    tick: u32,
    high: usize,
    prev_high: usize,
}

impl HighWater {
    /// A tracker that reports a trim target every `period` observations
    /// (`period` is clamped to at least 1).
    pub fn new(period: u32) -> Self {
        HighWater { period: period.max(1), tick: 0, high: 0, prev_high: 0 }
    }

    /// Record the occupancy a buffer reached this cycle. Every `period`
    /// calls, returns `Some(target)`: the largest occupancy seen across
    /// the current and previous periods, i.e. what the buffer's
    /// capacity should shrink toward (see [`trim_capacity`]).
    pub fn observe(&mut self, len: usize) -> Option<usize> {
        self.high = self.high.max(len);
        self.tick += 1;
        if self.tick < self.period {
            return None;
        }
        self.tick = 0;
        let target = self.high.max(self.prev_high);
        self.prev_high = self.high;
        self.high = 0;
        Some(target)
    }
}

impl Default for HighWater {
    /// Defaults to a 1024-observation period: on epoch buckets that's
    /// a trim opportunity every ~1k merged epochs, frequent enough to
    /// release an incast burst's capacity within a run, rare enough
    /// that the `shrink_to` cost never shows in a profile.
    fn default() -> Self {
        HighWater::new(1024)
    }
}

/// Shrink an (empty or near-empty) buffer's capacity toward `target`
/// when it pins more than twice that, keeping a small floor so tiny
/// buffers never thrash. Returns whether a trim happened.
pub fn trim_capacity<T>(v: &mut Vec<T>, target: usize) -> bool {
    let floor = target.max(64);
    if v.capacity() > floor.saturating_mul(2) {
        v.shrink_to(floor);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_water_reports_max_of_two_periods() {
        let mut hw = HighWater::new(3);
        // First period: peak 50. No report until the third observation.
        assert_eq!(hw.observe(10), None);
        assert_eq!(hw.observe(50), None);
        assert_eq!(hw.observe(5), Some(50));
        // Second period peaks at 8, but the previous period's 50 still
        // guards the target: a trim lags one full period behind a burst.
        assert_eq!(hw.observe(8), None);
        assert_eq!(hw.observe(2), None);
        assert_eq!(hw.observe(1), Some(50));
        // Third period: the burst has aged out of both periods, so the
        // target finally drops to the recent working set.
        assert_eq!(hw.observe(7), None);
        assert_eq!(hw.observe(3), None);
        assert_eq!(hw.observe(4), Some(8));
    }

    #[test]
    fn trim_capacity_releases_burst_but_keeps_snug_buffers() {
        // A buffer ballooned by a burst far past the target: trimmed.
        let mut v: Vec<u64> = Vec::with_capacity(10_000);
        assert!(trim_capacity(&mut v, 100));
        assert!(v.capacity() < 10_000, "capacity {} not released", v.capacity());
        assert!(v.capacity() >= 100, "trim must keep the working-set target");
        // Within 2x of target: left alone (no realloc churn).
        let mut snug: Vec<u64> = Vec::with_capacity(150);
        assert!(!trim_capacity(&mut snug, 100));
        assert_eq!(snug.capacity(), 150);
        // Tiny buffers never trim below the floor.
        let mut tiny: Vec<u64> = Vec::with_capacity(100);
        assert!(!trim_capacity(&mut tiny, 0));
    }

    #[test]
    fn high_water_period_floor() {
        // Period 0 degrades to reporting on every observation, not
        // dividing by zero / never reporting.
        let mut hw = HighWater::new(0);
        assert_eq!(hw.observe(9), Some(9));
        assert_eq!(hw.observe(1), Some(9));
        assert_eq!(hw.observe(0), Some(1));
    }
}
