//! Production-delay tracking with warm-up gating.

use crate::Histogram;

/// Tracks the paper's *average production delay* metric (§VI-A).
///
/// For each output tuple, the caller supplies the emission time and the
/// arrival timestamp of the **more recent** joining tuple; the delay is
/// their difference. Samples emitted before the configured warm-up end
/// are discarded, matching the paper's methodology (20-minute runs,
/// statistics gathered after a 10-minute start-up interval).
#[derive(Debug, Clone)]
pub struct DelayTracker {
    warmup_end_us: u64,
    /// Exact integer moments (the count is the histogram's): no divide
    /// per sample, and merging is exactly associative.
    sum_us: u128,
    max_us: u64,
    hist: Histogram,
    skew_clamped: u64,
}

impl DelayTracker {
    /// Tracker that ignores every sample emitted before `warmup_end_us`.
    pub fn new(warmup_end_us: u64) -> Self {
        DelayTracker {
            warmup_end_us,
            sum_us: 0,
            max_us: 0,
            hist: Histogram::new(),
            skew_clamped: 0,
        }
    }

    /// Records an output produced at `emit_us` whose newer constituent
    /// tuple arrived at `newer_arrival_us`. Returns the recorded delay, or
    /// `None` if the sample fell in the warm-up window.
    ///
    /// The two timestamps can come from different clocks (the
    /// collector's and the source's, in separate processes), so emission
    /// may appear to precede arrival: such a sample is recorded as a
    /// zero delay and counted in [`DelayTracker::skew_clamped`].
    #[inline]
    pub fn record(&mut self, emit_us: u64, newer_arrival_us: u64) -> Option<u64> {
        if emit_us < self.warmup_end_us {
            return None;
        }
        self.skew_clamped += u64::from(emit_us < newer_arrival_us);
        let delay = emit_us.saturating_sub(newer_arrival_us);
        self.sum_us += u128::from(delay);
        self.max_us = self.max_us.max(delay);
        self.hist.record(delay);
        Some(delay)
    }

    /// Number of recorded (post-warm-up) outputs.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Recorded outputs whose emission time lay before their newer
    /// input's arrival (clock skew), each clamped to a zero delay.
    pub fn skew_clamped(&self) -> u64 {
        self.skew_clamped
    }

    /// Average production delay in seconds (0 when empty).
    pub fn mean_delay_s(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.sum_us as f64 / n as f64 / 1e6,
        }
    }

    /// Maximum production delay in seconds (0 when empty).
    pub fn max_delay_s(&self) -> f64 {
        self.max_us as f64 / 1e6
    }

    /// Delay quantile in seconds (`None` when empty); factor-2 accurate.
    pub fn quantile_s(&self, q: f64) -> Option<f64> {
        self.hist.quantile(q).map(|us| us as f64 / 1e6)
    }

    /// Merges another tracker (same warm-up) into this one.
    pub fn merge(&mut self, other: &DelayTracker) {
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
        self.hist.merge(&other.hist);
        self.skew_clamped += other.skew_clamped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_samples_are_dropped() {
        let mut d = DelayTracker::new(1_000_000);
        assert_eq!(d.record(500_000, 400_000), None);
        assert_eq!(d.count(), 0);
        assert_eq!(d.record(1_500_000, 400_000), Some(1_100_000));
        assert_eq!(d.count(), 1);
    }

    #[test]
    fn mean_delay_in_seconds() {
        let mut d = DelayTracker::new(0);
        d.record(2_000_000, 1_000_000); // 1 s
        d.record(4_000_000, 1_000_000); // 3 s
        assert!((d.mean_delay_s() - 2.0).abs() < 1e-9);
        assert!((d.max_delay_s() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_report_in_seconds() {
        let mut d = DelayTracker::new(0);
        for i in 1..=100u64 {
            d.record(i * 1_000_000, 0);
        }
        let p50 = d.quantile_s(0.5).unwrap();
        assert!((50.0..=128.0).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn skewed_samples_clamp_to_zero_and_are_counted() {
        let mut a = DelayTracker::new(100);
        assert_eq!(a.record(50, 80), None, "warm-up samples are dropped, not counted");
        assert_eq!(a.record(200, 150), Some(50));
        assert_eq!(a.record(200, 201), Some(0));
        assert_eq!((a.count(), a.skew_clamped()), (2, 1));
        assert!((a.mean_delay_s() - 25e-6).abs() < 1e-12);
        let mut b = DelayTracker::new(100);
        b.record(300, 1_000);
        b.record(300, 400);
        a.merge(&b);
        assert_eq!((a.count(), a.skew_clamped()), (4, 3));
    }

    #[test]
    fn merge_is_independent_of_order_and_grouping() {
        // Delays spanning 0 to ~2^62 µs: a floating-point mean would
        // round differently per merge order; integer moments cannot.
        let part = |k: u64| {
            let mut d = DelayTracker::new(10);
            for i in 0..50u64 {
                let delay =
                    i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(k as u32) >> (i % 40 + 2);
                d.record(u64::MAX, u64::MAX - delay);
            }
            d.record(20, 30 + k); // one skew-clamped sample each
            d.record(5, 0); // and one inside the warm-up
            d
        };
        let parts: Vec<DelayTracker> = (0..5).map(part).collect();
        let digest = |d: &DelayTracker| {
            let quantiles = [0.0, 0.5, 0.99, 1.0].map(|q| d.quantile_s(q).map(f64::to_bits));
            (
                d.count(),
                d.skew_clamped(),
                d.mean_delay_s().to_bits(),
                d.max_delay_s().to_bits(),
                quantiles,
            )
        };
        let fold = |order: &[usize]| {
            let mut acc = DelayTracker::new(10);
            for &i in order {
                acc.merge(&parts[i]);
            }
            digest(&acc)
        };
        let forward = fold(&[0, 1, 2, 3, 4]);
        assert_eq!(forward.0, 5 * 51);
        assert_eq!(forward.1, 5);
        assert_eq!(fold(&[4, 3, 2, 1, 0]), forward);
        assert_eq!(fold(&[2, 0, 4, 1, 3]), forward);
        // Grouping: (0 + 1) + (2 + (3 + 4)).
        let (mut left, mut right, mut tail) =
            (parts[0].clone(), parts[2].clone(), parts[3].clone());
        left.merge(&parts[1]);
        tail.merge(&parts[4]);
        right.merge(&tail);
        left.merge(&right);
        assert_eq!(digest(&left), forward);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = DelayTracker::new(0);
        let mut b = DelayTracker::new(0);
        a.record(10, 0);
        b.record(20, 0);
        b.record(30, 0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
    }
}
