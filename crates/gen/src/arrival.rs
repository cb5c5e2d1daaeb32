//! Poisson arrival processes with piecewise-constant rate schedules.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A piecewise-constant arrival-rate schedule, in tuples per second.
///
/// The paper's experiments use constant rates; step schedules are used by
/// the adaptivity experiments (degree-of-declustering traces) and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct RateSchedule {
    /// `(from_us, rate)` steps, sorted by `from_us`; the first step must
    /// start at 0.
    steps: Vec<(u64, f64)>,
}

impl RateSchedule {
    /// A constant rate of `rate` tuples/second.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is finite and `>= 0`.
    pub fn constant(rate: f64) -> Self {
        Self::steps(vec![(0, rate)])
    }

    /// A step schedule; `steps[i] = (from_us, rate)` holds from `from_us`
    /// until the next step.
    ///
    /// # Panics
    ///
    /// Panics where [`RateSchedule::try_steps`] returns an error.
    pub fn steps(steps: Vec<(u64, f64)>) -> Self {
        Self::try_steps(steps).unwrap_or_else(|why| panic!("{why}"))
    }

    /// A step schedule, or why `steps` is none: it must be non-empty,
    /// start at time 0, be strictly increasing in time and carry only
    /// finite rates `>= 0`.
    pub fn try_steps(steps: Vec<(u64, f64)>) -> Result<Self, &'static str> {
        if steps.is_empty() {
            return Err("rate schedule must be non-empty");
        }
        if steps[0].0 != 0 {
            return Err("rate schedule must start at t=0");
        }
        if !steps.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err("rate steps must be strictly increasing in time");
        }
        if !steps.iter().all(|&(_, r)| r.is_finite() && r >= 0.0) {
            return Err("rates must be finite and >= 0");
        }
        Ok(RateSchedule { steps })
    }

    /// The rate in effect at microsecond `t_us`.
    pub fn rate_at(&self, t_us: u64) -> f64 {
        match self.steps.binary_search_by_key(&t_us, |s| s.0) {
            Ok(i) => self.steps[i].1,
            Err(0) => self.steps[0].1,
            Err(i) => self.steps[i - 1].1,
        }
    }

    /// The largest rate anywhere in the schedule (used for capacity
    /// pre-sizing).
    pub fn max_rate(&self) -> f64 {
        self.steps.iter().map(|s| s.1).fold(0.0, f64::max)
    }

    /// The underlying `(from_us, rate)` steps — for serialising a
    /// schedule into a job description.
    pub fn as_steps(&self) -> &[(u64, f64)] {
        &self.steps
    }

    /// True when the schedule is a single constant rate.
    pub fn is_constant(&self) -> bool {
        self.steps.len() == 1
    }
}

/// An infinite iterator of Poisson arrival times (microseconds).
///
/// Inter-arrival gaps are exponential with the rate in effect at the time
/// the gap begins (a standard piecewise-homogeneous approximation; exact
/// for constant-rate schedules, which is what the paper uses).
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    schedule: RateSchedule,
    rng: SmallRng,
    now_us: u64,
}

impl PoissonArrivals {
    /// Creates a deterministic Poisson process from `seed`.
    pub fn new(schedule: RateSchedule, seed: u64) -> Self {
        PoissonArrivals { schedule, rng: SmallRng::seed_from_u64(seed), now_us: 0 }
    }

    /// Draws one exponential gap in microseconds at the current rate.
    fn gap_us(&mut self) -> Option<u64> {
        let rate = self.schedule.rate_at(self.now_us);
        if rate <= 0.0 {
            // A zero-rate segment: jump to the next step with a positive
            // rate, or end the stream if none exists.
            let next =
                self.schedule.steps.iter().find(|(from, r)| *from > self.now_us && *r > 0.0)?;
            return Some(next.0 - self.now_us);
        }
        // Inverse-transform sampling; 1 - U avoids ln(0).
        let u: f64 = self.rng.gen::<f64>();
        let gap_s = -(1.0 - u).ln() / rate;
        Some((gap_s * 1_000_000.0).ceil().max(1.0) as u64)
    }
}

impl Iterator for PoissonArrivals {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let gap = self.gap_us()?;
        self.now_us = self.now_us.saturating_add(gap);
        Some(self.now_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_schedule_reports_rate_everywhere() {
        let s = RateSchedule::constant(1500.0);
        assert_eq!(s.rate_at(0), 1500.0);
        assert_eq!(s.rate_at(u64::MAX), 1500.0);
        assert_eq!(s.max_rate(), 1500.0);
    }

    #[test]
    fn step_schedule_switches_at_boundaries() {
        let s = RateSchedule::steps(vec![(0, 100.0), (1_000_000, 200.0), (2_000_000, 50.0)]);
        assert_eq!(s.rate_at(0), 100.0);
        assert_eq!(s.rate_at(999_999), 100.0);
        assert_eq!(s.rate_at(1_000_000), 200.0);
        assert_eq!(s.rate_at(1_500_000), 200.0);
        assert_eq!(s.rate_at(5_000_000), 50.0);
        assert_eq!(s.max_rate(), 200.0);
    }

    #[test]
    #[should_panic(expected = "start at t=0")]
    fn step_schedule_must_start_at_zero() {
        RateSchedule::steps(vec![(5, 1.0)]);
    }

    #[test]
    fn try_steps_returns_what_steps_panics_with() {
        for (steps, why) in [
            (vec![], "non-empty"),
            (vec![(5, 1.0)], "start at t=0"),
            (vec![(0, 1.0), (0, 2.0)], "strictly increasing"),
            (vec![(0, -5.0)], "finite and >= 0"),
            (vec![(0, f64::NAN)], "finite and >= 0"),
        ] {
            assert!(RateSchedule::try_steps(steps).is_err_and(|e| e.contains(why)), "{why}");
        }
        assert_eq!(RateSchedule::try_steps(vec![(0, 2.0)]), Ok(RateSchedule::constant(2.0)));
    }

    #[test]
    fn poisson_mean_rate_is_close() {
        // 1500 t/s over 20 simulated seconds -> ~30000 arrivals.
        let p = PoissonArrivals::new(RateSchedule::constant(1500.0), 7);
        let n = p.take_while(|&t| t <= 20_000_000).count();
        assert!((27_000..33_000).contains(&n), "got {n} arrivals, expected ~30000");
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a: Vec<u64> =
            PoissonArrivals::new(RateSchedule::constant(100.0), 9).take(100).collect();
        let b: Vec<u64> =
            PoissonArrivals::new(RateSchedule::constant(100.0), 9).take(100).collect();
        let c: Vec<u64> =
            PoissonArrivals::new(RateSchedule::constant(100.0), 10).take(100).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_timestamps_strictly_increase() {
        let p = PoissonArrivals::new(RateSchedule::constant(100_000.0), 3);
        let v: Vec<u64> = p.take(10_000).collect();
        for w in v.windows(2) {
            assert!(w[0] < w[1], "timestamps must strictly increase");
        }
    }

    #[test]
    fn zero_rate_segment_skips_to_next_step() {
        let s = RateSchedule::steps(vec![(0, 0.0), (1_000_000, 1000.0)]);
        let p = PoissonArrivals::new(s, 1);
        let first = p.take(1).next().unwrap();
        assert!(first >= 1_000_000, "first arrival after the silent segment");
    }

    #[test]
    fn zero_rate_forever_ends_stream() {
        let mut p = PoissonArrivals::new(RateSchedule::constant(0.0), 1);
        assert_eq!(p.next(), None);
    }

    #[test]
    fn step_up_doubles_arrival_density() {
        let s = RateSchedule::steps(vec![(0, 500.0), (10_000_000, 1000.0)]);
        let arr: Vec<u64> = PoissonArrivals::new(s, 21).take_while(|&t| t <= 20_000_000).collect();
        let lo = arr.iter().filter(|&&t| t <= 10_000_000).count();
        let hi = arr.len() - lo;
        assert!(hi > lo * 3 / 2, "second half ({hi}) should be ~2x first half ({lo})");
    }
}
