//! Log-linear delay histogram.
//!
//! `windjoin::metrics::Histogram` is factor-2 accurate, which makes a
//! p99 meaningless. This one splits every power of two into 128 linear
//! sub-buckets, so a reported quantile is within 1/128 (< 1 %) of the
//! true sample. It also keeps the exact sample count and sum, because
//! the benchmark may only report a percentile that has at least ten
//! samples beyond it.

/// Linear sub-buckets per power of two: relative error <= 1 / SUB.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values below `SUB` get one exact bucket each; every exponent from
/// `SUB_BITS` to 63 gets `SUB` buckets.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// Samples a quantile needs beyond it before it may be reported.
pub const MIN_SAMPLES_BEYOND: u64 = 10;

/// A mergeable histogram of `u64` samples (microseconds here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayHist {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
    max: u64,
}

impl Default for DelayHist {
    fn default() -> Self {
        DelayHist { counts: vec![0; BUCKETS], n: 0, sum: 0, max: 0 }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) - SUB; // 0..SUB
    ((shift as u64 + 1) * SUB + sub) as usize
}

/// The lowest value of bucket `b` and how many values it spans.
fn bucket_range(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < SUB {
        return (b, 1);
    }
    let shift = b / SUB - 1;
    ((SUB + b % SUB) << shift, 1 << shift)
}

impl DelayHist {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.n += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Largest sample (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &DelayHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (nearest rank), within 1 % of the true sample;
    /// `None` when empty. Samples are taken as evenly spread over their
    /// bucket, so the result is not tied to bucket edges.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, width) = bucket_range(b);
                let within = ((rank - seen) as f64 - 0.5) / c as f64;
                let v = lo as f64 + within * (width - 1) as f64;
                return Some(v.min(self.max as f64));
            }
            seen += c;
        }
        unreachable!("counts sum to n")
    }

    /// [`quantile`](Self::quantile), withheld unless at least
    /// [`MIN_SAMPLES_BEYOND`] samples lie beyond it — a percentile with
    /// fewer is one or two outliers, not a distribution tail.
    pub fn supported_quantile(&self, q: f64) -> Option<f64> {
        let beyond = ((1.0 - q) * self.n as f64).floor() as u64;
        if beyond < MIN_SAMPLES_BEYOND {
            return None;
        }
        self.quantile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic spread of values across six orders of magnitude.
    fn samples(n: u64) -> Vec<u64> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                1 + (x % 1000) * (1 + (x >> 32) % 2000)
            })
            .collect()
    }

    #[test]
    fn buckets_are_contiguous_and_ordered() {
        let mut last = 0;
        for v in (0..4096u64).chain([1 << 20, (1 << 20) + 1, u64::MAX / 2, u64::MAX]) {
            let b = bucket_of(v);
            assert!(b >= last && b < BUCKETS, "bucket order broke at {v}");
            last = b;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_within_one_percent() {
        let mut vals = samples(50_000);
        let mut h = DelayHist::default();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let exact = vals[rank - 1] as f64;
            let got = h.quantile(q).unwrap();
            assert!((got - exact).abs() <= exact * 0.01, "q{q}: got {got}, exact {exact}");
        }
        assert_eq!(h.count(), 50_000);
        assert_eq!(h.max(), *vals.last().unwrap());
        let mean = vals.iter().sum::<u64>() as f64 / vals.len() as f64;
        assert!((h.mean() - mean).abs() < 1e-6 * mean);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let vals = samples(10_000);
        let (a, b) = vals.split_at(3_333);
        let mut ha = DelayHist::default();
        let mut hb = DelayHist::default();
        let mut all = DelayHist::default();
        a.iter().for_each(|&v| ha.record(v));
        b.iter().for_each(|&v| hb.record(v));
        vals.iter().for_each(|&v| all.record(v));
        ha.merge(&hb);
        assert_eq!(ha, all);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let mut h = DelayHist::default();
        assert_eq!(h.quantile(0.5), None);
        for v in 0..999 {
            h.record(v);
        }
        // 999 samples: 9 beyond p99 — withheld; the median is fine.
        assert_eq!(h.supported_quantile(0.99), None);
        assert!(h.supported_quantile(0.5).is_some());
        h.record(999);
        // 1000 samples: exactly 10 beyond p99.
        let p99 = h.supported_quantile(0.99).unwrap();
        assert!((p99 - 989.0).abs() <= 989.0 * 0.01, "p99 {p99}");
    }
}
