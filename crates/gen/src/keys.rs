//! Join-attribute (key) distributions.

use crate::{BModel, Zipf};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Declarative description of a key distribution. Converted into a
/// [`KeySampler`] with a seed for deterministic sampling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform over `[0, domain)`.
    Uniform {
        /// Domain size.
        domain: u64,
    },
    /// The paper's default: b-model with `bias` over `[0, domain)`
    /// (§VI-A uses `bias = 0.7`, `domain = 10^7`).
    BModel {
        /// The b-model bias `b` in `[0.5, 1.0)`.
        bias: f64,
        /// Domain size.
        domain: u64,
    },
    /// Zipf with exponent `s` over `[0, domain)` (ablation).
    Zipf {
        /// Zipf exponent (`> 0`).
        s: f64,
        /// Domain size.
        domain: u64,
    },
    /// Every tuple carries the same key — the worst case for hash
    /// partitioning, used in failure-injection tests.
    Constant {
        /// The constant key value.
        key: u64,
    },
}

impl KeyDist {
    /// The paper's default distribution: `BModel { bias: 0.7, domain: 10^7 }`.
    pub fn paper_default() -> Self {
        KeyDist::BModel { bias: 0.7, domain: 10_000_000 }
    }

    /// Domain size (1 for `Constant`).
    pub fn domain(&self) -> u64 {
        match *self {
            KeyDist::Uniform { domain }
            | KeyDist::BModel { domain, .. }
            | KeyDist::Zipf { domain, .. } => domain,
            KeyDist::Constant { .. } => 1,
        }
    }

    /// Checks the parameters [`KeyDist::sampler`] needs, returning the
    /// violated constraint.
    pub fn validate(&self) -> Result<(), &'static str> {
        match *self {
            KeyDist::BModel { bias, .. } if !(0.5..1.0).contains(&bias) => {
                Err("b-model bias in [0.5, 1.0)")
            }
            KeyDist::Zipf { s, .. } if !(s > 0.0 && s.is_finite()) => {
                Err("Zipf exponent positive and finite")
            }
            _ if self.domain() == 0 => Err("domain >= 1"),
            _ => Ok(()),
        }
    }

    /// Builds a deterministic sampler.
    ///
    /// # Panics
    ///
    /// Panics where [`KeyDist::validate`] returns an error.
    pub fn sampler(&self, seed: u64) -> KeySampler {
        let rng = SmallRng::seed_from_u64(seed);
        let inner = match *self {
            KeyDist::Uniform { domain } => {
                assert!(domain >= 1, "domain must be non-empty");
                Inner::Uniform { domain }
            }
            KeyDist::BModel { bias, domain } => Inner::BModel(BModel::new(bias, domain)),
            KeyDist::Zipf { s, domain } => Inner::Zipf(Zipf::new(domain, s)),
            KeyDist::Constant { key } => Inner::Constant(key),
        };
        KeySampler { rng, inner }
    }
}

#[derive(Debug, Clone)]
enum Inner {
    Uniform { domain: u64 },
    BModel(BModel),
    Zipf(Zipf),
    Constant(u64),
}

/// A seeded sampler for one of the [`KeyDist`] distributions.
#[derive(Debug, Clone)]
pub struct KeySampler {
    rng: SmallRng,
    inner: Inner,
}

impl KeySampler {
    /// Draws the next key.
    pub fn next_key(&mut self) -> u64 {
        match &self.inner {
            Inner::Uniform { domain } => self.rng.gen_range(0..*domain),
            Inner::BModel(m) => m.sample(&mut self.rng),
            Inner::Zipf(z) => z.sample(&mut self.rng),
            Inner::Constant(k) => *k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_one() {
        let d = KeyDist::paper_default();
        assert_eq!(d, KeyDist::BModel { bias: 0.7, domain: 10_000_000 });
    }

    #[test]
    fn sampler_is_deterministic() {
        let d = KeyDist::Uniform { domain: 1000 };
        let a: Vec<u64> = {
            let mut s = d.sampler(11);
            (0..50).map(|_| s.next_key()).collect()
        };
        let b: Vec<u64> = {
            let mut s = d.sampler(11);
            (0..50).map(|_| s.next_key()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn constant_always_returns_key() {
        let mut s = KeyDist::Constant { key: 77 }.sampler(0);
        for _ in 0..10 {
            assert_eq!(s.next_key(), 77);
        }
    }

    #[test]
    fn all_distributions_respect_domain() {
        for d in [
            KeyDist::Uniform { domain: 97 },
            KeyDist::BModel { bias: 0.7, domain: 97 },
            KeyDist::Zipf { s: 1.1, domain: 97 },
        ] {
            let mut s = d.sampler(5);
            for _ in 0..5_000 {
                assert!(s.next_key() < 97, "{d:?} escaped its domain");
            }
        }
    }

    #[test]
    fn validate_refuses_what_the_samplers_assert_on() {
        for (d, why) in [
            (KeyDist::Uniform { domain: 0 }, "domain"),
            (KeyDist::BModel { bias: 0.2, domain: 100 }, "bias"),
            (KeyDist::BModel { bias: 1.0, domain: 100 }, "bias"),
            (KeyDist::BModel { bias: 0.7, domain: 0 }, "domain"),
            (KeyDist::Zipf { s: 0.0, domain: 10 }, "exponent"),
            (KeyDist::Zipf { s: f64::NAN, domain: 10 }, "exponent"),
        ] {
            assert!(d.validate().is_err_and(|e| e.contains(why)), "{d:?}");
            let _ = std::panic::catch_unwind(|| d.sampler(1)).expect_err("the sampler asserts");
        }
        for d in [KeyDist::paper_default(), KeyDist::Zipf { s: 1.1, domain: 1 }] {
            assert_eq!(d.validate(), Ok(()));
        }
        assert_eq!(KeyDist::Constant { key: 0 }.validate(), Ok(()));
    }
}
