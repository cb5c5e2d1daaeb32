//! The four workloads and how a run's length sizes their two phases.
//!
//! Rates are per stream. Every time span scales with `--seconds`; the
//! numbers in the README are for the `run_seconds` of `BENCHMARK.json`.

use crate::sut::{Backend, Job, KeyDist, TuningParams};

/// The `--seconds` every span below is written for.
const NOMINAL_SECONDS: f64 = 20.0;

/// What a burst is expected to be limited by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// The cluster: the backlog needs at least twice the burst's
    /// event-time span to drain.
    Saturating,
    /// The single source thread: the metric can only show regressions.
    SourceLimited,
}

impl Regime {
    pub fn name(self) -> &'static str {
        match self {
            Regime::Saturating => "saturating",
            Regime::SourceLimited => "source_limited",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Fixed offered rate the cluster sustains: the delay quantiles.
    Paced,
    /// Far above capacity for a short event-time span: throughput.
    Burst,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Paced => "paced",
            Phase::Burst => "burst",
        }
    }

    pub fn parse(s: &str) -> Option<Phase> {
        [Phase::Paced, Phase::Burst].into_iter().find(|p| p.name() == s)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    backend: Backend,
    slaves: usize,
    keys: KeyDist,
    tuning: Option<TuningParams>,
    payload_bytes: usize,
    paced_rate: f64,
    burst_rate: f64,
    pub burst_regime: Regime,
}

const SPARSE_KEYS: KeyDist = KeyDist::Uniform { domain: 2_000_000 };
const FINE: Option<TuningParams> = Some(TuningParams { theta_blocks: 16, max_depth: 12 });

/// Why each one exists is in `BENCHMARK.json` and the README.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "sparse_flat",
        backend: Backend::ThreadedTcp,
        slaves: 2,
        keys: SPARSE_KEYS,
        tuning: None,
        payload_bytes: 0,
        paced_rate: 40_000.0,
        burst_rate: 300_000.0,
        burst_regime: Regime::Saturating,
    },
    Workload {
        name: "sparse_tuned",
        backend: Backend::ThreadedTcp,
        slaves: 2,
        keys: SPARSE_KEYS,
        tuning: FINE,
        payload_bytes: 0,
        paced_rate: 150_000.0,
        burst_rate: 5_000_000.0,
        burst_regime: Regime::SourceLimited,
    },
    Workload {
        name: "hot_keys",
        backend: Backend::ThreadedTcp,
        slaves: 2,
        keys: KeyDist::BModel { bias: 0.7, domain: 100_000 },
        // The paper's default θ = 1.5 MB of 4 KB blocks.
        tuning: Some(TuningParams { theta_blocks: 384, max_depth: 12 }),
        payload_bytes: 0,
        paced_rate: 35_000.0,
        burst_rate: 200_000.0,
        burst_regime: Regime::Saturating,
    },
    Workload {
        name: "wide_payload",
        backend: Backend::Evented,
        slaves: 4,
        keys: SPARSE_KEYS,
        tuning: FINE,
        payload_bytes: 512,
        paced_rate: 60_000.0,
        burst_rate: 150_000.0,
        burst_regime: Regime::SourceLimited,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// The job of one phase. The tape seed mixes `--seed` with the
    /// workload's name, so workloads never share a tape.
    pub fn job(&self, phase: Phase, seed: u64, seconds: f64) -> Job {
        let unit_us = seconds / NOMINAL_SECONDS * 1e6;
        let us = |units: f64| (units * unit_us) as u64;
        let (rate, window_us, run_us, warmup_us) = match phase {
            Phase::Paced => (self.paced_rate, us(3.0), us(8.0), us(3.0)),
            Phase::Burst => (self.burst_rate, us(2.0), us(2.5), 0),
        };
        let name_hash = self.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        Job {
            backend: self.backend,
            slaves: self.slaves,
            keys: self.keys,
            tuning: self.tuning,
            payload_bytes: self.payload_bytes,
            rate,
            window_us,
            run_us,
            warmup_us,
            seed: name_hash ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }
}
