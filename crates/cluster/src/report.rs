//! Run results: every metric the paper's evaluation section reports.

use windjoin_core::{OutPair, WorkStats};
use windjoin_metrics::{DelayTracker, TimeSeries, UsageSet, UsageSummary};

/// The outcome of one simulated (or threaded) run.
#[derive(Debug)]
pub struct RunReport {
    /// Production-delay statistics (post-warm-up; §VI-A metric).
    pub delay: DelayTracker,
    /// Per-slave CPU/communication/idle accounting (post-warm-up).
    pub usage: UsageSet,
    /// Total join outputs observed post-warm-up.
    pub outputs: u64,
    /// Total join outputs including warm-up.
    pub outputs_total: u64,
    /// XOR-fold of output pair ids (order-independent equivalence
    /// checksum for tests).
    pub output_checksum: u64,
    /// Captured output pairs (only when `capture_outputs` was set).
    pub captured: Vec<OutPair>,
    /// Aggregated counted work across all slaves.
    pub work: WorkStats,
    /// Tuples generated (both streams).
    pub tuples_in: u64,
    /// Peak window blocks held by any single slave, post-warm-up.
    pub max_window_blocks: usize,
    /// Peak join-state heap bytes held by any single slave (window
    /// columns and hash chains, block records, payload stores), sampled
    /// every 16 drained batch frames; zero on the simulator, which
    /// models window size in blocks instead.
    pub peak_state_bytes: u64,
    /// Batch frames the slaves drained, all slaves together: one per
    /// slot, plus the leader's tick frames while a slave keeps up. Zero
    /// on the simulator, whose slaves get exactly one per slot.
    pub batches: u64,
    /// Peak master buffer across the run, bytes.
    pub master_peak_buffer_bytes: u64,
    /// Degree of declustering sampled at every reorganization epoch.
    pub dod_trace: TimeSeries,
    /// Distribution epoch (seconds) sampled at every reorganization
    /// epoch — varies only under adaptive epoch tuning.
    pub epoch_trace: TimeSeries,
    /// Final degree of declustering.
    pub final_degree: usize,
    /// Partition-group movements executed.
    pub moves: u64,
    /// Slaves dead (crashed, not cleanly departed) when the run ended,
    /// ascending.
    pub dead_slaves: Vec<usize>,
    /// Simulated run horizon (µs).
    pub run_us: u64,
    /// Warm-up horizon (µs).
    pub warmup_us: u64,
}

impl RunReport {
    /// Average production delay in seconds (the paper's headline metric).
    pub fn avg_delay_s(&self) -> f64 {
        self.delay.mean_delay_s()
    }

    /// Mean degree of declustering over the post-warm-up window.
    pub fn avg_degree(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u64;
        for (t, d) in self.dod_trace.iter_means() {
            if t >= self.warmup_us {
                sum += d;
                n += 1;
            }
        }
        if n == 0 {
            self.final_degree as f64
        } else {
            sum / n as f64
        }
    }

    /// CPU summary across slaves, seconds within the measured window.
    pub fn cpu(&self) -> UsageSummary {
        self.usage.cpu()
    }

    /// Communication summary across slaves.
    pub fn comm(&self) -> UsageSummary {
        self.usage.comm()
    }

    /// Idle summary across slaves.
    pub fn idle(&self) -> UsageSummary {
        self.usage.idle()
    }

    /// The measured window length in seconds.
    pub fn window_s(&self) -> f64 {
        (self.run_us - self.warmup_us) as f64 / 1e6
    }
}
