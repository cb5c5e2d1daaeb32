//! Evaluation metrics for `windjoin`, matching §VI-A of the paper:
//!
//! * **average production delay** — for an output pair `(s1, s2)` with
//!   `s1.t > s2.t`, the delay is `emit_time - s1.t`: how long after the
//!   *more recent* joining tuple arrived was the result produced
//!   ([`DelayTracker`]);
//! * **CPU time, communication overhead, idle time** per node
//!   ([`NodeUsage`], [`UsageSet`]), and each rank's own CPU time
//!   ([`thread_cpu_time`]);
//! * **window sizes** and buffer occupancies over time ([`TimeSeries`]);
//! * general streaming statistics ([`Welford`], [`Histogram`]).
//!
//! [`Table`] renders experiment results as aligned text and CSV — the
//! `repro` harness prints one table per paper figure.

#![warn(missing_docs)]

mod delay;
mod histogram;
mod report;
mod series;
mod stats;
mod usage;

pub use delay::DelayTracker;
pub use histogram::Histogram;
pub use report::Table;
pub use series::TimeSeries;
pub use stats::Welford;
pub use usage::{thread_cpu_time, NodeUsage, UsageSet, UsageSummary};
