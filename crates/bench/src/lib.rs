//! Experiment harness for `windjoin`: regenerates every table and figure
//! of the paper's evaluation (§VI), plus ablations the paper does not
//! plot (baseline routing strategies, sub-group communication, skew and
//! θ sweeps).
//!
//! Run via the `repro` binary:
//!
//! ```text
//! cargo run -p windjoin-bench --release --bin repro -- fig5
//! cargo run -p windjoin-bench --release --bin repro -- --all
//! cargo run -p windjoin-bench --release --bin repro -- --quick fig6
//! ```
//!
//! Each experiment returns [`windjoin_metrics::Table`]s whose first
//! column is the paper's x-axis, so rows can be compared one-to-one with
//! the plots.

#![warn(missing_docs)]

pub mod experiments;
pub mod scale;

pub use experiments::{all_experiments, run_experiment, EXPERIMENT_NAMES};
pub use scale::Scale;
