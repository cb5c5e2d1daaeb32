//! Typed configuration errors.
//!
//! Every `validate()` in the workspace — [`crate::Params`],
//! [`crate::EpochTuning`], the cluster crate's `NodeConfig` and the
//! `JoinJob` builder — reports failures through one [`ConfigError`]
//! enum instead of bare `String`s, so callers can match on the failure
//! class and `?` composes across layers.

use std::fmt;

/// Why a configuration failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A count or size that must be at least one was zero (or, for
    /// bounded fields, fell below its floor).
    NonPositive {
        /// The offending field, dotted-path style (`"params.npart"`).
        field: &'static str,
    },
    /// A value violated a stated numeric constraint.
    OutOfRange {
        /// The offending field.
        field: &'static str,
        /// The constraint it violated, human-readable
        /// (`"0 <= Th_con < Th_sup <= 1"`).
        constraint: &'static str,
    },
    /// Two or more fields are individually fine but mutually
    /// inconsistent.
    Inconsistent {
        /// What disagrees with what.
        why: String,
    },
    /// The cluster topology description is malformed (rank out of
    /// range, peer-list size mismatch, ...).
    Topology {
        /// What is wrong with the topology.
        why: String,
    },
    /// A feature combination the selected runtime does not support
    /// (e.g. wire payloads on the simulator).
    Unsupported {
        /// The unsupported combination.
        why: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NonPositive { field } => write!(f, "{field} must be positive"),
            ConfigError::OutOfRange { field, constraint } => {
                write!(f, "{field} out of range: must satisfy {constraint}")
            }
            ConfigError::Inconsistent { why } => write!(f, "inconsistent configuration: {why}"),
            ConfigError::Topology { why } => write!(f, "bad topology: {why}"),
            ConfigError::Unsupported { why } => write!(f, "unsupported configuration: {why}"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ConfigError::NonPositive { field: "params.npart" };
        assert!(e.to_string().contains("params.npart"));
        let e = ConfigError::OutOfRange { field: "beta", constraint: "0 < beta < 1" };
        assert!(e.to_string().contains("beta"));
        assert!(e.to_string().contains("0 < beta < 1"));
        let e = ConfigError::Topology { why: "rank 9 out of range".into() };
        assert!(e.to_string().contains("rank 9"));
    }

    #[test]
    fn is_a_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&ConfigError::NonPositive { field: "x" });
    }
}
