//! End-to-end benchmark of the `windjoin` cluster: production delay and
//! burst throughput over real loopback sockets, plus a staged
//! single-thread ledger for the per-layer numbers. See `README.md`.

pub mod hist;
pub mod ledger;
pub mod metrics;
pub mod oracle;
pub mod phase;
pub mod run;
pub mod suite;
pub mod sut;
pub mod trace;
pub mod workloads;
