//! Execution drivers for the `windjoin` protocol.
//!
//! `windjoin-core` supplies sans-io state machines; this crate supplies
//! the two environments that run them:
//!
//! * [`simrt`] — a deterministic, execution-driven **cluster simulator**
//!   on the `windjoin-sim` substrate. The protocol code really runs
//!   (outputs, reorganizations and degree-of-declustering decisions are
//!   exact); CPU and network time come from the calibrated cost model.
//!   Every figure of the paper is regenerated on this driver.
//! * [`threadrt`] — an in-process **threaded runtime**: one OS thread
//!   per node (master, slaves, collector) exchanging machine-independent
//!   byte frames over `windjoin-net`'s blocking transport, in real time,
//!   with the physical `ExactEngine` BNLJ. Used by the examples and the
//!   end-to-end tests.
//! * [`procrt`] — a **multi-process runtime**: one OS process per node
//!   over `windjoin-net`'s TCP mesh — the shared-nothing deployment the
//!   paper actually ran. The `windjoin-node` binary wraps it.
//!
//! The master/slave/collector loops themselves live once, in
//! [`nodes`], generic over `windjoin-net`'s `TransportEndpoint`, so
//! every real-time backend runs the identical protocol code.
//!
//! One [`NodeConfig`] describes a run on every driver (the simulator,
//! the baselines, the threaded, TCP and multi-process runtimes);
//! [`JobSpec`] is its serialisable form, whose settings
//! [`options::OPTIONS`] lists once for the job file, SQL and the node
//! CLI. [`RunReport`] carries every
//! metric the paper plots (§VI-A): average production delay, per-node
//! CPU/communication/idle breakdowns, window sizes, degree-of-
//! declustering traces and master buffer peaks.

#![warn(missing_docs)]

pub mod api;
pub mod json;
pub mod nodes;
pub mod options;
pub mod procrt;
pub mod report;
pub mod roles;
pub mod serve;
pub mod simrt;
pub mod sql;
pub mod threadrt;

pub use api::{
    CancelToken, JobFileError, JobSpec, JoinJob, JoinJobBuilder, ReplayTuple, RunError, Runtime,
    Sink, SinkSpec, Source, SourceArrival, SourceSpec, StreamingSink,
};
pub use nodes::{ChaosKill, EngineKind, MasterKill, NodeConfig, Role};
pub use procrt::{run_node, NodeOutcome, TransportKind};
pub use report::RunReport;
pub use simrt::run_sim;
pub use threadrt::{run_on_transport, run_threaded};
