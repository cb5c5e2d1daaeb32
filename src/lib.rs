//! # windjoin — parallel sliding-window stream joins on a shared-nothing cluster
//!
//! A production-quality Rust reproduction of *"Parallelizing Windowed Stream
//! Joins in a Shared-Nothing Cluster"* (Abhirup Chakraborty & Ajit Singh,
//! IEEE CLUSTER 2013), grown into a general windowed stream-join engine:
//! payload-carrying tuples, pluggable residual predicates, sources and
//! sinks, and one job description that runs on every execution substrate.
//!
//! ## Quick start: one `JoinJob`, any runtime
//!
//! Describe the join once with [`api::JoinJob::builder`], pick a
//! [`api::Runtime`], run, and read the unified
//! [`RunReport`](cluster::RunReport):
//!
//! ```
//! use std::time::Duration;
//! use windjoin::api::{JoinJob, Runtime};
//!
//! let job = JoinJob::builder()
//!     .runtime(Runtime::Sim)      // Sim | Threaded | Tcp — same spec
//!     .slaves(2)
//!     .rate(500.0)                // tuples/s per stream
//!     .window(Duration::from_secs(5))
//!     .run(Duration::from_secs(30))
//!     .warmup(Duration::from_secs(5))
//!     .build()
//!     .expect("valid job");
//! let report = job.run().expect("run to completion");
//! assert!(report.outputs_total > 0);
//! ```
//!
//! Beyond the paper's fixed equi-join, a job can carry **real payload
//! bytes** end to end and compose the partitioning equi-join with a
//! **residual predicate** that sees both constituents' payloads at probe
//! time, and deliver results **incrementally** through a streaming sink:
//!
//! ```no_run
//! use std::time::Duration;
//! use windjoin::api::{JoinJob, Runtime, SinkSpec};
//! use windjoin::core::ResidualSpec;
//!
//! let job = JoinJob::builder()
//!     .runtime(Runtime::Tcp)       // real sockets, loopback mesh
//!     .payload_bytes(16)           // 16 real payload bytes per tuple
//!     .residual(ResidualSpec::TimeBand { max_dt_us: 100_000 })
//!     .sink(SinkSpec::Capture)
//!     .streaming(|pairs: &[windjoin::core::OutPair]| {
//!         for p in pairs {
//!             println!("match on key {}", p.key);
//!         }
//!     })
//!     .build()
//!     .expect("valid job");
//! let _report = job.run().expect("run");
//! ```
//!
//! The same spec serialises to JSON ([`api::JobSpec::to_json`]) and drives
//! the one-process-per-rank deployment: `windjoin-node --job job.json`
//! (or `windjoin-launch --job job.json` to spawn a whole local cluster).
//! The equality-predicate / zero-payload configuration is **bit-identical**
//! (outputs and `WorkStats`) to the pre-API direct paths, enforced by the
//! `job_api` equivalence tests.
//!
//! A job can also be written as **SQL text** ([`sql`]) and submitted to a
//! long-running **multi-query service** ([`serve`]) that runs many
//! concurrent jobs under an admission budget and streams each job's
//! results back over TCP — see the README's "Serving" section.
//!
//! ## Crate map
//!
//! * [`api`] — the unified job surface: `JoinJob`, `JobSpec`, `Runtime`,
//!   sources, sinks (re-export of `windjoin_cluster::api`).
//! * [`sql`] — the streaming-SQL front end: parse
//!   `SELECT ... JOIN ... WITHIN ...` into a validated `JobSpec`.
//! * [`serve`] — the `windjoin-serve` service layer: wire protocol,
//!   server, admission control and the blocking client.
//! * [`core`] — the paper's contribution: the windowed-join module with
//!   fine-grained partition tuning, the master/slave/collector protocol
//!   state machines, residual predicates and payload stores.
//! * [`cluster`] — execution drivers: the deterministic cluster simulator,
//!   the in-process threaded runtime and the TCP/multi-process runtime.
//! * [`gen`] — synthetic workloads (Poisson arrivals, b-model skew, Zipf).
//! * [`exthash`] — extendible hashing (Fagin et al. 1979).
//! * [`net`] — machine-independent wire format (including payload-carrying
//!   batches) and rank-addressed transport.
//! * [`sim`] — the discrete-event simulation engine and cost models.
//! * [`metrics`] — delay/CPU/idle/communication accounting and reports.
//! * [`baselines`] — Aligned/Coordinated Tuple Routing baselines and
//!   ablation configurations.
//!
//! See `README.md` for a tour and launch recipes.

pub use windjoin_baselines as baselines;
pub use windjoin_cluster as cluster;
pub use windjoin_cluster::api;
pub use windjoin_cluster::serve;
pub use windjoin_cluster::sql;
pub use windjoin_core as core;
pub use windjoin_exthash as exthash;
pub use windjoin_gen as gen;
pub use windjoin_metrics as metrics;
pub use windjoin_net as net;
pub use windjoin_sim as sim;
