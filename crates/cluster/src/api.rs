//! The one-stop job API: describe a windowed stream join once, run it
//! on any runtime.
//!
//! Every runtime reads one in-memory run description,
//! [`NodeConfig`]: [`crate::run_sim`], [`crate::run_threaded`],
//! [`crate::run_on_transport`] and [`crate::run_node`] (the
//! `windjoin-node` CLI). This module puts a serialisable job
//! description in front of it:
//!
//! * [`JobSpec`] — a serialisable description of the whole job: window
//!   semantics, partitioning, payload width, residual predicate,
//!   source, sink, engine and runtime. Round-trips through JSON
//!   ([`JobSpec::to_json`] / [`JobSpec::from_json`]), which is what
//!   `windjoin-node --job job.json` and `windjoin-launch --job` consume,
//!   and lowers to a [`NodeConfig`] in one place
//!   ([`JobSpec::to_node_config`]).
//! * [`JoinJob::builder`] — the ergonomic way to construct one, with
//!   non-serialisable attachments (custom [`ResidualPredicate`]s,
//!   streaming [`Sink`]s) for programmatic use.
//! * [`Runtime`] — `Sim | Threaded | Tcp`; [`JoinJob::run`] compiles
//!   the same spec to the simulator, the in-process threaded cluster
//!   or a real TCP-loopback mesh, all returning the same [`RunReport`].
//!
//! The paper's fixed query — equi-join on the key, no payloads — is the
//! spec's default configuration, and runs **bit-identically** to the
//! pre-API direct paths (enforced by the `job_api` equivalence tests).
//! Equality on the key always remains the partitioning predicate, so
//! hash declustering, state movement and the probe engines are
//! untouched by residual predicates and payloads.
//!
//! ```
//! use windjoin_cluster::api::{JoinJob, Runtime};
//! use std::time::Duration;
//!
//! let job = JoinJob::builder()
//!     .runtime(Runtime::Sim)
//!     .slaves(2)
//!     .rate(500.0)
//!     .run(Duration::from_secs(30))
//!     .warmup(Duration::from_secs(5))
//!     .window(Duration::from_secs(5))
//!     .build()
//!     .expect("valid job");
//! let report = job.run().expect("run");
//! assert!(report.outputs_total > 0);
//! ```

use crate::json::{obj, Json};
use crate::nodes::{EngineKind, NodeConfig};
use crate::report::RunReport;
use crate::threadrt::DEFAULT_INBOX_CAPACITY;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use windjoin_core::hash::mix64;
use windjoin_core::{
    ConfigError, OutPair, Params, Residual, ResidualPredicate, ResidualSpec, Side, TuningParams,
};
use windjoin_gen::{merge_streams, KeyDist, MergedStreams, RateSchedule, StreamSpec};
use windjoin_net::TcpNetwork;

// ---------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------

/// One arrival produced by a [`Source`]: a logical tuple plus its
/// payload bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceArrival {
    /// Stream side.
    pub side: Side,
    /// Arrival timestamp, µs since run start.
    pub at_us: u64,
    /// Join-attribute value.
    pub key: u64,
    /// Per-stream sequence number (unique and ascending per side).
    pub seq: u64,
    /// Payload bytes (empty on payload-free runs).
    pub payload: Vec<u8>,
}

/// A stream source: yields the merged, timestamp-ordered arrival
/// sequence of both streams. The master pulls from exactly one source
/// per run, so the arrival sequence — and therefore the output set —
/// is a pure function of the spec and seed.
pub trait Source {
    /// The next arrival, or `None` when the source is exhausted.
    fn next_arrival(&mut self) -> Option<SourceArrival>;
}

/// One pre-recorded tuple of a [`SourceSpec::Replay`] source.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayTuple {
    /// Stream side.
    pub side: Side,
    /// Arrival timestamp, µs since run start.
    pub at_us: u64,
    /// Join-attribute value.
    pub key: u64,
    /// Payload bytes carried by this tuple.
    pub payload: Vec<u8>,
}

/// Serialisable source description.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceSpec {
    /// The classic synthetic workload: two Poisson streams with the
    /// given rate schedule and key distribution, seeded from the job
    /// seed exactly as the pre-API drivers seeded theirs.
    Synthetic {
        /// Per-stream arrival-rate schedule (tuples/s).
        rate: RateSchedule,
        /// Join-attribute distribution.
        keys: KeyDist,
    },
    /// Replays an explicit tuple list (sorted by arrival time;
    /// per-stream sequence numbers are assigned in replay order).
    Replay {
        /// The tuples, shared so cloning a config stays cheap.
        tuples: Arc<Vec<ReplayTuple>>,
    },
}

impl SourceSpec {
    /// A constant-rate synthetic source.
    pub fn synthetic(rate: f64, keys: KeyDist) -> Self {
        SourceSpec::Synthetic { rate: RateSchedule::constant(rate), keys }
    }

    /// A replay source; tuples are sorted by arrival time (stable, so
    /// equal timestamps keep their given order).
    pub fn replay(mut tuples: Vec<ReplayTuple>) -> Self {
        tuples.sort_by_key(|t| t.at_us);
        SourceSpec::Replay { tuples: Arc::new(tuples) }
    }

    /// A replay source drawn from any iterator (payload-free tuples:
    /// `(side, at_us, key)` triples).
    pub fn replay_iter(tuples: impl IntoIterator<Item = (Side, u64, u64)>) -> Self {
        SourceSpec::replay(
            tuples
                .into_iter()
                .map(|(side, at_us, key)| ReplayTuple { side, at_us, key, payload: Vec::new() })
                .collect(),
        )
    }

    /// Opens the source. `seed` feeds the synthetic generators (the
    /// replay source ignores it); `payload_bytes` > 0 makes the
    /// synthetic source attach [`synth_payload`] bytes to every tuple.
    pub fn open(&self, seed: u64, payload_bytes: usize) -> Box<dyn Source + Send> {
        match self {
            SourceSpec::Synthetic { rate, keys } => {
                // Byte-identical to the pre-API drivers' construction.
                let s1 = StreamSpec { rate: rate.clone(), keys: *keys, seed: seed.wrapping_add(1) }
                    .arrivals(0);
                let s2 = StreamSpec { rate: rate.clone(), keys: *keys, seed: seed.wrapping_add(2) }
                    .arrivals(1);
                Box::new(SyntheticSource { gen: merge_streams(vec![s1, s2]), payload_bytes })
            }
            SourceSpec::Replay { tuples } => {
                Box::new(ReplaySource { tuples: Arc::clone(tuples), idx: 0, seqs: [0, 0] })
            }
        }
    }

    /// Materialises every arrival up to `until_us` as `(tuple, payload)`
    /// pairs — how tests and examples compute reference oracles.
    pub fn materialize(
        &self,
        seed: u64,
        payload_bytes: usize,
        until_us: u64,
    ) -> Vec<(windjoin_core::Tuple, Vec<u8>)> {
        let mut src = self.open(seed, payload_bytes);
        let mut out = Vec::new();
        while let Some(a) = src.next_arrival() {
            if a.at_us > until_us {
                break;
            }
            out.push((windjoin_core::Tuple::new(a.side, a.at_us, a.key, a.seq), a.payload));
        }
        out
    }
}

/// Deterministic synthetic payload bytes for one tuple: a splitmix
/// chain over `(side, seq, key)`, so every runtime (and every oracle)
/// derives the identical bytes.
pub fn synth_payload(side: Side, seq: u64, key: u64, width: usize) -> Vec<u8> {
    if width == 0 {
        return Vec::new();
    }
    let mut out = vec![0u8; width];
    let mut x = mix64(key ^ mix64(seq ^ ((side.index() as u64 + 1) << 56)));
    for chunk in out.chunks_mut(8) {
        x = mix64(x);
        let bytes = x.to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }
    out
}

struct SyntheticSource {
    gen: MergedStreams,
    payload_bytes: usize,
}

impl Source for SyntheticSource {
    fn next_arrival(&mut self) -> Option<SourceArrival> {
        let a = self.gen.next()?;
        let side = if a.stream == 0 { Side::Left } else { Side::Right };
        Some(SourceArrival {
            side,
            at_us: a.at_us,
            key: a.key,
            seq: a.seq,
            payload: synth_payload(side, a.seq, a.key, self.payload_bytes),
        })
    }
}

struct ReplaySource {
    tuples: Arc<Vec<ReplayTuple>>,
    idx: usize,
    seqs: [u64; 2],
}

impl Source for ReplaySource {
    fn next_arrival(&mut self) -> Option<SourceArrival> {
        let t = self.tuples.get(self.idx)?;
        self.idx += 1;
        let seq = self.seqs[t.side.index()];
        self.seqs[t.side.index()] += 1;
        Some(SourceArrival {
            side: t.side,
            at_us: t.at_us,
            key: t.key,
            seq,
            payload: t.payload.clone(),
        })
    }
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// How join results are retained in the [`RunReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkSpec {
    /// Count and checksum only (the default; constant memory).
    Count,
    /// Additionally keep every [`OutPair`] in `RunReport::captured`
    /// (small runs and tests).
    Capture,
}

/// A streaming result consumer: receives output pairs **incrementally**
/// as the collector (or the simulator's virtual collector) emits them,
/// instead of only a terminal report. Closures implement it directly.
pub trait Sink: Send + Sync {
    /// One emitted batch of join results, in emission order.
    fn on_outputs(&self, pairs: &[OutPair]);
}

impl<F: Fn(&[OutPair]) + Send + Sync> Sink for F {
    fn on_outputs(&self, pairs: &[OutPair]) {
        self(pairs)
    }
}

/// A cheaply clonable handle to a [`Sink`], attachable to any runtime's
/// config. (Not serialisable — a job file cannot carry a callback.)
#[derive(Clone)]
pub struct StreamingSink(Arc<dyn Sink>);

impl StreamingSink {
    /// Wraps a sink (or a closure — `StreamingSink::new(|pairs| ...)`).
    pub fn new(sink: impl Sink + 'static) -> Self {
        StreamingSink(Arc::new(sink))
    }

    /// Delivers one batch.
    pub fn deliver(&self, pairs: &[OutPair]) {
        if !pairs.is_empty() {
            self.0.on_outputs(pairs);
        }
    }
}

impl fmt::Debug for StreamingSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("StreamingSink(..)")
    }
}

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

/// A cooperative cancellation handle for a running job.
///
/// Clone the token, attach one copy to the job
/// ([`JoinJobBuilder::cancel`]) and keep the other; calling
/// [`CancelToken::cancel`] from any thread makes the master stop
/// ingesting, truncate the horizon to "now" and run its normal
/// deterministic flush — a cancelled job still shuts the cluster down
/// cleanly and reports whatever it produced up to the cancel point.
///
/// Only the real-time runtimes observe the token: the simulator runs
/// in virtual time (a paper-scale run completes in seconds of wall
/// clock), so cancelling a `Runtime::Sim` job is a no-op.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Fires the token. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------
// The job spec
// ---------------------------------------------------------------------

/// Which execution substrate runs the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// The deterministic execution-driven cluster simulator
    /// ([`crate::simrt`]): virtual time, calibrated cost models,
    /// paper-scale horizons in seconds of wall clock. Carries no wire
    /// payloads.
    Sim,
    /// The in-process threaded cluster ([`crate::threadrt`]): one OS
    /// thread per rank over bounded channels, real time, real wire
    /// frames.
    Threaded,
    /// The same node loops over a real TCP-loopback mesh in one
    /// process — the full socket path without multi-process
    /// orchestration. (For one-process-per-rank deployment, feed the
    /// serialised spec to `windjoin-node --job`.)
    Tcp,
}

/// A complete, serialisable description of one join job.
///
/// Construct via [`JoinJob::builder`], or deserialise with
/// [`JobSpec::from_json`]. Defaults ([`JobSpec::demo`]) are the
/// laptop-friendly demo settings of the pre-API drivers.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Execution substrate.
    pub runtime: Runtime,
    /// Protocol parameters (windows, partitions, epochs, θ, ...).
    pub params: Params,
    /// Active slave nodes.
    pub slaves: usize,
    /// Provisioned slaves the adaptive degree-of-declustering may grow
    /// into (`>= slaves`; only the simulator models a larger pool).
    pub total_slaves: usize,
    /// Run horizon, µs.
    pub run_us: u64,
    /// Warm-up discarded from statistics, µs.
    pub warmup_us: u64,
    /// Master seed; everything derives deterministically from it.
    pub seed: u64,
    /// Probe engine.
    pub engine: EngineKind,
    /// Enable §V-A adaptive degree of declustering.
    pub adaptive_dod: bool,
    /// Wire payload width per tuple, bytes (0 = the paper's zero-filled
    /// payload region; > 0 makes payload bytes flow end-to-end).
    pub payload_bytes: usize,
    /// Residual predicate composed with the partitioning equi-join.
    pub residual: ResidualSpec,
    /// Arrival source.
    pub source: SourceSpec,
    /// Result retention.
    pub sink: SinkSpec,
    /// Slave liveness-beacon interval, µs (0 disables; real-time
    /// runtimes only).
    pub heartbeat_us: u64,
    /// Silent beacon intervals before a slave is declared dead (0
    /// disables detection-by-silence).
    pub max_missed: u32,
}

impl JobSpec {
    /// The demo defaults: 5 s windows, 200 ms epochs, 16 partitions,
    /// 500 t/s b-model streams, 6 s run — matching
    /// [`NodeConfig::demo`].
    pub fn demo(slaves: usize) -> Self {
        let node = NodeConfig::demo(slaves);
        JobSpec {
            runtime: Runtime::Threaded,
            params: node.params.clone(),
            slaves,
            total_slaves: slaves,
            run_us: node.run.as_micros() as u64,
            warmup_us: node.warmup.as_micros() as u64,
            seed: node.seed,
            engine: EngineKind::Exact,
            adaptive_dod: false,
            payload_bytes: 0,
            residual: ResidualSpec::Always,
            source: SourceSpec::Synthetic {
                rate: RateSchedule::constant(node.rate),
                keys: node.keys,
            },
            sink: SinkSpec::Count,
            heartbeat_us: node.heartbeat.as_micros() as u64,
            max_missed: node.max_missed,
        }
    }

    /// Validates the spec, including runtime-specific constraints (the
    /// ones the lowered [`NodeConfig`] checks for [`JobSpec::runtime`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.to_node_config().map(drop)
    }

    /// Validates the spec and lowers it to the run description every
    /// runtime reads.
    pub fn to_node_config(&self) -> Result<NodeConfig, ConfigError> {
        if self.residual.needs_payload() && self.payload_bytes == 0 {
            // Without wire payloads the predicate would compare empty
            // byte strings and silently keep (or drop) everything.
            return Err(ConfigError::Unsupported {
                why: "payload-inspecting residual predicates require payload_bytes > 0 \
                      (and a payload-carrying runtime: Threaded or Tcp)"
                    .into(),
            });
        }
        if let SourceSpec::Replay { tuples } = &self.source {
            if !tuples.windows(2).all(|w| w[0].at_us <= w[1].at_us) {
                return Err(ConfigError::Inconsistent {
                    why: "replay tuples must be sorted by at_us (use SourceSpec::replay)".into(),
                });
            }
        }
        let (rate, keys) = match &self.source {
            SourceSpec::Synthetic { rate, keys } => (rate.rate_at(0), *keys),
            SourceSpec::Replay { .. } => (0.0, KeyDist::Constant { key: 0 }),
        };
        let cfg = NodeConfig {
            params: self.params.clone(),
            slaves: self.slaves,
            total_slaves: self.total_slaves,
            masters: 1,
            rate,
            keys,
            seed: self.seed,
            run: Duration::from_micros(self.run_us),
            warmup: Duration::from_micros(self.warmup_us),
            adaptive_dod: self.adaptive_dod,
            adaptive_epoch: None,
            capture_outputs: self.sink == SinkSpec::Capture,
            heartbeat: Duration::from_micros(self.heartbeat_us),
            max_missed: self.max_missed,
            checkpoint_every: 0,
            chaos: Vec::new(),
            chaos_master: None,
            engine: self.engine,
            payload_bytes: self.payload_bytes,
            residual: Residual::Spec(self.residual),
            source: Some(self.source.clone()),
            sink: None,
            cancel: None,
        };
        cfg.validate(self.runtime)?;
        Ok(cfg)
    }
}

// ---------------------------------------------------------------------
// JoinJob + builder
// ---------------------------------------------------------------------

/// A runnable join job: a [`JobSpec`] plus optional non-serialisable
/// attachments (custom residual predicate, streaming sink).
#[derive(Debug, Clone)]
pub struct JoinJob {
    /// The serialisable description.
    pub spec: JobSpec,
    custom_residual: Option<Residual>,
    streaming: Option<StreamingSink>,
    cancel: Option<CancelToken>,
}

impl JoinJob {
    /// Starts a builder with the demo defaults.
    pub fn builder() -> JoinJobBuilder {
        JoinJobBuilder::default()
    }

    /// A job wrapping an existing spec (no attachments).
    pub fn from_spec(spec: JobSpec) -> Result<JoinJob, ConfigError> {
        spec.validate()?;
        Ok(JoinJob { spec, custom_residual: None, streaming: None, cancel: None })
    }

    /// The residual predicate in effect (custom overrides spec).
    pub fn residual(&self) -> Residual {
        self.custom_residual.clone().unwrap_or(Residual::Spec(self.spec.residual))
    }

    /// The attached streaming sink, if any.
    pub fn streaming(&self) -> Option<&StreamingSink> {
        self.streaming.as_ref()
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Attaches (or replaces) a streaming sink on an existing job —
    /// how a service wires an already-validated spec to a live client.
    pub fn with_streaming(mut self, sink: impl Sink + 'static) -> JoinJob {
        self.streaming = Some(StreamingSink::new(sink));
        self
    }

    /// Attaches (or replaces) a cancellation token on an existing job.
    pub fn with_cancel(mut self, token: CancelToken) -> JoinJob {
        self.cancel = Some(token);
        self
    }

    /// Runs the job on its selected [`Runtime`], blocking until the
    /// unified [`RunReport`] is ready.
    pub fn run(&self) -> Result<RunReport, RunError> {
        match self.spec.runtime {
            Runtime::Sim => Ok(crate::simrt::run_sim(&self.node_config()?)),
            Runtime::Threaded => Ok(crate::threadrt::run_threaded(&self.node_config()?)),
            // A full TCP-loopback mesh on kernel-assigned ports, one
            // thread per rank, real sockets.
            Runtime::Tcp => {
                let cfg = self.node_config()?;
                let net = TcpNetwork::loopback(cfg.ranks(), DEFAULT_INBOX_CAPACITY)?;
                Ok(crate::threadrt::run_on_transport(&cfg, net))
            }
        }
    }

    /// The spec as a run description, attachments included.
    fn node_config(&self) -> Result<NodeConfig, ConfigError> {
        let mut cfg = self.spec.to_node_config()?;
        cfg.residual = self.residual();
        cfg.sink = self.streaming.clone();
        cfg.cancel = self.cancel.clone();
        Ok(cfg)
    }
}

/// Why a job run failed to start or complete.
#[derive(Debug)]
pub enum RunError {
    /// The spec (or its runtime mapping) is invalid.
    Config(ConfigError),
    /// The runtime's transport failed (TCP mesh establishment).
    Io(std::io::Error),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "{e}"),
            RunError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Io(e)
    }
}

/// Builder for [`JoinJob`] — see [`JoinJob::builder`].
#[derive(Debug, Clone)]
pub struct JoinJobBuilder {
    spec: JobSpec,
    /// Whether [`engine`](Self::engine) was called: otherwise `build`
    /// applies the runtime's historical default (`Counted` on the
    /// simulator — tractable at paper scale — `Exact` elsewhere).
    engine_set: bool,
    custom_residual: Option<Residual>,
    streaming: Option<StreamingSink>,
    cancel: Option<CancelToken>,
}

impl Default for JoinJobBuilder {
    fn default() -> Self {
        JoinJobBuilder {
            spec: JobSpec::demo(2),
            engine_set: false,
            custom_residual: None,
            streaming: None,
            cancel: None,
        }
    }
}

impl JoinJobBuilder {
    /// Selects the execution substrate (default: `Threaded`).
    pub fn runtime(mut self, rt: Runtime) -> Self {
        self.spec.runtime = rt;
        self
    }

    /// Sets the number of active slaves (keeps `total_slaves` in step
    /// unless it was raised explicitly).
    pub fn slaves(mut self, n: usize) -> Self {
        if self.spec.total_slaves == self.spec.slaves {
            self.spec.total_slaves = n;
        }
        self.spec.slaves = n;
        self
    }

    /// Provisioned slave pool for adaptive growth (simulator only).
    pub fn total_slaves(mut self, n: usize) -> Self {
        self.spec.total_slaves = n;
        self
    }

    /// Replaces the protocol parameters wholesale.
    pub fn params(mut self, params: Params) -> Self {
        self.spec.params = params;
        self
    }

    /// Sets both sliding windows.
    pub fn window(mut self, w: Duration) -> Self {
        self.spec.params.sem.w_left_us = w.as_micros() as u64;
        self.spec.params.sem.w_right_us = w.as_micros() as u64;
        self
    }

    /// Sets the distribution epoch `t_d` (and the default expiry lag).
    pub fn dist_epoch(mut self, e: Duration) -> Self {
        self.spec.params = self.spec.params.with_dist_epoch_us(e.as_micros() as u64);
        self
    }

    /// Sets the reorganization epoch `t_r`.
    pub fn reorg_epoch(mut self, e: Duration) -> Self {
        self.spec.params.reorg_epoch_us = e.as_micros() as u64;
        self
    }

    /// Sets the number of hash partitions.
    pub fn npart(mut self, n: u32) -> Self {
        self.spec.params.npart = n;
        self
    }

    /// Constant per-stream arrival rate (tuples/s) for the synthetic
    /// source; keeps the current key distribution.
    pub fn rate(mut self, rate: f64) -> Self {
        let keys = match &self.spec.source {
            SourceSpec::Synthetic { keys, .. } => *keys,
            SourceSpec::Replay { .. } => KeyDist::paper_default(),
        };
        self.spec.source = SourceSpec::Synthetic { rate: RateSchedule::constant(rate), keys };
        self
    }

    /// Full rate schedule for the synthetic source.
    pub fn rate_schedule(mut self, rate: RateSchedule) -> Self {
        let keys = match &self.spec.source {
            SourceSpec::Synthetic { keys, .. } => *keys,
            SourceSpec::Replay { .. } => KeyDist::paper_default(),
        };
        self.spec.source = SourceSpec::Synthetic { rate, keys };
        self
    }

    /// Key distribution for the synthetic source.
    pub fn keys(mut self, keys: KeyDist) -> Self {
        let rate = match &self.spec.source {
            SourceSpec::Synthetic { rate, .. } => rate.clone(),
            SourceSpec::Replay { .. } => RateSchedule::constant(500.0),
        };
        self.spec.source = SourceSpec::Synthetic { rate, keys };
        self
    }

    /// Replaces the source wholesale.
    pub fn source(mut self, source: SourceSpec) -> Self {
        self.spec.source = source;
        self
    }

    /// Shorthand for a replay source.
    pub fn replay(self, tuples: Vec<ReplayTuple>) -> Self {
        self.source(SourceSpec::replay(tuples))
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Sets the run horizon.
    pub fn run(mut self, d: Duration) -> Self {
        self.spec.run_us = d.as_micros() as u64;
        self
    }

    /// Sets the statistics warm-up.
    pub fn warmup(mut self, d: Duration) -> Self {
        self.spec.warmup_us = d.as_micros() as u64;
        self
    }

    /// Selects the probe engine. Unset, the runtime's historical
    /// default applies: `Counted` on `Runtime::Sim`, `Exact` on the
    /// real-time runtimes.
    pub fn engine(mut self, e: EngineKind) -> Self {
        self.spec.engine = e;
        self.engine_set = true;
        self
    }

    /// Enables §V-A adaptive degree of declustering.
    pub fn adaptive_dod(mut self, on: bool) -> Self {
        self.spec.adaptive_dod = on;
        self
    }

    /// Sets the wire payload width per tuple (bytes).
    pub fn payload_bytes(mut self, w: usize) -> Self {
        self.spec.payload_bytes = w;
        self
    }

    /// Sets a built-in residual predicate.
    pub fn residual(mut self, r: ResidualSpec) -> Self {
        self.spec.residual = r;
        self.custom_residual = None;
        self
    }

    /// Attaches a custom residual predicate (takes precedence over the
    /// spec's built-in one; not serialisable).
    pub fn residual_custom(mut self, p: impl ResidualPredicate + 'static) -> Self {
        self.custom_residual = Some(Residual::custom(p));
        self
    }

    /// Selects result retention.
    pub fn sink(mut self, s: SinkSpec) -> Self {
        self.spec.sink = s;
        self
    }

    /// Attaches a streaming sink receiving output pairs incrementally
    /// (closures work: `.streaming(|pairs| ...)`).
    pub fn streaming(mut self, sink: impl Sink + 'static) -> Self {
        self.streaming = Some(StreamingSink::new(sink));
        self
    }

    /// Sets the slave heartbeat interval (0 disables beaconing).
    pub fn heartbeat(mut self, h: Duration) -> Self {
        self.spec.heartbeat_us = h.as_micros() as u64;
        self
    }

    /// Sets the missed-beacon death threshold (0 disables).
    pub fn max_missed(mut self, n: u32) -> Self {
        self.spec.max_missed = n;
        self
    }

    /// Attaches a cancellation token: firing it mid-run makes the
    /// master truncate the horizon and flush cleanly (real-time
    /// runtimes; the simulator ignores it). Keep a clone to fire.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Validates and produces the job.
    pub fn build(mut self) -> Result<JoinJob, ConfigError> {
        if !self.engine_set {
            self.spec.engine = match self.spec.runtime {
                Runtime::Sim => EngineKind::Counted,
                Runtime::Threaded | Runtime::Tcp => EngineKind::Exact,
            };
        }
        self.spec.validate()?;
        Ok(JoinJob {
            spec: self.spec,
            custom_residual: self.custom_residual,
            streaming: self.streaming,
            cancel: self.cancel,
        })
    }
}

// ---------------------------------------------------------------------
// JSON (de)serialisation
// ---------------------------------------------------------------------

/// Why a job file failed to load.
#[derive(Debug)]
pub enum JobFileError {
    /// The bytes are not valid JSON.
    Json(crate::json::JsonError),
    /// The JSON is valid but not a job spec.
    Field(String),
    /// The spec parsed but failed validation.
    Config(ConfigError),
}

impl fmt::Display for JobFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobFileError::Json(e) => write!(f, "{e}"),
            JobFileError::Field(why) => write!(f, "bad job spec: {why}"),
            JobFileError::Config(e) => write!(f, "invalid job spec: {e}"),
        }
    }
}

impl std::error::Error for JobFileError {}

fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(s: &str) -> Result<Vec<u8>, JobFileError> {
    if !s.len().is_multiple_of(2) || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(JobFileError::Field(format!("bad payload hex {s:?}")));
    }
    Ok((0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("checked hex"))
        .collect())
}

fn side_name(s: Side) -> &'static str {
    match s {
        Side::Left => "left",
        Side::Right => "right",
    }
}

fn keys_to_json(k: &KeyDist) -> Json {
    match *k {
        KeyDist::Uniform { domain } => {
            obj(vec![("kind", Json::Str("uniform".into())), ("domain", Json::U64(domain))])
        }
        KeyDist::BModel { bias, domain } => obj(vec![
            ("kind", Json::Str("bmodel".into())),
            ("bias", Json::F64(bias)),
            ("domain", Json::U64(domain)),
        ]),
        KeyDist::Zipf { s, domain } => obj(vec![
            ("kind", Json::Str("zipf".into())),
            ("s", Json::F64(s)),
            ("domain", Json::U64(domain)),
        ]),
        KeyDist::Constant { key } => {
            obj(vec![("kind", Json::Str("constant".into())), ("key", Json::U64(key))])
        }
    }
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, JobFileError> {
    v.get(key).ok_or_else(|| JobFileError::Field(format!("missing field {key:?}")))
}

fn get_u64(v: &Json, key: &str) -> Result<u64, JobFileError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| JobFileError::Field(format!("{key:?} must be a non-negative integer")))
}

fn get_f64(v: &Json, key: &str) -> Result<f64, JobFileError> {
    field(v, key)?.as_f64().ok_or_else(|| JobFileError::Field(format!("{key:?} must be a number")))
}

fn get_bool(v: &Json, key: &str) -> Result<bool, JobFileError> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| JobFileError::Field(format!("{key:?} must be a boolean")))
}

fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, JobFileError> {
    field(v, key)?.as_str().ok_or_else(|| JobFileError::Field(format!("{key:?} must be a string")))
}

/// Rejects unknown object fields: a typo in a hand-edited job file
/// (`"slave"` for `"slaves"`) must be an error, not a silently ignored
/// key that leaves the default in place.
fn check_known(v: &Json, ctx: &str, known: &[&str]) -> Result<(), JobFileError> {
    if let Json::Obj(fields) = v {
        for (k, _) in fields {
            if !known.contains(&k.as_str()) {
                return Err(JobFileError::Field(format!("unknown field {k:?} in {ctx}")));
            }
        }
    }
    Ok(())
}

fn keys_from_json(v: &Json) -> Result<KeyDist, JobFileError> {
    match get_str(v, "kind")? {
        "uniform" => {
            check_known(v, "keys", &["kind", "domain"])?;
            Ok(KeyDist::Uniform { domain: get_u64(v, "domain")? })
        }
        "bmodel" => {
            check_known(v, "keys", &["kind", "bias", "domain"])?;
            Ok(KeyDist::BModel { bias: get_f64(v, "bias")?, domain: get_u64(v, "domain")? })
        }
        "zipf" => {
            check_known(v, "keys", &["kind", "s", "domain"])?;
            Ok(KeyDist::Zipf { s: get_f64(v, "s")?, domain: get_u64(v, "domain")? })
        }
        "constant" => {
            check_known(v, "keys", &["kind", "key"])?;
            Ok(KeyDist::Constant { key: get_u64(v, "key")? })
        }
        other => Err(JobFileError::Field(format!("unknown key distribution {other:?}"))),
    }
}

impl JobSpec {
    /// Serialises the spec as a self-contained JSON document — the
    /// format `windjoin-node --job` / `windjoin-launch --job` consume.
    pub fn to_json(&self) -> String {
        let p = &self.params;
        let tuning = match &p.tuning {
            None => Json::Null,
            Some(t) => obj(vec![
                ("theta_blocks", Json::U64(t.theta_blocks as u64)),
                ("max_depth", Json::U64(t.max_depth as u64)),
            ]),
        };
        let params = obj(vec![
            ("w_left_us", Json::U64(p.sem.w_left_us)),
            ("w_right_us", Json::U64(p.sem.w_right_us)),
            ("npart", Json::U64(p.npart as u64)),
            ("tuple_bytes", Json::U64(p.tuple_bytes as u64)),
            ("block_bytes", Json::U64(p.block_bytes as u64)),
            ("tuning", tuning),
            ("dist_epoch_us", Json::U64(p.dist_epoch_us)),
            ("reorg_epoch_us", Json::U64(p.reorg_epoch_us)),
            ("slave_buffer_bytes", Json::U64(p.slave_buffer_bytes as u64)),
            ("th_con", Json::F64(p.th_con)),
            ("th_sup", Json::F64(p.th_sup)),
            ("beta", Json::F64(p.beta)),
            ("ng", Json::U64(p.ng as u64)),
            ("expiry_lag_us", Json::U64(p.expiry_lag_us)),
        ]);
        let residual = match self.residual {
            ResidualSpec::Always => obj(vec![("kind", Json::Str("always".into()))]),
            ResidualSpec::TimeBand { max_dt_us } => obj(vec![
                ("kind", Json::Str("time_band".into())),
                ("max_dt_us", Json::U64(max_dt_us)),
            ]),
            ResidualSpec::PayloadEquals => obj(vec![("kind", Json::Str("payload_equals".into()))]),
            ResidualSpec::PayloadBandU64 { max_delta } => obj(vec![
                ("kind", Json::Str("payload_band_u64".into())),
                ("max_delta", Json::U64(max_delta)),
            ]),
        };
        let source = match &self.source {
            SourceSpec::Synthetic { rate, keys } => obj(vec![
                ("kind", Json::Str("synthetic".into())),
                (
                    "rate",
                    Json::Arr(
                        rate.as_steps()
                            .iter()
                            .map(|&(t, r)| Json::Arr(vec![Json::U64(t), Json::F64(r)]))
                            .collect(),
                    ),
                ),
                ("keys", keys_to_json(keys)),
            ]),
            SourceSpec::Replay { tuples } => obj(vec![
                ("kind", Json::Str("replay".into())),
                (
                    "tuples",
                    Json::Arr(
                        tuples
                            .iter()
                            .map(|t| {
                                obj(vec![
                                    ("side", Json::Str(side_name(t.side).into())),
                                    ("at_us", Json::U64(t.at_us)),
                                    ("key", Json::U64(t.key)),
                                    ("payload_hex", Json::Str(hex_encode(&t.payload))),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        obj(vec![
            ("schema", Json::Str("windjoin-job/1".into())),
            (
                "runtime",
                Json::Str(
                    match self.runtime {
                        Runtime::Sim => "sim",
                        Runtime::Threaded => "threaded",
                        Runtime::Tcp => "tcp",
                    }
                    .into(),
                ),
            ),
            ("slaves", Json::U64(self.slaves as u64)),
            ("total_slaves", Json::U64(self.total_slaves as u64)),
            ("run_us", Json::U64(self.run_us)),
            ("warmup_us", Json::U64(self.warmup_us)),
            ("seed", Json::U64(self.seed)),
            (
                "engine",
                Json::Str(
                    match self.engine {
                        EngineKind::Exact => "exact",
                        EngineKind::Counted => "counted",
                    }
                    .into(),
                ),
            ),
            ("adaptive_dod", Json::Bool(self.adaptive_dod)),
            ("payload_bytes", Json::U64(self.payload_bytes as u64)),
            ("residual", residual),
            ("source", source),
            (
                "sink",
                Json::Str(
                    match self.sink {
                        SinkSpec::Count => "count",
                        SinkSpec::Capture => "capture",
                    }
                    .into(),
                ),
            ),
            ("heartbeat_us", Json::U64(self.heartbeat_us)),
            ("max_missed", Json::U64(self.max_missed as u64)),
            ("params", params),
        ])
        .to_text()
    }

    /// Parses and validates a job file produced by [`JobSpec::to_json`]
    /// (or written by hand). Unknown fields are rejected — a typo never
    /// silently falls back to a default.
    pub fn from_json(text: &str) -> Result<JobSpec, JobFileError> {
        let v = Json::parse(text).map_err(JobFileError::Json)?;
        match v.get("schema").and_then(Json::as_str) {
            Some("windjoin-job/1") => {}
            other => {
                return Err(JobFileError::Field(format!(
                    "unknown schema {other:?} (expected \"windjoin-job/1\")"
                )))
            }
        }
        check_known(
            &v,
            "job",
            &[
                "schema",
                "runtime",
                "slaves",
                "total_slaves",
                "run_us",
                "warmup_us",
                "seed",
                "engine",
                "adaptive_dod",
                "payload_bytes",
                "residual",
                "source",
                "sink",
                "heartbeat_us",
                "max_missed",
                "params",
            ],
        )?;
        let pj = field(&v, "params")?;
        check_known(
            pj,
            "params",
            &[
                "w_left_us",
                "w_right_us",
                "npart",
                "tuple_bytes",
                "block_bytes",
                "tuning",
                "dist_epoch_us",
                "reorg_epoch_us",
                "slave_buffer_bytes",
                "th_con",
                "th_sup",
                "beta",
                "ng",
                "expiry_lag_us",
            ],
        )?;
        let tuning = match field(pj, "tuning")? {
            Json::Null => None,
            t => {
                check_known(t, "tuning", &["theta_blocks", "max_depth"])?;
                Some(TuningParams {
                    theta_blocks: get_u64(t, "theta_blocks")? as usize,
                    max_depth: get_u64(t, "max_depth")? as u8,
                })
            }
        };
        let params = Params {
            sem: windjoin_core::JoinSemantics {
                w_left_us: get_u64(pj, "w_left_us")?,
                w_right_us: get_u64(pj, "w_right_us")?,
            },
            npart: get_u64(pj, "npart")? as u32,
            tuple_bytes: get_u64(pj, "tuple_bytes")? as usize,
            block_bytes: get_u64(pj, "block_bytes")? as usize,
            tuning,
            dist_epoch_us: get_u64(pj, "dist_epoch_us")?,
            reorg_epoch_us: get_u64(pj, "reorg_epoch_us")?,
            slave_buffer_bytes: get_u64(pj, "slave_buffer_bytes")? as usize,
            th_con: get_f64(pj, "th_con")?,
            th_sup: get_f64(pj, "th_sup")?,
            beta: get_f64(pj, "beta")?,
            ng: get_u64(pj, "ng")? as u32,
            expiry_lag_us: get_u64(pj, "expiry_lag_us")?,
        };
        let runtime = match get_str(&v, "runtime")? {
            "sim" => Runtime::Sim,
            "threaded" => Runtime::Threaded,
            "tcp" => Runtime::Tcp,
            other => return Err(JobFileError::Field(format!("unknown runtime {other:?}"))),
        };
        let engine = match get_str(&v, "engine")? {
            "exact" => EngineKind::Exact,
            "counted" => EngineKind::Counted,
            other => {
                return Err(JobFileError::Field(format!(
                    "unknown engine {other:?} (expected exact | counted)"
                )))
            }
        };
        let sink = match get_str(&v, "sink")? {
            "count" => SinkSpec::Count,
            "capture" => SinkSpec::Capture,
            other => return Err(JobFileError::Field(format!("unknown sink {other:?}"))),
        };
        let rj = field(&v, "residual")?;
        let residual = match get_str(rj, "kind")? {
            "always" => {
                check_known(rj, "residual", &["kind"])?;
                ResidualSpec::Always
            }
            "time_band" => {
                check_known(rj, "residual", &["kind", "max_dt_us"])?;
                ResidualSpec::TimeBand { max_dt_us: get_u64(rj, "max_dt_us")? }
            }
            "payload_equals" => {
                check_known(rj, "residual", &["kind"])?;
                ResidualSpec::PayloadEquals
            }
            "payload_band_u64" => {
                check_known(rj, "residual", &["kind", "max_delta"])?;
                ResidualSpec::PayloadBandU64 { max_delta: get_u64(rj, "max_delta")? }
            }
            other => return Err(JobFileError::Field(format!("unknown residual {other:?}"))),
        };
        let sj = field(&v, "source")?;
        let source = match get_str(sj, "kind")? {
            "synthetic" => {
                check_known(sj, "source", &["kind", "rate", "keys"])?;
                let steps = field(sj, "rate")?
                    .as_arr()
                    .ok_or_else(|| JobFileError::Field("\"rate\" must be an array".into()))?
                    .iter()
                    .map(|step| {
                        let pair = step.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                            JobFileError::Field("rate steps must be [from_us, rate]".into())
                        })?;
                        Ok((
                            pair[0].as_u64().ok_or_else(|| {
                                JobFileError::Field("rate step time must be an integer".into())
                            })?,
                            pair[1].as_f64().ok_or_else(|| {
                                JobFileError::Field("rate step rate must be a number".into())
                            })?,
                        ))
                    })
                    .collect::<Result<Vec<_>, JobFileError>>()?;
                // Check the schedule shape here: `RateSchedule::steps`
                // asserts on malformed input, and a hand-edited job
                // file must fail with a clean error, not a panic.
                if steps.is_empty() {
                    return Err(JobFileError::Field("rate schedule must be non-empty".into()));
                }
                if steps[0].0 != 0 {
                    return Err(JobFileError::Field("rate schedule must start at t=0".into()));
                }
                if !steps.windows(2).all(|w| w[0].0 < w[1].0) {
                    return Err(JobFileError::Field(
                        "rate steps must be strictly increasing in time".into(),
                    ));
                }
                if !steps.iter().all(|&(_, r)| r.is_finite() && r >= 0.0) {
                    return Err(JobFileError::Field("rates must be finite and >= 0".into()));
                }
                SourceSpec::Synthetic {
                    rate: RateSchedule::steps(steps),
                    keys: keys_from_json(field(sj, "keys")?)?,
                }
            }
            "replay" => {
                check_known(sj, "source", &["kind", "tuples"])?;
                let tuples = field(sj, "tuples")?
                    .as_arr()
                    .ok_or_else(|| JobFileError::Field("\"tuples\" must be an array".into()))?
                    .iter()
                    .map(|t| {
                        check_known(t, "replay tuple", &["side", "at_us", "key", "payload_hex"])?;
                        let side = match get_str(t, "side")? {
                            "left" => Side::Left,
                            "right" => Side::Right,
                            other => {
                                return Err(JobFileError::Field(format!("unknown side {other:?}")))
                            }
                        };
                        Ok(ReplayTuple {
                            side,
                            at_us: get_u64(t, "at_us")?,
                            key: get_u64(t, "key")?,
                            payload: hex_decode(get_str(t, "payload_hex")?)?,
                        })
                    })
                    .collect::<Result<Vec<_>, JobFileError>>()?;
                SourceSpec::replay(tuples)
            }
            other => return Err(JobFileError::Field(format!("unknown source {other:?}"))),
        };
        let spec = JobSpec {
            runtime,
            params,
            slaves: get_u64(&v, "slaves")? as usize,
            total_slaves: get_u64(&v, "total_slaves")? as usize,
            run_us: get_u64(&v, "run_us")?,
            warmup_us: get_u64(&v, "warmup_us")?,
            seed: get_u64(&v, "seed")?,
            engine,
            adaptive_dod: get_bool(&v, "adaptive_dod")?,
            payload_bytes: get_u64(&v, "payload_bytes")? as usize,
            residual,
            source,
            sink,
            heartbeat_us: get_u64(&v, "heartbeat_us")?,
            max_missed: get_u64(&v, "max_missed")? as u32,
        };
        spec.validate().map_err(JobFileError::Config)?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_spec_validates_and_roundtrips_json() {
        let spec = JobSpec::demo(3);
        spec.validate().unwrap();
        let text = spec.to_json();
        let again = JobSpec::from_json(&text).expect("roundtrip");
        assert_eq!(spec, again);
    }

    #[test]
    fn exotic_spec_roundtrips_json() {
        let mut spec = JobSpec::demo(2);
        spec.runtime = Runtime::Tcp;
        spec.engine = EngineKind::Counted;
        spec.sink = SinkSpec::Capture;
        spec.payload_bytes = 12;
        spec.seed = u64::MAX; // must survive losslessly
        spec.residual = ResidualSpec::PayloadBandU64 { max_delta: 250 };
        spec.source = SourceSpec::replay(vec![
            ReplayTuple { side: Side::Right, at_us: 70, key: 1, payload: vec![0xde, 0xad] },
            ReplayTuple { side: Side::Left, at_us: 50, key: 1, payload: vec![] },
        ]);
        spec.params.tuning = None;
        let again = JobSpec::from_json(&spec.to_json()).expect("roundtrip");
        assert_eq!(spec, again);
        assert_eq!(again.seed, u64::MAX);
        // replay() sorted by at_us.
        if let SourceSpec::Replay { tuples } = &again.source {
            assert_eq!(tuples[0].at_us, 50);
            assert_eq!(tuples[1].payload, vec![0xde, 0xad]);
        } else {
            panic!("expected replay source");
        }
    }

    #[test]
    fn builder_rejects_nonsense() {
        assert!(matches!(
            JoinJob::builder().slaves(0).build(),
            Err(ConfigError::NonPositive { field: "slaves" })
        ));
        assert!(JoinJob::builder().warmup(Duration::from_secs(60)).build().is_err());
        // Payloads on the simulator are rejected at build time.
        let e = JoinJob::builder().runtime(Runtime::Sim).payload_bytes(8).build().unwrap_err();
        assert!(matches!(e, ConfigError::Unsupported { .. }));
        let e = JoinJob::builder()
            .runtime(Runtime::Sim)
            .residual(ResidualSpec::PayloadEquals)
            .build()
            .unwrap_err();
        assert!(matches!(e, ConfigError::Unsupported { .. }));
        // A payload-inspecting residual without wire payloads would
        // silently compare empty byte strings — rejected everywhere.
        for rt in [Runtime::Threaded, Runtime::Tcp] {
            let e = JoinJob::builder()
                .runtime(rt)
                .residual(ResidualSpec::PayloadBandU64 { max_delta: 1 })
                .build()
                .unwrap_err();
            assert!(matches!(e, ConfigError::Unsupported { .. }), "{rt:?}");
        }
        assert!(JoinJob::builder()
            .runtime(Runtime::Threaded)
            .payload_bytes(8)
            .residual(ResidualSpec::PayloadBandU64 { max_delta: 1 })
            .build()
            .is_ok());
        // Spare slaves only exist in the simulator.
        assert!(JoinJob::builder().runtime(Runtime::Threaded).total_slaves(9).build().is_err());
        assert!(JoinJob::builder().runtime(Runtime::Sim).total_slaves(9).build().is_ok());
    }

    #[test]
    fn bad_job_files_fail_cleanly() {
        assert!(matches!(JobSpec::from_json("{nope"), Err(JobFileError::Json(_))));
        assert!(matches!(JobSpec::from_json("{}"), Err(JobFileError::Field(_))));
        let mut spec = JobSpec::demo(2);
        spec.params.npart = 0;
        assert!(matches!(JobSpec::from_json(&spec.to_json()), Err(JobFileError::Config(_))));
        // Malformed rate schedules must be a clean error, not the
        // `RateSchedule::steps` assert (a hand-edited file hits this).
        let good = JobSpec::demo(2).to_json();
        for (bad_rate, why) in [
            ("[[100,500.0]]", "must start at t=0"),
            ("[[0,500.0],[0,900.0]]", "strictly increasing"),
            ("[[0,-5.0]]", "finite and >= 0"),
            ("[]", "non-empty"),
        ] {
            let text = good.replace("\"rate\":[[0,500.0]]", &format!("\"rate\":{bad_rate}"));
            assert_ne!(text, good, "replacement must hit");
            match JobSpec::from_json(&text) {
                Err(JobFileError::Field(msg)) => {
                    assert!(msg.contains(why), "{bad_rate}: {msg}")
                }
                other => panic!("{bad_rate}: expected a Field error, got {other:?}"),
            }
        }
        // A field no release reads any more is refused like a typo, and
        // the reference engine is no runtime choice.
        let stale = good.replace("\"ng\":1,", "\"ng\":1,\"probe_threads\":2,");
        assert_ne!(stale, good, "replacement must hit");
        match JobSpec::from_json(&stale) {
            Err(JobFileError::Field(msg)) => assert!(msg.contains("\"probe_threads\""), "{msg}"),
            other => panic!("expected an unknown-field error, got {other:?}"),
        }
        let scalar = good.replace("\"engine\":\"exact\"", "\"engine\":\"scalar\"");
        assert_ne!(scalar, good, "replacement must hit");
        match JobSpec::from_json(&scalar) {
            Err(JobFileError::Field(msg)) => assert!(msg.contains("exact | counted"), "{msg}"),
            other => panic!("expected an unknown-engine error, got {other:?}"),
        }
    }

    #[test]
    fn engine_defaults_follow_the_runtime() {
        // Unset, each runtime keeps its historical default engine...
        let sim = JoinJob::builder().runtime(Runtime::Sim).build().unwrap();
        assert_eq!(sim.spec.engine, EngineKind::Counted);
        for rt in [Runtime::Threaded, Runtime::Tcp] {
            assert_eq!(
                JoinJob::builder().runtime(rt).build().unwrap().spec.engine,
                EngineKind::Exact
            );
        }
        // ...and an explicit choice wins regardless of call order.
        let job =
            JoinJob::builder().engine(EngineKind::Exact).runtime(Runtime::Sim).build().unwrap();
        assert_eq!(job.spec.engine, EngineKind::Exact);
    }

    #[test]
    fn synthetic_source_matches_legacy_generator_exactly() {
        let node = NodeConfig::demo(2);
        let spec =
            SourceSpec::Synthetic { rate: RateSchedule::constant(node.rate), keys: node.keys };
        let mut src = spec.open(node.seed, 0);
        // The construction the pre-API master used, verbatim.
        let s1 = StreamSpec {
            rate: RateSchedule::constant(node.rate),
            keys: node.keys,
            seed: node.seed.wrapping_add(1),
        }
        .arrivals(0);
        let s2 = StreamSpec {
            rate: RateSchedule::constant(node.rate),
            keys: node.keys,
            seed: node.seed.wrapping_add(2),
        }
        .arrivals(1);
        let mut legacy = merge_streams(vec![s1, s2]);
        for _ in 0..2000 {
            let a = src.next_arrival().expect("infinite");
            let l = legacy.next().expect("infinite");
            assert_eq!(
                (a.at_us, a.key, a.seq, a.side.index() as u8),
                (l.at_us, l.key, l.seq, l.stream)
            );
            assert!(a.payload.is_empty());
        }
    }

    #[test]
    fn replay_iter_builds_a_sorted_replay_source() {
        let spec = SourceSpec::replay_iter([(Side::Right, 20, 5), (Side::Left, 10, 5)]);
        let all = spec.materialize(0, 0, u64::MAX);
        assert_eq!(all.len(), 2);
        assert_eq!((all[0].0.side, all[0].0.t), (Side::Left, 10));
        assert!(all.iter().all(|(_, p)| p.is_empty()));
    }

    #[test]
    fn replay_source_assigns_per_stream_seqs() {
        let spec = SourceSpec::replay(vec![
            ReplayTuple { side: Side::Left, at_us: 30, key: 3, payload: vec![3] },
            ReplayTuple { side: Side::Left, at_us: 10, key: 1, payload: vec![1] },
            ReplayTuple { side: Side::Right, at_us: 20, key: 2, payload: vec![2] },
        ]);
        let all = spec.materialize(0, 0, u64::MAX);
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].0.t, 10);
        assert_eq!((all[0].0.side, all[0].0.seq), (Side::Left, 0));
        assert_eq!((all[1].0.side, all[1].0.seq), (Side::Right, 0));
        assert_eq!((all[2].0.side, all[2].0.seq), (Side::Left, 1));
        assert_eq!(all[2].1, vec![3]);
    }

    #[test]
    fn synth_payload_is_deterministic_and_sized() {
        assert!(synth_payload(Side::Left, 0, 0, 0).is_empty());
        let a = synth_payload(Side::Left, 7, 42, 13);
        assert_eq!(a.len(), 13);
        assert_eq!(a, synth_payload(Side::Left, 7, 42, 13));
        assert_ne!(a, synth_payload(Side::Right, 7, 42, 13));
        assert_ne!(a[..8], synth_payload(Side::Left, 8, 42, 13)[..8]);
    }

    #[test]
    fn streaming_sink_wraps_closures() {
        use std::sync::Mutex;
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let sink = StreamingSink::new(move |pairs: &[OutPair]| {
            seen2.lock().unwrap().extend(pairs.iter().map(|p| p.key));
        });
        sink.deliver(&[OutPair { key: 9, left: (1, 2), right: (3, 4) }]);
        sink.deliver(&[]);
        assert_eq!(*seen.lock().unwrap(), vec![9]);
    }
}
