//! `windjoin-serve` — a long-running multi-query join service.
//!
//! The ROADMAP's north star is *serving*: many clients, many concurrent
//! queries, one cluster substrate. This module supplies the service
//! layer on top of the job API: a [`Server`] accepts job submissions
//! over the wire (SQL text via [`crate::sql`], or serialised
//! [`JobSpec`] JSON), runs each admitted job as a concurrent
//! [`JoinJob`] — every job owns its slave pool and partition space, so
//! jobs are isolated by construction — and streams each job's
//! [`OutPair`]s back to its client incrementally through the
//! [`Sink`](crate::api::Sink) trait, followed by a digest of the
//! unified [`RunReport`] on completion.
//!
//! An **admission controller** bounds the service: at most
//! [`AdmissionLimits::max_jobs`] concurrent jobs and
//! [`AdmissionLimits::max_partitions`] total hash partitions across
//! them; a submission over either budget gets a typed
//! [`RejectReason::Admission`] instead of degrading every running job.
//!
//! ## Wire protocol
//!
//! Length-prefixed frames through the cluster transport's own codec,
//! [`windjoin_net::tcp`] (`[len: u32 LE][payload]`, same
//! `MAX_FRAME_BYTES` cap, same reader and writer); the payload
//! is a kind byte plus fields (integers little-endian, strings
//! `u32`-length-prefixed UTF-8).
//!
//! | kind | direction | frame | body |
//! |------|-----------|-------|------|
//! | 0x01 | → server  | `SUBMIT_SQL`    | query text |
//! | 0x02 | → server  | `SUBMIT_SPEC`   | `JobSpec` JSON |
//! | 0x03 | → server  | `CANCEL`        | job id `u64` |
//! | 0x04 | → server  | `STATUS`        | job id `u64` |
//! | 0x81 | → client  | `ACCEPTED`      | job id `u64` |
//! | 0x82 | → client  | `REJECTED`      | reason byte + detail |
//! | 0x83 | → client  | `OUTPUTS`       | job id, pair count, 40-byte pairs |
//! | 0x84 | → client  | `STATUS_REPLY`  | job id, state byte, outputs so far |
//! | 0x85 | → client  | `DONE`          | job id + report digest JSON |
//! | 0x86 | → client  | `ERROR`         | detail string |
//! | 0x87 | → client  | `FAILED`        | job id + detail string |
//!
//! Replies to requests arrive in request order; `OUTPUTS`, `DONE` and
//! `FAILED` frames of running jobs interleave asynchronously, tagged
//! with their job id. [`ServeClient`] handles the demultiplexing.
//!
//! ```no_run
//! use windjoin_cluster::serve::{AdmissionLimits, ServeClient, Server};
//!
//! let server = Server::start("127.0.0.1:0", AdmissionLimits::default()).unwrap();
//! let mut client = ServeClient::connect(server.local_addr()).unwrap();
//! let job = client
//!     .submit_sql("SELECT * FROM s1 JOIN s2 ON s1.key = s2.key WITHIN 5s WITH (run = 3s)")
//!     .unwrap();
//! let summary = client.run_to_completion(job, |pairs| println!("{} pairs", pairs.len())).unwrap();
//! println!("outputs {} checksum {:016x}", summary.outputs_total, summary.output_checksum);
//! server.stop();
//! ```

use crate::api::{CancelToken, JobSpec, JoinJob};
use crate::json::{obj, Json};
use crate::report::RunReport;
use crate::sql;
use std::collections::HashMap;
use std::fmt;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use windjoin_core::OutPair;
use windjoin_net::tcp::{read_frame, write_frame, FrameDecoder};

// ---------------------------------------------------------------------
// Protocol types
// ---------------------------------------------------------------------

const K_SUBMIT_SQL: u8 = 0x01;
const K_SUBMIT_SPEC: u8 = 0x02;
const K_CANCEL: u8 = 0x03;
const K_STATUS: u8 = 0x04;

const K_ACCEPTED: u8 = 0x81;
const K_REJECTED: u8 = 0x82;
const K_OUTPUTS: u8 = 0x83;
const K_STATUS_REPLY: u8 = 0x84;
const K_DONE: u8 = 0x85;
const K_ERROR: u8 = 0x86;
const K_FAILED: u8 = 0x87;

/// A client → server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a query as SQL text (parsed with [`crate::sql`]).
    SubmitSql {
        /// The query.
        sql: String,
    },
    /// Submit a serialised [`JobSpec`] (the `windjoin-job/1` JSON).
    SubmitSpec {
        /// The spec document.
        json: String,
    },
    /// Cancel a running job; replies with a `STATUS_REPLY`.
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Query a job's state; replies with a `STATUS_REPLY`.
    Status {
        /// The job to inspect.
        job: u64,
    },
}

/// Why a submission was rejected (the typed `REJECTED` frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The SQL text failed to parse or lower ([`sql::SqlError`]).
    Sql,
    /// The spec JSON failed to parse or validate.
    Spec,
    /// The admission controller is out of budget (job or partition
    /// cap); resubmit after a running job completes.
    Admission,
}

impl RejectReason {
    fn to_byte(self) -> u8 {
        match self {
            RejectReason::Sql => 1,
            RejectReason::Spec => 2,
            RejectReason::Admission => 3,
        }
    }

    fn from_byte(b: u8) -> Option<RejectReason> {
        match b {
            1 => Some(RejectReason::Sql),
            2 => Some(RejectReason::Spec),
            3 => Some(RejectReason::Admission),
            _ => None,
        }
    }
}

/// Lifecycle of a served job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted and executing.
    Running,
    /// Cancel requested; the master is truncating and flushing.
    Cancelling,
    /// Ran to its full horizon.
    Done,
    /// Cancelled and flushed early.
    Cancelled,
    /// The runtime failed (transport error, ...).
    Failed,
}

impl JobState {
    fn to_byte(self) -> u8 {
        match self {
            JobState::Running => 1,
            JobState::Cancelling => 2,
            JobState::Done => 3,
            JobState::Cancelled => 4,
            JobState::Failed => 5,
        }
    }

    fn from_byte(b: u8) -> Option<JobState> {
        match b {
            1 => Some(JobState::Running),
            2 => Some(JobState::Cancelling),
            3 => Some(JobState::Done),
            4 => Some(JobState::Cancelled),
            5 => Some(JobState::Failed),
            _ => None,
        }
    }
}

/// Per-job failure accounting, carried on every `STATUS_REPLY`. All
/// zero while the job is running (the loss tally materialises with the
/// unified report) and for any run in which no slave died.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobLoss {
    /// Partition-groups abandoned on dead slaves.
    pub groups_lost: u64,
    /// Window-bounded tuple loss (upper bound; see `WorkStats`).
    pub tuples_lost: u64,
    /// Slaves that were dead (crashed, not cleanly departed) when the
    /// run ended.
    pub dead_slaves: u64,
}

/// A digest of the unified [`RunReport`], serialised onto the `DONE`
/// frame (the full report holds histograms and traces; the digest is
/// what a remote client needs to check a run against its oracle).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// Join outputs including warm-up.
    pub outputs_total: u64,
    /// Order-independent XOR-fold of output pair ids.
    pub output_checksum: u64,
    /// Tuples ingested (both streams).
    pub tuples_in: u64,
    /// Post-warm-up outputs.
    pub outputs: u64,
    /// Partition-group movements executed.
    pub moves: u64,
    /// Configured run horizon, µs.
    pub run_us: u64,
    /// Mean production delay, seconds (post-warm-up).
    pub avg_delay_s: f64,
    /// Cluster-wide bytes put on the wire (zero for the simulator,
    /// which models links instead of counting them).
    pub bytes_sent: u64,
    /// Cluster-wide bytes taken off the wire.
    pub bytes_recvd: u64,
    /// Whether the run was truncated by a cancel.
    pub cancelled: bool,
}

impl JobSummary {
    fn from_report(report: &RunReport, cancelled: bool) -> JobSummary {
        JobSummary {
            outputs_total: report.outputs_total,
            output_checksum: report.output_checksum,
            tuples_in: report.tuples_in,
            outputs: report.outputs,
            moves: report.moves,
            run_us: report.run_us,
            avg_delay_s: report.avg_delay_s(),
            bytes_sent: report.work.bytes_sent,
            bytes_recvd: report.work.bytes_recvd,
            cancelled,
        }
    }

    fn to_json(&self) -> String {
        obj(vec![
            ("outputs_total", Json::U64(self.outputs_total)),
            ("output_checksum", Json::U64(self.output_checksum)),
            ("tuples_in", Json::U64(self.tuples_in)),
            ("outputs", Json::U64(self.outputs)),
            ("moves", Json::U64(self.moves)),
            ("run_us", Json::U64(self.run_us)),
            ("avg_delay_s", Json::F64(self.avg_delay_s)),
            ("bytes_sent", Json::U64(self.bytes_sent)),
            ("bytes_recvd", Json::U64(self.bytes_recvd)),
            ("cancelled", Json::Bool(self.cancelled)),
        ])
        .to_text()
    }

    fn from_json(text: &str) -> Result<JobSummary, ProtocolError> {
        let bad = |what: &str| ProtocolError { why: format!("DONE digest: bad {what}") };
        let v =
            Json::parse(text).map_err(|e| ProtocolError { why: format!("DONE digest: {e}") })?;
        let u = |k: &str| v.get(k).and_then(Json::as_u64).ok_or_else(|| bad(k));
        Ok(JobSummary {
            outputs_total: u("outputs_total")?,
            output_checksum: u("output_checksum")?,
            tuples_in: u("tuples_in")?,
            outputs: u("outputs")?,
            moves: u("moves")?,
            run_us: u("run_us")?,
            avg_delay_s: v
                .get("avg_delay_s")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("avg_delay_s"))?,
            // Absent in digests from servers predating wire counters.
            bytes_sent: v.get("bytes_sent").and_then(Json::as_u64).unwrap_or(0),
            bytes_recvd: v.get("bytes_recvd").and_then(Json::as_u64).unwrap_or(0),
            cancelled: v
                .get("cancelled")
                .and_then(Json::as_bool)
                .ok_or_else(|| bad("cancelled"))?,
        })
    }
}

/// A server → client response or stream frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The submission was admitted under this job id.
    Accepted {
        /// The assigned job id.
        job: u64,
    },
    /// The submission was refused.
    Rejected {
        /// The typed reason class.
        reason: RejectReason,
        /// Human-readable detail (parser diagnostic, budget state, ...).
        detail: String,
    },
    /// One incremental batch of a job's join results.
    Outputs {
        /// The producing job.
        job: u64,
        /// The batch, in emission order.
        pairs: Vec<OutPair>,
    },
    /// Reply to `STATUS` / `CANCEL`.
    Status {
        /// The inspected job.
        job: u64,
        /// Its lifecycle state.
        state: JobState,
        /// Outputs streamed so far.
        outputs: u64,
        /// Failure accounting (zero until the job completes).
        loss: JobLoss,
    },
    /// The job completed; carries the report digest.
    Done {
        /// The finished job.
        job: u64,
        /// The report digest.
        summary: JobSummary,
    },
    /// A request-level failure (malformed frame, unknown job id).
    Error {
        /// What went wrong.
        detail: String,
    },
    /// The job started but its runtime failed.
    Failed {
        /// The failed job.
        job: u64,
        /// The runtime error.
        detail: String,
    },
}

/// A malformed protocol frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// What was malformed.
    pub why: String,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.why)
    }
}

impl std::error::Error for ProtocolError {}

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cur<'a> {
    fn err(what: &str) -> ProtocolError {
        ProtocolError { why: format!("truncated or malformed {what}") }
    }

    fn u8(&mut self, what: &str) -> Result<u8, ProtocolError> {
        let v = *self.b.get(self.i).ok_or_else(|| Self::err(what))?;
        self.i += 1;
        Ok(v)
    }

    fn u64(&mut self, what: &str) -> Result<u64, ProtocolError> {
        let end = self.i.checked_add(8).filter(|&e| e <= self.b.len());
        let end = end.ok_or_else(|| Self::err(what))?;
        let v = u64::from_le_bytes(self.b[self.i..end].try_into().expect("8 bytes"));
        self.i = end;
        Ok(v)
    }

    fn str(&mut self, what: &str) -> Result<String, ProtocolError> {
        let len = self.u64_as_u32(what)? as usize;
        let end = self.i.checked_add(len).filter(|&e| e <= self.b.len());
        let end = end.ok_or_else(|| Self::err(what))?;
        let s = std::str::from_utf8(&self.b[self.i..end]).map_err(|_| Self::err(what))?;
        self.i = end;
        Ok(s.to_string())
    }

    fn u64_as_u32(&mut self, what: &str) -> Result<u32, ProtocolError> {
        let end = self.i.checked_add(4).filter(|&e| e <= self.b.len());
        let end = end.ok_or_else(|| Self::err(what))?;
        let v = u32::from_le_bytes(self.b[self.i..end].try_into().expect("4 bytes"));
        self.i = end;
        Ok(v)
    }

    fn done(&self, what: &str) -> Result<(), ProtocolError> {
        if self.i == self.b.len() {
            Ok(())
        } else {
            Err(ProtocolError { why: format!("{what}: trailing bytes") })
        }
    }
}

/// Encodes a request payload (kind byte + body, no length prefix).
pub fn encode_request(r: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match r {
        Request::SubmitSql { sql } => {
            out.push(K_SUBMIT_SQL);
            put_str(&mut out, sql);
        }
        Request::SubmitSpec { json } => {
            out.push(K_SUBMIT_SPEC);
            put_str(&mut out, json);
        }
        Request::Cancel { job } => {
            out.push(K_CANCEL);
            out.extend_from_slice(&job.to_le_bytes());
        }
        Request::Status { job } => {
            out.push(K_STATUS);
            out.extend_from_slice(&job.to_le_bytes());
        }
    }
    out
}

/// Decodes a request payload.
pub fn decode_request(b: &[u8]) -> Result<Request, ProtocolError> {
    let mut c = Cur { b, i: 0 };
    let r = match c.u8("request kind")? {
        K_SUBMIT_SQL => Request::SubmitSql { sql: c.str("SUBMIT_SQL text")? },
        K_SUBMIT_SPEC => Request::SubmitSpec { json: c.str("SUBMIT_SPEC json")? },
        K_CANCEL => Request::Cancel { job: c.u64("CANCEL job id")? },
        K_STATUS => Request::Status { job: c.u64("STATUS job id")? },
        k => return Err(ProtocolError { why: format!("unknown request kind {k:#04x}") }),
    };
    c.done("request")?;
    Ok(r)
}

/// Encodes a response payload (kind byte + body, no length prefix).
pub fn encode_response(r: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match r {
        Response::Accepted { job } => {
            out.push(K_ACCEPTED);
            out.extend_from_slice(&job.to_le_bytes());
        }
        Response::Rejected { reason, detail } => {
            out.push(K_REJECTED);
            out.push(reason.to_byte());
            put_str(&mut out, detail);
        }
        Response::Outputs { job, pairs } => {
            out.push(K_OUTPUTS);
            out.extend_from_slice(&job.to_le_bytes());
            out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for p in pairs {
                out.extend_from_slice(&p.key.to_le_bytes());
                out.extend_from_slice(&p.left.0.to_le_bytes());
                out.extend_from_slice(&p.left.1.to_le_bytes());
                out.extend_from_slice(&p.right.0.to_le_bytes());
                out.extend_from_slice(&p.right.1.to_le_bytes());
            }
        }
        Response::Status { job, state, outputs, loss } => {
            out.push(K_STATUS_REPLY);
            out.extend_from_slice(&job.to_le_bytes());
            out.push(state.to_byte());
            out.extend_from_slice(&outputs.to_le_bytes());
            out.extend_from_slice(&loss.groups_lost.to_le_bytes());
            out.extend_from_slice(&loss.tuples_lost.to_le_bytes());
            out.extend_from_slice(&loss.dead_slaves.to_le_bytes());
        }
        Response::Done { job, summary } => {
            out.push(K_DONE);
            out.extend_from_slice(&job.to_le_bytes());
            put_str(&mut out, &summary.to_json());
        }
        Response::Error { detail } => {
            out.push(K_ERROR);
            put_str(&mut out, detail);
        }
        Response::Failed { job, detail } => {
            out.push(K_FAILED);
            out.extend_from_slice(&job.to_le_bytes());
            put_str(&mut out, detail);
        }
    }
    out
}

/// Decodes a response payload.
pub fn decode_response(b: &[u8]) -> Result<Response, ProtocolError> {
    let mut c = Cur { b, i: 0 };
    let r = match c.u8("response kind")? {
        K_ACCEPTED => Response::Accepted { job: c.u64("ACCEPTED job id")? },
        K_REJECTED => {
            let reason = RejectReason::from_byte(c.u8("REJECTED reason")?)
                .ok_or(ProtocolError { why: "unknown REJECTED reason".into() })?;
            Response::Rejected { reason, detail: c.str("REJECTED detail")? }
        }
        K_OUTPUTS => {
            let job = c.u64("OUTPUTS job id")?;
            let n = c.u64_as_u32("OUTPUTS count")? as usize;
            // Cap pre-allocation by what the frame can actually hold
            // (40 bytes per pair), so a hostile count cannot balloon.
            if n > c.b.len().saturating_sub(c.i) / 40 {
                return Err(ProtocolError { why: "OUTPUTS count exceeds frame".into() });
            }
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push(OutPair {
                    key: c.u64("pair key")?,
                    left: (c.u64("pair left.t")?, c.u64("pair left.seq")?),
                    right: (c.u64("pair right.t")?, c.u64("pair right.seq")?),
                });
            }
            Response::Outputs { job, pairs }
        }
        K_STATUS_REPLY => {
            let job = c.u64("STATUS job id")?;
            let state = JobState::from_byte(c.u8("STATUS state")?)
                .ok_or(ProtocolError { why: "unknown job state".into() })?;
            let outputs = c.u64("STATUS outputs")?;
            let loss = JobLoss {
                groups_lost: c.u64("STATUS groups_lost")?,
                tuples_lost: c.u64("STATUS tuples_lost")?,
                dead_slaves: c.u64("STATUS dead_slaves")?,
            };
            Response::Status { job, state, outputs, loss }
        }
        K_DONE => {
            let job = c.u64("DONE job id")?;
            let summary = JobSummary::from_json(&c.str("DONE digest")?)?;
            Response::Done { job, summary }
        }
        K_ERROR => Response::Error { detail: c.str("ERROR detail")? },
        K_FAILED => {
            Response::Failed { job: c.u64("FAILED job id")?, detail: c.str("FAILED detail")? }
        }
        k => return Err(ProtocolError { why: format!("unknown response kind {k:#04x}") }),
    };
    c.done("response")?;
    Ok(r)
}

// ---------------------------------------------------------------------
// Frame IO
// ---------------------------------------------------------------------

fn write_msg(stream: &Mutex<TcpStream>, payload: &[u8]) {
    // A vanished client must not take its jobs down with it: writes are
    // best-effort, the job runs (or cancels) on its own terms.
    if let Ok(mut s) = stream.lock() {
        let _ = write_frame(&mut *s, payload);
    }
}

// ---------------------------------------------------------------------
// Admission control + registry
// ---------------------------------------------------------------------

/// The service's resource budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionLimits {
    /// Maximum concurrently running jobs.
    pub max_jobs: usize,
    /// Maximum total hash partitions across all running jobs (each
    /// job's cost is its `params.npart`).
    pub max_partitions: u64,
}

impl Default for AdmissionLimits {
    fn default() -> Self {
        AdmissionLimits { max_jobs: 4, max_partitions: 256 }
    }
}

struct Admission {
    limits: AdmissionLimits,
    running: usize,
    partitions: u64,
}

impl Admission {
    fn try_admit(&mut self, npart: u64) -> Result<(), String> {
        if self.running >= self.limits.max_jobs {
            return Err(format!(
                "job cap reached ({} of {} running)",
                self.running, self.limits.max_jobs
            ));
        }
        if self.partitions + npart > self.limits.max_partitions {
            return Err(format!(
                "partition budget exhausted ({} in use + {npart} requested > {} cap)",
                self.partitions, self.limits.max_partitions
            ));
        }
        self.running += 1;
        self.partitions += npart;
        Ok(())
    }

    fn release(&mut self, npart: u64) {
        self.running -= 1;
        self.partitions -= npart;
    }
}

struct JobEntry {
    cancel: CancelToken,
    state: JobState,
    outputs: Arc<AtomicU64>,
    // Filled from the unified report when the job thread completes;
    // all-zero while running (guarded by the same `jobs` mutex).
    loss: JobLoss,
}

struct Shared {
    jobs: Mutex<HashMap<u64, JobEntry>>,
    admission: Mutex<Admission>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    job_threads: Mutex<Vec<JoinHandle<()>>>,
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// The long-running join service. [`Server::start`] binds, spawns the
/// accept loop and returns immediately; each admitted job runs on its
/// own thread. [`Server::stop`] cancels running jobs and tears down.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for a kernel-assigned port) and starts
    /// serving with the given admission budget.
    pub fn start(addr: impl ToSocketAddrs, limits: AdmissionLimits) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            jobs: Mutex::new(HashMap::new()),
            admission: Mutex::new(Admission { limits, running: 0, partitions: 0 }),
            next_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            job_threads: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || loop {
            if accept_shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).ok();
                    let conn_shared = Arc::clone(&accept_shared);
                    // Connection handlers are detached: they exit when
                    // their client hangs up.
                    std::thread::spawn(move || handle_client(stream, conn_shared));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => break,
            }
        });
        Ok(Server { addr, shared, accept_thread: Some(accept_thread) })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Cancels every running job, waits for them to flush, and stops
    /// accepting. Running jobs' clients still receive their `DONE`.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for entry in self.shared.jobs.lock().expect("jobs lock").values_mut() {
            if entry.state == JobState::Running {
                entry.state = JobState::Cancelling;
                entry.cancel.cancel();
            }
        }
        let threads = std::mem::take(&mut *self.shared.job_threads.lock().expect("threads lock"));
        for t in threads {
            let _ = t.join();
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.shared.shutdown.load(Ordering::Acquire) {
            self.shutdown();
        }
    }
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish_non_exhaustive()
    }
}

fn handle_client(mut stream: TcpStream, shared: Arc<Shared>) {
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(p) => p,
            Err(_) => return, // client hung up
        };
        let response = match decode_request(&payload) {
            Err(e) => Response::Error { detail: e.to_string() },
            Ok(Request::SubmitSql { sql: text }) => match sql::spec_from_sql(&text) {
                Ok(spec) => submit(spec, &writer, &shared),
                Err(e) => Response::Rejected { reason: RejectReason::Sql, detail: e.to_string() },
            },
            Ok(Request::SubmitSpec { json }) => match JobSpec::from_json(&json) {
                Ok(spec) => submit(spec, &writer, &shared),
                Err(e) => Response::Rejected { reason: RejectReason::Spec, detail: e.to_string() },
            },
            Ok(Request::Cancel { job }) => {
                let mut jobs = shared.jobs.lock().expect("jobs lock");
                match jobs.get_mut(&job) {
                    None => Response::Error { detail: format!("unknown job {job}") },
                    Some(entry) => {
                        if entry.state == JobState::Running {
                            entry.state = JobState::Cancelling;
                            entry.cancel.cancel();
                        }
                        Response::Status {
                            job,
                            state: entry.state,
                            outputs: entry.outputs.load(Ordering::Relaxed),
                            loss: entry.loss,
                        }
                    }
                }
            }
            Ok(Request::Status { job }) => {
                let jobs = shared.jobs.lock().expect("jobs lock");
                match jobs.get(&job) {
                    None => Response::Error { detail: format!("unknown job {job}") },
                    Some(entry) => Response::Status {
                        job,
                        state: entry.state,
                        outputs: entry.outputs.load(Ordering::Relaxed),
                        loss: entry.loss,
                    },
                }
            }
        };
        write_msg(&writer, &encode_response(&response));
    }
}

/// Admits and launches one validated spec; returns the reply frame.
fn submit(spec: JobSpec, writer: &Arc<Mutex<TcpStream>>, shared: &Arc<Shared>) -> Response {
    if shared.shutdown.load(Ordering::Acquire) {
        return Response::Rejected {
            reason: RejectReason::Admission,
            detail: "server is shutting down".into(),
        };
    }
    let npart = spec.params.npart as u64;
    if let Err(detail) = shared.admission.lock().expect("admission lock").try_admit(npart) {
        return Response::Rejected { reason: RejectReason::Admission, detail };
    }
    let job_id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let cancel = CancelToken::new();
    let outputs = Arc::new(AtomicU64::new(0));
    shared.jobs.lock().expect("jobs lock").insert(
        job_id,
        JobEntry {
            cancel: cancel.clone(),
            state: JobState::Running,
            outputs: Arc::clone(&outputs),
            loss: JobLoss::default(),
        },
    );

    let sink_writer = Arc::clone(writer);
    let sink_outputs = Arc::clone(&outputs);
    let job = match JoinJob::from_spec(spec) {
        Ok(job) => job,
        Err(e) => {
            // `from_json`/`to_job` already validated, so this is
            // unreachable in practice — but never panic the service.
            shared.admission.lock().expect("admission lock").release(npart);
            shared.jobs.lock().expect("jobs lock").remove(&job_id);
            return Response::Rejected { reason: RejectReason::Spec, detail: e.to_string() };
        }
    }
    .with_streaming(move |pairs: &[OutPair]| {
        sink_outputs.fetch_add(pairs.len() as u64, Ordering::Relaxed);
        let msg = encode_response(&Response::Outputs { job: job_id, pairs: pairs.to_vec() });
        write_msg(&sink_writer, &msg);
    })
    .with_cancel(cancel);

    let run_shared = Arc::clone(shared);
    let run_writer = Arc::clone(writer);
    let handle = std::thread::spawn(move || {
        let result = job.run();
        let mut jobs = run_shared.jobs.lock().expect("jobs lock");
        let entry = jobs.get_mut(&job_id).expect("submitted job is registered");
        let was_cancelling = entry.state == JobState::Cancelling;
        let reply = match result {
            Ok(report) => {
                entry.state = if was_cancelling { JobState::Cancelled } else { JobState::Done };
                entry.loss = JobLoss {
                    groups_lost: report.work.groups_lost,
                    tuples_lost: report.work.tuples_lost,
                    dead_slaves: report.dead_slaves.len() as u64,
                };
                Response::Done {
                    job: job_id,
                    summary: JobSummary::from_report(&report, was_cancelling),
                }
            }
            Err(e) => {
                entry.state = JobState::Failed;
                Response::Failed { job: job_id, detail: e.to_string() }
            }
        };
        drop(jobs);
        run_shared.admission.lock().expect("admission lock").release(npart);
        write_msg(&run_writer, &encode_response(&reply));
    });
    shared.job_threads.lock().expect("threads lock").push(handle);
    Response::Accepted { job: job_id }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Why a client call failed.
#[derive(Debug)]
pub enum ServeError {
    /// The connection failed or closed.
    Io(std::io::Error),
    /// The server refused the submission.
    Rejected {
        /// The typed reason class.
        reason: RejectReason,
        /// The server's diagnostic.
        detail: String,
    },
    /// The server sent something the protocol does not allow here.
    Protocol(String),
    /// The server reported a request or job failure.
    Server(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "connection error: {e}"),
            ServeError::Rejected { reason, detail } => {
                write!(f, "submission rejected ({reason:?}): {detail}")
            }
            ServeError::Protocol(why) => write!(f, "protocol error: {why}"),
            ServeError::Server(detail) => write!(f, "server error: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// A blocking client for one `windjoin-serve` connection. Demultiplexes
/// the response stream: request replies are matched in order, stream
/// frames (`OUTPUTS`/`DONE`/`FAILED`) are queued until the caller
/// drains them with [`ServeClient::next_event`] or
/// [`ServeClient::run_to_completion`].
pub struct ServeClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    queued: std::collections::VecDeque<Response>,
}

impl ServeClient {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(ServeClient {
            stream,
            decoder: FrameDecoder::new(),
            queued: std::collections::VecDeque::new(),
        })
    }

    fn send(&mut self, req: &Request) -> Result<(), ServeError> {
        write_frame(&mut self.stream, &encode_request(req))?;
        Ok(())
    }

    /// Reads the next response off the wire (ignores the queue).
    fn read_response(&mut self) -> Result<Response, ServeError> {
        loop {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => {
                    return decode_response(&frame).map_err(|e| ServeError::Protocol(e.why))
                }
                Ok(None) => {}
                Err(e) => return Err(ServeError::Protocol(e.to_string())),
            }
            let mut buf = [0u8; 16 * 1024];
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(ServeError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
            self.decoder.feed(&buf[..n]);
        }
    }

    /// The next stream event (queued first, then the wire): `Outputs`,
    /// `Done`, `Failed` — or any reply the caller chose not to match.
    pub fn next_event(&mut self) -> Result<Response, ServeError> {
        if let Some(r) = self.queued.pop_front() {
            return Ok(r);
        }
        self.read_response()
    }

    /// Like [`ServeClient::next_event`] with a bounded wait: `Ok(None)`
    /// when nothing arrived within `timeout`.
    pub fn next_event_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<Response>, ServeError> {
        if let Some(r) = self.queued.pop_front() {
            return Ok(Some(r));
        }
        self.stream.set_read_timeout(Some(timeout))?;
        let got = match self.read_response() {
            Ok(r) => Ok(Some(r)),
            Err(ServeError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        };
        self.stream.set_read_timeout(None)?;
        got
    }

    /// Waits for the next *request reply*, queueing stream frames that
    /// arrive in between.
    fn read_reply(&mut self) -> Result<Response, ServeError> {
        loop {
            let r = self.read_response()?;
            match r {
                Response::Outputs { .. } | Response::Done { .. } | Response::Failed { .. } => {
                    self.queued.push_back(r)
                }
                other => return Ok(other),
            }
        }
    }

    /// Submits SQL text; returns the admitted job id.
    pub fn submit_sql(&mut self, sql: &str) -> Result<u64, ServeError> {
        self.send(&Request::SubmitSql { sql: sql.to_string() })?;
        self.take_submission_reply()
    }

    /// Submits a spec; returns the admitted job id.
    pub fn submit_spec(&mut self, spec: &JobSpec) -> Result<u64, ServeError> {
        self.send(&Request::SubmitSpec { json: spec.to_json() })?;
        self.take_submission_reply()
    }

    fn take_submission_reply(&mut self) -> Result<u64, ServeError> {
        match self.read_reply()? {
            Response::Accepted { job } => Ok(job),
            Response::Rejected { reason, detail } => Err(ServeError::Rejected { reason, detail }),
            Response::Error { detail } => Err(ServeError::Server(detail)),
            other => Err(ServeError::Protocol(format!("unexpected submission reply {other:?}"))),
        }
    }

    /// Requests cancellation; returns the job's `(state, outputs so
    /// far, loss accounting)`.
    pub fn cancel(&mut self, job: u64) -> Result<(JobState, u64, JobLoss), ServeError> {
        self.send(&Request::Cancel { job })?;
        self.take_status_reply(job)
    }

    /// Queries a job's state; returns `(state, outputs so far, loss
    /// accounting)`. The loss fields are zero until the job completes.
    pub fn status(&mut self, job: u64) -> Result<(JobState, u64, JobLoss), ServeError> {
        self.send(&Request::Status { job })?;
        self.take_status_reply(job)
    }

    fn take_status_reply(&mut self, want: u64) -> Result<(JobState, u64, JobLoss), ServeError> {
        match self.read_reply()? {
            Response::Status { job, state, outputs, loss } if job == want => {
                Ok((state, outputs, loss))
            }
            Response::Error { detail } => Err(ServeError::Server(detail)),
            other => Err(ServeError::Protocol(format!("unexpected status reply {other:?}"))),
        }
    }

    /// Drains job `job`'s stream to completion, handing each `OUTPUTS`
    /// batch to `on_pairs`, and returns the `DONE` digest. Frames of
    /// other jobs stay queued for their own consumers.
    pub fn run_to_completion(
        &mut self,
        job: u64,
        mut on_pairs: impl FnMut(&[OutPair]),
    ) -> Result<JobSummary, ServeError> {
        // Scan already-queued frames first, then the wire.
        let mut requeue = std::collections::VecDeque::new();
        loop {
            let r = if let Some(r) = self.queued.pop_front() { r } else { self.read_response()? };
            match r {
                Response::Outputs { job: j, pairs } if j == job => on_pairs(&pairs),
                Response::Done { job: j, summary } if j == job => {
                    // Put foreign frames back for their consumers.
                    while let Some(r) = requeue.pop_back() {
                        self.queued.push_front(r);
                    }
                    return Ok(summary);
                }
                Response::Failed { job: j, detail } if j == job => {
                    while let Some(r) = requeue.pop_back() {
                        self.queued.push_front(r);
                    }
                    return Err(ServeError::Server(detail));
                }
                other => requeue.push_back(other),
            }
        }
    }
}

impl fmt::Debug for ServeClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeClient").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_codec_roundtrips() {
        for r in [
            Request::SubmitSql { sql: "SELECT * FROM a JOIN b ...".into() },
            Request::SubmitSpec { json: "{}".into() },
            Request::Cancel { job: u64::MAX },
            Request::Status { job: 0 },
        ] {
            assert_eq!(decode_request(&encode_request(&r)).unwrap(), r);
        }
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0x7f]).is_err());
        assert!(decode_request(&[K_CANCEL, 1, 2]).is_err());
        // Trailing bytes are an error, not silently ignored.
        let mut b = encode_request(&Request::Status { job: 3 });
        b.push(0);
        assert!(decode_request(&b).is_err());
    }

    #[test]
    fn response_codec_roundtrips() {
        let summary = JobSummary {
            outputs_total: u64::MAX,
            output_checksum: 0xdead_beef,
            tuples_in: 12,
            outputs: 0,
            moves: 3,
            run_us: 6_000_000,
            avg_delay_s: 0.25,
            bytes_sent: 1 << 40,
            bytes_recvd: 77,
            cancelled: true,
        };
        for r in [
            Response::Accepted { job: 7 },
            Response::Rejected { reason: RejectReason::Admission, detail: "cap".into() },
            Response::Outputs {
                job: 7,
                pairs: vec![
                    OutPair { key: 1, left: (2, 3), right: (4, 5) },
                    OutPair { key: u64::MAX, left: (0, 0), right: (u64::MAX, 1) },
                ],
            },
            Response::Status {
                job: 7,
                state: JobState::Cancelling,
                outputs: 41,
                loss: JobLoss { groups_lost: 2, tuples_lost: 977, dead_slaves: 1 },
            },
            Response::Done { job: 7, summary },
            Response::Error { detail: "nope".into() },
            Response::Failed { job: 9, detail: "io".into() },
        ] {
            assert_eq!(decode_response(&encode_response(&r)).unwrap(), r);
        }
        // A hostile pair count larger than the frame is rejected
        // before allocation.
        let mut b = vec![K_OUTPUTS];
        b.extend_from_slice(&7u64.to_le_bytes());
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_response(&b).is_err());
    }

    #[test]
    fn admission_budget_admits_and_releases() {
        let mut a = Admission {
            limits: AdmissionLimits { max_jobs: 2, max_partitions: 20 },
            running: 0,
            partitions: 0,
        };
        a.try_admit(16).unwrap();
        let e = a.try_admit(16).unwrap_err();
        assert!(e.contains("partition budget"), "{e}");
        a.try_admit(4).unwrap();
        let e = a.try_admit(1).unwrap_err();
        assert!(e.contains("job cap"), "{e}");
        a.release(16);
        a.try_admit(16).unwrap();
        a.release(16);
        a.release(4);
        assert_eq!((a.running, a.partitions), (0, 0));
    }
}
