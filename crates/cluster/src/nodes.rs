//! Transport-generic node loops: the master, slave and collector
//! drivers, written once against `windjoin-net`'s
//! [`TransportEndpoint`] trait so the identical protocol code runs
//! over in-process channels (threaded runtime, one thread per node) or
//! real TCP sockets (process runtime, one OS process per node).
//!
//! All three loops are I/O shells around the sans-IO [`MasterRole`],
//! [`SlaveRole`] and [`CollectorRole`] (the simulator drives the same
//! master and slave roles): they receive with timeouts, pass the run
//! clock in, unseal leader frames, decode batches and results zero-copy
//! into reused buffers, send through one reused encode buffer, measure
//! wall-clock CPU and communication time, and fire the chaos kill. What
//! a master, a slave or the collector does with a frame is the role's.
//! The master's shell keeps the leader's data path: ingest, payload
//! parking, the tick and slot distribution, the tail replay of restored
//! partitions and the deterministic flush.
//!
//! Rank layout: ranks `0..m` are the masters (rank 0 boots as leader,
//! the rest as hot standbys), ranks `m..m+n` the slaves, rank `m+n`
//! the collector. With `masters == 1` this reduces exactly to the
//! classic Fig. 1 topology (master 0, slaves `1..=n`, collector
//! `n+1`), and every frame of a fault-free run — batches, outputs,
//! occupancy reports, load moves, shutdown — is byte-identical to the
//! pre-replication protocol. Re-homing after a slave death is not: every
//! re-homed partition, restored or installed empty, now travels as a
//! [`Message::Restore`].
//!
//! ## Determinism contract
//!
//! Wall-clock pacing makes *when* batches travel nondeterministic, but
//! the **output set** of a run is a pure function of the seed and the
//! run horizon: the master clamps ingestion to arrivals with
//! `at_us <= run`, performs a final flush of every remaining arrival
//! and buffered batch before shutdown, and withholds `Shutdown` until
//! all in-flight partition moves have acked — so every ingested tuple
//! reaches a slave and every derivable join pair reaches the
//! collector. Batch boundaries never change join results (a property
//! the core test suite proves), so a channel run, a TCP run and the
//! `reference_join` oracle all agree pair-for-pair on the same seed.
//!
//! ## Failure model
//!
//! Node loss is a protocol event, not a hang. Slaves beacon
//! [`Message::Heartbeat`] at [`NodeConfig::heartbeat`]; the leading
//! master declares a slave dead on a transport [`NetEvent::PeerDown`]
//! or after [`NodeConfig::max_missed`] silent beacon intervals and
//! re-homes its partition-groups onto live slaves
//! ([`MasterCore::on_slave_down`]): one [`Message::Restore`] per
//! partition, acked like a state move. The new owner installs the buddy
//! checkpoint when the master registered one and an empty group
//! otherwise, in which case the abandoned window state is accounted as
//! a window-bounded loss.
//!
//! Bytes off a socket never take a rank down: a frame that does not
//! decode, a message the sending rank's role never sends to the
//! receiver, or one naming a partition or slave that does not exist is
//! dropped and counted (`frames_dropped` in each rank's outcome), with
//! one stderr line per offending peer (see [`crate::roles`] for the
//! sender checks).
//!
//! With `masters > 1` the control plane itself is replicated: every
//! [`Decision`](windjoin_core::Decision) the leader's core takes (slave deaths, readmissions,
//! reorganisation plans) is appended to a quorum-acked decision log
//! ([`windjoin_core::ControlLog`]) and applied by the standbys to their
//! own [`MasterCore`] replicas — through the same
//! [`MasterCore::apply_decision`] the leader's core ran — *before* its
//! side effects are released. Every leader→slave/collector frame
//! travels inside a term-stamped [`Message::Sealed`] envelope, so
//! receivers drop frames from a deposed leader. When the leader dies,
//! the standbys run a rank-staggered, Raft-flavoured election
//! ([`windjoin_core::Election`]); the winner re-opens the arrival
//! source, re-ingests from sequence zero and re-drains — the slaves'
//! per-partition delivery guards make the redelivery idempotent, so a
//! leader death with all slaves surviving loses *nothing*.
//!
//! With `checkpoint_every > 0` each slave snapshots its owned
//! partition-groups to a buddy slave every `checkpoint_every` drained
//! batch frames; a partition whose owner dies is then re-homed at the
//! buddy, which installs the checkpoint, and the master replays the
//! tail past the recorded watermarks instead of charging the window as
//! `tuples_lost`.

use crate::api::{Runtime, Source, SourceArrival, SourceSpec, StreamingSink};
use crate::roles::{CollectorRole, Dest, MasterRole, Next, RoleIo, SlaveRole};
use std::time::{Duration, Instant};
use windjoin_core::{
    ConfigError, EpochTuning, MasterCore, OutPair, Params, PayloadStore, Rehome, Residual, Tuple,
    WorkStats,
};
use windjoin_gen::{KeyDist, RateSchedule};
use windjoin_metrics::{thread_cpu_time, DelayTracker, TimeSeries};
use windjoin_net::{Disconnected, Message, NetEvent, TransportEndpoint};

/// What is left of the probe-engine choice: every runtime runs
/// [`windjoin_core::ExactEngine`] and nothing reads
/// [`NodeConfig::engine`]. The end-to-end benchmark's adapter
/// (`benchmark/src/sut.rs`), which changes only on its own, still sets
/// it; the next benchmark change deletes that assignment, the field and
/// this type together.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum EngineKind {
    /// `ExactEngine`.
    Exact,
}

/// The one run description every runtime reads: the simulator, the
/// baselines, the threaded and TCP-loopback runtimes and each process
/// of a multi-process cluster.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Protocol parameters. On the real-time runtimes keep windows and
    /// epochs wall-clock friendly (e.g. 5 s windows, 100 ms epochs) —
    /// Table I's 10-minute windows are for the simulator.
    pub params: Params,
    /// Number of (initially) active slave nodes.
    pub slaves: usize,
    /// Provisioned slaves, `>= slaves`: the pool adaptive declustering
    /// may grow into. Only the simulator models spare slaves.
    pub total_slaves: usize,
    /// Number of master ranks. 1 (the default) is the classic
    /// single-master topology; 3+ adds hot standbys with a replicated
    /// decision log and leader election. Use an odd count — a majority
    /// quorum of 2 masters cannot survive any failure.
    pub masters: usize,
    /// Per-stream arrival rate, tuples/s (a rate schedule goes in
    /// `source`).
    pub rate: f64,
    /// Join-attribute distribution.
    pub keys: KeyDist,
    /// Seed for the generators and the master.
    pub seed: u64,
    /// Total run length.
    pub run: Duration,
    /// Warm-up discarded from the statistics.
    pub warmup: Duration,
    /// Enable §V-A adaptive degree of declustering.
    pub adaptive_dod: bool,
    /// Dynamic distribution-epoch tuning (the paper's §VIII future work;
    /// see `windjoin_core::tune_epoch`), simulator only. `None` keeps the
    /// fixed Table I epoch.
    pub adaptive_epoch: Option<EpochTuning>,
    /// Keep every output pair in the report.
    pub capture_outputs: bool,
    /// Slave liveness-beacon interval ([`Message::Heartbeat`]); zero
    /// disables beaconing (failures are then detected through transport
    /// teardown only).
    pub heartbeat: Duration,
    /// Consecutive silent beacon intervals before the master declares a
    /// slave dead; zero disables detection-by-silence. Keep the product
    /// `heartbeat * max_missed` well above the longest legitimate gap
    /// between frames from a slave (a distribution epoch), or a busy
    /// node gets declared dead spuriously.
    pub max_missed: u32,
    /// Snapshot owned partition-groups to a buddy slave every N
    /// drained batch frames; 0 disables checkpointing. Slot and tick
    /// frames count alike: an idle slave drains up to about 51 per
    /// distribution epoch, a saturated one about one per slot. A
    /// covered partition whose owner dies restores from the checkpoint
    /// plus a replayed tail instead of being charged as lost.
    pub checkpoint_every: u64,
    /// Fault-injection hooks for the chaos tests: each selected slave
    /// dies abruptly after draining N batch frames.
    pub chaos: Vec<ChaosKill>,
    /// Fault-injection hook for the failover chaos tests: the selected
    /// master dies abruptly while leading.
    pub chaos_master: Option<MasterKill>,
    /// Unread: every runtime runs `ExactEngine` (see [`EngineKind`]).
    #[doc(hidden)]
    pub engine: EngineKind,
    /// Wire payload width per tuple, bytes. 0 keeps the paper's
    /// zero-filled 64-byte layout (the bit-identical legacy path); a
    /// positive width makes real payload bytes flow master → wire →
    /// slave and reach the residual predicate at probe time.
    pub payload_bytes: usize,
    /// Residual predicate composed with the partitioning equi-join. The
    /// simulator carries no payload bytes, so payload-inspecting
    /// predicates need a real-time runtime.
    pub residual: Residual,
    /// Arrival source override; `None` keeps the classic synthetic
    /// generator pair derived from `rate`/`keys`/`seed`.
    pub source: Option<SourceSpec>,
    /// Streaming sink the collector (or the simulator's virtual
    /// collector) invokes with each output batch, in addition to its
    /// accounting.
    pub sink: Option<StreamingSink>,
    /// Cooperative cancellation: when the token fires the master stops
    /// ingesting, truncates the horizon to "now" and runs the normal
    /// deterministic flush, so a cancelled run still shuts down cleanly
    /// and reports what it produced. `None` runs to the full horizon.
    /// The simulator runs in virtual time and ignores it.
    pub cancel: Option<crate::api::CancelToken>,
}

/// Deterministic fault injection: slave `slave` dies immediately after
/// fully processing its `after_batches`-th batch frame — no goodbye, no
/// flush, exactly like a crash at that protocol point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosKill {
    /// The victim's slave index (0-based; rank `masters + slave`).
    pub slave: usize,
    /// How many batch frames to drain before dying. This pins the
    /// injection point in protocol time, not wall-clock time; frames
    /// arrive at every slot and, while the slave keeps up, on the
    /// leader's `t_d / 50` ticks too — up to about 51 per epoch.
    pub after_batches: u64,
    /// Die by `std::process::exit` (multi-process runtime) instead of
    /// returning from the node loop (threaded runtime).
    pub exit_process: bool,
}

/// Deterministic fault injection for the control plane: master
/// `master` dies abruptly once it has led through protocol epoch
/// `after_epochs` — no handover, exactly a leader crash. A standby that
/// never leads never fires its kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MasterKill {
    /// The victim's master index (also its rank).
    pub master: usize,
    /// The distribution-epoch count at which to die while leading.
    pub after_epochs: u64,
    /// Die by `std::process::exit` (multi-process runtime) instead of
    /// returning from the node loop (threaded runtime).
    pub exit_process: bool,
}

impl NodeConfig {
    /// A small, laptop-friendly default: `slaves` slaves, 500 t/s per
    /// stream, 5 s windows, 200 ms distribution epochs, 2 s reorg epochs.
    pub fn demo(slaves: usize) -> Self {
        let mut params = Params::default_paper().with_window_secs(5).with_dist_epoch_us(200_000);
        params.reorg_epoch_us = 2_000_000;
        params.npart = 16;
        NodeConfig {
            params,
            slaves,
            total_slaves: slaves,
            masters: 1,
            rate: 500.0,
            keys: KeyDist::BModel { bias: 0.7, domain: 100_000 },
            seed: 7,
            run: Duration::from_secs(6),
            warmup: Duration::from_secs(2),
            adaptive_dod: false,
            adaptive_epoch: None,
            capture_outputs: false,
            heartbeat: Duration::from_millis(500),
            max_missed: 20,
            checkpoint_every: 0,
            chaos: Vec::new(),
            chaos_master: None,
            engine: EngineKind::Exact,
            payload_bytes: 0,
            residual: Residual::ALWAYS,
            source: None,
            sink: None,
            cancel: None,
        }
    }

    /// The paper's §VI-A methodology with `slaves` active slaves, for
    /// the simulator: Table I parameters, Poisson arrivals at 1500
    /// tuples/s per stream, b-model keys, 20-minute runs with a
    /// 10-minute warm-up.
    pub fn paper_default(slaves: usize) -> Self {
        NodeConfig {
            params: Params::default_paper(),
            rate: 1500.0,
            keys: KeyDist::paper_default(),
            seed: 0xC1_05_7E_12,
            run: Duration::from_secs(20 * 60),
            warmup: Duration::from_secs(10 * 60),
            ..NodeConfig::demo(slaves)
        }
    }

    /// Checks the description for a run on `runtime`. The multi-process
    /// runtime checks as [`Runtime::Tcp`]; the baselines as
    /// [`Runtime::Sim`]. What a runtime cannot honour is an error, never
    /// silently dropped: spare slaves and epoch tuning exist only in
    /// the simulator, payload bytes only in real time.
    pub fn validate(&self, runtime: Runtime) -> Result<(), ConfigError> {
        self.params.validate()?;
        if self.slaves == 0 {
            return Err(ConfigError::NonPositive { field: "slaves" });
        }
        if self.masters == 0 {
            return Err(ConfigError::NonPositive { field: "masters" });
        }
        if self.total_slaves < self.slaves {
            return Err(ConfigError::OutOfRange {
                field: "total_slaves",
                constraint: "total_slaves >= slaves",
            });
        }
        if self.warmup >= self.run {
            return Err(ConfigError::Inconsistent {
                why: format!(
                    "warm-up ({} us) must end before the run does ({} us)",
                    self.warmup.as_micros(),
                    self.run.as_micros()
                ),
            });
        }
        // `rate` first: `source_spec` builds a schedule from it.
        RateSchedule::try_steps(vec![(0, self.rate)])
            .map_err(|constraint| ConfigError::OutOfRange { field: "rate", constraint })?;
        if let SourceSpec::Synthetic { keys, .. } = self.source_spec() {
            keys.validate()
                .map_err(|constraint| ConfigError::OutOfRange { field: "keys", constraint })?;
        }
        if let Some(t) = &self.adaptive_epoch {
            t.validate()?;
            if self.params.ng != 1 {
                return Err(ConfigError::Inconsistent {
                    why: "adaptive epoch currently requires ng = 1".into(),
                });
            }
        }
        let why = match runtime {
            Runtime::Sim if self.payload_bytes > 0 => {
                "the simulator models wire time, not wire bytes: payload-carrying tuples need \
                 Runtime::Threaded or Runtime::Tcp"
            }
            Runtime::Threaded | Runtime::Tcp if self.total_slaves != self.slaves => {
                "only the simulator provisions spare slaves (total_slaves > slaves)"
            }
            Runtime::Threaded | Runtime::Tcp if self.adaptive_epoch.is_some() => {
                "only the simulator tunes the distribution epoch (adaptive_epoch)"
            }
            _ => return Ok(()),
        };
        Err(ConfigError::Unsupported { why: why.into() })
    }

    /// The arrival source of this run: the explicit override, or the
    /// classic synthetic pair derived from `rate`/`keys`.
    pub fn source_spec(&self) -> SourceSpec {
        self.source.clone().unwrap_or_else(|| SourceSpec::Synthetic {
            rate: RateSchedule::constant(self.rate),
            keys: self.keys,
        })
    }

    /// True when the control plane is replicated (standby masters,
    /// sealed frames, quorum-logged decisions).
    pub fn robust(&self) -> bool {
        self.masters > 1
    }

    /// The rank of slave `slave` in this topology.
    pub fn slave_rank(&self, slave: usize) -> usize {
        self.masters + slave
    }

    /// The collector's rank in this topology.
    pub fn collector_rank(&self) -> usize {
        self.masters + self.slaves
    }

    /// Total ranks: masters + slaves + collector.
    pub fn ranks(&self) -> usize {
        self.masters + self.slaves + 1
    }

    /// The role `rank` plays in a mesh of `peers` ranks; an error when
    /// the mesh does not have this topology's rank count or the rank
    /// lies outside it.
    pub fn role_of(&self, rank: usize, peers: usize) -> Result<Role, ConfigError> {
        if peers != self.ranks() {
            return Err(ConfigError::Topology {
                why: format!(
                    "{peers} peers but the topology has {} ranks ({} master(s) + {} slaves + \
                     collector)",
                    self.ranks(),
                    self.masters,
                    self.slaves
                ),
            });
        }
        Ok(if rank < self.masters {
            Role::Master(rank)
        } else if rank < self.masters + self.slaves {
            Role::Slave(rank - self.masters)
        } else if rank == self.collector_rank() {
            Role::Collector
        } else {
            return Err(ConfigError::Topology { why: format!("rank {rank} out of range") });
        })
    }
}

/// What a rank does in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Ranks `0..m`: buffer arrivals, distribute batches, plan reorgs.
    /// Index 0 boots as leader, the rest as hot standbys.
    Master(usize),
    /// Ranks `m..m+n`: run the join module over owned partition groups.
    Slave(usize),
    /// Rank `m+n`: gathers join outputs and production delays.
    Collector,
}

/// What a master learned over a run.
#[derive(Debug)]
pub struct MasterOutcome {
    /// Peak buffered bytes across the run.
    pub peak_buffer_bytes: u64,
    /// Final degree of declustering.
    pub final_degree: usize,
    /// Degree-of-declustering trace, one sample per reorg epoch.
    pub dod_trace: TimeSeries,
    /// Partition-group movements executed.
    pub moves: u64,
    /// Tuples ingested from both streams (deterministic per seed).
    pub tuples_in: u64,
    /// Window state abandoned on dead slaves (window-bounded upper
    /// bound; see [`WorkStats::tuples_lost`]).
    pub loss: WorkStats,
    /// Slaves that were dead when the run ended, ascending.
    pub dead_slaves: Vec<usize>,
    /// The election term this master ended the run in.
    pub term: u64,
    /// True when this master led the final shutdown — the rank whose
    /// outcome describes the run (exactly one per completed run).
    pub led_shutdown: bool,
    /// Bytes this rank put on the wire (endpoint counters; zero on
    /// backends that do not track volume).
    pub bytes_sent: u64,
    /// Bytes this rank took off the wire.
    pub bytes_recvd: u64,
    /// Frames dropped as malformed or out of role.
    pub frames_dropped: u64,
    /// Times the leader loop woke from a wait: once per tick or slot
    /// it slept to (plus the flush's), however many frames arrived.
    pub wakeups: u64,
    /// CPU µs this rank's thread used ([`thread_cpu_time`]).
    pub thread_cpu_us: u64,
}

/// What one slave accumulated over a run. Its loop's wall time splits
/// into `busy_us + comm_us + idle_us`.
#[derive(Debug)]
pub struct SlaveOutcome {
    /// Counted join work.
    pub work: WorkStats,
    /// Wall-clock µs spent in the join module.
    pub busy_us: u64,
    /// Wall-clock µs spent on the protocol around it: reading,
    /// decoding, encoding and sending frames.
    pub comm_us: u64,
    /// Wall-clock µs spent blocked waiting on the network
    /// ([`TransportEndpoint::waited`]).
    pub idle_us: u64,
    /// CPU µs this rank's thread used ([`thread_cpu_time`]).
    pub thread_cpu_us: u64,
    /// Frames dropped as malformed or out of role.
    pub frames_dropped: u64,
    /// Largest `SlaveCore::state_bytes` sampled over the run: heap bytes
    /// of window columns and hash chains, block records, probe scratch
    /// and payload stores.
    pub peak_state_bytes: u64,
    /// Batch frames drained, slot and tick frames alike.
    pub batches: u64,
    /// `Outputs` frames sent: at most one per drained batch frame,
    /// unless a drain matched more than `OUTPUTS_PER_FRAME` pairs.
    pub outputs_frames: u64,
}

/// What the collector gathered over a run.
#[derive(Debug)]
pub struct CollectorOutcome {
    /// Production-delay statistics (post-warm-up).
    pub delay: DelayTracker,
    /// Captured output pairs (when `capture_outputs` was set).
    pub captured: Vec<OutPair>,
    /// XOR-fold equivalence checksum over all outputs.
    pub checksum: u64,
    /// Total outputs including warm-up.
    pub outputs_total: u64,
    /// Bytes this rank put on the wire (endpoint counters).
    pub bytes_sent: u64,
    /// Bytes this rank took off the wire.
    pub bytes_recvd: u64,
    /// Frames dropped as malformed or out of role.
    pub frames_dropped: u64,
    /// CPU µs this rank's thread used ([`thread_cpu_time`]).
    pub thread_cpu_us: u64,
}

fn duration_us(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// The initial round-robin partition assignment of slave `slave` among
/// `slaves` nodes — must mirror `MasterCore`'s bootstrap map.
pub fn initial_partitions(params: &Params, slaves: usize, slave: usize) -> Vec<u32> {
    (0..params.npart).filter(|p| (*p as usize) % slaves == slave).collect()
}

/// Runs master rank 0's loop on `ep` until the configured horizon, then
/// flushes deterministically and shuts the cluster down.
pub fn master_node<E: TransportEndpoint>(ep: &E, cfg: &NodeConfig) -> MasterOutcome {
    master_node_at(ep, 0, cfg)
}

/// Runs master rank `midx`'s loop on `ep`: rank 0 boots as leader and
/// drives the run; higher ranks stand by — mirroring the decision log,
/// watching the leader's beacons — and take over through an election if
/// it dies. This is the I/O shell around a [`MasterRole`]: it receives
/// with timeouts, feeds the role every frame and teardown with the run
/// clock, ingests and distributes as the leader, replays restored
/// tails and fires the chaos kill. What a master does with a frame, in
/// every stance, is the role's.
pub fn master_node_at<E: TransportEndpoint>(
    ep: &E,
    midx: usize,
    cfg: &NodeConfig,
) -> MasterOutcome {
    assert!(midx < cfg.masters, "master index out of range");
    let mut m = MasterShell {
        clock: Instant::now(),
        midx,
        role: MasterRole::new(cfg, midx, cfg.seed),
        io: NodeIo::new(ep, cfg),
        tick: 0,
        wakeups: 0,
    };
    while let Some(deadline_us) = m.role.standby_deadline_us() {
        let wait_us = deadline_us.saturating_sub(m.now_us()).clamp(1_000, 50_000);
        if m.serve(Duration::from_micros(wait_us)).is_err() {
            break;
        }
    }
    if !m.role.leading() {
        return m.outcome(0, false);
    }
    lead(m)
}

/// A master's role, its frames over the endpoint, its run clock and, as
/// the leader, the next tick and the loop's wake-ups.
struct MasterShell<'a, E: TransportEndpoint> {
    clock: Instant,
    midx: usize,
    role: MasterRole,
    io: NodeIo<'a, E>,
    tick: u64,
    wakeups: u64,
}

impl<E: TransportEndpoint> MasterShell<'_, E> {
    fn now_us(&self) -> u64 {
        duration_us(self.clock.elapsed())
    }

    /// Hands one transport event to the role.
    fn feed(&mut self, ev: NetEvent) {
        let now_us = self.now_us();
        match ev {
            NetEvent::PeerDown(rank) => self.role.peer_down(rank, now_us, &mut self.io),
            NetEvent::Frame(frame) => self.role.frame(frame, now_us, &mut self.io),
        }
    }

    /// One slice of the event service: waits up to `budget` for an event
    /// and feeds it to the role, then ticks the role. Whether an event
    /// came; an error once the endpoint is gone.
    fn serve(&mut self, budget: Duration) -> Result<bool, Disconnected> {
        let got = match self.io.ep.recv_event_timeout(budget) {
            Ok(Some(ev)) => {
                self.feed(ev);
                Ok(true)
            }
            Ok(None) => Ok(false),
            Err(e) => Err(e),
        };
        self.role.tick(self.now_us(), &mut self.io);
        got
    }

    /// Replays the tail of every checkpoint re-home the role released.
    fn replay(&mut self, ingest: &Ingest) {
        let term = self.role.term();
        for r in self.role.take_replays() {
            replay_tail(&mut self.io, term, r, ingest.max_at, ingest.next_seq);
        }
    }

    /// Sends each `(slave, batch)`: a batch frame's whole critical path
    /// after the drain.
    fn ship(&mut self, parked: &mut Parked, batches: Vec<(usize, Vec<Tuple>)>) {
        for (slave, batch) in batches {
            self.io.send_batch(slave, &batch, parked, self.role.term());
        }
    }

    /// Moves the next tick past `us`.
    fn skip_ticks_through(&mut self, us: u64) {
        let td = self.io.cfg.params.dist_epoch_us;
        while tick_at(self.tick, td) <= us {
            self.tick += 1;
        }
    }

    /// Waits for the run clock to reach `until_us`, a tick at a time:
    /// sleeps to the next tick (or `until_us`), then feeds the role
    /// every event that arrived meanwhile, ingests the arrivals that
    /// fell due (clamped to `horizon_us`) and, on the tick, ships every
    /// acknowledged slave its buffered tuples. Batches ship only on
    /// ticks and slots, so an `Occupancy` ack read the moment it lands
    /// would ship nothing sooner: the loop wakes once per tick, not once
    /// per frame. False, at once, when `stop()` says the run was
    /// cancelled.
    fn wait_until(
        &mut self,
        ingest: &mut Ingest,
        until_us: u64,
        horizon_us: u64,
        stop: impl Fn() -> bool,
    ) -> bool {
        loop {
            if stop() {
                return false;
            }
            let now_us = self.now_us();
            ingest.pull_until(self.role.core_mut(), now_us.min(horizon_us));
            if now_us >= until_us {
                return true;
            }
            let tick_us = tick_at(self.tick, self.io.cfg.params.dist_epoch_us);
            if now_us >= tick_us {
                let batches = self.role.core_mut().drain_for_idle();
                self.ship(&mut ingest.parked, batches);
                self.skip_ticks_through(now_us);
                continue;
            }
            std::thread::sleep(Duration::from_micros(until_us.min(tick_us) - now_us));
            self.wakeups += 1;
            while let Some(ev) = self.io.ep.try_recv_event() {
                self.feed(ev);
            }
            self.role.tick(self.now_us(), &mut self.io);
            self.replay(ingest);
        }
    }

    fn outcome(self, tuples_in: u64, led_shutdown: bool) -> MasterOutcome {
        let wire = self.io.ep.wire_stats();
        MasterOutcome {
            wakeups: self.wakeups,
            thread_cpu_us: duration_us(thread_cpu_time()),
            ..self.role.outcome(tuples_in, led_shutdown, wire)
        }
    }
}

/// Payload bytes on their way through the master, between ingest and
/// the batch frame that distributes their tuples: one arena store per
/// partition. A batch drains whole partitions in arrival order, so it
/// takes each store's payloads in exact FIFO order — every take finds
/// its payload at the front of the arena — and a partition held back
/// during a state move pins its own chunks and nobody else's.
struct Parked {
    /// Wire payload width of the run; 0 parks nothing and encodes the
    /// legacy frames.
    width: usize,
    npart: u32,
    /// Indexed by partition; empty on payload-free runs.
    stores: Vec<PayloadStore>,
}

impl Parked {
    fn new(cfg: &NodeConfig) -> Self {
        let (width, npart) = (cfg.payload_bytes, cfg.params.npart);
        let stores = if width > 0 { vec![PayloadStore::new(); npart as usize] } else { Vec::new() };
        Parked { width, npart, stores }
    }

    fn pid_of(&self, t: &Tuple) -> usize {
        windjoin_core::hash::partition_of(t.key, self.npart) as usize
    }

    /// Copies an ingested tuple's payload into its partition's arena.
    fn park(&mut self, t: &Tuple, payload: &[u8]) {
        if self.width > 0 && !payload.is_empty() {
            let pid = self.pid_of(t);
            self.stores[pid].insert(t.side, t.seq, t.t, payload);
        }
    }

    /// Encodes one distribution batch into `enc`: the legacy
    /// zero-payload frame when the run carries no payloads
    /// (byte-identical to the pre-payload path), or a payload frame
    /// with each tuple's bytes copied straight from its arena — which
    /// then lets them go.
    fn encode_batch(&mut self, batch: &[Tuple], enc: &mut Vec<u8>) {
        if self.width == 0 {
            return Message::encode_batch_into(batch, enc);
        }
        let payloads = batch.iter().map(|t| self.stores[self.pid_of(t)].get(t.side, t.seq));
        Message::encode_payload_batch_from(batch, payloads, self.width, enc);
        for t in batch {
            let pid = self.pid_of(t);
            self.stores[pid].discard(t.side, t.seq);
        }
    }
}

/// The leader's arrival cursor — the one ingest routine of [`lead`] and
/// of the simulator's slots: pulls the source, routes each arrival into
/// the master's partition buffers and parks its payload bytes. The
/// event-service loops call it with the run clock as arrivals fall due,
/// so a slot finds its tuples already buffered.
pub(crate) struct Ingest {
    /// One pluggable arrival source per run; the default reproduces the
    /// classic synthetic generator pair byte for byte. A promoted
    /// leader opens its own instance and rescans from zero.
    src: Box<dyn Source + Send>,
    next: Option<SourceArrival>,
    /// Payload bytes parked between ingest and distribution; each tuple
    /// is distributed exactly once, so sends drain the stores.
    parked: Parked,
    pub(crate) tuples_in: u64,
    /// Ingest watermarks bounding a restore's tail replay: the highest
    /// arrival timestamp ingested and the next-expected seq per side.
    /// They run ahead of distribution — between slots, everything due
    /// is ingested but still buffered here — so a replay may cover
    /// tuples the normal drain delivers later as well; the holder's
    /// per-(partition, side) delivery guards drop the second copy
    /// ([`replay_tail`]), which keeps recovery exactly-once.
    max_at: u64,
    next_seq: [u64; 2],
}

impl Ingest {
    pub(crate) fn open(cfg: &NodeConfig) -> Self {
        let mut src = cfg.source_spec().open(cfg.seed, cfg.payload_bytes);
        let next = src.next_arrival();
        Ingest { src, next, parked: Parked::new(cfg), tuples_in: 0, max_at: 0, next_seq: [0; 2] }
    }

    /// Ingests every arrival due by `until_us`. Callers clamp
    /// `until_us` to the run horizon: the ingested set must be a pure
    /// function of the seed, not of scheduling jitter.
    pub(crate) fn pull_until(&mut self, core: &mut MasterCore, until_us: u64) {
        while let Some(a) = self.next.take_if(|a| a.at_us <= until_us) {
            let t = Tuple::new(a.side, a.at_us, a.key, a.seq);
            core.on_arrival(t);
            self.max_at = a.at_us;
            self.next_seq[a.side as usize] = a.seq + 1;
            self.parked.park(&t, &a.payload);
            self.tuples_in += 1;
            self.next = self.src.next_arrival();
        }
    }
}

/// Replays the post-checkpoint tail of a partition re-homed with a
/// checkpoint to its holder: a fresh scan of the deterministic arrival
/// source, filtered to tuples already ingested (`seq < ingested_next`,
/// `at_us <= ingested_max_at`) at or past the checkpoint's per-side
/// watermarks. The holder's delivery guards drop anything the replay
/// double-covers. An empty install has no tail: its window was lost.
fn replay_tail<E: TransportEndpoint>(
    io: &mut NodeIo<'_, E>,
    term: u64,
    r: Rehome,
    ingested_max_at: u64,
    ingested_next: [u64; 2],
) {
    let Some((seen_left, seen_right)) = r.checkpoint else { return };
    let cfg = io.cfg;
    let mut src = cfg.source_spec().open(cfg.seed, cfg.payload_bytes);
    let mut tail: Vec<Tuple> = Vec::new();
    let mut parked = Parked::new(cfg);
    while let Some(a) = src.next_arrival() {
        if a.at_us > ingested_max_at {
            break;
        }
        let side = a.side as usize;
        if a.seq >= ingested_next[side] {
            continue; // not yet ingested; flows through the normal drain
        }
        let floor = if side == 0 { seen_left } else { seen_right };
        if a.seq < floor {
            continue; // already reflected in the checkpoint
        }
        if windjoin_core::hash::partition_of(a.key, cfg.params.npart) != r.pid {
            continue;
        }
        let t = Tuple::new(a.side, a.at_us, a.key, a.seq);
        tail.push(t);
        parked.park(&t, &a.payload);
        if tail.len() >= 512 {
            io.send_batch(r.to, &tail, &mut parked, term);
            tail.clear();
        }
    }
    if !tail.is_empty() {
        io.send_batch(r.to, &tail, &mut parked, term);
    }
}

/// Ticks per distribution epoch. On each, the leader ships every slave
/// that has acknowledged its last batch frame what is buffered for it,
/// so an idle slave's tuples wait at most a 50th of `t_d` (1 ms at a
/// 50 ms epoch) instead of until its slot. A tick's frame then brings
/// each mini-group a tuple or two; the slave's probes walk the window's
/// hash chains for those (`ExactEngine`), so a frame costs it
/// `O(fresh + matches)`, not a sweep of the window, and its drain
/// allocates nothing per frame. A frame costs each side one wake-up:
/// the socket endpoint is read by its rank's own thread, and the
/// leader takes acks at its ticks.
const TICKS_PER_EPOCH: u64 = 50;

/// The run-clock instant of tick `n`: `epoch·t_d + k·t_d/50` for
/// `n = 50·epoch + k`, as deterministic as the slots.
fn tick_at(n: u64, td: u64) -> u64 {
    n / TICKS_PER_EPOCH * td + n % TICKS_PER_EPOCH * td / TICKS_PER_EPOCH
}

/// The leader loop: ingest, distribute, reorganise, flush. Entered by
/// rank 0 at boot and by a promoted standby after winning an election —
/// the promoted path re-opens the arrival source and re-ingests from
/// sequence zero, relying on the slaves' delivery guards to drop
/// everything the dead leader already delivered.
///
/// Between slots the event-service loop sleeps from tick to tick,
/// takes the events that arrived meanwhile, ingests arrivals as they
/// fall due (source pull, routing, payload park —
/// [`Ingest::pull_until`]) and, every `t_d / 50` ([`TICKS_PER_EPOCH`]),
/// ships each slave that has acknowledged its last batch frame
/// (`Occupancy`, one per drained frame) what is buffered for it
/// ([`MasterCore::drain_for_idle`]). Slots are the paper's: at
/// `slot_at` every slave of the sub-group gets its batch, empty or not,
/// acknowledged or not, straight through `drain_for_slot` → encode →
/// send. An idle slave's tuples therefore wait at most a tick, a
/// saturated slave's (it acks late) exactly as long as the paper's
/// fixed pattern makes them, and nobody's longer than `t_d`. Lost acks make the run slower, never stuck. A batch
/// carries every buffered arrival with `at_us <= now`, clamped to the
/// horizon. A master behind schedule (a burst) finds every slot already
/// due and ingests in one pull at the slot.
fn lead<E: TransportEndpoint>(mut m: MasterShell<'_, E>) -> MasterOutcome {
    let cfg = m.io.cfg;
    let run_us_total = duration_us(cfg.run);
    let td = cfg.params.dist_epoch_us;
    let tr = cfg.params.reorg_epoch_us;
    let ng = cfg.params.ng;
    let mut ingest = Ingest::open(cfg);
    // A promoted leader resumes at the current protocol epoch (the
    // catch-up re-ingest drains past slots in one rapid burst) and at
    // the next whole reorg boundary; a boot leader starts at zero.
    let boot_us = m.now_us();
    m.tick = boot_us / td * TICKS_PER_EPOCH;
    m.skip_ticks_through(boot_us);
    let mut epoch = boot_us / td;
    let mut next_reorg = (boot_us / tr + 1) * tr;
    // The first tick beacons.
    m.role.tick(boot_us, &mut m.io);
    // Cooperative cancellation: polled between event-service slices (a
    // few ms of latency at most), it truncates the run to "now" and
    // falls through to the identical deterministic flush below.
    let cancelled = || cfg.cancel.as_ref().is_some_and(|c| c.is_cancelled());
    let mut cancel_hit = false;

    'run: loop {
        for slot in 0..ng {
            let slot_at = epoch * td + windjoin_core::subgroup::slot_offset_us(slot, ng, td);
            if slot_at >= run_us_total {
                break;
            }
            // Until the slot time: service incoming events, ingest what
            // has fallen due and feed the acknowledged slaves on the
            // ticks, so the slot itself only distributes.
            if !m.wait_until(&mut ingest, slot_at, run_us_total, cancelled) {
                cancel_hit = true;
                break 'run;
            }
            let batches = m.role.core_mut().drain_for_slot(slot);
            m.ship(&mut ingest.parked, batches);
        }
        epoch += 1;
        if let Some(k) = cfg.chaos_master {
            if k.master == m.midx && epoch >= k.after_epochs {
                // Chaos injection: the leader dies abruptly at a fixed
                // protocol point — no handover, exactly a crash.
                eprintln!("master {}: chaos kill while leading epoch {epoch}", m.midx);
                if k.exit_process {
                    std::process::exit(137);
                }
                return m.outcome(ingest.tuples_in, false);
            }
        }
        let now_us = epoch * td;
        // Reorganise while ingest remains. The cutoff derives from the
        // remaining arrival stream, not a wall-clock guard band: the
        // deterministic flush below waits for in-flight state moves
        // before shutdown anyway.
        let ingest_remaining = ingest.next.as_ref().is_some_and(|a| a.at_us <= run_us_total);
        if now_us >= next_reorg && ingest_remaining {
            m.role.reorg(now_us, &mut m.io);
            m.replay(&ingest);
            next_reorg += tr;
        }
        if cancelled() {
            cancel_hit = true;
            break;
        }
        if now_us >= run_us_total {
            break;
        }
    }

    // ---- Deterministic final flush -----------------------------------
    // A cancelled run flushes at the truncated horizon ("now"): every
    // arrival already ingested still reaches a slave and every derivable
    // pair still reaches the collector — the output set is simply that
    // of a shorter run.
    let flush_us_total = if cancel_hit { m.now_us().min(run_us_total) } else { run_us_total };
    // (1) Let the wall clock reach the horizon — emission must never
    // precede a tuple's logical arrival time — ingesting and ticking on
    // the way; the last pull takes every remaining arrival inside the
    // horizon. The cursor is the service loop's, so nothing is ingested
    // twice.
    m.wait_until(&mut ingest, flush_us_total, flush_us_total, || false);
    // (2) Wait for in-flight partition moves *before* the final drain:
    // `drain_for_slot` withholds tuples of held (moving) partitions,
    // so draining first would strand them in the buffer — and a
    // Shutdown racing a State transfer would strand tuples on the wire.
    // Kill-safe: a slave dying here surfaces as PeerDown/timeout, its
    // moves are cancelled or re-homed at live slaves, and the wait
    // ends when the *live* cluster has acked.
    let move_deadline = Instant::now() + Duration::from_secs(10);
    while !m.role.core().pending_moves().is_empty() && Instant::now() < move_deadline {
        let _ = m.serve(Duration::from_millis(20));
        m.replay(&ingest);
    }
    // (3) Drain every slot so no batch stays buffered. No reorg is
    // planned after the main loop, so nothing re-holds a partition.
    for slot in 0..ng {
        let batches = m.role.core_mut().drain_for_slot(slot);
        m.ship(&mut ingest.parked, batches);
        while let Some(ev) = m.io.ep.try_recv_event() {
            m.feed(ev);
        }
        m.role.tick(m.now_us(), &mut m.io);
        m.replay(&ingest);
    }
    // (3b) Whatever is still buffered now can never be delivered — a
    // stalled re-home kept its partition held past the deadline, or a
    // total-death episode left partitions with no live owner. Charge it
    // as lost instead of dropping it silently.
    let undelivered = m.role.core_mut().account_undelivered();
    if !undelivered.is_zero() {
        eprintln!(
            "master: {} buffered tuple(s) undeliverable at shutdown (stalled \
             re-home or dead owner); charged as lost",
            undelivered.tuples_lost
        );
    }
    // (4) Now the cluster may wind down. Serving stragglers until the
    // inbox falls quiet keeps slaves from blocking on a full master
    // inbox; then the standbys are released.
    m.role.shutdown(&mut m.io);
    while let Ok(true) = m.serve(Duration::from_millis(50)) {}
    m.role.release_standbys(&mut m.io);
    m.outcome(ingest.tuples_in, true)
}

/// Runs slave `index`'s loop on `ep` (rank `masters + index`) until the
/// leader's `Shutdown` (or `Leave`) arrives, beaconing heartbeats and
/// honouring the chaos fault-injection hooks. This is the I/O shell
/// around a [`SlaveRole`]: it receives with the beacon timeout, unseals
/// leader frames, decodes batches zero-copy into a reused buffer, times
/// the join module, ships each drained batch frame's results as one
/// `Outputs` frame and fires the chaos kill. Its wall time splits into
/// busy (the join module), idle (blocked in the endpoint's waits) and
/// communication (the rest: reading, decoding, encoding, sending).
/// What the slave does with each frame is the role's.
pub fn slave_node<E: TransportEndpoint>(ep: &E, index: usize, cfg: &NodeConfig) -> SlaveOutcome {
    let started = Instant::now();
    let waited_before = ep.waited();
    let mut role = SlaveRole::new(index, cfg);
    let mut io = NodeIo::new(ep, cfg);
    let mut work = WorkStats::default();
    let mut busy = Duration::ZERO;
    // Reused per-batch scratch: decoded tuples keep their capacity
    // across batches.
    let mut batch: Vec<Tuple> = Vec::new();
    let hb = cfg.heartbeat;
    let mut last_beacon = Instant::now();
    let chaos = cfg.chaos.iter().copied().find(|c| c.slave == index);
    let mut batches = 0u64;
    loop {
        // Liveness beacon: sent on schedule even when no frames arrive,
        // so the masters distinguish "idle" from "dead".
        if !hb.is_zero() && last_beacon.elapsed() >= hb {
            role.heartbeat(&mut io);
            last_beacon = Instant::now();
        }
        let ev = if hb.is_zero() {
            ep.recv_event().map(Some)
        } else {
            let wait = hb.saturating_sub(last_beacon.elapsed()).max(Duration::from_millis(1));
            ep.recv_event_timeout(wait)
        };
        let Ok(ev) = ev else { break };
        let frame = match ev {
            None => continue, // beacon tick
            Some(NetEvent::PeerDown(rank)) => match role.peer_down(rank, &mut io) {
                Next::Stop => break,
                _ => continue,
            },
            Some(NetEvent::Frame(f)) => f,
        };
        let from = frame.from;
        // Unwrap the term-stamped envelope on leader frames, dropping
        // anything from a deposed leader (zero-copy fast path: batches
        // never materialise a `Message`).
        let mut payload = frame.payload;
        if cfg.robust() && from < cfg.masters {
            if let Some((term, inner)) = Message::unseal(&payload) {
                if !role.admit_term(from, term) {
                    continue;
                }
                payload = inner;
            }
        }
        // Fast path: batches (the per-epoch hot frame) decode into the
        // reused tuple buffer without constructing a `Message`; on a
        // payload run the payloads stay in the frame, as a view of it,
        // until the core copies each into its partition's arena. (A
        // plain batch on a payload run carries none and stores nothing.)
        let decoded = (|| {
            if cfg.payload_bytes > 0 {
                if let Some(column) = Message::decode_payload_batch_view(&payload, &mut batch)? {
                    return Ok((true, Some(column)));
                }
            }
            Ok((Message::decode_batch_into(payload.clone(), &mut batch)?, None))
        })();
        let (is_batch, column) = match decoded {
            Ok(decoded) => decoded,
            Err(e) => {
                role.bad.malformed(from, e);
                continue;
            }
        };
        let t0 = Instant::now();
        let next = if is_batch {
            role.batch(from, &batch, column)
        } else {
            match Message::decode(payload) {
                Ok(msg) => role.message(from, msg, &mut work, &mut io),
                Err(e) => {
                    role.bad.malformed(from, e);
                    continue;
                }
            }
        };
        match next {
            Next::Wait => continue,
            Next::Stop => break,
            Next::Drain => {}
        }
        // Each partition's results join the batch's one `Outputs` frame
        // as that partition is drained. Encoding them is not
        // join-module time.
        io.ship = Duration::ZERO;
        role.drain(&mut work, &mut io);
        busy += t0.elapsed().saturating_sub(io.ship);
        // The results leave ahead of the ack, as ahead of any frame the
        // role sends. The role checkpoints before the chaos-kill check:
        // at `checkpoint_every == 1` every fully processed batch is
        // covered, so a crash right here loses nothing.
        batches = role.batch_drained(&mut io);
        if let Some(c) = chaos.filter(|c| c.after_batches == batches) {
            // Chaos injection: die abruptly at a fixed protocol point —
            // no goodbye, no flush, exactly a crash.
            if c.exit_process {
                eprintln!("slave {index}: chaos kill after {batches} batches");
                std::process::exit(137);
            }
            break;
        }
    }
    // The endpoint's wire-volume counters ride the counted work into
    // `RunReport`.
    let wire = ep.wire_stats();
    work.bytes_sent += wire.bytes_sent;
    work.bytes_recvd += wire.bytes_recvd;
    let idle = ep.waited().saturating_sub(waited_before);
    let comm = started.elapsed().saturating_sub(busy + idle);
    let (peak_state_bytes, frames_dropped) = role.finish();
    SlaveOutcome {
        work,
        busy_us: duration_us(busy),
        comm_us: duration_us(comm),
        idle_us: duration_us(idle),
        thread_cpu_us: duration_us(thread_cpu_time()),
        frames_dropped,
        peak_state_bytes,
        batches,
        outputs_frames: io.outputs_frames,
    }
}

/// A role's frames over a transport endpoint, all encoded into one
/// reused buffer (sends are allocation-free over TCP: `send_slice`
/// writes straight from it). A slave's results collect in one `Outputs`
/// frame that leaves before any other frame the role sends — so with
/// the drained batch frame's ack — or once it holds
/// [`OUTPUTS_PER_FRAME`] pairs.
struct NodeIo<'a, E: TransportEndpoint> {
    ep: &'a E,
    cfg: &'a NodeConfig,
    scratch: Vec<u8>,
    /// The term-sealed copy of a leader's batch frame.
    sealed: Vec<u8>,
    /// The `Outputs` frame under construction, and its pair count.
    outputs: Vec<u8>,
    outputs_pairs: usize,
    /// `Outputs` frames sent.
    outputs_frames: u64,
    /// Wall-clock time spent encoding and shipping outputs since the
    /// driver last reset it.
    ship: Duration,
}

impl<'a, E: TransportEndpoint> NodeIo<'a, E> {
    fn new(ep: &'a E, cfg: &'a NodeConfig) -> Self {
        NodeIo {
            ep,
            cfg,
            scratch: Vec::new(),
            sealed: Vec::new(),
            outputs: Vec::new(),
            outputs_pairs: 0,
            outputs_frames: 0,
            ship: Duration::ZERO,
        }
    }

    /// The leader's one batch path, for slots, ticks and replayed tails
    /// alike: encodes `batch` for `slave` with its payloads taken from
    /// `parked`, seals it under `term` when the control plane is
    /// replicated, and sends it from the reused buffers.
    fn send_batch(&mut self, slave: usize, batch: &[Tuple], parked: &mut Parked, term: u64) {
        parked.encode_batch(batch, &mut self.scratch);
        let rank = self.cfg.slave_rank(slave);
        if self.cfg.robust() {
            Message::seal_into(term, &self.scratch, &mut self.sealed);
            let _ = self.ep.send_slice(rank, &self.sealed);
        } else {
            let _ = self.ep.send_slice(rank, &self.scratch);
        }
    }

    /// Sends the `Outputs` frame under construction, if it holds any
    /// pair.
    fn flush_outputs(&mut self) {
        if self.outputs_pairs == 0 {
            return;
        }
        let _ = self.ep.send_slice(self.cfg.collector_rank(), &self.outputs);
        self.outputs.clear();
        self.outputs_pairs = 0;
        self.outputs_frames += 1;
    }
}

impl<E: TransportEndpoint> RoleIo for NodeIo<'_, E> {
    fn send(&mut self, to: Dest, msg: Message) {
        self.flush_outputs();
        let rank = match to {
            Dest::Master(m) => m,
            Dest::Slave(s) => self.cfg.slave_rank(s),
            Dest::Collector => self.cfg.collector_rank(),
        };
        msg.encode_into(&mut self.scratch);
        let _ = self.ep.send_slice(rank, &self.scratch);
    }

    /// Appends `pairs`, in emission order, to the `Outputs` frame under
    /// construction, sending it whenever it fills.
    fn outputs(&mut self, mut pairs: &[OutPair]) {
        let shipping = Instant::now();
        while !pairs.is_empty() {
            let (now, later) =
                pairs.split_at(pairs.len().min(OUTPUTS_PER_FRAME - self.outputs_pairs));
            Message::append_outputs_into(now, &mut self.outputs);
            self.outputs_pairs += now.len();
            if self.outputs_pairs == OUTPUTS_PER_FRAME {
                self.flush_outputs();
            }
            pairs = later;
        }
        self.ship += shipping.elapsed();
    }
}

/// Most result pairs one `Outputs` frame carries: 40 wire bytes each,
/// so a frame stays under 64 KiB, the most the socket endpoint reads in
/// one piece (a larger frame gets a buffer of its own). A paced slave's
/// drain stays below it and ships one frame per batch frame; a
/// saturated slave's drain matches far more and ships a frame per 1 600
/// pairs as it goes, so the collector folds while the slave still
/// joins. (At 65 536 pairs a frame, `hot_keys` bursts lost 10–20 % of
/// their throughput on the collector.) The collector folds any number
/// of frames per slave.
const OUTPUTS_PER_FRAME: usize = 1_600;

/// Runs the collector loop on `ep` (rank `m + n`) until every slave has
/// flushed — by `Shutdown`/`Goodbye` marker, by the leader's death
/// notice or, kill-safely, by its connection tearing down. The loop is
/// the I/O shell around a [`CollectorRole`]: it receives, unseals leader
/// frames, decodes `Outputs` into a reused buffer and stamps each with
/// its wall-clock emission time.
pub fn collector_node<E: TransportEndpoint>(ep: &E, cfg: &NodeConfig) -> CollectorOutcome {
    let start = Instant::now();
    let mut role = CollectorRole::new(cfg);
    let mut pairs: Vec<OutPair> = Vec::new();
    while !role.done() {
        let Ok(ev) = ep.recv_event() else { break };
        let frame = match ev {
            NetEvent::PeerDown(rank) => {
                role.peer_down(rank);
                continue;
            }
            NetEvent::Frame(f) => f,
        };
        let from = frame.from;
        // Unwrap sealed leader frames, dropping deposed-leader ones.
        let mut payload = frame.payload;
        if cfg.robust() && from < cfg.masters {
            if let Some((term, inner)) = Message::unseal(&payload) {
                if !role.admit_term(term) {
                    continue;
                }
                payload = inner;
            }
        }
        // Fast path: result frames (nearly all of the collector's
        // traffic) decode into the reused pair buffer without
        // constructing a `Message`. One emission time per frame.
        match Message::decode_outputs_into(payload.clone(), &mut pairs) {
            Ok(true) => role.outputs(from, &pairs, start.elapsed().as_micros() as u64),
            Ok(false) => match Message::decode(payload) {
                Ok(msg) => role.message(from, msg),
                Err(e) => role.bad.malformed(from, e),
            },
            Err(e) => role.bad.malformed(from, e),
        }
    }
    let (fold, frames_dropped) = role.finish();
    let wire = ep.wire_stats();
    CollectorOutcome {
        delay: fold.delay,
        captured: fold.captured,
        checksum: fold.checksum,
        outputs_total: fold.outputs_total,
        bytes_sent: wire.bytes_sent,
        bytes_recvd: wire.bytes_recvd,
        frames_dropped,
        thread_cpu_us: duration_us(thread_cpu_time()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::CancelToken;
    use std::sync::{Arc, Mutex};
    use std::thread;
    use windjoin_core::hash::partition_of;
    use windjoin_core::{reference_join, ExactEngine, Side, SlaveCore};
    use windjoin_net::{ChannelEndpoint, ChannelNetwork};

    #[test]
    fn validate_accepts_each_runtime_and_rejects_every_inconsistency() {
        let paper = NodeConfig::paper_default(4);
        assert_eq!((paper.run.as_secs(), paper.warmup.as_secs()), (1200, 600));
        assert_eq!((paper.slaves, paper.total_slaves), (4, 4));
        let demo = NodeConfig::demo(2);
        let with = |base: &NodeConfig, edit: fn(&mut NodeConfig)| {
            let mut cfg = base.clone();
            edit(&mut cfg);
            cfg
        };
        let pooled = with(&paper, |c| {
            c.slaves = 1;
            c.adaptive_dod = true;
            c.adaptive_epoch = Some(EpochTuning::default());
        });
        for (cfg, runtime) in [
            (&paper, Runtime::Sim),
            (&pooled, Runtime::Sim),
            (&demo, Runtime::Threaded),
            (&demo, Runtime::Tcp),
        ] {
            cfg.validate(runtime).unwrap_or_else(|e| panic!("{runtime:?}: {e}"));
        }
        assert_eq!(demo.role_of(0, 4), Ok(Role::Master(0)));
        assert_eq!(demo.role_of(2, 4), Ok(Role::Slave(1)));
        assert_eq!(demo.role_of(3, 4), Ok(Role::Collector));

        let rejected = [
            ("zero slaves", with(&demo, |c| c.slaves = 0).validate(Runtime::Sim)),
            ("zero masters", with(&demo, |c| c.masters = 0).validate(Runtime::Threaded)),
            ("slaves > total_slaves", with(&paper, |c| c.slaves = 5).validate(Runtime::Sim)),
            ("warm-up >= run", with(&paper, |c| c.warmup = c.run).validate(Runtime::Sim)),
            (
                "adaptive epoch with ng != 1",
                with(&pooled, |c| c.params.ng = 2).validate(Runtime::Sim),
            ),
            (
                "invalid epoch tuning",
                with(&paper, |c| {
                    c.adaptive_epoch = Some(EpochTuning { min_us: 0, ..EpochTuning::default() })
                })
                .validate(Runtime::Sim),
            ),
            ("bad params", with(&demo, |c| c.params.npart = 0).validate(Runtime::Tcp)),
            ("NaN rate", with(&demo, |c| c.rate = f64::NAN).validate(Runtime::Tcp)),
            ("negative rate", with(&paper, |c| c.rate = -1.0).validate(Runtime::Sim)),
            (
                "b-model bias below 0.5",
                with(&demo, |c| c.keys = KeyDist::BModel { bias: 0.2, domain: 100 })
                    .validate(Runtime::Tcp),
            ),
            (
                "empty key domain in the source",
                with(&demo, |c| {
                    c.source = Some(SourceSpec::synthetic(9.0, KeyDist::Uniform { domain: 0 }))
                })
                .validate(Runtime::Threaded),
            ),
            ("spare slaves in real time", pooled.validate(Runtime::Threaded)),
            (
                "epoch tuning in real time",
                with(&demo, |c| c.adaptive_epoch = Some(EpochTuning::default()))
                    .validate(Runtime::Tcp),
            ),
            (
                "payloads on the simulator",
                with(&paper, |c| c.payload_bytes = 8).validate(Runtime::Sim),
            ),
            ("peer count != ranks", demo.role_of(0, 3).map(drop)),
            ("rank out of range", demo.role_of(4, 4).map(drop)),
        ];
        for (case, result) in rejected {
            assert!(result.is_err(), "{case}: accepted");
        }
        assert!(matches!(
            with(&pooled, |c| c.adaptive_epoch = None).validate(Runtime::Tcp),
            Err(ConfigError::Unsupported { why }) if why.contains("spare slaves")
        ));
    }

    #[test]
    fn drain_larger_than_one_frame_reaches_the_collector_whole() {
        let mut cfg = NodeConfig::demo(1);
        cfg.capture_outputs = true;
        cfg.warmup = Duration::ZERO;
        let delivered: Arc<Mutex<Vec<Vec<OutPair>>>> = Arc::default();
        let seen = Arc::clone(&delivered);
        cfg.sink = Some(StreamingSink::new(move |pairs: &[OutPair]| {
            seen.lock().expect("sink").push(pairs.to_vec());
        }));
        let mut net = ChannelNetwork::new(cfg.ranks(), 16);
        let slave = net.take(cfg.slave_rank(0));
        let collector = net.take(cfg.collector_rank());

        let n = 2 * OUTPUTS_PER_FRAME as u64 + 17;
        let out: Vec<OutPair> =
            (0..n).map(|i| OutPair { key: i % 7, left: (i, i), right: (i + 1, 3 * i) }).collect();
        let mut io = NodeIo::new(&slave, &cfg);
        // Pieces of a drain, as partitions deliver them.
        for piece in out.chunks(OUTPUTS_PER_FRAME / 3 + 5) {
            io.outputs(piece);
        }
        io.send(Dest::Collector, Message::Shutdown);
        assert_eq!(io.outputs_frames, 3);

        let got = collector_node(&collector, &cfg);
        // The per-pair fold the bulk path replaced.
        let (mut count, mut checksum) = (0u64, 0u64);
        for p in &out {
            count += 1;
            checksum ^= p.digest();
        }
        assert_eq!(got.outputs_total, count);
        assert_eq!(got.checksum, checksum);
        assert_eq!(got.delay.count(), count, "every pair is past the (zero) warm-up");
        assert_eq!(got.captured, out, "captured in emission order");
        let delivered = delivered.lock().expect("sink");
        let sizes: Vec<usize> = delivered.iter().map(Vec::len).collect();
        assert_eq!(sizes, [OUTPUTS_PER_FRAME, OUTPUTS_PER_FRAME, 17], "two full frames + rest");
        assert_eq!(delivered.concat(), out, "the sink sees every frame, in order");
    }

    /// The arrivals of `cfg`'s source, in source order, as tuples.
    fn source_tape(cfg: &NodeConfig) -> impl Iterator<Item = Tuple> {
        let mut src = cfg.source_spec().open(cfg.seed, 0);
        std::iter::from_fn(move || {
            let a = src.next_arrival()?;
            Some(Tuple::new(a.side, a.at_us, a.key, a.seq))
        })
    }

    #[test]
    fn a_drain_touching_several_partitions_sends_exactly_one_outputs_frame() {
        let mut cfg = NodeConfig::demo(1); // one slave owns all 16 partitions
        cfg.heartbeat = Duration::ZERO;
        let deliveries: Arc<Mutex<Vec<Vec<OutPair>>>> = Arc::default();
        let seen = Arc::clone(&deliveries);
        cfg.sink = Some(StreamingSink::new(move |pairs: &[OutPair]| {
            seen.lock().expect("sink").push(pairs.to_vec());
        }));
        let mut net = ChannelNetwork::new(cfg.ranks(), 64);
        let master = net.take(0);
        let slave = net.take(cfg.slave_rank(0));
        let collector = net.take(cfg.collector_rank());

        // Twelve keys, each with a left and two right tuples: matches
        // in several partitions of the one batch.
        let mut batch: Vec<Tuple> = (0..12u64)
            .flat_map(|k| {
                [
                    Tuple::new(Side::Left, 100 + k, k, k),
                    Tuple::new(Side::Right, 200 + k, k, k),
                    Tuple::new(Side::Right, 300 + k, k, 12 + k),
                ]
            })
            .collect();
        batch.sort_unstable_by_key(|t| t.t);
        // The single-frame result: the same batch collected whole.
        let mut whole: SlaveCore<ExactEngine> = SlaveCore::new(0, cfg.params.clone());
        for pid in 0..cfg.params.npart {
            whole.create_group(pid);
        }
        let (mut expected, mut work) = (Vec::new(), WorkStats::default());
        whole.receive_batch_slice(&batch);
        whole.process_pending(&mut expected, &mut work);
        assert_eq!(expected.len(), 24);
        let npart = cfg.params.npart;
        let mut pids: Vec<u32> = expected.iter().map(|p| partition_of(p.key, npart)).collect();
        pids.dedup();
        assert!(pids.len() >= 2, "the batch matches in several partitions: {pids:?}");

        let to_slave = cfg.slave_rank(0);
        master.send(to_slave, Message::Batch(batch).encode()).expect("slave inbox");
        master.send(to_slave, Message::Shutdown.encode()).expect("slave inbox");
        let slave_out = slave_node(&slave, 0, &cfg);
        assert_eq!(slave_out.work.emitted, 24);
        assert_eq!((slave_out.batches, slave_out.outputs_frames), (1, 1));
        // The frame leaves ahead of the batch's ack.
        match master.try_recv_event() {
            Some(NetEvent::Frame(f)) => {
                assert!(matches!(Message::decode(f.payload), Ok(Message::Occupancy(_))))
            }
            other => panic!("expected the ack, got {other:?}"),
        }
        let got = collector_node(&collector, &cfg);

        let deliveries = deliveries.lock().expect("sink");
        assert_eq!(deliveries.len(), 1, "one frame for the whole drain");
        assert_eq!(deliveries[0], expected, "the frame differs from the whole drain");
        assert_eq!(got.outputs_total, expected.len() as u64);
        assert_eq!(got.checksum, expected.iter().fold(0, |acc, p| acc ^ p.digest()));
    }

    /// Runs rank 0's leader loop against fake slaves and returns its
    /// outcome, every tuple it distributed and the batch frames each
    /// slave got. Slaves that `ack` answer each batch frame with the
    /// `Occupancy` report a real slave sends once it has drained it;
    /// the others never answer.
    fn lead_alone(cfg: &NodeConfig, ack: bool) -> (MasterOutcome, Vec<Tuple>, Vec<u64>) {
        let mut net = ChannelNetwork::new(cfg.ranks(), 4096);
        let master = net.take(0);
        let slaves: Vec<ChannelEndpoint> =
            (0..cfg.slaves).map(|s| net.take(cfg.slave_rank(s))).collect();
        let (outcome, fakes) = thread::scope(|scope| {
            let fakes: Vec<_> =
                slaves.iter().map(|ep| scope.spawn(move || fake_slave(ep, ack))).collect();
            let outcome = master_node(&master, cfg);
            (outcome, fakes.into_iter().map(|f| f.join().expect("fake slave")).collect::<Vec<_>>())
        });
        let mut delivered = Vec::new();
        let mut frames = Vec::new();
        for (ep, (tuples, n)) in slaves.iter().zip(fakes) {
            let mut batch = Vec::new();
            while let Some(ev) = ep.try_recv_event() {
                let NetEvent::Frame(frame) = ev else { continue };
                let is_batch = Message::decode_batch_into(frame.payload, &mut batch);
                assert!(!is_batch.expect("frame"), "a batch after the shutdown marker");
            }
            delivered.extend(tuples);
            frames.push(n);
        }
        delivered.sort_unstable_by_key(|t| (t.side, t.seq));
        (outcome, delivered, frames)
    }

    /// One fake slave: the batch frames it gets until the shutdown
    /// marker, and how many there were.
    fn fake_slave(ep: &ChannelEndpoint, ack: bool) -> (Vec<Tuple>, u64) {
        let (mut delivered, mut frames, mut batch) = (Vec::new(), 0, Vec::new());
        loop {
            let ev = ep.recv_event_timeout(Duration::from_secs(30)).expect("mesh");
            let Some(NetEvent::Frame(frame)) = ev.or_else(|| panic!("the leader went quiet"))
            else {
                continue;
            };
            if Message::decode_batch_into(frame.payload.clone(), &mut batch).expect("frame") {
                delivered.extend_from_slice(&batch);
                frames += 1;
                if ack {
                    ep.send(0, Message::Occupancy(0.0).encode()).expect("leader inbox");
                }
            } else {
                assert_eq!(Message::decode(frame.payload).expect("frame"), Message::Shutdown);
                return (delivered, frames);
            }
        }
    }

    fn lead_alone_cfg() -> NodeConfig {
        let mut cfg = NodeConfig::demo(2); // 200 ms distribution epochs
        cfg.heartbeat = Duration::ZERO; // nobody answers: no liveness verdicts
        cfg.rate = 2_000.0;
        cfg
    }

    #[test]
    fn run_shorter_than_an_epoch_ingests_exactly_its_horizon() {
        // Slot 0 fires at time zero with nothing due; everything else
        // is ingested by the flush wait and its closing pull.
        let mut cfg = lead_alone_cfg();
        cfg.run = Duration::from_millis(120);
        let (outcome, delivered, _) = lead_alone(&cfg, false);
        let mut expected: Vec<Tuple> = source_tape(&cfg).take_while(|t| t.t <= 120_000).collect();
        expected.sort_unstable_by_key(|t| (t.side, t.seq));
        assert!(expected.len() > 300);
        assert_eq!(outcome.tuples_in, expected.len() as u64);
        assert_eq!(delivered, expected, "ingested set is not the source up to the horizon");
    }

    #[test]
    fn slaves_that_never_ack_get_one_frame_per_slot_and_nothing_between() {
        // Nothing in flight before slot 0 fires at time zero, and no ack
        // ever after: every tick passes these slaves by.
        let mut cfg = lead_alone_cfg();
        cfg.run = Duration::from_millis(1_000);
        let (outcome, delivered, frames) = lead_alone(&cfg, false);
        // Slots at 0, 200, ..., 800 ms, then the flush's.
        assert_eq!(frames, [6, 6], "batch frames per slave");
        let mut expected: Vec<Tuple> = source_tape(&cfg).take_while(|t| t.t <= 1_000_000).collect();
        expected.sort_unstable_by_key(|t| (t.side, t.seq));
        assert_eq!(outcome.tuples_in, expected.len() as u64);
        assert_eq!(delivered, expected, "delivered set is not the source up to the horizon");
    }

    #[test]
    fn acking_slaves_get_at_most_one_frame_per_tick_and_exactly_the_source() {
        // Slaves that ack every frame are fed on the ticks between the
        // slots too — never twice on one tick, since a frame waits for
        // the ack of the one before.
        let mut cfg = lead_alone_cfg();
        cfg.run = Duration::from_millis(1_000);
        let (outcome, delivered, frames) = lead_alone(&cfg, true);
        // Five 200 ms epochs of 50 ticks and a slot each, then the
        // flush's frame.
        let most = 5 * (TICKS_PER_EPOCH + 1) + 1;
        for &n in &frames {
            assert!(n > 6 && n <= most, "{n} batch frames, slots alone give 6, at most {most}");
        }
        let mut expected: Vec<Tuple> = source_tape(&cfg).take_while(|t| t.t <= 1_000_000).collect();
        expected.sort_unstable_by_key(|t| (t.side, t.seq));
        assert_eq!(outcome.tuples_in, expected.len() as u64);
        assert_eq!(delivered, expected, "delivered set is not the source up to the horizon");
    }

    #[test]
    fn the_leader_wakes_once_per_tick_however_often_slaves_ack() {
        // Two slaves ack every frame, so an ack lands between most
        // ticks; the leader takes them at its ticks instead of waking
        // for each.
        let mut cfg = lead_alone_cfg();
        cfg.run = Duration::from_millis(1_000);
        let (outcome, _, frames) = lead_alone(&cfg, true);
        let acks: u64 = frames.iter().sum();
        let (ticks, slots) = (5 * TICKS_PER_EPOCH, 5 * cfg.params.ng as u64);
        assert!(acks > ticks, "{acks} acks: the slaves kept up with the ticks");
        assert!(
            outcome.wakeups <= ticks + slots + 10,
            "{} wake-ups over {ticks} ticks, {slots} slots and {acks} acks",
            outcome.wakeups
        );
    }

    #[test]
    fn cancel_mid_epoch_flushes_what_the_service_loop_ingested_once() {
        let mut cfg = lead_alone_cfg();
        cfg.run = Duration::from_secs(5);
        let token = CancelToken::new();
        cfg.cancel = Some(token.clone());
        // Mid-way through the second epoch: the service loop has taken
        // ~130 ms of arrivals no slot has distributed yet.
        let canceller = thread::spawn(move || {
            thread::sleep(Duration::from_millis(330));
            token.cancel();
        });
        let called = Instant::now();
        let (outcome, delivered, _) = lead_alone(&cfg, false);
        let elapsed_us = called.elapsed().as_micros() as u64;
        canceller.join().expect("canceller");

        // Exactly a prefix of the source: nothing twice, nothing skipped.
        let mut tape = source_tape(&cfg);
        let mut expected: Vec<Tuple> = tape.by_ref().take(outcome.tuples_in as usize).collect();
        let horizon_us = expected.last().expect("something was ingested").t;
        assert!(horizon_us >= 250_000, "truncated at {horizon_us} us, before the cancel");
        assert!(horizon_us <= elapsed_us, "ingested past the truncated horizon");
        assert!(tape.next().expect("the source goes on").t >= horizon_us);
        expected.sort_unstable_by_key(|t| (t.side, t.seq));
        assert_eq!(delivered, expected, "ingested set is not a source prefix");
    }

    #[test]
    fn a_held_partition_pins_only_its_own_parked_payloads() {
        use windjoin_core::payload::CHUNK_BYTES;
        const WIDTH: usize = 512;
        const HELD: usize = 3;
        let mut cfg = NodeConfig::demo(2);
        cfg.payload_bytes = WIDTH;
        let npart = cfg.params.npart;
        let pid_of = |t: &Tuple| partition_of(t.key, npart) as usize;
        let payload_of = |t: &Tuple| [(t.seq * 2 + t.side as u64) as u8; WIDTH];
        let mut parked = Parked::new(&cfg);
        let (mut seqs, mut enc, mut decoded) = ([0u64; 2], Vec::new(), Vec::new());
        let mut held_back: Vec<Tuple> = Vec::new();
        for epoch in 0..100u64 {
            // One epoch of ingest: every partition parks its share; a
            // state move keeps partition `HELD` out of the slot.
            let mut batch = Vec::new();
            for i in 0..1_500u64 {
                let side = Side::from_index((i % 2) as usize);
                let t =
                    Tuple::new(side, epoch * 50_000 + i, epoch * 1_500 + i, seqs[i as usize % 2]);
                seqs[i as usize % 2] += 1;
                parked.park(&t, &payload_of(&t));
                if pid_of(&t) == HELD {
                    held_back.push(t);
                } else {
                    batch.push(t);
                }
            }
            // The slot's batch: whole partitions, each in arrival order.
            batch.sort_by_key(pid_of);
            parked.encode_batch(&batch, &mut enc);

            // The frame carries every tuple's own bytes ...
            let column = Message::decode_payload_batch_view(&enc, &mut decoded);
            let column = column.expect("well-formed").expect("a payload batch");
            assert_eq!(decoded, batch);
            assert!(column.iter().zip(&batch).all(|(p, t)| p == payload_of(t)));
            // ... and what is left is the held partition's, alone: the
            // other partitions' chunks went with their payloads.
            let held = &parked.stores[HELD];
            let heap: usize = parked.stores.iter().map(PayloadStore::heap_bytes).sum();
            assert_eq!(heap, held.heap_bytes(), "epoch {epoch}: a drained partition holds memory");
            assert!(held.len() as u64 > (epoch + 1) * 1_500 / 32, "the held partition parks");
            assert!(
                heap <= held.bytes() + 40 * held.len() + 2 * 2 * CHUNK_BYTES,
                "epoch {epoch}: {heap} heap bytes parked for {} payload bytes",
                held.bytes()
            );
        }
        // The move completes: the next slot takes the backlog, in order.
        assert!(held_back.len() > 4_000);
        parked.encode_batch(&held_back, &mut enc);
        let column = Message::decode_payload_batch_view(&enc, &mut decoded);
        let column = column.expect("well-formed").expect("a payload batch");
        assert!(column.iter().zip(&held_back).all(|(p, t)| p == payload_of(t)));
        assert_eq!(parked.stores.iter().map(PayloadStore::heap_bytes).sum::<usize>(), 0);
    }

    #[test]
    fn restore_installs_a_checkpoint_only_when_registered_and_never_wipes_an_owned_group() {
        let mut cfg = NodeConfig::demo(2);
        cfg.masters = 3;
        cfg.heartbeat = Duration::ZERO;
        cfg.checkpoint_every = 1; // delivery guards on
        let npart = cfg.params.npart;
        let key_of = |pid: u32| (0..).find(|&k| partition_of(k, npart) == pid).expect("a key");
        // Slave 0 owns the even partitions.
        let (fresh, owned, restored) = (1u32, 0u32, 3u32);
        let (kf, ko, kr) = (key_of(fresh), key_of(owned), key_of(restored));
        let left = |key, seq| Tuple::new(Side::Left, 1_000 + seq, key, seq);
        let right = |key, seq| Tuple::new(Side::Right, 2_000 + seq, key, seq);
        // A buddy's checkpoint of `pid` holding one left tuple.
        let checkpoint = |pid, t: Tuple| {
            let mut holder: SlaveCore<ExactEngine> = SlaveCore::new(1, cfg.params.clone());
            holder.enable_dedupe();
            holder.create_group(pid);
            holder.receive_batch_slice(&[t]);
            holder.process_pending(&mut Vec::new(), &mut WorkStats::default());
            let (state, pending, payloads) = holder.snapshot_group(pid).expect("owned");
            let (seen_left, seen_right) = holder.seen_of(pid);
            Message::Checkpoint { pid, seen_left, seen_right, state, pending, payloads }
        };
        let mut net = ChannelNetwork::new(cfg.ranks(), 256);
        let masters: Vec<ChannelEndpoint> = (0..cfg.masters).map(|m| net.take(m)).collect();
        let (slave, buddy) = (net.take(cfg.slave_rank(0)), net.take(cfg.slave_rank(1)));
        let collector = net.take(cfg.collector_rank());
        let send = |from: &ChannelEndpoint, msg: Message| {
            from.send(cfg.slave_rank(0), msg.encode()).expect("slave inbox");
        };

        send(&masters[0], Message::Batch(vec![left(ko, 0)]));
        // A snapshot the master never registered, and one it did.
        send(&buddy, checkpoint(fresh, left(kf, 10)));
        send(&buddy, checkpoint(restored, left(kr, 20)));
        for (pid, checkpoint) in [(fresh, false), (owned, false), (restored, true)] {
            send(&masters[0], Message::Restore { pid, checkpoint });
        }
        // The restored left tuple comes again, as a replayed tail would
        // bring it: the installed guard drops the copy.
        let probe = vec![left(kr, 20), right(kf, 0), right(ko, 1), right(kr, 2)];
        send(&masters[0], Message::Batch(probe));
        send(&masters[0], Message::Shutdown);
        slave_node(&slave, 0, &cfg);

        fn frames(ep: &ChannelEndpoint) -> Vec<Message> {
            std::iter::from_fn(|| ep.try_recv_event())
                .filter_map(|ev| match ev {
                    NetEvent::Frame(f) => Message::decode(f.payload).ok(),
                    NetEvent::PeerDown(_) => None,
                })
                .collect()
        }
        let mut pairs: Vec<(u64, u64, u64)> = frames(&collector)
            .into_iter()
            .flat_map(|m| match m {
                Message::Outputs(out) => out,
                _ => Vec::new(),
            })
            .map(|p| (p.key, p.left.1, p.right.1))
            .collect();
        pairs.sort_unstable();
        // (a) the fresh install ignored the stale snapshot: no pair for
        // `kf`; (b) the owned window kept its left tuple; (c) the
        // snapshot's tuple matches, exactly once.
        let mut want = vec![(ko, 0, 1), (kr, 20, 2)];
        want.sort_unstable();
        assert_eq!(pairs, want);
        for (m, ep) in masters.iter().enumerate() {
            let acked: Vec<u32> = frames(ep)
                .into_iter()
                .filter_map(|msg| match msg {
                    Message::MoveComplete { pid } => Some(pid),
                    _ => None,
                })
                .collect();
            assert_eq!(acked, [fresh, owned, restored], "master {m}");
        }
    }

    #[test]
    fn bad_frames_are_dropped_and_counted_without_hurting_the_run() {
        let mut cfg = NodeConfig::demo(2);
        cfg.run = Duration::from_millis(1_500);
        cfg.warmup = Duration::ZERO;
        cfg.rate = 400.0;
        cfg.keys = KeyDist::Uniform { domain: 300 };
        let tape: Vec<Tuple> = source_tape(&cfg).take_while(|t| t.t <= 1_500_000).collect();
        let oracle = reference_join(&tape, &cfg.params.sem);
        assert!(oracle.len() > 100);

        // One rank more than the topology: the intruder.
        let mut net = ChannelNetwork::new(cfg.ranks() + 1, 4096);
        let cfg = Arc::new(cfg);
        let master = {
            let (ep, cfg) = (net.take(0), Arc::clone(&cfg));
            thread::spawn(move || master_node(&ep, &cfg))
        };
        let slaves: Vec<_> = (0..cfg.slaves)
            .map(|i| {
                let (ep, cfg) = (net.take(cfg.slave_rank(i)), Arc::clone(&cfg));
                thread::spawn(move || slave_node(&ep, i, &cfg))
            })
            .collect();
        let collector = {
            let (ep, cfg) = (net.take(cfg.collector_rank()), Arc::clone(&cfg));
            thread::spawn(move || collector_node(&ep, &cfg))
        };
        let intruder = net.take(cfg.ranks());
        thread::sleep(Duration::from_millis(500)); // mid-run
        let garbage = vec![0xEE, 1, 2, 3];
        let frame = |msg: Message| msg.encode().to_vec();
        let (slave0, coll) = (cfg.slave_rank(0), cfg.collector_rank());
        for (to, bytes) in [
            (slave0, garbage.clone()),
            (slave0, frame(Message::Outputs(Vec::new()))),
            (coll, garbage.clone()),
            // A death notice not from a master, a flush marker not from
            // a slave: believing either would end the collection early.
            (coll, frame(Message::Dead { slave: 0 })),
            (coll, frame(Message::Shutdown)),
            (coll, frame(Message::MoveDirective { pid: 0, to: 1 })),
            (0, garbage.clone()),
            (0, frame(Message::Outputs(Vec::new()))),
            // Leader-only frames and forged results from outside the
            // topology: believing any would stop a slave early, re-point
            // its leader, join a foreign tuple or corrupt the fold.
            (slave0, frame(Message::Shutdown)),
            (slave0, frame(Message::MasterHeartbeat { term: 9, commit: 0 })),
            (slave0, frame(Message::Batch(vec![Tuple::new(Side::Left, 600_000, 7, 1 << 40)]))),
            (slave0, frame(Message::Restore { pid: 4000, checkpoint: false })),
            (coll, frame(Message::Outputs(vec![OutPair { key: 7, left: (1, 2), right: (3, 4) }]))),
            (coll, frame(Message::MasterHeartbeat { term: 9, commit: 0 })),
        ] {
            intruder.send_slice(to, &bytes).expect("inbox");
        }

        let m = master.join().expect("master");
        let s: Vec<SlaveOutcome> = slaves.into_iter().map(|h| h.join().expect("slave")).collect();
        let c = collector.join().expect("collector");
        assert_eq!((m.frames_dropped, s[0].frames_dropped, s[1].frames_dropped), (2, 6, 0));
        assert_eq!(c.frames_dropped, 6);
        assert_eq!(m.tuples_in, tape.len() as u64);
        assert_eq!(c.outputs_total, oracle.len() as u64);
        assert_eq!(c.checksum, oracle.iter().fold(0, |acc, p| acc ^ p.digest()));
    }
}
