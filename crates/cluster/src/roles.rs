//! The master, slave and collector protocols as sans-IO state machines.
//!
//! [`MasterRole`] is the control plane (§IV-C, §V-A): it records
//! occupancy reports, plans repartitioning and declustering, replicates
//! each decision through the quorum log, sends the move directives and
//! re-homes a committed decision releases, tracks slave liveness, and —
//! standing by — mirrors the leader's log and takes over by election.
//! [`SlaveRole`] is a slave's whole part in the protocol (§IV-C/§IV-D,
//! Fig. 2): buffer and join the leader's batches, move a partition-group
//! on its directive, shelve a buddy's checkpoints and restore one on a
//! re-home, and follow the leader across terms. [`CollectorRole`] tracks
//! which slaves have flushed and folds their results through the one
//! [`OutputFold`]. None touches a socket or a clock: the driver feeds
//! inputs in, passes the run clock in as `now_us` where time matters,
//! and carries frames out through a [`RoleIo`]. The node loops
//! ([`crate::nodes`]) drive all three over a transport, the simulator
//! ([`crate::simrt`]) drives `MasterRole` and `SlaveRole` through its
//! event queue.
//!
//! Each role classifies the sender once, at its input boundary: frames
//! only the leader sends are taken from master ranks only, frames only
//! slaves send (`State`, `Seen`, `Checkpoint`, `Outputs`, one flush
//! marker each, and every report or ack a master takes) from slave ranks
//! only, the election and log traffic from master ranks only, and
//! partition ids must be below `npart` and slave indexes below the slave
//! count. Anything else is dropped and counted.

use crate::api::StreamingSink;
use crate::nodes::{initial_partitions, MasterOutcome, NodeConfig};
use std::sync::Arc;
use windjoin_core::{
    CheckpointStore, ControlLog, Decision, Election, ExactEngine, GroupState, MasterCore, OutPair,
    PartitionCheckpoint, Rehome, SlaveCore, Tuple, WorkStats,
};
use windjoin_metrics::{DelayTracker, TimeSeries};
use windjoin_net::wire::{PayloadColumn, WireError};
use windjoin_net::{Frame, Message, WireStats};

/// Where a role's frame goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// Master rank `m`.
    Master(usize),
    /// Slave `i` (its index, not its rank).
    Slave(usize),
    /// The collector.
    Collector,
}

/// What a role does to the world, implemented by its driver.
pub trait RoleIo {
    /// Sends one protocol frame.
    fn send(&mut self, to: Dest, msg: Message);
    /// Ships one drained partition's result pairs, borrowed from the
    /// drain, to the collector.
    fn outputs(&mut self, pairs: &[OutPair]);
}

/// The fold of result pairs: streaming-sink delivery, the output count,
/// the XOR checksum, production delays and, on request, the pairs.
#[derive(Debug)]
pub struct OutputFold {
    sink: Option<StreamingSink>,
    capture: bool,
    /// Production-delay statistics (post-warm-up).
    pub delay: DelayTracker,
    /// Outputs folded, warm-up included.
    pub outputs_total: u64,
    /// XOR-fold equivalence checksum over every output.
    pub checksum: u64,
    /// Every folded pair in fold order, when `capture_outputs` is set.
    pub captured: Vec<OutPair>,
}

impl OutputFold {
    /// An empty fold with `cfg`'s sink, warm-up and capture setting.
    pub fn new(cfg: &NodeConfig) -> Self {
        OutputFold {
            sink: cfg.sink.clone(),
            capture: cfg.capture_outputs,
            delay: DelayTracker::new(cfg.warmup.as_micros() as u64),
            outputs_total: 0,
            checksum: 0,
            captured: Vec::new(),
        }
    }

    /// Folds `pairs`, all emitted at `emit_us`; the sink gets them first.
    pub fn fold(&mut self, pairs: &[OutPair], emit_us: u64) {
        if let Some(sink) = &self.sink {
            sink.deliver(pairs);
        }
        self.outputs_total += pairs.len() as u64;
        for p in pairs {
            self.checksum ^= p.digest();
            self.delay.record(emit_us, p.newest_t());
        }
        if self.capture {
            self.captured.extend_from_slice(pairs);
        }
    }
}

/// The frames a rank refused: bytes that do not decode, or a message the
/// sending rank's role never sends to this one. Whatever comes off a
/// socket must not take the rank down, so such a frame is dropped and
/// counted, with one stderr line per offending peer.
pub(crate) struct BadFrames {
    who: String,
    warned: Vec<usize>,
    pub(crate) dropped: u64,
}

impl BadFrames {
    pub(crate) fn new(who: String) -> Self {
        BadFrames { who, warned: Vec::new(), dropped: 0 }
    }

    pub(crate) fn note(&mut self, from: usize, why: impl FnOnce() -> String) {
        self.dropped += 1;
        if !self.warned.contains(&from) {
            self.warned.push(from);
            eprintln!(
                "{}: dropping a frame from rank {from}: {} (further bad frames from this \
                 rank are only counted)",
                self.who,
                why()
            );
        }
    }

    /// A frame that does not decode.
    pub(crate) fn malformed(&mut self, from: usize, err: WireError) {
        self.note(from, || err.to_string());
    }

    /// A well-formed message this role does not take from that rank.
    pub(crate) fn out_of_role(&mut self, from: usize, msg: &Message) {
        self.note(from, || {
            let shown: String = format!("{msg:?}").chars().take(80).collect();
            format!("unexpected {shown}")
        });
    }
}

/// What the rank a frame came from is: ranks `0..masters` are masters,
/// the next `slaves` ranks slaves, anything else (the collector, a
/// stranger) neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sender {
    Master,
    Slave(usize),
    Other,
}

fn sender(rank: usize, masters: usize, slaves: usize) -> Sender {
    match rank.checked_sub(masters) {
        None => Sender::Master,
        Some(s) if s < slaves => Sender::Slave(s),
        Some(_) => Sender::Other,
    }
}

/// Batch frames between two samples of the state-memory gauge: a sample
/// walks every mini-group. Sixteen frames are at most sixteen epochs
/// (under a second at 50 ms) on a saturated slave and about two on an
/// idle one, which also drains the leader's tick frames; neither loses
/// anything a peak would show.
const STATE_SAMPLE_BATCHES: u64 = 16;

/// What the driver of a [`SlaveRole`] does after an input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Wait for the next input.
    Wait,
    /// A batch is buffered: [`drain`](SlaveRole::drain) it once the CPU
    /// is free.
    Drain,
    /// This slave's part in the run is over.
    Stop,
}

/// One slave's protocol state: the join module, the leader and term it
/// follows, the masters known dead, the buddy checkpoint shelf, batch
/// and checkpoint cadence, the state-memory gauge and refused frames.
pub struct SlaveRole {
    core: SlaveCore<ExactEngine>,
    masters: usize,
    slaves: usize,
    npart: u32,
    /// The slave that shelves this one's checkpoints, and the cadence in
    /// drained batch frames; `None` when checkpointing is off.
    buddy: Option<(usize, u64)>,
    /// Delivery guards are on: `Seen` travels ahead of each moved state.
    dedupe: bool,
    /// Sealed frames and leader beacons carry the term; anything below
    /// the highest seen is a deposed leader's.
    leader: usize,
    term: u64,
    master_down: Vec<bool>,
    shelf: CheckpointStore,
    batches: u64,
    beacons: u64,
    peak_state_bytes: u64,
    pub(crate) bad: BadFrames,
}

impl SlaveRole {
    /// Slave `index` of `cfg`'s topology, owning its initial round-robin
    /// partitions; each of the `total_slaves` slaves is a peer.
    pub fn new(index: usize, cfg: &NodeConfig) -> Self {
        let params = Arc::new(cfg.params.clone());
        let mut core = SlaveCore::new(index, Arc::clone(&params));
        core.set_residual(cfg.residual.clone());
        // Replicated control planes redeliver (a promoted leader
        // re-ingests from zero) and checkpoint restores replay tails:
        // both rely on the per-partition delivery guards to stay
        // exactly-once.
        let dedupe = cfg.robust() || cfg.checkpoint_every > 0;
        if dedupe {
            core.enable_dedupe();
        }
        // Initial round-robin ownership, mirroring the master's map.
        for pid in initial_partitions(&params, cfg.slaves, index) {
            core.create_group(pid);
        }
        SlaveRole {
            core,
            masters: cfg.masters,
            slaves: cfg.total_slaves,
            npart: params.npart,
            buddy: (cfg.checkpoint_every > 0 && cfg.slaves > 1)
                .then(|| ((index + 1) % cfg.slaves, cfg.checkpoint_every)),
            dedupe,
            leader: 0,
            term: 0,
            master_down: vec![false; cfg.masters],
            shelf: CheckpointStore::new(),
            batches: 0,
            beacons: 0,
            peak_state_bytes: 0,
            bad: BadFrames::new(format!("slave {index}")),
        }
    }

    /// Rank `rank`'s connection tore down.
    pub fn peer_down(&mut self, rank: usize, io: &mut impl RoleIo) -> Next {
        // A peer slave or the collector tearing down is not this node's
        // problem: state sends toward it will error and the master
        // re-plans around it.
        if rank >= self.masters {
            return Next::Wait;
        }
        self.master_down[rank] = true;
        if !self.master_down.contains(&false) {
            // Every master is gone: no further work can ever arrive.
            // Announce a clean departure so the collector counts this
            // slave as flushed instead of hanging on it.
            io.send(Dest::Collector, Message::Goodbye);
            return Next::Stop;
        }
        // The leader (or a standby) died but the control plane survives:
        // hold position and wait for the next leader's beacon.
        Next::Wait
    }

    /// The beacon interval elapsed: tell every live master this slave is
    /// alive (a standby's liveness view must be warm when it takes over).
    pub fn heartbeat(&mut self, io: &mut impl RoleIo) {
        self.send_masters(io, Message::Heartbeat { seq: self.beacons });
        self.beacons += 1;
    }

    /// A term-sealed frame from master `from`: false when the term is a
    /// deposed leader's (drop the frame); a newer term makes `from` the
    /// leader.
    pub fn admit_term(&mut self, from: usize, term: u64) -> bool {
        if term > self.term {
            self.leader = from;
        }
        self.term = self.term.max(term);
        term == self.term
    }

    /// Drains everything buffered, partition by partition; each
    /// partition's pairs leave through [`RoleIo::outputs`] as soon as it
    /// is joined, so a batch's first match does not wait for its last.
    pub fn drain(&mut self, work: &mut WorkStats, io: &mut impl RoleIo) {
        self.core.drain_pending(work, |pairs| io.outputs(pairs));
    }

    /// Closes one drained batch frame: reports the buffer occupancy to
    /// the leader — exactly one `Occupancy` per frame, empty frames
    /// included, which the leader counts as the frame's ack — samples
    /// the state gauge and, on the checkpoint cadence, snapshots every
    /// owned partition to the buddy. Returns the batches closed so far.
    pub fn batch_drained(&mut self, io: &mut impl RoleIo) -> u64 {
        self.core.record_occupancy();
        let occupancy = self.core.take_avg_occupancy();
        io.send(Dest::Master(self.leader), Message::Occupancy(occupancy));
        self.batches += 1;
        if self.batches.is_multiple_of(STATE_SAMPLE_BATCHES) {
            self.sample_state_bytes();
        }
        let batches = self.batches;
        if let Some((buddy, _)) = self.buddy.filter(|&(_, every)| batches.is_multiple_of(every)) {
            for pid in self.core.owned_partitions() {
                if let Some((state, pending, payloads)) = self.core.snapshot_group(pid) {
                    let (seen_left, seen_right) = self.core.seen_of(pid);
                    let msg = Message::Checkpoint {
                        pid,
                        seen_left,
                        seen_right,
                        state,
                        pending,
                        payloads,
                    };
                    io.send(Dest::Slave(buddy), msg);
                }
            }
        }
        self.batches
    }

    /// Samples the buffer occupancy (§IV-C).
    pub fn record_occupancy(&mut self) {
        self.core.record_occupancy();
    }

    /// Average buffer occupancy since the last call.
    pub fn take_avg_occupancy(&mut self) -> f64 {
        self.core.take_avg_occupancy()
    }

    fn sample_state_bytes(&mut self) {
        self.peak_state_bytes = self.peak_state_bytes.max(self.core.state_bytes() as u64);
    }

    /// Ends the role: `(peak join-state bytes, frames dropped)`.
    pub fn finish(mut self) -> (u64, u64) {
        self.sample_state_bytes();
        (self.peak_state_bytes, self.bad.dropped)
    }

    /// The join module, for read-only gauges.
    pub fn core(&self) -> &SlaveCore<ExactEngine> {
        &self.core
    }

    /// A batch frame from rank `from`, decoded without building a
    /// `Message`; on a payload run `payloads` is a view of the frame.
    pub fn batch(
        &mut self,
        from: usize,
        tuples: &[Tuple],
        payloads: Option<PayloadColumn>,
    ) -> Next {
        if sender(from, self.masters, self.slaves) != Sender::Master {
            self.bad.note(from, || format!("unexpected batch of {} tuples", tuples.len()));
            return Next::Wait;
        }
        match payloads {
            Some(column) => self.core.receive_batch_with_payload_slices(tuples, column.iter()),
            None => self.core.receive_batch_slice(tuples),
        }
        Next::Drain
    }

    /// Any other decoded frame from rank `from`; the join work it does
    /// is added to `work`.
    pub fn message(
        &mut self,
        from: usize,
        msg: Message,
        work: &mut WorkStats,
        io: &mut impl RoleIo,
    ) -> Next {
        let by = sender(from, self.masters, self.slaves);
        let (master, slave) = (by == Sender::Master, matches!(by, Sender::Slave(_)));
        let (npart, slaves) = (self.npart, self.slaves);
        match msg {
            Message::MoveDirective { pid, to }
                if master && pid < npart && (to as usize) < slaves =>
            {
                // Idempotent: a re-issued directive for a move that
                // already ran (promotion-time effect replay) finds the
                // group gone and ships nothing.
                if self.core.owned_partitions().contains(&pid) {
                    let to = Dest::Slave(to as usize);
                    if self.dedupe {
                        // The delivery guards travel ahead of the state
                        // (same sender, FIFO), so the consumer filters
                        // redelivery for its new partition correctly.
                        let (left, right) = self.core.seen_of(pid);
                        io.send(to, Message::Seen { pid, left, right });
                    }
                    let (state, pending) = self.core.extract_group(pid, work);
                    // Payloads travel with their partition's window state.
                    let payloads = self.core.extract_payloads(pid);
                    io.send(to, Message::State { pid, state, pending, payloads });
                }
            }
            // A supplier's transfer (§IV-C): authoritative, even over a
            // group a re-home installed empty while it was in flight.
            Message::State { pid, state, pending, payloads } if slave && pid < npart => {
                self.core.adopt_group(pid, state, pending, work);
                self.core.install_payloads(pid, payloads);
                // Broadcast the ack: the leader releases the hold, the
                // standbys mirror the release without a log round-trip.
                self.send_masters(io, Message::MoveComplete { pid });
            }
            Message::Seen { pid, left, right } if slave && pid < npart => {
                self.core.set_seen(pid, left, right);
            }
            Message::Checkpoint { pid, seen_left, seen_right, state, pending, payloads }
                if slave && pid < npart =>
            {
                let checkpoint =
                    PartitionCheckpoint { seen_left, seen_right, state, pending, payloads };
                self.shelf.store(pid, checkpoint);
                // The note comes from the holder *after* shelving, so
                // the masters' registry never leads the store.
                self.send_masters(io, Message::CkptNote { pid, seen_left, seen_right });
            }
            // The one recovery install: a partition re-homed here after
            // its owner died. A re-issued restore (a promoted leader
            // re-sends the effects of entries it cannot know were sent)
            // finds the group owned and only re-acks.
            Message::Restore { pid, checkpoint } if master && pid < npart => {
                if !self.core.owned_partitions().contains(&pid) {
                    // A shelved snapshot the master did not register is
                    // of a closed ownership era: start empty instead.
                    match self.shelf.take(pid).filter(|_| checkpoint) {
                        Some(c) => {
                            // Guards first: the replayed tail admitted
                            // below starts exactly at the watermarks.
                            self.core.set_seen(pid, c.seen_left, c.seen_right);
                            self.core.adopt_group(pid, c.state, c.pending, work);
                            self.core.install_payloads(pid, c.payloads);
                        }
                        None => {
                            let empty = GroupState { buckets: Vec::new() };
                            self.core.adopt_group(pid, empty, Vec::new(), work);
                        }
                    }
                }
                self.send_masters(io, Message::MoveComplete { pid });
            }
            Message::MasterHeartbeat { term, .. } if master => {
                if term >= self.term {
                    self.term = term;
                    self.leader = from;
                }
            }
            Message::Leave if master => {
                // Planned departure: acknowledge to both sinks, then go.
                self.send_masters(io, Message::Goodbye);
                io.send(Dest::Collector, Message::Goodbye);
                return Next::Stop;
            }
            Message::Shutdown if master => {
                io.send(Dest::Collector, Message::Shutdown);
                return Next::Stop;
            }
            other => self.bad.out_of_role(from, &other),
        }
        Next::Wait
    }

    /// Sends `msg` to every master rank not known dead.
    fn send_masters(&self, io: &mut impl RoleIo, msg: Message) {
        for (m, _) in self.master_down.iter().enumerate().filter(|(_, down)| !**down) {
            io.send(Dest::Master(m), msg.clone());
        }
    }
}

/// Where the collector stands with one slave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flush {
    /// Results may still come.
    Open,
    /// The slave sent its flush marker.
    Marked,
    /// The slave died or was declared dead.
    Gone,
}

/// The collector's protocol state: which slaves have flushed, the term
/// it follows, its refused frames and its [`OutputFold`].
pub struct CollectorRole {
    masters: usize,
    flush: Vec<Flush>,
    term: u64,
    pub(crate) bad: BadFrames,
    fold: OutputFold,
}

impl CollectorRole {
    /// The collector of `cfg`'s topology.
    pub fn new(cfg: &NodeConfig) -> Self {
        CollectorRole {
            masters: cfg.masters,
            flush: vec![Flush::Open; cfg.slaves],
            term: 0,
            bad: BadFrames::new("collector".to_string()),
            fold: OutputFold::new(cfg),
        }
    }

    /// True once every slave has flushed, by marker or by dying.
    pub fn done(&self) -> bool {
        !self.flush.contains(&Flush::Open)
    }

    /// A term-sealed frame from a master: false when the term is a
    /// deposed leader's (drop the frame).
    pub fn admit_term(&mut self, term: u64) -> bool {
        self.term = self.term.max(term);
        term == self.term
    }

    fn sender(&self, rank: usize) -> Sender {
        sender(rank, self.masters, self.flush.len())
    }

    /// An `Outputs` frame from rank `from` whose pairs were all emitted
    /// at `emit_us`.
    pub fn outputs(&mut self, from: usize, pairs: &[OutPair], emit_us: u64) {
        match self.sender(from) {
            Sender::Slave(_) => self.fold.fold(pairs, emit_us),
            _ => self.bad.note(from, || format!("unexpected Outputs of {} pairs", pairs.len())),
        }
    }

    /// Rank `rank`'s connection tore down. Dead slaves flush by dying: a
    /// dead slave's completed outputs all arrive before its teardown
    /// notice (per-peer FIFO). A master going down is survivable here:
    /// the slaves see it too and either follow the next leader or send
    /// their own markers (or die and be counted).
    pub fn peer_down(&mut self, rank: usize) {
        if let Sender::Slave(s) = self.sender(rank) {
            self.gone(s);
        }
    }

    /// Any other decoded frame from rank `from`.
    pub fn message(&mut self, from: usize, msg: Message) {
        match (msg, self.sender(from)) {
            (Message::Shutdown | Message::Goodbye, Sender::Slave(s))
                if self.flush[s] != Flush::Marked =>
            {
                self.flush[s] = Flush::Marked;
            }
            // A wedged-but-connected slave tears nothing down: the
            // leader's death notice stands in for it.
            (Message::Dead { slave }, Sender::Master) if (slave as usize) < self.flush.len() => {
                self.gone(slave as usize);
            }
            (Message::MasterHeartbeat { term, .. }, Sender::Master) => {
                self.term = self.term.max(term);
            }
            (other, _) => self.bad.out_of_role(from, &other),
        }
    }

    /// Ends the role: the fold and the count of refused frames.
    pub fn finish(self) -> (OutputFold, u64) {
        (self.fold, self.bad.dropped)
    }

    fn gone(&mut self, slave: usize) {
        if self.flush[slave] == Flush::Open {
            self.flush[slave] = Flush::Gone;
        }
    }
}

/// Where a master stands in the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stance {
    /// Drives the run: plans, replicates, releases, beacons and watches
    /// the slaves' liveness.
    Leading,
    /// Mirrors the leader's log into a replica core and campaigns once
    /// the leader has been silent past this rank's staggered deadline.
    Standby,
    /// `Shutdown` went out (or, standing by, came in): acks and goodbyes
    /// are still recorded, nobody is declared down.
    Finishing,
}

/// One master's protocol state: the planner core, the replicated
/// decision log and the election, the slaves' liveness, the standby's
/// stray acks and pending teardowns, the occupancy samples of the
/// closing reorganization epoch, the degree-of-declustering trace and
/// refused frames. Time is the run clock the driver passes in, in µs.
pub struct MasterRole {
    core: MasterCore,
    log: ControlLog,
    election: Election,
    midx: usize,
    masters: usize,
    slaves: usize,
    npart: u32,
    adaptive_dod: bool,
    /// The beacon and election interval.
    beat_us: u64,
    /// Silence after which a slave is declared dead; `None` disables
    /// detection by silence.
    silence_us: Option<u64>,
    stance: Stance,
    /// The standby's candidacy deadline.
    deadline_us: u64,
    occ_samples: Vec<Vec<f64>>,
    last_heard_us: Vec<u64>,
    /// Slaves that announced a clean `Goodbye` (never readmitted).
    departed: Vec<bool>,
    /// `MoveComplete` acks that raced ahead of the `AppendEntry`
    /// carrying the decision that created their pending move (standby;
    /// retried after every applied decision). At most one per
    /// `(partition, slave)`, so at most `npart × slaves` entries.
    stray_acks: Vec<(u32, usize)>,
    /// Slave teardowns seen while standing by; declared through the
    /// normal replicated path upon promotion.
    peer_down_pending: Vec<usize>,
    /// Highest commit point the leader advertised: entries past it get
    /// their effects (re)issued at promotion.
    seen_commit: u64,
    /// When this master last beaconed as leader; `None` beacons at the
    /// next tick.
    last_beacon_us: Option<u64>,
    dod_trace: TimeSeries,
    moves: u64,
    /// Released re-homes that restore a checkpoint: the driver replays
    /// each one's tail ([`MasterRole::take_replays`]).
    replays: Vec<Rehome>,
    pub(crate) bad: BadFrames,
}

impl MasterRole {
    /// Master `midx` of `cfg`'s topology over `total_slaves` provisioned
    /// slaves, its planner seeded with `seed`. Master 0 boots leading,
    /// the others stand by; the run clock starts at zero.
    pub fn new(cfg: &NodeConfig, midx: usize, seed: u64) -> Self {
        let params = Arc::new(cfg.params.clone());
        let core = MasterCore::new(params, cfg.total_slaves, cfg.slaves, seed);
        let election = Election::new(cfg.masters, midx);
        let us = |d: std::time::Duration| d.as_micros() as u64;
        // Elections need a clock even when slaves do not beacon.
        let beat_us = if cfg.heartbeat.is_zero() { 200_000 } else { us(cfg.heartbeat) };
        let silence = (!cfg.heartbeat.is_zero() && cfg.max_missed > 0)
            .then(|| us(cfg.heartbeat * cfg.max_missed));
        let mut role = MasterRole {
            core,
            log: ControlLog::new(cfg.masters, midx),
            stance: if election.is_leader() { Stance::Leading } else { Stance::Standby },
            election,
            midx,
            masters: cfg.masters,
            slaves: cfg.total_slaves,
            npart: cfg.params.npart,
            adaptive_dod: cfg.adaptive_dod,
            beat_us,
            silence_us: silence,
            deadline_us: 0,
            occ_samples: vec![Vec::new(); cfg.total_slaves],
            last_heard_us: vec![0; cfg.total_slaves],
            departed: vec![false; cfg.total_slaves],
            stray_acks: Vec::new(),
            peer_down_pending: Vec::new(),
            seen_commit: 0,
            last_beacon_us: None,
            dod_trace: TimeSeries::new(cfg.params.reorg_epoch_us),
            moves: 0,
            replays: Vec::new(),
            bad: BadFrames::new(format!("master {midx}")),
        };
        role.deadline_us = role.standby_window_us(0);
        role
    }

    /// True while this master leads the run.
    pub fn leading(&self) -> bool {
        self.stance == Stance::Leading
    }

    /// The candidacy deadline on the run clock while standing by.
    pub fn standby_deadline_us(&self) -> Option<u64> {
        (self.stance == Stance::Standby).then_some(self.deadline_us)
    }

    /// The election term this master is in; batch frames go out sealed
    /// under it on a replicated control plane.
    pub(crate) fn term(&self) -> u64 {
        self.election.term
    }

    /// The planner core, for read-only gauges.
    pub(crate) fn core(&self) -> &MasterCore {
        &self.core
    }

    /// The planner core, for the driver's ingest and distribution.
    pub(crate) fn core_mut(&mut self) -> &mut MasterCore {
        &mut self.core
    }

    /// The re-homes with a checkpoint released since the last call, in
    /// release order: the driver replays each one's tail to its holder.
    pub(crate) fn take_replays(&mut self) -> Vec<Rehome> {
        std::mem::take(&mut self.replays)
    }

    /// A raw frame: decoded here, refused and counted if it does not
    /// decode, else handed to [`MasterRole::message`].
    pub fn frame(&mut self, frame: Frame, now_us: u64, io: &mut impl RoleIo) {
        match Message::decode(frame.payload) {
            Ok(msg) => self.message(frame.from, msg, now_us, io),
            Err(e) => self.bad.malformed(frame.from, e),
        }
    }

    /// The one handler of every decoded frame a master gets, in every
    /// stance: the sender is classified once, then what the stance does
    /// with a well-formed message is decided here.
    pub fn message(&mut self, from: usize, msg: Message, now_us: u64, io: &mut impl RoleIo) {
        let by = sender(from, self.masters, self.slaves);
        if let Sender::Slave(s) = by {
            self.heard_from(s, now_us, io);
        }
        let (stance, npart, slaves) = (self.stance, self.npart, self.slaves);
        match (msg, by) {
            // What indexes the core is checked before anything reads it.
            (Message::MoveComplete { pid } | Message::CkptNote { pid, .. }, Sender::Slave(_))
                if pid >= npart =>
            {
                self.bad.note(from, || format!("ack or note for partition {pid}"));
            }
            // A NaN or negative load would sort as the most loaded slave
            // and make it a supplier.
            (Message::Occupancy(f), Sender::Slave(_)) if !(f.is_finite() && f >= 0.0) => {
                self.bad.note(from, || format!("occupancy {f}"));
            }
            (Message::AppendEntry { index, decision, .. }, Sender::Master)
                if decision.validate(slaves, npart).is_err() =>
            {
                let why = decision.validate(slaves, npart).unwrap_err();
                self.bad.note(from, || format!("entry {index} {why}"));
            }
            // One per drained batch frame: planning input and the ack
            // that clocks the leader's tick batches.
            (Message::Occupancy(f), Sender::Slave(s)) => {
                if stance == Stance::Leading {
                    self.occ_samples[s].push(f);
                    self.core.on_batch_ack(s);
                }
            }
            // Tolerant ack: a stale completion for a superseded move is
            // ignored by the core. Acks are slave-observed facts, not
            // log entries: a standby applies them directly and buffers
            // the ones whose decision has not arrived, one per
            // (partition, slave) so a repeated ack cannot grow the
            // buffer.
            (Message::MoveComplete { pid }, Sender::Slave(s)) => {
                if !self.core.on_move_complete(pid, s)
                    && stance == Stance::Standby
                    && !self.stray_acks.contains(&(pid, s))
                {
                    self.stray_acks.push((pid, s));
                }
            }
            (Message::CkptNote { pid, seen_left, seen_right }, Sender::Slave(s)) => {
                if stance != Stance::Finishing {
                    self.core.note_checkpoint(pid, s, seen_left, seen_right);
                }
            }
            // Liveness was refreshed above.
            (Message::Heartbeat { .. }, Sender::Slave(_)) => {}
            (Message::Goodbye, Sender::Slave(s)) => {
                self.departed[s] = true;
                if stance == Stance::Leading {
                    self.declare_down(s, "clean goodbye", io);
                }
            }
            (Message::AppendAck { term, index }, Sender::Master) => {
                if stance == Stance::Leading && term == self.election.term {
                    self.log.record_ack(from, index);
                }
            }
            (Message::MasterHeartbeat { term, commit }, Sender::Master) => {
                if stance == Stance::Standby && self.election.on_leader_heartbeat(from, term) {
                    self.seen_commit = self.seen_commit.max(commit);
                    self.deadline_us = self.standby_window_us(now_us);
                }
            }
            (Message::AppendEntry { term, index, decision }, Sender::Master) => {
                if stance == Stance::Standby && self.election.on_leader_heartbeat(from, term) {
                    self.deadline_us = self.standby_window_us(now_us);
                    if self.log.append_replica(term, index, decision.clone()) {
                        // Apply eagerly: the replica must mirror the
                        // leader's transitions before the leader
                        // releases their effects.
                        self.core.apply_decision(&decision);
                        self.retry_stray_acks();
                        io.send(Dest::Master(from), Message::AppendAck { term, index });
                    }
                }
            }
            (Message::VoteRequest { term, last_index }, Sender::Master) => {
                if stance == Stance::Standby {
                    let mine = self.log.len();
                    let granted = self.election.on_vote_request(from, term, last_index, mine);
                    io.send(
                        Dest::Master(from),
                        Message::Vote { term: self.election.term, granted },
                    );
                    if granted {
                        // Give the candidate a full window to win first.
                        self.deadline_us = self.standby_window_us(now_us);
                    }
                }
            }
            (Message::Vote { term, granted }, Sender::Master) => {
                if stance == Stance::Standby && self.election.on_vote(from, term, granted) {
                    self.promote(io);
                }
            }
            (Message::Shutdown, Sender::Master) => {
                if stance == Stance::Standby {
                    self.stance = Stance::Finishing;
                }
            }
            // Nothing but slaves and fellow masters talks to a master,
            // and each only in its own vocabulary.
            (other, _) => self.bad.out_of_role(from, &other),
        }
    }

    /// Rank `rank`'s connection tore down.
    pub fn peer_down(&mut self, rank: usize, now_us: u64, io: &mut impl RoleIo) {
        match (sender(rank, self.masters, self.slaves), self.stance) {
            (Sender::Slave(s), Stance::Leading) => self.declare_down(s, "connection torn down", io),
            (Sender::Slave(s), Stance::Standby) => self.peer_down_pending.push(s),
            // The leader's teardown is the fast path to candidacy: no
            // need to wait out the silence window.
            (Sender::Master, Stance::Standby) if self.election.leader == Some(rank) => {
                let fast = now_us + self.beat_us * (1 + u64::from(self.election.stagger()));
                self.deadline_us = self.deadline_us.min(fast);
            }
            // A standby or the collector going down does not stop the
            // leader: log appends stop reaching that standby (the quorum
            // may still hold), and slaves' sends toward a dead collector
            // fail on their own.
            _ => {}
        }
    }

    /// The clock advanced to `now_us`. Leading: declares every slave
    /// silent past `heartbeat × max_missed` dead, releases the effects
    /// of newly committed decisions and beacons on schedule. Standing
    /// by: campaigns once the candidacy deadline has passed.
    pub fn tick(&mut self, now_us: u64, io: &mut impl RoleIo) {
        match self.stance {
            Stance::Leading => {
                if let Some(silence) = self.silence_us {
                    for s in 0..self.slaves {
                        if self.core.is_live(s)
                            && now_us.saturating_sub(self.last_heard_us[s]) > silence
                        {
                            self.declare_down(s, "missed heartbeats", io);
                        }
                    }
                }
                self.release(io);
                if self.last_beacon_us.is_none_or(|at| now_us.saturating_sub(at) >= self.beat_us) {
                    self.beacon(now_us, io);
                }
            }
            Stance::Standby if now_us >= self.deadline_us => {
                let term = self.election.start_candidacy();
                if self.election.is_leader() {
                    return self.promote(io);
                }
                let last_index = self.log.len();
                self.send_other_masters(io, Message::VoteRequest { term, last_index });
                // Re-campaign after another full window if the vote splits.
                self.deadline_us = self.standby_window_us(now_us);
            }
            Stance::Standby | Stance::Finishing => {}
        }
    }

    /// A reorganization epoch closes at `now_us` (§IV-C, §V-A): each
    /// active slave's occupancy reports are averaged, the plan is
    /// decided, traced and counted, and replicated. With a single master
    /// it commits at once and its directives go out here; with standbys
    /// they go out when the quorum acks (a later tick).
    pub fn reorg(&mut self, now_us: u64, io: &mut impl RoleIo) {
        for s in self.core.active_slaves() {
            let samples = std::mem::take(&mut self.occ_samples[s]);
            let avg = if samples.is_empty() {
                0.0
            } else {
                samples.iter().sum::<f64>() / samples.len() as f64
            };
            self.core.on_occupancy(s, avg);
        }
        let d = self.core.plan_reorg(self.adaptive_dod);
        if let Decision::Reorg { moves, .. } = &d {
            self.moves += moves.len() as u64;
        }
        self.dod_trace.record(now_us, self.core.degree() as f64);
        self.replicate(d, io);
        self.release(io);
    }

    /// Winds the run down: every live slave gets the shutdown marker
    /// (dead ones have nobody listening), and from here on acks and
    /// goodbyes are only recorded.
    pub fn shutdown(&mut self, io: &mut impl RoleIo) {
        for s in self.core.live_slaves() {
            self.send_ctrl(io, Dest::Slave(s), Message::Shutdown);
        }
        self.stance = Stance::Finishing;
    }

    /// The run is over: releases the standbys.
    pub fn release_standbys(&self, io: &mut impl RoleIo) {
        self.send_other_masters(io, Message::Shutdown);
    }

    /// Ends the role: what this master learned, with the driver's ingest
    /// count, whether it led the shutdown and its wire counters.
    pub fn outcome(self, tuples_in: u64, led_shutdown: bool, wire: WireStats) -> MasterOutcome {
        let dead_slaves =
            (0..self.slaves).filter(|&s| !self.core.is_live(s) && !self.departed[s]).collect();
        MasterOutcome {
            peak_buffer_bytes: self.core.peak_buffer_bytes(),
            final_degree: self.core.degree(),
            dod_trace: self.dod_trace,
            moves: self.moves,
            tuples_in,
            loss: self.core.loss(),
            dead_slaves,
            term: self.election.term,
            led_shutdown,
            bytes_sent: wire.bytes_sent,
            bytes_recvd: wire.bytes_recvd,
            frames_dropped: self.bad.dropped,
            wakeups: 0,
            thread_cpu_us: 0,
        }
    }

    /// The standby's silence window from `now_us`, staggered by rank.
    fn standby_window_us(&self, now_us: u64) -> u64 {
        now_us + self.beat_us * (4 + u64::from(self.election.stagger()))
    }

    /// Any decoded frame from slave `s` proves it alive. A slave the
    /// leader declared dead by silence is parked for readmission at the
    /// next reorganization epoch, and the readmission is replicated so
    /// the standbys' membership view stays in lockstep.
    fn heard_from(&mut self, s: usize, now_us: u64, io: &mut impl RoleIo) {
        self.last_heard_us[s] = now_us;
        if self.stance != Stance::Leading || self.departed[s] {
            return;
        }
        if let Some(d) = self.core.on_slave_up(s) {
            eprintln!("master: slave {s} is back; readmitting at the next reorg epoch");
            self.replicate(d, io);
        }
    }

    /// Declares `slave` dead and replicates the decision. Its `Restore`
    /// frames and the collector's `Dead` notice are released when the
    /// decision commits.
    fn declare_down(&mut self, slave: usize, why: &str, io: &mut impl RoleIo) {
        let Some(d) = self.core.on_slave_down(slave) else { return };
        if let Decision::SlaveDown { rehomes, tuples_lost, .. } = &d {
            let restored = rehomes.iter().filter(|r| r.checkpoint.is_some()).count();
            eprintln!(
                "master: slave {slave} down ({why}); restoring {restored} partition-group(s) \
                 from checkpoints, re-homing {} fresh, <= {tuples_lost} window tuple(s) lost",
                rehomes.len() - restored,
            );
        }
        self.replicate(d, io);
    }

    /// Appends a decision to the replicated log and broadcasts it to the
    /// standbys. Its side effects stay withheld until the entry is
    /// quorum-acked (with a single master: at once) and released.
    fn replicate(&mut self, d: Decision, io: &mut impl RoleIo) {
        let term = self.election.term;
        let index = self.log.append(term, d.clone());
        if self.masters > 1 {
            self.send_other_masters(io, Message::AppendEntry { term, index, decision: d });
        }
    }

    /// Releases the side effects of every newly committed decision, in
    /// log order, and queues its checkpoint re-homes for tail replay.
    fn release(&mut self, io: &mut impl RoleIo) {
        for d in self.log.take_committed() {
            self.perform_effects(&d, io);
            self.replays.extend(d.rehomes().iter().filter(|r| r.checkpoint.is_some()));
        }
    }

    /// The outbound side effects of one committed decision. Idempotent
    /// at the receivers, so a freshly promoted leader may re-issue the
    /// effects of entries the old leader may not have gotten to.
    fn perform_effects(&self, d: &Decision, io: &mut impl RoleIo) {
        match d {
            // Tell the collector not to wait for this slave's flush
            // marker: a wedged-but-connected slave tears nothing down
            // the collector could observe.
            Decision::SlaveDown { slave, .. } => {
                self.send_ctrl(io, Dest::Collector, Message::Dead { slave: *slave as u32 });
            }
            Decision::Reorg { moves, .. } => {
                for mv in moves {
                    let msg = Message::MoveDirective { pid: mv.pid, to: mv.to as u32 };
                    self.send_ctrl(io, Dest::Slave(mv.from), msg);
                }
            }
            Decision::Readmit { .. } => {}
        }
        // Every re-home is one `Restore` at the new owner, whose
        // MoveComplete releases the hold.
        for r in d.rehomes() {
            let msg = Message::Restore { pid: r.pid, checkpoint: r.checkpoint.is_some() };
            self.send_ctrl(io, Dest::Slave(r.to), msg);
        }
    }

    /// Retries buffered `MoveComplete` acks that arrived before the
    /// decision creating their pending move.
    fn retry_stray_acks(&mut self) {
        let core = &mut self.core;
        self.stray_acks.retain(|&(pid, slave)| !core.on_move_complete(pid, slave));
    }

    /// Won the election: heals replica divergence, re-issues what the
    /// old leader may not have, and takes the lead.
    fn promote(&mut self, io: &mut impl RoleIo) {
        let term = self.election.term;
        eprintln!("master {}: leader silent; promoted at term {term}", self.midx);
        // Re-broadcast the whole log: a standby that missed the old
        // leader's final entries accepts the gap-fill, the rest reject
        // duplicates.
        for index in 0..self.log.len() {
            if let Some(d) = self.log.decision_at(index) {
                let entry = Message::AppendEntry { term, index, decision: d.clone() };
                self.send_other_masters(io, entry);
            }
        }
        // Fast-forward the commit point over the mirrored prefix. The
        // cluster already saw the effects of everything the old leader
        // advertised as committed; entries past that point may have died
        // with it, so their effects are (re)issued — the slave-side
        // handlers are idempotent for exactly this case. No tail replay:
        // the promoted leader re-ingests from zero and so redelivers
        // everything a restore would replay.
        for index in 0..self.log.len() {
            for m in 0..self.masters {
                self.log.record_ack(m, index);
            }
        }
        let mirrored = self.log.take_committed();
        for d in mirrored.iter().skip(self.seen_commit as usize) {
            self.perform_effects(d, io);
        }
        self.stance = Stance::Leading;
        self.last_beacon_us = None;
        // Slaves whose connections tore down while standing by are
        // declared through the normal replicated path now.
        for s in std::mem::take(&mut self.peer_down_pending) {
            self.declare_down(s, "connection torn down before failover", io);
        }
    }

    /// Leader beacon: announces the term and commit point to the
    /// standbys (election suppression), the slaves (leader discovery
    /// after failover) and the collector (term tracking).
    fn beacon(&mut self, now_us: u64, io: &mut impl RoleIo) {
        self.last_beacon_us = Some(now_us);
        if self.masters == 1 {
            return;
        }
        let msg =
            Message::MasterHeartbeat { term: self.election.term, commit: self.log.committed() };
        self.send_other_masters(io, msg.clone());
        for s in 0..self.slaves {
            io.send(Dest::Slave(s), msg.clone());
        }
        io.send(Dest::Collector, msg);
    }

    /// Sends a control frame to a slave or the collector, sealed under
    /// the term when the control plane is replicated so receivers drop a
    /// deposed leader's frames.
    fn send_ctrl(&self, io: &mut impl RoleIo, to: Dest, msg: Message) {
        let msg = if self.masters > 1 {
            Message::Sealed { term: self.election.term, inner: Box::new(msg) }
        } else {
            msg
        };
        io.send(to, msg);
    }

    /// Sends a frame to every other master.
    fn send_other_masters(&self, io: &mut impl RoleIo, msg: Message) {
        for m in (0..self.masters).filter(|&m| m != self.midx) {
            io.send(Dest::Master(m), msg.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::time::Duration;
    use windjoin_core::hash::partition_of;
    use windjoin_core::Side;

    /// Records what a role sends.
    #[derive(Default)]
    struct Tape {
        sent: Vec<(Dest, Message)>,
        pairs: Vec<OutPair>,
    }

    impl RoleIo for Tape {
        fn send(&mut self, to: Dest, msg: Message) {
            self.sent.push((to, msg));
        }

        fn outputs(&mut self, pairs: &[OutPair]) {
            self.pairs.extend_from_slice(pairs);
        }
    }

    /// Two slaves, one master: ranks 0 (master), 1–2 (slaves), 3
    /// (collector); slave 0 owns the even partitions.
    fn cfg() -> NodeConfig {
        let mut cfg = NodeConfig::demo(2);
        cfg.heartbeat = Duration::ZERO;
        cfg
    }

    fn key_in(cfg: &NodeConfig, pid: u32) -> u64 {
        (0..).find(|&k| partition_of(k, cfg.params.npart) == pid).expect("a key")
    }

    struct Slave0 {
        role: SlaveRole,
        work: WorkStats,
        io: Tape,
    }

    impl Slave0 {
        fn new(cfg: &NodeConfig) -> Self {
            Slave0 { role: SlaveRole::new(0, cfg), work: WorkStats::default(), io: Tape::default() }
        }

        fn message(&mut self, from: usize, msg: Message) -> Next {
            self.role.message(from, msg, &mut self.work, &mut self.io)
        }

        /// A batch from `from`, drained if taken.
        fn batch(&mut self, from: usize, tuples: &[Tuple]) -> Next {
            let next = self.role.batch(from, tuples, None);
            if next == Next::Drain {
                self.role.drain(&mut self.work, &mut self.io);
                self.role.batch_drained(&mut self.io);
            }
            next
        }
    }

    #[test]
    fn a_peer_batch_is_refused_and_a_leader_batch_for_an_unowned_partition_is_dropped() {
        let cfg = cfg();
        let mut s = Slave0::new(&cfg);
        let k = key_in(&cfg, 1); // slave 1's partition
        let batch = [Tuple::new(Side::Left, 10, k, 0), Tuple::new(Side::Right, 20, k, 0)];
        // (a) from peer slave 1.
        assert_eq!(s.batch(2, &batch), Next::Wait);
        assert_eq!(s.role.bad.dropped, 1);
        assert_eq!(s.role.core().backlog_tuples(), 0);
        // From the leader it is taken, and the drain drops the tuples.
        assert_eq!(s.batch(0, &batch), Next::Drain);
        assert_eq!((s.work.unowned_dropped, s.work.inserts), (2, 0));
        assert!(s.io.pairs.is_empty());
        assert_eq!(s.role.bad.dropped, 1);
    }

    #[test]
    fn a_stranger_cannot_stop_the_slave_or_take_the_lead() {
        let cfg = cfg();
        let mut s = Slave0::new(&cfg);
        let stranger = cfg.ranks();
        // (b) a `Shutdown` from outside the topology, then a forged
        // beacon with a future term from the peer and the collector.
        assert_eq!(s.message(stranger, Message::Shutdown), Next::Wait);
        for from in [2, cfg.collector_rank(), stranger] {
            let beacon = Message::MasterHeartbeat { term: 9, commit: 0 };
            assert_eq!(s.message(from, beacon), Next::Wait);
        }
        assert_eq!(s.role.bad.dropped, 4);
        let k = key_in(&cfg, 0);
        s.batch(0, &[Tuple::new(Side::Left, 10, k, 0), Tuple::new(Side::Right, 20, k, 0)]);
        assert_eq!((s.work.inserts, s.io.pairs.len()), (2, 1));
        // The occupancy report still goes to the real leader.
        assert!(matches!(s.io.sent[..], [(Dest::Master(0), Message::Occupancy(_))]));
        assert_eq!(s.message(0, Message::Shutdown), Next::Stop);
    }

    #[test]
    fn directives_and_restores_naming_what_does_not_exist_are_refused() {
        let cfg = cfg();
        let mut s = Slave0::new(&cfg);
        let npart = cfg.params.npart;
        // (c) a move to slave 99, (d) a restore of a partition past
        // `npart`, (e) a move ordered by the collector.
        s.message(0, Message::MoveDirective { pid: 0, to: 99 });
        s.message(0, Message::Restore { pid: 4000, checkpoint: false });
        s.message(0, Message::MoveDirective { pid: npart, to: 1 });
        s.message(cfg.collector_rank(), Message::MoveDirective { pid: 0, to: 1 });
        let state = |pid| Message::State {
            pid,
            state: GroupState { buckets: Vec::new() },
            pending: Vec::new(),
            payloads: Vec::new(),
        };
        s.message(2, state(npart));
        s.message(0, state(1)); // state moves come from slaves
        s.message(2, Message::Seen { pid: npart, left: 1, right: 1 });
        assert_eq!(s.role.bad.dropped, 7);
        assert!(s.io.sent.is_empty(), "nothing shipped, installed or acked: {:?}", s.io.sent);
        assert_eq!(s.role.core().owned_partitions(), initial_partitions(&cfg.params, 2, 0));
        // The well-formed move still runs.
        s.message(0, Message::MoveDirective { pid: 0, to: 1 });
        assert!(matches!(s.io.sent[..], [(Dest::Slave(1), Message::State { pid: 0, .. })]));
    }

    #[test]
    fn every_batch_frame_and_nothing_else_acks_once_to_the_current_leader() {
        // The leader counts batch frames in flight by these acks: one
        // `Occupancy` per frame, to whoever leads now.
        let mut cfg = cfg();
        cfg.masters = 3;
        cfg.checkpoint_every = 1;
        let mut s = Slave0::new(&cfg);
        let acks = |s: &mut Slave0| -> Vec<Dest> {
            let sent = std::mem::take(&mut s.io.sent);
            sent.into_iter()
                .filter(|(_, m)| matches!(m, Message::Occupancy(_)))
                .map(|(d, _)| d)
                .collect()
        };
        let (peer, k) = (cfg.slave_rank(1), key_in(&cfg, 0));
        assert_eq!(s.batch(0, &[Tuple::new(Side::Left, 10, k, 0)]), Next::Drain);
        assert_eq!(acks(&mut s), [Dest::Master(0)]);
        assert_eq!(s.batch(0, &[]), Next::Drain);
        assert_eq!(acks(&mut s), [Dest::Master(0)], "an empty frame acks too");
        let empty = || GroupState { buckets: Vec::new() };
        let others = [
            (2, Message::MasterHeartbeat { term: 1, commit: 0 }),
            (peer, Message::Seen { pid: 3, left: 0, right: 0 }),
            (
                peer,
                Message::State {
                    pid: 3,
                    state: empty(),
                    pending: Vec::new(),
                    payloads: Vec::new(),
                },
            ),
            (
                peer,
                Message::Checkpoint {
                    pid: 1,
                    seen_left: 0,
                    seen_right: 0,
                    state: empty(),
                    pending: Vec::new(),
                    payloads: Vec::new(),
                },
            ),
            (2, Message::Restore { pid: 5, checkpoint: false }),
        ];
        for (from, msg) in others {
            let shown = format!("{msg:?}");
            s.message(from, msg);
            assert_eq!(acks(&mut s), [], "{shown} sent an ack");
        }
        s.role.heartbeat(&mut s.io);
        assert_eq!(acks(&mut s), [], "a heartbeat sent an ack");
        assert_eq!(s.role.bad.dropped, 0);
        // Master 2 leads since its beacon: the next frame's ack is its.
        assert_eq!(s.batch(2, &[Tuple::new(Side::Right, 20, k, 0)]), Next::Drain);
        assert_eq!(acks(&mut s), [Dest::Master(2)]);
    }

    #[test]
    fn a_standby_refuses_and_counts_an_entry_naming_a_slave_outside_the_cluster() {
        let mut cfg = cfg();
        cfg.masters = 3;
        let mut standby = MasterRole::new(&cfg, 1, cfg.seed);
        let mut io = Tape::default();
        let forged =
            Decision::SlaveDown { slave: 99, rehomes: Vec::new(), groups_lost: 1, tuples_lost: 1 };
        standby.message(
            0,
            Message::AppendEntry { term: 1, index: 0, decision: forged },
            0,
            &mut io,
        );
        standby.message(0, Message::Shutdown, 0, &mut io);
        assert!(io.sent.is_empty(), "the entry was acked: {:?}", io.sent);
        assert_eq!(standby.standby_deadline_us(), None, "the leader's shutdown ends the watch");
        let outcome = standby.outcome(0, false, WireStats::default());
        assert_eq!(outcome.frames_dropped, 1);
        assert_eq!((outcome.loss.groups_lost, outcome.dead_slaves.len()), (0, 0));
    }

    #[test]
    fn a_standby_keeps_one_stray_ack_per_partition_and_slave_and_counts_bad_ones() {
        let mut cfg = cfg();
        cfg.masters = 3;
        let mut standby = MasterRole::new(&cfg, 1, cfg.seed);
        let mut io = Tape::default();
        let slave0 = cfg.slave_rank(0);
        // No move is pending, so every ack in range is stray.
        for pid in [3; 50].into_iter().chain([5, cfg.params.npart]) {
            standby.message(slave0, Message::MoveComplete { pid }, 0, &mut io);
        }
        let garbage = Frame { from: slave0, payload: vec![0xEE, 1, 2, 3].into() };
        standby.frame(garbage, 0, &mut io);
        assert_eq!(standby.stray_acks, [(3, 0), (5, 0)], "one buffered ack per (partition, slave)");
        assert_eq!(standby.bad.dropped, 2, "the out-of-range ack and the undecodable frame");
    }

    /// Masters wired through an in-memory network on an injected clock:
    /// frames between masters arrive in send order, a dead master's
    /// inbox swallows them, and every frame sent is kept.
    struct Masters {
        roles: Vec<MasterRole>,
        alive: Vec<bool>,
        wire: VecDeque<(usize, Dest, Message)>,
        sent: Vec<(usize, Dest, Message)>,
    }

    /// Master `from`'s sends.
    struct Outbox<'a> {
        from: usize,
        wire: &'a mut VecDeque<(usize, Dest, Message)>,
    }

    impl RoleIo for Outbox<'_> {
        fn send(&mut self, to: Dest, msg: Message) {
            self.wire.push_back((self.from, to, msg));
        }

        fn outputs(&mut self, _: &[OutPair]) {
            unreachable!("a master ships no results")
        }
    }

    impl Masters {
        fn new(cfg: &NodeConfig) -> Self {
            Masters {
                roles: (0..cfg.masters).map(|m| MasterRole::new(cfg, m, cfg.seed)).collect(),
                alive: vec![true; cfg.masters],
                wire: VecDeque::new(),
                sent: Vec::new(),
            }
        }

        /// Runs `input` on master `m` if it is alive, then delivers
        /// everything in flight.
        fn at(&mut self, m: usize, now_us: u64, input: impl FnOnce(&mut MasterRole, &mut Outbox)) {
            if self.alive[m] {
                input(&mut self.roles[m], &mut Outbox { from: m, wire: &mut self.wire });
            }
            while let Some((from, to, msg)) = self.wire.pop_front() {
                self.sent.push((from, to, msg.clone()));
                if let Dest::Master(m) = to {
                    if self.alive[m] {
                        let io = &mut Outbox { from: m, wire: &mut self.wire };
                        self.roles[m].message(from, msg, now_us, io);
                    }
                }
            }
        }

        fn tick(&mut self, now_us: u64) {
            for m in 0..self.roles.len() {
                self.at(m, now_us, |role, io| role.tick(now_us, io));
            }
        }

        /// Slave frames reach every master.
        fn slave_sends(&mut self, rank: usize, msg: Message, now_us: u64) {
            for m in 0..self.roles.len() {
                let msg = msg.clone();
                self.at(m, now_us, |role, io| role.message(rank, msg, now_us, io));
            }
        }

        /// `(master, term, slave)` of every death notice sent, in order.
        fn dead_notices(&self) -> Vec<(usize, u64, u32)> {
            let mut notices = Vec::new();
            for (from, _, msg) in &self.sent {
                match msg {
                    Message::Dead { slave } => notices.push((*from, 0, *slave)),
                    Message::Sealed { term, inner } => {
                        if let Message::Dead { slave } = **inner {
                            notices.push((*from, *term, slave));
                        }
                    }
                    _ => {}
                }
            }
            notices
        }
    }

    #[test]
    fn standby_one_takes_over_at_its_staggered_deadline_and_reissues_only_unseen_effects() {
        let mut cfg = cfg();
        cfg.masters = 3;
        cfg.heartbeat = Duration::from_millis(100); // the beacon interval
        cfg.max_missed = 0; // the slaves here never beacon
        let (s0, s1) = (cfg.slave_rank(0), cfg.slave_rank(1));
        let mut net = Masters::new(&cfg);
        net.tick(0);
        // Entry 0: slave 1 is down. The standbys ack it, the leader
        // releases it and then advertises it as committed.
        net.at(0, 10_000, |role, io| role.peer_down(s1, 10_000, io));
        net.tick(20_000);
        net.tick(100_000);
        assert_eq!((net.roles[1].seen_commit, net.roles[2].seen_commit), (1, 1));
        // Entry 1: slave 0 is down. Acked, but the leader dies before it
        // releases it.
        net.at(0, 150_000, |role, io| role.peer_down(s0, 150_000, io));
        net.alive[0] = false;
        assert_eq!(net.dead_notices(), [(0, 1, 1)]);

        // Standby 1 campaigns 5 beats (4 + its rank) after the last
        // frame from the leader, standby 2 would a beat later.
        let mut t = 150_000;
        while !net.roles[1].leading() {
            t += 1_000;
            net.tick(t);
        }
        assert_eq!(t, 650_000);
        assert_eq!((net.roles[1].term(), net.roles[2].standby_deadline_us()), (2, Some(1_250_000)));
        // The whole log went out again under the new term ...
        let rebroadcast: Vec<u64> = net
            .sent
            .iter()
            .filter_map(|(from, to, msg)| match msg {
                Message::AppendEntry { term: 2, index, .. }
                    if (*from, *to) == (1, Dest::Master(2)) =>
                {
                    Some(*index)
                }
                _ => None,
            })
            .collect();
        assert_eq!(rebroadcast, [0, 1]);
        // ... and only the entry past the advertised commit point had its
        // effects issued again, once, however long the new leader leads.
        for t in (660_000..=2_000_000).step_by(10_000) {
            net.tick(t);
        }
        assert_eq!(net.dead_notices(), [(0, 1, 1), (1, 2, 0)]);
        let restores = |m: usize| {
            let restore = |msg: &Message| matches!(msg, Message::Sealed { inner, .. } if matches!(**inner, Message::Restore { .. }));
            net.sent.iter().filter(|(from, _, msg)| *from == m && restore(msg)).count()
        };
        assert_eq!((restores(0), restores(1)), (cfg.params.npart as usize / 2, 0));
        assert!(!net.roles[2].leading());
        assert_eq!(net.roles[2].log.len(), 2, "the standby rejected the duplicates");
    }

    #[test]
    fn a_slave_silent_past_the_deadline_is_declared_down_once_and_readmitted_when_heard() {
        let mut cfg = cfg();
        cfg.heartbeat = Duration::from_millis(100);
        cfg.max_missed = 3; // 300 ms of silence
        let (s0, s1) = (cfg.slave_rank(0), cfg.slave_rank(1));
        let mut net = Masters::new(&cfg);
        let mut down = Vec::new();
        for t in (0..=1_500_000).step_by(10_000) {
            if t % 100_000 == 0 {
                net.slave_sends(s0, Message::Heartbeat { seq: t }, t);
                // Slave 1 falls silent after 200 ms and beacons again
                // from 900 ms on.
                if t <= 200_000 || t >= 900_000 {
                    net.slave_sends(s1, Message::Heartbeat { seq: t }, t);
                }
            }
            let live = net.roles[0].core().is_live(1);
            net.tick(t);
            if live != net.roles[0].core().is_live(1) {
                down.push((t, live));
            }
        }
        assert_eq!(down, [(510_000, true)], "declared down once, at the first tick past 500 ms");
        assert!(net.roles[0].core().is_live(1), "readmitted");
        assert_eq!(net.dead_notices(), [(0, 0, 1)]);
        let outcome = net.roles.remove(0).outcome(0, true, WireStats::default());
        assert_eq!((outcome.dead_slaves, outcome.frames_dropped), (vec![], 0));
    }

    #[test]
    fn the_collector_folds_only_slave_outputs_and_one_marker_per_slave() {
        let mut cfg = cfg();
        cfg.warmup = Duration::ZERO;
        let mut c = CollectorRole::new(&cfg);
        let pair = OutPair { key: 3, left: (1, 0), right: (2, 0) };
        let stranger = cfg.ranks();
        for from in [1, 0, cfg.collector_rank(), stranger] {
            c.outputs(from, &[pair], 5);
        }
        c.message(stranger, Message::Dead { slave: 0 });
        c.message(0, Message::Dead { slave: 99 });
        c.message(2, Message::MasterHeartbeat { term: 9, commit: 0 });
        c.message(1, Message::Goodbye);
        c.message(1, Message::Goodbye); // the duplicate
        assert!(!c.done());
        c.message(0, Message::Dead { slave: 1 });
        assert!(c.done());
        c.message(2, Message::Shutdown); // after a death notice: taken
        assert!(c.admit_term(0), "the forged beacon raised no term");
        let (fold, dropped) = c.finish();
        assert_eq!(dropped, 7);
        assert_eq!((fold.outputs_total, fold.checksum), (1, pair.digest()));
    }
}
