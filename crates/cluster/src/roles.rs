//! The slave and collector protocols as sans-IO state machines.
//!
//! [`SlaveRole`] is a slave's whole part in the protocol (§IV-C/§IV-D,
//! Fig. 2): buffer and join the leader's batches, move a partition-group
//! on its directive, shelve a buddy's checkpoints and restore one on a
//! re-home, and follow the leader across terms. [`CollectorRole`] tracks
//! which slaves have flushed and folds their results through the one
//! [`OutputFold`]. Neither touches a socket or a clock: the driver feeds
//! inputs in and carries frames out through a [`RoleIo`]. The node loops
//! ([`crate::nodes`]) drive both roles over a transport, the simulator
//! ([`crate::simrt`]) drives `SlaveRole` through its event queue.
//!
//! Each role classifies the sender once, at its input boundary: frames
//! only the leader sends are taken from master ranks only, frames only
//! slaves send (`State`, `Seen`, `Checkpoint`, `Outputs`, one flush
//! marker each) from slave ranks only, and partition ids must be below
//! `npart` and slave indexes below the slave count. Anything else is
//! dropped and counted.

use crate::api::StreamingSink;
use crate::nodes::{initial_partitions, NodeConfig};
use std::sync::Arc;
use windjoin_core::{
    CheckpointStore, ExactEngine, GroupState, OutPair, PartitionCheckpoint, SlaveCore, Tuple,
    WorkStats,
};
use windjoin_metrics::DelayTracker;
use windjoin_net::wire::{PayloadColumn, WireError};
use windjoin_net::Message;

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

#[cfg(test)]
mod tests {
    use super::*;
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
