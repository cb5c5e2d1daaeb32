//! The master node (§IV, Algorithm 1): buffers arrivals into
//! per-partition mini-buffers, drains them to the active slaves at every
//! distribution-epoch slot, and periodically reorganises — classifying
//! slaves from their reported occupancies, pairing suppliers with
//! consumers, directing partition-group movements and adapting the
//! degree of declustering.
//!
//! Sans-io: the driver calls [`MasterCore::drain_for_slot`] /
//! [`MasterCore::plan_reorg`] on its epoch timers and reports move
//! completions, slave deaths ([`MasterCore::on_slave_down`]) and
//! recoveries ([`MasterCore::on_slave_up`]) back.
//!
//! ## Ack-clocked distribution
//!
//! The paper's slots hold every arrival until its slave's turn, so a
//! tuple waits `t_d / 2` at the master on average (Fig. 13) however idle
//! the slave is. The core also counts, per slave, the batch frames it
//! drained and the slave has not yet acknowledged
//! ([`MasterCore::on_batch_ack`]); between slots a driver may call
//! [`MasterCore::drain_for_idle`] to ship each slave with nothing in
//! flight what is buffered for it. Slots are unchanged — every slave in
//! the slot's sub-group gets its batch, acknowledged or not — so a
//! saturated slave, or one whose acks are lost, sees exactly the paper's
//! cadence, and no tuple waits longer than `t_d`. The counts are
//! leader-local: no [`Decision`] carries them, and a promoted standby
//! starts them at zero.
//!
//! ## One transition per decision
//!
//! A death, a readmission and a reorganisation are each decided from
//! `&self` as a [`Decision`] and then handed to
//! [`MasterCore::apply_decision`] — the only code that changes
//! membership and the partition map, places holds and pending moves,
//! retires checkpoint registrations and charges lost window state. A
//! standby master applies the leader's replicated decisions through the
//! same function, so leader and standbys run one transition. What the
//! slaves report to every master directly — move acks
//! ([`MasterCore::on_move_complete`]) and checkpoint notes
//! ([`MasterCore::note_checkpoint`]) — is applied as it arrives, on
//! leader and standbys alike.
//!
//! ## Failure model
//!
//! A dead slave is treated as a supplier that can no longer supply:
//! every partition-group it owned, or was handing over, is re-homed
//! ([`Rehome`]) onto a live active slave through the same
//! mapping/hold/ack machinery as a §IV-C load move, except the new owner
//! installs the state itself — the buddy checkpoint when the master
//! registered one (a lossless restore, see [`crate::checkpoint`]), an
//! empty group otherwise. A partition with no live adopter (a
//! total-death episode) is an orphan until the next reorganisation
//! re-homes it the same way. The window state of every partition not
//! restored from a checkpoint is charged once, when the death is
//! decided, to [`WorkStats::tuples_lost`]/[`WorkStats::groups_lost`] as
//! a window-bounded upper bound — losing window state can only suppress
//! future matches, never fabricate or duplicate one, so outputs stay a
//! subset of the oracle.

use crate::checkpoint::CheckpointRegistry;
use crate::ctrlog::Decision;
use crate::reorg::{classify, decide_membership, pair_moves, DodDecision, NodeClass};
use crate::{hash::partition_of, Params, PartitionedBuffer, Tuple, WorkStats};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};

/// One directed partition-group movement (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MovePlan {
    /// The partition-group to move.
    pub pid: u32,
    /// Current owner (the supplier, or a drained slave).
    pub from: usize,
    /// New owner (the consumer).
    pub to: usize,
}

/// One partition-group re-homed without a live supplier: a dead owner's,
/// a dead in-flight supplier's, or an orphan's. The new owner `to` gets
/// a `Restore`, installs the state itself and acks like the consumer of
/// a load move; the partition is held until then.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rehome {
    /// The partition-group.
    pub pid: u32,
    /// The new owner.
    pub to: usize,
    /// The registered buddy checkpoint's `(seen_left, seen_right)`
    /// delivery watermarks — `to` holds it, installs it and gets the
    /// tail past them replayed — or `None` for an empty install.
    pub checkpoint: Option<(u64, u64)>,
}

/// The master's protocol state.
#[derive(Debug)]
pub struct MasterCore {
    params: std::sync::Arc<Params>,
    active: Vec<bool>,
    /// Transport/heartbeat liveness per slave. `active[s]` implies
    /// `live[s]`; a dead slave can only return through
    /// [`MasterCore::on_slave_up`].
    live: Vec<bool>,
    /// Slaves back from the dead (or late joiners) awaiting readmission
    /// at the next reorganization epoch.
    recovered: Vec<bool>,
    /// Partition → owning slave. Remapped eagerly when a move is
    /// planned; the partition is *held* until the move completes.
    map: Vec<usize>,
    buf: PartitionedBuffer,
    held: HashSet<u32>,
    pending_moves: Vec<MovePlan>,
    /// Latest reported occupancy per slave; `None` = no report yet
    /// (fresh slaves classify as consumers — they carry no load).
    occupancy: Vec<Option<f64>>,
    /// Per-partition log of `(max timestamp, count)` per drained batch,
    /// pruned to the retention horizon — the window-bounded estimate of
    /// what a slave's death costs.
    sent_log: Vec<VecDeque<(u64, u32)>>,
    /// Largest tuple timestamp ever drained (prunes the sent log).
    sent_watermark: u64,
    /// Accumulated losses across every slave failure.
    loss: WorkStats,
    /// Who holds which partition's latest buddy checkpoint (fed by
    /// `CkptNote` frames); consulted on slave death to restore instead
    /// of charging loss.
    ckpts: CheckpointRegistry,
    rng: SmallRng,
    peak_buffer_bytes: u64,
    /// Batch frames drained per slave and not yet acknowledged.
    in_flight: Vec<u32>,
}

impl MasterCore {
    /// A master over `total_slaves` provisioned slaves, the first
    /// `initial_active` of which start active, with partitions assigned
    /// round-robin among them. The parameters are shared, not copied —
    /// pass an `Arc<Params>` to avoid a deep clone per node (a plain
    /// `Params` converts implicitly).
    pub fn new(
        params: impl Into<std::sync::Arc<Params>>,
        total_slaves: usize,
        initial_active: usize,
        seed: u64,
    ) -> Self {
        let params = params.into();
        assert!(initial_active >= 1 && initial_active <= total_slaves);
        params.validate().expect("invalid parameters");
        let map: Vec<usize> = (0..params.npart).map(|p| (p as usize) % initial_active).collect();
        let buf =
            PartitionedBuffer::new(params.npart, params.tuple_bytes, params.slave_buffer_bytes);
        MasterCore {
            active: (0..total_slaves).map(|s| s < initial_active).collect(),
            live: vec![true; total_slaves],
            recovered: vec![false; total_slaves],
            map,
            buf,
            held: HashSet::new(),
            pending_moves: Vec::new(),
            occupancy: vec![None; total_slaves],
            sent_log: (0..params.npart).map(|_| VecDeque::new()).collect(),
            sent_watermark: 0,
            loss: WorkStats::default(),
            ckpts: CheckpointRegistry::new(),
            rng: SmallRng::seed_from_u64(seed),
            params,
            peak_buffer_bytes: 0,
            in_flight: vec![0; total_slaves],
        }
    }

    /// The run parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Initial `(slave, partitions)` assignment, for driver bootstrap.
    pub fn initial_assignment(&self) -> Vec<(usize, Vec<u32>)> {
        let mut per: Vec<Vec<u32>> = vec![Vec::new(); self.active.len()];
        for (pid, &s) in self.map.iter().enumerate() {
            per[s].push(pid as u32);
        }
        per.into_iter().enumerate().filter(|(_, v)| !v.is_empty()).collect()
    }

    /// Buffers one arrival into its partition's mini-buffer (§IV-B).
    pub fn on_arrival(&mut self, t: Tuple) {
        let pid = partition_of(t.key, self.params.npart);
        self.buf.push(pid, t);
        self.peak_buffer_bytes = self.peak_buffer_bytes.max(self.buf.bytes());
    }

    /// Currently active slaves, ascending.
    pub fn active_slaves(&self) -> Vec<usize> {
        (0..self.active.len()).filter(|&s| self.active[s]).collect()
    }

    /// The degree of declustering (number of active slaves).
    pub fn degree(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// The owner of partition `pid` per the current mapping.
    pub fn partition_owner(&self, pid: u32) -> usize {
        self.map[pid as usize]
    }

    /// The sub-group slot of `slave` (its rank among active slaves,
    /// round-robin over `ng`; §V-B).
    pub fn slot_of(&self, slave: usize) -> u32 {
        let rank = self
            .active_slaves()
            .iter()
            .position(|&s| s == slave)
            .expect("slot_of called for an inactive slave");
        crate::subgroup::slot_of_slave(rank, self.params.ng)
    }

    /// Drains the mini-buffers for every active slave in `slot`,
    /// returning one `(slave, batch)` per slave **in transmission
    /// order** (ascending id — the serial order the paper's Figs. 11–12
    /// study). Batches may be empty: the synchronous pattern exchanges a
    /// message every epoch regardless, acknowledged or not. Held
    /// (moving) partitions are skipped — their tuples wait for the move
    /// to complete (§IV-C).
    pub fn drain_for_slot(&mut self, slot: u32) -> Vec<(usize, Vec<Tuple>)> {
        let slaves: Vec<usize> =
            self.active_slaves().into_iter().filter(|&s| self.slot_of(s) == slot).collect();
        slaves.into_iter().map(|s| (s, self.drain_for(s))).collect()
    }

    /// Drains, for every active slave with no batch frame in flight and
    /// something buffered, everything buffered for it: one `(slave,
    /// batch)` per such slave, ascending id, none empty. Held partitions
    /// are skipped as at slots. A slave still working through a frame
    /// gets nothing here until it acks.
    pub fn drain_for_idle(&mut self) -> Vec<(usize, Vec<Tuple>)> {
        let idle: Vec<usize> = self
            .active_slaves()
            .into_iter()
            .filter(|&s| {
                self.in_flight[s] == 0 && self.deliverable(s).any(|p| self.buf.partition_len(p) > 0)
            })
            .collect();
        idle.into_iter().map(|s| (s, self.drain_for(s))).collect()
    }

    /// Records that `slave` drained one batch frame. Acks beyond the
    /// frames in flight — a deposed leader's batches, a restore's
    /// replayed tail — saturate at zero.
    pub fn on_batch_ack(&mut self, slave: usize) {
        self.in_flight[slave] = self.in_flight[slave].saturating_sub(1);
    }

    /// The partitions whose tuples may flow to `slave` now: owned by it
    /// and not held.
    fn deliverable(&self, slave: usize) -> impl Iterator<Item = u32> + '_ {
        (0..self.params.npart)
            .filter(move |&p| self.map[p as usize] == slave && !self.held.contains(&p))
    }

    /// One batch frame for `slave`: every deliverable partition drained
    /// whole, in partition order, and counted in flight.
    fn drain_for(&mut self, slave: usize) -> Vec<Tuple> {
        // Per-partition drain so every send is logged against its
        // partition — the window-bounded loss estimate a failure
        // charges.
        let mut batch = Vec::new();
        for pid in 0..self.params.npart {
            if self.map[pid as usize] != slave || self.held.contains(&pid) {
                continue;
            }
            let from = batch.len();
            self.buf.drain_partition_into(pid, &mut batch);
            if let Some(max_ts) = batch[from..].iter().map(|t| t.t).max() {
                self.record_sent(pid, max_ts, (batch.len() - from) as u32);
            }
        }
        self.in_flight[slave] = self.in_flight[slave].saturating_add(1);
        batch
    }

    /// Maximum useful state lifetime: a tuple older than this (relative
    /// to the newest drained timestamp) can no longer produce a match.
    fn retention_horizon_us(&self) -> u64 {
        self.params
            .sem
            .w_left_us
            .max(self.params.sem.w_right_us)
            .saturating_add(self.params.expiry_lag_us)
    }

    fn record_sent(&mut self, pid: u32, max_ts: u64, n: u32) {
        self.sent_watermark = self.sent_watermark.max(max_ts);
        let floor = self.sent_watermark.saturating_sub(self.retention_horizon_us());
        let log = &mut self.sent_log[pid as usize];
        log.push_back((max_ts, n));
        while log.front().is_some_and(|&(ts, _)| ts < floor) {
            log.pop_front();
        }
    }

    /// What losing partition `pid`'s window state costs: one group, plus
    /// every tuple routed to it that is still within the retention
    /// horizon.
    fn lost_state(&self, pid: u32) -> WorkStats {
        let floor = self.sent_watermark.saturating_sub(self.retention_horizon_us());
        let log = &self.sent_log[pid as usize];
        let tuples_lost = log.iter().filter(|&&(ts, _)| ts >= floor).map(|&(_, n)| n as u64).sum();
        WorkStats { groups_lost: 1, tuples_lost, ..WorkStats::default() }
    }

    /// Records a slave's average-occupancy report for the closing
    /// reorganization epoch (§IV-C).
    pub fn on_occupancy(&mut self, slave: usize, f: f64) {
        self.occupancy[slave] = Some(f);
    }

    /// True while `slave` is considered alive (connected / heartbeating).
    pub fn is_live(&self, slave: usize) -> bool {
        self.live[slave]
    }

    /// Currently live slaves, ascending (active or not).
    pub fn live_slaves(&self) -> Vec<usize> {
        (0..self.live.len()).filter(|&s| self.live[s]).collect()
    }

    /// Accumulated state losses across every slave failure so far.
    pub fn loss(&self) -> WorkStats {
        self.loss
    }

    /// Declares `slave` dead (transport teardown or missed heartbeats),
    /// re-homes everything it owned and applies the decision; `None`
    /// when it already was dead.
    ///
    /// * In-flight moves touching the dead slave are cancelled. A move
    ///   *out of* it is re-homed fresh at the surviving consumer (the
    ///   extracted state may have died on the wire); a move *into* it
    ///   leaves the partition mapped to it, for the sweep below.
    /// * Every partition mapped to it is re-homed at the buddy holding
    ///   its registered checkpoint when that buddy is active, else fresh
    ///   at the live active slave owning the fewest partitions (ties to
    ///   the lowest id) — or, with none left, stays an orphan for
    ///   [`MasterCore::plan_reorg`] to rescue.
    /// * The window state of every partition not restored from a
    ///   checkpoint is charged to the loss tally, window-bounded (see
    ///   [`WorkStats::tuples_lost`]).
    pub fn on_slave_down(&mut self, slave: usize) -> Option<Decision> {
        if !self.live[slave] {
            return None;
        }
        let mut rehomes = Vec::new();
        let mut lost = WorkStats::default();
        for m in self.pending_moves.iter().filter(|m| m.from == slave) {
            // If the in-flight State frame does arrive, the new owner
            // keeps whichever install lands last — both orders are sound.
            lost.add(&self.lost_state(m.pid));
            rehomes.push(Rehome { pid: m.pid, to: m.to, checkpoint: None });
        }
        // The adopters and their loads as the re-homes leave them.
        let adopters: Vec<usize> =
            self.active_slaves().into_iter().filter(|&s| s != slave).collect();
        let mut owned = vec![0usize; self.active.len()];
        for &s in &self.map {
            owned[s] += 1;
        }
        for pid in (0..self.params.npart).filter(|&p| self.map[p as usize] == slave) {
            // The dead slave's own shelf died with it. The restored
            // partition's sent log is kept: its state is still at risk
            // if the holder later dies uncheckpointed.
            let ckpt = self.ckpts.get(pid).filter(|c| c.holder != slave && self.active[c.holder]);
            let rehome = match ckpt {
                Some(c) => {
                    Rehome { pid, to: c.holder, checkpoint: Some((c.seen_left, c.seen_right)) }
                }
                None => {
                    lost.add(&self.lost_state(pid));
                    let Some(&to) = adopters.iter().min_by_key(|&&s| (owned[s], s)) else {
                        continue;
                    };
                    Rehome { pid, to, checkpoint: None }
                }
            };
            owned[rehome.to] += 1;
            rehomes.push(rehome);
        }
        let d = Decision::SlaveDown {
            slave,
            rehomes,
            groups_lost: lost.groups_lost,
            tuples_lost: lost.tuples_lost,
        };
        self.apply_decision(&d);
        Some(d)
    }

    /// Records a `CkptNote` from `holder`: it shelved a checkpoint of
    /// `pid` complete through the given delivery watermarks. Accepted
    /// only when `holder` is `pid`'s current *buddy* — the slave one
    /// past the current owner — is live, and no move of `pid` is in
    /// flight; a note raced by an ownership change can therefore never
    /// resurrect a stale snapshot. Returns whether it registered.
    pub fn note_checkpoint(
        &mut self,
        pid: u32,
        holder: usize,
        seen_left: u64,
        seen_right: u64,
    ) -> bool {
        if pid >= self.params.npart || holder >= self.live.len() {
            return false;
        }
        let owner = self.map[pid as usize];
        let buddy = (owner + 1) % self.live.len();
        if holder != buddy || !self.live[holder] || self.held.contains(&pid) {
            return false;
        }
        self.ckpts.note(pid, holder, seen_left, seen_right);
        true
    }

    /// Partitions with a registered buddy checkpoint (diagnostics).
    pub fn checkpointed_partitions(&self) -> Vec<u32> {
        self.ckpts.covered_partitions()
    }

    /// Charges every tuple still buffered at the master as lost and
    /// returns the charge. For the driver's shutdown path: anything
    /// buffered after the final drain — held behind a re-home whose new
    /// owner never acked, or owned by a dead slave with no live
    /// adopter — can never be delivered, and must not vanish
    /// unaccounted.
    pub fn account_undelivered(&mut self) -> WorkStats {
        let mut lost = WorkStats::default();
        for pid in self.buf.non_empty_partitions() {
            lost.tuples_lost += self.buf.partition_len(pid) as u64;
        }
        self.loss.add(&lost);
        lost
    }

    /// Reports that `slave` is reachable again (a recovered node or a
    /// late joiner) and applies the decision: it waits in the recovered
    /// set until the next reorganization epoch readmits it
    /// ([`DodDecision::Readmit`]). `None` when it was live already.
    pub fn on_slave_up(&mut self, slave: usize) -> Option<Decision> {
        if self.live[slave] {
            return None;
        }
        let d = Decision::Readmit { slave };
        self.apply_decision(&d);
        Some(d)
    }

    /// Runs the reorganization protocol (Algorithm 1, lines 10–19):
    /// classify, adapt the degree of declustering, re-home orphans, pair
    /// suppliers with consumers — and applies the resulting
    /// [`Decision::Reorg`]. The mapping is updated eagerly; moved
    /// partitions are held until [`MasterCore::on_move_complete`].
    ///
    /// `adaptive_dod = false` disables §V-A (the non-adaptive baseline of
    /// Fig. 11).
    pub fn plan_reorg(&mut self, adaptive_dod: bool) -> Decision {
        let mut rng = self.rng.clone();
        let d = self.decide_reorg(adaptive_dod, &mut rng);
        self.rng = rng;
        self.apply_decision(&d);
        d
    }

    fn decide_reorg(&self, adaptive_dod: bool, rng: &mut SmallRng) -> Decision {
        let npart = self.params.npart;
        let class_of = |s: usize| match self.occupancy[s] {
            Some(f) => classify(f, self.params.th_con, self.params.th_sup),
            None => NodeClass::Consumer, // fresh slave: no load yet
        };
        let actives = self.active_slaves();
        let of_class = |c| actives.iter().copied().filter(|&s| class_of(s) == c).collect();
        let mut suppliers: Vec<usize> = of_class(NodeClass::Supplier);
        let mut consumers: Vec<usize> = of_class(NodeClass::Consumer);

        let recovered = (0..self.active.len()).find(|&s| self.recovered[s]);
        let activated = if !adaptive_dod || actives.is_empty() {
            // Failure recovery is orthogonal to §V-A adaptivity: a
            // non-adaptive run keeps a fixed degree, so a recovered
            // slave rejoins immediately to restore it — as it does when
            // no slave is active, leaving no load to classify.
            recovered
        } else {
            let n_recovered = self.recovered.iter().filter(|&&r| r).count();
            match decide_membership(suppliers.len(), consumers.len(), self.params.beta, n_recovered)
            {
                DodDecision::Shrink if self.degree() > 1 => {
                    return self.decide_shrink(&suppliers, &consumers)
                }
                // Activate a waiting rejoiner first (it restores the
                // pre-failure degree for free), else the first
                // provisioned inactive *live* slave — a dead slave can
                // never be grown back in.
                DodDecision::Grow | DodDecision::Readmit => recovered
                    .or_else(|| (0..self.active.len()).find(|&s| !self.active[s] && self.live[s])),
                _ => None,
            }
        };
        let mut active = self.active.clone();
        if let Some(s) = activated {
            active[s] = true;
            consumers.push(s);
        }

        // Orphan rescue: a partition may only live on an active slave.
        // The load rules cannot produce one (a slave with an inbound
        // move in flight is never deactivated), but a total-death
        // episode can leave partitions mapped to a dead slave with no
        // adopter; sweep every epoch, after readmission so a rejoiner is
        // immediately eligible. The dead owner cannot supply, so the
        // rescue is a fresh re-home, never a move directive. (A shrink
        // epoch returns early above; orphans then wait one epoch — they
        // only exist after a total-death episode, which a shrink cannot
        // follow.)
        let rehomes: Vec<Rehome> = match (0..active.len()).find(|&s| active[s]) {
            Some(to) => (0..npart)
                .filter(|&p| !active[self.map[p as usize]] && !self.held.contains(&p))
                .map(|pid| Rehome { pid, to, checkpoint: None })
                .collect(),
            None => Vec::new(),
        };

        // §IV-C pairing: one randomly selected partition-group per
        // supplier, one unique consumer per supplier. (Suppliers are
        // distinct and active, so no orphan and no other pair's choice
        // is ever movable here.)
        suppliers.sort_unstable();
        consumers.sort_unstable();
        let mut moves = Vec::new();
        for (sup, con) in pair_moves(&suppliers, &consumers) {
            let movable: Vec<u32> = (0..npart)
                .filter(|&p| self.map[p as usize] == sup && !self.held.contains(&p))
                .collect();
            if movable.is_empty() {
                continue;
            }
            let pid = movable[rng.gen_range(0..movable.len())];
            moves.push(MovePlan { pid, from: sup, to: con });
        }
        Decision::Reorg { moves, rehomes, activated, deactivated: None }
    }

    /// §V-A shrink: drains the emptiest consumer onto the other actives.
    fn decide_shrink(&self, suppliers: &[usize], consumers: &[usize]) -> Decision {
        let occupancy = |s: usize| self.occupancy[s].unwrap_or(0.0);
        let emptier = |a: &usize, b: &usize| occupancy(*a).total_cmp(&occupancy(*b)).then(a.cmp(b));
        // A slave still awaiting an inbound state move must not be
        // deactivated: the move would install its partition on an
        // inactive node and strand it.
        let victim = consumers
            .iter()
            .copied()
            .filter(|&s| !self.pending_moves.iter().any(|m| m.to == s))
            .min_by(emptier);
        let Some(victim) = victim else {
            // Every consumer has an inbound move.
            return Decision::Reorg {
                moves: Vec::new(),
                rehomes: Vec::new(),
                activated: None,
                deactivated: None,
            };
        };
        // Receivers: remaining actives, least-loaded first, suppliers
        // excluded unless nothing else exists.
        let others: Vec<usize> =
            self.active_slaves().into_iter().filter(|&s| s != victim).collect();
        let mut receivers: Vec<usize> =
            others.iter().copied().filter(|s| !suppliers.contains(s)).collect();
        if receivers.is_empty() {
            receivers = others;
        }
        receivers.sort_by(emptier);
        let moves = (0..self.params.npart)
            .filter(|&p| self.map[p as usize] == victim && !self.held.contains(&p))
            .enumerate()
            .map(|(i, pid)| MovePlan { pid, from: victim, to: receivers[i % receivers.len()] })
            .collect();
        // Shrink only happens with zero suppliers; no pairing.
        Decision::Reorg { moves, rehomes: Vec::new(), activated: None, deactivated: Some(victim) }
    }

    /// Reports that the state of `pid` has been installed at its new
    /// owner `at_slave`; the partition's buffered tuples flow at the
    /// next drain. Returns `false` for a stale ack — no move in flight
    /// for `pid`, or an ack from a slave that is not the current move's
    /// target (a superseded pre-failure move) — which leaves the hold in
    /// place for the live move's own ack.
    pub fn on_move_complete(&mut self, pid: u32, at_slave: usize) -> bool {
        let Some(m) = self.pending_moves.iter().find(|m| m.pid == pid) else {
            return false;
        };
        if m.to != at_slave {
            return false;
        }
        self.held.remove(&pid);
        self.pending_moves.retain(|m| m.pid != pid);
        true
    }

    /// Applies one control [`Decision`] — the one transition behind
    /// every death, readmission and reorganisation. The leader's
    /// planners apply what they decide; a standby applies the leader's
    /// replicated decisions (it has neither the occupancy reports, the
    /// sent log nor the RNG to re-plan) and lands in the same control
    /// state.
    pub fn apply_decision(&mut self, d: &Decision) {
        match *d {
            Decision::SlaveDown { slave, ref rehomes, groups_lost, tuples_lost } => {
                if !self.live[slave] {
                    return;
                }
                self.live[slave] = false;
                self.recovered[slave] = false;
                self.active[slave] = false;
                self.occupancy[slave] = None;
                // Its frames in flight died with it; readmitted, it
                // starts with none.
                self.in_flight[slave] = 0;
                // Its checkpoint shelf died with it.
                self.ckpts.drop_holder(slave);
                // Cancel in-flight moves touching it; the ones it was
                // supplying come back among the re-homes.
                let held = &mut self.held;
                self.pending_moves.retain(|m| {
                    let stale = m.from == slave || m.to == slave;
                    if stale {
                        held.remove(&m.pid);
                    }
                    !stale
                });
                for &r in rehomes {
                    self.rehome(r, slave);
                }
                // Orphans: charged like a fresh re-home, rescued later.
                for pid in (0..self.params.npart).filter(|&p| self.map[p as usize] == slave) {
                    self.sent_log[pid as usize].clear();
                    self.ckpts.forget(pid);
                }
                self.loss.groups_lost += groups_lost;
                self.loss.tuples_lost += tuples_lost;
            }
            Decision::Readmit { slave } => {
                if !self.live[slave] {
                    self.live[slave] = true;
                    self.recovered[slave] = true;
                    self.occupancy[slave] = None;
                }
            }
            Decision::Reorg { ref moves, ref rehomes, activated, deactivated } => {
                if let Some(s) = activated {
                    debug_assert!(self.live[s] && !self.active[s]);
                    self.active[s] = true;
                    self.recovered[s] = false;
                    self.occupancy[s] = None;
                }
                if let Some(s) = deactivated {
                    self.active[s] = false;
                    self.occupancy[s] = None;
                }
                for &r in rehomes {
                    self.rehome(r, self.map[r.pid as usize]);
                }
                for &mv in moves {
                    debug_assert_eq!(self.map[mv.pid as usize], mv.from);
                    self.map[mv.pid as usize] = mv.to;
                    self.held.insert(mv.pid);
                    self.pending_moves.push(mv);
                    // Any shelved checkpoint belongs to the closing
                    // ownership era; restoring it after tuples flow to
                    // the new owner would replay work whose outputs were
                    // already emitted.
                    self.ckpts.forget(mv.pid);
                }
            }
        }
    }

    /// Maps `r.pid` to its new owner and holds it until the owner acks;
    /// `from` is the owner that can no longer supply. An empty install
    /// starts a new window, so its sent log starts over (the old one was
    /// charged); the registration is consumed or of a dead era either way.
    fn rehome(&mut self, r: Rehome, from: usize) {
        if r.checkpoint.is_none() {
            self.sent_log[r.pid as usize].clear();
        }
        self.ckpts.forget(r.pid);
        self.map[r.pid as usize] = r.to;
        self.held.insert(r.pid);
        self.pending_moves.push(MovePlan { pid: r.pid, from, to: r.to });
    }

    /// Moves still awaiting completion.
    pub fn pending_moves(&self) -> &[MovePlan] {
        &self.pending_moves
    }

    /// Bytes currently buffered at the master.
    pub fn buffered_bytes(&self) -> u64 {
        self.buf.bytes()
    }

    /// Largest master buffer seen so far (validates the §V-B bound).
    pub fn peak_buffer_bytes(&self) -> u64 {
        self.peak_buffer_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Side;

    fn params(npart: u32) -> Params {
        let mut p = Params::default_paper();
        p.npart = npart;
        p
    }

    fn arrival(key: u64, seq: u64) -> Tuple {
        Tuple::new(Side::Left, seq, key, seq)
    }

    /// The parts of a reorganisation decision.
    struct Plan {
        moves: Vec<MovePlan>,
        rehomes: Vec<Rehome>,
        activated: Option<usize>,
        deactivated: Option<usize>,
    }

    fn reorg(m: &mut MasterCore, adaptive_dod: bool) -> Plan {
        match m.plan_reorg(adaptive_dod) {
            Decision::Reorg { moves, rehomes, activated, deactivated } => {
                Plan { moves, rehomes, activated, deactivated }
            }
            other => panic!("plan_reorg decided {other:?}"),
        }
    }

    /// The re-homes and the loss charge of declaring `slave` dead.
    fn down(m: &mut MasterCore, slave: usize) -> (Vec<Rehome>, WorkStats) {
        match m.on_slave_down(slave) {
            Some(Decision::SlaveDown { rehomes, groups_lost, tuples_lost, .. }) => {
                (rehomes, WorkStats { groups_lost, tuples_lost, ..WorkStats::default() })
            }
            other => panic!("on_slave_down decided {other:?}"),
        }
    }

    /// Acks every re-home at its new owner.
    fn ack_all(m: &mut MasterCore, rehomes: &[Rehome]) {
        for r in rehomes {
            assert!(m.on_move_complete(r.pid, r.to));
        }
    }

    #[test]
    fn initial_round_robin_mapping() {
        let m = MasterCore::new(params(6), 4, 3, 1);
        let asg = m.initial_assignment();
        assert_eq!(asg.len(), 3);
        for (s, pids) in &asg {
            assert_eq!(pids.len(), 2, "slave {s} partition count");
        }
        assert_eq!(m.degree(), 3);
        assert_eq!(m.active_slaves(), vec![0, 1, 2]);
    }

    #[test]
    fn arrivals_route_to_owners_on_drain() {
        let mut m = MasterCore::new(params(6), 2, 2, 1);
        for i in 0..100 {
            m.on_arrival(arrival(i, i));
        }
        assert!(m.buffered_bytes() > 0);
        let batches = m.drain_for_slot(0);
        assert_eq!(batches.len(), 2, "ng=1: both slaves in slot 0");
        let total: usize = batches.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 100);
        assert_eq!(m.buffered_bytes(), 0);
        // Every tuple landed at its partition's owner.
        for (s, batch) in &batches {
            for t in batch {
                let pid = partition_of(t.key, 6);
                assert_eq!(m.partition_owner(pid), *s);
            }
        }
    }

    /// Keys `0..` that land in partition `pid` of `npart`.
    fn keys_in(pid: u32, npart: u32) -> impl Iterator<Item = u64> {
        (0..).filter(move |&k| partition_of(k, npart) == pid)
    }

    fn total(batches: &[(usize, Vec<Tuple>)]) -> usize {
        batches.iter().map(|(_, b)| b.len()).sum()
    }

    #[test]
    fn an_idle_slave_gets_its_buffered_tuples_between_slots() {
        let mut m = MasterCore::new(params(6), 2, 2, 1);
        assert!(m.drain_for_idle().is_empty(), "nothing buffered, nothing shipped");
        for i in 0..100 {
            m.on_arrival(arrival(i, i));
        }
        let batches = m.drain_for_idle();
        assert_eq!(batches.iter().map(|(s, _)| *s).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(total(&batches), 100);
        for (s, batch) in &batches {
            assert!(batch.iter().all(|t| m.partition_owner(partition_of(t.key, 6)) == *s));
        }
        assert_eq!(m.buffered_bytes(), 0);
    }

    #[test]
    fn a_slave_with_a_batch_in_flight_gets_nothing_until_its_ack() {
        let mut m = MasterCore::new(params(6), 2, 2, 1);
        let feed = |m: &mut MasterCore, from: u64| {
            for i in from..from + 60 {
                m.on_arrival(arrival(i, i));
            }
        };
        feed(&mut m, 0);
        assert_eq!(m.drain_for_idle().len(), 2);
        feed(&mut m, 100);
        assert!(m.drain_for_idle().is_empty(), "both slaves have a frame in flight");
        m.on_batch_ack(1);
        let batches = m.drain_for_idle();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].0, 1, "only the slave that acked");
        // The slot still ships the unacknowledged slave, and ships the
        // acknowledged one an empty frame.
        let slot = m.drain_for_slot(0);
        assert_eq!(
            slot.iter().map(|(s, b)| (*s, b.is_empty())).collect::<Vec<_>>(),
            [(0, false), (1, true)]
        );
        assert_eq!(m.buffered_bytes(), 0);
        // Slave 1 now has two frames in flight: one ack is not enough.
        feed(&mut m, 200);
        m.on_batch_ack(1);
        assert!(m.drain_for_idle().iter().all(|(s, _)| *s != 1));
        m.on_batch_ack(1);
        assert!(m.drain_for_idle().iter().any(|(s, _)| *s == 1));
    }

    #[test]
    fn a_held_partition_waits_on_ticks_as_at_slots_and_then_flows_in_order() {
        let mut m = MasterCore::new(params(8), 2, 2, 1);
        m.on_occupancy(0, 0.9);
        m.on_occupancy(1, 0.0);
        let mv = reorg(&mut m, false).moves[0];
        assert_eq!(mv.to, 1);
        // Slave 1 keeps a partition of its own besides the held one.
        let own = (0..8).find(|&p| m.partition_owner(p) == 1 && p != mv.pid).expect("one");
        let held: Vec<Tuple> =
            keys_in(mv.pid, 8).take(5).enumerate().map(|(i, k)| arrival(k, i as u64)).collect();
        for (i, &t) in held.iter().enumerate() {
            m.on_arrival(t);
            m.on_arrival(arrival(keys_in(own, 8).nth(i).unwrap(), 10 + i as u64));
        }
        let batches = m.drain_for_idle();
        assert_eq!(batches.len(), 1);
        let (s, batch) = &batches[0];
        assert_eq!((*s, batch.len()), (1, 5));
        assert!(batch.iter().all(|t| partition_of(t.key, 8) == own), "a held tuple shipped");
        m.on_batch_ack(1);
        assert!(m.drain_for_idle().is_empty(), "the held partition still waits");
        assert!(m.on_move_complete(mv.pid, 1));
        let batches = m.drain_for_idle();
        assert_eq!(batches, [(1, held)], "released whole, in arrival order");
    }

    #[test]
    fn an_ack_with_nothing_in_flight_saturates_at_zero() {
        let mut m = MasterCore::new(params(4), 1, 1, 1);
        m.on_batch_ack(0);
        m.on_batch_ack(0);
        m.on_arrival(arrival(1, 0));
        assert_eq!(m.drain_for_idle().len(), 1);
        m.on_arrival(arrival(2, 1));
        assert!(m.drain_for_idle().is_empty(), "surplus acks bought no extra frame");
    }

    #[test]
    fn a_dead_or_readmitted_slave_starts_with_nothing_in_flight() {
        let mut m = MasterCore::new(params(4), 2, 2, 1);
        m.drain_for_slot(0);
        assert_eq!(m.in_flight, [1, 1]);
        let (rehomes, _) = down(&mut m, 0);
        ack_all(&mut m, &rehomes);
        assert_eq!(m.in_flight, [0, 1]);
        down(&mut m, 1);
        assert!(m.on_slave_up(1).is_some());
        let plan = reorg(&mut m, false);
        assert_eq!(plan.activated, Some(1));
        ack_all(&mut m, &plan.rehomes);
        // Its pre-death frame never acks; it is fed all the same.
        m.on_arrival(arrival(7, 0));
        assert_eq!(total(&m.drain_for_idle()), 1);
        assert_eq!(m.in_flight, [0, 1]);
    }

    #[test]
    fn supplier_consumer_move_lifecycle() {
        let mut m = MasterCore::new(params(8), 2, 2, 1);
        m.on_occupancy(0, 0.9); // supplier
        m.on_occupancy(1, 0.0); // consumer
        let plan = reorg(&mut m, false);
        assert_eq!(plan.moves.len(), 1);
        let mv = plan.moves[0];
        assert_eq!(mv.from, 0);
        assert_eq!(mv.to, 1);
        assert_eq!(m.partition_owner(mv.pid), 1, "mapping updated eagerly");

        // Arrivals for the moving partition are held...
        let mut held_key = None;
        for k in 0..10_000u64 {
            if partition_of(k, 8) == mv.pid {
                held_key = Some(k);
                break;
            }
        }
        let k = held_key.expect("some key maps to the moving partition");
        m.on_arrival(arrival(k, 0));
        let drained: usize = m.drain_for_slot(0).iter().map(|(_, b)| b.len()).sum();
        assert_eq!(drained, 0, "held partition's tuples must wait");

        // ...a stale ack from the wrong slave does not release them...
        assert!(!m.on_move_complete(mv.pid, 0), "ack from a non-target slave must be ignored");
        let drained: usize = m.drain_for_slot(0).iter().map(|(_, b)| b.len()).sum();
        assert_eq!(drained, 0, "hold survives the stale ack");

        // ...and the real completion releases them.
        assert!(m.on_move_complete(mv.pid, mv.to));
        let drained: Vec<(usize, Vec<Tuple>)> = m.drain_for_slot(0);
        let to_new_owner: usize =
            drained.iter().filter(|(s, _)| *s == 1).map(|(_, b)| b.len()).sum();
        assert_eq!(to_new_owner, 1, "released tuple goes to the new owner");
        assert!(m.pending_moves().is_empty());
    }

    #[test]
    fn neutral_system_plans_nothing() {
        let mut m = MasterCore::new(params(8), 3, 3, 1);
        for s in 0..3 {
            m.on_occupancy(s, 0.2); // all neutral
        }
        let plan = reorg(&mut m, true);
        assert!(plan.moves.is_empty());
        assert!(plan.rehomes.is_empty());
        assert!(plan.activated.is_none());
        assert!(plan.deactivated.is_none());
        assert_eq!(m.degree(), 3);
    }

    #[test]
    fn dod_shrink_drains_emptiest_consumer() {
        let mut m = MasterCore::new(params(9), 3, 3, 1);
        m.on_occupancy(0, 0.2); // neutral
        m.on_occupancy(1, 0.005); // consumer (emptier)
        m.on_occupancy(2, 0.008); // consumer
        let plan = reorg(&mut m, true);
        assert_eq!(plan.deactivated, Some(1));
        assert_eq!(m.degree(), 2);
        // All of slave 1's partitions move away.
        assert_eq!(plan.moves.len(), 3);
        for mv in &plan.moves {
            assert_eq!(mv.from, 1);
            assert_ne!(mv.to, 1);
        }
        // Non-adaptive run never shrinks.
        let mut m2 = MasterCore::new(params(9), 3, 3, 1);
        m2.on_occupancy(0, 0.2);
        m2.on_occupancy(1, 0.005);
        m2.on_occupancy(2, 0.008);
        assert!(reorg(&mut m2, false).deactivated.is_none());
    }

    #[test]
    fn dod_grow_activates_spare_and_feeds_it() {
        let mut m = MasterCore::new(params(8), 3, 2, 1);
        m.on_occupancy(0, 0.9); // supplier
        m.on_occupancy(1, 0.7); // supplier
        let plan = reorg(&mut m, true);
        assert_eq!(plan.activated, Some(2));
        assert_eq!(m.degree(), 3);
        // The new consumer receives one group from the first supplier.
        assert_eq!(plan.moves.len(), 1);
        assert_eq!(plan.moves[0].to, 2);
    }

    #[test]
    fn grow_without_spare_is_a_noop() {
        let mut m = MasterCore::new(params(8), 2, 2, 1);
        m.on_occupancy(0, 0.9);
        m.on_occupancy(1, 0.9);
        let plan = reorg(&mut m, true);
        assert!(plan.activated.is_none());
        assert_eq!(m.degree(), 2);
    }

    #[test]
    fn never_shrinks_below_one_slave() {
        let mut m = MasterCore::new(params(4), 2, 1, 1);
        m.on_occupancy(0, 0.0); // lone consumer
        let plan = reorg(&mut m, true);
        assert!(plan.deactivated.is_none());
        assert_eq!(m.degree(), 1);
    }

    #[test]
    fn slot_assignment_follows_active_ranks() {
        let mut p = params(8);
        p.ng = 2;
        let m = MasterCore::new(p, 4, 4, 1);
        assert_eq!(m.slot_of(0), 0);
        assert_eq!(m.slot_of(1), 1);
        assert_eq!(m.slot_of(2), 0);
        assert_eq!(m.slot_of(3), 1);
    }

    #[test]
    fn shrink_never_deactivates_a_slave_with_inbound_moves() {
        // Regression test: slave 2 is about to receive partition state;
        // deactivating it would strand the partition on an inactive
        // node. Reorg must skip it (or defer the shrink entirely).
        let mut m = MasterCore::new(params(9), 3, 3, 1);
        // First reorg: 0 is a supplier, 2 a consumer -> move 0 -> 2.
        m.on_occupancy(0, 0.9);
        m.on_occupancy(1, 0.3);
        m.on_occupancy(2, 0.0);
        let plan = reorg(&mut m, true);
        assert_eq!(plan.moves.len(), 1);
        assert_eq!(plan.moves[0].to, 2);
        // Second reorg before the move completes: everyone idle now.
        m.on_occupancy(0, 0.0);
        m.on_occupancy(1, 0.0);
        m.on_occupancy(2, 0.0);
        let plan2 = reorg(&mut m, true);
        // Slave 2 has an inbound move: it must not be the victim.
        assert_ne!(plan2.deactivated, Some(2));
        if plan2.deactivated.is_some() {
            // And none of the drained partitions may target an inactive
            // node.
            for mv in &plan2.moves {
                assert_ne!(mv.from, 2, "pending-inbound slave must keep its groups");
                assert!(m.active_slaves().contains(&mv.to));
            }
        }
        // Every mapped owner is active or its partition is mid-move.
        for pid in 0..9u32 {
            let owner = m.partition_owner(pid);
            assert!(
                m.active_slaves().contains(&owner)
                    || m.pending_moves().iter().any(|mv| mv.pid == pid),
                "partition {pid} stranded on inactive slave {owner}"
            );
        }
    }

    #[test]
    fn orphan_rescue_remaps_partitions_of_inactive_owners() {
        // Force the pathological state directly: deactivate a slave by
        // shrink, then complete its moves, then verify no partition
        // remains mapped to it after the next reorg.
        let mut m = MasterCore::new(params(6), 3, 3, 1);
        m.on_occupancy(0, 0.2);
        m.on_occupancy(1, 0.005);
        m.on_occupancy(2, 0.2);
        let plan = reorg(&mut m, true);
        assert_eq!(plan.deactivated, Some(1));
        for mv in &plan.moves {
            assert!(m.on_move_complete(mv.pid, mv.to));
        }
        for s in m.active_slaves() {
            m.on_occupancy(s, 0.2);
        }
        let _ = m.plan_reorg(true);
        for pid in 0..6u32 {
            let owner = m.partition_owner(pid);
            assert!(
                m.active_slaves().contains(&owner)
                    || m.pending_moves().iter().any(|mv| mv.pid == pid),
                "partition {pid} stranded on {owner}"
            );
        }
    }

    #[test]
    fn slave_death_rehomes_partitions_and_accounts_loss() {
        let mut p = params(9);
        p.sem.w_left_us = 1_000_000;
        p.sem.w_right_us = 1_000_000;
        p.expiry_lag_us = 0;
        let mut m = MasterCore::new(p, 3, 3, 1);
        // Route tuples everywhere and drain, so slave 1's partitions
        // carry window state the failure will abandon.
        for i in 0..300u64 {
            m.on_arrival(Tuple::new(Side::Left, 1_000 + i, i, i));
        }
        m.drain_for_slot(0);
        let dead_pids: Vec<u32> = (0..9).filter(|p| p % 3 == 1).collect();

        let (rehomes, lost) = down(&mut m, 1);
        assert_eq!(m.live_slaves(), vec![0, 2]);
        assert_eq!(m.active_slaves(), vec![0, 2]);
        let mut adopted: Vec<u32> = rehomes.iter().map(|r| r.pid).collect();
        adopted.sort_unstable();
        assert_eq!(adopted, dead_pids, "every partition of the dead slave is re-homed");
        for r in &rehomes {
            assert_eq!(r.checkpoint, None, "nothing was checkpointed: fresh installs");
            assert!(m.pending_moves().contains(&MovePlan { pid: r.pid, from: 1, to: r.to }));
            assert!(m.active_slaves().contains(&r.to));
            assert_eq!(m.partition_owner(r.pid), r.to, "mapping updated eagerly");
        }
        assert_eq!(lost.groups_lost, dead_pids.len() as u64);
        assert!(lost.tuples_lost > 0, "abandoned window state must be charged");
        assert_eq!(m.loss().tuples_lost, lost.tuples_lost);

        // Re-homed partitions are held until the new owner acks.
        assert_eq!(m.pending_moves().len(), dead_pids.len());
        ack_all(&mut m, &rehomes);
        assert!(m.pending_moves().is_empty());

        // A second death declaration is a no-op.
        assert_eq!(m.on_slave_down(1), None);
        assert_eq!(m.loss().groups_lost, dead_pids.len() as u64);
    }

    #[test]
    fn tuples_lost_is_window_bounded() {
        let mut p = params(4);
        p.sem.w_left_us = 1_000; // 1 ms window
        p.sem.w_right_us = 1_000;
        p.expiry_lag_us = 0;
        let mut m = MasterCore::new(p, 2, 2, 1);
        // Old tuples at t=0..: they expire long before the failure.
        for i in 0..100u64 {
            m.on_arrival(Tuple::new(Side::Left, i, i, i));
        }
        m.drain_for_slot(0);
        // Fresh tuples far in the future advance the watermark.
        for i in 0..10u64 {
            m.on_arrival(Tuple::new(Side::Left, 10_000_000 + i, i, 100 + i));
        }
        m.drain_for_slot(0);
        let (_, lost) = down(&mut m, 0);
        assert!(
            lost.tuples_lost <= 10,
            "expired state must not be charged: lost {} of 110 sent",
            lost.tuples_lost
        );
    }

    #[test]
    fn death_cancels_inflight_moves_both_directions() {
        // Supplier dies mid-move: the consumer gets a fresh install.
        let mut m = MasterCore::new(params(8), 2, 2, 1);
        m.on_occupancy(0, 0.9);
        m.on_occupancy(1, 0.0);
        let mv = reorg(&mut m, false).moves[0];
        let (rehomes, _) = down(&mut m, mv.from);
        assert!(rehomes.contains(&Rehome { pid: mv.pid, to: mv.to, checkpoint: None }));
        assert_eq!(m.partition_owner(mv.pid), mv.to);
        ack_all(&mut m, &rehomes);
        assert!(m.pending_moves().is_empty());

        // Consumer dies mid-move: the partition is re-homed elsewhere.
        let mut m = MasterCore::new(params(9), 3, 3, 1);
        m.on_occupancy(0, 0.9);
        m.on_occupancy(1, 0.0);
        m.on_occupancy(2, 0.3);
        let mv = reorg(&mut m, false).moves[0];
        assert_eq!((mv.from, mv.to), (0, 1));
        let (rehomes, _) = down(&mut m, 1);
        let rehome =
            rehomes.iter().find(|r| r.pid == mv.pid).expect("the in-flight partition is re-homed");
        assert_ne!(rehome.to, 1, "cannot re-home onto the dead consumer");
        assert!(m.active_slaves().contains(&rehome.to));
        // The superseded supplier-side ack (the old consumer installing
        // late) must not release the new hold.
        assert!(!m.on_move_complete(mv.pid, 1));
        assert!(m.pending_moves().iter().any(|p| p.pid == mv.pid));
    }

    #[test]
    fn recovered_slave_is_readmitted() {
        let mut m = MasterCore::new(params(9), 3, 3, 1);
        let (rehomes, _) = down(&mut m, 2);
        ack_all(&mut m, &rehomes);
        assert_eq!(m.degree(), 2);

        // While dead, pressure cannot grow it back in.
        m.on_occupancy(0, 0.9);
        m.on_occupancy(1, 0.9);
        let plan = reorg(&mut m, true);
        assert_eq!(plan.activated, None, "a dead slave must never be activated");
        assert_eq!(m.degree(), 2);

        // Back from the dead: readmitted at the next reorg under any
        // load pressure, even below the §V-A growth threshold.
        assert_eq!(m.on_slave_up(2), Some(Decision::Readmit { slave: 2 }));
        assert_eq!(m.on_slave_up(2), None, "already live");
        m.on_occupancy(0, 0.9);
        m.on_occupancy(1, 0.0);
        let plan = reorg(&mut m, true);
        assert_eq!(plan.activated, Some(2));
        assert_eq!(m.degree(), 3);
        assert!(m.live_slaves().contains(&2));
    }

    #[test]
    fn non_adaptive_runs_readmit_to_restore_fixed_degree() {
        let mut m = MasterCore::new(params(6), 2, 2, 1);
        let (rehomes, _) = down(&mut m, 1);
        ack_all(&mut m, &rehomes);
        assert_eq!(m.degree(), 1);
        assert!(m.on_slave_up(1).is_some());
        m.on_occupancy(0, 0.2);
        let plan = reorg(&mut m, false);
        assert_eq!(plan.activated, Some(1), "fixed-degree run restores its degree");
        assert_eq!(m.degree(), 2);
    }

    #[test]
    fn undelivered_buffered_tuples_are_charged_at_shutdown() {
        let mut m = MasterCore::new(params(8), 2, 2, 1);
        m.on_occupancy(0, 0.9);
        m.on_occupancy(1, 0.0);
        let mv = reorg(&mut m, false).moves[0];
        // Buffer tuples for the held (moving) partition; the adopter
        // never acks, so a drain cannot release them.
        let key = (0..10_000u64).find(|&k| partition_of(k, 8) == mv.pid).unwrap();
        m.on_arrival(arrival(key, 0));
        m.on_arrival(arrival(key, 1));
        assert_eq!(m.drain_for_slot(0).iter().map(|(_, b)| b.len()).sum::<usize>(), 0);
        let lost = m.account_undelivered();
        assert_eq!(lost.tuples_lost, 2, "held tuples charged as lost");
        assert_eq!(m.loss().tuples_lost, 2);
        // Nothing buffered: nothing charged.
        let mut clean = MasterCore::new(params(8), 2, 2, 1);
        assert!(clean.account_undelivered().is_zero());
    }

    #[test]
    fn total_cluster_death_leaves_orphans_for_rescue() {
        let mut m = MasterCore::new(params(4), 2, 2, 1);
        let (rehomes, _) = down(&mut m, 0);
        ack_all(&mut m, &rehomes);
        let (rehomes, lost) = down(&mut m, 1);
        assert!(rehomes.is_empty(), "nobody left to adopt");
        assert_eq!(lost.groups_lost, 4, "the orphans are charged when orphaned");
        assert_eq!(m.degree(), 0);
        // A recovered slave sweeps the orphans back in at the next reorg:
        // fresh installs at the readmitted slave, acked by it.
        assert!(m.on_slave_up(0).is_some());
        let plan = reorg(&mut m, false);
        assert_eq!(plan.activated, Some(0));
        assert!(plan.moves.is_empty(), "a dead owner cannot supply a move");
        assert_eq!(plan.rehomes.len(), 4);
        for r in &plan.rehomes {
            assert_eq!(
                (r.to, r.checkpoint),
                (0, None),
                "orphan rescue targets the readmitted slave"
            );
        }
        ack_all(&mut m, &plan.rehomes);
        for pid in 0..4u32 {
            assert_eq!(m.partition_owner(pid), 0);
        }
        assert!(m.pending_moves().is_empty());
        assert_eq!(m.loss().groups_lost, 4 + 2, "the rescue charges nothing more");
    }

    #[test]
    fn orphans_return_through_rehomes_never_through_a_dead_supplier() {
        // A dead owner can never supply: a move directive addressed to
        // it is never acked, and its partition would stay held until the
        // shutdown deadline charged the held tuples as undeliverable.
        for adaptive_dod in [false, true] {
            let mut m = MasterCore::new(params(6), 3, 3, 1);
            for s in 0..3 {
                let (rehomes, _) = down(&mut m, s);
                ack_all(&mut m, &rehomes);
            }
            assert_eq!(m.degree(), 0);
            assert!(m.on_slave_up(1).is_some());
            let plan = reorg(&mut m, adaptive_dod);
            assert_eq!(plan.activated, Some(1));
            for mv in &plan.moves {
                assert!(m.is_live(mv.from), "a move directive addressed to dead slave {}", mv.from);
            }
            assert_eq!(plan.rehomes.len(), 6, "every orphan re-homed");
            for pid in 0..6u32 {
                let owner = m.partition_owner(pid);
                assert!(
                    m.is_live(owner) && m.active_slaves().contains(&owner),
                    "orphan {pid} left on {owner}"
                );
            }
            ack_all(&mut m, &plan.rehomes);
            assert!(m.pending_moves().is_empty(), "every re-home acked by a live owner");
        }
    }

    #[test]
    fn peak_buffer_is_tracked() {
        let mut m = MasterCore::new(params(4), 1, 1, 1);
        for i in 0..10 {
            m.on_arrival(arrival(i, i));
        }
        assert_eq!(m.peak_buffer_bytes(), 640);
        m.drain_for_slot(0);
        assert_eq!(m.peak_buffer_bytes(), 640, "peak persists after drain");
    }

    #[test]
    fn buddy_checkpoint_turns_adoption_into_restore() {
        let mut p = params(9);
        p.sem.w_left_us = 1_000_000;
        p.sem.w_right_us = 1_000_000;
        p.expiry_lag_us = 0;
        let mut m = MasterCore::new(p, 3, 3, 1);
        for i in 0..300u64 {
            m.on_arrival(Tuple::new(Side::Left, 1_000 + i, i, i));
        }
        m.drain_for_slot(0);
        // Round-robin: pid 1 is owned by slave 1, whose buddy is 2.
        assert_eq!(m.partition_owner(1), 1);
        assert!(m.note_checkpoint(1, 2, 40, 0), "note from the live buddy registers");

        let (rehomes, lost) = down(&mut m, 1);
        let restores: Vec<&Rehome> = rehomes.iter().filter(|r| r.checkpoint.is_some()).collect();
        assert_eq!(restores, [&Rehome { pid: 1, to: 2, checkpoint: Some((40, 0)) }]);
        assert_eq!(m.partition_owner(1), 2, "covered partition re-homed at its holder");
        assert_eq!(
            rehomes.iter().filter(|r| r.pid == 1).count(),
            1,
            "a restored partition is not also freshly adopted"
        );
        // Loss is charged only for the two uncovered partitions (4, 7).
        assert_eq!(lost.groups_lost, 2);
        // The restore rides the ordinary hold/ack machinery.
        assert!(m.pending_moves().iter().any(|mv| mv.pid == 1 && mv.to == 2));
        assert!(m.on_move_complete(1, 2));
        // Consumed: a second failure of the holder charges the partition.
        assert!(m.checkpointed_partitions().is_empty());
    }

    #[test]
    fn checkpoint_notes_are_buddy_gated() {
        let mut m = MasterCore::new(params(9), 3, 3, 1);
        // pid 0 is owned by slave 0; only its buddy (1) may register.
        assert!(!m.note_checkpoint(0, 2, 1, 1), "non-buddy holder rejected");
        assert!(!m.note_checkpoint(0, 0, 1, 1), "self-note rejected");
        assert!(!m.note_checkpoint(99, 1, 1, 1), "unknown partition rejected");
        assert!(m.note_checkpoint(0, 1, 1, 1));
        assert_eq!(m.checkpointed_partitions(), vec![0]);

        // An ownership move forgets the stale registration, and a note
        // for the now in-flight partition is rejected.
        m.on_occupancy(0, 0.9);
        m.on_occupancy(1, 0.3);
        m.on_occupancy(2, 0.0);
        let mv = reorg(&mut m, false).moves[0];
        assert_eq!(mv.from, 0);
        if mv.pid == 0 {
            assert!(m.checkpointed_partitions().is_empty(), "move forgets the snapshot");
        }
        assert!(!m.note_checkpoint(mv.pid, 1, 2, 2), "held partition rejects notes");

        // A dead buddy's shelf is dropped wholesale.
        let mut m2 = MasterCore::new(params(9), 3, 3, 1);
        assert!(m2.note_checkpoint(0, 1, 1, 1));
        assert!(m2.note_checkpoint(2, 0, 1, 1)); // pid 2 owned by 2, buddy 0
        let _ = m2.on_slave_down(1);
        assert_eq!(m2.checkpointed_partitions(), vec![2], "only holder 0's survives");
    }

    #[test]
    fn restore_skipped_when_holder_is_dead() {
        let mut m = MasterCore::new(params(9), 3, 3, 1);
        assert_eq!(m.partition_owner(1), 1);
        assert!(m.note_checkpoint(1, 2, 10, 10));
        // The holder dies first (its shelf goes with it), then the owner.
        let _ = m.on_slave_down(2);
        let (rehomes, _) = down(&mut m, 1);
        assert!(rehomes.iter().all(|r| r.checkpoint.is_none()), "no holder, no restore");
        assert!(rehomes.contains(&Rehome { pid: 1, to: 0, checkpoint: None }));
    }

    #[test]
    fn replica_mirrors_leader_through_death_and_reorg() {
        // A standby master applies the leader's decisions and must land
        // in the same observable control state — the correctness
        // bedrock of failover promotion.
        let mut p = params(9);
        p.sem.w_left_us = 1_000_000;
        p.sem.w_right_us = 1_000_000;
        p.expiry_lag_us = 0;
        let mut leader = MasterCore::new(p.clone(), 3, 3, 7);
        let mut replica = MasterCore::new(p, 3, 3, 7);

        // Epoch 1: a load move (leader plans; replica applies).
        leader.on_occupancy(0, 0.9);
        leader.on_occupancy(1, 0.0);
        leader.on_occupancy(2, 0.3);
        let d = leader.plan_reorg(false);
        assert!(matches!(&d, Decision::Reorg { moves, .. } if moves.len() == 1));
        replica.apply_decision(&d);

        // Traffic flows through the leader only.
        for i in 0..300u64 {
            leader.on_arrival(Tuple::new(Side::Left, 1_000 + i, i, i));
        }
        leader.drain_for_slot(0);

        // Both masters hear the same buddy checkpoint note.
        let covered = (0..9u32).find(|&pid| {
            leader.partition_owner(pid) == 1 && !leader.pending_moves().iter().any(|m| m.pid == pid)
        });
        if let Some(pid) = covered {
            assert!(leader.note_checkpoint(pid, 2, 50, 0));
            assert!(replica.note_checkpoint(pid, 2, 50, 0));
        }

        // Slave 1 dies mid-move; the replica applies the decision.
        let d = leader.on_slave_down(1).expect("slave 1 was live");
        replica.apply_decision(&d);
        if covered.is_some() {
            let Decision::SlaveDown { rehomes, .. } = &d else { unreachable!() };
            let restores = rehomes.iter().filter(|r| r.checkpoint.is_some()).count();
            assert_eq!(restores, 1, "the covered partition restores");
        }

        // Readmission + the next reorg, mirrored the same way.
        replica.apply_decision(&leader.on_slave_up(1).expect("slave 1 was dead"));
        leader.on_occupancy(0, 0.2);
        leader.on_occupancy(2, 0.2);
        let d = leader.plan_reorg(false);
        assert!(matches!(d, Decision::Reorg { activated: Some(1), .. }));
        replica.apply_decision(&d);

        // Observable control state is identical.
        assert_eq!(leader.live_slaves(), replica.live_slaves());
        assert_eq!(leader.active_slaves(), replica.active_slaves());
        assert_eq!(leader.degree(), replica.degree());
        for pid in 0..9u32 {
            assert_eq!(
                leader.partition_owner(pid),
                replica.partition_owner(pid),
                "owner of partition {pid} diverged"
            );
        }
        let sort = |mvs: &[MovePlan]| {
            let mut v: Vec<MovePlan> = mvs.to_vec();
            v.sort_by_key(|m| m.pid);
            v
        };
        assert_eq!(sort(leader.pending_moves()), sort(replica.pending_moves()));
        assert_eq!(leader.loss().groups_lost, replica.loss().groups_lost);
        assert_eq!(leader.loss().tuples_lost, replica.loss().tuples_lost);
        assert_eq!(leader.checkpointed_partitions(), replica.checkpointed_partitions());
    }
}
