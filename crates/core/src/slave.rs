//! The slave node: stream buffer + join module + state mover (§IV-D,
//! Fig. 2). Sans-io: the driver feeds batches in and pulls outputs,
//! occupancy samples and extracted partition states out.

use crate::residual::{MatchCtx, MatchSide};
use crate::{
    hash::partition_of, GroupState, OutPair, Params, PartitionGroup, PartitionedBuffer,
    PayloadEntry, PayloadStore, ProbeEngine, Residual, Side, Tuple, WorkStats,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One slave's join-processing state.
#[derive(Debug)]
pub struct SlaveCore<E: ProbeEngine> {
    id: usize,
    params: Arc<Params>,
    groups: BTreeMap<u32, PartitionGroup<E>>,
    buffer: PartitionedBuffer,
    watermark: u64,
    occupancy_samples: Vec<f64>,
    /// Residual predicate applied to equality matches before emission.
    /// `Residual::ALWAYS` (the default) skips the filter pass entirely.
    residual: Residual,
    /// Per-partition payload stores; populated only on payload-carrying
    /// runs, pruned with each partition's *local* watermark (the same
    /// conservative horizon window blocks use, so a partition held
    /// during a state move never loses payloads its delayed probes may
    /// still need).
    payloads: BTreeMap<u32, PayloadStore>,
    /// When set, duplicate deliveries are dropped by per-`(partition,
    /// side)` sequence guards — a promoted leader replays the stream
    /// from the start, and redelivery must be idempotent.
    dedupe: bool,
    /// One partition's result pairs between its drain and the sink;
    /// kept across drains for its capacity.
    pairs: Vec<OutPair>,
    /// Next-expected source sequence per partition, `[left, right]`.
    /// Absent / `0` = accept anything. Guards travel with partition
    /// moves ([`seen_of`](Self::seen_of) / [`set_seen`](Self::set_seen)).
    seen: HashMap<u32, [u64; 2]>,
}

impl<E: ProbeEngine> SlaveCore<E> {
    /// An empty slave owning no partitions yet. The parameters are
    /// shared, not copied — pass an `Arc<Params>` to avoid a deep clone
    /// per node (a plain `Params` converts implicitly).
    pub fn new(id: usize, params: impl Into<Arc<Params>>) -> Self {
        let params = params.into();
        let buffer =
            PartitionedBuffer::new(params.npart, params.tuple_bytes, params.slave_buffer_bytes);
        SlaveCore {
            id,
            params,
            groups: BTreeMap::new(),
            buffer,
            watermark: 0,
            occupancy_samples: Vec::new(),
            residual: Residual::ALWAYS,
            payloads: BTreeMap::new(),
            dedupe: false,
            pairs: Vec::new(),
            seen: HashMap::new(),
        }
    }

    /// Turns on duplicate-delivery suppression (see the `seen` field).
    /// Enabled by drivers running a replicated control plane, where a
    /// promoted leader re-sends the stream from sequence zero.
    pub fn enable_dedupe(&mut self) {
        self.dedupe = true;
    }

    /// The delivery guards of `pid` as `(next-expected left seq,
    /// next-expected right seq)` — what a checkpoint records so the
    /// restore path knows where the replay tail starts.
    pub fn seen_of(&self, pid: u32) -> (u64, u64) {
        let g = self.seen.get(&pid).copied().unwrap_or([0, 0]);
        (g[0], g[1])
    }

    /// Max-merges delivery guards for `pid` — the receiving half of a
    /// partition move or checkpoint restore. Never lowers a guard: a
    /// stale `Seen` cannot reopen the door to duplicates.
    pub fn set_seen(&mut self, pid: u32, left: u64, right: u64) {
        let g = self.seen.entry(pid).or_insert([0, 0]);
        g[0] = g[0].max(left);
        g[1] = g[1].max(right);
    }

    /// Admission check for one tuple: with dedupe on, drops sequences
    /// already delivered to `pid` on that side and advances the guard.
    #[inline]
    fn admit(&mut self, pid: u32, t: &Tuple) -> bool {
        if !self.dedupe {
            return true;
        }
        let g = self.seen.entry(pid).or_insert([0, 0]);
        let s = t.side as usize;
        if t.seq < g[s] {
            return false;
        }
        g[s] = t.seq + 1;
        true
    }

    /// This slave's identifier (as known to the master).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Sets the residual predicate applied to equality matches.
    pub fn set_residual(&mut self, residual: Residual) {
        self.residual = residual;
    }

    /// The residual predicate in effect.
    pub fn residual(&self) -> &Residual {
        &self.residual
    }

    /// Creates an empty partition-group for `pid` (initial assignment).
    ///
    /// # Panics
    ///
    /// Panics if the partition is already owned.
    pub fn create_group(&mut self, pid: u32) {
        let prev = self.groups.insert(pid, PartitionGroup::new(&self.params));
        assert!(prev.is_none(), "slave {} already owns partition {pid}", self.id);
    }

    /// Partitions currently owned, ascending.
    pub fn owned_partitions(&self) -> Vec<u32> {
        self.groups.keys().copied().collect()
    }

    /// Buffers a batch received from the master. Tuples are routed to
    /// per-partition mini-buffers; ownership is asserted at processing
    /// time, so a batch may arrive for a partition whose state is still
    /// being installed within the same epoch.
    pub fn receive_batch(&mut self, batch: Vec<Tuple>) {
        self.receive_batch_slice(&batch);
    }

    /// [`receive_batch`](Self::receive_batch) from a borrowed slice, so
    /// drivers can decode frames into a reused scratch vector instead of
    /// allocating a fresh `Vec<Tuple>` per batch.
    pub fn receive_batch_slice(&mut self, batch: &[Tuple]) {
        for &t in batch {
            let pid = partition_of(t.key, self.params.npart);
            if !self.admit(pid, &t) {
                continue;
            }
            self.buffer.push(pid, t);
        }
    }

    /// [`receive_batch_slice`](Self::receive_batch_slice) for a
    /// payload-carrying batch: `payloads` yields the bytes of each tuple
    /// of `batch`, in order, borrowed from wherever they lie — the node
    /// loop passes a view of the received frame. Non-empty payloads are
    /// copied once, into the arena of the tuple's partition store, keyed
    /// by tuple identity — so they travel with the partition on state
    /// moves and expire with its window.
    ///
    /// # Panics
    ///
    /// Panics if `payloads` does not yield exactly one slice per tuple.
    pub fn receive_batch_with_payload_slices<'p>(
        &mut self,
        batch: &[Tuple],
        payloads: impl ExactSizeIterator<Item = &'p [u8]>,
    ) {
        assert_eq!(batch.len(), payloads.len(), "payload column misaligned with batch");
        for (&t, p) in batch.iter().zip(payloads) {
            let pid = partition_of(t.key, self.params.npart);
            if !self.admit(pid, &t) {
                continue;
            }
            self.buffer.push(pid, t);
            if !p.is_empty() {
                self.payloads.entry(pid).or_default().insert(t.side, t.seq, t.t, p);
            }
        }
    }

    /// [`receive_batch_with_payload_slices`](Self::receive_batch_with_payload_slices)
    /// for an owned payload column: `payloads[i]` belongs to `batch[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn receive_batch_with_payloads(&mut self, batch: &[Tuple], payloads: &[Vec<u8>]) {
        self.receive_batch_with_payload_slices(batch, payloads.iter().map(Vec::as_slice));
    }

    /// Processes everything buffered, appending the join outputs to
    /// `out` and the counted work to `work`: [`drain_pending`] with a
    /// sink that collects. The output sequence is the concatenation of
    /// that drain's sink calls, so the two are interchangeable byte for
    /// byte; drivers that can forward results (the node loop) call
    /// `drain_pending` and never hold a whole batch's pairs.
    ///
    /// [`drain_pending`]: Self::drain_pending
    pub fn process_pending(&mut self, out: &mut Vec<OutPair>, work: &mut WorkStats) {
        self.drain_pending(work, |pairs| out.extend_from_slice(pairs));
    }

    /// Drains everything buffered, partition by partition (ascending
    /// id): inserts the partition's tuples in arrival order — probing,
    /// sealing, expiring and fine-tuning as it goes — flushes and
    /// expires the group, applies the residual predicate, prunes the
    /// partition's payloads, and hands the partition's surviving pairs
    /// to `sink` before touching the next partition. The first match of
    /// a batch leaves while the rest of the batch is still being
    /// joined; partitions without output never reach the sink.
    ///
    /// Expiry is driven by each partition's **own** watermark, never the
    /// slave-global one. Partitions are independent FIFO sub-streams:
    /// all future probes of a partition carry timestamps at or above its
    /// local watermark, so local-watermark expiry is exact — whereas a
    /// partition whose tuples the master is holding back during a state
    /// move (§IV-C) lags the global clock by the move latency, and
    /// expiring its blocks against the global watermark would drop
    /// matches for the delayed probes.
    ///
    /// The residual predicate sees a partition's matches together with
    /// that partition's payload store (both constituents of a match share
    /// the key, hence the partition); the store is then pruned with the
    /// partition's local watermark. Filter and prune are no-ops on plain
    /// equi-join runs.
    ///
    /// Tuples buffered for a partition this slave does not own are a
    /// protocol violation by whoever sent them: the drain drops them
    /// with the partition's payload store and counts them in
    /// [`WorkStats::unowned_dropped`].
    pub fn drain_pending(&mut self, work: &mut WorkStats, mut sink: impl FnMut(&[OutPair])) {
        let horizon =
            self.params.sem.w_left_us.max(self.params.sem.w_right_us) + self.params.expiry_lag_us;
        let mut pairs = std::mem::take(&mut self.pairs);
        for pid in 0..self.buffer.npart() {
            // Read in place, then cleared: the mini-buffer keeps its
            // allocation for the next frame.
            let tuples = self.buffer.partition_tuples(pid);
            if tuples.is_empty() {
                continue;
            }
            let Some(group) = self.groups.get_mut(&pid) else {
                work.unowned_dropped += tuples.len() as u64;
                self.buffer.clear_partition(pid);
                self.payloads.remove(&pid);
                continue;
            };
            let mut local_watermark = 0;
            for &t in tuples {
                local_watermark = local_watermark.max(t.t);
                group.insert(t, &mut pairs, work);
            }
            self.buffer.clear_partition(pid);
            group.flush_all(&mut pairs, work);
            group.expire_and_tune(local_watermark, &mut pairs, work);
            self.watermark = self.watermark.max(local_watermark);
            if !self.residual.is_always() {
                let store = self.payloads.get(&pid);
                let payload = |side, seq| store.map_or(&[][..], |s| s.get(side, seq));
                let before = pairs.len();
                pairs.retain(|p| {
                    self.residual.keep(&MatchCtx {
                        key: p.key,
                        left: MatchSide {
                            t: p.left.0,
                            seq: p.left.1,
                            payload: payload(Side::Left, p.left.1),
                        },
                        right: MatchSide {
                            t: p.right.0,
                            seq: p.right.1,
                            payload: payload(Side::Right, p.right.1),
                        },
                    })
                });
                work.residual_dropped += (before - pairs.len()) as u64;
            }
            if let Some(store) = self.payloads.get_mut(&pid) {
                store.prune_before(local_watermark.saturating_sub(horizon));
            }
            if !pairs.is_empty() {
                sink(&pairs);
                pairs.clear();
            }
        }
        self.pairs = pairs;
    }

    /// Records one buffer-occupancy sample (driver calls this at the end
    /// of each distribution epoch, §IV-C).
    pub fn record_occupancy(&mut self) {
        self.occupancy_samples.push(self.buffer.occupancy());
    }

    /// Average buffer occupancy `f_i` over the closing reorganization
    /// epoch; clears the samples. Zero when no samples were taken.
    pub fn take_avg_occupancy(&mut self) -> f64 {
        if self.occupancy_samples.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.occupancy_samples.iter().sum();
        let n = self.occupancy_samples.len() as f64;
        self.occupancy_samples.clear();
        sum / n
    }

    /// Extracts partition `pid` for transfer to another slave (§IV-C
    /// state mover). Pending buffered tuples of the partition travel
    /// with the window state, preserving their arrival order.
    pub fn extract_group(&mut self, pid: u32, work: &mut WorkStats) -> (GroupState, Vec<Tuple>) {
        let group = self
            .groups
            .remove(&pid)
            .unwrap_or_else(|| panic!("slave {} cannot extract unowned partition {pid}", self.id));
        let pending = self.buffer.drain_partition(pid);
        work.tuples_moved += pending.len() as u64;
        (group.extract_state(work), pending)
    }

    /// Extracts partition `pid`'s payload store as transferable entries
    /// — call alongside [`extract_group`](Self::extract_group) so
    /// payloads travel with their partition's window state. Empty on
    /// payload-free runs.
    pub fn extract_payloads(&mut self, pid: u32) -> Vec<PayloadEntry> {
        self.payloads.remove(&pid).map(PayloadStore::into_entries).unwrap_or_default()
    }

    /// Installs transferred payload entries for partition `pid` — the
    /// receiving half of [`extract_payloads`](Self::extract_payloads).
    pub fn install_payloads(&mut self, pid: u32, entries: Vec<PayloadEntry>) {
        if entries.is_empty() {
            return;
        }
        let store = self.payloads.entry(pid).or_default();
        for e in entries {
            store.insert_entry(e);
        }
    }

    /// Installs a transferred partition (§IV-C). Pending tuples carried
    /// with the state are re-buffered for the next processing pass.
    pub fn install_group(
        &mut self,
        pid: u32,
        state: GroupState,
        pending: Vec<Tuple>,
        work: &mut WorkStats,
    ) {
        assert!(!self.groups.contains_key(&pid), "slave {} already owns partition {pid}", self.id);
        work.tuples_moved += pending.len() as u64;
        let group = PartitionGroup::from_state(&self.params, state, work);
        self.groups.insert(pid, group);
        for t in pending {
            self.buffer.push(pid, t);
        }
    }

    /// [`install_group`](Self::install_group) that tolerates already
    /// owning the partition: the incoming install is authoritative (the
    /// master's mapping says so) and **replaces** any local copy.
    ///
    /// This is the failure-recovery install path. A replace happens only
    /// in the races failure handling creates — a dead supplier's
    /// in-flight state landing after the empty group its re-home
    /// installed, or a real move onto a slave that was wrongly declared
    /// dead and still holds a stale pre-failure group. Either way the
    /// replaced copy was already charged as lost by the master, and
    /// dropping window state can only suppress future matches, never
    /// fabricate or duplicate one.
    ///
    /// Returns `true` when a stale local group was replaced.
    pub fn adopt_group(
        &mut self,
        pid: u32,
        state: GroupState,
        pending: Vec<Tuple>,
        work: &mut WorkStats,
    ) -> bool {
        let replaced = self.groups.remove(&pid).is_some();
        if replaced {
            // Buffered tuples of the stale ownership era die with it —
            // the master already charged that era as lost, and a clean
            // cut keeps "what survived" easy to reason about. Their
            // payloads go the same way.
            let _ = self.buffer.drain_partition(pid);
            let _ = self.payloads.remove(&pid);
        }
        self.install_group(pid, state, pending, work);
        replaced
    }

    /// A non-destructive snapshot of owned partition `pid` for
    /// checkpointing: the window state (same encoding a §IV-C state
    /// move ships), the pending buffered tuples, and the payload
    /// entries. The live group keeps processing; the clone pays the
    /// snapshot cost (payloads are copied once, arena to entry). `None`
    /// when the partition is not owned.
    pub fn snapshot_group(&self, pid: u32) -> Option<(GroupState, Vec<Tuple>, Vec<PayloadEntry>)>
    where
        E: Clone,
    {
        let group = self.groups.get(&pid)?.clone();
        let mut scratch = WorkStats::default();
        let state = group.extract_state(&mut scratch);
        let pending = self.buffer.partition_tuples(pid).to_vec();
        let payloads = self.payloads.get(&pid).map(PayloadStore::entries).unwrap_or_default();
        Some((state, pending, payloads))
    }

    /// Total window blocks across owned partitions (the paper's
    /// "window size within a node" metric).
    pub fn window_blocks(&self) -> usize {
        self.groups.values().map(PartitionGroup::total_blocks).sum()
    }

    /// Total window tuples across owned partitions.
    pub fn window_tuples(&self) -> usize {
        self.groups.values().map(PartitionGroup::tuple_count).sum()
    }

    /// Heap bytes of this slave's join state: every owned partition's
    /// window columns and hash chains, block records and fresh buffers,
    /// the probe engines' scratch, and the payload stores. Walks the
    /// mini-groups, so sample it per second rather than per tuple.
    pub fn state_bytes(&self) -> usize {
        self.groups.values().map(PartitionGroup::heap_bytes).sum::<usize>()
            + self.payloads.values().map(PayloadStore::heap_bytes).sum::<usize>()
    }

    /// Tuples waiting in the stream buffer.
    pub fn backlog_tuples(&self) -> usize {
        self.buffer.total_tuples()
    }

    /// Current buffer occupancy (instantaneous, not the epoch average).
    pub fn buffer_occupancy(&self) -> f64 {
        self.buffer.occupancy()
    }

    /// Largest timestamp processed so far.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// The run parameters (shared by drivers for sizing).
    pub fn params(&self) -> &Params {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ExactEngine;
    use crate::Side;

    fn small_params() -> Params {
        let mut p = Params::default_paper();
        p.npart = 4;
        p.block_bytes = 256;
        p.sem.w_left_us = 1_000_000;
        p.sem.w_right_us = 1_000_000;
        p.expiry_lag_us = 0;
        p
    }

    fn slave_with_all_partitions() -> SlaveCore<ExactEngine> {
        let p = small_params();
        let mut s = SlaveCore::new(0, p.clone());
        for pid in 0..p.npart {
            s.create_group(pid);
        }
        s
    }

    #[test]
    fn processes_batches_and_joins() {
        let mut s = slave_with_all_partitions();
        s.receive_batch(vec![
            Tuple::new(Side::Left, 100, 5, 0),
            Tuple::new(Side::Right, 200, 5, 0),
            Tuple::new(Side::Right, 300, 6, 1),
        ]);
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        s.process_pending(&mut out, &mut work);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key, 5);
        assert_eq!(s.backlog_tuples(), 0);
        assert_eq!(s.window_tuples(), 3);
        assert_eq!(s.watermark(), 300);
        assert!(work.inserts == 3);
    }

    #[test]
    fn unowned_partition_tuples_are_dropped_and_counted() {
        let p = small_params();
        let mut s: SlaveCore<ExactEngine> = SlaveCore::new(0, p.clone());
        let owned = partition_of(6, p.npart);
        assert_ne!(owned, partition_of(5, p.npart));
        s.create_group(owned);
        s.receive_batch_with_payloads(
            &[
                Tuple::new(Side::Left, 1, 5, 0),
                Tuple::new(Side::Left, 2, 6, 1),
                Tuple::new(Side::Right, 3, 5, 0),
                Tuple::new(Side::Right, 4, 6, 1),
            ],
            &[vec![1], vec![2], vec![3], vec![4]],
        );
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        s.process_pending(&mut out, &mut work);
        assert_eq!(work.unowned_dropped, 2, "both tuples of key 5");
        assert_eq!(out.len(), 1, "the owned partition still joins");
        assert_eq!((s.backlog_tuples(), s.window_tuples()), (0, 2));
        assert!(s.extract_payloads(partition_of(5, p.npart)).is_empty(), "payloads dropped too");
    }

    #[test]
    fn occupancy_sampling_averages_and_clears() {
        let mut s = slave_with_all_partitions();
        // 1 MB buffer; 64-byte tuples.
        let batch: Vec<Tuple> = (0..8192).map(|i| Tuple::new(Side::Left, i, i, i)).collect();
        s.receive_batch(batch); // 8192 * 64 B = 512 KB = 0.5 occupancy
        s.record_occupancy();
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        s.process_pending(&mut out, &mut work);
        s.record_occupancy(); // drained: 0.0
        let avg = s.take_avg_occupancy();
        assert!((avg - 0.25).abs() < 1e-9, "avg of 0.5 and 0.0, got {avg}");
        assert_eq!(s.take_avg_occupancy(), 0.0, "samples cleared");
    }

    #[test]
    fn state_move_between_slaves_preserves_results() {
        let p = small_params();
        let mut a = slave_with_all_partitions();
        // Load left tuples with a specific key, then move that partition
        // to a fresh slave and probe from the right.
        let key = 5u64;
        let pid = partition_of(key, p.npart);
        a.receive_batch((0..50).map(|i| Tuple::new(Side::Left, 100 + i, key, i)).collect());
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        a.process_pending(&mut out, &mut work);
        assert!(out.is_empty());

        let (state, pending) = a.extract_group(pid, &mut work);
        assert!(pending.is_empty());
        assert!(!a.owned_partitions().contains(&pid));

        let mut b: SlaveCore<ExactEngine> = SlaveCore::new(1, p.clone());
        b.install_group(pid, state, pending, &mut work);
        assert_eq!(b.window_tuples(), 50);
        b.receive_batch(vec![Tuple::new(Side::Right, 500, key, 0)]);
        b.process_pending(&mut out, &mut work);
        assert_eq!(out.len(), 50, "every moved tuple still joins");
    }

    #[test]
    fn pending_tuples_travel_with_the_state() {
        let p = small_params();
        let mut a = slave_with_all_partitions();
        let key = 5u64;
        let pid = partition_of(key, p.npart);
        // Buffered but never processed at A.
        a.receive_batch(vec![Tuple::new(Side::Left, 100, key, 0)]);
        let mut work = WorkStats::default();
        let (state, pending) = a.extract_group(pid, &mut work);
        assert_eq!(pending.len(), 1);

        let mut b: SlaveCore<ExactEngine> = SlaveCore::new(1, p);
        b.install_group(pid, state, pending, &mut work);
        b.receive_batch(vec![Tuple::new(Side::Right, 200, key, 0)]);
        let mut out = Vec::new();
        b.process_pending(&mut out, &mut work);
        assert_eq!(out.len(), 1, "the in-flight tuple was not lost");
    }

    #[test]
    fn adopt_group_replaces_a_stale_local_copy() {
        let p = small_params();
        let key = 5u64;
        let pid = partition_of(key, p.npart);
        let mut out = Vec::new();
        let mut work = WorkStats::default();

        // A slave with real window state for the partition...
        let mut a = slave_with_all_partitions();
        a.receive_batch((0..20).map(|i| Tuple::new(Side::Left, 100 + i, key, i)).collect());
        a.process_pending(&mut out, &mut work);
        assert_eq!(a.window_tuples(), 20);
        // ...plus a buffered straggler from the stale ownership era.
        a.receive_batch(vec![Tuple::new(Side::Left, 200, key, 777)]);

        // An authoritative (fresh, empty) adoption replaces both.
        let replaced =
            a.adopt_group(pid, GroupState { buckets: Vec::new() }, Vec::new(), &mut work);
        assert!(replaced);
        assert_eq!(a.window_tuples(), 0, "stale window state replaced");
        assert_eq!(a.backlog_tuples(), 0, "stale buffered tuples dropped");

        // Fresh adoption of an unowned partition is a plain install.
        let mut b: SlaveCore<ExactEngine> = SlaveCore::new(1, p);
        assert!(!b.adopt_group(pid, GroupState { buckets: Vec::new() }, Vec::new(), &mut work));
        assert!(b.owned_partitions().contains(&pid));
        // And the adopted group joins normally from empty.
        b.receive_batch(vec![
            Tuple::new(Side::Left, 300, key, 0),
            Tuple::new(Side::Right, 400, key, 0),
        ]);
        let before = out.len();
        b.process_pending(&mut out, &mut work);
        assert_eq!(out.len() - before, 1);
    }

    #[test]
    fn expiry_reclaims_window_state_per_partition() {
        let mut s = slave_with_all_partitions();
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        s.receive_batch((0..100).map(|i| Tuple::new(Side::Left, i * 1000, i, i)).collect());
        s.process_pending(&mut out, &mut work);
        let before = s.window_tuples();
        assert_eq!(before, 100);
        // Jump far past the window — expiry is per-partition (a
        // partition lagging behind the global clock, e.g. held during a
        // state move, must keep its blocks), so touch every partition.
        s.receive_batch(
            (0..400u64).map(|i| Tuple::new(Side::Right, 100_000_000 + i, i, i)).collect(),
        );
        s.process_pending(&mut out, &mut work);
        assert!(
            s.window_tuples() <= 400,
            "old left tuples must expire, kept {}",
            s.window_tuples()
        );
        let lefts: usize = 100 - (s.window_tuples().saturating_sub(400));
        assert!(lefts >= 95, "almost all left tuples should be gone");
    }

    #[test]
    fn residual_filter_drops_matches_and_counts_them() {
        use crate::ResidualSpec;
        let mut s = slave_with_all_partitions();
        s.set_residual(ResidualSpec::TimeBand { max_dt_us: 50 }.into());
        s.receive_batch(vec![
            Tuple::new(Side::Left, 100, 5, 0),
            Tuple::new(Side::Right, 140, 5, 0), // dt = 40: kept
            Tuple::new(Side::Right, 200, 5, 1), // dt = 100: dropped
        ]);
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        s.process_pending(&mut out, &mut work);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].right, (140, 0));
        assert_eq!(work.residual_dropped, 1);
        assert_eq!(work.emitted, 2, "engine-level emission is pre-filter");
    }

    #[test]
    fn payloads_reach_the_residual_predicate_and_survive_moves() {
        use crate::ResidualSpec;
        let p = small_params();
        let key = 5u64;
        let pid = partition_of(key, p.npart);
        let run = |move_first: bool| {
            let mut a: SlaveCore<ExactEngine> = SlaveCore::new(0, p.clone());
            for g in 0..p.npart {
                a.create_group(g);
            }
            a.set_residual(ResidualSpec::PayloadEquals.into());
            // Two stored left tuples, one matching payload.
            a.receive_batch_with_payloads(
                &[Tuple::new(Side::Left, 100, key, 0), Tuple::new(Side::Left, 110, key, 1)],
                &[b"aa".to_vec(), b"bb".to_vec()],
            );
            let mut out = Vec::new();
            let mut work = WorkStats::default();
            a.process_pending(&mut out, &mut work);
            assert!(out.is_empty());

            let mut target = if move_first {
                // Move the partition (state + payloads) to a new slave.
                let (state, pending) = a.extract_group(pid, &mut work);
                let entries = a.extract_payloads(pid);
                assert_eq!(entries.len(), 2);
                let mut b: SlaveCore<ExactEngine> = SlaveCore::new(1, p.clone());
                b.set_residual(ResidualSpec::PayloadEquals.into());
                b.install_group(pid, state, pending, &mut work);
                b.install_payloads(pid, entries);
                b
            } else {
                a
            };
            target.receive_batch_with_payloads(
                &[Tuple::new(Side::Right, 200, key, 0)],
                &[b"bb".to_vec()],
            );
            target.process_pending(&mut out, &mut work);
            (out, work)
        };
        for move_first in [false, true] {
            let (out, work) = run(move_first);
            assert_eq!(out.len(), 1, "move_first={move_first}");
            assert_eq!(out[0].left, (110, 1), "only the payload-equal pair survives");
            assert_eq!(work.residual_dropped, 1);
        }
    }

    #[test]
    fn payload_stores_prune_with_the_window() {
        let mut s = slave_with_all_partitions(); // 1 s windows, no lag
        s.receive_batch_with_payloads(&[Tuple::new(Side::Left, 1_000, 5, 0)], &[vec![7u8; 16]]);
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        s.process_pending(&mut out, &mut work);
        let pid = partition_of(5, s.params().npart);
        assert_eq!(s.payloads[&pid].get(Side::Left, 0), &[7u8; 16][..]);
        // Advance the same partition far past the window.
        s.receive_batch_with_payloads(&[Tuple::new(Side::Right, 100_000_000, 5, 0)], &[vec![1]]);
        s.process_pending(&mut out, &mut work);
        assert_eq!(s.payloads[&pid].get(Side::Left, 0), &[] as &[u8], "expired payload pruned");
        assert_eq!(s.extract_payloads(pid).len(), 1, "the fresh payload survives");
    }

    #[test]
    fn untouched_partition_retains_state_for_delayed_probes() {
        // The §IV-C hold scenario: partition A's tuples are delayed (a
        // state move); the rest of the world races ahead. A's window
        // must survive so the delayed probes still match.
        let p = small_params();
        let mut s = slave_with_all_partitions();
        let key_a = 5u64;
        let pid_a = partition_of(key_a, p.npart);
        s.receive_batch(vec![Tuple::new(Side::Left, 1_000, key_a, 0)]);
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        s.process_pending(&mut out, &mut work);
        // Other partitions advance far past the window.
        let mut seq = 0;
        let others: Vec<Tuple> = (0..1000u64)
            .filter(|k| partition_of(*k, p.npart) != pid_a)
            .take(50)
            .map(|k| {
                seq += 1;
                Tuple::new(Side::Right, 500_000_000, k, seq)
            })
            .collect();
        assert!(!others.is_empty());
        s.receive_batch(others);
        s.process_pending(&mut out, &mut work);
        // The delayed probe still joins.
        s.receive_batch(vec![Tuple::new(Side::Right, 900_000, key_a, 999)]);
        let before = out.len();
        s.process_pending(&mut out, &mut work);
        assert_eq!(out.len() - before, 1, "delayed probe lost its match");
    }

    #[test]
    fn dedupe_drops_redelivered_sequences() {
        let p = small_params();
        let key = 5u64;
        let mut s = slave_with_all_partitions();
        s.enable_dedupe();
        let batch = vec![
            Tuple::new(Side::Left, 100, key, 0),
            Tuple::new(Side::Left, 110, key, 1),
            Tuple::new(Side::Right, 120, key, 0),
        ];
        s.receive_batch(batch.clone());
        // A promoted leader replays everything from sequence zero, plus
        // one genuinely new tuple.
        let mut replay = batch;
        replay.push(Tuple::new(Side::Right, 130, key, 1));
        s.receive_batch(replay);
        assert_eq!(s.backlog_tuples(), 4, "duplicates dropped, the new tuple kept");
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        s.process_pending(&mut out, &mut work);
        assert_eq!(out.len(), 4, "2 left x 2 right, no duplicate pairs");
        let pid = partition_of(key, p.npart);
        assert_eq!(s.seen_of(pid), (2, 2), "guards advanced past the last sequences");

        // Guards are per side: a left guard never blocks a right tuple.
        s.receive_batch(vec![Tuple::new(Side::Right, 140, key, 2)]);
        assert_eq!(s.backlog_tuples(), 1);

        // Without dedupe, redelivery duplicates (the legacy behavior).
        let mut legacy = slave_with_all_partitions();
        legacy.receive_batch(vec![Tuple::new(Side::Left, 100, key, 0)]);
        legacy.receive_batch(vec![Tuple::new(Side::Left, 100, key, 0)]);
        assert_eq!(legacy.backlog_tuples(), 2);
    }

    #[test]
    fn seen_guards_max_merge_and_travel() {
        let p = small_params();
        let mut s: SlaveCore<ExactEngine> = SlaveCore::new(0, p);
        s.enable_dedupe();
        assert_eq!(s.seen_of(3), (0, 0));
        s.set_seen(3, 10, 4);
        s.set_seen(3, 3, 8); // stale left, fresher right
        assert_eq!(s.seen_of(3), (10, 8), "never lowered");
        // An arriving duplicate below the guard is dropped even though
        // this slave never saw the original (a restored partition).
        s.create_group(3);
        let key = (0..10_000u64).find(|&k| partition_of(k, s.params().npart) == 3).unwrap();
        s.receive_batch(vec![
            Tuple::new(Side::Left, 100, key, 9),  // < 10: replayed tail, dup
            Tuple::new(Side::Left, 110, key, 10), // >= 10: genuinely new
        ]);
        assert_eq!(s.backlog_tuples(), 1);
    }

    /// The fine-tuned steady state the end-to-end `sparse_tuned`
    /// workload lives in, in miniature: mini-groups of θ = 16 blocks, a
    /// sliding window of 60 batches, flushes of about a dozen tuples —
    /// then a whole window's worth of single-tuple flushes, the shape a
    /// fine distribution tick gives, which walk the hash chains and
    /// must not grow the state.
    #[test]
    fn state_gauge_on_the_tuned_shape_and_chain_stays_small() {
        use crate::TuningParams;
        const EPOCH_US: u64 = 50_000;
        const BATCH: u64 = 512;
        let mut p = Params::default_paper().with_dist_epoch_us(EPOCH_US);
        p.npart = 4;
        p.sem.w_left_us = 60 * EPOCH_US;
        p.sem.w_right_us = 60 * EPOCH_US;
        p.tuning = Some(TuningParams { theta_blocks: 16, max_depth: 12 });
        let mut s: SlaveCore<ExactEngine> = SlaveCore::new(0, p.clone());
        for pid in 0..p.npart {
            s.create_group(pid);
        }
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        let mut seqs = [0u64; 2];
        let mut now = 0u64;
        let mut tuple_of = |i: u64, key: u64| {
            now += EPOCH_US / BATCH;
            let side = Side::from_index((i % 2) as usize);
            seqs[side.index()] += 1;
            Tuple::new(side, now, key, seqs[side.index()] - 1)
        };
        // Sparse keys (a multiplicative hash of a counter: no repeats).
        let sparse = |n: u64| n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
        let mut n = 0u64;
        for _ in 0..150 {
            let batch = (0..BATCH).map(|i| tuple_of(i, sparse(n + i))).collect();
            n += BATCH;
            s.receive_batch(batch);
            s.process_pending(&mut out, &mut work);
        }
        // State bytes per window tuple: in all, and above the column
        // rings (24 bytes of columns and a 4-byte chain link per slot).
        let gauge = |s: &SlaveCore<ExactEngine>| {
            let minigroups = s.groups.values().flat_map(|g| g.iter_minigroups());
            let rings: usize = minigroups
                .flat_map(|mg| Side::BOTH.map(|side| mg.window_of(side).ring_bytes()))
                .sum();
            let (state, tuples) = (s.state_bytes(), s.window_tuples());
            (state as f64 / tuples as f64, (state - rings) as f64 / tuples as f64, tuples)
        };
        let minigroups: usize = s.groups.values().map(|g| g.minigroup_count()).sum();
        let (batched, above, tuples) = gauge(&s);
        assert!(minigroups >= 16 && tuples >= 60 * BATCH as usize, "{minigroups} / {tuples}");
        assert!(batched <= 40.0, "{batched:.1} state bytes per window tuple");
        assert!(above <= 5.0, "{above:.2} bytes per window tuple above the rings");

        // A window's worth of single-tuple flushes: every probe walks a
        // chain, nothing is built beside the rings, and the state stays
        // what it was.
        for i in 0..60 * BATCH {
            s.receive_batch(vec![tuple_of(i, sparse(n))]);
            n += 1;
            s.process_pending(&mut out, &mut work);
        }
        let (single, above, tuples) = gauge(&s);
        assert!(tuples >= 60 * BATCH as usize, "{tuples}");
        assert!(above <= 5.0, "{above:.2} bytes per window tuple above the rings");
        assert!(single <= batched + 1.0, "{single:.1} vs {batched:.1} B per window tuple");
    }

    #[test]
    fn snapshot_is_nondestructive_and_restores_elsewhere() {
        let p = small_params();
        let key = 5u64;
        let pid = partition_of(key, p.npart);
        let mut a = slave_with_all_partitions();
        a.enable_dedupe();
        a.receive_batch((0..30).map(|i| Tuple::new(Side::Left, 100 + i, key, i)).collect());
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        a.process_pending(&mut out, &mut work);
        // One pending tuple buffered after the processing pass.
        a.receive_batch(vec![Tuple::new(Side::Left, 200, key, 30)]);

        let (state, pending, payloads) = a.snapshot_group(pid).expect("owned");
        assert_eq!(pending.len(), 1, "buffered tail rides the snapshot");
        assert!(payloads.is_empty());
        assert_eq!(a.window_tuples(), 30, "snapshot leaves the live group intact");
        assert_eq!(a.backlog_tuples(), 1, "snapshot leaves the buffer intact");
        assert!(a.snapshot_group(999).is_none());

        // The buddy installs the snapshot and inherits the guards.
        let (sl, sr) = a.seen_of(pid);
        let mut b: SlaveCore<ExactEngine> = SlaveCore::new(1, p);
        b.enable_dedupe();
        b.adopt_group(pid, state, pending, &mut work);
        b.set_seen(pid, sl, sr);
        // The replayed tail (everything from seq 0) is deduplicated;
        // a fresh probe joins against the full restored window.
        b.receive_batch((0..31).map(|i| Tuple::new(Side::Left, 100 + i, key, i)).collect());
        b.receive_batch(vec![Tuple::new(Side::Right, 300, key, 0)]);
        let before = out.len();
        b.process_pending(&mut out, &mut work);
        assert_eq!(out.len() - before, 31, "30 windowed + 1 pending, no duplicates");
    }
}
