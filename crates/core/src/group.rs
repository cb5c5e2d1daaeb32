//! A partition-group: one of the `npart` hash partitions of the stream
//! pair, fine-tuned into mini-partition-groups by an extendible-hash
//! directory when it overflows `2θ` blocks (§IV-D, Fig. 4b).
//!
//! Without tuning (`Params::tuning = None`) the group is a single
//! mini-group of unbounded size — the configuration the paper measures
//! in Figs. 7–9 as "no fine-tuning".

use crate::minigroup::MiniGroupCfg;
use crate::{hash::tuning_hash, MiniGroup, OutPair, Params, ProbeEngine, Tuple, WorkStats};
use windjoin_exthash::{Directory, MergeOutcome, SplitError};

/// Extracted, transferable state of a partition-group: the tuples plus
/// the directory's *splitting information* so the consumer can
/// reconstruct the fine-tuned shape exactly (§IV-C).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupState {
    /// One entry per mini-group: canonical pattern, local depth, and the
    /// per-side tuples, time-ordered.
    pub buckets: Vec<BucketState>,
}

/// One mini-group's share of a [`GroupState`].
#[derive(Debug, Clone, PartialEq)]
pub struct BucketState {
    /// Canonical low-bit pattern in the directory.
    pub pattern: u64,
    /// Local depth.
    pub depth: u8,
    /// Left-stream tuples, time-ordered.
    pub left: Vec<Tuple>,
    /// Right-stream tuples, time-ordered.
    pub right: Vec<Tuple>,
}

impl GroupState {
    /// Total tuples carried.
    pub fn tuple_count(&self) -> usize {
        self.buckets.iter().map(|b| b.left.len() + b.right.len()).sum()
    }

    /// Transfer size with `tuple_bytes`-sized wire tuples (plus nothing
    /// for the shape — it is metadata of negligible size).
    pub fn transfer_bytes(&self, tuple_bytes: usize) -> u64 {
        (self.tuple_count() * tuple_bytes) as u64
    }
}

/// A fine-tunable partition-group.
#[derive(Debug, Clone)]
pub struct PartitionGroup<E: ProbeEngine> {
    dir: Directory<MiniGroup<E>>,
    mg_cfg: MiniGroupCfg,
    /// `Some(θ in blocks)` when tuning is enabled.
    theta_blocks: Option<usize>,
    /// Tuning hashes whose mini-groups took a tuple that is still
    /// fresh, in the order they first did: what [`flush_all`] visits,
    /// instead of every mini-group of the directory. A hash stays valid
    /// across splits (the directory routes it to the half that covers
    /// it; a split flushes both halves first), and an entry whose
    /// mini-group was flushed meanwhile costs one no-op flush.
    ///
    /// [`flush_all`]: PartitionGroup::flush_all
    unflushed: Vec<u64>,
}

impl<E: ProbeEngine> PartitionGroup<E> {
    /// An empty group configured from `params`.
    pub fn new(params: &Params) -> Self {
        let mg_cfg = MiniGroupCfg {
            block_tuples: params.block_tuples(),
            sem: params.sem,
            expiry_lag_us: params.expiry_lag_us,
        };
        let (max_depth, theta) = match params.tuning {
            Some(t) => (t.max_depth, Some(t.theta_blocks)),
            None => (0, None),
        };
        PartitionGroup {
            dir: Directory::new(max_depth, MiniGroup::new(mg_cfg)),
            mg_cfg,
            theta_blocks: theta,
            unflushed: Vec::new(),
        }
    }

    /// Inserts one tuple into its mini-group, splitting overflowing
    /// groups afterwards (tuning enabled only).
    pub fn insert(&mut self, tup: Tuple, out: &mut Vec<OutPair>, work: &mut WorkStats) {
        work.hash_ops += 1; // directory lookup on h(k)
        let h = tuning_hash(tup.key);
        let mg = self.dir.get_mut(h);
        let was_flushed = mg.fresh_count() == 0;
        mg.insert(tup, out, work);
        if was_flushed && mg.fresh_count() > 0 {
            self.unflushed.push(h);
        }
        self.split_while_oversized(h, out, work);
    }

    /// Splits `h`'s mini-group while it is above 2θ (a split may leave
    /// one half still oversized under skew; loop until balanced or
    /// depth-capped). No-op without tuning.
    fn split_while_oversized(&mut self, h: u64, out: &mut Vec<OutPair>, work: &mut WorkStats) {
        let Some(theta) = self.theta_blocks else { return };
        while self.dir.get(h).total_blocks() > 2 * theta {
            self.dir.get_mut(h).flush_all(out, work);
            match self.dir.split(h, |mg, bit| mg.split_by(bit, work)) {
                Ok(_) => {}
                Err(SplitError::MaxDepth) => break,
            }
        }
    }

    /// Stores a tuple without probing (baseline routing strategies; see
    /// `MiniGroup::insert_unprobed`). θ tuning still applies.
    pub fn insert_unprobed(&mut self, tup: Tuple, out: &mut Vec<OutPair>, work: &mut WorkStats) {
        work.hash_ops += 1;
        let h = tuning_hash(tup.key);
        self.dir.get_mut(h).insert_unprobed(tup, out, work);
        self.split_while_oversized(h, out, work);
    }

    /// Probes a tuple against its mini-group without storing it
    /// (baseline routing strategies; see `MiniGroup::probe_only`).
    pub fn probe_only(&mut self, tup: &Tuple, out: &mut Vec<OutPair>, work: &mut WorkStats) {
        work.hash_ops += 1;
        let h = tuning_hash(tup.key);
        self.dir.get_mut(h).probe_only(tup, out, work);
    }

    /// Flushes every mini-group that holds fresh tuples (end of a
    /// processing batch), in the order they first received one.
    pub fn flush_all(&mut self, out: &mut Vec<OutPair>, work: &mut WorkStats) {
        for h in self.unflushed.drain(..) {
            self.dir.get_mut(h).flush_all(out, work);
        }
    }

    /// Expires every mini-group up to `watermark`, then merges buddy
    /// mini-groups that fell below θ (provided the merged size stays
    /// within 2θ and local depths match — the §IV-D rule).
    ///
    /// Call after [`PartitionGroup::flush_all`]; merging requires sealed
    /// windows.
    pub fn expire_and_tune(
        &mut self,
        watermark: u64,
        out: &mut Vec<OutPair>,
        work: &mut WorkStats,
    ) {
        for (_, _, mg) in self.dir.iter_mut() {
            mg.expire_to(watermark, out, work);
        }
        let Some(theta) = self.theta_blocks else { return };
        loop {
            let candidates: Vec<u64> = self
                .dir
                .iter()
                .filter(|b| b.local_depth > 0 && b.bucket.total_blocks() < theta)
                .map(|b| b.pattern)
                .collect();
            let mut merged_any = false;
            for pattern in candidates {
                // The bucket may already have been merged away this round.
                if self.dir.pattern(pattern) != pattern
                    || self.dir.get(pattern).total_blocks() >= theta
                {
                    continue;
                }
                let outcome = self.dir.try_merge(
                    pattern,
                    |a, b| a.total_blocks() + b.total_blocks() <= 2 * theta,
                    |keep, gone| keep.absorb(gone, work),
                );
                if outcome == MergeOutcome::Merged {
                    merged_any = true;
                }
            }
            if !merged_any {
                break;
            }
        }
    }

    /// Total blocks across every mini-group.
    pub fn total_blocks(&self) -> usize {
        self.dir.iter().map(|b| b.bucket.total_blocks()).sum()
    }

    /// Total stored tuples.
    pub fn tuple_count(&self) -> usize {
        self.dir.iter().map(|b| b.bucket.tuple_count()).sum()
    }

    /// Heap bytes held by every mini-group's windows and engine.
    pub fn heap_bytes(&self) -> usize {
        self.dir.iter().map(|b| b.bucket.heap_bytes()).sum()
    }

    /// Number of mini-partition-groups (1 when never split).
    pub fn minigroup_count(&self) -> usize {
        self.dir.bucket_count()
    }

    /// Directory global depth (0 when never split).
    pub fn depth(&self) -> u8 {
        self.dir.global_depth()
    }

    /// Extracts the transferable state, consuming the group. Packing is
    /// charged to `work.tuples_moved` (the state-mover's cost, §IV-C).
    pub fn extract_state(self, work: &mut WorkStats) -> GroupState {
        let mut buckets = Vec::new();
        for (pattern, depth, mg) in self.dir.into_buckets() {
            let (left, right) = mg.into_parts();
            work.tuples_moved += (left.len() + right.len()) as u64;
            buckets.push(BucketState { pattern, depth, left, right });
        }
        buckets.sort_by_key(|b| (b.depth, b.pattern));
        GroupState { buckets }
    }

    /// Reconstructs a group from transferred state: first replays the
    /// splitting information to rebuild the directory shape, then
    /// installs each bucket's tuples. Unpacking charges `tuples_moved`.
    pub fn from_state(params: &Params, state: GroupState, work: &mut WorkStats) -> Self {
        let mut group = Self::new(params);
        let mg_cfg = group.mg_cfg;
        // Replay splits shallow-to-deep: for each target bucket, split the
        // covering bucket until its local depth matches. The divide
        // closure sees only empty mini-groups (tuples installed after).
        for b in &state.buckets {
            while group.dir.local_depth(b.pattern) < b.depth {
                group
                    .dir
                    .split(b.pattern, |mg, _bit| {
                        assert_eq!(mg.tuple_count(), 0, "shape replay splits empty buckets");
                        MiniGroup::new(mg_cfg)
                    })
                    .expect("state shape exceeds max_depth of the receiving configuration");
            }
        }
        for b in state.buckets {
            debug_assert_eq!(group.dir.local_depth(b.pattern), b.depth);
            *group.dir.get_mut(b.pattern) =
                MiniGroup::from_parts(group.mg_cfg, b.left, b.right, work);
        }
        group
    }

    /// Iterates mini-groups (diagnostics / tests).
    pub fn iter_minigroups(&self) -> impl Iterator<Item = &MiniGroup<E>> {
        self.dir.iter().map(|b| b.bucket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ExactEngine;
    use crate::{Side, TuningParams};

    fn small_params(theta_blocks: usize) -> Params {
        let mut p = Params::default_paper();
        p.block_bytes = 256; // 4 tuples per 64-byte-tuple block
        p.tuning = Some(TuningParams { theta_blocks, max_depth: 8 });
        p.sem.w_left_us = 1_000_000;
        p.sem.w_right_us = 1_000_000;
        p.expiry_lag_us = 0;
        p
    }

    fn feed<E: ProbeEngine>(group: &mut PartitionGroup<E>, n: u64) -> (Vec<OutPair>, WorkStats) {
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        for i in 0..n {
            let side = if i % 2 == 0 { Side::Left } else { Side::Right };
            group.insert(Tuple::new(side, i * 10, i * 7919, i), &mut out, &mut work);
        }
        group.flush_all(&mut out, &mut work);
        (out, work)
    }

    #[test]
    fn group_splits_when_overflowing_two_theta() {
        let p = small_params(2); // 2θ = 4 blocks of 4 tuples = 16 tuples
        let mut g: PartitionGroup<ExactEngine> = PartitionGroup::new(&p);
        feed(&mut g, 200);
        assert!(g.minigroup_count() > 1, "tuning must have split the group");
        // Every mini-group respects the 2θ bound (none saturated here).
        for mg in g.iter_minigroups() {
            assert!(mg.total_blocks() <= 4, "block count {} > 2θ", mg.total_blocks());
        }
    }

    #[test]
    fn disabled_tuning_never_splits() {
        let p = small_params(2).without_tuning();
        let mut g: PartitionGroup<ExactEngine> = PartitionGroup::new(&p);
        feed(&mut g, 200);
        assert_eq!(g.minigroup_count(), 1);
        assert_eq!(g.depth(), 0);
    }

    #[test]
    fn tuning_does_not_change_outputs() {
        let with = {
            let p = small_params(2);
            let mut g: PartitionGroup<ExactEngine> = PartitionGroup::new(&p);
            let (mut out, _) = feed(&mut g, 300);
            out.sort_by_key(|o| o.id());
            out
        };
        let without = {
            let p = small_params(2).without_tuning();
            let mut g: PartitionGroup<ExactEngine> = PartitionGroup::new(&p);
            let (mut out, _) = feed(&mut g, 300);
            out.sort_by_key(|o| o.id());
            out
        };
        assert_eq!(with, without, "fine tuning is a performance feature, not semantic");
    }

    #[test]
    fn expiry_then_merge_restores_small_groups() {
        let p = small_params(2);
        let mut g: PartitionGroup<ExactEngine> = PartitionGroup::new(&p);
        feed(&mut g, 300);
        let split_count = g.minigroup_count();
        assert!(split_count > 1);
        // Advance far beyond the window: everything expires, groups merge.
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        g.flush_all(&mut out, &mut work);
        g.expire_and_tune(u64::MAX, &mut out, &mut work);
        assert_eq!(g.tuple_count(), 0);
        assert_eq!(g.minigroup_count(), 1, "empty buddies must merge back");
        assert_eq!(g.depth(), 0);
    }

    #[test]
    fn state_roundtrip_preserves_shape_and_tuples() {
        let p = small_params(2);
        let mut g: PartitionGroup<ExactEngine> = PartitionGroup::new(&p);
        feed(&mut g, 250);
        let shape: Vec<(usize, u8)> = vec![(g.minigroup_count(), g.depth())];
        let tuples = g.tuple_count();
        let mut work = WorkStats::default();
        let state = g.extract_state(&mut work);
        assert_eq!(state.tuple_count(), tuples);
        assert_eq!(work.tuples_moved as usize, tuples);
        assert_eq!(state.transfer_bytes(64), (tuples * 64) as u64);

        let g2: PartitionGroup<ExactEngine> = PartitionGroup::from_state(&p, state, &mut work);
        assert_eq!(g2.tuple_count(), tuples);
        assert_eq!(vec![(g2.minigroup_count(), g2.depth())], shape);
    }

    #[test]
    fn state_roundtrip_preserves_join_behaviour() {
        // Join results after a move must be as if the move never happened.
        let p = small_params(2);
        let mut g: PartitionGroup<ExactEngine> = PartitionGroup::new(&p);
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        for i in 0..100u64 {
            g.insert(Tuple::new(Side::Left, i, i % 10, i), &mut out, &mut work);
        }
        g.flush_all(&mut out, &mut work);

        let state = g.extract_state(&mut work);
        let mut g2: PartitionGroup<ExactEngine> = PartitionGroup::from_state(&p, state, &mut work);
        let baseline_out_len = out.len();
        g2.insert(Tuple::new(Side::Right, 150, 3, 0), &mut out, &mut work);
        g2.flush_all(&mut out, &mut work);
        // Left tuples with key 3: t = 3, 13, ..., 93 — ten of them, all
        // within the 1 s window of t=150.
        assert_eq!(out.len() - baseline_out_len, 10);
    }

    #[test]
    fn saturated_bucket_stops_splitting_at_max_depth() {
        let mut p = small_params(1);
        p.tuning = Some(TuningParams { theta_blocks: 1, max_depth: 2 });
        let mut g: PartitionGroup<ExactEngine> = PartitionGroup::new(&p);
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        // One single hot key: splitting cannot separate it.
        for i in 0..500u64 {
            g.insert(Tuple::new(Side::Left, i, 42, i), &mut out, &mut work);
        }
        assert!(g.depth() <= 2);
        assert!(g.tuple_count() == 500, "no tuples lost under saturation");
    }
}
