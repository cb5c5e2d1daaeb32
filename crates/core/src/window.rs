//! One stream's mini window-partition: a time-ordered queue of logical
//! blocks over one set of contiguous columns, with the paper's
//! head-block *fresh tuple* protocol (§IV-D).
//!
//! New tuples land in the *head* (newest) block. Tuples that have not
//! yet probed the opposite window are **fresh**: they are counted in
//! the head block's record but kept apart in row form — the probing
//! batch is a `&[Tuple]` — until probing seals them into the columns.
//! Freshness is the mechanism behind the paper's duplicate elimination:
//! a probing tuple skips the opposite window's fresh tail, because
//! those tuples will probe (and find it) later.
//!
//! Sealed tuples live in [`crate::block`]'s column ring, oldest first;
//! block `i` of the queue is the `i`-th run of `block_tuples` column
//! slots, described by its [`BlockMeta`] record. Expiry is
//! block-granular: the oldest block is dropped once its newest tuple
//! has been outside the window for `lag` extra microseconds (see
//! `Params::expiry_lag_us`); a block containing fresh tuples never
//! expires. Dropping a block moves the ring's head and, when the window
//! has shrunk enough, returns the memory.

use crate::block::{rows, BlockMeta, Columns, RunView};
use crate::{Side, Tuple};
use std::collections::VecDeque;

/// A time-ordered, block-organised window for one stream side.
#[derive(Debug, Clone)]
pub struct WindowPartition {
    side: Side,
    block_tuples: usize,
    /// Sealed tuples, oldest first.
    cols: Columns,
    /// One record per block, oldest first; the head record counts the
    /// fresh tuples too.
    blocks: VecDeque<BlockMeta>,
    /// The fresh (not yet probed) tail of the head block.
    fresh: Vec<Tuple>,
}

impl WindowPartition {
    /// An empty window for `side` with `block_tuples` tuples per block.
    pub fn new(side: Side, block_tuples: usize) -> Self {
        assert!(block_tuples > 0, "blocks must hold at least one tuple");
        WindowPartition {
            side,
            block_tuples,
            cols: Columns::default(),
            blocks: VecDeque::new(),
            fresh: Vec::new(),
        }
    }

    /// Rebuilds a window from already-sealed, time-ordered tuples (state
    /// installation after a move, split or merge).
    pub fn from_tuples(side: Side, block_tuples: usize, tuples: Vec<Tuple>) -> Self {
        let mut w = Self::new(side, block_tuples);
        if tuples.is_empty() {
            return w;
        }
        w.cols.reserve_exact(tuples.len(), block_tuples);
        w.blocks.reserve_exact(tuples.len().div_ceil(block_tuples));
        for t in &tuples {
            w.count_in_head(t);
            w.cols.push(t, block_tuples);
        }
        w
    }

    /// The stream side this window belongs to.
    #[inline]
    pub fn side(&self) -> Side {
        self.side
    }

    /// Counts `t` into the head block's record, opening a new head if
    /// the current one is full. Returns `true` when the head block
    /// *became* full.
    fn count_in_head(&mut self, t: &Tuple) -> bool {
        debug_assert_eq!(t.side, self.side, "tuple routed to the wrong side");
        debug_assert!(
            self.newest().is_none_or(|last| last <= (t.t, t.seq)),
            "windows are time-ordered"
        );
        if self.blocks.back().is_none_or(|b| b.len() == self.block_tuples) {
            assert!(
                self.fresh.is_empty(),
                "head block is full but unsealed: flush before appending"
            );
            self.blocks.push_back(BlockMeta::EMPTY);
        }
        let head = self.blocks.back_mut().expect("head exists");
        head.push(t);
        head.len() == self.block_tuples
    }

    /// Appends a tuple to the head block as fresh, opening a new head if
    /// the current one is full. Returns `true` when the head block
    /// *became* full with this append — the caller must flush (probe)
    /// before appending more.
    ///
    /// # Panics
    ///
    /// Panics if called while the head block is full and still contains
    /// fresh tuples (the caller skipped a flush).
    pub fn append(&mut self, t: Tuple) -> bool {
        let filled = self.count_in_head(&t);
        self.fresh.push(t);
        filled
    }

    /// The fresh (not yet probed) tail of the head block.
    #[inline]
    pub fn fresh_slice(&self) -> &[Tuple] {
        &self.fresh
    }

    /// Number of fresh tuples.
    #[inline]
    pub fn fresh_count(&self) -> usize {
        self.fresh.len()
    }

    /// Marks every fresh tuple as sealed (after it probed): they move
    /// into the columns, where opposite-side probes see them.
    #[inline]
    pub fn seal(&mut self) {
        for t in &self.fresh {
            self.cols.push(t, self.block_tuples);
        }
        self.fresh.clear();
    }

    /// Total stored tuples.
    #[inline]
    pub fn tuple_count(&self) -> usize {
        self.cols.len() + self.fresh.len()
    }

    /// Stored tuples that have already probed (visible to the opposite
    /// side's probes).
    #[inline]
    pub fn sealed_count(&self) -> usize {
        self.cols.len()
    }

    /// Number of blocks (including a partial head).
    #[inline]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The block records, oldest first (the head's counts its fresh
    /// tuples).
    pub fn blocks(&self) -> impl Iterator<Item = &BlockMeta> {
        self.blocks.iter()
    }

    /// Visits every **sealed** run of tuples, oldest-first: each non-head
    /// block in full, then the sealed prefix of the head block, as
    /// [`RunView`]s over the columns carrying the block's key bounds.
    /// This is exactly what a probing tuple scans (fresh tail skipped —
    /// §IV-D duplicate elimination).
    pub fn for_each_sealed_run(&self, mut f: impl FnMut(RunView<'_>)) {
        let mut off = 0;
        for b in &self.blocks {
            // Only the head block can hold less than its record says.
            let n = b.len().min(self.cols.len() - off);
            if n > 0 {
                f(self.cols.run(off, n, b));
            }
            off += n;
        }
    }

    /// `(offset, t, seq)` of every sealed tuple whose key is `key`,
    /// newest first, from the side's hash chain (see [`crate::block`]);
    /// the offset counts sealed tuples from the oldest. The same tuples
    /// a sweep of [`Self::for_each_sealed_run`] finds for `key`, at a
    /// cost of about `sealed_count() / chain_slots()` tuples walked
    /// besides them.
    #[inline]
    pub fn sealed_with_key(&self, key: u64) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        self.cols.chain(key)
    }

    /// `(t, seq)` of the sealed tuple at `offset` (counted from the
    /// oldest, as [`Self::sealed_with_key`] reports it).
    #[inline]
    pub(crate) fn sealed_at(&self, offset: usize) -> (u64, u64) {
        self.cols.row(offset)
    }

    /// Slots in the side's hash-chain table (`0` while the window holds
    /// no sealed tuple).
    #[inline]
    pub fn chain_slots(&self) -> usize {
        self.cols.slot_len()
    }

    /// Drops the oldest block if it is fully expired at `watermark`
    /// (`newest_t + window_us + lag_us < watermark`), handing its tuples
    /// to `leaving` first; returns whether a block was dropped. A block
    /// holding fresh tuples never expires. The decision reads the block
    /// record only.
    pub fn expire_front(
        &mut self,
        watermark: u64,
        window_us: u64,
        lag_us: u64,
        leaving: impl FnOnce(&RunView<'_>),
    ) -> bool {
        let Some(front) = self.blocks.front() else { return false };
        if front.newest_t().saturating_add(window_us).saturating_add(lag_us) >= watermark {
            return false;
        }
        if self.blocks.len() == 1 && !self.fresh.is_empty() {
            return false;
        }
        let n = front.len();
        leaving(&self.cols.run(0, n, front));
        self.blocks.pop_front();
        if self.cols.drop_front(n, self.block_tuples) {
            // The window shrank for good: the small buffers follow.
            self.blocks.shrink_to(self.blocks.len() + self.blocks.len() / 4);
            self.fresh.shrink_to_fit();
        }
        true
    }

    /// Every stored tuple, oldest first: the sealed ones out of the
    /// columns, then the fresh tail.
    pub fn iter(&self) -> impl Iterator<Item = Tuple> + '_ {
        let side = self.side;
        self.cols
            .segments()
            .into_iter()
            .flat_map(|(keys, ts, seqs)| rows(keys, ts, seqs))
            .map(move |(key, t, seq)| Tuple { t, key, seq, side })
            .chain(self.fresh.iter().copied())
    }

    /// All tuples oldest-first in row form (state extraction for
    /// partition movement).
    pub fn into_tuples(self) -> Vec<Tuple> {
        let mut v = Vec::with_capacity(self.tuple_count());
        v.extend(self.iter());
        v
    }

    /// `(t, seq)` of the newest stored tuple.
    fn newest(&self) -> Option<(u64, u64)> {
        self.fresh.last().map(|t| (t.t, t.seq)).or_else(|| self.cols.newest())
    }

    /// Oldest stored timestamp (`None` when empty).
    pub fn oldest_t(&self) -> Option<u64> {
        self.cols.oldest_t().or_else(|| self.fresh.first().map(|t| t.t))
    }

    /// Newest timestamp of the oldest block — what decides when it may
    /// expire (`None` when empty).
    pub(crate) fn oldest_block_newest_t(&self) -> Option<u64> {
        self.blocks.front().map(BlockMeta::newest_t)
    }

    /// Newest stored timestamp (`None` when empty).
    pub fn newest_t(&self) -> Option<u64> {
        self.blocks.back().map(BlockMeta::newest_t)
    }

    /// Heap bytes held: columns and hash chain, block records and the
    /// fresh buffer, by capacity.
    pub fn heap_bytes(&self) -> usize {
        self.cols.heap_bytes()
            + self.blocks.capacity() * std::mem::size_of::<BlockMeta>()
            + self.fresh.capacity() * std::mem::size_of::<Tuple>()
    }

    /// Heap bytes of the column ring alone, chain links included (part
    /// of [`Self::heap_bytes`]).
    #[cfg(test)]
    pub(crate) fn ring_bytes(&self) -> usize {
        self.cols.ring_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(at: u64, seq: u64) -> Tuple {
        Tuple::new(Side::Left, at, 7, seq)
    }

    fn window() -> WindowPartition {
        WindowPartition::new(Side::Left, 4)
    }

    /// `t` of every sealed tuple, run by run.
    fn sealed_runs(w: &WindowPartition) -> Vec<Vec<u64>> {
        let mut runs = Vec::new();
        w.for_each_sealed_run(|r| runs.push(r.ts.to_vec()));
        runs
    }

    #[test]
    fn append_reports_full_head() {
        let mut w = window();
        assert!(!w.append(t(1, 0)));
        assert!(!w.append(t(2, 1)));
        assert!(!w.append(t(3, 2)));
        assert!(w.append(t(4, 3)), "fourth append fills the 4-tuple block");
        assert_eq!(w.tuple_count(), 4);
        assert_eq!(w.block_count(), 1);
        assert_eq!(w.fresh_count(), 4);
    }

    #[test]
    #[should_panic(expected = "flush before appending")]
    fn appending_past_unsealed_full_head_panics() {
        let mut w = window();
        for i in 0..4 {
            w.append(t(i, i));
        }
        w.append(t(9, 9));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_append_panics_in_debug() {
        let mut w = window();
        w.append(t(20, 1));
        w.seal();
        w.append(t(10, 0));
    }

    #[test]
    fn seal_then_new_head() {
        let mut w = window();
        for i in 0..4 {
            w.append(t(i, i));
        }
        w.seal();
        assert_eq!(w.fresh_count(), 0);
        assert_eq!(w.sealed_count(), 4);
        w.append(t(10, 10));
        assert_eq!(w.block_count(), 2);
        assert_eq!(w.fresh_count(), 1);
        assert_eq!(w.fresh_slice().len(), 1);
        assert_eq!(w.fresh_slice()[0].t, 10);
    }

    #[test]
    fn sealed_runs_skip_fresh_tail() {
        let mut w = window();
        for i in 0..4 {
            w.append(t(i, i));
        }
        w.seal();
        w.append(t(10, 10));
        w.seal();
        w.append(t(11, 11)); // fresh
        assert_eq!(sealed_runs(&w), vec![vec![0, 1, 2, 3], vec![10]]);
        let head = w.blocks().last().unwrap();
        assert_eq!((head.len(), head.newest_t()), (2, 11), "the record counts the fresh tuple");
    }

    #[test]
    fn run_views_carry_columns_and_block_bounds() {
        let mut w = window();
        for (i, key) in [7u64, 3, 9].into_iter().enumerate() {
            w.append(Tuple::new(Side::Left, 10 * (i as u64 + 1), key, i as u64));
        }
        w.seal();
        w.append(Tuple::new(Side::Left, 40, 1, 3)); // fresh, widens the block's bounds
        let mut seen = 0;
        w.for_each_sealed_run(|r| {
            seen += 1;
            assert_eq!((r.keys, r.ts, r.seqs), (&[7, 3, 9][..], &[10, 20, 30][..], &[0, 1, 2][..]));
            assert_eq!((r.min_key, r.max_key), (1, 9), "bounds cover the whole block");
            assert_eq!(r.len(), 3);
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn expiry_drops_whole_old_blocks_only() {
        let mut w = window();
        for i in 0..4 {
            w.append(t(i, i));
        }
        w.seal();
        w.append(t(100, 4));
        w.seal();
        // Window 50, lag 0. At watermark 54 the first block (newest t=3)
        // satisfies 3 + 50 < 54.
        let mut left = Vec::new();
        assert!(w.expire_front(54, 50, 0, |b| left = b.ts.to_vec()), "front expired");
        assert_eq!(left, vec![0, 1, 2, 3]);
        assert_eq!(w.tuple_count(), 1);
        // Remaining block is not expired.
        assert!(!w.expire_front(54, 50, 0, |_| panic!("nothing leaves")));
    }

    #[test]
    fn lag_retains_blocks_longer() {
        let mut w = window();
        for i in 0..4 {
            w.append(t(i, i));
            w.seal();
        }
        w.append(t(100, 4));
        w.seal();
        assert!(!w.expire_front(54, 50, 10, |_| ()), "lag keeps it");
        assert!(w.expire_front(64, 50, 10, |_| ()), "past lag it goes");
    }

    #[test]
    fn fresh_head_never_expires() {
        let mut w = window();
        w.append(t(0, 0));
        assert!(!w.expire_front(u64::MAX, 1, 0, |_| ()));
        w.seal();
        assert!(w.expire_front(u64::MAX, 1, 0, |_| ()));
        assert_eq!(w.tuple_count(), 0);
        assert_eq!(w.block_count(), 0);
        assert_eq!(w.heap_bytes(), 0, "an emptied window holds no memory");
    }

    #[test]
    fn a_block_expires_while_the_head_holds_fresh_tuples() {
        // Two blocks; the head's sealed prefix and its fresh tail must
        // both survive the older block's expiry untouched.
        let mut w = window();
        for i in 0..5 {
            w.append(t(i, i));
            w.seal();
        }
        w.append(t(200, 5)); // fresh in the head block
        let mut left = Vec::new();
        assert!(w.expire_front(100, 50, 0, |b| left = b.seqs.to_vec()));
        assert_eq!(left, vec![0, 1, 2, 3]);
        assert_eq!(sealed_runs(&w), vec![vec![4]]);
        assert_eq!(w.fresh_slice(), &[t(200, 5)]);
        assert_eq!((w.tuple_count(), w.block_count()), (2, 1));
        // The head itself is old enough too, but holds a fresh tuple.
        assert!(!w.expire_front(u64::MAX, 1, 0, |_| ()));
    }

    #[test]
    fn sealed_window_wraps_the_ring_and_scans_in_order() {
        // Slide a 3-block window over 40 blocks' worth of tuples: the
        // ring's head laps its physical end many times, at every
        // alignment of the sealed prefix of the head block.
        let mut w = window();
        let mut expect: VecDeque<u64> = VecDeque::new();
        for i in 0..160u64 {
            if w.append(t(i, i)) || i % 3 == 0 {
                w.seal();
            }
            expect.push_back(i);
            while w.block_count() > 3 {
                assert!(w.expire_front(u64::MAX, 0, 0, |b| {
                    for (_, at, _) in b.iter() {
                        assert_eq!(Some(at), expect.pop_front());
                    }
                }));
            }
            let sealed: Vec<u64> = sealed_runs(&w).concat();
            let all: Vec<u64> = w.iter().map(|x| x.t).collect();
            assert_eq!(all, Vec::from(expect.clone()), "iter at i={i}");
            assert_eq!(sealed[..], all[..w.sealed_count()], "sealed runs at i={i}");
            assert!(sealed_runs(&w).iter().all(|r| r.len() <= 4));
        }
        assert!(w.heap_bytes() <= 16 * 24 + 8 * 32 + 8 * 32, "three blocks: {}", w.heap_bytes());
    }

    #[test]
    fn capacity_does_not_ratchet_over_a_long_steady_run() {
        // A steady window of ~50 blocks sliding for 2 000 blocks, with a
        // 5x burst in the middle: memory returns to the steady level.
        let mut w = WindowPartition::new(Side::Left, 8);
        let mut steady = 0;
        let mut seq = 0u64;
        for round in 0..2_000u64 {
            let keep = if (1_000..1_050).contains(&round) { 250 } else { 50 };
            for _ in 0..8 {
                w.append(Tuple::new(Side::Left, seq, seq % 11, seq));
                seq += 1;
            }
            w.seal();
            while w.block_count() > keep {
                assert!(w.expire_front(u64::MAX, 0, 0, |_| ()));
            }
            if round == 900 {
                steady = w.heap_bytes();
                assert!(steady <= 50 * 8 * 28 * 3 / 2, "steady state holds {steady} B");
            }
        }
        assert!(
            w.heap_bytes() <= steady * 5 / 4,
            "{} B after the burst vs {steady} B",
            w.heap_bytes()
        );
    }

    #[test]
    fn from_tuples_rebuild_is_fully_sealed() {
        let tuples: Vec<Tuple> = (0..10).map(|i| t(i, i)).collect();
        let w = WindowPartition::from_tuples(Side::Left, 4, tuples.clone());
        assert_eq!(w.tuple_count(), 10);
        assert_eq!(w.block_count(), 3);
        assert_eq!(w.fresh_count(), 0);
        assert_eq!(w.oldest_t(), Some(0));
        assert_eq!(w.newest_t(), Some(9));
        assert_eq!(w.blocks().map(BlockMeta::len).collect::<Vec<_>>(), vec![4, 4, 2]);
        assert_eq!(sealed_runs(&w), vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]]);
        assert_eq!(w.into_tuples(), tuples);
    }

    #[test]
    fn into_tuples_keeps_the_fresh_tail_and_round_trips() {
        let mut w = window();
        for i in 0..6 {
            w.append(t(i, i));
            if i == 3 {
                w.seal();
            }
        }
        let tuples = w.clone().into_tuples();
        assert_eq!(tuples, (0..6).map(|i| t(i, i)).collect::<Vec<_>>());
        let back = WindowPartition::from_tuples(Side::Left, 4, tuples.clone());
        assert_eq!(back.into_tuples(), tuples);
        assert!(WindowPartition::from_tuples(Side::Left, 4, Vec::new()).heap_bytes() == 0);
    }
}
