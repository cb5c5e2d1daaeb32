//! The probe engine: how fresh tuples find their matches in the
//! opposite window.
//!
//! [`ProbeEngine`] is the join module's match-finding seam and
//! [`ExactEngine`] its one production implementation, run by every
//! runtime, the simulator and the baselines: the paper's Block
//! Nested-Loop Join (§IV-D, §VI-A) with **hashed physical discovery**.
//! A probe finds its matches one of two ways, whichever costs less (see
//! *Sweep or chain* below): the probing batch (at most one head block
//! of fresh tuples) is hashed into a small filter and member table and
//! the opposite side's key column (see [`crate::block`]) is swept once
//! against it, block by block — `O(sealed + matches)`; or each fresh
//! tuple walks the opposite side's hash chain — `O(fresh + matches)`.
//! Outputs, emission order and charged work are bit-identical to the
//! tuple-at-a-time scan of [`crate::reference::ScalarEngine`], the
//! property tests' oracle.
//!
//! The engine relies on the window's freshness protocol for duplicate
//! elimination: probes only see **sealed** opposite tuples; the skipped
//! fresh tuples probe later and find this side's (by then sealed) tuples.
//!
//! ## Why physical discovery cannot change charged work
//!
//! The BNLJ cost the paper measures is `fresh × sealed` comparisons plus
//! one touch per opposite block; both are charged from the batch and
//! window sizes alone, **before** any physical decision. How matches
//! are then found — block-range prefilter, batch filter and table, hash
//! chain — only elides comparisons that provably fail, and none of its
//! own hashing is charged to `hash_ops` (that counter belongs to the
//! paper's partitioning and tuning hashes). The output set and the
//! `WorkStats` tallies are unchanged by construction. The emission
//! *order* is the nested loop's: stored tuples oldest-first and, per
//! stored tuple, batch members in ascending index. The sweep walks in
//! that order already; a chain yields one member's matches
//! newest-first, so a single member's are reversed and a batch's are
//! sorted as packed `(window offset, member)` words.
//!
//! ## Sweep or chain
//!
//! The sweep reads every sealed key, but at streaming speed, 8 keys per
//! filter test; a chain lookup reads only the tuples sharing the probe
//! key's slot (four to eight) plus its matches, but each with a dependent,
//! scattered load. So per probe the engine compares `sealed` against
//! `fresh × (lookup + matches per probing tuple)`, the lookup in sweep
//! steps and the matches as the window's recent average, and takes the
//! cheaper path: a few fresh tuples against a large window — a
//! distribution tick's frame against a long window — walk chains; a
//! full head block against a small mini-group, or hot keys that match
//! by the dozen, sweep. Both paths emit the same pairs in the same
//! order, so the choice is purely a matter of speed.

use crate::block::RunView;
use crate::{JoinSemantics, OutPair, Tuple, WindowPartition, WorkStats};

/// Match-finding strategy for a mini-partition-group.
pub trait ProbeEngine: Default {
    /// Probes `fresh` (all from one side, time-ordered) against the
    /// opposite window's sealed tuples. Appends matches to `out` and
    /// charges BNLJ-equivalent work to `work`.
    fn probe(
        &mut self,
        fresh: &[Tuple],
        opposite: &WindowPartition,
        sem: &JoinSemantics,
        out: &mut Vec<OutPair>,
        work: &mut WorkStats,
    );

    /// The completeness join of §IV-D: `block` is about to leave the
    /// window, so it joins the opposite side's still-`fresh` tuples now
    /// (they probe later, when it will be gone). Charges every
    /// `fresh × block` comparison, like the nested loop.
    fn join_expiring(
        &mut self,
        fresh: &[Tuple],
        block: &RunView<'_>,
        sem: &JoinSemantics,
        out: &mut Vec<OutPair>,
        work: &mut WorkStats,
    );

    /// Heap bytes the engine holds beyond the windows themselves (its
    /// scratch) — its share of `SlaveCore::state_bytes`.
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Filter words per table slot: 128 bits per batch member keep a full
/// batch's false-positive rate under 1 % per stored key (≈ 6 % per
/// 8-key chunk) while a 64-tuple batch's whole table is 1.5 KiB.
const FILTER_WORDS_PER_SLOT: usize = 2;

/// The probing batch, hashed: a bitmap filter over the members' key
/// hashes plus a chained table `slot → members`, rebuilt by every
/// sweep and kept only as reused scratch.
///
/// Chains link members in **ascending batch index**, so walking one
/// emits duplicate keys in fresh order — the inner loop order of the
/// nested-loop join.
#[derive(Debug, Clone, Default)]
struct BatchTable {
    /// Bit `b` of word `w` is set iff some member's key hashes to
    /// `(w, b)`. A power-of-two number of words.
    filter: Vec<u64>,
    /// Slot → first member index + 1 (`0` = empty); a slot covers
    /// [`FILTER_WORDS_PER_SLOT`] consecutive filter words.
    heads: Vec<u32>,
    /// Member → next member of the same slot + 1 (`0` = end of chain).
    next: Vec<u32>,
    /// Smallest and largest member key, for the block-range prefilter.
    min_key: u64,
    max_key: u64,
}

/// Multiply-shift hash of `key` to a `(word, bit)` position in a filter
/// of `words` words (a power of two). Weak mixing only costs false
/// positives, never matches: every filter hit is key-checked against
/// the chain.
#[inline(always)]
fn filter_pos(key: u64, words: usize) -> (usize, u32) {
    let x = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    // Masking with `words - 1` right at the index lets the compiler
    // drop the bounds check from the sweep's inner loop.
    ((x >> 6) as usize & (words - 1), x as u32 & 63)
}

impl BatchTable {
    /// Heap bytes held by the reused scratch, by capacity.
    fn heap_bytes(&self) -> usize {
        self.filter.capacity() * std::mem::size_of::<u64>()
            + (self.heads.capacity() + self.next.capacity()) * std::mem::size_of::<u32>()
    }

    /// Rebuilds the table over `fresh` (non-empty).
    fn build(&mut self, fresh: &[Tuple]) {
        let slots = fresh.len().next_power_of_two();
        self.filter.clear();
        self.filter.resize(slots * FILTER_WORDS_PER_SLOT, 0);
        self.heads.clear();
        self.heads.resize(slots, 0);
        self.next.clear();
        self.next.resize(fresh.len(), 0);
        (self.min_key, self.max_key) = (u64::MAX, 0);
        // Newest member first, each pushed on the front of its chain:
        // chains end up ascending.
        for (i, t) in fresh.iter().enumerate().rev() {
            let (word, bit) = filter_pos(t.key, self.filter.len());
            self.filter[word] |= 1 << bit;
            let head = &mut self.heads[word / FILTER_WORDS_PER_SLOT];
            self.next[i] = std::mem::replace(head, i as u32 + 1);
            self.min_key = self.min_key.min(t.key);
            self.max_key = self.max_key.max(t.key);
        }
    }

    /// The sweep kernel: one pass over a sealed run's key column, 8
    /// keys at a time through the branch-free filter (an all-miss chunk
    /// costs one test); only keys that pass walk their slot's chain and
    /// touch the other columns. Emission is stored-major, fresh-ascending —
    /// the scalar kernel's order. `fresh` is the batch the table was
    /// built over; comparisons are charged by the caller.
    fn sweep(
        &self,
        fresh: &[Tuple],
        run: &RunView<'_>,
        sem: &JoinSemantics,
        out: &mut Vec<OutPair>,
        work: &mut WorkStats,
    ) {
        let filter = &self.filter[..];
        // A never-built table holds no members (and a known non-zero
        // `filter.len()` is what `filter_pos`'s mask relies on); outside
        // the batch's key range no key of this block can match either.
        if filter.is_empty() || run.min_key > self.max_key || run.max_key < self.min_key {
            return;
        }
        // Bit `off` set iff `chunk[off]` passes the filter.
        let filter_hits = |chunk: &[u64]| {
            let mut hits = 0u32;
            for (off, &key) in chunk.iter().enumerate() {
                let (word, bit) = filter_pos(key, filter.len());
                hits |= ((filter[word] >> bit) as u32 & 1) << off;
            }
            hits
        };
        let mut emit_hits = |base: usize, mut hits: u32| {
            while hits != 0 {
                let j = base + hits.trailing_zeros() as usize;
                hits &= hits - 1;
                let (key, stored_t) = (run.keys[j], run.ts[j]);
                let (word, _) = filter_pos(key, filter.len());
                let mut member = self.heads[word / FILTER_WORDS_PER_SLOT];
                while member != 0 {
                    let i = member as usize - 1;
                    let probe = &fresh[i];
                    if probe.key == key && sem.joins(probe.t, probe.side, stored_t) {
                        out.push(OutPair::from_probe(probe, stored_t, run.seqs[j]));
                        work.emitted += 1;
                    }
                    member = self.next[i];
                }
            }
        };
        let mut chunks = run.keys.chunks_exact(8);
        let mut base = 0;
        for chunk in &mut chunks {
            let hits = filter_hits(chunk);
            if hits != 0 {
                emit_hits(base, hits);
            }
            base += 8;
        }
        emit_hits(base, filter_hits(chunks.remainder()));
    }
}

/// What one chain step — a tuple a walk visits, match or not — costs in
/// sweep steps (one sealed key swept): the walk's loads are dependent
/// and scattered where the sweep's stream.
const CHAIN_STEP: f32 = 4.0;

/// Weight of the recent match average in an observation: matches per
/// probing tuple move by a quarter of the gap per probe.
const MATCH_GAIN: f32 = 0.25;

/// The paper's Block Nested-Loop Join with hashed physical discovery.
///
/// A sweep (and the expiry completeness join) hashes its batch into the
/// reused `BatchTable` scratch, then makes one pass over each sealed
/// run's key column: 8 keys at a time through the table's bitmap
/// filter, an exact chain walk only for keys the filter passes, and the
/// `t`/`seq` columns touched only to materialise an [`OutPair`]. Runs
/// whose `[min_key, max_key]` range is disjoint from the batch's are
/// skipped outright. A chain probe instead walks the opposite window's
/// hash chain once per fresh tuple (see [`WindowPartition::sealed_with_key`]).
/// Which one a probe takes is the module docs' cost rule; all
/// comparisons are charged either way, and emission is exactly the
/// scalar kernel's stored-major, fresh-ascending order. The table is
/// per-engine scratch — one worker drains a group at a time.
#[derive(Debug, Clone, Default)]
pub struct ExactEngine {
    /// Reused scratch: the probing batch's filter and member table.
    batch: BatchTable,
    /// Per probed window (`[left, right]`): matches per probing tuple,
    /// a moving average over its recent probes.
    matches: [f32; 2],
    /// Reused scratch: a batch's chain hits, `offset << 32 | member`.
    hits: Vec<u64>,
}

impl ExactEngine {
    /// Whether a probe of `fresh` tuples against `opposite` walks hash
    /// chains rather than sweeping: the module docs' cost rule, with
    /// the window's recent matches per probing tuple.
    pub fn walks_chains(&self, fresh: usize, opposite: &WindowPartition) -> bool {
        let sealed = opposite.sealed_count() as f32;
        let lookup = CHAIN_STEP * (1.0 + sealed / opposite.chain_slots().max(1) as f32);
        let matches = CHAIN_STEP * self.matches[opposite.side().index()];
        fresh as f32 * (lookup + matches) < sealed
    }

    /// Emits every match of `fresh` in `opposite` from its hash chain,
    /// in the sweep's order. Charges nothing but `emitted`.
    fn probe_chains(
        &mut self,
        fresh: &[Tuple],
        opposite: &WindowPartition,
        sem: &JoinSemantics,
        out: &mut Vec<OutPair>,
        work: &mut WorkStats,
    ) {
        let start = out.len();
        if let [probe] = fresh {
            out.extend(
                opposite
                    .sealed_with_key(probe.key)
                    .filter(|&(_, t, _)| sem.joins(probe.t, probe.side, t))
                    .map(|(_, t, seq)| OutPair::from_probe(probe, t, seq)),
            );
            // Chains run newest-first; the nested loop oldest-first.
            out[start..].reverse();
        } else {
            // Stored-major, then fresh-ascending: one sort of packed
            // `(offset, member)` words, then the pairs in that order.
            self.hits.clear();
            for (i, probe) in fresh.iter().enumerate() {
                self.hits.extend(
                    opposite
                        .sealed_with_key(probe.key)
                        .filter(|&(_, t, _)| sem.joins(probe.t, probe.side, t))
                        .map(|(off, ..)| (off as u64) << 32 | i as u64),
                );
            }
            self.hits.sort_unstable();
            out.extend(self.hits.iter().map(|&hit| {
                let (t, seq) = opposite.sealed_at((hit >> 32) as usize);
                OutPair::from_probe(&fresh[hit as u32 as usize], t, seq)
            }));
        }
        work.emitted += (out.len() - start) as u64;
    }
}

impl ProbeEngine for ExactEngine {
    fn probe(
        &mut self,
        fresh: &[Tuple],
        opposite: &WindowPartition,
        sem: &JoinSemantics,
        out: &mut Vec<OutPair>,
        work: &mut WorkStats,
    ) {
        if fresh.is_empty() {
            return;
        }
        work.blocks_touched += opposite.block_count() as u64;
        // Full BNLJ charge, independent of the physical path below.
        work.comparisons += (fresh.len() * opposite.sealed_count()) as u64;
        let emitted = work.emitted;
        if self.walks_chains(fresh.len(), opposite) {
            self.probe_chains(fresh, opposite, sem, out, work);
        } else {
            self.batch.build(fresh);
            let batch = &self.batch;
            opposite.for_each_sealed_run(|run| batch.sweep(fresh, &run, sem, out, work));
        }
        let seen = (work.emitted - emitted) as f32 / fresh.len() as f32;
        let matches = &mut self.matches[opposite.side().index()];
        *matches += MATCH_GAIN * (seen - *matches);
    }

    fn join_expiring(
        &mut self,
        fresh: &[Tuple],
        block: &RunView<'_>,
        sem: &JoinSemantics,
        out: &mut Vec<OutPair>,
        work: &mut WorkStats,
    ) {
        if fresh.is_empty() {
            return;
        }
        work.comparisons += (fresh.len() * block.len()) as u64;
        self.batch.build(fresh);
        self.batch.sweep(fresh, block, sem, out, work);
    }

    fn heap_bytes(&self) -> usize {
        self.batch.heap_bytes() + self.hits.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ScalarEngine;
    use crate::Side;

    const SEM: JoinSemantics = JoinSemantics { w_left_us: 1_000, w_right_us: 1_000 };

    fn tl(t: u64, key: u64, seq: u64) -> Tuple {
        Tuple::new(Side::Left, t, key, seq)
    }
    fn tr(t: u64, key: u64, seq: u64) -> Tuple {
        Tuple::new(Side::Right, t, key, seq)
    }

    /// Builds a sealed right-side window from tuples.
    fn sealed_right(tuples: &[Tuple]) -> WindowPartition {
        let mut w = WindowPartition::new(Side::Right, 4);
        for &t in tuples {
            w.append(t);
            w.seal();
        }
        w
    }

    fn run_probe<E: ProbeEngine>(
        engine: &mut E,
        fresh: &[Tuple],
        opposite: &WindowPartition,
    ) -> (Vec<OutPair>, WorkStats) {
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        engine.probe(fresh, opposite, &SEM, &mut out, &mut work);
        (out, work)
    }

    #[test]
    fn exact_engine_finds_window_valid_matches() {
        let mut e = ExactEngine::default();
        let stored = [tr(100, 7, 0), tr(500, 7, 1), tr(500, 9, 2), tr(2000, 7, 3)];
        let w = sealed_right(&stored);
        let fresh = [tl(1200, 7, 0)];
        let (out, work) = run_probe(&mut e, &fresh, &w);
        // t=100 is out of window (1200-100 > 1000); t=2000 is newer but
        // within the probe's own window; key 9 doesn't match.
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|p| p.right == (500, 1)));
        assert!(out.iter().any(|p| p.right == (2000, 3)));
        assert_eq!(work.comparisons, 4);
        assert_eq!(work.emitted, 2);
        assert_eq!(work.blocks_touched, 1);
    }

    #[test]
    fn exact_engine_matches_the_scalar_scan() {
        let stored = [
            tr(100, 7, 0),
            tr(500, 7, 1),
            tr(500, 9, 2),
            tr(900, 7, 3),
            tr(1500, 7, 4),
            tr(2500, 7, 5),
        ];
        let fresh = [tl(1200, 7, 0), tl(1300, 9, 1), tl(1400, 42, 2)];

        let mut ex = ExactEngine::default();
        let w = sealed_right(&stored);
        let (out, work) = run_probe(&mut ex, &fresh, &w);
        let (out_ref, work_ref) = run_probe(&mut ScalarEngine, &fresh, &w);
        assert_eq!(out, out_ref, "outputs must be identical, in order");
        assert_eq!(work, work_ref, "charged work must be identical");
        assert_eq!(work.emitted, 4);
    }

    #[test]
    fn probes_skip_fresh_opposite_tuples() {
        // The opposite window has one sealed and one fresh tuple; only
        // the sealed one may match (§IV-D duplicate elimination).
        let mut ex = ExactEngine::default();
        let mut w = sealed_right(&[tr(100, 7, 0)]);
        w.append(tr(200, 7, 1)); // fresh: not sealed, not chained
        let (out, work) = run_probe(&mut ex, &[tl(300, 7, 0)], &w);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].right, (100, 0));
        assert_eq!(work.comparisons, 1, "only the sealed tuple is scanned");
    }

    #[test]
    fn expiry_ends_chain_walks_at_the_oldest_live_tuple() {
        // 800 sealed tuples 10 µs apart, key 7 on every fortieth: a
        // single probe walks its chain, before and after the older half
        // of the window expires under it.
        let stored: Vec<Tuple> =
            (0..800).map(|i| tr(10 * i, if i % 40 == 0 { 7 } else { 100 + i }, i)).collect();
        let mut ex = ExactEngine::default();
        let mut w = sealed_right(&stored);
        let probe = [tl(4_500, 7, 99)];
        assert!(ex.walks_chains(1, &w), "one tuple against 800 walks its chain");
        let (out, work) = run_probe(&mut ex, &probe, &w);
        assert_eq!((&out, work), (&run_probe(&mut ScalarEngine, &probe, &w).0, work));
        assert_eq!(work.emitted, 5, "the key-7 tuples at t = 3 600 ..= 5 200");
        let mut dropped = 0;
        while w.expire_front(5_000, 1_000, 0, |_| ()) {
            dropped += 1;
        }
        assert_eq!(dropped, 100, "the blocks whose newest tuple is older than t = 4 000");
        assert!(ex.walks_chains(1, &w));
        let (out, work) = run_probe(&mut ex, &probe, &w);
        let (out_ref, work_ref) = run_probe(&mut ScalarEngine, &probe, &w);
        assert_eq!((&out, work), (&out_ref, work_ref));
        assert_eq!(work.emitted, 4, "the key-7 tuples at t = 4 000 ..= 5 200");
        // Down to an empty window: every chain ends at once.
        while w.expire_front(u64::MAX, 0, 0, |_| ()) {}
        assert_eq!(w.sealed_with_key(7).count(), 0);
        assert!(run_probe(&mut ex, &probe, &w).0.is_empty());
    }

    #[test]
    fn the_cost_rule_sweeps_full_batches_small_windows_and_hot_keys() {
        // A full 64-tuple head block against a 200-tuple window sweeps;
        // one tuple walks its chain — until the window's probes have
        // been finding dozens of matches each.
        let stored: Vec<Tuple> = (0..200).map(|i| tr(i, i % 4, i)).collect();
        let mut ex = ExactEngine::default();
        let w = sealed_right(&stored);
        assert!(!ex.walks_chains(64, &w));
        assert!(ex.walks_chains(1, &w));
        for i in 0..8 {
            let probe = [tl(300 + i, i % 4, i)];
            let (out, work) = run_probe(&mut ex, &probe, &w);
            assert_eq!((&out, work), (&run_probe(&mut ScalarEngine, &probe, &w).0, work));
            assert_eq!(work.emitted, 50);
        }
        assert!(!ex.walks_chains(1, &w), "50 matches per probe cost more than the sweep");
    }

    #[test]
    fn batch_chain_walks_emit_in_sweep_order() {
        // Four fresh tuples, two of them sharing a key, against a long
        // window: they walk chains, and the interleaved matches still
        // come out stored-major, fresh-ascending.
        let stored: Vec<Tuple> = (0..4_000).map(|i| tr(i, i % 500, i)).collect();
        let w = WindowPartition::from_tuples(Side::Right, 64, stored);
        let fresh = [tl(3_990, 9, 0), tl(3_991, 4, 1), tl(3_992, 9, 2), tl(3_993, 777, 3)];
        let mut ex = ExactEngine::default();
        assert!(ex.walks_chains(fresh.len(), &w));
        let (out, work) = run_probe(&mut ex, &fresh, &w);
        let (out_ref, work_ref) = run_probe(&mut ScalarEngine, &fresh, &w);
        assert_eq!(out, out_ref, "emission sequence");
        assert_eq!(work, work_ref, "charged work");
        assert_eq!(work.emitted, 3 * 2, "keys 9, 4 and 9 each match two stored tuples in range");
    }

    #[test]
    fn colliding_batch_keys_emit_in_scalar_order() {
        // An 8-member batch has 8 table slots over 16 filter words.
        let words = 8 * FILTER_WORDS_PER_SLOT;
        let slot_of = |k: u64| filter_pos(k, words).0 / FILTER_WORDS_PER_SLOT;
        let a = 1u64;
        // Distinct keys sharing `a`'s filter bit, or only its slot.
        let mut same_bit = (2u64..).filter(|&k| filter_pos(k, words) == filter_pos(a, words));
        let (b, ghost) = (same_bit.next().unwrap(), same_bit.next().unwrap());
        let c = (2u64..)
            .find(|&k| slot_of(k) == slot_of(a) && filter_pos(k, words) != filter_pos(a, words))
            .unwrap();
        // Duplicates of `a`, `b` and `c` interleaved in one chain.
        let fresh: Vec<Tuple> = [a, c, a, b, 77, b, a, c]
            .iter()
            .enumerate()
            .map(|(i, &k)| tl(1_000 + i as u64, k, i as u64))
            .collect();
        // `ghost` passes the filter but equals no member; 21 stored
        // tuples in blocks of 16 leave a 5-key remainder-only run.
        let stored: Vec<Tuple> = (0..21u64)
            .map(|i| tr(900 + i, [a, ghost, b, 5, c, 77, ghost][i as usize % 7], i))
            .collect();
        let mut w = WindowPartition::new(Side::Right, 16);
        for &t in &stored {
            w.append(t);
            w.seal();
        }
        let (out, work) = run_probe(&mut ExactEngine::default(), &fresh, &w);
        let (out_ref, work_ref) = run_probe(&mut ScalarEngine, &fresh, &w);
        assert_eq!(out, out_ref, "emission sequence");
        assert_eq!(work, work_ref, "charged work");
        assert_eq!(work.emitted, 3 * 3 + 2 * 3 + 2 * 3 + 3, "a, b, c and 77 all matched");
    }

    #[test]
    fn expiry_join_matches_the_nested_loop() {
        let fresh = [tl(1_000, 7, 0), tl(1_001, 9, 1), tl(1_002, 7, 2)];
        let stored: Vec<Tuple> = (0..11).map(|i| tr(500 + i, 7 + i % 3, i)).collect();
        let mut w = WindowPartition::from_tuples(Side::Right, 16, stored);
        let (mut out, mut work) = (Vec::new(), WorkStats::default());
        let (mut out_ref, mut work_ref) = (Vec::new(), WorkStats::default());
        assert!(w.expire_front(u64::MAX, 0, 0, |block| {
            ExactEngine::default().join_expiring(&fresh, block, &SEM, &mut out, &mut work);
            ScalarEngine.join_expiring(&fresh, block, &SEM, &mut out_ref, &mut work_ref);
        }));
        assert_eq!(out, out_ref);
        assert_eq!(work, work_ref);
        assert_eq!((work.comparisons, work.emitted), (33, 2 * 4 + 3));
    }

    #[test]
    fn empty_probe_is_free() {
        let mut ex = ExactEngine::default();
        let w = sealed_right(&[tr(1, 7, 0)]);
        let (out, work) = run_probe(&mut ex, &[], &w);
        assert!(out.is_empty());
        assert!(work.is_zero());
    }

    #[test]
    fn scan_run_counts_every_comparison() {
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        let probes = [tl(100, 1, 0), tl(100, 2, 1)];
        let stored = vec![tr(50, 1, 0), tr(60, 3, 1), tr(70, 2, 2)];
        let w = WindowPartition::from_tuples(Side::Right, 4, stored);
        ScalarEngine.probe(&probes, &w, &SEM, &mut out, &mut work);
        assert_eq!(work.comparisons, 6);
        assert_eq!(out.len(), 2);
        assert_eq!(work.emitted, 2);
    }

    #[test]
    fn duplicate_keys_all_match() {
        let mut e = ExactEngine::default();
        let w = sealed_right(&[tr(100, 7, 0), tr(101, 7, 1), tr(102, 7, 2)]);
        let (out, _) = run_probe(&mut e, &[tl(500, 7, 0)], &w);
        assert_eq!(out.len(), 3);
    }
}
