//! Probe engines: how fresh tuples find their matches in the opposite
//! window.
//!
//! Three interchangeable engines implement [`ProbeEngine`]:
//!
//! * [`ExactEngine`] — the paper's Block Nested-Loop Join (§IV-D,
//!   §VI-A) with **hashed physical discovery**: the probing batch (at
//!   most one head block of fresh tuples) is hashed into a small filter
//!   and member table, and the opposite side's key column (see
//!   [`crate::block`]) is swept once against it, block by block —
//!   `O(sealed + matches)` instead of `O(fresh × sealed)`. A window
//!   whose probes are single tuples answers them from a key index
//!   instead (see *When an index exists* below). Outputs, emission
//!   order and charged work are bit-identical to the scalar scan. Used
//!   by the threaded/process runtimes and the microbenches.
//! * [`ScalarEngine`] — the retained scalar reference kernel: the
//!   tuple-at-a-time BNLJ via [`scan_run`], exactly as the paper
//!   describes it, one stored tuple at a time. Slow on purpose; it
//!   anchors the equivalence property tests that keep the production
//!   kernel honest.
//! * [`CountedEngine`] — maintains a per-key index of sealed tuples and
//!   discovers matches through it, while charging **exactly the work the
//!   BNLJ would have done** (`fresh × sealed` comparisons, one touch per
//!   opposite block). Outputs and work tallies are bit-identical to
//!   `ExactEngine` — enforced by the equivalence property tests — which
//!   makes cluster-scale simulated experiments tractable (DESIGN.md §3).
//!
//! All engines rely on the window's freshness protocol for duplicate
//! elimination: probes only see **sealed** opposite tuples; the skipped
//! fresh tuples probe later and find this side's (by then sealed) tuples.
//!
//! ## Why physical discovery cannot change charged work
//!
//! The BNLJ cost the paper measures is `fresh × sealed` comparisons plus
//! one touch per opposite block; both are charged from the batch and
//! window sizes alone, **before** any physical decision. How matches
//! are then found — block-range prefilter, batch filter and table, key
//! index — only elides comparisons that provably fail, and none of its
//! own hashing is charged to `hash_ops` (that counter belongs to the
//! paper's partitioning and tuning hashes). The output set and the
//! `WorkStats` tallies are unchanged by construction; the emission
//! *order* is kept by building on the small side: the sweep still walks
//! stored tuples oldest-first and, per stored tuple, batch members in
//! ascending index — the nested loop's own order, with no re-sort.
//!
//! ## When an index exists
//!
//! A key index turns a single-tuple probe from a sweep of the whole
//! key column into one bucket lookup, but it is paid for on every
//! update: an insert per sealed tuple, a remove per expired one, and
//! about 40 resident bytes per window tuple — more than the window's
//! own columns. It earns that only where single-tuple probes are the
//! window's regime (low rates, or partitions fine-tuned so far that a
//! distribution epoch brings each mini-group one tuple). So
//! [`ExactEngine`] scores each window's recent probe mix — up on a
//! single-tuple probe, down twice as fast on a batch probe — builds
//! the index once a run of single probes has pushed the score to
//! `INDEX_BUILD_SCORE`, and drops it, memory returned, when batch
//! probes have brought the score back to zero. A stray single probe
//! among batches (a head block that happened to fill with one fresh
//! tuple) sweeps like any other. Which path answers a probe is purely
//! a matter of speed: both emit the same pairs in the same order.

use crate::block::RunView;
use crate::hash::index_hash;
use crate::{JoinSemantics, OutPair, Side, Tuple, WindowPartition, WorkStats};
use std::collections::{HashMap, VecDeque};
use windjoin_exthash::{Directory, SplitError};

/// Match-finding strategy for a mini-partition-group.
pub trait ProbeEngine: Default {
    /// A tuple has been sealed (it finished probing; it is now visible
    /// to opposite-side probes).
    fn on_seal(&mut self, tuple: &Tuple);

    /// The oldest block of `side` is being dropped by expiry; its
    /// tuples leave the window.
    fn on_expire_block(&mut self, side: Side, block: &RunView<'_>);

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
    /// (they probe later, when it will be gone). Same outputs, order and
    /// charge as [`scan_run`], which is the default.
    fn join_expiring(
        &mut self,
        fresh: &[Tuple],
        block: &RunView<'_>,
        sem: &JoinSemantics,
        out: &mut Vec<OutPair>,
        work: &mut WorkStats,
    ) {
        scan_run(fresh, block, sem, out, work);
    }

    /// Heap bytes the engine holds beyond the windows themselves (key
    /// indexes, scratch) — its share of `SlaveCore::state_bytes`.
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Nested-loop scan of `probe_tuples` against one stored run: the
/// scalar reference for both the probe and the expiring-block
/// completeness join (§IV-D), and the default
/// [`ProbeEngine::join_expiring`].
pub fn scan_run(
    probe_tuples: &[Tuple],
    stored_run: &RunView<'_>,
    sem: &JoinSemantics,
    out: &mut Vec<OutPair>,
    work: &mut WorkStats,
) {
    for (key, stored_t, stored_seq) in stored_run.iter() {
        for probe in probe_tuples {
            if probe.key == key && sem.joins(probe.t, probe.side, stored_t) {
                out.push(OutPair::from_probe(probe, stored_t, stored_seq));
                work.emitted += 1;
            }
        }
    }
    work.comparisons += (probe_tuples.len() * stored_run.len()) as u64;
}

/// The retained scalar reference kernel: the paper's Block Nested-Loop
/// Join as straight-line scans, one stored tuple at a time.
///
/// [`ExactEngine`] is the production kernel; this engine exists so the
/// equivalence property tests can assert, forever, that the columnar
/// kernel emits byte-identical `(OutPair, WorkStats)` sequences.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarEngine;

impl ProbeEngine for ScalarEngine {
    fn on_seal(&mut self, _tuple: &Tuple) {}

    fn on_expire_block(&mut self, _side: Side, _block: &RunView<'_>) {}

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
        opposite.for_each_sealed_run(|run| scan_run(fresh, &run, sem, out, work));
    }
}

/// One sealed tuple's index record: its key plus the `(t, seq)` pair an
/// [`OutPair`] needs. 24 bytes — three cache lines hold a full bucket.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    key: u64,
    t: u64,
    seq: u64,
}

/// One extendible-hash bucket of the per-window key index: entries in
/// global seal order, which per side is ascending `(t, seq)` — the
/// exact order the BNLJ sweep visits stored tuples in.
#[derive(Debug, Clone, Default)]
struct IndexBucket {
    entries: Vec<IndexEntry>,
    /// Hit [`SplitError::MaxDepth`] while overflowing (a hot key whose
    /// identical hashes can never be divided) — stop trying to split.
    saturated: bool,
}

/// A bucket splits once it holds more entries than this; sweeping a
/// bucket this size is still only three cache lines.
const INDEX_SPLIT_MAX: usize = 64;
/// Buddies merge back when their combined size falls to half the split
/// threshold (hysteresis, mirroring the θ rule in [`crate::group`]).
const INDEX_MERGE_MAX: usize = INDEX_SPLIT_MAX / 2;
/// Directory depth cap: 2^11 entries ≈ 8 KiB of directory per side at
/// full saturation, reached only by windows past ~128k sealed tuples.
const INDEX_MAX_DEPTH: u8 = 11;
/// Sealed windows smaller than this are probed faster by the sweep
/// than through the index's indirection, and tiny windows never pay to
/// materialise an index at all.
const INDEX_MIN_SEALED: usize = 64;
/// A window's probe-mix score (see [`ProbeMix`]) at which its index is
/// built: a run of this many single-tuple probes with no batch probe
/// between them, or a mix that single probes dominate two to one.
const INDEX_BUILD_SCORE: u8 = 8;
/// Ceiling of the score: how much single-probe history a window can
/// bank, i.e. `INDEX_SCORE_MAX / 2` batch probes in a row drop an index
/// however long it has been in use.
const INDEX_SCORE_MAX: u8 = 16;

/// Extendible-hash index over one window's sealed keys
/// (`key → time-ordered (t, seq)` via [`index_hash`]).
///
/// Exists only while its window's probes are single tuples (see the
/// module docs): built from the sealed runs in one pass, kept exact by
/// [`ExactEngine::on_seal`] / [`ExactEngine::on_expire_block`], and
/// dropped whole when batch probes take over.
#[derive(Debug, Clone)]
struct KeyIndex {
    dir: Directory<IndexBucket>,
    len: usize,
}

impl KeyIndex {
    /// Appends one sealed tuple. Seals arrive in `(t, seq)` order per
    /// side, so a plain push keeps every bucket time-ordered.
    fn insert(&mut self, key: u64, t: u64, seq: u64) {
        let h = index_hash(key);
        let bucket = self.dir.get_mut(h);
        bucket.entries.push(IndexEntry { key, t, seq });
        self.len += 1;
        while !self.dir.get(h).saturated && self.dir.get(h).entries.len() > INDEX_SPLIT_MAX {
            let split = self.dir.split(h, |bucket, bit| {
                // Stable partition: both halves keep their time order.
                let (keep, sibling) =
                    bucket.entries.drain(..).partition(|e| !bit.goes_to_sibling(index_hash(e.key)));
                bucket.entries = keep;
                IndexBucket { entries: sibling, saturated: false }
            });
            if let Err(SplitError::MaxDepth) = split {
                self.dir.get_mut(h).saturated = true;
            }
        }
    }

    /// Removes one expired tuple. Expiry is strictly oldest-first per
    /// side, so the first entry with this key *is* the expiring one.
    fn remove(&mut self, key: u64, t: u64, seq: u64) {
        let h = index_hash(key);
        let bucket = self.dir.get_mut(h);
        let pos =
            bucket.entries.iter().position(|e| e.key == key).expect("expired tuple was indexed");
        let entry = bucket.entries.remove(pos);
        debug_assert_eq!((entry.t, entry.seq), (t, seq), "oldest-first expiry invariant");
        self.len -= 1;
        if bucket.entries.len() <= INDEX_MERGE_MAX {
            // Fold small buddies back together (and shrink the
            // directory) so a drained window's index stays compact.
            let _ = self.dir.try_merge(
                h,
                |a, b| {
                    !a.saturated
                        && !b.saturated
                        && a.entries.len() + b.entries.len() <= INDEX_MERGE_MAX
                },
                |keep, dropped| {
                    let mut a = std::mem::take(&mut keep.entries).into_iter().peekable();
                    let mut b = dropped.entries.into_iter().peekable();
                    // Interleave by (t, seq): both runs are sorted, and
                    // the merged bucket must stay in sweep order.
                    while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
                        if (x.t, x.seq) <= (y.t, y.seq) {
                            let e = a.next().expect("peeked");
                            keep.entries.push(e);
                        } else {
                            let e = b.next().expect("peeked");
                            keep.entries.push(e);
                        }
                    }
                    keep.entries.extend(a);
                    keep.entries.extend(b);
                },
            );
        }
    }

    /// One-pass build from a window's sealed runs (oldest-first, so the
    /// inserts arrive time-ordered exactly like live seals would).
    fn build_from(window: &WindowPartition) -> Self {
        let mut index =
            KeyIndex { dir: Directory::new(INDEX_MAX_DEPTH, IndexBucket::default()), len: 0 };
        window.for_each_sealed_run(|run| {
            for (key, t, seq) in run.iter() {
                index.insert(key, t, seq);
            }
        });
        index
    }

    /// Heap bytes held: the directory's entry table and bucket slots
    /// plus every bucket's entry storage, by capacity.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let buckets: usize =
            self.dir.iter().map(|b| b.bucket.entries.capacity() * size_of::<IndexEntry>()).sum();
        size_of::<Self>()
            + self.dir.entry_count() * size_of::<u32>()
            + self.dir.bucket_count() * (size_of::<IndexBucket>() + 2 * size_of::<u64>())
            + buckets
    }

    /// Emits every window-valid match of a single probe, in the same
    /// global `(t, seq)` order the run-by-run sweep produces. Charges
    /// nothing: the caller has already charged the full BNLJ cost.
    fn probe_one(
        &self,
        probe: &Tuple,
        sem: &JoinSemantics,
        out: &mut Vec<OutPair>,
        work: &mut WorkStats,
    ) {
        for e in &self.dir.get(index_hash(probe.key)).entries {
            if e.key == probe.key && sem.joins(probe.t, probe.side, e.t) {
                out.push(OutPair::from_probe(probe, e.t, e.seq));
                work.emitted += 1;
            }
        }
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

/// One window's recent probe mix and the index it currently earns.
#[derive(Debug, Clone, Default)]
struct ProbeMix {
    /// Up one per single-tuple probe of the window, down two per batch
    /// probe, within `0..=INDEX_SCORE_MAX`.
    score: u8,
    /// Present from the probe that lifts the score to
    /// [`INDEX_BUILD_SCORE`] until the one that returns it to zero.
    index: Option<Box<KeyIndex>>,
}

/// The paper's Block Nested-Loop Join with hashed physical discovery.
///
/// A probe (and the expiry completeness join) hashes its batch into the
/// reused `BatchTable` scratch, then makes one pass over each sealed
/// run's key column: 8 keys at a time through the table's bitmap
/// filter, an exact chain walk only for keys the filter passes, and the
/// `t`/`seq` columns touched only to materialise an [`OutPair`]. Runs
/// whose `[min_key, max_key]` range is disjoint from the batch's are
/// skipped outright. All comparisons are still charged (see the module
/// docs), and emission is exactly the scalar kernel's stored-major,
/// fresh-ascending order. The table is per-engine scratch — one worker
/// drains a group at a time.
///
/// While single-tuple probes are a window's regime (module docs, *When
/// an index exists*) and it holds ≥ `INDEX_MIN_SEALED` sealed tuples,
/// they go through a per-side `KeyIndex` instead of sweeping: the probe
/// touches one extendible-hash bucket (≤ a few cache lines) rather than
/// the whole key column. Because sealed runs are visited oldest-first,
/// a single probe's sweep emission order is exactly ascending stored
/// `(t, seq)` — the order index buckets are kept in — so the indexed
/// path emits a byte-identical `(OutPair, WorkStats)` sequence, and the
/// choice of path is purely a matter of speed. Batch probes always
/// sweep: their emission interleaves batch members per stored tuple,
/// which a per-key index of the *window* could only reproduce by
/// sorting its matches.
#[derive(Debug, Clone, Default)]
pub struct ExactEngine {
    /// Reused scratch: the probing batch's filter and member table.
    batch: BatchTable,
    /// Per probed window (`[left, right]`): its probe mix and index.
    mix: [ProbeMix; 2],
}

impl ExactEngine {
    /// Whether `side`'s window currently has a key index resident.
    pub fn index_resident(&self, side: Side) -> bool {
        self.mix[side.index()].index.is_some()
    }
}

impl ProbeEngine for ExactEngine {
    fn on_seal(&mut self, tuple: &Tuple) {
        if let Some(idx) = &mut self.mix[tuple.side.index()].index {
            idx.insert(tuple.key, tuple.t, tuple.seq);
        }
    }

    fn on_expire_block(&mut self, side: Side, block: &RunView<'_>) {
        if let Some(idx) = &mut self.mix[side.index()].index {
            for (key, t, seq) in block.iter() {
                idx.remove(key, t, seq);
            }
        }
    }

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
        let mix = &mut self.mix[opposite.side().index()];
        if let [probe] = fresh {
            mix.score = (mix.score + 1).min(INDEX_SCORE_MAX);
            let sealed = opposite.sealed_count();
            if mix.index.is_none() && mix.score >= INDEX_BUILD_SCORE && sealed >= INDEX_MIN_SEALED {
                mix.index = Some(Box::new(KeyIndex::build_from(opposite)));
            }
            if let Some(idx) = &mix.index {
                debug_assert_eq!(idx.len, sealed, "index tracks the sealed set");
                // Identical charge to the run-by-run sweep: one
                // comparison per sealed tuple (fresh.len() == 1).
                work.comparisons += sealed as u64;
                idx.probe_one(probe, sem, out, work);
                return;
            }
        } else {
            mix.score = mix.score.saturating_sub(2);
            if mix.score == 0 {
                mix.index = None;
            }
        }
        self.batch.build(fresh);
        let batch = &self.batch;
        opposite.for_each_sealed_run(|run| {
            // Full BNLJ charge, independent of the physical sweep below.
            work.comparisons += (fresh.len() * run.len()) as u64;
            batch.sweep(fresh, &run, sem, out, work);
        });
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
        self.batch.heap_bytes()
            + self
                .mix
                .iter()
                .filter_map(|m| m.index.as_deref())
                .map(KeyIndex::heap_bytes)
                .sum::<usize>()
    }
}

/// Index-accelerated engine charging BNLJ-equivalent work.
///
/// Per side, sealed tuples are indexed as `key → time-ordered (t, seq)`
/// entries. A probe binary-searches the window-valid range of its key's
/// entry list, so discovery is `O(log n + matches)` while the *charged*
/// cost remains the full scan the paper's system would perform.
#[derive(Debug, Clone, Default)]
pub struct CountedEngine {
    index: [HashMap<u64, VecDeque<(u64, u64)>>; 2],
}

impl ProbeEngine for CountedEngine {
    fn on_seal(&mut self, tuple: &Tuple) {
        let entries = self.index[tuple.side.index()].entry(tuple.key).or_default();
        debug_assert!(
            entries.back().is_none_or(|&(t, s)| (t, s) <= (tuple.t, tuple.seq)),
            "seals must arrive in time order per side"
        );
        entries.push_back((tuple.t, tuple.seq));
    }

    fn on_expire_block(&mut self, side: Side, block: &RunView<'_>) {
        let map = &mut self.index[side.index()];
        for (key, t, seq) in block.iter() {
            let entries = map.get_mut(&key).expect("expired tuple was sealed");
            let front = entries.pop_front().expect("expired tuple was indexed");
            debug_assert_eq!(front, (t, seq), "oldest-first expiry invariant");
            if entries.is_empty() {
                map.remove(&key);
            }
        }
    }

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
        // Identical charge to the BNLJ scan.
        work.blocks_touched += opposite.block_count() as u64;
        work.comparisons += (fresh.len() * opposite.sealed_count()) as u64;

        let opp = fresh[0].side.opposite();
        let map = &self.index[opp.index()];
        for probe in fresh {
            let Some(entries) = map.get(&probe.key) else { continue };
            // Stored-older bound: stored.t >= probe.t - W(opposite).
            let lower = probe.t.saturating_sub(sem.window_us(opp));
            // Stored-newer bound: stored.t <= probe.t + W(probe side).
            let upper = probe.t.saturating_add(sem.window_us(probe.side));
            let (a, b) = entries.as_slices();
            let start_a = a.partition_point(|&(t, _)| t < lower);
            for &(t, seq) in &a[start_a..] {
                if t > upper {
                    break;
                }
                out.push(OutPair::from_probe(probe, t, seq));
                work.emitted += 1;
            }
            if a.last().is_none_or(|&(t, _)| t <= upper) {
                let start_b = b.partition_point(|&(t, _)| t < lower);
                for &(t, seq) in &b[start_b..] {
                    if t > upper {
                        break;
                    }
                    out.push(OutPair::from_probe(probe, t, seq));
                    work.emitted += 1;
                }
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let entries = |map: &HashMap<u64, VecDeque<(u64, u64)>>| {
            map.capacity() * size_of::<(u64, VecDeque<(u64, u64)>)>()
                + map.values().map(|e| e.capacity() * size_of::<(u64, u64)>()).sum::<usize>()
        };
        self.index.iter().map(entries).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEM: JoinSemantics = JoinSemantics { w_left_us: 1_000, w_right_us: 1_000 };

    fn tl(t: u64, key: u64, seq: u64) -> Tuple {
        Tuple::new(Side::Left, t, key, seq)
    }
    fn tr(t: u64, key: u64, seq: u64) -> Tuple {
        Tuple::new(Side::Right, t, key, seq)
    }

    /// Builds a sealed right-side window from tuples and mirrors them
    /// into an engine's index.
    fn sealed_right<E: ProbeEngine>(engine: &mut E, tuples: &[Tuple]) -> WindowPartition {
        let mut w = WindowPartition::new(Side::Right, 4);
        for &t in tuples {
            w.append(t);
            w.seal();
            engine.on_seal(&t);
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
        let w = sealed_right(&mut e, &stored);
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
    fn counted_engine_matches_exact_engine() {
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
        let w_ex = sealed_right(&mut ex, &stored);
        let (mut out_ex, work_ex) = run_probe(&mut ex, &fresh, &w_ex);

        let mut ct = CountedEngine::default();
        let w_ct = sealed_right(&mut ct, &stored);
        let (mut out_ct, work_ct) = run_probe(&mut ct, &fresh, &w_ct);

        out_ex.sort_by_key(|p| p.id());
        out_ct.sort_by_key(|p| p.id());
        assert_eq!(out_ex, out_ct, "outputs must be identical");
        assert_eq!(work_ex, work_ct, "charged work must be identical");
    }

    #[test]
    fn probes_skip_fresh_opposite_tuples() {
        // The opposite window has one sealed and one fresh tuple; only
        // the sealed one may match (§IV-D duplicate elimination).
        for counted in [false, true] {
            let mut ex = ExactEngine::default();
            let mut ct = CountedEngine::default();
            let mut w = WindowPartition::new(Side::Right, 4);
            let sealed = tr(100, 7, 0);
            w.append(sealed);
            w.seal();
            ex.on_seal(&sealed);
            ct.on_seal(&sealed);
            w.append(tr(200, 7, 1)); // fresh: not sealed, not indexed
            let fresh = [tl(300, 7, 0)];
            let (out, work) = if counted {
                run_probe(&mut ct, &fresh, &w)
            } else {
                run_probe(&mut ex, &fresh, &w)
            };
            assert_eq!(out.len(), 1, "counted={counted}");
            assert_eq!(out[0].right, (100, 0));
            assert_eq!(work.comparisons, 1, "only the sealed tuple is scanned");
        }
    }

    #[test]
    fn counted_engine_expiry_prunes_index() {
        let mut ct = CountedEngine::default();
        let mut w = WindowPartition::new(Side::Right, 2);
        for (i, t) in [tr(10, 7, 0), tr(20, 7, 1), tr(3000, 7, 2)].iter().enumerate() {
            w.append(*t);
            w.seal();
            ct.on_seal(t);
            let _ = i;
        }
        // Expire the first block (t=10,20).
        assert!(w.expire_front(5000, 1000, 0, |b| ct.on_expire_block(Side::Right, b)));
        let fresh = [tl(3100, 7, 0)];
        let (out, _) = run_probe(&mut ct, &fresh, &w);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].right, (3000, 2));
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
            scan_run(&fresh, block, &SEM, &mut out_ref, &mut work_ref);
        }));
        assert_eq!(out, out_ref);
        assert_eq!(work, work_ref);
        assert_eq!((work.comparisons, work.emitted), (33, 2 * 4 + 3));
    }

    #[test]
    fn empty_probe_is_free() {
        let mut ex = ExactEngine::default();
        let w = sealed_right(&mut ex, &[tr(1, 7, 0)]);
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
        w.for_each_sealed_run(|run| scan_run(&probes, &run, &SEM, &mut out, &mut work));
        assert_eq!(work.comparisons, 6);
        assert_eq!(out.len(), 2);
        assert_eq!(work.emitted, 2);
    }

    #[test]
    fn duplicate_keys_all_match() {
        for counted in [false, true] {
            let stored = [tr(100, 7, 0), tr(101, 7, 1), tr(102, 7, 2)];
            let fresh = [tl(500, 7, 0)];
            let (out, _) = if counted {
                let mut e = CountedEngine::default();
                let w = sealed_right(&mut e, &stored);
                run_probe(&mut e, &fresh, &w)
            } else {
                let mut e = ExactEngine::default();
                let w = sealed_right(&mut e, &stored);
                run_probe(&mut e, &fresh, &w)
            };
            assert_eq!(out.len(), 3, "counted={counted}");
        }
    }
}
