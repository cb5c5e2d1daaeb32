//! Window storage: contiguous per-side columns cut into *logical*
//! blocks (§IV-D; Table I: 4 KB).
//!
//! A block is the paper's unit of expiry, of the BNLJ's block-by-block
//! scan and of the θ tuning rule — but it is no longer a heap object.
//! One window side keeps its sealed tuples in three columns (`key`,
//! `t`, `seq`; the side is the window's own) laid out as one ring
//! (`Columns`), and a block is a 32-byte record ([`BlockMeta`]: tuple
//! count, key bounds, newest timestamp) over `block_tuples` consecutive
//! column slots. The probe kernel is memory-bound on the key scan, so a
//! sweep streams one key column per side instead of hopping between
//! separately allocated blocks, a stored tuple costs 24 bytes (plus its
//! 4-byte chain link, below) instead of a 32-byte row plus two mirrored
//! columns, and the hot question "may the oldest block expire yet?" is
//! answered from the record without touching tuple data.
//!
//! The ring's capacity and head are always multiples of the block
//! size: blocks leave whole and only the newest block is ever partial,
//! so a block never straddles the ring's physical end and a
//! [`RunView`] of it is three plain slices. The *window* does wrap —
//! [`crate::window`] walks it block by block.
//!
//! ## The hash chain
//!
//! Every side also carries an LZ77-style hash chain over its keys, so a
//! probe can find one key's tuples without sweeping the key column: a
//! fourth ring column of `u32` links and a `u32` slot table over
//! [`index_hash`], one slot per eight ring slots rounded up to a power
//! of two. A tuple's *position* counts the tuples sealed before it; a
//! slot holds the newest position whose key hashes there, and a tuple's
//! link the previous one (both stored `+ 1`, so `0` ends a chain). A
//! seal is one slot swap. Expiry touches nothing: positions only grow,
//! so a walk stops at the first one older than the oldest live tuple,
//! whatever stale links point further back. The slot table is sized
//! from the ring's capacity and rebuilt — one pass over the live keys —
//! when a resize changes its size, and when positions would overflow
//! `u32`.

use crate::hash::index_hash;
use crate::Tuple;

/// The record of one logical block: how many tuples it holds (fresh
/// ones included), the bounds of their keys and the newest timestamp.
/// Everything block-granular — expiry, the θ rule, `blocks_touched`,
/// the probe's min/max prefilter — reads this, never the columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    min_key: u64,
    max_key: u64,
    newest_t: u64,
    len: u32,
}

impl BlockMeta {
    /// The record of a block holding nothing yet.
    pub(crate) const EMPTY: BlockMeta =
        BlockMeta { min_key: u64::MAX, max_key: 0, newest_t: 0, len: 0 };

    /// Accounts for one appended tuple; the caller enforces capacity
    /// and time order.
    #[inline]
    pub(crate) fn push(&mut self, t: &Tuple) {
        self.min_key = self.min_key.min(t.key);
        self.max_key = self.max_key.max(t.key);
        self.newest_t = t.t;
        self.len += 1;
    }

    /// Tuples in the block, fresh ones included.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for a block holding nothing (never stored in a window).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(min, max)` key bounds of the block's tuples.
    #[inline]
    pub fn key_range(&self) -> (u64, u64) {
        (self.min_key, self.max_key)
    }

    /// Timestamp of the block's newest tuple (blocks are time-ordered,
    /// so that is the last one appended).
    #[inline]
    pub fn newest_t(&self) -> u64 {
        self.newest_t
    }
}

/// A borrowed view of the sealed tuples of one logical block: the three
/// columns, index-aligned, plus the block's key bounds — everything a
/// probe kernel reads.
///
/// `min_key`/`max_key` bound the *whole* block, so for the sealed
/// prefix of a head block they may be wider than the slice itself; the
/// probe prefilter only relies on them being an over-approximation.
#[derive(Debug, Clone, Copy)]
pub struct RunView<'a> {
    /// Join keys of the run, contiguous.
    pub keys: &'a [u64],
    /// Arrival timestamps of the run, contiguous.
    pub ts: &'a [u64],
    /// Per-stream sequence numbers of the run, contiguous.
    pub seqs: &'a [u64],
    /// Lower bound on every key in the run.
    pub min_key: u64,
    /// Upper bound on every key in the run.
    pub max_key: u64,
}

impl RunView<'_> {
    /// Tuples in the run.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the run holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// `(key, t, seq)` of every tuple in the run, oldest first.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        rows(self.keys, self.ts, self.seqs)
    }
}

/// Walks three index-aligned column slices as `(key, t, seq)` rows.
#[inline]
pub(crate) fn rows<'a>(
    keys: &'a [u64],
    ts: &'a [u64],
    seqs: &'a [u64],
) -> impl Iterator<Item = (u64, u64, u64)> + 'a {
    keys.iter().zip(ts).zip(seqs).map(|((&key, &t), &seq)| (key, t, seq))
}

/// One window side's sealed tuples as a ring of three index-aligned
/// columns, plus the hash chain over their keys (see the module docs).
/// Capacity and head stay multiples of the `unit` (the block size) the
/// owning window passes in, which is what keeps every block physically
/// contiguous.
///
/// Capacity follows the content: it grows by an eighth when full and
/// is cut back to a quarter of headroom once less than half is in use,
/// so a window that shrinks — or empties — hands its memory back
/// instead of keeping its high-water mark. (An eighth, not more: a
/// sliding window that just filled its ring keeps the growth as slack
/// in all four columns.) The chain's link column and slot table follow
/// the same capacity.
#[derive(Debug, Clone, Default)]
pub(crate) struct Columns {
    /// Each column is `capacity` long; slots outside the live ring
    /// range hold stale values.
    keys: Vec<u64>,
    ts: Vec<u64>,
    seqs: Vec<u64>,
    /// Per tuple: position + 1 of the previous tuple whose key shares
    /// its slot (`0`: none).
    links: Vec<u32>,
    /// A power-of-two table; per slot: position + 1 of the newest tuple
    /// whose key hashes there (`0`: none).
    slots: Vec<u32>,
    /// Position of the oldest live tuple.
    base: u32,
    /// Physical index of the oldest live tuple.
    head: usize,
    /// Live tuples.
    len: usize,
}

/// Chain slots for a ring of `capacity`: one per eight tuples, rounded
/// up to a power of two — a lookup walks four to eight tuples of a full
/// ring besides its matches.
fn slot_count(capacity: usize) -> usize {
    (capacity / 8).max(1).next_power_of_two()
}

/// `n` rounded up to a multiple of `unit`.
#[inline]
fn round_up(n: usize, unit: usize) -> usize {
    n.div_ceil(unit) * unit
}

impl Columns {
    /// Live tuples.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Slots allocated per column.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Heap bytes held by the four ring columns (links included).
    #[inline]
    pub(crate) fn ring_bytes(&self) -> usize {
        (3 * std::mem::size_of::<u64>() + std::mem::size_of::<u32>()) * self.capacity()
    }

    /// Heap bytes held: the ring and the chain's slot table.
    #[inline]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.ring_bytes() + std::mem::size_of::<u32>() * self.slots.len()
    }

    /// Slots in the chain's table (`0` while the ring holds no memory).
    #[inline]
    pub(crate) fn slot_len(&self) -> usize {
        self.slots.len()
    }

    /// Physical index of logical position `off` (`off <= len`).
    #[inline]
    fn physical(&self, off: usize) -> usize {
        let at = self.head + off;
        if at >= self.capacity() {
            at - self.capacity()
        } else {
            at
        }
    }

    /// The chain slot of `key` (the table is non-empty).
    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        index_hash(key) as usize & (self.slots.len() - 1)
    }

    /// Makes room for exactly `n` tuples in an empty ring (bulk
    /// installs size their columns once).
    pub(crate) fn reserve_exact(&mut self, n: usize, unit: usize) {
        debug_assert_eq!(self.len, 0, "bulk reserve is for empty columns");
        self.resize(round_up(n, unit));
    }

    /// Appends one tuple at the newest end and links it into its chain.
    #[inline]
    pub(crate) fn push(&mut self, t: &Tuple, unit: usize) {
        if self.len == self.capacity() {
            self.resize(round_up(self.len + (self.len / 8).max(1), unit));
        }
        if self.base as usize + self.len >= u32::MAX as usize {
            // The next position + 1 would not fit: renumber from zero.
            self.relink(self.slots.len());
        }
        let at = self.physical(self.len);
        self.keys[at] = t.key;
        self.ts[at] = t.t;
        self.seqs[at] = t.seq;
        let slot = self.slot_of(t.key);
        self.links[at] = std::mem::replace(&mut self.slots[slot], self.base + self.len as u32 + 1);
        self.len += 1;
    }

    /// Drops the `n` oldest tuples: a whole block, or everything that
    /// is left. Returns `true` when capacity was given back. Their
    /// chain entries go stale in place.
    pub(crate) fn drop_front(&mut self, n: usize, unit: usize) -> bool {
        debug_assert!(n == unit || n == self.len, "blocks leave whole");
        self.len -= n;
        if self.len == 0 {
            *self = Columns::default();
            return true;
        }
        self.head = self.physical(n);
        self.base += n as u32;
        let shrink = self.capacity() > 2 * (self.len + unit);
        if shrink {
            self.resize(round_up(self.len + self.len / 4, unit));
        }
        shrink
    }

    /// Re-homes the live tuples, oldest first from slot 0, in columns
    /// of `capacity` slots (a multiple of the unit, at least `len`).
    /// Links move with their tuples; the chain is rebuilt only when the
    /// slot table changes size.
    fn resize(&mut self, capacity: usize) {
        debug_assert!(capacity >= self.len);
        fn rehome<T: Copy + Default>(col: &[T], head: usize, len: usize, cap: usize) -> Vec<T> {
            let first = len.min(col.len() - head);
            let mut out = Vec::with_capacity(cap);
            out.extend_from_slice(&col[head..head + first]);
            out.extend_from_slice(&col[..len - first]);
            out.resize(cap, T::default());
            out
        }
        let (head, len) = (self.head, self.len);
        self.keys = rehome(&self.keys, head, len, capacity);
        self.ts = rehome(&self.ts, head, len, capacity);
        self.seqs = rehome(&self.seqs, head, len, capacity);
        self.links = rehome(&self.links, head, len, capacity);
        self.head = 0;
        let slots = slot_count(capacity);
        if slots != self.slots.len() {
            self.relink(slots);
        }
    }

    /// Rebuilds the chain over a fresh table of `slots` slots,
    /// numbering the live tuples from position zero.
    fn relink(&mut self, slots: usize) {
        assert!(self.len < u32::MAX as usize, "chain positions are u32");
        self.slots.clear();
        self.slots.resize(slots, 0);
        self.base = 0;
        for off in 0..self.len {
            let at = self.physical(off);
            let slot = self.slot_of(self.keys[at]);
            self.links[at] = std::mem::replace(&mut self.slots[slot], off as u32 + 1);
        }
    }

    /// `(offset, t, seq)` of every live tuple whose key is `key`, newest
    /// first; the offset counts from the oldest live tuple.
    #[inline]
    pub(crate) fn chain(&self, key: u64) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        let mut next = if self.slots.is_empty() { 0 } else { self.slots[self.slot_of(key)] };
        std::iter::from_fn(move || {
            // Positions fall along a chain: the first one below the
            // oldest live tuple ends it.
            while next > self.base {
                let off = (next - 1 - self.base) as usize;
                let at = self.physical(off);
                next = self.links[at];
                if self.keys[at] == key {
                    return Some((off, self.ts[at], self.seqs[at]));
                }
            }
            None
        })
    }

    /// The live tuples as at most two physically contiguous
    /// `(keys, ts, seqs)` segments, oldest first (the second is empty
    /// unless the ring wraps).
    pub(crate) fn segments(&self) -> [(&[u64], &[u64], &[u64]); 2] {
        let first = self.len.min(self.capacity() - self.head);
        let seg = |from: usize, n: usize| {
            (&self.keys[from..from + n], &self.ts[from..from + n], &self.seqs[from..from + n])
        };
        [seg(self.head, first), seg(0, self.len - first)]
    }

    /// The `n` tuples of `block` that start at logical position `off`
    /// (a multiple of the unit, so the range is physically contiguous).
    #[inline]
    pub(crate) fn run(&self, off: usize, n: usize, block: &BlockMeta) -> RunView<'_> {
        debug_assert!(off + n <= self.len);
        let at = self.physical(off);
        RunView {
            keys: &self.keys[at..at + n],
            ts: &self.ts[at..at + n],
            seqs: &self.seqs[at..at + n],
            min_key: block.min_key,
            max_key: block.max_key,
        }
    }

    /// `(t, seq)` of the live tuple at logical position `off`.
    #[inline]
    pub(crate) fn row(&self, off: usize) -> (u64, u64) {
        assert!(off < self.len, "row {off} of {}", self.len);
        let at = self.physical(off);
        (self.ts[at], self.seqs[at])
    }

    /// `(t, seq)` of the newest live tuple.
    #[inline]
    pub(crate) fn newest(&self) -> Option<(u64, u64)> {
        (self.len > 0).then(|| {
            let at = self.physical(self.len - 1);
            (self.ts[at], self.seqs[at])
        })
    }

    /// Timestamp of the oldest live tuple.
    #[inline]
    pub(crate) fn oldest_t(&self) -> Option<u64> {
        (self.len > 0).then(|| self.ts[self.head])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Side;

    const UNIT: usize = 4;

    fn t(key: u64, at: u64) -> Tuple {
        Tuple::new(Side::Left, at, key, at)
    }

    fn keys_of(c: &Columns) -> Vec<u64> {
        let [(a, ..), (b, ..)] = c.segments();
        a.iter().chain(b).copied().collect()
    }

    #[test]
    fn meta_tracks_len_bounds_and_newest() {
        let mut b = BlockMeta::EMPTY;
        assert!(b.is_empty());
        for (key, at) in [(7, 10), (3, 20), (9, 30)] {
            b.push(&t(key, at));
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.key_range(), (3, 9));
        assert_eq!(b.newest_t(), 30);
        assert!(std::mem::size_of::<BlockMeta>() <= 32, "one record per block must stay small");
    }

    #[test]
    fn ring_wraps_in_whole_blocks_and_keeps_order() {
        let mut c = Columns::default();
        for i in 0..8 {
            c.push(&t(i, i), UNIT);
        }
        assert_eq!(c.capacity(), 8);
        // Drop the oldest block, refill: the newest block now sits in
        // the slots the oldest one left, physically *before* the rest.
        assert!(!c.drop_front(UNIT, UNIT));
        for i in 8..12 {
            c.push(&t(i, i), UNIT);
        }
        assert_eq!(c.capacity(), 8, "refilling freed slots must not grow");
        assert_eq!(keys_of(&c), (4..12).collect::<Vec<_>>());
        let [(first, ..), (second, ..)] = c.segments();
        assert_eq!((first.len(), second.len()), (4, 4), "the ring wraps between two blocks");
        // Each block is one contiguous run, on either side of the wrap.
        let meta = BlockMeta::EMPTY;
        assert_eq!(c.run(0, 4, &meta).keys, &[4, 5, 6, 7]);
        assert_eq!(c.run(4, 4, &meta).keys, &[8, 9, 10, 11]);
        assert_eq!(c.run(4, 4, &meta).iter().last(), Some((11, 11, 11)));
        assert_eq!((c.oldest_t(), c.newest()), (Some(4), Some((11, 11))));
    }

    #[test]
    fn growth_rehomes_a_wrapped_ring_in_order() {
        let mut c = Columns::default();
        for i in 0..8 {
            c.push(&t(i, i), UNIT);
        }
        c.drop_front(UNIT, UNIT);
        for i in 8..13 {
            c.push(&t(i, i), UNIT); // the 13th push finds the ring full and wrapped
        }
        assert_eq!(c.capacity(), 12, "an eighth more, rounded up to whole blocks");
        assert_eq!(keys_of(&c), (4..13).collect::<Vec<_>>());
        assert_eq!(c.segments()[1].0.len(), 0, "re-homed from slot 0");
    }

    #[test]
    fn capacity_follows_the_content_down() {
        let mut c = Columns::default();
        for i in 0..400 {
            c.push(&t(i, i), UNIT);
        }
        let high = c.capacity();
        assert!((400..=456).contains(&high), "grown by eighths: {high}");
        let mut gave_back = 0;
        for _ in 0..95 {
            gave_back += usize::from(c.drop_front(UNIT, UNIT));
        }
        assert_eq!(c.len(), 20);
        assert!(c.capacity() <= 2 * (20 + UNIT), "capacity {} for 20 tuples", c.capacity());
        assert!((2..10).contains(&gave_back), "cut back in steps, not per block: {gave_back}");
        assert_eq!(keys_of(&c), (380..400).collect::<Vec<_>>());
        // The last tuples leave together (a partial head block), and
        // an empty ring holds no memory at all.
        for _ in 0..4 {
            c.drop_front(UNIT, UNIT);
        }
        assert!(c.drop_front(4, UNIT));
        assert_eq!((c.len(), c.capacity(), c.heap_bytes()), (0, 0, 0));
    }

    /// `(offset, t, seq)` of the live tuples with `key`, newest first,
    /// by a scan of the columns.
    fn scan(c: &Columns, key: u64) -> Vec<(usize, u64, u64)> {
        let [(k0, t0, s0), (k1, t1, s1)] = c.segments();
        let rows: Vec<_> = rows(k0, t0, s0).chain(rows(k1, t1, s1)).collect();
        (0..rows.len())
            .rev()
            .filter(|&i| rows[i].0 == key)
            .map(|i| (i, rows[i].1, rows[i].2))
            .collect()
    }

    fn assert_chains_exact(c: &Columns) {
        for key in 0..7 {
            assert_eq!(c.chain(key).collect::<Vec<_>>(), scan(c, key), "key {key}");
        }
    }

    #[test]
    fn chains_follow_growth_wrap_and_shrink() {
        let mut c = Columns::default();
        let mut slot_sizes = vec![];
        // Grow to 400 tuples, slide, then shrink to one block: the ring
        // wraps, and the slot table is rebuilt at every size it passes.
        for i in 0..400 {
            c.push(&t(i % 7, i), UNIT);
            assert_chains_exact(&c);
            slot_sizes.push(c.slot_len());
        }
        for i in (400..1_200).step_by(UNIT) {
            (i..i + UNIT as u64).for_each(|j| c.push(&t(j % 7, j), UNIT));
            c.drop_front(UNIT, UNIT);
            assert_chains_exact(&c);
        }
        while c.len() > UNIT {
            c.drop_front(UNIT, UNIT);
            assert_chains_exact(&c);
            slot_sizes.push(c.slot_len());
        }
        slot_sizes.dedup();
        assert!(slot_sizes.len() >= 8, "table sizes passed: {slot_sizes:?}");
        assert_eq!((slot_sizes[0], slot_sizes.last().copied()), (1, Some(1)));
        assert_eq!(c.chain(0).count(), 1, "key 0 is in the last block (keys 6, 0, 1, 2) once");
    }

    #[test]
    fn positions_renumber_before_they_overflow() {
        let mut c = Columns::default();
        for i in 0..40 {
            c.push(&t(i % 7, i), UNIT);
        }
        // As if four billion tuples had come and gone: shift every
        // position to just below the top of `u32`.
        let shift = u32::MAX - 100 - c.base;
        c.base += shift;
        for p in c.links.iter_mut().chain(c.slots.iter_mut()).filter(|p| **p != 0) {
            *p += shift;
        }
        assert_chains_exact(&c);
        for i in (40..800).step_by(UNIT) {
            (i..i + UNIT as u64).for_each(|j| c.push(&t(j % 7, j), UNIT));
            c.drop_front(UNIT, UNIT);
            assert_chains_exact(&c);
        }
        assert!(c.base < 800, "renumbered from zero: base {}", c.base);
    }

    #[test]
    fn bulk_reserve_sizes_the_columns_once() {
        let mut c = Columns::default();
        c.reserve_exact(10, UNIT);
        assert_eq!(c.capacity(), 12);
        for i in 0..12 {
            c.push(&t(i, i), UNIT);
        }
        assert_eq!(c.capacity(), 12);
        // 24 bytes of columns and a 4-byte link per slot, one chain slot.
        assert_eq!(c.heap_bytes(), 12 * 28 + 4);
    }
}
