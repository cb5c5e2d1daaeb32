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
//! separately allocated blocks, a stored tuple costs 24 bytes instead
//! of a 32-byte row plus two mirrored columns, and the hot question
//! "may the oldest block expire yet?" is answered from the record
//! without touching tuple data.
//!
//! The ring's capacity and head are always multiples of the block
//! size: blocks leave whole and only the newest block is ever partial,
//! so a block never straddles the ring's physical end and a
//! [`RunView`] of it is three plain slices. The *window* does wrap —
//! [`crate::window`] walks it block by block.

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
/// columns. Capacity and head stay multiples of the `unit` (the block
/// size) the owning window passes in, which is what keeps every block
/// physically contiguous (see the module docs).
///
/// Capacity follows the content: it grows by a quarter when full and
/// is cut back to a quarter of headroom once less than half is in use,
/// so a window that shrinks — or empties — hands its memory back
/// instead of keeping its high-water mark.
#[derive(Debug, Clone, Default)]
pub(crate) struct Columns {
    /// Each column is `capacity` long; slots outside the live ring
    /// range hold stale values.
    keys: Vec<u64>,
    ts: Vec<u64>,
    seqs: Vec<u64>,
    /// Physical index of the oldest live tuple.
    head: usize,
    /// Live tuples.
    len: usize,
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

    /// Heap bytes held by the three columns.
    #[inline]
    pub(crate) fn heap_bytes(&self) -> usize {
        3 * std::mem::size_of::<u64>() * self.capacity()
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

    /// Makes room for exactly `n` tuples in an empty ring (bulk
    /// installs size their columns once).
    pub(crate) fn reserve_exact(&mut self, n: usize, unit: usize) {
        debug_assert_eq!(self.len, 0, "bulk reserve is for empty columns");
        self.resize(round_up(n, unit));
    }

    /// Appends one tuple at the newest end.
    #[inline]
    pub(crate) fn push(&mut self, t: &Tuple, unit: usize) {
        if self.len == self.capacity() {
            self.resize(round_up(self.len + (self.len / 4).max(1), unit));
        }
        let at = self.physical(self.len);
        self.keys[at] = t.key;
        self.ts[at] = t.t;
        self.seqs[at] = t.seq;
        self.len += 1;
    }

    /// Drops the `n` oldest tuples: a whole block, or everything that
    /// is left. Returns `true` when capacity was given back.
    pub(crate) fn drop_front(&mut self, n: usize, unit: usize) -> bool {
        debug_assert!(n == unit || n == self.len, "blocks leave whole");
        self.len -= n;
        if self.len == 0 {
            *self = Columns::default();
            return true;
        }
        self.head = self.physical(n);
        let shrink = self.capacity() > 2 * (self.len + unit);
        if shrink {
            self.resize(round_up(self.len + self.len / 4, unit));
        }
        shrink
    }

    /// Re-homes the live tuples, oldest first from slot 0, in columns
    /// of `capacity` slots (a multiple of the unit, at least `len`).
    fn resize(&mut self, capacity: usize) {
        debug_assert!(capacity >= self.len);
        let [(k0, t0, s0), (k1, t1, s1)] = self.segments();
        let rehome = |a: &[u64], b: &[u64]| {
            let mut col = Vec::with_capacity(capacity);
            col.extend_from_slice(a);
            col.extend_from_slice(b);
            col.resize(capacity, 0);
            col
        };
        let (keys, ts, seqs) = (rehome(k0, k1), rehome(t0, t1), rehome(s0, s1));
        (self.keys, self.ts, self.seqs, self.head) = (keys, ts, seqs, 0);
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
        assert_eq!(c.capacity(), 12, "a quarter more, rounded up to whole blocks");
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
        assert!((400..=504).contains(&high), "grown by quarters: {high}");
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

    #[test]
    fn bulk_reserve_sizes_the_columns_once() {
        let mut c = Columns::default();
        c.reserve_exact(10, UNIT);
        assert_eq!(c.capacity(), 12);
        for i in 0..12 {
            c.push(&t(i, i), UNIT);
        }
        assert_eq!(c.capacity(), 12);
        assert_eq!(c.heap_bytes(), 12 * 24);
    }
}
