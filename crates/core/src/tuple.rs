//! Stream tuples and join outputs.
//!
//! The paper's tuples are 64 bytes on the wire (Table I). In memory the
//! join operates on the fields that determine behaviour — arrival
//! timestamp, join-attribute value, stream side and sequence number — and
//! every size computation (blocks, θ, buffers) uses the configured wire
//! size, so the 64-byte sizing behaviour of the paper is preserved while
//! window state stays compact. Payload bytes round-trip through
//! `windjoin-net`'s wire format.

/// Which of the two joined streams a tuple belongs to.
///
/// The paper joins two streams `S1 ⋈ S2`; `Left` is `S1`, `Right` is `S2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Side {
    /// Stream `S1`.
    Left = 0,
    /// Stream `S2`.
    Right = 1,
}

impl Side {
    /// The other stream.
    #[inline]
    pub fn opposite(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }

    /// 0 for `Left`, 1 for `Right` — for indexing per-side arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Side::index`].
    #[inline]
    pub fn from_index(i: usize) -> Side {
        match i {
            0 => Side::Left,
            1 => Side::Right,
            _ => panic!("side index must be 0 or 1, got {i}"),
        }
    }

    /// Both sides, `Left` first.
    pub const BOTH: [Side; 2] = [Side::Left, Side::Right];
}

/// One stream tuple as processed by the join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tuple {
    /// Arrival timestamp at the master, microseconds since run start.
    /// Tuples within a stream are globally ordered by it (§II).
    pub t: u64,
    /// Join-attribute value `A`.
    pub key: u64,
    /// Per-stream arrival sequence number; `(side, seq)` is unique.
    pub seq: u64,
    /// Source stream.
    pub side: Side,
}

impl Tuple {
    /// Convenience constructor.
    #[inline]
    pub fn new(side: Side, t: u64, key: u64, seq: u64) -> Self {
        Tuple { t, key, seq, side }
    }
}

/// One join result: a pair of tuples with equal keys, each inside the
/// other's window at the later tuple's arrival time (§II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OutPair {
    /// The shared join-attribute value.
    pub key: u64,
    /// `(t, seq)` of the `S1` constituent.
    pub left: (u64, u64),
    /// `(t, seq)` of the `S2` constituent.
    pub right: (u64, u64),
}

impl OutPair {
    /// Builds the canonical (left/right ordered) pair from a probing
    /// tuple and a stored opposite-side tuple.
    #[inline]
    pub fn from_probe(probe: &Tuple, stored_t: u64, stored_seq: u64) -> Self {
        match probe.side {
            Side::Left => OutPair {
                key: probe.key,
                left: (probe.t, probe.seq),
                right: (stored_t, stored_seq),
            },
            Side::Right => OutPair {
                key: probe.key,
                left: (stored_t, stored_seq),
                right: (probe.t, probe.seq),
            },
        }
    }

    /// Arrival time of the more recent constituent — the reference point
    /// for the paper's production-delay metric (§VI-A).
    #[inline]
    pub fn newest_t(&self) -> u64 {
        self.left.0.max(self.right.0)
    }

    /// Unique identity of the logical result, independent of which side
    /// probed: `(left seq, right seq)`.
    #[inline]
    pub fn id(&self) -> (u64, u64) {
        (self.left.1, self.right.1)
    }

    /// This result's term of a run's output checksum: every runtime
    /// XOR-folds it over all outputs, so the checksum is independent of
    /// emission order and equal across runtimes on the same output set.
    #[inline]
    pub fn digest(&self) -> u64 {
        crate::hash::mix64(self.left.1.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.right.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_opposite_and_index() {
        assert_eq!(Side::Left.opposite(), Side::Right);
        assert_eq!(Side::Right.opposite(), Side::Left);
        assert_eq!(Side::Left.index(), 0);
        assert_eq!(Side::Right.index(), 1);
        assert_eq!(Side::from_index(0), Side::Left);
        assert_eq!(Side::from_index(1), Side::Right);
    }

    #[test]
    #[should_panic(expected = "side index")]
    fn bad_side_index_panics() {
        Side::from_index(2);
    }

    #[test]
    fn outpair_canonicalizes_sides() {
        let probe_left = Tuple::new(Side::Left, 100, 7, 3);
        let a = OutPair::from_probe(&probe_left, 50, 9);
        assert_eq!(a.left, (100, 3));
        assert_eq!(a.right, (50, 9));

        let probe_right = Tuple::new(Side::Right, 50, 7, 9);
        // Note: same logical pair seen from the other probing direction.
        let b = OutPair::from_probe(&probe_right, 100, 3);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.newest_t(), 100);
    }

    #[test]
    fn tuple_is_compact() {
        // Window state holds millions of tuples; keep the in-memory form
        // within 32 bytes (wire form is the configured 64 bytes).
        assert!(std::mem::size_of::<Tuple>() <= 32);
    }
}
