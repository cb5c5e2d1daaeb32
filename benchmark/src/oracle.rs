//! Streaming join oracle: the number of result pairs of a tape and the
//! collector's XOR checksum over them, without ever listing the pairs.
//!
//! `windjoin::core::reference_join` materialises every pair (about
//! 1.7 GB on the `hot_keys` burst tape); this keeps only a per-key
//! index of the tuples seen so far, so memory is proportional to the
//! tape. Each unordered pair is evaluated exactly once, by the later
//! arrival, with the system's own join predicate.

use crate::sut::{self, Tuple};
use std::collections::HashMap;

/// What a correct run of a tape must report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Expected {
    /// Tuples on the tape, both streams.
    pub tuples: u64,
    /// Join result pairs.
    pub pairs: u64,
    /// XOR of the collector's per-pair fold over all pairs.
    pub checksum: u64,
}

/// Folds a tape (in arrival order) into its expected result.
pub fn expected(tape: impl Iterator<Item = Tuple>, sem: &sut::JoinSemantics) -> Expected {
    // Per side: key -> (t, seq) of every tuple already arrived.
    let mut index: [HashMap<u64, Vec<(u64, u64)>>; 2] = [HashMap::new(), HashMap::new()];
    let mut exp = Expected::default();
    for probe in tape {
        exp.tuples += 1;
        let side = probe.side.index();
        if let Some(stored) = index[1 - side].get(&probe.key) {
            for &(t, seq) in stored {
                if sem.joins(probe.t, probe.side, t) {
                    let (left, right) = if side == 0 { (probe.seq, seq) } else { (seq, probe.seq) };
                    exp.pairs += 1;
                    exp.checksum ^= sut::pair_fold(left, right);
                }
            }
        }
        index[side].entry(probe.key).or_default().push((probe.t, probe.seq));
    }
    exp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::{JoinSemantics, Side};

    /// Small deterministic tape: `n` tuples, keys drawn by `key_of`.
    fn tape(n: u64, key_of: impl Fn(u64) -> u64) -> Vec<Tuple> {
        let mut seqs = [0u64; 2];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let side = if x & 1 == 0 { Side::Left } else { Side::Right };
                let seq = seqs[side.index()];
                seqs[side.index()] += 1;
                // Several tuples share a timestamp, to cover ties.
                Tuple::new(side, i / 3 * 7, key_of(x >> 8), seq)
            })
            .collect()
    }

    fn check(tape: &[Tuple], sem: JoinSemantics) {
        let got = expected(tape.iter().copied(), &sem);
        let (pairs, checksum) = sut::reference_digest(tape, &sem);
        assert_eq!(got.tuples, tape.len() as u64);
        assert_eq!((got.pairs, got.checksum), (pairs, checksum));
        assert!(got.pairs > 0, "the tape must exercise the predicate");
    }

    #[test]
    fn matches_reference_join_on_uniform_keys() {
        check(&tape(3000, |x| x % 97), JoinSemantics { w_left_us: 900, w_right_us: 900 });
    }

    #[test]
    fn matches_reference_join_on_skewed_keys() {
        // Half of the tuples carry one of four hot keys.
        let skewed = |x: u64| if x & 1 == 0 { x % 4 } else { 4 + x % 500 };
        check(&tape(3000, skewed), JoinSemantics { w_left_us: 2000, w_right_us: 2000 });
    }

    #[test]
    fn matches_reference_join_on_asymmetric_windows() {
        check(&tape(3000, |x| x % 31), JoinSemantics { w_left_us: 40, w_right_us: 1500 });
    }
}
