//! Hash functions used for partitioning and fine tuning.
//!
//! Two independent hash roles (§III and §IV-D):
//!
//! * `H(k)` routes a key to one of the `npart` stream partitions;
//! * `h(k)` feeds the extendible-hash directory inside an overflowing
//!   partition-group (its **least-significant bits** select the
//!   mini-partition-group).
//!
//! Both derive from SplitMix64 finalizers with different stream
//! constants, so the directory bits are independent of the partition
//! choice — a correlated pair would make fine tuning useless (every
//! tuple of a partition would land in the same mini-group).

/// SplitMix64 finalizer: a fast, well-mixed 64→64 bijection.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `H(k)`: the partition a key belongs to, in `[0, npart)`.
#[inline]
pub fn partition_of(key: u64, npart: u32) -> u32 {
    debug_assert!(npart > 0);
    // Multiply-shift on the mixed key: unbiased enough for partitioning
    // and cheaper than a modulo.
    (((mix64(key) >> 32) * npart as u64) >> 32) as u32
}

/// `h(k)`: the hash whose low bits drive the extendible directory.
/// A second mixing round with a different stream constant decorrelates
/// it from [`partition_of`].
#[inline]
pub fn tuning_hash(key: u64) -> u64 {
    mix64(key ^ 0xA5A5_5A5A_DEAD_BEEF)
}

/// The hash behind each window side's hash chain (`block::Columns`):
/// its low bits pick a key's chain slot. A third stream constant:
/// inside one mini-group every key shares the `d'` low bits of
/// [`tuning_hash`], so reusing it would funnel the whole window into
/// one chain — the chain hash must be independent of both the
/// partition and the tuning bits.
#[inline]
pub fn index_hash(key: u64) -> u64 {
    mix64(key ^ 0x0F0F_F0F0_C0FF_EE00)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_injective_on_samples() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn partitions_are_in_range_and_balanced() {
        let npart = 60;
        let mut counts = vec![0u32; npart as usize];
        let n = 120_000u64;
        for k in 0..n {
            let p = partition_of(k, npart);
            assert!(p < npart);
            counts[p as usize] += 1;
        }
        let expect = n as f64 / npart as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.10, "partition {i} deviates {dev:.2} from uniform");
        }
    }

    #[test]
    fn tuning_hash_low_bits_independent_of_partition() {
        // Keys in one partition must still spread uniformly over the
        // directory's low bits.
        let npart = 60;
        let mut low_bit_counts = [0u32; 2];
        let mut in_partition = 0;
        for k in 0..200_000u64 {
            if partition_of(k, npart) == 17 {
                in_partition += 1;
                low_bit_counts[(tuning_hash(k) & 1) as usize] += 1;
            }
        }
        assert!(in_partition > 1000);
        let frac = low_bit_counts[0] as f64 / in_partition as f64;
        assert!((0.45..0.55).contains(&frac), "low bit split {frac:.3} not uniform");
    }

    #[test]
    fn index_hash_independent_of_tuning_bits() {
        // Keys funnelled into one mini-group (same 4 low tuning bits)
        // must still spread over the chain slots' low bits.
        let mut low_bit_counts = [0u32; 2];
        let mut in_minigroup = 0;
        for k in 0..200_000u64 {
            if tuning_hash(k) & 0xF == 0x7 {
                in_minigroup += 1;
                low_bit_counts[(index_hash(k) & 1) as usize] += 1;
            }
        }
        assert!(in_minigroup > 1000);
        let frac = low_bit_counts[0] as f64 / in_minigroup as f64;
        assert!((0.45..0.55).contains(&frac), "low bit split {frac:.3} not uniform");
    }

    #[test]
    fn single_partition_degenerate_case() {
        for k in [0u64, 1, u64::MAX] {
            assert_eq!(partition_of(k, 1), 0);
        }
    }
}
