//! Property tests for the join machinery, on the production kernel
//! (`ExactEngine`):
//!
//! 1. **Reference equivalence** — `ExactEngine` emits the identical
//!    sequence of outputs *and identical work tallies* as the
//!    tuple-at-a-time `ScalarEngine` on arbitrary workloads. Charged
//!    work is what the simulator's cost model prices, so this is what
//!    lets every runtime run one kernel.
//! 2. **Oracle conformance** — a single slave owning all partitions
//!    produces exactly the reference join: no duplicates, no losses,
//!    regardless of tuning, block size, window, or arrival pattern.
//! 3. **Tuning invariance** — enabling/disabling fine tuning never
//!    changes the output set.

use proptest::prelude::*;
use windjoin_core::{
    reference_join, ExactEngine, OutPair, Params, ProbeEngine, ScalarEngine, Side, SlaveCore,
    TuningParams, Tuple, WorkStats,
};

/// A compact generated workload: arrival gaps, keys from a small domain
/// (to force matches), sides.
fn workload(max_len: usize, key_domain: u64) -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec((0u64..50, 0..key_domain, any::<bool>()), 1..max_len)
        .prop_map(move |items| tuples_over(&items, key_domain))
}

/// Like [`workload`], but keys are drawn over all of `u64` and folded
/// into `[0, key_domain)` afterwards, so one generated case can be run
/// at a key domain chosen by another strategy.
fn raw_workload(max_len: usize) -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
    proptest::collection::vec((0u64..50, any::<u64>(), any::<bool>()), 1..max_len)
}

/// Lays `(gap, key, is_left)` items out as a time-ordered tuple
/// sequence with per-side seqs, keys folded into `[0, key_domain)`.
fn tuples_over(items: &[(u64, u64, bool)], key_domain: u64) -> Vec<Tuple> {
    let mut t = 0u64;
    let mut seqs = [0u64; 2];
    items
        .iter()
        .map(|&(gap, raw_key, is_left)| {
            t += gap;
            let side = if is_left { Side::Left } else { Side::Right };
            seqs[side.index()] += 1;
            Tuple::new(side, t, raw_key % key_domain, seqs[side.index()] - 1)
        })
        .collect()
}

fn params(block_bytes: usize, window_us: u64, tuning: Option<TuningParams>) -> Params {
    let mut p = Params::default_paper();
    p.npart = 4;
    p.block_bytes = block_bytes;
    p.sem.w_left_us = window_us;
    p.sem.w_right_us = window_us;
    p.expiry_lag_us = 0;
    p.tuning = tuning;
    p
}

/// Runs a whole workload through one slave in `chunk`-sized batches,
/// returning the raw emission sequence (unsorted).
fn run_slave_raw<E: ProbeEngine>(
    p: &Params,
    tuples: &[Tuple],
    chunk: usize,
) -> (Vec<OutPair>, WorkStats) {
    let mut s: SlaveCore<E> = SlaveCore::new(0, p.clone());
    for pid in 0..p.npart {
        s.create_group(pid);
    }
    let mut out = Vec::new();
    let mut work = WorkStats::default();
    for batch in tuples.chunks(chunk.max(1)) {
        s.receive_batch(batch.to_vec());
        s.process_pending(&mut out, &mut work);
    }
    (out, work)
}

/// [`run_slave_raw`] with the output sorted by pair identity.
fn run_slave<E: ProbeEngine>(
    p: &Params,
    tuples: &[Tuple],
    chunk: usize,
) -> (Vec<OutPair>, WorkStats) {
    let (mut out, work) = run_slave_raw::<E>(p, tuples, chunk);
    out.sort_by_key(|o| o.id());
    (out, work)
}

fn sorted_ids(pairs: &[OutPair]) -> Vec<(u64, u64)> {
    let mut v: Vec<_> = pairs.iter().map(|p| p.id()).collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn columnar_kernel_matches_scalar_reference_byte_for_byte(
        tuples in workload(300, 8),
        block_bytes in prop_oneof![Just(128usize), Just(256), Just(512)],
        w_left in prop_oneof![Just(50u64), Just(500), Just(5_000)],
        w_right in prop_oneof![Just(50u64), Just(500), Just(5_000)],
        chunk in 1usize..64,
        tuned in any::<bool>(),
    ) {
        // The columnar `ExactEngine` must emit the *identical sequence*
        // of `(OutPair, WorkStats)` — not just the same set — as the
        // retained scalar reference kernel, across asymmetric window
        // semantics, block geometries and batch boundaries.
        let tuning = tuned.then_some(TuningParams { theta_blocks: 2, max_depth: 6 });
        let mut p = params(block_bytes, w_left, tuning);
        p.sem.w_right_us = w_right;
        let (out_col, work_col) = run_slave_raw::<ExactEngine>(&p, &tuples, chunk);
        let (out_ref, work_ref) = run_slave_raw::<ScalarEngine>(&p, &tuples, chunk);
        prop_assert_eq!(out_col, out_ref, "emission sequences differ");
        prop_assert_eq!(work_col, work_ref, "charged work differs");
    }

    #[test]
    fn full_block_batches_match_scalar_reference_byte_for_byte(
        items in raw_workload(2_500),
        key_domain in prop_oneof![Just(2u64), Just(48), Just(3_000), Just(1u64 << 40)],
        window in prop_oneof![Just(2_000u64), Just(20_000), Just(1_000_000)],
        chunk in 300usize..2_500,
        tuned in any::<bool>(),
    ) {
        // 4 KiB blocks hold 64 tuples, and a drain of hundreds of tuples
        // fills them: the probing batches are whole blocks. A key domain
        // of 2 puts ~32 duplicates of each key into one batch (long
        // member chains); 2^40 makes every chunk of the sweep miss. The
        // head block's sealed prefix is rarely a multiple of 8, so the
        // 1-7 key remainder chunk is swept too.
        let tuples = tuples_over(&items, key_domain);
        let tuning = tuned.then_some(TuningParams { theta_blocks: 2, max_depth: 6 });
        let p = params(4096, window, tuning);
        let (out_col, work_col) = run_slave_raw::<ExactEngine>(&p, &tuples, chunk);
        let (out_ref, work_ref) = run_slave_raw::<ScalarEngine>(&p, &tuples, chunk);
        prop_assert_eq!(out_col, out_ref, "emission sequences differ");
        prop_assert_eq!(work_col, work_ref, "charged work differs");
    }

    #[test]
    fn single_slave_matches_reference_oracle(
        tuples in workload(300, 8),
        block_bytes in prop_oneof![Just(128usize), Just(256)],
        window in prop_oneof![Just(50u64), Just(500), Just(5_000)],
        chunk in 1usize..64,
        tuned in any::<bool>(),
    ) {
        let tuning = tuned.then_some(TuningParams { theta_blocks: 2, max_depth: 6 });
        let p = params(block_bytes, window, tuning);
        let (out, _) = run_slave::<ExactEngine>(&p, &tuples, chunk);
        let mut oracle = reference_join(&tuples, &p.sem);
        oracle.sort_by_key(|o| o.id());
        prop_assert_eq!(sorted_ids(&out), sorted_ids(&oracle), "distributed != oracle");
        // And the full pairs (timestamps included) agree.
        prop_assert_eq!(out, oracle);
    }

    #[test]
    fn outputs_are_duplicate_free(
        tuples in workload(400, 4), // tiny key domain: heavy collisions
        chunk in 1usize..32,
    ) {
        let p = params(256, 10_000, Some(TuningParams { theta_blocks: 1, max_depth: 4 }));
        let (out, _) = run_slave::<ExactEngine>(&p, &tuples, chunk);
        let ids = sorted_ids(&out);
        let mut dedup = ids.clone();
        dedup.dedup();
        prop_assert_eq!(ids.len(), dedup.len(), "duplicate pairs emitted");
    }

    #[test]
    fn batch_boundaries_never_change_results(
        tuples in workload(200, 6),
        chunk_a in 1usize..16,
        chunk_b in 16usize..128,
    ) {
        let p = params(256, 1_000, Some(TuningParams { theta_blocks: 2, max_depth: 6 }));
        let (a, _) = run_slave::<ExactEngine>(&p, &tuples, chunk_a);
        let (b, _) = run_slave::<ExactEngine>(&p, &tuples, chunk_b);
        prop_assert_eq!(a, b, "results depend on batching");
    }

    #[test]
    fn work_counts_scale_with_tuning(
        tuples in workload(400, 16),
    ) {
        // With aggressive tuning the scan-charged comparisons can only
        // shrink or stay equal versus the untuned single group.
        let p_tuned = params(128, 100_000, Some(TuningParams { theta_blocks: 1, max_depth: 8 }));
        let p_flat = params(128, 100_000, None);
        let (_, w_tuned) = run_slave::<ExactEngine>(&p_tuned, &tuples, 32);
        let (_, w_flat) = run_slave::<ExactEngine>(&p_flat, &tuples, 32);
        prop_assert!(
            w_tuned.comparisons <= w_flat.comparisons,
            "tuning increased comparisons: {} > {}",
            w_tuned.comparisons,
            w_flat.comparisons
        );
    }
}
