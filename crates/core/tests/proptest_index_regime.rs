//! Property tests for `ExactEngine`'s cost rule: per probe the engine
//! either sweeps the opposite window's key column or walks its hash
//! chain, whichever costs less, so a stream whose flushes alternate
//! between single tuples and batches switches path mid-stream — over
//! windows whose column rings have meanwhile wrapped, lost blocks to
//! expiry, resized their chain tables, or been split and merged by
//! tuning. Whichever path answers a probe, the raw emission sequence
//! and every `WorkStats` field must equal the scalar reference's byte
//! for byte.

use proptest::prelude::*;
use std::cell::Cell;
use windjoin_core::{
    ExactEngine, JoinSemantics, OutPair, Params, PartitionGroup, ProbeEngine, RunView,
    ScalarEngine, Side, TuningParams, Tuple, WindowPartition, WorkStats,
};

/// The key one tuple in three carries: its windows match by the dozen
/// per probe, which the cost rule answers with sweeps.
const HOT_KEY: u64 = 42;
/// Cold keys: a domain wide enough that their probes match a few
/// tuples each, so single-tuple flushes walk chains.
const COLD_KEYS: u64 = 97;

/// θ = 2 blocks keeps every cold mini-group tiny (the sweep wins there)
/// while the hot key's saturates at the depth cap and grows past it —
/// and a saturated mini-group flushes on every insert, so its probes
/// are single whatever the schedule says. θ = 32 blocks (256 tuples per
/// mini-group) is roomy enough that the hot key's mini-group splits
/// off, stays unsaturated and follows the schedule.
const THETAS: [Option<usize>; 3] = [None, Some(2), Some(32)];

fn params(w_left: u64, w_right: u64, theta_blocks: Option<usize>) -> Params {
    let mut p = Params::default_paper();
    p.block_bytes = 256; // 4 tuples per block
    p.sem.w_left_us = w_left;
    p.sem.w_right_us = w_right;
    p.expiry_lag_us = 0;
    p.tuning = theta_blocks.map(|theta_blocks| TuningParams { theta_blocks, max_depth: 4 });
    p
}

/// `(gap, key pick, is_left)` items laid out as a time-ordered stream
/// with per-side seqs; a third of the tuples carry [`HOT_KEY`].
fn stream(items: &[(u64, u64, bool)]) -> Vec<Tuple> {
    let mut t = 0u64;
    let mut seqs = [0u64; 2];
    items
        .iter()
        .map(|&(gap, pick, is_left)| {
            t += gap;
            let side = if is_left { Side::Left } else { Side::Right };
            let key = if pick % 3 == 0 { HOT_KEY } else { pick % COLD_KEYS };
            seqs[side.index()] += 1;
            Tuple::new(side, t, key, seqs[side.index()] - 1)
        })
        .collect()
}

/// A flush schedule: `(single, tuples)` phases — `tuples` tuples
/// flushed one at a time, or in batches of up to 24.
fn schedule() -> impl Strategy<Value = Vec<(bool, usize)>> {
    proptest::collection::vec((any::<bool>(), 20usize..120), 4..12)
}

thread_local! {
    /// Probes this thread's [`Observed`] engines answered by walking
    /// chains and by sweeping.
    static PATHS: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
}

/// `ExactEngine`, counting which path each probe takes. The counts are
/// per thread: tuning creates and drops engines with every split and
/// merge.
#[derive(Debug, Default)]
struct Observed(ExactEngine);

impl ProbeEngine for Observed {
    fn probe(
        &mut self,
        fresh: &[Tuple],
        opposite: &WindowPartition,
        sem: &JoinSemantics,
        out: &mut Vec<OutPair>,
        work: &mut WorkStats,
    ) {
        if !fresh.is_empty() {
            let path = usize::from(!self.0.walks_chains(fresh.len(), opposite));
            PATHS.with(|p| {
                let mut counts = p.get();
                counts[path] += 1;
                p.set(counts);
            });
        }
        self.0.probe(fresh, opposite, sem, out, work);
    }

    fn join_expiring(
        &mut self,
        fresh: &[Tuple],
        block: &RunView<'_>,
        sem: &JoinSemantics,
        out: &mut Vec<OutPair>,
        work: &mut WorkStats,
    ) {
        self.0.join_expiring(fresh, block, sem, out, work);
    }
}

/// Feeds `tuples` through one partition-group, flushing, expiring and
/// tuning at the chunk boundaries the schedule gives (cycled until the
/// stream ends) — what `SlaveCore` does per partition and batch.
/// Returns the raw emission and the charged work.
fn run<E: ProbeEngine>(
    p: &Params,
    tuples: &[Tuple],
    phases: &[(bool, usize)],
) -> (Vec<OutPair>, WorkStats) {
    let mut g: PartitionGroup<E> = PartitionGroup::new(p);
    let (mut out, mut work) = (Vec::new(), WorkStats::default());
    let mut rest = tuples;
    for &(single, count) in phases.iter().cycle() {
        let (mut phase, tail) = rest.split_at(count.min(rest.len()));
        rest = tail;
        while !phase.is_empty() {
            let (chunk, more) = phase.split_at(if single { 1 } else { phase.len().min(24) });
            phase = more;
            for &t in chunk {
                g.insert(t, &mut out, &mut work);
            }
            g.flush_all(&mut out, &mut work);
            let (watermark, groups) = (chunk[chunk.len() - 1].t, g.minigroup_count());
            g.expire_and_tune(watermark, &mut out, &mut work);
            // Whether or not the group's expiry bound let it skip the
            // pass, nothing may be left due — unless a merge rebuilt
            // windows after it (the next call's pass expires those).
            if g.minigroup_count() == groups {
                assert!(g.iter_minigroups().all(|mg| mg.next_expiry() > watermark));
            }
        }
        if rest.is_empty() {
            break;
        }
    }
    (out, work)
}

/// Runs the observed engine and the scalar reference; returns the
/// exact run's work and its `[chain, sweep]` probe counts.
fn both(p: &Params, tuples: &[Tuple], phases: &[(bool, usize)]) -> (WorkStats, [u64; 2]) {
    PATHS.with(|c| c.set([0; 2]));
    let (out, work) = run::<Observed>(p, tuples, phases);
    let paths = PATHS.with(Cell::get);
    let (out_ref, work_ref) = run::<ScalarEngine>(p, tuples, phases);
    assert!(out == out_ref, "emission sequences differ");
    assert_eq!(work, work_ref, "charged work differs");
    (work, paths)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chain_and_sweep_probes_mixed_mid_stream_stay_byte_identical(
        items in proptest::collection::vec((0u64..40, any::<u64>(), any::<bool>()), 300..1_200),
        phases in schedule(),
        w_left in prop_oneof![Just(1_500u64), Just(6_000), Just(1_000_000)],
        w_right in prop_oneof![Just(1_500u64), Just(6_000), Just(1_000_000)],
        theta in prop_oneof![Just(THETAS[0]), Just(THETAS[1]), Just(THETAS[2])],
    ) {
        // The short windows expire blocks (stale chain links, ring
        // wrap, shrinking slot tables) on one side long before the
        // other; the long one lets the hot key pile up.
        let tuples = stream(&items);
        let p = params(w_left, w_right, theta);
        both(&p, &tuples, &phases);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_tuples_walk_chains_and_full_blocks_sweep_byte_identically(
        stored in proptest::collection::vec((0u64..8, 0u64..400), 60..1_500),
        fresh in proptest::collection::vec(0u64..400, 64..65),
        expire_blocks in 0usize..8,
        window in prop_oneof![Just(50u64), Just(2_000), Just(u64::MAX / 4)],
    ) {
        // Both sides of the cost rule on every case: against a window
        // of 60–1 500 sealed tuples (some of its oldest blocks expired,
        // leaving stale links), one probing tuple walks its chain and a
        // full 64-tuple head block sweeps — and each emits exactly what
        // the scalar reference emits.
        let mut t = 0;
        let stored: Vec<Tuple> = stored
            .iter()
            .enumerate()
            .map(|(seq, &(gap, key))| {
                t += gap;
                Tuple::new(Side::Right, t, key, seq as u64)
            })
            .collect();
        let mut w = WindowPartition::from_tuples(Side::Right, 16, stored);
        for _ in 0..expire_blocks.min(w.block_count().saturating_sub(4)) {
            prop_assert!(w.expire_front(u64::MAX, 0, 0, |_| ()));
        }
        let sem = JoinSemantics { w_left_us: window, w_right_us: window };
        let probes: Vec<Tuple> =
            fresh.iter().enumerate().map(|(i, &key)| Tuple::new(Side::Left, t + i as u64, key, i as u64)).collect();
        for batch in [&probes[..1], &probes[..]] {
            let mut exact = ExactEngine::default();
            prop_assert_eq!(exact.walks_chains(batch.len(), &w), batch.len() == 1);
            let (mut out, mut work) = (Vec::new(), WorkStats::default());
            exact.probe(batch, &w, &sem, &mut out, &mut work);
            let (mut out_ref, mut work_ref) = (Vec::new(), WorkStats::default());
            ScalarEngine.probe(batch, &w, &sem, &mut out_ref, &mut work_ref);
            prop_assert_eq!(out, out_ref, "emission sequences differ");
            prop_assert_eq!(work, work_ref, "charged work differs");
        }
    }
}

/// The property's precondition, pinned: on a schedule that alternates
/// long single-tuple phases with batch phases, probes take both paths
/// many times over — flat and tuned — and the run still matches the
/// scalar reference.
#[test]
fn alternating_flush_sizes_take_both_probe_paths() {
    let items: Vec<(u64, u64, bool)> = (0..2_400u64)
        .map(|i| (3, i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7, i % 2 == 0))
        .collect();
    let tuples = stream(&items);
    let phases = [(true, 300), (false, 300)];
    for theta in [None, Some(32)] {
        // Asymmetric: the left window slides over ≈ 330 tuples, 110 of
        // them hot; the right one over twice that (under tuning, short
        // enough that the hot mini-group stays within 2θ).
        let tuned = theta.is_some();
        let p = params(2_000, if tuned { 4_000 } else { 1_000_000 }, theta);
        let (work, [chains, sweeps]) = both(&p, &tuples, &phases);
        assert!(work.emitted > 10_000, "the hot key must join: {}", work.emitted);
        assert!(chains > 100 && sweeps > 100, "tuned={tuned}: {chains} / {sweeps}");
    }
}
