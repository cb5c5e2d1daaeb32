//! Property tests for `ExactEngine`'s index policy: a window's key
//! index exists only while single-tuple probes are that window's
//! regime, so a stream whose flushes alternate between single tuples
//! and batches has its indexes built, dropped and rebuilt mid-stream —
//! from sealed runs that have meanwhile wrapped the column ring, lost
//! blocks to expiry, or been split and merged by tuning. Whichever path
//! answers a probe, the raw emission sequence and every `WorkStats`
//! field must equal the scalar reference's byte for byte.

use proptest::prelude::*;
use windjoin_core::probe::{ExactEngine, ScalarEngine};
use windjoin_core::{
    OutPair, Params, PartitionGroup, ProbeEngine, Side, TuningParams, Tuple, WorkStats,
};

/// The key one tuple in three carries: enough same-key entries to
/// overflow an index bucket whose hashes can never be divided.
const HOT_KEY: u64 = 42;

/// θ = 2 blocks keeps every cold key's mini-group below the index's
/// size floor while the hot key's saturates at the depth cap and grows
/// past it — and a saturated mini-group flushes on every insert, so its
/// probes are single whatever the schedule says. θ = 32 blocks (256
/// tuples per mini-group) is roomy enough that the hot key's mini-group
/// splits off, stays unsaturated and follows the schedule's regime.
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
            let key = if pick % 3 == 0 { HOT_KEY } else { pick % 7 };
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

/// What one run observed: raw emission, charged work, and after every
/// flush what `indexed` said about the group.
struct Run {
    out: Vec<OutPair>,
    work: WorkStats,
    indexed_after_flush: Vec<bool>,
}

/// Feeds `tuples` through one partition-group, flushing, expiring and
/// tuning at the chunk boundaries the schedule gives (cycled until the
/// stream ends) — what `SlaveCore` does per partition and batch.
fn run<E: ProbeEngine>(
    p: &Params,
    tuples: &[Tuple],
    phases: &[(bool, usize)],
    indexed: impl Fn(&PartitionGroup<E>) -> bool,
) -> Run {
    let mut g: PartitionGroup<E> = PartitionGroup::new(p);
    let mut r =
        Run { out: Vec::new(), work: WorkStats::default(), indexed_after_flush: Vec::new() };
    let mut rest = tuples;
    for &(single, count) in phases.iter().cycle() {
        let (mut phase, tail) = rest.split_at(count.min(rest.len()));
        rest = tail;
        while !phase.is_empty() {
            let (chunk, more) = phase.split_at(if single { 1 } else { phase.len().min(24) });
            phase = more;
            for &t in chunk {
                g.insert(t, &mut r.out, &mut r.work);
            }
            g.flush_all(&mut r.out, &mut r.work);
            g.expire_and_tune(chunk[chunk.len() - 1].t, &mut r.out, &mut r.work);
            r.indexed_after_flush.push(indexed(&g));
        }
        if rest.is_empty() {
            break;
        }
    }
    r
}

/// Whether the mini-group holding [`HOT_KEY`] has an index on either
/// side. (Under tuning a batch splinters over the mini-groups, so the
/// cold ones see single-tuple flushes whatever the schedule says; the
/// hot one takes a third of every batch.)
fn hot_window_indexed(g: &PartitionGroup<ExactEngine>) -> bool {
    g.iter_minigroups()
        .filter(|mg| Side::BOTH.iter().any(|&s| mg.window_of(s).iter().any(|t| t.key == HOT_KEY)))
        .any(|mg| Side::BOTH.iter().any(|&side| mg.engine().index_resident(side)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_built_dropped_and_rebuilt_mid_stream_stays_byte_identical(
        items in proptest::collection::vec((0u64..40, any::<u64>(), any::<bool>()), 300..1_200),
        phases in schedule(),
        w_left in prop_oneof![Just(1_500u64), Just(6_000), Just(1_000_000)],
        w_right in prop_oneof![Just(1_500u64), Just(6_000), Just(1_000_000)],
        theta in prop_oneof![Just(THETAS[0]), Just(THETAS[1]), Just(THETAS[2])],
    ) {
        // The short windows expire blocks (index removals, ring wrap)
        // on one side long before the other; the long one lets the hot
        // key pile up until its bucket saturates.
        let tuples = stream(&items);
        let p = params(w_left, w_right, theta);
        let exact = run::<ExactEngine>(&p, &tuples, &phases, hot_window_indexed);
        let scalar = run::<ScalarEngine>(&p, &tuples, &phases, |_| false);
        prop_assert_eq!(exact.out, scalar.out, "emission sequences differ");
        prop_assert_eq!(exact.work, scalar.work, "charged work differs");
    }
}

/// The property's precondition, pinned: on a schedule that alternates
/// long single-tuple phases with batch phases, indexes really are
/// built, dropped and built again — flat and tuned — and the run still
/// matches the scalar reference.
#[test]
fn alternating_regimes_build_drop_and_rebuild_the_index() {
    let items: Vec<(u64, u64, bool)> =
        (0..2_400u64).map(|i| (3, i.wrapping_mul(0x9E37_79B9), i % 2 == 0)).collect();
    let tuples = stream(&items);
    let phases = [(true, 300), (false, 300)];
    for theta in [None, Some(32)] {
        // Asymmetric: the left window slides over ≈ 330 tuples, 110 of
        // them hot; the right one over twice that (under tuning, short
        // enough that the hot mini-group stays within 2θ).
        let tuned = theta.is_some();
        let p = params(2_000, if tuned { 4_000 } else { 1_000_000 }, theta);
        let exact = run::<ExactEngine>(&p, &tuples, &phases, hot_window_indexed);
        let scalar = run::<ScalarEngine>(&p, &tuples, &phases, |_| false);
        assert_eq!(exact.out, scalar.out, "tuned={tuned}");
        assert_eq!(exact.work, scalar.work, "tuned={tuned}");
        assert!(exact.work.emitted > 10_000, "the hot key must join: {}", exact.work.emitted);
        // Resident ↔ absent transitions over the whole run.
        let flips = exact.indexed_after_flush.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(flips >= 3, "tuned={tuned}: built, dropped and rebuilt — saw {flips} transitions");
        assert!(!exact.indexed_after_flush[0], "no index before a run of single probes");
    }
}
