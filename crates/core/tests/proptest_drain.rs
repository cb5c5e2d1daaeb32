//! Property tests for the slave drain and the chained probe:
//!
//! 1. **Chain-path identity** — single-tuple probes of large windows
//!    walk the window's hash chain (`ExactEngine`'s cost rule), hot
//!    keys fall back to the sweep; the emission sequence and charged
//!    work must match the scalar sweep byte for byte across asymmetric
//!    windows, expiry churn and a white-hot key.
//! 2. **Streamed-drain identity** — `drain_pending` hands results out
//!    partition by partition; its sink calls, concatenated, and its
//!    `WorkStats` must equal `process_pending`'s `out` byte for byte,
//!    with the residual filter and payload pruning running per
//!    partition.

use proptest::prelude::*;
use windjoin_core::{
    hash::partition_of, ExactEngine, OutPair, Params, ProbeEngine, ResidualSpec, ScalarEngine,
    Side, SlaveCore, TuningParams, Tuple, WorkStats,
};

const NPART: u32 = 8;

fn params(block_bytes: usize, window_us: u64, tuning: Option<TuningParams>) -> Params {
    let mut p = Params::default_paper();
    p.npart = NPART;
    p.block_bytes = block_bytes;
    p.sem.w_left_us = window_us;
    p.sem.w_right_us = window_us;
    p.expiry_lag_us = 0;
    p.tuning = tuning;
    p
}

/// A flat workload over a small key domain (forces matches).
fn workload(max_len: usize, key_domain: u64) -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec((0u64..50, 0..key_domain, any::<bool>()), 1..max_len).prop_map(
        |items| {
            let mut t = 0u64;
            let mut seqs = [0u64; 2];
            let mut out = Vec::with_capacity(items.len());
            for (gap, key, is_left) in items {
                t += gap;
                let side = if is_left { Side::Left } else { Side::Right };
                out.push(Tuple::new(side, t, key, seqs[side.index()]));
                seqs[side.index()] += 1;
            }
            out
        },
    )
}

/// Runs the workload through one slave, returning the raw (unsorted)
/// emission sequence and work tally.
fn run_slave<E: ProbeEngine>(
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

/// A payload that makes `PayloadEquals` keep some matches and drop
/// others.
fn payload_of(t: &Tuple) -> Vec<u8> {
    vec![(t.seq % 3) as u8]
}

/// Runs a payload-carrying workload under a payload residual through
/// one slave, either collecting with `process_pending` or streaming
/// with `drain_pending` (payloads handed over as borrowed slices).
/// Returns the emission sequence, the work tally and, when streamed,
/// the pairs of every sink call.
fn run_residual(
    p: &Params,
    tuples: &[Tuple],
    chunk: usize,
    streamed: bool,
) -> (Vec<OutPair>, WorkStats, Vec<Vec<OutPair>>) {
    let mut s: SlaveCore<ExactEngine> = SlaveCore::new(0, p.clone());
    s.set_residual(ResidualSpec::PayloadEquals.into());
    for pid in 0..p.npart {
        s.create_group(pid);
    }
    let mut out = Vec::new();
    let mut work = WorkStats::default();
    let mut calls = Vec::new();
    for batch in tuples.chunks(chunk.max(1)) {
        let payloads: Vec<Vec<u8>> = batch.iter().map(payload_of).collect();
        if streamed {
            s.receive_batch_with_payload_slices(batch, payloads.iter().map(Vec::as_slice));
            let first = calls.len();
            s.drain_pending(&mut work, |pairs| calls.push(pairs.to_vec()));
            // One call per partition with output, partitions ascending.
            let pids: Vec<u32> = calls[first..]
                .iter()
                .map(|pairs| {
                    let pid = partition_of(pairs[0].key, NPART);
                    assert!(pairs.iter().all(|q| partition_of(q.key, NPART) == pid));
                    pid
                })
                .collect();
            assert!(pids.windows(2).all(|w| w[0] < w[1]), "sink order {pids:?}");
        } else {
            s.receive_batch_with_payloads(batch, &payloads);
            s.process_pending(&mut out, &mut work);
        }
    }
    if streamed {
        out = calls.concat();
    }
    (out, work, calls)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streamed_drain_equals_collected_drain(
        tuples in workload(500, 24),
        window in prop_oneof![Just(300u64), Just(5_000)],
        chunk in 8usize..200,
        tuned in any::<bool>(),
    ) {
        // The short window expires tuples (and prunes their payloads)
        // mid-run; 24 keys over 8 partitions put matches in several
        // partitions of the same batch.
        let tuning = tuned.then_some(TuningParams { theta_blocks: 2, max_depth: 6 });
        let p = params(256, window, tuning);
        let (out_c, work_c, _) = run_residual(&p, &tuples, chunk, false);
        let (out_s, work_s, calls) = run_residual(&p, &tuples, chunk, true);
        prop_assert_eq!(out_c, out_s, "emission differs");
        prop_assert_eq!(work_c, work_s, "work differs");
        prop_assert!(calls.iter().all(|c| !c.is_empty()), "empty sink call");
    }

    #[test]
    fn indexed_single_probe_is_byte_identical_to_scan(
        tuples in workload(600, 6),
        w_left in prop_oneof![Just(200u64), Just(5_000), Just(1_000_000)],
        w_right in prop_oneof![Just(200u64), Just(5_000), Just(1_000_000)],
        tuned in any::<bool>(),
    ) {
        // chunk = 1 makes every probe a single-tuple probe: once a
        // window's sealed side is a few dozen tuples long, ExactEngine
        // answers from its hash chain (unless its probes match by the
        // dozen) while the scalar reference sweeps every run.
        // Asymmetric windows drive expiry (stale chain links, shrinking
        // slot tables, buddy merges) on one side long before the other.
        // Identity must hold byte for byte either way.
        let tuning = tuned.then_some(TuningParams { theta_blocks: 2, max_depth: 6 });
        let mut p = params(256, w_left, tuning);
        p.sem.w_right_us = w_right;
        let (out_ex, work_ex) = run_slave::<ExactEngine>(&p, &tuples, 1);
        let (out_sc, work_sc) = run_slave::<ScalarEngine>(&p, &tuples, 1);
        prop_assert_eq!(out_ex, out_sc, "emission sequences differ");
        prop_assert_eq!(work_ex, work_sc, "charged work differs");
    }
}

/// A single white-hot key puts every tuple of the window on one chain:
/// the first single-tuple probes walk it, the rest — once the window's
/// matches per probe have climbed — sweep, and both stay exact.
#[test]
fn hot_key_saturates_index_but_stays_exact() {
    let tuples: Vec<Tuple> = (0..400u64)
        .map(|i| {
            let side = if i % 3 == 0 { Side::Right } else { Side::Left };
            Tuple::new(side, i * 7, 42, i)
        })
        .collect();
    let p = params(256, 1_000_000, None);
    let (out_ex, work_ex) = run_slave::<ExactEngine>(&p, &tuples, 1);
    let (out_sc, work_sc) = run_slave::<ScalarEngine>(&p, &tuples, 1);
    assert_eq!(out_ex, out_sc);
    assert_eq!(work_ex, work_sc);
    assert!(work_ex.emitted > 0, "hot-key workload must actually join");
}

/// The streamed-drain property's preconditions, pinned: the workload
/// joins in several partitions per batch, the residual drops some
/// matches and keeps others, and the collected result holds both.
#[test]
fn streamed_drain_workload_exercises_filter_and_partitions() {
    let mut seqs = [0u64; 2];
    let tuples: Vec<Tuple> = (0..400u64)
        .map(|i| {
            let side = if i % 2 == 0 { Side::Left } else { Side::Right };
            let seq = seqs[side.index()];
            seqs[side.index()] += 1;
            Tuple::new(side, i * 5, (i / 2) % 23, seq)
        })
        .collect();
    let p = params(256, 300, Some(TuningParams { theta_blocks: 2, max_depth: 6 }));
    let (out_c, work_c, _) = run_residual(&p, &tuples, 100, false);
    let (out_s, work_s, calls) = run_residual(&p, &tuples, 100, true);
    assert_eq!(out_c, out_s);
    assert_eq!(work_c, work_s);
    assert!(!out_c.is_empty() && work_c.residual_dropped > 0, "filter must keep and drop");
    assert!(calls.len() > 4 * 2, "four batches must each ship several partitions");
}
