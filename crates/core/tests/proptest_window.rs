//! Property tests for the window/block layer and the tuning layer:
//! structural invariants under arbitrary append/seal/expire sequences,
//! hash chains that agree with a scan of the sealed tuples through ring
//! wraps, expiry, slot-table resizes, splits and merges, and
//! conservation of tuples across splits and merges.

use proptest::prelude::*;
use std::collections::HashMap;
use windjoin_core::probe::ExactEngine;
use windjoin_core::{
    Params, PartitionGroup, Side, TuningParams, Tuple, WindowPartition, WorkStats,
};

#[derive(Debug, Clone)]
enum WinOp {
    Append(u64), // time gap
    Seal,
    Expire(u64), // watermark advance
}

/// Asserts that `w`'s hash chain for every key in `keys` yields exactly
/// what a scan of its sealed runs finds for it, newest first.
fn assert_chains_exact(w: &WindowPartition, keys: impl IntoIterator<Item = u64>) {
    let mut sealed: Vec<(u64, u64, u64)> = Vec::new();
    w.for_each_sealed_run(|r| sealed.extend(r.iter()));
    let mut scan: HashMap<u64, Vec<(usize, u64, u64)>> = HashMap::new();
    for (off, &(key, t, seq)) in sealed.iter().enumerate().rev() {
        scan.entry(key).or_default().push((off, t, seq));
    }
    for k in keys {
        let chain: Vec<(usize, u64, u64)> = w.sealed_with_key(k).collect();
        assert_eq!(chain, scan.get(&k).cloned().unwrap_or_default(), "chain of key {k}");
    }
}

#[derive(Debug, Clone)]
enum ChainOp {
    Append(u64, u64), // time gap, key
    Seal,
    Expire(u64), // watermark advance
    Empty,       // expire everything
}

fn chain_ops() -> impl Strategy<Value = Vec<ChainOp>> {
    proptest::collection::vec(
        prop_oneof![
            6 => (0u64..30, 0u64..24).prop_map(|(gap, key)| ChainOp::Append(gap, key)),
            2 => Just(ChainOp::Seal),
            2 => (0u64..800).prop_map(ChainOp::Expire),
            1 => Just(ChainOp::Empty),
        ],
        1..600,
    )
}

fn win_ops() -> impl Strategy<Value = Vec<WinOp>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (0u64..100).prop_map(WinOp::Append),
            2 => Just(WinOp::Seal),
            1 => (0u64..5_000).prop_map(WinOp::Expire),
        ],
        1..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn window_partition_invariants(ops in win_ops(), block_tuples in 1usize..9) {
        let mut w = WindowPartition::new(Side::Left, block_tuples);
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut live: Vec<(u64, u64)> = Vec::new(); // model: (t, seq)
        let window_us = 1_000u64;
        for op in ops {
            match op {
                WinOp::Append(gap) => {
                    now += gap;
                    // The protocol requires flushing a full head before
                    // appending; mirror that contract.
                    if w.fresh_count() > 0 && w.fresh_count() == block_tuples {
                        w.seal();
                    }
                    let full = w.append(Tuple::new(Side::Left, now, 7, seq));
                    live.push((now, seq));
                    seq += 1;
                    if full {
                        w.seal();
                    }
                }
                WinOp::Seal => w.seal(),
                WinOp::Expire(adv) => {
                    now += adv;
                    let mut left: Vec<(u64, u64)> = Vec::new();
                    while w.expire_front(now, window_us, 0, |b| {
                        left.extend(b.iter().map(|(_, t, seq)| (t, seq)));
                    }) {}
                    for (t, seq) in left {
                        // Blocks leave oldest first, whole.
                        prop_assert_eq!(live.first(), Some(&(t, seq)), "expired out of order");
                        live.remove(0);
                        prop_assert!(
                            t + window_us < now,
                            "tuple expired too early: {} + {} >= {}",
                            t, window_us, now
                        );
                    }
                }
            }
            // Invariants after every operation:
            prop_assert_eq!(w.tuple_count(), live.len(), "tuple_count");
            prop_assert!(w.fresh_count() <= block_tuples, "fresh confined to head block");
            prop_assert_eq!(w.sealed_count() + w.fresh_count(), w.tuple_count());
            let mut in_blocks = 0usize;
            for b in w.blocks() {
                prop_assert!(b.len() <= block_tuples);
                prop_assert!(!b.is_empty());
                in_blocks += b.len();
            }
            prop_assert_eq!(in_blocks, w.tuple_count(), "block records cover every tuple");
            // The columns plus the fresh tail are the model, in order,
            // and the sealed runs are its sealed prefix, block by block.
            let stored: Vec<(u64, u64)> = w.iter().map(|t| (t.t, t.seq)).collect();
            prop_assert_eq!(&stored, &live, "stored tuples");
            let mut sealed: Vec<(u64, u64)> = Vec::new();
            w.for_each_sealed_run(|r| {
                assert!(r.len() <= block_tuples && !r.is_empty());
                sealed.extend(r.iter().map(|(_, t, seq)| (t, seq)));
            });
            prop_assert_eq!(&sealed[..], &live[..w.sealed_count()], "sealed runs");
        }
    }

    #[test]
    fn hash_chains_match_a_scan_of_the_sealed_tuples(
        ops in chain_ops(),
        block_tuples in 1usize..9,
    ) {
        // 24 keys over windows of up to a few hundred tuples: chains
        // hold several tuples, slots several keys; the window slides
        // (the ring wraps and resizes, the slot table with it) and
        // empties now and then.
        let mut w = WindowPartition::new(Side::Left, block_tuples);
        let (mut now, mut seq) = (0u64, 0u64);
        for op in ops {
            match op {
                ChainOp::Append(gap, key) => {
                    now += gap;
                    if w.fresh_count() == block_tuples {
                        w.seal();
                    }
                    if w.append(Tuple::new(Side::Left, now, key, seq)) {
                        w.seal();
                    }
                    seq += 1;
                }
                ChainOp::Seal => w.seal(),
                ChainOp::Expire(adv) => {
                    now += adv;
                    while w.expire_front(now, 1_000, 0, |_| ()) {}
                }
                ChainOp::Empty => {
                    w.seal();
                    while w.expire_front(u64::MAX, 0, 0, |_| ()) {}
                    prop_assert_eq!(w.tuple_count(), 0);
                    prop_assert_eq!(w.chain_slots(), 0, "an empty window holds no chain");
                }
            }
            assert_chains_exact(&w, 0..24);
        }
    }

    #[test]
    fn tuning_conserves_tuples_and_bounds_groups(
        keys in proptest::collection::vec(any::<u64>(), 1..500),
        theta in 1usize..4,
    ) {
        let mut p = Params::default_paper();
        p.block_bytes = 256; // 4 tuples per block
        p.sem.w_left_us = u64::MAX / 4;
        p.sem.w_right_us = u64::MAX / 4;
        p.tuning = Some(TuningParams { theta_blocks: theta, max_depth: 8 });
        let mut g: PartitionGroup<ExactEngine> = PartitionGroup::new(&p);
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        for (i, &k) in keys.iter().enumerate() {
            let side = if i % 2 == 0 { Side::Left } else { Side::Right };
            g.insert(Tuple::new(side, i as u64, k, i as u64), &mut out, &mut work);
        }
        g.flush_all(&mut out, &mut work);
        prop_assert_eq!(g.tuple_count(), keys.len(), "no tuple lost by splitting");
        // Every mini-group respects 2θ unless it is saturated at max
        // depth (identical low hash bits).
        for mg in g.iter_minigroups() {
            if g.depth() < 8 {
                prop_assert!(
                    mg.total_blocks() <= 2 * theta,
                    "group of {} blocks exceeds 2θ = {}",
                    mg.total_blocks(),
                    2 * theta
                );
            }
        }
        // Expire everything: groups must merge back and stay consistent.
        g.expire_and_tune(u64::MAX, &mut out, &mut work);
        prop_assert_eq!(g.tuple_count(), 0);
        prop_assert_eq!(g.minigroup_count(), 1);
    }

    #[test]
    fn state_roundtrip_is_identity(
        keys in proptest::collection::vec(any::<u64>(), 1..300),
        theta in 1usize..4,
    ) {
        let mut p = Params::default_paper();
        p.block_bytes = 256;
        p.sem.w_left_us = u64::MAX / 4;
        p.sem.w_right_us = u64::MAX / 4;
        p.tuning = Some(TuningParams { theta_blocks: theta, max_depth: 8 });
        let mut g: PartitionGroup<ExactEngine> = PartitionGroup::new(&p);
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        for (i, &k) in keys.iter().enumerate() {
            let side = if i % 3 == 0 { Side::Right } else { Side::Left };
            g.insert(Tuple::new(side, i as u64, k, i as u64), &mut out, &mut work);
        }
        g.flush_all(&mut out, &mut work);
        let (count, minis, depth) = (g.tuple_count(), g.minigroup_count(), g.depth());
        let state = g.extract_state(&mut work);
        let g2: PartitionGroup<ExactEngine> = PartitionGroup::from_state(&p, state, &mut work);
        prop_assert_eq!(g2.tuple_count(), count);
        prop_assert_eq!(g2.minigroup_count(), minis);
        prop_assert_eq!(g2.depth(), depth);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hash_chains_stay_exact_across_splits_and_merges(
        keys in proptest::collection::vec(0u64..5_000, 50..900),
        theta in 1usize..4,
        window_us in prop_oneof![Just(60u64), Just(400), Just(u64::MAX / 4)],
    ) {
        // Sliding windows over a tuned group: mini-groups split as they
        // grow and merge as expiry shrinks them, each time rebuilding
        // their windows (`MiniGroup::from_parts`) and so their chains.
        let mut p = Params::default_paper();
        p.block_bytes = 256; // 4 tuples per block
        p.sem.w_left_us = window_us;
        p.sem.w_right_us = window_us;
        p.expiry_lag_us = 0;
        p.tuning = Some(TuningParams { theta_blocks: theta, max_depth: 8 });
        let mut g: PartitionGroup<ExactEngine> = PartitionGroup::new(&p);
        let mut out = Vec::new();
        let mut work = WorkStats::default();
        for (i, &k) in keys.iter().enumerate() {
            let side = if i % 3 == 0 { Side::Right } else { Side::Left };
            g.insert(Tuple::new(side, i as u64, k, i as u64), &mut out, &mut work);
            if i % 7 != 0 {
                continue;
            }
            g.flush_all(&mut out, &mut work);
            let groups = g.minigroup_count();
            g.expire_and_tune(i as u64, &mut out, &mut work);
            // Nothing left due, skipped pass or not, unless a merge
            // rebuilt windows after it.
            let due = g.iter_minigroups().any(|mg| mg.next_expiry() <= i as u64);
            prop_assert!(!due || g.minigroup_count() < groups, "left due");
            for mg in g.iter_minigroups() {
                for side in Side::BOTH {
                    let w = mg.window_of(side);
                    assert_chains_exact(w, w.iter().map(|t| t.key));
                }
            }
        }
    }
}
