//! The arena [`PayloadStore`] against a `BTreeMap` model under random
//! schedules — in-order inserts, re-inserts under a newer timestamp,
//! out-of-order recovery installs, reads, takes, prunes — plus the
//! memory gauges the arena exists for: overhead per payload, capacity
//! that follows the content down, nothing held when empty.

use proptest::prelude::*;
use std::collections::BTreeMap;
use windjoin_core::payload::CHUNK_BYTES;
use windjoin_core::{PayloadEntry, PayloadStore, Side, Tuple};

#[derive(Debug, Clone)]
enum Op {
    /// The next tuple of a side arrives `gap` µs later with a payload of
    /// `len` bytes.
    Arrive {
        side: Side,
        gap: u64,
        len: usize,
    },
    /// A stored identity is inserted again, stamped now.
    Restamp {
        pick: usize,
        len: usize,
    },
    /// A recovery install: any `seq` at or below the side's newest (a
    /// stored, a taken or a never-seen one), any timestamp up to now.
    Install {
        side: Side,
        seq_back: u64,
        t_back: u64,
        len: usize,
    },
    Get {
        side: Side,
        seq_back: u64,
    },
    Remove {
        pick: usize,
    },
    Discard {
        pick: usize,
    },
    ExtractFor {
        picks: Vec<usize>,
    },
    Prune {
        back: u64,
    },
    IntoEntries,
}

fn side() -> impl Strategy<Value = Side> {
    any::<bool>().prop_map(|left| if left { Side::Left } else { Side::Right })
}

/// Mostly short payloads, empty ones, and a few that fill most of a
/// chunk or do not fit one.
fn len() -> impl Strategy<Value = usize> {
    prop_oneof![
        8 => 1usize..48,
        2 => Just(0usize),
        2 => 20_000usize..40_000,
        1 => CHUNK_BYTES - 2..CHUNK_BYTES + 300,
    ]
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let pick = || 0usize..1_000;
    proptest::collection::vec(
        prop_oneof![
            10 => (side(), 0u64..40, len()).prop_map(|(side, gap, len)| Op::Arrive { side, gap, len }),
            1 => (pick(), len()).prop_map(|(pick, len)| Op::Restamp { pick, len }),
            2 => (side(), 0u64..12, 0u64..400, len())
                .prop_map(|(side, seq_back, t_back, len)| Op::Install { side, seq_back, t_back, len }),
            2 => (side(), 0u64..12).prop_map(|(side, seq_back)| Op::Get { side, seq_back }),
            3 => pick().prop_map(|pick| Op::Remove { pick }),
            3 => pick().prop_map(|pick| Op::Discard { pick }),
            1 => proptest::collection::vec(pick(), 0..6).prop_map(|picks| Op::ExtractFor { picks }),
            3 => (0u64..300).prop_map(|back| Op::Prune { back }),
            1 => Just(Op::IntoEntries),
        ],
        1..160,
    )
}

/// Payload bytes that depend on everything an insert names, so a mixed-up
/// slot shows.
fn payload(side: Side, seq: u64, t: u64, len: usize) -> Vec<u8> {
    let x = (seq.wrapping_mul(31) ^ t.wrapping_mul(131) ^ side.index() as u64) as usize;
    (0..len).map(|i| (x + i * 7) as u8).collect()
}

type Model = BTreeMap<(Side, u64), (u64, Vec<u8>)>;

/// The `pick`-th stored identity, if anything is stored.
fn picked(model: &Model, pick: usize) -> Option<(Side, u64)> {
    model.keys().nth(pick % model.len().max(1)).copied()
}

fn model_entries(model: &Model) -> Vec<PayloadEntry> {
    model
        .iter()
        .map(|(&(side, seq), (t, bytes))| PayloadEntry { side, seq, t: *t, bytes: bytes.clone() })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn store_equals_the_model_after_every_step(ops in ops()) {
        let mut store = PayloadStore::new();
        let mut model = Model::new();
        let mut now = 0u64;
        let mut next_seq = [0u64; 2];
        for op in ops {
            match op {
                Op::Arrive { side, gap, len } => {
                    now += gap;
                    let seq = next_seq[side.index()];
                    next_seq[side.index()] += 1;
                    let bytes = payload(side, seq, now, len);
                    store.insert(side, seq, now, &bytes);
                    model.insert((side, seq), (now, bytes));
                }
                Op::Restamp { pick, len } => {
                    if let Some((side, seq)) = picked(&model, pick) {
                        let bytes = payload(side, seq, now, len);
                        store.insert(side, seq, now, bytes.clone());
                        model.insert((side, seq), (now, bytes));
                    }
                }
                Op::Install { side, seq_back, t_back, len } => {
                    let seq = next_seq[side.index()].saturating_sub(seq_back);
                    next_seq[side.index()] = next_seq[side.index()].max(seq + 1);
                    let t = now.saturating_sub(t_back);
                    let bytes = payload(side, seq, t, len);
                    store.insert_entry(PayloadEntry { side, seq, t, bytes: bytes.clone() });
                    model.insert((side, seq), (t, bytes));
                }
                Op::Get { side, seq_back } => {
                    let seq = next_seq[side.index()].saturating_sub(seq_back);
                    let want = model.get(&(side, seq)).map_or(&[][..], |(_, b)| b);
                    prop_assert_eq!(store.get(side, seq), want);
                }
                Op::Remove { pick } => {
                    if let Some((side, seq)) = picked(&model, pick) {
                        let (t, bytes) = model.remove(&(side, seq)).expect("picked");
                        let got = store.remove(side, seq);
                        prop_assert_eq!(got, Some((t, bytes.into_boxed_slice())));
                        prop_assert_eq!(store.remove(side, seq), None, "removed twice");
                    }
                }
                Op::Discard { pick } => {
                    if let Some((side, seq)) = picked(&model, pick) {
                        model.remove(&(side, seq));
                        prop_assert!(store.discard(side, seq));
                        prop_assert!(!store.discard(side, seq), "discarded twice");
                    }
                }
                Op::ExtractFor { picks } => {
                    // Stored identities (repeats included) and one that
                    // never had a payload.
                    let mut tuples: Vec<Tuple> = picks
                        .iter()
                        .filter_map(|&p| picked(&model, p))
                        .map(|(side, seq)| Tuple::new(side, 0, 0, seq))
                        .collect();
                    tuples.push(Tuple::new(Side::Left, 0, 0, u64::MAX));
                    let mut want = Vec::new();
                    for tup in &tuples {
                        if let Some((t, bytes)) = model.remove(&(tup.side, tup.seq)) {
                            want.push(PayloadEntry { side: tup.side, seq: tup.seq, t, bytes });
                        }
                    }
                    prop_assert_eq!(store.extract_for(&tuples), want);
                }
                Op::Prune { back } => {
                    let cutoff = now.saturating_sub(back);
                    store.prune_before(cutoff);
                    // Cutoff 0 is the store's "nothing can be expired
                    // yet" fast path, and nothing is stamped below 0.
                    model.retain(|_, (t, _)| *t >= cutoff);
                }
                Op::IntoEntries => {
                    prop_assert_eq!(store.clone().into_entries(), model_entries(&model));
                }
            }
            prop_assert_eq!(store.len(), model.len());
            prop_assert_eq!(store.is_empty(), model.is_empty());
            prop_assert_eq!(store.bytes(), model.values().map(|(_, b)| b.len()).sum::<usize>());
            // Exactly the model's identities, timestamps and bytes: this
            // is the exact prune set, too.
            prop_assert_eq!(store.entries(), model_entries(&model));
            for (&(side, seq), (_, bytes)) in &model {
                prop_assert_eq!(store.get(side, seq), &bytes[..], "get({:?}, {})", side, seq);
            }
            prop_assert!(store.heap_bytes() >= store.bytes());
            if model.is_empty() {
                prop_assert_eq!(store.heap_bytes(), 0, "an emptied store holds memory");
            }
        }
    }
}

const WIDTH: usize = 512;

/// One epoch of a sliding window over both sides: `batch` payloads per
/// side arrive at `now`, everything older than `window` leaves.
fn slide(store: &mut PayloadStore, next_seq: &mut u64, now: u64, batch: u64, window: u64) {
    for side in Side::BOTH {
        for seq in *next_seq..*next_seq + batch {
            store.insert(side, seq, now, [seq as u8; WIDTH]);
        }
    }
    *next_seq += batch;
    store.prune_before(now.saturating_sub(window));
}

/// What a steady window may hold beyond its payload bytes: 40 bytes per
/// payload (a 32-byte slot with a quarter of ring headroom) and, per
/// side, a partly dead front chunk and a partly filled back chunk.
fn steady_bound(store: &PayloadStore) -> usize {
    store.bytes() + 40 * store.len() + 2 * 2 * CHUNK_BYTES
}

#[test]
fn sliding_window_costs_forty_bytes_per_payload_and_two_chunks_per_side() {
    let mut store = PayloadStore::new();
    let mut next_seq = 0;
    for now in 1..=400u64 {
        // 50 epochs of 90 payloads per side: 4 500 live per side.
        slide(&mut store, &mut next_seq, now, 90, 50);
        if now > 60 {
            assert_eq!(store.len(), 2 * 51 * 90);
            assert!(
                store.heap_bytes() <= steady_bound(&store),
                "epoch {now}: {} heap bytes for {} payloads ({} bytes)",
                store.heap_bytes(),
                store.len(),
                store.bytes()
            );
        }
    }
    // And all of it comes back.
    store.prune_before(u64::MAX);
    assert_eq!((store.len(), store.bytes(), store.heap_bytes()), (0, 0, 0));
}

#[test]
fn capacity_follows_a_burst_up_and_back_down() {
    let mut store = PayloadStore::new();
    let mut next_seq = 0;
    let mut now = 0;
    let mut run = |store: &mut PayloadStore, epochs: u64, batch: u64| {
        for _ in 0..epochs {
            now += 1;
            slide(store, &mut next_seq, now, batch, 40);
        }
        store.heap_bytes()
    };
    let before = run(&mut store, 200, 64);
    let burst = run(&mut store, 60, 5 * 64);
    assert!(burst > 4 * before, "the burst must grow the store: {before} -> {burst}");
    // A ring that shrank keeps at most twice its content (64 bytes per
    // payload instead of 40): an eighth of these payloads at the worst.
    let after = run(&mut store, 400, 64);
    assert!(
        after <= before + before / 8,
        "capacity ratcheted over the burst: {before} before, {after} long after"
    );
}

#[test]
fn out_of_fifo_takes_keep_dead_slots_and_chunks_bounded() {
    // The oldest payload never leaves, every other one leaves right
    // away and the rest much later: the takes land behind the ring's
    // front and in the middle of every chunk.
    let mut store = PayloadStore::new();
    for seq in 0..40_000u64 {
        store.insert(Side::Left, seq, seq, [7u8; WIDTH]);
        if seq % 2 == 1 {
            assert!(store.discard(Side::Left, seq));
        }
        if seq > 1_000 && seq % 2 == 0 {
            assert_eq!(store.remove(Side::Left, seq - 1_000).expect("stored").0, seq - 1_000);
        }
    }
    assert_eq!(store.len(), 501);
    assert_eq!(store.get(Side::Left, 0), &[7u8; WIDTH][..]);
    // Half of every live chunk is dead bytes, so: twice the content,
    // the slots (dead ones within the live count plus a constant, ring
    // capacity within twice that), the pinned chunk and the back one.
    let bound = 2 * store.bytes() + 32 * 2 * (2 * store.len() + 64 + 64) + 2 * CHUNK_BYTES;
    assert!(store.heap_bytes() <= bound, "{} heap bytes, bound {bound}", store.heap_bytes());
}
