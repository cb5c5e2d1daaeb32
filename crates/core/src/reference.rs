//! The oracles the test suites hold the system to.
//!
//! * [`reference_join`] — a direct, obviously-correct implementation of
//!   the §II semantics: every distributed configuration (any number of
//!   slaves, with/without tuning, across reorganizations) must produce
//!   exactly this set of output pairs.
//! * [`ScalarEngine`] — the paper's Block Nested-Loop Join (§IV-D) as
//!   straight-line scans, one stored tuple at a time: the property
//!   tests assert that [`crate::ExactEngine`] emits byte-identical
//!   `(OutPair, WorkStats)` sequences.

use crate::block::RunView;
use crate::probe::ProbeEngine;
use crate::{JoinSemantics, OutPair, Side, Tuple, WindowPartition, WorkStats};
use std::collections::HashMap;

/// Computes the complete, duplicate-free join result of `arrivals`.
///
/// Arrivals are processed in `(t, seq, side)` order; each tuple probes
/// everything that arrived before it, so each unordered pair is
/// evaluated exactly once, with the §II predicate (the earlier tuple
/// must still be inside its own window at the later tuple's arrival).
///
/// Complexity is `O(n · matches)` via a per-key index — fine for test
/// workloads; this is an oracle, not a system component.
pub fn reference_join(arrivals: &[Tuple], sem: &JoinSemantics) -> Vec<OutPair> {
    let mut sorted: Vec<Tuple> = arrivals.to_vec();
    sorted.sort_by_key(|t| (t.t, t.seq, t.side));

    // Per side, key → (t, seq) of already-arrived tuples.
    let mut index: [HashMap<u64, Vec<(u64, u64)>>; 2] = [HashMap::new(), HashMap::new()];
    let mut out = Vec::new();
    for probe in &sorted {
        if let Some(stored) = index[probe.side.opposite().index()].get(&probe.key) {
            for &(t, seq) in stored {
                if sem.joins(probe.t, probe.side, t) {
                    out.push(OutPair::from_probe(probe, t, seq));
                }
            }
        }
        index[probe.side.index()].entry(probe.key).or_default().push((probe.t, probe.seq));
    }
    out
}

/// The tuple-at-a-time reference kernel: the paper's Block Nested-Loop
/// Join as straight-line scans, one stored tuple at a time. Slow on
/// purpose; it anchors the equivalence property tests that keep the
/// production kernel honest.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarEngine;

impl ProbeEngine for ScalarEngine {
    fn on_seal(&mut self, _tuple: &Tuple) {}

    fn on_expire_block(&mut self, _side: Side, _block: &RunView<'_>) {}

    fn probe(
        &mut self,
        fresh: &[Tuple],
        opposite: &WindowPartition,
        sem: &JoinSemantics,
        out: &mut Vec<OutPair>,
        work: &mut WorkStats,
    ) {
        if fresh.is_empty() {
            return;
        }
        work.blocks_touched += opposite.block_count() as u64;
        opposite.for_each_sealed_run(|run| scan_run(fresh, &run, sem, out, work));
    }

    fn join_expiring(
        &mut self,
        fresh: &[Tuple],
        block: &RunView<'_>,
        sem: &JoinSemantics,
        out: &mut Vec<OutPair>,
        work: &mut WorkStats,
    ) {
        scan_run(fresh, block, sem, out, work);
    }
}

/// Nested-loop scan of `probe_tuples` against one stored run, stored
/// tuple major: both the probe and the expiring-block completeness join
/// of [`ScalarEngine`].
fn scan_run(
    probe_tuples: &[Tuple],
    stored_run: &RunView<'_>,
    sem: &JoinSemantics,
    out: &mut Vec<OutPair>,
    work: &mut WorkStats,
) {
    for (key, stored_t, stored_seq) in stored_run.iter() {
        for probe in probe_tuples {
            if probe.key == key && sem.joins(probe.t, probe.side, stored_t) {
                out.push(OutPair::from_probe(probe, stored_t, stored_seq));
                work.emitted += 1;
            }
        }
    }
    work.comparisons += (probe_tuples.len() * stored_run.len()) as u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEM: JoinSemantics = JoinSemantics { w_left_us: 100, w_right_us: 100 };

    fn tl(t: u64, key: u64, seq: u64) -> Tuple {
        Tuple::new(Side::Left, t, key, seq)
    }
    fn tr(t: u64, key: u64, seq: u64) -> Tuple {
        Tuple::new(Side::Right, t, key, seq)
    }

    #[test]
    fn basic_pairs() {
        let out = reference_join(&[tl(0, 1, 0), tr(50, 1, 0), tr(150, 1, 1)], &SEM);
        // (0, 50) joins; (0, 150) is outside W1=100.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].left, (0, 0));
        assert_eq!(out[0].right, (50, 0));
    }

    #[test]
    fn asymmetric_windows() {
        let sem = JoinSemantics { w_left_us: 10, w_right_us: 1000 };
        // Left tuple at 0; right at 500: later-right, earlier-left →
        // uses W1=10 → no. Right at 5, left at 10: later-left, earlier
        // right → uses W2=1000 → yes.
        let out = reference_join(&[tl(0, 1, 0), tr(500, 1, 0)], &sem);
        assert!(out.is_empty());
        let out = reference_join(&[tr(5, 1, 0), tl(10, 1, 1)], &sem);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn same_side_never_joins() {
        let out = reference_join(&[tl(0, 1, 0), tl(1, 1, 1), tl(2, 1, 2)], &SEM);
        assert!(out.is_empty());
    }

    #[test]
    fn unsorted_input_is_handled() {
        let shuffled = [tr(50, 1, 0), tl(0, 1, 0)];
        let out = reference_join(&shuffled, &SEM);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].newest_t(), 50);
    }

    #[test]
    fn cross_product_on_hot_key() {
        let mut arr = Vec::new();
        for i in 0..5 {
            arr.push(tl(i, 7, i));
            arr.push(tr(i, 7, i));
        }
        let out = reference_join(&arr, &SEM);
        assert_eq!(out.len(), 25, "5x5 pairs, all within the window");
        let mut ids: Vec<_> = out.iter().map(|p| p.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 25, "no duplicates");
    }
}
