//! Coordinated Tuple Routing (CTR) — Gu, Yu & Wang, ICDE 2007 —
//! specialised to the two-way join, as described in the paper's §VII.
//!
//! Each stream has a *routing hop*: the set of nodes collectively
//! storing a superset of that stream's window. An arriving tuple is
//! **stored** on one node of its own hop (round-robin by time segment,
//! content-insensitive — CTR also supports non-equijoins) and
//! **probe-broadcast** to every node of the opposite hop, because any of
//! them may hold matching tuples.
//!
//! With both hops spanning all `N` nodes, state and CPU spread evenly —
//! but every tuple crosses the network `N` times ("high network
//! overhead, as each incoming tuple should be forwarded, in a cascading
//! fashion, to every node in the successive routing hop"), so the
//! distribution NIC saturates roughly `N×` earlier than hash routing.

use crate::driver::{run_baseline, Action, Routed, Router};
use crate::report::BaselineReport;
use windjoin_cluster::NodeConfig;
use windjoin_core::Tuple;

pub(crate) struct CtrRouter {
    /// Storage segment length: the storage node rotates per segment.
    segment_us: u64,
}

impl Router for CtrRouter {
    fn route(&mut self, tup: Tuple, nodes: usize, out: &mut Vec<(usize, Routed)>) {
        // Stagger the two streams' storage rotation so their hops don't
        // stay aligned on the same node.
        let seg = tup.t / self.segment_us + tup.side.index() as u64;
        let store = (seg as usize) % nodes;
        // The storage node probes its local slice, then stores (sealed,
        // so later probes in the same batch already see the tuple).
        out.push((store, Routed { tup, action: Action::ProbeThenStore }));
        for node in 0..nodes {
            if node != store {
                out.push((node, Routed { tup, action: Action::ProbeOnly }));
            }
        }
    }
}

/// Runs CTR under `cfg` (uses `cfg.slaves` nodes). The storage
/// segment equals the distribution epoch.
pub fn run_ctr(cfg: &NodeConfig) -> BaselineReport {
    run_baseline(cfg, CtrRouter { segment_us: cfg.params.dist_epoch_us.max(1) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use windjoin_core::Side;

    #[test]
    fn every_node_sees_every_tuple_exactly_once() {
        let mut r = CtrRouter { segment_us: 100 };
        let mut out = Vec::new();
        r.route(Tuple::new(Side::Left, 50, 1, 0), 4, &mut out);
        assert_eq!(out.len(), 4);
        let mut nodes: Vec<usize> = out.iter().map(|(n, _)| *n).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
        let stores = out.iter().filter(|(_, r)| r.action == Action::ProbeThenStore).count();
        assert_eq!(stores, 1, "stored exactly once");
    }

    #[test]
    fn storage_rotates_over_segments_and_streams() {
        let mut r = CtrRouter { segment_us: 100 };
        let store_of = |rtr: &mut CtrRouter, t: u64, side: Side| {
            let mut out = Vec::new();
            rtr.route(Tuple::new(side, t, 1, 0), 3, &mut out);
            out.iter().find(|(_, r)| r.action == Action::ProbeThenStore).unwrap().0
        };
        assert_eq!(store_of(&mut r, 50, Side::Left), 0);
        assert_eq!(store_of(&mut r, 150, Side::Left), 1);
        assert_eq!(store_of(&mut r, 250, Side::Left), 2);
        // The right stream is staggered by one.
        assert_eq!(store_of(&mut r, 50, Side::Right), 1);
    }

    #[test]
    fn single_node_degenerates_to_local_join() {
        let mut r = CtrRouter { segment_us: 100 };
        let mut out = Vec::new();
        r.route(Tuple::new(Side::Left, 1, 1, 0), 1, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.action, Action::ProbeThenStore);
    }
}
