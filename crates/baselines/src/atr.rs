//! Aligned Tuple Routing (ATR) — Gu, Yu & Wang, ICDE 2007, as described
//! (and critiqued) in the paper's §VII.
//!
//! Time is cut into segments of length `L >> max(W1, W2)`. Segment `k`
//! is owned by node `k mod N`; *every* tuple arriving during segment `k`
//! — from both streams — is routed to that owner for probing and
//! storage. To keep results exact across a segment boundary, each tuple
//! arriving in the last `W` of a segment is additionally copied
//! (store-only, no probe) to the next owner, pre-warming its windows.
//!
//! Consequences measured by experiment X1 and §VII's argument:
//!
//! * the probing load **circulates** instead of balancing: at any moment
//!   one node carries the entire join, so capacity is one node's worth
//!   regardless of `N`;
//! * the owner must hold the windows of *all* streams, violating
//!   resource-limited nodes;
//! * the overlap copies add `≈ W/L` extra network traffic.

use crate::driver::{run_baseline, Action, Routed, Router};
use crate::report::BaselineReport;
use windjoin_cluster::NodeConfig;
use windjoin_core::Tuple;

/// ATR routing parameters.
#[derive(Debug, Clone, Copy)]
pub struct AtrParams {
    /// Segment length in microseconds. Must be at least the larger
    /// window for single-handover correctness ("the ATR works for a
    /// segment much higher than the sizes of the stream windows").
    pub segment_us: u64,
}

impl AtrParams {
    /// The conventional choice: `L = 2 × max(W1, W2)`.
    pub fn for_config(cfg: &NodeConfig) -> Self {
        AtrParams { segment_us: 2 * cfg.params.sem.w_left_us.max(cfg.params.sem.w_right_us) }
    }
}

pub(crate) struct AtrRouter {
    segment_us: u64,
    prewarm_us: u64,
}

impl Router for AtrRouter {
    fn route(&mut self, tup: Tuple, nodes: usize, out: &mut Vec<(usize, Routed)>) {
        let seg = tup.t / self.segment_us;
        let owner = (seg as usize) % nodes;
        out.push((owner, Routed { tup, action: Action::ProbeStore }));
        // Pre-warm the next owner during the final W of the segment.
        let seg_end = (seg + 1) * self.segment_us;
        if nodes > 1 && tup.t + self.prewarm_us >= seg_end {
            let next = (seg as usize + 1) % nodes;
            out.push((next, Routed { tup, action: Action::StoreOnly }));
        }
    }
}

/// Runs ATR under `cfg` (uses `cfg.slaves` nodes; adaptive
/// declustering does not exist in ATR).
pub fn run_atr(cfg: &NodeConfig, atr: AtrParams) -> BaselineReport {
    let w = cfg.params.sem.w_left_us.max(cfg.params.sem.w_right_us);
    assert!(
        atr.segment_us >= w,
        "ATR requires segment length >= the window ({} < {w})",
        atr.segment_us
    );
    run_baseline(cfg, AtrRouter { segment_us: atr.segment_us, prewarm_us: w })
}

#[cfg(test)]
mod tests {
    use super::*;
    use windjoin_core::Side;

    fn route_one(router: &mut AtrRouter, t: u64, nodes: usize) -> Vec<(usize, Action)> {
        let mut out = Vec::new();
        router.route(Tuple::new(Side::Left, t, 1, 0), nodes, &mut out);
        out.into_iter().map(|(n, r)| (n, r.action)).collect()
    }

    #[test]
    fn owner_rotates_per_segment() {
        let mut r = AtrRouter { segment_us: 100, prewarm_us: 10 };
        assert_eq!(route_one(&mut r, 5, 3), vec![(0, Action::ProbeStore)]);
        assert_eq!(route_one(&mut r, 105, 3), vec![(1, Action::ProbeStore)]);
        assert_eq!(route_one(&mut r, 205, 3), vec![(2, Action::ProbeStore)]);
        assert_eq!(route_one(&mut r, 305, 3), vec![(0, Action::ProbeStore)]);
    }

    #[test]
    fn prewarm_copies_only_near_segment_end() {
        let mut r = AtrRouter { segment_us: 100, prewarm_us: 10 };
        // t=89: 89+10 < 100 -> no copy. t=90: copy to next owner.
        assert_eq!(route_one(&mut r, 89, 2).len(), 1);
        let routes = route_one(&mut r, 90, 2);
        assert_eq!(routes, vec![(0, Action::ProbeStore), (1, Action::StoreOnly)]);
    }

    #[test]
    fn single_node_never_copies() {
        let mut r = AtrRouter { segment_us: 100, prewarm_us: 50 };
        assert_eq!(route_one(&mut r, 99, 1), vec![(0, Action::ProbeStore)]);
    }
}
