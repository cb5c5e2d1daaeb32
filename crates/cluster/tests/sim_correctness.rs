//! End-to-end correctness of the simulated cluster: the full distributed
//! pipeline (master buffering, epoch distribution, slave joins,
//! repartitioning, degree-of-declustering) must produce exactly the
//! reference join, deterministically.

use std::time::Duration;
use windjoin_cluster::{run_sim, NodeConfig};
use windjoin_core::{reference_join, OutPair, Tuple};

/// A small but non-trivial configuration: 2 slaves, 30 s run, 8 s
/// window, enough rate to exercise splits and multiple reorg epochs.
fn small_cfg() -> NodeConfig {
    let mut cfg = NodeConfig::paper_default(2);
    cfg.run = Duration::from_secs(30);
    cfg.warmup = Duration::from_secs(5);
    cfg.params = cfg.params.with_window_secs(8);
    cfg.rate = 300.0;
    cfg.params.npart = 12;
    cfg.params.reorg_epoch_us = 4_000_000;
    cfg.keys = windjoin_gen::KeyDist::BModel { bias: 0.7, domain: 5_000 };
    cfg.capture_outputs = true;
    cfg
}

fn run_us(cfg: &NodeConfig) -> u64 {
    cfg.run.as_micros() as u64
}

/// Regenerates the exact arrival sequence a config's run observes.
fn arrivals_of(cfg: &NodeConfig) -> Vec<Tuple> {
    cfg.source_spec().materialize(cfg.seed, 0, run_us(cfg)).into_iter().map(|(t, _)| t).collect()
}

fn sorted_ids(pairs: &[OutPair]) -> Vec<(u64, u64)> {
    let mut v: Vec<_> = pairs.iter().map(|p| p.id()).collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn simulated_cluster_matches_reference_oracle() {
    let cfg = small_cfg();
    let report = run_sim(&cfg);
    assert!(report.outputs_total > 100, "workload too small to be meaningful");

    let arrivals = arrivals_of(&cfg);
    let oracle = reference_join(&arrivals, &cfg.params.sem);

    let got = sorted_ids(&report.captured);
    assert_eq!(got.len(), report.captured.len(), "distributed run emitted duplicates");

    use std::collections::HashSet;
    let oracle_ids: HashSet<(u64, u64)> = oracle.iter().map(|p| p.id()).collect();
    for id in &got {
        assert!(oracle_ids.contains(id), "spurious output pair {id:?}");
    }
    // Completeness: every oracle pair whose newest tuple arrived well
    // before the end of the run must have been produced (tail pairs may
    // still be in flight when the simulation stops).
    let slack = 6 * cfg.params.dist_epoch_us;
    let got_set: HashSet<(u64, u64)> = got.iter().copied().collect();
    let mut expected = 0;
    for p in &oracle {
        if p.newest_t() + slack <= run_us(&cfg) {
            expected += 1;
            assert!(
                got_set.contains(&p.id()),
                "missing output pair {:?} (newest_t = {})",
                p.id(),
                p.newest_t()
            );
        }
    }
    assert!(expected > 0, "oracle produced nothing checkable");
}

#[test]
fn runs_are_deterministic() {
    let cfg = small_cfg();
    let a = run_sim(&cfg);
    let b = run_sim(&cfg);
    assert_eq!(a.output_checksum, b.output_checksum);
    assert_eq!(a.outputs_total, b.outputs_total);
    assert_eq!(a.tuples_in, b.tuples_in);
    assert_eq!(a.moves, b.moves);
    assert_eq!(a.cpu().total_s, b.cpu().total_s);
}

#[test]
fn reorg_moves_happen_under_skewed_overload() {
    // Asymmetric load: 3 partitions over 2 slaves gives the round-robin
    // bootstrap a 2:1 imbalance. At 4500 t/s/stream the heavy slave's
    // demand exceeds its capacity (its buffer occupancy climbs past
    // Th_sup) while the light slave keeps up (occupancy ~0, a consumer):
    // the supplier/consumer machinery must move partition-groups.
    let mut cfg = small_cfg();
    cfg.params.npart = 3;
    cfg.rate = 6_500.0;
    cfg.keys = windjoin_gen::KeyDist::Uniform { domain: 5_000 };
    let report = run_sim(&cfg);
    assert!(report.moves > 0, "no partition-group movements under overload");
    assert_eq!(report.work.unowned_dropped, 0, "a batch reached a slave that does not own it");
    // Correctness must survive the moves.
    assert!(sorted_ids(&report.captured).len() == report.captured.len());
}

#[test]
fn adaptive_dod_grows_under_overload() {
    let mut cfg = small_cfg();
    cfg.capture_outputs = false;
    cfg.adaptive_dod = true;
    cfg.slaves = 1;
    cfg.total_slaves = 4;
    cfg.rate = 10_000.0;
    cfg.keys = windjoin_gen::KeyDist::Uniform { domain: 5_000 };
    cfg.run = Duration::from_secs(40);
    let report = run_sim(&cfg);
    assert!(report.final_degree > 1, "degree stayed at {} despite overload", report.final_degree);
}

#[test]
fn adaptive_dod_shrinks_when_idle() {
    let mut cfg = small_cfg();
    cfg.capture_outputs = false;
    cfg.adaptive_dod = true;
    cfg.slaves = 4;
    cfg.total_slaves = 4;
    cfg.rate = 20.0;
    cfg.run = Duration::from_secs(60);
    let report = run_sim(&cfg);
    assert!(report.final_degree < 4, "degree stayed at {} despite idleness", report.final_degree);
}

#[test]
fn usage_accounting_is_sane() {
    let cfg = small_cfg();
    let report = run_sim(&cfg);
    let window = report.window_s();
    for i in 0..2 {
        let n = report.usage.node(i);
        assert!(n.cpu_s() >= 0.0 && n.cpu_s() <= window * 1.5, "cpu {}", n.cpu_s());
        assert!(n.comm_s() >= 0.0 && n.comm_s() <= window, "comm {}", n.comm_s());
        let total = n.cpu_s() + n.comm_s() + n.idle_s();
        assert!(
            (total - window).abs() <= window * 0.5 + 1.0,
            "slave {i}: cpu+comm+idle = {total}, window = {window}"
        );
    }
    assert!(report.tuples_in > 0);
    assert!(report.master_peak_buffer_bytes > 0);
    assert!(report.max_window_blocks > 0);
}
