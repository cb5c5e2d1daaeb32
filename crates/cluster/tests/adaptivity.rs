//! Adaptive-declustering lifecycle test: a load burst forces the degree
//! of declustering up, the following quiet period brings it back down,
//! and the join stays *exactly* correct through every activation,
//! deactivation and state movement in between.

use std::collections::HashSet;
use std::time::Duration;
use windjoin_cluster::{run_sim, NodeConfig, SourceSpec};
use windjoin_core::{reference_join, Tuple};
use windjoin_gen::{KeyDist, RateSchedule};

/// `slaves` active slaves for a `secs`-second run with a 10 s warm-up
/// and `window_secs` windows.
fn cfg(slaves: usize, secs: u64, window_secs: u64) -> NodeConfig {
    let mut cfg = NodeConfig::paper_default(slaves);
    cfg.run = Duration::from_secs(secs);
    cfg.warmup = Duration::from_secs(10);
    cfg.params = cfg.params.with_window_secs(window_secs);
    cfg
}

#[test]
fn full_scale_out_and_in_cycle_is_exact() {
    let mut cfg = cfg(1, 120, 8);
    cfg.total_slaves = 5;
    cfg.adaptive_dod = true;
    cfg.capture_outputs = true;
    cfg.params.npart = 10;
    cfg.params.reorg_epoch_us = 4_000_000;
    cfg.source = Some(SourceSpec::Synthetic {
        rate: RateSchedule::steps(vec![
            (0, 400.0),
            (20_000_000, 7_000.0), // burst: one slave cannot keep up
            (60_000_000, 300.0),   // quiet: surplus slaves drain out
        ]),
        keys: KeyDist::Uniform { domain: 4_000 },
    });
    let run_us = cfg.run.as_micros() as u64;

    let report = run_sim(&cfg);

    // The degree must have grown during the burst...
    let peak = report.dod_trace.peak().expect("dod sampled");
    assert!(peak > 1.0, "no scale-out happened (peak degree {peak})");
    // ...and shrunk again afterwards.
    assert!(
        report.final_degree < peak as usize,
        "no scale-in happened (final {} vs peak {peak})",
        report.final_degree
    );
    assert!(report.moves > 0);

    // Exactness through the whole lifecycle.
    let arrivals: Vec<Tuple> =
        cfg.source_spec().materialize(cfg.seed, 0, run_us).into_iter().map(|(t, _)| t).collect();
    let oracle = reference_join(&arrivals, &cfg.params.sem);
    let oracle_ids: HashSet<(u64, u64)> = oracle.iter().map(|p| p.id()).collect();

    let mut seen = HashSet::new();
    for p in &report.captured {
        assert!(oracle_ids.contains(&p.id()), "spurious {:?}", p.id());
        assert!(seen.insert(p.id()), "duplicate {:?}", p.id());
    }
    // Completeness for pairs settled before the horizon. Overload makes
    // delay unbounded *by design* (that is what Figs. 5–6 plot), so the
    // only sound cutoff is one past the measured drain point: everything
    // whose constituents arrived before the end of the quiet tail must
    // be out, because the backlog demonstrably cleared (max delay at the
    // tail ≪ tail length).
    let slack = 40_000_000;
    let mut missing = 0;
    for p in &oracle {
        if p.newest_t() + slack <= run_us && !seen.contains(&p.id()) {
            missing += 1;
        }
    }
    assert_eq!(
        missing,
        0,
        "{missing} settled pairs lost (of {} oracle pairs; {} produced)",
        oracle.len(),
        report.captured.len()
    );
}

#[test]
fn degree_trace_is_monotone_per_phase() {
    // Simple sanity on the trace itself: within the quiet tail the
    // degree never increases.
    let mut cfg = cfg(4, 60, 5);
    cfg.adaptive_dod = true;
    cfg.params.reorg_epoch_us = 4_000_000;
    cfg.rate = 50.0;
    let report = run_sim(&cfg);
    let mut last = f64::INFINITY;
    for (_, d) in report.dod_trace.iter_means() {
        assert!(d <= last + 1e-9, "degree increased under constant idle load");
        last = d;
    }
    assert!(report.final_degree <= 2, "idle cluster should have shrunk");
}
