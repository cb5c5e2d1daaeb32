//! The baseline routings must be *correct* joins (the paper criticises
//! their cost, not their results): both ATR and CTR are checked against
//! the reference oracle on a small cluster.

use std::collections::HashSet;
use std::time::Duration;
use windjoin_baselines::{run_atr, run_ctr, AtrParams};
use windjoin_cluster::{NodeConfig, SourceSpec};
use windjoin_core::{reference_join, Side, Tuple};
use windjoin_gen::KeyDist;

fn small_cfg(slaves: usize) -> NodeConfig {
    let mut cfg = NodeConfig::paper_default(slaves);
    cfg.run = Duration::from_secs(30);
    cfg.warmup = Duration::from_secs(5);
    cfg.params = cfg.params.with_window_secs(6);
    cfg.rate = 250.0;
    cfg.params.npart = 8;
    cfg.keys = KeyDist::Uniform { domain: 2_000 };
    cfg.capture_outputs = true;
    cfg
}

fn run_us(cfg: &NodeConfig) -> u64 {
    cfg.run.as_micros() as u64
}

fn arrivals_of(cfg: &NodeConfig) -> Vec<Tuple> {
    cfg.source_spec().materialize(cfg.seed, 0, run_us(cfg)).into_iter().map(|(t, _)| t).collect()
}

fn check_against_oracle(cfg: &NodeConfig, captured: &[windjoin_core::OutPair]) {
    let arrivals = arrivals_of(cfg);
    let oracle = reference_join(&arrivals, &cfg.params.sem);
    let oracle_ids: HashSet<(u64, u64)> = oracle.iter().map(|p| p.id()).collect();

    let mut seen = HashSet::new();
    for p in captured {
        assert!(oracle_ids.contains(&p.id()), "spurious pair {:?}", p.id());
        assert!(seen.insert(p.id()), "duplicate pair {:?}", p.id());
    }
    let slack = 6 * cfg.params.dist_epoch_us;
    for p in &oracle {
        if p.newest_t() + slack <= run_us(cfg) {
            assert!(
                seen.contains(&p.id()),
                "missing pair {:?} (newest_t {})",
                p.id(),
                p.newest_t()
            );
        }
    }
}

#[test]
fn atr_is_a_correct_join() {
    let cfg = small_cfg(3);
    // Segment: 8 s (>= the 6 s window), several handovers in 30 s.
    let report = run_atr(&cfg, AtrParams { segment_us: 8_000_000 });
    assert!(report.outputs_total > 50, "workload too small: {}", report.outputs_total);
    check_against_oracle(&cfg, &report.captured);
}

#[test]
fn ctr_is_a_correct_join() {
    let cfg = small_cfg(3);
    let report = run_ctr(&cfg);
    assert!(report.outputs_total > 50);
    check_against_oracle(&cfg, &report.captured);
}

#[test]
fn ctr_network_is_n_times_atr_unicast() {
    let cfg = small_cfg(4);
    let atr = run_atr(&cfg, AtrParams::for_config(&cfg));
    let ctr = run_ctr(&cfg);
    assert_eq!(atr.tuples_in, ctr.tuples_in, "same workload");
    // Unicast floor: every tuple shipped exactly once.
    let unicast = atr.tuples_in * cfg.params.tuple_bytes as u64;
    // CTR ships every tuple to all 4 nodes...
    assert!(
        ctr.network_bytes > unicast * 7 / 2,
        "CTR {} vs unicast {}",
        ctr.network_bytes,
        unicast
    );
    // ...while ATR ships one copy plus at most one overlap copy
    // (segment = 2W duplicates the last half of each segment).
    assert!(atr.network_bytes < unicast * 2, "ATR {} vs unicast {}", atr.network_bytes, unicast);
}

#[test]
fn atr_load_circulates_instead_of_balancing() {
    // With segment >> epoch, at any instant one node does all the work;
    // over a window shorter than one segment the CPU spread across
    // nodes must be extreme (one busy, others ~idle).
    let mut cfg = small_cfg(3);
    cfg.run = Duration::from_secs(20);
    cfg.warmup = Duration::from_secs(4);
    let report = run_atr(&cfg, AtrParams { segment_us: 40_000_000 });
    let cpu = report.usage.cpu();
    assert!(
        cpu.max_s > 10.0 * cpu.min_s.max(0.001),
        "expected circulating load, got min {} max {}",
        cpu.min_s,
        cpu.max_s
    );
}

#[test]
fn baselines_are_deterministic() {
    let cfg = small_cfg(2);
    let a = run_ctr(&cfg);
    let b = run_ctr(&cfg);
    assert_eq!(a.output_checksum, b.output_checksum);
    assert_eq!(a.network_bytes, b.network_bytes);
}

#[test]
fn baselines_run_on_the_configured_source() {
    // A replay tape that ends well before the horizon: both routings must
    // ingest exactly the tape and settle every pair the oracle finds on
    // it (a baseline that rebuilt its own generators from `rate`/`keys`
    // would see different tuples).
    let tape: Vec<(Side, u64, u64)> = (0..600u64)
        .map(|i| {
            let side = if i % 3 == 0 { Side::Right } else { Side::Left };
            (side, i * 20_000, i * 7 % 40)
        })
        .collect();
    let mut cfg = small_cfg(3);
    cfg.source = Some(SourceSpec::replay_iter(tape.iter().copied()));
    let oracle = reference_join(&arrivals_of(&cfg), &cfg.params.sem);
    assert!(oracle.len() > 100, "tape too sparse: {} pairs", oracle.len());
    for report in [run_ctr(&cfg), run_atr(&cfg, AtrParams::for_config(&cfg))] {
        assert_eq!(report.tuples_in, tape.len() as u64);
        assert_eq!(report.outputs_total, oracle.len() as u64);
        check_against_oracle(&cfg, &report.captured);
    }
}
