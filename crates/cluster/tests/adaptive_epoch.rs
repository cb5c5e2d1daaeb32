//! Dynamic distribution-epoch tuning (§VIII future work): the
//! controller must move the epoch in the right direction and never
//! affect the *correctness* of the join.

use std::collections::HashSet;
use std::time::Duration;
use windjoin_cluster::{run_sim, NodeConfig, Runtime};
use windjoin_core::{reference_join, EpochTuning, Tuple};
use windjoin_gen::KeyDist;

fn cfg() -> NodeConfig {
    let mut cfg = NodeConfig::paper_default(3);
    cfg.run = Duration::from_secs(60);
    cfg.warmup = Duration::from_secs(20);
    cfg.params = cfg.params.with_window_secs(6);
    cfg.rate = 300.0;
    cfg.params.npart = 9;
    cfg.params.reorg_epoch_us = 4_000_000;
    cfg.keys = KeyDist::Uniform { domain: 3_000 };
    cfg
}

#[test]
fn controller_shrinks_epoch_when_comfortable() {
    // Tiny load, huge starting epoch: communication is negligible and
    // the slaves idle, so the controller should walk the epoch down.
    let mut c = cfg();
    c.params = c.params.with_dist_epoch_us(8_000_000);
    c.params.reorg_epoch_us = 8_000_000;
    c.adaptive_epoch = Some(EpochTuning::default());
    let report = run_sim(&c);
    let settled = report.epoch_trace.iter_means().last().unwrap().1;
    assert!(settled < 8.0, "epoch never shrank from 8 s (settled at {settled})");
    // Delay follows the epoch down (Fig. 13's law).
    assert!(report.avg_delay_s() < 8.0);
}

#[test]
fn controller_grows_epoch_when_communication_bound() {
    // A 50 ms epoch against the calibrated 18 ms per-message envelope:
    // the master's serial NIC makes the three slaves wait 18, 36 and
    // 54 ms per slot, so the comm fraction far exceeds the threshold
    // and the controller must back off.
    let mut c = cfg();
    c.params = c.params.with_dist_epoch_us(50_000);
    c.adaptive_epoch = Some(EpochTuning { min_us: 50_000, ..EpochTuning::default() });
    let report = run_sim(&c);
    let settled = report.epoch_trace.iter_means().last().unwrap().1;
    assert!(settled > 0.05, "epoch never grew from 50 ms (settled at {settled})");
}

#[test]
fn adaptive_epoch_preserves_exactness() {
    let mut c = cfg();
    c.capture_outputs = true;
    c.adaptive_epoch = Some(EpochTuning::default());
    let report = run_sim(&c);

    let arrivals: Vec<Tuple> = c
        .source_spec()
        .materialize(c.seed, 0, c.run.as_micros() as u64)
        .into_iter()
        .map(|(t, _)| t)
        .collect();
    let oracle_ids: HashSet<(u64, u64)> =
        reference_join(&arrivals, &c.params.sem).iter().map(|p| p.id()).collect();
    let mut seen = HashSet::new();
    for p in &report.captured {
        assert!(oracle_ids.contains(&p.id()), "spurious {:?}", p.id());
        assert!(seen.insert(p.id()), "duplicate {:?}", p.id());
    }
    assert!(report.outputs_total > 100);
}

#[test]
fn adaptive_epoch_config_is_validated() {
    let mut c = cfg();
    c.adaptive_epoch = Some(EpochTuning { min_us: 0, ..EpochTuning::default() });
    assert!(c.validate(Runtime::Sim).is_err());
    let mut c = cfg();
    c.params.ng = 2;
    c.adaptive_epoch = Some(EpochTuning::default());
    assert!(c.validate(Runtime::Sim).is_err(), "adaptive epoch with sub-groups is unsupported");
}
