//! End-to-end test of the threaded runtime: real threads, encoded byte
//! frames, blocking transport, physical BNLJ. Kept short (seconds of
//! wall clock) and assertion-tolerant of scheduling jitter; exactness is
//! checked against the oracle as a subset + coverage property.

use std::collections::HashSet;
use std::time::Duration;
use windjoin_cluster::{run_threaded, NodeConfig};
use windjoin_core::{reference_join, Side, Tuple};
use windjoin_gen::{merge_streams, KeyDist, RateSchedule, StreamSpec};

fn test_cfg() -> NodeConfig {
    let mut cfg = NodeConfig::demo(2);
    cfg.rate = 400.0;
    cfg.keys = KeyDist::Uniform { domain: 500 };
    cfg.run = Duration::from_secs(3);
    cfg.warmup = Duration::from_millis(500);
    cfg.capture_outputs = true;
    cfg.seed = 99;
    cfg
}

#[test]
fn threaded_cluster_produces_correct_joins() {
    let cfg = test_cfg();
    let report = run_threaded(&cfg);
    assert!(report.outputs_total > 0, "no outputs produced");
    assert!(report.tuples_in > 1_000, "generator barely ran: {}", report.tuples_in);
    assert_eq!(report.work.unowned_dropped, 0, "a batch reached a slave that does not own it");

    // Regenerate the arrival sequence and the oracle.
    let s1 = StreamSpec {
        rate: RateSchedule::constant(cfg.rate),
        keys: cfg.keys,
        seed: cfg.seed.wrapping_add(1),
    }
    .arrivals(0);
    let s2 = StreamSpec {
        rate: RateSchedule::constant(cfg.rate),
        keys: cfg.keys,
        seed: cfg.seed.wrapping_add(2),
    }
    .arrivals(1);
    let arrivals: Vec<Tuple> = merge_streams(vec![s1, s2])
        .take_while(|a| a.at_us <= cfg.run.as_micros() as u64)
        .map(|a| {
            let side = if a.stream == 0 { Side::Left } else { Side::Right };
            Tuple::new(side, a.at_us, a.key, a.seq)
        })
        .collect();
    let oracle_ids: HashSet<(u64, u64)> =
        reference_join(&arrivals, &cfg.params.sem).iter().map(|p| p.id()).collect();

    // Soundness: nothing spurious, nothing duplicated.
    let mut seen = HashSet::new();
    for p in &report.captured {
        assert!(oracle_ids.contains(&p.id()), "spurious pair {:?}", p.id());
        assert!(seen.insert(p.id()), "duplicate pair {:?}", p.id());
    }
    // Liveness: a decent share of the early oracle pairs made it out
    // (the tail may still be buffered at shutdown).
    let early: Vec<_> = reference_join(&arrivals, &cfg.params.sem)
        .into_iter()
        .filter(|p| p.newest_t() + 1_000_000 <= cfg.run.as_micros() as u64)
        .collect();
    if !early.is_empty() {
        let covered = early.iter().filter(|p| seen.contains(&p.id())).count();
        let frac = covered as f64 / early.len() as f64;
        assert!(frac > 0.9, "only {covered}/{} early pairs produced", early.len());
    }
}

#[test]
fn threaded_cluster_reports_usage_and_delay() {
    let mut cfg = test_cfg();
    cfg.capture_outputs = false;
    let report = run_threaded(&cfg);
    assert!(report.delay.count() > 0, "no post-warm-up outputs");
    let d = report.avg_delay_s();
    // Under light load the slaves ack every batch at once, so the
    // leader ships their tuples on the t_d/10 tick grid instead of
    // holding them for the slot. Slot-only distribution alone averages
    // a t_d/2 wait, which this bound leaves no room for.
    let quarter_epoch = cfg.params.dist_epoch_us as f64 / 4e6;
    assert!(
        d > 0.0 && d < quarter_epoch,
        "average delay {d} s, not under t_d/4 = {quarter_epoch} s"
    );
    let cpu = report.cpu();
    assert!(cpu.total_s >= 0.0);
}
