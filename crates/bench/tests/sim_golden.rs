//! Pins the simulator and the baselines bit for bit: six smoke-scale
//! runs whose counts, checksums, charged work, reorganisation outcome
//! and mean delay (as raw `f64` bits) must not move. A change that is
//! meant to keep the simulator's behaviour — a refactor of its config,
//! its event loop or the engines under it — must leave every line
//! below unchanged; one that is meant to change it updates the line and
//! says why.

use windjoin_baselines::{run_atr, run_ctr, AtrParams, BaselineReport};
use windjoin_bench::Scale;
use windjoin_cluster::{run_sim, NodeConfig, RunReport, SourceSpec};
use windjoin_core::{EpochTuning, TuningParams, WorkStats};
use windjoin_gen::{KeyDist, RateSchedule};

fn smoke(slaves: usize, rate: f64) -> NodeConfig {
    NodeConfig { rate, ..Scale::Smoke.apply(NodeConfig::paper_default(slaves)) }
}

fn line(
    name: &str,
    tuples_in: u64,
    outputs: u64,
    checksum: u64,
    w: &WorkStats,
    tail: String,
) -> String {
    format!(
        "{name}: in={tuples_in} out={outputs} sum={checksum:016x} cmp={} emit={} ins={} \
         hash={} blk={} moved={} {tail}",
        w.comparisons, w.emitted, w.inserts, w.hash_ops, w.blocks_touched, w.tuples_moved
    )
}

fn sim_line(name: &str, r: &RunReport) -> String {
    let tail = format!(
        "moves={} degree={} peak_degree={} win={} buf={} epoch={:016x} delay={:016x}",
        r.moves,
        r.final_degree,
        r.dod_trace.peak().unwrap_or(0.0),
        r.max_window_blocks,
        r.master_peak_buffer_bytes,
        r.epoch_trace.iter_means().last().map_or(0, |(_, e)| e.to_bits()),
        r.avg_delay_s().to_bits()
    );
    line(name, r.tuples_in, r.outputs_total, r.output_checksum, &r.work, tail)
}

fn baseline_line(name: &str, r: &BaselineReport) -> String {
    let tail = format!("net={} delay={:016x}", r.network_bytes, r.avg_delay_s().to_bits());
    line(name, r.tuples_in, r.outputs_total, r.output_checksum, &r.work, tail)
}

fn check(got: String, want: &str) {
    assert_eq!(got, want, "\n got: {got}\nwant: {want}");
}

#[test]
fn tuned() {
    // Table I's θ never splits a smoke-scale window; two blocks does.
    let mut cfg = smoke(4, 1500.0);
    cfg.params.tuning = Some(TuningParams { theta_blocks: 2, max_depth: 12 });
    check(
        sim_line("tuned", &run_sim(&cfg)),
        "tuned: in=90415 out=3720 sum=5507e22ca9f11504 \
         cmp=6885675 emit=3720 ins=84473 hash=187683 blk=18459 moved=103210 \
         moves=0 degree=4 peak_degree=4 win=479 buf=396288 \
         epoch=4000000000000000 delay=3ff267f4551b396e",
    );
}

#[test]
fn flat() {
    let mut cfg = smoke(4, 1500.0);
    cfg.params.tuning = None;
    check(
        sim_line("flat", &run_sim(&cfg)),
        "flat: in=90415 out=3720 sum=5507e22ca9f11504 \
         cmp=23579688 emit=3720 ins=84473 hash=84473 blk=15343 moved=0 \
         moves=0 degree=4 peak_degree=4 win=206 buf=396288 \
         epoch=4000000000000000 delay=3ff27a60109b9478",
    );
}

#[test]
fn adaptive_dod_with_spare_slaves() {
    // One of four slaves active under a load it cannot carry, then a
    // quiet tail: the degree grows into the spare pool and shrinks again.
    let mut cfg = smoke(1, 1000.0);
    cfg.total_slaves = 4;
    cfg.adaptive_dod = true;
    cfg.source = Some(SourceSpec::Synthetic {
        rate: RateSchedule::steps(vec![(0, 10_000.0), (20_000_000, 300.0)]),
        keys: KeyDist::Uniform { domain: 5_000 },
    });
    cfg.params.reorg_epoch_us = 5_000_000;
    check(
        sim_line("adaptive_dod", &run_sim(&cfg)),
        "adaptive_dod: in=405393 out=6042773 sum=ff3b241838dc394a \
         cmp=623896918 emit=6042773 ins=404218 hash=404218 blk=198005 moved=8278 \
         moves=60 degree=1 peak_degree=2 win=4488 buf=2582272 \
         epoch=4000000000000000 delay=400ffbda23541b7f",
    );
}

#[test]
fn adaptive_epoch() {
    let mut cfg = smoke(3, 1500.0);
    cfg.adaptive_epoch = Some(EpochTuning::default());
    check(
        sim_line("adaptive_epoch", &run_sim(&cfg)),
        "adaptive_epoch: in=88494 out=3949 sum=14efe8bae5bbe521 \
         cmp=25122779 emit=3949 ins=88494 hash=88494 blk=18113 moved=0 \
         moves=0 degree=3 peak_degree=3 win=275 buf=396288 \
         epoch=3ff55554fbdad752 delay=3fefb2bdaf0a8210",
    );
}

#[test]
fn ctr() {
    check(
        baseline_line("ctr", &run_ctr(&smoke(4, 1000.0))),
        "ctr: in=60359 out=1699 sum=76579f6597e66aa4 \
         cmp=600337937 emit=1699 ins=56414 hash=282070 blk=9474721 moved=0 \
         net=15452224 delay=3ffde955cb86b1ed",
    );
}

#[test]
fn atr() {
    let cfg = smoke(4, 1000.0);
    check(
        baseline_line("atr", &run_atr(&cfg, AtrParams::for_config(&cfg))),
        "atr: in=60359 out=1699 sum=76579f6597e66aa4 \
         cmp=581758571 emit=1699 ins=76576 hash=76576 blk=147251 moved=0 \
         net=5153664 delay=3ffecda87b0a957f",
    );
}
