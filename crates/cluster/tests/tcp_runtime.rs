//! End-to-end runs over the TCP transport: the identical node loops
//! that drive the channel-backed threaded runtime run over real
//! loopback sockets and must produce the **exact same join output** —
//! which both must equal the `reference_join` oracle, thanks to the
//! master's deterministic ingest-and-flush contract.

use std::collections::HashSet;
use std::time::Duration;
use windjoin_cluster::{run_on_transport, run_threaded, NodeConfig, RunReport};
use windjoin_core::{reference_join, OutPair, Side, Tuple};
use windjoin_gen::{merge_streams, KeyDist, RateSchedule, StreamSpec};
use windjoin_net::TcpNetwork;

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

fn oracle_pairs(cfg: &NodeConfig) -> Vec<OutPair> {
    let spec = |seed| StreamSpec { rate: RateSchedule::constant(cfg.rate), keys: cfg.keys, seed };
    let arrivals: Vec<Tuple> = merge_streams(vec![
        spec(cfg.seed.wrapping_add(1)).arrivals(0),
        spec(cfg.seed.wrapping_add(2)).arrivals(1),
    ])
    .take_while(|a| a.at_us <= cfg.run.as_micros() as u64)
    .map(|a| {
        let side = if a.stream == 0 { Side::Left } else { Side::Right };
        Tuple::new(side, a.at_us, a.key, a.seq)
    })
    .collect();
    reference_join(&arrivals, &cfg.params.sem)
}

fn sorted_ids(report: &RunReport) -> Vec<(u64, u64)> {
    let mut v: Vec<_> = report.captured.iter().map(|p| p.id()).collect();
    v.sort_unstable();
    v
}

#[test]
fn tcp_loopback_matches_channel_runtime_and_oracle() {
    let cfg = test_cfg();

    let channel = run_threaded(&cfg);
    let tcp_net = TcpNetwork::loopback(cfg.ranks(), 4096).expect("loopback mesh");
    let tcp = run_on_transport(&cfg, tcp_net);

    // The two backends agree pair-for-pair...
    assert!(tcp.outputs_total > 0, "TCP run produced nothing");
    assert_eq!(tcp.outputs_total, channel.outputs_total, "output counts diverge");
    assert_eq!(tcp.output_checksum, channel.output_checksum, "checksums diverge");
    assert_eq!(sorted_ids(&tcp), sorted_ids(&channel), "output sets diverge");

    // ...and both agree with the oracle exactly (the deterministic
    // flush means no tail is lost at shutdown).
    let mut oracle: Vec<(u64, u64)> = oracle_pairs(&cfg).iter().map(|p| p.id()).collect();
    oracle.sort_unstable();
    assert_eq!(sorted_ids(&tcp), oracle, "TCP run != reference join");
}

#[test]
fn tcp_runtime_stays_exact_through_reorganizations() {
    // Longer skewed run with 1 s reorg epochs on 3 slaves: partition
    // moves travel as State transfers over real sockets, and the
    // output must still match the oracle exactly (exactly-once moves).
    let mut cfg = test_cfg();
    cfg.slaves = 3;
    cfg.total_slaves = 3;
    cfg.keys = KeyDist::BModel { bias: 0.9, domain: 10_000 };
    cfg.run = Duration::from_secs(8);
    cfg.params.reorg_epoch_us = 1_000_000;
    cfg.seed = 1234;

    let tcp_net = TcpNetwork::loopback(cfg.ranks(), 4096).expect("loopback mesh");
    let report = run_on_transport(&cfg, tcp_net);

    let mut oracle: Vec<(u64, u64)> = oracle_pairs(&cfg).iter().map(|p| p.id()).collect();
    oracle.sort_unstable();
    assert_eq!(sorted_ids(&report), oracle, "reorganizing TCP run != reference join");

    // Soundness double-check: no duplicates slipped through the moves.
    let ids: HashSet<(u64, u64)> = report.captured.iter().map(|p| p.id()).collect();
    assert_eq!(ids.len(), report.captured.len(), "duplicate outputs");
    eprintln!(
        "reorg TCP run: {} outputs, {} partition moves, final degree {}",
        report.outputs_total, report.moves, report.final_degree
    );
}

#[test]
fn a_paced_slave_books_its_waits_as_idle_and_each_rank_its_own_cpu() {
    // 400 tuples/s per stream keeps a slave's join module well under a
    // tenth of its time: the rest is mostly waiting on its socket, and
    // that is idle time, not communication.
    let mut cfg = test_cfg();
    cfg.capture_outputs = false;
    let report = run_on_transport(&cfg, TcpNetwork::loopback(cfg.ranks(), 4096).expect("mesh"));
    for i in 0..cfg.slaves {
        let u = report.usage.node(i);
        let wall = u.cpu_s() + u.comm_s() + u.idle_s();
        assert!(wall >= cfg.run.as_secs_f64() * 0.9, "slave {i} accounted {wall} s");
        let (busy, idle) = (u.cpu_s() / wall, u.idle_s() / wall);
        assert!(busy < 0.1, "slave {i}: busy share {busy}");
        assert!(idle >= 0.8, "slave {i}: idle share {idle}, comm {} s", u.comm_s());
    }
    assert_eq!(report.rank_cpu_us.len(), cfg.ranks());
    assert!(report.rank_cpu_us.iter().all(|&us| us > 0), "{:?}", report.rank_cpu_us);
    // Each rank's CPU is its own thread's: far below the run's wall.
    assert!(report.rank_cpu_us.iter().all(|&us| us < cfg.run.as_micros() as u64 / 2));
    assert!(report.batches > 0);
    assert!(report.outputs_frames <= report.batches, "{report:?}");
}
