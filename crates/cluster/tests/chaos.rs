//! Chaos tests: a slave dies mid-run and the cluster must (a) terminate
//! — the kill-safe drain completes on the *live* slaves — and (b) stay
//! correct: outputs of partitions whose state survived are **exactly**
//! the single-process oracle's, outputs of the dead slave's partitions
//! are a sound subset (never a wrong or duplicate pair), and the
//! abandoned state is accounted as a window-bounded loss in `WorkStats`.
//!
//! The kill is injected at a fixed protocol point (after the victim
//! processes its Nth batch) so the surviving-partition set is
//! deterministic; wall-clock jitter only shifts which in-flight tuples
//! of the *dead* partitions are lost, which the subset assertion
//! absorbs.

use std::collections::HashSet;
use std::time::Duration;
use windjoin_cluster::api::synth_payload;
use windjoin_cluster::{nodes, run_on_transport, run_threaded, ChaosKill, NodeConfig, RunReport};
use windjoin_core::hash::partition_of;
use windjoin_core::{
    reference_join, MatchCtx, MatchSide, OutPair, Residual, ResidualSpec, Side, Tuple,
};
use windjoin_gen::{merge_streams, KeyDist, RateSchedule, StreamSpec};
use windjoin_net::{ChannelNetwork, Message, NetEvent, TcpNetwork, TransportEndpoint};

const KILLED_SLAVE: usize = 1;
const KILL_AFTER_BATCHES: u64 = 5;

fn chaos_cfg() -> NodeConfig {
    let mut cfg = NodeConfig::demo(3);
    cfg.params.sem.w_left_us = 2_000_000;
    cfg.params.sem.w_right_us = 2_000_000;
    cfg.rate = 400.0;
    cfg.keys = KeyDist::Uniform { domain: 500 };
    cfg.run = Duration::from_secs(3);
    cfg.warmup = Duration::from_millis(500);
    cfg.seed = 4242;
    cfg.capture_outputs = true;
    cfg.chaos = vec![ChaosKill {
        slave: KILLED_SLAVE,
        after_batches: KILL_AFTER_BATCHES,
        exit_process: false,
    }];
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
    // The equality matches, then the run's residual predicate over the
    // synthetic source's payloads (`ALWAYS` and no payloads by default).
    let payload = |side, (_, seq), key| synth_payload(side, seq, key, cfg.payload_bytes);
    let mut pairs = reference_join(&arrivals, &cfg.params.sem);
    pairs.retain(|p| {
        let (left, right) =
            (payload(Side::Left, p.left, p.key), payload(Side::Right, p.right, p.key));
        cfg.residual.keep(&MatchCtx {
            key: p.key,
            left: MatchSide { t: p.left.0, seq: p.left.1, payload: &left },
            right: MatchSide { t: p.right.0, seq: p.right.1, payload: &right },
        })
    });
    pairs
}

/// Partitions initially owned by the killed slave — with uniform keys
/// and low rate there are no suppliers, so no load move ever relocates
/// a partition and the dead set is exactly the initial assignment.
fn dead_partitions(cfg: &NodeConfig) -> HashSet<u32> {
    windjoin_cluster::threadrt::initial_partitions(&cfg.params, cfg.slaves, KILLED_SLAVE)
        .into_iter()
        .collect()
}

/// `(key, left_seq, right_seq)` — the identity of one output pair.
type PairId = (u64, u64, u64);

/// Splits pair identities by whether their partition survived.
fn split_by_survival(
    pairs: impl IntoIterator<Item = PairId>,
    dead: &HashSet<u32>,
    npart: u32,
) -> (Vec<PairId>, Vec<PairId>) {
    let (mut surviving, mut lost) = (Vec::new(), Vec::new());
    for p in pairs {
        if dead.contains(&partition_of(p.0, npart)) {
            lost.push(p);
        } else {
            surviving.push(p);
        }
    }
    surviving.sort_unstable();
    lost.sort_unstable();
    (surviving, lost)
}

fn triples(pairs: &[OutPair]) -> Vec<PairId> {
    pairs.iter().map(|p| (p.key, p.left.1, p.right.1)).collect()
}

/// Runs `f` on a watchdog thread: a hang (the old behaviour when a rank
/// died) fails the test instead of wedging the suite.
fn with_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(120))
        .expect("cluster hung after the slave death: kill-safe drain failed")
}

fn assert_chaos_invariants(cfg: &NodeConfig, report: &RunReport) {
    let dead = dead_partitions(cfg);
    let npart = cfg.params.npart;
    assert!(!dead.is_empty());

    let oracle = oracle_pairs(cfg);
    let (oracle_surviving, oracle_lost) = split_by_survival(triples(&oracle), &dead, npart);
    let (got_surviving, got_lost) = split_by_survival(triples(&report.captured), &dead, npart);

    // No duplicates anywhere.
    let mut all = triples(&report.captured);
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "slave death produced duplicate outputs");

    // Surviving partitions: exactly the oracle.
    assert!(!oracle_surviving.is_empty(), "workload too small to exercise the property");
    assert_eq!(
        got_surviving, oracle_surviving,
        "surviving partitions diverged from the oracle after the slave death"
    );

    // Dead partitions: a sound subset — state loss suppresses matches,
    // never fabricates them — and a *strict* subset (the kill landed
    // mid-run, so some window state really was lost).
    let oracle_lost: HashSet<_> = oracle_lost.into_iter().collect();
    for p in &got_lost {
        assert!(oracle_lost.contains(p), "non-oracle pair {p:?} from a recovered partition");
    }
    assert!(
        got_lost.len() < oracle_lost.len(),
        "kill too late to lose anything: got {} of {} lost-partition pairs",
        got_lost.len(),
        oracle_lost.len()
    );

    // The loss is accounted: one group per dead partition, and a
    // nonzero window-bounded tuple count.
    assert_eq!(report.work.groups_lost, dead.len() as u64, "every dead group accounted");
    assert!(report.work.tuples_lost > 0, "window loss must be accounted in WorkStats");
}

#[test]
fn threaded_cluster_survives_slave_death() {
    let cfg = chaos_cfg();
    let report = {
        let cfg = cfg.clone();
        with_watchdog(move || run_threaded(&cfg))
    };
    assert!(report.outputs_total > 0);
    assert_chaos_invariants(&cfg, &report);
}

#[test]
fn wedged_slave_is_declared_dead_by_heartbeats() {
    // The failure no transport event ever reports: a slave that stays
    // connected but stops responding. The master must declare it dead
    // by missed heartbeats, re-home its partitions, tell the collector
    // to stop waiting for it, and the run must still terminate with
    // surviving partitions exactly matching the oracle.
    let mut cfg = chaos_cfg();
    cfg.chaos = Vec::new();
    cfg.slaves = 2;
    cfg.total_slaves = 2;
    cfg.heartbeat = Duration::from_millis(50);
    cfg.max_missed = 8; // declared dead after ~400 ms of silence
    cfg.run = Duration::from_secs(2);
    let cfg2 = cfg.clone();

    let (master, collector) = with_watchdog(move || {
        let cfg = cfg2;
        let mut net = ChannelNetwork::new(cfg.ranks(), 4096);
        let m_ep = net.take(0);
        let s_ep = net.take(1);
        let z_ep = net.take(2);
        let c_ep = net.take(cfg.collector_rank());
        std::thread::scope(|sc| {
            let cfg = &cfg;
            // Endpoints move into their threads so they drop when the
            // node loop returns — the master's exit is what releases
            // the zombie (PeerDown(0)) and lets the scope close.
            let master = sc.spawn(move || nodes::master_node(&m_ep, cfg));
            let collector = sc.spawn(move || nodes::collector_node(&c_ep, cfg));
            sc.spawn(move || nodes::slave_node(&s_ep, 0, cfg));
            // The zombie: drains its inbox (so nobody blocks on it) but
            // never beacons, processes or acknowledges anything.
            sc.spawn(move || loop {
                match z_ep.recv_event_timeout(Duration::from_millis(100)) {
                    Ok(Some(NetEvent::PeerDown(0))) | Err(_) => break,
                    _ => continue,
                }
            });
            (master.join().expect("master"), collector.join().expect("collector"))
        })
    });

    // The zombie's partitions were re-homed and charged as lost.
    let dead = dead_partitions(&cfg);
    assert_eq!(master.loss.groups_lost, dead.len() as u64);
    assert_eq!(master.dead_slaves, vec![KILLED_SLAVE]);

    // Survivors are exact, the zombie's partitions a sound subset.
    let oracle = oracle_pairs(&cfg);
    let npart = cfg.params.npart;
    let (oracle_surviving, oracle_lost) = split_by_survival(triples(&oracle), &dead, npart);
    let (got_surviving, got_lost) = split_by_survival(triples(&collector.captured), &dead, npart);
    assert!(!oracle_surviving.is_empty());
    assert_eq!(got_surviving, oracle_surviving, "survivors diverged under a wedged slave");
    let oracle_lost: HashSet<_> = oracle_lost.into_iter().collect();
    for p in &got_lost {
        assert!(oracle_lost.contains(p), "non-oracle pair {p:?}");
    }
}

#[test]
fn leave_directive_is_a_clean_goodbye_to_both_sinks() {
    // Planned departure: a slave ordered to `Leave` must announce
    // `Goodbye` to the master *and* the collector before exiting, so
    // both distinguish the clean exit from a crash — and the goodbye
    // must precede the transport teardown notice (per-peer FIFO).
    let mut cfg = chaos_cfg();
    cfg.chaos = Vec::new();
    cfg.slaves = 1;
    cfg.total_slaves = 1;
    let mut net = ChannelNetwork::new(cfg.ranks(), 64);
    let m_ep = net.take(0);
    let s_ep = net.take(1);
    let c_ep = net.take(cfg.collector_rank());
    let slave = {
        let cfg = cfg.clone();
        std::thread::spawn(move || nodes::slave_node(&s_ep, 0, &cfg))
    };
    m_ep.send(1, Message::Leave.encode()).unwrap();
    // The master hears Goodbye (heartbeats may precede it).
    loop {
        let f = m_ep.recv().unwrap();
        match Message::decode(f.payload).unwrap() {
            Message::Goodbye => break,
            Message::Heartbeat { .. } | Message::Occupancy(_) => continue,
            other => panic!("master got {other:?} instead of Goodbye"),
        }
    }
    // The collector hears Goodbye strictly before the teardown notice.
    match c_ep.recv_event().unwrap() {
        NetEvent::Frame(f) => {
            assert_eq!(f.from, 1);
            assert_eq!(Message::decode(f.payload).unwrap(), Message::Goodbye);
        }
        other => panic!("collector got {other:?} before the Goodbye"),
    }
    slave.join().expect("slave exits cleanly after Leave");
    assert_eq!(c_ep.recv_event().unwrap(), NetEvent::PeerDown(1));
}

// ---- 4-process TCP chaos ------------------------------------------------

/// Equivalent in-process view of the flags passed to `windjoin-node`
/// below (for the oracle and the dead-partition set).
fn process_cfg() -> NodeConfig {
    let mut cfg = chaos_cfg();
    cfg.slaves = 2; // 4 ranks: master + 2 slaves + collector
    cfg.total_slaves = 2;
    cfg
}

fn artifact_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/chaos-artifacts");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    dir
}

/// One chaos cluster launch through `windjoin-launch` (which reserves
/// ports by binding port 0 and retries reservation races itself): rank
/// 2 (slave 1) crashes after [`KILL_AFTER_BATCHES`] batches. Returns
/// the collector stdout and the master stderr log.
fn launch_chaos_cluster(cfg: &NodeConfig) -> (String, String) {
    use std::process::Command;
    let dir = artifact_dir();
    let out = Command::new(env!("CARGO_BIN_EXE_windjoin-launch"))
        .args(["--ranks", &cfg.ranks().to_string()])
        .args(["--bin", env!("CARGO_BIN_EXE_windjoin-node")])
        .args(["--log-dir", dir.to_str().unwrap()])
        .args(["--out", dir.join("collector.out").to_str().unwrap()])
        .args(["--kill-rank", &(1 + KILLED_SLAVE).to_string()])
        .args(["--die-after-batches", &KILL_AFTER_BATCHES.to_string()])
        .arg("--")
        .args(["--rate", &cfg.rate.to_string()])
        .args(["--run-ms", &cfg.run.as_millis().to_string()])
        .args(["--warmup-ms", &cfg.warmup.as_millis().to_string()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--window-ms", "2000"])
        .args(["--keys", "uniform:500"])
        .args(["--handshake-ms", "10000"])
        .arg("--emit-pairs")
        .output()
        .expect("run windjoin-launch");
    assert!(
        out.status.success(),
        "windjoin-launch failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let master_log = std::fs::read_to_string(dir.join("rank0.log")).expect("master log captured");
    let victim_log = std::fs::read_to_string(dir.join(format!("rank{}.log", 1 + KILLED_SLAVE)))
        .expect("victim log captured");
    assert!(victim_log.contains("chaos kill"), "the victim never died:\n{victim_log}");
    (String::from_utf8(out.stdout).expect("utf8 stdout"), master_log)
}

#[test]
fn multiprocess_cluster_survives_slave_kill() {
    let cfg = process_cfg();
    let (stdout, master_log) = {
        let cfg = cfg.clone();
        with_watchdog(move || launch_chaos_cluster(&cfg))
    };

    let mut pairs: Vec<PairId> = Vec::new();
    let mut outputs_total: Option<u64> = None;
    for line in stdout.lines() {
        let mut it = line.split_whitespace();
        match it.next() {
            Some("outputs_total") => outputs_total = Some(it.next().unwrap().parse().unwrap()),
            Some("pair") => {
                let f: Vec<u64> = it.map(|v| v.parse().unwrap()).collect();
                pairs.push((f[0], f[2], f[4])); // key, left seq, right seq
            }
            _ => {}
        }
    }
    let outputs_total = outputs_total.expect("collector printed outputs_total");
    assert_eq!(pairs.len() as u64, outputs_total);
    assert!(outputs_total > 0, "chaos cluster produced nothing");

    // Same invariants as in-process: surviving partitions exact, dead
    // partitions a sound strict subset, no duplicates.
    let dead = dead_partitions(&cfg);
    let npart = cfg.params.npart;
    let oracle = oracle_pairs(&cfg);
    let (oracle_surviving, oracle_lost) = split_by_survival(triples(&oracle), &dead, npart);
    let (got_surviving, got_lost) = split_by_survival(pairs.clone(), &dead, npart);
    let mut all = pairs;
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "duplicate outputs after the kill");
    assert_eq!(got_surviving, oracle_surviving, "surviving partitions != oracle");
    let oracle_lost: HashSet<_> = oracle_lost.into_iter().collect();
    for p in &got_lost {
        assert!(oracle_lost.contains(p), "non-oracle pair {p:?}");
    }
    assert!(got_lost.len() < oracle_lost.len(), "kill lost nothing");

    // The master accounted the loss (machine-readable stderr line).
    let loss_line = master_log
        .lines()
        .find(|l| l.starts_with("master loss:"))
        .expect("master printed its loss accounting");
    assert!(loss_line.contains(&format!("groups_lost {}", dead.len())), "bad loss: {loss_line}");
    let tuples_lost: u64 = loss_line
        .split("tuples_lost ")
        .nth(1)
        .and_then(|v| v.trim().parse().ok())
        .expect("tuples_lost in the loss line");
    assert!(tuples_lost > 0, "window loss must be accounted: {loss_line}");
}

// ---- Replicated control plane -------------------------------------------

/// A robust config: 3 masters (leader + 2 hot standbys), fast beacons
/// so failover fits in a short test run, no slave chaos by default.
fn robust_cfg() -> NodeConfig {
    let mut cfg = chaos_cfg();
    cfg.chaos = Vec::new();
    cfg.masters = 3;
    cfg.heartbeat = Duration::from_millis(100);
    cfg
}

fn assert_exact_oracle(cfg: &NodeConfig, report: &RunReport) {
    let mut got = triples(&report.captured);
    let n = got.len();
    got.sort_unstable();
    got.dedup();
    assert_eq!(got.len(), n, "duplicate outputs");
    let mut oracle = triples(&oracle_pairs(cfg));
    oracle.sort_unstable();
    assert_eq!(got, oracle, "output set diverged from the no-fault oracle");
    assert_eq!(report.work.groups_lost, 0, "no group may be charged as lost");
    assert_eq!(report.work.tuples_lost, 0, "no tuple may be charged as lost");
}

#[test]
fn standby_masters_without_faults_match_the_oracle() {
    // The replicated control plane (sealed frames, quorum-logged
    // decisions, delivery guards) must be invisible when nothing fails.
    let cfg = robust_cfg();
    let report = {
        let cfg = cfg.clone();
        with_watchdog(move || run_threaded(&cfg))
    };
    assert!(report.outputs_total > 0);
    assert!(report.dead_slaves.is_empty());
    assert_exact_oracle(&cfg, &report);
}

#[test]
fn leader_kill_with_standbys_loses_nothing() {
    // The acceptance bar for the replicated control plane: kill the
    // leading master mid-run with all slaves surviving — a standby must
    // take over, re-ingest from sequence zero (the slaves' delivery
    // guards absorb the redelivery) and the run must terminate with the
    // output set EXACTLY equal to the no-fault oracle. Zero loss.
    let mut cfg = robust_cfg();
    cfg.chaos_master =
        Some(windjoin_cluster::MasterKill { master: 0, after_epochs: 5, exit_process: false });
    let report = {
        let cfg = cfg.clone();
        with_watchdog(move || run_threaded(&cfg))
    };
    assert!(report.outputs_total > 0);
    assert!(report.dead_slaves.is_empty(), "no slave died in this scenario");
    assert_exact_oracle(&cfg, &report);
}

#[test]
fn checkpointed_slave_kill_loses_nothing_for_covered_partitions() {
    // With per-batch buddy checkpoints every partition of the victim is
    // covered at the instant of death (the snapshot is taken after each
    // fully processed batch, before the chaos trigger), so the recovery
    // restores every group from its buddy and replays the tail — the
    // output set must equal the no-fault oracle exactly, with zero
    // tuples charged as lost, even though a slave really died.
    //
    // Second input: the same kill on a payload-carrying run under a
    // residual that reads the payloads. The checkpoint frames then carry
    // the partitions' payload entries, the restore installs them at the
    // buddy and the tail replay re-sends payload batches; a restored
    // tuple that lost its bytes would read as zero and flip verdicts
    // either way, so equality with the oracle proves the payloads
    // survived with their window.
    for payload_bytes in [0usize, 24] {
        let mut cfg = chaos_cfg();
        cfg.checkpoint_every = 1;
        if payload_bytes > 0 {
            cfg.payload_bytes = payload_bytes;
            cfg.residual = Residual::Spec(ResidualSpec::PayloadBandU64 { max_delta: u64::MAX / 4 });
        }
        let report = {
            let cfg = cfg.clone();
            with_watchdog(move || run_threaded(&cfg))
        };
        assert!(report.outputs_total > 0);
        assert_eq!(report.dead_slaves, vec![KILLED_SLAVE], "the victim must be declared dead");
        assert_eq!(report.work.residual_dropped > 0, payload_bytes > 0, "the residual must bite");
        assert_exact_oracle(&cfg, &report);
    }
}

#[test]
fn double_slave_fault_keeps_survivors_exact_and_accounts_loss() {
    // Two slaves die in the same heartbeat window (same protocol point,
    // no checkpointing). Survivor-owned partitions must still match the
    // oracle exactly; dead-partition outputs must be a sound subset;
    // and the loss accounting must balance: both victims dead, every
    // dead partition-group charged (a group adopted by the second
    // victim between the deaths may be charged twice — once with its
    // real window state, once as an empty re-adoption), nonzero
    // window-bounded tuple loss.
    let mut cfg = chaos_cfg();
    cfg.slaves = 4;
    cfg.total_slaves = 4;
    cfg.chaos = vec![
        ChaosKill { slave: 1, after_batches: KILL_AFTER_BATCHES, exit_process: false },
        ChaosKill { slave: 2, after_batches: KILL_AFTER_BATCHES, exit_process: false },
    ];
    let report = {
        let cfg = cfg.clone();
        with_watchdog(move || run_threaded(&cfg))
    };
    assert!(report.outputs_total > 0);
    assert_eq!(report.dead_slaves, vec![1, 2]);

    let dead: HashSet<u32> = [1usize, 2]
        .iter()
        .flat_map(|&s| windjoin_cluster::threadrt::initial_partitions(&cfg.params, cfg.slaves, s))
        .collect();
    let npart = cfg.params.npart;
    let oracle = oracle_pairs(&cfg);
    let (oracle_surviving, oracle_lost) = split_by_survival(triples(&oracle), &dead, npart);
    let (got_surviving, got_lost) = split_by_survival(triples(&report.captured), &dead, npart);

    let mut all = triples(&report.captured);
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "double fault produced duplicate outputs");

    assert!(!oracle_surviving.is_empty());
    assert_eq!(got_surviving, oracle_surviving, "survivors diverged after the double fault");
    let oracle_lost: HashSet<_> = oracle_lost.into_iter().collect();
    for p in &got_lost {
        assert!(oracle_lost.contains(p), "non-oracle pair {p:?}");
    }

    // The accounting balances: every dead partition charged at least
    // once, bounce re-adoptions can only add empty groups on top, and
    // real window state was abandoned.
    assert!(
        report.work.groups_lost >= dead.len() as u64,
        "{} dead partitions but only {} groups charged",
        dead.len(),
        report.work.groups_lost
    );
    assert!(
        report.work.groups_lost <= 2 * dead.len() as u64,
        "implausible group-loss count {}",
        report.work.groups_lost
    );
    assert!(report.work.tuples_lost > 0, "window loss must be accounted");
}

/// Real-process leader kill through `windjoin-launch`: rank 0 (the boot
/// leader of a 3-master cluster) is crashed via `--die-after-epochs`, a
/// standby takes over, and the collector's captured pairs must equal
/// the no-fault oracle exactly — zero loss with all slaves surviving.
#[test]
fn multiprocess_cluster_survives_leader_kill() {
    use std::process::Command;
    let mut cfg = robust_cfg();
    cfg.slaves = 2; // 6 ranks: 3 masters + 2 slaves + collector
    cfg.total_slaves = 2;
    let dir = artifact_dir().join("master-kill");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let (stdout, logs) = {
        let cfg = cfg.clone();
        let dir = dir.clone();
        with_watchdog(move || {
            let out = Command::new(env!("CARGO_BIN_EXE_windjoin-launch"))
                .args(["--ranks", &cfg.ranks().to_string()])
                .args(["--masters", &cfg.masters.to_string()])
                .args(["--bin", env!("CARGO_BIN_EXE_windjoin-node")])
                .args(["--log-dir", dir.to_str().unwrap()])
                .args(["--out", dir.join("collector.out").to_str().unwrap()])
                .args(["--kill-rank", "0"])
                .args(["--die-after-epochs", "5"])
                .arg("--")
                .args(["--rate", &cfg.rate.to_string()])
                .args(["--run-ms", &cfg.run.as_millis().to_string()])
                .args(["--warmup-ms", &cfg.warmup.as_millis().to_string()])
                .args(["--seed", &cfg.seed.to_string()])
                .args(["--window-ms", "2000"])
                .args(["--keys", "uniform:500"])
                .args(["--heartbeat-ms", "100"])
                .args(["--handshake-ms", "10000"])
                .arg("--emit-pairs")
                .output()
                .expect("run windjoin-launch");
            assert!(
                out.status.success(),
                "windjoin-launch failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let logs: String = (0..cfg.masters)
                .map(|r| {
                    std::fs::read_to_string(dir.join(format!("rank{r}.log"))).unwrap_or_default()
                })
                .collect();
            (String::from_utf8(out.stdout).expect("utf8 stdout"), logs)
        })
    };

    assert!(logs.contains("chaos kill while leading"), "the leader never died:\n{logs}");
    assert!(logs.contains("promoted at term"), "no standby took over:\n{logs}");

    let mut pairs: Vec<PairId> = Vec::new();
    for line in stdout.lines() {
        let mut it = line.split_whitespace();
        if it.next() == Some("pair") {
            let f: Vec<u64> = it.map(|v| v.parse().unwrap()).collect();
            pairs.push((f[0], f[2], f[4]));
        }
    }
    assert!(!pairs.is_empty(), "leader-kill cluster produced nothing");
    let n = pairs.len();
    pairs.sort_unstable();
    pairs.dedup();
    assert_eq!(pairs.len(), n, "duplicate outputs after the leader kill");
    let mut oracle = triples(&oracle_pairs(&cfg));
    oracle.sort_unstable();
    assert_eq!(pairs, oracle, "leader failover lost or fabricated outputs");
}

#[test]
fn tcp_loopback_cluster_survives_slave_death() {
    let cfg = chaos_cfg();
    let report = {
        let cfg = cfg.clone();
        with_watchdog(move || {
            let net = TcpNetwork::loopback(cfg.ranks(), 4096).expect("loopback mesh");
            run_on_transport(&cfg, net)
        })
    };
    assert!(report.outputs_total > 0);
    assert_chaos_invariants(&cfg, &report);
}
