//! `windjoin-node` — one rank of a multi-process windjoin cluster.
//!
//! Every rank of the topology (masters = ranks `0..m`, slaves = ranks
//! `m..m+n`, collector = rank `m+n`) runs one instance of this binary
//! with the **same** `--peers` list and workload flags; the processes
//! handshake into a full TCP mesh and then execute the paper's
//! master/slave/collector protocol over real sockets. With
//! `--masters 1` (the default) this is the classic Fig. 1 topology;
//! higher odd counts add hot-standby masters with a quorum-replicated
//! decision log and leader election.
//!
//! ```text
//! windjoin-node --rank <R> --peers <addr0,addr1,...> [workload flags]
//!
//! topology     --rank N            this process's rank
//!              --peers A,B,...     listen address of every rank, by rank
//!              --masters N         master ranks (use odd counts) [1]
//! job file     --job PATH          load a serialised JobSpec (the JSON
//!                                  written by JobSpec::to_json); all
//!                                  other workload flags override its
//!                                  fields, so flags are a thin layer
//!                                  over the same spec
//! workload     --rate F            tuples/s per stream      [500]
//!              --run-ms N          run length               [6000]
//!              --warmup-ms N       stats warm-up            [2000]
//!              --seed N            workload seed            [7]
//!              --window-ms N       sliding window (both)    [5000]
//!              --dist-epoch-ms N   distribution epoch       [200]
//!              --reorg-epoch-ms N  reorganization epoch     [2000]
//!              --npart N           hash partitions          [16]
//!              --keys SPEC         uniform:D | bmodel:B:D | zipf:S:D
//!                                  | constant:K             [bmodel:0.7:100000]
//!              --engine E          exact | counted          [exact]
//!              --payload-bytes N   wire payload width       [0]
//!              --adaptive-dod      enable §V-A adaptive declustering
//! liveness     --heartbeat-ms N    slave beacon interval; 0 off [500]
//!              --max-missed N      silent beacons before a slave is
//!                                  declared dead; 0 off     [20]
//! robustness   --checkpoint-every N  slaves snapshot owned partitions
//!                                  to a buddy every N batches; 0 off [0]
//! chaos        --die-after-batches N  (slave ranks only) crash this
//!                                  process after processing N batches
//!              --die-after-epochs N  (master ranks only) crash this
//!                                  process while leading epoch N
//! transport    --transport T       threaded | evented       [threaded]
//!              --handshake-ms N    mesh dial window         [30000]
//! output       --emit-pairs       collector prints every join pair
//! ```
//!
//! The collector prints machine-readable results to stdout
//! (`outputs_total`, `checksum`, optionally one `pair` line per join
//! result); all ranks log progress to stderr. See the README for a
//! copy-pasteable 4-process launch.

use std::net::SocketAddr;
use std::time::Duration;
use windjoin_cluster::{
    run_node, ChaosKill, EngineKind, JobSpec, MasterKill, NodeConfig, NodeOutcome, Runtime,
    TransportKind,
};
use windjoin_gen::KeyDist;

struct Args {
    rank: usize,
    peers: Vec<SocketAddr>,
    node: NodeConfig,
    handshake: Duration,
    transport: TransportKind,
    emit_pairs: bool,
}

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("windjoin-node: {msg}");
    eprintln!("usage: windjoin-node --rank <R> --peers <addr0,addr1,...> [flags]");
    eprintln!("run with the same --peers and workload flags on every rank;");
    eprintln!("ranks 0..m are masters, m..m+n slaves, rank m+n the collector.");
    std::process::exit(2);
}

fn parse_keys(spec: &str) -> Result<KeyDist, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let bad = |what: &str| format!("bad --keys {spec:?}: {what}");
    let num = |s: &str| s.parse::<u64>().map_err(|_| bad("integer expected"));
    let real = |s: &str| s.parse::<f64>().map_err(|_| bad("number expected"));
    match parts.as_slice() {
        ["uniform", d] => Ok(KeyDist::Uniform { domain: num(d)? }),
        ["bmodel", b, d] => Ok(KeyDist::BModel { bias: real(b)?, domain: num(d)? }),
        ["zipf", s, d] => Ok(KeyDist::Zipf { s: real(s)?, domain: num(d)? }),
        ["constant", k] => Ok(KeyDist::Constant { key: num(k)? }),
        _ => Err(bad("expected uniform:D | bmodel:B:D | zipf:S:D | constant:K")),
    }
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Flag values override the library defaults (`NodeConfig::demo`)
    // — never duplicated here, so default in-process and multi-process
    // runs stay comparable.
    let mut rank: Option<usize> = None;
    let mut peers: Vec<SocketAddr> = Vec::new();
    let mut job_path: Option<String> = None;
    let mut engine: Option<EngineKind> = None;
    let mut payload_bytes: Option<usize> = None;
    let mut rate: Option<f64> = None;
    let mut run_ms: Option<u64> = None;
    let mut warmup_ms: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut window_ms: Option<u64> = None;
    let mut dist_epoch_ms: Option<u64> = None;
    let mut reorg_epoch_ms: Option<u64> = None;
    let mut npart: Option<u32> = None;
    let mut keys: Option<KeyDist> = None;
    let mut adaptive_dod = false;
    let mut heartbeat_ms: Option<u64> = None;
    let mut max_missed: Option<u32> = None;
    let mut masters: Option<usize> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut die_after_batches: Option<u64> = None;
    let mut die_after_epochs: Option<u64> = None;
    let mut handshake_ms: Option<u64> = None;
    let mut transport: Option<TransportKind> = None;
    let mut emit_pairs = false;

    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage_and_exit(&format!("{flag} needs a value")))
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].clone();
        match flag.as_str() {
            "--rank" => {
                rank = Some(
                    value(&mut i, &flag).parse().unwrap_or_else(|_| usage_and_exit("bad --rank")),
                )
            }
            "--peers" => {
                peers = value(&mut i, &flag)
                    .split(',')
                    .map(|a| {
                        a.parse()
                            .unwrap_or_else(|_| usage_and_exit(&format!("bad peer address {a:?}")))
                    })
                    .collect()
            }
            "--job" => job_path = Some(value(&mut i, &flag)),
            "--engine" => {
                engine = Some(match value(&mut i, &flag).as_str() {
                    "exact" => EngineKind::Exact,
                    "counted" => EngineKind::Counted,
                    other => usage_and_exit(&format!(
                        "bad --engine {other:?} (expected exact | counted)"
                    )),
                })
            }
            "--payload-bytes" => {
                payload_bytes = Some(
                    value(&mut i, &flag)
                        .parse()
                        .unwrap_or_else(|_| usage_and_exit("bad --payload-bytes")),
                )
            }
            "--rate" => {
                rate = Some(
                    value(&mut i, &flag).parse().unwrap_or_else(|_| usage_and_exit("bad --rate")),
                )
            }
            "--run-ms" => {
                run_ms = Some(
                    value(&mut i, &flag).parse().unwrap_or_else(|_| usage_and_exit("bad --run-ms")),
                )
            }
            "--warmup-ms" => {
                warmup_ms = Some(
                    value(&mut i, &flag)
                        .parse()
                        .unwrap_or_else(|_| usage_and_exit("bad --warmup-ms")),
                )
            }
            "--seed" => {
                seed = Some(
                    value(&mut i, &flag).parse().unwrap_or_else(|_| usage_and_exit("bad --seed")),
                )
            }
            "--window-ms" => {
                window_ms = Some(
                    value(&mut i, &flag)
                        .parse()
                        .unwrap_or_else(|_| usage_and_exit("bad --window-ms")),
                )
            }
            "--dist-epoch-ms" => {
                dist_epoch_ms = Some(
                    value(&mut i, &flag)
                        .parse()
                        .unwrap_or_else(|_| usage_and_exit("bad --dist-epoch-ms")),
                )
            }
            "--reorg-epoch-ms" => {
                reorg_epoch_ms = Some(
                    value(&mut i, &flag)
                        .parse()
                        .unwrap_or_else(|_| usage_and_exit("bad --reorg-epoch-ms")),
                )
            }
            "--npart" => {
                npart = Some(
                    value(&mut i, &flag).parse().unwrap_or_else(|_| usage_and_exit("bad --npart")),
                )
            }
            "--keys" => {
                keys =
                    Some(parse_keys(&value(&mut i, &flag)).unwrap_or_else(|e| usage_and_exit(&e)))
            }
            "--adaptive-dod" => adaptive_dod = true,
            "--heartbeat-ms" => {
                heartbeat_ms = Some(
                    value(&mut i, &flag)
                        .parse()
                        .unwrap_or_else(|_| usage_and_exit("bad --heartbeat-ms")),
                )
            }
            "--max-missed" => {
                max_missed = Some(
                    value(&mut i, &flag)
                        .parse()
                        .unwrap_or_else(|_| usage_and_exit("bad --max-missed")),
                )
            }
            "--masters" => {
                masters = Some(
                    value(&mut i, &flag)
                        .parse()
                        .unwrap_or_else(|_| usage_and_exit("bad --masters")),
                )
            }
            "--checkpoint-every" => {
                checkpoint_every = Some(
                    value(&mut i, &flag)
                        .parse()
                        .unwrap_or_else(|_| usage_and_exit("bad --checkpoint-every")),
                )
            }
            "--die-after-batches" => {
                die_after_batches = Some(
                    value(&mut i, &flag)
                        .parse()
                        .unwrap_or_else(|_| usage_and_exit("bad --die-after-batches")),
                )
            }
            "--die-after-epochs" => {
                die_after_epochs = Some(
                    value(&mut i, &flag)
                        .parse()
                        .unwrap_or_else(|_| usage_and_exit("bad --die-after-epochs")),
                )
            }
            "--handshake-ms" => {
                handshake_ms = Some(
                    value(&mut i, &flag)
                        .parse()
                        .unwrap_or_else(|_| usage_and_exit("bad --handshake-ms")),
                )
            }
            "--transport" => {
                transport = Some(
                    TransportKind::parse(&value(&mut i, &flag))
                        .unwrap_or_else(|e| usage_and_exit(&e)),
                )
            }
            "--emit-pairs" => emit_pairs = true,
            other => usage_and_exit(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }

    let Some(rank) = rank else { usage_and_exit("--rank is required") };
    let masters = masters.unwrap_or(1);
    if masters == 0 {
        usage_and_exit("--masters must be >= 1");
    }
    if peers.len() < masters + 2 {
        usage_and_exit(
            "--peers needs at least masters + 2 addresses (masters, ≥1 slave, collector)",
        );
    }
    let slaves = peers.len() - masters - 1;

    // Start from the job file (if given) or the library defaults;
    // flags override field by field, so the CLI is a thin layer over
    // the same `JobSpec` every runtime consumes.
    let mut job_is_replay = false;
    let mut node = match &job_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| usage_and_exit(&format!("reading --job {path}: {e}")));
            let mut spec = JobSpec::from_json(&text)
                .unwrap_or_else(|e| usage_and_exit(&format!("--job {path}: {e}")));
            job_is_replay = matches!(spec.source, windjoin_cluster::SourceSpec::Replay { .. });
            if spec.slaves != slaves {
                eprintln!(
                    "windjoin-node: --peers implies {slaves} slave(s); overriding the job \
                     file's {}",
                    spec.slaves
                );
                // A spare pool stays a pool (and is rejected below).
                if spec.total_slaves == spec.slaves {
                    spec.total_slaves = slaves;
                }
                spec.slaves = slaves;
            }
            spec.to_node_config().unwrap_or_else(|e| usage_and_exit(&e.to_string()))
        }
        None => NodeConfig::demo(slaves),
    };
    if let Some(e) = engine {
        node.engine = e;
    }
    if let Some(w) = payload_bytes {
        node.payload_bytes = w;
    }
    if let Some(ms) = dist_epoch_ms {
        node.params = node.params.with_dist_epoch_us(ms * 1_000);
    }
    if let Some(ms) = window_ms {
        node.params.sem.w_left_us = ms * 1_000;
        node.params.sem.w_right_us = ms * 1_000;
    }
    if let Some(ms) = reorg_epoch_ms {
        node.params.reorg_epoch_us = ms * 1_000;
    }
    if let Some(n) = npart {
        node.params.npart = n;
    }
    if rate.is_some() || keys.is_some() {
        // Explicit workload flags win over a *synthetic* job source:
        // drop the override so `rate`/`keys` drive a constant
        // synthetic source again. A replay tape has no rate or key
        // distribution to override — reject the ambiguity.
        if job_is_replay {
            usage_and_exit("--rate/--keys conflict with a replay-source --job file");
        }
        node.source = None;
    }
    if let Some(r) = rate {
        node.rate = r;
    }
    if let Some(k) = keys {
        node.keys = k;
    }
    if let Some(s) = seed {
        node.seed = s;
    }
    if let Some(ms) = run_ms {
        node.run = Duration::from_millis(ms);
    }
    if let Some(ms) = warmup_ms {
        node.warmup = Duration::from_millis(ms);
    }
    if adaptive_dod {
        node.adaptive_dod = true;
    }
    if emit_pairs {
        node.capture_outputs = true;
    }
    if let Some(ms) = heartbeat_ms {
        node.heartbeat = Duration::from_millis(ms);
    }
    if let Some(n) = max_missed {
        node.max_missed = n;
    }
    node.masters = masters;
    if let Some(n) = checkpoint_every {
        node.checkpoint_every = n;
    }
    if let Some(n) = die_after_batches {
        if rank < masters || rank + 1 >= peers.len() {
            usage_and_exit("--die-after-batches applies to slave ranks only");
        }
        if n == 0 {
            // The trigger compares after the Nth batch: 0 would mean
            // "never fire", a silently useless chaos config.
            usage_and_exit("--die-after-batches must be >= 1");
        }
        // The chaos kill applies to *this* process: a real crash via
        // process exit, pinned to a protocol point for determinism.
        node.chaos =
            vec![ChaosKill { slave: rank - masters, after_batches: n, exit_process: true }];
    }
    if let Some(n) = die_after_epochs {
        if rank >= masters {
            usage_and_exit("--die-after-epochs applies to master ranks only");
        }
        node.chaos_master = Some(MasterKill { master: rank, after_epochs: n, exit_process: true });
    }

    Args {
        rank,
        peers,
        node,
        handshake: Duration::from_millis(handshake_ms.unwrap_or(30_000)),
        transport: transport.unwrap_or_default(),
        emit_pairs,
    }
}

fn main() {
    let args = parse_args();
    // Every rank runs the multi-process runtime: what only the
    // simulator models (spare slaves, epoch tuning) is an error here.
    let role = args
        .node
        .validate(Runtime::Tcp)
        .and_then(|()| args.node.role_of(args.rank, args.peers.len()))
        .unwrap_or_else(|e| usage_and_exit(&e.to_string()));
    eprintln!(
        "windjoin-node rank {} ({role:?}): joining a {}-rank mesh at {}",
        args.rank,
        args.peers.len(),
        args.peers[args.rank]
    );
    let outcome = match run_node(args.rank, &args.peers, &args.node, args.transport, args.handshake)
    {
        Ok(o) => o,
        Err(e) => {
            eprintln!("windjoin-node rank {}: {e}", args.rank);
            std::process::exit(1);
        }
    };
    match outcome {
        NodeOutcome::Master(m) => {
            if m.led_shutdown {
                eprintln!(
                    "master done: {} tuples ingested, {} partition moves, final degree {} \
                     (term {}), wire {} B out / {} B in",
                    m.tuples_in, m.moves, m.final_degree, m.term, m.bytes_sent, m.bytes_recvd
                );
                if !m.dead_slaves.is_empty() || !m.loss.is_zero() {
                    // Machine-readable failure accounting (chaos CI greps it).
                    eprintln!(
                        "master loss: dead_slaves {:?} groups_lost {} tuples_lost {}",
                        m.dead_slaves, m.loss.groups_lost, m.loss.tuples_lost
                    );
                }
            } else {
                // A standby that never led (or a deposed leader) defers
                // the run's accounting to whoever led the shutdown.
                eprintln!("standby master done at term {}", m.term);
            }
        }
        NodeOutcome::Slave(s) => {
            eprintln!(
                "slave done: {} comparisons, cpu {:.1} ms, comm {:.1} ms, wire {} B out / {} B in, \
                 state peak {} B",
                s.work.comparisons,
                s.cpu_us as f64 / 1e3,
                s.comm_us as f64 / 1e3,
                s.work.bytes_sent,
                s.work.bytes_recvd,
                s.peak_state_bytes
            );
        }
        NodeOutcome::Collector(c) => {
            eprintln!(
                "collector done: {} outputs, mean delay {:.1} ms, wire {} B out / {} B in",
                c.outputs_total,
                c.delay.mean_delay_s() * 1e3,
                c.bytes_sent,
                c.bytes_recvd
            );
            // Machine-readable summary (consumed by tests and scripts).
            println!("outputs_total {}", c.outputs_total);
            println!("checksum {:016x}", c.checksum);
            if args.emit_pairs {
                for p in &c.captured {
                    println!(
                        "pair {} {} {} {} {}",
                        p.key, p.left.0, p.left.1, p.right.0, p.right.1
                    );
                }
            }
        }
    }
}
