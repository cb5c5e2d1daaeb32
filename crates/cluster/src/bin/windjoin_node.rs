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
//! The flags are [`USAGE`]'s, which set up the rank, and one job flag
//! per row of `windjoin_cluster::options::OPTIONS` marked `CLI`
//! (`--rate`, `--run-ms`, ...); a bad flag prints both lists. The
//! collector prints machine-readable results to stdout
//! (`outputs_total`, `checksum`, optionally one `pair` line per join
//! result); all ranks log progress to stderr. See the README for a
//! copy-pasteable 4-process launch.

use std::net::SocketAddr;
use std::str::FromStr;
use std::time::Duration;
use windjoin_cluster::options::{flag_usage, JobFlags};
use windjoin_cluster::{
    run_node, ChaosKill, JobSpec, MasterKill, NodeConfig, NodeOutcome, Runtime, SinkSpec,
};

/// The flags that set up the rank rather than the job.
const USAGE: &str = "\
usage: windjoin-node --rank <R> --peers <addr0,addr1,...> [flags]
run with the same --peers and workload flags on every rank;
ranks 0..m are masters, m..m+n slaves, rank m+n the collector.

  --rank N                 this process's rank
  --peers A,B,...          listen address of every rank, by rank
  --masters N              master ranks (use odd counts) [1]
  --job PATH               load a serialised JobSpec (JobSpec::to_json);
                           the job flags below override its fields
  --checkpoint-every N     slaves snapshot owned partitions to a buddy
                           every N drained batch frames (up to ~51 per
                           epoch on an idle slave); 0 off [0]
  --die-after-batches N    (slave ranks only) crash this process after
                           draining N batch frames
  --die-after-epochs N     (master ranks only) crash this process while
                           leading epoch N
  --handshake-ms N         mesh dial window [30000]
  --emit-pairs             collector prints every join pair
job flags:
";

struct Args {
    rank: usize,
    peers: Vec<SocketAddr>,
    node: NodeConfig,
    handshake: Duration,
    emit_pairs: bool,
}

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("windjoin-node: {msg}");
    eprint!("{USAGE}{}", flag_usage());
    std::process::exit(2);
}

fn parse<T: FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| usage_and_exit(&format!("bad {flag} {value:?}")))
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let mut flags = JobFlags::default();
    let (mut rank, mut peers, mut job_path) = (None, Vec::new(), None);
    let (mut masters, mut checkpoint_every, mut handshake_ms) = (1, 0, 30_000);
    let (mut die_after_batches, mut die_after_epochs) = (None, None);
    let mut emit_pairs = false;
    while let Some(flag) = argv.next() {
        let mut value =
            || argv.next().unwrap_or_else(|| usage_and_exit(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--rank" => rank = Some(parse(&flag, &value())),
            "--peers" => {
                peers = value().split(',').map(|a| parse("peer address", a)).collect();
            }
            "--job" => job_path = Some(value()),
            "--masters" => masters = parse(&flag, &value()),
            "--checkpoint-every" => checkpoint_every = parse(&flag, &value()),
            "--die-after-batches" => die_after_batches = Some(parse(&flag, &value())),
            "--die-after-epochs" => die_after_epochs = Some(parse(&flag, &value())),
            "--handshake-ms" => handshake_ms = parse(&flag, &value()),
            "--emit-pairs" => emit_pairs = true,
            other => match flags.read(other, || argv.next()) {
                Ok(true) => {}
                Ok(false) => usage_and_exit(&format!("unknown flag {other:?}")),
                Err(e) => usage_and_exit(&e),
            },
        }
    }

    let Some(rank) = rank else { usage_and_exit("--rank is required") };
    if masters == 0 {
        usage_and_exit("--masters must be >= 1");
    }
    if peers.len() < masters + 2 {
        usage_and_exit(
            "--peers needs at least masters + 2 addresses (masters, ≥1 slave, collector)",
        );
    }
    let slaves = peers.len() - masters - 1;

    // Start from the job file (if given) or the library defaults; the
    // job flags override its fields, so the CLI is a thin layer over the
    // same `JobSpec` every runtime consumes.
    let mut spec = match &job_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| usage_and_exit(&format!("reading --job {path}: {e}")));
            JobSpec::from_json(&text)
                .unwrap_or_else(|e| usage_and_exit(&format!("--job {path}: {e}")))
        }
        None => JobSpec::demo(slaves),
    };
    if spec.slaves != slaves {
        eprintln!(
            "windjoin-node: --peers implies {slaves} slave(s); overriding the job file's {}",
            spec.slaves
        );
        // A spare pool stays a pool (and is refused below).
        spec.set_slaves(slaves);
    }
    flags.apply(&mut spec).unwrap_or_else(|e| usage_and_exit(&e));
    if emit_pairs {
        spec.sink = SinkSpec::Capture;
    }
    // Every rank runs the multi-process runtime: what only the
    // simulator models (spare slaves, epoch tuning) is an error here.
    spec.runtime = Runtime::Tcp;
    let mut node = spec.to_node_config().unwrap_or_else(|e| usage_and_exit(&e.to_string()));
    node.masters = masters;
    node.checkpoint_every = checkpoint_every;
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

    Args { rank, peers, node, handshake: Duration::from_millis(handshake_ms), emit_pairs }
}

fn main() {
    let args = parse_args();
    let role = args
        .node
        .role_of(args.rank, args.peers.len())
        .unwrap_or_else(|e| usage_and_exit(&e.to_string()));
    eprintln!(
        "windjoin-node rank {} ({role:?}): joining a {}-rank mesh at {}",
        args.rank,
        args.peers.len(),
        args.peers[args.rank]
    );
    let outcome = match run_node(args.rank, &args.peers, &args.node, args.handshake) {
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
                     (term {}), wire {} B out / {} B in, cpu {:.1} ms",
                    m.tuples_in,
                    m.moves,
                    m.final_degree,
                    m.term,
                    m.bytes_sent,
                    m.bytes_recvd,
                    m.thread_cpu_us as f64 / 1e3
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
            let ms = |us: u64| us as f64 / 1e3;
            eprintln!(
                "slave done: {} batches, {} outputs frames, {} comparisons, busy {:.1} ms, comm \
                 {:.1} ms, idle {:.1} ms, cpu {:.1} ms, wire {} B out / {} B in, state peak {} B",
                s.batches,
                s.outputs_frames,
                s.work.comparisons,
                ms(s.busy_us),
                ms(s.comm_us),
                ms(s.idle_us),
                ms(s.thread_cpu_us),
                s.work.bytes_sent,
                s.work.bytes_recvd,
                s.peak_state_bytes
            );
        }
        NodeOutcome::Collector(c) => {
            eprintln!(
                "collector done: {} outputs, mean delay {:.1} ms, wire {} B out / {} B in, cpu \
                 {:.1} ms",
                c.outputs_total,
                c.delay.mean_delay_s() * 1e3,
                c.bytes_sent,
                c.bytes_recvd,
                c.thread_cpu_us as f64 / 1e3
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
