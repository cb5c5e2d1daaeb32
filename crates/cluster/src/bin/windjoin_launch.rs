//! `windjoin-launch` — port-safe launcher for a local multi-process
//! cluster.
//!
//! Hard-coded port lists are collision-flaky on shared CI runners: two
//! jobs (or a leftover process) grab the same port and the whole mesh
//! handshake dies. This launcher reserves ports by binding port 0,
//! reads back the kernel-assigned addresses, passes the same `--peers`
//! list to every rank it spawns, and retries the whole launch on fresh
//! ports if the narrow bind-then-release window loses a race.
//!
//! The flags are [`USAGE`]'s; a bad flag prints them.
//!
//! Exit status 0 only when the whole cluster completed: any rank that
//! exits nonzero fails the launch (and is retried / reported), with two
//! chaos twists — a `--kill-rank` victim's death is expected, and a
//! victim that *survives* is itself a failure. (Kill rank 0 for the
//! master case: it boots as leader, so the kill deterministically
//! fires.) A rank exiting with status 2 refused its flags or job file,
//! which fresh ports cannot cure: the launch stops there, prints the
//! failed ranks' stderr and exits 2. The collector's stdout is echoed
//! on success.

use std::io::Write;
use std::net::TcpListener;
use std::process::{Command, Stdio};

struct Args {
    ranks: usize,
    masters: usize,
    job: Option<String>,
    bin: Option<String>,
    out: Option<String>,
    log_dir: Option<String>,
    kill_rank: Option<usize>,
    die_after_batches: u64,
    die_after_epochs: u64,
    retries: usize,
    passthrough: Vec<String>,
}

const USAGE: &str = "\
usage: windjoin-launch --ranks N [options] [-- node flags...]
starts one windjoin-node process per rank on free loopback ports, all
with the same --peers list; each rank's one thread drives its sockets.

  --ranks N               cluster size: masters + slaves + collector
  --masters M             master ranks (0..M; odd counts) [1]
  --job PATH              serialised JobSpec every rank loads (same as
                          passing `-- --job PATH`); when the file's
                          `slaves` matches, --ranks may be omitted
  --bin PATH              windjoin-node binary [next to this binary]
  --out PATH              also write the collector stdout to PATH
  --log-dir DIR           capture each rank's stderr to DIR/rank<r>.log
                          (dumped to stderr when the launch fails)
  --kill-rank R           chaos: crash rank R mid-run — a slave rank
                          gets --die-after-batches, a master rank
                          --die-after-epochs (needs --masters >= 3
                          so a standby can take over)
  --die-after-batches N   batch frames a victim slave drains before
                          crashing (up to ~51 per epoch) [6]
  --die-after-epochs N    epochs a victim master leads before
                          crashing [3]
  --retries K             full-launch retries on port races [3]
  -- ...                  everything after `--` goes to every rank
                          (windjoin-node's job flags: --rate, --run-ms, ...)
";

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("windjoin-launch: {msg}");
    eprint!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        ranks: 0,
        masters: 1,
        job: None,
        bin: None,
        out: None,
        log_dir: None,
        kill_rank: None,
        die_after_batches: 6,
        die_after_epochs: 3,
        retries: 3,
        passthrough: Vec::new(),
    };
    let value = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage_and_exit(&format!("{flag} needs a value")))
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].clone();
        match flag.as_str() {
            "--ranks" => {
                args.ranks =
                    value(&mut i, &flag).parse().unwrap_or_else(|_| usage_and_exit("bad --ranks"))
            }
            "--masters" => {
                args.masters =
                    value(&mut i, &flag).parse().unwrap_or_else(|_| usage_and_exit("bad --masters"))
            }
            "--job" => args.job = Some(value(&mut i, &flag)),
            "--bin" => args.bin = Some(value(&mut i, &flag)),
            "--out" => args.out = Some(value(&mut i, &flag)),
            "--log-dir" => args.log_dir = Some(value(&mut i, &flag)),
            "--kill-rank" => {
                args.kill_rank = Some(
                    value(&mut i, &flag)
                        .parse()
                        .unwrap_or_else(|_| usage_and_exit("bad --kill-rank")),
                )
            }
            "--die-after-batches" => {
                args.die_after_batches = value(&mut i, &flag)
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("bad --die-after-batches"))
            }
            "--die-after-epochs" => {
                args.die_after_epochs = value(&mut i, &flag)
                    .parse()
                    .unwrap_or_else(|_| usage_and_exit("bad --die-after-epochs"))
            }
            "--retries" => {
                args.retries =
                    value(&mut i, &flag).parse().unwrap_or_else(|_| usage_and_exit("bad --retries"))
            }
            "--" => {
                args.passthrough = argv[i + 1..].to_vec();
                break;
            }
            other => usage_and_exit(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    if let Some(job) = &args.job {
        // The job file is authoritative for the topology when --ranks
        // is omitted; every rank receives `--job PATH` via passthrough.
        if args.ranks == 0 {
            match windjoin_cluster::JobSpec::from_json(
                &std::fs::read_to_string(job)
                    .unwrap_or_else(|e| usage_and_exit(&format!("reading --job {job}: {e}"))),
            ) {
                Ok(spec) => args.ranks = spec.slaves + args.masters + 1,
                Err(e) => usage_and_exit(&format!("--job {job}: {e}")),
            }
        }
        args.passthrough.insert(0, "--job".into());
        args.passthrough.insert(1, job.clone());
    }
    if args.masters == 0 {
        usage_and_exit("--masters must be >= 1");
    }
    if args.masters > 1 {
        // Every rank must agree on the topology; inject the flag once
        // here instead of requiring it on the node command line.
        args.passthrough.insert(0, "--masters".into());
        args.passthrough.insert(1, args.masters.to_string());
    }
    if args.ranks < args.masters + 2 {
        usage_and_exit("--ranks must be >= masters + 2 (masters, >=1 slave, collector)");
    }
    if let Some(r) = args.kill_rank {
        if r + 1 >= args.ranks {
            usage_and_exit("--kill-rank must name a master or slave rank, not the collector");
        }
        if r < args.masters {
            // Killing a master only makes sense when a standby majority
            // can take over; quorum of 2 cannot survive any death.
            if args.masters < 3 {
                usage_and_exit("--kill-rank on a master needs --masters >= 3 for failover");
            }
            if args.die_after_epochs == 0 {
                usage_and_exit("--die-after-epochs must be >= 1");
            }
        } else if args.die_after_batches == 0 {
            usage_and_exit("--die-after-batches must be >= 1");
        }
    }
    args
}

/// Reserves `n` distinct loopback ports: binds port 0 `n` times, reads
/// the assigned addresses, then releases the listeners for the ranks to
/// re-bind. The race window between release and re-bind is why the
/// caller retries on a failed launch.
fn reserve_peer_list(n: usize) -> std::io::Result<String> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<Result<_, _>>()?;
    let peers: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<Result<_, _>>()?;
    Ok(peers.join(","))
}

fn node_bin(explicit: &Option<String>) -> String {
    if let Some(b) = explicit {
        return b.clone();
    }
    let mut path = std::env::current_exe().expect("current_exe");
    path.set_file_name("windjoin-node");
    path.to_string_lossy().into_owned()
}

/// The exit status with which `windjoin-node` refuses its flags or job
/// file.
const REFUSED: i32 = 2;

/// One full launch on freshly reserved ports. `Ok` carries the
/// collector's stdout; `Err` the combined diagnostics of failed ranks.
/// Exits the process with [`REFUSED`] when a rank refused its
/// configuration, since retrying on fresh ports cannot cure that.
fn launch_once(args: &Args, bin: &str) -> Result<String, String> {
    let peer_list = reserve_peer_list(args.ranks).map_err(|e| format!("reserving ports: {e}"))?;
    eprintln!("windjoin-launch: peers {peer_list}");

    let stderr_for = |rank: usize| -> Stdio {
        match &args.log_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir).expect("create --log-dir");
                Stdio::from(
                    std::fs::File::create(format!("{dir}/rank{rank}.log")).expect("rank log"),
                )
            }
            None => Stdio::inherit(),
        }
    };
    let spawn = |rank: usize| {
        let mut cmd = Command::new(bin);
        cmd.args(["--rank", &rank.to_string()])
            .args(["--peers", &peer_list])
            .args(&args.passthrough)
            .stdout(if rank + 1 == args.ranks { Stdio::piped() } else { Stdio::null() })
            .stderr(stderr_for(rank));
        if args.kill_rank == Some(rank) {
            if rank < args.masters {
                cmd.args(["--die-after-epochs", &args.die_after_epochs.to_string()]);
            } else {
                cmd.args(["--die-after-batches", &args.die_after_batches.to_string()]);
            }
        }
        cmd.spawn().unwrap_or_else(|e| usage_and_exit(&format!("spawning {bin}: {e}")))
    };

    // Master and slaves first, collector (whose stdout we keep) last.
    let others: Vec<_> = (0..args.ranks - 1).map(spawn).collect();
    let collector = spawn(args.ranks - 1);

    let collector_out = collector.wait_with_output().expect("collector wait");
    let mut errors = String::new();
    let mut refused = false;
    let dump_log = |errors: &mut String, rank: usize| {
        if let Some(dir) = &args.log_dir {
            if let Ok(log) = std::fs::read_to_string(format!("{dir}/rank{rank}.log")) {
                errors.push_str(&log);
            }
        }
    };
    for (rank, child) in others.into_iter().enumerate() {
        let out = child.wait_with_output().expect("rank wait");
        // A chaos-killed rank is *supposed* to die hard; anything else
        // must exit cleanly — and a chaos victim that survives means
        // the kill never fired, which is just as much a test failure.
        let rank_refused = out.status.code() == Some(REFUSED);
        refused |= rank_refused;
        if rank_refused || (!out.status.success() && args.kill_rank != Some(rank)) {
            errors.push_str(&format!("rank {rank} failed ({}):\n", out.status));
            errors.push_str(&String::from_utf8_lossy(&out.stderr));
            dump_log(&mut errors, rank);
        } else if out.status.success() && args.kill_rank == Some(rank) {
            let (kf, kv) = if rank < args.masters {
                ("--die-after-epochs", args.die_after_epochs)
            } else {
                ("--die-after-batches", args.die_after_batches)
            };
            errors.push_str(&format!(
                "rank {rank} was marked --kill-rank but exited cleanly ({kf} {kv} never fired):\n",
            ));
            errors.push_str(&String::from_utf8_lossy(&out.stderr));
            dump_log(&mut errors, rank);
        }
    }
    if !collector_out.status.success() {
        refused |= collector_out.status.code() == Some(REFUSED);
        errors.push_str(&format!("collector failed ({}):\n", collector_out.status));
        errors.push_str(&String::from_utf8_lossy(&collector_out.stderr));
        dump_log(&mut errors, args.ranks - 1);
    }
    if refused {
        eprintln!("windjoin-launch: a rank refused its configuration:\n{errors}");
        std::process::exit(REFUSED);
    }
    if !errors.is_empty() {
        return Err(errors);
    }
    Ok(String::from_utf8_lossy(&collector_out.stdout).into_owned())
}

fn main() {
    let args = parse_args();
    let bin = node_bin(&args.bin);
    let mut attempt = 0;
    let stdout = loop {
        attempt += 1;
        match launch_once(&args, &bin) {
            Ok(stdout) => break stdout,
            Err(errors) if attempt < args.retries => {
                eprintln!("windjoin-launch: attempt {attempt} failed, retrying:\n{errors}");
            }
            Err(errors) => {
                eprintln!("windjoin-launch: failed after {attempt} attempt(s):\n{errors}");
                std::process::exit(1);
            }
        }
    };
    if let Some(path) = &args.out {
        std::fs::write(path, &stdout).expect("write --out");
    }
    print!("{stdout}");
    std::io::stdout().flush().ok();
}
