//! The shared-nothing acceptance test: a full cluster of **separate OS
//! processes** (1 master + 2 slaves + 1 collector, each a spawned
//! `windjoin-node` binary talking TCP over 127.0.0.1) must emit join
//! results identical to the in-process threaded runtime on the same
//! seeded workload — and therefore to the `reference_join` oracle. A
//! rank handed a run it cannot honour refuses it up front.

use std::process::Command;
use std::time::Duration;
use windjoin_cluster::api::{JoinJob, Runtime};
use windjoin_cluster::{run_threaded, NodeConfig};
use windjoin_gen::KeyDist;

const SLAVES: usize = 2;
const SEED: u64 = 42;
const RATE: f64 = 300.0;
const RUN_MS: u64 = 3_000;
const WARMUP_MS: u64 = 500;
const WINDOW_MS: u64 = 2_000;

/// The in-process config equivalent to the flags passed to
/// `windjoin-node` below (must mirror the binary's parameter mapping).
fn equivalent_config() -> NodeConfig {
    let mut params = windjoin_core::Params::default_paper().with_dist_epoch_us(200_000);
    params.sem.w_left_us = WINDOW_MS * 1_000;
    params.sem.w_right_us = WINDOW_MS * 1_000;
    params.reorg_epoch_us = 2_000_000;
    params.npart = 16;
    let mut cfg = NodeConfig::demo(SLAVES);
    cfg.params = params;
    cfg.rate = RATE;
    cfg.keys = KeyDist::Uniform { domain: 500 };
    cfg.seed = SEED;
    cfg.run = Duration::from_millis(RUN_MS);
    cfg.warmup = Duration::from_millis(WARMUP_MS);
    cfg.adaptive_dod = false;
    cfg.capture_outputs = true;
    cfg
}

#[test]
fn multiprocess_cluster_matches_threaded_runtime_and_oracle() {
    // `windjoin-launch` reserves ports by binding port 0, hands the
    // assigned addresses to every rank and retries the narrow
    // bind-then-release race itself.
    let out = Command::new(env!("CARGO_BIN_EXE_windjoin-launch"))
        .args(["--ranks", &(SLAVES + 2).to_string()])
        .args(["--bin", env!("CARGO_BIN_EXE_windjoin-node")])
        .arg("--")
        .args(["--rate", &RATE.to_string()])
        .args(["--run-ms", &RUN_MS.to_string()])
        .args(["--warmup-ms", &WARMUP_MS.to_string()])
        .args(["--seed", &SEED.to_string()])
        .args(["--window-ms", &WINDOW_MS.to_string()])
        .args(["--keys", "uniform:500"])
        .args(["--handshake-ms", "10000"])
        .arg("--emit-pairs")
        .output()
        .expect("run windjoin-launch");
    assert!(
        out.status.success(),
        "cluster launch failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let mut outputs_total: Option<u64> = None;
    let mut checksum: Option<u64> = None;
    let mut pairs: Vec<(u64, u64, u64, u64, u64)> = Vec::new();
    for line in stdout.lines() {
        let mut it = line.split_whitespace();
        match it.next() {
            Some("outputs_total") => outputs_total = Some(it.next().unwrap().parse().unwrap()),
            Some("checksum") => {
                checksum = Some(u64::from_str_radix(it.next().unwrap(), 16).unwrap())
            }
            Some("pair") => {
                let mut next = || it.next().unwrap().parse::<u64>().unwrap();
                pairs.push((next(), next(), next(), next(), next()));
            }
            _ => {}
        }
    }
    let outputs_total = outputs_total.expect("collector printed outputs_total");
    let checksum = checksum.expect("collector printed checksum");
    assert!(outputs_total > 0, "multi-process cluster produced nothing");
    assert_eq!(pairs.len() as u64, outputs_total);

    // The same seeded workload inside one process over channels.
    let report = run_threaded(&equivalent_config());
    let mut expected: Vec<(u64, u64, u64, u64, u64)> =
        report.captured.iter().map(|p| (p.key, p.left.0, p.left.1, p.right.0, p.right.1)).collect();
    expected.sort_unstable();
    pairs.sort_unstable();

    assert_eq!(outputs_total, report.outputs_total, "output counts diverge");
    assert_eq!(checksum, report.output_checksum, "checksums diverge");
    assert_eq!(pairs, expected, "multi-process outputs != threaded outputs");
}

/// Writes a `runtime: "sim"` job file with spare slaves (two active of
/// four): a valid spec that no process cluster can honour.
fn spare_slave_job_file(tag: &str) -> std::path::PathBuf {
    let spec = JoinJob::builder()
        .runtime(Runtime::Sim)
        .slaves(2)
        .total_slaves(4)
        .build()
        .expect("spare slaves are valid on the simulator")
        .spec;
    let path =
        std::env::temp_dir().join(format!("windjoin-spare-{tag}-{}.json", std::process::id()));
    std::fs::write(&path, spec.to_json()).expect("write job file");
    path
}

#[test]
fn node_refuses_what_a_process_cluster_cannot_honour() {
    // A process cluster has no pool of spare slaves to grow into: one
    // clean error line and exit 2 before any socket opens, not a run on
    // a fixed set of slaves. The removed `--capacity` and
    // `--probe-threads` flags are unknown flags, and the reference
    // engine is no runtime choice.
    let path = spare_slave_job_file("node");
    let job = path.to_str().expect("utf8 path");
    let peers = "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3,127.0.0.1:4";
    let cases: [(&[&str], &str); 4] = [
        (&["--job", job], "only the simulator provisions spare slaves"),
        (&["--capacity", "64"], "unknown flag \"--capacity\""),
        (&["--probe-threads", "4"], "unknown flag \"--probe-threads\""),
        (&["--engine", "scalar"], "expected exact | counted"),
    ];
    for (args, why) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_windjoin-node"))
            .args(["--rank", "0", "--peers", peers, "--handshake-ms", "500"])
            .args(args)
            .output()
            .expect("run windjoin-node");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.starts_with("windjoin-node: ") && first.contains(why), "{args:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn launch_stops_at_a_refused_configuration() {
    // Every rank refuses the spare-slave job with exit 2. That is no
    // port race: the launcher must not retry on fresh ports, and must
    // pass the refusal and its exit status on.
    let path = spare_slave_job_file("launch");
    let out = Command::new(env!("CARGO_BIN_EXE_windjoin-launch"))
        .args(["--job", path.to_str().expect("utf8 path")])
        .args(["--bin", env!("CARGO_BIN_EXE_windjoin-node")])
        .output()
        .expect("run windjoin-launch");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("retrying"), "a refusal was retried:\n{stderr}");
    assert!(stderr.contains("only the simulator provisions spare slaves"), "{stderr}");
}
