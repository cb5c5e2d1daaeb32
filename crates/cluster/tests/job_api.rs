//! The API-redesign contract: one `JobSpec` drives every runtime, and
//! the equality-predicate / zero-payload configuration is
//! **bit-identical** to the pre-redesign direct paths.
//!
//! * On the simulator the whole `RunReport` — outputs, checksum,
//!   captured pairs and the full `WorkStats` — must match a direct
//!   `run_sim` of a hand-built `NodeConfig` exactly (the simulator is
//!   fully deterministic).
//! * On the threaded runtime the *output set* is the deterministic
//!   contract (batch boundaries follow the wall clock), so the captured
//!   pairs, checksum and the batch-independent work counters
//!   (`emitted`, `inserts`) must match the direct `NodeConfig` path.
//! * A serialised job file must drive a real multi-process cluster
//!   (`windjoin-launch --job`) to the same output set as the in-process
//!   `Runtime::Tcp` driver.

use proptest::prelude::*;
use std::time::Duration;
use windjoin_cluster::api::{JoinJob, Runtime, SinkSpec};
use windjoin_cluster::{run_sim, run_threaded, EngineKind, NodeConfig, RunReport};
use windjoin_core::Params;
use windjoin_gen::KeyDist;

const KEYS: KeyDist = KeyDist::Uniform { domain: 300 };

fn sorted_ids(report: &RunReport) -> Vec<(u64, u64)> {
    let mut v: Vec<_> = report.captured.iter().map(|p| p.id()).collect();
    v.sort_unstable();
    v
}

/// The pre-redesign direct threaded config.
fn direct_node(engine: EngineKind, seed: u64, slaves: usize) -> NodeConfig {
    let mut cfg = NodeConfig::demo(slaves);
    cfg.rate = 400.0;
    cfg.keys = KEYS;
    cfg.seed = seed;
    cfg.run = Duration::from_millis(1200);
    cfg.warmup = Duration::from_millis(300);
    cfg.capture_outputs = true;
    cfg.engine = engine;
    cfg
}

/// The same experiment described through the new builder.
fn job(engine: EngineKind, seed: u64, slaves: usize, runtime: Runtime) -> JoinJob {
    JoinJob::builder()
        .runtime(runtime)
        .slaves(slaves)
        .rate(400.0)
        .keys(KEYS)
        .seed(seed)
        .run(Duration::from_millis(1200))
        .warmup(Duration::from_millis(300))
        .sink(SinkSpec::Capture)
        .engine(engine)
        .build()
        .expect("valid job")
}

/// The direct simulator config.
fn direct_sim(engine: EngineKind, seed: u64, slaves: usize) -> NodeConfig {
    let mut cfg = NodeConfig::paper_default(slaves);
    cfg.run = Duration::from_secs(30);
    cfg.warmup = Duration::from_secs(5);
    cfg.params = cfg.params.with_window_secs(5);
    cfg.rate = 400.0;
    cfg.keys = KEYS;
    cfg.seed = seed;
    cfg.engine = engine;
    cfg.capture_outputs = true;
    cfg
}

/// The same simulated experiment through the builder.
fn sim_job(engine: EngineKind, seed: u64, slaves: usize) -> JoinJob {
    JoinJob::builder()
        .runtime(Runtime::Sim)
        .params(Params::default_paper())
        .window(Duration::from_secs(5))
        .slaves(slaves)
        .rate(400.0)
        .keys(KEYS)
        .seed(seed)
        .run(Duration::from_secs(30))
        .warmup(Duration::from_secs(5))
        .sink(SinkSpec::Capture)
        .engine(engine)
        .build()
        .expect("valid job")
}

const ENGINES: [EngineKind; 2] = [EngineKind::Exact, EngineKind::Counted];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn job_api_is_bit_identical_to_direct_paths(
        seed in 1u64..100_000,
        slaves in 1usize..4,
        engine_ix in 0..ENGINES.len(),
    ) {
        let engine = ENGINES[engine_ix];

        // --- Runtime::Sim: full bit-identity, WorkStats included. ---
        let direct = run_sim(&direct_sim(engine, seed, slaves));
        let via_api = sim_job(engine, seed, slaves).run().expect("sim job");
        prop_assert_eq!(direct.outputs_total, via_api.outputs_total);
        prop_assert_eq!(direct.output_checksum, via_api.output_checksum);
        prop_assert_eq!(sorted_ids(&direct), sorted_ids(&via_api));
        prop_assert_eq!(direct.work, via_api.work, "sim WorkStats must be byte-identical");
        prop_assert_eq!(direct.tuples_in, via_api.tuples_in);
        prop_assert_eq!(direct.outputs, via_api.outputs);
        prop_assert_eq!(direct.moves, via_api.moves);
        prop_assert_eq!(direct.final_degree, via_api.final_degree);
        prop_assert_eq!(direct.master_peak_buffer_bytes, via_api.master_peak_buffer_bytes);
        prop_assert!(via_api.outputs_total > 0, "the experiment must produce results");
        prop_assert_eq!(via_api.work.residual_dropped, 0, "Always must skip the filter");

        // --- Runtime::Threaded: the deterministic contract is the
        // output set plus the batch-independent work counters. ---
        let direct = run_threaded(&direct_node(engine, seed, slaves));
        let via_api = job(engine, seed, slaves, Runtime::Threaded).run().expect("threaded job");
        prop_assert_eq!(direct.outputs_total, via_api.outputs_total);
        prop_assert_eq!(direct.output_checksum, via_api.output_checksum);
        prop_assert_eq!(sorted_ids(&direct), sorted_ids(&via_api));
        prop_assert_eq!(direct.tuples_in, via_api.tuples_in);
        prop_assert_eq!(direct.work.emitted, via_api.work.emitted);
        prop_assert_eq!(direct.work.inserts, via_api.work.inserts);
        prop_assert_eq!(via_api.work.residual_dropped, 0);
        prop_assert!(via_api.outputs_total > 0);
    }
}

#[test]
fn sim_spec_with_spare_slaves_runs_through_the_one_lowering() {
    // One active slave of a pool of four, overloaded: the lowering keeps
    // the pool, so the job grows into it exactly as a direct run does.
    let jb = JoinJob::builder()
        .runtime(Runtime::Sim)
        .params(Params::default_paper())
        .window(Duration::from_secs(8))
        .reorg_epoch(Duration::from_secs(4))
        .npart(12)
        .slaves(1)
        .total_slaves(4)
        .adaptive_dod(true)
        .rate(10_000.0)
        .keys(KeyDist::Uniform { domain: 5_000 })
        .run(Duration::from_secs(40))
        .warmup(Duration::from_secs(5))
        .build()
        .expect("spare slaves are valid on the simulator");
    let cfg = jb.spec.to_node_config().expect("lowers");
    assert_eq!((cfg.slaves, cfg.total_slaves), (1, 4));
    let via_api = jb.run().expect("sim job");
    let direct = run_sim(&cfg);
    assert_eq!(direct.output_checksum, via_api.output_checksum);
    assert_eq!(direct.work, via_api.work);
    assert!(via_api.final_degree > 1, "the overloaded run must draw on the spare pool");
}

#[test]
fn tcp_driver_matches_the_threaded_output_set() {
    let direct = run_threaded(&direct_node(EngineKind::Exact, 77, 2));
    let via_tcp = job(EngineKind::Exact, 77, 2, Runtime::Tcp).run().expect("tcp job");
    assert!(via_tcp.outputs_total > 0);
    assert_eq!(direct.output_checksum, via_tcp.output_checksum);
    assert_eq!(sorted_ids(&direct), sorted_ids(&via_tcp));
}

#[test]
fn job_file_drives_a_real_multiprocess_cluster() {
    // Serialise a spec, launch one OS process per rank through
    // `windjoin-launch --job`, and require the collector's machine-
    // readable summary to match the in-process Tcp driver exactly.
    let jb = job(EngineKind::Exact, 42, 2, Runtime::Tcp);
    let reference = jb.run().expect("in-process reference run");

    let path = std::env::temp_dir().join(format!("windjoin-job-{}.json", std::process::id()));
    std::fs::write(&path, jb.spec.to_json()).expect("write job file");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_windjoin-launch"))
        .args(["--job", path.to_str().expect("utf8 path")])
        .args(["--bin", env!("CARGO_BIN_EXE_windjoin-node")])
        .output()
        .expect("spawn windjoin-launch");
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "launch failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut outputs_total = None;
    let mut checksum = None;
    for line in stdout.lines() {
        if let Some(v) = line.strip_prefix("outputs_total ") {
            outputs_total = v.trim().parse::<u64>().ok();
        }
        if let Some(v) = line.strip_prefix("checksum ") {
            checksum = u64::from_str_radix(v.trim(), 16).ok();
        }
    }
    assert_eq!(outputs_total, Some(reference.outputs_total), "collector output:\n{stdout}");
    assert_eq!(checksum, Some(reference.output_checksum), "collector output:\n{stdout}");
}
