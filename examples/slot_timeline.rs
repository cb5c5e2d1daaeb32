//! How long does a tuple wait, and how often is a slave fed? Runs a real
//! in-process cluster (1 master, slaves, 1 collector) over loopback
//! sockets on a job shaped like one of the end-to-end benchmark's
//! workloads — 50 ms distribution epochs, 3 s windows — and stamps every
//! batch the collector hands to the sink on one clock started right
//! before the ranks. It prints the production delay of every output
//! after warm-up (stamp − the newer input's arrival time) at p50 and p99,
//! the batch frames each slave drained per epoch, and the largest join
//! state a slave held (`RunReport::peak_state_bytes`).
//!
//! The shape is the one argument:
//!
//! * `sparse_tuned` (the default) — sparse uniform keys, fine-tuned
//!   mini-groups, 150 000 tuples/s per stream, 2 slaves over the
//!   threaded TCP mesh;
//! * `sparse_flat` — the same keys in flat (never tuned) partitions,
//!   40 000 tuples/s per stream, 2 slaves over the threaded TCP mesh:
//!   each small tick frame probes a long window, which the hash chains
//!   answer without sweeping it;
//! * `wide_payload` — the same keys with 512-byte payloads, 60 000
//!   tuples/s per stream, 4 slaves over the evented mesh: bytes, not
//!   comparisons.
//!
//! A slave's slot no longer decides when its tuples leave the master:
//! the leader ships a slave that has acknowledged its last batch what is
//! buffered for it every `t_d / 25`, and holds tuples for the slot only
//! while the slave is still working. The shapes are paced well below
//! capacity, so the delay sits near a tick (2 ms), not half an epoch
//! (25 ms), and a slave drains up to 25 frames per epoch instead of one.
//!
//! ```text
//! cargo run --release --example slot_timeline [-- sparse_tuned|sparse_flat|wide_payload]
//! ```

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use windjoin::cluster::threadrt::DEFAULT_INBOX_CAPACITY;
use windjoin::cluster::{run_on_transport, NodeConfig, StreamingSink};
use windjoin::core::{OutPair, TuningParams};
use windjoin::gen::KeyDist;
use windjoin::net::{EventedNetwork, TcpNetwork};

const EPOCH_US: u64 = 50_000;
const RUN: Duration = Duration::from_secs(7);
/// The window must fill before a drain costs what it costs in steady
/// state.
const WARMUP: Duration = Duration::from_secs(3);

/// The `q`-quantile of sorted samples.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    let shape = std::env::args().nth(1).unwrap_or_else(|| "sparse_tuned".to_string());
    let fine = Some(TuningParams { theta_blocks: 16, max_depth: 12 });
    let (slaves, rate, payload_bytes, evented, tuning) = match shape.as_str() {
        "sparse_tuned" => (2, 150_000.0, 0, false, fine),
        "sparse_flat" => (2, 40_000.0, 0, false, None),
        "wide_payload" => (4, 60_000.0, 512, true, fine),
        other => {
            eprintln!(
                "slot_timeline: unknown shape {other:?}; sparse_tuned, sparse_flat or wide_payload"
            );
            std::process::exit(2);
        }
    };
    let mut cfg = NodeConfig::demo(slaves);
    cfg.params = cfg.params.with_window_secs(3).with_dist_epoch_us(EPOCH_US);
    cfg.params.tuning = tuning;
    cfg.rate = rate;
    cfg.payload_bytes = payload_bytes;
    cfg.keys = KeyDist::Uniform { domain: 2_000_000 };
    cfg.run = RUN;
    cfg.warmup = WARMUP;

    // One clock for every stamp, started right before the ranks; each
    // output after warm-up leaves its delay.
    let origin: Arc<OnceLock<Instant>> = Arc::default();
    let delays: Arc<Mutex<Vec<u64>>> = Arc::default();
    let (clock, seen) = (Arc::clone(&origin), Arc::clone(&delays));
    let warmup_us = WARMUP.as_micros() as u64;
    cfg.sink = Some(StreamingSink::new(move |pairs: &[OutPair]| {
        let at = clock.get().expect("clock started").elapsed().as_micros() as u64;
        if at >= warmup_us {
            let mut seen = seen.lock().expect("delays");
            seen.extend(pairs.iter().map(|p| at.saturating_sub(p.newest_t())));
        }
    }));

    println!(
        "slot_timeline: {shape}: {slaves} slaves over the {} loopback mesh, {rate} tuples/s per \
         stream, {payload_bytes}-byte payloads, {} ms distribution epochs, {} s run",
        if evented { "evented" } else { "threaded TCP" },
        EPOCH_US / 1_000,
        RUN.as_secs()
    );
    // The clock starts once the mesh is up, right before the ranks.
    let start_clock = || origin.set(Instant::now()).expect("clock set once");
    let (ranks, inbox) = (cfg.ranks(), DEFAULT_INBOX_CAPACITY);
    let report = if evented {
        let net = EventedNetwork::loopback(ranks, inbox).expect("loopback mesh");
        start_clock();
        run_on_transport(&cfg, net)
    } else {
        let net = TcpNetwork::loopback(ranks, inbox).expect("loopback mesh");
        start_clock();
        run_on_transport(&cfg, net)
    };
    assert!(report.outputs_total > 0, "expected some join results");
    assert!(report.dead_slaves.is_empty(), "no slave may die");

    let mut delays = std::mem::take(&mut *delays.lock().expect("delays"));
    assert!(delays.len() >= 100, "too few outputs after warm-up: {}", delays.len());
    delays.sort_unstable();
    let ms = |q| quantile(&delays, q) as f64 / 1e3;
    let epochs = RUN.as_micros() as f64 / EPOCH_US as f64;
    let per_slave_epoch = report.batches as f64 / slaves as f64 / epochs;

    println!("{} outputs after warm-up:\n", delays.len());
    println!("| {shape} | value |");
    println!("|---|---|");
    println!("| delay p50, ms | {:.1} |", ms(0.5));
    println!("| delay p99, ms | {:.1} |", ms(0.99));
    println!("| batch frames per slave per epoch | {per_slave_epoch:.1} |");
    assert!(per_slave_epoch >= 1.0, "fewer batch frames than slots");
    println!(
        "\npeak join state per slave: {:.1} MB (window columns and hash chains, block records, \
         payload stores)",
        report.peak_state_bytes as f64 / 1e6
    );
    println!("ok: {} outputs, {} tuples in.", report.outputs_total, report.tuples_in);
}
