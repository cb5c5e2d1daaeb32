//! Where on the clock do a distribution slot's results arrive? Runs a
//! real in-process cluster (1 master, slaves, 1 collector) over loopback
//! sockets on a job shaped like one of the end-to-end benchmark's
//! workloads — 50 ms distribution epochs, 3 s windows — and stamps every
//! batch the collector hands to the sink on one clock started right
//! before the ranks. Per epoch it takes the offset of the first and of
//! the last delivery from the slot boundary and the number of `Outputs`
//! frames; it prints the medians over the epochs after warm-up, and the
//! largest join state a slave held (`RunReport::peak_state_bytes`).
//!
//! The shape is the one argument:
//!
//! * `sparse_tuned` (the default) — sparse uniform keys, fine-tuned
//!   mini-groups, 150 000 tuples/s per stream, 2 slaves over the
//!   threaded TCP mesh;
//! * `wide_payload` — the same keys with 512-byte payloads, 60 000
//!   tuples/s per stream, 4 slaves over the evented mesh: bytes, not
//!   comparisons.
//!
//! This is the evidence for *where* a slot-path change saves time: the
//! staged ledger of `benchmark/` times each stage but not its position
//! relative to the slot. With results shipped per drained partition the
//! first delivery lands well before the last one; shipped per batch the
//! two coincide.
//!
//! ```text
//! cargo run --release --example slot_timeline [-- sparse_tuned|wide_payload]
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

/// `[p25, median, p75]` of the samples.
fn quartiles(mut v: Vec<f64>) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| v[((v.len() - 1) as f64 * q).round() as usize])
}

fn main() {
    let shape = std::env::args().nth(1).unwrap_or_else(|| "sparse_tuned".to_string());
    let (slaves, rate, payload_bytes, evented) = match shape.as_str() {
        "sparse_tuned" => (2, 150_000.0, 0, false),
        "wide_payload" => (4, 60_000.0, 512, true),
        other => {
            eprintln!("slot_timeline: unknown shape {other:?}; sparse_tuned or wide_payload");
            std::process::exit(2);
        }
    };
    let mut cfg = NodeConfig::demo(slaves);
    cfg.params = cfg.params.with_window_secs(3).with_dist_epoch_us(EPOCH_US);
    cfg.params.tuning = Some(TuningParams { theta_blocks: 16, max_depth: 12 });
    cfg.rate = rate;
    cfg.payload_bytes = payload_bytes;
    cfg.keys = KeyDist::Uniform { domain: 2_000_000 };
    cfg.run = RUN;
    cfg.warmup = WARMUP;

    // One clock for every stamp, started right before the ranks.
    let origin: Arc<OnceLock<Instant>> = Arc::default();
    let stamps: Arc<Mutex<Vec<u64>>> = Arc::default();
    let (clock, seen) = (Arc::clone(&origin), Arc::clone(&stamps));
    cfg.sink = Some(StreamingSink::new(move |_: &[OutPair]| {
        let at = clock.get().expect("clock started").elapsed().as_micros() as u64;
        seen.lock().expect("stamps").push(at);
    }));

    println!(
        "slot_timeline: {shape}: {slaves} slaves over the {} loopback mesh, {rate} tuples/s per \
         stream, {payload_bytes}-byte payloads, {} ms epochs, {} s run",
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

    // A delivery belongs to the slot that fired last before it.
    let (first_epoch, end_epoch) =
        (WARMUP.as_micros() as u64 / EPOCH_US, RUN.as_micros() as u64 / EPOCH_US);
    let mut per_epoch: Vec<Vec<u64>> = vec![Vec::new(); (end_epoch - first_epoch) as usize];
    for &at in stamps.lock().expect("stamps").iter() {
        if (first_epoch..end_epoch).contains(&(at / EPOCH_US)) {
            per_epoch[(at / EPOCH_US - first_epoch) as usize].push(at % EPOCH_US);
        }
    }
    per_epoch.retain(|offsets| !offsets.is_empty());
    assert!(per_epoch.len() >= 10, "too few epochs with deliveries: {}", per_epoch.len());
    let ms = |pick: fn(&Vec<u64>) -> u64| {
        quartiles(per_epoch.iter().map(|o| pick(o) as f64 / 1e3).collect())
    };
    let first = ms(|o| *o.iter().min().expect("non-empty"));
    let last = ms(|o| *o.iter().max().expect("non-empty"));
    let frames = quartiles(per_epoch.iter().map(|o| o.len() as f64).collect());

    println!("median over {} epochs after warm-up:\n", per_epoch.len());
    println!("| per epoch | median | p25 | p75 |");
    println!("|---|---|---|---|");
    for (name, [p25, p50, p75]) in [
        ("first delivery after the slot, ms", first),
        ("last delivery after the slot, ms", last),
        ("Outputs frames", frames),
    ] {
        println!("| {name} | {p50:.1} | {p25:.1} | {p75:.1} |");
    }
    assert!(first[1] <= last[1], "first delivery after the last");
    println!(
        "\npeak join state per slave: {:.1} MB (window columns, block records, key indexes, \
         payload stores)",
        report.peak_state_bytes as f64 / 1e6
    );
    println!("ok: {} outputs, {} tuples in.", report.outputs_total, report.tuples_in);
}
