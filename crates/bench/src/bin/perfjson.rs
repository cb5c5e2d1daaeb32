//! `perfjson` — machine-readable microbench snapshot for the perf
//! trajectory: runs the probe/wire/drain/payload hot-path scenarios in
//! quick mode and writes `BENCH_probe.json` (elements/sec per scenario).
//!
//! ```text
//! cargo run --release -p windjoin-bench --bin perfjson [-- --out PATH] [--full]
//! cargo run --release -p windjoin-bench --bin perfjson -- --net [--out PATH]
//! ```
//!
//! The `probe_one_tuple_scalar/flat/65536` scenario runs the retained
//! pre-change scalar kernel ([`windjoin_core::ScalarEngine`]) on the
//! identical workload as `probe_one_tuple/flat/65536`, so every
//! snapshot carries its own before/after ratio (`speedup_vs_scalar`).
//!
//! `--net` instead runs the transport saturation family and writes
//! `BENCH_net.json`: an all-to-all loopback mesh at each rank count,
//! measuring delivered tuples/s and wire bytes/s **per node** — the
//! inter-node transfer ceiling the paper's distributed join sits under
//! — one thread per rank driving its own socket endpoint, as a rank of
//! a cluster does (`net_saturate/{tuples,wire_bytes}/ranks={4,8,16}`).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};
use windjoin_core::{
    ExactEngine, OutPair, Params, PartitionGroup, PayloadStore, ProbeEngine, ScalarEngine, Side,
    SlaveCore, TuningParams, Tuple, WorkStats,
};
use windjoin_gen::KeyDist;
use windjoin_net::{
    decode_batch_into, encode_batch_into, Message, NetEvent, Tagging, TcpNetwork, TransportEndpoint,
};

/// One measured scenario.
struct Scenario {
    name: &'static str,
    /// Elements of work per iteration (for the elements/sec rate).
    elems_per_iter: u64,
    ns_per_iter: f64,
}

impl Scenario {
    fn elements_per_sec(&self) -> f64 {
        self.elems_per_iter as f64 * 1e9 / self.ns_per_iter
    }
}

/// Best-of-N wall-clock timer (same shape as the criterion shim): one
/// calibration call, then `samples` timed batches of an iteration count
/// targeting ~2 ms each; reports the fastest ns/iter.
fn time_best(samples: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let one_ns = t0.elapsed().as_nanos().max(1);
    let iters = (2_000_000 / one_ns).clamp(1, 1_000_000) as u64;
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// A partition-group preloaded with `n` left tuples (uniform keys over
/// 1 M), mirroring the `probe_one_tuple` microbench setup.
fn loaded_group<E: ProbeEngine>(n: u64, tuned: bool) -> PartitionGroup<E> {
    let mut p = Params::default_paper();
    p.sem.w_left_us = u64::MAX / 4;
    p.sem.w_right_us = u64::MAX / 4;
    p.tuning = tuned.then_some(TuningParams { theta_blocks: 16, max_depth: 10 });
    let mut g = PartitionGroup::new(&p);
    let mut out = Vec::new();
    let mut work = WorkStats::default();
    let mut keys = KeyDist::Uniform { domain: 1_000_000 }.sampler(7);
    for i in 0..n {
        g.insert(Tuple::new(Side::Left, i, keys.next_key(), i), &mut out, &mut work);
    }
    g.flush_all(&mut out, &mut work);
    g
}

fn probe_one_tuple<E: ProbeEngine>(
    name: &'static str,
    window: u64,
    tuned: bool,
    samples: usize,
) -> Scenario {
    let mut g: PartitionGroup<E> = loaded_group(window, tuned);
    let mut out: Vec<OutPair> = Vec::new();
    let mut work = WorkStats::default();
    let mut i = 0u64;
    let warm_probes = 64 * g.minigroup_count();
    let mut probe_once = || {
        out.clear();
        let t = Tuple::new(Side::Right, window + i, i % 1_000_000, i);
        g.insert(std::hint::black_box(t), &mut out, &mut work);
        g.flush_all(&mut out, &mut work);
        i += 1;
        std::hint::black_box(out.len());
    };
    // Steady state, not first touch: every mini-group sees dozens of
    // single-tuple probes before the clock starts, so caches are warm
    // and each window's probe-path estimate (`ExactEngine`'s recent
    // matches per probing tuple) has settled.
    for _ in 0..warm_probes {
        probe_once();
    }
    let ns = time_best(samples, probe_once);
    Scenario { name, elems_per_iter: 1, ns_per_iter: ns }
}

fn probe_batch(name: &'static str, window: u64, samples: usize) -> Scenario {
    const BATCH: u64 = 64;
    let mut g: PartitionGroup<ExactEngine> = loaded_group(window, false);
    let mut out: Vec<OutPair> = Vec::new();
    let mut work = WorkStats::default();
    // Probe keys come from the window's own key distribution, as a
    // drain's do: a dense run of consecutive keys lets the block
    // min/max prefilter skip most of the window.
    let mut keys = KeyDist::Uniform { domain: 1_000_000 }.sampler(13);
    let mut i = 0u64;
    let ns = time_best(samples, || {
        out.clear();
        for _ in 0..BATCH {
            g.insert(Tuple::new(Side::Right, window + i, keys.next_key(), i), &mut out, &mut work);
            i += 1;
        }
        g.flush_all(&mut out, &mut work);
        std::hint::black_box(out.len());
    });
    Scenario { name, elems_per_iter: BATCH, ns_per_iter: ns }
}

fn wire_roundtrip(samples: usize) -> (Scenario, Scenario) {
    let tuples: Vec<Tuple> = (0..4096)
        .map(|i| Tuple::new(if i % 2 == 0 { Side::Left } else { Side::Right }, i, i * 31, i))
        .collect();
    let mut scratch: Vec<u8> = Vec::new();
    let enc_ns = time_best(samples, || {
        scratch.clear();
        encode_batch_into(std::hint::black_box(&tuples), Tagging::StreamTag, &mut scratch);
        std::hint::black_box(scratch.len());
    });
    let encoded = windjoin_net::encode_batch(&tuples, Tagging::StreamTag);
    let mut decoded: Vec<Tuple> = Vec::new();
    let dec_ns = time_best(samples, || {
        decoded.clear();
        decode_batch_into(std::hint::black_box(encoded.clone()), &mut decoded).unwrap();
        std::hint::black_box(decoded.len());
    });
    (
        Scenario { name: "wire_encode_into/4096", elems_per_iter: 4096, ns_per_iter: enc_ns },
        Scenario { name: "wire_decode_into/4096", elems_per_iter: 4096, ns_per_iter: dec_ns },
    )
}

/// A full `Outputs` frame (the slave ships at most 65 536 pairs per
/// frame) through the reused-buffer codec pair the slave and the
/// collector run; elements are result pairs.
fn outputs_roundtrip(samples: usize) -> (Scenario, Scenario) {
    const PAIRS: u64 = 65_536;
    let pairs: Vec<OutPair> = (0..PAIRS)
        .map(|i| OutPair { key: i % 977, left: (i, 2 * i), right: (i + 1, 3 * i) })
        .collect();
    let mut scratch: Vec<u8> = Vec::new();
    let enc_ns = time_best(samples, || {
        Message::encode_outputs_into(std::hint::black_box(&pairs), &mut scratch);
        std::hint::black_box(scratch.len());
    });
    let encoded = Message::Outputs(pairs.clone()).encode();
    let mut decoded: Vec<OutPair> = Vec::new();
    let dec_ns = time_best(samples, || {
        let is_outputs =
            Message::decode_outputs_into(std::hint::black_box(encoded.clone()), &mut decoded);
        assert!(is_outputs.expect("well-formed frame"));
        std::hint::black_box(decoded.len());
    });
    (
        Scenario { name: "outputs_encode_into/65536", elems_per_iter: PAIRS, ns_per_iter: enc_ns },
        Scenario { name: "outputs_decode_into/65536", elems_per_iter: PAIRS, ns_per_iter: dec_ns },
    )
}

/// One slave draining a 16-partition batch; elements are processed
/// tuples.
///
/// The timed region contains **only** `receive_batch` + drain: probe
/// batches are pre-generated into a ring outside it (the first version
/// sampled keys inside the loop, folding generator cost into drain
/// throughput), so iterations measure steady-state drain work.
fn slave_drain(name: &'static str, samples: usize) -> Scenario {
    const BATCH: usize = 2048;
    const RING: usize = 64;
    let mut p = Params::default_paper();
    p.npart = 16;
    p.sem.w_left_us = u64::MAX / 4;
    p.sem.w_right_us = u64::MAX / 4;
    let mut s: SlaveCore<ExactEngine> = SlaveCore::new(0, p.clone());
    for pid in 0..p.npart {
        s.create_group(pid);
    }
    // Warm the windows so drains probe against real state.
    let mut keys = KeyDist::Uniform { domain: 100_000 }.sampler(11);
    let warm: Vec<Tuple> =
        (0..65_536u64).map(|i| Tuple::new(Side::Left, i, keys.next_key(), i)).collect();
    s.receive_batch(warm);
    let mut out = Vec::new();
    let mut work = WorkStats::default();
    s.process_pending(&mut out, &mut work);
    let mut seq = 1_000_000u64;
    let ring: Vec<Vec<Tuple>> = (0..RING)
        .map(|_| {
            (0..BATCH as u64)
                .map(|i| {
                    seq += 1;
                    Tuple::new(Side::Right, seq, keys.next_key(), seq + i)
                })
                .collect()
        })
        .collect();
    let mut r = 0usize;
    let ns = time_best(samples, || {
        out.clear();
        s.receive_batch_slice(&ring[r % RING]);
        r += 1;
        s.process_pending(&mut out, &mut work);
        std::hint::black_box(out.len());
    });
    Scenario { name, elems_per_iter: BATCH as u64, ns_per_iter: ns }
}

/// One slave's share of a fine-tuned, sparse stream pair at steady
/// state — the regime the end-to-end `sparse_tuned` and `wide_payload`
/// workloads live in: 16 partitions cut into mini-groups of θ = 16
/// blocks, uniform keys over 2 M (almost nothing matches), a sliding
/// window of 60 batches, so one drain splinters into flushes of ≈ 13
/// fresh tuples against ≈ 800 sealed ones per side, with block expiry
/// and the occasional split or merge in every batch. Each epoch's batch
/// arrives as `frames` consecutive frames, drained one by one — as the
/// leader's distribution ticks deliver it — so the same tape at 1 and
/// at 25 frames per epoch prices what finer ticks cost the slave.
/// Elements are processed tuples.
///
/// Event time has to advance (the window slides), so the timed region
/// also stamps the batch's timestamps and sequence numbers — a few
/// microseconds beside a drain of milliseconds.
fn slave_drain_tuned(name: &'static str, frames: usize, samples: usize) -> Scenario {
    const BATCH: u64 = 4096;
    const RING: usize = 16;
    const EPOCH_US: u64 = 50_000;
    const WINDOW_BATCHES: u64 = 60;
    let mut p = Params::default_paper().with_dist_epoch_us(EPOCH_US);
    p.npart = 16;
    p.sem.w_left_us = WINDOW_BATCHES * EPOCH_US;
    p.sem.w_right_us = WINDOW_BATCHES * EPOCH_US;
    p.tuning = Some(TuningParams { theta_blocks: 16, max_depth: 12 });
    let mut s: SlaveCore<ExactEngine> = SlaveCore::new(0, p.clone());
    for pid in 0..p.npart {
        s.create_group(pid);
    }
    let mut keys = KeyDist::Uniform { domain: 2_000_000 }.sampler(17);
    let mut ring: Vec<Vec<Tuple>> = (0..RING)
        .map(|_| {
            (0..BATCH)
                .map(|i| {
                    let side = if i % 2 == 0 { Side::Left } else { Side::Right };
                    Tuple::new(side, 0, keys.next_key(), 0)
                })
                .collect()
        })
        .collect();
    let frame_len = (BATCH as usize).div_ceil(frames);
    let mut out = Vec::new();
    let mut work = WorkStats::default();
    let mut epoch = 0u64;
    let mut drain_one = || {
        out.clear();
        let batch = &mut ring[epoch as usize % RING];
        for (i, t) in batch.iter_mut().enumerate() {
            let i = i as u64;
            t.t = epoch * EPOCH_US + i * EPOCH_US / BATCH;
            t.seq = (epoch * BATCH + i) / 2;
        }
        epoch += 1;
        for frame in batch.chunks(frame_len) {
            s.receive_batch_slice(frame);
            s.process_pending(&mut out, &mut work);
        }
        std::hint::black_box(out.len());
    };
    // Fill the window and let expiry and tuning settle.
    for _ in 0..2 * WINDOW_BATCHES {
        drain_one();
    }
    let ns = time_best(samples, drain_one);
    Scenario { name, elems_per_iter: BATCH, ns_per_iter: ns }
}

/// Width of the payloads in the payload scenarios (`wide_payload`'s).
const PAYLOAD_WIDTH: usize = 512;

/// One partition's payload store at steady state: every iteration
/// inserts a batch of 512-byte payloads (alternating sides, in arrival
/// order) and prunes the batch that slid out of a 60-batch window.
/// Elements are payloads, so the rate is the cost of one payload's whole
/// stay: one arena copy in, its share of a prune out.
fn payload_store_slide(samples: usize) -> Scenario {
    const BATCH: u64 = 1024;
    const WINDOW_BATCHES: u64 = 60;
    let bytes: Vec<u8> = (0..BATCH as usize * PAYLOAD_WIDTH).map(|i| (i / 7) as u8).collect();
    let mut store = PayloadStore::new();
    let mut epoch = 0u64;
    let mut slide = || {
        for (i, payload) in (0..BATCH).zip(bytes.chunks_exact(PAYLOAD_WIDTH)) {
            let side = Side::from_index((i % 2) as usize);
            store.insert(side, (epoch * BATCH + i) / 2, epoch, std::hint::black_box(payload));
        }
        epoch += 1;
        store.prune_before(epoch.saturating_sub(WINDOW_BATCHES));
        std::hint::black_box(store.len());
    };
    for _ in 0..2 * WINDOW_BATCHES {
        slide();
    }
    let ns = time_best(samples, slide);
    Scenario { name: "payload_store/insert_prune/512", elems_per_iter: BATCH, ns_per_iter: ns }
}

/// The slave's receive path for one `wide_payload` batch frame — 1 500
/// tuples with 512-byte payloads: the borrowed decode (tuples out, the
/// payloads a view of the frame), then each payload copied into a
/// sliding arena store. Elements are tuples.
fn payload_batch_decode(samples: usize) -> Scenario {
    const BATCH: u64 = 1500;
    let tuples: Vec<Tuple> =
        (0..BATCH).map(|i| Tuple::new(Side::from_index((i % 2) as usize), i, i * 31, i)).collect();
    let payloads: Vec<u8> = (0..BATCH as usize * PAYLOAD_WIDTH).map(|i| (i / 5) as u8).collect();
    let mut frame = Vec::new();
    Message::encode_payload_batch_from(
        &tuples,
        payloads.chunks_exact(PAYLOAD_WIDTH),
        PAYLOAD_WIDTH,
        &mut frame,
    );
    let mut store = PayloadStore::new();
    let mut decoded: Vec<Tuple> = Vec::new();
    let mut batches = 0u64;
    let mut receive = || {
        let column = Message::decode_payload_batch_view(std::hint::black_box(&frame), &mut decoded)
            .expect("well-formed frame")
            .expect("a payload batch");
        // Later batches carry later tuples: restamp, so the store slides.
        for (t, payload) in decoded.iter().zip(column.iter()) {
            store.insert(t.side, batches * BATCH + t.seq, batches, payload);
        }
        batches += 1;
        store.prune_before(batches.saturating_sub(8));
        std::hint::black_box(store.len());
    };
    for _ in 0..16 {
        receive();
    }
    let ns = time_best(samples, receive);
    Scenario { name: "payload_batch_decode/512", elems_per_iter: BATCH, ns_per_iter: ns }
}

/// Frames each rank's endpoint may queue in the saturation mesh — the
/// cluster runtimes' inbox size, large enough that no rank's queue
/// fills while it waits out one send.
const SATURATE_INBOX: usize = 4096;

/// All-to-all saturation over a loopback socket mesh, one thread per
/// rank: every rank blasts encoded tuple batches round-robin at every
/// other rank and takes what has arrived between sends, for a fixed
/// wall-clock window. Returns the (tuples/s, wire bytes/s) pair, both
/// **per node** — the delivered tuple rate a single rank sustains and
/// the socket-level volume it pushes (headers included) while every
/// peer is equally loaded.
fn net_saturate(ranks: usize, millis: u64) -> (Scenario, Scenario) {
    const BATCH: u64 = 512;
    let mut net = TcpNetwork::loopback(ranks, SATURATE_INBOX).expect("loopback mesh");
    let batch: Vec<Tuple> = (0..BATCH)
        .map(|i| Tuple::new(if i % 2 == 0 { Side::Left } else { Side::Right }, i, i * 131, i))
        .collect();
    let payload = windjoin_net::encode_batch(&batch, Tagging::StreamTag);
    let stop = AtomicBool::new(false);
    let senders_live = AtomicUsize::new(ranks);
    let frames_out = AtomicU64::new(0);
    let frames_in = AtomicU64::new(0);
    let t0 = Instant::now();
    let eps = thread::scope(|s| {
        let ranks_running: Vec<_> = (0..ranks)
            .map(|r| {
                let ep = net.take(r);
                let (stop, senders_live) = (&stop, &senders_live);
                let (frames_out, frames_in) = (&frames_out, &frames_in);
                let payload = &payload;
                s.spawn(move || {
                    let take_arrived = || {
                        while let Some(ev) = ep.try_recv_event() {
                            if let NetEvent::Frame(_) = ev {
                                frames_in.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    };
                    let mut to = (r + 1) % ranks;
                    while !stop.load(Ordering::Relaxed) {
                        if to != r {
                            if ep.send_slice(to, payload).is_err() {
                                break;
                            }
                            frames_out.fetch_add(1, Ordering::Relaxed);
                            take_arrived();
                        }
                        to = (to + 1) % ranks;
                    }
                    senders_live.fetch_sub(1, Ordering::Relaxed);
                    // Drain until every accepted frame has been
                    // delivered: a peer can still be in a send this
                    // rank's reading lets complete, and "the inbox
                    // looked quiet for a while" fires long before the
                    // backlog is through on a starved host.
                    while senders_live.load(Ordering::Relaxed) > 0
                        || frames_in.load(Ordering::Relaxed) < frames_out.load(Ordering::Relaxed)
                    {
                        match ep.recv_event_timeout(Duration::from_millis(5)) {
                            Ok(Some(NetEvent::Frame(_))) => {
                                frames_in.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(_) => {}
                            Err(_) => break,
                        }
                    }
                    ep
                })
            })
            .collect();
        thread::sleep(Duration::from_millis(millis));
        stop.store(true, Ordering::Relaxed);
        ranks_running.into_iter().map(|h| h.join().expect("rank thread")).collect::<Vec<_>>()
    });
    // The window closes only after every in-flight frame (kernel
    // buffers, endpoint queues) has been delivered, so the clock must
    // too: rates are total delivered work over total time, which keeps
    // tuples/s and wire bytes/s mutually consistent even when an
    // oversubscribed host lets a deep backlog build up.
    let elapsed_ns = t0.elapsed().as_nanos() as f64;
    let tuples_per_node = frames_in.load(Ordering::Relaxed) * BATCH / ranks as u64;
    let wire_per_node = eps.iter().map(|e| e.wire_stats().bytes_sent).sum::<u64>() / ranks as u64;
    let row = |unit: &str, elems_per_iter| Scenario {
        // Leaked: a few dozen row names in a run-once tool.
        name: format!("net_saturate/{unit}/ranks={ranks}").leak(),
        elems_per_iter,
        ns_per_iter: elapsed_ns,
    };
    (row("tuples", tuples_per_node), row("wire_bytes", wire_per_node))
}

fn json_escape_free(name: &str) -> &str {
    assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "/_-=.".contains(c)));
    name
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut samples = 5; // quick mode: ~seconds of wall clock
    let mut net_mode = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => samples = 25,
            "--net" => net_mode = true,
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).expect("--out needs a path").clone());
            }
            other => {
                eprintln!("perfjson: unknown flag {other:?}");
                eprintln!("usage: perfjson [--out PATH] [--full] [--net]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let out_path = out_path.unwrap_or_else(|| {
        if net_mode { "BENCH_net.json" } else { "BENCH_probe.json" }.to_string()
    });

    let mut scenarios = Vec::new();
    let mut speedup = None;
    if net_mode {
        // Saturation windows long enough for the meshes to reach steady
        // state; `--full` trades wall clock for tighter rates. Each rank
        // count is measured best-of-3 (the pass with the highest tuple
        // rate wins, keeping its bytes pair) — a single pass is at the
        // mercy of whatever else a shared runner schedules onto the
        // cores for that half second.
        let millis = if samples >= 25 { 1000 } else { 400 };
        for ranks in [4, 8, 16] {
            eprintln!("perfjson: net_saturate: saturating a {ranks}-rank loopback mesh...");
            let mut best: Option<(Scenario, Scenario)> = None;
            for _ in 0..3 {
                let pass = net_saturate(ranks, millis);
                if best.as_ref().is_none_or(|b| pass.0.elements_per_sec() > b.0.elements_per_sec())
                {
                    best = Some(pass);
                }
            }
            let (tuples, bytes) = best.expect("three passes ran");
            scenarios.push(tuples);
            scenarios.push(bytes);
        }
    } else {
        eprintln!("perfjson: timing probe kernels ({samples} samples per scenario)...");
        scenarios.extend([
            probe_one_tuple::<ExactEngine>("probe_one_tuple/flat/65536", 65_536, false, samples),
            probe_one_tuple::<ExactEngine>("probe_one_tuple/tuned/65536", 65_536, true, samples),
            probe_one_tuple::<ScalarEngine>(
                "probe_one_tuple_scalar/flat/65536",
                65_536,
                false,
                samples,
            ),
            probe_batch("probe_batch64/flat/65536", 65_536, samples),
        ]);
        eprintln!("perfjson: timing wire codecs...");
        let (enc, dec) = wire_roundtrip(samples);
        let (out_enc, out_dec) = outputs_roundtrip(samples);
        scenarios.extend([enc, dec, out_enc, out_dec]);
        eprintln!("perfjson: timing slave drain...");
        scenarios.push(slave_drain("slave_drain/threads=1", samples));
        scenarios.push(slave_drain_tuned("slave_drain_tuned/threads=1", 1, samples));
        scenarios.push(slave_drain_tuned("slave_drain_split/1", 1, samples));
        scenarios.push(slave_drain_tuned("slave_drain_split/25", 25, samples));
        eprintln!("perfjson: timing the payload path...");
        scenarios.push(payload_store_slide(samples));
        scenarios.push(payload_batch_decode(samples));

        let columnar = scenarios.iter().find(|s| s.name == "probe_one_tuple/flat/65536").unwrap();
        let scalar =
            scenarios.iter().find(|s| s.name == "probe_one_tuple_scalar/flat/65536").unwrap();
        speedup = Some(columnar.elements_per_sec() / scalar.elements_per_sec());
    }

    // Rates are only comparable between hosts of like size.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"windjoin-perfjson/2\",\n");
    let cmd_suffix = if net_mode { " -- --net" } else { "" };
    json.push_str(&format!(
        "  \"command\": \"cargo run --release -p windjoin-bench --bin perfjson{cmd_suffix}\",\n"
    ));
    json.push_str(&format!("  \"samples\": {samples},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    if let Some(speedup) = speedup {
        json.push_str(&format!("  \"speedup_vs_scalar\": {speedup:.3},\n"));
    }
    json.push_str("  \"scenarios\": [\n");
    for (i, s) in scenarios.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"elements_per_sec\": {:.1}, \"ns_per_iter\": {:.1}}}{}\n",
            json_escape_free(s.name),
            s.elements_per_sec(),
            s.ns_per_iter,
            if i + 1 == scenarios.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write snapshot json");
    for s in &scenarios {
        eprintln!(
            "  {:<36} {:>14.0} elem/s  ({:>12.1} ns/iter)",
            s.name,
            s.elements_per_sec(),
            s.ns_per_iter
        );
    }
    match speedup {
        Some(speedup) => {
            eprintln!("perfjson: columnar/scalar speedup {speedup:.2}x; wrote {out_path}")
        }
        None => eprintln!("perfjson: wrote {out_path}"),
    }
}
