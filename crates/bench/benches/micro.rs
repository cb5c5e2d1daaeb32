//! Microbenchmarks of the hot paths: the physical BNLJ probe with and
//! without fine tuning (the per-operation ablation behind Fig. 7),
//! extendible-hash maintenance, wire framing, generators, and the
//! master's distribution drain.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use windjoin_core::{
    ExactEngine, MasterCore, OutPair, Params, PartitionGroup, ProbeEngine, ScalarEngine, Side,
    TuningParams, Tuple, WorkStats,
};
use windjoin_gen::{BModel, KeyDist, PoissonArrivals, RateSchedule, Zipf};
use windjoin_net::{decode_batch, decode_batch_into, encode_batch, encode_batch_into, Tagging};

/// Builds a partition-group preloaded with `n` left-side tuples.
fn loaded_group<E: ProbeEngine>(n: u64, tuned: bool) -> PartitionGroup<E> {
    let mut p = Params::default_paper();
    p.sem.w_left_us = u64::MAX / 4;
    p.sem.w_right_us = u64::MAX / 4;
    if !tuned {
        p.tuning = None;
    } else {
        p.tuning = Some(TuningParams { theta_blocks: 16, max_depth: 10 });
    }
    let mut g = PartitionGroup::new(&p);
    let mut out = Vec::new();
    let mut work = WorkStats::default();
    let mut rng = SmallRng::seed_from_u64(7);
    for i in 0..n {
        let key = rng.gen_range(0..1_000_000u64);
        g.insert(Tuple::new(Side::Left, i, key, i), &mut out, &mut work);
    }
    g.flush_all(&mut out, &mut work);
    g
}

fn bench_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_one_tuple");
    for &window in &[4_096u64, 16_384, 65_536] {
        for tuned in [false, true] {
            let label = if tuned { "tuned" } else { "flat" };
            group.throughput(Throughput::Elements(1));
            group.bench_with_input(BenchmarkId::new(label, window), &window, |b, &window| {
                // ExactEngine: physical scans — this is the real
                // BNLJ cost the CostModel charges for.
                let mut g: PartitionGroup<ExactEngine> = loaded_group(window, tuned);
                let mut out: Vec<OutPair> = Vec::new();
                let mut work = WorkStats::default();
                let mut i = 0u64;
                b.iter(|| {
                    out.clear();
                    let t = Tuple::new(Side::Right, window + i, i % 1_000_000, i);
                    g.insert(black_box(t), &mut out, &mut work);
                    g.flush_all(&mut out, &mut work);
                    i += 1;
                    black_box(out.len())
                });
            });
        }
    }
    group.finish();
}

/// Before/after of the probe tentpole on the same 65 536-tuple window:
/// `scalar_reference` is the retained pre-change tuple-at-a-time kernel,
/// `columnar` the batched SoA kernel that replaced it.
fn bench_probe_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_kernel_65536");
    group.throughput(Throughput::Elements(1));
    fn one_tuple_loop<E: ProbeEngine>(b: &mut criterion::Bencher) {
        let mut g: PartitionGroup<E> = loaded_group(65_536, false);
        let mut out: Vec<OutPair> = Vec::new();
        let mut work = WorkStats::default();
        let mut i = 0u64;
        b.iter(|| {
            out.clear();
            let t = Tuple::new(Side::Right, 65_536 + i, i % 1_000_000, i);
            g.insert(black_box(t), &mut out, &mut work);
            g.flush_all(&mut out, &mut work);
            i += 1;
            black_box(out.len())
        });
    }
    group.bench_function("scalar_reference", one_tuple_loop::<ScalarEngine>);
    group.bench_function("columnar", one_tuple_loop::<ExactEngine>);
    group.finish();
}

/// The batched kernel on whole-block probes: one iteration inserts a
/// full 64-tuple block (auto-flushing on the head fill), i.e. the
/// `probe_batch` path versus `probe_one_tuple` above.
fn bench_probe_batch(c: &mut Criterion) {
    const BATCH: u64 = 64;
    let mut group = c.benchmark_group("probe_batch_64");
    group.throughput(Throughput::Elements(BATCH));
    for tuned in [false, true] {
        let label = if tuned { "tuned" } else { "flat" };
        group.bench_function(label, |b| {
            let mut g: PartitionGroup<ExactEngine> = loaded_group(65_536, tuned);
            let mut out: Vec<OutPair> = Vec::new();
            let mut work = WorkStats::default();
            let mut i = 0u64;
            b.iter(|| {
                out.clear();
                for _ in 0..BATCH {
                    let t = Tuple::new(Side::Right, 65_536 + i, i % 1_000_000, i);
                    g.insert(black_box(t), &mut out, &mut work);
                    i += 1;
                }
                g.flush_all(&mut out, &mut work);
                black_box(out.len())
            });
        });
    }
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    let tuples: Vec<Tuple> = (0..4096)
        .map(|i| Tuple::new(if i % 2 == 0 { Side::Left } else { Side::Right }, i, i * 31, i))
        .collect();
    let mut group = c.benchmark_group("wire_4096_tuples");
    group.throughput(Throughput::Bytes((tuples.len() * 64) as u64));
    for tagging in [Tagging::StreamTag, Tagging::Punctuated] {
        group.bench_function(format!("encode_{tagging:?}"), |b| {
            b.iter(|| black_box(encode_batch(black_box(&tuples), tagging)));
        });
        let encoded = encode_batch(&tuples, tagging);
        group.bench_function(format!("decode_{tagging:?}"), |b| {
            b.iter(|| black_box(decode_batch(black_box(encoded.clone())).unwrap()));
        });
        // The reused-scratch hot path: encode into a persistent buffer,
        // decode into a persistent tuple vector (no per-batch allocs).
        group.bench_function(format!("encode_into_{tagging:?}"), |b| {
            let mut scratch: Vec<u8> = Vec::new();
            b.iter(|| {
                scratch.clear();
                encode_batch_into(black_box(&tuples), tagging, &mut scratch);
                black_box(scratch.len())
            });
        });
        group.bench_function(format!("decode_into_{tagging:?}"), |b| {
            let mut decoded: Vec<Tuple> = Vec::new();
            b.iter(|| {
                decoded.clear();
                decode_batch_into(black_box(encoded.clone()), &mut decoded).unwrap();
                black_box(decoded.len())
            });
        });
    }
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.throughput(Throughput::Elements(1));
    group.bench_function("poisson_next", |b| {
        let mut p = PoissonArrivals::new(RateSchedule::constant(1500.0), 3);
        b.iter(|| black_box(p.next()));
    });
    group.bench_function("bmodel_sample", |b| {
        let m = BModel::new(0.7, 10_000_000);
        let mut rng = SmallRng::seed_from_u64(5);
        b.iter(|| black_box(m.sample(&mut rng)));
    });
    group.bench_function("zipf_sample", |b| {
        let z = Zipf::new(10_000_000, 1.1);
        let mut rng = SmallRng::seed_from_u64(5);
        b.iter(|| black_box(z.sample(&mut rng)));
    });
    group.finish();
}

fn bench_master_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("master");
    // One epoch at Table I defaults: 1500 t/s * 2 streams * 2 s = 6000.
    group.throughput(Throughput::Elements(6000));
    group.bench_function("buffer_and_drain_epoch", |b| {
        let params = Params::default_paper();
        let mut master = MasterCore::new(params, 4, 4, 1);
        let keys = KeyDist::paper_default();
        let mut sampler = keys.sampler(9);
        b.iter(|| {
            for i in 0..6000u64 {
                let side = if i % 2 == 0 { Side::Left } else { Side::Right };
                master.on_arrival(Tuple::new(side, i, sampler.next_key(), i));
            }
            black_box(master.drain_for_slot(0))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_probe,
    bench_probe_kernels,
    bench_probe_batch,
    bench_wire,
    bench_generators,
    bench_master_drain
);
criterion_main!(benches);
