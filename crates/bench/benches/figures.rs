//! One Criterion bench per paper table/figure, each running that
//! experiment's sweep at `Scale::Smoke` (seconds of simulated time).
//! These exist so `cargo bench` exercises the exact code path behind
//! every figure; the *figure-faithful* numbers come from the `repro`
//! binary at full scale.

use criterion::{criterion_group, criterion_main, Criterion};
use windjoin_bench::{run_experiment, Scale, EXPERIMENT_NAMES};

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures_smoke");
    group.sample_size(10);
    for name in EXPERIMENT_NAMES {
        group.bench_function(*name, |b| {
            b.iter(|| {
                let tables = run_experiment(name, Scale::Smoke).expect("known experiment");
                criterion::black_box(tables.len())
            });
        });
    }
    group.finish();
}

criterion_group!(figures, bench_figures);
criterion_main!(figures);
