//! FFT substrate microbenchmarks, including the pruned-transform ablation:
//! a k-supported zero-padded forward stage should cost ~log k / log N of
//! the full transform (DESIGN.md §5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcc_fft::{c64, fft_3d, Complex64, FftDirection, FftPlanner, PrunedInputFft};

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| c64((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
        .collect()
}

fn bench_1d(c: &mut Criterion) {
    let planner = FftPlanner::new();
    let mut g = c.benchmark_group("fft_1d");
    g.sample_size(30);
    for n in [256usize, 1024, 4096] {
        let plan = planner.plan(n, FftDirection::Forward);
        let base = signal(n);
        g.bench_with_input(BenchmarkId::new("pow2", n), &n, |b, _| {
            b.iter_batched(
                || base.clone(),
                |mut buf| plan.process(&mut buf),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    for n in [251usize, 1021] {
        let plan = planner.plan(n, FftDirection::Forward);
        let base = signal(n);
        g.bench_with_input(BenchmarkId::new("bluestein_prime", n), &n, |b, _| {
            b.iter_batched(
                || base.clone(),
                |mut buf| plan.process(&mut buf),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_pruned_ablation(c: &mut Criterion) {
    let planner = FftPlanner::new();
    let mut g = c.benchmark_group("pruned_vs_full");
    g.sample_size(30);
    let n = 4096usize;
    for k in [32usize, 256, 4096] {
        let pruned = PrunedInputFft::new(&planner, n, k, FftDirection::Forward);
        let head = signal(k);
        let mut out = vec![Complex64::ZERO; n];
        let mut scratch = vec![Complex64::ZERO; k];
        g.bench_with_input(BenchmarkId::new("pruned_k", k), &k, |b, _| {
            b.iter(|| pruned.process(&head, &mut out, &mut scratch))
        });
    }
    // Full padded transform for reference.
    let plan = planner.plan(n, FftDirection::Forward);
    let mut padded = signal(32);
    padded.resize(n, Complex64::ZERO);
    g.bench_function("full_padded", |b| {
        b.iter_batched(
            || padded.clone(),
            |mut buf| plan.process(&mut buf),
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_3d(c: &mut Criterion) {
    let planner = FftPlanner::new();
    let mut g = c.benchmark_group("fft_3d");
    g.sample_size(10);
    for n in [16usize, 32, 64] {
        let base = signal(n * n * n);
        g.bench_with_input(BenchmarkId::new("cube", n), &n, |b, &n| {
            b.iter_batched(
                || base.clone(),
                |mut buf| fft_3d(&planner, &mut buf, (n, n, n), FftDirection::Forward),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_1d, bench_pruned_ablation, bench_3d);
criterion_main!(benches);
