//! Convolution benchmarks: the traditional dense path vs the low-comm
//! pipeline (full orchestration), plus the single-sub-domain streaming
//! pipeline in isolation.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcc_bench::standard_input;
use lcc_core::{LocalConvolver, LowCommConfig, LowCommConvolver, TraditionalConvolver};
use lcc_greens::GaussianKernel;
use lcc_grid::{BoxRegion, Grid3};
use lcc_octree::{RateSchedule, SamplingPlan};

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("conv_end_to_end");
    g.sample_size(10);
    for n in [16usize, 32] {
        let k = n / 4;
        let kernel = GaussianKernel::new(n, 1.0);
        let input = standard_input(n);
        let dense = TraditionalConvolver::new(n);
        g.bench_with_input(BenchmarkId::new("traditional", n), &n, |b, _| {
            b.iter(|| dense.convolve(&input, &kernel))
        });
        let conv = LowCommConvolver::new(LowCommConfig {
            n,
            k,
            batch: 512,
            schedule: RateSchedule::paper_default(k, 16),
        });
        let lc = conv.session(lcc_core::ConvolveMode::Normal);
        g.bench_with_input(BenchmarkId::new("lowcomm", n), &n, |b, _| {
            b.iter(|| lc.convolve(&input, &kernel))
        });
    }
    g.finish();
}

fn bench_single_domain(c: &mut Criterion) {
    let mut g = c.benchmark_group("conv_single_domain");
    g.sample_size(10);
    let k = 16usize;
    for n in [64usize, 128] {
        let kernel = GaussianKernel::new(n, 1.0);
        let sub = Grid3::from_fn((k, k, k), |x, y, z| (x + y + z) as f64);
        let hotspot = BoxRegion::new([n / 2; 3], [n / 2 + k; 3]);
        let plan = Arc::new(SamplingPlan::build(
            n,
            hotspot,
            &RateSchedule::paper_default(k, 16),
        ));
        let conv = LocalConvolver::new(n, k, 1024);
        g.bench_with_input(BenchmarkId::new("streaming_pipeline", n), &n, |b, _| {
            b.iter(|| conv.convolve_compressed(&sub, [0; 3], &kernel, plan.clone()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_end_to_end, bench_single_domain);
criterion_main!(benches);
