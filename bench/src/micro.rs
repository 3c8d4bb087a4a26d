//! Per-layer micro-timings of a traced run: each public call named in the
//! README's layer table, timed from here on the workload's own shapes.
//! Counts come from public report structs; rates carry their base (model
//! flops `5·n·log₂n` per transform; bytes computed from array sizes).

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lcc_bench::roofline::stream_bandwidth_gbs;
use lcc_core::{LowCommConvolver, TraditionalConvolver};
use lcc_fft::{fft_2d, fft_axis, Complex64, FftDirection, FftPlanner, PrunedPlanner};
use lcc_greens::GaussianKernel;
use lcc_grid::{BoxRegion, Grid3};
use lcc_obs::ObsSession;
use lcc_octree::{CompressedField, SamplingPlan};

use crate::report::Outcome;
use crate::stats::median;
use crate::ALLOC;

/// Median seconds per call of `f`, over at least `min_reps` calls and at
/// least `min_total` of wall time (one warm-up call first). `reset` runs
/// untimed before every call.
pub fn time_median_reset(
    min_reps: usize,
    min_total: Duration,
    mut reset: impl FnMut(),
    mut f: impl FnMut(),
) -> f64 {
    reset();
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_reps || start.elapsed() < min_total {
        reset();
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// [`time_median_reset`] for calls that need nothing restored between them.
pub fn time_median(min_reps: usize, min_total: Duration, f: impl FnMut()) -> f64 {
    time_median_reset(min_reps, min_total, || {}, f)
}

const SHORT: Duration = Duration::from_millis(60);

/// Computed bytes one transform pass moves: each `Complex64` read and
/// written once. Cache misses are ignored; the figure is a model.
fn pass_bytes(elements: usize) -> f64 {
    32.0 * elements as f64
}

/// The shapes a workload hands to the layer timings.
pub struct Shapes<'a> {
    pub conv: &'a LowCommConvolver,
    pub kernel: &'a GaussianKernel,
    pub input: &'a Grid3<f64>,
    /// A sub-domain the input is nonzero in.
    pub domain: BoxRegion,
}

/// Times the `lcc-fft`, `lcc-octree` and `lcc-core` calls on the shapes of
/// `s` and records the per-layer metrics every workload has.
pub fn layers(out: &mut Outcome, s: &Shapes<'_>) {
    let n = s.conv.config().n;
    let k = s.conv.config().k;
    // Context for the rates below: the repo's own single-thread stream copy
    // (32 MiB a side). No roofline fraction is derived from it, because the
    // arrays are not four times the last-level cache of every host.
    out.set("fft.stream_gbs", stream_bandwidth_gbs());

    // ---- lcc-fft: the slab shape of stage 1/2, k planes of n×n. ----
    let planner = FftPlanner::new();
    let dims = (k, n, n);
    let pristine: Vec<Complex64> = (0..k * n * n)
        .map(|i| Complex64::new((i % 17) as f64 * 0.1, (i % 5) as f64 * 0.2))
        .collect();
    // Transforms are unnormalized, so every timed call starts from a fresh
    // copy (made outside the timed part) and the data never overflows.
    let slab = std::cell::RefCell::new(pristine.clone());
    let flops = lcc_device::fft_flops(n, n * k);
    for (axis, rate) in [(2, "fft.contig_gflops"), (1, "fft.strided_gflops")] {
        let t = time_median_reset(
            5,
            SHORT,
            || slab.borrow_mut().copy_from_slice(&pristine),
            || {
                fft_axis(
                    &planner,
                    &mut slab.borrow_mut(),
                    dims,
                    axis,
                    FftDirection::Forward,
                )
            },
        );
        out.set(rate, flops / t / 1e9);
    }
    out.note(format!(
        "fft.*_gflops: {} pencils of length {n} (dims {k}x{n}x{n}), model flops 5*n*log2(n) each, \
         {:.4e} computed bytes per pass (32 per element)",
        n * k,
        pass_bytes(n * n * k)
    ));
    let plane = std::cell::RefCell::new(pristine[..n * n].to_vec());
    out.set(
        "fft.fft2d_plane_s",
        time_median_reset(
            5,
            SHORT,
            || plane.borrow_mut().copy_from_slice(&pristine[..n * n]),
            || {
                fft_2d(
                    &planner,
                    &mut plane.borrow_mut(),
                    (n, n),
                    FftDirection::Forward,
                )
            },
        ),
    );
    let pruned = PrunedPlanner::new().plan_pruned(n, k, FftDirection::Forward);
    let head = pristine[..k].to_vec();
    let (mut full, mut scratch) = (vec![Complex64::ZERO; n], vec![Complex64::ZERO; k]);
    const PRUNED_BATCH: usize = 256;
    out.set(
        "fft.pruned_process_s",
        time_median(5, SHORT, || {
            for _ in 0..PRUNED_BATCH {
                pruned.process(black_box(&head), &mut full, &mut scratch);
            }
            black_box(&mut full);
        }) / PRUNED_BATCH as f64,
    );

    // ---- lcc-octree: the plan of one active sub-domain. ----
    let region = s.conv.response_region(&s.domain, s.kernel);
    let schedule = &s.conv.config().schedule;
    out.set(
        "octree.plan_build_s",
        time_median(3, SHORT, || {
            black_box(SamplingPlan::build(n, region, schedule));
        }),
    );
    let plan: Arc<SamplingPlan> = s.conv.plan_for(region);
    out.set("octree.plan_cells", plan.cells().len() as f64);
    out.set("octree.plan_samples", plan.total_samples() as f64);
    out.set("octree.compression_x", plan.compression_ratio());
    let retained = plan.retained_z();
    let real_plane: Vec<f64> = (0..n * n).map(|i| i as f64).collect();
    let mut sink = CompressedField::zeros(plan.clone());
    let capture_s = time_median(3, SHORT, || {
        for &z in &retained {
            sink.capture_plane(z, &real_plane);
        }
    });
    out.set("octree.capture_s", capture_s);
    out.set(
        "octree.capture_msamples_s",
        plan.total_samples() as f64 / capture_s / 1e6,
    );

    // ---- lcc-core: one warm sub-domain through the local pipeline. ----
    let sub = s.input.extract(&s.domain);
    let local = s.conv.local();
    let mut field = local.convolve_compressed(&sub, s.domain.lo, s.kernel, plan.clone());
    let compress_s = time_median(3, Duration::from_millis(200), || {
        field = local.convolve_compressed(&sub, s.domain.lo, s.kernel, plan.clone());
    });
    let (flops, bytes) = (local.flops_estimate(&plan), local.bytes_estimate(&plan));
    out.set("core.compress_domain_s", compress_s);
    out.set("core.compress_gflops", flops / compress_s / 1e9);
    out.note(format!(
        "core.compress_gflops: LocalConvolver::flops_estimate = {flops:.4e} flops, \
         bytes_estimate = {bytes:.4e} computed bytes"
    ));
    // Stage split from the spans lcc-core already records, read through
    // the public ObsSession; left at 0 if another session holds the
    // collector.
    if let Some(session) = ObsSession::start() {
        black_box(local.convolve_compressed(&sub, s.domain.lo, s.kernel, plan.clone()));
        let report = session.finish();
        for (metric, span) in [
            ("core.stage1_s", "stage1_2d_fft"),
            ("core.stage2_s", "stage2_z_pencils"),
            ("core.stage3_s", "stage3_inverse_sample"),
        ] {
            out.set(metric, report.span_total_ns(span) as f64 * 1e-9);
        }
    }

    // ---- lcc-octree again: fold that field back into the dense cube. ----
    let cube = BoxRegion::cube(n);
    let mut dense = Grid3::zeros((n, n, n));
    let add_s = time_median(3, Duration::from_millis(200), || {
        field.add_region_into(&cube, &mut dense, 1.0);
    });
    out.set("octree.add_region_s", add_s);
    out.set(
        "octree.add_region_mcells_s",
        (n * n * n) as f64 / add_s / 1e6,
    );
    drop(dense);

    // ---- the dense single-node baseline on the same input. ----
    let traditional = TraditionalConvolver::new(n);
    out.set(
        "core.traditional_convolve_s",
        time_median(1, Duration::ZERO, || {
            black_box(traditional.convolve(s.input, s.kernel));
        }),
    );

    let cache = s.conv.plan_cache();
    let (hits, misses) = (cache.hit_count() as f64, cache.miss_count() as f64);
    out.set(
        "octree.plan_cache_hit_frac",
        hits / (hits + misses).max(1.0),
    );
}

/// Allocator traffic of one call of `f` (count, bytes).
pub fn alloc_traffic(f: impl FnOnce()) -> (f64, f64) {
    let before = ALLOC.traffic();
    f();
    let after = ALLOC.traffic();
    (
        (after.count - before.count) as f64,
        (after.bytes - before.bytes) as f64,
    )
}
