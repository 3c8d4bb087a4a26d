//! Workspace-lease budget and pooled memory of a warm `convolve_compressed`.
//!
//! The strided transforms run over tiles of 8 pencils whose scratch is
//! carved out of the dispatch's own lease, and the per-row transforms use
//! thread-local scratch, so arena leases are per call, per pass and per
//! z-stage dispatch of each column block — never per pencil. The counters
//! and the free list are process-global, which is why these tests have a
//! file (a process) to themselves and take turns.

use std::sync::Arc;

use lcc_core::LocalConvolver;
use lcc_fft::tile::W;
use lcc_greens::{GaussianKernel, KernelSpectrum};
use lcc_grid::{BoxRegion, Grid3};
use lcc_obs::ObsSession;
use lcc_octree::{RateSchedule, SamplingPlan};
use parking_lot::Mutex;

/// One test at a time: both read process-global state.
static SERIAL: Mutex<()> = Mutex::new(());

/// A `k³` sub-domain at `corner` and the plan of its response region.
fn problem(
    n: usize,
    k: usize,
    corner: [usize; 3],
    kernel: &GaussianKernel,
    schedule: &RateSchedule,
) -> (Grid3<f64>, Arc<SamplingPlan>) {
    let center = kernel.center();
    let response = BoxRegion::new(
        std::array::from_fn(|a| (corner[a] + center[a]) % n),
        std::array::from_fn(|a| (corner[a] + center[a]) % n + k),
    );
    let sub = Grid3::from_fn((k, k, k), |x, y, z| {
        ((x * 3 + y * 5 + z * 7) as f64 * 0.31).sin()
    });
    (sub, Arc::new(SamplingPlan::build(n, response, schedule)))
}

#[test]
fn warm_convolve_takes_at_most_one_lease_per_eight_pencils() {
    let _serial = SERIAL.lock();
    let (n, k, batch) = (32, 8, 64);
    let kernel = GaussianKernel::new(n, 1.5);
    let corner = [8usize, 0, 16];
    let (sub, plan) = problem(n, k, corner, &kernel, &RateSchedule::paper_default(k, 8));
    let conv = LocalConvolver::new(n, k, batch);
    // One participant: every parallel dispatch leases once per thread that
    // takes part, so a pool adds (threads − 1) leases per dispatch — a
    // property of the pool, not of the pipeline.
    rayon::run_sequential(|| {
        conv.convolve_compressed(&sub, corner, &kernel, plan.clone());
        let session = ObsSession::start().expect("no other obs session in this process");
        conv.convolve_compressed(&sub, corner, &kernel, plan.clone());
        let report = session.finish();
        let leases = report.counter("fft.workspace_leases").expect("counter");
        let pencils = report
            .counter("pipeline.pencils_transformed")
            .expect("counter");
        let h = n / 2 + 1;
        assert_eq!(pencils, (n * h) as u64);
        assert!(
            leases <= pencils / 8,
            "{leases} leases for {pencils} z-pencils"
        );
        // And not vacuously: the call-level lease, the y pass's and the
        // c2r pass's, and per column block one for each x pass and one per
        // z-stage dispatch of the block's n·w pencils are still there.
        let blocks = (0..h).step_by(W).map(|fy0| W.min(h - fy0));
        let block_leases: usize = blocks
            .map(|w| 2 + (n * w).div_ceil(W).div_ceil(batch.div_ceil(W)))
            .sum();
        assert!(leases >= 3 + block_leases as u64, "{leases} leases");
    });
}

#[test]
fn warm_pool_holds_the_blocked_arena_not_the_slab() {
    let _serial = SERIAL.lock();
    let (n, k) = (128, 32);
    let kernel = GaussianKernel::new(n, 2.0);
    let corner = [32usize, 64, 96];
    let schedule = RateSchedule::for_kernel_spread(k, 2.0, 16);
    let (sub, plan) = problem(n, k, corner, &kernel, &schedule);
    let conv = LocalConvolver::new(n, k, 1024);
    rayon::run_sequential(|| {
        for _ in 0..2 {
            conv.convolve_compressed(&sub, corner, &kernel, plan.clone());
        }
    });
    // With no lease live, the free list holds the call arena and the one
    // arena every nested pass leases: nothing grew past the footprint's
    // arena plus one participant's tile scratch.
    let pooled = lcc_fft::workspace::pooled_bytes() as u64;
    let fp = conv.footprint(&plan);
    let arena = fp.slab_bytes + fp.retained_bytes;
    assert!(
        (arena..=arena + fp.batch_bytes).contains(&pooled),
        "{pooled} B pooled, footprint {fp:?}"
    );
    // The unblocked call arena alone was the k-plane slab plus every
    // retained half-plane.
    let (h, nzr) = (n / 2 + 1, plan.retained_plane_count());
    assert!((pooled as usize) < 16 * (k + nzr) * n * h, "{pooled} B");
}
