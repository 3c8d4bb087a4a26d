//! Workspace-lease budget of one warm `convolve_compressed`.
//!
//! The strided transforms run over tiles of 8 pencils whose scratch is
//! carved out of the dispatch's own lease, and the per-row transforms use
//! thread-local scratch, so arena leases are per call, per dispatch and per
//! retained plane — never per pencil. The counter is process-global, which
//! is why this test has a file (a process) to itself.

use std::sync::Arc;

use lcc_core::LocalConvolver;
use lcc_greens::{GaussianKernel, KernelSpectrum};
use lcc_grid::{BoxRegion, Grid3};
use lcc_obs::ObsSession;
use lcc_octree::{RateSchedule, SamplingPlan};

#[test]
fn warm_convolve_takes_at_most_one_lease_per_eight_pencils() {
    let (n, k, batch) = (32, 8, 64);
    let kernel = GaussianKernel::new(n, 1.5);
    let corner = [8usize, 0, 16];
    let center = kernel.center();
    let response = BoxRegion::new(
        std::array::from_fn(|a| (corner[a] + center[a]) % n),
        std::array::from_fn(|a| (corner[a] + center[a]) % n + k),
    );
    let plan = Arc::new(SamplingPlan::build(
        n,
        response,
        &RateSchedule::paper_default(k, 8),
    ));
    let sub = Grid3::from_fn((k, k, k), |x, y, z| {
        ((x * 3 + y * 5 + z * 7) as f64 * 0.31).sin()
    });
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
        assert_eq!(pencils, (n * (n / 2 + 1)) as u64);
        assert!(
            leases <= pencils / 8,
            "{leases} leases for {pencils} z-pencils"
        );
        // And not vacuously: the call-level lease, stage 1's, one per
        // z-stage dispatch and one per retained plane are still there.
        let dispatches = (pencils as usize).div_ceil(batch) as u64;
        assert!(leases >= 2 + dispatches, "{leases} leases");
    });
}
