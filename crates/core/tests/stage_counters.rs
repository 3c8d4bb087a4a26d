//! The pipeline's per-phase counters: the stage-3 row counts are the plan's
//! table, and the stage-2 phase timers run only while a session collects.
//!
//! Counters are process-global, which is why this test has a file (a
//! process) to itself.

use std::sync::Arc;

use lcc_core::LocalConvolver;
use lcc_greens::{GaussianKernel, KernelSpectrum, MassifGamma};
use lcc_grid::{BoxRegion, Grid3};
use lcc_obs::{ObsReport, ObsSession};
use lcc_octree::{RateSchedule, SamplingPlan};

fn count(report: &ObsReport, name: &str) -> u64 {
    report.counter(name).expect("counter")
}

#[test]
fn stage3_rows_match_the_plan_and_stage2_phases_are_timed() {
    let (n, k) = (32, 8);
    let kernel = GaussianKernel::new(n, 1.5);
    let corner = [8usize, 24, 16];
    let center = kernel.center();
    let lo = std::array::from_fn(|a| (corner[a] + center[a]) % n);
    let plan = Arc::new(SamplingPlan::build(
        n,
        BoxRegion::new(lo, lo.map(|l| l + k)),
        &RateSchedule::paper_default(k, 8),
    ));
    let (planes, sampled) = (plan.retained_plane_count(), plan.sampled_row_count());
    assert!(sampled < planes * n, "the plan must skip some rows");
    let sub = Grid3::from_fn((k, k, k), |x, y, z| {
        ((x * 3 + y * 5 + z * 7) as f64 * 0.31).sin()
    });
    let conv = LocalConvolver::new(n, k, 64);

    let session = ObsSession::start().expect("no other obs session in this process");
    conv.convolve_compressed(&sub, corner, &kernel, plan.clone());
    let report = session.finish();
    let rows_sampled = count(&report, "pipeline.stage3_rows_sampled");
    let rows_skipped = count(&report, "pipeline.stage3_rows_skipped");
    assert_eq!(rows_sampled, sampled as u64);
    assert_eq!(rows_sampled + rows_skipped, (planes * n) as u64);
    for phase in ["load", "pointwise", "inverse", "store"] {
        let name = format!("pipeline.stage2_{phase}_ns");
        assert!(count(&report, &name) > 0, "{name} not timed");
    }

    // The tensor pipeline runs stage 3 once per Voigt component.
    let gamma = MassifGamma::new(n, 1.3, 0.8);
    let subs: [Grid3<f64>; 6] = std::array::from_fn(|_| sub.clone());
    let session = ObsSession::start().expect("no other obs session in this process");
    conv.convolve_tensor_compressed(&subs, corner, &gamma, plan.clone());
    let report = session.finish();
    assert_eq!(
        count(&report, "pipeline.stage3_rows_sampled"),
        6 * sampled as u64
    );
    assert_eq!(
        count(&report, "pipeline.stage3_rows_sampled")
            + count(&report, "pipeline.stage3_rows_skipped"),
        (6 * planes * n) as u64
    );

    // No session: nothing is counted (a fresh session starts from zero and
    // sees only its own work).
    conv.convolve_compressed(&sub, corner, &kernel, plan.clone());
    let session = ObsSession::start().expect("no other obs session in this process");
    let report = session.finish();
    assert_eq!(count(&report, "pipeline.stage2_load_ns"), 0);
    assert_eq!(count(&report, "pipeline.stage3_rows_sampled"), 0);
}
