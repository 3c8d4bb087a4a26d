//! The chaos-engineering workload shared by `exp_chaos`, the
//! `chaos_cluster` integration tests, and the backend-parameterized
//! transport conformance suite.
//!
//! One rank's slice of the Fig. 1(b) deployment: a degraded-mode
//! [`ConvolveSession::exchange`](lcc_core::ConvolveSession::exchange) over
//! a replicated deployment. Each rank convolves its round-robin share of
//! sub-domains, the survivors exchange the compressed samples once, and
//! every rank folds everyone's contributions, recomputing dead ranks'
//! domains at the degraded (coarsest) rate. The cluster size comes from
//! the world, so the same function runs on any backend and any rank count.

use std::sync::Arc;

use lcc_comm::{run_cluster_with_faults, CommStats, CommWorld, FaultPlan, RetryPolicy};
use lcc_core::{ConvolveMode, Deployment, LowCommConfig, LowCommConvolver};
use lcc_greens::GaussianKernel;
use lcc_grid::Grid3;
use lcc_octree::RateSchedule;

/// Grid size of the standard chaos deployment.
pub const N: usize = 32;
/// Sub-domain size.
pub const K: usize = 8;
/// Gaussian kernel spread.
pub const SIGMA: f64 = 1.5;

/// The convolver configuration every rank builds.
pub fn config() -> LowCommConfig {
    LowCommConfig {
        n: N,
        k: K,
        batch: 512,
        schedule: RateSchedule::for_kernel_spread(K, SIGMA, 16),
    }
}

/// The smooth input field shared by all ranks.
pub fn input() -> Grid3<f64> {
    Grid3::from_fn((N, N, N), |x, y, z| {
        ((x as f64 * 0.29).sin() + (y as f64 * 0.41).cos()) * (1.0 + 0.01 * z as f64)
    })
}

/// One rank of the chaos workload, on an already-connected world of any
/// size. Returns the accumulated (possibly degraded) convolution result.
pub fn chaos_rank(w: &mut CommWorld) -> Grid3<f64> {
    let conv = LowCommConvolver::new(config());
    let deployment = Deployment::replicated(N, K, w.size());
    let out = conv
        .session(ConvolveMode::Degraded)
        .exchange(w, &input(), &GaussianKernel::new(N, SIGMA), &deployment)
        .expect("surviving exchange failed");
    // The smooth input has no zero domain: every crashed rank's share is
    // rebuilt at the coarsest rate.
    let orphans = (0..(N / K).pow(3))
        .filter(|&id| w.fault_plan().is_crashed(deployment.owner(id)))
        .count();
    assert_eq!(out.report.degraded_domains, orphans);
    let rate = (orphans > 0).then(|| conv.coarsest_rate());
    assert_eq!(out.report.degraded_rate, rate);
    out.result
}

/// Runs the chaos workload on the in-process cluster under `plan`,
/// returning each surviving rank's result (crashed slots are `None`).
pub fn run_workload(
    p: usize,
    plan: FaultPlan,
    retry: RetryPolicy,
) -> (Vec<Option<Grid3<f64>>>, Arc<CommStats>) {
    run_cluster_with_faults(p, plan, retry, |mut w| chaos_rank(&mut w))
}
