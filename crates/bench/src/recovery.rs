//! The self-healing distributed convolution workload shared by
//! `exp_recovery` and the recovery integration tests.
//!
//! Each rank runs a recover-mode
//! [`ConvolveSession::exchange`](lcc_core::ConvolveSession::exchange) over
//! a replicated deployment: it computes its round-robin share of
//! sub-domain contributions, then joins a *converged* all-to-all. If a peer
//! dies (crash at start, or deserting mid-exchange), every survivor
//! deterministically derives the same [`lcc_core::RecoveryPlan`] from the
//! same epoch-stamped membership view, claimants recompute the orphaned
//! domains — exactly, under `RecoveryPolicy::Redistribute` — and the
//! recomputed contributions ride the same single sparse exchange. The fold
//! order is ascending global domain id on every rank, so a redistributed
//! run is bit-identical to a fault-free one.

use std::sync::Arc;

use lcc_comm::{run_cluster_with_faults, CommStats, CommWorld, FaultPlan, RetryPolicy};
use lcc_core::{
    ConvolveMode, Deployment, Exchanged, LowCommConfig, LowCommConvolver, RecoveryPolicy,
};
use lcc_greens::GaussianKernel;
use lcc_grid::{decompose_uniform, Grid3};
use lcc_octree::{CompressedField, RateSchedule};

/// One recovery scenario: a deployment shape plus a fault plan and policy.
#[derive(Clone, Debug)]
pub struct RecoveryCase {
    /// Grid size N.
    pub n: usize,
    /// Sub-domain size k.
    pub k: usize,
    /// Cluster size p.
    pub p: usize,
    /// Gaussian kernel spread.
    pub sigma: f64,
    /// Deterministic fault plan (crashes, deserters, message loss).
    pub plan: FaultPlan,
    /// How survivors compensate for orphaned domains.
    pub policy: RecoveryPolicy,
    /// Ack/retry deadlines for the simulated transport.
    pub retry: RetryPolicy,
}

impl RecoveryCase {
    /// The standard 32³ / k=8 / p=4 deployment used across chaos benches.
    pub fn standard(plan: FaultPlan, policy: RecoveryPolicy) -> Self {
        RecoveryCase {
            n: 32,
            k: 8,
            p: 4,
            sigma: 1.5,
            plan,
            policy,
            retry: RetryPolicy::scaled_for(4),
        }
    }

    /// The convolver configuration every rank builds.
    pub fn config(&self) -> LowCommConfig {
        LowCommConfig {
            n: self.n,
            k: self.k,
            batch: 512,
            schedule: RateSchedule::for_kernel_spread(self.k, self.sigma, 16),
        }
    }

    /// The smooth input field shared by all ranks.
    pub fn input(&self) -> Grid3<f64> {
        let n = self.n;
        Grid3::from_fn((n, n, n), |x, y, z| {
            ((x as f64 * 0.29).sin() + (y as f64 * 0.41).cos()) * (1.0 + 0.01 * z as f64)
        })
    }

    /// The kernel shared by all ranks.
    pub fn kernel(&self) -> GaussianKernel {
        GaussianKernel::new(self.n, self.sigma)
    }
}

/// Deadlines tight enough to make deserter detection quick in tests and
/// benches (a deserter is only noticed when receive timeouts fire; the
/// production-scaled 30 s deadline would dominate wall time).
///
/// Debug builds widen (not disable) the deadlines: unoptimized payload
/// compression on a loaded core can outlast a 400 ms receive window, and a
/// deadline that fires while a peer is still doing honest work reads as
/// silence — exhausting the convergence retries on a perfectly live mesh.
pub fn fast_retry(p: usize) -> RetryPolicy {
    let deadline_ms = if cfg!(debug_assertions) { 1600 } else { 400 };
    RetryPolicy {
        ack_timeout: std::time::Duration::from_millis(deadline_ms),
        recv_timeout: std::time::Duration::from_millis(deadline_ms),
        ..RetryPolicy::scaled_for(p)
    }
}

/// One rank of the self-healing workload, on an already-connected world
/// of any backend: the recovered whole-cube result, its recovery-aware
/// report and the epoch the exchange converged under. `None` for deserting
/// ranks (they walk away mid-exchange); the cluster size comes from the
/// world, the deployment shape and policy from `case` (whose `p`, `plan`,
/// and `retry` fields are the *harness's* concern and are ignored here).
pub fn rank_workload(w: &mut CommWorld, case: &RecoveryCase) -> Option<Exchanged> {
    let rank = w.rank();
    let field = case.input();
    let kernel = case.kernel();
    let deployment = Deployment::replicated(case.n, case.k, w.size());
    let conv = LowCommConvolver::new(case.config());
    let session = conv.session(ConvolveMode::Recover(case.policy));

    if w.fault_plan().deserts(rank) {
        // A deserter ships its epoch-0 frames to lower ranks only, then
        // walks away mid-exchange without crashing.
        let domains = decompose_uniform(case.n, case.k);
        let mine: Vec<(usize, CompressedField)> = deployment
            .domains_of(rank)
            .filter_map(|id| Some((id, session.compress_domain(&field, &domains[id], &kernel)?)))
            .collect();
        for to in 0..rank {
            let frame =
                session.encode_frame(mine.iter().map(|(id, f)| (*id, f)), &deployment.region(to));
            let _ = w.send_epoch(to, &frame);
        }
        return None;
    }

    let out = session.exchange(w, &field, &kernel, &deployment);
    Some(out.expect("converged exchange failed despite retries"))
}

/// Runs `case` on the cluster simulator. The outer `Option` is `None` for
/// crashed *and* deserting ranks; survivors all hold bit-identical results.
pub fn run_recovery(case: &RecoveryCase) -> (Vec<Option<Exchanged>>, Arc<CommStats>) {
    let shared = Arc::new(case.clone());
    let (results, stats) = run_cluster_with_faults(
        case.p,
        case.plan.clone(),
        case.retry.clone(),
        move |mut w| rank_workload(&mut w, &shared),
    );
    (results.into_iter().map(|r| r.flatten()).collect(), stats)
}

/// The fault-free reference result for `case`'s deployment (same fold
/// order as the recovery path, so comparisons can demand bit-identity).
pub fn fault_free_reference(case: &RecoveryCase) -> Grid3<f64> {
    let mut clean = case.clone();
    clean.plan = FaultPlan::none();
    let (results, _) = run_recovery(&clean);
    results
        .into_iter()
        .flatten()
        .next()
        .expect("fault-free run has survivors")
        .result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_codec_round_trips() {
        let case = RecoveryCase::standard(FaultPlan::none(), RecoveryPolicy::Degrade);
        let conv = LowCommConvolver::new(case.config());
        let session = conv.session(ConvolveMode::Normal);
        let field = case.input();
        let kernel = case.kernel();
        let domains = decompose_uniform(case.n, case.k);
        let ids = [0usize, 5, 63];
        let entries: Vec<(usize, CompressedField)> = ids
            .iter()
            .map(|&id| {
                let f = session.compress_domain(&field, &domains[id], &kernel);
                (id, f.expect("smooth input has no zero domains"))
            })
            .collect();
        let cube = lcc_grid::BoxRegion::cube(case.n);
        let frame = session.encode_frame(entries.iter().map(|(id, f)| (*id, f)), &cube);
        let decoded = session
            .decode_frame(&frame, &kernel, &cube, 0, 1, |id| ids.contains(&id))
            .expect("the session decodes its own frame");
        assert_eq!(decoded.len(), 3);
        for ((id, got), (want_id, want)) in decoded.iter().zip(&entries) {
            assert_eq!(id, want_id);
            assert_eq!(got.samples(), want.samples());
        }
    }
}
