//! End-to-end check of the observability layer against the cluster
//! simulator's own accounting: after a 2-rank run wrapped in an
//! [`ObsSession`], the `comm.*` counters must match [`CommStats`] **exactly**
//! — they are incremented at the same call sites — and the collected spans
//! must carry the rank and epoch context of the worker threads.

use std::sync::{Arc, Mutex, MutexGuard};

use lcc_comm::{run_cluster_with_faults, CommStats, FaultPlan, RetryPolicy};

use lcc_core::prelude::*;

const N: usize = 16;
const K: usize = 8;
const P: usize = 2;

/// Serializes the tests in this binary: the observability collector is a
/// process-wide singleton, so concurrent tests would see each other's
/// spans and counter increments.
fn obs_test_gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn run_two_ranks(plan: FaultPlan) -> Arc<CommStats> {
    let kernel = GaussianKernel::new(N, 1.0);
    let input = Grid3::from_fn((N, N, N), |x, y, z| {
        ((x as f64 * 0.29).sin() + (y as f64 * 0.41).cos()) * (1.0 + 0.01 * z as f64)
    });
    let conv = LowCommConvolver::new(LowCommConfig::paper_default(N, K, 8));
    let deployment = Deployment::replicated(N, K, P);
    let (_, stats) = run_cluster_with_faults(P, plan, RetryPolicy::default(), |mut w| {
        let _worker = lcc_obs::span("obs_cluster_worker");
        conv.session(ConvolveMode::Normal)
            .exchange(&mut w, &input, &kernel, &deployment)
            .expect("exchange failed")
    });
    stats
}

#[test]
fn obs_counters_match_comm_stats_exactly() {
    let _gate = obs_test_gate();
    let session = ObsSession::start().expect("no other obs session is active");
    let stats = run_two_ranks(FaultPlan::none());
    let report = session.finish();

    let counter = |name: &str| report.counter(name).unwrap_or(0);
    // Incremented at the very call sites that update CommStats, so the
    // totals must agree to the byte.
    assert_eq!(counter("comm.bytes_logical"), stats.bytes());
    assert_eq!(counter("comm.messages_logical"), stats.message_count());
    assert_eq!(counter("comm.bytes_physical"), stats.physical_bytes());
    assert_eq!(
        counter("comm.messages_physical"),
        stats.physical_message_count()
    );
    assert_eq!(counter("comm.acks"), stats.ack_count());
    assert_eq!(counter("comm.retransmits"), stats.retransmit_count());
    assert_eq!(counter("comm.timeouts"), stats.timeout_count());
    assert_eq!(
        counter("comm.duplicates_suppressed"),
        stats.duplicate_count()
    );
    assert_eq!(counter("comm.collective_rounds"), stats.rounds());
    assert_eq!(stats.rounds(), 1, "one sparse exchange");

    // The convolve-side accounting observed the compression work.
    assert!(counter("convolve.domains_processed") >= 1);
    assert!(counter("pipeline.pencils_transformed") >= 1);
    assert!(counter("fft.workspace_leases") >= 1);

    // Worker spans carry rank context; both ranks reported.
    let worker_ranks: Vec<i32> = report
        .spans
        .iter()
        .filter(|s| s.name == "obs_cluster_worker")
        .map(|s| s.rank)
        .collect();
    assert_eq!(worker_ranks.len(), P, "one worker span per rank");
    assert!(worker_ranks.contains(&0) && worker_ranks.contains(&1));
    // Stage spans nested under the workers inherit the rank too.
    assert!(report
        .spans
        .iter()
        .any(|s| s.name == "stage1_2d_fft" && s.rank >= 0));

    // The capture format round-trips the whole report losslessly.
    let bytes = report.to_bytes();
    let replayed = lcc_obs::ObsReport::from_bytes(&bytes).expect("replay");
    assert_eq!(replayed.spans.len(), report.spans.len());
    assert_eq!(replayed.counters, report.counters);

    // And the trace tree renders every recorded stage.
    let tree = report.trace_tree();
    assert!(tree.contains("obs_cluster_worker"), "tree:\n{tree}");
    assert!(tree.contains("stage1_2d_fft"), "tree:\n{tree}");
}

#[test]
fn obs_disabled_run_collects_nothing() {
    let _gate = obs_test_gate();
    // No session active: the run must leave the counters frozen — the
    // zero-overhead-when-off property the perf bench relies on.
    assert!(!lcc_obs::enabled());
    let before = lcc_obs::metrics::COMM_BYTES_LOGICAL.get();
    let stats = run_two_ranks(FaultPlan::none());
    assert!(stats.bytes() > 0, "the run did communicate");
    assert!(!lcc_obs::enabled());
    assert_eq!(
        lcc_obs::metrics::COMM_BYTES_LOGICAL.get(),
        before,
        "disabled counters must not move"
    );
}
