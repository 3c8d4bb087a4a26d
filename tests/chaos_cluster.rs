//! Chaos engineering for the Fig. 1(b) deployment: the exact workload of
//! `distributed_matches_serial_lowcomm_and_oracle`, re-run under a
//! deterministic [`FaultPlan`]. With messages dropping, the retry protocol
//! must reconstruct the bit-identical result; with a rank crashed, the
//! survivors must degrade gracefully — recomputing the dead rank's domains
//! at the schedule's coarsest rate — and report the accuracy loss instead
//! of hanging. Every scenario replays exactly from its seed.
//!
//! The per-rank workload itself lives in [`lcc_bench::chaos`], shared with
//! `exp_chaos` and the transport conformance suite (which runs it over the
//! socket backend as well).

use std::sync::Arc;

use lcc_bench::chaos::{self, N, SIGMA};
use lcc_comm::{CommStats, FaultPlan, RetryPolicy};
use lcc_core::{ConvolveMode, LowCommConvolver, TraditionalConvolver};
use lcc_grid::{relative_l2, Grid3};

const P: usize = 4;

fn run_workload(plan: FaultPlan) -> (Vec<Option<Grid3<f64>>>, Arc<CommStats>) {
    chaos::run_workload(P, plan, RetryPolicy::default())
}

#[test]
fn five_percent_drop_is_bit_identical_to_fault_free() {
    let (clean, clean_stats) = run_workload(FaultPlan::none());
    let (faulty, faulty_stats) = run_workload(FaultPlan::new(0xC0FFEE).with_drop(0.05));

    for (c, f) in clean.iter().zip(&faulty) {
        let c = c.as_ref().unwrap().as_slice();
        let f = f.as_ref().unwrap().as_slice();
        assert_eq!(
            c, f,
            "5% drop must be fully recovered by retries, bit for bit"
        );
    }
    // The retry machinery was actually exercised…
    assert!(
        faulty_stats.retransmit_count() > 0,
        "5% drop over {} messages produced no retransmits",
        faulty_stats.message_count()
    );
    // …without inflating the logical-traffic accounting (Fig. 1b still
    // reads as ONE sparse exchange of the same volume).
    assert_eq!(clean_stats.bytes(), faulty_stats.bytes());
    assert_eq!(clean_stats.message_count(), faulty_stats.message_count());
    assert_eq!(clean_stats.rounds(), 1);
    assert_eq!(faulty_stats.rounds(), 1);
}

#[test]
fn chaos_run_replays_exactly_from_its_seed() {
    let plan = FaultPlan::new(1234).with_drop(0.1).with_duplicates(0.05);
    let (a, sa) = run_workload(plan.clone());
    let (b, sb) = run_workload(plan);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.as_ref().unwrap().as_slice(),
            y.as_ref().unwrap().as_slice(),
            "same seed must produce identical results"
        );
    }
    assert_eq!(sa.retransmit_count(), sb.retransmit_count());
    assert_eq!(sa.duplicate_count(), sb.duplicate_count());
    assert_eq!(sa.timeout_count(), sb.timeout_count());
    assert_eq!(sa.bytes(), sb.bytes());
}

#[test]
fn rank_crash_degrades_accuracy_but_completes() {
    // References for the accuracy comparison.
    let input = chaos::input();
    let kernel = lcc_greens::GaussianKernel::new(N, SIGMA);
    let oracle = TraditionalConvolver::new(N).convolve(&input, &kernel);
    let (healthy, _) = LowCommConvolver::new(chaos::config())
        .session(ConvolveMode::Normal)
        .convolve(&input, &kernel);
    let healthy_err = relative_l2(oracle.as_slice(), healthy.as_slice());

    // Crash rank 3 under light drop noise as well: the run must still
    // complete (no hang) with every survivor producing a field.
    let plan = FaultPlan::new(77).with_drop(0.05).with_crashed(3);
    let (results, stats) = run_workload(plan);
    assert!(
        results[3].is_none(),
        "crashed rank must not report a result"
    );

    for (rank, r) in results.iter().enumerate() {
        if rank == 3 {
            continue;
        }
        let field = r.as_ref().expect("survivor must complete");
        let vs_oracle = relative_l2(oracle.as_slice(), field.as_slice());
        println!(
            "rank {rank}: degraded relative L2 vs oracle = {vs_oracle:.4} \
             (healthy run: {healthy_err:.4})"
        );
        // Degraded, not destroyed: reconstructing rank 3's quarter of the
        // volume at the coarsest rate (stride 16) costs ~0.34 relative L2;
        // anything near 1.0 would mean the share was simply lost.
        assert!(vs_oracle < 0.5, "degraded error {vs_oracle} is unusable");
        // …but it genuinely lost accuracy relative to the healthy run.
        assert!(
            vs_oracle > healthy_err,
            "crash should cost accuracy: {vs_oracle} vs healthy {healthy_err}"
        );
    }
    assert_eq!(stats.rounds(), 1, "still one collective round");

    // All survivors agree bit-for-bit on the degraded field.
    let first = results[0].as_ref().unwrap().as_slice();
    for r in results.iter().take(3).skip(1) {
        assert_eq!(first, r.as_ref().unwrap().as_slice());
    }
}

#[test]
fn crash_scenarios_replay_deterministically() {
    let plan = FaultPlan::new(9).with_drop(0.08).with_crashed(1);
    let (a, _) = run_workload(plan.clone());
    let (b, _) = run_workload(plan);
    assert!(a[1].is_none() && b[1].is_none());
    for (x, y) in a.iter().zip(&b) {
        match (x, y) {
            (Some(x), Some(y)) => assert_eq!(x.as_slice(), y.as_slice()),
            (None, None) => {}
            _ => panic!("crash pattern must replay identically"),
        }
    }
}
