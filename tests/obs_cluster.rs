//! End-to-end check of the observability layer against the cluster
//! simulator's own accounting. Every comm and liveness event is one
//! `CommStats::add`, which writes the run's table and the obs counter with
//! the same meaning, so inside an [`ObsSession`] the `comm.*` and
//! `liveness.*` counters must match the table's views — [`CommStats`]'
//! readers and [`LivenessStats`] — **exactly**. The suite checks that for
//! a 2-rank exchange, for a `Recover`-mode exchange whose sweep counts a
//! crashed rank, for a checkpoint-restart rejoin and for a liveness board's
//! own events, checks the table's map onto obs names, and checks that the
//! collected spans carry the rank and epoch context of the worker threads.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use lcc_comm::{
    run_cluster_with_faults, CommCounter, CommStats, CommStatsSnapshot, FaultPlan, LivenessBoard,
    LivenessStats, RetryPolicy,
};

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
    run_ranks(P, plan, ConvolveMode::Normal)
}

fn run_ranks(p: usize, plan: FaultPlan, mode: ConvolveMode) -> Arc<CommStats> {
    let kernel = GaussianKernel::new(N, 1.0);
    let input = Grid3::from_fn((N, N, N), |x, y, z| {
        ((x as f64 * 0.29).sin() + (y as f64 * 0.41).cos()) * (1.0 + 0.01 * z as f64)
    });
    let conv = LowCommConvolver::new(LowCommConfig::paper_default(N, K, 8));
    let deployment = Deployment::replicated(N, K, p);
    let (_, stats) = run_cluster_with_faults(p, plan, RetryPolicy::default(), |mut w| {
        let _worker = lcc_obs::span("obs_cluster_worker");
        conv.session(mode)
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

/// The table's map onto obs names, written out: each counter has its own
/// name and every name is one a session reports; a snapshot carries each
/// comm counter in the field of the same meaning, and the coordinator's
/// `CommStatsSnapshot::add_snapshot` sums them field by field.
#[test]
fn every_table_counter_has_its_own_reported_obs_name() {
    let _gate = obs_test_gate();
    let expect = [
        (CommCounter::BytesSent, "comm.bytes_logical"),
        (CommCounter::Messages, "comm.messages_logical"),
        (CommCounter::CollectiveRounds, "comm.collective_rounds"),
        (CommCounter::Retransmits, "comm.retransmits"),
        (
            CommCounter::DuplicatesSuppressed,
            "comm.duplicates_suppressed",
        ),
        (CommCounter::Timeouts, "comm.timeouts"),
        (CommCounter::BytesPhysical, "comm.bytes_physical"),
        (CommCounter::MessagesPhysical, "comm.messages_physical"),
        (CommCounter::Acks, "comm.acks"),
        (CommCounter::DeathsDetected, "liveness.deaths_detected"),
        (CommCounter::Rejoins, "liveness.rejoins"),
        (CommCounter::HeartbeatsSent, "liveness.heartbeats_sent"),
        (
            CommCounter::HeartbeatsReceived,
            "liveness.heartbeats_received",
        ),
        (CommCounter::HardEvidence, "liveness.hard_evidence"),
        (CommCounter::Suspicions, "liveness.suspicions"),
    ];
    assert_eq!(CommCounter::ALL.to_vec(), expect.map(|(c, _)| c).to_vec());
    for (c, name) in expect {
        assert_eq!(c.obs().name(), name, "{c:?}");
    }
    let mut names = expect.map(|(_, name)| name);
    names.sort_unstable();
    assert!(names.windows(2).all(|w| w[0] != w[1]), "names are distinct");

    // A lossy run under a session: each comm counter's name reads the
    // run's table, and the table's snapshot holds it in the field of the
    // same meaning.
    let session = ObsSession::start().expect("no other obs session is active");
    let table = run_two_ranks(FaultPlan::new(0xB5).with_drop(0.15).with_duplicates(0.05));
    let report = session.finish();
    let s = table.snapshot();
    let fields = [
        s.bytes_sent,
        s.messages,
        s.collective_rounds,
        s.retransmits,
        s.duplicates_suppressed,
        s.timeouts,
        s.bytes_physical,
        s.messages_physical,
        s.acks,
    ];
    assert!(s.retransmits > 0, "the plan drops frames: {s:?}");
    for (i, (c, name)) in expect.into_iter().enumerate() {
        let want = table.get(c);
        assert_eq!(report.counter(name).unwrap_or(0), want, "{name}");
        if let Some(&field) = fields.get(i) {
            assert_eq!(field, want, "{c:?}");
        }
    }

    // The coordinator's sum of per-process snapshots adds field by field.
    let mut sum = CommStatsSnapshot::default();
    sum.add_snapshot(&s);
    sum.add_snapshot(&s);
    assert_eq!(
        sum,
        CommStatsSnapshot {
            bytes_sent: 2 * s.bytes_sent,
            messages: 2 * s.messages,
            collective_rounds: 2 * s.collective_rounds,
            retransmits: 2 * s.retransmits,
            duplicates_suppressed: 2 * s.duplicates_suppressed,
            timeouts: 2 * s.timeouts,
            bytes_physical: 2 * s.bytes_physical,
            messages_physical: 2 * s.messages_physical,
            acks: 2 * s.acks,
        }
    );
}

/// Deaths and rejoins: a `Recover`-mode exchange on three ranks with rank
/// 1 crashed, whose converged collective's sweep counts the death on each
/// survivor, then a killed rank restarted from checkpoint. The session's
/// `liveness.*` counters read the run's table.
#[test]
fn liveness_obs_counters_match_the_run_table() {
    let _gate = obs_test_gate();
    let session = ObsSession::start().expect("no other obs session is active");
    let recover = ConvolveMode::Recover(RecoveryPolicy::Redistribute {
        max_extra_domains: usize::MAX,
    });
    let stats = run_ranks(3, FaultPlan::new(0x0B5).with_crashed(1), recover);
    let report = session.finish();
    let counter = |name: &str| report.counter(name).unwrap_or(0);
    assert_eq!(
        stats.deaths_detected_count(),
        2,
        "each survivor buried rank 1"
    );
    assert_eq!(
        counter("liveness.deaths_detected"),
        stats.deaths_detected_count()
    );
    assert_eq!(counter("liveness.rejoins"), stats.rejoin_count());
    assert_eq!(counter("comm.bytes_logical"), stats.bytes());

    let session = ObsSession::start().expect("no other obs session is active");
    let plan = FaultPlan::new(0x0B5).with_restart().with_kill(1, 0);
    let (_, stats) = run_cluster_with_faults(2, plan, RetryPolicy::scaled_for(2), |mut w| {
        for gate in 0..2 {
            w.protocol_point(gate).expect("a restarted kill rejoins");
            w.detect_failures();
        }
    });
    let report = session.finish();
    let counter = |name: &str| report.counter(name).unwrap_or(0);
    assert_eq!(stats.rejoin_count(), 1, "the victim rejoined once");
    assert_eq!(counter("liveness.rejoins"), stats.rejoin_count());
    assert_eq!(
        counter("liveness.deaths_detected"),
        stats.deaths_detected_count()
    );
}

/// A liveness board's heartbeat, evidence and suspicion events count into
/// its table; the session's counters equal the board's `LivenessStats`
/// view.
#[test]
fn board_obs_counters_match_its_liveness_view() {
    let _gate = obs_test_gate();
    let policy = RetryPolicy::default();
    let session = ObsSession::start().expect("no other obs session is active");
    let board = LivenessBoard::new(0, 3, &policy, Arc::default());
    board.note_beats_sent(2);
    board.note_beat(1);
    board.note_beat(2);
    assert!(board.mark_hard_dead(2));
    // Two sweeps on a live cadence: rank 1's silence crosses the cap on
    // the second and is suspected once.
    let cap = policy.suspicion_timeout();
    let start = Instant::now();
    assert_eq!(board.sweep_at(start + cap * 3 / 4).len(), 1);
    assert_eq!(board.sweep_at(start + cap * 3 / 2).len(), 2);
    let report = session.finish();

    let view = board.stats();
    assert_eq!(
        view,
        LivenessStats {
            heartbeats_sent: 2,
            heartbeats_received: 2,
            hard_evidence: 1,
            suspicions: 1,
            deaths_detected: 0,
            rejoins: 0,
        }
    );
    let counter = |name: &str| report.counter(name).unwrap_or(0);
    for (name, want) in [
        ("liveness.heartbeats_sent", view.heartbeats_sent),
        ("liveness.heartbeats_received", view.heartbeats_received),
        ("liveness.hard_evidence", view.hard_evidence),
        ("liveness.suspicions", view.suspicions),
        ("liveness.deaths_detected", view.deaths_detected),
        ("liveness.rejoins", view.rejoins),
    ] {
        assert_eq!(counter(name), want, "{name}");
    }
}
