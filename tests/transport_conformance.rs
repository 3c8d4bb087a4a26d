//! Backend-parameterized transport conformance suite.
//!
//! The same workloads — the chaos convolution, the self-healing recovery
//! exchange, and an allgather smoke — run over every [`Transport`] backend:
//! the in-process thread simulator and the socket backend, where each rank
//! is a **real OS process** talking over Unix-domain stream sockets (TCP
//! loopback behind the `tcp` feature). For every scenario the suite asserts
//!
//! * each backend satisfies the workload's own invariants (crashed slots
//!   empty, survivors present), and
//! * the backends **agree**: bit-identical per-rank payloads, and — because
//!   every `CommStats` counter is an exact function of the fault seed —
//!   exactly equal nine-counter totals, even though the socket backend sums
//!   per-process snapshots while the simulator shares one set of atomics.
//!
//! Scenarios whose counters depend on wall-clock failure *detection* (a
//! deserter is only noticed when receive deadlines fire) compare results
//! and logical-traffic accounting only.
//!
//! Process choreography: `run_socket_cluster` re-executes this very test
//! binary filtered to [`socket_child_entry`], which is a no-op unless the
//! `LCC_SOCKET_CHILD` environment variable marks the process as a spawned
//! rank. All backend runs in this binary serialize through one cache-holding
//! mutex: the observability counters checked by the obs scenario are
//! process-global, and each (scenario, backend) pair only ever executes
//! once no matter how many tests consume it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use lcc_bench::chaos;
use lcc_bench::recovery::{self, RecoveryCase};
use lcc_bench::survival::{self, SurvivalCase};
use lcc_comm::transport::socket::{
    self, run_socket_cluster, RestartPolicy, SocketClusterConfig, SocketFamily, Workload,
};
use lcc_comm::{
    encode_f64s, run_cluster_with_faults, CommStatsSnapshot, CommWorld, FaultPlan, RetryPolicy,
};
use lcc_core::RecoveryPolicy;
use lcc_obs::ObsSession;

/// Name of the child-entry test below; the socket coordinator re-executes
/// the current binary filtered to exactly this test.
const CHILD_TEST: &str = "socket_child_entry";

// ---------------------------------------------------------------------------
// Workload registry: plain fn pointers, shared verbatim between the in-proc
// runner and the socket children (which look them up by name from the env).
// ---------------------------------------------------------------------------

mod workloads {
    use super::*;

    /// Allgather smoke: 64 rank-stamped bytes from every rank; the output
    /// encodes every slot (including which ranks were dead), so survivors
    /// agree bit-for-bit and crashes are visible in the payload.
    pub fn gather64(mut w: CommWorld) -> Vec<u8> {
        let rank = w.rank();
        let payload: Vec<u8> = (0..64).map(|i| (rank * 7 + i) as u8).collect();
        let all = w.allgather_surviving(payload).expect("allgather failed");
        let mut out = Vec::new();
        for slot in &all {
            match slot {
                Some(bytes) => {
                    out.push(1);
                    out.extend_from_slice(bytes);
                }
                None => out.push(0),
            }
        }
        out
    }

    /// The Fig. 1(b) chaos convolution (one sparse exchange, degraded
    /// recomputation of dead ranks' domains), serialized as raw `f64`s.
    pub fn chaos_field(mut w: CommWorld) -> Vec<u8> {
        encode_f64s(chaos::chaos_rank(&mut w).as_slice())
    }

    /// The self-healing recovery exchange under `RecoveryPolicy::
    /// Redistribute`. Deserting ranks walk away mid-exchange and report a
    /// `0` tag; survivors report the converged epoch, the degraded-domain
    /// count, and the recovered field.
    pub fn recovery_redistribute(mut w: CommWorld) -> Vec<u8> {
        let case = RecoveryCase::standard(
            FaultPlan::none(),
            RecoveryPolicy::Redistribute {
                max_extra_domains: usize::MAX,
            },
        );
        match recovery::rank_workload(&mut w, &case) {
            None => vec![0],
            Some(out) => {
                let mut buf = vec![1u8];
                buf.extend_from_slice(&out.epoch.to_le_bytes());
                buf.extend_from_slice(&(out.report.degraded_domains as u64).to_le_bytes());
                buf.extend_from_slice(&encode_f64s(out.result.as_slice()));
                buf
            }
        }
    }

    /// The kill-chaos survival workload: a checkpointed MASSIF solve with
    /// a liveness gate per chunk (where seeded SIGKILLs strike), then the
    /// recovery exchange.
    pub fn survival_field(mut w: CommWorld) -> Vec<u8> {
        survival::rank_workload(&mut w, &SurvivalCase::standard())
    }

    /// An *unplanned* death: rank 2 aborts the moment it starts, with no
    /// fault-plan entry announcing it, so survivors must demote it from
    /// socket evidence alone. The abort only fires inside a spawned child
    /// process — in-process this rank just returns a dead marker.
    pub fn abort2_recovery(w: CommWorld) -> Vec<u8> {
        if w.rank() == 2 {
            if socket::is_child() {
                std::process::abort();
            }
            return vec![0];
        }
        recovery_redistribute(w)
    }
}

const REGISTRY: &[(&str, Workload)] = &[
    ("gather64", workloads::gather64),
    ("chaos", workloads::chaos_field),
    ("recovery_redistribute", workloads::recovery_redistribute),
    ("survival", workloads::survival_field),
    ("abort2", workloads::abort2_recovery),
];

/// Entry point for spawned rank processes. A no-op in a normal test run;
/// inside a coordinator-spawned child it serves exactly one rank of the
/// requested workload and never returns normally to the harness filter.
#[test]
fn socket_child_entry() {
    if !socket::is_child() {
        return;
    }
    socket::child_serve(REGISTRY).expect("socket child failed");
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// One conformance scenario: a workload, a deployment shape, a fault plan,
/// and how strictly the backends' stats must agree.
#[derive(Clone)]
struct Scenario {
    name: &'static str,
    workload: &'static str,
    p: usize,
    plan: FaultPlan,
    retry: RetryPolicy,
    /// All nine counters must be exactly equal across backends. Off only
    /// for scenarios whose failure *detection* is wall-clock driven.
    exact_stats: bool,
    /// Wrap the in-proc run in an `ObsSession` and require the `comm.*`
    /// counters to tie out against `CommStats`. Both are written by the one
    /// `CommStats::add` call, in every process, so the socket leg needs no
    /// check of its own.
    obs: bool,
}

mod scenarios {
    use super::*;

    pub fn smoke_allgather() -> Scenario {
        Scenario {
            name: "smoke_allgather",
            workload: "gather64",
            p: 4,
            plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            exact_stats: true,
            obs: false,
        }
    }

    pub fn chaos_drop_dup() -> Scenario {
        Scenario {
            name: "chaos_drop_dup",
            workload: "chaos",
            p: 4,
            plan: FaultPlan::new(1234).with_drop(0.1).with_duplicates(0.05),
            retry: RetryPolicy::scaled_for(4),
            exact_stats: true,
            obs: false,
        }
    }

    pub fn chaos_rank_crash() -> Scenario {
        Scenario {
            name: "chaos_rank_crash",
            workload: "chaos",
            p: 4,
            plan: FaultPlan::new(77).with_drop(0.05).with_crashed(3),
            retry: RetryPolicy::scaled_for(4),
            exact_stats: true,
            obs: false,
        }
    }

    pub fn recovery_crash_redistribute() -> Scenario {
        Scenario {
            name: "recovery_crash_redistribute",
            workload: "recovery_redistribute",
            p: 4,
            plan: FaultPlan::new(0xD1CE).with_crashed(1),
            retry: recovery::fast_retry(4),
            // The epoch-converged exchange *detects* the crash, and how —
            // a fired receive deadline in-proc (one `timeouts` tick), an
            // absent mesh connection over sockets (zero) — is a property
            // of the transport, not the seed. The logical accounting
            // still ties out exactly; see `assert_agree`.
            exact_stats: false,
            obs: false,
        }
    }

    pub fn recovery_deserter() -> Scenario {
        Scenario {
            name: "recovery_deserter",
            workload: "recovery_redistribute",
            p: 4,
            plan: FaultPlan::new(0x0DE5).with_deserter(2),
            retry: recovery::fast_retry(4),
            // Desertion is detected by receive deadlines firing, so the
            // retry-side counters depend on wall-clock interleaving.
            exact_stats: false,
            obs: false,
        }
    }

    pub fn obs_chaos_drop() -> Scenario {
        Scenario {
            name: "obs_chaos_drop",
            workload: "chaos",
            p: 4,
            plan: FaultPlan::new(0xB5).with_drop(0.15),
            retry: RetryPolicy::scaled_for(4),
            exact_stats: true,
            obs: true,
        }
    }
}

// ---------------------------------------------------------------------------
// Harness: one execution per (scenario, backend), cached; all runs in this
// binary serialize through the cache mutex.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Backend {
    InProc,
    SocketUds,
    #[cfg(feature = "tcp")]
    SocketTcp,
}

/// What one backend produced for one scenario: per-rank payloads (`None`
/// for crashed ranks) and the cluster-total counter snapshot.
struct BackendRun {
    results: Vec<Option<Vec<u8>>>,
    stats: CommStatsSnapshot,
}

fn cache() -> MutexGuard<'static, BTreeMap<(&'static str, Backend), Arc<BackendRun>>> {
    static CACHE: Mutex<BTreeMap<(&'static str, Backend), Arc<BackendRun>>> =
        Mutex::new(BTreeMap::new());
    CACHE.lock().unwrap_or_else(|e| e.into_inner())
}

fn lookup(name: &str) -> Workload {
    REGISTRY
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, w)| *w)
        .unwrap_or_else(|| panic!("workload `{name}` is not in the registry"))
}

fn execute(s: &Scenario, backend: Backend) -> BackendRun {
    match backend {
        Backend::InProc => {
            let wl = lookup(s.workload);
            let session = s
                .obs
                .then(|| ObsSession::start().expect("no other obs session is active"));
            let (results, stats) =
                run_cluster_with_faults(s.p, s.plan.clone(), s.retry.clone(), wl);
            let stats = stats.snapshot();
            if let Some(session) = session {
                let report = session.finish();
                let counter = |name: &str| report.counter(name).unwrap_or(0);
                for (name, want) in [
                    ("comm.bytes_logical", stats.bytes_sent),
                    ("comm.messages_logical", stats.messages),
                    ("comm.collective_rounds", stats.collective_rounds),
                    ("comm.retransmits", stats.retransmits),
                    ("comm.duplicates_suppressed", stats.duplicates_suppressed),
                    ("comm.timeouts", stats.timeouts),
                    ("comm.bytes_physical", stats.bytes_physical),
                    ("comm.messages_physical", stats.messages_physical),
                    ("comm.acks", stats.acks),
                ] {
                    assert_eq!(
                        counter(name),
                        want,
                        "{}: obs counter `{name}` diverged from CommStats",
                        s.name
                    );
                }
            }
            BackendRun { results, stats }
        }
        Backend::SocketUds => execute_socket(s, SocketFamily::Uds),
        #[cfg(feature = "tcp")]
        Backend::SocketTcp => execute_socket(s, SocketFamily::Tcp),
    }
}

fn execute_socket(s: &Scenario, family: SocketFamily) -> BackendRun {
    let run = run_socket_cluster(&SocketClusterConfig {
        p: s.p,
        plan: s.plan.clone(),
        retry: s.retry.clone(),
        workload: s.workload,
        family,
        child_test: CHILD_TEST,
        restart: RestartPolicy::for_plan(&s.plan),
    })
    .unwrap_or_else(|e| panic!("{}: socket cluster run failed: {e}", s.name));
    BackendRun {
        results: run.results,
        stats: run.stats,
    }
}

/// Runs `s` on `backend` (or returns the cached run) and checks the
/// backend-independent invariants: crashed slots empty, all other slots
/// present, and the accounting non-degenerate.
fn run_backend(s: &Scenario, backend: Backend) -> Arc<BackendRun> {
    let run = {
        let mut cache = cache();
        if let Some(run) = cache.get(&(s.name, backend)) {
            Arc::clone(run)
        } else {
            let run = Arc::new(execute(s, backend));
            cache.insert((s.name, backend), Arc::clone(&run));
            run
        }
    };
    assert_eq!(run.results.len(), s.p, "{}: one slot per rank", s.name);
    for (rank, slot) in run.results.iter().enumerate() {
        if s.plan.is_crashed(rank) {
            assert!(
                slot.is_none(),
                "{}: crashed rank {rank} must not report a result",
                s.name
            );
        } else {
            assert!(
                slot.is_some(),
                "{}: live rank {rank} must report a result",
                s.name
            );
        }
    }
    assert!(run.stats.bytes_sent > 0, "{}: the run communicated", s.name);
    assert!(
        run.stats.collective_rounds >= 1,
        "{}: counted rounds",
        s.name
    );
    run
}

/// The headline assertion: `other` agrees with the in-process simulator —
/// bit-identical per-rank payloads, and (for deterministic-detection
/// scenarios) exactly equal nine-counter totals.
fn assert_agree(s: &Scenario, other: Backend) {
    let a = run_backend(s, Backend::InProc);
    let b = run_backend(s, other);
    for (rank, (x, y)) in a.results.iter().zip(&b.results).enumerate() {
        assert_eq!(
            x, y,
            "{}: rank {rank} payload must be bit-identical across backends",
            s.name
        );
    }
    if s.exact_stats {
        assert_eq!(
            a.stats, b.stats,
            "{}: CommStats totals must be exactly equal across backends",
            s.name
        );
    } else {
        // The *logical* accounting (what the paper's cost model consumes)
        // is detection-independent and must still tie out exactly.
        assert_eq!(a.stats.bytes_sent, b.stats.bytes_sent, "{}", s.name);
        assert_eq!(a.stats.messages, b.stats.messages, "{}", s.name);
        assert_eq!(
            a.stats.collective_rounds, b.stats.collective_rounds,
            "{}",
            s.name
        );
    }
}

/// Generates the per-scenario test module: each backend standalone, plus
/// the cross-backend agreement test. Runs are cached, so each backend
/// executes the scenario exactly once per process.
macro_rules! for_each_backend {
    ($scenario:ident) => {
        mod $scenario {
            use super::*;

            #[test]
            fn inproc() {
                run_backend(&scenarios::$scenario(), Backend::InProc);
            }

            #[test]
            fn socket_uds() {
                run_backend(&scenarios::$scenario(), Backend::SocketUds);
            }

            #[test]
            fn backends_agree() {
                assert_agree(&scenarios::$scenario(), Backend::SocketUds);
            }
        }
    };
}

for_each_backend!(smoke_allgather);
for_each_backend!(chaos_drop_dup);
for_each_backend!(chaos_rank_crash);
for_each_backend!(recovery_crash_redistribute);
for_each_backend!(recovery_deserter);
for_each_backend!(obs_chaos_drop);

/// A fault-free socket run ends cleanly: each rank says goodbye to its
/// peers before it exits, so no rank takes the EOFs of the end of the run
/// for a death, whichever order the ranks leave in.
#[test]
fn fault_free_socket_run_has_no_hard_evidence() {
    let _serialize = cache();
    let s = scenarios::smoke_allgather();
    for _ in 0..3 {
        let run = run_socket_cluster(&SocketClusterConfig {
            p: s.p,
            plan: s.plan.clone(),
            retry: s.retry.clone(),
            workload: s.workload,
            family: SocketFamily::Uds,
            child_test: CHILD_TEST,
            restart: RestartPolicy::for_plan(&s.plan),
        })
        .expect("fault-free socket run");
        assert!(
            run.results.iter().all(Option::is_some),
            "every rank reports"
        );
        assert_eq!(run.liveness.hard_evidence, 0, "{:?}", run.liveness);
        assert_eq!(run.liveness.deaths_detected, 0, "{:?}", run.liveness);
    }
}

// ---------------------------------------------------------------------------
// Survival: mid-run SIGKILL of a live child process — the acceptance
// scenario for the liveness layer. These bypass the Scenario machinery
// because the agreement rules differ: a SIGKILLed process has no result
// slot at all (it no longer exists), while its in-process twin returns the
// empty payload; and the liveness pair (deaths detected, rejoins) must
// replay identically even though detection *latency* is wall-clock.
// ---------------------------------------------------------------------------

/// Every death reached every other rank's board as hard socket evidence
/// (an EOF on its connection to the dead rank), not only as suspicion on
/// silence: one count per other rank for each death the run logged.
fn assert_hard_evidence_of_every_death(run: &socket::SocketRun) {
    let deaths = (run.results.len() - 1) * run.kills.len();
    assert_eq!(
        run.liveness.hard_evidence, deaths as u64,
        "every death is hard evidence on every other rank's board: {:?}",
        run.liveness
    );
}

/// A rank SIGKILLed mid-exchange with no restart policy: survivors detect
/// the death without deadlock, redistribute, and produce payloads
/// bit-identical to the in-process kill-injector replay.
#[test]
fn survival_kill_redistribute_agrees() {
    let _serialize = cache();
    let retry = recovery::fast_retry(4);
    let plan = FaultPlan::new(0x5EED).with_kill(2, 1);
    let (inproc, stats) = survival::run_survival_inproc(&plan, &retry);
    let run = survival::run_survival_socket(&plan, &retry, CHILD_TEST, "survival")
        .expect("survivors complete despite the mid-run SIGKILL");
    for (rank, inproc_payload) in inproc.iter().enumerate() {
        if plan.killed_for_good(rank) {
            assert!(
                inproc_payload.as_ref().is_some_and(|p| p.is_empty()),
                "in-process victim returns the empty payload"
            );
            assert!(
                run.results[rank].is_none(),
                "a SIGKILLed process reports nothing"
            );
        } else {
            assert_eq!(
                *inproc_payload, run.results[rank],
                "rank {rank}: survivor payload must be bit-identical across backends"
            );
        }
    }
    assert_eq!(
        (stats.deaths_detected_count(), stats.rejoin_count()),
        (run.liveness.deaths_detected, run.liveness.rejoins),
        "the (deaths, rejoins) liveness pair must replay identically"
    );
    assert_eq!(run.kills.len(), 1, "exactly the seeded kill happened");
    let kill = &run.kills[0];
    assert!(kill.planned, "the kill was the seeded one");
    assert_eq!((kill.rank, kill.point), (2, 1));
    assert!(
        kill.respawned_at_ns.is_none(),
        "no restart policy, no respawn"
    );
    let detected = run
        .first_detection_ns
        .expect("survivors observed the death");
    assert!(detected >= kill.killed_at_ns, "detection follows the kill");
    assert_hard_evidence_of_every_death(&run);
}

/// The same SIGKILL under `RestartPolicy::FromCheckpoint`: the supervisor
/// respawns the victim from its latest checkpoint, it rejoins the mesh,
/// and the finished run is bit-identical to a fault-free one.
#[test]
fn survival_kill_restart_agrees() {
    let _serialize = cache();
    let retry = recovery::fast_retry(4);
    let (clean, _) = survival::run_survival_inproc(&FaultPlan::none(), &retry);
    let plan = FaultPlan::new(0x5EED).with_kill(1, 2).with_restart();
    let (inproc, stats) = survival::run_survival_inproc(&plan, &retry);
    assert_eq!(clean, inproc, "in-process restart replay is fault-free");
    let run = survival::run_survival_socket(&plan, &retry, CHILD_TEST, "survival")
        .expect("the respawned rank finishes the run");
    for (rank, clean_payload) in clean.iter().enumerate() {
        assert_eq!(
            run.results[rank].as_ref(),
            clean_payload.as_ref(),
            "rank {rank}: restarted run must match fault-free bit-for-bit"
        );
    }
    assert_eq!(
        (stats.deaths_detected_count(), stats.rejoin_count()),
        (run.liveness.deaths_detected, run.liveness.rejoins),
        "the (deaths, rejoins) liveness pair must replay identically"
    );
    assert_eq!(run.liveness.rejoins, 1, "the victim rejoined exactly once");
    assert_eq!(run.kills.len(), 1);
    let kill = &run.kills[0];
    assert!(kill.planned);
    assert_eq!((kill.rank, kill.point), (1, 2));
    let respawned = kill.respawned_at_ns.expect("the victim was respawned");
    assert!(respawned >= kill.killed_at_ns, "respawn follows the kill");
    assert_hard_evidence_of_every_death(&run);
}

/// An *unplanned* child death (a spontaneous `abort()` the fault plan never
/// announced): the coordinator reaps the corpse, survivors demote the rank
/// from socket evidence alone, and the run still completes.
#[test]
fn survival_unplanned_abort_is_survived() {
    let _serialize = cache();
    let run = run_socket_cluster(&SocketClusterConfig {
        p: 4,
        plan: FaultPlan::none(),
        retry: recovery::fast_retry(4),
        workload: "abort2",
        family: SocketFamily::Uds,
        child_test: CHILD_TEST,
        restart: RestartPolicy::Never,
    })
    .expect("survivors finish without the aborted rank");
    assert!(run.results[2].is_none(), "the aborted rank reports nothing");
    let survivors: Vec<&Vec<u8>> = [0usize, 1, 3]
        .iter()
        .map(|&r| run.results[r].as_ref().expect("survivor reports"))
        .collect();
    assert!(
        survivors.iter().all(|p| *p == survivors[0] && p[0] == 1),
        "survivors agree on the recovered result"
    );
    assert_eq!(
        run.liveness.deaths_detected, 3,
        "each survivor detected the abort exactly once"
    );
    // The plan announced nothing: socket evidence is all there was.
    assert_hard_evidence_of_every_death(&run);
    assert!(run.first_detection_ns.is_some());
    let kill = run
        .kills
        .iter()
        .find(|k| k.rank == 2)
        .expect("the abort was logged");
    assert!(!kill.planned, "the supervisor did not inflict this death");
    assert_eq!(kill.point, u64::MAX, "no protocol point for an abort");
    assert!(
        matches!(kill.exit, Some(socket::ChildExit::Signal(_))),
        "abort() dies by signal, got {:?}",
        kill.exit
    );
}

/// TCP-loopback leg (feature-gated): the framing and handshake survive a
/// real network stack, with the same bit-identical results and counters.
#[cfg(feature = "tcp")]
#[test]
fn tcp_loopback_agrees_with_inproc() {
    assert_agree(&scenarios::smoke_allgather(), Backend::SocketTcp);
    assert_agree(&scenarios::chaos_drop_dup(), Backend::SocketTcp);
}
