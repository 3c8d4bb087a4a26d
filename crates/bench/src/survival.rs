//! The kill-chaos survival workload shared by `exp_survival` and the
//! transport conformance suite.
//!
//! Phase A is a checkpointed MASSIF fixed-point solve cut into chunks,
//! with a liveness gate ([`CommWorld::protocol_point`]) after each chunk —
//! the seeded coordinates at which the kill machinery strikes. On the
//! socket backend a kill is a real `SIGKILL` delivered by the coordinator
//! while the victim parks at its gate; in-process the fault injector
//! replays the same death as [`CommError::Killed`]. Under a respawning
//! `RestartPolicy` the victim's replacement resumes from the latest
//! checkpoint (written under `LCC_SOCKET_DIR`, which survives the
//! restart), replays its gates, and finishes the run as if nothing
//! happened; without restart the survivors detect the death and complete
//! via the epoch-converged recovery exchange (phase B).
//!
//! Because the solver iterate is a pure function of the strain field and
//! the recovery fold is ascending-domain-id, every completed run — fault
//! free, redistributed, or restarted — produces bit-identical payloads.
//!
//! Wire format of one rank's payload (little-endian):
//!
//! ```text
//! u8 1 | u64 epoch | u64 recovered | u64 degraded |
//! u64 iters | f64 × iters residuals | f64 × n³ field
//! ```
//!
//! A rank killed for good returns the empty payload (in-process; its
//! socket counterpart's slot is `None` — the process no longer exists).

use std::path::PathBuf;
use std::sync::Arc;

use lcc_comm::transport::socket::{
    run_socket_cluster, RestartPolicy, SocketClusterConfig, SocketFamily, SocketRun,
};
use lcc_comm::{run_cluster_with_faults, CommError, CommStats, CommWorld, FaultPlan, RetryPolicy};
use lcc_core::RecoveryPolicy;
use lcc_greens::MassifGamma;
use lcc_grid::{IsotropicStiffness, Sym3};
use lcc_massif::{
    solve_with_checkpoints, CheckpointConfig, Microstructure, SolveResult, SolverConfig,
    SpectralGamma,
};
use lcc_obs::codec::Writer;

use crate::recovery::{self, fast_retry, RecoveryCase};

/// One survival deployment: the checkpointed solve (phase A) plus the
/// recovery exchange it hands over to (phase B).
#[derive(Clone, Debug)]
pub struct SurvivalCase {
    /// MASSIF grid size for the checkpointed solve.
    pub massif_n: usize,
    /// Number of phase-A chunks, i.e. protocol points `0..chunks`.
    pub chunks: u64,
    /// Fixed-point iterations per chunk (also the checkpoint interval).
    pub iters_per_chunk: usize,
    /// Phase-B deployment (its `plan` / `p` / `retry` fields belong to the
    /// harness; the workload reads the shape fields only).
    pub recovery: RecoveryCase,
}

impl SurvivalCase {
    /// The standard survival deployment: an 8³ two-phase solve in four
    /// gated chunks, handing over to a 16³ / k=8 / p=4 Redistribute
    /// exchange.
    pub fn standard() -> Self {
        let mut recovery = RecoveryCase::standard(
            FaultPlan::none(),
            RecoveryPolicy::Redistribute {
                max_extra_domains: usize::MAX,
            },
        );
        recovery.n = 16;
        recovery.sigma = 1.0;
        recovery.retry = fast_retry(recovery.p);
        SurvivalCase {
            massif_n: 8,
            chunks: 4,
            iters_per_chunk: 2,
            recovery,
        }
    }
}

/// The deterministic two-phase microstructure every rank solves.
fn microstructure(n: usize) -> Microstructure {
    Microstructure::sphere(
        n,
        0.5,
        IsotropicStiffness::new(1.0, 1.0),
        IsotropicStiffness::new(2.0, 4.0),
    )
}

/// One rank of the survival workload on an already-connected world of any
/// backend. Returns the empty payload for a rank killed for good.
pub fn rank_workload(w: &mut CommWorld, case: &SurvivalCase) -> Vec<u8> {
    let rank = w.rank();

    // Phase A: the checkpointed solve, one gate per chunk. Each call
    // resumes from the checkpoint file (socket children; a respawned
    // process recovers its predecessor's progress this way) or from the
    // previous in-memory iterate (in-process ranks, whose thread state
    // *is* the checkpoint), so the trajectory is identical either way.
    let micro = microstructure(case.massif_n);
    let reference = micro.reference_medium();
    let engine = SpectralGamma::new(MassifGamma::new(
        case.massif_n,
        reference.lambda,
        reference.mu,
    ));
    let applied = Sym3::new(0.01, 0.0, 0.0, 0.0, 0.0, 0.005);
    let ckpt = std::env::var_os("LCC_SOCKET_DIR").map(|dir| {
        CheckpointConfig::new(
            PathBuf::from(dir).join(format!("survival-r{rank}.ckpt")),
            case.iters_per_chunk,
        )
    });
    let mut solved: Option<SolveResult> = None;
    for chunk in 0..case.chunks {
        let budget = (chunk as usize + 1) * case.iters_per_chunk;
        let cfg = SolverConfig {
            max_iters: budget,
            tol: 0.0, // run the full budget: the iteration count is part of the contract
        };
        solved = Some(
            solve_with_checkpoints(&micro, applied, cfg, &engine, ckpt.as_ref())
                .expect("survival checkpoint I/O failed"),
        );
        match w.protocol_point(chunk) {
            Ok(()) => {}
            // The in-process injector's kill: stop participating, like a
            // deserter. (A real SIGKILL never returns from the gate.)
            Err(CommError::Killed { .. }) => return Vec::new(),
            Err(e) => panic!("protocol point {chunk} failed: {e}"),
        }
    }
    let solved = solved.expect("at least one phase-A chunk");

    // Phase B: the self-healing recovery exchange. Survivors of a
    // no-restart kill converge on the shrunken membership here.
    let out = recovery::rank_workload(w, &case.recovery)
        .expect("survival ranks never desert mid-exchange");

    encode_payload(
        out.epoch,
        [out.report.recovered_domains, out.report.degraded_domains],
        &solved.residuals,
        out.result.as_slice(),
    )
}

/// One completed rank's payload (layout in the module doc); `domains` is
/// `[recovered, degraded]`.
fn encode_payload(epoch: u64, domains: [usize; 2], residuals: &[f64], field: &[f64]) -> Vec<u8> {
    let mut buf = vec![1u8];
    buf.put_u64(epoch);
    buf.put_u64(domains[0] as u64);
    buf.put_u64(domains[1] as u64);
    buf.put_u64(residuals.len() as u64);
    buf.put_f64s(residuals);
    buf.put_f64s(field);
    buf
}

/// Runs the standard survival case under `plan` on the in-process cluster
/// simulator (the kill injector replays the same seeded deaths the socket
/// coordinator inflicts for real).
pub fn run_survival_inproc(
    plan: &FaultPlan,
    retry: &RetryPolicy,
) -> (Vec<Option<Vec<u8>>>, Arc<CommStats>) {
    let case = SurvivalCase::standard();
    let p = case.recovery.p;
    run_cluster_with_faults(p, plan.clone(), retry.clone(), move |mut w| {
        rank_workload(&mut w, &case)
    })
}

/// Runs the standard survival case under `plan` on the real-process socket
/// backend: `child_test` names the entry point in the calling binary and
/// `workload` its registry key (conventionally `"survival"`).
pub fn run_survival_socket(
    plan: &FaultPlan,
    retry: &RetryPolicy,
    child_test: &str,
    workload: &str,
) -> Result<SocketRun, CommError> {
    let case = SurvivalCase::standard();
    run_socket_cluster(&SocketClusterConfig {
        p: case.recovery.p,
        plan: plan.clone(),
        retry: retry.clone(),
        workload,
        family: SocketFamily::Uds,
        child_test,
        restart: RestartPolicy::for_plan(plan),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_golden() {
        assert_eq!(
            lcc_obs::codec::hex(&encode_payload(2, [1, 0], &[0.5], &[1.0, 2.0])),
            "0102000000000000000100000000000000000000000000000001000000000000\
            00000000000000e03f000000000000f03f0000000000000040"
        );
    }

    #[test]
    fn fault_free_survival_is_deterministic_across_runs() {
        let plan = FaultPlan::none();
        let retry = fast_retry(4);
        let (a, _) = run_survival_inproc(&plan, &retry);
        let (b, _) = run_survival_inproc(&plan, &retry);
        assert_eq!(a, b, "same seed, same payloads");
        for slot in &a {
            let payload = slot.as_ref().expect("fault-free ranks all report");
            assert_eq!(payload[0], 1, "completion marker");
        }
    }

    #[test]
    fn inproc_kill_without_restart_redistributes_bit_identically() {
        let retry = fast_retry(4);
        let (clean, _) = run_survival_inproc(&FaultPlan::none(), &retry);
        let plan = FaultPlan::new(0x5EED).with_kill(2, 1);
        let (killed, stats) = run_survival_inproc(&plan, &retry);
        for (rank, slot) in killed.iter().enumerate() {
            let payload = slot.as_ref().expect("in-process ranks always return");
            if plan.killed_for_good(rank) {
                assert!(payload.is_empty(), "killed rank {rank} reports nothing");
            } else {
                // Bit-identical to fault-free *except* the epoch /
                // recovery header — compare the field tail.
                let clean_payload = clean[rank].as_ref().unwrap();
                assert_eq!(
                    payload[payload.len() - 8..],
                    clean_payload[clean_payload.len() - 8..],
                    "rank {rank}: recovered field tail diverged"
                );
                assert_eq!(payload[0], 1);
            }
        }
        assert_eq!(stats.deaths_detected_count(), 3, "each survivor counts 1");
        assert_eq!(stats.rejoin_count(), 0);
    }

    #[test]
    fn inproc_kill_with_restart_matches_fault_free_exactly() {
        let retry = fast_retry(4);
        let (clean, _) = run_survival_inproc(&FaultPlan::none(), &retry);
        let plan = FaultPlan::new(0x5EED).with_kill(1, 2).with_restart();
        let (restarted, stats) = run_survival_inproc(&plan, &retry);
        assert_eq!(
            clean, restarted,
            "a restarted run is indistinguishable from a fault-free one"
        );
        assert_eq!(stats.deaths_detected_count(), 0, "nobody stayed dead");
        assert_eq!(stats.rejoin_count(), 1, "the victim rejoined once");
    }
}
