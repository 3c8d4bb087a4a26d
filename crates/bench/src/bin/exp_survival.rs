//! Kill-chaos survival sweep: SIGKILL live **real-process** ranks at seeded
//! protocol points and measure the liveness layer end to end.
//!
//! Every scenario runs the checkpointed survival workload
//! ([`lcc_bench::survival`]) on the socket backend — each rank a real OS
//! process — while the coordinator delivers a genuine `SIGKILL` to the
//! victim parked at its seeded protocol gate. The sweep records, per
//! scenario:
//!
//! * **detection latency** — first survivor membership sweep that observed
//!   the death, minus the kill timestamp (the measured counterpart of the
//!   paper's Eq. 1 latency term α: suspicion deadlines are derived from
//!   `RetryPolicy`, so the latency is bounded by `suspicion_timeout`);
//! * **recovery path** — `restart` (supervisor respawned the victim from
//!   its latest checkpoint and it rejoined the mesh) or `redistribute`
//!   (survivors re-partitioned the dead rank's sub-domains);
//! * **correctness** — restarted runs must be bit-identical to the
//!   fault-free reference on *every* rank; redistributed runs on every
//!   survivor's recovered field.
//!
//! The binary doubles as its own rank process: when spawned by the
//! coordinator (`LCC_SOCKET_CHILD`) it serves one rank and exits.
//!
//! Run with `--smoke` for the fast CI configuration (one kill point per
//! recovery path). Emits `BENCH_survival.json`.

use lcc_bench::json::{write_report, Json};
use lcc_bench::recovery::fast_retry;
use lcc_bench::survival::{self, run_survival_socket, SurvivalCase};
use lcc_comm::transport::socket::{self, SocketRun, Workload};
use lcc_comm::{CommWorld, FaultPlan, RetryPolicy};

const SEED: u64 = 0x5EED;

/// Registry served to spawned rank processes.
const REGISTRY: &[(&str, Workload)] = &[("survival", child_workload)];

fn child_workload(mut w: CommWorld) -> Vec<u8> {
    survival::rank_workload(&mut w, &SurvivalCase::standard())
}

struct Scenario {
    name: String,
    plan: FaultPlan,
    kill: Option<(usize, u64)>,
}

fn scenarios(case: &SurvivalCase, smoke: bool) -> Vec<Scenario> {
    let mut out = vec![Scenario {
        name: "fault free".to_string(),
        plan: FaultPlan::none(),
        kill: None,
    }];
    let coords: &[(usize, u64)] = if smoke {
        &[(2, 1)]
    } else {
        &[(1, 0), (2, 1), (3, 2), (1, case.chunks - 1)]
    };
    for &(rank, point) in coords {
        for restart in [false, true] {
            let mut plan = FaultPlan::new(SEED).with_kill(rank, point);
            if restart {
                plan = plan.with_restart();
            }
            out.push(Scenario {
                name: format!(
                    "kill rank {rank} @ gate {point}{}",
                    if restart { " + restart" } else { "" }
                ),
                plan,
                kill: Some((rank, point)),
            });
        }
    }
    out
}

/// Byte length of the recovered-field tail of a survival payload.
fn field_len(case: &SurvivalCase) -> usize {
    case.recovery.n.pow(3) * 8
}

/// `Some(ms)` for a pair of UNIX-ns timestamps, `None` when either side is
/// missing (fault-free runs, never-respawned victims).
fn latency_ms(from_ns: u64, to_ns: Option<u64>) -> Option<f64> {
    to_ns.map(|t| t.saturating_sub(from_ns) as f64 / 1e6)
}

fn opt_num(v: Option<f64>) -> Json {
    v.map(Json::Num).unwrap_or(Json::Null)
}

fn run(plan: &FaultPlan, retry: &RetryPolicy) -> SocketRun {
    run_survival_socket(plan, retry, "child", "survival")
        .unwrap_or_else(|e| panic!("socket survival run failed: {e}"))
}

fn main() {
    if socket::is_child() {
        socket::child_serve(REGISTRY).expect("survival child failed");
        return;
    }

    let smoke = std::env::args().any(|a| a == "--smoke");
    let case = SurvivalCase::standard();
    let retry = fast_retry(case.recovery.p);
    let sweeps = scenarios(&case, smoke);

    println!(
        "== survival sweep: massif {n}³ × {chunks} gates → recovery {rn}³, P={p}, seed {SEED:#x}{s} ==",
        n = case.massif_n,
        chunks = case.chunks,
        rn = case.recovery.n,
        p = case.recovery.p,
        s = if smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<28} {:<12} {:>10} {:>10} {:>6} {:>7} {:>6} {:>9}",
        "scenario", "path", "detect-ms", "respawn-ms", "deaths", "rejoins", "hard", "identical"
    );

    // The fault-free socket run is the reference every kill is judged
    // against; its own internal determinism is covered by the in-process
    // tests in `lcc_bench::survival`.
    let clean = run(&sweeps[0].plan, &retry);
    let tail = field_len(&case);

    let mut rows = Vec::new();
    for s in &sweeps {
        let out = if s.kill.is_none() {
            &clean
        } else {
            &run(&s.plan, &retry)
        };
        let restarted = s.plan.kill_restart;
        let path = match s.kill {
            None => "none",
            Some(_) if restarted => "restart",
            Some(_) => "redistribute",
        };

        // Correctness vs the fault-free reference.
        let mut identical = true;
        for (rank, slot) in out.results.iter().enumerate() {
            let reference = clean.results[rank].as_ref().expect("fault-free rank");
            match slot {
                None => {
                    // Only the un-respawned victim may be absent.
                    assert!(
                        !restarted && s.plan.killed_for_good(rank),
                        "`{}`: rank {rank} missing unexpectedly",
                        s.name
                    );
                }
                Some(payload) if restarted || s.kill.is_none() => {
                    identical &= payload == reference;
                }
                Some(payload) => {
                    // Survivor of a redistribute: the recovered field must
                    // match bit-for-bit; the payload head differs (epoch,
                    // recovery counts).
                    identical &=
                        payload[payload.len() - tail..] == reference[reference.len() - tail..];
                }
            }
        }
        assert!(
            identical,
            "`{}`: result diverged from the fault-free reference",
            s.name
        );

        let kill_rec = s.kill.map(|(rank, _)| {
            out.kills
                .iter()
                .find(|k| k.rank == rank && k.planned)
                .unwrap_or_else(|| panic!("`{}`: seeded kill not logged", s.name))
        });
        let detect_ms = kill_rec.and_then(|k| latency_ms(k.killed_at_ns, out.first_detection_ns));
        let respawn_ms = kill_rec.and_then(|k| latency_ms(k.killed_at_ns, k.respawned_at_ns));

        println!(
            "{:<28} {:<12} {:>10} {:>10} {:>6} {:>7} {:>6} {:>9}",
            s.name,
            path,
            detect_ms.map_or("-".into(), |v| format!("{v:.1}")),
            respawn_ms.map_or("-".into(), |v| format!("{v:.1}")),
            out.liveness.deaths_detected,
            out.liveness.rejoins,
            out.liveness.hard_evidence,
            identical
        );

        rows.push(Json::obj(vec![
            ("scenario", Json::str(&s.name)),
            ("path", Json::str(path)),
            (
                "kill_rank",
                s.kill.map_or(Json::Null, |(r, _)| Json::int(r as i64)),
            ),
            (
                "kill_point",
                s.kill.map_or(Json::Null, |(_, g)| Json::int(g as i64)),
            ),
            ("restart", Json::Bool(restarted)),
            ("detection_latency_ms", opt_num(detect_ms)),
            ("respawn_latency_ms", opt_num(respawn_ms)),
            (
                "deaths_detected",
                Json::int(out.liveness.deaths_detected as i64),
            ),
            ("rejoins", Json::int(out.liveness.rejoins as i64)),
            (
                "hard_evidence",
                Json::int(out.liveness.hard_evidence as i64),
            ),
            ("suspicions", Json::int(out.liveness.suspicions as i64)),
            (
                "heartbeats_sent",
                Json::int(out.liveness.heartbeats_sent as i64),
            ),
            ("bit_identical", Json::Bool(identical)),
        ]));
    }

    write_report(
        "BENCH_survival.json",
        &Json::obj(vec![
            (
                "config",
                Json::obj(vec![
                    ("massif_n", Json::int(case.massif_n as i64)),
                    ("chunks", Json::int(case.chunks as i64)),
                    ("iters_per_chunk", Json::int(case.iters_per_chunk as i64)),
                    ("recovery_n", Json::int(case.recovery.n as i64)),
                    ("p", Json::int(case.recovery.p as i64)),
                    (
                        "suspicion_timeout_ms",
                        Json::Num(retry.suspicion_timeout().as_secs_f64() * 1e3),
                    ),
                    (
                        "heartbeat_period_ms",
                        Json::Num(retry.heartbeat_period().as_secs_f64() * 1e3),
                    ),
                    ("smoke", Json::Bool(smoke)),
                ]),
            ),
            ("seed", Json::int(SEED as i64)),
            ("rows", Json::Arr(rows)),
        ]),
    );

    println!();
    println!("A SIGKILLed rank is detected from hard socket evidence (a reader's");
    println!("EOF) long before the adaptive suspicion deadline; with a restart");
    println!("policy the supervisor respawns it from its latest checkpoint and the");
    println!("finished run is bit-identical to the fault-free one.");
}
