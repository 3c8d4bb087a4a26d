//! Chaos sweep on the Fig. 1(b) deployment: the low-communication
//! convolution's single sparse exchange, run on the cluster simulator under
//! increasing deterministic fault pressure. Each row replays exactly from
//! its seed (`FaultPlan` decisions are keyed hashes, not a shared RNG), so
//! any row can be reproduced in isolation.
//!
//! The table shows that the retry protocol absorbs message loss with ZERO
//! effect on the result (error vs the fault-free run stays 0) while the
//! logical traffic accounting — bytes, messages, one collective round —
//! never inflates. The final rows crash a rank: survivors degrade to the
//! schedule's coarsest rate for the dead rank's domains and report the
//! accuracy cost instead of hanging.

use std::sync::Arc;

use lcc_bench::chaos::{self, input, K, N, SIGMA};
use lcc_bench::json::{write_report, Json};
use lcc_comm::{CommStats, FaultPlan, RetryConfig};
use lcc_core::TraditionalConvolver;
use lcc_greens::GaussianKernel;
use lcc_grid::{relative_l2, Grid3};

const P: usize = 4;
const SEED: u64 = 0x51_EE_D5;

/// The distributed low-comm convolution under `plan`: local compressed
/// convolutions, one surviving exchange, reconstruction with degraded
/// recomputation of any crashed rank's domains. The per-rank body lives in
/// [`lcc_bench::chaos`], shared with the chaos and conformance suites.
fn run(plan: FaultPlan) -> (Vec<Option<Grid3<f64>>>, Arc<CommStats>) {
    chaos::run_workload(P, plan, RetryConfig::scaled_for(P))
}

fn main() {
    let oracle = TraditionalConvolver::new(N).convolve(&input(), &GaussianKernel::new(N, SIGMA));
    let (baseline, _) = run(FaultPlan::none());
    let baseline = baseline[0].as_ref().unwrap().clone();

    println!("== chaos sweep: N={N} k={K} P={P}, seed {SEED:#x}, one sparse exchange ==");
    println!(
        "{:<22} {:>8} {:>11} {:>8} {:>8} {:>10} {:>10} {:>12} {:>12}",
        "scenario",
        "retrans",
        "dups-suppr",
        "timeouts",
        "rounds",
        "logical-B",
        "wire-B",
        "vs clean",
        "vs oracle"
    );
    let sweeps: &[(&str, FaultPlan)] = &[
        ("fault-free", FaultPlan::none()),
        ("drop 1%", FaultPlan::new(SEED).with_drop(0.01)),
        ("drop 5%", FaultPlan::new(SEED).with_drop(0.05)),
        ("drop 10%", FaultPlan::new(SEED).with_drop(0.10)),
        (
            "drop 20% + dup 10%",
            FaultPlan::new(SEED).with_drop(0.20).with_duplicates(0.10),
        ),
        ("crash rank 3", FaultPlan::new(SEED).with_crashed(3)),
        (
            "crash 3 + drop 5%",
            FaultPlan::new(SEED).with_drop(0.05).with_crashed(3),
        ),
    ];
    let mut rows = Vec::new();
    for (name, plan) in sweeps {
        let (results, stats) = run(plan.clone());
        let survivor = results
            .iter()
            .flatten()
            .next()
            .expect("at least one survivor");
        let vs_clean = relative_l2(baseline.as_slice(), survivor.as_slice());
        let vs_oracle = relative_l2(oracle.as_slice(), survivor.as_slice());
        println!(
            "{:<22} {:>8} {:>11} {:>8} {:>8} {:>10} {:>10} {:>12.2e} {:>12.2e}",
            name,
            stats.retransmit_count(),
            stats.duplicate_count(),
            stats.timeout_count(),
            stats.rounds(),
            stats.bytes(),
            stats.physical_bytes(),
            vs_clean,
            vs_oracle
        );
        rows.push(Json::obj(vec![
            ("scenario", Json::str(*name)),
            ("retransmits", Json::int(stats.retransmit_count() as i64)),
            (
                "duplicates_suppressed",
                Json::int(stats.duplicate_count() as i64),
            ),
            ("timeouts", Json::int(stats.timeout_count() as i64)),
            ("rounds", Json::int(stats.rounds() as i64)),
            ("logical_bytes", Json::int(stats.bytes() as i64)),
            ("physical_bytes", Json::int(stats.physical_bytes() as i64)),
            ("acks", Json::int(stats.ack_count() as i64)),
            ("l2_vs_clean", Json::Num(vs_clean)),
            ("l2_vs_oracle", Json::Num(vs_oracle)),
        ]));
    }
    write_report(
        "BENCH_chaos.json",
        &Json::obj(vec![
            (
                "config",
                Json::obj(vec![
                    ("n", Json::int(N as i64)),
                    ("k", Json::int(K as i64)),
                    ("p", Json::int(P as i64)),
                    ("sigma", Json::Num(SIGMA)),
                ]),
            ),
            ("seed", Json::int(SEED as i64)),
            ("rows", Json::Arr(rows)),
        ]),
    );
    println!();
    println!("Message loss is fully absorbed by the ack/retry protocol (vs clean = 0)");
    println!("and never inflates the *logical* traffic — only wire bytes grow with");
    println!("retransmissions. A crashed rank degrades accuracy — survivors rebuild its");
    println!("domains at the schedule's coarsest rate — but the run completes in one round.");
}
