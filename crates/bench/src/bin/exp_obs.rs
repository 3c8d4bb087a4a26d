//! Observability regenerator: a 2-rank cluster-sim convolution wrapped in an
//! [`ObsSession`], exported three ways:
//!
//! 1. `BENCH_obs.json` — per-stage span timings, every counter, and the
//!    paper's Eq. 1 / Eq. 6 modeled times folded in, so the run records the
//!    headline communication ratio next to the bytes it actually moved;
//! 2. `BENCH_obs.capture` — the versioned binary capture
//!    ([`lcc_obs::ObsReport::capture_into`]), replayed immediately as a
//!    self-check (timely-dataflow's `capture_into`/`replay_from` spirit);
//! 3. `--trace-tree` — a flamegraph-style text view of the span hierarchy.
//!
//! The run also asserts the acceptance invariant end to end: the obs
//! `comm.*` counters must match the run's [`CommStats`] table *exactly*
//! (one `CommStats::add` call writes both).

use std::collections::BTreeMap;
use std::sync::Arc;

use lcc_bench::json::{write_report, Json};
use lcc_comm::{run_cluster, AlphaBeta, CommScenario, CommStats};
use lcc_obs::{ObsReport, ObsSession};

use lcc_core::prelude::*;

const N: usize = 32;
const K: usize = 8;
const P: usize = 2;
const SIGMA: f64 = 1.5;

fn input() -> Grid3<f64> {
    Grid3::from_fn((N, N, N), |x, y, z| {
        ((x as f64 * 0.29).sin() + (y as f64 * 0.41).cos()) * (1.0 + 0.01 * z as f64)
    })
}

fn config() -> LowCommConfig {
    LowCommConfig::builder()
        .n(N)
        .k(K)
        .batch(512)
        .schedule(RateSchedule::for_kernel_spread(K, SIGMA, 16))
        .build()
        .expect("valid configuration")
}

/// The Fig. 1(b) deployment through the session API: round-robin local
/// compressed convolutions, one sparse exchange, every rank folding the
/// whole cube in ascending domain id.
fn run() -> (Vec<Grid3<f64>>, Arc<CommStats>) {
    let kernel = GaussianKernel::new(N, SIGMA);
    let field = input();
    let conv = LowCommConvolver::new(config());
    let deployment = Deployment::replicated(N, K, P);
    run_cluster(P, |mut w| {
        let _worker = lcc_obs::span("worker");
        conv.session(ConvolveMode::Normal)
            .exchange(&mut w, &field, &kernel, &deployment)
            .expect("fault-free exchange")
            .result
    })
}

/// Aggregates spans by name into (calls, total_ns) rows, ordered by
/// first appearance.
fn span_rows(report: &ObsReport) -> Vec<Json> {
    let mut order: Vec<&'static str> = Vec::new();
    let mut agg: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in &report.spans {
        let e = agg.entry(s.name).or_insert_with(|| {
            order.push(s.name);
            (0, 0)
        });
        e.0 += 1;
        e.1 += s.dur_ns;
    }
    order
        .into_iter()
        .map(|name| {
            let (calls, total_ns) = agg[name];
            Json::obj(vec![
                ("name", Json::str(name)),
                ("calls", Json::int(calls as i64)),
                ("total_ns", Json::int(total_ns as i64)),
            ])
        })
        .collect()
}

fn main() {
    let trace_tree = std::env::args().any(|a| a == "--trace-tree");

    let session = ObsSession::start().expect("no other obs session active");
    let (results, stats) = run();
    let report = session.finish();

    // The acceptance invariant: one `CommStats::add` writes the table and
    // the obs counter, so the alltoall totals must match exactly.
    let counter = |name: &str| report.counter(name).unwrap_or(0);
    assert_eq!(counter("comm.bytes_logical"), stats.bytes());
    assert_eq!(counter("comm.messages_logical"), stats.message_count());
    assert_eq!(counter("comm.bytes_physical"), stats.physical_bytes());
    assert_eq!(counter("comm.collective_rounds"), stats.rounds());

    // All ranks hold the same field; report its accuracy for context.
    let oracle = TraditionalConvolver::new(N).convolve(&input(), &GaussianKernel::new(N, SIGMA));
    let err = relative_l2(oracle.as_slice(), results[0].as_slice());

    // Eq. 1 vs Eq. 6 modeled times under the default α-β link, using the
    // schedule's effective exterior rate as the paper's r_avg.
    let scenario = CommScenario {
        n: N,
        p: P,
        elem_bytes: 8,
        link: AlphaBeta::hpc_default(),
    };
    let r_avg = config().schedule.effective_exterior_rate(N, K);
    let t_fft = scenario.t_fft_bandwidth_only();
    let t_ours = scenario.t_ours(K, r_avg);

    println!("== obs run: N={N} k={K} P={P}, one sparse exchange ==");
    println!(
        "  logical bytes  : {} (== CommStats)",
        counter("comm.bytes_logical")
    );
    println!("  physical bytes : {}", counter("comm.bytes_physical"));
    println!("  spans recorded : {}", report.spans.len());
    println!("  rel. L2 error  : {err:.3e}");
    println!("  Eq.1 t_fft     : {t_fft:.3e} s");
    println!("  Eq.6 t_ours    : {t_ours:.3e} s  (r_avg = {r_avg:.2})");
    println!("  modeled ratio  : {:.1}x", t_fft / t_ours);

    if trace_tree {
        println!();
        println!("{}", report.trace_tree());
    }

    // Versioned binary capture + immediate replay self-check.
    let capture_path = std::path::Path::new("BENCH_obs.capture");
    report.capture_into(capture_path).expect("capture");
    let replayed = ObsReport::replay_from(capture_path).expect("replay");
    assert_eq!(replayed.spans.len(), report.spans.len());
    assert_eq!(replayed.counters, report.counters);

    write_report(
        "BENCH_obs.json",
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
            (
                "counters",
                Json::Obj(
                    report
                        .counters
                        .iter()
                        .map(|(name, v)| (name.clone(), Json::int(*v as i64)))
                        .collect(),
                ),
            ),
            ("spans", Json::Arr(span_rows(&report))),
            (
                "comm",
                Json::obj(vec![
                    ("logical_bytes", Json::int(stats.bytes() as i64)),
                    ("physical_bytes", Json::int(stats.physical_bytes() as i64)),
                    ("rounds", Json::int(stats.rounds() as i64)),
                    ("counters_match_stats", Json::Bool(true)),
                ]),
            ),
            (
                "model",
                Json::obj(vec![
                    ("r_avg", Json::Num(r_avg)),
                    ("eq1_t_fft_s", Json::Num(t_fft)),
                    ("eq6_t_ours_s", Json::Num(t_ours)),
                    ("modeled_reduction", Json::Num(t_fft / t_ours)),
                ]),
            ),
            ("relative_l2_vs_oracle", Json::Num(err)),
            ("wall_ns", Json::int(report.wall_ns as i64)),
        ]),
    );
    println!("OK");
}
