//! Convolve-as-a-service regenerator: a closed-loop traffic generator
//! against the threaded [`ServiceServer`], swept over offered load
//! (concurrent closed-loop tenants), exported as `BENCH_service.json`.
//!
//! Each load point spawns a fresh server, warms the shared plan cache
//! (one request per plan key), then runs `clients` tenant threads in
//! closed loop — every thread submits its next request the moment the
//! previous reply lands, so the offered load is set by the concurrency,
//! not a timer. Every call crosses the versioned wire codec both ways.
//!
//! The run asserts the service acceptance invariants at every point:
//!
//! * exact accounting — `admitted + shed + rejected == offered`;
//! * bounded queues — the high-water queue depth never exceeds the
//!   closed-loop concurrency (nothing buffers beyond the tenants'
//!   outstanding requests), and shed mode engages at the overload point
//!   *before* that bound is reached;
//! * warm cache — after warm-up, no tenant ever observes a plan rebuild
//!   (`plan_builds == distinct keys` at shutdown).
//!
//! The JSON also folds in the paper's Eq. 1 / Eq. 6 α-β model for the
//! per-request problem size, so measured p50 latency sits next to the
//! modeled communication floor it is paying for (EXPERIMENTS.md maps the
//! two).

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use lcc_bench::json::{write_report, Json};
use lcc_comm::{AlphaBeta, CommScenario};
use lcc_core::prelude::*;
use lcc_service::wire::{
    decode_message, encode_request, ConvolveRequest, RequestInput, ServedMode, TenantId,
    WireMessage,
};
use lcc_service::{AdmissionConfig, ServiceConfig, ServiceReport, ServiceServer};

const N: u32 = 16;
const K: u32 = 4;
const FAR_RATE: u32 = 8;
/// Distinct plan keys in the mix — tenants alternate sigmas, so every
/// key is shared across all tenants.
const SIGMAS: [f64; 2] = [1.0, 2.0];
/// Every 8th request demands exact service; under shed these come back
/// as typed `Shedding` rejects instead of silently degraded fields.
const EXACT_EVERY: u64 = 8;

fn admission() -> AdmissionConfig {
    AdmissionConfig {
        queue_capacity: 8,
        tenant_quota: 8,
        shed_on: 12,
        shed_off: 4,
    }
}

fn dense_input(tenant: u32) -> Vec<f64> {
    let n = N as usize;
    let phase = tenant as f64 * 0.37;
    let mut samples = Vec::with_capacity(n * n * n);
    for x in 0..n {
        for y in 0..n {
            for z in 0..n {
                samples.push(
                    ((x as f64 * 0.31 + phase).sin() + (y as f64 * 0.22).cos())
                        * (1.0 + 0.02 * z as f64),
                );
            }
        }
    }
    samples
}

fn request(tenant: u32, id: u64) -> ConvolveRequest {
    ConvolveRequest {
        tenant: TenantId(tenant),
        request_id: id,
        n: N,
        k: K,
        far_rate: FAR_RATE,
        sigma: SIGMAS[(id % 2) as usize],
        require_exact: id % EXACT_EVERY == EXACT_EVERY - 1,
        checksum_only: true,
        input: RequestInput::Dense(dense_input(tenant)),
    }
}

/// One client call outcome.
#[derive(Clone, Copy)]
enum Outcome {
    Normal,
    Degraded,
    Rejected,
}

struct Point {
    clients: usize,
    elapsed_s: f64,
    latencies_ms: Vec<f64>,
    normal: u64,
    degraded: u64,
    rejected: u64,
    report: ServiceReport,
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

fn run_point(clients: usize, reqs_per_client: u64) -> Point {
    let server = ServiceServer::spawn(ServiceConfig {
        admission: admission(),
        max_batch: 16,
    });

    // Warm-up: one request per plan key, sequentially, so the measured
    // phase starts with every key cached.
    let warm = server.client();
    for (i, _) in SIGMAS.iter().enumerate() {
        let reply = warm
            .call_bytes(encode_request(&request(0, i as u64)))
            .expect("warm-up call");
        assert!(
            matches!(decode_message(&reply), Ok(WireMessage::Response(_))),
            "warm-up request must be served"
        );
    }

    let barrier = Arc::new(Barrier::new(clients));
    let start = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let client = server.client();
        let barrier = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            let tenant = c as u32 + 1;
            let mut calls: Vec<(f64, Outcome)> = Vec::with_capacity(reqs_per_client as usize);
            barrier.wait();
            for id in 0..reqs_per_client {
                let bytes = encode_request(&request(tenant, id));
                let t0 = Instant::now();
                let reply = client.call_bytes(bytes).expect("server alive");
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let outcome = match decode_message(&reply).expect("well-formed reply") {
                    WireMessage::Response(resp) => match resp.mode {
                        ServedMode::Normal => Outcome::Normal,
                        ServedMode::Degraded => Outcome::Degraded,
                    },
                    WireMessage::Reject(_) => Outcome::Rejected,
                    WireMessage::Request(_) => panic!("server echoed a request"),
                };
                calls.push((ms, outcome));
            }
            calls
        }));
    }

    let mut latencies_ms = Vec::new();
    let (mut normal, mut degraded, mut rejected) = (0u64, 0u64, 0u64);
    for h in handles {
        for (ms, outcome) in h.join().expect("client thread") {
            match outcome {
                Outcome::Normal => normal += 1,
                Outcome::Degraded => degraded += 1,
                Outcome::Rejected => rejected += 1,
            }
            // Latency percentiles cover *served* requests; rejects return
            // in microseconds and would only flatter the tail.
            if !matches!(outcome, Outcome::Rejected) {
                latencies_ms.push(ms);
            }
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let report = server.shutdown();

    Point {
        clients,
        elapsed_s,
        latencies_ms,
        normal,
        degraded,
        rejected,
        report,
    }
}

fn point_json(p: &Point, reqs_per_client: u64) -> Json {
    let served = p.normal + p.degraded;
    Json::obj(vec![
        ("clients", Json::int(p.clients as i64)),
        (
            "requests",
            Json::int((p.clients as u64 * reqs_per_client) as i64),
        ),
        ("elapsed_s", Json::Num(p.elapsed_s)),
        (
            "throughput_rps",
            Json::Num(served as f64 / p.elapsed_s.max(1e-9)),
        ),
        ("p50_ms", Json::Num(percentile(&p.latencies_ms, 0.50))),
        ("p95_ms", Json::Num(percentile(&p.latencies_ms, 0.95))),
        ("p99_ms", Json::Num(percentile(&p.latencies_ms, 0.99))),
        ("served_normal", Json::int(p.normal as i64)),
        ("served_degraded", Json::int(p.degraded as i64)),
        ("rejected", Json::int(p.rejected as i64)),
        ("offered", Json::int(p.report.admission.offered as i64)),
        ("shed", Json::int(p.report.admission.shed as i64)),
        (
            "shed_entries",
            Json::int(p.report.admission.shed_entries as i64),
        ),
        (
            "max_queue_depth",
            Json::int(p.report.admission.max_total_queued as i64),
        ),
        ("plan_builds", Json::int(p.report.plan_builds as i64)),
        ("plan_hits", Json::int(p.report.plan_hits as i64)),
        ("plan_evictions", Json::int(p.report.plan_evictions as i64)),
        (
            "accounting_balanced",
            Json::Bool(p.report.admission.balanced()),
        ),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let reqs_per_client: u64 = if smoke { 10 } else { 40 };
    // Closed-loop concurrency sweep: under / near / over the shed_on
    // threshold (12 queued). The overload point must trip shed mode.
    let load_points = [2usize, 8, 32];
    let cfg = admission();

    println!("== convolve-as-a-service sweep: n={N} k={K}, {reqs_per_client} reqs/client ==");
    let mut points = Vec::new();
    for &clients in &load_points {
        let p = run_point(clients, reqs_per_client);
        let stats = &p.report.admission;

        // Invariant 1: exact accounting at every load point.
        assert!(stats.balanced(), "accounting must balance exactly");
        assert_eq!(
            stats.offered,
            SIGMAS.len() as u64 + clients as u64 * reqs_per_client,
            "every offered request is accounted"
        );
        // Invariant 2: queues stay bounded — the backlog never exceeds the
        // closed-loop concurrency (+ warm-up), far below the per-tenant
        // capacity the config would tolerate.
        assert!(
            stats.max_total_queued <= clients as u64 + SIGMAS.len() as u64,
            "queue depth {} exceeded the closed-loop bound {}",
            stats.max_total_queued,
            clients
        );
        // Invariant 3: the shared plan cache is warm after warm-up — no
        // tenant ever observes a rebuild in the measured phase.
        assert_eq!(
            p.report.plan_builds,
            SIGMAS.len() as u64,
            "cache-warm tenants observed a plan rebuild"
        );

        let shed_expected = clients > cfg.shed_on;
        if shed_expected {
            // Invariant 4: overload sheds *before* queues grow unbounded.
            assert!(
                stats.shed_entries > 0 && stats.shed > 0,
                "overload point ({clients} clients) must engage shed mode"
            );
        } else if clients < cfg.shed_on {
            assert_eq!(
                stats.shed_entries, 0,
                "underload point must never shed (depth bounded by {clients})"
            );
        }

        println!(
            "  clients={:<3} throughput={:>7.1} rps  p50={:>7.2} ms  p95={:>7.2} ms  p99={:>7.2} ms  \
             shed={} rejected={} max_depth={}",
            p.clients,
            (p.normal + p.degraded) as f64 / p.elapsed_s.max(1e-9),
            percentile(&p.latencies_ms, 0.50),
            percentile(&p.latencies_ms, 0.95),
            percentile(&p.latencies_ms, 0.99),
            stats.shed,
            p.rejected,
            stats.max_total_queued,
        );
        points.push(p);
    }

    // Eq. 1 / Eq. 6 α-β model for the per-request problem: what one
    // request's convolution would cost in communication on a P-node
    // deployment, next to the measured single-box service latency.
    let conv_cfg = LowCommConfig::builder()
        .n(N as usize)
        .k(K as usize)
        .far_rate(FAR_RATE)
        .build()
        .expect("bench problem config");
    let r_avg = conv_cfg
        .schedule
        .effective_exterior_rate(N as usize, K as usize);
    // Two rows: the service's toy n (where Eq. 6's α term dominates and
    // the ratio honestly dips below 1) and the paper-scale n where the
    // single sparse exchange wins.
    let model_row = |n: usize, k: usize| {
        let scenario = CommScenario {
            n,
            p: 8,
            elem_bytes: 8,
            link: AlphaBeta::hpc_default(),
        };
        let t_fft = scenario.t_fft_bandwidth_only();
        let t_ours = scenario.t_ours(k, r_avg);
        println!(
            "  model (n={n}, P={}): Eq.1 t_fft={t_fft:.3e} s  Eq.6 t_ours={t_ours:.3e} s  ratio={:.1}x",
            scenario.p,
            t_fft / t_ours
        );
        Json::obj(vec![
            ("n", Json::int(n as i64)),
            ("p", Json::int(scenario.p as i64)),
            ("r_avg", Json::Num(r_avg)),
            ("eq1_t_fft_s", Json::Num(t_fft)),
            ("eq6_t_ours_s", Json::Num(t_ours)),
            ("modeled_reduction", Json::Num(t_fft / t_ours)),
        ])
    };
    let model_rows = vec![model_row(N as usize, K as usize), model_row(512, 128)];

    let overload = points.last().expect("at least one load point");
    write_report(
        "BENCH_service.json",
        &Json::obj(vec![
            (
                "config",
                Json::obj(vec![
                    ("n", Json::int(N as i64)),
                    ("k", Json::int(K as i64)),
                    ("far_rate", Json::int(FAR_RATE as i64)),
                    ("plan_keys", Json::int(SIGMAS.len() as i64)),
                    ("queue_capacity", Json::int(cfg.queue_capacity as i64)),
                    ("tenant_quota", Json::int(cfg.tenant_quota as i64)),
                    ("shed_on", Json::int(cfg.shed_on as i64)),
                    ("shed_off", Json::int(cfg.shed_off as i64)),
                    ("reqs_per_client", Json::int(reqs_per_client as i64)),
                    ("smoke", Json::Bool(smoke)),
                ]),
            ),
            (
                "points",
                Json::Arr(
                    points
                        .iter()
                        .map(|p| point_json(p, reqs_per_client))
                        .collect(),
                ),
            ),
            (
                "assertions",
                Json::obj(vec![
                    ("accounting_balanced_all_points", Json::Bool(true)),
                    (
                        "overload_sheds_before_unbounded_growth",
                        Json::Bool(overload.report.admission.shed_entries > 0),
                    ),
                    ("max_queue_depth_bounded_by_concurrency", Json::Bool(true)),
                    ("warm_cache_zero_rebuilds", Json::Bool(true)),
                ]),
            ),
            ("model", Json::Arr(model_rows)),
        ]),
    );
    println!("OK");
}
