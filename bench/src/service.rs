//! `service16`: small requests through the threaded `ServiceServer`, two
//! client connections, four tenants, four warm plan keys. Phase A is an
//! open loop on a fixed schedule (latency from each request's due time);
//! phase B is a closed loop (capacity).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lcc_core::TraditionalConvolver;
use lcc_greens::GaussianKernel;
use lcc_grid::{decompose_uniform, relative_l2};
use lcc_service::batch::{input_grid, serve_solo};
use lcc_service::wire::{
    decode_message, decode_request, encode_request, encode_response, fnv1a_f64, ConvolveRequest,
    ConvolveResponse, RequestInput, ServedMode, WireMessage,
};
use lcc_service::{PlanRegistry, ServiceClient, ServiceConfig, ServiceReport, ServiceServer};

use crate::calib::HostClock;
use crate::report::Outcome;
use crate::stats::{median, sorted, tail};
use crate::trace::Tracer;
use crate::{gen, micro, Opts, ALLOC};

const CLIENTS: usize = 2;
/// Threads of the server's worker pool (`LCC_THREADS`). One, not the two
/// cores the host has: with two, a dense request takes either ~13 ms or
/// ~25 ms for the whole life of a process, depending on where the scheduler
/// first puts the pool's worker, and no metric of such a run repeats.
pub const POOL_THREADS: usize = 1;
/// Phase A's offered rate, all clients together: about 15 % of capacity
/// here. At the 50 req/s that would be 35 %, one half-second stall of the
/// host (two in twenty runs) backs up more than 5 % of the requests and
/// takes the p95 from 16 ms to over 100; at 20 req/s the same stall stays
/// below the tail.
const RATE_RPS: f64 = 20.0;
/// Share of the measured time given to phase A; phase B gets the rest.
const PHASE_A_SHARE: f64 = 2.0 / 3.0;
/// Phase B is cut into stretches this long, each with a throughput of its
/// own; the median over them is reported, so a stall of the host costs one
/// stretch, not a share of the phase.
const STRETCH_B: Duration = Duration::from_millis(500);
/// Phase A counts as an open loop at the stated rate only if the generator
/// itself sent 99 % of its requests no later than this.
const LAG_LIMIT_MS: f64 = 5.0;
/// Times phase A is run until the generator kept to that limit; if it never
/// did, the try that came closest is reported and a context line says so.
/// One 200 ms stall of the host makes four requests late, which is over 1 %
/// of a phase, and about one phase in six meets one here. The run does not
/// fail: for minutes at a time this host runs at half its speed (three runs
/// in a row missed the limit in all of five tries, 74 s each), and a failed
/// run says that the service answered wrongly, which it did not.
const PHASE_A_TRIES: usize = 3;
/// Relative L2 of the service's cold dense answer from the dense oracle, per
/// entry of `SERVICE_SIGMAS`. The service picks its own schedule
/// (`paper_default`, far rate 8), which at n=16 meets the 3 % budget for none
/// of the four kernels, so the benchmark cannot hold it to that; it pins what
/// the schedule gives today (the same for every seed to twelve digits: seeds
/// move the dense field's phases, not its spectrum) and fails the run when
/// any sigma is more than `REL_L2_SLACK` times worse.
const REL_L2_PINNED: [f64; 4] = [0.26165, 0.14796, 0.06895, 0.03199];
const REL_L2_SLACK: f64 = 1.10;

/// When one scheduled request was due, could go, went out, and came back,
/// as offsets from the schedule's start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub due: Duration,
    /// When its connection was free for it: the previous reply's arrival.
    pub free: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl Sample {
    /// Latency as the user sees it: from when the request was due, so a
    /// stall is charged to every request it delayed.
    pub fn latency(&self) -> Duration {
        self.done - self.due
    }

    /// How late the generator itself sent it: from when it was due and its
    /// connection free. A reply that overran the next due time is the
    /// server's lateness and is in `latency`, not here.
    pub fn lag(&self) -> Duration {
        self.sent - self.due.max(self.free)
    }
}

/// One pool cycle of phase A: when its schedule started, its samples in
/// sequence order, and the host-clock factor that turns its wall times into
/// nominal-host times.
struct Stretch {
    start: Instant,
    samples: Vec<Sample>,
    scale: f64,
}

/// Sleeps, then spins the last stretch, until `t`. The stretch is as long as
/// the lag limit: a sleeping thread wakes up to milliseconds late here, and
/// at 15 % utilisation the other core is idle while this one spins.
fn wait_until(t: Instant) {
    const SPIN: Duration = Duration::from_millis(5);
    loop {
        let left = t.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs one connection's share of an open-loop schedule: request `i` goes
/// out at `start + dues[i]`, or at once if the previous call overran that
/// time, and is timed from its due time either way.
pub fn open_loop(start: Instant, dues: &[Duration], mut call: impl FnMut(usize)) -> Vec<Sample> {
    dues.iter()
        .enumerate()
        .map(|(i, &due)| {
            let free = start.elapsed();
            wait_until(start + due);
            let sent = start.elapsed().max(due);
            call(i);
            Sample {
                due,
                free,
                sent,
                done: start.elapsed(),
            }
        })
        .collect()
}

/// One stretch of phase A: `planned` requests, numbered from `base`, on the
/// open-loop schedule over all connections, the first one due one gap after
/// the start so that every connection is up and spinning by then. Returns
/// the schedule's start and the samples in sequence order.
fn open_stretch(
    server: &ServiceServer,
    base: u64,
    planned: usize,
    run_one: &(impl Fn(&ServiceClient, u64, bool) + Sync),
) -> (Instant, Vec<Sample>) {
    let gap = Duration::from_secs_f64(1.0 / RATE_RPS);
    let start = Instant::now();
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = server.client();
                s.spawn(move || {
                    let mine: Vec<usize> = (c..planned).step_by(CLIENTS).collect();
                    let dues: Vec<Duration> = mine.iter().map(|&q| gap * (q as u32 + 1)).collect();
                    open_loop(start, &dues, |i| {
                        run_one(&client, base + mine[i] as u64, true)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let samples = (0..planned)
        .map(|q| per_client[q % CLIENTS][q / CLIENTS])
        .collect();
    (start, samples)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The 99th percentile of the generator's own lateness, in ms.
fn lag_p99_ms(samples: &[Sample]) -> f64 {
    let lags = sorted(&samples.iter().map(|s| ms(s.lag())).collect::<Vec<_>>());
    lags[((lags.len() as f64 * 0.99).ceil() as usize).clamp(1, lags.len()) - 1]
}

/// A live server with every plan key warm, and what warming it returned.
struct Live {
    server: ServiceServer,
    pool: Vec<ConvolveRequest>,
    /// One dense pool entry per sigma with the server's full (cold) answer.
    first_dense: Vec<(ConvolveRequest, ConvolveResponse)>,
}

fn expect_response(reply: &[u8]) -> Result<ConvolveResponse, String> {
    match decode_message(reply) {
        Ok(WireMessage::Response(r)) => Ok(r),
        Ok(WireMessage::Reject(r)) => Err(format!("rejected with code {}", r.code)),
        Ok(WireMessage::Request(_)) => Err("server answered with a request".into()),
        Err(e) => Err(format!("undecodable reply: {e}")),
    }
}

fn set_up(seed: u64) -> Live {
    let pool = gen::request_pool(seed);
    let server = ServiceServer::spawn(ServiceConfig::default());
    let client = server.client();
    // One dense request per sigma builds (warms) each of the four plans.
    let first_dense = gen::SERVICE_SIGMAS
        .iter()
        .enumerate()
        .map(|(i, sigma)| {
            let mut req = pool
                .iter()
                .find(|r| r.sigma == *sigma && matches!(r.input, RequestInput::Dense(_)))
                .expect("every sigma has dense entries in the pool")
                .clone();
            req.request_id = u64::MAX - i as u64;
            let reply = client
                .call_bytes(encode_request(&req))
                .expect("the server is running");
            let answer = expect_response(&reply).expect("a warm-up request is served");
            (req, answer)
        })
        .collect();
    Live {
        server,
        pool,
        first_dense,
    }
}

/// One request through the wire, checked; returns `(request bytes,
/// response bytes)` or why it failed.
fn call_checked(
    client: &ServiceClient,
    req: &ConvolveRequest,
    want_sum: u64,
) -> Result<(usize, usize), String> {
    let bytes = encode_request(req);
    let sent = bytes.len();
    let reply = client.call_bytes(bytes).map_err(|e| e.to_string())?;
    let resp = expect_response(&reply)?;
    if resp.mode != ServedMode::Normal {
        return Err("served degraded".into());
    }
    if resp.checksum != want_sum {
        return Err(format!(
            "checksum {:#x} != serve_solo's {want_sum:#x}",
            resp.checksum
        ));
    }
    if !req.checksum_only && fnv1a_f64(&resp.result) != resp.checksum {
        return Err("returned field does not match its checksum".into());
    }
    Ok((sent, reply.len()))
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
    wire_bytes: u64,
}

pub fn run(name: &str, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();

    // Set-up, several times over: spawn the server and build its four
    // plans with cold requests. A server left over from the previous
    // repetition is shut down before the next timer starts.
    // One pool thread computes, so the clock scales.
    let mut clock = HostClock::new(true);
    let (setups, live) = crate::repeat_set_up(opts, &mut clock, || set_up(opts.seed));
    let Live {
        server,
        pool,
        first_dense,
    } = live;

    // Oracles (not part of set-up time): `serve_solo` on a registry of the
    // benchmark's own gives the checksum every response must carry; the
    // dense FFT convolution gives the accuracy of the four cold dense
    // answers, in `SERVICE_SIGMAS` order.
    let registry = PlanRegistry::new();
    let want: Vec<u64> = pool
        .iter()
        .map(|req| {
            let entry = registry.entry_for(req).expect("pool requests are valid");
            serve_solo(&entry, req, ServedMode::Normal).checksum
        })
        .collect();
    let rel_l2: Vec<f64> = first_dense
        .iter()
        .map(|(req, answer)| {
            let n = req.n as usize;
            let oracle = TraditionalConvolver::new(n)
                .convolve(&input_grid(req), &GaussianKernel::new(n, req.sigma));
            relative_l2(oracle.as_slice(), &answer.result)
        })
        .collect();
    let worst_rel_l2 = rel_l2.iter().cloned().fold(0.0, f64::max);
    let rel_l2_holds = rel_l2
        .iter()
        .zip(REL_L2_PINNED)
        .all(|(got, pinned)| *got <= pinned * REL_L2_SLACK);

    let tally = Mutex::new(Tally::default());
    // Made before phase A, so that the spans a traced run places on it
    // afterwards fall after its origin.
    let tracer = Tracer::new();
    let run_one = |client: &ServiceClient, seq: u64, count_bytes: bool| {
        let req = gen::stamp(&pool, seq);
        let result = call_checked(client, &req, want[seq as usize % pool.len()]);
        let mut t = tally.lock().expect("tally lock");
        t.attempted += 1;
        match result {
            Ok((sent, got)) if count_bytes => t.wire_bytes += (sent + got) as u64,
            Ok(_) => {}
            Err(why) => t.failures.push(format!("request {seq}: {why}")),
        }
    };

    // ---- Phase A: open loop at RATE_RPS, one pool cycle at a stretch, so
    // the mix (and the wire bytes per request) is the same for every seed.
    // Between stretches nothing is in flight and the host clock takes its
    // sample; a request's latency is scaled by the two samples around its
    // stretch.
    let seconds_a = opts.measure_seconds() * PHASE_A_SHARE;
    let cycles = ((RATE_RPS * seconds_a) as usize / pool.len()).max(1);
    let planned = cycles * pool.len();
    let mut tries = 0;
    // The memory high-water is phase A's: one request in flight at a time,
    // so it does not depend on which requests happen to overlap in phase B
    // (that made it differ by 9 % between seeds).
    let mut best: Option<(Vec<Stretch>, f64, usize)> = None;
    while tries < PHASE_A_TRIES && best.as_ref().is_none_or(|b| b.1 > LAG_LIMIT_MS) {
        ALLOC.reset_peak();
        clock.mark();
        let stretches: Vec<Stretch> = (0..cycles)
            .map(|c| {
                let base = ((tries * cycles + c) * pool.len()) as u64;
                let (start, samples) = open_stretch(&server, base, pool.len(), &run_one);
                Stretch {
                    start,
                    samples,
                    scale: clock.mark(),
                }
            })
            .collect();
        let peak = ALLOC.peak_bytes();
        tries += 1;
        let all: Vec<Sample> = stretches.iter().flat_map(|s| s.samples.clone()).collect();
        let lag = lag_p99_ms(&all);
        if lag > LAG_LIMIT_MS {
            out.note(format!(
                "phase A, try {tries} of at most {PHASE_A_TRIES}: generator lag p99 {lag:.3} ms \
                 is over {LAG_LIMIT_MS} ms; the try with the least lag is reported"
            ));
        }
        if best.as_ref().is_none_or(|b| lag < b.1) {
            best = Some((stretches, lag, peak));
        }
    }
    let (stretches, lag_p99, peak) = best.expect("phase A ran at least once");
    let wall_a: f64 = stretches
        .iter()
        .map(|s| s.samples.iter().map(|x| x.done).max().unwrap_or_default())
        .sum::<Duration>()
        .as_secs_f64();

    // ---- Phase B: closed loop, each client sends as soon as it hears back,
    // in stretches of STRETCH_B with a host-clock sample after each.
    let next = AtomicU64::new((tries * planned) as u64);
    let start_b = Instant::now();
    let seconds_b = Duration::from_secs_f64(opts.measure_seconds() * (1.0 - PHASE_A_SHARE));
    let (mut completed_b, mut wall_b, mut rates_b) = (0u64, 0.0, Vec::new());
    clock.mark();
    while rates_b.is_empty() || start_b.elapsed() < seconds_b {
        let start = Instant::now();
        let deadline = start + STRETCH_B;
        let done: Vec<(u64, Instant)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let client = server.client();
                    let (run_one, next) = (&run_one, &next);
                    s.spawn(move || {
                        let mut done = 0;
                        let mut last = Instant::now();
                        while Instant::now() < deadline {
                            run_one(&client, next.fetch_add(1, Ordering::Relaxed), false);
                            done += 1;
                            last = Instant::now();
                        }
                        (done, last)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let completed: u64 = done.iter().map(|d| d.0).sum();
        let wall = done
            .iter()
            .map(|d| d.1.duration_since(start).as_secs_f64())
            .fold(0.0, f64::max);
        completed_b += completed;
        wall_b += wall;
        rates_b.push(completed as f64 / (wall * clock.mark()));
    }

    let mut layer = Outcome::default();
    if opts.trace {
        service_layers(&mut layer, &server.client(), &pool, &registry);
    }
    let report = server.shutdown();

    let tally = tally.into_inner().expect("tally lock");
    out.attempted = tally.attempted;
    for why in &tally.failures {
        out.fail(why.clone());
    }
    let adm = report.admission;
    if adm.admitted + adm.shed + adm.rejected() != adm.offered {
        out.fail_all(format!(
            "admitted {} + shed {} + rejected {} != offered {}",
            adm.admitted,
            adm.shed,
            adm.rejected(),
            adm.offered
        ));
    }
    if !rel_l2_holds {
        out.fail_all(format!(
            "rel_l2_err per sigma {rel_l2:.5?} is more than {REL_L2_SLACK} times the pinned \
             {REL_L2_PINNED:?}"
        ));
    }
    // Every phase-A request in schedule order, with the stretch it ran in.
    let requests: Vec<(&Stretch, Sample)> = stretches
        .iter()
        .flat_map(|s| s.samples.iter().map(move |x| (s, *x)))
        .collect();
    // Phase-A latencies (ms, from due time) of the requests `keep` selects
    // by their place in the schedule: on the nominal host, or as this host's
    // clock read them.
    let lat_of = |keep: &dyn Fn(usize) -> bool, nominal: bool| -> Vec<f64> {
        requests
            .iter()
            .enumerate()
            .filter(|(q, _)| keep(*q))
            .map(|(_, (s, x))| ms(x.latency()) * if nominal { s.scale } else { 1.0 })
            .collect()
    };
    let is_dense = |q: usize| !pool[q % pool.len()].checksum_only;
    // Requests after a stretch's first over the time they were sent in.
    let sending: f64 = stretches
        .iter()
        .map(|s| {
            let last = s.samples.iter().map(|x| x.sent).max().unwrap_or_default();
            (last - s.samples[0].due).as_secs_f64()
        })
        .sum();
    let rate_achieved = (planned - cycles) as f64 / sending.max(1e-9);

    if !opts.trace {
        // Half the requests take a few ms and half take tens, so a median
        // over all of them sits in the gap between the two kinds and flips
        // with noise; the median and the tail are over the dense half.
        let dense = lat_of(&is_dense, true);
        let t = tail(&dense);
        out.set("setup_s", median(&setups));
        out.set("op_p50_ms", median(&dense));
        out.set("throughput_ops_s", median(&rates_b));
        out.set(
            "exchange_bytes_per_op",
            tally.wire_bytes as f64 / (tries * planned) as f64,
        );
        out.set("peak_alloc_mb", peak as f64 / 1e6);
        out.note(clock.describe());
        out.note(format!(
            "phase A ({tries} tries): open loop, {planned} requests at {RATE_RPS} req/s over \
             {CLIENTS} connections in {cycles} stretches, {wall_a:.2} s; latency is from due time \
             over the {} dense requests, tail {:.4} ms is p{:.1} of them ({} beyond), wall p50 {:.3} ms; \
             generator lag p99 {lag_p99:.3} ms (limit {LAG_LIMIT_MS}), achieved \
             {rate_achieved:.2} req/s",
            dense.len(),
            t.value,
            t.percentile * 100.0,
            t.beyond,
            median(&lat_of(&is_dense, false))
        ));
        out.note(format!(
            "phase B: closed loop, {CLIENTS} clients, {completed_b} requests in {wall_b:.2} s \
             ({:.2} req/s of wall time); throughput_ops_s is the median rate of {} stretches; \
             exchange_bytes_per_op is request + response wire bytes; rel_l2_err per sigma \
             {rel_l2:.5?} (each held to {REL_L2_SLACK} times {REL_L2_PINNED:?})",
            completed_b as f64 / wall_b,
            rates_b.len()
        ));
        out.note(format!(
            "set-up ran {} times: {:.4?} s; server report: offered {} admitted {} shed {} rejected {} \
             plan builds {} max queue {}",
            setups.len(),
            setups,
            adm.offered,
            adm.admitted,
            adm.shed,
            adm.rejected(),
            report.plan_builds,
            adm.max_total_queued
        ));
        return out;
    }

    // ---- traced run: the per-layer table, in this host's wall time. ----
    // Every phase-A request gets its spans, built here from the three times
    // the open loop takes anyway: no request pays for tracing while it is
    // timed, and what tracing costs is the time this loop takes.
    let recording = Instant::now();
    for (q, (stretch, sample)) in requests.iter().enumerate() {
        let (op, rank, at) = (q as u64, (q % CLIENTS) as u32, |d: Duration| {
            stretch.start + d
        });
        let (due, sent, done) = (at(sample.due), at(sample.sent), at(sample.done));
        let root = tracer.record(op, "op", None, rank, due, done);
        tracer.record(op, "loadgen.lag", Some(root), rank, due, sent);
        tracer.record(op, "service.roundtrip", Some(root), rank, sent, done);
    }
    let overhead = recording.elapsed().as_secs_f64()
        / requests
            .iter()
            .map(|(_, x)| x.latency().as_secs_f64())
            .sum::<f64>();
    out.note(format!(
        "obs.trace_overhead_frac is the time taken to record the spans of all {planned} phase-A \
         requests over the sum of their latencies: measured, so without a standard error"
    ));
    out.metrics = layer.metrics;
    out.notes.extend(layer.notes);
    service_report(&mut out, &report);
    out.set("loadgen.lag_p99_ms", lag_p99);
    out.set("loadgen.rate_achieved_rps", rate_achieved);
    out.set("loadgen.sent", planned as f64);
    out.set("rel_l2_err", worst_rel_l2);
    out.set("obs.host_speed_x", clock.host_speed());
    out.set(
        "service.latency_dense_p50_ms",
        median(&lat_of(&is_dense, false)),
    );
    out.set(
        "service.latency_delta_p50_ms",
        median(&lat_of(&|q| !is_dense(q), false)),
    );
    let dense_req = &first_dense[0].0;
    let entry = registry
        .entry_for(dense_req)
        .expect("pool requests are valid");
    let grid = input_grid(dense_req);
    core_split(&mut out, &entry, &grid);
    micro::layers(
        &mut out,
        &micro::Shapes {
            conv: entry.convolver(),
            kernel: entry.kernel(),
            input: &grid,
            domain: decompose_uniform(entry.n(), gen::SERVICE_K as usize)[0],
        },
    );
    // No request is traced while it is timed, so the dense requests are
    // the untraced and the traced ops alike.
    let dense = lat_of(&is_dense, false);
    crate::finish_trace(
        &mut out,
        name,
        &tracer.spans(),
        &dense,
        &dense,
        (overhead, 0.0),
    );
    out
}

fn service_report(out: &mut Outcome, report: &ServiceReport) {
    let adm = report.admission;
    out.set("service.offered", adm.offered as f64);
    out.set("service.admitted", adm.admitted as f64);
    out.set("service.shed", adm.shed as f64);
    out.set("service.rejected", adm.rejected() as f64);
    out.set("service.plan_hits", report.plan_hits as f64);
    out.set("service.plan_builds", report.plan_builds as f64);
    out.set("service.plan_evictions", report.plan_evictions as f64);
    out.set("service.max_queue_depth", adm.max_total_queued as f64);
}

/// The two calls `convolve` makes, timed apart on a dense request's input.
fn core_split(out: &mut Outcome, entry: &lcc_service::PlanEntry, grid: &lcc_grid::Grid3<f64>) {
    let session = entry.convolver().session(lcc_core::ConvolveMode::Normal);
    let mut fields = session.compress_domains(grid, entry.kernel());
    let window = Duration::from_millis(100);
    let compress = micro::time_median(5, window, || {
        fields = session.compress_domains(grid, entry.kernel());
    });
    let accumulate = micro::time_median(5, window, || {
        std::hint::black_box(session.accumulate_fields(&fields.0));
    });
    out.set("core.compress_all_s", compress);
    out.set("core.accumulate_s", accumulate);
    out.set("core.compress_frac", compress / (compress + accumulate));
    out.set("core.accumulate_frac", accumulate / (compress + accumulate));
    out.set("core.domains_processed", fields.1.domains_processed as f64);
    out.set("core.domains_skipped", fields.1.domains_skipped as f64);
    out.set("core.samples_per_op", fields.1.total_samples as f64);
    let (count, bytes) = micro::alloc_traffic(|| {
        std::hint::black_box(session.convolve(grid, entry.kernel()));
    });
    out.set("core.alloc_count_per_op", count);
    out.set("core.alloc_bytes_per_op", bytes);
}

/// Codec, registry, `serve_solo` and idle round-trip timings, each averaged
/// over the pool (so dense and delta weigh as in the mix).
fn service_layers(
    out: &mut Outcome,
    client: &ServiceClient,
    pool: &[ConvolveRequest],
    registry: &PlanRegistry,
) {
    let quick = Duration::from_millis(2);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (mut enc_req, mut dec_req, mut enc_resp, mut dec_resp) = (vec![], vec![], vec![], vec![]);
    let (mut solo, mut trip): ([Vec<f64>; 2], [Vec<f64>; 2]) = Default::default();
    for (i, req) in pool.iter().enumerate() {
        let entry = registry.entry_for(req).expect("pool requests are valid");
        let mut req_bytes = encode_request(req);
        enc_req.push(micro::time_median(3, quick, || {
            req_bytes = encode_request(req)
        }));
        dec_req.push(micro::time_median(3, quick, || {
            std::hint::black_box(decode_request(&req_bytes).expect("own encoding decodes"));
        }));
        let mut resp = serve_solo(&entry, req, ServedMode::Normal);
        let kind = usize::from(req.checksum_only);
        solo[kind].push(micro::time_median(2, Duration::ZERO, || {
            resp = serve_solo(&entry, req, ServedMode::Normal);
        }));
        let mut resp_bytes = encode_response(&resp);
        enc_resp.push(micro::time_median(3, quick, || {
            resp_bytes = encode_response(&resp)
        }));
        dec_resp.push(micro::time_median(3, quick, || {
            std::hint::black_box(decode_message(&resp_bytes).expect("own encoding decodes"));
        }));
        // One idle client, nothing else in flight.
        let mut stamped = req.clone();
        stamped.request_id = (1 << 40) + i as u64;
        let bytes = encode_request(&stamped);
        let t = Instant::now();
        let reply = client.call_bytes(bytes).expect("the server is running");
        trip[kind].push(t.elapsed().as_secs_f64());
        expect_response(&reply).expect("an idle server serves");
    }
    let codec = mean(&enc_req) + mean(&dec_req) + mean(&enc_resp) + mean(&dec_resp);
    out.set("service.encode_req_s", mean(&enc_req));
    out.set("service.decode_req_s", mean(&dec_req));
    out.set("service.encode_resp_s", mean(&enc_resp));
    out.set("service.decode_resp_s", mean(&dec_resp));
    let [solo_dense, solo_delta] = solo.map(|v| median(&v));
    let [trip_dense, trip_delta] = trip.map(|v| median(&v));
    out.set("service.serve_solo_dense_s", solo_dense);
    out.set("service.serve_solo_delta_s", solo_delta);
    out.set("service.roundtrip_dense_s", trip_dense);
    out.set("service.roundtrip_delta_s", trip_delta);
    out.set(
        "service.overhead_s",
        0.5 * ((trip_dense - solo_dense) + (trip_delta - solo_delta)) - codec,
    );
    let req = &pool[0];
    out.set(
        "service.registry_lookup_s",
        micro::time_median(5, quick, || {
            std::hint::black_box(registry.entry_for(req).expect("pool requests are valid"));
        }),
    );
    out.set(
        "service.plan_build_s",
        micro::time_median(2, Duration::ZERO, || {
            let cold = PlanRegistry::new();
            std::hint::black_box(cold.entry_for(req).expect("pool requests are valid"));
        }),
    );
    out.note(
        "service.overhead_s = mean over kinds of (idle roundtrip - serve_solo) - the four codec \
         calls; service.*_s codec and serve_solo figures average the pool, i.e. the 50/50 mix"
            .into(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_due_when_a_call_overruns() {
        let gap = Duration::from_millis(10);
        let dues: Vec<Duration> = (0..4).map(|i| gap * i).collect();
        let start = Instant::now();
        // The first call takes three slots; the others are instant.
        let samples = open_loop(start, &dues, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(30));
            }
        });
        assert_eq!(samples.len(), 4);
        for (s, due) in samples.iter().zip(&dues) {
            assert_eq!(
                s.due, *due,
                "due times are the schedule's, not the send times"
            );
            assert!(s.sent >= s.due && s.done >= s.sent);
        }
        // Requests 1 and 2 were due at 10 and 20 ms but could only leave
        // after the 30 ms stall: their latency counts the wait. That wait
        // is the slow call's doing, so it is not generator lag.
        assert!(samples[1].latency() >= Duration::from_millis(19));
        assert!(samples[2].latency() >= Duration::from_millis(9));
        assert!(samples[1].free >= Duration::from_millis(30));
        assert!(samples[1].lag() < Duration::from_millis(9));
        // Request 3 (due at 30 ms) leaves on time again, give or take.
        assert!(samples[3].lag() < Duration::from_millis(9));
        // Nothing is ever sent early.
        assert!(samples[3].sent >= dues[3]);
    }
}
