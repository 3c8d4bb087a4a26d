//! Pipeline parallelism, allocation & FLOP-rate sweep.
//!
//! Two sweeps, one report (`BENCH_pipeline.json`):
//!
//! * **pipeline** — `LocalConvolver::convolve_compressed` wall-clock at
//!   1/2/4 threads × (n, k, B) × kernel variant, the speedup vs 1 thread,
//!   and the steady-state allocator traffic of a warm call;
//! * **fftrate** — raw single-core batched-FFT throughput for a contiguous
//!   and a cache-blocked strided pencil layout, per kernel variant.
//!
//! Because both the pool size and the SIMD variant are fixed per process
//! (the global pool spins up on first use; the variant is a `OnceLock`
//! honoring `LCC_SIMD`), each cell runs in a **child process** re-exec'd
//! with `LCC_THREADS`/`LCC_SIMD` set; the parent collects one `RESULT`
//! line per child. Cells are measured once with `LCC_SIMD=off` (forced
//! scalar) and once with auto detection; when auto also resolves to
//! scalar (non-SIMD host), the duplicate rows are dropped.
//!
//! Every row carries `gflops_1core` (model FLOPs over 1-thread wall time;
//! `lcc_device::fft_flops` for fftrate, `LocalConvolver::flops_estimate`
//! for the pipeline) and `roofline_frac` — achieved GFLOP/s over the
//! bandwidth ceiling `stream_gbs × arithmetic intensity`, with bandwidth
//! measured by [`lcc_bench::roofline::stream_bandwidth_gbs`]. These are
//! numbers even on single-core hosts, where `speedup_vs_1` stays `null`.
//!
//! Assertions:
//! * the output checksum is identical across thread counts *within a
//!   variant* (bit-identical parallel execution; variants differ by ≤2 ulp,
//!   so cross-variant checksums legitimately differ);
//! * steady-state allocation count is a small constant — *not* O(pencils);
//! * `ConvolveSession::accumulate_fields` of the cell's contributions has
//!   the same checksum across thread counts and allocates only its output;
//! * on hosts with ≥ 4 cores (full mode), ≥ 2× speedup at 4 threads for
//!   the (n=128, k=32) configuration;
//! * on AVX2+FMA hosts (full mode), the vector variant sustains ≥ 1.5×
//!   the scalar GFLOP/s on contiguous fftrate cells with ≥ 256 pencils.
//!
//! Run with `--smoke` for the CI-fast sweep.

use std::sync::Arc;
use std::time::Instant;

use lcc_bench::alloc_track::CountingAlloc;
use lcc_bench::json::{gflops, roofline_fraction, speedup_vs_baseline, write_report, Json};
use lcc_bench::roofline::stream_bandwidth_gbs;
use lcc_core::{ConvolveMode, LowCommConfig, LowCommConvolver};
use lcc_fft::complex::c64;
use lcc_fft::{fft_axis, Complex64, FftDirection, FftPlanner};
use lcc_greens::GaussianKernel;
use lcc_grid::{BoxRegion, Grid3};
use lcc_octree::{RateSchedule, SamplingPlan};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const CHILD_ENV: &str = "LCC_PIPELINE_PERF_CHILD";

#[derive(Clone, Copy)]
struct Config {
    n: usize,
    k: usize,
    batch: usize,
    reps: usize,
}

fn configs(smoke: bool) -> Vec<Config> {
    if smoke {
        vec![Config {
            n: 32,
            k: 8,
            batch: 64,
            reps: 1,
        }]
    } else {
        vec![
            Config {
                n: 64,
                k: 16,
                batch: 64,
                reps: 3,
            },
            Config {
                n: 128,
                k: 32,
                batch: 128,
                reps: 3,
            },
        ]
    }
}

/// (len, pencils, reps) cells for the raw FFT-throughput sweep.
fn fftrate_configs(smoke: bool) -> Vec<(usize, usize, usize)> {
    if smoke {
        vec![(64, 64, 1)]
    } else {
        vec![(256, 512, 3), (1024, 256, 3)]
    }
}

fn thread_counts(smoke: bool) -> Vec<usize> {
    if smoke {
        vec![1, 2]
    } else {
        vec![1, 2, 4]
    }
}

/// FNV-1a over the sample bit patterns: equal iff the runs are
/// bit-identical.
fn checksum(samples: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in samples {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn env_usize(key: &str) -> usize {
    std::env::var(key)
        .unwrap_or_default()
        .parse()
        .unwrap_or_else(|_| panic!("missing/invalid {key}"))
}

/// One pipeline measurement cell, run in a dedicated process so
/// `LCC_THREADS` and `LCC_SIMD` can differ between cells.
fn child_main() {
    let (n, k) = (env_usize("LCC_PPERF_N"), env_usize("LCC_PPERF_K"));
    let batch = env_usize("LCC_PPERF_B");
    let reps = env_usize("LCC_PPERF_REPS").max(1);

    let lowcomm = LowCommConvolver::new(LowCommConfig {
        n,
        k,
        batch,
        schedule: RateSchedule::uniform(1),
    });
    let conv = lowcomm.local();
    let kernel = GaussianKernel::new(n, 1.2);
    let corner = [n / 4, n / 8, 0];
    let domain = BoxRegion::new(corner, [corner[0] + k, corner[1] + k, corner[2] + k]);
    let plan = Arc::new(SamplingPlan::build(n, domain, &RateSchedule::uniform(1)));
    let sub = Grid3::from_fn((k, k, k), |x, y, z| {
        1.0 + (x as f64 * 0.8).sin() + 0.5 * y as f64 - 0.1 * (z * z) as f64
    });
    let flops = conv.flops_estimate(&plan);
    let bytes = conv.bytes_estimate(&plan);

    // Warm-up: builds plans, phase tables, and grows the workspace arenas.
    let field = conv.convolve_compressed(&sub, corner, &kernel, plan.clone());
    let sum = checksum(field.samples());
    drop(field);

    // Steady-state allocator traffic of one warm call.
    ALLOC.reset();
    let field = conv.convolve_compressed(&sub, corner, &kernel, plan.clone());
    let stats = ALLOC.snapshot();
    assert_eq!(
        checksum(field.samples()),
        sum,
        "warm run changed the result"
    );
    drop(field);

    // Wall-clock: best of `reps`.
    let mut best_ns = u128::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        let field = conv.convolve_compressed(&sub, corner, &kernel, plan.clone());
        best_ns = best_ns.min(t0.elapsed().as_nanos());
        assert_eq!(
            checksum(field.samples()),
            sum,
            "timed run changed the result"
        );
    }

    // The accumulate fold of three such contributions: warm once (the
    // kernel's per-thread scratch grows), then count one steady call.
    let field = conv.convolve_compressed(&sub, corner, &kernel, plan);
    let fields = [field.clone(), field.clone(), field];
    let session = lowcomm.session(ConvolveMode::Normal);
    let fold_sum = checksum(session.accumulate_fields(&fields).as_slice());
    ALLOC.reset();
    let folded = session.accumulate_fields(&fields);
    let fold_stats = ALLOC.snapshot();
    assert_eq!(
        checksum(folded.as_slice()),
        fold_sum,
        "warm fold changed the result"
    );

    println!(
        "RESULT threads={} n={n} k={k} batch={batch} wall_ns={best_ns} \
         alloc_bytes={} alloc_count={} pencils={} variant={} flops={flops} \
         bytes={bytes} checksum={sum:016x} fold_alloc_count={} \
         fold_checksum={fold_sum:016x}",
        rayon::current_num_threads(),
        stats.bytes,
        stats.count,
        n * n,
        lcc_fft::variant_name(),
        fold_stats.count,
    );
}

/// One raw FFT-throughput cell: `pencils` batched transforms of `len`,
/// single-threaded, in either a contiguous or a strided (cache-blocked
/// tiled dispatch) layout.
fn fftrate_child_main() {
    let len = env_usize("LCC_PPERF_LEN");
    let pencils = env_usize("LCC_PPERF_PENCILS");
    let reps = env_usize("LCC_PPERF_REPS").max(1);
    let layout = std::env::var("LCC_PPERF_LAYOUT").unwrap_or_default();
    // Axis 2 pencils are unit-stride; axis 1 pencils are strided by
    // `pencils` and dispatch through the cache-blocked tile path.
    let (dims, axis) = match layout.as_str() {
        "contig" => ((1, pencils, len), 2),
        "strided" => ((1, len, pencils), 1),
        other => panic!("bad LCC_PPERF_LAYOUT {other:?}"),
    };
    let planner = FftPlanner::new();
    let mut buf: Vec<Complex64> = (0..len * pencils)
        .map(|i| {
            let x = i as f64;
            c64((x * 0.613).sin(), (x * 0.287).cos())
        })
        .collect();

    // Warm-up: builds the plan and grows the workspace arenas.
    fft_axis(&planner, &mut buf, dims, axis, FftDirection::Forward);

    let mut best_ns = u128::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        fft_axis(&planner, &mut buf, dims, axis, FftDirection::Forward);
        best_ns = best_ns.min(t0.elapsed().as_nanos());
    }
    // SAFETY: Complex64 is repr(C) { re: f64, im: f64 }; viewing the
    // buffer as 2× as many f64s reads the same initialized bytes.
    let sum =
        checksum(unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<f64>(), buf.len() * 2) });
    let flops = lcc_device::fft_flops(len, pencils);
    // Streaming model: one Complex64 read + write per element per pass —
    // the same 32 B/elem convention as `LocalConvolver::bytes_estimate`.
    let bytes = 32.0 * (len * pencils) as f64;
    println!(
        "RESULT threads={} len={len} pencils={pencils} layout={layout} \
         wall_ns={best_ns} alloc_bytes=0 alloc_count=0 variant={} \
         flops={flops} bytes={bytes} checksum={sum:016x}",
        rayon::current_num_threads(),
        lcc_fft::variant_name(),
    );
}

#[derive(Clone)]
struct Cell {
    threads: usize,
    wall_ns: u128,
    alloc_bytes: u64,
    alloc_count: u64,
    variant: String,
    flops: f64,
    bytes: f64,
    checksum: String,
    /// Steady-state allocations and result checksum of the accumulate fold
    /// (pipeline cells only).
    fold_alloc_count: u64,
    fold_checksum: String,
}

fn parse_result(stdout: &str) -> Cell {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("RESULT "))
        .unwrap_or_else(|| panic!("child produced no RESULT line:\n{stdout}"));
    let mut cell = Cell {
        threads: 0,
        wall_ns: 0,
        alloc_bytes: 0,
        alloc_count: 0,
        variant: String::new(),
        flops: 0.0,
        bytes: 0.0,
        checksum: String::new(),
        fold_alloc_count: 0,
        fold_checksum: String::new(),
    };
    for tok in line.split_whitespace().skip(1) {
        let (key, val) = tok.split_once('=').expect("key=value token");
        match key {
            "threads" => cell.threads = val.parse().expect("threads"),
            "wall_ns" => cell.wall_ns = val.parse().expect("wall_ns"),
            "alloc_bytes" => cell.alloc_bytes = val.parse().expect("alloc_bytes"),
            "alloc_count" => cell.alloc_count = val.parse().expect("alloc_count"),
            "variant" => cell.variant = val.to_string(),
            "flops" => cell.flops = val.parse().expect("flops"),
            "bytes" => cell.bytes = val.parse().expect("bytes"),
            "checksum" => cell.checksum = val.to_string(),
            "fold_alloc_count" => cell.fold_alloc_count = val.parse().expect("fold_alloc_count"),
            "fold_checksum" => cell.fold_checksum = val.to_string(),
            _ => {}
        }
    }
    cell
}

/// Spawns a measurement child. `scalar` forces `LCC_SIMD=off`; otherwise
/// the child auto-detects, independent of this process's environment.
fn spawn_child(envs: &[(&str, String)], scalar: bool) -> Cell {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = std::process::Command::new(exe);
    cmd.env(CHILD_ENV, "1");
    if scalar {
        cmd.env("LCC_SIMD", "off");
    } else {
        cmd.env_remove("LCC_SIMD");
    }
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn child");
    assert!(
        out.status.success(),
        "child {envs:?} (scalar={scalar}) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse_result(&String::from_utf8_lossy(&out.stdout))
}

fn run_cell(threads: usize, cfg: Config, scalar: bool) -> Cell {
    spawn_child(
        &[
            ("LCC_THREADS", threads.to_string()),
            ("LCC_PPERF_N", cfg.n.to_string()),
            ("LCC_PPERF_K", cfg.k.to_string()),
            ("LCC_PPERF_B", cfg.batch.to_string()),
            ("LCC_PPERF_REPS", cfg.reps.to_string()),
        ],
        scalar,
    )
}

fn run_fftrate_cell(len: usize, pencils: usize, reps: usize, layout: &str, scalar: bool) -> Cell {
    spawn_child(
        &[
            // The GFLOP/s cell is defined single-core (`gflops_1core`).
            ("LCC_THREADS", "1".to_string()),
            ("LCC_PPERF_MODE", "fftrate".to_string()),
            ("LCC_PPERF_LEN", len.to_string()),
            ("LCC_PPERF_PENCILS", pencils.to_string()),
            ("LCC_PPERF_REPS", reps.to_string()),
            ("LCC_PPERF_LAYOUT", layout.to_string()),
        ],
        scalar,
    )
}

fn main() {
    if std::env::var(CHILD_ENV).is_ok() {
        if std::env::var("LCC_PPERF_MODE").as_deref() == Ok("fftrate") {
            fftrate_child_main();
        } else {
            child_main();
        }
        return;
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stream_gbs = stream_bandwidth_gbs();
    println!(
        "pipeline perf sweep ({}, host parallelism {host_threads}, \
         stream bandwidth {stream_gbs:.2} GB/s)",
        if smoke { "smoke" } else { "full" }
    );

    let mut rows = Vec::new();

    // ---- pipeline sweep: threads × config × variant -------------------
    println!(
        "{:>5} {:>4} {:>6} {:>8} {:>8} {:>12} {:>10} {:>9} {:>9} {:>12}  checksum",
        "n",
        "k",
        "batch",
        "variant",
        "threads",
        "wall ms",
        "speedup",
        "gflops",
        "roofline",
        "allocs"
    );
    for cfg in configs(smoke) {
        let mut scalar_variant = String::new();
        for scalar in [true, false] {
            let mut base_ns = 0u128;
            let mut cells: Vec<Cell> = Vec::new();
            for &t in &thread_counts(smoke) {
                let cell = run_cell(t, cfg, scalar);
                if t == 1 {
                    base_ns = cell.wall_ns;
                }
                cells.push(cell);
            }
            let variant = cells[0].variant.clone();
            if scalar {
                scalar_variant = variant.clone();
            } else if variant == scalar_variant {
                // Auto detection resolved to the scalar kernels (no SIMD
                // on this host): the sweep would duplicate the
                // forced-scalar rows verbatim, so emit only one set.
                continue;
            }

            // Bit-identity across thread counts within one variant.
            for c in &cells {
                assert_eq!(
                    c.checksum, cells[0].checksum,
                    "threads={} changed the result for n={} variant={variant}",
                    c.threads, cfg.n
                );
            }
            // The slab-parallel fold gives every point its addends in field
            // order whatever the pool size, and allocates its output only.
            for c in &cells {
                assert_eq!(
                    c.fold_checksum, cells[0].fold_checksum,
                    "threads={} changed accumulate_fields for n={} variant={variant}",
                    c.threads, cfg.n
                );
                assert!(
                    c.fold_alloc_count <= 2,
                    "steady-state accumulate_fields allocated {} times (threads={})",
                    c.fold_alloc_count,
                    c.threads
                );
            }
            // Zero allocations per pencil: steady traffic must be a small
            // constant, not O(pencils).
            let pencils = (cfg.n * cfg.n) as u64;
            for c in &cells {
                assert!(
                    c.alloc_count < pencils / 8,
                    "steady-state alloc count {} is not ≪ pencil count {pencils} \
                     (threads={}, variant={variant})",
                    c.alloc_count,
                    c.threads
                );
            }
            // Speedup on real multicore hardware (the CI acceptance number).
            if !smoke && host_threads >= 4 && cfg.n == 128 {
                let c4 = cells
                    .iter()
                    .find(|c| c.threads == 4)
                    .expect("4-thread cell");
                let speedup = base_ns as f64 / c4.wall_ns as f64;
                assert!(
                    speedup >= 2.0,
                    "4-thread speedup {speedup:.2}× below the 2× acceptance bar \
                     (variant={variant})"
                );
            }

            // Single-core FLOP rate and roofline fraction: one number per
            // (config, variant), attached to every thread row.
            let g1 = gflops(cells[0].flops, base_ns);
            let intensity = if cells[0].bytes > 0.0 {
                cells[0].flops / cells[0].bytes
            } else {
                0.0
            };
            let rf = roofline_fraction(&g1, stream_gbs, intensity);

            for c in &cells {
                // `null` (printed n/a) on single-core hosts: a "speedup"
                // with no concurrency to measure is scheduler noise ≈ 1.0,
                // and the JSON must not present it as a measurement.
                let speedup = speedup_vs_baseline(host_threads, base_ns, c.wall_ns);
                let speedup_col = match speedup {
                    Json::Num(v) => format!("{v:>9.2}x"),
                    _ => format!("{:>10}", "n/a"),
                };
                let num_col = |j: &Json| match j {
                    Json::Num(v) => format!("{v:>9.3}"),
                    _ => format!("{:>9}", "n/a"),
                };
                println!(
                    "{:>5} {:>4} {:>6} {:>8} {:>8} {:>12.3} {} {} {} {:>12}  {}",
                    cfg.n,
                    cfg.k,
                    cfg.batch,
                    variant,
                    c.threads,
                    c.wall_ns as f64 / 1e6,
                    speedup_col,
                    num_col(&g1),
                    num_col(&rf),
                    c.alloc_count,
                    c.checksum
                );
                rows.push(Json::obj(vec![
                    ("kind", Json::str("pipeline")),
                    ("n", Json::int(cfg.n as i64)),
                    ("k", Json::int(cfg.k as i64)),
                    ("batch", Json::int(cfg.batch as i64)),
                    ("variant", Json::str(variant.clone())),
                    ("threads", Json::int(c.threads as i64)),
                    ("wall_ms", Json::Num(c.wall_ns as f64 / 1e6)),
                    ("speedup_vs_1", speedup),
                    ("gflops_1core", g1.clone()),
                    ("roofline_frac", rf.clone()),
                    ("steady_alloc_bytes", Json::int(c.alloc_bytes as i64)),
                    ("steady_alloc_count", Json::int(c.alloc_count as i64)),
                    (
                        "allocs_per_pencil",
                        Json::Num(c.alloc_count as f64 / pencils as f64),
                    ),
                    ("checksum", Json::str(c.checksum.clone())),
                    (
                        "fold_steady_alloc_count",
                        Json::int(c.fold_alloc_count as i64),
                    ),
                    ("fold_checksum", Json::str(c.fold_checksum.clone())),
                ]));
            }
        }
    }

    // ---- fftrate sweep: raw single-core batched-FFT throughput --------
    println!(
        "\n{:>6} {:>8} {:>8} {:>8} {:>12} {:>9} {:>9}",
        "len", "pencils", "layout", "variant", "wall ms", "gflops", "roofline"
    );
    // (len, pencils) → scalar contiguous GFLOP/s, for the 1.5× acceptance.
    let mut scalar_contig: Vec<((usize, usize), f64)> = Vec::new();
    for (len, pencils, reps) in fftrate_configs(smoke) {
        let mut scalar_variant = String::new();
        for scalar in [true, false] {
            for layout in ["contig", "strided"] {
                let cell = run_fftrate_cell(len, pencils, reps, layout, scalar);
                let variant = cell.variant.clone();
                if scalar {
                    scalar_variant = variant.clone();
                } else if variant == scalar_variant {
                    continue; // same dedupe rule as the pipeline sweep
                }
                let g1 = gflops(cell.flops, cell.wall_ns);
                let intensity = cell.flops / cell.bytes;
                let rf = roofline_fraction(&g1, stream_gbs, intensity);
                let gval = match g1 {
                    Json::Num(v) => v,
                    _ => 0.0,
                };
                if layout == "contig" {
                    if scalar {
                        scalar_contig.push(((len, pencils), gval));
                    } else if !smoke && pencils >= 256 && lcc_fft::Variant::Avx2Fma.available() {
                        let base = scalar_contig
                            .iter()
                            .find(|(k, _)| *k == (len, pencils))
                            .map(|(_, g)| *g)
                            .expect("scalar contig cell measured first");
                        assert!(
                            gval >= 1.5 * base,
                            "vector variant {variant} at len={len} pencils={pencils}: \
                             {gval:.3} GFLOP/s < 1.5× scalar {base:.3}"
                        );
                    }
                }
                println!(
                    "{:>6} {:>8} {:>8} {:>8} {:>12.3} {:>9.3} {:>9.3}",
                    len,
                    pencils,
                    layout,
                    variant,
                    cell.wall_ns as f64 / 1e6,
                    gval,
                    match rf {
                        Json::Num(v) => v,
                        _ => f64::NAN,
                    },
                );
                rows.push(Json::obj(vec![
                    ("kind", Json::str("fftrate")),
                    ("len", Json::int(len as i64)),
                    ("pencils", Json::int(pencils as i64)),
                    ("layout", Json::str(layout)),
                    ("variant", Json::str(variant)),
                    ("threads", Json::int(1)),
                    ("wall_ms", Json::Num(cell.wall_ns as f64 / 1e6)),
                    // Defined-null: the fftrate sweep is single-core by
                    // construction, so there is no speedup to measure.
                    ("speedup_vs_1", Json::Null),
                    ("gflops_1core", g1),
                    ("roofline_frac", rf),
                ]));
            }
        }
    }

    let report = Json::obj(vec![
        ("experiment", Json::str("pipeline_perf")),
        ("smoke", Json::Bool(smoke)),
        ("host_parallelism", Json::int(host_threads as i64)),
        ("stream_gbs", Json::Num(stream_gbs)),
        ("rows", Json::Arr(rows)),
    ]);
    write_report("BENCH_pipeline.json", &report);
}
