//! `ledger` — the repo's benchmark. One process runs one workload once:
//!
//! ```text
//! ledger --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]] [--smoke]
//! ledger compare <dir A> <dir B>
//! ledger baseline <dir of result files> <out dir>
//! ledger spread <dir of result files>
//! ```
//!
//! It drives the stack only through public functions, checks every output,
//! prints each metric as `workload metric value unit`, ends with one JSON
//! result line, and exits non-zero on any correctness failure. See
//! `bench/README.md`.

mod alloc;
mod calib;
mod cluster;
mod compare;
mod gen;
mod json;
mod micro;
mod report;
mod service;
mod single;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use calib::HostClock;
use report::Outcome;
use single::Problem;

#[global_allocator]
pub static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::new();

/// The paper's accuracy budget: a first op further than this from the dense
/// oracle (relative L2) fails every op of the run.
pub const ACCURACY_LIMIT: f64 = 0.03;
/// Fewest set-ups per untraced run; `setup_s` is the median of all of them.
pub const SETUP_REPS: usize = 3;
/// A quick set-up is repeated further, until this much time has gone into
/// set-ups or this many have run: the median of three 50 ms set-ups moves
/// more between runs than the bound allows.
const SETUP_FILL: Duration = Duration::from_millis(2500);
const SETUP_REPS_MAX: usize = 15;
/// Plain ops an untraced run measures even if the seconds run out first, so
/// that the tail (ten samples beyond it) is the p67 or higher; below 21 ops
/// it is the median again. Only `dense64`, at over a second per op, needs
/// longer than the seconds for them.
const MIN_OPS: usize = 30;
/// Pairs of a plain and a traced op a traced run measures likewise.
const MIN_TRACED_PAIRS: usize = 15;
/// Most a traced op may cost over a plain one before the per-layer table of
/// the run is not trusted. A run fails when its overhead is over this by more
/// than twice the overhead's standard error: a reading of 0.056 +- 0.03, as
/// `dense64`'s op times give one run in ten, does not show an overhead.
const TRACE_OVERHEAD_LIMIT: f64 = 0.05;

/// Share of a traced run's seconds spent on the alternating plain / traced
/// ops; the layer timings take the rest.
const TRACED_OPS_SHARE: f64 = 0.6;

/// Options of one workload run.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Opts {
    /// Seconds of op measurement: all of `--seconds` untraced, the ops'
    /// share of it traced.
    pub fn measure_seconds(&self) -> f64 {
        if self.trace {
            self.seconds * TRACED_OPS_SHARE
        } else {
            self.seconds
        }
    }

    /// When op measurement ends, counted from now.
    pub fn measure_deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.measure_seconds())
    }

    /// Whether the workloads whose ops run one after another have measured
    /// enough of them: `plain` untraced ops and, in a traced run (which
    /// alternates the two), `traced` split ones.
    pub fn enough_ops(&self, plain: usize, traced: usize) -> bool {
        if self.trace {
            plain.min(traced) >= MIN_TRACED_PAIRS
        } else {
            plain >= MIN_OPS
        }
    }
}

/// Runs `set_up` from nothing several times (once in a traced run) and
/// returns every duration, in the clock's seconds, and the last result.
/// Each earlier result is dropped before the next timer starts.
pub fn repeat_set_up<T>(
    opts: &Opts,
    clock: &mut HostClock,
    mut set_up: impl FnMut() -> T,
) -> (Vec<f64>, T) {
    let begun = Instant::now();
    let (mut last, _, first) = clock.time(&mut set_up);
    let mut times = vec![first];
    while !opts.trace
        && (times.len() < SETUP_REPS
            || (begun.elapsed() < SETUP_FILL && times.len() < SETUP_REPS_MAX))
    {
        drop(last);
        let (next, _, t) = clock.time(&mut set_up);
        last = next;
        times.push(t);
    }
    (times, last)
}

/// Ops in one throughput sample: the rate is taken over every three
/// consecutive ops and the median of those rates reported, so that a stall
/// of the host costs one sample, not a share of the whole run.
const RATE_CHUNK: usize = 3;

/// What one op took: wall milliseconds, and the milliseconds reported for it
/// (on the nominal host where the workload's clock scales).
#[derive(Clone, Copy, Debug)]
pub struct OpTime {
    pub wall_ms: f64,
    pub ms: f64,
}

/// The time metrics of a workload whose ops run one after another
/// (`dense64`, `sparse128`, `cluster128x2`), from its set-up and untraced
/// op times, as the workload's clock reported them; the wall times and the
/// host's speed go to a context line.
pub fn report_op_times(out: &mut Outcome, setups: &[f64], ops: &[OpTime], clock: &str) {
    let ms: Vec<f64> = ops.iter().map(|o| o.ms).collect();
    let wall: Vec<f64> = ops.iter().map(|o| o.wall_ms).collect();
    let rates: Vec<f64> = ms
        .chunks_exact(RATE_CHUNK)
        .map(|c| RATE_CHUNK as f64 / (c.iter().sum::<f64>() * 1e-3))
        .collect();
    let t = stats::tail(&ms);
    out.set("setup_s", stats::median(setups));
    out.set("op_p50_ms", stats::median(&ms));
    out.set("throughput_ops_s", stats::median(&rates));
    out.note(format!(
        "{clock}; the tail is {:.4} ms, p{:.1} of {} ops ({} beyond); throughput_ops_s is the \
         median rate of {} runs of {RATE_CHUNK} ops; op ms: {}; op wall ms: {}; set-up ran {} \
         times: {setups:.4?} s",
        t.value,
        t.percentile * 100.0,
        ms.len(),
        t.beyond,
        rates.len(),
        stats::summary(&ms),
        stats::summary(&wall),
        setups.len()
    ));
}

/// Closes a traced run: the tracing-overhead and coverage rows, their two
/// checks, and the span file. `overhead` is the figure and its standard
/// error.
pub fn finish_trace(
    out: &mut Outcome,
    workload: &str,
    spans: &[trace::Span],
    plain_ms: &[f64],
    traced_ms: &[f64],
    overhead: (f64, f64),
) {
    let (overhead, se) = overhead;
    let t = stats::tail(plain_ms);
    out.set("op_tail_ms", t.value);
    out.note(format!(
        "op_tail_ms is p{:.1} of the {} untraced ops ({} beyond), in wall time",
        t.percentile * 100.0,
        plain_ms.len(),
        t.beyond
    ));
    let coverage = trace::coverage(spans);
    out.set("obs.trace_overhead_frac", overhead);
    out.set("obs.trace_overhead_se", se);
    out.set("obs.span_coverage_frac", coverage);
    out.set("obs.traced_ops", traced_ms.len() as f64);
    out.set("obs.traced_op_p50_ms", stats::median(traced_ms));
    if overhead - 2.0 * se > TRACE_OVERHEAD_LIMIT {
        out.fail_all(format!(
            "a traced op costs {overhead:.3} +- {se:.3} more than a plain one (limit \
             {TRACE_OVERHEAD_LIMIT})"
        ));
    }
    if coverage < 0.9 {
        out.fail_all(format!(
            "spans cover only {coverage:.3} of the traced ops' wall time"
        ));
    }
    let path = out_dir().join(format!("{workload}.trace.jsonl"));
    match trace::write_jsonl(&path, spans) {
        Ok(()) => out.note(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.fail_all(format!("cannot write {}: {e}", path.display())),
    }
}

/// `bench/out` under the checkout root, or `out` when run from `bench/`.
fn out_dir() -> PathBuf {
    if Path::new("bench").is_dir() {
        PathBuf::from("bench/out")
    } else {
        PathBuf::from("out")
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ledger --workload <{}> --seed <n> [--seconds <s>] [--trace [0|1]] [--smoke]\n\
         \x20      ledger compare <dir A> <dir B>\n\
         \x20      ledger baseline <dir of result files> <out dir>\n\
         \x20      ledger spread <dir of result files>",
        report::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..]),
        Some("baseline") => return compare::baseline_main(&args[1..]),
        Some("spread") => return compare::spread_main(&args[1..]),
        _ => {}
    }

    let (mut workload, mut seed, mut seconds) = (None, 1u64, None);
    let (mut trace, mut smoke) = (false, false);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = it.next().cloned(),
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--seconds" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => seconds = Some(v),
                _ => return usage(),
            },
            // `--trace` alone switches tracing on; the driver writes
            // `--trace 0` or `--trace 1`.
            "--trace" => {
                trace = match it.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => smoke = true,
            _ => return usage(),
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    let opts = Opts {
        seed,
        seconds: seconds.unwrap_or(if smoke { 5.0 } else { 20.0 }),
        trace,
    };

    let problem = match workload.as_str() {
        "dense64" => Some(Problem::dense64(smoke)),
        "sparse128" | "cluster128x2" => Some(Problem::sparse128(smoke)),
        "service16" => None,
        _ => return usage(),
    };
    // The pool reads LCC_THREADS once, on first use; nothing has used it
    // yet and no other thread exists, so setting the variable here is safe.
    let threads = problem.map_or(service::POOL_THREADS, |p| p.threads);
    std::env::set_var("LCC_THREADS", threads.to_string());

    let mut out = match (workload.as_str(), &problem) {
        ("cluster128x2", Some(p)) => cluster::run(&workload, p, &opts),
        (_, Some(p)) => single::run(&workload, p, &opts),
        (_, None) => service::run(&workload, &opts),
    };
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    if trace {
        out.set("failed_frac", failed_frac);
    } else {
        out.set("ok_frac", 1.0 - failed_frac);
    }
    out.note(format!(
        "host: {} cpus available, LCC_THREADS={threads}, fft kernels {}, seed {seed}, {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        lcc_fft::variant_name(),
        if smoke { "smoke sizes" } else { "full sizes" }
    ));
    report::print(&workload, trace, &out);
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_the_median_rate_of_three_ops_at_a_time() {
        // Nine ops of 100 ms, one of which met a 300 ms stall: the mean rate
        // is 7.5 ops/s, two of the three samples are 10.
        let ops: Vec<OpTime> = [
            100.0, 100.0, 100.0, 100.0, 400.0, 100.0, 100.0, 100.0, 100.0,
        ]
        .iter()
        .map(|&ms| OpTime { wall_ms: ms, ms })
        .collect();
        let mut out = Outcome::default();
        report_op_times(&mut out, &[0.5, 0.7, 0.6], &ops, "test clock");
        assert!((out.get("throughput_ops_s").unwrap() - 10.0).abs() < 1e-9);
        assert_eq!(out.get("op_p50_ms"), Some(100.0));
        assert_eq!(out.get("setup_s"), Some(0.6));
        assert_eq!(out.get("op_tail_ms"), None);
    }
}
