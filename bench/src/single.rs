//! `dense64` and `sparse128`: the whole single-node pipeline in one
//! process, one op = one warm `ConvolveSession::convolve`.

use std::time::Instant;

use lcc_core::{
    ConvolveMode, ConvolveReport, LowCommConfig, LowCommConvolver, TraditionalConvolver,
};
use lcc_greens::GaussianKernel;
use lcc_grid::{decompose_uniform, relative_l2, BoxRegion, Grid3};
use lcc_octree::RateSchedule;
use lcc_service::wire::fnv1a_f64;

use crate::calib::HostClock;
use crate::report::Outcome;
use crate::stats::{median, paired_overhead};
use crate::trace::{self, Tracer};
use crate::{gen, micro, OpTime, Opts, ACCURACY_LIMIT, ALLOC};

/// A single-node problem: grid, sub-domain, kernel width, pool threads.
#[derive(Clone, Copy, Debug)]
pub struct Problem {
    pub n: usize,
    pub k: usize,
    pub sigma: f64,
    pub far_rate: u32,
    pub batch: usize,
    pub threads: usize,
    /// Dense smooth field (every sub-domain nonzero) or four inclusions.
    pub dense: bool,
}

impl Problem {
    pub fn dense64(smoke: bool) -> Self {
        let (n, k) = if smoke { (32, 8) } else { (64, 16) };
        Problem {
            n,
            k,
            sigma: 2.0,
            far_rate: 16,
            batch: 1024,
            threads: 2,
            dense: true,
        }
    }

    pub fn sparse128(smoke: bool) -> Self {
        let (n, k) = if smoke { (32, 8) } else { (128, 32) };
        Problem {
            n,
            k,
            sigma: 2.0,
            far_rate: 16,
            batch: 1024,
            threads: 1,
            dense: false,
        }
    }

    pub fn config(&self) -> LowCommConfig {
        LowCommConfig {
            n: self.n,
            k: self.k,
            batch: self.batch.min(self.n * self.n),
            schedule: RateSchedule::for_kernel_spread(self.k, self.sigma, self.far_rate),
        }
    }

    /// The seeded input and one sub-domain it is nonzero in.
    pub fn input(&self, seed: u64) -> (Grid3<f64>, BoxRegion) {
        let domains = decompose_uniform(self.n, self.k);
        if self.dense {
            (gen::dense_field(self.n, seed), domains[0])
        } else {
            let s = gen::sparse_field(self.n, self.k, seed);
            (s.field, domains[s.active[0]])
        }
    }
}

/// Everything set-up builds, cold op included.
struct Ready {
    input: Grid3<f64>,
    domain: BoxRegion,
    kernel: GaussianKernel,
    conv: LowCommConvolver,
    first: Grid3<f64>,
    report: ConvolveReport,
}

fn set_up(p: &Problem, seed: u64) -> Ready {
    let (input, domain) = p.input(seed);
    let kernel = GaussianKernel::new(p.n, p.sigma);
    let conv = LowCommConvolver::try_new(p.config()).expect("the workload's config is valid");
    let (first, report) = conv.session(ConvolveMode::Normal).convolve(&input, &kernel);
    Ready {
        input,
        domain,
        kernel,
        conv,
        first,
        report,
    }
}

pub fn run(name: &str, p: &Problem, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();

    // Set-up, several times over: each builds the input, kernel, plans and
    // runs the cold first op from nothing. The first also pays the
    // process's own start (pool spin-up, first page faults).
    let mut clock = HostClock::new(p.threads == 1);
    let (setups, ready) = crate::repeat_set_up(opts, &mut clock, || set_up(p, opts.seed));
    let Ready {
        input,
        domain,
        kernel,
        conv,
        first,
        report,
    } = ready;

    // Oracle (not part of set-up time): the dense FFT convolution.
    let rel_l2 = {
        let t = Instant::now();
        let want = TraditionalConvolver::new(p.n).convolve(&input, &kernel);
        out.note(format!(
            "oracle TraditionalConvolver::convolve took {:.3} s",
            t.elapsed().as_secs_f64()
        ));
        relative_l2(want.as_slice(), first.as_slice())
    };
    let want_sum = fnv1a_f64(first.as_slice());
    drop(first);

    let session = conv.session(ConvolveMode::Normal);
    let tracer = Tracer::new();
    ALLOC.reset_peak();
    let mut plain = Vec::new();
    let mut traced_ms = Vec::new();
    let deadline = opts.measure_deadline();
    let mut op = 0u64;
    clock.mark();
    while Instant::now() < deadline || !opts.enough_ops(plain.len(), traced_ms.len()) {
        // A traced run alternates plain and split ops, so the two medians
        // come from the same minutes of the same process.
        let split = opts.trace && op % 2 == 1;
        let ((result, rep), wall, took) = clock.time(|| {
            if split {
                let root = tracer.open(op, "op", None, 0);
                let (fields, rep) =
                    tracer.within(op, "core.compress_all", Some(root.id), 0, || {
                        session.compress_domains(&input, &kernel)
                    });
                let result = tracer.within(op, "core.accumulate", Some(root.id), 0, || {
                    session.accumulate_fields(&fields)
                });
                tracer.close(root);
                (result, rep)
            } else {
                session.convolve(&input, &kernel)
            }
        });
        if split {
            traced_ms.push(wall * 1e3);
        } else {
            plain.push(OpTime {
                wall_ms: wall * 1e3,
                ms: took * 1e3,
            });
        }
        out.attempted += 1;
        let sum = fnv1a_f64(result.as_slice());
        if sum != want_sum {
            out.fail(format!(
                "op {op}{}: checksum {sum:#x} != first op's {want_sum:#x}",
                if split { " (split)" } else { "" }
            ));
        } else if rep.exchange_bytes != report.exchange_bytes {
            out.fail(format!(
                "op {op}: exchange_bytes {} != first op's {}",
                rep.exchange_bytes, report.exchange_bytes
            ));
        }
        op += 1;
    }
    let peak = ALLOC.peak_bytes();
    if rel_l2 > ACCURACY_LIMIT {
        out.fail_all(format!("rel_l2_err {rel_l2} above {ACCURACY_LIMIT}"));
    }

    if !opts.trace {
        crate::report_op_times(&mut out, &setups, &plain, &clock.describe());
        out.set("exchange_bytes_per_op", report.exchange_bytes as f64);
        out.set("peak_alloc_mb", peak as f64 / 1e6);
        out.note(format!(
            "{name}: n={} k={} sigma={} threads={} domains {}/{} processed/skipped, \
             rel_l2_err {rel_l2:e} (limit {ACCURACY_LIMIT})",
            p.n, p.k, p.sigma, p.threads, report.domains_processed, report.domains_skipped
        ));
        return out;
    }

    // ---- traced run: the per-layer table, in this host's wall time. ----
    let plain_ms: Vec<f64> = plain.iter().map(|o| o.wall_ms).collect();
    let spans = tracer.spans();
    out.set("rel_l2_err", rel_l2);
    out.set("obs.host_speed_x", clock.host_speed());
    let op_s = median(&traced_ms) * 1e-3;
    let compress = median(&trace::durations_s(&spans, "core.compress_all", 0));
    let accumulate = median(&trace::durations_s(&spans, "core.accumulate", 0));
    out.set("core.compress_all_s", compress);
    out.set("core.accumulate_s", accumulate);
    out.set("core.compress_frac", compress / op_s);
    out.set("core.accumulate_frac", accumulate / op_s);
    out.set("core.domains_processed", report.domains_processed as f64);
    out.set("core.domains_skipped", report.domains_skipped as f64);
    out.set("core.samples_per_op", report.total_samples as f64);
    let (count, bytes) = micro::alloc_traffic(|| {
        std::hint::black_box(session.convolve(&input, &kernel));
    });
    out.set("core.alloc_count_per_op", count);
    out.set("core.alloc_bytes_per_op", bytes);
    micro::layers(
        &mut out,
        &micro::Shapes {
            conv: &conv,
            kernel: &kernel,
            input: &input,
            domain,
        },
    );
    let overhead = paired_overhead(&plain_ms, &traced_ms);
    out.note(format!(
        "obs.trace_overhead_frac is the median of (split - plain) / plain over the adjacent \
         pairs of {} plain and {} split ops; plain op p50 {:.4} ms",
        plain_ms.len(),
        traced_ms.len(),
        median(&plain_ms)
    ));
    crate::finish_trace(&mut out, name, &spans, &plain_ms, &traced_ms, overhead);
    out
}
