//! `cluster128x2`: the paper's Fig. 1(b) deployment on two in-process
//! ranks. Each rank compresses the sub-domains whose response region starts
//! in its x-slab, routes the other rank's share of each compressed field
//! through one `CommWorld::alltoall`, and folds everything into its slab.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lcc_comm::{
    convolve_distributed, decode_f64s, encode_f64s, run_cluster, scatter_slabs, AlphaBeta,
    CommStatsSnapshot, CommWorld,
};
use lcc_core::{LowCommConvolver, TraditionalConvolver};
use lcc_fft::{Complex64, FftPlanner};
use lcc_greens::{GaussianKernel, KernelSpectrum};
use lcc_grid::{decompose_uniform, relative_l2, BoxRegion, Grid3};
use lcc_octree::{CompressedField, RegionPayload, SamplingPlan};
use lcc_service::wire::fnv1a_f64;

use crate::calib::HostClock;
use crate::report::Outcome;
use crate::single::Problem;
use crate::stats::{median, paired_overhead};
use crate::trace::{self, Span, Tracer};
use crate::{gen, micro, OpTime, Opts, ACCURACY_LIMIT, ALLOC};

const RANKS: usize = 2;
/// Set-ups per untraced run. Fixed, because both ranks must know the count
/// before the first one.
const SETUP_REPS: usize = 5;

/// What both ranks know before the first op: the active sub-domains, who
/// computes each, and each rank's slab.
struct Layout {
    n: usize,
    /// `(domain id, domain, owning rank)`, ascending by id — the fold order.
    active: Vec<(usize, BoxRegion, usize)>,
}

impl Layout {
    fn slab(&self, rank: usize) -> BoxRegion {
        let w = self.n / RANKS;
        BoxRegion::new([rank * w, 0, 0], [(rank + 1) * w, self.n, self.n])
    }
}

/// One rank's long-lived state.
struct Rank {
    conv: LowCommConvolver,
    kernel: GaussianKernel,
    /// Inputs of the sub-domains this rank computes, in `active` order.
    mine: Vec<(usize, BoxRegion, Grid3<f64>, Arc<SamplingPlan>)>,
    /// For each sub-domain the *other* rank computes: its plan and the
    /// cells of it that reach into this rank's slab (the routing table;
    /// plans are deterministic, so it is agreed on without a message).
    theirs: Vec<(usize, Arc<SamplingPlan>, Vec<u32>)>,
    slab: BoxRegion,
    peer_slab: BoxRegion,
}

impl Rank {
    fn build(p: &Problem, layout: &Layout, input: &Grid3<f64>, rank: usize) -> Self {
        let conv = LowCommConvolver::try_new(p.config()).expect("the workload's config is valid");
        let kernel = GaussianKernel::new(p.n, p.sigma);
        let slab = layout.slab(rank);
        let (mut mine, mut theirs) = (Vec::new(), Vec::new());
        for &(id, d, owner) in &layout.active {
            let plan = conv.plan_for(conv.response_region(&d, &kernel));
            if owner == rank {
                mine.push((id, d, input.extract(&d), plan));
            } else {
                let cells = plan.cells_intersecting(&slab);
                let cells = cells.into_iter().map(|c| c as u32).collect();
                theirs.push((id, plan, cells));
            }
        }
        Rank {
            conv,
            kernel,
            mine,
            theirs,
            slab,
            peer_slab: layout.slab(1 - rank),
        }
    }

    /// One op, returning this rank's slab of the result. `spans` is
    /// `Some((tracer, op, parent span))` on a traced op, which also adds a
    /// barrier before the exchange so that the time spent waiting for the
    /// other rank is a span of its own.
    fn op(&self, w: &mut CommWorld, spans: Option<(&Tracer, u64, usize)>) -> Grid3<f64> {
        let rank = w.rank() as u32;
        let timed = |name: &'static str, f: &mut dyn FnMut()| match spans {
            Some((t, op, root)) => t.within(op, name, Some(root), rank, f),
            None => f(),
        };

        let mut fields: Vec<CompressedField> = Vec::new();
        timed("comm.rank_compute", &mut || {
            fields = self
                .mine
                .iter()
                .map(|(_, d, sub, plan)| {
                    self.conv
                        .local()
                        .convolve_compressed(sub, d.lo, &self.kernel, plan.clone())
                })
                .collect();
        });

        let mut outgoing: Vec<Vec<u8>> = Vec::new();
        timed("comm.pack", &mut || {
            let mut samples = Vec::new();
            for f in &fields {
                samples.extend(f.region_payload(&self.peer_slab).samples);
            }
            outgoing = (0..RANKS)
                .map(|to| {
                    if to == w.rank() {
                        Vec::new()
                    } else {
                        encode_f64s(&samples)
                    }
                })
                .collect();
        });

        if spans.is_some() {
            let mut waited = Ok(());
            timed("comm.wait", &mut || waited = w.barrier());
            waited.expect("pre-exchange barrier");
        }

        let mut incoming: Vec<Vec<u8>> = Vec::new();
        timed("comm.exchange", &mut || {
            incoming = w
                .alltoall(std::mem::take(&mut outgoing))
                .expect("the fault-free exchange cannot fail");
        });

        let mut received: Vec<(usize, CompressedField)> = Vec::new();
        timed("comm.unpack", &mut || {
            let samples = decode_f64s(&incoming[1 - w.rank()]);
            let mut at = 0;
            received = self
                .theirs
                .iter()
                .map(|(id, plan, cells)| {
                    let count: usize = cells
                        .iter()
                        .map(|&c| plan.cells()[c as usize].sample_count())
                        .sum();
                    let payload = RegionPayload {
                        cells: cells.clone(),
                        samples: samples[at..at + count].to_vec(),
                    };
                    at += count;
                    (
                        *id,
                        CompressedField::from_region_payload(plan.clone(), &payload),
                    )
                })
                .collect();
            assert_eq!(at, samples.len(), "exchange payload fully consumed");
        });

        let mut out = Grid3::zeros(self.slab.size());
        timed("comm.rank_accumulate", &mut || {
            // Ascending domain id over own and received fields alike: the
            // one fold order both ranks can reproduce.
            let mut all: Vec<(usize, &CompressedField)> = self
                .mine
                .iter()
                .zip(&fields)
                .map(|((id, ..), f)| (*id, f))
                .chain(received.iter().map(|(id, f)| (*id, f)))
                .collect();
            all.sort_unstable_by_key(|(id, _)| *id);
            for (_, f) in all {
                f.add_region_into(&self.slab, &mut out, 1.0);
            }
        });
        out
    }
}

/// What rank 0 measured (and every rank's checksum failures).
#[derive(Default)]
struct Measured {
    setups: Vec<f64>,
    plain: Vec<OpTime>,
    traced_ms: Vec<f64>,
    host_speed: f64,
    clock: String,
    per_op: Vec<CommStatsSnapshot>,
    failures: Vec<String>,
    peak: usize,
}

fn delta(after: &CommStatsSnapshot, before: &CommStatsSnapshot) -> CommStatsSnapshot {
    CommStatsSnapshot {
        bytes_sent: after.bytes_sent - before.bytes_sent,
        messages: after.messages - before.messages,
        collective_rounds: after.collective_rounds - before.collective_rounds,
        retransmits: after.retransmits - before.retransmits,
        duplicates_suppressed: after.duplicates_suppressed - before.duplicates_suppressed,
        timeouts: after.timeouts - before.timeouts,
        bytes_physical: after.bytes_physical - before.bytes_physical,
        messages_physical: after.messages_physical - before.messages_physical,
        acks: after.acks - before.acks,
    }
}

pub fn run(name: &str, p: &Problem, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let sparse = gen::sparse_field(p.n, p.k, opts.seed);
    let domains = decompose_uniform(p.n, p.k);
    let kernel = GaussianKernel::new(p.n, p.sigma);
    let layout = {
        let probe = LowCommConvolver::try_new(p.config()).expect("the workload's config is valid");
        let w = p.n / RANKS;
        Layout {
            n: p.n,
            active: sparse
                .active
                .iter()
                .map(|&id| {
                    let d = domains[id];
                    (id, d, probe.response_region(&d, &kernel).lo[0] / w)
                })
                .collect(),
        }
    };
    for rank in 0..RANKS {
        let owned = layout.active.iter().filter(|a| a.2 == rank).count();
        assert_eq!(owned, 2, "the generator balances the ranks");
    }
    let input = &sparse.field;

    let tracer = Tracer::new();
    let stop = AtomicBool::new(false);
    let measured = Mutex::new(Measured::default());
    let reps = if opts.trace { 1 } else { SETUP_REPS };

    let (firsts, stats) = run_cluster(RANKS, |mut w: CommWorld| {
        let me = w.rank();
        // Set-up, several times over: every rank builds its convolver,
        // kernel, plans and routing table and runs the cold first op.
        // Two ranks compute at once, so the clock does not scale.
        let mut clock = HostClock::new(false);
        let mut state = None;
        for _ in 0..reps {
            w.barrier().expect("set-up barrier");
            let (built, _, took) = clock.time(|| {
                let rank = Rank::build(p, &layout, input, me);
                let first = rank.op(&mut w, None);
                w.barrier().expect("set-up barrier");
                (rank, first)
            });
            state = Some(built);
            if me == 0 {
                let mut m = measured.lock().expect("measurement lock");
                m.setups.push(took);
            }
        }
        let (rank, first) = state.expect("set-up ran");
        let want_sum = fnv1a_f64(first.as_slice());

        // Nothing is sent between the set-up's last barrier and the start
        // barrier, so this snapshot is exact.
        let mut before = w.stats().snapshot();
        w.barrier().expect("start barrier");
        if me == 0 {
            ALLOC.reset_peak();
        }
        let deadline = opts.measure_deadline();
        let mut op = 0u64;
        clock.mark();
        loop {
            let split = opts.trace && op % 2 == 1;
            // Both ranks take their yardstick sample right after the
            // end-of-op barrier, so neither waits for the other's.
            let (slab, wall, took) = clock.time(|| {
                if split {
                    let root = tracer.open(op, "op", None, me as u32);
                    let slab = rank.op(&mut w, Some((&tracer, op, root.id)));
                    tracer.within(op, "comm.end_barrier", Some(root.id), me as u32, || {
                        w.barrier().expect("end-of-op barrier")
                    });
                    tracer.close(root);
                    slab
                } else {
                    let slab = rank.op(&mut w, None);
                    w.barrier().expect("end-of-op barrier");
                    slab
                }
            });
            let sum = fnv1a_f64(slab.as_slice());
            drop(slab);
            {
                let mut m = measured.lock().expect("measurement lock");
                if sum != want_sum {
                    m.failures.push(format!(
                        "op {op} rank {me}: slab checksum {sum:#x} != {want_sum:#x}"
                    ));
                }
                if me == 0 {
                    // Both ranks are past the end-of-op barrier and neither
                    // sends again before the decision barrier below, so the
                    // shared counters hold exactly the traffic up to here.
                    let after = w.stats().snapshot();
                    m.per_op.push(delta(&after, &before));
                    before = after;
                    if split {
                        m.traced_ms.push(wall * 1e3);
                    } else {
                        m.plain.push(OpTime {
                            wall_ms: wall * 1e3,
                            ms: took * 1e3,
                        });
                    }
                    if Instant::now() >= deadline
                        && opts.enough_ops(m.plain.len(), m.traced_ms.len())
                    {
                        stop.store(true, Ordering::SeqCst);
                    }
                }
            }
            // Rank 0 decides; the barrier publishes its decision.
            w.barrier().expect("decision barrier");
            op += 1;
            if stop.load(Ordering::SeqCst) {
                break;
            }
        }
        if me == 0 {
            let mut m = measured.lock().expect("measurement lock");
            m.peak = ALLOC.peak_bytes();
            m.host_speed = clock.host_speed();
            m.clock = clock.describe();
        }
        first
    });

    let m = measured.into_inner().expect("measurement lock");
    out.attempted = (m.plain.len() + m.traced_ms.len()) as u64;
    for why in &m.failures {
        out.fail(why.clone());
    }
    for (op, d) in m.per_op.iter().enumerate() {
        if d.collective_rounds != 1 || d.retransmits != 0 {
            out.fail(format!(
                "op {op}: {} rounds, {} retransmits (want 1, 0)",
                d.collective_rounds, d.retransmits
            ));
        }
    }
    let bytes_per_op = m.per_op[0].bytes_sent;
    if m.per_op.iter().any(|d| d.bytes_sent != bytes_per_op) {
        out.fail("exchange bytes differ between ops".into());
    }

    // Oracle: both slabs of the first op against the dense convolution.
    let w = p.n / RANKS;
    let mut whole = Grid3::zeros((p.n, p.n, p.n));
    for (rank, slab) in firsts.iter().enumerate() {
        whole.insert([rank * w, 0, 0], slab);
    }
    let t = Instant::now();
    let want = TraditionalConvolver::new(p.n).convolve(input, &kernel);
    let oracle_s = t.elapsed().as_secs_f64();
    let rel_l2 = relative_l2(want.as_slice(), whole.as_slice());
    drop((want, whole, firsts));
    if rel_l2 > ACCURACY_LIMIT {
        out.fail_all(format!("rel_l2_err {rel_l2} above {ACCURACY_LIMIT}"));
    }

    if !opts.trace {
        crate::report_op_times(&mut out, &m.setups, &m.plain, &m.clock);
        out.set("exchange_bytes_per_op", bytes_per_op as f64);
        out.set("peak_alloc_mb", m.peak as f64 / 1e6);
        out.note(format!(
            "{name}: n={} k={} sigma={} ranks={RANKS} pool threads={} active domains {:?}; \
             oracle took {oracle_s:.3} s, rel_l2_err {rel_l2:e} (limit {ACCURACY_LIMIT})",
            p.n,
            p.k,
            p.sigma,
            p.threads,
            layout.active.iter().map(|a| (a.0, a.2)).collect::<Vec<_>>()
        ));
        return out;
    }

    // ---- traced run: the per-layer table, in this host's wall time. ----
    let plain_ms: Vec<f64> = m.plain.iter().map(|o| o.wall_ms).collect();
    let spans = tracer.spans();
    out.set("rel_l2_err", rel_l2);
    out.set("obs.host_speed_x", m.host_speed);
    comm_layers(&mut out, &spans);
    let first_op = &m.per_op[0];
    out.set("comm.bytes_per_op", first_op.bytes_sent as f64);
    out.set("comm.physical_bytes_per_op", first_op.bytes_physical as f64);
    out.set("comm.messages_per_op", first_op.messages as f64);
    out.set("comm.rounds_per_op", first_op.collective_rounds as f64);
    out.set("comm.retransmits", stats.retransmit_count() as f64);
    out.set(
        "comm.modeled_s",
        AlphaBeta::hpc_default().cluster_time(first_op.messages, first_op.bytes_sent, RANKS),
    );
    dist_fft_baseline(&mut out, p, input, &kernel, first_op.bytes_sent);

    // One rank's worth of state, rebuilt here, for the layer timings.
    let rank0 = Rank::build(p, &layout, input, 0);
    let (_, d, sub, plan) = &rank0.mine[0];
    let field = rank0
        .conv
        .local()
        .convolve_compressed(sub, d.lo, &rank0.kernel, plan.clone());
    let mut payload = field.region_payload(&rank0.peer_slab);
    out.set(
        "octree.region_payload_s",
        micro::time_median(3, std::time::Duration::from_millis(60), || {
            payload = field.region_payload(&rank0.peer_slab);
        }),
    );
    out.set(
        "octree.from_payload_s",
        micro::time_median(3, std::time::Duration::from_millis(60), || {
            std::hint::black_box(CompressedField::from_region_payload(plan.clone(), &payload));
        }),
    );
    out.set("core.domains_processed", sparse.active.len() as f64);
    out.set(
        "core.domains_skipped",
        (domains.len() - sparse.active.len()) as f64,
    );
    out.set(
        "core.samples_per_op",
        layout
            .active
            .iter()
            .map(|(_, d, _)| {
                let region = rank0.conv.response_region(d, &kernel);
                rank0.conv.plan_for(region).total_samples() as f64
            })
            .sum(),
    );
    micro::layers(
        &mut out,
        &micro::Shapes {
            conv: &rank0.conv,
            kernel: &rank0.kernel,
            input,
            domain: *d,
        },
    );
    let overhead = paired_overhead(&plain_ms, &m.traced_ms);
    out.note(format!(
        "obs.trace_overhead_frac is the median of (traced - plain) / plain over the adjacent \
         pairs of {} plain and {} traced ops; plain op p50 {:.4} ms",
        plain_ms.len(),
        m.traced_ms.len(),
        median(&plain_ms)
    ));
    crate::finish_trace(&mut out, name, &spans, &plain_ms, &m.traced_ms, overhead);
    out
}

/// `comm.*` span metrics: per traced op the maximum over ranks, then the
/// median over ops; imbalance is max over mean of the ranks' compute.
fn comm_layers(out: &mut Outcome, spans: &[Span]) {
    let per_op_max = |name: &str| -> f64 {
        let by_rank: Vec<Vec<f64>> = (0..RANKS as u32)
            .map(|r| trace::durations_s(spans, name, r))
            .collect();
        let ops = by_rank.iter().map(Vec::len).min().unwrap_or(0);
        if ops == 0 {
            return 0.0;
        }
        median(
            &(0..ops)
                .map(|i| by_rank.iter().map(|r| r[i]).fold(0.0, f64::max))
                .collect::<Vec<_>>(),
        )
    };
    for (metric, span) in [
        ("comm.rank_compute_s", "comm.rank_compute"),
        ("comm.rank_accumulate_s", "comm.rank_accumulate"),
        ("comm.pack_s", "comm.pack"),
        ("comm.wait_s", "comm.wait"),
        ("comm.exchange_s", "comm.exchange"),
        ("comm.unpack_s", "comm.unpack"),
    ] {
        out.set(metric, per_op_max(span));
    }
    let compute: Vec<f64> = (0..RANKS as u32)
        .map(|r| median(&trace::durations_s(spans, "comm.rank_compute", r)))
        .collect();
    let mean = compute.iter().sum::<f64>() / RANKS as f64;
    out.set(
        "comm.imbalance_x",
        compute.iter().cloned().fold(0.0, f64::max) / mean,
    );
}

/// The Eq. 1 baseline on the same input: three runs of the slab-decomposed
/// distributed FFT convolution, its measured traffic and modeled time.
fn dist_fft_baseline(
    out: &mut Outcome,
    p: &Problem,
    input: &Grid3<f64>,
    kernel: &GaussianKernel,
    sparse_bytes: u64,
) {
    let field: Vec<Complex64> = input
        .as_slice()
        .iter()
        .map(|&v| Complex64::from_real(v))
        .collect();
    let slabs = scatter_slabs(&field, p.n, RANKS);
    drop(field);
    let eval = |f: [usize; 3]| kernel.eval(f);
    let mut times = Vec::new();
    let mut traffic = None;
    for _ in 0..3 {
        let (secs, stats) = run_cluster(RANKS, |mut w: CommWorld| {
            let planner = FftPlanner::new();
            let mine = slabs[w.rank()].clone();
            w.barrier().expect("baseline barrier");
            let t = Instant::now();
            let result = convolve_distributed(&mut w, &planner, mine, p.n, &eval)
                .expect("the fault-free baseline cannot fail");
            w.barrier().expect("baseline barrier");
            std::hint::black_box(result);
            t.elapsed().as_secs_f64()
        });
        times.push(secs[0]);
        traffic = Some((
            stats.bytes(),
            stats.rounds(),
            stats.modeled_time(&AlphaBeta::hpc_default(), RANKS),
        ));
    }
    let (bytes, rounds, modeled) = traffic.expect("three baseline runs");
    out.set("comm.dist_fft_convolve_s", median(&times));
    out.set("comm.dist_fft_bytes", bytes as f64);
    out.set("comm.dist_fft_rounds", rounds as f64);
    out.set("comm.dist_fft_modeled_s", modeled);
    out.set("comm.reduction_x", bytes as f64 / sparse_bytes as f64);
    out.note(format!(
        "comm.reduction_x = dist_fft_bytes {bytes} / bytes_per_op {sparse_bytes}"
    ));
}
