//! The unified convolve entry point.
//!
//! A [`ConvolveSession`] is the one compress/accumulate surface: the caller
//! states *how the run should treat missing domains* once — via
//! [`ConvolveMode`] — and every call dispatches on it. One mode rule holds
//! throughout: **a session compresses the domains it computes by its
//! mode** — under the memoized schedule plan in `Normal` and `Recover`, at
//! the schedule's coarsest uniform rate in `Degraded`. So
//! [`ConvolveSession::exchange`] computes a rank's own domains in an
//! explicit `Normal` session, and only the orphans of dead ranks are
//! rebuilt coarse. Every compressing call runs the one domain loop of
//! [`crate::fold`]. The session also carries an optional
//! [`lcc_obs::ObsSession`], so wrapping a run in tracing is one extra call
//! rather than bench-specific plumbing.
//!
//! ```
//! use lcc_core::prelude::*;
//!
//! let n = 16;
//! let cfg = LowCommConfig::builder().n(n).k(4).far_rate(8).build().unwrap();
//! let conv = LowCommConvolver::try_new(cfg).unwrap();
//! let kernel = GaussianKernel::new(n, 1.0);
//! let input = Grid3::from_fn((n, n, n), |x, y, z| (x + y + z) as f64);
//! let session = conv.session(ConvolveMode::Normal);
//! let (result, report) = session.convolve(&input, &kernel);
//! assert_eq!(result.shape(), (n, n, n));
//! assert!(report.exchange_bytes > 0);
//! ```

use std::collections::BTreeMap;

use lcc_greens::KernelSpectrum;
use lcc_grid::{decompose_uniform, BoxRegion, Grid3};
use lcc_obs::metrics as obs;
use lcc_octree::{CompressedField, PlanCache};

use crate::fold::{fold_fields, DomainStep, LocalFn, PlanFn};
use crate::lowcomm::{ConvolveReport, LowCommConvolver};
use crate::recovery::RecoveryPolicy;
use crate::tensor_pipeline::TensorKernelSpectrum;

/// How a convolve run treats domains whose owning rank is gone.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConvolveMode {
    /// Fault-free run: every domain compressed exactly; accumulation
    /// expects no orphans.
    Normal,
    /// Graceful degradation: orphaned domains are rebuilt locally at the
    /// schedule's *coarsest* uniform rate — availability over accuracy.
    /// Every domain the session compresses is compressed at that rate too
    /// (a survivor producing an emergency contribution, a shed request).
    Degraded,
    /// Self-healing: claimants recompute orphans *exactly* under the given
    /// policy; orphans nobody claimed fall back to the degraded rebuild.
    /// The report charges the recomputation's modeled flops and bytes.
    Recover(RecoveryPolicy),
}

impl ConvolveMode {
    /// Short name for logs and bench tables.
    pub fn name(&self) -> &'static str {
        match self {
            ConvolveMode::Normal => "normal",
            ConvolveMode::Degraded => "degraded",
            ConvolveMode::Recover(_) => "recover",
        }
    }
}

/// One convolve run's entry point: mode-dispatched compression and
/// accumulation plus an optional observability session. Construct via
/// [`LowCommConvolver::session`].
pub struct ConvolveSession<'a> {
    conv: &'a LowCommConvolver,
    mode: ConvolveMode,
    obs: Option<lcc_obs::ObsSession>,
}

impl<'a> ConvolveSession<'a> {
    pub(crate) fn new(conv: &'a LowCommConvolver, mode: ConvolveMode) -> Self {
        ConvolveSession {
            conv,
            mode,
            obs: None,
        }
    }

    /// Attaches an [`lcc_obs::ObsSession`] so spans and counters are
    /// collected for the lifetime of this session. A no-op (with a visible
    /// `false` from [`Self::observing`]) when another session already holds
    /// the global collector.
    pub fn with_observability(mut self) -> Self {
        self.obs = lcc_obs::ObsSession::start();
        self
    }

    /// Whether this session holds the observability collector.
    pub fn observing(&self) -> bool {
        self.obs.is_some()
    }

    /// The mode this session dispatches on.
    pub fn mode(&self) -> ConvolveMode {
        self.mode
    }

    /// The underlying convolver.
    pub fn convolver(&self) -> &LowCommConvolver {
        self.conv
    }

    /// Compresses every (nonzero) sub-domain of `input` by the mode — the
    /// local-computation phase that replaces the distributed FFT. Returns
    /// the fields in ascending domain id.
    pub fn compress_domains(
        &self,
        input: &Grid3<f64>,
        kernel: &dyn KernelSpectrum,
    ) -> (Vec<CompressedField>, ConvolveReport) {
        let _sp = lcc_obs::span("session_compress_domains");
        let cfg = self.conv.config();
        let domains = decompose_uniform(cfg.n, cfg.k);
        let (fields, report) = self.scalar_step(input, kernel).compress_all(&domains);
        (fields.into_iter().map(|[f]| f).collect(), report)
    }

    /// Compresses one sub-domain's contribution by the mode. Returns `None`
    /// for identically-zero domains.
    pub fn compress_domain(
        &self,
        input: &Grid3<f64>,
        domain: &BoxRegion,
        kernel: &dyn KernelSpectrum,
    ) -> Option<CompressedField> {
        let _sp = lcc_obs::span("session_compress_domain");
        let [f] = self.scalar_step(input, kernel).compress_one(domain)?;
        Some(f)
    }

    /// Plain accumulation: sums the given contributions in slice order into
    /// the dense result. No orphan handling — use [`Self::accumulate`] when
    /// ranks may be missing.
    pub fn accumulate_fields(&self, fields: &[CompressedField]) -> Grid3<f64> {
        let _sp = lcc_obs::span("session_accumulate");
        let n = self.conv.config().n;
        let mut out = Grid3::zeros((n, n, n));
        fold_fields(fields, &BoxRegion::cube(n), &mut out);
        out
    }

    /// Mode-aware accumulation + interpolation over `region` — the single
    /// exchange's fold. The result has the region's shape; pass
    /// `BoxRegion::cube(n)` for the whole grid.
    ///
    /// `contributions` maps global domain id → compressed field; the fold
    /// runs in **ascending domain-id order**, the one order every rank can
    /// reproduce regardless of who computed what. `orphans` lists the
    /// domains whose original owner is gone, with their regions:
    ///
    /// * an orphan **present** in `contributions` was recomputed exactly by
    ///   a claimant — in `Recover` mode its modeled flop/byte cost is
    ///   charged to the report as recovery overhead;
    /// * an orphan **absent** from `contributions` is rebuilt locally at
    ///   the coarsest rate and reported as degraded (`Normal` mode asserts
    ///   there are no orphans at all).
    pub fn accumulate(
        &self,
        contributions: &BTreeMap<usize, CompressedField>,
        input: &Grid3<f64>,
        kernel: &dyn KernelSpectrum,
        orphans: &[(usize, BoxRegion)],
        region: &BoxRegion,
    ) -> (Grid3<f64>, ConvolveReport) {
        let _sp = lcc_obs::span("session_accumulate");
        if matches!(self.mode, ConvolveMode::Normal) {
            assert!(
                orphans.is_empty(),
                "orphaned domains in Normal mode; use Degraded or Recover"
            );
        }
        // Absent orphans are rebuilt at the coarsest rate; they fold after
        // the contributions, which fold in ascending domain id.
        let absent: Vec<BoxRegion> = orphans
            .iter()
            .filter_map(|&(id, d)| (!contributions.contains_key(&id)).then_some(d))
            .collect();
        let coarse = self.conv.session(ConvolveMode::Degraded);
        let (rebuilt, rebuild) = coarse.scalar_step(input, kernel).compress_all(&absent);
        // Processed work is what was received or computed before the fold.
        let mut report = ConvolveReport {
            domains_processed: 0,
            total_samples: 0,
            exchange_bytes: 0,
            ..rebuild
        };
        report.count(contributions.values().map(|f| f.plan().as_ref()), 1);
        if matches!(self.mode, ConvolveMode::Recover(_)) {
            for f in orphans.iter().filter_map(|(id, _)| contributions.get(id)) {
                report.recovered_domains += 1;
                report.recovery_extra_flops += self.conv.local().flops_estimate(f.plan());
                report.recovery_extra_bytes += f.message_bytes();
            }
        }
        let mut out = Grid3::zeros(region.size());
        let fields = contributions.values().chain(rebuilt.iter().map(|[f]| f));
        fold_fields(fields, region, &mut out);
        obs::CONVOLVE_DOMAINS_RECOVERED.add(report.recovered_domains as u64);
        (out, report)
    }

    /// The whole convolution of `input`: every sub-domain compressed by the
    /// mode and folded over the cube, in waves no larger than the result
    /// (see [`crate::fold`]).
    pub fn convolve(
        &self,
        input: &Grid3<f64>,
        kernel: &dyn KernelSpectrum,
    ) -> (Grid3<f64>, ConvolveReport) {
        let _sp = lcc_obs::span("session_convolve");
        let (cfg, step) = (self.conv.config(), self.scalar_step(input, kernel));
        let ([out], report) = step.fold(&decompose_uniform(cfg.n, cfg.k), &BoxRegion::cube(cfg.n));
        (out, report)
    }

    /// [`Self::convolve`] for a symmetric tensor field (its six Voigt
    /// components) and a tensor kernel: MASSIF's `Γ̂ : σ̂`. A sub-domain's
    /// response region is the sub-domain, the tensor kernels being centered.
    pub fn convolve_tensor(
        &self,
        sigma: [&Grid3<f64>; 6],
        kernel: &dyn TensorKernelSpectrum,
    ) -> ([Grid3<f64>; 6], ConvolveReport) {
        let _sp = lcc_obs::span("session_convolve_tensor");
        let (conv, (plans, degraded_rate)) = (self.conv, self.plans(&sigma));
        let step = DomainStep {
            inputs: sigma,
            plan: |d: &BoxRegion| plans.plan_for(*d),
            local: |d: &BoxRegion, plan| {
                let sub = sigma.map(|g| g.extract(d));
                conv.local()
                    .convolve_tensor_compressed(&sub, d.lo, kernel, plan)
            },
            degraded_rate,
        };
        let cfg = conv.config();
        step.fold(&decompose_uniform(cfg.n, cfg.k), &BoxRegion::cube(cfg.n))
    }

    /// The per-domain step of a scalar run.
    fn scalar_step<'s>(
        &'s self,
        input: &'s Grid3<f64>,
        kernel: &'s dyn KernelSpectrum,
    ) -> DomainStep<'s, 1, impl PlanFn + 's, impl LocalFn<1> + 's> {
        let (conv, (plans, degraded_rate)) = (self.conv, self.plans(&[input]));
        DomainStep {
            inputs: [input],
            plan: move |d: &BoxRegion| plans.plan_for(conv.response_region(d, kernel)),
            local: move |d: &BoxRegion, plan| {
                [conv
                    .local()
                    .convolve_compressed(&input.extract(d), d.lo, kernel, plan)]
            },
            degraded_rate,
        }
    }

    /// The plans the mode rule compresses `inputs` under, and the rate a
    /// report charges them to when they are the degraded ones. Panics
    /// unless every input is on the session's `n³` grid.
    fn plans(&self, inputs: &[&Grid3<f64>]) -> (&'a PlanCache, Option<u32>) {
        let n = self.conv.config().n;
        assert!(inputs.iter().all(|g| g.shape() == (n, n, n)), "input shape");
        match self.mode {
            ConvolveMode::Degraded => (&self.conv.degraded_plans, Some(self.conv.coarsest_rate())),
            _ => (self.conv.plan_cache(), None),
        }
    }

    /// Ends the session, returning the observability report when this
    /// session held the collector.
    pub fn finish(mut self) -> Option<lcc_obs::ObsReport> {
        self.obs.take().map(|s| s.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lowcomm::LowCommConfig;
    use lcc_greens::GaussianKernel;
    use lcc_octree::RateSchedule;

    fn smooth_input(n: usize) -> Grid3<f64> {
        Grid3::from_fn((n, n, n), |x, y, z| {
            ((x as f64 * 0.4).sin() + (y as f64 * 0.25).cos()) * (1.0 + z as f64 * 0.05)
        })
    }

    fn bits(g: &Grid3<f64>) -> Vec<u64> {
        g.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// `convolve` folds in waves no larger than the output; every wave cut
    /// must leave the result bit-identical to compressing every domain and
    /// folding once, under the pool and sequentially.
    #[test]
    fn waves_bit_identical_to_compress_then_accumulate() {
        let n = 16;
        let k = 4;
        let conv = LowCommConvolver::new(LowCommConfig::paper_default(n, k, 8));
        let kernel = GaussianKernel::new(n, 1.0);
        let mut single = Grid3::zeros((n, n, n));
        single[(5, 9, 2)] = 1.5;
        for input in [smooth_input(n), single] {
            let session = conv.session(ConvolveMode::Normal);
            let (fields, want_report) = session.compress_domains(&input, &kernel);
            let want = bits(&session.accumulate_fields(&fields));
            let (got, report) = session.convolve(&input, &kernel);
            assert_eq!(bits(&got), want);
            let (sequential, _) = rayon::run_sequential(|| session.convolve(&input, &kernel));
            assert_eq!(bits(&sequential), want);
            assert_eq!(report.domains_processed, want_report.domains_processed);
            assert_eq!(report.domains_skipped, want_report.domains_skipped);
            assert_eq!(report.total_samples, want_report.total_samples);
            assert_eq!(report.exchange_bytes, want_report.exchange_bytes);
        }
        // The dense input's fields outweigh the output many times over, so
        // it folds in many waves; the single domain is one wave.
        let (_, dense) = conv
            .session(ConvolveMode::Normal)
            .compress_domains(&smooth_input(n), &kernel);
        assert!(dense.total_samples > 8 * n * n * n, "{dense:?}");

        // A Degraded session compresses every domain at the coarsest rate.
        let input = smooth_input(n);
        let session = conv.session(ConvolveMode::Degraded);
        let fields: Vec<CompressedField> = lcc_grid::decompose_uniform(n, k)
            .iter()
            .filter_map(|d| session.compress_domain(&input, d, &kernel))
            .collect();
        let want = bits(&session.accumulate_fields(&fields));
        let (got, report) = session.convolve(&input, &kernel);
        assert_eq!(bits(&got), want);
        assert_eq!(report.degraded_domains, fields.len());
        assert_eq!(report.degraded_rate, Some(conv.coarsest_rate()));
    }

    /// The pool's size is fixed for the life of a process, so the identity
    /// above runs again in child processes, one per pool size.
    #[test]
    fn waves_bit_identical_under_pools_of_1_2_and_4_threads() {
        let exe = std::env::current_exe().expect("test binary path");
        for threads in ["1", "2", "4"] {
            let out = std::process::Command::new(&exe)
                .arg("waves_bit_identical_to_compress_then_accumulate")
                .env("LCC_THREADS", threads)
                .output()
                .expect("spawn the test binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success() && stdout.contains("1 passed"),
                "LCC_THREADS={threads}:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }

    #[test]
    fn degraded_session_rebuilds_absent_orphans() {
        let n = 16;
        let k = 4;
        let conv = LowCommConvolver::new(LowCommConfig {
            n,
            k,
            batch: 64,
            schedule: RateSchedule::for_kernel_spread(k, 1.0, 8),
        });
        let kernel = GaussianKernel::new(n, 1.0);
        let input = smooth_input(n);
        let session = conv.session(ConvolveMode::Degraded);
        let (fields, _) = session.compress_domains(&input, &kernel);
        let domains = lcc_grid::decompose_uniform(n, k);
        // Drop the first two domains' contributions, as if their rank died.
        let mut contribs: BTreeMap<usize, CompressedField> = BTreeMap::new();
        for (id, f) in fields.into_iter().enumerate().skip(2) {
            contribs.insert(id, f);
        }
        let orphans = [(0usize, domains[0]), (1usize, domains[1])];
        let cube = BoxRegion::cube(n);
        let (_, report) = session.accumulate(&contribs, &input, &kernel, &orphans, &cube);
        assert_eq!(report.degraded_domains, 2);
        assert_eq!(report.degraded_rate, Some(conv.coarsest_rate()));
        assert_eq!(report.recovered_domains, 0);
    }

    #[test]
    fn recover_session_charges_present_orphans() {
        let n = 16;
        let k = 8;
        let conv = LowCommConvolver::new(LowCommConfig::paper_default(n, k, 8));
        let kernel = GaussianKernel::new(n, 1.0);
        let input = smooth_input(n);
        let session = conv.session(ConvolveMode::Recover(RecoveryPolicy::Hybrid));
        let domains = lcc_grid::decompose_uniform(n, k);
        let mut contribs = BTreeMap::new();
        for (id, d) in domains.iter().enumerate() {
            if let Some(f) = session.compress_domain(&input, d, &kernel) {
                contribs.insert(id, f);
            }
        }
        // Domain 0's owner died; a claimant recomputed it (it is present).
        let orphans = [(0usize, domains[0])];
        let cube = BoxRegion::cube(n);
        let (got, report) = session.accumulate(&contribs, &input, &kernel, &orphans, &cube);
        assert_eq!(report.recovered_domains, 1);
        assert!(report.recovery_extra_flops > 0.0);
        assert!(report.recovery_extra_bytes > 0);
        assert_eq!(report.degraded_domains, 0);
        // Recovery accounting must not change the field itself.
        let clean_session = conv.session(ConvolveMode::Normal);
        let (clean, _) = clean_session.accumulate(&contribs, &input, &kernel, &[], &cube);
        assert_eq!(clean.as_slice(), got.as_slice());
    }

    #[test]
    #[should_panic(expected = "orphaned domains in Normal mode")]
    fn normal_mode_rejects_orphans() {
        let n = 16;
        let conv = LowCommConvolver::new(LowCommConfig::paper_default(n, 8, 8));
        let kernel = GaussianKernel::new(n, 1.0);
        let input = smooth_input(n);
        let session = conv.session(ConvolveMode::Normal);
        let orphans = [(0usize, BoxRegion::new([0; 3], [8; 3]))];
        let cube = BoxRegion::cube(n);
        let _ = session.accumulate(&BTreeMap::new(), &input, &kernel, &orphans, &cube);
    }

    #[test]
    fn session_with_observability_reports_spans() {
        let n = 16;
        let conv = LowCommConvolver::new(LowCommConfig::paper_default(n, 4, 8));
        let kernel = GaussianKernel::new(n, 1.0);
        let input = smooth_input(n);
        let session = conv.session(ConvolveMode::Normal).with_observability();
        let (with_obs, _) = session.convolve(&input, &kernel);
        if let Some(report) = session.finish() {
            // The stage spans of every processed domain were collected.
            assert!(report.span_count("session_convolve") >= 1);
            assert!(report.span_count("stage1_2d_fft") >= 1);
            assert!(report.counter("convolve.domains_processed").is_some());
        }
        // Observability must not perturb the numerics.
        let plain = conv.session(ConvolveMode::Normal);
        let (without, _) = plain.convolve(&input, &kernel);
        assert_eq!(with_obs.as_slice(), without.as_slice());
    }
}
