//! The full low-communication convolution: decomposition → local compressed
//! convolutions → single accumulation-and-interpolation step (paper §3.1,
//! Algorithm 2's convolution core).
//!
//! "Unlike traditional methods, the FFT is not computed in parallel. Rather,
//! the entire convolution pipeline is parallelized using domain
//! decomposition and local computing." Each sub-domain's contribution is an
//! independent task; by linearity their reconstructions sum to the (cyclic)
//! convolution of the whole input. Only compressed samples would cross the
//! network — [`ConvolveReport`] records exactly how many bytes that is.
//!
//! When ranks die mid-deployment the pipeline degrades instead of failing:
//! survivors recompute the missing domains' contributions at the schedule's
//! *coarsest* rate (cheap, low-resolution) so availability is preserved and
//! only accuracy suffers — open a [`ConvolveSession`] in
//! [`ConvolveMode::Degraded`] and let [`ConvolveSession::accumulate`]
//! rebuild the orphans.

use std::sync::Arc;

use lcc_greens::KernelSpectrum;
use lcc_grid::BoxRegion;
use lcc_octree::{PlanCache, RateSchedule, SamplingPlan};

use crate::config::ConfigError;
use crate::pipeline::LocalConvolver;
use crate::session::{ConvolveMode, ConvolveSession};

/// Configuration of a low-communication convolution.
#[derive(Clone, Debug)]
pub struct LowCommConfig {
    /// Grid size N (power of two).
    pub n: usize,
    /// Sub-domain size k (divides N).
    pub k: usize,
    /// z-stage batch size B.
    pub batch: usize,
    /// The adaptive sampling schedule applied around each sub-domain.
    pub schedule: RateSchedule,
}

impl LowCommConfig {
    /// Paper-default configuration: the §5.4 heuristic schedule.
    pub fn paper_default(n: usize, k: usize, far_rate: u32) -> Self {
        LowCommConfig {
            n,
            k,
            batch: 1024.min(n * n),
            schedule: RateSchedule::paper_default(k, far_rate),
        }
    }
}

/// Per-run accounting: what a distributed deployment would communicate,
/// and how much of the result had to be reconstructed in degraded mode.
#[derive(Clone, Debug, Default)]
pub struct ConvolveReport {
    /// Number of sub-domains processed (zero-skipped ones excluded).
    pub domains_processed: usize,
    /// Sub-domains skipped because their input was identically zero —
    /// the "zero regions" property the paper lists as exploitable.
    pub domains_skipped: usize,
    /// Total compressed samples across all processed domains.
    pub total_samples: usize,
    /// Total bytes the single accumulation exchange would move.
    pub exchange_bytes: usize,
    /// Dense bytes the traditional approach would have exchanged per FFT
    /// stage (N³ points, 16 B), for comparison.
    pub dense_stage_bytes: usize,
    /// Sub-domains whose owning rank died and whose contribution was
    /// recomputed by survivors at the coarsest rate.
    pub degraded_domains: usize,
    /// The uniform sampling rate used for degraded reconstruction
    /// (`None` when nothing degraded).
    pub degraded_rate: Option<u32>,
    /// Sub-domains a dead rank owned that survivors recomputed *exactly*
    /// (same plan, same pipeline — bit-identical contributions).
    pub recovered_domains: usize,
    /// Modeled flops the exact recomputes cost on top of the fault-free
    /// run (see [`LocalConvolver::flops_estimate`]).
    pub recovery_extra_flops: f64,
    /// Extra bytes the recovered contributions add to the single sparse
    /// exchange.
    pub recovery_extra_bytes: usize,
}

impl ConvolveReport {
    /// Counts computed domains, one per plan, each compressed into
    /// `components` fields under its plan.
    pub(crate) fn count<'p>(
        &mut self,
        plans: impl IntoIterator<Item = &'p SamplingPlan>,
        components: usize,
    ) {
        for plan in plans {
            self.domains_processed += 1;
            self.total_samples += components * plan.total_samples();
            self.exchange_bytes += components * plan.compressed_bytes();
        }
    }
}

/// The end-to-end approximate convolver.
pub struct LowCommConvolver {
    cfg: LowCommConfig,
    local: LocalConvolver,
    /// Memoized plans under the configured schedule: owners, decoders and
    /// recovery claimants all share one plan per response region.
    plans: PlanCache,
    /// Memoized coarsest-rate plans for degraded reconstruction.
    pub(crate) degraded_plans: PlanCache,
}

impl LowCommConvolver {
    /// Builds the convolver, planning the local pipeline once.
    ///
    /// Panics on an invalid configuration; use [`Self::try_new`] to get a
    /// typed [`ConfigError`] instead.
    pub fn new(cfg: LowCommConfig) -> Self {
        match Self::try_new(cfg) {
            Ok(conv) => conv,
            Err(e) => panic!("invalid LowCommConfig: {e}"),
        }
    }

    /// Builds the convolver after validating `cfg`
    /// ([`LowCommConfig::validate`]), so bad `n`/`k` divisibility or a
    /// malformed schedule comes back as a value instead of a panic.
    pub fn try_new(cfg: LowCommConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let local = LocalConvolver::new(cfg.n, cfg.k, cfg.batch);
        let plans = PlanCache::new(cfg.n, cfg.schedule.clone());
        let s = &cfg.schedule;
        let coarsest = s
            .bands
            .iter()
            .map(|b| b.rate)
            .chain([s.far_rate, s.boundary_rate.max(1)])
            .max()
            .unwrap_or(1);
        let degraded_plans = PlanCache::new(cfg.n, RateSchedule::uniform(coarsest));
        Ok(LowCommConvolver {
            cfg,
            local,
            plans,
            degraded_plans,
        })
    }

    /// Opens a [`ConvolveSession`], the one convolve entry point.
    /// The mode states once how the run treats missing domains; chain
    /// [`ConvolveSession::with_observability`] to collect spans and
    /// counters for the run.
    pub fn session(&self, mode: ConvolveMode) -> ConvolveSession<'_> {
        ConvolveSession::new(self, mode)
    }

    /// The configuration.
    pub fn config(&self) -> &LowCommConfig {
        &self.cfg
    }

    /// The planned local pipeline.
    pub fn local(&self) -> &LocalConvolver {
        &self.local
    }

    /// The hotspot (response) region of a sub-domain under `kernel`: the
    /// sub-domain translated by the kernel's spatial center. "The octree
    /// captures an estimate of where the hotspots … will occur once the
    /// convolution with the sub-domain is performed" (§4).
    ///
    /// With `k | N` and a kernel centered at a multiple of `k` (origin or
    /// `N/2`), the shifted box never wraps the periodic boundary.
    pub fn response_region(&self, domain: &BoxRegion, kernel: &dyn KernelSpectrum) -> BoxRegion {
        response_region(self.cfg.n, domain, kernel)
    }

    /// The sampling plan for one sub-domain's *response region*, memoized:
    /// repeated requests (decode paths, recovery claimants) share the plan
    /// the original computation used.
    pub fn plan_for(&self, domain: BoxRegion) -> Arc<SamplingPlan> {
        self.plans.plan_for(domain)
    }

    /// The memoized plan store (for cache-efficiency reporting).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// The coarsest sampling rate anywhere in the configured schedule —
    /// the cheapest resolution the deployment already tolerates far from a
    /// domain, and therefore the natural fidelity for emergency
    /// reconstruction of a dead rank's domains.
    pub fn coarsest_rate(&self) -> u32 {
        self.degraded_plans.schedule().far_rate
    }
}

/// The hotspot (response) region of a sub-domain of an `n³` grid under
/// `kernel`: the sub-domain translated by the kernel's spatial center.
pub(crate) fn response_region(n: usize, d: &BoxRegion, kernel: &dyn KernelSpectrum) -> BoxRegion {
    let c = kernel.center();
    let lo: [usize; 3] = std::array::from_fn(|a| (d.lo[a] + c[a]) % n);
    let hi: [usize; 3] = std::array::from_fn(|a| lo[a] + d.hi[a] - d.lo[a]);
    assert!(
        hi.iter().all(|&h| h <= n),
        "response region wraps the periodic boundary; kernel center \
         must be a multiple of the sub-domain size"
    );
    BoxRegion::new(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traditional::TraditionalConvolver;
    use lcc_greens::GaussianKernel;
    use lcc_grid::{relative_l2, Grid3};

    fn smooth_input(n: usize) -> Grid3<f64> {
        Grid3::from_fn((n, n, n), |x, y, z| {
            ((x as f64 * 0.4).sin() + (y as f64 * 0.25).cos()) * (1.0 + z as f64 * 0.05)
        })
    }

    #[test]
    fn lossless_schedule_matches_oracle_exactly() {
        let n = 16;
        let k = 8;
        let cfg = LowCommConfig {
            n,
            k,
            batch: 64,
            schedule: RateSchedule::uniform(1),
        };
        let conv = LowCommConvolver::new(cfg);
        let kernel = GaussianKernel::new(n, 1.2);
        let input = smooth_input(n);
        let (got, report) = conv.session(ConvolveMode::Normal).convolve(&input, &kernel);
        let want = TraditionalConvolver::new(n).convolve(&input, &kernel);
        let err = relative_l2(want.as_slice(), got.as_slice());
        assert!(err < 1e-9, "lossless end-to-end error {err}");
        assert_eq!(report.domains_processed, 8);
        assert_eq!(report.domains_skipped, 0);
    }

    #[test]
    fn adaptive_schedule_meets_paper_error_budget() {
        let n = 32;
        let k = 8;
        let conv = LowCommConvolver::new(LowCommConfig {
            n,
            k,
            batch: 256,
            schedule: RateSchedule::for_kernel_spread(k, 1.0, 16),
        });
        let kernel = GaussianKernel::new(n, 1.0);
        let input = smooth_input(n);
        let (got, report) = conv.session(ConvolveMode::Normal).convolve(&input, &kernel);
        let want = TraditionalConvolver::new(n).convolve(&input, &kernel);
        let err = relative_l2(want.as_slice(), got.as_slice());
        assert!(err < 0.03, "adaptive end-to-end error {err} above 3%");
        assert!(report.exchange_bytes > 0);
    }

    #[test]
    fn exchange_beats_dense_at_scale() {
        // Compression pays off once N ≫ k: a single active sub-domain on a
        // 64³ grid exchanges far less than one dense all-to-all stage.
        let n = 64;
        let k = 8;
        let conv = LowCommConvolver::new(LowCommConfig {
            n,
            k,
            batch: 512,
            schedule: RateSchedule::for_kernel_spread(k, 1.0, 16),
        });
        let kernel = GaussianKernel::new(n, 1.0);
        let mut input = Grid3::zeros((n, n, n));
        input[(4, 4, 4)] = 1.0;
        let (fields, report) = conv
            .session(ConvolveMode::Normal)
            .compress_domains(&input, &kernel);
        assert_eq!(fields.len(), 1);
        assert!(
            report.exchange_bytes * 4 < report.dense_stage_bytes,
            "exchange {} vs dense stage {}",
            report.exchange_bytes,
            report.dense_stage_bytes
        );
    }

    #[test]
    fn zero_domains_are_skipped() {
        let n = 16;
        let k = 4;
        let conv = LowCommConvolver::new(LowCommConfig::paper_default(n, k, 8));
        let kernel = GaussianKernel::new(n, 1.0);
        // Only one sub-domain nonzero.
        let mut input = Grid3::zeros((n, n, n));
        input[(5, 5, 5)] = 1.0;
        let (_, report) = conv.session(ConvolveMode::Normal).convolve(&input, &kernel);
        assert_eq!(report.domains_processed, 1);
        assert_eq!(report.domains_skipped, 63);
    }

    #[test]
    fn delta_input_reproduces_kernel_approximately() {
        let n = 32;
        let k = 8;
        let conv = LowCommConvolver::new(LowCommConfig::paper_default(n, k, 16));
        let kernel = GaussianKernel::new(n, 1.0);
        let mut input = Grid3::zeros((n, n, n));
        // Delta at the center of a sub-domain.
        input[(12, 12, 12)] = 1.0;
        let (got, _) = conv.session(ConvolveMode::Normal).convolve(&input, &kernel);
        // The kernel peaks at n/2, so a delta at (12,12,12) produces a
        // response peaking at (12 + 16) mod 32 = 28 along each axis.
        assert!((got[(28, 28, 28)] - 1.0).abs() < 0.01);
        // Mass conservation: sums match (DC bin is exact in every plan
        // because the domain itself is dense... approximately).
        let total: f64 = got.as_slice().iter().sum();
        let want: f64 = kernel.spatial().as_slice().iter().sum();
        assert!((total - want).abs() / want < 0.05, "mass error");
    }

    #[test]
    fn report_accounts_bytes() {
        let n = 16;
        let k = 8;
        let conv = LowCommConvolver::new(LowCommConfig::paper_default(n, k, 8));
        let kernel = GaussianKernel::new(n, 1.0);
        let input = smooth_input(n);
        let (fields, report) = conv
            .session(ConvolveMode::Normal)
            .compress_domains(&input, &kernel);
        let bytes: usize = fields.iter().map(|f| f.message_bytes()).sum();
        assert_eq!(report.exchange_bytes, bytes);
        let samples: usize = fields.iter().map(|f| f.plan().total_samples()).sum();
        assert_eq!(report.total_samples, samples);
    }
}
