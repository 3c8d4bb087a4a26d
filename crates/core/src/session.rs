//! The unified convolve entry point.
//!
//! Historically the convolver grew six near-duplicate methods
//! (`compress_domains` / `compress_domain_degraded` / `compress_domain_exact`,
//! `accumulate` / `accumulate_degraded` / `accumulate_with_recovery`) as the
//! fault-tolerance work landed. A [`ConvolveSession`] collapses them behind
//! one surface: the caller states *how the run should treat missing domains*
//! once — via [`ConvolveMode`] — and every compress/accumulate call
//! dispatches on it. The session also carries an optional
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
use lcc_grid::{BoxRegion, Grid3};
use lcc_obs::metrics as obs;
use lcc_octree::CompressedField;

use crate::lowcomm::{ConvolveReport, LowCommConvolver};
use crate::recovery::RecoveryPolicy;

/// How a convolve run treats domains whose owning rank is gone.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConvolveMode {
    /// Fault-free run: every domain compressed exactly; accumulation
    /// expects no orphans.
    Normal,
    /// Graceful degradation: orphaned domains are rebuilt locally at the
    /// schedule's *coarsest* uniform rate — availability over accuracy.
    /// [`ConvolveSession::compress_domain`] also compresses at the coarse
    /// rate in this mode (a survivor producing an emergency contribution).
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

    /// Compresses every (nonzero) sub-domain of `input` exactly — the
    /// local-computation phase that replaces the distributed FFT. Identical
    /// in every mode: degradation and recovery only concern *missing*
    /// contributions, never the ones a live rank computes for itself.
    pub fn compress_domains(
        &self,
        input: &Grid3<f64>,
        kernel: &dyn KernelSpectrum,
    ) -> (Vec<CompressedField>, ConvolveReport) {
        let _sp = lcc_obs::span("session_compress_domains");
        self.conv.compress_domains_impl(input, kernel)
    }

    /// Compresses one sub-domain's contribution, dispatching on the mode:
    /// exact (memoized schedule plan) in `Normal` and `Recover`, the
    /// coarsest uniform rate in `Degraded`. Returns `None` for
    /// identically-zero domains.
    pub fn compress_domain(
        &self,
        input: &Grid3<f64>,
        domain: &BoxRegion,
        kernel: &dyn KernelSpectrum,
    ) -> Option<CompressedField> {
        let _sp = lcc_obs::span("session_compress_domain");
        let degraded = matches!(self.mode, ConvolveMode::Degraded);
        let f = self
            .conv
            .compress_domain_impl(input, domain, kernel, degraded);
        match &f {
            Some(_) => {
                obs::CONVOLVE_DOMAINS_PROCESSED.incr();
                if degraded {
                    obs::CONVOLVE_DOMAINS_DEGRADED.incr();
                }
            }
            None => obs::CONVOLVE_DOMAINS_SKIPPED.incr(),
        }
        f
    }

    /// Plain accumulation: sums the given contributions in slice order into
    /// the dense result. No orphan handling — use [`Self::accumulate`] when
    /// ranks may be missing.
    pub fn accumulate_fields(&self, fields: &[CompressedField]) -> Grid3<f64> {
        let _sp = lcc_obs::span("session_accumulate");
        self.conv.accumulate_impl(fields)
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
        let count_recovered = matches!(self.mode, ConvolveMode::Recover(_));
        let (recovered, degraded): (Vec<_>, Vec<_>) = orphans
            .iter()
            .partition(|(id, _)| contributions.contains_key(id));
        let recovered: Vec<usize> = if count_recovered {
            recovered.into_iter().map(|(id, _)| id).collect()
        } else {
            Vec::new()
        };
        self.conv
            .accumulate_map_impl(contributions, input, kernel, &recovered, &degraded, region)
    }

    /// Full fault-free pipeline: compress every sub-domain, then
    /// accumulate. Bit-identical to the legacy
    /// [`LowCommConvolver::convolve`] fold.
    pub fn convolve(
        &self,
        input: &Grid3<f64>,
        kernel: &dyn KernelSpectrum,
    ) -> (Grid3<f64>, ConvolveReport) {
        let _sp = lcc_obs::span("session_convolve");
        let (fields, report) = self.conv.compress_domains_impl(input, kernel);
        (self.conv.accumulate_impl(&fields), report)
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

    #[test]
    fn normal_session_matches_legacy_convolve_bitwise() {
        let n = 16;
        let conv = LowCommConvolver::new(LowCommConfig::paper_default(n, 4, 8));
        let kernel = GaussianKernel::new(n, 1.0);
        let input = smooth_input(n);
        let (legacy, legacy_report) = conv.convolve(&input, &kernel);
        let session = conv.session(ConvolveMode::Normal);
        let (got, report) = session.convolve(&input, &kernel);
        assert_eq!(
            legacy.as_slice(),
            got.as_slice(),
            "session must be bit-identical"
        );
        assert_eq!(legacy_report.domains_processed, report.domains_processed);
        assert_eq!(legacy_report.exchange_bytes, report.exchange_bytes);
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
