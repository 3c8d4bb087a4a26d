//! Low-communication convolution over *irregular* decompositions.
//!
//! The paper's Step 1 note — "for now, we assume regular volumetric
//! sub-domains but irregular partitions can also be made" — implemented:
//! the orchestrator accepts any power-of-two box tiling (e.g. from
//! [`lcc_grid::decompose_adaptive`]) and lazily plans one streaming
//! pipeline per distinct sub-domain size. Quiet regions ride in a few huge
//! boxes (skipped outright when zero), hot regions in small well-resolved
//! ones. The tiling runs through the session's domain loop
//! ([`crate::fold`]); only the pipeline and the schedule depend on the box.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use lcc_greens::KernelSpectrum;
use lcc_grid::{BoxRegion, Grid3};
use lcc_octree::{RateSchedule, SamplingPlan};

use crate::fold::DomainStep;
use crate::lowcomm::{response_region, ConvolveReport};
use crate::pipeline::LocalConvolver;

/// Convolver over variable-size sub-domains.
pub struct AdaptiveConvolver {
    n: usize,
    batch: usize,
    /// Kernel spread driving the per-size schedules.
    spread: f64,
    far_rate: u32,
    locals: Mutex<HashMap<usize, Arc<LocalConvolver>>>,
}

impl AdaptiveConvolver {
    /// Creates the convolver; `spread` parameterizes each sub-domain size's
    /// schedule via [`RateSchedule::for_kernel_spread`].
    pub fn new(n: usize, batch: usize, spread: f64, far_rate: u32) -> Self {
        assert!(n.is_power_of_two(), "grid must be a power of two");
        AdaptiveConvolver {
            n,
            batch,
            spread,
            far_rate,
            locals: Mutex::new(HashMap::new()),
        }
    }

    /// Grid size.
    pub fn n(&self) -> usize {
        self.n
    }

    fn local_for(&self, k: usize) -> Arc<LocalConvolver> {
        if let Some(l) = self.locals.lock().get(&k) {
            return l.clone();
        }
        let l = Arc::new(LocalConvolver::new(self.n, k, self.batch));
        self.locals.lock().entry(k).or_insert(l).clone()
    }

    /// The schedule used for a sub-domain of size `k`.
    pub fn schedule_for(&self, k: usize) -> RateSchedule {
        RateSchedule::for_kernel_spread(k, self.spread, self.far_rate)
    }

    /// Convolves `input` over the given tiling, accumulating all domain
    /// contributions into the dense approximate result.
    ///
    /// Panics unless `domains` are cubes that tile the grid exactly: none
    /// outside it, none overlapping, no point uncovered.
    pub fn convolve(
        &self,
        input: &Grid3<f64>,
        kernel: &dyn KernelSpectrum,
        domains: &[BoxRegion],
    ) -> (Grid3<f64>, ConvolveReport) {
        let n = self.n;
        assert_eq!(input.shape(), (n, n, n), "input shape mismatch");
        let mut covered = vec![false; n * n * n];
        for d in domains {
            let (sx, sy, sz) = d.size();
            assert!(sx == sy && sy == sz, "sub-domains must be cubes");
            assert!(d.hi.iter().all(|&h| h <= n), "domains must tile the grid");
            for [x, y, z] in d.points() {
                let seen = std::mem::replace(&mut covered[(x * n + y) * n + z], true);
                assert!(!seen, "domains must tile the grid, not overlap");
            }
        }
        assert!(covered.iter().all(|&c| c), "domains must tile the grid");

        let step = DomainStep {
            inputs: [input],
            plan: |d: &BoxRegion| {
                let (region, schedule) =
                    (response_region(n, d, kernel), self.schedule_for(d.size().0));
                Arc::new(SamplingPlan::build(n, region, &schedule))
            },
            local: |d: &BoxRegion, plan| {
                let local = self.local_for(d.size().0);
                [local.convolve_compressed(&input.extract(d), d.lo, kernel, plan)]
            },
            degraded_rate: None,
        };
        let ([out], report) = step.fold(domains, &BoxRegion::cube(n));
        (out, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::fold_fields;
    use crate::traditional::TraditionalConvolver;
    use lcc_greens::GaussianKernel;
    use lcc_grid::{decompose_adaptive, relative_l2, AdaptiveDecomposition};

    #[test]
    fn irregular_tiling_matches_oracle() {
        let n = 32;
        let sigma = 1.0;
        let kernel = GaussianKernel::new(n, sigma);
        // Concentrated input: two hot spots, vast quiet space.
        let mut input = Grid3::zeros((n, n, n));
        input[(3, 3, 3)] = 5.0;
        input[(20, 24, 8)] = -2.0;
        let domains = decompose_adaptive(&input, AdaptiveDecomposition::new(4, 16));
        let conv = AdaptiveConvolver::new(n, 512, sigma, 16);
        let (approx, report) = conv.convolve(&input, &kernel, &domains);
        let exact = TraditionalConvolver::new(n).convolve(&input, &kernel);
        let err = relative_l2(exact.as_slice(), approx.as_slice());
        assert!(err < 0.03, "adaptive-tiling error {err}");
        assert!(report.domains_skipped > report.domains_processed);
        // Small domains around the energy: fewer samples than a regular
        // decomposition at the finest size would need.
        assert!(report.domains_processed <= 4);
    }

    #[test]
    fn zero_outside_one_domain_convolves_only_it() {
        let n = 16;
        let conv = AdaptiveConvolver::new(n, 64, 1.0, 8);
        let kernel = GaussianKernel::new(n, 1.0);
        let domains = lcc_grid::decompose_uniform(n, 4);
        let d = BoxRegion::new([4, 8, 12], [8, 12, 16]);
        let input = Grid3::from_fn((n, n, n), |x, y, z| {
            if d.contains([x, y, z]) {
                1.5 + ((x * 3 + y * 5 + z * 7) as f64 * 0.3).sin()
            } else {
                0.0
            }
        });
        let (got, report) = conv.convolve(&input, &kernel, &domains);
        assert_eq!(report.domains_processed, 1);
        assert_eq!(report.domains_skipped, domains.len() - 1);
        // Bitwise that one domain's own contribution.
        let plan = Arc::new(SamplingPlan::build(
            n,
            response_region(n, &d, &kernel),
            &conv.schedule_for(4),
        ));
        let field = conv
            .local_for(4)
            .convolve_compressed(&input.extract(&d), d.lo, &kernel, plan);
        let mut want = Grid3::zeros((n, n, n));
        fold_fields([&field], &BoxRegion::cube(n), &mut want);
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn mixed_sizes_are_cached() {
        let n = 16;
        let conv = AdaptiveConvolver::new(n, 64, 1.0, 8);
        let kernel = GaussianKernel::new(n, 1.0);
        let input = Grid3::from_fn((n, n, n), |x, _, _| if x < 8 { 1.0 } else { 0.0 });
        // Hand-built irregular tiling: one 8³ + 8 more 8³... use two sizes:
        let mut domains = vec![BoxRegion::new([0; 3], [8; 3])];
        // remaining seven 8³ octants
        for dx in 0..2 {
            for dy in 0..2 {
                for dz in 0..2 {
                    if (dx, dy, dz) != (0, 0, 0) {
                        domains.push(BoxRegion::new(
                            [dx * 8, dy * 8, dz * 8],
                            [dx * 8 + 8, dy * 8 + 8, dz * 8 + 8],
                        ));
                    }
                }
            }
        }
        // Split the first octant into 4³ cubes instead.
        let first = domains.remove(0);
        for dx in 0..2 {
            for dy in 0..2 {
                for dz in 0..2 {
                    domains.push(BoxRegion::new(
                        [
                            first.lo[0] + dx * 4,
                            first.lo[1] + dy * 4,
                            first.lo[2] + dz * 4,
                        ],
                        [
                            first.lo[0] + dx * 4 + 4,
                            first.lo[1] + dy * 4 + 4,
                            first.lo[2] + dz * 4 + 4,
                        ],
                    ));
                }
            }
        }
        let (out, _) = conv.convolve(&input, &kernel, &domains);
        let exact = TraditionalConvolver::new(n).convolve(&input, &kernel);
        let err = relative_l2(exact.as_slice(), out.as_slice());
        assert!(err < 0.03, "mixed-size error {err}");
        assert_eq!(conv.locals.lock().len(), 2, "two pipeline sizes planned");
    }

    #[test]
    #[should_panic(expected = "tile the grid")]
    fn incomplete_tiling_rejected() {
        let n = 16;
        let conv = AdaptiveConvolver::new(n, 64, 1.0, 8);
        let kernel = GaussianKernel::new(n, 1.0);
        let input = Grid3::zeros((n, n, n));
        conv.convolve(&input, &kernel, &[BoxRegion::new([0; 3], [8; 3])]);
    }

    #[test]
    #[should_panic(expected = "tile the grid")]
    fn overlapping_tiling_with_full_volume_rejected() {
        // Octant 0 listed twice and octant 7 missing: Σ volume is n³, yet
        // one region would count twice and another not at all.
        let n = 16;
        let conv = AdaptiveConvolver::new(n, 64, 1.0, 8);
        let kernel = GaussianKernel::new(n, 1.0);
        let input = Grid3::zeros((n, n, n));
        let mut domains = lcc_grid::decompose_uniform(n, 8);
        assert_eq!(domains.pop(), Some(BoxRegion::new([8; 3], [16; 3])));
        domains.push(domains[0]);
        conv.convolve(&input, &kernel, &domains);
    }
}
