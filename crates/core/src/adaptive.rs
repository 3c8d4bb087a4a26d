//! Low-communication convolution over *irregular* decompositions.
//!
//! The paper's Step 1 note — "for now, we assume regular volumetric
//! sub-domains but irregular partitions can also be made" — implemented:
//! the orchestrator accepts any power-of-two box tiling (e.g. from
//! [`lcc_grid::decompose_adaptive`]) and lazily plans one streaming
//! pipeline per distinct sub-domain size. Quiet regions ride in a few huge
//! boxes (skipped outright when zero), hot regions in small well-resolved
//! ones.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rayon::prelude::*;

use lcc_greens::KernelSpectrum;
use lcc_grid::{BoxRegion, Grid3};
use lcc_octree::{RateSchedule, SamplingPlan};

use crate::fold::fold_fields;
use crate::lowcomm::ConvolveReport;
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

    /// Response (hotspot) region of `domain` under `kernel` — the domain
    /// translated by the kernel center (must not wrap; see
    /// `LowCommConvolver::response_region`).
    pub fn response_region(&self, domain: &BoxRegion, kernel: &dyn KernelSpectrum) -> BoxRegion {
        let n = self.n;
        let c = kernel.center();
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        for a in 0..3 {
            lo[a] = (domain.lo[a] + c[a]) % n;
            hi[a] = lo[a] + (domain.hi[a] - domain.lo[a]);
            assert!(hi[a] <= n, "response region wraps the periodic boundary");
        }
        BoxRegion::new(lo, hi)
    }

    /// Convolves `input` over the given tiling, accumulating all domain
    /// contributions into the dense approximate result.
    pub fn convolve(
        &self,
        input: &Grid3<f64>,
        kernel: &dyn KernelSpectrum,
        domains: &[BoxRegion],
    ) -> (Grid3<f64>, ConvolveReport) {
        let n = self.n;
        assert_eq!(input.shape(), (n, n, n), "input shape mismatch");
        // Validate the tiling covers the grid exactly.
        let vol: usize = domains.iter().map(|b| b.volume()).sum();
        assert_eq!(vol, n * n * n, "domains must tile the grid");

        let fields: Vec<_> = domains
            .par_iter()
            .map(|d| {
                let (sx, sy, sz) = d.size();
                assert!(sx == sy && sy == sz, "sub-domains must be cubes");
                // Tested in place: a skipped domain costs no copy.
                if input.all_in(d, |&v| v == 0.0) {
                    return None;
                }
                let sub = input.extract(d);
                let k = sx;
                let plan = Arc::new(SamplingPlan::build(
                    n,
                    self.response_region(d, kernel),
                    &self.schedule_for(k),
                ));
                Some(
                    self.local_for(k)
                        .convolve_compressed(&sub, d.lo, kernel, plan),
                )
            })
            .collect();

        let mut report = ConvolveReport {
            dense_stage_bytes: n * n * n * 16,
            domains_skipped: fields.iter().filter(|f| f.is_none()).count(),
            ..Default::default()
        };
        for f in fields.iter().flatten() {
            report.domains_processed += 1;
            report.total_samples += f.plan().total_samples();
            report.exchange_bytes += f.message_bytes();
        }
        let mut out = Grid3::zeros((n, n, n));
        fold_fields(fields.iter().flatten(), &BoxRegion::cube(n), &mut out);
        (out, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            conv.response_region(&d, &kernel),
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
}
