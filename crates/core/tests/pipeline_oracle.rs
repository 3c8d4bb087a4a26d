//! The half-spectrum pipeline against the dense oracle.
//!
//! `LocalConvolver` forms only the `n/2 + 1` non-redundant bins of y and
//! multiplies by the Hermitian part of the kernel spectrum;
//! `TraditionalConvolver` does the same along z over the whole grid, with
//! no sub-domain, padding or sampling (and is itself checked against the
//! full-complex `lcc_fft::cyclic_convolve_3d`). Under a lossless plan the
//! two must agree to round-off for every kernel the workspace ships — including the one that
//! is not Hermitian on the grid — at every grid size the pipeline accepts:
//! `n = 2` (half-length-1 c2r), sizes with and without a self-paired bin,
//! non-powers of two, and odd `n` (the c2r's fallback, no Nyquist bin).

use std::sync::Arc;

use proptest::prelude::*;

use lcc_core::{LocalConvolver, TraditionalConvolver};
use lcc_greens::{
    hermitian_defect, GammaComponentKernel, GaussianKernel, KernelSpectrum, MassifGamma,
    PoissonSpectrum, ScreenedPoissonSpectrum,
};
use lcc_grid::{relative_l2, BoxRegion, Grid3};
use lcc_octree::{RateSchedule, SamplingPlan};

/// `Γ̂_0001 ∝ ξ₀ξ₁(…)`: odd in `ξ₀` and in `ξ₁`.
fn odd_gamma_component(n: usize) -> GammaComponentKernel {
    GammaComponentKernel::new(MassifGamma::new(n, 1.3, 0.8), (0, 0), (0, 1))
}

/// A rate-1 plan over the whole grid: the octree proper needs a power of
/// two, any other `n` gets the one-cell plan its wire form decodes to.
fn lossless_plan(n: usize, domain: BoxRegion) -> Arc<SamplingPlan> {
    let plan = if n.is_power_of_two() {
        SamplingPlan::build(n, domain, &RateSchedule::uniform(1))
    } else {
        SamplingPlan::decode(n, domain, &[0, 0, 0, 1, 0], (n * n * n) as u64)
            .expect("one rate-1 cell of size n")
    };
    Arc::new(plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lossless_convolve_matches_dense_oracle(
        n in prop_oneof![
            Just(2usize), Just(4), Just(6), Just(8), Just(12), Just(16),
            Just(9), Just(15),
        ],
        kernel_pick in 0usize..4,
        k_pick in 0usize..16,
        batch in prop_oneof![Just(1usize), Just(7), Just(64)],
        corner in (0usize..64, 0usize..64, 0usize..64),
        seed in 0u64..1000,
    ) {
        let divisors: Vec<usize> = (1..=n).filter(|d| n % d == 0).collect();
        let k = divisors[k_pick % divisors.len()];
        // Any corner inside the grid: the sub-domain may wrap around the
        // periodic boundary on every axis.
        let corner = [corner.0 % n, corner.1 % n, corner.2 % n];

        // The Gaussian needs an even grid; the other three take any n.
        let kernel: Box<dyn KernelSpectrum> = match kernel_pick % (3 + (n + 1) % 2) {
            0 => Box::new(PoissonSpectrum::new(n)),
            1 => Box::new(ScreenedPoissonSpectrum::new(n, 0.6)),
            2 => Box::new(odd_gamma_component(n)),
            _ => Box::new(GaussianKernel::new(n, 1.1)),
        };
        let kernel = kernel.as_ref();

        let sub = Grid3::from_fn((k, k, k), |x, y, z| {
            0.3 + ((x * 3 + y * 5 + z * 7) as f64 * 0.31 + seed as f64 * 0.013).sin()
        });
        let mut dense = Grid3::zeros((n, n, n));
        for ((x, y, z), &v) in sub.indexed_iter() {
            dense[((corner[0] + x) % n, (corner[1] + y) % n, (corner[2] + z) % n)] = v;
        }
        let want = TraditionalConvolver::new(n).convolve(&dense, kernel);

        // The plan's domain only steers sampling rates; rate 1 everywhere
        // makes it irrelevant, so a wrapping sub-domain needs no box.
        let got = LocalConvolver::new(n, k, batch)
            .convolve_compressed(&sub, corner, kernel, lossless_plan(n, BoxRegion::cube(n)))
            .reconstruct();
        let err = relative_l2(want.as_slice(), got.as_slice());
        prop_assert!(
            err <= 1e-10,
            "n={n} k={k} batch={batch} corner={corner:?} kernel #{kernel_pick}: {err}"
        );
    }
}

#[test]
fn odd_gamma_component_is_non_hermitian_exactly_on_nyquist_bins() {
    // The finding the pipeline's Hermitian projection exists for: `wrap_freq`
    // maps both ±n/2 to +n/2, so a component odd in ξᵢ cannot flip sign with
    // it there. Everywhere else (and on grids without a Nyquist bin) Γ̂ is
    // the spectrum of a real kernel.
    let n = 8;
    let comp = odd_gamma_component(n);
    assert!(hermitian_defect(&comp) > 0.1);
    let neg = |f: usize| (n - f) % n;
    for f0 in 0..n {
        for f1 in 0..n {
            for f2 in 0..n {
                let d = comp.eval([f0, f1, f2]) - comp.eval([neg(f0), neg(f1), neg(f2)]).conj();
                if ![f0, f1, f2].contains(&(n / 2)) {
                    assert_eq!(d.norm(), 0.0, "bin ({f0},{f1},{f2})");
                }
            }
        }
    }
    assert!(hermitian_defect(&odd_gamma_component(9)) <= 1e-12);
    // A component even in every ξᵢ is Hermitian on Nyquist bins too.
    let even = GammaComponentKernel::new(MassifGamma::new(n, 1.3, 0.8), (0, 1), (0, 1));
    assert!(hermitian_defect(&even) <= 1e-12);
}
