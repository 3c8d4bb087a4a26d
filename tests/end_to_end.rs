//! Cross-crate end-to-end validation: the full low-communication pipeline
//! against the dense oracle, across kernels, schedules, and geometries.

use lcc_core::{ConvolveMode, LowCommConfig, LowCommConvolver, TraditionalConvolver};
use lcc_greens::{GaussianKernel, KernelSpectrum, PoissonSpectrum};
use lcc_grid::{relative_l2, Grid3};
use lcc_octree::RateSchedule;

fn wavy(n: usize) -> Grid3<f64> {
    Grid3::from_fn((n, n, n), |x, y, z| {
        ((x as f64 * 0.37).sin() + (y as f64 * 0.21).cos()) * (1.0 + 0.03 * z as f64)
    })
}

#[test]
fn gaussian_kernel_paper_tolerance_n32() {
    let n = 32;
    let k = 8;
    let sigma = 1.0;
    let kernel = GaussianKernel::new(n, sigma);
    let conv = LowCommConvolver::new(LowCommConfig {
        n,
        k,
        batch: 512,
        schedule: RateSchedule::for_kernel_spread(k, sigma, 16),
    });
    let input = wavy(n);
    let (approx, report) = conv.session(ConvolveMode::Normal).convolve(&input, &kernel);
    let exact = TraditionalConvolver::new(n).convolve(&input, &kernel);
    let err = relative_l2(exact.as_slice(), approx.as_slice());
    assert!(err < 0.03, "error {err} above tolerance");
    assert_eq!(report.domains_processed, (n / k).pow(3));
}

#[test]
fn gaussian_kernel_n64_compression_wins() {
    let n = 64;
    let k = 16;
    let sigma = 2.0;
    let kernel = GaussianKernel::new(n, sigma);
    let conv = LowCommConvolver::new(LowCommConfig {
        n,
        k,
        batch: 1024,
        schedule: RateSchedule::for_kernel_spread(k, sigma, 16),
    });
    let input = wavy(n);
    let (approx, report) = conv.session(ConvolveMode::Normal).convolve(&input, &kernel);
    let exact = TraditionalConvolver::new(n).convolve(&input, &kernel);
    let err = relative_l2(exact.as_slice(), approx.as_slice());
    assert!(err < 0.03, "error {err} above tolerance");
    // Per-domain compression: a domain's samples are far below dense N³.
    let per_domain = report.total_samples / report.domains_processed;
    assert!(
        per_domain * 4 < n * n * n,
        "per-domain samples {per_domain} too dense for N³ = {}",
        n * n * n
    );
}

#[test]
fn poisson_kernel_with_conservative_schedule() {
    // 1/r decay is the slowest kernel the paper targets; with a conservative
    // schedule the error stays within a few percent.
    let n = 32;
    let k = 8;
    let spectrum = PoissonSpectrum::new(n);
    let mut rho = Grid3::zeros((n, n, n));
    rho[(4, 4, 4)] = 1.0;
    rho[(20, 20, 20)] = -1.0;
    let conv = LowCommConvolver::new(LowCommConfig {
        n,
        k,
        batch: 512,
        schedule: RateSchedule::for_kernel_spread(k, 4.0, 4),
    });
    let (approx, report) = conv.session(ConvolveMode::Normal).convolve(&rho, &spectrum);
    let exact = TraditionalConvolver::new(n).convolve(&rho, &spectrum);
    let err = relative_l2(exact.as_slice(), approx.as_slice());
    assert!(err < 0.05, "Poisson error {err}");
    assert_eq!(report.domains_processed, 2, "zero domains must be skipped");
}

#[test]
fn error_decreases_with_denser_far_field() {
    let n = 32;
    let k = 8;
    let kernel = GaussianKernel::new(n, 2.0);
    let input = wavy(n);
    let exact = TraditionalConvolver::new(n).convolve(&input, &kernel);
    let mut last = f64::INFINITY;
    for far in [32u32, 8, 2] {
        let conv = LowCommConvolver::new(LowCommConfig {
            n,
            k,
            batch: 512,
            schedule: RateSchedule::for_kernel_spread(k, 2.0, far),
        });
        let (approx, _) = conv.session(ConvolveMode::Normal).convolve(&input, &kernel);
        let err = relative_l2(exact.as_slice(), approx.as_slice());
        assert!(
            err <= last * 1.2,
            "error should not grow as sampling densifies: {err} after {last}"
        );
        last = err;
    }
}

#[test]
fn kernel_center_drives_response_region() {
    // The Gaussian (centered N/2) and an origin-centered kernel place their
    // hotspots differently; both must reconstruct fine.
    let n = 32;
    let k = 8;
    let input = {
        let mut g = Grid3::zeros((n, n, n));
        g[(10, 10, 10)] = 1.0;
        g
    };
    let gauss = GaussianKernel::new(n, 1.5);
    assert_eq!(gauss.center(), [16, 16, 16]);
    let poisson = PoissonSpectrum::new(n);
    assert_eq!(poisson.center(), [0, 0, 0]);
    for (name, kern) in [
        ("gaussian", &gauss as &dyn KernelSpectrum),
        ("poisson", &poisson as &dyn KernelSpectrum),
    ] {
        let conv = LowCommConvolver::new(LowCommConfig {
            n,
            k,
            batch: 512,
            schedule: RateSchedule::for_kernel_spread(k, 3.0, 4),
        });
        let (approx, _) = conv.session(ConvolveMode::Normal).convolve(&input, kern);
        let exact = TraditionalConvolver::new(n).convolve(&input, kern);
        let err = relative_l2(exact.as_slice(), approx.as_slice());
        assert!(err < 0.05, "{name}: error {err}");
    }
}

#[test]
fn massif_gamma_component_convolution_cross_crate() {
    // A single Γ̂ component through the generic pipeline vs the dense path.
    use lcc_greens::{GammaComponentKernel, MassifGamma};
    let n = 16;
    let k = 8;
    let gamma = MassifGamma::new(n, 1.0, 1.0);
    let kernel = GammaComponentKernel::new(gamma, (0, 0), (0, 0));
    let input = wavy(n);
    let conv = LowCommConvolver::new(LowCommConfig {
        n,
        k,
        batch: 256,
        schedule: RateSchedule::uniform(1),
    });
    let (approx, _) = conv.session(ConvolveMode::Normal).convolve(&input, &kernel);
    let exact = TraditionalConvolver::new(n).convolve(&input, &kernel);
    let err = relative_l2(exact.as_slice(), approx.as_slice());
    assert!(err < 1e-9, "lossless Γ̂ component error {err}");
}
