//! Algorithms 1 & 2: MASSIF fixed-point convergence with the dense spectral
//! inner loop vs the low-communication compressed inner loop.
//!
//! §5.3: "For MASSIF, a fixed-point simulation, convolution error up to 3%
//! did not largely impact convergence or number of iterations." This
//! regenerator runs both on the same composite microstructure and prints
//! the residual histories side by side, then asserts §5.3's shape: both
//! converge, within two iterations, to effective σ_xx within 3 %.

use lcc_bench::time_ms;
use lcc_core::LowCommConfig;
use lcc_greens::MassifGamma;
use lcc_grid::{IsotropicStiffness, Sym3};
use lcc_massif::{solve, LowCommGamma, Microstructure, SolverConfig, SpectralGamma};
use lcc_octree::RateSchedule;

fn main() {
    let n = 32usize;
    let matrix = IsotropicStiffness::from_engineering(3.5, 0.35);
    let inclusion = IsotropicStiffness::from_engineering(70.0, 0.22);
    let micro = Microstructure::random_spheres(n, 6, 5.0, matrix, inclusion, 20220829);
    let vf = micro.volume_fractions();
    let r = micro.reference_medium();
    let gamma = MassifGamma::new(n, r.lambda, r.mu);
    let e = Sym3::diagonal(0.01, 0.0, 0.0);
    // Tolerance sits above Algorithm 2's compression-error floor (~1e-3 at
    // this schedule): §5.3's claim is about convergence at the tolerances
    // the application actually uses, not below the approximation error.
    let cfg = SolverConfig {
        max_iters: 30,
        tol: 2.5e-3,
    };

    println!(
        "MASSIF convergence — {n}³ composite, inclusion fraction {:.3}",
        vf[1]
    );
    let (alg1, t1) = time_ms(|| solve(&micro, e, cfg, &SpectralGamma::new(gamma)));
    let engine = LowCommGamma::new(
        gamma,
        LowCommConfig {
            n,
            k: 8,
            batch: 512,
            schedule: RateSchedule::for_kernel_spread(8, 1.5, 8),
        },
    );
    let (alg2, t2) = time_ms(|| solve(&micro, e, cfg, &engine));

    println!(
        "\n{:<6} {:>18} {:>18}",
        "iter", "Alg1 residual", "Alg2 residual"
    );
    let rows = alg1.residuals.len().max(alg2.residuals.len());
    for i in 0..rows {
        let a = alg1
            .residuals
            .get(i)
            .map(|v| format!("{v:.4e}"))
            .unwrap_or_default();
        let b = alg2
            .residuals
            .get(i)
            .map(|v| format!("{v:.4e}"))
            .unwrap_or_default();
        println!("{:<6} {:>18} {:>18}", i + 1, a, b);
    }

    let (s1, s2) = (alg1.effective_stress().c[0], alg2.effective_stress().c[0]);
    println!(
        "\nAlg1: converged={} iters={} time={:.1} ms ({:.2} ms/iter)  sigma_xx_eff={s1:.5}",
        alg1.converged,
        alg1.iterations(),
        t1,
        t1 / alg1.iterations().max(1) as f64,
    );
    println!(
        "Alg2: converged={} iters={} time={:.1} ms ({:.2} ms/iter)  sigma_xx_eff={s2:.5}",
        alg2.converged,
        alg2.iterations(),
        t2,
        t2 / alg2.iterations().max(1) as f64,
    );
    println!(
        "strain-field deviation Alg2 vs Alg1: {:.3e}",
        alg2.strain.relative_error_to(&alg1.strain)
    );
    let shape = alg1.converged
        && alg2.converged
        && alg1.iterations().abs_diff(alg2.iterations()) <= 2
        && (s2 - s1).abs() <= 0.03 * s1.abs();
    assert!(
        shape,
        "§5.3: both must converge, within 2 iterations, to sigma_xx within 3%"
    );
}
