//! Poisson solver via Green's-function convolution.
//!
//! The paper cites Poisson's equation (Eq. 5, `G = 1/(4π|x−x₀|)`) as the
//! canonical member of the kernel family its method targets, and
//! Hockney-style solvers as an application that "exploit[s] zero-structure".
//! This example solves a discrete Poisson problem with charges confined to
//! a few sub-domains — exactly the sparse-input case where the
//! zero-domain-skipping of the low-communication pipeline shines — and
//! compares accuracy/compression across far-field sampling rates.
//!
//! ```sh
//! cargo run --release --example poisson_hockney
//! ```

use lcc_core::{ConvolveMode, LowCommConfig, LowCommConvolver, TraditionalConvolver};
use lcc_greens::PoissonSpectrum;
use lcc_grid::{relative_l2, Grid3};
use lcc_octree::{RateBand, RateSchedule};

fn main() {
    let n = 64;
    let k = 16;
    let spectrum = PoissonSpectrum::new(n);

    // A zero-mean charge distribution confined to two sub-domains: a dipole.
    let mut rho = Grid3::zeros((n, n, n));
    for d in 0..4 {
        rho[(8 + d, 8, 8)] = 1.0;
        rho[(40 + d, 40, 40)] = -1.0;
    }

    let exact = TraditionalConvolver::new(n).convolve(&rho, &spectrum);

    println!(
        "Poisson dipole on {n}³, charges in 2 of {} sub-domains",
        (n / k).pow(3)
    );
    println!(
        "{:<10} {:>14} {:>14} {:>12}",
        "far rate", "samples", "bytes", "rel. L2 err"
    );
    for far in [2u32, 4, 8, 16] {
        // 1/r decays slowly, so keep a dense halo and an r=2 transition;
        // the far band (periodic distance > k on this 64³ grid) carries the
        // swept rate. (Note 4k would exceed the largest periodic distance
        // here — the bands must fit the grid.)
        let schedule = RateSchedule {
            bands: vec![
                RateBand {
                    max_distance: k / 2,
                    rate: 1,
                },
                RateBand {
                    max_distance: k,
                    rate: 2,
                },
            ],
            far_rate: far,
            boundary_width: 0,
            boundary_rate: 1,
        };
        let conv = LowCommConvolver::new(LowCommConfig {
            n,
            k,
            batch: 1024,
            schedule,
        });
        let (approx, report) = conv.session(ConvolveMode::Normal).convolve(&rho, &spectrum);
        let err = relative_l2(exact.as_slice(), approx.as_slice());
        println!(
            "{:<10} {:>14} {:>14} {:>12.4}",
            far, report.total_samples, report.exchange_bytes, err
        );
        assert_eq!(
            report.domains_processed, 2,
            "only the charged domains compute"
        );
        assert_eq!(report.domains_skipped, (n / k).pow(3) - 2);
    }
    println!("(accuracy degrades gracefully as the far field is sampled more coarsely)");
}
