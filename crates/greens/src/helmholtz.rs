//! Screened Poisson (Yukawa / modified Helmholtz) Green's function.
//!
//! The paper motivates its kernel family with "complicated equations
//! relating to heat flow, light and particle scattering" (§3.2). The
//! screened Poisson operator `(−∇² + κ²)` is the canonical such kernel:
//! its free-space Green's function `e^{−κr}/(4πr)` decays *faster* than
//! Poisson's `1/(4πr)` — the screening length `1/κ` plays exactly the role
//! of the Gaussian's σ in the sampling schedule. Implicit-diffusion steps
//! (`u − Δt·∇²u = f`) are this kernel with `κ² = 1/Δt`, which is the "heat
//! flow" instance.

use lcc_fft::tile::Row;
use lcc_fft::Complex64;
use lcc_grid::Grid3;

use crate::kernel::{real_tile, KernelSpectrum};
use crate::poisson::laplacian_table;

/// Spectral inverse of the discrete screened Laplacian
/// `Ĝ(ξ) = 1 / (κ² + Σᵢ (2 − 2cos(2πfᵢ/n)))` on a periodic `n³` grid.
///
/// Unlike the pure Poisson kernel there is no zero-mode gauge: `κ > 0`
/// makes the operator invertible everywhere.
#[derive(Clone, Debug)]
pub struct ScreenedPoissonSpectrum {
    kappa: f64,
    /// [`laplacian_table`]; its length is the grid size.
    c: Vec<f64>,
}

impl ScreenedPoissonSpectrum {
    /// Creates the spectrum; `kappa > 0`.
    pub fn new(n: usize, kappa: f64) -> Self {
        assert!(
            kappa > 0.0,
            "kappa must be positive (use PoissonSpectrum for kappa = 0)"
        );
        ScreenedPoissonSpectrum {
            kappa,
            c: laplacian_table(n),
        }
    }

    /// The screening parameter κ.
    pub fn kappa(&self) -> f64 {
        self.kappa
    }

    /// The screening length `1/κ` — the natural `spread` input for
    /// [`lcc_octree`-style] sampling schedules.
    pub fn screening_length(&self) -> f64 {
        1.0 / self.kappa
    }

    /// Discrete symbol `κ² + Σᵢ (2 − 2cos(2πfᵢ/n))` at bin `f`.
    pub fn symbol(&self, f: [usize; 3]) -> f64 {
        self.kappa * self.kappa + (self.c[f[0]] + self.c[f[1]] + self.c[f[2]])
    }
}

impl KernelSpectrum for ScreenedPoissonSpectrum {
    fn n(&self) -> usize {
        self.c.len()
    }

    fn eval(&self, f: [usize; 3]) -> Complex64 {
        Complex64::from_real(1.0 / self.symbol(f))
    }

    fn eval_pencil_axis2(&self, f0: usize, f1: usize, out: &mut [Complex64]) {
        assert_eq!(out.len(), self.c.len());
        let k2 = self.kappa * self.kappa;
        let xy = self.c[f0] + self.c[f1];
        for (o, &cz) in out.iter_mut().zip(&self.c) {
            *o = Complex64::from_real(1.0 / (k2 + (xy + cz)));
        }
    }

    /// Real, with an exactly even table: `K̂ₕ = K̂`, each lane's
    /// `c[f0] + c[f1]` plus one `c[fz]`, screened and inverted.
    fn apply_hermitian_tile_axis2(
        &self,
        bins: &[(usize, usize)],
        src: (&[Row], &[Row]),
        rows: &[u32],
        dst: (&mut [Row], &mut [Row]),
        _scratch: &mut [Complex64],
    ) {
        let (c, k2) = (&self.c, self.kappa * self.kappa);
        real_tile(
            bins,
            src,
            rows,
            dst,
            |(f0, f1)| c[f0] + c[f1],
            |xy, fz| {
                let cz = c[fz];
                std::array::from_fn(|l| 1.0 / (k2 + (xy[l] + cz)))
            },
        );
    }
}

/// The continuous Yukawa kernel `e^{−κr}/(4πr)` sampled on an `n³` grid
/// centered at `n/2`, with the cell-averaged regularization at `r = 0`
/// (mirrors [`crate::poisson::free_space_kernel`]).
pub fn yukawa_kernel(n: usize, kappa: f64) -> Grid3<f64> {
    assert!(n >= 2 && n.is_multiple_of(2), "grid size must be even");
    assert!(kappa >= 0.0);
    let c = (n / 2) as f64;
    let four_pi = 4.0 * std::f64::consts::PI;
    let r_eq = (3.0 / four_pi).cbrt() / 2.0;
    Grid3::from_fn((n, n, n), |x, y, z| {
        let r = ((x as f64 - c).powi(2) + (y as f64 - c).powi(2) + (z as f64 - c).powi(2)).sqrt();
        let r_eff = if r == 0.0 { r_eq } else { r };
        (-kappa * r_eff).exp() / (four_pi * r_eff)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poisson::{decay_profile, PoissonSpectrum};
    use lcc_fft::{fft_3d, ifft_3d_normalized, FftDirection, FftPlanner};

    #[test]
    fn no_zero_mode() {
        let s = ScreenedPoissonSpectrum::new(16, 0.5);
        assert!(s.eval([0, 0, 0]).re > 0.0);
        assert!((s.eval([0, 0, 0]).re - 1.0 / 0.25).abs() < 1e-12);
    }

    #[test]
    fn pencil_matches_pointwise() {
        for n in [9usize, 16] {
            let s = ScreenedPoissonSpectrum::new(n, 0.7);
            let mut out = vec![Complex64::ZERO; n];
            for (f0, f1) in [(0, 0), (3, 7), (n - 1, n / 2)] {
                s.eval_pencil_axis2(f0, f1, &mut out);
                for (f2, &v) in out.iter().enumerate() {
                    assert_eq!(v, s.eval([f0, f1, f2]));
                }
            }
        }
    }

    #[test]
    fn solves_screened_poisson() {
        // (κ² − ∇²_h) u = f must hold after spectral solve.
        let n = 8;
        let kappa = 0.7;
        let planner = FftPlanner::new();
        let s = ScreenedPoissonSpectrum::new(n, kappa);
        let mut f = vec![Complex64::ZERO; n * n * n];
        f[(2 * n + 3) * n + 4] = Complex64::ONE;
        let mut u = f.clone();
        fft_3d(&planner, &mut u, (n, n, n), FftDirection::Forward);
        for f0 in 0..n {
            for f1 in 0..n {
                for f2 in 0..n {
                    u[(f0 * n + f1) * n + f2] *= s.eval([f0, f1, f2]);
                }
            }
        }
        ifft_3d_normalized(&planner, &mut u, (n, n, n));
        let idx = |x: usize, y: usize, z: usize| ((x % n) * n + (y % n)) * n + (z % n);
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let uc = |a: usize, b: usize, c: usize| u[idx(a, b, c)].re;
                    let lap = 6.0 * uc(x, y, z)
                        - uc(x + 1, y, z)
                        - uc(x + n - 1, y, z)
                        - uc(x, y + 1, z)
                        - uc(x, y + n - 1, z)
                        - uc(x, y, z + 1)
                        - uc(x, y, z + n - 1);
                    let got = kappa * kappa * uc(x, y, z) + lap;
                    assert!(
                        (got - f[idx(x, y, z)].re).abs() < 1e-9,
                        "residual at ({x},{y},{z})"
                    );
                }
            }
        }
    }

    #[test]
    fn decays_faster_than_poisson() {
        let n = 32;
        let yukawa = yukawa_kernel(n, 0.8);
        let poisson = crate::poisson::free_space_kernel(n);
        let py = decay_profile(&yukawa);
        let pp = decay_profile(&poisson);
        // Normalized tails: Yukawa must fall off faster.
        let ry = py[12] / py[2];
        let rp = pp[12] / pp[2];
        assert!(ry < rp * 0.2, "yukawa tail {ry} vs poisson {rp}");
    }

    #[test]
    fn kappa_zero_limit_matches_poisson_spectrum() {
        // Small κ: screened spectrum approaches the Poisson inverse away
        // from the zero mode.
        let n = 16;
        let s = ScreenedPoissonSpectrum::new(n, 1e-6);
        let p = PoissonSpectrum::new(n);
        for f in [[1usize, 0, 0], [3, 5, 7]] {
            let a = s.eval(f).re;
            let b = p.eval(f).re;
            assert!((a - b).abs() / b < 1e-9);
        }
    }

    #[test]
    fn screening_length_inverse_of_kappa() {
        let s = ScreenedPoissonSpectrum::new(8, 0.25);
        assert_eq!(s.screening_length(), 4.0);
        assert_eq!(s.kappa(), 0.25);
    }

    #[test]
    #[should_panic(expected = "kappa must be positive")]
    fn zero_kappa_rejected() {
        ScreenedPoissonSpectrum::new(8, 0.0);
    }
}
