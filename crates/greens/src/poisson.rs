//! Poisson Green's function (paper Eq. 5).
//!
//! `G(x, x₀) = 1/(4π|x − x₀|)` is the free-space Green's function of
//! `−∇²`; the paper cites it as the canonical example of the `1/x` decay
//! its compression strategy relies on, and Hockney-style Poisson solvers as
//! a target application. We provide both the continuous spatial form and the
//! discrete spectral inverse Laplacian used by actual grid solvers.

use lcc_fft::tile::Row;
use lcc_fft::Complex64;
use lcc_grid::Grid3;

use crate::kernel::{real_tile, KernelSpectrum};

/// The separable 1D factor of the 7-point Laplacian symbol,
/// `c[f] = 2 − 2cos(2πf/n)` for `f in 0..n` — the symbol at bin `f` is
/// `c[f₀] + c[f₁] + c[f₂]`. Shared with the screened variant.
///
/// Evaluated at `min(f, n − f)`, so the table is even to the bit
/// (`c[f] == c[n − f]`): both spectra are then exactly Hermitian and their
/// Hermitian part is one pencil evaluation.
pub(crate) fn laplacian_table(n: usize) -> Vec<f64> {
    assert!(n >= 2, "grid too small");
    (0..n)
        .map(|f| {
            let f = f.min(n - f);
            2.0 - 2.0 * (2.0 * std::f64::consts::PI * f as f64 / n as f64).cos()
        })
        .collect()
}

/// Spectral inverse of the (negative) 7-point discrete Laplacian on a
/// periodic `n³` grid with unit spacing: `Ĝ(ξ) = 1 / Σᵢ (2 − 2 cos(2πfᵢ/n))`,
/// with `Ĝ(0) = 0` (the compatibility gauge: zero-mean solutions).
#[derive(Clone, Debug)]
pub struct PoissonSpectrum {
    /// [`laplacian_table`]; its length is the grid size.
    c: Vec<f64>,
}

impl PoissonSpectrum {
    /// Creates the spectrum for an `n³` grid.
    pub fn new(n: usize) -> Self {
        PoissonSpectrum {
            c: laplacian_table(n),
        }
    }

    /// Discrete Laplacian symbol `Σᵢ (2 − 2 cos(2πfᵢ/n))` at bin `f`.
    pub fn laplacian_symbol(&self, f: [usize; 3]) -> f64 {
        self.c[f[0]] + self.c[f[1]] + self.c[f[2]]
    }
}

/// `1/s`, with the zero mode gauged to 0.
fn gauged_inverse(s: f64) -> Complex64 {
    if s == 0.0 {
        Complex64::ZERO
    } else {
        Complex64::from_real(1.0 / s)
    }
}

impl KernelSpectrum for PoissonSpectrum {
    fn n(&self) -> usize {
        self.c.len()
    }

    fn eval(&self, f: [usize; 3]) -> Complex64 {
        gauged_inverse(self.laplacian_symbol(f))
    }

    fn eval_pencil_axis2(&self, f0: usize, f1: usize, out: &mut [Complex64]) {
        assert_eq!(out.len(), self.c.len());
        let xy = self.c[f0] + self.c[f1];
        for (o, &cz) in out.iter_mut().zip(&self.c) {
            *o = gauged_inverse(xy + cz);
        }
    }

    /// Real, with an exactly even table (`laplacian_table`): `K̂ₕ = K̂`,
    /// each lane's `c[f0] + c[f1]` plus one `c[fz]`, gauged and inverted.
    fn apply_hermitian_tile_axis2(
        &self,
        bins: &[(usize, usize)],
        src: (&[Row], &[Row]),
        rows: &[u32],
        dst: (&mut [Row], &mut [Row]),
        _scratch: &mut [Complex64],
    ) {
        let c = &self.c;
        real_tile(
            bins,
            src,
            rows,
            dst,
            |(f0, f1)| c[f0] + c[f1],
            |xy, fz| {
                let cz = c[fz];
                std::array::from_fn(|l| gauged_inverse(xy[l] + cz).re)
            },
        );
    }
}

/// The continuous free-space kernel `1/(4π r)` sampled on an `n³` grid,
/// centered at `n/2` (like the paper's POC Gaussian), with the singular
/// point regularized to the cell-average value `≈ 1/(4π·r_eq)`,
/// `r_eq = (3/4π)^{1/3}/2` the equivalent radius of a unit cell.
pub fn free_space_kernel(n: usize) -> Grid3<f64> {
    assert!(n >= 2 && n.is_multiple_of(2), "grid size must be even");
    let c = (n / 2) as f64;
    let four_pi = 4.0 * std::f64::consts::PI;
    // Cell-averaged self term: finite part of ∫ 1/(4πr) over a unit cube.
    let r_eq = (3.0 / four_pi).cbrt() / 2.0;
    Grid3::from_fn((n, n, n), |x, y, z| {
        let r = ((x as f64 - c).powi(2) + (y as f64 - c).powi(2) + (z as f64 - c).powi(2)).sqrt();
        if r == 0.0 {
            1.0 / (four_pi * r_eq)
        } else {
            1.0 / (four_pi * r)
        }
    })
}

/// Chebyshev-shell decay profile of a spatial kernel centered at `n/2`:
/// `profile[d]` is the maximum |value| at Chebyshev distance `d` from the
/// center. Used to pick sampling schedules from measured kernel decay.
pub fn decay_profile(kernel: &Grid3<f64>) -> Vec<f64> {
    let (nx, ny, nz) = kernel.shape();
    assert!(nx == ny && ny == nz, "expected a cubic grid");
    let c = (nx / 2) as i64;
    let mut profile = vec![0.0f64; nx / 2 + 1];
    for ((x, y, z), &v) in kernel.indexed_iter() {
        let d = (x as i64 - c)
            .abs()
            .max((y as i64 - c).abs())
            .max((z as i64 - c).abs()) as usize;
        if d < profile.len() {
            profile[d] = profile[d].max(v.abs());
        }
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_fft::{fft_3d, ifft_3d_normalized, FftDirection, FftPlanner};

    #[test]
    fn spectrum_zero_gauge() {
        let p = PoissonSpectrum::new(16);
        assert_eq!(p.eval([0, 0, 0]), Complex64::ZERO);
        assert!(p.eval([1, 0, 0]).re > 0.0);
    }

    #[test]
    fn pencil_matches_pointwise() {
        for n in [9usize, 16] {
            let p = PoissonSpectrum::new(n);
            let mut out = vec![Complex64::ZERO; n];
            for (f0, f1) in [(0, 0), (3, 7), (n - 1, n / 2)] {
                p.eval_pencil_axis2(f0, f1, &mut out);
                for (f2, &v) in out.iter().enumerate() {
                    assert_eq!(v, p.eval([f0, f1, f2]));
                }
            }
        }
    }

    #[test]
    fn solves_discrete_poisson() {
        // u = G * f, then applying the 7-point Laplacian must recover f
        // (up to its mean, which the gauge removes).
        let n = 16;
        let planner = FftPlanner::new();
        let p = PoissonSpectrum::new(n);
        // Zero-mean source: +1 at one point, -1 at another.
        let mut f = vec![Complex64::ZERO; n * n * n];
        f[(n + 2) * n + 3] = Complex64::ONE;
        f[(9 * n + 4) * n + 12] = -Complex64::ONE;
        let mut fh = f.clone();
        fft_3d(&planner, &mut fh, (n, n, n), FftDirection::Forward);
        for f0 in 0..n {
            for f1 in 0..n {
                for f2 in 0..n {
                    let i = (f0 * n + f1) * n + f2;
                    fh[i] *= p.eval([f0, f1, f2]);
                }
            }
        }
        ifft_3d_normalized(&planner, &mut fh, (n, n, n));
        // Apply the discrete Laplacian −∇²_h u and compare to f.
        let idx = |x: usize, y: usize, z: usize| (x * n + y) * n + z;
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let u = |a: usize, b: usize, c: usize| fh[idx(a % n, b % n, c % n)].re;
                    let lap = 6.0 * u(x, y, z)
                        - u(x + 1, y, z)
                        - u(x + n - 1, y, z)
                        - u(x, y + 1, z)
                        - u(x, y + n - 1, z)
                        - u(x, y, z + 1)
                        - u(x, y, z + n - 1);
                    let want = f[idx(x, y, z)].re;
                    assert!(
                        (lap - want).abs() < 1e-8,
                        "Laplacian mismatch at ({x},{y},{z}): {lap} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn free_space_kernel_decays_like_inverse_distance() {
        let n = 32;
        let g = free_space_kernel(n);
        let c = n / 2;
        let v4 = g[(c + 4, c, c)];
        let v8 = g[(c + 8, c, c)];
        assert!((v4 / v8 - 2.0).abs() < 1e-9, "1/r halves when r doubles");
        // Center regularization is finite and larger than neighbors.
        assert!(g[(c, c, c)].is_finite());
        assert!(g[(c, c, c)] > g[(c + 1, c, c)]);
    }

    #[test]
    fn decay_profile_monotone_for_inverse_distance() {
        let g = free_space_kernel(32);
        let prof = decay_profile(&g);
        for w in prof[1..].windows(2) {
            assert!(w[0] >= w[1], "1/r decay profile must be non-increasing");
        }
        assert!(prof[1] / prof[8] >= 7.0, "should decay ~1/d");
    }
}
