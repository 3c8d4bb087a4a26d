//! The sharp Gaussian proof-of-concept kernel.
//!
//! "For the POC implementation, we simplify this by using a decaying
//! function with the same properties but without making it specific to a
//! particular material. A sharp Gaussian function fits the requirement. The
//! center of the Gaussian should be at (N/2+1, N/2+1, N/2+1) when using an
//! N×N×N grid. This makes sure that the Fourier transform of the Gaussian
//! is real-valued." (§4; the 1-based Fortran index N/2+1 is the 0-based
//! N/2 here.)
//!
//! The 3D Gaussian is separable, so the spectrum is the outer product of a
//! single 1D spectrum — O(N) storage, evaluated on the fly per bin, exactly
//! the "compute the kernel during convolution" structure the paper exploits.

use lcc_fft::tile::Row;
use lcc_fft::{Complex64, FftDirection, FftPlanner};
use lcc_grid::Grid3;

use crate::kernel::{real_tile, KernelSpectrum};

/// A centered 3D Gaussian kernel `exp(-|x - N/2|² / 2σ²)` with its exact
/// (discrete) real-valued spectrum.
pub struct GaussianKernel {
    n: usize,
    sigma: f64,
    /// Exact 1D DFT of the centered 1D Gaussian; real by symmetry.
    spec1d: Vec<f64>,
}

impl GaussianKernel {
    /// Builds the kernel for an `n`-point grid (n even) with width `sigma`.
    pub fn new(n: usize, sigma: f64) -> Self {
        assert!(
            n >= 2 && n.is_multiple_of(2),
            "grid size must be even, got {n}"
        );
        assert!(sigma > 0.0, "sigma must be positive");
        // 1D centered Gaussian, then exact DFT. The sequence is even around
        // index 0 (x[i] = x[(n-i) mod n]) because it is symmetric about n/2,
        // so its DFT is real.
        let planner = FftPlanner::new();
        let mut buf: Vec<Complex64> = (0..n)
            .map(|i| {
                let d = i as f64 - (n / 2) as f64;
                Complex64::from_real((-d * d / (2.0 * sigma * sigma)).exp())
            })
            .collect();
        planner.plan(n, FftDirection::Forward).process(&mut buf);
        // Even by symmetry, and made even to the bit (`spec1d[f] ==
        // spec1d[n − f]`), so the spectrum is exactly Hermitian and its
        // Hermitian part is one pencil evaluation.
        let spec1d = (0..n).map(|f| buf[f.min(n - f)].re).collect();
        GaussianKernel { n, sigma, spec1d }
    }

    /// The Gaussian width.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// 1D spatial profile value at index `i`.
    pub fn profile(&self, i: usize) -> f64 {
        let d = i as f64 - (self.n / 2) as f64;
        (-d * d / (2.0 * self.sigma * self.sigma)).exp()
    }

    /// Materializes the spatial kernel grid (for oracle convolutions).
    pub fn spatial(&self) -> Grid3<f64> {
        let n = self.n;
        Grid3::from_fn((n, n, n), |x, y, z| {
            self.profile(x) * self.profile(y) * self.profile(z)
        })
    }

    /// Largest imaginary part that would remain if the spectrum were
    /// computed without the symmetry argument — always ~0; exposed for tests.
    pub fn spectrum_imag_residual(&self) -> f64 {
        let planner = FftPlanner::new();
        let mut buf: Vec<Complex64> = (0..self.n)
            .map(|i| Complex64::from_real(self.profile(i)))
            .collect();
        planner
            .plan(self.n, FftDirection::Forward)
            .process(&mut buf);
        buf.iter().map(|v| v.im.abs()).fold(0.0, f64::max)
    }
}

impl KernelSpectrum for GaussianKernel {
    fn n(&self) -> usize {
        self.n
    }

    fn center(&self) -> [usize; 3] {
        [self.n / 2; 3]
    }

    fn eval(&self, f: [usize; 3]) -> Complex64 {
        Complex64::from_real(self.spec1d[f[0]] * self.spec1d[f[1]] * self.spec1d[f[2]])
    }

    fn eval_pencil_axis2(&self, f0: usize, f1: usize, out: &mut [Complex64]) {
        assert_eq!(out.len(), self.n);
        let xy = self.spec1d[f0] * self.spec1d[f1];
        for (o, &s) in out.iter_mut().zip(&self.spec1d) {
            *o = Complex64::from_real(xy * s);
        }
    }

    /// The spectrum is real and its table exactly even, so `K̂ₕ = K̂`: a
    /// row's factor is the lanes' `spec1d[f0]·spec1d[f1]` times one
    /// `spec1d[fz]`.
    fn apply_hermitian_tile_axis2(
        &self,
        bins: &[(usize, usize)],
        src: (&[Row], &[Row]),
        rows: &[u32],
        dst: (&mut [Row], &mut [Row]),
        _scratch: &mut [Complex64],
    ) {
        let s = &self.spec1d;
        real_tile(
            bins,
            src,
            rows,
            dst,
            |(f0, f1)| s[f0] * s[f1],
            |xy, fz| {
                let z = s[fz];
                std::array::from_fn(|l| xy[l] * z)
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_fft::{cyclic_convolve_3d, fft_3d};

    #[test]
    fn spectrum_is_real() {
        let k = GaussianKernel::new(32, 2.0);
        assert!(
            k.spectrum_imag_residual() < 1e-10,
            "paper requires a real-valued FFT"
        );
    }

    #[test]
    fn spectrum_matches_full_3d_fft() {
        let n = 8;
        let k = GaussianKernel::new(n, 1.5);
        let spatial = k.spatial();
        let mut buf: Vec<Complex64> = spatial
            .as_slice()
            .iter()
            .map(|&v| Complex64::from_real(v))
            .collect();
        let planner = FftPlanner::new();
        fft_3d(&planner, &mut buf, (n, n, n), FftDirection::Forward);
        for f0 in 0..n {
            for f1 in 0..n {
                for f2 in 0..n {
                    let got = k.eval([f0, f1, f2]);
                    let want = buf[(f0 * n + f1) * n + f2];
                    assert!(
                        (got - want).norm() < 1e-9,
                        "bin ({f0},{f1},{f2}): {got:?} vs {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pencil_matches_pointwise() {
        let n = 16;
        let k = GaussianKernel::new(n, 2.0);
        let mut out = vec![Complex64::ZERO; n];
        k.eval_pencil_axis2(3, 7, &mut out);
        for (f2, &v) in out.iter().enumerate() {
            assert_eq!(v, k.eval([3, 7, f2]));
        }
    }

    #[test]
    fn convolving_delta_reproduces_kernel() {
        // FFT-based cyclic convolution with the kernel spectrum must equal
        // the spatial kernel when the input is a delta at the origin.
        let n = 8;
        let k = GaussianKernel::new(n, 1.0);
        let spatial = k.spatial();
        let planner = FftPlanner::new();
        let mut delta = vec![Complex64::ZERO; n * n * n];
        delta[0] = Complex64::ONE;
        let kernel_c: Vec<Complex64> = spatial
            .as_slice()
            .iter()
            .map(|&v| Complex64::from_real(v))
            .collect();
        let out = cyclic_convolve_3d(&planner, &delta, &kernel_c, (n, n, n));
        for (a, b) in out.iter().zip(spatial.as_slice()) {
            assert!((a.re - b).abs() < 1e-10 && a.im.abs() < 1e-10);
        }
    }

    #[test]
    fn sharper_gaussian_decays_faster() {
        let sharp = GaussianKernel::new(64, 1.0);
        let wide = GaussianKernel::new(64, 8.0);
        // At 8 points from center the sharp kernel is negligible, the wide
        // one is not.
        assert!(sharp.profile(64 / 2 + 8) < 1e-10);
        assert!(wide.profile(64 / 2 + 8) > 0.5);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_grid_rejected() {
        GaussianKernel::new(9, 1.0);
    }
}
