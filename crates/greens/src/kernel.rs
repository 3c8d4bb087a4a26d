//! The scalar convolution-kernel abstraction.
//!
//! The pipeline multiplies each frequency bin by a transfer function Γ̂(ξ)
//! evaluated *on the fly* — "the closed form of the Green's function for
//! MASSIF is known in frequency domain, so it can be computed on-the-fly
//! during convolution, further reducing memory requirement" (§2.2).

use lcc_fft::Complex64;

/// Integer frequency index wrapped to the symmetric range
/// `(-n/2, n/2]` — the signed frequency a DFT bin represents.
#[inline]
pub fn wrap_freq(f: usize, n: usize) -> i64 {
    let f = f as i64;
    let n = n as i64;
    if f > n / 2 {
        f - n
    } else {
        f
    }
}

/// A scalar transfer function on the `n³` frequency grid.
///
/// A spectrum need not be Hermitian (`K̂(−f) = conj K̂(f)`, the spectrum of a
/// real spatial kernel). The convolution pipelines define their result as
/// `Re(ifft(K̂·X̂))` for real input `x`, which is the convolution with the
/// *real part* of the spatial kernel: only the Hermitian part
/// `½(K̂(f) + conj K̂(−f))` of the spectrum contributes, and the half-spectrum
/// pipeline multiplies by exactly that
/// ([`KernelSpectrum::eval_hermitian_pencil_axis2`]). [`hermitian_defect`]
/// measures how far a spectrum is from its Hermitian part.
pub trait KernelSpectrum: Send + Sync {
    /// Grid size n.
    fn n(&self) -> usize;

    /// Transfer-function value at frequency bin `(f0, f1, f2)`,
    /// each in `0..n`.
    fn eval(&self, f: [usize; 3]) -> Complex64;

    /// Spatial center of the kernel's impulse response.
    ///
    /// Convolving a sub-domain with a kernel centered at `c` translates the
    /// response by `c` (cyclically): the octree "hotspot" region is the
    /// sub-domain shifted by this offset. Kernels whose peak sits at the
    /// origin return `[0, 0, 0]` (the default); the paper's POC Gaussian is
    /// centered at `N/2` to keep its spectrum real.
    fn center(&self) -> [usize; 3] {
        [0, 0, 0]
    }

    /// Evaluates a full pencil of bins along axis 2 into `out`
    /// (length n). Default loops over [`Self::eval`]; implementations with
    /// separable structure can override for speed.
    fn eval_pencil_axis2(&self, f0: usize, f1: usize, out: &mut [Complex64]) {
        assert_eq!(out.len(), self.n());
        for (f2, o) in out.iter_mut().enumerate() {
            *o = self.eval([f0, f1, f2]);
        }
    }

    /// Writes the Hermitian part `K̂ₕ(f) = ½(K̂(f) + conj K̂(−f))` of the
    /// pencil along axis 2 at `(f0, f1)` into `out` (length n) — the
    /// multiplier the half-spectrum pipeline applies. `mirror` (length n)
    /// is scratch.
    ///
    /// The default evaluates the mirrored pencil at `(−f0, −f1)` into
    /// `mirror` and combines the two, reading it in reversed `f2` order. A
    /// spectrum that is Hermitian *exactly* in floating point
    /// (`K̂(−f) == conj K̂(f)` bit for bit) may override this with one
    /// [`Self::eval_pencil_axis2`]: the default then computes
    /// `½(2·K̂(f))`, which is `K̂(f)` to the bit.
    fn eval_hermitian_pencil_axis2(
        &self,
        f0: usize,
        f1: usize,
        out: &mut [Complex64],
        mirror: &mut [Complex64],
    ) {
        let n = self.n();
        self.eval_pencil_axis2(f0, f1, out);
        self.eval_pencil_axis2((n - f0) % n, (n - f1) % n, mirror);
        // −f2 is n − f2 except at f2 = 0, peeled.
        out[0] = (out[0] + mirror[0].conj()).scale(0.5);
        for (o, m) in out[1..].iter_mut().zip(mirror[1..].iter().rev()) {
            *o = (*o + m.conj()).scale(0.5);
        }
    }
}

/// How far `kernel` is from Hermitian symmetry on its grid: the maximum over
/// all bins of `|K̂(f) − conj K̂(−f)|`, `−f = ((n−f₀)%n, (n−f₁)%n, (n−f₂)%n)`,
/// relative to `max |K̂|`. Zero (to round-off) for the spectrum of a real
/// spatial kernel; an O(n³) diagnostic, not a hot-path call.
pub fn hermitian_defect(kernel: &dyn KernelSpectrum) -> f64 {
    let n = kernel.n();
    let (mut defect, mut peak) = (0.0f64, 0.0f64);
    for f0 in 0..n {
        for f1 in 0..n {
            for f2 in 0..n {
                let v = kernel.eval([f0, f1, f2]);
                let m = kernel.eval([(n - f0) % n, (n - f1) % n, (n - f2) % n]);
                defect = defect.max((v - m.conj()).norm());
                peak = peak.max(v.norm());
            }
        }
    }
    if peak == 0.0 {
        0.0
    } else {
        defect / peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_freq_ranges() {
        assert_eq!(wrap_freq(0, 8), 0);
        assert_eq!(wrap_freq(3, 8), 3);
        assert_eq!(wrap_freq(4, 8), 4, "Nyquist stays positive");
        assert_eq!(wrap_freq(5, 8), -3);
        assert_eq!(wrap_freq(7, 8), -1);
    }

    struct Flat(usize);
    impl KernelSpectrum for Flat {
        fn n(&self) -> usize {
            self.0
        }
        fn eval(&self, _f: [usize; 3]) -> Complex64 {
            Complex64::ONE
        }
    }

    #[test]
    fn shipped_scalar_kernels_are_hermitian() {
        use crate::{GaussianKernel, PoissonSpectrum, ScreenedPoissonSpectrum};
        assert!(hermitian_defect(&GaussianKernel::new(8, 1.3)) <= 1e-12);
        for n in [8usize, 9] {
            assert!(hermitian_defect(&PoissonSpectrum::new(n)) <= 1e-12);
            assert!(hermitian_defect(&ScreenedPoissonSpectrum::new(n, 0.6)) <= 1e-12);
        }
    }

    #[test]
    fn defect_sees_a_non_hermitian_spectrum() {
        /// `K̂ = i` everywhere: an odd-symmetric imaginary part would be
        /// Hermitian, a constant one is as far from it as possible.
        struct ConstI;
        impl KernelSpectrum for ConstI {
            fn n(&self) -> usize {
                4
            }
            fn eval(&self, _f: [usize; 3]) -> Complex64 {
                Complex64::I
            }
        }
        assert_eq!(hermitian_defect(&ConstI), 2.0);
        assert_eq!(hermitian_defect(&Flat(4)), 0.0);
    }

    /// Forwards everything but the Hermitian pencil, so it runs the
    /// trait's default on the wrapped kernel's own pencils.
    struct DefaultHermitian<'a>(&'a dyn KernelSpectrum);
    impl KernelSpectrum for DefaultHermitian<'_> {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn eval(&self, f: [usize; 3]) -> Complex64 {
            self.0.eval(f)
        }
        fn eval_pencil_axis2(&self, f0: usize, f1: usize, out: &mut [Complex64]) {
            self.0.eval_pencil_axis2(f0, f1, out)
        }
    }

    #[test]
    fn hermitian_overrides_equal_the_default_bitwise() {
        use crate::{GaussianKernel, PoissonSpectrum, ScreenedPoissonSpectrum};
        let mut kernels: Vec<Box<dyn KernelSpectrum>> = Vec::new();
        for n in [2usize, 4, 6, 8, 16] {
            kernels.push(Box::new(GaussianKernel::new(n, 1.3)));
        }
        for n in [2usize, 3, 8, 9, 15, 16] {
            kernels.push(Box::new(PoissonSpectrum::new(n)));
            kernels.push(Box::new(ScreenedPoissonSpectrum::new(n, 0.6)));
        }
        for kernel in &kernels {
            let n = kernel.n();
            let reference = DefaultHermitian(kernel.as_ref());
            let (mut got, mut want) = (vec![Complex64::ZERO; n], vec![Complex64::ZERO; n]);
            let mut mirror = vec![Complex64::ZERO; n];
            for f0 in 0..n {
                for f1 in 0..n {
                    kernel.eval_hermitian_pencil_axis2(f0, f1, &mut got, &mut mirror);
                    reference.eval_hermitian_pencil_axis2(f0, f1, &mut want, &mut mirror);
                    for (f2, (a, b)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            (a.re.to_bits(), a.im.to_bits()),
                            (b.re.to_bits(), b.im.to_bits()),
                            "n={n} bin ({f0},{f1},{f2})"
                        );
                    }
                }
            }
            assert_eq!(hermitian_defect(kernel.as_ref()), 0.0, "n={n}");
        }
    }

    #[test]
    fn default_hermitian_part_projects() {
        /// `K̂ = i` everywhere: its Hermitian part is 0.
        struct ConstI;
        impl KernelSpectrum for ConstI {
            fn n(&self) -> usize {
                5
            }
            fn eval(&self, _f: [usize; 3]) -> Complex64 {
                Complex64::I
            }
        }
        let (mut out, mut mirror) = (vec![Complex64::ONE; 5], vec![Complex64::ZERO; 5]);
        ConstI.eval_hermitian_pencil_axis2(1, 2, &mut out, &mut mirror);
        assert!(out.iter().all(|v| *v == Complex64::ZERO));
    }

    #[test]
    fn default_pencil_matches_eval() {
        let k = Flat(4);
        let mut out = vec![Complex64::ZERO; 4];
        k.eval_pencil_axis2(1, 2, &mut out);
        for v in out {
            assert_eq!(v, Complex64::ONE);
        }
    }
}
