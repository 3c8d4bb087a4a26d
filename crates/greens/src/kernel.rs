//! The scalar convolution-kernel abstraction.
//!
//! The pipeline multiplies each frequency bin by a transfer function Γ̂(ξ)
//! evaluated *on the fly* — "the closed form of the Green's function for
//! MASSIF is known in frequency domain, so it can be computed on-the-fly
//! during convolution, further reducing memory requirement" (§2.2).

use lcc_fft::tile::{Row, W};
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
/// ([`KernelSpectrum::eval_hermitian_tile_axis2`]). [`hermitian_defect`]
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

    /// The multiplier of one z-stage tile in lane form: row `fz` of `re` /
    /// `im` (each length n) holds, in lane `l`, the Hermitian part at
    /// `(f0, f1, fz)` for `(f0, f1) = bins[l]`; lanes at or beyond
    /// `bins.len()` (at most [`W`]) are zero. `scratch` holds at least
    /// `(W + 1)·n` complex.
    ///
    /// The default writes one Hermitian pencil per lane into `scratch` —
    /// the pencil at `(f0, f1)` and its mirror at `(−f0, −f1)`, combined —
    /// and gathers the rows across lanes. A spectrum that is Hermitian
    /// *exactly* in floating point (`K̂(−f) == conj K̂(f)` bit for bit) gets
    /// `½(2·K̂(f))` from it, which is `K̂(f)` to the bit; if it is also
    /// separable it may override this to build each row from per-lane
    /// `(f0, f1)` factors and one `fz` factor, in the same expression order
    /// as its [`Self::eval_pencil_axis2`], so the values are the default's
    /// to the bit.
    fn eval_hermitian_tile_axis2(
        &self,
        bins: &[(usize, usize)],
        re: &mut [Row],
        im: &mut [Row],
        scratch: &mut [Complex64],
    ) {
        let n = self.n();
        let (pencils, mirror) = scratch[..(W + 1) * n].split_at_mut(W * n);
        for (lane, pencil) in pencils.chunks_exact_mut(n).enumerate() {
            match bins.get(lane) {
                Some(&(f0, f1)) => hermitian_pencil(self, f0, f1, pencil, mirror),
                None => pencil.fill(Complex64::ZERO),
            }
        }
        for (fz, (re, im)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
            *re = std::array::from_fn(|l| pencils[l * n + fz].re);
            *im = std::array::from_fn(|l| pencils[l * n + fz].im);
        }
    }
}

/// The Hermitian part `K̂ₕ(f) = ½(K̂(f) + conj K̂(−f))` of `kernel`'s pencil
/// along axis 2 at `(f0, f1)` into `out` (length n): the mirrored pencil at
/// `(−f0, −f1)` goes to `mirror` (length n, scratch) and is read in
/// reversed `f2` order. The z stage's tile default and the dense
/// convolver (`lcc_core::TraditionalConvolver`) both multiply by it.
pub fn hermitian_pencil<K: KernelSpectrum + ?Sized>(
    kernel: &K,
    f0: usize,
    f1: usize,
    out: &mut [Complex64],
    mirror: &mut [Complex64],
) {
    let n = kernel.n();
    kernel.eval_pencil_axis2(f0, f1, out);
    kernel.eval_pencil_axis2((n - f0) % n, (n - f1) % n, mirror);
    // −f2 is n − f2 except at f2 = 0, peeled.
    out[0] = (out[0] + mirror[0].conj()).scale(0.5);
    for (o, m) in out[1..].iter_mut().zip(mirror[1..].iter().rev()) {
        *o = (*o + m.conj()).scale(0.5);
    }
}

/// Lane form for the real, separable spectra: row `fz` of `re` is
/// `row(xy, fz)` in the lanes of `bins` and zero beyond them, where `xy`
/// holds `lane((f0, f1))` per bin; `im` is zero.
pub(crate) fn real_tile(
    bins: &[(usize, usize)],
    re: &mut [Row],
    im: &mut [Row],
    lane: impl Fn((usize, usize)) -> f64,
    row: impl Fn(&Row, usize) -> Row,
) {
    let xy: Row = std::array::from_fn(|l| bins.get(l).map_or(0.0, |&b| lane(b)));
    for (fz, (re, im)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
        *re = row(&xy, fz);
        *im = [0.0; W];
    }
    if bins.len() < W {
        for re in re {
            re[bins.len()..].fill(0.0);
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

    /// Forwards everything but the tile multiplier, so it runs the
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

    /// The lane overrides equal the trait's default — one Hermitian pencil
    /// per lane, gathered — to the bit, signed zeros included: on every
    /// bin (Nyquist coordinates among them), on full and partial tiles,
    /// with the lanes past the tile's bins zero.
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
        let bits =
            |rows: &[Row]| -> Vec<u64> { rows.iter().flatten().map(|v| v.to_bits()).collect() };
        for kernel in &kernels {
            let n = kernel.n();
            let reference = DefaultHermitian(kernel.as_ref());
            let mut scratch = vec![Complex64::ZERO; (W + 1) * n];
            // Every (f0, f1), f1 running fastest, in partial tiles of 1 and
            // 3 lanes and in full ones.
            let all: Vec<(usize, usize)> = (0..n * n).map(|i| (i / n, i % n)).collect();
            for live in [1, 3, W] {
                for bins in all.chunks(live) {
                    // Unwritten rows would show as NaN.
                    let nan = || vec![[f64::NAN; W]; n];
                    let (mut gre, mut gim, mut wre, mut wim) = (nan(), nan(), nan(), nan());
                    kernel.eval_hermitian_tile_axis2(bins, &mut gre, &mut gim, &mut scratch);
                    reference.eval_hermitian_tile_axis2(bins, &mut wre, &mut wim, &mut scratch);
                    assert_eq!(bits(&gre), bits(&wre), "n={n} re, bins {bins:?}");
                    assert_eq!(bits(&gim), bits(&wim), "n={n} im, bins {bins:?}");
                    for row in gre.iter().chain(gim.iter()) {
                        assert!(row[bins.len()..].iter().all(|v| v.to_bits() == 0));
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
        let (mut re, mut im) = (vec![[1.0; W]; 5], vec![[1.0; W]; 5]);
        let mut scratch = vec![Complex64::ZERO; (W + 1) * 5];
        ConstI.eval_hermitian_tile_axis2(&[(1, 2), (0, 0)], &mut re, &mut im, &mut scratch);
        assert!(re.iter().chain(&im).flatten().all(|v| *v == 0.0));
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
