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
/// ([`KernelSpectrum::apply_hermitian_tile_axis2`]). [`hermitian_defect`]
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

    /// Multiplies one z-stage tile by the Hermitian part, in lane form:
    /// row `fz` of `src` (`n` rows each of `(re, im)`) times, in lane `l`,
    /// `K̂ₕ(f0, f1, fz)` for `(f0, f1) = bins[l]` is written to row
    /// `rows[fz]` of `dst` (`rows` a permutation of `0..n`, so every row of
    /// `dst` is written); lanes at or beyond `bins.len()` (at most [`W`])
    /// are written zero. `scratch` holds at least `(W + 1)·n` complex.
    ///
    /// The default writes one Hermitian pencil per lane into `scratch` —
    /// the pencil at `(f0, f1)` and its mirror at `(−f0, −f1)`, combined
    /// ([`hermitian_pencil`]) — and multiplies. A spectrum that is
    /// Hermitian *exactly* in floating point (`K̂(−f) == conj K̂(f)` bit
    /// for bit) gets `½(2·K̂(f))` from it, which is `K̂(f)` to the bit; if
    /// it is also real and separable it may override this to build each
    /// row's factor from per-lane `(f0, f1)` factors and one `fz` factor,
    /// in the same expression order as its [`Self::eval_pencil_axis2`], and
    /// scale by it (`real_tile`): the products equal the default's, up
    /// to the sign of a zero.
    fn apply_hermitian_tile_axis2(
        &self,
        bins: &[(usize, usize)],
        src: (&[Row], &[Row]),
        rows: &[u32],
        dst: (&mut [Row], &mut [Row]),
        scratch: &mut [Complex64],
    ) {
        let n = self.n();
        let (pencils, mirror) = scratch[..(W + 1) * n].split_at_mut(W * n);
        for (pencil, &(f0, f1)) in pencils.chunks_exact_mut(n).zip(bins) {
            hermitian_pencil(self, f0, f1, pencil, mirror);
        }
        for (fz, &row) in rows.iter().enumerate() {
            let (xr, xi) = (&src.0[fz], &src.1[fz]);
            let (re, im) = (&mut dst.0[row as usize], &mut dst.1[row as usize]);
            *re = [0.0; W];
            *im = [0.0; W];
            for (l, m) in pencils[fz..].iter().step_by(n).take(bins.len()).enumerate() {
                re[l] = xr[l] * m.re - xi[l] * m.im;
                im[l] = xr[l] * m.im + xi[l] * m.re;
            }
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

/// [`KernelSpectrum::apply_hermitian_tile_axis2`] for the real, separable
/// spectra: row `fz` of `src` is scaled lane by lane by `row(xy, fz)` into
/// row `rows[fz]` of `dst`, where `xy` holds `lane((f0, f1))` per bin, and
/// the lanes beyond `bins` are zero.
pub(crate) fn real_tile(
    bins: &[(usize, usize)],
    src: (&[Row], &[Row]),
    rows: &[u32],
    dst: (&mut [Row], &mut [Row]),
    lane: impl Fn((usize, usize)) -> f64,
    row: impl Fn(&Row, usize) -> Row,
) {
    let live = bins.len();
    let xy: Row = std::array::from_fn(|l| bins.get(l).map_or(0.0, |&b| lane(b)));
    for (fz, &r) in rows.iter().enumerate() {
        let f = row(&xy, fz);
        let (xr, xi) = (&src.0[fz], &src.1[fz]);
        let (re, im) = (&mut dst.0[r as usize], &mut dst.1[r as usize]);
        *re = std::array::from_fn(|l| xr[l] * f[l]);
        *im = std::array::from_fn(|l| xi[l] * f[l]);
        if live < W {
            re[live..].fill(0.0);
            im[live..].fill(0.0);
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

    /// Forwards everything but the tile multiply, so it runs the trait's
    /// default on the wrapped kernel's own pencils.
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

    /// Runs `kernel`'s tile multiply on `src` with `rows` reversed, into a
    /// NaN-filled `dst`, so an unwritten row shows.
    fn apply(
        kernel: &dyn KernelSpectrum,
        bins: &[(usize, usize)],
        src: &(Vec<Row>, Vec<Row>),
    ) -> (Vec<Row>, Vec<Row>) {
        let n = kernel.n();
        let rows: Vec<u32> = (0..n as u32).rev().collect();
        let (mut re, mut im) = (vec![[f64::NAN; W]; n], vec![[f64::NAN; W]; n]);
        let mut scratch = vec![Complex64::ZERO; (W + 1) * n];
        kernel.apply_hermitian_tile_axis2(
            bins,
            (&src.0, &src.1),
            &rows,
            (&mut re, &mut im),
            &mut scratch,
        );
        (re, im)
    }

    /// The lane overrides equal the trait's default — one Hermitian pencil
    /// per lane, multiplied — value for value (`==`: only the sign of a
    /// zero may differ, the default's `x·m − y·0` being the override's
    /// `x·m`): on every bin (Nyquist coordinates among them), on full and
    /// partial tiles, with the lanes past the tile's bins zero even where
    /// `src` is not.
    #[test]
    fn hermitian_overrides_equal_the_default() {
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
            let lanes = |phase: f64| -> Vec<Row> {
                (0..n)
                    .map(|t| std::array::from_fn(|l| ((t * W + l) as f64 * 0.37 + phase).sin()))
                    .collect()
            };
            let src = (lanes(0.0), lanes(1.1));
            // Every (f0, f1), f1 running fastest, in partial tiles of 1 and
            // 3 lanes and in full ones.
            let all: Vec<(usize, usize)> = (0..n * n).map(|i| (i / n, i % n)).collect();
            for live in [1, 3, W] {
                for bins in all.chunks(live) {
                    let got = apply(kernel.as_ref(), bins, &src);
                    let want = apply(&reference, bins, &src);
                    for (g, w) in [(&got.0, &want.0), (&got.1, &want.1)] {
                        for (fz, (g, w)) in g.iter().zip(w).enumerate() {
                            assert!(g == w, "n={n} row {fz}, bins {bins:?}: {g:?} vs {w:?}");
                            assert!(g[bins.len()..].iter().all(|v| *v == 0.0));
                        }
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
        let src = (vec![[1.0; W]; 5], vec![[1.0; W]; 5]);
        let (re, im) = apply(&ConstI, &[(1, 2), (0, 0)], &src);
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
