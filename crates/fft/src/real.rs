//! Real-to-complex (r2c) and complex-to-real (c2r) transforms.
//!
//! The MASSIF pipeline transforms real stress/strain fields and multiplies by
//! a real-valued Green's operator (the paper picks a centered Gaussian in the
//! POC so that "the Fourier transform of the Gaussian is real-valued"). Real
//! transforms halve both memory and flops by exploiting Hermitian symmetry:
//! an even-length real signal of length `n` is packed into an `n/2`-point
//! complex FFT and untangled into the `n/2 + 1` non-redundant bins.
//!
//! Conventions match FFTW: `r2c` computes the unnormalized forward DFT's
//! half spectrum; `c2r` computes the unnormalized inverse, so
//! `c2r(r2c(x)) == n·x`.
//!
//! Both kernels work inside the caller's buffers: [`RealFft::process`] builds
//! the packed signal in its output, and [`RealIfft::process_packed`] turns a
//! half-spectrum row into its own real outputs in place — the form stage 3 of
//! the convolution pipeline runs once per retained row.

// lcc-lint: hot-path — per-row r2c/c2r kernels; only plans and the
// allocating convenience wrappers may allocate.

use crate::complex::{c64, Complex64};
use crate::planner::{FftPlan, FftPlanner};
use crate::FftDirection;

/// Planned real-input forward transform of even length `n`.
pub struct RealFft {
    n: usize,
    half_plan: FftPlan,
    /// `e^{-2πi j / n}` for `j in 0..n/2`.
    twiddles: Vec<Complex64>,
}

impl RealFft {
    /// Plans an r2c transform of even length `n ≥ 2`.
    pub fn new(planner: &FftPlanner, n: usize) -> Self {
        assert!(
            n >= 2 && n.is_multiple_of(2),
            "RealFft requires even n >= 2, got {n}"
        );
        let half = n / 2;
        let step = -2.0 * std::f64::consts::PI / n as f64;
        RealFft {
            n,
            half_plan: planner.plan(half, FftDirection::Forward),
            twiddles: (0..half).map(|j| Complex64::cis(step * j as f64)).collect(),
        }
    }

    /// Real input length n.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; kept for clippy's len-without-is-empty lint.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of output bins, `n/2 + 1`.
    pub fn output_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// Computes the half spectrum `X[0..=n/2]` of the real `input`. The
    /// packed half-length signal is built and transformed inside `output`,
    /// so the call needs no scratch.
    pub fn process(&self, input: &[f64], output: &mut [Complex64]) {
        let n = self.n;
        let half = n / 2;
        assert_eq!(input.len(), n, "input must have length n");
        assert_eq!(output.len(), half + 1, "output must have length n/2+1");

        // Pack pairs into a half-length complex signal z[j] = x[2j] + i·x[2j+1].
        let (z, nyquist) = output.split_at_mut(half);
        for (zj, pair) in z.iter_mut().zip(input.chunks_exact(2)) {
            *zj = c64(pair[0], pair[1]);
        }
        self.half_plan.process(z);

        // Untangle: E[j] = FFT(even), O[j] = FFT(odd), X[j] = E[j] + w^j O[j].
        // Bins j and half−j read the same pair (z[j], z[half−j]), so they are
        // rewritten together.
        nyquist[0] = c64(z[0].re - z[0].im, 0.0);
        z[0] = c64(z[0].re + z[0].im, 0.0);
        let untangle = |a: Complex64, b: Complex64, w: Complex64| {
            let e = (a + b).scale(0.5);
            let o = (a - b).scale(0.5).mul_neg_i();
            e + w * o
        };
        for j in 1..half.div_ceil(2) {
            let (a, b) = (z[j], z[half - j]);
            z[j] = untangle(a, b.conj(), self.twiddles[j]);
            z[half - j] = untangle(b, a.conj(), self.twiddles[half - j]);
        }
        if half >= 2 && half.is_multiple_of(2) {
            // Self-paired bin: E = Re z, O = Im z, w^{n/4} = −i.
            z[half / 2] = z[half / 2].conj();
        }
    }

    /// Allocating convenience wrapper.
    pub fn transform(&self, input: &[f64]) -> Vec<Complex64> {
        // lcc-lint: allow(alloc) — convenience wrapper, not used per row.
        let mut out = vec![Complex64::ZERO; self.output_len()];
        self.process(input, &mut out);
        out
    }
}

/// Planned complex-to-real inverse transform of length `n ≥ 2`.
///
/// Even `n` runs the packed `n/2`-point algorithm. Odd `n` has no such
/// packing and falls back to the definition: Hermitian-extend the half
/// spectrum, run the full length-`n` inverse and keep the real part.
pub struct RealIfft {
    n: usize,
    /// Inverse plan of length `n/2` (even `n`) or `n` (odd `n`).
    plan: FftPlan,
    /// `e^{+2πi j / n}` for `j in 0..n/2`; unused for odd `n`.
    twiddles: Vec<Complex64>,
}

impl RealIfft {
    /// Plans a c2r transform of length `n ≥ 2`.
    pub fn new(planner: &FftPlanner, n: usize) -> Self {
        assert!(n >= 2, "RealIfft requires n >= 2, got {n}");
        let half = n / 2;
        let step = 2.0 * std::f64::consts::PI / n as f64;
        let plan_len = if n.is_multiple_of(2) { half } else { n };
        RealIfft {
            n,
            plan: planner.plan(plan_len, FftDirection::Inverse),
            twiddles: (0..half).map(|j| Complex64::cis(step * j as f64)).collect(),
        }
    }

    /// Real output length n.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; kept for clippy's len-without-is-empty lint.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Scratch length [`Self::process_packed`] needs: none for even `n`,
    /// `n` for the odd-length fallback.
    pub fn scratch_len(&self) -> usize {
        if self.n.is_multiple_of(2) {
            0
        } else {
            self.n
        }
    }

    /// In-place c2r. On entry `row` holds the half spectrum `X[0..=n/2]`; on
    /// exit it holds the real signal times `scale` (`scale = 1` gives the
    /// unnormalized inverse, `n·x`), packed two per element:
    /// `row[j] = (x[2j], x[2j+1])` — read it back with [`Self::unpack`].
    /// `scratch` must have length [`Self::scratch_len`].
    ///
    /// The imaginary parts of `X[0]` and `X[n/2]` are ignored, as Hermitian
    /// symmetry forces them to zero.
    pub fn process_packed(&self, row: &mut [Complex64], scratch: &mut [Complex64], scale: f64) {
        let n = self.n;
        let half = n / 2;
        assert_eq!(row.len(), half + 1, "row must have length n/2+1");
        assert_eq!(scratch.len(), self.scratch_len(), "scratch length");

        if !n.is_multiple_of(2) {
            scratch[0] = row[0];
            for f in 1..=half {
                scratch[f] = row[f];
                scratch[n - f] = row[f].conj();
            }
            self.plan.process(scratch);
            for (j, r) in row.iter_mut().enumerate() {
                let odd = scratch.get(2 * j + 1).map_or(0.0, |v| v.re);
                *r = c64(scratch[2 * j].re * scale, odd * scale);
            }
            return;
        }

        // Retangle: Z[j] = E[j] + i·O[j] where
        //   E[j] = X[j] + X*[half−j]
        //   O[j] = w^{-j} (X[j] − X*[half−j])   (w = e^{-2πi/n})
        // and the unnormalized inverse half FFT then gives
        // z[j] = n·(x[2j] + i·x[2j+1]). Bins j and half−j read the same
        // pair and E[half−j] = E*[j], O[half−j] = O*[j], so both are
        // rewritten from one evaluation. `scale` goes in here, which saves
        // a pass over the outputs.
        let (x0, xh) = (row[0].re * scale, row[half].re * scale);
        let (z, _) = row.split_at_mut(half);
        z[0] = c64(x0 + xh, x0 - xh);
        for j in 1..half.div_ceil(2) {
            let (xj, xc) = (z[j].scale(scale), z[half - j].conj().scale(scale));
            let e = xj + xc;
            let o = self.twiddles[j] * (xj - xc);
            z[j] = c64(e.re - o.im, e.im + o.re); // E[j] + i·O[j]
            z[half - j] = c64(e.re + o.im, o.re - e.im); // E*[j] + i·O*[j]
        }
        if half >= 2 && half.is_multiple_of(2) {
            // Self-paired bin: E = 2·Re X, O = −2·Im X.
            z[half / 2] = z[half / 2].conj().scale(2.0 * scale);
        }
        self.plan.process(z);
    }

    /// Reads the `out.len()` reals that [`Self::process_packed`] left in
    /// `row`.
    pub fn unpack(row: &[Complex64], out: &mut [f64]) {
        for (pair, z) in out.chunks_mut(2).zip(row) {
            pair[0] = z.re;
            if let Some(odd) = pair.get_mut(1) {
                *odd = z.im;
            }
        }
    }

    /// Reconstructs the real signal (scaled by n) from the half spectrum.
    /// Allocating convenience wrapper around [`Self::process_packed`].
    pub fn process(&self, spectrum: &[Complex64], output: &mut [f64]) {
        assert_eq!(output.len(), self.n, "output must have length n");
        // lcc-lint: allow(alloc) — convenience wrapper; the pipeline calls
        // `process_packed` on its own rows.
        let mut row = spectrum.to_vec();
        // lcc-lint: allow(alloc) — as above.
        let mut scratch = vec![Complex64::ZERO; self.scratch_len()];
        self.process_packed(&mut row, &mut scratch, 1.0);
        Self::unpack(&row, output);
    }

    /// Allocating convenience wrapper.
    pub fn transform(&self, spectrum: &[Complex64]) -> Vec<f64> {
        // lcc-lint: allow(alloc) — convenience wrapper, not used per row.
        let mut out = vec![0.0; self.n];
        self.process(spectrum, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft;

    fn real_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() + 0.2 * i as f64)
            .collect()
    }

    #[test]
    fn r2c_matches_complex_dft() {
        let planner = FftPlanner::new();
        for n in [2usize, 4, 6, 8, 16, 30, 64, 128] {
            let x = real_signal(n);
            let xc: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
            let full = dft(&xc, FftDirection::Forward);
            let plan = RealFft::new(&planner, n);
            let half = plan.transform(&x);
            for j in 0..=n / 2 {
                assert!((half[j] - full[j]).norm() < 1e-8 * n as f64, "n={n} j={j}");
            }
        }
    }

    #[test]
    fn c2r_roundtrip_scales_by_n() {
        let planner = FftPlanner::new();
        for n in [4usize, 8, 20, 64] {
            let x = real_signal(n);
            let fwd = RealFft::new(&planner, n);
            let inv = RealIfft::new(&planner, n);
            let spec = fwd.transform(&x);
            let back = inv.transform(&spec);
            for (a, b) in x.iter().zip(&back) {
                assert!((a * n as f64 - b).abs() < 1e-8 * n as f64, "n={n}");
            }
        }
    }

    /// Half spectrum of a real signal of any length, by the O(n²) oracle.
    fn half_spectrum(x: &[f64]) -> Vec<Complex64> {
        let xc: Vec<Complex64> = x.iter().map(|&v| Complex64::from_real(v)).collect();
        let mut full = dft(&xc, FftDirection::Forward);
        full.truncate(x.len() / 2 + 1);
        full
    }

    #[test]
    fn packed_c2r_roundtrips_and_equals_the_allocating_form() {
        // Even lengths run the packed algorithm (n = 2 has a 1-point half
        // FFT, 4 and 6 a self-paired / no self-paired bin), odd lengths the
        // Hermitian-extension fallback.
        let planner = FftPlanner::new();
        for n in [2usize, 4, 6, 16, 64, 128, 3, 9, 15] {
            let x = real_signal(n);
            let spec = half_spectrum(&x);
            let inv = RealIfft::new(&planner, n);
            let alloc = inv.transform(&spec);

            let mut row = spec.clone();
            let mut scratch = vec![Complex64::ZERO; inv.scratch_len()];
            inv.process_packed(&mut row, &mut scratch, 1.0);
            let mut packed = vec![0.0; n];
            RealIfft::unpack(&row, &mut packed);
            for (i, (a, b)) in alloc.iter().zip(&packed).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n} i={i}");
                assert!((x[i] * n as f64 - b).abs() < 1e-9 * n as f64, "n={n} i={i}");
            }

            // The output scale is the caller's: 1/n gives x back.
            let mut row = spec.clone();
            inv.process_packed(&mut row, &mut scratch, 1.0 / n as f64);
            RealIfft::unpack(&row, &mut packed);
            for (a, b) in x.iter().zip(&packed) {
                assert!((a - b).abs() < 1e-10, "n={n}");
            }
        }
    }

    #[test]
    fn r2c_needs_no_scratch_and_equals_the_allocating_form() {
        let planner = FftPlanner::new();
        for n in [2usize, 4, 6, 16, 64, 128] {
            let x = real_signal(n);
            let fwd = RealFft::new(&planner, n);
            let alloc = fwd.transform(&x);
            // Stale contents of the output must not leak into the result.
            let mut out = vec![c64(f64::NAN, f64::NAN); n / 2 + 1];
            fwd.process(&x, &mut out);
            let want = half_spectrum(&x);
            for (j, (a, b)) in alloc.iter().zip(&out).enumerate() {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "n={n} j={j}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "n={n} j={j}");
                assert!((*b - want[j]).norm() < 1e-9 * n as f64, "n={n} j={j}");
            }
        }
    }

    #[test]
    fn dc_and_nyquist_bins_are_real() {
        let planner = FftPlanner::new();
        let n = 32;
        let x = real_signal(n);
        let spec = RealFft::new(&planner, n).transform(&x);
        assert_eq!(spec[0].im, 0.0);
        assert_eq!(spec[n / 2].im, 0.0);
        let sum: f64 = x.iter().sum();
        assert!((spec[0].re - sum).abs() < 1e-9);
    }

    #[test]
    fn hermitian_halves_reconstruct_even_function() {
        // Even real signal → purely real spectrum.
        let planner = FftPlanner::new();
        let n = 16;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let d = (i as isize - 8).unsigned_abs() as f64;
                (-d * d / 4.0).exp()
            })
            .collect();
        // Make it exactly even around index 0 for DFT symmetry: x[i] = x[n-i].
        let mut xe = x.clone();
        for i in 1..n {
            xe[i] = x[std::cmp::min(i, n - i)];
        }
        let spec = RealFft::new(&planner, n).transform(&xe);
        for v in &spec {
            assert!(v.im.abs() < 1e-9, "even signal must have real spectrum");
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_length_rejected() {
        RealFft::new(&FftPlanner::new(), 9);
    }
}
