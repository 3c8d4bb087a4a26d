//! Bluestein's algorithm (chirp-z transform) for arbitrary transform lengths.
//!
//! Re-expresses a length-`n` DFT as a circular convolution of length
//! `m ≥ 2n−1` (rounded up to a power of two so the inner transforms use the
//! split-layout executor):
//!
//! `X[j] = b*[j] · Σ_k (x[k]·b*[k]) · b[j−k]`,  with chirp `b[k] = e^{iπk²/n}`.
//!
//! The kernel's forward transform is precomputed at plan time, so each
//! invocation costs two inner FFTs plus O(n) pre/post multiplies.

// lcc-lint: hot-path — per-call chirp convolution; only plan-time may allocate.

use crate::complex::Complex64;
use crate::simd::{self, SplitFft, Variant};
use crate::workspace::workspace;
use crate::{Fft, FftDirection};

/// A planned arbitrary-length FFT via Bluestein's chirp-z reformulation.
pub struct BluesteinFft {
    len: usize,
    direction: FftDirection,
    /// Chirp `b[k] = e^{sign·iπk²/n}`, used for both pre- and post-multiply.
    chirp: Vec<Complex64>,
    /// Forward transform of the padded chirp kernel, length `m`.
    kernel_hat: Vec<Complex64>,
    inner_fwd: SplitFft,
    inner_inv: SplitFft,
}

impl BluesteinFft {
    /// Plans a transform of any length `n ≥ 1`; the inner power-of-two
    /// convolution follows the process-wide SIMD variant detection.
    pub fn new(n: usize, direction: FftDirection) -> Self {
        Self::with_variant(n, direction, simd::variant())
    }

    /// Plans with an explicitly forced kernel [`Variant`] for the inner
    /// power-of-two transforms (test/benchmark hook).
    pub fn with_variant(n: usize, direction: FftDirection, variant: Variant) -> Self {
        assert!(n >= 1, "BluesteinFft requires n >= 1");
        let m = (2 * n - 1).next_power_of_two();
        let sign = direction.angle_sign();

        // chirp[k] = e^{sign·iπ k²/n}. Reduce k² mod 2n before converting to
        // an angle: k² can overflow f64's integer precision for large n.
        let chirp = |k: usize| -> Complex64 {
            let k = k as u128;
            let q = (k * k) % (2 * n as u128);
            Complex64::cis(sign * std::f64::consts::PI * q as f64 / n as f64)
        };

        let chirp_vec: Vec<Complex64> = (0..n).map(&chirp).collect();

        // With jn = (j² + n² − (j−n)²)/2,
        //   X[j] = b[j] · Σ_k (x[k]·b[k]) · b*[j−k],
        // so the convolution kernel is the *conjugate* chirp, mirrored into
        // the tail so that circular indices j−k < 0 wrap onto b*[k−j].
        // lcc-lint: allow(alloc) — plan-time kernel table, built once.
        let mut kernel = vec![Complex64::ZERO; m];
        for k in 0..n {
            let v = chirp(k).conj();
            kernel[k] = v;
            if k != 0 {
                kernel[m - k] = v;
            }
        }

        let inner_fwd = SplitFft::new(m, FftDirection::Forward, variant);
        let inner_inv = SplitFft::new(m, FftDirection::Inverse, variant);
        inner_fwd.process(&mut kernel);

        BluesteinFft {
            len: n,
            direction,
            chirp: chirp_vec,
            kernel_hat: kernel,
            inner_fwd,
            inner_inv,
        }
    }

    /// Length of the inner power-of-two convolution.
    pub fn inner_len(&self) -> usize {
        self.kernel_hat.len()
    }
}

impl Fft for BluesteinFft {
    fn len(&self) -> usize {
        self.len
    }

    fn direction(&self) -> FftDirection {
        self.direction
    }

    fn kernel_kind(&self) -> &'static str {
        "bluestein"
    }

    fn process(&self, buf: &mut [Complex64]) {
        let n = self.len;
        assert_eq!(buf.len(), n, "buffer length must equal plan length");
        if n == 1 {
            return;
        }
        let m = self.inner_len();
        let mut ws = workspace();
        let [work] = ws.complex_bufs([m]);
        for k in 0..n {
            work[k] = buf[k] * self.chirp[k];
        }
        work[n..].fill(Complex64::ZERO);
        self.inner_fwd.process(work);
        for (w, k) in work.iter_mut().zip(&self.kernel_hat) {
            *w *= *k;
        }
        self.inner_inv.process(work);
        let scale = 1.0 / m as f64;
        for j in 0..n {
            buf[j] = work[j] * self.chirp[j] * scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::dft::dft;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| c64((i as f64 * 0.7).sin() + 1.0, (i as f64 * 1.3).cos()))
            .collect()
    }

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).norm())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_dft_various_lengths() {
        for n in [
            1, 2, 3, 5, 6, 7, 9, 11, 12, 15, 17, 31, 45, 97, 100, 129, 243,
        ] {
            let x = signal(n);
            let expect = dft(&x, FftDirection::Forward);
            let plan = BluesteinFft::new(n, FftDirection::Forward);
            let mut buf = x.clone();
            plan.process(&mut buf);
            assert!(
                max_err(&buf, &expect) < 1e-8 * (n as f64).max(1.0),
                "mismatch at n={n}"
            );
        }
    }

    #[test]
    fn inverse_matches_dft() {
        for n in [3, 7, 30, 50] {
            let x = signal(n);
            let expect = dft(&x, FftDirection::Inverse);
            let plan = BluesteinFft::new(n, FftDirection::Inverse);
            let mut buf = x.clone();
            plan.process(&mut buf);
            assert!(max_err(&buf, &expect) < 1e-8, "mismatch at n={n}");
        }
    }

    #[test]
    fn roundtrip_prime_length() {
        let n = 101;
        let x = signal(n);
        let fwd = BluesteinFft::new(n, FftDirection::Forward);
        let inv = BluesteinFft::new(n, FftDirection::Inverse);
        let mut buf = x.clone();
        fwd.process(&mut buf);
        inv.process(&mut buf);
        for (a, b) in x.iter().zip(&buf) {
            assert!((*a * n as f64 - *b).norm() < 1e-7);
        }
    }

    #[test]
    fn works_on_power_of_two_as_well() {
        let n = 64;
        let x = signal(n);
        let expect = dft(&x, FftDirection::Forward);
        let plan = BluesteinFft::new(n, FftDirection::Forward);
        let mut buf = x.clone();
        plan.process(&mut buf);
        assert!(max_err(&buf, &expect) < 1e-8);
    }

    #[test]
    fn large_length_angle_reduction_stays_accurate() {
        // k² for k near 10^4 exceeds 2^53⁄n without modular reduction;
        // this guards the (k² mod 2n) trick.
        let n = 10_007; // prime
        let mut x = vec![Complex64::ZERO; n];
        x[1] = Complex64::ONE;
        let plan = BluesteinFft::new(n, FftDirection::Forward);
        plan.process(&mut x);
        // FFT of shifted delta: |X[j]| = 1 for all j.
        for v in x.iter().step_by(997) {
            assert!((v.norm() - 1.0).abs() < 1e-6);
        }
    }
}
