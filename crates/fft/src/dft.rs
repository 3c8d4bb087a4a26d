//! Naive O(n²) discrete Fourier transform.
//!
//! This is the correctness oracle for every fast transform in the crate. It is
//! also used directly for very small sizes where the O(n²) loop beats FFT
//! bookkeeping.

use crate::complex::Complex64;
use crate::FftDirection;

/// Computes the DFT of `input` into a fresh vector.
///
/// `X[j] = Σ_n x[n] · e^{∓2πi jn / N}` with the sign chosen by `direction`
/// (`Forward` = `-`, `Inverse` = `+`). No normalization is applied; like FFTW,
/// a forward followed by an inverse transform scales the signal by `N`.
pub fn dft(input: &[Complex64], direction: FftDirection) -> Vec<Complex64> {
    let n = input.len();
    let mut out = vec![Complex64::ZERO; n];
    dft_into(input, &mut out, direction);
    out
}

/// Computes the DFT of `input` into `output` (must be same length).
pub fn dft_into(input: &[Complex64], output: &mut [Complex64], direction: FftDirection) {
    let n = input.len();
    assert_eq!(output.len(), n, "dft output length mismatch");
    if n == 0 {
        return;
    }
    let sign = direction.angle_sign();
    let step = sign * 2.0 * std::f64::consts::PI / n as f64;
    for (j, out) in output.iter_mut().enumerate() {
        let mut acc = Complex64::ZERO;
        for (k, &x) in input.iter().enumerate() {
            // (j * k) % n keeps the angle small for large n, reducing
            // accumulated sin/cos argument error in the oracle.
            let idx = (j * k) % n;
            acc += x * Complex64::cis(step * idx as f64);
        }
        *out = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn dft_of_delta_is_flat() {
        let mut x = vec![Complex64::ZERO; 8];
        x[0] = Complex64::ONE;
        let y = dft(&x, FftDirection::Forward);
        for v in y {
            assert!((v - Complex64::ONE).norm() < 1e-12);
        }
    }

    #[test]
    fn dft_of_constant_is_delta() {
        let x = vec![Complex64::ONE; 8];
        let y = dft(&x, FftDirection::Forward);
        assert!((y[0] - c64(8.0, 0.0)).norm() < 1e-12);
        for v in &y[1..] {
            assert!(v.norm() < 1e-12);
        }
    }

    #[test]
    fn forward_then_inverse_scales_by_n() {
        let x: Vec<Complex64> = (0..13).map(|i| c64(i as f64, -(i as f64) * 0.5)).collect();
        let y = dft(&x, FftDirection::Forward);
        let z = dft(&y, FftDirection::Inverse);
        for (a, b) in x.iter().zip(z.iter()) {
            assert!((*a * 13.0 - *b).norm() < 1e-9);
        }
    }

    #[test]
    fn shifted_delta_gives_twiddle_ramp() {
        let mut x = vec![Complex64::ZERO; 16];
        x[1] = Complex64::ONE;
        let y = dft(&x, FftDirection::Forward);
        for (j, v) in y.iter().enumerate() {
            let expect = Complex64::cis(-2.0 * std::f64::consts::PI * j as f64 / 16.0);
            assert!((*v - expect).norm() < 1e-12);
        }
    }

    #[test]
    fn empty_input_ok() {
        assert!(dft(&[], FftDirection::Forward).is_empty());
    }

    #[test]
    fn linearity() {
        let x: Vec<Complex64> = (0..9).map(|i| c64(i as f64, 1.0)).collect();
        let y: Vec<Complex64> = (0..9).map(|i| c64(1.0, -(i as f64))).collect();
        let sum: Vec<Complex64> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        let fx = dft(&x, FftDirection::Forward);
        let fy = dft(&y, FftDirection::Forward);
        let fsum = dft(&sum, FftDirection::Forward);
        for i in 0..9 {
            assert!((fsum[i] - (fx[i] + fy[i])).norm() < 1e-10);
        }
    }
}
