//! Multi-dimensional transforms composed from batched pencil stages.

use crate::batch::{fft_axis, scale_in_place, Dims3};
use crate::complex::Complex64;
use crate::planner::FftPlanner;
use crate::FftDirection;

/// Full 3D transform: every axis of the row-major `(n0, n1, n2)` buffer.
pub fn fft_3d(planner: &FftPlanner, data: &mut [Complex64], dims: Dims3, direction: FftDirection) {
    // Innermost (contiguous) axis first: best locality while the data is
    // still untouched; subsequent strided axes see already-transformed rows.
    fft_axis(planner, data, dims, 2, direction);
    fft_axis(planner, data, dims, 1, direction);
    fft_axis(planner, data, dims, 0, direction);
}

/// Normalized inverse 3D transform: `ifft_3d(fft_3d(x)) == x`.
pub fn ifft_3d_normalized(planner: &FftPlanner, data: &mut [Complex64], dims: Dims3) {
    fft_3d(planner, data, dims, FftDirection::Inverse);
    let n = (dims.0 * dims.1 * dims.2) as f64;
    scale_in_place(data, 1.0 / n);
}

/// 2D transform of a single row-major `(n0, n1)` plane.
pub fn fft_2d(
    planner: &FftPlanner,
    data: &mut [Complex64],
    dims: (usize, usize),
    direction: FftDirection,
) {
    let d3 = (1, dims.0, dims.1);
    fft_axis(planner, data, d3, 2, direction);
    fft_axis(planner, data, d3, 1, direction);
}

/// Cyclic convolution of two equal-shape 3D signals via the convolution
/// theorem. Returns the (exact, unapproximated) result. Full-complex on
/// purpose: it is the independent oracle the half-spectrum dense path
/// (`lcc_core::TraditionalConvolver`) is checked against.
pub fn cyclic_convolve_3d(
    planner: &FftPlanner,
    a: &[Complex64],
    b: &[Complex64],
    dims: Dims3,
) -> Vec<Complex64> {
    assert_eq!(a.len(), b.len());
    let mut fa = a.to_vec();
    let mut fb = b.to_vec();
    fft_3d(planner, &mut fa, dims, FftDirection::Forward);
    fft_3d(planner, &mut fb, dims, FftDirection::Forward);
    for (x, y) in fa.iter_mut().zip(&fb) {
        *x *= *y;
    }
    ifft_3d_normalized(planner, &mut fa, dims);
    fa
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    fn fill(dims: Dims3) -> Vec<Complex64> {
        (0..dims.0 * dims.1 * dims.2)
            .map(|i| c64((i as f64 * 0.11).sin(), (i as f64 * 0.07).cos()))
            .collect()
    }

    #[test]
    fn roundtrip_3d() {
        let planner = FftPlanner::new();
        let dims = (4, 6, 8);
        let base = fill(dims);
        let mut data = base.clone();
        fft_3d(&planner, &mut data, dims, FftDirection::Forward);
        ifft_3d_normalized(&planner, &mut data, dims);
        for (a, b) in base.iter().zip(&data) {
            assert!((*a - *b).norm() < 1e-10);
        }
    }

    #[test]
    fn fft_3d_of_delta_is_flat() {
        let planner = FftPlanner::new();
        let dims = (4, 4, 4);
        let mut data = vec![Complex64::ZERO; 64];
        data[0] = Complex64::ONE;
        fft_3d(&planner, &mut data, dims, FftDirection::Forward);
        for v in &data {
            assert!((*v - Complex64::ONE).norm() < 1e-10);
        }
    }

    #[test]
    fn convolution_with_delta_is_identity() {
        let planner = FftPlanner::new();
        let dims = (4, 4, 4);
        let a = fill(dims);
        let mut delta = vec![Complex64::ZERO; 64];
        delta[0] = Complex64::ONE;
        let out = cyclic_convolve_3d(&planner, &a, &delta, dims);
        for (x, y) in a.iter().zip(&out) {
            assert!((*x - *y).norm() < 1e-10);
        }
    }

    #[test]
    fn convolution_with_shifted_delta_shifts() {
        let planner = FftPlanner::new();
        let dims = (2, 3, 4);
        let a = fill(dims);
        let (n0, n1, n2) = dims;
        let mut delta = vec![Complex64::ZERO; n0 * n1 * n2];
        // delta at (1, 2, 3) → cyclic shift by that amount.
        delta[n1 * n2 + 2 * n2 + 3] = Complex64::ONE;
        let out = cyclic_convolve_3d(&planner, &a, &delta, dims);
        for i0 in 0..n0 {
            for i1 in 0..n1 {
                for i2 in 0..n2 {
                    let src = ((i0 + n0 - 1) % n0) * n1 * n2
                        + ((i1 + n1 - 2) % n1) * n2
                        + ((i2 + n2 - 3) % n2);
                    let dst = i0 * n1 * n2 + i1 * n2 + i2;
                    assert!((a[src] - out[dst]).norm() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn fft_2d_roundtrip() {
        let planner = FftPlanner::new();
        let dims = (8, 8);
        let base: Vec<Complex64> = (0..64).map(|i| c64(i as f64, -(i as f64))).collect();
        let mut data = base.clone();
        fft_2d(&planner, &mut data, dims, FftDirection::Forward);
        fft_2d(&planner, &mut data, dims, FftDirection::Inverse);
        for (a, b) in base.iter().zip(&data) {
            assert!((*a * 64.0 - *b).norm() < 1e-8);
        }
    }
}
