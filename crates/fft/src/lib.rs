//! # lcc-fft — from-scratch FFT substrate
//!
//! The FFT library underlying the low-communication convolution framework.
//! Everything is implemented in this workspace (no FFTW/cuFFT bindings),
//! because the paper's contribution — pruned zero-padded stages, batched
//! pencil processing, compression interleaved with inverse stages — lives in
//! exactly the places an off-the-shelf library hides.
//!
//! Provided transforms:
//!
//! * [`simd`] — the one power-of-two executor: radix-8/4 Cooley-Tukey
//!   stages in split layout, run by runtime-dispatched butterfly kernels
//!   (AVX2+FMA / NEON, scalar elsewhere).
//! * [`bluestein::BluesteinFft`] — arbitrary lengths via the chirp-z
//!   reformulation.
//! * [`planner::FftPlanner`] — thread-safe plan cache, FFTW-style.
//! * [`real::RealFft`] / [`real::RealIfft`] — r2c / c2r transforms.
//! * [`pruned::PrunedInputFft`] — O(N log k) forward transform of a k-point
//!   head-supported signal zero-padded to N (the paper's implicit padding).
//! * [`tile`] — the same butterflies across 8 adjacent strided pencils at
//!   once (no gather, no transpose), and the pipeline's z-stage driver.
//! * [`batch`] / [`nd`] — rayon-parallel batched pencil transforms over 3D
//!   buffers and full 2D/3D transforms composed from them.
//! * [`dft`] — the O(n²) oracle used by the test suites.
//!
//! Conventions follow FFTW: forward = `e^{-2πi jn/N}`, inverse unnormalized,
//! so forward-then-inverse scales by `N`.

pub mod batch;
pub mod bluestein;
pub mod complex;
pub mod detector;
pub mod dft;
pub mod nd;
pub mod planner;
pub mod pruned;
pub mod real;
pub mod simd;
pub mod tile;
pub mod workspace;

pub use batch::{fft_axis, scale_in_place, Dims3};
pub use complex::{as_reals, c64, Complex64};
pub use nd::{cyclic_convolve_3d, fft_2d, fft_3d, ifft_3d_normalized};
pub use planner::{fft_in_place, ifft_normalized, FftPlan, FftPlanner};
pub use pruned::{PrunedInputFft, PrunedPlanner};
pub use real::{RealFft, RealIfft};
pub use simd::{ulp_at, ulp_diff_floored, variant_name, Variant};
pub use tile::{TileFft, ZStage, ZTile};
pub use workspace::{workspace, Workspace, WorkspaceGuard};

/// Transform direction. Forward uses the `e^{-2πi jn/N}` kernel; Inverse uses
/// the conjugate kernel and, like FFTW, applies **no** normalization.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FftDirection {
    /// Spatial → frequency.
    Forward,
    /// Frequency → spatial (unnormalized).
    Inverse,
}

impl FftDirection {
    /// Sign of the exponent angle: −1 forward, +1 inverse.
    #[inline]
    pub fn angle_sign(self) -> f64 {
        match self {
            FftDirection::Forward => -1.0,
            FftDirection::Inverse => 1.0,
        }
    }

    /// The opposite direction.
    #[inline]
    pub fn opposite(self) -> Self {
        match self {
            FftDirection::Forward => FftDirection::Inverse,
            FftDirection::Inverse => FftDirection::Forward,
        }
    }
}

/// A planned one-dimensional transform of fixed length and direction.
pub trait Fft {
    /// Transform length.
    fn len(&self) -> usize;
    /// True when `len() == 0` (never, for valid plans).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Transform direction.
    fn direction(&self) -> FftDirection;
    /// Transforms `buf` in place. Panics if `buf.len() != self.len()`.
    fn process(&self, buf: &mut [Complex64]);
    /// Short static tag naming the kernel family executing this plan
    /// (e.g. `"split"`, `"bluestein"`). Introspection/benchmark hook;
    /// never used for dispatch.
    fn kernel_kind(&self) -> &'static str {
        "unknown"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_signs() {
        assert_eq!(FftDirection::Forward.angle_sign(), -1.0);
        assert_eq!(FftDirection::Inverse.angle_sign(), 1.0);
        assert_eq!(FftDirection::Forward.opposite(), FftDirection::Inverse);
    }
}
