//! # lcc-greens — Green's-function convolution kernels
//!
//! The kernels whose properties the paper exploits: "rapidly-decaying" with a
//! "real-valued FFT", known in closed frequency-domain form so they can be
//! "computed on-the-fly during convolution" (§2.2, §4).
//!
//! * [`gaussian::GaussianKernel`] — the sharp centered Gaussian of the
//!   proof-of-concept implementation, with an exact separable real spectrum.
//! * [`massif_gamma::MassifGamma`] — the rank-4 elastic Green's operator of
//!   Eq. 3, applied per frequency bin to symmetric complex stress tensors;
//!   [`massif_gamma::GammaComponentKernel`] is one of its components as a
//!   scalar spectrum.
//! * [`poisson::PoissonSpectrum`] / [`poisson::free_space_kernel`] — the
//!   Poisson kernel of Eq. 5 and its discrete spectral inverse.
//! * [`kernel::KernelSpectrum`] — the scalar transfer-function abstraction
//!   the convolution pipeline multiplies against.

pub mod gaussian;
pub mod helmholtz;
pub mod kernel;
pub mod massif_gamma;
pub mod poisson;
pub mod sym;

pub use gaussian::GaussianKernel;
pub use helmholtz::{yukawa_kernel, ScreenedPoissonSpectrum};
pub use kernel::{hermitian_defect, hermitian_pencil, wrap_freq, KernelSpectrum};

// `wrap_freq` is re-exported above for downstream frequency bookkeeping.
pub use massif_gamma::{GammaComponentKernel, MassifGamma};
pub use poisson::{decay_profile, free_space_kernel, PoissonSpectrum};
pub use sym::Sym3C;
