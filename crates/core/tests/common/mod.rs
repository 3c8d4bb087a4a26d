//! Helpers shared by this crate's unit tests (`crate::test_common`) and its
//! integration tests (`mod common;`).

use lcc_fft::Complex64;
use lcc_greens::{KernelSpectrum, MassifGamma};

/// Scalar view of one Γ̂ component, `Γ̂_ijkl` as a [`KernelSpectrum`] — the
/// reference path of the tensor pipeline, and for components odd in one
/// `ξᵢ` (e.g. `ij = (0, 0)`, `kl = (0, 1)`) the one shipped spectrum that is
/// not Hermitian on bins with a Nyquist coordinate.
pub struct GammaComp {
    pub gamma: MassifGamma,
    pub ij: (usize, usize),
    pub kl: (usize, usize),
}

impl KernelSpectrum for GammaComp {
    fn n(&self) -> usize {
        self.gamma.n()
    }
    fn eval(&self, f: [usize; 3]) -> Complex64 {
        Complex64::from_real(
            self.gamma
                .component(f, self.ij.0, self.ij.1, self.kl.0, self.kl.1),
        )
    }
}
