//! The MASSIF Green's operator Γ̂ (paper Eq. 3).
//!
//! For an isotropic reference medium with Lamé pair (λ₀, μ₀):
//!
//! ```text
//! Γ̂_ijkl(ξ) = 1/(4 μ₀ |ξ|²) (δ_ki ξ_l ξ_j + δ_li ξ_k ξ_j + δ_kj ξ_l ξ_i + δ_lj ξ_k ξ_i)
//!            − (λ₀+μ₀)/(μ₀(λ₀+2μ₀)) · ξ_i ξ_j ξ_k ξ_l / |ξ|⁴
//! ```
//!
//! Γ̂ is homogeneous of degree 0 in ξ, so integer wrapped frequencies can be
//! used directly. Γ̂(0) is defined as 0 (the Moulinec–Suquet convention: the
//! mean strain is prescribed, not solved for). Contracting against a
//! symmetric σ̂ reduces to two small dot products per point:
//!
//! `Δε̂_ij = (ξ_i s_j + ξ_j s_i)/(2 μ₀ |ξ|²) − c · ξ_i ξ_j (ξ·s)/|ξ|⁴`,
//! with `s_i = Σ_l ξ_l σ̂_il` and `c = (λ₀+μ₀)/(μ₀(λ₀+2μ₀))`.

use lcc_fft::Complex64;

use crate::kernel::{wrap_freq, KernelSpectrum};
use crate::sym::Sym3C;

/// The Γ̂ operator for an `n³` grid and an isotropic reference medium.
#[derive(Clone, Copy, Debug)]
pub struct MassifGamma {
    n: usize,
    lambda0: f64,
    mu0: f64,
}

impl MassifGamma {
    /// Creates the operator. `mu0 > 0`, `lambda0 + 2 mu0 > 0` required for
    /// a positive-definite reference medium.
    pub fn new(n: usize, lambda0: f64, mu0: f64) -> Self {
        assert!(mu0 > 0.0, "mu0 must be positive");
        assert!(
            lambda0 + 2.0 * mu0 > 0.0,
            "lambda0 + 2 mu0 must be positive"
        );
        MassifGamma { n, lambda0, mu0 }
    }

    /// Grid size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reference Lamé coefficients `(λ₀, μ₀)`.
    pub fn reference(&self) -> (f64, f64) {
        (self.lambda0, self.mu0)
    }

    /// Wrapped continuous frequency vector for bin `f`.
    #[inline]
    fn xi(&self, f: [usize; 3]) -> [f64; 3] {
        [
            wrap_freq(f[0], self.n) as f64,
            wrap_freq(f[1], self.n) as f64,
            wrap_freq(f[2], self.n) as f64,
        ]
    }

    /// Explicit component Γ̂_ijkl at bin `f` (reference implementation;
    /// the pipeline uses [`Self::apply`]).
    pub fn component(&self, f: [usize; 3], i: usize, j: usize, k: usize, l: usize) -> f64 {
        let xi = self.xi(f);
        let q2 = xi[0] * xi[0] + xi[1] * xi[1] + xi[2] * xi[2];
        if q2 == 0.0 {
            return 0.0;
        }
        let d = |a: usize, b: usize| if a == b { 1.0 } else { 0.0 };
        let t1 = (d(k, i) * xi[l] * xi[j]
            + d(l, i) * xi[k] * xi[j]
            + d(k, j) * xi[l] * xi[i]
            + d(l, j) * xi[k] * xi[i])
            / (4.0 * self.mu0 * q2);
        let c = (self.lambda0 + self.mu0) / (self.mu0 * (self.lambda0 + 2.0 * self.mu0));
        let t2 = c * xi[i] * xi[j] * xi[k] * xi[l] / (q2 * q2);
        t1 - t2
    }

    /// Applies Γ̂(ξ) : σ̂ at bin `f`.
    pub fn apply(&self, f: [usize; 3], sigma: &Sym3C) -> Sym3C {
        let xi = self.xi(f);
        let q2 = xi[0] * xi[0] + xi[1] * xi[1] + xi[2] * xi[2];
        if q2 == 0.0 {
            return Sym3C::ZERO;
        }
        // s_i = Σ_l ξ_l σ_il
        let mut s = [Complex64::ZERO; 3];
        for (i, si) in s.iter_mut().enumerate() {
            for (l, &x) in xi.iter().enumerate() {
                *si += sigma.get(i, l) * x;
            }
        }
        // ξ·s
        let mut xs = Complex64::ZERO;
        for i in 0..3 {
            xs += s[i] * xi[i];
        }
        let c = (self.lambda0 + self.mu0) / (self.mu0 * (self.lambda0 + 2.0 * self.mu0));
        let inv2mu = 1.0 / (2.0 * self.mu0 * q2);
        let c4 = c / (q2 * q2);
        let mut out = Sym3C::ZERO;
        for i in 0..3 {
            for j in i..3 {
                let v = (s[j] * xi[i] + s[i] * xi[j]) * inv2mu - xs * (c4 * xi[i] * xi[j]);
                out.set(i, j, v);
            }
        }
        out
    }
}

/// One component `Γ̂_ijkl(ξ)` for fixed `(i, j, k, l)` as a scalar
/// [`KernelSpectrum`]. The contraction `Δε̂_ij = Γ̂_ijkl : σ̂_kl` decomposes
/// into scalar convolutions of each stress component with one component —
/// the paper's "9 convolutions … for updating each stress component" — so
/// the generic scalar pipeline runs a MASSIF update unchanged, and the
/// tensor pipeline's tests use a sum of them as their reference. A
/// component odd in one `ξᵢ` (e.g. `ij = (0, 0)`, `kl = (0, 1)`) is the one
/// shipped spectrum that is not Hermitian on bins with a Nyquist
/// coordinate.
#[derive(Clone, Copy, Debug)]
pub struct GammaComponentKernel {
    gamma: MassifGamma,
    ij: (usize, usize),
    kl: (usize, usize),
}

impl GammaComponentKernel {
    /// Creates the component kernel.
    pub fn new(gamma: MassifGamma, ij: (usize, usize), kl: (usize, usize)) -> Self {
        assert!(ij.0 < 3 && ij.1 < 3 && kl.0 < 3 && kl.1 < 3);
        GammaComponentKernel { gamma, ij, kl }
    }

    /// The output (strain) component indices.
    pub fn ij(&self) -> (usize, usize) {
        self.ij
    }

    /// The input (stress) component indices.
    pub fn kl(&self) -> (usize, usize) {
        self.kl
    }
}

impl KernelSpectrum for GammaComponentKernel {
    fn n(&self) -> usize {
        self.gamma.n()
    }

    fn eval(&self, f: [usize; 3]) -> Complex64 {
        Complex64::from_real(
            self.gamma
                .component(f, self.ij.0, self.ij.1, self.kl.0, self.kl.1),
        )
    }

    // Γ̂ is homogeneous of degree 0 with its "impulse" at the origin: the
    // spatial operator decays from x = 0, so the default center [0,0,0]
    // applies.
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_fft::c64;
    use lcc_grid::IsotropicStiffness;

    const N: usize = 16;

    fn gamma() -> MassifGamma {
        MassifGamma::new(N, 1.2, 0.9)
    }

    #[test]
    fn zero_frequency_is_zero() {
        let g = gamma();
        let sigma = Sym3C::from_real(&lcc_grid::Sym3::IDENTITY);
        assert_eq!(g.apply([0, 0, 0], &sigma), Sym3C::ZERO);
        assert_eq!(g.component([0, 0, 0], 0, 0, 0, 0), 0.0);
    }

    #[test]
    fn minor_and_major_symmetries() {
        let g = gamma();
        let f = [3, 5, 1];
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    for l in 0..3 {
                        let base = g.component(f, i, j, k, l);
                        assert!((base - g.component(f, j, i, k, l)).abs() < 1e-12);
                        assert!((base - g.component(f, i, j, l, k)).abs() < 1e-12);
                        assert!((base - g.component(f, k, l, i, j)).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn apply_matches_component_contraction() {
        let g = gamma();
        let f = [2, 7, 4];
        let mut sigma = Sym3C::ZERO;
        sigma.set(0, 0, c64(1.0, 0.5));
        sigma.set(1, 1, c64(-2.0, 1.0));
        sigma.set(2, 2, c64(0.3, -0.4));
        sigma.set(1, 2, c64(0.8, 0.1));
        sigma.set(0, 2, c64(-0.6, 0.9));
        sigma.set(0, 1, c64(0.2, -0.2));
        let fast = g.apply(f, &sigma);
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = Complex64::ZERO;
                for k in 0..3 {
                    for l in 0..3 {
                        acc += sigma.get(k, l) * g.component(f, i, j, k, l);
                    }
                }
                assert!(
                    (fast.get(i, j) - acc).norm() < 1e-10,
                    "mismatch at ({i},{j}): {:?} vs {acc:?}",
                    fast.get(i, j)
                );
            }
        }
    }

    #[test]
    fn gamma_is_projection_on_compatible_fields() {
        // Fundamental property: for any displacement amplitude u and
        // frequency ξ, the compatible strain ε̂_ij = (ξ_i u_j + ξ_j u_i)/2
        // satisfies Γ̂ : (C₀ : ε̂) = ε̂. This pins down every constant in
        // Eq. 3 at once.
        let (l0, m0) = (1.2, 0.9);
        let g = MassifGamma::new(N, l0, m0);
        let c0 = IsotropicStiffness::new(l0, m0);
        let u = [c64(0.7, -0.3), c64(-1.1, 0.2), c64(0.4, 0.9)];
        for f in [[1usize, 0, 0], [0, 3, 0], [2, 5, 7], [9, 9, 9], [15, 1, 8]] {
            let xi = [
                wrap_freq(f[0], N) as f64,
                wrap_freq(f[1], N) as f64,
                wrap_freq(f[2], N) as f64,
            ];
            let mut eps = Sym3C::ZERO;
            for i in 0..3 {
                for j in i..3 {
                    eps.set(i, j, (u[j] * xi[i] + u[i] * xi[j]).scale(0.5));
                }
            }
            // σ̂ = C₀ : ε̂ (isotropic: λ tr I + 2μ ε), componentwise complex.
            let tr = eps.trace();
            let mut sig = Sym3C::ZERO;
            for i in 0..3 {
                for j in i..3 {
                    let mut v = eps.get(i, j).scale(2.0 * c0.mu);
                    if i == j {
                        v += tr.scale(c0.lambda);
                    }
                    sig.set(i, j, v);
                }
            }
            let back = g.apply(f, &sig);
            for i in 0..3 {
                for j in 0..3 {
                    assert!(
                        (back.get(i, j) - eps.get(i, j)).norm() < 1e-10,
                        "projection failed at f={f:?}, ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn homogeneous_degree_zero() {
        // Γ̂ depends only on the direction of ξ: scaling the frequency
        // (within the same grid) leaves components unchanged.
        let g = MassifGamma::new(64, 2.0, 1.0);
        let a = g.component([1, 2, 3], 0, 1, 2, 0);
        let b = g.component([2, 4, 6], 0, 1, 2, 0);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mu0 must be positive")]
    fn invalid_reference_rejected() {
        MassifGamma::new(8, 1.0, 0.0);
    }

    #[test]
    fn matches_gamma_component() {
        let g = MassifGamma::new(16, 1.0, 1.0);
        let k = GammaComponentKernel::new(g, (0, 1), (1, 2));
        let f = [3usize, 7, 2];
        assert_eq!(k.eval(f).re, g.component(f, 0, 1, 1, 2));
        assert_eq!(k.eval(f).im, 0.0, "Γ̂ components are real");
        assert_eq!(k.center(), [0, 0, 0]);
        assert_eq!(k.n(), 16);
    }

    #[test]
    fn pencil_evaluation_consistent() {
        let g = MassifGamma::new(8, 2.0, 1.5);
        let k = GammaComponentKernel::new(g, (2, 2), (0, 0));
        let mut out = vec![Complex64::ZERO; 8];
        k.eval_pencil_axis2(1, 5, &mut out);
        for (fz, &v) in out.iter().enumerate() {
            assert_eq!(v, k.eval([1, 5, fz]));
        }
    }
}
