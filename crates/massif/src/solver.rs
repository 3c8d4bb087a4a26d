//! The MASSIF fixed-point solver (paper Algorithm 1 / Algorithm 2).
//!
//! Moulinec–Suquet basic scheme for heterogeneous Hooke's law under an
//! applied macroscopic strain `E`:
//!
//! ```text
//! ε⁰ = E;   σ⁰ = C(x) : ε⁰
//! repeat:  Δε = Γ⁰ ⊛ σⁱ            // the paper's steps 2–5 (FFT, Γ̂ : σ̂, iFFT)
//!          εⁱ⁺¹ = εⁱ − Δε          // step 4 (mean strain preserved: Γ̂(0)=0)
//!          σⁱ⁺¹ = C(x) : εⁱ⁺¹      // step 6
//! until ‖Δε‖/‖E‖ < tol            // step 7: Γ⁰⊛σ → 0 ⟺ div σ → 0
//! ```
//!
//! The convolution step is pluggable via [`GammaConvolution`]:
//! [`SpectralGamma`] is Algorithm 1 (dense full-grid FFT, the traditional
//! inner loop); [`LowCommGamma`] is Algorithm 2 (per-sub-domain local
//! convolution with octree compression — the paper's contribution).

use lcc_greens::MassifGamma;
use lcc_grid::Sym3;

use crate::checkpoint::{self, Checkpoint, CheckpointConfig, CheckpointError};
use crate::fields::TensorField;
use crate::microstructure::Microstructure;

use lcc_core::{ConvolveMode, LowCommConfig, LowCommConvolver, TraditionalConvolver};

/// Strategy for computing `Δε = Γ⁰ ⊛ σ`.
pub trait GammaConvolution {
    /// Applies the periodized Green's operator to the stress field.
    fn apply_gamma(&self, sigma: &TensorField) -> TensorField;

    /// Human-readable strategy name for reports.
    fn name(&self) -> &'static str;
}

/// Algorithm 1: dense spectral application of Γ̂ (the reference inner
/// loop), one [`TraditionalConvolver::convolve_tensor`] — the half-spectrum
/// dense path every speedup is measured against.
pub struct SpectralGamma {
    gamma: MassifGamma,
    dense: TraditionalConvolver,
}

impl SpectralGamma {
    /// Creates the dense engine for `gamma`.
    pub fn new(gamma: MassifGamma) -> Self {
        SpectralGamma {
            gamma,
            dense: TraditionalConvolver::new(gamma.n()),
        }
    }
}

impl GammaConvolution for SpectralGamma {
    fn apply_gamma(&self, sigma: &TensorField) -> TensorField {
        let sigma = std::array::from_fn(|c| sigma.component(c));
        TensorField::from_components(self.dense.convolve_tensor(sigma, &self.gamma))
    }

    fn name(&self) -> &'static str {
        "spectral (Algorithm 1)"
    }
}

/// Algorithm 2: the low-communication inner loop, one
/// [`lcc_core::ConvolveSession::convolve_tensor`]. Each sub-domain's six
/// stress components stream through the shared tensor pipeline (forward
/// stages once per component, the full Γ̂ : σ̂ contraction applied per
/// frequency pencil), are octree-compressed, and accumulate by
/// interpolation — the paper's Algorithm 2 steps 3-6.
pub struct LowCommGamma {
    gamma: MassifGamma,
    conv: LowCommConvolver,
}

impl LowCommGamma {
    /// Creates the low-communication engine.
    pub fn new(gamma: MassifGamma, cfg: LowCommConfig) -> Self {
        assert_eq!(gamma.n(), cfg.n, "gamma and pipeline grid sizes differ");
        LowCommGamma {
            gamma,
            conv: LowCommConvolver::new(cfg),
        }
    }

    /// The underlying convolver (for communication accounting).
    pub fn convolver(&self) -> &LowCommConvolver {
        &self.conv
    }
}

impl GammaConvolution for LowCommGamma {
    fn apply_gamma(&self, sigma: &TensorField) -> TensorField {
        let sigma = std::array::from_fn(|c| sigma.component(c));
        let session = self.conv.session(ConvolveMode::Normal);
        TensorField::from_components(session.convolve_tensor(sigma, &self.gamma).0)
    }

    fn name(&self) -> &'static str {
        "low-communication (Algorithm 2)"
    }
}

/// Solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// Maximum fixed-point iterations.
    pub max_iters: usize,
    /// Convergence tolerance on ‖Δε‖/‖E‖.
    pub tol: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_iters: 100,
            tol: 1e-6,
        }
    }
}

/// Result of a fixed-point solve.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// Converged (or last-iterate) strain field.
    pub strain: TensorField,
    /// Corresponding stress field.
    pub stress: TensorField,
    /// Residual ‖Δε‖/‖E‖ per iteration.
    pub residuals: Vec<f64>,
    /// Whether the tolerance was met within the budget.
    pub converged: bool,
}

impl SolveResult {
    /// Number of iterations executed.
    pub fn iterations(&self) -> usize {
        self.residuals.len()
    }

    /// Volume-averaged stress (the effective response under the applied
    /// strain).
    pub fn effective_stress(&self) -> Sym3 {
        self.stress.mean()
    }
}

/// Applies the inverse of an isotropic rank-4 tensor `(λa, μa)` to a
/// symmetric tensor: `A⁻¹:s = s/(2μ) − λ·tr(s)·I / (2μ(3λ+2μ))`.
fn apply_isotropic_inverse(lambda: f64, mu: f64, s: &Sym3) -> Sym3 {
    let tr = s.trace();
    let c = lambda * tr / (2.0 * mu * (3.0 * lambda + 2.0 * mu));
    Sym3::new(
        s.c[0] / (2.0 * mu) - c,
        s.c[1] / (2.0 * mu) - c,
        s.c[2] / (2.0 * mu) - c,
        s.c[3] / (2.0 * mu),
        s.c[4] / (2.0 * mu),
        s.c[5] / (2.0 * mu),
    )
}

/// The Eyre–Milton accelerated scheme (in the Moulinec–Silva strain form):
///
/// ```text
/// τᵏ   = σᵏ − C₀ : εᵏ                         // polarization
/// εᵏ⁺¹ = εᵏ + 2 (C(x)+C₀)⁻¹ : C₀ : (E − εᵏ − Γ⁰ ∗ τᵏ)
/// ```
///
/// Fixed points are the Lippmann–Schwinger solutions (identical to the
/// basic scheme's); convergence scales with √contrast instead of contrast,
/// which is why it is the standard accelerator for high-contrast
/// composites. Uses the same pluggable Γ-convolution engine, so the
/// low-communication inner loop accelerates identically.
pub fn solve_accelerated(
    micro: &Microstructure,
    e: Sym3,
    cfg: SolverConfig,
    engine: &dyn GammaConvolution,
    gamma: &MassifGamma,
) -> SolveResult {
    let n = micro.n();
    let (l0, m0) = gamma.reference();
    let c0 = lcc_grid::IsotropicStiffness::new(l0, m0);
    let mut strain = TensorField::constant(n, e);
    let e_norm = e.frobenius() * ((n * n * n) as f64).sqrt();
    assert!(e_norm > 0.0, "applied strain must be nonzero");

    let mut residuals = Vec::new();
    let mut converged = false;
    for _ in 0..cfg.max_iters {
        let _it = lcc_obs::span("massif_iteration");
        lcc_obs::metrics::MASSIF_ITERATIONS.incr();
        // τ = σ − C0 : ε, pointwise.
        let mut tau = TensorField::zeros(n);
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let eps = strain.get(x, y, z);
                    let sig = micro.stiffness(x, y, z).apply(&eps);
                    tau.set(x, y, z, sig - c0.apply(&eps));
                }
            }
        }
        let gt = engine.apply_gamma(&tau);
        // r = E − ε − Γ0∗τ;  ε += 2 (C+C0)⁻¹ C0 r.
        let mut update_norm_sq = 0.0;
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let eps = strain.get(x, y, z);
                    let r = e - eps - gt.get(x, y, z);
                    let c0r = c0.apply(&r);
                    let c = micro.stiffness(x, y, z);
                    let upd = apply_isotropic_inverse(c.lambda + l0, c.mu + m0, &c0r).scale(2.0);
                    // Frobenius with shear double-count, as in field norms.
                    update_norm_sq += upd.ddot(&upd);
                    strain.set(x, y, z, eps + upd);
                }
            }
        }
        let res = update_norm_sq.sqrt() / e_norm;
        residuals.push(res);
        lcc_obs::metrics::MASSIF_RESIDUAL.set(res);
        if res < cfg.tol {
            converged = true;
            break;
        }
    }
    let stress = TensorField::stress_from_strain(micro, &strain);
    SolveResult {
        strain,
        stress,
        residuals,
        converged,
    }
}

/// Runs the fixed-point iteration on `micro` under applied strain `e`
/// using the given Γ-convolution engine.
pub fn solve(
    micro: &Microstructure,
    e: Sym3,
    cfg: SolverConfig,
    engine: &dyn GammaConvolution,
) -> SolveResult {
    solve_with_checkpoints(micro, e, cfg, engine, None)
        .expect("checkpoint-free solve performs no I/O")
}

/// The resumable fixed-point iteration behind [`solve`].
///
/// With `ckpt = Some(cfg)`, the strain field and residual history are
/// snapshotted to `cfg.path` after every `cfg.every` completed iterations
/// (atomic write — a crash mid-write keeps the previous snapshot). If
/// `cfg.path` already holds a valid checkpoint the run resumes from it
/// instead of starting over; because the basic-scheme iterate is a pure
/// function of the strain field (stress is recomputed as `C(x):ε`), the
/// resumed trajectory is bit-identical to an uninterrupted run.
///
/// A corrupt, truncated, or mismatched checkpoint is an error, never a
/// silent restart from scratch.
pub fn solve_with_checkpoints(
    micro: &Microstructure,
    e: Sym3,
    cfg: SolverConfig,
    engine: &dyn GammaConvolution,
    ckpt: Option<&CheckpointConfig>,
) -> Result<SolveResult, CheckpointError> {
    let n = micro.n();
    let mut strain = TensorField::constant(n, e);
    let mut residuals = Vec::new();
    if let Some(c) = ckpt {
        if c.path.exists() {
            let chk = checkpoint::load(&c.path)?;
            if chk.n != n {
                return Err(CheckpointError::Malformed(format!(
                    "checkpoint grid {} does not match problem grid {n}",
                    chk.n
                )));
            }
            strain = chk.strain;
            residuals = chk.residuals;
            residuals.truncate(chk.iteration);
        }
    }
    let mut stress = TensorField::stress_from_strain(micro, &strain);
    let e_norm = e.frobenius() * ((n * n * n) as f64).sqrt();
    assert!(e_norm > 0.0, "applied strain must be nonzero");

    let mut converged = residuals.last().is_some_and(|r| *r < cfg.tol);
    if !converged {
        for it in residuals.len()..cfg.max_iters {
            let _it_span = lcc_obs::span("massif_iteration");
            lcc_obs::metrics::MASSIF_ITERATIONS.incr();
            let delta = engine.apply_gamma(&stress);
            let res = delta.norm() / e_norm;
            residuals.push(res);
            lcc_obs::metrics::MASSIF_RESIDUAL.set(res);
            strain.axpy(-1.0, &delta);
            stress = TensorField::stress_from_strain(micro, &strain);
            if let Some(c) = ckpt {
                if (it + 1) % c.every == 0 {
                    checkpoint::write(
                        &c.path,
                        &Checkpoint {
                            n,
                            iteration: it + 1,
                            residuals: residuals.clone(),
                            strain: strain.clone(),
                        },
                    )?;
                }
            }
            if res < cfg.tol {
                converged = true;
                break;
            }
        }
    }
    Ok(SolveResult {
        strain,
        stress,
        residuals,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_grid::IsotropicStiffness;
    use lcc_octree::RateSchedule;

    fn soft() -> IsotropicStiffness {
        IsotropicStiffness::new(1.0, 1.0)
    }

    fn stiff() -> IsotropicStiffness {
        IsotropicStiffness::new(2.0, 4.0)
    }

    fn gamma_for(micro: &Microstructure) -> MassifGamma {
        let r = micro.reference_medium();
        MassifGamma::new(micro.n(), r.lambda, r.mu)
    }

    #[test]
    fn homogeneous_converges_immediately() {
        let micro = Microstructure::homogeneous(8, soft());
        let gamma = MassifGamma::new(8, 1.0, 1.0);
        let engine = SpectralGamma::new(gamma);
        let e = Sym3::diagonal(0.01, 0.0, 0.0);
        let r = solve(&micro, e, SolverConfig::default(), &engine);
        assert!(r.converged);
        assert_eq!(
            r.iterations(),
            1,
            "uniform stress is already in equilibrium"
        );
        // Strain stays exactly E; stress = C:E.
        assert_eq!(r.strain.get(3, 4, 5), e);
        let want = soft().apply(&e);
        let got = r.effective_stress();
        for c in 0..6 {
            assert!((got.c[c] - want.c[c]).abs() < 1e-12);
        }
    }

    /// Γ̂ planned for another grid used to fold the field's bins onto the
    /// wrong frequencies and return a wrong Δε without a word.
    #[test]
    #[should_panic(expected = "input shape mismatch")]
    fn spectral_gamma_rejects_a_field_of_another_size() {
        let engine = SpectralGamma::new(MassifGamma::new(8, 1.0, 1.0));
        let _ = engine.apply_gamma(&TensorField::constant(16, Sym3::diagonal(1.0, 0.0, 0.0)));
    }

    #[test]
    fn laminate_transverse_shear_matches_reuss_bound() {
        // Shear across an x-layered laminate: σ_xy is exactly uniform and
        // the effective shear modulus is the harmonic mean.
        let n = 16;
        let f = 0.5;
        let micro = Microstructure::laminate(n, f, soft(), stiff());
        let engine = SpectralGamma::new(gamma_for(&micro));
        let exy = 0.01;
        let e = Sym3::new(0.0, 0.0, 0.0, 0.0, 0.0, exy);
        let r = solve(
            &micro,
            e,
            SolverConfig {
                max_iters: 300,
                tol: 1e-10,
            },
            &engine,
        );
        assert!(
            r.converged,
            "laminate failed to converge: {:?}",
            r.residuals.last()
        );
        let mu_h = 1.0 / (f / stiff().mu + (1.0 - f) / soft().mu);
        let want = 2.0 * mu_h * exy;
        let got = r.effective_stress().c[5];
        assert!(
            (got - want).abs() / want < 1e-6,
            "effective σ_xy {got} vs Reuss {want}"
        );
        // σ_xy must be (nearly) uniform across layers.
        let a = r.stress.get(0, 0, 0).c[5];
        let b = r.stress.get(n - 1, 0, 0).c[5];
        assert!((a - b).abs() / want < 1e-6);
    }

    #[test]
    fn residuals_decrease_for_sphere() {
        let micro = Microstructure::sphere(16, 0.5, soft(), stiff());
        let engine = SpectralGamma::new(gamma_for(&micro));
        let e = Sym3::diagonal(0.01, 0.0, 0.0);
        let r = solve(
            &micro,
            e,
            SolverConfig {
                max_iters: 80,
                tol: 1e-5,
            },
            &engine,
        );
        assert!(r.converged, "residuals: {:?}", &r.residuals);
        // Monotone (basic scheme contracts for this contrast).
        for w in r.residuals.windows(2) {
            assert!(w[1] < w[0] * 1.05, "residuals not decreasing: {w:?}");
        }
        // Effective axial stiffness must sit between the phase extremes.
        let sxx = r.effective_stress().c[0];
        let lo = soft().apply(&e).c[0];
        let hi = stiff().apply(&e).c[0];
        assert!(sxx > lo && sxx < hi, "{lo} < {sxx} < {hi}");
    }

    #[test]
    fn accelerated_matches_basic_fixed_point() {
        // Same laminate-shear exact solution as the basic scheme's test.
        let n = 8;
        let f = 0.5;
        let micro = Microstructure::laminate(n, f, soft(), stiff());
        let gamma = gamma_for(&micro);
        let engine = SpectralGamma::new(gamma);
        let exy = 0.01;
        let e = Sym3::new(0.0, 0.0, 0.0, 0.0, 0.0, exy);
        let cfg = SolverConfig {
            max_iters: 200,
            tol: 1e-10,
        };
        let r = solve_accelerated(&micro, e, cfg, &engine, &gamma);
        assert!(
            r.converged,
            "EM failed to converge: {:?}",
            r.residuals.last()
        );
        let mu_h = 1.0 / (f / stiff().mu + (1.0 - f) / soft().mu);
        let want = 2.0 * mu_h * exy;
        let got = r.effective_stress().c[5];
        assert!(
            (got - want).abs() / want < 1e-6,
            "EM σ_xy {got} vs Reuss {want}"
        );
    }

    #[test]
    fn accelerated_beats_basic_at_high_contrast() {
        // Contrast 100: the basic scheme crawls, Eyre–Milton does not.
        let n = 8;
        let hard = IsotropicStiffness::new(100.0, 100.0);
        let micro = Microstructure::sphere(n, 0.6, soft(), hard);
        let gamma = gamma_for(&micro);
        let engine = SpectralGamma::new(gamma);
        let e = Sym3::diagonal(0.01, 0.0, 0.0);
        let cfg = SolverConfig {
            max_iters: 400,
            tol: 1e-6,
        };
        let em = solve_accelerated(&micro, e, cfg, &engine, &gamma);
        let basic = solve(&micro, e, cfg, &engine);
        assert!(em.converged, "EM residuals tail: {:?}", em.residuals.last());
        assert!(
            em.iterations() * 2 < basic.iterations().max(cfg.max_iters),
            "EM {} iters vs basic {}",
            em.iterations(),
            basic.iterations()
        );
        // Both (if converged) agree on the effective response.
        if basic.converged {
            let a = em.effective_stress().c[0];
            let b = basic.effective_stress().c[0];
            assert!((a - b).abs() / b < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn isotropic_inverse_is_inverse() {
        let c = IsotropicStiffness::new(1.7, 0.9);
        let s = Sym3::new(0.3, -0.2, 0.5, 0.1, -0.4, 0.2);
        let back = apply_isotropic_inverse(c.lambda, c.mu, &c.apply(&s));
        for i in 0..6 {
            assert!((back.c[i] - s.c[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn lowcomm_lossless_matches_spectral() {
        // Algorithm 2 with a lossless (rate-1) schedule must reproduce
        // Algorithm 1's iterates to round-off.
        let n = 8;
        let micro = Microstructure::sphere(n, 0.6, soft(), stiff());
        let gamma = gamma_for(&micro);
        let e = Sym3::diagonal(0.01, 0.0, 0.0);
        let cfg = SolverConfig {
            max_iters: 4,
            tol: 1e-14,
        };
        let spectral = solve(&micro, e, cfg, &SpectralGamma::new(gamma));
        let lc_engine = LowCommGamma::new(
            gamma,
            LowCommConfig {
                n,
                k: 4,
                batch: 64,
                schedule: RateSchedule::uniform(1),
            },
        );
        let lowcomm = solve(&micro, e, cfg, &lc_engine);
        let err = lowcomm.strain.relative_error_to(&spectral.strain);
        assert!(err < 1e-9, "lossless Algorithm 2 deviates: {err}");
    }

    #[test]
    fn lowcomm_adaptive_convergence_unaffected() {
        // §5.3: "convolution error up to 3% did not largely impact
        // convergence or number of iterations".
        let n = 16;
        let micro = Microstructure::sphere(n, 0.5, soft(), stiff());
        let gamma = gamma_for(&micro);
        let e = Sym3::diagonal(0.01, 0.0, 0.0);
        let cfg = SolverConfig {
            max_iters: 40,
            tol: 1e-4,
        };
        let spectral = solve(&micro, e, cfg, &SpectralGamma::new(gamma));
        let lc_engine = LowCommGamma::new(
            gamma,
            LowCommConfig {
                n,
                k: 8,
                batch: 256,
                schedule: RateSchedule::for_kernel_spread(8, 1.5, 8),
            },
        );
        let lowcomm = solve(&micro, e, cfg, &lc_engine);
        assert!(spectral.converged && lowcomm.converged);
        let di = (spectral.iterations() as i64 - lowcomm.iterations() as i64).abs();
        assert!(
            di <= 2,
            "iteration counts diverged: {} vs {}",
            spectral.iterations(),
            lowcomm.iterations()
        );
        let sa = spectral.effective_stress().c[0];
        let sb = lowcomm.effective_stress().c[0];
        assert!(
            (sa - sb).abs() / sa < 0.03,
            "effective stress differs: {sa} vs {sb}"
        );
    }
}
