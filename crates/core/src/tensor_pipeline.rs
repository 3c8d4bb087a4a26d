//! Tensor-field streaming convolution — Algorithm 2's inner loop as the
//! paper actually runs it.
//!
//! MASSIF convolves a symmetric rank-2 field with the rank-4 Γ̂: per
//! frequency bin, `Δε̂ = Γ̂(ξ) : σ̂(ξ)` mixes all six Voigt components. The
//! scalar pipeline would need 36 separate convolutions; this variant runs
//! the forward stages **once per component** (six slabs), applies the full
//! tensor contraction on the fly in the z stage, and streams six compressed
//! outputs — the same transform count as the paper's "9 convolutions per
//! stress component" accounting collapsed into shared passes.

// lcc-lint: hot-path — tensor z stage; only per-solve setup may allocate.

use std::sync::Arc;

use rayon::prelude::*;

use lcc_fft::{workspace, Complex64};
use lcc_greens::Sym3C;
use lcc_grid::Grid3;
use lcc_octree::{CompressedField, SamplingPlan};

use crate::pipeline::LocalConvolver;

/// A transfer operator on symmetric 3×3 tensor spectra, applied per
/// frequency bin (`lcc_greens::MassifGamma` is the canonical instance).
pub trait TensorKernelSpectrum: Send + Sync {
    /// Grid size n.
    fn n(&self) -> usize;
    /// Applies the operator at bin `f` to a symmetric complex tensor.
    fn apply(&self, f: [usize; 3], sigma: &Sym3C) -> Sym3C;
}

impl TensorKernelSpectrum for lcc_greens::MassifGamma {
    fn n(&self) -> usize {
        lcc_greens::MassifGamma::n(self)
    }
    fn apply(&self, f: [usize; 3], sigma: &Sym3C) -> Sym3C {
        lcc_greens::MassifGamma::apply(self, f, sigma)
    }
}

impl LocalConvolver {
    /// Convolves all six Voigt components of a `k³` symmetric tensor
    /// sub-domain with a tensor kernel, compressing each component under
    /// (clones of) `plan`. The forward 2D stage runs once per component;
    /// the z stage applies the full `Γ̂ : σ̂` contraction pencil-by-pencil.
    pub fn convolve_tensor_compressed(
        &self,
        sub: &[Grid3<f64>; 6],
        corner: [usize; 3],
        kernel: &dyn TensorKernelSpectrum,
        plan: Arc<SamplingPlan>,
    ) -> [CompressedField; 6] {
        let n = self.n();
        let k = self.k();
        assert_eq!(kernel.n(), n, "kernel grid mismatch");
        assert_eq!(plan.n(), n, "plan grid mismatch");
        for s in sub {
            assert_eq!(s.shape(), (k, k, k), "sub-domain components must be k³");
        }

        // Stage 1 per component: pruned 2D transforms into six half-spectrum
        // slabs (`h = n/2 + 1` bins along y, as in the scalar pipeline).
        let h = self.half();
        let slabs: Vec<Vec<Complex64>> = sub
            .iter()
            .map(|component| self.forward_2d_slab(component))
            .collect();

        // Stage 2: batched z pencils; all six components share a pencil's
        // frequency bin, so the tensor contraction happens in-register.
        let retained = plan.retained_z();
        let nzr = retained.len();
        // lcc-lint: allow(alloc) — six per-solve output buffers, kept until
        // compression; not per-pencil traffic.
        let mut kept: [_; 6] = std::array::from_fn(|_| vec![Complex64::ZERO; nzr * n * h]);
        let inv_n = self.plan_inverse_n();
        let pruned = self.pruned_plan();
        // Position-phase tables, cached per corner coordinate in the
        // convolver (shared with the scalar pipeline).
        let phx = self.phase_table(corner[0]);
        let phy = self.phase_table(corner[1]);
        let phz = self.phase_table(corner[2]);

        let total = n * h;
        let batch = self.batch();
        // Per-pencil output: 6 components × nzr retained values.
        // lcc-lint: allow(alloc) — one batch buffer per solve, reused across
        // all batches.
        let mut batch_out = vec![Complex64::ZERO; batch * nzr * 6];
        let mut q0 = 0;
        while q0 < total {
            let b = batch.min(total - q0);
            batch_out[..b * nzr * 6]
                .par_chunks_mut(nzr * 6)
                .enumerate()
                .for_each_init(workspace, |ws, (i, out)| {
                    let q = q0 + i;
                    let (fx, fy) = (q / h, q % h);
                    // Per-pencil buffers from the pooled workspace; each is
                    // fully written before being read.
                    let [pencils, zin, scratch] = ws.complex_bufs([6 * n, k, k]);
                    for (c, slab) in slabs.iter().enumerate() {
                        for (zloc, zi) in zin.iter_mut().enumerate() {
                            *zi = slab[zloc * n * h + q];
                        }
                        pruned.process(zin, &mut pencils[c * n..(c + 1) * n], scratch);
                    }
                    // Tensor contraction + position phase per fz. As in the
                    // scalar pipeline the operator's Hermitian part is what
                    // the real result keeps: ½(Γ̂(f):σ̂ + conj(Γ̂(−f):conj σ̂)).
                    let pxy = phx[fx] * phy[fy];
                    let (mx, my) = ((n - fx) % n, (n - fy) % n);
                    for fz in 0..n {
                        let mut sig = Sym3C::ZERO;
                        for c in 0..6 {
                            sig.c[c] = pencils[c * n + fz];
                        }
                        let mirror = kernel.apply([mx, my, (n - fz) % n], &sig.conj());
                        let d = kernel.apply([fx, fy, fz], &sig).add(&mirror.conj());
                        let ph = (pxy * phz[fz]).scale(0.5);
                        for c in 0..6 {
                            pencils[c * n + fz] = d.c[c] * ph;
                        }
                    }
                    for c in 0..6 {
                        inv_n.process(&mut pencils[c * n..(c + 1) * n]);
                        for (zi, &z) in retained.iter().enumerate() {
                            out[c * nzr + zi] = pencils[c * n + z];
                        }
                    }
                });
            for i in 0..b {
                let q = q0 + i;
                for c in 0..6 {
                    for zi in 0..nzr {
                        kept[c][zi * n * h + q] = batch_out[(i * 6 + c) * nzr + zi];
                    }
                }
            }
            q0 += b;
        }
        drop(slabs);

        // Stage 3 per component: inverse 2D per retained plane + sampling.
        let mut ws = workspace();
        let real_plane = ws.real_buf(n * n);
        kept.map(|mut planes| {
            self.inverse_2d_capture(&mut planes, real_plane, &retained, plan.clone())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_common::GammaComp;
    use lcc_greens::MassifGamma;
    use lcc_grid::{relative_l2, BoxRegion};
    use lcc_octree::RateSchedule;

    #[test]
    fn tensor_pipeline_matches_componentwise_scalar_sum() {
        let n = 16;
        let k = 8;
        let corner = [4usize, 0, 8];
        let gamma = MassifGamma::new(n, 1.3, 0.8);
        let domain = BoxRegion::new(corner, [corner[0] + k, corner[1] + k, corner[2] + k]);
        let plan = Arc::new(SamplingPlan::build(n, domain, &RateSchedule::uniform(1)));
        let conv = LocalConvolver::new(n, k, 64);

        let sub: [Grid3<f64>; 6] = std::array::from_fn(|c| {
            Grid3::from_fn((k, k, k), |x, y, z| {
                ((x + 2 * y + 3 * z + c) as f64 * 0.37).sin()
            })
        });
        let tensor_out = conv.convolve_tensor_compressed(&sub, corner, &gamma, plan.clone());

        // Reference: 36 scalar convolutions with Voigt shear weights.
        let pairs = [(0usize, 0usize), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)];
        for (ci, &ij) in pairs.iter().enumerate() {
            let mut acc = vec![0.0f64; plan.total_samples()];
            for (ck, &kl) in pairs.iter().enumerate() {
                let w = if ck < 3 { 1.0 } else { 2.0 };
                let kernel = GammaComp { gamma, ij, kl };
                let f = conv.convolve_compressed(&sub[ck], corner, &kernel, plan.clone());
                for (a, s) in acc.iter_mut().zip(f.samples()) {
                    *a += w * s;
                }
            }
            let err = relative_l2(&acc, tensor_out[ci].samples());
            assert!(
                err < 1e-9,
                "component {ci}: tensor vs scalar-sum error {err}"
            );
        }
    }

    #[test]
    fn tensor_pipeline_batch_invariance() {
        let n = 8;
        let k = 4;
        let gamma = MassifGamma::new(n, 1.0, 1.0);
        let domain = BoxRegion::new([0; 3], [k; 3]);
        let plan = Arc::new(SamplingPlan::build(n, domain, &RateSchedule::uniform(1)));
        let sub: [Grid3<f64>; 6] =
            std::array::from_fn(|c| Grid3::from_fn((k, k, k), |x, y, z| (x * y + z + c) as f64));
        let a = LocalConvolver::new(n, k, 1).convolve_tensor_compressed(
            &sub,
            [0; 3],
            &gamma,
            plan.clone(),
        );
        let b =
            LocalConvolver::new(n, k, 64).convolve_tensor_compressed(&sub, [0; 3], &gamma, plan);
        for c in 0..6 {
            for (x, y) in a[c].samples().iter().zip(b[c].samples()) {
                assert!((x - y).abs() < 1e-10);
            }
        }
    }
}
