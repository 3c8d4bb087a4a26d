//! Tensor-field streaming convolution — Algorithm 2's inner loop as the
//! paper actually runs it.
//!
//! MASSIF convolves a symmetric rank-2 field with the rank-4 Γ̂: per
//! frequency bin, `Δε̂ = Γ̂(ξ) : σ̂(ξ)` mixes all six Voigt components. The
//! scalar pipeline would need 36 separate convolutions; this variant runs
//! the scalar pipeline's column blocks over all six components at once
//! (the forward stages **once per component**), applies the full tensor
//! contraction on the fly in the z stage, and streams six compressed
//! outputs — the same transform count as the paper's "9 convolutions per
//! stress component" accounting collapsed into shared passes.

// lcc-lint: hot-path — tensor z stage; only per-solve setup may allocate.

use std::sync::Arc;

use lcc_fft::{c64, ZTile};
use lcc_greens::Sym3C;
use lcc_grid::Grid3;
use lcc_octree::{CompressedField, SamplingPlan};

use crate::pipeline::{Block, LocalConvolver};

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
        assert!(
            corner.iter().all(|&c| c < n),
            "corner must lie inside the grid"
        );
        for s in sub {
            assert_eq!(s.shape(), (k, k, k), "sub-domain components must be k³");
        }
        // The contraction leaves out the ½ of the Hermitian projection; the
        // c2r applies it with the 1/n³.
        let scale = 0.5 / (n * n * n) as f64;
        self.convolve_blocks(sub.each_ref(), corner, plan, (scale, 0), |block| {
            tensor_pointwise(kernel, n, block)
        })
    }
}

/// The operator's Hermitian part at bin `f`, applied to the spectrum `sig`
/// of a real tensor field — the part the real result keeps:
/// `Γ̂(f):σ̂ + conj(Γ̂(−f):conj σ̂)`, twice `K̂ₕ` (the ½ is left to the
/// caller's c2r). The tensor pipeline's z stage and the dense
/// [`crate::TraditionalConvolver::convolve_tensor`] both contract by it.
pub(crate) fn hermitian_contract(
    kernel: &dyn TensorKernelSpectrum,
    [fx, fy, fz]: [usize; 3],
    sig: &Sym3C,
) -> Sym3C {
    let n = kernel.n();
    let mirror = kernel.apply([(n - fx) % n, (n - fy) % n, (n - fz) % n], &sig.conj());
    kernel.apply([fx, fy, fz], sig).add(&mirror.conj())
}

/// The tensor pipeline's pointwise z-stage step on `block`: all six
/// components share a pencil's frequency bin, so the stage's tiles hold
/// them together and [`hermitian_contract`] mixes them, each forward row
/// into the inverse's load row, dead lanes zero. It needs no scratch.
pub(crate) fn tensor_pointwise(
    kernel: &dyn TensorKernelSpectrum,
    n: usize,
    block: Block,
) -> impl Fn(ZTile<'_>) + Sync + '_ {
    move |tile: ZTile<'_>| {
        let ((sre, sim), (dre, dim)) = (tile.src, tile.dst);
        for (fz, &row) in tile.rows.iter().enumerate() {
            let row = row as usize;
            for c in 0..6 {
                dre[c * n + row][tile.live..].fill(0.0);
                dim[c * n + row][tile.live..].fill(0.0);
            }
            for lane in 0..tile.live {
                let (fx, fy) = block.bin(tile.q0 + lane);
                let mut sig = Sym3C::ZERO;
                for c in 0..6 {
                    sig.c[c] = c64(sre[c * n + fz][lane], sim[c * n + fz][lane]);
                }
                let d = hermitian_contract(kernel, [fx, fy, fz], &sig);
                for c in 0..6 {
                    dre[c * n + row][lane] = d.c[c].re;
                    dim[c * n + row][lane] = d.c[c].im;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_greens::{GammaComponentKernel, MassifGamma};
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
                let kernel = GammaComponentKernel::new(gamma, ij, kl);
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
        for batch in [3, 7, 64, 256, 1024] {
            let b = LocalConvolver::new(n, k, batch).convolve_tensor_compressed(
                &sub,
                [0; 3],
                &gamma,
                plan.clone(),
            );
            for c in 0..6 {
                assert_eq!(a[c].samples().len(), b[c].samples().len());
                for (x, y) in a[c].samples().iter().zip(b[c].samples()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "batch {batch}, component {c}");
                }
            }
        }
    }
}
