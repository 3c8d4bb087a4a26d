//! The streaming local convolution pipeline (paper §4, Fig. 2, Fig. 4).
//!
//! Convolves one `k³` sub-domain against the full `N³` periodic grid
//! *without ever materializing the N³ result*. The input is real, so its
//! spectrum is Hermitian and only the bins `fy ∈ 0..h`, `h = N/2 + 1`, are
//! ever formed (Fig. 5's "RDFT converts small cube into slab"):
//!
//! 1. **2D stage** — each of the `k` z-slices is zero-padded from `k×k` to
//!    `N×N` implicitly: pruned-input FFTs transform only the `k` nonzero
//!    rows along y and then only the `h` non-redundant columns along x
//!    ("zero structure is implicit in the 1D calls"). Output: an `N×h×k`
//!    slab in `(zloc, fx, fy)` order — the paper's `8·N·N·k`-byte working
//!    set plus one Nyquist column.
//! 2. **z stage** — batches of `B` of the `N·h` pencils (the paper's batch
//!    parameter) are zero-padded `k → N` by a pruned transform, multiplied
//!    by the kernel spectrum *and* the sub-domain's position phase on the
//!    fly, inverse transformed, and immediately **compressed**: only the
//!    z-planes the octree plan retains are kept, as `N×h` half-planes.
//!    Adjacent pencils `q = fx·h + fy` are contiguous in the slab, so the
//!    stage runs over [`lcc_fft::tile`]s of 8 of them ([`ZStage`], shared
//!    with the tensor pipeline): slab rows load straight into the vector
//!    lanes and the retained rows store straight into the half-planes.
//! 3. **2D inverse stage** — each retained half-plane is inverse
//!    transformed along x over its `h` columns and finished by a c2r along
//!    y, every row in place (`h` complex hold their own `N` reals, see
//!    [`RealIfft::process_packed`]), then sampled into the octree's
//!    compressed storage ([`CompressedField::capture_plane`]).
//!
//! The strided x transforms of stages 1 and 3 run over the same tiles (lanes
//! across `fy`); the y transforms are along the contiguous axis and stay
//! one plan call per row.
//!
//! The sub-domain is presented at the origin; its true position enters as a
//! frequency-domain phase `e^{-2πi f·c/N}`: the x and y factors are constant
//! along a z-pencil and ride on its input rows (the forward transform is
//! linear), the z factor is folded into the pointwise multiply, so the
//! pruned transforms never see shifted data.
//!
//! **Non-Hermitian kernels.** The result is defined as `Re(ifft(K̂·X̂))` for
//! any [`KernelSpectrum`]. With `X̂` Hermitian the real part keeps exactly
//! the Hermitian part of the product,
//! `½(K̂(f)X̂(f) + conj(K̂(−f)X̂(−f))) = K̂ₕ(f)·X̂(f)` with
//! `K̂ₕ(f) = ½(K̂(f) + conj K̂(−f))`, so the z stage multiplies by `K̂ₕ`: a
//! second kernel pencil at `(−fx, −fy)` read in reversed `fz` order. For a
//! Hermitian kernel `K̂ₕ = K̂`; `MassifGamma` components that are odd in one
//! `ξᵢ` are not Hermitian on bins with a Nyquist coordinate (DESIGN.md §5a).

// lcc-lint: hot-path — pipeline stages 1-3; only per-solve setup may allocate.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rayon::prelude::*;

use lcc_fft::tile::{carve, load_row, rows_mut, store_row, W};
use lcc_fft::{
    fft_axis, workspace, Complex64, FftDirection, FftPlanner, PrunedInputFft, RealIfft, TileFft,
    ZStage, ZTile,
};
use lcc_greens::KernelSpectrum;
use lcc_grid::Grid3;
use lcc_octree::{CompressedField, SamplingPlan};

use crate::memory_model::PipelineFootprint;

/// Planned streaming convolver for `(n, k)` sub-domain convolutions.
pub struct LocalConvolver {
    n: usize,
    k: usize,
    batch: usize,
    planner: Arc<FftPlanner>,
    /// Pruned k→N forward transform shared by all three axes.
    pruned: Arc<PrunedInputFft>,
    /// Dense inverse along z over tiles of adjacent pencils.
    inverse_z: TileFft,
    /// c2r along y, the last inverse transform of stage 3.
    c2r: RealIfft,
    /// Position-phase tables `e^{-2πi f·c/N}` keyed by corner coordinate
    /// `c`. The table depends only on `(n, c)`, so repeated convolves of
    /// sub-domains at recurring corners (every rank in a fixed
    /// decomposition) reuse it instead of rebuilding three `Vec`s per call.
    phase_cache: Mutex<HashMap<usize, Arc<[Complex64]>>>,
}

impl LocalConvolver {
    /// Plans the pipeline. `k` must divide `n`; `batch ≥ 1` is the number of
    /// z-pencils processed at a time (the paper's `B`).
    pub fn new(n: usize, k: usize, batch: usize) -> Self {
        assert!(k >= 1 && k <= n, "k must be in 1..=n");
        assert_eq!(n % k, 0, "k must divide n");
        assert!(batch >= 1, "batch must be at least 1");
        let planner = Arc::new(FftPlanner::new());
        let pruned = Arc::new(PrunedInputFft::new(&planner, n, k, FftDirection::Forward));
        // Warm the plan cache so timed runs measure execution only.
        planner.plan(n, FftDirection::Inverse);
        planner.plan(n, FftDirection::Forward);
        let c2r = RealIfft::new(&planner, n);
        let inverse_z = TileFft::new(&planner, n, FftDirection::Inverse);
        LocalConvolver {
            n,
            k,
            batch,
            planner,
            pruned,
            inverse_z,
            c2r,
            phase_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The cached position-phase table for corner coordinate `c`:
    /// `table[f] = e^{-2πi f·c/N}`.
    pub(crate) fn phase_table(&self, c: usize) -> Arc<[Complex64]> {
        if let Some(t) = self.phase_cache.lock().get(&c) {
            return t.clone();
        }
        let n = self.n;
        let t: Arc<[Complex64]> = (0..n)
            .map(|f| Complex64::cis(-2.0 * std::f64::consts::PI * ((f * c) % n) as f64 / n as f64))
            .collect();
        // Built outside the lock; a racing builder's identical table wins.
        self.phase_cache.lock().entry(c).or_insert(t).clone()
    }

    /// Grid size N.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sub-domain size k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// z-stage batch size B.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// `h = n/2 + 1`: the non-redundant bins along y of a real field's
    /// spectrum, and the row length of every slab and retained plane.
    pub(crate) fn half(&self) -> usize {
        self.n / 2 + 1
    }

    /// The z stage over `retained`, shared by the scalar and the tensor
    /// pipeline: they differ only in the pointwise step they hand to
    /// [`ZStage::run`].
    pub(crate) fn z_stage<'a>(&'a self, retained: &'a [usize]) -> ZStage<'a> {
        ZStage {
            forward: &self.pruned,
            inverse: &self.inverse_z,
            retained,
            batch: self.batch,
        }
    }

    /// Stage 1 of the pipeline: pruned 2D transforms of a k³ sub-domain
    /// into the `(zloc, fx, fy)` half-spectrum slab (k contiguous `n·h`
    /// planes). `slab` must have length `k·n·h`; every element is
    /// overwritten.
    pub(crate) fn forward_2d_slab_into(&self, sub: &Grid3<f64>, slab: &mut [Complex64]) {
        let (n, k, h) = (self.n, self.k, self.half());
        assert_eq!(sub.shape(), (k, k, k), "sub-domain must be k³");
        assert_eq!(slab.len(), k * n * h, "slab must be k half-planes of n·h");
        let pruned = &*self.pruned;
        let lane_len = pruned.tile_scratch_len();
        slab.par_chunks_mut(n * h)
            .enumerate()
            .for_each_init(workspace, |ws, (zloc, plane)| {
                // Every buffer is fully written before being read: row_in
                // per inner loop, rows and the tiles as pruned transform
                // outputs, scratch and lane inside the transforms.
                let ([scratch, row_in, rows, lane], mut real) =
                    ws.split([k, k, k * n, lane_len], (4 * k + 2 * n) * W);
                let real = &mut real;
                let (xre, xim) = (carve(real, k), carve(real, k));
                let (sre, sim) = (carve(real, k), carve(real, k));
                let (ore, oim) = (carve(real, n), carve(real, n));
                // y transforms: k nonzero rows, each with k nonzero entries,
                // along the contiguous axis — one pencil at a time.
                for x in 0..k {
                    for y in 0..k {
                        row_in[y] = Complex64::from_real(sub[(x, y, zloc)]);
                    }
                    pruned.process(row_in, &mut rows[x * n..(x + 1) * n], scratch);
                }
                // x transforms: each of the h non-redundant fy columns has
                // k nonzero entries (x<k); columns fy ≥ h are the conjugate
                // mirror of these and are never formed. Adjacent columns
                // are contiguous in `rows` and in `plane`: a tile at a time.
                for fy in (0..h).step_by(W) {
                    let live = W.min(h - fy);
                    for x in 0..k {
                        load_row(&rows[x * n + fy..][..live], &mut xre[x], &mut xim[x]);
                    }
                    pruned.process_tile(
                        (&*xre, &*xim),
                        (&mut *ore, &mut *oim),
                        (&mut *sre, &mut *sim),
                        lane,
                        |fx| fx,
                    );
                    for (fx, (r, i)) in ore.iter().zip(oim.iter()).enumerate() {
                        store_row(r, i, &mut plane[fx * h + fy..][..live]);
                    }
                }
            });
    }

    /// Allocating wrapper around [`Self::forward_2d_slab_into`] (used by the
    /// tensor-field variant, which owns its slabs).
    pub(crate) fn forward_2d_slab(&self, sub: &Grid3<f64>) -> Vec<Complex64> {
        // lcc-lint: allow(alloc) — one slab per solve, owned by the caller.
        let mut slab = vec![Complex64::ZERO; self.k * self.n * self.half()];
        self.forward_2d_slab_into(sub, &mut slab);
        slab
    }

    /// Stage 3 of the pipeline: turns the retained half-planes `kept`
    /// (`(zi, fx, fy)` order, `n·h` each) into real planes — inverse along x
    /// over the `h` columns, then c2r along y, each row in place — and
    /// samples plane `zi` into a fresh compressed field at `z = retained[zi]`.
    /// The `1/n³` of the three unnormalized inverses rides on the c2r.
    pub(crate) fn inverse_2d_capture(
        &self,
        kept: &mut [Complex64],
        real_plane: &mut [f64],
        retained: &[usize],
        plan: Arc<SamplingPlan>,
    ) -> CompressedField {
        let (n, h) = (self.n, self.half());
        let scale = 1.0 / (n * n * n) as f64;
        let odd = self.c2r.scratch_len();
        kept.par_chunks_mut(n * h).for_each(|plane| {
            fft_axis(&self.planner, plane, (1, n, h), 1, FftDirection::Inverse);
            // Only the odd-n fallback needs scratch (which it fully writes
            // before reading), and it is leased after the x pass has
            // returned its own lease: the two never nest, so no third
            // arena grows behind them.
            let mut ws = (odd > 0).then(workspace);
            let scratch = ws.as_mut().map_or(&mut [][..], |ws| {
                let [s] = ws.complex_bufs([odd]);
                s
            });
            for row in plane.chunks_exact_mut(h) {
                self.c2r.process_packed(row, scratch, scale);
            }
        });
        let mut field = CompressedField::zeros(plan);
        for (plane, &z) in kept.chunks_exact(n * h).zip(retained) {
            for (row, out) in plane.chunks_exact(h).zip(real_plane.chunks_exact_mut(n)) {
                RealIfft::unpack(row, out);
            }
            field.capture_plane(z, real_plane);
        }
        field
    }

    /// Convolves sub-domain `sub` (shape `k³`, positioned with its low
    /// corner at `corner` in the periodic `N³` grid) with `kernel`,
    /// compressing the result under `plan`.
    pub fn convolve_compressed(
        &self,
        sub: &Grid3<f64>,
        corner: [usize; 3],
        kernel: &dyn KernelSpectrum,
        plan: Arc<SamplingPlan>,
    ) -> CompressedField {
        let (n, k) = (self.n, self.k);
        assert_eq!(sub.shape(), (k, k, k), "sub-domain must be k³");
        assert_eq!(kernel.n(), n, "kernel grid mismatch");
        assert_eq!(plan.n(), n, "plan grid mismatch");
        assert!(
            corner.iter().all(|&c| c < n),
            "corner must lie inside the grid"
        );

        let h = self.half();
        let retained = plan.retained_z();
        let nzr = retained.len();

        // Call-level arena: the slab, the retained-plane buffer and the
        // stage-3 real plane all come from one pooled workspace, so a warm
        // convolve allocates nothing for them. Each is fully overwritten
        // before it is read (slab by stage 1, kept by the z stage's stores
        // over every (plane, pencil), real_plane per plane).
        let mut ws = workspace();
        let ([slab, kept], real_plane) = ws.split([k * n * h, nzr * n * h], n * n);

        // ---- Stage 1: 2D pruned transforms into the N×h×k slab. ----
        // Slab layout: (zloc, fx, fy), each z-slice a contiguous N·h plane.
        let s1 = lcc_obs::span("stage1_2d_fft");
        self.forward_2d_slab_into(sub, slab);
        drop(s1);

        // ---- Stage 2: batched z pencils with on-the-fly multiply and
        //      compression to retained z-planes. ----
        // Phase of the sub-domain position: e^{-2πi f·c / N} per axis,
        // cached across calls (it depends only on the corner coordinate).
        let phx = self.phase_table(corner[0]);
        let phy = self.phase_table(corner[1]);
        let phz = self.phase_table(corner[2]);

        let s2 = lcc_obs::span("stage2_z_pencils");
        lcc_obs::metrics::PIPELINE_PENCILS.add((n * h) as u64);
        self.z_stage(&retained).run(
            [&*slab],
            [&mut *kept],
            (2 * n, 2 * n * W),
            // The lane-constant half of the multiplier: the ½ of the
            // Hermitian projection (exact) times the x and y phases.
            |q| (phx[q / h] * phy[q % h]).scale(0.5),
            // Pointwise: Hermitian part of the kernel (module doc) × the z
            // phase, evaluated on the fly and built lane-contiguous so the
            // multiply itself is a vector operation per row.
            |tile: ZTile<'_>| {
                let (kbuf, kmir) = tile.cbuf.split_at_mut(n);
                let (mre, mim) = rows_mut(tile.rbuf).split_at_mut(n);
                for lane in 0..W {
                    if lane >= tile.live {
                        // Padding lanes carry zeros; keep them finite.
                        for (r, i) in mre.iter_mut().zip(mim.iter_mut()) {
                            (r[lane], i[lane]) = (0.0, 0.0);
                        }
                        continue;
                    }
                    let q = tile.q0 + lane;
                    let (fx, fy) = (q / h, q % h);
                    kernel.eval_pencil_axis2(fx, fy, kbuf);
                    kernel.eval_pencil_axis2((n - fx) % n, (n - fy) % n, kmir);
                    // −fz is n − fz except at fz = 0, peeled.
                    let m = (kbuf[0] + kmir[0].conj()) * phz[0];
                    (mre[0][lane], mim[0][lane]) = (m.re, m.im);
                    for fz in 1..n {
                        let m = (kbuf[fz] + kmir[n - fz].conj()) * phz[fz];
                        (mre[fz][lane], mim[fz][lane]) = (m.re, m.im);
                    }
                }
                for (fz, &row) in tile.rows.iter().enumerate() {
                    let (re, im) = (&mut tile.re[row as usize], &mut tile.im[row as usize]);
                    for l in 0..W {
                        let (xr, xi) = (re[l], im[l]);
                        re[l] = xr * mre[fz][l] - xi * mim[fz][l];
                        im[l] = xr * mim[fz][l] + xi * mre[fz][l];
                    }
                }
            },
        );
        drop(s2);

        // ---- Stage 3: inverse 2D per retained plane + octree sampling. ----
        let _s3 = lcc_obs::span("stage3_inverse_sample");
        self.inverse_2d_capture(kept, real_plane, &retained, plan)
    }

    /// Modeled flop count of one [`LocalConvolver::convolve_compressed`]
    /// call under `plan`, using the standard `5·N·log₂N` per-transform
    /// count ([`lcc_device::fft_flops`]), with `h = n/2 + 1`:
    ///
    /// * stage 1 — per z-slice, `k` pruned row FFTs + `h` column FFTs,
    ///   each length `n`, over `k` slices;
    /// * stage 2 — `n·h` pencils, each a pruned forward + a dense inverse
    ///   length-`n` FFT plus the 6-flop complex pointwise multiply per bin;
    /// * stage 3 — per retained z-plane, `h` length-`n` column inverses
    ///   and `n` c2r rows, each one length-`n/2` FFT.
    ///
    /// This is the unit the recovery accounting uses to price an exact
    /// recompute of a dead rank's domain.
    pub fn flops_estimate(&self, plan: &SamplingPlan) -> f64 {
        let (n, k, h) = (self.n, self.k, self.half());
        let retained = plan.retained_z().len();
        let stage1 = lcc_device::fft_flops(n, k * (k + h));
        let stage2 = lcc_device::fft_flops(n, 2 * n * h) + 6.0 * (n * n * h) as f64;
        let stage3 =
            lcc_device::fft_flops(n, retained * h) + lcc_device::fft_flops(n / 2, retained * n);
        stage1 + stage2 + stage3
    }

    /// Modeled main-memory traffic (bytes) of one
    /// [`LocalConvolver::convolve_compressed`] call under `plan`, the
    /// denominator of the roofline arithmetic-intensity estimate
    /// (`flops_estimate / bytes_estimate`).
    ///
    /// Streaming model, mirroring [`Self::flops_estimate`] pass for pass:
    /// each batched transform pass streams its working set through the
    /// core once — a 16-byte `Complex64` read plus write per element per
    /// pass (32 B) — and each transform itself runs from cache (pencils
    /// fit L2 by construction of the batch tiling). The stage-2 pointwise
    /// kernel multiply streams one extra read+write pass over the `n·h·n`
    /// half spectrum. Compulsory traffic only: extra write-allocate fills
    /// and conflict misses make the real number higher, which biases
    /// `roofline_frac` conservative (reported fraction ≤ true fraction).
    pub fn bytes_estimate(&self, plan: &SamplingPlan) -> f64 {
        /// Complex64 read + write per element per streaming pass.
        const PASS_BYTES: f64 = 32.0;
        let (n, k, h) = (self.n, self.k, self.half());
        let retained = plan.retained_z().len();
        let fft_bytes = |len: usize, batch: usize| PASS_BYTES * (len * batch) as f64;
        let stage1 = fft_bytes(n, k * (k + h));
        let stage2 = fft_bytes(n, 2 * n * h) + PASS_BYTES * (n * n * h) as f64;
        let stage3 = fft_bytes(n, retained * h) + fft_bytes(n / 2, retained * n);
        stage1 + stage2 + stage3
    }

    /// The device-footprint model for this pipeline under `plan`
    /// (Table 4's "estimated" vs "actual" columns).
    pub fn footprint(&self, plan: &SamplingPlan) -> PipelineFootprint {
        PipelineFootprint::model(
            self.n,
            self.k,
            plan.retained_z().len(),
            self.batch,
            plan.compressed_bytes() as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traditional::TraditionalConvolver;
    use lcc_greens::GaussianKernel;
    use lcc_grid::{relative_l2, BoxRegion};
    use lcc_octree::RateSchedule;

    fn sub_field(k: usize) -> Grid3<f64> {
        Grid3::from_fn((k, k, k), |x, y, z| {
            1.0 + (x as f64 * 0.8).sin() + 0.5 * (y as f64) - 0.1 * (z * z) as f64
        })
    }

    fn dense_plan(n: usize, domain: BoxRegion) -> Arc<SamplingPlan> {
        // Rate-1 everywhere: compression is lossless, so the pipeline must
        // match the dense oracle to round-off.
        Arc::new(SamplingPlan::build(n, domain, &RateSchedule::uniform(1)))
    }

    #[test]
    fn lossless_plan_matches_traditional_oracle() {
        let n = 16;
        let k = 4;
        let corner = [4usize, 8, 0];
        let kernel = GaussianKernel::new(n, 1.2);
        let sub = sub_field(k);
        let domain = BoxRegion::new(corner, [corner[0] + k, corner[1] + k, corner[2] + k]);
        let conv = LocalConvolver::new(n, k, 7);
        let got = conv
            .convolve_compressed(&sub, corner, &kernel, dense_plan(n, domain))
            .reconstruct();
        let want = TraditionalConvolver::new(n).convolve_subdomain(&sub, corner, &kernel);
        let err = relative_l2(want.as_slice(), got.as_slice());
        assert!(err < 1e-10, "lossless pipeline error {err}");
    }

    #[test]
    fn corner_at_origin_and_wrapping() {
        // Sub-domain at the origin and one that makes the decay wrap around
        // the periodic boundary.
        let n = 16;
        let k = 4;
        let kernel = GaussianKernel::new(n, 1.0);
        let sub = sub_field(k);
        for corner in [[0usize, 0, 0], [12, 12, 12]] {
            let domain = BoxRegion::new(corner, [corner[0] + k, corner[1] + k, corner[2] + k]);
            let conv = LocalConvolver::new(n, k, 16);
            let got = conv
                .convolve_compressed(&sub, corner, &kernel, dense_plan(n, domain))
                .reconstruct();
            let want = TraditionalConvolver::new(n).convolve_subdomain(&sub, corner, &kernel);
            let err = relative_l2(want.as_slice(), got.as_slice());
            assert!(err < 1e-10, "corner {corner:?} error {err}");
        }
    }

    #[test]
    fn batch_size_does_not_change_result() {
        let n = 16;
        let k = 4;
        let corner = [4usize, 4, 4];
        let kernel = GaussianKernel::new(n, 1.0);
        let sub = sub_field(k);
        let domain = BoxRegion::new(corner, [8, 8, 8]);
        let plan = dense_plan(n, domain);
        // Bitwise: a pencil's arithmetic does not depend on the tile, lane
        // or dispatch it lands in, and `batch` only groups tiles.
        let base =
            LocalConvolver::new(n, k, 1).convolve_compressed(&sub, corner, &kernel, plan.clone());
        for b in [3, 7, 64, 256, 1024] {
            let other = LocalConvolver::new(n, k, b).convolve_compressed(
                &sub,
                corner,
                &kernel,
                plan.clone(),
            );
            assert_eq!(base.samples().len(), other.samples().len());
            for (x, y) in base.samples().iter().zip(other.samples()) {
                assert_eq!(x.to_bits(), y.to_bits(), "batch {b} changed the result");
            }
        }
    }

    #[test]
    fn work_estimates_are_consistent() {
        let n = 16;
        let k = 4;
        let corner = [4usize, 8, 0];
        let domain = BoxRegion::new(corner, [corner[0] + k, corner[1] + k, corner[2] + k]);
        let plan = dense_plan(n, domain);
        let conv = LocalConvolver::new(n, k, 7);
        let flops = conv.flops_estimate(&plan);
        let bytes = conv.bytes_estimate(&plan);
        assert!(flops > 0.0 && bytes > 0.0);
        // Arithmetic intensity of an FFT pipeline is O(log n) flops/byte:
        // small but solidly above 1 for these sizes, and far below the
        // flop count itself.
        let intensity = flops / bytes;
        assert!(
            intensity > 0.1 && intensity < (n as f64).log2(),
            "implausible intensity {intensity}"
        );
        // Fewer retained planes → strictly less stage-3 work in both units.
        let sparse = Arc::new(SamplingPlan::build(
            n,
            BoxRegion::new(corner, [corner[0] + k, corner[1] + k, corner[2] + k]),
            &RateSchedule::uniform(4),
        ));
        assert!(conv.flops_estimate(&sparse) < flops);
        assert!(conv.bytes_estimate(&sparse) < bytes);
    }

    #[test]
    fn adaptive_plan_error_within_tolerance() {
        // The paper's end-to-end claim: adaptive compression keeps the
        // relative L2 error of the sub-domain convolution ≤ 3%.
        let n = 32;
        let k = 8;
        let corner = [0usize, 0, 0];
        let kernel = GaussianKernel::new(n, 1.0); // sharp: decays within k/2
        let sub = sub_field(k);
        // The kernel is centered at n/2, so the hotspot region — where the
        // octree must sample densely — is the sub-domain shifted by n/2.
        let domain = BoxRegion::new([n / 2; 3], [n / 2 + k; 3]);
        let schedule = RateSchedule::for_kernel_spread(k, 1.0, 16);
        let plan = Arc::new(SamplingPlan::build(n, domain, &schedule));
        let conv = LocalConvolver::new(n, k, 64);
        let got = conv
            .convolve_compressed(&sub, corner, &kernel, plan)
            .reconstruct();
        let want = TraditionalConvolver::new(n).convolve_subdomain(&sub, corner, &kernel);
        let err = relative_l2(want.as_slice(), got.as_slice());
        assert!(err < 0.03, "adaptive error {err} exceeds the paper's 3%");
    }

    #[test]
    fn k_equals_n_degenerates_to_full_grid() {
        let n = 8;
        let kernel = GaussianKernel::new(n, 1.0);
        let sub = sub_field(n);
        let domain = BoxRegion::cube(n);
        let conv = LocalConvolver::new(n, n, 16);
        let got = conv
            .convolve_compressed(&sub, [0, 0, 0], &kernel, dense_plan(n, domain))
            .reconstruct();
        let want = TraditionalConvolver::new(n).convolve(&sub, &kernel);
        let err = relative_l2(want.as_slice(), got.as_slice());
        assert!(err < 1e-10, "k=n error {err}");
    }

    #[test]
    fn footprint_reports_slab_model() {
        let n = 64;
        let k = 8;
        let conv = LocalConvolver::new(n, k, 128);
        let domain = BoxRegion::new([0; 3], [k; 3]);
        let plan = SamplingPlan::build(n, domain, &RateSchedule::paper_default(k, 16));
        let fp = conv.footprint(&plan);
        // Table 1's 8·N·N·k half spectrum plus the one Nyquist column.
        assert_eq!(
            fp.slab_bytes,
            crate::memory_model::local_slab_bytes(n, k) + 16 * (n as u64) * (k as u64)
        );
        assert!(
            fp.estimated_bytes() < 16 * (n as u64).pow(3),
            "must beat dense"
        );
        assert!(fp.actual_bytes() > fp.estimated_bytes());
    }

    #[test]
    #[should_panic(expected = "k must divide n")]
    fn invalid_k_rejected() {
        LocalConvolver::new(10, 3, 1);
    }
}
