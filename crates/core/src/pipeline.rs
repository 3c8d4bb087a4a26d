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
//!    by the kernel spectrum evaluated on the fly, inverse transformed, and
//!    immediately **compressed**: only the z-planes the octree plan retains
//!    are kept, as `N×h` half-planes. Adjacent pencils `q = fx·h + fy` are
//!    contiguous in the slab, so the stage runs over [`lcc_fft::tile`]s of
//!    8 of them ([`ZStage`], shared with the tensor pipeline): slab rows
//!    load straight into the vector lanes and the retained rows store
//!    straight into the half-planes.
//! 3. **2D inverse stage** — each retained half-plane is inverse
//!    transformed along x over its `h` columns, again a tile at a time, but
//!    only the x rows the plan samples in that plane are stored back
//!    ([`SamplingPlan::sampled_rows`]). Only those rows are finished by a
//!    c2r along y, in place (`h` complex hold their own `N` reals, see
//!    [`RealIfft::process_packed`]), and sampled into the octree's
//!    compressed storage straight from the packed rows
//!    ([`CompressedField::capture_rows`]). Rows are independent, so a row
//!    nobody samples is never transformed and the samples are the same to
//!    the bit as if every row had been.
//!
//! The strided x transforms of stages 1 and 3 run over the same tiles (lanes
//! across `fy`); the y transforms are along the contiguous axis and stay
//! one plan call per row.
//!
//! **Position is an index shift.** The sub-domain is convolved as if its
//! low corner sat at the origin. At its true corner `c` the input is the
//! origin one circularly shifted by `c`, so (shift theorem) the result is
//! the origin result circularly shifted by `c`: `y_c(p) = y_0(p − c mod N)`.
//! The pipeline therefore never multiplies by the phase `e^{−2πi f·c/N}`;
//! it reads the origin result at shifted indices. The z stage stores
//! inverse row `(z − c_z) mod N` as plane `z`, stage 3 stores x-inverse row
//! `(x − c_x) mod N` as row `x` and captures column `y` from packed column
//! `(y − c_y) mod N`. Index arithmetic is exact; a phase multiply would
//! round every bin.
//!
//! **Non-Hermitian kernels.** The result is defined as `Re(ifft(K̂·X̂))` for
//! any [`KernelSpectrum`]. With `X̂` Hermitian the real part keeps exactly
//! the Hermitian part of the product,
//! `½(K̂(f)X̂(f) + conj(K̂(−f)X̂(−f))) = K̂ₕ(f)·X̂(f)` with
//! `K̂ₕ(f) = ½(K̂(f) + conj K̂(−f))`, so the z stage multiplies by `K̂ₕ`
//! ([`KernelSpectrum::eval_hermitian_pencil_axis2`]). For the shipped
//! Hermitian kernels that is one kernel pencil; `MassifGamma` components
//! that are odd in one `ξᵢ` are not Hermitian on bins with a Nyquist
//! coordinate (DESIGN.md §5a) and take the trait's two-pencil default.

// lcc-lint: hot-path — pipeline stages 1-3; only per-solve setup may allocate.

use std::sync::Arc;

use parking_lot::Mutex;
use rayon::prelude::*;

use lcc_fft::tile::{carve, load_row, prefetch, store_row, Row, W};
use lcc_fft::{
    as_reals, workspace, Complex64, FftDirection, FftPlanner, PrunedInputFft, RealIfft, TileFft,
    ZStage, ZTile,
};
use lcc_greens::KernelSpectrum;
use lcc_grid::Grid3;
use lcc_obs::metrics;
use lcc_octree::{CompressedField, SamplingPlan, SetBits};

use crate::memory_model::PipelineFootprint;

/// Planned streaming convolver for `(n, k)` sub-domain convolutions.
pub struct LocalConvolver {
    n: usize,
    k: usize,
    batch: usize,
    /// Pruned k→N forward transform shared by all three axes.
    pruned: PrunedInputFft,
    /// Dense inverse over tiles of adjacent pencils: along z in stage 2,
    /// along x in stage 3.
    inverse: TileFft,
    /// c2r along y, the last inverse transform of stage 3.
    c2r: RealIfft,
}

impl LocalConvolver {
    /// Plans the pipeline. `k` must divide `n`; `batch ≥ 1` is the number of
    /// z-pencils processed at a time (the paper's `B`).
    pub fn new(n: usize, k: usize, batch: usize) -> Self {
        assert!(k >= 1 && k <= n, "k must be in 1..=n");
        assert_eq!(n % k, 0, "k must divide n");
        assert!(batch >= 1, "batch must be at least 1");
        // Every plan is built here, so timed runs measure execution only.
        let planner = FftPlanner::new();
        LocalConvolver {
            n,
            k,
            batch,
            pruned: PrunedInputFft::new(&planner, n, k, FftDirection::Forward),
            inverse: TileFft::new(&planner, n, FftDirection::Inverse),
            c2r: RealIfft::new(&planner, n),
        }
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

    /// The z stage over `plan`'s retained planes for a sub-domain at z
    /// corner `shift`, shared by the scalar and the tensor pipeline: they
    /// differ only in the pointwise step they hand to [`ZStage::run`].
    pub(crate) fn z_stage<'a>(
        &'a self,
        plan: &'a SamplingPlan,
        shift: usize,
    ) -> ZStage<'a, SetBits<'a>> {
        ZStage {
            forward: &self.pruned,
            inverse: &self.inverse,
            retained: plan.retained_planes(),
            shift,
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
        let pruned = &self.pruned;
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
                    // The n destination runs, one per plane row, arrive
                    // while the transform runs.
                    for fx in 0..n {
                        prefetch(&plane[fx * h + fy..][..live], true);
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

    /// Stages 1 and 2 of the scalar pipeline: `sub`, convolved at the
    /// origin with `kernel`, into `kept` — plane `i` is the `i`-th retained
    /// z-plane of `plan` for the sub-domain at z corner `corner_z`, as
    /// `n·h` half-spectrum rows still to be inverted along x and y. `slab`
    /// (`k·n·h`) and `kept` (one `n·h` plane per retained z) are fully
    /// overwritten.
    pub(crate) fn scalar_stages_1_2(
        &self,
        sub: &Grid3<f64>,
        corner_z: usize,
        kernel: &dyn KernelSpectrum,
        plan: &SamplingPlan,
        slab: &mut [Complex64],
        kept: &mut [Complex64],
    ) {
        let (n, h) = (self.n, self.half());
        let s1 = lcc_obs::span("stage1_2d_fft");
        self.forward_2d_slab_into(sub, slab);
        drop(s1);

        let _s2 = lcc_obs::span("stage2_z_pencils");
        metrics::PIPELINE_PENCILS.add((n * h) as u64);
        self.z_stage(plan, corner_z).run(
            [&*slab],
            [kept],
            ((W + 1) * n, 0),
            // Pointwise: the kernel's Hermitian part (module doc), one
            // pencil per live lane, multiplied in lane by lane.
            |tile: ZTile<'_>| {
                let (pencils, mirror) = tile.cbuf.split_at_mut(W * n);
                for (lane, pencil) in pencils.chunks_exact_mut(n).enumerate() {
                    if lane < tile.live {
                        let q = tile.q0 + lane;
                        kernel.eval_hermitian_pencil_axis2(q / h, q % h, pencil, mirror);
                    } else {
                        // Padding lanes: keep their (zero) spectra finite.
                        pencil.fill(Complex64::ZERO);
                    }
                }
                // The multiplier of one tile row is built in registers,
                // lane `l` from pencil `l`, and applied as one vector op.
                let pencils = &pencils[..W * n];
                for (fz, &row) in tile.rows.iter().enumerate() {
                    let mre: Row = std::array::from_fn(|l| pencils[l * n + fz].re);
                    let mim: Row = std::array::from_fn(|l| pencils[l * n + fz].im);
                    let (re, im) = (&mut tile.re[row as usize], &mut tile.im[row as usize]);
                    let (xr, xi) = (*re, *im);
                    *re = std::array::from_fn(|l| xr[l] * mre[l] - xi[l] * mim[l]);
                    *im = std::array::from_fn(|l| xr[l] * mim[l] + xi[l] * mre[l]);
                }
            },
        );
    }

    /// Stage 3 of the pipeline: turns the retained half-planes `kept`
    /// (`(i, fx, fy)` order, `n·h` each, plane `i` the `i`-th retained z of
    /// `plan`) into the samples of a fresh compressed field. Per plane:
    /// inverse along x over the `h` columns; then, for each x row the plan
    /// samples, store x-inverse row `(x − c_x) mod n` as row `x`, c2r it in
    /// place and capture column `y` from packed column `(y − c_y) mod n`
    /// (module doc).
    ///
    /// `scale` is applied by the c2r: `1/n³` for the three unnormalized
    /// inverses, times whatever the caller left out of its multiplier.
    pub(crate) fn inverse_2d_capture(
        &self,
        kept: &mut [Complex64],
        corner: [usize; 3],
        scale: f64,
        plan: Arc<SamplingPlan>,
    ) -> CompressedField {
        let (n, h) = (self.n, self.half());
        let inv = &self.inverse;
        let load_rows = inv.load_rows();
        let (lane_len, odd) = (inv.scratch_len(), self.c2r.scratch_len());
        let sampled = plan.sampled_row_count();
        metrics::PIPELINE_STAGE3_ROWS_SAMPLED.add(sampled as u64);
        metrics::PIPELINE_STAGE3_ROWS_SKIPPED.add((kept.len() / h - sampled) as u64);
        let cx = corner[0];
        let table = &*plan;
        // Each sample lies in exactly one plane, so the planes' captures
        // commute: each task captures its own plane while it is still in
        // cache, and the lock only orders writes to disjoint samples.
        let field = Mutex::new(CompressedField::zeros(plan.clone()));
        kept.par_chunks_mut(n * h)
            .enumerate()
            .for_each_init(workspace, |ws, (i, plane)| {
                let z = match table.retained_planes().nth(i) {
                    Some(z) => z,
                    None => unreachable!("kept holds one plane per retained z"),
                };
                // Every buffer is fully written before it is read: the tile
                // by the loads, the scratch inside the transforms.
                let ([lane, scratch], mut real) = ws.split([lane_len, odd], 2 * n * W);
                let real = &mut real;
                let (re, im) = (carve(real, n), carve(real, n));
                for fy in (0..h).step_by(W) {
                    let live = W.min(h - fy);
                    for (x, &row) in load_rows.iter().enumerate() {
                        let row = row as usize;
                        load_row(&plane[x * h + fy..][..live], &mut re[row], &mut im[row]);
                    }
                    // The next column tile's rows arrive during this one.
                    if fy + W < h {
                        let next = W.min(h - fy - W);
                        for x in 0..n {
                            prefetch(&plane[x * h + fy + W..][..next], false);
                        }
                    }
                    inv.process(re, im, lane);
                    for x in table.sampled_rows(z) {
                        let src = if x >= cx { x - cx } else { x + n - cx };
                        store_row(&re[src], &im[src], &mut plane[x * h + fy..][..live]);
                    }
                }
                for x in table.sampled_rows(z) {
                    self.c2r
                        .process_packed(&mut plane[x * h..][..h], scratch, scale);
                }
                field
                    .lock()
                    .capture_rows(z, as_reals(plane), 2 * h, corner[1]);
            });
        field.into_inner()
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

        // Call-level arena: the slab and the retained-plane buffer come
        // from one pooled workspace, so a warm convolve allocates nothing
        // for them. Each is fully overwritten before it is read (slab by
        // stage 1, kept by the z stage's stores over every (plane, pencil)).
        let h = self.half();
        let nzr = plan.retained_plane_count();
        let mut ws = workspace();
        let [slab, kept] = ws.complex_bufs([k * n * h, nzr * n * h]);
        self.scalar_stages_1_2(sub, corner[2], kernel, &plan, slab, kept);

        let _s3 = lcc_obs::span("stage3_inverse_sample");
        self.inverse_2d_capture(kept, corner, 1.0 / (n * n * n) as f64, plan)
    }

    /// Modeled flop count of one [`LocalConvolver::convolve_compressed`]
    /// call under `plan`, using the standard `5·N·log₂N` per-transform
    /// count ([`lcc_device::fft_flops`]), with `h = n/2 + 1`:
    ///
    /// * stage 1 — per z-slice, `k` pruned row FFTs + `h` column FFTs,
    ///   each length `n`, over `k` slices;
    /// * stage 2 — `n·h` pencils, each a pruned forward + a dense inverse
    ///   length-`n` FFT plus the 6-flop complex pointwise multiply per bin;
    /// * stage 3 — per retained z-plane, `h` length-`n` column inverses,
    ///   and one length-`n/2` c2r FFT per *sampled* row
    ///   ([`SamplingPlan::sampled_row_count`]); rows no sample lies on are
    ///   never transformed.
    ///
    /// This is the unit the recovery accounting uses to price an exact
    /// recompute of a dead rank's domain.
    pub fn flops_estimate(&self, plan: &SamplingPlan) -> f64 {
        let (n, k, h) = (self.n, self.k, self.half());
        let retained = plan.retained_plane_count();
        let stage1 = lcc_device::fft_flops(n, k * (k + h));
        let stage2 = lcc_device::fft_flops(n, 2 * n * h) + 6.0 * (n * n * h) as f64;
        let stage3 = lcc_device::fft_flops(n, retained * h)
            + lcc_device::fft_flops(n / 2, plan.sampled_row_count());
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
        let retained = plan.retained_plane_count();
        let fft_bytes = |len: usize, batch: usize| PASS_BYTES * (len * batch) as f64;
        let stage1 = fft_bytes(n, k * (k + h));
        let stage2 = fft_bytes(n, 2 * n * h) + PASS_BYTES * (n * n * h) as f64;
        let stage3 = fft_bytes(n, retained * h) + fft_bytes(n / 2, plan.sampled_row_count());
        stage1 + stage2 + stage3
    }

    /// The device-footprint model for this pipeline under `plan`
    /// (Table 4's "estimated" vs "actual" columns), its c2r pass sized for
    /// the most rows any one retained plane samples.
    pub fn footprint(&self, plan: &SamplingPlan) -> PipelineFootprint {
        let plane_rows = plan
            .retained_planes()
            .map(|z| plan.sampled_rows(z).count())
            .max()
            .unwrap_or(0);
        PipelineFootprint::with_stage3_rows(
            self.n,
            self.k,
            plan.retained_plane_count(),
            plane_rows,
            self.batch,
            plan.compressed_bytes() as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traditional::TraditionalConvolver;
    use lcc_fft::fft_axis;
    use lcc_greens::{GaussianKernel, MassifGamma, PoissonSpectrum};
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

    /// A plan from `(corner, size, rate)` cells through the wire decoder —
    /// the only way to get a plan for an `n` that is not a power of two, or
    /// a shape `SamplingPlan::build` never produces.
    fn decoded(n: usize, cells: &[([usize; 3], usize, u64)]) -> Arc<SamplingPlan> {
        let mut encoded = Vec::new();
        let mut before = 0u64;
        for &(c, size, rate) in cells {
            encoded.extend([c[0] as u64, c[1] as u64, c[2] as u64, rate, before]);
            before += (size as u64 / rate).pow(3);
        }
        Arc::new(SamplingPlan::decode(n, BoxRegion::cube(n), &encoded, before).unwrap())
    }

    /// Size-2 cells wherever all three axis segments are 2 long, every
    /// other one a single sample (`spa == 1`, rate 2); unit cells along an
    /// odd grid's last layer. Valid for every `n ≥ 2`.
    fn single_sample_cell_plan(n: usize) -> Arc<SamplingPlan> {
        let mut cells = Vec::new();
        let segs: Vec<(usize, usize)> = (0..n).step_by(2).map(|s| (s, 2.min(n - s))).collect();
        for &(x, sx) in &segs {
            for &(y, sy) in &segs {
                for &(z, sz) in &segs {
                    if sx == 2 && sy == 2 && sz == 2 {
                        let rate = if (x + y + z) % 4 == 0 { 2 } else { 1 };
                        cells.push(([x, y, z], 2, rate));
                        continue;
                    }
                    for dx in 0..sx {
                        for dy in 0..sy {
                            for dz in 0..sz {
                                cells.push(([x + dx, y + dy, z + dz], 1, 1));
                            }
                        }
                    }
                }
            }
        }
        decoded(n, &cells)
    }

    impl LocalConvolver {
        /// The stage 3 the sampled one replaced, kept as its oracle: every
        /// row x-inverted in natural order, every row c2r'd and unpacked
        /// into an `n×n` real plane at its shifted position, then
        /// `capture_plane`.
        fn inverse_2d_capture_full_plane(
            &self,
            kept: &mut [Complex64],
            corner: [usize; 3],
            scale: f64,
            plan: Arc<SamplingPlan>,
        ) -> CompressedField {
            let (n, h) = (self.n, self.half());
            let planner = FftPlanner::new();
            let mut scratch = vec![Complex64::ZERO; self.c2r.scratch_len()];
            let (mut real, mut row_out) = (vec![0.0; n * n], vec![0.0; n]);
            let mut field = CompressedField::zeros(plan.clone());
            for (plane, z) in kept.chunks_exact_mut(n * h).zip(plan.retained_planes()) {
                fft_axis(&planner, plane, (1, n, h), 1, FftDirection::Inverse);
                for (x0, row) in plane.chunks_exact_mut(h).enumerate() {
                    self.c2r.process_packed(row, &mut scratch, scale);
                    RealIfft::unpack(row, &mut row_out);
                    let x = (x0 + corner[0]) % n;
                    for (y0, &v) in row_out.iter().enumerate() {
                        real[x * n + (y0 + corner[1]) % n] = v;
                    }
                }
                field.capture_plane(z, &real);
            }
            field
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Stage 3 transforms, stores and captures only the sampled rows;
        /// the samples equal those of the full-plane oracle to the bit, for
        /// every plan shape and corner, on the scalar and the tensor
        /// pipeline's planes.
        #[test]
        fn sampled_stage3_matches_full_plane_oracle(
            n in proptest::prop_oneof![
                proptest::strategy::Just(2usize), proptest::strategy::Just(4),
                proptest::strategy::Just(6), proptest::strategy::Just(8),
                proptest::strategy::Just(9), proptest::strategy::Just(15),
                proptest::strategy::Just(16), proptest::strategy::Just(32),
                proptest::strategy::Just(64),
            ],
            plan_kind in 0usize..5,
            rate_log in 1u32..=3,
            k_pick in 0usize..8,
            corner in (0usize..64, 0usize..64, 0usize..64),
            tensor in 0usize..2,
            seed in 0u64..1000,
        ) {
            let divisors: Vec<usize> = (1..=n.min(8)).filter(|d| n % d == 0).collect();
            let k = divisors[k_pick % divisors.len()];
            // Any corner in the grid: the sub-domain wraps on every axis
            // whose corner is past n − k.
            let corner = [corner.0 % n, corner.1 % n, corner.2 % n];
            let lo = corner.map(|c| c % (n - k + 1));
            let domain = BoxRegion::new(lo, lo.map(|l| l + k));
            let plan = match plan_kind {
                _ if !n.is_power_of_two() && plan_kind < 4 => {
                    if plan_kind % 2 == 0 {
                        decoded(n, &[([0; 3], n, 1)])
                    } else {
                        single_sample_cell_plan(n)
                    }
                }
                0 => dense_plan(n, domain),
                1 => Arc::new(SamplingPlan::build(n, domain, &RateSchedule::uniform(1 << rate_log))),
                2 => Arc::new(SamplingPlan::build(n, domain, &RateSchedule::paper_default(k, 8))),
                3 => Arc::new(SamplingPlan::build(
                    n,
                    domain,
                    &RateSchedule::for_kernel_spread(k, 1.2, 16),
                )),
                _ => single_sample_cell_plan(n),
            };
            let conv = LocalConvolver::new(n, k, 64);
            let component = |c: usize| {
                Grid3::from_fn((k, k, k), |x, y, z| {
                    ((x * 3 + y * 5 + z * 7 + c) as f64 * 0.31 + seed as f64 * 0.013).sin()
                })
            };
            let cube = (n * n * n) as f64;
            let (planes, scale): (Vec<Vec<Complex64>>, f64) = if tensor == 1 {
                let gamma = MassifGamma::new(n, 1.3, 0.8);
                let subs = std::array::from_fn(component);
                let kept = conv.tensor_stages_1_2(&subs, corner[2], &gamma, &plan);
                (kept.into(), 0.5 / cube)
            } else {
                let h = conv.half();
                let mut slab = vec![Complex64::ZERO; k * n * h];
                let mut kept = vec![Complex64::ZERO; plan.retained_plane_count() * n * h];
                let kernel = PoissonSpectrum::new(n);
                conv.scalar_stages_1_2(&component(0), corner[2], &kernel, &plan, &mut slab, &mut kept);
                (vec![kept], 1.0 / cube)
            };
            for kept in planes {
                let got = conv.inverse_2d_capture(&mut kept.clone(), corner, scale, plan.clone());
                let want = conv.inverse_2d_capture_full_plane(&mut kept.clone(), corner, scale, plan.clone());
                for (i, (a, b)) in got.samples().iter().zip(want.samples()).enumerate() {
                    proptest::prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "n={n} k={k} corner={corner:?} plan #{plan_kind} sample {i}: {a:e} vs {b:e}"
                    );
                }
            }
        }
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
    fn position_is_an_exact_shift() {
        // The same sub-domain at two corners gives the same dense result,
        // circularly shifted, to the bit: the position is index arithmetic.
        let n = 16;
        let k = 4;
        let kernel = GaussianKernel::new(n, 1.0);
        let sub = sub_field(k);
        let conv = LocalConvolver::new(n, k, 16);
        let plan = dense_plan(n, BoxRegion::new([0; 3], [k; 3]));
        let at = |corner| {
            conv.convolve_compressed(&sub, corner, &kernel, plan.clone())
                .reconstruct()
        };
        let (origin, shifted, c) = (at([0; 3]), at([13, 2, 7]), [13, 2, 7]);
        for ((x, y, z), &v) in origin.indexed_iter() {
            let w = shifted[((x + c[0]) % n, (y + c[1]) % n, (z + c[2]) % n)];
            assert_eq!(v.to_bits(), w.to_bits(), "({x},{y},{z})");
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
        // The same planes with fewer sampled rows → strictly less too: the
        // c2r runs on sampled rows only. Half the grid at rate n/4.
        let h = n / 2;
        let mut cells = Vec::new();
        for x in [0, h] {
            for y in [0, h] {
                for z in [0, h] {
                    cells.push(([x, y, z], h, if x == 0 { 1 } else { n as u64 / 4 }));
                }
            }
        }
        let fewer_rows = decoded(n, &cells);
        assert_eq!(fewer_rows.retained_z(), plan.retained_z());
        assert!(fewer_rows.sampled_row_count() < plan.sampled_row_count());
        assert!(conv.flops_estimate(&fewer_rows) < flops);
        assert!(conv.bytes_estimate(&fewer_rows) < bytes);
        let (full_fp, sparse_fp) = (conv.footprint(&plan), conv.footprint(&fewer_rows));
        assert!(sparse_fp.plan_workspace_bytes < full_fp.plan_workspace_bytes);
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
