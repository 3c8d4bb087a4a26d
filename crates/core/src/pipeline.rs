//! The streaming local convolution pipeline (paper §4, Fig. 2, Fig. 4).
//!
//! Convolves one `k³` sub-domain against the full `N³` periodic grid
//! *without ever materializing the N³ result*. The input is real, so its
//! spectrum is Hermitian and only the bins `fy ∈ 0..h`, `h = N/2 + 1`, are
//! ever formed (Fig. 5's "RDFT converts small cube into slab").
//!
//! **Stage order.** One call runs:
//!
//! 1. **y pass** (stage 1) — each of the `k` z-slices is zero-padded from
//!    `k×k` to `N×N` implicitly: pruned-input FFTs transform only the `k`
//!    nonzero rows along y ("zero structure is implicit in the 1D calls"),
//!    and each keeps its `h` non-redundant bins: `k·k·h` complex.
//! 2. One loop over **column blocks**: `w ≤ W = 8` adjacent `fy` columns
//!    from `fy0 = 0, 8, …`; for even `N ≥ 16` the last block is the Nyquist
//!    column alone. Per block:
//!    - **x pass** (stage 1) — the block's columns of every slice are
//!      transformed along x (`k` nonzero rows, one pruned tile) into a
//!      block slab: `k` planes of the block's `N·w` pencils
//!      `p = fx·w + (fy − fy0)`;
//!    - **z stage** (stage 2) — batches of `B` of those pencils (the
//!      paper's batch parameter) are zero-padded `k → N` by a pruned
//!      transform (the `N`-point schedule past its `N/k` head, on
//!      broadcast rows), multiplied by the kernel spectrum evaluated on
//!      the fly — the multiply writes each bin to the row the inverse
//!      loads it from — inverse transformed, and immediately
//!      **compressed**: only the z-planes the octree plan retains are
//!      kept, as `n_zr` planes of the block's pencils. Adjacent pencils are
//!      contiguous, so the stage runs over [`lcc_fft::tile`]s of 8 of them
//!      ([`ZStage`], shared with the tensor pipeline);
//!    - **x inverse** (stage 3) — each retained plane of the block is
//!      inverse transformed along x, one tile, and only the x rows the plan
//!      samples in that plane are stored ([`SamplingPlan::sampled_rows`]),
//!      into their `w` columns of the sampled-row buffer.
//! 3. **c2r and capture** (stage 3) — once every block has passed, every
//!    sampled row is finished by a c2r along y, in place (`h` complex hold
//!    their own `N` reals, see [`RealIfft::process_packed`]), the rows
//!    spread over the pool. Then one pass over the plan's cells per
//!    component reads each sample straight from the packed rows into a
//!    recycled sample buffer ([`CompressedField::from_rows`]), each cell's
//!    samples in order, through a `(z, x) → row` table carved from the call
//!    arena ([`SamplingPlan::fill_row_table`]). Rows are independent, so a
//!    row nobody samples is never transformed and the samples are the same
//!    to the bit as if every row had been.
//!
//! The strided x transforms of stages 1 and 3 run over tiles with their
//! lanes across the block's `fy` columns; the y transforms are along the
//! contiguous axis and stay one plan call per row.
//!
//! **Memory.** A block's x-pass tile and its x-inverse tile cover exactly
//! its columns, so its three stages need nothing from another block, and
//! neither the paper's `N×h×k` slab nor the `n_zr` retained `N×h`
//! half-planes ever exist whole. The call arena holds the y-pass rows
//! (`k·k·h`), one block slab (`k` planes of `(N + 1)·W`: a spare row keeps
//! the planes from sitting a power of two apart), one block of retained
//! rows (`n_zr` such planes) and the sampled rows (`sampled_row_count·h`),
//! all complex, and the sampled rows' table of `n·(1 + n_zr)` indices:
//! 5.7 MB at `N = 128, k = 32` where the whole slab and planes took 12.8 MB,
//! and 63 MB instead of 1.14 GB at `N = 1024, k = 32, r = 32`
//! ([`LocalConvolver::footprint`], DESIGN.md §5l). Blocking changes the
//! loop order and the buffers only: every transform and every pencil's
//! arithmetic is what it is unblocked, and so are the samples, to the bit.
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
//! **Support cube.** The k → N padding is not the only zero structure: a
//! sub-domain holding a small inclusion or a point source is mostly zero
//! *inside* its `k³` box too. One pass over the call's `C` inputs finds
//! their union nonzero support, `lo..hi` per axis, and stage 1 and the
//! z stage's forward run on the smallest cube that holds it whose side
//! `k′` divides `k` (so `k′` divides `N` and has a planned pruned
//! transform; an all-zero input gets `k′ = 1`). The cube sits at offset
//! `a = min(lo, k − k′)` per axis, inside the sub-domain, so by the shift
//! theorem above it is a sub-domain of side `k′` at corner
//! `(c + a) mod N`: the y pass transforms `k′·k′` rows of `k′` entries,
//! the x pass and the block slab hold `k′` planes, and every z pencil's
//! forward reads `k′` rows. The z inverse, stage 3, the capture and the
//! plan are those of the `k³` call. With `k′ = k` (every dense input) the
//! call is the dense one to the bit; with `k′ < k` the samples equal it up
//! to rounding, since the pruned transforms of a shorter support round
//! differently. The work and footprint models
//! ([`LocalConvolver::flops_estimate`], [`LocalConvolver::footprint`])
//! keep pricing the dense `k³` domain, an upper bound.
//!
//! **Non-Hermitian kernels.** The result is defined as `Re(ifft(K̂·X̂))` for
//! any [`KernelSpectrum`]. With `X̂` Hermitian the real part keeps exactly
//! the Hermitian part of the product,
//! `½(K̂(f)X̂(f) + conj(K̂(−f)X̂(−f))) = K̂ₕ(f)·X̂(f)` with
//! `K̂ₕ(f) = ½(K̂(f) + conj K̂(−f))`, so the z stage multiplies by `K̂ₕ`
//! ([`KernelSpectrum::apply_hermitian_tile_axis2`]). The shipped scalar
//! kernels are real and separable and scale a tile's lanes by a real factor;
//! `MassifGamma` components that are odd in one `ξᵢ` are not Hermitian on
//! bins with a Nyquist coordinate (DESIGN.md §5a) and take the trait's
//! two-pencil default.

// lcc-lint: hot-path — pipeline stages 1-3; only per-solve setup may allocate.

use std::sync::Arc;

use parking_lot::Mutex;
use rayon::prelude::*;

use lcc_fft::tile::{carve, load_row, store_row, W};
use lcc_fft::{
    as_reals, workspace, Complex64, FftDirection, FftPlanner, PrunedInputFft, RealIfft, TileFft,
    WorkspaceGuard, ZStage, ZTile,
};
use lcc_greens::KernelSpectrum;
use lcc_grid::Grid3;
use lcc_obs::metrics;
use lcc_octree::{CompressedField, SamplingPlan, SetBits};

use crate::memory_model::PipelineFootprint;

/// `w ≤ W` adjacent `fy` columns of the half spectrum from `fy0`: the unit
/// stages 1-3 run in. Its pencils are numbered `p = fx·w + (fy − fy0)`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Block {
    fy0: usize,
    w: usize,
}

impl Block {
    /// The `(fx, fy)` bin of pencil `p`.
    #[inline]
    pub(crate) fn bin(self, p: usize) -> (usize, usize) {
        (p / self.w, self.fy0 + p % self.w)
    }

    /// Length of one of the block's planes on an `n` grid: its `n·w`
    /// pencils and one spare row of `w`, so that planes do not sit a power
    /// of two apart and the rows a z-stage tile loads or stores do not
    /// compete for one cache set.
    fn stride(self, n: usize) -> usize {
        (n + 1) * self.w
    }
}

/// `buf` as `C` consecutive parts of `len` each.
fn parts<const C: usize>(buf: &mut [Complex64], len: usize) -> [&mut [Complex64]; C] {
    let mut rest = buf;
    std::array::from_fn(|_| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        head
    })
}

/// Runs `f(ws, (i, z), rows)` on the pool for the `i`-th retained plane
/// `z` of `plan`, every one, where `rows` are that plane's sampled rows in
/// `sampled` (`h` complex each, plane after plane); each participant has
/// its own workspace lease. This is `par_chunks_mut` for parts of varying
/// length: the planes are split off the buffer's front one at a time under
/// a lock, in order, so the parts are disjoint without `unsafe`.
fn for_each_plane(
    sampled: &mut [Complex64],
    h: usize,
    plan: &SamplingPlan,
    f: impl Fn(&mut WorkspaceGuard, (usize, usize), &mut [Complex64]) + Sync,
) {
    let planes = plan.retained_planes().enumerate();
    let next = Mutex::new((sampled, planes));
    (0..plan.retained_plane_count())
        .into_par_iter()
        .for_each_init(workspace, |ws, _| {
            let (plane, rows) = {
                let mut next = next.lock();
                let (rest, planes) = &mut *next;
                let Some((i, z)) = planes.next() else {
                    unreachable!("one task per retained plane")
                };
                let len = plan.sampled_rows(z).count() * h;
                let (rows, tail) = std::mem::take(rest).split_at_mut(len);
                *rest = tail;
                ((i, z), rows)
            };
            f(ws, plane, rows);
        });
}

/// The scalar pipeline's pointwise z-stage step on `block`: the kernel's
/// Hermitian part (module doc) applied in lane form, each forward row
/// multiplied into the inverse's load row
/// ([`KernelSpectrum::apply_hermitian_tile_axis2`]). It needs
/// [`scalar_scratch`].
fn scalar_pointwise(kernel: &dyn KernelSpectrum, block: Block) -> impl Fn(ZTile<'_>) + Sync + '_ {
    move |tile: ZTile<'_>| {
        let bins: [(usize, usize); W] = std::array::from_fn(|l| block.bin(tile.q0 + l));
        let bins = &bins[..tile.live];
        kernel.apply_hermitian_tile_axis2(bins, tile.src, tile.rows, tile.dst, tile.scratch);
    }
}

/// The complex scratch [`scalar_pointwise`] asks for: the default
/// multiply's `W` pencils and their mirror.
fn scalar_scratch(n: usize) -> usize {
    (W + 1) * n
}

/// The cube stage 1 and the z stage's forward run on (module doc, "Support
/// cube"): side `k′ = pruned.support()`, low corner `offset` within the
/// `k³` sub-domain, each `≤ k − k′`.
#[derive(Clone, Copy)]
struct Cube<'a> {
    /// Pruned `k′ → n` forward transform shared by all three axes.
    pruned: &'a PrunedInputFft,
    offset: [usize; 3],
}

impl Cube<'_> {
    /// The side `k′`.
    fn side(self) -> usize {
        self.pruned.support()
    }
}

/// Planned streaming convolver for `(n, k)` sub-domain convolutions.
pub struct LocalConvolver {
    n: usize,
    k: usize,
    batch: usize,
    /// Pruned `k′ → N` forward transforms, one per divisor `k′` of `k` in
    /// increasing order, the last for `k` itself: a call runs on its
    /// support cube's ([`Cube`]).
    pruned: Vec<PrunedInputFft>,
    /// Dense inverse over tiles of adjacent pencils: along z in stage 2,
    /// along x in stage 3.
    inverse: TileFft,
    /// c2r along y, the last inverse transform of stage 3.
    c2r: RealIfft,
}

impl LocalConvolver {
    /// Plans the pipeline. `k` must divide `n`; `batch ≥ 1` is the number of
    /// z-pencils processed at a time within a column block (the paper's
    /// `B`).
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
            pruned: (1..=k)
                .filter(|d| k.is_multiple_of(*d))
                .map(|d| PrunedInputFft::new(&planner, n, d, FftDirection::Forward))
                .collect(),
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

    /// The side `k′` of the cube stage 1 and the z stage's forward run on
    /// for `sub` (module doc, "Support cube"): the smallest divisor of `k`
    /// whose cube holds its nonzeros, 1 when it has none.
    pub fn support_side(&self, sub: &Grid3<f64>) -> usize {
        let k = self.k;
        assert_eq!(sub.shape(), (k, k, k), "sub-domain must be k³");
        self.support_cube([sub]).side()
    }

    /// `h = n/2 + 1`: the non-redundant bins along y of a real field's
    /// spectrum, and the length of every sampled row.
    fn half(&self) -> usize {
        self.n / 2 + 1
    }

    /// The column blocks of the half spectrum, in order.
    fn blocks(&self) -> impl Iterator<Item = Block> {
        let h = self.half();
        (0..h).step_by(W).map(move |fy0| Block {
            fy0,
            w: W.min(h - fy0),
        })
    }

    /// The whole `k³` sub-domain as a cube: what a dense input runs on.
    fn dense(&self) -> Cube<'_> {
        Cube {
            pruned: &self.pruned[self.pruned.len() - 1],
            offset: [0; 3],
        }
    }

    /// The support cube of `subs` (module doc): one pass over their `k³`
    /// values for the union `lo..hi` per axis, then the smallest planned
    /// side `k′ ≥` the largest extent, placed at `min(lo, k − k′)`.
    fn support_cube<const C: usize>(&self, subs: [&Grid3<f64>; C]) -> Cube<'_> {
        let k = self.k;
        let (mut lo, mut hi) = ([k; 3], [0; 3]);
        for sub in subs {
            // Rows run along z, row `r` at `(x, y) = (r / k, r % k)`.
            for (r, row) in sub.as_slice().chunks_exact(k).enumerate() {
                let Some(first) = row.iter().position(|&v| v != 0.0) else {
                    continue;
                };
                let last = row.iter().rposition(|&v| v != 0.0).unwrap_or(first);
                for (a, (l, h)) in [(r / k, r / k), (r % k, r % k), (first, last)]
                    .into_iter()
                    .enumerate()
                {
                    lo[a] = lo[a].min(l);
                    hi[a] = hi[a].max(h + 1);
                }
            }
        }
        let extent = (lo.iter().zip(&hi)).fold(0, |e, (l, h)| e.max(h.saturating_sub(*l)));
        let plans = &self.pruned;
        let pruned = &plans[plans.partition_point(|p| p.support() < extent)];
        let side = pruned.support();
        Cube {
            pruned,
            offset: lo.map(|l| l.min(k - side)),
        }
    }

    /// The z stage over `plan`'s retained planes for a sub-domain at z
    /// corner `shift` whose `cube` the slab holds, shared by the scalar and
    /// the tensor pipeline: they differ only in the pointwise step they
    /// hand to [`ZStage::run`].
    fn z_stage<'a>(
        &'a self,
        plan: &'a SamplingPlan,
        shift: usize,
        cube: Cube<'a>,
    ) -> ZStage<'a, SetBits<'a>> {
        ZStage {
            forward: cube.pruned,
            inverse: &self.inverse,
            retained: plan.retained_planes(),
            shift,
            batch: self.batch,
        }
    }

    /// Stages 1-3 (module doc) of `C` components convolved at once: `subs`
    /// (each `k³`) at `corner`, compressed under `plan`. `pointwise(block)`
    /// is the z stage's pointwise step on `block`, with `scratch` as it
    /// asks [`ZStage::run`]; `scale` is applied by the c2r — `1/n³` for the
    /// three unnormalized inverses, times whatever the step left out.
    pub(crate) fn convolve_blocks<const C: usize, F: Fn(ZTile<'_>) + Sync>(
        &self,
        subs: [&Grid3<f64>; C],
        corner: [usize; 3],
        plan: Arc<SamplingPlan>,
        step: (f64, usize),
        pointwise: impl Fn(Block) -> F,
    ) -> [CompressedField; C] {
        let cube = self.support_cube(subs);
        self.convolve_cube(subs, cube, corner, plan, step, pointwise)
    }

    /// [`Self::convolve_blocks`] with stage 1 and the z stage's forward on
    /// `cube` of `subs`, which must hold all their nonzeros.
    fn convolve_cube<const C: usize, F: Fn(ZTile<'_>) + Sync>(
        &self,
        subs: [&Grid3<f64>; C],
        cube: Cube<'_>,
        corner: [usize; 3],
        plan: Arc<SamplingPlan>,
        (scale, scratch): (f64, usize),
        pointwise: impl Fn(Block) -> F,
    ) -> [CompressedField; C] {
        let (n, k, h) = (self.n, cube.side(), self.half());
        // The cube is a sub-domain of side k′ at the shifted corner.
        let corner: [usize; 3] = std::array::from_fn(|a| (corner[a] + cube.offset[a]) % n);
        let (nzr, rows) = (plan.retained_plane_count(), plan.sampled_row_count());
        metrics::PIPELINE_PENCILS.add((C * n * h) as u64);
        metrics::PIPELINE_STAGE3_ROWS_SAMPLED.add((C * rows) as u64);
        metrics::PIPELINE_STAGE3_ROWS_SKIPPED.add((C * (nzr * n - rows)) as u64);

        // Call-level arena: one pooled workspace, so a warm convolve
        // allocates nothing for it. Each buffer is fully overwritten before
        // it is read (a plane's spare row is never read): the y rows by the
        // y pass, a block's slab by its x pass, its retained rows by the z
        // stage's stores over every (plane, pencil), and column `fy` of
        // every sampled row by the x inverse of the block holding `fy`.
        let mut ws = workspace();
        let ([yrows, slab, retained, sampled], table) =
            ws.indexed(self.arena_lens::<C>(&plan, k), plan.row_table_len());
        let s1 = lcc_obs::span("stage1_2d_fft");
        self.forward_y(subs, cube, yrows);
        drop(s1);
        let z_stage = self.z_stage(&plan, corner[2], cube);
        for block in self.blocks() {
            let stride = block.stride(n);
            let (slab, retained) = (
                &mut slab[..C * k * stride],
                &mut retained[..C * nzr * stride],
            );
            let s1 = lcc_obs::span("stage1_2d_fft");
            self.forward_x(yrows, cube.pruned, block, slab);
            drop(s1);
            let s2 = lcc_obs::span("stage2_z_pencils");
            z_stage.run(
                parts::<C>(slab, k * stride).map(|s| &*s),
                parts::<C>(retained, nzr * stride),
                n * block.w,
                scratch,
                pointwise(block),
            );
            drop(s2);
            let _s3 = lcc_obs::span("stage3_inverse_sample");
            self.inverse_x::<C>(retained, block, corner[0], &plan, sampled);
        }
        let _s3 = lcc_obs::span("stage3_inverse_sample");
        self.c2r_capture(sampled, table, corner[1], scale, plan)
    }

    /// The call arena of [`Self::convolve_blocks`] for `C` components under
    /// `plan` on a cube of side `k`, in complex elements: the y rows, one
    /// block slab, one block of retained planes and the sampled rows
    /// (module doc).
    fn arena_lens<const C: usize>(&self, plan: &SamplingPlan, k: usize) -> [usize; 4] {
        let (n, h) = (self.n, self.half());
        let widest = self.blocks().map(|b| b.stride(n)).max().unwrap_or(0);
        [
            C * k * k * h,
            C * k * widest,
            C * plan.retained_plane_count() * widest,
            C * plan.sampled_row_count() * h,
        ]
    }

    /// Stage 1's y pass on `cube` (side `k`, offset `a`): row `x` of
    /// z-slice `zloc` of component `c` — the `k` entries from
    /// `a + (x, 0, zloc)` along y — transformed along y, its `h`
    /// non-redundant bins stored at `((c·k + zloc)·k + x)·h` of `yrows`.
    /// Columns `fy ≥ h` are the conjugate mirror of these and are never
    /// formed.
    fn forward_y<const C: usize>(
        &self,
        subs: [&Grid3<f64>; C],
        cube: Cube<'_>,
        yrows: &mut [Complex64],
    ) {
        let (n, k, h) = (self.n, cube.side(), self.half());
        let (pruned, [ax, ay, az]) = (cube.pruned, cube.offset);
        yrows
            .par_chunks_mut(k * h)
            .enumerate()
            .for_each_init(workspace, |ws, (slice, out)| {
                let (sub, z) = (subs[slice / k], az + slice % k);
                // Every buffer is fully written before it is read: row_in
                // per row, row by the transform, scratch inside it.
                let [scratch, row_in, row] = ws.complex_bufs([k, k, n]);
                for (x, out) in out.chunks_exact_mut(h).enumerate() {
                    for (y, v) in row_in.iter_mut().enumerate() {
                        *v = Complex64::from_real(sub[(ax + x, ay + y, z)]);
                    }
                    pruned.process(row_in, row, scratch);
                    out.copy_from_slice(&row[..h]);
                }
            });
    }

    /// Stage 1's x pass over `block` by `pruned` (`k → n`): each slice's
    /// `k` y-transformed rows (x < k), the block's columns loaded straight
    /// into the lanes of one pruned tile transform, into `slab` as
    /// `(c, zloc, p)` — `k` planes ([`Block::stride`]) of the block's `n·w`
    /// pencils per component.
    fn forward_x(
        &self,
        yrows: &[Complex64],
        pruned: &PrunedInputFft,
        block: Block,
        slab: &mut [Complex64],
    ) {
        let (n, k, h) = (self.n, pruned.support(), self.half());
        let lane_len = self.inverse.scratch_len();
        slab.par_chunks_mut(block.stride(n))
            .enumerate()
            .for_each_init(workspace, |ws, (slice, plane)| {
                let rows = &yrows[slice * k * h..][..k * h];
                // Every buffer is fully written before it is read: the input
                // rows by the loads, the rest inside the transform.
                let ([lane], mut real) = ws.split([lane_len], (2 * k + 2 * n) * W);
                let real = &mut real;
                let (xre, xim) = (carve(real, k), carve(real, k));
                let (ore, oim) = (carve(real, n), carve(real, n));
                for (x, (re, im)) in xre.iter_mut().zip(xim.iter_mut()).enumerate() {
                    load_row(&rows[x * h + block.fy0..][..block.w], re, im);
                }
                pruned.process_tile((&*xre, &*xim), (&mut *ore, &mut *oim), lane);
                for (dst, (r, i)) in plane
                    .chunks_exact_mut(block.w)
                    .zip(ore.iter().zip(oim.iter()))
                {
                    store_row(r, i, dst);
                }
            });
    }

    /// Stage 3's x inverse over `block`: each component's retained planes
    /// of the block (`retained`, `(c, i, p)`) inverse transformed along x, one
    /// tile each, and only the rows `plan` samples stored — x-inverse row
    /// `(x − c_x) mod n` as row `x` — into columns `fy0..fy0 + w` of
    /// `sampled`: per component, the sampled rows of all retained planes,
    /// plane after plane.
    fn inverse_x<const C: usize>(
        &self,
        retained: &[Complex64],
        block: Block,
        cx: usize,
        plan: &SamplingPlan,
        sampled: &mut [Complex64],
    ) {
        let (n, h, w) = (self.n, self.half(), block.w);
        let inv = &self.inverse;
        let (load_rows, lane_len) = (inv.load_rows(), inv.scratch_len());
        let stride = block.stride(n);
        let planes = plan.retained_plane_count() * stride;
        let rows = plan.sampled_row_count() * h;
        for (c, sampled) in parts::<C>(sampled, rows).into_iter().enumerate() {
            let retained = &retained[c * planes..][..planes];
            for_each_plane(sampled, h, plan, |ws, (i, z), out| {
                let plane = &retained[i * stride..][..n * w];
                // The tile is fully written by the loads, the scratch
                // inside the transform.
                let ([lane], mut real) = ws.split([lane_len], 2 * n * W);
                let real = &mut real;
                let (re, im) = (carve(real, n), carve(real, n));
                for (x, &row) in load_rows.iter().enumerate() {
                    let row = row as usize;
                    load_row(&plane[x * w..][..w], &mut re[row], &mut im[row]);
                }
                inv.process(re, im, lane);
                for (dst, x) in out.chunks_exact_mut(h).zip(plan.sampled_rows(z)) {
                    let src = if x >= cx { x - cx } else { x + n - cx };
                    store_row(&re[src], &im[src], &mut dst[block.fy0..][..w]);
                }
            });
        }
    }

    /// Stage 3's last step: every sampled row c2r'd in place, on the pool,
    /// then each component captured in one pass over the plan's cells
    /// through the `(z, x) → row` `table`, column `y` from packed column
    /// `(y − c_y) mod n` (module doc), into one fresh compressed field per
    /// component.
    fn c2r_capture<const C: usize>(
        &self,
        sampled: &mut [Complex64],
        table: &mut [u32],
        cy: usize,
        scale: f64,
        plan: Arc<SamplingPlan>,
    ) -> [CompressedField; C] {
        let h = self.half();
        let odd = self.c2r.scratch_len();
        sampled
            .par_chunks_mut(h)
            .for_each_init(workspace, |ws, row| {
                let [scratch] = ws.complex_bufs([odd]);
                self.c2r.process_packed(row, scratch, scale);
            });
        plan.fill_row_table(table);
        let rows = plan.sampled_row_count() * h;
        parts::<C>(sampled, rows).map(|sampled| {
            CompressedField::from_rows(plan.clone(), as_reals(sampled), 2 * h, cy, table)
        })
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
        let scale = 1.0 / (n * n * n) as f64;
        let [field] =
            self.convolve_blocks([sub], corner, plan, (scale, scalar_scratch(n)), |block| {
                scalar_pointwise(kernel, block)
            });
        field
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
    /// The count models the dense `k³` domain. A call whose input is
    /// nonzero in a smaller support cube (module doc) does less stage 1 and
    /// stage 2 work, so this is an upper bound, and a rate computed from it
    /// over such calls (the ledger's `core.compress_gflops` on sparse
    /// inputs) rises with the work skipped, not with kernel speed.
    ///
    /// This is the unit the recovery accounting uses to price an exact
    /// recompute of a dead rank's domain; it keeps the dense price, which
    /// does not depend on the data.
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
    /// Like [`Self::flops_estimate`] it models the dense `k³` domain, an
    /// upper bound for an input with a smaller support cube.
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

    /// The host working set of one [`Self::convolve_compressed`] call under
    /// `plan`: the call arena's four buffers and row table (module doc), the
    /// largest tile-scratch lease one participant takes, and the compressed
    /// output.
    /// Table 4's host column; the paper's whole-slab device model is
    /// [`PipelineFootprint::model`]. It sizes the dense `k³` domain: an
    /// input with a smaller support cube (module doc) leases less for the
    /// y rows, the block slab and the z stage, so this is an upper bound.
    pub fn footprint(&self, plan: &SamplingPlan) -> PipelineFootprint {
        let (n, k) = (self.n, self.k);
        // The z stage's lease is the largest of any phase but the y pass's
        // `2k + n` complex; the x passes and the c2r lease less.
        let (complex, real) = self
            .z_stage(plan, 0, self.dense())
            .lease_len::<1>(scalar_scratch(n));
        let complex = complex.max(2 * k + n);
        let [yrows, slab, retained, sampled] = self.arena_lens::<1>(plan, k);
        PipelineFootprint {
            slab_bytes: 16 * (yrows + slab) as u64,
            retained_bytes: (16 * (retained + sampled) + 4 * plan.row_table_len()) as u64,
            batch_bytes: (16 * complex + 8 * real) as u64,
            compressed_bytes: plan.compressed_bytes() as u64,
            plan_workspace_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory_model::{local_slab_bytes, PipelineFootprint};
    use crate::tensor_pipeline::tensor_pointwise;
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
        /// The unblocked pipeline the column blocks replaced, kept as their
        /// oracle: stage 1 into each component's whole `(zloc, fx, fy)`
        /// slab, the z stage over all `n·h` pencils at once — one block as
        /// wide as the half spectrum — into whole retained half-planes, and
        /// stage 3 over full planes.
        fn unblocked<const C: usize, F: Fn(ZTile<'_>) + Sync>(
            &self,
            subs: [&Grid3<f64>; C],
            corner: [usize; 3],
            plan: Arc<SamplingPlan>,
            (scale, scratch): (f64, usize),
            pointwise: impl Fn(Block) -> F,
        ) -> [CompressedField; C] {
            let (n, k, h) = (self.n, self.k, self.half());
            let planes = plan.retained_plane_count() * n * h;
            let mut slabs: Vec<Complex64> = subs.iter().flat_map(|s| self.whole_slab(s)).collect();
            let mut kept = vec![Complex64::ZERO; C * planes];
            self.z_stage(&plan, corner[2], self.dense()).run(
                parts::<C>(&mut slabs, k * n * h).map(|s| &*s),
                parts::<C>(&mut kept, planes),
                n * h,
                scratch,
                pointwise(Block { fy0: 0, w: h }),
            );
            parts::<C>(&mut kept, planes)
                .map(|kept| self.inverse_2d_capture_full_plane(kept, corner, scale, plan.clone()))
        }

        /// Stage 1 into the whole slab: `k` planes of the `n·h` pencils
        /// `fx·h + fy`, the x pass a tile of `W` columns at a time.
        fn whole_slab(&self, sub: &Grid3<f64>) -> Vec<Complex64> {
            let (n, k, h) = (self.n, self.k, self.half());
            let mut slab = vec![Complex64::ZERO; k * n * h];
            let (mut rows, mut scratch) = (vec![Complex64::ZERO; k * n], vec![Complex64::ZERO; k]);
            let pruned = self.dense().pruned;
            let mut lane = vec![Complex64::ZERO; self.inverse.scratch_len()];
            let tile = |len| vec![[0.0; W]; len];
            let (mut xre, mut xim) = (tile(k), tile(k));
            let (mut ore, mut oim) = (tile(n), tile(n));
            for (zloc, plane) in slab.chunks_exact_mut(n * h).enumerate() {
                for (x, row) in rows.chunks_exact_mut(n).enumerate() {
                    let row_in: Vec<Complex64> = (0..k)
                        .map(|y| Complex64::from_real(sub[(x, y, zloc)]))
                        .collect();
                    pruned.process(&row_in, row, &mut scratch);
                }
                for fy in (0..h).step_by(W) {
                    let live = W.min(h - fy);
                    for x in 0..k {
                        load_row(&rows[x * n + fy..][..live], &mut xre[x], &mut xim[x]);
                    }
                    pruned.process_tile((&xre, &xim), (&mut ore, &mut oim), &mut lane);
                    for fx in 0..n {
                        store_row(&ore[fx], &oim[fx], &mut plane[fx * h + fy..][..live]);
                    }
                }
            }
            slab
        }

        /// Stage 3 over full planes: every row x-inverted in natural order,
        /// every row c2r'd and unpacked into an `n×n` real plane at its
        /// shifted position, then `capture_plane`.
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

        /// The column-blocked pipeline's samples equal the unblocked
        /// oracle's to the bit — stage 3 there transforms every row of
        /// every retained plane — for every plan shape, corner and batch,
        /// scalar and tensor.
        #[test]
        fn blocked_pipeline_matches_unblocked_oracle(
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
            batch in proptest::prop_oneof![
                proptest::strategy::Just(1usize), proptest::strategy::Just(7),
                proptest::strategy::Just(1024),
            ],
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
            let conv = LocalConvolver::new(n, k, batch);
            let component = |c: usize| {
                Grid3::from_fn((k, k, k), |x, y, z| {
                    ((x * 3 + y * 5 + z * 7 + c) as f64 * 0.31 + seed as f64 * 0.013).sin()
                })
            };
            let cube = (n * n * n) as f64;
            let (got, want): (Vec<CompressedField>, Vec<CompressedField>) = if tensor == 1 {
                let gamma = MassifGamma::new(n, 1.3, 0.8);
                let subs: [Grid3<f64>; 6] = std::array::from_fn(component);
                let got = conv.convolve_tensor_compressed(&subs, corner, &gamma, plan.clone());
                let want = conv.unblocked(subs.each_ref(), corner, plan, (0.5 / cube, 0), |block| {
                    tensor_pointwise(&gamma, n, block)
                });
                (got.into(), want.into())
            } else {
                let (sub, kernel) = (component(0), PoissonSpectrum::new(n));
                let got = conv.convolve_compressed(&sub, corner, &kernel, plan.clone());
                let want = conv.unblocked([&sub], corner, plan, (1.0 / cube, scalar_scratch(n)), |block| {
                    scalar_pointwise(&kernel, block)
                });
                (vec![got], want.into())
            };
            for (got, want) in got.iter().zip(&want) {
                proptest::prop_assert_eq!(got.samples().len(), want.samples().len());
                for (i, (a, b)) in got.samples().iter().zip(want.samples()).enumerate() {
                    proptest::prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "n={n} k={k} corner={corner:?} plan #{plan_kind} batch {batch} sample {i}: {a:e} vs {b:e}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Nonzeros in a box inside the sub-domain: the support-cube call
        /// equals the same blocks run on the whole `k³` cube up to
        /// rounding, and to the bit when the cube is the whole domain — for
        /// box extents 1..=k that may touch the high faces, wrapping
        /// corners, power-of-two and other divisors, scalar kernels and Γ̂
        /// with a support of its own per component.
        #[test]
        fn support_cube_matches_full_cube_oracle(
            grid in 0usize..4,
            k_pick in 0usize..2,
            extent in (1usize..=64, 1usize..=64, 1usize..=64),
            lo in (0usize..64, 0usize..64, 0usize..64),
            corner in (0usize..64, 0usize..64, 0usize..64),
            kernel_pick in 0usize..3,
            seed in 0u64..1000,
        ) {
            let (n, k) = match grid {
                0 => (16, [4, 8][k_pick]),
                1 => (32, [8, 16][k_pick]),
                2 => (64, [8, 16][k_pick]),
                _ => (60, 12),
            };
            let extent = [extent.0, extent.1, extent.2].map(|e| 1 + (e - 1) % k);
            let lo: [usize; 3] =
                std::array::from_fn(|a| [lo.0, lo.1, lo.2][a] % (k - extent[a] + 1));
            let corner = [corner.0 % n, corner.1 % n, corner.2 % n];
            let plan = if n.is_power_of_two() {
                let at = corner.map(|c| c % (n - k + 1));
                let domain = BoxRegion::new(at, at.map(|l| l + k));
                Arc::new(SamplingPlan::build(n, domain, &RateSchedule::paper_default(k, 8)))
            } else {
                decoded(n, &[([0; 3], n, 1)])
            };
            // Component `c` fills its own box inside `lo + extent`; the
            // first fills all of it, so the union is that box.
            let component = |c: usize| {
                let (clo, chi): ([usize; 3], [usize; 3]) = if c == 0 {
                    (lo, std::array::from_fn(|a| lo[a] + extent[a]))
                } else {
                    let e: [usize; 3] = std::array::from_fn(|a| {
                        1 + (seed as usize + 5 * c + a) % extent[a]
                    });
                    let l: [usize; 3] = std::array::from_fn(|a| {
                        lo[a] + (3 * seed as usize + c + 2 * a) % (extent[a] - e[a] + 1)
                    });
                    (l, std::array::from_fn(|a| l[a] + e[a]))
                };
                Grid3::from_fn((k, k, k), |x, y, z| {
                    let at = [x, y, z];
                    if (0..3).all(|a| (clo[a]..chi[a]).contains(&at[a])) {
                        let phase = (x * 3 + y * 5 + z * 7 + c) as f64 * 0.31;
                        1.5 + (phase + seed as f64 * 0.013).sin()
                    } else {
                        0.0
                    }
                })
            };
            let conv = LocalConvolver::new(n, k, 64);
            let side = conv.support_side(&component(0));
            let largest = extent.into_iter().max().unwrap_or(0);
            proptest::prop_assert_eq!(side, (largest..=k).find(|d| k.is_multiple_of(*d)).unwrap_or(k));
            let cube = (n * n * n) as f64;
            let (got, want): (Vec<CompressedField>, Vec<CompressedField>) = if kernel_pick == 2 {
                let gamma = MassifGamma::new(n, 1.3, 0.8);
                let subs: [Grid3<f64>; 6] = std::array::from_fn(component);
                let got = conv.convolve_tensor_compressed(&subs, corner, &gamma, plan.clone());
                // The tensor pipeline's own step, on the whole domain.
                let step = (0.5 / cube, 0);
                let subs = subs.each_ref();
                let want = conv.convolve_cube(subs, conv.dense(), corner, plan, step, |b| {
                    tensor_pointwise(&gamma, n, b)
                });
                (got.into(), want.into())
            } else {
                let sub = component(0);
                let kernel: Box<dyn KernelSpectrum> = if kernel_pick == 0 {
                    Box::new(GaussianKernel::new(n, 1.2))
                } else {
                    Box::new(PoissonSpectrum::new(n))
                };
                let got = conv.convolve_compressed(&sub, corner, kernel.as_ref(), plan.clone());
                let step = (1.0 / cube, scalar_scratch(n));
                let want = conv.convolve_cube([&sub], conv.dense(), corner, plan, step, |b| {
                    scalar_pointwise(kernel.as_ref(), b)
                });
                (vec![got], want.into())
            };
            for (got, want) in got.iter().zip(&want) {
                let peak = want.samples().iter().fold(0.0f64, |m, v| m.max(v.abs()));
                proptest::prop_assert_eq!(got.samples().len(), want.samples().len());
                for (i, (a, b)) in got.samples().iter().zip(want.samples()).enumerate() {
                    let ok = if side == k {
                        a.to_bits() == b.to_bits()
                    } else {
                        (a - b).abs() <= 1e-13 * peak
                    };
                    proptest::prop_assert!(
                        ok,
                        "n={n} k={k} k'={side} box {lo:?}+{extent:?} corner={corner:?} \
                         sample {i}: {a:e} vs {b:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_zero_sub_domain_runs_on_a_unit_cube() {
        let (n, k) = (16, 8);
        let conv = LocalConvolver::new(n, k, 64);
        let zero = Grid3::zeros((k, k, k));
        assert_eq!(conv.support_side(&zero), 1);
        let plan = dense_plan(n, BoxRegion::new([0; 3], [k; 3]));
        for kernel in [
            &GaussianKernel::new(n, 1.2) as &dyn KernelSpectrum,
            &PoissonSpectrum::new(n),
        ] {
            let field = conv.convolve_compressed(&zero, [5, 14, 9], kernel, plan.clone());
            assert!(field.samples().iter().all(|&v| v == 0.0));
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
        // And so is the buffer those rows wait in between the x inverse and
        // the c2r.
        let (full_fp, sparse_fp) = (conv.footprint(&plan), conv.footprint(&fewer_rows));
        assert!(sparse_fp.retained_bytes < full_fp.retained_bytes);
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
        let (h, nzr, rows) = (
            n / 2 + 1,
            plan.retained_plane_count(),
            plan.sampled_row_count(),
        );
        // The call arena: the y rows and one block slab; one block of
        // retained rows, the sampled rows and their `(z, x) → row` table.
        assert_eq!(fp.slab_bytes, 16 * (k * k * h + k * (n + 1) * W) as u64);
        assert_eq!(
            fp.retained_bytes,
            (16 * (nzr * (n + 1) * W + rows * h) + 4 * n * (1 + nzr)) as u64
        );
        // The paper's model holds Table 1's 8·N·N·k half spectrum plus the
        // one Nyquist column, and every retained half-plane, whole.
        let model = PipelineFootprint::model(n, k, nzr, 128, fp.compressed_bytes);
        assert_eq!(
            model.slab_bytes,
            local_slab_bytes(n, k) + 16 * (n as u64) * (k as u64)
        );
        assert!(fp.slab_bytes < model.slab_bytes && fp.retained_bytes < model.retained_bytes);
        assert!(
            fp.estimated_bytes() < 16 * (n as u64).pow(3),
            "must beat dense"
        );
        // The host transforms work in tile scratch, not library workspaces.
        assert_eq!(fp.actual_bytes(), fp.estimated_bytes());
    }

    #[test]
    #[should_panic(expected = "k must divide n")]
    fn invalid_k_rejected() {
        LocalConvolver::new(10, 3, 1);
    }
}
