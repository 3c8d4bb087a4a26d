//! Pencil tiles: the split-layout butterflies run across [`W`] adjacent
//! pencils at once.
//!
//! Every strided transform of the pipeline has a *contiguous batch
//! dimension*: the pencils along x or z of a row-major slab start at
//! consecutive addresses. A tile puts that dimension in the vector lanes —
//! `re[t][lane]`, `im[t][lane]` hold element `t` of pencil `lane` — so a
//! tile row is one contiguous `W`-element run of the slab and the pencils
//! never have to be gathered, transposed or made contiguous.
//!
//! **One kernel set, both layouts.** Stage `(radix r, span m)` of a single
//! pencil combines elements `j, j + m, …` of each block of `r·m`. In the
//! flattened tile, element `j` of every pencil is the run `j·W..(j+1)·W`, so
//! the same stage is exactly stage `(r, m·W)` of the `n·W` array with each
//! twiddle repeated `W` times ([`simd::stage_tables`]). The stage kernels in
//! [`crate::simd`] run it unchanged; every `m·W` is a multiple of the vector
//! width, so the first (`m = 1`) stage is an ordinary full-width stage too
//! and there is no lane shuffle anywhere.
//!
//! **The permutation is an addressing order.** The stages are
//! decimation-in-time: they want their input digit-reversed. Rows are loaded
//! one at a time anyway, so element `t` is simply loaded into row
//! [`TileFft::load_rows`]`[t]`; the output comes out in natural row order.
//!
//! **Tails.** A tile with fewer than `W` live pencils is padded with zero
//! lanes and runs the same full-width kernels; only the live lanes are
//! stored. Lanes never mix, so a pencil's bits do not depend on its lane,
//! its tile, the batch size or the thread count.
//!
//! **Other lengths** fall back inside [`TileFft::process`]: each lane is
//! copied out, transformed by the planner's plan and copied back, the way
//! Bluestein hides inside [`FftPlanner`].
//!
//! **Prefetch.** A z-stage tile reads `k` slab rows and writes one row per
//! retained plane, each in a different page and together more streams than
//! the hardware prefetchers follow. Each tile therefore asks for the next
//! tile's slab rows and its own destination lines ([`prefetch`]) before it
//! computes, and the transforms hide their latency.
//!
//! **Memory.** Nothing here leases a workspace except the per-participant
//! lease of [`ZStage::run`]'s dispatch: tile scratch is carved out of a
//! lease the caller already holds, and the `W`-times-replicated twiddle
//! tables are shared process-wide per `(n, direction)`, not per plan.

// lcc-lint: hot-path — tile transforms and the z-stage driver; only
// plan-time tables may allocate.

use std::collections::BTreeMap;
use std::sync::Arc;

use lcc_obs::metrics::{self, Stopwatch};
use parking_lot::RwLock;
use rayon::prelude::*;

use crate::batch::SendPtr;
use crate::complex::{c64, Complex64};
use crate::planner::{FftPlan, FftPlanner};
use crate::pruned::PrunedInputFft;
use crate::simd::{self, Stage, Variant};
use crate::workspace::{workspace, WorkspaceGuard};
use crate::FftDirection;

/// Pencils per tile. One choice for all sizes: two cache lines of a slab row
/// per load, and at `n = 128` a 16 KiB tile beside 16 KiB of twiddles in a
/// 48 KiB L1d.
pub const W: usize = 8;

/// One tile row: element `t` of each of the `W` pencils.
pub type Row = [f64; W];

/// Views `flat` (a multiple of `W` long) as tile rows.
pub fn rows_mut(flat: &mut [f64]) -> &mut [Row] {
    let (rows, rest) = flat.as_chunks_mut();
    debug_assert!(rest.is_empty());
    rows
}

/// Splits the first `rows` tile rows off the front of `rest`.
pub fn carve<'a>(rest: &mut &'a mut [f64], rows: usize) -> &'a mut [Row] {
    let (head, tail) = std::mem::take(rest).split_at_mut(rows * W);
    *rest = tail;
    rows_mut(head)
}

/// Loads `src` (at most `W` adjacent pencils' element) into one tile row,
/// zeroing the padding lanes.
#[inline]
pub fn load_row(src: &[Complex64], re: &mut Row, im: &mut Row) {
    *re = [0.0; W];
    *im = [0.0; W];
    for ((v, r), i) in src.iter().zip(re).zip(im) {
        *r = v.re;
        *i = v.im;
    }
}

/// Stores the first `dst.len()` lanes of one tile row.
#[inline]
pub fn store_row(re: &Row, im: &Row, dst: &mut [Complex64]) {
    for ((v, &r), &i) in dst.iter_mut().zip(re).zip(im) {
        *v = c64(r, i);
    }
}

/// Hints the cache to start fetching the lines under `run` — to be written
/// when `write` — so that a tile's strided row loads and scattered row
/// stores find their lines in cache instead of each waiting for memory. A
/// hint only: it changes no value.
#[inline]
pub fn prefetch(run: &[Complex64], write: bool) {
    prefetch_raw(run.as_ptr(), run.len(), write);
}

/// [`prefetch`] by address, for runs reached through a raw pointer.
#[inline]
fn prefetch_raw(start: *const Complex64, len: usize, write: bool) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_ET0, _MM_HINT_T0};
        let base = start.cast::<i8>();
        let (head, bytes) = (base as usize % 64, len * std::mem::size_of::<Complex64>());
        for off in (0..head + bytes).step_by(64) {
            let line = base.wrapping_add(off).wrapping_sub(head);
            // SAFETY: a prefetch is a hint the CPU may drop; it cannot fault
            // and reads or writes no memory, whatever the address.
            unsafe {
                if write {
                    _mm_prefetch::<_MM_HINT_ET0>(line);
                } else {
                    _mm_prefetch::<_MM_HINT_T0>(line);
                }
            }
        }
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = (start, len, write);
}

/// Row order and lane-replicated stage tables of one `(n, direction)`.
struct LaneTables {
    /// `load_rows[t]`: the tile row input element `t` is loaded into — the
    /// inverse of the schedule's digit reversal, or the identity for the
    /// lengths that have no stage schedule.
    load_rows: Vec<u32>,
    /// Empty for `n = 1` and for the per-lane fallback lengths.
    stages: Vec<Stage>,
}

impl LaneTables {
    fn build(n: usize, direction: FftDirection) -> Self {
        if !n.is_power_of_two() {
            return LaneTables {
                // lcc-lint: allow(alloc) — plan-time table.
                load_rows: (0..n as u32).collect(),
                stages: Vec::new(), // lcc-lint: allow(alloc) — no stages
            };
        }
        let radices = simd::plan_radices(n);
        // lcc-lint: allow(alloc) — plan-time table, built once per (n, direction).
        let mut load_rows = vec![0u32; n];
        for (row, &t) in simd::digit_reversal(n, &radices).iter().enumerate() {
            load_rows[t as usize] = row as u32;
        }
        LaneTables {
            load_rows,
            stages: simd::stage_tables(n, direction, &radices, 0, W),
        }
    }
}

/// Process-wide table cache: a service holds many convolvers, each with its
/// own planner, and the tables depend on nothing but `(n, is_forward)`.
static TABLES: RwLock<BTreeMap<(usize, bool), Arc<LaneTables>>> = RwLock::new(BTreeMap::new());

fn lane_tables(n: usize, direction: FftDirection) -> Arc<LaneTables> {
    let key = (n, matches!(direction, FftDirection::Forward));
    if let Some(t) = TABLES.read().get(&key) {
        return t.clone();
    }
    // Built under the write lock, so racing planners share one table.
    TABLES
        .write()
        .entry(key)
        .or_insert_with(|| Arc::new(LaneTables::build(n, direction)))
        .clone()
}

/// A planned `n`-point transform of `W` pencils at once.
pub struct TileFft {
    n: usize,
    direction: FftDirection,
    variant: Variant,
    tables: Arc<LaneTables>,
    /// The planner's plan, run one lane at a time, for the lengths that are
    /// not a power of two.
    per_lane: Option<FftPlan>,
}

impl TileFft {
    /// Plans the tile transform; kernels follow `planner`'s variant.
    pub fn new(planner: &FftPlanner, n: usize, direction: FftDirection) -> Self {
        assert!(n >= 1, "cannot plan a zero-length FFT");
        let variant = planner.simd_variant().unwrap_or_else(simd::variant);
        TileFft {
            n,
            direction,
            // Forcing a variant the host lacks degrades to scalar, as for
            // single-pencil plans.
            variant: variant.or_scalar(),
            tables: lane_tables(n, direction),
            per_lane: (!n.is_power_of_two()).then(|| planner.plan(n, direction)),
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never: a plan has `n ≥ 1`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `load_rows()[t]` is the tile row input element `t` must be loaded
    /// into before [`Self::process`]. Outputs are in natural row order.
    pub fn load_rows(&self) -> &[u32] {
        &self.tables.load_rows
    }

    /// Length of the scratch [`Self::process`] needs: none for
    /// power-of-two lengths, one pencil for the per-lane fallback.
    pub fn scratch_len(&self) -> usize {
        if self.per_lane.is_some() {
            self.n
        } else {
            0
        }
    }

    /// Transforms the tile in place: `n` rows in [`Self::load_rows`] order
    /// in, natural order out. `scratch` has length [`Self::scratch_len`];
    /// its contents are clobbered.
    pub fn process(&self, re: &mut [Row], im: &mut [Row], scratch: &mut [Complex64]) {
        // The vector kernels index by these lengths without bounds checks.
        assert!(
            re.len() == self.n && im.len() == self.n,
            "tile must have n rows"
        );
        assert_eq!(scratch.len(), self.scratch_len(), "scratch length");
        if let Some(plan) = &self.per_lane {
            for lane in 0..W {
                for (s, (r, i)) in scratch.iter_mut().zip(re.iter().zip(im.iter())) {
                    *s = c64(r[lane], i[lane]);
                }
                plan.process(scratch);
                for (s, (r, i)) in scratch.iter().zip(re.iter_mut().zip(im.iter_mut())) {
                    r[lane] = s.re;
                    i[lane] = s.im;
                }
            }
            return;
        }
        let (re, im) = (re.as_flattened_mut(), im.as_flattened_mut());
        for st in &self.tables.stages {
            simd::run_stage(self.variant, self.direction, st, re, im);
        }
    }
}

/// What [`ZStage::run`]'s pointwise step sees of one tile: the spectra of
/// pencils `q0..q0 + live` of every component, between the forward and the
/// inverse transform.
pub struct ZTile<'a> {
    /// First pencil of the tile.
    pub q0: usize,
    /// Live lanes; lanes `live..W` are zero and are never stored.
    pub live: usize,
    /// `rows[fz]`: the tile row holding bin `fz`.
    pub rows: &'a [u32],
    /// Real parts, component `c` in rows `c·n..(c + 1)·n`.
    pub re: &'a mut [Row],
    /// Imaginary parts, same layout.
    pub im: &'a mut [Row],
    /// The complex scratch the step asked for (contents unspecified).
    pub cbuf: &'a mut [Complex64],
    /// The real scratch the step asked for (contents unspecified).
    pub rbuf: &'a mut [f64],
}

/// The pipeline's z stage over tiles of adjacent pencils: load `k` slab rows
/// → pruned forward `k → n` → pointwise step → inverse → store the retained
/// rows. Scalar and tensor pipelines differ only in the pointwise step.
///
/// The sub-domain sits at the origin of its slab; its true z position
/// `shift` is a circular shift of the inverse's output, so plane `z` is
/// stored from inverse row `(z − shift) mod n` and no phase is applied.
pub struct ZStage<'a, P> {
    /// Pruned forward transform along z, `k → n`.
    pub forward: &'a PrunedInputFft,
    /// Dense inverse along z, length `n`.
    pub inverse: &'a TileFft,
    /// The z planes to keep, each `< n`, in the order they are stored
    /// (cloned and walked once per tile).
    pub retained: P,
    /// The sub-domain's z corner, `< n`.
    pub shift: usize,
    /// Pencils per parallel dispatch (the paper's `B`), rounded up to whole
    /// tiles.
    pub batch: usize,
}

impl<P: Iterator<Item = usize> + Clone + Sync> ZStage<'_, P> {
    /// Runs the stage over `C` components. `slabs[c]` is `k` planes of
    /// `pencils` adjacent pencils each, `kept[c]` receives one such plane
    /// per retained z, every element overwritten.
    ///
    /// `pointwise` gets each tile with the `scratch = (complex, real)`
    /// lengths of scratch it asked for, carved from the dispatch's own
    /// workspace lease. With an `lcc_obs` session collecting, the four
    /// phases of every tile are timed into the `pipeline.stage2_*_ns`
    /// counters.
    pub fn run<const C: usize>(
        &self,
        slabs: [&[Complex64]; C],
        kept: [&mut [Complex64]; C],
        scratch: (usize, usize),
        pointwise: impl Fn(ZTile<'_>) + Sync,
    ) {
        let (fwd, inv) = (self.forward, self.inverse);
        let (n, k, nzr) = (fwd.len(), fwd.support(), self.retained.clone().count());
        assert_eq!(inv.len(), n, "forward and inverse lengths differ");
        assert!(self.batch >= 1, "batch must be at least 1");
        assert!(
            self.retained.clone().all(|z| z < n) && self.shift < n,
            "retained plane or shift out of range"
        );
        let Some(first) = slabs.first() else { return };
        let pencils = first.len() / k;
        // The stores below index `kept` by these lengths through raw pointers.
        for (slab, out) in slabs.iter().zip(&kept) {
            assert_eq!(slab.len(), k * pencils, "slab must be k planes");
            assert_eq!(
                out.len(),
                nzr * pencils,
                "kept must be one plane per retained z"
            );
        }
        let rows = inv.load_rows();
        let lane_len = fwd.tile_scratch_len().max(inv.scratch_len());
        let real_len = (2 * C * n + 4 * k) * W + scratch.1;
        let ptrs = kept.map(|out| SendPtr(out.as_mut_ptr()));
        crate::detector::begin_epoch();

        let tile = |ws: &mut WorkspaceGuard, ti: usize| {
            let q0 = ti * W;
            let live = W.min(pencils - q0);
            let _claims = ptrs.map(|p| {
                crate::detector::register_wide(p.0 as usize, q0, pencils, nzr, live, "z-stage tile")
            });
            let mut clock = Stopwatch::start();
            // The next tile's slab rows, and the lines this tile stores
            // into, arrive while it computes.
            if q0 + W < pencils {
                let next = W.min(pencils - q0 - W);
                for slab in &slabs {
                    for zloc in 0..k {
                        prefetch(&slab[zloc * pencils + q0 + W..][..next], false);
                    }
                }
            }
            for p in &ptrs {
                for zi in 0..nzr {
                    prefetch_raw(p.0.wrapping_add(zi * pencils + q0), live, true);
                }
            }
            // Every buffer is fully written before it is read: the input
            // rows by the loads below, `sub` and the tiles by the pruned
            // transform.
            let ([lane, cbuf], mut real) = ws.split([lane_len, scratch.0], real_len);
            let real = &mut real;
            let (re, im) = (carve(real, C * n), carve(real, C * n));
            let (xre, xim) = (carve(real, k), carve(real, k));
            let (sre, sim) = (carve(real, k), carve(real, k));
            for (c, slab) in slabs.iter().enumerate() {
                for (zloc, (xr, xi)) in xre.iter_mut().zip(xim.iter_mut()).enumerate() {
                    load_row(&slab[zloc * pencils + q0..][..live], xr, xi);
                }
                fwd.process_tile(
                    (&*xre, &*xim),
                    (&mut re[c * n..(c + 1) * n], &mut im[c * n..(c + 1) * n]),
                    (&mut *sre, &mut *sim),
                    &mut lane[..fwd.tile_scratch_len()],
                    |fz| rows[fz] as usize,
                );
            }
            clock.lap(&metrics::PIPELINE_STAGE2_LOAD_NS);
            pointwise(ZTile {
                q0,
                live,
                rows,
                re: &mut *re,
                im: &mut *im,
                cbuf,
                rbuf: std::mem::take(real),
            });
            clock.lap(&metrics::PIPELINE_STAGE2_POINTWISE_NS);
            for (c, p) in ptrs.iter().enumerate() {
                let (re, im) = (&mut re[c * n..(c + 1) * n], &mut im[c * n..(c + 1) * n]);
                inv.process(re, im, &mut lane[..inv.scratch_len()]);
                clock.lap(&metrics::PIPELINE_STAGE2_INVERSE_NS);
                for (zi, z) in self.retained.clone().enumerate() {
                    let src = if z >= self.shift {
                        z - self.shift
                    } else {
                        z + n - self.shift
                    };
                    // SAFETY: `kept[c]` has `nzr · pencils` elements (asserted
                    // above) and `q0 + live ≤ pencils`, so the run is in
                    // bounds; tile `ti` is the only task touching columns
                    // `q0..q0 + live` of any plane, and the tiles of one
                    // dispatch are distinct.
                    let dst =
                        unsafe { std::slice::from_raw_parts_mut(p.0.add(zi * pencils + q0), live) };
                    store_row(&re[src], &im[src], dst);
                }
                clock.lap(&metrics::PIPELINE_STAGE2_STORE_NS);
            }
        };

        let tiles = pencils.div_ceil(W);
        let per_dispatch = self.batch.div_ceil(W);
        let mut t0 = 0;
        while t0 < tiles {
            let t1 = tiles.min(t0 + per_dispatch);
            (t0..t1).into_par_iter().for_each_init(workspace, tile);
            t0 = t1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft;

    fn pencil(n: usize, seed: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| {
                c64(
                    ((i + 3 * seed) as f64 * 0.7).sin(),
                    (i as f64 * 0.3 + seed as f64).cos(),
                )
            })
            .collect()
    }

    fn run_tile(plan: &TileFft, lanes: &[Vec<Complex64>]) -> Vec<Vec<Complex64>> {
        let n = plan.len();
        let (mut re, mut im) = (vec![[0.0; W]; n], vec![[0.0; W]; n]);
        for t in 0..n {
            let src: Vec<Complex64> = lanes.iter().map(|p| p[t]).collect();
            let row = plan.load_rows()[t] as usize;
            load_row(&src, &mut re[row], &mut im[row]);
        }
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        plan.process(&mut re, &mut im, &mut scratch);
        (0..lanes.len())
            .map(|l| (0..n).map(|t| c64(re[t][l], im[t][l])).collect())
            .collect()
    }

    #[test]
    fn tile_matches_dft_per_lane() {
        let planner = FftPlanner::new();
        for n in [1usize, 2, 4, 8, 16, 32, 64, 128, 6, 12, 15] {
            for dir in [FftDirection::Forward, FftDirection::Inverse] {
                let plan = TileFft::new(&planner, n, dir);
                let lanes: Vec<_> = (0..W).map(|l| pencil(n, l)).collect();
                for (got, x) in run_tile(&plan, &lanes).iter().zip(&lanes) {
                    for (a, b) in got.iter().zip(&dft(x, dir)) {
                        assert!((*a - *b).norm() < 1e-9 * n as f64, "n={n} {dir:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn tables_are_shared_between_planners() {
        let a = TileFft::new(&FftPlanner::new(), 64, FftDirection::Inverse);
        let b = TileFft::new(&FftPlanner::new(), 64, FftDirection::Inverse);
        assert!(Arc::ptr_eq(&a.tables, &b.tables));
    }

    #[test]
    fn load_rows_invert_the_digit_reversal() {
        for n in [2usize, 16, 32, 128, 256] {
            let plan = TileFft::new(&FftPlanner::new(), n, FftDirection::Forward);
            let perm = simd::digit_reversal(n, &simd::plan_radices(n));
            for (row, &t) in perm.iter().enumerate() {
                assert_eq!(plan.load_rows()[t as usize] as usize, row, "n={n}");
            }
        }
    }
}
