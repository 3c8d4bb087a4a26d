//! Batched, strided pencil transforms over 3D row-major buffers.
//!
//! A 3D array of shape `(n0, n1, n2)` stored row-major (axis 2 contiguous)
//! is transformed one axis at a time as a *batch of 1D pencils*. This is the
//! exact structure the paper's pipeline needs: the slab stage is a batch of
//! x/y transforms, the pencil stage a batch of z transforms processed `B`
//! pencils at a time.
//!
//! Pencils along axis 2 are contiguous and transformed in place, one plan
//! call per row. Pencils along axis 0 or 1 are strided, but *adjacent*
//! pencils are contiguous in memory: they are transformed [`W`] at a time as
//! a [`crate::tile`] — each strided step loads one `W`-element run into a
//! row of split-layout scratch carved from the dispatch's workspace lease,
//! the butterflies run across the lanes, and the rows are stored back. There
//! is no gather into contiguous pencils and no transpose. Work is
//! distributed with rayon; pencil base offsets are *generated* from the axis
//! geometry, keeping the hot path allocation-free.

// lcc-lint: hot-path — per-pencil dispatch; warm-path allocations are banned.

use rayon::prelude::*;

use crate::complex::Complex64;
use crate::planner::FftPlanner;
use crate::tile::{carve, load_row, store_row, TileFft, W};
use crate::workspace::workspace;
use crate::FftDirection;

/// Shape of a row-major 3D buffer.
pub type Dims3 = (usize, usize, usize);

/// Raw pointer wrapper that lets disjoint pencil tasks share the buffer.
///
/// # Disjointness invariant (the entire aliasing argument)
///
/// Pencil `p` with base offset `off(p)` touches exactly the index set
/// `{off(p) + t·stride : 0 ≤ t < len}`. Tasks running on different threads
/// hold `&mut` views derived from this pointer **only** into their own
/// pencils' index sets, so the views are disjoint iff the index sets are:
/// distinct bases from a [`PencilSet`] differ in a coordinate orthogonal to
/// the stride axis, so their strided sets never meet, and a tile task owns
/// the `≤ W` adjacent pencils of its tile and no other.
///
/// Debug builds additionally verify the invariant for every call via
/// [`assert_disjoint`]: two same-stride pencils intersect iff their bases
/// are congruent mod `stride` and closer than `len·stride`.
#[derive(Clone, Copy)]
pub(crate) struct SendPtr(pub(crate) *mut Complex64);
// SAFETY: see the disjointness invariant above; the pointer itself is just
// an address, sending it between threads is safe as long as accesses stay
// disjoint, which the offset construction guarantees (and debug builds
// check).
unsafe impl Send for SendPtr {}
// SAFETY: same disjointness argument as `Send` above.
unsafe impl Sync for SendPtr {}

/// Pencil base offsets described by their generator — a lexicographic grid
/// over `(outer, inner)` coordinates,
/// `offset(o·inner + i) = o·outer_step + i·inner_step` — rather than a
/// materialized list, so no per-call offsets `Vec` sits on the hot path.
struct PencilSet {
    outer: usize,
    outer_step: usize,
    inner: usize,
    inner_step: usize,
}

impl PencilSet {
    fn count(&self) -> usize {
        self.outer * self.inner
    }

    #[inline]
    fn offset(&self, i: usize) -> usize {
        (i / self.inner) * self.outer_step + (i % self.inner) * self.inner_step
    }
}

/// Debug-build verification of the [`SendPtr`] disjointness invariant:
/// same-stride pencils `{a + t·s}` and `{b + t·s}` (`0 ≤ t < len`) intersect
/// iff `a ≡ b (mod s)` and `|a − b| < len·s`, so sorting by `(residue, base)`
/// reduces the check to adjacent pairs.
#[cfg(debug_assertions)]
fn assert_disjoint(set: &PencilSet, stride: usize, len: usize) {
    let stride = stride.max(1);
    let mut offs: Vec<usize> = (0..set.count()).map(|i| set.offset(i)).collect();
    offs.sort_unstable_by_key(|&o| (o % stride, o));
    for w in offs.windows(2) {
        let (a, b) = (w[0], w[1]);
        assert!(
            a % stride != b % stride || b - a >= len * stride,
            "overlapping pencils: bases {a} and {b} alias (stride {stride}, len {len})"
        );
    }
}

/// Checks `dims` describes `data` exactly.
fn check_dims(data: &[Complex64], dims: Dims3) {
    assert_eq!(
        data.len(),
        dims.0 * dims.1 * dims.2,
        "buffer length {} does not match dims {:?}",
        data.len(),
        dims
    );
}

/// Transforms every pencil along `axis` of the row-major `data`.
pub fn fft_axis(
    planner: &FftPlanner,
    data: &mut [Complex64],
    dims: Dims3,
    axis: usize,
    direction: FftDirection,
) {
    check_dims(data, dims);
    let (n0, n1, n2) = dims;
    let (len, stride, set) = match axis {
        0 => (
            n0,
            n1 * n2,
            PencilSet {
                outer: 1,
                outer_step: 0,
                inner: n1 * n2,
                inner_step: 1,
            },
        ),
        1 => (
            n1,
            n2,
            PencilSet {
                outer: n0,
                outer_step: n1 * n2,
                inner: n2,
                inner_step: 1,
            },
        ),
        2 => (
            n2,
            1,
            PencilSet {
                outer: n0,
                outer_step: n1 * n2,
                inner: n1,
                inner_step: n2,
            },
        ),
        _ => panic!("axis must be 0, 1 or 2, got {axis}"),
    };
    if len == 0 || set.count() == 0 {
        return;
    }
    process_pencils(planner, data, &set, stride, len, direction);
}

/// Transforms the disjoint pencils of `set` (common `stride` and `len`) in
/// parallel: contiguous pencils (`stride == 1`) in place, strided ones —
/// which must be runs of adjacent pencils, `inner_step == 1` — by tiles.
fn process_pencils(
    planner: &FftPlanner,
    data: &mut [Complex64],
    set: &PencilSet,
    stride: usize,
    len: usize,
    direction: FftDirection,
) {
    let count = set.count();
    if count == 0 {
        return;
    }
    // Bounds check up front so the unsafe below cannot go out of range.
    let max_needed = (0..count)
        .map(|i| set.offset(i) + (len - 1) * stride)
        .max()
        .unwrap_or(0);
    assert!(max_needed < data.len(), "pencil exceeds buffer bounds");
    #[cfg(debug_assertions)]
    assert_disjoint(set, stride, len);
    // Debug/analysis builds additionally tag every dispatched pencil range
    // in the global detector registry, so overlap between *concurrently
    // live* items (including across independent dispatches racing on the
    // same buffer) panics with both call sites. No-op in plain release.
    crate::detector::begin_epoch();

    let ptr = SendPtr(data.as_mut_ptr());
    if stride == 1 {
        // Contiguous pencils: transform in place, one plan call per row.
        let plan = planner.plan(len, direction);
        (0..count).into_par_iter().for_each(|i| {
            // Copy the Sync wrapper, not the bare `*mut` field, so the
            // closure stays shareable across pool threads.
            let p = ptr;
            let off = set.offset(i);
            let _claim = crate::detector::register(p.0 as usize, off, 1, len, "contiguous pencil");
            // SAFETY: bases are distinct pencil starts; contiguous ranges
            // [off, off+len) are disjoint across tasks and in bounds.
            let pencil = unsafe { std::slice::from_raw_parts_mut(p.0.add(off), len) };
            plan.process(pencil);
        });
        return;
    }
    // Runs of *adjacent* strided pencils (the axis-0/axis-1 geometry): a
    // task takes `W` neighbors as one tile. `inner ≤ stride` makes the
    // tile's index map `(t, u) → off + t·stride + u` injective and keeps
    // tiles of distinct rows disjoint; both guard the raw accesses below.
    let PencilSet {
        outer_step, inner, ..
    } = *set;
    assert!(
        set.inner_step == 1 && inner <= stride,
        "strided pencils must be runs of adjacent pencils"
    );
    let tile = TileFft::new(planner, len, direction);
    let load_rows = tile.load_rows();
    let tiles_per_row = inner.div_ceil(W);
    (0..set.outer * tiles_per_row)
        .into_par_iter()
        .for_each_init(workspace, |ws, ti| {
            let p = ptr;
            let i0 = (ti % tiles_per_row) * W;
            let live = W.min(inner - i0);
            let off = (ti / tiles_per_row) * outer_step + i0;
            let _claim =
                crate::detector::register_wide(p.0 as usize, off, stride, len, live, "pencil tile");
            // Every row of the tile is written by a load before the
            // transform reads it.
            let ([scratch], mut real) = ws.split([tile.scratch_len()], 2 * len * W);
            let (re, im) = (carve(&mut real, len), carve(&mut real, len));
            for (t, &row) in load_rows.iter().enumerate() {
                // SAFETY: tiles of the same row cover disjoint base
                // intervals, tiles of different rows are `outer_step` apart,
                // and every index is at most `max_needed`, checked above; so
                // each `live`-element run belongs to this task alone and is
                // in bounds.
                let src = unsafe { std::slice::from_raw_parts(p.0.add(off + t * stride), live) };
                load_row(src, &mut re[row as usize], &mut im[row as usize]);
            }
            tile.process(re, im, scratch);
            for (t, (r, i)) in re.iter().zip(im.iter()).enumerate() {
                // SAFETY: as above.
                let dst =
                    unsafe { std::slice::from_raw_parts_mut(p.0.add(off + t * stride), live) };
                store_row(r, i, dst);
            }
        });
}

/// Applies a scalar multiply to the whole buffer (e.g. inverse normalization).
pub fn scale_in_place(data: &mut [Complex64], s: f64) {
    data.par_iter_mut().for_each(|v| *v *= s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::dft::dft;

    fn fill(dims: Dims3) -> Vec<Complex64> {
        let (n0, n1, n2) = dims;
        (0..n0 * n1 * n2)
            .map(|i| c64((i as f64 * 0.17).sin(), (i as f64 * 0.05).cos()))
            .collect()
    }

    fn reference_axis(
        data: &[Complex64],
        dims: Dims3,
        axis: usize,
        dir: FftDirection,
    ) -> Vec<Complex64> {
        let (n0, n1, n2) = dims;
        let mut out = data.to_vec();
        let idx = |i0: usize, i1: usize, i2: usize| i0 * n1 * n2 + i1 * n2 + i2;
        match axis {
            0 => {
                for i1 in 0..n1 {
                    for i2 in 0..n2 {
                        let pencil: Vec<Complex64> =
                            (0..n0).map(|i0| data[idx(i0, i1, i2)]).collect();
                        let t = dft(&pencil, dir);
                        for i0 in 0..n0 {
                            out[idx(i0, i1, i2)] = t[i0];
                        }
                    }
                }
            }
            1 => {
                for i0 in 0..n0 {
                    for i2 in 0..n2 {
                        let pencil: Vec<Complex64> =
                            (0..n1).map(|i1| data[idx(i0, i1, i2)]).collect();
                        let t = dft(&pencil, dir);
                        for i1 in 0..n1 {
                            out[idx(i0, i1, i2)] = t[i1];
                        }
                    }
                }
            }
            2 => {
                for i0 in 0..n0 {
                    for i1 in 0..n1 {
                        let pencil: Vec<Complex64> =
                            (0..n2).map(|i2| data[idx(i0, i1, i2)]).collect();
                        let t = dft(&pencil, dir);
                        for i2 in 0..n2 {
                            out[idx(i0, i1, i2)] = t[i2];
                        }
                    }
                }
            }
            _ => unreachable!(),
        }
        out
    }

    #[test]
    fn each_axis_matches_reference() {
        let planner = FftPlanner::new();
        let dims = (4, 6, 8);
        for axis in 0..3 {
            let mut data = fill(dims);
            let expect = reference_axis(&data, dims, axis, FftDirection::Forward);
            fft_axis(&planner, &mut data, dims, axis, FftDirection::Forward);
            for (a, b) in data.iter().zip(&expect) {
                assert!((*a - *b).norm() < 1e-8, "axis={axis}");
            }
        }
    }

    #[test]
    fn axes_commute() {
        let planner = FftPlanner::new();
        let dims = (4, 4, 4);
        let base = fill(dims);
        let mut ab = base.clone();
        fft_axis(&planner, &mut ab, dims, 0, FftDirection::Forward);
        fft_axis(&planner, &mut ab, dims, 2, FftDirection::Forward);
        let mut ba = base.clone();
        fft_axis(&planner, &mut ba, dims, 2, FftDirection::Forward);
        fft_axis(&planner, &mut ba, dims, 0, FftDirection::Forward);
        for (a, b) in ab.iter().zip(&ba) {
            assert!((*a - *b).norm() < 1e-8);
        }
    }

    #[test]
    fn roundtrip_all_axes() {
        let planner = FftPlanner::new();
        let dims = (4, 8, 2);
        let base = fill(dims);
        let mut data = base.clone();
        for axis in 0..3 {
            fft_axis(&planner, &mut data, dims, axis, FftDirection::Forward);
        }
        for axis in 0..3 {
            fft_axis(&planner, &mut data, dims, axis, FftDirection::Inverse);
        }
        let n = (4 * 8 * 2) as f64;
        for (a, b) in base.iter().zip(&data) {
            assert!((*a * n - *b).norm() < 1e-7);
        }
    }

    #[test]
    #[should_panic(expected = "does not match dims")]
    fn wrong_dims_rejected() {
        let planner = FftPlanner::new();
        let mut data = fill((2, 2, 2));
        fft_axis(&planner, &mut data, (2, 2, 3), 0, FftDirection::Forward);
    }

    #[test]
    fn parallel_pencils_bit_identical_to_sequential_stress() {
        // Exercises the SendPtr disjointness argument under whatever pool
        // the environment configures (CI runs this with LCC_THREADS=4):
        // repeated full-axis sweeps must be bit-identical to the forced
        // sequential execution of the same calls.
        let planner = FftPlanner::new();
        let dims = (24, 16, 10);
        for _rep in 0..8 {
            let base = fill(dims);
            let mut par = base.clone();
            for axis in 0..3 {
                fft_axis(&planner, &mut par, dims, axis, FftDirection::Forward);
            }
            let mut seq = base.clone();
            rayon::run_sequential(|| {
                for axis in 0..3 {
                    fft_axis(&planner, &mut seq, dims, axis, FftDirection::Forward);
                }
            });
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "overlapping pencils")]
    fn overlapping_pencils_caught_in_debug() {
        let planner = FftPlanner::new();
        let mut data = fill((1, 1, 8));
        // Bases 0 and 2 with len 4, stride 1: ranges [0,4) and [2,6) alias.
        let set = PencilSet {
            outer: 2,
            outer_step: 2,
            inner: 1,
            inner_step: 1,
        };
        process_pencils(&planner, &mut data, &set, 1, 4, FftDirection::Forward);
    }

    /// The runtime detector's view of the same bug class: materialize the
    /// claims a deliberately overlapping [`PencilSet`] would make if its
    /// items ran concurrently. Unlike `overlapping_pencils_caught_in_debug`
    /// this also runs in optimized builds with `--features analysis`,
    /// where `assert_disjoint` is compiled out.
    #[cfg(any(debug_assertions, feature = "analysis"))]
    #[test]
    #[should_panic(expected = "overlapping pencils")]
    fn detector_catches_overlapping_pencil_set() {
        // Stride 4, len 2: bases {0, 4} give index sets {0,4} and {4,8},
        // which share index 4.
        let set = PencilSet {
            outer: 2,
            outer_step: 4,
            inner: 1,
            inner_step: 1,
        };
        crate::detector::begin_epoch();
        let buf = 0xF00D0000usize;
        let _claims: Vec<_> = (0..set.count())
            .map(|i| crate::detector::register(buf, set.offset(i), 4, 2, "test pencil"))
            .collect();
    }

    #[test]
    fn tiled_path_with_partial_tail_tile_matches_reference() {
        // Axis 0 of (512, 3, 9): len 512, inner = stride = 27, so each row
        // is three full tiles and a tail tile of 3 live lanes.
        let planner = FftPlanner::new();
        let dims = (512, 3, 9);
        let mut data = fill(dims);
        let expect = reference_axis(&data, dims, 0, FftDirection::Forward);
        fft_axis(&planner, &mut data, dims, 0, FftDirection::Forward);
        for (a, b) in data.iter().zip(&expect) {
            assert!((*a - *b).norm() < 1e-6);
        }
    }

    #[test]
    fn scale_in_place_scales() {
        let mut data = vec![c64(2.0, -4.0); 16];
        scale_in_place(&mut data, 0.5);
        for v in data {
            assert_eq!(v, c64(1.0, -2.0));
        }
    }
}
