//! The separable streaming reconstruction kernel.
//!
//! Trilinear interpolation inside one octree cell factors by axis: lerp the
//! sample lattice along z, lerp those results along y, lerp those along x.
//! Evaluated point by point that is eight gathers and three index divisions
//! per output value. Evaluated a cell at a time it is three streaming passes:
//!
//! 1. one lattice index/fraction table for the cell — a cell is a cube with
//!    one rate, so the three axes share it;
//! 2. the z-lerp of every touched sample row, once, for the two lattice
//!    x-planes that bracket the current output x-plane (the pair slides with
//!    x, so each lattice plane is expanded once per cell);
//! 3. per output row, the y-lerp and x-lerp of four expanded rows, fused,
//!    as one contiguous z-run added straight into the output slice.
//!
//! Every output value is the expression the per-point form evaluates, with
//! the same operands in the same order (z, then y, then x, then
//! `out += scale * v`), so the result is bit-identical to it; the
//! per-point form survives as the test oracle in `field.rs`.
//!
//! Scratch is per thread and only grows: the table holds `size` entries and
//! the two expanded planes `2 · rows · run` doubles, 8 KiB for a 32³
//! rate-2 cell, so a warm call allocates nothing.
//!
//! # Rate-1 cells
//!
//! A cell of rate 1 samples every point it covers: its samples are its
//! values, and every fraction of the lerps above is 0 (1 at the
//! extrapolated last interval, which reads the next sample back). So it
//! skips all three passes and adds each z-run of samples straight into the
//! output, `o += scale · sample`, with no table, no expanded planes and no
//! lerp. That is the per-point form's value with its zero-weighted terms
//! dropped, so the two agree bit for bit whenever the samples are finite
//! and none is `-0.0` (a zero-weighted `+0.0` addend turns `-0.0` into
//! `+0.0`; a zero-weighted infinity turns anything into NaN). In a fold,
//! rate-1 cells are added field by field; only coarser cells are summed in
//! sample space first ([`crate::CellSums`]).

// lcc-lint: hot-path — per-cell interpolation; only scratch growth may allocate.

use std::cell::RefCell;

use lcc_grid::BoxRegion;

use crate::plan::OctCell;

/// Reusable buffers of the kernel, one set per thread.
#[derive(Default)]
struct Scratch {
    /// `(size, rate)` of the cell the table below was last built for; cells
    /// of one shape come in long runs and share it.
    table_of: (usize, u32),
    /// Lower lattice index of local coordinate `l`.
    idx: Vec<usize>,
    /// Interpolation fraction of local coordinate `l` above `idx[l]`.
    frac: Vec<f64>,
    /// Two z-expanded lattice x-planes, back to back.
    planes: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` with this thread's scratch.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Adds `scale ×` the reconstruction of every cell of `cells` that `keep`
/// accepts and that meets `region` into `out`, the region's row-major
/// buffer, in the cells' order. Cell `i`'s samples are
/// `samples[offset(i)..offset(i + 1)]`.
pub(crate) fn add_cells(
    cells: &[OctCell],
    samples: &[f64],
    offset: impl Fn(usize) -> usize,
    keep: impl Fn(&OctCell) -> bool,
    region: &BoxRegion,
    out: &mut [f64],
    scale: f64,
) {
    with_scratch(|scratch| {
        for (i, cell) in cells.iter().enumerate() {
            // Nearly every cell misses a thin x-slab; reject on x alone.
            if cell.corner[0] >= region.hi[0] || cell.corner[0] + cell.size <= region.lo[0] {
                continue;
            }
            if !keep(cell) {
                continue;
            }
            if let Some(overlap) = cell.region().intersect(region) {
                let cell_samples = &samples[offset(i)..offset(i + 1)];
                if cell.rate == 1 {
                    add_rate1_cell(cell, cell_samples, &overlap, region, out, scale);
                } else {
                    add_cell(scratch, cell, cell_samples, &overlap, region, out, scale);
                }
            }
        }
    });
}

/// [`add_cell`] for a cell of rate 1, whose samples are its values: adds
/// its z-runs as they are (module doc, "Rate-1 cells").
#[inline]
fn add_rate1_cell(
    cell: &OctCell,
    samples: &[f64],
    overlap: &BoxRegion,
    region: &BoxRegion,
    out: &mut [f64],
    scale: f64,
) {
    let (s, (_, sy, sz)) = (cell.size, region.size());
    let (nx, ny, nz) = overlap.size();
    let [cx, cy, cz] = cell.corner;
    let mut src = ((overlap.lo[0] - cx) * s + (overlap.lo[1] - cy)) * s + (overlap.lo[2] - cz);
    let mut dst = ((overlap.lo[0] - region.lo[0]) * sy + (overlap.lo[1] - region.lo[1])) * sz
        + (overlap.lo[2] - region.lo[2]);
    for _ in 0..nx {
        for j in 0..ny {
            let run = &samples[src + j * s..][..nz];
            for (o, &v) in out[dst + j * sz..][..nz].iter_mut().zip(run) {
                *o += scale * v;
            }
        }
        src += s * s;
        dst += sy * sz;
    }
}

/// Adds `scale ×` the reconstruction of `cell` over `overlap` into `out`,
/// the row-major buffer of `region`. `samples` are the cell's own, in
/// `(tx, ty, tz)` row-major order; `overlap` must be non-empty and lie
/// inside both the cell and the region.
fn add_cell(
    scratch: &mut Scratch,
    cell: &OctCell,
    samples: &[f64],
    overlap: &BoxRegion,
    region: &BoxRegion,
    out: &mut [f64],
    scale: f64,
) {
    let spa = cell.samples_per_axis();
    let (_, sy, sz) = region.size();
    // Output offset of the first point of the z-run at (x, y).
    let row_at = |x: usize, y: usize| {
        ((x - region.lo[0]) * sy + (y - region.lo[1])) * sz + (overlap.lo[2] - region.lo[2])
    };
    let nz = overlap.hi[2] - overlap.lo[2];

    if spa == 1 {
        // A single sample: the cell is constant.
        let v = samples[0];
        for x in overlap.lo[0]..overlap.hi[0] {
            for y in overlap.lo[1]..overlap.hi[1] {
                for o in &mut out[row_at(x, y)..][..nz] {
                    *o += scale * v;
                }
            }
        }
        return;
    }

    let Scratch {
        table_of,
        idx,
        frac,
        planes,
    } = scratch;
    if *table_of != (cell.size, cell.rate) {
        // Local lattice coordinates with linear extrapolation at the cell's
        // high edge (keeps affine fields exact).
        *table_of = (cell.size, cell.rate);
        let r = cell.rate as usize;
        idx.clear();
        frac.clear();
        for l in 0..cell.size {
            let i = l / r;
            let f = (l - i * r) as f64 / r as f64;
            if i >= spa - 1 {
                // Use the last lattice interval and extrapolate.
                idx.push(spa - 2);
                frac.push(f + (i - (spa - 2)) as f64);
            } else {
                idx.push(i);
                frac.push(f);
            }
        }
    }

    let [lx, ly, lz] = [0, 1, 2].map(|a| {
        (
            overlap.lo[a] - cell.corner[a],
            overlap.hi[a] - cell.corner[a],
        )
    });
    // Lattice rows the overlap's y-range touches.
    let jy_lo = idx[ly.0];
    let rows = idx[ly.1 - 1] + 2 - jy_lo;
    let plane_len = rows * nz;
    if planes.len() < 2 * plane_len {
        planes.resize(2 * plane_len, 0.0);
    }
    let (mut lower, mut upper) = planes[..2 * plane_len].split_at_mut(plane_len);

    // z-lerp of lattice x-plane `tx` over the overlap's z-run.
    let (zi, zf) = (&idx[lz.0..lz.1], &frac[lz.0..lz.1]);
    let expand = |plane: &mut [f64], tx: usize| {
        for (j, dst) in plane.chunks_exact_mut(nz).enumerate() {
            let row = &samples[(tx * spa + jy_lo + j) * spa..][..spa];
            for ((d, &t), &f) in dst.iter_mut().zip(zi).zip(zf) {
                *d = row[t] * (1.0 - f) + row[t + 1] * f;
            }
        }
    };

    // Lattice x-plane held in `lower`; `upper` holds the one above it.
    let mut held = None;
    for l in lx.0..lx.1 {
        let (tx, fx) = (idx[l], frac[l]);
        if held != Some(tx) {
            if held.is_some_and(|h| h + 1 == tx) {
                std::mem::swap(&mut lower, &mut upper);
            } else {
                expand(lower, tx);
            }
            expand(upper, tx + 1);
            held = Some(tx);
        }
        let x = cell.corner[0] + l;
        for m in ly.0..ly.1 {
            let (j, fy) = (idx[m] - jy_lo, frac[m]);
            let (a0, a1) = (&lower[j * nz..][..nz], &lower[(j + 1) * nz..][..nz]);
            let (b0, b1) = (&upper[j * nz..][..nz], &upper[(j + 1) * nz..][..nz]);
            let o = &mut out[row_at(x, cell.corner[1] + m)..][..nz];
            for z in 0..nz {
                let c0 = a0[z] * (1.0 - fy) + a1[z] * fy;
                let c1 = b0[z] * (1.0 - fy) + b1[z] * fy;
                o[z] += scale * (c0 * (1.0 - fx) + c1 * fx);
            }
        }
    }
}
