//! Sample-space accumulation: fields that share a cell add their samples,
//! and the cell is interpolated once.
//!
//! Every plan [`SamplingPlan::build`](crate::SamplingPlan::build) makes is
//! carved from the one dyadic octree over the `N³` grid, so the same cell —
//! same corner, size and rate — recurs in the plans of many domains. A
//! cell's trilinear interpolant is linear in its samples, so the sum of
//! several fields' interpolants over a shared cell is the interpolant of
//! their summed samples. That is exact up to rounding and needs no common
//! refinement: identical cells have identical lattices and the same
//! extrapolated last interval.
//!
//! [`CellSums`] keys a sum by `(corner, size, rate)`. [`CellSums::add`]
//! takes a field's cells of rate > 1 that meet a region and adds their
//! samples into their sums; [`CellSums::add_into_slice`] then interpolates
//! each distinct cell once. Rate-1 cells are not summed: their samples are
//! their values, so sharing saves nothing, and a fold adds them straight
//! into its output ([`CompressedField::add_rate1_into_slice`]).
//!
//! # Order
//!
//! A sum starts as a copy of the first field's samples and adds the others
//! in the order they are added. Distinct cells sit in the order of their
//! first appearance, by field and then by cell. A cell that meets the
//! region is taken whole, from every field that has it, so its sum, and
//! the order of any two cells, are the same for every region they meet
//! and however the fields are split into calls to `add`; and
//! [`CellSums::add_into_slice`] adds the cells in that order on any slab.
//! So the order in which cells reach a point depends only on the cells and
//! the field order, never on the region, the slab, the wave cut or the
//! pool.
//!
//! # Storage
//!
//! The sums hold the distinct coarse cells that meet the region and their
//! samples, plus a hash table of two to four slots per cell: proportional
//! to the distinct cells, never to the `(N/size)³` cells a grid could hold.
//! Clearing keeps every buffer, and [`CellSums::with_reused`] lends the
//! same sums to each fold on a thread, so a warm fold allocates nothing.

// lcc-lint: hot-path — the fold's sample-space sums; only growth may allocate.

use std::cell::RefCell;

use lcc_grid::BoxRegion;
use lcc_obs::metrics as obs;

use crate::field::CompressedField;
use crate::plan::OctCell;
use crate::reconstruct;

/// Sums of the samples of coarse cells, keyed by cell.
#[derive(Default)]
pub struct CellSums {
    /// Open-addressed hash table: `entry + 1` per slot, 0 when empty. A
    /// power of two long (or empty) and at most half full.
    table: Vec<u32>,
    /// `64 − log2(table.len())`: the hash's top bits index the table.
    shift: u32,
    /// Distinct cells in order of first appearance.
    cells: Vec<OctCell>,
    /// Where each cell's summed samples start in `samples`.
    starts: Vec<usize>,
    samples: Vec<f64>,
}

thread_local! {
    static REUSED: RefCell<Vec<CellSums>> = RefCell::default();
}

impl CellSums {
    /// Runs `f` on `C` empty sums whose buffers this thread lends to every
    /// call, so that only a fold that outgrows all earlier ones allocates.
    pub fn with_reused<const C: usize, R>(f: impl FnOnce(&mut [CellSums; C]) -> R) -> R {
        let mut sums: [CellSums; C] = REUSED.with(|r| {
            let mut r = r.borrow_mut();
            std::array::from_fn(|_| r.pop().unwrap_or_default())
        });
        for s in &mut sums {
            s.clear();
        }
        let out = f(&mut sums);
        REUSED.with(|r| r.borrow_mut().extend(sums));
        out
    }

    /// Forgets every sum, keeping the buffers.
    fn clear(&mut self) {
        self.table.fill(0);
        self.cells.clear();
        self.starts.clear();
        self.samples.clear();
    }

    /// Number of distinct cells summed.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cell has been summed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Adds the samples of every cell of `field` with rate > 1 that meets
    /// `region` into that cell's sum, in the plan's cell order.
    pub fn add(&mut self, field: &CompressedField, region: &BoxRegion) {
        let (plan, samples) = (&**field.plan(), field.samples());
        let mut summed = 0;
        for (i, cell) in plan.cells().iter().enumerate() {
            if cell.rate == 1 || cell.region().intersect(region).is_none() {
                continue;
            }
            summed += 1;
            let cell_samples = &samples[plan.cell_offset(i) as usize..][..cell.sample_count()];
            match self.find(cell) {
                Ok(e) => {
                    let sum = &mut self.samples[self.starts[e]..][..cell_samples.len()];
                    for (s, &v) in sum.iter_mut().zip(cell_samples) {
                        *s += v;
                    }
                }
                Err(slot) => self.insert(slot, cell, cell_samples),
            }
        }
        obs::OCTREE_CELLS_SUMMED.add(summed);
    }

    /// Adds the interpolant of every summed cell that meets `region` into
    /// `out`, the region's row-major buffer (of an x-slab, say), once per
    /// cell, in the cells' order.
    pub fn add_into_slice(&self, region: &BoxRegion, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            region.volume(),
            "output length must match region"
        );
        let offset = |i| self.starts.get(i).copied().unwrap_or(self.samples.len());
        reconstruct::add_cells(
            &self.cells,
            &self.samples,
            offset,
            |_| true,
            region,
            out,
            1.0,
        );
    }

    /// The entry holding `cell`, or the empty slot where it belongs.
    fn find(&self, cell: &OctCell) -> Result<usize, usize> {
        if self.table.is_empty() {
            return Err(0);
        }
        let mask = self.table.len() - 1;
        let mut slot = (hash(cell) >> self.shift) as usize;
        loop {
            match self.table[slot] {
                0 => return Err(slot),
                e if self.cells[e as usize - 1] == *cell => return Ok(e as usize - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Starts the sum of `cell` (found missing at `slot`) with `samples`.
    fn insert(&mut self, mut slot: usize, cell: &OctCell, samples: &[f64]) {
        if 2 * (self.cells.len() + 1) > self.table.len() {
            self.rehash((2 * self.table.len()).max(64));
            slot = self.find(cell).expect_err("a missing cell stays missing");
        }
        self.table[slot] = u32::try_from(self.cells.len() + 1).expect("fewer than 2³² cells");
        reserve(&mut self.cells, 1);
        self.cells.push(*cell);
        reserve(&mut self.starts, 1);
        self.starts.push(self.samples.len());
        reserve(&mut self.samples, samples.len());
        self.samples.extend_from_slice(samples);
    }

    /// Rebuilds the table at `len` slots.
    fn rehash(&mut self, len: usize) {
        self.table.clear();
        self.table.resize(len, 0);
        self.shift = 64 - len.trailing_zeros();
        for e in 0..self.cells.len() {
            let slot = self.find(&self.cells[e]).expect_err("cells are distinct");
            // `e + 1` passed the check in `insert` when entry `e` went in.
            self.table[slot] = e as u32 + 1;
        }
    }
}

/// Makes room for `additional` more items, growing by a quarter at least:
/// the buffers live as long as the thread, so they stay near the largest
/// fold's need rather than the next power of two above it.
fn reserve<T>(v: &mut Vec<T>, additional: usize) {
    if v.capacity() - v.len() < additional {
        v.reserve_exact(additional.max(v.len() / 4));
    }
}

/// An FxHash-style mix of the cell's key; its top bits index the table.
fn hash(cell: &OctCell) -> u64 {
    let key = [
        cell.corner[0],
        cell.corner[1],
        cell.corner[2],
        cell.size,
        cell.rate as usize,
    ];
    key.iter().fold(0u64, |h, &v| {
        (h.rotate_left(5) ^ v as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SamplingPlan;
    use crate::schedule::RateSchedule;
    use lcc_grid::Grid3;
    use std::sync::Arc;

    fn field(n: usize, lo: [usize; 3], k: usize, seed: usize) -> CompressedField {
        let plan = SamplingPlan::build(
            n,
            BoxRegion::new(lo, lo.map(|l| l + k)),
            &RateSchedule::for_kernel_spread(k, 1.0, 8),
        );
        CompressedField::compress_with(Arc::new(plan), |x, y, z| {
            ((x * 7 + y * 13 + z * 29 + seed) as f64 * 0.61).sin()
        })
    }

    #[test]
    fn shared_cells_are_summed_once_and_interpolate_like_their_fields() {
        let n = 32;
        let fields: Vec<CompressedField> = (0..4).map(|i| field(n, [8 * i, 8, 16], 8, i)).collect();
        let cube = BoxRegion::cube(n);
        let mut sums = CellSums::default();
        let mut coarse = 0;
        let mut distinct: Vec<OctCell> = Vec::new();
        for f in &fields {
            sums.add(f, &cube);
            for c in f.plan().cells().iter().filter(|c| c.rate > 1) {
                coarse += 1;
                if !distinct.contains(c) {
                    distinct.push(*c);
                }
            }
        }
        assert_eq!(sums.len(), distinct.len());
        assert!(sums.len() < coarse, "the plans share cells");
        let samples: usize = distinct.iter().map(OctCell::sample_count).sum();
        assert_eq!(sums.samples.len(), samples);

        // The rate-1 cells field by field, then the sums: the fields'
        // reconstruction up to rounding.
        let mut got = Grid3::zeros(cube.size());
        for f in &fields {
            f.add_rate1_into_slice(&cube, got.as_mut_slice());
        }
        sums.add_into_slice(&cube, got.as_mut_slice());
        let mut want = Grid3::zeros(cube.size());
        for f in &fields {
            f.add_region_into(&cube, &mut want, 1.0);
        }
        let peak = want.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() <= 1e-14 * peak, "{g} vs {w}");
        }

        // Cleared, the sums keep their buffers and refill to the same bits.
        let capacity = (
            sums.table.len(),
            sums.cells.capacity(),
            sums.samples.capacity(),
        );
        let before = sums.samples.clone();
        sums.clear();
        assert!(sums.is_empty());
        for f in &fields {
            sums.add(f, &cube);
        }
        let after = (
            sums.table.len(),
            sums.cells.capacity(),
            sums.samples.capacity(),
        );
        assert_eq!(after, capacity);
        assert_eq!(sums.samples, before);
    }

    #[test]
    fn only_cells_meeting_the_region_are_summed() {
        let n = 32;
        let f = field(n, [0, 0, 0], 8, 3);
        let region = BoxRegion::new([20, 0, 0], [24, 32, 32]);
        let mut sums = CellSums::default();
        sums.add(&f, &region);
        let meeting = f
            .plan()
            .cells()
            .iter()
            .filter(|c| c.rate > 1 && c.region().intersect(&region).is_some())
            .count();
        assert_eq!(sums.len(), meeting);
        assert!(sums
            .cells
            .iter()
            .all(|c| c.region().intersect(&region).is_some()));
    }
}
