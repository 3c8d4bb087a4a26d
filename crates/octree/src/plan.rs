//! Octree construction and the paper's 5-integer cell encoding.
//!
//! "The octree metadata is stored in an array, with five consecutive integers
//! capturing the details of one octree cell. The five numbers represent the
//! co-ordinates of the corner point (x, y, z), the downsampling rate of that
//! cell and a count of the total number of samples in the cells that come
//! before the current cell. The last entry helps to decode the octree." (§4)
//!
//! Construction subdivides the N³ cube until each cell has a *provably*
//! uniform sampling rate under the schedule. Uniformity is decided with exact
//! interval arithmetic on the two distances the schedule depends on — the
//! Chebyshev distance to the sub-domain and the distance to the nearest grid
//! face — so no probe-point heuristics are involved.

use lcc_grid::BoxRegion;
use lcc_obs::codec::{Reader, Writer};

use crate::schedule::RateSchedule;

/// One octree leaf cell: a cube sampled at a uniform stride.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OctCell {
    /// Low corner of the cube.
    pub corner: [usize; 3],
    /// Cube side length (power of two).
    pub size: usize,
    /// Sampling stride within the cube: a power of two that divides
    /// `size`, so a cell contributes exactly `(size/rate)³` samples.
    pub rate: u32,
}

impl OctCell {
    /// Samples per axis, `size / rate` (exact by construction; a shift,
    /// the rate being a power of two).
    #[inline]
    pub fn samples_per_axis(&self) -> usize {
        debug_assert!(self.rate.is_power_of_two() && self.size.is_multiple_of(self.rate as usize));
        self.size >> self.rate.trailing_zeros()
    }

    /// Total samples in this cell.
    #[inline]
    pub fn sample_count(&self) -> usize {
        let spa = self.samples_per_axis();
        spa * spa * spa
    }

    /// The cell's box region.
    pub fn region(&self) -> BoxRegion {
        BoxRegion::new(
            self.corner,
            [
                self.corner[0] + self.size,
                self.corner[1] + self.size,
                self.corner[2] + self.size,
            ],
        )
    }

    /// Iterates global sample coordinates in `(tx, ty, tz)` row-major order.
    pub fn sample_positions(&self) -> impl Iterator<Item = [usize; 3]> + '_ {
        let spa = self.samples_per_axis();
        let r = self.rate as usize;
        let c = self.corner;
        (0..spa).flat_map(move |tx| {
            (0..spa).flat_map(move |ty| {
                (0..spa).map(move |tz| [c[0] + tx * r, c[1] + ty * r, c[2] + tz * r])
            })
        })
    }

    /// Flat sample index of local lattice coordinates within this cell.
    #[inline]
    pub fn local_sample_index(&self, tx: usize, ty: usize, tz: usize) -> usize {
        let spa = self.samples_per_axis();
        debug_assert!(tx < spa && ty < spa && tz < spa);
        (tx * spa + ty) * spa + tz
    }
}

/// Exact `[min, max]` of the per-axis *periodic* domain distance over the
/// half-open cell interval `[lo, lo+size)` against the domain interval
/// `[dlo, dhi)` on an `n`-periodic axis.
///
/// On a torus the distance is 0 inside the arc and unimodal across the gap
/// (rising to a peak at the arc's antipode), so the extrema lie at the cell
/// endpoints, at 0 if the cell meets the arc, or at the antipodal peak if
/// the cell contains it.
fn axis_domain_distance_range(
    lo: usize,
    size: usize,
    dlo: usize,
    dhi: usize,
    n: usize,
) -> (usize, usize) {
    let hi = lo + size; // exclusive; cells never wrap
    let last = hi - 1;
    let d = |p: usize| -> usize {
        if p >= dlo && p < dhi {
            0
        } else {
            let fwd = if p >= dhi {
                p - (dhi - 1)
            } else {
                p + n - (dhi - 1)
            };
            let bwd = if p < dlo { dlo - p } else { dlo + n - p };
            fwd.min(bwd)
        }
    };
    let min = if lo < dhi && hi > dlo {
        0
    } else {
        d(lo).min(d(last))
    };
    let mut max = d(lo).max(d(last));
    // Antipodal peak of the gap, where forward and backward distances meet.
    let peak = (dhi - 1 + dlo + n) / 2 % n;
    for cand in [peak, (peak + 1) % n] {
        if cand >= lo && cand <= last {
            max = max.max(d(cand));
        }
    }
    (min, max)
}

/// Exact `[min, max]` of `min(p, n-1-p)` (distance to the nearest face along
/// one axis) over `[lo, lo+size)`.
fn axis_boundary_distance_range(lo: usize, size: usize, n: usize) -> (usize, usize) {
    let last = lo + size - 1;
    let f = |p: usize| p.min(n - 1 - p);
    let min = f(lo).min(f(last));
    // f is unimodal with its peak at the midpoint; if the interval covers the
    // peak the max is floor((n-1)/2), otherwise it is at an endpoint.
    let peak = (n - 1) / 2;
    let max = if lo <= peak && peak <= last {
        peak.min(n - 1 - peak).max(f(lo)).max(f(last))
    } else {
        f(lo).max(f(last))
    };
    (min, max)
}

/// Classification of a cell under the schedule.
enum CellClass {
    /// Whole cell maps to one rate.
    Uniform(u32),
    /// Mixed rates; carries the finest rate occurring anywhere in the cell,
    /// so a leaf cut short can fall back to conservative oversampling.
    Mixed(u32),
}

fn classify(
    corner: [usize; 3],
    size: usize,
    n: usize,
    domain: &BoxRegion,
    schedule: &RateSchedule,
) -> CellClass {
    // Periodic domain distance interval (Chebyshev = max over axes).
    let mut dom_min = 0usize;
    let mut dom_max = 0usize;
    for (&c, (&dlo, &dhi)) in corner.iter().zip(domain.lo.iter().zip(domain.hi.iter())) {
        let (lo, hi) = axis_domain_distance_range(c, size, dlo, dhi, n);
        dom_min = dom_min.max(lo);
        dom_max = dom_max.max(hi);
    }
    // Boundary distance interval (min over axes; separable for both bounds).
    let mut bnd_min = usize::MAX;
    let mut bnd_max = usize::MAX;
    for &c in &corner {
        let (lo, hi) = axis_boundary_distance_range(c, size, n);
        bnd_min = bnd_min.min(lo);
        bnd_max = bnd_max.min(hi);
    }

    if dom_max == 0 {
        // Entirely inside the sub-domain: always full resolution.
        return CellClass::Uniform(1);
    }
    if dom_min == 0 {
        // Straddles the sub-domain border: the finest rate present is 1.
        return CellClass::Mixed(1);
    }
    let w = schedule.boundary_width;
    let in_shell_all = bnd_max < w;
    let out_shell_all = bnd_min >= w;
    if in_shell_all {
        return CellClass::Uniform(schedule.boundary_rate);
    }
    // Band rates are monotone in distance, so the rates at the two distance
    // extremes bound everything in between.
    let r_near = schedule.rate_for(dom_min, w);
    let r_far = schedule.rate_for(dom_max, w);
    if !out_shell_all {
        // Straddles the boundary shell.
        let finest = schedule.boundary_rate.min(r_near).min(r_far);
        return CellClass::Mixed(finest);
    }
    if r_near == r_far {
        CellClass::Uniform(r_near)
    } else {
        CellClass::Mixed(r_near.min(r_far))
    }
}

/// A complete adaptive sampling plan: the octree leaves covering `[0, n)³`
/// with uniform per-cell rates, plus prefix sample counts.
///
/// Every constructor also tabulates which part of the grid carries a
/// sample at all — the z-planes and, per plane, the x rows — so the
/// streaming pipeline inverse-transforms exactly those rows and nothing
/// else, without a per-call walk over the cells.
#[derive(Clone, Debug)]
pub struct SamplingPlan {
    n: usize,
    domain: BoxRegion,
    cells: Vec<OctCell>,
    /// `cum[i]` = number of samples in cells `0..i`; `cum[cells.len()]` = total.
    cum: Vec<u64>,
    /// Which planes and rows carry a sample, as one bitset: bit `z` of
    /// `0..n` marks plane `z` as retained, bit `n + z·n + x` marks row `x`
    /// of plane `z` (some sample lies at `(x, ·, z)`).
    table: Box<[u64]>,
    /// Retained planes (set plane bits).
    planes: usize,
    /// Sampled rows over all planes (set row bits).
    sampled_rows: usize,
    /// The largest cell side when the cells come in ascending corner-x
    /// order (as `build` sorts them), so the cells that meet an x-range are
    /// one run of the list; `None` when they do not.
    x_reach: Option<usize>,
}

impl SamplingPlan {
    /// Assembles a plan from checked cells and builds its plane and row
    /// table. Cells must lie inside `[0, n)³`.
    fn from_cells(n: usize, domain: BoxRegion, cells: Vec<OctCell>, cum: Vec<u64>) -> Self {
        let mut table = vec![0u64; (n + n * n).div_ceil(64)].into_boxed_slice();
        let mut set = |bit: usize| table[bit / 64] |= 1 << (bit % 64);
        for c in &cells {
            let r = c.rate as usize;
            for z in (c.corner[2]..c.corner[2] + c.size).step_by(r) {
                set(z);
                for x in (c.corner[0]..c.corner[0] + c.size).step_by(r) {
                    set(n + z * n + x);
                }
            }
        }
        let planes = SetBits::new(&table, 0, n).count();
        let sampled_rows = SetBits::new(&table, n, n * n).count();
        let x_sorted = cells.windows(2).all(|w| w[0].corner[0] <= w[1].corner[0]);
        let x_reach = x_sorted.then(|| cells.iter().map(|c| c.size).max().unwrap_or(0));
        SamplingPlan {
            n,
            domain,
            cells,
            cum,
            table,
            planes,
            sampled_rows,
            x_reach,
        }
    }

    /// Builds the octree plan for an `n³` grid (n a power of two) around the
    /// sub-domain `domain` under `schedule`.
    pub fn build(n: usize, domain: BoxRegion, schedule: &RateSchedule) -> Self {
        assert!(
            n.is_power_of_two(),
            "octree requires power-of-two grid, got {n}"
        );
        assert!(
            BoxRegion::cube(n).contains_box(&domain),
            "domain {domain:?} must lie inside the n={n} grid"
        );
        assert!(!domain.is_empty(), "domain must be non-empty");
        schedule.validate().expect("invalid rate schedule");

        // Rates are capped at size/2 so every cell of size ≥ 2 carries at
        // least 2 samples per axis, keeping per-cell trilinear interpolation
        // well-posed (and exact on affine fields).
        let cap = |rate: u32, size: usize| -> u32 { (rate as usize).min((size / 2).max(1)) as u32 };
        let mut cells = Vec::new();
        let mut stack = vec![([0usize; 3], n)];
        while let Some((corner, size)) = stack.pop() {
            match classify(corner, size, n, &domain, schedule) {
                CellClass::Uniform(rate) => {
                    cells.push(OctCell {
                        corner,
                        size,
                        rate: cap(rate, size),
                    });
                }
                // A mixed cell larger than twice its finest applicable rate
                // is still worth splitting; below that, exact banding would
                // fragment into size-1 cells for no accuracy gain, so we cut
                // the recursion and oversample at the finest rate present.
                CellClass::Mixed(finest) if size <= 2 * finest as usize => {
                    cells.push(OctCell {
                        corner,
                        size,
                        rate: cap(finest, size),
                    });
                }
                CellClass::Mixed(_) => {
                    debug_assert!(size > 1, "size-1 cells are always uniform");
                    let h = size / 2;
                    for dx in 0..2 {
                        for dy in 0..2 {
                            for dz in 0..2 {
                                stack.push((
                                    [corner[0] + dx * h, corner[1] + dy * h, corner[2] + dz * h],
                                    h,
                                ));
                            }
                        }
                    }
                }
            }
        }
        // Deterministic order: sort by corner so encode/decode and streaming
        // passes agree regardless of stack traversal order.
        cells.sort_unstable_by_key(|c| c.corner);
        let mut cum = Vec::with_capacity(cells.len() + 1);
        let mut acc = 0u64;
        for c in &cells {
            cum.push(acc);
            acc += c.sample_count() as u64;
        }
        cum.push(acc);
        Self::from_cells(n, domain, cells, cum)
    }

    /// Grid size n.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The sub-domain this plan is centered on.
    pub fn domain(&self) -> &BoxRegion {
        &self.domain
    }

    /// The octree leaves.
    pub fn cells(&self) -> &[OctCell] {
        &self.cells
    }

    /// The indices of the cells that can meet the x-range `lo..hi`: every
    /// cell outside the range misses it, so a pass over a thin x-slab need
    /// not scan the whole list (a cell inside may still miss it).
    pub(crate) fn x_candidates(&self, lo: usize, hi: usize) -> std::ops::Range<usize> {
        match self.x_reach {
            Some(reach) => {
                let start = self.cells.partition_point(|c| c.corner[0] + reach <= lo);
                let end = self.cells.partition_point(|c| c.corner[0] < hi);
                start..end.max(start)
            }
            None => 0..self.cells.len(),
        }
    }

    /// Prefix sample count for cell `i`.
    pub fn cell_offset(&self, i: usize) -> u64 {
        self.cum[i]
    }

    /// Total number of retained samples.
    pub fn total_samples(&self) -> usize {
        *self.cum.last().unwrap() as usize
    }

    /// Compressed footprint in bytes: f64 samples + the 5-integer metadata
    /// per cell (stored as u64 here; the paper notes the integers can be
    /// narrowed further).
    pub fn compressed_bytes(&self) -> usize {
        self.total_samples() * 8 + self.cells.len() * 5 * 8
    }

    /// Dense footprint the plan replaces, in bytes (N³ doubles).
    pub fn dense_bytes(&self) -> usize {
        self.n * self.n * self.n * 8
    }

    /// `dense_bytes / compressed_bytes`.
    pub fn compression_ratio(&self) -> f64 {
        self.dense_bytes() as f64 / self.compressed_bytes() as f64
    }

    /// Serializes to the paper's 5-ints-per-cell metadata array:
    /// `(x, y, z, rate, samples_before)` for each cell.
    pub fn encode(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.cells.len() * 5);
        for (i, c) in self.cells.iter().enumerate() {
            out.push(c.corner[0] as u64);
            out.push(c.corner[1] as u64);
            out.push(c.corner[2] as u64);
            out.push(c.rate as u64);
            out.push(self.cum[i]);
        }
        out
    }

    /// Reconstructs a plan from the 5-int metadata, the grid size, the
    /// domain, and the total sample count (the length of the accompanying
    /// samples array — exactly what a receiving worker has in hand).
    ///
    /// Cell sizes are *not* stored: they are recovered from the sample counts
    /// (`count = (size/rate)³` and sizes/rates are powers of two), which is
    /// why the paper's compact encoding suffices.
    pub fn decode(
        n: usize,
        domain: BoxRegion,
        encoded: &[u64],
        total_samples: u64,
    ) -> Result<Self, String> {
        if !encoded.len().is_multiple_of(5) {
            return Err(format!(
                "metadata length {} not a multiple of 5",
                encoded.len()
            ));
        }
        let num = encoded.len() / 5;
        let mut cells = Vec::with_capacity(num);
        let mut cum = Vec::with_capacity(num + 1);
        for i in 0..num {
            let e = &encoded[i * 5..i * 5 + 5];
            let next_cum = if i + 1 < num {
                encoded[(i + 1) * 5 + 4]
            } else {
                total_samples
            };
            let count = next_cum
                .checked_sub(e[4])
                .ok_or_else(|| format!("cell {i}: non-monotone sample counts"))?;
            let spa = integer_cbrt(count)
                .ok_or_else(|| format!("cell {i}: sample count {count} is not a cube"))?;
            let rate = e[3] as u32;
            if !rate.is_power_of_two() {
                return Err(format!("cell {i}: rate {rate} not a power of two"));
            }
            let cell = OctCell {
                corner: [e[0] as usize, e[1] as usize, e[2] as usize],
                size: spa as usize * rate as usize,
                rate,
            };
            check_inside(n, i, &cell)?;
            cells.push(cell);
            cum.push(e[4]);
        }
        cum.push(total_samples);
        Ok(Self::from_cells(n, domain, cells, cum))
    }

    /// Packed low-precision metadata — the paper's note that the 5-integer
    /// encoding "can be compressed further using lower precision (since we
    /// store only integers)". Per cell: corner as 3×u16, log₂(rate) as u8,
    /// sample count as u32 — 11 bytes against the canonical 40.
    ///
    /// Valid for grids up to 65536³ and cells up to 2³² samples (any cell
    /// that large would defeat the compression anyway).
    pub fn encode_packed(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.cells.len() * 11);
        for c in &self.cells {
            for a in 0..3 {
                out.put_u16(c.corner[a] as u16);
            }
            out.push(c.rate.trailing_zeros() as u8);
            out.put_u32(c.sample_count() as u32);
        }
        out
    }

    /// Decodes [`Self::encode_packed`] output.
    pub fn decode_packed(n: usize, domain: BoxRegion, bytes: &[u8]) -> Result<Self, String> {
        if !bytes.len().is_multiple_of(11) {
            return Err(format!(
                "packed metadata length {} not a multiple of 11",
                bytes.len()
            ));
        }
        let mut cells = Vec::with_capacity(bytes.len() / 11);
        let mut cum = Vec::with_capacity(cells.capacity() + 1);
        let mut acc = 0u64;
        let mut r = Reader::new(bytes);
        for i in 0..bytes.len() / 11 {
            let mut field = || r.u16().map(usize::from).map_err(|e| e.to_string());
            let corner = [field()?, field()?, field()?];
            let log_rate = r.u8().map_err(|e| e.to_string())?;
            let rate = 1u32
                .checked_shl(log_rate as u32)
                .ok_or_else(|| format!("cell {i}: rate 2^{log_rate} out of range"))?;
            let count = r.u32().map_err(|e| e.to_string())? as u64;
            let spa =
                integer_cbrt(count).ok_or_else(|| format!("sample count {count} is not a cube"))?;
            let cell = OctCell {
                corner,
                size: spa as usize * rate as usize,
                rate,
            };
            check_inside(n, i, &cell)?;
            cells.push(cell);
            cum.push(acc);
            acc += count;
        }
        cum.push(acc);
        Ok(Self::from_cells(n, domain, cells, cum))
    }

    /// Sorted unique z-coordinates that carry at least one sample — the
    /// z-planes the streaming pipeline must materialize.
    pub fn retained_z(&self) -> Vec<usize> {
        self.retained_planes().collect()
    }

    /// [`Self::retained_z`] without the allocation, from the plan's table.
    pub fn retained_planes(&self) -> SetBits<'_> {
        SetBits::new(&self.table, 0, self.n)
    }

    /// Number of retained planes.
    pub fn retained_plane_count(&self) -> usize {
        self.planes
    }

    /// The x rows of plane `z` that carry at least one sample, ascending
    /// (none if the plane is not retained).
    pub fn sampled_rows(&self, z: usize) -> SetBits<'_> {
        assert!(z < self.n, "plane {z} outside the n={} grid", self.n);
        SetBits::new(&self.table, self.n + z * self.n, self.n)
    }

    /// Sampled rows summed over all planes — the rows the pipeline's last
    /// inverse transform runs on (at most `retained_plane_count() · n`).
    pub fn sampled_row_count(&self) -> usize {
        self.sampled_rows
    }

    /// Length of the `(z, x) → row` table [`Self::fill_row_table`] fills:
    /// `n` plane entries and `n` row entries per retained plane.
    pub fn row_table_len(&self) -> usize {
        self.n * (1 + self.planes)
    }

    /// Fills `table` (at least [`Self::row_table_len`] long) so that row
    /// `x` of plane `z` is row `table[table[z] + x]` of the sampled rows
    /// laid out plane after plane, ascending: `table[z]` is where plane
    /// `z`'s `n` row entries start. Only the entries of retained planes and
    /// of their sampled rows are written; the rest keep whatever they held.
    pub fn fill_row_table(&self, table: &mut [u32]) {
        let n = self.n;
        assert!(table.len() >= self.row_table_len(), "row table too short");
        assert!(
            u32::try_from(self.row_table_len()).is_ok(),
            "row table indices must fit u32"
        );
        let mut row = 0u32;
        for (i, z) in self.retained_planes().enumerate() {
            let start = n * (1 + i);
            table[z] = start as u32;
            for x in self.sampled_rows(z) {
                table[start + x] = row;
                row += 1;
            }
        }
    }

    /// Indices of the cells whose region intersects `region` — the cells a
    /// worker owning `region` needs to reconstruct its share of this
    /// domain's contribution. ("The structure of the octree also makes it
    /// easier to accumulate results on a distributed system", §4.)
    pub fn cells_intersecting(&self, region: &BoxRegion) -> Vec<usize> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.region().intersect(region).is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// Histogram of (rate → cell count, covered points, samples), the data
    /// behind Fig. 3's density picture.
    pub fn rate_histogram(&self) -> Vec<RateStats> {
        let mut map: std::collections::BTreeMap<u32, RateStats> = Default::default();
        for c in &self.cells {
            let e = map.entry(c.rate).or_insert(RateStats {
                rate: c.rate,
                cells: 0,
                points: 0,
                samples: 0,
            });
            e.cells += 1;
            e.points += c.size * c.size * c.size;
            e.samples += c.sample_count();
        }
        map.into_values().collect()
    }

    /// Verifies the structural invariant: the leaves tile `[0, n)³` exactly
    /// (used by tests and debug assertions; O(cells log cells)).
    pub fn verify_tiling(&self) -> Result<(), String> {
        let total: usize = self.cells.iter().map(|c| c.size.pow(3)).sum();
        if total != self.n.pow(3) {
            return Err(format!(
                "cells cover {total} points, grid has {}",
                self.n.pow(3)
            ));
        }
        for (i, a) in self.cells.iter().enumerate() {
            for b in &self.cells[i + 1..] {
                if a.region().intersect(&b.region()).is_some() {
                    return Err(format!("overlapping cells {a:?} and {b:?}"));
                }
            }
        }
        Ok(())
    }
}

/// Per-rate aggregate statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RateStats {
    /// Sampling stride.
    pub rate: u32,
    /// Number of leaf cells at this rate.
    pub cells: usize,
    /// Grid points covered by those cells.
    pub points: usize,
    /// Samples retained in those cells.
    pub samples: usize,
}

/// The set bits of a bit range of a plan's table, as offsets into the
/// range, ascending ([`SamplingPlan::retained_planes`],
/// [`SamplingPlan::sampled_rows`]).
#[derive(Clone, Debug)]
pub struct SetBits<'a> {
    words: std::slice::Iter<'a, u64>,
    /// Unvisited set bits of the current word.
    bits: u64,
    /// Range offset of bit 0 of the current word (wrapping: the first word
    /// may start before the range).
    base: usize,
    /// Range length; set bits past it end the iteration.
    len: usize,
}

impl<'a> SetBits<'a> {
    fn new(table: &'a [u64], start: usize, len: usize) -> Self {
        let (first, shift) = (start / 64, start % 64);
        let mut words = table[first..(start + len).div_ceil(64).max(first)].iter();
        let bits = words.next().map_or(0, |&w| w & (!0u64 << shift));
        SetBits {
            words,
            bits,
            base: 0usize.wrapping_sub(shift),
            len,
        }
    }
}

impl Iterator for SetBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.bits = *self.words.next()?;
            self.base = self.base.wrapping_add(64);
        }
        let bit = self.base.wrapping_add(self.bits.trailing_zeros() as usize);
        self.bits &= self.bits - 1;
        (bit < self.len).then_some(bit)
    }
}

/// A decoded cell must lie inside the `n³` grid: everything downstream
/// indexes planes and rows by its coordinates.
fn check_inside(n: usize, i: usize, cell: &OctCell) -> Result<(), String> {
    if cell.corner.iter().all(|&c| c < n && cell.size <= n - c) {
        Ok(())
    } else {
        Err(format!("cell {i}: {cell:?} does not fit the n={n} grid"))
    }
}

/// Exact integer cube root, if `v` is a perfect cube.
fn integer_cbrt(v: u64) -> Option<u64> {
    if v == 0 {
        return None;
    }
    let r = (v as f64).cbrt().round() as u64;
    (r.saturating_sub(1)..=r + 1).find(|&c| c * c * c == v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::RateSchedule;

    fn centered_domain(n: usize, k: usize) -> BoxRegion {
        let lo = (n - k) / 2;
        BoxRegion::new([lo; 3], [lo + k; 3])
    }

    #[test]
    fn plan_tiles_grid_exactly() {
        let n = 64;
        let domain = centered_domain(n, 16);
        let plan = SamplingPlan::build(n, domain, &RateSchedule::paper_default(16, 16));
        plan.verify_tiling().unwrap();
    }

    #[test]
    fn domain_is_fully_dense() {
        let n = 64;
        let k = 16;
        let domain = centered_domain(n, k);
        let plan = SamplingPlan::build(n, domain, &RateSchedule::paper_default(k, 16));
        // Every point of the domain must be a sample of some rate-1 cell.
        let mut covered = 0usize;
        for c in plan.cells() {
            if let Some(i) = c.region().intersect(&domain) {
                assert_eq!(c.rate, 1, "cell inside domain must be dense: {c:?}");
                covered += i.volume();
            }
        }
        assert_eq!(covered, domain.volume());
    }

    #[test]
    fn far_cells_use_far_rate() {
        let n = 256;
        let k = 16;
        let domain = centered_domain(n, k);
        let schedule = RateSchedule::paper_default(k, 32);
        let plan = SamplingPlan::build(n, domain, &schedule);
        // Far cells exist; their rate is the far rate capped at size/2
        // (the band boundary at distance 4k fragments the blocks to ≤ 32³,
        // so rate 32 appears as capped rate 16 here).
        let hist = plan.rate_histogram();
        assert!(
            hist.iter().any(|s| s.rate >= 16),
            "expected coarse far-rate cells, got {hist:?}"
        );
        // The far region dominates the grid volume but not the samples.
        let far: usize = hist.iter().filter(|s| s.rate >= 8).map(|s| s.points).sum();
        let far_samples: usize = hist.iter().filter(|s| s.rate >= 8).map(|s| s.samples).sum();
        assert!(far > n * n * n / 2);
        assert!(far_samples < far / 64, "far region must be sparse");
    }

    #[test]
    fn rates_never_undersample_schedule() {
        // The conservative construction may oversample (finer rate) near
        // band boundaries, but must never sample coarser than the schedule
        // demands at any point.
        let n = 64;
        let k = 16;
        let domain = centered_domain(n, k);
        let schedule = RateSchedule::paper_default(k, 16);
        let plan = SamplingPlan::build(n, domain, &schedule);
        for cell in plan.cells() {
            for p in [cell.corner, {
                let mut q = cell.corner;
                q.iter_mut().for_each(|v| *v += cell.size - 1);
                q
            }] {
                let want = schedule.rate_for(
                    domain.periodic_chebyshev_distance(p, n),
                    p.iter().map(|&v| v.min(n - 1 - v)).min().unwrap(),
                );
                assert!(
                    cell.rate <= want,
                    "cell {cell:?} undersamples point {p:?}: rate {} > schedule {want}",
                    cell.rate
                );
            }
        }
        // And the interior of the domain is exactly rate 1.
        let mid = [n / 2; 3];
        let cell = plan
            .cells()
            .iter()
            .find(|c| c.region().contains(mid))
            .unwrap();
        assert_eq!(cell.rate, 1);
    }

    #[test]
    fn total_samples_below_dense() {
        let n = 128;
        let k = 32;
        let plan = SamplingPlan::build(
            n,
            centered_domain(n, k),
            &RateSchedule::paper_default(k, 16),
        );
        let total = plan.total_samples();
        assert!(total < n * n * n / 4, "compression too weak: {total}");
        assert!(total > k * k * k, "must keep at least the dense domain");
        assert!(plan.compression_ratio() > 4.0);
    }

    #[test]
    fn x_candidates_hold_every_cell_meeting_the_range() {
        let n = 64;
        let k = 16;
        let domain = centered_domain(n, k);
        let plan = SamplingPlan::build(n, domain, &RateSchedule::paper_default(k, 16));
        // The same cells in descending corner order: no run to cut out.
        let mut encoded: Vec<[u64; 5]> = plan
            .encode()
            .chunks_exact(5)
            .map(|e| [e[0], e[1], e[2], e[3], 0])
            .collect();
        encoded.reverse();
        let mut before = 0;
        let mut flat = Vec::new();
        for (e, c) in encoded.iter_mut().zip(plan.cells().iter().rev()) {
            e[4] = before;
            before += c.sample_count() as u64;
            flat.extend(*e);
        }
        let reversed = SamplingPlan::decode(n, domain, &flat, before).unwrap();
        for (lo, hi) in [(0, 1), (5, 9), (31, 33), (60, 64), (0, 64), (17, 17)] {
            let meets = |c: &OctCell| c.corner[0] < hi && c.corner[0] + c.size > lo;
            let range = plan.x_candidates(lo, hi);
            assert!(range.len() < plan.cells().len() || (lo, hi) == (0, 64));
            for (i, c) in plan.cells().iter().enumerate() {
                assert!(!meets(c) || range.contains(&i), "{lo}..{hi}: cell {c:?}");
            }
            assert_eq!(reversed.x_candidates(lo, hi), 0..reversed.cells().len());
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let n = 64;
        let k = 16;
        let domain = centered_domain(n, k);
        let plan = SamplingPlan::build(n, domain, &RateSchedule::paper_default(k, 16));
        let encoded = plan.encode();
        assert_eq!(encoded.len(), plan.cells().len() * 5);
        let decoded =
            SamplingPlan::decode(n, domain, &encoded, plan.total_samples() as u64).unwrap();
        assert_eq!(decoded.cells(), plan.cells());
        assert_eq!(decoded.total_samples(), plan.total_samples());
    }

    #[test]
    fn packed_encoding_roundtrips_and_shrinks() {
        let n = 64;
        let k = 16;
        let domain = centered_domain(n, k);
        let plan = SamplingPlan::build(n, domain, &RateSchedule::paper_default(k, 16));
        let packed = plan.encode_packed();
        assert_eq!(packed.len(), plan.cells().len() * 11);
        assert!(
            packed.len() * 3 < plan.encode().len() * 8,
            "packed must be at least ~3x smaller than the u64 encoding"
        );
        let decoded = SamplingPlan::decode_packed(n, domain, &packed).unwrap();
        assert_eq!(decoded.cells(), plan.cells());
        assert_eq!(decoded.total_samples(), plan.total_samples());
        for i in 0..plan.cells().len() {
            assert_eq!(decoded.cell_offset(i), plan.cell_offset(i));
        }
    }

    #[test]
    fn packed_golden() {
        let domain = BoxRegion::new([4; 3], [8; 3]);
        let plan = SamplingPlan::build(16, domain, &RateSchedule::paper_default(4, 4));
        let packed = plan.encode_packed();
        // 64 cells of 11 bytes: pinned by length, digest and the first two.
        assert_eq!(packed.len(), 704);
        assert_eq!(lcc_obs::codec::fnv1a64(&packed), 0x1184_268a_4bdb_9bce);
        assert_eq!(
            lcc_obs::codec::hex(&packed[..22]),
            "00000000000001080000000000000004000108000000"
        );
    }

    #[test]
    fn packed_decode_rejects_garbage() {
        let domain = BoxRegion::new([0; 3], [4; 3]);
        assert!(SamplingPlan::decode_packed(8, domain, &[0u8; 7]).is_err());
        // count = 7 is not a cube
        let mut rec = vec![0u8; 11];
        rec[7] = 7;
        assert!(SamplingPlan::decode_packed(8, domain, &rec).is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        let domain = BoxRegion::new([0; 3], [4; 3]);
        assert!(SamplingPlan::decode(8, domain, &[1, 2, 3], 0).is_err());
        // Non-cube sample count.
        let bad = vec![0, 0, 0, 1, 0];
        assert!(SamplingPlan::decode(8, domain, &bad, 7).is_err());
    }

    #[test]
    fn retained_z_contains_domain_planes() {
        let n = 64;
        let k = 16;
        let domain = centered_domain(n, k);
        let plan = SamplingPlan::build(n, domain, &RateSchedule::paper_default(k, 16));
        let zs = plan.retained_z();
        for z in domain.lo[2]..domain.hi[2] {
            assert!(zs.contains(&z), "domain plane z={z} must be retained");
        }
        assert!(zs.len() < n, "some planes must be dropped");
        let mut sorted = zs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, zs, "retained_z must be sorted unique");
    }

    /// The plane and row tables by brute force: every sample position of
    /// every cell.
    fn brute_force_tables(plan: &SamplingPlan) -> (Vec<usize>, Vec<Vec<usize>>) {
        let n = plan.n();
        let mut hit = vec![vec![false; n]; n]; // [z][x]
        for c in plan.cells() {
            for p in c.sample_positions() {
                hit[p[2]][p[0]] = true;
            }
        }
        let planes: Vec<usize> = (0..n).filter(|&z| hit[z].contains(&true)).collect();
        let rows = planes
            .iter()
            .map(|&z| (0..n).filter(|&x| hit[z][x]).collect())
            .collect();
        (planes, rows)
    }

    fn assert_tables(plan: &SamplingPlan) {
        let (planes, rows) = brute_force_tables(plan);
        assert_eq!(plan.retained_z(), planes);
        assert_eq!(plan.retained_plane_count(), planes.len());
        for z in 0..plan.n() {
            let want = planes
                .iter()
                .position(|&p| p == z)
                .map_or(&[][..], |i| &rows[i]);
            assert_eq!(&plan.sampled_rows(z).collect::<Vec<_>>(), want, "plane {z}");
        }
        assert_eq!(
            plan.sampled_row_count(),
            rows.iter().map(Vec::len).sum::<usize>()
        );
        // The row table numbers the sampled rows plane after plane.
        let mut table = vec![u32::MAX; plan.row_table_len()];
        plan.fill_row_table(&mut table);
        let mut next = 0;
        for (&z, rows) in planes.iter().zip(&rows) {
            for &x in rows {
                assert_eq!(table[table[z] as usize + x], next, "row {x} of plane {z}");
                next += 1;
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The tables `build`, `decode` and `decode_packed` compute equal a
        /// brute-force walk over every sample, for every schedule shape,
        /// including grids wider than one 64-bit row word.
        #[test]
        fn plane_and_row_tables_match_brute_force(
            n_log in 1usize..=7,
            k_pick in 0usize..8,
            kind in 0usize..4,
            rate_log in 0u32..=4,
            lo_pick in (0usize..256, 0usize..256, 0usize..256),
        ) {
            let n = 1usize << n_log;
            let k = 1usize << (k_pick % n_log.max(1)).min(n_log);
            let lo = [lo_pick.0, lo_pick.1, lo_pick.2].map(|l| l % (n - k + 1));
            let domain = BoxRegion::new(lo, lo.map(|l| l + k));
            let schedule = match kind {
                0 => RateSchedule::uniform(1 << rate_log),
                1 => RateSchedule::paper_default(k, 16),
                2 => RateSchedule::for_kernel_spread(k, 1.5, 8),
                _ => RateSchedule::paper_default(k, 8).with_boundary_shell(1, 2),
            };
            let plan = SamplingPlan::build(n, domain, &schedule);
            assert_tables(&plan);
            let decoded =
                SamplingPlan::decode(n, domain, &plan.encode(), plan.total_samples() as u64)
                    .unwrap();
            assert_tables(&decoded);
            proptest::prop_assert_eq!(&decoded.table, &plan.table);
            let packed = SamplingPlan::decode_packed(n, domain, &plan.encode_packed()).unwrap();
            assert_tables(&packed);
            proptest::prop_assert_eq!(&packed.table, &plan.table);
        }
    }

    #[test]
    fn decoders_reject_cells_outside_the_grid() {
        let domain = BoxRegion::new([0; 3], [4; 3]);
        // One rate-1 cell of size 8 at x = 4 pokes out of an 8³ grid.
        assert!(SamplingPlan::decode(8, domain, &[4, 0, 0, 1, 0], 512).is_err());
        assert!(SamplingPlan::decode(8, domain, &[0, 0, 0, 1, 0], 512).is_ok());
        let mut rec = vec![0u8; 11];
        rec[0] = 4;
        rec[7..11].copy_from_slice(&512u32.to_le_bytes());
        assert!(SamplingPlan::decode_packed(8, domain, &rec).is_err());
        rec[0] = 0;
        assert!(SamplingPlan::decode_packed(8, domain, &rec).is_ok());
        // A rate exponent past u32 is an error, not an overflow.
        rec[6] = 40;
        assert!(SamplingPlan::decode_packed(8, domain, &rec).is_err());
    }

    #[test]
    fn sample_positions_in_cell_bounds() {
        let n = 32;
        let plan = SamplingPlan::build(
            n,
            BoxRegion::new([8; 3], [16; 3]),
            &RateSchedule::paper_default(8, 8),
        );
        for c in plan.cells() {
            let count = c.sample_positions().count();
            assert_eq!(count, c.sample_count());
            for p in c.sample_positions() {
                assert!(c.region().contains(p), "sample {p:?} outside {c:?}");
            }
        }
    }

    #[test]
    fn cum_is_prefix_sum() {
        let n = 32;
        let plan = SamplingPlan::build(
            n,
            BoxRegion::new([0; 3], [8; 3]),
            &RateSchedule::paper_default(8, 8),
        );
        let mut acc = 0u64;
        for (i, c) in plan.cells().iter().enumerate() {
            assert_eq!(plan.cell_offset(i), acc);
            acc += c.sample_count() as u64;
        }
        assert_eq!(plan.total_samples() as u64, acc);
    }

    #[test]
    fn off_center_domain_ok() {
        let n = 64;
        // Domain touching the grid corner.
        let domain = BoxRegion::new([0; 3], [16; 3]);
        let plan = SamplingPlan::build(n, domain, &RateSchedule::paper_default(16, 16));
        plan.verify_tiling().unwrap();
    }

    #[test]
    fn uniform_schedule_keeps_structure_small() {
        let n = 64;
        let domain = BoxRegion::new([16; 3], [32; 3]);
        let adaptive = SamplingPlan::build(n, domain, &RateSchedule::paper_default(16, 16));
        let uniform = SamplingPlan::build(n, domain, &RateSchedule::uniform(8));
        assert!(uniform.cells().len() <= adaptive.cells().len());
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_pow2_grid_rejected() {
        SamplingPlan::build(
            24,
            BoxRegion::new([0; 3], [8; 3]),
            &RateSchedule::uniform(2),
        );
    }

    #[test]
    fn integer_cbrt_cases() {
        assert_eq!(integer_cbrt(1), Some(1));
        assert_eq!(integer_cbrt(27), Some(3));
        assert_eq!(integer_cbrt(4096), Some(16));
        assert_eq!(integer_cbrt(26), None);
        assert_eq!(integer_cbrt(0), None);
    }
}
