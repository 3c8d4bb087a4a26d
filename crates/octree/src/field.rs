//! Compressed fields: sample storage, capture, reconstruction.
//!
//! A [`CompressedField`] is the unit that workers exchange in the paper's
//! single accumulation round: the octree metadata (shared as a
//! [`SamplingPlan`]) plus one f64 per retained sample. Reconstruction
//! interpolates trilinearly inside each cell from its sample lattice —
//! "exchange of samples between the workers in the last step followed by
//! interpolation gives us the approximate result of the full convolution"
//! (§3.1).
//!
//! **Capture.** The pipeline leaves its result as the rows the plan
//! samples, packed plane after plane. [`CompressedField::from_rows`]
//! reads every sample from them in one pass over the cells, each cell's
//! samples written in order, through a `(z, x) → row` table
//! ([`SamplingPlan::fill_row_table`]) that the caller carves from its own
//! scratch. [`CompressedField::capture_plane`] captures one dense plane.
//!
//! **Recycled samples.** A field's sample buffer goes back to a
//! process-wide free list when the field drops, and new fields
//! ([`CompressedField::zeros`], payload decoding, clones) take the
//! smallest buffer there that fits before they allocate, unless it is more
//! than twice the size they need: a small field never holds a large
//! buffer, so live buffers hold at most twice the samples their fields
//! use. The list frees its smallest buffers whenever the bytes it holds
//! plus those of live buffers would exceed the most that live buffers
//! ever held at once, so it keeps no more memory than the peak the program
//! already reached (at most twice the peak of live samples), and needs no
//! option or cap. A warm op that drops its fields and makes the same ones
//! again therefore takes no fresh pages for them.

// lcc-lint: hot-path — capture and the sample free list; only a miss allocates.

use std::sync::{Arc, Mutex, PoisonError};

use lcc_grid::{BoxRegion, Grid3};

use crate::plan::{OctCell, SamplingPlan};
use crate::reconstruct;

/// A field compressed under a sampling plan.
#[derive(Debug)]
pub struct CompressedField {
    plan: Arc<SamplingPlan>,
    samples: Vec<f64>,
}

/// Idle sample buffers and the bytes of live ones (module doc, "Recycled
/// samples"). Bytes are capacities: what a buffer holds, not what it uses.
struct SamplePool {
    /// Idle buffers, ascending by capacity. They keep their last contents:
    /// a taker that overwrites every sample need not zero them first.
    idle: Vec<Vec<f64>>,
    idle_bytes: usize,
    /// Bytes of the buffers live fields hold.
    live_bytes: usize,
    /// The most `live_bytes` has been.
    high_water: usize,
}

impl SamplePool {
    const fn new() -> Self {
        SamplePool {
            idle: Vec::new(), // lcc-lint: allow(alloc) — const, allocates nothing
            idle_bytes: 0,
            live_bytes: 0,
            high_water: 0,
        }
    }

    /// A buffer with room for `len` samples, now live, holding stale
    /// samples or none: the smallest idle one that fits, if it holds at
    /// most `2·len`, else a fresh one of exactly `len`. So no live buffer
    /// is more than twice the size its field asked for. Then idle buffers,
    /// smallest first, are freed until idle and live bytes together are
    /// within the high-water of live bytes.
    fn take(&mut self, len: usize) -> Vec<f64> {
        let at = self.idle.partition_point(|b| b.capacity() < len);
        let fits = |b: &Vec<f64>| b.capacity() - len <= len;
        let buf = if self.idle.get(at).is_some_and(fits) {
            let buf = self.idle.remove(at);
            self.idle_bytes -= bytes(&buf);
            buf
        } else {
            Vec::with_capacity(len) // lcc-lint: allow(alloc) — a free-list miss
        };
        self.live_bytes += bytes(&buf);
        self.high_water = self.high_water.max(self.live_bytes);
        while self.idle_bytes + self.live_bytes > self.high_water {
            let freed = self.idle.remove(0);
            self.idle_bytes -= bytes(&freed);
        }
        buf
    }

    /// Takes back a live buffer. Its bytes move from live to idle, so the
    /// two together stay within the high-water.
    fn give(&mut self, buf: Vec<f64>) {
        let b = bytes(&buf);
        if b == 0 {
            return;
        }
        self.live_bytes -= b;
        let at = self.idle.partition_point(|x| x.capacity() < buf.capacity());
        self.idle.insert(at, buf);
        self.idle_bytes += b;
    }
}

/// Bytes a sample buffer holds.
fn bytes(buf: &Vec<f64>) -> usize {
    buf.capacity() * std::mem::size_of::<f64>()
}

/// The process's free list. A poisoned lock is recovered: no update can
/// panic half way, so the list is valid after any panic elsewhere.
static SAMPLE_POOL: Mutex<SamplePool> = Mutex::new(SamplePool::new());

/// A sample buffer with room for `len` samples, from the free list; it may
/// hold stale samples.
fn sample_buffer(len: usize) -> Vec<f64> {
    SAMPLE_POOL
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take(len)
}

impl Drop for CompressedField {
    fn drop(&mut self) {
        let samples = std::mem::take(&mut self.samples);
        SAMPLE_POOL
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .give(samples);
    }
}

impl Clone for CompressedField {
    fn clone(&self) -> Self {
        let mut samples = sample_buffer(self.samples.len());
        samples.clear();
        samples.extend_from_slice(&self.samples);
        CompressedField {
            plan: Arc::clone(&self.plan),
            samples,
        }
    }
}

/// The rows a capture reads (see [`CompressedField::from_rows`]).
#[derive(Clone, Copy)]
struct Rows<'a> {
    rows: &'a [f64],
    stride: usize,
    shift: usize,
    table: &'a [u32],
}

/// Captures the samples of every cell of `plan` into `out`, which holds
/// exactly those samples, from `src`: each cell in turn, its samples
/// written in order. Rates are powers of two, so no step divides.
fn capture_cells(plan: &SamplingPlan, out: &mut [f64], src: Rows<'_>) {
    let n = plan.n();
    let mut rest = out;
    for cell in plan.cells() {
        let spa = cell.samples_per_axis();
        let (out, tail) = std::mem::take(&mut rest).split_at_mut(spa * spa * spa);
        rest = tail;
        // Most cells hold 2³ or 4³ samples: a fixed size unrolls them.
        match spa {
            1 => capture_cell::<1>(cell, out, src, n),
            2 => capture_cell::<2>(cell, out, src, n),
            4 => capture_cell::<4>(cell, out, src, n),
            _ => capture_large_cell(cell, out, src, n),
        }
    }
}

/// The columns of a cell's samples along y in the rotated rows: from its
/// corner's, `r` apart, wrapping past the row's end.
fn columns(cell: &OctCell, src: Rows<'_>, n: usize) -> impl Iterator<Item = usize> {
    let r = cell.rate as usize;
    let j0 = cell.corner[1] + n - src.shift;
    let mut col = if j0 >= n { j0 - n } else { j0 };
    std::iter::repeat_with(move || {
        let c = col;
        col += r;
        if col >= n {
            col -= n;
        }
        c
    })
}

/// One cell of `S³` samples into `out`, in order (tx, ty, tz), tz fastest.
fn capture_cell<const S: usize>(cell: &OctCell, out: &mut [f64], src: Rows<'_>, n: usize) {
    let r = cell.rate as usize;
    let mut cols = columns(cell, src, n);
    let cols: [usize; S] = std::array::from_fn(|_| cols.next().unwrap_or(0));
    let planes: [usize; S] =
        std::array::from_fn(|tz| src.table[cell.corner[2] + tz * r] as usize + cell.corner[0]);
    for (tx, out) in out.chunks_exact_mut(S * S).enumerate() {
        let rows: [&[f64]; S] = std::array::from_fn(|tz| {
            &src.rows[src.table[planes[tz] + tx * r] as usize * src.stride..][..n]
        });
        for (&col, out) in cols.iter().zip(out.chunks_exact_mut(S)) {
            for (out, row) in out.iter_mut().zip(&rows) {
                *out = row[col];
            }
        }
    }
}

/// [`capture_cell`] for a cell of any size, a row at a time.
fn capture_large_cell(cell: &OctCell, out: &mut [f64], src: Rows<'_>, n: usize) {
    let (r, spa) = (cell.rate as usize, cell.samples_per_axis());
    for tz in 0..spa {
        let plane = src.table[cell.corner[2] + tz * r] as usize + cell.corner[0];
        for tx in 0..spa {
            let row = &src.rows[src.table[plane + tx * r] as usize * src.stride..][..n];
            // Sample (tx, ty, tz) is at `(tx·spa + ty)·spa + tz`.
            let out = out[tx * spa * spa + tz..].iter_mut().step_by(spa);
            for (out, col) in out.zip(columns(cell, src, n)).take(spa) {
                *out = row[col];
            }
        }
    }
}

impl CompressedField {
    /// Creates an all-zero compressed field for `plan`.
    pub fn zeros(plan: Arc<SamplingPlan>) -> Self {
        let len = plan.total_samples();
        let mut samples = sample_buffer(len);
        samples.clear();
        samples.resize(len, 0.0);
        CompressedField { plan, samples }
    }

    /// Compresses a dense grid by sampling it at the plan's lattice points.
    pub fn compress(plan: Arc<SamplingPlan>, dense: &Grid3<f64>) -> Self {
        let n = plan.n();
        assert_eq!(dense.shape(), (n, n, n), "grid shape must match plan");
        let mut field = CompressedField::zeros(plan);
        field.capture_fn(|x, y, z| dense[(x, y, z)]);
        field
    }

    /// Compresses a field given as a function of the grid point — used when
    /// the dense result never exists in memory.
    pub fn compress_with(plan: Arc<SamplingPlan>, f: impl Fn(usize, usize, usize) -> f64) -> Self {
        let mut field = CompressedField::zeros(plan);
        field.capture_fn(f);
        field
    }

    fn capture_fn(&mut self, f: impl Fn(usize, usize, usize) -> f64) {
        let (plan, samples) = (&*self.plan, &mut self.samples);
        for (i, cell) in plan.cells().iter().enumerate() {
            let base = plan.cell_offset(i) as usize;
            for (j, p) in cell.sample_positions().enumerate() {
                samples[base + j] = f(p[0], p[1], p[2]);
            }
        }
    }

    /// Captures one dense z-plane: for every sample the plan retains at
    /// height `z`, reads `plane[x * n + y]` (row-major N×N plane).
    pub fn capture_plane(&mut self, z: usize, plane: &[f64]) {
        let plan = &*self.plan;
        let n = plan.n();
        assert_eq!(plane.len(), n * n, "plane must be N×N row-major");
        let mut captured = 0u64;
        for (i, cell) in plan.cells().iter().enumerate() {
            // Most cells miss the plane: one subtraction and a mask (rates
            // are powers of two) reject them without a division.
            let r = cell.rate as usize;
            let dz = z.wrapping_sub(cell.corner[2]);
            if dz >= cell.size || dz & (r - 1) != 0 {
                continue;
            }
            let tz = dz >> r.trailing_zeros();
            let spa = cell.samples_per_axis();
            let base = plan.cell_offset(i) as usize;
            for tx in 0..spa {
                let row = &plane[(cell.corner[0] + tx * r) * n..][..n];
                // Sample (tx, ty, tz) is at `base + (tx·spa + ty)·spa + tz`.
                let out = &mut self.samples[base + tx * spa * spa + tz..];
                for ty in 0..spa {
                    out[ty * spa] = row[cell.corner[1] + ty * r];
                }
            }
            captured += (spa * spa) as u64;
        }
        lcc_obs::metrics::OCTREE_SAMPLES_CAPTURED.add(captured);
    }

    /// A field under `plan` captured from the rows the plan samples
    /// ([`SamplingPlan::sampled_rows`]), plane after plane and ascending
    /// within a plane, each `stride ≥ n` values long with its columns
    /// rotated by `shift < n`: the field at `(x, y, z)` is
    /// `rows[r·stride + (y − shift) mod n]`, `r = table[table[z] + x]` the
    /// row's position, from the table [`SamplingPlan::fill_row_table`]
    /// filled for this field's plan.
    ///
    /// This is the form the pipeline's last inverse transform leaves: it
    /// c2r's only the sampled rows, packed one after the other; a c2r row
    /// of `n/2 + 1` complex packs its `n` reals in order, so the rows are
    /// real rows of stride `n + 2` (`n + 1` for odd `n`), and a sub-domain
    /// convolved at the origin reaches its true position `c` as a circular
    /// shift (the x shift is applied to the rows before they get here, the
    /// y shift is `c_y`).
    ///
    /// One pass over the cells, on the caller, writes each cell's samples
    /// in order (module doc), into a recycled buffer it need not zero
    /// first.
    pub fn from_rows(
        plan: Arc<SamplingPlan>,
        rows: &[f64],
        stride: usize,
        shift: usize,
        table: &[u32],
    ) -> Self {
        let (n, count) = (plan.n(), plan.sampled_row_count());
        assert!(stride >= n && shift < n, "rows must hold n values");
        assert!(
            count == 0 || rows.len() >= (count - 1) * stride + n,
            "rows must hold the plan's sampled rows"
        );
        assert!(table.len() >= plan.row_table_len(), "row table too short");
        let src = Rows {
            rows,
            stride,
            shift,
            table,
        };
        let total = plan.total_samples();
        // Every sample is written below, so stale ones need no zeroing.
        let mut samples = sample_buffer(total);
        samples.resize(total, 0.0);
        capture_cells(&plan, &mut samples, src);
        lcc_obs::metrics::OCTREE_SAMPLES_CAPTURED.add(total as u64);
        CompressedField { plan, samples }
    }

    /// The plan this field was sampled under.
    pub fn plan(&self) -> &Arc<SamplingPlan> {
        &self.plan
    }

    /// Raw sample values in plan order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mutable raw samples (for accumulation).
    pub fn samples_mut(&mut self) -> &mut [f64] {
        &mut self.samples
    }

    /// Wire size of this message: samples + metadata, in bytes.
    pub fn message_bytes(&self) -> usize {
        self.plan.compressed_bytes()
    }

    /// Adds another compressed field sampled under an *identical* plan:
    /// the same plan, or one with the same cells in the same order. Equal
    /// sample counts are not enough — the plans of two translated domains
    /// usually have them, and their samples belong to different cells.
    pub fn accumulate(&mut self, other: &CompressedField) {
        assert!(
            Arc::ptr_eq(&self.plan, &other.plan) || self.plan.cells() == other.plan.cells(),
            "accumulate requires identical plans"
        );
        for (a, b) in self.samples.iter_mut().zip(&other.samples) {
            *a += *b;
        }
    }

    /// Extracts the payload a worker owning `region` needs: the samples of
    /// every cell intersecting the region, tagged by cell index. This is
    /// what actually crosses the network in a distributed accumulation —
    /// each worker receives only its share, not the full sample set.
    pub fn region_payload(&self, region: &BoxRegion) -> RegionPayload {
        let plan = &self.plan;
        let cells = plan.cells_intersecting(region);
        // lcc-lint: allow(alloc) — the payload leaves for another worker.
        let mut samples = Vec::new();
        for &i in &cells {
            let base = plan.cell_offset(i) as usize;
            let count = plan.cells()[i].sample_count();
            samples.extend_from_slice(&self.samples[base..base + count]);
        }
        RegionPayload {
            cells: cells.iter().map(|&i| i as u32).collect(),
            samples,
        }
    }

    /// Rebuilds a (partial) compressed field from a region payload. Cells
    /// not present stay zero; reconstruction is only valid inside the
    /// region the payload was extracted for.
    ///
    /// Panics on a payload that does not fit the plan; a payload that came
    /// off the wire goes through [`Self::try_from_region_payload`].
    pub fn from_region_payload(plan: Arc<SamplingPlan>, payload: &RegionPayload) -> Self {
        Self::try_from_region_payload(plan, payload).expect("region payload must fit the plan")
    }

    /// [`Self::from_region_payload`] for a payload from outside the
    /// program: the cell ids must be strictly ascending indices into the
    /// plan (what [`Self::region_payload`] produces) and the sample vector
    /// exactly as long as those cells' sample counts add up to.
    pub fn try_from_region_payload(
        plan: Arc<SamplingPlan>,
        payload: &RegionPayload,
    ) -> Result<Self, PayloadError> {
        let cells = plan.cells();
        let mut expected = 0usize;
        for (at, &id) in payload.cells.iter().enumerate() {
            let cell = cells.get(id as usize).ok_or(PayloadError::CellOutOfRange {
                id,
                cells: cells.len(),
            })?;
            if at > 0 && payload.cells[at - 1] >= id {
                return Err(PayloadError::CellsNotAscending { at });
            }
            expected += cell.sample_count();
        }
        if expected != payload.samples.len() {
            return Err(PayloadError::SampleLength {
                expected,
                got: payload.samples.len(),
            });
        }
        let mut field = CompressedField::zeros(plan);
        let mut off = 0;
        for &id in &payload.cells {
            let base = field.plan.cell_offset(id as usize) as usize;
            let count = field.plan.cells()[id as usize].sample_count();
            field.samples[base..base + count].copy_from_slice(&payload.samples[off..off + count]);
            off += count;
        }
        Ok(field)
    }

    /// Reconstructs the full dense grid by per-cell trilinear interpolation.
    pub fn reconstruct(&self) -> Grid3<f64> {
        let n = self.plan.n();
        self.reconstruct_region(&BoxRegion::cube(n))
    }

    /// Reconstructs only `region`, returning a dense grid of the region's
    /// shape. This is what a worker evaluates for its own sub-domain during
    /// accumulation. Points of the region outside the grid stay zero (see
    /// [`Self::add_region_into_slice`]).
    pub fn reconstruct_region(&self, region: &BoxRegion) -> Grid3<f64> {
        let (sx, sy, sz) = region.size();
        let mut out = Grid3::zeros((sx, sy, sz));
        self.add_region_into(region, &mut out, 1.0);
        out
    }

    /// Adds `scale ×` the reconstruction of `region` into `out` (shape must
    /// equal the region's). Used to accumulate many domains' contributions
    /// without intermediate allocations.
    pub fn add_region_into(&self, region: &BoxRegion, out: &mut Grid3<f64>, scale: f64) {
        assert_eq!(out.shape(), region.size(), "output shape must match region");
        self.add_region_into_slice(region, out.as_mut_slice(), scale);
    }

    /// [`Self::add_region_into`] on the region's row-major buffer, so a
    /// caller can hand out disjoint x-slabs of one grid (a slab is a
    /// contiguous slice) to different threads.
    ///
    /// Nothing is clipped or wrapped: cells that do not meet the region are
    /// skipped, each point of the region inside the grid receives exactly
    /// one cell's interpolant, and points of the region outside the grid
    /// `[0, n)³` lie in no cell and stay untouched.
    pub fn add_region_into_slice(&self, region: &BoxRegion, out: &mut [f64], scale: f64) {
        assert_eq!(
            out.len(),
            region.volume(),
            "output length must match region"
        );
        let _sp = lcc_obs::span("octree_add_region");
        self.add_cells_into_slice(|_| true, region, out, scale);
    }

    /// [`Self::add_region_into_slice`] (scale 1) restricted to the cells of
    /// rate 1, whose samples are their values: the part of a fold that
    /// [`CellSums`](crate::CellSums) does not sum.
    pub fn add_rate1_into_slice(&self, region: &BoxRegion, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            region.volume(),
            "output length must match region"
        );
        self.add_cells_into_slice(|cell| cell.rate == 1, region, out, 1.0);
    }

    /// Adds `scale ×` the reconstruction of the cells `keep` accepts.
    fn add_cells_into_slice(
        &self,
        keep: impl Fn(&OctCell) -> bool,
        region: &BoxRegion,
        out: &mut [f64],
        scale: f64,
    ) {
        let plan = &*self.plan;
        let cells = plan.x_candidates(region.lo[0], region.hi[0]);
        let first = cells.start;
        let offset = |i| plan.cell_offset(first + i) as usize;
        let cells = &plan.cells()[cells];
        reconstruct::add_cells(cells, &self.samples, offset, keep, region, out, scale);
    }

    /// The per-point form of [`Self::add_region_into`] that the streaming
    /// kernel replaced: the oracle its outputs must equal bit for bit.
    #[cfg(test)]
    fn add_region_into_per_point(&self, region: &BoxRegion, out: &mut Grid3<f64>, scale: f64) {
        assert_eq!(out.shape(), region.size(), "output shape must match region");
        let plan = &self.plan;
        for (i, cell) in plan.cells().iter().enumerate() {
            let Some(overlap) = cell.region().intersect(region) else {
                continue;
            };
            let base = plan.cell_offset(i) as usize;
            let spa = cell.samples_per_axis();
            let r = cell.rate as usize;
            let sample = |tx: usize, ty: usize, tz: usize| -> f64 {
                self.samples[base + cell.local_sample_index(tx, ty, tz)]
            };
            for p in overlap.points() {
                // Local lattice coordinates with linear extrapolation at the
                // cell's high edge (keeps affine fields exact).
                let mut t = [0usize; 3];
                let mut frac = [0.0f64; 3];
                for a in 0..3 {
                    let l = p[a] - cell.corner[a];
                    let mut idx = l / r;
                    let mut fr = (l - idx * r) as f64 / r as f64;
                    if idx >= spa - 1 && spa >= 2 {
                        // Use the last lattice interval and extrapolate.
                        fr += (idx - (spa - 2)) as f64;
                        idx = spa - 2;
                    } else if spa == 1 {
                        idx = 0;
                        fr = 0.0;
                    }
                    t[a] = idx;
                    frac[a] = fr;
                }
                let v = if spa == 1 {
                    sample(0, 0, 0)
                } else {
                    trilinear(
                        [
                            sample(t[0], t[1], t[2]),
                            sample(t[0], t[1], t[2] + 1),
                            sample(t[0], t[1] + 1, t[2]),
                            sample(t[0], t[1] + 1, t[2] + 1),
                            sample(t[0] + 1, t[1], t[2]),
                            sample(t[0] + 1, t[1], t[2] + 1),
                            sample(t[0] + 1, t[1] + 1, t[2]),
                            sample(t[0] + 1, t[1] + 1, t[2] + 1),
                        ],
                        frac,
                    )
                };
                let o = [
                    p[0] - region.lo[0],
                    p[1] - region.lo[1],
                    p[2] - region.lo[2],
                ];
                out[(o[0], o[1], o[2])] += scale * v;
            }
        }
    }
}

/// Why a [`RegionPayload`] does not fit the plan it claims to be cut from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadError {
    /// A cell id is not an index into the plan's cells.
    CellOutOfRange {
        /// The offending id.
        id: u32,
        /// Number of cells in the plan.
        cells: usize,
    },
    /// The id at position `at` is not greater than the one before it.
    CellsNotAscending {
        /// Position of the offending id in the payload.
        at: usize,
    },
    /// The sample vector is not as long as the listed cells require.
    SampleLength {
        /// Sum of the listed cells' sample counts.
        expected: usize,
        /// Length of the payload's sample vector.
        got: usize,
    },
}

impl std::fmt::Display for PayloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            PayloadError::CellOutOfRange { id, cells } => {
                write!(f, "cell id {id} out of range for a plan of {cells} cells")
            }
            PayloadError::CellsNotAscending { at } => {
                write!(f, "cell ids not strictly ascending at position {at}")
            }
            PayloadError::SampleLength { expected, got } => {
                write!(
                    f,
                    "payload carries {got} samples, its cells hold {expected}"
                )
            }
        }
    }
}

impl std::error::Error for PayloadError {}

/// The per-region slice of a compressed field: cell indices (into the
/// shared plan) plus their samples, in cell order.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionPayload {
    /// Indices of the included cells within the plan.
    pub cells: Vec<u32>,
    /// Concatenated samples of the included cells.
    pub samples: Vec<f64>,
}

impl RegionPayload {
    /// Wire size: 4 bytes per cell id + 8 per sample.
    pub fn byte_len(&self) -> usize {
        self.cells.len() * 4 + self.samples.len() * 8
    }
}

/// Trilinear interpolation of the 8 cube corners `c[x][y][z]` flattened as
/// `c000, c001, c010, c011, c100, c101, c110, c111`, at fractions `f`.
#[cfg(test)]
fn trilinear(c: [f64; 8], f: [f64; 3]) -> f64 {
    let c00 = c[0] * (1.0 - f[2]) + c[1] * f[2];
    let c01 = c[2] * (1.0 - f[2]) + c[3] * f[2];
    let c10 = c[4] * (1.0 - f[2]) + c[5] * f[2];
    let c11 = c[6] * (1.0 - f[2]) + c[7] * f[2];
    let c0 = c00 * (1.0 - f[1]) + c01 * f[1];
    let c1 = c10 * (1.0 - f[1]) + c11 * f[1];
    c0 * (1.0 - f[0]) + c1 * f[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::RateSchedule;
    use lcc_grid::relative_l2;

    fn make_plan(n: usize, k: usize, far: u32) -> Arc<SamplingPlan> {
        let lo = (n - k) / 2;
        let domain = BoxRegion::new([lo; 3], [lo + k; 3]);
        Arc::new(SamplingPlan::build(
            n,
            domain,
            &RateSchedule::paper_default(k, far),
        ))
    }

    #[test]
    fn constant_field_reconstructs_exactly() {
        let plan = make_plan(32, 8, 8);
        let dense = Grid3::filled((32, 32, 32), 2.5);
        let c = CompressedField::compress(plan, &dense);
        let back = c.reconstruct();
        for (_, &v) in back.indexed_iter() {
            assert!((v - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn affine_field_reconstructs_exactly() {
        // Trilinear interpolation (with linear extrapolation at cell edges)
        // is exact on affine functions.
        let plan = make_plan(32, 8, 8);
        let f =
            |x: usize, y: usize, z: usize| 1.0 + 0.5 * x as f64 - 0.25 * y as f64 + 2.0 * z as f64;
        let dense = Grid3::from_fn((32, 32, 32), f);
        let c = CompressedField::compress(plan, &dense);
        let back = c.reconstruct();
        for ((x, y, z), &v) in back.indexed_iter() {
            assert!(
                (v - f(x, y, z)).abs() < 1e-9,
                "mismatch at ({x},{y},{z}): {v} vs {}",
                f(x, y, z)
            );
        }
    }

    #[test]
    fn domain_region_is_lossless() {
        // Inside the dense sub-domain every point is a sample.
        let n = 32;
        let k = 8;
        let plan = make_plan(n, k, 8);
        let dense = Grid3::from_fn((n, n, n), |x, y, z| {
            ((x * 31 + y * 17 + z * 7) % 101) as f64
        });
        let c = CompressedField::compress(plan.clone(), &dense);
        let dom = *plan.domain();
        let rec = c.reconstruct_region(&dom);
        for p in dom.points() {
            let got = rec[(p[0] - dom.lo[0], p[1] - dom.lo[1], p[2] - dom.lo[2])];
            assert!(
                (got - dense[(p[0], p[1], p[2])]).abs() < 1e-12,
                "in-domain point {p:?} must be exact"
            );
        }
    }

    #[test]
    fn decaying_field_reconstruction_error_small() {
        // A sharply decaying field like the paper's Gaussian-convolved
        // sub-domain: most energy inside the dense domain and the r=2 band,
        // negligible tail in the coarse bands. Error must beat the paper's 3%.
        let n = 64;
        let k = 16;
        let plan = make_plan(n, k, 16);
        let c0 = n as f64 / 2.0;
        let sigma = k as f64 / 4.0;
        let f = move |x: usize, y: usize, z: usize| {
            let d2 = (x as f64 - c0).powi(2) + (y as f64 - c0).powi(2) + (z as f64 - c0).powi(2);
            (-d2 / (2.0 * sigma * sigma)).exp()
        };
        let dense = Grid3::from_fn((n, n, n), f);
        let c = CompressedField::compress(plan, &dense);
        let back = c.reconstruct();
        let err = relative_l2(dense.as_slice(), back.as_slice());
        assert!(err < 0.03, "relative L2 error {err} exceeds 3%");
    }

    #[test]
    fn plane_streaming_matches_dense_compress() {
        let n = 32;
        let plan = make_plan(n, 8, 8);
        let dense = Grid3::from_fn((n, n, n), |x, y, z| {
            (x as f64 * 0.3).sin() + (y as f64 * 0.7).cos() + z as f64 * 0.01
        });
        let direct = CompressedField::compress(plan.clone(), &dense);
        let mut streamed = CompressedField::zeros(plan.clone());
        for z in plan.retained_z() {
            let mut plane = vec![0.0; n * n];
            for x in 0..n {
                for y in 0..n {
                    plane[x * n + y] = dense[(x, y, z)];
                }
            }
            streamed.capture_plane(z, &plane);
        }
        assert_eq!(direct.samples(), streamed.samples());
    }

    #[test]
    fn accumulate_adds_samples() {
        let plan = make_plan(16, 4, 4);
        let a = CompressedField::compress(plan.clone(), &Grid3::filled((16, 16, 16), 1.0));
        let mut b = CompressedField::compress(plan.clone(), &Grid3::filled((16, 16, 16), 2.0));
        b.accumulate(&a);
        for &s in b.samples() {
            assert!((s - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "accumulate requires identical plans")]
    fn accumulate_rejects_a_translated_plan_of_equal_sample_count() {
        let (n, k) = (32, 8);
        let schedule = RateSchedule::for_kernel_spread(k, 1.0, 8);
        let plan = |lo: [usize; 3]| {
            let domain = BoxRegion::new(lo, lo.map(|l| l + k));
            Arc::new(SamplingPlan::build(n, domain, &schedule))
        };
        let (a, b) = (plan([8, 8, 8]), plan([16, 8, 8]));
        assert_eq!(a.total_samples(), b.total_samples());
        assert_ne!(a.cells(), b.cells());
        let mut sum = CompressedField::zeros(a);
        sum.accumulate(&CompressedField::zeros(b));
    }

    #[test]
    fn add_region_into_scales() {
        let plan = make_plan(16, 4, 4);
        let c = CompressedField::compress(plan, &Grid3::filled((16, 16, 16), 1.0));
        let region = BoxRegion::new([2; 3], [6; 3]);
        let mut out = Grid3::zeros((4, 4, 4));
        c.add_region_into(&region, &mut out, 2.0);
        c.add_region_into(&region, &mut out, 0.5);
        for (_, &v) in out.indexed_iter() {
            assert!((v - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn region_payload_roundtrips_inside_region() {
        let n = 32;
        let plan = make_plan(n, 8, 8);
        let dense = Grid3::from_fn((n, n, n), |x, y, z| {
            (x as f64 * 0.2).sin() + y as f64 * 0.01 - (z as f64 * 0.3).cos()
        });
        let full = CompressedField::compress(plan.clone(), &dense);
        let region = BoxRegion::new([8; 3], [16; 3]);
        let payload = full.region_payload(&region);
        assert!(
            payload.samples.len() < full.samples().len(),
            "payload is a strict subset"
        );
        assert!(payload.byte_len() > 0);
        let partial = CompressedField::from_region_payload(plan, &payload);
        let a = full.reconstruct_region(&region);
        let b = partial.reconstruct_region(&region);
        assert_eq!(a, b, "partial payload reconstructs the region identically");
    }

    #[test]
    fn malformed_region_payloads_are_typed_errors() {
        let plan = make_plan(16, 4, 4);
        let full = CompressedField::compress(
            plan.clone(),
            &Grid3::from_fn((16, 16, 16), |x, _, _| x as f64),
        );
        let good = full.region_payload(&BoxRegion::new([0; 3], [8; 3]));
        assert!(good.cells.len() >= 2);
        assert!(CompressedField::try_from_region_payload(plan.clone(), &good).is_ok());
        let try_with = |edit: &dyn Fn(&mut RegionPayload)| {
            let mut bad = good.clone();
            edit(&mut bad);
            CompressedField::try_from_region_payload(plan.clone(), &bad).map(|_| ())
        };

        let cells = plan.cells().len();
        assert_eq!(
            try_with(&|p| *p.cells.last_mut().unwrap() = cells as u32),
            Err(PayloadError::CellOutOfRange {
                id: cells as u32,
                cells
            })
        );
        assert_eq!(
            try_with(&|p| p.cells[1] = p.cells[0]),
            Err(PayloadError::CellsNotAscending { at: 1 })
        );
        assert_eq!(
            try_with(&|p| p.cells.swap(0, 1)),
            Err(PayloadError::CellsNotAscending { at: 1 })
        );
        let expected = good.samples.len();
        assert_eq!(
            try_with(&|p| {
                p.samples.pop();
            }),
            Err(PayloadError::SampleLength {
                expected,
                got: expected - 1
            })
        );
        assert_eq!(
            try_with(&|p| p.samples.push(0.0)),
            Err(PayloadError::SampleLength {
                expected,
                got: expected + 1
            })
        );
    }

    #[test]
    #[should_panic(expected = "region payload must fit the plan")]
    fn from_region_payload_panics_on_a_bad_payload() {
        let plan = make_plan(16, 4, 4);
        let payload = RegionPayload {
            cells: vec![u32::MAX],
            samples: Vec::new(),
        };
        CompressedField::from_region_payload(plan, &payload);
    }

    #[test]
    fn region_beyond_the_grid_stays_untouched_outside_it() {
        // Nothing clips or wraps: the part of the region inside the grid is
        // reconstructed, the part outside lies in no cell and keeps its value.
        let n = 16;
        let plan = make_plan(n, 4, 4);
        let dense = Grid3::from_fn((n, n, n), |x, y, z| (x * 3 + y * 5 + z * 7) as f64);
        let field = CompressedField::compress(plan, &dense);
        let region = BoxRegion::new([12, 0, 10], [20, 16, 18]);
        let mut out = Grid3::filled(region.size(), -1.0);
        field.add_region_into(&region, &mut out, 1.0);
        let inside = BoxRegion::new([12, 0, 10], [16, 16, 16]);
        let want = field.reconstruct_region(&inside);
        for ((x, y, z), &v) in out.indexed_iter() {
            if x < 4 && z < 6 {
                assert_eq!(v, -1.0 + want[(x, y, z)]);
            } else {
                assert_eq!(v, -1.0, "point outside the grid was written");
            }
        }
        // A region wholly outside meets no cell at all.
        let far = BoxRegion::new([n; 3], [n + 2; 3]);
        assert!(field
            .reconstruct_region(&far)
            .as_slice()
            .iter()
            .all(|&v| v == 0.0));
    }

    /// A plan `SamplingPlan::build` never produces: size-2 cells that
    /// alternate between one sample (`spa == 1`, rate 2) and eight.
    fn single_sample_cell_plan(n: usize) -> Arc<SamplingPlan> {
        let mut encoded = Vec::new();
        let mut before = 0u64;
        for x in (0..n).step_by(2) {
            for y in (0..n).step_by(2) {
                for z in (0..n).step_by(2) {
                    let single = (x + y + z) % 4 == 0;
                    let rate = if single { 2 } else { 1 };
                    encoded.extend([x as u64, y as u64, z as u64, rate, before]);
                    before += if single { 1 } else { 8 };
                }
            }
        }
        let plan = SamplingPlan::decode(n, BoxRegion::cube(n), &encoded, before).unwrap();
        assert!(plan.cells().iter().any(|c| c.samples_per_axis() == 1));
        Arc::new(plan)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The streaming kernel equals the per-point form bit for bit, for
        /// every plan shape, region shape and scale.
        #[test]
        fn streaming_kernel_matches_per_point_oracle(
            n_log in 4usize..=6,
            k_log in 1usize..=4,
            plan_kind in 0usize..5,
            rate_log in 1u32..=3,
            region_kind in 0usize..4,
            picks in proptest::collection::vec(0usize..1 << 16, 12),
            scale in -3.0f64..3.0,
        ) {
            let n = 1 << n_log;
            let k = 1 << k_log.min(n_log - 1);
            let lo: [usize; 3] = std::array::from_fn(|a| picks[a] % (n - k + 1));
            let domain = BoxRegion::new(lo, lo.map(|l| l + k));
            let plan = match plan_kind {
                0 => Arc::new(SamplingPlan::build(n, domain, &RateSchedule::paper_default(k, 16))),
                1 => Arc::new(SamplingPlan::build(
                    n,
                    domain,
                    &RateSchedule::for_kernel_spread(k, 1.5, 16),
                )),
                2 => Arc::new(SamplingPlan::build(n, domain, &RateSchedule::uniform(1))),
                3 => Arc::new(SamplingPlan::build(n, domain, &RateSchedule::uniform(1 << rate_log))),
                _ => single_sample_cell_plan(n),
            };
            let seed = picks[3] as f64;
            let field = CompressedField::compress_with(plan, |x, y, z| {
                ((x * 131 + y * 31 + z * 7) as f64 * 0.37 + seed).sin() * 1e3
            });

            // A random box cuts cells on every face; the other shapes are
            // the ones callers use: one plane, one x-slab, the whole cube.
            let mut lo: [usize; 3] = std::array::from_fn(|a| picks[4 + a] % n);
            let mut hi: [usize; 3] = std::array::from_fn(|a| lo[a] + 1 + picks[7 + a] % (n - lo[a]));
            match region_kind {
                0 => {}
                1 => {
                    let a = picks[10] % 3;
                    hi[a] = lo[a] + 1;
                }
                2 => {
                    (lo[1], lo[2], hi[1], hi[2]) = (0, 0, n, n);
                }
                _ => (lo, hi) = ([0; 3], [n; 3]),
            }
            let region = BoxRegion::new(lo, hi);

            let start = Grid3::from_fn(region.size(), |x, y, z| (x + 2 * y + 3 * z) as f64 * 0.25);
            let mut want = start.clone();
            field.add_region_into_per_point(&region, &mut want, scale);
            let mut got = start;
            field.add_region_into(&region, &mut got, scale);
            for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                proptest::prop_assert!(
                    g.to_bits() == w.to_bits(),
                    "point {:?} of {region:?}: {g:e} vs {w:e}",
                    got.unlinear(i)
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The one-pass row capture (`from_rows`) equals the per-sample capture of
        /// `compress_with` bit for bit: power-of-two grids, every shift (so
        /// cells wrap in y), uniform rates 1-16, the paper's schedules and
        /// single-sample cells, planes without a sampled row, rows wider
        /// than `n`, and table entries the plan does not use left stale.
        #[test]
        fn row_capture_matches_per_sample_oracle(
            n_log in 1usize..=6,
            k_log in 0usize..=4,
            plan_kind in 0usize..4,
            rate_log in 0usize..=4,
            shift in 0usize..64,
            pad in 0usize..3,
            lo in (0usize..64, 0usize..64, 0usize..64),
        ) {
            let n = 1usize << n_log;
            let k = 1usize << k_log.min(n_log - 1);
            let shift = shift % n;
            let lo = [lo.0, lo.1, lo.2].map(|l| l % (n - k + 1));
            let domain = BoxRegion::new(lo, lo.map(|l| l + k));
            let plan = match plan_kind {
                0 => Arc::new(SamplingPlan::build(
                    n,
                    domain,
                    &RateSchedule::uniform(1 << rate_log.min(n_log)),
                )),
                1 => Arc::new(SamplingPlan::build(n, domain, &RateSchedule::paper_default(k, 16))),
                2 => Arc::new(SamplingPlan::build(
                    n,
                    domain,
                    &RateSchedule::for_kernel_spread(k, 1.5, 8),
                )),
                _ => single_sample_cell_plan(n.max(2)),
            };
            let f = |x: usize, y: usize, z: usize| {
                ((x * 131 + y * 31 + z * 7) as f64 * 0.37).sin() * 1e3
            };
            let want = CompressedField::compress_with(plan.clone(), f);

            let stride = n + pad;
            let mut rows = vec![f64::NAN; plan.sampled_row_count() * stride];
            let mut r = 0;
            for z in plan.retained_planes() {
                for x in plan.sampled_rows(z) {
                    for y in 0..n {
                        rows[r * stride + (y + n - shift) % n] = f(x, y, z);
                    }
                    r += 1;
                }
            }
            let mut table = vec![u32::MAX; plan.row_table_len()];
            plan.fill_row_table(&mut table);
            // Leave a buffer of stale samples on the free list.
            let mut stale = CompressedField::zeros(plan.clone());
            stale.samples_mut().fill(f64::NAN);
            drop(stale);
            let got = CompressedField::from_rows(plan.clone(), &rows, stride, shift, &table);
            for (i, (a, b)) in got.samples().iter().zip(want.samples()).enumerate() {
                proptest::prop_assert!(
                    a.to_bits() == b.to_bits(),
                    "n={n} plan #{plan_kind} shift {shift} sample {i}: {a:e} vs {b:e}"
                );
            }
        }

        /// The free list never holds more than the most bytes live buffers
        /// ever held at once, counting its own bytes together with the live
        /// ones; no buffer is more than twice the length asked for, so that
        /// is at most twice the most samples ever live at once, whatever
        /// the mix of sizes; and a pool that took back every buffer serves
        /// the same lengths again, in any order, without a fresh one.
        #[test]
        fn free_list_never_holds_more_than_the_live_high_water(
            ops in proptest::collection::vec((0usize..3, 1usize..4096), 1..64),
            order in 0usize..1 << 16,
        ) {
            let mut pool = SamplePool::new();
            // Each live buffer with the length it was taken for.
            let mut live: Vec<(Vec<f64>, usize)> = Vec::new();
            let (mut high, mut high_used) = (0, 0);
            for (kind, len) in ops {
                if kind == 0 && !live.is_empty() {
                    pool.give(live.swap_remove(len % live.len()).0);
                } else {
                    let buf = pool.take(len);
                    proptest::prop_assert!(buf.capacity() >= len && buf.capacity() <= 2 * len);
                    live.push((buf, len));
                }
                let held: usize = live.iter().map(|(b, _)| bytes(b)).sum();
                let used: usize = live.iter().map(|&(_, len)| 8 * len).sum();
                high = high.max(held);
                high_used = high_used.max(used);
                proptest::prop_assert_eq!(pool.live_bytes, held);
                proptest::prop_assert_eq!(pool.high_water, high);
                proptest::prop_assert_eq!(pool.idle_bytes, pool.idle.iter().map(bytes).sum::<usize>());
                proptest::prop_assert!(pool.idle_bytes + pool.live_bytes <= pool.high_water);
                proptest::prop_assert!(pool.idle_bytes + pool.live_bytes <= 2 * high_used);
            }
            let mut live: Vec<Vec<f64>> = live.into_iter().map(|(b, _)| b).collect();
            let lens: Vec<usize> = live.iter().map(Vec::capacity).collect();
            let mut ptrs: Vec<*const f64> = live.iter().map(|b| b.as_ptr()).collect();
            for buf in live.drain(..) {
                pool.give(buf);
            }
            // The same lengths in a shuffled order.
            let mut shuffled = lens.clone();
            shuffled.sort_by_key(|&len| (len + 1) * (order | 1) % 65_537);
            let mut again: Vec<*const f64> = Vec::new();
            for len in shuffled {
                let buf = pool.take(len);
                again.push(buf.as_ptr());
                live.push(buf);
            }
            ptrs.sort();
            again.sort();
            again.dedup();
            proptest::prop_assert!(again.iter().all(|p| ptrs.binary_search(p).is_ok()));
        }
    }

    /// Fields of two sizes: small fields made while only large buffers are
    /// idle get buffers of their own size, and the large ones they pass over
    /// are kept for the next large field, so the bytes held never climb
    /// past the peak of live samples.
    #[test]
    fn free_list_keeps_large_buffers_for_large_fields() {
        let (large, small) = (4096, 100);
        let mut pool = SamplePool::new();
        let first = [pool.take(large), pool.take(large)];
        let peak = 2 * 8 * large;
        let ptrs = first.each_ref().map(|b| b.as_ptr());
        first.into_iter().for_each(|b| pool.give(b));
        for _ in 0..3 {
            let smalls = [pool.take(small), pool.take(small)];
            assert!(smalls.iter().all(|b| b.capacity() == small));
            // Room for the small ones was made by freeing one idle large one.
            let big = pool.take(large);
            assert!(
                ptrs.contains(&big.as_ptr()),
                "a kept large buffer is reused"
            );
            assert_eq!(pool.high_water, peak);
            assert!(pool.idle_bytes + pool.live_bytes <= peak);
            smalls.into_iter().for_each(|b| pool.give(b));
            pool.give(big);
        }
    }

    #[test]
    fn region_payloads_cover_all_sample_mass_once_per_owner() {
        // Disjoint owner regions partition the grid; every cell appears in
        // at least one payload (cells straddling region borders appear in
        // several — that duplication is the price of cell-granular routing).
        let n = 16;
        let plan = make_plan(n, 4, 4);
        let field =
            CompressedField::compress(plan.clone(), &Grid3::from_fn((n, n, n), |x, _, _| x as f64));
        let mut seen = vec![false; plan.cells().len()];
        for corner in [
            [0usize; 3],
            [8, 0, 0],
            [0, 8, 0],
            [0, 0, 8],
            [8, 8, 0],
            [8, 0, 8],
            [0, 8, 8],
            [8, 8, 8],
        ] {
            let region = BoxRegion::new(corner, [corner[0] + 8, corner[1] + 8, corner[2] + 8]);
            for &c in &field.region_payload(&region).cells {
                seen[c as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every cell must reach some owner");
    }

    #[test]
    fn message_bytes_counts_metadata_and_samples() {
        let plan = make_plan(32, 8, 8);
        let c = CompressedField::zeros(plan.clone());
        assert_eq!(
            c.message_bytes(),
            plan.total_samples() * 8 + plan.cells().len() * 40
        );
    }

    #[test]
    fn trilinear_corners_and_center() {
        let c = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(trilinear(c, [0.0, 0.0, 0.0]), 0.0);
        assert_eq!(trilinear(c, [1.0, 1.0, 1.0]), 7.0);
        assert_eq!(trilinear(c, [0.5, 0.5, 0.5]), 3.5);
    }
}
