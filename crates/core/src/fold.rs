//! The accumulation fold: many compressed fields summed into one dense
//! region (the interpolation half of the paper's single exchange, Fig. 1b).
//!
//! Every caller — the plain and mode-aware session folds, the adaptive
//! convolver, MASSIF's Γ application — sums reconstructions in a fixed
//! field order. [`fold_fields`] keeps that order per output point and
//! changes only the order *between* points: the region is cut into
//! disjoint x-slabs (contiguous in [`Grid3`]'s row-major layout), the
//! slabs go to the pool, and inside a slab every field is folded in turn
//! while the slab is still in cache. A point belongs to one slab and
//! receives its addends in the caller's order, so the result is
//! bit-identical for every pool size and slab width, and the output is
//! swept once instead of once per field.

use rayon::prelude::*;

use lcc_grid::{BoxRegion, Grid3};
use lcc_octree::CompressedField;

/// Most output bytes a slab may span, so that it stays in a 2 MiB L2 while
/// every field is folded into it.
const SLAB_BYTES: usize = 1 << 20;

/// Adds the reconstruction of every field over `region` into `out` (shape
/// must equal the region's), per point in the order `fields` yields them.
pub fn fold_fields<'a, I>(fields: I, region: &BoxRegion, out: &mut Grid3<f64>)
where
    I: IntoIterator<Item = &'a CompressedField> + Clone + Sync,
{
    assert_eq!(out.shape(), region.size(), "output shape must match region");
    if region.is_empty() {
        return;
    }
    let (sx, sy, sz) = region.size();
    let plane = sy * sz;
    // As wide as the cache allows (every slab rescans the cell list), but
    // four slabs per thread, so that a thread that loses its core is relieved.
    let width = (SLAB_BYTES / (plane * 8))
        .min(sx.div_ceil(4 * rayon::current_num_threads()))
        .max(1);
    out.as_mut_slice()
        .par_chunks_mut(width * plane)
        .enumerate()
        .for_each(|(i, slab)| {
            let mut sub = *region;
            sub.lo[0] += i * width;
            sub.hi[0] = (sub.lo[0] + width).min(region.hi[0]);
            for f in fields.clone() {
                f.add_region_into_slice(&sub, slab, 1.0);
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_octree::{RateSchedule, SamplingPlan};
    use std::sync::Arc;

    #[test]
    fn slab_fold_equals_field_by_field_fold_bitwise() {
        let n = 32;
        let fields: Vec<CompressedField> = (0..5usize)
            .map(|i| {
                let lo = [(i * 8) % 24, (i * 16) % 24, (i * 24) % 24];
                let plan = Arc::new(SamplingPlan::build(
                    n,
                    BoxRegion::new(lo, lo.map(|l| l + 8)),
                    &RateSchedule::for_kernel_spread(8, 1.0, 8),
                ));
                CompressedField::compress_with(plan, |x, y, z| {
                    ((x * 7 + y * 13 + z * 29 + i) as f64 * 0.61).sin() * 1e2
                })
            })
            .collect();
        // The cube, and a box whose x-extent no slab width divides.
        for region in [
            BoxRegion::cube(n),
            BoxRegion::new([3, 0, 5], [32, 31, 32]),
            BoxRegion::new([9, 4, 4], [10, 20, 20]),
        ] {
            let mut want = Grid3::zeros(region.size());
            for f in &fields {
                f.add_region_into(&region, &mut want, 1.0);
            }
            let mut pooled = Grid3::zeros(region.size());
            fold_fields(&fields, &region, &mut pooled);
            let mut sequential = Grid3::zeros(region.size());
            rayon::run_sequential(|| fold_fields(&fields, &region, &mut sequential));
            let bits =
                |g: &Grid3<f64>| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&pooled), bits(&want), "{region:?}");
            assert_eq!(bits(&sequential), bits(&want), "{region:?}");
        }
        // Nothing to do, nothing to divide by.
        let empty = BoxRegion::new([4, 4, 4], [4, 8, 8]);
        fold_fields(&fields, &empty, &mut Grid3::zeros(empty.size()));
    }
}
