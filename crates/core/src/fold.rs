//! The paper's Algorithm 2 loop — per sub-domain, convolve locally and
//! compress, then accumulate by interpolation (Fig. 1b) — and its fold.
//!
//! `DomainStep` is the one loop: it walks a tiling in order, tests each
//! domain for zero in place, compresses the rest into `C` component fields,
//! tallies one [`ConvolveReport`] and folds into `C` output grids, in
//! *waves* whose compressed samples fit in the output's. Callers differ only
//! in the step: the session's `convolve`, `convolve_tensor`,
//! `compress_domains` and `compress_domain`, and `AdaptiveConvolver`.
//!
//! [`fold_fields`] (also the session's `accumulate_fields` and the exchange's
//! `accumulate`) folds every field into one x-slab at a time on the pool.
//! A point receives its addends in the caller's order, across waves too, so
//! the result is bit-identical for every pool size, slab width and wave cut.

use std::sync::Arc;

use rayon::prelude::*;

use lcc_grid::{BoxRegion, Grid3};
use lcc_obs::metrics as obs;
use lcc_octree::{CompressedField, SamplingPlan};

use crate::lowcomm::ConvolveReport;

/// Most output bytes a slab may span, so that it stays in a 2 MiB L2 while
/// every field is folded into it.
const SLAB_BYTES: usize = 1 << 20;

/// The plan a nonzero domain is compressed under.
pub(crate) trait PlanFn: Fn(&BoxRegion) -> Arc<SamplingPlan> + Sync {}
impl<F: Fn(&BoxRegion) -> Arc<SamplingPlan> + Sync> PlanFn for F {}

/// The local convolution of one domain under its plan: a field per component.
pub(crate) trait LocalFn<const C: usize>:
    Fn(&BoxRegion, Arc<SamplingPlan>) -> [CompressedField; C] + Sync
{
}
impl<const C: usize, F> LocalFn<C> for F where
    F: Fn(&BoxRegion, Arc<SamplingPlan>) -> [CompressedField; C] + Sync
{
}

/// A nonzero domain of a run with its plan.
type Planned<'d> = (&'d BoxRegion, Arc<SamplingPlan>);

/// One sub-domain's work in the domain loop over a `C`-component field.
pub(crate) struct DomainStep<'a, const C: usize, P, L> {
    /// The field's components, each on the whole grid.
    pub inputs: [&'a Grid3<f64>; C],
    pub plan: P,
    pub local: L,
    /// The uniform rate of the plans when they are the degraded ones, which
    /// the report then charges every computed domain to.
    pub degraded_rate: Option<u32>,
}

impl<const C: usize, P: PlanFn, L: LocalFn<C>> DomainStep<'_, C, P, L> {
    /// Compresses one domain; `None` when it is zero.
    pub fn compress_one(&self, domain: &BoxRegion) -> Option<[CompressedField; C]> {
        let planned = self.plan_one(domain);
        self.report(planned.as_slice(), 1);
        planned.map(|(d, plan)| (self.local)(d, plan))
    }

    /// Compresses every nonzero domain of `domains`, in their order.
    pub fn compress_all(
        &self,
        domains: &[BoxRegion],
    ) -> (Vec<[CompressedField; C]>, ConvolveReport) {
        let planned = self.plan_nonzero(domains);
        let fields = self.compress(&planned);
        (fields, self.report(&planned, domains.len()))
    }

    /// Convolves the whole field over the tiling `domains`: the sum of every
    /// domain's reconstruction over `region`, one grid per component, folded
    /// in the order of `domains`.
    pub fn fold(
        &self,
        domains: &[BoxRegion],
        region: &BoxRegion,
    ) -> ([Grid3<f64>; C], ConvolveReport) {
        let planned = self.plan_nonzero(domains);
        let mut out: [Grid3<f64>; C] = std::array::from_fn(|_| Grid3::zeros(region.size()));
        let mut rest = &planned[..];
        while !rest.is_empty() {
            // At least one domain, then as many as keep the wave's samples
            // (8·C bytes each) within the output's.
            let mut samples = 0;
            let len = rest
                .iter()
                .position(|(_, plan)| {
                    samples += plan.total_samples();
                    samples > region.volume()
                })
                .map_or(rest.len(), |i| i.max(1));
            let (wave, tail) = rest.split_at(len);
            let fields = self.compress(wave);
            for (c, grid) in out.iter_mut().enumerate() {
                fold_fields(fields.iter().map(|f| &f[c]), region, grid);
            }
            rest = tail;
        }
        (out, self.report(&planned, domains.len()))
    }

    /// The nonzero domains among `domains`, planned on the pool.
    fn plan_nonzero<'d>(&self, domains: &'d [BoxRegion]) -> Vec<Planned<'d>> {
        let planned: Vec<Option<Planned<'d>>> =
            domains.par_iter().map(|d| self.plan_one(d)).collect();
        planned.into_iter().flatten().collect()
    }

    /// `domain` with its plan unless it is zero, tested in place (a skipped
    /// domain costs no copy).
    fn plan_one<'d>(&self, domain: &'d BoxRegion) -> Option<Planned<'d>> {
        let zero = self.inputs.iter().all(|g| g.all_in(domain, |&v| v == 0.0));
        (!zero).then(|| (domain, (self.plan)(domain)))
    }

    fn compress(&self, planned: &[Planned<'_>]) -> Vec<[CompressedField; C]> {
        // A lone domain stays on the caller, its pipeline on the whole pool.
        if let [(d, plan)] = planned {
            return vec![(self.local)(d, plan.clone())];
        }
        planned
            .par_iter()
            .map(|(d, plan)| (self.local)(d, plan.clone()))
            .collect()
    }

    /// The run's accounting, also added to the process-wide counters:
    /// `total` domains, of which `planned` computed.
    fn report(&self, planned: &[Planned<'_>], total: usize) -> ConvolveReport {
        let mut report = ConvolveReport {
            dense_stage_bytes: 16 * self.inputs[0].len(),
            domains_skipped: total - planned.len(),
            ..Default::default()
        };
        report.count(planned.iter().map(|(_, plan)| plan.as_ref()), C);
        if let Some(rate) = self.degraded_rate.filter(|_| !planned.is_empty()) {
            report.degraded_domains = planned.len();
            report.degraded_rate = Some(rate);
        }
        obs::CONVOLVE_DOMAINS_PROCESSED.add(report.domains_processed as u64);
        obs::CONVOLVE_DOMAINS_SKIPPED.add(report.domains_skipped as u64);
        obs::CONVOLVE_DOMAINS_DEGRADED.add(report.degraded_domains as u64);
        obs::CONVOLVE_EXCHANGE_BYTES.add(report.exchange_bytes as u64);
        obs::CONVOLVE_SAMPLES.add(report.total_samples as u64);
        report
    }
}

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
