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
//! # The sample-space fold
//!
//! [`fold_fields`] (also the session's `accumulate_fields` and the
//! exchange's `accumulate`) and `DomainStep::fold` fold the same way. A
//! wave adds its fields' rate-1 cells straight into the output, one x-slab
//! at a time on the pool, while the first slab task to start adds the
//! samples of their coarse cells (rate > 1) into one [`CellSums`] per
//! component, keyed by cell, on one thread and in field order. After the
//! last wave a second slab pass interpolates each distinct coarse cell
//! once. The plans of different domains are carved from one octree and
//! share most of their coarse cells, so the far field is interpolated once
//! per op rather than once per domain (DESIGN.md §5o).
//!
//! # Bit identity
//!
//! A point receives its rate-1 addends in the caller's field order, then
//! the interpolants of the distinct coarse cells that cover it, in the
//! order of their first appearance; each cell's sum adds its fields in the
//! caller's order. None of that depends on the pool size, the slab width,
//! the wave cut or the region (a fold over a box is bit for bit the same
//! box of the fold over the cube), so all of those leave the result
//! bit-identical. Against the old field-by-field loop (every field's
//! reconstruction added in turn) the result agrees up to rounding, not to
//! the bit: summing samples before interpolating reorders the additions.

use std::sync::{Arc, Mutex, PoisonError};

use rayon::prelude::*;

use lcc_grid::{BoxRegion, Grid3};
use lcc_obs::metrics as obs;
use lcc_octree::{CellSums, CompressedField, SamplingPlan};

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
        CellSums::with_reused(|sums: &mut [CellSums; C]| {
            let mut rest = &planned[..];
            while !rest.is_empty() {
                // At least one domain, then as many as keep the wave's
                // samples (8·C bytes each) within the output's.
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
                for (c, (grid, sums)) in out.iter_mut().zip(sums.iter_mut()).enumerate() {
                    let wave = fields.iter().map(|f| &f[c]);
                    fold_wave(wave, region, grid, sums, tail.is_empty());
                }
                rest = tail;
            }
        });
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
/// must equal the region's): the sample-space fold of the module doc, with
/// the fields in the order `fields` yields them.
pub fn fold_fields<'a, I>(fields: I, region: &BoxRegion, out: &mut Grid3<f64>)
where
    I: IntoIterator<Item = &'a CompressedField> + Clone + Sync,
{
    CellSums::with_reused(|[sums]: &mut [CellSums; 1]| fold_wave(fields, region, out, sums, true));
}

/// Folds one wave of `fields` over `region`: their coarse samples into
/// `sums`, their rate-1 cells into `out`; the `last` wave also interpolates
/// the sums into `out`.
fn fold_wave<'a, I>(
    fields: I,
    region: &BoxRegion,
    out: &mut Grid3<f64>,
    sums: &mut CellSums,
    last: bool,
) where
    I: IntoIterator<Item = &'a CompressedField> + Clone + Sync,
{
    assert_eq!(out.shape(), region.size(), "output shape must match region");
    if region.is_empty() {
        return;
    }
    // The first slab task to start adds the coarse samples, on one thread
    // and in field order, while the others fold rate-1 cells. (The lock is
    // held only to take the sums, which leaves it valid even if poisoned.)
    let adding = Mutex::new(Some(&mut *sums));
    slab_pass(region, out, |sub, slab| {
        let claimed = adding.lock().unwrap_or_else(PoisonError::into_inner).take();
        if let Some(sums) = claimed {
            for f in fields.clone() {
                sums.add(f, region);
            }
        }
        for f in fields.clone() {
            f.add_rate1_into_slice(sub, slab);
        }
    });
    if last {
        slab_pass(region, out, |sub, slab| sums.add_into_slice(sub, slab));
        obs::OCTREE_CELLS_INTERPOLATED.add(sums.len() as u64);
    }
}

/// Runs `f` on every x-slab of `out` (the row-major buffer of `region`,
/// which is not empty), on the pool, with the slab's own region.
fn slab_pass(region: &BoxRegion, out: &mut Grid3<f64>, f: impl Fn(&BoxRegion, &mut [f64]) + Sync) {
    let (sx, sy, sz) = region.size();
    let plane = sy * sz;
    // As wide as the cache allows (every slab rescans the cell lists), but
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
            f(&sub, slab);
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_octree::{RateSchedule, SamplingPlan};
    use std::sync::Arc;

    fn bits(g: &Grid3<f64>) -> Vec<u64> {
        g.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The loop the sample-space fold replaced: every field's
    /// reconstruction added in turn.
    fn field_by_field(fields: &[CompressedField], region: &BoxRegion) -> Grid3<f64> {
        let mut out = Grid3::zeros(region.size());
        for f in fields {
            f.add_region_into(region, &mut out, 1.0);
        }
        out
    }

    /// Replaces every sample by a small integer over 64: then every lerp
    /// and every sum of the fold is exact, so any order of the additions
    /// gives the same bits.
    fn make_dyadic(fields: &mut [CompressedField]) {
        for (j, f) in fields.iter_mut().enumerate() {
            for (i, s) in f.samples_mut().iter_mut().enumerate() {
                *s = ((i * 37 + j * 101) % 129) as f64 / 64.0 - 1.0;
            }
        }
    }

    /// Asserts `got` is within `1e-14` of `want`'s peak, point by point.
    fn assert_close(got: &Grid3<f64>, want: &Grid3<f64>, what: &str) {
        let peak = want.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                (g - w).abs() <= 1e-14 * peak,
                "{what}: point {:?}: {g:e} vs {w:e}",
                got.unlinear(i)
            );
        }
    }

    #[test]
    fn slab_fold_equals_field_by_field_fold_bitwise() {
        let n = 32;
        let mut fields: Vec<CompressedField> = (0..5usize)
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
        let regions = [
            BoxRegion::cube(n),
            BoxRegion::new([3, 0, 5], [32, 31, 32]),
            BoxRegion::new([9, 4, 4], [10, 20, 20]),
        ];
        for dyadic in [false, true] {
            if dyadic {
                make_dyadic(&mut fields);
            }
            for region in regions {
                let want = field_by_field(&fields, &region);
                let mut pooled = Grid3::zeros(region.size());
                fold_fields(&fields, &region, &mut pooled);
                let mut sequential = Grid3::zeros(region.size());
                rayon::run_sequential(|| fold_fields(&fields, &region, &mut sequential));
                assert_eq!(bits(&pooled), bits(&sequential), "{region:?}");
                // Summing samples first reorders the additions: bit for
                // bit only where every addition is exact.
                if dyadic {
                    assert_eq!(bits(&pooled), bits(&want), "{region:?}");
                } else {
                    assert_close(&pooled, &want, &format!("{region:?}"));
                }
            }
        }
        // Nothing to do, nothing to divide by.
        let empty = BoxRegion::new([4, 4, 4], [4, 8, 8]);
        fold_fields(&fields, &empty, &mut Grid3::zeros(empty.size()));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// The sample-space fold's contract on plans of random domains of
        /// mixed tile sizes (as `AdaptiveConvolver` makes them): bit for
        /// bit the same under any wave cut and pool size, over a box the
        /// same box of the cube's fold, and on dyadic samples the old
        /// field-by-field loop exactly.
        #[test]
        fn sample_space_fold_is_invariant_and_dyadic_exact(
            n_log in 4usize..=6,
            count in 1usize..=6,
            picks in proptest::collection::vec(0usize..1 << 16, 40),
            dyadic in 0usize..2,
        ) {
            let n = 1 << n_log;
            // Fewer fields on the big grid keep the debug build quick.
            let count = if n == 64 { count.min(3) } else { count };
            let mut fields: Vec<CompressedField> = (0..count)
                .map(|j| {
                    let p = &picks[4 * j..4 * j + 4];
                    let k = n >> (2 + p[0] % 2);
                    let lo: [usize; 3] = std::array::from_fn(|a| (p[1 + a] % (n / k)) * k);
                    let spread = [0.5, 1.0, 2.0][p[0] / 2 % 3];
                    let schedule = RateSchedule::for_kernel_spread(k, spread, 8 << (p[0] / 6 % 2));
                    let domain = BoxRegion::new(lo, lo.map(|l| l + k));
                    let plan = SamplingPlan::build(n, domain, &schedule);
                    CompressedField::compress_with(Arc::new(plan), |x, y, z| {
                        ((x * 131 + y * 31 + z * 7 + j) as f64 * 0.37).sin() * 1e3
                    })
                })
                .collect();
            let dyadic = dyadic == 1;
            if dyadic {
                make_dyadic(&mut fields);
            }
            let cube = BoxRegion::cube(n);
            let mut whole = Grid3::zeros(cube.size());
            fold_fields(&fields, &cube, &mut whole);

            // Pool size: the ambient pool against one thread.
            let mut sequential = Grid3::zeros(cube.size());
            rayon::run_sequential(|| fold_fields(&fields, &cube, &mut sequential));
            proptest::prop_assert_eq!(bits(&sequential), bits(&whole));

            // Wave cut: consecutive waves of random lengths.
            let mut waved = Grid3::zeros(cube.size());
            CellSums::with_reused(|[sums]: &mut [CellSums; 1]| {
                let mut rest = &fields[..];
                let mut cut = picks[30..].iter();
                while !rest.is_empty() {
                    let len = 1 + cut.next().map_or(0, |c| c % rest.len());
                    let (wave, tail) = rest.split_at(len);
                    fold_wave(wave, &cube, &mut waved, sums, tail.is_empty());
                    rest = tail;
                }
            });
            proptest::prop_assert_eq!(bits(&waved), bits(&whole));

            // Region: a random box is the same box of the cube's fold.
            let lo: [usize; 3] = std::array::from_fn(|a| picks[24 + a] % n);
            let hi: [usize; 3] = std::array::from_fn(|a| lo[a] + 1 + picks[27 + a] % (n - lo[a]));
            let region = BoxRegion::new(lo, hi);
            let mut boxed = Grid3::zeros(region.size());
            fold_fields(&fields, &region, &mut boxed);
            let cut_out = Grid3::from_fn(region.size(), |x, y, z| {
                whole[(lo[0] + x, lo[1] + y, lo[2] + z)]
            });
            proptest::prop_assert_eq!(bits(&boxed), bits(&cut_out));

            // Dyadic samples: the old loop, exactly.
            if dyadic {
                proptest::prop_assert_eq!(bits(&whole), bits(&field_by_field(&fields, &cube)));
            }
        }
    }

    /// The pool's size is fixed for the life of a process, so the
    /// properties above run again in child processes, one per pool size.
    #[test]
    fn sample_space_fold_under_pools_of_1_2_and_4_threads() {
        let exe = std::env::current_exe().expect("test binary path");
        for threads in ["1", "2", "4"] {
            let out = std::process::Command::new(&exe)
                .arg("sample_space_fold_is_invariant_and_dyadic_exact")
                .env("LCC_THREADS", threads)
                .output()
                .expect("spawn the test binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success() && stdout.contains("1 passed"),
                "LCC_THREADS={threads}:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}
