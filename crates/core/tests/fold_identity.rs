//! The sample-space fold against the field-by-field loop it replaced.
//!
//! `lcc_core::fold_fields` sums the samples of the coarse cells the fields
//! share, adds their rate-1 cells straight into the output and interpolates
//! each distinct coarse cell once, one x-slab at a time on the pool. Every
//! output point receives its addends in an order fixed by the fields alone,
//! so every entry point built on the helper agrees bit for bit under the
//! ambient pool (whatever `LCC_THREADS` configures) and under
//! `rayon::run_sequential`. Against the serial loop that added each field's
//! reconstruction in turn it agrees up to rounding (1e-14 of the peak), and
//! bit for bit on dyadic samples, where every addition is exact.

use std::collections::BTreeMap;

use lcc_core::prelude::*;
use lcc_greens::MassifGamma;
use lcc_massif::{GammaConvolution, LowCommGamma, TensorField};

fn bits(g: &Grid3<f64>) -> Vec<u64> {
    g.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Asserts `got` is within `1e-14` of `want`'s peak, point by point.
fn assert_close(got: &Grid3<f64>, want: &Grid3<f64>, what: &str) {
    let peak = want.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
        assert!((g - w).abs() <= 1e-14 * peak, "{what}: {g:e} vs {w:e}");
    }
}

/// The loop the helper replaced: one whole-cube pass per field.
fn serial_fold<'a>(n: usize, fields: impl IntoIterator<Item = &'a CompressedField>) -> Grid3<f64> {
    let cube = BoxRegion::cube(n);
    let mut out = Grid3::zeros((n, n, n));
    for f in fields {
        f.add_region_into(&cube, &mut out, 1.0);
    }
    out
}

fn input(n: usize) -> Grid3<f64> {
    Grid3::from_fn((n, n, n), |x, y, z| {
        ((x as f64 * 0.4).sin() + (y as f64 * 0.25).cos()) * (1.0 + z as f64 * 0.05)
    })
}

#[test]
fn accumulate_fields_equals_serial_fold() {
    let n = 32;
    let conv = LowCommConvolver::new(LowCommConfig {
        n,
        k: 8,
        batch: 256,
        schedule: RateSchedule::for_kernel_spread(8, 1.0, 16),
    });
    let kernel = GaussianKernel::new(n, 1.0);
    let session = conv.session(ConvolveMode::Normal);
    let (fields, _) = session.compress_domains(&input(n), &kernel);
    assert_eq!(fields.len(), 64);

    let want = serial_fold(n, &fields);
    let pooled = session.accumulate_fields(&fields);
    assert_close(&pooled, &want, "accumulate_fields");
    let sequential = rayon::run_sequential(|| session.accumulate_fields(&fields));
    assert_eq!(bits(&sequential), bits(&pooled));

    // Small integers over a power of two: every lerp and every sum is
    // exact, so summing samples first gives the serial loop's bits.
    let mut dyadic = fields;
    for (j, f) in dyadic.iter_mut().enumerate() {
        for (i, s) in f.samples_mut().iter_mut().enumerate() {
            *s = ((i * 37 + j * 101) % 129) as f64 / 64.0 - 1.0;
        }
    }
    let want = bits(&serial_fold(n, &dyadic));
    assert_eq!(bits(&session.accumulate_fields(&dyadic)), want);
    let sequential = rayon::run_sequential(|| session.accumulate_fields(&dyadic));
    assert_eq!(bits(&sequential), want);
}

#[test]
fn mode_aware_accumulate_equals_serial_fold() {
    let n = 16;
    let k = 4;
    let conv = LowCommConvolver::new(LowCommConfig {
        n,
        k,
        batch: 64,
        schedule: RateSchedule::for_kernel_spread(k, 1.0, 8),
    });
    let kernel = GaussianKernel::new(n, 1.0);
    let input = input(n);
    let domains = decompose_uniform(n, k);
    let exact = conv.session(ConvolveMode::Normal);
    let all: BTreeMap<usize, CompressedField> = domains
        .iter()
        .enumerate()
        .filter_map(|(id, d)| Some((id, exact.compress_domain(&input, d, &kernel)?)))
        .collect();
    // Domains 3 and 40 lost their owner. Nobody claimed 3, so it is rebuilt
    // at the coarsest rate after the ascending fold; a claimant recomputed
    // 40, so it is present and folds in its ascending place.
    let mut contributions = all.clone();
    contributions.remove(&3);
    let orphans = [(3, domains[3]), (40, domains[40])];

    let coarse = conv.session(ConvolveMode::Degraded);
    let rebuilt = coarse
        .compress_domain(&input, &domains[3], &kernel)
        .expect("the input is nonzero everywhere");
    let want = serial_fold(n, contributions.values().chain(std::iter::once(&rebuilt)));

    let cube = BoxRegion::cube(n);
    for mode in [
        ConvolveMode::Degraded,
        ConvolveMode::Recover(RecoveryPolicy::Hybrid),
    ] {
        let session = conv.session(mode);
        let fold = || session.accumulate(&contributions, &input, &kernel, &orphans, &cube);
        let (pooled, report) = fold();
        assert_eq!(report.degraded_domains, 1, "{}", mode.name());
        assert_close(&pooled, &want, mode.name());
        let (sequential, _) = rayon::run_sequential(fold);
        assert_eq!(bits(&sequential), bits(&pooled), "{}", mode.name());
    }
}

#[test]
fn apply_gamma_equals_serial_fold() {
    let n = 16;
    let k = 8;
    let gamma = MassifGamma::new(n, 1.0, 1.0);
    let cfg = LowCommConfig {
        n,
        k,
        batch: 256,
        schedule: RateSchedule::for_kernel_spread(k, 1.5, 8),
    };
    let engine = LowCommGamma::new(gamma, cfg);
    let mut sigma = TensorField::zeros(n);
    for c in 0..6 {
        *sigma.component_mut(c) = Grid3::from_fn((n, n, n), |x, y, z| {
            ((x + 2 * y + 3 * z + c) as f64 * 0.37).sin()
        });
    }

    // Algorithm 2's inner loop with the fold written out field by field.
    let conv = engine.convolver();
    let cube = BoxRegion::cube(n);
    let mut want = TensorField::zeros(n);
    for d in decompose_uniform(n, k) {
        let sub: [Grid3<f64>; 6] = std::array::from_fn(|c| sigma.component(c).extract(&d));
        let fields = conv
            .local()
            .convolve_tensor_compressed(&sub, d.lo, &gamma, conv.plan_for(d));
        for (c, f) in fields.iter().enumerate() {
            f.add_region_into(&cube, want.component_mut(c), 1.0);
        }
    }

    let pooled = engine.apply_gamma(&sigma);
    let sequential = rayon::run_sequential(|| engine.apply_gamma(&sigma));
    for c in 0..6 {
        let what = format!("component {c}");
        assert_close(pooled.component(c), want.component(c), &what);
        assert_eq!(
            bits(sequential.component(c)),
            bits(pooled.component(c)),
            "{what}"
        );
    }
}
