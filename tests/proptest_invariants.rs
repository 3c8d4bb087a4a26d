//! Property-based tests on the core invariants: linearity of the pipeline,
//! losslessness of rate-1 sampling, octree structure under random domains,
//! and codec round-trips.

use std::sync::Arc;

use proptest::prelude::*;

use lcc_core::{
    ConvolveMode, LocalConvolver, LowCommConfig, LowCommConvolver, TraditionalConvolver,
};
use lcc_fft::{c64, dft::dft, fft_in_place, Complex64, FftDirection, FftPlanner};
use lcc_greens::GaussianKernel;
use lcc_grid::{relative_l2, BoxRegion, Grid3};
use lcc_octree::{CompressedField, RateSchedule, SamplingPlan};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any power-of-two-length complex signal transforms identically to the
    /// O(n²) oracle.
    #[test]
    fn fft_matches_dft(
        raw in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 1..=64),
        log_extra in 0usize..3,
    ) {
        let n = raw.len().next_power_of_two() << log_extra;
        let mut buf: Vec<Complex64> =
            raw.iter().map(|&(re, im)| c64(re, im)).collect();
        buf.resize(n, Complex64::ZERO);
        let expect = dft(&buf, FftDirection::Forward);
        let planner = FftPlanner::new();
        fft_in_place(&planner, &mut buf, FftDirection::Forward);
        for (a, b) in buf.iter().zip(&expect) {
            prop_assert!((*a - *b).norm() < 1e-6 * (n as f64));
        }
    }

    /// FFT of arbitrary (including prime) lengths round-trips.
    #[test]
    fn fft_roundtrip_arbitrary_length(
        raw in proptest::collection::vec((-10.0f64..10.0, -10.0f64..10.0), 2..=80),
    ) {
        let orig: Vec<Complex64> = raw.iter().map(|&(re, im)| c64(re, im)).collect();
        let mut buf = orig.clone();
        let planner = FftPlanner::new();
        fft_in_place(&planner, &mut buf, FftDirection::Forward);
        lcc_fft::ifft_normalized(&planner, &mut buf);
        for (a, b) in orig.iter().zip(&buf) {
            prop_assert!((*a - *b).norm() < 1e-8);
        }
    }

    /// Octree plans tile the grid exactly for random domain boxes, and the
    /// 5-int encoding round-trips.
    #[test]
    fn octree_tiles_and_roundtrips(
        log_n in 3usize..6,
        far in prop_oneof![Just(4u32), Just(8), Just(16)],
        seed in 0usize..1000,
    ) {
        let n = 1usize << log_n;
        // Random k and corner derived deterministically from seed.
        let k = 1usize << (1 + seed % (log_n - 1)); // 2..=n/2
        let cmax = n - k;
        let corner = [
            (seed * 7) % (cmax + 1),
            (seed * 13) % (cmax + 1),
            (seed * 29) % (cmax + 1),
        ];
        let domain = BoxRegion::new(corner, [corner[0] + k, corner[1] + k, corner[2] + k]);
        let plan = SamplingPlan::build(n, domain, &RateSchedule::paper_default(k, far));
        prop_assert!(plan.verify_tiling().is_ok());
        let decoded = SamplingPlan::decode(
            n,
            domain,
            &plan.encode(),
            plan.total_samples() as u64,
        ).unwrap();
        prop_assert_eq!(decoded.cells(), plan.cells());
    }

    /// Compression at rate 1 is lossless for arbitrary fields.
    #[test]
    fn rate1_compression_lossless(seed in 0u64..500) {
        let n = 16;
        let domain = BoxRegion::new([4; 3], [8; 3]);
        let plan = Arc::new(SamplingPlan::build(n, domain, &RateSchedule::uniform(1)));
        let field = Grid3::from_fn((n, n, n), |x, y, z| {
            let h = x
                .wrapping_mul(2654435761)
                .wrapping_add(y.wrapping_mul(40503))
                .wrapping_add(z.wrapping_mul(seed as usize + 1));
            (h % 1000) as f64 / 500.0 - 1.0
        });
        let c = CompressedField::compress(plan, &field);
        let back = c.reconstruct();
        for (a, b) in field.as_slice().iter().zip(back.as_slice()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    /// The streaming pipeline is linear: conv(a·x + b·y) = a·conv(x) + b·conv(y).
    #[test]
    fn pipeline_is_linear(a in -3.0f64..3.0, b in -3.0f64..3.0) {
        let n = 8;
        let k = 4;
        let kernel = GaussianKernel::new(n, 1.0);
        let plan = Arc::new(SamplingPlan::build(
            n,
            BoxRegion::new([4; 3], [8; 3]),
            &RateSchedule::uniform(1),
        ));
        let conv = LocalConvolver::new(n, k, 16);
        let x = Grid3::from_fn((k, k, k), |i, j, l| (i + 2 * j + 3 * l) as f64);
        let y = Grid3::from_fn((k, k, k), |i, j, l| ((i * j) as f64).sin() - l as f64);
        let combo = Grid3::from_fn((k, k, k), |i, j, l| {
            a * x[(i, j, l)] + b * y[(i, j, l)]
        });
        let cx = conv.convolve_compressed(&x, [0; 3], &kernel, plan.clone());
        let cy = conv.convolve_compressed(&y, [0; 3], &kernel, plan.clone());
        let cc = conv.convolve_compressed(&combo, [0; 3], &kernel, plan);
        for ((sx, sy), sc) in cx.samples().iter().zip(cy.samples()).zip(cc.samples()) {
            prop_assert!((a * sx + b * sy - sc).abs() < 1e-8);
        }
    }

    /// Parseval: ‖X‖² = n·‖x‖² for the fast transform at any length.
    #[test]
    fn parseval_identity(
        raw in proptest::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 2..=96),
    ) {
        let n = raw.len();
        let x: Vec<Complex64> = raw.iter().map(|&(re, im)| c64(re, im)).collect();
        let mut hat = x.clone();
        let planner = FftPlanner::new();
        fft_in_place(&planner, &mut hat, FftDirection::Forward);
        let e_time: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let e_freq: f64 = hat.iter().map(|v| v.norm_sqr()).sum();
        prop_assert!(
            (e_freq - n as f64 * e_time).abs() <= 1e-6 * (1.0 + e_freq),
            "Parseval violated: {e_freq} vs {}", n as f64 * e_time
        );
    }

    /// Convolution theorem: FFT(a ⊛ b) = FFT(a)·FFT(b) on random 1D pairs.
    #[test]
    fn convolution_theorem_1d(
        ra in proptest::collection::vec(-3.0f64..3.0, 4..=48),
        rb in proptest::collection::vec(-3.0f64..3.0, 4..=48),
    ) {
        let n = ra.len().max(rb.len()).next_power_of_two();
        let pad = |v: &[f64]| -> Vec<Complex64> {
            let mut out: Vec<Complex64> =
                v.iter().map(|&x| Complex64::from_real(x)).collect();
            out.resize(n, Complex64::ZERO);
            out
        };
        let a = pad(&ra);
        let b = pad(&rb);
        // Direct cyclic convolution.
        let mut direct = vec![Complex64::ZERO; n];
        for i in 0..n {
            for j in 0..n {
                direct[(i + j) % n] += a[i] * b[j];
            }
        }
        let planner = FftPlanner::new();
        let mut fa = a;
        let mut fb = b;
        fft_in_place(&planner, &mut fa, FftDirection::Forward);
        fft_in_place(&planner, &mut fb, FftDirection::Forward);
        for (x, y) in fa.iter_mut().zip(&fb) {
            *x *= *y;
        }
        lcc_fft::ifft_normalized(&planner, &mut fa);
        for (g, w) in fa.iter().zip(&direct) {
            prop_assert!((*g - *w).norm() < 1e-6 * (n as f64));
        }
    }

    /// Denser uniform sampling never increases reconstruction error on a
    /// smooth field (octree monotonicity).
    #[test]
    fn octree_error_monotone_in_rate(freq in 0.05f64..0.4) {
        let n = 32;
        let domain = BoxRegion::new([12; 3], [20; 3]);
        let field = Grid3::from_fn((n, n, n), |x, y, z| {
            ((x as f64) * freq).sin() + ((y as f64) * freq * 0.7).cos() + z as f64 * 0.01
        });
        let mut prev = f64::INFINITY;
        for r in [8u32, 4, 2, 1] {
            let plan = Arc::new(SamplingPlan::build(
                n,
                domain,
                &RateSchedule::uniform(r),
            ));
            let c = CompressedField::compress(plan, &field);
            let err = relative_l2(field.as_slice(), c.reconstruct().as_slice());
            prop_assert!(
                err <= prev + 1e-12,
                "error rose when sampling densified: r={r}, {err} > {prev}"
            );
            prev = err;
        }
        prop_assert!(prev < 1e-12, "rate 1 must be lossless");
    }

    /// End-to-end: decomposition + accumulation reproduces the dense
    /// convolution for random smooth inputs under a lossless schedule.
    #[test]
    fn decomposition_linearity_end_to_end(f1 in 0.05f64..0.8, f2 in 0.05f64..0.8) {
        let n = 16;
        let k = 8;
        let kernel = GaussianKernel::new(n, 1.3);
        let conv = LowCommConvolver::new(LowCommConfig {
            n,
            k,
            batch: 128,
            schedule: RateSchedule::uniform(1),
        });
        let input = Grid3::from_fn((n, n, n), |x, y, z| {
            (x as f64 * f1).sin() + (y as f64 * f2).cos() + 0.1 * z as f64
        });
        let (approx, _) = conv.session(ConvolveMode::Normal).convolve(&input, &kernel);
        let exact = TraditionalConvolver::new(n).convolve(&input, &kernel);
        prop_assert!(relative_l2(exact.as_slice(), approx.as_slice()) < 1e-9);
    }
}
