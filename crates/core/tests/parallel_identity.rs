//! Parallel-vs-sequential bit-identity of the pipeline and the batched
//! pencil transforms.
//!
//! The rayon shim's combinators are all *indexed* — item `i` is a pure
//! function of `i` and the input, written to a slot derived from `i` alone —
//! so results must be bit-identical no matter how many threads execute
//! them. These properties pin that down by comparing the ambient pool
//! (whatever `LCC_THREADS` configures; CI runs 1 and 4) against
//! `rayon::run_sequential`, which forces inline single-thread execution of
//! the very same code. Random `(n, k, B, corner)` come from proptest. The
//! pool's size is fixed for the life of a process, so
//! [`properties_hold_under_pools_of_1_2_and_4_threads`] runs the properties
//! again in child processes, one per pool size.

use std::sync::Arc;

use proptest::prelude::*;

use lcc_core::LocalConvolver;
use lcc_fft::{c64, fft_axis, Complex64, FftDirection, FftPlanner};
use lcc_greens::{GaussianKernel, MassifGamma};
use lcc_grid::{BoxRegion, Grid3};
use lcc_octree::{RateSchedule, SamplingPlan};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `LocalConvolver::convolve_compressed` produces bit-identical samples
    /// under the thread pool and under forced sequential execution, for a
    /// dense sub-domain and for a sparse one (all zero but a block of side
    /// `k/2`), whose stages 1-2 run on a support cube smaller than `k`.
    #[test]
    fn convolve_parallel_bit_identical_to_sequential(
        k in prop_oneof![Just(2usize), Just(4)],
        mult in prop_oneof![Just(1usize), Just(2), Just(4)],
        batch in prop_oneof![Just(1usize), Just(7), Just(64)],
        cx in 0usize..64,
        cy in 0usize..64,
        cz in 0usize..64,
        seed in 0u64..1000,
    ) {
        let n = k * mult;
        let span = n - k + 1;
        let corner = [cx % span, cy % span, cz % span];
        let dense = Grid3::from_fn((k, k, k), |x, y, z| {
            ((x * 3 + y * 5 + z * 7) as f64 * 0.31 + seed as f64 * 0.013).sin()
        });
        let side = k / 2;
        let lo = [cx, cy, cz].map(|c| c % (k - side + 1));
        let sparse = Grid3::from_fn((k, k, k), |x, y, z| {
            let inside = [x, y, z].iter().zip(lo).all(|(&i, l)| (l..l + side).contains(&i));
            if inside { 2.0 + dense[(x, y, z)] } else { 0.0 }
        });
        let kernel = GaussianKernel::new(n, 1.1);
        let domain = BoxRegion::new(
            corner,
            [corner[0] + k, corner[1] + k, corner[2] + k],
        );
        let plan = Arc::new(SamplingPlan::build(n, domain, &RateSchedule::uniform(1)));
        let conv = LocalConvolver::new(n, k, batch);
        prop_assert_eq!(conv.support_side(&dense), k);
        prop_assert!(conv.support_side(&sparse) < k);

        for sub in [&dense, &sparse] {
            let par = conv.convolve_compressed(sub, corner, &kernel, plan.clone());
            let seq = rayon::run_sequential(|| {
                conv.convolve_compressed(sub, corner, &kernel, plan.clone())
            });

            prop_assert_eq!(par.samples().len(), seq.samples().len());
            for (a, b) in par.samples().iter().zip(seq.samples()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// `LocalConvolver::convolve_tensor_compressed`: six components through
    /// the same z-stage tiles, each task storing its own column range of
    /// all six retained-plane buffers.
    #[test]
    fn tensor_convolve_parallel_bit_identical_to_sequential(
        k in prop_oneof![Just(2usize), Just(4)],
        mult in prop_oneof![Just(1usize), Just(2), Just(4)],
        batch in prop_oneof![Just(1usize), Just(7), Just(64)],
        cx in 0usize..64,
        seed in 0u64..1000,
    ) {
        let n = k * mult;
        let corner = [cx % (n - k + 1), 0, n - k];
        let sub: [Grid3<f64>; 6] = std::array::from_fn(|c| {
            Grid3::from_fn((k, k, k), |x, y, z| {
                ((x * 3 + y * 5 + z * 7 + c) as f64 * 0.31 + seed as f64 * 0.013).sin()
            })
        });
        let gamma = MassifGamma::new(n, 1.3, 0.8);
        let domain = BoxRegion::new(
            corner,
            [corner[0] + k, corner[1] + k, corner[2] + k],
        );
        let plan = Arc::new(SamplingPlan::build(n, domain, &RateSchedule::uniform(1)));
        let conv = LocalConvolver::new(n, k, batch);

        let par = conv.convolve_tensor_compressed(&sub, corner, &gamma, plan.clone());
        let seq = rayon::run_sequential(|| {
            conv.convolve_tensor_compressed(&sub, corner, &gamma, plan.clone())
        });

        for (p, s) in par.iter().zip(&seq) {
            prop_assert_eq!(p.samples().len(), s.samples().len());
            for (a, b) in p.samples().iter().zip(s.samples()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// `fft::batch`'s axis sweeps (contiguous and strided pencil paths) are
    /// bit-identical under the pool and under sequential execution.
    #[test]
    fn fft_axes_parallel_bit_identical_to_sequential(
        n0 in 1usize..6,
        n1 in 1usize..6,
        n2 in 1usize..9,
        seed in 0u64..1000,
    ) {
        let dims = (n0, n1, n2);
        let data: Vec<Complex64> = (0..n0 * n1 * n2)
            .map(|i| {
                c64(
                    (i as f64 * 0.9 + seed as f64 * 0.07).sin(),
                    (i as f64 * 0.4).cos(),
                )
            })
            .collect();
        let planner = FftPlanner::new();

        let mut par = data.clone();
        for axis in 0..3 {
            fft_axis(&planner, &mut par, dims, axis, FftDirection::Forward);
        }
        let mut seq = data;
        rayon::run_sequential(|| {
            for axis in 0..3 {
                fft_axis(&planner, &mut seq, dims, axis, FftDirection::Forward);
            }
        });

        for (a, b) in par.iter().zip(&seq) {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }
}

/// The properties above, under pools of exactly 1, 2 and 4 threads: each
/// child process runs them (selected by their common name suffix, which this
/// test's own name must not contain) with `LCC_THREADS` set.
#[test]
fn properties_hold_under_pools_of_1_2_and_4_threads() {
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["1", "2", "4"] {
        let out = std::process::Command::new(&exe)
            .arg("bit_identical_to_sequential")
            .env("LCC_THREADS", threads)
            .output()
            .expect("spawn the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("3 passed"),
            "LCC_THREADS={threads}:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
