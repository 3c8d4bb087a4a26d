//! SIMD-vs-scalar numerical identity contract.
//!
//! The vector kernels contract complex multiplies with FMA, so they are not
//! bit-identical to the scalar kernels — the contract (DESIGN.md §5g) is
//! elementwise agreement within [`MAX_ULP`] ulps measured at the spectrum's
//! norm scale (`ulp_diff_floored` with `floor = ‖X‖∞`). These proptests pin
//! that bound across every planner-dispatched kernel class: the split-layout
//! power-of-two executor at every schedule shape, Bluestein (split inner
//! transforms), real r2c/c2r, pruned-input, and the batched axis paths
//! (contiguous rows and pencil tiles).
//!
//! The pencil-tile transforms (`lcc_fft::tile`) run the same stage kernels
//! across 8 pencils at once; they are held to the same bound against the
//! single-pencil plans of the *same* planner, lane by lane, and to bitwise
//! independence of a pencil's result from the lane it sits in; the pruned
//! tile forward, whose schedule no single-pencil plan shares, is held to
//! the zero-padded `dft` oracle instead. Those cases
//! are meaningful with the vector kernels and with `LCC_SIMD=off` (CI runs
//! both).
//!
//! On hosts without a vector variant (or under `LCC_SIMD=off`) the "auto"
//! planner also runs scalar kernels and the comparison is trivially exact —
//! the suite is meaningful on AVX2+FMA (or NEON) hardware, and harmless
//! elsewhere. CI runs it under both `LCC_THREADS=1` and `=4`; the thread
//! count must not change either side (pencil dispatch is order-independent
//! per pencil).

use std::sync::Arc;

use lcc_fft::complex::c64;
use lcc_fft::dft::dft;
use lcc_fft::tile::{load_row, Row, W};
use lcc_fft::{
    fft_axis, ulp_diff_floored, Complex64, FftDirection, FftPlanner, PrunedInputFft, RealFft,
    RealIfft, TileFft, Variant,
};
use proptest::prelude::*;

/// Maximum allowed elementwise divergence, in ulps at the output-norm scale.
const MAX_ULP: f64 = 2.0;

/// Allowed divergence of a fast transform from the O(n²) `dft` oracle, in
/// the same metric, for `n ≤ 256` (`pruned_tile_matches_padded_dft`).
const ORACLE_ULP: f64 = 8.0 * MAX_ULP;

fn planners() -> (FftPlanner, FftPlanner) {
    (
        FftPlanner::new(),
        FftPlanner::with_simd_variant(Variant::Scalar),
    )
}

fn signal(n: usize, seed: u64) -> Vec<Complex64> {
    let s = seed as f64 * 0.61803398875;
    (0..n)
        .map(|i| {
            let x = i as f64;
            c64(
                (x * 0.7371 + s).sin() + 0.25 * (x * 0.0913 + 2.0 * s).cos(),
                (x * 0.4114 - s).cos() - 0.5 * (x * 0.1733 + s).sin(),
            )
        })
        .collect()
}

fn inf_norm(v: &[Complex64]) -> f64 {
    v.iter()
        .flat_map(|z| [z.re.abs(), z.im.abs()])
        .fold(0.0, f64::max)
}

fn max_ulp_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let floor = inf_norm(b);
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| {
            [
                ulp_diff_floored(x.re, y.re, floor),
                ulp_diff_floored(x.im, y.im, floor),
            ]
        })
        .fold(0.0, f64::max)
}

fn max_ulp_diff_real(a: &[f64], b: &[f64]) -> f64 {
    let floor = b.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    a.iter()
        .zip(b)
        .map(|(x, y)| ulp_diff_floored(*x, *y, floor))
        .fold(0.0, f64::max)
}

/// Loads `lanes[l]` into lane `l` of a fresh tile in `load_rows` order;
/// missing lanes are the zero padding of a tail tile.
fn load_tile(lanes: &[&[Complex64]], load_rows: &[u32]) -> (Vec<Row>, Vec<Row>) {
    let n = load_rows.len();
    let (mut re, mut im) = (vec![[0.0; W]; n], vec![[0.0; W]; n]);
    for (t, &row) in load_rows.iter().enumerate() {
        let src: Vec<Complex64> = lanes.iter().map(|p| p[t]).collect();
        load_row(&src, &mut re[row as usize], &mut im[row as usize]);
    }
    (re, im)
}

/// Lane `l` of a tile, as a pencil.
fn lane_of(re: &[Row], im: &[Row], l: usize) -> Vec<Complex64> {
    re.iter().zip(im).map(|(r, i)| c64(r[l], i[l])).collect()
}

fn same_bits(a: &[Complex64], b: &[Complex64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Runs `plan` over the given lanes and returns each lane's pencil.
fn tile_transform(plan: &TileFft, lanes: &[&[Complex64]]) -> Vec<Vec<Complex64>> {
    let (mut re, mut im) = load_tile(lanes, plan.load_rows());
    plan.process(
        &mut re,
        &mut im,
        &mut vec![Complex64::ZERO; plan.scratch_len()],
    );
    (0..lanes.len()).map(|l| lane_of(&re, &im, l)).collect()
}

fn dir_of(fwd: bool) -> FftDirection {
    if fwd {
        FftDirection::Forward
    } else {
        FftDirection::Inverse
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Direct planner-dispatched 1D kernels: the split executor (fused
    /// first stage only for n ≤ 8; all three log₂n mod 3 schedule shapes
    /// above) and small-DFT. One transform pass → the kernel bound applies
    /// directly.
    #[test]
    fn planned_1d_kernels_agree(
        n in prop_oneof![
            Just(2usize), Just(4), Just(8),             // fused first stage only
            Just(16usize), Just(32),
            Just(64usize), Just(128), Just(256),        // log₂n mod 3 = 0/1/2
            Just(512), Just(1024), Just(4096),
            Just(7usize), Just(13),                     // small-DFT
        ],
        fwd in prop_oneof![Just(true), Just(false)],
        seed in 0u64..1024,
    ) {
        let (auto_p, scalar_p) = planners();
        let x = signal(n, seed);
        let mut a = x.clone();
        let mut b = x;
        auto_p.plan(n, dir_of(fwd)).process(&mut a);
        scalar_p.plan(n, dir_of(fwd)).process(&mut b);
        let d = max_ulp_diff(&a, &b);
        prop_assert!(d <= MAX_ULP, "n={n} fwd={fwd}: {d} ulp");
    }

    /// Bluestein is a *composite*: two inner power-of-two FFTs around a
    /// pointwise kernel multiply, so the per-pass kernel bound compounds
    /// once (same headroom rule as the c2r round trip below).
    #[test]
    fn planned_bluestein_agrees(
        n in prop_oneof![Just(96usize), Just(100), Just(243)],
        fwd in prop_oneof![Just(true), Just(false)],
        seed in 0u64..1024,
    ) {
        let (auto_p, scalar_p) = planners();
        let x = signal(n, seed);
        let mut a = x.clone();
        let mut b = x;
        auto_p.plan(n, dir_of(fwd)).process(&mut a);
        scalar_p.plan(n, dir_of(fwd)).process(&mut b);
        let d = max_ulp_diff(&a, &b);
        prop_assert!(d <= 2.0 * MAX_ULP, "n={n} fwd={fwd}: {d} ulp");
    }

    /// Real r2c then c2r through both planners.
    #[test]
    fn real_transforms_agree(
        n in prop_oneof![Just(64usize), Just(256), Just(1024)],
        seed in 0u64..1024,
    ) {
        let (auto_p, scalar_p) = planners();
        let input: Vec<f64> = signal(n, seed).iter().map(|z| z.re).collect();
        let fa = RealFft::new(&auto_p, n);
        let fb = RealFft::new(&scalar_p, n);
        let sa = fa.transform(&input);
        let sb = fb.transform(&input);
        let d = max_ulp_diff(&sa, &sb);
        prop_assert!(d <= MAX_ULP, "r2c n={n}: {d} ulp");

        let ia = RealIfft::new(&auto_p, n);
        let ib = RealIfft::new(&scalar_p, n);
        let ra = ia.transform(&sa);
        let rb = ib.transform(&sb);
        let d = max_ulp_diff_real(&ra, &rb);
        // The inverse consumes slightly-diverged spectra, so allow the
        // round trip one extra ulp of headroom on top of the kernel bound.
        prop_assert!(d <= 2.0 * MAX_ULP, "c2r n={n}: {d} ulp");

        // The in-place forms the pipeline calls are the same kernels: r2c
        // into a dirty output and packed c2r must reproduce the allocating
        // wrappers bit for bit, per planner.
        for (fwd, inv, spec, real) in [(&fa, &ia, &sa, &ra), (&fb, &ib, &sb, &rb)] {
            let mut out = vec![c64(f64::NAN, f64::NAN); n / 2 + 1];
            fwd.process(&input, &mut out);
            let same = |x: &Complex64, y: &Complex64| {
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
            };
            prop_assert!(out.iter().zip(spec).all(|(x, y)| same(x, y)), "r2c n={n}");
            let mut row = spec.clone();
            inv.process_packed(&mut row, &mut [], 1.0);
            let mut packed = vec![0.0; n];
            RealIfft::unpack(&row, &mut packed);
            let same = packed.iter().zip(real).all(|(x, y)| x.to_bits() == y.to_bits());
            prop_assert!(same, "packed c2r n={n}");
        }
    }

    /// Pruned-input forward transform (the paper's implicit zero padding).
    /// A composite — sub-FFTs combined through pointwise phase multiplies —
    /// so it gets the same one-compounding headroom as Bluestein.
    #[test]
    fn pruned_input_agrees(
        nk in prop_oneof![
            Just((256usize, 64usize)),
            Just((1024, 128)),
            Just((4096, 256)),
        ],
        fwd in prop_oneof![Just(true), Just(false)],
        seed in 0u64..1024,
    ) {
        let (n, k) = nk;
        let (auto_p, scalar_p) = planners();
        let head = signal(k, seed);
        let pa = PrunedInputFft::new(&auto_p, n, k, dir_of(fwd));
        let pb = PrunedInputFft::new(&scalar_p, n, k, dir_of(fwd));
        let a = pa.transform(&head);
        let b = pb.transform(&head);
        let d = max_ulp_diff(&a, &b);
        prop_assert!(d <= 2.0 * MAX_ULP, "pruned n={n} k={k}: {d} ulp");
    }

    /// The tile transform against the single-pencil plan of the same
    /// planner, lane by lane: every power-of-two schedule shape (including
    /// the lengths below 16, where the single-pencil side runs only its
    /// fused first stage) and the per-lane fallback lengths, on the auto and
    /// the forced-scalar planner.
    #[test]
    fn tile_agrees_with_plan_per_lane(
        n in prop_oneof![
            Just(2usize), Just(4), Just(8), Just(16), Just(32), Just(64), Just(128), Just(256),
            Just(6usize), Just(12), Just(15),
        ],
        fwd in prop_oneof![Just(true), Just(false)],
        seed in 0u64..1024,
    ) {
        let (auto_p, scalar_p) = planners();
        for planner in [&auto_p, &scalar_p] {
            let pencils: Vec<_> = (0..W as u64).map(|l| signal(n, seed + 1024 * l)).collect();
            let lanes: Vec<&[Complex64]> = pencils.iter().map(|p| p.as_slice()).collect();
            let tile = TileFft::new(planner, n, dir_of(fwd));
            let plan = planner.plan(n, dir_of(fwd));
            for (l, got) in tile_transform(&tile, &lanes).iter().enumerate() {
                let mut want = pencils[l].clone();
                plan.process(&mut want);
                let d = max_ulp_diff(got, &want);
                prop_assert!(d <= MAX_ULP, "n={n} fwd={fwd} lane {l}: {d} ulp");
            }
        }
    }

    /// A pencil's bits do not depend on where it sits: lane 0 of a full
    /// tile, lane 7 of another, and the only live lane of a tail tile whose
    /// other lanes are zero padding all give the same result.
    #[test]
    fn tile_result_is_lane_position_independent(
        n in prop_oneof![Just(2usize), Just(16), Just(32), Just(128), Just(256), Just(12)],
        fwd in prop_oneof![Just(true), Just(false)],
        seed in 0u64..1024,
    ) {
        let planner = FftPlanner::new();
        let tile = TileFft::new(&planner, n, dir_of(fwd));
        let pencils: Vec<_> = (0..2 * W as u64).map(|l| signal(n, seed + 1024 * l)).collect();
        let me = pencils[0].as_slice();
        let mut first: Vec<&[Complex64]> = pencils[..W].iter().map(|p| p.as_slice()).collect();
        let mut last: Vec<&[Complex64]> = pencils[W..].iter().map(|p| p.as_slice()).collect();
        first[0] = me;
        last[W - 1] = me;
        let in_lane0 = tile_transform(&tile, &first).swap_remove(0);
        let in_lane7 = tile_transform(&tile, &last).swap_remove(W - 1);
        let alone = tile_transform(&tile, &[me]).swap_remove(0);
        prop_assert!(same_bits(&in_lane0, &in_lane7), "n={n}: lane 0 vs lane 7");
        prop_assert!(same_bits(&in_lane0, &alone), "n={n}: lane 0 vs one-lane tail tile");
    }

    /// The pruned forward as a tile operation against the zero-padded
    /// O(n²) `dft`, lane by lane: every power-of-two `n ≤ 256` with every
    /// divisor `k′` (1 and `n` among them), both directions, on the auto
    /// and the forced-scalar planner, and the per-lane fallback at
    /// `(60, 12)`, `(9, 3)` and `(15, 5)`. Tiles with `live < W` leave their
    /// dead lanes zero.
    ///
    /// The oracle sums `k′` terms with `cis` twiddles of unreduced angles
    /// and carries its own rounding, which grows with `n`: the
    /// single-pencil `PrunedInputFft::process` and the full planned
    /// transform are up to 11 ulp from it at `(256, 256)`, so the bound is
    /// [`ORACLE_ULP`], not the two-planner `2 · MAX_ULP`.
    #[test]
    fn pruned_tile_matches_padded_dft(
        fwd in prop_oneof![Just(true), Just(false)],
        live in 1usize..=W,
        seed in 0u64..1024,
    ) {
        let mut nks: Vec<(usize, usize)> = (0..=8)
            .map(|p| 1usize << p)
            .flat_map(|n| (0..=n.trailing_zeros()).map(move |q| (n, 1usize << q)))
            .collect();
        nks.extend([(60, 12), (9, 3), (15, 5)]);
        let (auto_p, scalar_p) = planners();
        for (n, k) in nks {
            let heads: Vec<_> = (0..live as u64).map(|l| signal(k, seed + 1024 * l)).collect();
            let lanes: Vec<&[Complex64]> = heads.iter().map(|p| p.as_slice()).collect();
            let identity: Vec<u32> = (0..k as u32).collect();
            let (xre, xim) = load_tile(&lanes, &identity);
            let wants: Vec<_> = heads
                .iter()
                .map(|head| {
                    let mut padded = head.clone();
                    padded.resize(n, Complex64::ZERO);
                    dft(&padded, dir_of(fwd))
                })
                .collect();
            for planner in [&auto_p, &scalar_p] {
                let pruned = PrunedInputFft::new(planner, n, k, dir_of(fwd));
                let lane_len = TileFft::new(planner, n, dir_of(fwd)).scratch_len();
                let (mut ore, mut oim) = (vec![[f64::NAN; W]; n], vec![[f64::NAN; W]; n]);
                pruned.process_tile(
                    (&xre, &xim),
                    (&mut ore, &mut oim),
                    &mut vec![Complex64::ZERO; lane_len],
                );
                for (l, want) in wants.iter().enumerate() {
                    let d = max_ulp_diff(&lane_of(&ore, &oim, l), want);
                    prop_assert!(
                        d <= ORACLE_ULP,
                        "pruned tile n={n} k={k} fwd={fwd} lane {l}: {d} ulp"
                    );
                }
                let dead = ore.iter().chain(&oim).flat_map(|row| &row[live..]);
                prop_assert!(dead.copied().all(|v| v == 0.0), "n={n} k={k}: dead lane");
            }
        }
    }

    /// `fft_axis` along the strided axes against the O(n²) reference, on
    /// shapes whose run of adjacent pencils is not a multiple of the tile
    /// width (27 = 3·8 + 3 and 48 / 8 with len 4 and 6): full and tail
    /// tiles, power-of-two and fallback lengths.
    #[test]
    fn strided_axes_match_dft(
        dims in prop_oneof![Just((512usize, 3usize, 9usize)), Just((4, 6, 8))],
        axis in 0usize..2,
        seed in 0u64..1024,
    ) {
        let (n0, n1, n2) = dims;
        let x = signal(n0 * n1 * n2, seed);
        let (len, stride) = if axis == 0 { (n0, n1 * n2) } else { (n1, n2) };
        for planner in [FftPlanner::new(), FftPlanner::with_simd_variant(Variant::Scalar)] {
            let mut got = x.clone();
            fft_axis(&planner, &mut got, dims, axis, FftDirection::Forward);
            for base in (0..x.len()).filter(|i| (i / stride) % len == 0) {
                let pencil: Vec<_> = (0..len).map(|t| x[base + t * stride]).collect();
                let want = dft(&pencil, FftDirection::Forward);
                let tol = 1e-9 * len as f64 * inf_norm(&want).max(1.0);
                for (t, w) in want.iter().enumerate() {
                    let g = got[base + t * stride];
                    prop_assert!((g - *w).norm() <= tol, "dims={dims:?} axis={axis} base={base}");
                }
            }
        }
    }

    /// Batched pencils along every axis of a 3D buffer — exercises the
    /// contiguous (axis 2) and pencil-tile (axes 0/1) dispatch paths with
    /// both kernel variants.
    #[test]
    fn batched_axes_agree(
        dims in prop_oneof![
            Just((8usize, 64usize, 64usize)),
            Just((64, 8, 64)),
            Just((64, 64, 8)),
            Just((512, 3, 9)),
        ],
        axis in 0usize..3,
        seed in 0u64..1024,
    ) {
        let (auto_p, scalar_p) = planners();
        let (n0, n1, n2) = dims;
        let x = signal(n0 * n1 * n2, seed);
        let mut a = x.clone();
        let mut b = x;
        fft_axis(&auto_p, &mut a, dims, axis, FftDirection::Forward);
        fft_axis(&scalar_p, &mut b, dims, axis, FftDirection::Forward);
        let d = max_ulp_diff(&a, &b);
        prop_assert!(d <= MAX_ULP, "dims={dims:?} axis={axis}: {d} ulp");
    }
}

/// The whole suite above compares against a *forced-scalar* planner; this
/// pins the other half of the dispatch contract — forced-scalar planners
/// produce bit-identical output regardless of thread count (pure scalar
/// arithmetic in a fixed order).
#[test]
fn forced_scalar_is_bit_stable_across_runs() {
    let p = Arc::new(FftPlanner::with_simd_variant(Variant::Scalar));
    let dims = (16, 32, 8);
    let x = signal(16 * 32 * 8, 7);
    let mut first = x.clone();
    for axis in 0..3 {
        fft_axis(&p, &mut first, dims, axis, FftDirection::Forward);
    }
    for _ in 0..3 {
        let mut again = x.clone();
        for axis in 0..3 {
            fft_axis(&p, &mut again, dims, axis, FftDirection::Forward);
        }
        for (u, v) in first.iter().zip(&again) {
            assert_eq!(u.re.to_bits(), v.re.to_bits());
            assert_eq!(u.im.to_bits(), v.im.to_bits());
        }
    }
}
