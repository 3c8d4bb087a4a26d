//! The power-of-two FFT executor and its runtime-dispatched butterfly
//! kernels.
//!
//! Every stage runs in **split** layout (separate `re[]` / `im[]` arrays),
//! the layout vector units prefer: a 256-bit lane holds four butterflies'
//! worth of one component, twiddle tables load as plain contiguous vectors,
//! and the ±i rotations inside radix-4/8 butterflies are free (an
//! array-role swap plus a sign flip — no shuffles). [`SplitFft`] is the
//! planner's plan for every power-of-two length, and the inner transform
//! of Bluestein's. It chooses a stage decomposition ([`plan_radices`])
//! shaped so vectors stay full:
//!
//! * the **first** stage (`m = 1`, whose twiddles are all unity) is fused
//!   into the digit-reversal gather — the butterfly runs while the permuted
//!   values are in registers, so it costs no extra memory pass and no
//!   twiddle loads; for `n ≤ 8` it is the whole transform;
//! * the leftover non-8 radix goes **last**, not first, so every stage
//!   after the fused one has `m ≥ first_radix ≥ 4` — wide enough for the
//!   4-lane AVX2 kernels (narrow-`m` stages were the executor's whole
//!   cost: a split-layout scalar radix-8 pass at `m ∈ {1, 2}` ran ~8×
//!   slower than the vector pass that replaced it).
//!
//! After the fused gather the planned stages run with the widest kernel
//! available, then one pass interleaves back. Stage tables are packed per
//! stage — `twre[(p-1)·m + j] = Re(w^{p·j·stride})` — so the inner loops
//! never gather strided twiddles.
//!
//! # Dispatch rules
//!
//! * The [`Variant`] is a process-wide constant, chosen once:
//!   `LCC_SIMD=off|0|scalar` overrides to scalar, and on x86_64 the
//!   AVX2+FMA path requires `is_x86_feature_detected!` to confirm both
//!   features at runtime. The vector kernels are compiled on their
//!   architecture in every build; on any miss — and under Miri, which
//!   cannot execute them — the [`scalar`] split kernels run the same
//!   schedule.
//! * Per stage, the vector kernel needs `m` (the butterfly block half/quarter
//!   span) to cover a whole vector: `m ≥ 4` for AVX2, `m ≥ 2` for NEON —
//!   always satisfied by the [`plan_radices`] schedule for `n ≥ 16`. Any
//!   narrower stage runs the split-layout scalar kernels in [`scalar`].
//! * Pencil tiles ([`crate::tile`]) run every stage — the first included —
//!   through the same dispatch ([`run_stage`]) on tables whose twiddles are
//!   repeated once per lane ([`stage_tables`]); with the lanes folded into
//!   `m` no stage is ever narrow.
//!
//! # Numerics
//!
//! The vector kernels contract complex multiplies with FMA
//! (`re' = fnmadd(ai·bi, ar·br)`), which rounds once where the scalar path
//! rounds twice. Results are therefore not bit-identical to the scalar
//! kernels — they are *more* accurate, and the contract (pinned by
//! `tests/simd_identity.rs`) is elementwise agreement within 2 ulp at the
//! spectrum's norm scale. See DESIGN.md §5g.

// lcc-lint: hot-path — butterfly executor; only plan-time may allocate.

use std::sync::OnceLock;

use crate::complex::Complex64;
use crate::{Fft, FftDirection};

pub(crate) mod scalar;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;

#[cfg(target_arch = "aarch64")]
pub(crate) mod neon;

/// Which butterfly kernel family executes the stages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Split-layout scalar kernels (the always-available fallback).
    Scalar,
    /// 4-wide f64 split-layout kernels via AVX2 + FMA (x86_64).
    Avx2Fma,
    /// 2-wide f64 split-layout kernels via NEON (aarch64).
    Neon,
}

impl Variant {
    /// Stable lower-case name, used as the benchmark row label.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Scalar => "scalar",
            Variant::Avx2Fma => "avx2fma",
            Variant::Neon => "neon",
        }
    }

    /// Whether this variant's kernels can run on the current build/CPU.
    /// `Scalar` always can; the vector variants need the right
    /// architecture, (on x86_64) runtime CPUID confirmation, and a real
    /// CPU: Miri cannot execute vector intrinsics, so there they are
    /// unavailable whatever the probe would report.
    pub fn available(self) -> bool {
        match self {
            Variant::Scalar => true,
            _ if cfg!(miri) => false,
            Variant::Avx2Fma => avx2_detected(),
            Variant::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// This variant if its kernels can run here, else `Scalar`: forcing a
    /// variant the host lacks degrades instead of hitting illegal
    /// instructions.
    pub(crate) fn or_scalar(self) -> Variant {
        if self.available() {
            self
        } else {
            Variant::Scalar
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_detected() -> bool {
    false
}

/// The process-wide kernel variant, decided once on first use.
///
/// `LCC_SIMD=off` (or `0` / `scalar`) forces the scalar fallback — the
/// benchmark harness uses this to measure both variants from one binary.
pub fn variant() -> Variant {
    static CHOSEN: OnceLock<Variant> = OnceLock::new();
    *CHOSEN.get_or_init(detect)
}

/// Name of the process-wide variant (benchmark row label).
pub fn variant_name() -> &'static str {
    variant().name()
}

fn detect() -> Variant {
    if matches!(
        std::env::var("LCC_SIMD").as_deref(),
        Ok("off") | Ok("0") | Ok("scalar")
    ) {
        return Variant::Scalar;
    }
    if Variant::Avx2Fma.available() {
        return Variant::Avx2Fma;
    }
    if Variant::Neon.available() {
        Variant::Neon
    } else {
        Variant::Scalar
    }
}

/// Digit reversal for the mixed radix system `radices` (first stage's radix
/// first): `out[i] = in[perm[i]]` is the input order the iterative DIT
/// stages expect. For an all-2 system this is the classic bit reversal.
pub(crate) fn digit_reversal(n: usize, radices: &[usize]) -> Vec<u32> {
    debug_assert_eq!(radices.iter().product::<usize>(), n.max(1));
    (0..n)
        .map(|i| {
            let mut v = i;
            let mut out = 0usize;
            for &r in radices {
                out = out * r + (v % r);
                v /= r;
            }
            out as u32
        })
        .collect()
}

/// The executor's stage decomposition for power-of-two `n`: mostly
/// radix-8 for the fewest memory passes, with the leftover factor placed
/// **last** (largest `m`) and never smaller than 4, so that after the fused
/// first stage every stage spans at least 4 lanes:
///
/// * `log₂n ≡ 0 (mod 3)` → `[8, 8, …, 8]` (empty for `n = 1`)
/// * `log₂n ≡ 1`         → `[4, 8, …, 8, 4]` (`[2]` for `n = 2`, the only
///   radix-2 stage)
/// * `log₂n ≡ 2`         → `[8, 8, …, 8, 4]`
pub(crate) fn plan_radices(n: usize) -> Vec<usize> {
    debug_assert!(n.is_power_of_two());
    let log = n.trailing_zeros() as usize;
    // lcc-lint: allow(alloc) — plan-time schedule, built once.
    let mut radices = Vec::with_capacity(log / 3 + 2);
    match log % 3 {
        0 => radices.extend(std::iter::repeat_n(8, log / 3)),
        1 if log == 1 => radices.push(2),
        1 => {
            radices.push(4);
            radices.extend(std::iter::repeat_n(8, log / 3 - 1));
            radices.push(4);
        }
        _ => {
            radices.extend(std::iter::repeat_n(8, log / 3));
            radices.push(4);
        }
    }
    radices
}

/// One butterfly stage: `radix`-point butterflies over blocks of
/// `radix · m`, twiddles packed stage-local.
pub(crate) struct Stage {
    radix: usize,
    m: usize,
    /// `twre[(p-1)·m + j] = Re(w^{p·j·stride})`, `p in 1..radix`.
    twre: Vec<f64>,
    twim: Vec<f64>,
}

/// Packed tables for the stages `radices[from..]` of an `n`-point schedule,
/// each twiddle repeated `lanes` times.
///
/// `lanes = 1` is the single-pencil layout. With `lanes = W` the table is
/// that of a [`crate::tile`] of `W` pencils: stage `(r, m)` of one pencil is
/// stage `(r, m·W)` of the `n·W` array `re[t·W + lane]`, because element `j`
/// of a butterfly block becomes the `W` contiguous elements `j·W..(j+1)·W`,
/// all of which take pencil element `j`'s twiddle.
pub(crate) fn stage_tables(
    n: usize,
    direction: FftDirection,
    radices: &[usize],
    from: usize,
    lanes: usize,
) -> Vec<Stage> {
    let step = direction.angle_sign() * 2.0 * std::f64::consts::PI / n as f64;
    // lcc-lint: allow(alloc) — plan-time stage tables, built once.
    let mut stages = Vec::with_capacity(radices.len() - from);
    let mut m: usize = radices[..from].iter().product();
    for &r in &radices[from..] {
        let stride = n / (r * m);
        // lcc-lint: allow(alloc) — plan-time packed twiddles.
        let mut twre = Vec::with_capacity((r - 1) * m * lanes);
        // lcc-lint: allow(alloc) — plan-time packed twiddles.
        let mut twim = Vec::with_capacity((r - 1) * m * lanes);
        for p in 1..r {
            for j in 0..m {
                let (sin, cos) = (step * (p * j * stride) as f64).sin_cos();
                twre.extend(std::iter::repeat_n(cos, lanes));
                twim.extend(std::iter::repeat_n(sin, lanes));
            }
        }
        stages.push(Stage {
            radix: r,
            m: m * lanes,
            twre,
            twim,
        });
        m *= r;
    }
    debug_assert_eq!(m, n);
    stages
}

/// The power-of-two [`Fft`] plan: a split-layout stage schedule for one
/// `(n, direction)`, run with the kernels of one [`Variant`].
pub(crate) struct SplitFft {
    n: usize,
    direction: FftDirection,
    variant: Variant,
    /// `out[i] = in[perm[i]]` digit-reversal permutation.
    perm: Vec<u32>,
    /// Radix of the first (`m = 1`, unit-twiddle) stage, fused into the
    /// permute gather by `process`; `1` for the identity plan `n = 1`.
    first_radix: usize,
    /// The remaining stages, starting at `m = first_radix`.
    stages: Vec<Stage>,
}

impl SplitFft {
    /// Plans a transform of power-of-two length `n ≥ 1` whose stages run
    /// the kernels of `variant`, or the scalar ones if this build/CPU
    /// cannot run it.
    pub(crate) fn new(n: usize, direction: FftDirection, variant: Variant) -> Self {
        assert!(
            n.is_power_of_two(),
            "SplitFft requires power-of-two length, got {n}"
        );
        let radices = plan_radices(n);
        let (first_radix, stages) = match radices.first() {
            Some(&r) => (r, stage_tables(n, direction, &radices, 1, 1)),
            None => (1, Vec::new()), // lcc-lint: allow(alloc) — n = 1, no stages
        };
        SplitFft {
            n,
            direction,
            variant: variant.or_scalar(),
            perm: digit_reversal(n, &radices),
            first_radix,
            stages,
        }
    }

    /// The variant this plan's stages dispatch to.
    #[cfg(test)]
    pub(crate) fn plan_variant(&self) -> Variant {
        self.variant
    }
}

impl Fft for SplitFft {
    fn len(&self) -> usize {
        self.n
    }

    fn direction(&self) -> FftDirection {
        self.direction
    }

    fn kernel_kind(&self) -> &'static str {
        "split"
    }

    /// Transforms `buf` in place: fused permute + deinterleave + first
    /// butterfly stage into this thread's split scratch, run the remaining
    /// stage schedule, interleave back. Zero allocations once the scratch
    /// has grown to `2n`, and no lock: the buffer is thread-local, so the
    /// per-row transforms of a pipeline never meet on the arena free list.
    fn process(&self, buf: &mut [Complex64]) {
        let n = self.n;
        assert_eq!(buf.len(), n, "buffer length must equal plan length");
        if n == 1 {
            return;
        }
        SPLIT_SCRATCH.with_borrow_mut(|scratch| {
            if scratch.len() < 2 * n {
                scratch.resize(2 * n, 0.0);
            }
            let (re, im) = scratch[..2 * n].split_at_mut(n);
            // Fused permute + deinterleave + first stage: reads of `buf` are
            // gather-ordered (buf is L2-resident at these sizes), writes are
            // sequential, and the unit-twiddle butterfly runs in registers.
            let fwd = matches!(self.direction, FftDirection::Forward);
            match (self.first_radix, fwd) {
                (2, _) => scalar::fused_first_r2(buf, &self.perm, re, im),
                (4, true) => scalar::fused_first_r4::<true>(buf, &self.perm, re, im),
                (4, false) => scalar::fused_first_r4::<false>(buf, &self.perm, re, im),
                (8, true) => scalar::fused_first_r8::<true>(buf, &self.perm, re, im),
                (8, false) => scalar::fused_first_r8::<false>(buf, &self.perm, re, im),
                _ => unreachable!("unsupported first radix {}", self.first_radix),
            }
            for st in &self.stages {
                run_stage(self.variant, self.direction, st, re, im);
            }
            for (i, v) in buf.iter_mut().enumerate() {
                *v = Complex64 {
                    re: re[i],
                    im: im[i],
                };
            }
        });
    }
}

thread_local! {
    /// Grow-only split scratch of [`SplitFft::process`] (`2n` f64), one per
    /// thread. Every element read is written first by the fused first stage.
    // lcc-lint: allow(alloc) — empty until the thread's first transform.
    static SPLIT_SCRATCH: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs one stage over the split arrays with the widest kernel `variant`
/// has for it. `re`/`im` have a length that `radix · m` divides; the single
/// dispatch site of every stage kernel, for single pencils and tiles alike.
pub(crate) fn run_stage(
    variant: Variant,
    direction: FftDirection,
    st: &Stage,
    re: &mut [f64],
    im: &mut [f64],
) {
    let fwd = matches!(direction, FftDirection::Forward);
    debug_assert!(re.len() == im.len() && re.len().is_multiple_of(st.radix * st.m));
    #[cfg(target_arch = "x86_64")]
    if variant == Variant::Avx2Fma && st.m >= 4 {
        // SAFETY: callers pass `Variant::Avx2Fma` only after
        // `Variant::available` (`is_x86_feature_detected!`) confirmed
        // avx2+fma on this CPU; `re`/`im` have equal length with
        // `radix·m | len` and `4 | m` (stage `m`s are products of radices
        // ≥ 4 times the lane count), which is exactly what the kernels
        // index.
        unsafe {
            match (st.radix, fwd) {
                (2, _) => avx2::stage_r2(re, im, st.m, &st.twre, &st.twim),
                (4, true) => avx2::stage_r4::<true>(re, im, st.m, &st.twre, &st.twim),
                (4, false) => avx2::stage_r4::<false>(re, im, st.m, &st.twre, &st.twim),
                (8, true) => avx2::stage_r8::<true>(re, im, st.m, &st.twre, &st.twim),
                (8, false) => avx2::stage_r8::<false>(re, im, st.m, &st.twre, &st.twim),
                _ => unreachable!("unsupported stage radix {}", st.radix),
            }
        }
        return;
    }
    #[cfg(target_arch = "aarch64")]
    if variant == Variant::Neon && st.m >= 2 {
        // SAFETY: NEON is baseline on aarch64 (the variant is only
        // available there); slice geometry as for the AVX2 arm, with
        // `2 | m`.
        unsafe {
            match (st.radix, fwd) {
                (2, _) => neon::stage_r2(re, im, st.m, &st.twre, &st.twim),
                (4, true) => neon::stage_r4::<true>(re, im, st.m, &st.twre, &st.twim),
                (4, false) => neon::stage_r4::<false>(re, im, st.m, &st.twre, &st.twim),
                (8, true) => neon::stage_r8::<true>(re, im, st.m, &st.twre, &st.twim),
                (8, false) => neon::stage_r8::<false>(re, im, st.m, &st.twre, &st.twim),
                _ => unreachable!("unsupported stage radix {}", st.radix),
            }
        }
        return;
    }
    // Narrow stages (m below the vector width) and the scalar variant:
    // split-layout scalar.
    let _ = variant;
    match (st.radix, fwd) {
        (2, _) => scalar::stage_r2(re, im, st.m, &st.twre, &st.twim),
        (4, true) => scalar::stage_r4::<true>(re, im, st.m, &st.twre, &st.twim),
        (4, false) => scalar::stage_r4::<false>(re, im, st.m, &st.twre, &st.twim),
        (8, true) => scalar::stage_r8::<true>(re, im, st.m, &st.twre, &st.twim),
        (8, false) => scalar::stage_r8::<false>(re, im, st.m, &st.twre, &st.twim),
        _ => unreachable!("unsupported stage radix {}", st.radix),
    }
}

/// f64 spacing (one unit in the last place) at magnitude `mag`.
///
/// Test metric helper: `mag` is clamped to the smallest positive normal so
/// denormal/zero scales don't collapse the tolerance to zero.
pub fn ulp_at(mag: f64) -> f64 {
    let m = mag.abs().max(f64::MIN_POSITIVE);
    f64::from_bits(m.to_bits() + 1) - m
}

/// Distance between `a` and `b` in ulps measured at the magnitude scale
/// `max(|a|, |b|, floor)`.
///
/// This is the SIMD-identity contract metric: `floor` is the transform's
/// output norm (`‖X‖∞`), so near-cancelled bins — whose own ulp is
/// meaninglessly tiny next to the `ε·‖X‖` rounding noise both paths carry —
/// are compared at the scale the error actually lives at, while
/// full-magnitude bins are held to their own ulp. See DESIGN.md §5g.
pub fn ulp_diff_floored(a: f64, b: f64, floor: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    let scale = a.abs().max(b.abs()).max(floor.abs());
    (a - b).abs() / ulp_at(scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::dft::dft;
    use crate::planner::FftPlanner;

    #[test]
    fn digit_reversal_all_twos_is_bit_reversal() {
        let n = 16;
        let perm = digit_reversal(n, &[2, 2, 2, 2]);
        for (i, &p) in perm.iter().enumerate() {
            let bits = (i as u32).reverse_bits() >> 28;
            assert_eq!(p, bits, "i={i}");
        }
    }

    #[test]
    fn variant_name_is_stable() {
        assert_eq!(Variant::Scalar.name(), "scalar");
        assert_eq!(Variant::Avx2Fma.name(), "avx2fma");
        assert_eq!(Variant::Neon.name(), "neon");
        assert!(["scalar", "avx2fma", "neon"].contains(&variant_name()));
    }

    #[test]
    fn scalar_variant_is_always_available() {
        assert!(Variant::Scalar.available());
    }

    /// The schedule keeps vectors full: leftover radix last, every
    /// post-first stage at least 4 wide, product exact; for `n ≤ 8` the
    /// fused first stage is the whole transform.
    #[test]
    fn plan_radices_shape() {
        assert!(plan_radices(1).is_empty());
        for log in 1..=20usize {
            let n = 1usize << log;
            let radices = plan_radices(n);
            assert_eq!(radices.iter().product::<usize>(), n, "n={n}");
            assert!(
                radices.iter().all(|r| [2, 4, 8].contains(r)),
                "n={n}: {radices:?}"
            );
            if n <= 8 {
                assert_eq!(radices, [n], "n={n}");
            } else {
                // First stage is fused; every later stage's m starts at
                // first_radix and only grows, so m >= 4 throughout — the
                // AVX2 kernels never fall back to a narrow scalar stage.
                assert!(radices[0] >= 4, "n={n}: {radices:?}");
                assert!(!radices.contains(&2), "n={n}: {radices:?}");
            }
        }
    }

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| c64((i as f64 * 0.9).sin(), (i as f64 * 0.4).cos()))
            .collect()
    }

    /// Every power of two from 1 to 4096, both directions, through
    /// `planner`, against the O(n²) oracle.
    fn assert_planner_matches_dft(planner: &FftPlanner) {
        for log in 0..=12 {
            let n = 1usize << log;
            let x = signal(n);
            for dir in [FftDirection::Forward, FftDirection::Inverse] {
                let expect = dft(&x, dir);
                let plan = planner.plan(n, dir);
                assert_eq!(plan.kernel_kind(), "split");
                let mut buf = x.clone();
                plan.process(&mut buf);
                for (a, b) in buf.iter().zip(&expect) {
                    assert!((*a - *b).norm() < 1e-6 * n as f64, "n={n} {dir:?}");
                }
            }
        }
    }

    /// The auto planner: the host's widest kernels.
    #[test]
    fn matches_dft_all_pow2() {
        assert_planner_matches_dft(&FftPlanner::new());
    }

    /// The forced-scalar planner: the split scalar kernels that run
    /// wherever the vector variants cannot.
    #[test]
    fn scalar_fallback_matches_dft_all_pow2() {
        assert_planner_matches_dft(&FftPlanner::with_simd_variant(Variant::Scalar));
    }

    /// Forward then inverse scales by `n`, on every schedule shape.
    #[test]
    fn roundtrip_scales_by_n() {
        for n in [2usize, 8, 16, 128, 256, 512] {
            let x = signal(n);
            let mut buf = x.clone();
            SplitFft::new(n, FftDirection::Forward, variant()).process(&mut buf);
            SplitFft::new(n, FftDirection::Inverse, variant()).process(&mut buf);
            for (a, b) in x.iter().zip(&buf) {
                assert!((*a * n as f64 - *b).norm() < 1e-8 * n as f64, "n={n}");
            }
        }
    }

    #[test]
    fn len_one_is_identity() {
        let plan = SplitFft::new(1, FftDirection::Forward, variant());
        let mut buf = vec![c64(3.0, 4.0)];
        plan.process(&mut buf);
        assert_eq!(buf[0], c64(3.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_pow2() {
        SplitFft::new(12, FftDirection::Forward, variant());
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn rejects_wrong_buffer() {
        let plan = SplitFft::new(8, FftDirection::Forward, variant());
        plan.process(&mut [Complex64::ZERO; 4]);
    }

    #[test]
    fn forced_plan_matches_dft_when_available() {
        // Exercises the full executor (split scalar kernels at least; the
        // vector kernels too when the host variant is a vector one).
        for v in [Variant::Avx2Fma, Variant::Neon, variant()] {
            if !v.available() {
                continue;
            }
            // Covers every plan_radices shape (log₂n mod 3 ∈ {0, 1, 2}),
            // the tiny fused-only lengths, and both directions.
            for n in [2usize, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
                for dir in [FftDirection::Forward, FftDirection::Inverse] {
                    let plan = SplitFft::new(n, dir, v);
                    let x: Vec<Complex64> = (0..n)
                        .map(|i| c64((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
                        .collect();
                    let expect = dft(&x, dir);
                    let mut buf = x;
                    plan.process(&mut buf);
                    for (a, b) in buf.iter().zip(&expect) {
                        assert!(
                            (*a - *b).norm() < 1e-8 * n as f64,
                            "variant {:?} n={n} {dir:?}",
                            plan.plan_variant()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ulp_metric_basics() {
        assert_eq!(ulp_diff_floored(1.0, 1.0, 0.0), 0.0);
        let next = f64::from_bits(1.0f64.to_bits() + 1);
        assert!((ulp_diff_floored(1.0, next, 0.0) - 1.0).abs() < 1e-12);
        // A tiny absolute difference is huge in its own ulps but small at
        // the norm scale.
        assert!(ulp_diff_floored(1e-20, 2e-20, 0.0) > 1e6);
        assert!(ulp_diff_floored(1e-20, 2e-20, 1.0) < 1.0);
    }
}
