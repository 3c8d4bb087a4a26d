//! Runtime-dispatched SIMD butterfly executor.
//!
//! The scalar kernels in [`crate::radix2`] / [`crate::radix4`] /
//! [`crate::radix8`] operate on interleaved `Complex64` pairs — the layout
//! the rest of the pipeline stores. Vector units prefer the opposite:
//! **split** layout (separate `re[]` / `im[]` arrays), where a 256-bit lane
//! holds four butterflies' worth of one component, twiddle tables load as
//! plain contiguous vectors, and the ±i rotations inside radix-4/8
//! butterflies are free (an array-role swap plus a sign flip — no shuffles).
//!
//! [`SimdPlan`] is the shared executor those kernels dispatch to when a
//! vector variant is selected. It chooses its **own** stage decomposition
//! ([`plan_radices`]), independent of the host kernel's scalar schedule,
//! shaped so vectors stay full:
//!
//! * the **first** stage (`m = 1`, whose twiddles are all unity) is fused
//!   into the digit-reversal gather — the butterfly runs while the permuted
//!   values are in registers, so it costs no extra memory pass and no
//!   twiddle loads;
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
//! * The [`Variant`] is a process-wide constant, chosen once: the `simd`
//!   cargo feature must be on, `LCC_SIMD=off|0|scalar` overrides to scalar,
//!   and on x86_64 the AVX2+FMA path additionally requires
//!   `is_x86_feature_detected!` to confirm both features at runtime. On any
//!   miss the interleaved scalar kernels run unchanged — dispatch is
//!   data-invisible on non-SIMD hosts.
//! * Per stage, the vector kernel needs `m` (the butterfly block half/quarter
//!   span) to cover a whole vector: `m ≥ 4` for AVX2, `m ≥ 2` for NEON —
//!   always satisfied by the [`plan_radices`] schedule for `n ≥ 16`. Any
//!   narrower stage (forced plans on tiny `n`) runs the split-layout scalar
//!   kernels in [`scalar`].
//! * Transforms shorter than [`MIN_SIMD_LEN`] skip the executor entirely:
//!   the two layout-conversion passes would cost more than the stages.
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
use crate::FftDirection;

pub(crate) mod scalar;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) mod avx2;

#[cfg(all(feature = "simd", target_arch = "aarch64"))]
pub(crate) mod neon;

/// Transforms shorter than this never build a [`SimdPlan`] on the auto
/// path: the deinterleave/interleave passes dominate at tiny sizes.
pub(crate) const MIN_SIMD_LEN: usize = 16;

/// Which butterfly kernel family executes the stages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Interleaved scalar kernels (the always-available fallback).
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
    /// `Scalar` always can; the vector variants need the `simd` feature,
    /// the right architecture, and (on x86_64) runtime CPUID confirmation.
    pub fn available(self) -> bool {
        match self {
            Variant::Scalar => true,
            Variant::Avx2Fma => avx2_detected(),
            Variant::Neon => cfg!(all(feature = "simd", target_arch = "aarch64")),
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn avx2_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
fn avx2_detected() -> bool {
    false
}

/// The process-wide kernel variant, decided once on first use.
///
/// `LCC_SIMD=off` (or `0` / `scalar`) forces the scalar fallback even in
/// `--features simd` builds — the benchmark harness uses this to measure
/// both variants from one binary.
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

/// The executor's own stage decomposition for power-of-two `n ≥ 2`: mostly
/// radix-8 for the fewest memory passes, with the leftover factor placed
/// **last** (largest `m`) and never smaller than 4, so that after the fused
/// first stage every stage spans at least 4 lanes:
///
/// * `log₂n ≡ 0 (mod 3)` → `[8, 8, …, 8]`
/// * `log₂n ≡ 1`         → `[4, 8, …, 8, 4]` (no radix-2 stage at all)
/// * `log₂n ≡ 2`         → `[8, 8, …, 8, 4]`
pub(crate) fn plan_radices(n: usize) -> Vec<usize> {
    debug_assert!(n.is_power_of_two() && n >= 2);
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

/// A planned split-layout stage schedule for one `(n, direction)`.
///
/// Owned by the interleaved kernels ([`crate::radix2::Radix2Fft`] etc.),
/// which delegate `process` here when a vector variant is active.
pub(crate) struct SimdPlan {
    n: usize,
    direction: FftDirection,
    variant: Variant,
    /// `out[i] = in[perm[i]]` digit-reversal permutation.
    perm: Vec<u32>,
    /// Radix of the first (`m = 1`, unit-twiddle) stage, fused into the
    /// permute gather by `process`.
    first_radix: usize,
    /// The remaining stages, starting at `m = first_radix`.
    stages: Vec<Stage>,
}

impl SimdPlan {
    /// Auto-dispatch constructor used by kernel `new()`: builds a plan only
    /// when the process-wide [`variant`] is a vector one and `n` is worth
    /// the layout conversion.
    pub(crate) fn auto(n: usize, direction: FftDirection) -> Option<Self> {
        if n < MIN_SIMD_LEN {
            return None;
        }
        Self::forced(n, direction, variant())
    }

    /// Builds a plan for an explicitly chosen variant (test/bench hook; no
    /// minimum-size gate). Returns `None` — meaning "use the interleaved
    /// scalar kernel" — for `Variant::Scalar`, for degenerate lengths, and
    /// for variants whose kernels cannot run on this build/CPU (so forcing
    /// a wrong variant degrades to scalar instead of hitting illegal
    /// instructions).
    pub(crate) fn forced(n: usize, direction: FftDirection, variant: Variant) -> Option<Self> {
        if variant == Variant::Scalar || !variant.available() || n < 2 {
            return None;
        }
        debug_assert!(n.is_power_of_two());
        let radices = plan_radices(n);
        Some(SimdPlan {
            n,
            direction,
            variant,
            perm: digit_reversal(n, &radices),
            first_radix: radices[0],
            stages: stage_tables(n, direction, &radices, 1, 1),
        })
    }

    /// The variant this plan's stages dispatch to.
    #[cfg(test)]
    pub(crate) fn plan_variant(&self) -> Variant {
        self.variant
    }

    /// Transforms `buf` in place: fused permute + deinterleave + first
    /// butterfly stage into this thread's split scratch, run the remaining
    /// stage schedule, interleave back. Zero allocations once the scratch
    /// has grown to `2n`, and no lock: the buffer is thread-local, so the
    /// per-row transforms of a pipeline never meet on the arena free list.
    pub(crate) fn process(&self, buf: &mut [Complex64]) {
        let n = self.n;
        debug_assert_eq!(buf.len(), n);
        SPLIT_SCRATCH.with_borrow_mut(|scratch| {
            if scratch.len() < 2 * n {
                scratch.resize(2 * n, 0.0);
            }
            let (re, im) = scratch[..2 * n].split_at_mut(n);
            // Fused permute + deinterleave + first stage: reads of `buf` are
            // gather-ordered (buf is L2-resident at SIMD sizes), writes are
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
    /// Grow-only split scratch of [`SimdPlan::process`] (`2n` f64), one per
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
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
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
    #[cfg(all(feature = "simd", target_arch = "aarch64"))]
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
    // Narrow stages (m below the vector width) and any variant without a
    // compiled kernel: split-layout scalar.
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

    #[test]
    fn forced_scalar_builds_no_plan() {
        assert!(SimdPlan::forced(64, FftDirection::Forward, Variant::Scalar).is_none());
    }

    /// The executor's schedule keeps vectors full: leftover radix last,
    /// every post-first stage at least 4 wide, product exact.
    #[test]
    fn plan_radices_shape() {
        for log in 1..=20usize {
            let n = 1usize << log;
            let radices = plan_radices(n);
            assert_eq!(radices.iter().product::<usize>(), n, "n={n}");
            assert!(
                radices.iter().all(|r| [2, 4, 8].contains(r)),
                "n={n}: {radices:?}"
            );
            if n >= MIN_SIMD_LEN {
                // First stage is fused; every later stage's m starts at
                // first_radix and only grows, so m >= 4 throughout — the
                // AVX2 kernels never fall back to a narrow scalar stage.
                assert!(radices[0] >= 4, "n={n}: {radices:?}");
                assert!(!radices.contains(&2), "n={n}: {radices:?}");
            }
        }
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
                    let Some(plan) = SimdPlan::forced(n, dir, v) else {
                        continue;
                    };
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
