//! Pruned transforms exploiting known zero structure.
//!
//! The paper's local convolution pipeline zero-pads a k-point signal to N
//! points in each dimension ("zero structure is implicit in the 1D calls, so
//! padding is applied to the 1D data"). Transforming the padded signal with a
//! full N-point FFT wastes work on zeros; this module provides:
//!
//! * [`PrunedInputFft`] — forward N-point FFT of a signal whose only nonzero
//!   entries are the first `k` (k | N). Decomposes into `m = N/k` pre-twiddled
//!   size-`k` FFTs: with `j = r + m·s`,
//!   `X[r + m·s] = Σ_{n<k} (x[n]·w_N^{rn}) · w_k^{sn}`,
//!   for a total cost of O(N log k) instead of O(N log N). The pre-twiddles
//!   are a planned `(N/k) × k` table, and the same decomposition runs as a
//!   tile operation ([`PrunedInputFft::process_tile`]): per `r` a
//!   pre-twiddled `k`-row sub-tile through the `k`-point
//!   [`crate::tile::TileFft`], its output rows written wherever the caller's
//!   next step wants bin `r + m·s` — straight into the inverse transform's
//!   digit-reversed row in the pipeline's z stage.

use std::sync::Arc;

use crate::complex::Complex64;
use crate::planner::{FftPlan, FftPlanner};
use crate::tile::{Row, TileFft, W};
use crate::FftDirection;

/// Forward/inverse N-point FFT of a head-supported signal (nonzeros confined
/// to indices `0..k`), one pencil at a time ([`Self::process`]) or across a
/// tile of `W` adjacent pencils ([`Self::process_tile`]).
pub struct PrunedInputFft {
    n: usize,
    k: usize,
    direction: FftDirection,
    /// Pre-twiddles `w_N^{r·j}` at `[r·k + j]`, `r in 0..N/k`, `j in 0..k`:
    /// row `r` turns the head into the input of sub-transform `r`.
    pre_twiddle: Vec<Complex64>,
    inner: FftPlan,
    inner_tile: TileFft,
}

impl PrunedInputFft {
    /// Plans a pruned transform: total length `n`, support length `k`,
    /// `k` must divide `n`.
    pub fn new(planner: &FftPlanner, n: usize, k: usize, direction: FftDirection) -> Self {
        assert!(k >= 1 && k <= n, "support k={k} must be in 1..=n={n}");
        assert_eq!(n % k, 0, "support k={k} must divide n={n}");
        let sign = direction.angle_sign();
        let step = sign * 2.0 * std::f64::consts::PI / n as f64;
        let pre_twiddle = (0..n / k)
            .flat_map(|r| (0..k).map(move |j| Complex64::cis(step * ((r * j) % n) as f64)))
            .collect();
        PrunedInputFft {
            n,
            k,
            direction,
            pre_twiddle,
            inner: planner.plan(k, direction),
            inner_tile: TileFft::new(planner, k, direction),
        }
    }

    /// Total (padded) transform length N.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns true only for the degenerate n == 0 case, which cannot occur.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Support length k.
    pub fn support(&self) -> usize {
        self.k
    }

    /// Transform direction.
    pub fn direction(&self) -> FftDirection {
        self.direction
    }

    /// Transforms `input` (length k, the nonzero head) into `output`
    /// (length N, all bins).
    ///
    /// `scratch` must have length k; it is clobbered.
    pub fn process(
        &self,
        input: &[Complex64],
        output: &mut [Complex64],
        scratch: &mut [Complex64],
    ) {
        let (n, k) = (self.n, self.k);
        assert_eq!(input.len(), k, "input must be the k-point support");
        assert_eq!(output.len(), n, "output must be the full N bins");
        assert_eq!(scratch.len(), k, "scratch must have length k");
        let m = n / k;
        for (r, twiddles) in self.pre_twiddle.chunks_exact(k).enumerate() {
            // Pre-twiddle: t[n'] = x[n'] * w_N^{r n'}.
            if r == 0 {
                scratch.copy_from_slice(input);
            } else {
                for ((s, &x), &w) in scratch.iter_mut().zip(input).zip(twiddles) {
                    *s = x * w;
                }
            }
            self.inner.process(scratch);
            // Scatter: X[r + m·s] = T_r[s].
            for (s, &v) in scratch.iter().enumerate() {
                output[r + m * s] = v;
            }
        }
    }

    /// Length of the `scratch` [`Self::process_tile`] needs (none unless `k`
    /// takes [`TileFft`]'s per-lane fallback).
    pub fn tile_scratch_len(&self) -> usize {
        self.inner_tile.scratch_len()
    }

    /// [`Self::process`] across a tile of `W` pencils. `xin` holds the `k`
    /// head rows in natural order; bin `f` of every pencil is written to row
    /// `place(f)` of `out` (`n` rows) — the identity for natural order, or
    /// the next transform's [`TileFft::load_rows`] so that no permutation
    /// pass sits between the two. `sub` (`k` rows) and `scratch`
    /// ([`Self::tile_scratch_len`]) are clobbered.
    pub fn process_tile(
        &self,
        xin: (&[Row], &[Row]),
        out: (&mut [Row], &mut [Row]),
        sub: (&mut [Row], &mut [Row]),
        scratch: &mut [Complex64],
        place: impl Fn(usize) -> usize,
    ) {
        let (n, k) = (self.n, self.k);
        assert!(xin.0.len() == k && xin.1.len() == k, "xin must be k rows");
        assert!(out.0.len() == n && out.1.len() == n, "out must be n rows");
        let m = n / k;
        let load_rows = self.inner_tile.load_rows();
        for (r, twiddles) in self.pre_twiddle.chunks_exact(k).enumerate() {
            for (j, &w) in twiddles.iter().enumerate() {
                let row = load_rows[j] as usize;
                if r == 0 {
                    sub.0[row] = xin.0[j];
                    sub.1[row] = xin.1[j];
                } else {
                    for l in 0..W {
                        let (xr, xi) = (xin.0[j][l], xin.1[j][l]);
                        sub.0[row][l] = xr * w.re - xi * w.im;
                        sub.1[row][l] = xr * w.im + xi * w.re;
                    }
                }
            }
            self.inner_tile.process(sub.0, sub.1, scratch);
            for s in 0..k {
                let row = place(r + m * s);
                out.0[row] = sub.0[s];
                out.1[row] = sub.1[s];
            }
        }
    }

    /// Allocating convenience wrapper around [`Self::process`].
    pub fn transform(&self, input: &[Complex64]) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; self.n];
        let mut scratch = vec![Complex64::ZERO; self.k];
        self.process(input, &mut out, &mut scratch);
        out
    }

    /// Number of complex multiply-adds relative to a full N-point FFT,
    /// for reporting: `(N·log₂k) / (N·log₂N)` when both are powers of two.
    pub fn work_fraction(&self) -> f64 {
        let full = (self.n as f64).log2().max(1.0);
        let pruned = (self.k as f64).log2().max(1.0);
        pruned / full
    }
}

type PrunedKey = (usize, usize, FftDirection);

/// Cache of pruned plans keyed by (n, k, direction), mirroring `FftPlanner`.
#[derive(Default)]
pub struct PrunedPlanner {
    planner: Arc<FftPlanner>,
    // Per-key `OnceLock` slots dedupe concurrent builds, mirroring
    // `FftPlanner`: the map lock is held only to fetch the slot, and exactly
    // one thread per key constructs the plan.
    pruned: parking_lot::Mutex<
        std::collections::HashMap<PrunedKey, Arc<std::sync::OnceLock<Arc<PrunedInputFft>>>>,
    >,
}

impl PrunedPlanner {
    /// Creates a pruned-plan cache over a fresh inner planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared dense planner.
    pub fn inner(&self) -> &Arc<FftPlanner> {
        &self.planner
    }

    /// Plan (or fetch) a pruned-input transform.
    pub fn plan_pruned(&self, n: usize, k: usize, direction: FftDirection) -> Arc<PrunedInputFft> {
        let slot = self
            .pruned
            .lock()
            .entry((n, k, direction))
            .or_default()
            .clone();
        slot.get_or_init(|| Arc::new(PrunedInputFft::new(&self.planner, n, k, direction)))
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::dft::dft;

    fn head_signal(k: usize) -> Vec<Complex64> {
        (0..k)
            .map(|i| c64((i as f64 * 0.9).cos() + 0.3, i as f64 * 0.1))
            .collect()
    }

    #[test]
    fn pruned_matches_padded_dft() {
        let planner = FftPlanner::new();
        for (n, k) in [(8, 2), (16, 4), (64, 8), (64, 64), (60, 12), (128, 32)] {
            let head = head_signal(k);
            let mut padded = head.clone();
            padded.resize(n, Complex64::ZERO);
            let expect = dft(&padded, FftDirection::Forward);
            let plan = PrunedInputFft::new(&planner, n, k, FftDirection::Forward);
            let got = plan.transform(&head);
            for (a, b) in got.iter().zip(&expect) {
                assert!((*a - *b).norm() < 1e-8, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn pruned_inverse_direction() {
        let planner = FftPlanner::new();
        let (n, k) = (32, 8);
        let head = head_signal(k);
        let mut padded = head.clone();
        padded.resize(n, Complex64::ZERO);
        let expect = dft(&padded, FftDirection::Inverse);
        let plan = PrunedInputFft::new(&planner, n, k, FftDirection::Inverse);
        let got = plan.transform(&head);
        for (a, b) in got.iter().zip(&expect) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }

    #[test]
    fn pruned_k_equals_one_is_broadcast() {
        let planner = FftPlanner::new();
        let plan = PrunedInputFft::new(&planner, 16, 1, FftDirection::Forward);
        let got = plan.transform(&[c64(2.0, 1.0)]);
        // FFT of delta scaled: every bin equals x[0].
        for v in got {
            assert!((v - c64(2.0, 1.0)).norm() < 1e-12);
        }
    }

    #[test]
    fn work_fraction_reports_savings() {
        let planner = FftPlanner::new();
        let plan = PrunedInputFft::new(&planner, 1024, 32, FftDirection::Forward);
        // log2(32)/log2(1024) = 5/10
        assert!((plan.work_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn pruned_rejects_non_divisor() {
        let planner = FftPlanner::new();
        PrunedInputFft::new(&planner, 10, 3, FftDirection::Forward);
    }

    #[test]
    fn pruned_planner_caches() {
        let pp = PrunedPlanner::new();
        let a = pp.plan_pruned(64, 8, FftDirection::Forward);
        let b = pp.plan_pruned(64, 8, FftDirection::Forward);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
