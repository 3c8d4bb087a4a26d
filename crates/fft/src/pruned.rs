//! Pruned transforms exploiting known zero structure.
//!
//! The paper's local convolution pipeline zero-pads a k-point signal to N
//! points in each dimension ("zero structure is implicit in the 1D calls, so
//! padding is applied to the 1D data"). Transforming the padded signal with a
//! full N-point FFT wastes work on zeros; [`PrunedInputFft`] is the forward
//! N-point FFT of a signal whose only nonzero entries are the first `k`
//! (k | N), at O(N log k) instead of O(N log N), in two forms:
//!
//! * **One pencil** ([`PrunedInputFft::process`]): `m = N/k` pre-twiddled
//!   size-`k` FFTs. With `j = r + m·s`,
//!   `X[r + m·s] = Σ_{n<k} (x[n]·w_N^{rn}) · w_k^{sn}`; the pre-twiddles are
//!   a planned `m × k` table.
//! * **A tile of `W` pencils** ([`PrunedInputFft::process_tile`]): the last
//!   stages of the N-point tile schedule. The schedule is
//!   `plan_radices(m) ++ plan_radices(k)`; under its digit reversal input
//!   `j < k` lands on a row that is a multiple of `m`, so each block of `m`
//!   rows holds one nonzero, at its head, and the first stages — the `m`
//!   head — would only copy it across its block, with unit twiddles. The
//!   tile form writes each input row to its `m` rows (the broadcast) and
//!   runs the remaining stages with the [`crate::tile`] kernels; its output
//!   is in natural order. `k = N` is the full transform, `k = 1` the
//!   broadcast alone, and a non-power-of-two N falls back lane by lane to
//!   the planner's N-point plan on the zero-padded pencil, as
//!   [`crate::tile::TileFft`] does.

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
    /// The N-point tile schedule past its `m` head (module doc).
    tile: TileFft,
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
            tile: TileFft::pruned(planner, n, k, direction),
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

    /// [`Self::process`] across a tile of `W` pencils (module doc): `xin`
    /// holds the `k` head rows in natural order, `out` (`n` rows) receives
    /// every bin in natural order. `scratch` has the length
    /// [`TileFft::scratch_len`] of an `n`-point tile — `n` for the per-lane
    /// fallback, none otherwise — and is clobbered.
    pub fn process_tile(
        &self,
        xin: (&[Row], &[Row]),
        out: (&mut [Row], &mut [Row]),
        scratch: &mut [Complex64],
    ) {
        let (n, k) = (self.n, self.k);
        assert!(xin.0.len() == k && xin.1.len() == k, "xin must be k rows");
        assert!(out.0.len() == n && out.1.len() == n, "out must be n rows");
        if self.tile.is_per_lane() {
            out.0[..k].copy_from_slice(xin.0);
            out.1[..k].copy_from_slice(xin.1);
            out.0[k..].fill([0.0; W]);
            out.1[k..].fill([0.0; W]);
        } else {
            let m = n / k;
            for ((&head, xr), xi) in self.tile.load_rows().iter().zip(xin.0).zip(xin.1) {
                let head = head as usize;
                out.0[head..head + m].fill(*xr);
                out.1[head..head + m].fill(*xi);
            }
        }
        self.tile.process(out.0, out.1, scratch);
    }

    /// Allocating convenience wrapper around [`Self::process`].
    pub fn transform(&self, input: &[Complex64]) -> Vec<Complex64> {
        let mut out = vec![Complex64::ZERO; self.n];
        let mut scratch = vec![Complex64::ZERO; self.k];
        self.process(input, &mut out, &mut scratch);
        out
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
