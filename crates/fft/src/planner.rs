//! Plan construction and caching.
//!
//! [`FftPlanner`] hands out `Arc`-shared, immutable plans keyed by
//! `(length, direction)`. Planning a power-of-two size yields the radix-4/2
//! kernel; tiny non-power-of-two sizes fall back to the O(n²) oracle (cheaper
//! than Bluestein bookkeeping); everything else uses Bluestein.
//!
//! # Concurrency
//!
//! The cache is sharded (keys hashed over [`PLANNER_SHARDS`] independent
//! `RwLock`-protected maps) so a warm thread pool never serializes on a
//! single lock: the hot path is one shard **read** lock to clone an `Arc`,
//! and readers of different shards — and concurrent readers of the same
//! shard — do not contend at all.
//!
//! Cold-path builds are deduplicated with a per-key `OnceLock` slot: when
//! several threads race to plan the same `(n, direction)`, exactly one
//! constructs the plan (the others block on the slot and share the result),
//! so an expensive Bluestein build is never thrown away. The regression
//! test `concurrent_warmup_builds_each_plan_once` pins this down via
//! [`FftPlanner::plan_builds`].

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::bluestein::BluesteinFft;
use crate::complex::Complex64;
use crate::dft::dft_into;
use crate::radix4::Radix4Fft;
use crate::radix8::Radix8Fft;
use crate::simd::Variant;
use crate::{Fft, FftDirection};

/// Threshold below which non-power-of-two sizes use the naive DFT.
const SMALL_DFT_LIMIT: usize = 16;

/// Power-of-two sizes at or above this use the radix-8 kernel (fewer memory
/// passes); below it the leading-stage bookkeeping isn't worth it and the
/// radix-4/2 kernel wins.
const RADIX8_MIN: usize = 64;

/// Number of independent cache shards. Sixteen is plenty: the pipeline
/// plans a handful of distinct sizes, and the point is only that a warm
/// pool's lookups fan out over several locks instead of one.
const PLANNER_SHARDS: usize = 16;

/// A planned naive DFT, used for tiny awkward sizes.
struct SmallDft {
    len: usize,
    direction: FftDirection,
}

impl Fft for SmallDft {
    fn len(&self) -> usize {
        self.len
    }
    fn direction(&self) -> FftDirection {
        self.direction
    }
    fn kernel_kind(&self) -> &'static str {
        "small-dft"
    }
    fn process(&self, buf: &mut [Complex64]) {
        assert_eq!(buf.len(), self.len);
        // Thread-local like `SimdPlan::process`'s split scratch: per-row
        // transforms take no arena lease. `dft_into` writes every element.
        SMALL_DFT_OUT.with_borrow_mut(|out| {
            if out.len() < self.len {
                out.resize(self.len, Complex64::ZERO);
            }
            let out = &mut out[..self.len];
            dft_into(buf, out, self.direction);
            buf.copy_from_slice(out);
        });
    }
}

thread_local! {
    /// Grow-only output buffer of [`SmallDft::process`], one per thread.
    static SMALL_DFT_OUT: std::cell::RefCell<Vec<Complex64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Shared handle to a planned transform.
pub type FftPlan = Arc<dyn Fft + Send + Sync>;

type Key = (usize, FftDirection);
/// A cache slot: present as soon as some thread has claimed the build,
/// readable by everyone once the build completes. `OnceLock` blocks
/// concurrent initializers, which is exactly the in-flight dedupe we need.
type Slot = Arc<OnceLock<FftPlan>>;

/// Creates and caches FFT plans.
#[derive(Default)]
pub struct FftPlanner {
    shards: [RwLock<HashMap<Key, Slot>>; PLANNER_SHARDS],
    builds: std::sync::atomic::AtomicUsize,
    /// Forced kernel variant for every plan this planner builds; `None`
    /// follows the process-wide [`crate::simd::variant`] detection.
    simd_variant: Option<Variant>,
}

/// Shard index for a key: multiplicative mix so the power-of-two-heavy
/// sizes the pipeline plans don't all collide on one shard.
fn shard_of(n: usize, direction: FftDirection) -> usize {
    let x = (n as u64) << 1 | matches!(direction, FftDirection::Inverse) as u64;
    (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57) as usize % PLANNER_SHARDS
}

impl FftPlanner {
    /// Creates an empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty planner whose plans all use the given kernel
    /// [`Variant`] instead of the process-wide detection. The seam used by
    /// the SIMD identity suite and the benchmark's per-variant children;
    /// forcing a variant the host lacks silently degrades to `Scalar`
    /// (the scalar path is always safe to run).
    pub fn with_simd_variant(variant: Variant) -> Self {
        FftPlanner {
            simd_variant: Some(variant),
            ..Self::default()
        }
    }

    /// The forced kernel variant, if any (`None` = process-wide detection).
    pub fn simd_variant(&self) -> Option<Variant> {
        self.simd_variant
    }

    /// Returns a plan for length `n` in `direction`, creating it on first use.
    pub fn plan(&self, n: usize, direction: FftDirection) -> FftPlan {
        assert!(n >= 1, "cannot plan a zero-length FFT");
        let key = (n, direction);
        let shard = &self.shards[shard_of(n, direction)];
        // Warm path: a read lock and an Arc clone.
        let slot: Option<Slot> = shard.read().get(&key).cloned();
        let slot = slot.unwrap_or_else(|| shard.write().entry(key).or_default().clone());
        slot.get_or_init(|| {
            // Exactly one thread per key reaches this closure; losers of
            // the race block above and share the winner's plan. Built
            // outside any shard lock: Bluestein planning recursively plans
            // its inner power-of-two transform.
            self.builds
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            match (n.is_power_of_two(), self.simd_variant) {
                (true, v) if n >= RADIX8_MIN => match v {
                    Some(v) => Arc::new(Radix8Fft::with_variant(n, direction, v)) as FftPlan,
                    None => Arc::new(Radix8Fft::new(n, direction)),
                },
                (true, Some(v)) => Arc::new(Radix4Fft::with_variant(n, direction, v)),
                (true, None) => Arc::new(Radix4Fft::new(n, direction)),
                (false, _) if n < SMALL_DFT_LIMIT => Arc::new(SmallDft { len: n, direction }),
                (false, Some(v)) => Arc::new(BluesteinFft::with_variant(n, direction, v)),
                (false, None) => Arc::new(BluesteinFft::new(n, direction)),
            }
        })
        .clone()
    }

    /// Convenience: forward plan.
    pub fn plan_forward(&self, n: usize) -> FftPlan {
        self.plan(n, FftDirection::Forward)
    }

    /// Convenience: inverse plan (unnormalized, like FFTW).
    pub fn plan_inverse(&self, n: usize) -> FftPlan {
        self.plan(n, FftDirection::Inverse)
    }

    /// Number of distinct plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.planned_len()
    }

    /// Number of distinct `(n, direction)` keys planned so far.
    pub fn planned_len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Number of plan constructions actually executed — with the in-flight
    /// dedupe this equals [`Self::planned_len`] even under concurrent
    /// warm-up (no double-build).
    pub fn plan_builds(&self) -> usize {
        self.builds.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Transforms `buf` in place using a cached plan from `planner`.
pub fn fft_in_place(planner: &FftPlanner, buf: &mut [Complex64], direction: FftDirection) {
    planner.plan(buf.len(), direction).process(buf);
}

/// Inverse transform with 1/n normalization, so
/// `ifft_normalized(fft(x)) == x`.
pub fn ifft_normalized(planner: &FftPlanner, buf: &mut [Complex64]) {
    let n = buf.len();
    planner.plan(n, FftDirection::Inverse).process(buf);
    let s = 1.0 / n as f64;
    for v in buf.iter_mut() {
        *v *= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::dft::dft;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| c64((i as f64).sin(), (i as f64 * 0.3).cos()))
            .collect()
    }

    #[test]
    fn planner_covers_all_strategies() {
        let planner = FftPlanner::new();
        for n in [1usize, 2, 3, 4, 5, 8, 9, 13, 16, 20, 100, 128] {
            let x = signal(n);
            let expect = dft(&x, FftDirection::Forward);
            let mut buf = x.clone();
            fft_in_place(&planner, &mut buf, FftDirection::Forward);
            for (a, b) in buf.iter().zip(&expect) {
                assert!((*a - *b).norm() < 1e-8, "n={n}");
            }
        }
    }

    #[test]
    fn plans_are_cached_and_shared() {
        let planner = FftPlanner::new();
        let p1 = planner.plan_forward(64);
        let p2 = planner.plan_forward(64);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(planner.cached_plans(), 1);
        planner.plan_inverse(64);
        assert_eq!(planner.cached_plans(), 2);
        assert_eq!(planner.plan_builds(), 2);
    }

    #[test]
    fn normalized_inverse_roundtrips() {
        let planner = FftPlanner::new();
        for n in [7, 32, 48] {
            let x = signal(n);
            let mut buf = x.clone();
            fft_in_place(&planner, &mut buf, FftDirection::Forward);
            ifft_normalized(&planner, &mut buf);
            for (a, b) in x.iter().zip(&buf) {
                assert!((*a - *b).norm() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn planner_is_sync_across_threads() {
        let planner = std::sync::Arc::new(FftPlanner::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = planner.clone();
                s.spawn(move || {
                    let mut buf = signal(256);
                    fft_in_place(&p, &mut buf, FftDirection::Forward);
                });
            }
        });
        assert!(planner.cached_plans() >= 1);
    }

    #[test]
    fn concurrent_warmup_builds_each_plan_once() {
        // Regression for the benign double-build race: many threads racing
        // to plan the same awkward (Bluestein) size must produce exactly
        // one cache entry AND exactly one construction.
        let planner = std::sync::Arc::new(FftPlanner::new());
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let p = planner.clone();
                let b = &barrier;
                s.spawn(move || {
                    b.wait();
                    let plan = p.plan(100, FftDirection::Forward);
                    assert_eq!(plan.len(), 100);
                });
            }
        });
        // Bluestein(100) recursively plans its power-of-two inner size, so
        // more than one key exists — but every key must have been built
        // exactly once (no thrown-away duplicate constructions).
        assert!(planner.planned_len() >= 1);
        assert_eq!(
            planner.plan_builds(),
            planner.planned_len(),
            "every cached key built exactly once"
        );
    }

    #[test]
    fn build_count_equals_key_count_after_heavy_reuse() {
        let planner = FftPlanner::new();
        for _ in 0..10 {
            for n in [8usize, 12, 100, 128] {
                planner.plan_forward(n);
                planner.plan_inverse(n);
            }
        }
        assert_eq!(planner.plan_builds(), planner.planned_len());
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_panics() {
        FftPlanner::new().plan_forward(0);
    }

    #[test]
    fn kernel_kind_dispatch() {
        let planner = FftPlanner::new();
        assert_eq!(planner.plan_forward(32).kernel_kind(), "radix4");
        assert_eq!(planner.plan_forward(64).kernel_kind(), "radix8");
        assert_eq!(planner.plan_forward(1024).kernel_kind(), "radix8");
        assert_eq!(planner.plan_forward(7).kernel_kind(), "small-dft");
        assert_eq!(planner.plan_forward(100).kernel_kind(), "bluestein");
    }

    #[test]
    fn forced_scalar_planner_matches_default() {
        let auto = FftPlanner::new();
        let scalar = FftPlanner::with_simd_variant(crate::simd::Variant::Scalar);
        assert_eq!(scalar.simd_variant(), Some(crate::simd::Variant::Scalar));
        for n in [32usize, 64, 100, 256] {
            let x = signal(n);
            let mut a = x.clone();
            let mut b = x;
            auto.plan_forward(n).process(&mut a);
            scalar.plan_forward(n).process(&mut b);
            for (p, q) in a.iter().zip(&b) {
                assert!((*p - *q).norm() < 1e-6 * n as f64, "n={n}");
            }
        }
    }
}
