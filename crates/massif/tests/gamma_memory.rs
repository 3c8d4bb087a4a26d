//! Algorithm 2's inner loop folds in waves whose compressed fields never
//! outweigh the output they fold into, so MASSIF's heap does not grow with
//! the number of sub-domains.
//!
//! At n = 32, k = 8 and `for_kernel_spread(8, 1.5, 8)`, each of the 64
//! sub-domains compresses its six components into 16 192 samples apiece:
//! 49.7 MB if every domain were compressed before the fold. A warm
//! `apply_gamma` peaked at 3.2 MB of live heap over the heap it started
//! with (1 and 2 threads, x86-64 Linux), of which 1.6 MB is the result
//! itself; the bound below is a quarter of the compress-all figure.
//!
//! The allocator is process-global, which is why this test has a file (a
//! process) to itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lcc_core::LowCommConfig;
use lcc_greens::MassifGamma;
use lcc_grid::{decompose_uniform, Grid3};
use lcc_massif::{GammaConvolution, LowCommGamma, TensorField};
use lcc_octree::RateSchedule;

/// A [`System`]-backed allocator that tracks live bytes and their peak.
struct PeakAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl PeakAlloc {
    fn grew(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    /// Live bytes now; the peak restarts from them.
    fn reset_peak(&self) -> usize {
        let live = self.live.load(Ordering::Relaxed);
        self.peak.store(live, Ordering::Relaxed);
        live
    }
}

// SAFETY: every call forwards its arguments unchanged to `System`; the
// counters are side effects only and never touch the memory handed out.
unsafe impl GlobalAlloc for PeakAlloc {
    // SAFETY: contract inherited verbatim from `GlobalAlloc::alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarding the caller's layout unchanged to `System`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.grew(layout.size());
        }
        p
    }

    // SAFETY: contract inherited verbatim from `GlobalAlloc::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarding the caller's layout unchanged to `System`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.grew(layout.size());
        }
        p
    }

    // SAFETY: contract inherited verbatim from `GlobalAlloc::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator's `alloc`,
        // which got them from `System`.
        unsafe { System.dealloc(ptr, layout) };
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // SAFETY: contract inherited verbatim from `GlobalAlloc::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` and `layout` come from `System` via this allocator;
        // the caller guarantees `new_size` is valid for `layout`'s alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            self.live.fetch_sub(layout.size(), Ordering::Relaxed);
            self.grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc {
    live: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
};

#[test]
fn apply_gamma_peak_heap_is_under_a_quarter_of_compress_all() {
    let (n, k) = (32, 8);
    let engine = LowCommGamma::new(
        MassifGamma::new(n, 1.3, 0.8),
        LowCommConfig {
            n,
            k,
            batch: 512,
            schedule: RateSchedule::for_kernel_spread(k, 1.5, 8),
        },
    );
    let mut sigma = TensorField::zeros(n);
    for c in 0..6 {
        *sigma.component_mut(c) = Grid3::from_fn((n, n, n), |x, y, z| {
            1.0 + ((x + 2 * y + 3 * z + c) as f64 * 0.37).sin()
        });
    }
    let conv = engine.convolver();
    let compress_all: usize = decompose_uniform(n, k)
        .into_iter()
        .map(|d| 8 * 6 * conv.plan_for(d).total_samples())
        .sum();

    // Warm: plans, pipeline workspaces and the pool exist before measuring.
    drop(engine.apply_gamma(&sigma));
    let before = ALLOC.reset_peak();
    let out = engine.apply_gamma(&sigma);
    let peak = ALLOC.peak.load(Ordering::Relaxed) - before;
    drop(out);

    assert!(
        4 * peak < compress_all,
        "apply_gamma peaked at {peak} B over its start; compress-all holds {compress_all} B"
    );
}
