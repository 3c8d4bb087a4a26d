//! What the pipeline and the sample-space fold cost, by count: a warm
//! `convolve_compressed` allocates a small constant, never once per pencil;
//! warm ops take their sample buffers from the free list, not the
//! allocator; a warm fold allocates only its output, and its two counters
//! equal a count taken from the plans alone.
//!
//! The allocator and the counters are process-global, which is why these
//! tests have a file (a process) to themselves; the allocation counts run in
//! child processes, one per pool size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use lcc_core::prelude::*;
use lcc_obs::ObsSession;

/// A [`System`]-backed allocator that counts allocations and, while
/// [`RECORDING`], records the sizes of the large ones.
struct CountingAlloc(AtomicUsize);

/// Set while [`record_sizes`] runs its closure.
static RECORDING: AtomicBool = AtomicBool::new(false);
/// Smallest allocation whose size is recorded.
const RECORD_MIN: usize = 4096;
/// Sizes of the allocations and reallocations of at least [`RECORD_MIN`]
/// bytes made while recording, in order, as many as fit.
static RECORDED: [AtomicUsize; 512] = [const { AtomicUsize::new(0) }; 512];
static RECORDED_LEN: AtomicUsize = AtomicUsize::new(0);

/// Notes an allocation of `size` bytes if recording and it is large.
fn record(size: usize) {
    if size >= RECORD_MIN && RECORDING.load(Ordering::Relaxed) {
        let i = RECORDED_LEN.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = RECORDED.get(i) {
            slot.store(size, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call forwards its arguments unchanged to `System`; the
// counter is a side effect only and never touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: contract inherited verbatim from `GlobalAlloc::alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.0.fetch_add(1, Ordering::Relaxed);
        record(layout.size());
        // SAFETY: forwarding the caller's layout unchanged to `System`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: contract inherited verbatim from `GlobalAlloc::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.0.fetch_add(1, Ordering::Relaxed);
        record(layout.size());
        // SAFETY: forwarding the caller's layout unchanged to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: contract inherited verbatim from `GlobalAlloc::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator's `alloc`,
        // which got them from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: contract inherited verbatim from `GlobalAlloc::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.0.fetch_add(1, Ordering::Relaxed);
        record(new_size);
        // SAFETY: `ptr` and `layout` come from `System` via this allocator;
        // the caller guarantees `new_size` is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc(AtomicUsize::new(0));

/// Set in the child processes that measure one pool size.
const CHILD: &str = "LCC_FOLD_ALLOC_CHILD";

/// In the test process, runs the test `name` again in one child process per
/// pool size (1, 2 and 4 threads) and returns `false`; in such a child,
/// returns `true`, and the caller measures.
fn in_pool_child(name: &str) -> bool {
    if std::env::var_os(CHILD).is_some() {
        return true;
    }
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["1", "2", "4"] {
        let out = std::process::Command::new(&exe)
            .args(["--exact", name])
            .env("LCC_THREADS", threads)
            .env(CHILD, "1")
            .output()
            .expect("spawn the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{name}, LCC_THREADS={threads}:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    false
}

/// Allocations `f` makes, with its result.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOC.0.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOC.0.load(Ordering::Relaxed) - before)
}

/// The sizes of the large allocations `f` makes, with its result.
fn record_sizes<T>(f: impl FnOnce() -> T) -> (T, Vec<usize>) {
    RECORDED_LEN.store(0, Ordering::Relaxed);
    RECORDING.store(true, Ordering::Relaxed);
    let out = f();
    RECORDING.store(false, Ordering::Relaxed);
    let len = RECORDED_LEN.load(Ordering::Relaxed);
    assert!(
        len <= RECORDED.len(),
        "{len} large allocations overflow the record"
    );
    let sizes = RECORDED[..len]
        .iter()
        .map(|s| s.load(Ordering::Relaxed))
        .collect();
    (out, sizes)
}

fn convolver(n: usize, k: usize) -> LowCommConvolver {
    LowCommConvolver::new(LowCommConfig {
        n,
        k,
        batch: 256,
        schedule: RateSchedule::for_kernel_spread(k, 1.0, 16),
    })
}

fn dense_input(n: usize) -> Grid3<f64> {
    Grid3::from_fn((n, n, n), |x, y, z| {
        1.0 + ((x as f64 * 0.4).sin() + (y as f64 * 0.25).cos()) * (1.0 + z as f64 * 0.05)
    })
}

/// A warm `convolve_compressed` allocates fewer than `n²/8` times, where
/// the z stage alone runs `n²` pencils: its scratch comes from the warm
/// workspace arenas, so a per-pencil allocation breaks the bound. One cell
/// is dense; the other holds a radius-3 ball, so its stages 1-2 run on a
/// support cube smaller than `k`.
#[test]
fn warm_convolve_compressed_does_not_allocate_per_pencil() {
    if !in_pool_child("warm_convolve_compressed_does_not_allocate_per_pencil") {
        return;
    }

    for (n, k, ball) in [(32, 8, false), (64, 16, true)] {
        let conv = LocalConvolver::new(n, k, 64);
        let kernel = GaussianKernel::new(n, 1.2);
        let corner = [n / 4, n / 8, 0];
        let domain = BoxRegion::new(corner, corner.map(|c| c + k));
        let plan = Arc::new(SamplingPlan::build(n, domain, &RateSchedule::uniform(1)));
        let sub = Grid3::from_fn((k, k, k), |x, y, z| {
            let r2: f64 = [x, y, z]
                .map(|i| (i as f64 - (k / 2) as f64).powi(2))
                .iter()
                .sum();
            if ball && r2 > 9.0 {
                0.0
            } else {
                1.0 + (x as f64 * 0.8).sin() + 0.5 * y as f64 - 0.1 * (z * z) as f64
            }
        });
        assert_eq!(conv.support_side(&sub) < k, ball, "n={n}: support cube");

        // Warm-up: builds the plans and phase tables and grows the arenas.
        let cold = conv.convolve_compressed(&sub, corner, &kernel, plan.clone());
        let (warm, count) =
            count_allocs(|| conv.convolve_compressed(&sub, corner, &kernel, plan.clone()));
        assert_eq!(
            warm.samples(),
            cold.samples(),
            "n={n}: warm run changed the result"
        );
        let pencils = n * n;
        assert!(
            count < pencils / 8,
            "n={n}, k={k}: warm convolve_compressed allocated {count} times, \
             not ≪ {pencils} pencils (threads={})",
            rayon::current_num_threads()
        );
    }
}

/// Once warm, sample buffers are recycled: compressing every domain,
/// dropping the fields and compressing again allocates no buffer the size
/// of a field's samples, and neither does a warm `convolve`, whose fold
/// drops each wave's fields before the next wave takes buffers.
#[test]
fn warm_ops_allocate_no_sample_buffer() {
    if !in_pool_child("warm_ops_allocate_no_sample_buffer") {
        return;
    }

    let (n, k) = (32, 8);
    let conv = convolver(n, k);
    let kernel = GaussianKernel::new(n, 1.0);
    let session = conv.session(ConvolveMode::Normal);
    let input = dense_input(n);
    // The byte size of every field's samples; a fresh sample buffer has one.
    let sizes: HashSet<usize> = decompose_uniform(n, k)
        .into_iter()
        .map(|d| {
            8 * conv
                .plan_for(conv.response_region(&d, &kernel))
                .total_samples()
        })
        .collect();
    assert!(
        !sizes.contains(&(8 * n * n * n)),
        "the output grid has a size of its own"
    );
    let fresh = |recorded: &[usize]| recorded.iter().filter(|s| sizes.contains(s)).count();

    drop(session.compress_domains(&input, &kernel));
    let ((fields, _), recorded) = record_sizes(|| {
        drop(session.compress_domains(&input, &kernel));
        session.compress_domains(&input, &kernel)
    });
    assert_eq!(fields.len(), 64);
    assert_eq!(
        fresh(&recorded),
        0,
        "warm compress_domains allocated sample buffers: {recorded:?} (threads={})",
        rayon::current_num_threads()
    );
    drop(fields);

    drop(session.convolve(&input, &kernel));
    let (_, recorded) = record_sizes(|| session.convolve(&input, &kernel));
    assert_eq!(
        fresh(&recorded),
        0,
        "warm convolve allocated sample buffers: {recorded:?} (threads={})",
        rayon::current_num_threads()
    );
}

#[test]
fn warm_accumulate_fields_allocates_at_most_twice() {
    if !in_pool_child("warm_accumulate_fields_allocates_at_most_twice") {
        return;
    }

    let (n, k) = (32, 8);
    let conv = convolver(n, k);
    let kernel = GaussianKernel::new(n, 1.0);
    let session = conv.session(ConvolveMode::Normal);
    let (fields, _) = session.compress_domains(&dense_input(n), &kernel);
    assert_eq!(fields.len(), 64);
    // Warm every participant of the pool: each grows its interpolation
    // scratch and its cell sums in a fold of its own.
    rayon::pool::run(&|| drop(session.accumulate_fields(&fields)));
    let want = session.accumulate_fields(&fields);

    let (got, count) = count_allocs(|| session.accumulate_fields(&fields));
    assert_eq!(
        got.as_slice(),
        want.as_slice(),
        "warm fold changed the result"
    );
    assert!(
        count <= 2,
        "warm accumulate_fields allocated {count} times (threads={})",
        rayon::current_num_threads()
    );
}

#[test]
fn fold_counters_equal_a_plan_only_count() {
    let (n, k) = (32, 8);
    let conv = convolver(n, k);
    let kernel = GaussianKernel::new(n, 1.0);
    let session = conv.session(ConvolveMode::Normal);
    let (fields, _) = session.compress_domains(&dense_input(n), &kernel);
    assert_eq!(fields.len(), 64);

    // From the plans alone: every coarse cell of every plan goes into a
    // sum, and each distinct one is interpolated once.
    let coarse = || {
        decompose_uniform(n, k)
            .into_iter()
            .map(|d| conv.plan_for(conv.response_region(&d, &kernel)))
            .flat_map(|plan| plan.cells().to_vec())
            .filter(|c| c.rate > 1)
    };
    let summed = coarse().count() as u64;
    let distinct = coarse()
        .map(|c| (c.corner, c.size, c.rate))
        .collect::<HashSet<_>>()
        .len() as u64;
    assert!(distinct < summed, "dense plans share their coarse cells");

    let obs = ObsSession::start().expect("no other obs session in this process");
    drop(session.accumulate_fields(&fields));
    let report = obs.finish();
    assert_eq!(report.counter("octree.cells_summed"), Some(summed));
    assert_eq!(report.counter("octree.cells_interpolated"), Some(distinct));
}
