//! Counting global allocator: live bytes, their high-water mark, and
//! allocation traffic. `peak_alloc_mb` and `core.alloc_*_per_op` are read
//! from it; nothing in `crates/` knows it exists.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A [`System`]-backed allocator that tracks live bytes, their peak, and
/// the number and size of allocation calls.
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
    count: AtomicU64,
    bytes: AtomicU64,
}

/// Allocation traffic since process start (monotonic; take deltas).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Traffic {
    pub count: u64,
    pub bytes: u64,
}

impl CountingAlloc {
    pub const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            count: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Bytes currently allocated and not yet freed.
    pub fn live_bytes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of live bytes since the last [`Self::reset_peak`].
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restarts the high-water mark at the current live size, so a timed
    /// phase reports its own peak and not the set-up's.
    pub fn reset_peak(&self) {
        self.peak.store(self.live_bytes(), Ordering::Relaxed);
    }

    pub fn traffic(&self) -> Traffic {
        Traffic {
            count: self.count.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    // The counters are statistics that publish no other data, so Relaxed.
    fn grew(&self, size: usize) {
        let live = self.live.fetch_add(size, Ordering::Relaxed) + size;
        self.peak.fetch_max(live, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }

    fn shrank(&self, size: usize) {
        self.live.fetch_sub(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards the caller's pointer and layout unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counters are
// side effects on atomics and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout, forwarded as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout, forwarded as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.shrank(layout.size());
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with this layout; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            self.shrank(layout.size());
            self.grew(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_live_bytes_and_resets_to_them() {
        let a = CountingAlloc::new();
        let big = Layout::from_size_align(4096, 8).unwrap();
        let small = Layout::from_size_align(256, 8).unwrap();
        // SAFETY: non-zero-size layouts; every pointer is freed below with
        // the layout it was allocated (or last reallocated) with.
        unsafe {
            let p = a.alloc(big);
            let q = a.alloc_zeroed(small);
            assert!(!p.is_null() && !q.is_null());
            assert_eq!(a.live_bytes(), 4096 + 256);
            assert_eq!(a.peak_bytes(), 4096 + 256);
            a.dealloc(p, big);
            assert_eq!(a.live_bytes(), 256);
            assert_eq!(a.peak_bytes(), 4096 + 256, "peak outlives the free");

            a.reset_peak();
            assert_eq!(a.peak_bytes(), 256, "reset restarts at live bytes");
            let q = a.realloc(q, small, 1024);
            assert!(!q.is_null());
            assert_eq!(a.live_bytes(), 1024);
            assert_eq!(a.peak_bytes(), 1024);
            a.dealloc(q, Layout::from_size_align(1024, 8).unwrap());
        }
        assert_eq!(a.live_bytes(), 0);
        assert_eq!(
            a.traffic(),
            Traffic {
                count: 3,
                bytes: 4096 + 256 + 1024
            }
        );
    }
}
