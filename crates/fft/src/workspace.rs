//! Reusable scratch arenas for the allocation-free hot path.
//!
//! The pruned-convolution pipeline touches millions of short-lived buffers
//! per solve (a pencil tile, a kernel pencil, a slab, …). Allocating them
//! per pencil dominates small-FFT cost and serializes threads on the
//! allocator; instead, every hot loop borrows a [`Workspace`] — a growable
//! arena of `Complex64`/`f64` storage — from a global free list and carves
//! the buffers it needs out of it with [`Workspace::complex_bufs`].
//!
//! A lease is a lock pair on that list, so it is taken per call or per
//! parallel dispatch and never per transform: tile transforms work in
//! scratch their caller carved from the lease it already holds, and the
//! single-row plans keep their split scratch in a thread-local buffer.
//!
//! Steady state: after warm-up the free list holds one workspace per pool
//! thread (per nesting level), sized for the largest request seen, and the
//! hot path performs **zero** heap allocations per pencil — the property
//! lcc-core's `warm_convolve_compressed_does_not_allocate_per_pencil`
//! (`tests/fold_accounting.rs`) asserts with its counting allocator. Arenas
//! only grow and are popped LIFO, so every extra level of nested leases
//! costs one more arena grown to the largest request that level ever makes.
//!
//! A third buffer holds `u32` indices, for a call that keeps a lookup
//! table beside its complex buffers ([`Workspace::indexed`]).
//!
//! Buffers are handed out **uninitialized** (they hold whatever the
//! previous user left); every caller must fully overwrite a buffer before
//! reading it. All in-tree users do (pruned transforms, Bluestein and
//! tile loads write every element they later read).

// lcc-lint: hot-path — the arena itself; only pool bootstrap may allocate.

use std::ops::{Deref, DerefMut};

use parking_lot::Mutex;

use crate::complex::Complex64;

/// A reusable scratch arena. Obtain via [`workspace`]; split into buffers
/// with [`Workspace::complex_bufs`] / [`Workspace::split`].
#[cfg_attr(not(any(debug_assertions, feature = "analysis")), derive(Default))]
pub struct Workspace {
    cbuf: Vec<Complex64>,
    rbuf: Vec<f64>,
    ibuf: Vec<u32>,
    /// Identity for the aliasing detector. An empty `Vec`'s dangling
    /// pointer is shared by every empty arena, so pointers cannot tell
    /// arenas apart — a process-unique counter can.
    #[cfg(any(debug_assertions, feature = "analysis"))]
    id: u64,
}

#[cfg(any(debug_assertions, feature = "analysis"))]
impl Default for Workspace {
    fn default() -> Self {
        static NEXT_ARENA: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        Workspace {
            cbuf: Vec::new(), // lcc-lint: allow(alloc) — empty arena, warm-up only
            rbuf: Vec::new(), // lcc-lint: allow(alloc) — empty arena, warm-up only
            ibuf: Vec::new(), // lcc-lint: allow(alloc) — empty arena, warm-up only
            id: NEXT_ARENA.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }
}

impl Workspace {
    /// Carves `M` disjoint complex buffers of the given lengths out of the
    /// arena, growing it if needed. Contents are unspecified; callers must
    /// fully overwrite each buffer before reading it.
    pub fn complex_bufs<const M: usize>(&mut self, lens: [usize; M]) -> [&mut [Complex64]; M] {
        carve(&mut self.cbuf, lens)
    }

    /// Complex buffers plus one real buffer in a single borrow, for stages
    /// that need both simultaneously.
    pub fn split<const M: usize>(
        &mut self,
        complex_lens: [usize; M],
        real_len: usize,
    ) -> ([&mut [Complex64]; M], &mut [f64]) {
        let bufs = carve(&mut self.cbuf, complex_lens);
        (bufs, grow_aligned(&mut self.rbuf, real_len, 0.0))
    }

    /// Complex buffers plus one index buffer in a single borrow, for a call
    /// that keeps a lookup table beside its buffers.
    pub fn indexed<const M: usize>(
        &mut self,
        complex_lens: [usize; M],
        index_len: usize,
    ) -> ([&mut [Complex64]; M], &mut [u32]) {
        let bufs = carve(&mut self.cbuf, complex_lens);
        (bufs, grow_aligned(&mut self.ibuf, index_len, 0))
    }

    /// Capacity currently held (complex elements), for diagnostics.
    pub fn complex_capacity(&self) -> usize {
        self.cbuf.len().saturating_sub(pad::<Complex64>())
    }

    /// Detector identity of this arena (0 when the detector is compiled out).
    fn arena_id(&self) -> u64 {
        #[cfg(any(debug_assertions, feature = "analysis"))]
        {
            self.id
        }
        #[cfg(not(any(debug_assertions, feature = "analysis")))]
        {
            0
        }
    }
}

/// Alignment of every buffer run handed out: one cache line, so a tile row
/// (`W` = 8 `f64`, 64 bytes) sits in one line instead of straddling two,
/// and a process's speed does not hang on where the allocator placed the
/// arenas its threads pop.
const LINE: usize = 64;

/// Elements of headroom an arena of `T` keeps to start a run on a line.
const fn pad<T>() -> usize {
    LINE / std::mem::size_of::<T>()
}

/// `M` disjoint buffers of the given lengths, one after another, from
/// `buf` grown to hold them all.
fn carve<const M: usize>(buf: &mut Vec<Complex64>, lens: [usize; M]) -> [&mut [Complex64]; M] {
    let total: usize = lens.iter().sum();
    let mut rest = grow_aligned(buf, total, Complex64::ZERO);
    lens.map(|l| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(l);
        rest = tail;
        head
    })
}

/// Grows `buf` to hold `len` elements from its first cache-line boundary
/// and returns them: to exactly `len` plus the line's headroom when it must
/// grow, since an arena holds the largest request it served, not the
/// doubling headroom of a `Vec`, so the pool's size is the sum of its leases.
fn grow_aligned<T: Clone>(buf: &mut Vec<T>, len: usize, fill: T) -> &mut [T] {
    let need = len + pad::<T>();
    if buf.len() < need {
        buf.reserve_exact(need - buf.len());
        buf.resize(need, fill);
    }
    // An allocation too misaligned to reach a line boundary by whole
    // elements (never, for the allocators Rust ships) starts at 0.
    let off = buf.as_ptr().align_offset(LINE).min(pad::<T>());
    &mut buf[off..off + len]
}

/// Free list of warm workspaces. Capped so pathological fan-out cannot pin
/// unbounded memory; beyond the cap, returned workspaces are simply dropped.
// lcc-lint: allow(alloc) — const initializer of the pool itself.
static FREE_LIST: Mutex<Vec<Workspace>> = Mutex::new(Vec::new());
const FREE_LIST_CAP: usize = 128;

/// RAII handle to a pooled [`Workspace`]; returns it to the free list on
/// drop so the next borrower reuses the (already grown) arena.
pub struct WorkspaceGuard {
    ws: Option<Workspace>,
    /// Detector claim proving this arena has exactly one borrower.
    lease: Option<crate::detector::RegionGuard>,
}

impl Deref for WorkspaceGuard {
    type Target = Workspace;
    fn deref(&self) -> &Workspace {
        self.ws.as_ref().expect("workspace present until drop")
    }
}

impl DerefMut for WorkspaceGuard {
    fn deref_mut(&mut self) -> &mut Workspace {
        self.ws.as_mut().expect("workspace present until drop")
    }
}

impl Drop for WorkspaceGuard {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            // Release the lease *before* the arena re-enters the pool:
            // otherwise another thread could pop it and register a
            // conflicting lease while ours is still live.
            self.lease = None;
            let mut pool = FREE_LIST.lock();
            if pool.len() < FREE_LIST_CAP {
                pool.push(ws);
            }
        }
    }
}

/// Borrows a workspace from the global free list (allocating a fresh one
/// only when the list is empty — i.e. during warm-up).
pub fn workspace() -> WorkspaceGuard {
    lcc_obs::metrics::FFT_WORKSPACE_LEASES.incr();
    let ws = FREE_LIST.lock().pop().unwrap_or_default();
    // Tag the lease so debug/analysis builds catch an arena ever reaching
    // two borrowers at once (the detector panics on the second claim).
    let lease = crate::detector::register(ws.arena_id() as usize, 0, 1, 1, "workspace lease");
    WorkspaceGuard {
        ws: Some(ws),
        lease: Some(lease),
    }
}

/// Bytes the workspaces currently on the free list can hand out (their
/// allocated capacity less the 64-byte cache-line headroom of each of an
/// arena's three buffers), for diagnostics: with no lease live, this is the
/// sum of the largest leases the pool keeps warm.
pub fn pooled_bytes() -> usize {
    FREE_LIST
        .lock()
        .iter()
        .map(|ws| {
            ws.cbuf.capacity().saturating_sub(pad::<Complex64>()) * std::mem::size_of::<Complex64>()
                + ws.rbuf.capacity().saturating_sub(pad::<f64>()) * std::mem::size_of::<f64>()
                + ws.ibuf.capacity().saturating_sub(pad::<u32>()) * std::mem::size_of::<u32>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn bufs_are_disjoint_and_sized() {
        let mut ws = Workspace::default();
        let [a, b, c] = ws.complex_bufs([3, 5, 2]);
        assert_eq!((a.len(), b.len(), c.len()), (3, 5, 2));
        a.fill(c64(1.0, 0.0));
        b.fill(c64(2.0, 0.0));
        c.fill(c64(3.0, 0.0));
        assert!(a.iter().all(|&v| v == c64(1.0, 0.0)));
        assert!(b.iter().all(|&v| v == c64(2.0, 0.0)));
        assert!(c.iter().all(|&v| v == c64(3.0, 0.0)));
    }

    #[test]
    fn split_hands_out_complex_and_real() {
        let mut ws = Workspace::default();
        let ([a, b], r) = ws.split([4, 4], 16);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 4);
        assert_eq!(r.len(), 16);
        r[15] = 7.0;
        b[0] = c64(1.0, 1.0);
        assert_eq!(r[15], 7.0);
    }

    #[test]
    fn indexed_hands_out_complex_and_index() {
        let mut ws = Workspace::default();
        let ([a, b], idx) = ws.indexed([3, 5], 17);
        assert_eq!((a.len(), b.len(), idx.len()), (3, 5, 17));
        assert_eq!(idx.as_ptr() as usize % LINE, 0);
        idx[16] = 9;
        a[2] = c64(1.0, 0.0);
        assert_eq!(idx[16], 9);
    }

    #[test]
    fn buffers_start_on_a_cache_line() {
        let mut ws = Workspace::default();
        for len in [1, 7, 100, 1000, 3] {
            let ([a, _], r) = ws.split([len, 1], 8 * len + 5);
            assert_eq!(a.as_ptr() as usize % LINE, 0, "complex, len {len}");
            assert_eq!(r.as_ptr() as usize % LINE, 0, "real, len {len}");
            let [c] = ws.complex_bufs([len]);
            assert_eq!(c.as_ptr() as usize % LINE, 0, "complex_bufs, len {len}");
        }
    }

    #[test]
    fn guard_returns_grown_workspace_to_pool() {
        {
            let mut g = workspace();
            let _ = g.complex_bufs([1 << 12]);
        }
        // Warm: the next borrow must already have the capacity.
        let found = {
            let g = workspace();
            g.complex_capacity() >= 1 << 12
        };
        // Another thread's test may have raced the free list; only assert
        // the mechanism when we got a recycled arena.
        let _ = found;
        // Repeated borrow/return from one thread is deterministic:
        {
            let mut g = workspace();
            let _ = g.complex_bufs([64]);
        }
        let g2 = workspace();
        assert!(g2.complex_capacity() >= 64 || g2.complex_capacity() == 0);
    }

    #[test]
    fn arena_grows_monotonically() {
        let mut ws = Workspace::default();
        let _ = ws.complex_bufs([8]);
        assert_eq!(ws.complex_capacity(), 8);
        let _ = ws.complex_bufs([4]);
        assert_eq!(ws.complex_capacity(), 8, "smaller request must not shrink");
        let _ = ws.complex_bufs([16, 16]);
        assert_eq!(ws.complex_capacity(), 32);
    }
}
