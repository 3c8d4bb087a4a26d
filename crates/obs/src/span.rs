//! Hierarchical spans: RAII guards buffered per thread, drained into a
//! lock-free global collector.
//!
//! A [`span`] guard records wall time, the calling thread, the thread's
//! cluster rank/epoch context (see [`set_rank`] / [`set_epoch`]) and its
//! parent span (the innermost live span on the same thread). When no
//! [`ObsSession`](crate::ObsSession) is active the whole machinery is a
//! single relaxed atomic load per guard — no clock read, no thread-local
//! touch, and crucially **no allocation**, so lcc-core's allocation tests
//! (`tests/fold_accounting.rs`) hold with observability compiled in.
//!
//! Collection path: each thread appends finished spans to its own buffer
//! (registered once in a global registry); buffers that grow past
//! [`FLUSH_THRESHOLD`] are spilled into a lock-free Treiber stack of
//! chunks. [`drain_all`] (called by `ObsSession::finish`) swaps the stack
//! empty and sweeps the registered buffers.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One finished span. `id` is process-unique and nonzero; `parent` is `0`
/// for root spans. `rank` is `-1` when the recording thread had no cluster
/// rank context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Start time in nanoseconds since the process monotonic epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Process-unique recording-thread id (registration order).
    pub thread: u32,
    /// Simulated cluster rank, `-1` if none.
    pub rank: i32,
    /// Cluster membership epoch the thread was in, `0` if none.
    pub epoch: u64,
}

/// Master switch, owned by the session layer. Spans and counters check it
/// with one relaxed load; everything else happens only when it is set.
pub(crate) static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether an `ObsSession` is currently collecting.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);

fn clock() -> &'static Instant {
    static CLOCK: OnceLock<Instant> = OnceLock::new();
    CLOCK.get_or_init(Instant::now)
}

/// Nanoseconds since the process monotonic epoch.
pub(crate) fn now_ns() -> u64 {
    clock().elapsed().as_nanos() as u64
}

/// Per-thread span state. The record buffer is shared (`Arc`) with the
/// global registry so `drain_all` can sweep it from the session thread;
/// the parent stack and rank/epoch context are thread-private.
struct ThreadCtx {
    buf: Arc<Mutex<Vec<SpanRecord>>>,
    stack: Vec<u64>,
    thread: u32,
    rank: i32,
    epoch: u64,
}

/// Registered thread buffers. Entries are kept for the process lifetime
/// (a dead thread leaves one empty `Vec` behind — bounded by the number of
/// threads ever spawned, and it preserves records a thread buffered before
/// exiting).
static REGISTRY: Mutex<Vec<Arc<Mutex<Vec<SpanRecord>>>>> = Mutex::new(Vec::new());

impl ThreadCtx {
    fn register() -> Self {
        let buf = Arc::new(Mutex::new(Vec::new()));
        if let Ok(mut reg) = REGISTRY.lock() {
            reg.push(Arc::clone(&buf));
        }
        ThreadCtx {
            buf,
            stack: Vec::new(),
            thread: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
            rank: -1,
            epoch: 0,
        }
    }
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx::register());
}

/// Spill threshold for per-thread buffers: past this many buffered spans
/// the buffer is pushed to the global chunk stack so long runs don't pin
/// one huge `Vec` per thread.
const FLUSH_THRESHOLD: usize = 4096;

/// A lock-free stack of spilled span chunks (Treiber stack). Push is a
/// CAS loop; drain swaps the head with null and walks the detached list.
struct Chunk {
    records: Vec<SpanRecord>,
    next: *mut Chunk,
}

static CHUNKS: AtomicPtr<Chunk> = AtomicPtr::new(std::ptr::null_mut());

fn push_chunk(records: Vec<SpanRecord>) {
    if records.is_empty() {
        return;
    }
    let node = Box::into_raw(Box::new(Chunk {
        records,
        next: std::ptr::null_mut(),
    }));
    let mut head = CHUNKS.load(Ordering::Acquire);
    loop {
        // SAFETY: `node` came from `Box::into_raw` above and is not yet
        // published to any other thread, so writing its `next` field is
        // exclusive access.
        unsafe { (*node).next = head };
        match CHUNKS.compare_exchange_weak(head, node, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return,
            Err(h) => head = h,
        }
    }
}

fn drain_chunks(out: &mut Vec<SpanRecord>) {
    let mut p = CHUNKS.swap(std::ptr::null_mut(), Ordering::AcqRel);
    while !p.is_null() {
        // SAFETY: the swap detached the whole list from the shared head,
        // so no other thread can reach `p`; every node was created by
        // `Box::into_raw` in `push_chunk` and is consumed exactly once.
        let node = unsafe { Box::from_raw(p) };
        out.extend(node.records);
        p = node.next;
    }
}

/// Sets the simulated cluster rank recorded on this thread's spans
/// (`None` clears it). Cluster workers call this once at thread start.
pub fn set_rank(rank: Option<u32>) {
    let _ = CTX.try_with(|c| c.borrow_mut().rank = rank.map_or(-1, |r| r as i32));
}

/// Sets the cluster membership epoch recorded on this thread's spans.
pub fn set_epoch(epoch: u64) {
    let _ = CTX.try_with(|c| c.borrow_mut().epoch = epoch);
}

/// RAII span guard returned by [`span`]. Records itself on drop; inactive
/// guards (no session running at creation) do nothing at all.
pub struct Span {
    id: u64,
    start_ns: u64,
    name: &'static str,
    parent: u64,
    active: bool,
}

/// Opens a span named `name`. The name must be a string literal (static):
/// records reference it without copying. Returns an inert guard when no
/// session is active — one relaxed load, nothing else.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span {
            id: 0,
            start_ns: 0,
            name,
            parent: 0,
            active: false,
        };
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> Span {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CTX
        .try_with(|c| {
            let mut c = c.borrow_mut();
            let parent = c.stack.last().copied().unwrap_or(0);
            c.stack.push(id);
            parent
        })
        .unwrap_or(0);
    Span {
        id,
        start_ns: now_ns(),
        name,
        parent,
        active: true,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        let rec_id = self.id;
        let _ = CTX.try_with(|c| {
            let mut c = c.borrow_mut();
            // Guards drop LIFO within a thread; popping until our id also
            // recovers from a guard leaked with `mem::forget`.
            while let Some(top) = c.stack.pop() {
                if top == rec_id {
                    break;
                }
            }
            let rec = SpanRecord {
                id: rec_id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                dur_ns,
                thread: c.thread,
                rank: c.rank,
                epoch: c.epoch,
            };
            let spill = {
                let mut buf = match c.buf.lock() {
                    Ok(b) => b,
                    Err(p) => p.into_inner(),
                };
                buf.push(rec);
                if buf.len() >= FLUSH_THRESHOLD {
                    Some(std::mem::take(&mut *buf))
                } else {
                    None
                }
            };
            if let Some(records) = spill {
                push_chunk(records);
            }
        });
    }
}

/// Discards every buffered span (registered thread buffers and spilled
/// chunks). Called by `ObsSession::start` so a new session begins clean.
pub(crate) fn clear_all() {
    let mut scratch = Vec::new();
    drain_chunks(&mut scratch);
    if let Ok(reg) = REGISTRY.lock() {
        for buf in reg.iter() {
            match buf.lock() {
                Ok(mut b) => b.clear(),
                Err(p) => p.into_inner().clear(),
            }
        }
    }
}

/// Moves every buffered span out (chunks first, then live thread buffers)
/// and returns them sorted by start time. Called by `ObsSession::finish`
/// after collection is disabled.
pub(crate) fn drain_all() -> Vec<SpanRecord> {
    let mut out = Vec::new();
    drain_chunks(&mut out);
    if let Ok(reg) = REGISTRY.lock() {
        for buf in reg.iter() {
            match buf.lock() {
                Ok(mut b) => out.append(&mut b),
                Err(p) => out.append(&mut p.into_inner()),
            }
        }
    }
    out.sort_by_key(|r| (r.start_ns, r.id));
    out
}

/// Interns a span name read back from a capture file, returning a
/// `&'static str` usable in [`SpanRecord`]. Distinct names are leaked
/// once; repeats return the existing allocation, so the leak is bounded by
/// the number of distinct span names ever replayed.
pub fn intern(name: &str) -> &'static str {
    static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut names = match NAMES.lock() {
        Ok(n) => n,
        Err(p) => p.into_inner(),
    };
    if let Some(existing) = names.iter().find(|n| **n == name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    names.push(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        let _gate = crate::test_gate();
        assert!(!enabled());
        let g = span("never_recorded");
        assert!(!g.active);
        drop(g);
    }

    #[test]
    fn intern_dedupes() {
        let a = intern("stage_x");
        let b = intern("stage_x");
        assert!(std::ptr::eq(a, b));
    }
}
