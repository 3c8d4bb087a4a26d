//! `lcc_obs` — zero-dependency structured tracing and metrics for the
//! low-communication convolution pipeline.
//!
//! The paper's argument is a communication/accuracy ledger (Eq. 1 dense
//! all-to-all bytes vs Eq. 6 compressed-exchange bytes at ≤3% error);
//! this crate is the instrument panel that makes every run produce that
//! ledger. Three layers:
//!
//! * **Spans** ([`span`] / [`span!`]) — hierarchical RAII wall-time guards
//!   buffered per thread and drained into a lock-free global collector,
//!   each recording parent, thread, cluster rank and membership epoch.
//! * **Counters / gauges** ([`metrics`]) — typed instruments registered
//!   once as statics (logical vs physical comm bytes, pencils transformed,
//!   workspace leases, retries, degraded/recovered domains, …) and sampled
//!   per session. The `comm.*` counters are incremented at the same call
//!   sites as `CommStats`, so totals match it exactly.
//! * **Capture / replay** ([`ObsReport::capture_into`] /
//!   [`ObsReport::replay_from`]) — a versioned binary log so a cluster-sim
//!   run can be dumped and re-rendered offline, plus a flamegraph-style
//!   [`ObsReport::trace_tree`] text view.
//!
//! The crate also owns [`codec`], the workspace's one little-endian
//! cursor/writer, typed [`codec::CodecError`] and FNV-1a: every byte format
//! (transport frames, service messages, checkpoints, captures) reads and
//! writes through it, because this zero-dependency leaf is the one crate
//! every encoding crate already depends on (DESIGN.md §5p).
//!
//! Everything is inert until an [`ObsSession`] starts: with no session
//! live, a span guard or counter add costs one relaxed atomic load and no
//! allocation, which is what keeps lcc-core's allocation tests
//! (`tests/fold_accounting.rs`) and pool bit-identity tests
//! (`tests/parallel_identity.rs`) true with instrumentation compiled in.

pub mod capture;
pub mod codec;
pub mod metrics;
pub mod session;
pub mod span;
pub mod tree;

pub use capture::ObsError;
pub use metrics::{Counter, Gauge};
pub use session::{ObsReport, ObsSession};
pub use span::{enabled, set_epoch, set_rank, span, Span, SpanRecord};

/// Opens a named RAII span; expands to the guard expression, so bind it:
/// `let _s = span!("stage1_fft");`. The guard records on drop. A no-op
/// (single relaxed load) when no [`ObsSession`] is active.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Serializes tests that toggle the global session switch.
#[cfg(test)]
pub(crate) fn test_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    match GATE.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn macro_returns_guard() {
        let _gate = crate::test_gate();
        let s = crate::ObsSession::start().expect("no live session");
        {
            let _g = span!("macro_span");
        }
        let report = s.finish();
        assert_eq!(report.span_count("macro_span"), 1);
    }
}
