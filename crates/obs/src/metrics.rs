//! Typed counters and gauges, registered once as statics and sampled per
//! session.
//!
//! Every instrument the pipeline emits lives here, in one place, so the
//! exporters (and the `BENCH_obs.json` schema) have a closed, known set.
//! Increments are gated on the session switch with a single relaxed load —
//! with no session active a counter add is branch-not-taken and no store
//! happens, preserving the hot path's performance envelope.
//!
//! The `comm.*` and `liveness.*` counters have one writer:
//! `lcc_comm::stats::CommStats::add`, which bumps a slot of the run's
//! `CommStats` table and the counter here with the same meaning in one
//! call. An obs total therefore equals the table's by construction rather
//! than by reconciliation. The table, not these statics, is the store: a
//! counter here is process-wide and moves only inside a session, while the
//! table is per run and counts regardless. `lcc-lint`'s `one-comm-writer`
//! rule keeps every other module from naming them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::span::enabled;

/// A monotonically increasing event counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// Adds `v` when a session is collecting; no-op otherwise.
    #[inline]
    pub fn add(&self, v: u64) {
        if enabled() {
            self.value.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Adds 1 when a session is collecting.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Splits a stretch of code into timed phases, each added to its own
/// [`Counter`] in nanoseconds. The clock is read only when a session is
/// collecting: disabled, [`Stopwatch::start`] is one relaxed load and
/// [`Stopwatch::lap`] a branch on `None`.
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts the first phase.
    #[inline]
    pub fn start() -> Self {
        Stopwatch(enabled().then(Instant::now))
    }

    /// Ends the current phase, charging it to `counter`, and starts the
    /// next.
    #[inline]
    pub fn lap(&mut self, counter: &Counter) {
        if let Some(t) = &mut self.0 {
            let now = Instant::now();
            counter.add((now - *t).as_nanos() as u64);
            *t = now;
        }
    }
}

/// A last-value-wins gauge holding an `f64` (stored as bits).
pub struct Gauge {
    name: &'static str,
    bits: AtomicU64,
}

impl Gauge {
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            bits: AtomicU64::new(0),
        }
    }

    /// Records `v` when a session is collecting; no-op otherwise.
    #[inline]
    pub fn set(&self, v: f64) {
        if enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub(crate) fn reset(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// The instrument registry. Names are `<subsystem>.<event>`; adding an
// instrument means adding it to the matching `all_*` list below.
// ---------------------------------------------------------------------------

/// Logical payload bytes entering `CommWorld::send` (`CommStats::bytes`).
pub static COMM_BYTES_LOGICAL: Counter = Counter::new("comm.bytes_logical");
/// Logical messages (`CommStats::message_count`).
pub static COMM_MESSAGES_LOGICAL: Counter = Counter::new("comm.messages_logical");
/// Physical wire bytes including retransmits and duplicates
/// (`CommStats::physical_bytes`).
pub static COMM_BYTES_PHYSICAL: Counter = Counter::new("comm.bytes_physical");
/// Physical transmission attempts (`CommStats::physical_message_count`).
pub static COMM_MESSAGES_PHYSICAL: Counter = Counter::new("comm.messages_physical");
/// Acknowledgement frames sent (`CommStats::ack_count`).
pub static COMM_ACKS: Counter = Counter::new("comm.acks");
/// Retransmitted frames (`CommStats::retransmit_count`).
pub static COMM_RETRANSMITS: Counter = Counter::new("comm.retransmits");
/// Expired ack waits (`CommStats::timeout_count`).
pub static COMM_TIMEOUTS: Counter = Counter::new("comm.timeouts");
/// Duplicate frames suppressed at the receiver
/// (`CommStats::duplicate_count`).
pub static COMM_DUPLICATES: Counter = Counter::new("comm.duplicates_suppressed");
/// Collective rounds counted once per collective (`CommStats::rounds`).
pub static COMM_COLLECTIVE_ROUNDS: Counter = Counter::new("comm.collective_rounds");

/// Workspace arenas leased from the global free list.
pub static FFT_WORKSPACE_LEASES: Counter = Counter::new("fft.workspace_leases");

/// z-pencils pushed through the stage-2 batched transform.
pub static PIPELINE_PENCILS: Counter = Counter::new("pipeline.pencils_transformed");
/// Stage-2 time loading slab rows and running the pruned forward transform
/// (ns summed over the threads that ran tiles).
pub static PIPELINE_STAGE2_LOAD_NS: Counter = Counter::new("pipeline.stage2_load_ns");
/// Stage-2 time in the pointwise (kernel multiply) step.
pub static PIPELINE_STAGE2_POINTWISE_NS: Counter = Counter::new("pipeline.stage2_pointwise_ns");
/// Stage-2 time in the inverse tile transform.
pub static PIPELINE_STAGE2_INVERSE_NS: Counter = Counter::new("pipeline.stage2_inverse_ns");
/// Stage-2 time storing retained rows into the half-planes.
pub static PIPELINE_STAGE2_STORE_NS: Counter = Counter::new("pipeline.stage2_store_ns");
/// Stage-3 rows of retained planes that carry a sample (c2r'd and captured).
pub static PIPELINE_STAGE3_ROWS_SAMPLED: Counter = Counter::new("pipeline.stage3_rows_sampled");
/// Stage-3 rows of retained planes that carry none (never transformed).
pub static PIPELINE_STAGE3_ROWS_SKIPPED: Counter = Counter::new("pipeline.stage3_rows_skipped");

/// Octree sampling plans built (cache misses; hits reuse a memoized plan).
pub static OCTREE_PLANS_BUILT: Counter = Counter::new("octree.plans_built");
/// Compressed samples captured out of retained planes.
pub static OCTREE_SAMPLES_CAPTURED: Counter = Counter::new("octree.samples_captured");
/// Field cells (of rate > 1) whose samples went into a fold's shared sum.
pub static OCTREE_CELLS_SUMMED: Counter = Counter::new("octree.cells_summed");
/// Distinct summed cells a fold interpolated into its output.
pub static OCTREE_CELLS_INTERPOLATED: Counter = Counter::new("octree.cells_interpolated");

/// Sub-domains convolved at full fidelity.
pub static CONVOLVE_DOMAINS_PROCESSED: Counter = Counter::new("convolve.domains_processed");
/// Sub-domains skipped as identically zero.
pub static CONVOLVE_DOMAINS_SKIPPED: Counter = Counter::new("convolve.domains_skipped");
/// Orphaned sub-domains rebuilt at the coarsest (degraded) rate.
pub static CONVOLVE_DOMAINS_DEGRADED: Counter = Counter::new("convolve.domains_degraded");
/// Orphaned sub-domains recovered exactly by claimants.
pub static CONVOLVE_DOMAINS_RECOVERED: Counter = Counter::new("convolve.domains_recovered");
/// Bytes of the single sparse accumulation exchange (Eq. 6 numerator).
pub static CONVOLVE_EXCHANGE_BYTES: Counter = Counter::new("convolve.exchange_bytes");
/// Compressed samples across all processed domains.
pub static CONVOLVE_SAMPLES: Counter = Counter::new("convolve.samples");

/// MASSIF solver iterations executed.
pub static MASSIF_ITERATIONS: Counter = Counter::new("massif.iterations");

/// Heartbeat frames transmitted by the liveness layer.
pub static LIVENESS_HEARTBEATS_SENT: Counter = Counter::new("liveness.heartbeats_sent");
/// Heartbeat frames received by the liveness layer.
pub static LIVENESS_HEARTBEATS_RECEIVED: Counter = Counter::new("liveness.heartbeats_received");
/// Peers demoted on hard socket evidence (EPIPE/ECONNRESET/reader EOF).
pub static LIVENESS_HARD_EVIDENCE: Counter = Counter::new("liveness.hard_evidence");
/// Peers that crossed the adaptive silence threshold.
pub static LIVENESS_SUSPICIONS: Counter = Counter::new("liveness.suspicions");
/// Newly-dead ranks observed across membership sweeps
/// (`LivenessStats::deaths_detected`).
pub static LIVENESS_DEATHS_DETECTED: Counter = Counter::new("liveness.deaths_detected");
/// Restart-from-checkpoint rejoins performed (`LivenessStats::rejoins`).
pub static LIVENESS_REJOINS: Counter = Counter::new("liveness.rejoins");

/// Requests offered to the service's admission controller.
pub static SERVICE_OFFERED: Counter = Counter::new("service.offered");
/// Requests admitted at full fidelity.
pub static SERVICE_ADMITTED: Counter = Counter::new("service.admitted");
/// Requests admitted degraded under load shedding.
pub static SERVICE_SHED: Counter = Counter::new("service.shed");
/// Requests rejected: tenant queue at capacity.
pub static SERVICE_REJECTED_QUEUE_FULL: Counter = Counter::new("service.rejected_queue_full");
/// Requests rejected: tenant quota exhausted.
pub static SERVICE_REJECTED_QUOTA: Counter = Counter::new("service.rejected_quota");
/// Requests rejected: exact service demanded while shedding.
pub static SERVICE_REJECTED_SHEDDING: Counter = Counter::new("service.rejected_shedding");
/// Coalesced batches dispatched onto the worker pool.
pub static SERVICE_BATCHES: Counter = Counter::new("service.batches");
/// Requests served (responses produced).
pub static SERVICE_REQUESTS_COMPLETED: Counter = Counter::new("service.requests_completed");
/// Plan-registry hits (a tenant reused a cached convolver).
pub static SERVICE_PLAN_HITS: Counter = Counter::new("service.plan_hits");
/// Plan-registry misses (a convolver was built).
pub static SERVICE_PLAN_MISSES: Counter = Counter::new("service.plan_misses");
/// Plan-registry evictions (an entry aged out of the bounded cache).
pub static SERVICE_PLAN_EVICTIONS: Counter = Counter::new("service.plan_evictions");
/// Shed-mode entries (backlog crossed the high watermark).
pub static SERVICE_SHED_ENTRIES: Counter = Counter::new("service.shed_entries");
/// Shed-mode exits (backlog drained past the hysteresis floor).
pub static SERVICE_SHED_EXITS: Counter = Counter::new("service.shed_exits");

/// Last relative residual the MASSIF solver reported.
pub static MASSIF_RESIDUAL: Gauge = Gauge::new("massif.residual");

/// Current total queued depth across all tenants of the service.
pub static SERVICE_QUEUE_DEPTH: Gauge = Gauge::new("service.queue_depth");

static COUNTERS: [&Counter; 47] = [
    &COMM_BYTES_LOGICAL,
    &COMM_MESSAGES_LOGICAL,
    &COMM_BYTES_PHYSICAL,
    &COMM_MESSAGES_PHYSICAL,
    &COMM_ACKS,
    &COMM_RETRANSMITS,
    &COMM_TIMEOUTS,
    &COMM_DUPLICATES,
    &COMM_COLLECTIVE_ROUNDS,
    &FFT_WORKSPACE_LEASES,
    &PIPELINE_PENCILS,
    &PIPELINE_STAGE2_LOAD_NS,
    &PIPELINE_STAGE2_POINTWISE_NS,
    &PIPELINE_STAGE2_INVERSE_NS,
    &PIPELINE_STAGE2_STORE_NS,
    &PIPELINE_STAGE3_ROWS_SAMPLED,
    &PIPELINE_STAGE3_ROWS_SKIPPED,
    &OCTREE_PLANS_BUILT,
    &OCTREE_SAMPLES_CAPTURED,
    &OCTREE_CELLS_SUMMED,
    &OCTREE_CELLS_INTERPOLATED,
    &CONVOLVE_DOMAINS_PROCESSED,
    &CONVOLVE_DOMAINS_SKIPPED,
    &CONVOLVE_DOMAINS_DEGRADED,
    &CONVOLVE_DOMAINS_RECOVERED,
    &CONVOLVE_EXCHANGE_BYTES,
    &CONVOLVE_SAMPLES,
    &MASSIF_ITERATIONS,
    &LIVENESS_HEARTBEATS_SENT,
    &LIVENESS_HEARTBEATS_RECEIVED,
    &LIVENESS_HARD_EVIDENCE,
    &LIVENESS_SUSPICIONS,
    &LIVENESS_DEATHS_DETECTED,
    &LIVENESS_REJOINS,
    &SERVICE_OFFERED,
    &SERVICE_ADMITTED,
    &SERVICE_SHED,
    &SERVICE_REJECTED_QUEUE_FULL,
    &SERVICE_REJECTED_QUOTA,
    &SERVICE_REJECTED_SHEDDING,
    &SERVICE_BATCHES,
    &SERVICE_REQUESTS_COMPLETED,
    &SERVICE_PLAN_HITS,
    &SERVICE_PLAN_MISSES,
    &SERVICE_PLAN_EVICTIONS,
    &SERVICE_SHED_ENTRIES,
    &SERVICE_SHED_EXITS,
];

static GAUGES: [&Gauge; 2] = [&MASSIF_RESIDUAL, &SERVICE_QUEUE_DEPTH];

/// Every registered counter, in stable export order.
pub fn all_counters() -> &'static [&'static Counter] {
    &COUNTERS
}

/// Every registered gauge, in stable export order.
pub fn all_gauges() -> &'static [&'static Gauge] {
    &GAUGES
}

/// Zeroes every instrument (session start).
pub(crate) fn reset_all() {
    for c in all_counters() {
        c.reset();
    }
    for g in all_gauges() {
        g.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = all_counters().iter().map(|c| c.name()).collect();
        names.extend(all_gauges().iter().map(|g| g.name()));
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len(), "duplicate instrument name");
    }

    #[test]
    fn disabled_add_is_dropped() {
        let _gate = crate::test_gate();
        static T: Counter = Counter::new("test.disabled");
        assert!(!enabled());
        T.add(7);
        assert_eq!(T.get(), 0);
    }
}
