//! Heartbeat-driven failure detection for backends with real silence.
//!
//! The in-process backend cannot lose a peer without knowing it — a dead
//! thread drops its channels and every survivor sees `Disbanded`
//! immediately. A real process mesh has no such luxury: a SIGKILLed rank
//! simply goes quiet, and the only signals are *hard evidence* (EOF or a
//! read error in a reader thread, unless the peer said goodbye first — see
//! [`super::frame::KIND_BYE`]) and *absence* (no frames, no heartbeats).
//! The [`LivenessBoard`] fuses both:
//!
//! * Every peer's reader thread reports arrivals (heartbeats and protocol
//!   frames alike) with [`LivenessBoard::note_beat`] /
//!   [`LivenessBoard::note_traffic`]; a per-process heartbeat thread emits
//!   [`super::frame::KIND_HEARTBEAT`] frames on
//!   [`crate::fault::RetryPolicy::heartbeat_period`].
//! * A sweep ([`LivenessBoard::confirmed_dead`]) declares a peer dead when
//!   there is hard evidence, or when its silence exceeds a phi-accrual-style
//!   adaptive threshold: mean observed inter-arrival plus four standard
//!   deviations (EWMA-tracked), clamped between a floor of a few heartbeat
//!   periods and the [`crate::fault::RetryPolicy::suspicion_timeout`] cap
//!   seeded from [`crate::fault::RetryPolicy::scaled_for`]. Until a peer
//!   has produced enough beats to estimate its rhythm, only the cap
//!   applies — startup jitter must never demote a live rank.
//!
//! The board is deliberately *below* membership: it only ever answers
//! "which peers do I have evidence are dead". The epoch/recovery protocol
//! above the seam consumes that answer through
//! [`crate::cluster::CommWorld::detect_failures`], unioned with the fault
//! plan's deterministic ground truth, so planned deaths demote identically
//! on every backend while unplanned deaths are caught from evidence alone.
//!
//! The board counts its four events (beats sent and received, hard
//! evidence, suspicions) into the run's [`CommStats`] table, beside the
//! protocol's deaths and rejoins; [`LivenessStats`] is the table's view of
//! all six. The board's four are wall-clock driven — scheduling noise —
//! and are excluded from the conformance suite's exact-equality clause;
//! the deterministic pair (`deaths_detected`, `rejoins`) is counted above
//! the seam in [`crate::cluster::CommWorld`] and *is* asserted equal
//! across backends.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lcc_obs::codec::{CodecError, Reader, Writer};

use crate::fault::RetryPolicy;
use crate::stats::{CommCounter, CommStats};

/// Number of EWMA standard deviations of silence that arouse suspicion.
pub const PHI_SIGMAS: f64 = 4.0;
/// EWMA smoothing factor for the inter-arrival estimate.
pub const EWMA_ALPHA: f64 = 0.2;
/// Beats required before the adaptive threshold is trusted at all.
pub const MIN_SAMPLES: u64 = 4;
/// The adaptive floor, in heartbeat periods: even a metronome-steady peer
/// gets this many missed beats of grace.
pub const FLOOR_PERIODS: u32 = 4;

/// Pure EWMA update of one peer's rhythm estimate for an observed
/// inter-arrival `gap_s` (seconds): returns the new
/// `(mean_s, var_s2, samples)` triple. The first observation seeds the
/// mean directly; later ones blend with [`EWMA_ALPHA`]. Exposed at
/// function level so the suspicion math is property-testable without a
/// clock or a board.
pub fn ewma_observe(mean_s: f64, var_s2: f64, samples: u64, gap_s: f64) -> (f64, f64, u64) {
    if samples > 0 {
        let dev = gap_s - mean_s;
        (
            mean_s + EWMA_ALPHA * dev,
            var_s2 + EWMA_ALPHA * (dev * dev - var_s2),
            samples + 1,
        )
    } else {
        (gap_s, var_s2, 1)
    }
}

/// Pure adaptive silence threshold for a rhythm estimate: the
/// [`PHI_SIGMAS`]-sigma phi-accrual bound `mean + 4σ`, clamped to
/// `[floor, cap]`; until [`MIN_SAMPLES`] beats have been observed only
/// the cap applies (startup jitter must never demote a live rank).
pub fn adaptive_threshold(
    mean_s: f64,
    var_s2: f64,
    samples: u64,
    floor: Duration,
    cap: Duration,
) -> Duration {
    if samples < MIN_SAMPLES {
        return cap;
    }
    let adaptive = Duration::from_secs_f64(mean_s + PHI_SIGMAS * var_s2.sqrt());
    adaptive.clamp(floor, cap)
}

/// Liveness-layer counters, reported per rank and summed cluster-wide.
///
/// `heartbeats_*`, `hard_evidence`, and `suspicions` are wall-clock
/// dependent; `deaths_detected` and `rejoins` are pure functions of the
/// fault seed and are the pair the conformance suite asserts equal across
/// backends.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LivenessStats {
    /// Heartbeat frames this rank transmitted.
    pub heartbeats_sent: u64,
    /// Heartbeat frames this rank received.
    pub heartbeats_received: u64,
    /// Peers demoted on hard socket evidence (a reader's EOF or read error
    /// without a goodbye before it).
    pub hard_evidence: u64,
    /// Peers that crossed the adaptive silence threshold.
    pub suspicions: u64,
    /// Newly-dead ranks observed across this rank's membership sweeps.
    pub deaths_detected: u64,
    /// Restart-from-checkpoint rejoins this rank performed.
    pub rejoins: u64,
}

impl LivenessStats {
    /// Serialized size: six little-endian `u64`s.
    pub const WIRE_BYTES: usize = 48;

    /// Accumulates `other` into `self` (cluster-wide totals).
    pub fn add(&mut self, other: &LivenessStats) {
        self.heartbeats_sent += other.heartbeats_sent;
        self.heartbeats_received += other.heartbeats_received;
        self.hard_evidence += other.hard_evidence;
        self.suspicions += other.suspicions;
        self.deaths_detected += other.deaths_detected;
        self.rejoins += other.rejoins;
    }

    /// Fixed-size wire encoding (six little-endian `u64`s) for the socket
    /// backend's RESULT frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_BYTES);
        for v in [
            self.heartbeats_sent,
            self.heartbeats_received,
            self.hard_evidence,
            self.suspicions,
            self.deaths_detected,
            self.rejoins,
        ] {
            out.put_u64(v);
        }
        out
    }

    /// Reads the layout [`LivenessStats::to_bytes`] writes.
    pub fn decode(r: &mut Reader<'_>) -> Result<LivenessStats, CodecError> {
        r.need(Self::WIRE_BYTES)?;
        Ok(LivenessStats {
            heartbeats_sent: r.u64()?,
            heartbeats_received: r.u64()?,
            hard_evidence: r.u64()?,
            suspicions: r.u64()?,
            deaths_detected: r.u64()?,
            rejoins: r.u64()?,
        })
    }

    /// Inverse of [`LivenessStats::to_bytes`]; `None` unless `bytes` is
    /// exactly one record.
    pub fn from_bytes(bytes: &[u8]) -> Option<LivenessStats> {
        let mut r = Reader::new(bytes);
        let stats = Self::decode(&mut r).ok()?;
        r.finish().ok()?;
        Some(stats)
    }
}

/// One peer's observed arrival rhythm.
#[derive(Debug, Clone, Copy)]
struct PeerHealth {
    last_seen: Instant,
    /// EWMA of the inter-arrival gap, in seconds.
    mean_s: f64,
    /// EWMA of the squared deviation, in seconds².
    var_s2: f64,
    samples: u64,
    suspected: bool,
}

struct BoardInner {
    peers: Vec<PeerHealth>,
    hard_dead: BTreeSet<usize>,
    /// Bumped by [`LivenessBoard::mark_rejoined`]: evidence gathered
    /// against a peer's dead predecessor (e.g. a reader thread's late EOF)
    /// carries the old incarnation and is discarded on arrival.
    incarnations: Vec<u64>,
    /// When the previous [`LivenessBoard::sweep_at`] ran. A sweep arriving
    /// after a gap longer than the suspicion cap means *this* process
    /// stalled (descheduled under load, or deep in a compute phase) — its
    /// reader threads may not have drained queued arrivals yet, so silence
    /// observed across the stall is not evidence.
    last_sweep: Instant,
}

/// Shared per-process failure-detector state for one transport endpoint.
///
/// Reader threads and the heartbeat thread hold clones of the `Arc`; the
/// transport itself polls [`LivenessBoard::confirmed_dead`] from
/// `detect_failures` sweeps.
pub struct LivenessBoard {
    rank: usize,
    floor: Duration,
    cap: Duration,
    inner: Mutex<BoardInner>,
    /// The run's counter table: the board's four events count here.
    stats: Arc<CommStats>,
}

impl LivenessBoard {
    /// A fresh board for `rank` in a `size`-rank cluster, with thresholds
    /// seeded from `policy` (floor = [`FLOOR_PERIODS`] heartbeat periods,
    /// cap = [`RetryPolicy::suspicion_timeout`]), counting its events into
    /// `stats`.
    pub fn new(
        rank: usize,
        size: usize,
        policy: &RetryPolicy,
        stats: Arc<CommStats>,
    ) -> Arc<LivenessBoard> {
        let now = Instant::now();
        Arc::new(LivenessBoard {
            rank,
            floor: policy.heartbeat_period() * FLOOR_PERIODS,
            cap: policy.suspicion_timeout(),
            inner: Mutex::new(BoardInner {
                peers: vec![
                    PeerHealth {
                        last_seen: now,
                        mean_s: 0.0,
                        var_s2: 0.0,
                        samples: 0,
                        suspected: false,
                    };
                    size
                ],
                hard_dead: BTreeSet::new(),
                incarnations: vec![0; size],
                last_sweep: now,
            }),
            stats,
        })
    }

    /// The rank this board belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BoardInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn note_alive_at(&self, peer: usize, now: Instant) {
        let mut inner = self.lock();
        let Some(h) = inner.peers.get_mut(peer) else {
            return;
        };
        let gap = now.saturating_duration_since(h.last_seen).as_secs_f64();
        (h.mean_s, h.var_s2, h.samples) = ewma_observe(h.mean_s, h.var_s2, h.samples, gap);
        h.last_seen = now;
        h.suspected = false;
    }

    /// Records a heartbeat arrival from `peer`.
    pub fn note_beat(&self, peer: usize) {
        self.stats.add(CommCounter::HeartbeatsReceived, 1);
        self.note_alive_at(peer, Instant::now());
    }

    /// Records any protocol frame from `peer` — data is at least as good
    /// evidence of life as a heartbeat.
    pub fn note_traffic(&self, peer: usize) {
        self.note_alive_at(peer, Instant::now());
    }

    /// Records that this rank transmitted one round of heartbeats covering
    /// `fanout` peers.
    pub fn note_beats_sent(&self, fanout: u64) {
        self.stats.add(CommCounter::HeartbeatsSent, fanout);
    }

    /// Registers hard evidence that `peer` is dead. Returns `true` the
    /// first time (so callers can log once).
    pub fn mark_hard_dead(&self, peer: usize) -> bool {
        let fresh = self.lock().hard_dead.insert(peer);
        if fresh {
            self.stats.add(CommCounter::HardEvidence, 1);
        }
        fresh
    }

    /// The number of times `peer` has rejoined, used to version evidence.
    /// A reader thread records it at spawn and submits its eventual EOF
    /// via [`LivenessBoard::mark_hard_dead_as_of`].
    pub fn incarnation(&self, peer: usize) -> u64 {
        self.lock().incarnations.get(peer).copied().unwrap_or(0)
    }

    /// Like [`LivenessBoard::mark_hard_dead`], but the evidence is dropped
    /// if `peer` has rejoined since `incarnation` was observed — a reader
    /// thread's late EOF on a SIGKILLed predecessor's socket must not
    /// condemn the restarted successor.
    pub fn mark_hard_dead_as_of(&self, peer: usize, incarnation: u64) -> bool {
        let fresh = {
            let mut inner = self.lock();
            if inner.incarnations.get(peer).copied() != Some(incarnation) {
                return false;
            }
            inner.hard_dead.insert(peer)
        };
        if fresh {
            self.stats.add(CommCounter::HardEvidence, 1);
        }
        fresh
    }

    /// Reinstates a peer that restarted from checkpoint: hard evidence
    /// against its dead predecessor is cleared and its rhythm estimate
    /// starts over. Called by survivors while parked at the kill gate, so
    /// no detection sweep can race the rejoin.
    pub fn mark_rejoined(&self, peer: usize) {
        let mut inner = self.lock();
        inner.hard_dead.remove(&peer);
        if let Some(inc) = inner.incarnations.get_mut(peer) {
            *inc += 1;
        }
        if let Some(h) = inner.peers.get_mut(peer) {
            h.last_seen = Instant::now();
            h.mean_s = 0.0;
            h.var_s2 = 0.0;
            h.samples = 0;
            h.suspected = false;
        }
    }

    /// This peer's current adaptive silence threshold.
    fn threshold(&self, h: &PeerHealth) -> Duration {
        adaptive_threshold(h.mean_s, h.var_s2, h.samples, self.floor, self.cap)
    }

    /// Sweep at time `now`: peers with hard evidence, plus peers whose
    /// silence exceeds their adaptive threshold. Exposed with an explicit
    /// clock for unit tests; production callers use
    /// [`LivenessBoard::confirmed_dead`].
    ///
    /// Silence-based suspicion carries a local-pause guard (the classic
    /// phi-accrual false positive): if this sweep arrives more than the
    /// suspicion cap after the previous one, the *sweeper* stalled, and
    /// every silence clock is granted amnesty instead of burying — queued
    /// frames from perfectly live peers may still be sitting behind the
    /// descheduled reader threads. Hard evidence is unaffected, and a
    /// truly dead peer falls to the next sweep, one interval later.
    pub fn sweep_at(&self, now: Instant) -> BTreeSet<usize> {
        let mut inner = self.lock();
        let stalled = now.saturating_duration_since(inner.last_sweep) > self.cap;
        inner.last_sweep = now;
        let BoardInner {
            peers, hard_dead, ..
        } = &mut *inner;
        let mut dead = hard_dead.clone();
        for (peer, h) in peers.iter_mut().enumerate() {
            if peer == self.rank || dead.contains(&peer) {
                continue;
            }
            let silence = now.saturating_duration_since(h.last_seen);
            if silence > self.threshold(h) {
                if stalled {
                    h.last_seen = now;
                    continue;
                }
                if !h.suspected {
                    h.suspected = true;
                    self.stats.add(CommCounter::Suspicions, 1);
                }
                dead.insert(peer);
            }
        }
        dead
    }

    /// Peers this board currently has evidence are dead.
    pub fn confirmed_dead(&self) -> BTreeSet<usize> {
        self.sweep_at(Instant::now())
    }

    /// The liveness view of the table this board counts into (in a
    /// socket child, the world's: it includes the protocol's deaths and
    /// rejoins).
    pub fn stats(&self) -> LivenessStats {
        self.stats.liveness()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_policy() -> RetryPolicy {
        RetryPolicy {
            recv_timeout: Duration::from_millis(800),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn stats_codec_round_trips() {
        let stats = LivenessStats {
            heartbeats_sent: 1,
            heartbeats_received: 2,
            hard_evidence: 3,
            suspicions: 4,
            deaths_detected: 5,
            rejoins: 6,
        };
        let bytes = stats.to_bytes();
        assert_eq!(LivenessStats::from_bytes(&bytes), Some(stats));
        assert_eq!(LivenessStats::from_bytes(&bytes[..7]), None);
        let mut total = LivenessStats::default();
        total.add(&stats);
        total.add(&stats);
        assert_eq!(total.rejoins, 12);
    }

    #[test]
    fn hard_evidence_is_immediate_and_counted_once() {
        let board = LivenessBoard::new(0, 3, &quick_policy(), Arc::default());
        assert!(board.confirmed_dead().is_empty());
        assert!(board.mark_hard_dead(2));
        assert!(!board.mark_hard_dead(2), "second report is not fresh");
        assert_eq!(board.confirmed_dead(), BTreeSet::from([2]));
        assert_eq!(board.stats().hard_evidence, 1);
        // A checkpoint-restart rejoin wipes the slate for that peer.
        board.mark_rejoined(2);
        assert!(board.confirmed_dead().is_empty());
    }

    #[test]
    fn stale_evidence_from_a_previous_incarnation_is_dropped() {
        let board = LivenessBoard::new(0, 3, &quick_policy(), Arc::default());
        // A reader thread records the incarnation when it starts…
        let observed = board.incarnation(2);
        // …the peer dies, restarts, and is re-admitted before the reader
        // notices the EOF…
        board.mark_rejoined(2);
        // …so its late verdict must not condemn the successor.
        assert!(!board.mark_hard_dead_as_of(2, observed));
        assert!(board.confirmed_dead().is_empty());
        assert_eq!(board.stats().hard_evidence, 0);
        // Evidence carrying the current incarnation still lands.
        assert!(board.mark_hard_dead_as_of(2, board.incarnation(2)));
        assert_eq!(board.confirmed_dead(), BTreeSet::from([2]));
    }

    #[test]
    fn silence_beyond_cap_is_suspected_even_without_history() {
        let board = LivenessBoard::new(0, 2, &quick_policy(), Arc::default());
        let cap = quick_policy().suspicion_timeout();
        let start = Instant::now();
        // Sweeps on a live cadence (each gap within the cap, so the
        // local-pause guard stays out of the way). Under the cap: still
        // innocent (no rhythm estimate yet).
        assert!(board.sweep_at(start + cap * 3 / 4).is_empty());
        let dead = board.sweep_at(start + cap * 3 / 2);
        assert_eq!(dead, BTreeSet::from([1]));
        assert_eq!(board.stats().suspicions, 1);
        // Suspicion is sticky across sweeps but counted once.
        board.sweep_at(start + cap * 2);
        assert_eq!(board.stats().suspicions, 1);
    }

    #[test]
    fn a_stalled_sweeper_grants_amnesty_instead_of_burying() {
        let policy = quick_policy();
        let board = LivenessBoard::new(0, 3, &policy, Arc::default());
        let cap = policy.suspicion_timeout();
        let start = Instant::now();
        board.mark_hard_dead(2);
        // A sweep arriving 4 caps after the previous one means *this*
        // process stalled: the observed silence is worthless (queued
        // frames may sit behind the descheduled reader threads), so the
        // silence clock restarts — but hard evidence still buries.
        assert_eq!(board.sweep_at(start + cap * 4), BTreeSet::from([2]));
        assert_eq!(board.stats().suspicions, 0);
        // On-time follow-up: the forgiven peer's clock was reset.
        assert_eq!(
            board.sweep_at(start + cap * 4 + cap / 2),
            BTreeSet::from([2])
        );
        // A further full window of real silence is judged normally.
        assert_eq!(board.sweep_at(start + cap * 11 / 2), BTreeSet::from([1, 2]));
        assert_eq!(board.stats().suspicions, 1);
    }

    #[test]
    fn steady_rhythm_tightens_the_threshold_and_traffic_resets_it() {
        let policy = quick_policy();
        let board = LivenessBoard::new(0, 2, &policy, Arc::default());
        let start = Instant::now();
        let period = policy.heartbeat_period();
        // A metronome peer: after enough samples the adaptive threshold is
        // far below the cap, so a few missed beats suffice.
        let mut t = start;
        for _ in 0..16 {
            t += period;
            board.note_alive_at(1, t);
        }
        let floor = period * FLOOR_PERIODS;
        assert!(board.sweep_at(t + floor / 2).is_empty());
        assert_eq!(board.sweep_at(t + floor * 2), BTreeSet::from([1]));
        // Fresh traffic rescinds pure-silence suspicion (unlike hard
        // evidence, which is terminal).
        board.note_alive_at(1, t + floor * 2);
        assert!(board.sweep_at(t + floor * 2 + period).is_empty());
        assert!(board.stats().heartbeats_sent == 0);
        board.note_beats_sent(3);
        board.note_beat(1);
        assert_eq!(board.stats().heartbeats_sent, 3);
        assert_eq!(board.stats().heartbeats_received, 1);
    }

    #[test]
    fn own_rank_is_never_suspected() {
        let policy = quick_policy();
        let board = LivenessBoard::new(1, 2, &policy, Arc::default());
        let cap = policy.suspicion_timeout();
        let start = Instant::now();
        // On-cadence sweeps (no stall amnesty) until the peer's silence
        // crosses the cap: the peer is buried, self never is.
        assert!(board.sweep_at(start + cap * 3 / 4).is_empty());
        let dead = board.sweep_at(start + cap * 3 / 2);
        assert_eq!(dead, BTreeSet::from([0]), "only the peer, never self");
    }
}
