//! The comm ledger: one per-run table holding every communication and
//! liveness count, and the one call that writes it.
//!
//! Each counted event — a logical send, a frame on the wire, an ack, a
//! retransmission, a collective round, a death detected, a rejoin, a
//! heartbeat, a piece of hard evidence, a suspicion — is one
//! [`CommStats::add`]. That call bumps the event's slot in the table and
//! the [`lcc_obs::metrics`] counter with the same meaning
//! ([`CommCounter::obs`]), so an [`lcc_obs::ObsSession`] open over a run
//! reads the table's totals by construction: there is no second count to
//! drift.
//!
//! The table, not obs, is the store. Obs counters are process-wide and
//! count only inside a session; the table is per run (one `Arc` shared by
//! a run's ranks, or one per socket-backend process), counts with or
//! without a session, and ships home in RESULT frames.
//! [`CommStatsSnapshot`] (the nine comm counters) and [`LivenessStats`]
//! (the six liveness counters) are plain-value views of it; their byte
//! layouts are the wire formats.

use std::sync::atomic::{AtomicU64, Ordering};

use lcc_obs::codec::{CodecError, Reader, Writer};
use lcc_obs::metrics as obs;

use crate::transport::liveness::LivenessStats;

/// One kind of counted event: a slot of [`CommStats`] and the obs counter
/// with the same meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommCounter {
    /// Logical payload bytes sent (self-copies, retransmissions and acks
    /// excluded).
    BytesSent,
    /// Logical point-to-point messages (self-copies excluded).
    Messages,
    /// Collective rounds, counted once per collective, not per rank.
    CollectiveRounds,
    /// Data-frame retransmissions forced by the fault plan.
    Retransmits,
    /// Redundant deliveries discarded by receivers (retransmits that raced
    /// a successful delivery, plus injected duplicates).
    DuplicatesSuppressed,
    /// Ack waits that expired, planned (the fault plan dropped the ack) or
    /// real.
    Timeouts,
    /// Payload bytes of every data frame actually transmitted: first
    /// attempts, retransmissions, injected duplicates and frames lost in
    /// flight all count (the sender paid for them either way).
    BytesPhysical,
    /// Data frames actually transmitted (same rule as `BytesPhysical`).
    MessagesPhysical,
    /// Ack frames transmitted, including acks the fault plan then dropped.
    Acks,
    /// Newly-dead ranks observed by `CommWorld::detect_failures` sweeps.
    DeathsDetected,
    /// Restart-from-checkpoint rejoins acknowledged at a protocol point.
    Rejoins,
    /// Heartbeat frames transmitted by the liveness board.
    HeartbeatsSent,
    /// Heartbeat frames received by the liveness board.
    HeartbeatsReceived,
    /// Peers demoted on hard socket evidence (a reader's EOF or read error
    /// with no goodbye before it).
    HardEvidence,
    /// Peers that crossed the adaptive silence threshold.
    Suspicions,
}

impl CommCounter {
    /// Every counter, in slot order: the nine of [`CommStatsSnapshot`] in
    /// its field order, then the protocol's deaths and rejoins, then the
    /// liveness board's four.
    pub const ALL: [CommCounter; 15] = [
        CommCounter::BytesSent,
        CommCounter::Messages,
        CommCounter::CollectiveRounds,
        CommCounter::Retransmits,
        CommCounter::DuplicatesSuppressed,
        CommCounter::Timeouts,
        CommCounter::BytesPhysical,
        CommCounter::MessagesPhysical,
        CommCounter::Acks,
        CommCounter::DeathsDetected,
        CommCounter::Rejoins,
        CommCounter::HeartbeatsSent,
        CommCounter::HeartbeatsReceived,
        CommCounter::HardEvidence,
        CommCounter::Suspicions,
    ];

    /// The obs counter [`CommStats::add`] bumps alongside this slot.
    pub fn obs(self) -> &'static obs::Counter {
        match self {
            CommCounter::BytesSent => &obs::COMM_BYTES_LOGICAL,
            CommCounter::Messages => &obs::COMM_MESSAGES_LOGICAL,
            CommCounter::CollectiveRounds => &obs::COMM_COLLECTIVE_ROUNDS,
            CommCounter::Retransmits => &obs::COMM_RETRANSMITS,
            CommCounter::DuplicatesSuppressed => &obs::COMM_DUPLICATES,
            CommCounter::Timeouts => &obs::COMM_TIMEOUTS,
            CommCounter::BytesPhysical => &obs::COMM_BYTES_PHYSICAL,
            CommCounter::MessagesPhysical => &obs::COMM_MESSAGES_PHYSICAL,
            CommCounter::Acks => &obs::COMM_ACKS,
            CommCounter::DeathsDetected => &obs::LIVENESS_DEATHS_DETECTED,
            CommCounter::Rejoins => &obs::LIVENESS_REJOINS,
            CommCounter::HeartbeatsSent => &obs::LIVENESS_HEARTBEATS_SENT,
            CommCounter::HeartbeatsReceived => &obs::LIVENESS_HEARTBEATS_RECEIVED,
            CommCounter::HardEvidence => &obs::LIVENESS_HARD_EVIDENCE,
            CommCounter::Suspicions => &obs::LIVENESS_SUSPICIONS,
        }
    }
}

/// The per-run counter table: one slot per [`CommCounter`], written only
/// by [`CommStats::add`].
#[derive(Debug, Default)]
pub struct CommStats {
    slots: [AtomicU64; CommCounter::ALL.len()],
    /// Wall-clock nanoseconds (UNIX epoch) of the first detection sweep
    /// that demoted a rank; zero if no rank was ever demoted. A timestamp,
    /// not a count. First writer wins, so on a shared in-process handle
    /// this is the cluster's earliest detection.
    first_detection_ns: AtomicU64,
}

impl CommStats {
    /// Counts `n` events of kind `c`: bumps the slot and `c`'s obs counter
    /// (which moves only while a session is collecting).
    pub(crate) fn add(&self, c: CommCounter, n: u64) {
        self.slots[c as usize].fetch_add(n, Ordering::Relaxed);
        c.obs().add(n);
    }

    /// The current value of slot `c`.
    pub fn get(&self, c: CommCounter) -> u64 {
        self.slots[c as usize].load(Ordering::Relaxed)
    }

    /// Total logical bytes sent.
    pub fn bytes(&self) -> u64 {
        self.get(CommCounter::BytesSent)
    }

    /// Total logical messages.
    pub fn message_count(&self) -> u64 {
        self.get(CommCounter::Messages)
    }

    /// Collective rounds.
    pub fn rounds(&self) -> u64 {
        self.get(CommCounter::CollectiveRounds)
    }

    /// Forced retransmissions.
    pub fn retransmit_count(&self) -> u64 {
        self.get(CommCounter::Retransmits)
    }

    /// Suppressed duplicate deliveries.
    pub fn duplicate_count(&self) -> u64 {
        self.get(CommCounter::DuplicatesSuppressed)
    }

    /// Expired ack waits.
    pub fn timeout_count(&self) -> u64 {
        self.get(CommCounter::Timeouts)
    }

    /// Physically transmitted payload bytes (retransmissions, duplicates
    /// and in-flight losses included).
    pub fn physical_bytes(&self) -> u64 {
        self.get(CommCounter::BytesPhysical)
    }

    /// Physically transmitted data frames.
    pub fn physical_message_count(&self) -> u64 {
        self.get(CommCounter::MessagesPhysical)
    }

    /// Transmitted ack frames.
    pub fn ack_count(&self) -> u64 {
        self.get(CommCounter::Acks)
    }

    /// Newly-dead ranks observed across detection sweeps.
    pub fn deaths_detected_count(&self) -> u64 {
        self.get(CommCounter::DeathsDetected)
    }

    /// Checkpoint-restart rejoins.
    pub fn rejoin_count(&self) -> u64 {
        self.get(CommCounter::Rejoins)
    }

    /// Wall-clock UNIX nanoseconds of the earliest failure detection, if
    /// any rank was ever demoted.
    pub fn first_detection_ns(&self) -> Option<u64> {
        match self.first_detection_ns.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(ns),
        }
    }

    /// Records the wall-clock instant of a detection sweep that demoted a
    /// rank; only the first report sticks.
    pub(crate) fn note_first_detection(&self) {
        let ns = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1);
        let _ = self.first_detection_ns.compare_exchange(
            0,
            ns.max(1),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// α-β modeled wall time of the recorded *logical* traffic on `p`
    /// ranks, assuming all ranks inject concurrently on dedicated links
    /// (the fully-connected assumption behind the paper's Eq. 1): every
    /// message pays α, and each rank's share of the volume pays β serially.
    pub fn modeled_time(&self, model: &crate::model::AlphaBeta, p: usize) -> f64 {
        model.cluster_time(self.message_count(), self.bytes(), p)
    }

    /// α-β modeled wall time of the *physical* traffic: every transmitted
    /// data frame and ack pays α, and the retransmitted/duplicated/lost
    /// bytes pay β like any others (acks are modeled as
    /// [`ACK_WIRE_BYTES`]-byte frames). Under an inert plan this equals
    /// [`CommStats::modeled_time`] plus the ack cost of zero acks — i.e.
    /// exactly the logical time.
    pub fn modeled_time_physical(&self, model: &crate::model::AlphaBeta, p: usize) -> f64 {
        let msgs = self.physical_message_count() + self.ack_count();
        let bytes = self.physical_bytes() + ACK_WIRE_BYTES * self.ack_count();
        model.cluster_time(msgs, bytes, p)
    }

    /// The nine comm counters as plain values, for cross-process
    /// aggregation (each socket-backend rank ships its snapshot home) and
    /// for exact equality assertions in the conformance suite.
    pub fn snapshot(&self) -> CommStatsSnapshot {
        CommStatsSnapshot::from_fields(std::array::from_fn(|i| self.get(CommCounter::ALL[i])))
    }

    /// The six liveness counters as plain values. A run without a liveness
    /// board (the in-process backend) reports zero heartbeats, evidence
    /// and suspicions.
    pub fn liveness(&self) -> LivenessStats {
        LivenessStats {
            heartbeats_sent: self.get(CommCounter::HeartbeatsSent),
            heartbeats_received: self.get(CommCounter::HeartbeatsReceived),
            hard_evidence: self.get(CommCounter::HardEvidence),
            suspicions: self.get(CommCounter::Suspicions),
            deaths_detected: self.deaths_detected_count(),
            rejoins: self.rejoin_count(),
        }
    }
}

/// A plain-value view of [`CommStats`]' nine comm counters; see
/// [`CommStats::snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStatsSnapshot {
    pub bytes_sent: u64,
    pub messages: u64,
    pub collective_rounds: u64,
    pub retransmits: u64,
    pub duplicates_suppressed: u64,
    pub timeouts: u64,
    pub bytes_physical: u64,
    pub messages_physical: u64,
    pub acks: u64,
}

impl CommStatsSnapshot {
    /// Serialized size: nine little-endian `u64`s.
    pub const WIRE_BYTES: usize = 72;

    /// Field-wise sum, used by the socket coordinator to fold per-process
    /// snapshots into cluster totals.
    pub fn add_snapshot(&mut self, other: &CommStatsSnapshot) {
        let (a, b) = (self.fields(), other.fields());
        *self = Self::from_fields(std::array::from_fn(|i| a[i] + b[i]));
    }

    /// The fields in wire order (the first nine [`CommCounter::ALL`]).
    fn fields(&self) -> [u64; 9] {
        [
            self.bytes_sent,
            self.messages,
            self.collective_rounds,
            self.retransmits,
            self.duplicates_suppressed,
            self.timeouts,
            self.bytes_physical,
            self.messages_physical,
            self.acks,
        ]
    }

    /// Inverse of [`CommStatsSnapshot::fields`].
    fn from_fields(f: [u64; 9]) -> Self {
        let [bytes_sent, messages, collective_rounds, retransmits, duplicates_suppressed, timeouts, bytes_physical, messages_physical, acks] =
            f;
        CommStatsSnapshot {
            bytes_sent,
            messages,
            collective_rounds,
            retransmits,
            duplicates_suppressed,
            timeouts,
            bytes_physical,
            messages_physical,
            acks,
        }
    }

    /// Reads the layout [`CommStatsSnapshot::to_bytes`] writes.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.need(Self::WIRE_BYTES)?;
        let mut f = [0u64; 9];
        for v in &mut f {
            *v = r.u64()?;
        }
        Ok(Self::from_fields(f))
    }

    /// Fixed-layout little-endian serialization (the socket backend's
    /// RESULT frames carry this).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_BYTES);
        for f in self.fields() {
            out.put_u64(f);
        }
        out
    }

    /// Inverse of [`CommStatsSnapshot::to_bytes`], rejecting wrong-sized
    /// payloads with a typed error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let snapshot = Self::decode(&mut r)?;
        r.finish()?;
        Ok(snapshot)
    }
}

/// Wire size charged per ack frame in the physical α-β model: one `u64`
/// sequence number.
pub const ACK_WIRE_BYTES: u64 = 8;
