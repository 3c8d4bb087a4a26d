//! Deterministic, seed-driven fault injection for the cluster simulator.
//!
//! A [`FaultPlan`] perturbs every wire crossing in [`crate::cluster`]: data
//! frames can be dropped or duplicated, acks can be dropped, senders can be
//! delayed, and whole ranks can be crashed before the run starts. Every
//! decision is a pure function of `(seed, src, dst, seq, attempt)` through a
//! SplitMix64-style keyed hash — *not* a draw from a sequentially consumed
//! RNG — so the injected fault pattern is identical on every replay of the
//! same seed regardless of how the OS interleaves the rank threads. That is
//! what makes a failing chaos run reproducible from its seed alone.
//!
//! [`RetryPolicy`] bounds the recovery machinery layered on top (retransmit
//! attempts, backoff pacing, and the timeouts that turn would-be deadlocks
//! into typed [`CommError`]s).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Duration;

use lcc_obs::codec::CodecError;

/// Typed failure surfaced by communication calls instead of a hang or panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A blocking wait (recv, ack wait, or barrier) exceeded its timeout.
    Timeout {
        /// The operation that timed out (`"recv_from"`, `"ack"`, `"barrier"`).
        op: &'static str,
        /// The rank that was waiting.
        rank: usize,
        /// The peer it was waiting on (`usize::MAX` for barriers).
        waiting_on: usize,
    },
    /// The peer was crashed by the fault plan before the run started.
    PeerCrashed { rank: usize, peer: usize },
    /// A send exhausted [`RetryPolicy::max_attempts`] without an ack.
    RetriesExhausted {
        rank: usize,
        peer: usize,
        seq: u64,
        attempts: u32,
    },
    /// The peer's endpoint no longer exists (its thread exited or panicked).
    Disbanded { rank: usize, peer: usize },
    /// A received payload could not be decoded (truncated or ragged frame).
    Decode {
        rank: usize,
        peer: usize,
        /// Payload length in bytes.
        len: usize,
        /// Element size the decoder expected (0 when the frame was too
        /// short to carry its fixed-size header).
        elem_size: usize,
    },
    /// A decodable exchange frame named a sub-domain its sender does not
    /// compute under the agreed deployment, or named one twice or out of
    /// ascending order.
    UnexpectedDomain {
        rank: usize,
        peer: usize,
        /// The offending domain id as it came off the wire.
        domain: u64,
    },
    /// A transport backend failed to move bytes: a socket read/write
    /// error, a failed connection or handshake, or a coordinator-protocol
    /// violation. `peer` is `usize::MAX` when the failure does not
    /// implicate a specific rank (e.g. coordinator I/O).
    Transport {
        rank: usize,
        peer: usize,
        /// Human-readable description of the underlying I/O failure.
        detail: String,
    },
    /// This rank was killed by the fault plan at a protocol point (the
    /// in-process replay of a real SIGKILL on the socket backend). The
    /// workload should stop participating exactly as a deserter would;
    /// on the socket backend the process is dead before this value could
    /// ever be observed.
    Killed {
        /// The rank that died.
        rank: usize,
        /// The protocol point (see
        /// [`crate::cluster::CommWorld::protocol_point`]) at which it died.
        point: u64,
    },
    /// A spawned rank process died before reporting a result (socket
    /// backend): the coordinator reaped it without ever seeing its RESULT
    /// frame. Exactly one of `code` / `signal` is populated — a clean
    /// `exit(0)` without a result still lands here as `code: Some(0)`.
    ChildExited {
        /// The dead child's rank.
        rank: usize,
        /// Exit code, when the child exited on its own.
        code: Option<i32>,
        /// Signal number, when the child was killed by a signal.
        signal: Option<i32>,
    },
    /// An epoch-tagged frame arrived from a *newer* membership epoch than
    /// this rank's [`crate::membership::ClusterView`]: the peer has observed
    /// a failure this rank has not yet detected. The caller should run
    /// [`crate::cluster::CommWorld::detect_failures`] and retry the
    /// collective. (Frames from *older* epochs are silently discarded.)
    EpochMismatch {
        rank: usize,
        peer: usize,
        local_epoch: u64,
        remote_epoch: u64,
    },
}

impl CommError {
    /// The [`CommError::Decode`] for a frame from `peer` that `rank` could
    /// not decode: a short or ragged frame's `expected` is the `elem_size`
    /// (comm layouts only ever fail as [`CodecError::Truncated`]).
    pub fn from_codec(rank: usize, peer: usize, e: CodecError) -> CommError {
        let (len, elem_size) = match e {
            CodecError::Truncated { len, expected } => (len, expected),
            _ => (0, 0),
        };
        CommError::Decode {
            rank,
            peer,
            len,
            elem_size,
        }
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout {
                op,
                rank,
                waiting_on,
            } => {
                if *waiting_on == usize::MAX {
                    write!(f, "rank {rank}: {op} timed out")
                } else {
                    write!(
                        f,
                        "rank {rank}: {op} timed out waiting on rank {waiting_on}"
                    )
                }
            }
            CommError::PeerCrashed { rank, peer } => {
                write!(f, "rank {rank}: peer rank {peer} is crashed")
            }
            CommError::RetriesExhausted {
                rank,
                peer,
                seq,
                attempts,
            } => write!(
                f,
                "rank {rank}: send seq {seq} to rank {peer} unacked after {attempts} attempts"
            ),
            CommError::Disbanded { rank, peer } => {
                write!(f, "rank {rank}: rank {peer} hung up (cluster disbanded)")
            }
            CommError::Decode {
                rank,
                peer,
                len,
                elem_size,
            } => write!(
                f,
                "rank {rank}: undecodable {len}-byte frame from rank {peer} \
                 (expected whole {elem_size}-byte elements)"
            ),
            CommError::UnexpectedDomain { rank, peer, domain } => write!(
                f,
                "rank {rank}: frame from rank {peer} names sub-domain {domain}, \
                 which it may not send there"
            ),
            CommError::Transport { rank, peer, detail } => {
                if *peer == usize::MAX {
                    write!(f, "rank {rank}: transport failure: {detail}")
                } else {
                    write!(
                        f,
                        "rank {rank}: transport failure with rank {peer}: {detail}"
                    )
                }
            }
            CommError::Killed { rank, point } => {
                write!(f, "rank {rank}: killed at protocol point {point}")
            }
            CommError::ChildExited { rank, code, signal } => match (code, signal) {
                (_, Some(sig)) => {
                    write!(
                        f,
                        "rank {rank}: child killed by signal {sig} before reporting"
                    )
                }
                (Some(c), None) => {
                    write!(
                        f,
                        "rank {rank}: child exited with code {c} before reporting"
                    )
                }
                (None, None) => write!(f, "rank {rank}: child died before reporting"),
            },
            CommError::EpochMismatch {
                rank,
                peer,
                local_epoch,
                remote_epoch,
            } => write!(
                f,
                "rank {rank}: frame from rank {peer} carries epoch \
                 {remote_epoch} but local view is at epoch {local_epoch}"
            ),
        }
    }
}

impl CommError {
    /// The peer this error implicates, if it names one — the input to
    /// failure suspicion (see
    /// [`crate::cluster::CommWorld::record_failure`]). Barrier timeouts
    /// implicate nobody in particular.
    pub fn implicated_peer(&self) -> Option<usize> {
        match self {
            CommError::Timeout { waiting_on, .. } => {
                (*waiting_on != usize::MAX).then_some(*waiting_on)
            }
            CommError::Transport { peer, .. } => (*peer != usize::MAX).then_some(*peer),
            // A rank's own death implicates nobody else.
            CommError::Killed { .. } => None,
            // The dead child *is* the implicated party.
            CommError::ChildExited { rank, .. } => Some(*rank),
            CommError::PeerCrashed { peer, .. }
            | CommError::RetriesExhausted { peer, .. }
            | CommError::Disbanded { peer, .. }
            | CommError::Decode { peer, .. }
            | CommError::UnexpectedDomain { peer, .. }
            | CommError::EpochMismatch { peer, .. } => Some(*peer),
        }
    }
}

impl std::error::Error for CommError {}

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
const SALT_DROP: u64 = 0x4452_4F50; // "DROP"
const SALT_DUP: u64 = 0x4455_5045; // "DUPE"
const SALT_ACK: u64 = 0x41_434B; // "ACK"
const SALT_DELAY: u64 = 0x444C_4159; // "DLAY"

/// A deterministic fault schedule for one cluster run.
///
/// All probabilities are in `[0, 1]`. The plan is inert
/// (`!self.is_active()`) when every probability is zero, no rank is crashed,
/// and no delay is configured; the inert path is bit-identical to the
/// original fault-free simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed keying every fault decision. Same seed ⇒ same fault pattern.
    pub seed: u64,
    /// Probability that a data-frame transmission attempt is lost.
    pub drop_prob: f64,
    /// Probability that a delivered data frame arrives twice.
    pub duplicate_prob: f64,
    /// Probability that an ack transmission is lost.
    pub ack_drop_prob: f64,
    /// Maximum sender-side delay, in units of [`FaultPlan::delay_unit`],
    /// rolled uniformly per logical send. Perturbs thread interleaving
    /// (exercising the reorder buffers) without changing any outcome.
    pub delay_steps: u32,
    /// Wall-clock length of one delay step.
    pub delay_unit: Duration,
    /// Ranks that never start. Sends/recvs touching them fail fast with
    /// [`CommError::PeerCrashed`].
    pub crashed_ranks: BTreeSet<usize>,
    /// Ranks that start, finish their local compute, then die *during* the
    /// sparse accumulation exchange (they transmit to only part of the
    /// cluster before exiting). Unlike [`FaultPlan::crashed_ranks`], peers
    /// get no fail-fast signal: traffic with a deserter surfaces as
    /// [`CommError::Timeout`] / [`CommError::Disbanded`], and survivors must
    /// *detect* the death and re-converge
    /// (see [`crate::cluster::CommWorld::detect_failures`]).
    pub desert_ranks: BTreeSet<usize>,
    /// Ranks killed *mid-run* at a numbered protocol point (rank →
    /// point). On the socket backend the coordinator SIGKILLs the victim's
    /// real process exactly when it reaches
    /// [`crate::cluster::CommWorld::protocol_point`] with that index; the
    /// in-process backend replays the same death deterministically through
    /// the kill injector in [`crate::transport::fault::FaultTransport`].
    pub kill_points: BTreeMap<usize, u64>,
    /// When `true`, killed ranks come back: the socket coordinator
    /// respawns the victim from its latest `lcc_massif` checkpoint under a
    /// REJOIN handshake, and the in-process injector replays the restart as
    /// a no-op death (the thread's state *is* the checkpoint). When
    /// `false`, victims stay dead and survivors must detect and recover.
    pub kill_restart: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The inert plan: no faults, bit-identical to the fault-free simulator.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            ack_drop_prob: 0.0,
            delay_steps: 0,
            delay_unit: Duration::from_micros(100),
            crashed_ranks: BTreeSet::new(),
            desert_ranks: BTreeSet::new(),
            kill_points: BTreeMap::new(),
            kill_restart: false,
        }
    }

    /// An inert plan keyed by `seed`; combine with the `with_*` builders.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Sets the data-frame drop probability (acks drop at the same rate).
    pub fn with_drop(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "drop_prob must be in [0, 1]");
        self.drop_prob = prob;
        self.ack_drop_prob = prob;
        self
    }

    /// Sets the duplicate-delivery probability.
    pub fn with_duplicates(mut self, prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&prob),
            "duplicate_prob must be in [0, 1]"
        );
        self.duplicate_prob = prob;
        self
    }

    /// Sets the maximum sender-side delay in steps.
    pub fn with_delay(mut self, steps: u32) -> Self {
        self.delay_steps = steps;
        self
    }

    /// Crashes `rank` before the run starts.
    pub fn with_crashed(mut self, rank: usize) -> Self {
        self.crashed_ranks.insert(rank);
        self
    }

    /// Makes `rank` a deserter: it runs its local phase, then dies mid-way
    /// through the accumulation exchange without any fail-fast signal to
    /// its peers.
    pub fn with_deserter(mut self, rank: usize) -> Self {
        self.desert_ranks.insert(rank);
        self
    }

    /// Kills `rank` when it reaches protocol point `point`. Pair with
    /// [`FaultPlan::with_restart`] to have the supervisor respawn it.
    pub fn with_kill(mut self, rank: usize, point: u64) -> Self {
        self.kill_points.insert(rank, point);
        self
    }

    /// Makes killed ranks restart from their latest checkpoint instead of
    /// staying dead.
    pub fn with_restart(mut self) -> Self {
        self.kill_restart = true;
        self
    }

    /// Whether any perturbation is configured. Inert plans skip the
    /// reliability protocol entirely.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.ack_drop_prob > 0.0
            || self.delay_steps > 0
            || !self.crashed_ranks.is_empty()
            || !self.desert_ranks.is_empty()
            || !self.kill_points.is_empty()
    }

    /// The protocol point at which `rank` is killed, if any.
    pub fn kill_point(&self, rank: usize) -> Option<u64> {
        self.kill_points.get(&rank).copied()
    }

    /// Whether `rank` is killed mid-run *and never comes back* — the kills
    /// that a health probe must eventually report as dead. Restarted
    /// victims rejoin before any exchange completes, so they are not
    /// doomed.
    pub fn killed_for_good(&self, rank: usize) -> bool {
        !self.kill_restart && self.kill_points.contains_key(&rank)
    }

    /// Whether `rank` is crashed in this plan.
    pub fn is_crashed(&self, rank: usize) -> bool {
        self.crashed_ranks.contains(&rank)
    }

    /// Whether `rank` dies mid-exchange in this plan. Workloads consult
    /// this for their *own* rank (to act out the death); peers must not —
    /// the whole point is that a desertion is only observable through
    /// failed communication.
    pub fn deserts(&self, rank: usize) -> bool {
        self.desert_ranks.contains(&rank)
    }

    /// Ranks that are dead or doomed under this plan — the ground truth a
    /// health probe converges on (see
    /// [`crate::cluster::CommWorld::detect_failures`]).
    pub fn doomed_ranks(&self, p: usize) -> BTreeSet<usize> {
        self.crashed_ranks
            .iter()
            .chain(self.desert_ranks.iter())
            .chain(
                self.kill_points
                    .keys()
                    .filter(|&&r| self.killed_for_good(r)),
            )
            .copied()
            .filter(|&r| r < p)
            .collect()
    }

    /// Number of ranks (out of `p`) that actually run.
    pub fn live_count(&self, p: usize) -> usize {
        p - self.crashed_ranks.iter().filter(|&&r| r < p).count()
    }

    /// The keyed hash behind every decision: a pure function of the plan
    /// seed and the event coordinates, independent of thread scheduling.
    #[inline]
    fn key(&self, salt: u64, src: usize, dst: usize, seq: u64, attempt: u64) -> u64 {
        let mut x = self.seed ^ mix64(salt.wrapping_mul(GOLDEN));
        x = mix64(x ^ (src as u64).wrapping_mul(GOLDEN));
        x = mix64(x ^ (dst as u64).wrapping_mul(GOLDEN));
        x = mix64(x ^ seq.wrapping_mul(GOLDEN));
        mix64(x ^ attempt.wrapping_mul(GOLDEN))
    }

    /// Converts a hash to a uniform draw in `[0, 1)` and compares it to `p`.
    #[inline]
    fn chance(&self, p: f64, hash: u64) -> bool {
        p > 0.0 && ((hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }

    /// Whether transmission `attempt` of data frame `(src → dst, seq)` is
    /// lost in flight.
    pub fn drops_data(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> bool {
        self.chance(
            self.drop_prob,
            self.key(SALT_DROP, src, dst, seq, attempt as u64),
        )
    }

    /// Whether a delivered `attempt` of `(src → dst, seq)` arrives twice.
    pub fn duplicates_data(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> bool {
        self.chance(
            self.duplicate_prob,
            self.key(SALT_DUP, src, dst, seq, attempt as u64),
        )
    }

    /// Whether the `k`-th ack for data `(src → dst, seq)` is lost on its way
    /// back to `src`. Both endpoints can evaluate this identically, which is
    /// what lets the sender know a lost ack will never arrive instead of
    /// burning a real timeout.
    pub fn drops_ack(&self, src: usize, dst: usize, seq: u64, k: u64) -> bool {
        self.chance(self.ack_drop_prob, self.key(SALT_ACK, src, dst, seq, k))
    }

    /// Sender-side delay (in steps ≤ `delay_steps`) before transmitting
    /// logical send `(src → dst, seq)`.
    pub fn delay_units(&self, src: usize, dst: usize, seq: u64) -> u32 {
        if self.delay_steps == 0 {
            return 0;
        }
        (self.key(SALT_DELAY, src, dst, seq, 0) % (self.delay_steps as u64 + 1)) as u32
    }

    /// Serializes the plan into a single environment-variable-safe string.
    /// Probabilities are encoded as the hex of their IEEE-754 bits, so a
    /// child process reconstructs *bit-identical* plan rolls — anything
    /// lossier would desynchronize the keyed-hash fates across the process
    /// boundary of the socket backend.
    pub fn to_env_string(&self) -> String {
        let ranks = |set: &BTreeSet<usize>| {
            set.iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let kills = self
            .kill_points
            .iter()
            .map(|(r, pt)| format!("{r}:{pt}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "seed={};drop={:016x};dup={:016x};ackdrop={:016x};delay_steps={};delay_unit_ns={};crashed={};desert={};kills={};kill_restart={}",
            self.seed,
            self.drop_prob.to_bits(),
            self.duplicate_prob.to_bits(),
            self.ack_drop_prob.to_bits(),
            self.delay_steps,
            self.delay_unit.as_nanos(),
            ranks(&self.crashed_ranks),
            ranks(&self.desert_ranks),
            kills,
            self.kill_restart as u8,
        )
    }

    /// Inverse of [`FaultPlan::to_env_string`].
    pub fn from_env_string(s: &str) -> Result<FaultPlan, CommError> {
        let mut plan = FaultPlan::none();
        for part in s.split(';').filter(|p| !p.is_empty()) {
            let (key, value) = part.split_once('=').ok_or_else(|| env_err("plan", part))?;
            match key {
                "seed" => plan.seed = parse_dec(value).ok_or_else(|| env_err("plan", part))?,
                "drop" => {
                    plan.drop_prob = parse_f64_bits(value).ok_or_else(|| env_err("plan", part))?
                }
                "dup" => {
                    plan.duplicate_prob =
                        parse_f64_bits(value).ok_or_else(|| env_err("plan", part))?
                }
                "ackdrop" => {
                    plan.ack_drop_prob =
                        parse_f64_bits(value).ok_or_else(|| env_err("plan", part))?
                }
                "delay_steps" => {
                    plan.delay_steps =
                        parse_dec::<u32>(value).ok_or_else(|| env_err("plan", part))?
                }
                "delay_unit_ns" => {
                    let ns: u64 = parse_dec(value).ok_or_else(|| env_err("plan", part))?;
                    plan.delay_unit = Duration::from_nanos(ns);
                }
                "crashed" => {
                    plan.crashed_ranks = parse_ranks(value).ok_or_else(|| env_err("plan", part))?
                }
                "desert" => {
                    plan.desert_ranks = parse_ranks(value).ok_or_else(|| env_err("plan", part))?
                }
                "kills" => {
                    plan.kill_points =
                        parse_kill_points(value).ok_or_else(|| env_err("plan", part))?
                }
                "kill_restart" => {
                    plan.kill_restart = match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(env_err("plan", part)),
                    }
                }
                _ => return Err(env_err("plan", part)),
            }
        }
        Ok(plan)
    }
}

fn env_err(what: &str, part: &str) -> CommError {
    CommError::Transport {
        rank: usize::MAX,
        peer: usize::MAX,
        detail: format!("malformed {what} env entry `{part}`"),
    }
}

fn parse_dec<T: std::str::FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

fn parse_f64_bits(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn parse_ranks(s: &str) -> Option<BTreeSet<usize>> {
    if s.is_empty() {
        return Some(BTreeSet::new());
    }
    s.split(',').map(|r| r.parse().ok()).collect()
}

fn parse_kill_points(s: &str) -> Option<BTreeMap<usize, u64>> {
    if s.is_empty() {
        return Some(BTreeMap::new());
    }
    s.split(',')
        .map(|entry| {
            let (rank, point) = entry.split_once(':')?;
            Some((rank.parse().ok()?, point.parse().ok()?))
        })
        .collect()
}

/// Bounds on the reliability machinery: how hard to retry and how long to
/// wait before declaring a typed failure instead of deadlocking.
///
/// All protocol deadlines (ack, recv, barrier, end-of-run drain) live here
/// rather than as constants in the protocol code; use
/// [`RetryPolicy::scaled_for`] to derive deadlines appropriate for a
/// cluster of `p` ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum transmissions per logical send before
    /// [`CommError::RetriesExhausted`].
    pub max_attempts: u32,
    /// Safety-net wait for an ack the protocol says must arrive. Only
    /// exceeded if the peer misbehaves (e.g., exited without receiving).
    pub ack_timeout: Duration,
    /// Base pause before a retransmission; doubles each retry.
    pub backoff_base: Duration,
    /// Upper bound on the retransmission pause.
    pub backoff_cap: Duration,
    /// Maximum blocking wait inside `recv_from`.
    pub recv_timeout: Duration,
    /// Maximum wait at a barrier.
    pub barrier_timeout: Duration,
    /// Maximum wait in the end-of-run drain that services straggler
    /// retransmissions after a rank's closure returns.
    pub drain_timeout: Duration,
}

/// The configured protocol deadlines and retry bounds — the name the
/// recovery layer uses for [`RetryPolicy`].
pub type RetryConfig = RetryPolicy;

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 16,
            ack_timeout: Duration::from_secs(10),
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(2),
            recv_timeout: Duration::from_secs(30),
            barrier_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(10),
        }
    }
}

impl RetryPolicy {
    /// Deadlines scaled for a `p`-rank cluster: every blocking wait covers
    /// `base · (1 + log₂ p)`, since collectives serialize across more peers
    /// (and more concurrent rank threads share the host) as `p` grows.
    /// Each deadline is the default divided by 4 times that factor, so
    /// `scaled_for(8)` exactly reproduces [`RetryPolicy::default`], smaller
    /// clusters fail faster, and larger ones wait proportionally longer.
    pub fn scaled_for(p: usize) -> Self {
        let d = RetryPolicy::default();
        let f = 1 + p.max(1).next_power_of_two().trailing_zeros();
        let scale = |base: Duration| base / 4 * f;
        RetryPolicy {
            ack_timeout: scale(d.ack_timeout),
            recv_timeout: scale(d.recv_timeout),
            barrier_timeout: scale(d.barrier_timeout),
            drain_timeout: scale(d.drain_timeout),
            ..d
        }
    }
    /// The socket coordinator's patience for one control-protocol phase
    /// (HELLO gather, barrier round, result gather): every child-side
    /// blocking wait is bounded by `recv/barrier/drain` timeouts, so a
    /// phase that outlives three times their sum means a child is dead or
    /// wedged, not slow. Replaces the old hard-coded 180 s constant;
    /// equals 210 s at the default policy and scales with
    /// [`RetryPolicy::scaled_for`].
    pub fn coordinator_deadline(&self) -> Duration {
        (self.recv_timeout + self.barrier_timeout + self.drain_timeout) * 3
    }

    /// How long a peer may stay silent (no data, ack, *or* heartbeat)
    /// before the liveness layer suspects it: comfortably above the
    /// heartbeat period but below `recv_timeout`, so a genuinely dead peer
    /// is demoted before any protocol wait fires.
    pub fn suspicion_timeout(&self) -> Duration {
        self.recv_timeout / 2
    }

    /// Heartbeat transmit period for backends with real silence (an eighth
    /// of the suspicion window, so ~8 beats must vanish before suspicion).
    pub fn heartbeat_period(&self) -> Duration {
        self.suspicion_timeout() / 8
    }

    /// Backoff pause before transmission `attempt` (attempt 0 pays none).
    pub fn backoff(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let scaled = self
            .backoff_base
            .saturating_mul(1u32 << (attempt - 1).min(16));
        scaled.min(self.backoff_cap)
    }

    /// Serializes the policy into an environment-variable-safe string, so
    /// the socket backend's child processes run under exactly the deadlines
    /// the parent configured.
    pub fn to_env_string(&self) -> String {
        format!(
            "max_attempts={};ack_ns={};base_ns={};cap_ns={};recv_ns={};barrier_ns={};drain_ns={}",
            self.max_attempts,
            self.ack_timeout.as_nanos(),
            self.backoff_base.as_nanos(),
            self.backoff_cap.as_nanos(),
            self.recv_timeout.as_nanos(),
            self.barrier_timeout.as_nanos(),
            self.drain_timeout.as_nanos(),
        )
    }

    /// Inverse of [`RetryPolicy::to_env_string`].
    pub fn from_env_string(s: &str) -> Result<RetryPolicy, CommError> {
        let mut policy = RetryPolicy::default();
        for part in s.split(';').filter(|p| !p.is_empty()) {
            let (key, value) = part.split_once('=').ok_or_else(|| env_err("retry", part))?;
            let ns = || -> Result<Duration, CommError> {
                let n: u64 = value.parse().map_err(|_| env_err("retry", part))?;
                Ok(Duration::from_nanos(n))
            };
            match key {
                "max_attempts" => {
                    policy.max_attempts = value.parse().map_err(|_| env_err("retry", part))?
                }
                "ack_ns" => policy.ack_timeout = ns()?,
                "base_ns" => policy.backoff_base = ns()?,
                "cap_ns" => policy.backoff_cap = ns()?,
                "recv_ns" => policy.recv_timeout = ns()?,
                "barrier_ns" => policy.barrier_timeout = ns()?,
                "drain_ns" => policy.drain_timeout = ns()?,
                _ => return Err(env_err("retry", part)),
            }
        }
        Ok(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_and_keyed() {
        let a = FaultPlan::new(42).with_drop(0.5);
        let b = FaultPlan::new(42).with_drop(0.5);
        for seq in 0..64u64 {
            assert_eq!(a.drops_data(0, 1, seq, 0), b.drops_data(0, 1, seq, 0));
            assert_eq!(a.drops_ack(0, 1, seq, 0), b.drops_ack(0, 1, seq, 0));
        }
        // A different seed must produce a different pattern somewhere.
        let c = FaultPlan::new(43).with_drop(0.5);
        assert!((0..64u64).any(|s| a.drops_data(0, 1, s, 0) != c.drops_data(0, 1, s, 0)));
        // Coordinates matter: direction is part of the key.
        assert!((0..64u64).any(|s| a.drops_data(0, 1, s, 0) != a.drops_data(1, 0, s, 0)));
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let plan = FaultPlan::new(7).with_drop(0.25);
        let n = 10_000u64;
        let dropped = (0..n).filter(|&s| plan.drops_data(2, 5, s, 0)).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn inert_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        for seq in 0..256u64 {
            assert!(!plan.drops_data(0, 1, seq, 0));
            assert!(!plan.duplicates_data(0, 1, seq, 0));
            assert!(!plan.drops_ack(0, 1, seq, 0));
            assert_eq!(plan.delay_units(0, 1, seq), 0);
        }
    }

    #[test]
    fn crash_bookkeeping() {
        let plan = FaultPlan::new(1).with_crashed(2).with_crashed(5);
        assert!(plan.is_active());
        assert!(plan.is_crashed(2) && plan.is_crashed(5) && !plan.is_crashed(0));
        assert_eq!(plan.live_count(4), 3); // rank 5 is outside p=4
        assert_eq!(plan.live_count(8), 6);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff(0), Duration::ZERO);
        assert!(policy.backoff(1) <= policy.backoff(2));
        assert!(policy.backoff(12) <= policy.backoff_cap);
    }

    #[test]
    fn deserters_are_active_and_doomed_but_not_crashed() {
        let plan = FaultPlan::new(4).with_deserter(1).with_crashed(3);
        assert!(plan.is_active());
        assert!(plan.deserts(1) && !plan.deserts(3));
        assert!(plan.is_crashed(3) && !plan.is_crashed(1));
        // Deserters still start, so they count as live…
        assert_eq!(plan.live_count(4), 3);
        // …but a health probe reports both as doomed.
        let doomed: Vec<usize> = plan.doomed_ranks(4).into_iter().collect();
        assert_eq!(doomed, vec![1, 3]);
        // Out-of-range ranks are excluded from the probe.
        assert_eq!(plan.doomed_ranks(1).len(), 0);
    }

    #[test]
    fn kill_plan_bookkeeping_and_codec() {
        let plan = FaultPlan::new(9).with_kill(2, 3).with_kill(0, 1);
        assert!(plan.is_active());
        assert_eq!(plan.kill_point(2), Some(3));
        assert_eq!(plan.kill_point(1), None);
        assert!(plan.killed_for_good(2));
        // Without restart, kill victims are doomed; deserters still are.
        let doomed: Vec<usize> = plan.doomed_ranks(4).into_iter().collect();
        assert_eq!(doomed, vec![0, 2]);
        // With restart, victims rejoin before the exchange: not doomed.
        let plan = plan.with_restart();
        assert!(!plan.killed_for_good(2));
        assert!(plan.doomed_ranks(4).is_empty());
        // The env codec must round-trip the kill schedule bit-exactly.
        let back = FaultPlan::from_env_string(&plan.to_env_string()).unwrap();
        assert_eq!(back, plan);
        let inert = FaultPlan::from_env_string(&FaultPlan::none().to_env_string()).unwrap();
        assert_eq!(inert, FaultPlan::none());
        assert!(FaultPlan::from_env_string("kills=1:").is_err());
        assert!(FaultPlan::from_env_string("kill_restart=2").is_err());
    }

    #[test]
    fn coordinator_deadline_and_liveness_windows() {
        let d = RetryPolicy::default();
        // No lower than the 180 s constant it replaces.
        assert!(d.coordinator_deadline() >= Duration::from_secs(180));
        assert!(d.suspicion_timeout() < d.recv_timeout);
        assert!(d.heartbeat_period() * 4 < d.suspicion_timeout());
        // Windows scale with the cluster like every other deadline.
        assert!(
            RetryPolicy::scaled_for(64).suspicion_timeout()
                > RetryPolicy::scaled_for(2).suspicion_timeout()
        );
        let e = CommError::Killed { rank: 3, point: 2 };
        assert_eq!(e.implicated_peer(), None);
        assert!(e.to_string().contains("point 2"));
    }

    #[test]
    fn scaled_deadlines_grow_with_cluster_size() {
        let small = RetryConfig::scaled_for(2);
        let med = RetryConfig::scaled_for(8);
        let big = RetryConfig::scaled_for(64);
        assert!(small.recv_timeout < med.recv_timeout);
        assert!(med.recv_timeout < big.recv_timeout);
        assert!(small.barrier_timeout < big.barrier_timeout);
        // p = 8 reproduces the defaults exactly.
        assert_eq!(med, RetryPolicy::default());
        assert_eq!(big.ack_timeout, RetryPolicy::default().ack_timeout / 4 * 7);
    }

    #[test]
    fn implicated_peer_extraction() {
        let e = CommError::Timeout {
            op: "recv_from",
            rank: 0,
            waiting_on: 3,
        };
        assert_eq!(e.implicated_peer(), Some(3));
        let e = CommError::Timeout {
            op: "barrier",
            rank: 0,
            waiting_on: usize::MAX,
        };
        assert_eq!(e.implicated_peer(), None);
        let e = CommError::EpochMismatch {
            rank: 1,
            peer: 2,
            local_epoch: 0,
            remote_epoch: 1,
        };
        assert_eq!(e.implicated_peer(), Some(2));
        assert!(e.to_string().contains("epoch 1"));
        let e = CommError::Decode {
            rank: 1,
            peer: 0,
            len: 9,
            elem_size: 8,
        };
        assert_eq!(e.implicated_peer(), Some(0));
        assert!(e.to_string().contains("9-byte"));
    }

    #[test]
    fn errors_display_meaningfully() {
        let e = CommError::Timeout {
            op: "recv_from",
            rank: 1,
            waiting_on: 3,
        };
        assert!(e.to_string().contains("recv_from"));
        let e = CommError::RetriesExhausted {
            rank: 0,
            peer: 2,
            seq: 9,
            attempts: 16,
        };
        assert!(e.to_string().contains("16 attempts"));
    }
}
