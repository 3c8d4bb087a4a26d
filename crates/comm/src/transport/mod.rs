//! The pluggable transport seam beneath [`crate::cluster::CommWorld`].
//!
//! Everything above this seam — the epoch/ack/retry reliability protocol,
//! membership, and `CommStats` accounting — is backend-agnostic: it speaks
//! in opaque byte frames (see [`frame`]) and asks the [`Transport`] only to
//! move them. Two backends ship:
//!
//! * [`inproc::InProcTransport`] — the original thread-per-rank simulator:
//!   crossbeam channels, a shared generation barrier, and an atomic
//!   done-counter for the end-of-run drain.
//! * [`socket::SocketTransport`] — ranks as real OS processes over a full
//!   mesh of Unix-domain (or, behind the `tcp` feature, TCP-loopback)
//!   stream sockets, with a parent coordinator process standing in for the
//!   shared barrier/done state.
//!
//! Fault injection is a *decorator* ([`fault::FaultTransport`]) rather than
//! backend logic: the same seed-keyed [`crate::fault::FaultPlan`] drops,
//! duplicates, and delays frames identically over either backend, which is
//! what makes the backend-parameterized conformance suite
//! (`tests/transport_conformance.rs`) able to demand bit-identical results
//! and exactly equal counters from both.
//!
//! # What deliberately stays above the seam
//!
//! Collectives (alltoall / allgather and their converged variants) are
//! *composed* from point-to-point frames by `CommWorld`, not delegated to
//! the backend. A backend-native alltoall would bypass the per-frame fault
//! decorator and the physical-traffic accounting, breaking the "counters
//! are a pure function of the seed" invariant the chaos suites replay on.
//! The trait therefore stays minimal on purpose: frames in, frames out,
//! plus the two pieces of run-global state (barrier, done-set) that need a
//! backend-specific rendezvous.

pub mod fault;
pub mod frame;
pub mod inproc;
pub mod liveness;
pub mod pool;
pub mod socket;

use std::collections::BTreeSet;
use std::time::Duration;

use crate::fault::CommError;

/// What a receive attempt produced.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvOutcome {
    /// A frame from the given source rank.
    Frame(usize, Vec<u8>),
    /// Nothing arrived within the wait budget; the caller's deadline
    /// logic decides whether to keep waiting.
    Idle,
    /// Every peer endpoint is gone; nothing will ever arrive again.
    Closed,
}

/// What crossing a [`Transport::protocol_point`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointOutcome {
    /// Carry on; nothing noteworthy happened at this point.
    Proceed,
    /// This rank is a kill victim that just restarted from its checkpoint
    /// (the socket rejoiner's first gate; the in-process injector's
    /// simulated restart, whose thread state *is* the checkpoint).
    Rejoined,
}

/// A byte-frame mover connecting one rank to its peers.
///
/// Implementations must preserve per-(src, dst) FIFO order for the frames
/// they deliver — the reliability protocol's receiver-side dedup counts on
/// it — but may drop or duplicate frames (that is exactly what
/// [`fault::FaultTransport`] does). Frames are opaque: a transport never
/// inspects payload bytes, only the decorator does.
pub trait Transport: Send {
    /// This endpoint's rank.
    fn rank(&self) -> usize;

    /// Total number of ranks in the cluster (including crashed ones).
    fn size(&self) -> usize;

    /// Queues `frame` for delivery to `to`. Must not block on the
    /// receiver making progress (buffered channels / OS socket buffers).
    fn send_frame(&mut self, to: usize, frame: Vec<u8>) -> Result<(), CommError>;

    /// Waits up to `timeout` for the next frame from any peer.
    fn recv_frame(&mut self, timeout: Duration) -> Result<RecvOutcome, CommError>;

    /// Non-blocking receive: returns [`RecvOutcome::Idle`] immediately if
    /// nothing is queued.
    fn try_recv_frame(&mut self) -> Result<RecvOutcome, CommError>;

    /// Rendezvous of all live ranks. Returns `Ok(false)` if the barrier
    /// did not complete within `timeout` (this rank's arrival must then be
    /// withdrawn so the barrier stays usable).
    fn barrier(&mut self, timeout: Duration) -> Result<bool, CommError>;

    /// Marks this rank's run closure as returned; the end-of-run drain
    /// uses [`Transport::all_done`] to know when straggler retransmissions
    /// can no longer appear.
    fn announce_done(&mut self);

    /// Whether every live rank has announced done.
    fn all_done(&self) -> bool;

    /// Crosses numbered protocol point `idx` — the seeded coordinates at
    /// which the kill-chaos machinery strikes. On the socket backend this
    /// is a real rendezvous with the coordinator (which may SIGKILL this
    /// very process instead of releasing it); on the in-process backend
    /// the [`fault::FaultTransport`] decorator replays the same death as
    /// [`CommError::Killed`]. The default is a free pass for backends (and
    /// workloads) that don't play kill chaos.
    fn protocol_point(&mut self, _idx: u64) -> Result<PointOutcome, CommError> {
        Ok(PointOutcome::Proceed)
    }

    /// Whether deaths scheduled by a fault plan are carried out by the
    /// backend itself (real SIGKILL of a real process) rather than
    /// simulated by the fault decorator.
    fn kills_are_real(&self) -> bool {
        false
    }

    /// Peers this backend has *observed* to be dead — hard socket evidence
    /// (a reader's EOF or read error with no goodbye before it) or an
    /// overdue heartbeat, per the
    /// [`liveness::LivenessBoard`]. Monotone. The membership sweep
    /// ([`crate::cluster::CommWorld::detect_failures`]) unions this with
    /// the fault plan's ground truth, so unplanned deaths are detected
    /// from evidence alone.
    fn confirmed_dead(&self) -> BTreeSet<usize> {
        BTreeSet::new()
    }

    /// Withdraws this rank from the run's rendezvous state (barrier
    /// attendance, done-target) because it died mid-run. Called once, by
    /// the protocol layer, when this rank's own death is simulated; real
    /// processes need no bookkeeping — their exit is the withdrawal.
    fn depart(&mut self) {}
}
