//! A functional message-passing cluster simulator.
//!
//! P workers run as OS threads connected by crossbeam channels, exposing the
//! MPI-flavoured collectives the paper's pipelines need (all-to-all,
//! allgather, barrier). Every byte that crosses a channel is counted, so
//! experiments can report *measured* communication volumes and round counts
//! next to the analytic Eq. 1 / Eq. 6 estimates.
//!
//! # Fault injection and reliability
//!
//! Runs started with [`run_cluster_with_faults`] thread a [`FaultPlan`]
//! through every wire crossing. When the plan is active, point-to-point
//! sends switch to a sequenced, acknowledged protocol: each logical message
//! carries a per-(src, dst) sequence number, the receiver acks every
//! delivered frame and suppresses retransmitted duplicates, and the sender
//! retries dropped frames up to [`RetryPolicy::max_attempts`] times with
//! exponential backoff. Because every drop/duplicate decision is a pure
//! keyed hash of `(seed, src, dst, seq, attempt)` — see [`crate::fault`] —
//! both endpoints can *compute* the fate of each transmission instead of
//! discovering it by waiting. The sender therefore never burns a real
//! timeout on a frame it knows was lost; blocking waits remain only for
//! events guaranteed to happen, with generous safety timeouts surfacing
//! [`CommError`] instead of deadlocking. The upshot: retransmit, duplicate
//! and timeout counters are exact functions of the fault seed, so any chaos
//! run can be replayed bit-for-bit.
//!
//! When the plan is inert ([`FaultPlan::is_active`] is false — the
//! [`run_cluster`] path) none of the protocol engages and the simulator
//! behaves exactly like the original fire-and-forget implementation.
//!
//! Counter semantics: every counted event is one [`CommStats::add`] into
//! the run's table (see [`crate::stats`]), which also feeds the obs
//! counter with the same meaning — one count, never a second copy to keep
//! in step. `BytesSent` / `Messages` count each *logical* send once, never
//! its retransmissions or acks, so communication-volume experiments read
//! the same with faults on or off. The parallel `BytesPhysical` /
//! `MessagesPhysical` / `Acks` counters record every frame that actually
//! hits the wire — retransmissions, duplicates, frames lost in flight, and
//! acknowledgements — so chaos runs can report the real wire cost next to
//! the logical volume (see [`CommStats::modeled_time_physical`]).
//!
//! # Membership
//!
//! Each endpoint carries an epoch-stamped [`ClusterView`] of which ranks it
//! believes alive. Typed failures feed suspicion via
//! [`CommWorld::record_failure`]; a [`CommWorld::detect_failures`] sweep
//! confirms suspicions against the fault plan (the simulator's stand-in for
//! an out-of-band health probe), so every survivor of a given seed converges
//! on the same sequence of views. The self-healing collectives
//! ([`CommWorld::alltoall_converged`] and its allgather form) stamp every
//! frame with the sender's epoch, discard stale frames from aborted
//! pre-failure attempts, and re-run the exchange until all survivors
//! complete it under a common view.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lcc_obs::codec::{CodecError, Reader, Writer};

use crate::actor::{
    self, ActorState, ConvergedState, Convergence, DataDisposition, EpochDisposition,
};
use crate::fault::{CommError, FaultPlan, RetryPolicy};
use crate::membership::ClusterView;
use crate::stats::{CommCounter, CommStats};
use crate::transport::fault::FaultTransport;
use crate::transport::frame::{self, WireFrame};
use crate::transport::{inproc, PointOutcome, RecvOutcome, Transport};

/// One rank's endpoint into the cluster.
///
/// The protocol, membership, and accounting layers live here; the bytes
/// themselves move through a pluggable [`Transport`] (in-process channels,
/// real sockets, or either wrapped in a fault-injecting decorator — see
/// [`crate::transport`]).
pub struct CommWorld {
    rank: usize,
    size: usize,
    transport: Box<dyn Transport>,
    /// Per-peer reorder buffers: messages that arrived ahead of the peer we
    /// are currently waiting on.
    inbox: Vec<VecDeque<Vec<u8>>>,
    stats: Arc<CommStats>,
    plan: Arc<FaultPlan>,
    retry: RetryPolicy,
    /// The pure protocol kernel: sequence spaces, receiver-side dedup,
    /// the epoch-stamped membership view, suspicion, and the killed flag
    /// all live in [`crate::actor`], shared verbatim with the `lcc-check`
    /// model checker. `CommWorld` owns only the wire work around it.
    actor: ActorState,
}

impl CommWorld {
    /// Builds an endpoint over an arbitrary transport. This is how the
    /// backend-parameterized conformance harness (and the socket backend's
    /// child processes) assemble a rank; [`run_cluster`] /
    /// [`run_cluster_with_faults`] do the same over an in-process fabric.
    ///
    /// When `plan` is active, `transport` must already be wrapped in a
    /// [`FaultTransport`] carrying the same plan: the protocol *computes*
    /// each frame's fate from the plan and counts accordingly, and the
    /// decorator is what makes the wire agree with the computation.
    pub fn over(
        transport: Box<dyn Transport>,
        plan: Arc<FaultPlan>,
        retry: RetryPolicy,
        stats: Arc<CommStats>,
    ) -> CommWorld {
        let rank = transport.rank();
        let size = transport.size();
        CommWorld {
            rank,
            size,
            transport,
            inbox: (0..size).map(|_| VecDeque::new()).collect(),
            stats,
            plan,
            retry,
            actor: ActorState::new(rank, size),
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The run's counter table.
    pub fn stats(&self) -> &Arc<CommStats> {
        &self.stats
    }

    /// The fault plan governing this run (inert under [`run_cluster`]).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Sends `payload` to `to` (point-to-point, FIFO per sender-receiver
    /// pair). Under an active fault plan this blocks until the message is
    /// acknowledged, retrying dropped frames per the [`RetryPolicy`].
    pub fn send(&mut self, to: usize, payload: Vec<u8>) -> Result<(), CommError> {
        assert!(to < self.size, "invalid destination rank {to}");
        if to == self.rank {
            // Local delivery never touches the wire (or the fault plan).
            self.inbox[to].push_back(payload);
            return Ok(());
        }
        if self.plan.is_crashed(to) {
            return Err(CommError::PeerCrashed {
                rank: self.rank,
                peer: to,
            });
        }
        // Logical traffic: counted once here, never per retransmission.
        self.stats.add(CommCounter::BytesSent, payload.len() as u64);
        self.stats.add(CommCounter::Messages, 1);
        let seq = self.actor.alloc_seq(to);
        if !self.plan.is_active() {
            self.count_physical(payload.len());
            let framed = frame::encode_data(seq, 0, &payload);
            return self.transport.send_frame(to, framed);
        }
        self.send_reliable(to, seq, payload)
    }

    /// Records one data frame hitting the wire.
    fn count_physical(&self, bytes: usize) {
        self.stats.add(CommCounter::BytesPhysical, bytes as u64);
        self.stats.add(CommCounter::MessagesPhysical, 1);
    }

    /// The sequenced/acked path. The fate of every transmission is a keyed
    /// hash both endpoints can evaluate, so the protocol outcome (attempt
    /// count, timeouts, which ack finally survives) is decided up front;
    /// the frames are then transmitted and the one blocking wait is for an
    /// ack that is guaranteed to arrive.
    fn send_reliable(&mut self, to: usize, seq: u64, payload: Vec<u8>) -> Result<(), CommError> {
        let plan = Arc::clone(&self.plan);
        let sp = actor::plan_send(&plan, &self.retry, self.rank, to, seq);

        // Each attempt is handed to the transport exactly once, carrying
        // its attempt index in the frame header; the fault decorator
        // re-evaluates the same keyed rolls to drop or duplicate it (and
        // applies the sender-side delay before attempt 0). The physical
        // accounting here mirrors those decisions: a dropped frame still
        // left the sender's NIC (one copy), a duplicated one cost two.
        for a in 0..sp.attempts {
            if a > 0 {
                std::thread::sleep(self.retry.backoff(a));
            }
            let copies = actor::attempt_copies(&plan, self.rank, to, seq, a);
            for _ in 0..copies {
                self.count_physical(payload.len());
            }
            self.transport
                .send_frame(to, frame::encode_data(seq, a, &payload))?;
        }
        self.stats.add(CommCounter::Retransmits, sp.retransmits);
        self.stats.add(CommCounter::Timeouts, sp.timeouts);
        if !sp.acked {
            return Err(CommError::RetriesExhausted {
                rank: self.rank,
                peer: to,
                seq,
                attempts: sp.attempts,
            });
        }
        self.wait_for_ack(to, seq)
    }

    /// Blocks until the ack for `(to, seq)` arrives, servicing any data
    /// frames encountered meanwhile so two mutually-sending ranks cannot
    /// deadlock on each other's acks.
    fn wait_for_ack(&mut self, to: usize, seq: u64) -> Result<(), CommError> {
        let deadline = Instant::now() + self.retry.ack_timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                self.stats.add(CommCounter::Timeouts, 1);
                return Err(CommError::Timeout {
                    op: "ack",
                    rank: self.rank,
                    waiting_on: to,
                });
            }
            match self.transport.recv_frame(remaining)? {
                RecvOutcome::Frame(src, bytes) => {
                    match frame::decode_for(self.rank, src, bytes)? {
                        WireFrame::Ack { seq: s, .. } => {
                            if src == to && s == seq {
                                return Ok(());
                            }
                            // Stale ack from an already-completed exchange.
                        }
                        WireFrame::Data {
                            seq: s, payload, ..
                        } => self.handle_data(src, s, payload),
                        // Heartbeats are consumed inside socket reader
                        // threads; one reaching the protocol layer (the
                        // in-process backend has no such filter) is simply
                        // fresh evidence of life, which membership already
                        // gets from the frame itself.
                        WireFrame::Heartbeat { .. } => {}
                    }
                }
                RecvOutcome::Idle => continue,
                RecvOutcome::Closed => {
                    return Err(CommError::Disbanded {
                        rank: self.rank,
                        peer: to,
                    })
                }
            }
        }
    }

    /// Receiver-side protocol: accept new frames in order, ack every
    /// delivered frame (subject to ack drops), and suppress duplicates.
    fn handle_data(&mut self, src: usize, seq: u64, payload: Vec<u8>) {
        if !self.plan.is_active() {
            self.inbox[src].push_back(payload);
            return;
        }
        match self.actor.on_data(src, seq) {
            DataDisposition::Duplicate { ack_k } => {
                // A retransmission of something already delivered.
                self.stats.add(CommCounter::DuplicatesSuppressed, 1);
                self.send_ack(src, seq, ack_k);
            }
            DataDisposition::Deliver { ack_k } => {
                self.send_ack(src, seq, ack_k);
                self.inbox[src].push_back(payload);
            }
        }
    }

    /// Acks delivered frame number `k` of `(src → self, seq)`, as decided
    /// by [`ActorState::on_data`]. The frame carries its ack index, so the
    /// fault decorator can evaluate the same keyed ack-drop roll the
    /// sender evaluated — the sender already knows which ack (if any)
    /// will survive.
    fn send_ack(&mut self, src: usize, seq: u64, k: u64) {
        // The ack is transmitted before the decorator may lose it:
        // physical cost either way.
        self.stats.add(CommCounter::Acks, 1);
        // Best effort: the peer may already have finished its run.
        let _ = self.transport.send_frame(src, frame::encode_ack(seq, k));
    }

    fn handle_frame(&mut self, src: usize, frame: WireFrame) {
        match frame {
            WireFrame::Data { seq, payload, .. } => self.handle_data(src, seq, payload),
            WireFrame::Ack { .. } => {} // stale: nobody is waiting on it anymore
            WireFrame::Heartbeat { .. } => {} // liveness noise, not protocol
        }
    }

    /// Receives the next in-order message from `from`, buffering messages
    /// from other peers encountered while waiting. Fails with a typed error
    /// after [`RetryPolicy::recv_timeout`] instead of hanging.
    pub fn recv_from(&mut self, from: usize) -> Result<Vec<u8>, CommError> {
        assert!(from < self.size, "invalid source rank {from}");
        if self.plan.is_crashed(from) {
            return Err(CommError::PeerCrashed {
                rank: self.rank,
                peer: from,
            });
        }
        let deadline = Instant::now() + self.retry.recv_timeout;
        loop {
            if let Some(m) = self.inbox[from].pop_front() {
                return Ok(m);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(CommError::Timeout {
                    op: "recv_from",
                    rank: self.rank,
                    waiting_on: from,
                });
            }
            match self.transport.recv_frame(remaining)? {
                RecvOutcome::Frame(src, bytes) => {
                    let frame = frame::decode_for(self.rank, src, bytes)?;
                    self.handle_frame(src, frame);
                }
                RecvOutcome::Idle => continue,
                RecvOutcome::Closed => {
                    return Err(CommError::Disbanded {
                        rank: self.rank,
                        peer: from,
                    })
                }
            }
        }
    }

    /// Synchronizes all live ranks, failing with a typed error after
    /// [`RetryPolicy::barrier_timeout`].
    pub fn barrier(&mut self) -> Result<(), CommError> {
        if self.transport.barrier(self.retry.barrier_timeout)? {
            Ok(())
        } else {
            Err(CommError::Timeout {
                op: "barrier",
                rank: self.rank,
                waiting_on: usize::MAX,
            })
        }
    }

    /// Bumps the collective-round counter exactly once per collective: on
    /// the lowest rank the fault plan lets finish the run (deserters leave
    /// mid-run, so they cannot be the counting rank).
    fn count_round(&self) {
        let lowest_live = (0..self.size)
            .find(|&r| {
                !self.plan.is_crashed(r) && !self.plan.deserts(r) && !self.plan.killed_for_good(r)
            })
            .unwrap_or(0);
        if self.rank == lowest_live {
            self.stats.add(CommCounter::CollectiveRounds, 1);
        }
    }

    /// All-to-all personalized exchange: `outgoing[i]` goes to rank `i`;
    /// returns `incoming[i]` from each rank `i` (including this rank's own
    /// self-message, delivered without touching the network counters).
    /// Fails with [`CommError::PeerCrashed`] if any peer is crashed — use
    /// [`CommWorld::alltoall_surviving`] to degrade instead.
    pub fn alltoall(&mut self, outgoing: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, CommError> {
        assert_eq!(outgoing.len(), self.size, "need one payload per rank");
        self.count_round();
        for (to, payload) in outgoing.into_iter().enumerate() {
            self.send(to, payload)?;
        }
        (0..self.size).map(|from| self.recv_from(from)).collect()
    }

    /// Allgather: every rank contributes `payload`, every rank receives all
    /// contributions indexed by rank.
    pub fn allgather(&mut self, payload: Vec<u8>) -> Result<Vec<Vec<u8>>, CommError> {
        let outgoing = vec![payload; self.size];
        self.alltoall(outgoing)
    }

    /// All-to-all across the surviving ranks: payloads addressed to crashed
    /// peers are discarded and their slots come back as `None`, letting the
    /// caller degrade gracefully instead of failing.
    pub fn alltoall_surviving(
        &mut self,
        outgoing: Vec<Vec<u8>>,
    ) -> Result<Vec<Option<Vec<u8>>>, CommError> {
        assert_eq!(outgoing.len(), self.size, "need one payload per rank");
        self.count_round();
        for (to, payload) in outgoing.into_iter().enumerate() {
            if !self.plan.is_crashed(to) {
                self.send(to, payload)?;
            }
        }
        (0..self.size)
            .map(|from| {
                if self.plan.is_crashed(from) {
                    Ok(None)
                } else {
                    self.recv_from(from).map(Some)
                }
            })
            .collect()
    }

    /// Allgather across the surviving ranks; crashed ranks' slots are
    /// `None`.
    pub fn allgather_surviving(
        &mut self,
        payload: Vec<u8>,
    ) -> Result<Vec<Option<Vec<u8>>>, CommError> {
        let outgoing = vec![payload; self.size];
        self.alltoall_surviving(outgoing)
    }

    // ---- membership & epoch-tagged collectives ----

    /// This rank's current membership belief.
    pub fn current_view(&self) -> &ClusterView {
        self.actor.view()
    }

    /// Feeds a typed failure into the suspicion set. Suspicion only
    /// accelerates [`CommWorld::detect_failures`]; it never changes the
    /// view by itself, so a transient drop cannot evict a healthy peer.
    pub fn record_failure(&mut self, err: &CommError) {
        if let Some(peer) = err.implicated_peer() {
            self.actor.record_suspect(peer);
        }
    }

    /// Peers currently under suspicion (ascending), for diagnostics.
    pub fn suspected_ranks(&self) -> impl Iterator<Item = usize> + '_ {
        self.actor.suspected_ranks()
    }

    /// Detection sweep: unions the fault plan's ground truth (the
    /// simulator's stand-in for an out-of-band health probe) with the
    /// transport's *observed* evidence — hard socket failures and overdue
    /// heartbeats from the [`crate::transport::liveness::LivenessBoard`] —
    /// and bumps the view epoch iff membership changed. Returns whether it
    /// did.
    ///
    /// Planned deaths appear in both sources, so every survivor of a given
    /// seed converges on the same sequence of views and epochs on every
    /// backend regardless of thread interleaving; *unplanned* deaths (a
    /// child that aborts with no plan entry) are covered by the evidence
    /// term alone. The union is re-anchored on the current view's dead set
    /// so a rescinded pure-silence suspicion can never resurrect a rank.
    /// Suspicions are cleared: each was either confirmed or exonerated as
    /// transient loss.
    pub fn detect_failures(&mut self) -> bool {
        let planned = self.plan.doomed_ranks(self.size);
        let observed = self.transport.confirmed_dead();
        let out = self.actor.sweep(planned, observed);
        if out.changed {
            self.stats.add(CommCounter::DeathsDetected, out.newly_dead);
            self.stats.note_first_detection();
            // Spans this rank records from here on carry the new epoch.
            lcc_obs::set_epoch(out.epoch);
        }
        out.changed
    }

    /// Crosses seeded protocol point `idx` — the coordinates at which the
    /// kill-chaos machinery strikes. Workloads place these between
    /// checkpointed phases; on a backend with real kills the call is a
    /// coordinator rendezvous that may never return (SIGKILL), while the
    /// in-process injector replays the same death as
    /// [`CommError::Killed`]. A workload receiving `Killed` must stop
    /// participating, exactly like a deserter (return no result; peers
    /// detect and recover).
    pub fn protocol_point(&mut self, idx: u64) -> Result<(), CommError> {
        match self.transport.protocol_point(idx) {
            Ok(PointOutcome::Proceed) => Ok(()),
            Ok(PointOutcome::Rejoined) => {
                self.stats.add(CommCounter::Rejoins, 1);
                Ok(())
            }
            Err(e) => {
                if matches!(e, CommError::Killed { .. }) {
                    self.actor.on_killed();
                    self.transport.depart();
                }
                Err(e)
            }
        }
    }

    /// Sends `payload` framed with this rank's current view epoch. Used by
    /// the epoch collectives and by chaos workloads that emit partial
    /// exchanges before deserting.
    pub fn send_epoch(&mut self, to: usize, payload: &[u8]) -> Result<(), CommError> {
        let framed = frame::encode_epoch(self.actor.view().epoch(), payload);
        self.send(to, framed)
    }

    /// Receives the next frame from `from` that carries the current view
    /// epoch, silently discarding stale frames left over from exchange
    /// attempts aborted by a failure. A frame from a *newer* epoch is a
    /// protocol error ([`CommError::EpochMismatch`]): this rank missed a
    /// detection sweep.
    fn recv_epoch_from(&mut self, from: usize) -> Result<Vec<u8>, CommError> {
        loop {
            let frame = self.recv_from(from)?;
            let (remote, payload) = frame::decode_epoch(&frame)
                .map_err(|e| CommError::from_codec(self.rank, from, e))?;
            match self.actor.classify_epoch(remote) {
                // Stale: from an attempt aborted pre-detection.
                EpochDisposition::Stale => continue,
                EpochDisposition::Ahead => {
                    let err = CommError::EpochMismatch {
                        rank: self.rank,
                        peer: from,
                        local_epoch: self.actor.view().epoch(),
                        remote_epoch: remote,
                    };
                    // Not ours to consume yet: once this rank's own
                    // detection sweep catches up, the retried exchange
                    // will claim it.
                    self.inbox[from].push_front(frame);
                    return Err(err);
                }
                EpochDisposition::Current => return Ok(payload.to_vec()),
            }
        }
    }

    /// Self-healing all-to-all: attempts the exchange, runs a detection
    /// sweep, and re-runs under the new view until an attempt completes
    /// with no membership change — at which point *every* survivor has
    /// completed the exchange under the same epoch, even survivors whose
    /// own first attempt happened to succeed before the failure surfaced.
    ///
    /// `make_outgoing` is called once per *epoch* with the view the attempt
    /// will run under, letting the caller fold recovered work for newly
    /// dead ranks into the re-sent payloads. Slots of dead ranks are `None`
    /// in the result, which is tagged with the epoch it completed under.
    ///
    /// Within one epoch the exchange is resumable: a transient failure
    /// (e.g. a marginal timeout) retries only the sends that were never
    /// acknowledged and the slots never received, so no peer ever sees a
    /// duplicate frame for the same epoch and later exchanges at that
    /// epoch cannot mispair. Errors only if retries at a stable view stay
    /// fruitless `size` times in a row — genuine protocol failure, not a
    /// death.
    pub fn alltoall_converged(
        &mut self,
        mut make_outgoing: impl FnMut(&ClusterView) -> Vec<Vec<u8>>,
    ) -> Result<ConvergedExchange, CommError> {
        'epoch: loop {
            let outgoing = make_outgoing(self.actor.view());
            assert_eq!(outgoing.len(), self.size, "need one payload per rank");
            // A view change starts a fresh state (resetting the fruitless
            // counter with it); within the epoch the exchange is resumable.
            let mut ex = ConvergedState::begin(self.actor.view());
            let mut slots: Vec<Option<Vec<u8>>> = vec![None; self.size];
            loop {
                self.count_round();
                for (to, payload) in outgoing.iter().enumerate() {
                    if ex.sent[to] || !self.actor.view().is_alive(to) {
                        continue;
                    }
                    // Best-effort: an acked send is delivered exactly once
                    // (receiver-side dedup), so it is never repeated; a
                    // failed send marks the peer suspect and is retried
                    // only if the view holds steady.
                    match self.send_epoch(to, payload) {
                        Ok(()) => ex.mark_sent(to),
                        Err(e) => self.record_failure(&e),
                    }
                }
                let mut failure = None;
                for (from, slot) in slots.iter_mut().enumerate() {
                    if ex.received[from] || !self.actor.view().is_alive(from) {
                        continue;
                    }
                    match self.recv_epoch_from(from) {
                        Ok(p) => {
                            *slot = Some(p);
                            ex.mark_received(from);
                        }
                        Err(e) => {
                            self.record_failure(&e);
                            failure = Some(e);
                            break;
                        }
                    }
                }
                if self.detect_failures() {
                    // The view advanced: this epoch's exchange (complete or
                    // not) ran under stale membership. Redo it from scratch
                    // at the new epoch so all survivors complete under a
                    // common view; peers discard the stale frames.
                    continue 'epoch;
                }
                match failure {
                    None => {
                        // All receives landed, but a peer can be live yet
                        // unsent: its send failed transiently and nothing
                        // since forced a retry. Returning now would starve
                        // that peer (it still waits on our frame), so the
                        // exchange only converges once every live slot was
                        // both sent and received.
                        match ex.convergence(self.actor.view()) {
                            Convergence::Converged => return Ok((slots, ex.epoch)),
                            Convergence::Starved(starved) => {
                                if ex.note_fruitless() >= self.size {
                                    return Err(CommError::Timeout {
                                        op: "converged_send",
                                        rank: self.rank,
                                        waiting_on: starved,
                                    });
                                }
                            }
                        }
                    }
                    Some(e) => {
                        if ex.note_fruitless() >= self.size {
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    /// Self-healing allgather; see [`CommWorld::alltoall_converged`].
    pub fn allgather_converged(
        &mut self,
        mut make_payload: impl FnMut(&ClusterView) -> Vec<u8>,
    ) -> Result<ConvergedExchange, CommError> {
        let size = self.size;
        self.alltoall_converged(|view| vec![make_payload(view); size])
    }
}

/// What a converged collective returns: one payload slot per rank (`None`
/// for dead ranks) plus the membership epoch the exchange completed under.
pub type ConvergedExchange = (Vec<Option<Vec<u8>>>, u64);

impl Drop for CommWorld {
    /// End-of-run drain. Retransmitted duplicates can still be in flight
    /// when a rank's closure returns; servicing them here (a) releases any
    /// peer still blocked on an ack and (b) makes `duplicates_suppressed`
    /// count *every* delivered redundant frame, keeping the counter an
    /// exact function of the fault seed rather than of thread timing.
    ///
    /// The drain runs even with an inactive fault plan: on the socket
    /// backend, dropping the world closes real sockets, and an early EOF
    /// is indistinguishable from death to a peer still mid-exchange —
    /// every rank must hold its mesh open until `ALL_DONE` so normal
    /// completion never masquerades as failure.
    fn drop(&mut self) {
        if !self.actor.drain_gate(self.plan.is_crashed(self.rank)) {
            // A crashed or killed rank already departed the rendezvous and
            // must act dead: announcing done or acking stragglers here
            // would be traffic from beyond the grave.
            return;
        }
        self.transport.announce_done();
        let deadline = Instant::now() + self.retry.drain_timeout;
        loop {
            let all_done = self.transport.all_done();
            match self.transport.try_recv_frame() {
                Ok(RecvOutcome::Frame(src, bytes)) => {
                    // An undecodable straggler is dropped, not serviced:
                    // nobody is waiting on it and the run is over.
                    if let Ok(frame) = frame::decode_owned(bytes) {
                        self.handle_frame(src, frame);
                    }
                }
                Ok(RecvOutcome::Idle) => {
                    if all_done || Instant::now() >= deadline {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                Ok(RecvOutcome::Closed) | Err(_) => break,
            }
        }
    }
}

/// Gate ensuring one simulated cluster runs at a time per process.
///
/// Rank closures routinely mix blocking channel receives with rayon
/// data-parallel regions; two clusters interleaving on a small shared
/// rayon pool can starve each other (observed as a deadlock on single-core
/// hosts when the test harness runs cluster tests concurrently).
/// Serializing whole cluster runs removes the interaction without
/// constraining anything the simulator is for.
static CLUSTER_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` on `p` ranks, each on its own thread, returning the per-rank
/// results (in rank order) and the aggregated statistics.
///
/// Process-wide, cluster runs are serialized (see `CLUSTER_GATE`).
pub fn run_cluster<R, F>(p: usize, f: F) -> (Vec<R>, Arc<CommStats>)
where
    R: Send,
    F: Fn(CommWorld) -> R + Send + Sync,
{
    let (results, stats) = run_cluster_with_faults(p, FaultPlan::none(), RetryPolicy::default(), f);
    let results = results
        .into_iter()
        .map(|r| match r {
            Some(r) => r,
            None => unreachable!("no rank is crashed in a fault-free run"),
        })
        .collect();
    (results, stats)
}

/// Runs `f` on the live ranks of a `p`-rank cluster under `plan`, returning
/// `None` in the slots of crashed ranks. Identical seeds replay identical
/// fault patterns and statistics (see [`crate::fault`]).
pub fn run_cluster_with_faults<R, F>(
    p: usize,
    plan: FaultPlan,
    retry: RetryPolicy,
    f: F,
) -> (Vec<Option<R>>, Arc<CommStats>)
where
    R: Send,
    F: Fn(CommWorld) -> R + Send + Sync,
{
    assert!(p >= 1, "need at least one rank");
    let live = plan.live_count(p);
    assert!(live >= 1, "at least one rank must survive the fault plan");
    let _gate = CLUSTER_GATE.lock().unwrap_or_else(|e| e.into_inner());
    let plan = Arc::new(plan);
    let stats = Arc::new(CommStats::default());
    let mut worlds: Vec<CommWorld> = inproc::fabric(p, live)
        .into_iter()
        .map(|endpoint| {
            // Active plans go through the fault decorator so the wire
            // agrees with the fates the protocol computes; inert plans run
            // on the bare backend.
            let transport: Box<dyn Transport> = if plan.is_active() {
                Box::new(FaultTransport::new(endpoint, Arc::clone(&plan)))
            } else {
                Box::new(endpoint)
            };
            CommWorld::over(transport, Arc::clone(&plan), retry.clone(), stats.clone())
        })
        .collect();

    let f = &f;
    let results: Vec<Option<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = worlds
            .drain(..)
            .map(|world| {
                if plan.is_crashed(world.rank) {
                    None // the rank never starts; dropping the world here
                         // closes its endpoint
                } else {
                    Some(scope.spawn(move || {
                        // Tag this worker's spans with its simulated rank
                        // (and untag before the thread returns to any pool).
                        lcc_obs::set_rank(Some(world.rank as u32));
                        lcc_obs::set_epoch(world.actor.view().epoch());
                        let r = f(world);
                        lcc_obs::set_rank(None);
                        lcc_obs::set_epoch(0);
                        r
                    }))
                }
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))))
            .collect()
    });
    (results, stats)
}

/// Serializes f64 values little-endian.
pub fn encode_f64s(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::new();
    out.put_f64s(values);
    out
}

/// Deserializes f64 values little-endian; a payload that is not a whole
/// number of f64s is [`CodecError::Truncated`] with `expected: 8`.
pub fn try_decode_f64s(bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
    whole_elements(bytes, 8)?;
    Reader::new(bytes).f64s(bytes.len() / 8)
}

/// Fails unless `bytes` is a whole number of `elem_size`-byte elements.
pub(crate) fn whole_elements(bytes: &[u8], elem_size: usize) -> Result<(), CodecError> {
    if !bytes.len().is_multiple_of(elem_size) {
        return Err(CodecError::Truncated {
            len: bytes.len(),
            expected: elem_size,
        });
    }
    Ok(())
}

/// Deserializes f64 values little-endian. Panics on ragged input; use
/// [`try_decode_f64s`] to handle that case as data.
pub fn decode_f64s(bytes: &[u8]) -> Vec<f64> {
    try_decode_f64s(bytes).unwrap_or_else(|e| panic!("payload is not a whole number of f64s: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn ring_pass() {
        let (results, stats) = run_cluster(4, |mut w| {
            let next = (w.rank() + 1) % w.size();
            let prev = (w.rank() + w.size() - 1) % w.size();
            w.send(next, vec![w.rank() as u8]).unwrap();
            let got = w.recv_from(prev).unwrap();
            got[0] as usize
        });
        assert_eq!(results, vec![3, 0, 1, 2]);
        assert_eq!(stats.message_count(), 4);
        assert_eq!(stats.bytes(), 4);
    }

    #[test]
    fn alltoall_delivers_by_source() {
        let (results, stats) = run_cluster(3, |mut w| {
            let outgoing: Vec<Vec<u8>> = (0..w.size())
                .map(|to| vec![(w.rank() * 10 + to) as u8])
                .collect();
            let incoming = w.alltoall(outgoing).unwrap();
            incoming.iter().map(|m| m[0] as usize).collect::<Vec<_>>()
        });
        // Rank r receives from each source s the byte s*10 + r.
        for (r, row) in results.iter().enumerate() {
            for (s, &v) in row.iter().enumerate() {
                assert_eq!(v, s * 10 + r);
            }
        }
        assert_eq!(stats.rounds(), 1);
        // 3 ranks × 2 remote peers × 1 byte
        assert_eq!(stats.bytes(), 6);
    }

    #[test]
    fn allgather_matches_manual() {
        let (results, _) = run_cluster(4, |mut w| {
            let all = w.allgather(vec![w.rank() as u8; 2]).unwrap();
            all.iter().map(|m| m[0]).collect::<Vec<_>>()
        });
        for row in results {
            assert_eq!(row, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn out_of_order_sources_are_buffered() {
        let (results, _) = run_cluster(3, |mut w| {
            if w.rank() == 0 {
                // Receive in the order 2 then 1, regardless of arrival.
                w.barrier().unwrap();
                let a = w.recv_from(2).unwrap();
                let b = w.recv_from(1).unwrap();
                (a[0], b[0])
            } else {
                w.send(0, vec![w.rank() as u8]).unwrap();
                w.barrier().unwrap();
                (0, 0)
            }
        });
        assert_eq!(results[0], (2, 1));
    }

    #[test]
    fn self_messages_do_not_count() {
        let (_, stats) = run_cluster(1, |mut w| {
            let out = w.alltoall(vec![vec![1, 2, 3]]).unwrap();
            assert_eq!(out[0], vec![1, 2, 3]);
        });
        assert_eq!(stats.bytes(), 0);
        assert_eq!(stats.message_count(), 0);
    }

    #[test]
    fn f64_codec_roundtrip() {
        let v = vec![1.5, -2.25, std::f64::consts::PI, 0.0, f64::MIN_POSITIVE];
        assert_eq!(decode_f64s(&encode_f64s(&v)), v);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_decode_panics() {
        decode_f64s(&[1, 2, 3]);
    }

    #[test]
    fn ragged_decode_is_a_typed_error() {
        let err = try_decode_f64s(&[0u8; 9]).unwrap_err();
        assert_eq!(
            err,
            CodecError::Truncated {
                len: 9,
                expected: 8
            }
        );
        assert!(err.to_string().contains("9 bytes"));
        assert_eq!(
            try_decode_f64s(&encode_f64s(&[2.5, -1.0])).unwrap(),
            vec![2.5, -1.0]
        );
    }

    #[test]
    fn modeled_time_tracks_traffic() {
        use crate::model::AlphaBeta;
        let (_, stats) = run_cluster(4, |mut w| {
            let out = vec![vec![0u8; 1 << 20]; w.size()];
            w.alltoall(out).unwrap();
        });
        let ab = AlphaBeta::from_latency_bandwidth(1e-6, 1e9);
        let t = stats.modeled_time(&ab, 4);
        // Each rank sends 3 MiB remotely: ≈ 3·2^20 / 1e9 s plus latencies.
        let expect = 3.0 * (1 << 20) as f64 / 1e9 + 3.0 * 1e-6;
        assert!((t - expect).abs() / expect < 0.01, "t={t} expect={expect}");
    }

    #[test]
    fn invalid_rank_usage_is_loud() {
        // Misuse fails fast instead of corrupting the exchange.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_cluster(2, |mut w| {
                if w.rank() == 0 {
                    w.send(5, vec![1]).unwrap(); // destination out of range
                }
            });
        }));
        assert!(
            result.is_err(),
            "expected a panic from the invalid destination"
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_cluster(2, |mut w| {
                // Wrong payload count for the collective.
                let _ = w.alltoall(vec![vec![0u8; 1]; 3]);
            });
        }));
        assert!(
            result.is_err(),
            "expected a panic from the ragged all-to-all"
        );
    }

    #[test]
    fn barrier_synchronizes() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = counter.clone();
        run_cluster(8, move |mut w| {
            c.fetch_add(1, Ordering::SeqCst);
            w.barrier().unwrap();
            // After the barrier every rank must see all increments.
            assert_eq!(c.load(Ordering::SeqCst), 8);
        });
    }

    // ---- fault-injection protocol tests ----

    type GatherRun = (Vec<Option<Vec<Vec<u8>>>>, Arc<CommStats>);

    /// The `distributed_lowcomm` exchange shape in miniature: every rank
    /// allgathers a payload derived from its rank.
    fn allgather_workload(drop: f64, seed: u64) -> GatherRun {
        let plan = FaultPlan::new(seed).with_drop(drop);
        run_cluster_with_faults(4, plan, RetryPolicy::default(), |mut w| {
            let payload: Vec<u8> = (0..64).map(|i| (w.rank() * 7 + i) as u8).collect();
            w.allgather(payload).unwrap()
        })
    }

    #[test]
    fn drops_are_recovered_bit_identically() {
        let (clean, clean_stats) = allgather_workload(0.0, 11);
        let (faulty, faulty_stats) = allgather_workload(0.3, 11);
        assert_eq!(clean, faulty, "retries must reconstruct the exact exchange");
        // Heavy drops must actually have exercised the retry machinery…
        assert!(
            faulty_stats.retransmit_count() > 0,
            "30% drop produced no retransmits"
        );
        // …without inflating the logical-traffic counters.
        assert_eq!(clean_stats.bytes(), faulty_stats.bytes());
        assert_eq!(clean_stats.message_count(), faulty_stats.message_count());
    }

    #[test]
    fn fault_counters_replay_exactly_from_the_seed() {
        let (r1, s1) = allgather_workload(0.25, 99);
        let (r2, s2) = allgather_workload(0.25, 99);
        assert_eq!(r1, r2);
        assert_eq!(s1.retransmit_count(), s2.retransmit_count());
        assert_eq!(s1.duplicate_count(), s2.duplicate_count());
        assert_eq!(s1.timeout_count(), s2.timeout_count());
    }

    #[test]
    fn duplicates_are_suppressed() {
        let plan = FaultPlan::new(5).with_duplicates(0.5);
        let (results, stats) = run_cluster_with_faults(3, plan, RetryPolicy::default(), |mut w| {
            let mut got = Vec::new();
            for round in 0..8u8 {
                let all = w.allgather(vec![w.rank() as u8, round]).unwrap();
                got.push(all);
            }
            got
        });
        // Every rank saw exactly one copy of every message, in order.
        let expect = results[0].clone().unwrap();
        for r in &results {
            assert_eq!(r.as_ref().unwrap(), &expect);
        }
        assert!(
            stats.duplicate_count() > 0,
            "50% duplication produced no duplicates"
        );
    }

    #[test]
    fn crashed_peers_fail_fast_and_survivors_degrade() {
        let plan = FaultPlan::new(3).with_crashed(2);
        let (results, _) = run_cluster_with_faults(4, plan, RetryPolicy::default(), |mut w| {
            // Direct traffic with the crashed rank is a typed error…
            assert!(matches!(
                w.send(2, vec![1]),
                Err(CommError::PeerCrashed { peer: 2, .. })
            ));
            assert!(matches!(
                w.recv_from(2),
                Err(CommError::PeerCrashed { peer: 2, .. })
            ));
            // …while the surviving collective completes around the hole.

            w.allgather_surviving(vec![w.rank() as u8]).unwrap()
        });
        assert!(
            results[2].is_none(),
            "crashed rank must not produce a result"
        );
        for (rank, r) in results.iter().enumerate() {
            if rank == 2 {
                continue;
            }
            let all = r.as_ref().unwrap();
            assert!(all[2].is_none());
            for live in [0, 1, 3] {
                assert_eq!(all[live].as_ref().unwrap(), &vec![live as u8]);
            }
        }
    }

    #[test]
    fn delay_perturbs_timing_but_not_results() {
        let plan = FaultPlan::new(17).with_delay(3);
        let (delayed, stats) = run_cluster_with_faults(4, plan, RetryPolicy::default(), |mut w| {
            w.allgather(vec![w.rank() as u8; 8]).unwrap()
        });
        let (clean, _) = run_cluster(4, |mut w| w.allgather(vec![w.rank() as u8; 8]).unwrap());
        for (d, c) in delayed.iter().zip(&clean) {
            assert_eq!(d.as_ref().unwrap(), c);
        }
        assert_eq!(stats.retransmit_count(), 0);
        assert_eq!(stats.duplicate_count(), 0);
    }

    #[test]
    fn recv_timeout_surfaces_instead_of_hanging() {
        let plan = FaultPlan::new(0).with_delay(1); // active plan, no drops
        let retry = RetryPolicy {
            recv_timeout: Duration::from_millis(50),
            ..RetryPolicy::default()
        };
        let (results, _) = run_cluster_with_faults(2, plan, retry, |mut w| {
            if w.rank() == 0 {
                // Nobody ever sends to rank 0: must time out, not hang.
                w.recv_from(1)
            } else {
                Ok(vec![])
            }
        });
        assert_eq!(
            results[0].clone().unwrap(),
            Err(CommError::Timeout {
                op: "recv_from",
                rank: 0,
                waiting_on: 1
            })
        );
    }

    #[test]
    fn retries_exhausted_is_reported() {
        // Certain loss: every attempt drops, so the send must give up.
        let plan = FaultPlan::new(1).with_drop(1.0);
        let retry = RetryPolicy {
            max_attempts: 4,
            ..RetryPolicy::default()
        };
        let (results, stats) = run_cluster_with_faults(2, plan, retry, |mut w| {
            if w.rank() == 0 {
                w.send(1, vec![9; 16])
            } else {
                Ok(())
            }
        });
        assert_eq!(
            results[0].clone().unwrap(),
            Err(CommError::RetriesExhausted {
                rank: 0,
                peer: 1,
                seq: 0,
                attempts: 4
            })
        );
        assert_eq!(stats.retransmit_count(), 4);
    }

    // ---- physical accounting & membership tests ----

    #[test]
    fn physical_counters_match_logical_without_faults() {
        let (_, stats) = run_cluster(4, |mut w| {
            w.allgather(vec![w.rank() as u8; 32]).unwrap();
        });
        assert_eq!(stats.physical_bytes(), stats.bytes());
        assert_eq!(stats.physical_message_count(), stats.message_count());
        assert_eq!(stats.ack_count(), 0, "no acks without an active plan");
        let ab = crate::model::AlphaBeta::hpc_default();
        assert_eq!(
            stats.modeled_time(&ab, 4),
            stats.modeled_time_physical(&ab, 4)
        );
    }

    #[test]
    fn drops_inflate_physical_but_not_logical_traffic() {
        let (_, faulty) = allgather_workload(0.3, 21);
        let (_, clean) = allgather_workload(0.0, 21);
        assert_eq!(clean.bytes(), faulty.bytes(), "logical volume is invariant");
        assert!(
            faulty.physical_bytes() > faulty.bytes(),
            "retransmitted frames must show up as wire cost"
        );
        assert!(faulty.ack_count() > 0, "delivered frames are acked");
        let ab = crate::model::AlphaBeta::hpc_default();
        assert!(faulty.modeled_time_physical(&ab, 4) > faulty.modeled_time(&ab, 4));
        // Physical traffic is as replayable as everything else.
        let (_, again) = allgather_workload(0.3, 21);
        assert_eq!(faulty.physical_bytes(), again.physical_bytes());
        assert_eq!(faulty.ack_count(), again.ack_count());
    }

    #[test]
    fn converged_allgather_survives_a_crash_under_a_common_epoch() {
        let plan = FaultPlan::new(7).with_crashed(1);
        let (results, _) = run_cluster_with_faults(4, plan, RetryPolicy::default(), |mut w| {
            let rank = w.rank();
            w.allgather_converged(|_| vec![rank as u8; 4]).unwrap()
        });
        assert!(results[1].is_none());
        for (rank, r) in results.iter().enumerate() {
            if rank == 1 {
                continue;
            }
            let (slots, epoch) = r.as_ref().unwrap();
            assert_eq!(*epoch, 1, "one detection sweep found the crash");
            assert!(slots[1].is_none(), "dead rank contributes nothing");
            for live in [0, 2, 3] {
                assert_eq!(slots[live].as_ref().unwrap(), &vec![live as u8; 4]);
            }
        }
    }

    #[test]
    fn converged_allgather_survives_a_mid_exchange_deserter() {
        // Rank 2 sends a *partial* epoch-0 exchange (lower ranks only) and
        // walks away without crashing: lower ranks see a seemingly complete
        // first exchange, higher ranks time out — the converged collective
        // must still land everyone on the same epoch-1 result.
        let plan = FaultPlan::new(13).with_deserter(2);
        let retry = RetryPolicy {
            ack_timeout: Duration::from_millis(400),
            recv_timeout: Duration::from_millis(400),
            ..RetryPolicy::default()
        };
        let (results, _) = run_cluster_with_faults(4, plan, retry, |mut w| {
            let rank = w.rank();
            if w.fault_plan().deserts(rank) {
                for to in 0..rank {
                    let _ = w.send_epoch(to, &[rank as u8; 4]);
                }
                return None;
            }
            Some(w.allgather_converged(|_| vec![rank as u8; 4]).unwrap())
        });
        for (rank, r) in results.iter().enumerate() {
            let r = r.as_ref().expect("deserters still return");
            if rank == 2 {
                assert!(r.is_none());
                continue;
            }
            let (slots, epoch) = r.as_ref().unwrap();
            assert_eq!(*epoch, 1, "rank {rank} converged on the wrong epoch");
            assert!(slots[2].is_none(), "deserter contributes nothing");
            for live in [0, 1, 3] {
                assert_eq!(slots[live].as_ref().unwrap(), &vec![live as u8; 4]);
            }
        }
    }

    #[test]
    fn converged_exchanges_chain_without_cross_talk() {
        // Two back-to-back converged exchanges with a crash: stale frames
        // from the aborted first attempt must never leak into the second
        // exchange's slots.
        let plan = FaultPlan::new(29).with_crashed(0);
        let (results, _) = run_cluster_with_faults(3, plan, RetryPolicy::default(), |mut w| {
            let rank = w.rank();
            let (first, e1) = w
                .allgather_converged(|_| vec![0xA0 | rank as u8; 3])
                .unwrap();
            let (second, e2) = w
                .allgather_converged(|_| vec![0xB0 | rank as u8; 3])
                .unwrap();
            assert_eq!(e1, e2, "no further deaths between the exchanges");
            (first, second)
        });
        for r in results.iter().skip(1) {
            let (first, second) = r.as_ref().unwrap();
            for live in [1, 2] {
                assert_eq!(first[live].as_ref().unwrap(), &vec![0xA0 | live as u8; 3]);
                assert_eq!(second[live].as_ref().unwrap(), &vec![0xB0 | live as u8; 3]);
            }
        }
    }
}
