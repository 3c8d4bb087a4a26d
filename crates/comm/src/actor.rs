//! The pure protocol kernel (`ProtocolActor`) behind
//! [`crate::cluster::CommWorld`].
//!
//! Every *decision* the epoch/ack/retry/membership protocol makes lives
//! here as a clock-free, thread-free, I/O-free transition function:
//! send-fate planning, receiver-side dedup and ack indexing, epoch-frame
//! disposition, suspicion bookkeeping, membership sweeps, the resumable
//! converged-exchange state machine, and the end-of-run drain gate.
//! [`CommWorld`](crate::cluster::CommWorld) calls these kernels and owns
//! only the wire work around them (transmitting frames, blocking waits,
//! counter updates); the model checker in `crates/check` drives the same
//! kernels through [`ProtocolActor::step`] and explores every interleaving
//! the real runtime never samples. Because both consumers share this one
//! module, there is no forked protocol logic to drift.
//!
//! The purity requirement is machine-enforced: lcc-lint's
//! `no-blocking-in-step` rule bans sleeping, locking, and I/O tokens from
//! this module, so the seam cannot silently rot back into wall-clock code.

use std::collections::BTreeSet;

use crate::fault::{FaultPlan, RetryPolicy};
use crate::membership::ClusterView;

/// The precomputed outcome of one reliable send: how many attempts the
/// sender will transmit, how many retransmissions and real protocol
/// timeouts that implies, and whether any ack finally survives. A pure
/// function of the fault plan's keyed hashes — both endpoints can evaluate
/// it, which is why the sender never burns a wall-clock timeout on a frame
/// it knows was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SendPlan {
    /// Data-frame attempts the sender transmits (at least 1).
    pub attempts: u32,
    /// Retransmissions forced by the plan (`attempts - 1` when the send
    /// eventually succeeds, `attempts` when it gives up... see the loop).
    pub retransmits: u64,
    /// Attempts whose data arrived but whose every ack was dropped: these
    /// end in a genuine protocol timeout before the retry.
    pub timeouts: u64,
    /// Whether any attempt's ack survives; `false` means the send exhausts
    /// its retries.
    pub acked: bool,
}

/// Plans the reliable send of `(src → dst, seq)` under `plan`: the exact
/// fate loop both the real sender and the checker agree on. Mirrors the
/// receiver's delivered-frame enumeration (`k`) so ack-drop rolls line up
/// with the acks the receiver will actually emit.
pub fn plan_send(
    plan: &FaultPlan,
    retry: &RetryPolicy,
    src: usize,
    dst: usize,
    seq: u64,
) -> SendPlan {
    let mut k = 0u64; // delivered-frame index, shared with the receiver
    let mut acked = false;
    let mut attempts = 0u32;
    let (mut retransmits, mut timeouts) = (0u64, 0u64);
    while attempts < retry.max_attempts {
        let a = attempts;
        attempts += 1;
        let delivered = !plan.drops_data(src, dst, seq, a);
        let mut ack_survives = false;
        if delivered {
            let copies = if plan.duplicates_data(src, dst, seq, a) {
                2
            } else {
                1
            };
            for _ in 0..copies {
                ack_survives |= !plan.drops_ack(src, dst, seq, k);
                k += 1;
            }
        }
        if ack_survives {
            acked = true;
            break;
        }
        if delivered {
            // Data arrived but no ack will: this attempt ends in a real
            // protocol timeout before the retry.
            timeouts += 1;
        }
        retransmits += 1;
    }
    SendPlan {
        attempts,
        retransmits,
        timeouts,
        acked,
    }
}

/// Physical copies of attempt `a` of `(src → dst, seq)` that hit the wire:
/// a dropped frame still left the sender's NIC (one copy), a duplicated
/// one cost two.
pub fn attempt_copies(plan: &FaultPlan, src: usize, dst: usize, seq: u64, attempt: u32) -> u32 {
    if plan.drops_data(src, dst, seq, attempt) {
        1 // transmitted, then lost in flight
    } else if plan.duplicates_data(src, dst, seq, attempt) {
        2
    } else {
        1
    }
}

/// What the receiver does with an arriving data frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataDisposition {
    /// A retransmission of something already delivered: suppress it, but
    /// still ack with index `ack_k` (the sender may be waiting on exactly
    /// this ack).
    Duplicate { ack_k: u64 },
    /// A new in-order message: deliver it and ack with index `ack_k`.
    Deliver { ack_k: u64 },
}

impl DataDisposition {
    /// The ack index this disposition emits.
    pub fn ack_k(&self) -> u64 {
        match *self {
            DataDisposition::Duplicate { ack_k } | DataDisposition::Deliver { ack_k } => ack_k,
        }
    }
}

/// Where an epoch-stamped frame stands relative to the local view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EpochDisposition {
    /// Leftover from an exchange attempt aborted pre-detection: discard.
    Stale,
    /// From a newer epoch: this rank missed a detection sweep. The frame
    /// is not ours to consume yet; surface `EpochMismatch` and let the
    /// caller sweep.
    Ahead,
    /// Matches the local epoch: consume it.
    Current,
}

/// What one membership sweep concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SweepOutcome {
    /// Whether the view (and therefore the epoch) advanced.
    pub changed: bool,
    /// Ranks newly demoted by this sweep.
    pub newly_dead: u64,
    /// The epoch after the sweep.
    pub epoch: u64,
}

/// One rank's protocol-visible state: everything the decision kernels read
/// or write, and nothing the wire needs. [`CommWorld`](crate::cluster::CommWorld)
/// embeds exactly one of these; the checker holds one per modeled rank.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ActorState {
    rank: usize,
    size: usize,
    /// Next sequence number per destination.
    next_seq: Vec<u64>,
    /// Next expected sequence number per source (receiver-side dedup).
    next_expected: Vec<u64>,
    /// Ack index per source for the in-flight sequence, mirroring the
    /// sender's enumeration of delivered frames.
    ack_idx: Vec<u64>,
    /// This rank's epoch-stamped membership belief.
    view: ClusterView,
    /// Peers implicated by typed failures since the last sweep. Suspicion
    /// accelerates detection but is never trusted directly.
    suspected: BTreeSet<usize>,
    /// Set when this rank's own death was simulated at a protocol point.
    killed: bool,
}

impl ActorState {
    /// A fresh actor for `rank` in a `size`-rank cluster: optimistic view,
    /// all sequence spaces at zero.
    pub fn new(rank: usize, size: usize) -> ActorState {
        ActorState {
            rank,
            size,
            next_seq: vec![0; size],
            next_expected: vec![0; size],
            ack_idx: vec![0; size],
            view: ClusterView::all_alive(size),
            suspected: BTreeSet::new(),
            killed: false,
        }
    }

    /// This actor's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total rank count.
    pub fn size(&self) -> usize {
        self.size
    }

    /// This rank's current membership belief.
    pub fn view(&self) -> &ClusterView {
        &self.view
    }

    /// Whether this rank's own death was simulated at a protocol point.
    pub fn is_killed(&self) -> bool {
        self.killed
    }

    /// Next sequence number this actor would allocate toward `to`.
    pub fn next_seq(&self, to: usize) -> u64 {
        self.next_seq[to]
    }

    /// Allocates the sequence number for a new logical send to `to`.
    pub fn alloc_seq(&mut self, to: usize) -> u64 {
        let seq = self.next_seq[to];
        self.next_seq[to] += 1;
        seq
    }

    /// Receiver-side protocol decision for a data frame `(src, seq)`:
    /// deliver in-order frames, suppress retransmitted duplicates, and in
    /// both cases hand back the ack index `k` the sender's fate plan
    /// expects (sequence gaps only arise from aborted sends).
    pub fn on_data(&mut self, src: usize, seq: u64) -> DataDisposition {
        if seq < self.next_expected[src] {
            let ack_k = self.ack_idx[src];
            self.ack_idx[src] += 1;
            return DataDisposition::Duplicate { ack_k };
        }
        self.next_expected[src] = seq + 1;
        // A fresh sequence restarts the delivered-frame enumeration; the
        // ack for delivery 0 is this one.
        self.ack_idx[src] = 1;
        DataDisposition::Deliver { ack_k: 0 }
    }

    /// Classifies a frame stamped with `remote` against the local epoch.
    pub fn classify_epoch(&self, remote: u64) -> EpochDisposition {
        let local = self.view.epoch();
        if remote < local {
            EpochDisposition::Stale
        } else if remote > local {
            EpochDisposition::Ahead
        } else {
            EpochDisposition::Current
        }
    }

    /// Feeds a typed failure's implicated peer into the suspicion set.
    /// Returns whether the suspicion was recorded (self-blame and
    /// out-of-range peers are ignored).
    pub fn record_suspect(&mut self, peer: usize) -> bool {
        if peer < self.size && peer != self.rank {
            self.suspected.insert(peer)
        } else {
            false
        }
    }

    /// Peers currently under suspicion (ascending).
    pub fn suspected_ranks(&self) -> impl Iterator<Item = usize> + '_ {
        self.suspected.iter().copied()
    }

    /// Drops all pending suspicion without a sweep. Suspicion only feeds
    /// the next sweep, so once this rank can no longer sweep (it
    /// converged, degraded, or departed) the set is dead state; the model
    /// checker clears it when canonicalizing states for dedup.
    pub fn clear_suspicions(&mut self) {
        self.suspected.clear();
    }

    /// Membership sweep: unions the planned ground truth with observed
    /// hard evidence (self-reports and out-of-range evidence filtered),
    /// re-anchors on the current dead set so a rescinded pure-silence
    /// suspicion can never resurrect a rank, clears suspicions (each was
    /// either confirmed or exonerated as transient loss), and bumps the
    /// view epoch iff membership changed.
    pub fn sweep<I>(&mut self, planned: BTreeSet<usize>, observed: I) -> SweepOutcome
    where
        I: IntoIterator<Item = usize>,
    {
        let mut dead = planned;
        let (rank, size) = (self.rank, self.size);
        dead.extend(observed.into_iter().filter(|&r| r < size && r != rank));
        dead.extend(self.view.dead_ranks());
        self.suspected.clear();
        let before = self.size - self.view.live_count();
        let changed = self.view.observe_dead(dead);
        let newly_dead = if changed {
            (self.size - self.view.live_count() - before) as u64
        } else {
            0
        };
        SweepOutcome {
            changed,
            newly_dead,
            epoch: self.view.epoch(),
        }
    }

    /// Marks this rank killed at a protocol point: from here on it must
    /// act dead (no done announcement, no drain, no straggler acks).
    pub fn on_killed(&mut self) {
        self.killed = true;
    }

    /// Whether the end-of-run ALL_DONE drain runs. A crashed or killed
    /// rank already departed and must act dead — announcing done or acking
    /// stragglers would be traffic from beyond the grave. *Everyone else
    /// must drain*, even under an inert fault plan: on a real-socket
    /// backend an early EOF is indistinguishable from death to a peer
    /// still mid-exchange (the PR-7 teardown race the model checker's
    /// mutation test re-introduces).
    pub fn drain_gate(&self, crashed: bool) -> bool {
        !(crashed || self.killed)
    }
}

/// The resumable converged-exchange bookkeeping for one epoch attempt:
/// which peers were sent and received, and how many rounds at a stable
/// view stayed fruitless. Within one epoch only the sends never
/// acknowledged and the slots never received are retried, so no peer ever
/// sees a duplicate frame for the same epoch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConvergedState {
    /// The epoch this attempt runs under.
    pub epoch: u64,
    /// Peers whose send was acknowledged this epoch.
    pub sent: Vec<bool>,
    /// Peers whose frame was received this epoch.
    pub received: Vec<bool>,
    /// Retry rounds at a stable view that made no progress; bounded by the
    /// rank count before the exchange gives up.
    pub fruitless: usize,
}

/// How one round of a converged exchange ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Convergence {
    /// Every live slot was both sent and received: every survivor has
    /// completed the exchange under this epoch.
    Converged,
    /// A peer is live yet unsent: its send failed transiently and nothing
    /// since forced a retry. Returning now would starve it.
    Starved(usize),
}

impl ConvergedState {
    /// Fresh bookkeeping for an attempt under `view` (all slots pending,
    /// fruitless counter preserved by the caller only across *rounds*, not
    /// epochs — a view change resets it by starting a new state).
    pub fn begin(view: &ClusterView) -> ConvergedState {
        ConvergedState {
            epoch: view.epoch(),
            sent: vec![false; view.size()],
            received: vec![false; view.size()],
            fruitless: 0,
        }
    }

    /// Records an acknowledged send to `to`.
    pub fn mark_sent(&mut self, to: usize) {
        self.sent[to] = true;
    }

    /// Records a received slot from `from`.
    pub fn mark_received(&mut self, from: usize) {
        self.received[from] = true;
    }

    /// The lowest peer that still needs a send under `view`.
    pub fn next_unsent(&self, view: &ClusterView) -> Option<usize> {
        (0..self.sent.len()).find(|&t| !self.sent[t] && view.is_alive(t))
    }

    /// Whether every live slot has been received.
    pub fn all_received(&self, view: &ClusterView) -> bool {
        (0..self.received.len()).all(|f| self.received[f] || !view.is_alive(f))
    }

    /// End-of-round convergence check: converged only once every live slot
    /// was both sent and received.
    pub fn convergence(&self, view: &ClusterView) -> Convergence {
        match self.next_unsent(view) {
            None => Convergence::Converged,
            Some(starved) => Convergence::Starved(starved),
        }
    }

    /// Counts a fruitless round (failure, or starvation at a stable view)
    /// and returns the running tally for the caller's give-up bound.
    pub fn note_fruitless(&mut self) -> usize {
        self.fruitless += 1;
        self.fruitless
    }
}

/// Lifecycle phase of a modeled rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Created, collective not yet started.
    Idle,
    /// Mid converged exchange.
    Exchanging,
    /// Exchange converged; servicing stragglers until ALL_DONE.
    Done,
    /// Gave up after `size` fruitless rounds at a stable view — the
    /// planned degraded terminal.
    Degraded,
    /// Killed at a protocol point (or crashed, when the model drives it).
    Dead,
}

/// An input to [`ProtocolActor::step`]: one thing the outside world (wire,
/// detector, scheduler) can do to a rank. The checker enumerates these;
/// `CommWorld` experiences the same inputs as blocking I/O outcomes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Event {
    /// Begin the one-shot converged exchange this actor models.
    Start,
    /// An epoch-stamped data frame arrived.
    Data { src: usize, seq: u64, epoch: u64 },
    /// An ack arrived.
    Ack { src: usize, seq: u64 },
    /// The reliable layer gave up on the in-flight send (peer crashed,
    /// closed, or retries exhausted).
    SendFailed { dst: usize },
    /// The receive deadline for `from`'s slot fired: the peer is silent
    /// (degraded, partitioned, or just slow) but produced no hard
    /// evidence. Mirrors `alltoall_converged`'s recv-error branch.
    RecvTimeout { from: usize },
    /// Hard evidence that `peer` is dead (a reader's EOF, overdue silence).
    Evidence { peer: usize },
    /// `peer` restarted from checkpoint and was re-admitted at the kill
    /// gate before any sweep could demote it.
    PeerRejoined { peer: usize },
    /// Run a detection sweep over the accumulated evidence.
    Sweep,
    /// This rank's own death strikes at a protocol point.
    Kill,
}

/// An output of [`ProtocolActor::step`]: one thing the rank asks the
/// outside world to do.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Action {
    /// Put an epoch-stamped data frame on the wire.
    Send { dst: usize, seq: u64, epoch: u64 },
    /// Put an ack on the wire.
    SendAck { dst: usize, seq: u64, k: u64 },
    /// Accumulate a received payload into the application slot.
    Deliver { src: usize, epoch: u64 },
    /// Every live slot sent and received under `epoch`.
    Converged { epoch: u64 },
    /// Gave up after `size` fruitless rounds while `waiting_on` starved.
    Degraded { waiting_on: usize },
    /// Announce completion to the mesh (the ALL_DONE handshake).
    AnnounceDone,
    /// Leave the mesh without announcing: act dead.
    Depart,
}

/// The event-driven facade over the decision kernels: one modeled rank
/// running one converged exchange. This is what `crates/check` explores;
/// it contains no logic of its own beyond sequencing — every protocol
/// decision is delegated to the same [`ActorState`] / [`ConvergedState`]
/// kernels `CommWorld` calls, so the checked machine and the production
/// machine cannot diverge.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProtocolActor {
    /// The shared decision kernels' state.
    pub state: ActorState,
    /// Converged-exchange bookkeeping (present once started).
    pub exchange: Option<ConvergedState>,
    /// Lifecycle phase.
    pub phase: Phase,
    /// Hard evidence accumulated since the last sweep.
    pub evidence: BTreeSet<usize>,
    /// The in-flight reliable send this rank is blocked on, if any: the
    /// real sender transmits sequentially, waiting for each ack.
    pub awaiting: Option<(usize, u64)>,
    /// Peers already attempted this round: a failed send is retried only
    /// on the *next* round (the real round loop moves on best-effort).
    pub attempted: BTreeSet<usize>,
    /// Whether a receive failed since the last sweep (feeds the fruitless
    /// accounting exactly like `alltoall_converged`'s failure branch).
    pub recv_failed: bool,
}

impl ProtocolActor {
    /// A fresh idle actor.
    pub fn new(rank: usize, size: usize) -> ProtocolActor {
        ProtocolActor {
            state: ActorState::new(rank, size),
            exchange: None,
            phase: Phase::Idle,
            evidence: BTreeSet::new(),
            awaiting: None,
            attempted: BTreeSet::new(),
            recv_failed: false,
        }
    }

    /// Whether this rank still participates in the protocol.
    pub fn is_live(&self) -> bool {
        !matches!(self.phase, Phase::Dead)
    }

    /// Applies `event`, returning the actions the wire should carry out.
    /// Pure state transition: no clocks, no threads, no I/O.
    pub fn step(&mut self, event: Event) -> Vec<Action> {
        if matches!(self.phase, Phase::Dead) {
            return Vec::new();
        }
        match event {
            Event::Start => self.on_start(),
            Event::Data { src, seq, epoch } => self.on_data_frame(src, seq, epoch),
            Event::Ack { src, seq } => self.on_ack(src, seq),
            Event::SendFailed { dst } => self.on_send_failed(dst),
            Event::RecvTimeout { from } => {
                // The converged loop treats a failed receive as a fruitless
                // signal plus suspicion, never as proof of death: the next
                // sweep decides (and suspicion alone demotes nobody).
                self.state.record_suspect(from);
                self.recv_failed = true;
                Vec::new()
            }
            Event::Evidence { peer } => {
                if peer != self.state.rank() && peer < self.state.size() {
                    self.evidence.insert(peer);
                }
                Vec::new()
            }
            Event::PeerRejoined { peer } => {
                // Survivors clear evidence against the dead predecessor at
                // the kill gate, before any sweep can demote the restarted
                // successor (mirrors `LivenessBoard::mark_rejoined`).
                self.evidence.remove(&peer);
                Vec::new()
            }
            Event::Sweep => self.on_sweep(),
            Event::Kill => {
                self.state.on_killed();
                self.phase = Phase::Dead;
                vec![Action::Depart]
            }
        }
    }

    fn on_start(&mut self) -> Vec<Action> {
        if !matches!(self.phase, Phase::Idle) {
            return Vec::new();
        }
        self.phase = Phase::Exchanging;
        let mut ex = ConvergedState::begin(self.state.view());
        // The self-slot never touches the wire: the real exchange delivers
        // it through the local inbox.
        let rank = self.state.rank();
        ex.mark_sent(rank);
        ex.mark_received(rank);
        self.exchange = Some(ex);
        self.pump_sends()
    }

    /// Issues the next pending send if the rank is not already blocked on
    /// an ack (the real sender transmits sequentially).
    fn pump_sends(&mut self) -> Vec<Action> {
        if self.awaiting.is_some() || !matches!(self.phase, Phase::Exchanging) {
            return Vec::new();
        }
        let Some(ex) = self.exchange.as_ref() else {
            return Vec::new();
        };
        let view = self.state.view();
        let dst = (0..self.state.size())
            .find(|&t| !ex.sent[t] && view.is_alive(t) && !self.attempted.contains(&t));
        let Some(dst) = dst else {
            return self.check_converged();
        };
        self.attempted.insert(dst);
        let seq = self.state.alloc_seq(dst);
        let epoch = self.state.view().epoch();
        self.awaiting = Some((dst, seq));
        vec![Action::Send { dst, seq, epoch }]
    }

    fn on_data_frame(&mut self, src: usize, seq: u64, epoch: u64) -> Vec<Action> {
        let mut actions = Vec::new();
        let dispo = self.state.on_data(src, seq);
        actions.push(Action::SendAck {
            dst: src,
            seq,
            k: dispo.ack_k(),
        });
        if let DataDisposition::Deliver { .. } = dispo {
            match self.state.classify_epoch(epoch) {
                EpochDisposition::Stale => {}
                // Not consumable until this rank's own sweep catches up;
                // the next Sweep event advances the view and the peer's
                // resend (same epoch, new seq) lands as Current. The
                // payload itself is from a stale attempt by then.
                EpochDisposition::Ahead => self.recv_failed = true,
                EpochDisposition::Current => {
                    if matches!(self.phase, Phase::Exchanging) {
                        if let Some(ex) = self.exchange.as_mut() {
                            if !ex.received[src] {
                                ex.mark_received(src);
                                actions.push(Action::Deliver { src, epoch });
                            }
                        }
                    }
                }
            }
        }
        actions.extend(self.check_converged());
        actions
    }

    fn on_ack(&mut self, src: usize, seq: u64) -> Vec<Action> {
        if self.awaiting != Some((src, seq)) {
            return Vec::new(); // stale ack from a completed exchange
        }
        self.awaiting = None;
        if let Some(ex) = self.exchange.as_mut() {
            ex.mark_sent(src);
        }
        let mut actions = self.pump_sends();
        actions.extend(self.check_converged());
        actions
    }

    fn on_send_failed(&mut self, dst: usize) -> Vec<Action> {
        if self.awaiting.map(|(d, _)| d) == Some(dst) {
            self.awaiting = None;
        }
        self.state.record_suspect(dst);
        // Best-effort, like the round's send loop: move on to the next
        // peer; the failed one is retried only if the view holds steady.
        self.pump_sends()
    }

    fn on_sweep(&mut self) -> Vec<Action> {
        let evidence: Vec<usize> = self.evidence.iter().copied().collect();
        let outcome = self.state.sweep(BTreeSet::new(), evidence);
        if !matches!(self.phase, Phase::Exchanging) {
            return Vec::new();
        }
        if outcome.changed {
            // The view advanced: redo the exchange from scratch at the new
            // epoch so all survivors complete under a common view.
            self.recv_failed = false;
            self.awaiting = None;
            self.attempted.clear();
            let mut ex = ConvergedState::begin(self.state.view());
            let rank = self.state.rank();
            ex.mark_sent(rank);
            ex.mark_received(rank);
            self.exchange = Some(ex);
            return self.pump_sends();
        }
        // Stable view: a round that saw a failure or left a live peer
        // unsent counts toward the give-up bound; a round merely waiting
        // on in-flight frames does not.
        let size = self.state.size();
        let (starved, fruitless) = {
            let Some(ex) = self.exchange.as_mut() else {
                return Vec::new();
            };
            let starved = match ex.convergence(self.state.view()) {
                Convergence::Starved(s) if self.awaiting.is_none() => Some(s),
                _ => None,
            };
            if starved.is_some() || self.recv_failed {
                (starved, ex.note_fruitless())
            } else {
                (None, ex.fruitless)
            }
        };
        self.recv_failed = false;
        if fruitless >= size {
            self.phase = Phase::Degraded;
            return vec![Action::Degraded {
                waiting_on: starved.unwrap_or(self.state.rank()),
            }];
        }
        // A new retry round begins only once nothing is in flight: while
        // a send still awaits its ack the round is mid-progress, and
        // re-opening the attempted set now would let a failed peer be
        // re-sent within the same round (the real loop retries it only
        // next round, so the fruitless bound would never be reached).
        if self.awaiting.is_none() {
            // Retry round: re-issue the sends never acknowledged.
            self.attempted.clear();
            return self.pump_sends();
        }
        Vec::new()
    }

    fn check_converged(&mut self) -> Vec<Action> {
        if !matches!(self.phase, Phase::Exchanging) || self.awaiting.is_some() {
            return Vec::new();
        }
        let Some(ex) = self.exchange.as_ref() else {
            return Vec::new();
        };
        let view = self.state.view();
        if matches!(ex.convergence(view), Convergence::Converged) && ex.all_received(view) {
            let epoch = ex.epoch;
            self.phase = Phase::Done;
            return vec![Action::Converged { epoch }, Action::AnnounceDone];
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_send_under_an_inert_plan_is_one_acked_attempt() {
        let plan = FaultPlan::none();
        let retry = RetryPolicy::default();
        let sp = plan_send(&plan, &retry, 0, 1, 0);
        assert_eq!(
            sp,
            SendPlan {
                attempts: 1,
                retransmits: 0,
                timeouts: 0,
                acked: true
            }
        );
        assert_eq!(attempt_copies(&plan, 0, 1, 0, 0), 1);
    }

    #[test]
    fn plan_send_exhausts_retries_when_every_frame_drops() {
        let plan = FaultPlan::new(7).with_drop(1.0);
        let retry = RetryPolicy::default();
        let sp = plan_send(&plan, &retry, 0, 1, 3);
        assert!(!sp.acked);
        assert_eq!(sp.attempts, retry.max_attempts);
        assert_eq!(sp.retransmits, retry.max_attempts as u64);
        assert_eq!(sp.timeouts, 0, "dropped data never times out an ack wait");
    }

    #[test]
    fn plan_send_counts_a_timeout_when_only_the_ack_drops() {
        // Find a (seed, seq) whose first ack drops but whose second
        // delivery acks, then check the plan's arithmetic against it.
        let retry = RetryPolicy::default();
        let mut hit = false;
        for seed in 0..64u64 {
            let plan = FaultPlan {
                ack_drop_prob: 0.5,
                ..FaultPlan::new(seed)
            };
            for seq in 0..16u64 {
                let sp = plan_send(&plan, &retry, 0, 1, seq);
                if sp.acked && sp.attempts == 2 {
                    assert_eq!(sp.timeouts, 1);
                    assert_eq!(sp.retransmits, 1);
                    hit = true;
                }
            }
        }
        assert!(hit, "no ack-drop-then-recover case in the sampled space");
    }

    #[test]
    fn on_data_delivers_in_order_and_suppresses_duplicates() {
        let mut a = ActorState::new(0, 2);
        assert_eq!(a.on_data(1, 0), DataDisposition::Deliver { ack_k: 0 });
        // The same frame again: a retransmission racing the ack.
        assert_eq!(a.on_data(1, 0), DataDisposition::Duplicate { ack_k: 1 });
        assert_eq!(a.on_data(1, 0), DataDisposition::Duplicate { ack_k: 2 });
        // The next sequence restarts the ack enumeration.
        assert_eq!(a.on_data(1, 1), DataDisposition::Deliver { ack_k: 0 });
    }

    #[test]
    fn sweep_filters_self_reports_and_counts_newly_dead() {
        let mut a = ActorState::new(0, 4);
        a.record_suspect(2);
        let out = a.sweep(BTreeSet::from([3]), [0, 2, 9]);
        assert!(out.changed);
        assert_eq!(out.newly_dead, 2, "self and out-of-range filtered");
        assert_eq!(out.epoch, 1);
        assert_eq!(a.suspected_ranks().count(), 0, "sweep clears suspicion");
        // Re-anchored: the same evidence again changes nothing.
        let out = a.sweep(BTreeSet::new(), [2]);
        assert!(!out.changed);
        assert_eq!(out.epoch, 1);
    }

    #[test]
    fn epoch_classification_matches_the_view() {
        let mut a = ActorState::new(0, 3);
        a.sweep(BTreeSet::from([2]), []);
        assert_eq!(a.classify_epoch(0), EpochDisposition::Stale);
        assert_eq!(a.classify_epoch(1), EpochDisposition::Current);
        assert_eq!(a.classify_epoch(2), EpochDisposition::Ahead);
    }

    #[test]
    fn drain_gate_blocks_crashed_and_killed_ranks_only() {
        let mut a = ActorState::new(1, 2);
        assert!(a.drain_gate(false), "healthy ranks must drain");
        assert!(!a.drain_gate(true), "crashed ranks must act dead");
        a.on_killed();
        assert!(!a.drain_gate(false), "killed ranks must act dead");
    }

    #[test]
    fn two_fault_free_actors_converge_by_exchanging_steps() {
        let mut a = ProtocolActor::new(0, 2);
        let mut b = ProtocolActor::new(1, 2);
        let send_a = a.step(Event::Start);
        let send_b = b.step(Event::Start);
        assert_eq!(
            send_a,
            vec![Action::Send {
                dst: 1,
                seq: 0,
                epoch: 0
            }]
        );
        // Deliver a's frame to b: b acks and delivers.
        let rb = b.step(Event::Data {
            src: 0,
            seq: 0,
            epoch: 0,
        });
        assert!(rb.contains(&Action::SendAck {
            dst: 0,
            seq: 0,
            k: 0
        }));
        assert!(rb.contains(&Action::Deliver { src: 0, epoch: 0 }));
        // Deliver b's frame to a, then cross the acks.
        assert_eq!(
            send_b,
            vec![Action::Send {
                dst: 0,
                seq: 0,
                epoch: 0
            }]
        );
        let ra = a.step(Event::Data {
            src: 1,
            seq: 0,
            epoch: 0,
        });
        assert!(ra.contains(&Action::Deliver { src: 1, epoch: 0 }));
        let fa = a.step(Event::Ack { src: 1, seq: 0 });
        let fb = b.step(Event::Ack { src: 0, seq: 0 });
        assert!(fa.contains(&Action::Converged { epoch: 0 }));
        assert!(fb.contains(&Action::Converged { epoch: 0 }));
        assert_eq!(a.phase, Phase::Done);
        assert_eq!(b.phase, Phase::Done);
    }

    #[test]
    fn evidence_then_sweep_restarts_the_exchange_at_a_new_epoch() {
        let mut a = ProtocolActor::new(0, 3);
        a.step(Event::Start);
        // Rank 1 dies before acking; the reliable layer reports it.
        a.step(Event::Evidence { peer: 1 });
        let acts = a.step(Event::SendFailed { dst: 1 });
        // Moved on to rank 2 best-effort.
        assert!(matches!(acts.first(), Some(Action::Send { dst: 2, .. })));
        let acts = a.step(Event::Ack { src: 2, seq: 0 });
        assert!(acts.is_empty(), "still waiting on rank 1's slot");
        let acts = a.step(Event::Sweep);
        assert_eq!(a.state.view().epoch(), 1);
        // The restarted epoch resends to rank 2 with a fresh seq.
        assert!(
            acts.contains(&Action::Send {
                dst: 2,
                seq: 1,
                epoch: 1
            }),
            "{acts:?}"
        );
        let acts = a.step(Event::Data {
            src: 2,
            seq: 1,
            epoch: 1,
        });
        assert!(acts.contains(&Action::Deliver { src: 2, epoch: 1 }));
        let acts = a.step(Event::Ack { src: 2, seq: 1 });
        assert!(acts.contains(&Action::Converged { epoch: 1 }));
    }

    #[test]
    fn fruitless_rounds_at_a_stable_view_degrade() {
        let mut a = ProtocolActor::new(0, 2);
        a.step(Event::Start);
        let mut degraded = false;
        for _ in 0..2 {
            a.step(Event::SendFailed { dst: 1 });
            let acts = a.step(Event::Sweep);
            if acts
                .iter()
                .any(|x| matches!(x, Action::Degraded { waiting_on: 1 }))
            {
                degraded = true;
            }
        }
        assert!(degraded, "size fruitless rounds must give up");
        assert_eq!(a.phase, Phase::Degraded);
    }

    #[test]
    fn recv_timeouts_at_a_stable_view_degrade_without_burying_anyone() {
        // A silent-but-live peer (degraded, partitioned) never produces
        // hard evidence, so the waiting rank gives up without demoting it.
        let mut a = ProtocolActor::new(0, 2);
        a.step(Event::Start);
        a.step(Event::Data {
            src: 1,
            seq: 0,
            epoch: 0,
        });
        a.step(Event::Ack { src: 1, seq: 0 });
        let mut degraded = false;
        for _ in 0..2 {
            a.step(Event::RecvTimeout { from: 1 });
            let acts = a.step(Event::Sweep);
            degraded |= acts.iter().any(|x| matches!(x, Action::Degraded { .. }));
        }
        // Rank 1's frame already arrived here, so this run converges
        // before the timeouts matter; rebuild the starved side instead.
        let mut b = ProtocolActor::new(0, 2);
        b.step(Event::Start);
        b.step(Event::Ack { src: 1, seq: 0 });
        for _ in 0..2 {
            b.step(Event::RecvTimeout { from: 1 });
            let acts = b.step(Event::Sweep);
            degraded |= acts.iter().any(|x| matches!(x, Action::Degraded { .. }));
        }
        assert!(degraded, "persistent silence must reach the give-up bound");
        assert_eq!(b.state.view().epoch(), 0, "suspicion alone buries nobody");
        assert!(b.state.view().is_alive(1));
    }

    #[test]
    fn a_killed_actor_departs_and_ignores_everything_after() {
        let mut a = ProtocolActor::new(0, 2);
        a.step(Event::Start);
        assert_eq!(a.step(Event::Kill), vec![Action::Depart]);
        assert!(a.state.is_killed());
        assert!(a
            .step(Event::Data {
                src: 1,
                seq: 0,
                epoch: 0
            })
            .is_empty());
    }

    #[test]
    fn rejoin_clears_evidence_before_a_sweep_can_demote() {
        let mut a = ProtocolActor::new(0, 3);
        a.step(Event::Start);
        a.step(Event::Evidence { peer: 2 });
        a.step(Event::PeerRejoined { peer: 2 });
        a.step(Event::Sweep);
        assert_eq!(a.state.view().epoch(), 0, "no demotion after rejoin");
        assert!(a.state.view().is_alive(2));
    }
}
