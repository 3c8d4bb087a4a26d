//! Fault injection as a transport decorator.
//!
//! [`FaultTransport`] wraps any [`Transport`] and perturbs the frames that
//! cross it according to a seed-keyed [`FaultPlan`]: data frames can be
//! dropped or duplicated, acks can be dropped, and first transmissions can
//! be delayed. The decorator is **stateless**: every decision is recomputed
//! from the frame's own wire coordinates (`seq` and `attempt` ride in every
//! data frame, the ack index `k` in every ack — see [`super::frame`]) via
//! the same pure keyed hashes the reliability protocol evaluates when it
//! schedules transmissions. Protocol and decorator therefore always agree
//! on each frame's fate, on any backend, under any thread interleaving —
//! the invariant that keeps retransmit/duplicate/timeout counters exact
//! functions of the seed.
//!
//! The decorator only ever *suppresses or repeats* forwarding; all
//! accounting (`CommStats`, obs counters) stays above the seam in
//! `CommWorld`, which computes the identical fates itself. An optional
//! [`FaultEventLog`] records each injected fault for the decorator
//! equivalence tests (`crates/comm/tests/decorator_equivalence.rs`).

use std::sync::{Arc, Mutex};
use std::time::Duration;

use std::collections::BTreeSet;

use super::frame::{decode_view, WireFrameView};
use super::{PointOutcome, RecvOutcome, Transport};
use crate::fault::{CommError, FaultPlan};

/// One injected fault, identified by its wire coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultEvent {
    /// Data frame `(src → dst, seq)` attempt `attempt` was lost in flight.
    DropData {
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
    },
    /// Data frame `(src → dst, seq)` attempt `attempt` was delivered twice.
    DuplicateData {
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
    },
    /// The `k`-th ack for data `(src → dst, seq)` was lost on its way back.
    DropAck {
        src: usize,
        dst: usize,
        seq: u64,
        k: u64,
    },
    /// Logical send `(src → dst, seq)` was held back by `units` delay steps
    /// before its first transmission.
    Delay {
        src: usize,
        dst: usize,
        seq: u64,
        units: u32,
    },
}

/// A shared, thread-safe record of the faults a run injected.
///
/// Rank threads append concurrently, so the in-memory order is scheduling
/// noise; [`FaultEventLog::sorted`] returns the canonical order (by wire
/// coordinates), which *is* deterministic for a given seed.
#[derive(Debug, Default)]
pub struct FaultEventLog {
    events: Mutex<Vec<FaultEvent>>,
}

impl FaultEventLog {
    /// An empty shared log.
    pub fn new() -> Arc<Self> {
        Arc::new(FaultEventLog::default())
    }

    fn record(&self, event: FaultEvent) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event);
    }

    /// All recorded events in canonical (coordinate) order.
    pub fn sorted(&self) -> Vec<FaultEvent> {
        let mut events = self
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        events.sort();
        events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether no fault fired.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A [`Transport`] decorator injecting the faults a [`FaultPlan`] dictates.
pub struct FaultTransport<T: Transport> {
    inner: T,
    plan: Arc<FaultPlan>,
    log: Option<Arc<FaultEventLog>>,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: T, plan: Arc<FaultPlan>) -> Self {
        FaultTransport {
            inner,
            plan,
            log: None,
        }
    }

    /// Wraps `inner` under `plan`, recording every injected fault in `log`.
    pub fn with_log(inner: T, plan: Arc<FaultPlan>, log: Arc<FaultEventLog>) -> Self {
        FaultTransport {
            inner,
            plan,
            log: Some(log),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    fn note(&self, event: FaultEvent) {
        if let Some(log) = &self.log {
            log.record(event);
        }
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send_frame(&mut self, to: usize, frame: Vec<u8>) -> Result<(), CommError> {
        let src = self.inner.rank();
        match decode_view(&frame) {
            Ok(WireFrameView::Data { seq, attempt, .. }) => {
                if attempt == 0 {
                    // The sender-side delay is keyed per logical send, so it
                    // applies once, before the first transmission.
                    let units = self.plan.delay_units(src, to, seq);
                    if units > 0 {
                        self.note(FaultEvent::Delay {
                            src,
                            dst: to,
                            seq,
                            units,
                        });
                        std::thread::sleep(self.plan.delay_unit * units);
                    }
                }
                if self.plan.drops_data(src, to, seq, attempt) {
                    self.note(FaultEvent::DropData {
                        src,
                        dst: to,
                        seq,
                        attempt,
                    });
                    return Ok(()); // lost in flight
                }
                if self.plan.duplicates_data(src, to, seq, attempt) {
                    self.note(FaultEvent::DuplicateData {
                        src,
                        dst: to,
                        seq,
                        attempt,
                    });
                    self.inner.send_frame(to, frame.clone())?;
                }
                self.inner.send_frame(to, frame)
            }
            Ok(WireFrameView::Ack { seq, k }) => {
                // An ack for data that travelled `to → src`; the plan keys
                // ack drops on the *data* direction.
                if self.plan.drops_ack(to, src, seq, k) {
                    self.note(FaultEvent::DropAck {
                        src: to,
                        dst: src,
                        seq,
                        k,
                    });
                    return Ok(());
                }
                self.inner.send_frame(to, frame)
            }
            // Heartbeats sit below the reliability protocol; perturbing
            // them would inject *detector* noise, not protocol faults.
            Ok(WireFrameView::Heartbeat { .. }) => self.inner.send_frame(to, frame),
            // Not a protocol frame this decorator understands: pass it
            // through untouched rather than guess at fault coordinates.
            Err(_) => self.inner.send_frame(to, frame),
        }
    }

    fn recv_frame(&mut self, timeout: Duration) -> Result<RecvOutcome, CommError> {
        self.inner.recv_frame(timeout)
    }

    fn try_recv_frame(&mut self) -> Result<RecvOutcome, CommError> {
        self.inner.try_recv_frame()
    }

    fn barrier(&mut self, timeout: Duration) -> Result<bool, CommError> {
        self.inner.barrier(timeout)
    }

    fn announce_done(&mut self) {
        self.inner.announce_done()
    }

    fn all_done(&self) -> bool {
        self.inner.all_done()
    }

    /// The kill injector. When the backend carries out plan deaths itself
    /// (socket: the coordinator SIGKILLs at the gate), the decorator stays
    /// out of the way; otherwise it replays the identical schedule
    /// in-process — a restarting victim crosses the point as
    /// [`PointOutcome::Rejoined`] (its thread state *is* the checkpoint it
    /// would reload), a permanent victim dies here with
    /// [`CommError::Killed`].
    fn protocol_point(&mut self, idx: u64) -> Result<PointOutcome, CommError> {
        if self.inner.kills_are_real() {
            return self.inner.protocol_point(idx);
        }
        let rank = self.inner.rank();
        match self.plan.kill_point(rank) {
            Some(point) if point == idx => {
                if self.plan.kill_restart {
                    Ok(PointOutcome::Rejoined)
                } else {
                    Err(CommError::Killed { rank, point })
                }
            }
            _ => self.inner.protocol_point(idx),
        }
    }

    fn kills_are_real(&self) -> bool {
        self.inner.kills_are_real()
    }

    fn confirmed_dead(&self) -> BTreeSet<usize> {
        self.inner.confirmed_dead()
    }

    fn depart(&mut self) {
        self.inner.depart()
    }
}

#[cfg(test)]
mod tests {
    use super::super::frame::{encode_ack, encode_data};
    use super::super::inproc;
    use super::*;

    fn pair(
        plan: FaultPlan,
        log: Arc<FaultEventLog>,
    ) -> (
        FaultTransport<inproc::InProcTransport>,
        inproc::InProcTransport,
    ) {
        let mut eps = inproc::fabric(2, 2);
        let receiver = eps.pop().expect("rank 1 endpoint");
        let sender = eps.pop().expect("rank 0 endpoint");
        (
            FaultTransport::with_log(sender, Arc::new(plan), log),
            receiver,
        )
    }

    #[test]
    fn certain_drop_suppresses_the_frame_and_logs_it() {
        let log = FaultEventLog::new();
        let (mut tx, mut rx) = pair(FaultPlan::new(1).with_drop(1.0), log.clone());
        tx.send_frame(1, encode_data(0, 0, &[5, 6])).unwrap();
        assert_eq!(rx.try_recv_frame().unwrap(), RecvOutcome::Idle);
        assert_eq!(
            log.sorted(),
            vec![FaultEvent::DropData {
                src: 0,
                dst: 1,
                seq: 0,
                attempt: 0
            }]
        );
    }

    #[test]
    fn duplication_forwards_two_copies() {
        // Find an attempt the seed duplicates so the test is deterministic.
        let plan = FaultPlan::new(2).with_duplicates(1.0);
        let log = FaultEventLog::new();
        let (mut tx, mut rx) = pair(plan, log.clone());
        tx.send_frame(1, encode_data(3, 1, &[9])).unwrap();
        let frame = encode_data(3, 1, &[9]);
        for _ in 0..2 {
            assert_eq!(
                rx.recv_frame(Duration::from_secs(1)).unwrap(),
                RecvOutcome::Frame(0, frame.clone())
            );
        }
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn ack_drops_key_on_the_data_direction() {
        let plan = FaultPlan::new(3).with_drop(0.0);
        let mut plan = plan;
        plan.ack_drop_prob = 1.0;
        let log = FaultEventLog::new();
        // rank 0 sends the *ack* (it received data from rank 1).
        let (mut tx, mut rx) = pair(plan, log.clone());
        tx.send_frame(1, encode_ack(7, 0)).unwrap();
        assert_eq!(rx.try_recv_frame().unwrap(), RecvOutcome::Idle);
        assert_eq!(
            log.sorted(),
            vec![FaultEvent::DropAck {
                src: 1, // the data sender, not the ack sender
                dst: 0,
                seq: 7,
                k: 0
            }]
        );
    }

    #[test]
    fn kill_injector_replays_the_schedule() {
        let plan = FaultPlan::new(5).with_kill(0, 2);
        let (mut tx, _rx) = pair(plan.clone(), FaultEventLog::new());
        assert_eq!(tx.protocol_point(0).unwrap(), PointOutcome::Proceed);
        assert_eq!(tx.protocol_point(1).unwrap(), PointOutcome::Proceed);
        assert_eq!(
            tx.protocol_point(2).unwrap_err(),
            CommError::Killed { rank: 0, point: 2 }
        );
        // With restart, the same point is a rejoin instead of a death.
        let (mut tx, _rx) = pair(plan.with_restart(), FaultEventLog::new());
        assert_eq!(tx.protocol_point(2).unwrap(), PointOutcome::Rejoined);
        // Heartbeats pass through undecorated even under certain drop.
        let log = FaultEventLog::new();
        let (mut tx, mut rx) = pair(FaultPlan::new(1).with_drop(1.0), log.clone());
        tx.send_frame(1, super::super::frame::encode_heartbeat(4))
            .unwrap();
        assert!(matches!(
            rx.recv_frame(Duration::from_secs(1)).unwrap(),
            RecvOutcome::Frame(0, _)
        ));
        assert!(log.is_empty());
    }

    #[test]
    fn inert_plan_passes_everything_through() {
        let log = FaultEventLog::new();
        let (mut tx, mut rx) = pair(FaultPlan::none(), log.clone());
        for seq in 0..16 {
            tx.send_frame(1, encode_data(seq, 0, &[seq as u8])).unwrap();
        }
        for seq in 0..16 {
            assert_eq!(
                rx.recv_frame(Duration::from_secs(1)).unwrap(),
                RecvOutcome::Frame(0, encode_data(seq, 0, &[seq as u8]))
            );
        }
        assert!(log.is_empty());
    }
}
