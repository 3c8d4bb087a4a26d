//! Epoch-stamped cluster membership.
//!
//! A [`ClusterView`] is one rank's belief about which ranks are alive. It
//! starts optimistic (everyone alive, epoch 0) and only ever shrinks: each
//! [`crate::cluster::CommWorld::detect_failures`] sweep that discovers new
//! deaths bumps the epoch. Because detection is driven by typed
//! [`crate::fault::CommError`]s and confirmed against the deterministic
//! [`crate::fault::FaultPlan`] (the simulator's stand-in for a health
//! probe), every survivor of a given fault seed converges on the *same*
//! sequence of views — same members, same epochs — regardless of thread
//! interleaving. That shared view is what lets the epoch-tagged collectives
//! ([`crate::cluster::CommWorld::alltoall_converged`]) discard stale traffic
//! from before a failure and re-run an exchange deterministically.
//!
//! Membership lives entirely *above* the [`crate::transport::Transport`]
//! seam: the errors that feed detection come from whichever backend
//! carries the frames — simulated thread channels or real process
//! sockets — but the view sequence is a pure function of the fault seed
//! either way. The conformance suite (`tests/transport_conformance.rs`)
//! pins this by requiring survivors of the same seed to report the same
//! converged epoch on every backend. *How soon* a death is noticed (a
//! fired receive deadline vs an absent socket connection) is the one
//! transport-dependent quantity, which is why detection-side counters are
//! excluded from the suite's exact-equality clause.

use std::collections::BTreeSet;

/// One rank's epoch-stamped belief about cluster membership.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ClusterView {
    size: usize,
    epoch: u64,
    dead: BTreeSet<usize>,
}

impl ClusterView {
    /// The optimistic initial view: all `size` ranks alive, epoch 0.
    pub fn all_alive(size: usize) -> Self {
        ClusterView {
            size,
            epoch: 0,
            dead: BTreeSet::new(),
        }
    }

    /// Total rank count (alive and dead).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Membership epoch: bumped once per detection sweep that found new
    /// deaths. Two views with equal epochs from the same run agree on the
    /// member set.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether `rank` is believed alive.
    pub fn is_alive(&self, rank: usize) -> bool {
        rank < self.size && !self.dead.contains(&rank)
    }

    /// Ranks believed dead, ascending.
    pub fn dead_ranks(&self) -> impl Iterator<Item = usize> + '_ {
        self.dead.iter().copied()
    }

    /// Ranks believed alive, ascending.
    pub fn live_ranks(&self) -> Vec<usize> {
        (0..self.size).filter(|&r| self.is_alive(r)).collect()
    }

    /// Number of ranks believed alive.
    pub fn live_count(&self) -> usize {
        self.size - self.dead.len()
    }

    /// Replaces the dead set, bumping the epoch iff membership changed.
    /// Views only shrink: resurrecting a dead rank is a logic error.
    pub(crate) fn observe_dead(&mut self, dead: BTreeSet<usize>) -> bool {
        debug_assert!(
            self.dead.is_subset(&dead),
            "membership views must be monotone: {:?} -> {:?}",
            self.dead,
            dead
        );
        if dead == self.dead {
            return false;
        }
        self.dead = dead;
        self.epoch += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_optimistic() {
        let v = ClusterView::all_alive(4);
        assert_eq!(v.epoch(), 0);
        assert_eq!(v.live_count(), 4);
        assert!(v.is_alive(0) && v.is_alive(3));
        assert!(!v.is_alive(4), "out-of-range ranks are not members");
        assert_eq!(v.live_ranks(), vec![0, 1, 2, 3]);
        assert_eq!(v.dead_ranks().count(), 0);
    }

    #[test]
    fn epoch_bumps_only_on_change() {
        let mut v = ClusterView::all_alive(4);
        assert!(!v.observe_dead(BTreeSet::new()));
        assert_eq!(v.epoch(), 0);
        assert!(v.observe_dead(BTreeSet::from([2])));
        assert_eq!(v.epoch(), 1);
        assert!(!v.is_alive(2));
        assert_eq!(v.live_ranks(), vec![0, 1, 3]);
        // Same set again: no epoch change.
        assert!(!v.observe_dead(BTreeSet::from([2])));
        assert_eq!(v.epoch(), 1);
        // A further death: epoch 2.
        assert!(v.observe_dead(BTreeSet::from([2, 3])));
        assert_eq!(v.epoch(), 2);
        assert_eq!(v.live_count(), 2);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Folds raw (possibly duplicate, possibly out-of-range) failure
        /// reports into the cumulative dead sets a detection sweep would
        /// feed the view.
        fn cumulative(size: usize, reports: &[Vec<usize>]) -> Vec<BTreeSet<usize>> {
            let mut cum = BTreeSet::new();
            reports
                .iter()
                .map(|r| {
                    cum.extend(r.iter().copied().filter(|&x| x < size));
                    cum.clone()
                })
                .collect()
        }

        proptest! {
            /// The epoch counts exactly the strict growths of the dead
            /// set — duplicate reports never bump it — and the view's
            /// partition invariants hold after every transition.
            #[test]
            fn epoch_counts_exactly_the_strict_growths(
                size in 1usize..9,
                reports in proptest::collection::vec(
                    proptest::collection::vec(0usize..8, 0..4),
                    0..12,
                ),
            ) {
                let mut v = ClusterView::all_alive(size);
                let mut growths = 0u64;
                let mut prev = 0usize;
                for dead in cumulative(size, &reports) {
                    let grew = dead.len() > prev;
                    prev = dead.len();
                    prop_assert_eq!(v.observe_dead(dead.clone()), grew);
                    if grew {
                        growths += 1;
                    }
                    prop_assert_eq!(v.epoch(), growths);
                    prop_assert_eq!(v.live_count(), size - dead.len());
                    prop_assert!(dead.iter().all(|&r| !v.is_alive(r)));
                    prop_assert!(v.live_ranks().iter().all(|&r| v.is_alive(r)));
                    prop_assert_eq!(v.dead_ranks().collect::<BTreeSet<_>>(), dead);
                }
                // Each growth buries at least one rank, so the epoch is
                // bounded by the rank count no matter how noisy the
                // report stream was.
                prop_assert!(v.epoch() <= size as u64);
            }

            /// Re-delivering every cumulative report an arbitrary number
            /// of extra times — the concurrent-detection interleaving,
            /// where several sweeps observe the same ground truth — lands
            /// on a view identical to the duplicate-free run.
            #[test]
            fn duplicated_report_streams_converge_to_the_same_view(
                size in 1usize..9,
                reports in proptest::collection::vec(
                    proptest::collection::vec(0usize..8, 0..4),
                    0..8,
                ),
                dups in proptest::collection::vec(1usize..4, 8usize),
            ) {
                let mut once = ClusterView::all_alive(size);
                let mut noisy = ClusterView::all_alive(size);
                for (i, dead) in cumulative(size, &reports).into_iter().enumerate() {
                    once.observe_dead(dead.clone());
                    for _ in 0..dups[i % dups.len()] {
                        noisy.observe_dead(dead.clone());
                    }
                }
                prop_assert_eq!(once, noisy);
            }
        }
    }
}
