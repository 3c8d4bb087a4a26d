//! Property tests for the failure detector's suspicion math and the
//! incarnation-versioned evidence seam.
//!
//! The pure pair [`ewma_observe`] / [`adaptive_threshold`] is the whole
//! phi-accrual-style brain of [`LivenessBoard`]: these properties pin the
//! monotonicity that makes silence-based demotion safe (a peer that goes
//! quiet can only become *more* suspect over time, never less, and no
//! estimate can push the give-up point past the configured cap). The
//! board-level properties pin the incarnation gate: hard evidence
//! gathered against a dead predecessor must never condemn the restarted
//! successor, no matter how late it lands.

use std::time::Duration;

use lcc_comm::{
    adaptive_threshold, ewma_observe, LivenessBoard, RetryPolicy, EWMA_ALPHA, MIN_SAMPLES,
};
use proptest::prelude::*;

/// A plausible inter-arrival gap in seconds (µs granularity up to ~100 s).
fn gap_s() -> impl Strategy<Value = f64> {
    (1u64..100_000_000).prop_map(|us| us as f64 / 1e6)
}

/// A plausible rhythm estimate: mean, variance, and enough samples for
/// the adaptive threshold to be trusted.
fn estimate() -> impl Strategy<Value = (f64, f64, u64)> {
    (gap_s(), 0.0f64..100.0, MIN_SAMPLES..1_000)
}

proptest! {
    /// The first beat seeds the mean directly; every later beat blends.
    #[test]
    fn first_observation_seeds_the_mean(gap in gap_s()) {
        let (mean, _, samples) = ewma_observe(0.0, 0.0, 0, gap);
        prop_assert_eq!(mean, gap);
        prop_assert_eq!(samples, 1);
    }

    /// Samples count up by exactly one per observation, variance stays
    /// nonnegative, and the mean stays within the hull of its inputs —
    /// the estimate cannot overshoot either the old mean or the new gap.
    #[test]
    fn ewma_update_is_bounded_and_counts(est in estimate(), gap in gap_s()) {
        let (mean, var, samples) = est;
        let (mean2, var2, samples2) = ewma_observe(mean, var, samples, gap);
        prop_assert_eq!(samples2, samples + 1);
        prop_assert!(var2 >= 0.0, "variance went negative: {}", var2);
        let (lo, hi) = if gap < mean { (gap, mean) } else { (mean, gap) };
        prop_assert!((lo..=hi).contains(&mean2), "{} not in [{lo}, {hi}]", mean2);
    }

    /// A *longer* observed gap can only raise the mean estimate: the
    /// update is strictly monotone in the observation, so a slowing peer
    /// ratchets its own allowance up, never down.
    #[test]
    fn ewma_mean_is_monotone_in_the_gap(
        est in estimate(),
        gap in gap_s(),
        extra in 0.001f64..10.0,
    ) {
        let (mean, var, samples) = est;
        let (m1, _, _) = ewma_observe(mean, var, samples, gap);
        let (m2, _, _) = ewma_observe(mean, var, samples, gap + extra);
        prop_assert!(m2 > m1, "mean fell from {} to {} on a longer gap", m1, m2);
        // And the step is exactly the blended difference.
        prop_assert!((m2 - m1 - EWMA_ALPHA * extra).abs() < 1e-9);
    }

    /// The threshold is always inside `[floor, cap]` once trusted, and
    /// exactly `cap` before [`MIN_SAMPLES`] beats: startup jitter can
    /// never demote faster than the configured worst case, and no rhythm
    /// estimate — however wild — can postpone the give-up point past the
    /// cap. A peer silent longer than `cap` is therefore *always*
    /// suspect: its suspicion can never be lowered by estimate drift.
    #[test]
    fn threshold_is_clamped_and_cap_wins_early(
        est in estimate(),
        floor_ms in 1u64..2_000,
        cap_ms in 2_000u64..60_000,
    ) {
        let (mean, var, samples) = est;
        let floor = Duration::from_millis(floor_ms);
        let cap = Duration::from_millis(cap_ms);
        let t = adaptive_threshold(mean, var, samples, floor, cap);
        prop_assert!(t >= floor && t <= cap, "{:?} outside [{:?}, {:?}]", t, floor, cap);
        let early = adaptive_threshold(mean, var, samples % MIN_SAMPLES, floor, cap);
        prop_assert_eq!(early, cap);
    }

    /// Monotone in the estimate: a peer whose observed rhythm slows (or
    /// jitters harder) gets a threshold at least as long — the detector
    /// adapts *toward* tolerance, and silence alone (which freezes the
    /// estimate) can never shrink an allowance already granted.
    #[test]
    fn threshold_is_monotone_in_the_estimate(
        est in estimate(),
        dmean in 0.0f64..10.0,
        dvar in 0.0f64..50.0,
    ) {
        let (mean, var, samples) = est;
        let floor = Duration::from_millis(100);
        let cap = Duration::from_secs(600);
        let t1 = adaptive_threshold(mean, var, samples, floor, cap);
        let t2 = adaptive_threshold(mean + dmean, var + dvar, samples, floor, cap);
        prop_assert!(t2 >= t1, "threshold shrank: {:?} -> {:?}", t1, t2);
    }
}

/// A board for `size` ranks observed from rank 0.
fn board(size: usize) -> std::sync::Arc<LivenessBoard> {
    LivenessBoard::new(0, size, &RetryPolicy::scaled_for(size), Default::default())
}

proptest! {
    /// The incarnation gate, end to end: hard evidence observed against
    /// incarnation `i` is discarded if the peer has rejoined (any number
    /// of times) since — a reader thread's late EOF on the SIGKILLed
    /// predecessor's socket must not bury the restarted successor.
    #[test]
    fn stale_eof_never_buries_a_rejoined_peer(
        size in 2usize..8,
        peer_sel in 1usize..8,
        rejoins in 1usize..4,
    ) {
        let peer = peer_sel % size;
        if peer == 0 {
            return Ok(());
        }
        let b = board(size);
        let observed = b.incarnation(peer);
        for _ in 0..rejoins {
            b.mark_rejoined(peer);
        }
        prop_assert_eq!(b.incarnation(peer), observed + rejoins as u64);
        prop_assert!(
            !b.mark_hard_dead_as_of(peer, observed),
            "stale EOF (incarnation {}) was accepted after {} rejoin(s)",
            observed,
            rejoins
        );
        prop_assert!(
            !b.confirmed_dead().contains(&peer),
            "rejoined peer {} ended up buried",
            peer
        );
    }

    /// Evidence at the *current* incarnation convicts exactly once, and
    /// the conviction sticks across sweeps until a rejoin clears it.
    #[test]
    fn current_incarnation_evidence_buries_until_rejoin(size in 2usize..8) {
        let peer = size - 1;
        let b = board(size);
        prop_assert!(b.mark_hard_dead_as_of(peer, b.incarnation(peer)));
        // Repeated sightings of the same corpse are not fresh news.
        prop_assert!(!b.mark_hard_dead_as_of(peer, b.incarnation(peer)));
        prop_assert!(b.confirmed_dead().contains(&peer));
        prop_assert!(b.confirmed_dead().contains(&peer), "burial must be stable");
        b.mark_rejoined(peer);
        prop_assert!(!b.confirmed_dead().contains(&peer));
    }
}
