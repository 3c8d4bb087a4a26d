//! Property tests for the fault-injection layer, plus exact accounting
//! tests for the collectives' [`CommStats`].
//!
//! The properties pin down the three contracts the chaos machinery rests
//! on: (1) a fault plan is a pure function of its seed, so any run replays
//! bit-for-bit; (2) an inert plan is indistinguishable from the fault-free
//! simulator; (3) the wire codecs round-trip every payload size.

use std::sync::Arc;

use proptest::prelude::*;

use lcc_comm::{
    decode_complex, decode_f64s, encode_complex, encode_f64s, run_cluster, run_cluster_with_faults,
    try_decode_complex, try_decode_f64s, AlphaBeta, CodecError, CommStats, FaultPlan, RetryPolicy,
};
use lcc_fft::c64;

/// A small but fault-sensitive workload: one allgather, one alltoall, and a
/// ring pass, returning every byte each rank observed. Any lost, reordered,
/// or double-applied frame shows up in the return value.
fn noisy_workload(p: usize, plan: FaultPlan) -> (Vec<Option<Vec<u8>>>, Arc<CommStats>) {
    run_cluster_with_faults(p, plan, RetryPolicy::default(), move |mut w| {
        let me = w.rank();
        let mut seen = Vec::new();
        let gathered = w
            .allgather(vec![me as u8; 24 + me])
            .expect("allgather under faults");
        seen.extend(gathered.into_iter().flatten());
        let outgoing: Vec<Vec<u8>> = (0..p).map(|dst| vec![(me * p + dst) as u8; 16]).collect();
        let exchanged = w.alltoall(outgoing).expect("alltoall under faults");
        seen.extend(exchanged.into_iter().flatten());
        let next = (me + 1) % p;
        let prev = (me + p - 1) % p;
        w.send(next, vec![me as u8; 8]).expect("ring send");
        seen.extend(w.recv_from(prev).expect("ring recv"));
        seen
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed, same plan ⇒ identical results AND identical fault
    /// counters, regardless of how the OS interleaves the rank threads.
    #[test]
    fn same_seed_replays_results_and_stats(
        seed in 0u64..u64::MAX,
        drop in 0.0f64..0.25,
        dup in 0.0f64..0.25,
        p in 2usize..=4,
    ) {
        let plan = FaultPlan::new(seed).with_drop(drop).with_duplicates(dup);
        let (ra, sa) = noisy_workload(p, plan.clone());
        let (rb, sb) = noisy_workload(p, plan);
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(sa.bytes(), sb.bytes());
        prop_assert_eq!(sa.message_count(), sb.message_count());
        prop_assert_eq!(sa.rounds(), sb.rounds());
        prop_assert_eq!(sa.retransmit_count(), sb.retransmit_count());
        prop_assert_eq!(sa.duplicate_count(), sb.duplicate_count());
        prop_assert_eq!(sa.timeout_count(), sb.timeout_count());
    }

    /// A plan with every probability at zero is inert: whatever its seed,
    /// the run is bit-identical to the fault-free simulator and no retry
    /// machinery fires.
    #[test]
    fn zero_probability_plan_matches_fault_free(
        seed in 0u64..u64::MAX,
        p in 2usize..=4,
    ) {
        let (faulted, fs) = noisy_workload(p, FaultPlan::new(seed));
        let (clean, cs) = run_cluster(p, move |mut w| {
            let me = w.rank();
            let mut seen = Vec::new();
            let gathered = w.allgather(vec![me as u8; 24 + me]).unwrap();
            seen.extend(gathered.into_iter().flatten());
            let outgoing: Vec<Vec<u8>> =
                (0..p).map(|dst| vec![(me * p + dst) as u8; 16]).collect();
            seen.extend(w.alltoall(outgoing).unwrap().into_iter().flatten());
            let next = (me + 1) % p;
            let prev = (me + p - 1) % p;
            w.send(next, vec![me as u8; 8]).unwrap();
            seen.extend(w.recv_from(prev).unwrap());
            seen
        });
        let faulted: Vec<Vec<u8>> = faulted.into_iter().map(Option::unwrap).collect();
        prop_assert_eq!(faulted, clean);
        prop_assert_eq!(fs.bytes(), cs.bytes());
        prop_assert_eq!(fs.message_count(), cs.message_count());
        prop_assert_eq!(fs.retransmit_count(), 0);
        prop_assert_eq!(fs.duplicate_count(), 0);
        prop_assert_eq!(fs.timeout_count(), 0);
    }

    /// The f64 wire codec round-trips any payload, and every non-multiple
    /// length is a typed error carrying the offending length.
    #[test]
    fn f64_codec_roundtrips_any_size(
        data in proptest::collection::vec(-1e12f64..1e12, 0..=96),
        cut in 1usize..8,
    ) {
        let bytes = encode_f64s(&data);
        prop_assert_eq!(bytes.len(), data.len() * 8);
        prop_assert_eq!(decode_f64s(&bytes), data.clone());
        prop_assert_eq!(try_decode_f64s(&bytes).unwrap(), data);
        // `cut` extra bytes (1..8) always leave a ragged tail.
        let mut ragged = bytes;
        ragged.extend(vec![0u8; cut]);
        let err = try_decode_f64s(&ragged).unwrap_err();
        prop_assert_eq!(err, CodecError::Truncated { len: ragged.len(), expected: 8 });
    }

    /// Same for the complex codec (16-byte elements).
    #[test]
    fn complex_codec_roundtrips_any_size(
        data in proptest::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 0..=64),
        cut in 1usize..16,
    ) {
        let field: Vec<_> = data.iter().map(|&(re, im)| c64(re, im)).collect();
        let bytes = encode_complex(&field);
        prop_assert_eq!(bytes.len(), field.len() * 16);
        prop_assert_eq!(decode_complex(&bytes), field.clone());
        prop_assert_eq!(try_decode_complex(&bytes).unwrap(), field);
        // `cut` extra bytes (1..16) always leave a ragged tail.
        let mut ragged = bytes;
        ragged.extend(vec![0u8; cut]);
        let err = try_decode_complex(&ragged).unwrap_err();
        prop_assert_eq!(err, CodecError::Truncated { len: ragged.len(), expected: 16 });
    }
}

/// Exact α-β accounting of `alltoall` at p ∈ {1, 2, 4}: self-copies are
/// free, so `p·(p−1)` messages of the per-peer length cross the network in
/// exactly one collective round.
#[test]
fn alltoall_accounting_is_exact() {
    for p in [1usize, 2, 4] {
        let len = 13usize;
        let (_, stats) = run_cluster(p, move |mut w| {
            let out = vec![vec![7u8; len]; w.size()];
            w.alltoall(out).unwrap();
        });
        let expect_msgs = (p * (p - 1)) as u64;
        assert_eq!(stats.message_count(), expect_msgs, "p={p}");
        assert_eq!(stats.bytes(), expect_msgs * len as u64, "p={p}");
        assert_eq!(stats.rounds(), 1, "p={p}");
    }
}

/// Exact accounting of `allgather`: identical traffic shape to alltoall
/// with a uniform payload — each rank sends its payload to p−1 peers.
#[test]
fn allgather_accounting_is_exact() {
    for p in [1usize, 2, 4] {
        let len = 29usize;
        let (_, stats) = run_cluster(p, move |mut w| {
            w.allgather(vec![w.rank() as u8; len]).unwrap();
        });
        let expect_msgs = (p * (p - 1)) as u64;
        assert_eq!(stats.message_count(), expect_msgs, "p={p}");
        assert_eq!(stats.bytes(), expect_msgs * len as u64, "p={p}");
        assert_eq!(stats.rounds(), 1, "p={p}");
    }
}

/// `modeled_time` against a hand-computed α-β figure: p = 2 ranks each
/// send one 100-byte message, so per-rank time is 1·α + 100·β.
#[test]
fn modeled_time_matches_hand_computed_alpha_beta() {
    let (_, stats) = run_cluster(2, |mut w| {
        let out = vec![vec![0u8; 100]; w.size()];
        w.alltoall(out).unwrap();
    });
    assert_eq!(stats.bytes(), 200);
    assert_eq!(stats.message_count(), 2);
    let ab = AlphaBeta::from_latency_bandwidth(5e-6, 2e9);
    let expect = 5e-6 + 100.0 * (1.0 / 2e9);
    let got = stats.modeled_time(&ab, 2);
    assert!((got - expect).abs() < 1e-15, "got {got}, expect {expect}");
}

/// Faults never inflate the *logical* traffic accounting: bytes, messages,
/// and rounds describe the algorithm, not the retransmissions.
#[test]
fn faults_do_not_inflate_logical_accounting() {
    let (_, clean) = noisy_workload(3, FaultPlan::none());
    let (_, faulty) = noisy_workload(3, FaultPlan::new(42).with_drop(0.3));
    assert!(faulty.retransmit_count() > 0, "30% drop must retransmit");
    assert_eq!(clean.bytes(), faulty.bytes());
    assert_eq!(clean.message_count(), faulty.message_count());
    assert_eq!(clean.rounds(), faulty.rounds());
}
