//! Property tests for the transport wire-frame codec
//! (`lcc_comm::transport::frame`) and the cross-process env codecs that
//! carry [`FaultPlan`] / [`RetryPolicy`] into socket-backend children.
//!
//! The contracts under test:
//!
//! 1. Every encoder/decoder pair round-trips every input (data frames with
//!    arbitrary seq/attempt/payload, acks with arbitrary seq/k, epoch
//!    headers nested inside data payloads).
//! 2. Truncated or corrupt input is a *typed* [`CodecError`] (and a
//!    typed [`CommError::Decode`] through `decode_for`) — never a panic.
//! 3. The decoders are total: arbitrary byte soup decodes or errors, and
//!    anything that decodes re-encodes to the exact original bytes (the
//!    wire layout is canonical).

use std::time::Duration;

use proptest::prelude::*;

use lcc_comm::transport::frame::{
    decode_epoch, decode_for, decode_owned, decode_view, encode_ack, encode_data, encode_epoch,
    encode_heartbeat, WireFrame, WireFrameView, ACK_FRAME_LEN, DATA_HEADER, EPOCH_HEADER, KIND_ACK,
    KIND_DATA, KIND_HEARTBEAT,
};
use lcc_comm::{CodecError, CommError, FaultPlan, RetryPolicy};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Data frames round-trip through both the borrowing and the owning
    /// decoder, for any header values and payload (including empty).
    #[test]
    fn data_frame_round_trips(
        seq in 0u64..u64::MAX,
        attempt in 0u32..u32::MAX,
        payload in proptest::collection::vec(0u8..=255, 0..=128),
    ) {
        let bytes = encode_data(seq, attempt, &payload);
        prop_assert_eq!(bytes.len(), DATA_HEADER + payload.len());
        match decode_view(&bytes) {
            Ok(WireFrameView::Data { seq: s, attempt: a, payload: p }) => {
                prop_assert_eq!((s, a), (seq, attempt));
                prop_assert_eq!(p, &payload[..]);
            }
            other => prop_assert!(false, "decoded {:?}", other),
        }
        prop_assert_eq!(
            decode_owned(bytes),
            Ok(WireFrame::Data { seq, attempt, payload })
        );
    }

    /// Ack frames round-trip for any (seq, k).
    #[test]
    fn ack_frame_round_trips(seq in 0u64..u64::MAX, k in 0u64..u64::MAX) {
        let bytes = encode_ack(seq, k);
        prop_assert_eq!(bytes.len(), ACK_FRAME_LEN);
        prop_assert_eq!(decode_view(&bytes), Ok(WireFrameView::Ack { seq, k }));
        prop_assert_eq!(decode_owned(bytes), Ok(WireFrame::Ack { seq, k }));
    }

    /// The full nesting the cluster actually sends — an epoch header inside
    /// a data payload — reassembles to the original pieces.
    #[test]
    fn epoch_in_data_round_trips(
        seq in 0u64..u64::MAX,
        attempt in 0u32..u32::MAX,
        epoch in 0u64..u64::MAX,
        payload in proptest::collection::vec(0u8..=255, 0..=64),
    ) {
        let framed = encode_data(seq, attempt, &encode_epoch(epoch, &payload));
        let inner = match decode_owned(framed) {
            Ok(WireFrame::Data { payload: inner, .. }) => inner,
            other => {
                return Err(TestCaseError::fail(format!(
                    "data frame decoded as {other:?}"
                )))
            }
        };
        let (e, p) = decode_epoch(&inner)
            .map_err(|e| TestCaseError::fail(format!("epoch decode failed: {e}")))?;
        prop_assert_eq!(e, epoch);
        prop_assert_eq!(p, &payload[..]);
    }

    /// Any truncation of a valid data frame's header is a typed error
    /// reporting the truncated length and the header size it needed.
    #[test]
    fn truncated_data_header_is_typed(
        seq in 0u64..u64::MAX,
        attempt in 0u32..u32::MAX,
        keep in 1usize..DATA_HEADER,
    ) {
        let mut bytes = encode_data(seq, attempt, &[0xAB; 4]);
        bytes.truncate(keep);
        prop_assert_eq!(
            decode_view(&bytes),
            Err(CodecError::Truncated { len: keep, expected: DATA_HEADER })
        );
    }

    /// Acks are fixed-length: any other length with the ack kind byte is
    /// corruption, reported with the exact expected length.
    #[test]
    fn wrong_length_ack_is_typed(
        seq in 0u64..u64::MAX,
        k in 0u64..u64::MAX,
        delta in prop_oneof![1usize..=8, 100usize..=200],
        grow in 0u8..2,
    ) {
        let mut bytes = encode_ack(seq, k);
        if grow == 1 {
            bytes.extend(std::iter::repeat_n(0xEE, delta));
        } else {
            bytes.truncate(ACK_FRAME_LEN - delta.min(ACK_FRAME_LEN - 1));
        }
        let err = match decode_view(&bytes) {
            Err(e) => e,
            Ok(frame) => {
                return Err(TestCaseError::fail(format!(
                    "corrupt ack decoded as {frame:?}"
                )))
            }
        };
        prop_assert_eq!(err, CodecError::Truncated { len: bytes.len(), expected: ACK_FRAME_LEN });
    }

    /// Decoding is total over arbitrary byte soup: it never panics, and
    /// whenever it succeeds the frame re-encodes to the exact input — the
    /// wire layout has one canonical encoding per frame.
    #[test]
    fn arbitrary_bytes_never_panic_and_decodes_are_canonical(
        bytes in proptest::collection::vec(0u8..=255, 0..=96),
    ) {
        match decode_view(&bytes) {
            Ok(WireFrameView::Data { seq, attempt, payload }) => {
                prop_assert_eq!(bytes[0], KIND_DATA);
                prop_assert_eq!(encode_data(seq, attempt, payload), bytes.clone());
            }
            Ok(WireFrameView::Ack { seq, k }) => {
                prop_assert_eq!(bytes[0], KIND_ACK);
                prop_assert_eq!(encode_ack(seq, k), bytes.clone());
            }
            Ok(WireFrameView::Heartbeat { beat }) => {
                prop_assert_eq!(bytes[0], KIND_HEARTBEAT);
                prop_assert_eq!(encode_heartbeat(beat).to_vec(), bytes.clone());
            }
            Err(CodecError::Truncated { len, .. }) => prop_assert_eq!(len, bytes.len()),
            Err(e) => prop_assert!(false, "frame error of another kind: {:?}", e),
        }
        // The owning decoder agrees with the view decoder on every input.
        let view_ok = decode_view(&bytes).is_ok();
        prop_assert_eq!(decode_owned(bytes).is_ok(), view_ok);
    }

    /// `decode_for` maps every frame-level failure into the protocol's
    /// typed error with the right attribution, preserving the sizes.
    #[test]
    fn decode_for_attributes_failures(
        rank in 0usize..16,
        peer in 0usize..16,
        keep in 0usize..DATA_HEADER,
        seq in 0u64..u64::MAX,
    ) {
        // Every strict prefix of a data frame's header is undecodable.
        let mut bytes = encode_data(seq, 1, &[]);
        bytes.truncate(keep);
        match decode_for(rank, peer, bytes.clone()) {
            Err(CommError::Decode { rank: r, peer: p, len, .. }) => {
                prop_assert_eq!((r, p), (rank, peer));
                prop_assert_eq!(len, bytes.len());
            }
            other => prop_assert!(false, "expected Decode error, got {:?}", other),
        }
    }

    /// The env-string codec reconstructs a bit-identical [`FaultPlan`] —
    /// the property the socket backend's cross-process fault replay rests
    /// on (a single flipped mantissa bit would desynchronize every keyed
    /// fault roll between coordinator and children).
    #[test]
    fn fault_plan_env_codec_is_bit_exact(
        seed in 0u64..u64::MAX,
        drop in 0.0f64..1.0,
        dup in 0.0f64..1.0,
        delay_steps in 0u32..8,
        delay_unit_us in 1u64..500,
        crashed in proptest::collection::vec(0usize..8, 0..3),
        desert in proptest::collection::vec(0usize..8, 0..3),
    ) {
        let mut plan = FaultPlan::new(seed)
            .with_drop(drop)
            .with_duplicates(dup)
            .with_delay(delay_steps);
        plan.delay_unit = Duration::from_micros(delay_unit_us);
        plan.crashed_ranks = crashed.into_iter().collect();
        plan.desert_ranks = desert.into_iter().collect();
        let round_tripped = match FaultPlan::from_env_string(&plan.to_env_string()) {
            Ok(p) => p,
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "own encoding failed to parse: {e}"
                )))
            }
        };
        prop_assert_eq!(round_tripped.clone(), plan.clone());
        // Bit-exact, not just PartialEq-equal:
        prop_assert_eq!(round_tripped.drop_prob.to_bits(), plan.drop_prob.to_bits());
        prop_assert_eq!(round_tripped.ack_drop_prob.to_bits(), plan.ack_drop_prob.to_bits());
        prop_assert_eq!(round_tripped.duplicate_prob.to_bits(), plan.duplicate_prob.to_bits());
    }

    /// Same for [`RetryPolicy`]: every deadline survives the env round trip.
    #[test]
    fn retry_policy_env_codec_round_trips(
        max_attempts in 1u32..64,
        us in (1u64..100_000, 1u64..10_000, 1u64..100_000),
        more_us in (1u64..100_000, 1u64..100_000, 1u64..100_000),
    ) {
        let (ack_us, base_us, cap_us) = us;
        let (recv_us, barrier_us, drain_us) = more_us;
        let policy = RetryPolicy {
            max_attempts,
            ack_timeout: Duration::from_micros(ack_us),
            backoff_base: Duration::from_micros(base_us),
            backoff_cap: Duration::from_micros(cap_us),
            recv_timeout: Duration::from_micros(recv_us),
            barrier_timeout: Duration::from_micros(barrier_us),
            drain_timeout: Duration::from_micros(drain_us),
        };
        let round_tripped = match RetryPolicy::from_env_string(&policy.to_env_string()) {
            Ok(p) => p,
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "own encoding failed to parse: {e}"
                )))
            }
        };
        prop_assert_eq!(round_tripped, policy);
    }
}

/// Malformed env strings are typed [`CommError::Transport`] errors naming
/// the offending entry — a child must die with a message, not a panic.
#[test]
fn malformed_env_strings_are_typed_errors() {
    for bad in [
        "seed",              // no `=`
        "seed=not_a_number", // undecodable value
        "drop=zz",           // non-hex probability bits
        "unknown_key=3",     // key the codec doesn't know
        "crashed=1,x,3",     // ragged rank list
    ] {
        let err = FaultPlan::from_env_string(bad).unwrap_err();
        assert!(
            matches!(err, CommError::Transport { .. }),
            "`{bad}` gave {err:?}"
        );
        let shown = err.to_string();
        assert!(
            shown.contains("env"),
            "error for `{bad}` should name the env entry: {shown}"
        );
    }
    assert!(RetryPolicy::from_env_string("max_attempts=").is_err());
    assert!(RetryPolicy::from_env_string("bogus=1").is_err());
}

/// Empty rank lists serialize and parse as empty (not as a phantom rank).
#[test]
fn empty_rank_lists_round_trip() {
    let plan = FaultPlan::new(7).with_drop(0.5);
    let s = plan.to_env_string();
    assert!(s.contains("crashed=;"), "env string: {s}");
    let back = FaultPlan::from_env_string(&s).unwrap();
    assert!(back.crashed_ranks.is_empty());
    assert!(back.desert_ranks.is_empty());
}

/// The epoch header is the documented eight bytes — the constant the
/// membership layer and the codec must agree on.
#[test]
fn epoch_header_size_is_stable() {
    assert_eq!(EPOCH_HEADER, 8);
    assert_eq!(encode_epoch(0, &[]).len(), EPOCH_HEADER);
}
