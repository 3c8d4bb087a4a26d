//! Wire frame codec: the byte layout that crosses a [`super::Transport`].
//!
//! Everything below the reliability protocol is an *opaque, length-prefixed
//! byte frame*. This module owns the three layers of framing:
//!
//! 1. **Protocol frames** — what [`crate::cluster::CommWorld`] hands the
//!    transport: a `Data` frame (`kind | seq | attempt | payload`) or an
//!    `Ack` frame (`kind | seq | k`). The `attempt` / `k` indices exist so
//!    a [`super::fault::FaultTransport`] decorator can evaluate the
//!    fault plan's keyed hashes *statelessly* from the frame alone — the
//!    decision it reaches is bit-identical to the one the protocol layer
//!    computed when it scheduled the transmission.
//! 2. **Length prefix** — stream transports (Unix / TCP sockets) delimit
//!    frames with a little-endian `u32` byte count; message transports
//!    (in-process channels) are naturally delimited and skip it.
//! 3. **Epoch header** — *inside* a data payload, the membership layer
//!    prepends the sender's view epoch ([`encode_epoch`] /
//!    [`decode_epoch`]). This sits above the reliability protocol and
//!    below the application payload.
//!
//! The layouts are written and read through `lcc_obs::codec` (DESIGN.md
//! §5p), so every decoder here returns its typed
//! [`CodecError::Truncated`] (convertible with [`CommError::from_codec`] to
//! [`CommError::Decode`]) — truncated, corrupt, or unknown-kind input must
//! never panic. The property tests in
//! `crates/comm/tests/transport_frame_props.rs` pin that contract.

use lcc_obs::codec::{CodecError, Reader, Writer};

use crate::fault::CommError;

/// Frame kind tag for sequenced data.
pub const KIND_DATA: u8 = 0x01;
/// Frame kind tag for acknowledgements.
pub const KIND_ACK: u8 = 0x02;
/// Frame kind tag for liveness heartbeats. Heartbeats live *below* the
/// reliability protocol: backends with real silence (sockets) emit them on
/// a timer and consume them in their reader threads — they are never
/// sequenced, acked, fault-decorated, or surfaced to [`super::Transport`]
/// consumers.
pub const KIND_HEARTBEAT: u8 = 0x03;
/// Frame kind tag for a goodbye: the whole frame, one byte, that a socket
/// rank writes to every peer once the run is over (after `ALL_DONE`), so
/// the EOF that follows its exit is not taken for a death. Reader threads
/// consume it like a heartbeat; it never reaches [`decode_view`].
pub const KIND_BYE: u8 = 0x04;

/// Bytes of a data frame header: kind, `u64` seq, `u32` attempt.
pub const DATA_HEADER: usize = 1 + 8 + 4;
/// Exact byte length of an ack frame: kind, `u64` seq, `u64` ack index.
pub const ACK_FRAME_LEN: usize = 1 + 8 + 8;
/// Exact byte length of a heartbeat frame: kind, `u64` beat counter.
pub const HEARTBEAT_FRAME_LEN: usize = 1 + 8;
/// Byte length of the epoch header prepended to collective payloads.
pub const EPOCH_HEADER: usize = 8;

/// Upper bound a stream transport accepts for one length-prefixed frame.
/// A corrupt length prefix must surface as a decode error, not an
/// attempted multi-gigabyte allocation.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// A decoded protocol frame with an owned payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireFrame {
    /// Sequenced application bytes. `attempt` is the retransmission index
    /// of this physical copy (0 for the first transmission).
    Data {
        seq: u64,
        attempt: u32,
        payload: Vec<u8>,
    },
    /// Acknowledgement of a delivered data frame; `k` is the receiver's
    /// delivered-frame index for the in-flight sequence (the coordinate
    /// the fault plan keys ack drops on).
    Ack { seq: u64, k: u64 },
    /// A liveness beat; `beat` is the sender's monotone beat counter.
    Heartbeat { beat: u64 },
}

/// A decoded protocol frame borrowing its payload — used on the send path
/// (fault decoration) where the frame bytes stay owned by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFrameView<'a> {
    Data {
        seq: u64,
        attempt: u32,
        payload: &'a [u8],
    },
    Ack {
        seq: u64,
        k: u64,
    },
    Heartbeat {
        beat: u64,
    },
}

/// Encodes a data frame into `buf` (cleared first). Reusing one buffer per
/// peer keeps the steady-state send path allocation-free.
pub fn encode_data_into(buf: &mut Vec<u8>, seq: u64, attempt: u32, payload: &[u8]) {
    buf.clear();
    buf.reserve(DATA_HEADER + payload.len());
    buf.push(KIND_DATA);
    buf.put_u64(seq);
    buf.put_u32(attempt);
    buf.extend_from_slice(payload);
}

/// Encodes a data frame into a fresh buffer.
pub fn encode_data(seq: u64, attempt: u32, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_data_into(&mut buf, seq, attempt, payload);
    buf
}

/// Encodes an ack frame.
pub fn encode_ack(seq: u64, k: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(ACK_FRAME_LEN);
    buf.push(KIND_ACK);
    buf.put_u64(seq);
    buf.put_u64(k);
    buf
}

/// Encodes a heartbeat frame.
pub fn encode_heartbeat(beat: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEARTBEAT_FRAME_LEN);
    buf.push(KIND_HEARTBEAT);
    buf.put_u64(beat);
    buf
}

/// Decodes a frame without copying the payload. A short frame names its
/// whole layout as `expected`, and an unknown kind byte names 1.
pub fn decode_view(frame: &[u8]) -> Result<WireFrameView<'_>, CodecError> {
    let mut r = Reader::new(frame);
    match r.u8()? {
        KIND_DATA => {
            r.need(DATA_HEADER - 1)?;
            Ok(WireFrameView::Data {
                seq: r.u64()?,
                attempt: r.u32()?,
                payload: r.rest(),
            })
        }
        KIND_ACK => {
            r.need(ACK_FRAME_LEN - 1)?;
            let view = WireFrameView::Ack {
                seq: r.u64()?,
                k: r.u64()?,
            };
            r.finish()?;
            Ok(view)
        }
        KIND_HEARTBEAT => {
            r.need(HEARTBEAT_FRAME_LEN - 1)?;
            let view = WireFrameView::Heartbeat { beat: r.u64()? };
            r.finish()?;
            Ok(view)
        }
        _ => Err(CodecError::Truncated {
            len: frame.len(),
            expected: 1,
        }),
    }
}

/// Decodes a frame, converting the buffer into the owned payload in place
/// (one `memmove`, no allocation).
pub fn decode_owned(mut frame: Vec<u8>) -> Result<WireFrame, CodecError> {
    match decode_view(&frame)? {
        WireFrameView::Data { seq, attempt, .. } => {
            frame.drain(..DATA_HEADER);
            Ok(WireFrame::Data {
                seq,
                attempt,
                payload: frame,
            })
        }
        WireFrameView::Ack { seq, k } => Ok(WireFrame::Ack { seq, k }),
        WireFrameView::Heartbeat { beat } => Ok(WireFrame::Heartbeat { beat }),
    }
}

/// Decodes a frame received from `peer`, mapping failures to the typed
/// protocol error.
pub fn decode_for(rank: usize, peer: usize, frame: Vec<u8>) -> Result<WireFrame, CommError> {
    decode_owned(frame).map_err(|e| CommError::from_codec(rank, peer, e))
}

/// Prepends the membership epoch to a collective payload.
pub fn encode_epoch(epoch: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(EPOCH_HEADER + payload.len());
    out.put_u64(epoch);
    out.extend_from_slice(payload);
    out
}

/// Splits an epoch-framed payload into `(epoch, payload)`.
pub fn decode_epoch(frame: &[u8]) -> Result<(u64, &[u8]), CodecError> {
    let mut r = Reader::new(frame);
    Ok((r.u64()?, r.rest()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_round_trip() {
        let payload = vec![7u8, 8, 9, 10];
        let bytes = encode_data(42, 3, &payload);
        assert_eq!(bytes.len(), DATA_HEADER + payload.len());
        match decode_owned(bytes).unwrap() {
            WireFrame::Data {
                seq,
                attempt,
                payload: p,
            } => {
                assert_eq!((seq, attempt), (42, 3));
                assert_eq!(p, payload);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn ack_round_trip() {
        let bytes = encode_ack(7, 2);
        assert_eq!(bytes.len(), ACK_FRAME_LEN);
        assert_eq!(
            decode_owned(bytes).unwrap(),
            WireFrame::Ack { seq: 7, k: 2 }
        );
    }

    #[test]
    fn heartbeat_round_trip() {
        let bytes = encode_heartbeat(11);
        assert_eq!(bytes.len(), HEARTBEAT_FRAME_LEN);
        assert_eq!(
            decode_owned(bytes).unwrap(),
            WireFrame::Heartbeat { beat: 11 }
        );
        // Heartbeats are fixed-length: trailing garbage is corruption.
        let mut beat = encode_heartbeat(0);
        beat.push(0);
        assert_eq!(
            decode_view(&beat).unwrap_err(),
            CodecError::Truncated {
                len: HEARTBEAT_FRAME_LEN + 1,
                expected: HEARTBEAT_FRAME_LEN
            }
        );
    }

    #[test]
    fn truncated_and_unknown_frames_are_typed_errors() {
        assert_eq!(
            decode_view(&[]).unwrap_err(),
            CodecError::Truncated {
                len: 0,
                expected: 1
            }
        );
        assert_eq!(
            decode_view(&[KIND_DATA, 1, 2]).unwrap_err(),
            CodecError::Truncated {
                len: 3,
                expected: DATA_HEADER
            }
        );
        // Acks are fixed-length: trailing garbage is corruption.
        let mut ack = encode_ack(1, 0);
        ack.push(0xFF);
        assert_eq!(
            decode_view(&ack).unwrap_err(),
            CodecError::Truncated {
                len: ACK_FRAME_LEN + 1,
                expected: ACK_FRAME_LEN
            }
        );
        assert!(decode_view(&[0x77, 0, 0]).is_err(), "unknown kind byte");
    }

    #[test]
    fn decode_errors_map_to_comm_error() {
        let err = decode_for(1, 2, vec![KIND_DATA]).unwrap_err();
        assert_eq!(
            err,
            CommError::Decode {
                rank: 1,
                peer: 2,
                len: 1,
                elem_size: DATA_HEADER
            }
        );
    }

    #[test]
    fn epoch_header_round_trip() {
        let framed = encode_epoch(9, &[1, 2, 3]);
        let (epoch, payload) = decode_epoch(&framed).unwrap();
        assert_eq!(epoch, 9);
        assert_eq!(payload, &[1, 2, 3]);
        assert!(decode_epoch(&framed[..EPOCH_HEADER - 1]).is_err());
    }
}
