//! Typed request/response wire types and their versioned binary codec.
//!
//! The service speaks length-delimited binary messages in the style of
//! `lcc_comm::transport::frame`: a fixed magic + version + kind header
//! followed by a kind-specific body, every field little-endian through
//! `lcc_obs::codec` (DESIGN.md §5p), and every decoder total — truncated,
//! corrupt, or inconsistent input comes back as a typed [`CodecError`],
//! never a panic and never an attempted multi-gigabyte allocation. Anything that decodes re-encodes to the
//! exact original bytes (the layout is canonical), which the property
//! suite in `crates/service/tests/wire_props.rs` pins alongside the
//! round-trip and corruption contracts.
//!
//! Three message kinds cross the wire:
//!
//! * [`ConvolveRequest`] — one tenant's convolution: the plan key
//!   (`n`, `k`, `far_rate`, Gaussian `sigma`) plus the input field, either
//!   dense or as sparse delta points ([`RequestInput`]).
//! * [`ConvolveResponse`] — the served result: the mode it was actually
//!   computed in (shed requests come back [`ServedMode::Degraded`]), an
//!   FNV-1a checksum of the result bits, and — unless the request asked
//!   for checksum-only — the dense result field.
//! * [`RejectNotice`] — a typed admission rejection carrying the
//!   [`crate::ServiceError`] code and its detail values.

pub use lcc_obs::codec::CodecError;
use lcc_obs::codec::{fnv1a64_u64s, Reader, Writer};

/// First magic byte of every service message (`'L'`).
pub const MAGIC0: u8 = 0x4C;
/// Second magic byte (`'S'`).
pub const MAGIC1: u8 = 0x53;
/// Wire format version; bumped on any layout change.
pub const WIRE_VERSION: u8 = 1;

/// Message kind tag for requests.
pub const KIND_REQUEST: u8 = 0x01;
/// Message kind tag for responses.
pub const KIND_RESPONSE: u8 = 0x02;
/// Message kind tag for admission rejections.
pub const KIND_REJECT: u8 = 0x03;

/// Bytes of the common header: magic (2), version, kind.
pub const MESSAGE_HEADER: usize = 4;
/// Bytes of a request body up to (excluding) the variable input data:
/// tenant, request id, n, k, far_rate, sigma bits, flags, input kind,
/// element count.
pub const REQUEST_FIXED: usize = 4 + 8 + 4 + 4 + 4 + 8 + 1 + 1 + 4;
/// Bytes of a response body up to (excluding) the result samples.
pub const RESPONSE_FIXED: usize = 4 + 8 + 1 + 8 + 4;
/// Exact body length of a reject notice: tenant, request id, error code,
/// two detail values.
pub const REJECT_BODY: usize = 4 + 8 + 1 + 8 + 8;

/// Upper bound on the cells of one request/response field (256³). A corrupt
/// count must surface as a typed error, not an attempted huge allocation.
pub const MAX_FIELD_CELLS: u64 = 1 << 24;

/// Request flag: the tenant requires exact (full-fidelity) service; under
/// shed mode such a request is rejected rather than served degraded.
pub const FLAG_REQUIRE_EXACT: u8 = 0b0000_0001;
/// Request flag: reply with the checksum only, omitting the dense result
/// samples (what a closed-loop load generator wants).
pub const FLAG_CHECKSUM_ONLY: u8 = 0b0000_0010;
const FLAG_MASK: u8 = FLAG_REQUIRE_EXACT | FLAG_CHECKSUM_ONLY;

/// Input encoding tag: dense row-major `n³` samples.
pub const INPUT_DENSE: u8 = 0x00;
/// Input encoding tag: sparse `(x, y, z, value)` delta points.
pub const INPUT_DELTAS: u8 = 0x01;

/// A tenant's stable identity. Admission control keys queues and quotas on
/// it; the service never trusts it for anything beyond fair-share
/// bookkeeping (this is admission control, not authentication).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// The input field of one request.
#[derive(Clone, Debug, PartialEq)]
pub enum RequestInput {
    /// Dense row-major `n³` samples.
    Dense(Vec<f64>),
    /// Sparse delta points `(x, y, z, value)`; unnamed cells are zero.
    Deltas(Vec<(u32, u32, u32, f64)>),
}

/// One tenant's convolution request.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvolveRequest {
    /// Who is asking (admission-control key).
    pub tenant: TenantId,
    /// Tenant-chosen correlation id echoed on the response.
    pub request_id: u64,
    /// Grid size N (power of two).
    pub n: u32,
    /// Sub-domain size k (divides N).
    pub k: u32,
    /// Far-field sampling rate of the paper-default schedule.
    pub far_rate: u32,
    /// Gaussian kernel width. Part of the plan-cache key, so it is carried
    /// as exact bits, not a rounded decimal.
    pub sigma: f64,
    /// The request must not be served degraded (see
    /// [`FLAG_REQUIRE_EXACT`]).
    pub require_exact: bool,
    /// Reply with the checksum only (see [`FLAG_CHECKSUM_ONLY`]).
    pub checksum_only: bool,
    /// The input field.
    pub input: RequestInput,
}

impl ConvolveRequest {
    /// The plan-cache key fields as one tuple: two requests with equal keys
    /// share a convolver, its planner caches, and its per-corner phase
    /// tables.
    pub fn plan_key(&self) -> (u32, u32, u32, u64) {
        (self.n, self.k, self.far_rate, self.sigma.to_bits())
    }
}

/// The fidelity a request was actually served at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServedMode {
    /// Full-fidelity normal service.
    Normal,
    /// Served under load shedding: compressed at the schedule's coarsest
    /// uniform rate (`ConvolveMode::Degraded` applied to a fault-free run —
    /// availability over accuracy).
    Degraded,
}

impl ServedMode {
    fn to_u8(self) -> u8 {
        match self {
            ServedMode::Normal => 0,
            ServedMode::Degraded => 1,
        }
    }

    fn from_u8(v: u8) -> Result<Self, CodecError> {
        match v {
            0 => Ok(ServedMode::Normal),
            1 => Ok(ServedMode::Degraded),
            got => Err(CodecError::BadEnum {
                field: "served_mode",
                got: got as u64,
            }),
        }
    }
}

/// The served result of one request.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvolveResponse {
    /// Echoed from the request.
    pub tenant: TenantId,
    /// Echoed from the request.
    pub request_id: u64,
    /// The fidelity actually served.
    pub mode: ServedMode,
    /// FNV-1a checksum over the result's f64 bit patterns (also present
    /// when the samples are, so clients can verify transfer integrity).
    pub checksum: u64,
    /// The dense result samples; empty for checksum-only requests.
    pub result: Vec<f64>,
}

/// A typed admission rejection: the [`crate::ServiceError`] code plus its
/// two detail values (meaning depends on the code — see
/// [`crate::ServiceError::wire_parts`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RejectNotice {
    /// Echoed from the request.
    pub tenant: TenantId,
    /// Echoed from the request.
    pub request_id: u64,
    /// The [`crate::ServiceError`] wire code.
    pub code: u8,
    /// First detail value (e.g. the observed depth).
    pub a: u64,
    /// Second detail value (e.g. the configured bound).
    pub b: u64,
}

/// Any decoded service message.
#[derive(Clone, Debug, PartialEq)]
pub enum WireMessage {
    /// A [`ConvolveRequest`].
    Request(ConvolveRequest),
    /// A [`ConvolveResponse`].
    Response(ConvolveResponse),
    /// A [`RejectNotice`].
    Reject(RejectNotice),
}

fn header_into(buf: &mut Vec<u8>, kind: u8) {
    buf.extend_from_slice(&[MAGIC0, MAGIC1, WIRE_VERSION, kind]);
}

/// FNV-1a over a slice of f64 bit patterns — the response checksum.
pub fn fnv1a_f64(values: &[f64]) -> u64 {
    fnv1a64_u64s(values.iter().map(|v| v.to_bits()))
}

/// Encodes a request into `buf` (cleared first). Reusing one buffer per
/// connection keeps the steady-state submit path allocation-free.
pub fn encode_request_into(buf: &mut Vec<u8>, req: &ConvolveRequest) {
    buf.clear();
    header_into(buf, KIND_REQUEST);
    buf.put_u32(req.tenant.0);
    buf.put_u64(req.request_id);
    buf.put_u32(req.n);
    buf.put_u32(req.k);
    buf.put_u32(req.far_rate);
    buf.put_f64(req.sigma);
    let mut flags = 0u8;
    if req.require_exact {
        flags |= FLAG_REQUIRE_EXACT;
    }
    if req.checksum_only {
        flags |= FLAG_CHECKSUM_ONLY;
    }
    buf.push(flags);
    match &req.input {
        RequestInput::Dense(samples) => {
            buf.push(INPUT_DENSE);
            buf.put_u32(samples.len() as u32);
            buf.put_f64s(samples);
        }
        RequestInput::Deltas(points) => {
            buf.push(INPUT_DELTAS);
            buf.put_u32(points.len() as u32);
            for &(x, y, z, v) in points {
                buf.put_u32(x);
                buf.put_u32(y);
                buf.put_u32(z);
                buf.put_f64(v);
            }
        }
    }
}

/// Encodes a request into a fresh buffer.
pub fn encode_request(req: &ConvolveRequest) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_request_into(&mut buf, req);
    buf
}

/// Encodes a response into `buf` (cleared first).
pub fn encode_response_into(buf: &mut Vec<u8>, resp: &ConvolveResponse) {
    buf.clear();
    header_into(buf, KIND_RESPONSE);
    buf.put_u32(resp.tenant.0);
    buf.put_u64(resp.request_id);
    buf.push(resp.mode.to_u8());
    buf.put_u64(resp.checksum);
    buf.put_u32(resp.result.len() as u32);
    buf.put_f64s(&resp.result);
}

/// Encodes a response into a fresh buffer.
pub fn encode_response(resp: &ConvolveResponse) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_response_into(&mut buf, resp);
    buf
}

/// Encodes a reject notice.
pub fn encode_reject(reject: &RejectNotice) -> Vec<u8> {
    let mut buf = Vec::with_capacity(MESSAGE_HEADER + REJECT_BODY);
    header_into(&mut buf, KIND_REJECT);
    buf.put_u32(reject.tenant.0);
    buf.put_u64(reject.request_id);
    buf.push(reject.code);
    buf.put_u64(reject.a);
    buf.put_u64(reject.b);
    buf
}

/// Fails with [`CodecError::Oversize`] when `cells` exceeds the wire bound.
fn within_bound(cells: u64) -> Result<(), CodecError> {
    if cells > MAX_FIELD_CELLS {
        return Err(CodecError::Oversize {
            cells,
            max: MAX_FIELD_CELLS,
        });
    }
    Ok(())
}

fn decode_request_body(mut r: Reader<'_>) -> Result<ConvolveRequest, CodecError> {
    r.need(REQUEST_FIXED)?;
    let tenant = TenantId(r.u32()?);
    let request_id = r.u64()?;
    let n = r.u32()?;
    let k = r.u32()?;
    let far_rate = r.u32()?;
    let sigma = r.f64()?;
    let flags = r.u8()?;
    if flags & !FLAG_MASK != 0 {
        return Err(CodecError::BadEnum {
            field: "flags",
            got: flags as u64,
        });
    }
    let input_kind = r.u8()?;
    let count = r.u32()? as u64;
    // The grid bound applies to every input encoding: a sparse deltas
    // request names cells of the same n³ grid a dense one carries, and
    // serving it materializes that grid. u128 keeps n³ exact for any
    // u32 `n` (n³ overflows u64 from n = 2²², which would otherwise wrap
    // a huge grid back under the bound).
    let cells = u64::try_from((n as u128).pow(3)).unwrap_or(u64::MAX);
    within_bound(cells)?;
    let input = match input_kind {
        INPUT_DENSE => {
            if count != cells {
                return Err(CodecError::Inconsistent {
                    field: "dense_count",
                    got: count,
                    want: cells,
                });
            }
            let samples = r.f64s(count as usize)?;
            r.finish()?;
            RequestInput::Dense(samples)
        }
        INPUT_DELTAS => {
            within_bound(count)?;
            // The whole body is length-checked before any coordinate is.
            let mut d = Reader::new(r.bytes(count as usize * 20)?);
            r.finish()?;
            let mut points = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let (x, y, z) = (d.u32()?, d.u32()?, d.u32()?);
                for c in [x, y, z] {
                    if c >= n {
                        return Err(CodecError::Inconsistent {
                            field: "delta_coord",
                            got: c as u64,
                            want: n as u64,
                        });
                    }
                }
                points.push((x, y, z, d.f64()?));
            }
            RequestInput::Deltas(points)
        }
        got => {
            return Err(CodecError::BadEnum {
                field: "input_kind",
                got: got as u64,
            })
        }
    };
    Ok(ConvolveRequest {
        tenant,
        request_id,
        n,
        k,
        far_rate,
        sigma,
        require_exact: flags & FLAG_REQUIRE_EXACT != 0,
        checksum_only: flags & FLAG_CHECKSUM_ONLY != 0,
        input,
    })
}

fn decode_response_body(mut r: Reader<'_>) -> Result<ConvolveResponse, CodecError> {
    r.need(RESPONSE_FIXED)?;
    let tenant = TenantId(r.u32()?);
    let request_id = r.u64()?;
    let mode = ServedMode::from_u8(r.u8()?)?;
    let checksum = r.u64()?;
    let count = r.u32()? as u64;
    within_bound(count)?;
    let result = r.f64s(count as usize)?;
    r.finish()?;
    Ok(ConvolveResponse {
        tenant,
        request_id,
        mode,
        checksum,
        result,
    })
}

fn decode_reject_body(mut r: Reader<'_>) -> Result<RejectNotice, CodecError> {
    r.need(REJECT_BODY)?;
    let reject = RejectNotice {
        tenant: TenantId(r.u32()?),
        request_id: r.u64()?,
        code: r.u8()?,
        a: r.u64()?,
        b: r.u64()?,
    };
    r.finish()?;
    Ok(reject)
}

/// Decodes any service message.
pub fn decode_message(bytes: &[u8]) -> Result<WireMessage, CodecError> {
    let mut r = Reader::new(bytes);
    r.need(MESSAGE_HEADER)?;
    let magic = [r.u8()?, r.u8()?];
    if magic != [MAGIC0, MAGIC1] {
        return Err(CodecError::BadMagic { got: magic });
    }
    match r.u8()? {
        WIRE_VERSION => {}
        got => return Err(CodecError::BadVersion { got }),
    }
    match r.u8()? {
        KIND_REQUEST => decode_request_body(r).map(WireMessage::Request),
        KIND_RESPONSE => decode_response_body(r).map(WireMessage::Response),
        KIND_REJECT => decode_reject_body(r).map(WireMessage::Reject),
        got => Err(CodecError::BadKind { got }),
    }
}

/// Decodes a message that must be a request (the server's inbound path).
pub fn decode_request(bytes: &[u8]) -> Result<ConvolveRequest, CodecError> {
    match decode_message(bytes)? {
        WireMessage::Request(req) => Ok(req),
        WireMessage::Response(_) => Err(CodecError::BadKind { got: KIND_RESPONSE }),
        WireMessage::Reject(_) => Err(CodecError::BadKind { got: KIND_REJECT }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> ConvolveRequest {
        ConvolveRequest {
            tenant: TenantId(7),
            request_id: 99,
            n: 16,
            k: 4,
            far_rate: 8,
            sigma: 1.25,
            require_exact: false,
            checksum_only: true,
            input: RequestInput::Deltas(vec![(1, 2, 3, 1.0), (5, 5, 5, -2.5)]),
        }
    }

    #[test]
    fn request_round_trips() {
        let req = request();
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).unwrap(), req);
        assert_eq!(decode_message(&bytes).unwrap(), WireMessage::Request(req));
    }

    #[test]
    fn dense_request_round_trips() {
        let n = 4u32;
        let req = ConvolveRequest {
            n,
            k: 2,
            input: RequestInput::Dense((0..n.pow(3)).map(|i| i as f64 * 0.5).collect()),
            ..request()
        };
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    #[test]
    fn response_and_reject_round_trip() {
        let resp = ConvolveResponse {
            tenant: TenantId(3),
            request_id: 12,
            mode: ServedMode::Degraded,
            checksum: 0xDEAD_BEEF,
            result: vec![1.0, -0.5, f64::MIN_POSITIVE],
        };
        let bytes = encode_response(&resp);
        assert_eq!(decode_message(&bytes).unwrap(), WireMessage::Response(resp));
        let reject = RejectNotice {
            tenant: TenantId(3),
            request_id: 12,
            code: 1,
            a: 64,
            b: 64,
        };
        let bytes = encode_reject(&reject);
        assert_eq!(bytes.len(), MESSAGE_HEADER + REJECT_BODY);
        assert_eq!(decode_message(&bytes).unwrap(), WireMessage::Reject(reject));
    }

    #[test]
    fn header_errors_are_typed() {
        assert_eq!(
            decode_message(&[]).unwrap_err(),
            CodecError::Truncated {
                len: 0,
                expected: MESSAGE_HEADER
            }
        );
        assert_eq!(
            decode_message(&[0, 0, WIRE_VERSION, KIND_REQUEST]).unwrap_err(),
            CodecError::BadMagic { got: [0, 0] }
        );
        assert_eq!(
            decode_message(&[MAGIC0, MAGIC1, 99, KIND_REQUEST]).unwrap_err(),
            CodecError::BadVersion { got: 99 }
        );
        assert_eq!(
            decode_message(&[MAGIC0, MAGIC1, WIRE_VERSION, 0x55]).unwrap_err(),
            CodecError::BadKind { got: 0x55 }
        );
    }

    #[test]
    fn inconsistent_dense_count_is_rejected() {
        let mut req = request();
        req.input = RequestInput::Dense(vec![0.0; 8]); // n = 16 wants 4096
        let bytes = encode_request(&req);
        assert_eq!(
            decode_request(&bytes).unwrap_err(),
            CodecError::Inconsistent {
                field: "dense_count",
                got: 8,
                want: 4096
            }
        );
    }

    #[test]
    fn out_of_grid_delta_is_rejected() {
        let mut req = request();
        req.input = RequestInput::Deltas(vec![(16, 0, 0, 1.0)]);
        let bytes = encode_request(&req);
        assert_eq!(
            decode_request(&bytes).unwrap_err(),
            CodecError::Inconsistent {
                field: "delta_coord",
                got: 16,
                want: 16
            }
        );
    }

    #[test]
    fn oversize_count_never_allocates() {
        // A corrupt count field claiming u32::MAX deltas must come back as
        // Oversize before any allocation proportional to it.
        let mut bytes = encode_request(&request());
        let at = MESSAGE_HEADER + REQUEST_FIXED - 4;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_request(&bytes).unwrap_err(),
            CodecError::Oversize {
                cells: u32::MAX as u64,
                max: MAX_FIELD_CELLS
            }
        );
    }

    #[test]
    fn oversize_grid_is_rejected_for_every_input_kind() {
        // A few-byte deltas request claiming a huge grid must be stopped
        // by the n³ bound at decode — never passed through to an
        // n³-proportional allocation downstream.
        let req = ConvolveRequest {
            n: 1 << 20,
            k: 1 << 18,
            ..request()
        };
        assert_eq!(
            decode_request(&encode_request(&req)).unwrap_err(),
            CodecError::Oversize {
                cells: 1u64 << 60,
                max: MAX_FIELD_CELLS
            }
        );
        // n³ overflowing u64 must still report Oversize, not wrap back
        // under the bound.
        let req = ConvolveRequest {
            n: u32::MAX,
            input: RequestInput::Deltas(Vec::new()),
            ..request()
        };
        assert_eq!(
            decode_request(&encode_request(&req)).unwrap_err(),
            CodecError::Oversize {
                cells: u64::MAX,
                max: MAX_FIELD_CELLS
            }
        );
        // The same ceiling still guards the dense encoding.
        let req = ConvolveRequest {
            n: 1 << 11,
            input: RequestInput::Dense(Vec::new()),
            ..request()
        };
        assert!(matches!(
            decode_request(&encode_request(&req)).unwrap_err(),
            CodecError::Oversize { .. }
        ));
    }

    #[test]
    fn message_goldens() {
        use lcc_obs::codec::hex;
        let dense = ConvolveRequest {
            n: 2,
            k: 1,
            far_rate: 2,
            require_exact: true,
            checksum_only: false,
            input: RequestInput::Dense((0..8).map(|i| i as f64).collect()),
            ..request()
        };
        assert_eq!(
            hex(&encode_request(&dense)),
            "4c53010107000000630000000000000002000000010000000200000000000000\
             0000f43f0100080000000000000000000000000000000000f03f000000000000\
             0040000000000000084000000000000010400000000000001440000000000000\
             18400000000000001c40"
        );
        assert_eq!(
            hex(&encode_request(&request())),
            "4c53010107000000630000000000000010000000040000000800000000000000\
             0000f43f020102000000010000000200000003000000000000000000f03f0500\
             0000050000000500000000000000000004c0"
        );
        let resp = ConvolveResponse {
            tenant: TenantId(3),
            request_id: 12,
            mode: ServedMode::Degraded,
            checksum: 0xDEAD_BEEF,
            result: vec![1.0, -0.5],
        };
        assert_eq!(
            hex(&encode_response(&resp)),
            "4c530102030000000c0000000000000001efbeadde0000000002000000000000\
             000000f03f000000000000e0bf"
        );
        let reject = RejectNotice {
            tenant: TenantId(3),
            request_id: 12,
            code: 1,
            a: 64,
            b: 64,
        };
        assert_eq!(
            hex(&encode_reject(&reject)),
            "4c530103030000000c0000000000000001400000000000000040000000000000\
             00"
        );
        assert_eq!(fnv1a_f64(&[1.0, 2.0]), 0x2f12_1cea_1c5c_97f8);
    }

    #[test]
    fn fnv_checksum_is_order_sensitive() {
        assert_ne!(fnv1a_f64(&[1.0, 2.0]), fnv1a_f64(&[2.0, 1.0]));
        assert_eq!(fnv1a_f64(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
