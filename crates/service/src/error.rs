//! The service's typed error surface.
//!
//! Everything the server can refuse is a [`ServiceError`] value — admission
//! rejections ([`ServiceError::QueueFull`], [`ServiceError::QuotaExceeded`],
//! [`ServiceError::Shedding`]), reply-correlation conflicts
//! ([`ServiceError::DuplicateRequest`]), malformed wire input
//! ([`ServiceError::Codec`]), semantically invalid plan parameters
//! ([`ServiceError::Config`]), and grids the pipeline cannot run
//! ([`ServiceError::UnsupportedGrid`]). No stringly errors, no `Box<dyn Error>`:
//! the lcc-lint `typed-error` rule scans this crate.

use lcc_core::prelude::ConfigError;

use crate::wire::{CodecError, RejectNotice, TenantId};

/// Why the service refused a request.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// The tenant's bounded queue is at capacity; retry after completions
    /// drain it. Backpressure, not failure.
    QueueFull {
        tenant: TenantId,
        depth: usize,
        capacity: usize,
    },
    /// The tenant has `in_flight` admitted-but-unfinished requests, at its
    /// configured quota. Per-tenant isolation: one tenant saturating the
    /// server cannot starve the rest.
    QuotaExceeded {
        tenant: TenantId,
        in_flight: usize,
        quota: usize,
    },
    /// The server is load-shedding and the request demanded exact service
    /// (`require_exact`); degraded service was the only thing on offer.
    Shedding { tenant: TenantId, queued: usize },
    /// The tenant reused a `request_id` it already has in flight. The
    /// server front correlates replies to waiting callers by
    /// `(tenant, request_id)`, so an id may not be reused until its
    /// predecessor's reply has been delivered — otherwise two callers
    /// could have their replies swapped.
    DuplicateRequest { tenant: TenantId, request_id: u64 },
    /// The request bytes did not decode.
    Codec(CodecError),
    /// The plan parameters were structurally valid on the wire but
    /// semantically invalid (bad `n`/`k` divisibility, zero rate, …).
    Config(ConfigError),
    /// A grid the configuration builder accepts but the octree pipeline
    /// cannot run: `n` not a power of two, or fewer than two sub-domains
    /// per axis (`n/k < 2`, so a sub-domain's response region would wrap
    /// the periodic grid).
    UnsupportedGrid { n: u32, k: u32 },
    /// The server is stopping and no longer accepts work.
    Stopped,
}

/// Wire codes for [`RejectNotice::code`].
pub const REJECT_QUEUE_FULL: u8 = 1;
/// Wire code: [`ServiceError::QuotaExceeded`].
pub const REJECT_QUOTA: u8 = 2;
/// Wire code: [`ServiceError::Shedding`].
pub const REJECT_SHEDDING: u8 = 3;
/// Wire code: [`ServiceError::Config`] (details not representable in two
/// integers; the message text is server-side only).
pub const REJECT_CONFIG: u8 = 4;
/// Wire code: [`ServiceError::Stopped`].
pub const REJECT_STOPPED: u8 = 5;
/// Wire code: [`ServiceError::DuplicateRequest`].
pub const REJECT_DUPLICATE: u8 = 6;
/// Wire code: [`ServiceError::UnsupportedGrid`], with `n` and `k`.
pub const REJECT_UNSUPPORTED_GRID: u8 = 7;

impl ServiceError {
    /// `(code, a, b)` — the typed rejection flattened for the wire.
    pub fn wire_parts(&self) -> (u8, u64, u64) {
        match self {
            ServiceError::QueueFull {
                depth, capacity, ..
            } => (REJECT_QUEUE_FULL, *depth as u64, *capacity as u64),
            ServiceError::QuotaExceeded {
                in_flight, quota, ..
            } => (REJECT_QUOTA, *in_flight as u64, *quota as u64),
            ServiceError::Shedding { queued, .. } => (REJECT_SHEDDING, *queued as u64, 0),
            ServiceError::DuplicateRequest { request_id, .. } => (REJECT_DUPLICATE, *request_id, 0),
            ServiceError::Config(_) => (REJECT_CONFIG, 0, 0),
            ServiceError::UnsupportedGrid { n, k } => {
                (REJECT_UNSUPPORTED_GRID, u64::from(*n), u64::from(*k))
            }
            // A codec failure cannot echo ids it failed to decode; it is
            // reported per-connection, not per-request.
            ServiceError::Codec(e) => match e {
                CodecError::Truncated { len, expected } => {
                    (REJECT_CONFIG, *len as u64, *expected as u64)
                }
                _ => (REJECT_CONFIG, 0, 0),
            },
            ServiceError::Stopped => (REJECT_STOPPED, 0, 0),
        }
    }

    /// The rejection as a wire notice addressed to `(tenant, request_id)`.
    pub fn to_reject(&self, tenant: TenantId, request_id: u64) -> RejectNotice {
        let (code, a, b) = self.wire_parts();
        RejectNotice {
            tenant,
            request_id,
            code,
            a,
            b,
        }
    }

    /// Whether the rejection is a transient backpressure signal the tenant
    /// should retry (vs. a permanent request defect).
    pub fn is_backpressure(&self) -> bool {
        matches!(
            self,
            ServiceError::QueueFull { .. }
                | ServiceError::QuotaExceeded { .. }
                | ServiceError::Shedding { .. }
        )
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::QueueFull {
                tenant,
                depth,
                capacity,
            } => write!(f, "{tenant} queue full ({depth}/{capacity})"),
            ServiceError::QuotaExceeded {
                tenant,
                in_flight,
                quota,
            } => write!(f, "{tenant} quota exceeded ({in_flight}/{quota} in flight)"),
            ServiceError::Shedding { tenant, queued } => write!(
                f,
                "shedding load ({queued} queued): {tenant} required exact service"
            ),
            ServiceError::DuplicateRequest { tenant, request_id } => {
                write!(f, "{tenant} request id {request_id} is already in flight")
            }
            ServiceError::Codec(e) => write!(f, "undecodable request: {e}"),
            ServiceError::Config(e) => write!(f, "invalid plan parameters: {e}"),
            ServiceError::UnsupportedGrid { n, k } => write!(
                f,
                "grid n={n}, k={k} cannot run: the octree needs a power-of-two n and n/k >= 2"
            ),
            ServiceError::Stopped => write!(f, "service stopped"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Codec(e) => Some(e),
            ServiceError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for ServiceError {
    fn from(e: CodecError) -> Self {
        ServiceError::Codec(e)
    }
}

impl From<ConfigError> for ServiceError {
    fn from(e: ConfigError) -> Self {
        ServiceError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_parts_round_trip_through_reject_notice() {
        let e = ServiceError::QueueFull {
            tenant: TenantId(4),
            depth: 64,
            capacity: 64,
        };
        let notice = e.to_reject(TenantId(4), 17);
        assert_eq!(notice.code, REJECT_QUEUE_FULL);
        assert_eq!((notice.a, notice.b), (64, 64));
        assert_eq!(notice.request_id, 17);
        assert!(e.is_backpressure());
        assert!(!ServiceError::Stopped.is_backpressure());
    }
}
