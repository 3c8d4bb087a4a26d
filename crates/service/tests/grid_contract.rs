//! Grids the configuration builder accepts but the octree pipeline cannot
//! run — `n` not a power of two, or `n/k < 2` — are refused with a typed
//! reject before admission. Against a live server each such request gets
//! [`ServiceError::UnsupportedGrid`]'s wire code with its `n` and `k`, and
//! a valid request from another tenant is still answered after it.

use lcc_service::error::REJECT_UNSUPPORTED_GRID;
use lcc_service::wire::{
    decode_message, encode_request, ConvolveRequest, RequestInput, TenantId, WireMessage,
};
use lcc_service::{PlanRegistry, ServiceConfig, ServiceError, ServiceServer};

fn request(tenant: u32, id: u64, n: u32, k: u32) -> ConvolveRequest {
    ConvolveRequest {
        tenant: TenantId(tenant),
        request_id: id,
        n,
        k,
        far_rate: 8,
        sigma: 1.0,
        require_exact: false,
        checksum_only: true,
        input: RequestInput::Deltas(vec![(0, 0, 0, 1.0)]),
    }
}

#[test]
fn unsupported_grids_are_rejected_and_the_server_keeps_serving() {
    let server = ServiceServer::spawn(ServiceConfig::default());
    let client = server.client();
    let call = |req: &ConvolveRequest| {
        let reply = client
            .call_bytes(encode_request(req))
            .expect("server is up");
        decode_message(&reply).expect("a well-formed reply")
    };
    for (id, (n, k)) in [(16, 16), (24, 8), (1, 1)].into_iter().enumerate() {
        let bad = request(1, id as u64, n, k);
        assert_eq!(
            PlanRegistry::validate(&bad),
            Err(ServiceError::UnsupportedGrid { n, k })
        );
        match call(&bad) {
            WireMessage::Reject(r) => {
                assert_eq!((r.tenant, r.request_id), (TenantId(1), id as u64));
                assert_eq!(r.code, REJECT_UNSUPPORTED_GRID, "n={n}, k={k}");
                assert_eq!((r.a, r.b), (u64::from(n), u64::from(k)));
            }
            other => panic!("n={n}, k={k}: expected a reject, got {other:?}"),
        }
        // Another tenant's valid request is still answered.
        match call(&request(2, id as u64, 16, 4)) {
            WireMessage::Response(resp) => {
                assert_eq!((resp.tenant, resp.request_id), (TenantId(2), id as u64));
            }
            other => panic!("after n={n}, k={k}: expected a response, got {other:?}"),
        }
    }
    let report = server.shutdown();
    assert_eq!(
        report.admission.offered, 3,
        "rejected grids are never offered"
    );
    assert!(report.admission.balanced());
}
