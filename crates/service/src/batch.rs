//! Coalesced batch dispatch onto the shared worker pool.
//!
//! Small requests are the service's common case, and dispatching each one
//! alone leaves the pool idle between them. The coalescer flattens a batch
//! of admitted requests that share a [`PlanEntry`] into one task list of
//! `(request, sub-domain)` pencils and runs the whole list through a
//! single `par_iter` — one fork/join per *batch*, with every worker busy
//! across request boundaries.
//!
//! Coalescing must be invisible in the numerics: each request's domains
//! are compressed by exactly the per-domain path its solo execution uses
//! and folded in ascending domain-id order (the one order every
//! participant can reproduce — the same rule the accumulation exchange
//! follows), so a batched response is **bit-identical** to the solo
//! response. `crates/service/tests/batch_identity.rs` pins that contract
//! against [`serve_solo`].
// lcc-lint: hot-path — per-batch dispatch; steady-state allocations are
// per-request buffers, each justified below.

use rayon::prelude::*;

use lcc_core::prelude::*;
use lcc_obs::metrics as obs;

use crate::registry::PlanEntry;
use crate::wire::{fnv1a_f64, ConvolveRequest, ConvolveResponse, RequestInput, ServedMode};

/// Materializes a request's input field as a dense grid. The wire's dense
/// sample order is defined to be [`Grid3`]'s row-major order.
pub fn input_grid(req: &ConvolveRequest) -> Grid3<f64> {
    let n = req.n as usize;
    match &req.input {
        // lcc-lint: allow(alloc) — the request's own field buffer.
        RequestInput::Dense(samples) => Grid3::from_vec((n, n, n), samples.clone()),
        RequestInput::Deltas(points) => {
            let mut grid = Grid3::zeros((n, n, n));
            for &(x, y, z, v) in points {
                grid[(x as usize, y as usize, z as usize)] += v;
            }
            grid
        }
    }
}

fn convolve_mode(mode: ServedMode) -> ConvolveMode {
    match mode {
        ServedMode::Normal => ConvolveMode::Normal,
        ServedMode::Degraded => ConvolveMode::Degraded,
    }
}

fn respond(req: &ConvolveRequest, mode: ServedMode, out: Grid3<f64>) -> ConvolveResponse {
    let checksum = fnv1a_f64(out.as_slice());
    let result = if req.checksum_only {
        Vec::default()
    } else {
        out.into_vec()
    };
    ConvolveResponse {
        tenant: req.tenant,
        request_id: req.request_id,
        mode,
        checksum,
        result,
    }
}

/// Serves one request alone — the reference execution the coalesced path
/// must match bit-for-bit: [`ConvolveSession::convolve`] in the session of
/// the served mode, so degraded service compresses every sub-domain at the
/// schedule's coarsest rate.
pub fn serve_solo(entry: &PlanEntry, req: &ConvolveRequest, mode: ServedMode) -> ConvolveResponse {
    let _sp = lcc_obs::span("service_serve_solo");
    let session = entry.convolver().session(convolve_mode(mode));
    let out = session.convolve(&input_grid(req), entry.kernel()).0;
    obs::SERVICE_REQUESTS_COMPLETED.incr();
    respond(req, mode, out)
}

/// Dispatches a coalesced batch of requests sharing one [`PlanEntry`].
///
/// All `(request, sub-domain)` pencils go through a single `par_iter` on
/// the shared pool; results come back per request in ascending domain
/// order, so each response is bit-identical to [`serve_solo`] of the same
/// `(request, mode)` pair. Responses are returned in `items` order.
pub fn dispatch_batch(
    entry: &PlanEntry,
    items: &[(ConvolveRequest, ServedMode)],
) -> Vec<ConvolveResponse> {
    let _sp = lcc_obs::span("service_dispatch_batch");
    obs::SERVICE_BATCHES.incr();
    let conv = entry.convolver();
    let kernel = entry.kernel();
    let domains = decompose_uniform(entry.n(), conv.config().k);
    let nd = domains.len();
    // Per-request state built once, outside the hot fan-out.
    // lcc-lint: allow(alloc) — per-batch setup buffers.
    let grids: Vec<Grid3<f64>> = items.par_iter().map(|(req, _)| input_grid(req)).collect();
    let sessions: Vec<ConvolveSession<'_>> = items
        .iter()
        .map(|(_, mode)| conv.session(convolve_mode(*mode)))
        .collect();
    // The coalesced fan-out: one flattened task list, one fork/join.
    let tasks = items.len() * nd;
    let fields: Vec<Option<CompressedField>> = (0..tasks)
        .into_par_iter()
        .map(|t| {
            let (i, d) = (t / nd, t % nd);
            sessions[i].compress_domain(&grids[i], &domains[d], kernel)
        })
        .collect();
    // Regroup: task order is (item-major, ascending domain id), so each
    // item's chunk is already in the canonical fold order.
    let mut per_item = fields.into_iter();
    items
        .iter()
        .zip(&sessions)
        .map(|((req, mode), session)| {
            // lcc-lint: allow(alloc) — per-request contribution list.
            let contributions: Vec<CompressedField> =
                per_item.by_ref().take(nd).flatten().collect();
            let out = session.accumulate_fields(&contributions);
            obs::SERVICE_REQUESTS_COMPLETED.incr();
            respond(req, *mode, out)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::PlanRegistry;
    use crate::wire::TenantId;

    fn delta_request(id: u64, x: u32, v: f64) -> ConvolveRequest {
        ConvolveRequest {
            tenant: TenantId(id as u32),
            request_id: id,
            n: 16,
            k: 4,
            far_rate: 8,
            sigma: 1.0,
            require_exact: false,
            checksum_only: false,
            input: RequestInput::Deltas(vec![(x, 5, 5, v)]),
        }
    }

    #[test]
    fn batch_of_one_matches_solo_bitwise() {
        let reg = PlanRegistry::new();
        let req = delta_request(1, 3, 1.5);
        let entry = reg.entry_for(&req).unwrap();
        let solo = serve_solo(&entry, &req, ServedMode::Normal);
        let batched = dispatch_batch(&entry, &[(req, ServedMode::Normal)]);
        assert_eq!(batched.len(), 1);
        assert_eq!(batched[0], solo);
        assert!(!solo.result.is_empty());
        assert_eq!(solo.checksum, fnv1a_f64(&solo.result));
    }

    #[test]
    fn mixed_mode_batch_serves_each_request_at_its_ticketed_fidelity() {
        let reg = PlanRegistry::new();
        let a = delta_request(1, 3, 1.5);
        let b = delta_request(2, 9, -2.0);
        let entry = reg.entry_for(&a).unwrap();
        let got = dispatch_batch(
            &entry,
            &[
                (a.clone(), ServedMode::Normal),
                (b.clone(), ServedMode::Degraded),
            ],
        );
        assert_eq!(got[0], serve_solo(&entry, &a, ServedMode::Normal));
        assert_eq!(got[1], serve_solo(&entry, &b, ServedMode::Degraded));
        assert_eq!(got[0].mode, ServedMode::Normal);
        assert_eq!(got[1].mode, ServedMode::Degraded);
    }
}
