//! The multi-tenant session server.
//!
//! Two layers:
//!
//! * [`ConvolveService`] — the deterministic, synchronous core: `submit`
//!   runs admission and enqueues, `pump` drains the queue in coalesced
//!   batches onto the shared worker pool. Tests drive this layer directly
//!   (no threads, no timing), which is what makes admission behaviour —
//!   queue-full rejection, quota enforcement, shed entry/exit — exactly
//!   reproducible.
//! * [`ServiceServer`] / [`ServiceClient`] — a threaded front speaking the
//!   versioned binary codec over in-process channels: every call crosses
//!   the wire format both ways (requests decode on the server, responses
//!   and rejects encode back), so the closed-loop bench exercises exactly
//!   the bytes a socket deployment would. Under load the server drains
//!   its inbox in bursts, which is how queue depth builds and shed mode
//!   engages.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

use parking_lot::Mutex;

use crate::admission::{Admission, AdmissionConfig, AdmissionStats};
use crate::batch::dispatch_batch;
use crate::error::ServiceError;
use crate::registry::{PlanKey, PlanRegistry};
use crate::wire::{
    decode_request, encode_reject, encode_response_into, ConvolveRequest, ConvolveResponse,
    RejectNotice, ServedMode, TenantId,
};

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Admission-control thresholds.
    pub admission: AdmissionConfig,
    /// Max requests coalesced into one dispatch.
    pub max_batch: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            admission: AdmissionConfig::default(),
            max_batch: 16,
        }
    }
}

/// End-of-run accounting: admission stats plus plan-cache efficiency.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceReport {
    /// Admission counters (exact: `admitted + shed + rejected == offered`).
    pub admission: AdmissionStats,
    /// Plan-cache hits across all tenants.
    pub plan_hits: u64,
    /// Plans built (cache misses). Flat in a warm steady state.
    pub plan_builds: u64,
    /// Plans evicted from the bounded registry.
    pub plan_evictions: u64,
    /// Requests served (responses produced).
    pub served: u64,
}

/// One pump round's output: responses for served requests plus reject
/// notices for any requests dropped at dispatch time (each already
/// completion-accounted against its tenant's quota).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Dispatched {
    /// Served responses, in dispatch order.
    pub responses: Vec<ConvolveResponse>,
    /// Rejects for requests whose plan entry could not be produced.
    pub rejects: Vec<RejectNotice>,
}

impl Dispatched {
    /// Whether the round produced nothing (the queue was empty).
    pub fn is_empty(&self) -> bool {
        self.responses.is_empty() && self.rejects.is_empty()
    }
}

/// The deterministic service core.
pub struct ConvolveService {
    cfg: ServiceConfig,
    registry: PlanRegistry,
    admission: Admission,
    queue: Mutex<VecDeque<(ConvolveRequest, ServedMode)>>,
    stopped: AtomicBool,
    served: Mutex<u64>,
}

impl ConvolveService {
    /// A service with the given configuration.
    pub fn new(cfg: ServiceConfig) -> Self {
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        ConvolveService {
            admission: Admission::new(cfg.admission),
            registry: PlanRegistry::new(),
            queue: Mutex::new(VecDeque::new()),
            stopped: AtomicBool::new(false),
            served: Mutex::new(0),
            cfg,
        }
    }

    /// The admission controller (stats, shed state).
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// The tenant-shared plan registry.
    pub fn registry(&self) -> &PlanRegistry {
        &self.registry
    }

    /// Offers one typed request: plan parameters are cheaply validated,
    /// admission decides, and only then is the shared plan entry built
    /// (warmed) for the admitted request, which joins the dispatch queue
    /// at its ticketed fidelity.
    pub fn submit(&self, req: ConvolveRequest) -> Result<(), ServiceError> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(ServiceError::Stopped);
        }
        // Cheap validation before admission: a malformed request costs a
        // typed error — never a queue slot, and never a plan build an
        // unadmitted tenant could use to bloat the shared registry.
        PlanRegistry::validate(&req)?;
        let ticket = self.admission.offer(req.tenant, req.require_exact)?;
        // Only admitted work may build (and cache) a plan entry.
        if let Err(e) = self.registry.entry_for(&req) {
            // Validation passed, so in practice this cannot fail; if it
            // ever does, walk the admission back out (queued → dispatched
            // → complete) so the tenant's quota is not leaked.
            self.admission.on_dispatch(req.tenant);
            self.admission.on_complete(req.tenant);
            return Err(e);
        }
        self.queue.lock().push_back((req, ticket.mode));
        Ok(())
    }

    /// Drains up to `max_batch` queued requests, coalesces them by plan
    /// key, and dispatches each group as one batched fan-out. Responses
    /// come back in dequeue order within each group; groups in first-seen
    /// key order. Returns an empty round when the queue is empty.
    pub fn pump(&self) -> Dispatched {
        let drained: Vec<(ConvolveRequest, ServedMode)> = {
            let mut q = self.queue.lock();
            let take = self.cfg.max_batch.min(q.len());
            q.drain(..take).collect()
        };
        if drained.is_empty() {
            return Dispatched::default();
        }
        // Group by plan key, preserving first-seen order for determinism.
        let mut groups: Vec<(PlanKey, Vec<(ConvolveRequest, ServedMode)>)> = Vec::default();
        for (req, mode) in drained {
            self.admission.on_dispatch(req.tenant);
            let key = req.plan_key();
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, items)) => items.push((req, mode)),
                None => groups.push((key, Vec::from([(req, mode)]))),
            }
        }
        let mut out = Dispatched::default();
        for (_, items) in groups {
            // The entry was built at submit; a miss here (evicted since)
            // just rebuilds it, so an error means the build itself broke.
            // Either way every dispatched request is completion-accounted
            // and its waiter gets a reply — a dropped group must not leak
            // the tenants' in-flight quota or leave callers blocked.
            match self.registry.entry_for(&items[0].0) {
                Ok(entry) => {
                    out.responses.extend(dispatch_batch(&entry, &items));
                    for (req, _) in &items {
                        self.admission.on_complete(req.tenant);
                    }
                }
                Err(e) => {
                    for (req, _) in &items {
                        self.admission.on_complete(req.tenant);
                        out.rejects.push(e.to_reject(req.tenant, req.request_id));
                    }
                }
            }
        }
        *self.served.lock() += out.responses.len() as u64;
        out
    }

    /// Drains the queue completely (repeated [`Self::pump`] rounds).
    pub fn drain(&self) -> Dispatched {
        let mut out = Dispatched::default();
        loop {
            let round = self.pump();
            if round.is_empty() {
                return out;
            }
            out.responses.extend(round.responses);
            out.rejects.extend(round.rejects);
        }
    }

    /// Stops accepting new work; queued requests may still be pumped.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
    }

    /// End-of-run accounting snapshot.
    pub fn report(&self) -> ServiceReport {
        ServiceReport {
            admission: self.admission.stats(),
            plan_hits: self.registry.hits(),
            plan_builds: self.registry.builds(),
            plan_evictions: self.registry.evictions(),
            served: *self.served.lock(),
        }
    }
}

enum ServerMsg {
    Call {
        bytes: Vec<u8>,
        reply: mpsc::Sender<Vec<u8>>,
    },
    Shutdown,
}

/// A handle for submitting encoded requests to a running [`ServiceServer`].
/// Cheap to clone; one per tenant thread in the load generator.
#[derive(Clone)]
pub struct ServiceClient {
    tx: mpsc::Sender<ServerMsg>,
}

impl ServiceClient {
    /// Sends one encoded request and blocks for the encoded reply (a
    /// response or a reject notice). `Err(Stopped)` once the server is
    /// gone.
    pub fn call_bytes(&self, bytes: Vec<u8>) -> Result<Vec<u8>, ServiceError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.tx
            .send(ServerMsg::Call {
                bytes,
                reply: reply_tx,
            })
            .map_err(|_| ServiceError::Stopped)?;
        reply_rx.recv().map_err(|_| ServiceError::Stopped)
    }
}

/// The threaded server front: one service thread owning a
/// [`ConvolveService`], draining its inbox in bursts (which is where
/// coalescing and queue depth come from) and replying in wire bytes.
pub struct ServiceServer {
    tx: mpsc::Sender<ServerMsg>,
    handle: Option<thread::JoinHandle<ServiceReport>>,
}

impl ServiceServer {
    /// Spawns the service thread.
    pub fn spawn(cfg: ServiceConfig) -> Self {
        let (tx, rx) = mpsc::channel::<ServerMsg>();
        let handle = thread::Builder::new()
            .name("lcc-service".into())
            .spawn(move || serve_loop(cfg, rx));
        let handle = match handle {
            Ok(h) => Some(h),
            Err(e) => panic!("failed to spawn service thread: {e}"),
        };
        ServiceServer { tx, handle }
    }

    /// A client handle.
    pub fn client(&self) -> ServiceClient {
        ServiceClient {
            tx: self.tx.clone(),
        }
    }

    /// Stops the server and returns its end-of-run report.
    pub fn shutdown(mut self) -> ServiceReport {
        let _ = self.tx.send(ServerMsg::Shutdown);
        match self.handle.take() {
            Some(h) => h.join().unwrap_or_default(),
            None => ServiceReport::default(),
        }
    }
}

impl Drop for ServiceServer {
    fn drop(&mut self) {
        let _ = self.tx.send(ServerMsg::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// A caller waiting for its reply, keyed by `(tenant, request id)`.
type Waiter = (u32, u64, mpsc::Sender<Vec<u8>>);

/// Decodes and submits one inbound call, parking the reply sender as a
/// waiter on success and answering rejections immediately. Replies are
/// correlated to waiters by `(tenant, request_id)`, so a tenant reusing an
/// id while its predecessor is still in flight is refused with a typed
/// [`ServiceError::DuplicateRequest`] — otherwise two concurrent callers
/// could have their replies swapped.
fn handle_call(
    service: &ConvolveService,
    pending: &mut Vec<Waiter>,
    bytes: &[u8],
    reply: mpsc::Sender<Vec<u8>>,
) {
    match decode_request(bytes) {
        Ok(req) => {
            let (tenant, id) = (req.tenant, req.request_id);
            if pending.iter().any(|(t, i, _)| (*t, *i) == (tenant.0, id)) {
                let e = ServiceError::DuplicateRequest {
                    tenant,
                    request_id: id,
                };
                let _ = reply.send(encode_reject(&e.to_reject(tenant, id)));
                return;
            }
            match service.submit(req) {
                Ok(()) => pending.push((tenant.0, id, reply)),
                Err(e) => {
                    let _ = reply.send(encode_reject(&e.to_reject(tenant, id)));
                }
            }
        }
        Err(e) => {
            // Undecodable bytes carry no ids to echo.
            let err = ServiceError::Codec(e);
            let _ = reply.send(encode_reject(&err.to_reject(TenantId(u32::MAX), u64::MAX)));
        }
    }
}

fn serve_loop(cfg: ServiceConfig, rx: mpsc::Receiver<ServerMsg>) -> ServiceReport {
    let service = Arc::new(ConvolveService::new(cfg));
    // Pending replies keyed by (tenant, request id), in admission order.
    let mut pending: Vec<Waiter> = Vec::default();
    let mut buf = Vec::default();
    loop {
        // Block for one message, then drain the burst that accumulated
        // while the previous batch was computing — that burst *is* the
        // offered load the admission controller sees.
        let first = match rx.recv() {
            Ok(msg) => msg,
            Err(_) => break,
        };
        let mut inbox = Vec::from([first]);
        while let Ok(msg) = rx.try_recv() {
            inbox.push(msg);
        }
        let mut shutdown = false;
        for msg in inbox {
            match msg {
                ServerMsg::Shutdown => shutdown = true,
                ServerMsg::Call { bytes, reply } => {
                    handle_call(&service, &mut pending, &bytes, reply);
                }
            }
        }
        let round = service.drain();
        for reject in &round.rejects {
            let key = (reject.tenant.0, reject.request_id);
            if let Some(at) = pending.iter().position(|(t, id, _)| (*t, *id) == key) {
                let (_, _, reply) = pending.swap_remove(at);
                let _ = reply.send(encode_reject(reject));
            }
        }
        for resp in &round.responses {
            let key = (resp.tenant.0, resp.request_id);
            if let Some(at) = pending.iter().position(|(t, id, _)| (*t, *id) == key) {
                let (_, _, reply) = pending.swap_remove(at);
                encode_response_into(&mut buf, resp);
                let _ = reply.send(buf.clone());
            }
        }
        if shutdown {
            break;
        }
    }
    service.stop();
    service.drain();
    service.report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_message, encode_request, RequestInput, TenantId, WireMessage};

    fn request(tenant: u32, id: u64) -> ConvolveRequest {
        ConvolveRequest {
            tenant: TenantId(tenant),
            request_id: id,
            n: 16,
            k: 4,
            far_rate: 8,
            sigma: 1.0,
            require_exact: false,
            checksum_only: true,
            input: RequestInput::Deltas(vec![(1, 2, 3, 1.0)]),
        }
    }

    #[test]
    fn submit_pump_serves_and_accounts() {
        let service = ConvolveService::new(ServiceConfig::default());
        for id in 0..5 {
            service.submit(request(id as u32 % 2, id)).unwrap();
        }
        let responses = service.drain().responses;
        assert_eq!(responses.len(), 5);
        let report = service.report();
        assert_eq!(report.admission.offered, 5);
        assert_eq!(report.admission.admitted, 5);
        assert!(report.admission.balanced());
        assert_eq!(report.served, 5);
        // One plan key across all five requests: one build, four hits.
        assert_eq!(report.plan_builds, 1);
        assert!(report.plan_hits >= 4);
    }

    #[test]
    fn threaded_server_round_trips_the_wire() {
        let server = ServiceServer::spawn(ServiceConfig::default());
        let client = server.client();
        let reply = client.call_bytes(encode_request(&request(3, 42))).unwrap();
        match decode_message(&reply).unwrap() {
            WireMessage::Response(resp) => {
                assert_eq!(resp.tenant, TenantId(3));
                assert_eq!(resp.request_id, 42);
                assert!(resp.result.is_empty(), "checksum-only reply");
            }
            other => panic!("expected a response, got {other:?}"),
        }
        let report = server.shutdown();
        assert_eq!(report.admission.offered, 1);
        assert!(report.admission.balanced());
    }

    #[test]
    fn stopped_service_refuses_new_work() {
        let service = ConvolveService::new(ServiceConfig::default());
        service.stop();
        assert_eq!(service.submit(request(0, 0)), Err(ServiceError::Stopped));
    }

    #[test]
    fn rejected_requests_build_no_plans() {
        let service = ConvolveService::new(ServiceConfig {
            admission: crate::AdmissionConfig {
                queue_capacity: 1,
                tenant_quota: 1,
                shed_on: 8,
                shed_off: 2,
            },
            max_batch: 4,
        });
        service.submit(request(0, 0)).unwrap();
        // The tenant's queue is full; a fresh plan key on the rejected
        // request must not reach the registry — admission decides first.
        let mut over = request(0, 1);
        over.sigma = 9.0;
        assert!(matches!(
            service.submit(over),
            Err(ServiceError::QueueFull { .. })
        ));
        assert_eq!(service.registry().len(), 1);
        assert_eq!(service.report().plan_builds, 1);
    }

    #[test]
    fn invalid_requests_cost_no_queue_slot_and_no_plan() {
        let service = ConvolveService::new(ServiceConfig::default());
        let mut bad = request(0, 0);
        bad.k = 5; // does not divide n = 16
        assert!(matches!(service.submit(bad), Err(ServiceError::Config(_))));
        // A typed request claiming a huge grid is stopped by the same n³
        // ceiling the wire codec enforces — before any plan/grid work.
        let mut huge = request(0, 1);
        huge.n = 1 << 20;
        huge.k = 1 << 20;
        assert!(matches!(
            service.submit(huge),
            Err(ServiceError::Codec(
                crate::wire::CodecError::Oversize { .. }
            ))
        ));
        let report = service.report();
        assert_eq!(report.admission.offered, 0);
        assert_eq!(report.plan_builds, 0);
        assert!(service.registry().is_empty());
    }

    #[test]
    fn duplicate_in_flight_request_id_is_refused() {
        let service = ConvolveService::new(ServiceConfig::default());
        let mut pending: Vec<Waiter> = Vec::default();
        let bytes = encode_request(&request(3, 7));
        let (tx_a, rx_a) = mpsc::channel();
        let (tx_b, rx_b) = mpsc::channel();
        handle_call(&service, &mut pending, &bytes, tx_a);
        handle_call(&service, &mut pending, &bytes, tx_b);
        assert_eq!(pending.len(), 1, "only the first call may wait");
        // The duplicate is answered immediately with a typed reject.
        let reply = rx_b.try_recv().expect("duplicate must be answered");
        match decode_message(&reply).unwrap() {
            WireMessage::Reject(r) => {
                assert_eq!(r.code, crate::error::REJECT_DUPLICATE);
                assert_eq!((r.tenant, r.request_id), (TenantId(3), 7));
            }
            other => panic!("expected a reject, got {other:?}"),
        }
        // The original submission is unaffected and still gets served.
        assert_eq!(service.drain().responses.len(), 1);
        // Once the predecessor's reply is delivered the id is free again.
        pending.clear();
        let (tx_c, _rx_c) = mpsc::channel();
        handle_call(&service, &mut pending, &bytes, tx_c);
        assert_eq!(pending.len(), 1, "a completed id must be reusable");
        drop(rx_a);
    }
}
