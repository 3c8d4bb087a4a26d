//! Shared plan caches across tenants.
//!
//! Amortizing plan/decomposition setup across many transforms is where
//! real FFT deployments win (P3DFFT and OpenFFT both tune exactly this);
//! for this pipeline the expensive per-configuration state is the
//! [`LowCommConvolver`]: its sharded `FftPlanner`/`PrunedPlanner` caches,
//! the memoized octree sampling plans, and the per-corner phase tables.
//! The registry keys one convolver per plan key `(n, k, far_rate, sigma)`
//! — two tenants asking for the same configuration share every cache, and
//! a cache-warm tenant never observes a plan rebuild (the `exp_service`
//! bench asserts `builds()` stays flat across its measured phases).
//!
//! The cache is **bounded**: every distinct sigma bit pattern is its own
//! plan key, so an unbounded registry would let one tenant grow server
//! memory without limit. At capacity the least-recently-used entry of the
//! key's shard is evicted (live [`Arc`] holders keep using it; it is just
//! no longer cached), and [`PlanRegistry::validate`] offers the cheap
//! parameter check — no build, no caching — that admission runs before a
//! request has earned a plan build.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lcc_obs::codec::fnv1a64_u64s;
use lcc_obs::metrics as obs;
use parking_lot::Mutex;

use lcc_core::prelude::*;

use crate::error::ServiceError;
use crate::wire::{CodecError, ConvolveRequest, MAX_FIELD_CELLS};

/// The cache key: every field that feeds plan construction.
pub type PlanKey = (u32, u32, u32, u64);

/// One shared service entry: the convolver (plan caches, phase tables) and
/// the kernel spectrum for a plan key.
pub struct PlanEntry {
    convolver: LowCommConvolver,
    kernel: GaussianKernel,
    n: usize,
}

impl PlanEntry {
    /// The shared convolver.
    pub fn convolver(&self) -> &LowCommConvolver {
        &self.convolver
    }

    /// The shared kernel spectrum.
    pub fn kernel(&self) -> &GaussianKernel {
        &self.kernel
    }

    /// Grid size of this configuration.
    pub fn n(&self) -> usize {
        self.n
    }
}

const SHARDS: usize = 8;

/// Default bound on cached plan entries across all shards.
pub const DEFAULT_PLAN_CAPACITY: usize = 64;

/// One cached entry plus its last-touch stamp (LRU eviction order).
struct Cached {
    entry: Arc<PlanEntry>,
    stamp: u64,
}

/// The tenant-shared plan registry. Sharded so concurrent tenants with
/// different keys never contend on one lock; per-key construction happens
/// at most once (the shard lock is held across the build, so two tenants
/// racing on a cold key observe exactly one build).
pub struct PlanRegistry {
    shards: [Mutex<HashMap<PlanKey, Cached>>; SHARDS],
    per_shard_cap: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    builds: AtomicU64,
    evictions: AtomicU64,
}

impl Default for PlanRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanRegistry {
    /// An empty registry at the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_PLAN_CAPACITY)
    }

    /// An empty registry bounded to roughly `capacity` cached entries. The
    /// bound is enforced per shard (`capacity` split evenly, rounded up),
    /// so the total held never exceeds `capacity.div_ceil(SHARDS) *
    /// SHARDS` however the keys hash.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "registry capacity must be positive");
        PlanRegistry {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            per_shard_cap: capacity.div_ceil(SHARDS),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &PlanKey) -> &Mutex<HashMap<PlanKey, Cached>> {
        // FNV-1a over the key fields; the shard count is a power of two.
        let h = fnv1a64_u64s([key.0 as u64, key.1 as u64, key.2 as u64, key.3]);
        &self.shards[(h as usize) & (SHARDS - 1)]
    }

    /// Cheap request validation: the plan parameters are checked exactly
    /// as [`Self::entry_for`] would check them, but nothing is built and
    /// nothing is cached. This is what runs before admission, so a
    /// rejected request never costs a plan build or a registry slot.
    pub fn validate(req: &ConvolveRequest) -> Result<(), ServiceError> {
        Self::request_config(req).map(|_| ())
    }

    /// Validated plan parameters for `req`. The wire codec already bounds
    /// n³ for decoded requests; re-checking here extends the same ceiling
    /// to directly constructed requests, before anything n³-proportional
    /// is allocated. A grid the builder accepts but the octree pipeline
    /// cannot run is [`ServiceError::UnsupportedGrid`].
    fn request_config(req: &ConvolveRequest) -> Result<LowCommConfig, ServiceError> {
        let cells = (req.n as u128).pow(3);
        if cells > MAX_FIELD_CELLS as u128 {
            return Err(ServiceError::Codec(CodecError::Oversize {
                cells: u64::try_from(cells).unwrap_or(u64::MAX),
                max: MAX_FIELD_CELLS,
            }));
        }
        let cfg = LowCommConfig::builder()
            .n(req.n as usize)
            .k(req.k as usize)
            .far_rate(req.far_rate)
            .build()?;
        if !cfg.n.is_power_of_two() || cfg.n / cfg.k < 2 {
            return Err(ServiceError::UnsupportedGrid { n: req.n, k: req.k });
        }
        Ok(cfg)
    }

    /// The shared entry for `req`'s plan key, building it on first use.
    /// Invalid parameters surface as [`ServiceError::Config`]; a build
    /// that fills the key's shard evicts that shard's least-recently-used
    /// entry.
    pub fn entry_for(&self, req: &ConvolveRequest) -> Result<Arc<PlanEntry>, ServiceError> {
        let key = req.plan_key();
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(&key).lock();
        if let Some(cached) = shard.get_mut(&key) {
            cached.stamp = stamp;
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::SERVICE_PLAN_HITS.incr();
            return Ok(Arc::clone(&cached.entry));
        }
        let cfg = Self::request_config(req)?;
        let _sp = lcc_obs::span("service_plan_build");
        let convolver = LowCommConvolver::try_new(cfg)?;
        let kernel = GaussianKernel::new(req.n as usize, req.sigma);
        let entry = Arc::new(PlanEntry {
            convolver,
            kernel,
            n: req.n as usize,
        });
        if shard.len() >= self.per_shard_cap {
            if let Some(victim) = shard
                .iter()
                .min_by_key(|(_, cached)| cached.stamp)
                .map(|(k, _)| *k)
            {
                shard.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                obs::SERVICE_PLAN_EVICTIONS.incr();
            }
        }
        shard.insert(
            key,
            Cached {
                entry: Arc::clone(&entry),
                stamp,
            },
        );
        self.builds.fetch_add(1, Ordering::Relaxed);
        obs::SERVICE_PLAN_MISSES.incr();
        Ok(entry)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Entries built so far (cache misses). A warm steady state keeps this
    /// flat — the property the bench asserts per tenant.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Entries evicted to stay within the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of distinct configurations currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{RequestInput, TenantId};

    fn req(n: u32, k: u32, sigma: f64) -> ConvolveRequest {
        ConvolveRequest {
            tenant: TenantId(0),
            request_id: 0,
            n,
            k,
            far_rate: 8,
            sigma,
            require_exact: false,
            checksum_only: true,
            input: RequestInput::Deltas(vec![(0, 0, 0, 1.0)]),
        }
    }

    #[test]
    fn same_key_shares_one_entry() {
        let reg = PlanRegistry::new();
        let a = reg.entry_for(&req(16, 4, 1.0)).unwrap();
        let b = reg.entry_for(&req(16, 4, 1.0)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same key must share the entry");
        assert_eq!(reg.builds(), 1);
        assert_eq!(reg.hits(), 1);
        // A different sigma is a different kernel: separate entry.
        let c = reg.entry_for(&req(16, 4, 2.0)).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(reg.builds(), 2);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn validate_builds_and_caches_nothing() {
        PlanRegistry::validate(&req(16, 4, 1.0)).unwrap();
        assert!(matches!(
            PlanRegistry::validate(&req(16, 5, 1.0)),
            Err(ServiceError::Config(_))
        ));
        // The wire's n³ ceiling applies to directly constructed requests
        // too — before anything grid-sized is allocated.
        assert!(matches!(
            PlanRegistry::validate(&req(1 << 20, 1 << 20, 1.0)),
            Err(ServiceError::Codec(CodecError::Oversize { .. }))
        ));
    }

    #[test]
    fn capacity_bounds_the_registry_with_lru_eviction() {
        // capacity 16 over 8 shards = 2 entries per shard.
        let reg = PlanRegistry::with_capacity(16);
        let hot = req(16, 4, 1.0);
        reg.entry_for(&hot).unwrap();
        for i in 0..40 {
            // Touching the hot key before every insert keeps it off the
            // LRU end of its shard, so eviction never picks it.
            reg.entry_for(&hot).unwrap();
            reg.entry_for(&req(16, 4, 10.0 + i as f64)).unwrap();
        }
        assert!(
            reg.len() <= 16,
            "registry grew past its bound: {}",
            reg.len()
        );
        assert_eq!(reg.evictions(), reg.builds() - reg.len() as u64);
        assert!(reg.evictions() > 0, "40 distinct keys must evict");
        // The hot key survived every eviction round: no rebuild.
        let builds = reg.builds();
        reg.entry_for(&hot).unwrap();
        assert_eq!(reg.builds(), builds, "hot key was evicted despite use");
    }

    #[test]
    fn invalid_parameters_are_typed_config_errors() {
        let reg = PlanRegistry::new();
        // k does not divide n.
        let err = match reg.entry_for(&req(16, 5, 1.0)) {
            Err(e) => e,
            Ok(_) => panic!("k=5 must not divide n=16"),
        };
        assert!(matches!(err, ServiceError::Config(_)), "{err:?}");
        assert_eq!(reg.builds(), 0, "failed builds are not cached");
    }
}
