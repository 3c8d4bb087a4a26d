//! Seeded input generators. The same seed gives the same bytes; the
//! program under test receives only what these produce.

use lcc_grid::{decompose_uniform, BoxRegion, Grid3};
use lcc_service::wire::{ConvolveRequest, RequestInput, TenantId};

/// SplitMix64: small, seedable, and good enough to place inclusions and
/// shuffle a request mix.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below anything
    /// a workload could notice.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A smooth dense field, nonzero in every sub-domain: a positive offset
/// plus four low-frequency waves whose wave vectors are fixed and whose
/// phases come from the seed. Seeds move the pattern, not its spectrum, so
/// the work and the approximation error barely depend on the seed.
pub fn dense_field(n: usize, seed: u64) -> Grid3<f64> {
    const WAVES: [([f64; 3], f64); 4] = [
        ([1.0, 0.0, 2.0], 0.50),
        ([0.0, 2.0, 1.0], 0.35),
        ([3.0, 1.0, 0.0], 0.25),
        ([2.0, 3.0, 1.0], 0.15),
    ];
    let mut rng = Rng::new(seed);
    let phases: Vec<f64> = WAVES
        .iter()
        .map(|_| rng.unit() * std::f64::consts::TAU)
        .collect();
    let w = std::f64::consts::TAU / n as f64;
    Grid3::from_fn((n, n, n), |x, y, z| {
        let p = [x as f64, y as f64, z as f64];
        let mut v = 2.0;
        for ((k, amp), phase) in WAVES.iter().zip(&phases) {
            v += amp * (w * (k[0] * p[0] + k[1] * p[1] + k[2] * p[2]) + phase).sin();
        }
        v
    })
}

/// Radius of the inclusions of the sparse workloads.
pub const INCLUSION_RADIUS: usize = 3;

/// The sparse input: exactly four radius-3 inclusions, each wholly inside a
/// distinct sub-domain, the rest of the grid identically zero.
pub struct SparseInput {
    pub field: Grid3<f64>,
    /// Ids (in `decompose_uniform` order) of the four nonzero sub-domains,
    /// ascending.
    pub active: Vec<usize>,
}

/// Places the inclusions so that two of the active sub-domains lie in each
/// half of the x axis. A kernel centred at `n/2` shifts a response by half
/// the grid, so each of two x-slab ranks owns two response regions: seeds
/// differ in position, not in balance.
pub fn sparse_field(n: usize, k: usize, seed: u64) -> SparseInput {
    let m = n / k;
    assert!(
        m >= 2 && m.is_multiple_of(2),
        "need an even number of sub-domains per axis"
    );
    assert!(
        k > 2 * INCLUSION_RADIUS,
        "a radius-3 inclusion must fit in a sub-domain"
    );
    let domains = decompose_uniform(n, k);
    let mut rng = Rng::new(seed ^ 0x5eed_0f1c);
    let mut active = Vec::new();
    for half in 0..2 {
        let mut picked = 0;
        while picked < 2 {
            let bx = half * (m / 2) + rng.below(m / 2);
            let id = (bx * m + rng.below(m)) * m + rng.below(m);
            if !active.contains(&id) {
                active.push(id);
                picked += 1;
            }
        }
    }
    active.sort_unstable();
    let mut field = Grid3::zeros((n, n, n));
    let r = INCLUSION_RADIUS as i64;
    for &id in &active {
        let d: &BoxRegion = &domains[id];
        let span = k - 2 * INCLUSION_RADIUS;
        let c = [0, 1, 2].map(|a| d.lo[a] + INCLUSION_RADIUS + rng.below(span));
        for dx in -r..=r {
            for dy in -r..=r {
                for dz in -r..=r {
                    if dx * dx + dy * dy + dz * dz <= r * r {
                        let p = [dx, dy, dz];
                        let q = [0, 1, 2].map(|a| (c[a] as i64 + p[a]) as usize);
                        field[(q[0], q[1], q[2])] = 1.0;
                    }
                }
            }
        }
    }
    SparseInput { field, active }
}

/// Shape of the `service16` requests.
pub const SERVICE_N: u32 = 16;
pub const SERVICE_K: u32 = 4;
pub const SERVICE_FAR_RATE: u32 = 8;
/// The four plan keys (one sigma each).
pub const SERVICE_SIGMAS: [f64; 4] = [1.0, 1.5, 2.0, 2.5];
pub const SERVICE_TENANTS: u32 = 4;
/// Points in a `Deltas` request.
pub const DELTA_POINTS: usize = 8;
/// Distinct requests in the pool the load generator cycles through.
pub const POOL_SIZE: usize = 32;
/// Every this-many-th request sent asks for exact service.
pub const EXACT_EVERY: u64 = 8;

/// The request pool: half `Dense` with the full result returned, half
/// `Deltas` of eight points answered by checksum only, in a seeded order
/// that gives each of the two clients every (kind, sigma) pair equally
/// often; tenants appear equally often too. `request_id` and
/// `require_exact` are set at send time by [`stamp`].
pub fn request_pool(seed: u64) -> Vec<ConvolveRequest> {
    let n = SERVICE_N as usize;
    let mut rng = Rng::new(seed ^ 0x7e9_0e57);
    // Even pool positions go to client 0 and odd ones to client 1; each
    // client's half holds every (kind, sigma) pair equally often, in an
    // order of its own.
    let mut dense = [false; POOL_SIZE];
    let mut sigma_of = [0; POOL_SIZE];
    for client in 0..2 {
        let mut half: Vec<(bool, usize)> = (0..POOL_SIZE / 2)
            .map(|i| (i % 2 == 0, (i / 2) % SERVICE_SIGMAS.len()))
            .collect();
        rng.shuffle(&mut half);
        for (i, (d, s)) in half.into_iter().enumerate() {
            dense[2 * i + client] = d;
            sigma_of[2 * i + client] = s;
        }
    }
    dense
        .iter()
        .zip(sigma_of)
        .enumerate()
        .map(|(i, (&is_dense, s))| {
            let input = if is_dense {
                RequestInput::Dense(dense_field(n, rng.next_u64()).into_vec())
            } else {
                RequestInput::Deltas(
                    (0..DELTA_POINTS)
                        .map(|_| {
                            let p = [0; 3].map(|_: i32| rng.below(n) as u32);
                            (p[0], p[1], p[2], 0.5 + rng.unit())
                        })
                        .collect(),
                )
            };
            ConvolveRequest {
                tenant: TenantId(i as u32 % SERVICE_TENANTS),
                request_id: 0,
                n: SERVICE_N,
                k: SERVICE_K,
                far_rate: SERVICE_FAR_RATE,
                sigma: SERVICE_SIGMAS[s],
                require_exact: false,
                checksum_only: !is_dense,
                input,
            }
        })
        .collect()
}

/// The `seq`-th request sent: the pool entry it cycles to, stamped with a
/// unique id and, every eighth time, the exact-service flag.
pub fn stamp(pool: &[ConvolveRequest], seq: u64) -> ConvolveRequest {
    let mut req = pool[seq as usize % pool.len()].clone();
    req.request_id = seq + 1;
    req.require_exact = seq % EXACT_EVERY == EXACT_EVERY - 1;
    req
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcc_service::wire::encode_request;

    fn bytes(g: &Grid3<f64>) -> Vec<u8> {
        g.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn same_seed_gives_identical_bytes_and_seeds_differ() {
        assert_eq!(bytes(&dense_field(16, 9)), bytes(&dense_field(16, 9)));
        assert_ne!(bytes(&dense_field(16, 9)), bytes(&dense_field(16, 10)));
        let (a, b) = (sparse_field(32, 8, 4), sparse_field(32, 8, 4));
        assert_eq!(bytes(&a.field), bytes(&b.field));
        assert_eq!(a.active, b.active);
        let enc =
            |seed| -> Vec<Vec<u8>> { request_pool(seed).iter().map(encode_request).collect() };
        assert_eq!(enc(3), enc(3));
        assert_ne!(enc(3), enc(4));
    }

    #[test]
    fn dense_field_leaves_no_sub_domain_zero() {
        let f = dense_field(32, 1);
        assert!(f.as_slice().iter().all(|&v| v > 0.5));
    }

    #[test]
    fn any_seed_gives_four_whole_inclusions_two_per_rank_slab() {
        for (n, k) in [(32usize, 8usize), (128, 32)] {
            let domains = decompose_uniform(n, k);
            for seed in 0..40 {
                let s = sparse_field(n, k, seed);
                let nonzero: Vec<usize> = domains
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| s.field.extract(d).as_slice().iter().any(|&v| v != 0.0))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(
                    nonzero, s.active,
                    "seed {seed}: exactly the 4 active domains"
                );
                assert_eq!(s.active.len(), 4);
                // None straddles a boundary: every inclusion has the full
                // voxel count of a radius-3 ball inside its own domain.
                for &id in &s.active {
                    let cells = s.field.extract(&domains[id]);
                    let count = cells.as_slice().iter().filter(|&&v| v != 0.0).count();
                    assert_eq!(count, 123, "seed {seed}: ball clipped in domain {id}");
                }
                // Two per x half: the kernel's n/2 shift puts two response
                // regions in each of two x-slab ranks.
                let low = s
                    .active
                    .iter()
                    .filter(|&&id| domains[id].lo[0] < n / 2)
                    .count();
                assert_eq!(low, 2, "seed {seed}");
            }
        }
    }

    #[test]
    fn request_mix_has_the_stated_proportions() {
        for seed in [1, 2, 99] {
            let pool = request_pool(seed);
            assert_eq!(pool.len(), POOL_SIZE);
            let dense = |r: &&ConvolveRequest| matches!(r.input, RequestInput::Dense(_));
            assert_eq!(pool.iter().filter(dense).count(), POOL_SIZE / 2);
            for r in &pool {
                match &r.input {
                    RequestInput::Dense(v) => {
                        assert_eq!(v.len(), 16 * 16 * 16);
                        assert!(!r.checksum_only);
                    }
                    RequestInput::Deltas(p) => {
                        assert_eq!(p.len(), DELTA_POINTS);
                        assert!(r.checksum_only);
                    }
                }
            }
            for s in SERVICE_SIGMAS {
                assert_eq!(pool.iter().filter(|r| r.sigma == s).count(), POOL_SIZE / 4);
            }
            for t in 0..SERVICE_TENANTS {
                assert_eq!(
                    pool.iter().filter(|r| r.tenant.0 == t).count(),
                    POOL_SIZE / 4
                );
            }
            // Both clients (even / odd sequence numbers) carry the same
            // mix: every (kind, sigma) pair twice.
            for client in 0..2 {
                for s in SERVICE_SIGMAS {
                    for want_dense in [true, false] {
                        let mine = pool.iter().skip(client).step_by(2);
                        let hits = mine
                            .filter(|r| r.sigma == s && dense(r) == want_dense)
                            .count();
                        assert_eq!(hits, POOL_SIZE / 16, "client {client} sigma {s}");
                    }
                }
            }
            let sent: Vec<ConvolveRequest> = (0..64).map(|i| stamp(&pool, i)).collect();
            assert_eq!(sent.iter().filter(|r| r.require_exact).count(), 8);
            assert!(sent[7].require_exact && !sent[8].require_exact);
            let mut ids: Vec<u64> = sent.iter().map(|r| r.request_id).collect();
            ids.dedup();
            assert_eq!(ids.len(), 64, "ids are unique");
        }
    }
}
