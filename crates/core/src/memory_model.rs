//! Memory-footprint models (paper Table 1, Table 2, Table 4 "estimated").
//!
//! Table 1's back-of-envelope: a traditional FFT stores the full-resolution
//! N³ result (8 bytes/point double precision); the domain-local method holds
//! an N×N×k slab, `8·N·N·k` bytes. Table 2 then asks which `(N, k)` fit on a
//! real device once cuFFT workspace overheads are charged.

use lcc_device::{PlanSet, PlanShape};

/// Bytes for the traditional approach at grid size `n`: the full-resolution
/// double-precision result, `8·N³` (Table 1, column 3).
pub fn traditional_bytes(n: usize) -> u64 {
    8 * (n as u64).pow(3)
}

/// Bytes for the paper's domain-local slab at `(n, k)`: `8·N·N·k`
/// (Table 1, column 4).
pub fn local_slab_bytes(n: usize, k: usize) -> u64 {
    8 * (n as u64) * (n as u64) * (k as u64)
}

/// One row of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Table1Row {
    /// Grid size N.
    pub n: usize,
    /// Sub-domain size k.
    pub k: usize,
    /// Traditional full-resolution bytes.
    pub traditional: u64,
    /// Domain-local slab bytes.
    pub local: u64,
}

/// The exact `(N, k)` combinations of the paper's Table 1.
pub const TABLE1_CASES: [(usize, usize); 8] = [
    (1024, 128),
    (1024, 512),
    (2048, 128),
    (2048, 512),
    (4096, 128),
    (4096, 512),
    (8192, 64),
    (8192, 128),
];

/// Regenerates Table 1.
pub fn table1_rows() -> Vec<Table1Row> {
    TABLE1_CASES
        .iter()
        .map(|&(n, k)| Table1Row {
            n,
            k,
            traditional: traditional_bytes(n),
            local: local_slab_bytes(n, k),
        })
        .collect()
}

/// Memory footprint of the streaming pipeline at `(n, k)`. All working
/// buffers are complex double (16 B/point); the input is real, so they hold
/// the `h = N/2 + 1` non-redundant bins of one axis only.
///
/// Two sources fill it: [`Self::model`], the paper's device model (Tables
/// 1, 2 and 4: the whole slab and every retained plane at once, cuFFT-style
/// plan workspaces), and [`crate::LocalConvolver::footprint`], the host
/// working set of this repository's column-blocked pipeline.
#[derive(Clone, Copy, Debug)]
pub struct PipelineFootprint {
    /// The 2D-transformed sub-domain. Model: the N×h×k half-spectrum slab,
    /// [`local_slab_bytes`] plus the one Nyquist column, `16·N·k`. Blocked:
    /// the y-pass rows (`k·k·h`) plus one column block's slab, `k` planes
    /// of `(N + 1)·W` (a spare row per plane).
    pub slab_bytes: u64,
    /// The retained z-planes. Model: `retained_z·N·h`. Blocked: one column
    /// block of them (`retained_z·(N + 1)·W`) plus the rows stage 3 samples
    /// (`sampled_rows·h`).
    pub retained_bytes: u64,
    /// z-stage working buffers. Model: `batch·N` complex, in and out.
    /// Blocked: the largest tile-scratch lease of one participant.
    pub batch_bytes: u64,
    /// Compressed output samples + octree metadata.
    pub compressed_bytes: u64,
    /// cuFFT-style plan workspaces alive for the run; none on the host,
    /// whose transforms work in the tile scratch.
    pub plan_workspace_bytes: u64,
}

impl PipelineFootprint {
    /// The paper's device model with `retained_z` kept z-planes and a
    /// z-stage batch of `batch` pencils, the stage-3 c2r pass over every row
    /// of a retained plane.
    pub fn model(
        n: usize,
        k: usize,
        retained_z: usize,
        batch: usize,
        compressed_bytes: u64,
    ) -> Self {
        let h = n / 2 + 1;
        let mut plans = PlanSet::new();
        // 2D stage: the y-pass and x-pass are separate batched plans over
        // the k half-slices, each holding its own slab-sized work area (this
        // is the dominant share of the "cuFFT temporaries" gap of Table 4).
        plans.add(PlanShape::c2c(n, k * h));
        plans.add(PlanShape::c2c(n, k * h));
        // z stage: `batch` pencils of length n at a time (forward + inverse
        // plans both alive).
        plans.add(PlanShape::c2c(n, batch));
        plans.add(PlanShape::c2c(n, batch));
        // Final 2D inverse over one retained half-plane: the x pass over
        // its h columns, then the c2r rows (an n/2-point inverse each).
        plans.add(PlanShape::c2c(n, h));
        plans.add(PlanShape::c2c((n / 2).max(1), n));
        PipelineFootprint {
            slab_bytes: 16 * (n as u64) * (h as u64) * (k as u64),
            retained_bytes: 16 * (retained_z as u64) * (n as u64) * (h as u64),
            batch_bytes: 2 * 16 * (batch as u64) * (n as u64),
            compressed_bytes,
            plan_workspace_bytes: plans.total_workspace_bytes(),
        }
    }

    /// The algorithmic estimate (what the paper's "Estimated Memory" column
    /// counts): data buffers without library workspaces.
    pub fn estimated_bytes(&self) -> u64 {
        self.slab_bytes + self.retained_bytes + self.batch_bytes + self.compressed_bytes
    }

    /// The actual device requirement: estimate plus plan workspaces
    /// (Table 4's "Actual Memory").
    pub fn actual_bytes(&self) -> u64 {
        self.estimated_bytes() + self.plan_workspace_bytes
    }
}

/// Largest power-of-two sub-domain size `k ≤ n/2` whose pipeline footprint
/// (actual, with plan workspaces) fits in `capacity` bytes — the quantity
/// Table 2 reports per grid size and device.
///
/// `retained_fraction` approximates `retained_z/n` for the schedule in use
/// (the paper default retains ≈ `2k + n/8` planes).
pub fn allowable_k(n: usize, capacity: u64, batch: usize) -> Option<usize> {
    let mut best = None;
    let mut k = 2;
    while k <= n / 2 {
        let retained = (2 * k + n / 8).min(n);
        // Compressed output ≈ dense domain + exterior at average rate 8.
        let compressed = 8 * ((k as u64).pow(3) + (n as u64).pow(3) / 512) + (1 << 20);
        let fp = PipelineFootprint::model(n, k, retained, batch, compressed);
        if fp.actual_bytes() <= capacity {
            best = Some(k);
        }
        k *= 2;
    }
    best
}

/// How many independent sub-domain pipelines fit concurrently on one
/// device — §5.1: "for smaller 3D grids, the method retains its advantage
/// by batch processing multiple 3D convolutions on a GPU, optimizing
/// cluster usage with fewer resources." Plan workspaces are shared
/// (cuFFT-style plans are reusable across same-shape batches); data
/// buffers replicate per concurrent domain.
pub fn domains_per_device(n: usize, k: usize, batch: usize, capacity: u64) -> usize {
    let retained = (2 * k + n / 8).min(n);
    let compressed = 8 * ((k as u64).pow(3) + (n as u64).pow(3) / 512);
    let fp = PipelineFootprint::model(n, k, retained, batch, compressed);
    let per_domain = fp.estimated_bytes();
    let shared = fp.plan_workspace_bytes;
    if shared + per_domain > capacity {
        0
    } else {
        ((capacity - shared) / per_domain) as usize
    }
}

/// Whether an *uncompressed* traditional convolution fits on the device:
/// an in-place r2c transform holds the 8·N³-byte real field (padded to the
/// half-spectrum), the kernel spectrum, and a cuFFT workspace of the same
/// order — ≈ 3 × 8·N³ bytes. This is the "traditional cuFFT" column of
/// §5.1: the paper reports N = 1024 as the largest uncompressed size on a
/// 32 GB V100 (3·8·1024³ ≈ 26 GB), with 2048³ (206 GB) far out of reach.
pub fn traditional_fits(n: usize, capacity: u64) -> bool {
    let data = 8 * (n as u64).pow(3);
    3 * data <= capacity
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1_000_000_000;

    #[test]
    fn table1_matches_paper_values() {
        // Paper rows are in round GB (decimal): 1024³ → 8 GB traditional;
        // (1024, 128) → 1 GB local; (8192, 64) → 32 GB local.
        let rows = table1_rows();
        let find = |n, k| rows.iter().find(|r| r.n == n && r.k == k).unwrap();
        let gb = |b: u64| (b as f64 / 1e9 / 1.073741824).round(); // GiB → paper's GB
        assert_eq!(gb(find(1024, 128).traditional), 8.0);
        assert_eq!(gb(find(1024, 128).local), 1.0);
        assert_eq!(gb(find(2048, 512).traditional), 64.0);
        assert_eq!(gb(find(2048, 512).local), 16.0);
        assert_eq!(gb(find(4096, 128).traditional), 512.0);
        assert_eq!(gb(find(4096, 128).local), 16.0);
        assert_eq!(gb(find(8192, 64).traditional), 4096.0);
        assert_eq!(gb(find(8192, 64).local), 32.0);
    }

    #[test]
    fn local_always_below_traditional() {
        for r in table1_rows() {
            assert!(r.local < r.traditional, "row {r:?}");
            assert_eq!(r.traditional / r.local, (r.n / r.k) as u64);
        }
    }

    #[test]
    fn actual_exceeds_estimate_by_workspace() {
        let fp = PipelineFootprint::model(512, 32, 96, 1024, 50_000_000);
        assert!(fp.actual_bytes() > fp.estimated_bytes());
        let ratio = fp.actual_bytes() as f64 / fp.estimated_bytes() as f64;
        // Table 4's observed gap is ~1.6-2.1×.
        assert!(ratio > 1.2 && ratio < 3.0, "workspace ratio {ratio}");
    }

    #[test]
    fn allowable_k_monotone_in_capacity() {
        let k16 = allowable_k(1024, 16 * GB, 1024);
        let k32 = allowable_k(1024, 32 * GB, 1024);
        assert!(k16.unwrap_or(0) <= k32.unwrap_or(0));
        assert!(k32.is_some());
    }

    #[test]
    fn allowable_k_shrinks_for_larger_grids() {
        // Table 2's shape: at fixed capacity, the allowed k stops growing
        // and eventually shrinks as N grows.
        let caps = 32 * GB;
        let k1024 = allowable_k(1024, caps, 1024).unwrap();
        let k2048 = allowable_k(2048, caps, 4096).unwrap();
        assert!(
            k2048 < k1024,
            "k({k2048}) at 2048 must be below k({k1024}) at 1024"
        );
    }

    #[test]
    fn batch_processing_small_grids() {
        // §5.1: small grids batch many domains per device; the count grows
        // as the grid shrinks and hits 0 when even one domain won't fit.
        let cap = 16 * GB;
        let small = domains_per_device(256, 32, 1024, cap);
        let medium = domains_per_device(512, 32, 1024, cap);
        assert!(small > medium, "{small} vs {medium}");
        assert!(
            small >= 8,
            "a 256³ pipeline should batch many domains: {small}"
        );
        assert_eq!(domains_per_device(8192, 512, 8192, GB), 0);
    }

    #[test]
    fn traditional_capacity_cliff() {
        // The paper: traditional cuFFT handles up to 1024³ on a 32 GB GPU,
        // not 2048³ — an 8× point-count gap to ours.
        assert!(traditional_fits(1024, 32 * GB));
        assert!(!traditional_fits(2048, 32 * GB));
    }
}
