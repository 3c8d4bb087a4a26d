//! # lcc-bench — experiment regenerators
//!
//! One binary per paper artifact (see DESIGN.md §4):
//!
//! | binary | artifact |
//! |---|---|
//! | `exp_table1` | Table 1 — memory, traditional vs domain-local slab |
//! | `exp_table2` | Table 2 — allowable k per N on 16/32 GB simulated V100s |
//! | `exp_table3` | Table 3 — runtime & speedup, ours vs dense baseline, + error |
//! | `exp_table4` | Table 4 — estimated vs actual device memory |
//! | `exp_comm_model` | Fig. 1 / Eqs. 1-2-6 — analytic + measured communication |
//! | `exp_fig3_octree` | Fig. 3 — octree sampling pattern, 32³ domain in 128³ grid |
//! | `exp_scalability` | §5.1-5.2 — the 8× headline on equal memory |
//! | `exp_batch_sweep` | §5.4 — batch parameter B study |
//! | `exp_error_sweep` | §5.3 — approximation error vs downsampling |
//! | `exp_massif_convergence` | Algorithms 1 & 2 — convergence unaffected by compression |
//! | `exp_fftx_plan` | §6 / Fig. 5 — FFTX plan composition |
//! | `exp_chaos` | fault-injection sweep — retry protocol vs message loss |
//! | `exp_recovery` | self-healing sweep — crash × crash-time × recovery policy |
//!
//! `exp_chaos` and `exp_recovery` also emit machine-readable
//! `BENCH_chaos.json` / `BENCH_recovery.json` (see [`json`]); the
//! distributed self-healing workload they share lives in [`recovery`].
//! Per-layer speed (FFT GFLOP/s, octree, pipeline stages, exchange,
//! service) is measured in one place, the ledger in `bench/`
//! (`bench/README.md`), which takes its stream bandwidth from [`roofline`].

pub mod chaos;
pub mod json;
pub mod recovery;
pub mod roofline;
pub mod survival;

use std::time::Instant;

/// Times a closure, returning (result, milliseconds).
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Formats bytes as decimal GB with 2 digits (paper-table convention).
pub fn gb(bytes: u64) -> f64 {
    bytes as f64 / 1e9
}

/// Paper-style schedule with a chosen dominant exterior rate `r`: the
/// schedule behind the `(N, k, r)` rows of Tables 3 and 4.
pub fn schedule_for_r(k: usize, r: u32) -> lcc_octree::RateSchedule {
    use lcc_octree::RateBand;
    lcc_octree::RateSchedule {
        bands: vec![
            RateBand {
                max_distance: 3,
                rate: 1,
            },
            RateBand {
                max_distance: k / 2,
                rate: 2,
            },
            RateBand {
                max_distance: 4 * k,
                rate: r.clamp(2, 8),
            },
        ],
        far_rate: r,
        boundary_width: 0,
        boundary_rate: 1,
    }
}

/// Standard smooth test input used across experiments.
pub fn standard_input(n: usize) -> lcc_grid::Grid3<f64> {
    lcc_grid::Grid3::from_fn((n, n, n), |x, y, z| {
        ((x as f64 * 0.31).sin() + (y as f64 * 0.17).cos()) * (1.0 + 0.01 * z as f64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_behave() {
        let (v, ms) = time_ms(|| 42);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        assert_eq!(gb(8_000_000_000), 8.0);
        assert_eq!(standard_input(8).shape(), (8, 8, 8));
    }
}
