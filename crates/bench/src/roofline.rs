//! Streaming-bandwidth measurement for roofline estimates.
//!
//! The FFT pipeline is bandwidth-bound at large sizes: each transform pass
//! streams every `Complex64` through the core once (read + write). The
//! sustained memory bandwidth is the ceiling an achieved GFLOP/s number is
//! read against, so it is measured the same way the kernels use memory,
//! not quoted from a spec sheet. The ledger in `bench/` reports it as its
//! `fft.stream_gbs` row, next to the `fft.contig_gflops` and
//! `fft.strided_gflops` rows of the same run.
//!
//! [`stream_bandwidth_gbs`] runs a simple out-of-cache streaming copy
//! (`dst[i] = src[i]` over f64 buffers far larger than L2/L3) and reports
//! the best-of-N rate in GB/s, counting both the read and the write stream.
//! This is deliberately the *copy* kernel of the STREAM benchmark family —
//! the closest traffic shape to an FFT pass over a pencil batch — and it
//! runs single-threaded, so it is a per-core ceiling.

use std::time::Instant;

/// Elements per buffer: 32 MiB of f64 per side, comfortably past any L3 on
/// hosts this workspace targets, so the copy streams from DRAM.
const STREAM_ELEMS: usize = 4 * 1024 * 1024;

/// Timed passes; the best (highest-bandwidth) pass is reported so that a
/// scheduler hiccup in one pass does not understate the roofline ceiling.
const STREAM_REPS: usize = 3;

/// Measures sustained single-thread streaming-copy bandwidth in GB/s
/// (bytes counted = read + write = 16 per element per pass).
///
/// Returns `0.0` if the clock resolves a pass as zero time, so a caller
/// can tell an unmeasured bandwidth from a fabricated one.
pub fn stream_bandwidth_gbs() -> f64 {
    let src: Vec<f64> = (0..STREAM_ELEMS).map(|i| i as f64 * 0.5).collect();
    let mut dst = vec![0.0f64; STREAM_ELEMS];

    // Warm-up pass: faults the pages in and fills the TLB so the timed
    // passes measure steady-state DRAM traffic, not first-touch cost.
    dst.copy_from_slice(&src);
    std::hint::black_box(&mut dst);

    let mut best_ns = u128::MAX;
    for _ in 0..STREAM_REPS {
        let t0 = Instant::now();
        dst.copy_from_slice(&src);
        std::hint::black_box(&mut dst);
        best_ns = best_ns.min(t0.elapsed().as_nanos());
    }
    if best_ns == 0 || best_ns == u128::MAX {
        return 0.0;
    }
    let bytes = (STREAM_ELEMS * 2 * std::mem::size_of::<f64>()) as f64;
    bytes / best_ns as f64 // bytes/ns == GB/s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_is_positive_and_sane() {
        let gbs = stream_bandwidth_gbs();
        // Any machine that can run the test suite streams well above
        // 0.1 GB/s and below 10 TB/s; the bounds only catch unit slips
        // (ns vs µs, counting one stream instead of two).
        assert!(gbs > 0.1, "implausibly low bandwidth: {gbs} GB/s");
        assert!(gbs < 10_000.0, "implausibly high bandwidth: {gbs} GB/s");
    }
}
