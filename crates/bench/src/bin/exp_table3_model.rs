//! Table 3 at paper scale, via the analytic device model.
//!
//! `exp_table3` measures both pipelines on this machine's CPU, isolating
//! the algorithmic advantage. This companion reconstructs the paper's
//! actual experiment — *our pipeline on a V100-class GPU vs a dense FFTW
//! convolution on a Xeon-class CPU* — with the first-order performance
//! model of `lcc-device` (sustained flop rates, PCIe transfers, kernel
//! launches) and the exact operation counts of each pipeline stage.

use lcc_core::PipelineFootprint;
use lcc_device::{fft_flops, PerfModel, SimDevice};

/// Flops of a dense 3D FFT convolution at size n (fwd + inv 3D FFT + mul).
fn dense_conv_flops(n: usize) -> f64 {
    // 3 axes × n² pencils per transform, two transforms, plus pointwise.
    2.0 * 3.0 * fft_flops(n, n * n) + 8.0 * (n as f64).powi(3)
}

/// Flops of the streaming pipeline at (n, k, r): pruned 2D stage, batched
/// z stage with on-the-fly multiply, inverse 2D over retained planes — on
/// the `h = n/2 + 1` non-redundant bins of the real input's spectrum, as
/// `LocalConvolver` runs it.
fn pipeline_flops(n: usize, k: usize, retained: usize) -> f64 {
    let h = n / 2 + 1;
    let pruned_pencil = 5.0 * n as f64 * (k as f64).log2().max(1.0);
    // Stage 1: per slice, k y-pencils + h x-pencils; k slices.
    let stage1 = k as f64 * (k as f64 + h as f64) * pruned_pencil;
    // Stage 2: n·h pencils: pruned forward + pointwise + full inverse.
    let stage2 =
        (n * h) as f64 * (pruned_pencil + 8.0 * n as f64 + 5.0 * n as f64 * (n as f64).log2());
    // Stage 3: retained planes × (h x-pencils of length n + n c2r rows,
    // each one length-n/2 transform).
    let stage3 = retained as f64 * (fft_flops(n, h) + fft_flops(n / 2, n));
    stage1 + stage2 + stage3
}

fn main() {
    println!("Table 3 (modeled at paper scale) — ours on V100 vs dense FFTW on Xeon");
    println!(
        "{:<6} {:<4} {:<5} {:>14} {:>14} {:>9} {:>9}",
        "N", "k", "r", "ours GPU (ms)", "dense CPU (ms)", "speedup", "paper"
    );
    let rows = [
        (128usize, 32usize, 4usize, Some(4.17)),
        (256, 32, 4, Some(11.91)),
        (512, 32, 4, Some(19.24)),
        (512, 32, 8, Some(21.46)),
        (1024, 32, 32, Some(24.43)),
        (2048, 64, 64, None),
    ];
    for (n, k, r, paper) in rows {
        let retained = (2 * k + n / r).min(n);

        // GPU: transfers + staged kernels. The POC stages the N×h×k slab
        // through host memory ("data transfers into and out of the GPU are
        // needed repeatedly", §2.1): charge the slab once in each
        // direction, the compressed samples out, and one launch per batch.
        let gpu = SimDevice::new("V100", 32 << 30, PerfModel::v100());
        let fp = PipelineFootprint::model(n, k, retained, 4096, 8 * (k as u64).pow(3));
        gpu.transfer_h2d((k * k * k * 8) as u64);
        gpu.transfer_h2d(fp.slab_bytes);
        gpu.transfer_d2h(fp.slab_bytes);
        gpu.launch_kernel(pipeline_flops(n, k, retained));
        let batches = (n * (n / 2 + 1) / 4096).max(1);
        let launch_overhead = batches as f64 * gpu.perf().launch_latency;
        let samples_out = (k * k * k) as u64 * 8 + ((n as u64).pow(3) / (r as u64).pow(3)) * 8;
        gpu.transfer_d2h(samples_out);
        let t_gpu = (gpu.elapsed() + launch_overhead) * 1e3;

        // CPU: dense convolution, no transfers.
        let cpu = SimDevice::new("Xeon", 192 << 30, PerfModel::xeon_cpu());
        cpu.launch_kernel(dense_conv_flops(n));
        let t_cpu = cpu.elapsed() * 1e3;

        let speedup = t_cpu / t_gpu;
        println!(
            "{:<6} {:<4} {:<5} {:>14.2} {:>14.2} {:>9.2} {:>9}",
            n,
            k,
            r,
            t_gpu,
            t_cpu,
            speedup,
            paper
                .map(|p| format!("{p:.2}"))
                .unwrap_or_else(|| "-".into())
        );
    }
    println!("\nShape to match: speedup grows with N into the tens — the GPU's flop");
    println!("advantage discounted by slab staging transfers and pruned-stage work,");
    println!("as in the paper's 4.2x -> 24.4x progression. Every row sits about 2x");
    println!("above the paper's (3.6x at N=1024): the half-spectrum pipeline stages");
    println!("half the slab and runs half the pencils of the full-complex POC the");
    println!("paper timed, whose buffer sizes its own Table 4 records.");
}
