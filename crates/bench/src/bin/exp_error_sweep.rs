//! §5.3 approximation error: relative L2 error of the compressed
//! convolution vs downsampling aggressiveness, for the POC Gaussian at two
//! sharpness levels and the 1/r Poisson kernel. The paper's operating
//! point keeps error ≤ 3%; error rises as the far field is thinned —
//! "the downsampling rate r can be increased to reduce the memory
//! requirement further if needed, but at the cost of accuracy."

use lcc_bench::standard_input;
use lcc_core::{ConvolveMode, LowCommConfig, LowCommConvolver, TraditionalConvolver};
use lcc_greens::{GaussianKernel, KernelSpectrum, PoissonSpectrum};
use lcc_grid::relative_l2;
use lcc_octree::RateSchedule;

fn main() {
    let n = 64usize;
    let k = 16usize;
    let input = standard_input(n);

    println!("§5.3 — approximation error vs schedule (N = {n}, k = {k})");
    println!(
        "{:<22} {:<26} {:>12} {:>12} {:>10}",
        "kernel", "schedule", "samples/dom", "bytes ratio", "rel L2 err"
    );

    let gauss_sharp = GaussianKernel::new(n, 1.0);
    let gauss_wide = GaussianKernel::new(n, 3.0);
    let poisson = PoissonSpectrum::new(n);
    let kernels: [(&str, &dyn KernelSpectrum, f64); 3] = [
        ("gaussian sigma=1", &gauss_sharp, 1.0),
        ("gaussian sigma=3", &gauss_wide, 3.0),
        ("poisson 1/r", &poisson, 4.0),
    ];

    for (kname, kernel, spread) in kernels {
        let exact = TraditionalConvolver::new(n).convolve(&input, kernel);
        let schedules: Vec<(String, RateSchedule)> = vec![
            ("lossless r=1".into(), RateSchedule::uniform(1)),
            (
                format!("spread-aware({spread})"),
                RateSchedule::for_kernel_spread(k, spread, 16),
            ),
            (
                "paper heuristic f16".into(),
                RateSchedule::paper_default(k, 16),
            ),
            ("uniform r=2".into(), RateSchedule::uniform(2)),
            ("uniform r=4".into(), RateSchedule::uniform(4)),
            ("uniform r=8".into(), RateSchedule::uniform(8)),
        ];
        for (sname, schedule) in schedules {
            let conv = LowCommConvolver::new(LowCommConfig {
                n,
                k,
                batch: 1024,
                schedule,
            });
            let (approx, report) = conv.session(ConvolveMode::Normal).convolve(&input, kernel);
            let err = relative_l2(exact.as_slice(), approx.as_slice());
            println!(
                "{:<22} {:<26} {:>12} {:>12.3} {:>10.4}",
                kname,
                sname,
                report.total_samples / report.domains_processed.max(1),
                report.exchange_bytes as f64 / report.dense_stage_bytes as f64,
                err
            );
        }
        println!();
    }
    println!("Shape to match §5.3: error grows with downsampling; the tuned adaptive");
    println!("schedules hold <= 3% while uniform-coarse schedules blow past it.");
}
