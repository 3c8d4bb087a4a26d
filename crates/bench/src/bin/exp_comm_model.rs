//! Fig. 1 quantified: communication of the traditional distributed FFT
//! convolution vs the proposed single sparse exchange — analytic (Eqs. 1,
//! 2, 6) at paper scale, and *measured* on the functional cluster simulator
//! at laptop scale, the proposed side through
//! `ConvolveSession::exchange` over a slab deployment.

use std::sync::Arc;

use lcc_comm::{convolve_distributed, run_cluster, scatter_slabs, AlphaBeta, CommScenario};
use lcc_core::{ConvolveMode, Deployment, LowCommConfig, LowCommConvolver};
use lcc_fft::{Complex64, FftPlanner};
use lcc_greens::{GaussianKernel, KernelSpectrum};
use lcc_grid::Grid3;
use lcc_octree::RateSchedule;

fn measured(n: usize, k: usize, p: usize) {
    let sigma = 1.0;
    let kernel = Arc::new(GaussianKernel::new(n, sigma));
    let field: Vec<Complex64> = (0..n * n * n)
        .map(|i| Complex64::from_real((i as f64 * 0.23).sin()))
        .collect();

    // Traditional distributed convolution.
    let slabs = scatter_slabs(&field, n, p);
    let kern = {
        let kernel = kernel.clone();
        move |f: [usize; 3]| kernel.eval(f)
    };
    let (_, trad) = run_cluster(p, move |mut w| {
        let planner = FftPlanner::new();
        let mine = slabs[w.rank()].clone();
        convolve_distributed(&mut w, &planner, mine, n, &kern).expect("convolution failed");
    });

    // Proposed: local compressed convolutions + one exchange routed to
    // x-slab owners, each domain computed by the owner of its response.
    let conv = LowCommConvolver::new(LowCommConfig {
        n,
        k,
        batch: 1024,
        schedule: RateSchedule::paper_default(k, 16),
    });
    let input = Grid3::from_vec((n, n, n), field.iter().map(|c| c.re).collect());
    let deployment = Deployment::slabs(&conv, kernel.as_ref(), p);
    let (_, ours) = run_cluster(p, |mut w| {
        conv.session(ConvolveMode::Normal)
            .exchange(&mut w, &input, kernel.as_ref(), &deployment)
            .expect("exchange failed");
    });

    println!(
        "{:<6} {:<4} {:<4} {:>16} {:>8} {:>16} {:>8} {:>8.1}x",
        n,
        k,
        p,
        trad.bytes(),
        trad.rounds(),
        ours.bytes(),
        ours.rounds(),
        trad.bytes() as f64 / ours.bytes() as f64
    );
}

fn main() {
    println!("== measured on the functional cluster (bytes on the wire) ==");
    println!(
        "{:<6} {:<4} {:<4} {:>16} {:>8} {:>16} {:>8} {:>9}",
        "N", "k", "P", "trad bytes", "rounds", "ours bytes", "rounds", "reduction"
    );
    for (n, k, p) in [(32usize, 8usize, 4usize), (64, 16, 4), (64, 16, 8)] {
        measured(n, k, p);
    }

    println!("\n== analytic α-β model at paper scale ==");
    println!(
        "{:<6} {:<6} {:<6} {:<6} {:>13} {:>13} {:>13} {:>9}",
        "N", "P", "k", "r", "T_fft eq1(s)", "T_fft α-β(s)", "T_ours eq6(s)", "ratio"
    );
    for (n, p, k, r) in [
        (1024usize, 512usize, 128usize, 8.0f64),
        (2048, 512, 128, 16.0),
        (4096, 4096, 128, 16.0),
        (8192, 4096, 128, 32.0),
    ] {
        let s = CommScenario {
            n,
            p,
            elem_bytes: 16,
            link: AlphaBeta::hpc_default(),
        };
        let t1 = s.t_fft_bandwidth_only();
        let t1ab = s.t_fft_alltoall();
        let t6 = s.t_ours(k, r);
        println!(
            "{:<6} {:<6} {:<6} {:<6} {:>13.4e} {:>13.4e} {:>13.4e} {:>9.1}",
            n,
            p,
            k,
            r,
            t1,
            t1ab,
            t6,
            t1 / t6
        );
    }
    println!("\nShape to match Fig. 1: multiple all-to-all stages collapse to one");
    println!("sparse exchange; the gap widens with N and with the far-field rate r.");
}
