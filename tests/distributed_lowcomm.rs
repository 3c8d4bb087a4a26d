//! The paper's Fig. 1(b) deployed on the functional cluster simulator:
//! workers own sub-domains, convolve them locally (zero communication),
//! exchange compressed samples **once**, and reconstruct. Verified against
//! the serial low-communication result and the dense oracle, with measured
//! communication compared to the traditional distributed convolution.

use lcc_comm::{convolve_distributed, decode_f64s, encode_f64s, run_cluster, scatter_slabs};
use lcc_core::{LowCommConfig, LowCommConvolver, TraditionalConvolver};
use lcc_fft::{Complex64, FftPlanner};
use lcc_greens::{GaussianKernel, KernelSpectrum};
use lcc_grid::{assign_round_robin, decompose_uniform, relative_l2, BoxRegion, Grid3};
use lcc_octree::{CompressedField, RateSchedule};
use std::sync::Arc;

#[test]
fn distributed_matches_serial_lowcomm_and_oracle() {
    let n = 32;
    let k = 8;
    let p = 4;
    let sigma = 1.5;
    let kernel = Arc::new(GaussianKernel::new(n, sigma));
    let input = Arc::new(Grid3::from_fn((n, n, n), |x, y, z| {
        ((x as f64 * 0.29).sin() + (y as f64 * 0.41).cos()) * (1.0 + 0.01 * z as f64)
    }));
    let schedule = RateSchedule::for_kernel_spread(k, sigma, 16);
    let cfg = LowCommConfig {
        n,
        k,
        batch: 512,
        schedule,
    };

    // Serial references.
    let serial_conv = LowCommConvolver::new(cfg.clone());
    let (serial, _) = serial_conv.convolve(&input, kernel.as_ref());
    let oracle = TraditionalConvolver::new(n).convolve(&input, kernel.as_ref());

    // Distributed run: each rank owns a round-robin share of sub-domains.
    let domains = decompose_uniform(n, k);
    let assignment = assign_round_robin(domains.len(), p);
    let cfg = Arc::new(cfg);
    let (rank_fields, stats) = run_cluster(p, {
        let domains = domains.clone();
        let assignment = assignment.clone();
        let input = input.clone();
        let kernel = kernel.clone();
        let cfg = cfg.clone();
        move |mut w| {
            let conv = LowCommConvolver::new((*cfg).clone());
            // Local phase: convolve my sub-domains; NO communication.
            let my_fields: Vec<CompressedField> = assignment[w.rank()]
                .iter()
                .map(|&di| {
                    let d = domains[di];
                    let sub = input.extract(&d);
                    let plan = conv.plan_for(conv.response_region(&d, kernel.as_ref()));
                    conv.local()
                        .convolve_compressed(&sub, d.lo, kernel.as_ref(), plan)
                })
                .collect();
            // The byte counter is cluster-global, so rendezvous first: only
            // once *every* rank has finished its local phase is "no bytes
            // yet" a race-free statement (a fast rank would otherwise enter
            // the exchange while a slow one is still checking).
            w.barrier().expect("barrier failed");
            let before = w.stats().bytes();
            assert_eq!(before, 0, "local phase must not communicate");
            // ... and a second time, so that no rank starts the exchange
            // while a slower one has yet to read the counter.
            w.barrier().expect("barrier failed");

            // Single exchange: allgather the compressed samples.
            let payload: Vec<f64> = my_fields
                .iter()
                .flat_map(|f| f.samples().iter().copied())
                .collect();
            let all = w
                .allgather(encode_f64s(&payload))
                .expect("allgather failed");

            // Everyone reconstructs the full field from everyone's samples.
            // (A production deployment reconstructs only its own region;
            // reconstructing everything here lets the test compare fields.)
            let mut result = Grid3::zeros((n, n, n));
            let cube = BoxRegion::cube(n);
            for (rank, bytes) in all.iter().enumerate() {
                let samples = decode_f64s(bytes);
                let mut off = 0;
                for &di in &assignment[rank] {
                    let d = domains[di];
                    let plan = conv.plan_for(conv.response_region(&d, kernel.as_ref()));
                    let count = plan.total_samples();
                    let mut f = CompressedField::zeros(plan);
                    f.samples_mut().copy_from_slice(&samples[off..off + count]);
                    off += count;
                    f.add_region_into(&cube, &mut result, 1.0);
                }
                assert_eq!(off, samples.len(), "payload fully consumed");
            }
            result
        }
    });

    assert_eq!(stats.rounds(), 1, "exactly one collective exchange");
    for field in &rank_fields {
        let vs_serial = relative_l2(serial.as_slice(), field.as_slice());
        assert!(
            vs_serial < 1e-10,
            "distributed deviates from serial: {vs_serial}"
        );
        let vs_oracle = relative_l2(oracle.as_slice(), field.as_slice());
        assert!(vs_oracle < 0.03, "distributed error vs oracle: {vs_oracle}");
    }
}

#[test]
fn lowcomm_exchanges_less_than_traditional() {
    // Scale matters here: the sparse exchange beats the dense transposes
    // when (a) each domain's compressed result is *routed* — a receiver
    // gets only the octree cells intersecting its owned region, and (b)
    // domains are assigned to the worker that owns their *response*
    // region, so the dense in-domain samples never cross the network.
    let n = 64;
    let k = 16;
    let p = 4;
    let sigma = 1.0;
    let kernel = Arc::new(GaussianKernel::new(n, sigma));
    let field: Vec<Complex64> = (0..n * n * n)
        .map(|i| Complex64::from_real((i as f64 * 0.19).sin()))
        .collect();

    // Traditional distributed convolution: measured all-to-all traffic.
    let slabs = scatter_slabs(&field, n, p);
    let kern = {
        let kernel = kernel.clone();
        move |f: [usize; 3]| kernel.eval(f)
    };
    let (_, trad_stats) = run_cluster(p, move |mut w| {
        let planner = FftPlanner::new();
        let mine = slabs[w.rank()].clone();
        convolve_distributed(&mut w, &planner, mine, n, &kern).expect("convolution failed");
    });

    // Ownership: worker w owns the x-slab [w·n/p, (w+1)·n/p); a domain is
    // processed by the owner of its response region's low corner.
    let slab_of = |x: usize| x / (n / p);
    let owner_region = |w: usize| BoxRegion::new([w * n / p, 0, 0], [(w + 1) * n / p, n, n]);
    let domains = decompose_uniform(n, k);
    let input_grid = Arc::new(Grid3::from_vec(
        (n, n, n),
        field.iter().map(|c| c.re).collect(),
    ));
    // The paper's §5.4 heuristic (dense only inside the domain) minimizes
    // exchanged bytes; the spread-aware halo schedule of the accuracy tests
    // trades some of that traffic back for error (§5.3: "the accuracy can
    // be tuned … trade-offs between compute time, downsampling, accuracy
    // and scalability").
    let conv = Arc::new(LowCommConvolver::new(LowCommConfig {
        n,
        k,
        batch: 1024,
        schedule: RateSchedule::paper_default(k, 16),
    }));
    let assignment: Vec<Vec<usize>> = {
        let mut a = vec![Vec::new(); p];
        for (di, d) in domains.iter().enumerate() {
            let r = conv.response_region(d, kernel.as_ref());
            a[slab_of(r.lo[0])].push(di);
        }
        a
    };
    let (_, ours_stats) = run_cluster(p, {
        let conv = conv.clone();
        let domains = domains.clone();
        let assignment = assignment.clone();
        let kernel = kernel.clone();
        let input = input_grid.clone();
        move |mut w| {
            // Local phase: compress my domains (no communication).
            let fields: Vec<_> = assignment[w.rank()]
                .iter()
                .map(|&di| {
                    let d = domains[di];
                    let sub = input.extract(&d);
                    let plan = conv.plan_for(conv.response_region(&d, kernel.as_ref()));
                    conv.local()
                        .convolve_compressed(&sub, d.lo, kernel.as_ref(), plan)
                })
                .collect();
            // Single routed exchange: each receiver gets only its slab's cells.
            let outgoing: Vec<Vec<u8>> = (0..w.size())
                .map(|dest| {
                    let region = owner_region(dest);
                    let mut bytes = Vec::new();
                    for f in &fields {
                        let payload = f.region_payload(&region);
                        bytes.extend(encode_f64s(&payload.samples));
                    }
                    bytes
                })
                .collect();
            let _incoming = w.alltoall(outgoing).expect("exchange failed");
        }
    });

    assert_eq!(ours_stats.rounds(), 1, "single exchange");
    assert!(
        ours_stats.bytes() < trad_stats.bytes() / 2,
        "low-comm {} bytes should be well below traditional {} bytes",
        ours_stats.bytes(),
        trad_stats.bytes()
    );
}
