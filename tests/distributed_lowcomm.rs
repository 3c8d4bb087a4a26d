//! The paper's Fig. 1(b) on the functional cluster simulator, through
//! `ConvolveSession::exchange`: workers convolve their sub-domains
//! locally, exchange compressed samples **once**, and fold. Checked
//! against the serial result and the dense oracle, with the measured bytes
//! tied exactly to Eq. 6's numerator plus the documented framing, against
//! the traditional distributed convolution, and with malformed frames
//! ending in typed errors.

use std::sync::Arc;

use lcc_comm::{convolve_distributed, run_cluster, scatter_slabs, CommError, CommStats};
use lcc_core::prelude::*;
use lcc_fft::{Complex64, FftPlanner};

/// One Normal-mode exchange per rank of `deployment`.
fn exchange_on_cluster(
    conv: &LowCommConvolver,
    input: &Grid3<f64>,
    kernel: &GaussianKernel,
    deployment: &Deployment,
) -> (Vec<Exchanged>, Arc<CommStats>) {
    run_cluster(deployment.ranks(), |mut w| {
        conv.session(ConvolveMode::Normal)
            .exchange(&mut w, input, kernel, deployment)
            .expect("exchange failed")
    })
}

/// Every rank's fold equals the serial result over its region, bit for
/// bit: both deployments fold x-slabs of full y-z planes, which are
/// contiguous runs of the row-major grid.
fn assert_matches_serial(out: &[Exchanged], serial: &Grid3<f64>) {
    let (n, _, _) = serial.shape();
    for (rank, e) in out.iter().enumerate() {
        let want = &serial.as_slice()[e.region.lo[0] * n * n..e.region.hi[0] * n * n];
        assert_eq!(e.result.as_slice(), want, "rank {rank} deviates");
    }
}

#[test]
fn distributed_matches_serial_lowcomm_and_oracle() {
    let (n, k, sigma) = (32, 8, 1.5);
    let kernel = GaussianKernel::new(n, sigma);
    let input = Grid3::from_fn((n, n, n), |x, y, z| {
        ((x as f64 * 0.29).sin() + (y as f64 * 0.41).cos()) * (1.0 + 0.01 * z as f64)
    });
    let conv = LowCommConvolver::new(LowCommConfig {
        n,
        k,
        batch: 512,
        schedule: RateSchedule::for_kernel_spread(k, sigma, 16),
    });
    let (serial, _) = conv.session(ConvolveMode::Normal).convolve(&input, &kernel);
    let oracle = TraditionalConvolver::new(n).convolve(&input, &kernel);

    let deployment = Deployment::replicated(n, k, 4);
    let (out, stats) = exchange_on_cluster(&conv, &input, &kernel, &deployment);
    assert_eq!(stats.rounds(), 1, "exactly one collective exchange");
    assert_matches_serial(&out, &serial);
    let vs_oracle = relative_l2(oracle.as_slice(), out[0].result.as_slice());
    assert!(vs_oracle < 0.03, "distributed error vs oracle: {vs_oracle}");
}

#[test]
fn lowcomm_exchanges_less_than_traditional() {
    // The sparse exchange beats the dense transposes because each receiver
    // gets only the octree cells meeting its slab, and each domain is
    // computed by the owner of its response region, so dense cores never
    // travel. The §5.4 heuristic schedule (dense only inside the domain)
    // minimizes the bytes; spread-aware halos trade some back for accuracy.
    let (n, k, p) = (64, 16, 4);
    let kernel = Arc::new(GaussianKernel::new(n, 1.0));
    let field: Vec<Complex64> = (0..n * n * n)
        .map(|i| Complex64::from_real((i as f64 * 0.19).sin()))
        .collect();

    let slabs = scatter_slabs(&field, n, p);
    let kern = {
        let kernel = kernel.clone();
        move |f: [usize; 3]| kernel.eval(f)
    };
    let (_, trad_stats) = run_cluster(p, move |mut w| {
        let mine = slabs[w.rank()].clone();
        convolve_distributed(&mut w, &FftPlanner::new(), mine, n, &kern).expect("convolution");
    });

    let conv = LowCommConvolver::new(LowCommConfig {
        n,
        k,
        batch: 1024,
        schedule: RateSchedule::paper_default(k, 16),
    });
    let input = Grid3::from_vec((n, n, n), field.iter().map(|c| c.re).collect());
    let deployment = Deployment::slabs(&conv, kernel.as_ref(), p);
    let (_, ours_stats) = exchange_on_cluster(&conv, &input, &kernel, &deployment);

    assert_eq!(ours_stats.rounds(), 1, "single exchange");
    assert!(
        ours_stats.bytes() < trad_stats.bytes() / 2,
        "low-comm {} bytes should be well below traditional {} bytes",
        ours_stats.bytes(),
        trad_stats.bytes()
    );
}

#[test]
fn sparse_exchange_matches_serial_and_eq6_bytes_exactly() {
    // Three point sources: 61 of 64 sub-domains are identically zero, so
    // some ranks compute nothing. Nothing may be decoded for a zero domain,
    // and the logical bytes must be Eq. 6's numerator — 8 per routed
    // sample — plus the framing, exactly, in one round: no other traffic
    // exists, in particular none during the local phase.
    let (n, k, p) = (32, 8, 4);
    let conv = LowCommConvolver::new(LowCommConfig::paper_default(n, k, 16));
    let kernel = GaussianKernel::new(n, 1.0);
    let mut input = Grid3::zeros((n, n, n));
    input[(3, 5, 7)] = 1.0;
    input[(12, 30, 2)] = -2.0;
    input[(27, 9, 17)] = 0.5;
    let (serial, report) = conv.session(ConvolveMode::Normal).convolve(&input, &kernel);
    assert_eq!(report.domains_processed, 3);
    let domains = decompose_uniform(n, k);

    for deployment in [
        Deployment::replicated(n, k, p),
        Deployment::slabs(&conv, &kernel, p),
    ] {
        let (out, stats) = exchange_on_cluster(&conv, &input, &kernel, &deployment);
        assert_matches_serial(&out, &serial);
        assert!(out.iter().all(|e| e.report.domains_processed == 3));

        // From the layout alone: from each rank to each peer an 8-byte
        // count, and per nonzero domain an 8-byte id plus 8 bytes for each
        // sample of its cells that meet the peer's region.
        let mut want = 0;
        for r in 0..p {
            let sent = deployment
                .domains_of(r)
                .filter(|&id| !input.all_in(&domains[id], |&v| v == 0.0));
            let plans: Vec<_> = sent
                .map(|id| conv.plan_for(conv.response_region(&domains[id], &kernel)))
                .collect();
            for q in (0..p).filter(|&q| q != r) {
                let region = deployment.region(q);
                let cells = plans.iter().flat_map(|s| {
                    let meeting = s.cells_intersecting(&region).into_iter();
                    meeting.map(|c| s.cells()[c].sample_count())
                });
                want += 8 + 8 * plans.len() + 8 * cells.sum::<usize>();
            }
        }
        assert_eq!(stats.bytes(), want as u64, "{deployment:?}");
        assert_eq!(stats.rounds(), 1);
        assert_eq!(stats.message_count(), (p * (p - 1)) as u64);
    }
}

#[test]
fn malformed_frames_are_typed_errors() {
    // Rank 1 sends rank 0 a corrupted copy of its real frame; rank 0's
    // exchange must return the matching typed error, never panic.
    let (n, k) = (16, 8);
    let conv = LowCommConvolver::new(LowCommConfig::paper_default(n, k, 8));
    let kernel = GaussianKernel::new(n, 1.0);
    let mut input = Grid3::zeros((n, n, n));
    input[(1, 1, 9)] = 1.0; // domain 1, computed by rank 1
    input[(9, 1, 1)] = 1.0; // domain 4, computed by rank 0
    let deployment = Deployment::replicated(n, k, 2);
    let session = conv.session(ConvolveMode::Normal);
    let domain = decompose_uniform(n, k)[1];
    let field = session.compress_domain(&input, &domain, &kernel);
    let frame = session.encode_frame([(1, &field.expect("nonzero"))], &deployment.region(0));
    let with_word = |at: usize, v: u64| {
        let mut f = frame.clone();
        f[at..at + 8].copy_from_slice(&v.to_le_bytes());
        f
    };
    // (case, frame, the id an `UnexpectedDomain` names; `None`: `Decode`)
    let cases = [
        ("truncated", frame[..frame.len() - 8].to_vec(), None),
        ("ragged", frame[..4].to_vec(), None),
        (
            "trailing samples",
            [frame.as_slice(), &[0; 8]].concat(),
            None,
        ),
        ("count beyond the frame", with_word(0, 2), None),
        ("foreign id", with_word(8, 4), Some(4)),
        ("id out of range", with_word(8, 999), Some(999)),
    ];
    for (name, bad, foreign) in cases {
        let (results, _) = run_cluster(2, |mut w| {
            if w.rank() == 1 {
                w.alltoall(vec![bad.clone(), Vec::new()]).expect("alltoall");
                return None;
            }
            let session = conv.session(ConvolveMode::Normal);
            session.exchange(&mut w, &input, &kernel, &deployment).err()
        });
        match (results[0].clone(), foreign) {
            (Some(CommError::UnexpectedDomain { domain, .. }), Some(id)) => assert_eq!(domain, id),
            (Some(CommError::Decode { peer: 1, .. }), None) => {}
            (got, _) => panic!("{name}: wrong outcome {got:?}"),
        }
    }
}
