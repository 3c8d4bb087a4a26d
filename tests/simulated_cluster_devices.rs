//! Full-stack integration: a cluster of workers, each with a *memory-
//! limited simulated accelerator*, running the low-communication pipeline
//! where the dense approach cannot even allocate.
//!
//! This is the paper's deployment story in miniature: per-worker device
//! memory is the binding constraint (Table 2), the compressed pipeline
//! fits where the dense transform does not (§5.1), and the only network
//! traffic is the routed sample exchange (Fig. 1b).

use lcc_comm::run_cluster;
use lcc_core::{ConvolveMode, Deployment, LowCommConfig, LowCommConvolver, PipelineFootprint};
use lcc_device::{PerfModel, SimDevice};
use lcc_greens::GaussianKernel;
use lcc_grid::{decompose_uniform, relative_l2, BoxRegion, Grid3};
use lcc_octree::RateSchedule;

/// A toy accelerator scaled so the N=64 dense transform (real field +
/// spectrum + workspace ≈ 3·8·N³ ≈ 6.3 MB) does not fit but the k=8
/// streaming pipeline (~4.5 MB with workspaces) does — Table 2's logic at
/// laptop scale.
fn toy_device() -> SimDevice {
    SimDevice::new("toy-6MB", 6_000_000, PerfModel::v100())
}

#[test]
fn pipeline_fits_where_dense_does_not() {
    let n = 64usize;
    let k = 8usize;
    let dev = toy_device();

    // Dense r2c transform: real field, half spectrum, cuFFT workspace.
    let dense_part = 8 * (n as u64).pow(3);
    let a = dev.alloc(dense_part, "dense-field");
    let b = dev.alloc(dense_part, "dense-spectrum");
    let c = dev.alloc(dense_part, "dense-workspace");
    assert!(c.is_err(), "dense transform must not fit on the toy device");
    drop((a, b));
    assert_eq!(dev.memory().used(), 0);

    // Pipeline: slab + retained + batch + compressed + plan workspaces.
    let schedule = RateSchedule::paper_default(k, 16);
    let domain = BoxRegion::new([0; 3], [k; 3]);
    let plan = lcc_octree::SamplingPlan::build(n, domain, &schedule);
    let fp = PipelineFootprint::model(
        n,
        k,
        plan.retained_z().len(),
        256,
        plan.compressed_bytes() as u64,
    );
    let mut held = Vec::new();
    for (bytes, label) in [
        (fp.slab_bytes, "slab"),
        (fp.retained_bytes, "retained"),
        (fp.batch_bytes, "batch"),
        (fp.compressed_bytes, "compressed"),
        (fp.plan_workspace_bytes, "workspace"),
    ] {
        held.push(
            dev.alloc(bytes, label)
                .unwrap_or_else(|e| panic!("pipeline buffer failed: {e}")),
        );
    }
    assert!(dev.memory().peak() <= dev.memory().capacity());
}

#[test]
fn cluster_of_constrained_devices_computes_correct_result() {
    let n = 32usize;
    let k = 8usize;
    let p = 4usize;
    let sigma = 1.0;
    let kernel = GaussianKernel::new(n, sigma);
    let input = Grid3::from_fn((n, n, n), |x, y, z| {
        ((x as f64 * 0.33).sin() + (y as f64 * 0.21).cos()) * (1.0 + 0.02 * z as f64)
    });
    let conv = LowCommConvolver::new(LowCommConfig {
        n,
        k,
        batch: 256,
        schedule: RateSchedule::for_kernel_spread(k, sigma, 16),
    });
    let domains = decompose_uniform(n, k);
    let deployment = Deployment::slabs(&conv, &kernel, p);

    let oracle = lcc_core::TraditionalConvolver::new(n).convolve(&input, &kernel);

    let (slabs, stats) = run_cluster(p, |mut w| {
        // Each rank owns a memory-limited device, and every domain's
        // buffers must fit on it one at a time — sequential domain
        // processing is what keeps it fitting, exactly the paper's
        // single-GPU mode of operation.
        let dev = toy_device();
        for id in deployment.domains_of(w.rank()) {
            let plan = conv.plan_for(conv.response_region(&domains[id], &kernel));
            let fp = PipelineFootprint::model(
                n,
                k,
                plan.retained_z().len(),
                256,
                plan.compressed_bytes() as u64,
            );
            let _slab = dev.alloc(fp.slab_bytes, "slab").expect("slab fits");
            let _rest = dev
                .alloc(fp.retained_bytes + fp.batch_bytes, "working")
                .expect("working set fits");
        }
        assert!(dev.memory().peak() <= dev.memory().capacity());

        // One routed exchange, then each rank folds its own slab.
        conv.session(ConvolveMode::Normal)
            .exchange(&mut w, &input, &kernel, &deployment)
            .expect("exchange failed")
    });

    assert_eq!(stats.rounds(), 1);
    // The x-slabs, in rank order, are consecutive runs of the row-major
    // grid: concatenated, they are the whole result.
    let result: Vec<f64> = slabs
        .iter()
        .flat_map(|s| s.result.as_slice().iter().copied())
        .collect();
    let err = relative_l2(oracle.as_slice(), &result);
    assert!(err < 0.03, "cluster-of-devices error {err}");
}
