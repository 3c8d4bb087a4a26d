//! Algorithm 2 skips identically zero sub-domains, and tests for zero in
//! place: a stress field that is zero outside one sub-domain is convolved
//! once, and its result is that sub-domain's contribution to the bit.
//!
//! The pencil counter is process-global, which is why this test has a file
//! (a process) to itself.

use lcc_core::{fold_fields, LowCommConfig};
use lcc_greens::MassifGamma;
use lcc_grid::{BoxRegion, Grid3, Sym3};
use lcc_massif::{GammaConvolution, LowCommGamma, TensorField};
use lcc_obs::ObsSession;
use lcc_octree::RateSchedule;

#[test]
fn stress_zero_outside_one_subdomain_convolves_only_it() {
    let (n, k) = (16, 4);
    let gamma = MassifGamma::new(n, 1.3, 0.8);
    let engine = LowCommGamma::new(
        gamma,
        LowCommConfig {
            n,
            k,
            batch: 64,
            schedule: RateSchedule::paper_default(k, 8),
        },
    );
    let d = BoxRegion::new([4, 12, 8], [8, 16, 12]);
    let mut sigma = TensorField::zeros(n);
    for p in d.points() {
        let s = ((p[0] * 3 + p[1] * 5 + p[2] * 7) as f64 * 0.37).sin();
        sigma.set(p[0], p[1], p[2], Sym3::new(s, -s, 0.5, 0.25 * s, s, 1.0));
    }

    let session = ObsSession::start().expect("no other obs session in this process");
    let got = engine.apply_gamma(&sigma);
    let report = session.finish();
    let pencils = report
        .counter("pipeline.pencils_transformed")
        .expect("counter");
    assert_eq!(pencils, (6 * n * (n / 2 + 1)) as u64, "one tensor convolve");

    let sub: [Grid3<f64>; 6] = std::array::from_fn(|c| sigma.component(c).extract(&d));
    let conv = engine.convolver();
    let fields = conv
        .local()
        .convolve_tensor_compressed(&sub, d.lo, &gamma, conv.plan_for(d));
    for (c, field) in fields.iter().enumerate() {
        let mut want = Grid3::zeros((n, n, n));
        fold_fields([field], &BoxRegion::cube(n), &mut want);
        for (a, b) in got.component(c).as_slice().iter().zip(want.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "component {c}");
        }
    }
}
