//! Property tests for the unified [`ConvolveSession`] API: a `Normal`-mode
//! session's `convolve`, which folds in waves, must be bit-identical to
//! compressing every domain and then accumulating, over random inputs and
//! configurations, and turning observability on or off must not perturb a
//! single bit of the numerics (spans and counters are pure side-channels).

use proptest::prelude::*;

use lcc_core::prelude::*;

fn random_input(n: usize, ax: f64, ay: f64, bias: f64) -> Grid3<f64> {
    Grid3::from_fn((n, n, n), |x, y, z| {
        bias + ((x as f64 * ax).sin() + (y as f64 * ay).cos()) * (1.0 + 0.01 * z as f64)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `session(Normal).convolve` and `accumulate_fields(compress_domains)`
    /// fold the same fields in the same order and must agree bit for bit,
    /// with identical accounting.
    #[test]
    fn normal_session_is_bit_identical_to_compress_then_accumulate(
        log_n in 4usize..6,
        k in prop_oneof![Just(4usize), Just(8)],
        ax in 0.1f64..0.6,
        ay in 0.05f64..0.5,
        bias in -1.0f64..1.0,
    ) {
        let n = 1usize << log_n;
        let conv = LowCommConvolver::new(LowCommConfig::paper_default(n, k, 8));
        let kernel = GaussianKernel::new(n, 1.0);
        let input = random_input(n, ax, ay, bias);

        let session = conv.session(ConvolveMode::Normal);
        let (fields, want_report) = session.compress_domains(&input, &kernel);
        let want = session.accumulate_fields(&fields);
        let (got, report) = session.convolve(&input, &kernel);

        prop_assert_eq!(want.as_slice(), got.as_slice());
        prop_assert_eq!(want_report.domains_processed, report.domains_processed);
        prop_assert_eq!(want_report.domains_skipped, report.domains_skipped);
        prop_assert_eq!(want_report.total_samples, report.total_samples);
        prop_assert_eq!(want_report.exchange_bytes, report.exchange_bytes);
    }

    /// Span and counter collection is a pure side-channel: enabling it must
    /// not change the result.
    #[test]
    fn observability_does_not_change_results(
        k in prop_oneof![Just(4usize), Just(8)],
        ax in 0.1f64..0.6,
        bias in -1.0f64..1.0,
    ) {
        let n = 16usize;
        let conv = LowCommConvolver::new(LowCommConfig::paper_default(n, k, 8));
        let kernel = GaussianKernel::new(n, 1.0);
        let input = random_input(n, ax, 0.3, bias);

        let observed = conv.session(ConvolveMode::Normal).with_observability();
        let (with_obs, _) = observed.convolve(&input, &kernel);
        if let Some(report) = observed.finish() {
            // When this case actually held the collector, the run's stage
            // spans and counters must have landed in the report.
            prop_assert!(report.span_count("stage1_2d_fft") >= 1);
            prop_assert!(report.counter("convolve.domains_processed").unwrap_or(0) >= 1);
        }

        let (plain, _) = conv.session(ConvolveMode::Normal).convolve(&input, &kernel);
        prop_assert_eq!(with_obs.as_slice(), plain.as_slice());
    }
}
