//! Medians, the tail-percentile rule, and the quartile spread the compare
//! step uses.

/// Samples a tail value must have beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;
/// The tail is never taken higher than this, however many samples exist.
pub const TAIL_CAP: f64 = 0.95;

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle values for an even count). Panics on an
/// empty slice: every caller has measured at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// What a traced op costs over a plain one, as a share of the plain one, and
/// the standard error of that figure. `plain[i]` and `traced[i]` are the same
/// work done next to each other in time without and with spans, so the median
/// of the pairs' differences leaves out the host's drift over the run. A
/// sample without a partner (the run ended on a plain op) is left out. The
/// standard error of a median is 1.2533 sigma / sqrt(n); sigma is taken from
/// the pairs' interquartile range (IQR / 1.349), which a few ops that ran
/// twice as fast or slow as the rest do not move.
pub fn paired_overhead(plain: &[f64], traced: &[f64]) -> (f64, f64) {
    let pairs: Vec<f64> = plain.iter().zip(traced).map(|(p, t)| (t - p) / p).collect();
    let iqr = quartiles(&pairs).map_or(0.0, |(q1, q3)| q3 - q1);
    let se = 1.2533 * (iqr / 1.349) / (pairs.len() as f64).sqrt();
    (median(&pairs), se)
}

/// The reported tail of a timing sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Which percentile `value` is, in `(0, 1]`.
    pub percentile: f64,
    /// Samples strictly after `value` in sorted order.
    pub beyond: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it,
/// capped at [`TAIL_CAP`]: p80 at 50 samples, p90 at 100, p95 from 200 up.
/// With too few samples for any tail above the median, the median is
/// reported (and labelled as such).
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "tail of no samples");
    let capped = ((TAIL_CAP * n as f64).ceil() as usize).max(1) - 1;
    let idx = match n.checked_sub(TAIL_BEYOND + 1) {
        Some(i) if i >= n / 2 => i.min(capped),
        _ => (n - 1) / 2,
    };
    Tail {
        value: v[idx],
        percentile: (idx + 1) as f64 / n as f64,
        beyond: n - 1 - idx,
    }
}

/// `min p10 p25 p50 p75 p90 max` of a sample, for the context lines.
pub fn summary(values: &[f64]) -> String {
    let v = sorted(values);
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    format!(
        "min {:.1} p10 {:.1} p25 {:.1} p50 {:.1} p75 {:.1} p90 {:.1} max {:.1}",
        v[0],
        at(0.10),
        at(0.25),
        at(0.50),
        at(0.75),
        at(0.90),
        v[v.len() - 1]
    )
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default "exclusive" method). `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median; 0 below two samples.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => {
            let m = median(values);
            if m == 0.0 {
                0.0
            } else {
                (q3 - q1).abs() / m.abs()
            }
        }
        None => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // p80 at 50 samples, p90 at 100: exactly ten samples beyond.
        let t = tail(&ramp(50));
        assert_eq!((t.value, t.beyond), (40.0, 10));
        assert!((t.percentile - 0.80).abs() < 1e-12);
        let t = tail(&ramp(100));
        assert_eq!((t.value, t.beyond), (90.0, 10));
        assert!((t.percentile - 0.90).abs() < 1e-12);
    }

    #[test]
    fn tail_is_capped_at_p95() {
        let t = tail(&ramp(1000));
        assert_eq!(t.value, 950.0);
        assert_eq!(t.beyond, 50);
        // Just below the cap's reach the ten-beyond rule still decides.
        let t = tail(&ramp(150));
        assert_eq!((t.value, t.beyond), (140.0, 10));
    }

    #[test]
    fn tail_falls_back_to_the_median_when_samples_are_few() {
        let t = tail(&ramp(15));
        assert_eq!(t.value, 8.0);
        assert!(t.beyond < TAIL_BEYOND);
        // 21 is the first count whose 11th-largest is at or above the median.
        let t = tail(&ramp(21));
        assert_eq!((t.value, t.beyond), (11.0, 10));
        let t = tail(&[3.0]);
        assert_eq!((t.value, t.beyond), (3.0, 0));
    }

    #[test]
    fn paired_overhead_cancels_drift_and_knows_its_error() {
        // The host slows by half over the run; every traced op costs 2 % more
        // than the plain op next to it. Medians of the two lists would read
        // the drift of whichever list ran later.
        let plain: Vec<f64> = (0..11).map(|i| 100.0 + 5.0 * i as f64).collect();
        let traced: Vec<f64> = plain[..10].iter().map(|p| p * 1.02).collect();
        let (overhead, se) = paired_overhead(&plain, &traced);
        assert!((overhead - 0.02).abs() < 1e-12 && se < 1e-12);
        // Pairs that disagree by +-10 % around the same 2 %: the figure
        // stays, its error is 1.2533 * (0.2 / 1.349) / sqrt(16) = 0.046.
        let plain = [100.0; 16];
        let traced: Vec<f64> = (0..16)
            .map(|i| if i % 2 == 0 { 92.0 } else { 112.0 })
            .collect();
        let (overhead, se) = paired_overhead(&plain, &traced);
        assert!((overhead - 0.02).abs() < 1e-12);
        assert!((se - 0.04645).abs() < 1e-4, "{se}");
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(50);
        v.reverse();
        assert_eq!(tail(&v).value, 40.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = quartiles(&ramp(10)).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]).unwrap();
        assert_eq!((q1, q3), (1.0, 4.0));
        assert!(quartiles(&[1.0]).is_none());
        assert_eq!(median(&ramp(10)), 5.5);
        assert!((spread(&ramp(10)) - 1.0).abs() < 1e-12);
    }
}
