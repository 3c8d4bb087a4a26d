//! A fixed piece of work of the benchmark's own, timed next to everything
//! the benchmark times, to tell how fast the host is running at that moment.
//!
//! The hosts this benchmark runs on are a few cores of a shared machine. Their
//! compute speed moves by 10-40 % from one tenth of a second to the next and
//! stays off for minutes (a loop that touches nothing outside the L1 cache
//! takes 5.4 ms or 8.7 ms within one second), so no statistic over one run's
//! wall times repeats between runs. The yardstick is work that no change to
//! the repo can touch (it calls nothing outside this file): unitary radix-2
//! butterfly passes over an array that fits the L1 cache. It slows down with
//! the host the way the FFT pipeline does, so a time divided by the yardstick
//! next to it repeats where the time itself does not. The gated times of the
//! workloads on which one thread computes are reported that way (see
//! [`HostClock`]), scaled by [`NOMINAL_S`] so that they still read as seconds:
//! the seconds the work would take on a host that runs the yardstick in its
//! nominal time.

use std::time::Instant;

use crate::stats::median;

/// Complex numbers in the yardstick's array (16 KiB) and sweeps per sample.
const LEN: usize = 1 << 10;
const SWEEPS: usize = 600;
/// What one sample takes on the host the baselines were measured on while
/// nothing disturbs it. A constant of the benchmark: changing it rescales
/// every gated time.
pub const NOMINAL_S: f64 = 5.0e-3;

pub struct Yardstick {
    data: Vec<[f64; 2]>,
    twiddles: Vec<[f64; 2]>,
}

impl Yardstick {
    pub fn new() -> Self {
        let step = std::f64::consts::TAU / LEN as f64;
        let mut y = Yardstick {
            data: (0..LEN)
                .map(|i| [1.0 + (i % 7) as f64, 0.5 - (i % 5) as f64])
                .collect(),
            twiddles: (0..LEN / 2)
                .map(|j| {
                    let (s, c) = (step * j as f64).sin_cos();
                    [c, -s]
                })
                .collect(),
        };
        y.sample(); // warm
        y
    }

    /// One decimation-in-frequency sweep, every pass scaled by 1/sqrt(2) so
    /// that the values keep their size however often this runs.
    fn sweep(&mut self) {
        let scale = std::f64::consts::FRAC_1_SQRT_2;
        let mut half = LEN / 2;
        while half >= 1 {
            let stride = LEN / (2 * half);
            for block in self.data.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for (j, (a, b)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                    let w = self.twiddles[j * stride];
                    let sum = [(a[0] + b[0]) * scale, (a[1] + b[1]) * scale];
                    let dif = [(a[0] - b[0]) * scale, (a[1] - b[1]) * scale];
                    *a = sum;
                    *b = [dif[0] * w[0] - dif[1] * w[1], dif[0] * w[1] + dif[1] * w[0]];
                }
            }
            half /= 2;
        }
    }

    /// Runs the fixed work once and returns the seconds it took.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..SWEEPS {
            self.sweep();
        }
        std::hint::black_box(&self.data);
        t.elapsed().as_secs_f64()
    }
}

/// Times pieces of work and scales each by the yardstick samples taken right
/// before and right after it.
///
/// Only where one thread computes. The yardstick runs on one thread and tells
/// how fast that core is going. A single-threaded op follows it closely (over
/// ten runs of `sparse128` the run's median op time moved with the run's
/// median sample at a slope of 0.8-1.0, correlation 0.9), so dividing by it
/// removes the host's share. An op on two threads does not (`dense64`: slope
/// 0.3, correlation 0.4; `cluster128x2`: 0.1, 0.1; two yardsticks run at once
/// on the two cores swing between 5 and 8.5 ms with no relation to the op
/// next to them), and dividing by it would add the host's swings to a metric
/// that hardly feels them. Those workloads are built with `scaled` off: the
/// samples are still taken and the host's speed reported, but every time is
/// the wall clock's.
pub struct HostClock {
    scaled: bool,
    yard: Yardstick,
    /// Every sample so far; the latest is the "before" of whatever is timed
    /// next.
    samples: Vec<f64>,
}

impl HostClock {
    pub fn new(scaled: bool) -> Self {
        let mut yard = Yardstick::new();
        let first = yard.sample();
        HostClock {
            scaled,
            yard,
            samples: vec![first],
        }
    }

    /// Takes a yardstick sample now and returns the factor that turns a wall
    /// time measured since the previous sample into the time reported: on
    /// the nominal host, or 1 if this clock does not scale.
    pub fn mark(&mut self) -> f64 {
        let before = self.samples[self.samples.len() - 1];
        let after = self.yard.sample();
        self.samples.push(after);
        if self.scaled {
            NOMINAL_S / (0.5 * (before + after))
        } else {
            1.0
        }
    }

    /// What the times of this clock are, for the context lines.
    pub fn describe(&self) -> String {
        let speed = format!(
            "this host ran at {:.3} of the nominal one",
            self.host_speed()
        );
        if self.scaled {
            format!(
                "times are on the nominal host (yardstick {} ms); {speed}",
                NOMINAL_S * 1e3
            )
        } else {
            format!("times are wall-clock (two compute threads: not scaled); {speed}")
        }
    }

    /// Runs `f` and returns its result, its wall seconds, and the seconds
    /// reported for it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let t = Instant::now();
        let result = f();
        let wall = t.elapsed().as_secs_f64();
        let scale = self.mark();
        (result, wall, wall * scale)
    }

    /// How fast the host ran over all samples so far: above 1 is faster than
    /// nominal.
    pub fn host_speed(&self) -> f64 {
        NOMINAL_S / median(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_keep_the_values_finite_and_their_energy() {
        let mut y = Yardstick::new();
        let energy =
            |y: &Yardstick| -> f64 { y.data.iter().map(|v| v[0] * v[0] + v[1] * v[1]).sum() };
        let before = energy(&y);
        for _ in 0..5 {
            assert!(y.sample() > 0.0);
        }
        let after = energy(&y);
        assert!((after / before - 1.0).abs() < 1e-9, "{before} -> {after}");
    }

    #[test]
    fn host_clock_scales_by_the_samples_around_the_work() {
        let mut clock = HostClock::new(true);
        let ((), wall, nominal) =
            clock.time(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        let around = 0.5 * (clock.samples[0] + clock.samples[1]);
        assert!(wall >= 2e-3);
        assert!((nominal - wall * NOMINAL_S / around).abs() < 1e-12);
        assert_eq!(clock.samples.len(), 2);
        assert!(clock.host_speed() > 0.0);
        let mut plain = HostClock::new(false);
        let ((), wall, reported) = plain.time(|| ());
        assert_eq!(wall, reported);
        assert_eq!(plain.samples.len(), 2);
    }
}
