//! The machine-speed probe.
//!
//! On a shared machine the same code runs 10–40 % slower for minutes at a
//! time when neighbours are busy, which would read as a regression or a
//! gain of MAGIC. The probe is a fixed piece of the benchmark's own code,
//! timed between units of work on as many threads as the workload keeps
//! busy. Gated times are scaled by `REFERENCE_MS / probe median`: across
//! 25-second windows of alternating probes and epochs, the scaled
//! `train-ref` epoch had a 1.6 % interquartile spread against 7.3 %
//! unscaled. The probe never runs concurrently with the measured work,
//! and every run also prints its unscaled values.

use std::time::Instant;

/// What the full probe takes on the machine the baselines were recorded
/// on; scaled times are times on a machine running the probe this fast.
pub const REFERENCE_MS: f64 = 32.0;

/// Steps of the full probe.
const STEPS: u64 = 6_000_000;

/// A dependent chain of integer multiply-adds, table loads and float
/// updates over a 256 KiB table: scalar, not vectorizable, and fixed.
fn chain(steps: u64) -> f64 {
    let table: Vec<u64> = (0..32_768u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let start = Instant::now();
    let mut x = 1u64;
    let mut acc = 0.0f64;
    for _ in 0..steps {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(table[(x >> 49) as usize]);
        acc = acc * 0.999_999_9 + (x >> 40) as f64;
    }
    std::hint::black_box((x, acc));
    start.elapsed().as_secs_f64() * 1e3
}

/// Probe samples of one run, and the scale they give.
#[derive(Debug, Clone)]
pub struct Probes {
    /// Share of the full probe each sample runs (1 except in the smoke
    /// test, whose debug build runs the probe far slower).
    fraction: f64,
    samples: Vec<f64>,
}

impl Probes {
    pub fn new(fraction: f64) -> Self {
        Probes {
            fraction,
            samples: Vec::new(),
        }
    }

    /// Runs the probe on `threads` threads at once and records the
    /// slowest thread's time: work split across threads waits for it.
    pub fn take(&mut self, threads: usize) {
        let steps = (STEPS as f64 * self.fraction) as u64;
        let slowest = std::thread::scope(|scope| {
            let others: Vec<_> = (1..threads).map(|_| scope.spawn(|| chain(steps))).collect();
            let mine = chain(steps);
            others
                .into_iter()
                .map(|t| t.join().expect("probe thread"))
                .fold(mine, f64::max)
        });
        self.samples.push(slowest / self.fraction);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Median full-probe time, ms.
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples)
    }

    /// Factor that turns a time measured beside these samples into a time
    /// at the reference speed.
    pub fn time_scale(&self) -> f64 {
        REFERENCE_MS / self.median_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_probe_median() {
        let mut probes = Probes::new(0.01);
        probes.take(2);
        assert!(probes.median_ms() > 0.0);
        // A machine running the probe at half speed halves every time.
        let slow = Probes {
            fraction: 1.0,
            samples: vec![64.0, 32.0, 64.0],
        };
        assert_eq!(slow.time_scale(), 0.5);
        let reference = Probes {
            fraction: 1.0,
            samples: vec![REFERENCE_MS],
        };
        assert_eq!(reference.time_scale(), 1.0);
    }
}
