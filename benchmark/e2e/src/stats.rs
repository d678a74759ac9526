//! Sample statistics, the seeded input generators the workloads share,
//! and the loss digest.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q`% of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(q, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `q` in `n` samples. The guard
/// keeps binary rounding (99.9% of 10000 is 9990.000000000002) from
/// pushing an exact rank up by one.
fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Median of an unsorted sample (nearest rank, so always a sample).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// Ascending copy of a sample.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_CANDIDATES: [f64; 7] = [99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile that still has at least ten samples beyond
/// it, with its value, or `None` when the sample is too small for even
/// the median to qualify.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    TAIL_CANDIDATES.iter().find_map(|&q| {
        let rank = nearest_rank(q, n);
        (n >= rank + 10).then(|| (q, sorted[rank - 1]))
    })
}

/// Quartiles exactly as Python's `statistics.quantiles(data, n=4)`
/// computes them (the default "exclusive" method).
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let data = sorted(samples);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median quartile.
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// SplitMix64: the benchmark's own seeded generator, so the inputs it
/// derives from `--seed` (request order, arrival times) do not depend on
/// the program under test.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1]: never 0, so `ln` stays finite.
    pub fn next_open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A seeded Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// Due times (seconds from the start of an open-loop phase) of a
/// Poisson arrival process at `rate` per second, up to `duration`.
pub fn poisson_schedule(seed: u64, rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = SplitMix::new(seed);
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.next_open01().ln() / rate;
        if t >= duration {
            return due;
        }
        due.push(t);
    }
}

/// Latency and lateness of one open-loop request, both timed from when
/// it was due, so a stall that delays later sends counts against them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DueTiming {
    /// Completion minus due time, seconds.
    pub latency: f64,
    /// Send minus due time, seconds: how late the generator ran.
    pub late: f64,
}

impl DueTiming {
    pub fn new(due: f64, sent: f64, done: f64) -> Self {
        DueTiming {
            latency: done - due,
            late: (sent - due).max(0.0),
        }
    }
}

/// FNV-1a over a sequence of `f32` bit patterns.
pub fn fnv1a_f32(values: impl IntoIterator<Item = f32>) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01B3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_picks_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        let s = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // 19 samples: even the median (rank 10) leaves only 9 beyond.
        assert_eq!(tail(&s(19)), None);
        assert_eq!(tail(&s(20)), Some((50.0, 10.0)));
        // 100 samples: p90 is rank 90 with 10 beyond; p95 leaves 5.
        assert_eq!(tail(&s(100)), Some((90.0, 90.0)));
        // 1000 samples: p99 is rank 990 with exactly 10 beyond.
        assert_eq!(tail(&s(1000)), Some((99.0, 990.0)));
        // 10000 samples: p99.9 is rank 9990.
        assert_eq!(tail(&s(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1, 3, 2, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&s) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_requested_rate() {
        let a = poisson_schedule(7, 120.0, 50.0);
        assert_eq!(a, poisson_schedule(7, 120.0, 50.0));
        assert_ne!(a, poisson_schedule(8, 120.0, 50.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "due times increase");
        assert!(a.iter().all(|&t| t > 0.0 && t < 50.0));
        let rate = a.len() as f64 / 50.0;
        assert!((rate - 120.0).abs() < 120.0 * 0.05, "rate {rate}");
    }

    #[test]
    fn due_time_accounting_charges_generator_stalls() {
        // Sent on time: latency is the service time.
        assert_eq!(
            DueTiming::new(1.0, 1.0, 1.5),
            DueTiming {
                latency: 0.5,
                late: 0.0
            }
        );
        // Sent 0.25 s late (both senders busy): the wait counts.
        let t = DueTiming::new(1.0, 1.25, 1.75);
        assert_eq!(t.late, 0.25);
        assert_eq!(t.latency, 0.75);
        // A clock reading a hair before the due time is not "early".
        assert_eq!(DueTiming::new(2.0, 1.999_999, 2.5).late, 0.0);
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let p = SplitMix::new(3).permutation(50);
        assert_eq!(p, SplitMix::new(3).permutation(50));
        let mut q = p.clone();
        q.sort_unstable();
        assert_eq!(q, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn digest_depends_on_every_bit() {
        let a = fnv1a_f32([1.0, 2.0]);
        assert_eq!(a, fnv1a_f32([1.0, 2.0]));
        assert_ne!(a, fnv1a_f32([2.0, 1.0]));
        assert_ne!(a, fnv1a_f32([1.0, f32::from_bits(2.0f32.to_bits() + 1)]));
    }
}
