//! The benchmark's own arithmetic: a seeded generator, nearest-rank
//! percentiles, the open-loop schedule and the serving verdicts.

/// SplitMix64: a tiny, fully specified generator, so a seed yields the
/// same inputs on every host and toolchain.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Nearest-rank percentile of `sorted` (ascending): the value at rank
/// `ceil(p/100 · n)`. `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// Whether the sample supports reporting the `p`-th percentile: at least
/// ten samples lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= 10
}

/// Median (nearest rank, so always a measured value).
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, 50.0).unwrap_or(0.0)
}

/// Sorted copy.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Share of a timed phase's windows its end-to-end figures are read from:
/// the quietest tenth.
///
/// A shared host switches between a quiet state and one about 1.7x
/// slower (another tenant busy on the same cores) every few hundred
/// milliseconds. A figure over a whole run moves with how long that run
/// happened to spend in each state; a figure over the run's quietest
/// windows does not, while a change to the program moves both alike.
pub const QUIET_SHARE: f64 = 0.1;

/// The quietest [`QUIET_SHARE`] of a phase's windows (at least one), by
/// `cost` (lower is quieter), as indices in window order.
pub fn quiet_windows(cost: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..cost.len()).collect();
    idx.sort_by(|&a, &b| cost[a].total_cmp(&cost[b]).then(a.cmp(&b)));
    let k = ((cost.len() as f64 * QUIET_SHARE).ceil() as usize).clamp(1, cost.len().max(1));
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

/// One request of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time, ns after the step starts.
    pub due_ns: u64,
    /// Model index.
    pub model: usize,
    /// Input index into the request pool.
    pub input: usize,
}

/// `n` seeded Poisson arrivals at `rate` requests/s, each for a uniformly
/// drawn model and input.
pub fn poisson_schedule(
    seed: u64,
    rate: f64,
    n: usize,
    n_models: usize,
    n_inputs: usize,
) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate;
            Arrival {
                due_ns: (t * 1e9) as u64,
                model: rng.below(n_models as u64) as usize,
                input: rng.below(n_inputs as u64) as usize,
            }
        })
        .collect()
}

/// The backlog rule: a step's backlog is growing when, at the end of its
/// send window, more than 2% of the step's requests (and at least 50) are
/// still unanswered.
pub fn backlog_growing(sent: usize, answered_in_window: usize) -> bool {
    let outstanding = sent.saturating_sub(answered_in_window);
    outstanding > 50 && outstanding as f64 > 0.02 * sent as f64
}

/// What one ladder step measured, as the SLO verdict needs it.
#[derive(Debug, Clone, Copy)]
pub struct StepVerdict {
    pub rate: f64,
    pub p99_ms: f64,
    pub failed: usize,
    pub backlog_growing: bool,
}

/// The highest ladder rate such that it and every lower step keep p99
/// within `limit_ms`, fail no request and hold the backlog; 0 when even
/// the lowest step misses.
pub fn slo_rate(steps: &[StepVerdict], limit_ms: f64) -> f64 {
    let mut by_rate = steps.to_vec();
    by_rate.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    let mut best = 0.0;
    for s in by_rate {
        if s.p99_ms > limit_ms || s.failed > 0 || s.backlog_growing {
            break;
        }
        best = s.rate;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Rank ceil(0.5 * 5) = 3.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
    }

    #[test]
    fn quietest_tenth_of_windows() {
        let cost: Vec<f64> = (0..20).map(|i| ((i * 7) % 20) as f64).collect();
        assert_eq!(quiet_windows(&cost), vec![0, 3]);
        // Rounds up, and ties keep the earlier window.
        let ties = [4.0, 2.0, 3.0, 2.0, 5.0, 2.0, 6.0, 7.0, 8.0, 9.0, 2.0];
        assert_eq!(quiet_windows(&ties), vec![1, 3]);
        assert_eq!(quiet_windows(&[3.0]), vec![0]);
        assert!(quiet_windows(&[]).is_empty());
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs n - ceil(0.99 n) >= 10, first true at n = 1000.
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1500, 99.0), 15);
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert!(!supports(0, 50.0));
        assert_eq!(beyond(3, 99.0), 0);
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(11, 2000.0, 1000, 3, 64);
        let b = poisson_schedule(11, 2000.0, 1000, 3, 64);
        let c = poisson_schedule(12, 2000.0, 1000, 3, 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 1000);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|r| r.model < 3 && r.input < 64));
        // 1000 arrivals at 2000/s span about 0.5 s (sd ~16 ms).
        let span = a.last().unwrap().due_ns as f64 / 1e9;
        assert!((0.42..0.58).contains(&span), "{span}");
        for m in 0..3 {
            let share = a.iter().filter(|r| r.model == m).count() as f64 / a.len() as f64;
            assert!((0.25..0.42).contains(&share), "model {m} share {share}");
        }
    }

    #[test]
    fn generator_ranges() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn backlog_rule() {
        assert!(!backlog_growing(1000, 1000));
        assert!(!backlog_growing(1000, 950)); // 50 outstanding: not > 50
        assert!(backlog_growing(10_000, 9_700)); // 300 > 2% of 10k
        assert!(!backlog_growing(10_000, 9_850)); // 150 < 200
        assert!(!backlog_growing(100, 60)); // 40 > 2% of 100, but not > 50
        assert!(backlog_growing(100, 30));
    }

    #[test]
    fn slo_rate_selection() {
        let s = |rate: f64, p99_ms: f64, failed: usize, growing: bool| StepVerdict {
            rate,
            p99_ms,
            failed,
            backlog_growing: growing,
        };
        let ladder = [
            s(1000.0, 1.0, 0, false),
            s(2000.0, 1.5, 0, false),
            s(4000.0, 3.0, 0, false),
            s(8000.0, 40.0, 0, true),
        ];
        assert_eq!(slo_rate(&ladder, 5.0), 4000.0);
        assert_eq!(slo_rate(&ladder, 2.0), 2000.0);
        assert_eq!(slo_rate(&ladder, 0.5), 0.0);
        // Order-independent, and a pass above a miss does not count.
        let shuffled = [ladder[3], ladder[0], ladder[2], ladder[1]];
        assert_eq!(slo_rate(&shuffled, 5.0), 4000.0);
        let gap = [
            s(1000.0, 1.0, 0, false),
            s(2000.0, 1.0, 1, false),
            s(4000.0, 1.0, 0, false),
        ];
        assert_eq!(slo_rate(&gap, 5.0), 1000.0);
        let growing = [s(1000.0, 1.0, 0, false), s(2000.0, 1.0, 0, true)];
        assert_eq!(slo_rate(&growing, 5.0), 1000.0);
    }
}
