//! Small statistics helpers for benchmark reporting.

use crate::time::SimTime;

/// Streaming summary of a sequence of observations.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    n: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record an observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.sum_sq += x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Record a simulated duration in seconds.
    pub fn add_time(&mut self, t: SimTime) {
        self.add(t.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Population standard deviation (0 when fewer than 2 observations).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = (self.sum_sq / self.n as f64 - mean * mean).max(0.0);
        var.sqrt()
    }

    /// Minimum observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Fold another summary into this one, as if its observations had been
    /// added here (used to combine per-worker summaries into a job total).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

/// Exact samples of a simulated duration, in the order they were taken:
/// the mean and nearest-rank quantiles over the samples themselves, never
/// over histogram buckets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Samples(Vec<SimTime>);

impl Samples {
    /// No samples.
    pub fn new() -> Self {
        Samples(Vec::new())
    }

    /// Record a sample.
    pub fn push(&mut self, t: SimTime) {
        self.0.push(t);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The latest sample (zero when empty).
    pub fn last(&self) -> SimTime {
        self.0.last().copied().unwrap_or(SimTime::ZERO)
    }

    /// Arithmetic mean in seconds (0 when empty), summed in sample order —
    /// the same bits as a [`Summary`] fed the same samples.
    pub fn mean(&self) -> f64 {
        self.0
            .iter()
            .map(|t| t.as_secs_f64())
            .collect::<Summary>()
            .mean()
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by the nearest-rank rule: the
    /// `k`-th smallest sample with `k = ceil(q · n)`, clamped to `1..=n`.
    /// Always one of the samples; zero when empty.
    pub fn quantile(&self, q: f64) -> SimTime {
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let k = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
        sorted.get(k - 1).copied().unwrap_or(SimTime::ZERO)
    }

    /// Median (p50).
    pub fn p50(&self) -> SimTime {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> SimTime {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> SimTime {
        self.quantile(0.99)
    }

    /// The largest sample (zero when empty) — what every nearest-rank
    /// quantile above `1 − 1/n` reads.
    pub fn max(&self) -> SimTime {
        self.0.iter().copied().max().unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_give_exact_nearest_rank_quantiles() {
        let ms = SimTime::from_millis;
        let mut s = Samples::new();
        assert_eq!(
            (s.mean(), s.p50(), s.last(), s.max()),
            (0.0, SimTime::ZERO, SimTime::ZERO, SimTime::ZERO)
        );
        let taken = [9, 1, 5, 3, 7, 2, 8, 4, 6, 10].map(ms);
        for t in taken {
            s.push(t);
        }
        assert_eq!(s.last(), ms(10));
        // k = ceil(q · 10): ranks 5, 10, 10 and 1.
        assert_eq!(s.p50(), ms(5));
        assert_eq!(s.p95(), ms(10));
        assert_eq!(s.p99(), ms(10));
        assert_eq!(s.max(), ms(10));
        assert_eq!(s.quantile(0.0), ms(1));
        assert_eq!(s.quantile(0.21), ms(3));
        let direct: Summary = taken.iter().map(|t| t.as_secs_f64()).collect();
        assert_eq!(s.mean().to_bits(), direct.mean().to_bits());
    }

    #[test]
    fn basic_moments() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn merge_matches_direct_accumulation() {
        let mut a: Summary = [1.0, 3.0].into_iter().collect();
        let b: Summary = [2.0, 8.0].into_iter().collect();
        a.merge(&b);
        let direct: Summary = [1.0, 3.0, 2.0, 8.0].into_iter().collect();
        assert_eq!(a.count(), direct.count());
        assert_eq!(a.sum(), direct.sum());
        assert_eq!(a.min(), direct.min());
        assert_eq!(a.max(), direct.max());
        assert_eq!(a.stddev(), direct.stddev());
        let empty = Summary::new();
        a.merge(&empty);
        assert_eq!(a.count(), 4);
    }

    #[test]
    fn empty_summary_is_benign() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn single_observation_has_zero_stddev() {
        let mut s = Summary::new();
        s.add(3.5);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.mean(), 3.5);
    }

    #[test]
    fn add_time_converts_seconds() {
        let mut s = Summary::new();
        s.add_time(SimTime::from_millis(1500));
        assert!((s.mean() - 1.5).abs() < 1e-12);
    }
}
