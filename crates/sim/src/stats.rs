//! Exact samples for low-volume simulated durations.
//!
//! Per-window and per-restore figures are few, so [`Samples`] keeps every
//! one of them and reads exact nearest-rank quantiles. Per-`GWork` stage
//! times are many (one per work, ≈ 78 k works in one PointAdd job) and go
//! into the fixed-size [`crate::LogHistogram`] instead.

use crate::time::SimTime;

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

    /// Exact sum of the samples.
    pub fn sum(&self) -> SimTime {
        self.0.iter().copied().sum()
    }

    /// Arithmetic mean in seconds (0 when empty): the samples' seconds
    /// summed in sample order, then divided by their count.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let secs = self.0.iter().fold(0.0, |acc, t| acc + t.as_secs_f64());
        secs / self.0.len() as f64
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
            (s.mean(), s.sum(), s.p50(), s.last(), s.max()),
            (
                0.0,
                SimTime::ZERO,
                SimTime::ZERO,
                SimTime::ZERO,
                SimTime::ZERO
            )
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
        assert_eq!(s.sum(), ms(55));
        // The mean sums seconds in sample order, as the samples came.
        let in_order = taken.iter().fold(0.0, |acc, t| acc + t.as_secs_f64()) / 10.0;
        assert_eq!(s.mean().to_bits(), in_order.to_bits());
        assert!((s.mean() - 0.0055).abs() < 1e-15);
    }
}
