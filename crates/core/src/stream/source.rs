//! Stream sources: rate-controlled, deterministic micro-batch emitters.

use gflink_sim::SimTime;

/// A continuous source: `rate` logical records per second for `duration`,
/// chopped into micro-batches of `batch_logical` records.
///
/// Build one with the fluent constructors —
/// `StreamSource::at_rate(2e7).for_duration(SimTime::from_secs(5))`.
#[derive(Clone, Debug)]
pub struct StreamSource {
    /// Offered load, logical records per second.
    rate: f64,
    /// How long the stream runs.
    duration: SimTime,
    /// Logical records per micro-batch.
    batch_logical: u64,
    /// Actual records materialized per micro-batch.
    batch_actual: usize,
}

impl StreamSource {
    /// A source offering `rate` logical records per second. Defaults: 1 s
    /// duration, 1 M-logical-record micro-batches materializing 64 rows.
    pub fn at_rate(rate: f64) -> StreamSource {
        StreamSource {
            rate,
            duration: SimTime::from_secs(1),
            batch_logical: 1_000_000,
            batch_actual: 64,
        }
    }

    /// How long the source keeps emitting.
    pub fn for_duration(mut self, duration: SimTime) -> StreamSource {
        self.duration = duration;
        self
    }

    /// Micro-batch shape: `logical` records at paper scale (drives timing)
    /// materialized as `actual` rows (drive the real computation).
    pub fn with_batch(mut self, logical: u64, actual: usize) -> StreamSource {
        self.batch_logical = logical;
        self.batch_actual = actual;
        self
    }

    /// Number of micro-batches the source emits.
    pub fn num_batches(&self) -> usize {
        ((self.rate * self.duration.as_secs_f64()) / self.batch_logical as f64).floor() as usize
    }

    /// Arrival instant of batch `i` (the time its last record arrives).
    pub fn arrival(&self, i: usize) -> SimTime {
        let per_batch = self.batch_logical as f64 / self.rate;
        SimTime::from_secs_f64(per_batch * (i + 1) as f64)
    }

    pub(crate) fn batch_logical(&self) -> u64 {
        self.batch_logical
    }

    pub(crate) fn batch_actual(&self) -> usize {
        self.batch_actual
    }

    /// Logical weight of one materialized record.
    pub(crate) fn record_scale(&self) -> f64 {
        self.batch_logical as f64 / self.batch_actual.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_batch_arithmetic() {
        let s = StreamSource::at_rate(10_000_000.0).for_duration(SimTime::from_secs(5));
        assert_eq!(s.num_batches(), 50);
        assert_eq!(s.arrival(0), SimTime::from_millis(100));
        assert_eq!(s.arrival(9), SimTime::from_secs(1));
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let s = StreamSource::at_rate(1_000_000.0);
        assert_eq!(s.num_batches(), 1);
        let s = StreamSource::at_rate(1_000_000.0)
            .for_duration(SimTime::from_secs(4))
            .with_batch(500_000, 32);
        assert_eq!(s.num_batches(), 8);
        assert_eq!(s.batch_actual(), 32);
        assert_eq!(s.record_scale(), 500_000.0 / 32.0);
    }
}
