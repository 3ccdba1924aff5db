//! CUDA events.
//!
//! The paper's CUDAWrapper virtualizes CUDA objects such as `cudaEvent`
//! in Java (§3.4). [`CudaEvent`] is the analogue: a marker recorded at a
//! point in a stream's simulated timeline, supporting `elapsed_time`
//! between two events and host-side `synchronize` semantics — the
//! primitives profiling harnesses build on.

use gflink_sim::SimTime;
use std::fmt;

/// A recorded (or pending) event on a stream's timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CudaEvent {
    recorded: Option<SimTime>,
}

impl Default for CudaEvent {
    fn default() -> Self {
        Self::create()
    }
}

impl CudaEvent {
    /// `cudaEventCreate`: a fresh, unrecorded event.
    pub fn create() -> Self {
        CudaEvent { recorded: None }
    }

    /// `cudaEventRecord`: capture the stream's position (the completion
    /// instant of the last command enqueued before the record call).
    pub fn record(&mut self, stream_position: SimTime) {
        self.recorded = Some(stream_position);
    }

    /// `cudaEventQuery`: has the event completed by simulated instant `now`?
    pub fn query(&self, now: SimTime) -> bool {
        matches!(self.recorded, Some(t) if t <= now)
    }

    /// `cudaEventSynchronize`: the instant the host resumes after waiting on
    /// the event, given it blocked at `now`.
    pub fn synchronize(&self, now: SimTime) -> SimTime {
        match self.recorded {
            Some(t) => t.max(now),
            None => now,
        }
    }

    /// `cudaEventElapsedTime`: time between two recorded events.
    ///
    /// Returns `None` if either event is unrecorded or the ordering is
    /// inverted (CUDA reports an error in both cases).
    pub fn elapsed_time(start: &CudaEvent, end: &CudaEvent) -> Option<SimTime> {
        match (start.recorded, end.recorded) {
            (Some(s), Some(e)) if e >= s => Some(e - s),
            _ => None,
        }
    }
}

impl fmt::Display for CudaEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.recorded {
            Some(t) => write!(f, "CudaEvent@{t}"),
            None => write!(f, "CudaEvent(unrecorded)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::VirtualGpu;
    use crate::spec::GpuModel;
    use gflink_memory::HBuffer;

    #[test]
    fn elapsed_time_between_records() {
        let mut a = CudaEvent::create();
        let mut b = CudaEvent::create();
        a.record(SimTime::from_micros(100));
        b.record(SimTime::from_micros(350));
        assert_eq!(
            CudaEvent::elapsed_time(&a, &b),
            Some(SimTime::from_micros(250))
        );
        // Inverted order is an error, like CUDA's.
        assert_eq!(CudaEvent::elapsed_time(&b, &a), None);
    }

    #[test]
    fn unrecorded_events_error() {
        let a = CudaEvent::create();
        let b = CudaEvent::create();
        assert_eq!(CudaEvent::elapsed_time(&a, &b), None);
    }

    #[test]
    fn query_and_synchronize_semantics() {
        let mut e = CudaEvent::create();
        assert!(!e.query(SimTime::from_secs(1)));
        e.record(SimTime::from_millis(500));
        assert!(!e.query(SimTime::from_millis(499)));
        assert!(e.query(SimTime::from_millis(500)));
        // Host blocked at 100ms resumes at the event's instant.
        assert_eq!(
            e.synchronize(SimTime::from_millis(100)),
            SimTime::from_millis(500)
        );
        // Host arriving late does not travel back in time.
        assert_eq!(
            e.synchronize(SimTime::from_millis(900)),
            SimTime::from_millis(900)
        );
    }

    #[test]
    fn events_time_a_real_transfer() {
        // The Table 2 measurement pattern: record, copy, record, elapsed.
        let mut gpu = VirtualGpu::new(0, GpuModel::TeslaC2050);
        let dev = gpu.dmem.alloc(1 << 20, 64).unwrap();
        let host = HBuffer::zeroed(64);
        let mut start = CudaEvent::create();
        start.record(SimTime::ZERO);
        let r = gpu
            .copy_h2d(SimTime::ZERO, [(1 << 20, &host, dev)], false)
            .unwrap();
        let mut end = CudaEvent::create();
        end.record(r.end);
        let dt = CudaEvent::elapsed_time(&start, &end).unwrap();
        assert_eq!(dt, r.end);
        // ~1 MiB at 3 GB/s + ~2us call overhead.
        assert!((dt.as_micros_f64() - 351.5).abs() < 5.0, "{dt}");
    }
}
