//! Bench-side wall-clock spans around calls into each layer.
//!
//! The benchmark records these from its own code only: a span opens
//! before a call into a layer (setting up a cluster, running a reference
//! job, a timed call, one submit/drain phase) and closes after it. Self
//! time is the span's duration minus the time its direct children cover.
//! Recording is off unless the run traces, so the timed runs pay one
//! branch per span.

use gflink_bench::{jobj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span, times in seconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer the call went into (`"flink"`, `"core.stream"`, ...).
    pub layer: &'static str,
    /// What the call was.
    pub name: String,
    /// Start, seconds since the recorder's origin.
    pub start: f64,
    /// Duration in seconds.
    pub dur: f64,
    /// Duration minus the direct children's durations.
    pub self_time: f64,
    /// Nesting depth: 0 for a top-level span.
    pub depth: usize,
}

struct Open {
    layer: &'static str,
    name: String,
    start: Instant,
    children: f64,
}

/// The span recorder.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    open: Vec<Open>,
    closed: Vec<Span>,
}

impl Spans {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` on `layer`.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        self.open.push(Open {
            layer,
            name: name.into(),
            start: Instant::now(),
            children: 0.0,
        });
        let out = f(self);
        let o = self
            .open
            .pop()
            .expect("span stack balanced by construction");
        let dur = o.start.elapsed().as_secs_f64();
        if let Some(parent) = self.open.last_mut() {
            parent.children += dur;
        }
        self.closed.push(Span {
            layer: o.layer,
            name: o.name,
            start: o.start.duration_since(self.origin).as_secs_f64(),
            dur,
            self_time: (dur - o.children).max(0.0),
            depth: self.open.len(),
        });
        out
    }

    /// Self time summed per layer, in seconds.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut by = BTreeMap::new();
        for s in &self.closed {
            *by.entry(s.layer).or_insert(0.0) += s.self_time;
        }
        by
    }

    /// The closed spans, in closing order.
    #[cfg(test)]
    pub fn closed(&self) -> &[Span] {
        &self.closed
    }

    /// Chrome trace-event JSON (open in Perfetto or `chrome://tracing`):
    /// one complete event per span on a single wall-clock track.
    pub fn chrome_json(&self) -> Json {
        let events = self
            .closed
            .iter()
            .map(|s| {
                jobj! {
                    "name": s.name.as_str(),
                    "cat": s.layer,
                    "ph": "X",
                    "ts": s.start * 1e6,
                    "dur": s.dur * 1e6,
                    "pid": 1u64,
                    "tid": 1u64,
                    "args": jobj! { "self_us": s.self_time * 1e6, "depth": s.depth },
                }
            })
            .collect();
        jobj! {
            "traceEvents": Json::Arr(events),
            "displayTimeUnit": "ms",
            "otherData": jobj! { "clock": "wall" },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut s = Spans::new(true);
        s.span("outer", "a", |s| {
            s.span("inner", "b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let closed = s.closed();
        assert_eq!(closed.len(), 2);
        let (inner, outer) = (&closed[0], &closed[1]);
        assert_eq!((inner.depth, outer.depth), (1, 0));
        assert!(outer.dur >= inner.dur);
        assert!((outer.self_time - (outer.dur - inner.dur)).abs() < 1e-9);
        let by = s.self_time_by_layer();
        assert!(by["inner"] >= 0.005);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.span("x", "y", |_| 7), 7);
        assert!(s.closed().is_empty());
    }
}
