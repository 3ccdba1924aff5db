//! The keyed window state machine as it stood before panes were grouped
//! by span: one `BTreeMap` of every open `(start, end, key)` pane, a full
//! scan per fire and per session insert, and a `Vec` per assignment. Kept
//! as it was — only visibility changed, the assigner became a free
//! function, the `StreamState` assembly moved in from `Replay::state`, and
//! a fired window's panes are appended to its columns — as the
//! differential oracle the columnar [`KeyedWindows`] must match output for
//! output, byte for byte.
//!
//! [`KeyedWindows`]: super::KeyedWindows

use super::{FiredWindow, WindowAssigner, WindowSpan};
use crate::checkpoint::{OpenPane, StreamState};
use crate::stream::time::WatermarkStamp;
use gflink_sim::SimTime;
use std::collections::BTreeMap;

/// Static spans containing event time `ts` (tumbling/sliding only;
/// session spans are dynamic and grow by merging).
fn assign(assigner: &WindowAssigner, ts: SimTime) -> Vec<WindowSpan> {
    match *assigner {
        WindowAssigner::Tumbling { size } => {
            let size_n = size.as_nanos().max(1);
            let start = ts.as_nanos() / size_n * size_n;
            vec![WindowSpan {
                start: SimTime::from_nanos(start),
                end: SimTime::from_nanos(start + size_n),
            }]
        }
        WindowAssigner::Sliding { size, slide } => {
            let size_n = size.as_nanos().max(1);
            let slide_n = slide.as_nanos().max(1);
            let ts_n = ts.as_nanos();
            let mut starts = Vec::new();
            let mut s = ts_n / slide_n * slide_n;
            loop {
                if s + size_n > ts_n {
                    starts.push(s);
                } else {
                    break;
                }
                if s < slide_n {
                    break;
                }
                s -= slide_n;
            }
            starts.reverse(); // ascending start order
            starts
                .into_iter()
                .map(|start| WindowSpan {
                    start: SimTime::from_nanos(start),
                    end: SimTime::from_nanos(start + size_n),
                })
                .collect()
        }
        WindowAssigner::Session { .. } => Vec::new(),
    }
}

/// One open `(span, key)` pane: buffered values in insertion order plus
/// the accumulated logical weight (paper-scale record count).
struct Pane {
    span: WindowSpan,
    key: u64,
    values: Vec<f64>,
    logical: f64,
}

/// The keyed event-time state machine: open panes, the watermark, the
/// late-record counter, and the fire sequence. Driven batch-by-batch by
/// the engines; identical inputs produce identical fire sequences on
/// every engine.
struct KeyedWindows {
    assigner: WindowAssigner,
    lateness: SimTime,
    bound: SimTime,
    max_ts: Option<SimTime>,
    watermark: Option<SimTime>,
    /// Keyed `(start ns, end ns, key)` for deterministic iteration.
    open: BTreeMap<(u64, u64, u64), Pane>,
    late_records: u64,
    fire_seq: u32,
    stamps: Vec<WatermarkStamp>,
}

impl KeyedWindows {
    fn new(assigner: WindowAssigner, lateness: SimTime, bound: SimTime) -> KeyedWindows {
        KeyedWindows {
            assigner,
            lateness,
            bound,
            max_ts: None,
            watermark: None,
            open: BTreeMap::new(),
            late_records: 0,
            fire_seq: 0,
            stamps: Vec::new(),
        }
    }

    /// Whether a span has already been released by the watermark (its end
    /// plus allowed lateness is at or behind it).
    fn closed(&self, end: SimTime) -> bool {
        match self.watermark {
            Some(wm) => end + self.lateness <= wm,
            None => false,
        }
    }

    /// Route one record into its pane(s); counts it late when every
    /// assigned window already fired.
    fn insert(&mut self, ts: SimTime, key: u64, value: f64, logical: f64) {
        self.max_ts = Some(self.max_ts.map_or(ts, |m| m.max(ts)));
        match self.assigner {
            WindowAssigner::Session { gap } => self.insert_session(ts, key, value, logical, gap),
            _ => {
                let spans = assign(&self.assigner, ts);
                let mut landed = false;
                for span in spans {
                    if self.closed(span.end) {
                        continue;
                    }
                    landed = true;
                    let k = (span.start.as_nanos(), span.end.as_nanos(), key);
                    let pane = self.open.entry(k).or_insert_with(|| Pane {
                        span,
                        key,
                        values: Vec::new(),
                        logical: 0.0,
                    });
                    pane.values.push(value);
                    pane.logical += logical;
                }
                if !landed {
                    self.late_records += 1;
                }
            }
        }
    }

    /// Session insertion: merge every same-key pane whose gap-extended
    /// interval touches the record's, earliest-first, then absorb the
    /// record. A record whose own session would fire instantly is late.
    fn insert_session(&mut self, ts: SimTime, key: u64, value: f64, logical: f64, gap: SimTime) {
        if self.closed(ts + gap) {
            self.late_records += 1;
            return;
        }
        let touching: Vec<(u64, u64, u64)> = self
            .open
            .iter()
            .filter(|((_, _, k), pane)| {
                *k == key && ts <= pane.span.end && pane.span.start <= ts + gap
            })
            .map(|(k, _)| *k)
            .collect();
        let mut span = WindowSpan {
            start: ts,
            end: ts + gap,
        };
        let mut values = Vec::new();
        let mut weight = 0.0;
        for k in touching {
            let pane = self.open.remove(&k).expect("touching pane exists");
            span.start = span.start.min(pane.span.start);
            span.end = span.end.max(pane.span.end);
            values.extend(pane.values);
            weight += pane.logical;
        }
        values.push(value);
        weight += logical;
        self.open.insert(
            (span.start.as_nanos(), span.end.as_nanos(), key),
            Pane {
                span,
                key,
                values,
                logical: weight,
            },
        );
    }

    /// Advance the watermark after a batch arriving at `arrival` was
    /// absorbed, record the timeline stamp, and fire released windows.
    fn advance(&mut self, arrival: SimTime) -> Vec<FiredWindow> {
        let head = match self.max_ts {
            Some(m) => m,
            None => return Vec::new(),
        };
        let wm = head.saturating_sub(self.bound);
        let wm = self.watermark.map_or(wm, |old| old.max(wm));
        self.watermark = Some(wm);
        self.stamps.push(WatermarkStamp {
            at: arrival,
            watermark: wm,
        });
        self.fire(arrival, false)
    }

    /// End of stream: fire everything still open at `at` and stamp the
    /// terminal watermark (the bound collapses — no more data can come).
    fn flush(&mut self, at: SimTime) -> Vec<FiredWindow> {
        if let Some(head) = self.max_ts {
            self.watermark = Some(self.watermark.map_or(head, |old| old.max(head)));
            self.stamps.push(WatermarkStamp {
                at,
                watermark: head.max(self.watermark.unwrap_or(head)),
            });
        }
        self.fire(at, true)
    }

    /// Release eligible panes grouped per span, in `(end, start, key)`
    /// order — the deterministic fire sequence.
    fn fire(&mut self, at: SimTime, all: bool) -> Vec<FiredWindow> {
        let mut eligible: Vec<(u64, u64, u64)> = self
            .open
            .iter()
            .filter(|(_, pane)| all || self.closed(pane.span.end))
            .map(|(k, _)| *k)
            .collect();
        eligible.sort_by_key(|&(start, end, key)| (end, start, key));
        let mut fired: Vec<FiredWindow> = Vec::new();
        for k in eligible {
            let pane = self.open.remove(&k).expect("eligible pane exists");
            if fired.last().is_none_or(|fw| fw.span != pane.span) {
                let seq = self.fire_seq;
                self.fire_seq += 1;
                fired.push(FiredWindow {
                    seq,
                    span: pane.span,
                    fire_at: at,
                    ..FiredWindow::default()
                });
            }
            let fw = fired.last_mut().expect("a window per span");
            fw.push_pane(pane.key, pane.logical, &pane.values);
        }
        fired
    }

    /// The keyed state after `batches` batches, panes in `(start, end,
    /// key)` order.
    fn state(&self, batches: u64) -> StreamState {
        StreamState {
            batches,
            watermark: self.watermark,
            max_event_ts: self.max_ts.unwrap_or(SimTime::ZERO),
            late_records: self.late_records,
            fired: self.fire_seq as u64,
            open: self
                .open
                .values()
                .map(|p| OpenPane {
                    start: p.span.start,
                    end: p.span.end,
                    key: p.key,
                    logical: p.logical,
                    values: p.values.clone(),
                })
                .collect(),
        }
    }
}

mod differential {
    use super::super::{KeyedWindows as SpanGrouped, Session, Sliding, Tumbling};
    use super::*;
    use proptest::prelude::*;

    /// Event-time unit of the generated streams.
    const U: u64 = 1_000;

    fn t(units: u64) -> SimTime {
        SimTime::from_nanos(units * U)
    }

    /// SplitMix64: the stream generator's randomness, one seed per case.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn assigner() -> impl Strategy<Value = WindowAssigner> {
        prop_oneof![
            (1u64..=40).prop_map(|size| Tumbling::of(t(size))),
            (1u64..=40, 1u64..=40).prop_map(|(size, slide)| Sliding::of(t(size), t(slide))),
            (1u64..=30).prop_map(|gap| Session::with_gap(t(gap))),
        ]
    }

    /// A zero or a non-zero duration of up to `max` units.
    fn zero_or(max: u64) -> impl Strategy<Value = SimTime> {
        prop_oneof![Just(SimTime::ZERO), (1..=max).prop_map(t)]
    }

    /// A generated stream and the window configuration it runs under.
    #[derive(Clone, Debug)]
    struct Case {
        assigner: WindowAssigner,
        lateness: SimTime,
        bound: SimTime,
        keys: u64,
        /// Spread the keys over the full `u64` range (every key byte
        /// varies) instead of drawing them below `keys`.
        spread: bool,
        batch: usize,
        records: usize,
        /// Largest backwards jitter of a record's timestamp, in units; up
        /// to three times the largest bound, so late records occur.
        disorder: u64,
        seed: u64,
    }

    fn case() -> impl Strategy<Value = Case> {
        let windows = (assigner(), zero_or(30), zero_or(20));
        let stream = (
            prop_oneof![1u64..=4, 5u64..=100, 101u64..=5_000],
            any::<bool>(),
            prop_oneof![1usize..=8, 9usize..=256],
            1usize..=2_000,
            0u64..=60,
            any::<u64>(),
        );
        (windows, stream).prop_map(
            |((assigner, lateness, bound), (keys, spread, batch, records, disorder, seed))| Case {
                assigner,
                lateness,
                bound,
                keys,
                spread,
                batch,
                records,
                disorder,
                seed,
            },
        )
    }

    /// A fired window with every float as its bit pattern.
    type FiredBits = (u32, WindowSpan, SimTime, Vec<(u64, u64, Vec<u64>)>);

    fn bits(fired: &[FiredWindow]) -> Vec<FiredBits> {
        fired
            .iter()
            .map(|fw| {
                let panes = fw
                    .panes()
                    .map(|(key, logical, values)| {
                        let values = values.iter().map(|v| v.to_bits()).collect();
                        (key, logical.to_bits(), values)
                    })
                    .collect();
                (fw.seq, fw.span, fw.fire_at, panes)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn assign_matches_the_allocating_assigner(w in assigner(), ts in 0u64..200 * U) {
            let ts = SimTime::from_nanos(ts);
            prop_assert_eq!(w.assign(ts).collect::<Vec<_>>(), assign(&w, ts));
        }

        #[test]
        fn span_grouped_windows_match_the_oracle(c in case()) {
            let mut new = SpanGrouped::new(c.assigner, c.lateness, c.bound);
            let mut old = KeyedWindows::new(c.assigner, c.lateness, c.bound);
            let mut rng = c.seed;
            let mut head = 0u64;
            let (mut batches, mut arrival) = (0u64, SimTime::ZERO);
            for i in 0..c.records {
                head += next(&mut rng) % 3;
                let ts = SimTime::from_nanos((head * U).saturating_sub(next(&mut rng) % (c.disorder * U + 1)));
                let mut key = next(&mut rng) % c.keys;
                if c.spread {
                    key = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                }
                let value = (next(&mut rng) >> 11) as f64 / (1u64 << 53) as f64 * 100.0 - 50.0;
                let logical = 1.0 + (next(&mut rng) % 7) as f64 * 0.37;
                new.insert(ts, key, value, logical);
                old.insert(ts, key, value, logical);
                if (i + 1).is_multiple_of(c.batch) || i + 1 == c.records {
                    batches += 1;
                    arrival = t(batches * c.batch as u64);
                    prop_assert_eq!(bits(&new.advance(arrival)), bits(&old.advance(arrival)));
                    if next(&mut rng).is_multiple_of(8) {
                        prop_assert_eq!(new.state(batches).encode(), old.state(batches).encode());
                    }
                }
            }
            prop_assert_eq!(new.state(batches).encode(), old.state(batches).encode());
            prop_assert_eq!(bits(&new.flush(arrival)), bits(&old.flush(arrival)));
            prop_assert_eq!(new.state(batches).encode(), old.state(batches).encode());
            prop_assert_eq!(&new.stamps, &old.stamps);
            prop_assert_eq!(new.late_records, old.late_records);
            prop_assert_eq!(new.fire_seq, old.fire_seq);
        }
    }
}
