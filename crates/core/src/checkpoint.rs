//! Checkpoint/restore of job progress (the second recovery mode).
//!
//! PR 1's recovery machinery replays lost work from the live host copy —
//! adequate for single device loss, but a job that loses its whole worker
//! restarts from zero. This module adds externalized state in the spirit
//! of the paper's in-memory architecture: each live job's progress
//! frontier, completed block outputs, and per-GPU cache manifests are
//! periodically encoded into a [`JobSnapshot`] and written durably to the
//! simulated HDFS via [`gflink_hdfs::Hdfs::snapshot_at`] (CRC-checked
//! manifests, charged I/O). On resubmission after a crash, the driver
//! restores the newest snapshot and replays only the delta since it:
//! covered blocks are satisfied from the snapshot (counted as
//! `works_restored` in the fault ledger), uncovered blocks execute as
//! usual, and the double-entry invariant
//! `works_restored + completions == works submitted` proves nothing is
//! lost or duplicated across the restore boundary.
//!
//! Snapshots are keyed `<prefix>/<job>/op<seq>`, where `seq` is a per-job
//! operator-invocation counter — iterative jobs reuse operator *names*
//! every superstep, so the sequence number, not the name, is the identity.

use crate::config::CheckpointConfig;
use crate::gwork::CacheKey;
use gflink_hdfs::{Hdfs, HdfsError};
use gflink_memory::HBuffer;
use gflink_sim::SimTime;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Magic prefix of an encoded snapshot ("GFlink ChecKpoint").
const MAGIC: &[u8; 4] = b"GFCK";
/// Encoding version; bumped on any layout change.
const VERSION: u32 = 1;

/// One completed block captured in a snapshot: the work's stable tag,
/// the emitted-record count (for selective operators), when it finished,
/// and its output bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotBlock {
    /// The work's `(partition, block)` tag — stable across attempts.
    pub tag: (u32, u32),
    /// `Some(n)` when the operator emitted a subset of its rows.
    pub emitted: Option<usize>,
    /// Simulated instant the block completed in the original run.
    pub completed_at: SimTime,
    /// The block's output bytes, verbatim — shared with the operator's
    /// resident block, so cutting a snapshot copies no payload.
    pub payload: Arc<HBuffer>,
}

/// One resident cache entry captured in a snapshot: which device held
/// which block, and at what logical size — the CrystalGPU-style reuse
/// manifest that lets a restore (or an audit) see what device state the
/// checkpoint epoch had built up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheManifestEntry {
    /// Worker index within the fabric.
    pub worker: u32,
    /// Device index within the worker.
    pub gpu: u32,
    /// The cached block's identity.
    pub key: CacheKey,
    /// Logical bytes resident.
    pub bytes: u64,
}

/// A job's durable progress record for one operator invocation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobSnapshot {
    /// Fabric-wide job id the snapshot belongs to.
    pub job: u64,
    /// Operator-invocation sequence number within the job.
    pub seq: u64,
    /// The job's progress frontier when the snapshot was cut.
    pub frontier: SimTime,
    /// Opaque keyed/operator state (the driver owns its meaning).
    pub state: Vec<u8>,
    /// Completed blocks, in completion order.
    pub blocks: Vec<SnapshotBlock>,
    /// Per-GPU resident-cache manifests at snapshot time.
    pub cache: Vec<CacheManifestEntry>,
}

impl JobSnapshot {
    /// Tags of every block the snapshot covers, sorted.
    pub fn covered_tags(&self) -> Vec<(u32, u32)> {
        let mut tags: Vec<(u32, u32)> = self.blocks.iter().map(|b| b.tag).collect();
        tags.sort_unstable();
        tags
    }

    /// Deterministic byte encoding (little-endian, length-prefixed).
    pub fn encode(&self) -> Vec<u8> {
        encode_snapshot(
            self.job,
            self.seq,
            self.frontier,
            &self.state,
            &self.blocks,
            &self.cache,
        )
    }

    /// Decode an encoded snapshot; `None` on any structural mismatch
    /// (truncation, bad magic, unknown version). Content integrity is the
    /// HDFS manifest CRC's job; this guards the layout.
    pub fn decode(data: &[u8]) -> Option<JobSnapshot> {
        let mut r = Reader { data, pos: 0 };
        if r.take(4)? != MAGIC.as_slice() || r.u32()? != VERSION {
            return None;
        }
        let job = r.u64()?;
        let seq = r.u64()?;
        let frontier = SimTime::from_nanos(r.u64()?);
        let state_len = r.u64()? as usize;
        let state = r.take(state_len)?.to_vec();
        let n_blocks = r.u64()? as usize;
        let mut blocks = Vec::with_capacity(n_blocks.min(1 << 20));
        for _ in 0..n_blocks {
            let tag = (r.u32()?, r.u32()?);
            let has_emitted = r.take(1)?[0] == 1;
            let emitted_raw = r.u64()?;
            let emitted = has_emitted.then_some(emitted_raw as usize);
            let completed_at = SimTime::from_nanos(r.u64()?);
            let payload_len = r.u64()? as usize;
            let payload = Arc::new(HBuffer::from_bytes(r.take(payload_len)?));
            blocks.push(SnapshotBlock {
                tag,
                emitted,
                completed_at,
                payload,
            });
        }
        let n_cache = r.u64()? as usize;
        let mut cache = Vec::with_capacity(n_cache.min(1 << 20));
        for _ in 0..n_cache {
            cache.push(CacheManifestEntry {
                worker: r.u32()?,
                gpu: r.u32()?,
                key: CacheKey {
                    dataset: r.u64()?,
                    partition: r.u32()?,
                    block: r.u32()?,
                },
                bytes: r.u64()?,
            });
        }
        if r.pos != data.len() {
            return None; // trailing garbage
        }
        Some(JobSnapshot {
            job,
            seq,
            frontier,
            state,
            blocks,
            cache,
        })
    }
}

/// The [`JobSnapshot::encode`] layout over borrowed parts, so a run that
/// cuts many snapshots over one completed-block list never copies the
/// blocks into an owned `JobSnapshot` per snapshot.
pub(crate) fn encode_snapshot(
    job: u64,
    seq: u64,
    frontier: SimTime,
    state: &[u8],
    blocks: &[SnapshotBlock],
    cache: &[CacheManifestEntry],
) -> Vec<u8> {
    // Header, state, block count, cache count; per block: tag, emitted
    // flag and count, completion, payload length; per cache entry 32 B.
    let len = 4
        + 4
        + 8 * 4
        + state.len()
        + 8
        + 8
        + cache.len() * 32
        + blocks
            .iter()
            .map(|b| 4 + 4 + 1 + 8 + 8 + 8 + b.payload.len())
            .sum::<usize>();
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, job);
    put_u64(&mut out, seq);
    put_u64(&mut out, frontier.as_nanos());
    put_u64(&mut out, state.len() as u64);
    out.extend_from_slice(state);
    put_u64(&mut out, blocks.len() as u64);
    for b in blocks {
        put_u32(&mut out, b.tag.0);
        put_u32(&mut out, b.tag.1);
        match b.emitted {
            Some(n) => {
                out.push(1);
                put_u64(&mut out, n as u64);
            }
            None => {
                out.push(0);
                put_u64(&mut out, 0);
            }
        }
        put_u64(&mut out, b.completed_at.as_nanos());
        put_u64(&mut out, b.payload.len() as u64);
        out.extend_from_slice(b.payload.as_slice());
    }
    put_u64(&mut out, cache.len() as u64);
    for e in cache {
        put_u32(&mut out, e.worker);
        put_u32(&mut out, e.gpu);
        put_u64(&mut out, e.key.dataset);
        put_u32(&mut out, e.key.partition);
        put_u32(&mut out, e.key.block);
        put_u64(&mut out, e.bytes);
    }
    debug_assert_eq!(out.len(), len, "GFCK length precomputed exactly");
    out
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.data.len() {
            return None;
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }
}

/// Receipt for one durable snapshot write. `#[must_use]`: a dropped token
/// means the write's cost and coverage never reached the job's rollup.
#[derive(Clone, Debug)]
#[must_use = "fold this token into the job's checkpoint counters"]
pub struct CheckpointToken {
    /// HDFS file the snapshot was written to.
    pub file: String,
    /// Write epoch of the file (1 for the first snapshot).
    pub epoch: u64,
    /// Simulated instant the write completed.
    pub taken_at: SimTime,
    /// Encoded payload size in bytes.
    pub bytes: u64,
    /// How many completed blocks the snapshot covers.
    pub covered: usize,
}

/// A snapshot read back from HDFS. `#[must_use]`: dropping it discards
/// the restored progress and silently degrades to replay-from-zero.
#[derive(Clone, Debug)]
#[must_use = "apply the restored snapshot or the job replays from zero"]
pub struct RestoredSnapshot {
    /// The decoded snapshot.
    pub snapshot: JobSnapshot,
    /// Simulated instant the restore read (and CRC check) completed.
    pub ready_at: SimTime,
    /// The snapshot file's write epoch.
    pub epoch: u64,
}

/// Fabric-side coordinator for periodic job snapshots.
///
/// Owns the per-job cadence state (when each job last snapshotted, which
/// operator invocation is next) and the encode/write + read/decode paths
/// against HDFS. It deliberately holds no job *data* — snapshots are cut
/// from the driver's completions at drain time, so the manager stays a
/// thin clock-and-codec layer.
#[derive(Debug)]
pub struct CheckpointManager {
    cfg: CheckpointConfig,
    next_seq: BTreeMap<u64, u64>,
    last_tick: BTreeMap<u64, SimTime>,
}

impl CheckpointManager {
    /// A manager for the given policy.
    pub fn new(cfg: CheckpointConfig) -> Self {
        CheckpointManager {
            cfg,
            next_seq: BTreeMap::new(),
            last_tick: BTreeMap::new(),
        }
    }

    /// Whether checkpointing is on at all.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The policy in force.
    pub fn config(&self) -> &CheckpointConfig {
        &self.cfg
    }

    /// The next operator-invocation sequence number for `job`.
    pub fn next_seq(&mut self, job: u64) -> u64 {
        let seq = self.next_seq.entry(job).or_insert(0);
        let s = *seq;
        *seq += 1;
        s
    }

    /// The snapshot file name for `job_name`'s invocation `seq`.
    pub fn file_name(&self, job_name: &str, seq: u64) -> String {
        format!("{}/{}/op{}", self.cfg.prefix, job_name, seq)
    }

    /// Seed the snapshot cadence for `job` at its submission instant.
    /// Idempotent: a job already seeded keeps its cadence.
    pub fn seed(&mut self, job: u64, at: SimTime) {
        self.last_tick.entry(job).or_insert(at);
    }

    /// Periodic snapshot instants due in `(last, horizon]` for `job`,
    /// advancing the cadence cursor past them. Ticks are job-global, not
    /// per-operator: the cadence runs on the simulated clock across
    /// operator boundaries.
    pub fn due_ticks(&mut self, job: u64, horizon: SimTime) -> Vec<SimTime> {
        let last = self.last_tick.entry(job).or_insert(SimTime::ZERO);
        let mut ticks = Vec::new();
        while *last + self.cfg.interval <= horizon {
            *last += self.cfg.interval;
            ticks.push(*last);
        }
        ticks
    }

    /// The snapshot-cadence cursor for `job`: the last instant a periodic
    /// tick fired (or the seed instant if none has). `None` for jobs the
    /// manager has never seen. Health snapshots use this to report
    /// checkpoint lag.
    pub fn last_tick(&self, job: u64) -> Option<SimTime> {
        self.last_tick.get(&job).copied()
    }

    /// Forget a finished job's cadence state.
    pub fn retire_job(&mut self, job: u64) {
        self.next_seq.remove(&job);
        self.last_tick.remove(&job);
    }

    /// Encode `snap` and write it durably at `at` from datanode `node`,
    /// overwriting any earlier epoch of the same file.
    pub fn write(
        &self,
        hdfs: &mut Hdfs,
        node: usize,
        job_name: &str,
        snap: &JobSnapshot,
        at: SimTime,
    ) -> Result<CheckpointToken, HdfsError> {
        let file = self.file_name(job_name, snap.seq);
        put(hdfs, node, &file, snap.encode(), snap.blocks.len(), at)
    }

    /// The snapshot instants of one operator invocation of `job` that ran
    /// from `start` to `end`: the cadence is seeded at the earlier of the
    /// two, every periodic tick due by the horizon follows, and a
    /// failure-free invocation adds one final full snapshot at `end`.
    /// When the invocation lost works permanently, the horizon is the
    /// crash instant (the checkpointer dies with the node), so what
    /// survives for the next attempt is exactly the work completed by the
    /// last pre-crash tick. The final tick may repeat the last periodic
    /// one; each is written.
    pub fn snapshot_ticks(
        &mut self,
        job: u64,
        start: SimTime,
        end: SimTime,
        crashed_at: Option<SimTime>,
    ) -> Vec<SimTime> {
        self.seed(job, start.min(end));
        let mut ticks = self.due_ticks(job, crashed_at.unwrap_or(end));
        if crashed_at.is_none() {
            ticks.push(end);
        }
        ticks
    }

    /// Write invocation `seq` of job `job` (named `job_name`) once per
    /// tick, from datanode 0 where the driver runs. The snapshot at `tick`
    /// covers the prefix of `done` — sorted by completion — that completed
    /// by `tick`, carries the cache manifest `cache`, and holds the keyed
    /// state `state(tick)` returns; `state` is called once per tick, in
    /// tick order. A failed write is skipped: the next tick supersedes it.
    /// Returns the snapshots written and their encoded bytes.
    #[allow(clippy::too_many_arguments)] // one snapshot's parts plus its ticks
    pub fn write_ticks(
        &self,
        hdfs: &mut Hdfs,
        job_name: &str,
        (job, seq): (u64, u64),
        ticks: &[SimTime],
        done: &[SnapshotBlock],
        cache: &[CacheManifestEntry],
        mut state: impl FnMut(SimTime) -> Vec<u8>,
    ) -> (u64, u64) {
        let file = self.file_name(job_name, seq);
        let (mut written, mut bytes) = (0, 0);
        for &tick in ticks {
            let upto = done.partition_point(|b| b.completed_at <= tick);
            let blocks = &done[..upto];
            let payload = encode_snapshot(job, seq, tick, &state(tick), blocks, cache);
            if let Ok(tok) = put(hdfs, 0, &file, payload, upto, tick) {
                written += 1;
                bytes += tok.bytes;
            }
        }
        (written, bytes)
    }

    /// Read back the newest snapshot of `job_name`'s invocation `seq`, if
    /// one exists. `Ok(None)` when no snapshot was ever written (a fresh
    /// run); CRC failures and decode mismatches surface as errors — a
    /// corrupt checkpoint must never be silently replayed.
    pub fn read(
        &self,
        hdfs: &mut Hdfs,
        node: usize,
        job_name: &str,
        seq: u64,
        at: SimTime,
    ) -> Result<Option<RestoredSnapshot>, HdfsError> {
        let file = self.file_name(job_name, seq);
        if !hdfs.exists(&file) {
            return Ok(None);
        }
        let (data, grant) = hdfs.restore(node, &file, at)?;
        let snapshot =
            JobSnapshot::decode(&data).ok_or(HdfsError::Corrupt { file: file.clone() })?;
        let epoch = hdfs.manifest(&file).map_or(1, |m| m.epoch);
        Ok(Some(RestoredSnapshot {
            snapshot,
            ready_at: grant.end,
            epoch,
        }))
    }
}

/// Write one encoded snapshot covering `covered` blocks durably to `file`.
fn put(
    hdfs: &mut Hdfs,
    node: usize,
    file: &str,
    payload: Vec<u8>,
    covered: usize,
    at: SimTime,
) -> Result<CheckpointToken, HdfsError> {
    let bytes = payload.len() as u64;
    let grant = hdfs.snapshot_at(node, file, payload, at)?;
    let epoch = hdfs.manifest(file).map_or(1, |m| m.epoch);
    Ok(CheckpointToken {
        file: file.to_string(),
        epoch,
        taken_at: grant.end,
        bytes,
        covered,
    })
}

/// Magic prefix of an encoded stream operator state ("GFlink Stream State").
const STREAM_MAGIC: &[u8; 4] = b"GFSS";
/// Stream-state encoding version; bumped on any layout change.
const STREAM_VERSION: u32 = 1;

/// One open keyed window pane captured in a stream-state snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct OpenPane {
    /// Inclusive event-time start of the pane's window.
    pub start: SimTime,
    /// Exclusive event-time end (for sessions: last event + gap).
    pub end: SimTime,
    /// The pane's key.
    pub key: u64,
    /// Accumulated logical weight (paper-scale record count).
    pub logical: f64,
    /// Buffered values, in insertion order.
    pub values: Vec<f64>,
}

/// The DataStream layer's keyed operator state at a snapshot tick — what
/// goes into [`JobSnapshot::state`] for windowed streaming jobs
/// (DESIGN.md §17). Ingestion is a pure function of the seed, so a restore
/// *replays* it and uses this record to **validate** that the replayed
/// state at the snapshot frontier matches what the crashed run had; a
/// mismatch refuses the snapshot rather than resuming from divergent state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamState {
    /// Micro-batches ingested (merged across sources, arrival order).
    pub batches: u64,
    /// The watermark, or `None` before the first batch.
    pub watermark: Option<SimTime>,
    /// Maximum event timestamp seen.
    pub max_event_ts: SimTime,
    /// Records routed to the late counter so far.
    pub late_records: u64,
    /// Windows fired so far (the fire-sequence frontier).
    pub fired: u64,
    /// Open panes, in `(start, end, key)` order.
    pub open: Vec<OpenPane>,
}

impl StreamState {
    /// Deterministic byte encoding (little-endian, length-prefixed).
    pub fn encode(&self) -> Vec<u8> {
        // Header and counters, then per pane its four fixed words, the
        // value count and the values.
        let len = 4
            + 4
            + 8
            + 1
            + 8 * 5
            + self
                .open
                .iter()
                .map(|p| 8 * (5 + p.values.len()))
                .sum::<usize>();
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(STREAM_MAGIC);
        put_u32(&mut out, STREAM_VERSION);
        put_u64(&mut out, self.batches);
        match self.watermark {
            Some(wm) => {
                out.push(1);
                put_u64(&mut out, wm.as_nanos());
            }
            None => {
                out.push(0);
                put_u64(&mut out, 0);
            }
        }
        put_u64(&mut out, self.max_event_ts.as_nanos());
        put_u64(&mut out, self.late_records);
        put_u64(&mut out, self.fired);
        put_u64(&mut out, self.open.len() as u64);
        for p in &self.open {
            put_u64(&mut out, p.start.as_nanos());
            put_u64(&mut out, p.end.as_nanos());
            put_u64(&mut out, p.key);
            put_u64(&mut out, p.logical.to_bits());
            put_u64(&mut out, p.values.len() as u64);
            for v in &p.values {
                put_u64(&mut out, v.to_bits());
            }
        }
        debug_assert_eq!(out.len(), len, "GFSS length precomputed exactly");
        out
    }

    /// Decode an encoded stream state; `None` on any structural mismatch.
    pub fn decode(data: &[u8]) -> Option<StreamState> {
        let mut r = Reader { data, pos: 0 };
        if r.take(4)? != STREAM_MAGIC.as_slice() || r.u32()? != STREAM_VERSION {
            return None;
        }
        let batches = r.u64()?;
        let has_wm = r.take(1)?[0] == 1;
        let wm_raw = r.u64()?;
        let watermark = has_wm.then_some(SimTime::from_nanos(wm_raw));
        let max_event_ts = SimTime::from_nanos(r.u64()?);
        let late_records = r.u64()?;
        let fired = r.u64()?;
        let n_open = r.u64()? as usize;
        let mut open = Vec::with_capacity(n_open.min(1 << 20));
        for _ in 0..n_open {
            let start = SimTime::from_nanos(r.u64()?);
            let end = SimTime::from_nanos(r.u64()?);
            let key = r.u64()?;
            let logical = f64::from_bits(r.u64()?);
            let n_values = r.u64()? as usize;
            let mut values = Vec::with_capacity(n_values.min(1 << 20));
            for _ in 0..n_values {
                values.push(f64::from_bits(r.u64()?));
            }
            open.push(OpenPane {
                start,
                end,
                key,
                logical,
                values,
            });
        }
        if r.pos != data.len() {
            return None; // trailing garbage
        }
        Some(StreamState {
            batches,
            watermark,
            max_event_ts,
            late_records,
            fired,
            open,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gflink_hdfs::HdfsConfig;

    fn sample() -> JobSnapshot {
        JobSnapshot {
            job: 42,
            seq: 3,
            frontier: SimTime::from_millis(7),
            state: vec![1, 2, 3],
            blocks: vec![
                SnapshotBlock {
                    tag: (0, 1),
                    emitted: Some(5),
                    completed_at: SimTime::from_micros(10),
                    payload: Arc::new(HBuffer::from_bytes(&[9; 16])),
                },
                SnapshotBlock {
                    tag: (1, 0),
                    emitted: None,
                    completed_at: SimTime::from_micros(20),
                    payload: Arc::new(HBuffer::zeroed(0)),
                },
            ],
            cache: vec![CacheManifestEntry {
                worker: 0,
                gpu: 1,
                key: CacheKey {
                    dataset: 8,
                    partition: 0,
                    block: 1,
                },
                bytes: 4096,
            }],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample();
        let bytes = snap.encode();
        assert_eq!(JobSnapshot::decode(&bytes), Some(snap.clone()));
        assert_eq!(snap.covered_tags(), vec![(0, 1), (1, 0)]);
        // Structural guards: truncation, bad magic, trailing garbage.
        assert_eq!(JobSnapshot::decode(&bytes[..bytes.len() - 1]), None);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(JobSnapshot::decode(&bad), None);
        let mut long = bytes;
        long.push(0);
        assert_eq!(JobSnapshot::decode(&long), None);
        assert_eq!(JobSnapshot::decode(&[]), None);
    }

    #[test]
    fn cadence_ticks_step_by_the_interval() {
        let mut cm = CheckpointManager::new(CheckpointConfig::every(SimTime::from_millis(10)));
        cm.seed(1, SimTime::from_millis(5));
        cm.seed(1, SimTime::from_millis(900)); // idempotent
        assert_eq!(
            cm.due_ticks(1, SimTime::from_millis(36)),
            vec![
                SimTime::from_millis(15),
                SimTime::from_millis(25),
                SimTime::from_millis(35)
            ]
        );
        // The cursor advanced: nothing more is due until 45 ms.
        assert!(cm.due_ticks(1, SimTime::from_millis(44)).is_empty());
        assert_eq!(
            cm.due_ticks(1, SimTime::from_millis(45)),
            vec![SimTime::from_millis(45)]
        );
        cm.retire_job(1);
    }

    #[test]
    fn seq_counts_operator_invocations_per_job() {
        let mut cm = CheckpointManager::new(CheckpointConfig::default());
        assert_eq!(cm.next_seq(1), 0);
        assert_eq!(cm.next_seq(1), 1);
        assert_eq!(cm.next_seq(2), 0);
        assert_eq!(cm.file_name("kmeans", 1), "ckpt/kmeans/op1");
    }

    #[test]
    fn stream_state_roundtrip() {
        let state = StreamState {
            batches: 12,
            watermark: Some(SimTime::from_millis(340)),
            max_event_ts: SimTime::from_millis(380),
            late_records: 2,
            fired: 5,
            open: vec![
                OpenPane {
                    start: SimTime::from_millis(300),
                    end: SimTime::from_millis(400),
                    key: 7,
                    logical: 1.5e6,
                    values: vec![1.0, 2.5, -3.25],
                },
                OpenPane {
                    start: SimTime::from_millis(300),
                    end: SimTime::from_millis(400),
                    key: 9,
                    logical: 0.5e6,
                    values: vec![],
                },
            ],
        };
        let bytes = state.encode();
        assert_eq!(StreamState::decode(&bytes), Some(state));
        // None watermark survives the roundtrip too.
        let fresh = StreamState::default();
        assert_eq!(StreamState::decode(&fresh.encode()), Some(fresh));
        // Structural guards.
        assert_eq!(StreamState::decode(&bytes[..bytes.len() - 1]), None);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(StreamState::decode(&bad), None);
        let mut long = bytes;
        long.push(0);
        assert_eq!(StreamState::decode(&long), None);
    }

    #[test]
    fn write_then_read_through_hdfs() {
        let mut hdfs = Hdfs::new(2, HdfsConfig::default());
        let cm = CheckpointManager::new(CheckpointConfig::every(SimTime::from_millis(1)));
        let snap = sample();
        let tok = cm.write(&mut hdfs, 0, "job", &snap, SimTime::ZERO).unwrap();
        assert_eq!(tok.file, "ckpt/job/op3");
        assert_eq!(tok.epoch, 1);
        assert_eq!(tok.covered, 2);
        assert!(tok.bytes > 0);
        let restored = cm
            .read(&mut hdfs, 1, "job", 3, tok.taken_at)
            .unwrap()
            .expect("snapshot exists");
        assert_eq!(restored.snapshot, snap);
        assert!(restored.ready_at > tok.taken_at);
        // Overwrites bump the epoch; absent files restore to None.
        let tok2 = cm.write(&mut hdfs, 0, "job", &snap, tok.taken_at).unwrap();
        assert_eq!(tok2.epoch, 2);
        assert!(cm
            .read(&mut hdfs, 0, "job", 9, SimTime::ZERO)
            .unwrap()
            .is_none());
        // Bit-rot is refused, not replayed.
        hdfs.rot("ckpt/job/op3").unwrap();
        assert!(matches!(
            cm.read(&mut hdfs, 0, "job", 3, SimTime::ZERO),
            Err(HdfsError::Corrupt { .. })
        ));
    }
}
