//! Checkpoint/restore of job progress (the second recovery mode).
//!
//! PR 1's recovery machinery replays lost work from the live host copy —
//! adequate for single device loss, but a job that loses its whole worker
//! restarts from zero. This module adds externalized state in the spirit
//! of the paper's in-memory architecture: each live job's progress
//! frontier, completed block outputs, and per-GPU cache manifests are
//! periodically written durably to the simulated HDFS via
//! [`gflink_hdfs::Hdfs::snapshot_at`] (CRC-checked manifests, charged
//! I/O). On resubmission after a crash, the driver restores the newest
//! snapshot and replays only the delta since it: covered blocks are
//! satisfied from the snapshot (counted as `works_restored` in the fault
//! ledger), uncovered blocks execute as usual, and the double-entry
//! invariant `works_restored + completions == works submitted` proves
//! nothing is lost or duplicated across the restore boundary.
//!
//! Snapshots are incremental GFCK v2 *chains*, after Flink's incremental
//! checkpoints, with the paper's §4.2 block identity `(partition, block)`
//! as the delta key. Each tick writes one segment: the header, the full
//! keyed state and cache manifest (both small), and only the blocks
//! completed since the previous segment. A delta names its predecessor
//! and carries the predecessor's length and CRC; a base stands alone. A
//! base replaces a delta whenever the chain's delta bytes would otherwise
//! exceed its base's bytes, so a run writes bytes linear in its length
//! and a restore reads at most twice the folded snapshot. The newest
//! segment is the entry point `<prefix>/<job>/op<seq>`; writing the next
//! one first renames it to `<entry>.<index>` (a namenode metadata
//! operation), where its successor names it. A segment's index is the
//! entry point's snapshot epoch when it was written. A new base deletes
//! the segments it supersedes.
//!
//! `seq` is a per-job operator-invocation counter — iterative jobs reuse
//! operator *names* every superstep, so the sequence number, not the
//! name, is the identity. Reading folds the chain back into one
//! [`JobSnapshot`]; every corrupt, missing or misordered segment surfaces
//! as a typed [`SnapshotError`].

use crate::config::CheckpointConfig;
use crate::gwork::CacheKey;
use gflink_hdfs::{crc32, Hdfs, HdfsError};
use gflink_memory::HBuffer;
use gflink_sim::SimTime;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Magic prefix of a snapshot segment ("GFlink ChecKpoint").
const MAGIC: &[u8; 4] = b"GFCK";
/// Segment encoding version; bumped on any layout change.
const VERSION: u32 = 2;
/// Segment bytes besides state, blocks and cache: magic, version, job,
/// seq, index, frontier, link flag and link, and the three counts.
const SEGMENT_FIXED: usize = 4 + 4 + 8 * 4 + 1 + 8 + 8 + 4 + 8 * 3;
/// Per block: tag, emitted flag and count, completion, payload length.
const BLOCK_FIXED: usize = 4 + 4 + 1 + 8 + 8 + 8;
/// Per cache entry: worker, gpu, dataset, partition, block, bytes.
const CACHE_ENTRY: usize = 32;

/// Why a snapshot or a snapshot chain could not be decoded or restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes end before the layout does.
    Truncated,
    /// The bytes do not start with the magic their kind expects.
    BadMagic,
    /// A layout version this build does not read.
    BadVersion(u32),
    /// Bytes follow a complete record.
    TrailingBytes,
    /// A file's bytes no longer match their manifest checksum.
    CrcMismatch {
        /// The rotted file.
        file: String,
    },
    /// A segment is not the one its successor names: its length, CRC,
    /// index, job or frontier order disagrees.
    BrokenChain {
        /// The segment that does not fit.
        file: String,
    },
    /// The segment a chain folds onto is gone — its file was deleted, or
    /// a lone delta was decoded without its chain.
    MissingBase {
        /// Index of the missing segment.
        segment: u64,
    },
    /// The file system could not serve a chain file.
    Io(HdfsError),
    /// A block is not one the restoring operator produces: its tag lies
    /// outside the operator's partition/block cut, or its bytes are not a
    /// block's output — the job was relaunched with another shape
    /// (parallelism, block size, record or output size).
    ShapeMismatch {
        /// The block's `(partition, block)` tag.
        tag: (u32, u32),
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot: truncated"),
            SnapshotError::BadMagic => write!(f, "snapshot: bad magic"),
            SnapshotError::BadVersion(v) => write!(f, "snapshot: unknown version {v}"),
            SnapshotError::TrailingBytes => write!(f, "snapshot: trailing bytes"),
            SnapshotError::CrcMismatch { file } => {
                write!(f, "snapshot: {file} fails its CRC check")
            }
            SnapshotError::BrokenChain { file } => {
                write!(f, "snapshot: {file} does not link into its chain")
            }
            SnapshotError::MissingBase { segment } => {
                write!(f, "snapshot: chain segment {segment} is missing")
            }
            SnapshotError::Io(e) => write!(f, "snapshot: {e}"),
            SnapshotError::ShapeMismatch { tag: (p, b) } => {
                write!(f, "snapshot: block {p}/{b} is not on this operator's cut")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

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

/// A job's durable progress record for one operator invocation: what a
/// chain folds to.
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

    /// The snapshot as one self-contained base segment.
    pub fn encode(&self) -> Vec<u8> {
        encode_segment(&self.as_cut(), 0, None)
    }

    /// Length of [`JobSnapshot::encode`]: the snapshot's folded size.
    pub fn encoded_len(&self) -> usize {
        segment_len(&self.state, &self.blocks, &self.cache)
    }

    /// Decode a self-contained base segment. A delta cannot stand alone:
    /// it decodes to [`SnapshotError::MissingBase`].
    pub fn decode(data: &[u8]) -> Result<JobSnapshot, SnapshotError> {
        let seg = SnapshotSegment::decode(data)?;
        match seg.link {
            Some(link) => Err(SnapshotError::MissingBase {
                segment: link.index,
            }),
            None => Ok(seg.snapshot),
        }
    }

    fn as_cut(&self) -> Cut<'_> {
        Cut {
            job: self.job,
            seq: self.seq,
            frontier: self.frontier,
            state: &self.state,
            blocks: &self.blocks,
            cache: &self.cache,
        }
    }
}

/// A snapshot over borrowed parts, so a run that cuts many segments over
/// one completed-block list never copies the blocks per tick.
#[derive(Clone, Copy)]
struct Cut<'a> {
    job: u64,
    seq: u64,
    frontier: SimTime,
    state: &'a [u8],
    /// Completed blocks, in completion order.
    blocks: &'a [SnapshotBlock],
    cache: &'a [CacheManifestEntry],
}

impl Cut<'_> {
    fn to_snapshot(self) -> JobSnapshot {
        JobSnapshot {
            job: self.job,
            seq: self.seq,
            frontier: self.frontier,
            state: self.state.to_vec(),
            blocks: self.blocks.to_vec(),
            cache: self.cache.to_vec(),
        }
    }
}

/// A delta's reference to its predecessor: the predecessor's index,
/// exact length and CRC-32.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentLink {
    /// The predecessor's index: its file is `<entry>.<index>`.
    pub index: u64,
    /// The predecessor's encoded length.
    pub len: u64,
    /// CRC-32 of the predecessor's bytes.
    pub crc: u32,
}

/// One decoded chain segment: a base holds every completed block, a
/// delta only those completed since its predecessor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotSegment {
    /// The segment's index: its entry point's epoch when written.
    pub index: u64,
    /// The predecessor, for a delta; `None` for a base.
    pub link: Option<SegmentLink>,
    /// The tick's snapshot, holding only this segment's blocks.
    pub snapshot: JobSnapshot,
}

impl SnapshotSegment {
    /// Deterministic byte encoding (little-endian, length-prefixed).
    pub fn encode(&self) -> Vec<u8> {
        encode_segment(&self.snapshot.as_cut(), self.index, self.link)
    }

    /// Decode one segment. Content integrity is the HDFS manifest CRC's
    /// job; this guards the layout.
    pub fn decode(data: &[u8]) -> Result<SnapshotSegment, SnapshotError> {
        let mut r = Reader::new(data, MAGIC, VERSION)?;
        let job = r.u64()?;
        let seq = r.u64()?;
        let index = r.u64()?;
        let frontier = SimTime::from_nanos(r.u64()?);
        let has_link = r.u8()? == 1;
        let link = r.link()?;
        let state_len = r.len()?;
        let state = r.take(state_len)?.to_vec();
        let n_blocks = r.count(BLOCK_FIXED)?;
        let mut blocks = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let tag = (r.u32()?, r.u32()?);
            let has_emitted = r.u8()? == 1;
            let emitted_raw = r.u64()?;
            let emitted = has_emitted.then_some(emitted_raw as usize);
            let completed_at = SimTime::from_nanos(r.u64()?);
            let payload_len = r.len()?;
            let payload = Arc::new(HBuffer::from_bytes(r.take(payload_len)?));
            blocks.push(SnapshotBlock {
                tag,
                emitted,
                completed_at,
                payload,
            });
        }
        let n_cache = r.count(CACHE_ENTRY)?;
        let mut cache = Vec::with_capacity(n_cache);
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
        r.finish()?;
        Ok(SnapshotSegment {
            index,
            link: has_link.then_some(link),
            snapshot: JobSnapshot {
                job,
                seq,
                frontier,
                state,
                blocks,
                cache,
            },
        })
    }
}

fn segment_len(state: &[u8], blocks: &[SnapshotBlock], cache: &[CacheManifestEntry]) -> usize {
    SEGMENT_FIXED
        + state.len()
        + cache.len() * CACHE_ENTRY
        + blocks
            .iter()
            .map(|b| BLOCK_FIXED + b.payload.len())
            .sum::<usize>()
}

/// Segment `index` of `cut`, linking to `link` (a delta) or to nothing
/// (a base).
fn encode_segment(cut: &Cut<'_>, index: u64, link: Option<SegmentLink>) -> Vec<u8> {
    let Cut {
        state,
        blocks,
        cache,
        ..
    } = *cut;
    let len = segment_len(state, blocks, cache);
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, cut.job);
    put_u64(&mut out, cut.seq);
    put_u64(&mut out, index);
    put_u64(&mut out, cut.frontier.as_nanos());
    out.push(u8::from(link.is_some()));
    put_link(
        &mut out,
        &link.unwrap_or(SegmentLink {
            index: 0,
            len: 0,
            crc: 0,
        }),
    );
    put_u64(&mut out, state.len() as u64);
    out.extend_from_slice(state);
    put_u64(&mut out, blocks.len() as u64);
    for b in blocks {
        put_u32(&mut out, b.tag.0);
        put_u32(&mut out, b.tag.1);
        out.push(u8::from(b.emitted.is_some()));
        put_u64(&mut out, b.emitted.unwrap_or(0) as u64);
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

fn put_link(out: &mut Vec<u8>, link: &SegmentLink) {
    put_u64(out, link.index);
    put_u64(out, link.len);
    put_u32(out, link.crc);
}

/// A bounds-checked little-endian cursor: every read past the end is
/// [`SnapshotError::Truncated`], never a panic.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader past `magic` and `version`.
    fn new(data: &'a [u8], magic: &[u8; 4], version: u32) -> Result<Self, SnapshotError> {
        let mut r = Reader { data, pos: 0 };
        if r.take(4)? != magic.as_slice() {
            return Err(SnapshotError::BadMagic);
        }
        match r.u32()? {
            v if v == version => Ok(r),
            v => Err(SnapshotError::BadVersion(v)),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or(SnapshotError::Truncated)?;
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        self.array().map(|[b]| b)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A length or count: a value no buffer could hold is a truncation.
    fn len(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Truncated)
    }

    /// A count of items of at least `item` bytes each: more than the
    /// bytes left could hold is a truncation, caught before allocating.
    fn count(&mut self, item: usize) -> Result<usize, SnapshotError> {
        let n = self.len()?;
        if n > (self.data.len() - self.pos) / item {
            return Err(SnapshotError::Truncated);
        }
        Ok(n)
    }

    fn link(&mut self) -> Result<SegmentLink, SnapshotError> {
        Ok(SegmentLink {
            index: self.u64()?,
            len: self.u64()?,
            crc: self.u32()?,
        })
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes)
        }
    }
}

/// Receipt for one durable snapshot write. `#[must_use]`: a dropped token
/// means the write's cost and coverage never reached the job's rollup.
#[derive(Clone, Debug)]
#[must_use = "fold this token into the job's checkpoint counters"]
pub struct CheckpointToken {
    /// The chain's entry point, which now holds the written segment.
    pub file: String,
    /// The segment's index: the entry point's snapshot epoch.
    pub epoch: u64,
    /// Simulated instant the write completed.
    pub taken_at: SimTime,
    /// Encoded segment bytes.
    pub bytes: u64,
    /// How many completed blocks the chain covers.
    pub covered: usize,
}

/// A snapshot chain read back from HDFS and folded. `#[must_use]`:
/// dropping it discards the restored progress and silently degrades to
/// replay-from-zero.
#[derive(Clone, Debug)]
#[must_use = "apply the restored snapshot or the job replays from zero"]
pub struct RestoredSnapshot {
    /// The folded snapshot.
    pub snapshot: JobSnapshot,
    /// Simulated instant the last chain read (and CRC check) completed.
    pub ready_at: SimTime,
    /// The entry point's snapshot epoch: the newest segment's index.
    pub epoch: u64,
    /// Bytes read: every segment from the newest back to the base.
    pub bytes_read: u64,
    /// Segments folded, base included.
    pub segments: usize,
}

/// What verifying one tick's chain found (see
/// [`CheckpointManager::verify_chains`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainAudit {
    /// The snapshot tick.
    pub tick: SimTime,
    /// Whether this tick's segment was written.
    pub written: bool,
    /// Whether the chain folds to exactly the snapshot of the last tick
    /// written: frontier, state bytes, blocks in completion order and
    /// cache manifest.
    pub folds_to_cut: bool,
}

/// Fabric-side coordinator for periodic job snapshots.
///
/// Owns the per-job cadence state (when each job last snapshotted, which
/// operator invocation is next) and the encode/write + read/fold paths
/// against HDFS. It deliberately holds no job *data* — snapshots are cut
/// from the driver's completions at drain time, so the manager stays a
/// thin clock-and-codec layer.
#[derive(Debug)]
pub struct CheckpointManager {
    cfg: CheckpointConfig,
    next_seq: BTreeMap<u64, u64>,
    last_tick: BTreeMap<u64, SimTime>,
    /// Per-tick chain verifications, when on.
    audits: Option<Vec<ChainAudit>>,
}

impl CheckpointManager {
    /// A manager for the given policy.
    pub fn new(cfg: CheckpointConfig) -> Self {
        CheckpointManager {
            cfg,
            next_seq: BTreeMap::new(),
            last_tick: BTreeMap::new(),
            audits: None,
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

    /// The entry point of `job_name`'s invocation `seq`: the file holding
    /// its chain's newest segment.
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

    /// Verify every chain this manager writes from now on: after each
    /// tick, fold the chain back (uncharged, see
    /// [`CheckpointManager::inspect`]) and record whether it equals the
    /// snapshot that tick cut. For tests and audits; costs one fold per
    /// tick.
    pub fn verify_chains(&mut self) {
        self.audits.get_or_insert_with(Vec::new);
    }

    /// The verifications recorded since the last call, in tick order.
    pub fn take_audits(&mut self) -> Vec<ChainAudit> {
        self.audits.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Write `snap` at `at` from datanode `node` as a new one-segment
    /// chain (a base), superseding any earlier chain of the same
    /// invocation.
    pub fn write(
        &self,
        hdfs: &mut Hdfs,
        node: usize,
        job_name: &str,
        snap: &JobSnapshot,
        at: SimTime,
    ) -> Result<CheckpointToken, HdfsError> {
        ChainWriter::new(self.file_name(job_name, snap.seq), node).cut(hdfs, &snap.as_cut(), at)
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

    /// Write invocation `seq` of job `job` (named `job_name`) as one
    /// chain, one segment per tick, from datanode 0 where the driver
    /// runs. The snapshot at `tick` covers the prefix of `done` — sorted
    /// by completion — that completed by `tick`, carries the cache
    /// manifest `cache`, and holds the keyed state `state(tick)` returns;
    /// `state` is called once per tick, in tick order, and a tick it has
    /// no state for (`None`) is skipped. The first segment is a base that
    /// supersedes any earlier chain. A failed write is skipped too: the
    /// next segment chains from the last one written. Returns the
    /// snapshots written and their bytes.
    #[allow(clippy::too_many_arguments)] // one snapshot's parts plus its ticks
    pub fn write_ticks(
        &mut self,
        hdfs: &mut Hdfs,
        job_name: &str,
        (job, seq): (u64, u64),
        ticks: &[SimTime],
        done: &[SnapshotBlock],
        cache: &[CacheManifestEntry],
        mut state: impl FnMut(SimTime) -> Option<Vec<u8>>,
    ) -> (u64, u64) {
        let mut chain = ChainWriter::new(self.file_name(job_name, seq), 0);
        let (mut written, mut bytes) = (0, 0);
        // The snapshot of the last tick written, kept only when verifying.
        let mut last_cut: Option<JobSnapshot> = None;
        for &tick in ticks {
            let upto = done.partition_point(|b| b.completed_at <= tick);
            let ok = state(tick).is_some_and(|state| {
                let cut = Cut {
                    job,
                    seq,
                    frontier: tick,
                    state: &state,
                    blocks: &done[..upto],
                    cache,
                };
                let Ok(tok) = chain.cut(hdfs, &cut, tick) else {
                    return false;
                };
                written += 1;
                bytes += tok.bytes;
                if self.audits.is_some() {
                    last_cut = Some(cut.to_snapshot());
                }
                true
            });
            self.audit(hdfs, job_name, seq, tick, ok, last_cut.as_ref());
        }
        (written, bytes)
    }

    /// Record one tick's verification, if verifying: the chain must fold
    /// to `last_cut`, the snapshot of the last tick written.
    fn audit(
        &mut self,
        hdfs: &Hdfs,
        job_name: &str,
        seq: u64,
        tick: SimTime,
        written: bool,
        last_cut: Option<&JobSnapshot>,
    ) {
        if self.audits.is_none() {
            return;
        }
        let folded = self.inspect(hdfs, job_name, seq).ok().flatten();
        let audit = ChainAudit {
            tick,
            written,
            folds_to_cut: folded.as_ref().map(|f| &f.snapshot) == last_cut,
        };
        if let Some(audits) = &mut self.audits {
            audits.push(audit);
        }
    }

    /// Read back and fold the newest chain of `job_name`'s invocation
    /// `seq` from datanode `node`, each file read starting where the
    /// previous one landed. `Ok(None)` when no chain was ever written (a
    /// fresh run); a corrupt, missing or misordered segment is a typed
    /// error — a corrupt checkpoint must never be silently replayed.
    pub fn read(
        &self,
        hdfs: &mut Hdfs,
        node: usize,
        job_name: &str,
        seq: u64,
        at: SimTime,
    ) -> Result<Option<RestoredSnapshot>, SnapshotError> {
        let entry = self.file_name(job_name, seq);
        let mut cursor = at;
        let folded = fold_chain(&entry, |name, link| {
            if !hdfs.exists(name) {
                return Ok(None);
            }
            check_link(hdfs, name, link)?;
            let (data, grant) = hdfs.restore(node, name, cursor).map_err(|e| match e {
                HdfsError::Corrupt { file } => SnapshotError::CrcMismatch { file },
                e => SnapshotError::Io(e),
            })?;
            cursor = grant.end;
            Ok(Some(data))
        })?;
        Ok(folded.map(|f| f.restored(hdfs, &entry, cursor)))
    }

    /// [`CheckpointManager::read`] without charging any I/O — an fsck of
    /// the chain that leaves every disk timeline untouched, so audits and
    /// tests can look without moving simulated time. `ready_at` is zero.
    pub fn inspect(
        &self,
        hdfs: &Hdfs,
        job_name: &str,
        seq: u64,
    ) -> Result<Option<RestoredSnapshot>, SnapshotError> {
        let entry = self.file_name(job_name, seq);
        let folded = fold_chain(&entry, |name, link| {
            let Ok(data) = hdfs.data(name) else {
                return Ok(None);
            };
            let m = check_link(hdfs, name, link)?;
            if data.len() as u64 != m.len || crc32(&data) != m.crc {
                return Err(SnapshotError::CrcMismatch {
                    file: name.to_string(),
                });
            }
            Ok(Some(data))
        })?;
        Ok(folded.map(|f| f.restored(hdfs, &entry, SimTime::ZERO)))
    }
}

/// The name of segment `index` of the chain whose entry point is `entry`.
pub fn segment_name(entry: &str, index: u64) -> String {
    format!("{entry}.{index}")
}

/// `name`'s snapshot manifest, which must match `link` when one names the
/// file: a swapped, replaced or rewritten segment breaks the chain.
fn check_link(
    hdfs: &Hdfs,
    name: &str,
    link: Option<&SegmentLink>,
) -> Result<gflink_hdfs::SnapshotManifest, SnapshotError> {
    let m = *hdfs.manifest(name).ok_or_else(|| {
        SnapshotError::Io(HdfsError::NoManifest {
            file: name.to_string(),
        })
    })?;
    match link {
        Some(l) if (l.len, l.crc) != (m.len, m.crc) => Err(SnapshotError::BrokenChain {
            file: name.to_string(),
        }),
        _ => Ok(m),
    }
}

/// A chain folded into one snapshot, before the caller stamps its timing.
struct Folded {
    snapshot: JobSnapshot,
    bytes_read: u64,
    segments: usize,
}

impl Folded {
    fn restored(self, hdfs: &Hdfs, entry: &str, ready_at: SimTime) -> RestoredSnapshot {
        RestoredSnapshot {
            snapshot: self.snapshot,
            ready_at,
            epoch: hdfs.manifest(entry).map_or(1, |m| m.epoch),
            bytes_read: self.bytes_read,
            segments: self.segments,
        }
    }
}

/// Follow the chain whose newest segment is `entry` back to its base and
/// fold it. `fetch(name, link)` returns a file's verified bytes — checked
/// against `link` when a successor names it — or `None` when the file
/// does not exist. Indices strictly decrease toward the base, so the walk
/// terminates.
fn fold_chain(
    entry: &str,
    mut fetch: impl FnMut(&str, Option<&SegmentLink>) -> Result<Option<Arc<Vec<u8>>>, SnapshotError>,
) -> Result<Option<Folded>, SnapshotError> {
    let (mut name, mut link) = (entry.to_string(), None);
    let mut bytes_read = 0;
    // Newest first.
    let mut chain: Vec<SnapshotSegment> = Vec::new();
    loop {
        let Some(data) = fetch(&name, link.as_ref())? else {
            return match link {
                Some(l) => Err(SnapshotError::MissingBase { segment: l.index }),
                None => Ok(None),
            };
        };
        bytes_read += data.len() as u64;
        let seg = SnapshotSegment::decode(&data)?;
        let fits = link.is_none_or(|l| l.index == seg.index)
            && seg.link.is_none_or(|l| l.index < seg.index)
            && chain.last().is_none_or(|succ| {
                let (s, p) = (&succ.snapshot, &seg.snapshot);
                (s.job, s.seq) == (p.job, p.seq) && p.frontier <= s.frontier
            });
        if !fits {
            return Err(SnapshotError::BrokenChain { file: name });
        }
        link = seg.link;
        chain.push(seg);
        match link {
            Some(l) => name = segment_name(entry, l.index),
            None => break,
        }
    }
    let segments = chain.len();
    let mut blocks = Vec::with_capacity(chain.iter().map(|s| s.snapshot.blocks.len()).sum());
    for seg in chain.iter_mut().rev() {
        blocks.append(&mut seg.snapshot.blocks);
    }
    let tip = chain.swap_remove(0).snapshot;
    Ok(Some(Folded {
        snapshot: JobSnapshot { blocks, ..tip },
        bytes_read,
        segments,
    }))
}

/// One invocation's chain as it is being written: the published tip, how
/// many completed blocks it covers, and the byte budget of its base.
struct ChainWriter {
    entry: String,
    node: usize,
    tip: Option<SegmentLink>,
    covered: usize,
    base_bytes: u64,
    delta_bytes: u64,
}

impl ChainWriter {
    fn new(entry: String, node: usize) -> Self {
        ChainWriter {
            entry,
            node,
            tip: None,
            covered: 0,
            base_bytes: 0,
            delta_bytes: 0,
        }
    }

    /// Write the segment for `cut` at `at` as the chain's new entry point;
    /// `cut`'s blocks extend the list the last segment covered. A delta
    /// holds only the blocks past the chain's coverage and links to the
    /// old tip, which moves aside first; a base holds them all, and is cut
    /// first in a chain and whenever the delta would push the chain's
    /// delta bytes past its base's. On failure the chain is unchanged.
    fn cut(
        &mut self,
        hdfs: &mut Hdfs,
        cut: &Cut<'_>,
        at: SimTime,
    ) -> Result<CheckpointToken, HdfsError> {
        let covered = cut.blocks.len();
        let fresh = Cut {
            blocks: &cut.blocks[self.covered.min(covered)..],
            ..*cut
        };
        let delta_len = segment_len(fresh.state, fresh.blocks, fresh.cache) as u64;
        let link = self
            .tip
            .filter(|_| self.delta_bytes + delta_len <= self.base_bytes);
        let index = hdfs.manifest(&self.entry).map_or(0, |m| m.epoch) + 1;
        let payload = encode_segment(if link.is_some() { &fresh } else { cut }, index, link);
        let len = payload.len() as u64;
        let aside = link.map(|l| segment_name(&self.entry, l.index));
        if let Some(aside) = &aside {
            hdfs.rename(&self.entry, aside)?;
        }
        let grant = match hdfs.snapshot_at(self.node, &self.entry, payload, at) {
            Ok(grant) => grant,
            Err(e) => {
                if let Some(aside) = &aside {
                    hdfs.rename(aside, &self.entry)?;
                }
                return Err(e);
            }
        };
        let crc = hdfs.manifest(&self.entry).map_or(0, |m| m.crc);
        if link.is_some() {
            self.delta_bytes += len;
        } else {
            self.base_bytes = len;
            self.delta_bytes = 0;
            drop_superseded(hdfs, &self.entry);
        }
        self.tip = Some(SegmentLink { index, len, crc });
        self.covered = covered;
        Ok(CheckpointToken {
            file: self.entry.clone(),
            epoch: index,
            taken_at: grant.end,
            bytes: len,
            covered,
        })
    }
}

/// Delete every earlier segment of `entry`, which now holds a base: no
/// chain still needs them.
fn drop_superseded(hdfs: &mut Hdfs, entry: &str) {
    let prefix = format!("{entry}.");
    for file in hdfs.list() {
        if file
            .strip_prefix(&prefix)
            .is_some_and(|i| i.parse::<u64>().is_ok())
        {
            // Listed just now, so the delete cannot miss.
            let _ = hdfs.delete(&file);
        }
    }
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
        out.push(u8::from(self.watermark.is_some()));
        put_u64(&mut out, self.watermark.map_or(0, SimTime::as_nanos));
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

    /// Decode an encoded stream state.
    pub fn decode(data: &[u8]) -> Result<StreamState, SnapshotError> {
        let mut r = Reader::new(data, STREAM_MAGIC, STREAM_VERSION)?;
        let batches = r.u64()?;
        let has_wm = r.u8()? == 1;
        let wm_raw = r.u64()?;
        let watermark = has_wm.then_some(SimTime::from_nanos(wm_raw));
        let max_event_ts = SimTime::from_nanos(r.u64()?);
        let late_records = r.u64()?;
        let fired = r.u64()?;
        let n_open = r.count(8 * 5)?;
        let mut open = Vec::with_capacity(n_open);
        for _ in 0..n_open {
            let start = SimTime::from_nanos(r.u64()?);
            let end = SimTime::from_nanos(r.u64()?);
            let key = r.u64()?;
            let logical = f64::from_bits(r.u64()?);
            let n_values = r.count(8)?;
            let mut values = Vec::with_capacity(n_values);
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
        r.finish()?;
        Ok(StreamState {
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
mod tests;
