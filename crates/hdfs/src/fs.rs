//! The simulated file system.

use crate::crc;
use gflink_sim::{BandwidthCost, SimTime, Timeline};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// HDFS configuration.
#[derive(Clone, Debug)]
pub struct HdfsConfig {
    /// Block size in bytes (HDFS default: 64 MB in the paper's era).
    pub block_size: u64,
    /// Replication factor (HDFS default: 3).
    pub replication: usize,
    /// Sequential disk read bandwidth per datanode, bytes/s.
    pub disk_read_bps: f64,
    /// Sequential disk write bandwidth per datanode, bytes/s.
    pub disk_write_bps: f64,
    /// Network bandwidth for remote block reads / replication, bytes/s.
    pub net_bps: f64,
    /// Per-block access overhead (seek + RPC to the namenode).
    pub block_overhead: SimTime,
}

impl Default for HdfsConfig {
    fn default() -> Self {
        HdfsConfig {
            block_size: 64 * 1024 * 1024,
            replication: 3,
            // Datanode sequential read with OS readahead and a partially
            // warm page cache (16 GB RAM per node); writes flush through.
            disk_read_bps: 300.0e6,
            disk_write_bps: 200.0e6,
            net_bps: 117.0e6, // ~1 GbE payload rate
            block_overhead: SimTime::from_millis(2),
        }
    }
}

/// Errors from the simulated file system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HdfsError {
    /// File not found in the namenode table.
    NotFound(String),
    /// File already exists.
    AlreadyExists(String),
    /// A read past the end of the file.
    OutOfRange {
        /// File being read.
        file: String,
        /// Logical file size.
        size: u64,
    },
    /// Bad node index.
    BadNode(usize),
    /// Every replica of a needed block is on a failed datanode.
    BlockLost {
        /// File whose block is unreadable.
        file: String,
    },
    /// A snapshot's content no longer matches its manifest checksum.
    Corrupt {
        /// Snapshot whose CRC check failed.
        file: String,
    },
    /// The file exists but has no snapshot manifest (it was written by
    /// the plain write path, not [`Hdfs::snapshot_at`]).
    NoManifest {
        /// File without a manifest.
        file: String,
    },
}

impl fmt::Display for HdfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HdfsError::NotFound(n) => write!(f, "hdfs: file not found: {n}"),
            HdfsError::AlreadyExists(n) => write!(f, "hdfs: file exists: {n}"),
            HdfsError::OutOfRange { file, size } => {
                write!(f, "hdfs: read past end of {file} (size {size})")
            }
            HdfsError::BadNode(n) => write!(f, "hdfs: unknown datanode {n}"),
            HdfsError::BlockLost { file } => {
                write!(
                    f,
                    "hdfs: all replicas of a block of {file} are on failed nodes"
                )
            }
            HdfsError::Corrupt { file } => {
                write!(f, "hdfs: snapshot {file} fails its manifest CRC check")
            }
            HdfsError::NoManifest { file } => {
                write!(f, "hdfs: {file} has no snapshot manifest")
            }
        }
    }
}

impl std::error::Error for HdfsError {}

/// The simulated interval an I/O occupied, and what it touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoGrant {
    /// Instant the I/O began.
    pub start: SimTime,
    /// Instant the I/O completed.
    pub end: SimTime,
    /// Bytes that came from node-local replicas.
    pub local_bytes: u64,
    /// Bytes that crossed the network.
    pub remote_bytes: u64,
}

impl IoGrant {
    /// Duration of the grant.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// Namenode-side record of a durable snapshot: enough to detect both a
/// missing snapshot (no manifest) and a rotted one (CRC mismatch) at
/// restore time, plus the bookkeeping recovery wants (when it was taken
/// and which write epoch it belongs to).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotManifest {
    /// CRC-32 (IEEE) of the snapshot payload.
    pub crc: u32,
    /// Payload length in bytes.
    pub len: u64,
    /// Simulated instant the snapshot write completed.
    pub taken_at: SimTime,
    /// Monotone per-file write epoch (1 for the first snapshot).
    pub epoch: u64,
}

impl SnapshotManifest {
    /// Whether `content` is what this manifest recorded: the same length
    /// and the same CRC-32, folded over the pieces in order.
    pub fn matches(&self, content: &Pieces) -> bool {
        content.len() == self.len && content.crc32() == self.crc
    }
}

/// One shared piece of a file's content: any bytes behind an `Arc`, so a
/// writer hands over buffers it also keeps (a checkpoint's block
/// payloads) without copying them.
pub type Piece = Arc<dyn AsRef<[u8]> + Send + Sync>;

/// A file's content: shared pieces, in order. The file's bytes are the
/// pieces joined, but nothing joins them until a reader asks for the
/// bytes, and the manifest CRC folds over them where they lie.
#[derive(Clone, Default)]
pub struct Pieces(Vec<Piece>);

impl Pieces {
    /// Total length in bytes.
    pub fn len(&self) -> u64 {
        self.iter().map(|p| p.len() as u64).sum()
    }

    /// Whether the content holds no byte.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// CRC-32 (IEEE) of the joined bytes, continued piece by piece.
    pub fn crc32(&self) -> u32 {
        self.iter().fold(0, crc::update)
    }

    /// The joined bytes: a copy.
    pub fn to_vec(&self) -> Vec<u8> {
        self.iter().collect::<Vec<_>>().concat()
    }

    fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.0.iter().map(|p| (**p).as_ref())
    }
}

impl From<Vec<Piece>> for Pieces {
    fn from(pieces: Vec<Piece>) -> Self {
        Pieces(pieces)
    }
}

impl From<Vec<u8>> for Pieces {
    /// One piece holding `bytes`.
    fn from(bytes: Vec<u8>) -> Self {
        Pieces(vec![Arc::new(bytes)])
    }
}

impl fmt::Debug for Pieces {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pieces({} pieces, {} B)", self.0.len(), self.len())
    }
}

#[derive(Clone, Debug)]
struct Block {
    /// Logical byte size of this block (last block may be short).
    size: u64,
    /// Datanode indices holding replicas, primary first.
    replicas: Vec<usize>,
}

struct FileMeta {
    logical_size: u64,
    blocks: Vec<Block>,
    /// Scale-reduced real content (possibly empty for timing-only files).
    data: Pieces,
}

/// The simulated HDFS instance: one namenode table + per-datanode disks.
pub struct Hdfs {
    config: HdfsConfig,
    num_nodes: usize,
    files: HashMap<String, FileMeta>,
    manifests: HashMap<String, SnapshotManifest>,
    /// The last snapshot epoch written under each name. A rename moves a
    /// file's manifest but not its old name's count; a delete resets it.
    epochs: HashMap<String, u64>,
    disks: Vec<Timeline>,
    failed: Vec<bool>,
    /// Scripted outages: `(node, from, until)` — the node serves no I/O
    /// issued in `[from, until)`.
    outages: Vec<(usize, SimTime, SimTime)>,
    next_block_start: usize,
}

impl Hdfs {
    /// A cluster of `num_nodes` datanodes.
    pub fn new(num_nodes: usize, config: HdfsConfig) -> Self {
        assert!(num_nodes >= 1, "need at least one datanode");
        Hdfs {
            config,
            num_nodes,
            files: HashMap::new(),
            manifests: HashMap::new(),
            epochs: HashMap::new(),
            disks: vec![Timeline::new(); num_nodes],
            failed: vec![false; num_nodes],
            outages: Vec::new(),
            next_block_start: 0,
        }
    }

    /// Number of datanodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The configuration in force.
    pub fn config(&self) -> &HdfsConfig {
        &self.config
    }

    /// Whether `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// The actual (scale-reduced) content of `name`, joined into one
    /// buffer.
    pub fn data(&self, name: &str) -> Result<Vec<u8>, HdfsError> {
        self.content(name).map(Pieces::to_vec)
    }

    /// The actual (scale-reduced) content of `name`, as it is stored.
    pub fn content(&self, name: &str) -> Result<&Pieces, HdfsError> {
        self.files
            .get(name)
            .map(|f| &f.data)
            .ok_or_else(|| HdfsError::NotFound(name.to_string()))
    }

    /// Register a file of `logical_size` bytes with `actual` content,
    /// placing block replicas round-robin from the filesystem-global
    /// placement cursor. This is the *metadata* operation; charging write
    /// time is [`Hdfs::write`]'s job.
    pub fn create(
        &mut self,
        name: &str,
        logical_size: u64,
        actual: Vec<u8>,
    ) -> Result<(), HdfsError> {
        self.create_pieces(name, logical_size, actual.into())
    }

    /// [`Hdfs::create`] with content in pieces.
    fn create_pieces(
        &mut self,
        name: &str,
        logical_size: u64,
        actual: Pieces,
    ) -> Result<(), HdfsError> {
        let start = self.next_block_start;
        let placed = self.place(name, logical_size, actual, start)?;
        self.next_block_start = start + placed;
        Ok(())
    }

    /// Register a file with an explicit placement cursor: block `i`'s
    /// primary replica lands on datanode `(start + i) % num_nodes`, with
    /// replicas on the following nodes. The global cursor is untouched, so
    /// a caller owning a private cursor (per-job placement) sees the same
    /// block layout regardless of what other tenants have created in the
    /// meantime. Returns the number of data blocks placed.
    pub fn create_at(
        &mut self,
        name: &str,
        logical_size: u64,
        actual: Vec<u8>,
        start: usize,
    ) -> Result<usize, HdfsError> {
        self.place(name, logical_size, actual.into(), start)
    }

    /// [`Hdfs::create_at`] with content in pieces.
    fn place(
        &mut self,
        name: &str,
        logical_size: u64,
        actual: Pieces,
        start: usize,
    ) -> Result<usize, HdfsError> {
        if self.files.contains_key(name) {
            return Err(HdfsError::AlreadyExists(name.to_string()));
        }
        let mut blocks = Vec::new();
        let mut remaining = logical_size;
        let mut cursor = start;
        while remaining > 0 {
            let size = remaining.min(self.config.block_size);
            let replicas = self.replica_nodes(cursor).collect();
            cursor += 1;
            blocks.push(Block { size, replicas });
            remaining -= size;
        }
        let placed = blocks.len();
        if blocks.is_empty() {
            // Zero-length files still need a (zero-sized) block entry for
            // reads to be well defined.
            blocks.push(Block {
                size: 0,
                replicas: vec![0],
            });
        }
        self.files.insert(
            name.to_string(),
            FileMeta {
                logical_size,
                blocks,
                data: actual,
            },
        );
        Ok(placed)
    }

    /// The datanodes holding the replicas of a block placed at `cursor`,
    /// primary first.
    fn replica_nodes(&self, cursor: usize) -> impl Iterator<Item = usize> {
        let (n, primary) = (self.num_nodes, cursor % self.num_nodes);
        (0..self.config.replication.min(n)).map(move |r| (primary + r) % n)
    }

    /// Whether datanode `node` serves no I/O issued at `at`: failed, or
    /// inside a scripted outage.
    fn down(&self, node: usize, at: SimTime) -> bool {
        self.failed[node]
            || self
                .outages
                .iter()
                .any(|&(n, from, until)| n == node && from <= at && at < until)
    }

    /// Delete a file's metadata and content (and its snapshot manifest,
    /// if it has one).
    pub fn delete(&mut self, name: &str) -> Result<(), HdfsError> {
        self.manifests.remove(name);
        self.epochs.remove(name);
        self.files
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| HdfsError::NotFound(name.to_string()))
    }

    /// Rename `from` to `to`: a namenode metadata operation, so no I/O is
    /// charged and the blocks stay where they are. A snapshot manifest
    /// moves with its file; `from` keeps its epoch count, so the next
    /// snapshot written under it continues the sequence.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), HdfsError> {
        if self.files.contains_key(to) {
            return Err(HdfsError::AlreadyExists(to.to_string()));
        }
        let meta = self
            .files
            .remove(from)
            .ok_or_else(|| HdfsError::NotFound(from.to_string()))?;
        self.files.insert(to.to_string(), meta);
        if let Some(m) = self.manifests.remove(from) {
            self.manifests.insert(to.to_string(), m);
        }
        Ok(())
    }

    /// Names of all files, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut v: Vec<String> = self.files.keys().cloned().collect();
        v.sort();
        v
    }

    /// Whether the byte range `[offset, offset+len)` of `name` has a
    /// replica local to `node` for all its blocks.
    pub fn is_local(
        &self,
        node: usize,
        name: &str,
        offset: u64,
        len: u64,
    ) -> Result<bool, HdfsError> {
        let meta = self
            .files
            .get(name)
            .ok_or_else(|| HdfsError::NotFound(name.to_string()))?;
        Ok(
            Self::touched_blocks(meta, name, offset, len, self.config.block_size)?
                .iter()
                .all(|&(b, _)| meta.blocks[b].replicas.contains(&node)),
        )
    }

    /// The blocks of file `name` (described by `meta`) that the byte range
    /// `[offset, offset + len)` touches, with the bytes it reads from
    /// each. An empty range touches none; a range past the end of the
    /// file, or past `u64::MAX`, is [`HdfsError::OutOfRange`].
    fn touched_blocks(
        meta: &FileMeta,
        name: &str,
        offset: u64,
        len: u64,
        block_size: u64,
    ) -> Result<Vec<(usize, u64)>, HdfsError> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= meta.logical_size)
            .ok_or_else(|| HdfsError::OutOfRange {
                file: name.to_string(),
                size: meta.logical_size,
            })?;
        let mut out = Vec::new();
        let first = (offset / block_size) as usize;
        let last = ((end - 1) / block_size) as usize;
        for b in first..=last {
            let block_start = b as u64 * block_size;
            let block_end = block_start + meta.blocks[b].size;
            let lo = offset.max(block_start);
            let hi = end.min(block_end);
            out.push((b, hi - lo));
        }
        Ok(out)
    }

    /// Read `len` logical bytes of `name` starting at `offset`, issued from
    /// datanode `node` at `earliest`.
    ///
    /// Each touched block is served from a node-local replica if one exists
    /// (disk pass only); otherwise from the primary replica's disk plus the
    /// network. Disk contention is real: concurrent readers of the same
    /// disk serialize on its timeline.
    pub fn read(
        &mut self,
        node: usize,
        name: &str,
        offset: u64,
        len: u64,
        earliest: SimTime,
    ) -> Result<IoGrant, HdfsError> {
        self.check_node(node)?;
        let meta = self
            .files
            .get(name)
            .ok_or_else(|| HdfsError::NotFound(name.to_string()))?;
        let touched = Self::touched_blocks(meta, name, offset, len, self.config.block_size)?;
        let disk = BandwidthCost::new(self.config.block_overhead, self.config.disk_read_bps);
        let net = BandwidthCost::new(SimTime::ZERO, self.config.net_bps);
        let mut cursor = earliest;
        let mut local_bytes = 0u64;
        let mut remote_bytes = 0u64;
        // Copy out replica info to satisfy the borrow checker (we mutate
        // disk timelines below).
        let plan: Vec<(Vec<usize>, u64)> = touched
            .iter()
            .map(|&(b, bytes)| (meta.blocks[b].replicas.clone(), bytes))
            .collect();
        for (replicas, bytes) in plan {
            // Serve from a live local replica when one exists (HDFS
            // short-circuit read); otherwise pick the least-busy *live*
            // replica disk, as the namenode's read scheduling spreads load
            // across replicas and routes around failed datanodes.
            let live: Vec<usize> = replicas
                .iter()
                .copied()
                .filter(|&r| !self.down(r, cursor))
                .collect();
            if live.is_empty() {
                return Err(HdfsError::BlockLost {
                    file: name.to_string(),
                });
            }
            let (serving, is_local) = if live.contains(&node) {
                (node, true)
            } else {
                let best = live
                    .iter()
                    .copied()
                    .min_by_key(|&r| self.disks[r].next_free())
                    .expect("no live replica");
                (best, false)
            };
            let disk_time = disk.time_for(bytes);
            let r = self.disks[serving].reserve(cursor, disk_time);
            let mut end = r.end;
            if !is_local {
                end += net.time_for(bytes) - net.time_for(0);
                remote_bytes += bytes;
            } else {
                local_bytes += bytes;
            }
            cursor = end;
        }
        Ok(IoGrant {
            start: earliest,
            end: cursor,
            local_bytes,
            remote_bytes,
        })
    }

    /// Write a new file of `logical_size` bytes from `node` at `earliest`,
    /// with content `actual`. Models the HDFS write pipeline: each block is
    /// written to `replication` disks; the pipeline streams, so a block
    /// costs one disk pass on each replica disk (reserved concurrently)
    /// plus the network hop for non-local replicas.
    pub fn write(
        &mut self,
        node: usize,
        name: &str,
        logical_size: u64,
        actual: Vec<u8>,
        earliest: SimTime,
    ) -> Result<IoGrant, HdfsError> {
        self.check_node(node)?;
        self.create(name, logical_size, actual)?;
        self.charge_write(node, name, earliest)
    }

    /// [`Hdfs::write`] with an explicit placement cursor (see
    /// [`Hdfs::create_at`]). Returns the I/O grant and the number of data
    /// blocks placed, so per-job cursors can advance themselves.
    pub fn write_at(
        &mut self,
        node: usize,
        name: &str,
        logical_size: u64,
        actual: Vec<u8>,
        earliest: SimTime,
        start: usize,
    ) -> Result<(IoGrant, usize), HdfsError> {
        self.check_node(node)?;
        let placed = self.create_at(name, logical_size, actual, start)?;
        Ok((self.charge_write(node, name, earliest)?, placed))
    }

    /// Charge the write pipeline for an already-registered file.
    fn charge_write(
        &mut self,
        node: usize,
        name: &str,
        earliest: SimTime,
    ) -> Result<IoGrant, HdfsError> {
        let meta = &self.files[name];
        let disk = BandwidthCost::new(self.config.block_overhead, self.config.disk_write_bps);
        let net = BandwidthCost::new(SimTime::ZERO, self.config.net_bps);
        let plan: Vec<(Vec<usize>, u64)> = meta
            .blocks
            .iter()
            .map(|b| (b.replicas.clone(), b.size))
            .collect();
        let mut cursor = earliest;
        let mut local_bytes = 0u64;
        let mut remote_bytes = 0u64;
        for (replicas, bytes) in plan {
            // The write pipeline skips failed datanodes (the namenode
            // re-replicates later; we only charge the live copies).
            let replicas: Vec<usize> = replicas
                .into_iter()
                .filter(|&r| !self.down(r, cursor))
                .collect();
            let mut block_end = cursor;
            for &rep in &replicas {
                let mut t = self.disks[rep].reserve(cursor, disk.time_for(bytes)).end;
                if rep != node {
                    t += net.time_for(bytes) - net.time_for(0);
                    remote_bytes += bytes;
                } else {
                    local_bytes += bytes;
                }
                block_end = block_end.max(t);
            }
            cursor = block_end;
        }
        Ok(IoGrant {
            start: earliest,
            end: cursor,
            local_bytes,
            remote_bytes,
        })
    }

    /// Durably snapshot `payload` to `name` from datanode `node`,
    /// overwriting any previous epoch of the same snapshot.
    ///
    /// This is the checkpoint write path: the full replicated write
    /// pipeline is charged (snapshots are not free), a CRC-32 of the
    /// payload is recorded in the namenode-side [`SnapshotManifest`], and
    /// the file's write epoch advances monotonically so a restore can
    /// tell which checkpoint generation it got. Returns the I/O grant.
    ///
    /// The payload is stored as the pieces it arrives in, each shared,
    /// never copied; the CRC folds over them in order.
    ///
    /// Fails with [`HdfsError::BlockLost`], leaving any earlier epoch in
    /// place, when every datanode a block's replicas would land on is down
    /// at `earliest`: the write pipeline has nowhere to go.
    pub fn snapshot_at(
        &mut self,
        node: usize,
        name: &str,
        payload: impl Into<Pieces>,
        earliest: SimTime,
    ) -> Result<IoGrant, HdfsError> {
        self.check_node(node)?;
        let payload = payload.into();
        let len = payload.len();
        let blocks = len.div_ceil(self.config.block_size) as usize;
        if (0..blocks).any(|b| {
            self.replica_nodes(self.next_block_start + b)
                .all(|r| self.down(r, earliest))
        }) {
            return Err(HdfsError::BlockLost {
                file: name.to_string(),
            });
        }
        let epoch = self.epochs.get(name).copied().unwrap_or(0) + 1;
        if self.files.contains_key(name) {
            self.delete(name)?;
        }
        self.epochs.insert(name.to_string(), epoch);
        let crc = payload.crc32();
        // Snapshots carry their real content: logical size == payload
        // size (no scale reduction — restores must be byte-exact).
        self.create_pieces(name, len, payload)?;
        let grant = self.charge_write(node, name, earliest)?;
        self.manifests.insert(
            name.to_string(),
            SnapshotManifest {
                crc,
                len,
                taken_at: grant.end,
                epoch,
            },
        );
        Ok(grant)
    }

    /// Restore a snapshot previously written with [`Hdfs::snapshot_at`]:
    /// read every block back from `node` (charging disk and network as
    /// usual), verify the payload against the manifest CRC, and return
    /// the payload, joined into one buffer, with the read grant.
    ///
    /// Fails with [`HdfsError::NoManifest`] for plain files and
    /// [`HdfsError::Corrupt`] when the content no longer matches the
    /// manifest — a corrupt checkpoint must never be silently replayed.
    pub fn restore(
        &mut self,
        node: usize,
        name: &str,
        earliest: SimTime,
    ) -> Result<(Vec<u8>, IoGrant), HdfsError> {
        let manifest = *self.manifests.get(name).ok_or_else(|| {
            if self.files.contains_key(name) {
                HdfsError::NoManifest {
                    file: name.to_string(),
                }
            } else {
                HdfsError::NotFound(name.to_string())
            }
        })?;
        let grant = self.read(node, name, 0, manifest.len, earliest)?;
        let content = self.content(name)?;
        if !manifest.matches(content) {
            return Err(HdfsError::Corrupt {
                file: name.to_string(),
            });
        }
        Ok((content.to_vec(), grant))
    }

    /// The snapshot manifest for `name`, if it was written by
    /// [`Hdfs::snapshot_at`].
    pub fn manifest(&self, name: &str) -> Option<&SnapshotManifest> {
        self.manifests.get(name)
    }

    /// Chaos injection: flip one bit of `name`'s stored content without
    /// touching its manifest, simulating silent bit-rot between a
    /// checkpoint write and its restore. Tests use this to prove the CRC
    /// gate actually fires.
    pub fn rot(&mut self, name: &str) -> Result<(), HdfsError> {
        self.tamper(name, |data| {
            if let Some(b) = data.first_mut() {
                *b ^= 0x01;
            }
        })
    }

    /// Chaos injection: rewrite `name`'s stored content with `f` —
    /// truncate it, flip bits — without touching its manifest, as a
    /// failing disk would. The file gets a rewritten copy of its bytes, so
    /// a piece it shares with a writer (a checkpointed block's output) is
    /// never changed.
    pub fn tamper(&mut self, name: &str, f: impl FnOnce(&mut Vec<u8>)) -> Result<(), HdfsError> {
        let meta = self
            .files
            .get_mut(name)
            .ok_or_else(|| HdfsError::NotFound(name.to_string()))?;
        let mut bytes = meta.data.to_vec();
        f(&mut bytes);
        meta.data = bytes.into();
        Ok(())
    }

    /// `node`, if it is one of this cluster's datanodes.
    fn check_node(&self, node: usize) -> Result<usize, HdfsError> {
        if node < self.num_nodes {
            Ok(node)
        } else {
            Err(HdfsError::BadNode(node))
        }
    }

    /// Mark a datanode as failed: its disk serves no further I/O; reads
    /// fail over to surviving replicas (HDFS's standard behaviour).
    pub fn fail_node(&mut self, node: usize) -> Result<(), HdfsError> {
        let node = self.check_node(node)?;
        self.failed[node] = true;
        Ok(())
    }

    /// Chaos injection: datanode `node` serves no I/O issued in `[from,
    /// until)` — a scripted mid-run outage on the simulated clock. Reads
    /// fail over to live replicas and writes skip the node, as for
    /// [`Hdfs::fail_node`]; a snapshot write with no live replica fails.
    pub fn fail_node_during(
        &mut self,
        node: usize,
        from: SimTime,
        until: SimTime,
    ) -> Result<(), HdfsError> {
        self.outages.push((self.check_node(node)?, from, until));
        Ok(())
    }

    /// Bring a failed datanode back.
    pub fn recover_node(&mut self, node: usize) -> Result<(), HdfsError> {
        let node = self.check_node(node)?;
        self.failed[node] = false;
        Ok(())
    }

    /// Whether `node` is currently failed.
    pub fn is_failed(&self, node: usize) -> Result<bool, HdfsError> {
        Ok(self.failed[self.check_node(node)?])
    }
}

impl fmt::Debug for Hdfs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Hdfs({} nodes, {} files, block {} B, r={})",
            self.num_nodes,
            self.files.len(),
            self.config.block_size,
            self.config.replication
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32;

    const MB: u64 = 1024 * 1024;

    fn small_cfg() -> HdfsConfig {
        HdfsConfig {
            block_size: 16 * MB,
            ..HdfsConfig::default()
        }
    }

    #[test]
    fn create_and_metadata() {
        let mut fs = Hdfs::new(4, small_cfg());
        fs.create("a", 40 * MB, vec![1, 2, 3]).unwrap();
        assert!(fs.exists("a"));
        assert_eq!(*fs.data("a").unwrap(), vec![1, 2, 3]);
        assert_eq!(fs.list(), vec!["a".to_string()]);
        assert_eq!(
            fs.create("a", 1, vec![]),
            Err(HdfsError::AlreadyExists("a".into()))
        );
        fs.delete("a").unwrap();
        assert!(!fs.exists("a"));
    }

    #[test]
    fn replicas_spread_across_nodes() {
        let mut fs = Hdfs::new(4, small_cfg());
        fs.create("a", 64 * MB, vec![]).unwrap(); // 4 blocks
                                                  // Block 0 primary on node 0 with replicas 0,1,2; block 1 on 1,2,3...
        assert!(fs.is_local(0, "a", 0, MB).unwrap());
        assert!(fs.is_local(1, "a", 0, MB).unwrap());
        assert!(!fs.is_local(3, "a", 0, MB).unwrap());
        // A whole-file read is not fully local to any single node here.
        assert!(!fs.is_local(0, "a", 0, 64 * MB).unwrap());
    }

    #[test]
    fn local_read_beats_remote_read() {
        // Each read on a fresh namespace: idle disks on both sides.
        let read = |node| {
            let mut fs = Hdfs::new(8, small_cfg());
            fs.create("a", 8 * MB, vec![]).unwrap(); // 1 block on nodes 0,1,2
            fs.read(node, "a", 0, 8 * MB, SimTime::ZERO).unwrap()
        };
        let (local, remote) = (read(0), read(7));
        assert!(remote.duration() > local.duration());
        assert_eq!(local.remote_bytes, 0);
        assert_eq!(remote.local_bytes, 0);
        assert_eq!(remote.remote_bytes, 8 * MB);
    }

    #[test]
    fn read_time_linear_in_bytes() {
        let read = |bytes| {
            let mut fs = Hdfs::new(4, small_cfg());
            fs.create("a", 32 * MB, vec![]).unwrap();
            fs.read(0, "a", 0, bytes, SimTime::ZERO).unwrap()
        };
        let (small, large) = (read(MB), read(8 * MB));
        assert!(large.duration() > small.duration() * 4);
    }

    #[test]
    fn concurrent_readers_contend_on_one_disk() {
        let mut fs = Hdfs::new(1, small_cfg()); // single datanode
        fs.create("a", 4 * MB, vec![]).unwrap();
        let r1 = fs.read(0, "a", 0, 4 * MB, SimTime::ZERO).unwrap();
        let r2 = fs.read(0, "a", 0, 4 * MB, SimTime::ZERO).unwrap();
        // Second reader starts after the first finishes with the disk.
        assert!(r2.end >= r1.end + r1.duration().saturating_sub(SimTime::from_millis(5)));
    }

    #[test]
    fn out_of_range_read_rejected() {
        let mut fs = Hdfs::new(2, small_cfg());
        fs.create("a", MB, vec![]).unwrap();
        let err = fs.read(0, "a", MB - 10, 100, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, HdfsError::OutOfRange { .. }));
        assert_eq!(
            fs.read(5, "a", 0, 1, SimTime::ZERO),
            Err(HdfsError::BadNode(5))
        );
    }

    /// A range whose end passes `u64::MAX` is out of range, named after
    /// its file, through both entry points; it neither overflows nor
    /// wraps into a small range that reads nothing.
    #[test]
    fn ranges_past_u64_max_are_out_of_range() {
        let mut fs = Hdfs::new(2, small_cfg());
        fs.create("a", MB, vec![]).unwrap();
        let out = Err(HdfsError::OutOfRange {
            file: "a".into(),
            size: MB,
        });
        for (offset, len) in [(u64::MAX, 1), (u64::MAX - 10, 100), (1, u64::MAX)] {
            assert_eq!(fs.read(0, "a", offset, len, SimTime::ZERO).map(|_| ()), out);
            assert_eq!(fs.is_local(0, "a", offset, len).map(|_| ()), out);
        }
        assert_eq!(fs.is_local(0, "a", MB - 10, 100).map(|_| ()), out);
        // An empty range reads nothing wherever it starts.
        let g = fs.read(0, "a", u64::MAX, 0, SimTime::ZERO).unwrap();
        assert_eq!(g.duration(), SimTime::ZERO);
        assert!(fs.is_local(1, "a", u64::MAX, 0).unwrap());
    }

    #[test]
    fn datanode_controls_refuse_unknown_nodes() {
        let mut fs = Hdfs::new(3, small_cfg());
        let bad = Err(HdfsError::BadNode(3));
        assert_eq!(fs.fail_node(3), bad);
        assert_eq!(fs.recover_node(3), bad);
        assert_eq!(fs.is_failed(3).map(|_| ()), bad);
        let (from, until) = (SimTime::ZERO, SimTime::from_millis(1));
        assert_eq!(
            fs.fail_node_during(usize::MAX, from, until),
            Err(HdfsError::BadNode(usize::MAX))
        );
        // Nothing changed: every datanode serves, and a snapshot lands.
        assert!((0..3).all(|n| fs.is_failed(n) == Ok(false)));
        fs.snapshot_at(0, "s", vec![1], SimTime::ZERO).unwrap();
    }

    #[test]
    fn failed_node_reads_fail_over_to_replicas() {
        let mut fs = Hdfs::new(4, small_cfg());
        fs.create("a", 8 * MB, vec![]).unwrap(); // block on nodes 0,1,2
                                                 // Node 0 dies: a reader on node 0 still succeeds, remotely.
        fs.fail_node(0).unwrap();
        let g = fs.read(0, "a", 0, 8 * MB, SimTime::ZERO).unwrap();
        assert_eq!(g.local_bytes, 0);
        assert_eq!(g.remote_bytes, 8 * MB);
        // All replicas dead: the block is lost.
        fs.fail_node(1).unwrap();
        fs.fail_node(2).unwrap();
        let err = fs.read(3, "a", 0, 8 * MB, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, HdfsError::BlockLost { .. }));
        // Recovery restores service.
        fs.recover_node(1).unwrap();
        assert!(fs.read(3, "a", 0, 8 * MB, SimTime::ZERO).is_ok());
        assert!(fs.is_failed(0).unwrap());
    }

    #[test]
    fn writes_skip_failed_datanodes() {
        let mut fs = Hdfs::new(4, small_cfg());
        fs.fail_node(1).unwrap();
        // One block, replicas {0,1,2}: node 1 is down, so only two live
        // copies are written (and charged).
        let g = fs.write(0, "out", 16 * MB, vec![], SimTime::ZERO).unwrap();
        assert_eq!(g.local_bytes + g.remote_bytes, 32 * MB);
    }

    #[test]
    fn write_replicates() {
        let mut fs = Hdfs::new(4, small_cfg());
        let g = fs.write(0, "out", 16 * MB, vec![9], SimTime::ZERO).unwrap();
        assert!(fs.exists("out"));
        // One block, 3 replicas: one local, two remote.
        assert_eq!(g.local_bytes, 16 * MB);
        assert_eq!(g.remote_bytes, 32 * MB);
        assert!(g.duration() > SimTime::ZERO);
    }

    #[test]
    fn create_at_ignores_global_cursor() {
        let mut fs = Hdfs::new(4, small_cfg());
        // Advance the global cursor by two blocks.
        fs.create("noise", 32 * MB, vec![]).unwrap();
        // A placed create starting at 0 lands exactly where a fresh
        // filesystem would put it.
        let placed = fs.create_at("a", 32 * MB, vec![], 0).unwrap();
        assert_eq!(placed, 2);
        let mut fresh = Hdfs::new(4, small_cfg());
        fresh.create("a", 32 * MB, vec![]).unwrap();
        for node in 0..4 {
            for block in 0..2u64 {
                assert_eq!(
                    fs.is_local(node, "a", block * 16 * MB, MB).unwrap(),
                    fresh.is_local(node, "a", block * 16 * MB, MB).unwrap()
                );
            }
        }
        // The placed create did not advance the global cursor: the next
        // global create starts at block 2.
        fs.create("b", 16 * MB, vec![]).unwrap();
        assert!(fs.is_local(2, "b", 0, MB).unwrap());
    }

    #[test]
    fn snapshot_roundtrip_with_manifest() {
        let mut fs = Hdfs::new(4, small_cfg());
        let payload: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        let w = fs
            .snapshot_at(0, "ckpt/job/op0", payload.clone(), SimTime::ZERO)
            .unwrap();
        assert!(w.duration() > SimTime::ZERO, "snapshot writes are charged");
        let m = *fs.manifest("ckpt/job/op0").unwrap();
        assert_eq!(m.len, 1024);
        assert_eq!(m.epoch, 1);
        assert_eq!(m.crc, crc32(&payload));
        assert_eq!(m.taken_at, w.end);
        let (data, r) = fs.restore(1, "ckpt/job/op0", w.end).unwrap();
        assert_eq!(*data, payload);
        assert!(r.end > w.end, "restore reads are charged");
    }

    #[test]
    fn snapshot_overwrites_bump_the_epoch() {
        let mut fs = Hdfs::new(2, small_cfg());
        fs.snapshot_at(0, "s", vec![1, 2, 3], SimTime::ZERO)
            .unwrap();
        fs.snapshot_at(0, "s", vec![4, 5], SimTime::ZERO).unwrap();
        let m = fs.manifest("s").unwrap();
        assert_eq!(m.epoch, 2);
        assert_eq!(m.len, 2);
        let (data, _) = fs.restore(0, "s", SimTime::ZERO).unwrap();
        assert_eq!(*data, vec![4, 5]);
        // Deleting drops the manifest; a fresh snapshot restarts epochs.
        fs.delete("s").unwrap();
        assert!(fs.manifest("s").is_none());
        fs.snapshot_at(0, "s", vec![9], SimTime::ZERO).unwrap();
        assert_eq!(fs.manifest("s").unwrap().epoch, 1);
    }

    #[test]
    fn restore_rejects_rot_and_plain_files() {
        let mut fs = Hdfs::new(2, small_cfg());
        fs.snapshot_at(0, "s", vec![7; 64], SimTime::ZERO).unwrap();
        fs.rot("s").unwrap();
        assert_eq!(
            fs.restore(0, "s", SimTime::ZERO).unwrap_err(),
            HdfsError::Corrupt { file: "s".into() }
        );
        fs.create("plain", 16, vec![0; 16]).unwrap();
        assert_eq!(
            fs.restore(0, "plain", SimTime::ZERO).unwrap_err(),
            HdfsError::NoManifest {
                file: "plain".into()
            }
        );
        assert_eq!(
            fs.restore(0, "ghost", SimTime::ZERO).unwrap_err(),
            HdfsError::NotFound("ghost".into())
        );
    }

    #[test]
    fn snapshot_writes_fail_only_inside_a_full_outage() {
        let mut fs = Hdfs::new(2, small_cfg()); // replication 2: both nodes
        let ms = SimTime::from_millis;
        fs.snapshot_at(0, "s", vec![1], ms(1)).unwrap();
        fs.fail_node_during(0, ms(10), ms(20)).unwrap();
        // One replica down: the pipeline writes the survivor.
        fs.snapshot_at(0, "s", vec![2], ms(10)).unwrap();
        fs.fail_node_during(1, ms(10), ms(20)).unwrap();
        assert_eq!(
            fs.snapshot_at(0, "s", vec![3], ms(15)),
            Err(HdfsError::BlockLost { file: "s".into() })
        );
        // The failed write left the last epoch intact and readable.
        assert_eq!(fs.manifest("s").unwrap().epoch, 2);
        assert_eq!(*fs.restore(0, "s", ms(30)).unwrap().0, vec![2]);
        fs.snapshot_at(0, "s", vec![4], ms(20)).unwrap();
        assert_eq!(fs.manifest("s").unwrap().epoch, 3);
    }

    #[test]
    fn rename_moves_the_manifest_and_keeps_the_epoch_sequence() {
        let mut fs = Hdfs::new(2, small_cfg());
        fs.snapshot_at(0, "s", vec![1, 2], SimTime::ZERO).unwrap();
        fs.snapshot_at(0, "s", vec![3], SimTime::ZERO).unwrap();
        fs.rename("s", "s.2").unwrap();
        assert!(!fs.exists("s") && fs.manifest("s").is_none());
        assert_eq!(fs.manifest("s.2").unwrap().epoch, 2);
        assert_eq!(*fs.restore(0, "s.2", SimTime::ZERO).unwrap().0, vec![3]);
        // The next snapshot under the old name continues its sequence.
        fs.snapshot_at(0, "s", vec![4], SimTime::ZERO).unwrap();
        assert_eq!(fs.manifest("s").unwrap().epoch, 3);
        assert_eq!(
            fs.rename("s", "s.2"),
            Err(HdfsError::AlreadyExists("s.2".into()))
        );
        assert_eq!(
            fs.rename("ghost", "g"),
            Err(HdfsError::NotFound("ghost".into()))
        );
    }

    /// `len` scrambled bytes, different for each `seed`.
    fn bytes(seed: u32, len: u32) -> Vec<u8> {
        (0..len)
            .map(|i| ((i ^ seed).wrapping_mul(0x9E37_79B1) >> 24) as u8)
            .collect()
    }

    fn piece(data: &[u8]) -> Piece {
        Arc::new(data.to_vec())
    }

    /// The CRC folded over pieces equals the one-shot CRC of the joined
    /// bytes at every split into two pieces and into three (the middle
    /// one shorter than a 16-byte lane), and a manifest matches either.
    #[test]
    fn piecewise_crc_equals_the_one_shot_crc_at_every_split() {
        let buf = bytes(7, 700);
        let whole = crc32(&buf);
        for at in 0..=buf.len() {
            let (a, b) = buf.split_at(at);
            let two = Pieces::from(vec![piece(a), piece(b)]);
            assert_eq!(two.crc32(), whole, "split at {at}");
            assert_eq!(two.to_vec(), buf);
            for short in 0..16.min(b.len()) {
                let (m, c) = b.split_at(short);
                let three = Pieces::from(vec![piece(a), piece(m), piece(c)]);
                assert_eq!(three.crc32(), whole, "split at {at} + {short}");
            }
        }
        let m = SnapshotManifest {
            crc: whole,
            len: buf.len() as u64,
            taken_at: SimTime::ZERO,
            epoch: 1,
        };
        assert!(m.matches(&Pieces::from(buf.clone())));
        assert!(m.matches(&Pieces::from(vec![piece(&buf[..300]), piece(&buf[300..])])));
        assert!(!m.matches(&Pieces::from(buf[1..].to_vec())));
        assert_eq!(Pieces::default().crc32(), 0);
    }

    /// A snapshot stores its pieces shared, not copied, and rot or tamper
    /// rewrite a copy: the writer's buffer stays byte-identical while the
    /// restore refuses the file.
    #[test]
    fn tampering_a_snapshot_never_touches_a_shared_piece() {
        let mut fs = Hdfs::new(2, small_cfg());
        let shared = Arc::new(bytes(3, 4096));
        let pieces = vec![piece(b"head"), Arc::clone(&shared) as Piece, piece(b"tail")];
        fs.snapshot_at(0, "s", Pieces::from(pieces), SimTime::ZERO)
            .unwrap();
        assert_eq!(Arc::strong_count(&shared), 2, "stored by reference");
        let want = shared.to_vec();
        let joined = [b"head".as_slice(), &want, b"tail"].concat();
        assert_eq!(fs.manifest("s").unwrap().crc, crc32(&joined));
        assert_eq!(fs.restore(0, "s", SimTime::ZERO).unwrap().0, joined);
        fs.tamper("s", |data| data.iter_mut().for_each(|b| *b ^= 0xFF))
            .unwrap();
        assert_eq!(*shared, want);
        assert_eq!(
            fs.restore(0, "s", SimTime::ZERO).unwrap_err(),
            HdfsError::Corrupt { file: "s".into() }
        );
        fs.snapshot_at(
            0,
            "s",
            Pieces::from(vec![Arc::clone(&shared) as Piece]),
            SimTime::ZERO,
        )
        .unwrap();
        fs.rot("s").unwrap();
        assert_eq!(*shared, want);
        assert!(fs.restore(0, "s", SimTime::ZERO).is_err());
    }

    #[test]
    fn zero_length_file_readable() {
        let mut fs = Hdfs::new(2, small_cfg());
        fs.create("empty", 0, vec![]).unwrap();
        let g = fs.read(0, "empty", 0, 0, SimTime::ZERO).unwrap();
        assert_eq!(g.duration(), SimTime::ZERO);
    }

    #[test]
    fn replication_capped_by_cluster_size() {
        let mut fs = Hdfs::new(2, small_cfg()); // replication 3 > 2 nodes
        fs.create("a", MB, vec![]).unwrap();
        assert!(fs.is_local(0, "a", 0, MB).unwrap());
        assert!(fs.is_local(1, "a", 0, MB).unwrap());
    }
}
