//! `GWork`: the unit of GPU work.
//!
//! Algorithm 3.1 of the paper shows the user assembling a `GWork` inside a
//! GPU-based mapper: set the PTX path and `executeName`, the input/output
//! buffers, launch geometry (`blockSize`/`gridSize`), and cache flags, then
//! submit it to the GStreamManager. [`GWork`] is that descriptor; the
//! GStreamManager consumes it and returns a [`CompletedWork`] carrying the
//! output buffer and the per-stage [`WorkTiming`].

use gflink_gpu::KernelId;
use gflink_memory::HBuffer;
use gflink_sim::SimTime;
use std::sync::Arc;

/// Identity of a cacheable block: the paper keys the GPU cache hash table
/// by partition ID and block ID (§4.2.2); the dataset id scopes keys across
/// datasets sharing the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Identity of the (G)DataSet the block belongs to.
    pub dataset: u64,
    /// Partition index.
    pub partition: u32,
    /// Block index within the partition.
    pub block: u32,
}

/// One input buffer of a `GWork`.
#[derive(Clone)]
pub struct WorkBuf {
    /// Host-side bytes (off-heap direct buffer).
    pub data: Arc<HBuffer>,
    /// Size at paper scale, used for transfer timing and cache accounting.
    pub logical_bytes: u64,
    /// `Some` ⇒ the buffer is marked `Cache` (§4.2.2) under this key.
    pub cache_key: Option<CacheKey>,
}

impl WorkBuf {
    /// A transient (uncached) input.
    pub fn transient(data: Arc<HBuffer>, logical_bytes: u64) -> Self {
        WorkBuf {
            data,
            logical_bytes,
            cache_key: None,
        }
    }

    /// A cacheable input under `key`.
    pub fn cached(data: Arc<HBuffer>, logical_bytes: u64, key: CacheKey) -> Self {
        WorkBuf {
            data,
            logical_bytes,
            cache_key: Some(key),
        }
    }
}

/// A unit of GPU work (the paper's `GWork`).
///
/// The per-block producer clones one of these per block, so every field a
/// spec shares across blocks is reference-counted (`Arc<str>` names,
/// `Arc<[f64]>` params, an interned [`KernelId`]) — cloning a `GWork` in
/// steady state allocates only the `inputs` vector.
#[derive(Clone)]
pub struct GWork {
    /// Human-readable name for reports (e.g. `"kmeans-assign"`). Shared
    /// across the blocks of an operator.
    pub name: Arc<str>,
    /// Kernel name resolved against the registry (the paper's
    /// `executeName`, e.g. `"cudaAddPoint"`).
    pub execute_name: Arc<str>,
    /// Interned dispatch id for `execute_name`. `KernelId::UNRESOLVED`
    /// works are interned once at submission; spec-built works arrive
    /// pre-resolved.
    pub kernel: KernelId,
    /// Cosmetic provenance, mirroring `sWork.ptxPath` in Algorithm 3.1.
    pub ptx_path: Arc<str>,
    /// CUDA launch geometry (informational; the cost model works from the
    /// kernel's reported profile).
    pub block_size: u32,
    /// CUDA grid size.
    pub grid_size: u32,
    /// Input buffers, in the order the kernel expects.
    pub inputs: Vec<WorkBuf>,
    /// Actual byte size of the output buffer.
    pub out_actual_bytes: usize,
    /// Logical byte size of the output at full capacity (D2H timing; scaled
    /// down when the kernel emits fewer records).
    pub out_logical_bytes: u64,
    /// Output capacity in records (denominator for `emitted` scaling).
    pub out_records: usize,
    /// Scalar kernel parameters. Shared across the blocks of an operator.
    pub params: Arc<[f64]>,
    /// Actual elements in the input block.
    pub n_actual: usize,
    /// Logical elements the block represents.
    pub n_logical: u64,
    /// Memory-coalescing factor from the block's data layout (§2.1).
    pub coalescing: f64,
    /// Caller tag: (partition, block) for reassembly.
    pub tag: (u32, u32),
}

impl GWork {
    /// Total logical input bytes (what must be resident on the device).
    pub fn input_logical_bytes(&self) -> u64 {
        self.inputs.iter().map(|b| b.logical_bytes).sum()
    }
}

impl std::fmt::Debug for GWork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GWork({} -> {}, tag {:?}, {} inputs, {} logical elems)",
            self.name,
            self.execute_name,
            self.tag,
            self.inputs.len(),
            self.n_logical
        )
    }
}

/// Recycled [`GWork::inputs`] lists of one worker: the GDST producer takes
/// a list per block and the host and flight completions give it back, so a
/// work's input list costs no allocation in steady state.
#[derive(Default)]
pub(crate) struct InputLists(Vec<Vec<WorkBuf>>);

impl InputLists {
    /// Lists the pool keeps at most. A worker of pointadd-hybrid holds
    /// ≈ 98 blocks per pass, so all of its lists come back; a larger pass
    /// (kmeans-iter holds ≈ 1,145 blocks per worker) frees the rest, so
    /// that lists idle between passes do not raise the peak resident set,
    /// and works built elsewhere (`vec![…]` in a caller) never grow it.
    const MAX: usize = 256;

    /// An empty input list, recycled when one is free; a new one has room
    /// for a block and a broadcast input.
    pub(crate) fn take(&mut self) -> Vec<WorkBuf> {
        self.0.pop().unwrap_or_else(|| Vec::with_capacity(2))
    }

    /// Give back a finished work's input list, dropping its buffers.
    pub(crate) fn give(&mut self, mut inputs: Vec<WorkBuf>) {
        if self.0.len() < Self::MAX && inputs.capacity() > 0 {
            inputs.clear();
            self.0.push(inputs);
        }
    }
}

/// Per-stage timing of one executed `GWork`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkTiming {
    /// When the work was submitted to the GStreamManager.
    pub submitted: SimTime,
    /// When a stream picked it up.
    pub started: SimTime,
    /// Host-to-device transfer time (zero on a full cache hit).
    pub h2d: SimTime,
    /// Kernel execution time.
    pub kernel: SimTime,
    /// Device-to-host transfer time.
    pub d2h: SimTime,
    /// Completion instant.
    pub completed: SimTime,
    /// Cache hits among the inputs.
    pub cache_hits: u32,
    /// Cache misses among cacheable inputs.
    pub cache_misses: u32,
    /// Logical bytes actually copied host→device (zero on full cache hit).
    pub bytes_h2d: u64,
    /// Logical bytes copied device→host.
    pub bytes_d2h: u64,
}

impl WorkTiming {
    /// Total time on the GPU fabric (queueing included).
    pub fn total(&self) -> SimTime {
        self.completed - self.submitted
    }

    /// Time spent queued before a stream picked the work up.
    pub fn queued(&self) -> SimTime {
        self.started - self.submitted
    }
}

/// A finished `GWork`: the output buffer plus where/when it ran.
pub struct CompletedWork {
    /// The originating work's name (shared, not cloned per completion).
    pub name: Arc<str>,
    /// The originating work's tag (partition, block).
    pub tag: (u32, u32),
    /// GPU index (within the worker) that executed it.
    pub gpu: usize,
    /// Stream index (within the GPU bulk) that carried it.
    pub stream: usize,
    /// Output buffer with real results. A small one (at most
    /// [`gflink_memory::hbuffer::RECYCLE_MAX_LEN`] bytes) goes back to its
    /// allocating thread's free list when dropped there, for the next
    /// output of that size.
    pub output: HBuffer,
    /// Valid output records when the kernel declared a data-dependent
    /// count; `None` means full capacity.
    pub emitted: Option<usize>,
    /// Per-stage timing.
    pub timing: WorkTiming,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u32) -> CacheKey {
        CacheKey {
            dataset: 1,
            partition: 0,
            block: b,
        }
    }

    fn buf(_bytes: u64) -> Arc<HBuffer> {
        Arc::new(HBuffer::zeroed(16))
    }

    fn work(inputs: Vec<WorkBuf>) -> GWork {
        GWork {
            name: "w".into(),
            execute_name: "k".into(),
            kernel: KernelId::UNRESOLVED,
            ptx_path: "/k.ptx".into(),
            block_size: 256,
            grid_size: 1,
            inputs,
            out_actual_bytes: 16,
            out_logical_bytes: 1024,
            out_records: 4,
            params: Arc::from([]),
            n_actual: 4,
            n_logical: 4000,
            coalescing: 1.0,
            tag: (0, 0),
        }
    }

    #[test]
    fn byte_accounting() {
        let w = work(vec![
            WorkBuf::cached(buf(0), 1000, key(0)),
            WorkBuf::transient(buf(0), 500),
        ]);
        assert_eq!(w.input_logical_bytes(), 1500);
    }

    #[test]
    fn timing_derived_quantities() {
        let t = WorkTiming {
            submitted: SimTime::from_micros(10),
            started: SimTime::from_micros(25),
            completed: SimTime::from_micros(100),
            ..WorkTiming::default()
        };
        assert_eq!(t.queued(), SimTime::from_micros(15));
        assert_eq!(t.total(), SimTime::from_micros(90));
    }
}
