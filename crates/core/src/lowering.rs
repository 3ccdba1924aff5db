//! The GPU-operator lowering: what a user assembles in `gpuMapBlock`
//! (Algorithm 3.1) — a [`GpuMapSpec`] naming the kernel, its parameters,
//! an optional broadcast input and the output's [`OutMode`] — and how one
//! block of input becomes the [`GWork`] that maps it.
//!
//! Every GPU operator lowers through here: a GDST block
//! ([`GDataSet::gpu_map_partition`](crate::gdst::GDataSet::gpu_map_partition)),
//! a stream micro-batch and a fired window each become a work through
//! `GpuMapSpec::work`, and their output rows — executed or restored from
//! a snapshot — are counted by one rule, [`OutMode::rows`].

use crate::gdst::{GRecord, GpuFabric};
use crate::gwork::{CacheKey, GWork, WorkBuf};
use gflink_gpu::KernelId;
use gflink_memory::{DataLayout, HBuffer, RecordView};
use std::sync::Arc;

/// Output shape of a GPU map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutMode {
    /// One output record per input record (classic map, e.g. PointAdd).
    PerRecord,
    /// A fixed number of output records per block (block-level aggregation,
    /// e.g. KMeans partial sums: k records per block).
    PerBlock(usize),
    /// Up to `per_record` output records per input record; the kernel
    /// declares the valid count via `KernelProfile::with_emitted` (used by
    /// block-level combining with data-dependent cardinality, e.g. the
    /// PageRank contribution aggregation).
    Bounded {
        /// Maximum output records per input record.
        per_record: usize,
    },
}

impl OutMode {
    /// Output records of a block of `rows` input records: the rows its
    /// output is sized for. Fed the block's logical record count, its
    /// logical output records.
    pub(crate) fn out_rows(self, rows: usize) -> usize {
        match self {
            OutMode::PerRecord => rows,
            OutMode::PerBlock(n) => n,
            OutMode::Bounded { per_record } => rows.saturating_mul(per_record),
        }
    }

    /// The output-row rule: the valid rows of an output of `capacity` rows
    /// whose kernel declared `emitted` (`KernelProfile::with_emitted`) —
    /// the declared count, or the whole capacity when the mode needs none.
    /// `None` when the two disagree: a count past the capacity, or a
    /// `Bounded` output without one. Executed outputs, restored snapshot
    /// blocks and stream batches are all counted by this rule.
    pub fn rows(self, emitted: Option<usize>, capacity: usize) -> Option<usize> {
        let rows = match self {
            OutMode::Bounded { .. } => emitted?,
            OutMode::PerRecord | OutMode::PerBlock(_) => emitted.unwrap_or(capacity),
        };
        (rows <= capacity).then_some(rows)
    }

    /// The output's logical elements per actual one when the spec sets no
    /// scale: the input's `scale`, except per-block outputs, which are
    /// not scaled.
    pub(crate) fn inherited_scale(self, scale: f64) -> f64 {
        match self {
            OutMode::PerBlock(_) => 1.0,
            OutMode::PerRecord | OutMode::Bounded { .. } => scale,
        }
    }
}

/// What a live output whose kernel broke the output-row rule panics with.
pub(crate) const EMITTED_FITS: &str =
    "a kernel declares at most its output's rows, and a Bounded kernel declares them";

/// An extra input buffer shared by all blocks of a GPU map (broadcast
/// state like KMeans centers, or SpMV's dense vector).
#[derive(Clone)]
pub struct ExtraInput {
    /// The host bytes.
    pub data: Arc<HBuffer>,
    /// Paper-scale size for transfer timing.
    pub logical_bytes: u64,
    /// `Some(token)` caches the buffer on the GPU under that token (used by
    /// SpMV to keep the dense vector resident, Fig. 8a); `None` re-transfers
    /// it every map (used for per-iteration state like KMeans centers).
    pub cache_token: Option<u64>,
}

/// Specification of a GPU-based mapper (what the user assembles in their
/// `gpuMapBlock` implementation, Algorithm 3.1).
#[derive(Clone)]
pub struct GpuMapSpec {
    /// Kernel `executeName` in the fabric registry. Shared (`Arc`) so the
    /// per-block producer clones a pointer, not a string.
    pub kernel: Arc<str>,
    /// Interned dispatch id for `kernel`, set by [`GpuMapSpec::build`];
    /// `KernelId::UNRESOLVED` until then.
    pub kernel_id: KernelId,
    /// Cosmetic `.ptx` provenance.
    pub ptx_path: Arc<str>,
    /// Scalar kernel parameters, shared across blocks.
    pub params: Arc<[f64]>,
    /// Mark the input blocks `Cache` (§4.2.2) — essential for iterative
    /// workloads.
    pub cache_input: bool,
    /// Output shape.
    pub out_mode: OutMode,
    /// Logical elements per actual output element (`None` ⇒ inherit the
    /// input's scale for `PerRecord`, `1.0` for `PerBlock`).
    pub out_scale: Option<f64>,
    /// Optional extra input shared by all blocks — broadcast state such as
    /// the current KMeans centers or SpMV's dense vector.
    pub extra_input: Option<ExtraInput>,
    /// CUDA thread-block size (informational).
    pub block_size: u32,
}

impl GpuMapSpec {
    /// A spec with defaults: cached input, per-record output, 256 threads.
    pub fn new(kernel: &str) -> Self {
        GpuMapSpec {
            kernel: kernel.into(),
            kernel_id: KernelId::UNRESOLVED,
            ptx_path: format!("/{kernel}.ptx").into(),
            params: Arc::from([]),
            cache_input: true,
            out_mode: OutMode::PerRecord,
            out_scale: None,
            extra_input: None,
            block_size: 256,
        }
    }

    /// Set scalar parameters.
    pub fn with_params(mut self, params: Vec<f64>) -> Self {
        self.params = params.into();
        self
    }

    /// Set the output mode.
    pub fn with_out_mode(mut self, mode: OutMode) -> Self {
        self.out_mode = mode;
        self
    }

    /// Set the output scale.
    pub fn with_out_scale(mut self, scale: f64) -> Self {
        self.out_scale = Some(scale);
        self
    }

    /// Disable input caching.
    pub fn uncached(mut self) -> Self {
        self.cache_input = false;
        self
    }

    /// Attach a broadcast-style extra input, re-transferred on every map.
    pub fn with_extra_input(mut self, buf: Arc<HBuffer>, logical_bytes: u64) -> Self {
        self.extra_input = Some(ExtraInput {
            data: buf,
            logical_bytes,
            cache_token: None,
        });
        self
    }

    /// Attach an extra input cached on the GPU under `token` (obtain one
    /// from [`GpuFabric::new_cache_token`](crate::gdst::GpuFabric::new_cache_token)).
    pub fn with_cached_extra_input(
        mut self,
        buf: Arc<HBuffer>,
        logical_bytes: u64,
        token: u64,
    ) -> Self {
        self.extra_input = Some(ExtraInput {
            data: buf,
            logical_bytes,
            cache_token: Some(token),
        });
        self
    }

    /// Validate the spec against `fabric` *before* any work is submitted:
    /// the kernel must be registered (otherwise every block would fail deep
    /// inside dispatch with `KernelMissing` and burn its whole retry
    /// budget), and an attached extra input must carry non-degenerate byte
    /// accounting (zero logical or actual bytes silently models an empty
    /// transfer). On success, returns the spec with the kernel name
    /// interned to its dispatch [`KernelId`] — blocks built from the spec
    /// never hash the `executeName` again.
    pub fn build(mut self, fabric: &GpuFabric) -> Result<GpuMapSpec, SpecError> {
        match fabric.registry.lock().resolve(&self.kernel) {
            Some(id) => self.kernel_id = id,
            None => {
                return Err(SpecError::UnregisteredKernel {
                    name: self.kernel.to_string(),
                })
            }
        }
        if let Some(extra) = &self.extra_input {
            if extra.data.is_empty() || extra.logical_bytes == 0 {
                return Err(SpecError::DegenerateExtraInput {
                    actual_bytes: extra.data.len(),
                    logical_bytes: extra.logical_bytes,
                });
            }
        }
        Ok(self)
    }

    /// The spec with fresh copies of its shared values (kernel name, ptx
    /// path, params and the extra input's bytes), so a worker thread's
    /// works share reference counts with no other thread's.
    pub(crate) fn unshared(&self) -> GpuMapSpec {
        GpuMapSpec {
            kernel: Arc::from(&*self.kernel),
            ptx_path: Arc::from(&*self.ptx_path),
            params: Arc::from(&*self.params),
            extra_input: self.extra_input.as_ref().map(|extra| ExtraInput {
                data: Arc::new(HBuffer::clone(&extra.data)),
                ..extra.clone()
            }),
            ..self.clone()
        }
    }

    /// Lower one block into the [`GWork`] that maps it: `rows` records of
    /// `T` in `layout` (`n_logical` at paper scale), mapped to `U` records.
    /// `inputs` holds the block's input buffer alone — in a list recycled
    /// through its manager's `InputLists` where the caller has one — and
    /// the spec's extra input is appended.
    /// The output is sized by the spec's [`OutMode`], and the launch
    /// geometry and coalescing follow from the block. GDST blocks, stream
    /// micro-batches and fired windows are all lowered here.
    pub(crate) fn work<T: GRecord, U: GRecord>(
        &self,
        name: Arc<str>,
        mut inputs: Vec<WorkBuf>,
        layout: DataLayout,
        rows: usize,
        n_logical: u64,
        tag: (u32, u32),
    ) -> GWork {
        let out_def = U::def();
        debug_assert_eq!(inputs.len(), 1, "a block lowers with its input alone");
        if let Some(extra) = &self.extra_input {
            let data = Arc::clone(&extra.data);
            inputs.push(match extra.cache_token {
                Some(dataset) => {
                    let key = CacheKey {
                        dataset,
                        partition: u32::MAX,
                        block: 0,
                    };
                    WorkBuf::cached(data, extra.logical_bytes, key)
                }
                None => WorkBuf::transient(data, extra.logical_bytes),
            });
        }
        let out_rows = self.out_mode.out_rows(rows);
        let out_logical = self.out_mode.out_rows(n_logical as usize) as u64;
        GWork {
            name,
            execute_name: Arc::clone(&self.kernel),
            kernel: self.kernel_id,
            ptx_path: Arc::clone(&self.ptx_path),
            block_size: self.block_size,
            grid_size: u32::try_from(n_logical)
                .unwrap_or(u32::MAX)
                .div_ceil(self.block_size.max(1)),
            inputs,
            out_actual_bytes: RecordView::required_bytes(out_def, DataLayout::Aos, out_rows),
            out_logical_bytes: out_logical.saturating_mul(out_def.size() as u64),
            out_records: out_rows,
            params: Arc::clone(&self.params),
            n_actual: rows,
            n_logical,
            coalescing: layout.coalescing_all_fields(T::def()),
            tag,
        }
    }
}

/// Why [`GpuMapSpec::build`] rejected a spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The kernel name is not registered in the fabric's registry.
    UnregisteredKernel {
        /// The missing `executeName`.
        name: String,
    },
    /// The extra input's byte accounting is degenerate (empty host buffer
    /// or zero logical bytes).
    DegenerateExtraInput {
        /// Host bytes actually held.
        actual_bytes: usize,
        /// Logical bytes declared for transfer timing.
        logical_bytes: u64,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnregisteredKernel { name } => {
                write!(f, "kernel {name:?} is not registered in the fabric")
            }
            SpecError::DegenerateExtraInput {
                actual_bytes,
                logical_bytes,
            } => write!(
                f,
                "extra input byte accounting is degenerate \
                 ({actual_bytes} actual / {logical_bytes} logical bytes)"
            ),
        }
    }
}

impl std::error::Error for SpecError {}
