//! Kernel registry.
//!
//! In the paper, users provide CUDA kernels compiled to `.ptx` files and
//! reference them from `GWork` by path and `executeName` (§3.5.3,
//! Algorithm 3.1: `sWork.ptxPath = "/addPoint.ptx"; sWork.executeName =
//! "cudaAddPoint"`). The `GPUManager` resolves the function by name and
//! launches it.
//!
//! Here kernels are Rust closures registered by name. They execute for real
//! over device-resident buffers and return a [`KernelProfile`] describing
//! the *logical* work performed (flops, memory traffic, coalescing factor),
//! which the device's roofline model converts to simulated time.

use gflink_memory::HBuffer;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Work metrics a kernel reports after executing, at *logical* scale.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelProfile {
    /// Floating-point (or equivalent integer) operations performed.
    pub flops: f64,
    /// Device-memory bytes moved (reads + writes).
    pub bytes: f64,
    /// Memory-coalescing efficiency in `(0, 1]` — derived from the data
    /// layout (see `gflink_memory::DataLayout`).
    pub coalescing: f64,
    /// For kernels with data-dependent output cardinality (block-level
    /// aggregation): how many output records are valid. `None` means the
    /// full declared output was produced.
    pub emitted: Option<usize>,
}

impl KernelProfile {
    /// A profile with full coalescing.
    pub fn new(flops: f64, bytes: f64) -> Self {
        KernelProfile {
            flops,
            bytes,
            coalescing: 1.0,
            emitted: None,
        }
    }

    /// Override the coalescing factor.
    pub fn with_coalescing(mut self, c: f64) -> Self {
        assert!(c > 0.0 && c <= 1.0, "coalescing must be in (0,1], got {c}");
        self.coalescing = c;
        self
    }

    /// Declare a data-dependent output record count.
    pub fn with_emitted(mut self, n: usize) -> Self {
        self.emitted = Some(n);
        self
    }
}

/// Arguments handed to a kernel at launch. The buffer lists are borrowed
/// slices — the launch path builds them in reusable scratch, so invoking a
/// kernel allocates nothing (ISSUE 7). `'b` is the buffers' own borrow,
/// `'a` the (possibly shorter) borrow of the lists and params.
pub struct KernelArgs<'a, 'b> {
    /// Device-resident input buffers, in `GWork` declaration order.
    pub inputs: &'a [&'b HBuffer],
    /// Device-resident output buffers.
    pub outputs: &'a mut [&'b mut HBuffer],
    /// Scalar launch parameters (k, dimensions, damping factors, …).
    pub params: &'a [f64],
    /// Number of elements actually materialized in the buffers.
    pub n_actual: usize,
    /// Number of elements at paper scale (drives the cost profile).
    pub n_logical: u64,
}

impl KernelArgs<'_, '_> {
    /// Scale factor between logical and actual element counts.
    pub fn scale(&self) -> f64 {
        if self.n_actual == 0 {
            1.0
        } else {
            self.n_logical as f64 / self.n_actual as f64
        }
    }
}

/// A registered kernel function.
pub type KernelFn = Arc<dyn Fn(&mut KernelArgs<'_, '_>) -> KernelProfile + Send + Sync>;

/// Interned handle for a registered kernel: resolve the `executeName`
/// string once (at spec build / first submission), then dispatch by index.
/// The per-launch path used to hash and compare the `executeName` `String`
/// on every kernel stage; with ids it is an array index (ISSUE 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KernelId(u32);

impl KernelId {
    /// Sentinel for a work whose name has not been interned yet; the
    /// manager resolves it on first submission.
    pub const UNRESOLVED: KernelId = KernelId(u32::MAX);

    /// Whether this id has been interned.
    pub fn is_resolved(self) -> bool {
        self != KernelId::UNRESOLVED
    }

    /// The dense registry index this id was interned at, or `None` for
    /// [`KernelId::UNRESOLVED`]. Lets per-kernel side tables (e.g. the
    /// hybrid cost model's throughput estimators) index by id.
    pub fn index(self) -> Option<usize> {
        self.is_resolved().then_some(self.0 as usize)
    }
}

/// Name → kernel map; the analogue of a directory of loaded `.ptx` modules.
/// Ids are dense indices in registration order and stay stable across
/// re-registration of the same name.
///
/// A clone is a snapshot that costs one reference count: the tables are
/// shared until either side registers, which copies them first. A drain
/// holds such a snapshot instead of the registry's lock.
#[derive(Clone, Default)]
pub struct KernelRegistry {
    tables: Arc<Tables>,
}

#[derive(Clone, Default)]
struct Tables {
    ids: HashMap<String, KernelId>,
    by_id: Vec<(String, KernelFn)>,
    /// Per-kernel element-wise declaration, indexed like `by_id`. Only
    /// kernels registered through [`KernelRegistry::register_elementwise`]
    /// are eligible for hybrid block splitting — shape divisibility alone
    /// cannot distinguish a true map from an operator with a coincidentally
    /// divisible side input.
    elementwise: Vec<bool>,
}

impl KernelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        KernelRegistry::default()
    }

    /// Register `f` under `name`, replacing any previous registration
    /// (the name keeps its [`KernelId`]).
    pub fn register<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&mut KernelArgs<'_, '_>) -> KernelProfile + Send + Sync + 'static,
    {
        let t = Arc::make_mut(&mut self.tables);
        match t.ids.get(name) {
            Some(&id) => {
                t.by_id[id.0 as usize].1 = Arc::new(f);
                // Conservative: a replacement registered without the
                // element-wise declaration loses the eligibility.
                t.elementwise[id.0 as usize] = false;
            }
            None => {
                let id = KernelId(u32::try_from(t.by_id.len()).expect("registry overflow"));
                t.ids.insert(name.to_string(), id);
                t.by_id.push((name.to_string(), Arc::new(f)));
                t.elementwise.push(false);
            }
        }
    }

    /// Register `f` under `name` and declare it **element-wise**: output
    /// record `i` depends only on element `i` of every input buffer — no
    /// shared side inputs (k-means centroids, SpMV row pointers), no
    /// cross-element aggregation (wordcount histograms). Only kernels
    /// registered this way may have their blocks split by the hybrid
    /// cost-model placement; slicing anything else per-element would
    /// silently compute wrong results.
    pub fn register_elementwise<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&mut KernelArgs<'_, '_>) -> KernelProfile + Send + Sync + 'static,
    {
        self.register(name, f);
        let t = Arc::make_mut(&mut self.tables);
        let id = t.ids[name];
        t.elementwise[id.0 as usize] = true;
    }

    /// Whether `id` was declared element-wise at registration (see
    /// [`KernelRegistry::register_elementwise`]).
    pub fn is_elementwise(&self, id: KernelId) -> bool {
        id.index()
            .and_then(|i| self.tables.elementwise.get(i).copied())
            .unwrap_or(false)
    }

    /// Intern a kernel's `executeName`, returning its dispatch id.
    pub fn resolve(&self, name: &str) -> Option<KernelId> {
        self.tables.ids.get(name).copied()
    }

    /// Resolve a kernel by interned id — the per-launch path: an array
    /// index, no hashing, no string compare.
    pub fn get_by_id(&self, id: KernelId) -> Option<&KernelFn> {
        self.tables.by_id.get(id.0 as usize).map(|(_, f)| f)
    }

    /// The `executeName` an id was interned from.
    pub fn name_of(&self, id: KernelId) -> Option<&str> {
        self.tables
            .by_id
            .get(id.0 as usize)
            .map(|(n, _)| n.as_str())
    }

    /// Resolve a kernel by its `executeName`.
    pub fn get(&self, name: &str) -> Option<KernelFn> {
        self.resolve(name)
            .and_then(|id| self.get_by_id(id))
            .cloned()
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.ids.contains_key(name)
    }

    /// Registered kernel names, sorted (for deterministic listings).
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.ids.keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of registered kernels.
    pub fn len(&self) -> usize {
        self.tables.by_id.len()
    }

    /// True when no kernels are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.by_id.is_empty()
    }
}

impl fmt::Debug for KernelRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KernelRegistry({} kernels)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vector_add() -> impl Fn(&mut KernelArgs<'_, '_>) -> KernelProfile + Send + Sync {
        |args: &mut KernelArgs<'_, '_>| {
            let n = args.n_actual;
            let (a, b) = (args.inputs[0], args.inputs[1]);
            let out = &mut args.outputs[0];
            for i in 0..n {
                let s = a.read_f32(i * 4) + b.read_f32(i * 4);
                out.write_f32(i * 4, s);
            }
            KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 12.0)
        }
    }

    #[test]
    fn register_and_execute() {
        let mut reg = KernelRegistry::new();
        reg.register("cudaVecAdd", vector_add());
        assert!(reg.contains("cudaVecAdd"));
        assert_eq!(reg.len(), 1);

        let a = HBuffer::from_f32s(&[1.0, 2.0, 3.0]);
        let b = HBuffer::from_f32s(&[10.0, 20.0, 30.0]);
        let mut out = HBuffer::zeroed(12);
        let k = reg.get("cudaVecAdd").unwrap();
        let profile = k(&mut KernelArgs {
            inputs: &[&a, &b],
            outputs: &mut [&mut out],
            params: &[],
            n_actual: 3,
            n_logical: 3000,
        });
        assert_eq!(out.to_f32_vec(), vec![11.0, 22.0, 33.0]);
        // Profile reports logical-scale work.
        assert_eq!(profile.flops, 3000.0);
        assert_eq!(profile.bytes, 36000.0);
    }

    #[test]
    fn unknown_kernel_is_none() {
        let reg = KernelRegistry::new();
        assert!(reg.get("nope").is_none());
        assert!(reg.resolve("nope").is_none());
        assert!(reg.is_empty());
    }

    #[test]
    fn ids_are_stable_across_reregistration() {
        let mut reg = KernelRegistry::new();
        reg.register("a", |_| KernelProfile::new(1.0, 0.0));
        reg.register("b", |_| KernelProfile::new(2.0, 0.0));
        let a = reg.resolve("a").unwrap();
        let b = reg.resolve("b").unwrap();
        assert_ne!(a, b);
        assert!(a.is_resolved() && b.is_resolved());
        assert!(!KernelId::UNRESOLVED.is_resolved());
        // Replacing "a" keeps its id and swaps the function.
        reg.register("a", |_| KernelProfile::new(9.0, 0.0));
        assert_eq!(reg.resolve("a").unwrap(), a);
        assert_eq!(reg.len(), 2);
        let mut args = KernelArgs {
            inputs: &[],
            outputs: &mut [],
            params: &[],
            n_actual: 0,
            n_logical: 0,
        };
        assert_eq!(reg.get_by_id(a).unwrap()(&mut args).flops, 9.0);
        assert_eq!(reg.name_of(b), Some("b"));
        assert!(reg.get_by_id(KernelId::UNRESOLVED).is_none());
    }

    #[test]
    fn names_sorted() {
        let mut reg = KernelRegistry::new();
        reg.register("b", |_| KernelProfile::new(0.0, 0.0));
        reg.register("a", |_| KernelProfile::new(0.0, 0.0));
        assert_eq!(reg.names(), vec!["a", "b"]);
    }

    #[test]
    fn scale_factor() {
        let args = KernelArgs {
            inputs: &[],
            outputs: &mut [],
            params: &[],
            n_actual: 100,
            n_logical: 100_000,
        };
        assert_eq!(args.scale(), 1000.0);
    }

    #[test]
    #[should_panic(expected = "coalescing")]
    fn invalid_coalescing_rejected() {
        let _ = KernelProfile::new(1.0, 1.0).with_coalescing(0.0);
    }
}
