//! The virtual GPU device.
//!
//! A [`VirtualGpu`] bundles the device's engines (kernel engine + one or two
//! DMA copy engines, each a [`Timeline`]) with its [`DeviceMemory`] and
//! transfer-path model. Higher layers (the `GStreamManager` in
//! `gflink-core`) chain reservations on these engines to build the
//! three-stage H2D/K/D2H pipeline of §5; the engine structure is what makes
//! overlap physical: a device with one copy engine cannot overlap H2D with
//! D2H (§4.1.2), one with two can.

use crate::channel::{TransferMode, TransferPath};
use crate::dmem::{DevBufId, DeviceMemory};
use crate::health::{DeviceError, DeviceHealth};
use crate::kernel::{KernelArgs, KernelFn, KernelProfile};
use crate::spec::{GpuModel, GpuSpec};
use gflink_memory::HBuffer;
use gflink_sim::timeline::Reservation;
use gflink_sim::trace::{copy_engine_tid, Cat, TraceEvent, TID_DEVICE, TID_KERNEL_ENGINE};
use gflink_sim::{Counter, SimTime, Tally, Timeline, Tracer};

/// Direction of a PCIe copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CopyDirection {
    /// Host to device (`cudaMemcpyH2D[Async]`).
    H2D,
    /// Device to host (`cudaMemcpyD2H[Async]`).
    D2H,
}

/// A simulated GPU: engines, device memory, transfer model.
pub struct VirtualGpu {
    id: usize,
    spec: GpuSpec,
    /// Device DRAM (public: the GMemoryManager drives it directly).
    pub dmem: DeviceMemory,
    kernel_engine: Timeline,
    copy_engines: Vec<Timeline>,
    transfer: TransferPath,
    health: DeviceHealth,
    kernels_launched: u64,
    bytes_h2d: u64,
    bytes_d2h: u64,
    tracer: Tracer,
    trace_pid: u64,
    /// Live-metrics mirrors of the lifetime counters, published by
    /// [`VirtualGpu::publish_metrics`]: kernel launches, H2D bytes, D2H
    /// bytes.
    m_launches: Tally,
    m_bytes_h2d: Tally,
    m_bytes_d2h: Tally,
}

impl VirtualGpu {
    /// Create device `id` of the given `model`, using the GFlink transfer
    /// path (off-heap direct buffers over JNI).
    pub fn new(id: usize, model: GpuModel) -> Self {
        let spec = model.spec();
        let transfer = TransferPath::gflink(&spec);
        VirtualGpu {
            id,
            dmem: DeviceMemory::new(spec.dev_mem_bytes),
            kernel_engine: Timeline::new(),
            copy_engines: vec![Timeline::new(); spec.copy_engines as usize],
            transfer,
            spec,
            health: DeviceHealth::Healthy,
            kernels_launched: 0,
            bytes_h2d: 0,
            bytes_d2h: 0,
            tracer: Tracer::disabled(),
            trace_pid: 0,
            m_launches: Tally::default(),
            m_bytes_h2d: Tally::default(),
            m_bytes_d2h: Tally::default(),
        }
    }

    /// Attach live-metrics counters: kernel launches and copied bytes per
    /// direction. The device tallies them alongside its lifetime counters
    /// (a plain add per feed) and moves the tallies to the counters at
    /// [`VirtualGpu::publish_metrics`].
    pub fn set_metrics(&mut self, launches: Counter, bytes_h2d: Counter, bytes_d2h: Counter) {
        self.publish_metrics();
        self.m_launches = Tally::new(launches);
        self.m_bytes_h2d = Tally::new(bytes_h2d);
        self.m_bytes_d2h = Tally::new(bytes_d2h);
    }

    /// Publish the tallied launches and bytes to the live-metrics
    /// counters. The owner calls it before every metrics sample and at
    /// quiescence.
    pub fn publish_metrics(&mut self) {
        self.m_launches.publish();
        self.m_bytes_h2d.publish();
        self.m_bytes_d2h.publish();
    }

    /// Attach a tracer; the device emits engine-occupancy spans and health
    /// transitions as trace process `pid` (see `gflink_sim::trace::gpu_pid`).
    /// Engine thread names are registered here.
    pub fn set_tracer(&mut self, tracer: Tracer, pid: u64) {
        if tracer.enabled() {
            tracer.name_thread(pid, TID_KERNEL_ENGINE, "kernel engine");
            for i in 0..self.copy_engines.len() {
                tracer.name_thread(pid, copy_engine_tid(i), &format!("copy engine {i}"));
            }
        }
        self.tracer = tracer;
        self.trace_pid = pid;
    }

    /// Device index within its worker.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The device's specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The transfer-path model in use.
    pub fn transfer_path(&self) -> &TransferPath {
        &self.transfer
    }

    /// Switch the host-side staging behaviour of the transfer channel.
    /// `Pinned` keeps the fitted Table 2 path byte-identical; `Pageable`
    /// adds the driver's bounce-buffer memcpy to every copy.
    pub fn set_transfer_mode(&mut self, mode: TransferMode) {
        self.transfer = TransferPath::for_mode(&self.spec, mode);
    }

    /// Current health state.
    pub fn health(&self) -> DeviceHealth {
        self.health
    }

    /// Degrade the device to `throughput` (fraction of nominal, in
    /// `(0, 1]`) at instant `at`. Degradations do not compound: the worst
    /// one wins. A lost device stays lost.
    pub fn degrade(&mut self, at: SimTime, throughput: f64) {
        assert!(
            throughput > 0.0 && throughput <= 1.0,
            "degraded throughput must be in (0, 1]"
        );
        self.health = match self.health {
            DeviceHealth::Lost => DeviceHealth::Lost,
            DeviceHealth::Degraded { throughput: old } => DeviceHealth::Degraded {
                throughput: old.min(throughput),
            },
            DeviceHealth::Healthy => DeviceHealth::Degraded { throughput },
        };
        self.tracer.record_with(|| {
            TraceEvent::instant(self.trace_pid, TID_DEVICE, Cat::Health, "degraded", at)
                .with_arg("throughput", throughput)
        });
    }

    /// Take the device off the bus permanently at instant `at`. All device
    /// memory contents are destroyed (outstanding handles become invalid);
    /// every later transfer or launch fails with [`DeviceError::Lost`].
    /// Returns how many device allocations were destroyed.
    pub fn mark_lost(&mut self, at: SimTime) -> usize {
        self.go_off_bus(at, "lost", "wiped_allocations")
    }

    /// Retire the device gracefully at instant `at`: it leaves the
    /// worker's complement (an elastic-membership event, not a fault).
    /// Terminally the same as [`VirtualGpu::mark_lost`] — no further
    /// launches, device memory released — but traced as `"retired"` so
    /// chaos audits can tell administrative departures from crashes.
    /// Returns how many device allocations were released.
    pub fn retire(&mut self, at: SimTime) -> usize {
        self.go_off_bus(at, "retired", "released_allocations")
    }

    /// The device leaves the bus for good at `at`: memory wiped, health
    /// `Lost`, and a health instant `name` whose `arg` counts the
    /// allocations destroyed (returned).
    fn go_off_bus(&mut self, at: SimTime, name: &'static str, arg: &'static str) -> usize {
        self.health = DeviceHealth::Lost;
        let wiped = self.dmem.wipe();
        self.tracer.record_with(|| {
            TraceEvent::instant(self.trace_pid, TID_DEVICE, Cat::Health, name, at)
                .with_arg(arg, wiped)
        });
        wiped
    }

    fn ensure_usable(&self) -> Result<(), DeviceError> {
        if self.health.is_lost() {
            Err(DeviceError::Lost { gpu: self.id })
        } else {
            Ok(())
        }
    }

    fn copy_engine_index(&self, dir: CopyDirection) -> usize {
        // One engine: both directions share it (half duplex). Two engines:
        // H2D on engine 0, D2H on engine 1 (full duplex).
        match dir {
            CopyDirection::H2D => 0,
            CopyDirection::D2H => self.copy_engines.len() - 1,
        }
    }

    /// Time this device needs to move `logical_bytes` in one copy call.
    /// A degraded device's PCIe throughput scales down with its health.
    pub fn copy_time(&self, logical_bytes: u64) -> SimTime {
        self.scale_by_health(self.transfer.time_for(logical_bytes))
    }

    /// Stretch a nominal duration by the device's health slowdown. The
    /// healthy path returns the input bit-for-bit (no float round trip),
    /// keeping fault-free timelines identical to pre-fault-model ones.
    fn scale_by_health(&self, nominal: SimTime) -> SimTime {
        match self.health {
            DeviceHealth::Healthy => nominal,
            _ => SimTime::from_secs_f64(nominal.as_secs_f64() * self.health.slowdown()),
        }
    }

    /// Upload `items`, each `(logical bytes, host buffer, device buffer)`,
    /// in **one** H2D copy call from `earliest`: one α for the whole group,
    /// the payloads traveling back-to-back over PCIe. Returns the copy
    /// engine's reservation. `fused` labels the span `H2D(fused)` with the
    /// item count, for a call made on behalf of a fused flight.
    pub fn copy_h2d<'h>(
        &mut self,
        earliest: SimTime,
        items: impl IntoIterator<Item = (u64, &'h HBuffer, DevBufId)>,
        fused: bool,
    ) -> Result<Reservation, DeviceError> {
        self.ensure_usable()?;
        let (mut bytes, mut works) = (0, 0);
        for (logical, host, dst) in items {
            self.dmem.upload(dst, host)?;
            bytes += logical;
            works += 1;
        }
        Ok(self.reserve_copy(CopyDirection::H2D, earliest, bytes, works, fused))
    }

    /// Download `items`, each `(logical bytes, device buffer, host
    /// buffer)`, in one D2H copy call from `earliest`; the mirror of
    /// [`VirtualGpu::copy_h2d`].
    pub fn copy_d2h<'h>(
        &mut self,
        earliest: SimTime,
        items: impl IntoIterator<Item = (u64, DevBufId, &'h mut HBuffer)>,
        fused: bool,
    ) -> Result<Reservation, DeviceError> {
        self.ensure_usable()?;
        let (mut bytes, mut works) = (0, 0);
        for (logical, src, host) in items {
            self.dmem.download(src, host)?;
            bytes += logical;
            works += 1;
        }
        Ok(self.reserve_copy(CopyDirection::D2H, earliest, bytes, works, fused))
    }

    /// Account one copy call of `bytes` over `works` items: reserve the
    /// direction's copy engine for its time, count the bytes, trace the
    /// span.
    fn reserve_copy(
        &mut self,
        dir: CopyDirection,
        earliest: SimTime,
        bytes: u64,
        works: u64,
        fused: bool,
    ) -> Reservation {
        let dur = self.copy_time(bytes);
        let (cat, name) = match dir {
            CopyDirection::H2D => {
                self.bytes_h2d += bytes;
                self.m_bytes_h2d.add(bytes);
                (Cat::H2d, if fused { "H2D(fused)" } else { "H2D" })
            }
            CopyDirection::D2H => {
                self.bytes_d2h += bytes;
                self.m_bytes_d2h.add(bytes);
                (Cat::D2h, if fused { "D2H(fused)" } else { "D2H" })
            }
        };
        let engine = self.copy_engine_index(dir);
        let r = self.copy_engines[engine].reserve(earliest, dur);
        if self.tracer.enabled() {
            let span = TraceEvent::span(
                self.trace_pid,
                copy_engine_tid(engine),
                cat,
                name,
                r.start,
                r.end,
            )
            .with_arg("bytes", bytes);
            self.tracer.record(if fused {
                span.with_arg("works", works)
            } else {
                span
            });
        }
        r
    }

    /// Simulated duration of a kernel with the given profile on this device:
    /// `launch + max(flops / F_sustained, bytes / (B_sustained · coalescing))`,
    /// stretched by the health slowdown on a degraded device.
    pub fn kernel_time(&self, profile: &KernelProfile) -> SimTime {
        let f = self.spec.sp_gflops * 1e9 * self.spec.compute_efficiency;
        let b = self.spec.mem_bw_gbps * 1e9 * self.spec.mem_efficiency * profile.coalescing;
        let t = (profile.flops / f).max(profile.bytes / b);
        self.spec.launch_overhead + self.scale_by_health(SimTime::from_secs_f64(t))
    }

    /// Execute `kernel` over device buffers, reserving the kernel engine
    /// from `earliest`. The kernel really runs (mutating output buffers);
    /// its reported profile is converted to simulated time.
    ///
    /// `coalescing_scale` multiplies the kernel's own coalescing factor —
    /// this is how the caller applies the data layout's efficiency (§2.1)
    /// on top of the kernel's access pattern.
    #[allow(clippy::too_many_arguments)]
    pub fn launch(
        &mut self,
        earliest: SimTime,
        kernel: &KernelFn,
        inputs: &[DevBufId],
        outputs: &[DevBufId],
        params: &[f64],
        n_actual: usize,
        n_logical: u64,
        coalescing_scale: f64,
    ) -> Result<(Reservation, KernelProfile), DeviceError> {
        assert!(
            coalescing_scale > 0.0 && coalescing_scale <= 1.0,
            "coalescing scale must be in (0, 1]"
        );
        self.ensure_usable()?;
        let mut profile = self.dmem.with_buffers(inputs, outputs, |ins, outs| {
            let mut args = KernelArgs {
                inputs: ins,
                outputs: outs,
                params,
                n_actual,
                n_logical,
            };
            kernel(&mut args)
        })?;
        profile.coalescing = (profile.coalescing * coalescing_scale).clamp(1.0 / 32.0, 1.0);
        let dur = self.kernel_time(&profile);
        self.kernels_launched += 1;
        self.m_launches.inc();
        let r = self.kernel_engine.reserve(earliest, dur);
        if self.tracer.enabled() {
            self.tracer.record(
                TraceEvent::span(
                    self.trace_pid,
                    TID_KERNEL_ENGINE,
                    Cat::Kernel,
                    "kernel",
                    r.start,
                    r.end,
                )
                .with_arg("flops", profile.flops)
                .with_arg("bytes", profile.bytes),
            );
        }
        Ok((r, profile))
    }

    /// The instant all engines are idle.
    pub fn drained_at(&self) -> SimTime {
        let copies = self
            .copy_engines
            .iter()
            .map(Timeline::next_free)
            .max()
            .unwrap_or(SimTime::ZERO);
        self.kernel_engine.next_free().max(copies)
    }

    /// Lifetime statistics: (kernels launched, H2D bytes, D2H bytes).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.kernels_launched, self.bytes_h2d, self.bytes_d2h)
    }

    /// Total kernel-engine busy (service) time.
    pub fn kernel_busy(&self) -> SimTime {
        self.kernel_engine.busy_time()
    }

    /// Total copy-engine busy time, summed over engines.
    pub fn copy_busy(&self) -> SimTime {
        self.copy_engines.iter().map(Timeline::busy_time).sum()
    }

    /// Kernel-engine utilization over `[0, horizon]` (0 on a zero horizon).
    pub fn kernel_utilization(&self, horizon: SimTime) -> f64 {
        self.kernel_engine.utilization(horizon)
    }
}

impl std::fmt::Debug for VirtualGpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VirtualGpu#{} ({}, {} copy engines)",
            self.id,
            self.spec.model.name(),
            self.copy_engines.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelRegistry;

    fn scale_kernel_registry() -> KernelRegistry {
        let mut reg = KernelRegistry::new();
        reg.register("scale2", |args: &mut KernelArgs<'_, '_>| {
            let n = args.n_actual;
            let input = args.inputs[0];
            let out = &mut args.outputs[0];
            for i in 0..n {
                out.write_f32(i * 4, input.read_f32(i * 4) * 2.0);
            }
            KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 8.0)
        });
        reg
    }

    #[test]
    fn h2d_kernel_d2h_roundtrip_computes_real_values() {
        let mut gpu = VirtualGpu::new(0, GpuModel::TeslaC2050);
        let host_in = HBuffer::from_f32s(&[1.0, 2.0, 3.0, 4.0]);
        let din = gpu.dmem.alloc(16, 16).unwrap();
        let dout = gpu.dmem.alloc(16, 16).unwrap();
        let r1 = gpu
            .copy_h2d(SimTime::ZERO, [(16, &host_in, din)], false)
            .unwrap();
        let reg = scale_kernel_registry();
        let k = reg.get("scale2").unwrap();
        let (r2, _) = gpu
            .launch(r1.end, &k, &[din], &[dout], &[], 4, 4, 1.0)
            .unwrap();
        let mut host_out = HBuffer::zeroed(16);
        let r3 = gpu
            .copy_d2h(r2.end, [(16, dout, &mut host_out)], false)
            .unwrap();
        assert_eq!(host_out.to_f32_vec(), vec![2.0, 4.0, 6.0, 8.0]);
        assert!(r1.end <= r2.start && r2.end <= r3.start);
    }

    #[test]
    fn kernel_time_scales_with_logical_elements() {
        let gpu = VirtualGpu::new(0, GpuModel::TeslaC2050);
        let small = gpu.kernel_time(&KernelProfile::new(1e6, 1e6));
        let large = gpu.kernel_time(&KernelProfile::new(1e9, 1e9));
        assert!(large > small);
    }

    #[test]
    fn faster_device_runs_kernels_faster() {
        let c2050 = VirtualGpu::new(0, GpuModel::TeslaC2050);
        let p100 = VirtualGpu::new(0, GpuModel::TeslaP100);
        let p = KernelProfile::new(1e10, 1e9);
        assert!(p100.kernel_time(&p) < c2050.kernel_time(&p));
    }

    #[test]
    fn uncoalesced_access_slows_memory_bound_kernels() {
        let gpu = VirtualGpu::new(0, GpuModel::TeslaC2050);
        let coalesced = KernelProfile::new(1e6, 1e10);
        let strided = KernelProfile::new(1e6, 1e10).with_coalescing(0.25);
        assert!(gpu.kernel_time(&strided) > gpu.kernel_time(&coalesced));
    }

    #[test]
    fn single_copy_engine_serializes_both_directions() {
        let mut gpu = VirtualGpu::new(0, GpuModel::TeslaC2050); // 1 engine
        let a = gpu.dmem.alloc(1_000_000, 64).unwrap();
        let host = HBuffer::zeroed(64);
        let mut host_out = HBuffer::zeroed(64);
        let r1 = gpu
            .copy_h2d(SimTime::ZERO, [(1_000_000, &host, a)], false)
            .unwrap();
        let r2 = gpu
            .copy_d2h(SimTime::ZERO, [(1_000_000, a, &mut host_out)], false)
            .unwrap();
        assert!(r2.start >= r1.end, "half duplex must serialize");
    }

    #[test]
    fn dual_copy_engines_overlap_directions() {
        let mut gpu = VirtualGpu::new(0, GpuModel::TeslaK20); // 2 engines
        let a = gpu.dmem.alloc(1_000_000, 64).unwrap();
        let host = HBuffer::zeroed(64);
        let mut host_out = HBuffer::zeroed(64);
        let r1 = gpu
            .copy_h2d(SimTime::ZERO, [(1_000_000, &host, a)], false)
            .unwrap();
        let r2 = gpu
            .copy_d2h(SimTime::ZERO, [(1_000_000, a, &mut host_out)], false)
            .unwrap();
        assert_eq!(r2.start, SimTime::ZERO, "full duplex overlaps");
        assert!(r1.start == SimTime::ZERO);
    }

    #[test]
    fn lost_device_rejects_all_operations_and_wipes_memory() {
        let mut gpu = VirtualGpu::new(1, GpuModel::TeslaC2050);
        let a = gpu.dmem.alloc(16, 16).unwrap();
        let host = HBuffer::zeroed(16);
        assert_eq!(gpu.health(), crate::health::DeviceHealth::Healthy);
        let wiped = gpu.mark_lost(SimTime::ZERO);
        assert_eq!(wiped, 1);
        assert!(gpu.health().is_lost());
        assert_eq!(gpu.dmem.used(), 0);
        let err = gpu
            .copy_h2d(SimTime::ZERO, [(16, &host, a)], false)
            .unwrap_err();
        assert_eq!(err, crate::health::DeviceError::Lost { gpu: 1 });
        let reg = scale_kernel_registry();
        let k = reg.get("scale2").unwrap();
        let err = gpu.launch(SimTime::ZERO, &k, &[a], &[a], &[], 4, 4, 1.0);
        assert_eq!(
            err.unwrap_err(),
            crate::health::DeviceError::Lost { gpu: 1 }
        );
    }

    #[test]
    fn retired_device_behaves_like_lost_but_is_administrative() {
        let mut gpu = VirtualGpu::new(2, GpuModel::TeslaC2050);
        let a = gpu.dmem.alloc(16, 16).unwrap();
        let host = HBuffer::zeroed(16);
        assert_eq!(gpu.retire(SimTime::ZERO), 1);
        assert!(gpu.health().is_lost());
        assert_eq!(gpu.dmem.used(), 0);
        let err = gpu
            .copy_h2d(SimTime::ZERO, [(16, &host, a)], false)
            .unwrap_err();
        assert_eq!(err, crate::health::DeviceError::Lost { gpu: 2 });
    }

    #[test]
    fn degraded_device_is_slower_but_correct() {
        let mut gpu = VirtualGpu::new(0, GpuModel::TeslaC2050);
        let nominal_copy = gpu.copy_time(1_000_000);
        let nominal_kernel = gpu.kernel_time(&KernelProfile::new(1e9, 1e9));
        gpu.degrade(SimTime::ZERO, 0.5);
        assert!(gpu.copy_time(1_000_000) > nominal_copy);
        assert!(gpu.kernel_time(&KernelProfile::new(1e9, 1e9)) > nominal_kernel);
        // Worst degradation wins; weaker ones don't undo it.
        gpu.degrade(SimTime::ZERO, 0.25);
        gpu.degrade(SimTime::ZERO, 0.9);
        assert_eq!(
            gpu.health(),
            crate::health::DeviceHealth::Degraded { throughput: 0.25 }
        );
        // Data still moves correctly.
        let host_in = HBuffer::from_f32s(&[1.0, 2.0, 3.0, 4.0]);
        let din = gpu.dmem.alloc(16, 16).unwrap();
        let dout = gpu.dmem.alloc(16, 16).unwrap();
        let r1 = gpu
            .copy_h2d(SimTime::ZERO, [(16, &host_in, din)], false)
            .unwrap();
        let reg = scale_kernel_registry();
        let k = reg.get("scale2").unwrap();
        let (r2, _) = gpu
            .launch(r1.end, &k, &[din], &[dout], &[], 4, 4, 1.0)
            .unwrap();
        let mut host_out = HBuffer::zeroed(16);
        gpu.copy_d2h(r2.end, [(16, dout, &mut host_out)], false)
            .unwrap();
        assert_eq!(host_out.to_f32_vec(), vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn fused_h2d_charges_one_alpha_and_uploads_every_member() {
        let mut gpu = VirtualGpu::new(0, GpuModel::TeslaC2050);
        let hosts: Vec<HBuffer> = (0..4).map(|i| HBuffer::from_f32s(&[i as f32; 4])).collect();
        let devs: Vec<DevBufId> = (0..4).map(|_| gpu.dmem.alloc(2048, 16).unwrap()).collect();
        let items = hosts.iter().zip(&devs).map(|(h, &d)| (2048u64, h, d));
        let r = gpu.copy_h2d(SimTime::ZERO, items, true).unwrap();
        assert_eq!(
            r.duration(),
            gpu.transfer_path().time_for(4 * 2048),
            "one call overhead for the whole group"
        );
        assert!(r.duration() < gpu.transfer_path().time_for(2048) * 4);
        for (i, &d) in devs.iter().enumerate() {
            assert_eq!(gpu.dmem.data(d).unwrap().read_f32(0), i as f32);
        }
        assert_eq!(gpu.stats().1, 4 * 2048);
        // D2H side mirrors it.
        let mut outs: Vec<HBuffer> = (0..4).map(|_| HBuffer::zeroed(16)).collect();
        let d2h = devs
            .iter()
            .zip(outs.iter_mut())
            .map(|(&d, h)| (2048u64, d, h));
        let r2 = gpu.copy_d2h(r.end, d2h, true).unwrap();
        assert_eq!(r2.duration(), gpu.transfer_path().time_for(4 * 2048));
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(out.read_f32(0), i as f32);
        }
    }

    #[test]
    fn pageable_mode_slows_every_copy_pinned_restores_it() {
        let mut gpu = VirtualGpu::new(0, GpuModel::TeslaC2050);
        let pinned_t = gpu.copy_time(1 << 20);
        gpu.set_transfer_mode(crate::channel::TransferMode::Pageable);
        assert!(gpu.transfer_path().is_pageable());
        assert!(gpu.copy_time(1 << 20) > pinned_t);
        gpu.set_transfer_mode(crate::channel::TransferMode::Pinned);
        assert_eq!(gpu.copy_time(1 << 20), pinned_t);
    }

    #[test]
    fn stats_accumulate() {
        let mut gpu = VirtualGpu::new(3, GpuModel::TeslaC2050);
        let a = gpu.dmem.alloc(100, 16).unwrap();
        let host = HBuffer::zeroed(16);
        gpu.copy_h2d(SimTime::ZERO, [(100, &host, a)], false)
            .unwrap();
        let (k, h2d, d2h) = gpu.stats();
        assert_eq!((k, h2d, d2h), (0, 100, 0));
        assert_eq!(gpu.id(), 3);
    }
}
