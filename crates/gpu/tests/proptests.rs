//! Property tests for the virtual GPU substrate.

use gflink_gpu::{DeviceMemory, GpuModel, KernelProfile, TransferPath, VirtualGpu};
use gflink_memory::HBuffer;
use gflink_sim::SimTime;
use proptest::prelude::*;

proptest! {
    /// Device memory never exceeds capacity and used == sum of live sizes.
    #[test]
    fn dmem_capacity_invariant(ops in prop::collection::vec((any::<bool>(), 1u64..500), 1..100)) {
        let mut m = DeviceMemory::new(4096);
        let mut live: Vec<(gflink_gpu::DevBufId, u64)> = Vec::new();
        for (alloc, size) in ops {
            if alloc {
                match m.alloc(size, 8) {
                    Ok(id) => live.push((id, size)),
                    Err(_) => prop_assert!(m.free_bytes() < size),
                }
            } else if let Some((id, _)) = live.pop() {
                m.release(id).unwrap();
            }
            let expected: u64 = live.iter().map(|&(_, s)| s).sum();
            prop_assert_eq!(m.used(), expected);
            prop_assert!(m.used() <= m.capacity());
            prop_assert_eq!(m.live_allocations(), live.len());
        }
    }

    /// Transfer time is monotone in bytes, and the GFlink path is never
    /// faster than native (it pays a strictly larger call overhead).
    #[test]
    fn transfer_path_ordering(bytes in 1u64..10_000_000) {
        let spec = GpuModel::TeslaC2050.spec();
        let g = TransferPath::gflink(&spec);
        let n = TransferPath::native(&spec);
        prop_assert!(g.time_for(bytes) >= n.time_for(bytes));
        prop_assert!(g.time_for(bytes + 1024) > g.time_for(bytes));
        // Effective bandwidth never exceeds the link rate.
        prop_assert!(g.effective_bandwidth(bytes) <= g.pcie.bytes_per_sec + 1.0);
    }

    /// Kernel time is monotone in flops, bytes and (inversely) coalescing.
    #[test]
    fn kernel_time_monotone(
        flops in 1.0e3f64..1.0e12,
        bytes in 1.0e3f64..1.0e12,
        coal in 0.05f64..1.0,
    ) {
        let gpu = VirtualGpu::new(0, GpuModel::TeslaK20);
        let base = gpu.kernel_time(&KernelProfile::new(flops, bytes).with_coalescing(coal));
        let more_flops = gpu.kernel_time(&KernelProfile::new(flops * 2.0, bytes).with_coalescing(coal));
        let more_bytes = gpu.kernel_time(&KernelProfile::new(flops, bytes * 2.0).with_coalescing(coal));
        let better_coal = gpu.kernel_time(&KernelProfile::new(flops, bytes).with_coalescing(1.0));
        prop_assert!(more_flops >= base);
        prop_assert!(more_bytes >= base);
        prop_assert!(better_coal <= base);
        prop_assert!(base >= gpu.spec().launch_overhead);
    }

    /// H2D then D2H roundtrips arbitrary bytes unchanged through device
    /// memory, regardless of device model.
    #[test]
    fn copy_roundtrip_preserves_bytes(data in prop::collection::vec(any::<u8>(), 1..512)) {
        for model in GpuModel::ALL {
            let mut gpu = VirtualGpu::new(0, model);
            let host = HBuffer::from_bytes(&data);
            let id = gpu.dmem.alloc(data.len() as u64, data.len()).unwrap();
            gpu.copy_h2d(SimTime::ZERO, [(data.len() as u64, &host, id)], false).unwrap();
            let mut out = HBuffer::zeroed(data.len());
            gpu.copy_d2h(SimTime::ZERO, [(data.len() as u64, id, &mut out)], false).unwrap();
            prop_assert_eq!(out.as_slice(), &data[..]);
        }
    }
}
