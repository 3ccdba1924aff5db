//! Table 2: bandwidth of the transfer channel (host → device), GFlink vs a
//! native C implementation, for transfer sizes 2 KB – 1 MB.
//!
//! The paper's numbers are reproduced alongside the model's, with the
//! relative error per row. Both paths really execute: the bytes are pushed
//! through a `VirtualGpu` H2D copy and the effective bandwidth is computed
//! from the granted interval.

use gflink_bench::{header, jobj, row, write_results, Json};
use gflink_gpu::{GpuModel, TransferPath, VirtualGpu};
use gflink_memory::HBuffer;
use gflink_sim::SimTime;

/// Paper Table 2 (bytes, GFlink MB/s, native MB/s).
const PAPER: [(u64, f64, f64); 8] = [
    (2048, 776.398, 814.425),
    (4096, 1241.311, 1348.418),
    (16384, 2195.872, 2245.351),
    (32768, 2556.237, 2646.721),
    (131072, 2858.368, 2878.373),
    (262144, 2968.151, 2945.243),
    (524288, 2960.003, 2931.513),
    (1048576, 2973.701, 2963.532),
];

fn main() {
    header(
        "Table 2",
        "Bandwidth of transfer channel for host to device (Tesla C2050, PCIe 2.0)",
    );
    row(&[
        "bytes".into(),
        "GFlink model".into(),
        "GFlink paper".into(),
        "err%".into(),
        "native model".into(),
        "native paper".into(),
        "err%".into(),
    ]);
    let spec = GpuModel::TeslaC2050.spec();
    let gflink = TransferPath::gflink(&spec);
    let native = TransferPath::native(&spec);
    let mut results = Vec::new();
    for &(bytes, paper_g, paper_n) in &PAPER {
        let g = gflink.effective_bandwidth(bytes) / 1e6;
        let n = native.effective_bandwidth(bytes) / 1e6;
        results.push(jobj! {
            "bytes": bytes,
            "gflink_model_mbs": g,
            "gflink_paper_mbs": paper_g,
            "native_model_mbs": n,
            "native_paper_mbs": paper_n,
        });
        row(&[
            format!("{bytes}"),
            format!("{g:.1} MB/s"),
            format!("{paper_g:.1} MB/s"),
            format!("{:+.1}", (g - paper_g) / paper_g * 100.0),
            format!("{n:.1} MB/s"),
            format!("{paper_n:.1} MB/s"),
            format!("{:+.1}", (n - paper_n) / paper_n * 100.0),
        ]);
    }

    // End-to-end check: the same numbers fall out of a real device copy
    // (engine reservation), not just the closed-form path.
    header(
        "Table 2b",
        "cross-check via VirtualGpu copy engine reservations",
    );
    let mut gpu = VirtualGpu::new(0, GpuModel::TeslaC2050);
    let mut cursor = SimTime::ZERO;
    for &(bytes, _, _) in &PAPER {
        let host = HBuffer::zeroed(64);
        let dev = gpu.dmem.alloc(bytes, 64).unwrap();
        let r = gpu.copy_h2d(cursor, [(bytes, &host, dev)], false).unwrap();
        let bw = bytes as f64 / r.duration().as_secs_f64() / 1e6;
        row(&[format!("{bytes}"), format!("{bw:.1} MB/s")]);
        cursor = r.end;
        gpu.dmem.release(dev).unwrap();
    }
    write_results("table2_transfer_bandwidth", &Json::Arr(results));
}
