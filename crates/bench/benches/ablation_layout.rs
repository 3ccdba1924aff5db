//! Ablation: data layouts (AoS vs SoA vs AoP, §2.1/§3.2).
//!
//! Two views:
//!
//! 1. the coalescing model itself, over schemas with different padding and
//!    field-access patterns;
//! 2. a real end-to-end GPU map under each layout: the same kernel over the
//!    same records, with the layout's coalescing factor flowing through the
//!    roofline model into kernel time.

use gflink_bench::{header, jobj, row, write_results, Json};
use gflink_core::{FabricConfig, GDataSet, GRecord, GflinkEnv, GpuFabric, GpuMapSpec};
use gflink_flink::{ClusterConfig, SharedCluster};
use gflink_gpu::{GpuModel, KernelArgs, KernelProfile, VirtualGpu};
use gflink_memory::{gstruct, DataLayout, RecordReader, RecordView};
use gflink_sim::SimTime;

gstruct! {
    /// A padded mixed-width record (the paper's §3.5.1 Point, extended).
    #[derive(Clone)]
    struct Mixed: Align8 {
        x: u32,
        y: f64,
        z: f32,
    }
}

fn main() {
    let mut results = Vec::new();
    header(
        "Ablation: layout coalescing model",
        "useful fraction of fetched bytes per access pattern",
    );
    let def = Mixed::def();
    row(&[
        "layout".into(),
        "read field y only".into(),
        "read all fields".into(),
    ]);
    for layout in DataLayout::ALL {
        results.push(jobj! {
            "experiment": "coalescing", "layout": layout.label(),
            "single_field": layout.coalescing_efficiency(def, 1),
            "all_fields": layout.coalescing_all_fields(def),
        });
        row(&[
            layout.label().into(),
            format!("{:.2}", layout.coalescing_efficiency(def, 1)),
            format!("{:.2}", layout.coalescing_all_fields(def)),
        ]);
    }

    header(
        "Ablation: modelled kernel time (memory-bound, 1GB logical)",
        "C2050 roofline under each layout's coalescing",
    );
    let gpu = VirtualGpu::new(0, GpuModel::TeslaC2050);
    row(&["layout".into(), "kernel time (ms)".into()]);
    for layout in DataLayout::ALL {
        let coal = layout.coalescing_efficiency(def, 1);
        let p = KernelProfile::new(1e8, 1e9).with_coalescing(coal);
        results.push(jobj! {
            "experiment": "roofline", "layout": layout.label(),
            "kernel_secs": gpu.kernel_time(&p),
        });
        row(&[
            layout.label().into(),
            format!("{:.2}", gpu.kernel_time(&p).as_millis_f64()),
        ]);
    }

    header(
        "Ablation: end-to-end GPU map per layout",
        "same records + kernel, layout varied through the GDST",
    );
    row(&["layout".into(), "map wall (s)".into()]);
    for layout in DataLayout::ALL {
        let cluster = SharedCluster::new(ClusterConfig::single_node());
        let fabric = GpuFabric::new(1, FabricConfig::default());
        // The kernel reads only the f64 field: the AoS stride wastes
        // bandwidth, SoA/AoP coalesce.
        fabric.register_kernel("scale_y", move |args: &mut KernelArgs<'_, '_>| {
            let def = Mixed::def();
            let n = args.n_actual;
            let reader = RecordReader::new(args.inputs[0], def, layout, n);
            let mut view = RecordView::new(args.outputs[0], def, DataLayout::Aos, n);
            for i in 0..n {
                view.set_u64(i, 0, 0, reader.get_u64(i, 0, 0));
                view.set_f64(i, 1, 0, reader.get_f64(i, 1, 0) * 2.0);
                view.set_f64(i, 2, 0, 0.0);
            }
            KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 16.0)
                .with_coalescing(layout.coalescing_efficiency(def, 1))
        });
        let env = GflinkEnv::submit(&cluster, &fabric, "layout", SimTime::ZERO);
        let recs: Vec<Mixed> = (0..10_000)
            .map(|i| Mixed {
                x: i,
                y: i as f64,
                z: -(i as f32),
            })
            .collect();
        let ds = env.flink.parallelize("recs", recs, 4, 40_000.0);
        let gdst: GDataSet<Mixed> = env.to_gdst(ds, layout);
        let before = env.flink.frontier();
        let out = gdst.gpu_map_partition::<Mixed>("scale_y", &GpuMapSpec::new("scale_y"));
        let wall = env.flink.frontier() - before;
        // Correctness under every layout (collect order is partition-major;
        // locate the record by its key field).
        let got = out.inner().collect("get", 16.0);
        let rec5 = got.iter().find(|r| r.x == 5).expect("record 5 missing");
        assert!(
            (rec5.y - 10.0).abs() < 1e-9,
            "layout {} broke data",
            layout.label()
        );
        results.push(jobj! {
            "experiment": "end_to_end", "layout": layout.label(),
            "map_wall_secs": wall,
        });
        row(&[layout.label().into(), format!("{:.4}", wall.as_secs_f64())]);
    }
    println!("(expect AoS slowest for the single-field kernel; SoA == AoP)");
    write_results("ablation_layout", &Json::Arr(results));
}
