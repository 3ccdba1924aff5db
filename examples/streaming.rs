//! Streaming on the GPU fabric — the paper's stated future direction (§1:
//! Flink was chosen over Spark for "future expansion for a better streaming
//! processing implementation").
//!
//! A continuous record stream is chopped into micro-batches (the natural
//! GPU block granularity) and pushed through the `StreamEnv` DataStream
//! builder as it arrives. The example sweeps the offered rate and prints
//! per-engine latency profiles — the CPU pipeline backpressures first, the
//! GPU one keeps absorbing — then runs an event-time windowed aggregation
//! on both engines and shows the digests agree bit-for-bit.
//!
//! Run with: `cargo run --release --example streaming`

use gflink::prelude::*;

gstruct! {
    #[derive(Clone, Debug)]
    struct Reading: Align4 {
        v: f32,
    }
}

fn fabric(workers: usize) -> GpuFabric {
    let fabric = GpuFabric::new(workers, FabricConfig::default());
    fabric.register_kernel("streamDouble", |args: &mut KernelArgs<'_, '_>| {
        let def = Reading::def();
        let n = args.n_actual;
        let input = RecordReader::new(args.inputs[0], def, DataLayout::Aos, n);
        let out_buf = &mut args.outputs[0];
        let mut out = RecordView::new(out_buf, def, DataLayout::Aos, n);
        for i in 0..n {
            out.set_f64(i, 0, 0, input.get_f64(i, 0, 0) * 2.0);
        }
        KernelProfile::new(args.n_logical as f64 * 200.0, args.n_logical as f64 * 8.0)
    });
    fabric
}

fn main() {
    let workers = 2;
    let cluster = ClusterConfig::standard(workers);
    println!(
        "streaming map (200 flops/record) on {workers} workers, 1M-record micro-batches, 5s streams\n"
    );
    println!(
        "{:>12} {:>14} {:>12} {:>14} {:>12}",
        "rate (rec/s)", "CPU mean lat", "CPU stable?", "GPU mean lat", "GPU stable?"
    );
    for rate in [5e6, 20e6, 50e6, 100e6, 200e6] {
        let source = StreamSource::at_rate(rate).for_duration(SimTime::from_secs(5));
        let cpu = StreamEnv::cpu(&cluster)
            .source(source.clone(), |i| Reading { v: i as f32 })
            .map_fn(OpCost::new(200.0, 4.0), |r| Reading { v: r.v * 2.0 })
            .run()
            .expect("cpu stream runs");
        let gpu = StreamEnv::gpu(&fabric(workers))
            .source(source, |i| Reading { v: i as f32 })
            .map_kernel::<Reading>(GpuMapSpec::new("streamDouble").uncached())
            .run()
            .expect("gpu stream runs");
        println!(
            "{:>12.0e} {:>13.1}ms {:>12} {:>13.1}ms {:>12}",
            rate,
            cpu.latency.mean() * 1e3,
            if cpu.sustained(1.5) { "yes" } else { "NO" },
            gpu.latency.mean() * 1e3,
            if gpu.sustained(1.5) { "yes" } else { "NO" },
        );
    }

    // Event time: keyed tumbling windows over an out-of-order stream, the
    // same pipeline lowered onto both engines.
    println!("\nevent-time windowed mean per key (100ms tumbling, 40ms watermark bound):");
    let source = StreamSource::at_rate(20e6).for_duration(SimTime::from_secs(2));
    let event = |i: u64| {
        let base = i * 50_000_000 / 64;
        let jitter = i.wrapping_mul(2_654_435_761) % 30_000_000;
        (
            SimTime::from_nanos(base.saturating_sub(jitter)), // event timestamp
            i % 8,                                            // key
            (i % 97) as f64 * 0.5,                            // value
        )
    };
    let windowed = |env: &StreamEnv| {
        env.source(source.clone(), event)
            .timestamps(
                |e| e.0,
                WatermarkStrategy::bounded(SimTime::from_millis(40)),
            )
            .key_by(|e| e.1)
            .window(Tumbling::of(SimTime::from_millis(100)))
            .aggregate(AggSpec::avg(), |e| e.2)
            .run()
            .expect("windowed stream runs")
    };
    let cpu = windowed(&StreamEnv::cpu(&cluster));
    let gpu = windowed(&StreamEnv::gpu(&fabric(workers)));
    println!(
        "  CPU: {} windows, digest {:016x}, {} late records",
        cpu.windows.len(),
        cpu.digest(),
        cpu.report.late_records
    );
    println!(
        "  GPU: {} windows, digest {:016x}, p99 window latency {}",
        gpu.windows.len(),
        gpu.digest(),
        gpu.report.latency.p99()
    );
    assert_eq!(cpu.digest(), gpu.digest(), "engines agree bit-for-bit");

    println!("\n(GFlink's producer/consumer decoupling turns the batch fabric into a");
    println!("streaming one: micro-batches are just GWork arriving on a clock.)");
}
