//! Fault paths of fused flights: a transient on one member, a hang on the
//! whole flight, an allocation failure while the flight stages, and a
//! member whose kernel was never registered. Every member of a fused
//! flight gets the same recovery, accounting and observability as a solo
//! work, and the outputs stay bit-identical to a run without faults.
//!
//! The scenario: one single-stream C2050 with batching on. A large blocker
//! work takes the stream; four small works arrive behind it and fuse into
//! one flight of four, which flies when the blocker's D2H lands.

use gflink_core::{
    BatchConfig, CompletedWork, FailReason, FailedWork, GWork, GpuManager, GpuWorkerConfig, JobId,
    ManagerError, WorkBuf,
};
use gflink_gpu::{GpuModel, KernelArgs, KernelId, KernelProfile, KernelRegistry};
use gflink_memory::HBuffer;
use gflink_sim::{
    FaultKind, FaultLedger, FaultPlan, Metrics, RecKind, RetryPolicy, SimTime, Tracer,
};
use parking_lot::Mutex;
use std::sync::Arc;

const JOB: JobId = JobId(1);
const HANG_TIMEOUT: SimTime = SimTime::from_millis(1);

fn registry() -> Arc<Mutex<KernelRegistry>> {
    let mut reg = KernelRegistry::new();
    reg.register("scale2", |args: &mut KernelArgs<'_, '_>| {
        let n = args.n_actual;
        for i in 0..n {
            let v = args.inputs[0].read_f32(i * 4);
            args.outputs[0].write_f32(i * 4, v * 2.0);
        }
        KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 8.0)
    });
    Arc::new(Mutex::new(reg))
}

fn work(i: u32, in_logical: u64, out_logical: u64, kernel: &str) -> GWork {
    let base = i as f32;
    let data = Arc::new(HBuffer::from_f32s(&[base, base + 0.25, -base, base * 3.0]));
    GWork {
        name: format!("w{i}").into(),
        execute_name: kernel.into(),
        kernel: KernelId::UNRESOLVED,
        ptx_path: "/scale2.ptx".into(),
        block_size: 256,
        grid_size: 1,
        inputs: vec![WorkBuf::transient(data, in_logical)],
        out_actual_bytes: 16,
        out_logical_bytes: out_logical,
        out_records: 4,
        params: Arc::from([]),
        n_actual: 4,
        n_logical: 4096,
        coalescing: 1.0,
        tag: (0, i),
    }
}

/// The blocker (tag 0) and four small works (tags 1..=4), the members of
/// the fused flight; `member_out` is each member's logical output size.
fn works(member_out: u64, kernel_of: impl Fn(u32) -> &'static str) -> Vec<(SimTime, GWork)> {
    let mut v = vec![(SimTime::ZERO, work(0, 1 << 20, 1 << 20, "scale2"))];
    for i in 1..=4 {
        v.push((
            SimTime::from_micros(i as u64),
            work(i, 16 << 10, member_out, kernel_of(i)),
        ));
    }
    v
}

struct Run {
    done: Vec<CompletedWork>,
    failed: Vec<FailedWork>,
    ledger: FaultLedger,
    recorded: Vec<RecKind>,
    trace: String,
    prom: String,
    fused_batches: u64,
    m: GpuManager,
}

fn run(batching: bool, plan: FaultPlan, works: Vec<(SimTime, GWork)>) -> Run {
    let mut cfg = GpuWorkerConfig {
        models: vec![GpuModel::TeslaC2050],
        streams_per_gpu: 1,
        hang_timeout: HANG_TIMEOUT,
        retry: RetryPolicy {
            max_retries: 10,
            ..RetryPolicy::default()
        },
        ..GpuWorkerConfig::default()
    };
    if batching {
        cfg.transfer.batch = BatchConfig {
            max_works: 4,
            ..BatchConfig::enabled()
        };
    }
    let mut m = GpuManager::new(0, cfg, registry());
    let tracer = Tracer::new(Tracer::DEFAULT_CAPACITY);
    m.set_tracer(tracer.clone());
    let metrics = Metrics::new(SimTime::from_micros(100));
    m.set_metrics(&metrics);
    m.set_fault_plan(plan);
    m.begin_job(JOB);
    for (at, w) in works {
        m.submit_for(JOB, w, at);
    }
    let mut done = m.drain_job(JOB);
    done.sort_by_key(|d| d.tag);
    let failed = m.take_job_failed(JOB);
    let session = m.session(JOB).expect("session open");
    Run {
        done,
        failed,
        ledger: session.faults(),
        recorded: session.flight_events().iter().map(|e| e.kind).collect(),
        trace: tracer.export_chrome_json(),
        prom: metrics.export_prometheus(),
        fused_batches: m.fused_batches(),
        m,
    }
}

fn outputs(done: &[CompletedWork]) -> Vec<((u32, u32), Vec<u8>)> {
    done.iter()
        .map(|d| (d.tag, d.output.as_slice().to_vec()))
        .collect()
}

/// The fault-free fused run, and the instant the blocker's D2H lands: a
/// fault armed then hits the fused flight's kernel stage.
fn baseline() -> (Run, SimTime) {
    let base = run(true, FaultPlan::new(), works(16 << 10, |_| "scale2"));
    assert_eq!(base.fused_batches, 1, "the four small works must fuse");
    assert_eq!(base.done.len(), 5);
    let landed = base.done[0].timing.completed;
    let fused_start = base.done[1].timing.started;
    assert!(base.done[1..]
        .iter()
        .all(|d| d.timing.started == fused_start));
    assert!(landed <= fused_start);
    (base, landed)
}

#[test]
fn transient_on_one_member_retries_it_solo_while_survivors_land_fused() {
    let (base, landed) = baseline();
    let plan = FaultPlan::new().with(landed, FaultKind::KernelTransient { gpu: 0 });
    let r = run(true, plan, works(16 << 10, |_| "scale2"));
    assert_eq!(outputs(&r.done), outputs(&base.done), "digests moved");
    assert!(r.failed.is_empty());
    assert_eq!(r.ledger.transient_faults, 1);
    assert_eq!(r.ledger.retries, 1);
    assert_eq!(r.fused_batches, 1, "the retry flies solo");
    // The first member took the scripted fault; the three survivors share
    // one fused D2H, and the afflicted member lands later on its own.
    let survivors = &r.done[2..];
    let fused_end = survivors[0].timing.completed;
    assert!(survivors.iter().all(|d| d.timing.completed == fused_end));
    assert!(r.done[1].timing.started > survivors[0].timing.started);
    assert!(r.done[1].timing.completed > fused_end);
    assert!(r.trace.contains("\"name\":\"D2H(fused)\""));
    assert!(
        r.trace.contains("\"works\":\"3\""),
        "fused D2H of 3 survivors"
    );
}

#[test]
fn hang_on_a_fused_flight_recovers_every_member() {
    let (base, landed) = baseline();
    let plan = FaultPlan::new().with(landed, FaultKind::KernelHang { gpu: 0 });
    let r = run(true, plan, works(16 << 10, |_| "scale2"));
    assert_eq!(outputs(&r.done), outputs(&base.done), "digests moved");
    assert!(r.failed.is_empty());
    assert_eq!(r.ledger.hangs_detected, 1);
    assert_eq!(r.ledger.retries, 4, "every member retries");
    let fused_start = base.done[1].timing.started;
    for d in &r.done[1..] {
        assert!(
            d.timing.started >= fused_start + HANG_TIMEOUT,
            "{:?} re-flew before the watchdog fired",
            d.tag
        );
    }
}

#[test]
fn allocation_failure_during_fused_staging_reclaims_and_retries_every_member() {
    // Each member's output takes 60% of the device: the first allocates,
    // the second cannot, and the whole flight unwinds. Alone, each fits.
    let big_out = 3 * (1u64 << 30) * 6 / 10;
    let reference = run(false, FaultPlan::new(), works(big_out, |_| "scale2"));
    assert!(reference.failed.is_empty());
    let mut r = run(true, FaultPlan::new(), works(big_out, |_| "scale2"));
    assert_eq!(outputs(&r.done), outputs(&reference.done), "digests moved");
    assert!(r.failed.is_empty());
    assert_eq!(r.ledger.retries, 4, "every member retries");
    assert_eq!(r.fused_batches, 0, "the batch never flew");
    for d in &r.done[1..] {
        assert!(d.timing.started > r.done[0].timing.completed);
    }
    // Exact-bytes teardown: nothing leaked by the unwind.
    drop(std::mem::take(&mut r.done));
    r.m.end_job(JOB);
    assert_eq!(r.m.pinned_in_use_bytes(), 0, "pinned bytes leaked");
    assert_eq!(r.m.gpu(0).dmem.used(), 0, "device bytes leaked");
}

#[test]
fn fused_completions_are_counted() {
    let (base, _) = baseline();
    assert!(
        base.prom
            .contains("gflink_works_completed_total{worker=\"0\"} 5\n"),
        "every completion counts, fused or solo"
    );
}

#[test]
fn fused_transient_and_hang_are_traced_and_recorded() {
    let (_, landed) = baseline();
    let plan = FaultPlan::new().with(landed, FaultKind::KernelTransient { gpu: 0 });
    let r = run(true, plan, works(16 << 10, |_| "scale2"));
    assert!(r.trace.contains("\"name\":\"transient\""));
    assert!(r.recorded.contains(&RecKind::TransientFault));
    let plan = FaultPlan::new().with(landed, FaultKind::KernelHang { gpu: 0 });
    let r = run(true, plan, works(16 << 10, |_| "scale2"));
    assert!(r.trace.contains("\"name\":\"hang\""));
    assert!(r.recorded.contains(&RecKind::HangDetected));
}

#[test]
fn missing_kernel_in_a_fused_flight_fails_with_its_typed_error() {
    let r = run(
        true,
        FaultPlan::new(),
        works(16 << 10, |i| if i == 3 { "unregistered" } else { "scale2" }),
    );
    assert_eq!(r.done.len(), 4, "the other members complete");
    assert_eq!(r.failed.len(), 1);
    let f = &r.failed[0];
    assert_eq!(f.tag, (0, 3));
    assert_eq!(f.retries, 0, "a missing kernel is not retried");
    assert!(matches!(
        f.reason,
        FailReason::Fatal(ManagerError::KernelMissing { .. })
    ));
}
