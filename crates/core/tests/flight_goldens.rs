//! Flight goldens: FNV-64 fingerprints of two fully observed `GpuManager`
//! runs, pinned so that a change to the flight state machine (the
//! H2D → kernel → D2H pipeline every GWork runs through) cannot move a
//! single completion, failure, trace span or exported metric unnoticed.
//!
//! * **solo**: batching off, with a scripted transient, a hang, a missing
//!   kernel and a device loss — every solo recovery path.
//! * **fused**: `BatchConfig::enabled()` on one single-stream GPU in the
//!   backlog regime, no faults — small works fuse, larger ones interleave
//!   as solo flights.
//! * **elastic**: two jobs on two GPUs through a degrade, a join and a
//!   leave of the joined device, the loss of both original GPUs (the
//!   survivors' works fall back to the CPU), a restored checkpoint and
//!   works still pending at teardown — the ledger entries the solo run
//!   leaves at zero.
//! * **staging**: multi-input works, where the two H2D rules differ — a
//!   flight of one copies per input as it stages, a larger flight makes
//!   one fused call after staging every member (cache hits, an allocation
//!   failure after a first copy, a fused call with one item, zero bytes).
//!
//! Each run fingerprints every `CompletedWork` (tag, gpu, stream, every
//! `WorkTiming` field, output bytes) and every `FailedWork` in the order
//! the manager reports them, the Chrome trace JSON, the metrics exports,
//! the flight-recorder events and the fault ledger. The fused run's
//! metrics fingerprint covers the Prometheus export without the
//! `gflink_works_completed_total` series, which `fused_flights.rs` checks
//! directly.

use gflink_core::{
    BatchConfig, CacheKey, CompletedWork, FailedWork, GWork, GpuManager, GpuWorkerConfig, JobId,
    WorkBuf,
};
use gflink_gpu::{GpuModel, KernelArgs, KernelId, KernelProfile, KernelRegistry};
use gflink_memory::HBuffer;
use gflink_sim::{
    FaultKind, FaultPlan, LedgerEntry, LedgerScope, MembershipKind, MembershipPlan, Metrics,
    RetryPolicy, SimRng, SimTime, Tracer,
};
use parking_lot::Mutex;
use std::sync::Arc;

const JOB: JobId = JobId(1);
/// The elastic run's second job, opened as restored from a checkpoint.
const JOB_B: JobId = JobId(2);

/// 64-bit FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn fnv_str(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.str(s);
    h.0
}

fn fp_completed(done: &[CompletedWork]) -> u64 {
    let mut h = Fnv::new();
    for d in done {
        h.u64(d.tag.0 as u64);
        h.u64(d.tag.1 as u64);
        h.u64(d.gpu as u64);
        h.u64(d.stream as u64);
        let t = &d.timing;
        for v in [
            t.submitted.as_nanos(),
            t.started.as_nanos(),
            t.h2d.as_nanos(),
            t.kernel.as_nanos(),
            t.d2h.as_nanos(),
            t.completed.as_nanos(),
            t.cache_hits as u64,
            t.cache_misses as u64,
            t.bytes_h2d,
            t.bytes_d2h,
        ] {
            h.u64(v);
        }
        h.u64(d.emitted.map_or(u64::MAX, |e| e as u64));
        h.bytes(d.output.as_slice());
    }
    h.0
}

fn fp_failed(failed: &[FailedWork]) -> u64 {
    let mut h = Fnv::new();
    for f in failed {
        h.str(&f.name);
        h.u64(f.tag.0 as u64);
        h.u64(f.tag.1 as u64);
        h.u64(f.retries as u64);
        h.str(&format!("{:?}", f.reason));
        h.u64(f.submitted.as_nanos());
        h.u64(f.failed_at.as_nanos());
    }
    h.0
}

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
    // Element-wise sum over every input; a short input reads as zeros.
    reg.register("sum_in", |args: &mut KernelArgs<'_, '_>| {
        for i in 0..args.n_actual {
            let at = i * 4;
            let v: f32 = args
                .inputs
                .iter()
                .filter(|b| b.len() >= at + 4)
                .map(|b| b.read_f32(at))
                .sum();
            args.outputs[0].write_f32(at, v);
        }
        KernelProfile::new(args.n_logical as f64, args.n_logical as f64 * 8.0)
    });
    Arc::new(Mutex::new(reg))
}

/// One four-element `scale2` work of `logical` input bytes; even blocks
/// are cacheable, odd ones transient.
fn mk_work(i: u32, logical: u64, kernel: &str) -> GWork {
    let base = i as f32;
    let data = Arc::new(HBuffer::from_f32s(&[base, base + 0.5, -base, base * 3.0]));
    GWork {
        name: format!("w{i}").into(),
        execute_name: kernel.into(),
        kernel: KernelId::UNRESOLVED,
        ptx_path: "/scale2.ptx".into(),
        block_size: 256,
        grid_size: 1,
        inputs: vec![if i.is_multiple_of(2) {
            WorkBuf::cached(
                data,
                logical,
                CacheKey {
                    dataset: 3,
                    partition: i % 4,
                    block: i,
                },
            )
        } else {
            WorkBuf::transient(data, logical)
        }],
        out_actual_bytes: 16,
        out_logical_bytes: logical,
        out_records: 4,
        params: Arc::from([]),
        n_actual: 4,
        n_logical: logical / 4,
        coalescing: 1.0,
        tag: (0, i),
    }
}

/// Everything a golden run exports.
struct Golden {
    completed: u64,
    failed: u64,
    trace: u64,
    prom: String,
    json: String,
    events: u64,
    ledger: u64,
    done: usize,
    n_failed: usize,
    fused_batches: u64,
}

fn observe(m: &mut GpuManager, tracer: &Tracer, metrics: &Metrics) -> Golden {
    let done = m.drain_job(JOB);
    let failed = m.take_job_failed(JOB);
    let session = m.session(JOB).expect("session open");
    let events = format!("{:?}", session.flight_events());
    let ledger = format!("{:?}", session.faults());
    Golden {
        completed: fp_completed(&done),
        failed: fp_failed(&failed),
        trace: fnv_str(&tracer.export_chrome_json()),
        prom: metrics.export_prometheus(),
        json: metrics.export_json(),
        events: fnv_str(&events),
        ledger: fnv_str(&ledger),
        done: done.len(),
        n_failed: failed.len(),
        fused_batches: m.fused_batches(),
    }
}

/// Two C2050s, two streams each, batching off: a transient on GPU 0, a
/// hang on GPU 1, one work whose kernel was never registered, and GPU 1
/// lost while flights are live on it.
fn solo_run() -> Golden {
    let mut m = GpuManager::new(
        0,
        GpuWorkerConfig {
            models: vec![GpuModel::TeslaC2050; 2],
            streams_per_gpu: 2,
            hang_timeout: SimTime::from_micros(300),
            retry: RetryPolicy {
                max_retries: 100,
                ..RetryPolicy::default()
            },
            ..GpuWorkerConfig::default()
        },
        registry(),
    );
    let tracer = Tracer::new(Tracer::DEFAULT_CAPACITY);
    m.set_tracer(tracer.clone());
    let metrics = Metrics::new(SimTime::from_micros(100));
    m.set_metrics(&metrics);
    m.set_fault_plan(
        FaultPlan::new()
            .with(
                SimTime::from_micros(150),
                FaultKind::KernelTransient { gpu: 0 },
            )
            .with(SimTime::from_micros(400), FaultKind::KernelHang { gpu: 1 })
            .with(SimTime::from_millis(3), FaultKind::GpuLost { gpu: 1 }),
    );
    m.begin_job(JOB);
    let mut rng = SimRng::new(7);
    let mut at = SimTime::ZERO;
    for i in 0..40 {
        at += SimTime::from_micros(10 + rng.gen_range(60));
        let logical = (1u64 << 20) + rng.gen_range(1 << 22);
        let kernel = if i == 17 { "unregistered" } else { "scale2" };
        m.submit_for(JOB, mk_work(i, logical, kernel), at);
    }
    observe(&mut m, &tracer, &metrics)
}

/// One single-stream C2050 with batching on: 64 small works arrive faster
/// than the stream drains them and fuse; every seventh work is too large
/// to batch and runs as a solo flight between the fused ones.
fn fused_run() -> Golden {
    let mut cfg = GpuWorkerConfig {
        models: vec![GpuModel::TeslaC2050],
        streams_per_gpu: 1,
        ..GpuWorkerConfig::default()
    };
    cfg.transfer.batch = BatchConfig::enabled();
    let mut m = GpuManager::new(0, cfg, registry());
    let tracer = Tracer::new(Tracer::DEFAULT_CAPACITY);
    m.set_tracer(tracer.clone());
    let metrics = Metrics::new(SimTime::from_micros(100));
    m.set_metrics(&metrics);
    m.begin_job(JOB);
    let mut rng = SimRng::new(11);
    let mut at = SimTime::ZERO;
    for i in 0..64 {
        at += SimTime::from_micros(1 + rng.gen_range(4));
        let logical = if i % 7 == 3 {
            (1u64 << 20) + rng.gen_range(1 << 20)
        } else {
            (8u64 << 10) + rng.gen_range(32 << 10)
        };
        m.submit_for(JOB, mk_work(i, logical, "scale2"), at);
    }
    observe(&mut m, &tracer, &metrics)
}

/// Everything the elastic run exports: each job's completions and
/// failures, both sessions' recorder events and ledgers, the worker
/// ledger after both jobs closed, and the exports taken after that.
struct ElasticGolden {
    completed: u64,
    failed: u64,
    trace: u64,
    prom: u64,
    json: u64,
    events: u64,
    ledger: u64,
    done: usize,
    n_failed: usize,
}

/// The elastic scenario on one worker with metrics and a tracer on. Both
/// jobs stay open from the first submission to the drain's end; job B
/// opens as restored with tags `(0, 1)`, `(0, 3)` and `(0, 5)` covered.
/// Faults: a transient on GPU 0, a hang on GPU 1, GPU 0 degraded, then
/// GPU 1 and GPU 0 lost. Membership: a device joins (GPU 2) and leaves
/// again before the losses, so the works left after the second loss run
/// on the CPU. Job A's work 17 names an unregistered kernel. Returns the
/// manager with both sessions still open, each job's completions and
/// failures, and the tracer and metrics plane.
#[allow(clippy::type_complexity)]
fn elastic_scenario() -> (
    GpuManager,
    [(Vec<CompletedWork>, Vec<FailedWork>); 2],
    Tracer,
    Metrics,
) {
    let mut m = GpuManager::new(
        0,
        GpuWorkerConfig {
            models: vec![GpuModel::TeslaC2050; 2],
            streams_per_gpu: 2,
            hang_timeout: SimTime::from_micros(300),
            retry: RetryPolicy {
                max_retries: 100,
                ..RetryPolicy::default()
            },
            ..GpuWorkerConfig::default()
        },
        registry(),
    );
    let tracer = Tracer::new(Tracer::DEFAULT_CAPACITY);
    m.set_tracer(tracer.clone());
    let metrics = Metrics::new(SimTime::from_micros(100));
    m.set_metrics(&metrics);
    m.set_fault_plan(
        FaultPlan::new()
            .with(
                SimTime::from_micros(150),
                FaultKind::KernelTransient { gpu: 0 },
            )
            .with(SimTime::from_micros(400), FaultKind::KernelHang { gpu: 1 })
            .with(
                SimTime::from_micros(600),
                FaultKind::GpuDegraded {
                    gpu: 0,
                    throughput: 0.5,
                },
            )
            .with(SimTime::from_millis(4), FaultKind::GpuLost { gpu: 1 })
            .with(SimTime::from_millis(6), FaultKind::GpuLost { gpu: 0 }),
    );
    m.set_membership_plan(
        MembershipPlan::new()
            .with(SimTime::from_millis(1), MembershipKind::Join)
            .with(SimTime::from_millis(3), MembershipKind::Leave { gpu: 2 }),
    );
    m.begin_job(JOB);
    m.restore_job(JOB_B, 1, &[(0, 1), (0, 3), (0, 5)]);
    let mut rng = SimRng::new(13);
    let mut at = SimTime::ZERO;
    for i in 0..40 {
        for job in [JOB, JOB_B] {
            at += SimTime::from_micros(10 + rng.gen_range(200));
            let logical = (1u64 << 20) + rng.gen_range(1 << 22);
            let kernel = if job == JOB && i == 17 {
                "unregistered"
            } else {
                "scale2"
            };
            m.submit_for(job, mk_work(i, logical, kernel), at);
        }
    }
    let a = (m.drain_job(JOB), m.take_job_failed(JOB));
    let b = (m.drain_job(JOB_B), m.take_job_failed(JOB_B));
    (m, [a, b], tracer, metrics)
}

/// Submit three works of job A that no drain will run: they are still
/// pending when the job closes.
fn leave_pending(m: &mut GpuManager) {
    for i in 40..43 {
        m.submit_for(JOB, mk_work(i, 1 << 20, "scale2"), SimTime::from_millis(20));
    }
}

/// The elastic scenario's fingerprints. Three works of job A are still
/// pending when both jobs close.
fn elastic_run() -> ElasticGolden {
    let (mut m, runs, tracer, metrics) = elastic_scenario();
    let mut completed = Fnv::new();
    let mut failed = Fnv::new();
    let mut events = String::new();
    let mut ledger = String::new();
    for (job, (done, fails)) in [JOB, JOB_B].into_iter().zip(&runs) {
        completed.u64(fp_completed(done));
        failed.u64(fp_failed(fails));
        let session = m.session(job).expect("session open");
        events += &format!("{:?}", session.flight_events());
        ledger += &format!("{:?}", session.faults());
    }
    leave_pending(&mut m);
    m.end_job(JOB);
    m.end_job(JOB_B);
    ledger += &format!("{:?}", m.fault_ledger());
    ElasticGolden {
        completed: completed.0,
        failed: failed.0,
        trace: fnv_str(&tracer.export_chrome_json()),
        prom: fnv_str(&metrics.export_prometheus()),
        json: fnv_str(&metrics.export_json()),
        events: fnv_str(&events),
        ledger: fnv_str(&ledger),
        done: runs.iter().map(|r| r.0.len()).sum(),
        n_failed: runs.iter().map(|r| r.1.len()).sum(),
    }
}

/// The Prometheus export without the completed-works series.
fn prom_without_completed(prom: &str) -> String {
    prom.lines()
        .filter(|l| !l.contains("gflink_works_completed_total"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Print every fingerprint; shown when a golden fails, so an intended
/// change can re-record it.
fn report(name: &str, g: &Golden) {
    eprintln!(
        "{name}: completed={:#018x} failed={:#018x} trace={:#018x} prom={:#018x} \
         prom_wo_completed={:#018x} json={:#018x} events={:#018x} ledger={:#018x} \
         done={} n_failed={} fused_batches={}",
        g.completed,
        g.failed,
        g.trace,
        fnv_str(&g.prom),
        fnv_str(&prom_without_completed(&g.prom)),
        fnv_str(&g.json),
        g.events,
        g.ledger,
        g.done,
        g.n_failed,
        g.fused_batches,
    );
}

#[test]
fn solo_run_matches_golden() {
    let g = solo_run();
    report("solo", &g);
    assert_eq!(g.done + g.n_failed, 40, "every work completes or fails");
    assert_eq!(g.n_failed, 1, "only the unregistered kernel fails");
    assert_eq!(g.fused_batches, 0);
    assert_eq!(g.completed, 0x8cd0_1044_36a1_e840, "completions");
    assert_eq!(g.failed, 0xc4e4_7857_a46a_bc7f, "failures");
    assert_eq!(g.trace, 0xde56_c0b2_2603_6990, "Chrome trace");
    assert_eq!(fnv_str(&g.prom), 0x6e24_4c82_983e_f668, "Prometheus export");
    assert_eq!(fnv_str(&g.json), 0xb957_94ac_e261_dbb5, "JSON export");
    assert_eq!(g.events, 0xcb1d_700e_638a_f029, "flight-recorder events");
    assert_eq!(g.ledger, 0xbb77_da83_ee6e_69ce, "fault ledger");
}

#[test]
fn fused_run_matches_golden() {
    let g = fused_run();
    report("fused", &g);
    assert_eq!(g.done, 64);
    assert_eq!(g.n_failed, 0);
    assert!(g.fused_batches > 0, "the backlog regime must fuse");
    assert_eq!(g.completed, 0x18a1_edb7_de19_e350, "completions");
    assert_eq!(g.failed, 0xcbf2_9ce4_8422_2325, "failures");
    assert_eq!(g.trace, 0x5c44_00bf_f55f_71b7, "Chrome trace");
    assert_eq!(
        fnv_str(&prom_without_completed(&g.prom)),
        0x809a_a464_f54b_db54,
        "Prometheus export without the completed-works series"
    );
    assert_eq!(g.events, 0x9c3d_dcd3_288c_214b, "flight-recorder events");
    assert_eq!(g.ledger, 0xb14d_a21a_32c6_3354, "fault ledger");
}

#[test]
fn elastic_run_matches_golden() {
    let g = elastic_run();
    eprintln!(
        "elastic: completed={:#018x} failed={:#018x} trace={:#018x} prom={:#018x} \
         json={:#018x} events={:#018x} ledger={:#018x} done={} n_failed={}",
        g.completed, g.failed, g.trace, g.prom, g.json, g.events, g.ledger, g.done, g.n_failed,
    );
    assert_eq!(
        g.done + g.n_failed,
        80 - 3,
        "every work not restored completes or fails"
    );
    assert_eq!(g.n_failed, 1, "only the unregistered kernel fails");
    assert_eq!(g.completed, 0xbeeb_94e9_5a98_ad4d, "completions");
    assert_eq!(g.failed, 0x7f96_484d_1633_8bc1, "failures");
    assert_eq!(g.trace, 0x7655_dd60_0108_ef37, "Chrome trace");
    assert_eq!(g.prom, 0x4e4f_0eba_70cc_e639, "Prometheus export");
    assert_eq!(g.json, 0xf8bd_e6a5_9b63_e4a8, "JSON export");
    assert_eq!(g.events, 0x82ff_3946_73e7_53a5, "flight-recorder events");
    assert_eq!(g.ledger, 0xc1e9_1c36_164c_89d8, "fault ledgers");
}

/// The double-entry claim, checked for every ledger entry in one place.
/// The elastic scenario reaches every entry, and both of its jobs are open
/// from the first event to teardown. For each entry, the worker ledger
/// equals its live counter; a work-scoped entry equals the sum of the two
/// job ledgers, and a device-scoped entry equals each job's ledger.
#[test]
fn every_ledger_entry_is_double_entry() {
    let (mut m, _, _, metrics) = elastic_scenario();
    leave_pending(&mut m);
    let jobs = [m.end_job(JOB), m.end_job(JOB_B)];
    let worker = m.fault_ledger();
    for e in LedgerEntry::ALL {
        let (name, w) = (e.name(), worker.get(e));
        assert!(w > 0, "the scenario reaches {name}");
        let counter = metrics.counter(&format!("gflink_{name}_total{{worker=\"0\"}}"), "");
        assert_eq!(counter.get(), w, "{name}: live counter");
        match e.scope() {
            LedgerScope::Work => {
                assert_eq!(jobs[0].get(e) + jobs[1].get(e), w, "{name}: sum of jobs")
            }
            LedgerScope::Device => {
                for job in &jobs {
                    assert_eq!(job.get(e), w, "{name}: every open job");
                }
            }
        }
    }
}

/// Every noted event reaches the flight recorder. In the elastic scenario
/// (metrics on, so recorders record), for each ledger entry that has a
/// recorder kind, each session's recorder has recorded as many events of
/// that kind as the session's ledger counts (the bounded ring wraps here,
/// so the count includes evicted events).
#[test]
fn every_recorded_ledger_entry_reaches_the_recorder() {
    let (m, _, _, _) = elastic_scenario();
    for job in [JOB, JOB_B] {
        let session = m.session(job).expect("session open");
        let ledger = session.faults();
        for e in LedgerEntry::ALL {
            if let Some(kind) = e.rec_kind() {
                let (recorded, noted) = (session.flight_recorded(kind), ledger.get(e));
                assert_eq!(recorded, noted, "{job:?}: {} events", e.name());
            }
        }
    }
}

/// One input of a staging-golden work: four `f32`s seeded by `seed` (none
/// at zero logical bytes), cached under block `key` when given.
fn input(seed: u32, logical: u64, key: Option<u32>) -> WorkBuf {
    let base = seed as f32;
    let data = Arc::new(if logical == 0 {
        HBuffer::zeroed(0)
    } else {
        HBuffer::from_f32s(&[base, base + 0.5, -base, base * 1.5])
    });
    match key {
        Some(block) => WorkBuf::cached(
            data,
            logical,
            CacheKey {
                dataset: 9,
                partition: 0,
                block,
            },
        ),
        None => WorkBuf::transient(data, logical),
    }
}

/// A `sum_in` work over `inputs` with `out_logical` output bytes.
fn multi(i: u32, inputs: Vec<WorkBuf>, out_logical: u64) -> GWork {
    GWork {
        inputs,
        out_logical_bytes: out_logical,
        n_logical: 4096,
        ..mk_work(i, 0, "sum_in")
    }
}

/// What a staging golden pins: every completion and failure (per-member
/// `WorkTiming`, outputs), the Chrome trace, the copy-engine busy time and
/// the retries, plus the H2D span counts by label.
#[derive(Debug, PartialEq)]
struct Staging {
    completed: u64,
    failed: u64,
    trace: u64,
    copy_busy_ns: u64,
    retries: u64,
    done: usize,
    n_failed: usize,
    h2d_spans: usize,
    fused_h2d_spans: usize,
}

/// Run `works` on one C2050 with `streams` streams; batching fuses up to
/// `fuse` works when `fuse > 0`.
fn staging_run(streams: usize, fuse: usize, works: Vec<(SimTime, GWork)>) -> Staging {
    let mut cfg = GpuWorkerConfig {
        models: vec![GpuModel::TeslaC2050],
        streams_per_gpu: streams,
        retry: RetryPolicy {
            max_retries: 20,
            ..RetryPolicy::default()
        },
        ..GpuWorkerConfig::default()
    };
    if fuse > 0 {
        cfg.transfer.batch = BatchConfig {
            max_works: fuse,
            ..BatchConfig::enabled()
        };
    }
    let mut m = GpuManager::new(0, cfg, registry());
    let tracer = Tracer::new(Tracer::DEFAULT_CAPACITY);
    m.set_tracer(tracer.clone());
    m.begin_job(JOB);
    for (at, w) in works {
        m.submit_for(JOB, w, at);
    }
    let done = m.drain_job(JOB);
    let failed = m.take_job_failed(JOB);
    let trace = tracer.export_chrome_json();
    let g = Staging {
        completed: fp_completed(&done),
        failed: fp_failed(&failed),
        trace: fnv_str(&trace),
        copy_busy_ns: m.gpu(0).copy_busy().as_nanos(),
        retries: m.job_faults(JOB).retries,
        done: done.len(),
        n_failed: failed.len(),
        h2d_spans: trace.matches("\"name\":\"H2D\"").count(),
        fused_h2d_spans: trace.matches("\"name\":\"H2D(fused)\"").count(),
    };
    eprintln!("{g:x?}");
    g
}

/// A flight of one with three inputs: a transient miss, a hit on the key
/// an earlier work cached, and a cacheable miss — two `H2D` calls.
#[test]
fn staging_golden_flight_of_one_with_three_inputs() {
    let g = staging_run(
        1,
        0,
        vec![
            (
                SimTime::ZERO,
                multi(0, vec![input(1, 64 << 10, Some(1))], 64 << 10),
            ),
            (
                SimTime::from_micros(5),
                multi(
                    1,
                    vec![
                        input(2, 96 << 10, None),
                        input(1, 64 << 10, Some(1)),
                        input(3, 32 << 10, Some(2)),
                    ],
                    64 << 10,
                ),
            ),
        ],
    );
    assert_eq!((g.done, g.n_failed, g.retries), (2, 0, 0));
    assert_eq!(
        (g.h2d_spans, g.fused_h2d_spans),
        (3, 0),
        "one + two solo calls"
    );
    assert_eq!(g.completed, 0x7a64_b0a2_6781_803f, "completions");
    assert_eq!(g.trace, 0x9112_4149_10e8_684a, "Chrome trace");
    assert_eq!(g.copy_busy_ns, 119_001, "copy-engine busy");
}

/// A fused flight of four two-input members behind a blocker that caches
/// key 1: members hit key 1, and key 2 that an earlier member of the same
/// flight inserted; the five misses share one `H2D(fused)` call.
#[test]
fn staging_golden_fused_flight_of_two_input_members() {
    let g = staging_run(
        1,
        4,
        vec![
            (
                SimTime::ZERO,
                multi(
                    0,
                    vec![input(1, 1 << 20, None), input(2, 16 << 10, Some(1))],
                    1 << 20,
                ),
            ),
            (
                SimTime::from_micros(1),
                multi(
                    1,
                    vec![input(3, 16 << 10, Some(1)), input(4, 16 << 10, None)],
                    16 << 10,
                ),
            ),
            (
                SimTime::from_micros(2),
                multi(
                    2,
                    vec![input(5, 8 << 10, Some(2)), input(6, 12 << 10, None)],
                    16 << 10,
                ),
            ),
            (
                SimTime::from_micros(3),
                multi(
                    3,
                    vec![input(5, 8 << 10, Some(2)), input(2, 16 << 10, Some(1))],
                    16 << 10,
                ),
            ),
            (
                SimTime::from_micros(4),
                multi(
                    4,
                    vec![input(7, 4 << 10, None), input(8, 20 << 10, Some(3))],
                    16 << 10,
                ),
            ),
        ],
    );
    assert_eq!((g.done, g.n_failed, g.retries), (5, 0, 0));
    assert_eq!(
        (g.h2d_spans, g.fused_h2d_spans),
        (2, 1),
        "blocker solo, members fused"
    );
    assert_eq!(g.completed, 0x766e_e7b2_62f1_5562, "completions");
    assert_eq!(g.trace, 0x57d9_2c0d_9279_2f41, "Chrome trace");
    assert_eq!(g.copy_busy_ns, 756_611, "copy-engine busy");
}

/// Flights of one whose second input cannot be allocated after the first
/// input's copy was issued: work 1 fits once the blocker's 60%-of-device
/// output is freed, work 2 never fits and runs out of retries. Every
/// attempt's first copy stays reserved on the copy engine.
#[test]
fn staging_golden_second_input_fails_to_allocate() {
    let dev = GpuModel::TeslaC2050.spec().dev_mem_bytes;
    let g = staging_run(
        2,
        0,
        vec![
            (
                SimTime::ZERO,
                multi(0, vec![input(1, 1 << 20, None)], dev / 10 * 6),
            ),
            (
                SimTime::from_micros(1),
                multi(
                    1,
                    vec![input(2, 64 << 10, None), input(3, dev / 2, None)],
                    64 << 10,
                ),
            ),
            (
                SimTime::from_micros(2),
                multi(
                    2,
                    vec![input(4, 64 << 10, None), input(5, dev + 1, None)],
                    64 << 10,
                ),
            ),
        ],
    );
    assert_eq!((g.done, g.n_failed), (2, 1));
    assert_eq!(g.retries, 23, "retries");
    assert_eq!(
        (g.h2d_spans, g.fused_h2d_spans),
        (27, 0),
        "one copy per attempt, two at the last"
    );
    assert_eq!(g.completed, 0xa021_3224_225c_5a40, "completions");
    assert_eq!(g.failed, 0x46d0_2d03_a3e0_1117, "failures");
    assert_eq!(g.trace, 0xc15a_4f9d_317d_c81f, "Chrome trace");
    assert_eq!(g.copy_busy_ns, 1_100_974_190, "copy-engine busy");
}

/// Fused flights in which exactly one input misses, behind a blocker that
/// caches keys 1 and 2: the one-item call is still an `H2D(fused)` call.
/// When the miss is a zero-byte input, the call moves no bytes, pays α,
/// and every member's pro-rata `h2d` is zero.
#[test]
fn staging_golden_fused_flight_with_one_miss() {
    let run = |miss_bytes: u64| {
        staging_run(
            1,
            3,
            vec![
                (
                    SimTime::ZERO,
                    multi(
                        0,
                        vec![
                            input(1, 1 << 20, None),
                            input(2, 8 << 10, Some(1)),
                            input(3, 0, Some(2)),
                        ],
                        1 << 20,
                    ),
                ),
                (
                    SimTime::from_micros(1),
                    multi(1, vec![input(2, 8 << 10, Some(1))], 8 << 10),
                ),
                (
                    SimTime::from_micros(2),
                    multi(
                        2,
                        vec![input(3, 0, Some(2)), input(2, 8 << 10, Some(1))],
                        8 << 10,
                    ),
                ),
                (
                    SimTime::from_micros(3),
                    multi(3, vec![input(4, miss_bytes, None)], 8 << 10),
                ),
            ],
        )
    };
    for (miss_bytes, completed, trace, busy) in [
        (0, 0x86d5_df76_bf03_9538, 0x632f_d808_7067_feeb, 721_703),
        (
            12 << 10,
            0x38fd_994a_f756_8232,
            0x2610_5aa6_e626_4f88,
            725_799,
        ),
    ] {
        let g = run(miss_bytes);
        assert_eq!((g.done, g.n_failed, g.retries), (4, 0, 0));
        assert_eq!((g.h2d_spans, g.fused_h2d_spans), (3, 1), "blocker solo");
        assert_eq!(g.completed, completed, "completions, {miss_bytes} B miss");
        assert_eq!(g.trace, trace, "Chrome trace, {miss_bytes} B miss");
        assert_eq!(
            g.copy_busy_ns, busy,
            "copy-engine busy, {miss_bytes} B miss"
        );
    }
}
