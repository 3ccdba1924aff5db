//! Nexmark chaos + determinism suite.
//!
//! A Nexmark run must be a pure function of `(NexmarkConfig, FaultPlan)`:
//! identical digests and watermark timelines across repeated runs, across
//! engines, across placement policies, across tenancy mixes, and across a
//! crash → checkpoint-resume boundary. Faults may change *when* windows
//! fire (latency) and *whether* a window survives (loss), but never the
//! value bits of the windows that do.

use gflink_apps::nexmark::{self, NexmarkConfig};
use gflink_core::{
    CheckpointConfig, FabricConfig, GpuFabric, JobSnapshot, SchedulingPolicy, StreamEnv,
    StreamState, WindowedRun,
};
use gflink_flink::{ClusterConfig, JobGate, SharedCluster};
use gflink_sim::{FaultKind, FaultPlan, SimTime};

const WORKERS: usize = 2;

fn fabric_with(cfg: FabricConfig) -> GpuFabric {
    let fabric = GpuFabric::new(WORKERS, cfg);
    nexmark::register_kernels(&fabric);
    fabric
}

fn gpu_env(policy: SchedulingPolicy) -> StreamEnv {
    let mut cfg = FabricConfig::default();
    cfg.worker.scheduling = policy;
    StreamEnv::gpu(&fabric_with(cfg))
}

fn cpu_env() -> StreamEnv {
    StreamEnv::cpu(&ClusterConfig::standard(WORKERS))
}

fn config() -> NexmarkConfig {
    let mut cfg = NexmarkConfig::standard(42);
    cfg.duration = SimTime::from_secs(2);
    cfg
}

/// One GPU q6 run against a fabric whose worker 0 loses a device at `at`.
fn q6_under_fault(cfg: &NexmarkConfig, at: SimTime) -> WindowedRun {
    let fabric = fabric_with(FabricConfig::default());
    fabric.with_managers(|ms| {
        ms[0].set_fault_plan(FaultPlan::new().with(at, FaultKind::GpuLost { gpu: 0 }));
    });
    nexmark::q6(&StreamEnv::gpu(&fabric), cfg).expect("q6 survives a device loss")
}

#[test]
fn same_seed_and_fault_plan_replays_identically() {
    let cfg = config();
    let kill = SimTime::from_millis(600);
    let a = q6_under_fault(&cfg, kill);
    let b = q6_under_fault(&cfg, kill);
    assert_eq!(a.digest(), b.digest());
    assert_eq!(a.watermark_digest(), b.watermark_digest());
    assert_eq!(a.windows.len(), b.windows.len());
    assert_eq!(a.report.batches, b.report.batches);
    assert_eq!(a.report.lost.len(), b.report.lost.len());
    assert_eq!(a.report.latency_hist.p99(), b.report.latency_hist.p99());
}

#[test]
fn q6_digest_is_invariant_across_engines_and_policies() {
    let cfg = config();
    let cpu = nexmark::q6(&cpu_env(), &cfg).expect("cpu q6");
    let local = nexmark::q6(&gpu_env(SchedulingPolicy::LocalityAware), &cfg).expect("gpu q6");
    let hybrid = nexmark::q6(&gpu_env(SchedulingPolicy::HybridCostModel), &cfg).expect("hybrid q6");
    assert!(!cpu.windows.is_empty());
    assert_eq!(cpu.digest(), local.digest());
    assert_eq!(local.digest(), hybrid.digest());
    assert_eq!(cpu.watermark_digest(), local.watermark_digest());
    assert_eq!(local.watermark_digest(), hybrid.watermark_digest());
    assert_eq!(cpu.report.late_records, local.report.late_records);
}

#[test]
fn q3_digest_is_invariant_across_engines_and_policies() {
    let cfg = config();
    let cpu = nexmark::q3(&cpu_env(), &cfg).expect("cpu q3");
    let local = nexmark::q3(&gpu_env(SchedulingPolicy::LocalityAware), &cfg).expect("gpu q3");
    let hybrid = nexmark::q3(&gpu_env(SchedulingPolicy::HybridCostModel), &cfg).expect("hybrid q3");
    assert!(cpu.rows > 0, "the join-filter kept nothing");
    assert_eq!(cpu.digest, local.digest);
    assert_eq!(local.digest, hybrid.digest);
    assert_eq!(cpu.rows, hybrid.rows);
}

#[test]
fn device_kill_does_not_drift_the_q6_digest() {
    let cfg = config();
    let clean = nexmark::q6(&gpu_env(SchedulingPolicy::LocalityAware), &cfg).expect("clean q6");
    let faulted = q6_under_fault(&cfg, SimTime::from_millis(700));
    // Recovery (retry on the surviving device) keeps every window alive.
    assert!(
        faulted.report.lost.is_empty(),
        "loss despite a spare device"
    );
    assert_eq!(clean.digest(), faulted.digest());
    assert_eq!(clean.watermark_digest(), faulted.watermark_digest());
}

#[test]
fn solo_and_concurrent_tenant_digests_agree() {
    let mut cfg_a = config();
    cfg_a.seed = 11;
    let mut cfg_b = config();
    cfg_b.seed = 22;
    let solo_a = nexmark::q6(&gpu_env(SchedulingPolicy::LocalityAware), &cfg_a).expect("solo a");
    let solo_b = nexmark::q6(&gpu_env(SchedulingPolicy::LocalityAware), &cfg_b).expect("solo b");

    // Both tenants on ONE fabric, genuinely concurrent driver threads,
    // deterministically interleaved by the JobGate baton.
    let fabric = fabric_with(FabricConfig::default());
    let gate = JobGate::new();
    let (ta, tb) = (gate.register(), gate.register());
    let (dual_a, dual_b) = std::thread::scope(|s| {
        let ha = {
            let (gate, fabric, cfg) = (gate.clone(), fabric.clone(), cfg_a.clone());
            s.spawn(move || {
                gate.run(ta, || {
                    nexmark::q6(&StreamEnv::gpu(&fabric).named("tenant-a"), &cfg)
                        .expect("tenant a q6")
                })
            })
        };
        let hb = {
            let (gate, fabric, cfg) = (gate.clone(), fabric.clone(), cfg_b.clone());
            s.spawn(move || {
                gate.run(tb, || {
                    nexmark::q6(&StreamEnv::gpu(&fabric).named("tenant-b").weighted(2), &cfg)
                        .expect("tenant b q6")
                })
            })
        };
        (ha.join().expect("tenant a"), hb.join().expect("tenant b"))
    });
    assert_eq!(solo_a.digest(), dual_a.digest());
    assert_eq!(solo_b.digest(), dual_b.digest());
    assert_eq!(solo_a.watermark_digest(), dual_a.watermark_digest());
    assert_eq!(solo_b.watermark_digest(), dual_b.watermark_digest());
}

#[test]
fn crash_then_checkpoint_resume_matches_a_clean_run() {
    let cfg = config();
    let cluster = SharedCluster::new(ClusterConfig::standard(WORKERS));
    let fabric = fabric_with(FabricConfig {
        checkpoint: CheckpointConfig::every(SimTime::from_millis(250)),
        ..FabricConfig::default()
    });
    let env = StreamEnv::gpu(&fabric)
        .with_cluster(&cluster)
        .named("nexmark-q6");
    let crashed = nexmark::q6_with(&env, &cfg, Some(SimTime::from_millis(1_500)))
        .expect("crashed run completes its prefix");
    assert!(crashed.checkpoints > 0, "snapshots were written pre-crash");
    let resumed = nexmark::q6(&env, &cfg).expect("resumed run");
    assert!(resumed.windows_restored > 0, "snapshot windows were reused");

    let clean = nexmark::q6(&gpu_env(SchedulingPolicy::LocalityAware), &cfg).expect("clean run");
    assert_eq!(clean.digest(), resumed.digest());
    assert_eq!(clean.watermark_digest(), resumed.watermark_digest());
    assert_eq!(clean.windows.len(), resumed.windows.len());
}

/// Snapshot byte identity across the same crash → resume pair: the final
/// snapshot file's `(len, crc, epoch)` and the number of snapshots each
/// run wrote. The pinned values were computed on the commit before
/// snapshot cutting became a single ingest pass; every snapshot must keep
/// its exact bytes however the cutting is implemented.
#[test]
fn checkpointed_q6_snapshots_are_byte_identical() {
    let cfg = config();
    let cluster = SharedCluster::new(ClusterConfig::standard(WORKERS));
    let fabric = fabric_with(FabricConfig {
        checkpoint: CheckpointConfig::every(SimTime::from_millis(250)),
        ..FabricConfig::default()
    });
    let env = StreamEnv::gpu(&fabric)
        .with_cluster(&cluster)
        .named("nexmark-q6");
    let manifest = || {
        let m = *cluster
            .lock()
            .hdfs
            .manifest("ckpt/nexmark-q6/op0")
            .expect("the run wrote its snapshot");
        (m.len, m.crc, m.epoch)
    };
    let crashed = nexmark::q6_with(&env, &cfg, Some(SimTime::from_millis(1_500)))
        .expect("crashed run completes its prefix");
    assert_eq!(crashed.checkpoints, 4);
    assert_eq!(manifest(), (3_982, 1_416_468_091, 4));
    let resumed = nexmark::q6(&env, &cfg).expect("resumed run");
    assert_eq!(resumed.checkpoints, 7);
    assert_eq!(manifest(), (9_937, 3_352_543_570, 11));
}

/// Corrupt-snapshot fuzz over a real q6 snapshot: every truncation and a
/// stride of single-bit flips of the GFCK payload and of the GFSS window
/// state inside it decode to `None` or to a value that survives its own
/// encode → decode round trip. None may panic.
#[test]
fn corrupt_q6_snapshots_decode_without_panicking() {
    let cluster = SharedCluster::new(ClusterConfig::standard(WORKERS));
    let fabric = fabric_with(FabricConfig {
        checkpoint: CheckpointConfig::every(SimTime::from_millis(250)),
        ..FabricConfig::default()
    });
    let env = StreamEnv::gpu(&fabric).with_cluster(&cluster).named("fuzz");
    nexmark::q6_with(&env, &config(), Some(SimTime::from_millis(1_500))).expect("q6 runs");
    let gfck = cluster.lock().hdfs.data("ckpt/fuzz/op0").expect("snapshot");
    let snap = JobSnapshot::decode(&gfck).expect("an intact snapshot decodes");
    assert!(!snap.blocks.is_empty() && StreamState::decode(&snap.state).is_some());

    fn fuzz<V: PartialEq + std::fmt::Debug>(
        bytes: &[u8],
        decode: impl Fn(&[u8]) -> Option<V>,
        encode: impl Fn(&V) -> Vec<u8>,
    ) {
        let check = |input: &[u8]| {
            if let Some(v) = decode(input) {
                assert_eq!(decode(&encode(&v)).as_ref(), Some(&v));
            }
        };
        for len in 0..bytes.len() {
            check(&bytes[..len]);
        }
        let mut flipped = bytes.to_vec();
        for bit in (0..bytes.len() * 8).step_by(7) {
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
    fuzz(&gfck, JobSnapshot::decode, JobSnapshot::encode);
    fuzz(&snap.state, StreamState::decode, StreamState::encode);
}
