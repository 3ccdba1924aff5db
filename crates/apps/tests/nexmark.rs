//! Nexmark chaos + determinism suite.
//!
//! A Nexmark run must be a pure function of `(NexmarkConfig, FaultPlan)`:
//! identical digests and watermark timelines across repeated runs, across
//! engines, across placement policies, across tenancy mixes, and across a
//! crash → checkpoint-resume boundary. Faults may change *when* windows
//! fire (latency) and *whether* a window survives (loss), but never the
//! value bits of the windows that do.

use gflink_apps::nexmark::{self, Bid, NexmarkConfig};
use gflink_core::{
    segment_name, AggSpec, CheckpointConfig, FabricConfig, GpuFabric, JobSnapshot,
    SchedulingPolicy, SnapshotError, SnapshotSegment, StreamEnv, StreamState, Tumbling,
    WatermarkStrategy, WindowedRun,
};
use gflink_flink::{ClusterConfig, JobGate, SharedCluster};
use gflink_sim::{FaultKind, FaultPlan, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};

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
    assert_eq!(a.report.latency.p99(), b.report.latency.p99());
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

/// Snapshot interval and crash instant of the checkpointed q6 runs.
const EVERY: SimTime = SimTime::from_millis(250);
const CRASH: SimTime = SimTime::from_millis(1_500);

/// A q6 environment named `name` that checkpoints every `every` into the
/// HDFS of a fresh cluster.
fn checkpointed(name: &str, every: SimTime) -> (SharedCluster, GpuFabric, StreamEnv) {
    let cluster = SharedCluster::new(ClusterConfig::standard(WORKERS));
    let fabric = fabric_with(FabricConfig {
        checkpoint: CheckpointConfig::every(every),
        ..FabricConfig::default()
    });
    let env = StreamEnv::gpu(&fabric).with_cluster(&cluster).named(name);
    (cluster, fabric, env)
}

fn clean_q6(cfg: &NexmarkConfig) -> WindowedRun {
    nexmark::q6(&gpu_env(SchedulingPolicy::LocalityAware), cfg).expect("clean run")
}

/// The chain files of invocation 0 of `name`, newest first: the entry
/// point holding the tip, then each predecessor down to the base.
fn chain_files(cluster: &SharedCluster, name: &str) -> Vec<String> {
    let hdfs = &cluster.lock().hdfs;
    let entry = format!("ckpt/{name}/op0");
    let mut files = vec![entry.clone()];
    loop {
        let file = files.last().expect("the entry point");
        let seg = SnapshotSegment::decode(&hdfs.data(file).expect("segment")).expect("intact");
        match seg.link {
            Some(l) => files.push(segment_name(&entry, l.index)),
            None => return files,
        }
    }
}

#[test]
fn crash_then_checkpoint_resume_matches_a_clean_run() {
    let cfg = config();
    let (_, _, env) = checkpointed("nexmark-q6", EVERY);
    let crashed =
        nexmark::q6_with(&env, &cfg, Some(CRASH)).expect("crashed run completes its prefix");
    assert!(crashed.checkpoints > 0, "snapshots were written pre-crash");
    let resumed = nexmark::q6(&env, &cfg).expect("resumed run");
    assert!(resumed.windows_restored > 0, "snapshot windows were reused");
    assert_eq!(resumed.restores_refused, 0);

    let clean = clean_q6(&cfg);
    assert_eq!(clean.digest(), resumed.digest());
    assert_eq!(clean.watermark_digest(), resumed.watermark_digest());
    assert_eq!(clean.windows.len(), resumed.windows.len());
}

/// A checkpointed GPU q6 run calls the bid generator once per record —
/// fresh, crashed or resumed: firing, every snapshot state and the
/// restore's validation all come from one ingest pass.
#[test]
fn checkpointed_q6_generates_each_bid_once() {
    let cfg = config();
    let src = cfg.bid_source();
    let per_batch = cfg.batch_actual as u64;
    let records = src.num_batches() as u64 * per_batch;
    let by_crash = (0..src.num_batches())
        .filter(|&i| src.arrival(i) <= CRASH)
        .count() as u64
        * per_batch;
    let calls = AtomicU64::new(0);
    let q6 = |env: &StreamEnv, crash: Option<SimTime>| {
        let seed = cfg.seed;
        let pipeline = env
            .source(src.clone(), |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                nexmark::bid(&cfg, i)
            })
            .timestamps(
                |b: &Bid| SimTime::from_nanos(b.ts),
                WatermarkStrategy::bounded(cfg.watermark_bound),
            )
            .key_by(move |b| nexmark::auction_seller(seed, b.auction))
            .window(Tumbling::of(cfg.window))
            .aggregate(AggSpec::avg(), |b| b.price);
        let run = match crash {
            Some(at) => pipeline.crash_at(at).run(),
            None => pipeline.run(),
        };
        (run.expect("q6 runs"), calls.swap(0, Ordering::Relaxed))
    };
    let (_, _, env) = checkpointed("fresh", EVERY);
    let (fresh, n) = q6(&env, None);
    assert!(fresh.checkpoints > 0);
    assert_eq!(n, records, "fresh run");
    assert_eq!(
        fresh.digest(),
        clean_q6(&cfg).digest(),
        "the pipeline is q6"
    );

    let (_, _, env) = checkpointed("count", EVERY);
    let (crashed, n) = q6(&env, Some(CRASH));
    assert!(crashed.checkpoints > 0);
    assert_eq!(n, by_crash, "crashed run");
    let (resumed, n) = q6(&env, None);
    assert!(resumed.windows_restored > 0 && resumed.checkpoints > 0);
    assert_eq!(resumed.restores_refused, 0);
    assert_eq!(n, records, "resumed run");
}

/// Snapshot byte identity across the same crash → resume pair: every
/// chain file left behind — the head and each live segment, as `(file,
/// len, crc, epoch)` — and the snapshots and bytes each run wrote. The
/// pinned values are the GFCK v2 layout's: any drift in what a segment
/// holds, or in when a chain compacts, shows here.
#[test]
fn checkpointed_q6_snapshots_are_byte_identical() {
    let cfg = config();
    let (cluster, _, env) = checkpointed("nexmark-q6", EVERY);
    let files = || {
        let cl = cluster.lock();
        cl.hdfs
            .list()
            .into_iter()
            .filter(|f| f.starts_with("ckpt/"))
            .map(|f| {
                let m = *cl.hdfs.manifest(&f).expect("snapshot manifest");
                (f, m.len, m.crc, m.epoch)
            })
            .collect::<Vec<_>>()
    };
    let crashed =
        nexmark::q6_with(&env, &cfg, Some(CRASH)).expect("crashed run completes its prefix");
    assert_eq!((crashed.checkpoints, crashed.checkpoint_bytes), (4, 10_535));
    let file = |f: &str| format!("ckpt/nexmark-q6/{f}");
    assert_eq!(
        files(),
        vec![
            (file("op0"), 2_752, 350_502_837, 4),
            (file("op0.3"), 5_129, 4_234_187_618, 3),
        ]
    );
    let resumed = nexmark::q6(&env, &cfg).expect("resumed run");
    assert_eq!((resumed.checkpoints, resumed.checkpoint_bytes), (7, 24_625));
    assert_eq!(files(), vec![(file("op0"), 9_966, 3_150_387_082, 11)]);
}

/// The differential against the v1 writer. With chain verification on,
/// after every tick of a crashed and then a resumed q6 run the chain
/// folds to exactly the snapshot the v1 writer would have written at
/// that tick: frontier, state bytes, blocks in completion order and
/// cache manifest. And a crash at any tick a clean checkpointed run cuts
/// resumes bit-identically.
#[test]
fn q6_chains_fold_to_the_v1_cut_at_every_tick() {
    let cfg = config();
    let clean = clean_q6(&cfg);
    let (_, fabric, env) = checkpointed("diff", EVERY);
    fabric.with_checkpoints(|c| c.verify_chains());
    let crashed = nexmark::q6_with(&env, &cfg, Some(CRASH)).expect("crashed run");
    let resumed = nexmark::q6(&env, &cfg).expect("resumed run");
    assert_eq!(resumed.digest(), clean.digest());
    let audits = fabric.with_checkpoints(|c| c.take_audits());
    assert_eq!(
        audits.len() as u64,
        crashed.checkpoints + resumed.checkpoints
    );
    assert!(
        audits.iter().all(|a| a.written && a.folds_to_cut),
        "{audits:?}"
    );

    let (_, fabric, env) = checkpointed("ticks", EVERY);
    fabric.with_checkpoints(|c| c.verify_chains());
    nexmark::q6(&env, &cfg).expect("checkpointed run");
    let mut ticks: Vec<SimTime> = fabric
        .with_checkpoints(|c| c.take_audits())
        .iter()
        .map(|a| a.tick)
        .collect();
    ticks.dedup();
    assert!(ticks.len() >= 6, "{ticks:?}");
    for tick in ticks {
        let (_, _, env) = checkpointed("resume", EVERY);
        nexmark::q6_with(&env, &cfg, Some(tick)).expect("crashed run");
        let resumed = nexmark::q6(&env, &cfg).expect("resumed run");
        assert!(resumed.windows_restored > 0, "crash at {tick}");
        assert_eq!(resumed.restores_refused, 0, "crash at {tick}");
        assert_eq!(resumed.digest(), clean.digest(), "crash at {tick}");
        assert_eq!(resumed.watermark_digest(), clean.watermark_digest());
    }
}

/// Corrupt-snapshot fuzz over a real q6 chain: every truncation and a
/// stride of single-bit flips of the tip segment, the base and the GFSS
/// window state inside them decode to a typed error or to a value that
/// survives its own encode → decode round trip. None may panic.
#[test]
fn corrupt_q6_snapshots_decode_without_panicking() {
    let (cluster, _, env) = checkpointed("fuzz", EVERY);
    nexmark::q6_with(&env, &config(), Some(CRASH)).expect("q6 runs");
    let files = chain_files(&cluster, "fuzz");
    let data = |f: &String| cluster.lock().hdfs.data(f).expect("chain file");
    let (tip, base) = (data(&files[0]), data(&files[files.len() - 1]));
    assert!(files.len() > 1, "the tip is a delta: {files:?}");
    let seg = SnapshotSegment::decode(&tip).expect("an intact segment decodes");
    assert!(seg.link.is_some() && !seg.snapshot.blocks.is_empty());
    assert!(StreamState::decode(&seg.snapshot.state).is_ok());
    assert!(JobSnapshot::decode(&base).is_ok(), "the base stands alone");

    fn fuzz<V: PartialEq + std::fmt::Debug>(
        bytes: &[u8],
        decode: impl Fn(&[u8]) -> Result<V, SnapshotError>,
        encode: impl Fn(&V) -> Vec<u8>,
    ) {
        let check = |input: &[u8]| {
            if let Ok(v) = decode(input) {
                assert_eq!(decode(&encode(&v)).as_ref(), Ok(&v));
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
    fuzz(&tip, SnapshotSegment::decode, SnapshotSegment::encode);
    fuzz(&base, JobSnapshot::decode, JobSnapshot::encode);
    fuzz(
        &seg.snapshot.state,
        StreamState::decode,
        StreamState::encode,
    );
}

/// Chain corruption on a real crashed q6 run. Truncating or bit-flipping
/// any chain file on disk, deleting the base or a middle delta, or
/// swapping two deltas is a typed error, never a panic and never a silent
/// wrong restore: the relaunch refuses the chain, counts the refusal and
/// replays from zero to the clean run's digest. A predecessor rewritten
/// whole, manifest and all, still breaks the chain at its link.
#[test]
fn corrupt_q6_chains_are_refused_and_replay_from_zero() {
    // Long enough for the crashed run's chain to hold a base and three
    // deltas.
    let mut cfg = config();
    cfg.duration = SimTime::from_secs(6);
    let clean = clean_q6(&cfg);
    let crashed = || {
        let (cluster, fabric, env) = checkpointed("chain", EVERY);
        nexmark::q6_with(&env, &cfg, Some(SimTime::from_secs(5))).expect("crashed run");
        (cluster, fabric, env)
    };
    let inspect = |cluster: &SharedCluster, fabric: &GpuFabric| {
        fabric.with_checkpoints(|c| c.inspect(&cluster.lock().hdfs, "chain", 0).map(|_| ()))
    };
    let tamper = |cluster: &SharedCluster, file: &str, f: &dyn Fn(&mut Vec<u8>)| {
        cluster.lock().hdfs.tamper(file, f).expect("chain file");
    };
    // Rewrite `file` through the snapshot path, manifest and all.
    let rewrite = |cluster: &SharedCluster, file: &str, bytes: Vec<u8>| {
        let mut cl = cluster.lock();
        cl.hdfs
            .snapshot_at(0, file, bytes, SimTime::ZERO)
            .expect("rewrite");
    };
    let relaunch_refuses = |env: &StreamEnv, what: &str| {
        let run = nexmark::q6(env, &cfg).expect("relaunch");
        assert_eq!(run.restores_refused, 1, "{what}");
        assert_eq!(run.windows_restored, 0, "{what}");
        assert_eq!(run.digest(), clean.digest(), "{what}");
        assert_eq!(run.watermark_digest(), clean.watermark_digest(), "{what}");
    };

    // Every chain file, truncated at a stride of lengths and flipped at a
    // stride of bits on disk, fails its CRC; every predecessor rewritten
    // that way breaks its link.
    let (cluster, fabric, _) = crashed();
    let files = chain_files(&cluster, "chain");
    assert!(files.len() >= 4, "a tip, two deltas and a base: {files:?}");
    for (i, file) in files.iter().enumerate() {
        let bytes = cluster.lock().hdfs.data(file).expect("chain file").to_vec();
        let cuts = (0..bytes.len()).step_by(bytes.len() / 16 + 1);
        let flips = (0..bytes.len() * 8).step_by(bytes.len() / 8 + 1);
        let corrupt = cuts.map(|n| bytes[..n].to_vec()).chain(flips.map(|bit| {
            let mut b = bytes.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            b
        }));
        for bad in corrupt {
            tamper(&cluster, file, &|d| d.clone_from(&bad));
            let rotted = SnapshotError::CrcMismatch { file: file.clone() };
            assert_eq!(inspect(&cluster, &fabric), Err(rotted));
            tamper(&cluster, file, &|d| d.clone_from(&bytes));
            if i > 0 {
                rewrite(&cluster, file, bad);
                let broken = SnapshotError::BrokenChain { file: file.clone() };
                assert_eq!(inspect(&cluster, &fabric), Err(broken));
                rewrite(&cluster, file, bytes.clone());
            }
        }
        assert_eq!(inspect(&cluster, &fabric), Ok(()), "healed {file}");
    }

    // Each kind of damage, then a relaunch.
    let n = files.len();
    for file in &files {
        let (cluster, _, env) = crashed();
        tamper(&cluster, file, &|d| d.truncate(d.len() / 2));
        relaunch_refuses(&env, &format!("truncated {file}"));
        let (cluster, _, env) = crashed();
        tamper(&cluster, file, &|d| {
            let mid = d.len() / 2;
            d[mid] ^= 0x10;
        });
        relaunch_refuses(&env, &format!("bit-flipped {file}"));
    }
    let (cluster, fabric, env) = crashed();
    cluster
        .lock()
        .hdfs
        .delete(&files[n - 1])
        .expect("delete base");
    assert!(matches!(
        inspect(&cluster, &fabric),
        Err(SnapshotError::MissingBase { .. })
    ));
    relaunch_refuses(&env, "deleted base");
    let (cluster, fabric, env) = crashed();
    cluster
        .lock()
        .hdfs
        .delete(&files[n - 2])
        .expect("delete delta");
    assert!(matches!(
        inspect(&cluster, &fabric),
        Err(SnapshotError::MissingBase { .. })
    ));
    relaunch_refuses(&env, "deleted middle delta");
    let (cluster, fabric, env) = crashed();
    let (a, b) = {
        let hdfs = &cluster.lock().hdfs;
        let data = |f: &String| hdfs.data(f).expect("delta").to_vec();
        (data(&files[1]), data(&files[2]))
    };
    rewrite(&cluster, &files[1], b);
    rewrite(&cluster, &files[2], a);
    assert!(matches!(
        inspect(&cluster, &fabric),
        Err(SnapshotError::BrokenChain { .. })
    ));
    relaunch_refuses(&env, "swapped deltas");
}

/// A segment write that fails — every datanode down at its tick, for
/// each tick of a crashed run in turn — is skipped: the next segment
/// chains from the last one written, every tick still folds to the
/// snapshot of the last tick that landed, and the resume after the crash
/// is bit-identical.
#[test]
fn failed_segment_write_chains_from_the_last_written() {
    let cfg = config();
    let clean = clean_q6(&cfg);
    let (_, fabric, env) = checkpointed("probe", EVERY);
    fabric.with_checkpoints(|c| c.verify_chains());
    nexmark::q6_with(&env, &cfg, Some(CRASH)).expect("crashed run");
    let ticks: Vec<SimTime> = fabric
        .with_checkpoints(|c| c.take_audits())
        .iter()
        .map(|a| a.tick)
        .collect();
    assert!(ticks.len() >= 4, "{ticks:?}");

    for (k, &down) in ticks.iter().enumerate() {
        let (cluster, fabric, env) = checkpointed("outage", EVERY);
        fabric.with_checkpoints(|c| c.verify_chains());
        for node in 0..WORKERS {
            let until = down + SimTime::from_nanos(1);
            let mut cl = cluster.lock();
            cl.hdfs
                .fail_node_during(node, down, until)
                .expect("a datanode");
        }
        let crashed = nexmark::q6_with(&env, &cfg, Some(CRASH)).expect("crashed run");
        let audits = fabric.with_checkpoints(|c| c.take_audits());
        assert_eq!(audits.len(), ticks.len());
        assert_eq!(crashed.checkpoints, ticks.len() as u64 - 1);
        assert!(!audits[k].written, "{audits:?}");
        assert!(audits.iter().all(|a| a.folds_to_cut), "{audits:?}");
        let resumed = nexmark::q6(&env, &cfg).expect("resumed run");
        assert!(resumed.windows_restored > 0, "down at {down}");
        assert_eq!(resumed.restores_refused, 0, "down at {down}");
        assert_eq!(resumed.digest(), clean.digest(), "down at {down}");
        assert_eq!(resumed.watermark_digest(), clean.watermark_digest());
    }
}

/// Snapshot bytes are linear in run length: at 15, 30 and 60 s with 1 s
/// checkpoints, a run writes at most three times its folded final
/// snapshot, and restoring the chain reads at most twice it. (Rewriting
/// every completed block per tick, as GFCK v1 did, grows with the square
/// of the tick count.)
#[test]
fn q6_snapshot_bytes_are_linear_in_run_length() {
    for secs in [15, 30, 60] {
        let mut cfg = NexmarkConfig::standard(42);
        cfg.duration = SimTime::from_secs(secs);
        let (cluster, fabric, env) = checkpointed("linear", SimTime::from_secs(1));
        let run = nexmark::q6(&env, &cfg).expect("checkpointed run");
        assert!(run.checkpoints >= secs - 1, "{secs} s: {}", run.checkpoints);
        let chain = fabric
            .with_checkpoints(|c| c.inspect(&cluster.lock().hdfs, "linear", 0))
            .expect("intact chain")
            .expect("a chain was written");
        let folded = chain.snapshot.encoded_len() as u64;
        assert!(
            run.checkpoint_bytes <= 3 * folded,
            "{secs} s: wrote {} B for a {folded} B snapshot",
            run.checkpoint_bytes
        );
        assert!(
            chain.bytes_read <= 2 * folded,
            "{secs} s: a restore reads {} B of a {folded} B snapshot",
            chain.bytes_read
        );
    }
}
