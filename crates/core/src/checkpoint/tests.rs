use super::*;
use gflink_hdfs::HdfsConfig;

/// The GFCK v1 writer's layout: one self-contained file per tick holding
/// every completed block. The v2 chains must fold back to exactly the
/// snapshot it would have cut, which this oracle checks byte for byte.
fn encode_v1(s: &JobSnapshot) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, 1);
    put_u64(&mut out, s.job);
    put_u64(&mut out, s.seq);
    put_u64(&mut out, s.frontier.as_nanos());
    put_u64(&mut out, s.state.len() as u64);
    out.extend_from_slice(&s.state);
    put_u64(&mut out, s.blocks.len() as u64);
    for b in &s.blocks {
        put_u32(&mut out, b.tag.0);
        put_u32(&mut out, b.tag.1);
        out.push(u8::from(b.emitted.is_some()));
        put_u64(&mut out, b.emitted.unwrap_or(0) as u64);
        put_u64(&mut out, b.completed_at.as_nanos());
        put_u64(&mut out, b.payload.len() as u64);
        out.extend_from_slice(b.payload.as_slice());
    }
    put_u64(&mut out, s.cache.len() as u64);
    for e in &s.cache {
        put_u32(&mut out, e.worker);
        put_u32(&mut out, e.gpu);
        put_u64(&mut out, e.key.dataset);
        put_u32(&mut out, e.key.partition);
        put_u32(&mut out, e.key.block);
        put_u64(&mut out, e.bytes);
    }
    out
}

fn cache_entry() -> CacheManifestEntry {
    CacheManifestEntry {
        worker: 0,
        gpu: 1,
        key: CacheKey {
            dataset: 8,
            partition: 0,
            block: 1,
        },
        bytes: 4096,
    }
}

fn sample() -> JobSnapshot {
    JobSnapshot {
        job: 42,
        seq: 3,
        frontier: SimTime::from_millis(7),
        state: vec![1, 2, 3],
        blocks: vec![
            SnapshotBlock {
                tag: (0, 1),
                emitted: Some(5),
                completed_at: SimTime::from_micros(10),
                payload: Arc::new(HBuffer::from_bytes(&[9; 16])),
            },
            SnapshotBlock {
                tag: (1, 0),
                emitted: None,
                completed_at: SimTime::from_micros(20),
                payload: Arc::new(HBuffer::zeroed(0)),
            },
        ],
        cache: vec![cache_entry()],
    }
}

/// `n` completed blocks of growing size, one every millisecond.
fn blocks(n: u32) -> Vec<SnapshotBlock> {
    (0..n)
        .map(|i| SnapshotBlock {
            tag: (i % 3, i),
            emitted: (i % 2 == 0).then_some(i as usize),
            completed_at: SimTime::from_millis(u64::from(i) + 1),
            payload: Arc::new(HBuffer::from_bytes(&vec![i as u8; 64 + 8 * i as usize])),
        })
        .collect()
}

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

#[test]
fn encode_decode_roundtrip() {
    let snap = sample();
    let bytes = snap.encode();
    assert_eq!(bytes.len(), snap.encoded_len());
    assert_eq!(JobSnapshot::decode(&bytes), Ok(snap.clone()));
    assert_eq!(snap.covered_tags(), vec![(0, 1), (1, 0)]);
    // Structural guards: truncation, bad magic, version, trailing bytes.
    assert_eq!(
        JobSnapshot::decode(&bytes[..bytes.len() - 1]),
        Err(SnapshotError::Truncated)
    );
    let mut bad = bytes.clone();
    bad[0] = b'X';
    assert_eq!(JobSnapshot::decode(&bad), Err(SnapshotError::BadMagic));
    let mut v1 = bytes.clone();
    v1[4] = 1;
    assert_eq!(JobSnapshot::decode(&v1), Err(SnapshotError::BadVersion(1)));
    let mut long = bytes;
    long.push(0);
    assert_eq!(
        JobSnapshot::decode(&long),
        Err(SnapshotError::TrailingBytes)
    );
    assert_eq!(JobSnapshot::decode(&[]), Err(SnapshotError::Truncated));
    // A delta cannot stand alone.
    let delta = SnapshotSegment {
        index: 4,
        link: Some(SegmentLink {
            index: 3,
            len: 99,
            crc: 7,
        }),
        snapshot: snap,
    };
    let bytes = delta.encode();
    assert_eq!(SnapshotSegment::decode(&bytes), Ok(delta));
    assert_eq!(
        JobSnapshot::decode(&bytes),
        Err(SnapshotError::MissingBase { segment: 3 })
    );
}

#[test]
fn cadence_ticks_step_by_the_interval() {
    let mut cm = CheckpointManager::new(CheckpointConfig::every(ms(10)));
    cm.seed(1, ms(5));
    cm.seed(1, ms(900)); // idempotent
    assert_eq!(cm.due_ticks(1, ms(36)), vec![ms(15), ms(25), ms(35)]);
    // The cursor advanced: nothing more is due until 45 ms.
    assert!(cm.due_ticks(1, ms(44)).is_empty());
    assert_eq!(cm.due_ticks(1, ms(45)), vec![ms(45)]);
    cm.retire_job(1);
}

#[test]
fn seq_counts_operator_invocations_per_job() {
    let mut cm = CheckpointManager::new(CheckpointConfig::default());
    assert_eq!(cm.next_seq(1), 0);
    assert_eq!(cm.next_seq(1), 1);
    assert_eq!(cm.next_seq(2), 0);
    assert_eq!(cm.file_name("kmeans", 1), "ckpt/kmeans/op1");
    assert_eq!(segment_name("ckpt/kmeans/op1", 12), "ckpt/kmeans/op1.12");
}

#[test]
fn stream_state_roundtrip() {
    let state = StreamState {
        batches: 12,
        watermark: Some(ms(340)),
        max_event_ts: ms(380),
        late_records: 2,
        fired: 5,
        open: vec![
            OpenPane {
                start: ms(300),
                end: ms(400),
                key: 7,
                logical: 1.5e6,
                values: vec![1.0, 2.5, -3.25],
            },
            OpenPane {
                start: ms(300),
                end: ms(400),
                key: 9,
                logical: 0.5e6,
                values: vec![],
            },
        ],
    };
    let bytes = state.encode();
    assert_eq!(StreamState::decode(&bytes), Ok(state));
    // None watermark survives the roundtrip too.
    let fresh = StreamState::default();
    assert_eq!(StreamState::decode(&fresh.encode()), Ok(fresh));
    // Structural guards.
    assert_eq!(
        StreamState::decode(&bytes[..bytes.len() - 1]),
        Err(SnapshotError::Truncated)
    );
    let mut bad = bytes.clone();
    bad[0] = b'X';
    assert_eq!(StreamState::decode(&bad), Err(SnapshotError::BadMagic));
    let mut long = bytes;
    long.push(0);
    assert_eq!(
        StreamState::decode(&long),
        Err(SnapshotError::TrailingBytes)
    );
}

#[test]
fn write_then_read_through_hdfs() {
    let mut hdfs = Hdfs::new(2, HdfsConfig::default());
    let cm = CheckpointManager::new(CheckpointConfig::every(ms(1)));
    let snap = sample();
    let tok = cm.write(&mut hdfs, 0, "job", &snap, SimTime::ZERO).unwrap();
    assert_eq!(tok.file, "ckpt/job/op3");
    assert_eq!(tok.epoch, 1);
    assert_eq!(tok.covered, 2);
    assert_eq!(tok.bytes, snap.encoded_len() as u64);
    let restored = cm
        .read(&mut hdfs, 1, "job", 3, tok.taken_at)
        .unwrap()
        .expect("snapshot exists");
    assert_eq!(restored.snapshot, snap);
    assert_eq!(restored.segments, 1);
    assert_eq!(restored.bytes_read, tok.bytes);
    assert!(restored.ready_at > tok.taken_at);
    // A rewrite is a new base with the next index, in place. Absent
    // chains restore to None.
    let tok2 = cm.write(&mut hdfs, 0, "job", &snap, tok.taken_at).unwrap();
    assert_eq!(tok2.epoch, 2);
    assert_eq!(hdfs.list(), vec!["ckpt/job/op3".to_string()]);
    assert!(cm
        .read(&mut hdfs, 0, "job", 9, SimTime::ZERO)
        .unwrap()
        .is_none());
    // Bit-rot is refused, not replayed.
    hdfs.rot("ckpt/job/op3").unwrap();
    let rotted = SnapshotError::CrcMismatch {
        file: "ckpt/job/op3".into(),
    };
    assert_eq!(
        cm.read(&mut hdfs, 0, "job", 3, SimTime::ZERO).unwrap_err(),
        rotted
    );
    assert_eq!(cm.inspect(&hdfs, "job", 3).unwrap_err(), rotted);
}

/// The chain after every tick — deltas, compacting bases and a failed
/// write at each tick in turn included — folds to exactly the snapshot
/// the v1 writer would have written at the last tick that landed, byte
/// for byte under the v1 layout; verification agrees, and the written and
/// read bytes stay within the compaction bounds.
#[test]
fn chains_fold_to_the_v1_cut_at_every_tick() {
    let done = blocks(40);
    let cache = [cache_entry()];
    let ticks: Vec<SimTime> = (1..=21).map(|k| ms(2 * k)).chain([ms(42)]).collect();
    let state = |t: SimTime| vec![t.as_millis_f64() as u8; 10 + (t.as_nanos() % 7) as usize];
    let mut deltas = 0;
    // No outage, then every datanode down at each tick in turn.
    for down in std::iter::once(None).chain(ticks.iter().copied().map(Some)) {
        let outage = |hdfs: &mut Hdfs| {
            for node in 0..2 {
                if let Some(t) = down {
                    let until = t + SimTime::from_nanos(1);
                    hdfs.fail_node_during(node, t, until).unwrap();
                }
            }
        };
        let mut hdfs = Hdfs::new(2, HdfsConfig::default());
        outage(&mut hdfs);
        let mut cm = CheckpointManager::new(CheckpointConfig::every(ms(2)));
        cm.verify_chains();
        let mut chain = ChainWriter::new(cm.file_name("j", 0), 0);
        let (mut written, mut bytes, mut last) = (0u64, 0u64, None::<JobSnapshot>);
        for &tick in &ticks {
            let upto = done.partition_point(|b| b.completed_at <= tick);
            let st = state(tick);
            let cut = Cut {
                job: 5,
                seq: 0,
                frontier: tick,
                state: &st,
                blocks: &done[..upto],
                cache: &cache,
            };
            if let Ok(tok) = chain.cut(&mut hdfs, &cut, tick) {
                written += 1;
                bytes += tok.bytes;
                last = Some(cut.to_snapshot());
                let tip = SnapshotSegment::decode(&hdfs.data("ckpt/j/op0").unwrap()).unwrap();
                deltas += usize::from(down.is_none() && tip.link.is_some());
            }
            let got = cm.inspect(&hdfs, "j", 0).unwrap();
            let what = format!("down at {down:?}, tick {tick}");
            assert_eq!(
                got.as_ref().map(|g| encode_v1(&g.snapshot)),
                last.as_ref().map(encode_v1),
                "{what}"
            );
            if let (Some(got), Some(want)) = (&got, &last) {
                assert!(got.bytes_read <= 2 * want.encoded_len() as u64, "{what}");
            }
        }
        let failed = ticks.iter().filter(|&&t| Some(t) == down).count() as u64;
        assert_eq!(written, ticks.len() as u64 - failed);
        let folded = last.map_or(0, |s| s.encoded_len() as u64);
        assert!(
            down.is_some() || bytes <= 3 * folded,
            "{bytes} B for {folded} B"
        );

        // The same ticks through `write_ticks`, verified by the manager.
        let mut fresh = Hdfs::new(2, HdfsConfig::default());
        outage(&mut fresh);
        let (n, b) = cm.write_ticks(&mut fresh, "j", (5, 0), &ticks, &done, &cache, |t| {
            Some(state(t))
        });
        assert_eq!((n, b), (written, bytes));
        let audits = cm.take_audits();
        assert_eq!(audits.len(), ticks.len());
        assert!(audits.iter().all(|a| a.folds_to_cut), "{audits:?}");
        assert_eq!(audits.iter().filter(|a| !a.written).count() as u64, failed);
    }
    assert!(deltas >= 5, "the outages hit deltas as well as bases");
}

/// A chain whose deltas keep growing compacts: written bytes stay within
/// three times the folded snapshot and a restore reads at most two.
#[test]
fn compaction_keeps_bytes_linear() {
    let mut hdfs = Hdfs::new(1, HdfsConfig::default());
    let mut cm = CheckpointManager::new(CheckpointConfig::every(ms(1)));
    let done = blocks(200);
    let ticks: Vec<SimTime> = (1..=200).map(ms).collect();
    let (n, bytes) = cm.write_ticks(&mut hdfs, "lin", (1, 0), &ticks, &done, &[], |_| {
        Some(vec![7; 32])
    });
    assert_eq!(n, 200);
    let got = cm.inspect(&hdfs, "lin", 0).unwrap().expect("chain");
    let folded = got.snapshot.encoded_len() as u64;
    assert!(bytes <= 3 * folded, "{bytes} B written for {folded} B");
    assert!(got.bytes_read <= 2 * folded);
    assert!(got.segments > 1, "deltas were written");
    // Only the live chain is left: superseded segments were deleted.
    assert_eq!(hdfs.list().len(), got.segments);
}

/// Every way a chain breaks is a typed error: a rotted segment, a
/// missing base or middle delta, swapped deltas, a truncated tip.
#[test]
fn broken_chains_are_typed_errors() {
    let cm = CheckpointManager::new(CheckpointConfig::every(ms(1)));
    let done = blocks(20);
    let ticks: Vec<SimTime> = (10..=13).map(ms).collect();
    let fresh = || {
        let mut hdfs = Hdfs::new(1, HdfsConfig::default());
        let mut cm = CheckpointManager::new(CheckpointConfig::every(ms(1)));
        // Small states keep the chain one base and three deltas.
        cm.write_ticks(&mut hdfs, "c", (1, 0), &ticks, &done, &[], |_| {
            Some(Vec::new())
        });
        hdfs
    };
    let read = |hdfs: &mut Hdfs| cm.read(hdfs, 0, "c", 0, SimTime::ZERO);
    let mut hdfs = fresh();
    let ok = read(&mut hdfs).unwrap().expect("intact chain");
    assert_eq!(ok.segments, 4);
    assert_eq!(ok.snapshot.blocks, done[..13]);
    let entry = "ckpt/c/op0";
    let seg = |i: u64| segment_name(entry, i);
    assert_eq!(
        hdfs.list(),
        vec![entry.to_string(), seg(1), seg(2), seg(3)],
        "the tip at the entry point, the base and two deltas aside"
    );

    for file in [entry.to_string(), seg(2)] {
        let mut hdfs = fresh();
        hdfs.rot(&file).unwrap();
        assert_eq!(
            read(&mut hdfs).unwrap_err(),
            SnapshotError::CrcMismatch { file }
        );
    }
    for missing in [1, 2] {
        let mut hdfs = fresh();
        hdfs.delete(&seg(missing)).unwrap();
        assert_eq!(
            read(&mut hdfs).unwrap_err(),
            SnapshotError::MissingBase { segment: missing }
        );
    }
    let mut hdfs = fresh();
    let (a, b) = (hdfs.data(&seg(2)).unwrap(), hdfs.data(&seg(3)).unwrap());
    hdfs.snapshot_at(0, &seg(2), b.to_vec(), SimTime::ZERO)
        .unwrap();
    hdfs.snapshot_at(0, &seg(3), a.to_vec(), SimTime::ZERO)
        .unwrap();
    assert_eq!(
        read(&mut hdfs).unwrap_err(),
        SnapshotError::BrokenChain { file: seg(3) }
    );
    let mut hdfs = fresh();
    hdfs.snapshot_at(0, entry, vec![0; 3], SimTime::ZERO)
        .unwrap();
    assert_eq!(read(&mut hdfs).unwrap_err(), SnapshotError::Truncated);
}

/// Every segment holds its blocks' payloads by reference, shared with
/// the operator's blocks. Rotting or tampering with a segment rewrites
/// the file's own copy: every payload stays byte-identical, and the next
/// read refuses the chain.
#[test]
fn damaged_segments_leave_shared_payloads_intact() {
    let done = blocks(12);
    let want: Vec<Vec<u8>> = done.iter().map(|b| b.payload.as_slice().to_vec()).collect();
    let ticks = [ms(4), ms(8), ms(12)];
    let entry = "ckpt/s/op0";
    for rot in [true, false] {
        let mut hdfs = Hdfs::new(1, HdfsConfig::default());
        let mut cm = CheckpointManager::new(CheckpointConfig::every(ms(1)));
        cm.write_ticks(&mut hdfs, "s", (1, 0), &ticks, &done, &[], |_| {
            Some(vec![3; 8])
        });
        assert!(hdfs.list().len() >= 2, "a base and a delta at least");
        assert!(
            done.iter().all(|b| Arc::strong_count(&b.payload) == 2),
            "each payload is stored once, by reference"
        );
        for file in hdfs.list() {
            if rot {
                hdfs.rot(&file).unwrap();
            } else {
                let flip = |data: &mut Vec<u8>| data.iter_mut().for_each(|b| *b ^= 0xFF);
                hdfs.tamper(&file, flip).unwrap();
            }
        }
        let got: Vec<Vec<u8>> = done.iter().map(|b| b.payload.as_slice().to_vec()).collect();
        assert_eq!(got, want, "rot {rot}");
        assert_eq!(
            cm.read(&mut hdfs, 0, "s", 0, SimTime::ZERO).unwrap_err(),
            SnapshotError::CrcMismatch { file: entry.into() }
        );
    }
}
