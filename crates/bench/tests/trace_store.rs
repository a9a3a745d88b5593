//! Integration tests for the two-tier trace cache: a cold run (emulate +
//! record) and a warm run (replay from disk) must produce byte-identical
//! normalized manifests at any worker count, and a corrupted trace file
//! must be detected, re-emulated and repaired rather than trusted — also
//! when only a block deep inside a checksum-valid file fails to decode
//! while a scalar cell streams it.

use std::path::PathBuf;
use std::sync::Mutex;
use wsrs_bench::manifest::{grid_manifest, telemetry_on};
use wsrs_bench::{
    run_grid_full, trace_key, CellJob, CellQueue, CellResult, GridRun, RunParams, TraceCache,
    TraceOrigin, TraceProvenance, TraceSampleStore,
};
use wsrs_core::{SampleSpec, SampleStore, SimConfig};
use wsrs_isa::fnv1a_64;
use wsrs_trace::{walk, TraceFile, TraceHeader, TraceKey, TraceStore};
use wsrs_workloads::Workload;

const PARAMS: RunParams = RunParams {
    warmup: 2_000,
    measure: 4_000,
};

fn temp_store(tag: &str) -> (PathBuf, TraceStore) {
    let dir = std::env::temp_dir().join(format!("wsrs-trace-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (dir.clone(), TraceStore::at(dir))
}

fn grid(threads: usize, store: Option<TraceStore>) -> GridRun {
    let workloads = [Workload::Gzip, Workload::Mcf];
    let configs = [
        ("conv", telemetry_on(&SimConfig::conventional_rr(256))),
        ("conv-512", telemetry_on(&SimConfig::conventional_rr(512))),
    ];
    run_grid_full(
        &workloads,
        &configs,
        PARAMS,
        threads,
        store,
        None,
        &|_, _, _, _| {},
    )
}

fn normalized(run: &GridRun) -> String {
    let workloads = [Workload::Gzip, Workload::Mcf];
    let configs = [
        ("conv", telemetry_on(&SimConfig::conventional_rr(256))),
        ("conv-512", telemetry_on(&SimConfig::conventional_rr(512))),
    ];
    grid_manifest(
        "trace-store-test",
        &workloads,
        &configs,
        PARAMS,
        1,
        0.0,
        &run.reports,
        &run.batched,
        &run.samples,
        Some(&run.provenance),
    )
    .normalized_json_string()
}

#[test]
fn cold_then_warm_runs_are_byte_identical_across_thread_counts() {
    let (dir, store) = temp_store("determinism");

    // Cold: every workload emulated and recorded.
    let cold = grid(1, Some(store.clone()));
    assert!(cold
        .provenance
        .sources
        .iter()
        .all(|s| s.origin == TraceOrigin::Emulated));
    assert_eq!(cold.provenance.counters.misses, 2);
    assert_eq!(cold.provenance.counters.disk_hits, 0);
    assert!(cold.provenance.counters.bytes_written > 0);
    assert!(cold.provenance.sources.iter().all(|s| s.checksum.is_some()));

    // Warm, different worker count: every workload replayed, zero
    // emulations, and the normalized manifest is byte-identical (the
    // kept checksums prove the replayed bytes match the recording).
    let warm = grid(3, Some(store.clone()));
    assert!(warm.provenance.all_replayed(), "warm run must not emulate");
    assert_eq!(warm.provenance.counters.misses, 0);
    assert_eq!(warm.provenance.counters.disk_hits, 2);
    assert!(warm.provenance.counters.bytes_read > 0);
    assert_eq!(normalized(&cold), normalized(&warm));

    // A storeless run agrees on the results too (`Report` itself is not
    // comparable; IPC-relevant counters are): replay vs fresh emulation
    // is invisible in the results, only in the provenance.
    let none = grid(2, None);
    for (row_a, row_b) in none.reports.iter().zip(&warm.reports) {
        for (a, b) in row_a.iter().zip(row_b) {
            assert_eq!((a.cycles, a.uops), (b.cycles, b.uops));
        }
    }
    assert!(none.provenance.sources.iter().all(|s| s.checksum.is_none()));

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn corrupt_trace_file_falls_back_to_emulation_and_is_repaired() {
    let (dir, store) = temp_store("corrupt");
    let cold = grid(1, Some(store.clone()));

    // Flip one payload byte of one recorded file.
    let entries = walk::<TraceKey>(store.dir()).expect("store listing");
    assert_eq!(entries.len(), 2);
    let victim = &entries[0].path;
    let mut bytes = std::fs::read(victim).expect("read trace");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(victim, &bytes).expect("corrupt trace");
    assert!(
        TraceFile::open(victim).is_err(),
        "bit flip must fail the checksum"
    );

    // The warm run detects the corruption, re-emulates that workload,
    // replays the other, and still matches the cold run exactly.
    let warm = grid(2, Some(store.clone()));
    assert_eq!(warm.provenance.counters.misses, 1);
    assert_eq!(warm.provenance.counters.disk_hits, 1);
    assert_eq!(normalized(&cold), normalized(&warm));

    // The fallback re-recorded the file: it parses again and a second
    // warm run is replay-only.
    assert!(TraceFile::open(victim).is_ok(), "file must be repaired");
    let again = grid(1, Some(store));
    assert!(again.provenance.all_replayed());

    let _ = std::fs::remove_dir_all(dir);
}

/// The sampling spec of [`scalar_cells`]' sampled cell: its second
/// interval's detailed run reaches the forged block 3 (µops 3000–3999).
const SPEC: SampleSpec = SampleSpec {
    intervals: 3,
    interval_uops: 400,
    detail_warmup: 500,
};

fn cell_config() -> SimConfig {
    telemetry_on(&SimConfig::conventional_rr(256))
}

/// Runs a sampled and then an exact scalar cell of gzip, each as its
/// own single-cell [`CellQueue`] (like a `wsrs-serve` job) over `store`;
/// returns their reports, rendered, and each run's trace provenance.
fn scalar_cells(store: Option<&TraceStore>) -> (Vec<String>, Vec<TraceProvenance>) {
    let exact = CellJob::new(Workload::Gzip, "conv", cell_config(), PARAMS);
    let mut sampled = exact.clone();
    sampled.sample = Some(SPEC);
    let (mut reports, mut provenance) = (Vec::new(), Vec::new());
    for cell in [sampled, exact] {
        let queue = CellQueue::plan(vec![cell]);
        let cache = TraceCache::evicting_per_workload(PARAMS, queue.uses_per_workload())
            .with_store(store.cloned());
        let report = Mutex::new(String::new());
        queue.run_worker(&cache, &|r: CellResult| {
            *report.lock().unwrap() = format!("{:?}", r.report);
        });
        reports.push(report.into_inner().unwrap());
        provenance.push(cache.provenance());
    }
    (reports, provenance)
}

#[test]
fn undecodable_block_mid_stream_is_rerun_on_a_fresh_trace() {
    let (dir, store) = temp_store("midstream");
    let w = Workload::Gzip;
    let (want, _) = scalar_cells(None);

    // Record the trace with small blocks, then break block 3 under a
    // re-sealed checksum: the file opens, and the stream fails mid-way.
    let uops: Vec<_> = w.trace().take(6_000).collect();
    let key = trace_key(w, PARAMS);
    let header = TraceHeader {
        rev: key.rev,
        warmup: key.warmup,
        measure: key.measure,
        uop_count: uops.len() as u64,
        block_uops: 1_000,
        workload: key.workload.clone(),
    };
    let image = wsrs_trace::encode(&header, &uops);
    // Block 3's bytes: after the 50-byte fixed header, the name and the
    // three blocks before it.
    let encoded_len = |from: usize| {
        let mut b = Vec::new();
        wsrs_trace::encode_block(&uops[from..from + 1_000], &mut b);
        b.len()
    };
    let start = 50 + key.workload.len() + (0..3).map(|b| encoded_len(b * 1_000)).sum::<usize>();
    let forged = (start..start + encoded_len(3_000))
        .find_map(|at| {
            let mut bad = image.clone();
            bad[at] = 0xff;
            let n = bad.len();
            let sum = fnv1a_64(&bad[..n - 8]);
            bad[n - 8..].copy_from_slice(&sum.to_le_bytes());
            let f = TraceFile::from_bytes(bad.clone()).expect("checksum is valid");
            // Blocks decode independently: only block 3 can fail.
            f.read_all().is_err().then_some(bad)
        })
        .expect("some byte of block 3 breaks its decode");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(store.path_for(&key), &forged).unwrap();
    assert!(store.open(&key).is_ok(), "the forged checksum holds");

    // Each cell streams. The sampled one hits the bad block, discards its
    // run, re-emulates, re-records and reruns; the exact one streams the
    // repaired file. Both report exactly what fresh traces give.
    let (got, provenance) = scalar_cells(Some(&store));
    assert_eq!(got, want);
    let repaired = store.open(&key).expect("repaired file opens");
    assert_eq!(repaired.read_all().expect("repaired file decodes"), uops);

    // The cut run saved checkpoints only until its stream failed, each
    // the same as the rerun's. A warm state taken after the cut falls
    // short of its `ff_uops`; saved, a later file with the same checksum
    // would adopt it.
    let forged_sum = TraceFile::from_bytes(forged).unwrap().checksum();
    let cut = TraceSampleStore::new(&store, forged_sum, &cell_config(), &SPEC);
    let rerun = TraceSampleStore::new(&store, repaired.checksum(), &cell_config(), &SPEC);
    let saved: Vec<_> = (0..SPEC.intervals).map(|i| cut.load(i)).collect();
    for (i, cp) in (0..).zip(&saved) {
        if let Some(cp) = cp {
            assert_eq!(Some(cp), rerun.load(i).as_ref(), "interval {i}");
        }
    }
    assert!(saved[0].is_some(), "checkpoints before the cut are kept");
    assert!(saved[2].is_none(), "no checkpoint from after the cut");
    let [first, second] = &provenance[..] else {
        panic!("two runs");
    };
    assert_eq!((first.counters.disk_hits, first.counters.misses), (1, 1));
    assert_eq!(first.sources[0].origin, TraceOrigin::Emulated);
    assert_eq!(first.sources[0].checksum, Some(repaired.checksum()));
    assert_eq!((second.counters.disk_hits, second.counters.misses), (1, 0));
    assert_eq!(second.sources[0].checksum, Some(repaired.checksum()));

    let _ = std::fs::remove_dir_all(dir);
}
