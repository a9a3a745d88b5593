//! Integration tests for generated (`gen:`) workloads in the grid
//! harness: synthesized programs must flow through the trace store and
//! manifest pipeline exactly like the named kernels — keyed by their own
//! trace fingerprints, byte-identical across worker counts, and replayed
//! (not re-emulated) from a warm store.

use std::path::PathBuf;
use wsrs_bench::manifest::{grid_manifest, telemetry_on};
use wsrs_bench::{run_grid_full, GridRun, RunParams, TraceOrigin};
use wsrs_core::{AllocPolicy, SimConfig};
use wsrs_regfile::RenameStrategy;
use wsrs_trace::{walk, TraceKey, TraceStore};
use wsrs_workgen::presets::{adversarial_readspec, adversarial_writespec};
use wsrs_workgen::register;
use wsrs_workloads::Workload;

const PARAMS: RunParams = RunParams {
    warmup: 2_000,
    measure: 4_000,
};

fn temp_store(tag: &str) -> (PathBuf, TraceStore) {
    let dir = std::env::temp_dir().join(format!("wsrs-workgen-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (dir.clone(), TraceStore::at(dir))
}

/// One kernel plus the two adversarial presets: the mixed-row case the
/// `workgen` grid binary actually runs.
fn workloads() -> Vec<Workload> {
    vec![
        Workload::Gzip,
        register(&adversarial_readspec(), 1),
        register(&adversarial_writespec(), 1),
    ]
}

fn configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("conv", telemetry_on(&SimConfig::conventional_rr(512))),
        (
            "wsrs-rc",
            telemetry_on(&SimConfig::wsrs(
                512,
                AllocPolicy::RandomCommutative,
                RenameStrategy::ExactCount,
            )),
        ),
    ]
}

fn grid(threads: usize, store: Option<TraceStore>) -> GridRun {
    run_grid_full(
        &workloads(),
        &configs(),
        PARAMS,
        threads,
        store,
        None,
        &|_, _, _, _| {},
    )
}

fn normalized(run: &GridRun) -> String {
    grid_manifest(
        "workgen-grid-test",
        &workloads(),
        &configs(),
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
fn generated_workloads_flow_through_store_and_manifest() {
    let ws = workloads();
    assert!(ws[1].name().starts_with("gen:") && ws[2].name().starts_with("gen:"));
    assert_ne!(
        ws[1].trace_fingerprint(),
        ws[2].trace_fingerprint(),
        "distinct profiles must key distinct traces"
    );

    let (dir, store) = temp_store("flow");

    // Cold: kernel and generated rows alike are emulated and recorded.
    let cold = grid(1, Some(store.clone()));
    assert_eq!(cold.provenance.counters.misses, 3);
    assert!(cold
        .provenance
        .sources
        .iter()
        .all(|s| s.origin == TraceOrigin::Emulated && s.checksum.is_some()));

    // Warm, different worker count: pure replay, and the normalized
    // manifest — workload names, fingerprints, reports, provenance
    // checksums — is byte-identical to the cold run's.
    let warm = grid(4, Some(store.clone()));
    assert!(warm.provenance.all_replayed(), "warm run must not emulate");
    assert_eq!(warm.provenance.counters.disk_hits, 3);
    assert_eq!(normalized(&cold), normalized(&warm));

    // The gen: traces landed under their own names in the store.
    let listed = walk::<TraceKey>(store.dir()).expect("store listing");
    let gen_files = listed.iter().filter(|e| e.name.starts_with("gen:")).count();
    assert_eq!(gen_files, 2, "both generated traces must be on disk");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn generated_rows_are_deterministic_across_thread_counts_without_store() {
    let a = grid(1, None);
    let b = grid(3, None);
    for (row_a, row_b) in a.reports.iter().zip(&b.reports) {
        for (x, y) in row_a.iter().zip(row_b) {
            assert_eq!((x.cycles, x.uops), (y.cycles, y.uops));
        }
    }
}
