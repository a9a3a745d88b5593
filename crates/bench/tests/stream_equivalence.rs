//! Streaming a trace file block by block is a pure memory optimization:
//! for every gate workload, a cell replayed from the streamed
//! [`TraceFile`] must report exactly what the same cell reports over the
//! fully decoded trace (`read_all`), on the exact path and on the sampled
//! path with cold and then warm checkpoints.
//!
//! The default test runs a small window through files with small blocks,
//! so every stream crosses many block boundaries. The full sweep at the
//! gate window is ignored by default; run it in release with
//!
//! ```sh
//! cargo test --release -p wsrs-bench --test stream_equivalence -- --ignored
//! ```
//!
//! It replays traces from (or records them into) the run environment's
//! trace store, the same one `report gate` uses.

use std::path::PathBuf;

use wsrs_bench::manifest::telemetry_on;
use wsrs_bench::windows::gate_params;
use wsrs_bench::{figure4_configs, RunEnv, RunParams, TraceCache, TraceSampleStore};
use wsrs_core::{run_sampled, SampleSpec, SimConfig, Simulator};
use wsrs_trace::{TraceFile, TraceHeader, TraceKey, TraceStore};
use wsrs_workloads::Workload;

/// The gate's most demanding column: WSRS placement also drives the
/// sampled path's subset-map warmer.
fn config() -> SimConfig {
    let (_, cfg) = figure4_configs()
        .into_iter()
        .find(|(n, _)| *n == "WSRS RC S 512")
        .expect("figure4 has a WSRS RC column");
    telemetry_on(&cfg)
}

fn temp_store(tag: &str) -> (PathBuf, TraceStore) {
    let dir = std::env::temp_dir().join(format!("wsrs-stream-eq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (dir.clone(), TraceStore::at(dir))
}

/// Runs `cfg` over `file` streamed and over its decoded µops, exact and
/// sampled (cold, then warm checkpoints), and demands identical reports.
fn assert_stream_matches_decoded(
    w: Workload,
    file: &TraceFile,
    cfg: &SimConfig,
    params: RunParams,
    spec: &SampleSpec,
) {
    let decoded = file.read_all().expect("trace decodes");
    let sim = Simulator::new(*cfg);
    let streamed = sim.run_measured(file.uops_from(0), params.warmup, params.measure);
    let exact = sim.run_measured(decoded.iter().copied(), params.warmup, params.measure);
    // A Report's Debug rendering covers every field.
    assert_eq!(
        format!("{streamed:?}"),
        format!("{exact:?}"),
        "{w}: streamed exact report differs"
    );

    let (dir_s, ckpt_s) = temp_store(&format!("{w}-streamed"));
    let (dir_d, ckpt_d) = temp_store(&format!("{w}-decoded"));
    let on_stream = TraceSampleStore::new(&ckpt_s, file.checksum(), cfg, spec);
    let on_decoded = TraceSampleStore::new(&ckpt_d, file.checksum(), cfg, spec);
    let (p, m) = (params.warmup, params.measure);
    for warmth in ["cold", "warm"] {
        let streamed = run_sampled(cfg, file, p, m, spec, &on_stream);
        let sliced = run_sampled(cfg, &decoded, p, m, spec, &on_decoded);
        assert_eq!(
            format!("{streamed:?}"),
            format!("{sliced:?}"),
            "{w}: streamed sampled report differs ({warmth} checkpoints)"
        );
        if warmth == "warm" {
            assert_eq!(streamed.ff_uops, 0, "{w}: warm run must replay checkpoints");
        }
    }
    assert!(file.stream_error().is_none(), "{w}: stream failed");
    let _ = std::fs::remove_dir_all(dir_s);
    let _ = std::fs::remove_dir_all(dir_d);
}

#[test]
fn streamed_replay_matches_decoded_on_small_blocks() {
    const PARAMS: RunParams = RunParams {
        warmup: 3_000,
        measure: 9_000,
    };
    let spec = SampleSpec {
        intervals: 4,
        interval_uops: 400,
        detail_warmup: 600,
    };
    let cfg = config();
    for w in Workload::all() {
        let uops: Vec<_> = w.trace().take(12_000).collect();
        let header = TraceHeader {
            rev: w.trace_fingerprint(),
            warmup: PARAMS.warmup,
            measure: PARAMS.measure,
            uop_count: uops.len() as u64,
            block_uops: 1_000,
            workload: w.name().to_string(),
        };
        let file = TraceFile::from_bytes(wsrs_trace::encode(&header, &uops)).expect("parses");
        assert!(file.block_count() >= 12, "{w}: streams must cross blocks");
        assert_stream_matches_decoded(w, &file, &cfg, PARAMS, &spec);
    }
}

#[test]
#[ignore = "simulates every gate workload six times; run in release with --ignored"]
fn streamed_replay_matches_decoded_on_every_gate_workload() {
    let params = gate_params();
    let store = RunEnv::from_env().store;
    let cache = TraceCache::evicting(params, 1).with_store(Some(store.clone()));
    let cfg = config();
    for w in Workload::all() {
        // Records the trace on a miss; the test then opens the file.
        drop(cache.checkout(w));
        cache.release(w);
        let key = TraceKey {
            workload: w.name().to_string(),
            warmup: params.warmup,
            measure: params.measure,
            rev: w.trace_fingerprint(),
        };
        let file = store.open(&key).expect("recorded trace opens");
        assert_stream_matches_decoded(w, &file, &cfg, params, &SampleSpec::default());
    }
}
