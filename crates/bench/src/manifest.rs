//! [`Report`] → [`RunManifest`] glue for the experiment binaries: cell
//! records, grid manifests, and the on-disk layout — committed baselines
//! (`BENCH_<experiment>.json`) live at the repository root so regressions
//! show up in review diffs, fresh copies go under `artifacts/`.

use crate::{RunParams, SampleOutcome, TraceProvenance};
use std::path::{Path, PathBuf};
use wsrs_core::{Report, SimConfig};
use wsrs_telemetry::manifest::{git_revision, SCHEMA_VERSION};
use wsrs_telemetry::{CellRecord, RunManifest, TraceRecord};
use wsrs_workloads::Workload;

/// The repository root, anchored at this crate's location at compile time.
///
/// # Panics
///
/// Panics if the crate has been moved out of `crates/bench`.
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels under the repo root")
        .to_path_buf()
}

/// `<repo>/artifacts`, created on first use. Regenerated experiment
/// outputs (manifests, text reports) land here rather than at the root.
#[must_use]
pub fn artifacts_dir() -> PathBuf {
    let dir = repo_root().join("artifacts");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Committed baseline location: `<repo>/BENCH_<experiment>.json`.
#[must_use]
pub fn baseline_path(experiment: &str) -> PathBuf {
    repo_root().join(format!("BENCH_{experiment}.json"))
}

/// Loads and parses a committed baseline; `None` when absent or malformed.
#[must_use]
pub fn load_baseline(experiment: &str) -> Option<RunManifest> {
    RunManifest::parse(&std::fs::read_to_string(baseline_path(experiment)).ok()?)
}

/// A copy of `cfg` with cycle-attribution telemetry switched on.
#[must_use]
pub fn telemetry_on(cfg: &SimConfig) -> SimConfig {
    let mut c = *cfg;
    c.telemetry = true;
    c
}

/// Builds the manifest cell for one finished (workload, config) run;
/// `batched` records whether the cell ran on the lockstep batch path,
/// `sample` the interval-sampling outcome (`None` for an exact run — the
/// key is then omitted from the JSON entirely, keeping exact baselines
/// byte-identical to the pre-sampling schema).
#[must_use]
pub fn cell_record(
    w: Workload,
    config_name: &str,
    cfg: &SimConfig,
    r: &Report,
    batched: bool,
    sample: Option<&SampleOutcome>,
) -> CellRecord {
    CellRecord {
        workload: w.name().to_string(),
        config: config_name.to_string(),
        config_content_hash: format!("{:016x}", cfg.content_hash()),
        ipc: r.ipc(),
        cycles: r.cycles,
        uops: r.uops,
        branches: r.branches,
        mispredicts: r.mispredicts,
        mispredict_rate: r.mispredict_rate(),
        unbalance_percent: r.unbalance_percent,
        per_cluster_uops: r.per_cluster.clone(),
        frontend_stalls: r.stalls.frontend,
        rename_stalls: r.stalls.rename,
        window_stalls: r.stalls.window,
        l1_miss_rate: r.memory.l1.miss_rate(),
        l2_miss_rate: r.memory.l2.miss_rate(),
        store_forwards: r.store_forwards,
        batched,
        sampled: sample.map(SampleOutcome::to_cell),
        attribution: r.attribution.clone(),
    }
}

/// Assembles a finished grid into a manifest. Cells are workload-major,
/// matching [`run_grid`](crate::run_grid)'s result order, so the manifest
/// (after [`RunManifest::normalized_json_string`]) is byte-identical for
/// any worker count. `batched` holds the grid's per-configuration
/// execution path ([`GridRun::batched`](crate::GridRun)); pass an empty
/// slice for grids known to have run scalar. `samples` holds the grid's
/// per-cell sampling outcomes ([`GridRun::samples`](crate::GridRun));
/// pass an empty slice for exact grids. When any cell was sampled the
/// manifest's experiment name becomes `<experiment>-sampled` — this is
/// the single choke point that keeps a `WSRS_SAMPLED=1` run of an
/// experiment binary from ever clobbering its committed exact baseline.
#[must_use]
#[allow(clippy::too_many_arguments)] // one flat record per manifest field group
pub fn grid_manifest(
    experiment: &str,
    workloads: &[Workload],
    configs: &[(&str, SimConfig)],
    params: RunParams,
    workers: usize,
    wall_secs: f64,
    grid: &[Vec<Report>],
    batched: &[bool],
    samples: &[Vec<Option<SampleOutcome>>],
    provenance: Option<&TraceProvenance>,
) -> RunManifest {
    let mut cells = Vec::with_capacity(workloads.len() * configs.len());
    let mut any_sampled = false;
    for (wi, (w, row)) in workloads.iter().zip(grid).enumerate() {
        for (ci, ((name, cfg), r)) in configs.iter().zip(row).enumerate() {
            let sample = samples.get(wi).and_then(|row| row.get(ci)?.as_ref());
            any_sampled |= sample.is_some();
            cells.push(cell_record(
                *w,
                name,
                cfg,
                r,
                batched.get(ci).copied().unwrap_or(false),
                sample,
            ));
        }
    }
    let (traces, trace_cache) =
        provenance.map_or((Vec::new(), None), |p| (trace_records(p), Some(p.counters)));
    let experiment = if any_sampled {
        format!("{experiment}-sampled")
    } else {
        experiment.to_string()
    };
    RunManifest {
        schema: SCHEMA_VERSION,
        experiment,
        git_rev: git_revision(&repo_root()),
        warmup: params.warmup,
        measure: params.measure,
        workers: workers as u64,
        wall_secs,
        cells,
        traces,
        trace_cache,
    }
}

/// Converts a grid run's per-workload trace sources into manifest rows.
#[must_use]
pub fn trace_records(p: &TraceProvenance) -> Vec<TraceRecord> {
    p.sources
        .iter()
        .map(|s| TraceRecord {
            workload: s.workload.name().to_string(),
            origin: s.origin.as_str().to_string(),
            checksum: s.checksum.map(|c| format!("{c:016x}")).unwrap_or_default(),
            bytes: s.bytes,
        })
        .collect()
}

/// Writes `m` as `BENCH_<experiment>.json` under `dir`; returns the path.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_manifest(m: &RunManifest, dir: &Path) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("BENCH_{}.json", m.experiment));
    std::fs::write(&path, m.to_json_string())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_grid_full;

    #[test]
    fn repo_root_holds_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").is_file());
        assert!(repo_root().join("crates/bench").is_dir());
    }

    #[test]
    fn grid_manifest_roundtrips_and_normalizes() {
        let workloads = [Workload::Gzip];
        let configs = [
            ("conv", SimConfig::conventional_rr(256)),
            ("conv+attr", telemetry_on(&SimConfig::conventional_rr(256))),
        ];
        let params = RunParams {
            warmup: 5_000,
            measure: 10_000,
        };
        let run = run_grid_full(
            &workloads,
            &configs,
            params,
            1,
            None,
            None,
            &|_, _, _, _| {},
        );
        let m = grid_manifest(
            "unit",
            &workloads,
            &configs,
            params,
            1,
            0.25,
            &run.reports,
            &run.batched,
            &run.samples,
            None,
        );
        // An exact grid keeps the plain experiment name and omits the
        // sampled key from every cell.
        assert_eq!(m.experiment, "unit");
        assert!(m.cells.iter().all(|c| c.sampled.is_none()));
        assert_eq!(m.cells.len(), 2);
        // Two sibling single-threaded configs share one lockstep batch,
        // and the manifest records that provenance per cell.
        assert!(m.cells.iter().all(|c| c.batched));
        assert!(m.cells[0].attribution.is_none());
        let attr = m.cells[1].attribution.as_ref().expect("telemetry on");
        assert!(attr.conserved());
        let parsed = RunManifest::parse(&m.to_json_string()).expect("roundtrip");
        assert_eq!(parsed, m);
        // The two configs must fingerprint differently.
        assert_ne!(
            m.cells[0].config_content_hash,
            m.cells[1].config_content_hash
        );
        assert_eq!(
            m.cells[0].config_content_hash,
            format!("{:016x}", configs[0].1.content_hash())
        );
        // Environment fields disappear under normalization.
        let mut other = m.clone();
        other.workers = 7;
        other.wall_secs = 9.0;
        assert_eq!(m.normalized_json_string(), other.normalized_json_string());
    }
}
