//! Wire protocol of the job API: submission parsing and status/stream
//! line rendering.
//!
//! A submission (`POST /v1/jobs`) is either a whole named experiment
//!
//! ```json
//! {"experiment": "figure4"}
//! ```
//!
//! or an explicit cell list with one shared measurement window
//!
//! ```json
//! {"warmup": 250000, "measure": 500000,
//!  "cells": [{"workload": "gzip", "config": "RR 256"}]}
//! ```
//!
//! Configurations travel by registry name ([`wsrs_bench::config_registry`])
//! so a submission can never smuggle an unvalidated configuration into
//! the simulator. A job holds exactly one window — mixed windows would
//! need distinct traces per workload inside one trace-cache keyspace, so
//! they are rejected at parse time and belong in separate jobs.

use wsrs_bench::windows::gate_params;
use wsrs_bench::{CellJob, RunParams};
use wsrs_core::SimConfig;
use wsrs_telemetry::Json;

/// A parsed, validated submission: the cells to run, all sharing
/// `params`.
#[derive(Debug)]
pub struct JobSpec {
    /// Cells in submission order (the order result streams replay).
    pub cells: Vec<CellJob>,
    /// The job's single measurement window.
    pub params: RunParams,
}

/// Parses a `POST /v1/jobs` body against the configuration registry.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, unknown
/// experiment/workload/config names, an empty cell list, cells that
/// disagree on the window, or a sample spec with a zero field.
pub fn parse_submission(body: &str, registry: &[(String, SimConfig)]) -> Result<JobSpec, String> {
    let v = Json::parse(body).map_err(|e| format!("malformed JSON body: {e:?}"))?;

    if let Some(name) = v.get("experiment").and_then(Json::as_str) {
        if name == "workgen" {
            return Ok(workgen_spec());
        }
        let (_, configs, workloads) = wsrs_bench::gate_experiments()
            .into_iter()
            .find(|(n, _, _)| *n == name)
            .ok_or_else(|| format!("unknown experiment '{name}'"))?;
        // Experiments run at the gate window so memoized cells are shared
        // with `report gate` runs.
        let params = gate_params();
        let cells = workloads
            .iter()
            .flat_map(|&w| {
                configs
                    .iter()
                    .map(move |(n, cfg)| CellJob::new(w, n, *cfg, params))
            })
            .collect();
        return Ok(JobSpec { cells, params });
    }

    let defaults = gate_params();
    let params = RunParams {
        warmup: v
            .get("warmup")
            .and_then(Json::as_u64)
            .unwrap_or(defaults.warmup),
        measure: v
            .get("measure")
            .and_then(Json::as_u64)
            .unwrap_or(defaults.measure),
    };
    let cell_values = v
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or("body must carry 'experiment' or a 'cells' array")?;
    if cell_values.is_empty() {
        return Err("empty 'cells' array".to_string());
    }
    let mut cells = Vec::with_capacity(cell_values.len());
    for (i, cv) in cell_values.iter().enumerate() {
        let cell = CellJob::from_json(cv, registry, params)
            .ok_or_else(|| format!("cell {i}: unknown workload/config or malformed fields"))?;
        if (cell.params.warmup, cell.params.measure) != (params.warmup, params.measure) {
            return Err(format!(
                "cell {i}: window {}+{} differs from the job's {}+{} — \
                 a job holds one window; submit separate jobs",
                cell.params.warmup, cell.params.measure, params.warmup, params.measure
            ));
        }
        if let Some(s) = &cell.sample {
            if s.intervals == 0 || s.interval_uops == 0 || s.detail_warmup == 0 {
                return Err(format!(
                    "cell {i}: sample intervals, interval_uops and detail_warmup \
                     must all be positive"
                ));
            }
        }
        cells.push(cell);
    }
    Ok(JobSpec { cells, params })
}

/// Expands `{"experiment": "workgen"}`: the standard generated-scenario
/// family ([`wsrs_workgen::presets::standard_family`]) over the `workgen`
/// grid columns, at the gate window. Registering each scenario here makes
/// its `gen:<profile-hash>:<seed>` name resolve process-wide, so the
/// job's trace-cache keys and manifests carry real generated-workload
/// fingerprints.
fn workgen_spec() -> JobSpec {
    let params = gate_params();
    let configs: Vec<(&str, SimConfig)> = wsrs_bench::workgen_configs()
        .into_iter()
        .map(|(n, c)| (n, wsrs_bench::manifest::telemetry_on(&c)))
        .collect();
    let cells = wsrs_workgen::presets::standard_family()
        .iter()
        .flat_map(|s| {
            let w = wsrs_workgen::register(&s.profile, s.seed);
            configs
                .iter()
                .map(move |(n, cfg)| CellJob::new(w, n, *cfg, params))
                .collect::<Vec<_>>()
        })
        .collect();
    JobSpec { cells, params }
}

/// The deterministic first line of a job's result stream. Contains only
/// content (window and cell count) — never the job id or any origin
/// counter — so every stream of the same grid is byte-identical
/// regardless of which client asks, when, or how the cells were
/// obtained.
#[must_use]
pub fn stream_header(params: RunParams, cells: usize) -> String {
    Json::Obj(vec![
        ("schema".to_string(), Json::UInt(1)),
        ("warmup".to_string(), Json::UInt(params.warmup)),
        ("measure".to_string(), Json::UInt(params.measure)),
        ("cells".to_string(), Json::UInt(cells as u64)),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrs_bench::config_registry;

    #[test]
    fn experiment_submission_expands_to_the_gate_grid() {
        let spec = parse_submission("{\"experiment\": \"figure4\"}", &config_registry()).unwrap();
        assert_eq!(spec.cells.len(), 12 * 6);
        let gate = gate_params();
        assert_eq!(
            (spec.params.warmup, spec.params.measure),
            (gate.warmup, gate.measure)
        );
        assert_eq!(spec.cells[0].workload.name(), "gzip");
        assert_eq!(spec.cells[0].config_name, "RR 256");
        assert!(parse_submission("{\"experiment\": \"nonesuch\"}", &config_registry()).is_err());
    }

    #[test]
    fn workgen_submission_expands_the_generated_family() {
        let registry = config_registry();
        let spec = parse_submission("{\"experiment\": \"workgen\"}", &registry).unwrap();
        let family = wsrs_workgen::presets::standard_family();
        assert_eq!(spec.cells.len(), family.len() * 3);
        assert!(spec
            .cells
            .iter()
            .all(|c| c.workload.name().starts_with("gen:")));

        // Parsing registered the family: its gen: names now resolve in a
        // plain cell submission too.
        let name = spec.cells[0].workload.name();
        let body = format!(
            "{{\"warmup\": 1000, \"measure\": 2000, \"cells\": [\
             {{\"workload\": \"{name}\", \"config\": \"RR 512\"}}]}}"
        );
        let cell_spec = parse_submission(&body, &registry).unwrap();
        assert_eq!(cell_spec.cells[0].workload, spec.cells[0].workload);
    }

    #[test]
    fn cell_submission_parses_and_validates() {
        let registry = config_registry();
        let spec = parse_submission(
            "{\"warmup\": 1000, \"measure\": 2000, \"cells\": [\
             {\"workload\": \"gzip\", \"config\": \"RR 256\"},\
             {\"workload\": \"mcf\", \"config\": \"WSRS RC S 512\"}]}",
            &registry,
        )
        .unwrap();
        assert_eq!(spec.cells.len(), 2);
        assert_eq!((spec.params.warmup, spec.params.measure), (1000, 2000));

        for bad in [
            "{",
            "{}",
            "{\"cells\": []}",
            "{\"cells\": [{\"workload\": \"gzip\", \"config\": \"nonesuch\"}]}",
            "{\"cells\": [{\"workload\": \"nonesuch\", \"config\": \"RR 256\"}]}",
            // Per-cell window overriding the job window is rejected.
            "{\"warmup\": 1, \"measure\": 2, \"cells\": [\
             {\"workload\": \"gzip\", \"config\": \"RR 256\", \"warmup\": 9}]}",
        ] {
            assert!(parse_submission(bad, &registry).is_err(), "{bad}");
        }
    }

    /// A zero in any sample field would trip `SampleSpec::validate` inside
    /// a worker thread; the parser turns it away up front instead.
    #[test]
    fn zero_sample_fields_are_rejected() {
        let registry = config_registry();
        let body = |sample: &str| {
            format!(
                "{{\"cells\": [{{\"workload\": \"gzip\", \"config\": \"RR 256\", \
                 \"sample\": {sample}}}]}}"
            )
        };
        let ok = body("{\"intervals\": 4, \"interval_uops\": 500, \"detail_warmup\": 100}");
        assert!(parse_submission(&ok, &registry).unwrap().cells[0]
            .sample
            .is_some());
        for bad in [
            "{\"intervals\": 0, \"interval_uops\": 500, \"detail_warmup\": 100}",
            "{\"intervals\": 4, \"interval_uops\": 0, \"detail_warmup\": 100}",
            "{\"intervals\": 4, \"interval_uops\": 500, \"detail_warmup\": 0}",
        ] {
            let bad = body(bad);
            assert!(parse_submission(&bad, &registry).is_err(), "{bad}");
        }
    }

    #[test]
    fn stream_header_carries_no_job_identity() {
        let h = stream_header(
            RunParams {
                warmup: 10,
                measure: 20,
            },
            6,
        );
        assert_eq!(h, "{\"schema\":1,\"warmup\":10,\"measure\":20,\"cells\":6}");
    }
}
