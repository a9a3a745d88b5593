//! Run manifests and the regression-gate comparison.
//!
//! A [`RunManifest`] is the self-describing record of one experiment run:
//! which git revision and configs produced it, how many µops were warmed
//! and measured, and per grid cell the IPC, stall breakdown, cache/branch
//! stats and (optionally) the full cycle attribution. Manifests are
//! written as pretty JSON with insertion-ordered fields, so two runs of
//! the same code differ only in the `wall_secs`/`workers` environment
//! fields — [`RunManifest::normalized_json_string`] zeroes those, giving
//! the byte-identical form the determinism checks compare.
//!
//! [`RunManifest::compare`] is the logic behind `wsrs-bench --bin report
//! gate`: per-metric relative tolerances, hard failure on IPC regression,
//! warnings on secondary drift.

use crate::attr::CycleAttribution;
use crate::json::Json;
use std::path::Path;

/// Manifest schema version; bump on breaking field changes.
/// Version 2 added trace provenance (`traces`, `trace_cache`).
pub const SCHEMA_VERSION: u64 = 2;

/// The current git revision, read straight from `.git` (no subprocess):
/// follows `HEAD` through one level of `ref:` indirection, falling back
/// to `packed-refs`, then `"unknown"`.
#[must_use]
pub fn git_revision(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h,
        Err(_) => return "unknown".to_string(),
    };
    let head = head.trim();
    if let Some(refname) = head.strip_prefix("ref: ") {
        if let Ok(hash) = std::fs::read_to_string(git.join(refname)) {
            return hash.trim().to_string();
        }
        if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
            for line in packed.lines() {
                if let Some(hash) = line.strip_suffix(refname) {
                    return hash.trim().to_string();
                }
            }
        }
        return "unknown".to_string();
    }
    head.to_string()
}

/// Sampling provenance and estimate of a cell simulated on the
/// interval-sampled path: the IPC estimate with its measured error bound.
/// All fields are *results* (deterministic for a given spec and trace) —
/// environment-dependent counters like checkpoint hits stay out of
/// manifests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampledCell {
    /// The sampled IPC estimate (inverse mean per-interval CPI).
    pub ipc_estimate: f64,
    /// Half-width of the ~95% confidence interval, absolute IPC.
    pub error_bound: f64,
    /// Coefficient of variation of the per-interval CPIs.
    pub cv: f64,
    /// Measured intervals that contributed.
    pub intervals: u64,
}

impl SampledCell {
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("ipc_estimate".into(), Json::Float(self.ipc_estimate)),
            ("error_bound".into(), Json::Float(self.error_bound)),
            ("cv".into(), Json::Float(self.cv)),
            ("intervals".into(), Json::UInt(self.intervals)),
        ])
    }

    #[must_use]
    pub fn from_json(v: &Json) -> Option<SampledCell> {
        Some(SampledCell {
            ipc_estimate: v.get("ipc_estimate")?.as_f64()?,
            error_bound: v.get("error_bound")?.as_f64()?,
            cv: v.get("cv")?.as_f64()?,
            intervals: v.get("intervals")?.as_u64()?,
        })
    }
}

/// One grid cell: a (workload, config) pair's measured results.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    /// Workload name (e.g. `"gcc-like"`).
    pub workload: String,
    /// Configuration name (e.g. `"wsrs_rc"`).
    pub config: String,
    /// The configuration's one fingerprint: its canonical field-order
    /// content hash (`SimConfig::content_hash`, 16 hex digits). It
    /// detects silent config drift between a baseline and a fresh run,
    /// and it is the config component of `wsrs-serve`'s persistent memo
    /// key, so a streamed or memoized cell can be traced back to the
    /// configuration it was keyed under. Empty in manifests written
    /// before content addressing.
    pub config_content_hash: String,
    pub ipc: f64,
    pub cycles: u64,
    pub uops: u64,
    pub branches: u64,
    pub mispredicts: u64,
    pub mispredict_rate: f64,
    /// Paper §5.3 unbalance degree, percent.
    pub unbalance_percent: f64,
    /// µops committed per cluster, cluster order.
    pub per_cluster_uops: Vec<u64>,
    pub frontend_stalls: u64,
    pub rename_stalls: u64,
    pub window_stalls: u64,
    pub l1_miss_rate: f64,
    pub l2_miss_rate: f64,
    pub store_forwards: u64,
    /// Whether the cell was simulated on the batched lockstep path
    /// (execution provenance; the results are bit-identical to scalar).
    /// Absent in pre-batching manifests, which parse as `false`.
    pub batched: bool,
    /// Present exactly when the cell ran on the interval-sampled path:
    /// the IPC estimate and error bound. Exact cells carry no key, so
    /// pre-sampling manifests and exact baselines are byte-unchanged.
    pub sampled: Option<SampledCell>,
    /// Full cycle attribution when telemetry was enabled for the run.
    pub attribution: Option<CycleAttribution>,
}

/// The cell-record fields added after the format's introduction, parsed
/// tolerantly in one place — each row documents the manifest generation
/// that introduced the field and the default an older document assumes:
///
/// | field                 | introduced with           | older docs parse as |
/// |-----------------------|---------------------------|---------------------|
/// | `batched`             | lockstep batching         | `false`             |
/// | `config_content_hash` | content-addressed memoing | `""`                |
/// | `sampled`             | interval sampling         | `None` (exact cell) |
///
/// Unknown keys are ignored, so retired keys in older documents parse
/// away:
///
/// | retired key   | what it was                                        |
/// |---------------|----------------------------------------------------|
/// | `skip`        | cycle-skipping provenance flag                     |
/// | `config_hash` | `Debug`-text config fingerprint; `config_content_hash` is the one fingerprint now |
///
/// Every future optional cell field belongs here, not ad hoc in
/// [`CellRecord::from_json`], so tolerance rules stay reviewable in one
/// table.
fn optional_cell_fields(v: &Json) -> (bool, String, Option<SampledCell>) {
    (
        v.get("batched").and_then(Json::as_bool).unwrap_or(false),
        v.get("config_content_hash")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        v.get("sampled").and_then(SampledCell::from_json),
    )
}

impl CellRecord {
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("config".into(), Json::Str(self.config.clone())),
            (
                "config_content_hash".into(),
                Json::Str(self.config_content_hash.clone()),
            ),
            ("ipc".into(), Json::Float(self.ipc)),
            ("cycles".into(), Json::UInt(self.cycles)),
            ("uops".into(), Json::UInt(self.uops)),
            ("branches".into(), Json::UInt(self.branches)),
            ("mispredicts".into(), Json::UInt(self.mispredicts)),
            ("mispredict_rate".into(), Json::Float(self.mispredict_rate)),
            (
                "unbalance_percent".into(),
                Json::Float(self.unbalance_percent),
            ),
            (
                "per_cluster_uops".into(),
                Json::Arr(
                    self.per_cluster_uops
                        .iter()
                        .map(|&u| Json::UInt(u))
                        .collect(),
                ),
            ),
            ("frontend_stalls".into(), Json::UInt(self.frontend_stalls)),
            ("rename_stalls".into(), Json::UInt(self.rename_stalls)),
            ("window_stalls".into(), Json::UInt(self.window_stalls)),
            ("l1_miss_rate".into(), Json::Float(self.l1_miss_rate)),
            ("l2_miss_rate".into(), Json::Float(self.l2_miss_rate)),
            ("store_forwards".into(), Json::UInt(self.store_forwards)),
            ("batched".into(), Json::Bool(self.batched)),
        ];
        if let Some(s) = &self.sampled {
            fields.push(("sampled".into(), s.to_json()));
        }
        if let Some(attr) = &self.attribution {
            fields.push(("attribution".into(), attr.to_json()));
        }
        Json::Obj(fields)
    }

    #[must_use]
    pub fn from_json(v: &Json) -> Option<CellRecord> {
        let (batched, config_content_hash, sampled) = optional_cell_fields(v);
        Some(CellRecord {
            workload: v.get("workload")?.as_str()?.to_string(),
            config: v.get("config")?.as_str()?.to_string(),
            config_content_hash,
            ipc: v.get("ipc")?.as_f64()?,
            cycles: v.get("cycles")?.as_u64()?,
            uops: v.get("uops")?.as_u64()?,
            branches: v.get("branches")?.as_u64()?,
            mispredicts: v.get("mispredicts")?.as_u64()?,
            mispredict_rate: v.get("mispredict_rate")?.as_f64()?,
            unbalance_percent: v.get("unbalance_percent")?.as_f64()?,
            per_cluster_uops: v
                .get("per_cluster_uops")?
                .as_arr()?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<Vec<_>>>()?,
            frontend_stalls: v.get("frontend_stalls")?.as_u64()?,
            rename_stalls: v.get("rename_stalls")?.as_u64()?,
            window_stalls: v.get("window_stalls")?.as_u64()?,
            l1_miss_rate: v.get("l1_miss_rate")?.as_f64()?,
            l2_miss_rate: v.get("l2_miss_rate")?.as_f64()?,
            store_forwards: v.get("store_forwards")?.as_u64()?,
            batched,
            sampled,
            attribution: v.get("attribution").and_then(CycleAttribution::from_json),
        })
    }

    /// Key identifying the cell within a grid.
    #[must_use]
    pub fn key(&self) -> (&str, &str) {
        (&self.workload, &self.config)
    }

    /// What the cell breaks of the invariants every cell holds, whatever
    /// its baseline: its cycle attribution conserves slots, and its stall
    /// counts fit its measured window, which books at most one window
    /// stall, one rename stall and `width` frontend slots per cycle.
    #[must_use]
    pub fn invariant_failures(&self) -> Vec<String> {
        let (w, c) = self.key();
        let mut out = Vec::new();
        let mut over = |name: &str, count: u64, bound: u64| {
            if count > bound {
                out.push(format!(
                    "{w}/{c}: {name} {count} exceeds its measured-window bound {bound}"
                ));
            }
        };
        over("window_stalls", self.window_stalls, self.cycles);
        over("rename_stalls", self.rename_stalls, self.cycles);
        if let Some(attr) = &self.attribution {
            over(
                "frontend_stalls",
                self.frontend_stalls,
                self.cycles.saturating_mul(attr.width()),
            );
            if !attr.conserved() {
                out.push(format!(
                    "{w}/{c}: cycle attribution violates slot conservation"
                ));
            }
        }
        out
    }
}

/// Where one workload's µop trace came from during a run.
///
/// `origin` and `bytes` describe the environment (warm vs cold trace
/// store) and are neutralized by [`RunManifest::normalized_json_string`];
/// `checksum` describes the trace *content* and is kept, so a replayed run
/// normalizes identically to the cold run that recorded the trace exactly
/// when the bytes match.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Workload name.
    pub workload: String,
    /// `"emulated"` (built by the functional emulator this run) or
    /// `"replayed"` (loaded from the on-disk trace store).
    pub origin: String,
    /// 16-hex-digit content checksum of the trace file; empty when the
    /// run had no trace store.
    pub checksum: String,
    /// Trace-file bytes read (replayed) or written (recorded); 0 without
    /// a store.
    pub bytes: u64,
}

impl TraceRecord {
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("origin".into(), Json::Str(self.origin.clone())),
            ("checksum".into(), Json::Str(self.checksum.clone())),
            ("bytes".into(), Json::UInt(self.bytes)),
        ])
    }

    #[must_use]
    pub fn from_json(v: &Json) -> Option<TraceRecord> {
        Some(TraceRecord {
            workload: v.get("workload")?.as_str()?.to_string(),
            origin: v.get("origin")?.as_str()?.to_string(),
            checksum: v.get("checksum")?.as_str()?.to_string(),
            bytes: v.get("bytes")?.as_u64()?,
        })
    }
}

/// Aggregate trace-cache counters for one run (environment, not result —
/// dropped by [`RunManifest::normalized_json_string`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Checkouts served from the in-memory tier.
    pub mem_hits: u64,
    /// Builds served by replaying an on-disk trace file.
    pub disk_hits: u64,
    /// Builds that fell through to the functional emulator.
    pub misses: u64,
    /// In-memory entries evicted after their last expected use.
    pub evictions: u64,
    /// Trace-file bytes read from the store.
    pub bytes_read: u64,
    /// Trace-file bytes written to the store.
    pub bytes_written: u64,
}

impl TraceCacheStats {
    /// Adds `other`'s counters to these.
    pub fn absorb(&mut self, other: &TraceCacheStats) {
        let TraceCacheStats {
            mem_hits,
            disk_hits,
            misses,
            evictions,
            bytes_read,
            bytes_written,
        } = other;
        self.mem_hits += mem_hits;
        self.disk_hits += disk_hits;
        self.misses += misses;
        self.evictions += evictions;
        self.bytes_read += bytes_read;
        self.bytes_written += bytes_written;
    }

    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("mem_hits".into(), Json::UInt(self.mem_hits)),
            ("disk_hits".into(), Json::UInt(self.disk_hits)),
            ("misses".into(), Json::UInt(self.misses)),
            ("evictions".into(), Json::UInt(self.evictions)),
            ("bytes_read".into(), Json::UInt(self.bytes_read)),
            ("bytes_written".into(), Json::UInt(self.bytes_written)),
        ])
    }

    #[must_use]
    pub fn from_json(v: &Json) -> Option<TraceCacheStats> {
        Some(TraceCacheStats {
            mem_hits: v.get("mem_hits")?.as_u64()?,
            disk_hits: v.get("disk_hits")?.as_u64()?,
            misses: v.get("misses")?.as_u64()?,
            evictions: v.get("evictions")?.as_u64()?,
            bytes_read: v.get("bytes_read")?.as_u64()?,
            bytes_written: v.get("bytes_written")?.as_u64()?,
        })
    }
}

/// A complete experiment run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunManifest {
    pub schema: u64,
    /// Experiment name (`"figure4"`, `"gate"`, …) — names the
    /// `BENCH_<experiment>.json` file.
    pub experiment: String,
    pub git_rev: String,
    /// Warmup µops per cell.
    pub warmup: u64,
    /// Measured µops per cell.
    pub measure: u64,
    /// Worker threads the grid ran with (environment, not result —
    /// zeroed by [`Self::normalized_json_string`]).
    pub workers: u64,
    /// Wall-clock seconds for the run (environment, not result).
    pub wall_secs: f64,
    /// Per-workload trace provenance (empty when the harness ran without
    /// trace accounting).
    pub traces: Vec<TraceRecord>,
    /// Trace-cache counters, when the harness ran with a cache.
    pub trace_cache: Option<TraceCacheStats>,
    pub cells: Vec<CellRecord>,
}

impl RunManifest {
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema".into(), Json::UInt(self.schema)),
            ("experiment".into(), Json::Str(self.experiment.clone())),
            ("git_rev".into(), Json::Str(self.git_rev.clone())),
            ("warmup".into(), Json::UInt(self.warmup)),
            ("measure".into(), Json::UInt(self.measure)),
            ("workers".into(), Json::UInt(self.workers)),
            ("wall_secs".into(), Json::Float(self.wall_secs)),
            (
                "traces".into(),
                Json::Arr(self.traces.iter().map(TraceRecord::to_json).collect()),
            ),
        ];
        if let Some(stats) = &self.trace_cache {
            fields.push(("trace_cache".into(), stats.to_json()));
        }
        fields.push((
            "cells".into(),
            Json::Arr(self.cells.iter().map(CellRecord::to_json).collect()),
        ));
        Json::Obj(fields)
    }

    #[must_use]
    pub fn from_json(v: &Json) -> Option<RunManifest> {
        Some(RunManifest {
            schema: v.get("schema")?.as_u64()?,
            experiment: v.get("experiment")?.as_str()?.to_string(),
            git_rev: v.get("git_rev")?.as_str()?.to_string(),
            warmup: v.get("warmup")?.as_u64()?,
            measure: v.get("measure")?.as_u64()?,
            workers: v.get("workers")?.as_u64()?,
            wall_secs: v.get("wall_secs")?.as_f64()?,
            // Absent in schema-1 manifests; tolerate so `report check` can
            // still describe a stale baseline instead of calling it
            // malformed.
            traces: match v.get("traces") {
                Some(t) => t
                    .as_arr()?
                    .iter()
                    .map(TraceRecord::from_json)
                    .collect::<Option<Vec<_>>>()?,
                None => Vec::new(),
            },
            trace_cache: v.get("trace_cache").and_then(TraceCacheStats::from_json),
            cells: v
                .get("cells")?
                .as_arr()?
                .iter()
                .map(CellRecord::from_json)
                .collect::<Option<Vec<_>>>()?,
        })
    }

    /// Parses a manifest document, `None` on malformed JSON or schema.
    #[must_use]
    pub fn parse(text: &str) -> Option<RunManifest> {
        Self::from_json(&Json::parse(text).ok()?)
    }

    /// Pretty JSON with a trailing newline — the on-disk format.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().to_string_pretty();
        s.push('\n');
        s
    }

    /// The on-disk form with the environment fields (`workers`,
    /// `wall_secs`, `git_rev`, trace-cache counters, trace origins)
    /// neutralized. Two runs of the same code on the same inputs must
    /// produce byte-identical normalized strings for any `WSRS_THREADS`
    /// and any trace-store warmth — this is what the determinism checks
    /// compare.
    /// Trace `checksum`s are content, not environment, and are
    /// deliberately kept: a warm (replayed) run normalizes identically to
    /// the cold run that recorded it exactly when the trace bytes match.
    #[must_use]
    pub fn normalized_json_string(&self) -> String {
        let mut m = self.clone();
        m.workers = 0;
        m.wall_secs = 0.0;
        m.git_rev = String::new();
        m.trace_cache = None;
        for t in &mut m.traces {
            t.origin = String::new();
            t.bytes = 0;
        }
        m.to_json_string()
    }

    /// Lookup a cell by (workload, config).
    #[must_use]
    pub fn cell(&self, workload: &str, config: &str) -> Option<&CellRecord> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.config == config)
    }

    /// Compares `fresh` (a new run) against `self` (the committed
    /// baseline) under `tol`.
    #[must_use]
    pub fn compare(&self, fresh: &RunManifest, tol: &Tolerances) -> GateOutcome {
        let mut out = GateOutcome::default();
        if self.schema != fresh.schema {
            out.failures.push(format!(
                "schema mismatch: baseline {} vs fresh {}",
                self.schema, fresh.schema
            ));
            return out;
        }
        if (self.warmup, self.measure) != (fresh.warmup, fresh.measure) {
            out.failures.push(format!(
                "run parameters mismatch: baseline {}+{} uops vs fresh {}+{} \
                 (results are not comparable; refresh the baseline)",
                self.warmup, self.measure, fresh.warmup, fresh.measure
            ));
            return out;
        }
        // Trace checksums identify the µop stream each cell consumed. A
        // drift means the *input* changed — any IPC delta below is then
        // workload drift, not a simulator regression, so fail loudly.
        // Empty checksums (no trace store in that run) are not comparable.
        for base_t in &self.traces {
            if base_t.checksum.is_empty() {
                continue;
            }
            let Some(new_t) = fresh.traces.iter().find(|t| t.workload == base_t.workload) else {
                continue;
            };
            if !new_t.checksum.is_empty() && new_t.checksum != base_t.checksum {
                out.failures.push(format!(
                    "{}: trace checksum drifted {} -> {} — the workload's µop \
                     stream changed; refresh the baseline if intentional",
                    base_t.workload, base_t.checksum, new_t.checksum
                ));
            }
        }
        for base in &self.cells {
            let (w, c) = base.key();
            let Some(new) = fresh.cell(w, c) else {
                out.failures
                    .push(format!("cell {w}/{c} missing from fresh run"));
                continue;
            };
            // A cell has one configuration fingerprint: a drift means the
            // committed baseline measured another machine, so its IPC is no
            // reference. Manifests from before content addressing carry no
            // hash: nothing to compare.
            let (b, n) = (&base.config_content_hash, &new.config_content_hash);
            if !b.is_empty() && !n.is_empty() && b != n {
                out.failures.push(format!(
                    "{w}/{c}: config changed ({b} -> {n}) — the baseline \
                     records another configuration; refresh it if intentional"
                ));
            }
            let rel = (new.ipc - base.ipc) / base.ipc.max(f64::MIN_POSITIVE);
            if rel < -tol.ipc_fail {
                out.failures.push(format!(
                    "{w}/{c}: IPC regression {:.2}% (baseline {:.4}, fresh {:.4})",
                    -100.0 * rel,
                    base.ipc,
                    new.ipc
                ));
            } else if rel.abs() > tol.secondary_warn {
                out.warnings.push(format!(
                    "{w}/{c}: IPC moved {:+.2}% (baseline {:.4}, fresh {:.4})",
                    100.0 * rel,
                    base.ipc,
                    new.ipc
                ));
            }
            for (name, b, f) in [
                ("mispredict_rate", base.mispredict_rate, new.mispredict_rate),
                ("l1_miss_rate", base.l1_miss_rate, new.l1_miss_rate),
                ("l2_miss_rate", base.l2_miss_rate, new.l2_miss_rate),
                (
                    "unbalance_percent",
                    base.unbalance_percent,
                    new.unbalance_percent,
                ),
            ] {
                // Secondary metrics warn on absolute drift: they sit near
                // zero, where relative tolerances are meaningless.
                if (f - b).abs() > tol.secondary_abs_warn {
                    out.warnings
                        .push(format!("{w}/{c}: {name} drifted {b:.4} -> {f:.4}"));
                }
            }
            out.failures.extend(new.invariant_failures());
        }
        for new in &fresh.cells {
            let (w, c) = new.key();
            if self.cell(w, c).is_none() {
                out.warnings.push(format!(
                    "cell {w}/{c} is new (not in baseline); refresh to track it"
                ));
            }
        }
        out
    }
}

/// Per-metric comparison tolerances.
#[derive(Clone, Copy, Debug)]
pub struct Tolerances {
    /// Relative IPC drop that fails the gate (0.02 = 2%).
    pub ipc_fail: f64,
    /// Relative IPC movement (either direction) that warns.
    pub secondary_warn: f64,
    /// Absolute drift in rate-like secondary metrics that warns.
    pub secondary_abs_warn: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            ipc_fail: 0.02,
            secondary_warn: 0.005,
            secondary_abs_warn: 0.002,
        }
    }
}

/// The result of a gate comparison.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GateOutcome {
    /// Hard failures — the gate exits nonzero if any are present.
    pub failures: Vec<String>,
    /// Drift worth a look but not a failure.
    pub warnings: Vec<String>,
}

impl GateOutcome {
    /// Whether the gate passes (no failures; warnings allowed).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Merges another outcome into this one.
    pub fn absorb(&mut self, other: GateOutcome) {
        self.failures.extend(other.failures);
        self.warnings.extend(other.warnings);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::SlotBucket;

    fn cell(workload: &str, config: &str, ipc: f64) -> CellRecord {
        CellRecord {
            workload: workload.to_string(),
            config: config.to_string(),
            config_content_hash: "00000000cafef00d".to_string(),
            ipc,
            cycles: 1000,
            uops: (ipc * 1000.0) as u64,
            branches: 100,
            mispredicts: 5,
            mispredict_rate: 0.05,
            unbalance_percent: 3.0,
            per_cluster_uops: vec![250, 250, 250, 250],
            frontend_stalls: 10,
            rename_stalls: 20,
            window_stalls: 30,
            l1_miss_rate: 0.04,
            l2_miss_rate: 0.01,
            store_forwards: 7,
            batched: false,
            sampled: None,
            attribution: None,
        }
    }

    fn manifest(cells: Vec<CellRecord>) -> RunManifest {
        RunManifest {
            schema: SCHEMA_VERSION,
            experiment: "test".to_string(),
            git_rev: "deadbeef".to_string(),
            warmup: 100,
            measure: 200,
            workers: 3,
            wall_secs: 1.5,
            traces: vec![TraceRecord {
                workload: "gcc".to_string(),
                origin: "emulated".to_string(),
                checksum: "00000000deadbeef".to_string(),
                bytes: 4096,
            }],
            trace_cache: Some(TraceCacheStats {
                mem_hits: 5,
                disk_hits: 1,
                misses: 1,
                evictions: 2,
                bytes_read: 4096,
                bytes_written: 4096,
            }),
            cells,
        }
    }

    #[test]
    fn manifest_roundtrip() {
        let mut c = cell("gcc", "wsrs_rc", 2.5);
        let mut attr = CycleAttribution::new(8);
        attr.charge_cycle(5, SlotBucket::Memory);
        c.attribution = Some(attr);
        let m = manifest(vec![c]);
        let text = m.to_json_string();
        assert_eq!(RunManifest::parse(&text).unwrap(), m);
    }

    #[test]
    fn normalization_hides_environment() {
        let mut a = manifest(vec![cell("gcc", "rr", 2.0)]);
        let mut b = a.clone();
        b.workers = 16;
        b.wall_secs = 99.0;
        b.git_rev = "other".to_string();
        // Trace warmth is environment: a replay of the same bytes must
        // normalize identically to the recording run…
        b.traces[0].origin = "replayed".to_string();
        b.traces[0].bytes = 9999;
        b.trace_cache = None;
        assert_ne!(a.to_json_string(), b.to_json_string());
        assert_eq!(a.normalized_json_string(), b.normalized_json_string());
        // …but the checksum is content and must stay visible.
        let mut c = a.clone();
        c.traces[0].checksum = "1111111111111111".to_string();
        assert_ne!(a.normalized_json_string(), c.normalized_json_string());
        a.cells[0].ipc = 2.1;
        assert_ne!(a.normalized_json_string(), b.normalized_json_string());
    }

    #[test]
    fn gate_fails_on_trace_checksum_drift() {
        let base = manifest(vec![cell("gcc", "rr", 2.0)]);
        let mut fresh = base.clone();
        fresh.traces[0].checksum = "ffffffffffffffff".to_string();
        let out = base.compare(&fresh, &Tolerances::default());
        assert!(!out.passed());
        assert!(out.failures[0].contains("checksum drifted"), "{out:?}");

        // Runs without a store (empty checksum) are not comparable and
        // must not fail.
        let mut storeless = base.clone();
        storeless.traces[0].checksum = String::new();
        assert!(base.compare(&storeless, &Tolerances::default()).passed());
        assert!(storeless.compare(&base, &Tolerances::default()).passed());
    }

    #[test]
    fn batched_flag_roundtrips_and_defaults_false() {
        let mut c = cell("gcc", "rr", 2.0);
        c.batched = true;
        let round = CellRecord::from_json(&c.to_json()).unwrap();
        assert!(round.batched);
        // Pre-batching manifests carry no "batched" key; they parse as
        // scalar cells rather than failing.
        let Json::Obj(fields) = c.to_json() else {
            panic!("cell renders as an object");
        };
        let stripped = Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "batched" && k != "config_content_hash")
                .collect(),
        );
        let legacy = CellRecord::from_json(&stripped).unwrap();
        assert!(!legacy.batched);
        // Pre-content-addressing manifests parse with an empty hash.
        assert!(legacy.config_content_hash.is_empty());
    }

    #[test]
    fn sampled_cell_roundtrips_and_defaults_to_exact() {
        let mut c = cell("gcc", "rr", 2.0);
        c.sampled = Some(SampledCell {
            ipc_estimate: 1.98,
            error_bound: 0.03,
            cv: 0.05,
            intervals: 24,
        });
        let round = CellRecord::from_json(&c.to_json()).unwrap();
        assert_eq!(round.sampled, c.sampled);
        // Exact cells render no "sampled" key at all — existing exact
        // baselines stay byte-identical.
        let exact = cell("gcc", "rr", 2.0);
        assert!(!exact.to_json().to_string_compact().contains("sampled"));
        assert!(CellRecord::from_json(&exact.to_json())
            .unwrap()
            .sampled
            .is_none());
    }

    #[test]
    fn schema_one_manifests_still_parse() {
        // A pre-provenance manifest (no traces/trace_cache keys) parses
        // with empty defaults, so `report check` can describe it.
        let text = r#"{"schema": 1, "experiment": "t", "git_rev": "x",
                       "warmup": 1, "measure": 2, "workers": 0,
                       "wall_secs": 0.0, "cells": []}"#;
        let parsed = RunManifest::parse(text).unwrap();
        assert_eq!(parsed.schema, 1);
        assert!(parsed.traces.is_empty());
        assert!(parsed.trace_cache.is_none());
    }

    #[test]
    fn gate_fails_on_ipc_regression() {
        let base = manifest(vec![cell("gcc", "rr", 2.0), cell("perl", "rr", 3.0)]);
        let fresh = manifest(vec![cell("gcc", "rr", 1.9), cell("perl", "rr", 3.0)]);
        let out = base.compare(&fresh, &Tolerances::default());
        assert!(!out.passed());
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].contains("gcc/rr"), "{:?}", out.failures);
    }

    #[test]
    fn gate_fails_on_stalls_beyond_the_measured_window() {
        let base = manifest(vec![cell("gcc", "rr", 2.0)]);
        let mut at_bound = cell("gcc", "rr", 2.0);
        (at_bound.window_stalls, at_bound.rename_stalls) = (1000, 1000);
        at_bound.frontend_stalls = 8000;
        let mut attr = CycleAttribution::new(8);
        attr.charge_cycles(1000, SlotBucket::Fill);
        at_bound.attribution = Some(attr);
        assert!(base
            .compare(&manifest(vec![at_bound.clone()]), &Tolerances::default())
            .passed());
        for name in ["window_stalls", "rename_stalls", "frontend_stalls"] {
            let mut over = at_bound.clone();
            match name {
                "window_stalls" => over.window_stalls += 1,
                "rename_stalls" => over.rename_stalls += 1,
                _ => over.frontend_stalls += 1,
            }
            let out = base.compare(&manifest(vec![over]), &Tolerances::default());
            assert_eq!(out.failures.len(), 1, "{name}: {:?}", out.failures);
            assert!(out.failures[0].contains(name), "{:?}", out.failures);
        }
    }

    #[test]
    fn gate_passes_within_tolerance_and_on_gains() {
        let base = manifest(vec![cell("gcc", "rr", 2.0)]);
        let fresh = manifest(vec![cell("gcc", "rr", 2.0 * 0.99)]);
        assert!(base.compare(&fresh, &Tolerances::default()).passed());
        let faster = manifest(vec![cell("gcc", "rr", 2.4)]);
        let out = base.compare(&faster, &Tolerances::default());
        assert!(out.passed());
        assert!(!out.warnings.is_empty(), "large gain should warn");
    }

    #[test]
    fn gate_fails_on_missing_cell_and_param_mismatch() {
        let base = manifest(vec![cell("gcc", "rr", 2.0)]);
        let fresh = manifest(vec![]);
        assert!(!base.compare(&fresh, &Tolerances::default()).passed());

        let mut other_params = manifest(vec![cell("gcc", "rr", 2.0)]);
        other_params.measure = 999;
        assert!(!base.compare(&other_params, &Tolerances::default()).passed());
    }

    #[test]
    fn parent_format_cells_parse_and_config_drift_fails() {
        // A cell as written before the one-fingerprint format: it carries
        // the retired `Debug`-text `config_hash` next to the content hash.
        let text = r#"{"workload": "gcc", "config": "rr",
            "config_hash": "5d6f1e2a9b3c4d7e", "config_content_hash": "00000000cafef00d",
            "ipc": 2.0, "cycles": 1000, "uops": 2000, "branches": 100,
            "mispredicts": 5, "mispredict_rate": 0.05, "unbalance_percent": 3.0,
            "per_cluster_uops": [250, 250, 250, 250], "frontend_stalls": 10,
            "rename_stalls": 20, "window_stalls": 30, "l1_miss_rate": 0.04,
            "l2_miss_rate": 0.01, "store_forwards": 7, "batched": false}"#;
        let parsed = CellRecord::from_json(&Json::parse(text).unwrap()).unwrap();
        assert_eq!(parsed, cell("gcc", "rr", 2.0));

        // A moved fingerprint fails the gate…
        let base = manifest(vec![parsed]);
        let mut fresh = base.clone();
        fresh.cells[0].config_content_hash = "00000000deadbeef".to_string();
        let out = base.compare(&fresh, &Tolerances::default());
        assert!(!out.passed(), "{out:?}");
        assert_eq!(out.failures.len(), 1, "{out:?}");
        assert!(out.failures[0].contains("config changed"), "{out:?}");
        assert!(out.warnings.is_empty(), "{out:?}");
        // …and an empty one (a pre-content-addressing side) is not compared.
        let mut legacy = base.clone();
        legacy.cells[0].config_content_hash = String::new();
        for out in [
            base.compare(&legacy, &Tolerances::default()),
            legacy.compare(&fresh, &Tolerances::default()),
        ] {
            assert!(out.passed() && out.warnings.is_empty(), "{out:?}");
        }
    }
}
