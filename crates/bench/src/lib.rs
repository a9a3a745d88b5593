//! # wsrs-bench — experiment harness
//!
//! One binary per table/figure of the paper:
//!
//! | binary             | regenerates |
//! |--------------------|-------------|
//! | `table1`           | Table 1 (register-file complexity estimates)       |
//! | `tables2_3`        | Table 2 (latencies) and Table 3 (memory hierarchy) |
//! | `figure4`          | Figure 4 (IPC, 6 configurations × 12 benchmarks)   |
//! | `figure5`          | Figure 5 (unbalancing degrees, RC vs RM)           |
//! | `pools`            | Figure 2b (pooled write specialization)            |
//! | `mix`              | the §3.3 dynamic instruction-mix analysis          |
//! | `ablation`         | seven extension studies (policies, registers, strategies, bypass, predictor, window, related work) |
//! | `efficiency`       | IPC per nJ / per area synthesis (the paper's thesis) |
//! | `seven_cluster`    | the §7 seven-cluster complexity extension          |
//! | `virtual_physical` | §6 \[13\] virtual-physical registers over WS     |
//! | `report`           | `BENCH_*.json` run manifests + the regression gate |
//! | `trace_dump`       | µop-stream inspector (debugging)                   |
//! | `pipeview`         | per-µop pipeline timelines (debugging)             |
//!
//! The paper warms 20 M and measures 10 M instructions per benchmark
//! (§5.3); the defaults here are scaled to 1 M warm-up (which also covers
//! every kernel's in-trace initialization loops) + 2 M measured so the full
//! Figure 4 grid runs in about a minute. Override with the environment
//! variables `WSRS_WARMUP` and `WSRS_MEASURE` for paper-scale runs.

pub mod client;
pub mod env;
pub mod manifest;
pub mod windows;

pub use env::RunEnv;

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wsrs_core::{
    lockstep_compatible, run_lockstep, run_sampled, sim_revision, warm_state_key, AllocPolicy,
    NoSampleStore, Report, SampleCheckpoint, SampleSpec, SampleStore, SampledReport, SimConfig,
    Simulator,
};
use wsrs_isa::{DynInst, UopSource};
use wsrs_regfile::RenameStrategy;
use wsrs_telemetry::{Json, SampledCell, TraceCacheStats};
use wsrs_trace::{CheckpointKey, CheckpointRecord, TraceError, TraceFile, TraceKey, TraceStore};
use wsrs_workloads::Workload;

/// The trace-store key of `w`'s trace over the window `params`, as the
/// current emulator records it (its revision is `w`'s trace fingerprint).
#[must_use]
pub fn trace_key(w: Workload, params: RunParams) -> TraceKey {
    TraceKey {
        workload: w.name().to_string(),
        warmup: params.warmup,
        measure: params.measure,
        rev: w.trace_fingerprint(),
    }
}

/// Measurement window for simulation experiments.
#[derive(Clone, Copy, Debug)]
pub struct RunParams {
    /// µops simulated before measurement starts (structures warm).
    pub warmup: u64,
    /// µops measured.
    pub measure: u64,
}

impl RunParams {
    /// Scaled-down defaults ([`windows::DEFAULT_WARMUP`] +
    /// [`windows::DEFAULT_MEASURE`]); see the [crate docs](crate).
    #[must_use]
    pub fn default_scaled() -> Self {
        RunParams {
            warmup: windows::DEFAULT_WARMUP,
            measure: windows::DEFAULT_MEASURE,
        }
    }

    /// µops in the whole window, warm-up included; `None` when that does
    /// not fit in a `u64`. Every parse boundary (job JSON, `WSRS_*`
    /// variables, the `trace` CLI) rejects such a window.
    #[must_use]
    pub fn window(&self) -> Option<u64> {
        self.warmup.checked_add(self.measure)
    }
}

/// Checkpoint payload section tag carrying encoded predictor state.
pub const CKPT_SECTION_PREDICTOR: u32 = 1;
/// Checkpoint payload section tag carrying encoded memory-hierarchy state.
pub const CKPT_SECTION_HIERARCHY: u32 = 2;
/// Checkpoint payload section tag carrying the warmed architectural
/// subset map (empty payload for non-WSRS configurations).
pub const CKPT_SECTION_RENAME: u32 = 3;

/// A [`SampleStore`] over the persistent [`TraceStore`]: warmup
/// checkpoints live next to the trace files as checksummed records keyed
/// on (trace checksum, simulator revision, sample-spec hash, warm-state
/// key, interval). The warm-state key covers the predictor kind and
/// hierarchy geometry — plus, for WSRS configurations, the allocation
/// policy driving the warmed subset map — so the conventional and
/// write-specialized Figure 4 columns share one set of checkpoints per
/// workload and each WSRS policy gets its own. `wsrs-core` keeps its
/// state encodings opaque to the trace layer; this type owns the
/// section-tag mapping.
pub struct TraceSampleStore<'a> {
    store: &'a TraceStore,
    /// Key template; `interval` is filled in per call.
    base: CheckpointKey,
}

impl<'a> TraceSampleStore<'a> {
    /// A store view for one (trace, config, spec) cell.
    #[must_use]
    pub fn new(
        store: &'a TraceStore,
        trace_checksum: u64,
        cfg: &SimConfig,
        spec: &SampleSpec,
    ) -> Self {
        TraceSampleStore {
            store,
            base: CheckpointKey {
                trace: trace_checksum,
                sim: sim_revision(),
                spec: spec.content_hash(),
                warm: warm_state_key(cfg),
                interval: 0,
            },
        }
    }

    fn key(&self, interval: u32) -> CheckpointKey {
        CheckpointKey {
            interval,
            ..self.base
        }
    }
}

impl SampleStore for TraceSampleStore<'_> {
    fn load(&self, interval: u32) -> Option<SampleCheckpoint> {
        let rec = self.store.load_checkpoint(&self.key(interval)).ok()?;
        Some(SampleCheckpoint {
            interval,
            ff_uops: rec.ff_uops,
            predictor: rec.section(CKPT_SECTION_PREDICTOR)?.to_vec(),
            hierarchy: rec.section(CKPT_SECTION_HIERARCHY)?.to_vec(),
            rename: rec.section(CKPT_SECTION_RENAME)?.to_vec(),
        })
    }

    fn save(&self, cp: &SampleCheckpoint) -> bool {
        let rec = CheckpointRecord {
            key: self.key(cp.interval),
            ff_uops: cp.ff_uops,
            sections: vec![
                (CKPT_SECTION_PREDICTOR, cp.predictor.clone()),
                (CKPT_SECTION_HIERARCHY, cp.hierarchy.clone()),
                (CKPT_SECTION_RENAME, cp.rename.clone()),
            ],
        };
        // Best-effort, like trace record-on-miss: a failed save is a
        // cache miss on the next run, never a wrong result.
        match self.store.save_checkpoint(&rec) {
            Ok(_) => true,
            Err(e) => {
                eprintln!("wsrs-trace: could not record checkpoint: {e}");
                false
            }
        }
    }
}

/// What the sampled path produced for one cell, next to the aggregate
/// [`Report`]. The estimate fields are *results* — deterministic for a
/// given (trace, config, spec) regardless of store warmth or worker
/// count, and recorded in manifests via [`SampleOutcome::to_cell`]. The
/// checkpoint-traffic counters are *environment* (they depend on store
/// warmth and on which sibling cell saved first), so they are printed in
/// run summaries but never written to manifests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampleOutcome {
    /// Sampled IPC estimate (inverse mean per-interval CPI).
    pub ipc_estimate: f64,
    /// ~95% confidence half-width on the estimate, absolute IPC.
    pub error_bound: f64,
    /// Coefficient of variation of per-interval CPIs.
    pub cv: f64,
    /// Measured intervals that contributed.
    pub intervals: u64,
    /// µops functionally fast-forwarded (environment; 0 on pure replay).
    pub ff_uops: u64,
    /// Checkpoints loaded from the store (environment).
    pub checkpoints_loaded: u32,
    /// Checkpoints written to the store (environment).
    pub checkpoints_saved: u32,
    /// µops simulated in detail (warmup + measured).
    pub uops_detailed: u64,
}

impl SampleOutcome {
    fn from_report(sr: &SampledReport) -> Self {
        SampleOutcome {
            ipc_estimate: sr.ipc_estimate,
            error_bound: sr.error_bound,
            cv: sr.cv,
            intervals: sr.per_interval_ipcs.len() as u64,
            ff_uops: sr.ff_uops,
            checkpoints_loaded: sr.checkpoints_loaded,
            checkpoints_saved: sr.checkpoints_saved,
            uops_detailed: sr.uops_detailed,
        }
    }

    /// The manifest form: results only, no environment counters.
    #[must_use]
    pub fn to_cell(&self) -> SampledCell {
        SampledCell {
            ipc_estimate: self.ipc_estimate,
            error_bound: self.error_bound,
            cv: self.cv,
            intervals: self.intervals,
        }
    }
}

/// The six Figure 4 configurations, in the paper's legend order.
/// The paper displays renaming strategy 2 results (§5.2.1), so all
/// specialized configurations use [`RenameStrategy::ExactCount`].
#[must_use]
pub fn figure4_configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("RR 256", SimConfig::conventional_rr(256)),
        (
            "WSRR 384",
            SimConfig::write_specialized_rr(384, RenameStrategy::ExactCount),
        ),
        (
            "WSRR 512",
            SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount),
        ),
        (
            "WSRS RC S 384",
            SimConfig::wsrs(
                384,
                AllocPolicy::RandomCommutative,
                RenameStrategy::ExactCount,
            ),
        ),
        (
            "WSRS RC S 512",
            SimConfig::wsrs(
                512,
                AllocPolicy::RandomCommutative,
                RenameStrategy::ExactCount,
            ),
        ),
        (
            "WSRS RM S 512",
            SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount),
        ),
    ]
}

/// The two Figure 5 configurations: WSRS at 512 registers under each
/// allocation policy (renaming strategy 2, as in Figure 4).
#[must_use]
pub fn figure5_configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        (
            "WSRS RC",
            SimConfig::wsrs(
                512,
                AllocPolicy::RandomCommutative,
                RenameStrategy::ExactCount,
            ),
        ),
        (
            "WSRS RM",
            SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount),
        ),
    ]
}

/// The `workgen` grid columns: an equally-sized unconstrained baseline
/// and the two WSRS flavours Figure 4 separates (commutative vs monadic
/// steering slack). Keeping the register count fixed at 512 across all
/// columns makes a WSRS-vs-baseline IPC delta a pure specialization
/// penalty rather than a capacity effect. Shared by the `workgen` grid
/// binary and `wsrs-serve`'s `workgen` experiment submission.
#[must_use]
pub fn workgen_configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("RR 512", SimConfig::conventional_rr(512)),
        (
            "WSRS RC S 512",
            SimConfig::wsrs(
                512,
                AllocPolicy::RandomCommutative,
                RenameStrategy::ExactCount,
            ),
        ),
        (
            "WSRS RM S 512",
            SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount),
        ),
    ]
}

/// One gated experiment: name, configurations, workloads.
pub type Experiment = (&'static str, Vec<(&'static str, SimConfig)>, Vec<Workload>);

/// The gated experiments: Figure 4's six configurations and Figure 5's
/// two allocation policies, every configuration with telemetry switched
/// on. Shared by the `report` binary (baselines + regression gate) and
/// `wsrs-serve` (whole-grid job submission).
#[must_use]
pub fn gate_experiments() -> Vec<Experiment> {
    let with_telemetry = |configs: Vec<(&'static str, SimConfig)>| {
        configs
            .into_iter()
            .map(|(n, c)| (n, manifest::telemetry_on(&c)))
            .collect()
    };
    vec![
        (
            "figure4",
            with_telemetry(figure4_configs()),
            Workload::all().to_vec(),
        ),
        (
            "figure5",
            with_telemetry(figure5_configs()),
            Workload::all().to_vec(),
        ),
    ]
}

/// The §6 virtual-physical experiment (`--bin virtual_physical`): plain
/// write specialization at 512 registers against VP files of 36 to 96
/// physical registers per subset, on two integer and two FP kernels. Not
/// gated; `skip_equivalence` holds its cells to the engine's oracles.
#[must_use]
pub fn virtual_physical_experiment() -> Experiment {
    const CAPS: [(&str, usize); 5] = [
        ("VP 36/sub", 36),
        ("VP 40/sub", 40),
        ("VP 48/sub", 48),
        ("VP 64/sub", 64),
        ("VP 96/sub", 96),
    ];
    let base = || SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount);
    let vp = CAPS.into_iter().map(|(name, cap)| {
        let mut cfg = base();
        cfg.set_virtual_physical(cap);
        (name, cfg)
    });
    (
        "virtual_physical",
        std::iter::once(("WS 512", base())).chain(vp).collect(),
        vec![
            Workload::Gzip,
            Workload::Crafty,
            Workload::Wupwise,
            Workload::Facerec,
        ],
    )
}

/// Name → configuration registry over every gated experiment plus the
/// `workgen` grid columns — the namespace [`CellJob`] wire forms resolve
/// against. First binding of a name wins (names are unique across the
/// gate today; the rule keeps the registry stable if experiments ever
/// overlap).
#[must_use]
pub fn config_registry() -> Vec<(String, SimConfig)> {
    let mut out: Vec<(String, SimConfig)> = Vec::new();
    let workgen = workgen_configs()
        .into_iter()
        .map(|(n, c)| (n, manifest::telemetry_on(&c)))
        .collect();
    let groups = gate_experiments()
        .into_iter()
        .map(|(_, configs, _)| configs)
        .chain(std::iter::once(workgen));
    for configs in groups {
        for (name, cfg) in configs {
            if !out.iter().any(|(n, _)| n == name) {
                out.push((name.to_string(), cfg));
            }
        }
    }
    out
}

/// How one workload's µop trace was obtained this run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOrigin {
    /// Built by the functional emulator (and recorded, if a store was
    /// attached and writable).
    Emulated,
    /// Replayed from an on-disk trace file.
    Replayed,
}

impl TraceOrigin {
    /// The manifest string for this origin.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TraceOrigin::Emulated => "emulated",
            TraceOrigin::Replayed => "replayed",
        }
    }
}

/// Provenance of one workload's trace: where it came from, the content
/// checksum of its trace file (when a store was involved), and the bytes
/// that moved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSource {
    pub workload: Workload,
    pub origin: TraceOrigin,
    /// Trace-file content checksum; `None` when the cache ran storeless
    /// (or the record attempt failed).
    pub checksum: Option<u64>,
    /// Trace-file bytes read (replayed) or written (recorded).
    pub bytes: u64,
}

/// Everything a grid run knows about where its traces came from:
/// per-workload sources (first acquisition wins) plus the cache counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceProvenance {
    /// One entry per workload, sorted by workload name.
    pub sources: Vec<TraceSource>,
    pub counters: TraceCacheStats,
}

impl TraceProvenance {
    /// Merges another run's provenance into this one (multi-sweep
    /// binaries): counters add; per-workload sources keep the first
    /// recorded origin.
    pub fn absorb(&mut self, other: TraceProvenance) {
        for s in other.sources {
            if !self.sources.iter().any(|t| t.workload == s.workload) {
                self.sources.push(s);
            }
        }
        self.sources.sort_by_key(|s| s.workload.name());
        self.counters.absorb(&other.counters);
    }

    /// Whether every workload replayed from disk (a fully warm store).
    #[must_use]
    pub fn all_replayed(&self) -> bool {
        !self.sources.is_empty()
            && self
                .sources
                .iter()
                .all(|s| s.origin == TraceOrigin::Replayed)
    }
}

/// One workload's slot in the memory tier: how many more checkouts may
/// still arrive, and whether its decoded trace is held.
struct TraceEntry {
    /// Checkouts (decoded or streamed) still expected; `None` when the
    /// cache retains entries forever.
    remaining: Option<usize>,
    held: Held,
}

/// The decoded trace of a [`TraceEntry`].
enum Held {
    /// Not decoded: no checkout so far, or only streamed ones.
    Nothing,
    /// A thread is building it; wait on the cache's condvar.
    Building,
    /// The bounded trace.
    Ready(Arc<[DynInst]>),
}

impl TraceEntry {
    /// Counts one checkout of `w` against the expected uses.
    fn take(&mut self, w: Workload) {
        if let Some(n) = &mut self.remaining {
            assert!(*n > 0, "more checkouts of {w} than the cache expects");
            *n -= 1;
        }
    }
}

/// A workload's trace as [`TraceCache::checkout_streamed`] hands it out.
pub enum TraceView {
    /// The validated store file, streamed block by block.
    Streamed(TraceFile),
    /// The decoded trace from the memory tier.
    Decoded(Arc<[DynInst]>),
}

/// How long a [`TraceCache`] keeps each workload's in-memory trace.
enum Retention {
    /// Entries live for the cache's lifetime.
    Retain,
    /// Every workload is checked out exactly this many times; its entry
    /// is dropped after the last checkout/release pair.
    Uniform(usize),
    /// Per-workload expected checkout counts (heterogeneous queues, e.g.
    /// a `wsrs-serve` job whose cells cover workloads unevenly).
    PerWorkload(HashMap<Workload, usize>),
}

/// Two-tier shared store of dynamic µop traces.
///
/// **Memory tier**: each workload is materialized **once** per cache
/// (bounded to `warmup + measure` µops) and the resulting `Arc<[DynInst]>`
/// is handed to every cell that needs it, instead of re-running the
/// functional emulator per (workload, configuration) cell.
///
/// **Disk tier** (optional, [`TraceCache::with_store`]): before emulating,
/// the cache looks the workload up in a persistent [`TraceStore`] keyed on
/// (workload, window, emulator+program fingerprint) and replays the file
/// if present; on a miss it emulates and records the trace for every
/// future run (*record-on-miss*). Corrupted or stale files are rejected by
/// the store's integrity checks and fall back to re-emulation (with a
/// warning), overwriting the bad file.
///
/// **Streaming** ([`TraceCache::checkout_streamed`]): a consumer that reads
/// the trace once, such as a scalar cell, takes the validated store file
/// instead and streams it block by block, so no decoded copy is built for
/// it.
///
/// Construct with [`TraceCache::new`] to retain entries for the cache's
/// lifetime, or [`TraceCache::evicting`] to drop each workload's trace as
/// soon as its last expected [`checkout`](TraceCache::checkout) has been
/// [`release`](TraceCache::release)d — with a decoded trace costing
/// 48 bytes/µop (`size_of::<DynInst>()`, against about 6 encoded bytes in
/// the store), eviction keeps a grid's peak memory proportional to the
/// workloads in flight rather than to the whole grid.
pub struct TraceCache {
    params: RunParams,
    /// Checkouts expected per workload before its entry can be evicted.
    retention: Retention,
    /// The disk tier, when attached.
    store: Option<TraceStore>,
    entries: Mutex<HashMap<Workload, TraceEntry>>,
    built: Condvar,
    counters: Mutex<TraceCacheStats>,
    /// First-acquisition provenance per workload.
    sources: Mutex<Vec<TraceSource>>,
}

impl TraceCache {
    /// A cache that retains every generated trace until dropped.
    #[must_use]
    pub fn new(params: RunParams) -> Self {
        TraceCache {
            params,
            retention: Retention::Retain,
            store: None,
            entries: Mutex::new(HashMap::new()),
            built: Condvar::new(),
            counters: Mutex::new(TraceCacheStats::default()),
            sources: Mutex::new(Vec::new()),
        }
    }

    /// A cache that evicts each workload's trace after `uses_per_workload`
    /// checkout/release pairs (one per grid cell of that workload).
    #[must_use]
    pub fn evicting(params: RunParams, uses_per_workload: usize) -> Self {
        TraceCache {
            retention: Retention::Uniform(uses_per_workload),
            ..TraceCache::new(params)
        }
    }

    /// A cache with per-workload expected checkout counts — the retention
    /// a [`CellQueue`] derives when its cells cover workloads unevenly.
    /// Checking out a workload absent from `uses` panics (the queue did
    /// not plan it).
    #[must_use]
    pub fn evicting_per_workload(params: RunParams, uses: HashMap<Workload, usize>) -> Self {
        TraceCache {
            retention: Retention::PerWorkload(uses),
            ..TraceCache::new(params)
        }
    }

    /// Expected checkouts of `w`, `None` on a retaining cache.
    fn expected_uses(&self, w: Workload) -> Option<usize> {
        match &self.retention {
            Retention::Retain => None,
            Retention::Uniform(n) => Some(*n),
            Retention::PerWorkload(m) => Some(
                *m.get(&w)
                    .unwrap_or_else(|| panic!("checkout of unplanned workload {w}")),
            ),
        }
    }

    /// Attaches a persistent disk tier: builds replay from `store` when a
    /// matching trace file exists, and record on miss.
    #[must_use]
    pub fn with_store(mut self, store: Option<TraceStore>) -> Self {
        self.store = store;
        self
    }

    /// The attached disk store, if any — sampled cells persist their
    /// warmup checkpoints beside the trace files in the same store.
    #[must_use]
    pub fn disk_store(&self) -> Option<&TraceStore> {
        self.store.as_ref()
    }

    /// The trace-file content checksum of `w`, once some cell has
    /// acquired it this run — the `trace` component of checkpoint keys
    /// and of `wsrs-serve` cell lines.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock is poisoned.
    #[must_use]
    pub fn trace_checksum(&self, w: Workload) -> Option<u64> {
        self.sources
            .lock()
            .unwrap()
            .iter()
            .find(|s| s.workload == w)
            .and_then(|s| s.checksum)
    }

    /// µops per cached trace: the measurement window, warm-up included.
    fn bound(&self) -> usize {
        let window = self
            .params
            .window()
            .expect("every parse boundary checks that the window length fits in u64");
        window as usize
    }

    /// Runs the functional emulator for `w`, bounded to the window.
    fn emulate(&self, w: Workload) -> Arc<[DynInst]> {
        // The emulator's iterator has no usable size hint, so collect
        // through an exactly-sized Vec — repeated doubling on a
        // multi-hundred-MB trace costs more than the emulation itself.
        let mut buf = Vec::with_capacity(self.bound());
        buf.extend(w.trace().take(self.bound()));
        buf.into()
    }

    /// Builds the trace for `w`: disk replay if a store is attached and
    /// holds a valid file (and `replay` allows trying it), otherwise
    /// emulation plus record-on-miss.
    fn acquire(&self, w: Workload, replay: bool) -> (Arc<[DynInst]>, TraceSource) {
        let Some(store) = &self.store else {
            self.counters.lock().unwrap().misses += 1;
            let trace = self.emulate(w);
            let source = TraceSource {
                workload: w,
                origin: TraceOrigin::Emulated,
                checksum: None,
                bytes: 0,
            };
            return (trace, source);
        };
        if replay {
            match store.load(&trace_key(w, self.params)) {
                Ok(loaded) => {
                    let source = self.replayed(w, loaded.checksum, loaded.bytes);
                    return (loaded.uops.into(), source);
                }
                Err(e) => warn_unusable(w, &e),
            }
        }
        self.record(w, store)
    }

    /// Counts a disk hit of `bytes` and describes it as `w`'s source.
    fn replayed(&self, w: Workload, checksum: u64, bytes: u64) -> TraceSource {
        let mut c = self.counters.lock().unwrap();
        c.disk_hits += 1;
        c.bytes_read += bytes;
        TraceSource {
            workload: w,
            origin: TraceOrigin::Replayed,
            checksum: Some(checksum),
            bytes,
        }
    }

    /// Emulates `w` and records the trace into `store`, overwriting any
    /// file already there.
    fn record(&self, w: Workload, store: &TraceStore) -> (Arc<[DynInst]>, TraceSource) {
        self.counters.lock().unwrap().misses += 1;
        let trace = self.emulate(w);
        let (checksum, bytes) = match store.save(&trace_key(w, self.params), &trace) {
            Ok(saved) => {
                self.counters.lock().unwrap().bytes_written += saved.bytes;
                (Some(saved.checksum), saved.bytes)
            }
            Err(e) => {
                eprintln!("wsrs-trace: could not record trace for {w}: {e}");
                (None, 0)
            }
        };
        let source = TraceSource {
            workload: w,
            origin: TraceOrigin::Emulated,
            checksum,
            bytes,
        };
        (trace, source)
    }

    /// Records `source` as `w`'s provenance unless one is known already:
    /// a rebuild after eviction is a disk hit of the file the first build
    /// recorded, which is not a second origin.
    fn note_source(&self, source: TraceSource) {
        let mut sources = self.sources.lock().unwrap();
        if !sources.iter().any(|s| s.workload == source.workload) {
            sources.push(source);
        }
    }

    /// Snapshot of where every trace came from plus the cache counters.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock is poisoned.
    #[must_use]
    pub fn provenance(&self) -> TraceProvenance {
        let mut sources = self.sources.lock().unwrap().clone();
        sources.sort_by_key(|s| s.workload.name());
        TraceProvenance {
            sources,
            counters: *self.counters.lock().unwrap(),
        }
    }

    /// The bounded trace of `w`: emulated on the calling thread if this is
    /// the first request, otherwise shared (blocking until the emulating
    /// thread finishes, if one is mid-build).
    ///
    /// # Panics
    ///
    /// Panics if the cache lock is poisoned, or on more checkouts than an
    /// evicting cache was constructed for.
    #[must_use]
    pub fn checkout(&self, w: Workload) -> Arc<[DynInst]> {
        self.checkout_decoded(w, true)
    }

    /// [`TraceCache::checkout`], trying the disk tier only if `replay`.
    fn checkout_decoded(&self, w: Workload, replay: bool) -> Arc<[DynInst]> {
        let mut entries = self.entries.lock().unwrap();
        loop {
            let entry = entries.entry(w).or_insert_with(|| TraceEntry {
                remaining: self.expected_uses(w),
                held: Held::Nothing,
            });
            match &entry.held {
                Held::Ready(trace) => {
                    let trace = Arc::clone(trace);
                    entry.take(w);
                    drop(entries);
                    self.counters.lock().unwrap().mem_hits += 1;
                    return trace;
                }
                Held::Building => entries = self.built.wait(entries).unwrap(),
                Held::Nothing => {
                    entry.held = Held::Building;
                    drop(entries);
                    let (trace, source) = self.acquire(w, replay);
                    self.note_source(source);
                    let mut entries = self.entries.lock().unwrap();
                    let entry = entries.get_mut(&w).expect("a building entry stays");
                    entry.held = Held::Ready(Arc::clone(&trace));
                    entry.take(w);
                    self.built.notify_all();
                    return trace;
                }
            }
        }
    }

    /// The trace of `w` for a consumer that reads it once: the validated
    /// store file to stream when a store is attached, no decoded copy is
    /// already held, and the file opens; otherwise the decoded trace
    /// exactly as [`TraceCache::checkout`] gives it (an unusable file is
    /// warned about and re-recorded). A held copy is shared because it
    /// costs nothing, while streaming would read, checksum and decode the
    /// file again. Either way it counts as one checkout, to be
    /// [`release`](TraceCache::release)d.
    ///
    /// A checksum-valid file can still hold a block that fails to decode:
    /// check [`TraceFile::stream_error`] after streaming, and on a failure
    /// discard the run and [`rerecord`](TraceCache::rerecord) the trace.
    ///
    /// # Panics
    ///
    /// As [`TraceCache::checkout`].
    #[must_use]
    pub fn checkout_streamed(&self, w: Workload) -> TraceView {
        let Some(store) = &self.store else {
            return TraceView::Decoded(self.checkout(w));
        };
        let held = matches!(
            self.entries.lock().unwrap().get(&w),
            Some(TraceEntry {
                held: Held::Ready(_),
                ..
            })
        );
        if held {
            return TraceView::Decoded(self.checkout(w));
        }
        match store.open(&trace_key(w, self.params)) {
            Ok(file) => {
                self.note_source(self.replayed(w, file.checksum(), file.size_bytes()));
                self.entries
                    .lock()
                    .unwrap()
                    .entry(w)
                    .or_insert_with(|| TraceEntry {
                        remaining: self.expected_uses(w),
                        held: Held::Nothing,
                    })
                    .take(w);
                TraceView::Streamed(file)
            }
            Err(e) => {
                warn_unusable(w, &e);
                TraceView::Decoded(self.checkout_decoded(w, false))
            }
        }
    }

    /// Re-emulates `w` after its streamed file failed to decode, records
    /// the trace over the bad file, and returns it. The new file's
    /// checksum replaces the bad one in `w`'s provenance. Does not count
    /// as a checkout: the failed stream's checkout covers it.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock is poisoned or no store is attached (only
    /// streamed checkouts can fail this way).
    pub fn rerecord(&self, w: Workload) -> Arc<[DynInst]> {
        let store = self
            .store
            .as_ref()
            .expect("streamed traces come from a store");
        let (trace, source) = self.record(w, store);
        let mut sources = self.sources.lock().unwrap();
        sources.retain(|s| s.workload != w);
        sources.push(source);
        trace
    }

    /// Releases one checkout of `w`. On an evicting cache, the entry is
    /// dropped once all expected checkouts have been taken and released;
    /// on a retaining cache this is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock is poisoned.
    pub fn release(&self, w: Workload) {
        let mut entries = self.entries.lock().unwrap();
        let Some(entry) = entries.get(&w) else {
            return;
        };
        // Last checkout taken; this release may not be the last one
        // chronologically, but every other user already holds its own
        // `Arc` (or file), so dropping the cache's copy is safe.
        if entry.remaining == Some(0) && !matches!(entry.held, Held::Building) {
            let evicted = matches!(entry.held, Held::Ready(_));
            entries.remove(&w);
            drop(entries);
            if evicted {
                self.counters.lock().unwrap().evictions += 1;
            }
        }
    }
}

/// Reports a store file that exists but cannot be used; a plain miss is
/// silent.
fn warn_unusable(w: Workload, e: &TraceError) {
    if !e.is_not_found() {
        // Corrupted, stale or unreadable: the caller re-emulates and
        // overwrites the bad file.
        eprintln!("wsrs-trace: discarding unusable trace for {w}: {e}; re-emulating");
    }
}

/// Per-cell completion hook for [`run_grid`]: workload, configuration
/// label, the finished report, and the cell's wall time. Under more than
/// one worker the hook is called from worker threads in completion order,
/// which is not deterministic — keep result collection in the returned
/// grid, and use the hook only for progress output.
pub type CellHook<'a> = &'a (dyn Fn(Workload, &str, &Report, Duration) + Sync);

/// The result of one grid run: the per-cell reports (indexed
/// `[workload][configuration]`) plus the trace provenance the run's
/// [`TraceCache`] accumulated — where each workload's µops came from and
/// the cache's hit/miss/byte counters, destined for the run manifest.
pub struct GridRun {
    /// Reports indexed `[workload][configuration]`.
    pub reports: Vec<Vec<Report>>,
    /// Whether each *configuration column* ran on the batched lockstep
    /// path ([`wsrs_core::run_lockstep`]) rather than cell-at-a-time
    /// scalar simulation. Uniform across workload rows — the batch plan
    /// depends only on the configurations — and recorded per cell in the
    /// run manifest as execution provenance. Either path yields
    /// bit-identical reports.
    pub batched: Vec<bool>,
    /// Per-cell sampling outcome, indexed `[workload][configuration]` like
    /// `reports`; `None` entries ran exact. All-`None` unless the grid ran
    /// with a sample spec.
    pub samples: Vec<Vec<Option<SampleOutcome>>>,
    /// Per-workload trace origins and cache counters for this run.
    pub provenance: TraceProvenance,
}

impl GridRun {
    /// Aggregate checkpoint traffic over the sampled cells: (cells, ff
    /// µops, checkpoints loaded, checkpoints saved); `None` when every
    /// cell ran exact.
    #[must_use]
    pub fn sample_totals(&self) -> Option<(usize, u64, u64, u64)> {
        let outcomes: Vec<&SampleOutcome> = self
            .samples
            .iter()
            .flatten()
            .filter_map(Option::as_ref)
            .collect();
        if outcomes.is_empty() {
            return None;
        }
        Some((
            outcomes.len(),
            outcomes.iter().map(|o| o.ff_uops).sum(),
            outcomes
                .iter()
                .map(|o| u64::from(o.checkpoints_loaded))
                .sum(),
            outcomes
                .iter()
                .map(|o| u64::from(o.checkpoints_saved))
                .sum(),
        ))
    }

    /// One-line, machine-greppable sampling summary — CI's sample-smoke
    /// step asserts `ff_uops=0` on a checkpoint-warm replay run. `None`
    /// when every cell ran exact.
    #[must_use]
    pub fn sample_summary(&self) -> Option<String> {
        let (cells, ff, loaded, saved) = self.sample_totals()?;
        Some(format!(
            "sampled: cells={cells} ff_uops={ff} checkpoints_loaded={loaded} \
             checkpoints_saved={saved}"
        ))
    }
}

/// One (configuration, workload, window) cell of the design space — the
/// unit of work everything schedules: grid binaries build one per grid
/// cell, and `wsrs-serve` deserializes them straight off the job API.
/// Parsed off the wire by [`CellJob::from_json`] (configs travel by
/// registry name; the resolved [`SimConfig`] rides along in memory).
#[derive(Clone, Debug)]
pub struct CellJob {
    /// The workload whose trace the cell simulates.
    pub workload: Workload,
    /// Registry name of the configuration (e.g. `"RR 256"`).
    pub config_name: String,
    /// The resolved configuration.
    pub config: SimConfig,
    /// Warmup/measure window.
    pub params: RunParams,
    /// When set, the cell runs on the interval-sampled path under this
    /// spec instead of exact cycle simulation (always scalar, never
    /// batched). Exact cells carry `None`.
    pub sample: Option<SampleSpec>,
}

impl CellJob {
    /// An exact cell.
    #[must_use]
    pub fn new(
        workload: Workload,
        config_name: &str,
        config: SimConfig,
        params: RunParams,
    ) -> Self {
        CellJob {
            workload,
            config_name: config_name.to_string(),
            config,
            params,
            sample: None,
        }
    }

    /// Parses the wire form, resolving `config` against `registry` (see
    /// [`config_registry`]) and defaulting an absent window to `params`.
    /// Absent optional fields take their defaults; a field that is
    /// present but malformed is an error, never a default.
    ///
    /// # Errors
    ///
    /// A message naming the field: a missing or unknown workload/config,
    /// a malformed window, a zero `measure` (see
    /// [`window_from_json`]), or a `sample` object with a missing, zero
    /// or malformed field or more intervals than measured µops.
    pub fn from_json(
        v: &Json,
        registry: &[(String, SimConfig)],
        params: RunParams,
    ) -> Result<CellJob, String> {
        let name_of = |key: &str| match v.get(key) {
            None => Err(format!("missing '{key}'")),
            Some(x) => x.as_str().ok_or(format!("'{key}' must be a string")),
        };
        let workload_name = name_of("workload")?;
        let workload: Workload = workload_name
            .parse()
            .map_err(|_| format!("unknown workload '{workload_name}'"))?;
        let name = name_of("config")?;
        let config = registry
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .ok_or(format!("unknown config '{name}'"))?;
        let params = window_from_json(v, params)?;
        let sample = v.get("sample").map(sample_from_json).transpose()?;
        if let Some(spec) = &sample {
            // Each interval starts at its own measured µop.
            if u64::from(spec.intervals) > params.measure {
                return Err(format!(
                    "'sample.intervals' ({}) exceeds the {} measured µops",
                    spec.intervals, params.measure
                ));
            }
        }
        Ok(CellJob {
            workload,
            config_name: name.to_string(),
            config,
            params,
            sample,
        })
    }
}

/// Reads the optional `warmup`/`measure` fields of a job or cell object,
/// defaulting each absent one to `defaults`.
///
/// # Errors
///
/// A message naming the field when it is present but not a non-negative
/// integer, when the resulting `measure` is zero (an empty measured
/// region has nothing to report, and no sampling plan), or when
/// `warmup + measure` does not fit in a `u64`.
pub fn window_from_json(v: &Json, defaults: RunParams) -> Result<RunParams, String> {
    let field = |key: &str, default: u64| match v.get(key) {
        None => Ok(default),
        Some(x) => x
            .as_u64()
            .ok_or(format!("'{key}' must be a non-negative integer")),
    };
    let params = RunParams {
        warmup: field("warmup", defaults.warmup)?,
        measure: field("measure", defaults.measure)?,
    };
    if params.measure == 0 {
        return Err("'measure' must be positive".to_string());
    }
    if params.window().is_none() {
        return Err("'warmup' + 'measure' must fit in a u64".to_string());
    }
    Ok(params)
}

/// Parses a cell's `sample` object: all three fields present and
/// positive.
fn sample_from_json(s: &Json) -> Result<SampleSpec, String> {
    if !matches!(s, Json::Obj(_)) {
        return Err("'sample' must be an object".to_string());
    }
    let positive = |key: &str| match s.get(key) {
        None => Err(format!("missing 'sample.{key}'")),
        Some(x) => x
            .as_u64()
            .filter(|&n| n > 0)
            .ok_or(format!("'sample.{key}' must be a positive integer")),
    };
    Ok(SampleSpec {
        intervals: u32::try_from(positive("intervals")?)
            .map_err(|_| "'sample.intervals' is too large".to_string())?,
        interval_uops: positive("interval_uops")?,
        detail_warmup: positive("detail_warmup")?,
    })
}

/// One finished cell, as handed to a [`CellQueue`] result sink.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Index into [`CellQueue::cells`] of the cell this report belongs to.
    pub cell: usize,
    /// The simulation result.
    pub report: Report,
    /// Whether the cell ran on the lockstep batch path.
    pub batched: bool,
    /// Present when the cell ran on the interval-sampled path: the
    /// estimate and checkpoint traffic ([`CellResult::report`] is then
    /// the sampled aggregate, not an exact measurement).
    pub sample: Option<SampleOutcome>,
    /// Wall time attributed to the cell (an even share of its unit).
    pub elapsed: Duration,
}

/// One schedulable unit of work under one workload's trace, claimed
/// atomically by exactly one worker. Indices refer to the owning
/// [`CellQueue`]'s cell list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkUnit {
    /// ≥ 2 compatible cells simulated together by one
    /// [`wsrs_core::run_lockstep`] call over the shared trace.
    Batch(Vec<usize>),
    /// One cell simulated by the scalar engine.
    Scalar(usize),
}

/// A planned batch of cells with a single claim cursor — the queue type
/// every executor shares: `run_grid_full` workers on bench binaries and
/// `wsrs-serve`'s server-side worker pool claim [`WorkUnit`]s from the
/// same structure, so the lockstep-batching plan and the
/// claim-exactly-once discipline cannot drift between the two.
///
/// Planning groups cells by workload (first-seen order). Within a
/// workload, cells that can share a lockstep batch — exact,
/// single-threaded, no virtual-physical registers, one common predictor
/// (see [`wsrs_core::lockstep_compatible`]) — are grouped by predictor
/// kind; everything else, and any group of one, runs scalar. Units of a
/// workload are contiguous, so an evicting [`TraceCache`] holds at most
/// the traces of workloads actually in flight.
pub struct CellQueue {
    cells: Vec<CellJob>,
    units: Vec<WorkUnit>,
    next: AtomicUsize,
}

impl CellQueue {
    /// Plans `cells` into claimable units. All cells must share one
    /// warmup/measure window (one trace per workload; heterogeneous
    /// windows belong in separate queues).
    ///
    /// # Panics
    ///
    /// Panics if cells disagree on the window.
    #[must_use]
    pub fn plan(cells: Vec<CellJob>) -> CellQueue {
        if let Some(first) = cells.first() {
            assert!(
                cells.iter().all(|c| (c.params.warmup, c.params.measure)
                    == (first.params.warmup, first.params.measure)),
                "a CellQueue holds one window; split heterogeneous windows into separate queues"
            );
        }
        let mut workload_order: Vec<Workload> = Vec::new();
        for c in &cells {
            if !workload_order.contains(&c.workload) {
                workload_order.push(c.workload);
            }
        }
        let mut units = Vec::new();
        for w in workload_order {
            let mut groups: Vec<Vec<usize>> = Vec::new();
            for (i, c) in cells.iter().enumerate() {
                if c.workload != w {
                    continue;
                }
                if c.sample.is_some() || !lockstep_compatible(std::slice::from_ref(&c.config)) {
                    units.push(WorkUnit::Scalar(i));
                } else if let Some(g) = groups
                    .iter_mut()
                    .find(|g| cells[g[0]].config.predictor == c.config.predictor)
                {
                    g.push(i);
                } else {
                    groups.push(vec![i]);
                }
            }
            for g in groups {
                if g.len() >= 2 {
                    units.push(WorkUnit::Batch(g));
                } else {
                    units.push(WorkUnit::Scalar(g[0]));
                }
            }
        }
        CellQueue {
            cells,
            units,
            next: AtomicUsize::new(0),
        }
    }

    /// The planned cells, in submission order.
    #[must_use]
    pub fn cells(&self) -> &[CellJob] {
        &self.cells
    }

    /// The planned units, in claim order.
    #[must_use]
    pub fn units(&self) -> &[WorkUnit] {
        &self.units
    }

    /// Per-cell execution path: `true` when the cell is planned into a
    /// lockstep batch.
    #[must_use]
    pub fn batched_cells(&self) -> Vec<bool> {
        let mut out = vec![false; self.cells.len()];
        for u in &self.units {
            if let WorkUnit::Batch(g) = u {
                for &i in g {
                    out[i] = true;
                }
            }
        }
        out
    }

    /// Expected trace checkouts per workload — the retention map for
    /// [`TraceCache::evicting_per_workload`]. One checkout per unit.
    #[must_use]
    pub fn uses_per_workload(&self) -> HashMap<Workload, usize> {
        let mut out = HashMap::new();
        for u in &self.units {
            let cell = match u {
                WorkUnit::Batch(g) => g[0],
                WorkUnit::Scalar(i) => *i,
            };
            *out.entry(self.cells[cell].workload).or_insert(0) += 1;
        }
        out
    }

    /// Atomically claims the next unclaimed unit; `None` once the queue
    /// is drained. Each unit is returned to exactly one caller, across
    /// any number of claiming threads.
    #[must_use]
    pub fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.units.len()).then_some(i)
    }

    /// Executes one claimed unit: checks the workload's trace out of
    /// `cache`, simulates (lockstep for a batch, scalar otherwise),
    /// releases the trace and hands each finished cell to `sink`.
    ///
    /// A batch decodes its window once and shares it across its lanes. A
    /// scalar cell reads the trace once, so it streams the store file
    /// ([`TraceCache::checkout_streamed`]); a stream cut short by an
    /// undecodable block is discarded, the trace is re-emulated and
    /// re-recorded, and the cell runs again on the fresh trace.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is out of range.
    pub fn run_unit(&self, unit: usize, cache: &TraceCache, sink: &(dyn Fn(CellResult) + Sync)) {
        match &self.units[unit] {
            WorkUnit::Scalar(i) => {
                let c = &self.cells[*i];
                let view = cache.checkout_streamed(c.workload);
                let t0 = Instant::now();
                let (report, sample) = match &view {
                    TraceView::Decoded(trace) => run_scalar(c, &trace[..], cache),
                    TraceView::Streamed(file) => {
                        let out = run_scalar(c, file, cache);
                        match file.stream_error() {
                            None => out,
                            Some(e) => {
                                warn_unusable(c.workload, &TraceError::Codec(e.clone()));
                                run_scalar(c, &cache.rerecord(c.workload)[..], cache)
                            }
                        }
                    }
                };
                drop(view);
                cache.release(c.workload);
                sink(CellResult {
                    cell: *i,
                    report,
                    batched: false,
                    sample,
                    elapsed: t0.elapsed(),
                });
            }
            WorkUnit::Batch(group) => {
                let lead = &self.cells[group[0]];
                let family: Vec<SimConfig> = group.iter().map(|&i| self.cells[i].config).collect();
                let trace = cache.checkout(lead.workload);
                let t0 = Instant::now();
                let reports =
                    run_lockstep(&family, &trace, lead.params.warmup, lead.params.measure);
                // The batch's wall time is shared; attribute an even
                // share to each cell so sink-side totals stay meaningful.
                let per_cell = t0.elapsed() / group.len() as u32;
                drop(trace);
                cache.release(lead.workload);
                for (&i, report) in group.iter().zip(reports) {
                    sink(CellResult {
                        cell: i,
                        report,
                        batched: true,
                        sample: None,
                        elapsed: per_cell,
                    });
                }
            }
        }
    }

    /// Claims and executes units until the queue is drained — the worker
    /// body shared by grid binaries and server worker threads.
    pub fn run_worker(&self, cache: &TraceCache, sink: &(dyn Fn(CellResult) + Sync)) {
        while let Some(u) = self.claim() {
            self.run_unit(u, cache, sink);
        }
    }
}

/// Simulates one scalar cell over `trace`: exact, or interval-sampled
/// when the cell carries a spec. Sampled checkpoints persist in the trace
/// store when one is attached and the trace's checksum is known; a
/// storeless cache samples without persistence (same numbers, nothing
/// saved).
fn run_scalar<S: UopSource + ?Sized>(
    c: &CellJob,
    trace: &S,
    cache: &TraceCache,
) -> (Report, Option<SampleOutcome>) {
    let Some(spec) = &c.sample else {
        let sim = Simulator::new(c.config);
        let report = sim.run_measured(trace.uops_from(0), c.params.warmup, c.params.measure);
        return (report, None);
    };
    let (warmup, measure) = (c.params.warmup, c.params.measure);
    let sr = match (cache.disk_store(), cache.trace_checksum(c.workload)) {
        (Some(store), Some(ck)) => {
            let cks = TraceSampleStore::new(store, ck, &c.config, spec);
            run_sampled(&c.config, trace, warmup, measure, spec, &cks)
        }
        _ => run_sampled(&c.config, trace, warmup, measure, spec, &NoSampleStore),
    };
    let outcome = SampleOutcome::from_report(&sr);
    (sr.aggregate, Some(outcome))
}

/// Runs every (workload, configuration) cell of an experiment grid and
/// returns the reports indexed `[workload][configuration]` together with
/// the run's trace provenance.
///
/// Each workload's µop trace is materialized once — replayed from the
/// environment's trace store when a valid recording exists, emulated (and
/// recorded) otherwise — shared across its cells through a
/// [`TraceCache`], and evicted when its last cell completes. Within a
/// workload, compatible configuration columns are simulated together on
/// the batched lockstep path ([`wsrs_core::run_lockstep`]): one pass over
/// the shared trace, annotated by the family predictor once, drives every
/// lane of the batch. Work units (batches and leftover scalar cells) are
/// fanned across the environment's worker threads, each unit claimed by
/// exactly one worker; because every unit simulates its (trace,
/// configuration) pairs in isolation — and the lockstep path is
/// bit-identical to scalar by construction — the returned grid is
/// byte-identical for any worker count (including serial) and for
/// replayed vs freshly emulated traces.
///
/// The window, worker count, store and sampling spec come from `env`:
/// with [`RunEnv::sample`] set, every single-thread cell runs sampled.
#[must_use]
pub fn run_grid(
    env: &RunEnv,
    workloads: &[Workload],
    configs: &[(&str, SimConfig)],
    on_cell: CellHook<'_>,
) -> GridRun {
    run_grid_full(
        workloads,
        configs,
        env.params,
        env.threads,
        Some(env.store.clone()),
        env.sample,
        on_cell,
    )
}

/// A finished cell's slot: the exact (or aggregate) report plus the
/// sampling outcome when the cell ran sampled.
type CellSlot = Mutex<Option<(Report, Option<SampleOutcome>)>>;

/// [`run_grid`] with every knob explicit: worker count (`threads == 1`
/// runs every cell inline on the calling thread), the disk trace store
/// to replay from / record into (`None` disables the disk tier), and the
/// sampling spec (`None` runs every cell exact; `Some` runs every
/// single-thread cell interval-sampled with persisted warmup
/// checkpoints — multi-thread cells always run exact because the sampled
/// path is single-context).
///
/// # Panics
///
/// Panics if a worker thread panics, propagating the cell's panic.
#[must_use]
pub fn run_grid_full(
    workloads: &[Workload],
    configs: &[(&str, SimConfig)],
    params: RunParams,
    threads: usize,
    store: Option<TraceStore>,
    sample: Option<SampleSpec>,
    on_cell: CellHook<'_>,
) -> GridRun {
    // Workload-major cell list: row w's cells are contiguous, matching
    // the serial iteration order (and the returned [workload][config]
    // report shape).
    let jobs: Vec<CellJob> = workloads
        .iter()
        .flat_map(|&w| {
            configs.iter().map(move |(name, cfg)| {
                let mut job = CellJob::new(w, name, *cfg, params);
                job.sample = sample.filter(|_| cfg.threads == 1);
                job
            })
        })
        .collect();
    let queue = CellQueue::plan(jobs);
    let batched_cells = queue.batched_cells();
    // Column batching is workload-independent: read it off the first row
    // (all-false when there are no rows).
    let mut batched = vec![false; configs.len()];
    batched
        .iter_mut()
        .zip(&batched_cells)
        .for_each(|(b, &c)| *b = c);
    let cache =
        TraceCache::evicting_per_workload(params, queue.uses_per_workload()).with_store(store);
    let cells: Vec<CellSlot> = (0..queue.cells().len()).map(|_| Mutex::new(None)).collect();

    let sink = |r: CellResult| {
        let job = &queue.cells()[r.cell];
        on_cell(job.workload, &job.config_name, &r.report, r.elapsed);
        *cells[r.cell].lock().unwrap() = Some((r.report, r.sample));
    };
    let n_units = queue.units().len();
    if threads <= 1 || n_units <= 1 {
        queue.run_worker(&cache, &sink);
    } else {
        std::thread::scope(|s| {
            // The calling thread is worker 0.
            for _ in 1..threads.min(n_units) {
                s.spawn(|| queue.run_worker(&cache, &sink));
            }
            queue.run_worker(&cache, &sink);
        });
    }

    let mut flat = cells.into_iter();
    let (mut reports, mut samples) = (Vec::new(), Vec::new());
    for _ in workloads {
        let row: Vec<(Report, Option<SampleOutcome>)> = flat
            .by_ref()
            .take(configs.len())
            .map(|c| c.into_inner().unwrap().expect("cell completed"))
            .collect();
        samples.push(row.iter().map(|(_, s)| *s).collect());
        reports.push(row.into_iter().map(|(r, _)| r).collect());
    }
    GridRun {
        reports,
        batched,
        samples,
        provenance: cache.provenance(),
    }
}

/// Renders a labelled numeric grid (benchmarks × configurations) as text.
#[must_use]
pub fn render_grid(
    title: &str,
    col_names: &[&str],
    rows: &[(String, Vec<f64>)],
    precision: usize,
) -> String {
    let mut out = format!("## {title}\n\n");
    out.push_str(&format!("{:<10}", ""));
    for c in col_names {
        out.push_str(&format!("{c:>15}"));
    }
    out.push('\n');
    for (name, vals) in rows {
        out.push_str(&format!("{name:<10}"));
        for v in vals {
            out.push_str(&format!("{v:>15.precision$}"));
        }
        out.push('\n');
    }
    out
}

/// Renders the same grid as comma-separated values (for plotting).
#[must_use]
pub fn render_csv(col_names: &[&str], rows: &[(String, Vec<f64>)]) -> String {
    let mut out = String::from("benchmark");
    for c in col_names {
        out.push(',');
        out.push_str(c);
    }
    out.push('\n');
    for (name, vals) in rows {
        out.push_str(name);
        for v in vals {
            out.push_str(&format!(",{v:.4}"));
        }
        out.push('\n');
    }
    out
}

/// Renders one row per (benchmark, configuration) as horizontal ASCII bars
/// — the shape the paper's Figure 4/5 charts convey.
#[must_use]
pub fn render_bars(
    title: &str,
    col_names: &[&str],
    rows: &[(String, Vec<f64>)],
    max_value: f64,
) -> String {
    const WIDTH: usize = 48;
    let mut out = format!("## {title}\n\n");
    let label_w = col_names.iter().map(|c| c.len()).max().unwrap_or(0);
    for (name, vals) in rows {
        out.push_str(&format!("{name}\n"));
        for (c, v) in col_names.iter().zip(vals) {
            let n = ((v / max_value) * WIDTH as f64)
                .round()
                .clamp(0.0, WIDTH as f64) as usize;
            out.push_str(&format!(
                "  {c:<label_w$}  {:<WIDTH$}  {v:.3}\n",
                "#".repeat(n)
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_renders() {
        let csv = render_csv(&["a", "b"], &[("gzip".into(), vec![1.25, 2.5])]);
        assert!(csv.starts_with("benchmark,a,b\n"));
        assert!(csv.contains("gzip,1.2500,2.5000"));
    }

    #[test]
    fn bars_scale_to_max() {
        let bars = render_bars("t", &["x"], &[("w".into(), vec![2.0])], 2.0);
        assert!(bars.contains(&"#".repeat(48)), "full-scale bar");
        let half = render_bars("t", &["x"], &[("w".into(), vec![1.0])], 2.0);
        assert!(half.contains(&"#".repeat(24)));
        assert!(!half.contains(&"#".repeat(25)));
    }

    fn row(w: Workload, configs: &[(&str, SimConfig)], params: RunParams) -> Vec<CellJob> {
        configs
            .iter()
            .map(|(name, cfg)| CellJob::new(w, name, *cfg, params))
            .collect()
    }

    #[test]
    fn figure4_plans_as_one_lockstep_batch() {
        let params = RunParams::default_scaled();
        let configs = figure4_configs();
        let queue = CellQueue::plan(row(Workload::Gzip, &configs, params));
        assert_eq!(
            queue.units().len(),
            1,
            "six sibling configs share one batch"
        );
        assert_eq!(queue.units()[0], WorkUnit::Batch(vec![0, 1, 2, 3, 4, 5]));
        assert_eq!(queue.batched_cells(), vec![true; 6]);
    }

    #[test]
    fn incompatible_columns_fall_back_to_scalar_units() {
        let params = RunParams::default_scaled();
        let mut smt = SimConfig::conventional_rr(256);
        smt.threads = 2;
        let mut vp = SimConfig::conventional_rr(256);
        vp.vp_phys_per_subset = Some(48);
        let configs = [
            ("a", SimConfig::conventional_rr(256)),
            ("smt", smt),
            ("b", SimConfig::conventional_rr(512)),
            ("vp", vp),
        ];
        let queue = CellQueue::plan(row(Workload::Gzip, &configs, params));
        // smt and vp run scalar; a and b share a batch.
        assert_eq!(queue.units().len(), 3);
        let batched: Vec<_> = queue
            .units()
            .iter()
            .filter_map(|u| match u {
                WorkUnit::Batch(g) => Some(g.clone()),
                WorkUnit::Scalar(_) => None,
            })
            .collect();
        assert_eq!(batched, vec![vec![0, 2]]);
        assert_eq!(queue.batched_cells(), vec![true, false, true, false]);
    }

    #[test]
    fn multi_workload_queue_keeps_workloads_contiguous() {
        let params = RunParams::default_scaled();
        let configs = [
            ("a", SimConfig::conventional_rr(256)),
            ("b", SimConfig::conventional_rr(512)),
        ];
        let mut cells = row(Workload::Gzip, &configs, params);
        cells.extend(row(Workload::Mcf, &configs, params));
        let queue = CellQueue::plan(cells);
        assert_eq!(
            queue.units(),
            &[WorkUnit::Batch(vec![0, 1]), WorkUnit::Batch(vec![2, 3])]
        );
        let uses = queue.uses_per_workload();
        assert_eq!(uses[&Workload::Gzip], 1);
        assert_eq!(uses[&Workload::Mcf], 1);
    }

    #[test]
    fn store_backed_checkouts_stream_and_share_the_eviction_count() {
        let dir = std::env::temp_dir().join(format!("wsrs-bench-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Some(TraceStore::at(&dir));
        let p = RunParams {
            warmup: 500,
            measure: 500,
        };
        let w = Workload::Gzip;
        let recorder = TraceCache::evicting(p, 1).with_store(store.clone());
        drop(recorder.checkout(w));
        recorder.release(w);

        // A store-backed streamed checkout decodes nothing, however many
        // checkouts of the workload are expected.
        let mixed = TraceCache::evicting(p, 3).with_store(store);
        assert!(matches!(
            mixed.checkout_streamed(w),
            TraceView::Streamed(f) if f.checksum() == recorder.trace_checksum(w).unwrap()
        ));
        mixed.release(w);
        // A decoded copy a batch built is shared instead of streamed.
        // Streamed checkouts count against the expected uses, so that copy
        // is still evicted after the last release.
        assert_eq!(mixed.checkout(w).len(), 1000);
        assert!(matches!(mixed.checkout_streamed(w), TraceView::Decoded(t) if t.len() == 1000));
        mixed.release(w);
        mixed.release(w);
        let c = mixed.provenance().counters;
        assert_eq!((c.disk_hits, c.mem_hits, c.evictions), (2, 1, 1));
        assert!(mixed.entries.lock().unwrap().is_empty());

        // Without a store there is nothing to stream.
        let storeless = TraceCache::evicting(p, 1);
        assert!(matches!(
            storeless.checkout_streamed(w),
            TraceView::Decoded(t) if t.len() == 1000
        ));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cell_job_parses_its_wire_form() {
        let defaults = RunParams {
            warmup: 1_000,
            measure: 2_000,
        };
        let registry = config_registry();
        // Registry entries carry telemetry switched on; parsing must
        // resolve to exactly that configuration.
        let rr256 = registry.iter().find(|(n, _)| n == "RR 256").unwrap().1;
        let wire = "{\"workload\":\"swim\",\"config\":\"RR 256\",\"warmup\":3000,\"measure\":4000}";
        let parsed = CellJob::from_json(&Json::parse(wire).unwrap(), &registry, defaults).unwrap();
        assert_eq!(parsed.workload, Workload::Swim);
        assert_eq!(parsed.config_name, "RR 256");
        assert_eq!(parsed.config, rr256);
        assert_eq!(
            (parsed.params.warmup, parsed.params.measure),
            (3_000, 4_000)
        );
        assert!(parsed.sample.is_none());
        assert_eq!(rr256.content_hash(), parsed.config.content_hash());
    }

    /// Absent optional fields default; present-but-malformed ones are
    /// errors that name the field.
    #[test]
    fn cell_job_parse_errors_name_the_field() {
        let params = RunParams {
            warmup: 1_000,
            measure: 2_000,
        };
        let registry = config_registry();
        let parse = |extra: &str| {
            let body = format!("{{\"workload\":\"gzip\",\"config\":\"RR 256\"{extra}}}");
            CellJob::from_json(&Json::parse(&body).unwrap(), &registry, params)
        };
        let plain = parse("").unwrap();
        assert!(plain.sample.is_none());
        let sampled =
            parse(",\"sample\":{\"intervals\":4,\"interval_uops\":500,\"detail_warmup\":100}");
        assert_eq!(sampled.unwrap().sample.unwrap().intervals, 4);

        for (extra, field) in [
            (",\"warmup\":\"abc\"", "'warmup'"),
            (",\"warmup\":-1", "'warmup'"),
            (",\"measure\":1.5", "'measure'"),
            (",\"measure\":0", "'measure'"),
            (
                ",\"warmup\":18446744073709551615,\"measure\":1",
                "'warmup' + 'measure'",
            ),
            (",\"sample\":7", "'sample'"),
            (
                ",\"sample\":{\"intervals\":4,\"interval_uops\":500}",
                "'sample.detail_warmup'",
            ),
            (
                ",\"sample\":{\"intervals\":0,\"interval_uops\":500,\"detail_warmup\":1}",
                "'sample.intervals'",
            ),
            (
                ",\"sample\":{\"intervals\":4294967296,\"interval_uops\":5,\"detail_warmup\":1}",
                "'sample.intervals'",
            ),
            (
                ",\"sample\":{\"intervals\":2001,\"interval_uops\":5,\"detail_warmup\":1}",
                "'sample.intervals'",
            ),
        ] {
            let err = parse(extra).expect_err(extra);
            assert!(err.contains(field), "{extra}: {err}");
        }
        let bare = |body: &str| CellJob::from_json(&Json::parse(body).unwrap(), &registry, params);
        for (body, field) in [
            ("{\"config\":\"RR 256\"}", "'workload'"),
            ("{\"workload\":3,\"config\":\"RR 256\"}", "'workload'"),
            (
                "{\"workload\":\"nonesuch\",\"config\":\"RR 256\"}",
                "'nonesuch'",
            ),
            ("{\"workload\":\"gzip\"}", "'config'"),
            (
                "{\"workload\":\"gzip\",\"config\":\"nonesuch\"}",
                "'nonesuch'",
            ),
        ] {
            let err = bare(body).expect_err(body);
            assert!(err.contains(field), "{body}: {err}");
        }
    }

    #[test]
    fn six_figure4_configs() {
        let cfgs = figure4_configs();
        assert_eq!(cfgs.len(), 6);
        assert_eq!(cfgs[0].0, "RR 256");
        for (_, c) in &cfgs {
            c.validate();
        }
    }

    #[test]
    fn grid_renders() {
        let g = render_grid("IPC", &["a", "b"], &[("gzip".into(), vec![1.0, 2.0])], 2);
        assert!(g.contains("gzip"));
        assert!(g.contains("2.00"));
    }
}
