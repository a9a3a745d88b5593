//! Interval-sampled simulation with functional fast-forward.
//!
//! SMARTS-style sampling: instead of cycle-simulating a whole trace, pick
//! K short measured intervals spread evenly across the measured region,
//! *functionally* fast-forward the long-horizon architectural state
//! (branch-predictor tables, cache tags) between them, run a short
//! detailed warmup before each interval to re-establish the short-horizon
//! state (window, rename map, queues, port/bus occupancy), and aggregate
//! the per-interval IPCs into an estimate with a measured error bound.
//!
//! ## Soundness of functional fast-forward
//!
//! Architectural state splits by *warmth horizon* — how far back in the
//! µop stream the state's contents can depend:
//!
//! * **Unbounded horizon**: predictor counters and cache tags/LRU
//!   accumulate over millions of µops. These *must* be carried across
//!   fast-forward, and they can be, functionally: direction prediction is
//!   a pure function of the trace prefix (timing never feeds back into
//!   it — the same property the batched lockstep path exploits), and
//!   cache residency/recency depend only on the access sequence, not on
//!   when accesses happen. `Warmer` advances exactly this state.
//! * **Unbounded horizon, WSRS only**: the *architectural subset map* —
//!   which register-file subset each logical register was last written
//!   into. On a WSRS machine cluster placement is constrained by operand
//!   subsets (a dyadic µop under `RM` is *fully* constrained), and
//!   rarely-rewritten registers (stack/global base registers) keep their
//!   subset for millions of µops, so the reset `i % 4` map mixes far too
//!   slowly for a detailed warmup to fix. Worse, the map's steady state is
//!   *draw-sequence-sensitive* (the same cell's exact IPC moves several
//!   percent across policy-RNG seeds), so a statistical imitation is not
//!   enough. `MapWarmer` therefore replays the engine's placement
//!   choices *exactly* — it owns a real `Allocator`, draws once per µop in
//!   trace order like the rename stage, and checkpoints both the map and
//!   the RNG position; the interval engine is seeded with the warmed
//!   assignment and the replayed draw position.
//! * **Bounded horizon**: the physical rename mappings, ROB/window
//!   contents, store queues, and port/bus occupancy are rewritten within
//!   a window-depth (~hundreds of µops) of execution. The per-interval
//!   *detailed warmup* re-establishes them exactly, so they are
//!   deliberately **not** checkpointed.
//!
//! Three approximations remain, all covered by the measured error bound:
//! the warmer touches memory in program order with no overlap (the
//! detailed engine reorders loads and lets forwarded loads skip the
//! cache), the map warmer ignores occupancy/exhaustion steering (exact
//! for `RM`/`RC`; approximate under `LoadBalance` or `avoid_exhaustion`),
//! and interval placement is systematic rather than random.
//!
//! ## Determinism
//!
//! The detailed interval runs are always constructed *from the encoded
//! checkpoint representation* — on a cold store the fast-forwarded state
//! is first encoded (and saved), then decoded into the interval engine
//! exactly as a warm run would decode it from disk. Sampled results are
//! therefore byte-identical for any store warmth, and each cell is
//! independent of worker threads exactly like the exact path.

use wsrs_frontend::DirectionPredictor;
use wsrs_isa::{DynInst, Fnv1a, RegClass, RegRef, UopCursor, UopSource};
use wsrs_mem::MemoryHierarchy;
use wsrs_regfile::Subset;

use crate::alloc::Allocator;
use crate::config::{RegFileMode, SimConfig};
use crate::metrics::Report;
use crate::sim::{predict_uop, Engine, PredictedIters, RunSpec, WarmStart};
use crate::slots::class_index;

/// The sampling plan: how many intervals, how long, and how much detailed
/// warmup precedes each. Interval *placement* is a pure function of this
/// spec and the trace window (seed-free, evenly spaced), so the spec's
/// content hash plus the trace checksum fully identify every interval
/// boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SampleSpec {
    /// Number of measured intervals, K.
    pub intervals: u32,
    /// Measured µops per interval.
    pub interval_uops: u64,
    /// Detailed-warmup µops simulated before each measured interval to
    /// re-establish short-horizon pipeline state.
    pub detail_warmup: u64,
}

impl Default for SampleSpec {
    fn default() -> Self {
        // Tuned on the figure4 gate grid: 48 intervals hold equake's
        // phase variance to a ≤2% grid-mean error, and with the policy
        // RNG replayed exactly a ~1000-µop detailed warmup (window depth,
        // not map-mixing time) suffices. 48 × 1750 = 84 k detailed µops
        // per cell, ~11% of the 750 k-µop gate window.
        SampleSpec {
            intervals: 48,
            interval_uops: 750,
            detail_warmup: 1000,
        }
    }
}

impl SampleSpec {
    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any component is zero.
    pub fn validate(&self) {
        assert!(self.intervals > 0, "sample spec needs at least 1 interval");
        assert!(self.interval_uops > 0, "interval_uops must be positive");
        assert!(self.detail_warmup > 0, "detail_warmup must be positive");
    }

    /// Canonical content hash of the spec — the `spec` component of
    /// checkpoint keys and sampled memo keys. Field-order FNV-1a under a
    /// versioned tag, like `SimConfig::content_hash`.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        // v2: checkpoints additionally carry the functionally warmed
        // architectural subset map (WSRS configurations). v3: the map
        // warmer replays the engine's policy-RNG draws exactly and the
        // rename section's RNG word changed meaning from a private stream
        // to the engine's own draw position. Each bump changes sampled
        // estimates, so it invalidates older checkpoints and memoized
        // sampled cells together.
        h.write(b"wsrs-samplespec-v3;");
        h.write_u64(u64::from(self.intervals));
        h.write_u64(self.interval_uops);
        h.write_u64(self.detail_warmup);
        h.finish()
    }
}

/// The warm-state key: a content hash of exactly the configuration facets
/// whose state lives *inside* a checkpoint — the predictor kind, the
/// memory-hierarchy geometry, and (WSRS only) the facets driving the
/// warmed rename map. Conventional and write-specialized configurations
/// differing only in back-end geometry (cluster count, window, register
/// budget) share warm state, so one fast-forward pass serves a whole grid
/// column; WSRS configurations additionally split by allocation policy
/// and seed, because the warmed subset map replays the policy's placement
/// choices (`WSRS RC S 384/512` still share — register budget does not
/// enter the map).
#[must_use]
pub fn warm_state_key(cfg: &SimConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write(b"wsrs-warmstate-v3;");
    h.write(cfg.predictor.to_string().as_bytes());
    h.write_u8(b';');
    for c in [cfg.hierarchy.l1, cfg.hierarchy.l2] {
        h.write_u64(c.size_bytes as u64);
        h.write_u64(c.line_bytes as u64);
        h.write_u64(c.associativity as u64);
        h.write_u64(u64::from(c.hit_latency));
    }
    h.write_u64(u64::from(cfg.hierarchy.l1_miss_penalty));
    h.write_u64(u64::from(cfg.hierarchy.l2_miss_penalty));
    h.write_u64(u64::from(cfg.hierarchy.l1_ports_per_cycle));
    h.write_u64(u64::from(cfg.hierarchy.l2_bytes_per_cycle));
    if cfg.mode == RegFileMode::Wsrs {
        h.write(b"map;");
        h.write(cfg.policy.to_string().as_bytes());
        h.write_u8(b';');
        h.write_u64(cfg.seed);
        h.write_u64(cfg.renamer().subsets as u64);
    }
    h.finish()
}

/// Functional warmer for the architectural subset map and the allocation
/// policy's RNG position (WSRS only). It owns a real [`Allocator`] — the
/// same type, seed, and construction as the detailed engine's — and calls
/// `choose` once per µop in trace order with operand subsets read from
/// its own map, exactly as the rename stage does. Because the policy RNG
/// draws exactly once per µop shape that needs randomness, the warmer's
/// draw sequence *is* the full run's: at any interval boundary the map
/// and the RNG position match what an uninterrupted detailed run would
/// hold, and the interval engine is seeded with both. The replay is exact
/// for the random policies (`RM`/`RC`); two steering inputs the warmer
/// cannot know are ignored — per-cluster occupancy (only `LoadBalance`
/// reads it) and free-register exhaustion (`avoid_exhaustion`, off by
/// default) — making those configurations approximate, covered by the
/// measured error bound.
#[derive(Clone, Debug)]
struct MapWarmer {
    alloc: Allocator,
    /// All-zero per-cluster occupancy handed to `choose`.
    zero_loads: Vec<usize>,
    /// Logical → subset, per class (integer first): the renamer's
    /// placement.
    map: [Vec<Subset>; 2],
}

impl MapWarmer {
    /// The reset placement and a freshly seeded allocator, matching
    /// `Engine::new` from reset.
    fn new(cfg: &SimConfig) -> MapWarmer {
        MapWarmer {
            alloc: Allocator::new(cfg.policy, cfg.mode, cfg.clusters, cfg.seed),
            zero_loads: vec![0; cfg.clusters],
            map: cfg.renamer().reset_placement(),
        }
    }

    fn subset_of(&self, r: RegRef) -> Subset {
        self.map[class_index(r.class())][r.index() as usize]
    }

    /// Advances over one µop: replays the rename stage's placement choice
    /// (every µop draws, even destination-less ones — the engine caches
    /// one `choose` per µop) and records the chosen cluster's subset as
    /// the destination's new home.
    fn advance_uop(&mut self, d: &DynInst) {
        let srcs = [
            d.srcs[0].map(|r| self.subset_of(r)),
            d.srcs[1].map(|r| self.subset_of(r)),
        ];
        let choice = self.alloc.choose(d, srcs, &self.zero_loads);
        if let Some(dst) = d.dst {
            self.map[class_index(dst.class())][dst.index() as usize] =
                RegFileMode::Wsrs.write_subset(choice.cluster);
        }
    }

    /// Encodes the warmer as a checkpoint section: policy-RNG state (8
    /// bytes LE) followed by the int and fp maps.
    fn encode(&self) -> Vec<u8> {
        let [int, fp] = &self.map;
        let mut out = Vec::with_capacity(8 + int.len() + fp.len());
        out.extend_from_slice(&self.alloc.rng_state().to_le_bytes());
        out.extend(int.iter().chain(fp).map(|s| s.0));
        out
    }

    /// Decodes a section for `cfg`; `None` on any length or subset-range
    /// mismatch.
    fn decode(cfg: &SimConfig, bytes: &[u8]) -> Option<MapWarmer> {
        let subsets = cfg.renamer().subsets;
        let (ni, nf) = (RegClass::Int.logical_count(), RegClass::Fp.logical_count());
        if bytes.len() != 8 + ni + nf {
            return None;
        }
        let (rng_bytes, maps) = bytes.split_at(8);
        if maps.iter().any(|&b| b as usize >= subsets) {
            return None;
        }
        let mut alloc = Allocator::new(cfg.policy, cfg.mode, cfg.clusters, cfg.seed);
        alloc.set_rng_state(u64::from_le_bytes(
            rng_bytes.try_into().expect("8-byte split"),
        ));
        Some(MapWarmer {
            alloc,
            zero_loads: vec![0; cfg.clusters],
            map: [&maps[..ni], &maps[ni..]].map(|m| m.iter().map(|&b| Subset(b)).collect()),
        })
    }
}

/// One warmup checkpoint, in the simulator's own representation: the
/// fast-forward position plus the encoded long-horizon state. The
/// persistence layer (`wsrs-trace`) stores these as opaque tagged
/// sections; this crate owns the encodings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleCheckpoint {
    /// Interval index within the spec.
    pub interval: u32,
    /// µops functionally consumed from the trace start to reach this
    /// interval's detailed-warmup boundary.
    pub ff_uops: u64,
    /// Encoded predictor state (`DirectionPredictor::dump_state`); empty
    /// for stateless or oracle predictors.
    pub predictor: Vec<u8>,
    /// Encoded hierarchy state (`MemoryHierarchy::dump_state`).
    pub hierarchy: Vec<u8>,
    /// Encoded architectural-subset-map warmer state; empty for
    /// non-WSRS configurations (the map only constrains placement there).
    pub rename: Vec<u8>,
}

/// Checkpoint persistence as seen from the sampling loop. Implementations
/// key entries on (trace checksum, sim revision, spec hash, warm-state
/// key, interval) — everything but the interval is fixed per call, so the
/// interface passes only the interval index. A load must return `None`
/// rather than corrupt or mismatched data.
pub trait SampleStore {
    /// The checkpoint for `interval`, if a valid one is stored.
    fn load(&self, interval: u32) -> Option<SampleCheckpoint>;
    /// Persists `cp` (best-effort; errors are treated as a cache miss on
    /// the next run). Returns whether the checkpoint was actually
    /// persisted — the `checkpoints_saved` counter counts only those.
    fn save(&self, cp: &SampleCheckpoint) -> bool;
}

/// The null store: every load misses, saves are dropped. Sampling without
/// persistence.
pub struct NoSampleStore;

impl SampleStore for NoSampleStore {
    fn load(&self, _interval: u32) -> Option<SampleCheckpoint> {
        None
    }
    fn save(&self, _cp: &SampleCheckpoint) -> bool {
        false
    }
}

/// The result of one sampled cell.
#[derive(Clone, Debug)]
pub struct SampledReport {
    /// The IPC estimate: inverse of the mean per-interval CPI (with
    /// equal-µop intervals this equals measured µops over measured cycles,
    /// matching the exact path's ratio — an arithmetic mean of IPCs would
    /// bias high on phased workloads).
    pub ipc_estimate: f64,
    /// IPC of each measured interval, in placement order.
    pub per_interval_ipcs: Vec<f64>,
    /// Coefficient of variation of the per-interval CPIs (sample stddev
    /// over mean; 0 with fewer than two intervals).
    pub cv: f64,
    /// Half-width of the ~95% confidence interval on the IPC estimate:
    /// `1.96 · s_cpi / √K` mapped through the delta method, in absolute
    /// IPC.
    pub error_bound: f64,
    /// Aggregate counters summed over the detailed interval runs (the
    /// `Report` a sampled cell stands in for; `attribution` is `None`).
    pub aggregate: Report,
    /// µops functionally fast-forwarded this run — 0 when every interval
    /// replayed from a checkpoint (the pure-replay fast path).
    pub ff_uops: u64,
    /// Checkpoints loaded from the store this run.
    pub checkpoints_loaded: u32,
    /// Checkpoints written to the store this run.
    pub checkpoints_saved: u32,
    /// µops simulated in detail (warmup + measured, all intervals).
    pub uops_detailed: u64,
}

/// One planned interval: fast-forward to `detail_start`, simulate
/// `[detail_start, measure_end)` in detail, measure from `measure_start`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Interval {
    detail_start: u64,
    measure_start: u64,
    measure_end: u64,
}

/// Evenly spaced, seed-free placement over the measured region
/// `[warmup, warmup + measure)` of a trace `n` µops long. Intervals whose
/// start would overlap the previous interval's detailed region (possible
/// only on tiny traces or very dense specs) are dropped; clamping keeps
/// the plan monotone, so the fast-forward cursor only moves forward.
/// Placed intervals start at distinct measured µops, so the plan is
/// sized by the region, not by the spec.
fn plan_intervals(spec: &SampleSpec, warmup: u64, measure: u64, n: u64) -> Vec<Interval> {
    let region_start = warmup.min(n);
    let region_len = measure.min(n - region_start);
    let k = u64::from(spec.intervals);
    let mut plan = Vec::with_capacity(k.min(region_len.max(1)) as usize);
    let mut prev_end = 0u64;
    for i in 0..k {
        let measure_start = region_start + i * region_len / k;
        if measure_start >= n || measure_start < prev_end {
            continue;
        }
        let measure_end = measure_start.saturating_add(spec.interval_uops).min(n);
        let detail_start = measure_start
            .saturating_sub(spec.detail_warmup)
            .max(prev_end);
        plan.push(Interval {
            detail_start,
            measure_start,
            measure_end,
        });
        prev_end = measure_end;
    }
    plan
}

/// The functional fast-forward engine: carries exactly the unbounded-
/// horizon state (predictor, cache tags) across the gaps between
/// intervals, µop by µop, with no timing bookkeeping.
struct Warmer {
    predictor: Option<Box<dyn DirectionPredictor>>,
    hierarchy: MemoryHierarchy,
    /// `Some` iff the configuration is WSRS — the only mode where the
    /// architectural subset map constrains placement.
    map: Option<MapWarmer>,
}

impl Warmer {
    fn new(cfg: &SimConfig) -> Warmer {
        Warmer {
            predictor: cfg.predictor.build(),
            hierarchy: MemoryHierarchy::new(cfg.hierarchy),
            map: (cfg.mode == RegFileMode::Wsrs).then(|| MapWarmer::new(cfg)),
        }
    }

    /// Advances over `uops` functionally: every conditional branch trains
    /// the predictor (prediction is a pure function of trace order), every
    /// memory µop touches the tag arrays in program order, and every
    /// register write moves its destination's subset (WSRS).
    fn advance(&mut self, uops: impl Iterator<Item = DynInst>) {
        for d in uops {
            if d.is_cond_branch() {
                predict_uop(&mut self.predictor, 0, &d);
            }
            if let Some(addr) = d.eff_addr {
                if d.is_load() {
                    self.hierarchy.warm_access(addr, false);
                } else if d.is_store() {
                    self.hierarchy.warm_access(addr, true);
                }
            }
            if let Some(m) = &mut self.map {
                m.advance_uop(&d);
            }
        }
    }

    /// Encodes the current warm state as a checkpoint at `ff_uops`.
    fn snapshot(&self, interval: u32, ff_uops: u64) -> SampleCheckpoint {
        let mut predictor = Vec::new();
        if let Some(p) = &self.predictor {
            p.dump_state(&mut predictor);
        }
        let mut hierarchy = Vec::with_capacity(self.hierarchy.dump_len());
        self.hierarchy.dump_state(&mut hierarchy);
        SampleCheckpoint {
            interval,
            ff_uops,
            predictor,
            hierarchy,
            rename: self.map.as_ref().map_or_else(Vec::new, MapWarmer::encode),
        }
    }

    /// Replaces the warm state with `cp`'s, all-or-nothing: on any decode
    /// failure the warmer is left untouched and `false` is returned (the
    /// caller falls back to fast-forwarding).
    fn adopt(&mut self, cfg: &SimConfig, cp: &SampleCheckpoint) -> bool {
        let Some((predictor, hierarchy, map)) = decode_state(cfg, cp) else {
            return false;
        };
        self.predictor = predictor;
        self.hierarchy = hierarchy;
        self.map = map;
        true
    }
}

/// Decodes a checkpoint's state sections into fresh predictor/hierarchy/
/// map-warmer objects for `cfg`; `None` when any section does not match
/// the configuration's geometry (including a rename section present for a
/// non-WSRS configuration, or absent for a WSRS one).
#[allow(clippy::type_complexity)]
fn decode_state(
    cfg: &SimConfig,
    cp: &SampleCheckpoint,
) -> Option<(
    Option<Box<dyn DirectionPredictor>>,
    MemoryHierarchy,
    Option<MapWarmer>,
)> {
    let predictor = match cfg.predictor.build() {
        Some(mut p) => {
            if !p.load_state(&cp.predictor) {
                return None;
            }
            Some(p)
        }
        None => {
            if !cp.predictor.is_empty() {
                return None;
            }
            None
        }
    };
    let mut hierarchy = MemoryHierarchy::new(cfg.hierarchy);
    if !hierarchy.load_state(&cp.hierarchy) {
        return None;
    }
    let map = if cfg.mode == RegFileMode::Wsrs {
        Some(MapWarmer::decode(cfg, &cp.rename)?)
    } else {
        if !cp.rename.is_empty() {
            return None;
        }
        None
    };
    Some((predictor, hierarchy, map))
}

/// Runs one interval in detail from a checkpoint's state: the engine is
/// built on the decoded hierarchy (and, WSRS, the warm subset map and RNG
/// position), the decoded predictor feeds the fetch stream, and the first
/// `warm_uops` retired µops are detailed warmup excluded from measurement. Measurement *ends* at a retirement target
/// while the window is still full — the stream carries cooldown µops past
/// the measured region precisely so the pipeline never drains inside a
/// measurement, keeping both interval boundaries symmetric (SMARTS-style;
/// a drained tail would deflate and an undrained head inflate short
/// intervals).
fn run_interval(
    cfg: &SimConfig,
    uops: impl Iterator<Item = DynInst>,
    warm_uops: u64,
    measure_uops: u64,
    cp: &SampleCheckpoint,
) -> Report {
    let (predictor, hierarchy, map) =
        decode_state(cfg, cp).expect("interval run handed an undecodable checkpoint");
    let warm = WarmStart {
        hierarchy,
        arch_map: map.map(|m| (m.map, m.alloc.rng_state())),
    };
    let spec = RunSpec {
        warmup: warm_uops,
        ..RunSpec::default()
    };
    let stream = PredictedIters::new(vec![uops], predictor);
    Engine::new(cfg, &spec, Some(warm))
        .run(stream, warm_uops + measure_uops)
        .report
}

/// Sums the summable counters of the interval reports into one aggregate
/// (`unbalance_percent` is µop-weighted; `attribution` is dropped).
fn sum_reports(reports: &[Report]) -> Report {
    let mut it = reports.iter();
    let mut total = it.next().expect("at least one interval").clone();
    total.attribution = None;
    let mut unbalance_weighted = total.unbalance_percent * total.uops as f64;
    for r in it {
        total.cycles += r.cycles;
        total.uops += r.uops;
        total.branches += r.branches;
        total.mispredicts += r.mispredicts;
        for (a, b) in total.per_cluster.iter_mut().zip(&r.per_cluster) {
            *a += b;
        }
        unbalance_weighted += r.unbalance_percent * r.uops as f64;
        total.stalls.frontend += r.stalls.frontend;
        total.stalls.rename += r.stalls.rename;
        total.stalls.window += r.stalls.window;
        for (a, b) in [
            (&mut total.memory.l1, &r.memory.l1),
            (&mut total.memory.l2, &r.memory.l2),
        ] {
            a.accesses += b.accesses;
            a.misses += b.misses;
            a.writebacks += b.writebacks;
        }
        total.memory.l1_port_stalls += r.memory.l1_port_stalls;
        total.memory.l2_bus_busy_cycles += r.memory.l2_bus_busy_cycles;
        total.rename.allocs += r.rename.allocs;
        total.rename.frees += r.rename.frees;
        total.rename.alloc_refusals += r.rename.alloc_refusals;
        for (row_a, row_b) in total
            .rename
            .refusals_by_subset
            .iter_mut()
            .zip(&r.rename.refusals_by_subset)
        {
            for (a, b) in row_a.iter_mut().zip(row_b) {
                *a += b;
            }
        }
        total.rename.recycled_unused += r.rename.recycled_unused;
        total.store_forwards += r.store_forwards;
        total.deadlocked |= r.deadlocked;
        total.deadlock_recoveries += r.deadlock_recoveries;
        for (a, b) in total.per_thread_uops.iter_mut().zip(&r.per_thread_uops) {
            *a += b;
        }
    }
    total.unbalance_percent = if total.uops == 0 {
        0.0
    } else {
        unbalance_weighted / total.uops as f64
    };
    total
}

/// Runs `cfg` over `uops` in sampled mode under `spec`, with `warmup` and
/// `measure` naming the trace's window (interval placement covers the
/// measured region). Checkpoints flow through `store`; pass
/// [`NoSampleStore`] to sample without persistence.
///
/// `uops` is any [`UopSource`] — a decoded slice or a trace file streamed
/// block by block. One cursor walks the trace forward (stepping back only
/// to the start of the interval just simulated), so a streamed source
/// decodes each block about once and never holds the whole trace. Once
/// the source is no longer [`intact`](UopSource::intact) no checkpoint is
/// saved, and the caller must discard the report.
///
/// # Panics
///
/// Panics if the configuration is inconsistent, is multi-threaded
/// (sampling is restricted to single-thread configs), or the spec is
/// degenerate.
#[must_use]
pub fn run_sampled<S: UopSource + ?Sized>(
    cfg: &SimConfig,
    uops: &S,
    warmup: u64,
    measure: u64,
    spec: &SampleSpec,
    store: &dyn SampleStore,
) -> SampledReport {
    cfg.validate();
    spec.validate();
    assert_eq!(cfg.threads, 1, "sampling supports single-thread configs");

    let n = uops.uop_count();
    let plan = plan_intervals(spec, warmup, measure, n);
    let mut cursor = uops.uops_from(0);
    let mut warmer = Warmer::new(cfg);
    let mut pos = 0u64;
    let (mut ff_uops, mut loaded, mut saved, mut detailed) = (0u64, 0u32, 0u32, 0u64);
    let mut reports = Vec::with_capacity(plan.len());
    for (i, iv) in plan.iter().enumerate() {
        let interval = i as u32;
        let cp = match store.load(interval) {
            Some(cp) if cp.ff_uops == iv.detail_start && warmer.adopt(cfg, &cp) => {
                loaded += 1;
                cp
            }
            _ => {
                cursor.seek(pos);
                warmer.advance(cursor.by_ref().take((iv.detail_start - pos) as usize));
                ff_uops += iv.detail_start - pos;
                let cp = warmer.snapshot(interval, iv.detail_start);
                // A stream cut short leaves the warmer behind `ff_uops`;
                // saved, that state would be adopted by every later run
                // of a trace with the same checksum.
                saved += u32::from(uops.intact() && store.save(&cp));
                cp
            }
        };
        pos = iv.detail_start;
        detailed += iv.measure_end - iv.detail_start;
        // Cooldown tail: enough trace past the measured region to keep the
        // window full through the retirement target (in-flight capacity
        // plus fetch-buffer margin).
        let cooldown = (cfg.clusters * cfg.window_per_cluster * 2 + 64) as u64;
        let slice_end = (iv.measure_end + cooldown).min(n);
        cursor.seek(iv.detail_start);
        reports.push(run_interval(
            cfg,
            cursor.by_ref().take((slice_end - iv.detail_start) as usize),
            iv.measure_start - iv.detail_start,
            iv.measure_end - iv.measure_start,
            &cp,
        ));
    }
    assert!(
        !reports.is_empty(),
        "sampling plan is empty: trace too short for the measured region"
    );

    // SMARTS-style estimation happens in CPI space: with (near-)equal-µop
    // intervals the mean of per-interval CPIs equals measured-cycles over
    // measured-µops, which is what the exact path's IPC inverts — an
    // arithmetic mean of per-interval IPCs would be biased high whenever
    // the workload has slow phases. The confidence half-width is computed
    // on CPI and mapped to IPC via the delta method (d(1/x) = -dx/x²).
    let ipcs: Vec<f64> = reports.iter().map(Report::ipc).collect();
    let cpis: Vec<f64> = ipcs.iter().map(|&x| 1.0 / x).collect();
    let k = cpis.len() as f64;
    let mean_cpi = cpis.iter().sum::<f64>() / k;
    let (cv, error_bound) = if cpis.len() > 1 {
        let var = cpis
            .iter()
            .map(|x| (x - mean_cpi) * (x - mean_cpi))
            .sum::<f64>()
            / (k - 1.0);
        let s = var.sqrt();
        let cpi_bound = 1.96 * s / k.sqrt();
        (s / mean_cpi, cpi_bound / (mean_cpi * mean_cpi))
    } else {
        (0.0, 0.0)
    };
    SampledReport {
        ipc_estimate: 1.0 / mean_cpi,
        per_interval_ipcs: ipcs,
        cv,
        error_bound,
        aggregate: sum_reports(&reports),
        ff_uops,
        checkpoints_loaded: loaded,
        checkpoints_saved: saved,
        uops_detailed: detailed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocPolicy;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use wsrs_isa::{Assembler, Emulator, Reg};
    use wsrs_regfile::RenameStrategy;

    fn wsrs_cfg(regs: usize) -> SimConfig {
        SimConfig::wsrs(
            regs,
            AllocPolicy::RandomCommutative,
            RenameStrategy::ExactCount,
        )
    }

    /// An in-memory store that round-trips checkpoints, for exercising the
    /// cold→warm path without a filesystem.
    #[derive(Default)]
    struct MemStore {
        map: RefCell<HashMap<u32, SampleCheckpoint>>,
    }

    impl SampleStore for MemStore {
        fn load(&self, interval: u32) -> Option<SampleCheckpoint> {
            self.map.borrow().get(&interval).cloned()
        }
        fn save(&self, cp: &SampleCheckpoint) -> bool {
            self.map.borrow_mut().insert(cp.interval, cp.clone());
            true
        }
    }

    fn kernel_uops(n: usize) -> Vec<DynInst> {
        let mut a = Assembler::new();
        let (i, nr, acc, addr) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
        a.li(i, 0);
        a.li(nr, 1_000_000);
        a.li(acc, 0);
        let top = a.bind_label();
        a.andi(addr, i, 0x3ff);
        a.slli(addr, addr, 3);
        a.lw(acc, addr, 0);
        a.addi(acc, acc, 1);
        a.sw(addr, 0, acc);
        a.addi(i, i, 1);
        a.blt(i, nr, top);
        a.halt();
        Emulator::new(a.assemble(), 1 << 16).take(n).collect()
    }

    fn spec() -> SampleSpec {
        SampleSpec {
            intervals: 6,
            interval_uops: 400,
            detail_warmup: 600,
        }
    }

    #[test]
    fn spec_hash_covers_every_field() {
        let base = spec();
        assert_eq!(base.content_hash(), base.content_hash());
        for m in [
            SampleSpec {
                intervals: 7,
                ..base
            },
            SampleSpec {
                interval_uops: 401,
                ..base
            },
            SampleSpec {
                detail_warmup: 601,
                ..base
            },
        ] {
            assert_ne!(m.content_hash(), base.content_hash(), "{m:?}");
        }
    }

    #[test]
    fn warm_key_shares_geometry_but_splits_wsrs_policies() {
        let base = SimConfig::conventional_rr(256);
        let ws = SimConfig::write_specialized_rr(384, RenameStrategy::ExactCount);
        assert_eq!(
            warm_state_key(&base),
            warm_state_key(&ws),
            "non-WSRS back-end geometry must share warm state"
        );
        let mut pred = base;
        pred.predictor = wsrs_frontend::PredictorKind::Gshare64K;
        assert_ne!(warm_state_key(&base), warm_state_key(&pred));
        let mut hier = base;
        hier.hierarchy.l2_miss_penalty += 1;
        assert_ne!(warm_state_key(&base), warm_state_key(&hier));
        // WSRS checkpoints carry the policy-driven subset map: RC shares
        // across register budgets, but never with RM or with non-WSRS.
        assert_eq!(
            warm_state_key(&wsrs_cfg(384)),
            warm_state_key(&wsrs_cfg(512))
        );
        assert_ne!(warm_state_key(&base), warm_state_key(&wsrs_cfg(512)));
        let rm = SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount);
        assert_ne!(warm_state_key(&rm), warm_state_key(&wsrs_cfg(512)));
    }

    #[test]
    fn planner_is_monotone_and_covers_the_region() {
        let s = spec();
        let plan = plan_intervals(&s, 3000, 12_000, 15_000);
        assert_eq!(plan.len(), 6);
        let mut prev_end = 0;
        for iv in &plan {
            assert!(iv.detail_start >= prev_end);
            assert!(iv.detail_start <= iv.measure_start);
            assert!(iv.measure_start < iv.measure_end);
            assert_eq!(iv.measure_start - iv.detail_start, s.detail_warmup);
            assert_eq!(iv.measure_end - iv.measure_start, s.interval_uops);
            prev_end = iv.measure_end;
        }
        assert_eq!(plan[0].measure_start, 3000);
        // A trace shorter than the window yields a clamped but usable plan.
        let short = plan_intervals(&s, 3000, 12_000, 4000);
        assert!(!short.is_empty());
        assert!(short.iter().all(|iv| iv.measure_end <= 4000));
    }

    #[test]
    fn planner_clamps_an_interval_longer_than_the_trace() {
        let s = SampleSpec {
            intervals: 4,
            interval_uops: u64::MAX,
            detail_warmup: 10,
        };
        // The first interval runs to the trace's end; the rest would
        // overlap it and are dropped.
        assert_eq!(
            plan_intervals(&s, 100, 1000, 1200),
            vec![Interval {
                detail_start: 90,
                measure_start: 100,
                measure_end: 1200,
            }]
        );
    }

    #[test]
    fn cold_and_warm_runs_are_identical_and_warm_skips_fast_forward() {
        let cfg = wsrs_cfg(512);
        let uops = kernel_uops(30_000);
        let store = MemStore::default();
        let cold = run_sampled(&cfg, &uops, 6000, 20_000, &spec(), &store);
        assert_eq!(cold.checkpoints_loaded, 0);
        assert_eq!(cold.checkpoints_saved, 6);
        assert!(cold.ff_uops > 0);
        let warm = run_sampled(&cfg, &uops, 6000, 20_000, &spec(), &store);
        assert_eq!(warm.checkpoints_loaded, 6);
        assert_eq!(warm.checkpoints_saved, 0);
        assert_eq!(warm.ff_uops, 0, "fully warm runs are pure replay");
        assert_eq!(warm.per_interval_ipcs, cold.per_interval_ipcs);
        assert_eq!(warm.ipc_estimate.to_bits(), cold.ipc_estimate.to_bits());
        assert_eq!(warm.error_bound.to_bits(), cold.error_bound.to_bits());
        assert_eq!(warm.aggregate.cycles, cold.aggregate.cycles);
        assert_eq!(warm.aggregate.uops, cold.aggregate.uops);
        // And without any store at all: same numbers, nothing persisted.
        let none = run_sampled(&cfg, &uops, 6000, 20_000, &spec(), &NoSampleStore);
        assert_eq!(none.per_interval_ipcs, cold.per_interval_ipcs);
    }

    #[test]
    fn estimate_tracks_exact_ipc() {
        let cfg = wsrs_cfg(512);
        let uops = kernel_uops(30_000);
        // Measure a steady region: the first ~10k µops of a cold trace are
        // a cache-fill ramp, which real cells exclude with 1M-µop windows.
        let exact = crate::Simulator::new(cfg).run_measured(uops.iter().cloned(), 12_000, 16_000);
        let sampled = run_sampled(
            &cfg,
            &uops,
            12_000,
            16_000,
            &SampleSpec {
                intervals: 10,
                interval_uops: 1000,
                detail_warmup: 4000,
            },
            &NoSampleStore,
        );
        let rel = (sampled.ipc_estimate - exact.ipc()).abs() / exact.ipc();
        assert!(
            rel < 0.03,
            "sampled {} vs exact {} ({}% off)",
            sampled.ipc_estimate,
            exact.ipc(),
            100.0 * rel
        );
        assert!(
            (sampled.ipc_estimate - exact.ipc()).abs() < 2.0 * sampled.error_bound,
            "exact IPC {} outside 2x reported bound {} of estimate {}",
            exact.ipc(),
            sampled.error_bound,
            sampled.ipc_estimate
        );
        assert!(sampled.uops_detailed < uops.len() as u64);
    }

    #[test]
    fn rm_checkpoints_carry_the_subset_map_and_replay_identically() {
        let cfg = SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount);
        let uops = kernel_uops(30_000);
        let store = MemStore::default();
        let cold = run_sampled(&cfg, &uops, 6000, 20_000, &spec(), &store);
        assert!(
            store.map.borrow().values().all(|cp| !cp.rename.is_empty()),
            "WSRS checkpoints must carry the warmed subset map"
        );
        let warm = run_sampled(&cfg, &uops, 6000, 20_000, &spec(), &store);
        assert_eq!(warm.ff_uops, 0);
        assert_eq!(warm.per_interval_ipcs, cold.per_interval_ipcs);
        assert_eq!(warm.ipc_estimate.to_bits(), cold.ipc_estimate.to_bits());
        // A corrupt rename section (bad subset byte) is a miss, not a
        // wrong map: the interval fast-forwards again and heals.
        *store
            .map
            .borrow_mut()
            .get_mut(&1)
            .unwrap()
            .rename
            .last_mut()
            .unwrap() = 200;
        let healed = run_sampled(&cfg, &uops, 6000, 20_000, &spec(), &store);
        assert_eq!(healed.per_interval_ipcs, cold.per_interval_ipcs);
        assert!(healed.ff_uops > 0);
        assert_eq!(healed.checkpoints_saved, 1);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_fast_forward() {
        let cfg = wsrs_cfg(512);
        let uops = kernel_uops(20_000);
        let store = MemStore::default();
        let cold = run_sampled(&cfg, &uops, 4000, 12_000, &spec(), &store);
        // Truncate one entry's hierarchy section; that interval must
        // fast-forward again and produce the same numbers.
        store.map.borrow_mut().get_mut(&2).unwrap().hierarchy.pop();
        let healed = run_sampled(&cfg, &uops, 4000, 12_000, &spec(), &store);
        assert_eq!(healed.per_interval_ipcs, cold.per_interval_ipcs);
        assert!(healed.ff_uops > 0);
        assert_eq!(healed.checkpoints_saved, 1, "bad entry was rewritten");
    }

    #[test]
    fn perfect_predictor_samples_with_empty_state() {
        let mut cfg = wsrs_cfg(512);
        cfg.predictor = wsrs_frontend::PredictorKind::Perfect;
        let uops = kernel_uops(20_000);
        let store = MemStore::default();
        let cold = run_sampled(&cfg, &uops, 4000, 12_000, &spec(), &store);
        assert!(store
            .map
            .borrow()
            .values()
            .all(|cp| cp.predictor.is_empty()));
        let warm = run_sampled(&cfg, &uops, 4000, 12_000, &spec(), &store);
        assert_eq!(warm.per_interval_ipcs, cold.per_interval_ipcs);
        assert_eq!(warm.ff_uops, 0);
    }
}
