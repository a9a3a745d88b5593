//! The cycle-level timing engine.
//!
//! The engine replays a dynamic µop trace (from the functional emulator)
//! through the §5 pipeline model:
//!
//! * **fetch** — sustained `fetch_width` µops/cycle (the paper idealizes
//!   the front end); conditional branches are predicted by 2Bc-gskew, and a
//!   misprediction stalls fetch until the branch resolves, with a
//!   configuration-dependent minimum penalty;
//! * **rename/dispatch** — in program order; the allocation policy picks a
//!   cluster (for WSRS, within the operand-subset constraints) and the
//!   destination is renamed into the cluster's register subset;
//! * **issue** — per cluster, oldest-first, two µops/cycle, with the
//!   cluster's functional-unit constraints; operands become usable one
//!   cycle later across clusters than inside the producing cluster;
//! * **memory** — load/store addresses are computed in program order;
//!   loads bypass non-conflicting stores and forward from conflicting ones;
//! * **commit** — in order, up to `fetch_width` per cycle; stores write the
//!   cache and previous register mappings are reclaimed at commit.
//!
//! Because only the correct path is fetched, mispredictions are pure
//! timing events and no squash machinery exists anywhere in the engine.
//!
//! The engine advances through `Engine::step` — exactly one cycle per
//! call — so a driver can interleave many engines over one trace (the
//! batched lockstep path, [`crate::batch`]). Front-end direction
//! prediction lives behind `FetchStream`: prediction depends only on
//! trace order, never on timing, so the batched driver annotates a shared
//! trace once and fans the per-µop outcomes out to every lane, while the
//! scalar path predicts inline as it pulls from its iterator.

use std::collections::VecDeque;

use crate::alloc::Allocator;
use crate::cluster::ClusterState;
use crate::config::{RegFileMode, SimConfig};
use crate::metrics::{Report, StallBreakdown, UnbalanceTracker};
use crate::pipeview::UopTiming;
use crate::slots::{
    class_index, PackedReg, Rob, SlotPush, F_LOAD, F_MISPREDICTED, F_STORE, LINK_NONE,
};
use crate::wheel::CalendarWheel;
use wsrs_frontend::DirectionPredictor;
use wsrs_isa::{latency, DynInst, RegClass};
use wsrs_mem::{MemoryHierarchy, StoreQueue, StoreQueueQuery};
use wsrs_regfile::{DeadlockMonitor, RenameStrategy, Renamer, Subset};
use wsrs_telemetry::{CycleAttribution, SlotBucket};

/// Sentinel for "value not yet produced".
const IN_FLIGHT: u64 = u64::MAX;

/// Cycles of continuous blocked-and-empty rename before declaring
/// deadlock. With an empty window nothing can commit, so the only registers
/// that can still appear are the ones maturing out of the strategy-1
/// recycling pipeline (a handful of cycles deep): 16 blocked-and-empty
/// cycles prove the wedge.
const DEADLOCK_THRESHOLD: u64 = 16;

/// A µop annotated with the front end's stream-order decisions. Whether a
/// conditional branch mispredicts is a pure function of the trace prefix
/// (the predictor sees every conditional branch in trace order and timing
/// never feeds back into it), which is what lets the batched engine
/// compute the annotation once per trace and share it across lanes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AnnUop {
    pub d: DynInst,
    pub cond_branch: bool,
    pub mispredicted: bool,
}

/// Per-thread source of annotated µops. The direction predictor lives
/// behind this trait, not in the engine.
pub(crate) trait FetchStream {
    /// The next µop of hardware thread `tid`, or `None` when its trace is
    /// exhausted.
    fn next(&mut self, tid: usize) -> Option<AnnUop>;
}

/// The scalar fetch stream: one iterator per hardware thread and a private
/// predictor, annotating µops as they are pulled.
pub(crate) struct PredictedIters<T> {
    traces: Vec<T>,
    /// `None` models the perfect-prediction oracle.
    predictor: Option<Box<dyn DirectionPredictor>>,
}

impl<T: Iterator<Item = DynInst>> PredictedIters<T> {
    pub(crate) fn new(traces: Vec<T>, predictor: Option<Box<dyn DirectionPredictor>>) -> Self {
        PredictedIters { traces, predictor }
    }
}

/// The predictor sees per-thread PCs (threads run distinct programs).
pub(crate) fn tagged_pc(tid: usize, pc: u64) -> u64 {
    pc | ((tid as u64) << 48)
}

/// Runs the direction predictor over one µop, returning whether it
/// mispredicted (shared by the scalar stream and the batch annotator).
pub(crate) fn predict_uop(
    predictor: &mut Option<Box<dyn DirectionPredictor>>,
    tid: usize,
    d: &DynInst,
) -> bool {
    let Some(p) = predictor.as_mut() else {
        return false;
    };
    let pc = tagged_pc(tid, d.pc);
    let pred = p.predict(pc);
    p.update(pc, d.taken);
    pred != d.taken
}

impl<T: Iterator<Item = DynInst>> FetchStream for PredictedIters<T> {
    fn next(&mut self, tid: usize) -> Option<AnnUop> {
        let d = self.traces[tid].next()?;
        let cond_branch = d.is_cond_branch();
        let mispredicted = cond_branch && predict_uop(&mut self.predictor, tid, &d);
        Some(AnnUop {
            d,
            cond_branch,
            mispredicted,
        })
    }
}

#[derive(Clone, Copy, Debug)]
struct RegInfo {
    /// Cycle the value becomes usable in the producing cluster; `IN_FLIGHT`
    /// while the producer has not issued.
    avail: u64,
    /// Head of the intrusive waiter list — `(seq << 1) | src_index` of the
    /// most recently hung consumer, [`LINK_NONE`] when none. Only non-null
    /// while `avail == IN_FLIGHT` under the event scheduler.
    wake_head: u64,
    /// Producing cluster (drives the inter-cluster forwarding penalty).
    cluster: u8,
    /// Whether the producer is a load — lets cycle attribution charge a
    /// dependent's wait to the memory hierarchy rather than ALU latency.
    from_load: bool,
}

/// Why dispatch made no progress this cycle (cycle-attribution input;
/// records only the *last* observed blocker, which is the binding one).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
enum DispatchBlock {
    /// Dispatch ran (or had nothing it was obliged to do).
    #[default]
    None,
    /// Fetch buffers empty.
    Frontend,
    /// Register allocation refused (subset/free-list exhausted); the
    /// subset is in `Engine::blocked_subset`.
    Rename,
    /// ROB or per-cluster window full.
    Window,
    /// Frozen by a deadlock-recovery exception.
    Frozen,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Redirect {
    /// Fetch is flowing.
    None,
    /// A mispredicted branch was fetched at the given cycle; waiting for
    /// it to resolve. Fetch stops behind it, so a thread has at most one.
    WaitingResolve(u64),
    /// Resolved; fetch resumes at the given cycle.
    WaitingCycle(u64),
}

#[derive(Clone, Copy, Debug)]
struct Fetched {
    d: DynInst,
    fetch_cycle: u64,
    mispredicted: bool,
    /// Cluster choice made on the first dispatch attempt; sticky across
    /// retries (hardware fixes the allocation before rename, §2.2).
    choice: Option<crate::alloc::ClusterChoice>,
}

/// A configured simulator. Construct with [`Simulator::new`], run a trace
/// with [`Simulator::run`].
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`SimConfig::validate`]).
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        config.validate();
        Simulator { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the trace to exhaustion (plus pipeline drain) and reports.
    pub fn run(&self, trace: impl IntoIterator<Item = DynInst>) -> Report {
        Engine::new(&self.config).run(vec![trace.into_iter()], 0, None)
    }

    /// Runs `warmup + measure` µops of the trace, warming predictors,
    /// caches and the window for the first `warmup` retired µops and
    /// reporting cycle/IPC/branch/unbalance statistics over the measured
    /// window only — the paper's §5.3 methodology (fast-forward, warm,
    /// measure a slice). Memory-hierarchy and rename counters cover the
    /// whole run.
    pub fn run_measured(
        &self,
        trace: impl IntoIterator<Item = DynInst>,
        warmup: u64,
        measure: u64,
    ) -> Report {
        let bounded = trace.into_iter().take((warmup + measure) as usize);
        Engine::new(&self.config).run(vec![bounded], warmup, None)
    }

    /// Like [`Simulator::run_measured`], but forcing the retained O(window)
    /// selection scan instead of the event-driven scheduler. Bit-identical
    /// to [`Simulator::run_measured`] by construction — exposed as the
    /// differential-testing oracle for the wheel + intrusive-list engine
    /// (see `tests/proptest_scheduler.rs`).
    pub fn run_measured_scan_oracle(
        &self,
        trace: impl IntoIterator<Item = DynInst>,
        warmup: u64,
        measure: u64,
    ) -> Report {
        let bounded = trace.into_iter().take((warmup + measure) as usize);
        let mut engine = Engine::new(&self.config);
        engine.force_scan = true;
        engine.run(vec![bounded], warmup, None)
    }

    /// Like [`Simulator::run_measured`], but forcing the cycle-by-cycle
    /// loop instead of event-horizon skipping — the oracle and timing
    /// baseline for skipping. Bit-identical to
    /// [`Simulator::run_measured`] by construction.
    pub fn run_measured_no_skip(
        &self,
        trace: impl IntoIterator<Item = DynInst>,
        warmup: u64,
        measure: u64,
    ) -> Report {
        let bounded = trace.into_iter().take((warmup + measure) as usize);
        let mut engine = Engine::new(&self.config);
        engine.allow_skip = false;
        engine.run(vec![bounded], warmup, None)
    }

    /// Runs an SMT machine: one trace per hardware thread
    /// (`config.threads` of them). Threads share fetch/dispatch bandwidth
    /// round-robin, the ROB, the clusters, the caches and the physical
    /// register file; each has its own architectural map tables, store
    /// queue and memory-order stream. The report's `per_thread_uops`
    /// carries the per-thread retirement counts. Bound a window by
    /// truncating each trace (`.take(n)`).
    pub fn run_smt<I>(&self, traces: Vec<I>) -> Report
    where
        I: IntoIterator<Item = DynInst>,
    {
        let traces: Vec<I::IntoIter> = traces.into_iter().map(IntoIterator::into_iter).collect();
        Engine::new(&self.config).run(traces, 0, None)
    }

    /// Runs like [`Simulator::run`] while recording per-µop pipeline
    /// timestamps for the first `uop_limit` µops (see
    /// [`crate::pipeview`]).
    pub fn run_timeline(
        &self,
        trace: impl IntoIterator<Item = DynInst>,
        uop_limit: usize,
    ) -> (Report, Vec<UopTiming>) {
        let mut engine = Engine::new(&self.config);
        engine.timeline = Some((Vec::with_capacity(uop_limit.min(4096)), uop_limit));
        let mut out = Vec::new();
        let report = engine.run(vec![trace.into_iter()], 0, Some(&mut out));
        (report, out)
    }
}

/// Virtual-physical register state (config `vp_phys_per_subset`):
/// physical occupancy counters per class and subset, claimed at issue and
/// released when the superseding instruction commits.
#[derive(Clone, Debug)]
struct VpState {
    capacity: usize,
    /// `used[class][subset]`
    used: [Vec<usize>; 2],
}

/// Counters snapshotted at the warmup boundary.
#[derive(Clone, Debug, Default)]
struct Snapshot {
    cycle: u64,
    retired: u64,
    branches: u64,
    mispredicts: u64,
    per_cluster: Vec<u64>,
    store_forwards: u64,
    unbalance_groups: u64,
    unbalance_flagged: u64,
    attr: Option<CycleAttribution>,
}

pub(crate) struct Engine<'a> {
    cfg: &'a SimConfig,
    cycle: u64,
    renamer: Renamer,
    allocator: Allocator,
    hierarchy: MemoryHierarchy,
    clusters: Vec<ClusterState>,
    rob: Rob,
    reg_info: [Vec<RegInfo>; 2],
    /// Per-thread fetch buffers, redirect states, store queues and
    /// memory-order FIFOs (single-threaded machines use index 0).
    fetch_bufs: Vec<VecDeque<Fetched>>,
    redirects: Vec<Redirect>,
    store_queues: Vec<StoreQueue>,
    /// Per-thread seqs of the in-flight, unissued memory µops in program
    /// order (addresses are computed in order within a thread, §5.2).
    /// The front is the one µop of its thread that may issue next; under
    /// the event scheduler a younger one whose operands arrive first
    /// waits parked ([`crate::slots::F_PARKED`]) until it reaches the
    /// front. Each FIFO holds at most a window of seqs and is
    /// preallocated to the ROB size.
    mem_order: Vec<VecDeque<u64>>,
    seq_next: u64,
    thread_retired: Vec<u64>,
    deadlock: DeadlockMonitor,
    deadlocked: bool,
    /// Subset whose exhaustion blocked renaming most recently.
    blocked_subset: Option<(RegClass, Subset)>,
    /// Dispatch is frozen until this cycle (deadlock-exception cost).
    dispatch_frozen_until: u64,
    recoveries: u64,
    /// Optional per-µop timeline collection: (entries, limit).
    timeline: Option<(Vec<UopTiming>, usize)>,
    vp: Option<VpState>,
    /// (head seq, cycles the ROB head has been VP-capacity-blocked).
    vp_blocked: (u64, u64),
    /// Event scheduler: µops whose operands become usable at a known future
    /// cycle, booked on a fixed-horizon calendar wheel. The per-register
    /// waiter lists live intrusively in `RegInfo::wake_head` and the
    /// window's `next_waiter` lane — hanging or draining a waiter is
    /// pointer writes, never an allocation.
    wheel: CalendarWheel,
    /// Whether the event-horizon fast path may jump the clock over provably
    /// dead cycles (always, except under
    /// [`Simulator::run_measured_no_skip`], the cycle-by-cycle oracle).
    allow_skip: bool,
    /// Cycles the event-horizon fast path jumped over without simulating.
    /// Diagnostics only — deliberately not part of any [`Report`], which
    /// must stay bit-identical whether or not skipping ran.
    pub(crate) skipped_cycles: u64,
    /// Forces the legacy O(window) scan even without virtual-physical
    /// registers (test oracle for the event scheduler).
    pub(crate) force_scan: bool,
    /// Per-thread trace exhaustion (a field so [`Engine::step`] can be
    /// driven cycle-by-cycle).
    trace_done: Vec<bool>,
    /// Retired-µop threshold at which the warmup snapshot is taken.
    warmup: u64,
    /// Counters at the warmup boundary, once reached.
    snap: Option<Snapshot>,
    /// Wedge detection: (retired, cycle) at the last retirement.
    last_progress: (u64, u64),
    fetch_buf_cap: usize,
    /// Dispatch scratch buffers, reused every cycle.
    occ_buf: Vec<usize>,
    free_buf: Vec<usize>,
    /// Issue scratch buffers, reused every cycle: destinations completed
    /// this cycle (deferred writeback) and the wheel's drain staging.
    dest_updates: Vec<(PackedReg, u64)>,
    due_buf: Vec<u64>,
    /// Scan-path scratch: VP reservations per class/subset, zeroed in
    /// place at the top of each scan.
    vp_reserved: [Vec<usize>; 2],
    /// Recovery scratch (cold paths), reused across recoveries.
    victims_buf: Vec<(usize, usize)>,
    // metrics
    retired: u64,
    branches: u64,
    mispredicts: u64,
    stalls: StallBreakdown,
    unbalance: UnbalanceTracker,
    store_forwards: u64,
    /// Full-pipeline cycle attribution (`Some` iff `cfg.telemetry`); the
    /// disabled path costs one branch per cycle.
    attr: Option<CycleAttribution>,
    /// µops retired by the current cycle's `commit()` pass.
    committed_this_cycle: u64,
    /// Why this cycle's `dispatch()` made no progress.
    dispatch_block: DispatchBlock,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(cfg: &'a SimConfig) -> Self {
        let renamer = Renamer::new(cfg.renamer());
        let subsets = renamer.config().subsets;
        let reg_info = [
            Self::initial_regs(&renamer, RegClass::Int, cfg.clusters),
            Self::initial_regs(&renamer, RegClass::Fp, cfg.clusters),
        ];
        let vp = Self::initial_vp(&renamer, cfg.vp_phys_per_subset);
        Engine {
            cfg,
            cycle: 0,
            allocator: Allocator::new(cfg.policy, cfg.mode, cfg.clusters, cfg.seed),
            renamer,
            hierarchy: MemoryHierarchy::new(cfg.hierarchy),
            clusters: (0..cfg.clusters)
                .map(|i| ClusterState::with_resources(cfg.resources[i.min(3)]))
                .collect(),
            rob: Rob::new(cfg.rob, cfg.clusters),
            reg_info,
            fetch_bufs: (0..cfg.threads)
                .map(|_| VecDeque::with_capacity(4 * cfg.fetch_width))
                .collect(),
            redirects: vec![Redirect::None; cfg.threads],
            store_queues: vec![StoreQueue::new(); cfg.threads],
            mem_order: (0..cfg.threads)
                .map(|_| VecDeque::with_capacity(cfg.rob))
                .collect(),
            seq_next: 0,
            thread_retired: vec![0; cfg.threads],
            deadlock: DeadlockMonitor::new(DEADLOCK_THRESHOLD),
            deadlocked: false,
            blocked_subset: None,
            dispatch_frozen_until: 0,
            recoveries: 0,
            timeline: None,
            vp,
            vp_blocked: (u64::MAX, 0),
            wheel: CalendarWheel::new(cfg.scheduler_horizon()),
            allow_skip: true,
            skipped_cycles: 0,
            force_scan: false,
            trace_done: vec![false; cfg.threads],
            warmup: 0,
            snap: None,
            last_progress: (0, 0),
            fetch_buf_cap: 4 * cfg.fetch_width,
            occ_buf: Vec::with_capacity(cfg.clusters),
            free_buf: Vec::with_capacity(subsets),
            dest_updates: Vec::new(),
            due_buf: Vec::new(),
            vp_reserved: [vec![0; subsets], vec![0; subsets]],
            victims_buf: Vec::new(),
            retired: 0,
            branches: 0,
            mispredicts: 0,
            stalls: StallBreakdown::default(),
            unbalance: UnbalanceTracker::paper(cfg.clusters),
            store_forwards: 0,
            attr: cfg
                .telemetry
                .then(|| CycleAttribution::new(cfg.fetch_width)),
            committed_this_cycle: 0,
            dispatch_block: DispatchBlock::None,
        }
    }

    /// Sets the retired-µop count at which the measurement window opens
    /// (for drivers using [`Engine::step`] directly).
    pub(crate) fn set_warmup(&mut self, warmup: u64) {
        self.warmup = warmup;
    }

    /// µops retired so far (for drivers using [`Engine::step`] directly
    /// that end measurement at a retirement target rather than draining).
    pub(crate) fn retired(&self) -> u64 {
        self.retired
    }

    /// Replaces the memory hierarchy with a pre-warmed one (the sampled
    /// path restores checkpointed cache state before an interval run).
    /// The replacement must be built from the same configuration.
    pub(crate) fn set_hierarchy(&mut self, hierarchy: MemoryHierarchy) {
        assert_eq!(
            *hierarchy.config(),
            self.cfg.hierarchy,
            "hierarchy configuration mismatch"
        );
        self.hierarchy = hierarchy;
    }

    /// Replaces the reset rename map with a warm architectural subset
    /// assignment (the sampled path restores the functionally warmed
    /// logical→subset distribution before an interval run). Rebuilds the
    /// renamer, the physical-register table, and the register-cache
    /// occupancy exactly as [`Engine::new`] would have built them from
    /// this assignment. Must be called before the first `step`.
    pub(crate) fn set_arch_subsets(&mut self, int: &[Subset], fp: &[Subset]) {
        assert_eq!(
            self.cycle, 0,
            "warm subsets must be installed before stepping"
        );
        self.renamer = Renamer::with_arch_subsets(*self.renamer.config(), int, fp);
        self.reg_info = [
            Self::initial_regs(&self.renamer, RegClass::Int, self.cfg.clusters),
            Self::initial_regs(&self.renamer, RegClass::Fp, self.cfg.clusters),
        ];
        self.vp = Self::initial_vp(&self.renamer, self.cfg.vp_phys_per_subset);
    }

    /// Repositions the allocation policy's RNG mid-stream (the sampled
    /// path restores the draw position the full run would have reached at
    /// the interval boundary, so interval placement choices replay the
    /// exact run's). Must be called before the first `step`.
    pub(crate) fn set_alloc_rng_state(&mut self, state: u64) {
        assert_eq!(self.cycle, 0, "RNG state must be installed before stepping");
        self.allocator.set_rng_state(state);
    }

    fn initial_regs(renamer: &Renamer, class: RegClass, clusters: usize) -> Vec<RegInfo> {
        let total = match class {
            RegClass::Int => renamer.config().int_regs,
            RegClass::Fp => renamer.config().fp_regs,
        };
        let mut v = vec![
            RegInfo {
                avail: 0,
                wake_head: LINK_NONE,
                cluster: 0,
                from_load: false,
            };
            total
        ];
        // Architectural reset values live in their subset's "home" cluster.
        for (_, m) in renamer.map_table(class).iter() {
            v[m.phys.0 as usize].cluster = m.subset.0 % clusters as u8;
        }
        v
    }

    /// Virtual-physical state (`None` without VP): every subset starts
    /// occupied by the architectural registers `renamer` maps into it.
    fn initial_vp(renamer: &Renamer, vp_phys_per_subset: Option<usize>) -> Option<VpState> {
        let count_arch = |class: RegClass| {
            (0..renamer.config().subsets)
                .map(|s| renamer.map_table(class).mapped_into(Subset(s as u8)))
                .collect()
        };
        vp_phys_per_subset.map(|capacity| VpState {
            capacity,
            used: [count_arch(RegClass::Int), count_arch(RegClass::Fp)],
        })
    }

    /// Runs one trace per hardware thread to completion (plus pipeline
    /// drain), moving any collected timeline into `timeline_out`.
    /// Monomorphized over the concrete trace iterator `T`, so no entry
    /// point pays dynamic dispatch per µop.
    fn run<T: Iterator<Item = DynInst>>(
        mut self,
        traces: Vec<T>,
        warmup: u64,
        timeline_out: Option<&mut Vec<UopTiming>>,
    ) -> Report {
        assert_eq!(
            traces.len(),
            self.cfg.threads,
            "one trace per hardware thread"
        );
        self.warmup = warmup;
        let mut stream = PredictedIters::new(traces, self.cfg.predictor.build());
        while self.step(&mut stream) {}
        self.finish(timeline_out)
    }

    /// Advances the machine by exactly one cycle, pulling newly fetched
    /// µops from `stream`. Returns `false` once the pipeline has drained
    /// (or the machine deadlocked) — after which [`Engine::finish`]
    /// produces the report.
    pub(crate) fn step<S: FetchStream>(&mut self, stream: &mut S) -> bool {
        self.commit();
        if self.warmup > 0 && self.snap.is_none() && self.retired >= self.warmup {
            self.snap = Some(Snapshot {
                cycle: self.cycle,
                retired: self.retired,
                branches: self.branches,
                mispredicts: self.mispredicts,
                per_cluster: self.clusters.iter().map(|c| c.dispatched).collect(),
                store_forwards: self.store_forwards,
                unbalance_groups: self.unbalance.groups(),
                unbalance_flagged: self.unbalance.unbalanced(),
                attr: self.attr.clone(),
            });
        }
        self.fetch(stream);
        self.dispatch();
        self.issue();
        if self.attr.is_some() {
            self.attribute_cycle();
        }

        if self.trace_done.iter().all(|&d| d)
            && self.fetch_bufs.iter().all(VecDeque::is_empty)
            && self.rob.is_empty()
        {
            return false;
        }
        if self.deadlocked {
            return false;
        }
        if self.retired != self.last_progress.0 {
            self.last_progress = (self.retired, self.cycle);
        } else {
            assert!(
                self.cycle - self.last_progress.1 < 200_000,
                "simulator wedged at cycle {} ({} retired, rob {}, fetch {})",
                self.cycle,
                self.retired,
                self.rob.len(),
                self.fetch_bufs.iter().map(VecDeque::len).sum::<usize>()
            );
        }
        let mut next = self.cycle + 1;
        if self.allow_skip && self.event_scheduler() {
            if let Some(t) = self.skip_target() {
                self.apply_skip(t);
                next = t;
            }
        }
        self.cycle = next;
        true
    }

    /// The event-horizon query: the earliest future cycle at which this
    /// machine's state can change, when every cycle before it is provably
    /// dead — nothing fetches, dispatches, issues, commits, or resolves.
    /// Returns `None` unless at least one whole cycle can be skipped.
    ///
    /// Runs at the end of a stepped cycle, so the machine is in its
    /// settled end-of-cycle state. The proof obligations, per stage:
    ///
    /// * **issue** — no µop is awake (`ready_count == 0`), and the wheel
    ///   delivers nothing before the target
    ///   ([`CalendarWheel::next_due_before`]). Parked memory µops are not
    ///   awake and do not veto: none can issue before its thread's
    ///   memory-order head, which is neither awake nor parked, so it waits
    ///   on a producer's issue or on a wheel booking — either caps `t`;
    /// * **commit** — the head is not done, or completes no earlier than
    ///   the target (a done head with `done_cycle ≤ cycle + 1` vetoes);
    /// * **fetch** — every live thread is redirect-blocked (resume cycles
    ///   cap the target) or has a full fetch buffer;
    /// * **dispatch** — blocked on the front end (returns before touching
    ///   the renamer: strategy-agnostic) or on a full window, which for
    ///   single-thread non-`Recycling` machines replays as pure no-ops —
    ///   `FreeList::tick` is catch-up-exact, `ExactCount::end_cycle` is a
    ///   no-op, and the sticky cluster choice is already cached;
    /// * **telemetry** — needs no cap: over a dead region the stall
    ///   bucket is a piecewise-constant function of the probe cycle, and
    ///   [`Self::charge_skipped`] charges each constant segment in bulk;
    /// * **wedge detection** — the target never jumps past the
    ///   no-progress assertion's firing cycle.
    fn skip_target(&self) -> Option<u64> {
        match self.dispatch_block {
            DispatchBlock::Frontend => {}
            // Window-blocked cycles re-run rename bookkeeping that is only
            // provably stateless for one thread (SMT rotation can dispatch
            // a different thread next cycle) outside the Recycling
            // strategy's per-cycle staging churn.
            DispatchBlock::Window => {
                if self.cfg.threads != 1 || self.cfg.strategy == RenameStrategy::Recycling {
                    return None;
                }
            }
            _ => return None,
        }
        if self.rob.ready_count() != 0 {
            return None;
        }
        // Cheap caps first, the wheel last: every bound accumulated into
        // `t` truncates the wheel's occupancy scan below, so the cost of
        // the query is bounded by the cycles actually skipped — without
        // this ordering, a telemetry breakpoint two cycles out would
        // still pay a scan all the way to a miss return hundreds of
        // cycles away, every blocked cycle.
        let mut t = self.last_progress.1 + 200_000;
        for tid in 0..self.cfg.threads {
            if self.trace_done[tid] {
                continue;
            }
            match self.redirects[tid] {
                // Resolution comes from an issue event, already capped by
                // the wheel below.
                Redirect::WaitingResolve(_) => {}
                Redirect::WaitingCycle(c) => t = t.min(c.max(self.cycle + 1)),
                Redirect::None => {
                    if self.fetch_bufs[tid].len() < self.fetch_buf_cap {
                        return None; // fetch would make progress
                    }
                }
            }
        }
        if !self.rob.is_empty() && self.rob.is_done(0) {
            t = t.min(self.rob.done_cycle(0).max(self.cycle + 1));
        }
        if let Some(due) = self.wheel.next_due_before(t) {
            t = due;
        }
        (t > self.cycle + 1).then_some(t)
    }

    /// Jumps the clock from the end of the current cycle straight to `t`,
    /// bulk-applying the side effects the `t - cycle - 1` skipped cycles
    /// would have accumulated one at a time: their dispatch stall counters
    /// and their telemetry stall buckets (charged segment-wise by
    /// [`Self::charge_skipped`]). Everything else about those cycles is a
    /// proven no-op.
    fn apply_skip(&mut self, t: u64) {
        let k = t - self.cycle - 1;
        self.skipped_cycles += k;
        self.wheel.advance_to(t);
        match self.dispatch_block {
            DispatchBlock::Frontend => self.stalls.frontend += self.cfg.fetch_width as u64 * k,
            DispatchBlock::Window => self.stalls.window += k,
            _ => unreachable!("skip_target vetted the dispatch block"),
        }
        if self.attr.is_some() {
            self.charge_skipped(self.cycle + 1, t);
        }
    }

    /// Charges telemetry for the skipped cycles `[from, t)`. Over a dead
    /// region — no fetch, dispatch, issue, or commit, and no register
    /// becoming available (that would be an issue event, which caps the
    /// jump) — [`Self::stall_bucket_at`] is a piecewise-constant function
    /// of the probe cycle: its value can only change where a probe
    /// crosses one of the head's operand thresholds (the operand's usable
    /// cycle, or its cross-cluster arrival). So walk those segments and
    /// bulk-charge each one, instead of capping the jump at every
    /// threshold and paying a full skip analysis per one- or two-cycle
    /// hop (operand-usable and forwarded thresholds are typically
    /// adjacent).
    fn charge_skipped(&mut self, from: u64, t: u64) {
        let mut at = from;
        while at < t {
            let bucket = self.stall_bucket_at(at);
            debug_assert_ne!(
                bucket,
                SlotBucket::RenameStall,
                "skipped cycles are never rename-stalled"
            );
            // The next probe cycle at which the bucket could differ: the
            // smallest operand threshold strictly above `at` (none — or
            // a done/empty head, whose bucket is time-independent —
            // leaves the rest of the region uniform).
            let mut next = t;
            if !self.rob.is_empty() && !self.rob.is_done(0) {
                let head_cluster = self.rob.cluster(0);
                for s in self.rob.srcs(0) {
                    if !s.is_some() {
                        continue;
                    }
                    let info = self.reg_info[s.class_index()][s.phys()];
                    debug_assert_ne!(
                        info.avail, IN_FLIGHT,
                        "head operands have committed producers"
                    );
                    let cross =
                        info.avail + self.cfg.fast_forward.penalty(info.cluster, head_cluster);
                    for bp in [info.avail, cross] {
                        if bp > at && bp < next {
                            next = bp;
                        }
                    }
                }
            }
            self.attr
                .as_mut()
                .expect("caller checked")
                .charge_cycles(next - at, bucket);
            at = next;
        }
    }

    /// Closes the run: subtracts the warmup snapshot and assembles the
    /// [`Report`].
    pub(crate) fn finish(mut self, timeline_out: Option<&mut Vec<UopTiming>>) -> Report {
        if let (Some((entries, _)), Some(out)) = (self.timeline.take(), timeline_out) {
            *out = entries;
        }
        let base = self.snap.take().unwrap_or_default();
        let per_cluster: Vec<u64> = self
            .clusters
            .iter()
            .enumerate()
            .map(|(i, c)| c.dispatched - base.per_cluster.get(i).copied().unwrap_or(0))
            .collect();
        let groups = self.unbalance.groups() - base.unbalance_groups;
        let flagged = self.unbalance.unbalanced() - base.unbalance_flagged;
        Report {
            cycles: (self.cycle - base.cycle).max(1),
            uops: self.retired - base.retired,
            branches: self.branches - base.branches,
            mispredicts: self.mispredicts - base.mispredicts,
            per_cluster,
            unbalance_percent: if groups == 0 {
                0.0
            } else {
                100.0 * flagged as f64 / groups as f64
            },
            stalls: self.stalls,
            memory: self.hierarchy.stats(),
            rename: self.renamer.stats(),
            store_forwards: self.store_forwards - base.store_forwards,
            deadlocked: self.deadlocked,
            deadlock_recoveries: self.recoveries,
            per_thread_uops: self.thread_retired.clone(),
            attribution: self.attr.take().map(|a| match &base.attr {
                Some(b) => a.since(b),
                None => a,
            }),
        }
    }

    /// Charges this cycle's `fetch_width` commit slots: the retired µops
    /// to `Committed`, the slack to one stall bucket chosen by
    /// [`Self::stall_bucket`]. Runs after `issue()`, so a head that found
    /// an issue slot this cycle is never misattributed as contention.
    fn attribute_cycle(&mut self) {
        let committed = self.committed_this_cycle;
        let bucket = if committed >= self.cfg.fetch_width as u64 {
            SlotBucket::Committed
        } else {
            self.stall_bucket_at(self.cycle)
        };
        let attr = self.attr.as_mut().expect("caller checked");
        attr.charge_cycle(committed, bucket);
        if bucket == SlotBucket::RenameStall && committed < self.cfg.fetch_width as u64 {
            if let Some((class, subset)) = self.blocked_subset {
                attr.note_rename_refusal(class_index(class), subset.index());
            }
        }
    }

    /// Picks the stall bucket for cycle `at` when it retires fewer than
    /// `fetch_width` µops. Retirement-centric: the oldest in-flight µop
    /// explains the machine's inability to commit; the dispatch stage is
    /// consulted only when the window is empty (or its head is too young
    /// to have had an issue opportunity). `at` is the current cycle on the
    /// per-cycle path; the event-horizon skip ([`Self::charge_skipped`])
    /// probes future cycles against the settled end-of-cycle state, which
    /// is exact because nothing in a dead region mutates the state this
    /// function reads.
    fn stall_bucket_at(&self, at: u64) -> SlotBucket {
        if !self.rob.is_empty() {
            if self.rob.dispatch_cycle(0) < at {
                return self.head_bucket_at(at);
            }
            // Head dispatched this very cycle: the window is filling.
            return SlotBucket::Fill;
        }
        match self.dispatch_block {
            DispatchBlock::Rename | DispatchBlock::Frozen => SlotBucket::RenameStall,
            DispatchBlock::Window => SlotBucket::WindowStall,
            DispatchBlock::Frontend | DispatchBlock::None => {
                if self.redirects.iter().any(|r| !matches!(r, Redirect::None)) {
                    SlotBucket::Redirect
                } else if self.fetch_bufs.iter().any(|b| !b.is_empty()) {
                    SlotBucket::Fill
                } else {
                    SlotBucket::EmptyWindow
                }
            }
        }
    }

    /// Why the (old-enough) ROB head did not retire at cycle `at`.
    fn head_bucket_at(&self, at: u64) -> SlotBucket {
        if self.rob.is_done(0) {
            // Issued, executing. Loads (and stores in their cache access)
            // are memory-bound; everything else is execution latency.
            return if self.rob.is_mem(0) {
                SlotBucket::Memory
            } else {
                SlotBucket::ExecLatency
            };
        }
        // Waiting. Operand not yet usable?
        let head_cluster = self.rob.cluster(0);
        for s in self.rob.srcs(0) {
            if !s.is_some() {
                continue;
            }
            let info = self.reg_info[s.class_index()][s.phys()];
            if info.avail == IN_FLIGHT || at < info.avail {
                // Producer unissued or still executing.
                return if info.from_load {
                    SlotBucket::Memory
                } else {
                    SlotBucket::ExecLatency
                };
            }
            if at < info.avail + self.cfg.fast_forward.penalty(info.cluster, head_cluster) {
                // Produced, but still crossing clusters.
                return SlotBucket::ForwardBubble;
            }
        }
        // Operands usable; what else gates issue?
        if !self.mem_order_allows(0) {
            return SlotBucket::Memory; // memory-order serialization
        }
        if self.vp.is_some() && !self.vp_can_alloc(self.rob.dst(0), None) {
            // Issue-time register allocation blocked (VP file full).
            return SlotBucket::RenameStall;
        }
        SlotBucket::FuContention
    }

    // ---- commit ----

    fn commit(&mut self) {
        self.committed_this_cycle = 0;
        for _ in 0..self.cfg.fetch_width {
            if self.rob.is_empty() || !self.rob.is_done(0) || self.rob.done_cycle(0) > self.cycle {
                break;
            }
            let slot = self.rob.pop_front();
            if let Some((entries, _)) = self.timeline.as_mut() {
                if let Some(e) = entries.get_mut(slot.seq as usize) {
                    e.commit = self.cycle;
                }
            }
            if slot.is_store() {
                let tagged = slot.eff_addr | ((slot.thread as u64) << 40);
                self.hierarchy.store(tagged, self.cycle);
                self.store_queues[slot.thread as usize].remove(slot.seq);
            }
            if slot.dst.is_some() {
                let old = slot.old_mapping();
                if let Some(vp) = self.vp.as_mut() {
                    vp.used[slot.dst.class_index()][old.subset.index()] -= 1;
                }
                self.renamer.free(slot.dst.class(), old, self.cycle);
            }
            self.clusters[slot.cluster as usize].window_occupancy -= 1;
            self.retired += 1;
            self.committed_this_cycle += 1;
            self.thread_retired[slot.thread as usize] += 1;
        }
    }

    // ---- fetch ----

    /// Fetches up to `fetch_width` µops from **one** thread this cycle,
    /// rotating round-robin and skipping threads that are redirect-blocked,
    /// buffer-full or exhausted (the classic RR SMT fetch policy).
    fn fetch<S: FetchStream>(&mut self, stream: &mut S) {
        let threads = self.cfg.threads;
        for offset in 0..threads {
            let tid = (self.cycle as usize + offset) % threads;
            if self.trace_done[tid] {
                continue;
            }
            match self.redirects[tid] {
                Redirect::WaitingResolve(_) => continue,
                Redirect::WaitingCycle(c) => {
                    if self.cycle < c {
                        continue;
                    }
                    self.redirects[tid] = Redirect::None;
                }
                Redirect::None => {}
            }
            if self.fetch_bufs[tid].len() >= self.fetch_buf_cap {
                continue;
            }
            self.fetch_thread(stream, tid);
            return; // one thread per cycle
        }
    }

    fn fetch_thread<S: FetchStream>(&mut self, stream: &mut S, tid: usize) {
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_bufs[tid].len() >= self.fetch_buf_cap {
                return;
            }
            let Some(a) = stream.next(tid) else {
                self.trace_done[tid] = true;
                return;
            };
            if a.cond_branch {
                self.branches += 1;
                if a.mispredicted {
                    self.mispredicts += 1;
                }
            }
            self.fetch_bufs[tid].push_back(Fetched {
                d: a.d,
                fetch_cycle: self.cycle,
                mispredicted: a.mispredicted,
                choice: None,
            });
            if a.mispredicted {
                // Fetch stalls until the branch resolves; the wrong path is
                // never simulated.
                self.redirects[tid] = Redirect::WaitingResolve(self.cycle);
                return;
            }
        }
    }

    // ---- dispatch / rename ----

    fn dispatch(&mut self) {
        self.dispatch_block = DispatchBlock::None;
        if self.cycle < self.dispatch_frozen_until {
            self.dispatch_block = DispatchBlock::Frozen;
            return;
        }
        if self.fetch_bufs.iter().all(VecDeque::is_empty) {
            self.stalls.frontend += self.cfg.fetch_width as u64;
            self.dispatch_block = DispatchBlock::Frontend;
            let blocked = false;
            self.note_deadlock(blocked);
            return;
        }
        self.renamer.begin_cycle(self.cycle, self.cfg.fetch_width);
        let mut rename_blocked = false;
        let threads = self.cfg.threads;
        let mut budget = self.cfg.fetch_width;

        'threads: for offset in 0..threads {
            let tid = (self.cycle as usize + offset) % threads;
            while budget > 0 {
                let Some(front) = self.fetch_bufs[tid].front() else {
                    continue 'threads;
                };
                if front.fetch_cycle > self.cycle {
                    continue 'threads;
                }
                if self.rob.len() >= self.cfg.rob {
                    self.stalls.window += 1;
                    self.dispatch_block = DispatchBlock::Window;
                    break 'threads;
                }
                let d = front.d;

                // Source operands: current mappings (younger µops renamed this
                // same cycle already updated the map — in-group dependency
                // propagation).
                let mut srcs = [PackedReg::NONE; 2];
                let mut src_subsets: [Option<Subset>; 2] = [None, None];
                for (i, s) in d.srcs.iter().enumerate() {
                    if let Some(r) = s {
                        let m = self.renamer.map_source_for(tid, *r);
                        srcs[i] = PackedReg::new(r.class(), m.phys.0);
                        src_subsets[i] = Some(m.subset);
                    }
                }

                let choice = match front.choice {
                    Some(c) => c,
                    None => {
                        self.occ_buf.clear();
                        self.occ_buf
                            .extend(self.clusters.iter().map(|c| c.window_occupancy));
                        // §2.3 workaround (a): steer placement freedom away from
                        // exhausted register subsets (WSRS only).
                        let free: Option<&[usize]> = match d.dst {
                            Some(dreg)
                                if self.cfg.avoid_exhaustion
                                    && self.cfg.mode == RegFileMode::Wsrs =>
                            {
                                self.free_buf.clear();
                                for s in 0..self.renamer.config().subsets {
                                    self.free_buf.push(
                                        self.renamer.allocatable_now(dreg.class(), Subset(s as u8)),
                                    );
                                }
                                Some(&self.free_buf)
                            }
                            _ => None,
                        };
                        let c =
                            self.allocator
                                .choose_avoiding(&d, src_subsets, &self.occ_buf, free);
                        self.fetch_bufs[tid]
                            .front_mut()
                            .expect("front exists")
                            .choice = Some(c);
                        c
                    }
                };
                let cl = choice.cluster.0 as usize;

                if self.clusters[cl].window_occupancy >= self.cfg.window_per_cluster {
                    self.stalls.window += 1;
                    self.dispatch_block = DispatchBlock::Window;
                    break 'threads;
                }

                // Destination rename, into the executing cluster's subset.
                let mut dst = PackedReg::NONE;
                let mut old_phys = 0u32;
                let mut old_subset = 0u8;
                if let Some(dreg) = d.dst {
                    let subset = match self.cfg.mode {
                        RegFileMode::Conventional => Subset(0),
                        _ => choice.cluster.subset(),
                    };
                    if !self.renamer.can_alloc(dreg.class(), subset) {
                        self.stalls.rename += 1;
                        rename_blocked = true;
                        self.blocked_subset = Some((dreg.class(), subset));
                        self.dispatch_block = DispatchBlock::Rename;
                        break 'threads;
                    }
                    let m = self
                        .renamer
                        .alloc(dreg.class(), subset)
                        .expect("can_alloc checked");
                    let old = self.renamer.rename_dest_for(tid, dreg, m);
                    let info = &mut self.reg_class_mut(dreg.class())[m.phys.0 as usize];
                    debug_assert_eq!(
                        info.wake_head, LINK_NONE,
                        "freed register still has waiters"
                    );
                    *info = RegInfo {
                        avail: IN_FLIGHT,
                        cluster: choice.cluster.0,
                        from_load: d.is_load(),
                        wake_head: LINK_NONE,
                    };
                    dst = PackedReg::new(dreg.class(), m.phys.0);
                    old_phys = old.phys.0;
                    old_subset = old.subset.0;
                }

                let fetched = self.fetch_bufs[tid].pop_front().expect("front exists");
                let seq = self.seq_next;
                self.seq_next += 1;
                budget -= 1;

                if d.is_load() || d.is_store() {
                    self.mem_order[tid].push_back(seq);
                    if d.is_store() {
                        self.store_queues[tid].insert(seq, d.eff_addr.expect("store has address"));
                    }
                }

                // Event-scheduler registration: this consumer is threaded
                // onto each in-flight producer's intrusive waiter list (a
                // pointer write, no allocation); operands already produced
                // pin down the operand-ready cycle right now.
                let mut pending_srcs = 0u8;
                let mut next_waiter = [LINK_NONE; 2];
                if self.event_scheduler() {
                    let mut ready_at = self.cycle + 1;
                    for (i, s) in srcs.iter().enumerate() {
                        if !s.is_some() {
                            continue;
                        }
                        let info = &mut self.reg_info[s.class_index()][s.phys()];
                        if info.avail == IN_FLIGHT {
                            next_waiter[i] = info.wake_head;
                            info.wake_head = (seq << 1) | i as u64;
                            pending_srcs += 1;
                        } else {
                            ready_at = ready_at.max(
                                info.avail
                                    + self
                                        .cfg
                                        .fast_forward
                                        .penalty(info.cluster, choice.cluster.0),
                            );
                        }
                    }
                    if pending_srcs == 0 {
                        self.wheel.schedule(ready_at, seq);
                    }
                }

                self.clusters[cl].window_occupancy += 1;
                self.clusters[cl].dispatched += 1;
                self.unbalance.record(cl);

                if let Some((entries, limit)) = self.timeline.as_mut() {
                    if (seq as usize) < *limit {
                        debug_assert_eq!(entries.len() as u64, seq);
                        entries.push(UopTiming {
                            seq,
                            pc: d.pc,
                            op: d.op,
                            cluster: choice.cluster.0,
                            fetch: fetched.fetch_cycle,
                            dispatch: self.cycle,
                            issue: 0,
                            complete: 0,
                            commit: 0,
                        });
                    }
                }
                let mut flags = 0u8;
                if d.is_load() {
                    flags |= F_LOAD;
                }
                if d.is_store() {
                    flags |= F_STORE;
                }
                if fetched.mispredicted {
                    flags |= F_MISPREDICTED;
                }
                self.rob.push(SlotPush {
                    seq,
                    dispatch_cycle: self.cycle,
                    srcs,
                    dst,
                    old_phys,
                    class: d.class,
                    cluster: choice.cluster.0,
                    thread: tid as u8,
                    flags,
                    pending_srcs,
                    old_subset,
                    next_waiter,
                    eff_addr: d.eff_addr.unwrap_or(0),
                });
            }
        }
        self.renamer.end_cycle(self.cycle);
        self.note_deadlock(rename_blocked);
    }

    fn note_deadlock(&mut self, rename_blocked: bool) {
        if self
            .deadlock
            .observe(rename_blocked, self.rob.is_empty() && rename_blocked)
        {
            if self.cfg.deadlock_recovery {
                self.recover_from_deadlock();
            } else {
                self.deadlocked = true;
            }
        }
    }

    /// The §2.3 workaround (b): an exception is raised; its handler issues
    /// moves that remap architectural registers from the exhausted subset
    /// onto other subsets. Detection guarantees the window is empty, so no
    /// in-flight µop can reference the moved physical registers. The
    /// exception costs a pipeline refill (modelled as the misprediction
    /// penalty).
    fn recover_from_deadlock(&mut self) {
        let Some((class, stuck)) = self.blocked_subset else {
            self.deadlocked = true;
            return;
        };
        debug_assert!(self.rob.is_empty(), "recovery requires a drained window");
        let subsets = self.renamer.config().subsets;
        // Move logical registers (of any hardware thread) out of the stuck
        // subset until a dispatch group's worth of headroom exists.
        let mut victims = std::mem::take(&mut self.victims_buf);
        victims.clear();
        for tid in 0..self.cfg.threads {
            for (l, m) in self.renamer.map_table_for(tid, class).iter() {
                if m.subset == stuck {
                    victims.push((tid, l));
                }
            }
        }
        let mut moved = 0;
        let done_at = self.cycle + self.cfg.min_mispredict_penalty;
        for &(tid, logical) in &victims {
            if moved >= self.cfg.fetch_width {
                break;
            }
            let target = (0..subsets)
                .map(|s| Subset(s as u8))
                .filter(|&s| s != stuck)
                .max_by_key(|&s| self.renamer.available(class, s));
            let Some(target) = target else { break };
            if self.renamer.available(class, target) == 0 {
                break;
            }
            if let Some(new) = self
                .renamer
                .force_remap_for(tid, class, logical, target, self.cycle)
            {
                // The move's result becomes readable once the handler ends.
                self.reg_class_mut(class)[new.phys.0 as usize] = RegInfo {
                    avail: done_at,
                    cluster: new.subset.0 % self.cfg.clusters as u8,
                    from_load: false,
                    wake_head: LINK_NONE,
                };
                moved += 1;
            } else {
                break;
            }
        }
        self.victims_buf = victims;
        if moved == 0 {
            // No subset has a free register: unrecoverable.
            self.deadlocked = true;
            return;
        }
        self.dispatch_frozen_until = done_at;
        self.recoveries += 1;
        self.deadlock.reset();
        self.blocked_subset = None;
    }

    fn reg_class_mut(&mut self, class: RegClass) -> &mut [RegInfo] {
        &mut self.reg_info[class_index(class)]
    }

    fn reg_class(&self, class: RegClass) -> &[RegInfo] {
        &self.reg_info[class_index(class)]
    }

    // ---- issue / execute ----

    fn srcs_ready(&self, srcs: [PackedReg; 2], cluster: u8) -> bool {
        srcs.iter().all(|s| {
            if !s.is_some() {
                return true;
            }
            let info = self.reg_info[s.class_index()][s.phys()];
            info.avail != IN_FLIGHT
                && self.cycle >= info.avail + self.cfg.fast_forward.penalty(info.cluster, cluster)
        })
    }

    /// Whether a µop with destination `dst` may claim its physical
    /// register this cycle under virtual-physical allocation (always true
    /// without VP). `reserved` counts *older, still-unissued* destination
    /// µops per class/subset — each holds a reservation a younger µop may
    /// not consume, which makes allocation-at-issue deadlock-free.
    fn vp_can_alloc(&self, dst: PackedReg, reserved: Option<&[Vec<usize>; 2]>) -> bool {
        let Some(vp) = self.vp.as_ref() else {
            return true;
        };
        if !dst.is_some() {
            return true;
        }
        let (class, phys) = (dst.class(), dst.phys() as u32);
        let subset = self.renamer.config().phys_subset_of(class, phys);
        let ci = dst.class_index();
        let held = reserved.map_or(0, |r| r[ci][subset.index()]);
        vp.used[ci][subset.index()] + held < vp.capacity
    }

    /// Whether this run uses the event-driven scheduler. Virtual-physical
    /// configurations stay on the scan: VP subset reservations depend on
    /// observing every older waiting µop each cycle, which the event
    /// structures deliberately avoid.
    fn event_scheduler(&self) -> bool {
        self.vp.is_none() && !self.force_scan
    }

    fn issue(&mut self) {
        for c in &mut self.clusters {
            c.new_cycle();
        }
        if self.event_scheduler() {
            self.issue_event();
        } else {
            self.issue_scan();
        }
    }

    /// Issue-time bookkeeping shared by the event path and the legacy
    /// scan: timestamps completion, marks the slot done, pops the µop off
    /// its thread's memory order, queues the deferred writeback, and
    /// schedules a mispredicted branch's fetch resume. Fetch reads the
    /// redirect only next cycle, so it is written at once.
    fn complete_issue(&mut self, i: usize) {
        let (lat, forwarded) = self.exec_latency(i);
        if forwarded {
            self.store_forwards += 1;
        }
        let done_cycle = self.cycle + u64::from(lat);
        self.rob.complete(i, done_cycle);
        if let Some((entries, _)) = self.timeline.as_mut() {
            if let Some(e) = entries.get_mut(self.rob.seq_at(i) as usize) {
                e.issue = self.cycle;
                e.complete = done_cycle;
            }
        }
        let tid = self.rob.thread(i) as usize;
        if self.rob.is_mem(i) {
            let popped = self.mem_order[tid].pop_front();
            debug_assert_eq!(popped, Some(self.rob.seq_at(i)), "memory order broken");
        }
        let dst = self.rob.dst(i);
        if dst.is_some() {
            self.dest_updates.push((dst, done_cycle));
        }
        if self.rob.mispredicted(i) {
            let Redirect::WaitingResolve(fetch_cycle) = self.redirects[tid] else {
                unreachable!("fetch waits on every unresolved mispredicted branch");
            };
            let resume = (done_cycle + 1).max(fetch_cycle + self.cfg.min_mispredict_penalty);
            self.redirects[tid] = Redirect::WaitingCycle(resume);
        }
    }

    /// Whether memory order lets slot `i` issue: it is not a memory µop,
    /// or it is the front of its thread's memory-order FIFO.
    fn mem_order_allows(&self, i: usize) -> bool {
        !self.rob.is_mem(i)
            || self.mem_order[self.rob.thread(i) as usize].front() == Some(&self.rob.seq_at(i))
    }

    /// Event-driven selection: only µops whose operands are known-usable
    /// (tracked through intrusive waiter lists and the completion wheel)
    /// are examined, in ascending seq order — the same oldest-first order
    /// the scan produces, so all issue-time side effects (FU reservation,
    /// memory-order advancement, cache accesses) happen identically.
    ///
    /// Awake µops live in the window's per-cluster ready bitmaps
    /// ([`Rob::set_ready`]): the wheel wakes by setting a bit, and select
    /// is an age-ordered `trailing_zeros` walk over the planes of clusters
    /// that still own an issue slot — a cluster whose width is spent drops
    /// out of the mask, narrowing the select exactly as the paper's
    /// specialized windows do. A µop passed over for FU contention keeps
    /// its bit and is excluded for the rest of the cycle by the advancing
    /// `from` cursor, never re-examined.
    ///
    /// Memory order never fails in select: a memory µop whose operands
    /// arrive while an older memory µop of its thread is unissued is
    /// parked ([`Rob::park`]) instead of woken, and gets its bit when the
    /// older one issues. It is younger than the µop that just issued, so
    /// the walk (past `from`) still reaches it this cycle: consecutive
    /// memory µops issue together, in the cycle the scan oracle issues
    /// them.
    fn issue_event(&mut self) {
        self.due_buf.clear();
        self.wheel.drain_due(self.cycle, &mut self.due_buf);
        if !self.due_buf.is_empty() {
            let front_seq = self.rob.seq_front();
            for k in 0..self.due_buf.len() {
                let seq = self.due_buf[k];
                let idx = (seq - front_seq) as usize;
                debug_assert!(!self.rob.is_done(idx));
                if self.mem_order_allows(idx) {
                    self.rob.set_ready(idx);
                } else {
                    self.rob.park(idx);
                }
            }
        }
        if self.rob.ready_count() == 0 {
            return;
        }
        debug_assert!(!self.rob.is_empty(), "ready µops live in the ROB");
        let front_seq = self.rob.seq_front();
        let mut avail = 0u32;
        for (c, cl) in self.clusters.iter().enumerate() {
            if cl.has_issue_slot() {
                avail |= 1 << c;
            }
        }
        let mut from = 0usize;
        while avail != 0 {
            let Some(idx) = self.rob.next_ready(from, avail) else {
                break;
            };
            from = idx + 1;
            debug_assert!(!self.rob.is_done(idx));
            debug_assert!(self.rob.dispatch_cycle(idx) < self.cycle);
            debug_assert!(self.srcs_ready(self.rob.srcs(idx), self.rob.cluster(idx)));
            let cluster = self.rob.cluster(idx) as usize;
            debug_assert!(
                self.mem_order_allows(idx),
                "a memory-order-gated µop was awake"
            );
            if !self.clusters[cluster].try_issue(self.rob.class(idx), self.cycle) {
                continue;
            }
            self.rob.clear_ready(idx);
            self.complete_issue(idx);
            if self.rob.is_mem(idx) {
                // Unpark the thread's new memory-order front.
                if let Some(&next) = self.mem_order[self.rob.thread(idx) as usize].front() {
                    let nidx = (next - front_seq) as usize;
                    if self.rob.unpark(nidx) {
                        self.rob.set_ready(nidx);
                    }
                }
            }
            if !self.clusters[cluster].has_issue_slot() {
                avail &= !(1 << cluster);
            }
        }

        // Deferred writeback (as in the scan: results issued this cycle are
        // not usable this cycle), then wake each completed register's
        // consumers by unlinking its waiter chain. A consumer whose last
        // in-flight operand just completed now has a fully known
        // operand-ready cycle and books a wheel slot.
        let mut k = 0;
        while k < self.dest_updates.len() {
            let (dst, done) = self.dest_updates[k];
            k += 1;
            let (ci, phys) = (dst.class_index(), dst.phys());
            let mut link;
            {
                let info = &mut self.reg_info[ci][phys];
                info.avail = done;
                link = std::mem::replace(&mut info.wake_head, LINK_NONE);
            }
            while link != LINK_NONE {
                let cseq = link >> 1;
                let csrc = (link & 1) as usize;
                let cidx = (cseq - front_seq) as usize;
                let (next, pending) = self.rob.take_waiter(cidx, csrc);
                link = next;
                if pending > 0 {
                    continue;
                }
                let csrcs = self.rob.srcs(cidx);
                let ccluster = self.rob.cluster(cidx);
                let mut ready_at = self.cycle + 1;
                for s in csrcs {
                    if !s.is_some() {
                        continue;
                    }
                    let info = self.reg_info[s.class_index()][s.phys()];
                    debug_assert_ne!(info.avail, IN_FLIGHT);
                    ready_at = ready_at
                        .max(info.avail + self.cfg.fast_forward.penalty(info.cluster, ccluster));
                }
                self.wheel.schedule(ready_at, cseq);
            }
        }
        self.dest_updates.clear();
    }

    /// A waiting µop that does not issue this scan iteration keeps a
    /// reservation on its destination subset for the rest of the scan
    /// (VP only).
    fn vp_reserve_slot(&mut self, i: usize) {
        if self.vp.is_none() {
            return;
        }
        if self.rob.is_done(i) {
            return;
        }
        let dst = self.rob.dst(i);
        if !dst.is_some() {
            return;
        }
        let subset = self
            .renamer
            .config()
            .phys_subset_of(dst.class(), dst.phys() as u32);
        self.vp_reserved[dst.class_index()][subset.index()] += 1;
    }

    /// Legacy O(window) selection scan, retained for virtual-physical
    /// configurations (and as the event scheduler's test oracle).
    fn issue_scan(&mut self) {
        // Virtual-physical reservations, accumulated oldest-first during
        // the scan below: once a waiting µop passes without issuing, its
        // destination subset keeps one slot reserved against all younger
        // µops this cycle.
        if self.vp.is_some() {
            for class in &mut self.vp_reserved {
                class.iter_mut().for_each(|c| *c = 0);
            }
        }

        // Single in-order pass: per-cluster oldest-first selection.
        for i in 0..self.rob.len() {
            let ready = {
                !self.rob.is_done(i)
                    && self.rob.dispatch_cycle(i) < self.cycle
                    && self.clusters[self.rob.cluster(i) as usize].has_issue_slot()
                    && self.srcs_ready(self.rob.srcs(i), self.rob.cluster(i))
                    && self.mem_order_allows(i)
                    && self.vp_can_alloc(self.rob.dst(i), Some(&self.vp_reserved))
            };
            if !ready {
                self.vp_reserve_slot(i);
                continue;
            }
            let cluster = self.rob.cluster(i) as usize;
            let class = self.rob.class(i);
            if !self.clusters[cluster].try_issue(class, self.cycle) {
                self.vp_reserve_slot(i);
                continue;
            }

            self.complete_issue(i);
            let dst = self.rob.dst(i);
            if dst.is_some() {
                if let Some(vp) = self.vp.as_mut() {
                    let subset = self
                        .renamer
                        .config()
                        .phys_subset_of(dst.class(), dst.phys() as u32);
                    vp.used[dst.class_index()][subset.index()] += 1;
                }
            }
        }

        for k in 0..self.dest_updates.len() {
            let (dst, done) = self.dest_updates[k];
            self.reg_info[dst.class_index()][dst.phys()].avail = done;
        }
        self.dest_updates.clear();
        self.vp_watch();
    }

    /// Virtual-physical anti-wedge: when the ROB head cannot claim a
    /// physical register because architectural state has concentrated in
    /// its destination subset (the issue-time analogue of §2.3), an
    /// exception moves architectural mappings out of that subset — the
    /// same workaround-(b) mechanism, applied to the VP file.
    fn vp_watch(&mut self) {
        const VP_BLOCK_THRESHOLD: u64 = 64;
        if self.vp.is_none() {
            return;
        }
        let blocked = if !self.rob.is_empty() && !self.rob.is_done(0) {
            let dst = self.rob.dst(0);
            if self.vp_can_alloc(dst, None) || !dst.is_some() {
                None
            } else {
                Some((self.rob.seq_front(), dst.class(), dst.phys() as u32))
            }
        } else {
            None
        };
        let Some((seq, class, phys)) = blocked else {
            self.vp_blocked = (u64::MAX, 0);
            return;
        };
        if self.vp_blocked.0 == seq {
            self.vp_blocked.1 += 1;
        } else {
            self.vp_blocked = (seq, 1);
        }
        if self.vp_blocked.1 < VP_BLOCK_THRESHOLD {
            return;
        }
        let stuck = self.renamer.config().phys_subset_of(class, phys);
        self.vp_recover(class, stuck);
        self.vp_blocked = (u64::MAX, 0);
    }

    fn vp_recover(&mut self, class: RegClass, stuck: Subset) {
        use std::collections::HashSet;
        let ci = class_index(class);
        // Tags that in-flight µops still reference (as sources, pending
        // destinations, or mappings to be freed at commit) cannot move.
        // (Cold path — a recovery already costs a pipeline refill — so a
        // transient set is fine here.)
        let mut pinned: HashSet<u32> = HashSet::new();
        for i in 0..self.rob.len() {
            for s in self.rob.srcs(i) {
                if s.is_some() && s.class_index() == ci {
                    pinned.insert(s.phys() as u32);
                }
            }
            let dst = self.rob.dst(i);
            if dst.is_some() && dst.class_index() == ci {
                pinned.insert(dst.phys() as u32);
                // The old mapping shares the destination's class.
                pinned.insert(self.rob.old_phys(i));
            }
        }
        let mut victims = std::mem::take(&mut self.victims_buf);
        victims.clear();
        for tid in 0..self.cfg.threads {
            for (l, m) in self.renamer.map_table_for(tid, class).iter() {
                if m.subset == stuck
                    && !pinned.contains(&m.phys.0)
                    && self.reg_class(class)[m.phys.0 as usize].avail != IN_FLIGHT
                {
                    victims.push((tid, l));
                }
            }
        }
        let done_at = self.cycle + self.cfg.min_mispredict_penalty;
        let subsets = self.renamer.config().subsets;
        let mut moved = 0;
        for &(tid, logical) in &victims {
            if moved >= self.cfg.fetch_width {
                break;
            }
            let vp = self.vp.as_ref().expect("vp_recover requires VP");
            let target = (0..subsets)
                .map(|s| Subset(s as u8))
                .filter(|&s| s != stuck)
                .filter(|&s| vp.used[ci][s.index()] + 1 < vp.capacity)
                .min_by_key(|&s| vp.used[ci][s.index()]);
            let Some(target) = target else { break };
            if let Some(new) = self
                .renamer
                .force_remap_for(tid, class, logical, target, self.cycle)
            {
                let vp = self.vp.as_mut().expect("checked");
                vp.used[ci][stuck.index()] -= 1;
                vp.used[ci][target.index()] += 1;
                self.reg_class_mut(class)[new.phys.0 as usize] = RegInfo {
                    avail: done_at,
                    cluster: new.subset.0 % self.cfg.clusters as u8,
                    from_load: false,
                    wake_head: LINK_NONE,
                };
                moved += 1;
            } else {
                break;
            }
        }
        self.victims_buf = victims;
        if moved > 0 {
            self.dispatch_frozen_until = self.dispatch_frozen_until.max(done_at);
            self.recoveries += 1;
        }
    }

    /// Execution latency for the µop in ROB slot `i`; returns
    /// `(latency, store_forwarded)`.
    fn exec_latency(&mut self, i: usize) -> (u32, bool) {
        let slow_read = self.reg_cache_penalty(i);
        if self.rob.is_load(i) {
            let addr = self.rob.eff_addr(i);
            let thread = self.rob.thread(i) as usize;
            match self.store_queues[thread].query(self.rob.seq_at(i), addr) {
                StoreQueueQuery::ForwardFrom(_) => (latency::LOAD_LATENCY + slow_read, true),
                StoreQueueQuery::NoConflict => {
                    let tagged = addr | ((thread as u64) << 40);
                    (self.hierarchy.load(tagged, self.cycle) + slow_read, false)
                }
            }
        } else {
            (latency::of(self.rob.class(i)) + slow_read, false)
        }
    }

    /// §6 \[4\]: operands older than the register cache's retention read
    /// from the slow full copy, adding latency to this µop.
    fn reg_cache_penalty(&self, i: usize) -> u32 {
        let Some(rc) = self.cfg.reg_cache else {
            return 0;
        };
        let stale = self.rob.srcs(i).iter().any(|s| {
            if !s.is_some() {
                return false;
            }
            let info = self.reg_info[s.class_index()][s.phys()];
            info.avail != IN_FLIGHT && self.cycle.saturating_sub(info.avail) > rc.retention_cycles
        });
        if stale {
            rc.slow_read_penalty
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocPolicy;
    use wsrs_isa::{Assembler, Emulator, Freg, Reg};
    use wsrs_mem::HierarchyConfig;
    use wsrs_regfile::RenameStrategy;
    use wsrs_workloads::Workload;

    fn perfect(mut cfg: SimConfig) -> SimConfig {
        cfg.hierarchy = HierarchyConfig::perfect();
        cfg
    }

    fn run_cfg(cfg: SimConfig, a: Assembler) -> Report {
        Simulator::new(cfg).run(Emulator::new(a.assemble(), 1 << 20))
    }

    /// A long chain of dependent single-cycle adds: IPC must approach 1.
    #[test]
    fn dependent_chain_is_serial() {
        let mut a = Assembler::new();
        let (x, n, i) = (Reg::new(1), Reg::new(2), Reg::new(3));
        a.li(x, 0);
        a.li(n, 2000);
        a.li(i, 0);
        let top = a.bind_label();
        a.addi(x, x, 1);
        a.addi(x, x, 1);
        a.addi(x, x, 1);
        a.addi(x, x, 1);
        a.addi(i, i, 1);
        a.blt(i, n, top);
        let r = run_cfg(perfect(SimConfig::conventional_rr(256)), a);
        // 4 serial adds per iteration dominate. Round-robin scatters the
        // chain across clusters, so each link pays the +1 inter-cluster
        // forwarding delay: ~8 cycles per 6-µop iteration, IPC ≈ 0.75.
        assert!(r.ipc() < 1.6, "ipc {}", r.ipc());
        assert!(r.ipc() > 0.6, "ipc {}", r.ipc());
    }

    /// Independent work should reach high IPC on an 8-way machine.
    #[test]
    fn independent_work_is_parallel() {
        let mut a = Assembler::new();
        let n = Reg::new(1);
        let i = Reg::new(2);
        a.li(n, 3000);
        a.li(i, 0);
        let top = a.bind_label();
        for k in 3..9 {
            a.addi(Reg::new(k), Reg::new(k), 1);
        }
        a.addi(i, i, 1);
        a.blt(i, n, top);
        let r = run_cfg(perfect(SimConfig::conventional_rr(256)), a);
        assert!(r.ipc() > 3.0, "ipc {}", r.ipc());
    }

    #[test]
    fn wsrs_configs_run_and_balance_reasonably() {
        for policy in [AllocPolicy::RandomMonadic, AllocPolicy::RandomCommutative] {
            let mut a = Assembler::new();
            let n = Reg::new(1);
            let i = Reg::new(2);
            a.li(n, 2000);
            a.li(i, 0);
            let top = a.bind_label();
            for k in 3..9 {
                a.addi(Reg::new(k), Reg::new(k), 1);
            }
            a.addi(i, i, 1);
            a.blt(i, n, top);
            let r = run_cfg(
                perfect(SimConfig::wsrs(512, policy, RenameStrategy::ExactCount)),
                a,
            );
            assert!(r.ipc() > 1.5, "{policy:?} ipc {}", r.ipc());
            let total: u64 = r.per_cluster.iter().sum();
            assert_eq!(total, r.uops);
            for &c in &r.per_cluster {
                assert!(c > 0, "{policy:?}: every cluster used");
            }
        }
    }

    #[test]
    fn mispredicts_cost_cycles() {
        // Data-dependent unpredictable branches (xorshift parity).
        let build = |_penalty: u64| {
            let mut a = Assembler::new();
            let (x, i, n, t) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
            a.li(x, 0x1234_5678);
            a.li(i, 0);
            a.li(n, 1500);
            let top = a.bind_label();
            // x ^= x << 13; x ^= x >> 7; x ^= x << 17
            a.slli(t, x, 13);
            a.xor(x, x, t);
            a.srli(t, x, 7);
            a.xor(x, x, t);
            a.slli(t, x, 17);
            a.xor(x, x, t);
            a.andi(t, x, 1);
            let skip = a.label();
            a.beqz(t, skip);
            a.addi(i, i, 0);
            a.bind(skip);
            a.addi(i, i, 1);
            a.blt(i, n, top);
            a
        };
        let base = run_cfg(perfect(SimConfig::conventional_rr(256)), build(17));
        assert!(
            base.mispredict_rate() > 0.2,
            "xorshift branches are unpredictable: {}",
            base.mispredict_rate()
        );
        // A predictable version of the same loop is much faster.
        let mut a = Assembler::new();
        let (i, n) = (Reg::new(2), Reg::new(3));
        a.li(i, 0);
        a.li(n, 1500);
        let top = a.bind_label();
        for k in 5..14 {
            a.addi(Reg::new(k), Reg::new(k), 1);
        }
        a.addi(i, i, 1);
        a.blt(i, n, top);
        let pred = run_cfg(perfect(SimConfig::conventional_rr(256)), a);
        assert!(
            pred.ipc() > 1.5 * base.ipc(),
            "pred {} vs base {}",
            pred.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn store_load_forwarding_works() {
        let mut a = Assembler::new();
        let (b, v, o, i, n) = (
            Reg::new(1),
            Reg::new(2),
            Reg::new(3),
            Reg::new(4),
            Reg::new(5),
        );
        a.li(b, 0x1000);
        a.li(v, 7);
        a.li(i, 0);
        a.li(n, 500);
        let top = a.bind_label();
        a.sw(b, 0, v);
        a.lw(o, b, 0); // always forwards from the store
        a.addi(i, i, 1);
        a.blt(i, n, top);
        let r = run_cfg(SimConfig::conventional_rr(256), a);
        assert!(r.store_forwards >= 499, "forwards: {}", r.store_forwards);
    }

    #[test]
    fn cache_misses_slow_execution() {
        // Stride through 4 MB — every load misses both levels.
        let build = || {
            let mut a = Assembler::new();
            let (b, o, i, n) = (Reg::new(1), Reg::new(3), Reg::new(4), Reg::new(5));
            a.li(b, 0);
            a.li(i, 0);
            a.li(n, 400);
            let top = a.bind_label();
            a.lw(o, b, 0);
            a.add(Reg::new(6), Reg::new(6), o); // use the value
            a.addi(b, b, 8192);
            a.addi(i, i, 1);
            a.blt(i, n, top);
            a
        };
        let slow = run_cfg(SimConfig::conventional_rr(256), build());
        let fast = run_cfg(perfect(SimConfig::conventional_rr(256)), build());
        assert!(slow.cycles > 2 * fast.cycles);
        assert!(slow.memory.l1.misses > 300);
    }

    #[test]
    fn round_robin_unbalance_is_zero() {
        let mut a = Assembler::new();
        let (i, n) = (Reg::new(2), Reg::new(3));
        a.li(i, 0);
        a.li(n, 4000);
        let top = a.bind_label();
        for _ in 0..6 {
            a.addi(Reg::new(5), Reg::new(5), 1);
        }
        a.addi(i, i, 1);
        a.blt(i, n, top);
        let r = run_cfg(perfect(SimConfig::conventional_rr(256)), a);
        assert_eq!(r.unbalance_percent, 0.0);
    }

    #[test]
    fn wsrs_dest_subset_matches_cluster() {
        // Indirectly validated: a WSRS run with chained producers/consumers
        // must still compute the right dynamic schedule (no hangs, all µops
        // retire).
        let mut a = Assembler::new();
        let (x, y, i, n) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
        a.li(x, 1);
        a.li(y, 2);
        a.li(i, 0);
        a.li(n, 1000);
        let top = a.bind_label();
        a.add(x, x, y);
        a.add(y, y, x);
        a.addi(i, i, 1);
        a.blt(i, n, top);
        let r = run_cfg(
            perfect(SimConfig::wsrs(
                512,
                AllocPolicy::RandomCommutative,
                RenameStrategy::ExactCount,
            )),
            a,
        );
        assert_eq!(r.uops, 4 + 4 * 1000);
    }

    #[test]
    fn fp_code_runs_on_wsrs() {
        let mut a = Assembler::new();
        let (fa, fb) = (Freg::new(0), Freg::new(1));
        let (i, n, b) = (Reg::new(1), Reg::new(2), Reg::new(3));
        a.data_f64(0x100, 1.5);
        a.li(b, 0x100);
        a.li(i, 0);
        a.li(n, 500);
        a.lf(fa, b, 0);
        let top = a.bind_label();
        a.fmul(fb, fa, fa);
        a.fadd(fb, fb, fa);
        a.sf(b, 8, fb);
        a.addi(i, i, 1);
        a.blt(i, n, top);
        let r = run_cfg(
            SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::Recycling),
            a,
        );
        assert!(r.ipc() > 0.5, "ipc {}", r.ipc());
    }

    /// A mixed kernel exercising every pool of the Figure 2b organization.
    fn mixed_kernel() -> Assembler {
        let mut a = Assembler::new();
        let (i, n, b, x) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
        let (fa, fb) = (Freg::new(0), Freg::new(1));
        a.data_f64(0x100, 1.5);
        a.li(b, 0x100);
        a.lf(fa, b, 0);
        a.li(i, 0);
        a.li(n, 800);
        let top = a.bind_label();
        a.lw(x, b, 8);
        a.addi(x, x, 3);
        a.mul(Reg::new(5), x, x);
        a.fmul(fb, fa, fa);
        a.sw(b, 8, x);
        a.addi(i, i, 1);
        a.blt(i, n, top);
        a
    }

    #[test]
    fn pooled_machine_routes_every_class_to_its_pool() {
        let cfg = perfect(SimConfig::pooled_write_specialized(
            512,
            RenameStrategy::ExactCount,
        ));
        let r = run_cfg(cfg, mixed_kernel());
        // P0 = memory, P1 = simple ALU, P2 = FP/complex, P3 = branches.
        let mem_uops = 2 * 800 + 1; // lw + sw per iteration, one lf
        let br_uops = 800; // blt per iteration
        assert_eq!(r.per_cluster[0], mem_uops);
        assert_eq!(r.per_cluster[3], br_uops);
        assert!(r.per_cluster[1] > 0 && r.per_cluster[2] > 0);
        assert!(!r.deadlocked);
    }

    #[test]
    fn pooled_ws_stands_comparison_with_monolithic() {
        // §2: write specialization over pools of functional units does not
        // impair performance (static allocation, no extra rename stages).
        let mono = run_cfg(perfect(SimConfig::monolithic(256)), mixed_kernel());
        let pooled = run_cfg(
            perfect(SimConfig::pooled_write_specialized(
                512,
                RenameStrategy::ExactCount,
            )),
            mixed_kernel(),
        );
        assert!(
            pooled.ipc() > 0.9 * mono.ipc(),
            "pooled {} vs monolithic {}",
            pooled.ipc(),
            mono.ipc()
        );
    }

    #[test]
    fn monolithic_beats_clustered_on_dependent_chains() {
        // Complete bypass removes the inter-cluster cycle that round-robin
        // pays on every chain link.
        let chain = || {
            let mut a = Assembler::new();
            let (x, i, n) = (Reg::new(1), Reg::new(2), Reg::new(3));
            a.li(i, 0);
            a.li(n, 1000);
            let top = a.bind_label();
            a.addi(x, x, 1);
            a.addi(x, x, 1);
            a.addi(x, x, 1);
            a.addi(i, i, 1);
            a.blt(i, n, top);
            a
        };
        let mono = run_cfg(perfect(SimConfig::monolithic(256)), chain());
        let clustered = run_cfg(perfect(SimConfig::conventional_rr(256)), chain());
        assert!(
            mono.ipc() > 1.3 * clustered.ipc(),
            "mono {} vs clustered {}",
            mono.ipc(),
            clustered.ipc()
        );
    }

    #[test]
    fn tiny_subsets_deadlock_is_detected() {
        // 84 int regs over 4 subsets = 21 per subset with 20 architectural:
        // one free register per subset; sustained renaming wedges once a
        // subset's register holds architectural state for a stalled chain.
        let mut cfg = perfect(SimConfig::wsrs(
            512,
            AllocPolicy::RandomCommutative,
            RenameStrategy::ExactCount,
        ));
        cfg.int_regs = 84;
        cfg.fp_regs = 132;
        let mut a = Assembler::new();
        // Write many distinct logical registers so mappings migrate.
        let (i, n) = (Reg::new(70), Reg::new(71));
        a.li(i, 0);
        a.li(n, 3000);
        let top = a.bind_label();
        for k in 1..40 {
            a.addi(Reg::new(k), Reg::new(k), 1);
        }
        a.addi(i, i, 1);
        a.blt(i, n, top);
        let r = run_cfg(cfg, a);
        // Either it completes (lucky placement) or the deadlock monitor
        // fires; both are acceptable — what is NOT acceptable is an
        // infinite hang, which the monitor prevents.
        assert!(r.cycles > 0);
    }

    #[test]
    fn virtual_physical_sustains_window_with_fewer_registers() {
        // [13] applied on top of WS: a VP file with 40 physical registers
        // per subset (160 total) sustains the performance of the plain
        // 512-register machine, because registers are occupied only from
        // issue to superseding-commit.
        let kernel = || {
            let mut a = Assembler::new();
            let (i, n) = (Reg::new(1), Reg::new(2));
            a.li(i, 0);
            a.li(n, 1500);
            let top = a.bind_label();
            for k in 3..9 {
                a.addi(Reg::new(k), Reg::new(k), 1);
            }
            a.lw(Reg::new(9), Reg::new(1), 0);
            a.addi(i, i, 1);
            a.blt(i, n, top);
            a
        };
        let plain = run_cfg(
            perfect(SimConfig::write_specialized_rr(
                512,
                RenameStrategy::ExactCount,
            )),
            kernel(),
        );
        let mut vp_cfg = perfect(SimConfig::write_specialized_rr(
            512,
            RenameStrategy::ExactCount,
        ));
        vp_cfg.set_virtual_physical(40);
        let vp = run_cfg(vp_cfg, kernel());
        assert_eq!(vp.uops, plain.uops);
        assert!(!vp.deadlocked);
        assert!(
            vp.ipc() > 0.95 * plain.ipc(),
            "vp {} vs plain {}",
            vp.ipc(),
            plain.ipc()
        );
    }

    #[test]
    fn virtual_physical_reservation_prevents_wedge() {
        // Absurdly tight capacity (21/subset over 20 architectural): the
        // oldest-waiting reservation must still let everything retire.
        let mut cfg = perfect(SimConfig::write_specialized_rr(
            512,
            RenameStrategy::ExactCount,
        ));
        cfg.set_virtual_physical(21);
        let mut a = Assembler::new();
        let (i, n) = (Reg::new(1), Reg::new(2));
        a.li(i, 0);
        a.li(n, 300);
        let top = a.bind_label();
        for k in 3..40 {
            a.addi(Reg::new(k), Reg::new(k), 1);
        }
        a.addi(i, i, 1);
        a.blt(i, n, top);
        let r = run_cfg(cfg, a);
        assert!(!r.deadlocked);
        assert_eq!(r.uops, 2 + 300 * 39);
    }

    /// A 2-thread WSRS machine, configured by plain field assignment: the
    /// renamer's map-table count follows `threads`.
    fn smt_cfg(int_regs: usize) -> SimConfig {
        let mut cfg = perfect(SimConfig::wsrs(
            int_regs,
            AllocPolicy::RandomCommutative,
            RenameStrategy::ExactCount,
        ));
        cfg.threads = 2;
        cfg.deadlock_recovery = true;
        cfg
    }

    fn int_loop(iters: i64, regs: std::ops::Range<u8>) -> Assembler {
        let mut a = Assembler::new();
        let (i, n) = (Reg::new(60), Reg::new(61));
        a.li(i, 0);
        a.li(n, iters);
        let top = a.bind_label();
        for k in regs.clone() {
            a.addi(Reg::new(k), Reg::new(k), 1);
        }
        a.addi(i, i, 1);
        a.blt(i, n, top);
        a
    }

    #[test]
    fn smt_runs_two_threads_to_completion() {
        // §2.3 motivation: with two threads the machine renames 160 logical
        // integer registers; 512/4 = 128 per subset violates the static
        // rule, so the recovery exception must be available.
        let cfg = smt_cfg(512);
        assert!(!cfg
            .renamer()
            .statically_deadlock_free(wsrs_isa::RegClass::Int));
        let t0 = int_loop(500, 1..6);
        let t1 = int_loop(400, 10..20);
        let expect0 = 2 + 500 * 7;
        let expect1 = 2 + 400 * 12;
        let r = Simulator::new(cfg).run_smt(vec![
            Emulator::new(t0.assemble(), 1 << 16),
            Emulator::new(t1.assemble(), 1 << 16),
        ]);
        assert!(!r.deadlocked);
        assert_eq!(r.per_thread_uops, vec![expect0, expect1]);
        assert_eq!(r.uops, expect0 + expect1);
    }

    #[test]
    fn smt_throughput_exceeds_either_thread_alone() {
        // Two copies of the same kernel: the shared 8-wide machine must
        // outrun a single thread (latency hiding), though not reach 2x.
        let build = || {
            let mut a = int_loop(1500, 1..5);
            a.halt();
            a.assemble()
        };
        let single = Simulator::new(perfect(SimConfig::wsrs(
            512,
            AllocPolicy::RandomCommutative,
            RenameStrategy::ExactCount,
        )))
        .run(Emulator::new(build(), 1 << 16));
        let smt = Simulator::new(smt_cfg(512)).run_smt(vec![
            Emulator::new(build(), 1 << 16),
            Emulator::new(build(), 1 << 16),
        ]);
        assert!(!smt.deadlocked);
        assert_eq!(smt.uops, 2 * single.uops);
        let speedup = single.cycles as f64 * 2.0 / smt.cycles as f64;
        assert!(
            speedup > 1.05,
            "SMT should beat serial execution: {speedup:.2}x"
        );
        assert!(speedup <= 2.05, "and cannot exceed 2x: {speedup:.2}x");
    }

    #[test]
    fn smt_with_one_thread_matches_plain_run() {
        let mut a = int_loop(800, 1..8);
        a.halt();
        let p = a.assemble();
        let cfg = perfect(SimConfig::wsrs(
            512,
            AllocPolicy::RandomCommutative,
            RenameStrategy::ExactCount,
        ));
        let plain = Simulator::new(cfg).run(Emulator::new(p.clone(), 1 << 16));
        let smt = Simulator::new(cfg).run_smt(vec![Emulator::new(p, 1 << 16)]);
        assert_eq!(plain.cycles, smt.cycles);
        assert_eq!(plain.uops, smt.uops);
    }

    #[test]
    fn smt_threads_do_not_forward_across_address_spaces() {
        // Both threads store to the "same" address in their own memories;
        // each must load back its own value (per-thread store queues and
        // thread-tagged cache lines).
        let build = |val: i64| {
            let mut a = Assembler::new();
            let (b, v, o, i, n) = (
                Reg::new(1),
                Reg::new(2),
                Reg::new(3),
                Reg::new(4),
                Reg::new(5),
            );
            a.li(b, 0x1000);
            a.li(v, val);
            a.li(i, 0);
            a.li(n, 200);
            let top = a.bind_label();
            a.sw(b, 0, v);
            a.lw(o, b, 0);
            a.add(Reg::new(6), Reg::new(6), o);
            a.addi(i, i, 1);
            a.blt(i, n, top);
            a.halt();
            a.assemble()
        };
        let r = Simulator::new(smt_cfg(512)).run_smt(vec![
            Emulator::new(build(7), 1 << 16),
            Emulator::new(build(9), 1 << 16),
        ]);
        assert!(!r.deadlocked);
        assert_eq!(r.per_thread_uops[0], r.per_thread_uops[1]);
        // forwarding still works within each thread
        assert!(r.store_forwards > 300);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let r = Simulator::new(SimConfig::conventional_rr(256)).run(std::iter::empty());
        assert_eq!(r.uops, 0);
        assert_eq!(r.ipc(), 0.0);
        assert!(!r.deadlocked);
    }

    #[test]
    fn single_uop_program_retires() {
        let mut a = Assembler::new();
        a.li(Reg::new(1), 42);
        a.halt();
        let r = run_cfg(perfect(SimConfig::conventional_rr(256)), a);
        assert_eq!(r.uops, 1);
        assert!(r.cycles >= 1);
    }

    #[test]
    fn timeline_records_ordered_lifecycle() {
        let mut a = Assembler::new();
        let (x, i, n) = (Reg::new(1), Reg::new(2), Reg::new(3));
        a.li(i, 0);
        a.li(n, 50);
        let top = a.bind_label();
        a.addi(x, x, 1);
        a.addi(i, i, 1);
        a.blt(i, n, top);
        a.halt();
        let (report, timeline) = Simulator::new(perfect(SimConfig::conventional_rr(256)))
            .run_timeline(Emulator::new(a.assemble(), 4096), 64);
        assert_eq!(timeline.len(), 64);
        assert!(report.uops > 64);
        for (k, t) in timeline.iter().enumerate() {
            assert_eq!(t.seq, k as u64);
            assert!(t.fetch <= t.dispatch, "uop {k}");
            assert!(t.dispatch < t.issue, "uop {k}: issue after dispatch");
            assert!(t.issue < t.complete, "uop {k}");
            assert!(t.commit >= t.complete, "uop {k}");
        }
        // Commits are in program order.
        for w in timeline.windows(2) {
            assert!(w[0].commit <= w[1].commit);
        }
        // The render is well-formed.
        let text = crate::pipeview::render(&timeline, 80);
        assert!(text.lines().count() == 65);
    }

    #[test]
    fn predictor_quality_orders_performance() {
        use wsrs_frontend::PredictorKind;
        // A periodic, history-learnable branch (taken every third
        // iteration): gskew learns it, always-taken is wrong two thirds of
        // the time.
        let build = || {
            let mut a = Assembler::new();
            let (i, n, t, three) = (Reg::new(1), Reg::new(2), Reg::new(4), Reg::new(6));
            a.li(i, 0);
            a.li(n, 1500);
            a.li(three, 3);
            let top = a.bind_label();
            a.rem(t, i, three);
            let skip = a.label();
            a.beqz(t, skip); // taken every third iteration only
            a.addi(Reg::new(5), Reg::new(5), 1);
            a.bind(skip);
            a.addi(i, i, 1);
            a.blt(i, n, top);
            a
        };
        let run_with = |kind| {
            let mut cfg = perfect(SimConfig::conventional_rr(256));
            cfg.predictor = kind;
            run_cfg(cfg, build())
        };
        let oracle = run_with(PredictorKind::Perfect);
        let gskew = run_with(PredictorKind::TwoBcGskew512K);
        let taken = run_with(PredictorKind::AlwaysTaken);
        assert_eq!(oracle.mispredicts, 0);
        assert!(oracle.ipc() >= gskew.ipc());
        assert!(
            gskew.ipc() > taken.ipc(),
            "gskew {} vs always-taken {}",
            gskew.ipc(),
            taken.ipc()
        );
        // Always-taken mispredicts roughly half of the parity branches.
        assert!(taken.mispredict_rate() > 0.2);
    }

    /// Builds a kernel that migrates many logical registers between
    /// subsets — a deadlock generator for undersized subsets.
    fn migrating_kernel() -> (Assembler, u64) {
        let mut a = Assembler::new();
        let (i, n) = (Reg::new(70), Reg::new(71));
        a.li(i, 0);
        a.li(n, 400);
        let top = a.bind_label();
        for k in 1..50 {
            a.addi(Reg::new(k), Reg::new(k), 1);
        }
        a.addi(i, i, 1);
        a.blt(i, n, top);
        let uops = 2 + 400 * 51;
        (a, uops)
    }

    #[test]
    fn register_cache_slows_stale_reads_only() {
        use crate::config::RegCache;
        // A value produced early and read much later pays the slow-copy
        // penalty; freshly produced values do not.
        let kernel = || {
            let mut a = Assembler::new();
            let (inv, i, n, x) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
            a.li(inv, 7); // produced once, read forever (stale reads)
            a.li(i, 0);
            a.li(n, 2000);
            let top = a.bind_label();
            a.add(x, x, inv);
            a.addi(i, i, 1);
            a.blt(i, n, top);
            a
        };
        let plain = run_cfg(perfect(SimConfig::conventional_rr(256)), kernel());
        let cached = run_cfg(
            perfect(SimConfig::conventional_reg_cache(
                256,
                RegCache {
                    retention_cycles: 16,
                    slow_read_penalty: 2,
                },
            )),
            kernel(),
        );
        assert_eq!(plain.uops, cached.uops);
        assert!(
            cached.cycles > plain.cycles,
            "stale invariant reads must cost: {} vs {}",
            cached.cycles,
            plain.cycles
        );
        // A fresh-value chain is unaffected by the cache.
        let fresh = |cfg| {
            let mut a = Assembler::new();
            let (i, n, x) = (Reg::new(2), Reg::new(3), Reg::new(4));
            a.li(i, 0);
            let top = a.bind_label();
            a.addi(x, x, 1);
            a.li(n, 2000); // re-materialized: every operand stays fresh
            a.addi(i, i, 1);
            a.blt(i, n, top);
            run_cfg(cfg, a)
        };
        let p = fresh(perfect(SimConfig::conventional_rr(256)));
        let c = fresh(perfect(SimConfig::conventional_reg_cache(
            256,
            RegCache {
                retention_cycles: 16,
                slow_read_penalty: 2,
            },
        )));
        // Identical up to a cycle of drain noise (one early read of an
        // architectural reset value can age out).
        assert!(
            c.cycles <= p.cycles + 2,
            "fresh chains read at cached speed: {} vs {}",
            c.cycles,
            p.cycles
        );
    }

    #[test]
    fn exhaustion_avoidance_reduces_deadlocks() {
        // §2.3 workaround (a): with one spare register per subset, steering
        // placement freedom away from exhausted subsets lets the same
        // kernel that wedges under plain RC run much further (or finish).
        let make = |avoid: bool| {
            let mut cfg = perfect(SimConfig::wsrs(
                512,
                AllocPolicy::RandomCommutative,
                RenameStrategy::ExactCount,
            ));
            cfg.int_regs = 84;
            cfg.fp_regs = 132;
            cfg.avoid_exhaustion = avoid;
            cfg
        };
        let (prog, uops) = migrating_kernel();
        let plain = run_cfg(make(false), prog);
        let (prog, _) = migrating_kernel();
        let avoiding = run_cfg(make(true), prog);
        assert!(
            avoiding.uops > plain.uops || (!avoiding.deadlocked && avoiding.uops == uops),
            "avoidance should retire more: {} vs {} (of {uops})",
            avoiding.uops,
            plain.uops
        );
    }

    #[test]
    fn deadlock_recovery_completes_what_detection_aborts() {
        let make = |recovery: bool| {
            let mut cfg = perfect(SimConfig::wsrs(
                512,
                AllocPolicy::RandomCommutative,
                RenameStrategy::ExactCount,
            ));
            cfg.int_regs = 84; // 21/subset for 80 logicals: 1 spare
            cfg.fp_regs = 132;
            cfg.deadlock_recovery = recovery;
            cfg
        };
        let (prog, uops) = migrating_kernel();
        let without = run_cfg(make(false), prog);
        let (prog, _) = migrating_kernel();
        let with = run_cfg(make(true), prog);
        assert!(
            without.deadlocked,
            "the 1-spare-register configuration should wedge"
        );
        assert!(!with.deadlocked, "recovery should unwedge it");
        assert_eq!(with.uops, uops, "every µop retires after recovery");
        assert!(with.deadlock_recoveries > 0);
    }

    /// The event-driven scheduler must replay the legacy selection scan
    /// cycle for cycle: same issue order, same cache-state evolution, same
    /// counters — the whole report, bit for bit.
    #[test]
    fn event_scheduler_matches_scan_bit_for_bit() {
        let configs = vec![
            perfect(SimConfig::conventional_rr(256)),
            SimConfig::conventional_rr(256), // real memory hierarchy
            SimConfig::monolithic(256),
            SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount),
            SimConfig::wsrs(
                512,
                AllocPolicy::RandomCommutative,
                RenameStrategy::Recycling,
            ),
            SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount),
            perfect(SimConfig::pooled_write_specialized(
                512,
                RenameStrategy::ExactCount,
            )),
        ];
        for (ci, cfg) in configs.into_iter().enumerate() {
            let event = Engine::new(&cfg).run(
                vec![Emulator::new(mixed_kernel().assemble(), 1 << 20)],
                0,
                None,
            );
            let mut oracle = Engine::new(&cfg);
            oracle.force_scan = true;
            let scan = oracle.run(
                vec![Emulator::new(mixed_kernel().assemble(), 1 << 20)],
                0,
                None,
            );
            assert_eq!(
                format!("{event:?}"),
                format!("{scan:?}"),
                "schedulers diverge on config {ci}"
            );
        }
    }

    /// Scheduler equivalence through the warmup-snapshot path and under
    /// SMT (shared window, per-thread memory order).
    #[test]
    fn event_scheduler_matches_scan_warmup_and_smt() {
        let cfg = SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount);
        let warm = |force_scan: bool| {
            let mut e = Engine::new(&cfg);
            e.force_scan = force_scan;
            e.run(
                vec![Emulator::new(mixed_kernel().assemble(), 1 << 20).take(3000)],
                1000,
                None,
            )
        };
        assert_eq!(format!("{:?}", warm(false)), format!("{:?}", warm(true)));

        let smt = smt_cfg(512);
        let run = |force_scan: bool| {
            let traces = vec![
                Emulator::new(int_loop(500, 1..6).assemble(), 1 << 16),
                Emulator::new(int_loop(400, 10..20).assemble(), 1 << 16),
            ];
            let mut e = Engine::new(&smt);
            e.force_scan = force_scan;
            e.run(traces, 0, None)
        };
        assert_eq!(format!("{:?}", run(false)), format!("{:?}", run(true)));

        // Two memory-heavy FP kernels under the paper hierarchy: each
        // thread's loads and stores are memory-ordered (and parked) on
        // their own, in one shared window.
        let mut smt = smt_cfg(512);
        smt.hierarchy = HierarchyConfig::paper();
        let run = |force_scan: bool| {
            let traces = vec![
                Workload::Swim.trace().take(20_000),
                Workload::Applu.trace().take(20_000),
            ];
            let mut e = Engine::new(&smt);
            e.force_scan = force_scan;
            e.run(traces, 0, None)
        };
        let event = run(false);
        assert!(event.memory.l1.misses > 100, "kernels must reach memory");
        assert_eq!(format!("{event:?}"), format!("{:?}", run(true)));
    }

    /// Completion delays beyond the calendar wheel's ring take the
    /// overflow path; an inflated L2 penalty forces dependent loads well
    /// past the horizon and the result must still match the scan exactly.
    #[test]
    fn event_scheduler_overflow_matches_scan() {
        let mut cfg = SimConfig::conventional_rr(256);
        cfg.hierarchy.l2_miss_penalty = 5000;
        assert!(
            (cfg.scheduler_horizon() as u32) < cfg.hierarchy.l2_miss_penalty,
            "penalty must exceed the wheel horizon to exercise overflow"
        );
        // Pointer-stride loads: every access touches a fresh L1/L2 set, and
        // the dependent add waits the full (beyond-horizon) miss latency.
        let mut a = Assembler::new();
        let (b, x, acc, i, n) = (
            Reg::new(1),
            Reg::new(2),
            Reg::new(3),
            Reg::new(60),
            Reg::new(61),
        );
        a.li(b, 0);
        a.li(acc, 0);
        a.li(i, 0);
        a.li(n, 120);
        let top = a.bind_label();
        a.lw(x, b, 0);
        a.add(acc, acc, x);
        a.addi(b, b, 8192);
        a.addi(i, i, 1);
        a.blt(i, n, top);
        a.halt();
        let prog = a.assemble();
        let event = Engine::new(&cfg).run(vec![Emulator::new(prog.clone(), 1 << 20)], 0, None);
        let mut oracle = Engine::new(&cfg);
        oracle.force_scan = true;
        let scan = oracle.run(vec![Emulator::new(prog, 1 << 20)], 0, None);
        assert!(event.memory.l2.misses > 50, "kernel must actually miss L2");
        assert_eq!(format!("{event:?}"), format!("{scan:?}"));
    }

    /// The event-horizon fast path must actually engage on a stall-heavy
    /// kernel — long L2 misses leave hundreds of provably dead cycles per
    /// iteration — and change nothing observable: report and telemetry
    /// bit-identical to the forced cycle-by-cycle run.
    #[test]
    fn cycle_skipping_engages_and_preserves_reports() {
        let mut cfg = SimConfig::conventional_rr(256);
        cfg.hierarchy.l2_miss_penalty = 400;
        cfg.telemetry = true;
        let mut a = Assembler::new();
        let (b, x, acc, i, n) = (
            Reg::new(1),
            Reg::new(2),
            Reg::new(3),
            Reg::new(60),
            Reg::new(61),
        );
        a.li(b, 0);
        a.li(acc, 0);
        a.li(i, 0);
        a.li(n, 120);
        let top = a.bind_label();
        a.lw(x, b, 0);
        a.add(acc, acc, x);
        a.addi(b, b, 8192);
        a.addi(i, i, 1);
        a.blt(i, n, top);
        a.halt();
        let prog = a.assemble();
        let run = |allow_skip: bool| {
            let mut e = Engine::new(&cfg);
            e.allow_skip = allow_skip;
            let mut stream = PredictedIters::new(
                vec![Emulator::new(prog.clone(), 1 << 20)],
                cfg.predictor.build(),
            );
            while e.step(&mut stream) {}
            let skipped = e.skipped_cycles;
            (skipped, e.finish(None))
        };
        let (skipped, fast) = run(true);
        let (none, slow) = run(false);
        assert_eq!(none, 0, "no-skip engine must not skip");
        assert!(
            skipped * 10 > fast.cycles,
            "skip must cover a real share of a memory-bound run: {skipped} of {}",
            fast.cycles
        );
        assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
    }

    /// Memory-order parking: a load whose address waits on an L2 miss
    /// holds back a burst of younger, operand-ready loads to one warm line
    /// while the window fills behind them. The burst is parked, not awake,
    /// so the dispatch-blocked wait is a dead region the skipper jumps —
    /// and on issue of the gating load the whole burst still issues in
    /// that same cycle, µop for µop as the scan oracle issues it.
    #[test]
    fn parked_memory_uops_issue_like_scan_and_let_skip_engage() {
        let mut cfg = SimConfig::conventional_rr(256);
        cfg.telemetry = true;
        let mut a = Assembler::new();
        let (b, c, x, y, i, n) = (
            Reg::new(1),
            Reg::new(2),
            Reg::new(3),
            Reg::new(4),
            Reg::new(60),
            Reg::new(61),
        );
        a.li(b, 0);
        a.li(c, 1 << 19); // above every line the gating loads touch
        a.li(i, 0);
        a.li(n, 60);
        let top = a.bind_label();
        a.lw(x, b, 0); // misses: a fresh line every iteration
        a.lw(y, x, 0); // address waits on the miss
        for k in 0..6u8 {
            a.lw(Reg::new(10 + k), c, 8 * i64::from(k)); // burst, operand-ready
        }
        a.addi(b, b, 8192);
        a.addi(i, i, 1);
        a.blt(i, n, top);
        a.halt();
        let prog = a.assemble();
        let run = |force_scan: bool| {
            let mut e = Engine::new(&cfg);
            e.force_scan = force_scan;
            e.timeline = Some((Vec::new(), usize::MAX));
            let mut stream = PredictedIters::new(
                vec![Emulator::new(prog.clone(), 1 << 20)],
                cfg.predictor.build(),
            );
            while e.step(&mut stream) {}
            let skipped = e.skipped_cycles;
            let mut timeline = Vec::new();
            let report = e.finish(Some(&mut timeline));
            (skipped, report, timeline)
        };
        let (skipped, event, timeline) = run(false);
        let (_, scan, scan_timeline) = run(true);
        assert_eq!(format!("{event:?}"), format!("{scan:?}"));
        let issues = |t: &[UopTiming]| t.iter().map(|u| u.issue).collect::<Vec<_>>();
        assert_eq!(issues(&timeline), issues(&scan_timeline));
        assert!(event.memory.l2.misses >= 60, "the gating loads must miss");
        let same_cycle = timeline
            .windows(2)
            .filter(|w| w[0].op.is_load() && w[1].op.is_load() && w[0].issue == w[1].issue)
            .count();
        assert!(
            same_cycle >= 60,
            "unparked loads must issue in their predecessor's cycle: {same_cycle}"
        );
        assert!(
            skipped * 5 > event.cycles,
            "parked loads must not veto the skip: {skipped} of {} cycles",
            event.cycles
        );
    }

    /// Skipping across a redirect stall: a mispredict-heavy kernel with a
    /// long minimum penalty spends most cycles with fetch redirect-blocked
    /// and an empty window (`WaitingCycle` frontier), and must still match
    /// the cycle-by-cycle run bit for bit.
    #[test]
    fn cycle_skipping_preserves_redirect_stalls() {
        let mut cfg = perfect(SimConfig::conventional_rr(256));
        cfg.min_mispredict_penalty = 60;
        cfg.telemetry = true;
        let mut a = Assembler::new();
        let (x, i, n, t) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
        a.li(x, 0x1234_5678);
        a.li(i, 0);
        a.li(n, 400);
        let top = a.bind_label();
        a.slli(t, x, 13);
        a.xor(x, x, t);
        a.srli(t, x, 7);
        a.xor(x, x, t);
        a.andi(t, x, 1);
        let skip = a.label();
        a.beqz(t, skip);
        a.addi(i, i, 0);
        a.bind(skip);
        a.addi(i, i, 1);
        a.blt(i, n, top);
        a.halt();
        let prog = a.assemble();
        let run = |allow_skip: bool| {
            let mut e = Engine::new(&cfg);
            e.allow_skip = allow_skip;
            let mut stream = PredictedIters::new(
                vec![Emulator::new(prog.clone(), 1 << 20)],
                cfg.predictor.build(),
            );
            while e.step(&mut stream) {}
            (e.skipped_cycles, e.finish(None))
        };
        let (skipped, fast) = run(true);
        let (_, slow) = run(false);
        assert!(skipped > 0, "redirect stalls must be skippable");
        assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
    }

    /// Telemetry must observe, never perturb: the same run with and
    /// without attribution produces identical timing, and the attributed
    /// slots conserve (`sum == cycles × width`) with the committed bucket
    /// equal to the retired µop count.
    #[test]
    fn telemetry_conserves_and_does_not_perturb() {
        let configs = vec![
            SimConfig::conventional_rr(256),
            perfect(SimConfig::wsrs(
                384,
                AllocPolicy::RandomCommutative,
                RenameStrategy::Recycling,
            )),
        ];
        for cfg in configs {
            let plain = run_cfg(cfg, mixed_kernel());
            let mut tcfg = cfg;
            tcfg.telemetry = true;
            let traced = run_cfg(tcfg, mixed_kernel());
            assert_eq!(plain.cycles, traced.cycles, "telemetry perturbed timing");
            assert_eq!(plain.uops, traced.uops);
            assert!(plain.attribution.is_none());
            let attr = traced.attribution.expect("telemetry enabled");
            assert!(attr.conserved());
            assert_eq!(attr.width(), cfg.fetch_width as u64);
            assert_eq!(
                attr.slots(SlotBucket::Committed),
                traced.uops,
                "every retired µop fills exactly one committed slot"
            );
            // The attribution's own cycle counter covers every loop
            // iteration; the report's cycle count stops at the last
            // increment — they agree to within one cycle.
            assert!(attr.cycles() - traced.cycles <= 1);
        }
    }

    /// A subset-starved WSRS machine must show rename-stall slots with
    /// the exhausted (class, subset) identified.
    #[test]
    fn telemetry_attributes_rename_stalls() {
        let mut cfg = perfect(SimConfig::wsrs(
            96,
            AllocPolicy::RandomCommutative,
            RenameStrategy::ExactCount,
        ));
        cfg.telemetry = true;
        cfg.deadlock_recovery = true;
        let mut a = Assembler::new();
        let (i, n) = (Reg::new(50), Reg::new(51));
        a.li(i, 0);
        a.li(n, 800);
        let top = a.bind_label();
        for k in 1..20 {
            a.addi(Reg::new(k), Reg::new(k), 1);
        }
        a.addi(i, i, 1);
        a.blt(i, n, top);
        let r = run_cfg(cfg, a);
        let attr = r.attribution.expect("telemetry enabled");
        assert!(attr.conserved());
        if r.rename.alloc_refusals > 0 {
            assert!(
                attr.slots(SlotBucket::RenameStall) > 0,
                "refusals observed but no rename-stall slots charged"
            );
        }
    }

    /// A cache-thrashing loop must be dominated by memory-bucket slots.
    #[test]
    fn telemetry_attributes_memory_bound_cycles() {
        let mut cfg = SimConfig::conventional_rr(256);
        cfg.telemetry = true;
        let mut a = Assembler::new();
        let (b, o, i, n) = (Reg::new(1), Reg::new(3), Reg::new(4), Reg::new(5));
        a.li(b, 0);
        a.li(i, 0);
        a.li(n, 300);
        let top = a.bind_label();
        a.lw(o, b, 0);
        a.add(Reg::new(6), Reg::new(6), o);
        a.addi(b, b, 8192);
        a.addi(i, i, 1);
        a.blt(i, n, top);
        let r = run_cfg(cfg, a);
        let attr = r.attribution.expect("telemetry enabled");
        assert!(attr.conserved());
        assert!(
            attr.fraction(SlotBucket::Memory) > 0.3,
            "memory fraction {:.3} too small for a thrashing loop",
            attr.fraction(SlotBucket::Memory)
        );
    }
}
