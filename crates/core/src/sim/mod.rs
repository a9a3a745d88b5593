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
//! A run starts at [`Simulator::execute`]: a [`RunSpec`] says how long
//! the warmup is, how many µops of timeline to record and whether to take
//! a reference path, and the [`Outcome`] carries the report and the
//! timeline. An engine is built ready to run (`Engine::new` takes the
//! spec and, for a sampled interval, its warm start) and driven by one
//! loop, `Engine::run`, which the sampled path also uses with a stop at a
//! retirement count. The engine advances through `Engine::step` —
//! exactly one cycle per call — so a driver can also interleave many
//! engines over one trace (the batched lockstep path, [`crate::batch`]).
//! Front-end direction prediction lives behind `FetchStream`: prediction
//! depends only on trace order, never on timing, so the batched driver
//! annotates a shared trace once and fans the per-µop outcomes out to
//! every lane, while the scalar path predicts inline as it pulls from its
//! iterator.
//!
//! # Layout
//!
//! This file holds the entry point (`Simulator`), the machine state
//! (`Engine`), its construction, the run loop (`run`), the per-cycle
//! driver (`step`) and the report (`finish`); each stage is an
//! `impl Engine` block in a child module (`fetch`, `dispatch`, `issue`,
//! `commit`, `skip`, `attr`, `vp`). A rule that several stages apply has one home:
//! the operand-usable cycle is `Engine::usable_cycle`.

mod attr;
mod commit;
mod dispatch;
mod fetch;
mod issue;
mod skip;
#[cfg(test)]
mod tests;
mod vp;

use std::collections::VecDeque;

use crate::alloc::Allocator;
use crate::cluster::ClusterState;
use crate::config::SimConfig;
use crate::metrics::{Counters, Report, UnbalanceTracker};
use crate::pipeview::UopTiming;
use crate::slots::{PackedReg, Rob, LINK_NONE};
use crate::wheel::CalendarWheel;
use wsrs_isa::{DynInst, RegClass};
use wsrs_mem::{MemoryHierarchy, StoreQueue};
use wsrs_regfile::{DeadlockMonitor, Renamer, Subset};

use dispatch::DispatchBlock;
pub(crate) use fetch::{predict_uop, AnnUop, FetchStream, PredictedIters};
use fetch::{Fetched, Redirect};
use vp::VpState;

/// Sentinel for "value not yet produced".
const IN_FLIGHT: u64 = u64::MAX;

/// The predictor sees per-thread PCs (threads run distinct programs).
pub(crate) fn tagged_pc(tid: usize, pc: u64) -> u64 {
    pc | ((tid as u64) << 48)
}

/// The caches see per-thread addresses (threads run distinct programs).
fn tagged_addr(tid: usize, addr: u64) -> u64 {
    addr | ((tid as u64) << 40)
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

impl RegInfo {
    /// A register without waiters.
    fn new(avail: u64, cluster: u8, from_load: bool) -> Self {
        RegInfo {
            avail,
            wake_head: LINK_NONE,
            cluster,
            from_load,
        }
    }
}

/// How [`Simulator::execute`] runs its traces. The default is a plain run:
/// no warmup, no timeline, the production engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunSpec {
    /// Retired µops before the measurement window opens (the paper's
    /// §5.3 methodology: warm predictors, caches and the window, then
    /// measure). [`Report`] says which of its fields cover only the
    /// window and which the whole run.
    pub warmup: u64,
    /// Record per-µop pipeline timestamps for this many µops, in program
    /// order (see [`crate::pipeview`]); 0 records none. Recording only
    /// observes: the [`Report`] is the same either way.
    pub timeline: usize,
    /// Run a reference path instead of the production engine. Each is
    /// bit-identical to the production engine by construction and exists
    /// as a differential-testing oracle.
    pub reference: Option<Reference>,
}

/// A reference path of the engine, for differential tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reference {
    /// The retained O(window) selection scan instead of the event-driven
    /// scheduler (the oracle for the wheel + intrusive-list engine, see
    /// `tests/proptest_scheduler.rs`).
    Scan,
    /// The cycle-by-cycle loop instead of event-horizon skipping (the
    /// oracle and timing baseline for skipping).
    NoSkip,
}

/// What [`Simulator::execute`] returns.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The run's statistics.
    pub report: Report,
    /// The first [`RunSpec::timeline`] µops' pipeline timestamps, indexed
    /// by program-order sequence number (fewer if fewer were dispatched).
    pub timeline: Vec<UopTiming>,
}

/// A configured simulator. Construct with [`Simulator::new`], run traces
/// with [`Simulator::execute`].
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

    /// Runs one trace per hardware thread (`config.threads` of them) to
    /// exhaustion, plus pipeline drain, as `spec` says. Bound a window by
    /// truncating each trace (`.take(n)`).
    ///
    /// On an SMT machine the threads share fetch/dispatch bandwidth
    /// round-robin, the ROB, the clusters, the caches and the physical
    /// register file; each has its own architectural map tables, store
    /// queue and memory-order stream. The report's `per_thread_uops`
    /// carries the per-thread retirement counts.
    ///
    /// # Panics
    ///
    /// Panics if the number of traces is not `config.threads`.
    pub fn execute<I: IntoIterator<Item = DynInst>>(
        &self,
        spec: &RunSpec,
        traces: impl IntoIterator<Item = I>,
    ) -> Outcome {
        let traces: Vec<I::IntoIter> = traces.into_iter().map(IntoIterator::into_iter).collect();
        assert_eq!(
            traces.len(),
            self.config.threads,
            "one trace per hardware thread"
        );
        let stream = PredictedIters::new(traces, self.config.predictor.build());
        Engine::new(&self.config, spec, None).run(stream, u64::MAX)
    }

    /// Runs `warmup + measure` µops of a single-thread trace and reports
    /// over the measured window only: [`Simulator::execute`] with
    /// [`RunSpec::warmup`] set and the trace truncated.
    pub fn run_measured(
        &self,
        trace: impl IntoIterator<Item = DynInst>,
        warmup: u64,
        measure: u64,
    ) -> Report {
        let bounded = trace.into_iter().take((warmup + measure) as usize);
        let spec = RunSpec {
            warmup,
            ..RunSpec::default()
        };
        self.execute(&spec, [bounded]).report
    }
}

/// The state a sampled interval starts from instead of reset (see
/// [`crate::sample`]).
pub(crate) struct WarmStart {
    /// A pre-warmed memory hierarchy, built from the run's configuration.
    pub(crate) hierarchy: MemoryHierarchy,
    /// WSRS only: the warm architectural subset map (integer, FP) and the
    /// allocation policy's RNG position, so interval placement choices
    /// replay the full run's.
    pub(crate) arch_map: Option<([Vec<Subset>; 2], u64)>,
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
    /// µops retired over the whole run, in total and per thread.
    retired: u64,
    thread_retired: Vec<u64>,
    deadlock: DeadlockMonitor,
    deadlocked: bool,
    /// Subset whose exhaustion blocked renaming most recently.
    blocked_subset: Option<(RegClass, Subset)>,
    /// Dispatch is frozen until this cycle (deadlock-exception cost).
    dispatch_frozen_until: u64,
    recoveries: u64,
    /// Per-µop timeline, indexed by seq, for the first `timeline_limit`
    /// µops (none when the limit is 0).
    timeline: Vec<UopTiming>,
    timeline_limit: usize,
    vp: Option<VpState>,
    /// (head seq, cycles the ROB head has been VP-capacity-blocked).
    vp_blocked: (u64, u64),
    /// Event scheduler: µops whose operands become usable at a known future
    /// cycle, booked on a fixed-horizon calendar wheel. The per-register
    /// waiter lists live intrusively in `RegInfo::wake_head` and the
    /// window's `next_waiter` lane — hanging or draining a waiter is
    /// pointer writes, never an allocation.
    wheel: CalendarWheel,
    /// The reference path this run takes instead of the production engine
    /// ([`Reference::NoSkip`] never jumps the clock over provably dead
    /// cycles; [`Reference::Scan`] selects with the O(window) scan).
    reference: Option<Reference>,
    /// Cycles the event-horizon fast path jumped over without simulating.
    /// Diagnostics only — deliberately not part of any [`Report`], which
    /// must stay bit-identical whether or not skipping ran.
    skipped_cycles: u64,
    /// Per-thread trace exhaustion (a field so [`Engine::step`] can be
    /// driven cycle-by-cycle).
    trace_done: Vec<bool>,
    /// Retired-µop threshold at which the measured window opens.
    warmup: u64,
    /// The clock and `retired` when the measured window opened.
    boundary: Option<(u64, u64)>,
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
    /// The counters the report windows, zeroed when the window opens;
    /// telemetry off, the attribution in `count.attr` costs one branch per
    /// cycle.
    count: Counters,
    unbalance: UnbalanceTracker,
    /// µops retired by the current cycle's `commit()` pass.
    committed_this_cycle: u64,
    /// Why this cycle's `dispatch()` made no progress.
    dispatch_block: DispatchBlock,
}

impl<'a> Engine<'a> {
    /// An engine ready to run under `spec`, from reset or from `warm`.
    pub(crate) fn new(cfg: &'a SimConfig, spec: &RunSpec, warm: Option<WarmStart>) -> Self {
        let warm = warm.unwrap_or_else(|| WarmStart {
            hierarchy: MemoryHierarchy::new(cfg.hierarchy),
            arch_map: None,
        });
        assert_eq!(
            *warm.hierarchy.config(),
            cfg.hierarchy,
            "hierarchy configuration mismatch"
        );
        let mut allocator = Allocator::new(cfg.policy, cfg.mode, cfg.clusters, cfg.seed);
        let placement = match warm.arch_map {
            None => cfg.renamer().reset_placement(),
            Some((placement, rng_state)) => {
                allocator.set_rng_state(rng_state);
                placement
            }
        };
        let renamer = Renamer::new(cfg.renamer(), &placement);
        // Every architectural value is produced, in its subset's home
        // cluster.
        let regs = |class: RegClass, total: usize| {
            let mut v = vec![RegInfo::new(0, 0, false); total];
            for m in renamer.arch_mappings(class) {
                v[m.phys.0 as usize].cluster = cfg.mode.home_cluster(m.subset).0;
            }
            v
        };
        let rc = *renamer.config();
        let reg_info = [
            regs(RegClass::Int, rc.int_regs),
            regs(RegClass::Fp, rc.fp_regs),
        ];
        let vp = VpState::initial(&renamer, cfg.vp_phys_per_subset, cfg.rob);
        Engine {
            cfg,
            cycle: 0,
            allocator,
            renamer,
            hierarchy: warm.hierarchy,
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
            retired: 0,
            thread_retired: vec![0; cfg.threads],
            deadlock: DeadlockMonitor::new(dispatch::DEADLOCK_THRESHOLD),
            deadlocked: false,
            blocked_subset: None,
            dispatch_frozen_until: 0,
            recoveries: 0,
            timeline: Vec::with_capacity(spec.timeline.min(4096)),
            timeline_limit: spec.timeline,
            vp,
            vp_blocked: (u64::MAX, 0),
            wheel: CalendarWheel::new(cfg.scheduler_horizon()),
            reference: spec.reference,
            skipped_cycles: 0,
            trace_done: vec![false; cfg.threads],
            warmup: spec.warmup,
            boundary: None,
            last_progress: (0, 0),
            fetch_buf_cap: 4 * cfg.fetch_width,
            occ_buf: Vec::with_capacity(cfg.clusters),
            free_buf: Vec::with_capacity(rc.subsets),
            dest_updates: Vec::new(),
            due_buf: Vec::new(),
            count: Counters::new(cfg),
            unbalance: UnbalanceTracker::paper(cfg.clusters),
            committed_this_cycle: 0,
            dispatch_block: DispatchBlock::None,
        }
    }

    /// Steps until the pipeline drains, or until `stop_at` µops have
    /// retired, and reports. Monomorphized over the fetch stream, so no
    /// entry point pays dynamic dispatch per µop.
    pub(crate) fn run<S: FetchStream>(mut self, mut stream: S, stop_at: u64) -> Outcome {
        while self.retired < stop_at && self.step(&mut stream) {}
        self.finish()
    }

    /// Advances the machine by exactly one cycle, pulling newly fetched
    /// µops from `stream`. Returns `false` once the pipeline has drained
    /// (or the machine deadlocked) — after which [`Engine::finish`]
    /// produces the report.
    pub(crate) fn step<S: FetchStream>(&mut self, stream: &mut S) -> bool {
        self.commit();
        if self.warmup > 0 && self.boundary.is_none() && self.retired >= self.warmup {
            self.boundary = Some((self.cycle, self.retired));
            self.count = Counters::new(self.cfg);
        }
        self.fetch(stream);
        self.dispatch();
        self.issue();
        if self.count.attr.is_some() {
            self.attribute_cycle();
        }

        let drained = self.trace_done.iter().all(|&d| d)
            && self.fetch_bufs.iter().all(VecDeque::is_empty)
            && self.rob.is_empty();
        if drained || self.deadlocked {
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
        if self.reference != Some(Reference::NoSkip) && self.event_scheduler() {
            if let Some(t) = self.skip_target() {
                self.apply_skip(t);
                next = t;
            }
        }
        self.cycle = next;
        true
    }

    /// Closes the run: assembles the [`Report`] from the windowed counters
    /// and the whole-run statistics, handing over the timeline.
    pub(crate) fn finish(mut self) -> Outcome {
        let (start_cycle, start_retired) = self.boundary.unwrap_or_default();
        let Counters {
            branches,
            mispredicts,
            dispatched,
            store_forwards,
            unbalance_groups,
            unbalance_flagged,
            stalls,
            attr,
        } = std::mem::take(&mut self.count);
        let report = Report {
            cycles: (self.cycle - start_cycle).max(1),
            uops: self.retired - start_retired,
            branches,
            mispredicts,
            per_cluster: dispatched[..self.clusters.len()].to_vec(),
            unbalance_percent: if unbalance_groups == 0 {
                0.0
            } else {
                100.0 * unbalance_flagged as f64 / unbalance_groups as f64
            },
            stalls,
            memory: self.hierarchy.stats(),
            rename: self.renamer.stats(),
            store_forwards,
            deadlocked: self.deadlocked,
            deadlock_recoveries: self.recoveries,
            per_thread_uops: self.thread_retired,
            attribution: attr,
        };
        Outcome {
            report,
            timeline: self.timeline,
        }
    }

    /// §5.2: the cycle from which a produced value is usable by a µop
    /// executing on `cluster` — one cycle later outside the producer's
    /// fast-forwarding reach. `info` must not be [`IN_FLIGHT`].
    fn usable_cycle(&self, info: RegInfo, cluster: u8) -> u64 {
        info.avail + self.cfg.fast_forward.penalty(info.cluster, cluster)
    }
}
