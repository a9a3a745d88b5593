//! `grid-int` and `grid-fp`: `report gate`'s figure4 traffic limited to
//! one kernel class, replayed from a trace store recorded during set-up.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use wsrs_bench::manifest::{grid_manifest, load_baseline, telemetry_on};
use wsrs_bench::windows::{GATE_MEASURE, GATE_WARMUP};
use wsrs_bench::{
    figure4_configs, run_grid_full, CellHook, GridRun, RunParams, TraceCache, TraceOrigin,
};
use wsrs_core::{run_lockstep, Report, SimConfig, Simulator};
use wsrs_frontend::PredictorKind;
use wsrs_isa::DynInst;
use wsrs_telemetry::{RunManifest, Tolerances};
use wsrs_trace::{TraceKey, TraceStore};
use wsrs_workloads::Workload;

use crate::host::{self, timed, Sampler, SETUP_SENSITIVITY};
use crate::spans::{Ledger, Tracer};
use crate::{fresh_dir, geomean, median, ms, peak_rss_mb, print_latency, Args, Outcome, Rng};

/// The gate window the committed baseline was recorded at.
pub const PARAMS: RunParams = RunParams {
    warmup: GATE_WARMUP,
    measure: GATE_MEASURE,
};

/// Worker threads: the host has two cores.
const THREADS: usize = 2;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

fn kernels(workload: &str) -> Vec<Workload> {
    match workload {
        "grid-int" => Workload::integer().to_vec(),
        _ => Workload::floating_point().to_vec(),
    }
}

/// The gate's figure4 columns: every configuration with telemetry on.
pub fn configs() -> Vec<(&'static str, SimConfig)> {
    figure4_configs()
        .into_iter()
        .map(|(n, c)| (n, telemetry_on(&c)))
        .collect()
}

pub fn trace_key(w: Workload) -> TraceKey {
    TraceKey {
        workload: w.name().to_string(),
        warmup: PARAMS.warmup,
        measure: PARAMS.measure,
        rev: w.trace_fingerprint(),
    }
}

fn window() -> usize {
    (PARAMS.warmup + PARAMS.measure) as usize
}

/// Emulates and records every trace of `workloads` into an empty store
/// at `dir` through the trace cache's record-on-miss path.
pub fn record_traces(dir: &Path, workloads: &[Workload], o: &mut Outcome) {
    let cache = TraceCache::evicting(PARAMS, 1).with_store(Some(TraceStore::at(dir)));
    for &w in workloads {
        let len = cache.checkout(w).len();
        cache.release(w);
        if len != window() {
            o.problems.push(format!(
                "{w}: trace holds {len} µops, expected {}",
                window()
            ));
        }
    }
    for s in cache.provenance().sources {
        if s.origin != TraceOrigin::Emulated || s.checksum.is_none() {
            o.problems
                .push(format!("{}: set-up did not record a trace", s.workload));
        }
    }
}

/// Checks one grid's cells against the committed figure4 baseline with
/// the gate's own comparison, and additionally demands bit-identical
/// IPC: the simulator is deterministic, so any drift is a wrong output.
fn check_against_baseline(
    o: &mut Outcome,
    baseline: &RunManifest,
    order: &[Workload],
    reports: &[Vec<Report>],
    provenance: Option<&wsrs_bench::TraceProvenance>,
) {
    let configs = configs();
    let fresh = grid_manifest(
        "figure4",
        order,
        &configs,
        PARAMS,
        THREADS,
        0.0,
        reports,
        &[],
        &[],
        provenance,
    );
    let names: Vec<&str> = order.iter().map(|w| w.name()).collect();
    let mut base = baseline.clone();
    base.cells.retain(|c| names.contains(&c.workload.as_str()));
    base.traces.retain(|t| names.contains(&t.workload.as_str()));
    let gate = base.compare(&fresh, &Tolerances::default());
    let mut cell_failures = 0;
    for cell in &fresh.cells {
        let (w, c) = cell.key();
        let prefix = format!("{w}/{c}:");
        let why = match base.cell(w, c) {
            None => Some(format!("{w}/{c} is not in the baseline")),
            Some(b) if b.ipc.to_bits() != cell.ipc.to_bits() => Some(format!(
                "{w}/{c}: IPC {} differs from baseline {}",
                cell.ipc, b.ipc
            )),
            Some(_) => gate
                .failures
                .iter()
                .find(|f| f.starts_with(&prefix))
                .cloned(),
        };
        cell_failures += usize::from(why.is_some());
        o.check(why);
    }
    for f in &gate.failures {
        if !fresh
            .cells
            .iter()
            .any(|c| f.starts_with(&format!("{}/{}:", c.workload, c.config)))
        {
            o.problems.push(f.clone());
        }
    }
    if cell_failures == 0 && gate.failures.is_empty() {
        return;
    }
    eprintln!("{cell_failures} cell(s) differ from the baseline");
}

fn load_figure4_baseline(o: &mut Outcome) -> Option<RunManifest> {
    let b = load_baseline("figure4");
    if b.is_none() {
        o.problems
            .push("committed BENCH_figure4.json is missing or malformed".into());
    }
    b
}

/// The untraced run: set up, then repeat whole-grid passes for
/// `--seconds`, each with a fresh trace cache replaying the store.
pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let workloads = kernels(&args.workload);
    let configs = configs();
    let Some(baseline) = load_figure4_baseline(&mut o) else {
        return o;
    };

    let (sampler, sensitivity) = (Sampler::start(), host::sensitivity(&args.workload));
    let (mut setup, mut setup_wall) = (Vec::new(), Vec::new());
    let mut store_dir = args.work.clone();
    for rep in 0..SETUP_REPS {
        store_dir = fresh_dir(&args.work, &format!("traces-{rep}"));
        let (_, took, norm) = timed(&sampler, SETUP_SENSITIVITY, || {
            record_traces(&store_dir, &workloads, &mut o)
        });
        setup_wall.push(took);
        setup.push(norm);
    }
    // One untimed unit warms the allocator, the code and the branch
    // predictors, so the first timed pass is not an outlier.
    let warm = &workloads[..1];
    check_pass(
        &mut o,
        &baseline,
        warm,
        grid_pass(warm, &store_dir, &|_, _, _, _| {}),
    );

    let mut rng = Rng::new(args.seed);
    let (mut busy, mut normalized, mut cells, mut passes) = (0.0, 0.0, 0u64, 0usize);
    let (mut cell_ms, mut rss, mut pass_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_cell_ms, mut factors) = (Vec::new(), Vec::new());
    let mut order = workloads.clone();
    // Passes come in pairs, the second replaying the first's order
    // reversed: how units pack onto the workers depends on the order
    // (one straggler unit claimed last stretches a pass), and a reversed
    // twin cancels most of that, so a run's throughput does not hinge on
    // the orders its seed drew. A pair starts only if it should end within
    // half a pair of `--seconds`, so runs last about `--seconds` even when
    // one pair takes most of it.
    loop {
        if passes.is_multiple_of(2) {
            let pair_s = busy / (passes / 2).max(1) as f64;
            if passes > 0 && busy + pair_s / 2.0 > args.seconds {
                break;
            }
            rng.shuffle(&mut order);
        } else {
            order.reverse();
        }
        reset_peak_rss();
        let shares = Mutex::new(Vec::new());
        let hook = |_: Workload, _: &str, _: &Report, d: Duration| {
            shares
                .lock()
                .expect("hook list poisoned")
                .push(d.as_secs_f64() * 1e3);
        };
        let (run, took, norm) = timed(&sampler, sensitivity, || {
            grid_pass(&order, &store_dir, &hook)
        });
        let f = norm / took;
        pass_s.push(took);
        factors.push(f);
        busy += took;
        normalized += norm;
        passes += 1;
        cells += check_pass(&mut o, &baseline, &order, run);
        for d in shares.into_inner().expect("hook list poisoned") {
            raw_cell_ms.push(d);
            cell_ms.push(d * f);
        }
        rss.extend(peak_rss_mb(None));
    }

    eprintln!(
        "{}: {passes} pass(es) of {} cells in {busy:.2} s, 2 workers",
        args.workload,
        workloads.len() * configs.len()
    );
    eprintln!(
        "  wall clock: {:.3} cells/s, exact cell geomean {:.1} ms, set-up p50 {:.3} s",
        cells as f64 / busy,
        geomean(&raw_cell_ms),
        median(&setup_wall)
    );
    eprintln!(
        "  host kernel: p50 {:.1} µs (n = {}); speed factor per pass {factors:.3?}",
        median(&sampler.all_us()),
        sampler.all_us().len()
    );
    print_latency("exact cell", &cell_ms);
    eprintln!("  set-up runs (s): {setup:.3?}");
    eprintln!("  pass wall times (s): {pass_s:.2?}");
    eprintln!("  peak RSS per pass (MB): {rss:.1?}");
    o.metric("jobs_per_s", cells as f64 / normalized, "1/s");
    o.metric("exact_cell_ms", geomean(&cell_ms), "ms");
    o.metric("setup_s", median(&setup), "s");
    o.metric("peak_rss_mb", median(&rss), "MB");
    o
}

/// One `run_grid_full` pass over `order` from the store at `dir`, with a
/// fresh trace cache; `None` if a worker panicked.
fn grid_pass(order: &[Workload], dir: &Path, hook: CellHook<'_>) -> Option<GridRun> {
    catch_unwind(AssertUnwindSafe(|| {
        run_grid_full(
            order,
            &configs(),
            PARAMS,
            THREADS,
            Some(TraceStore::at(dir)),
            None,
            hook,
        )
    }))
    .ok()
}

/// Checks one pass's cells; returns how many it delivered.
fn check_pass(
    o: &mut Outcome,
    baseline: &RunManifest,
    order: &[Workload],
    run: Option<GridRun>,
) -> u64 {
    match run {
        Some(run) => {
            check_against_baseline(o, baseline, order, &run.reports, Some(&run.provenance));
            run.reports.iter().flatten().count() as u64
        }
        None => {
            for _ in 0..order.len() * configs().len() {
                o.check(Some("a grid worker panicked".into()));
            }
            0
        }
    }
}

/// Restarts this process's peak-resident-set count, so each pass's peak
/// is read on its own rather than as the maximum over the run so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Runs the family predictor over one trace's conditional branches, as
/// the engine's fetch loop and the lockstep annotator do; returns the
/// mispredictions.
pub fn predictor_pass(kind: PredictorKind, trace: &[DynInst]) -> u64 {
    let Some(mut p) = kind.build() else {
        return 0;
    };
    let mut misses = 0;
    for d in trace.iter().filter(|d| d.is_cond_branch()) {
        let guess = p.predict(d.pc);
        p.update(d.pc, d.taken);
        misses += u64::from(guess != d.taken);
    }
    misses
}

/// One scalar cell, timed: the report and its host milliseconds.
pub fn scalar_cell(cfg: &SimConfig, trace: &[DynInst]) -> (Report, f64) {
    let t0 = Instant::now();
    let r = Simulator::new(*cfg).run_measured(trace.iter().copied(), PARAMS.warmup, PARAMS.measure);
    (r, ms(t0))
}

/// Whether two reports are the same simulation result.
pub fn same_result(a: &Report, b: &Report) -> bool {
    (
        a.cycles,
        a.uops,
        a.mispredicts,
        a.memory.l1.misses,
        a.memory.l2.misses,
        a.rename.alloc_refusals,
    ) == (
        b.cycles,
        b.uops,
        b.mispredicts,
        b.memory.l1.misses,
        b.memory.l2.misses,
        b.rename.alloc_refusals,
    ) && a.ipc().to_bits() == b.ipc().to_bits()
}

/// The traced run: the same cells driven through each layer's public
/// functions, one span per call, then one traced `run_grid_full` pass for
/// the harness layer.
pub fn traced(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let Some(baseline) = load_figure4_baseline(&mut o) else {
        return o;
    };
    let t_all = Instant::now();
    let tracer = Tracer::new();
    let mut l = Ledger::default();
    let workloads = kernels(&args.workload);
    let configs = configs();
    let cfgs: Vec<SimConfig> = configs.iter().map(|(_, c)| *c).collect();

    let dir = fresh_dir(&args.work, "traces");
    let store = TraceStore::at(&dir);
    tracer.time("bench.setup", 0, 0, |root| {
        for &w in &workloads {
            let trace = tracer.time("isa.emulate", root, 0, |_| {
                let mut buf = Vec::with_capacity(window());
                buf.extend(w.trace().take(window()));
                buf
            });
            if let Err(e) =
                tracer.time("trace.save", root, 0, |_| store.save(&trace_key(w), &trace))
            {
                o.problems.push(format!("{w}: trace save failed: {e}"));
            }
        }
    });

    let mut rng = Rng::new(args.seed);
    let mut order = workloads.clone();
    rng.shuffle(&mut order);
    let mut reports = Vec::new();
    tracer.time("bench.drive", 0, 0, |root| {
        for (row_index, &w) in order.iter().enumerate() {
            let loaded = match tracer.time("trace.load", root, 0, |_| store.load(&trace_key(w))) {
                Ok(t) => t,
                Err(e) => {
                    o.problems.push(format!("{w}: trace load failed: {e}"));
                    continue;
                }
            };
            l.trace_loads += 1;
            l.trace_bytes += loaded.bytes;
            l.trace_uops += loaded.uops.len() as u64;
            let trace = loaded.uops;
            l.mispredicts += tracer.time("frontend.predict", root, 0, |_| {
                predictor_pass(cfgs[0].predictor, &trace)
            });
            let t0 = Instant::now();
            let lanes = run_lockstep(&cfgs, &trace, PARAMS.warmup, PARAMS.measure);
            tracer.record("core.lockstep", root, 0, t0, Instant::now());
            let lock_ms = ms(t0);
            let mut row = Vec::new();
            let mut scalar_sum = 0.0;
            for (j, (cfg, lane)) in cfgs.iter().zip(&lanes).enumerate() {
                let t0 = Instant::now();
                let (r, on_ms) = scalar_cell(cfg, &trace);
                tracer.record("core.scalar", root, 0, t0, Instant::now());
                scalar_sum += on_ms;
                l.scalar_cells
                    .push((on_ms * 1e6, window().min(trace.len()) as u64, r.cycles));
                l.add_report(&r);
                if !same_result(&r, lane) {
                    o.problems
                        .push(format!("{w}: scalar and lockstep results disagree"));
                }
                // One telemetry-off twin per workload, rotating over the
                // columns, keeps the traced run short.
                if j == row_index % cfgs.len() {
                    let mut off = *cfg;
                    off.telemetry = false;
                    let t0 = Instant::now();
                    let (r_off, off_ms) = scalar_cell(&off, &trace);
                    tracer.record("core.scalar_off", root, 0, t0, Instant::now());
                    l.telemetry_on_ms += on_ms;
                    l.telemetry_off_ms += off_ms;
                    if !same_result(&r, &r_off) {
                        o.problems
                            .push(format!("{w}: telemetry-off result differs"));
                    }
                }
                row.push(r);
            }
            l.lockstep_units.push((lock_ms, cfgs.len(), scalar_sum));
            reports.push(row);
        }
    });
    check_against_baseline(&mut o, &baseline, &order, &reports, None);

    harness_pass(&tracer, &mut l, &mut o, &dir, &order, &baseline);

    let wall_ms = ms(t_all);
    crate::spans::emit(&tracer, &l, wall_ms, &mut o);
    tracer.write_jsonl(
        &args
            .out
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed)),
    );
    o
}

/// One `run_grid_full` pass whose completion hook timestamps every cell,
/// giving the harness layer's unit, checkout-wait and tail-idle figures.
fn harness_pass(
    tracer: &Tracer,
    l: &mut Ledger,
    o: &mut Outcome,
    dir: &Path,
    order: &[Workload],
    baseline: &RunManifest,
) {
    type Event = (ThreadId, Workload, Instant, Duration);
    let events: Mutex<Vec<Event>> = Mutex::new(Vec::new());
    let hook = |w: Workload, _: &str, _: &Report, d: Duration| {
        events.lock().expect("hook list poisoned").push((
            std::thread::current().id(),
            w,
            Instant::now(),
            d,
        ));
    };
    let root = tracer.reserve();
    let start = Instant::now();
    let run = run_grid_full(
        order,
        &configs(),
        PARAMS,
        THREADS,
        Some(TraceStore::at(dir)),
        None,
        &hook,
    );
    let end = Instant::now();
    tracer.record_as(root, "bench.grid", 0, 0, start, end);
    check_against_baseline(o, baseline, order, &run.reports, Some(&run.provenance));

    // A unit's cells complete back to back on one thread: fold them into
    // (completion time, simulated time) per unit, per worker.
    let mut per_worker: BTreeMap<String, Vec<(Workload, Instant, Duration)>> = BTreeMap::new();
    for (tid, w, at, d) in events.into_inner().expect("hook list poisoned") {
        let units = per_worker.entry(format!("{tid:?}")).or_default();
        match units.last_mut() {
            Some(u) if u.0 == w => {
                u.1 = at;
                u.2 += d;
            }
            _ => units.push((w, at, d)),
        }
    }
    let mut idle = Duration::ZERO;
    for units in per_worker.values() {
        let mut prev = start;
        for &(_, done, sim) in units {
            let began = done.checked_sub(sim).unwrap_or(prev).max(prev);
            tracer.record("bench.checkout", root, 0, prev, began);
            tracer.record("core.unit", root, 0, began, done);
            l.checkout_wait_ms
                .push(began.saturating_duration_since(prev).as_secs_f64() * 1e3);
            l.units += 1;
            prev = done;
        }
        idle += end.saturating_duration_since(prev);
    }
    // Workers that never claimed a unit idled for the whole pass.
    let workers = THREADS.min(order.len());
    idle += (end - start) * (workers.saturating_sub(per_worker.len())) as u32;
    l.worker_idle_pct = 100.0 * idle.as_secs_f64() / ((end - start).as_secs_f64() * workers as f64);
}
