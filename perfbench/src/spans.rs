//! In-memory spans for the traced run, and the per-layer ledger built
//! from them.
//!
//! Spans are recorded only by the benchmark's own calls into each layer's
//! public functions; the program under test carries no tracing. A span
//! has a name (`<layer>.<what>`), a parent (0 for a root), a request id
//! (one per service job, 0 elsewhere) and start/end times. A layer's self
//! time is its spans' time minus the part their child spans cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::{median, Outcome};

/// One recorded interval.
#[derive(Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    /// Milliseconds since the tracer was created.
    pub start: f64,
    pub end: f64,
}

impl Span {
    fn ms(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder, shared across threads.
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A span id for a span whose children are recorded before it ends.
    pub fn reserve(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished interval under a reserved `id`.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e3;
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            request,
            name,
            start: at(start),
            end: at(end),
        });
    }

    /// Records a finished interval; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, request, start, end);
        id
    }

    /// Runs `f` inside a span; `f` receives the span id to parent its
    /// children on.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        self.record_as(id, name, parent, request, start, Instant::now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) {
        let mut text = String::new();
        for s in self.spans() {
            text.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ms\":{:.3},\"end_ms\":{:.3}}}\n",
                s.id, s.parent, s.request, s.name, s.start, s.end
            ));
        }
        match std::fs::write(path, text) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }

    /// Self time (ms) per layer: each span's duration minus the union of
    /// its children's intervals, summed by the name's layer prefix.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let mut covered = 0.0;
            if let Some(c) = children.get_mut(&s.id) {
                c.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut run: Option<(f64, f64)> = None;
                for &(a, b) in c.iter() {
                    let (a, b) = (a.max(s.start), b.min(s.end));
                    if b <= a {
                        continue;
                    }
                    run = match run {
                        Some((lo, hi)) if a <= hi => Some((lo, hi.max(b))),
                        Some((lo, hi)) => {
                            covered += hi - lo;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((lo, hi)) = run {
                    covered += hi - lo;
                }
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += (s.ms() - covered).max(0.0);
        }
        out
    }

    /// Milliseconds it takes to record `n` spans — the cost tracing adds.
    pub fn recording_cost_ms(n: usize) -> f64 {
        let scratch = Tracer::new();
        let t0 = Instant::now();
        for _ in 0..n {
            scratch.time("probe", 0, 0, |_| ());
        }
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Per-layer counts the traced drive accumulates next to its spans.
#[derive(Default)]
pub struct Ledger {
    pub trace_bytes: u64,
    pub trace_uops: u64,
    pub trace_loads: u64,
    pub mispredicts: u64,
    pub cycles: u64,
    pub uops: u64,
    /// Per scalar cell: (host ns, µops simulated, cycles simulated).
    pub scalar_cells: Vec<(f64, u64, u64)>,
    /// Per lockstep unit: (unit ms, lanes, summed scalar ms of its cells).
    pub lockstep_units: Vec<(f64, usize, f64)>,
    /// Summed scalar ms with telemetry on and off, over the same cells.
    pub telemetry_on_ms: f64,
    pub telemetry_off_ms: f64,
    pub sample_ff_uops: u64,
    pub sample_detailed_uops: u64,
    pub ckpt_loaded: u64,
    pub ckpt_saved: u64,
    pub l1_misses: u64,
    pub l2_misses: u64,
    pub alloc_refusals: u64,
    pub checkout_wait_ms: Vec<f64>,
    pub worker_idle_pct: f64,
    pub units: u64,
    pub sampled_job_ms: Vec<f64>,
    pub memo_job_ms: Vec<f64>,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub memo_writes: u64,
    pub units_run: u64,
    pub attached: u64,
}

impl Ledger {
    /// Adds one exact report's modelled-hardware counts.
    pub fn add_report(&mut self, r: &wsrs_core::Report) {
        self.cycles += r.cycles;
        self.uops += r.uops;
        self.l1_misses += r.memory.l1.misses;
        self.l2_misses += r.memory.l2.misses;
        self.alloc_refusals += r.rename.alloc_refusals;
    }
}

/// The per-layer metrics whose values must repeat bit-for-bit between
/// the two drives of a traced run.
pub const EXACT_COUNTS: &[&str] = &[
    "trace.bytes_per_uop",
    "trace.loads",
    "frontend.mispredicts",
    "core.cycles",
    "core.uops",
    "core.sample_ff_uops",
    "core.sample_detailed_uops",
    "core.ckpt_loaded",
    "core.ckpt_saved",
    "mem.l1_misses",
    "mem.l2_misses",
    "regfile.alloc_refusals",
    "bench.units",
    "serve.memo_hits",
    "serve.memo_misses",
    "serve.memo_writes",
    "serve.units_run",
    "serve.attached",
];

/// Pushes every per-layer metric onto `o` (a layer off this workload's
/// path reads 0 with 0 calls), printing each timing's call count and the
/// layer self-time shares to stderr. `wall_ms` is the traced run's wall
/// time.
pub fn emit(t: &Tracer, l: &Ledger, wall_ms: f64, o: &mut Outcome) {
    eprintln!("per-layer (median over traced calls):");
    let timed = |o: &mut Outcome, name: &'static str, samples: Vec<f64>| {
        eprintln!(
            "  {name:<26} {:>10.3} ms  (n = {})",
            median(&samples),
            samples.len()
        );
        o.metric(name, median(&samples), "ms");
    };
    timed(o, "isa.emulate_ms", t.durations("isa.emulate"));
    timed(o, "workgen.synth_ms", t.durations("workgen.synth"));
    timed(o, "trace.save_ms", t.durations("trace.save"));
    timed(o, "trace.load_ms", t.durations("trace.load"));
    o.metric(
        "trace.bytes_per_uop",
        l.trace_bytes as f64 / l.trace_uops.max(1) as f64,
        "B/uop",
    );
    o.metric("trace.loads", l.trace_loads as f64, "count");
    timed(o, "frontend.predict_ms", t.durations("frontend.predict"));
    o.metric("frontend.mispredicts", l.mispredicts as f64, "count");
    timed(o, "core.scalar_ms", t.durations("core.scalar"));
    let per = |f: &dyn Fn(&(f64, u64, u64)) -> f64| -> Vec<f64> {
        l.scalar_cells.iter().map(f).collect()
    };
    o.metric(
        "core.ns_per_uop",
        median(&per(&|c| c.0 / c.1.max(1) as f64)),
        "ns",
    );
    o.metric(
        "core.ns_per_cycle",
        median(&per(&|c| c.0 / c.2.max(1) as f64)),
        "ns",
    );
    o.metric("core.cycles", l.cycles as f64, "count");
    o.metric("core.uops", l.uops as f64, "count");
    timed(
        o,
        "core.lane_ms",
        l.lockstep_units.iter().map(|u| u.0 / u.1 as f64).collect(),
    );
    let (lock, scalar) = l
        .lockstep_units
        .iter()
        .fold((0.0, 0.0), |(a, b), u| (a + u.0, b + u.2));
    o.metric(
        "core.lockstep_gain_pct",
        if scalar > 0.0 {
            100.0 * (scalar - lock) / scalar
        } else {
            0.0
        },
        "%",
    );
    timed(o, "core.sample_ms", t.durations("core.sample"));
    o.metric("core.sample_ff_uops", l.sample_ff_uops as f64, "count");
    o.metric(
        "core.sample_detailed_uops",
        l.sample_detailed_uops as f64,
        "count",
    );
    o.metric("core.ckpt_loaded", l.ckpt_loaded as f64, "count");
    o.metric("core.ckpt_saved", l.ckpt_saved as f64, "count");
    o.metric(
        "telemetry.overhead_pct",
        if l.telemetry_off_ms > 0.0 {
            100.0 * (l.telemetry_on_ms - l.telemetry_off_ms) / l.telemetry_off_ms
        } else {
            0.0
        },
        "%",
    );
    o.metric("mem.l1_misses", l.l1_misses as f64, "count");
    o.metric("mem.l2_misses", l.l2_misses as f64, "count");
    o.metric("regfile.alloc_refusals", l.alloc_refusals as f64, "count");
    timed(o, "bench.checkout_wait_ms", l.checkout_wait_ms.clone());
    o.metric("bench.worker_idle_pct", l.worker_idle_pct, "%");
    o.metric("bench.units", l.units as f64, "count");
    timed(o, "serve.submit_ms", t.durations("serve.submit"));
    timed(o, "serve.stream_ttfb_ms", t.durations("serve.ttfb"));
    timed(o, "serve.sampled_p50_ms", l.sampled_job_ms.clone());
    timed(o, "serve.memo_p50_ms", l.memo_job_ms.clone());
    o.metric("serve.memo_hits", l.memo_hits as f64, "count");
    o.metric("serve.memo_misses", l.memo_misses as f64, "count");
    o.metric("serve.memo_writes", l.memo_writes as f64, "count");
    o.metric("serve.units_run", l.units_run as f64, "count");
    o.metric("serve.attached", l.attached as f64, "count");

    let n_spans = t.spans().len();
    let overhead = Tracer::recording_cost_ms(n_spans);
    o.metric("tracing.overhead_pct", 100.0 * overhead / wall_ms, "%");

    // Spans of concurrent workers and clients overlap, so shares are of
    // the summed self time rather than of the wall.
    let layers = t.self_time_by_layer();
    let total: f64 = layers.values().sum();
    eprintln!("layer self time ({total:.0} ms in spans, {wall_ms:.0} ms wall):");
    for (layer, ms) in layers {
        eprintln!("  {layer:<10} {ms:>10.1} ms  {:>5.1} %", 100.0 * ms / total);
    }
    for m in &o.metrics {
        if m.unit != "ms" {
            eprintln!("  {:<26} {:>14.3} {}", m.name, m.value, m.unit);
        }
    }
}
