//! `serve`: a `wsrs-serve` process with 2 workers, an empty memo store and
//! a trace store recorded during set-up, driven by a closed loop of 2
//! clients submitting single-cell jobs over HTTP.

use std::io::{BufRead, BufReader, Read};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use wsrs_bench::client;
use wsrs_bench::manifest::{cell_record, load_baseline};
use wsrs_bench::{figure4_configs, workgen_configs, TraceCache, TraceSampleStore};
use wsrs_core::{run_sampled, SampleSpec};
use wsrs_telemetry::{CellRecord, Json, RunManifest, Tolerances};
use wsrs_trace::TraceStore;
use wsrs_workgen::presets::standard_family;
use wsrs_workloads::Workload;

use crate::grid::{predictor_pass, record_traces, same_result, scalar_cell, trace_key, PARAMS};
use crate::host::{self, timed, Sampler, SETUP_SENSITIVITY};
use crate::spans::{Ledger, Tracer};
use crate::{fresh_dir, geomean, median, ms, peak_rss_mb, print_latency, Args, Outcome, Rng};

/// Clients in the closed loop, and server workers: the host has 2 cores.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Jobs in a traced drive's loop: a fixed count, so its counts repeat.
const TRACED_JOBS: usize = ROUND;

/// One submitted cell.
#[derive(Clone, PartialEq)]
struct Cell {
    workload: Workload,
    config: &'static str,
    sampled: bool,
}

/// One job of the seeded sequence. A memo job repeats the cell of an
/// earlier fresh job (`memo_of`), which it waits for before submitting.
#[derive(Clone)]
struct Job {
    cell: Cell,
    memo_of: Option<usize>,
}

/// Registers the 18-scenario generated family (both adversarial presets
/// included) in this process; returns their workloads.
fn generated() -> Vec<Workload> {
    standard_family()
        .iter()
        .map(|s| wsrs_workgen::register(&s.profile, s.seed))
        .collect()
}

/// The traces the server needs: the 12 kernels and the generated family.
fn all_workloads() -> Vec<Workload> {
    let mut w = Workload::all().to_vec();
    w.extend(generated());
    w
}

/// Jobs per round of the sequence: one exact cell of each of the 30
/// workloads, sampled cells of half of them, and as many memo repeats.
const ROUND: usize = 60;

/// Draws the job sequence from `seed`, in rounds of [`ROUND`] jobs. In
/// every block of four jobs two submit a fresh exact cell, one a fresh
/// sampled cell and one repeats a cell completed at least three jobs
/// earlier (a memo hit). Fresh cells are drawn without replacement from
/// the 12 kernels × figure4 columns and the generated family × workgen
/// columns, so no job attaches to another's in-flight cell. Each round
/// covers every workload once exactly and every other round once sampled
/// (the seed picks the configurations and the order): cell costs differ
/// tenfold across workloads, and a round-balanced mix keeps a run's
/// figures from depending on which workloads the seed happened to draw.
/// The sequence ends when a column runs out of configurations: after three
/// rounds, as the generated family has three columns.
fn plan(seed: u64) -> Vec<Job> {
    let mut columns: Vec<(Workload, Vec<&'static str>)> = Vec::new();
    for w in Workload::all() {
        columns.push((w, figure4_configs().iter().map(|(n, _)| *n).collect()));
    }
    for w in generated() {
        columns.push((w, workgen_configs().iter().map(|(n, _)| *n).collect()));
    }
    let mut rng = Rng::new(seed);
    let mut draw_orders = || -> Vec<Vec<&'static str>> {
        columns
            .iter()
            .map(|(_, names)| {
                let mut names = names.clone();
                rng.shuffle(&mut names);
                names
            })
            .collect()
    };
    let (mut exact_left, mut sampled_left) = (draw_orders(), draw_orders());
    let mut halves: Vec<usize> = (0..columns.len()).collect();
    rng.shuffle(&mut halves);
    let (first, second) = halves.split_at(columns.len() / 2);

    let mut jobs: Vec<Job> = Vec::new();
    for round in 0.. {
        let cell = |i: usize, left: &mut Vec<Vec<&'static str>>, sampled| {
            Some(Cell {
                workload: columns[i].0,
                config: left[i].pop()?,
                sampled,
            })
        };
        let half = if round % 2 == 0 { first } else { second };
        let exact: Option<Vec<Cell>> = (0..columns.len())
            .map(|i| cell(i, &mut exact_left, false))
            .collect();
        let sampled: Option<Vec<Cell>> = half
            .iter()
            .map(|&i| cell(i, &mut sampled_left, true))
            .collect();
        let (Some(mut exact), Some(mut sampled)) = (exact, sampled) else {
            return jobs;
        };
        rng.shuffle(&mut exact);
        rng.shuffle(&mut sampled);
        for _ in 0..ROUND / 4 {
            let mut roles = ['e', 'e', 's', 'm'];
            rng.shuffle(&mut roles);
            if jobs.is_empty() {
                // The very first memo job needs three earlier jobs.
                roles.sort_by_key(|&r| r == 'm');
            }
            for role in roles {
                let i = jobs.len();
                let job = match role {
                    'm' => {
                        let mut of = rng.below(i - 2);
                        while let Some(o) = jobs[of].memo_of {
                            of = o;
                        }
                        Job {
                            cell: jobs[of].cell.clone(),
                            memo_of: Some(of),
                        }
                    }
                    's' => Job {
                        cell: sampled.pop().expect("a sampled cell per block"),
                        memo_of: None,
                    },
                    _ => Job {
                        cell: exact.pop().expect("two exact cells per block"),
                        memo_of: None,
                    },
                };
                jobs.push(job);
            }
        }
    }
    jobs
}

/// The submission body of a single-cell job at the gate window.
fn body(c: &Cell) -> String {
    let sample = if c.sampled {
        let s = SampleSpec::default();
        format!(
            ", \"sample\": {{\"intervals\": {}, \"interval_uops\": {}, \"detail_warmup\": {}}}",
            s.intervals, s.interval_uops, s.detail_warmup
        )
    } else {
        String::new()
    };
    format!(
        "{{\"warmup\": {}, \"measure\": {}, \"cells\": [{{\"workload\": \"{}\", \"config\": \"{}\"{sample}}}]}}",
        PARAMS.warmup,
        PARAMS.measure,
        c.workload.name(),
        c.config
    )
}

/// What the client saw of one job.
struct Done {
    latency_ms: f64,
    submit: (Instant, Instant),
    first_byte: Instant,
    end: Instant,
    id: u64,
    /// The streamed cell line, when the exchange succeeded.
    line: Result<String, String>,
}

/// Submits one job and reads its stream to the last line.
fn submit_and_stream(addr: &str, c: &Cell) -> Done {
    let t0 = Instant::now();
    let posted = client::post(addr, "/v1/jobs", &body(c));
    let submitted = Instant::now();
    let mut first_byte = None;
    let (id, line) = match posted {
        Ok(r) if r.status == 200 => {
            match Json::parse(&r.body_str())
                .ok()
                .and_then(|v| v.get("job").and_then(Json::as_u64))
            {
                Some(id) => (id, stream(addr, id, &mut first_byte)),
                None => (0, Err("submit: no job id in the response".into())),
            }
        }
        Ok(r) => (
            0,
            Err(format!("submit: HTTP {}: {}", r.status, r.body_str())),
        ),
        Err(e) => (0, Err(format!("submit: {e}"))),
    };
    Done {
        latency_ms: ms(t0),
        submit: (t0, submitted),
        first_byte: first_byte.unwrap_or(submitted),
        end: Instant::now(),
        id,
        line,
    }
}

/// Reads job `id`'s stream to its end; returns its one cell line and
/// stamps the arrival of the first byte.
fn stream(addr: &str, id: u64, first_byte: &mut Option<Instant>) -> Result<String, String> {
    let streamed = client::get_streaming(addr, &format!("/v1/jobs/{id}/stream"), &mut |_| {
        first_byte.get_or_insert_with(Instant::now);
    });
    match streamed {
        Ok(r) if r.status == 200 => {
            let text = r.body_str();
            let lines: Vec<&str> = text.lines().collect();
            let header = wsrs_serve::stream_header(PARAMS, 1);
            match lines.as_slice() {
                [h, cell] if *h == header => Ok((*cell).to_string()),
                _ => Err(format!("truncated or malformed stream: {text:?}")),
            }
        }
        Ok(r) => Err(format!("stream: HTTP {}", r.status)),
        Err(e) => Err(format!("stream: {e}")),
    }
}

/// Runs the closed loop over `jobs[range]`: `CLIENTS` threads take the
/// next job of the range until none is left. A memo job waits for the job
/// whose cell it repeats, which may belong to an earlier range. Returns
/// `done` with the range's results filled in, by sequence index.
fn closed_loop(
    addr: &str,
    jobs: &[Job],
    range: Range<usize>,
    done: Vec<Option<Done>>,
) -> Vec<Option<Done>> {
    struct Shared {
        next: usize,
        done: Vec<Option<Done>>,
    }
    let shared = Mutex::new(Shared {
        next: range.start,
        done,
    });
    let finished = Condvar::new();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = {
                    let mut g = shared.lock().expect("loop state poisoned");
                    if g.next >= range.end {
                        return;
                    }
                    g.next += 1;
                    let i = g.next - 1;
                    if let Some(of) = jobs[i].memo_of {
                        while g.done[of].is_none() {
                            g = finished.wait(g).expect("loop state poisoned");
                        }
                    }
                    i
                };
                let d = submit_and_stream(addr, &jobs[i].cell);
                shared.lock().expect("loop state poisoned").done[i] = Some(d);
                finished.notify_all();
            });
        }
    });
    shared.into_inner().expect("loop state poisoned").done
}

/// Checks every finished job: the stream carries the submitted cell,
/// exact kernel cells match the committed figure4 baseline (bit-identical
/// IPC, then the gate's own comparison over all of them), and a memo
/// replay is byte-identical to the line first streamed for its cell.
/// Returns the parsed records by sequence index.
fn check_jobs(
    o: &mut Outcome,
    jobs: &[Job],
    done: &[Option<Done>],
    baseline: &RunManifest,
) -> Vec<Option<CellRecord>> {
    let mut whys: Vec<Option<String>> = Vec::new();
    let mut records = Vec::new();
    let mut fresh = Vec::new();
    for (i, d) in done.iter().enumerate() {
        let Some(d) = d else {
            records.push(None);
            whys.push(None);
            continue;
        };
        let c = &jobs[i].cell;
        let label = format!("job {i} {}/{}", c.workload, c.config);
        let record = d
            .line
            .as_ref()
            .ok()
            .and_then(|l| Json::parse(l).ok())
            .and_then(|v| CellRecord::from_json(&v));
        let why = match (&d.line, &record) {
            (Err(e), _) => Some(format!("{label}: {e}")),
            (Ok(l), None) => Some(format!("{label}: unparsable line {l}")),
            (Ok(line), Some(r)) => {
                if (r.workload.as_str(), r.config.as_str()) != (c.workload.name(), c.config)
                    || r.sampled.is_some() != c.sampled
                {
                    Some(format!("{label}: stream carries another cell: {line}"))
                } else if let Some(of) = jobs[i].memo_of {
                    match done[of].as_ref().map(|f| &f.line) {
                        Some(Ok(first)) if first == line => None,
                        _ => Some(format!("{label}: memo replay differs from job {of}'s line")),
                    }
                } else if c.sampled || c.workload.name().starts_with("gen:") {
                    None
                } else {
                    match baseline.cell(&r.workload, &r.config) {
                        Some(b) if b.ipc.to_bits() == r.ipc.to_bits() => {
                            fresh.push(r.clone());
                            None
                        }
                        Some(b) => Some(format!(
                            "{label}: IPC {} differs from baseline {}",
                            r.ipc, b.ipc
                        )),
                        None => Some(format!("{label}: not in the baseline")),
                    }
                }
            }
        };
        records.push(record);
        whys.push(why);
    }
    // The gate's comparison over every exact kernel cell streamed.
    let mut base = baseline.clone();
    base.cells
        .retain(|b| fresh.iter().any(|f| f.key() == b.key()));
    base.traces.clear();
    let fresh_manifest = RunManifest {
        cells: fresh,
        traces: Vec::new(),
        trace_cache: None,
        ..baseline.clone()
    };
    for f in base
        .compare(&fresh_manifest, &Tolerances::default())
        .failures
    {
        for (i, why) in whys.iter_mut().enumerate() {
            let c = &jobs[i].cell;
            if why.is_none()
                && done[i].is_some()
                && f.starts_with(&format!("{}/{}:", c.workload, c.config))
            {
                *why = Some(f.clone());
            }
        }
    }
    for (d, why) in done.iter().zip(whys) {
        if d.is_some() {
            o.check(why);
        }
    }
    records
}

/// A running `wsrs-serve` child and its address.
struct ServerProc {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl ServerProc {
    /// Starts the daemon on an ephemeral port and waits until
    /// `/v1/stats` answers.
    fn start(bin: &Path, traces: &Path, memo: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()])
            .arg("--memo-dir")
            .arg(memo)
            .arg("--trace-dir")
            .arg(traces)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut err = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut first = String::new();
        let _ = err.read_line(&mut first);
        let addr = first
            .split("listening on ")
            .nth(1)
            .and_then(|r| r.split_whitespace().next())
            .map(str::to_string);
        // Keep draining the daemon's stderr so it never blocks on a full
        // pipe; forward it for diagnosis.
        let drain = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = err.read_to_string(&mut rest);
            for line in rest.lines().filter(|l| !l.contains("graceful shutdown")) {
                eprintln!("[wsrs-serve] {line}");
            }
        });
        let mut server = ServerProc {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        let Some(addr) = addr else {
            server.stop();
            return Err(format!("wsrs-serve did not report its address: {first:?}"));
        };
        server.addr = addr;
        let t0 = Instant::now();
        while !matches!(client::get(&server.addr, "/v1/stats"), Ok(r) if r.status == 200) {
            if t0.elapsed() > Duration::from_secs(30) {
                server.stop();
                return Err("wsrs-serve did not answer /v1/stats within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(server)
    }

    fn stats(&self) -> Option<Json> {
        let r = client::get(&self.addr, "/v1/stats").ok()?;
        Json::parse(&r.body_str()).ok()
    }

    /// Asks for a graceful shutdown and waits for the process to end
    /// (killing it after 20 s); returns its peak resident set in MB.
    fn stop(&mut self) -> Option<f64> {
        let rss = peak_rss_mb(Some(self.child.id()));
        let _ = client::post(&self.addr, "/v1/control/shutdown", "");
        let t0 = Instant::now();
        while matches!(self.child.try_wait(), Ok(None)) {
            if t0.elapsed() > Duration::from_secs(20) {
                let _ = self.child.kill();
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        rss
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One set-up: record every trace into an empty store, then start the
/// server on it with an empty memo store. Returns the server and the
/// trace directory.
fn set_up(args: &Args, rep: usize, o: &mut Outcome) -> Result<(ServerProc, PathBuf), String> {
    let traces = fresh_dir(&args.work, &format!("serve-traces-{rep}"));
    let memo = fresh_dir(&args.work, &format!("serve-memo-{rep}"));
    record_traces(&traces, &all_workloads(), o);
    let server = ServerProc::start(&args.serve_bin, &traces, &memo)?;
    Ok((server, traces))
}

fn stat(v: &Option<Json>, path: &[&str]) -> u64 {
    let mut cur = v.as_ref();
    for k in path {
        cur = cur.and_then(|j| j.get(k));
    }
    cur.and_then(Json::as_u64).unwrap_or(0)
}

/// The untraced run.
pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let Some(baseline) = load_baseline("figure4") else {
        o.problems
            .push("committed BENCH_figure4.json is missing or malformed".into());
        return o;
    };
    let (sampler, sensitivity) = (Sampler::start(), host::sensitivity(&args.workload));
    let (mut setup, mut setup_wall) = (Vec::new(), Vec::new());
    let mut started = None;
    for rep in 0..SETUP_REPS {
        if let Some((mut s, _)) = started.take() {
            ServerProc::stop(&mut s);
        }
        match timed(&sampler, SETUP_SENSITIVITY, || set_up(args, rep, &mut o)) {
            (Ok((s, traces)), took, norm) => {
                setup_wall.push(took);
                setup.push(norm);
                started = Some((s, traces));
            }
            (Err(e), _, _) => {
                o.problems.push(e);
                return o;
            }
        }
    }
    let (mut server, traces) = started.expect("at least one set-up");

    // The sequence holds a few rounds of fresh cells. When a run outlasts
    // it, the loop goes on with a new sequence on a new server whose memo
    // store is empty (same trace store), so fresh cells stay fresh. The
    // restart is not timed. Each round is a timed unit of its own; a round
    // starts only if it should end within half a round of `--seconds`.
    let mut draws = Rng::new(args.seed);
    let (mut busy, mut normalized, mut rounds, mut servers) = (0.0, 0.0, 0usize, 1usize);
    let (mut exact, mut sampled, mut memo, mut peaks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut units_run, mut round_wall, mut factors) = (0, Vec::new(), Vec::new());
    let (mut completed, mut raw_exact) = (0usize, Vec::new());
    'run: loop {
        let jobs = plan(draws.next_u64());
        let mut done: Vec<Option<Done>> = (0..jobs.len()).map(|_| None).collect();
        let mut stopped = false;
        for start in (0..jobs.len()).step_by(ROUND) {
            if rounds > 0 && busy + busy / rounds as f64 / 2.0 > args.seconds {
                stopped = true;
                break;
            }
            let range = start..(start + ROUND).min(jobs.len());
            let (d, wall, norm) = timed(&sampler, sensitivity, || {
                closed_loop(&server.addr, &jobs, range.clone(), done)
            });
            done = d;
            let f = norm / wall;
            busy += wall;
            normalized += norm;
            rounds += 1;
            round_wall.push(wall);
            factors.push(f);
            for i in range {
                let Some(d) = &done[i] else { continue };
                completed += 1;
                match (jobs[i].memo_of, jobs[i].cell.sampled) {
                    (Some(_), _) => memo.push(d.latency_ms * f),
                    (None, true) => sampled.push(d.latency_ms * f),
                    (None, false) => {
                        raw_exact.push(d.latency_ms);
                        exact.push(d.latency_ms * f);
                    }
                }
            }
        }
        let stats = server.stats();
        check_jobs(&mut o, &jobs, &done, &baseline);
        units_run += stat(&stats, &["units_run"]);
        let memo_jobs = jobs
            .iter()
            .zip(&done)
            .filter(|(j, d)| j.memo_of.is_some() && d.is_some())
            .count() as u64;
        if stat(&stats, &["memo", "hits"]) != memo_jobs {
            o.problems.push(format!(
                "{memo_jobs} memo job(s) but {} memo hit(s)",
                stat(&stats, &["memo", "hits"])
            ));
        }
        if stopped {
            break 'run;
        }
        peaks.extend(server.stop());
        let memo_dir = fresh_dir(&args.work, &format!("serve-memo-next-{servers}"));
        server = match ServerProc::start(&args.serve_bin, &traces, &memo_dir) {
            Ok(s) => s,
            Err(e) => {
                o.problems.push(e);
                return o;
            }
        };
        servers += 1;
    }
    peaks.extend(server.stop());

    eprintln!(
        "serve: {completed} jobs in {busy:.2} s ({rounds} rounds, {servers} server(s)), \
         {CLIENTS} clients, {WORKERS} workers; units run {units_run}, memo hits {}",
        memo.len()
    );
    eprintln!(
        "  wall clock: {:.3} jobs/s, exact job geomean {:.1} ms, set-up p50 {:.3} s",
        completed as f64 / busy,
        geomean(&raw_exact),
        median(&setup_wall)
    );
    eprintln!(
        "  host kernel: p50 {:.1} µs (n = {}); speed factor per round {factors:.3?}",
        median(&sampler.all_us()),
        sampler.all_us().len()
    );
    print_latency("exact job", &exact);
    print_latency("sampled job", &sampled);
    print_latency("memo job", &memo);
    eprintln!("  set-up runs (s): {setup:.3?}");
    eprintln!("  round wall times (s): {round_wall:.2?}");
    o.metric("jobs_per_s", completed as f64 / normalized, "1/s");
    o.metric("exact_cell_ms", geomean(&exact), "ms");
    o.metric("setup_s", median(&setup), "s");
    o.metric(
        "peak_rss_mb",
        peaks.iter().copied().fold(0.0, f64::max),
        "MB",
    );
    o
}

/// The traced run: a fixed-length loop with spans around every HTTP
/// exchange, then the same cells replayed through the layers' public
/// functions under each job's request id.
pub fn traced(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let Some(baseline) = load_baseline("figure4") else {
        o.problems
            .push("committed BENCH_figure4.json is missing or malformed".into());
        return o;
    };
    let t_all = Instant::now();
    let tracer = Tracer::new();
    let mut l = Ledger::default();

    // Set-up, layer by layer.
    let traces = fresh_dir(&args.work, "serve-traces");
    let memo = fresh_dir(&args.work, "serve-memo");
    let store = TraceStore::at(&traces);
    let started = tracer.time("bench.setup", 0, 0, |root| {
        for s in standard_family() {
            let p = s.profile.sanitized();
            tracer.time("workgen.synth", root, 0, |_| {
                std::hint::black_box(wsrs_workgen::generate(&p, s.seed, i64::MAX / 2))
            });
        }
        for w in all_workloads() {
            let window = (PARAMS.warmup + PARAMS.measure) as usize;
            let trace = tracer.time("isa.emulate", root, 0, |_| {
                let mut buf = Vec::with_capacity(window);
                buf.extend(w.trace().take(window));
                buf
            });
            if let Err(e) =
                tracer.time("trace.save", root, 0, |_| store.save(&trace_key(w), &trace))
            {
                o.problems.push(format!("{w}: trace save failed: {e}"));
            }
        }
        tracer.time("serve.start", root, 0, |_| {
            ServerProc::start(&args.serve_bin, &traces, &memo)
        })
    });
    let mut server = match started {
        Ok(s) => s,
        Err(e) => {
            o.problems.push(e);
            return o;
        }
    };

    let jobs: Vec<Job> = plan(args.seed).into_iter().take(TRACED_JOBS).collect();
    let done = closed_loop(
        &server.addr,
        &jobs,
        0..jobs.len(),
        (0..jobs.len()).map(|_| None).collect(),
    );
    for (i, d) in done.iter().enumerate() {
        let Some(d) = d else { continue };
        let req = i as u64 + 1;
        let root = tracer.reserve();
        tracer.record("serve.submit", root, req, d.submit.0, d.submit.1);
        tracer.record("serve.ttfb", root, req, d.submit.1, d.first_byte);
        tracer.record("serve.stream", root, req, d.first_byte, d.end);
        tracer.record_as(root, "serve.job", 0, req, d.submit.0, d.end);
        if let Ok(r) = client::get(&server.addr, &format!("/v1/jobs/{}", d.id)) {
            if let Ok(v) = Json::parse(&r.body_str()) {
                l.attached += v.get("attached").and_then(Json::as_u64).unwrap_or(0);
            }
        }
        match (jobs[i].memo_of, jobs[i].cell.sampled) {
            (Some(_), _) => l.memo_job_ms.push(d.latency_ms),
            (None, true) => l.sampled_job_ms.push(d.latency_ms),
            _ => {}
        }
    }
    let stats = server.stats();
    server.stop();
    l.memo_hits = stat(&stats, &["memo", "hits"]);
    l.memo_misses = stat(&stats, &["memo", "misses"]);
    l.memo_writes = stat(&stats, &["memo", "writes"]);
    l.units_run = stat(&stats, &["units_run"]);
    let records = check_jobs(&mut o, &jobs, &done, &baseline);

    // Library-level replay of every fresh job's cell, serially, with
    // sampled checkpoints in a store of their own.
    let ckpt = TraceStore::at(fresh_dir(&args.work, "replay-checkpoints"));
    let registry = wsrs_bench::config_registry();
    for (i, job) in jobs.iter().enumerate() {
        let (Some(record), None) = (&records[i], job.memo_of) else {
            continue;
        };
        let req = i as u64 + 1;
        let c = &job.cell;
        let Some(&(_, cfg)) = registry.iter().find(|(n, _)| n == c.config) else {
            o.problems
                .push(format!("{}: not in the config registry", c.config));
            continue;
        };
        tracer.time("bench.replay", 0, req, |root| {
            let cache = TraceCache::new(PARAMS).with_store(Some(store.clone()));
            let t0 = Instant::now();
            drop(cache.checkout(c.workload));
            tracer.record("bench.checkout", root, req, t0, Instant::now());
            l.checkout_wait_ms.push(ms(t0));
            l.units += 1;
            let loaded = match tracer.time("trace.load", root, req, |_| {
                store.load(&trace_key(c.workload))
            }) {
                Ok(t) => t,
                Err(e) => {
                    o.problems
                        .push(format!("{}: trace load failed: {e}", c.workload));
                    return;
                }
            };
            l.trace_loads += 1;
            l.trace_bytes += loaded.bytes;
            l.trace_uops += loaded.uops.len() as u64;
            let trace = loaded.uops;
            l.mispredicts += tracer.time("frontend.predict", root, req, |_| {
                predictor_pass(cfg.predictor, &trace)
            });
            if c.sampled {
                let spec = SampleSpec::default();
                let t0 = Instant::now();
                let store = TraceSampleStore::new(&ckpt, loaded.checksum, &cfg, &spec);
                let sr = run_sampled(&cfg, &trace, PARAMS.warmup, PARAMS.measure, &spec, &store);
                tracer.record("core.sample", root, req, t0, Instant::now());
                l.sample_ff_uops += sr.ff_uops;
                l.sample_detailed_uops += sr.uops_detailed;
                l.ckpt_loaded += u64::from(sr.checkpoints_loaded);
                l.ckpt_saved += u64::from(sr.checkpoints_saved);
                if record.sampled.map(|s| s.ipc_estimate.to_bits())
                    != Some(sr.ipc_estimate.to_bits())
                {
                    o.problems.push(format!(
                        "job {i}: replayed sampled estimate differs from the stream"
                    ));
                }
                return;
            }
            let t0 = Instant::now();
            let (r, on_ms) = scalar_cell(&cfg, &trace);
            tracer.record("core.scalar", root, req, t0, Instant::now());
            let mut off = cfg;
            off.telemetry = false;
            let t0 = Instant::now();
            let (r_off, off_ms) = scalar_cell(&off, &trace);
            tracer.record("core.scalar_off", root, req, t0, Instant::now());
            l.telemetry_on_ms += on_ms;
            l.telemetry_off_ms += off_ms;
            l.scalar_cells
                .push((on_ms * 1e6, trace.len() as u64, r.cycles));
            l.add_report(&r);
            let replayed = cell_record(c.workload, c.config, &cfg, &r, false, None);
            if !same_result(&r, &r_off) || replayed.ipc.to_bits() != record.ipc.to_bits() {
                o.problems.push(format!(
                    "job {i}: library replay differs from the streamed cell"
                ));
            }
        });
    }

    let wall_ms = ms(t_all);
    crate::spans::emit(&tracer, &l, wall_ms, &mut o);
    tracer.write_jsonl(
        &args
            .out
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed)),
    );
    o
}
