//! The job server: submission, dedup, worker pool, result streams.
//!
//! # Job lifecycle
//!
//! `POST /v1/jobs` parses a submission into
//! [`CellJob`](wsrs_bench::CellJob)s and resolves each cell, in order, to
//! one of three states under the in-flight lock:
//!
//! 1. **attached** — an identical cell (same configuration content hash,
//!    workload, window) is already being simulated for another job; this
//!    job subscribes to that cell's slot instead of simulating again;
//! 2. **memoized** — the content-addressed memo store already holds the
//!    finished line for (config hash, trace checksum, sim revision);
//! 3. **planned** — a fresh slot is registered and the cell joins the
//!    job's simulation queue.
//!
//! Planned cells are planned into a [`CellQueue`] (lockstep batches for
//! compatible siblings, scalar fallback — the *same* planner and claim
//! discipline the bench binaries use) and pushed onto the server's run
//! list, where the worker pool claims units until drained. A finished
//! cell becomes a JSON line, is flushed to the memo store, fills its
//! slot, and leaves the in-flight map — later identical submissions hit
//! the memo store directly.
//!
//! `GET /v1/jobs/<id>/stream` replays the job's cells **in submission
//! order**, waiting for each slot as needed, as chunked JSON lines.
//! Lines carry only deterministic content (the cell record plus its memo
//! key provenance) — origin counters (memoized / attached / simulated)
//! live in the job status and `/v1/stats` — so every stream of the same
//! grid is byte-identical regardless of concurrency or store warmth.

use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use wsrs_bench::manifest::cell_record;
use wsrs_bench::{
    config_registry, trace_key, CellQueue, CellResult, RunEnv, RunParams, TraceCache, WorkUnit,
};
use wsrs_core::SimConfig;
use wsrs_telemetry::Json;
use wsrs_trace::{StoreKey, TraceStore};
use wsrs_workloads::Workload;

use crate::http::{read_request, respond, respond_error, ChunkedWriter, Request};
use crate::memo::{MemoKey, MemoStore};
use crate::proto::{parse_submission, stream_header, JobSpec};

/// How often blocked loops (the accept waker, slot waits, idle workers)
/// re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// Time from accept by which the whole request, head and body, must have
/// arrived: a client that stalls or trickles bytes cannot hold a
/// connection thread (and with it the shutdown drain) for longer.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// Longest wait for each write of a response or stream chunk to a client
/// that has stopped reading.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Process-global termination request, set by the SIGTERM/SIGINT handler
/// installed with [`install_signal_handlers`].
static TERMINATED: AtomicBool = AtomicBool::new(false);

/// Installs SIGTERM and SIGINT handlers that request a graceful shutdown
/// of every [`Server::run`] loop in the process (finish claimed cells,
/// flush the memo store, exit 0).
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_signum: i32) {
            TERMINATED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

/// Server construction knobs.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Worker threads simulating claimed units (at least 1).
    pub workers: usize,
    /// Start with the worker pool paused (units queue up but are not
    /// claimed until `POST /v1/control/resume`) — deterministic windows
    /// for dedup tests.
    pub paused: bool,
    /// Memo-store directory (content-addressed cell results).
    pub memo_dir: PathBuf,
    /// Trace-store directory (recorded µop traces).
    pub trace_dir: PathBuf,
}

impl ServerOptions {
    /// Production defaults from the run environment: one worker per
    /// [`RunEnv::threads`] slot, the environment's trace store, and the
    /// memo store under `artifacts/` next to the manifests.
    #[must_use]
    pub fn new(env: &RunEnv) -> ServerOptions {
        ServerOptions {
            workers: env.threads,
            paused: false,
            memo_dir: wsrs_bench::manifest::artifacts_dir().join("memo"),
            trace_dir: env.store.dir().to_path_buf(),
        }
    }
}

/// One cell's future result, shared between the owning job, any attached
/// jobs, and the worker that fills it.
struct Slot {
    line: Mutex<Option<String>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            line: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// The finished line, if available.
    fn peek(&self) -> Option<String> {
        self.line.lock().unwrap().clone()
    }

    /// Blocks until the slot fills or `give_up` returns true.
    fn wait(&self, give_up: &dyn Fn() -> bool) -> Option<String> {
        let mut guard = self.line.lock().unwrap();
        loop {
            if let Some(line) = guard.as_ref() {
                return Some(line.clone());
            }
            if give_up() {
                return None;
            }
            guard = self.ready.wait_timeout(guard, POLL).unwrap().0;
        }
    }
}

/// How one submitted cell resolves to its result bytes.
enum CellState {
    /// Replayed from the memo store at submission time.
    Memoized(String),
    /// Simulated for this job, or attached to another job's in-flight
    /// simulation — either way, the line arrives through the slot.
    Pending(Arc<Slot>),
}

impl CellState {
    fn line_now(&self) -> Option<String> {
        match self {
            CellState::Memoized(line) => Some(line.clone()),
            CellState::Pending(slot) => slot.peek(),
        }
    }
}

/// One submitted job. Immutable after submission: origin counts are
/// fixed by the resolution pass, results flow through the slots.
struct Job {
    params: RunParams,
    states: Vec<CellState>,
    /// Cells resolved from the memo store at submission.
    memoized: usize,
    /// Cells attached to another job's in-flight simulation.
    attached: usize,
    /// Cells this job simulates itself.
    simulated: usize,
}

/// A job's planned simulation work: the shared queue/cache pair workers
/// claim from, plus the slots its results fill (indexed like
/// `queue.cells()`).
struct JobRun {
    queue: CellQueue,
    cache: TraceCache,
    slots: Vec<Arc<Slot>>,
}

/// The in-flight dedup identity of a cell: everything that determines
/// its result and is computable *before* simulation. (The persistent
/// memo key swaps the window for the trace file's content checksum —
/// equivalent, because the trace is a deterministic function of the
/// workload, window and trace revision.)
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct DedupKey {
    config: u64,
    workload: Workload,
    warmup: u64,
    measure: u64,
    /// Sampling-spec hash, `0` for an exact cell — a sampled and an
    /// exact run of the same cell are different results.
    spec: u64,
}

impl DedupKey {
    fn of(cell: &wsrs_bench::CellJob) -> DedupKey {
        DedupKey {
            config: cell.config.content_hash(),
            workload: cell.workload,
            warmup: cell.params.warmup,
            measure: cell.params.measure,
            spec: cell.sample.map_or(0, |s| s.content_hash()),
        }
    }
}

struct ServerState {
    registry: Vec<(String, SimConfig)>,
    memo: MemoStore,
    store: TraceStore,
    sim_rev: u64,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    next_job: AtomicU64,
    /// In-flight cells: filled and removed when their line lands in the
    /// memo store, so the store is authoritative from then on.
    inflight: Mutex<HashMap<DedupKey, Arc<Slot>>>,
    /// Active simulation runs workers claim units from.
    runs: Mutex<Vec<Arc<JobRun>>>,
    work: Condvar,
    paused: AtomicBool,
    shutdown: AtomicBool,
    /// Known trace-file checksums by store key (memo lookups need them
    /// before simulating; each file is hashed at most once).
    trace_checksums: Mutex<HashMap<(Workload, u64, u64), u64>>,
    /// Units executed by the worker pool (scalar cells and whole
    /// lockstep batches both count one).
    units_run: AtomicU64,
}

impl ServerState {
    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || TERMINATED.load(Ordering::SeqCst)
    }

    /// The content checksum of the stored trace for (workload, window),
    /// if a trace whose header matches that key has been recorded;
    /// hashed once and cached.
    fn trace_checksum(&self, w: Workload, params: RunParams) -> Option<u64> {
        let key = (w, params.warmup, params.measure);
        if let Some(&c) = self.trace_checksums.lock().unwrap().get(&key) {
            return Some(c);
        }
        let checksum = self.store.open(&trace_key(w, params)).ok()?.checksum();
        self.trace_checksums.lock().unwrap().insert(key, checksum);
        Some(checksum)
    }

    /// Resolves a parsed submission into a registered job; returns its
    /// id.
    fn submit(self: &Arc<Self>, spec: JobSpec) -> u64 {
        let mut states = Vec::with_capacity(spec.cells.len());
        let (mut memoized, mut attached, mut simulated) = (0, 0, 0);
        let mut to_sim = Vec::new();
        let mut sim_slots = Vec::new();
        {
            let mut inflight = self.inflight.lock().unwrap();
            for cell in &spec.cells {
                let key = DedupKey::of(cell);
                if let Some(slot) = inflight.get(&key) {
                    attached += 1;
                    states.push(CellState::Pending(slot.clone()));
                    continue;
                }
                if let Some(trace) = self.trace_checksum(cell.workload, cell.params) {
                    let memo_key = MemoKey {
                        config: key.config,
                        trace,
                        sim: self.sim_rev,
                        spec: key.spec,
                    };
                    if let Some(line) = self.memo.load(memo_key) {
                        memoized += 1;
                        states.push(CellState::Memoized(line));
                        continue;
                    }
                }
                let slot = Arc::new(Slot::new());
                inflight.insert(key, slot.clone());
                simulated += 1;
                to_sim.push(cell.clone());
                sim_slots.push(slot.clone());
                states.push(CellState::Pending(slot));
            }
        }

        if !to_sim.is_empty() {
            let queue = CellQueue::plan(to_sim);
            let cache = TraceCache::evicting_per_workload(spec.params, queue.uses_per_workload())
                .with_store(Some(self.store.clone()));
            let run = Arc::new(JobRun {
                queue,
                cache,
                slots: sim_slots,
            });
            self.runs.lock().unwrap().push(run);
            self.work.notify_all();
        }

        let id = self.next_job.fetch_add(1, Ordering::Relaxed) + 1;
        self.jobs.lock().unwrap().insert(
            id,
            Arc::new(Job {
                params: spec.params,
                states,
                memoized,
                attached,
                simulated,
            }),
        );
        id
    }

    /// Worker body: claim units across active runs until shutdown.
    fn worker(self: &Arc<Self>) {
        loop {
            if self.stopping() {
                return;
            }
            if self.paused.load(Ordering::SeqCst) {
                let guard = self.runs.lock().unwrap();
                drop(self.work.wait_timeout(guard, POLL).unwrap().0);
                continue;
            }
            let claimed = {
                let mut runs = self.runs.lock().unwrap();
                let mut claimed = None;
                while let Some(run) = runs.first().cloned() {
                    if let Some(unit) = run.queue.claim() {
                        claimed = Some((run, unit));
                        break;
                    }
                    // Fully claimed; drop it from the scan list (workers
                    // holding its Arc finish their units regardless).
                    runs.remove(0);
                }
                claimed
            };
            match claimed {
                Some((run, unit)) => {
                    // The unit counts before its last cell can end a
                    // client's stream, so `/v1/stats` read after the
                    // stream never misses it.
                    let last = match &run.queue.units()[unit] {
                        WorkUnit::Scalar(i) => *i,
                        WorkUnit::Batch(group) => group[group.len() - 1],
                    };
                    let sink = |r: CellResult| {
                        if r.cell == last {
                            self.units_run.fetch_add(1, Ordering::Relaxed);
                        }
                        self.finish_cell(&run, r);
                    };
                    run.queue.run_unit(unit, &run.cache, &sink);
                }
                None => {
                    let guard = self.runs.lock().unwrap();
                    drop(self.work.wait_timeout(guard, POLL).unwrap().0);
                }
            }
        }
    }

    /// Renders a finished cell's line, flushes it to the memo store,
    /// fills its slot and retires its in-flight registration.
    fn finish_cell(self: &Arc<Self>, run: &JobRun, r: CellResult) {
        let cell = &run.queue.cells()[r.cell];
        let trace_checksum = run.cache.trace_checksum(cell.workload);
        let record = cell_record(
            cell.workload,
            &cell.config_name,
            &cell.config,
            &r.report,
            r.batched,
            r.sample.as_ref(),
        );
        let Json::Obj(mut fields) = record.to_json() else {
            unreachable!("cell records render as objects");
        };
        fields.push((
            "trace_checksum".to_string(),
            Json::Str(
                trace_checksum
                    .map(|c| format!("{c:016x}"))
                    .unwrap_or_default(),
            ),
        ));
        fields.push((
            "sim_rev".to_string(),
            Json::Str(format!("{:016x}", self.sim_rev)),
        ));
        let line = Json::Obj(fields).to_string_compact();

        if let Some(trace) = trace_checksum {
            self.trace_checksums.lock().unwrap().insert(
                (cell.workload, cell.params.warmup, cell.params.measure),
                trace,
            );
            let memo_key = MemoKey {
                config: cell.config.content_hash(),
                trace,
                sim: self.sim_rev,
                spec: cell.sample.map_or(0, |s| s.content_hash()),
            };
            if let Err(e) = self.memo.store(memo_key, &line) {
                eprintln!(
                    "wsrs-serve: memo write failed for {}: {e}",
                    memo_key.file_name()
                );
            }
        }

        let mut inflight = self.inflight.lock().unwrap();
        let slot = &run.slots[r.cell];
        *slot.line.lock().unwrap() = Some(line);
        slot.ready.notify_all();
        inflight.remove(&DedupKey::of(cell));
    }
}

/// The HTTP job server. [`Server::bind`], then [`Server::run`] (blocking
/// — spawn a thread to run it in-process).
pub struct Server {
    listener: TcpListener,
    workers: usize,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// prepares the server state.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; `InvalidInput` when `opts.workers` is 0.
    pub fn bind(addr: impl ToSocketAddrs, opts: &ServerOptions) -> std::io::Result<Server> {
        if opts.workers == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "the server needs at least one worker",
            ));
        }
        // Register the standard generated-scenario family up front so
        // cell submissions may name its `gen:<profile-hash>:<seed>`
        // workloads directly, not only via the `workgen` experiment.
        for s in wsrs_workgen::presets::standard_family() {
            let _ = wsrs_workgen::register(&s.profile, s.seed);
        }
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            workers: opts.workers,
            state: Arc::new(ServerState {
                registry: config_registry(),
                memo: MemoStore::at(&opts.memo_dir),
                store: TraceStore::at(&opts.trace_dir),
                sim_rev: wsrs_core::sim_revision(),
                jobs: Mutex::new(HashMap::new()),
                next_job: AtomicU64::new(0),
                inflight: Mutex::new(HashMap::new()),
                runs: Mutex::new(Vec::new()),
                work: Condvar::new(),
                paused: AtomicBool::new(opts.paused),
                shutdown: AtomicBool::new(false),
                trace_checksums: Mutex::new(HashMap::new()),
                units_run: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (read the ephemeral port here).
    ///
    /// # Panics
    ///
    /// Panics if the socket has no local address (cannot happen for a
    /// bound listener).
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.listener.local_addr().unwrap()
    }

    /// Requests a graceful shutdown of a running [`Server::run`] loop:
    /// claimed cells finish, the memo store flushes, streams close.
    pub fn shutdown_handle(&self) -> impl Fn() + Send + Sync + 'static {
        let state = self.state.clone();
        move || {
            state.shutdown.store(true, Ordering::SeqCst);
        }
    }

    /// Serves until a shutdown is requested (SIGTERM/SIGINT via
    /// [`install_signal_handlers`], [`Server::shutdown_handle`], or
    /// `POST /v1/control/shutdown`), with [`ServerOptions::workers`]
    /// simulation threads. Returns after the workers have finished their
    /// claimed units.
    ///
    /// The accept loop blocks, so a connection is served the moment it
    /// arrives. A waker thread polls for a stop request and, once one is
    /// made, connects to the listener itself to unblock `accept`.
    pub fn run(self) {
        let wake_addr = waker_target(self.addr());
        let state = self.state;
        let accepting = AtomicBool::new(true);
        std::thread::scope(|s| {
            for _ in 0..self.workers {
                let state = state.clone();
                s.spawn(move || state.worker());
            }
            s.spawn(|| {
                while accepting.load(Ordering::SeqCst) {
                    if state.stopping() {
                        // Repeated each poll until the accept loop has
                        // seen it: a connection accepted just before the
                        // stop may have taken the first wake-up.
                        drop(TcpStream::connect_timeout(&wake_addr, POLL));
                    }
                    std::thread::sleep(POLL);
                }
            });
            loop {
                let accepted = self.listener.accept();
                if state.stopping() {
                    break;
                }
                match accepted {
                    Ok((stream, _)) => {
                        let state = state.clone();
                        s.spawn(move || handle_connection(&state, &stream));
                    }
                    // Transient (e.g. out of descriptors): back off.
                    Err(_) => std::thread::sleep(POLL),
                }
            }
            accepting.store(false, Ordering::SeqCst);
            // Propagate the stop to slot waiters and idle workers.
            state.shutdown.store(true, Ordering::SeqCst);
            state.work.notify_all();
        });
    }
}

/// The address the shutdown waker connects to: the listener's own, with
/// an unspecified IP (a `0.0.0.0` or `[::]` bind) replaced by loopback.
fn waker_target(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Routes one connection's request.
fn handle_connection(state: &Arc<ServerState>, stream: &TcpStream) {
    if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    let Some(req) = read_request(stream, REQUEST_DEADLINE) else {
        return;
    };
    let result = route(state, stream, &req);
    if let Err(e) = result {
        // The client may simply have hung up mid-stream.
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("wsrs-serve: {} {}: {e}", req.method, req.path);
        }
    }
}

fn route(state: &Arc<ServerState>, stream: &TcpStream, req: &Request) -> std::io::Result<()> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/jobs") => handle_submit(state, stream, req),
        ("GET", "/v1/stats") => respond(
            stream,
            "200 OK",
            "application/json",
            &stats_json(state).to_string_compact(),
        ),
        ("POST", "/v1/control/resume") => {
            state.paused.store(false, Ordering::SeqCst);
            state.work.notify_all();
            respond(stream, "200 OK", "application/json", "{\"paused\":false}")
        }
        ("POST", "/v1/control/shutdown") => {
            respond(stream, "200 OK", "application/json", "{\"stopping\":true}")?;
            state.shutdown.store(true, Ordering::SeqCst);
            state.work.notify_all();
            Ok(())
        }
        ("GET", path) => {
            if let Some(rest) = path.strip_prefix("/v1/jobs/") {
                if let Some(id) = rest.strip_suffix("/stream") {
                    return handle_stream(state, stream, id);
                }
                return handle_status(state, stream, rest);
            }
            respond_error(stream, "404 Not Found", "unknown path")
        }
        _ => respond_error(stream, "405 Method Not Allowed", "unsupported method"),
    }
}

fn handle_submit(
    state: &Arc<ServerState>,
    stream: &TcpStream,
    req: &Request,
) -> std::io::Result<()> {
    if state.stopping() {
        return respond_error(stream, "503 Service Unavailable", "server is shutting down");
    }
    match parse_submission(&req.body_str(), &state.registry) {
        Ok(spec) => {
            let cells = spec.cells.len();
            let id = state.submit(spec);
            let body = Json::Obj(vec![
                ("job".to_string(), Json::UInt(id)),
                ("cells".to_string(), Json::UInt(cells as u64)),
            ])
            .to_string_compact();
            respond(stream, "200 OK", "application/json", &body)
        }
        Err(msg) => respond_error(stream, "400 Bad Request", &msg),
    }
}

fn job_of(state: &Arc<ServerState>, id_str: &str) -> Option<Arc<Job>> {
    let id: u64 = id_str.parse().ok()?;
    state.jobs.lock().unwrap().get(&id).cloned()
}

fn handle_status(
    state: &Arc<ServerState>,
    stream: &TcpStream,
    id_str: &str,
) -> std::io::Result<()> {
    let Some(job) = job_of(state, id_str) else {
        return respond_error(stream, "404 Not Found", "no such job");
    };
    let completed = job.states.iter().filter(|s| s.line_now().is_some()).count();
    let body = Json::Obj(vec![
        ("cells".to_string(), Json::UInt(job.states.len() as u64)),
        ("completed".to_string(), Json::UInt(completed as u64)),
        (
            "done".to_string(),
            Json::Bool(completed == job.states.len()),
        ),
        ("memoized".to_string(), Json::UInt(job.memoized as u64)),
        ("attached".to_string(), Json::UInt(job.attached as u64)),
        ("simulated".to_string(), Json::UInt(job.simulated as u64)),
    ])
    .to_string_compact();
    respond(stream, "200 OK", "application/json", &body)
}

fn handle_stream(
    state: &Arc<ServerState>,
    stream: &TcpStream,
    id_str: &str,
) -> std::io::Result<()> {
    let Some(job) = job_of(state, id_str) else {
        return respond_error(stream, "404 Not Found", "no such job");
    };
    let mut w = ChunkedWriter::begin(stream, "application/jsonl")?;
    w.write_chunk(format!("{}\n", stream_header(job.params, job.states.len())).as_bytes())?;
    let give_up = || state.stopping();
    for cell_state in &job.states {
        let line = match cell_state {
            CellState::Memoized(line) => Some(line.clone()),
            CellState::Pending(slot) => slot.wait(&give_up),
        };
        match line {
            Some(line) => w.write_chunk(format!("{line}\n").as_bytes())?,
            // Shutdown before this cell finished: end the stream early
            // (complete lines only — never a partial cell).
            None => break,
        }
    }
    w.finish()
}

fn stats_json(state: &Arc<ServerState>) -> Json {
    let memo = state.memo.stats();
    Json::Obj(vec![
        (
            "jobs".to_string(),
            Json::UInt(state.jobs.lock().unwrap().len() as u64),
        ),
        (
            "inflight".to_string(),
            Json::UInt(state.inflight.lock().unwrap().len() as u64),
        ),
        (
            "units_run".to_string(),
            Json::UInt(state.units_run.load(Ordering::Relaxed)),
        ),
        (
            "memo".to_string(),
            Json::Obj(vec![
                ("hits".to_string(), Json::UInt(memo.hits)),
                ("misses".to_string(), Json::UInt(memo.misses)),
                ("writes".to_string(), Json::UInt(memo.writes)),
                (
                    "entries".to_string(),
                    Json::UInt(state.memo.entry_count() as u64),
                ),
            ]),
        ),
        (
            "paused".to_string(),
            Json::Bool(state.paused.load(Ordering::SeqCst)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waker_reaches_unspecified_binds_through_loopback() {
        let target = |a: &str| waker_target(a.parse().unwrap()).to_string();
        assert_eq!(target("0.0.0.0:8787"), "127.0.0.1:8787");
        assert_eq!(target("[::]:8787"), "[::1]:8787");
        assert_eq!(target("10.1.2.3:8787"), "10.1.2.3:8787");
    }

    #[test]
    fn options_follow_the_run_environment() {
        let env =
            RunEnv::from_vars(&[("WSRS_TRACE_DIR", "/srv/traces"), ("WSRS_THREADS", "3")]).unwrap();
        let opts = ServerOptions::new(&env);
        assert_eq!(opts.trace_dir, std::path::Path::new("/srv/traces"));
        assert_eq!(opts.workers, 3);
        assert_eq!(
            opts.memo_dir,
            wsrs_bench::manifest::artifacts_dir().join("memo")
        );
        assert!(!opts.paused);

        let defaults = ServerOptions::new(&RunEnv::from_vars::<&str, &str>(&[]).unwrap());
        assert_eq!(
            defaults.trace_dir,
            wsrs_bench::manifest::artifacts_dir().join("traces")
        );
    }
}
