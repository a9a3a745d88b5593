//! Maintenance CLI for the on-disk trace store (`wsrs-trace`).
//!
//! ```sh
//! # pre-record every workload at the default grid window
//! cargo run --release -p wsrs-bench --bin trace -- record
//!
//! # record one workload at an explicit window
//! cargo run --release -p wsrs-bench --bin trace -- record gzip 1000000 2000000
//!
//! # what's in the store, and is it still valid?
//! cargo run --release -p wsrs-bench --bin trace -- ls
//! cargo run --release -p wsrs-bench --bin trace -- verify
//! cargo run --release -p wsrs-bench --bin trace -- inspect gzip
//!
//! # drop files recorded against an older emulator revision
//! cargo run --release -p wsrs-bench --bin trace -- rm --stale
//! ```
//!
//! The store location is `artifacts/traces/` unless `WSRS_TRACE_DIR`
//! overrides it. `rev` prints the current per-workload emulator revision
//! hashes (the value CI keys its trace cache on).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use wsrs_bench::{trace_key, RunEnv, RunParams};
use wsrs_core::sim_revision;
use wsrs_trace::{
    walk, Artifact, CheckpointKey, CheckpointRecord, StoreKey, TraceError, TraceFile, TraceKey,
    TraceStore,
};
use wsrs_workloads::Workload;

fn usage() -> ExitCode {
    eprintln!(
        "usage: trace <command>\n\
         \n\
         commands:\n\
         \x20 record [workload] [warmup measure]  pre-record traces (default: all workloads,\n\
         \x20                                     WSRS_WARMUP/WSRS_MEASURE window)\n\
         \x20 inspect <workload|file>             print one trace's (or .wsck checkpoint's)\n\
         \x20                                     header, size and checksum\n\
         \x20 verify                              checksum + parse every file in the store\n\
         \x20 ls                                  list traces and warmup checkpoints\n\
         \x20 rm --stale | --all | <workload>     remove stale / all / one workload's files\n\
         \x20                                     (--stale and --all also cover checkpoints)\n\
         \x20 rev                                 print current per-workload revision hashes"
    );
    ExitCode::from(2)
}

/// Resolves a workload name: the 12 kernels plus any `gen:` workload
/// registered this process (the standard scenario family is registered in
/// `main`, so its traces are first-class here).
fn workload_by_name(name: &str) -> Option<Workload> {
    name.parse().ok()
}

/// One kind of file in the trace store, as `verify`, `ls` and `rm` see
/// it through its key.
trait Kind {
    /// Loads and fully checks the file stored under this key; what
    /// `verify` prints after "ok".
    fn verify(&self, store: &TraceStore) -> Result<String, TraceError>;
    /// Whether this build can still hit a file under this key.
    fn is_current(&self) -> bool;
    /// The workload the file belongs to, for `rm <workload>`.
    fn workload(&self) -> Option<&str> {
        None
    }
}

impl Kind for TraceKey {
    fn verify(&self, store: &TraceStore) -> Result<String, TraceError> {
        // Full decode of every block, not just the checksum: a verify
        // pass should prove the file replays.
        let file = store.open(self)?;
        let uops = file.read_all()?;
        Ok(format!("{} µops  {:016x}", uops.len(), file.checksum()))
    }

    /// Recordable by the current emulator: same workload name and
    /// revision hash, any window. A `gen:` trace whose workload is not
    /// registered in this process counts as current: another caller may
    /// hold the profile, so `rm --stale` must not garbage-collect it.
    fn is_current(&self) -> bool {
        match workload_by_name(&self.workload) {
            Some(w) => w.trace_fingerprint() == self.rev,
            None => self.workload.starts_with("gen:"),
        }
    }

    fn workload(&self) -> Option<&str> {
        Some(&self.workload)
    }
}

/// Warmup checkpoints are keyed on the timing-model revision (not the
/// emulator revision traces use): any sim change strands them. A corrupt
/// one is harmless at run time (the loader falls back to fast-forwarding)
/// but worth surfacing in `verify`.
impl Kind for CheckpointKey {
    fn verify(&self, store: &TraceStore) -> Result<String, TraceError> {
        let record = store.load_checkpoint(self)?;
        Ok(format!("checkpoint  {} section(s)", record.sections.len()))
    }

    fn is_current(&self) -> bool {
        self.sim == sim_revision()
    }
}

/// One file of any kind in the store.
struct StoreFile {
    path: PathBuf,
    name: String,
    kind: &'static str,
    /// `None` for a name no key maps to.
    key: Option<Box<dyn Kind>>,
}

/// Every file of every kind in the store, traces first, each kind sorted
/// by name; prints the error and returns `None` if the store cannot be
/// listed.
fn store_files(store: &TraceStore) -> Option<Vec<StoreFile>> {
    fn of<K: StoreKey + Kind + 'static>(store: &TraceStore) -> std::io::Result<Vec<StoreFile>> {
        Ok(walk::<K>(store.dir())?
            .into_iter()
            .map(|e| StoreFile {
                path: e.path,
                name: e.name,
                kind: K::KIND,
                key: e.key.map(|k| Box::new(k) as Box<dyn Kind>),
            })
            .collect())
    }
    match (of::<TraceKey>(store), of::<CheckpointKey>(store)) {
        (Ok(mut files), Ok(checkpoints)) => {
            files.extend(checkpoints);
            Some(files)
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{}: {e}", store.dir().display());
            None
        }
    }
}

fn record(env: &RunEnv, args: &[String]) -> ExitCode {
    let (store, mut params) = (&env.store, env.params);
    let workloads: Vec<Workload> = match args.first() {
        None => Workload::all().to_vec(),
        Some(name) => match workload_by_name(name) {
            Some(w) => vec![w],
            None => {
                eprintln!("unknown workload '{name}'");
                return ExitCode::from(2);
            }
        },
    };
    if let (Some(w), Some(m)) = (args.get(1), args.get(2)) {
        let parsed = match (w.parse(), m.parse()) {
            (Ok(warmup), Ok(measure)) => Some(RunParams { warmup, measure }),
            _ => None,
        };
        match parsed.filter(|p| p.window().is_some()) {
            Some(p) => params = p,
            None => {
                eprintln!("bad window '{w} {m}' (expected two integers summing to at most 2^64-1)");
                return ExitCode::from(2);
            }
        }
    }
    let bound = params
        .window()
        .expect("every parse boundary checks that the window length fits in u64")
        as usize;
    for w in workloads {
        let key = trace_key(w, params);
        if store.load(&key).is_ok() {
            println!("{:<42} up to date", key.file_name());
            continue;
        }
        let uops: Vec<_> = w.trace().take(bound).collect();
        match store.save(&key, &uops) {
            Ok(saved) => println!(
                "{:<42} recorded  {} µops  {} bytes  {:016x}",
                key.file_name(),
                uops.len(),
                saved.bytes,
                saved.checksum
            ),
            Err(e) => {
                eprintln!("{}: {e}", key.file_name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Prints one warmup checkpoint's key, sections and sizes.
fn inspect_checkpoint(path: &Path) -> ExitCode {
    let record = match std::fs::read(path)
        .map_err(TraceError::from)
        .and_then(CheckpointRecord::from_image)
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let k = &record.key;
    println!("file       {}", path.display());
    println!("trace      {:016x}", k.trace);
    println!(
        "sim        {:016x}{}",
        k.sim,
        if k.is_current() {
            ""
        } else {
            "  (stale revision)"
        }
    );
    println!("spec       {:016x}", k.spec);
    println!("warm-state {:016x}", k.warm);
    println!("interval   {}", k.interval);
    println!("ff µops    {}", record.ff_uops);
    for (tag, bytes) in &record.sections {
        println!("section    tag {tag}  {} bytes", bytes.len());
    }
    ExitCode::SUCCESS
}

fn inspect(env: &RunEnv, target: Option<&String>) -> ExitCode {
    let Some(target) = target else {
        eprintln!("inspect: expected a workload name, a .wsrt path or a .wsck path");
        return ExitCode::from(2);
    };
    if Path::new(target)
        .extension()
        .is_some_and(|e| e == CheckpointKey::EXT)
    {
        return inspect_checkpoint(Path::new(target));
    }
    let path = if Path::new(target).is_file() {
        PathBuf::from(target)
    } else if let Some(w) = workload_by_name(target) {
        // Exact current-window file if present, else any recorded window
        // of this workload.
        let exact = env.store.path_for(&trace_key(w, env.params));
        if exact.is_file() {
            exact
        } else {
            walk::<TraceKey>(env.store.dir())
                .unwrap_or_default()
                .into_iter()
                .find(|e| e.key.as_ref().is_some_and(|k| k.workload == w.name()))
                // Fall through to the open error below.
                .map_or(exact, |e| e.path)
        }
    } else {
        eprintln!("'{target}' is neither a file nor a workload name");
        return ExitCode::from(2);
    };
    match TraceFile::open(&path) {
        Ok(f) => {
            let h = f.header();
            println!("file       {}", path.display());
            println!("workload   {}", h.workload);
            println!("revision   {:016x}", h.rev);
            println!(
                "window     {} warmup + {} measure µops",
                h.warmup, h.measure
            );
            println!("µops       {}", h.uop_count);
            println!("blocks     {} x {} µops", f.block_count(), h.block_uops);
            println!("size       {} bytes", f.size_bytes());
            println!(
                "density    {:.2} bytes/µop",
                f.size_bytes() as f64 / h.uop_count.max(1) as f64
            );
            println!("checksum   {:016x}", f.checksum());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn verify(store: &TraceStore) -> ExitCode {
    let Some(files) = store_files(store) else {
        return ExitCode::FAILURE;
    };
    let mut bad = 0usize;
    for f in &files {
        let name = &f.name;
        let Some(key) = &f.key else {
            println!("{name:<42} skipped: not a {} file name", f.kind);
            continue;
        };
        match key.verify(store) {
            Ok(summary) => println!(
                "{name:<42} ok  {summary}{}",
                if key.is_current() {
                    ""
                } else {
                    "  (stale revision)"
                }
            ),
            Err(e) => {
                println!("{name:<42} CORRUPT: {e}");
                bad += 1;
            }
        }
    }
    println!("{} file(s) in {}", files.len(), store.dir().display());
    if bad > 0 {
        eprintln!("{bad} corrupt file(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn ls(store: &TraceStore) -> ExitCode {
    let Some(files) = store_files(store) else {
        return ExitCode::FAILURE;
    };
    let mut total = 0u64;
    for f in &files {
        let bytes = std::fs::metadata(&f.path).map(|m| m.len()).unwrap_or(0);
        total += bytes;
        let status = match &f.key {
            Some(k) if k.is_current() => "current",
            Some(_) => "stale",
            None => "foreign",
        };
        println!("{:<42} {bytes:>12} bytes  {} {status}", f.name, f.kind);
    }
    let count = |kind: &str| files.iter().filter(|f| f.kind == kind).count();
    println!(
        "{} trace(s), {} checkpoint(s), {} bytes in {}",
        count(TraceKey::KIND),
        count(CheckpointKey::KIND),
        total,
        store.dir().display()
    );
    ExitCode::SUCCESS
}

/// `--stale` and `--all` cover every kind; a workload name only matches
/// its traces (checkpoints have no workload component).
fn rm(store: &TraceStore, arg: Option<&String>) -> ExitCode {
    let Some(arg) = arg else {
        eprintln!("rm: expected --stale, --all or a workload name");
        return ExitCode::from(2);
    };
    let Some(files) = store_files(store) else {
        return ExitCode::FAILURE;
    };
    let mut removed = 0usize;
    for f in &files {
        let doomed = match arg.as_str() {
            "--all" => true,
            "--stale" => !f.key.as_ref().is_some_and(|k| k.is_current()),
            workload => f.key.as_ref().and_then(|k| k.workload()) == Some(workload),
        };
        if !doomed {
            continue;
        }
        if let Err(e) = std::fs::remove_file(&f.path) {
            eprintln!("{}: {e}", f.name);
            return ExitCode::FAILURE;
        }
        println!("removed {}", f.name);
        removed += 1;
    }
    println!("{removed} file(s) removed");
    ExitCode::SUCCESS
}

/// Prints the per-workload revision hash (emulator revision + program
/// fingerprint + memory size). CI keys its trace-store cache on this
/// output: any change to the emulator or a kernel invalidates the cache.
fn rev() -> ExitCode {
    for w in Workload::all() {
        println!("{:<10} {:016x}", w.name(), w.trace_fingerprint());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // Register the standard generated-scenario family so its
    // `gen:<hash>:<seed>` names resolve: `record`/`inspect`/`rm` accept
    // them, and `ls`/`verify` fingerprint-check the family's traces
    // instead of flagging them foreign.
    for s in wsrs_workgen::presets::standard_family() {
        let _ = wsrs_workgen::register(&s.profile, s.seed);
    }
    let env = RunEnv::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => record(&env, &args[1..]),
        Some("inspect") => inspect(&env, args.get(1)),
        Some("verify") => verify(&env.store),
        Some("ls") => ls(&env.store),
        Some("rm") => rm(&env.store, args.get(1)),
        Some("rev") => rev(),
        _ => usage(),
    }
}
