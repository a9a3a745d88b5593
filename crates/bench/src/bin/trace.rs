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

use std::process::ExitCode;
use wsrs_bench::{trace_key, RunEnv, RunParams};
use wsrs_core::sim_revision;
use wsrs_trace::{
    CheckpointKey, CheckpointRecord, TraceFile, TraceKey, TraceStore, CHECKPOINT_EXT,
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

/// Is `key` recordable by the current emulator? (Same workload name and
/// revision hash; any window.) A `gen:` trace whose workload is not
/// registered in this process counts as current: another caller may hold
/// the profile, so `rm --stale` must not garbage-collect it.
fn is_current(key: &TraceKey) -> bool {
    match workload_by_name(&key.workload) {
        Some(w) => w.trace_fingerprint() == key.rev,
        None => key.workload.starts_with("gen:"),
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
        match (w.parse(), m.parse()) {
            (Ok(w), Ok(m)) => {
                params = RunParams {
                    warmup: w,
                    measure: m,
                }
            }
            _ => {
                eprintln!("bad window '{w} {m}' (expected two integers)");
                return ExitCode::from(2);
            }
        }
    }
    let bound = (params.warmup + params.measure) as usize;
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
fn inspect_checkpoint(path: &std::path::Path) -> ExitCode {
    let record = match std::fs::read(path)
        .map_err(|e| e.to_string())
        .and_then(|b| CheckpointRecord::from_bytes(&b).map_err(|e| e.to_string()))
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
        if k.sim == sim_revision() {
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
    if std::path::Path::new(target)
        .extension()
        .is_some_and(|e| e == CHECKPOINT_EXT)
    {
        return inspect_checkpoint(std::path::Path::new(target));
    }
    let path = if std::path::Path::new(target).is_file() {
        std::path::PathBuf::from(target)
    } else if let Some(w) = workload_by_name(target) {
        // Exact current-window file if present, else any recorded window
        // of this workload.
        let exact = env.store.path_for(&trace_key(w, env.params));
        if exact.is_file() {
            exact
        } else {
            match env.store.entries().ok().and_then(|e| {
                e.into_iter().find(|p| {
                    p.file_name()
                        .and_then(|n| TraceKey::parse_file_name(&n.to_string_lossy()))
                        .is_some_and(|k| k.workload == w.name())
                })
            }) {
                Some(p) => p,
                None => exact, // fall through to the open error below
            }
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
    let entries = match store.entries() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{}: {e}", store.dir().display());
            return ExitCode::FAILURE;
        }
    };
    if entries.is_empty() {
        println!("store empty ({})", store.dir().display());
        return ExitCode::SUCCESS;
    }
    let mut bad = 0usize;
    for path in &entries {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        // Full decode of every block, not just the checksum: a verify
        // pass should prove the file replays.
        match TraceFile::open(path).and_then(|f| f.read_all().map(|u| (f, u))) {
            Ok((f, uops)) => {
                let stale = TraceKey::parse_file_name(&name).is_none_or(|k| !is_current(&k));
                println!(
                    "{name:<42} ok  {} µops  {:016x}{}",
                    uops.len(),
                    f.checksum(),
                    if stale { "  (stale revision)" } else { "" }
                );
            }
            Err(e) => {
                println!("{name:<42} CORRUPT: {e}");
                bad += 1;
            }
        }
    }
    // Checkpoints verify too: a corrupt one is harmless at run time (the
    // loader falls back to fast-forwarding) but worth surfacing here.
    for path in store.checkpoint_entries().unwrap_or_default() {
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .to_string();
        match std::fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|b| CheckpointRecord::from_bytes(&b).map_err(|e| e.to_string()))
        {
            Ok(r) => {
                let stale = r.key.sim != sim_revision();
                println!(
                    "{name:<42} ok  checkpoint  {} section(s){}",
                    r.sections.len(),
                    if stale { "  (stale revision)" } else { "" }
                );
            }
            Err(e) => {
                println!("{name:<42} CORRUPT: {e}");
                bad += 1;
            }
        }
    }
    if bad > 0 {
        eprintln!("{bad} corrupt file(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn ls(store: &TraceStore) -> ExitCode {
    let (traces, checkpoints) = match (store.entries(), store.checkpoint_entries()) {
        (Ok(t), Ok(c)) => (t, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{}: {e}", store.dir().display());
            return ExitCode::FAILURE;
        }
    };
    if traces.is_empty() && checkpoints.is_empty() {
        println!("store empty ({})", store.dir().display());
        return ExitCode::SUCCESS;
    }
    let mut total = 0u64;
    for path in &traces {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        total += bytes;
        let status = match TraceKey::parse_file_name(&name) {
            Some(k) if is_current(&k) => "current",
            Some(_) => "stale",
            None => "foreign",
        };
        println!("{name:<42} {bytes:>12} bytes  {status}");
    }
    // Warmup checkpoints are keyed on the timing-model revision (not the
    // emulator revision traces use): any sim change strands them.
    for path in &checkpoints {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        total += bytes;
        let status = match CheckpointKey::parse_file_name(&name) {
            Some(k) if k.sim == sim_revision() => "current",
            Some(_) => "stale",
            None => "foreign",
        };
        println!("{name:<42} {bytes:>12} bytes  checkpoint {status}");
    }
    println!(
        "{} trace(s), {} checkpoint(s), {} bytes in {}",
        traces.len(),
        checkpoints.len(),
        total,
        store.dir().display()
    );
    ExitCode::SUCCESS
}

fn rm(store: &TraceStore, arg: Option<&String>) -> ExitCode {
    let entries = match store.entries() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{}: {e}", store.dir().display());
            return ExitCode::FAILURE;
        }
    };
    let keep = |name: &str| -> bool {
        match arg.map(String::as_str) {
            Some("--stale") => TraceKey::parse_file_name(name).is_some_and(|k| is_current(&k)),
            Some("--all") => false,
            Some(workload) => {
                TraceKey::parse_file_name(name).is_none_or(|k| k.workload != workload)
            }
            None => true,
        }
    };
    if arg.is_none() {
        eprintln!("rm: expected --stale, --all or a workload name");
        return ExitCode::from(2);
    }
    // Checkpoints have no workload component; only the store-wide modes
    // touch them. `--stale` keys on the timing-model revision.
    let keep_checkpoint = |name: &str| -> bool {
        match arg.map(String::as_str) {
            Some("--stale") => {
                CheckpointKey::parse_file_name(name).is_some_and(|k| k.sim == sim_revision())
            }
            Some("--all") => false,
            _ => true,
        }
    };
    let checkpoints = store.checkpoint_entries().unwrap_or_default();
    let mut removed = 0usize;
    let victims = entries
        .iter()
        .map(|p| (p, &keep as &dyn Fn(&str) -> bool))
        .chain(
            checkpoints
                .iter()
                .map(|p| (p, &keep_checkpoint as &dyn Fn(&str) -> bool)),
        );
    for (path, keep) in victims {
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .to_string();
        if !keep(&name) {
            match std::fs::remove_file(path) {
                Ok(()) => {
                    println!("removed {name}");
                    removed += 1;
                }
                Err(e) => {
                    eprintln!("{name}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
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
