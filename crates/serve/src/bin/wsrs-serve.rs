//! The `wsrs-serve` daemon: bind, serve, exit 0 on SIGTERM.
//!
//! ```sh
//! wsrs-serve [--addr HOST:PORT] [--workers N] [--memo-dir DIR] \
//!            [--trace-dir DIR] [--paused]
//!
//! # prune memo entries from older timing-model revisions and entries
//! # that fail verification, then exit
//! wsrs-serve gc [--dry-run] [--memo-dir DIR]
//! ```
//!
//! Defaults: `127.0.0.1:8787`, one worker per `WSRS_THREADS`/CPU slot,
//! memos under `artifacts/memo`, traces under `WSRS_TRACE_DIR` or
//! `artifacts/traces`.

use wsrs_bench::RunEnv;
use wsrs_serve::{install_signal_handlers, MemoStore, Server, ServerOptions};

const USAGE: &str = "usage: wsrs-serve [--addr HOST:PORT] [--workers N] [--memo-dir DIR] \
                     [--trace-dir DIR] [--paused]\n       wsrs-serve gc [--dry-run] [--memo-dir DIR]";

/// `wsrs-serve gc`: offline memo-store garbage collection. Entries keyed
/// to a `sim_revision` other than the current binary's can never hit
/// again (the lookup key always carries the current revision) and
/// entries that fail verification would only miss; both just waste disk.
/// Returns the exit code.
fn run_gc(dir: &std::path::Path, dry_run: bool) -> i32 {
    match MemoStore::at(dir).gc(wsrs_core::sim_revision(), dry_run) {
        Ok(r) => {
            let verb = if dry_run { "would remove" } else { "removed" };
            println!(
                "gc {}: kept {} entr(ies), {verb} {} stale-revision and {} malformed",
                dir.display(),
                r.kept,
                r.stale,
                r.malformed
            );
            0
        }
        Err(e) => {
            eprintln!("gc {}: {e}", dir.display());
            1
        }
    }
}

fn main() {
    let mut opts = ServerOptions::new(&RunEnv::from_env());
    let mut addr = "127.0.0.1:8787".to_string();
    let mut args = std::env::args().skip(1).peekable();
    let gc = args.next_if_eq("gc").is_some();
    let mut dry_run = false;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match (gc, arg.as_str()) {
            (_, "--memo-dir") => opts.memo_dir = value("--memo-dir").into(),
            (true, "--dry-run") => dry_run = true,
            (false, "--addr") => addr = value("--addr"),
            (false, "--workers") => {
                let v = value("--workers");
                opts.workers = match v.trim().parse() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("error: --workers {v:?}: expected a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            (false, "--trace-dir") => opts.trace_dir = value("--trace-dir").into(),
            (false, "--paused") => opts.paused = true,
            (_, other) => {
                eprintln!("unknown argument '{other}'\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if gc {
        std::process::exit(run_gc(&opts.memo_dir, dry_run));
    }

    install_signal_handlers();
    let server = Server::bind(addr.as_str(), &opts).unwrap_or_else(|e| {
        eprintln!("wsrs-serve: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "wsrs-serve: listening on {} ({} worker(s), memo {}, traces {})",
        server.addr(),
        opts.workers,
        opts.memo_dir.display(),
        opts.trace_dir.display()
    );
    server.run();
    eprintln!("wsrs-serve: graceful shutdown complete");
}
