//! The `wsrs-serve` daemon: bind, serve, exit 0 on SIGTERM.
//!
//! ```sh
//! wsrs-serve [--addr HOST:PORT] [--workers N] [--memo-dir DIR] \
//!            [--trace-dir DIR] [--paused]
//!
//! # prune memo entries from older timing-model revisions, then exit
//! wsrs-serve gc [--dry-run] [--memo-dir DIR]
//! ```
//!
//! Defaults: `127.0.0.1:8787`, one worker per `WSRS_THREADS`/CPU slot,
//! memos under `artifacts/memo`, traces under `WSRS_TRACE_DIR` or
//! `artifacts/traces`.

use wsrs_bench::RunEnv;
use wsrs_serve::{install_signal_handlers, MemoStore, Server, ServerOptions};

/// `wsrs-serve gc [--dry-run] [--memo-dir DIR]`: offline memo-store
/// garbage collection. Entries keyed to a `sim_revision` other than the
/// current binary's can never hit again (the lookup key always carries
/// the current revision) — they only waste disk. Never returns.
fn run_gc(mut dir: std::path::PathBuf, args: std::env::ArgsOs) -> ! {
    let mut dry_run = false;
    let mut args = args.map(|a| a.to_string_lossy().into_owned());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dry-run" => dry_run = true,
            "--memo-dir" => {
                dir = args
                    .next()
                    .unwrap_or_else(|| {
                        eprintln!("--memo-dir needs a value");
                        std::process::exit(2);
                    })
                    .into();
            }
            other => {
                eprintln!(
                    "unknown argument '{other}'\nusage: wsrs-serve gc [--dry-run] [--memo-dir DIR]"
                );
                std::process::exit(2);
            }
        }
    }
    let store = MemoStore::at(&dir);
    match store.gc(wsrs_core::sim_revision(), dry_run) {
        Ok(r) => {
            let verb = if dry_run { "would remove" } else { "removed" };
            println!(
                "gc {}: kept {} entr(ies), {verb} {} stale-revision and {} malformed",
                dir.display(),
                r.kept,
                r.stale,
                r.malformed
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("gc {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut opts = ServerOptions::new(&RunEnv::from_env());
    let mut addr = "127.0.0.1:8787".to_string();
    let mut args = std::env::args().skip(1);
    if std::env::args().nth(1).as_deref() == Some("gc") {
        let mut os_args = std::env::args_os();
        os_args.next(); // argv[0]
        os_args.next(); // "gc"
        run_gc(opts.memo_dir, os_args);
    }
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--workers" => {
                let v = value("--workers");
                opts.workers = match v.trim().parse() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("error: --workers {v:?}: expected a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--memo-dir" => opts.memo_dir = value("--memo-dir").into(),
            "--trace-dir" => opts.trace_dir = value("--trace-dir").into(),
            "--paused" => opts.paused = true,
            other => {
                eprintln!(
                    "unknown argument '{other}'\nusage: wsrs-serve [--addr HOST:PORT] \
                     [--workers N] [--memo-dir DIR] [--trace-dir DIR] [--paused]"
                );
                std::process::exit(2);
            }
        }
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
