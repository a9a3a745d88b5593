//! # wsrs-serve — deterministic design-space exploration service
//!
//! An HTTP job server over the experiment grid machinery: clients submit
//! (configuration, workload, window) cells — singly or as whole named
//! experiment grids — and stream back finished cell records as JSON
//! lines. Three properties make the service more than a remote
//! `run_grid`:
//!
//! * **Determinism end to end.** Cells are simulated by the same
//!   [`CellQueue`](wsrs_bench::CellQueue) planner and claim discipline as
//!   the bench binaries, so a streamed grid is byte-identical to a local
//!   run — and every stream of the same grid is byte-identical across
//!   clients, worker counts, and store warmth.
//! * **Content-addressed memoization.** Finished cells persist in a
//!   [`MemoStore`] keyed on (configuration content hash, trace checksum,
//!   simulator revision, sampling-spec hash); resubmitting a grid
//!   replays bytes from disk with zero simulations, and any semantic
//!   change to the configuration, workload, emulator, timing model or
//!   sampling plan misses by construction. Entries are checksummed and
//!   carry their key, so a corrupt or renamed one is a miss too.
//!   `wsrs-serve gc` prunes entries stranded by a timing-model revision
//!   bump and entries that fail verification.
//! * **In-flight dedup.** Identical cells submitted concurrently attach
//!   to the one running simulation instead of racing it.
//!
//! The server is std-only: a threaded HTTP/1.1 listener
//! ([`http`]), no async runtime, no external dependencies — matching the
//! workspace's vendored-dependency constraint.
//!
//! ```sh
//! cargo run --release -p wsrs-serve --bin wsrs-serve -- --addr 127.0.0.1:8787
//! curl -s -X POST -d '{"experiment":"figure4"}' http://127.0.0.1:8787/v1/jobs
//! curl -sN http://127.0.0.1:8787/v1/jobs/1/stream
//! ```

pub mod http;
pub mod memo;
pub mod proto;
pub mod server;

pub use memo::{GcReport, MemoKey, MemoStats, MemoStore};
pub use proto::{parse_submission, stream_header, JobSpec};
pub use server::{install_signal_handlers, Server, ServerOptions};
