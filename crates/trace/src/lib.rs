//! # wsrs-trace — persistent on-disk µop trace store
//!
//! The experiment grids replay the same deterministic workload traces run
//! after run; re-emulating them dominates cold-start wall time. This crate
//! makes traces a durable artifact: a compact, versioned binary format for
//! recorded [`DynInst`](wsrs_isa::DynInst) streams plus a keyed directory
//! store, so a trace is emulated once per (workload, window, emulator
//! revision) and replayed from disk forever after.
//!
//! The layers:
//!
//! * [`codec`] — delta/varint record coding, in independently decodable
//!   blocks;
//! * [`file`] — the on-disk format: versioned header, block index for O(1)
//!   window seeks, whole-file FNV-1a checksum; a [`TraceFile`] decodes
//!   whole windows or streams one block at a time;
//! * [`store`] — the keyed directory ([`TraceStore`]), with atomic writes;
//!   [`TraceStore::open`] validates a file without decoding it,
//!   [`TraceStore::load`] also decodes every µop;
//! * [`checkpoint`] — checksummed warmup-checkpoint records for interval
//!   sampling, stored alongside traces under their own extension.
//!
//! Staleness is handled by construction: the store key embeds
//! `Workload::trace_fingerprint()` (a hash of the emulator semantics
//! revision and the assembled program), so any change to either simply
//! misses the old file. Corruption is handled by verification: every read
//! re-hashes the file and rejects mismatches, and callers fall back to
//! re-emulation.
//!
//! # Example
//!
//! ```
//! use wsrs_isa::{DynInst, Opcode};
//! use wsrs_trace::{TraceKey, TraceStore};
//!
//! let dir = std::env::temp_dir().join(format!("wsrs-trace-doc-{}", std::process::id()));
//! let store = TraceStore::at(&dir);
//! let key = TraceKey { workload: "gzip".into(), warmup: 1, measure: 2, rev: 42 };
//! let uops = vec![DynInst::new(0, Opcode::Add), DynInst::new(1, Opcode::Add), DynInst::new(2, Opcode::Halt)];
//! let saved = store.save(&key, &uops).unwrap();
//! let loaded = store.load(&key).unwrap();
//! assert_eq!(loaded.uops, uops);
//! assert_eq!(loaded.checksum, saved.checksum);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod checkpoint;
pub mod codec;
pub mod file;
pub mod store;

pub use checkpoint::{
    CheckpointKey, CheckpointRecord, CHECKPOINT_EXT, CHECKPOINT_FORMAT_VERSION, CHECKPOINT_MAGIC,
};
pub use codec::{decode_block, encode_block, CodecError};
pub use file::{
    encode, TraceError, TraceFile, TraceHeader, Uops, DEFAULT_BLOCK_UOPS, FORMAT_VERSION, MAGIC,
};
pub use store::{write_atomic, LoadedTrace, SavedTrace, TraceKey, TraceStore, TRACE_EXT};
