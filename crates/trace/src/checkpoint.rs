//! Persisted warmup checkpoints for interval-sampled simulation.
//!
//! Interval sampling fast-forwards long-horizon architectural state
//! (branch-predictor tables, cache tags) functionally between short
//! measured intervals. The fast-forward to interval *i* is a pure
//! function of the trace prefix, so its result is worth persisting: a
//! checkpoint record stores the warmed state at one interval boundary,
//! and any later run — of *any* configuration sharing the same trace,
//! predictor and hierarchy — skips straight to the interval.
//!
//! The record is deliberately semi-structured: the payload is a list of
//! `(tag, bytes)` sections whose contents only the simulator core
//! interprets (`wsrs-trace` must not depend on `wsrs-core`). The file
//! format follows the trace-file template ([`crate::file`]): versioned
//! magic, little-endian fields, whole-file FNV-1a trailing checksum
//! verified before any structural parsing. All integers little-endian:
//!
//! ```text
//! magic          8 bytes   "WSRSCKP1"
//! format_version u32       bumped on any layout change
//! trace          u64       content checksum of the trace file
//! sim            u64       wsrs_core::sim_revision()
//! spec           u64       SampleSpec content hash
//! warm           u64       warm-state key (predictor kind + hierarchy)
//! interval       u32       interval index within the spec
//! ff_uops        u64       µops fast-forwarded from the trace start
//! section_count  u32
//! sections       ..        per section: tag u32, len u64, bytes
//! checksum       u64       FNV-1a over every preceding byte
//! ```
//!
//! Checkpoints live in the same store directory as traces, under a
//! distinct extension (`.wsck`) with the key in the filename, written
//! atomically — the same staleness-by-construction and
//! corruption-by-verification scheme as [`crate::store`].

use std::path::PathBuf;

use wsrs_isa::fnv1a_64;

use crate::file::TraceError;
use crate::store::{write_atomic, TraceStore};

/// Checkpoint file magic, embedding the first format generation.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"WSRSCKP1";
/// Current checkpoint format version; readers reject anything else.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 1;
/// Extension of checkpoint files inside a store directory.
pub const CHECKPOINT_EXT: &str = "wsck";

/// Fixed-size portion preceding the sections.
const FIXED_HEADER: usize = 8 + 4 + 8 + 8 + 8 + 8 + 4 + 8 + 4;
/// Footer: checksum only.
const FOOTER: usize = 8;

/// The content-addressed identity of one warmup checkpoint.
///
/// Every component is a *content* hash (or an index into one): any change
/// to the trace bytes, the timing-model revision, the sampling plan, or
/// the warmed structures' geometry changes the key and simply misses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CheckpointKey {
    /// Content checksum of the trace file the fast-forward consumed.
    pub trace: u64,
    /// `wsrs_core::sim_revision()` of the simulator that produced it.
    pub sim: u64,
    /// Content hash of the `SampleSpec` (interval placement plan).
    pub spec: u64,
    /// Warm-state key: hash of the predictor kind and hierarchy
    /// configuration — the state actually inside the checkpoint. Configs
    /// differing only in back-end geometry share it.
    pub warm: u64,
    /// Interval index within the spec, `0..spec.intervals`.
    pub interval: u32,
}

impl CheckpointKey {
    /// The store filename this key maps to.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!(
            "ck-{:016x}-{:016x}-{:016x}-{:016x}-i{}.{CHECKPOINT_EXT}",
            self.trace, self.sim, self.spec, self.warm, self.interval
        )
    }

    /// Parses a store filename back into its key; `None` for foreign
    /// files.
    #[must_use]
    pub fn parse_file_name(name: &str) -> Option<CheckpointKey> {
        let stem = name
            .strip_prefix("ck-")?
            .strip_suffix(&format!(".{CHECKPOINT_EXT}"))?;
        let mut parts = stem.split('-');
        let trace = u64::from_str_radix(parts.next()?, 16).ok()?;
        let sim = u64::from_str_radix(parts.next()?, 16).ok()?;
        let spec = u64::from_str_radix(parts.next()?, 16).ok()?;
        let warm = u64::from_str_radix(parts.next()?, 16).ok()?;
        let interval = parts.next()?.strip_prefix('i')?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(CheckpointKey {
            trace,
            sim,
            spec,
            warm,
            interval,
        })
    }
}

/// One warmup checkpoint: the key, how far the fast-forward ran, and the
/// warmed state as tagged opaque sections (the simulator core owns the
/// tags and encodings).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// The identity this record was produced under.
    pub key: CheckpointKey,
    /// µops functionally fast-forwarded from the trace start to reach
    /// this interval's boundary.
    pub ff_uops: u64,
    /// Tagged state sections, in encode order.
    pub sections: Vec<(u32, Vec<u8>)>,
}

impl CheckpointRecord {
    /// Serializes the record into a complete file image, checksum
    /// included.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let body: usize = self.sections.iter().map(|(_, b)| 12 + b.len()).sum();
        let mut out = Vec::with_capacity(FIXED_HEADER + body + FOOTER);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.key.trace.to_le_bytes());
        out.extend_from_slice(&self.key.sim.to_le_bytes());
        out.extend_from_slice(&self.key.spec.to_le_bytes());
        out.extend_from_slice(&self.key.warm.to_le_bytes());
        out.extend_from_slice(&self.key.interval.to_le_bytes());
        out.extend_from_slice(&self.ff_uops.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (tag, bytes) in &self.sections {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        let checksum = fnv1a_64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses and integrity-checks a complete file image.
    pub fn from_bytes(bytes: &[u8]) -> Result<CheckpointRecord, TraceError> {
        let len = bytes.len();
        if len < FIXED_HEADER + FOOTER {
            return Err(TraceError::Truncated {
                len,
                need: FIXED_HEADER + FOOTER,
            });
        }
        if bytes[..8] != CHECKPOINT_MAGIC {
            return Err(TraceError::BadMagic);
        }
        // Integrity first, as in the trace format: a checksum failure must
        // win over whatever a corrupted structure would produce.
        let stored = u64::from_le_bytes(bytes[len - 8..].try_into().unwrap());
        let computed = fnv1a_64(&bytes[..len - 8]);
        if stored != computed {
            return Err(TraceError::ChecksumMismatch { stored, computed });
        }

        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let version = u32_at(8);
        if version != CHECKPOINT_FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let key = CheckpointKey {
            trace: u64_at(12),
            sim: u64_at(20),
            spec: u64_at(28),
            warm: u64_at(36),
            interval: u32_at(44),
        };
        let ff_uops = u64_at(48);
        let section_count = u32_at(56) as usize;

        let mut sections = Vec::with_capacity(section_count);
        let mut at = FIXED_HEADER;
        let end = len - FOOTER;
        for s in 0..section_count {
            if at + 12 > end {
                return Err(TraceError::Malformed(format!(
                    "section {s} header past payload end"
                )));
            }
            let tag = u32_at(at);
            let blen = u64_at(at + 4) as usize;
            at += 12;
            if at + blen > end {
                return Err(TraceError::Malformed(format!(
                    "section {s} length {blen} past payload end"
                )));
            }
            sections.push((tag, bytes[at..at + blen].to_vec()));
            at += blen;
        }
        if at != end {
            return Err(TraceError::Malformed(format!(
                "{} trailing payload bytes after last section",
                end - at
            )));
        }
        Ok(CheckpointRecord {
            key,
            ff_uops,
            sections,
        })
    }

    /// The section bytes stored under `tag`, if present.
    #[must_use]
    pub fn section(&self, tag: u32) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, b)| b.as_slice())
    }
}

/// Checkpoint storage alongside traces in a [`TraceStore`] directory.
impl TraceStore {
    /// The path a checkpoint key maps to.
    #[must_use]
    pub fn checkpoint_path(&self, key: &CheckpointKey) -> PathBuf {
        self.dir().join(key.file_name())
    }

    /// Loads and fully validates the checkpoint stored under `key`; the
    /// embedded key is cross-checked against the lookup key so a renamed
    /// file cannot masquerade.
    pub fn load_checkpoint(&self, key: &CheckpointKey) -> Result<CheckpointRecord, TraceError> {
        let bytes = std::fs::read(self.checkpoint_path(key))?;
        let rec = CheckpointRecord::from_bytes(&bytes)?;
        if rec.key != *key {
            return Err(TraceError::KeyMismatch {
                field: "checkpoint",
                want: key.file_name(),
                found: rec.key.file_name(),
            });
        }
        Ok(rec)
    }

    /// Encodes and atomically writes `record` under its own key,
    /// overwriting any previous file. Returns the bytes written.
    pub fn save_checkpoint(&self, record: &CheckpointRecord) -> Result<u64, TraceError> {
        let image = record.encode();
        write_atomic(self.dir(), &record.key.file_name(), &image)?;
        Ok(image.len() as u64)
    }

    /// Removes the checkpoint stored under `key`, if present. Returns
    /// whether a file was deleted.
    pub fn remove_checkpoint(&self, key: &CheckpointKey) -> std::io::Result<bool> {
        match std::fs::remove_file(self.checkpoint_path(key)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// All checkpoint files in the store, sorted by filename. A missing
    /// store directory is an empty store.
    pub fn checkpoint_entries(&self) -> std::io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        let rd = match std::fs::read_dir(self.dir()) {
            Ok(rd) => rd,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in rd {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some(CHECKPOINT_EXT) {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> CheckpointKey {
        CheckpointKey {
            trace: 0xdead_beef_0123_4567,
            sim: 0x0011_2233_4455_6677,
            spec: 0x8899_aabb_ccdd_eeff,
            warm: 42,
            interval: 7,
        }
    }

    fn record() -> CheckpointRecord {
        CheckpointRecord {
            key: key(),
            ff_uops: 123_456_789,
            sections: vec![
                (1, vec![9, 8, 7, 6, 5]),
                (2, (0..200).collect()),
                (7, vec![]),
            ],
        }
    }

    fn temp_store(tag: &str) -> TraceStore {
        let dir = std::env::temp_dir().join(format!("wsrs-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TraceStore::at(dir)
    }

    #[test]
    fn file_names_round_trip() {
        let k = key();
        assert_eq!(CheckpointKey::parse_file_name(&k.file_name()), Some(k));
        assert_eq!(CheckpointKey::parse_file_name("garbage.txt"), None);
        assert_eq!(CheckpointKey::parse_file_name("ck-1-2-3.wsck"), None);
        assert_eq!(
            CheckpointKey::parse_file_name(&format!("{}.tmp.1.0", k.file_name())),
            None
        );
        assert_eq!(
            CheckpointKey::parse_file_name("gzip-w6-m4-abcdef0123456789.wsrt"),
            None,
            "trace files are foreign"
        );
    }

    #[test]
    fn encode_decode_round_trips() {
        let rec = record();
        let image = rec.encode();
        let back = CheckpointRecord::from_bytes(&image).expect("parse");
        assert_eq!(back, rec);
        assert_eq!(back.section(2).unwrap().len(), 200);
        assert_eq!(back.section(7), Some(&[][..]));
        assert_eq!(back.section(99), None);
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let image = record().encode();
        for at in 0..image.len() {
            let mut bad = image.clone();
            bad[at] ^= 0x40;
            assert!(
                CheckpointRecord::from_bytes(&bad).is_err(),
                "flip at byte {at} accepted"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let image = record().encode();
        for cut in 0..image.len() {
            assert!(
                CheckpointRecord::from_bytes(&image[..cut]).is_err(),
                "truncation to {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut image = record().encode();
        image[8] = 99;
        let n = image.len();
        let sum = fnv1a_64(&image[..n - 8]);
        image[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            CheckpointRecord::from_bytes(&image),
            Err(TraceError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn store_round_trips_and_segregates_from_traces() {
        let store = temp_store("roundtrip");
        let rec = record();
        store.save_checkpoint(&rec).expect("save");
        let back = store.load_checkpoint(&rec.key).expect("load");
        assert_eq!(back, rec);
        // Checkpoints are invisible to the trace listing and vice versa.
        assert!(store.entries().unwrap().is_empty());
        assert_eq!(
            store.checkpoint_entries().unwrap(),
            vec![store.checkpoint_path(&rec.key)]
        );
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_checkpoint_is_not_found() {
        let store = temp_store("missing");
        let err = store.load_checkpoint(&key()).unwrap_err();
        assert!(err.is_not_found(), "{err}");
        assert!(store.checkpoint_entries().unwrap().is_empty());
    }

    #[test]
    fn renamed_checkpoint_is_rejected() {
        let store = temp_store("renamed");
        let rec = record();
        store.save_checkpoint(&rec).unwrap();
        let mut other = rec.key;
        other.interval += 1;
        std::fs::rename(
            store.checkpoint_path(&rec.key),
            store.checkpoint_path(&other),
        )
        .unwrap();
        match store.load_checkpoint(&other) {
            Err(TraceError::KeyMismatch {
                field: "checkpoint",
                ..
            }) => {}
            got => panic!("expected key mismatch, got {got:?}"),
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupted_checkpoint_is_rejected_but_not_not_found() {
        let store = temp_store("corrupt");
        let rec = record();
        store.save_checkpoint(&rec).unwrap();
        let path = store.checkpoint_path(&rec.key);
        let mut image = std::fs::read(&path).unwrap();
        let mid = image.len() / 2;
        image[mid] ^= 0x10;
        std::fs::write(&path, &image).unwrap();
        let err = store.load_checkpoint(&rec.key).unwrap_err();
        assert!(!err.is_not_found());
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
