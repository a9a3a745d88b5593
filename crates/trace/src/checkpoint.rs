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
//! interprets (`wsrs-trace` must not depend on `wsrs-core`). A checkpoint
//! file is one [frame](crate::artifact), the frame traces and memo
//! entries share; all integers little-endian:
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
//! atomically and loaded through the same key check ([`crate::load`]).

use crate::artifact::{load, write_atomic, Artifact, Frame, StoreKey, TraceError};
use crate::store::TraceStore;

/// The checkpoint file's frame head.
pub const CHECKPOINT_FRAME: Frame = Frame {
    magic: *b"WSRSCKP1",
    version: 1,
};

/// Fixed-size portion of the body preceding the sections.
const FIXED_BODY: usize = 8 + 8 + 8 + 8 + 4 + 8 + 4;

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

impl StoreKey for CheckpointKey {
    const KIND: &'static str = "checkpoint";
    const EXT: &'static str = "wsck";

    fn file_name(&self) -> String {
        format!(
            "ck-{:016x}-{:016x}-{:016x}-{:016x}-i{}.{}",
            self.trace,
            self.sim,
            self.spec,
            self.warm,
            self.interval,
            Self::EXT
        )
    }

    fn parse_file_name(name: &str) -> Option<CheckpointKey> {
        let stem = name
            .strip_prefix("ck-")?
            .strip_suffix(&format!(".{}", Self::EXT))?;
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
        CHECKPOINT_FRAME.write(FIXED_BODY + body, |out| {
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

impl Artifact for CheckpointRecord {
    type Key = CheckpointKey;

    fn from_image(image: Vec<u8>) -> Result<CheckpointRecord, TraceError> {
        let body = CHECKPOINT_FRAME.read(&image, FIXED_BODY)?;
        let u32_at = |at: usize| u32::from_le_bytes(body[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
        let key = CheckpointKey {
            trace: u64_at(0),
            sim: u64_at(8),
            spec: u64_at(16),
            warm: u64_at(24),
            interval: u32_at(32),
        };
        let ff_uops = u64_at(36);
        let section_count = u32_at(44) as usize;

        let end = body.len();
        // Each section takes at least 12 bytes: bound the count read from
        // the file before allocating for it.
        let mut sections = Vec::with_capacity(section_count.min(end / 12));
        let mut at = FIXED_BODY;
        for s in 0..section_count {
            if at + 12 > end {
                return Err(TraceError::Malformed(format!(
                    "section {s} header past payload end"
                )));
            }
            let tag = u32_at(at);
            let blen = u64_at(at + 4) as usize;
            at += 12;
            if blen > end - at {
                return Err(TraceError::Malformed(format!(
                    "section {s} length {blen} past payload end"
                )));
            }
            sections.push((tag, body[at..at + blen].to_vec()));
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

    fn key(&self) -> CheckpointKey {
        self.key
    }
}

/// Checkpoint storage alongside traces in a [`TraceStore`] directory.
impl TraceStore {
    /// Loads and fully validates the checkpoint stored under `key`,
    /// embedded key included.
    pub fn load_checkpoint(&self, key: &CheckpointKey) -> Result<CheckpointRecord, TraceError> {
        load(self.dir(), key)
    }

    /// Encodes and atomically writes `record` under its own key,
    /// overwriting any previous file. Returns the bytes written.
    pub fn save_checkpoint(&self, record: &CheckpointRecord) -> Result<u64, TraceError> {
        let image = record.encode();
        write_atomic(self.dir(), &record.key.file_name(), &image)?;
        Ok(image.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::walk;
    use crate::memo::{MemoEntry, MemoKey};
    use wsrs_isa::fnv1a_64;

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

    fn memo() -> MemoEntry {
        MemoEntry {
            key: MemoKey {
                config: 0x0123_4567_89ab_cdef,
                trace: 0xdead_beef_0123_4567,
                sim: 0x0011_2233_4455_6677,
                spec: 0,
            },
            line: "{\"workload\":\"gzip\",\"config\":\"RR 256\",\"ipc\":1.5}".into(),
        }
    }

    /// Whether `image` parses as its kind: the corruption table runs over
    /// a checkpoint and a memo entry, which share one frame.
    type Parses = fn(Vec<u8>) -> bool;

    fn kinds() -> [(&'static str, Vec<u8>, Parses); 2] {
        [
            ("checkpoint", record().encode(), |i| {
                CheckpointRecord::from_image(i).is_ok()
            }),
            ("memo", memo().encode(), |i| {
                MemoEntry::from_image(i).is_ok()
            }),
        ]
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
        let back = CheckpointRecord::from_image(rec.encode()).expect("parse");
        assert_eq!(back, rec);
        assert_eq!(back.section(2).unwrap().len(), 200);
        assert_eq!(back.section(7), Some(&[][..]));
        assert_eq!(back.section(99), None);
        let entry = memo();
        assert_eq!(MemoEntry::from_image(entry.encode()).expect("parse"), entry);
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        for (kind, image, parses) in kinds() {
            assert!(parses(image.clone()), "{kind}: clean image rejected");
            for at in 0..image.len() {
                let mut bad = image.clone();
                bad[at] ^= 0x40;
                assert!(!parses(bad), "{kind}: flip at byte {at} accepted");
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        for (kind, image, parses) in kinds() {
            for cut in 0..image.len() {
                assert!(
                    !parses(image[..cut].to_vec()),
                    "{kind}: truncation to {cut} bytes accepted"
                );
            }
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
            CheckpointRecord::from_image(image),
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
        assert!(walk::<crate::TraceKey>(store.dir()).unwrap().is_empty());
        let listed = walk::<CheckpointKey>(store.dir()).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].key, Some(rec.key));
        assert_eq!(listed[0].path, store.dir().join(rec.key.file_name()));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_checkpoint_is_not_found() {
        let store = temp_store("missing");
        let err = store.load_checkpoint(&key()).unwrap_err();
        assert!(err.is_not_found(), "{err}");
        assert!(walk::<CheckpointKey>(store.dir()).unwrap().is_empty());
    }

    /// Writes `image` under `key`, renames it onto `other`'s name and
    /// demands that loading `other` is a key mismatch of `A`'s kind.
    fn assert_rename_rejected<A: Artifact + std::fmt::Debug>(
        dir: &std::path::Path,
        image: &[u8],
        key: &A::Key,
        other: &A::Key,
    ) {
        write_atomic(dir, &key.file_name(), image).unwrap();
        std::fs::rename(dir.join(key.file_name()), dir.join(other.file_name())).unwrap();
        match load::<A>(dir, other) {
            Err(TraceError::KeyMismatch { kind, .. }) => assert_eq!(kind, A::Key::KIND),
            got => panic!("{}: expected key mismatch, got {got:?}", A::Key::KIND),
        }
    }

    #[test]
    fn renamed_checkpoint_is_rejected() {
        let store = temp_store("renamed");
        let rec = record();
        let mut other = rec.key;
        other.interval += 1;
        assert_rename_rejected::<CheckpointRecord>(store.dir(), &rec.encode(), &rec.key, &other);
        let entry = memo();
        let other = MemoKey {
            config: entry.key.config ^ 1,
            ..entry.key
        };
        assert_rename_rejected::<MemoEntry>(store.dir(), &entry.encode(), &entry.key, &other);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupted_checkpoint_is_rejected_but_not_not_found() {
        let store = temp_store("corrupt");
        let rec = record();
        store.save_checkpoint(&rec).unwrap();
        let path = store.dir().join(rec.key.file_name());
        let mut image = std::fs::read(&path).unwrap();
        let mid = image.len() / 2;
        image[mid] ^= 0x10;
        std::fs::write(&path, &image).unwrap();
        let err = store.load_checkpoint(&rec.key).unwrap_err();
        assert!(!err.is_not_found());
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
