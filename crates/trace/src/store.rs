//! The on-disk trace store: a directory of keyed trace files.
//!
//! Files are named `{workload}-w{warmup}-m{measure}-{rev:016x}.wsrt`, so
//! the lookup key *is* the filename: a kernel or emulator change alters
//! `rev` and simply misses the stale file, which `trace rm --stale` can
//! then garbage-collect. Saves are atomic ([`write_atomic`]) so
//! concurrent recorders never expose half-written traces.

use std::path::{Path, PathBuf};

use wsrs_isa::DynInst;

use crate::artifact::{checksum_of, load, write_atomic, Artifact, StoreKey, TraceError};
use crate::file::{self, TraceFile, TraceHeader, DEFAULT_BLOCK_UOPS};

/// The lookup key of one stored trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceKey {
    /// Workload name, e.g. `"gzip"`.
    pub workload: String,
    /// Warmup window bound (µops).
    pub warmup: u64,
    /// Measure window bound (µops).
    pub measure: u64,
    /// Trace key revision — `Workload::trace_fingerprint()`.
    pub rev: u64,
}

impl StoreKey for TraceKey {
    const KIND: &'static str = "trace";
    const EXT: &'static str = "wsrt";

    fn file_name(&self) -> String {
        format!(
            "{}-w{}-m{}-{:016x}.{}",
            self.workload,
            self.warmup,
            self.measure,
            self.rev,
            Self::EXT
        )
    }

    fn parse_file_name(name: &str) -> Option<TraceKey> {
        let stem = name.strip_suffix(&format!(".{}", Self::EXT))?;
        // Fields are dash-separated from the right: workload names may not
        // contain dashes, but parse defensively anyway.
        let (rest, rev) = stem.rsplit_once('-')?;
        let rev = u64::from_str_radix(rev, 16).ok()?;
        let (rest, measure) = rest.rsplit_once('-')?;
        let measure = measure.strip_prefix('m')?.parse().ok()?;
        let (workload, warmup) = rest.rsplit_once('-')?;
        let warmup = warmup.strip_prefix('w')?.parse().ok()?;
        if workload.is_empty() {
            return None;
        }
        Some(TraceKey {
            workload: workload.to_string(),
            warmup,
            measure,
            rev,
        })
    }
}

/// A trace file's embedded key is its header's workload, window and
/// revision.
impl Artifact for TraceFile {
    type Key = TraceKey;

    fn from_image(image: Vec<u8>) -> Result<TraceFile, TraceError> {
        TraceFile::from_bytes(image)
    }

    fn key(&self) -> TraceKey {
        let h = self.header();
        TraceKey {
            workload: h.workload.clone(),
            warmup: h.warmup,
            measure: h.measure,
            rev: h.rev,
        }
    }
}

/// A trace successfully loaded from the store.
#[derive(Debug)]
pub struct LoadedTrace {
    /// The full decoded µop stream (warmup + measure window).
    pub uops: Vec<DynInst>,
    /// The file's verified content checksum.
    pub checksum: u64,
    /// Bytes read from disk.
    pub bytes: u64,
}

/// Receipt for a trace written to the store.
#[derive(Debug)]
pub struct SavedTrace {
    /// Where the file landed.
    pub path: PathBuf,
    /// Content checksum of the written image.
    pub checksum: u64,
    /// Bytes written.
    pub bytes: u64,
}

/// A directory of trace files addressed by [`TraceKey`], with warmup
/// checkpoints ([`crate::checkpoint`]) alongside.
#[derive(Clone, Debug)]
pub struct TraceStore {
    dir: PathBuf,
}

impl TraceStore {
    /// A store rooted at `dir`. The directory is created lazily on first
    /// save.
    pub fn at(dir: impl Into<PathBuf>) -> TraceStore {
        TraceStore { dir: dir.into() }
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path a key maps to.
    #[must_use]
    pub fn path_for(&self, key: &TraceKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Opens and validates the trace stored under `key` without decoding
    /// its payload.
    ///
    /// Beyond the frame's checksum and the key check ([`load`]), the
    /// record count must fit the declared window. Stream the µops with
    /// [`TraceFile::uops_from`], or decode them all with [`TraceStore::load`].
    pub fn open(&self, key: &TraceKey) -> Result<TraceFile, TraceError> {
        let file: TraceFile = load(&self.dir, key)?;
        let h = file.header();
        // Shorter is legal (the workload halted inside the window); longer
        // means the file does not match its own declared window.
        if h.uop_count > h.warmup + h.measure {
            return Err(TraceError::Malformed(format!(
                "uop_count {} exceeds window {} + {}",
                h.uop_count, h.warmup, h.measure
            )));
        }
        Ok(file)
    }

    /// Opens the trace stored under `key` ([`TraceStore::open`]) and
    /// decodes all of it.
    pub fn load(&self, key: &TraceKey) -> Result<LoadedTrace, TraceError> {
        let file = self.open(key)?;
        Ok(LoadedTrace {
            checksum: file.checksum(),
            bytes: file.size_bytes(),
            uops: file.read_all()?,
        })
    }

    /// Encodes and atomically writes `uops` under `key`, overwriting any
    /// previous file.
    pub fn save(&self, key: &TraceKey, uops: &[DynInst]) -> Result<SavedTrace, TraceError> {
        let header = TraceHeader {
            rev: key.rev,
            warmup: key.warmup,
            measure: key.measure,
            uop_count: uops.len() as u64,
            block_uops: DEFAULT_BLOCK_UOPS,
            workload: key.workload.clone(),
        };
        let image = file::encode(&header, uops);
        write_atomic(&self.dir, &key.file_name(), &image)?;
        Ok(SavedTrace {
            path: self.path_for(key),
            checksum: checksum_of(&image),
            bytes: image.len() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::walk;
    use wsrs_isa::{Opcode, Reg};

    fn temp_store(tag: &str) -> TraceStore {
        let dir =
            std::env::temp_dir().join(format!("wsrs-trace-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TraceStore::at(dir)
    }

    fn key() -> TraceKey {
        TraceKey {
            workload: "gzip".into(),
            warmup: 6,
            measure: 4,
            rev: 0xabcd_ef01_2345_6789,
        }
    }

    fn uops(n: usize) -> Vec<DynInst> {
        (0..n)
            .map(|i| {
                let mut d = DynInst::new(i as u64, Opcode::Add);
                d.dst = Some(Reg::new(1).into());
                d
            })
            .collect()
    }

    #[test]
    fn file_names_round_trip() {
        let k = key();
        assert_eq!(
            k.file_name(),
            "gzip-w6-m4-abcdef0123456789.wsrt".to_string()
        );
        assert_eq!(
            TraceKey::parse_file_name(&format!("{}.tmp.1.0", k.file_name())),
            None,
            "temp files are not traces"
        );
        assert_eq!(TraceKey::parse_file_name(&k.file_name()), Some(k));
        assert_eq!(TraceKey::parse_file_name("garbage.txt"), None);
        assert_eq!(TraceKey::parse_file_name("x.wsrt"), None);
    }

    #[test]
    fn save_load_round_trip() {
        let store = temp_store("roundtrip");
        let k = key();
        let us = uops(10);
        let saved = store.save(&k, &us).expect("save");
        let loaded = store.load(&k).expect("load");
        assert_eq!(loaded.uops, us);
        assert_eq!(loaded.checksum, saved.checksum);
        assert_eq!(loaded.bytes, saved.bytes);
        let opened = store.open(&k).expect("open");
        assert_eq!(opened.checksum(), saved.checksum);
        assert_eq!(opened.uops_from(0).collect::<Vec<_>>(), us);
        let listed = walk::<TraceKey>(store.dir()).unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!((&listed[0].path, &listed[0].key), (&saved.path, &Some(k)));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_file_is_not_found() {
        let store = temp_store("missing");
        let err = store.load(&key()).unwrap_err();
        assert!(err.is_not_found(), "{err}");
        assert!(walk::<TraceKey>(store.dir()).unwrap().is_empty());
    }

    #[test]
    fn mismatched_header_is_rejected() {
        let store = temp_store("mismatch");
        let k = key();
        store.save(&k, &uops(10)).unwrap();
        // Pretend the file belongs to a different revision by renaming it
        // onto another key's slot.
        let mut other = k.clone();
        other.rev ^= 1;
        std::fs::rename(store.path_for(&k), store.path_for(&other)).unwrap();
        assert!(matches!(
            store.open(&other),
            Err(TraceError::KeyMismatch { kind: "trace", .. })
        ));
        match store.load(&other) {
            Err(TraceError::KeyMismatch { kind: "trace", .. }) => {}
            other => panic!("expected a key mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupted_file_is_rejected_but_not_not_found() {
        let store = temp_store("corrupt");
        let k = key();
        let saved = store.save(&k, &uops(10)).unwrap();
        let mut image = std::fs::read(&saved.path).unwrap();
        let mid = image.len() / 2;
        image[mid] ^= 0x10;
        std::fs::write(&saved.path, &image).unwrap();
        let err = store.load(&k).unwrap_err();
        assert!(!err.is_not_found());
        assert!(matches!(err, TraceError::ChecksumMismatch { .. }), "{err}");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn window_mismatch_is_rejected() {
        let store = temp_store("window");
        let k = key();
        store.save(&k, &uops(10)).unwrap();
        let mut other = k.clone();
        other.warmup = 7;
        std::fs::rename(store.path_for(&k), store.path_for(&other)).unwrap();
        match store.load(&other) {
            Err(TraceError::KeyMismatch { kind: "trace", .. }) => {}
            got => panic!("expected a key mismatch, got {got:?}"),
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn concurrent_saves_of_one_key_all_land() {
        // Threads of one process recording the same trace (two jobs on a
        // cold store) must each get `Ok`, and readers must only ever see
        // a complete file.
        const THREADS: usize = 4;
        const ROUNDS: usize = 25;
        let store = temp_store("concurrent");
        let us = uops(20_000);
        let k = TraceKey {
            warmup: 0,
            measure: us.len() as u64,
            ..key()
        };
        let start = std::sync::Barrier::new(THREADS);
        let failures: Vec<String> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        let mut failed = Vec::new();
                        for _ in 0..ROUNDS {
                            start.wait();
                            if let Err(e) = store.save(&k, &us) {
                                failed.push(format!("save: {e}"));
                            }
                            if let Err(e) = store.open(&k) {
                                failed.push(format!("open: {e}"));
                            }
                        }
                        failed
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        assert!(
            failures.is_empty(),
            "{} failures: {failures:?}",
            failures.len()
        );
        assert_eq!(store.load(&k).expect("load after the race").uops, us);
        let leftovers = std::fs::read_dir(store.dir()).unwrap().count();
        assert_eq!(leftovers, 1, "temp files left behind");
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
