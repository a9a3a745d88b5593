//! The on-disk trace store: a directory of keyed trace files.
//!
//! Files are named `{workload}-w{warmup}-m{measure}-{rev:016x}.wsrt`, so
//! the lookup key *is* the filename: a kernel or emulator change alters
//! `rev` and simply misses the stale file, which `trace rm --stale` can
//! then garbage-collect. Saves are atomic (write to a temp file, then
//! rename) so concurrent recorders never expose half-written traces.

use std::path::{Path, PathBuf};

use wsrs_isa::DynInst;

use crate::file::{self, TraceError, TraceFile, TraceHeader, DEFAULT_BLOCK_UOPS};

/// Extension of trace files inside a store directory.
pub const TRACE_EXT: &str = "wsrt";

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

impl TraceKey {
    /// The store filename this key maps to.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!(
            "{}-w{}-m{}-{:016x}.{TRACE_EXT}",
            self.workload, self.warmup, self.measure, self.rev
        )
    }

    /// Parses a store filename back into its key. Returns `None` for
    /// foreign files.
    #[must_use]
    pub fn parse_file_name(name: &str) -> Option<TraceKey> {
        let stem = name.strip_suffix(&format!(".{TRACE_EXT}"))?;
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

/// A directory of trace files addressed by [`TraceKey`].
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
    /// Beyond the file's own integrity checksum (checked first), the
    /// header is cross-checked against the key, so a renamed or colliding
    /// file cannot masquerade as the wrong trace, and the record count
    /// must fit the declared window. Stream the µops with
    /// [`TraceFile::uops_from`], or decode them all with [`TraceStore::load`].
    pub fn open(&self, key: &TraceKey) -> Result<TraceFile, TraceError> {
        let file = TraceFile::open(&self.path_for(key))?;
        let h = file.header();
        validate(key, h)?;
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
        let checksum = file::checksum_of(&image);
        let path = self.path_for(key);
        std::fs::create_dir_all(&self.dir)?;
        let tmp = self
            .dir
            .join(format!("{}.tmp.{}", key.file_name(), std::process::id()));
        std::fs::write(&tmp, &image)?;
        std::fs::rename(&tmp, &path)?;
        Ok(SavedTrace {
            path,
            checksum,
            bytes: image.len() as u64,
        })
    }

    /// Removes the trace stored under `key`, if present. Returns whether a
    /// file was deleted.
    pub fn remove(&self, key: &TraceKey) -> std::io::Result<bool> {
        match std::fs::remove_file(self.path_for(key)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// All trace files in the store, sorted by filename. A missing store
    /// directory is an empty store.
    pub fn entries(&self) -> std::io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        let rd = match std::fs::read_dir(&self.dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in rd {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some(TRACE_EXT) {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }
}

fn validate(key: &TraceKey, h: &TraceHeader) -> Result<(), TraceError> {
    if h.workload != key.workload {
        return Err(TraceError::KeyMismatch {
            field: "workload",
            want: key.workload.clone(),
            found: h.workload.clone(),
        });
    }
    if h.rev != key.rev {
        return Err(TraceError::KeyMismatch {
            field: "rev",
            want: format!("{:016x}", key.rev),
            found: format!("{:016x}", h.rev),
        });
    }
    if (h.warmup, h.measure) != (key.warmup, key.measure) {
        return Err(TraceError::KeyMismatch {
            field: "window",
            want: format!("w{}+m{}", key.warmup, key.measure),
            found: format!("w{}+m{}", h.warmup, h.measure),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(store.entries().unwrap(), vec![saved.path]);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn missing_file_is_not_found() {
        let store = temp_store("missing");
        let err = store.load(&key()).unwrap_err();
        assert!(err.is_not_found(), "{err}");
        assert!(store.entries().unwrap().is_empty());
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
            Err(TraceError::KeyMismatch { field: "rev", .. })
        ));
        match store.load(&other) {
            Err(TraceError::KeyMismatch { field: "rev", .. }) => {}
            other => panic!("expected rev mismatch, got {other:?}"),
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
            Err(TraceError::KeyMismatch {
                field: "window", ..
            }) => {}
            got => panic!("expected window mismatch, got {got:?}"),
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
