//! The content-addressed cell-result store.
//!
//! A finished cell is a pure function of four identities: the canonical
//! configuration content hash ([`wsrs_core::SimConfig::content_hash`]),
//! the content checksum of the trace file the cell consumed, the
//! timing-model revision ([`wsrs_core::sim_revision`]), and the sampling
//! spec hash ([`wsrs_core::SampleSpec::content_hash`] — `0` for an exact
//! run). The memo store maps that quadruple to the cell's finished JSON
//! line, so resubmitting a grid replays bytes from disk instead of
//! re-simulating — and any change to a configuration, a workload kernel,
//! the emulator, the timing model, or the sampling plan changes a key
//! component and simply misses.
//!
//! Entries are one file per cell, named by the key, written atomically
//! (temp file + rename) so a killed server never leaves a partial entry
//! behind: a `.json` file either exists with complete contents or does
//! not exist.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The content-addressed identity of one finished cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// `SimConfig::content_hash()` of the cell's configuration.
    pub config: u64,
    /// Content checksum of the trace file the cell consumed.
    pub trace: u64,
    /// `wsrs_core::sim_revision()` of the simulator that ran it.
    pub sim: u64,
    /// `SampleSpec::content_hash()` when the cell ran interval-sampled,
    /// `0` for an exact run — sampled and exact results never collide.
    pub spec: u64,
}

impl MemoKey {
    /// The entry filename this key maps to. Always four components —
    /// pre-sampling three-part entries simply stop parsing and miss
    /// (they are garbage-collected by `wsrs-serve gc`).
    #[must_use]
    pub fn file_name(&self) -> String {
        format!(
            "{:016x}-{:016x}-{:016x}-{:016x}.json",
            self.config, self.trace, self.sim, self.spec
        )
    }

    /// Parses an entry filename back into its key; `None` for foreign
    /// files (including pre-sampling three-part names).
    #[must_use]
    pub fn parse_file_name(name: &str) -> Option<MemoKey> {
        let stem = name.strip_suffix(".json")?;
        let mut parts = stem.split('-');
        let config = u64::from_str_radix(parts.next()?, 16).ok()?;
        let trace = u64::from_str_radix(parts.next()?, 16).ok()?;
        let sim = u64::from_str_radix(parts.next()?, 16).ok()?;
        let spec = u64::from_str_radix(parts.next()?, 16).ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(MemoKey {
            config,
            trace,
            sim,
            spec,
        })
    }
}

/// What a [`MemoStore::gc`] pass found (and, unless dry-run, removed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries keyed to the current `sim_revision` — always kept.
    pub kept: u64,
    /// Entries keyed to a different (older) timing-model revision.
    pub stale: u64,
    /// `.json` files that do not parse as a [`MemoKey`] (legacy-format
    /// or foreign names).
    pub malformed: u64,
}

/// Aggregate memo-store counters (served by `GET /v1/stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that fell through to simulation.
    pub misses: u64,
    /// Entries written this run.
    pub writes: u64,
}

/// A directory of memoized cell results addressed by [`MemoKey`].
#[derive(Debug)]
pub struct MemoStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
}

impl MemoStore {
    /// A store rooted at `dir`, created lazily on first write.
    pub fn at(dir: impl Into<PathBuf>) -> MemoStore {
        MemoStore {
            dir: dir.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    /// The store's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks `key` up; returns the memoized cell line on a hit.
    #[must_use]
    pub fn load(&self, key: MemoKey) -> Option<String> {
        match std::fs::read_to_string(self.dir.join(key.file_name())) {
            Ok(line) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(line)
            }
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Atomically writes `line` under `key` ([`wsrs_trace::write_atomic`]
    /// — concurrent writers and abrupt kills never expose partial entries).
    pub fn store(&self, key: MemoKey, line: &str) -> std::io::Result<()> {
        wsrs_trace::write_atomic(&self.dir, &key.file_name(), line.as_bytes())?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Number of complete entries on disk (a missing directory is an
    /// empty store).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        rd.filter_map(Result::ok)
            .filter(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| MemoKey::parse_file_name(n).is_some())
            })
            .count()
    }

    /// Garbage-collects the store: removes `.json` entries whose `sim`
    /// key component differs from `current_sim` (results from an older
    /// timing model — they can never hit again) and `.json` files that
    /// do not parse as a [`MemoKey`] at all (e.g. pre-sampling
    /// three-part names). Non-`.json` files are left alone. With
    /// `dry_run` nothing is deleted; the report says what would go.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing and file-removal errors; a missing
    /// store directory is an empty store and reports zeros.
    pub fn gc(&self, current_sim: u64, dry_run: bool) -> std::io::Result<GcReport> {
        let mut report = GcReport::default();
        let rd = match std::fs::read_dir(&self.dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
            Err(e) => return Err(e),
        };
        for entry in rd {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.ends_with(".json") {
                continue;
            }
            match MemoKey::parse_file_name(name) {
                Some(key) if key.sim == current_sim => report.kept += 1,
                Some(_) => {
                    report.stale += 1;
                    if !dry_run {
                        std::fs::remove_file(entry.path())?;
                    }
                }
                None => {
                    report.malformed += 1;
                    if !dry_run {
                        std::fs::remove_file(entry.path())?;
                    }
                }
            }
        }
        Ok(report)
    }

    /// This run's counters.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wsrs-memo-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn key_file_name_round_trips() {
        let key = MemoKey {
            config: 0xdead_beef_0123_4567,
            trace: 1,
            sim: u64::MAX,
            spec: 0x0123_4567_89ab_cdef,
        };
        assert_eq!(MemoKey::parse_file_name(&key.file_name()), Some(key));
        assert_eq!(MemoKey::parse_file_name("stray.json"), None);
        assert_eq!(MemoKey::parse_file_name("a-b-c-d-e.json"), None);
        // The pre-sampling three-part format no longer parses: old
        // entries miss instead of aliasing an exact run.
        assert_eq!(
            MemoKey::parse_file_name(&format!(
                "{:016x}-{:016x}-{:016x}.json",
                key.config, key.trace, key.sim
            )),
            None
        );
        assert_eq!(
            MemoKey::parse_file_name(&format!("{}.tmp.123.0", key.file_name())),
            None
        );
    }

    #[test]
    fn store_round_trips_and_counts() {
        let dir = temp_dir("roundtrip");
        let store = MemoStore::at(&dir);
        let key = MemoKey {
            config: 7,
            trace: 8,
            sim: 9,
            spec: 0,
        };
        assert_eq!(store.load(key), None);
        store.store(key, "{\"ipc\":1.5}").unwrap();
        assert_eq!(store.load(key), Some("{\"ipc\":1.5}".to_string()));
        assert_eq!(store.entry_count(), 1);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tmp_files_are_not_entries() {
        let dir = temp_dir("tmp");
        let store = MemoStore::at(&dir);
        let key = MemoKey {
            config: 1,
            trace: 2,
            sim: 3,
            spec: 0,
        };
        store.store(key, "x").unwrap();
        std::fs::write(
            dir.join(format!("{}.tmp.999.0", key.file_name())),
            "partial",
        )
        .unwrap();
        assert_eq!(store.entry_count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_prunes_stale_sim_and_legacy_names_but_honors_dry_run() {
        let dir = temp_dir("gc");
        let store = MemoStore::at(&dir);
        let current = MemoKey {
            config: 1,
            trace: 2,
            sim: 42,
            spec: 0,
        };
        let sampled = MemoKey { spec: 7, ..current };
        let stale = MemoKey { sim: 41, ..current };
        store.store(current, "a").unwrap();
        store.store(sampled, "b").unwrap();
        store.store(stale, "c").unwrap();
        // A legacy three-part entry and a foreign file.
        std::fs::write(
            dir.join("0000000000000001-0000000000000002-0000000000000029.json"),
            "d",
        )
        .unwrap();
        std::fs::write(dir.join("README.txt"), "not an entry").unwrap();

        let dry = store.gc(42, true).unwrap();
        assert_eq!((dry.kept, dry.stale, dry.malformed), (2, 1, 1));
        assert_eq!(store.entry_count(), 3, "dry run must delete nothing");

        let real = store.gc(42, false).unwrap();
        assert_eq!((real.kept, real.stale, real.malformed), (2, 1, 1));
        assert_eq!(store.entry_count(), 2);
        assert!(store.load(current).is_some());
        assert!(store.load(sampled).is_some());
        assert!(store.load(stale).is_none());
        assert!(dir.join("README.txt").is_file(), "foreign files survive");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
