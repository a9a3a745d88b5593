//! The content-addressed cell-result store.
//!
//! A finished cell is a pure function of four identities: the canonical
//! configuration content hash ([`wsrs_core::SimConfig::content_hash`]),
//! the content checksum of the trace file the cell consumed, the
//! timing-model revision ([`wsrs_core::sim_revision`]), and the sampling
//! spec hash ([`wsrs_core::SampleSpec::content_hash`] — `0` for an exact
//! run). The memo store maps that quadruple ([`MemoKey`]) to the cell's
//! finished JSON line, so resubmitting a grid replays bytes from disk
//! instead of re-simulating — and any change to a configuration, a
//! workload kernel, the emulator, the timing model, or the sampling plan
//! changes a key component and simply misses.
//!
//! Entries are one file per cell, named by the key and written atomically
//! (temp file + rename), so a killed server never leaves a partial entry
//! behind. Each entry is a checksummed [`MemoEntry`] frame carrying its
//! own key, the frame traces and checkpoints share. An entry that fails
//! the frame or the key check — truncated, bit-flipped, renamed, or
//! written before entries were framed — is a miss: the cell re-simulates
//! and the entry is overwritten.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

pub use wsrs_trace::MemoKey;
use wsrs_trace::{load, walk, write_atomic, MemoEntry, StoreKey};

/// What a [`MemoStore::gc`] pass found (and, unless dry-run, removed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Verified entries keyed to the current `sim_revision` — kept.
    pub kept: u64,
    /// Entries keyed to a different (older) timing-model revision.
    pub stale: u64,
    /// `.json` files whose name is not a [`MemoKey`]'s (legacy-format or
    /// foreign names) or whose content fails the frame or key check.
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

    /// Looks `key` up; returns the memoized cell line on a hit. An entry
    /// that fails verification is a miss, reported on stderr.
    #[must_use]
    pub fn load(&self, key: MemoKey) -> Option<String> {
        match load::<MemoEntry>(&self.dir, &key) {
            Ok(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.line)
            }
            Err(e) => {
                if !e.is_not_found() {
                    eprintln!(
                        "wsrs-serve: memo entry {} unusable ({e}); re-simulating",
                        key.file_name()
                    );
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Atomically writes `line` under `key` ([`write_atomic`] — concurrent
    /// writers and abrupt kills never expose partial entries).
    pub fn store(&self, key: MemoKey, line: &str) -> std::io::Result<()> {
        let entry = MemoEntry {
            key,
            line: line.to_string(),
        };
        write_atomic(&self.dir, &key.file_name(), &entry.encode())?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Number of entries on disk whose name is a [`MemoKey`]'s (a missing
    /// directory is an empty store).
    #[must_use]
    pub fn entry_count(&self) -> usize {
        walk::<MemoKey>(&self.dir).map_or(0, |es| es.iter().filter(|e| e.key.is_some()).count())
    }

    /// Garbage-collects the store: removes `.json` entries whose `sim`
    /// key component differs from `current_sim` (results from an older
    /// timing model — they can never hit again), `.json` files that do
    /// not parse as a [`MemoKey`] at all (e.g. pre-sampling three-part
    /// names), and current entries that fail the frame or key check.
    /// Non-`.json` files are left alone. With `dry_run` nothing is
    /// deleted; the report says what would go.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing and file-removal errors; a missing
    /// store directory is an empty store and reports zeros.
    pub fn gc(&self, current_sim: u64, dry_run: bool) -> std::io::Result<GcReport> {
        let mut report = GcReport::default();
        for entry in walk::<MemoKey>(&self.dir)? {
            let tally = match entry.key {
                Some(key) if key.sim != current_sim => &mut report.stale,
                Some(key) if load::<MemoEntry>(&self.dir, &key).is_ok() => {
                    report.kept += 1;
                    continue;
                }
                _ => &mut report.malformed,
            };
            *tally += 1;
            if !dry_run {
                std::fs::remove_file(&entry.path)?;
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
        // A current-revision entry with one flipped byte, and one holding
        // the plain JSON line entries carried before they were framed.
        let flipped = MemoKey {
            config: 3,
            ..current
        };
        store.store(flipped, "e").unwrap();
        let path = dir.join(flipped.file_name());
        let mut image = std::fs::read(&path).unwrap();
        image[20] ^= 0x01;
        std::fs::write(&path, image).unwrap();
        let plain = MemoKey {
            config: 4,
            ..current
        };
        std::fs::write(dir.join(plain.file_name()), "{\"ipc\":1.5}").unwrap();
        // A legacy three-part entry and a foreign file.
        std::fs::write(
            dir.join("0000000000000001-0000000000000002-0000000000000029.json"),
            "d",
        )
        .unwrap();
        std::fs::write(dir.join("README.txt"), "not an entry").unwrap();

        let dry = store.gc(42, true).unwrap();
        assert_eq!((dry.kept, dry.stale, dry.malformed), (2, 1, 3));
        assert_eq!(store.entry_count(), 5, "dry run must delete nothing");

        let real = store.gc(42, false).unwrap();
        assert_eq!((real.kept, real.stale, real.malformed), (2, 1, 3));
        assert_eq!(store.entry_count(), 2);
        assert!(store.load(current).is_some());
        assert!(store.load(sampled).is_some());
        assert!(store.load(stale).is_none());
        assert!(dir.join("README.txt").is_file(), "foreign files survive");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
