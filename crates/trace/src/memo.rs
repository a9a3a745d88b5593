//! Memoized cell results: the entries `wsrs-serve` replays instead of
//! re-simulating a cell.
//!
//! A finished cell is a pure function of four identities: the canonical
//! configuration content hash, the content checksum of the trace file the
//! cell consumed, the timing-model revision, and the sampling spec hash
//! (`0` for an exact run). [`MemoKey`] is that quadruple, and an entry
//! maps it to the cell's finished JSON line. An entry is one
//! [frame](crate::artifact), the frame traces and checkpoints share; all
//! integers little-endian:
//!
//! ```text
//! magic          8 bytes   "WSRSMEM1"
//! format_version u32       bumped on any layout change
//! config         u64       SimConfig content hash
//! trace          u64       content checksum of the trace file
//! sim            u64       wsrs_core::sim_revision()
//! spec           u64       SampleSpec content hash, 0 for an exact run
//! line           ..        the cell's JSON line, UTF-8
//! checksum       u64       FNV-1a over every preceding byte
//! ```

use crate::artifact::{Artifact, Frame, StoreKey, TraceError};

/// The memo entry's frame head.
pub const MEMO_FRAME: Frame = Frame {
    magic: *b"WSRSMEM1",
    version: 1,
};

/// The key ahead of the line.
const KEY_BYTES: usize = 4 * 8;

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

/// Always four components: pre-sampling three-part names do not parse,
/// so old entries miss instead of aliasing an exact run.
impl StoreKey for MemoKey {
    const KIND: &'static str = "memo";
    const EXT: &'static str = "json";

    fn file_name(&self) -> String {
        format!(
            "{:016x}-{:016x}-{:016x}-{:016x}.{}",
            self.config,
            self.trace,
            self.sim,
            self.spec,
            Self::EXT
        )
    }

    fn parse_file_name(name: &str) -> Option<MemoKey> {
        let stem = name.strip_suffix(&format!(".{}", Self::EXT))?;
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

/// One memoized cell: its key and its finished JSON line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemoEntry {
    /// The identity the line was produced under.
    pub key: MemoKey,
    /// The cell's line, streamed to clients byte for byte.
    pub line: String,
}

impl MemoEntry {
    /// Serializes the entry into a complete file image, checksum
    /// included.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        MEMO_FRAME.write(KEY_BYTES + self.line.len(), |out| {
            for part in [self.key.config, self.key.trace, self.key.sim, self.key.spec] {
                out.extend_from_slice(&part.to_le_bytes());
            }
            out.extend_from_slice(self.line.as_bytes());
        })
    }
}

impl Artifact for MemoEntry {
    type Key = MemoKey;

    fn from_image(image: Vec<u8>) -> Result<MemoEntry, TraceError> {
        let body = MEMO_FRAME.read(&image, KEY_BYTES)?;
        let u64_at = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
        let line = std::str::from_utf8(&body[KEY_BYTES..])
            .map_err(|_| TraceError::Malformed("memo line is not UTF-8".into()))?;
        Ok(MemoEntry {
            key: MemoKey {
                config: u64_at(0),
                trace: u64_at(8),
                sim: u64_at(16),
                spec: u64_at(24),
            },
            line: line.to_string(),
        })
    }

    fn key(&self) -> MemoKey {
        self.key
    }
}
