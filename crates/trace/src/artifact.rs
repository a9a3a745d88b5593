//! One home for how a stored artifact is framed, verified and listed.
//!
//! The store holds three kinds of artifact: µop traces ([`crate::file`]),
//! warmup checkpoints ([`crate::checkpoint`]) and memoized cell results
//! ([`crate::memo`]). All three share one frame, little-endian:
//!
//! ```text
//! magic     8 bytes   names the kind and its first format generation
//! version   u32       bumped on any layout change of the body
//! body      ..        the kind's own layout, which begins with its key
//! checksum  u64       FNV-1a over every preceding byte
//! ```
//!
//! [`Frame::read`] checks length, then magic, then checksum, then version,
//! so a checksum failure wins over whatever a corrupted structure would
//! produce. Each kind's key names its file ([`StoreKey`]) and is embedded
//! in the body; [`load`] rejects a file whose embedded key differs from
//! the key it was looked up by, so a renamed file cannot masquerade.
//! [`walk`] lists one kind's files in a directory, and [`write_atomic`]
//! publishes a file so readers never see it half written.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use wsrs_isa::fnv1a_64;

use crate::codec::CodecError;

/// Bytes of the frame ahead of the body: magic and version.
pub const FRAME_HEAD: usize = 8 + 4;
/// Bytes of the frame after the body: the checksum.
pub const FRAME_TAIL: usize = 8;

/// Errors surfaced while reading or validating a stored artifact.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file is shorter than its own structure requires.
    Truncated { len: usize, need: usize },
    /// The magic bytes are wrong: not a file of the expected kind.
    BadMagic,
    /// A format version this reader does not speak.
    UnsupportedVersion(u32),
    /// The stored checksum does not match the file contents.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// Structurally inconsistent (bad lengths, offsets, or strings).
    Malformed(String),
    /// A trace block failed to decode.
    Codec(CodecError),
    /// The key embedded in the file differs from the key it was looked
    /// up by (both rendered as file names).
    KeyMismatch {
        kind: &'static str,
        want: String,
        found: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "i/o error: {e}"),
            TraceError::Truncated { len, need } => {
                write!(f, "file truncated: {len} bytes, need at least {need}")
            }
            TraceError::BadMagic => write!(f, "bad magic: not a wsrs file of this kind"),
            TraceError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            TraceError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            TraceError::Malformed(why) => write!(f, "malformed file: {why}"),
            TraceError::Codec(e) => write!(f, "payload decode error: {e}"),
            TraceError::KeyMismatch { kind, want, found } => {
                write!(f, "{kind} key mismatch: want {want}, found {found}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<CodecError> for TraceError {
    fn from(e: CodecError) -> Self {
        TraceError::Codec(e)
    }
}

impl TraceError {
    /// Whether this is a plain file-not-found — a cache *miss*, as opposed
    /// to corruption, which callers may want to warn about.
    #[must_use]
    pub fn is_not_found(&self) -> bool {
        matches!(self, TraceError::Io(e) if e.kind() == std::io::ErrorKind::NotFound)
    }
}

/// The head of one kind's frame; the kind's `*_FRAME` constant names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Names the kind and its first format generation.
    pub magic: [u8; 8],
    /// Bumped on any layout change of the body; readers reject any other.
    pub version: u32,
}

impl Frame {
    /// Writes one frame: magic, version, the body `body` appends, then
    /// the checksum. `body_hint` sizes the buffer.
    pub fn write(self, body_hint: usize, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEAD + body_hint + FRAME_TAIL);
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        body(&mut out);
        let checksum = fnv1a_64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Verifies one frame and returns its body, which must hold at least
    /// `min_body` bytes. Checks length, magic, checksum and version, in
    /// that order.
    pub fn read(self, image: &[u8], min_body: usize) -> Result<&[u8], TraceError> {
        let len = image.len();
        let need = FRAME_HEAD + min_body + FRAME_TAIL;
        if len < need {
            return Err(TraceError::Truncated { len, need });
        }
        if image[..8] != self.magic {
            return Err(TraceError::BadMagic);
        }
        let stored = checksum_of(image);
        let computed = fnv1a_64(&image[..len - FRAME_TAIL]);
        if stored != computed {
            return Err(TraceError::ChecksumMismatch { stored, computed });
        }
        let version = u32::from_le_bytes(image[8..FRAME_HEAD].try_into().unwrap());
        if version != self.version {
            return Err(TraceError::UnsupportedVersion(version));
        }
        Ok(&image[FRAME_HEAD..len - FRAME_TAIL])
    }
}

/// The content checksum of a complete frame image (its trailing u64).
///
/// # Panics
///
/// Panics if the image is shorter than a checksum.
#[must_use]
pub fn checksum_of(image: &[u8]) -> u64 {
    let n = image.len();
    u64::from_le_bytes(image[n - FRAME_TAIL..].try_into().unwrap())
}

/// The key of one kind of stored artifact. The key *is* the file name,
/// so a lookup never scans the directory and any change to a key
/// component simply misses the old file.
pub trait StoreKey: Sized + PartialEq {
    /// What the kind is called in errors.
    const KIND: &'static str;
    /// The extension of the kind's files.
    const EXT: &'static str;
    /// The file name this key maps to.
    fn file_name(&self) -> String;
    /// Parses a file name back into its key; `None` for foreign names.
    fn parse_file_name(name: &str) -> Option<Self>;
}

/// One kind of stored artifact, parsed from its file image.
pub trait Artifact: Sized {
    /// The key the artifact is stored under.
    type Key: StoreKey;
    /// Parses and verifies a complete file image, frame first.
    fn from_image(image: Vec<u8>) -> Result<Self, TraceError>;
    /// The key embedded in the image.
    fn key(&self) -> Self::Key;
}

/// Reads the artifact stored under `key` in `dir` and verifies it: its
/// frame, its body, and that the key embedded in it is `key`.
pub fn load<A: Artifact>(dir: &Path, key: &A::Key) -> Result<A, TraceError> {
    let artifact = A::from_image(std::fs::read(dir.join(key.file_name()))?)?;
    let found = artifact.key();
    if found != *key {
        return Err(TraceError::KeyMismatch {
            kind: A::Key::KIND,
            want: key.file_name(),
            found: found.file_name(),
        });
    }
    Ok(artifact)
}

/// One file found by [`walk`].
#[derive(Debug)]
pub struct Entry<K> {
    /// Where the file is.
    pub path: PathBuf,
    /// Its file name.
    pub name: String,
    /// The key the name maps to; `None` for a name no key maps to.
    pub key: Option<K>,
}

/// Every file in `dir` with `K`'s extension, sorted by name. A missing
/// directory is an empty store; temp files of [`write_atomic`] end in a
/// sequence number and are never listed.
pub fn walk<K: StoreKey>(dir: &Path) -> std::io::Result<Vec<Entry<K>>> {
    let rd = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out = Vec::new();
    for entry in rd {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) != Some(K::EXT) {
            continue;
        }
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        let key = K::parse_file_name(&name).filter(|k| k.file_name() == name);
        out.push(Entry { path, name, key });
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

/// Per-process sequence number that makes every [`write_atomic`] temp
/// name unique, even between threads writing the same target.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `dir/name` atomically, creating `dir` if needed.
///
/// The bytes go to `<name>.tmp.<pid>.<n>` first and are then renamed onto
/// `name`, so a reader sees either the previous file or the complete new
/// one. `n` comes from a process-wide counter, so concurrent writers of one
/// name never share a temp file (a shared one lets one writer's rename take
/// another's file, or publish an image another writer is still
/// rewriting). The temp file is removed if the write or the rename fails.
pub fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let n = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!("{name}.tmp.{}.{n}", std::process::id()));
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, dir.join(name)));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointKey, CheckpointRecord};
    use crate::file::{encode, TraceHeader, DEFAULT_BLOCK_UOPS};
    use crate::memo::MemoKey;
    use crate::store::TraceKey;
    use wsrs_isa::{DynInst, Opcode, Reg};

    /// The bytes of a fixed 3-µop trace and a fixed checkpoint: (length,
    /// FNV-1a of the whole image, stored checksum). Any drift in a layout,
    /// a magic, a version or the codec fails here.
    #[test]
    fn frame_bytes_are_pinned() {
        let mut add = DynInst::new(0x10, Opcode::Add);
        add.srcs = [Some(Reg::new(1).into()), Some(Reg::new(2).into())];
        add.dst = Some(Reg::new(3).into());
        let mut lw = DynInst::new(0x11, Opcode::Lw);
        lw.srcs = [Some(Reg::new(3).into()), None];
        lw.dst = Some(Reg::new(4).into());
        lw.eff_addr = Some(0x2000);
        let mut bne = DynInst::new(0x12, Opcode::Bne);
        bne.srcs = [Some(Reg::new(4).into()), None];
        bne.taken = true;
        bne.target = 0x10;
        let header = TraceHeader {
            rev: 0x0123_4567_89ab_cdef,
            warmup: 1,
            measure: 2,
            uop_count: 3,
            block_uops: DEFAULT_BLOCK_UOPS,
            workload: "gzip".into(),
        };
        let trace = encode(&header, &[add, lw, bne]);
        let checkpoint = CheckpointRecord {
            key: CheckpointKey {
                trace: 1,
                sim: 2,
                spec: 3,
                warm: 4,
                interval: 5,
            },
            ff_uops: 6,
            sections: vec![(1, vec![1, 2, 3]), (2, vec![])],
        }
        .encode();
        let pin = |image: &[u8]| (image.len(), fnv1a_64(image), checksum_of(image));
        assert_eq!(
            pin(&trace),
            (97, 0x4815_2ff0_ec86_186c, 0x26c8_dc6d_79fb_159d)
        );
        assert_eq!(
            pin(&checkpoint),
            (95, 0x0365_c87e_6240_c110, 0x4e67_bb5c_d4fc_904f)
        );
    }

    #[test]
    fn walk_lists_one_kind_and_flags_foreign_names() {
        let dir = std::env::temp_dir().join(format!("wsrs-walk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(walk::<TraceKey>(&dir).unwrap().is_empty(), "missing dir");
        let key = MemoKey {
            config: 1,
            trace: 2,
            sim: 3,
            spec: 0,
        };
        write_atomic(&dir, &key.file_name(), b"x").unwrap();
        let tmp = format!("{}.tmp.999.0", key.file_name());
        for name in [tmp.as_str(), "stray.json", "00-01-02-03.json", "x.wsrt"] {
            std::fs::write(dir.join(name), "y").unwrap();
        }
        let listed = walk::<MemoKey>(&dir).unwrap();
        let names: Vec<(&str, Option<MemoKey>)> =
            listed.iter().map(|e| (e.name.as_str(), e.key)).collect();
        // Sorted; temp files and other kinds are not listed; a name that
        // parses but is not what its key maps to is foreign.
        assert_eq!(
            names,
            [
                ("00-01-02-03.json", None),
                (key.file_name().as_str(), Some(key)),
                ("stray.json", None)
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
