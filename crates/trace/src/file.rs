//! The versioned on-disk trace file format.
//!
//! A trace file records the dynamic µop stream of one workload window so
//! later runs replay it instead of re-emulating. All integers are
//! little-endian:
//!
//! ```text
//! magic          8 bytes   "WSRSTRC1"
//! format_version u32       bumped on any layout change
//! rev            u64       trace key revision (emulator + program hash)
//! warmup         u64       window bound: µops skipped before measuring
//! measure        u64       window bound: µops measured
//! uop_count      u64       total records in the payload
//! block_uops     u32       records per block (last block may be short)
//! workload_len   u16       length of the workload name
//! workload       ..        UTF-8 workload name
//! payload        ..        blocks of varint/delta-coded records
//! index          n × u64   byte offset of each block within the payload
//! payload_len    u64       total payload bytes
//! checksum       u64       FNV-1a over every preceding byte
//! ```
//!
//! The whole-file checksum rejects corrupted or truncated files; the `rev`
//! field (plus the store's key-in-filename scheme, [`crate::store`])
//! rejects stale ones. Blocks reset the codec's delta state, so the index
//! gives O(1) seeks to any µop window without decoding the prefix.

use std::path::Path;
use std::sync::OnceLock;

use wsrs_isa::{fnv1a_64, DynInst, UopCursor, UopSource};

use crate::codec::{self, CodecError};

/// File magic, also embedding the first format generation.
pub const MAGIC: [u8; 8] = *b"WSRSTRC1";
/// Current format version; readers reject anything newer or older.
pub const FORMAT_VERSION: u32 = 1;
/// Default records per block: large enough to amortize per-block index
/// cost, small enough for fine-grained window seeks.
pub const DEFAULT_BLOCK_UOPS: u32 = 1 << 16;

/// Fixed-size portion of the header preceding the workload name.
const FIXED_HEADER: usize = 8 + 4 + 8 + 8 + 8 + 8 + 4 + 2;
/// Footer: payload length + checksum.
const FOOTER: usize = 8 + 8;

/// Everything a trace file declares about itself ahead of the payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// Trace key revision: [`wsrs-workloads`' trace fingerprint][f] — an
    /// FNV hash of the emulator semantics revision, the assembled program,
    /// and the emulated-memory size. A mismatch means the file is stale.
    ///
    /// [f]: https://example.org/wsrs "Workload::trace_fingerprint"
    pub rev: u64,
    /// µops skipped before the measured window (recorded for provenance;
    /// the payload contains warmup *and* measure µops).
    pub warmup: u64,
    /// µops in the measured window.
    pub measure: u64,
    /// Total records in the payload.
    pub uop_count: u64,
    /// Records per block.
    pub block_uops: u32,
    /// Workload name (e.g. `"gzip"`).
    pub workload: String,
}

/// Errors surfaced while reading or validating a trace file.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file is shorter than its own structure requires.
    Truncated { len: usize, need: usize },
    /// The magic bytes are wrong — not a trace file.
    BadMagic,
    /// A format version this reader does not speak.
    UnsupportedVersion(u32),
    /// The stored checksum does not match the file contents.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// Structurally inconsistent (bad lengths, offsets, or strings).
    Malformed(String),
    /// A block failed to decode.
    Codec(CodecError),
    /// The file's header disagrees with the key used to look it up.
    KeyMismatch {
        field: &'static str,
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
            TraceError::BadMagic => write!(f, "not a wsrs trace file (bad magic)"),
            TraceError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            TraceError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            TraceError::Malformed(why) => write!(f, "malformed trace file: {why}"),
            TraceError::Codec(e) => write!(f, "payload decode error: {e}"),
            TraceError::KeyMismatch { field, want, found } => {
                write!(
                    f,
                    "trace key mismatch on {field}: want {want}, found {found}"
                )
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

/// Serializes `uops` under `header` into a complete trace file image,
/// checksum included.
///
/// # Panics
///
/// Panics if `header.uop_count != uops.len()`, `block_uops` is zero, or
/// the workload name exceeds `u16::MAX` bytes — all caller bugs.
#[must_use]
pub fn encode(header: &TraceHeader, uops: &[DynInst]) -> Vec<u8> {
    assert_eq!(header.uop_count, uops.len() as u64, "uop_count mismatch");
    assert!(header.block_uops > 0, "block_uops must be positive");
    assert!(
        header.workload.len() <= usize::from(u16::MAX),
        "workload name too long"
    );

    // Loops compress to ~2 bytes per µop; reserve for that plus headroom.
    let mut out = Vec::with_capacity(FIXED_HEADER + uops.len() * 3 + 64);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&header.rev.to_le_bytes());
    out.extend_from_slice(&header.warmup.to_le_bytes());
    out.extend_from_slice(&header.measure.to_le_bytes());
    out.extend_from_slice(&header.uop_count.to_le_bytes());
    out.extend_from_slice(&header.block_uops.to_le_bytes());
    out.extend_from_slice(&(header.workload.len() as u16).to_le_bytes());
    out.extend_from_slice(header.workload.as_bytes());

    let payload_start = out.len();
    let mut index = Vec::new();
    for block in uops.chunks(header.block_uops as usize) {
        index.push((out.len() - payload_start) as u64);
        codec::encode_block(block, &mut out);
    }
    let payload_len = (out.len() - payload_start) as u64;
    for off in &index {
        out.extend_from_slice(&off.to_le_bytes());
    }
    out.extend_from_slice(&payload_len.to_le_bytes());
    let checksum = fnv1a_64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// The content checksum of a complete file image (its trailing u64).
#[must_use]
pub fn checksum_of(file_bytes: &[u8]) -> u64 {
    let n = file_bytes.len();
    assert!(n >= 8, "image too short to carry a checksum");
    u64::from_le_bytes(file_bytes[n - 8..].try_into().unwrap())
}

/// A parsed, checksum-verified trace file held in memory.
///
/// Its payload stays encoded: [`TraceFile::read_all`] decodes it into a
/// fresh `Vec`, while [`TraceFile::uops_from`] streams one block at a
/// time.
#[derive(Debug)]
pub struct TraceFile {
    header: TraceHeader,
    bytes: Vec<u8>,
    payload_start: usize,
    /// Block offsets within the payload, from the on-disk index.
    index: Vec<u64>,
    payload_len: u64,
    checksum: u64,
    /// The first block a stream failed to decode, if any.
    stream_error: OnceLock<CodecError>,
}

impl TraceFile {
    /// Parses and integrity-checks a complete file image.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<TraceFile, TraceError> {
        let len = bytes.len();
        if len < FIXED_HEADER + FOOTER {
            return Err(TraceError::Truncated {
                len,
                need: FIXED_HEADER + FOOTER,
            });
        }
        if bytes[..8] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        // Integrity first: a checksum failure must win over whatever
        // nonsense a corrupted structure would otherwise produce.
        let stored = u64::from_le_bytes(bytes[len - 8..].try_into().unwrap());
        let computed = fnv1a_64(&bytes[..len - 8]);
        if stored != computed {
            return Err(TraceError::ChecksumMismatch { stored, computed });
        }

        let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let version = u32_at(8);
        if version != FORMAT_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let rev = u64_at(12);
        let warmup = u64_at(20);
        let measure = u64_at(28);
        let uop_count = u64_at(36);
        let block_uops = u32_at(44);
        let workload_len = usize::from(u16::from_le_bytes(bytes[48..50].try_into().unwrap()));

        let payload_start = FIXED_HEADER + workload_len;
        if block_uops == 0 {
            return Err(TraceError::Malformed("block_uops is zero".into()));
        }
        let n_blocks = uop_count.div_ceil(u64::from(block_uops));
        let tail = 8 * n_blocks + FOOTER as u64;
        let need = payload_start as u64 + tail;
        if (len as u64) < need {
            return Err(TraceError::Truncated {
                len,
                need: need as usize,
            });
        }
        let workload = std::str::from_utf8(&bytes[FIXED_HEADER..payload_start])
            .map_err(|_| TraceError::Malformed("workload name is not UTF-8".into()))?
            .to_string();

        let payload_len = u64_at(len - 16);
        let index_start = len as u64 - tail;
        if payload_start as u64 + payload_len != index_start {
            return Err(TraceError::Malformed(format!(
                "payload length {payload_len} inconsistent with file size {len}"
            )));
        }
        let mut index = Vec::with_capacity(n_blocks as usize);
        for b in 0..n_blocks {
            let off = u64_at((index_start + 8 * b) as usize);
            if off > payload_len {
                return Err(TraceError::Malformed(format!(
                    "block {b} offset {off} past payload end {payload_len}"
                )));
            }
            if b > 0 && off < index[b as usize - 1] {
                return Err(TraceError::Malformed(format!(
                    "block {b} index not monotone"
                )));
            }
            index.push(off);
        }

        Ok(TraceFile {
            header: TraceHeader {
                rev,
                warmup,
                measure,
                uop_count,
                block_uops,
                workload,
            },
            bytes,
            payload_start,
            index,
            payload_len,
            checksum: stored,
            stream_error: OnceLock::new(),
        })
    }

    /// Reads and parses a trace file from disk.
    pub fn open(path: &Path) -> Result<TraceFile, TraceError> {
        TraceFile::from_bytes(std::fs::read(path)?)
    }

    /// The declared header.
    #[must_use]
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// The verified content checksum.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Total size of the file image in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Number of blocks in the payload.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.index.len()
    }

    /// The byte range of block `b` within the whole file image.
    fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        let start = self.payload_start + self.index[b] as usize;
        let end = match self.index.get(b + 1) {
            Some(&next) => self.payload_start + next as usize,
            None => self.payload_start + self.payload_len as usize,
        };
        start..end
    }

    /// Number of records in block `b` (all blocks are full except the last).
    fn block_len(&self, b: usize) -> usize {
        let per = u64::from(self.header.block_uops);
        let start = b as u64 * per;
        (self.header.uop_count - start).min(per) as usize
    }

    /// Decodes the entire payload.
    pub fn read_all(&self) -> Result<Vec<DynInst>, TraceError> {
        let mut decoded = Vec::with_capacity(self.header.uop_count as usize);
        for b in 0..self.block_count() {
            codec::decode_block(
                &self.bytes[self.block_range(b)],
                self.block_len(b),
                &mut decoded,
            )?;
        }
        Ok(decoded)
    }

    /// Streams the payload from µop index `start`, decoding one block at
    /// a time into a reused buffer. A block that fails to decode ends the
    /// stream early and is recorded in [`TraceFile::stream_error`].
    #[must_use]
    pub fn uops_from(&self, start: u64) -> Uops<'_> {
        let mut uops = Uops {
            file: self,
            buf: Vec::new(),
            buf_start: 0,
            at: 0,
        };
        uops.seek(start);
        uops
    }

    /// The decode failure that cut a stream of this file short, if any.
    /// The checksum covers the payload bytes but not their decodability,
    /// so a stream's output is only complete while this is `None`.
    #[must_use]
    pub fn stream_error(&self) -> Option<&CodecError> {
        self.stream_error.get()
    }
}

/// A block-streaming reader over a [`TraceFile`]'s µops; see
/// [`TraceFile::uops_from`].
#[derive(Debug)]
pub struct Uops<'a> {
    file: &'a TraceFile,
    /// The decoded block the cursor is in (empty before the first read,
    /// after a seek out of the block, and after a decode failure).
    buf: Vec<DynInst>,
    /// µop index of `buf[0]`.
    buf_start: u64,
    /// Cursor position within `buf`; at or past its end means the next
    /// read decodes the block holding µop `buf_start + at`.
    at: usize,
}

impl Uops<'_> {
    /// Decodes the block holding µop `pos` into the buffer; `false` at
    /// the end of the payload or on a decode failure.
    #[cold]
    fn load_block(&mut self, pos: u64) -> bool {
        let file = self.file;
        if pos >= file.header.uop_count || file.stream_error.get().is_some() {
            return false;
        }
        let per = u64::from(file.header.block_uops);
        let b = (pos / per) as usize;
        self.buf.clear();
        self.buf_start = b as u64 * per;
        self.at = (pos - self.buf_start) as usize;
        match codec::decode_block(
            &file.bytes[file.block_range(b)],
            file.block_len(b),
            &mut self.buf,
        ) {
            Ok(()) => true,
            Err(e) => {
                self.buf.clear();
                let _ = file.stream_error.set(e);
                false
            }
        }
    }
}

impl Iterator for Uops<'_> {
    type Item = DynInst;

    #[inline]
    fn next(&mut self) -> Option<DynInst> {
        if self.at >= self.buf.len() && !self.load_block(self.buf_start + self.at as u64) {
            return None;
        }
        let d = self.buf[self.at];
        self.at += 1;
        Some(d)
    }
}

impl UopCursor for Uops<'_> {
    fn seek(&mut self, pos: u64) {
        match pos.checked_sub(self.buf_start) {
            // Inside (or at the end of) the decoded block: reuse it.
            Some(at) if at <= self.buf.len() as u64 => self.at = at as usize,
            _ => {
                self.buf.clear();
                self.buf_start = pos;
                self.at = 0;
            }
        }
    }
}

impl UopSource for TraceFile {
    type Cursor<'a> = Uops<'a>;

    fn uop_count(&self) -> u64 {
        self.header.uop_count
    }

    fn uops_from(&self, start: u64) -> Uops<'_> {
        TraceFile::uops_from(self, start)
    }

    fn intact(&self) -> bool {
        self.stream_error().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrs_isa::{Opcode, Reg};

    fn sample_uops(n: usize) -> Vec<DynInst> {
        (0..n)
            .map(|i| {
                let mut d = DynInst::new((i % 37) as u64, Opcode::Add);
                d.dst = Some(Reg::new((i % 7 + 1) as u8).into());
                if i % 5 == 0 {
                    d.eff_addr = Some(0x1000 + 8 * i as u64);
                }
                d
            })
            .collect()
    }

    fn sample_header(n: usize, block_uops: u32) -> TraceHeader {
        TraceHeader {
            rev: 0xfeed_f00d,
            warmup: (n / 2) as u64,
            measure: (n - n / 2) as u64,
            uop_count: n as u64,
            block_uops,
            workload: "gzip".into(),
        }
    }

    #[test]
    fn encode_decode_round_trip_multi_block() {
        let uops = sample_uops(1000);
        let header = sample_header(1000, 64);
        let image = encode(&header, &uops);
        let file = TraceFile::from_bytes(image.clone()).expect("parse");
        assert_eq!(file.header(), &header);
        assert_eq!(file.block_count(), 16); // ceil(1000/64)
        assert_eq!(file.checksum(), checksum_of(&image));
        assert_eq!(file.read_all().unwrap(), uops);
    }

    #[test]
    fn window_reads_match_slices() {
        let uops = sample_uops(500);
        let file = TraceFile::from_bytes(encode(&sample_header(500, 32), &uops)).unwrap();
        for (start, count) in [(0, 500), (0, 10), (31, 2), (32, 32), (490, 10), (499, 1)] {
            let got: Vec<DynInst> = file.uops_from(start as u64).take(count).collect();
            assert_eq!(got, uops[start..start + count], "window {start}+{count}");
        }
        assert_eq!(file.uops_from(0).take(0).count(), 0);
        assert_eq!(
            file.uops_from(200).take(400).count(),
            300,
            "ends at the payload"
        );
    }

    #[test]
    fn streams_match_window_reads_across_seeks() {
        let uops = sample_uops(500);
        let file = TraceFile::from_bytes(encode(&sample_header(500, 32), &uops)).unwrap();
        for start in [0, 1, 31, 32, 33, 250, 499, 500, 600] {
            let got: Vec<DynInst> = file.uops_from(start).collect();
            assert_eq!(
                got,
                uops[(start as usize).min(500)..],
                "stream from {start}"
            );
        }
        // Seeks back inside the decoded block, forward past it, and back
        // across a block boundary all land on the right µop.
        let mut c = file.uops_from(40);
        assert_eq!(c.next(), Some(uops[40]));
        for pos in [35, 63, 64, 200, 10, 499] {
            c.seek(pos);
            let got: Vec<DynInst> = c.by_ref().take(3).collect();
            let end = (pos as usize + 3).min(500);
            assert_eq!(got, uops[pos as usize..end], "after seek to {pos}");
        }
        assert!(file.stream_error().is_none());
    }

    #[test]
    fn undecodable_block_under_a_valid_checksum_stops_the_stream() {
        let uops = sample_uops(100);
        let image = encode(&sample_header(100, 32), &uops);
        let clean = TraceFile::from_bytes(image.clone()).unwrap();
        // Forge block 2: overwrite one of its bytes and re-seal the
        // checksum, trying positions until the block no longer decodes.
        let bad = clean
            .block_range(2)
            .find_map(|at| {
                let mut forged = image.clone();
                forged[at] = 0xff;
                let n = forged.len();
                let sum = fnv1a_64(&forged[..n - 8]);
                forged[n - 8..].copy_from_slice(&sum.to_le_bytes());
                let f = TraceFile::from_bytes(forged).expect("checksum is valid");
                // Blocks decode independently: only block 2 can fail.
                f.read_all().is_err().then_some(f)
            })
            .expect("some byte of block 2 breaks its decode");

        // The stream yields the intact blocks, then stops and records why.
        let got: Vec<DynInst> = bad.uops_from(0).collect();
        assert_eq!(got, uops[..64]);
        assert!(bad.stream_error().is_some());
        // Sticky: later streams of the same file yield nothing past it.
        assert_eq!(bad.uops_from(70).next(), None);
    }

    #[test]
    fn empty_trace_round_trips() {
        let header = sample_header(0, DEFAULT_BLOCK_UOPS);
        let file = TraceFile::from_bytes(encode(&header, &[])).unwrap();
        assert_eq!(file.block_count(), 0);
        assert!(file.read_all().unwrap().is_empty());
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let image = encode(&sample_header(40, 16), &sample_uops(40));
        for at in 0..image.len() {
            let mut bad = image.clone();
            bad[at] ^= 0x40;
            assert!(
                TraceFile::from_bytes(bad).is_err(),
                "flip at byte {at} accepted"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let image = encode(&sample_header(40, 16), &sample_uops(40));
        for cut in 0..image.len() {
            assert!(
                TraceFile::from_bytes(image[..cut].to_vec()).is_err(),
                "truncation to {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let image = encode(&sample_header(4, 16), &sample_uops(4));
        let mut wrong_magic = image.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            TraceFile::from_bytes(wrong_magic),
            Err(TraceError::BadMagic)
        ));

        // Bump the version and re-seal the checksum so only the version is
        // at fault.
        let mut wrong_version = image.clone();
        wrong_version[8] = 99;
        let n = wrong_version.len();
        let sum = fnv1a_64(&wrong_version[..n - 8]);
        wrong_version[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            TraceFile::from_bytes(wrong_version),
            Err(TraceError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn checksum_mismatch_reports_both_sums() {
        let mut image = encode(&sample_header(4, 16), &sample_uops(4));
        let mid = image.len() / 2;
        image[mid] ^= 1;
        match TraceFile::from_bytes(image) {
            Err(TraceError::ChecksumMismatch { stored, computed }) => {
                assert_ne!(stored, computed);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }
}
