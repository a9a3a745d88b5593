//! Seekable µop sources — where a replayed trace comes from.
//!
//! A recorded trace reaches the timing core either decoded in memory (a
//! `[DynInst]` slice) or streamed block by block from a trace file
//! (`wsrs-trace`'s `TraceFile`). Consumers that visit a trace in monotone
//! windows, such as interval sampling, are written once against
//! [`UopSource`] and run over either without materializing the whole
//! trace.

use crate::dyninst::DynInst;

/// A finite µop stream that can be read forward from any position.
pub trait UopSource {
    /// The forward reader [`UopSource::uops_from`] returns.
    type Cursor<'a>: UopCursor
    where
        Self: 'a;

    /// Total µops in the source.
    fn uop_count(&self) -> u64;

    /// A reader positioned at µop index `start` (at the end when `start`
    /// is past it).
    fn uops_from(&self, start: u64) -> Self::Cursor<'_>;

    /// Whether every read so far delivered all the µops it asked for. A
    /// streamed source turns `false` once a block fails to decode; from
    /// then on anything computed from it is short and must be discarded.
    fn intact(&self) -> bool {
        true
    }
}

/// A forward reader over a [`UopSource`] that can be repositioned.
/// Repositioning is cheap near the current position: a streamed source
/// keeps its decoded block, so a short step back re-reads nothing.
pub trait UopCursor: Iterator<Item = DynInst> {
    /// Moves the cursor to µop index `pos`.
    fn seek(&mut self, pos: u64);
}

/// The cursor of an in-memory slice.
#[derive(Clone, Debug)]
pub struct SliceCursor<'a> {
    uops: &'a [DynInst],
    pos: usize,
}

impl Iterator for SliceCursor<'_> {
    type Item = DynInst;

    #[inline]
    fn next(&mut self) -> Option<DynInst> {
        let d = *self.uops.get(self.pos)?;
        self.pos += 1;
        Some(d)
    }
}

impl UopCursor for SliceCursor<'_> {
    fn seek(&mut self, pos: u64) {
        self.pos = usize::try_from(pos).unwrap_or(usize::MAX);
    }
}

impl UopSource for [DynInst] {
    type Cursor<'a> = SliceCursor<'a>;

    fn uop_count(&self) -> u64 {
        self.len() as u64
    }

    fn uops_from(&self, start: u64) -> SliceCursor<'_> {
        let mut c = SliceCursor { uops: self, pos: 0 };
        c.seek(start);
        c
    }
}

impl UopSource for Vec<DynInst> {
    type Cursor<'a> = SliceCursor<'a>;

    fn uop_count(&self) -> u64 {
        self.as_slice().uop_count()
    }

    fn uops_from(&self, start: u64) -> SliceCursor<'_> {
        self.as_slice().uops_from(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Opcode;

    #[test]
    fn slice_cursor_reads_and_seeks() {
        let uops: Vec<DynInst> = (0..5).map(|pc| DynInst::new(pc, Opcode::Add)).collect();
        let pcs = |c: &mut SliceCursor<'_>, n| c.take(n).map(|d| d.pc).collect::<Vec<_>>();
        let mut c = uops.uops_from(2);
        assert_eq!(pcs(&mut c, 2), [2, 3]);
        c.seek(1);
        assert_eq!(pcs(&mut c, 10), [1, 2, 3, 4]);
        assert_eq!(c.next(), None);
        assert_eq!(uops.uops_from(9).next(), None);
        assert_eq!(uops.uop_count(), 5);
    }
}
