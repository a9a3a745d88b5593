//! Structure-of-arrays window (ROB) storage.
//!
//! PR 5 packed each in-flight µop into one 96-byte `repr(C)` row;
//! profiling the event-driven issue loop showed the row layout is what
//! bounds it. A 512-entry window of rows is ~70 KB, so every
//! ready-candidate probe, waiter-chain hop and head inspection lands on a
//! line that has long since been evicted. Splitting the window into
//! per-field lanes shrinks what each loop actually touches: the selection
//! scan reads the `cluster`/`class`/`thread`/`flags` byte lanes (the
//! whole scheduling working set now sits in L1), the waiter walk touches
//! only `next_waiter`/`pending_srcs`/`srcs`, and commit drains the
//! bookkeeping lanes nobody else reads.
//!
//! The batched lockstep engine ([`crate::batch`]) gives each
//! configuration lane its own [`Rob`], so per-slot state across a batch
//! is keyed `(config_lane, seq)` with no padding to a common row shape.
//!
//! The store is a power-of-two ring addressed by *logical* index
//! (0 = oldest). Sequence numbers are not stored: slots enter in
//! sequence order and leave only from the front, so
//! `seq(i) = seq_front + i`.

use wsrs_isa::{OpClass, RegClass};
use wsrs_regfile::{Mapping, PhysReg, Subset};

/// Index of a register class in class-indexed pairs.
pub(crate) fn class_index(class: RegClass) -> usize {
    match class {
        RegClass::Int => 0,
        RegClass::Fp => 1,
    }
}

// Slot flag bits.
pub(crate) const F_DONE: u8 = 1 << 0;
pub(crate) const F_LOAD: u8 = 1 << 1;
pub(crate) const F_STORE: u8 = 1 << 2;
pub(crate) const F_MISPREDICTED: u8 = 1 << 3;
/// Operand-ready µop held out of the ready planes by an issue gate (event
/// scheduler only): an older memory µop of its thread has not issued yet,
/// or its virtual-physical rank is past its subset's free registers.
pub(crate) const F_PARKED: u8 = 1 << 4;

/// Null link in the intrusive per-register waiter lists. A live link packs
/// `(seq << 1) | src_index`.
pub(crate) const LINK_NONE: u64 = u64::MAX;

/// A register operand (or destination) packed into one word:
/// `phys | class_index << 30`, with `u32::MAX` as the "absent" niche —
/// valid encodings never set bit 31, since physical indices stay far below
/// 2^30 (the largest budget, virtual-physical tag space, is 16 K).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct PackedReg(pub(crate) u32);

impl PackedReg {
    pub(crate) const NONE: PackedReg = PackedReg(u32::MAX);

    pub(crate) fn new(class: RegClass, phys: u32) -> Self {
        debug_assert!(phys < 1 << 30);
        PackedReg(phys | ((class_index(class) as u32) << 30))
    }

    pub(crate) fn is_some(self) -> bool {
        self != Self::NONE
    }

    pub(crate) fn class_index(self) -> usize {
        debug_assert!(self.is_some());
        ((self.0 >> 30) & 1) as usize
    }

    pub(crate) fn class(self) -> RegClass {
        if self.class_index() == 0 {
            RegClass::Int
        } else {
            RegClass::Fp
        }
    }

    pub(crate) fn phys(self) -> usize {
        (self.0 & ((1 << 30) - 1)) as usize
    }
}

/// Everything dispatch knows about a µop entering the window; the ring
/// scatters it into the field lanes.
pub(crate) struct SlotPush {
    pub seq: u64,
    pub dispatch_cycle: u64,
    pub srcs: [PackedReg; 2],
    pub dst: PackedReg,
    pub old_phys: u32,
    pub class: OpClass,
    pub cluster: u8,
    pub thread: u8,
    pub flags: u8,
    pub pending_srcs: u8,
    pub old_subset: u8,
    pub next_waiter: [u64; 2],
    pub eff_addr: u64,
}

/// The fields commit consumes when the head retires.
pub(crate) struct Retired {
    pub seq: u64,
    pub dst: PackedReg,
    pub old_phys: u32,
    pub old_subset: u8,
    pub cluster: u8,
    pub thread: u8,
    pub flags: u8,
    pub eff_addr: u64,
}

impl Retired {
    pub(crate) fn is_store(&self) -> bool {
        self.flags & F_STORE != 0
    }

    /// The commit-time mapping to free (valid iff `dst.is_some()`).
    pub(crate) fn old_mapping(&self) -> Mapping {
        Mapping {
            phys: PhysReg(self.old_phys),
            subset: Subset(self.old_subset),
        }
    }
}

/// The structure-of-arrays reorder-buffer ring.
#[derive(Clone, Debug)]
pub(crate) struct Rob {
    head: usize,
    len: usize,
    mask: usize,
    /// Sequence number of the oldest slot (`seq_front + len` is the next
    /// sequence number dispatch will push).
    seq_front: u64,
    done_cycle: Vec<u64>,
    dispatch_cycle: Vec<u64>,
    srcs: Vec<[PackedReg; 2]>,
    dst: Vec<PackedReg>,
    old_phys: Vec<u32>,
    class: Vec<OpClass>,
    cluster: Vec<u8>,
    thread: Vec<u8>,
    flags: Vec<u8>,
    pending_srcs: Vec<u8>,
    old_subset: Vec<u8>,
    next_waiter: Vec<[u64; 2]>,
    eff_addr: Vec<u64>,
    /// Per-cluster ready bitmaps over *physical* ring positions — the
    /// software analogue of the paper's narrowed select. One plane of
    /// `ready_words` words per cluster; bit `p` of plane `c` is set while
    /// the µop in ring slot `p` (which steered to cluster `c`) is awake
    /// and awaiting issue — past both issue gates, memory order and the
    /// virtual-physical rank (otherwise it waits [`F_PARKED`]). Physical
    /// positions are stable for a slot's lifetime, so a set bit never has
    /// to move; age order is recovered by scanning words from `head`
    /// around the ring.
    ready: Vec<u64>,
    ready_words: usize,
    planes: usize,
    /// Total bits set across all planes, for O(1) idle checks.
    ready_count: usize,
}

impl Rob {
    pub(crate) fn new(window: usize, planes: usize) -> Self {
        let cap = window.max(2).next_power_of_two();
        let ready_words = cap.div_ceil(64);
        Rob {
            head: 0,
            len: 0,
            mask: cap - 1,
            seq_front: 0,
            done_cycle: vec![0; cap],
            dispatch_cycle: vec![0; cap],
            srcs: vec![[PackedReg::NONE; 2]; cap],
            dst: vec![PackedReg::NONE; cap],
            old_phys: vec![0; cap],
            class: vec![OpClass::IntAlu; cap],
            cluster: vec![0; cap],
            thread: vec![0; cap],
            flags: vec![0; cap],
            pending_srcs: vec![0; cap],
            old_subset: vec![0; cap],
            next_waiter: vec![[LINK_NONE; 2]; cap],
            eff_addr: vec![0; cap],
            ready: vec![0; ready_words * planes.max(1)],
            ready_words,
            planes: planes.max(1),
            ready_count: 0,
        }
    }

    #[inline]
    fn at(&self, i: usize) -> usize {
        debug_assert!(i < self.len, "slot {i} out of window ({})", self.len);
        (self.head + i) & self.mask
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sequence number of the oldest slot. Meaningless when empty.
    #[inline]
    pub(crate) fn seq_front(&self) -> u64 {
        self.seq_front
    }

    #[inline]
    pub(crate) fn seq_at(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        self.seq_front + i as u64
    }

    pub(crate) fn push(&mut self, s: SlotPush) {
        assert!(self.len <= self.mask, "window overflow");
        debug_assert_eq!(s.seq, self.seq_front + self.len as u64);
        let p = (self.head + self.len) & self.mask;
        self.len += 1;
        self.done_cycle[p] = 0;
        self.dispatch_cycle[p] = s.dispatch_cycle;
        self.srcs[p] = s.srcs;
        self.dst[p] = s.dst;
        self.old_phys[p] = s.old_phys;
        self.class[p] = s.class;
        self.cluster[p] = s.cluster;
        self.thread[p] = s.thread;
        self.flags[p] = s.flags;
        self.pending_srcs[p] = s.pending_srcs;
        self.old_subset[p] = s.old_subset;
        self.next_waiter[p] = s.next_waiter;
        self.eff_addr[p] = s.eff_addr;
    }

    /// Retires the head slot, returning the fields commit consumes.
    pub(crate) fn pop_front(&mut self) -> Retired {
        let p = self.at(0);
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        let seq = self.seq_front;
        self.seq_front += 1;
        Retired {
            seq,
            dst: self.dst[p],
            old_phys: self.old_phys[p],
            old_subset: self.old_subset[p],
            cluster: self.cluster[p],
            thread: self.thread[p],
            flags: self.flags[p],
            eff_addr: self.eff_addr[p],
        }
    }

    #[inline]
    pub(crate) fn done_cycle(&self, i: usize) -> u64 {
        self.done_cycle[self.at(i)]
    }

    #[inline]
    pub(crate) fn dispatch_cycle(&self, i: usize) -> u64 {
        self.dispatch_cycle[self.at(i)]
    }

    #[inline]
    pub(crate) fn srcs(&self, i: usize) -> [PackedReg; 2] {
        self.srcs[self.at(i)]
    }

    #[inline]
    pub(crate) fn dst(&self, i: usize) -> PackedReg {
        self.dst[self.at(i)]
    }

    #[inline]
    pub(crate) fn old_phys(&self, i: usize) -> u32 {
        self.old_phys[self.at(i)]
    }

    #[inline]
    pub(crate) fn class(&self, i: usize) -> OpClass {
        self.class[self.at(i)]
    }

    #[inline]
    pub(crate) fn cluster(&self, i: usize) -> u8 {
        self.cluster[self.at(i)]
    }

    #[inline]
    pub(crate) fn thread(&self, i: usize) -> u8 {
        self.thread[self.at(i)]
    }

    #[inline]
    pub(crate) fn flags(&self, i: usize) -> u8 {
        self.flags[self.at(i)]
    }

    #[inline]
    pub(crate) fn is_done(&self, i: usize) -> bool {
        self.flags(i) & F_DONE != 0
    }

    #[inline]
    pub(crate) fn is_load(&self, i: usize) -> bool {
        self.flags(i) & F_LOAD != 0
    }

    /// Whether slot `i` is a load or a store (its thread's memory order
    /// gates its issue).
    #[inline]
    pub(crate) fn is_mem(&self, i: usize) -> bool {
        self.flags(i) & (F_LOAD | F_STORE) != 0
    }

    #[inline]
    pub(crate) fn mispredicted(&self, i: usize) -> bool {
        self.flags(i) & F_MISPREDICTED != 0
    }

    #[inline]
    pub(crate) fn eff_addr(&self, i: usize) -> u64 {
        self.eff_addr[self.at(i)]
    }

    /// Marks slot `i` issued: records its completion cycle and sets
    /// [`F_DONE`].
    #[inline]
    pub(crate) fn complete(&mut self, i: usize, done_cycle: u64) {
        let p = self.at(i);
        self.done_cycle[p] = done_cycle;
        self.flags[p] |= F_DONE;
    }

    /// Unlinks and returns the waiter chain continuation hanging off
    /// source `src` of slot `i`, decrementing its pending-operand count.
    /// Returns `(next_link, remaining_pending)`.
    #[inline]
    pub(crate) fn take_waiter(&mut self, i: usize, src: usize) -> (u64, u8) {
        let p = self.at(i);
        let link = std::mem::replace(&mut self.next_waiter[p][src], LINK_NONE);
        self.pending_srcs[p] -= 1;
        (link, self.pending_srcs[p])
    }

    /// Marks slot `i` parked: operand-ready but gated (memory order or
    /// virtual-physical rank), so kept out of the ready planes until
    /// [`Self::unpark`].
    #[inline]
    pub(crate) fn park(&mut self, i: usize) {
        let p = self.at(i);
        debug_assert_eq!(self.flags[p] & F_PARKED, 0, "slot parked twice");
        self.flags[p] |= F_PARKED;
    }

    /// Clears slot `i`'s parked mark, returning whether it was parked.
    #[inline]
    pub(crate) fn unpark(&mut self, i: usize) -> bool {
        let p = self.at(i);
        let parked = self.flags[p] & F_PARKED != 0;
        self.flags[p] &= !F_PARKED;
        parked
    }

    /// Ready µops currently awaiting selection, across all clusters
    /// (parked µops are not counted).
    #[inline]
    pub(crate) fn ready_count(&self) -> usize {
        self.ready_count
    }

    /// Marks slot `i` awake: its cluster's plane gains the slot's ring
    /// bit. The slot must not already be marked.
    #[inline]
    pub(crate) fn set_ready(&mut self, i: usize) {
        let p = self.at(i);
        let c = self.cluster[p] as usize;
        debug_assert!(c < self.planes);
        let w = c * self.ready_words + (p >> 6);
        let bit = 1u64 << (p & 63);
        debug_assert_eq!(self.ready[w] & bit, 0, "slot woken twice");
        self.ready[w] |= bit;
        self.ready_count += 1;
    }

    /// Whether slot `i` is awake (its ready bit is set).
    #[inline]
    pub(crate) fn is_ready(&self, i: usize) -> bool {
        let p = self.at(i);
        let w = self.cluster[p] as usize * self.ready_words + (p >> 6);
        self.ready[w] & 1u64 << (p & 63) != 0
    }

    /// Clears slot `i`'s ready bit (on issue, or when a gate closes). The
    /// slot must be marked.
    #[inline]
    pub(crate) fn clear_ready(&mut self, i: usize) {
        let p = self.at(i);
        let c = self.cluster[p] as usize;
        let w = c * self.ready_words + (p >> 6);
        let bit = 1u64 << (p & 63);
        debug_assert_ne!(self.ready[w] & bit, 0, "clearing a sleeping slot");
        self.ready[w] &= !bit;
        self.ready_count -= 1;
    }

    /// The oldest ready slot at logical index ≥ `from` whose cluster is in
    /// `cluster_mask`, or `None`. Age order is ring order: when
    /// `head + from` does not wrap, logical `[from, len)` occupies
    /// physical `[head+from, cap)` then `[0, head)`; when it wraps it is
    /// the single physical run `[head+from-cap, head)`. Slots logically
    /// before `from` (already passed over this cycle) keep their bits but
    /// sit outside the scanned segments; bits outside the live window are
    /// always clear. Word-level OR over the selected planes plus
    /// `trailing_zeros` makes this the narrowed select the paper argues
    /// for: saturated clusters drop out of the mask instead of being
    /// re-examined per candidate.
    pub(crate) fn next_ready(&self, from: usize, cluster_mask: u32) -> Option<usize> {
        if self.ready_count == 0 || from >= self.len {
            return None;
        }
        let cap = self.mask + 1;
        let p = if self.head + from < cap {
            self.scan_ready(self.head + from, cap, cluster_mask)
                .or_else(|| self.scan_ready(0, self.head, cluster_mask))
        } else {
            self.scan_ready(self.head + from - cap, self.head, cluster_mask)
        }?;
        let i = (p + cap - self.head) & self.mask;
        debug_assert!(i >= from && i < self.len);
        Some(i)
    }

    /// First set bit at a physical position in `[start, end)`, OR-ing the
    /// planes selected by `cluster_mask`.
    #[inline]
    fn scan_ready(&self, start: usize, end: usize, cluster_mask: u32) -> Option<usize> {
        let mut w = start >> 6;
        let last = end.div_ceil(64);
        let mut keep = !0u64 << (start & 63);
        while w < last {
            let mut word = 0u64;
            let mut cm = cluster_mask;
            while cm != 0 {
                let c = cm.trailing_zeros() as usize;
                cm &= cm - 1;
                word |= self.ready[c * self.ready_words + w];
            }
            word &= keep;
            if word != 0 {
                let p = (w << 6) + word.trailing_zeros() as usize;
                return (p < end).then_some(p);
            }
            keep = !0u64;
            w += 1;
        }
        None
    }
}
