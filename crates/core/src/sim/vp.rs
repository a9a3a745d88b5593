//! Virtual-physical registers (config `vp_phys_per_subset`): physical
//! registers claimed at issue in oldest-first rank order, and the
//! anti-wedge that applies workaround (b) when the ROB head cannot claim one.
//!
//! # The rank rule
//!
//! A µop whose destination lies in (class, subset) may claim a register
//! only while `used + rank < capacity`, where its *rank* counts the older
//! unissued µops with a destination in the same (class, subset): the
//! older ones keep a register in reserve, so a younger µop never takes
//! the one an older µop needs. The rank is the µop's index in its
//! subset's `waiting` FIFO, so the eligible µops are that FIFO's first
//! `capacity − used` entries. Which µops are eligible changes only at
//!
//! * dispatch, which appends at the tail (no older rank changes);
//! * issue, which removes a µop from inside the prefix and adds one to
//!   `used`, so every other µop's `used + rank` is unchanged;
//! * commit, which frees one register: the next rank becomes eligible;
//! * an anti-wedge move, which frees one register in the stuck subset and
//!   takes one in the target, whose last eligible rank falls out.
//!
//! The event scheduler parks a woken µop whose rank is not eligible, as
//! it parks a memory-order-gated one, and [`Engine::vp_release`] and
//! [`Engine::vp_move`] wake or park the one µop each change concerns. The
//! scan oracle counts the same ranks itself as it walks the window.

use std::collections::{HashSet, VecDeque};

use super::{Engine, IN_FLIGHT};
use crate::slots::{class_index, PackedReg};
use wsrs_isa::RegClass;
use wsrs_regfile::{Renamer, Subset};

/// Cycles the ROB head may stay VP-capacity-blocked before the anti-wedge
/// fires.
const VP_BLOCK_THRESHOLD: u64 = 64;

/// Physical occupancy per class and subset, claimed at issue and released
/// when the superseding instruction commits, and the rank order of the
/// µops waiting to claim.
#[derive(Clone, Debug)]
pub(super) struct VpState {
    capacity: usize,
    /// `used[class][subset]`
    used: [Vec<usize>; 2],
    /// `waiting[class][subset]`: seqs of the unissued µops whose
    /// destination is in the subset, oldest first — a µop's index is its
    /// rank. Each FIFO holds at most a window of seqs and is preallocated
    /// to the ROB size.
    waiting: [Vec<VecDeque<u64>>; 2],
}

impl VpState {
    /// `None` without VP; otherwise every subset starts occupied by the
    /// architectural registers `renamer` maps into it, every thread's.
    pub(super) fn initial(
        renamer: &Renamer,
        vp_phys_per_subset: Option<usize>,
        rob: usize,
    ) -> Option<Self> {
        let subsets = renamer.config().subsets;
        let count_arch = |class: RegClass| {
            let mut used = vec![0; subsets];
            for m in renamer.arch_mappings(class) {
                used[m.subset.index()] += 1;
            }
            used
        };
        let queues = || (0..subsets).map(|_| VecDeque::with_capacity(rob)).collect();
        vp_phys_per_subset.map(|capacity| VpState {
            capacity,
            used: [count_arch(RegClass::Int), count_arch(RegClass::Fp)],
            waiting: [queues(), queues()],
        })
    }

    /// The rank of unissued µop `seq` among its subset's waiters.
    fn rank(&self, ci: usize, subset: usize, seq: u64) -> usize {
        self.waiting[ci][subset]
            .binary_search(&seq)
            .expect("an unissued destination µop waits in its subset's FIFO")
    }

    /// The waiter at `rank` in (class `ci`, `subset`), if there is one.
    fn waiter_at(&self, ci: usize, subset: usize, rank: Option<usize>) -> Option<u64> {
        rank.and_then(|r| self.waiting[ci][subset].get(r).copied())
    }
}

impl Engine<'_> {
    /// The subset the physical register behind `dst` belongs to.
    fn phys_subset(&self, dst: PackedReg) -> Subset {
        self.renamer
            .config()
            .phys_subset_of(dst.class(), dst.phys() as u32)
    }

    /// Where the rank rule places `dst`: its (class index, subset index),
    /// or `None` without VP or without a destination.
    pub(super) fn vp_key(&self, dst: PackedReg) -> Option<(usize, usize)> {
        (self.vp.is_some() && dst.is_some())
            .then(|| (dst.class_index(), self.phys_subset(dst).index()))
    }

    /// The rank rule: whether a µop with destination `dst` and VP rank
    /// `rank` may claim its physical register — `rank < capacity − used`
    /// (always true without VP or without a destination). The ROB head's
    /// rank is 0.
    pub(super) fn vp_rank_allows(&self, dst: PackedReg, rank: usize) -> bool {
        let (Some(vp), Some((ci, subset))) = (&self.vp, self.vp_key(dst)) else {
            return true;
        };
        vp.used[ci][subset] + rank < vp.capacity
    }

    /// The event scheduler's VP gate for unissued slot `i`: the rank rule
    /// at its rank in its subset's FIFO. Without VP this is one
    /// predictable branch.
    pub(super) fn vp_allows(&self, i: usize) -> bool {
        let Some(vp) = &self.vp else {
            return true;
        };
        let dst = self.rob.dst(i);
        self.vp_key(dst).is_none_or(|(ci, subset)| {
            self.vp_rank_allows(dst, vp.rank(ci, subset, self.rob.seq_at(i)))
        })
    }

    /// Dispatch: µop `seq` with destination `dst` takes the last rank of
    /// its subset (VP only).
    pub(super) fn vp_enqueue(&mut self, dst: PackedReg, seq: u64) {
        if let (Some((ci, subset)), Some(vp)) = (self.vp_key(dst), self.vp.as_mut()) {
            vp.waiting[ci][subset].push_back(seq);
        }
    }

    /// Issue: slot `i` claims its destination's physical register and
    /// leaves its subset's FIFO (VP only).
    pub(super) fn vp_claim(&mut self, i: usize) {
        let seq = self.rob.seq_at(i);
        if let (Some((ci, subset)), Some(vp)) = (self.vp_key(self.rob.dst(i)), self.vp.as_mut()) {
            let rank = vp.rank(ci, subset, seq);
            debug_assert!(
                vp.used[ci][subset] + rank < vp.capacity,
                "µop {seq} claimed past its rank"
            );
            vp.waiting[ci][subset].remove(rank);
            vp.used[ci][subset] += 1;
        }
    }

    /// Commit: a register of `class` in `subset` is freed (VP only), so
    /// the next rank there becomes eligible.
    pub(super) fn vp_release(&mut self, class: RegClass, subset: Subset) {
        let Some(vp) = self.vp.as_mut() else {
            return;
        };
        let (ci, s) = (class_index(class), subset.index());
        vp.used[ci][s] -= 1;
        self.vp_wake(ci, s);
    }

    /// An anti-wedge or rename-time remap moves one architectural
    /// register of class index `ci` from subset `from` to `to` (VP only):
    /// `from` gains an eligible rank, `to` loses one.
    pub(super) fn vp_move(&mut self, ci: usize, from: Subset, to: Subset) {
        let Some(vp) = self.vp.as_mut() else {
            return;
        };
        vp.used[ci][from.index()] -= 1;
        vp.used[ci][to.index()] += 1;
        self.vp_wake(ci, from.index());
        // The first rank `to` no longer leaves a register for.
        let vp = self.vp.as_ref().expect("checked");
        let first_refused = vp.capacity.checked_sub(vp.used[ci][to.index()]);
        if let Some(seq) = vp.waiter_at(ci, to.index(), first_refused) {
            let idx = (seq - self.rob.seq_front()) as usize;
            if self.rob.is_ready(idx) {
                self.rob.clear_ready(idx);
                self.rob.park(idx);
            }
        }
    }

    /// `used[ci][subset]` just fell by one: the waiter that became
    /// eligible wakes if it was parked and memory order lets it issue.
    /// (Under the scan oracle nothing is ever parked.)
    fn vp_wake(&mut self, ci: usize, subset: usize) {
        let vp = self.vp.as_ref().expect("VP only");
        // The last rank `subset` leaves a register for.
        let last_allowed = vp.capacity.checked_sub(vp.used[ci][subset] + 1);
        if let Some(seq) = vp.waiter_at(ci, subset, last_allowed) {
            let idx = (seq - self.rob.seq_front()) as usize;
            if self.mem_order_allows(idx) && self.rob.unpark(idx) {
                self.rob.set_ready(idx);
            }
        }
    }

    /// Whether the ROB head is unissued and the rank rule refuses it a
    /// register (never without VP).
    pub(super) fn vp_head_blocked(&self) -> bool {
        self.vp.is_some()
            && !self.rob.is_empty()
            && !self.rob.is_done(0)
            && !self.vp_rank_allows(self.rob.dst(0), 0)
    }

    /// Virtual-physical anti-wedge: when the ROB head cannot claim a
    /// physical register because architectural state has concentrated in
    /// its destination subset (the issue-time analogue of §2.3), an
    /// exception moves architectural mappings out of that subset — the
    /// same workaround-(b) mechanism, applied to the VP file. A recovery
    /// that moves nothing leaves the machine deadlocked: nothing commits
    /// before the head, so no register frees, dispatch only pins more
    /// mappings and issue only fills the other subsets — no later
    /// recovery can move anything either.
    pub(super) fn vp_watch(&mut self) {
        if self.vp.is_none() {
            return;
        }
        if !self.vp_head_blocked() {
            self.vp_blocked = (u64::MAX, 0);
            return;
        }
        let (seq, dst) = (self.rob.seq_front(), self.rob.dst(0));
        if self.vp_blocked.0 == seq {
            self.vp_blocked.1 += 1;
        } else {
            self.vp_blocked = (seq, 1);
        }
        if self.vp_blocked.1 < VP_BLOCK_THRESHOLD {
            return;
        }
        if !self.vp_recover(dst.class(), self.phys_subset(dst)) {
            self.deadlocked = true;
        }
        self.vp_blocked = (u64::MAX, 0);
    }

    /// Workaround (b) with a non-empty window: mappings that in-flight
    /// µops still reference (as sources, pending destinations, or
    /// mappings to be freed at commit) or whose value is unproduced stay;
    /// each move goes to the least-occupied other subset that keeps a
    /// spare physical register. Returns whether anything moved.
    fn vp_recover(&mut self, class: RegClass, stuck: Subset) -> bool {
        let ci = class_index(class);
        // Cold path — a recovery already costs a pipeline refill — so a
        // transient set is fine here.
        let mut pinned: HashSet<u32> = HashSet::new();
        for i in 0..self.rob.len() {
            let dst = self.rob.dst(i);
            for r in self.rob.srcs(i).into_iter().chain([dst]) {
                if r.is_some() && r.class_index() == ci {
                    pinned.insert(r.phys() as u32);
                }
            }
            if dst.is_some() && dst.class_index() == ci {
                // The old mapping shares the destination's class.
                pinned.insert(self.rob.old_phys(i));
            }
        }
        self.remap_out_of(
            class,
            stuck,
            |e, phys| !pinned.contains(&phys) && e.reg_info[ci][phys as usize].avail != IN_FLIGHT,
            |e| {
                let vp = e.vp.as_ref().expect("VP recovery requires VP");
                e.subsets_but(stuck)
                    .filter(|&s| vp.used[ci][s.index()] + 1 < vp.capacity)
                    .min_by_key(|&s| vp.used[ci][s.index()])
            },
        )
    }
}
