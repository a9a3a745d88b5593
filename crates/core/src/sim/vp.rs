//! Virtual-physical registers (config `vp_phys_per_subset`): physical
//! registers claimed at issue under oldest-first reservations, and the
//! anti-wedge that applies workaround (b) when the ROB head cannot claim one.

use std::collections::HashSet;

use super::{Engine, IN_FLIGHT};
use crate::slots::{class_index, PackedReg};
use wsrs_isa::RegClass;
use wsrs_regfile::{Renamer, Subset};

/// Cycles the ROB head may stay VP-capacity-blocked before the anti-wedge
/// fires.
const VP_BLOCK_THRESHOLD: u64 = 64;

/// Physical occupancy per class and subset, claimed at issue and released
/// when the superseding instruction commits.
#[derive(Clone, Debug)]
pub(super) struct VpState {
    pub(super) capacity: usize,
    /// `used[class][subset]`
    pub(super) used: [Vec<usize>; 2],
}

impl VpState {
    /// `None` without VP; otherwise every subset starts occupied by the
    /// architectural registers `renamer` maps into it.
    pub(super) fn initial(renamer: &Renamer, vp_phys_per_subset: Option<usize>) -> Option<Self> {
        let count_arch = |class: RegClass| {
            (0..renamer.config().subsets)
                .map(|s| renamer.map_table(class).mapped_into(Subset(s as u8)))
                .collect()
        };
        vp_phys_per_subset.map(|capacity| VpState {
            capacity,
            used: [count_arch(RegClass::Int), count_arch(RegClass::Fp)],
        })
    }
}

impl Engine<'_> {
    /// The subset the physical register behind `dst` belongs to.
    fn phys_subset(&self, dst: PackedReg) -> Subset {
        self.renamer
            .config()
            .phys_subset_of(dst.class(), dst.phys() as u32)
    }

    /// Whether a µop with destination `dst` may claim its physical
    /// register this cycle under virtual-physical allocation (always true
    /// without VP). `reserved` counts *older, still-unissued* destination
    /// µops per class/subset — each holds a reservation a younger µop may
    /// not consume, which makes allocation-at-issue deadlock-free.
    pub(super) fn vp_can_alloc(&self, dst: PackedReg, reserved: Option<&[Vec<usize>; 2]>) -> bool {
        let Some(vp) = self.vp.as_ref().filter(|_| dst.is_some()) else {
            return true;
        };
        let (ci, subset) = (dst.class_index(), self.phys_subset(dst).index());
        let held = reserved.map_or(0, |r| r[ci][subset]);
        vp.used[ci][subset] + held < vp.capacity
    }

    /// A waiting µop that does not issue this scan iteration keeps a
    /// reservation on its destination subset for the rest of the scan
    /// (VP only).
    pub(super) fn vp_reserve_slot(&mut self, i: usize) {
        let dst = self.rob.dst(i);
        if self.vp.is_none() || self.rob.is_done(i) || !dst.is_some() {
            return;
        }
        let subset = self.phys_subset(dst);
        self.vp_reserved[dst.class_index()][subset.index()] += 1;
    }

    /// An issuing µop claims its destination's physical register (VP only).
    pub(super) fn vp_claim(&mut self, dst: PackedReg) {
        if !dst.is_some() {
            return;
        }
        let subset = self.phys_subset(dst);
        if let Some(vp) = self.vp.as_mut() {
            vp.used[dst.class_index()][subset.index()] += 1;
        }
    }

    /// Virtual-physical anti-wedge: when the ROB head cannot claim a
    /// physical register because architectural state has concentrated in
    /// its destination subset (the issue-time analogue of §2.3), an
    /// exception moves architectural mappings out of that subset — the
    /// same workaround-(b) mechanism, applied to the VP file.
    pub(super) fn vp_watch(&mut self) {
        if self.vp.is_none() {
            return;
        }
        let blocked = !self.rob.is_empty() && !self.rob.is_done(0) && {
            let dst = self.rob.dst(0);
            dst.is_some() && !self.vp_can_alloc(dst, None)
        };
        if !blocked {
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
        self.vp_recover(dst.class(), self.phys_subset(dst));
        self.vp_blocked = (u64::MAX, 0);
    }

    /// Workaround (b) with a non-empty window: mappings that in-flight
    /// µops still reference (as sources, pending destinations, or
    /// mappings to be freed at commit) or whose value is unproduced stay;
    /// each move goes to the least-occupied other subset that keeps a
    /// spare physical register.
    fn vp_recover(&mut self, class: RegClass, stuck: Subset) {
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
        );
    }
}
