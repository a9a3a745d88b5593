//! Per-subset free lists, with the strategy-1 recycling pipeline.
//!
//! Under [`RenameStrategy::Recycling`] (paper §2.2.1) the rename stage
//! speculatively picks `N` registers from **every** subset free list each
//! cycle; the ones not attributed to the renamed group — and the registers
//! freed by committing instructions — re-enter the free list only after a
//! multi-cycle recycling pipeline (build lists → pack → merge → append).
//! While recycling, those registers are *not allocatable*, which is the
//! strategy's cost. [`RenameStrategy::ExactCount`] (§2.2.2) frees directly.
//!
//! [`RenameStrategy::Recycling`]: crate::RenameStrategy::Recycling
//! [`RenameStrategy::ExactCount`]: crate::RenameStrategy::ExactCount

use crate::types::PhysReg;
use std::collections::VecDeque;

/// A free list for one register-file subset, with an optional recycling
/// pipeline for returned registers.
#[derive(Clone, Debug)]
pub struct FreeList {
    avail: VecDeque<PhysReg>,
    /// Registers in the recycling pipeline: (cycle at which they mature, reg).
    recycling: VecDeque<(u64, PhysReg)>,
    recycle_delay: u64,
}

impl FreeList {
    /// A free list initially containing `regs`, returning freed registers
    /// after `recycle_delay` cycles (0 = direct append, strategy 2).
    #[must_use]
    pub fn new(regs: impl IntoIterator<Item = PhysReg>, recycle_delay: u64) -> Self {
        FreeList {
            avail: regs.into_iter().collect(),
            recycling: VecDeque::new(),
            recycle_delay,
        }
    }

    /// Registers allocatable right now.
    #[must_use]
    pub fn available(&self) -> usize {
        self.avail.len()
    }

    /// Registers currently flowing through the recycling pipeline.
    #[must_use]
    pub fn in_recycling(&self) -> usize {
        self.recycling.len()
    }

    /// Matures recycled registers whose delay has elapsed by `cycle`.
    /// Call once per simulated cycle (idempotent within a cycle).
    pub fn tick(&mut self, cycle: u64) {
        while let Some(&(ready, reg)) = self.recycling.front() {
            if ready <= cycle {
                self.recycling.pop_front();
                self.avail.push_back(reg);
            } else {
                break;
            }
        }
    }

    /// Allocates one register, if any is available.
    pub fn alloc(&mut self) -> Option<PhysReg> {
        self.avail.pop_front()
    }

    /// Returns `reg` to the list at `cycle`: directly when the recycle
    /// delay is zero, otherwise through the recycling pipeline.
    pub fn free(&mut self, reg: PhysReg, cycle: u64) {
        if self.recycle_delay == 0 {
            self.avail.push_back(reg);
        } else {
            self.recycling.push_back((cycle + self.recycle_delay, reg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regs(n: u32) -> impl Iterator<Item = PhysReg> {
        (0..n).map(PhysReg)
    }

    #[test]
    fn direct_free_is_immediately_available() {
        let mut f = FreeList::new(regs(2), 0);
        let a = f.alloc().unwrap();
        let b = f.alloc().unwrap();
        assert!(f.alloc().is_none());
        f.free(a, 10);
        f.free(b, 10);
        assert_eq!(f.available(), 2);
    }

    #[test]
    fn recycling_delays_availability() {
        let mut f = FreeList::new(regs(1), 4);
        let a = f.alloc().unwrap();
        f.free(a, 10);
        f.tick(10);
        assert_eq!(f.available(), 0, "still recycling");
        assert_eq!(f.in_recycling(), 1);
        f.tick(13);
        assert_eq!(f.available(), 0);
        f.tick(14);
        assert_eq!(f.available(), 1, "matured at 10+4");
        assert_eq!(f.in_recycling(), 0);
    }

    #[test]
    fn fifo_allocation_order() {
        let mut f = FreeList::new(regs(3), 0);
        assert_eq!(f.alloc(), Some(PhysReg(0)));
        assert_eq!(f.alloc(), Some(PhysReg(1)));
        f.free(PhysReg(0), 0);
        assert_eq!(f.alloc(), Some(PhysReg(2)), "freed register goes to tail");
    }

    #[test]
    fn total_free_is_conserved() {
        let mut f = FreeList::new(regs(8), 3);
        let mut held = Vec::new();
        for _ in 0..5 {
            held.push(f.alloc().unwrap());
        }
        assert_eq!(f.available() + f.in_recycling(), 3);
        for r in held.drain(..) {
            f.free(r, 100);
        }
        assert_eq!(f.available() + f.in_recycling(), 8);
        f.tick(103);
        assert_eq!(f.available(), 8);
    }
}
