//! The rename stage with Register Write Specialization.
//!
//! One [`Renamer`] covers both register classes (integer and floating
//! point), each with its own map table and per-subset free lists. The
//! per-cycle protocol mirrors the hardware:
//!
//! 1. [`Renamer::begin_cycle`] — free lists mature recycled registers;
//!    under [`RenameStrategy::Recycling`] up to `N` registers are staged
//!    from *every* free list (the paper's §2.2.1 speculative pick);
//! 2. for each µop of the rename group, in program order:
//!    [`Renamer::map_source_for`] for sources (dependency propagation within
//!    the group happens naturally because destinations update the map
//!    immediately), [`Renamer::can_alloc`] / [`Renamer::alloc`] /
//!    [`Renamer::rename_dest_for`] for the destination;
//! 3. [`Renamer::end_cycle`] — staged-but-unused registers enter the
//!    recycling pipeline.
//!
//! At commit, [`Renamer::free`] reclaims the *previous* mapping of the
//! committing instruction's destination.

use crate::freelist::FreeList;
use crate::map::MapTable;
use crate::types::{Mapping, PhysReg, RenameStrategy, Subset};
use wsrs_isa::{RegClass, RegRef};

/// Depth of the strategy-1 free-register recycling pipeline (build the
/// two lists → pack → merge → append, §2.2.1).
pub const RECYCLE_DELAY: u64 = 4;

/// Renamer configuration: the register-file geometry and the renaming
/// implementation. A timing-simulator configuration derives it from its
/// organization (`wsrs_core::SimConfig::renamer`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RenamerConfig {
    /// Number of register-file subsets (1 = conventional).
    pub subsets: usize,
    /// Total physical integer registers, split evenly across subsets.
    pub int_regs: usize,
    /// Total physical floating-point registers, split evenly across subsets.
    pub fp_regs: usize,
    /// Which §2.2 renaming implementation to model.
    pub strategy: RenameStrategy,
    /// Hardware threads sharing the physical file (SMT, §2.3). Each thread
    /// has its own architectural map; free lists are shared.
    pub threads: usize,
}

impl RenamerConfig {
    /// Cycles a freed register spends in the recycling pipeline before it
    /// can be picked again: [`RECYCLE_DELAY`] under strategy 1, none under
    /// strategy 2 (direct append).
    #[must_use]
    pub fn recycle_delay(&self) -> u64 {
        match self.strategy {
            RenameStrategy::Recycling => RECYCLE_DELAY,
            RenameStrategy::ExactCount => 0,
        }
    }

    /// Registers per subset for `class`.
    #[must_use]
    pub fn per_subset(&self, class: RegClass) -> usize {
        let total = match class {
            RegClass::Int => self.int_regs,
            RegClass::Fp => self.fp_regs,
        };
        total / self.subsets
    }

    /// The subset a (class-global) physical register index belongs to —
    /// the inverse of the subset-contiguous register numbering.
    ///
    /// # Panics
    ///
    /// Panics if `phys` is out of range for the class's register file.
    #[must_use]
    pub fn phys_subset_of(&self, class: RegClass, phys: u32) -> Subset {
        let per = self.per_subset(class);
        let s = phys as usize / per;
        assert!(s < self.subsets, "physical register {phys} out of range");
        Subset(s as u8)
    }

    /// The reset placement, per class (integer first): logical register
    /// `i` starts in subset `i % subsets`. The one home of the initial
    /// register placement.
    #[must_use]
    pub fn reset_placement(&self) -> [Vec<Subset>; 2] {
        [RegClass::Int, RegClass::Fp].map(|class| {
            (0..class.logical_count())
                .map(|i| Subset((i % self.subsets) as u8))
                .collect()
        })
    }

    /// The paper's §2.3 static deadlock-freedom condition: every subset
    /// holds at least as many physical registers as the machine has
    /// logical registers of the class — **across all hardware threads**,
    /// which is precisely why the paper flags SMT as the problematic case.
    #[must_use]
    pub fn statically_deadlock_free(&self, class: RegClass) -> bool {
        self.per_subset(class) >= self.threads * class.logical_count()
    }
}

/// Upper bound on subsets tracked by [`RenameStats::refusals_by_subset`].
/// WSRS uses at most 4 write subsets; 8 leaves headroom while keeping the
/// stats struct `Copy`.
pub const STATS_MAX_SUBSETS: usize = 8;

/// Counters accumulated by the renamer.
#[derive(Clone, Copy, Debug, Default)]
pub struct RenameStats {
    /// Successful destination allocations.
    pub allocs: u64,
    /// Registers reclaimed at commit.
    pub frees: u64,
    /// `can_alloc` refusals (renaming stalled on an empty free list /
    /// exhausted staging).
    pub alloc_refusals: u64,
    /// Refusals refined by `[class][subset]` (class 0 = int, 1 = fp) —
    /// which pool actually ran dry. Row sums equal `alloc_refusals`;
    /// subsets past `STATS_MAX_SUBSETS - 1` fold into the last slot.
    pub refusals_by_subset: [[u64; STATS_MAX_SUBSETS]; 2],
    /// Registers that traversed the recycling pipeline unused (strategy 1
    /// waste).
    pub recycled_unused: u64,
}

impl RenameStats {
    /// Adds `other`'s counters to these.
    pub fn absorb(&mut self, other: &RenameStats) {
        let RenameStats {
            allocs,
            frees,
            alloc_refusals,
            refusals_by_subset,
            recycled_unused,
        } = other;
        self.allocs += allocs;
        self.frees += frees;
        self.alloc_refusals += alloc_refusals;
        for (row_a, row_b) in self.refusals_by_subset.iter_mut().zip(refusals_by_subset) {
            for (a, b) in row_a.iter_mut().zip(row_b) {
                *a += b;
            }
        }
        self.recycled_unused += recycled_unused;
    }
}

#[derive(Clone, Debug)]
struct ClassRename {
    /// One architectural map per hardware thread.
    maps: Vec<MapTable>,
    free: Vec<FreeList>,
    /// Strategy-1 staging: registers picked this cycle, per subset.
    staged: Vec<Vec<PhysReg>>,
}

/// The rename stage. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Renamer {
    config: RenamerConfig,
    classes: [ClassRename; 2],
    stats: RenameStats,
    in_cycle: bool,
}

fn class_idx(class: RegClass) -> usize {
    match class {
        RegClass::Int => 0,
        RegClass::Fp => 1,
    }
}

impl Renamer {
    /// Builds the renamer with logical register `i` of each class, on
    /// every hardware thread, mapped into subset `placement[class][i]`
    /// (integer class first): the reset placement
    /// ([`RenamerConfig::reset_placement`]) or a warm one, such as the
    /// sampled path's functionally warmed map. Each subset's physical
    /// registers are handed out in logical order, thread by thread, and
    /// the rest populate its free list. A placement that overflows a
    /// subset spills, in logical order, to the next subset (cyclically)
    /// with space, so any placement is accepted as long as the class's
    /// file holds every thread's architectural registers.
    ///
    /// # Panics
    ///
    /// Panics if a placement has the wrong length or names a nonexistent
    /// subset, or a class's file is smaller than its architectural
    /// registers across all threads.
    #[must_use]
    pub fn new(config: RenamerConfig, placement: &[Vec<Subset>; 2]) -> Self {
        let threads = config.threads.max(1);
        let build = |class: RegClass| {
            let want = &placement[class_idx(class)];
            let logical = class.logical_count();
            let per = config.per_subset(class);
            let subsets = config.subsets;
            assert_eq!(want.len(), logical, "one subset per {class} logical");
            assert!(
                per * subsets >= threads * logical,
                "{class} file too small for its architectural registers"
            );
            let mut next_slot = vec![0usize; subsets];
            let maps: Vec<MapTable> = (0..threads)
                .map(|_| {
                    MapTable::new(logical, |i| {
                        let mut s = want[i].index();
                        assert!(s < subsets, "logical {i} placed in nonexistent subset");
                        // Spill to the next subset with a free slot (capacity
                        // is guaranteed in total by the assertion above).
                        while next_slot[s] >= per {
                            s = (s + 1) % subsets;
                        }
                        let slot = next_slot[s];
                        next_slot[s] += 1;
                        Mapping {
                            phys: PhysReg((s * per + slot) as u32),
                            subset: Subset(s as u8),
                        }
                    })
                })
                .collect();
            let free = (0..subsets)
                .map(|s| {
                    FreeList::new(
                        (next_slot[s]..per).map(|slot| PhysReg((s * per + slot) as u32)),
                        config.recycle_delay(),
                    )
                })
                .collect();
            ClassRename {
                maps,
                free,
                staged: vec![Vec::new(); subsets],
            }
        };
        Renamer {
            config,
            classes: [build(RegClass::Int), build(RegClass::Fp)],
            stats: RenameStats::default(),
            in_cycle: false,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &RenamerConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> RenameStats {
        self.stats
    }

    /// Current mapping of a source operand of hardware thread `thread`.
    #[must_use]
    pub fn map_source_for(&self, thread: usize, src: RegRef) -> Mapping {
        self.classes[class_idx(src.class())].maps[thread].lookup(src.index() as usize)
    }

    /// Starts a rename cycle: matures recycling pipelines and, under
    /// strategy 1, stages up to `group_size` registers from every free list.
    pub fn begin_cycle(&mut self, cycle: u64, group_size: usize) {
        self.in_cycle = true;
        let staging = self.config.strategy == RenameStrategy::Recycling;
        for c in &mut self.classes {
            for (s, list) in c.free.iter_mut().enumerate() {
                list.tick(cycle);
                if staging {
                    debug_assert!(c.staged[s].is_empty(), "end_cycle not called");
                    for _ in 0..group_size {
                        match list.alloc() {
                            Some(r) => c.staged[s].push(r),
                            None => break,
                        }
                    }
                }
            }
        }
    }

    /// Whether a destination register of `class` can be allocated in
    /// `subset` this cycle. Records a refusal in the statistics when false.
    pub fn can_alloc(&mut self, class: RegClass, subset: Subset) -> bool {
        let c = &self.classes[class_idx(class)];
        let ok = match self.config.strategy {
            RenameStrategy::Recycling => !c.staged[subset.index()].is_empty(),
            RenameStrategy::ExactCount => c.free[subset.index()].available() > 0,
        };
        if !ok {
            self.stats.alloc_refusals += 1;
            self.stats.refusals_by_subset[class_idx(class)]
                [subset.index().min(STATS_MAX_SUBSETS - 1)] += 1;
        }
        ok
    }

    /// Allocates a destination register of `class` in `subset`, or `None`
    /// if the subset is exhausted this cycle.
    pub fn alloc(&mut self, class: RegClass, subset: Subset) -> Option<Mapping> {
        let c = &mut self.classes[class_idx(class)];
        let phys = match self.config.strategy {
            RenameStrategy::Recycling => c.staged[subset.index()].pop(),
            RenameStrategy::ExactCount => c.free[subset.index()].alloc(),
        }?;
        self.stats.allocs += 1;
        Some(Mapping { phys, subset })
    }

    /// Installs `mapping` as the new home of logical destination `dst` of
    /// hardware thread `thread`, returning the previous mapping (reclaimed
    /// when the instruction commits).
    pub fn rename_dest_for(&mut self, thread: usize, dst: RegRef, mapping: Mapping) -> Mapping {
        self.classes[class_idx(dst.class())].maps[thread].update(dst.index() as usize, mapping)
    }

    /// Ends the rename cycle: staged-but-unused registers re-enter the free
    /// lists through the recycling pipeline (strategy 1's waste, §2.2.1).
    pub fn end_cycle(&mut self, cycle: u64) {
        self.in_cycle = false;
        if self.config.strategy != RenameStrategy::Recycling {
            return;
        }
        for c in &mut self.classes {
            for (s, staged) in c.staged.iter_mut().enumerate() {
                for reg in staged.drain(..) {
                    self.stats.recycled_unused += 1;
                    c.free[s].free(reg, cycle);
                }
            }
        }
    }

    /// Reclaims a mapping at commit (the *previous* mapping of the
    /// committing instruction's destination).
    pub fn free(&mut self, class: RegClass, mapping: Mapping, cycle: u64) {
        self.stats.frees += 1;
        self.classes[class_idx(class)].free[mapping.subset.index()].free(mapping.phys, cycle);
    }

    /// Registers currently allocatable in `subset` of `class` (diagnostic).
    #[must_use]
    pub fn available(&self, class: RegClass, subset: Subset) -> usize {
        self.classes[class_idx(class)].free[subset.index()].available()
    }

    /// Registers allocatable *this cycle* in `subset` of `class`: the
    /// staged pick under strategy 1 (between `begin_cycle` and
    /// `end_cycle`), the free list under strategy 2.
    #[must_use]
    pub fn allocatable_now(&self, class: RegClass, subset: Subset) -> usize {
        let c = &self.classes[class_idx(class)];
        match self.config.strategy {
            RenameStrategy::Recycling => c.staged[subset.index()].len(),
            RenameStrategy::ExactCount => c.free[subset.index()].available(),
        }
    }

    /// Registers of `subset` currently in the recycling pipeline.
    #[must_use]
    pub fn in_recycling(&self, class: RegClass, subset: Subset) -> usize {
        self.classes[class_idx(class)].free[subset.index()].in_recycling()
    }

    /// The map table of `class` for hardware thread `thread`.
    #[must_use]
    pub fn map_table_for(&self, thread: usize, class: RegClass) -> &MapTable {
        &self.classes[class_idx(class)].maps[thread]
    }

    /// The architectural mappings of `class` of every hardware thread.
    pub fn arch_mappings(&self, class: RegClass) -> impl Iterator<Item = Mapping> + '_ {
        self.classes[class_idx(class)]
            .maps
            .iter()
            .flat_map(|t| t.iter().map(|(_, m)| m))
    }

    /// Deadlock workaround (b) of §2.3: forcibly remap logical register
    /// `logical` of `class` (hardware thread `thread`) into `to_subset`, as
    /// the exception handler's move instructions would. Returns the new
    /// mapping, or `None` if the target subset has no free register either.
    pub fn force_remap_for(
        &mut self,
        thread: usize,
        class: RegClass,
        logical: usize,
        to_subset: Subset,
        cycle: u64,
    ) -> Option<Mapping> {
        let new = {
            let c = &mut self.classes[class_idx(class)];
            let phys = c.free[to_subset.index()].alloc()?;
            Mapping {
                phys,
                subset: to_subset,
            }
        };
        let old = self.classes[class_idx(class)].maps[thread].update(logical, new);
        self.free(class, old, cycle);
        Some(new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrs_isa::Reg;

    fn int(i: u8) -> RegRef {
        RegRef::int(Reg::new(i))
    }

    /// A one-thread renamer over `subsets` register subsets.
    fn config(
        subsets: usize,
        int_regs: usize,
        fp_regs: usize,
        strategy: RenameStrategy,
    ) -> RenamerConfig {
        RenamerConfig {
            subsets,
            int_regs,
            fp_regs,
            strategy,
            threads: 1,
        }
    }

    /// A renamer in the reset placement.
    fn reset(cfg: RenamerConfig) -> Renamer {
        Renamer::new(cfg, &cfg.reset_placement())
    }

    #[test]
    fn smt_threads_each_hold_the_reset_placement() {
        let mut cfg = config(4, 512, 256, RenameStrategy::ExactCount);
        cfg.threads = 2;
        let r = reset(cfg);
        for s in 0..4 {
            assert_eq!(r.available(RegClass::Int, Subset(s)), 128 - 2 * 20);
        }
        let (t0, t1) = (r.map_source_for(0, int(5)), r.map_source_for(1, int(5)));
        assert_eq!((t0.subset, t1.subset), (Subset(1), Subset(1)));
        assert_ne!(t0.phys, t1.phys, "threads hold distinct registers");
    }

    #[test]
    fn conventional_initial_state() {
        let r = reset(config(1, 256, 128, RenameStrategy::ExactCount));
        // 80 int logicals reserved, 176 free.
        assert_eq!(r.available(RegClass::Int, Subset(0)), 176);
        assert_eq!(r.available(RegClass::Fp, Subset(0)), 96);
        assert!(r.config().statically_deadlock_free(RegClass::Int));
    }

    #[test]
    fn write_specialized_splits_evenly() {
        let r = reset(config(4, 512, 256, RenameStrategy::ExactCount));
        // 512/4 = 128 per subset; 80 int logicals spread 20 per subset.
        for s in 0..4 {
            assert_eq!(r.available(RegClass::Int, Subset(s)), 108);
            assert_eq!(r.available(RegClass::Fp, Subset(s)), 56);
        }
        assert!(r.config().statically_deadlock_free(RegClass::Int));
    }

    #[test]
    fn deadlock_condition_matches_paper_rule() {
        // 384/4 = 96 >= 80: safe. 256/4 = 64 < 80: not statically safe.
        let safe = config(4, 384, 192, RenameStrategy::ExactCount);
        assert!(safe.statically_deadlock_free(RegClass::Int));
        let unsafe_cfg = config(4, 256, 128, RenameStrategy::ExactCount);
        assert!(!unsafe_cfg.statically_deadlock_free(RegClass::Int));
    }

    #[test]
    fn rename_then_commit_reclaims() {
        let mut r = reset(config(4, 512, 256, RenameStrategy::ExactCount));
        let before = r.available(RegClass::Int, Subset(1));
        r.begin_cycle(0, 8);
        let m = r.alloc(RegClass::Int, Subset(1)).unwrap();
        let old = r.rename_dest_for(0, int(5), m);
        r.end_cycle(0);
        assert_eq!(r.map_source_for(0, int(5)), m);
        assert_eq!(r.available(RegClass::Int, Subset(1)), before - 1);
        let avail_old = r.available(RegClass::Int, old.subset);
        r.free(RegClass::Int, old, 50);
        assert_eq!(r.available(RegClass::Int, old.subset), avail_old + 1);
        assert_eq!(r.stats().allocs, 1);
        assert_eq!(r.stats().frees, 1);
    }

    #[test]
    fn dependency_propagation_within_group() {
        // Two µops renamed the same cycle: the second reads the first's
        // freshly installed mapping.
        let mut r = reset(config(1, 256, 128, RenameStrategy::ExactCount));
        r.begin_cycle(0, 8);
        let m1 = r.alloc(RegClass::Int, Subset(0)).unwrap();
        r.rename_dest_for(0, int(3), m1);
        assert_eq!(
            r.map_source_for(0, int(3)),
            m1,
            "younger µop sees older's dest"
        );
        r.end_cycle(0);
    }

    #[test]
    fn recycling_strategy_stages_and_recycles() {
        let mut r = reset(config(4, 512, 256, RenameStrategy::Recycling));
        r.begin_cycle(0, 8);
        // 8 staged per subset per class; use only 1.
        let m = r.alloc(RegClass::Int, Subset(0)).unwrap();
        r.rename_dest_for(0, int(1), m);
        r.end_cycle(0);
        // 7 unused int regs per subset 0 + 8 each in 1..3 + 8*4 fp = recycling
        assert_eq!(r.in_recycling(RegClass::Int, Subset(0)), 7);
        assert_eq!(r.in_recycling(RegClass::Int, Subset(1)), 8);
        assert!(r.stats().recycled_unused >= 31);
        // They mature after the recycle delay.
        let before = r.available(RegClass::Int, Subset(0));
        r.begin_cycle(RECYCLE_DELAY, 0);
        r.end_cycle(RECYCLE_DELAY);
        assert_eq!(r.available(RegClass::Int, Subset(0)), before + 7);
    }

    #[test]
    fn exhausted_subset_refuses() {
        let mut cfg = config(4, 512, 256, RenameStrategy::ExactCount);
        cfg.int_regs = 96; // 24 per subset, 20 architectural -> 4 free each
        let mut r = reset(cfg);
        r.begin_cycle(0, 8);
        for _ in 0..4 {
            assert!(r.can_alloc(RegClass::Int, Subset(2)));
            let m = r.alloc(RegClass::Int, Subset(2)).unwrap();
            let _ = r.rename_dest_for(0, int(9), m);
        }
        assert!(!r.can_alloc(RegClass::Int, Subset(2)));
        assert!(r.alloc(RegClass::Int, Subset(2)).is_none());
        assert!(
            r.can_alloc(RegClass::Int, Subset(3)),
            "other subsets unaffected"
        );
        assert_eq!(r.stats().alloc_refusals, 1);
    }

    /// How many integer logical registers map into `subset`.
    fn mapped_into(r: &Renamer, subset: Subset) -> usize {
        r.arch_mappings(RegClass::Int)
            .filter(|m| m.subset == subset)
            .count()
    }

    #[test]
    fn warm_subsets_honoured_and_free_lists_account_for_them() {
        let cfg = config(4, 512, 256, RenameStrategy::ExactCount);
        let logical = RegClass::logical_count(RegClass::Int);
        // Crowd every int logical into subset 2 (128 per subset holds all).
        let int = vec![Subset(2); logical];
        let [_, fp] = cfg.reset_placement();
        let r = Renamer::new(cfg, &[int, fp]);
        assert_eq!(mapped_into(&r, Subset(2)), logical);
        assert_eq!(r.available(RegClass::Int, Subset(2)), 128 - logical);
        assert_eq!(r.available(RegClass::Int, Subset(0)), 128);
        // Distinct physical registers for every mapping.
        let mut seen = std::collections::HashSet::new();
        for m in r.arch_mappings(RegClass::Int) {
            assert!(seen.insert(m.phys.0));
            assert_eq!(m.subset, Subset(2));
        }
    }

    #[test]
    fn warm_subsets_spill_when_a_subset_overflows() {
        let mut cfg = config(4, 512, 256, RenameStrategy::ExactCount);
        cfg.int_regs = 96; // 24 per subset < 80 logicals: crowding must spill
        let logical = RegClass::logical_count(RegClass::Int);
        let int = vec![Subset(1); logical];
        let [_, fp] = cfg.reset_placement();
        let r = Renamer::new(cfg, &[int, fp]);
        assert_eq!(mapped_into(&r, Subset(1)), 24, "first-choice subset filled");
        assert_eq!(mapped_into(&r, Subset(2)), 24, "overflow spills cyclically");
        assert_eq!(mapped_into(&r, Subset(3)), 24);
        assert_eq!(mapped_into(&r, Subset(0)), logical - 72);
        assert_eq!(r.available(RegClass::Int, Subset(1)), 0);
    }

    #[test]
    fn force_remap_moves_between_subsets() {
        let mut r = reset(config(4, 512, 256, RenameStrategy::ExactCount));
        let before = r.map_source_for(0, int(7));
        let new = r
            .force_remap_for(0, RegClass::Int, 7, Subset(0), 10)
            .unwrap();
        assert_eq!(new.subset, Subset(0));
        assert_ne!(r.map_source_for(0, int(7)), before);
        assert_eq!(mapped_into(&r, Subset(0)), 21);
    }
}
