//! Cluster geometry and functional-unit occupancy.
//!
//! Clusters are identical (paper §4.1): two integer ALUs (which also
//! resolve branches and hold the shared multiply/divide structure), one
//! load/store unit and one fully-pipelined FP unit, issuing at most two
//! µops per cycle — the Alpha EV6-like cluster of §5.2.

use wsrs_isa::{latency, OpClass};

/// A cluster identifier. For the 4-cluster WSRS geometry a cluster's
/// `(f, s)` coordinates are those of the register subset it writes
/// (paper Figure 3; see `RegFileMode::write_subset`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClusterId(pub u8);

impl std::fmt::Display for ClusterId {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(fm, "C{}", self.0)
    }
}

/// The functional-unit kind a µop class executes on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FuKind {
    /// One of the two single-cycle integer ALUs (also branches).
    Alu,
    /// The load/store unit.
    LdSt,
    /// The floating-point unit.
    Fp,
}

impl FuKind {
    /// Which unit executes `class`.
    #[must_use]
    pub fn for_class(class: OpClass) -> FuKind {
        match class {
            OpClass::IntAlu | OpClass::IntMulDiv | OpClass::Branch => FuKind::Alu,
            OpClass::Load | OpClass::Store => FuKind::LdSt,
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpDivSqrt | OpClass::FpMove => FuKind::Fp,
        }
    }
}

/// Functional-unit complement of one execution domain (a symmetric
/// cluster, or one pool of the paper's Figure 2b organization).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Resources {
    /// µops issued per cycle.
    pub issue_width: u32,
    /// Single-cycle integer ALUs (also resolve branches).
    pub alus: u32,
    /// Load/store units.
    pub ldsts: u32,
    /// Floating-point units.
    pub fps: u32,
    /// Unpipelined integer multiply/divide structures.
    pub muldivs: u32,
    /// Unpipelined FP divide/sqrt structures.
    pub fpdivs: u32,
}

impl Resources {
    /// The paper's EV6-like cluster: 2-way issue, 2 ALUs, 1 load/store,
    /// 1 FP unit, one mul/div and one fdiv structure.
    #[must_use]
    pub fn ev6_cluster() -> Self {
        Resources {
            issue_width: 2,
            alus: 2,
            ldsts: 1,
            fps: 1,
            muldivs: 1,
            fpdivs: 1,
        }
    }

    /// Everything of a 4-cluster machine fused into one domain (the
    /// monolithic noWS-M machine of Figure 1a).
    #[must_use]
    pub fn monolithic_8way() -> Self {
        Resources {
            issue_width: 8,
            alus: 8,
            ldsts: 4,
            fps: 4,
            muldivs: 4,
            fpdivs: 4,
        }
    }
}

/// Most unpipelined structures any domain carries (the monolithic 8-way
/// fusion has 4 of each); bounding them lets [`ClusterState`] keep its
/// busy tables inline instead of on the heap.
const MAX_UNPIPELINED: usize = 8;

/// Per-cycle issue bookkeeping for one execution domain.
///
/// Call [`ClusterState::new_cycle`] once per cycle, then
/// [`ClusterState::try_issue`] for each candidate µop (oldest first).
#[derive(Clone, Debug)]
pub struct ClusterState {
    res: Resources,
    issued_this_cycle: u32,
    alus_used: u32,
    ldst_used: u32,
    fp_used: u32,
    /// Unpipelined structures: the cycle at which each frees up. Inline
    /// arrays (only the first `res.muldivs` / `res.fpdivs` entries are
    /// live) so issue never chases a heap pointer.
    muldiv_busy_until: [u64; MAX_UNPIPELINED],
    fpdiv_busy_until: [u64; MAX_UNPIPELINED],
    /// µops dispatched to this cluster and not yet committed.
    pub window_occupancy: usize,
    /// Total µops ever dispatched here (for the unbalance metric).
    pub dispatched: u64,
}

impl ClusterState {
    /// A symmetric paper cluster issuing at most `issue_width` µops per
    /// cycle (2 ALUs, 1 load/store, 1 FP unit).
    #[must_use]
    pub fn new(issue_width: u32) -> Self {
        Self::with_resources(Resources {
            issue_width,
            ..Resources::ev6_cluster()
        })
    }

    /// A domain with an explicit functional-unit complement.
    #[must_use]
    pub fn with_resources(res: Resources) -> Self {
        assert!(
            res.muldivs as usize <= MAX_UNPIPELINED && res.fpdivs as usize <= MAX_UNPIPELINED,
            "unpipelined structure count exceeds the inline busy tables"
        );
        ClusterState {
            res,
            issued_this_cycle: 0,
            alus_used: 0,
            ldst_used: 0,
            fp_used: 0,
            muldiv_busy_until: [0; MAX_UNPIPELINED],
            fpdiv_busy_until: [0; MAX_UNPIPELINED],
            window_occupancy: 0,
            dispatched: 0,
        }
    }

    /// Resets per-cycle counters.
    pub fn new_cycle(&mut self) {
        self.issued_this_cycle = 0;
        self.alus_used = 0;
        self.ldst_used = 0;
        self.fp_used = 0;
    }

    /// Whether this cluster still has an issue slot this cycle.
    #[must_use]
    pub fn has_issue_slot(&self) -> bool {
        self.issued_this_cycle < self.res.issue_width
    }

    /// Reserves an unpipelined structure from `busy` if one is free.
    fn reserve_unpipelined(busy: &mut [u64], cycle: u64, occupy: u64) -> bool {
        if let Some(slot) = busy.iter_mut().find(|b| cycle >= **b) {
            *slot = cycle + occupy;
            true
        } else {
            false
        }
    }

    /// Attempts to issue a µop of `class` at `cycle`; on success reserves
    /// the issue slot and functional unit, returning `true`.
    pub fn try_issue(&mut self, class: OpClass, cycle: u64) -> bool {
        if !self.has_issue_slot() {
            return false;
        }
        let ok = match FuKind::for_class(class) {
            FuKind::Alu => {
                if class == OpClass::IntMulDiv {
                    // The mul/div structure hangs off an ALU and is
                    // unpipelined (paper Table 2: 15 cycles).
                    if self.alus_used < self.res.alus
                        && Self::reserve_unpipelined(
                            &mut self.muldiv_busy_until[..self.res.muldivs as usize],
                            cycle,
                            u64::from(latency::of(class)),
                        )
                    {
                        self.alus_used += 1;
                        true
                    } else {
                        false
                    }
                } else if self.alus_used < self.res.alus {
                    self.alus_used += 1;
                    true
                } else {
                    false
                }
            }
            FuKind::LdSt => {
                if self.ldst_used < self.res.ldsts {
                    self.ldst_used += 1;
                    true
                } else {
                    false
                }
            }
            FuKind::Fp => {
                if class == OpClass::FpDivSqrt {
                    if self.fp_used < self.res.fps
                        && Self::reserve_unpipelined(
                            &mut self.fpdiv_busy_until[..self.res.fpdivs as usize],
                            cycle,
                            u64::from(latency::of(class)),
                        )
                    {
                        self.fp_used += 1;
                        true
                    } else {
                        false
                    }
                } else if self.fp_used < self.res.fps {
                    self.fp_used += 1;
                    true
                } else {
                    false
                }
            }
        };
        if ok {
            self.issued_this_cycle += 1;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_width_limits_to_two() {
        let mut c = ClusterState::new(2);
        c.new_cycle();
        assert!(c.try_issue(OpClass::IntAlu, 0));
        assert!(c.try_issue(OpClass::IntAlu, 0));
        assert!(!c.try_issue(OpClass::Load, 0), "2-way issue exhausted");
        c.new_cycle();
        assert!(c.try_issue(OpClass::Load, 1));
    }

    #[test]
    fn one_ldst_unit_per_cluster() {
        let mut c = ClusterState::new(2);
        c.new_cycle();
        assert!(c.try_issue(OpClass::Load, 0));
        assert!(!c.try_issue(OpClass::Store, 0));
        assert!(c.try_issue(OpClass::IntAlu, 0), "ALU still free");
    }

    #[test]
    fn muldiv_is_unpipelined() {
        let mut c = ClusterState::new(2);
        c.new_cycle();
        assert!(c.try_issue(OpClass::IntMulDiv, 0));
        c.new_cycle();
        assert!(!c.try_issue(OpClass::IntMulDiv, 1), "busy for 15 cycles");
        c.new_cycle();
        assert!(c.try_issue(OpClass::IntMulDiv, 15));
    }

    #[test]
    fn fp_pipelined_but_div_blocks() {
        let mut c = ClusterState::new(2);
        c.new_cycle();
        assert!(c.try_issue(OpClass::FpDivSqrt, 0));
        c.new_cycle();
        assert!(!c.try_issue(OpClass::FpDivSqrt, 5));
        assert!(c.try_issue(OpClass::FpAdd, 5), "pipelined adds still flow");
        c.new_cycle();
        assert!(c.try_issue(OpClass::FpDivSqrt, 20));
    }

    #[test]
    fn monolithic_domain_issues_eight() {
        let mut c = ClusterState::with_resources(Resources::monolithic_8way());
        c.new_cycle();
        for _ in 0..8 {
            assert!(c.try_issue(OpClass::IntAlu, 0));
        }
        assert!(!c.try_issue(OpClass::IntAlu, 0), "8-way exhausted");
    }

    #[test]
    fn multiple_unpipelined_structures_overlap() {
        let mut c = ClusterState::with_resources(Resources {
            muldivs: 2,
            alus: 4,
            issue_width: 4,
            ..Resources::ev6_cluster()
        });
        c.new_cycle();
        assert!(c.try_issue(OpClass::IntMulDiv, 0));
        assert!(c.try_issue(OpClass::IntMulDiv, 0), "second structure free");
        assert!(!c.try_issue(OpClass::IntMulDiv, 0), "both busy");
        c.new_cycle();
        assert!(!c.try_issue(OpClass::IntMulDiv, 5));
        c.new_cycle();
        assert!(c.try_issue(OpClass::IntMulDiv, 15));
    }

    #[test]
    fn branches_share_alus() {
        let mut c = ClusterState::new(2);
        c.new_cycle();
        assert!(c.try_issue(OpClass::Branch, 0));
        assert!(c.try_issue(OpClass::IntAlu, 0));
        assert!(!c.try_issue(OpClass::Branch, 0), "both ALUs used");
    }
}
