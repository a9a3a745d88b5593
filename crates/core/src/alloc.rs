//! Cluster-allocation policies (paper §3.3, §5.2.1).
//!
//! On a conventional or write-specialized machine the policy is free;
//! the paper uses **round-robin**. On a WSRS machine the operand subsets
//! dictate the cluster: the *first* operand's subset fixes the `f`
//! (top/bottom) coordinate and the *second* operand's subset the `s`
//! (left/right) coordinate. The remaining degrees of freedom are what the
//! policies exploit:
//!
//! * [`AllocPolicy::RandomMonadic`] (`RM`) — monadic instructions use their
//!   operand as the first operand; the free `s` coordinate is chosen at
//!   random. Dyadic instructions are fully constrained.
//! * [`AllocPolicy::RandomCommutative`] (`RC`) — functional units execute
//!   both operand orders (`A-B` and `-A+B`), so *any* dyadic instruction
//!   may swap operands; the form is picked at random, then remaining
//!   freedom at random.
//! * [`AllocPolicy::LoadBalance`] — our implementation of the paper's
//!   §5.4 "future research" direction: like `RC`, but among the eligible
//!   clusters the least-loaded one is chosen instead of a random one.

use crate::cluster::ClusterId;
use crate::config::RegFileMode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wsrs_isa::DynInst;
use wsrs_regfile::Subset;

/// Cluster-allocation policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocPolicy {
    /// Round-robin over clusters — the paper's policy for conventional and
    /// write-specialized machines. Not usable with WSRS.
    RoundRobin,
    /// `RM`: random left/right choice for monadic instructions (§5.2.1).
    RandomMonadic,
    /// `RC`: random form selection with "commutative clusters" (§5.2.1).
    RandomCommutative,
    /// Extension: RC's freedom, resolved toward the least-loaded cluster.
    LoadBalance,
    /// Figure 2b: pools of identical functional units — the executing
    /// domain is a pure function of the µop's class (load/store pool,
    /// simple-ALU pool, FP/complex pool, branch pool). Usable with write
    /// specialization, not with WSRS.
    ByKind,
}

impl std::fmt::Display for AllocPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AllocPolicy::RoundRobin => "RR",
            AllocPolicy::RandomMonadic => "RM",
            AllocPolicy::RandomCommutative => "RC",
            AllocPolicy::LoadBalance => "LB",
            AllocPolicy::ByKind => "POOL",
        };
        f.write_str(s)
    }
}

/// The cluster chosen for a µop, and whether its operands were swapped
/// (executed in the inverted form).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClusterChoice {
    /// Executing cluster.
    pub cluster: ClusterId,
    /// Whether the µop runs in its operand-swapped form.
    pub swapped: bool,
}

/// Stateful allocator: owns the round-robin counter and the policy RNG.
#[derive(Clone, Debug)]
pub struct Allocator {
    policy: AllocPolicy,
    mode: RegFileMode,
    clusters: usize,
    rr_next: usize,
    rng: StdRng,
}

impl Allocator {
    /// Builds an allocator.
    ///
    /// # Panics
    ///
    /// Panics if `RoundRobin` is requested for a WSRS machine (the operand
    /// subsets dictate the cluster there) or a non-4-cluster WSRS geometry
    /// is requested.
    #[must_use]
    pub fn new(policy: AllocPolicy, mode: RegFileMode, clusters: usize, seed: u64) -> Self {
        if mode == RegFileMode::Wsrs {
            assert!(
                !matches!(policy, AllocPolicy::RoundRobin | AllocPolicy::ByKind),
                "{policy} cannot honour WSRS operand constraints"
            );
            assert_eq!(clusters, 4, "WSRS allocation is defined for 4 clusters");
        }
        if policy == AllocPolicy::ByKind {
            assert_eq!(clusters, 4, "the pooled organization has four pools");
        }
        Allocator {
            policy,
            mode,
            clusters,
            rr_next: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The raw state of the policy RNG. The allocator draws exactly once
    /// per µop shape that needs randomness, in rename (= trace) order, so
    /// this single word — restored via [`Allocator::set_rng_state`] —
    /// positions a fresh allocator mid-trace with its remaining draw
    /// sequence identical to one that simulated the whole prefix. (The
    /// round-robin cursor is *not* part of this state; it only advances
    /// under `RoundRobin`, which WSRS rejects, and the sampled path warms
    /// WSRS configurations only.)
    #[must_use]
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Repositions the policy RNG at a state captured by
    /// [`Allocator::rng_state`].
    pub fn set_rng_state(&mut self, state: u64) {
        self.rng = StdRng::from_state(state);
    }

    /// Chooses the executing cluster for `d`. `src_subsets` gives the
    /// current register-file subset of each source operand position
    /// (`None` where the µop has no operand in that position);
    /// `cluster_loads` the current per-cluster in-flight occupancy
    /// (used by [`AllocPolicy::LoadBalance`]).
    pub fn choose(
        &mut self,
        d: &DynInst,
        src_subsets: [Option<Subset>; 2],
        cluster_loads: &[usize],
    ) -> ClusterChoice {
        self.choose_avoiding(d, src_subsets, cluster_loads, None)
    }

    /// Like [`Allocator::choose`], implementing the paper's §2.3 deadlock
    /// workaround (a): when `subset_free` is given (free destination
    /// registers per subset) and the policy has freedom, clusters whose
    /// register subset is exhausted are avoided. Fully-constrained dyadic
    /// µops cannot be redirected — avoidance is best-effort, exactly as the
    /// paper frames it.
    pub fn choose_avoiding(
        &mut self,
        d: &DynInst,
        src_subsets: [Option<Subset>; 2],
        cluster_loads: &[usize],
        subset_free: Option<&[usize]>,
    ) -> ClusterChoice {
        let legal = placements(self.mode, self.clusters, src_subsets);
        let choice = self.pick(d, legal, cluster_loads);
        let Some(free) = subset_free else {
            return choice;
        };
        let free_at = |c: &ClusterChoice| free[self.mode.write_subset(c.cluster).index()];
        if free_at(&choice) > 0 {
            return choice;
        }
        // The chosen cluster's subset is empty: take another placement the
        // policy may use that has registers, preferring the fullest free
        // list.
        let usable = match self.policy {
            AllocPolicy::RandomCommutative | AllocPolicy::LoadBalance => legal,
            _ => Placements {
                commuted: Form::NONE,
                ..legal
            },
        };
        usable
            .iter()
            .filter(|c| free_at(c) > 0)
            .max_by_key(free_at)
            .unwrap_or(choice)
    }

    /// The policy's pick among a µop's legal placements. The random
    /// policies draw once per decision they make, in a fixed order, which
    /// is what lets the sampled path replay them.
    fn pick(&mut self, d: &DynInst, legal: Placements, loads: &[usize]) -> ClusterChoice {
        let Placements { direct, commuted } = legal;
        // Only a dyadic µop has a single commuted placement.
        let dyadic = commuted.count == 1;
        match self.policy {
            AllocPolicy::ByKind => ClusterChoice {
                cluster: Self::pool_for(d.class),
                swapped: false,
            },
            AllocPolicy::RoundRobin => {
                let c = direct.nth(self.rr_next, false);
                self.rr_next = (self.rr_next + 1) % self.clusters;
                c
            }
            // `RM` never commutes, so a dyadic µop is fully constrained.
            AllocPolicy::RandomMonadic if dyadic => direct.nth(0, false),
            AllocPolicy::RandomMonadic => self.draw(direct, false),
            // §5.2.1: the form is first randomly selected.
            AllocPolicy::RandomCommutative if dyadic => {
                if self.rng.random::<bool>() && commuted.first != direct.first {
                    commuted.nth(0, true)
                } else {
                    direct.nth(0, false)
                }
            }
            AllocPolicy::RandomCommutative if commuted.count == 0 => self.draw(direct, false),
            // Random form (operand at the first or second entry), then the
            // free coordinate at random.
            AllocPolicy::RandomCommutative => {
                if self.rng.random::<bool>() {
                    self.draw(direct, false)
                } else {
                    self.draw(commuted, true)
                }
            }
            // The least-loaded placement; ties go to the earliest.
            AllocPolicy::LoadBalance => {
                let load = |c: &ClusterChoice| loads[c.cluster.0 as usize];
                let mut best = direct.nth(0, false);
                for (form, swapped) in [(direct, false), (commuted, true)] {
                    for k in 0..usize::from(form.count) {
                        let c = form.nth(k, swapped);
                        if load(&c) < load(&best) {
                            best = c;
                        }
                    }
                }
                best
            }
        }
    }

    /// One uniform draw among `form`'s clusters: one RNG word (between
    /// two clusters, its top bit, as `random::<bool>()` reads it).
    fn draw(&mut self, form: Form, swapped: bool) -> ClusterChoice {
        form.nth(self.rng.random_range(0..usize::from(form.count)), swapped)
    }

    /// Pool selection for the Figure 2b organization: P0 load/store,
    /// P1 simple ALUs, P2 FP + complex integer, P3 branches.
    fn pool_for(class: wsrs_isa::OpClass) -> ClusterId {
        use wsrs_isa::OpClass::*;
        match class {
            Load | Store => ClusterId(0),
            IntAlu => ClusterId(1),
            IntMulDiv | FpAdd | FpMul | FpDivSqrt | FpMove => ClusterId(2),
            Branch => ClusterId(3),
        }
    }
}

/// The clusters where a µop can execute with its operands in one order:
/// `count` clusters from `first`, `stride` apart, along the coordinates
/// the operands leave free.
#[derive(Clone, Copy, Debug)]
struct Form {
    first: u8,
    stride: u8,
    count: u8,
}

impl Form {
    /// No cluster: the commuted form of a µop with no operand order.
    const NONE: Form = Form {
        first: 0,
        stride: 0,
        count: 0,
    };

    /// The form's `k`-th cluster.
    fn nth(self, k: usize, swapped: bool) -> ClusterChoice {
        ClusterChoice {
            cluster: ClusterId(self.first + self.stride * k as u8),
            swapped,
        }
    }
}

/// A µop's legal placements: the `direct` form reads the operands in
/// program order, the `commuted` form reads them swapped. Inline and a
/// few bytes, so choosing never allocates.
#[derive(Clone, Copy, Debug)]
struct Placements {
    direct: Form,
    commuted: Form,
}

impl Placements {
    /// Every placement: the direct ones, then the commuted ones.
    fn iter(self) -> impl Iterator<Item = ClusterChoice> {
        let each =
            |form: Form, swapped| (0..usize::from(form.count)).map(move |k| form.nth(k, swapped));
        each(self.direct, false).chain(each(self.commuted, true))
    }
}

/// Read specialization (§3), the one home of the read rule: where a µop
/// whose operands sit in `src_subsets` can execute. On a WSRS file the
/// executing cluster has the `f` coordinate of the first operand's subset
/// and the `s` coordinate of the second's; the commuted form swaps the
/// operands (§3.3), a monadic µop leaves one coordinate free and a noadic
/// one both. Every cluster reads a conventional or write-specialized file,
/// so there every cluster is a direct placement.
fn placements(mode: RegFileMode, clusters: usize, src_subsets: [Option<Subset>; 2]) -> Placements {
    // The cluster with coordinates (f, s) is the one writing that subset.
    let at = |f, s| mode.home_cluster(Subset::from_bits(f, s)).0;
    let one = |c| Form {
        first: c,
        stride: 0,
        count: 1,
    };
    let two = |c0: u8, c1: u8| Form {
        first: c0,
        stride: c1 - c0,
        count: 2,
    };
    match (mode, src_subsets) {
        (RegFileMode::Wsrs, [Some(a), Some(b)]) => Placements {
            direct: one(at(a.f(), b.s())),
            commuted: one(at(b.f(), a.s())),
        },
        (RegFileMode::Wsrs, [Some(x), None] | [None, Some(x)]) => Placements {
            direct: two(at(x.f(), 0), at(x.f(), 1)),
            commuted: two(at(0, x.s()), at(1, x.s())),
        },
        _ => Placements {
            direct: Form {
                first: 0,
                stride: 1,
                count: clusters as u8,
            },
            commuted: Form::NONE,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrs_isa::Opcode;

    fn dyn_inst() -> DynInst {
        DynInst::new(0, Opcode::Add)
    }

    #[test]
    fn round_robin_cycles() {
        let mut a = Allocator::new(AllocPolicy::RoundRobin, RegFileMode::Conventional, 4, 1);
        let loads = [0; 4];
        let seq: Vec<u8> = (0..8)
            .map(|_| a.choose(&dyn_inst(), [None, None], &loads).cluster.0)
            .collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "cannot honour WSRS")]
    fn round_robin_rejected_for_wsrs() {
        let _ = Allocator::new(AllocPolicy::RoundRobin, RegFileMode::Wsrs, 4, 1);
    }

    #[test]
    fn rm_dyadic_is_fully_constrained() {
        let mut a = Allocator::new(AllocPolicy::RandomMonadic, RegFileMode::Wsrs, 4, 1);
        let loads = [0; 4];
        // src0 in S2 (f=1), src1 in S1 (s=1) -> C(1,1) = C3, always.
        for _ in 0..20 {
            let c = a.choose(&dyn_inst(), [Some(Subset(2)), Some(Subset(1))], &loads);
            assert_eq!(c.cluster, ClusterId(3));
            assert!(!c.swapped);
        }
    }

    #[test]
    fn rm_monadic_fixes_f_randomizes_s() {
        let mut a = Allocator::new(AllocPolicy::RandomMonadic, RegFileMode::Wsrs, 4, 42);
        let loads = [0; 4];
        let mut seen = [false; 4];
        for _ in 0..64 {
            let c = a.choose(&dyn_inst(), [Some(Subset(2)), None], &loads);
            assert_eq!(
                RegFileMode::Wsrs.write_subset(c.cluster).f(),
                1,
                "f fixed by the operand's subset"
            );
            seen[c.cluster.0 as usize] = true;
        }
        assert!(seen[2] && seen[3], "both s choices exercised");
        assert!(!seen[0] && !seen[1]);
    }

    #[test]
    fn rc_dyadic_uses_both_forms() {
        let mut a = Allocator::new(AllocPolicy::RandomCommutative, RegFileMode::Wsrs, 4, 7);
        let loads = [0; 4];
        let mut clusters = [false; 4];
        for _ in 0..64 {
            // src0 in S0 (f=0,s=0), src1 in S3 (f=1,s=1):
            // direct C(0,1)=C1, inverted C(1,0)=C2.
            let c = a.choose(&dyn_inst(), [Some(Subset(0)), Some(Subset(3))], &loads);
            clusters[c.cluster.0 as usize] = true;
            if c.cluster == ClusterId(2) {
                assert!(c.swapped);
            } else {
                assert_eq!(c.cluster, ClusterId(1));
                assert!(!c.swapped);
            }
        }
        assert!(clusters[1] && clusters[2]);
    }

    #[test]
    fn rc_same_subset_operands_cannot_move() {
        let mut a = Allocator::new(AllocPolicy::RandomCommutative, RegFileMode::Wsrs, 4, 9);
        let loads = [0; 4];
        // both operands in S1 (f=0,s=1): direct = inverted = C(0,1) = C1.
        for _ in 0..20 {
            let c = a.choose(&dyn_inst(), [Some(Subset(1)), Some(Subset(1))], &loads);
            assert_eq!(c.cluster, ClusterId(1));
        }
    }

    #[test]
    fn rc_monadic_reaches_three_clusters() {
        let mut a = Allocator::new(AllocPolicy::RandomCommutative, RegFileMode::Wsrs, 4, 11);
        let loads = [0; 4];
        let mut seen = [false; 4];
        for _ in 0..256 {
            // operand in S0 (f=0, s=0): first-entry form reaches C0/C1,
            // second-entry form reaches C0/C2 -> three distinct clusters.
            let c = a.choose(&dyn_inst(), [Some(Subset(0)), None], &loads);
            seen[c.cluster.0 as usize] = true;
        }
        assert_eq!(seen, [true, true, true, false], "C3 is unreachable");
    }

    #[test]
    fn by_kind_routes_by_class() {
        use wsrs_isa::Opcode;
        let mut a = Allocator::new(AllocPolicy::ByKind, RegFileMode::WriteSpecialized, 4, 1);
        let loads = [0; 4];
        let route = |a: &mut Allocator, op: Opcode| {
            let d = DynInst::new(0, op);
            a.choose(&d, [None, None], &loads).cluster.0
        };
        assert_eq!(route(&mut a, Opcode::Lw), 0);
        assert_eq!(route(&mut a, Opcode::Sw), 0);
        assert_eq!(route(&mut a, Opcode::Add), 1);
        assert_eq!(route(&mut a, Opcode::Mul), 2);
        assert_eq!(route(&mut a, Opcode::Fadd), 2);
        assert_eq!(route(&mut a, Opcode::Beq), 3);
        // Pure function: stable across calls, never swapped.
        let d = DynInst::new(0, Opcode::Add);
        let c = a.choose(&d, [Some(Subset(3)), Some(Subset(2))], &loads);
        assert_eq!(c.cluster, ClusterId(1));
        assert!(!c.swapped);
    }

    #[test]
    #[should_panic(expected = "cannot honour WSRS")]
    fn by_kind_rejected_for_wsrs() {
        let _ = Allocator::new(AllocPolicy::ByKind, RegFileMode::Wsrs, 4, 1);
    }

    #[test]
    fn rng_state_restore_replays_the_exact_choice_sequence() {
        let loads = [0; 4];
        let shapes: [[Option<Subset>; 2]; 4] = [
            [Some(Subset(0)), Some(Subset(3))],
            [Some(Subset(2)), None],
            [None, None],
            [None, Some(Subset(1))],
        ];
        let mut a = Allocator::new(AllocPolicy::RandomCommutative, RegFileMode::Wsrs, 4, 0x5eed);
        // Consume a prefix, snapshot, and check a restored allocator
        // continues with the identical draws.
        for i in 0..37 {
            let _ = a.choose(&dyn_inst(), shapes[i % shapes.len()], &loads);
        }
        let mut b = Allocator::new(AllocPolicy::RandomCommutative, RegFileMode::Wsrs, 4, 1);
        b.set_rng_state(a.rng_state());
        for i in 0..200 {
            let shape = shapes[i % shapes.len()];
            assert_eq!(
                a.choose(&dyn_inst(), shape, &loads),
                b.choose(&dyn_inst(), shape, &loads)
            );
        }
    }

    #[test]
    fn load_balance_prefers_idle_cluster() {
        let mut a = Allocator::new(AllocPolicy::LoadBalance, RegFileMode::Wsrs, 4, 3);
        // operand in S0; C1 is busy, C2 idle -> second-entry form lands C2 or C0.
        let loads = [10, 50, 0, 50];
        let c = a.choose(&dyn_inst(), [Some(Subset(0)), None], &loads);
        assert_eq!(c.cluster, ClusterId(2));
        assert!(c.swapped);
    }

    #[test]
    fn noadic_reaches_all_clusters() {
        let mut a = Allocator::new(AllocPolicy::RandomCommutative, RegFileMode::Wsrs, 4, 5);
        let loads = [0; 4];
        let mut seen = [false; 4];
        for _ in 0..128 {
            let c = a.choose(&dyn_inst(), [None, None], &loads);
            seen[c.cluster.0 as usize] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    /// Every (policy, mode) pair [`Allocator::new`] accepts, driven over a
    /// fixed synthetic stream: noadic µops, monadic µops with the operand
    /// in either position, and dyadic µops over every subset pair, under
    /// varied cluster loads. WSRS runs repeat the stream with a free-register
    /// vector that empties the chosen subset (the engine hands one only to
    /// a WSRS allocator). The pin is a hash of the `(cluster, swapped)`
    /// sequence and the final policy-RNG state, so a rewrite of any
    /// policy's choice, or of its draw count and order, fails here.
    #[test]
    fn every_allocation_decision_is_pinned() {
        use wsrs_isa::{Fnv1a, Opcode};
        let mut shapes: Vec<[Option<Subset>; 2]> = vec![[None, None]];
        for x in 0..4 {
            shapes.push([Some(Subset(x)), None]);
            shapes.push([None, Some(Subset(x))]);
        }
        for a in 0..4 {
            for b in 0..4 {
                shapes.push([Some(Subset(a)), Some(Subset(b))]);
            }
        }
        let ops = [
            Opcode::Add,
            Opcode::Lw,
            Opcode::Fadd,
            Opcode::Sw,
            Opcode::Mul,
            Opcode::Beq,
        ];
        // A small deterministic mixer for loads and free counts.
        let mix = |i: u64, j: u64| {
            let mut z = (i * 4 + j).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z ^= z >> 29;
            z.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 58
        };
        let run = |policy: AllocPolicy, mode: RegFileMode, avoid: bool| {
            let mut a = Allocator::new(policy, mode, 4, 0x5eed);
            let mut h = Fnv1a::new();
            for i in 0..600u64 {
                let shape = shapes[i as usize % shapes.len()];
                let d = DynInst::new(4 * i, ops[i as usize % ops.len()]);
                let loads: Vec<usize> = (0..4).map(|c| mix(i, c) as usize % 6).collect();
                let c = if avoid {
                    // Empty the subset of the cluster the policy picks.
                    let picked = a.clone().choose(&d, shape, &loads).cluster.0 as usize;
                    let mut free: Vec<usize> = (0..4).map(|s| mix(i + 7, s) as usize % 4).collect();
                    free[picked] = 0;
                    a.choose_avoiding(&d, shape, &loads, Some(&free))
                } else {
                    a.choose(&d, shape, &loads)
                };
                h.write_u8(c.cluster.0);
                h.write_u8(u8::from(c.swapped));
            }
            h.write_u64(a.rng_state());
            h.finish()
        };
        use AllocPolicy::*;
        use RegFileMode::*;
        // Recorded before the read rule moved into `placements`.
        let pins = [
            (RoundRobin, Conventional, false, 0x8d4b_287f_5b3a_17e2),
            (RoundRobin, WriteSpecialized, false, 0x8d4b_287f_5b3a_17e2),
            (ByKind, Conventional, false, 0x9270_d7c1_bc24_51c2),
            (ByKind, WriteSpecialized, false, 0x9270_d7c1_bc24_51c2),
            (RandomMonadic, Conventional, false, 0x8b10_4d0e_5e2b_b861),
            (
                RandomMonadic,
                WriteSpecialized,
                false,
                0x8b10_4d0e_5e2b_b861,
            ),
            (RandomMonadic, Wsrs, false, 0xdcf4_0ae0_c561_08d5),
            (RandomMonadic, Wsrs, true, 0xdc66_4bd2_12a6_e4a5),
            (
                RandomCommutative,
                Conventional,
                false,
                0x8b10_4d0e_5e2b_b861,
            ),
            (
                RandomCommutative,
                WriteSpecialized,
                false,
                0x8b10_4d0e_5e2b_b861,
            ),
            (RandomCommutative, Wsrs, false, 0x8bad_b3bb_3e54_e36c),
            (RandomCommutative, Wsrs, true, 0x2f67_4565_8bb5_f578),
            (LoadBalance, Conventional, false, 0x1fad_39bb_3b18_5047),
            (LoadBalance, WriteSpecialized, false, 0x1fad_39bb_3b18_5047),
            (LoadBalance, Wsrs, false, 0x8f9c_425d_8d21_8cdd),
            (LoadBalance, Wsrs, true, 0xe824_a7a0_e9c0_c679),
        ];
        let moved: Vec<String> = pins
            .iter()
            .filter(|&&(p, m, avoid, want)| run(p, m, avoid) != want)
            .map(|(p, m, avoid, _)| format!("{p} {m:?} avoid={avoid}"))
            .collect();
        assert!(moved.is_empty(), "allocation decisions moved: {moved:?}");
    }
}
