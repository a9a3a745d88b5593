//! Property tests for the WSRS cluster-allocation invariant — the heart of
//! register read specialization (paper Figure 3): whatever the policy
//! decides, the chosen cluster must be able to read both operands.

use proptest::prelude::*;
use wsrs_core::alloc::Allocator;
use wsrs_core::cluster::ClusterId;
use wsrs_core::{AllocPolicy, RegFileMode};
use wsrs_isa::{DynInst, Opcode, Reg};
use wsrs_regfile::Subset;

fn dyadic() -> DynInst {
    let mut d = DynInst::new(0, Opcode::Add);
    d.srcs = [Some(Reg::new(1).into()), Some(Reg::new(2).into())];
    d
}

fn monadic() -> DynInst {
    let mut d = DynInst::new(0, Opcode::Mov);
    d.srcs = [Some(Reg::new(1).into()), None];
    d
}

/// The cluster's `(f, s)` coordinates: those of the subset it writes.
fn coordinates(cluster: ClusterId) -> Subset {
    RegFileMode::Wsrs.write_subset(cluster)
}

/// The read-specialization legality rule: on cluster C(f,s), the first
/// operand must live in a subset with matching `f` and the second in one
/// with matching `s` (after any swap the policy applied).
fn legal(cluster: ClusterId, first: Option<Subset>, second: Option<Subset>) -> bool {
    let at = coordinates(cluster);
    first.is_none_or(|x| x.f() == at.f()) && second.is_none_or(|x| x.s() == at.s())
}

proptest! {
    /// Every policy decision satisfies the operand-reach constraint for
    /// dyadic µops, with or without swapping.
    #[test]
    fn dyadic_choices_are_legal(sa in 0u8..4, sb in 0u8..4, seed in any::<u64>(),
                                policy_idx in 0usize..3) {
        let policy = [AllocPolicy::RandomMonadic, AllocPolicy::RandomCommutative, AllocPolicy::LoadBalance][policy_idx];
        let mut alloc = Allocator::new(policy, RegFileMode::Wsrs, 4, seed);
        let loads = [3usize, 1, 4, 1];
        for _ in 0..16 {
            let c = alloc.choose(&dyadic(), [Some(Subset(sa)), Some(Subset(sb))], &loads);
            let (first, second) = if c.swapped {
                (Some(Subset(sb)), Some(Subset(sa)))
            } else {
                (Some(Subset(sa)), Some(Subset(sb)))
            };
            prop_assert!(
                legal(c.cluster, first, second),
                "{policy:?} chose {:?} (swapped={}) for S{sa},S{sb}",
                c.cluster, c.swapped
            );
        }
    }

    /// Monadic µops are likewise always placed on a cluster that can read
    /// the operand at the entry the chosen form uses.
    #[test]
    fn monadic_choices_are_legal(s in 0u8..4, seed in any::<u64>(), policy_idx in 0usize..3) {
        let policy = [AllocPolicy::RandomMonadic, AllocPolicy::RandomCommutative, AllocPolicy::LoadBalance][policy_idx];
        let mut alloc = Allocator::new(policy, RegFileMode::Wsrs, 4, seed);
        let loads = [0usize, 2, 2, 9];
        for _ in 0..16 {
            let c = alloc.choose(&monadic(), [Some(Subset(s)), None], &loads);
            let (first, second) = if c.swapped {
                (None, Some(Subset(s)))
            } else {
                (Some(Subset(s)), None)
            };
            prop_assert!(
                legal(c.cluster, first, second),
                "{policy:?} chose {:?} (swapped={}) for S{s}",
                c.cluster, c.swapped
            );
        }
    }

    /// RM never swaps (it does not assume commutative clusters).
    #[test]
    fn rm_never_swaps(sa in 0u8..4, sb in 0u8..4, seed in any::<u64>()) {
        let mut alloc = Allocator::new(AllocPolicy::RandomMonadic, RegFileMode::Wsrs, 4, seed);
        let c = alloc.choose(&dyadic(), [Some(Subset(sa)), Some(Subset(sb))], &[0; 4]);
        prop_assert!(!c.swapped);
        prop_assert_eq!(coordinates(c.cluster).f(), Subset(sa).f());
        prop_assert_eq!(coordinates(c.cluster).s(), Subset(sb).s());
    }

    /// Round-robin on a conventional machine touches all clusters evenly.
    #[test]
    fn round_robin_is_even(n in 4usize..64) {
        let mut alloc = Allocator::new(AllocPolicy::RoundRobin, RegFileMode::Conventional, 4, 0);
        let mut counts = [0usize; 4];
        for _ in 0..n * 4 {
            let c = alloc.choose(&dyadic(), [None, None], &[0; 4]);
            counts[c.cluster.0 as usize] += 1;
        }
        prop_assert_eq!(counts, [n; 4]);
    }
}
