//! Property tests for the renamer: physical registers are conserved and
//! never double-allocated under arbitrary rename/commit interleavings.

use proptest::prelude::*;
use std::collections::HashSet;
use wsrs_isa::{Reg, RegClass, RegRef};
use wsrs_regfile::{Mapping, RenameStrategy, Renamer, RenamerConfig, Subset};

#[derive(Clone, Debug)]
enum Action {
    /// Rename logical register `l` into subset `s`.
    Rename { logical: u8, subset: u8 },
    /// Commit (free) the oldest outstanding previous-mapping.
    Commit,
}

/// A one-thread write-specialized renamer: four subsets of 128 integer
/// and 64 FP registers.
fn four_subsets(strategy: RenameStrategy) -> RenamerConfig {
    RenamerConfig {
        subsets: 4,
        int_regs: 512,
        fp_regs: 256,
        strategy,
        threads: 1,
    }
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (0u8..79, 0u8..4).prop_map(|(logical, subset)| Action::Rename { logical, subset }),
        Just(Action::Commit),
    ]
}

fn run_actions(strategy: RenameStrategy, actions: &[Action]) -> Result<(), TestCaseError> {
    let cfg = four_subsets(strategy);
    let mut r = Renamer::new(cfg, &cfg.reset_placement());
    let mut cycle = 0u64;
    // Previous mappings awaiting commit, oldest first.
    let mut pending: Vec<Mapping> = Vec::new();
    // Every physical register currently the target of a live mapping.
    let mut live: HashSet<u32> = r.arch_mappings(RegClass::Int).map(|m| m.phys.0).collect();

    for action in actions {
        cycle += 1;
        match *action {
            Action::Rename { logical, subset } => {
                r.begin_cycle(cycle, 8);
                if let Some(m) = r.alloc(RegClass::Int, Subset(subset)) {
                    // Never hand out a register that is still live.
                    prop_assert!(live.insert(m.phys.0), "double allocation of {:?}", m.phys);
                    prop_assert_eq!(m.subset, Subset(subset));
                    let old = r.rename_dest_for(0, RegRef::int(Reg::new(logical)), m);
                    pending.push(old);
                }
                r.end_cycle(cycle);
            }
            Action::Commit => {
                if !pending.is_empty() {
                    let old = pending.remove(0);
                    prop_assert!(live.remove(&old.phys.0), "freeing non-live register");
                    r.free(RegClass::Int, old, cycle);
                }
            }
        }
    }

    // Conservation: live + free + recycling == total.
    let mut accounted = live.len();
    for s in 0..4 {
        accounted += r.available(RegClass::Int, Subset(s));
        accounted += r.in_recycling(RegClass::Int, Subset(s));
    }
    prop_assert_eq!(accounted, 512, "register leak or duplication");
    Ok(())
}

proptest! {
    #[test]
    fn exact_count_conserves_registers(actions in prop::collection::vec(action_strategy(), 1..300)) {
        run_actions(RenameStrategy::ExactCount, &actions)?;
    }

    #[test]
    fn recycling_conserves_registers(actions in prop::collection::vec(action_strategy(), 1..300)) {
        run_actions(RenameStrategy::Recycling, &actions)?;
    }

    /// Source lookups always return the most recent mapping installed for
    /// that logical register.
    #[test]
    fn map_lookup_returns_latest(renames in prop::collection::vec((0u8..79, 0u8..4), 1..100)) {
        let cfg = four_subsets(RenameStrategy::ExactCount);
        let mut r = Renamer::new(cfg, &cfg.reset_placement());
        let mut latest: std::collections::HashMap<u8, Mapping> = Default::default();
        for (cycle, &(logical, subset)) in renames.iter().enumerate() {
            r.begin_cycle(cycle as u64, 8);
            if let Some(m) = r.alloc(RegClass::Int, Subset(subset)) {
                r.rename_dest_for(0, RegRef::int(Reg::new(logical)), m);
                latest.insert(logical, m);
            }
            r.end_cycle(cycle as u64);
        }
        for (&logical, &m) in &latest {
            prop_assert_eq!(r.map_source_for(0, RegRef::int(Reg::new(logical))), m);
        }
    }
}
