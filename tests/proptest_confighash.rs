//! Property test for the canonical configuration content hash.
//!
//! [`SimConfig::content_hash`] is the config component of `wsrs-serve`'s
//! persistent memo key, so it must act as an identity: two configurations
//! compare equal **iff** their hashes match. Random (preset × mutation)
//! pairs exercise both directions — equal configs hashing apart would
//! break memo hits, distinct configs colliding would serve wrong results.

use proptest::prelude::*;
use wsrs::core::{AllocPolicy, FastForward, RegCache, SimConfig};
use wsrs::frontend::PredictorKind;
use wsrs::regfile::RenameStrategy;

fn presets() -> Vec<SimConfig> {
    vec![
        SimConfig::conventional_rr(256),
        SimConfig::monolithic(256),
        SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount),
        SimConfig::pooled_write_specialized(512, RenameStrategy::ExactCount),
        SimConfig::wsrs(
            384,
            AllocPolicy::RandomCommutative,
            RenameStrategy::Recycling,
        ),
        SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount),
    ]
}

/// Applies mutation `m` (0 = identity) to `cfg`. Each non-identity arm
/// touches a different field.
fn mutate(mut cfg: SimConfig, m: usize) -> SimConfig {
    match m % 13 {
        0 => {}
        1 => cfg.seed ^= 0x1234,
        2 => cfg.min_mispredict_penalty += 1,
        3 => cfg.int_regs += 32,
        4 => cfg.telemetry = !cfg.telemetry,
        5 => cfg.predictor = PredictorKind::Gshare64K,
        6 => cfg.fast_forward = FastForward::Complete,
        7 => cfg.hierarchy.l2_miss_penalty += 10,
        8 => cfg.rob += 8,
        9 => cfg.threads += 1,
        10 => {
            cfg.reg_cache = Some(RegCache {
                retention_cycles: 8,
                slow_read_penalty: 2,
            });
        }
        11 => cfg.strategy = RenameStrategy::Recycling,
        _ => cfg.deadlock_recovery = !cfg.deadlock_recovery,
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn configs_equal_iff_content_hashes_match(
        base_a in 0usize..6,
        mut_a in 0usize..13,
        base_b in 0usize..6,
        mut_b in 0usize..13,
    ) {
        let a = mutate(presets()[base_a], mut_a);
        let b = mutate(presets()[base_b], mut_b);
        prop_assert_eq!(
            a == b,
            a.content_hash() == b.content_hash(),
            "equality and hash identity disagree:\n a = {:?}\n b = {:?}",
            a,
            b
        );
    }

    #[test]
    fn content_hash_is_a_pure_function(base in 0usize..6, m in 0usize..13) {
        let cfg = mutate(presets()[base], m);
        prop_assert_eq!(cfg.content_hash(), mutate(presets()[base], m).content_hash());
    }
}
