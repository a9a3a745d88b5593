//! Differential property tests for the engine's two restructurings:
//!
//! * **Event scheduler + cycle skipping**: random (workload-slice ×
//!   config × policy) triples, virtual-physical machines among them,
//!   must produce a `Report` identical to the
//!   retained O(window) ROB-scan oracle, both with event-horizon cycle
//!   skipping on (the default) and pinned to the cycle-by-cycle loop.
//!   The event engine (calendar wheel + bitset wakeup/select + skipping)
//!   is a pure restructuring of *when* readiness is discovered, never of
//!   what issues. Telemetry-enabled draws additionally check that cycle
//!   attribution conserves issue slots — the bulk charges that skipping
//!   books for whole stalled regions must keep
//!   `sum(buckets) == cycles × width` exact.
//! * **Lockstep batching**: a random *family* of configurations advanced
//!   in lockstep over one shared annotated trace must produce, per lane,
//!   a `Report` identical to that lane's scalar run — including full
//!   cycle-attribution telemetry, which must still conserve issue slots.
//!
//! Any divergence, down to a single stall counter, is a bug.

use proptest::prelude::*;
use wsrs::core::{
    lockstep_compatible, run_lockstep, AllocPolicy, Reference, RunSpec, SimConfig, Simulator,
};
use wsrs::isa::DynInst;
use wsrs::regfile::RenameStrategy;
use wsrs::workloads::Workload;

/// The machine classes both properties draw from: no virtual-physical
/// registers, so every member is lockstep-compatible.
fn config_pool() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("conv-rr-256", SimConfig::conventional_rr(256)),
        ("mono-256", SimConfig::monolithic(256)),
        (
            "wsrr-512",
            SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount),
        ),
        (
            "pooled-512",
            SimConfig::pooled_write_specialized(512, RenameStrategy::ExactCount),
        ),
        (
            "wsrs-rm-512",
            SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount),
        ),
        (
            "wsrs-rc-384",
            SimConfig::wsrs(
                384,
                AllocPolicy::RandomCommutative,
                RenameStrategy::Recycling,
            ),
        ),
        (
            "wsrs-lb-512",
            SimConfig::wsrs(512, AllocPolicy::LoadBalance, RenameStrategy::Recycling),
        ),
    ]
}

/// Virtual-physical machines, for the scan-oracle property only: a
/// roomy file, one tight enough that the anti-wedge moves registers, and
/// a WSRS one tight enough to end some slices deadlocked.
fn vp_pool() -> Vec<(&'static str, SimConfig)> {
    let vp = |mut cfg: SimConfig, cap: usize| {
        cfg.set_virtual_physical(cap);
        cfg
    };
    let wsrr = || SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount);
    vec![
        ("wsrr-512-vp-40", vp(wsrr(), 40)),
        ("wsrr-512-vp-23", vp(wsrr(), 23)),
        (
            "wsrs-rc-512-vp-24",
            vp(
                SimConfig::wsrs(
                    512,
                    AllocPolicy::RandomCommutative,
                    RenameStrategy::ExactCount,
                ),
                24,
            ),
        ),
    ]
}

fn slice(w: Workload, len: usize) -> Vec<DynInst> {
    w.trace().take(len).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn event_engine_matches_scan_oracle(
        widx in 0usize..12,
        cidx in 0usize..10,
        len in 1_000usize..8_000,
        warmup_frac in 0u64..4,
        telemetry in any::<bool>(),
    ) {
        let w = Workload::all()[widx];
        let mut pool = config_pool();
        pool.extend(vp_pool());
        let (name, mut cfg) = pool.swap_remove(cidx);
        cfg.telemetry = telemetry;
        let trace = slice(w, len);
        let warmup = warmup_frac * len as u64 / 8;
        let measure = len as u64 - warmup;
        let sim = Simulator::new(cfg);
        // Default path: event scheduler with cycle skipping.
        let event = sim.run_measured(trace.iter().copied(), warmup, measure);
        let reference = |reference| {
            let spec = RunSpec { warmup, reference: Some(reference), ..RunSpec::default() };
            // The slice is the window: `warmup + measure == len`.
            sim.execute(&spec, [trace.iter().copied()]).report
        };
        let no_skip = reference(Reference::NoSkip);
        let oracle = reference(Reference::Scan);
        prop_assert_eq!(
            format!("{event:?}"),
            format!("{oracle:?}"),
            "skip path diverges from scan oracle on {} × {:?} (len {}, warmup {}, telemetry {})",
            name, w, len, warmup, telemetry
        );
        prop_assert_eq!(
            format!("{no_skip:?}"),
            format!("{oracle:?}"),
            "cycle-by-cycle event path diverges from scan oracle on {} × {:?} (len {}, warmup {})",
            name, w, len, warmup
        );
        prop_assert_eq!(event.attribution.is_some(), telemetry);
        if let Some(attr) = &event.attribution {
            // Skipped regions are charged in bulk (one charge_cycles call
            // per jump); conservation must survive that exactly.
            prop_assert!(
                attr.conserved(),
                "skip-path attribution violates slot conservation on {} × {:?}", name, w
            );
        }
    }

    /// Lockstep differential fuzz: any non-empty subset of the config
    /// pool (every member single-threaded, VP-free, default predictor —
    /// hence lockstep-compatible), with telemetry flipped on for a random
    /// sub-subset of lanes, batched over a random workload slice. Every
    /// lane's report must be bit-identical to its scalar run, and every
    /// telemetry-carrying lane must still conserve issue slots.
    #[test]
    fn lockstep_batch_matches_scalar_lanes(
        widx in 0usize..12,
        mask in 1u32..128,
        telemetry_mask in 0u32..128,
        len in 1_000usize..8_000,
        warmup_frac in 0u64..4,
    ) {
        let w = Workload::all()[widx];
        let family: Vec<(&'static str, SimConfig)> = config_pool()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(i, (n, mut c))| {
                c.telemetry = telemetry_mask & (1 << i) != 0;
                (n, c)
            })
            .collect();
        let configs: Vec<SimConfig> = family.iter().map(|(_, c)| *c).collect();
        prop_assert!(lockstep_compatible(&configs));
        let trace = slice(w, len);
        let warmup = warmup_frac * len as u64 / 8;
        let measure = len as u64 - warmup;
        let reports = run_lockstep(&configs, &trace, warmup, measure);
        for ((name, cfg), batched) in family.iter().zip(&reports) {
            let scalar = Simulator::new(*cfg)
                .run_measured(trace.iter().copied(), warmup, measure);
            prop_assert_eq!(
                format!("{batched:?}"),
                format!("{scalar:?}"),
                "lockstep lane diverges from scalar on {} × {:?} (len {}, warmup {})",
                name, w, len, warmup
            );
            if let Some(attr) = &batched.attribution {
                prop_assert!(
                    attr.conserved(),
                    "lane {} attribution violates slot conservation", name
                );
            }
        }
    }
}
