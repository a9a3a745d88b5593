//! End-to-end integration: workload kernels → functional emulator →
//! timing simulator, across the paper's machine classes. These tests pin
//! the *qualitative* results of Figures 4 and 5 at reduced trace lengths.

use wsrs::core::{AllocPolicy, Report, RunSpec, SimConfig, Simulator};
use wsrs::regfile::RenameStrategy;
use wsrs::workloads::Workload;

const MEASURE: u64 = 150_000;

/// Warm-up long enough to clear each kernel's in-trace initialization
/// loops (mcf/equake build megabyte arenas before their steady state).
fn warmup_for(w: Workload) -> u64 {
    match w {
        Workload::Mcf | Workload::Equake => 1_000_000,
        _ => 150_000,
    }
}

fn run(w: Workload, cfg: SimConfig) -> Report {
    Simulator::new(cfg).run_measured(w.trace(), warmup_for(w), MEASURE)
}

fn rc512() -> SimConfig {
    SimConfig::wsrs(
        512,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    )
}

#[test]
fn every_workload_runs_on_every_machine_class() {
    for w in Workload::all() {
        for cfg in [
            SimConfig::conventional_rr(256),
            SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount),
            rc512(),
        ] {
            let r = Simulator::new(cfg).run_measured(w.trace(), 20_000, 30_000);
            assert!(!r.deadlocked, "{w} deadlocked");
            // The warm-up snapshot lands on a commit-group boundary, so the
            // measured window can be short by up to one commit burst.
            assert!(
                (29_992..=30_000).contains(&r.uops),
                "{w} lost µops: {}",
                r.uops
            );
            assert!(r.ipc() > 0.05, "{w} ipc {}", r.ipc());
            assert!(r.ipc() <= 8.0, "{w} ipc above issue width");
        }
    }
}

#[test]
fn write_specialization_alone_does_not_impair_performance() {
    // §5.4.1: WS + round-robin reaches the same performance level as the
    // conventional machine.
    for w in [Workload::Gzip, Workload::Vpr, Workload::Swim] {
        let conv = run(w, SimConfig::conventional_rr(256));
        let ws = run(
            w,
            SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount),
        );
        let ratio = ws.ipc() / conv.ipc();
        assert!(
            ratio > 0.97,
            "{w}: WS {} vs conventional {}",
            ws.ipc(),
            conv.ipc()
        );
    }
}

#[test]
fn wsrs_stands_the_comparison_on_integer_codes() {
    // §5.4.2: WSRS performs comparably to (here: at least 90% of) the
    // conventional machine on integer codes, often better.
    for w in [Workload::Gzip, Workload::Vpr, Workload::Mcf] {
        let conv = run(w, SimConfig::conventional_rr(256));
        let wsrs = run(w, rc512());
        assert!(
            wsrs.ipc() > 0.9 * conv.ipc(),
            "{w}: WSRS {} vs conventional {}",
            wsrs.ipc(),
            conv.ipc()
        );
    }
}

#[test]
fn round_robin_is_perfectly_balanced_wsrs_is_not() {
    let w = Workload::Wupwise;
    let conv = run(w, SimConfig::conventional_rr(256));
    assert_eq!(conv.unbalance_percent, 0.0);
    let wsrs = run(w, rc512());
    assert!(
        wsrs.unbalance_percent > 30.0,
        "FP code should unbalance WSRS: {}",
        wsrs.unbalance_percent
    );
}

#[test]
fn rm_has_fewer_degrees_of_freedom_than_rc() {
    // §5.4: RM uses fewer degrees of freedom, so across the suite its
    // unbalancing degree is at least RC's on average.
    let mut rm_total = 0.0;
    let mut rc_total = 0.0;
    for w in [
        Workload::Vpr,
        Workload::Crafty,
        Workload::Applu,
        Workload::Galgel,
    ] {
        rc_total += run(w, rc512()).unbalance_percent;
        rm_total += run(
            w,
            SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount),
        )
        .unbalance_percent;
    }
    assert!(
        rm_total > rc_total,
        "RM {rm_total} should exceed RC {rc_total}"
    );
}

#[test]
fn mcf_is_the_slowest_crafty_the_fastest_integer_code() {
    // The Figure 4 extremes.
    let mcf = run(Workload::Mcf, SimConfig::conventional_rr(256));
    let crafty = run(Workload::Crafty, SimConfig::conventional_rr(256));
    let gzip = run(Workload::Gzip, SimConfig::conventional_rr(256));
    assert!(mcf.ipc() < gzip.ipc());
    assert!(gzip.ipc() < crafty.ipc());
    assert!(crafty.ipc() > 3.0, "crafty {}", crafty.ipc());
    assert!(mcf.ipc() < 1.0, "mcf {}", mcf.ipc());
}

#[test]
fn memory_hierarchy_engages_on_memory_bound_codes() {
    let r = run(Workload::Mcf, SimConfig::conventional_rr(256));
    assert!(
        r.memory.l1.misses > 1_000,
        "mcf should miss: {:?}",
        r.memory.l1
    );
    assert!(r.memory.l2.misses > 100);
    let c = run(Workload::Crafty, SimConfig::conventional_rr(256));
    assert!(c.memory.l1.accesses < r.memory.l1.accesses / 4);
}

#[test]
fn per_cluster_counts_sum_to_measured_uops() {
    for cfg in [SimConfig::conventional_rr(256), rc512()] {
        // Exact when no warm-up window is involved (dispatch == retire over
        // a full run)...
        let full = Simulator::new(cfg)
            .execute(&RunSpec::default(), [Workload::Gcc.trace().take(60_000)])
            .report;
        let total: u64 = full.per_cluster.iter().sum();
        assert_eq!(total, full.uops);
        // ...and within the in-flight window size for a measured slice
        // (per-cluster counts are dispatch-side, µops are retire-side).
        let r = run(Workload::Gcc, cfg);
        let total: u64 = r.per_cluster.iter().sum();
        assert!(
            total.abs_diff(r.uops) <= cfg.rob as u64,
            "{total} vs {}",
            r.uops
        );
    }
}

#[test]
fn store_heavy_codes_generate_writeback_traffic() {
    // swim writes a full output grid per sweep: dirty L1 victims must show
    // up as write-backs into the L2.
    let r = run(Workload::Swim, SimConfig::conventional_rr(256));
    assert!(
        r.memory.l1.writebacks > 100,
        "writebacks: {}",
        r.memory.l1.writebacks
    );
    // crafty touches no memory: no write-backs at all.
    let c = run(Workload::Crafty, SimConfig::conventional_rr(256));
    assert_eq!(c.memory.l1.writebacks, 0);
}

#[test]
fn branch_predictor_is_effective_on_loopy_code() {
    let r = run(Workload::Swim, SimConfig::conventional_rr(256));
    assert!(
        r.mispredict_rate() < 0.05,
        "stencil loops should predict well: {}",
        r.mispredict_rate()
    );
    let v = run(Workload::Vpr, SimConfig::conventional_rr(256));
    assert!(
        v.mispredict_rate() > r.mispredict_rate(),
        "annealing accepts are harder than loop branches"
    );
}
