//! Integration tests for the extension features (DESIGN.md §5c): the
//! pooled Figure 2b machine, the LoadBalance policy, virtual-physical
//! registers composed with WSRS, and deadlock recovery.

use wsrs::core::{AllocPolicy, SimConfig, Simulator};
use wsrs::regfile::RenameStrategy;
use wsrs::workloads::Workload;

const WARM: u64 = 150_000;
const MEAS: u64 = 150_000;

#[test]
fn virtual_physical_composes_with_wsrs() {
    // §6: "all these techniques are orthogonal with WSRS and can be
    // applied at cluster level" — VP over full read+write specialization.
    let plain = SimConfig::wsrs(
        512,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    );
    let mut vp = plain;
    vp.set_virtual_physical(64);
    for w in [Workload::Gzip, Workload::Swim] {
        let a = Simulator::new(plain).run_measured(w.trace(), WARM, MEAS);
        let b = Simulator::new(vp).run_measured(w.trace(), WARM, MEAS);
        assert!(!b.deadlocked, "{w}");
        assert!(
            b.ipc() > 0.93 * a.ipc(),
            "{w}: VP-over-WSRS {} vs WSRS {}",
            b.ipc(),
            a.ipc()
        );
    }
}

#[test]
fn pooled_machine_handles_every_workload() {
    let cfg = SimConfig::pooled_write_specialized(512, RenameStrategy::ExactCount);
    for w in Workload::all() {
        let r = Simulator::new(cfg).run_measured(w.trace(), 30_000, 30_000);
        assert!(!r.deadlocked, "{w}");
        assert!(r.ipc() > 0.05, "{w}: {}", r.ipc());
        // Branches always land in the branch pool, memory in the ld/st pool.
        assert!(r.per_cluster[3] > 0, "{w}: branch pool unused");
    }
}

#[test]
fn load_balance_recovers_constrained_kernels() {
    // crafty is WSRS's worst case (dense dyadic chains). The §5.4-style
    // dynamic policy recovers most of the loss relative to RC.
    let rc = SimConfig::wsrs(
        512,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    );
    let lb = SimConfig::wsrs(512, AllocPolicy::LoadBalance, RenameStrategy::ExactCount);
    let w = Workload::Crafty;
    let a = Simulator::new(rc).run_measured(w.trace(), WARM, MEAS);
    let b = Simulator::new(lb).run_measured(w.trace(), WARM, MEAS);
    assert!(
        b.ipc() > a.ipc(),
        "LB {} should beat RC {} on crafty",
        b.ipc(),
        a.ipc()
    );
}

#[test]
fn monolithic_machine_is_an_upper_bound_on_clustered() {
    // Same units, complete bypass, no cluster constraints: the monolithic
    // machine cannot lose to the clustered round-robin one.
    for w in [Workload::Gzip, Workload::Galgel] {
        let mono = Simulator::new(SimConfig::monolithic(256)).run_measured(w.trace(), WARM, MEAS);
        let clus =
            Simulator::new(SimConfig::conventional_rr(256)).run_measured(w.trace(), WARM, MEAS);
        assert!(
            mono.ipc() >= 0.999 * clus.ipc(),
            "{w}: mono {} vs clustered {}",
            mono.ipc(),
            clus.ipc()
        );
    }
}

#[test]
fn smt_pairs_real_workloads() {
    // §2.3's SMT scenario at integration level: two kernels share the WSRS
    // machine; both make full progress and throughput beats either alone.
    let mut cfg = SimConfig::wsrs(
        512,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    );
    cfg.threads = 2;
    cfg.deadlock_recovery = true;
    let per_thread = 120_000;
    let r = Simulator::new(cfg).run_smt(vec![
        Workload::Gzip.trace().take(per_thread),
        Workload::Swim.trace().take(per_thread),
    ]);
    assert!(!r.deadlocked);
    assert_eq!(
        r.per_thread_uops,
        vec![per_thread as u64, per_thread as u64]
    );
    let gzip_alone = Simulator::new(SimConfig::wsrs(
        512,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    ))
    .run(Workload::Gzip.trace().take(per_thread));
    assert!(
        r.ipc() > gzip_alone.ipc(),
        "SMT throughput {} should exceed one thread's {}",
        r.ipc(),
        gzip_alone.ipc()
    );
}

#[test]
fn timeline_collection_matches_report() {
    let cfg = SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount);
    let (report, timeline) =
        Simulator::new(cfg).run_timeline(Workload::Vpr.trace().take(5_000), 256);
    assert_eq!(report.uops, 5_000);
    assert_eq!(timeline.len(), 256);
    // Every recorded µop retired within the simulated cycle range.
    for t in &timeline {
        assert!(t.commit <= report.cycles);
        assert!(t.cluster < 4);
    }
}
