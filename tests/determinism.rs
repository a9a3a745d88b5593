//! Reproducibility: every experiment in the repository must be exactly
//! repeatable — same seed, same trace, same cycle count.

use wsrs::core::{AllocPolicy, SimConfig, Simulator};
use wsrs::regfile::RenameStrategy;
use wsrs::workloads::Workload;

#[test]
fn same_seed_same_cycles() {
    let cfg = SimConfig::wsrs(
        512,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    );
    let a = Simulator::new(cfg).run_measured(Workload::Vpr.trace(), 50_000, 50_000);
    let b = Simulator::new(cfg).run_measured(Workload::Vpr.trace(), 50_000, 50_000);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.per_cluster, b.per_cluster);
    assert_eq!(a.mispredicts, b.mispredicts);
    assert_eq!(a.unbalance_percent, b.unbalance_percent);
}

#[test]
fn different_seed_changes_random_allocation_but_not_work() {
    let mut cfg = SimConfig::wsrs(
        512,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    );
    let a = Simulator::new(cfg).run_measured(Workload::Gzip.trace(), 50_000, 50_000);
    cfg.seed = 0xdead_beef;
    let b = Simulator::new(cfg).run_measured(Workload::Gzip.trace(), 50_000, 50_000);
    assert_eq!(a.uops, b.uops, "same µops retired regardless of seed");
    assert_ne!(
        a.per_cluster, b.per_cluster,
        "random policy should distribute differently under a new seed"
    );
    // IPC stays in the same ballpark — the policy is random, not lucky.
    let ratio = a.ipc() / b.ipc();
    assert!((0.9..1.1).contains(&ratio), "seed swung IPC by {ratio}");
}

#[test]
fn emulator_traces_are_identical() {
    let t1: Vec<_> = Workload::Gcc.trace().take(20_000).collect();
    let t2: Vec<_> = Workload::Gcc.trace().take(20_000).collect();
    assert_eq!(t1, t2);
}

/// A three-column family every lane of which is single-threaded, VP-free
/// and on the default predictor — the grid harness batches it into one
/// lockstep unit per workload.
fn grid_family() -> [(&'static str, SimConfig); 3] {
    [
        ("conv", SimConfig::conventional_rr(256)),
        (
            "wsrs-rc",
            SimConfig::wsrs(
                512,
                AllocPolicy::RandomCommutative,
                RenameStrategy::ExactCount,
            ),
        ),
        (
            "wsrs-rm",
            SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount),
        ),
    ]
}

/// The parallel experiment harness must be a pure performance feature:
/// fanning work units across workers (with the shared trace cache
/// underneath, and compatible columns batched into lockstep units) must
/// leave every report byte-identical to the serial run.
#[test]
fn parallel_grid_matches_serial_byte_for_byte() {
    use wsrs_bench::{run_grid_full, RunParams};

    let workloads = [Workload::Gzip, Workload::Wupwise];
    let configs = grid_family();
    let params = RunParams {
        warmup: 20_000,
        measure: 40_000,
    };
    let grid = |threads| {
        run_grid_full(
            &workloads,
            &configs,
            params,
            threads,
            None,
            None,
            &|_, _, _, _| {},
        )
    };
    let (serial, parallel) = (grid(1), grid(4));
    assert_eq!(serial.reports.len(), 2);
    assert_eq!(parallel.reports[0].len(), 3);
    assert_eq!(
        serial.batched, parallel.batched,
        "plan is thread-independent"
    );
    // A Report's Debug rendering covers every field, so string equality is
    // byte-for-byte equality of the results.
    assert_eq!(
        format!("{:?}", serial.reports),
        format!("{:?}", parallel.reports)
    );
}

/// The batched lockstep path must be a pure performance feature too: for
/// any worker count, a grid whose columns batch into one lockstep unit
/// per workload yields exactly the reports that cell-at-a-time scalar
/// simulation of the same cached traces does.
#[test]
fn batched_grid_matches_scalar_cells_byte_for_byte() {
    use wsrs_bench::{run_grid_full, RunParams, TraceCache};

    let workloads = [Workload::Gzip, Workload::Wupwise];
    let configs = grid_family();
    let params = RunParams {
        warmup: 20_000,
        measure: 40_000,
    };
    let cache = TraceCache::new(params);
    for threads in [1, 3] {
        let run = run_grid_full(
            &workloads,
            &configs,
            params,
            threads,
            None,
            None,
            &|_, _, _, _| {},
        );
        assert!(
            run.batched.iter().all(|&b| b),
            "the family shares one predictor and no VP/SMT, so it batches"
        );
        for (w, row) in workloads.iter().zip(&run.reports) {
            let trace = cache.checkout(*w);
            for ((name, cfg), batched) in configs.iter().zip(row) {
                let scalar = Simulator::new(*cfg).run_measured(
                    trace.iter().copied(),
                    params.warmup,
                    params.measure,
                );
                assert_eq!(
                    format!("{batched:?}"),
                    format!("{scalar:?}"),
                    "{w}/{name} diverged between batched and scalar ({threads} worker(s))"
                );
            }
        }
    }
}

/// The shared trace cache must feed the simulator the same µop stream the
/// per-cell emulator did.
#[test]
fn cached_trace_matches_fresh_emulation() {
    use wsrs_bench::{RunParams, TraceCache};

    let params = RunParams {
        warmup: 10_000,
        measure: 20_000,
    };
    let cfg = SimConfig::conventional_rr(256);
    let cache = TraceCache::new(params);
    let trace = cache.checkout(Workload::Mcf);
    assert_eq!(trace.len(), 30_000);
    let cached =
        Simulator::new(cfg).run_measured(trace.iter().copied(), params.warmup, params.measure);
    let fresh =
        Simulator::new(cfg).run_measured(Workload::Mcf.trace(), params.warmup, params.measure);
    assert_eq!(format!("{cached:?}"), format!("{fresh:?}"));
}

#[test]
fn round_robin_is_seed_independent() {
    let mut cfg = SimConfig::conventional_rr(256);
    let a = Simulator::new(cfg).run_measured(Workload::Swim.trace(), 50_000, 50_000);
    cfg.seed = 999;
    let b = Simulator::new(cfg).run_measured(Workload::Swim.trace(), 50_000, 50_000);
    assert_eq!(a.cycles, b.cycles, "round-robin uses no randomness");
}
