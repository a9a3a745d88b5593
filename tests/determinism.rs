//! Reproducibility: every experiment in the repository must be exactly
//! repeatable — same seed, same trace, same cycle count.

use wsrs::core::{AllocPolicy, RunSpec, SimConfig, Simulator};
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

/// Engine paths the gate grid never runs — SMT with §2.3 deadlock
/// recovery, the virtual-physical anti-wedge (one thread and two) and the
/// deadlock when it can
/// move nothing, exhaustion avoidance, the recycling rename strategy, the
/// register cache and pairwise fast-forwarding — pinned to exact counts
/// on short fixed windows, so a restructuring of the engine cannot change
/// them unnoticed. Each row is
/// `(cycles, uops, deadlock_recoveries, deadlocked, alloc_refusals,
/// stalls.frontend, stalls.rename, stalls.window)`; `alloc_refusals`
/// covers the whole run, the rest the measured window.
#[test]
fn engine_paths_off_the_gate_grid_are_pinned() {
    use wsrs::core::{FastForward, RegCache, Report};

    type Row = (u64, u64, u64, bool, u64, u64, u64, u64);
    let row = |r: Report| -> Row {
        (
            r.cycles,
            r.uops,
            r.deadlock_recoveries,
            r.deadlocked,
            r.rename.alloc_refusals,
            r.stalls.frontend,
            r.stalls.rename,
            r.stalls.window,
        )
    };
    let measured = |cfg: SimConfig, w: Workload| {
        row(Simulator::new(cfg).run_measured(w.trace(), 5_000, 20_000))
    };

    // Two threads over 176 registers: rename-time recovery fires.
    let mut smt = SimConfig::wsrs(
        176,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    );
    smt.threads = 2;
    smt.deadlock_recovery = true;
    let traces = [Workload::Gzip, Workload::Vpr].map(|w| w.trace().take(20_000));
    let smt = row(Simulator::new(smt)
        .execute(&RunSpec::default(), traces)
        .report);

    // Two threads with 46 VP registers per subset, of which both
    // threads' architectural state takes 40: the anti-wedge fires.
    let mut smt_vp = SimConfig::wsrs(
        512,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    );
    smt_vp.threads = 2;
    smt_vp.set_virtual_physical(46);
    let traces = [Workload::Gzip, Workload::Vpr].map(|w| w.trace().take(20_000));
    let smt_vp = row(Simulator::new(smt_vp)
        .execute(&RunSpec::default(), traces)
        .report);

    // 23 physical registers per subset: the issue-time anti-wedge fires.
    let mut vp = SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount);
    vp.set_virtual_physical(23);
    let vp = measured(vp, Workload::Vpr);

    // 24 registers per subset for 20 logical ones: avoidance alone still
    // wedges here, so recovery fires too.
    let mut avoid = SimConfig::wsrs(
        96,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    );
    avoid.avoid_exhaustion = true;
    avoid.deadlock_recovery = true;
    let avoid = measured(avoid, Workload::Vpr);

    let recycling = measured(
        SimConfig::wsrs(
            384,
            AllocPolicy::RandomCommutative,
            RenameStrategy::Recycling,
        ),
        Workload::Swim,
    );
    let reg_cache = measured(
        SimConfig::conventional_reg_cache(
            256,
            RegCache {
                retention_cycles: 16,
                slow_read_penalty: 2,
            },
        ),
        Workload::Gzip,
    );
    let mut pair = SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount);
    pair.fast_forward = FastForward::AdjacentPair;
    let pair = measured(pair, Workload::Crafty);

    for (name, got) in [
        ("smt", smt),
        ("smt_vp", smt_vp),
        ("vp", vp),
        ("avoid", avoid),
    ] {
        assert!(got.2 > 0, "{name}: the recovery path must run");
    }
    assert_eq!(smt, (47203, 40000, 596, false, 35814, 32, 35814, 0), "smt");
    assert_eq!(
        smt_vp,
        (31297, 40000, 146, false, 0, 400, 0, 25918),
        "smt_vp"
    );
    assert_eq!(vp, (27571, 19996, 68, false, 0, 63392, 0, 18005), "vp");
    assert_eq!(
        avoid,
        (17399, 19996, 17, false, 18859, 4536, 14930, 0),
        "avoid"
    );
    assert_eq!(
        recycling,
        (6081, 19995, 0, false, 117, 328, 95, 4433),
        "recycling"
    );
    assert_eq!(
        reg_cache,
        (24000, 19995, 0, false, 29694, 2144, 23732, 0),
        "reg_cache"
    );
    assert_eq!(pair, (5692, 20000, 0, false, 0, 4632, 0, 3518), "pair");

    // VP files too tight for the anti-wedge: a recovery that can move
    // nothing ends the run deadlocked instead of panicking.
    let ws = SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount);
    let rm = SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount);
    let rc = SimConfig::wsrs(
        512,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    );
    let wedges = [
        ("WS", ws, 21, Workload::Gcc),
        ("RM", rm, 22, Workload::Gcc),
        ("RM", rm, 24, Workload::Vpr),
        ("RC", rc, 26, Workload::Vpr),
    ];
    let pinned = [
        (67, 4, 0, true, 0, 528, 0, 0),
        (12017, 15484, 7, true, 0, 848, 0, 11573),
        (12711, 15666, 14, true, 0, 7400, 0, 11158),
        (14542, 16403, 16, true, 0, 12872, 0, 11523),
    ];
    for ((name, mut cfg, cap, w), want) in wedges.into_iter().zip(pinned) {
        cfg.set_virtual_physical(cap);
        assert_eq!(measured(cfg, w), want, "{name} VP {cap} on {w:?}");
    }
}

/// The sampled path, pinned: two cold-store cells on a short window, one
/// WSRS `RM` cell (its intervals start from the warm subset map and the
/// replayed policy-RNG position) and one `RR 256` cell. Each row is
/// `(ipc_estimate bits, uops_detailed, aggregate)`, the aggregate's part
/// being `(cycles, uops, branches, mispredicts, memory.l1.misses,
/// rename.allocs, store_forwards, unbalance_percent bits, sum of
/// per_cluster)`; a change to how an interval engine is built or driven,
/// or to how interval reports sum, cannot move them unnoticed.
#[test]
fn sampled_cells_are_pinned() {
    use wsrs::core::{run_sampled, NoSampleStore, SampleSpec};

    type Aggregate = (u64, u64, u64, u64, u64, u64, u64, u64, u64);

    let spec = SampleSpec {
        intervals: 8,
        interval_uops: 750,
        detail_warmup: 1_000,
    };
    let (warmup, measure) = (20_000, 60_000);
    let sampled = |cfg: SimConfig, w: Workload| {
        let trace: Vec<_> = w.trace().take((warmup + measure) as usize).collect();
        let r = run_sampled(&cfg, &trace, warmup, measure, &spec, &NoSampleStore);
        let a = &r.aggregate;
        let aggregate: Aggregate = (
            a.cycles,
            a.uops,
            a.branches,
            a.mispredicts,
            a.memory.l1.misses,
            a.rename.allocs,
            a.store_forwards,
            a.unbalance_percent.to_bits(),
            a.per_cluster.iter().sum(),
        );
        (r.ipc_estimate.to_bits(), r.uops_detailed, aggregate)
    };
    let rm = sampled(
        SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount),
        Workload::Vpr,
    );
    let rr = sampled(SimConfig::conventional_rr(256), Workload::Gcc);
    assert_eq!(
        rm,
        (
            4611397115850918200,
            14000,
            (3104, 6007, 349, 78, 18, 12903, 0, 4636010158263595002, 5981)
        ),
        "WSRS RM 512"
    );
    assert_eq!(
        rr,
        (
            4607007358867115147,
            14000,
            (6107, 5987, 1373, 242, 43, 10519, 0, 0, 6107)
        ),
        "RR 256"
    );
}
