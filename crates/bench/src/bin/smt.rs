//! SMT on a WSRS machine — the paper's §2.3 concern made concrete: with
//! two hardware threads the machine renames 2 × 80 = 160 logical integer
//! registers, so even the paper's 512-register file (128 per subset)
//! violates the static deadlock-freedom rule and the workaround-(b)
//! exception becomes load-bearing.
//!
//! For each workload pair this binary reports single-thread IPC, 2-thread
//! combined throughput, the SMT speedup over running the threads serially,
//! and how many deadlock-recovery exceptions fired.
//!
//! Traces come from the shared [`TraceCache`] harness: each pair's
//! workloads are emulated once and the bounded traces feed both the
//! single-thread baselines (memoized across pairs) and the SMT run,
//! instead of re-emulating per measurement. The cache is scoped per pair
//! so peak memory stays at two traces.

use std::collections::HashMap;
use wsrs_bench::windows::SMT_PER_THREAD;
use wsrs_bench::TraceCache;
use wsrs_core::{AllocPolicy, Report, RunSpec, SimConfig, Simulator};
use wsrs_regfile::RenameStrategy;
use wsrs_workloads::Workload;

// Long enough to clear every kernel's in-trace initialization (mcf ~770k).
const PER_THREAD: usize = SMT_PER_THREAD as usize;

fn base() -> SimConfig {
    SimConfig::wsrs(
        512,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    )
}

fn main() {
    let mut smt_cfg = base();
    smt_cfg.threads = 2;
    smt_cfg.deadlock_recovery = true;
    println!(
        "static §2.3 rule (2 threads x 80 logical vs {} regs/subset): {}\n",
        smt_cfg.renamer().per_subset(wsrs_isa::RegClass::Int),
        if smt_cfg
            .renamer()
            .statically_deadlock_free(wsrs_isa::RegClass::Int)
        {
            "satisfied"
        } else {
            "VIOLATED — recovery exception armed"
        }
    );

    let pairs = [
        (Workload::Gzip, Workload::Swim),  // int + FP
        (Workload::Crafty, Workload::Mcf), // high-IPC + memory-bound
        (Workload::Vpr, Workload::Galgel), // branchy + FP
        (Workload::Gzip, Workload::Gzip),  // homogeneous
    ];
    let params = wsrs_bench::windows::smt_params();
    let mut singles: HashMap<Workload, Report> = HashMap::new();

    println!(
        "{:<18}{:>10}{:>10}{:>12}{:>12}{:>10}{:>12}",
        "pair", "ipc(A)", "ipc(B)", "smt thrpt", "speedup", "recov.", "retention"
    );
    for (a, b) in pairs {
        let cache = TraceCache::new(params);
        let (ta, tb) = (cache.checkout(a), cache.checkout(b));
        let mut single = |w: Workload, t: &[wsrs_isa::DynInst]| {
            singles
                .entry(w)
                .or_insert_with(|| {
                    Simulator::new(base())
                        .execute(&RunSpec::default(), [t.iter().copied()])
                        .report
                })
                .clone()
        };
        let ra = single(a, &ta);
        let rb = single(b, &tb);
        let pair = [&ta, &tb].map(|t| t.iter().copied().take(PER_THREAD));
        let smt = Simulator::new(smt_cfg)
            .execute(&RunSpec::default(), pair)
            .report;
        // Speedup over running the two threads back to back.
        let serial_cycles = ra.cycles + rb.cycles;
        let speedup = serial_cycles as f64 / smt.cycles as f64;
        // Mean per-thread throughput retention vs running alone (the
        // usual SMT fairness view: 1.0 = no interference).
        let retention =
            0.5 * (ra.cycles as f64 / smt.cycles as f64 + rb.cycles as f64 / smt.cycles as f64);
        println!(
            "{:<18}{:>10.3}{:>10.3}{:>12.3}{:>11.2}x{:>10}{:>12.2}",
            format!("{}+{}", a.name(), b.name()),
            ra.ipc(),
            rb.ipc(),
            smt.ipc(),
            speedup,
            smt.deadlock_recoveries,
            retention,
        );
    }
    println!(
        "\n(speedup = serial cycles / SMT cycles; >1 means latency hiding pays.\n\
         The physical file is shared: architectural state of both threads\n\
         competes for the same subsets — the §2.3 SMT scenario.)"
    );
}
