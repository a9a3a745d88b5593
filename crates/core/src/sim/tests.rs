//! Unit tests of the timing engine.

use super::*;
use crate::alloc::AllocPolicy;
use wsrs_isa::{Assembler, Emulator, Freg, Program, Reg};
use wsrs_mem::HierarchyConfig;
use wsrs_regfile::RenameStrategy;
use wsrs_telemetry::SlotBucket;
use wsrs_workloads::Workload;

fn perfect(mut cfg: SimConfig) -> SimConfig {
    cfg.hierarchy = HierarchyConfig::perfect();
    cfg
}

fn run_cfg(cfg: SimConfig, a: Assembler) -> Report {
    run(cfg, [Emulator::new(a.assemble(), 1 << 20)])
}

/// A plain run of one trace per hardware thread.
fn run<I: IntoIterator<Item = DynInst>>(
    cfg: SimConfig,
    traces: impl IntoIterator<Item = I>,
) -> Report {
    Simulator::new(cfg)
        .execute(&RunSpec::default(), traces)
        .report
}

/// A spec on the `reference` path when `on` is set.
fn reference_if(on: bool, reference: Reference) -> RunSpec {
    RunSpec {
        reference: on.then_some(reference),
        ..RunSpec::default()
    }
}

/// Steps `prog` to completion under `spec`, returning the cycles the
/// event-horizon fast path jumped over alongside the outcome.
fn stepped(cfg: &SimConfig, spec: &RunSpec, prog: &Program) -> (u64, Outcome) {
    let mut e = Engine::new(cfg, spec, None);
    let mut stream = PredictedIters::new(
        vec![Emulator::new(prog.clone(), 1 << 20)],
        cfg.predictor.build(),
    );
    while e.step(&mut stream) {}
    (e.skipped_cycles, e.finish())
}

/// A long chain of dependent single-cycle adds: IPC must approach 1.
#[test]
fn dependent_chain_is_serial() {
    let mut a = Assembler::new();
    let (x, n, i) = (Reg::new(1), Reg::new(2), Reg::new(3));
    a.li(x, 0);
    a.li(n, 2000);
    a.li(i, 0);
    let top = a.bind_label();
    a.addi(x, x, 1);
    a.addi(x, x, 1);
    a.addi(x, x, 1);
    a.addi(x, x, 1);
    a.addi(i, i, 1);
    a.blt(i, n, top);
    let r = run_cfg(perfect(SimConfig::conventional_rr(256)), a);
    // 4 serial adds per iteration dominate. Round-robin scatters the
    // chain across clusters, so each link pays the +1 inter-cluster
    // forwarding delay: ~8 cycles per 6-µop iteration, IPC ≈ 0.75.
    assert!(r.ipc() < 1.6, "ipc {}", r.ipc());
    assert!(r.ipc() > 0.6, "ipc {}", r.ipc());
}

/// Independent work should reach high IPC on an 8-way machine.
#[test]
fn independent_work_is_parallel() {
    let mut a = Assembler::new();
    let n = Reg::new(1);
    let i = Reg::new(2);
    a.li(n, 3000);
    a.li(i, 0);
    let top = a.bind_label();
    for k in 3..9 {
        a.addi(Reg::new(k), Reg::new(k), 1);
    }
    a.addi(i, i, 1);
    a.blt(i, n, top);
    let r = run_cfg(perfect(SimConfig::conventional_rr(256)), a);
    assert!(r.ipc() > 3.0, "ipc {}", r.ipc());
}

#[test]
fn wsrs_configs_run_and_balance_reasonably() {
    for policy in [AllocPolicy::RandomMonadic, AllocPolicy::RandomCommutative] {
        let mut a = Assembler::new();
        let n = Reg::new(1);
        let i = Reg::new(2);
        a.li(n, 2000);
        a.li(i, 0);
        let top = a.bind_label();
        for k in 3..9 {
            a.addi(Reg::new(k), Reg::new(k), 1);
        }
        a.addi(i, i, 1);
        a.blt(i, n, top);
        let r = run_cfg(
            perfect(SimConfig::wsrs(512, policy, RenameStrategy::ExactCount)),
            a,
        );
        assert!(r.ipc() > 1.5, "{policy:?} ipc {}", r.ipc());
        let total: u64 = r.per_cluster.iter().sum();
        assert_eq!(total, r.uops);
        for &c in &r.per_cluster {
            assert!(c > 0, "{policy:?}: every cluster used");
        }
    }
}

#[test]
fn mispredicts_cost_cycles() {
    // Data-dependent unpredictable branches (xorshift parity).
    let build = |_penalty: u64| {
        let mut a = Assembler::new();
        let (x, i, n, t) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
        a.li(x, 0x1234_5678);
        a.li(i, 0);
        a.li(n, 1500);
        let top = a.bind_label();
        // x ^= x << 13; x ^= x >> 7; x ^= x << 17
        a.slli(t, x, 13);
        a.xor(x, x, t);
        a.srli(t, x, 7);
        a.xor(x, x, t);
        a.slli(t, x, 17);
        a.xor(x, x, t);
        a.andi(t, x, 1);
        let skip = a.label();
        a.beqz(t, skip);
        a.addi(i, i, 0);
        a.bind(skip);
        a.addi(i, i, 1);
        a.blt(i, n, top);
        a
    };
    let base = run_cfg(perfect(SimConfig::conventional_rr(256)), build(17));
    assert!(
        base.mispredict_rate() > 0.2,
        "xorshift branches are unpredictable: {}",
        base.mispredict_rate()
    );
    // A predictable version of the same loop is much faster.
    let mut a = Assembler::new();
    let (i, n) = (Reg::new(2), Reg::new(3));
    a.li(i, 0);
    a.li(n, 1500);
    let top = a.bind_label();
    for k in 5..14 {
        a.addi(Reg::new(k), Reg::new(k), 1);
    }
    a.addi(i, i, 1);
    a.blt(i, n, top);
    let pred = run_cfg(perfect(SimConfig::conventional_rr(256)), a);
    assert!(
        pred.ipc() > 1.5 * base.ipc(),
        "pred {} vs base {}",
        pred.ipc(),
        base.ipc()
    );
}

#[test]
fn store_load_forwarding_works() {
    let mut a = Assembler::new();
    let (b, v, o, i, n) = (
        Reg::new(1),
        Reg::new(2),
        Reg::new(3),
        Reg::new(4),
        Reg::new(5),
    );
    a.li(b, 0x1000);
    a.li(v, 7);
    a.li(i, 0);
    a.li(n, 500);
    let top = a.bind_label();
    a.sw(b, 0, v);
    a.lw(o, b, 0); // always forwards from the store
    a.addi(i, i, 1);
    a.blt(i, n, top);
    let r = run_cfg(SimConfig::conventional_rr(256), a);
    assert!(r.store_forwards >= 499, "forwards: {}", r.store_forwards);
}

#[test]
fn cache_misses_slow_execution() {
    // Stride through 4 MB — every load misses both levels.
    let build = || {
        let mut a = Assembler::new();
        let (b, o, i, n) = (Reg::new(1), Reg::new(3), Reg::new(4), Reg::new(5));
        a.li(b, 0);
        a.li(i, 0);
        a.li(n, 400);
        let top = a.bind_label();
        a.lw(o, b, 0);
        a.add(Reg::new(6), Reg::new(6), o); // use the value
        a.addi(b, b, 8192);
        a.addi(i, i, 1);
        a.blt(i, n, top);
        a
    };
    let slow = run_cfg(SimConfig::conventional_rr(256), build());
    let fast = run_cfg(perfect(SimConfig::conventional_rr(256)), build());
    assert!(slow.cycles > 2 * fast.cycles);
    assert!(slow.memory.l1.misses > 300);
}

#[test]
fn round_robin_unbalance_is_zero() {
    let mut a = Assembler::new();
    let (i, n) = (Reg::new(2), Reg::new(3));
    a.li(i, 0);
    a.li(n, 4000);
    let top = a.bind_label();
    for _ in 0..6 {
        a.addi(Reg::new(5), Reg::new(5), 1);
    }
    a.addi(i, i, 1);
    a.blt(i, n, top);
    let r = run_cfg(perfect(SimConfig::conventional_rr(256)), a);
    assert_eq!(r.unbalance_percent, 0.0);
}

#[test]
fn wsrs_dest_subset_matches_cluster() {
    // Indirectly validated: a WSRS run with chained producers/consumers
    // must still compute the right dynamic schedule (no hangs, all µops
    // retire).
    let mut a = Assembler::new();
    let (x, y, i, n) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
    a.li(x, 1);
    a.li(y, 2);
    a.li(i, 0);
    a.li(n, 1000);
    let top = a.bind_label();
    a.add(x, x, y);
    a.add(y, y, x);
    a.addi(i, i, 1);
    a.blt(i, n, top);
    let r = run_cfg(
        perfect(SimConfig::wsrs(
            512,
            AllocPolicy::RandomCommutative,
            RenameStrategy::ExactCount,
        )),
        a,
    );
    assert_eq!(r.uops, 4 + 4 * 1000);
}

#[test]
fn fp_code_runs_on_wsrs() {
    let mut a = Assembler::new();
    let (fa, fb) = (Freg::new(0), Freg::new(1));
    let (i, n, b) = (Reg::new(1), Reg::new(2), Reg::new(3));
    a.data_f64(0x100, 1.5);
    a.li(b, 0x100);
    a.li(i, 0);
    a.li(n, 500);
    a.lf(fa, b, 0);
    let top = a.bind_label();
    a.fmul(fb, fa, fa);
    a.fadd(fb, fb, fa);
    a.sf(b, 8, fb);
    a.addi(i, i, 1);
    a.blt(i, n, top);
    let r = run_cfg(
        SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::Recycling),
        a,
    );
    assert!(r.ipc() > 0.5, "ipc {}", r.ipc());
}

/// A mixed kernel exercising every pool of the Figure 2b organization.
fn mixed_kernel() -> Assembler {
    let mut a = Assembler::new();
    let (i, n, b, x) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
    let (fa, fb) = (Freg::new(0), Freg::new(1));
    a.data_f64(0x100, 1.5);
    a.li(b, 0x100);
    a.lf(fa, b, 0);
    a.li(i, 0);
    a.li(n, 800);
    let top = a.bind_label();
    a.lw(x, b, 8);
    a.addi(x, x, 3);
    a.mul(Reg::new(5), x, x);
    a.fmul(fb, fa, fa);
    a.sw(b, 8, x);
    a.addi(i, i, 1);
    a.blt(i, n, top);
    a
}

#[test]
fn pooled_machine_routes_every_class_to_its_pool() {
    let cfg = perfect(SimConfig::pooled_write_specialized(
        512,
        RenameStrategy::ExactCount,
    ));
    let r = run_cfg(cfg, mixed_kernel());
    // P0 = memory, P1 = simple ALU, P2 = FP/complex, P3 = branches.
    let mem_uops = 2 * 800 + 1; // lw + sw per iteration, one lf
    let br_uops = 800; // blt per iteration
    assert_eq!(r.per_cluster[0], mem_uops);
    assert_eq!(r.per_cluster[3], br_uops);
    assert!(r.per_cluster[1] > 0 && r.per_cluster[2] > 0);
    assert!(!r.deadlocked);
}

#[test]
fn pooled_ws_stands_comparison_with_monolithic() {
    // §2: write specialization over pools of functional units does not
    // impair performance (static allocation, no extra rename stages).
    let mono = run_cfg(perfect(SimConfig::monolithic(256)), mixed_kernel());
    let pooled = run_cfg(
        perfect(SimConfig::pooled_write_specialized(
            512,
            RenameStrategy::ExactCount,
        )),
        mixed_kernel(),
    );
    assert!(
        pooled.ipc() > 0.9 * mono.ipc(),
        "pooled {} vs monolithic {}",
        pooled.ipc(),
        mono.ipc()
    );
}

#[test]
fn monolithic_beats_clustered_on_dependent_chains() {
    // Complete bypass removes the inter-cluster cycle that round-robin
    // pays on every chain link.
    let chain = || {
        let mut a = Assembler::new();
        let (x, i, n) = (Reg::new(1), Reg::new(2), Reg::new(3));
        a.li(i, 0);
        a.li(n, 1000);
        let top = a.bind_label();
        a.addi(x, x, 1);
        a.addi(x, x, 1);
        a.addi(x, x, 1);
        a.addi(i, i, 1);
        a.blt(i, n, top);
        a
    };
    let mono = run_cfg(perfect(SimConfig::monolithic(256)), chain());
    let clustered = run_cfg(perfect(SimConfig::conventional_rr(256)), chain());
    assert!(
        mono.ipc() > 1.3 * clustered.ipc(),
        "mono {} vs clustered {}",
        mono.ipc(),
        clustered.ipc()
    );
}

#[test]
fn tiny_subsets_deadlock_is_detected() {
    // 84 int regs over 4 subsets = 21 per subset with 20 architectural:
    // one free register per subset; sustained renaming wedges once a
    // subset's register holds architectural state for a stalled chain.
    let mut cfg = perfect(SimConfig::wsrs(
        512,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    ));
    cfg.int_regs = 84;
    cfg.fp_regs = 132;
    let mut a = Assembler::new();
    // Write many distinct logical registers so mappings migrate.
    let (i, n) = (Reg::new(70), Reg::new(71));
    a.li(i, 0);
    a.li(n, 3000);
    let top = a.bind_label();
    for k in 1..40 {
        a.addi(Reg::new(k), Reg::new(k), 1);
    }
    a.addi(i, i, 1);
    a.blt(i, n, top);
    let r = run_cfg(cfg, a);
    // Either it completes (lucky placement) or the deadlock monitor
    // fires; both are acceptable — what is NOT acceptable is an
    // infinite hang, which the monitor prevents.
    assert!(r.cycles > 0);
}

#[test]
fn virtual_physical_sustains_window_with_fewer_registers() {
    // [13] applied on top of WS: a VP file with 40 physical registers
    // per subset (160 total) sustains the performance of the plain
    // 512-register machine, because registers are occupied only from
    // issue to superseding-commit.
    let kernel = || {
        let mut a = Assembler::new();
        let (i, n) = (Reg::new(1), Reg::new(2));
        a.li(i, 0);
        a.li(n, 1500);
        let top = a.bind_label();
        for k in 3..9 {
            a.addi(Reg::new(k), Reg::new(k), 1);
        }
        a.lw(Reg::new(9), Reg::new(1), 0);
        a.addi(i, i, 1);
        a.blt(i, n, top);
        a
    };
    let plain = run_cfg(
        perfect(SimConfig::write_specialized_rr(
            512,
            RenameStrategy::ExactCount,
        )),
        kernel(),
    );
    let mut vp_cfg = perfect(SimConfig::write_specialized_rr(
        512,
        RenameStrategy::ExactCount,
    ));
    vp_cfg.set_virtual_physical(40);
    let vp = run_cfg(vp_cfg, kernel());
    assert_eq!(vp.uops, plain.uops);
    assert!(!vp.deadlocked);
    assert!(
        vp.ipc() > 0.95 * plain.ipc(),
        "vp {} vs plain {}",
        vp.ipc(),
        plain.ipc()
    );
}

#[test]
fn virtual_physical_reservation_prevents_wedge() {
    // Absurdly tight capacity (21/subset over 20 architectural): the
    // oldest-waiting reservation must still let everything retire.
    let mut cfg = perfect(SimConfig::write_specialized_rr(
        512,
        RenameStrategy::ExactCount,
    ));
    cfg.set_virtual_physical(21);
    let mut a = Assembler::new();
    let (i, n) = (Reg::new(1), Reg::new(2));
    a.li(i, 0);
    a.li(n, 300);
    let top = a.bind_label();
    for k in 3..40 {
        a.addi(Reg::new(k), Reg::new(k), 1);
    }
    a.addi(i, i, 1);
    a.blt(i, n, top);
    let r = run_cfg(cfg, a);
    assert!(!r.deadlocked);
    assert_eq!(r.uops, 2 + 300 * 39);
}

/// A 2-thread WSRS machine, configured by plain field assignment: the
/// renamer's map-table count follows `threads`.
fn smt_cfg(int_regs: usize) -> SimConfig {
    let mut cfg = perfect(SimConfig::wsrs(
        int_regs,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    ));
    cfg.threads = 2;
    cfg.deadlock_recovery = true;
    cfg
}

fn int_loop(iters: i64, regs: std::ops::Range<u8>) -> Assembler {
    let mut a = Assembler::new();
    let (i, n) = (Reg::new(60), Reg::new(61));
    a.li(i, 0);
    a.li(n, iters);
    let top = a.bind_label();
    for k in regs.clone() {
        a.addi(Reg::new(k), Reg::new(k), 1);
    }
    a.addi(i, i, 1);
    a.blt(i, n, top);
    a
}

#[test]
fn smt_runs_two_threads_to_completion() {
    // §2.3 motivation: with two threads the machine renames 160 logical
    // integer registers; 512/4 = 128 per subset violates the static
    // rule, so the recovery exception must be available.
    let cfg = smt_cfg(512);
    assert!(!cfg
        .renamer()
        .statically_deadlock_free(wsrs_isa::RegClass::Int));
    let t0 = int_loop(500, 1..6);
    let t1 = int_loop(400, 10..20);
    let expect0 = 2 + 500 * 7;
    let expect1 = 2 + 400 * 12;
    let r = run(
        cfg,
        [
            Emulator::new(t0.assemble(), 1 << 16),
            Emulator::new(t1.assemble(), 1 << 16),
        ],
    );
    assert!(!r.deadlocked);
    assert_eq!(r.per_thread_uops, vec![expect0, expect1]);
    assert_eq!(r.uops, expect0 + expect1);
}

#[test]
fn smt_throughput_exceeds_either_thread_alone() {
    // Two copies of the same kernel: the shared 8-wide machine must
    // outrun a single thread (latency hiding), though not reach 2x.
    let build = || {
        let mut a = int_loop(1500, 1..5);
        a.halt();
        a.assemble()
    };
    let single = run(
        perfect(SimConfig::wsrs(
            512,
            AllocPolicy::RandomCommutative,
            RenameStrategy::ExactCount,
        )),
        [Emulator::new(build(), 1 << 16)],
    );
    let smt = run(
        smt_cfg(512),
        [
            Emulator::new(build(), 1 << 16),
            Emulator::new(build(), 1 << 16),
        ],
    );
    assert!(!smt.deadlocked);
    assert_eq!(smt.uops, 2 * single.uops);
    let speedup = single.cycles as f64 * 2.0 / smt.cycles as f64;
    assert!(
        speedup > 1.05,
        "SMT should beat serial execution: {speedup:.2}x"
    );
    assert!(speedup <= 2.05, "and cannot exceed 2x: {speedup:.2}x");
}

#[test]
fn smt_threads_do_not_forward_across_address_spaces() {
    // Both threads store to the "same" address in their own memories;
    // each must load back its own value (per-thread store queues and
    // thread-tagged cache lines).
    let build = |val: i64| {
        let mut a = Assembler::new();
        let (b, v, o, i, n) = (
            Reg::new(1),
            Reg::new(2),
            Reg::new(3),
            Reg::new(4),
            Reg::new(5),
        );
        a.li(b, 0x1000);
        a.li(v, val);
        a.li(i, 0);
        a.li(n, 200);
        let top = a.bind_label();
        a.sw(b, 0, v);
        a.lw(o, b, 0);
        a.add(Reg::new(6), Reg::new(6), o);
        a.addi(i, i, 1);
        a.blt(i, n, top);
        a.halt();
        a.assemble()
    };
    let r = run(
        smt_cfg(512),
        [
            Emulator::new(build(7), 1 << 16),
            Emulator::new(build(9), 1 << 16),
        ],
    );
    assert!(!r.deadlocked);
    assert_eq!(r.per_thread_uops[0], r.per_thread_uops[1]);
    // forwarding still works within each thread
    assert!(r.store_forwards > 300);
}

#[test]
fn empty_trace_is_harmless() {
    let r = run(SimConfig::conventional_rr(256), [std::iter::empty()]);
    assert_eq!(r.uops, 0);
    assert_eq!(r.ipc(), 0.0);
    assert!(!r.deadlocked);
}

#[test]
fn single_uop_program_retires() {
    let mut a = Assembler::new();
    a.li(Reg::new(1), 42);
    a.halt();
    let r = run_cfg(perfect(SimConfig::conventional_rr(256)), a);
    assert_eq!(r.uops, 1);
    assert!(r.cycles >= 1);
}

#[test]
fn timeline_records_ordered_lifecycle() {
    let mut a = Assembler::new();
    let (x, i, n) = (Reg::new(1), Reg::new(2), Reg::new(3));
    a.li(i, 0);
    a.li(n, 50);
    let top = a.bind_label();
    a.addi(x, x, 1);
    a.addi(i, i, 1);
    a.blt(i, n, top);
    a.halt();
    let spec = RunSpec {
        timeline: 64,
        ..RunSpec::default()
    };
    let Outcome { report, timeline } = Simulator::new(perfect(SimConfig::conventional_rr(256)))
        .execute(&spec, [Emulator::new(a.assemble(), 4096)]);
    assert_eq!(timeline.len(), 64);
    assert!(report.uops > 64);
    for (k, t) in timeline.iter().enumerate() {
        assert_eq!(t.seq, k as u64);
        assert!(t.fetch <= t.dispatch, "uop {k}");
        assert!(t.dispatch < t.issue, "uop {k}: issue after dispatch");
        assert!(t.issue < t.complete, "uop {k}");
        assert!(t.commit >= t.complete, "uop {k}");
    }
    // Commits are in program order.
    for w in timeline.windows(2) {
        assert!(w[0].commit <= w[1].commit);
    }
    // The render is well-formed.
    let text = crate::pipeview::render(&timeline, 80);
    assert!(text.lines().count() == 65);
}

#[test]
fn predictor_quality_orders_performance() {
    use wsrs_frontend::PredictorKind;
    // A periodic, history-learnable branch (taken every third
    // iteration): gskew learns it, always-taken is wrong two thirds of
    // the time.
    let build = || {
        let mut a = Assembler::new();
        let (i, n, t, three) = (Reg::new(1), Reg::new(2), Reg::new(4), Reg::new(6));
        a.li(i, 0);
        a.li(n, 1500);
        a.li(three, 3);
        let top = a.bind_label();
        a.rem(t, i, three);
        let skip = a.label();
        a.beqz(t, skip); // taken every third iteration only
        a.addi(Reg::new(5), Reg::new(5), 1);
        a.bind(skip);
        a.addi(i, i, 1);
        a.blt(i, n, top);
        a
    };
    let run_with = |kind| {
        let mut cfg = perfect(SimConfig::conventional_rr(256));
        cfg.predictor = kind;
        run_cfg(cfg, build())
    };
    let oracle = run_with(PredictorKind::Perfect);
    let gskew = run_with(PredictorKind::TwoBcGskew512K);
    let taken = run_with(PredictorKind::AlwaysTaken);
    assert_eq!(oracle.mispredicts, 0);
    assert!(oracle.ipc() >= gskew.ipc());
    assert!(
        gskew.ipc() > taken.ipc(),
        "gskew {} vs always-taken {}",
        gskew.ipc(),
        taken.ipc()
    );
    // Always-taken mispredicts roughly half of the parity branches.
    assert!(taken.mispredict_rate() > 0.2);
}

/// Builds a kernel that migrates many logical registers between
/// subsets — a deadlock generator for undersized subsets.
fn migrating_kernel() -> (Assembler, u64) {
    let mut a = Assembler::new();
    let (i, n) = (Reg::new(70), Reg::new(71));
    a.li(i, 0);
    a.li(n, 400);
    let top = a.bind_label();
    for k in 1..50 {
        a.addi(Reg::new(k), Reg::new(k), 1);
    }
    a.addi(i, i, 1);
    a.blt(i, n, top);
    let uops = 2 + 400 * 51;
    (a, uops)
}

#[test]
fn register_cache_slows_stale_reads_only() {
    use crate::config::RegCache;
    // A value produced early and read much later pays the slow-copy
    // penalty; freshly produced values do not.
    let kernel = || {
        let mut a = Assembler::new();
        let (inv, i, n, x) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
        a.li(inv, 7); // produced once, read forever (stale reads)
        a.li(i, 0);
        a.li(n, 2000);
        let top = a.bind_label();
        a.add(x, x, inv);
        a.addi(i, i, 1);
        a.blt(i, n, top);
        a
    };
    let plain = run_cfg(perfect(SimConfig::conventional_rr(256)), kernel());
    let cached = run_cfg(
        perfect(SimConfig::conventional_reg_cache(
            256,
            RegCache {
                retention_cycles: 16,
                slow_read_penalty: 2,
            },
        )),
        kernel(),
    );
    assert_eq!(plain.uops, cached.uops);
    assert!(
        cached.cycles > plain.cycles,
        "stale invariant reads must cost: {} vs {}",
        cached.cycles,
        plain.cycles
    );
    // A fresh-value chain is unaffected by the cache.
    let fresh = |cfg| {
        let mut a = Assembler::new();
        let (i, n, x) = (Reg::new(2), Reg::new(3), Reg::new(4));
        a.li(i, 0);
        let top = a.bind_label();
        a.addi(x, x, 1);
        a.li(n, 2000); // re-materialized: every operand stays fresh
        a.addi(i, i, 1);
        a.blt(i, n, top);
        run_cfg(cfg, a)
    };
    let p = fresh(perfect(SimConfig::conventional_rr(256)));
    let c = fresh(perfect(SimConfig::conventional_reg_cache(
        256,
        RegCache {
            retention_cycles: 16,
            slow_read_penalty: 2,
        },
    )));
    // Identical up to a cycle of drain noise (one early read of an
    // architectural reset value can age out).
    assert!(
        c.cycles <= p.cycles + 2,
        "fresh chains read at cached speed: {} vs {}",
        c.cycles,
        p.cycles
    );
}

#[test]
fn exhaustion_avoidance_reduces_deadlocks() {
    // §2.3 workaround (a): with one spare register per subset, steering
    // placement freedom away from exhausted subsets lets the same
    // kernel that wedges under plain RC run much further (or finish).
    let make = |avoid: bool| {
        let mut cfg = perfect(SimConfig::wsrs(
            512,
            AllocPolicy::RandomCommutative,
            RenameStrategy::ExactCount,
        ));
        cfg.int_regs = 84;
        cfg.fp_regs = 132;
        cfg.avoid_exhaustion = avoid;
        cfg
    };
    let (prog, uops) = migrating_kernel();
    let plain = run_cfg(make(false), prog);
    let (prog, _) = migrating_kernel();
    let avoiding = run_cfg(make(true), prog);
    assert!(
        avoiding.uops > plain.uops || (!avoiding.deadlocked && avoiding.uops == uops),
        "avoidance should retire more: {} vs {} (of {uops})",
        avoiding.uops,
        plain.uops
    );
}

#[test]
fn deadlock_recovery_completes_what_detection_aborts() {
    let make = |recovery: bool| {
        let mut cfg = perfect(SimConfig::wsrs(
            512,
            AllocPolicy::RandomCommutative,
            RenameStrategy::ExactCount,
        ));
        cfg.int_regs = 84; // 21/subset for 80 logicals: 1 spare
        cfg.fp_regs = 132;
        cfg.deadlock_recovery = recovery;
        cfg
    };
    let (prog, uops) = migrating_kernel();
    let without = run_cfg(make(false), prog);
    let (prog, _) = migrating_kernel();
    let with = run_cfg(make(true), prog);
    assert!(
        without.deadlocked,
        "the 1-spare-register configuration should wedge"
    );
    assert!(!with.deadlocked, "recovery should unwedge it");
    assert_eq!(with.uops, uops, "every µop retires after recovery");
    assert!(with.deadlock_recoveries > 0);
}

/// The event-driven scheduler must replay the legacy selection scan
/// cycle for cycle: same issue order, same cache-state evolution, same
/// counters — the whole report, bit for bit.
#[test]
fn event_scheduler_matches_scan_bit_for_bit() {
    let configs = vec![
        perfect(SimConfig::conventional_rr(256)),
        SimConfig::conventional_rr(256), // real memory hierarchy
        SimConfig::monolithic(256),
        SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount),
        SimConfig::wsrs(
            512,
            AllocPolicy::RandomCommutative,
            RenameStrategy::Recycling,
        ),
        SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount),
        perfect(SimConfig::pooled_write_specialized(
            512,
            RenameStrategy::ExactCount,
        )),
    ];
    for (ci, cfg) in configs.into_iter().enumerate() {
        let run = |scan: bool| {
            let trace = Emulator::new(mixed_kernel().assemble(), 1 << 20);
            Simulator::new(cfg)
                .execute(&reference_if(scan, Reference::Scan), [trace])
                .report
        };
        let (event, scan) = (run(false), run(true));
        assert_eq!(
            format!("{event:?}"),
            format!("{scan:?}"),
            "schedulers diverge on config {ci}"
        );
    }
}

/// Scheduler equivalence through the warmup-snapshot path and under
/// SMT (shared window, per-thread memory order).
#[test]
fn event_scheduler_matches_scan_warmup_and_smt() {
    let cfg = SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount);
    let warm = |scan: bool| {
        let spec = RunSpec {
            warmup: 1000,
            ..reference_if(scan, Reference::Scan)
        };
        let trace = Emulator::new(mixed_kernel().assemble(), 1 << 20).take(3000);
        Simulator::new(cfg).execute(&spec, [trace]).report
    };
    assert_eq!(format!("{:?}", warm(false)), format!("{:?}", warm(true)));

    let smt = smt_cfg(512);
    let run = |scan: bool| {
        let traces = [
            Emulator::new(int_loop(500, 1..6).assemble(), 1 << 16),
            Emulator::new(int_loop(400, 10..20).assemble(), 1 << 16),
        ];
        Simulator::new(smt)
            .execute(&reference_if(scan, Reference::Scan), traces)
            .report
    };
    assert_eq!(format!("{:?}", run(false)), format!("{:?}", run(true)));

    // Two memory-heavy FP kernels under the paper hierarchy: each
    // thread's loads and stores are memory-ordered (and parked) on
    // their own, in one shared window.
    let mut smt = smt_cfg(512);
    smt.hierarchy = HierarchyConfig::paper();
    let run = |scan: bool| {
        let traces = [
            Workload::Swim.trace().take(20_000),
            Workload::Applu.trace().take(20_000),
        ];
        Simulator::new(smt)
            .execute(&reference_if(scan, Reference::Scan), traces)
            .report
    };
    let event = run(false);
    assert!(event.memory.l1.misses > 100, "kernels must reach memory");
    assert_eq!(format!("{event:?}"), format!("{:?}", run(true)));
}

/// Completion delays beyond the calendar wheel's ring take the
/// overflow path; an inflated L2 penalty forces dependent loads well
/// past the horizon and the result must still match the scan exactly.
#[test]
fn event_scheduler_overflow_matches_scan() {
    let mut cfg = SimConfig::conventional_rr(256);
    cfg.hierarchy.l2_miss_penalty = 5000;
    assert!(
        (cfg.scheduler_horizon() as u32) < cfg.hierarchy.l2_miss_penalty,
        "penalty must exceed the wheel horizon to exercise overflow"
    );
    // Pointer-stride loads: every access touches a fresh L1/L2 set, and
    // the dependent add waits the full (beyond-horizon) miss latency.
    let mut a = Assembler::new();
    let (b, x, acc, i, n) = (
        Reg::new(1),
        Reg::new(2),
        Reg::new(3),
        Reg::new(60),
        Reg::new(61),
    );
    a.li(b, 0);
    a.li(acc, 0);
    a.li(i, 0);
    a.li(n, 120);
    let top = a.bind_label();
    a.lw(x, b, 0);
    a.add(acc, acc, x);
    a.addi(b, b, 8192);
    a.addi(i, i, 1);
    a.blt(i, n, top);
    a.halt();
    let prog = a.assemble();
    let run = |scan: bool| {
        let trace = Emulator::new(prog.clone(), 1 << 20);
        Simulator::new(cfg)
            .execute(&reference_if(scan, Reference::Scan), [trace])
            .report
    };
    let (event, scan) = (run(false), run(true));
    assert!(event.memory.l2.misses > 50, "kernel must actually miss L2");
    assert_eq!(format!("{event:?}"), format!("{scan:?}"));
}

/// The event-horizon fast path must actually engage on a stall-heavy
/// kernel — long L2 misses leave hundreds of provably dead cycles per
/// iteration — and change nothing observable: report and telemetry
/// bit-identical to the forced cycle-by-cycle run.
#[test]
fn cycle_skipping_engages_and_preserves_reports() {
    let mut cfg = SimConfig::conventional_rr(256);
    cfg.hierarchy.l2_miss_penalty = 400;
    cfg.telemetry = true;
    let mut a = Assembler::new();
    let (b, x, acc, i, n) = (
        Reg::new(1),
        Reg::new(2),
        Reg::new(3),
        Reg::new(60),
        Reg::new(61),
    );
    a.li(b, 0);
    a.li(acc, 0);
    a.li(i, 0);
    a.li(n, 120);
    let top = a.bind_label();
    a.lw(x, b, 0);
    a.add(acc, acc, x);
    a.addi(b, b, 8192);
    a.addi(i, i, 1);
    a.blt(i, n, top);
    a.halt();
    let prog = a.assemble();
    let run = |allow_skip: bool| {
        let (skipped, outcome) =
            stepped(&cfg, &reference_if(!allow_skip, Reference::NoSkip), &prog);
        (skipped, outcome.report)
    };
    let (skipped, fast) = run(true);
    let (none, slow) = run(false);
    assert_eq!(none, 0, "no-skip engine must not skip");
    assert!(
        skipped * 10 > fast.cycles,
        "skip must cover a real share of a memory-bound run: {skipped} of {}",
        fast.cycles
    );
    assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
}

/// Memory-order parking: a load whose address waits on an L2 miss
/// holds back a burst of younger, operand-ready loads to one warm line
/// while the window fills behind them. The burst is parked, not awake,
/// so the dispatch-blocked wait is a dead region the skipper jumps —
/// and on issue of the gating load the whole burst still issues in
/// that same cycle, µop for µop as the scan oracle issues it.
#[test]
fn parked_memory_uops_issue_like_scan_and_let_skip_engage() {
    let mut cfg = SimConfig::conventional_rr(256);
    cfg.telemetry = true;
    let mut a = Assembler::new();
    let (b, c, x, y, i, n) = (
        Reg::new(1),
        Reg::new(2),
        Reg::new(3),
        Reg::new(4),
        Reg::new(60),
        Reg::new(61),
    );
    a.li(b, 0);
    a.li(c, 1 << 19); // above every line the gating loads touch
    a.li(i, 0);
    a.li(n, 60);
    let top = a.bind_label();
    a.lw(x, b, 0); // misses: a fresh line every iteration
    a.lw(y, x, 0); // address waits on the miss
    for k in 0..6u8 {
        a.lw(Reg::new(10 + k), c, 8 * i64::from(k)); // burst, operand-ready
    }
    a.addi(b, b, 8192);
    a.addi(i, i, 1);
    a.blt(i, n, top);
    a.halt();
    let prog = a.assemble();
    let run = |scan: bool| {
        let spec = RunSpec {
            timeline: usize::MAX,
            ..reference_if(scan, Reference::Scan)
        };
        stepped(&cfg, &spec, &prog)
    };
    let (
        skipped,
        Outcome {
            report: event,
            timeline,
        },
    ) = run(false);
    let (
        _,
        Outcome {
            report: scan,
            timeline: scan_timeline,
        },
    ) = run(true);
    assert_eq!(format!("{event:?}"), format!("{scan:?}"));
    let issues = |t: &[UopTiming]| t.iter().map(|u| u.issue).collect::<Vec<_>>();
    assert_eq!(issues(&timeline), issues(&scan_timeline));
    assert!(event.memory.l2.misses >= 60, "the gating loads must miss");
    let same_cycle = timeline
        .windows(2)
        .filter(|w| w[0].op.is_load() && w[1].op.is_load() && w[0].issue == w[1].issue)
        .count();
    assert!(
        same_cycle >= 60,
        "unparked loads must issue in their predecessor's cycle: {same_cycle}"
    );
    assert!(
        skipped * 5 > event.cycles,
        "parked loads must not veto the skip: {skipped} of {} cycles",
        event.cycles
    );
}

/// Skipping across a redirect stall: a mispredict-heavy kernel with a
/// long minimum penalty spends most cycles with fetch redirect-blocked
/// and an empty window (`WaitingCycle` frontier), and must still match
/// the cycle-by-cycle run bit for bit.
#[test]
fn cycle_skipping_preserves_redirect_stalls() {
    let mut cfg = perfect(SimConfig::conventional_rr(256));
    cfg.min_mispredict_penalty = 60;
    cfg.telemetry = true;
    let mut a = Assembler::new();
    let (x, i, n, t) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
    a.li(x, 0x1234_5678);
    a.li(i, 0);
    a.li(n, 400);
    let top = a.bind_label();
    a.slli(t, x, 13);
    a.xor(x, x, t);
    a.srli(t, x, 7);
    a.xor(x, x, t);
    a.andi(t, x, 1);
    let skip = a.label();
    a.beqz(t, skip);
    a.addi(i, i, 0);
    a.bind(skip);
    a.addi(i, i, 1);
    a.blt(i, n, top);
    a.halt();
    let prog = a.assemble();
    let run = |allow_skip: bool| {
        let (skipped, outcome) =
            stepped(&cfg, &reference_if(!allow_skip, Reference::NoSkip), &prog);
        (skipped, outcome.report)
    };
    let (skipped, fast) = run(true);
    let (_, slow) = run(false);
    assert!(skipped > 0, "redirect stalls must be skippable");
    assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
}

/// Telemetry must observe, never perturb: the same run with and
/// without attribution produces identical timing, and the attributed
/// slots conserve (`sum == cycles × width`) with the committed bucket
/// equal to the retired µop count.
#[test]
fn telemetry_conserves_and_does_not_perturb() {
    let configs = vec![
        SimConfig::conventional_rr(256),
        perfect(SimConfig::wsrs(
            384,
            AllocPolicy::RandomCommutative,
            RenameStrategy::Recycling,
        )),
    ];
    for cfg in configs {
        let plain = run_cfg(cfg, mixed_kernel());
        let mut tcfg = cfg;
        tcfg.telemetry = true;
        let traced = run_cfg(tcfg, mixed_kernel());
        assert_eq!(plain.cycles, traced.cycles, "telemetry perturbed timing");
        assert_eq!(plain.uops, traced.uops);
        assert!(plain.attribution.is_none());
        let attr = traced.attribution.expect("telemetry enabled");
        assert!(attr.conserved());
        assert_eq!(attr.width(), cfg.fetch_width as u64);
        assert_eq!(
            attr.slots(SlotBucket::Committed),
            traced.uops,
            "every retired µop fills exactly one committed slot"
        );
        // The attribution's own cycle counter covers every loop
        // iteration; the report's cycle count stops at the last
        // increment — they agree to within one cycle.
        assert!(attr.cycles() - traced.cycles <= 1);
    }
}

/// A subset-starved WSRS machine must show rename-stall slots with
/// the exhausted (class, subset) identified.
#[test]
fn telemetry_attributes_rename_stalls() {
    let mut cfg = perfect(SimConfig::wsrs(
        96,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    ));
    cfg.telemetry = true;
    cfg.deadlock_recovery = true;
    let mut a = Assembler::new();
    let (i, n) = (Reg::new(50), Reg::new(51));
    a.li(i, 0);
    a.li(n, 800);
    let top = a.bind_label();
    for k in 1..20 {
        a.addi(Reg::new(k), Reg::new(k), 1);
    }
    a.addi(i, i, 1);
    a.blt(i, n, top);
    let r = run_cfg(cfg, a);
    let attr = r.attribution.expect("telemetry enabled");
    assert!(attr.conserved());
    if r.rename.alloc_refusals > 0 {
        assert!(
            attr.slots(SlotBucket::RenameStall) > 0,
            "refusals observed but no rename-stall slots charged"
        );
    }
}

/// A cache-thrashing loop must be dominated by memory-bucket slots.
#[test]
fn telemetry_attributes_memory_bound_cycles() {
    let mut cfg = SimConfig::conventional_rr(256);
    cfg.telemetry = true;
    let mut a = Assembler::new();
    let (b, o, i, n) = (Reg::new(1), Reg::new(3), Reg::new(4), Reg::new(5));
    a.li(b, 0);
    a.li(i, 0);
    a.li(n, 300);
    let top = a.bind_label();
    a.lw(o, b, 0);
    a.add(Reg::new(6), Reg::new(6), o);
    a.addi(b, b, 8192);
    a.addi(i, i, 1);
    a.blt(i, n, top);
    let r = run_cfg(cfg, a);
    let attr = r.attribution.expect("telemetry enabled");
    assert!(attr.conserved());
    assert!(
        attr.fraction(SlotBucket::Memory) > 0.3,
        "memory fraction {:.3} too small for a thrashing loop",
        attr.fraction(SlotBucket::Memory)
    );
}
