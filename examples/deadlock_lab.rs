//! The §2.3 deadlock laboratory: provoke the write-specialization rename
//! deadlock with undersized register subsets, watch the detector fire, then
//! enable the workaround-(b) exception and watch the same program complete.
//!
//! The paper's configurations are statically deadlock-free (every subset
//! holds at least the 80 architectural registers); this example shows what
//! the §2.3 analysis protects against and what the hardware workaround
//! buys when the static rule cannot be met (SMT, large-ISA register files).
//!
//! ```sh
//! cargo run --release --example deadlock_lab
//! ```

use wsrs::core::{AllocPolicy, SimConfig, Simulator};
use wsrs::isa::{Assembler, Emulator, Reg};
use wsrs::regfile::RenameStrategy;
use wsrs_isa::RegClass;

/// A kernel that keeps remapping 49 logical registers — architectural
/// state migrates between subsets until one fills up.
fn migrating_kernel() -> (Assembler, u64) {
    let mut a = Assembler::new();
    let (i, n) = (Reg::new(70), Reg::new(71));
    a.li(i, 0);
    a.li(n, 500);
    let top = a.bind_label();
    for k in 1..50 {
        a.addi(Reg::new(k), Reg::new(k), 1);
    }
    a.addi(i, i, 1);
    a.blt(i, n, top);
    (a, 2 + 500 * 51)
}

fn tiny_config(recovery: bool) -> SimConfig {
    let mut cfg = SimConfig::wsrs(
        512,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    );
    // 84 integer registers over four subsets: 21 per subset for 80
    // architectural registers — one spare each, far below the §2.3 rule.
    cfg.int_regs = 84;
    cfg.fp_regs = 132;
    cfg.deadlock_recovery = recovery;
    cfg
}

fn main() {
    let rule = tiny_config(false);
    println!(
        "static §2.3 rule satisfied? int: {}   (per-subset {} vs 80 logical)",
        rule.renamer().statically_deadlock_free(RegClass::Int),
        rule.renamer().per_subset(RegClass::Int)
    );

    let (prog, expected) = migrating_kernel();
    let r = Simulator::new(tiny_config(false)).run(Emulator::new(prog.assemble(), 1 << 16));
    println!(
        "\nwithout recovery: deadlocked = {}, retired {}/{} µops in {} cycles",
        r.deadlocked, r.uops, expected, r.cycles
    );

    let (prog, _) = migrating_kernel();
    let r = Simulator::new(tiny_config(true)).run(Emulator::new(prog.assemble(), 1 << 16));
    println!(
        "with recovery:    deadlocked = {}, retired {}/{} µops in {} cycles, {} exception(s)",
        r.deadlocked, r.uops, expected, r.cycles, r.deadlock_recoveries
    );

    // Workaround (a): allocation avoids exhausted subsets up front.
    let mut avoid = tiny_config(false);
    avoid.avoid_exhaustion = true;
    let (prog, _) = migrating_kernel();
    let r = Simulator::new(avoid).run(Emulator::new(prog.assemble(), 1 << 16));
    println!(
        "with avoidance:   deadlocked = {}, retired {}/{} µops in {} cycles (workaround (a): best-effort)",
        r.deadlocked, r.uops, expected, r.cycles
    );

    // And the paper-sized machine never needs any of this:
    let (prog, _) = migrating_kernel();
    let r = Simulator::new(SimConfig::wsrs(
        384,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    ))
    .run(Emulator::new(prog.assemble(), 1 << 16));
    println!(
        "paper 384-reg:    deadlocked = {}, retired {} µops in {} cycles (96 ≥ 80 per subset)",
        r.deadlocked, r.uops, r.cycles
    );
}
