//! Quickstart: assemble a small program, run it through the functional
//! emulator and the timing simulator in both conventional and WSRS modes,
//! and print the headline complexity numbers.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use wsrs::complexity::{table1, CactiModel, RegFileOrg};
use wsrs::core::{AllocPolicy, RunSpec, SimConfig, Simulator};
use wsrs::isa::{Assembler, Emulator, Reg};
use wsrs::regfile::RenameStrategy;

fn main() {
    // 1. Write a program against the ISA: sum the first 100k integers.
    let mut a = Assembler::new();
    let (i, n, sum) = (Reg::new(1), Reg::new(2), Reg::new(3));
    a.li(i, 0);
    a.li(n, 100_000);
    a.li(sum, 0);
    let top = a.bind_label();
    a.add(sum, sum, i);
    a.addi(i, i, 1);
    a.blt(i, n, top);
    a.halt();
    let program = a.assemble();

    // 2. Functional execution.
    let mut emu = Emulator::new(program.clone(), 4096);
    for _ in emu.by_ref() {}
    println!("functional result: sum = {}", emu.int_reg(sum));

    // 3. Timing simulation: conventional round-robin vs full WSRS.
    let run = |cfg| {
        let trace = Emulator::new(program.clone(), 4096);
        Simulator::new(cfg)
            .execute(&RunSpec::default(), [trace])
            .report
    };
    let conventional = run(SimConfig::conventional_rr(256));
    let wsrs = run(SimConfig::wsrs(
        512,
        AllocPolicy::RandomCommutative,
        RenameStrategy::ExactCount,
    ));
    println!(
        "conventional RR 256 : {:>8} cycles, IPC {:.3}",
        conventional.cycles,
        conventional.ipc()
    );
    println!(
        "WSRS RC 512         : {:>8} cycles, IPC {:.3}, unbalance {:.1}%",
        wsrs.cycles,
        wsrs.ipc(),
        wsrs.unbalance_percent
    );

    // 4. What WSRS buys in hardware: the Table 1 headline.
    let model = CactiModel::paper();
    let conv = RegFileOrg::nows_distributed(256);
    let spec = RegFileOrg::wsrs(512);
    println!(
        "register file: {:.1}x less area, {:.1}x less peak power, {:.0}% faster access",
        wsrs::complexity::total_area_w2(&conv, 64) as f64
            / wsrs::complexity::total_area_w2(&spec, 64) as f64,
        model.org_energy_nj(&conv) / model.org_energy_nj(&spec),
        100.0 * (1.0 - model.org_access_time_ns(&spec) / model.org_access_time_ns(&conv))
    );
    println!("\nFull Table 1:\n{}", table1::render(&table1::generate()));
}
