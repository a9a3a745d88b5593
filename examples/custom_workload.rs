//! Bring your own workload: write a kernel against the assembler API,
//! inspect its dynamic instruction mix, and see how much cluster-allocation
//! freedom WSRS gets from it.
//!
//! The kernel here is a little hash-join: build a hash table from one
//! relation, probe it with another — a workload the paper never ran, which
//! is exactly the point of having the infrastructure.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use wsrs::core::{AllocPolicy, RunSpec, SimConfig, Simulator};
use wsrs::isa::{Assembler, Emulator, Program, Reg};
use wsrs::regfile::RenameStrategy;
use wsrs::workgen::{gen_name, generate, WorkloadProfile};
use wsrs::workloads::stats::TraceStats;

const BUILD_ROWS: i64 = 4096;
const PROBE_ROWS: i64 = 16384;
const TABLE: i64 = 0x10_0000; // 8192-slot hash table
const TABLE_MASK: i64 = 8191;

fn hash_join() -> Program {
    let mut a = Assembler::new();
    let r = Reg::new;
    let (i, n, key, slot, tmp, base, hits, misses, rng) =
        (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8), r(9));

    // Build phase: insert keys k*2654435761 mod m.
    a.li(rng, 0x9e37_79b9);
    a.li(i, 0);
    a.li(n, BUILD_ROWS);
    let build = a.bind_label();
    a.mul(key, i, rng);
    a.srli(key, key, 11);
    a.andi(slot, key, TABLE_MASK);
    a.slli(slot, slot, 3);
    a.li(base, TABLE);
    a.ori(tmp, key, 1); // nonzero marker
    a.sw_idx(base, slot, tmp);
    a.addi(i, i, 1);
    a.blt(i, n, build);

    // Probe phase: look up a wider key range, count hits.
    a.li(i, 0);
    a.li(n, PROBE_ROWS);
    let probe = a.bind_label();
    a.mul(key, i, rng);
    a.srli(key, key, 13);
    a.andi(slot, key, TABLE_MASK);
    a.slli(slot, slot, 3);
    a.li(base, TABLE);
    a.lw_idx(tmp, base, slot);
    let miss = a.label();
    a.beqz(tmp, miss);
    a.addi(hits, hits, 1);
    let next = a.label();
    a.jump(next);
    a.bind(miss);
    a.addi(misses, misses, 1);
    a.bind(next);
    a.addi(i, i, 1);
    a.blt(i, n, probe);
    a.halt();
    a.assemble()
}

fn main() {
    let program = hash_join();

    // Functional run + result check.
    let mut emu = Emulator::new(program.clone(), 1 << 22);
    for _ in emu.by_ref() {}
    let hits = emu.int_reg(Reg::new(7));
    let misses = emu.int_reg(Reg::new(8));
    println!("hash join: {hits} hits, {misses} misses over {PROBE_ROWS} probes");

    // Dynamic instruction mix — the quantities WSRS allocation feeds on.
    let stats = TraceStats::measure(Emulator::new(program.clone(), 1 << 22));
    println!(
        "mix: {:.0}% monadic, {:.0}% dyadic, {:.0}% branches, {:.0}% memory",
        100.0 * stats.monadic_fraction(),
        100.0 * stats.dyadic_fraction(),
        100.0 * stats.branch_fraction(),
        100.0 * stats.memory_fraction()
    );

    // Timing across the three machines.
    for (name, cfg) in [
        ("conventional RR 256", SimConfig::conventional_rr(256)),
        (
            "WS RR 512",
            SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount),
        ),
        (
            "WSRS RC 512",
            SimConfig::wsrs(
                512,
                AllocPolicy::RandomCommutative,
                RenameStrategy::ExactCount,
            ),
        ),
    ] {
        let trace = Emulator::new(program.clone(), 1 << 22);
        let r = Simulator::new(cfg)
            .execute(&RunSpec::default(), [trace])
            .report;
        println!(
            "{name:<22} IPC {:.3}  ({} cycles, {:.1}% unbalance)",
            r.ipc(),
            r.cycles,
            r.unbalance_percent
        );
    }

    // Statistical twin: extract the hash-join's profile and synthesize a
    // generated workload with the same measured characteristics. The
    // `gen:` name is content-addressed — anyone with this JSON profile
    // and seed rebuilds the byte-identical program.
    let profile =
        WorkloadProfile::extract(Emulator::new(program.clone(), 1 << 22), 50_000, 250_000);
    println!("\nprofile: {}", profile.to_json_string());
    let twin = generate(&profile, 1, 2_000);
    println!("twin   : {}", gen_name(&profile, 1));
    let twin_stats = TraceStats::measure(Emulator::new(twin, 1 << 22));
    println!(
        "twin mix: {:.0}% monadic, {:.0}% dyadic, {:.0}% branches, {:.0}% memory",
        100.0 * twin_stats.monadic_fraction(),
        100.0 * twin_stats.dyadic_fraction(),
        100.0 * twin_stats.branch_fraction(),
        100.0 * twin_stats.memory_fraction()
    );
}
