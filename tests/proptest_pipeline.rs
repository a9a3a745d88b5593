//! Property-based cross-layer tests: random programs must (1) execute
//! identically to an independent reference interpreter, and (2) retire
//! completely through the timing simulator on every machine class.

use proptest::prelude::*;
use wsrs::core::{AllocPolicy, RunSpec, SimConfig, Simulator};
use wsrs::isa::{Assembler, Emulator, Program, Reg};
use wsrs::regfile::RenameStrategy;

/// A register-register / register-immediate op in the generated subset.
#[derive(Clone, Debug)]
enum Op {
    Li(u8, i32),
    Add(u8, u8, u8),
    Sub(u8, u8, u8),
    Xor(u8, u8, u8),
    Mul(u8, u8, u8),
    Addi(u8, u8, i32),
    Slli(u8, u8, u8),
    Sw(u8, u16, u8),
    Lw(u8, u8, u16),
}

const NREGS: u8 = 12; // r1..r12

fn op_strategy() -> impl Strategy<Value = Op> {
    let r = 1..=NREGS;
    prop_oneof![
        (r.clone(), any::<i32>()).prop_map(|(d, i)| Op::Li(d, i)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(d, a, b)| Op::Add(d, a, b)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(d, a, b)| Op::Sub(d, a, b)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(d, a, b)| Op::Xor(d, a, b)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(d, a, b)| Op::Mul(d, a, b)),
        (r.clone(), r.clone(), any::<i32>()).prop_map(|(d, a, i)| Op::Addi(d, a, i)),
        (r.clone(), r.clone(), 0u8..63).prop_map(|(d, a, s)| Op::Slli(d, a, s)),
        (r.clone(), 0u16..512, r.clone()).prop_map(|(a, off, b)| Op::Sw(a, off * 8, b)),
        (r.clone(), r.clone(), 0u16..512).prop_map(|(d, a, off)| Op::Lw(d, a, off * 8)),
    ]
}

fn assemble(ops: &[Op]) -> Program {
    let mut a = Assembler::new();
    for op in ops {
        match *op {
            Op::Li(d, i) => a.li(Reg::new(d), i64::from(i)),
            Op::Add(d, x, y) => a.add(Reg::new(d), Reg::new(x), Reg::new(y)),
            Op::Sub(d, x, y) => a.sub(Reg::new(d), Reg::new(x), Reg::new(y)),
            Op::Xor(d, x, y) => a.xor(Reg::new(d), Reg::new(x), Reg::new(y)),
            Op::Mul(d, x, y) => a.mul(Reg::new(d), Reg::new(x), Reg::new(y)),
            Op::Addi(d, x, i) => a.addi(Reg::new(d), Reg::new(x), i64::from(i)),
            Op::Slli(d, x, s) => a.slli(Reg::new(d), Reg::new(x), i64::from(s)),
            Op::Sw(x, off, y) => a.sw(Reg::new(x), i64::from(off), Reg::new(y)),
            Op::Lw(d, x, off) => a.lw(Reg::new(d), Reg::new(x), i64::from(off)),
        }
    }
    a.halt();
    a.assemble()
}

/// Independent reference semantics (memory as a map of word addresses).
fn reference(ops: &[Op]) -> [i64; 13] {
    let mut regs = [0i64; 13];
    let mut mem = std::collections::HashMap::<u64, i64>::new();
    // The emulator wraps addresses at the memory size; mirror it for 1 MiB.
    let wrap = |addr: i64| -> u64 { ((addr as u64) >> 3) & ((1 << 17) - 1) };
    for op in ops {
        match *op {
            Op::Li(d, i) => regs[d as usize] = i64::from(i),
            Op::Add(d, x, y) => regs[d as usize] = regs[x as usize].wrapping_add(regs[y as usize]),
            Op::Sub(d, x, y) => regs[d as usize] = regs[x as usize].wrapping_sub(regs[y as usize]),
            Op::Xor(d, x, y) => regs[d as usize] = regs[x as usize] ^ regs[y as usize],
            Op::Mul(d, x, y) => regs[d as usize] = regs[x as usize].wrapping_mul(regs[y as usize]),
            Op::Addi(d, x, i) => regs[d as usize] = regs[x as usize].wrapping_add(i64::from(i)),
            Op::Slli(d, x, s) => {
                regs[d as usize] = ((regs[x as usize] as u64) << (s & 63)) as i64;
            }
            Op::Sw(x, off, y) => {
                mem.insert(
                    wrap(regs[x as usize].wrapping_add(i64::from(off))),
                    regs[y as usize],
                );
            }
            Op::Lw(d, x, off) => {
                regs[d as usize] = mem
                    .get(&wrap(regs[x as usize].wrapping_add(i64::from(off))))
                    .copied()
                    .unwrap_or(0);
            }
        }
    }
    regs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn emulator_matches_reference_semantics(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let program = assemble(&ops);
        let mut emu = Emulator::new(program, 1 << 20);
        let trace_len = emu.by_ref().count();
        prop_assert_eq!(trace_len, ops.len());
        let expect = reference(&ops);
        for r in 1..=NREGS {
            prop_assert_eq!(
                emu.int_reg(Reg::new(r)),
                expect[r as usize],
                "register r{} diverged", r
            );
        }
    }

    #[test]
    fn simulator_retires_every_uop_on_all_machines(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let program = assemble(&ops);
        let mut vp = SimConfig::write_specialized_rr(512, RenameStrategy::ExactCount);
        vp.set_virtual_physical(48);
        for cfg in [
            SimConfig::conventional_rr(256),
            SimConfig::monolithic(256),
            SimConfig::pooled_write_specialized(512, RenameStrategy::ExactCount),
            SimConfig::write_specialized_rr(512, RenameStrategy::Recycling),
            SimConfig::wsrs(512, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount),
            SimConfig::wsrs(512, AllocPolicy::RandomCommutative, RenameStrategy::Recycling),
            vp,
        ] {
            let trace = Emulator::new(program.clone(), 1 << 20);
            let r = Simulator::new(cfg).execute(&RunSpec::default(), [trace]).report;
            prop_assert_eq!(r.uops as usize, ops.len());
            prop_assert!(!r.deadlocked);
            let per_cluster: u64 = r.per_cluster.iter().sum();
            prop_assert_eq!(per_cluster, r.uops);
        }
    }

    #[test]
    fn stores_then_loads_forward_correct_values(vals in prop::collection::vec(any::<i32>(), 1..20)) {
        // Write a sequence of distinct words then read them back
        // immediately — exercises store-to-load forwarding end to end.
        let mut a = Assembler::new();
        let base = Reg::new(1);
        a.li(base, 0x800);
        for (i, v) in vals.iter().enumerate() {
            let tmp = Reg::new(2);
            let dst = Reg::new(3);
            a.li(tmp, i64::from(*v));
            a.sw(base, (i as i64) * 8, tmp);
            a.lw(dst, base, (i as i64) * 8);
            a.sw(base, 0x1000 + (i as i64) * 8, dst); // copy out
        }
        a.halt();
        let program = a.assemble();
        let mut emu = Emulator::new(program.clone(), 1 << 16);
        for _ in emu.by_ref() {}
        for (i, v) in vals.iter().enumerate() {
            prop_assert_eq!(emu.memory().read(0x800 + 0x1000 + (i as u64) * 8) as i64, i64::from(*v));
        }
        // The timing core must also complete it, with forwards observed.
        let r = Simulator::new(SimConfig::conventional_rr(256))
            .execute(&RunSpec::default(), [Emulator::new(program, 1 << 16)])
            .report;
        prop_assert!(r.store_forwards >= vals.len() as u64 / 2);
    }
}
