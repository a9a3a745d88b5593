//! Property tests over *structured control flow*: random programs made of
//! arithmetic blocks nested inside counted loops must execute identically
//! to a reference interpreter, and the timing simulator must retire the
//! exact dynamic µop count on every machine class.

use proptest::prelude::*;
use wsrs::core::{AllocPolicy, RunSpec, SimConfig, Simulator};
use wsrs::isa::{Assembler, Emulator, Program, Reg};
use wsrs::regfile::RenameStrategy;

/// A structured program: a sequence of items.
#[derive(Clone, Debug)]
enum Item {
    /// `acc = acc op (reg or const)`
    Step(StepOp),
    /// A counted loop (1..=6 iterations) over a sub-sequence.
    Loop(u8, Vec<Item>),
}

#[derive(Clone, Copy, Debug)]
enum StepOp {
    AddConst(i16),
    XorConst(i16),
    AddReg(u8),
    MulSmall(i8),
    StoreAcc(u16),
    LoadSlot(u16),
}

fn step_strategy() -> impl Strategy<Value = StepOp> {
    prop_oneof![
        any::<i16>().prop_map(StepOp::AddConst),
        any::<i16>().prop_map(StepOp::XorConst),
        (1u8..8).prop_map(StepOp::AddReg),
        (-7i8..8).prop_map(StepOp::MulSmall),
        (0u16..64).prop_map(StepOp::StoreAcc),
        (0u16..64).prop_map(StepOp::LoadSlot),
    ]
}

fn item_strategy() -> impl Strategy<Value = Item> {
    let leaf = step_strategy().prop_map(Item::Step);
    leaf.prop_recursive(2, 24, 6, |inner| {
        (1u8..=6, prop::collection::vec(inner, 1..6)).prop_map(|(n, body)| Item::Loop(n, body))
    })
}

const ACC: u8 = 10;
const SCRATCH_BASE: i64 = 0x2000;
/// Loop counters: one register per nesting depth.
const LOOP_REG_BASE: u8 = 20;

fn emit(a: &mut Assembler, items: &[Item], depth: u8) {
    for item in items {
        match item {
            Item::Step(op) => {
                let acc = Reg::new(ACC);
                match *op {
                    StepOp::AddConst(c) => a.addi(acc, acc, i64::from(c)),
                    StepOp::XorConst(c) => a.xori(acc, acc, i64::from(c)),
                    StepOp::AddReg(r) => a.add(acc, acc, Reg::new(r)),
                    StepOp::MulSmall(c) => {
                        let t = Reg::new(11);
                        a.li(t, i64::from(c));
                        a.mul(acc, acc, t);
                    }
                    StepOp::StoreAcc(slot) => {
                        let b = Reg::new(12);
                        a.li(b, SCRATCH_BASE);
                        a.sw(b, i64::from(slot) * 8, acc);
                    }
                    StepOp::LoadSlot(slot) => {
                        let b = Reg::new(12);
                        a.li(b, SCRATCH_BASE);
                        a.lw(acc, b, i64::from(slot) * 8);
                    }
                }
            }
            Item::Loop(n, body) => {
                let ctr = Reg::new(LOOP_REG_BASE + depth);
                a.li(ctr, i64::from(*n));
                let top = a.bind_label();
                emit(a, body, depth + 1);
                a.addi(ctr, ctr, -1);
                a.bnez(ctr, top);
            }
        }
    }
}

fn build(items: &[Item]) -> Program {
    let mut a = Assembler::new();
    // Seed the operand registers deterministically.
    for r in 1u8..8 {
        a.li(Reg::new(r), i64::from(r) * 3 - 10);
    }
    emit(&mut a, items, 0);
    a.halt();
    a.assemble()
}

/// Reference interpreter over the structured form.
struct Ref {
    acc: i64,
    regs: [i64; 8],
    mem: [i64; 64],
    uops: u64,
}

impl Ref {
    fn run(items: &[Item]) -> Ref {
        let mut r = Ref {
            acc: 0,
            regs: [0; 8],
            mem: [0; 64],
            uops: 7, // the seeding `li`s for r1..r7; `halt` is never traced
        };
        for i in 1..8usize {
            r.regs[i] = i as i64 * 3 - 10;
        }
        r.exec(items);
        r
    }

    fn exec(&mut self, items: &[Item]) {
        for item in items {
            match item {
                Item::Step(op) => match *op {
                    StepOp::AddConst(c) => {
                        self.acc = self.acc.wrapping_add(i64::from(c));
                        self.uops += 1;
                    }
                    StepOp::XorConst(c) => {
                        self.acc ^= i64::from(c);
                        self.uops += 1;
                    }
                    StepOp::AddReg(r) => {
                        self.acc = self.acc.wrapping_add(self.regs[r as usize]);
                        self.uops += 1;
                    }
                    StepOp::MulSmall(c) => {
                        self.acc = self.acc.wrapping_mul(i64::from(c));
                        self.uops += 2; // li + mul
                    }
                    StepOp::StoreAcc(slot) => {
                        self.mem[slot as usize] = self.acc;
                        self.uops += 2; // li + sw
                    }
                    StepOp::LoadSlot(slot) => {
                        self.acc = self.mem[slot as usize];
                        self.uops += 2; // li + lw
                    }
                },
                Item::Loop(n, body) => {
                    self.uops += 1; // counter li
                    for _ in 0..*n {
                        self.exec(body);
                        self.uops += 2; // addi + bnez
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn structured_programs_match_reference(items in prop::collection::vec(item_strategy(), 1..10)) {
        let program = build(&items);
        let mut emu = Emulator::new(program, 1 << 16);
        let traced = emu.by_ref().count() as u64;
        let expect = Ref::run(&items);
        prop_assert_eq!(traced, expect.uops, "dynamic µop count");
        prop_assert_eq!(emu.int_reg(Reg::new(ACC)), expect.acc, "accumulator");
        for slot in 0..64u64 {
            prop_assert_eq!(
                emu.memory().read(SCRATCH_BASE as u64 + slot * 8) as i64,
                expect.mem[slot as usize],
                "slot {}", slot
            );
        }
    }

    #[test]
    fn structured_programs_retire_fully_on_wsrs(items in prop::collection::vec(item_strategy(), 1..8)) {
        let program = build(&items);
        let expect = Ref::run(&items);
        for cfg in [
            SimConfig::conventional_rr(256),
            SimConfig::wsrs(512, AllocPolicy::RandomCommutative, RenameStrategy::ExactCount),
        ] {
            let trace = Emulator::new(program.clone(), 1 << 16);
            let r = Simulator::new(cfg).execute(&RunSpec::default(), [trace]).report;
            prop_assert_eq!(r.uops, expect.uops);
            prop_assert!(!r.deadlocked);
            prop_assert!(r.ipc() <= 8.0);
        }
    }
}
