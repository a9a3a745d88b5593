//! Property tests for the ISA layer: metadata invariants and
//! assembler/emulator round trips on randomized inputs.

use proptest::prelude::*;
use wsrs_isa::{Assembler, Emulator, Reg};

proptest! {
    /// Computed loops execute exactly `n` iterations for arbitrary bounds.
    #[test]
    fn counted_loops_iterate_exactly(n in 1i64..500) {
        let mut a = Assembler::new();
        let (i, bound, acc) = (Reg::new(1), Reg::new(2), Reg::new(3));
        a.li(i, 0);
        a.li(bound, n);
        let top = a.bind_label();
        a.addi(acc, acc, 3);
        a.addi(i, i, 1);
        a.blt(i, bound, top);
        a.halt();
        let mut e = Emulator::new(a.assemble(), 4096);
        let uops = e.by_ref().count();
        prop_assert_eq!(e.int_reg(acc), 3 * n);
        prop_assert_eq!(uops as i64, 2 + 3 * n);
    }

    /// Arithmetic identities hold through the emulator for arbitrary values.
    #[test]
    fn arithmetic_identities(x in any::<i64>(), y in any::<i64>()) {
        let mut a = Assembler::new();
        let (rx, ry, t1, t2, t3) =
            (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5));
        a.li(rx, x);
        a.li(ry, y);
        a.add(t1, rx, ry);   // x + y
        a.add(t2, ry, rx);   // y + x (commutative)
        a.sub(t3, t1, ry);   // (x + y) - y == x
        a.xor(t1, t1, t2);   // equal values XOR to zero
        a.halt();
        let mut e = Emulator::new(a.assemble(), 4096);
        for _ in e.by_ref() {}
        prop_assert_eq!(e.int_reg(t1), 0);
        prop_assert_eq!(e.int_reg(t3), x);
    }

    /// Memory is word-consistent: the last store to a word wins, for any
    /// interleaving of addresses.
    #[test]
    fn last_store_wins(writes in prop::collection::vec((0u16..256, any::<i32>()), 1..60)) {
        let mut a = Assembler::new();
        let (base, v) = (Reg::new(1), Reg::new(2));
        a.li(base, 0x1000);
        for &(slot, val) in &writes {
            a.li(v, i64::from(val));
            a.sw(base, i64::from(slot) * 8, v);
        }
        a.halt();
        let mut e = Emulator::new(a.assemble(), 1 << 16);
        for _ in e.by_ref() {}
        let mut expect = std::collections::HashMap::new();
        for &(slot, val) in &writes {
            expect.insert(slot, val);
        }
        for (&slot, &val) in &expect {
            prop_assert_eq!(
                e.memory().read(0x1000 + u64::from(slot) * 8) as i64,
                i64::from(val),
                "slot {}", slot
            );
        }
    }

    /// FP moves and negation round-trip through registers and memory.
    #[test]
    fn fp_roundtrip(x in -1e12f64..1e12) {
        use wsrs_isa::Freg;
        let mut a = Assembler::new();
        let base = Reg::new(1);
        let (fa, fb) = (Freg::new(0), Freg::new(1));
        a.data_f64(0x100, x);
        a.li(base, 0x100);
        a.lf(fa, base, 0);
        a.fneg(fb, fa);
        a.fneg(fb, fb);
        a.sf(base, 8, fb);
        a.halt();
        let mut e = Emulator::new(a.assemble(), 4096);
        for _ in e.by_ref() {}
        prop_assert_eq!(e.memory().read_f64(0x108), x);
    }

    /// The dynamic arity of a generated µop never exceeds its opcode's
    /// static arity.
    #[test]
    fn dynamic_arity_bounded_by_static(ra in 0u8..16, rb in 0u8..16) {
        use wsrs_isa::Arity;
        let mut a = Assembler::new();
        a.add(Reg::new(1), Reg::new(ra), Reg::new(rb));
        a.halt();
        let mut e = Emulator::new(a.assemble(), 4096);
        let d = e.next().unwrap();
        let dynamic = d.arity();
        let stat = d.op.arity();
        let rank = |x: Arity| match x { Arity::Noadic => 0, Arity::Monadic => 1, Arity::Dyadic => 2 };
        prop_assert!(rank(dynamic) <= rank(stat));
        // And it only shrinks when r0 is involved.
        if ra != 0 && rb != 0 {
            prop_assert_eq!(rank(dynamic), rank(stat));
        }
    }
}
