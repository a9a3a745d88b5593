//! Shared code-generation helpers for the kernels.

use wsrs_isa::{Assembler, Label, Reg};

/// Emits `x = xorshift64(x)` (13/7/17 variant) using `tmp` as scratch.
/// The result is a well-mixed pseudo-random value, used for data-dependent
/// branches and address generation.
pub fn emit_xorshift(a: &mut Assembler, x: Reg, tmp: Reg) {
    a.slli(tmp, x, 13);
    a.xor(x, x, tmp);
    a.srli(tmp, x, 7);
    a.xor(x, x, tmp);
    a.slli(tmp, x, 17);
    a.xor(x, x, tmp);
}

/// Emits a memory-fill loop: `words` 64-bit words starting at `base` are
/// initialized with a xorshift stream seeded from `seed_imm`.
/// Clobbers `ptr`, `cnt`, `val`, `tmp`.
#[allow(clippy::too_many_arguments)] // codegen helper mirroring its register set
pub fn emit_fill(
    a: &mut Assembler,
    base: i64,
    words: i64,
    seed_imm: i64,
    ptr: Reg,
    cnt: Reg,
    val: Reg,
    tmp: Reg,
) {
    a.li(ptr, base);
    a.li(cnt, words);
    a.li(val, seed_imm);
    let top = a.bind_label();
    emit_xorshift(a, val, tmp);
    a.sw(ptr, 0, val);
    a.addi(ptr, ptr, 8);
    a.addi(cnt, cnt, -1);
    a.bnez(cnt, top);
}

/// Emits a loop initializing `words` f64 values at `base` to `i * scale`.
/// `const_addr` is a scratch word (8-byte aligned, unique per call site)
/// used to materialize the `scale` constant. Clobbers integer registers
/// r60–r62 and FP registers f30–f31.
pub fn emit_fp_fill(a: &mut Assembler, base: i64, words: i64, scale: f64, const_addr: i64) {
    let (i, n, ptr) = (Reg::new(60), Reg::new(61), Reg::new(62));
    let (fv, fs) = (wsrs_isa::Freg::new(30), wsrs_isa::Freg::new(31));
    a.data_f64(const_addr as u64, scale);
    a.li(ptr, const_addr);
    a.lf(fs, ptr, 0);
    a.li(i, 0);
    a.li(n, words);
    a.li(ptr, base);
    let top = a.bind_label();
    a.fcvt(fv, i);
    a.fmul(fv, fv, fs);
    a.sf(ptr, 0, fv);
    a.addi(ptr, ptr, 8);
    a.addi(i, i, 1);
    a.blt(i, n, top);
}

/// Opens a kernel's `outer`-repetition loop: loads the repetition count
/// into `oc` and returns the loop-top label. Every kernel wraps its
/// steady-state body in this loop so traces can be made arbitrarily long;
/// close it with [`end_outer_loop`]. The emitted instruction sequence is
/// exactly the boilerplate the kernels previously spelled out inline, so
/// assembled programs — and therefore trace fingerprints — are unchanged.
pub fn begin_outer_loop(a: &mut Assembler, oc: Reg, outer: i64) -> Label {
    a.li(oc, outer);
    a.bind_label()
}

/// Closes a loop opened with [`begin_outer_loop`] (decrement, branch back
/// while nonzero) and halts the program after the final repetition.
pub fn end_outer_loop(a: &mut Assembler, oc: Reg, top: Label) {
    a.addi(oc, oc, -1);
    a.bnez(oc, top);
    a.halt();
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsrs_isa::Emulator;

    #[test]
    fn xorshift_mixes() {
        let mut a = Assembler::new();
        let (x, t) = (Reg::new(1), Reg::new(2));
        a.li(x, 0x1234_5678);
        emit_xorshift(&mut a, x, t);
        a.halt();
        let mut e = Emulator::new(a.assemble(), 4096);
        for _ in e.by_ref() {}
        let v = e.int_reg(x);
        assert_ne!(v, 0x1234_5678);
        assert_ne!(v, 0);
    }

    #[test]
    fn fill_writes_every_word() {
        let mut a = Assembler::new();
        let regs: Vec<Reg> = (1..5).map(Reg::new).collect();
        emit_fill(&mut a, 0x1000, 16, 42, regs[0], regs[1], regs[2], regs[3]);
        a.halt();
        let mut e = Emulator::new(a.assemble(), 1 << 16);
        for _ in e.by_ref() {}
        for i in 0..16 {
            assert_ne!(e.memory().read(0x1000 + i * 8), 0, "word {i}");
        }
    }
}
