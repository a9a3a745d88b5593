//! Assembled programs.

use crate::hash::Fnv1a;
use crate::inst::Inst;
use crate::reg::{RegClass, RegRef};

/// A forward-referenceable code label handed out by the assembler.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(pub(crate) usize);

/// A fully assembled program: a flat instruction sequence with all labels
/// resolved to instruction indices, plus an optional initial data image.
#[derive(Clone, Debug, Default)]
pub struct Program {
    insts: Vec<Inst>,
    data: Vec<(u64, u64)>,
}

impl Program {
    pub(crate) fn new(insts: Vec<Inst>, data: Vec<(u64, u64)>) -> Self {
        Program { insts, data }
    }

    /// The instruction at index `idx`, if any.
    #[must_use]
    pub fn get(&self, idx: usize) -> Option<&Inst> {
        self.insts.get(idx)
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Iterates over the static instructions in program order.
    pub fn iter(&self) -> impl Iterator<Item = &Inst> {
        self.insts.iter()
    }

    /// The initial data image: `(word_address, value)` pairs the emulator
    /// installs before execution. Addresses are byte addresses of 8-byte
    /// aligned words.
    #[must_use]
    pub fn data(&self) -> &[(u64, u64)] {
        &self.data
    }

    /// Content fingerprint of the program: an FNV-1a hash over every
    /// instruction field and the initial data image. Two programs share a
    /// fingerprint exactly when the emulator would execute them
    /// identically, so it keys recorded traces — a kernel edit changes the
    /// fingerprint and invalidates stale trace files (see `wsrs-trace`).
    ///
    /// Immediates are hashed at full 64-bit width.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        // Registers hash as class-disambiguated bytes: 0 = absent,
        // 1..=128 = int, 129.. = fp.
        let reg_byte = |r: Option<RegRef>| match r {
            None => 0,
            Some(rr) => match rr.class() {
                RegClass::Int => rr.index() + 1,
                RegClass::Fp => rr.index() + 129,
            },
        };
        let mut h = Fnv1a::new();
        h.write(b"wsrs-program-v1");
        for i in &self.insts {
            h.write_u8(i.op.code());
            h.write_u8(reg_byte(i.rd));
            h.write_u8(reg_byte(i.ra));
            h.write_u8(reg_byte(i.rb));
            h.write_u8(reg_byte(i.rc));
            h.write_i64(i.imm);
            // Distinguish "no target" from "target 0".
            match i.target {
                None => h.write_u8(0),
                Some(t) => {
                    h.write_u8(1);
                    h.write_u64(t as u64);
                }
            }
        }
        for &(addr, value) in &self.data {
            h.write_u64(addr);
            h.write_u64(value);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Opcode;

    #[test]
    fn empty_program() {
        let p = Program::default();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert!(p.get(0).is_none());
    }

    #[test]
    fn iteration_matches_len() {
        let p = Program::new(vec![Inst::new(Opcode::Halt)], vec![]);
        assert_eq!(p.iter().count(), p.len());
        assert_eq!(p.get(0).unwrap().op, Opcode::Halt);
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let mut add = Inst::new(Opcode::Add);
        add.rd = Some(crate::reg::Reg::new(1).into());
        let base = Program::new(vec![add, Inst::new(Opcode::Halt)], vec![(8, 7)]);
        assert_eq!(base.fingerprint(), base.clone().fingerprint());

        // Any field change moves the hash.
        let mut other = base.clone();
        other.insts[0].imm = 5;
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut retarget = base.clone();
        retarget.insts[0].target = Some(0);
        assert_ne!(base.fingerprint(), retarget.fingerprint());
        let mut data = base.clone();
        data.data[0].1 = 8;
        assert_ne!(base.fingerprint(), data.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_register_classes() {
        let mut int_mov = Inst::new(Opcode::Mov);
        int_mov.ra = Some(crate::reg::Reg::new(3).into());
        let mut fp_mov = Inst::new(Opcode::Mov);
        fp_mov.ra = Some(crate::reg::Freg::new(3).into());
        let a = Program::new(vec![int_mov], vec![]);
        let b = Program::new(vec![fp_mov], vec![]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
