//! Static instruction representation.
//!
//! An [`Inst`] is a passive compound value produced by the [`crate::Assembler`];
//! the fields are public in the C-struct spirit. Sources that name the
//! hard-wired zero register are *not* reported by [`Inst::sources`], because
//! they create no rename dependency — this is exactly the filtering the
//! paper's arity classification (§3.3) applies ("dynamic register operands").

use crate::op::Opcode;
use crate::reg::RegRef;

/// One static instruction.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Inst {
    /// Operation.
    pub op: Opcode,
    /// Destination register, if the instruction produces a register result.
    pub rd: Option<RegRef>,
    /// First register source.
    pub ra: Option<RegRef>,
    /// Second register source (store data for `Sw`/`Sf`).
    pub rb: Option<RegRef>,
    /// Third register source — only `SwIdx` (store data); cracked away by
    /// the decoder.
    pub rc: Option<RegRef>,
    /// Immediate operand (also the shift amount / load-store displacement).
    pub imm: i64,
    /// Control-flow target as an instruction index, resolved by the
    /// assembler. `None` for indirect jumps and non-control instructions.
    pub target: Option<usize>,
}

impl Inst {
    /// A new instruction with no operands; builders fill in the rest.
    #[must_use]
    pub fn new(op: Opcode) -> Self {
        Inst {
            op,
            rd: None,
            ra: None,
            rb: None,
            rc: None,
            imm: 0,
            target: None,
        }
    }

    /// The register sources that create real rename dependencies — i.e. all
    /// named sources except the hard-wired integer zero register.
    pub fn sources(&self) -> impl Iterator<Item = RegRef> + '_ {
        [self.ra, self.rb, self.rc]
            .into_iter()
            .flatten()
            .filter(|r| !r.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    #[test]
    fn zero_sources_are_filtered() {
        let mut i = Inst::new(Opcode::Add);
        i.rd = Some(Reg::new(3).into());
        i.ra = Some(Reg::new(0).into());
        i.rb = Some(Reg::new(2).into());
        assert_eq!(i.sources().count(), 1);
    }

    #[test]
    fn three_source_store_is_dyadic_plus() {
        let mut i = Inst::new(Opcode::SwIdx);
        i.ra = Some(Reg::new(1).into());
        i.rb = Some(Reg::new(2).into());
        i.rc = Some(Reg::new(3).into());
        assert_eq!(i.sources().count(), 3);
    }
}
