//! Dynamic µops — the trace records consumed by the timing simulator.
//!
//! A [`DynInst`] is one dynamic micro-operation: values, branch outcomes and
//! effective addresses are already resolved by the functional emulator, so
//! the timing core replays only *time*. Operand position matters to WSRS:
//! `srcs[0]` is the operand presented at the functional unit's **first**
//! entry and `srcs[1]` at the **second** entry (paper Figure 3); the `RC`
//! allocation policy may swap them at dispatch.

use crate::op::{Arity, OpClass, Opcode};
use crate::reg::RegRef;

/// One dynamic micro-operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DynInst {
    /// Static instruction index (serves as the PC for branch prediction).
    pub pc: u64,
    /// µop index within a cracked instruction (0, or 1 for the second µop of
    /// an indexed store).
    pub uop: u8,
    /// Opcode of this µop (cracked µops carry the µop's own opcode).
    pub op: Opcode,
    /// Execution class (functional unit + latency selector).
    pub class: OpClass,
    /// Dynamic register sources in operand-position order; zero-register
    /// sources are already dropped.
    pub srcs: [Option<RegRef>; 2],
    /// Register destination, if any.
    pub dst: Option<RegRef>,
    /// For control-flow µops: whether the branch was taken.
    pub taken: bool,
    /// For control-flow µops: the *next executed* static instruction index.
    pub target: u64,
    /// For loads/stores: the effective byte address.
    pub eff_addr: Option<u64>,
}

impl DynInst {
    /// A new µop with everything defaulted except opcode/class/pc.
    #[must_use]
    pub fn new(pc: u64, op: Opcode) -> Self {
        DynInst {
            pc,
            uop: 0,
            op,
            class: op.class(),
            srcs: [None, None],
            dst: None,
            taken: false,
            target: 0,
            eff_addr: None,
        }
    }

    /// Dynamic register arity of this µop (paper §3.3 classification).
    #[must_use]
    pub fn arity(&self) -> Arity {
        match (self.srcs[0].is_some(), self.srcs[1].is_some()) {
            (false, false) => Arity::Noadic,
            (true, false) | (false, true) => Arity::Monadic,
            (true, true) => Arity::Dyadic,
        }
    }

    /// Whether this µop ends a basic block (any control transfer).
    #[must_use]
    pub fn is_control(&self) -> bool {
        self.op.is_control()
    }

    /// Whether this µop's direction is predicted by the branch predictor.
    #[must_use]
    pub fn is_cond_branch(&self) -> bool {
        self.op.is_cond_branch()
    }

    /// Whether this µop reads memory.
    #[must_use]
    pub fn is_load(&self) -> bool {
        self.class == OpClass::Load
    }

    /// Whether this µop writes memory.
    #[must_use]
    pub fn is_store(&self) -> bool {
        self.class == OpClass::Store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    #[test]
    fn arity_reflects_sources() {
        let mut d = DynInst::new(0, Opcode::Add);
        assert_eq!(d.arity(), Arity::Noadic);
        d.srcs[0] = Some(Reg::new(1).into());
        assert_eq!(d.arity(), Arity::Monadic);
        d.srcs[1] = Some(Reg::new(2).into());
        assert_eq!(d.arity(), Arity::Dyadic);
    }
}
