//! Instruction execution latencies — paper Table 2.
//!
//! | inst        | loads | ALU | mul/div | fadd/fmul | fdiv/fsqrt |
//! |-------------|-------|-----|---------|-----------|------------|
//! | latency     |   2   |  1  |   15    |     4     |     15     |
//!
//! Loads are 2 cycles on an L1 hit; miss penalties come from the memory
//! hierarchy model (`wsrs-mem`). Short FP moves/converts/compares are not
//! listed in the paper's table; we use 2 cycles and record that choice in
//! `DESIGN.md`.

use crate::op::OpClass;

/// L1-hit load-to-use latency in cycles.
pub const LOAD_LATENCY: u32 = 2;
/// Single-cycle integer ALU latency.
pub const ALU_LATENCY: u32 = 1;
/// Integer multiply/divide latency.
pub const MULDIV_LATENCY: u32 = 15;
/// FP add / FP multiply latency (fully pipelined unit).
pub const FP_ADD_MUL_LATENCY: u32 = 4;
/// FP divide / square-root latency.
pub const FP_DIV_SQRT_LATENCY: u32 = 15;
/// Short FP move/convert/compare latency (not in the paper's table; see
/// module docs).
pub const FP_MOVE_LATENCY: u32 = 2;

/// Execution latency in cycles for an operation class, assuming an L1 hit
/// for loads.
///
/// # Example
///
/// ```
/// use wsrs_isa::{latency, OpClass};
/// assert_eq!(latency::of(OpClass::IntAlu), 1);
/// assert_eq!(latency::of(OpClass::FpDivSqrt), 15);
/// ```
#[must_use]
pub fn of(class: OpClass) -> u32 {
    match class {
        OpClass::IntAlu | OpClass::Branch => ALU_LATENCY,
        OpClass::IntMulDiv => MULDIV_LATENCY,
        OpClass::Load => LOAD_LATENCY,
        // A store's "latency" is address/data hand-off to the store queue;
        // its memory effect happens at commit.
        OpClass::Store => ALU_LATENCY,
        OpClass::FpAdd | OpClass::FpMul => FP_ADD_MUL_LATENCY,
        OpClass::FpDivSqrt => FP_DIV_SQRT_LATENCY,
        OpClass::FpMove => FP_MOVE_LATENCY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values() {
        assert_eq!(of(OpClass::Load), 2);
        assert_eq!(of(OpClass::IntAlu), 1);
        assert_eq!(of(OpClass::IntMulDiv), 15);
        assert_eq!(of(OpClass::FpAdd), 4);
        assert_eq!(of(OpClass::FpMul), 4);
        assert_eq!(of(OpClass::FpDivSqrt), 15);
    }
}
