//! # wsrs-isa — the instruction set underpinning the WSRS reproduction
//!
//! The MICRO-2002 WSRS paper evaluates register write/read specialization on
//! the SPARC ISA. This crate provides the from-scratch substitute: a RISC
//! instruction set that preserves every property the WSRS mechanisms care
//! about —
//!
//! * the **dynamic register-operand arity** of each instruction (noadic /
//!   monadic / dyadic, see [`Arity`]), which determines the degrees of
//!   freedom for allocating instructions to clusters (paper §3.3);
//! * **commutativity** of dyadic operations, exploited by the `RC`
//!   allocation policy;
//! * a register-windowed-SPARC-sized architectural file (80 logical integer
//!   registers, paper §5.1.1) plus 32 logical floating-point registers;
//! * µop cracking of three-register-operand instructions (indexed stores)
//!   into two µops, as the paper's decoder does;
//! * the instruction latencies of the paper's Table 2 (see [`latency`]).
//!
//! The crate contains three layers:
//!
//! 1. static instructions ([`Inst`], [`Opcode`]) and programs built with the
//!    [`Assembler`];
//! 2. a functional [`Emulator`] that executes a [`Program`] over a flat
//!    [`Memory`] and yields the dynamic µop stream ([`DynInst`]) consumed by
//!    the `wsrs-core` timing simulator;
//! 3. metadata used by the timing model: [`OpClass`], latencies, arities.
//!
//! # Example
//!
//! ```
//! use wsrs_isa::{Assembler, Emulator, Reg};
//!
//! // sum = 0; for i in 0..10 { sum += i }
//! let mut a = Assembler::new();
//! let (i, n, sum) = (Reg::new(1), Reg::new(2), Reg::new(3));
//! a.li(i, 0);
//! a.li(n, 10);
//! a.li(sum, 0);
//! let top = a.bind_label();
//! a.add(sum, sum, i);
//! a.addi(i, i, 1);
//! a.blt(i, n, top);
//! a.halt();
//!
//! let mut emu = Emulator::new(a.assemble(), 1 << 16);
//! let trace: Vec<_> = emu.by_ref().collect();
//! assert!(trace.len() > 30);
//! assert_eq!(emu.int_reg(sum), 45);
//! ```

pub mod asm;
pub mod disasm;
pub mod dyninst;
pub mod emu;
pub mod hash;
pub mod inst;
pub mod latency;
pub mod mem;
pub mod op;
pub mod program;
pub mod reg;
pub mod source;

pub use asm::Assembler;
pub use dyninst::DynInst;
pub use emu::{emulator_revision, Emulator, EMULATOR_SEMANTICS_VERSION};
pub use hash::{fnv1a_64, Fnv1a};
pub use inst::Inst;
pub use mem::Memory;
pub use op::{Arity, OpClass, Opcode};
pub use program::{Label, Program};
pub use reg::{Freg, Reg, RegClass, RegRef};
pub use source::{SliceCursor, UopCursor, UopSource};
