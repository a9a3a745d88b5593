//! Core renaming value types.

use std::fmt;

/// A physical register index within one class's register file (the index is
/// global across subsets).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PhysReg(pub u32);

impl fmt::Display for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A register-file subset index `Si` (paper Figure 2/3). For the 4-cluster
/// WSRS geometry the two bits have positional meaning: bit 1 (`f`) selects
/// the top/bottom cluster pair via the *first* operand, bit 0 (`s`) selects
/// left/right via the *second* operand.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Subset(pub u8);

impl Subset {
    /// The `f` bit (first-operand / top-bottom dimension).
    #[must_use]
    pub fn f(self) -> u8 {
        (self.0 >> 1) & 1
    }

    /// The `s` bit (second-operand / left-right dimension).
    #[must_use]
    pub fn s(self) -> u8 {
        self.0 & 1
    }

    /// Builds a subset from its `(f, s)` bits.
    #[must_use]
    pub fn from_bits(f: u8, s: u8) -> Self {
        Subset(((f & 1) << 1) | (s & 1))
    }

    /// Index as usize, for table lookups.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Subset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A (physical register, subset) pair — what a logical register is mapped
/// onto.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Mapping {
    /// The physical register.
    pub phys: PhysReg,
    /// The subset it belongs to.
    pub subset: Subset,
}

/// Which of the paper's two register-renaming implementations (§2.2) is
/// modelled.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RenameStrategy {
    /// §2.2.1: pick `N` registers from *every* subset free list each rename
    /// cycle; registers not attributed to the group re-enter the free list
    /// only after traversing a recycling pipeline. One extra front-end stage
    /// on the WSRS architecture.
    Recycling,
    /// §2.2.2: compute the exact per-subset register counts from the subset
    /// target vector, then pick exactly that many. No waste, but a longer
    /// rename pipeline (three extra front-end stages on WSRS).
    ExactCount,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_bits_roundtrip() {
        for f in 0..2 {
            for s in 0..2 {
                let sub = Subset::from_bits(f, s);
                assert_eq!(sub.f(), f);
                assert_eq!(sub.s(), s);
            }
        }
        assert_eq!(Subset::from_bits(1, 0), Subset(2));
        assert_eq!(Subset::from_bits(0, 1), Subset(1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(PhysReg(17).to_string(), "p17");
        assert_eq!(Subset(3).to_string(), "S3");
    }
}
