//! Two-bit saturating counters and counter tables — the storage primitive
//! of every predictor bank in this crate.

/// A 2-bit saturating up/down counter. States 0–1 predict not-taken,
/// 2–3 predict taken.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Counter2(u8);

impl Counter2 {
    /// Weakly not-taken initial state (1).
    pub const WEAK_NOT_TAKEN: Counter2 = Counter2(1);
    /// Weakly taken state (2).
    pub const WEAK_TAKEN: Counter2 = Counter2(2);

    /// The predicted direction.
    #[inline]
    #[must_use]
    pub fn predict(self) -> bool {
        self.0 >= 2
    }

    /// Moves the counter toward `taken`.
    #[inline]
    pub fn update(&mut self, taken: bool) {
        if taken {
            if self.0 < 3 {
                self.0 += 1;
            }
        } else if self.0 > 0 {
            self.0 -= 1;
        }
    }

    /// Raw state, `0..=3`.
    #[must_use]
    pub fn raw(self) -> u8 {
        self.0
    }

    /// Reconstructs a counter from its raw state. Only the low two bits
    /// are meaningful; anything else is masked off, so every input byte
    /// decodes to a valid counter.
    #[must_use]
    pub fn from_raw(raw: u8) -> Counter2 {
        Counter2(raw & 3)
    }
}

impl Default for Counter2 {
    fn default() -> Self {
        Counter2::WEAK_NOT_TAKEN
    }
}

/// A power-of-two table of 2-bit counters.
#[derive(Clone, Debug)]
pub struct CounterTable {
    counters: Vec<Counter2>,
    mask: u64,
}

impl CounterTable {
    /// Creates a table with `1 << log2_entries` counters, all weakly
    /// not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `log2_entries` exceeds 30.
    #[must_use]
    pub fn new(log2_entries: u32) -> Self {
        assert!(log2_entries <= 30, "counter table too large");
        let n = 1usize << log2_entries;
        CounterTable {
            counters: vec![Counter2::default(); n],
            mask: (n as u64) - 1,
        }
    }

    /// Number of counters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Storage in bits (2 bits per counter).
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        self.counters.len() * 2
    }

    /// The counter selected by `index` (wrapped into the table).
    #[inline]
    #[must_use]
    pub fn get(&self, index: u64) -> Counter2 {
        self.counters[(index & self.mask) as usize]
    }

    /// Updates the counter selected by `index` toward `taken`.
    #[inline]
    pub fn update(&mut self, index: u64, taken: bool) {
        let i = (index & self.mask) as usize;
        self.counters[i].update(taken);
    }

    /// Bytes [`Self::dump_bytes`] appends for this table: counters are
    /// packed four to a byte.
    #[must_use]
    pub fn dump_len(&self) -> usize {
        self.counters.len().div_ceil(4)
    }

    /// Appends the table contents to `out`, four 2-bit counters per byte,
    /// lowest index in the lowest bits.
    pub fn dump_bytes(&self, out: &mut Vec<u8>) {
        for chunk in self.counters.chunks(4) {
            let mut b = 0u8;
            for (i, c) in chunk.iter().enumerate() {
                b |= c.raw() << (2 * i);
            }
            out.push(b);
        }
    }

    /// Restores the table from bytes produced by [`Self::dump_bytes`].
    /// Returns `false` (leaving the table untouched) when `bytes` is not
    /// exactly [`Self::dump_len`] long; every 2-bit pattern is a valid
    /// counter, so length is the only way a dump can be malformed.
    pub fn load_bytes(&mut self, bytes: &[u8]) -> bool {
        if bytes.len() != self.dump_len() {
            return false;
        }
        for (i, c) in self.counters.iter_mut().enumerate() {
            *c = Counter2::from_raw(bytes[i / 4] >> (2 * (i % 4)));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_both_ends() {
        let mut c = Counter2::default();
        for _ in 0..10 {
            c.update(true);
        }
        assert_eq!(c.raw(), 3);
        assert!(c.predict());
        for _ in 0..10 {
            c.update(false);
        }
        assert_eq!(c.raw(), 0);
        assert!(!c.predict());
    }

    #[test]
    fn hysteresis_needs_two_flips() {
        let mut c = Counter2::default(); // 1 -> predicts not taken
        c.update(true); // 2
        assert!(c.predict());
        c.update(false); // 1
        assert!(!c.predict());
    }

    #[test]
    fn dump_load_round_trips() {
        let mut t = CounterTable::new(5);
        for i in 0..77u64 {
            t.update(i.wrapping_mul(0x9e37_79b9), i % 3 != 0);
        }
        let mut bytes = Vec::new();
        t.dump_bytes(&mut bytes);
        assert_eq!(bytes.len(), t.dump_len());
        let mut fresh = CounterTable::new(5);
        assert!(fresh.load_bytes(&bytes));
        for i in 0..t.len() as u64 {
            assert_eq!(fresh.get(i), t.get(i));
        }
        // Wrong length is rejected without touching the table.
        assert!(!fresh.load_bytes(&bytes[1..]));
        assert_eq!(Counter2::from_raw(0xff).raw(), 3);
    }

    #[test]
    fn table_indexing_wraps() {
        let mut t = CounterTable::new(4);
        assert_eq!(t.len(), 16);
        assert_eq!(t.storage_bits(), 32);
        t.update(3, true);
        t.update(3 + 16, true);
        assert!(t.get(3).predict(), "index 19 aliases to 3");
    }
}
