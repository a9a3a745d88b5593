//! Set-associative cache timing model (tags + true-LRU replacement).

/// Geometry and timing of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// The paper's L1 data cache: 32 KB, 64 B lines, 4-way, 2-cycle hits.
    #[must_use]
    pub fn paper_l1d() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            associativity: 4,
            hit_latency: 2,
        }
    }

    /// The paper's unified L2: 512 KB, 64 B lines, 8-way, 12-cycle hits.
    #[must_use]
    pub fn paper_l2() -> Self {
        CacheConfig {
            size_bytes: 512 * 1024,
            line_bytes: 64,
            associativity: 8,
            hit_latency: 12,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible into
    /// `associativity` ways of power-of-two lines).
    #[must_use]
    pub fn num_sets(&self) -> usize {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size not a power of two"
        );
        assert!(self.associativity > 0, "associativity must be positive");
        let lines = self.size_bytes / self.line_bytes;
        assert_eq!(
            lines % self.associativity,
            0,
            "capacity does not divide into whole sets"
        );
        let sets = lines / self.associativity;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Hit/miss counters for one cache level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses (loads + stores).
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
    /// Dirty lines evicted (write-back traffic).
    pub writebacks: u64,
}

impl CacheStats {
    /// Adds `other`'s counters to these.
    pub fn absorb(&mut self, other: &CacheStats) {
        let CacheStats {
            accesses,
            misses,
            writebacks,
        } = other;
        self.accesses += accesses;
        self.misses += misses;
        self.writebacks += writebacks;
    }

    /// Miss ratio, 0 if no accesses.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Higher = more recently used.
    lru: u64,
}

/// A set-associative, true-LRU cache tag array.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    set_mask: u64,
    line_shift: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds the tag array for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::num_sets`]).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.num_sets();
        Cache {
            config,
            lines: vec![
                Line {
                    tag: 0,
                    valid: false,
                    dirty: false,
                    lru: 0
                };
                sets * config.associativity
            ],
            set_mask: sets as u64 - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `addr`, updating LRU state and allocating the line on a
    /// miss (write-allocate for stores, which behave identically in a
    /// tags-only model). Returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_rw(addr, false)
    }

    /// Like [`Cache::access`] but marks the line dirty when `write` is
    /// true; evicting a dirty line counts a write-back (the cache is
    /// write-back, write-allocate).
    pub fn access_rw(&mut self, addr: u64, write: bool) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        let ways = self.config.associativity;
        let base = set * ways;

        for i in base..base + ways {
            if self.lines[i].valid && self.lines[i].tag == tag {
                self.lines[i].lru = self.tick;
                self.lines[i].dirty |= write;
                return true;
            }
        }
        self.stats.misses += 1;
        // Victim: invalid way if any, else least-recently-used.
        let victim = (base..base + ways)
            .min_by_key(|&i| (self.lines[i].valid, self.lines[i].lru))
            .expect("associativity is positive");
        if self.lines[victim].valid && self.lines[victim].dirty {
            self.stats.writebacks += 1;
        }
        self.lines[victim] = Line {
            tag,
            valid: true,
            dirty: write,
            lru: self.tick,
        };
        false
    }

    /// Bytes [`Self::dump_bytes`] appends for this geometry: 17 per line
    /// (tag, LRU stamp, flags) plus the 8-byte LRU tick.
    #[must_use]
    pub fn dump_len(&self) -> usize {
        self.lines.len() * 17 + 8
    }

    /// Appends the full replacement state — every line's tag/valid/dirty/LRU
    /// stamp plus the global LRU tick — to `out`, for warmup checkpointing.
    /// Statistics are *not* dumped; they are measurement, not state.
    pub fn dump_bytes(&self, out: &mut Vec<u8>) {
        for line in &self.lines {
            out.extend_from_slice(&line.tag.to_le_bytes());
            out.extend_from_slice(&line.lru.to_le_bytes());
            out.push(u8::from(line.valid) | (u8::from(line.dirty) << 1));
        }
        out.extend_from_slice(&self.tick.to_le_bytes());
    }

    /// Restores state previously produced by [`Self::dump_bytes`] on a cache
    /// of the same geometry, zeroing the statistics counters (a restored
    /// cache begins a fresh measurement). Returns `false` when `bytes` has
    /// the wrong length or carries impossible flag bits; the cache state is
    /// unspecified after a failed load.
    pub fn load_bytes(&mut self, bytes: &[u8]) -> bool {
        if bytes.len() != self.dump_len() {
            return false;
        }
        for (i, line) in self.lines.iter_mut().enumerate() {
            let at = i * 17;
            let flags = bytes[at + 16];
            if flags > 3 {
                return false;
            }
            line.tag = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            line.lru = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
            line.valid = flags & 1 != 0;
            line.dirty = flags & 2 != 0;
        }
        self.tick = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        self.stats = CacheStats::default();
        true
    }

    /// Whether `addr` is currently resident (no state change).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        let ways = self.config.associativity;
        self.lines[set * ways..(set + 1) * ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_evictions_count_writebacks() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 64,
            associativity: 1,
            hit_latency: 1,
        }); // 2 direct-mapped lines
        c.access_rw(0x000, true); // dirty line in set 0
        c.access_rw(0x080, false); // clean miss evicts... same set (stride 128)
        assert_eq!(c.stats().writebacks, 1);
        c.access_rw(0x100, false); // evicts the clean 0x080 line
        assert_eq!(c.stats().writebacks, 1, "clean eviction is free");
        // Re-dirtying via a hit also marks the line.
        c.access_rw(0x100, true);
        c.access_rw(0x180, false);
        assert_eq!(c.stats().writebacks, 2);
    }

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B
        Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            associativity: 2,
            hit_latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1038), "same 64B line");
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Three lines mapping to set 0 of a 2-way cache: set stride = 4*64 = 256
        c.access(0x0000);
        c.access(0x0100);
        c.access(0x0000); // refresh line A
        c.access(0x0200); // evicts B (0x0100), not A
        assert!(c.probe(0x0000));
        assert!(!c.probe(0x0100));
        assert!(c.probe(0x0200));
    }

    #[test]
    fn paper_geometries_are_consistent() {
        assert_eq!(CacheConfig::paper_l1d().num_sets(), 128);
        assert_eq!(CacheConfig::paper_l2().num_sets(), 1024);
        let _ = Cache::new(CacheConfig::paper_l1d());
        let _ = Cache::new(CacheConfig::paper_l2());
    }

    #[test]
    #[should_panic(expected = "whole sets")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 500,
            line_bytes: 64,
            associativity: 3,
            hit_latency: 1,
        });
    }

    #[test]
    fn dump_load_round_trips_and_resets_stats() {
        let mut c = tiny();
        for i in 0..40u64 {
            c.access_rw(i.wrapping_mul(0x31_4159) & 0xfff, i % 3 == 0);
        }
        let mut bytes = Vec::new();
        c.dump_bytes(&mut bytes);
        assert_eq!(bytes.len(), c.dump_len());
        let mut fresh = tiny();
        assert!(fresh.load_bytes(&bytes));
        assert_eq!(fresh.stats(), CacheStats::default());
        // Same residency and, crucially, the same LRU decisions afterwards.
        for addr in (0..0x1000u64).step_by(64) {
            assert_eq!(fresh.probe(addr), c.probe(addr), "addr {addr:#x}");
        }
        for i in 0..40u64 {
            let addr = i.wrapping_mul(0xabcd) & 0xfff;
            assert_eq!(fresh.access(addr), c.access(addr), "access {i}");
        }
        assert!(!tiny().load_bytes(&bytes[1..]), "wrong length rejected");
        let mut bad = bytes.clone();
        bad[16] = 0xff; // impossible flag bits
        assert!(!tiny().load_bytes(&bad));
    }

    #[test]
    fn capacity_sized_working_set_fits() {
        let mut c = tiny(); // 512 B = 8 lines
        for pass in 0..3 {
            for i in 0..8u64 {
                let hit = c.access(i * 64);
                if pass > 0 {
                    assert!(hit, "line {i} should persist across passes");
                }
            }
        }
    }

    #[test]
    fn over_capacity_working_set_thrashes() {
        let mut c = tiny();
        // 16 lines round-robin into 8-line cache with LRU: always misses.
        for _ in 0..3 {
            for i in 0..16u64 {
                c.access(i * 64);
            }
        }
        assert_eq!(c.stats().misses, c.stats().accesses);
    }
}
