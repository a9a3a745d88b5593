//! Two-level hierarchy with miss penalties and bandwidth occupancy
//! (paper Table 3).

use crate::cache::{Cache, CacheConfig, CacheStats};

/// Full hierarchy configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HierarchyConfig {
    /// L1 data cache geometry/latency.
    pub l1: CacheConfig,
    /// L1 miss penalty in cycles (added on top of the L1 hit latency when
    /// the line is found in L2).
    pub l1_miss_penalty: u32,
    /// L2 geometry/latency (the L2 hit latency is informational; timing uses
    /// the miss penalties, as the paper specifies them).
    pub l2: CacheConfig,
    /// L2 miss penalty in cycles (added when the line comes from memory).
    pub l2_miss_penalty: u32,
    /// L1 accesses accepted per cycle (paper: 4 words/cycle).
    pub l1_ports_per_cycle: u32,
    /// L2 refill bandwidth in bytes per cycle (paper: 16 B/cycle), which
    /// makes a line refill occupy the L2 bus for `line/16` cycles.
    pub l2_bytes_per_cycle: u32,
}

impl HierarchyConfig {
    /// The paper's Table 3 configuration.
    #[must_use]
    pub fn paper() -> Self {
        HierarchyConfig {
            l1: CacheConfig::paper_l1d(),
            l1_miss_penalty: 12,
            l2: CacheConfig::paper_l2(),
            l2_miss_penalty: 80,
            l1_ports_per_cycle: 4,
            l2_bytes_per_cycle: 16,
        }
    }

    /// A hierarchy with every access an L1 hit — for isolating non-memory
    /// effects in ablations and tests.
    #[must_use]
    pub fn perfect() -> Self {
        let mut c = Self::paper();
        c.l1_miss_penalty = 0;
        c.l2_miss_penalty = 0;
        c
    }

    /// Whether this configuration models a perfect (always-hit) hierarchy;
    /// true when both miss penalties are zero. Perfect hierarchies skip tag
    /// and bus simulation entirely.
    #[must_use]
    pub fn is_perfect(&self) -> bool {
        self.l1_miss_penalty == 0 && self.l2_miss_penalty == 0
    }
}

/// Statistics across the hierarchy.
#[derive(Clone, Copy, Debug, Default)]
pub struct HierarchyStats {
    /// L1 counters.
    pub l1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// Accesses delayed by L1 port contention.
    pub l1_port_stalls: u64,
    /// Cycles of L2 bus occupancy accumulated by refills.
    pub l2_bus_busy_cycles: u64,
}

impl HierarchyStats {
    /// Adds `other`'s counters to these.
    pub fn absorb(&mut self, other: &HierarchyStats) {
        let HierarchyStats {
            l1,
            l2,
            l1_port_stalls,
            l2_bus_busy_cycles,
        } = other;
        self.l1.absorb(l1);
        self.l2.absorb(l2);
        self.l1_port_stalls += l1_port_stalls;
        self.l2_bus_busy_cycles += l2_bus_busy_cycles;
    }
}

/// The two-level data-memory timing model.
///
/// `load`/`store` return the total latency in cycles for an access issued at
/// `cycle`, including miss penalties and bandwidth-induced queuing.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    /// Accesses already accepted in the current cycle (port model).
    port_cycle: u64,
    port_used: u32,
    /// Next cycle at which the L2 bus is free.
    l2_bus_free: u64,
    stats_extra: (u64, u64),
}

impl MemoryHierarchy {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if either cache geometry is inconsistent.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        MemoryHierarchy {
            config,
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            port_cycle: 0,
            port_used: 0,
            l2_bus_free: 0,
            stats_extra: (0, 0),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1.stats(),
            l2: self.l2.stats(),
            l1_port_stalls: self.stats_extra.0,
            l2_bus_busy_cycles: self.stats_extra.1,
        }
    }

    fn port_delay(&mut self, cycle: u64) -> u32 {
        if cycle != self.port_cycle {
            self.port_cycle = cycle;
            self.port_used = 0;
        }
        if self.port_used < self.config.l1_ports_per_cycle {
            self.port_used += 1;
            0
        } else {
            // Next cycle; a real design would retry, one cycle is the model.
            self.stats_extra.0 += 1;
            self.port_used = 1;
            self.port_cycle = cycle + 1;
            1
        }
    }

    fn access(&mut self, addr: u64, cycle: u64, write: bool) -> u32 {
        let mut latency = self.config.l1.hit_latency + self.port_delay(cycle);
        if self.config.is_perfect() {
            return latency;
        }
        if !self.l1.access_rw(addr, write) {
            latency += self.config.l1_miss_penalty;
            // Refill occupies the L2 bus.
            let refill_cycles =
                (self.config.l1.line_bytes as u64).div_ceil(self.config.l2_bytes_per_cycle as u64);
            let start = (cycle + u64::from(latency)).max(self.l2_bus_free);
            let queueing = start - (cycle + u64::from(latency));
            latency += queueing as u32;
            self.l2_bus_free = start + refill_cycles;
            self.stats_extra.1 += refill_cycles;
            // The L2 sees the refill; dirty L1 victims write back into it.
            if !self.l2.access_rw(addr, write) {
                latency += self.config.l2_miss_penalty;
            }
        }
        latency
    }

    /// Functionally touches `addr`, updating tag arrays and LRU state with
    /// no timing bookkeeping — the fast-forward path of interval sampling.
    /// Port and bus occupancy model *when* accesses complete, which is
    /// timing; residency and recency are the architectural warmth the
    /// sampled intervals need.
    pub fn warm_access(&mut self, addr: u64, write: bool) {
        if self.config.is_perfect() {
            return;
        }
        if !self.l1.access_rw(addr, write) {
            self.l2.access_rw(addr, write);
        }
    }

    /// Bytes [`Self::dump_state`] appends for this configuration.
    #[must_use]
    pub fn dump_len(&self) -> usize {
        self.l1.dump_len() + self.l2.dump_len()
    }

    /// Appends both levels' tag/LRU state to `out`, for warmup
    /// checkpointing. Port and bus occupancy and statistics are
    /// short-horizon or measurement state and deliberately excluded; [`Self::load_state`] resets them.
    pub fn dump_state(&self, out: &mut Vec<u8>) {
        self.l1.dump_bytes(out);
        self.l2.dump_bytes(out);
    }

    /// Restores state previously produced by [`Self::dump_state`] on a
    /// hierarchy of the same configuration, resetting port/bus occupancy
    /// and zeroing statistics (a restored hierarchy begins a fresh
    /// measurement). Returns `false` on a geometry mismatch; the hierarchy
    /// state is unspecified after a failed load.
    pub fn load_state(&mut self, bytes: &[u8]) -> bool {
        let n1 = self.l1.dump_len();
        if bytes.len() != self.dump_len() {
            return false;
        }
        self.l1.load_bytes(&bytes[..n1]) && self.l2.load_bytes(&bytes[n1..]) && {
            self.port_cycle = 0;
            self.port_used = 0;
            self.l2_bus_free = 0;
            self.stats_extra = (0, 0);
            true
        }
    }

    /// Timing for a load issued at `cycle` to `addr`; returns total latency
    /// in cycles.
    pub fn load(&mut self, addr: u64, cycle: u64) -> u32 {
        self.access(addr, cycle, false)
    }

    /// Timing for a store performing its cache write at `cycle` (stores
    /// write at commit). Returns the occupancy latency; the pipeline does
    /// not wait on it unless the store queue fills.
    pub fn store(&mut self, addr: u64, cycle: u64) -> u32 {
        self.access(addr, cycle, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_match_table3() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::paper());
        // Cold: L1 miss + L2 miss = 2 + 12 + 80 = 94
        assert_eq!(m.load(0x4000, 0), 94);
        // Warm L1 hit = 2
        assert_eq!(m.load(0x4000, 1000), 2);
    }

    #[test]
    fn l2_hit_costs_l1_penalty_only() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::paper());
        m.load(0x4000, 0);
        // Evict from tiny... L1 is 32KB/4-way: lines mapping to same set are
        // 8KB apart. Fill the set with 4 more lines.
        for i in 1..=4u64 {
            m.load(0x4000 + i * 8192, 1000 + i * 200);
        }
        // 0x4000 now misses L1 but hits L2: 2 + 12 (+ possible bus queueing)
        let lat = m.load(0x4000, 10_000);
        assert_eq!(lat, 14);
    }

    #[test]
    fn port_contention_delays_fifth_access() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::perfect());
        for i in 0..4 {
            assert_eq!(m.load(0x100 + i * 8, 5), 2);
        }
        assert_eq!(m.load(0x140, 5), 3, "fifth same-cycle access slips");
        assert_eq!(m.stats().l1_port_stalls, 1);
    }

    #[test]
    fn l2_bus_queues_back_to_back_refills() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::paper());
        let a = m.load(0x10000, 0);
        let b = m.load(0x20000, 0);
        assert_eq!(a, 94);
        assert!(b > 94, "second refill queues behind the first, got {b}");
    }

    #[test]
    fn perfect_hierarchy_never_penalizes() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::perfect());
        for i in 0..1000u64 {
            let lat = m.load(i * 4096, i);
            assert_eq!(lat, 2);
        }
    }

    #[test]
    fn warm_access_matches_timed_residency() {
        // Warming a hierarchy functionally and running the same accesses
        // through the timed path must leave identical tag/LRU state.
        let mut warm = MemoryHierarchy::new(HierarchyConfig::paper());
        let mut timed = MemoryHierarchy::new(HierarchyConfig::paper());
        let mut x = 0x9e37_79b9u64;
        for i in 0..5000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = x % (1 << 20);
            warm.warm_access(addr, x & 7 == 0);
            if x & 7 == 0 {
                timed.store(addr, i);
            } else {
                timed.load(addr, i);
            }
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        warm.dump_state(&mut a);
        timed.dump_state(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn state_round_trips_and_resets_occupancy() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::paper());
        for i in 0..2000u64 {
            m.load(i * 712 % (1 << 18), i);
        }
        let mut state = Vec::new();
        m.dump_state(&mut state);
        assert_eq!(state.len(), m.dump_len());
        let mut fresh = MemoryHierarchy::new(HierarchyConfig::paper());
        assert!(fresh.load_state(&state));
        let s = fresh.stats();
        assert_eq!((s.l1.accesses, s.l2.accesses, s.l1_port_stalls), (0, 0, 0));
        // Identical future behaviour: same latencies for the same stream.
        let mut replay = MemoryHierarchy::new(HierarchyConfig::paper());
        assert!(replay.load_state(&state));
        for i in 0..500u64 {
            let addr = i * 4096 % (1 << 18);
            assert_eq!(fresh.load(addr, i), replay.load(addr, i));
        }
        assert!(!MemoryHierarchy::new(HierarchyConfig::paper()).load_state(&state[1..]));
    }

    #[test]
    fn stats_accumulate() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::paper());
        m.load(0, 0);
        m.load(0, 10);
        m.store(0, 20);
        let s = m.stats();
        assert_eq!(s.l1.accesses, 3);
        assert_eq!(s.l1.misses, 1);
        assert_eq!(s.l2.accesses, 1);
    }
}
