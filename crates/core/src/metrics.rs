//! Simulation metrics: IPC, branch behaviour, stall accounting and the
//! paper's *unbalancing degree* (Figure 5).

use wsrs_mem::HierarchyStats;
use wsrs_regfile::RenameStats;
use wsrs_telemetry::CycleAttribution;

/// Most execution domains a tracked machine has (4 clusters in the paper;
/// pooled organizations use fewer). Bounding it keeps the per-group
/// counters inline in [`UnbalanceTracker`].
const MAX_CLUSTERS: usize = 8;

/// The paper's workload-balance metric (§5.4): split the dynamic stream
/// into groups of 128 µops; a group is *unbalanced* when any of the four
/// clusters receives fewer than 24 or more than 40 of them. The
/// *unbalancing degree* ([`Report::unbalance_percent`]) is the fraction of
/// unbalanced groups, which the engine computes from these counts net of
/// warmup.
#[derive(Clone, Debug)]
pub struct UnbalanceTracker {
    group_size: u64,
    low: u64,
    high: u64,
    /// Only the first `clusters` entries are live; the rest stay zero.
    counts: [u64; MAX_CLUSTERS],
    clusters: usize,
    in_group: u64,
    groups: u64,
    unbalanced: u64,
}

impl UnbalanceTracker {
    /// The paper's parameters: 128-µop groups, unbalanced outside [24, 40].
    #[must_use]
    pub fn paper(clusters: usize) -> Self {
        Self::new(clusters, 128, 24, 40)
    }

    /// A tracker over `clusters` clusters with custom group size/bounds.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is zero or the bounds are inverted.
    #[must_use]
    pub fn new(clusters: usize, group_size: u64, low: u64, high: u64) -> Self {
        assert!(group_size > 0 && low <= high);
        assert!(clusters <= MAX_CLUSTERS, "too many clusters to track");
        UnbalanceTracker {
            group_size,
            low,
            high,
            counts: [0; MAX_CLUSTERS],
            clusters,
            in_group: 0,
            groups: 0,
            unbalanced: 0,
        }
    }

    /// Records that one µop was allocated to `cluster`.
    pub fn record(&mut self, cluster: usize) {
        debug_assert!(cluster < self.clusters);
        self.counts[cluster] += 1;
        self.in_group += 1;
        if self.in_group == self.group_size {
            self.groups += 1;
            let live = &mut self.counts[..self.clusters];
            if live.iter().any(|&c| c < self.low || c > self.high) {
                self.unbalanced += 1;
            }
            live.iter_mut().for_each(|c| *c = 0);
            self.in_group = 0;
        }
    }

    /// Completed groups.
    #[must_use]
    pub fn groups(&self) -> u64 {
        self.groups
    }

    /// Completed groups flagged as unbalanced.
    #[must_use]
    pub fn unbalanced(&self) -> u64 {
        self.unbalanced
    }
}

/// Dispatch-stall attribution.
#[derive(Clone, Copy, Debug, Default)]
pub struct StallBreakdown {
    /// Dispatch slots lost to an empty fetch buffer (misprediction
    /// recovery).
    pub frontend: u64,
    /// Dispatch slots lost waiting for a free physical register in the
    /// required subset.
    pub rename: u64,
    /// Dispatch slots lost to a full ROB or full cluster window.
    pub window: u64,
}

/// The result of a simulation run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Retired µops.
    pub uops: u64,
    /// Conditional branches retired.
    pub branches: u64,
    /// Conditional branches mispredicted.
    pub mispredicts: u64,
    /// Per-cluster dispatched µop counts.
    pub per_cluster: Vec<u64>,
    /// Unbalancing degree in percent (paper Figure 5 metric).
    pub unbalance_percent: f64,
    /// Dispatch-stall attribution.
    pub stalls: StallBreakdown,
    /// Memory-hierarchy counters.
    pub memory: HierarchyStats,
    /// Renamer counters.
    pub rename: RenameStats,
    /// Loads that took their value from an in-flight store.
    pub store_forwards: u64,
    /// Whether the §2.3 rename deadlock was detected (only possible when a
    /// register subset is smaller than the architectural file).
    pub deadlocked: bool,
    /// Deadlock-exception recoveries performed (§2.3 workaround (b);
    /// requires `SimConfig::deadlock_recovery`).
    pub deadlock_recoveries: u64,
    /// µops retired per hardware thread over the **whole** run (length =
    /// `SimConfig::threads`; a single entry on non-SMT machines).
    pub per_thread_uops: Vec<u64>,
    /// Full-pipeline cycle attribution (`Some` iff `SimConfig::telemetry`
    /// was set): every commit-width slot of every measured cycle charged
    /// to exactly one bucket, `sum(buckets) == cycles × width`.
    pub attribution: Option<CycleAttribution>,
}

impl Report {
    /// Retired µops per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.uops as f64 / self.cycles as f64
        }
    }

    /// Misprediction rate over conditional branches.
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

impl std::fmt::Display for Report {
    /// A compact human-readable summary:
    ///
    /// ```text
    /// IPC 2.140 (2000000 µops / 934580 cycles) | mispredict 2.8% | unbalance 71.6% | L1 miss 1.2%
    /// ```
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "IPC {:.3} ({} µops / {} cycles) | mispredict {:.1}% | unbalance {:.1}% | L1 miss {:.1}%",
            self.ipc(),
            self.uops,
            self.cycles,
            100.0 * self.mispredict_rate(),
            self.unbalance_percent,
            100.0 * self.memory.l1.miss_rate(),
        )?;
        if self.deadlocked {
            write!(f, " | DEADLOCKED")?;
        }
        if self.deadlock_recoveries > 0 {
            write!(f, " | {} deadlock recoveries", self.deadlock_recoveries)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_display_is_compact_and_total() {
        let r = Report {
            cycles: 100,
            uops: 250,
            branches: 10,
            mispredicts: 1,
            per_cluster: vec![100, 50, 50, 50],
            unbalance_percent: 12.5,
            stalls: StallBreakdown::default(),
            memory: HierarchyStats::default(),
            rename: RenameStats::default(),
            store_forwards: 0,
            deadlocked: true,
            deadlock_recoveries: 2,
            per_thread_uops: vec![250],
            attribution: None,
        };
        let s = r.to_string();
        assert!(s.contains("IPC 2.500"), "{s}");
        assert!(s.contains("DEADLOCKED"));
        assert!(s.contains("2 deadlock recoveries"));
    }

    #[test]
    fn perfectly_balanced_groups() {
        let mut t = UnbalanceTracker::paper(4);
        // strict round-robin: every cluster gets 32 of each 128-group.
        for i in 0..1280 {
            t.record(i % 4);
        }
        assert_eq!(t.groups(), 10);
        assert_eq!(t.unbalanced(), 0);
    }

    #[test]
    fn skewed_groups_flagged() {
        let mut t = UnbalanceTracker::paper(4);
        // all µops on cluster 0: every group unbalanced.
        for _ in 0..256 {
            t.record(0);
        }
        assert_eq!(t.groups(), 2);
        assert_eq!(t.unbalanced(), 2);
    }

    #[test]
    fn boundary_counts_are_balanced() {
        let mut t = UnbalanceTracker::paper(4);
        // 24/40/40/24 = 128: exactly at the bounds -> balanced.
        for _ in 0..24 {
            t.record(0);
        }
        for _ in 0..40 {
            t.record(1);
        }
        for _ in 0..40 {
            t.record(2);
        }
        for _ in 0..24 {
            t.record(3);
        }
        assert_eq!(t.groups(), 1);
        assert_eq!(t.unbalanced(), 0);
    }

    #[test]
    fn just_outside_bounds_is_unbalanced() {
        let mut t = UnbalanceTracker::paper(4);
        // 23/41/40/24 = 128: cluster 0 below 24 -> unbalanced.
        for _ in 0..23 {
            t.record(0);
        }
        for _ in 0..41 {
            t.record(1);
        }
        for _ in 0..40 {
            t.record(2);
        }
        for _ in 0..24 {
            t.record(3);
        }
        assert_eq!(t.groups(), 1);
        assert_eq!(t.unbalanced(), 1);
    }

    #[test]
    fn incomplete_group_not_counted() {
        let mut t = UnbalanceTracker::paper(4);
        for _ in 0..100 {
            t.record(0);
        }
        assert_eq!(t.groups(), 0);
        assert_eq!(t.unbalanced(), 0);
    }
}
