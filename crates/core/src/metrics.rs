//! Simulation metrics: IPC, branch behaviour, stall accounting and the
//! paper's *unbalancing degree* (Figure 5).

use crate::SimConfig;
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
/// unbalanced groups, which the engine tallies in its `Counters` from
/// what [`UnbalanceTracker::record`] returns.
#[derive(Clone, Debug)]
pub struct UnbalanceTracker {
    /// Only the first `clusters` entries are live; the rest stay zero.
    counts: [u64; MAX_CLUSTERS],
    clusters: usize,
    in_group: u64,
}

impl UnbalanceTracker {
    /// µops per group.
    const GROUP: u64 = 128;
    /// µops each cluster receives in a balanced group.
    const BALANCED: std::ops::RangeInclusive<u64> = 24..=40;

    /// A tracker over `clusters` clusters with the paper's parameters.
    ///
    /// # Panics
    ///
    /// Panics if there are more clusters than it can track.
    #[must_use]
    pub fn paper(clusters: usize) -> Self {
        assert!(clusters <= MAX_CLUSTERS, "too many clusters to track");
        UnbalanceTracker {
            counts: [0; MAX_CLUSTERS],
            clusters,
            in_group: 0,
        }
    }

    /// Records that one µop was allocated to `cluster`. When it completes
    /// a group, returns whether that group was unbalanced.
    #[must_use]
    pub fn record(&mut self, cluster: usize) -> Option<bool> {
        debug_assert!(cluster < self.clusters);
        self.counts[cluster] += 1;
        self.in_group += 1;
        if self.in_group < Self::GROUP {
            return None;
        }
        let live = &mut self.counts[..self.clusters];
        let unbalanced = live.iter().any(|c| !Self::BALANCED.contains(c));
        live.fill(0);
        self.in_group = 0;
        Some(unbalanced)
    }
}

/// The counters a [`Report`] covers over the measured window only. The
/// engine bumps them in place and starts them again from zero when the
/// measured window opens, so a new counter is windowed without a rule of
/// its own.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Conditional branches, counted at fetch (and mispredicted ones).
    pub(crate) branches: u64,
    pub(crate) mispredicts: u64,
    /// µops dispatched per cluster; only the machine's clusters are live.
    pub(crate) dispatched: [u64; MAX_CLUSTERS],
    pub(crate) store_forwards: u64,
    /// Completed unbalance groups, and those flagged unbalanced.
    pub(crate) unbalance_groups: u64,
    pub(crate) unbalance_flagged: u64,
    pub(crate) stalls: StallBreakdown,
    /// Cycle attribution, `Some` iff telemetry is on.
    pub(crate) attr: Option<CycleAttribution>,
}

impl Counters {
    /// Zeroed counters for a run of `cfg`: attribution over its commit
    /// width iff telemetry is on.
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        Counters {
            attr: cfg
                .telemetry
                .then(|| CycleAttribution::new(cfg.fetch_width)),
            ..Counters::default()
        }
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

/// The result of a simulation run. After a warmup
/// ([`crate::RunSpec::warmup`]) `memory`, `rename`, `deadlocked`,
/// `deadlock_recoveries` and `per_thread_uops` cover the whole run; every
/// other field covers only the measured window, the cycles after the
/// warmup's last µop retired.
#[derive(Clone, Debug)]
pub struct Report {
    /// Simulated cycles.
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
    /// Dispatch-stall attribution: per cycle at most one rename or window
    /// stall, and `fetch_width` frontend slots.
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
    /// µops retired per hardware thread (length = `SimConfig::threads`; a
    /// single entry on non-SMT machines).
    pub per_thread_uops: Vec<u64>,
    /// Full-pipeline cycle attribution (`Some` iff `SimConfig::telemetry`
    /// was set): every commit-width slot of every measured cycle charged
    /// to exactly one bucket, `sum(buckets) == cycles × width`.
    pub attribution: Option<CycleAttribution>,
}

impl Report {
    /// The sum of `reports`, measured windows of one configuration (the
    /// sampled path's intervals, at least one): every counter adds up,
    /// `unbalance_percent` is the µop-weighted mean, `attribution` `None`.
    pub(crate) fn sum(reports: &[Report]) -> Report {
        let (first, rest) = reports.split_first().expect("at least one report");
        let mut total = first.clone();
        rest.iter().for_each(|r| total.absorb(r));
        let weighted: f64 = reports
            .iter()
            .map(|r| r.unbalance_percent * r.uops as f64)
            .sum();
        total.unbalance_percent = if total.uops == 0 {
            0.0
        } else {
            weighted / total.uops as f64
        };
        total.attribution = None;
        total
    }

    /// Adds `other`'s counters to these. Every field is named, so a new
    /// one does not compile until it says how it sums; the two that are
    /// not counters are left to [`Report::sum`].
    fn absorb(&mut self, other: &Report) {
        let Report {
            cycles,
            uops,
            branches,
            mispredicts,
            per_cluster,
            unbalance_percent: _,
            stalls:
                StallBreakdown {
                    frontend,
                    rename: rename_stalls,
                    window,
                },
            memory,
            rename,
            store_forwards,
            deadlocked,
            deadlock_recoveries,
            per_thread_uops,
            attribution: _,
        } = other;
        self.cycles += cycles;
        self.uops += uops;
        self.branches += branches;
        self.mispredicts += mispredicts;
        for (a, b) in self.per_cluster.iter_mut().zip(per_cluster) {
            *a += b;
        }
        self.stalls.frontend += frontend;
        self.stalls.rename += rename_stalls;
        self.stalls.window += window;
        self.memory.absorb(memory);
        self.rename.absorb(rename);
        self.store_forwards += store_forwards;
        self.deadlocked |= deadlocked;
        self.deadlock_recoveries += deadlock_recoveries;
        for (a, b) in self.per_thread_uops.iter_mut().zip(per_thread_uops) {
            *a += b;
        }
    }

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

    fn report(uops: u64, unbalance_percent: f64, deadlocked: bool) -> Report {
        Report {
            cycles: 100,
            uops,
            branches: 10,
            mispredicts: 1,
            per_cluster: vec![uops / 2, uops / 2],
            unbalance_percent,
            stalls: StallBreakdown {
                frontend: 8,
                rename: 2,
                window: 3,
            },
            memory: HierarchyStats::default(),
            rename: RenameStats::default(),
            store_forwards: 4,
            deadlocked,
            deadlock_recoveries: 1,
            per_thread_uops: vec![uops],
            attribution: Some(CycleAttribution::new(2)),
        }
    }

    #[test]
    fn sum_adds_counters_and_weights_unbalance_by_uops() {
        let total = Report::sum(&[report(300, 10.0, false), report(100, 50.0, true)]);
        assert_eq!(
            (total.cycles, total.uops, total.branches, total.mispredicts),
            (200, 400, 20, 2)
        );
        assert_eq!(total.per_cluster, [200, 200]);
        assert_eq!(
            (
                total.stalls.frontend,
                total.stalls.rename,
                total.stalls.window
            ),
            (16, 4, 6)
        );
        assert_eq!((total.store_forwards, total.deadlock_recoveries), (8, 2));
        assert!(total.deadlocked);
        assert_eq!(total.per_thread_uops, [400]);
        assert_eq!(total.unbalance_percent, 20.0);
        assert!(total.attribution.is_none());
        assert!(Report::sum(&[report(0, 0.0, false)]).attribution.is_none());
    }

    /// (completed groups, unbalanced groups) after recording `clusters`
    /// in order on the paper's 4-cluster tracker.
    fn tally(clusters: impl IntoIterator<Item = usize>) -> (u64, u64) {
        let mut t = UnbalanceTracker::paper(4);
        clusters
            .into_iter()
            .filter_map(|c| t.record(c))
            .fold((0, 0), |(g, u), flagged| (g + 1, u + u64::from(flagged)))
    }

    /// `n` µops on each of the four clusters in turn.
    fn runs(n: [usize; 4]) -> impl Iterator<Item = usize> {
        (0..4).flat_map(move |c| std::iter::repeat_n(c, n[c]))
    }

    #[test]
    fn perfectly_balanced_groups() {
        // strict round-robin: every cluster gets 32 of each 128-group.
        assert_eq!(tally((0..1280).map(|i| i % 4)), (10, 0));
    }

    #[test]
    fn skewed_groups_flagged() {
        // all µops on cluster 0: every group unbalanced.
        assert_eq!(tally(std::iter::repeat_n(0, 256)), (2, 2));
    }

    #[test]
    fn boundary_counts_are_balanced() {
        // 24/40/40/24 = 128: exactly at the bounds -> balanced.
        assert_eq!(tally(runs([24, 40, 40, 24])), (1, 0));
    }

    #[test]
    fn just_outside_bounds_is_unbalanced() {
        // 23/41/40/24 = 128: cluster 0 below 24 -> unbalanced.
        assert_eq!(tally(runs([23, 41, 40, 24])), (1, 1));
    }

    #[test]
    fn incomplete_group_not_counted() {
        assert_eq!(tally(std::iter::repeat_n(0, 100)), (0, 0));
    }
}
