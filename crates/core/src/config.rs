//! Simulator configuration and the paper's named configurations.

use crate::alloc::AllocPolicy;
use crate::cluster::{ClusterId, Resources};
use wsrs_frontend::PredictorKind;
use wsrs_isa::RegClass;
use wsrs_mem::HierarchyConfig;
use wsrs_regfile::{RenameStrategy, RenamerConfig, Subset};

/// How the physical register file is organized.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegFileMode {
    /// Conventional: any unit reads/writes any register (one subset).
    Conventional,
    /// Register Write Specialization only (§2): cluster `Ci` writes subset
    /// `Si`; reads are unrestricted.
    WriteSpecialized,
    /// Write + Read specialization (§3): writes as above, and the executing
    /// cluster is dictated by the operand subsets.
    Wsrs,
}

impl RegFileMode {
    /// Write specialization (§2): the register subset cluster `c` writes —
    /// `S0` on a conventional file, `Sc` otherwise. The one home of the
    /// write rule.
    #[must_use]
    pub fn write_subset(self, c: ClusterId) -> Subset {
        match self {
            RegFileMode::Conventional => Subset(0),
            RegFileMode::WriteSpecialized | RegFileMode::Wsrs => Subset(c.0),
        }
    }

    /// The inverse of [`RegFileMode::write_subset`]: the cluster that holds
    /// subset `s`'s architectural values (`C0` for a conventional file's
    /// single subset).
    #[must_use]
    pub fn home_cluster(self, s: Subset) -> ClusterId {
        match self {
            RegFileMode::Conventional => ClusterId(0),
            RegFileMode::WriteSpecialized | RegFileMode::Wsrs => ClusterId(s.0),
        }
    }
}

/// Fast-forwarding (bypass) reach between clusters (§4.3.1). The paper's
/// performance runs use [`FastForward::IntraCluster`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FastForward {
    /// Same-cycle forwarding inside a cluster only; +1 cycle to any other
    /// cluster (the paper's simulated model, §5.2).
    IntraCluster,
    /// Same-cycle forwarding within a pair of adjacent clusters (same `f`
    /// coordinate); +1 cycle across pairs.
    AdjacentPair,
    /// Complete fast-forwarding: results usable anywhere the next cycle.
    Complete,
}

impl FastForward {
    /// Extra cycles for a value produced on `from` to be consumed on `to`.
    #[must_use]
    pub fn penalty(self, from: u8, to: u8) -> u64 {
        match self {
            FastForward::IntraCluster => u64::from(from != to),
            FastForward::AdjacentPair => u64::from((from >> 1) != (to >> 1)),
            FastForward::Complete => 0,
        }
    }
}

/// Full configuration of the timing simulator.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SimConfig {
    /// Number of execution domains — symmetric clusters, or pools in the
    /// Figure 2b organization (the paper's geometry is 4 either way).
    pub clusters: usize,
    /// Functional-unit complement of each domain. Symmetric machines use
    /// four identical entries; the pooled organization is asymmetric.
    /// Machines with fewer than four domains use a prefix of the array.
    pub resources: [Resources; 4],
    /// In-flight µops per cluster, dispatch to commit (56).
    pub window_per_cluster: usize,
    /// Total in-flight µops (ROB size). The paper's machines hold 224
    /// (4 × 56); the pooled organization keeps the same total while its
    /// per-pool reservation stations are sized by `window_per_cluster`.
    pub rob: usize,
    /// Front-end / commit width in µops per cycle (8).
    pub fetch_width: usize,
    /// Minimum misprediction penalty in cycles (§5.2.1: 17 conventional,
    /// 16 WS, 16/18 WSRS strategy 1/2).
    pub min_mispredict_penalty: u64,
    /// Register-file organization.
    pub mode: RegFileMode,
    /// Cluster allocation policy.
    pub policy: AllocPolicy,
    /// Physical integer registers, split evenly across the register
    /// subsets (the paper's 256/384/512).
    pub int_regs: usize,
    /// Physical floating-point registers, split likewise (see
    /// [`SimConfig::fp_regs_for`]).
    pub fp_regs: usize,
    /// Which §2.2 renaming implementation the rename stage models.
    /// Conventional machines use [`RenameStrategy::ExactCount`], whose
    /// free lists append directly.
    pub strategy: RenameStrategy,
    /// Data-memory hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Bypass reach.
    pub fast_forward: FastForward,
    /// Conditional-branch direction predictor (the paper uses the
    /// EV8-class 512 Kbit 2Bc-gskew).
    pub predictor: PredictorKind,
    /// Seed for the policy RNG (runs are deterministic).
    pub seed: u64,
    /// Enable the §2.3 deadlock workaround (b): when renaming wedges on an
    /// exhausted register subset with an empty window, raise an exception
    /// that remaps architectural registers out of that subset. Off by
    /// default — the paper's configurations are statically deadlock-free.
    pub deadlock_recovery: bool,
    /// Virtual-physical registers (Monreal et al., the paper's §6 \[13\]):
    /// renaming hands out unbounded *virtual* tags and the physical
    /// register is claimed only at issue, so a register is occupied from
    /// issue to superseding-commit instead of from rename. `Some(n)` caps
    /// each subset at `n` physical registers per class; the renamer's own
    /// budgets then size only the (cheap) virtual tag space. Orthogonal to
    /// write specialization, as the paper observes.
    pub vp_phys_per_subset: Option<usize>,
    /// The §2.3 deadlock workaround (a): the allocation policy avoids
    /// clusters whose register subset is exhausted, whenever the µop has
    /// placement freedom. Best-effort — fully constrained dyadic µops
    /// cannot be redirected. WSRS mode only.
    pub avoid_exhaustion: bool,
    /// Hardware threads (SMT). The paper's §2.3 singles out SMT as the
    /// case where register subsets cannot cover all architectural state;
    /// with 2 threads the machine renames 160 logical integer registers.
    /// Threads share the fetch/dispatch bandwidth (round-robin), the ROB,
    /// the clusters and the physical register file; each has its own map
    /// tables, store queue and memory-order stream.
    pub threads: usize,
    /// Register-file cache (Cruz et al., the paper's §6 \[4\]): recently
    /// produced values read at full speed from a small cached level; older
    /// values come from the slow full copy. The alternative route to a
    /// shorter register-read pipeline that the paper compares itself
    /// against.
    pub reg_cache: Option<RegCache>,
    /// Enable full-pipeline cycle attribution (`wsrs-telemetry`): every
    /// commit-width slot of every cycle is charged to one bucket and the
    /// breakdown is attached to the [`crate::Report`]. Off by default —
    /// the hot loop then pays a single branch per cycle.
    pub telemetry: bool,
}

/// Register-file-cache timing parameters (§6 \[4\]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegCache {
    /// Cycles after production during which a value reads at cached speed.
    pub retention_cycles: u64,
    /// Extra read latency for values that have aged out to the full copy.
    pub slow_read_penalty: u32,
}

impl SimConfig {
    /// Floating-point physical registers paired with an integer register
    /// budget: the paper sizes only the integer file (256/384/512); we give
    /// the FP file half that, as FP codes have 32 logical FP registers
    /// against 80 integer ones (documented in `DESIGN.md`).
    #[must_use]
    pub fn fp_regs_for(int_regs: usize) -> usize {
        int_regs / 2
    }

    /// The paper's baseline: conventional 4-cluster, round-robin
    /// allocation, 256 integer registers, 17-cycle minimum misprediction
    /// penalty (`RR 256`).
    #[must_use]
    pub fn conventional_rr(int_regs: usize) -> Self {
        SimConfig {
            clusters: 4,
            window_per_cluster: 56,
            rob: 224,
            fetch_width: 8,
            min_mispredict_penalty: 17,
            mode: RegFileMode::Conventional,
            policy: AllocPolicy::RoundRobin,
            resources: [Resources::ev6_cluster(); 4],
            int_regs,
            fp_regs: Self::fp_regs_for(int_regs),
            strategy: RenameStrategy::ExactCount,
            hierarchy: HierarchyConfig::paper(),
            fast_forward: FastForward::IntraCluster,
            predictor: PredictorKind::TwoBcGskew512K,
            seed: 0x5eed,
            deadlock_recovery: false,
            threads: 1,
            vp_phys_per_subset: None,
            avoid_exhaustion: false,
            reg_cache: None,
            telemetry: false,
        }
    }

    /// A conventional machine with a register-file cache (§6 \[4\]): one
    /// register-read stage saved (16-cycle penalty, like WS), paid for by
    /// slow reads of values older than the cache's retention window.
    #[must_use]
    pub fn conventional_reg_cache(int_regs: usize, cache: RegCache) -> Self {
        SimConfig {
            min_mispredict_penalty: 16,
            reg_cache: Some(cache),
            ..Self::conventional_rr(int_regs)
        }
    }

    /// The monolithic 8-way machine of Figure 1a (`noWS-M`): one domain
    /// holding every functional unit, complete bypass, single register
    /// subset. Baseline for the pooled organization.
    #[must_use]
    pub fn monolithic(int_regs: usize) -> Self {
        SimConfig {
            clusters: 1,
            window_per_cluster: 224,
            resources: [Resources::monolithic_8way(); 4],
            fast_forward: FastForward::Complete,
            ..Self::conventional_rr(int_regs)
        }
    }

    /// Register write specialization over **pools of functional units**
    /// (Figure 2b): load/store units, simple ALUs, FP/complex units and
    /// branch units each form a pool writing its own register subset.
    /// Pool selection is a pure function of the opcode, known at decode
    /// (predecoded in the instruction cache, §2.4), so the renaming
    /// pipeline is not lengthened and the one-cycle register-read saving
    /// applies as for clustered WS.
    #[must_use]
    pub fn pooled_write_specialized(int_regs: usize, strategy: RenameStrategy) -> Self {
        let none = Resources {
            issue_width: 0,
            alus: 0,
            ldsts: 0,
            fps: 0,
            muldivs: 0,
            fpdivs: 0,
        };
        SimConfig {
            clusters: 4,
            // Per-pool reservation stations sized so the shared 224-entry
            // ROB is the binding window, as on the monolithic baseline.
            window_per_cluster: 224,
            min_mispredict_penalty: 16,
            mode: RegFileMode::WriteSpecialized,
            policy: AllocPolicy::ByKind,
            resources: [
                // S0: load/store pool
                Resources {
                    issue_width: 4,
                    ldsts: 4,
                    ..none
                },
                // S1: simple-ALU pool
                Resources {
                    issue_width: 8,
                    alus: 8,
                    ..none
                },
                // S2: FP + complex-integer pool
                Resources {
                    issue_width: 4,
                    fps: 4,
                    alus: 4, // ALUs hosting the mul/div structures
                    muldivs: 4,
                    fpdivs: 4,
                    ..none
                },
                // S3: branch pool
                Resources {
                    issue_width: 2,
                    alus: 2,
                    ..none
                },
            ],
            strategy,
            // Pools live in one spatial domain: complete forwarding, like
            // the monolithic baseline they are compared against.
            fast_forward: FastForward::Complete,
            ..Self::conventional_rr(int_regs)
        }
    }

    /// Register write specialization only, round-robin allocation
    /// (`WSRR 384` / `WSRR 512`). One cycle saved on the register-read
    /// pipeline → 16-cycle minimum penalty (§5.2.1); no extra rename stages
    /// for a static policy (§2.4).
    #[must_use]
    pub fn write_specialized_rr(int_regs: usize, strategy: RenameStrategy) -> Self {
        SimConfig {
            min_mispredict_penalty: 16,
            mode: RegFileMode::WriteSpecialized,
            policy: AllocPolicy::RoundRobin,
            strategy,
            ..Self::conventional_rr(int_regs)
        }
    }

    /// Full WSRS (`WSRS RM/RC S 384/512`). The minimum misprediction
    /// penalty accounts for the renaming-strategy pipeline: two cycles
    /// saved on register read, plus 1 (strategy 1) or 3 (strategy 2) extra
    /// front-end stages → 16 or 18 cycles (§5.2.1).
    #[must_use]
    pub fn wsrs(int_regs: usize, policy: AllocPolicy, strategy: RenameStrategy) -> Self {
        let penalty = match strategy {
            RenameStrategy::Recycling => 16,
            RenameStrategy::ExactCount => 18,
        };
        SimConfig {
            min_mispredict_penalty: penalty,
            mode: RegFileMode::Wsrs,
            policy,
            strategy,
            ..Self::conventional_rr(int_regs)
        }
    }

    /// The rename stage's configuration, derived from the organization:
    /// one register subset per cluster under write specialization (§2:
    /// cluster `Ci` writes subset `Si`), one for a conventional file; one
    /// map table per hardware thread; the recycling depth follows
    /// [`Self::strategy`].
    #[must_use]
    pub fn renamer(&self) -> RenamerConfig {
        RenamerConfig {
            subsets: match self.mode {
                RegFileMode::Conventional => 1,
                RegFileMode::WriteSpecialized | RegFileMode::Wsrs => self.clusters,
            },
            int_regs: self.int_regs,
            fp_regs: self.fp_regs,
            strategy: self.strategy,
            threads: self.threads,
        }
    }

    /// Ring size (in cycles) for the event scheduler's calendar wheel: the
    /// worst deterministically-bounded operand delay this configuration can
    /// book — a load missing both cache levels on top of the L1 hit
    /// pipeline and a port-contention slip (or the longest functional-unit
    /// latency, whichever is larger), plus the register-cache slow-read
    /// penalty, the inter-cluster forwarding bubble and the one-cycle
    /// writeback→use gap — rounded up to a power of two for mask indexing.
    /// L2 bus queuing under a miss burst is unbounded, and stress
    /// configurations may inflate penalties past the 1024-bucket cap;
    /// those rare bookings take the wheel's overflow path.
    #[must_use]
    pub fn scheduler_horizon(&self) -> usize {
        use wsrs_isa::latency;
        let miss_path = self.hierarchy.l1.hit_latency
            + 1 // port-contention slip
            + self.hierarchy.l1_miss_penalty
            + self.hierarchy.l2_miss_penalty;
        let unit = latency::MULDIV_LATENCY.max(latency::FP_DIV_SQRT_LATENCY);
        let slow_read = self.reg_cache.map_or(0, |rc| rc.slow_read_penalty);
        let worst = miss_path.max(unit) + slow_read + 2;
        (worst as usize).next_power_of_two().clamp(64, 1024)
    }

    /// Canonical content hash of this configuration: a stable
    /// field-order FNV-1a digest covering **every field** (two
    /// configurations compare equal iff their hashes match, up to FNV
    /// collisions). The field order and encoding are explicit and
    /// versioned (`wsrs-simconfig-v2`), so the digest is the one
    /// configuration fingerprint: run manifests record it per cell, and
    /// `wsrs-serve` keys its memoized cell results on (this hash, trace
    /// checksum, [`crate::sim_revision`]).
    ///
    /// Adding a field to [`SimConfig`] must extend this digest; the
    /// `content_hash_covers_every_field` test enumerates one mutation per
    /// field and fails when a new field is left out of the hash.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut h = wsrs_isa::Fnv1a::new();
        h.write(b"wsrs-simconfig-v2;");
        h.write_u64(self.clusters as u64);
        for r in &self.resources {
            h.write_u64(u64::from(r.issue_width));
            h.write_u64(u64::from(r.alus));
            h.write_u64(u64::from(r.ldsts));
            h.write_u64(u64::from(r.fps));
            h.write_u64(u64::from(r.muldivs));
            h.write_u64(u64::from(r.fpdivs));
        }
        h.write_u64(self.window_per_cluster as u64);
        h.write_u64(self.rob as u64);
        h.write_u64(self.fetch_width as u64);
        h.write_u64(self.min_mispredict_penalty);
        h.write_u8(match self.mode {
            RegFileMode::Conventional => 0,
            RegFileMode::WriteSpecialized => 1,
            RegFileMode::Wsrs => 2,
        });
        h.write_u8(match self.policy {
            AllocPolicy::RoundRobin => 0,
            AllocPolicy::RandomMonadic => 1,
            AllocPolicy::RandomCommutative => 2,
            AllocPolicy::LoadBalance => 3,
            AllocPolicy::ByKind => 4,
        });
        h.write_u64(self.int_regs as u64);
        h.write_u64(self.fp_regs as u64);
        h.write_u8(match self.strategy {
            RenameStrategy::Recycling => 0,
            RenameStrategy::ExactCount => 1,
        });
        for c in [self.hierarchy.l1, self.hierarchy.l2] {
            h.write_u64(c.size_bytes as u64);
            h.write_u64(c.line_bytes as u64);
            h.write_u64(c.associativity as u64);
            h.write_u64(u64::from(c.hit_latency));
        }
        h.write_u64(u64::from(self.hierarchy.l1_miss_penalty));
        h.write_u64(u64::from(self.hierarchy.l2_miss_penalty));
        h.write_u64(u64::from(self.hierarchy.l1_ports_per_cycle));
        h.write_u64(u64::from(self.hierarchy.l2_bytes_per_cycle));
        h.write_u8(match self.fast_forward {
            FastForward::IntraCluster => 0,
            FastForward::AdjacentPair => 1,
            FastForward::Complete => 2,
        });
        h.write_u8(match self.predictor {
            wsrs_frontend::PredictorKind::TwoBcGskew512K => 0,
            wsrs_frontend::PredictorKind::Gshare64K => 1,
            wsrs_frontend::PredictorKind::Bimodal64K => 2,
            wsrs_frontend::PredictorKind::AlwaysTaken => 3,
            wsrs_frontend::PredictorKind::Perfect => 4,
        });
        h.write_u64(self.seed);
        h.write_u8(u8::from(self.deadlock_recovery));
        // Options hash a presence byte so `None` can never alias a value.
        h.write_u8(u8::from(self.vp_phys_per_subset.is_some()));
        h.write_u64(self.vp_phys_per_subset.unwrap_or(0) as u64);
        h.write_u8(u8::from(self.avoid_exhaustion));
        h.write_u64(self.threads as u64);
        h.write_u8(u8::from(self.reg_cache.is_some()));
        let rc = self.reg_cache.unwrap_or(RegCache {
            retention_cycles: 0,
            slow_read_penalty: 0,
        });
        h.write_u64(rc.retention_cycles);
        h.write_u64(u64::from(rc.slow_read_penalty));
        h.write_u8(u8::from(self.telemetry));
        h.finish()
    }

    /// Enables virtual-physical registers with `per_subset` physical
    /// registers per class and subset. The renamer's budgets are switched
    /// to a large virtual tag space (4096 tags per subset per class).
    pub fn set_virtual_physical(&mut self, per_subset: usize) {
        self.vp_phys_per_subset = Some(per_subset);
        let subsets = self.renamer().subsets;
        self.int_regs = 4096 * subsets;
        self.fp_regs = 4096 * subsets;
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate.
    pub fn validate(&self) {
        assert!(self.clusters.is_power_of_two() && self.clusters >= 1);
        assert!(self.fetch_width >= 1);
        assert!(self.rob >= self.fetch_width);
        assert!(self.threads >= 1);
        if let Some(cap) = self.vp_phys_per_subset {
            // Each subset must hold every thread's share of architectural
            // state plus the one register reserved for the oldest waiting
            // µop.
            let share = RegClass::Int
                .logical_count()
                .div_ceil(self.renamer().subsets);
            assert!(
                cap > self.threads * share,
                "virtual-physical capacity too small for architectural state"
            );
        }
        assert!(self.rob <= self.clusters * self.window_per_cluster);
        assert!(self.resources[..self.clusters.min(4)]
            .iter()
            .all(|r| r.issue_width >= 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "virtual-physical capacity too small")]
    fn validate_sizes_vp_capacity_for_every_thread() {
        let mut cfg = SimConfig::wsrs(
            512,
            AllocPolicy::RandomCommutative,
            RenameStrategy::ExactCount,
        );
        cfg.threads = 2;
        cfg.set_virtual_physical(41);
        cfg.validate();
        // Two threads' architectural state takes 40 per subset.
        cfg.set_virtual_physical(40);
        cfg.validate();
    }

    #[test]
    #[should_panic]
    fn validate_rejects_inconsistent_window() {
        let mut cfg = SimConfig::conventional_rr(256);
        cfg.window_per_cluster = 10;
        cfg.rob = 200;
        cfg.validate();
    }

    #[test]
    fn write_rule_and_its_inverse() {
        // Figure 3: C3 = (f=1, s=1) writes S3 under write specialization.
        for mode in [RegFileMode::WriteSpecialized, RegFileMode::Wsrs] {
            assert_eq!(mode.write_subset(ClusterId(3)), Subset::from_bits(1, 1));
            for c in 0..4 {
                assert_eq!(
                    mode.home_cluster(mode.write_subset(ClusterId(c))),
                    ClusterId(c)
                );
            }
        }
        let conv = RegFileMode::Conventional;
        assert_eq!(conv.write_subset(ClusterId(2)), Subset(0));
        assert_eq!(conv.home_cluster(Subset(0)), ClusterId(0));
    }

    #[test]
    fn paper_penalties() {
        assert_eq!(SimConfig::conventional_rr(256).min_mispredict_penalty, 17);
        assert_eq!(
            SimConfig::write_specialized_rr(384, RenameStrategy::ExactCount).min_mispredict_penalty,
            16
        );
        assert_eq!(
            SimConfig::wsrs(
                512,
                AllocPolicy::RandomCommutative,
                RenameStrategy::Recycling
            )
            .min_mispredict_penalty,
            16
        );
        assert_eq!(
            SimConfig::wsrs(
                512,
                AllocPolicy::RandomCommutative,
                RenameStrategy::ExactCount
            )
            .min_mispredict_penalty,
            18
        );
    }

    #[test]
    fn geometry_matches_paper() {
        let c = SimConfig::conventional_rr(256);
        assert_eq!(
            c.renamer(),
            RenamerConfig {
                subsets: 1,
                int_regs: 256,
                fp_regs: 128,
                strategy: RenameStrategy::ExactCount,
                threads: 1,
            }
        );
        c.validate();
        SimConfig::wsrs(384, AllocPolicy::RandomMonadic, RenameStrategy::ExactCount).validate();
    }

    #[test]
    fn renamer_geometry_follows_the_organization() {
        let subsets = |c: SimConfig| c.renamer().subsets;
        assert_eq!(subsets(SimConfig::conventional_rr(256)), 1);
        assert_eq!(subsets(SimConfig::monolithic(256)), 1);
        let strategy = RenameStrategy::Recycling;
        assert_eq!(subsets(SimConfig::write_specialized_rr(384, strategy)), 4);
        assert_eq!(
            subsets(SimConfig::pooled_write_specialized(512, strategy)),
            4
        );
        let mut wsrs = SimConfig::wsrs(512, AllocPolicy::RandomCommutative, strategy);
        assert_eq!(
            wsrs.renamer(),
            RenamerConfig {
                subsets: 4,
                int_regs: 512,
                fp_regs: 256,
                strategy,
                threads: 1,
            }
        );
        assert_eq!(
            wsrs.renamer().recycle_delay(),
            wsrs_regfile::renamer::RECYCLE_DELAY
        );
        wsrs.threads = 2;
        wsrs.strategy = RenameStrategy::ExactCount;
        assert_eq!(wsrs.renamer().threads, 2);
        assert_eq!(wsrs.renamer().recycle_delay(), 0);
        wsrs.validate();
    }

    #[test]
    fn monolithic_and_pooled_presets_validate() {
        let m = SimConfig::monolithic(256);
        m.validate();
        assert_eq!(m.clusters, 1);
        assert_eq!(m.resources[0].issue_width, 8);

        let p = SimConfig::pooled_write_specialized(512, RenameStrategy::ExactCount);
        p.validate();
        assert_eq!(p.clusters, 4);
        // Total functional units match the 4-cluster machine.
        let total_alus: u32 = p.resources.iter().map(|r| r.alus).sum();
        let total_ldst: u32 = p.resources.iter().map(|r| r.ldsts).sum();
        let total_fp: u32 = p.resources.iter().map(|r| r.fps).sum();
        assert!(total_alus >= 8);
        assert_eq!(total_ldst, 4);
        assert_eq!(total_fp, 4);
        assert_eq!(p.min_mispredict_penalty, 16, "WS saves one read stage");
    }

    #[test]
    fn fast_forward_penalties() {
        let ff = FastForward::IntraCluster;
        assert_eq!(ff.penalty(0, 0), 0);
        assert_eq!(ff.penalty(0, 3), 1);
        let pair = FastForward::AdjacentPair;
        assert_eq!(pair.penalty(0, 1), 0, "C0,C1 share f=0");
        assert_eq!(pair.penalty(0, 2), 1);
        assert_eq!(FastForward::Complete.penalty(0, 3), 0);
    }

    /// One mutation per [`SimConfig`] field (including every nested
    /// field), asserting each changes the content hash. A new field left
    /// out of [`SimConfig::content_hash`] shows up here as soon as a
    /// mutator for it is added — and the struct-literal exhaustiveness of
    /// `field_mutations` forces that addition at compile time for flat
    /// fields.
    fn field_mutations() -> Vec<(&'static str, SimConfig)> {
        use wsrs_frontend::PredictorKind;
        let b = SimConfig::conventional_rr(256);
        let mut out: Vec<(&'static str, SimConfig)> = Vec::new();
        let mut push = |name, f: &dyn Fn(&mut SimConfig)| {
            let mut c = b;
            f(&mut c);
            out.push((name, c));
        };
        push("clusters", &|c| c.clusters += 1);
        push("resources.issue_width", &|c| {
            c.resources[1].issue_width += 1;
        });
        push("resources.alus", &|c| c.resources[2].alus += 1);
        push("resources.ldsts", &|c| c.resources[0].ldsts += 1);
        push("resources.fps", &|c| c.resources[3].fps += 1);
        push("resources.muldivs", &|c| c.resources[0].muldivs += 1);
        push("resources.fpdivs", &|c| c.resources[0].fpdivs += 1);
        push("window_per_cluster", &|c| c.window_per_cluster += 1);
        push("rob", &|c| c.rob += 1);
        push("fetch_width", &|c| c.fetch_width += 1);
        push("min_mispredict_penalty", &|c| {
            c.min_mispredict_penalty += 1;
        });
        push("mode", &|c| c.mode = RegFileMode::WriteSpecialized);
        push("policy", &|c| c.policy = AllocPolicy::LoadBalance);
        push("int_regs", &|c| c.int_regs += 1);
        push("fp_regs", &|c| c.fp_regs += 1);
        push("strategy", &|c| c.strategy = RenameStrategy::Recycling);
        push("hierarchy.l1.size_bytes", &|c| {
            c.hierarchy.l1.size_bytes *= 2;
        });
        push("hierarchy.l1.line_bytes", &|c| {
            c.hierarchy.l1.line_bytes *= 2;
        });
        push("hierarchy.l1.associativity", &|c| {
            c.hierarchy.l1.associativity += 1;
        });
        push("hierarchy.l1.hit_latency", &|c| {
            c.hierarchy.l1.hit_latency += 1;
        });
        push("hierarchy.l2.size_bytes", &|c| {
            c.hierarchy.l2.size_bytes *= 2;
        });
        push("hierarchy.l1_miss_penalty", &|c| {
            c.hierarchy.l1_miss_penalty += 1;
        });
        push("hierarchy.l2_miss_penalty", &|c| {
            c.hierarchy.l2_miss_penalty += 1;
        });
        push("hierarchy.l1_ports_per_cycle", &|c| {
            c.hierarchy.l1_ports_per_cycle += 1;
        });
        push("hierarchy.l2_bytes_per_cycle", &|c| {
            c.hierarchy.l2_bytes_per_cycle += 1;
        });
        push("fast_forward", &|c| {
            c.fast_forward = FastForward::Complete;
        });
        push("predictor", &|c| c.predictor = PredictorKind::Gshare64K);
        push("seed", &|c| c.seed ^= 1);
        push("deadlock_recovery", &|c| c.deadlock_recovery = true);
        push("vp_phys_per_subset", &|c| {
            c.vp_phys_per_subset = Some(96);
        });
        push("avoid_exhaustion", &|c| c.avoid_exhaustion = true);
        push("threads", &|c| c.threads += 1);
        push("reg_cache", &|c| {
            c.reg_cache = Some(RegCache {
                retention_cycles: 4,
                slow_read_penalty: 1,
            });
        });
        push("reg_cache.retention_cycles", &|c| {
            c.reg_cache = Some(RegCache {
                retention_cycles: 5,
                slow_read_penalty: 1,
            });
        });
        push("telemetry", &|c| c.telemetry = true);
        out
    }

    #[test]
    fn content_hash_covers_every_field() {
        let base = SimConfig::conventional_rr(256);
        assert_eq!(base.content_hash(), base.content_hash(), "stable");
        let muts = field_mutations();
        for (name, m) in &muts {
            assert_ne!(*m, base, "{name}: mutation must change the config");
            assert_ne!(
                m.content_hash(),
                base.content_hash(),
                "{name}: field is not covered by content_hash"
            );
        }
        // Distinct mutations must not collide with each other either.
        for (i, (na, a)) in muts.iter().enumerate() {
            for (nb, b) in &muts[i + 1..] {
                assert_ne!(
                    a.content_hash(),
                    b.content_hash(),
                    "collision between {na} and {nb}"
                );
            }
        }
    }

    #[test]
    fn content_hash_none_does_not_alias_zero_value() {
        let base = SimConfig::conventional_rr(256);
        let mut zeroed = base;
        zeroed.reg_cache = Some(RegCache {
            retention_cycles: 0,
            slow_read_penalty: 0,
        });
        assert_ne!(base.content_hash(), zeroed.content_hash());
    }
}
