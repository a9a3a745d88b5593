//! Shipped profiles: the committed kernel calibration anchors, two
//! adversarial presets, and the standard seeded scenario family the
//! `workgen` grid binary sweeps.
//!
//! # Anchors
//!
//! The 12 kernel profiles extracted at the fixed anchor window
//! ([`ANCHOR_WARMUP`], [`ANCHOR_WINDOW`]) are committed as
//! canonical JSON under `crates/workgen/anchors/` and embedded here. They
//! serve two purposes: calibration data (the
//! `anchors_match_live_extraction` test pins profile extraction — any
//! change to the emulator, the kernels or the measurement definitions
//! shows up as an anchor diff, deliberate or not) and seed material for
//! the standard scenario family.
//!
//! Regenerate after a deliberate change with
//! `cargo test -p wsrs-workgen --lib regenerate_anchors -- --ignored`.
//!
//! # Adversarial presets
//!
//! The two presets place workloads where no SPEC-derived kernel sits, at
//! corners chosen to stress the paper's two specialization axes:
//!
//! - [`adversarial_readspec`] — an all-dyadic, zero-commutative mix with
//!   bimodal register reuse. Under WSRS the two ordered source operands
//!   pin the executing cluster completely (first operand's subset → `f`,
//!   second's → `s`), and here a third of all values are read six-plus
//!   times while the other two thirds are never read at all: every
//!   consumer of a hot value inherits its home subset's coordinates, so
//!   the abundant independent work — which the conventional machine
//!   spreads round-robin across all four clusters — collapses onto the
//!   hot subsets' clusters. Operand steering gets no freedom from
//!   commutativity (zero commutative ops) and none from arity (zero
//!   monadic/noadic ops).
//! - [`adversarial_writespec`] — pathologically imbalanced subset
//!   pressure: 40 % of the µops are loads, so nearly half of all register
//!   *writes* are load results whose subset is dictated by the (heavily
//!   reused) address registers' home subsets. The write stream funnels
//!   into a couple of subsets — exhausting their registers and
//!   serializing on their clusters' single load/store ports — while the
//!   cold clusters' write capacity idles, the worst case for write
//!   specialization's per-subset budget. The footprint is small enough to
//!   stay cache-resident, so the conventional baseline has the memory
//!   parallelism WSRS then gives up.

use crate::profile::{WorkloadProfile, ANCHOR_WARMUP, ANCHOR_WINDOW};
use crate::synth::gen_name;
use wsrs_workloads::stats::{DEP_DIST_BUCKETS, REG_REUSE_BUCKETS};
use wsrs_workloads::Workload;

/// The committed anchor JSON for a named kernel (compile-time embedded).
#[must_use]
pub fn anchor_json(w: Workload) -> &'static str {
    match w.name() {
        "gzip" => include_str!("../anchors/gzip.json"),
        "vpr" => include_str!("../anchors/vpr.json"),
        "gcc" => include_str!("../anchors/gcc.json"),
        "mcf" => include_str!("../anchors/mcf.json"),
        "crafty" => include_str!("../anchors/crafty.json"),
        "wupwise" => include_str!("../anchors/wupwise.json"),
        "swim" => include_str!("../anchors/swim.json"),
        "mgrid" => include_str!("../anchors/mgrid.json"),
        "applu" => include_str!("../anchors/applu.json"),
        "galgel" => include_str!("../anchors/galgel.json"),
        "equake" => include_str!("../anchors/equake.json"),
        "facerec" => include_str!("../anchors/facerec.json"),
        other => panic!("no committed anchor for workload {other}"),
    }
}

/// The committed anchor profile for a named kernel.
///
/// # Panics
///
/// Panics if the committed JSON is malformed (a build problem, not an
/// input problem).
#[must_use]
pub fn anchor(w: Workload) -> WorkloadProfile {
    WorkloadProfile::parse(anchor_json(w))
        .unwrap_or_else(|| panic!("malformed committed anchor for {}", w.name()))
}

/// Adversarial preset stressing **read specialization**: all-dyadic,
/// zero-commutative, with bimodal register reuse — hot values read from
/// everywhere pin both cluster coordinates of their readers (see module
/// docs).
#[must_use]
pub fn adversarial_readspec() -> WorkloadProfile {
    WorkloadProfile {
        window: ANCHOR_WINDOW,
        warmup: ANCHOR_WARMUP,
        monadic_pp: 0,
        dyadic_pp: 10_000,
        commutative_pp: 0,
        branch_pp: 0,
        load_pp: 0,
        store_pp: 0,
        fp_pp: 0,
        // Reads are spread far from their writes: the work hanging off
        // each hot value is mutually independent, so the conventional
        // machine runs it wide — exactly the parallelism the pinned
        // placement then forfeits.
        dep_dist_pp: [500, 500, 500, 1_000, 1_500, 2_000, 2_000, 2_000],
        // Bimodal: two thirds of values dead, one third read 6+ times.
        // All-dyadic supplies two reads per write and 0.34·6 ≈ 2 demands
        // them all, so the histogram is satisfiable exactly.
        reg_reuse_pp: [6_600, 0, 0, 0, 3_400],
        branch_entropy_milli: 0,
        footprint_log2: 9,
        seq_mem_pp: 0,
    }
    .sanitized()
}

/// Adversarial preset stressing **write specialization**: 40 % loads over
/// a cache-resident footprint, every one a register write whose subset is
/// dictated by a heavily-reused address register — the write stream
/// funnels into few subsets while the cold clusters idle (see module
/// docs).
#[must_use]
pub fn adversarial_writespec() -> WorkloadProfile {
    WorkloadProfile {
        window: ANCHOR_WINDOW,
        warmup: ANCHOR_WARMUP,
        // Loads are monadic µops and each probe batch adds a few monadic
        // address helpers, so the arity split reflects the 40% load rate;
        // the small commutative share is the address-generator xorshift's
        // structural `xor`s — everything else is ordered.
        monadic_pp: 5_500,
        dyadic_pp: 4_500,
        commutative_pp: 1_300,
        branch_pp: 0,
        load_pp: 4_000,
        store_pp: 0,
        fp_pp: 0,
        dep_dist_pp: [4_000, 2_500, 1_500, 1_000, 500, 500, 0, 0],
        // Supply: loads read one register (the address), dyadic compute
        // two — 0.4·1 + 0.6·2 = 1.6 reads per write, matching the
        // histogram mean 0.44·1 + 0.3·2 + 0.14·4 = 1.6.
        reg_reuse_pp: [1_200, 4_400, 3_000, 1_400, 0],
        branch_entropy_milli: 0,
        // 4 KiB of lines: resident in any cache level, so the baseline
        // keeps its memory parallelism and the delta is pure steering.
        footprint_log2: 12,
        seq_mem_pp: 0,
    }
    .sanitized()
}

/// One entry of the standard sweep: a named `(profile, seed)` pair.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable scenario label (stable across runs).
    pub label: String,
    /// The canonical workload name, `gen:<profile-hash>:<seed>`.
    pub workload_name: String,
    /// The target profile.
    pub profile: WorkloadProfile,
    /// The synthesis seed.
    pub seed: u64,
}

impl Scenario {
    fn new(label: &str, profile: WorkloadProfile, seed: u64) -> Self {
        Scenario {
            label: label.to_string(),
            workload_name: gen_name(&profile, seed),
            profile,
            seed,
        }
    }
}

/// Linear interpolation between two profiles: `num/den` of the way from
/// `a` to `b`, field-wise on the quantized integers, then sanitized (which
/// renormalizes the interpolated histograms). Deterministic integer
/// arithmetic — no floats, no rounding-mode surprises.
#[must_use]
pub fn blend(a: &WorkloadProfile, b: &WorkloadProfile, num: u16, den: u16) -> WorkloadProfile {
    assert!(den > 0 && num <= den, "blend fraction must be in [0, 1]");
    let l16 = |x: u16, y: u16| -> u16 {
        let (x, y, n, d) = (u32::from(x), u32::from(y), u32::from(num), u32::from(den));
        ((x * (d - n) + y * n) / d) as u16
    };
    let mut dep = [0u16; DEP_DIST_BUCKETS];
    for (i, slot) in dep.iter_mut().enumerate() {
        *slot = l16(a.dep_dist_pp[i], b.dep_dist_pp[i]);
    }
    let mut reuse = [0u16; REG_REUSE_BUCKETS];
    for (i, slot) in reuse.iter_mut().enumerate() {
        *slot = l16(a.reg_reuse_pp[i], b.reg_reuse_pp[i]);
    }
    WorkloadProfile {
        window: a.window,
        warmup: a.warmup,
        monadic_pp: l16(a.monadic_pp, b.monadic_pp),
        dyadic_pp: l16(a.dyadic_pp, b.dyadic_pp),
        commutative_pp: l16(a.commutative_pp, b.commutative_pp),
        branch_pp: l16(a.branch_pp, b.branch_pp),
        load_pp: l16(a.load_pp, b.load_pp),
        store_pp: l16(a.store_pp, b.store_pp),
        fp_pp: l16(a.fp_pp, b.fp_pp),
        dep_dist_pp: dep,
        reg_reuse_pp: reuse,
        branch_entropy_milli: l16(a.branch_entropy_milli, b.branch_entropy_milli),
        footprint_log2: (u16::from(a.footprint_log2) * (den - num)
            + u16::from(b.footprint_log2) * num)
            .div_euclid(den) as u8,
        seq_mem_pp: l16(a.seq_mem_pp, b.seq_mem_pp),
    }
    .sanitized()
}

/// The standard seeded scenario family the `workgen` grid sweeps: six
/// kernel anchors × two seeds, two kernel-to-kernel interpolations × two
/// seeds, and the two adversarial presets — 18 scenarios. Fully
/// deterministic: fixed anchors, fixed blends, fixed seeds.
#[must_use]
pub fn standard_family() -> Vec<Scenario> {
    let mut out = Vec::new();
    // Anchor replicas: two seeds per profile show seed-to-seed IPC spread
    // at a fixed point in profile space.
    for w in [
        Workload::Gzip,
        Workload::Vpr,
        Workload::Mcf,
        Workload::Crafty,
        Workload::Swim,
        Workload::Equake,
    ] {
        let p = anchor(w).sanitized();
        for seed in [1, 2] {
            out.push(Scenario::new(&format!("{}~s{seed}", w.name()), p, seed));
        }
    }
    // Interpolations: points between kernels no SPEC workload occupies.
    let int_mid = blend(&anchor(Workload::Gzip), &anchor(Workload::Mcf), 1, 2);
    let fp_mid = blend(&anchor(Workload::Swim), &anchor(Workload::Crafty), 1, 2);
    for seed in [1, 2] {
        out.push(Scenario::new(&format!("gzip+mcf~s{seed}"), int_mid, seed));
        out.push(Scenario::new(&format!("swim+crafty~s{seed}"), fp_mid, seed));
    }
    // Adversarial corners.
    out.push(Scenario::new("adv_readspec", adversarial_readspec(), 1));
    out.push(Scenario::new("adv_writespec", adversarial_writespec(), 1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Regenerates the committed anchor files in-place. Run explicitly
    /// after a deliberate emulator/kernel/measurement change:
    /// `cargo test -p wsrs-workgen --lib regenerate_anchors -- --ignored`
    #[test]
    #[ignore = "writes crates/workgen/anchors/*.json from live extraction"]
    fn regenerate_anchors() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("anchors");
        for w in Workload::all() {
            let p = WorkloadProfile::extract_kernel(w);
            let path = dir.join(format!("{}.json", w.name()));
            std::fs::write(&path, p.to_json_string()).unwrap();
            eprintln!("wrote {}", path.display());
        }
    }

    #[test]
    fn anchors_match_live_extraction() {
        for w in Workload::all() {
            let committed = anchor(w);
            let live = WorkloadProfile::extract_kernel(w);
            assert_eq!(
                committed,
                live,
                "{}: committed anchor diverges from live extraction — if the \
                 kernel/emulator change was deliberate, regenerate with \
                 `cargo test -p wsrs-workgen --lib regenerate_anchors -- --ignored`",
                w.name()
            );
        }
    }

    #[test]
    fn adversarial_presets_are_well_formed_and_distinct() {
        let r = adversarial_readspec();
        let w = adversarial_writespec();
        assert_eq!(r, r.sanitized());
        assert_eq!(w, w.sanitized());
        assert_ne!(r.content_hash(), w.content_hash());
        // Read-spec stressor: every µop dyadic with ordered operands,
        // and reuse bimodal (dead values vs 6+-read hot values).
        assert_eq!(r.dyadic_pp, 10_000);
        assert_eq!(r.commutative_pp, 0);
        assert!(r.reg_reuse_pp[0] > 6_000 && r.reg_reuse_pp[REG_REUSE_BUCKETS - 1] > 3_000);
        // Write-spec stressor: a 40% load stream funneling register
        // writes into address-pinned subsets, near-zero commutativity.
        assert_eq!(w.load_pp, 4_000);
        assert!(w.commutative_pp <= 1_500);
    }

    #[test]
    fn standard_family_is_large_distinct_and_stable() {
        let fam = standard_family();
        assert!(fam.len() >= 16, "{}", fam.len());
        let names: HashSet<&str> = fam.iter().map(|s| s.workload_name.as_str()).collect();
        assert_eq!(names.len(), fam.len(), "scenario names must be distinct");
        // Deterministic across calls.
        let again = standard_family();
        for (a, b) in fam.iter().zip(&again) {
            assert_eq!(a.workload_name, b.workload_name);
            assert_eq!(a.label, b.label);
        }
    }

    #[test]
    fn blend_endpoints_recover_inputs() {
        let a = anchor(Workload::Gzip).sanitized();
        let b = anchor(Workload::Mcf).sanitized();
        assert_eq!(blend(&a, &b, 0, 1), a);
        assert_eq!(blend(&a, &b, 1, 1), b);
        let mid = blend(&a, &b, 1, 2);
        assert!(mid.branch_pp.abs_diff(a.branch_pp) <= a.branch_pp.abs_diff(b.branch_pp));
    }
}
