//! Full-pipeline cycle attribution.
//!
//! Top-down cycle accounting in the retirement-centric style: each cycle
//! the machine has `width` commit slots; `c` of them retire µops and are
//! charged to [`SlotBucket::Committed`], and the remaining `width − c`
//! slots are charged — all together — to exactly one stall bucket chosen
//! by inspecting the head of the ROB (or the dispatch stage when the
//! window is empty). Because every cycle distributes exactly `width`
//! slots, the conservation invariant
//!
//! ```text
//! sum(buckets) == cycles × width
//! ```
//!
//! holds *by construction*; [`CycleAttribution::charge_cycle`] debug-asserts
//! it incrementally and [`CycleAttribution::conserved`] re-checks it in
//! release builds (the workspace proptests call it on random programs).
//!
//! The engine decides the bucket; this module only does the bookkeeping,
//! so the charging policy stays reviewable in one place
//! (`wsrs-core::sim`).

use crate::json::Json;
use crate::registry::StatDef;

/// Where a commit slot's cycle went. One bucket per slot per cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum SlotBucket {
    /// The slot retired a µop — useful work.
    Committed,
    /// Fetch redirect shadow: a mispredicted branch (or other redirect)
    /// has flushed the frontend and the window drained behind it.
    Redirect,
    /// The window is filling: fetch is delivering but the oldest µop is
    /// too young to have had an issue opportunity yet.
    Fill,
    /// Nothing in flight and nothing arriving — the trace ran dry or the
    /// frontend delivered no µops for reasons other than a redirect.
    EmptyWindow,
    /// Dispatch blocked on register allocation: the target subset (or
    /// free list) had no register of the required class.
    RenameStall,
    /// Dispatch blocked on window capacity: ROB or per-cluster issue
    /// window full.
    WindowStall,
    /// The oldest unissued µop had ready operands but no issue slot —
    /// functional-unit / issue-bandwidth contention.
    FuContention,
    /// The oldest µop is (or waits on) a load outstanding in the memory
    /// hierarchy — memory-bound cycles.
    Memory,
    /// The oldest µop waits on an in-flight ALU/branch producer —
    /// execution-latency serialization.
    ExecLatency,
    /// The oldest µop's operands are ready on another cluster but still
    /// in transit — the paper's inter-cluster forwarding bubble.
    ForwardBubble,
}

/// All buckets in charge order. `BUCKETS[b as usize] == b` for every `b`.
pub const BUCKETS: [SlotBucket; 10] = [
    SlotBucket::Committed,
    SlotBucket::Redirect,
    SlotBucket::Fill,
    SlotBucket::EmptyWindow,
    SlotBucket::RenameStall,
    SlotBucket::WindowStall,
    SlotBucket::FuContention,
    SlotBucket::Memory,
    SlotBucket::ExecLatency,
    SlotBucket::ForwardBubble,
];

/// Static registration of the bucket counters (JSON keys + descriptions).
pub static BUCKET_DEFS: [StatDef; 10] = [
    StatDef {
        name: "committed",
        help: "slots that retired a uop",
    },
    StatDef {
        name: "redirect",
        help: "fetch redirect shadow (mispredict recovery)",
    },
    StatDef {
        name: "fill",
        help: "window filling behind fetch",
    },
    StatDef {
        name: "empty_window",
        help: "no uops in flight or arriving",
    },
    StatDef {
        name: "rename_stall",
        help: "dispatch blocked on register allocation",
    },
    StatDef {
        name: "window_stall",
        help: "dispatch blocked on ROB/cluster window capacity",
    },
    StatDef {
        name: "fu_contention",
        help: "ready uop lacked an issue slot",
    },
    StatDef {
        name: "memory",
        help: "oldest uop bound by the memory hierarchy",
    },
    StatDef {
        name: "exec_latency",
        help: "oldest uop waiting on an ALU/branch producer",
    },
    StatDef {
        name: "forward_bubble",
        help: "operands in transit between clusters",
    },
];

impl SlotBucket {
    /// Stable export name (the JSON key).
    #[must_use]
    pub fn name(self) -> &'static str {
        BUCKET_DEFS[self as usize].name
    }
}

/// Number of register classes tracked in the rename-refusal table
/// (int, fp — mirrors `wsrs-regfile`'s `RegClass`).
pub const RENAME_CLASSES: usize = 2;
/// Maximum subsets per class in the rename-refusal table. WSRS uses at
/// most 4 write subsets; 8 leaves headroom without growing the struct.
pub const RENAME_SUBSETS: usize = 8;

/// The full cycle-attribution state for one simulation.
///
/// Owned by value inside the engine (`Option<CycleAttribution>`); a `None`
/// costs the hot loop one branch per cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleAttribution {
    width: u64,
    cycles: u64,
    buckets: [u64; BUCKETS.len()],
    /// Rename-stall *cycles* (not slots) refined by (class, subset) —
    /// which pool actually ran dry.
    rename_refusals: [[u64; RENAME_SUBSETS]; RENAME_CLASSES],
}

impl CycleAttribution {
    /// New attribution state for a machine with `width` commit slots.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "commit width must be nonzero");
        CycleAttribution {
            width: width as u64,
            cycles: 0,
            buckets: [0; BUCKETS.len()],
            rename_refusals: [[0; RENAME_SUBSETS]; RENAME_CLASSES],
        }
    }

    /// The commit width the accounting was configured with.
    #[must_use]
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Cycles charged so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Slots accumulated in `bucket`.
    #[must_use]
    pub fn slots(&self, bucket: SlotBucket) -> u64 {
        self.buckets[bucket as usize]
    }

    /// Charges one cycle: `committed` slots to [`SlotBucket::Committed`]
    /// and the remaining `width − committed` slots to `stall`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `committed > width`, or if `stall` is
    /// `Committed` while slots remain unfilled — a stall bucket must
    /// explain the slack, not hide it.
    #[inline]
    pub fn charge_cycle(&mut self, committed: u64, stall: SlotBucket) {
        debug_assert!(committed <= self.width, "retired more than width");
        let slack = self.width - committed;
        debug_assert!(
            slack == 0 || stall != SlotBucket::Committed,
            "stall slots charged to Committed"
        );
        self.buckets[SlotBucket::Committed as usize] += committed;
        self.buckets[stall as usize] += slack;
        self.cycles += 1;
        debug_assert!(self.conserved(), "slot conservation violated");
    }

    /// Charges `cycles` consecutive zero-commit cycles to `stall` in one
    /// step — the bulk form the event-horizon cycle skip uses for a jumped
    /// region whose stall bucket is provably uniform. Equivalent to
    /// `cycles` calls of `charge_cycle(0, stall)`, so conservation
    /// (`sum(buckets) == cycles × width`) holds exactly.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `stall` is `Committed`: a skipped cycle retires
    /// nothing, so its slack needs a stall explanation.
    #[inline]
    pub fn charge_cycles(&mut self, cycles: u64, stall: SlotBucket) {
        debug_assert!(
            cycles == 0 || stall != SlotBucket::Committed,
            "stall slots charged to Committed"
        );
        self.buckets[stall as usize] += cycles * self.width;
        self.cycles += cycles;
        debug_assert!(self.conserved(), "slot conservation violated");
    }

    /// Refines a rename-stall cycle with the (class, subset) whose pool
    /// was exhausted. Call at most once per charged rename-stall cycle;
    /// out-of-range indices land in the last slot rather than panicking.
    #[inline]
    pub fn note_rename_refusal(&mut self, class: usize, subset: usize) {
        let c = class.min(RENAME_CLASSES - 1);
        let s = subset.min(RENAME_SUBSETS - 1);
        self.rename_refusals[c][s] += 1;
    }

    /// The conservation invariant: every charged cycle distributed
    /// exactly `width` slots.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.buckets.iter().sum::<u64>() == self.cycles * self.width
    }

    /// Fraction of all slots in `bucket` (0 when nothing charged).
    #[must_use]
    pub fn fraction(&self, bucket: SlotBucket) -> f64 {
        let total = self.cycles * self.width;
        if total == 0 {
            0.0
        } else {
            self.slots(bucket) as f64 / total as f64
        }
    }

    /// JSON export: width, cycles, the bucket table (via the static
    /// registration) and the non-empty rows of the rename-refusal table.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("width".into(), Json::UInt(self.width)),
            ("cycles".into(), Json::UInt(self.cycles)),
            ("slots".into(), StatDef::render(&BUCKET_DEFS, &self.buckets)),
        ];
        let mut refusals = Vec::new();
        for (c, row) in self.rename_refusals.iter().enumerate() {
            for (s, &n) in row.iter().enumerate() {
                if n > 0 {
                    refusals.push(Json::Obj(vec![
                        ("class".into(), Json::UInt(c as u64)),
                        ("subset".into(), Json::UInt(s as u64)),
                        ("cycles".into(), Json::UInt(n)),
                    ]));
                }
            }
        }
        if !refusals.is_empty() {
            fields.push(("rename_refusals".into(), Json::Arr(refusals)));
        }
        Json::Obj(fields)
    }

    /// Parses the JSON produced by [`Self::to_json`] (used by the gate to
    /// compare against committed baselines).
    #[must_use]
    pub fn from_json(v: &Json) -> Option<CycleAttribution> {
        let width = v.get("width")?.as_u64()?;
        let mut out = CycleAttribution::new(width as usize);
        out.cycles = v.get("cycles")?.as_u64()?;
        let slots = v.get("slots")?;
        for (i, def) in BUCKET_DEFS.iter().enumerate() {
            out.buckets[i] = slots.get(def.name)?.as_u64()?;
        }
        if let Some(refusals) = v.get("rename_refusals").and_then(Json::as_arr) {
            for r in refusals {
                let c = r.get("class")?.as_u64()? as usize;
                let s = r.get("subset")?.as_u64()? as usize;
                if c < RENAME_CLASSES && s < RENAME_SUBSETS {
                    out.rename_refusals[c][s] = r.get("cycles")?.as_u64()?;
                }
            }
        }
        Some(out)
    }
}

impl std::fmt::Display for CycleAttribution {
    /// One bucket per line, `name  slots  percent`, skipping empties.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = (self.cycles * self.width).max(1);
        for &b in &BUCKETS {
            let n = self.slots(b);
            if n == 0 {
                continue;
            }
            writeln!(
                f,
                "  {:<16} {:>14}  {:>6.2}%",
                b.name(),
                n,
                100.0 * n as f64 / total as f64
            )?;
        }
        Ok(())
    }
}

impl From<&CycleAttribution> for Json {
    fn from(a: &CycleAttribution) -> Json {
        a.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices_match_table() {
        for (i, &b) in BUCKETS.iter().enumerate() {
            assert_eq!(b as usize, i);
        }
        assert_eq!(BUCKETS.len(), BUCKET_DEFS.len());
    }

    #[test]
    fn charge_conserves() {
        let mut a = CycleAttribution::new(8);
        a.charge_cycle(8, SlotBucket::Committed);
        a.charge_cycle(3, SlotBucket::Memory);
        a.charge_cycle(0, SlotBucket::Redirect);
        assert_eq!(a.cycles(), 3);
        assert_eq!(a.slots(SlotBucket::Committed), 11);
        assert_eq!(a.slots(SlotBucket::Memory), 5);
        assert_eq!(a.slots(SlotBucket::Redirect), 8);
        assert!(a.conserved());
        assert!((a.fraction(SlotBucket::Committed) - 11.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip() {
        let mut a = CycleAttribution::new(8);
        a.charge_cycle(5, SlotBucket::ForwardBubble);
        a.charge_cycle(0, SlotBucket::RenameStall);
        a.note_rename_refusal(1, 3);
        let j = Json::from(&a);
        let back = CycleAttribution::from_json(&j).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn refusal_indices_clamp() {
        let mut a = CycleAttribution::new(1);
        a.note_rename_refusal(99, 99);
        assert_eq!(a.rename_refusals[RENAME_CLASSES - 1][RENAME_SUBSETS - 1], 1);
    }
}
