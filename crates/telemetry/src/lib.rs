//! # wsrs-telemetry — cycle accounting, run manifests, regression gating
//!
//! The paper's evaluation is an exercise in *cycle attribution*: §5 and
//! Figures 4–5 live or die on knowing where the machine's issue slots go
//! (useful work, redirect shadows, rename-subset exhaustion, inter-cluster
//! forwarding bubbles, …). This crate is the measurement subsystem the
//! rest of the workspace plugs into:
//!
//! * [`registry`] — the [`Histogram`] primitive plus statically-registered
//!   counter definitions ([`StatDef`]). Both are plain-old-data: a
//!   disabled telemetry path costs the simulator exactly one branch per
//!   cycle (`Option<CycleAttribution>` is `None`).
//! * [`attr`] — [`SlotBucket`] and [`CycleAttribution`]: every
//!   commit-width slot of every cycle is charged to exactly one bucket,
//!   with the conservation invariant `sum(buckets) == cycles × width`
//!   enforced in debug builds (and property-tested at the workspace root).
//! * [`json`] — a dependency-free JSON value type, writer and parser,
//!   in the same vendored spirit as `crates/{rand,proptest}`:
//!   the build environment has no registry access, so the workspace
//!   carries the small subset it needs in-tree.
//! * [`manifest`] — [`RunManifest`]: the self-describing record of one
//!   experiment run (config hashes, window sizes, git revision, IPC and
//!   stall/attribution breakdowns per cell) and the tolerance-based
//!   comparison logic behind `wsrs-bench --bin report gate`.
//!
//! The crate is dependency-free and knows nothing about the simulator —
//! `wsrs-core` and `wsrs-bench` feed it plain numbers.

pub mod attr;
pub mod json;
pub mod manifest;
pub mod registry;

pub use attr::{CycleAttribution, SlotBucket};
pub use json::Json;
pub use manifest::{
    CellRecord, GateOutcome, RunManifest, SampledCell, Tolerances, TraceCacheStats, TraceRecord,
};
pub use registry::{Histogram, StatDef};
