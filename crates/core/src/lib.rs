//! # wsrs-core — the clustered out-of-order timing simulator
//!
//! This crate is the paper's primary artifact: a cycle-level model of an
//! 8-way, 4-cluster dynamically-scheduled superscalar processor that can be
//! configured as
//!
//! * a **conventional** clustered machine (any unit reads/writes any
//!   physical register) with round-robin cluster allocation — the paper's
//!   baseline `RR 256`;
//! * a **register Write Specialized** machine (`WSRR 384/512`, §2): each
//!   cluster writes only its own register-file subset;
//! * a full **WSRS** machine (§3): write *and* read specialization, where
//!   the cluster executing an instruction is dictated by the subsets its
//!   operands live in, under the `RM` / `RC` allocation policies of §5.2.1.
//!
//! The pipeline model follows §5: an idealized 8-µop/cycle front end, a
//! 2Bc-gskew direction predictor with a configuration-dependent minimum
//! misprediction penalty, 2-way-issue clusters (2 ALUs + 1 load/store +
//! 1 FP unit each, 56 in-flight µops per cluster), intra-cluster
//! fast-forwarding with a one-cycle inter-cluster delay, in-order address
//! computation with loads bypassing non-conflicting stores, and the Table 3
//! memory hierarchy.
//!
//! # Example
//!
//! ```
//! use wsrs_core::{RunSpec, SimConfig, Simulator};
//! use wsrs_isa::{Assembler, Emulator, Reg};
//!
//! let mut a = Assembler::new();
//! let (i, n) = (Reg::new(1), Reg::new(2));
//! a.li(i, 0);
//! a.li(n, 1000);
//! let top = a.bind_label();
//! a.addi(i, i, 1);
//! a.blt(i, n, top);
//! a.halt();
//!
//! let outcome = Simulator::new(SimConfig::conventional_rr(256))
//!     .execute(&RunSpec::default(), [Emulator::new(a.assemble(), 4096)]);
//! assert!(outcome.report.ipc() > 0.5);
//! ```

pub mod alloc;
pub mod batch;
pub mod cluster;
pub mod config;
pub mod metrics;
pub mod pipeview;
pub mod sample;
pub mod sim;
mod slots;
mod wheel;

/// Timing-model revision tag. Bump whenever a change can alter any
/// `Report` field for some (config, trace) cell — new timing semantics,
/// bucket accounting, policy RNG usage — or the bytes of the cell line
/// `wsrs-serve` memoizes for it (a field added to or removed from the
/// cell record), so persistently memoized cell results ([`sim_revision`]
/// is one component of `wsrs-serve`'s memo key) are invalidated instead
/// of replaying bytes a fresh run no longer emits. Pure restructurings
/// that are proven bit-identical (event scheduler, lockstep batching) do
/// NOT bump it.
///
/// v2: cell lines no longer carry the `skip` provenance flag.
/// v3: cell lines carry one configuration fingerprint,
/// `config_content_hash`; the `Debug`-text `config_hash` is gone.
pub const SIM_REVISION_TAG: &str = "wsrs-sim-v3";

/// FNV-1a digest of [`SIM_REVISION_TAG`] — the simulator-revision
/// component of content-addressed cell-result keys.
#[must_use]
pub fn sim_revision() -> u64 {
    wsrs_isa::fnv1a_64(SIM_REVISION_TAG.as_bytes())
}

pub use alloc::{AllocPolicy, ClusterChoice};
pub use batch::{lockstep_compatible, run_lockstep};
pub use cluster::{ClusterId, FuKind, Resources};
pub use config::{FastForward, RegCache, RegFileMode, SimConfig};
pub use metrics::{Report, UnbalanceTracker};
pub use pipeview::UopTiming;
pub use sample::{
    run_sampled, warm_state_key, NoSampleStore, SampleCheckpoint, SampleSpec, SampleStore,
    SampledReport,
};
pub use sim::{Outcome, Reference, RunSpec, Simulator};
