//! # wsrs — facade crate for the WSRS reproduction
//!
//! Reproduction of *"Register Write Specialization, Register Read
//! Specialization: A Path to Complexity-Effective Wide-Issue Superscalar
//! Processors"* (Seznec, Toullec, Rochecouste — MICRO-35, 2002).
//!
//! This crate re-exports the whole workspace so downstream users (and the
//! `examples/` binaries) need a single dependency:
//!
//! * [`isa`] — the RISC ISA, assembler, and functional emulator;
//! * [`frontend`] — branch prediction (2Bc-gskew) and the fetch model;
//! * [`mem`] — the L1/L2 memory hierarchy and load/store queue;
//! * [`regfile`] — register renaming with write specialization (free lists
//!   per subset, both renaming strategies of paper §2.2);
//! * [`core`] — the clustered out-of-order timing simulator and the
//!   cluster-allocation policies (RR / RM / RC);
//! * [`complexity`] — the register-file area/energy/access-time models that
//!   regenerate the paper's Table 1;
//! * [`telemetry`] — cycle attribution, counters/histograms and the JSON
//!   run-manifest format behind the `report`/`gate` regression tooling;
//! * [`workloads`] — the twelve benchmark kernels standing in for the
//!   paper's SPEC CPU2000 selection;
//! * [`workgen`] — the statistical workload generator: extract a
//!   [`workgen::WorkloadProfile`] from any µop stream, synthesize a
//!   deterministic `gen:<profile-hash>:<seed>` workload back from it, and
//!   sweep blends and adversarial corners of the profile space.
//!
//! # Quickstart
//!
//! ```
//! use wsrs::core::{RunSpec, SimConfig, Simulator};
//! use wsrs::workloads::Workload;
//!
//! let trace = Workload::Gzip.trace();
//! let config = SimConfig::conventional_rr(256);
//! let outcome = Simulator::new(config).execute(&RunSpec::default(), [trace.take(20_000)]);
//! assert!(outcome.report.ipc() > 0.5);
//! ```

pub use wsrs_complexity as complexity;
pub use wsrs_core as core;
pub use wsrs_frontend as frontend;
pub use wsrs_isa as isa;
pub use wsrs_mem as mem;
pub use wsrs_regfile as regfile;
pub use wsrs_telemetry as telemetry;
pub use wsrs_workgen as workgen;
pub use wsrs_workloads as workloads;
