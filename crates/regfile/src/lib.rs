//! # wsrs-regfile — register renaming with Register Write Specialization
//!
//! The paper's §2 machinery: the physical register file is split into
//! disjoint **subsets** `S0..S{n-1}`; a result produced on cluster `Ci` must
//! be renamed onto a register of subset `Si`. This crate provides the
//! bookkeeping the timing simulator uses:
//!
//! * [`MapTable`] — logical → (physical, subset) mappings for both register
//!   classes; each mapping's [`Subset`] carries the paper's `f`/`s` bits
//!   (§3.2) for WSRS cluster computation;
//! * [`FreeList`] — per-subset free lists, including the **strategy 1**
//!   recycling pipeline (pick *N* registers from every list each rename
//!   cycle, recycle the unused ones after a delay, §2.2.1) and the
//!   **strategy 2** exact-count pick (§2.2.2);
//! * [`Renamer`] — the complete rename stage, plus register reclamation at
//!   commit and the §2.3 deadlock sizing rule / detection helpers.
//!
//! Because the timing simulator replays only the correct path (wrong-path
//! fetch is idealized away, as in the paper), the renamer needs no
//! checkpoint/restore machinery: mispredictions are pure fetch bubbles.
//!
//! # Example
//!
//! ```
//! use wsrs_regfile::{RenamerConfig, Renamer, RenameStrategy, Subset};
//! use wsrs_isa::{Reg, RegRef};
//!
//! // Four write subsets of 128 integer and 64 FP registers each, with
//! // the architectural registers in their reset placement.
//! let config = RenamerConfig {
//!     subsets: 4,
//!     int_regs: 512,
//!     fp_regs: 256,
//!     strategy: RenameStrategy::ExactCount,
//!     threads: 1,
//! };
//! let mut r = Renamer::new(config, &config.reset_placement());
//! let dst = RegRef::int(Reg::new(5));
//! r.begin_cycle(0, 8);
//! let m = r.alloc(dst.class(), Subset(2)).expect("subset 2 has free registers");
//! let old = r.rename_dest_for(0, dst, m);
//! r.end_cycle(0);
//! assert_eq!(r.map_source_for(0, dst).phys, m.phys);
//! // ... at commit, the previous mapping is reclaimed:
//! r.free(dst.class(), old, 100);
//! ```

pub mod deadlock;
pub mod freelist;
pub mod map;
pub mod renamer;
pub mod types;

pub use deadlock::DeadlockMonitor;
pub use freelist::FreeList;
pub use map::MapTable;
pub use renamer::{RenameStats, Renamer, RenamerConfig, STATS_MAX_SUBSETS};
pub use types::{Mapping, PhysReg, RenameStrategy, Subset};
