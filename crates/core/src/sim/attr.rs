//! Telemetry: charging each cycle's commit slots to one stall bucket.

use super::{DispatchBlock, Engine, Redirect, IN_FLIGHT};
use crate::slots::class_index;
use wsrs_telemetry::SlotBucket;

impl Engine<'_> {
    /// Charges this cycle's `fetch_width` commit slots: the retired µops
    /// to `Committed`, the slack to one stall bucket chosen by
    /// [`Self::stall_bucket_at`]. Runs after `issue()`, so a head that
    /// found an issue slot this cycle is never misattributed as
    /// contention.
    pub(super) fn attribute_cycle(&mut self) {
        let committed = self.committed_this_cycle;
        let bucket = if committed >= self.cfg.fetch_width as u64 {
            SlotBucket::Committed
        } else {
            self.stall_bucket_at(self.cycle)
        };
        let attr = self.count.attr.as_mut().expect("caller checked");
        attr.charge_cycle(committed, bucket);
        if let (SlotBucket::RenameStall, Some((class, subset))) = (bucket, self.blocked_subset) {
            attr.note_rename_refusal(class_index(class), subset.index());
        }
    }

    /// Picks the stall bucket for cycle `at` when it retires fewer than
    /// `fetch_width` µops. Retirement-centric: the oldest in-flight µop
    /// explains the machine's inability to commit; the dispatch stage is
    /// consulted only when the window is empty (or its head is too young
    /// to have had an issue opportunity). `at` is the current cycle on the
    /// per-cycle path; the event-horizon skip ([`Self::charge_skipped`])
    /// probes future cycles against the settled end-of-cycle state, which
    /// is exact because nothing in a dead region mutates the state this
    /// function reads.
    pub(super) fn stall_bucket_at(&self, at: u64) -> SlotBucket {
        if !self.rob.is_empty() {
            if self.rob.dispatch_cycle(0) < at {
                return self.head_bucket_at(at);
            }
            // Head dispatched this very cycle: the window is filling.
            return SlotBucket::Fill;
        }
        match self.dispatch_block {
            DispatchBlock::Rename | DispatchBlock::Frozen => SlotBucket::RenameStall,
            DispatchBlock::Window => SlotBucket::WindowStall,
            DispatchBlock::Frontend | DispatchBlock::None => {
                if self.redirects.iter().any(|r| !matches!(r, Redirect::None)) {
                    SlotBucket::Redirect
                } else if self.fetch_bufs.iter().any(|b| !b.is_empty()) {
                    SlotBucket::Fill
                } else {
                    SlotBucket::EmptyWindow
                }
            }
        }
    }

    /// Why the (old-enough) ROB head did not retire at cycle `at`.
    fn head_bucket_at(&self, at: u64) -> SlotBucket {
        if self.rob.is_done(0) {
            // Issued, executing. Loads (and stores in their cache access)
            // are memory-bound; everything else is execution latency.
            return if self.rob.is_mem(0) {
                SlotBucket::Memory
            } else {
                SlotBucket::ExecLatency
            };
        }
        // Waiting. Operand not yet usable?
        let head_cluster = self.rob.cluster(0);
        for s in self.rob.srcs(0).into_iter().filter(|s| s.is_some()) {
            let info = self.reg_info[s.class_index()][s.phys()];
            if info.avail == IN_FLIGHT || at < info.avail {
                // Producer unissued or still executing.
                return if info.from_load {
                    SlotBucket::Memory
                } else {
                    SlotBucket::ExecLatency
                };
            }
            if at < self.usable_cycle(info, head_cluster) {
                // Produced, but still crossing clusters.
                return SlotBucket::ForwardBubble;
            }
        }
        // Operands usable; what else gates issue?
        if !self.mem_order_allows(0) {
            return SlotBucket::Memory; // memory-order serialization
        }
        if !self.vp_rank_allows(self.rob.dst(0), 0) {
            // Issue-time register allocation blocked (VP file full).
            return SlotBucket::RenameStall;
        }
        SlotBucket::FuContention
    }
}
