//! The event-horizon fast path: the proof that a run of cycles is dead,
//! and the bulk bookkeeping that replaces stepping through them.

use super::{DispatchBlock, Engine, Redirect, IN_FLIGHT};
use wsrs_regfile::RenameStrategy;
use wsrs_telemetry::SlotBucket;

impl Engine<'_> {
    /// The event-horizon query: the earliest future cycle at which this
    /// machine's state can change, when every cycle before it is provably
    /// dead — nothing fetches, dispatches, issues, commits, or resolves.
    /// Returns `None` unless at least one whole cycle can be skipped.
    ///
    /// Runs at the end of a stepped cycle, so the machine is in its
    /// settled end-of-cycle state. The proof obligations, per stage:
    ///
    /// * **issue** — no µop is awake (`ready_count == 0`), and the wheel
    ///   delivers nothing before the target (see
    ///   [`crate::wheel::CalendarWheel::next_due_before`]). Parked µops are
    ///   not awake and do not veto. A memory-order-parked µop cannot issue
    ///   before its thread's memory-order head, which waits on a producer's
    ///   issue or a wheel booking (either caps `t`) or is itself
    ///   VP-parked. A VP-parked µop waits for its subset to free a
    ///   register: only a commit frees one (the commit cap below), or an
    ///   anti-wedge move, which needs a VP-blocked head;
    /// * **virtual-physical watch** — the ROB head is not VP-blocked:
    ///   `vp_watch` counts those cycles one by one, so a blocked head
    ///   vetoes;
    /// * **commit** — the head is not done, or completes no earlier than
    ///   the target (a done head with `done_cycle ≤ cycle + 1` vetoes);
    /// * **fetch** — every live thread is redirect-blocked (resume cycles
    ///   cap the target) or has a full fetch buffer;
    /// * **dispatch** — blocked on the front end (returns before touching
    ///   the renamer: strategy-agnostic) or on a full window, which for
    ///   single-thread non-`Recycling` machines replays as pure no-ops —
    ///   `FreeList::tick` is catch-up-exact, `ExactCount::end_cycle` is a
    ///   no-op, and the sticky cluster choice is already cached;
    /// * **telemetry** — needs no cap: over a dead region the stall
    ///   bucket is a piecewise-constant function of the probe cycle, and
    ///   [`Self::charge_skipped`] charges each constant segment in bulk;
    /// * **wedge detection** — the target never jumps past the
    ///   no-progress assertion's firing cycle.
    pub(super) fn skip_target(&self) -> Option<u64> {
        match self.dispatch_block {
            DispatchBlock::Frontend => {}
            // Window-blocked cycles re-run rename bookkeeping that is only
            // provably stateless for one thread (SMT rotation can dispatch
            // a different thread next cycle) outside the Recycling
            // strategy's per-cycle staging churn.
            DispatchBlock::Window => {
                if self.cfg.threads != 1 || self.cfg.strategy == RenameStrategy::Recycling {
                    return None;
                }
            }
            _ => return None,
        }
        if self.rob.ready_count() != 0 || self.vp_head_blocked() {
            return None;
        }
        // Cheap caps first, the wheel last: every bound accumulated into
        // `t` truncates the wheel's occupancy scan below, so the cost of
        // the query is bounded by the cycles actually skipped — without
        // this ordering, a telemetry breakpoint two cycles out would
        // still pay a scan all the way to a miss return hundreds of
        // cycles away, every blocked cycle.
        let mut t = self.last_progress.1 + 200_000;
        for tid in 0..self.cfg.threads {
            if self.trace_done[tid] {
                continue;
            }
            match self.redirects[tid] {
                // Resolution comes from an issue event, already capped by
                // the wheel below.
                Redirect::WaitingResolve(_) => {}
                Redirect::WaitingCycle(c) => t = t.min(c.max(self.cycle + 1)),
                Redirect::None => {
                    if self.fetch_bufs[tid].len() < self.fetch_buf_cap {
                        return None; // fetch would make progress
                    }
                }
            }
        }
        if !self.rob.is_empty() && self.rob.is_done(0) {
            t = t.min(self.rob.done_cycle(0).max(self.cycle + 1));
        }
        if let Some(due) = self.wheel.next_due_before(t) {
            t = due;
        }
        (t > self.cycle + 1).then_some(t)
    }

    /// Jumps the clock from the end of the current cycle straight to `t`,
    /// bulk-applying the side effects the `t - cycle - 1` skipped cycles
    /// would have accumulated one at a time: their dispatch stall counters
    /// and their telemetry stall buckets (charged segment-wise by
    /// [`Self::charge_skipped`]). Everything else about those cycles is a
    /// proven no-op.
    pub(super) fn apply_skip(&mut self, t: u64) {
        let k = t - self.cycle - 1;
        self.skipped_cycles += k;
        self.wheel.advance_to(t);
        match self.dispatch_block {
            DispatchBlock::Frontend => {
                self.count.stalls.frontend += self.cfg.fetch_width as u64 * k
            }
            DispatchBlock::Window => self.count.stalls.window += k,
            _ => unreachable!("skip_target vetted the dispatch block"),
        }
        if self.count.attr.is_some() {
            self.charge_skipped(self.cycle + 1, t);
        }
    }

    /// Charges telemetry for the skipped cycles `[from, t)`. Over a dead
    /// region — no fetch, dispatch, issue, or commit, and no register
    /// becoming available (that would be an issue event, which caps the
    /// jump) — [`Self::stall_bucket_at`] is a piecewise-constant function
    /// of the probe cycle: its value can only change where a probe
    /// crosses one of the head's operand thresholds (the operand's usable
    /// cycle, or its cross-cluster arrival). So walk those segments and
    /// bulk-charge each one, instead of capping the jump at every
    /// threshold and paying a full skip analysis per one- or two-cycle
    /// hop (operand-usable and forwarded thresholds are typically
    /// adjacent).
    fn charge_skipped(&mut self, from: u64, t: u64) {
        let mut at = from;
        while at < t {
            let bucket = self.stall_bucket_at(at);
            debug_assert_ne!(
                bucket,
                SlotBucket::RenameStall,
                "skipped cycles are never rename-stalled"
            );
            // The next probe cycle at which the bucket could differ: the
            // smallest operand threshold strictly above `at` (none — or
            // a done/empty head, whose bucket is time-independent —
            // leaves the rest of the region uniform).
            let mut next = t;
            if !self.rob.is_empty() && !self.rob.is_done(0) {
                let head_cluster = self.rob.cluster(0);
                for s in self.rob.srcs(0).into_iter().filter(|s| s.is_some()) {
                    let info = self.reg_info[s.class_index()][s.phys()];
                    debug_assert_ne!(
                        info.avail, IN_FLIGHT,
                        "head operands have committed producers"
                    );
                    for bp in [info.avail, self.usable_cycle(info, head_cluster)] {
                        if bp > at && bp < next {
                            next = bp;
                        }
                    }
                }
            }
            self.count
                .attr
                .as_mut()
                .expect("caller checked")
                .charge_cycles(next - at, bucket);
            at = next;
        }
    }
}
