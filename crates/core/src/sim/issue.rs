//! Issue: oldest-first select per cluster — event-driven (wheel wakeup
//! and ready planes), or the O(window) scan that is its test oracle — and
//! execution latency, including the register cache's slow reads.

use super::{tagged_addr, Engine, Redirect, Reference, IN_FLIGHT};
use crate::slots::{PackedReg, LINK_NONE};
use wsrs_isa::latency;
use wsrs_mem::StoreQueueQuery;

impl Engine<'_> {
    /// The cycle from which every operand in `srcs` is usable on
    /// `cluster`, or `None` while one is still in flight.
    fn operands_usable_at(&self, srcs: [PackedReg; 2], cluster: u8) -> Option<u64> {
        let mut at = 0;
        for s in srcs.into_iter().filter(|s| s.is_some()) {
            let info = self.reg_info[s.class_index()][s.phys()];
            if info.avail == IN_FLIGHT {
                return None;
            }
            at = at.max(self.usable_cycle(info, cluster));
        }
        Some(at)
    }

    /// Whether slot `i`'s operands are all usable this cycle.
    fn srcs_ready(&self, i: usize) -> bool {
        let at = self.operands_usable_at(self.rob.srcs(i), self.rob.cluster(i));
        at.is_some_and(|at| self.cycle >= at)
    }

    /// Books µop `seq`, whose operands are all produced, on the wheel for
    /// the cycle they are all usable on `cluster` (the next cycle at the
    /// earliest) — at dispatch, or when its last producer issues.
    pub(super) fn schedule_ready(&mut self, seq: u64, srcs: [PackedReg; 2], cluster: u8) {
        let at = self
            .operands_usable_at(srcs, cluster)
            .expect("every operand is produced");
        self.wheel.schedule(at.max(self.cycle + 1), seq);
    }

    /// Whether this run uses the event-driven scheduler: every run but
    /// the [`Reference::Scan`] oracle.
    pub(super) fn event_scheduler(&self) -> bool {
        self.reference != Some(Reference::Scan)
    }

    pub(super) fn issue(&mut self) {
        for c in &mut self.clusters {
            c.new_cycle();
        }
        if self.event_scheduler() {
            self.issue_event();
        } else {
            self.issue_scan();
        }
        self.writeback();
        self.vp_watch();
    }

    /// Issue-time bookkeeping shared by the event path and the scan
    /// oracle: timestamps completion, marks the slot done, pops the µop
    /// off its thread's memory order, claims its virtual-physical
    /// register, queues the deferred writeback, and schedules a
    /// mispredicted branch's fetch resume. Fetch reads the redirect only
    /// next cycle, so it is written at once.
    fn complete_issue(&mut self, i: usize) {
        let (lat, forwarded) = self.exec_latency(i);
        self.count.store_forwards += u64::from(forwarded);
        let done_cycle = self.cycle + u64::from(lat);
        self.rob.complete(i, done_cycle);
        if let Some(e) = self.timeline.get_mut(self.rob.seq_at(i) as usize) {
            e.issue = self.cycle;
            e.complete = done_cycle;
        }
        let tid = self.rob.thread(i) as usize;
        if self.rob.is_mem(i) {
            let popped = self.mem_order[tid].pop_front();
            debug_assert_eq!(popped, Some(self.rob.seq_at(i)), "memory order broken");
        }
        self.vp_claim(i);
        let dst = self.rob.dst(i);
        if dst.is_some() {
            self.dest_updates.push((dst, done_cycle));
        }
        if self.rob.mispredicted(i) {
            let Redirect::WaitingResolve(fetch_cycle) = self.redirects[tid] else {
                unreachable!("fetch waits on every unresolved mispredicted branch");
            };
            let resume = (done_cycle + 1).max(fetch_cycle + self.cfg.min_mispredict_penalty);
            self.redirects[tid] = Redirect::WaitingCycle(resume);
        }
    }

    /// Whether memory order lets slot `i` issue: it is not a memory µop,
    /// or it is the front of its thread's memory-order FIFO.
    pub(super) fn mem_order_allows(&self, i: usize) -> bool {
        !self.rob.is_mem(i)
            || self.mem_order[self.rob.thread(i) as usize].front() == Some(&self.rob.seq_at(i))
    }

    /// Event-driven selection: only µops whose operands are known-usable
    /// (tracked through intrusive waiter lists and the completion wheel)
    /// are examined, in ascending seq order — the same oldest-first order
    /// the scan produces, so all issue-time side effects (FU reservation,
    /// memory-order advancement, cache accesses) happen identically.
    ///
    /// Awake µops live in the window's per-cluster ready bitmaps
    /// ([`crate::slots::Rob::set_ready`]): the wheel wakes by setting a
    /// bit, and select is an age-ordered `trailing_zeros` walk over the
    /// planes of clusters that still own an issue slot — a cluster whose
    /// width is spent drops out of the mask, narrowing the select exactly
    /// as the paper's specialized windows do. A µop passed over for FU
    /// contention keeps its bit and is excluded for the rest of the cycle
    /// by the advancing `from` cursor, never re-examined.
    ///
    /// The issue gates never fail in select. A µop whose operands arrive
    /// while a gate is shut is parked ([`crate::slots::Rob::park`])
    /// instead of woken, and gets its bit when the last gate opens; each
    /// opening tests the other gate too.
    ///
    /// * Memory order: an older memory µop of its thread is unissued. It
    ///   opens when that one issues. The parked µop is younger, so the
    ///   walk (past `from`) still reaches it this cycle: consecutive
    ///   memory µops issue together, in the cycle the scan oracle issues
    ///   them.
    /// * Virtual-physical rank ([`super::vp`]): its subset has no
    ///   register left for its rank. It opens at a commit or an
    ///   anti-wedge move, never during select, because an issue inside
    ///   the eligible prefix leaves every other µop's eligibility as it
    ///   was.
    fn issue_event(&mut self) {
        self.due_buf.clear();
        self.wheel.drain_due(self.cycle, &mut self.due_buf);
        let front_seq = self.rob.seq_front();
        for k in 0..self.due_buf.len() {
            let idx = (self.due_buf[k] - front_seq) as usize;
            debug_assert!(!self.rob.is_done(idx));
            if self.mem_order_allows(idx) && self.vp_allows(idx) {
                self.rob.set_ready(idx);
            } else {
                self.rob.park(idx);
            }
        }
        if self.rob.ready_count() == 0 {
            return;
        }
        debug_assert!(!self.rob.is_empty(), "ready µops live in the ROB");
        let mut avail = (0..self.clusters.len())
            .filter(|&c| self.clusters[c].has_issue_slot())
            .fold(0u32, |mask, c| mask | 1 << c);
        let mut from = 0usize;
        while avail != 0 {
            let Some(idx) = self.rob.next_ready(from, avail) else {
                break;
            };
            from = idx + 1;
            debug_assert!(!self.rob.is_done(idx));
            debug_assert!(self.rob.dispatch_cycle(idx) < self.cycle);
            debug_assert!(self.srcs_ready(idx));
            let cluster = self.rob.cluster(idx) as usize;
            debug_assert!(
                self.mem_order_allows(idx) && self.vp_allows(idx),
                "a gated µop was awake"
            );
            if !self.clusters[cluster].try_issue(self.rob.class(idx), self.cycle) {
                continue;
            }
            self.rob.clear_ready(idx);
            self.complete_issue(idx);
            if self.rob.is_mem(idx) {
                // Unpark the thread's new memory-order front.
                if let Some(&next) = self.mem_order[self.rob.thread(idx) as usize].front() {
                    let nidx = (next - front_seq) as usize;
                    if self.vp_allows(nidx) && self.rob.unpark(nidx) {
                        self.rob.set_ready(nidx);
                    }
                }
            }
            if !self.clusters[cluster].has_issue_slot() {
                avail &= !(1 << cluster);
            }
        }
    }

    /// Deferred writeback: results issued this cycle become usable only
    /// from their completion cycle, never this cycle. Under the event
    /// scheduler each completed register's consumers are then woken by
    /// unlinking its waiter chain (the scan hangs none): a consumer whose
    /// last in-flight operand just completed now has a fully known
    /// operand-ready cycle and books a wheel slot.
    fn writeback(&mut self) {
        let front_seq = self.rob.seq_front();
        for k in 0..self.dest_updates.len() {
            let (dst, done) = self.dest_updates[k];
            let info = &mut self.reg_info[dst.class_index()][dst.phys()];
            info.avail = done;
            let mut link = std::mem::replace(&mut info.wake_head, LINK_NONE);
            while link != LINK_NONE {
                let cseq = link >> 1;
                let cidx = (cseq - front_seq) as usize;
                let (next, pending) = self.rob.take_waiter(cidx, (link & 1) as usize);
                link = next;
                if pending == 0 {
                    self.schedule_ready(cseq, self.rob.srcs(cidx), self.rob.cluster(cidx));
                }
            }
        }
        self.dest_updates.clear();
    }

    /// The O(window) selection scan: the event scheduler's test oracle
    /// ([`Reference::Scan`]), never a production path. It walks the whole
    /// window oldest-first every cycle and states the virtual-physical
    /// rank rule on its own: a waiting µop that does not issue keeps one
    /// register of its destination subset from every younger µop, so the
    /// reservations counted so far are the next µop's rank.
    fn issue_scan(&mut self) {
        let subsets = self.renamer.config().subsets;
        let mut reserved = [vec![0; subsets], vec![0; subsets]];
        for i in 0..self.rob.len() {
            let cluster = self.rob.cluster(i) as usize;
            let dst = self.rob.dst(i);
            let vp_key = self.vp_key(dst);
            let rank = vp_key.map_or(0, |(c, s)| reserved[c][s]);
            let issued = !self.rob.is_done(i)
                && self.rob.dispatch_cycle(i) < self.cycle
                && self.clusters[cluster].has_issue_slot()
                && self.srcs_ready(i)
                && self.mem_order_allows(i)
                && self.vp_rank_allows(dst, rank)
                && self.clusters[cluster].try_issue(self.rob.class(i), self.cycle);
            if issued {
                self.complete_issue(i);
            } else if let Some((c, s)) = vp_key.filter(|_| !self.rob.is_done(i)) {
                reserved[c][s] += 1;
            }
        }
    }

    /// Execution latency for the µop in ROB slot `i`; returns
    /// `(latency, store_forwarded)`.
    fn exec_latency(&mut self, i: usize) -> (u32, bool) {
        let slow_read = self.reg_cache_penalty(i);
        if self.rob.is_load(i) {
            let addr = self.rob.eff_addr(i);
            let thread = self.rob.thread(i) as usize;
            match self.store_queues[thread].query(self.rob.seq_at(i), addr) {
                StoreQueueQuery::ForwardFrom(_) => (latency::LOAD_LATENCY + slow_read, true),
                StoreQueueQuery::NoConflict => {
                    let tagged = tagged_addr(thread, addr);
                    (self.hierarchy.load(tagged, self.cycle) + slow_read, false)
                }
            }
        } else {
            (latency::of(self.rob.class(i)) + slow_read, false)
        }
    }

    /// §6 \[4\]: operands older than the register cache's retention read
    /// from the slow full copy, adding latency to this µop.
    fn reg_cache_penalty(&self, i: usize) -> u32 {
        let Some(rc) = self.cfg.reg_cache else {
            return 0;
        };
        let stale = self.rob.srcs(i).iter().any(|&s| {
            s.is_some() && {
                let info = self.reg_info[s.class_index()][s.phys()];
                info.avail != IN_FLIGHT
                    && self.cycle.saturating_sub(info.avail) > rc.retention_cycles
            }
        });
        if stale {
            rc.slow_read_penalty
        } else {
            0
        }
    }
}
