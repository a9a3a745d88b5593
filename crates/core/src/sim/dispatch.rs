//! Rename and dispatch, in program order, and the §2.3 rename deadlock:
//! its detector and workaround (b), the architectural-register remap.

use std::collections::VecDeque;

use super::{Engine, RegInfo, IN_FLIGHT};
use crate::config::RegFileMode;
use crate::pipeview::UopTiming;
use crate::slots::{class_index, PackedReg, SlotPush, F_LOAD, F_MISPREDICTED, F_STORE, LINK_NONE};
use wsrs_isa::RegClass;
use wsrs_regfile::Subset;

/// Cycles of continuous blocked-and-empty rename before declaring
/// deadlock. With an empty window nothing can commit, so the only registers
/// that can still appear are the ones maturing out of the strategy-1
/// recycling pipeline (a handful of cycles deep): 16 blocked-and-empty
/// cycles prove the wedge.
pub(super) const DEADLOCK_THRESHOLD: u64 = 16;

/// Why dispatch made no progress this cycle (cycle-attribution input;
/// records only the *last* observed blocker, which is the binding one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum DispatchBlock {
    /// Dispatch ran (or had nothing it was obliged to do).
    None,
    /// Fetch buffers empty.
    Frontend,
    /// Register allocation refused (subset/free-list exhausted); the
    /// subset is in `Engine::blocked_subset`.
    Rename,
    /// ROB or per-cluster window full.
    Window,
    /// Frozen by a deadlock-recovery exception.
    Frozen,
}

impl Engine<'_> {
    pub(super) fn dispatch(&mut self) {
        self.dispatch_block = DispatchBlock::None;
        if self.cycle < self.dispatch_frozen_until {
            self.dispatch_block = DispatchBlock::Frozen;
            return;
        }
        if self.fetch_bufs.iter().all(VecDeque::is_empty) {
            self.count.stalls.frontend += self.cfg.fetch_width as u64;
            self.dispatch_block = DispatchBlock::Frontend;
            self.note_deadlock(false);
            return;
        }
        self.renamer.begin_cycle(self.cycle, self.cfg.fetch_width);
        let mut rename_blocked = false;
        let threads = self.cfg.threads;
        let mut budget = self.cfg.fetch_width;

        'threads: for offset in 0..threads {
            let tid = (self.cycle as usize + offset) % threads;
            while budget > 0 {
                let Some(front) = self.fetch_bufs[tid].front() else {
                    continue 'threads;
                };
                if front.fetch_cycle > self.cycle {
                    continue 'threads;
                }
                if self.rob.len() >= self.cfg.rob {
                    self.window_stall();
                    break 'threads;
                }
                let d = front.d;

                // Source operands: current mappings (younger µops renamed this
                // same cycle already updated the map — in-group dependency
                // propagation).
                let mut srcs = [PackedReg::NONE; 2];
                let mut src_subsets: [Option<Subset>; 2] = [None, None];
                for (i, s) in d.srcs.iter().enumerate() {
                    if let Some(r) = s {
                        let m = self.renamer.map_source_for(tid, *r);
                        srcs[i] = PackedReg::new(r.class(), m.phys.0);
                        src_subsets[i] = Some(m.subset);
                    }
                }

                let choice = match front.choice {
                    Some(c) => c,
                    None => {
                        self.occ_buf.clear();
                        self.occ_buf
                            .extend(self.clusters.iter().map(|c| c.window_occupancy));
                        // §2.3 workaround (a): steer placement freedom away from
                        // exhausted register subsets (WSRS only).
                        let free = match d.dst {
                            Some(dreg)
                                if self.cfg.avoid_exhaustion
                                    && self.cfg.mode == RegFileMode::Wsrs =>
                            {
                                let subsets = 0..self.renamer.config().subsets as u8;
                                self.free_buf.clear();
                                self.free_buf.extend(subsets.map(|s| {
                                    self.renamer.allocatable_now(dreg.class(), Subset(s))
                                }));
                                Some(&self.free_buf[..])
                            }
                            _ => None,
                        };
                        let c =
                            self.allocator
                                .choose_avoiding(&d, src_subsets, &self.occ_buf, free);
                        self.fetch_bufs[tid]
                            .front_mut()
                            .expect("front exists")
                            .choice = Some(c);
                        c
                    }
                };
                let cl = choice.cluster.0 as usize;

                if self.clusters[cl].window_occupancy >= self.cfg.window_per_cluster {
                    self.window_stall();
                    break 'threads;
                }

                // Destination rename, into the executing cluster's subset.
                let mut dst = PackedReg::NONE;
                let (mut old_phys, mut old_subset) = (0, 0);
                if let Some(dreg) = d.dst {
                    let subset = self.cfg.mode.write_subset(choice.cluster);
                    if !self.renamer.can_alloc(dreg.class(), subset) {
                        self.count.stalls.rename += 1;
                        rename_blocked = true;
                        self.blocked_subset = Some((dreg.class(), subset));
                        self.dispatch_block = DispatchBlock::Rename;
                        break 'threads;
                    }
                    let m = self
                        .renamer
                        .alloc(dreg.class(), subset)
                        .expect("can_alloc checked");
                    let old = self.renamer.rename_dest_for(tid, dreg, m);
                    let info = &mut self.reg_info[class_index(dreg.class())][m.phys.0 as usize];
                    debug_assert_eq!(
                        info.wake_head, LINK_NONE,
                        "freed register still has waiters"
                    );
                    *info = RegInfo::new(IN_FLIGHT, choice.cluster.0, d.is_load());
                    dst = PackedReg::new(dreg.class(), m.phys.0);
                    (old_phys, old_subset) = (old.phys.0, old.subset.0);
                }

                let fetched = self.fetch_bufs[tid].pop_front().expect("front exists");
                let seq = self.seq_next;
                self.seq_next += 1;
                budget -= 1;

                self.vp_enqueue(dst, seq);
                if d.is_load() || d.is_store() {
                    self.mem_order[tid].push_back(seq);
                    if d.is_store() {
                        self.store_queues[tid].insert(seq, d.eff_addr.expect("store has address"));
                    }
                }

                // Event-scheduler registration: this consumer is threaded
                // onto each in-flight producer's intrusive waiter list (a
                // pointer write, no allocation); with every operand already
                // produced, the operand-ready cycle is known right now.
                let mut pending_srcs = 0u8;
                let mut next_waiter = [LINK_NONE; 2];
                if self.event_scheduler() {
                    for (i, s) in srcs.iter().enumerate().filter(|(_, s)| s.is_some()) {
                        let info = &mut self.reg_info[s.class_index()][s.phys()];
                        if info.avail == IN_FLIGHT {
                            next_waiter[i] = info.wake_head;
                            info.wake_head = (seq << 1) | i as u64;
                            pending_srcs += 1;
                        }
                    }
                    if pending_srcs == 0 {
                        self.schedule_ready(seq, srcs, choice.cluster.0);
                    }
                }

                self.clusters[cl].window_occupancy += 1;
                self.count.dispatched[cl] += 1;
                if let Some(flagged) = self.unbalance.record(cl) {
                    self.count.unbalance_groups += 1;
                    self.count.unbalance_flagged += u64::from(flagged);
                }

                if (seq as usize) < self.timeline_limit {
                    debug_assert_eq!(self.timeline.len() as u64, seq);
                    self.timeline.push(UopTiming {
                        seq,
                        pc: d.pc,
                        op: d.op,
                        cluster: choice.cluster.0,
                        fetch: fetched.fetch_cycle,
                        dispatch: self.cycle,
                        issue: 0,
                        complete: 0,
                        commit: 0,
                    });
                }
                let bit = |on: bool, flag: u8| if on { flag } else { 0 };
                let flags = bit(d.is_load(), F_LOAD)
                    | bit(d.is_store(), F_STORE)
                    | bit(fetched.mispredicted, F_MISPREDICTED);
                self.rob.push(SlotPush {
                    seq,
                    dispatch_cycle: self.cycle,
                    srcs,
                    dst,
                    old_phys,
                    class: d.class,
                    cluster: choice.cluster.0,
                    thread: tid as u8,
                    flags,
                    pending_srcs,
                    old_subset,
                    next_waiter,
                    eff_addr: d.eff_addr.unwrap_or(0),
                });
            }
        }
        self.renamer.end_cycle(self.cycle);
        self.note_deadlock(rename_blocked);
    }

    /// Books a dispatch cycle lost to a full ROB or cluster window.
    fn window_stall(&mut self) {
        self.count.stalls.window += 1;
        self.dispatch_block = DispatchBlock::Window;
    }

    /// Feeds the §2.3 detector. When it fires, workaround (b) runs if
    /// enabled: the window is empty, so no in-flight µop references any
    /// mapping, and every one in the exhausted subset may move, each to the
    /// other subset with the most free registers. Without recovery, or
    /// with no free register anywhere, the machine is deadlocked.
    fn note_deadlock(&mut self, rename_blocked: bool) {
        let empty = self.rob.is_empty();
        if !self
            .deadlock
            .observe(rename_blocked, empty && rename_blocked)
        {
            return;
        }
        let recovered = match self.blocked_subset {
            Some((class, stuck)) if self.cfg.deadlock_recovery => {
                debug_assert!(empty, "recovery requires a drained window");
                let free = |e: &Self, s: Subset| e.renamer.available(class, s);
                self.remap_out_of(
                    class,
                    stuck,
                    |_, _| true,
                    |e| {
                        e.subsets_but(stuck)
                            .max_by_key(|&s| free(e, s))
                            .filter(|&s| free(e, s) > 0)
                    },
                )
            }
            _ => false,
        };
        if recovered {
            self.deadlock.reset();
            self.blocked_subset = None;
        } else {
            self.deadlocked = true;
        }
    }

    /// Every register subset except `stuck`, in index order.
    pub(super) fn subsets_but(&self, stuck: Subset) -> impl Iterator<Item = Subset> {
        (0..self.renamer.config().subsets)
            .map(|s| Subset(s as u8))
            .filter(move |&s| s != stuck)
    }

    /// The §2.3 workaround (b): an exception is raised; its handler issues
    /// up to a dispatch group of moves, each remapping one architectural
    /// register of `class` (of any hardware thread) whose physical
    /// register `movable` accepts out of `stuck`, onto the subset `target`
    /// picks (asked before every move; `None` ends the handler). The
    /// exception costs a pipeline refill, modelled as the misprediction
    /// penalty: moved values become readable, and dispatch resumes, once
    /// the handler ends. Returns whether anything moved — only then does
    /// the exception count as a recovery.
    pub(super) fn remap_out_of(
        &mut self,
        class: RegClass,
        stuck: Subset,
        movable: impl Fn(&Self, u32) -> bool,
        target: impl Fn(&Self) -> Option<Subset>,
    ) -> bool {
        let mut victims = Vec::new();
        for tid in 0..self.cfg.threads {
            for (l, m) in self.renamer.map_table_for(tid, class).iter() {
                if m.subset == stuck && movable(self, m.phys.0) {
                    victims.push((tid, l));
                }
            }
        }
        let ci = class_index(class);
        let done_at = self.cycle + self.cfg.min_mispredict_penalty;
        let mut moved = 0;
        for (tid, logical) in victims.into_iter().take(self.cfg.fetch_width) {
            let Some(target) = target(self) else { break };
            let Some(new) = self
                .renamer
                .force_remap_for(tid, class, logical, target, self.cycle)
            else {
                break;
            };
            self.vp_move(ci, stuck, target);
            let home = self.cfg.mode.home_cluster(new.subset);
            self.reg_info[ci][new.phys.0 as usize] = RegInfo::new(done_at, home.0, false);
            moved += 1;
        }
        if moved > 0 {
            self.dispatch_frozen_until = self.dispatch_frozen_until.max(done_at);
            self.recoveries += 1;
        }
        moved > 0
    }
}
