//! Commit: in-order retirement, store writeback and register reclamation.

use super::{tagged_addr, Engine};

impl Engine<'_> {
    pub(super) fn commit(&mut self) {
        self.committed_this_cycle = 0;
        for _ in 0..self.cfg.fetch_width {
            if self.rob.is_empty() || !self.rob.is_done(0) || self.rob.done_cycle(0) > self.cycle {
                break;
            }
            let slot = self.rob.pop_front();
            if let Some(e) = self.timeline.get_mut(slot.seq as usize) {
                e.commit = self.cycle;
            }
            let tid = slot.thread as usize;
            if slot.is_store() {
                self.hierarchy
                    .store(tagged_addr(tid, slot.eff_addr), self.cycle);
                self.store_queues[tid].remove(slot.seq);
            }
            if slot.dst.is_some() {
                let old = slot.old_mapping();
                if let Some(vp) = self.vp.as_mut() {
                    vp.used[slot.dst.class_index()][old.subset.index()] -= 1;
                }
                self.renamer.free(slot.dst.class(), old, self.cycle);
            }
            self.clusters[slot.cluster as usize].window_occupancy -= 1;
            self.retired += 1;
            self.committed_this_cycle += 1;
            self.thread_retired[tid] += 1;
        }
    }
}
