//! Runtime deadlock detection (paper §2.3).
//!
//! Write specialization can deadlock when a register subset is smaller than
//! the architectural register file: all of a subset's physical registers
//! may come to hold architectural state, leaving renaming to that subset
//! permanently stalled once the window drains. The paper proposes two
//! workarounds: (a) cluster allocation avoids the situation, or (b) an
//! exception handler issues moves to other subsets
//! ([`Renamer::force_remap_for`](crate::Renamer::force_remap_for)).
//!
//! This monitor implements the *detection* half of workaround (b): it
//! observes rename progress each cycle and flags a deadlock when renaming
//! has been continuously blocked with an empty out-of-order window (so no
//! commit can ever free a register) for a configurable number of cycles.

/// Detects rename deadlocks. Feed it one observation per cycle.
#[derive(Clone, Copy, Debug)]
pub struct DeadlockMonitor {
    threshold: u64,
    blocked_cycles: u64,
    detected: bool,
}

impl DeadlockMonitor {
    /// A monitor that declares deadlock after `threshold` consecutive
    /// blocked-and-empty cycles.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    #[must_use]
    pub fn new(threshold: u64) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        DeadlockMonitor {
            threshold,
            blocked_cycles: 0,
            detected: false,
        }
    }

    /// Records one cycle: `rename_blocked` is true when a µop could not be
    /// renamed for lack of a free register; `window_empty` when no in-flight
    /// instruction can still commit and free one. Returns `true` the cycle
    /// deadlock is declared.
    pub fn observe(&mut self, rename_blocked: bool, window_empty: bool) -> bool {
        if rename_blocked && window_empty {
            self.blocked_cycles += 1;
            if self.blocked_cycles >= self.threshold {
                self.detected = true;
            }
        } else {
            self.blocked_cycles = 0;
        }
        self.detected
    }

    /// Clears the monitor (after the workaround has run).
    pub fn reset(&mut self) {
        self.blocked_cycles = 0;
        self.detected = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_resets_the_count() {
        let mut m = DeadlockMonitor::new(3);
        assert!(!m.observe(true, true));
        assert!(!m.observe(true, true));
        assert!(!m.observe(false, true)); // renamed something
        assert!(!m.observe(true, true));
        assert!(!m.observe(true, true));
        assert!(m.observe(true, true));
        assert!(m.observe(false, false), "detection is sticky");
    }

    #[test]
    fn blocked_with_nonempty_window_is_not_deadlock() {
        let mut m = DeadlockMonitor::new(2);
        for _ in 0..10 {
            assert!(!m.observe(true, false), "commits may still free registers");
        }
    }

    #[test]
    fn reset_clears_detection() {
        let mut m = DeadlockMonitor::new(1);
        assert!(m.observe(true, true));
        m.reset();
        assert!(!m.observe(false, false));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_panics() {
        let _ = DeadlockMonitor::new(0);
    }
}
