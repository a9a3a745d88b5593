//! A fixed-horizon calendar wheel for the event scheduler.
//!
//! The event-driven issue path books each µop for the cycle its operands
//! become usable. Almost every booking lands within a small, statically
//! bounded distance of the current cycle (worst-case operand latency plus
//! forwarding), so a ring of `horizon` buckets indexed by `cycle & mask`
//! serves them with no per-event allocation and O(1) schedule/drain. The
//! rare booking beyond the horizon (L2 bus queuing under a miss burst, or
//! stress configurations with inflated penalties) goes to a plain overflow
//! vector that is only scanned once its earliest entry comes due.
//!
//! The wheel requires its user to drain cycles in order — a ring bucket
//! is unambiguous because among the undrained cycles
//! `[base, base + horizon)` no two share an index. The engine's main loop
//! drains one cycle per iteration; the event-horizon fast path may
//! instead ask for the [`CalendarWheel::next_due`] cycle and
//! [`CalendarWheel::advance_to`] it in one jump, which is sound exactly
//! because the skipped-over buckets are provably empty.

/// Seqs a ring bucket stores inline. Sized for the common burst (a
/// dispatch group's worth of same-cycle wakeups); rarer bursts spill to
/// the overflow vector, which handles any due cycle, not only
/// beyond-horizon ones.
const BUCKET_CAP: usize = 8;

/// Calendar wheel: `schedule(due, seq)` then `drain_due(cycle, out)` once
/// per cycle with consecutive `cycle` values.
///
/// Buckets are stored *flat* — `BUCKET_CAP` slots per bucket in one
/// contiguous allocation plus a byte of occupancy each — so schedule and
/// drain touch exactly one line of the slot array and one of the count
/// array, instead of chasing a per-bucket heap pointer that has gone cold
/// by the time its cycle comes around.
#[derive(Clone, Debug)]
pub struct CalendarWheel {
    /// `BUCKET_CAP` inline slots per bucket: bucket `b` owns
    /// `slots[b * BUCKET_CAP ..][..counts[b]]`.
    slots: Vec<u64>,
    /// Occupancy of each bucket's inline slots.
    counts: Vec<u8>,
    horizon: usize,
    mask: u64,
    /// Next cycle to drain; all ring entries are due in
    /// `[base, base + horizon)`.
    base: u64,
    /// Bookings beyond the horizon *or* spilled from a full bucket:
    /// `(due, seq)`, unsorted.
    overflow: Vec<(u64, u64)>,
    /// Earliest due cycle in `overflow` (`u64::MAX` when empty), so the
    /// drain path touches the vector only when something is actually due.
    overflow_min: u64,
    /// Events currently booked (ring + overflow).
    len: usize,
}

impl CalendarWheel {
    /// Creates a wheel with `horizon` ring buckets.
    ///
    /// # Panics
    ///
    /// Panics unless `horizon` is a power of two (ring indexing is a mask).
    #[must_use]
    pub fn new(horizon: usize) -> Self {
        assert!(horizon.is_power_of_two() && horizon >= 2);
        CalendarWheel {
            slots: vec![0; horizon * BUCKET_CAP],
            counts: vec![0; horizon],
            horizon,
            mask: horizon as u64 - 1,
            base: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            len: 0,
        }
    }

    /// Books `seq` for cycle `due`. `due` must not precede the next drain
    /// cycle, or the event would never fire.
    pub fn schedule(&mut self, due: u64, seq: u64) {
        debug_assert!(
            due >= self.base,
            "due {due} before drain base {}",
            self.base
        );
        if due - self.base < self.horizon as u64 {
            let b = (due & self.mask) as usize;
            let n = self.counts[b] as usize;
            if n < BUCKET_CAP {
                self.slots[b * BUCKET_CAP + n] = seq;
                self.counts[b] = n as u8 + 1;
            } else {
                self.overflow.push((due, seq));
                self.overflow_min = self.overflow_min.min(due);
            }
        } else {
            self.overflow.push((due, seq));
            self.overflow_min = self.overflow_min.min(due);
        }
        self.len += 1;
    }

    /// The earliest cycle any booked event is due, or `None` when the
    /// wheel is empty. The ring scan walks occupancy bytes in due order
    /// starting at the next drain cycle and stops at the first hit (or at
    /// `overflow_min`, whichever is earlier), so its cost is bounded by
    /// the distance to the answer — the cycles a caller then skips.
    #[must_use]
    pub fn next_due(&self) -> Option<u64> {
        let due = self.next_due_before(u64::MAX);
        debug_assert_eq!(
            due.is_none(),
            self.len == 0,
            "non-empty wheel must have a due cycle"
        );
        due
    }

    /// The earliest cycle any booked event is due **strictly before**
    /// `limit`, or `None` when nothing is due that early. Identical to
    /// [`CalendarWheel::next_due`] with the occupancy scan truncated at
    /// `limit`: a caller that already holds a tighter bound on how far it
    /// can jump pays at most `limit - base` probes, instead of scanning
    /// all the way out to a next event it could never reach anyway.
    #[must_use]
    pub fn next_due_before(&self, limit: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mut best = self.overflow_min;
        for off in 0..self.horizon as u64 {
            let due = self.base + off;
            if due >= best || due >= limit {
                break;
            }
            if self.counts[(due & self.mask) as usize] > 0 {
                best = due;
                break;
            }
        }
        (best < limit).then_some(best)
    }

    /// Advances the drain position to `cycle` without draining, for
    /// callers that have proven (via [`CalendarWheel::next_due`]) that no
    /// event is due in `[base, cycle)`. The next [`CalendarWheel::drain_due`]
    /// must then be called with exactly `cycle`.
    pub fn advance_to(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.base, "wheel advanced backwards");
        debug_assert!(
            self.next_due().is_none_or(|d| d >= cycle),
            "skipping over a due event"
        );
        self.base = cycle;
    }

    /// Appends every seq due at exactly `cycle` to `out` and advances the
    /// wheel. Within-cycle order is unspecified — callers that need a
    /// deterministic order must sort. Steady state allocates nothing:
    /// drained buckets keep their capacity.
    pub fn drain_due(&mut self, cycle: u64, out: &mut Vec<u64>) {
        debug_assert_eq!(cycle, self.base, "wheel drained out of order");
        self.base = cycle + 1;
        let b = (cycle & self.mask) as usize;
        let n = std::mem::replace(&mut self.counts[b], 0) as usize;
        if n > 0 {
            self.len -= n;
            out.extend_from_slice(&self.slots[b * BUCKET_CAP..b * BUCKET_CAP + n]);
        }
        if self.overflow_min <= cycle {
            let mut min = u64::MAX;
            let mut k = 0;
            while k < self.overflow.len() {
                let (due, seq) = self.overflow[k];
                if due <= cycle {
                    debug_assert_eq!(due, cycle, "overflow entry missed its cycle");
                    out.push(seq);
                    self.len -= 1;
                    self.overflow.swap_remove(k);
                } else {
                    min = min.min(due);
                    k += 1;
                }
            }
            self.overflow_min = min;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(w: &mut CalendarWheel, cycle: u64) -> Vec<u64> {
        let mut out = Vec::new();
        w.drain_due(cycle, &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn delivers_at_exact_cycle() {
        let mut w = CalendarWheel::new(8);
        w.schedule(3, 30);
        w.schedule(1, 10);
        w.schedule(3, 31);
        assert_eq!(w.len, 3);
        assert_eq!(drained(&mut w, 0), vec![]);
        assert_eq!(drained(&mut w, 1), vec![10]);
        assert_eq!(drained(&mut w, 2), vec![]);
        assert_eq!(drained(&mut w, 3), vec![30, 31]);
        assert_eq!(w.len, 0);
    }

    #[test]
    fn ring_wraps_across_many_horizons() {
        let mut w = CalendarWheel::new(4);
        let mut hits = Vec::new();
        for cycle in 0..64 {
            // Book one event `horizon - 1` ahead every cycle.
            w.schedule(cycle + 3, cycle);
            let mut out = Vec::new();
            w.drain_due(cycle, &mut out);
            hits.extend(out);
        }
        // Event booked at cycle c fires at c + 3.
        assert_eq!(hits, (0..61).collect::<Vec<_>>());
        assert_eq!(w.len, 3);
    }

    #[test]
    fn overflow_round_trips_beyond_horizon() {
        let mut w = CalendarWheel::new(8);
        // Far beyond the 8-cycle horizon: must take the overflow path and
        // still fire at exactly the booked cycle.
        w.schedule(100, 7);
        w.schedule(23, 5);
        w.schedule(2, 1);
        assert_eq!(w.len, 3);
        let mut fired = Vec::new();
        for cycle in 0..=100 {
            let mut out = Vec::new();
            w.drain_due(cycle, &mut out);
            for seq in out {
                fired.push((cycle, seq));
            }
        }
        assert_eq!(fired, vec![(2, 1), (23, 5), (100, 7)]);
        assert_eq!(w.len, 0);
    }

    #[test]
    fn overflow_and_ring_share_a_cycle() {
        let mut w = CalendarWheel::new(4);
        w.schedule(40, 2); // overflow
        for cycle in 0..38 {
            let mut out = Vec::new();
            w.drain_due(cycle, &mut out);
            assert!(out.is_empty());
        }
        w.schedule(40, 1); // now within the ring
        assert_eq!(drained(&mut w, 38), vec![]);
        assert_eq!(drained(&mut w, 39), vec![]);
        assert_eq!(drained(&mut w, 40), vec![1, 2]);
    }

    #[test]
    fn steady_state_does_not_grow_capacity() {
        let mut w = CalendarWheel::new(8);
        let mut out = Vec::with_capacity(4);
        // Warm one lap of the ring.
        for cycle in 0..8 {
            w.schedule(cycle + 1, cycle);
            out.clear();
            w.drain_due(cycle, &mut out);
        }
        let caps = (w.slots.capacity(), w.overflow.capacity());
        for cycle in 8..80 {
            w.schedule(cycle + 1, cycle);
            out.clear();
            w.drain_due(cycle, &mut out);
        }
        assert_eq!(
            caps,
            (w.slots.capacity(), w.overflow.capacity()),
            "wheel storage must be stable in steady state"
        );
    }

    #[test]
    fn full_bucket_spills_to_overflow_and_still_fires() {
        let mut w = CalendarWheel::new(8);
        // More same-cycle events than one bucket holds inline.
        let n = BUCKET_CAP + 5;
        for seq in 0..n as u64 {
            w.schedule(3, seq);
        }
        assert_eq!(w.len, n);
        assert_eq!(drained(&mut w, 0), vec![]);
        assert_eq!(drained(&mut w, 1), vec![]);
        assert_eq!(drained(&mut w, 2), vec![]);
        assert_eq!(drained(&mut w, 3), (0..n as u64).collect::<Vec<_>>());
        assert_eq!(w.len, 0);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_horizon_rejected() {
        let _ = CalendarWheel::new(6);
    }

    #[test]
    fn next_due_finds_ring_overflow_and_empty() {
        let mut w = CalendarWheel::new(8);
        assert_eq!(w.next_due(), None);
        w.schedule(5, 50);
        assert_eq!(w.next_due(), Some(5));
        w.schedule(3, 30);
        assert_eq!(w.next_due(), Some(3), "earlier ring booking wins");
        w.schedule(100, 7); // overflow
        assert_eq!(w.next_due(), Some(3));
        let mut out = Vec::new();
        w.drain_due(0, &mut out);
        w.drain_due(1, &mut out);
        w.drain_due(2, &mut out);
        w.drain_due(3, &mut out);
        assert_eq!(out, vec![30]);
        assert_eq!(w.next_due(), Some(5));
        w.drain_due(4, &mut out);
        w.drain_due(5, &mut out);
        assert_eq!(w.next_due(), Some(100), "only the overflow entry left");
    }

    #[test]
    fn advance_to_jumps_over_empty_buckets() {
        let mut w = CalendarWheel::new(8);
        w.schedule(40, 4); // overflow (beyond horizon from base 0)
        assert_eq!(w.next_due(), Some(40));
        w.advance_to(40);
        assert_eq!(drained(&mut w, 40), vec![4]);
        assert_eq!(w.len, 0);
        // Ring bookings survive a jump to exactly their due cycle, and the
        // ring indexing stays consistent after the base moved non-contiguously.
        w.schedule(43, 9);
        w.advance_to(43);
        assert_eq!(drained(&mut w, 43), vec![9]);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn advance_past_due_event_is_rejected() {
        let mut w = CalendarWheel::new(8);
        w.schedule(2, 1);
        w.advance_to(3);
    }
}
