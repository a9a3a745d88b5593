//! Store-queue disambiguation — the paper's load/store discipline.
//!
//! §5.2: *"Load/store addresses were computed in order, loads bypassing
//! stores whenever no conflict were encountered."* The timing core computes
//! addresses in program order; this module answers, for a load about to
//! issue, whether an older in-flight store conflicts (same word) — in which
//! case the load waits for the store's data and forwards — or whether it may
//! bypass.

/// Outcome of a store-queue lookup for a load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreQueueQuery {
    /// No older store overlaps: the load may access the cache.
    NoConflict,
    /// An older store to the same word is in flight; the load must take its
    /// value via forwarding. Carries the store's sequence number.
    ForwardFrom(u64),
}

#[derive(Clone, Copy, Debug)]
struct PendingStore {
    seq: u64,
    /// Word address (byte address >> 3).
    word: u64,
}

/// In-flight stores, ordered by sequence number (program order).
///
/// Stores enter when their address is computed (in order) and leave at
/// commit, when the value is written to the cache.
#[derive(Clone, Debug, Default)]
pub struct StoreQueue {
    stores: Vec<PendingStore>,
}

impl StoreQueue {
    /// An empty store queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of in-flight stores.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// Whether no stores are in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }

    /// Registers a store whose address just became known.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not strictly greater than the youngest registered
    /// store (addresses are computed in program order).
    pub fn insert(&mut self, seq: u64, byte_addr: u64) {
        if let Some(last) = self.stores.last() {
            assert!(last.seq < seq, "store addresses must arrive in order");
        }
        self.stores.push(PendingStore {
            seq,
            word: byte_addr >> 3,
        });
    }

    /// Removes the store `seq` (at commit). Unknown sequence numbers are
    /// ignored, so speculative flushes may call this unconditionally.
    pub fn remove(&mut self, seq: u64) {
        self.stores.retain(|s| s.seq != seq);
    }

    /// For a load with sequence `load_seq` to `byte_addr`: finds the
    /// youngest older store to the same word, if any.
    #[must_use]
    pub fn query(&self, load_seq: u64, byte_addr: u64) -> StoreQueueQuery {
        let word = byte_addr >> 3;
        self.stores
            .iter()
            .rev()
            .find(|s| s.seq < load_seq && s.word == word)
            .map_or(StoreQueueQuery::NoConflict, |s| {
                StoreQueueQuery::ForwardFrom(s.seq)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_bypasses_disjoint_store() {
        let mut q = StoreQueue::new();
        q.insert(1, 0x100);
        assert_eq!(q.query(2, 0x200), StoreQueueQuery::NoConflict);
    }

    #[test]
    fn load_forwards_from_youngest_matching_store() {
        let mut q = StoreQueue::new();
        q.insert(1, 0x100);
        q.insert(5, 0x100);
        assert_eq!(q.query(9, 0x100), StoreQueueQuery::ForwardFrom(5));
        assert_eq!(q.query(3, 0x100), StoreQueueQuery::ForwardFrom(1));
    }

    #[test]
    fn younger_stores_do_not_conflict() {
        let mut q = StoreQueue::new();
        q.insert(10, 0x100);
        assert_eq!(q.query(5, 0x100), StoreQueueQuery::NoConflict);
    }

    #[test]
    fn same_word_different_bytes_conflict() {
        let mut q = StoreQueue::new();
        q.insert(1, 0x100);
        assert_eq!(q.query(2, 0x104), StoreQueueQuery::ForwardFrom(1));
    }

    #[test]
    fn commit_removes() {
        let mut q = StoreQueue::new();
        q.insert(1, 0x100);
        q.remove(1);
        assert!(q.is_empty());
        assert_eq!(q.query(2, 0x100), StoreQueueQuery::NoConflict);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_insert_panics() {
        let mut q = StoreQueue::new();
        q.insert(5, 0x100);
        q.insert(3, 0x200);
    }
}
