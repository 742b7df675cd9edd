//! Owner-sharded double-buffered frontiers.
//!
//! The original engine kept one shared activation list per parity; every
//! compute thread then scanned the *entire* frontier and skipped vertices
//! outside its contiguous chunk — an O(frontier × threads) scan per
//! superstep. [`ShardedFrontier`] routes each activation to the owning
//! thread's shard list at activation time instead, so the snapshot step
//! touches every frontier entry exactly once and activation pushes spread
//! over `shards` locks instead of contending on one.
//!
//! Shard `t` owns the local-index range `[⌈t·n/T⌉, ⌈(t+1)·n/T⌉)`; with
//! ceiling boundaries the owner of index `li` is exactly
//! `⌊li·T/n⌋` — an O(1) integer inverse, no search. Deduplication still
//! comes from the per-vertex activation bit: the first `mark` of a parity
//! epoch wins the push, so every activated master lands in **exactly one**
//! shard **exactly once** (the property test below pins this).

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};

/// A double-buffered activation frontier partitioned by owning shard.
///
/// `parity` selects which of the two superstep buffers a call touches; the
/// engine marks into `next` while consuming `cur`, exactly like the old
/// bit-array + shared-list pair this replaces.
pub struct ShardedFrontier {
    num_masters: usize,
    shards: usize,
    /// Per-parity activation bits — the dedup authority.
    active: [Vec<AtomicBool>; 2],
    /// Per-parity, per-shard activation lists. Entries are unique (the bit
    /// gates the push) but unordered: list order depends on thread
    /// interleaving, so consumers sort before any order-sensitive use.
    lists: [Vec<Mutex<Vec<u32>>>; 2],
}

impl ShardedFrontier {
    /// Creates an empty frontier over `num_masters` vertices split across
    /// `shards` owner lists (normally one per compute thread).
    pub fn new(num_masters: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let bits = || (0..num_masters).map(|_| AtomicBool::new(false)).collect();
        let lists = || (0..shards).map(|_| Mutex::new(Vec::new())).collect();
        ShardedFrontier {
            num_masters,
            shards,
            active: [bits(), bits()],
            lists: [lists(), lists()],
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning local index `li`: `⌊li·T/n⌋`, the exact inverse of
    /// the ceiling-boundary shard ranges. One shard owns everything, and
    /// says so without the 64-bit division — every first mark of a
    /// single-threaded worker comes through here.
    #[inline]
    pub fn owner(&self, li: usize) -> usize {
        if self.shards == 1 || self.num_masters == 0 {
            return 0;
        }
        (li as u64 * self.shards as u64 / self.num_masters as u64) as usize
    }

    /// Activates master `li` for the given parity. The activation bit
    /// deduplicates: only the first mark of an epoch pushes onto the
    /// owner's shard list.
    #[inline]
    pub fn mark(&self, parity: usize, li: usize) {
        // `& 1`: a parity by construction. Saying so here keeps the buffer
        // bounds check out of the engine's hottest call (once per edge of
        // every publishing vertex) however a caller derives the value.
        let parity = parity & 1;
        let bit = &self.active[parity][li];
        // Re-marking an already active reader is the common case (in a
        // pull-mode superstep all but the first of a vertex's in-edges), so
        // test before the locked read-modify-write. The swap still
        // arbitrates racing first marks: exactly one of them reads clear.
        // A stale `false` only sends a re-mark to the swap; a `true` is
        // final until this parity's compute consumes the bit, which a
        // barrier separates from every mark.
        if !bit.load(Ordering::Relaxed) && !bit.swap(true, Ordering::Relaxed) {
            self.lists[parity][self.owner(li)].lock().push(li as u32);
        }
    }

    /// Clears `li`'s activation bit — called as compute consumes the entry,
    /// re-arming the dedup for the next same-parity epoch.
    #[inline]
    pub fn consume(&self, parity: usize, li: usize) {
        self.active[parity][li].store(false, Ordering::Relaxed);
    }

    /// Whether `li` is currently marked for `parity`. Checkpoint capture
    /// reads this between the parse and compute phases.
    #[inline]
    pub fn is_marked(&self, parity: usize, li: usize) -> bool {
        self.active[parity][li].load(Ordering::Relaxed)
    }

    /// Total queued activations for `parity`. Leader-only (called between
    /// barriers, racing with no pushes to that parity).
    pub fn len(&self, parity: usize) -> usize {
        self.lists[parity].iter().map(|l| l.lock().len()).sum()
    }

    /// Whether `parity` has no queued activations.
    pub fn is_empty(&self, parity: usize) -> bool {
        self.len(parity) == 0
    }

    /// Drains every shard list — in shard order, each shard sorted
    /// ascending — into `flat`, pushing each shard's cumulative end offset
    /// onto `ends` (so `flat[ends[t-1]..ends[t]]` is shard `t`). Because
    /// shard ranges are contiguous and ascending, `flat` comes out globally
    /// sorted: snapshot order (and hence chunk contents, reduction order,
    /// and float results) is independent of activation interleaving, and
    /// compute walks the CSR in index order. Leader-only, between barriers.
    pub fn drain_sorted(&self, parity: usize, flat: &mut Vec<u32>, ends: &mut Vec<u32>) {
        flat.clear();
        ends.clear();
        for shard in &self.lists[parity] {
            let start = flat.len();
            flat.append(&mut shard.lock());
            flat[start..].sort_unstable();
            ends.push(flat.len() as u32);
        }
        debug_assert!(flat.windows(2).all(|w| w[0] < w[1]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn owner_is_exact_inverse_of_shard_ranges() {
        // ⌊li·T/n⌋ must map li to the shard whose ceiling-boundary range
        // contains it, for every (n, T) shape including T > n.
        for n in 1..=40usize {
            for t in 1..=8usize {
                let f = ShardedFrontier::new(n, t);
                let ceil = |shard: usize| (shard * n).div_ceil(t);
                for li in 0..n {
                    let s = f.owner(li);
                    assert!(
                        ceil(s) <= li && li < ceil(s + 1),
                        "n={n} T={t} li={li}: owner {s} range [{}, {})",
                        ceil(s),
                        ceil(s + 1)
                    );
                }
            }
        }
    }

    #[test]
    fn mark_deduplicates_within_a_parity() {
        let f = ShardedFrontier::new(10, 3);
        f.mark(0, 4);
        f.mark(0, 4);
        f.mark(0, 4);
        f.mark(1, 4); // other parity is independent
        assert_eq!(f.len(0), 1);
        assert_eq!(f.len(1), 1);
        f.consume(0, 4);
        assert!(!f.is_marked(0, 4));
        assert!(f.is_marked(1, 4));
        // After consume, the same parity accepts the vertex again.
        f.mark(0, 4);
        assert_eq!(f.len(0), 2);
    }

    #[test]
    fn contended_remarks_push_each_index_exactly_once() {
        // Four threads, released together, hammer the same eight indices:
        // every mark after an index's first takes the load-only path while
        // first marks race on the swap. Each index must be drained once.
        let f = ShardedFrontier::new(64, 2);
        let indices = [0usize, 7, 8, 31, 32, 33, 62, 63];
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..10_000 {
                        for &li in &indices {
                            f.mark(1, li);
                        }
                    }
                });
            }
        });
        let (mut flat, mut ends) = (Vec::new(), Vec::new());
        f.drain_sorted(1, &mut flat, &mut ends);
        let expected: Vec<u32> = indices.iter().map(|&li| li as u32).collect();
        assert_eq!(flat, expected);
        assert_eq!(ends, vec![4, 8]);
        assert!(f.is_empty(0), "the other parity saw nothing");
    }

    #[test]
    fn drain_sorted_yields_sorted_flat_and_shard_ends() {
        let f = ShardedFrontier::new(12, 3); // shards: [0,4) [4,8) [8,12)
        for li in [9, 1, 5, 0, 11, 6] {
            f.mark(0, li);
        }
        let (mut flat, mut ends) = (vec![99], vec![99]);
        f.drain_sorted(0, &mut flat, &mut ends);
        assert_eq!(flat, vec![0, 1, 5, 6, 9, 11]);
        assert_eq!(ends, vec![2, 4, 6]);
        assert_eq!(f.len(0), 0, "drain empties the lists");
        // Bits are untouched by drain; compute consumes them.
        assert!(f.is_marked(0, 9));
    }

    proptest! {
        /// The satellite property: under concurrent random activation
        /// patterns (with duplicates), every activated master appears in
        /// exactly one shard's list exactly once — no drops, no duplicates,
        /// always in its owner's shard.
        #[test]
        fn every_activation_lands_in_exactly_one_shard_once(
            n in 1usize..200,
            shards in 1usize..9,
            threads in 1usize..5,
            marks in proptest::collection::vec(any::<u32>(), 0..400),
        ) {
            let f = ShardedFrontier::new(n, shards);
            let marks: Vec<usize> = marks.iter().map(|&m| m as usize % n).collect();
            let per = marks.len().div_ceil(threads).max(1);
            std::thread::scope(|s| {
                for chunk in marks.chunks(per) {
                    let f = &f;
                    s.spawn(move || {
                        for &li in chunk {
                            f.mark(0, li);
                        }
                    });
                }
            });
            let mut expected: Vec<u32> = marks.iter().map(|&li| li as u32).collect();
            expected.sort_unstable();
            expected.dedup();
            // Collect shard contents, checking ownership.
            let (mut flat, mut ends) = (Vec::new(), Vec::new());
            f.drain_sorted(0, &mut flat, &mut ends);
            let mut start = 0usize;
            for (shard, &end) in ends.iter().enumerate() {
                for &li in &flat[start..end as usize] {
                    prop_assert_eq!(
                        f.owner(li as usize), shard,
                        "vertex {} drained from shard {}", li, shard
                    );
                }
                start = end as usize;
            }
            prop_assert_eq!(flat, expected);
        }
    }
}
