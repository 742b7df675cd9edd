//! The double-buffered activation frontier: one bit per master per parity.
//!
//! An activation is a bit. A parity is `⌈masters/64⌉` atomic words; `mark`
//! sets a bit with no list push, no lock and no owner lookup, and the
//! snapshot walks the words in order, so the active set comes out ascending
//! with no sort — snapshot order (hence chunk contents, reduction order and
//! float results) is independent of activation interleaving, and compute
//! walks the CSR in index order.
//!
//! Who may call what, per worker and parity `p`:
//!
//! * `mark(p, _)` — INIT, before the threads start; then any thread of the
//!   worker, in CMP of a superstep of the other parity (local activations
//!   for the next superstep) and in PRS of a superstep of parity `p` (remote
//!   activations for this one).
//! * `is_marked(p, _)` — after PRS's barrier and before the snapshot
//!   (checkpoint capture, bucket seeding).
//! * `snapshot(p, ..)` — the worker leader alone, between the barrier that
//!   ends PRS and the one that opens CMP. It clears the words as it reads
//!   them: the next `mark(p, _)` is in CMP of the *following* superstep, a
//!   full superstep and several barriers later, so nothing marks a parity
//!   while it is being cleared and no per-vertex re-arm is needed.
//! * `len(p)` — the worker leader, after the barrier that ends the CMP which
//!   marked `p`.
//!
//! Every access is `Relaxed`: a bit publishes nothing but itself, and each
//! hand-over above crosses one of the worker's barriers, which orders it.

use std::sync::atomic::{AtomicU64, Ordering};

/// A double-buffered activation bitmap. `parity` selects which of the two
/// superstep buffers a call touches; the engine marks into `next` while it
/// computes the snapshot of `cur`.
pub struct Frontier {
    num_masters: usize,
    shards: usize,
    words: [Vec<AtomicU64>; 2],
}

impl Frontier {
    /// Creates an empty frontier over `num_masters` vertices whose snapshot
    /// is cut into `shards` contiguous ranges (normally one per compute
    /// thread).
    pub fn new(num_masters: usize, shards: usize) -> Self {
        let words = || {
            (0..num_masters.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect()
        };
        Frontier {
            num_masters,
            shards: shards.max(1),
            words: [words(), words()],
        }
    }

    /// Activates master `li` for the given parity.
    #[inline]
    pub fn mark(&self, parity: usize, li: usize) {
        debug_assert!(li < self.num_masters);
        // `& 1`: a parity by construction. Saying so here keeps the buffer
        // bounds check out of the engine's hottest call (once per edge of
        // every publishing vertex) however a caller derives the value.
        let word = &self.words[parity & 1][li / 64];
        let bit = 1u64 << (li % 64);
        // Re-marking an already active reader is the common case (in a
        // pull-mode superstep all but the first of a vertex's in-edges), so
        // test before the locked read-modify-write. A stale clear bit only
        // sends a re-mark to the `fetch_or`, which is idempotent.
        if word.load(Ordering::Relaxed) & bit == 0 {
            word.fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Whether `li` is currently marked for `parity`.
    #[inline]
    pub fn is_marked(&self, parity: usize, li: usize) -> bool {
        self.words[parity & 1][li / 64].load(Ordering::Relaxed) & (1 << (li % 64)) != 0
    }

    /// Number of masters marked for `parity`.
    pub fn len(&self, parity: usize) -> usize {
        self.words[parity & 1]
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Moves the parity's marked masters into `flat`, ascending, and leaves
    /// the parity empty. `ends` gets each shard's cumulative end offset, so
    /// `flat[ends[t-1]..ends[t]]` is the part of `flat` inside shard `t`'s
    /// range `[⌈t·n/T⌉, ⌈(t+1)·n/T⌉)`. Reads every word whatever the parity
    /// holds: `⌈n/64⌉` loads for an empty frontier.
    pub fn snapshot(&self, parity: usize, flat: &mut Vec<u32>, ends: &mut Vec<u32>) {
        flat.clear();
        ends.clear();
        for (i, word) in self.words[parity & 1].iter().enumerate() {
            let mut bits = word.load(Ordering::Relaxed);
            if bits == 0 {
                continue;
            }
            word.store(0, Ordering::Relaxed);
            while bits != 0 {
                flat.push((i * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        let (n, shards) = (self.num_masters, self.shards);
        ends.extend((1..=shards).map(|t| {
            let bound = (t * n).div_ceil(shards);
            flat.partition_point(|&li| (li as usize) < bound) as u32
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn contended_remarks_push_each_index_exactly_once() {
        // Four threads, released together, hammer the same eight indices:
        // every mark after an index's first takes the load-only path while
        // first marks race on the `fetch_or`. Each index must be drained once.
        let f = Frontier::new(64, 2);
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
        f.snapshot(1, &mut flat, &mut ends);
        let expected: Vec<u32> = indices.iter().map(|&li| li as u32).collect();
        assert_eq!(flat, expected);
        assert_eq!(ends, vec![4, 8]);
        assert_eq!(f.len(0), 0, "the other parity saw nothing");
    }

    proptest! {
        /// The frontier against its model, a sorted set: concurrent marks
        /// with duplicates, word-boundary sizes, more shards than masters.
        #[test]
        fn snapshot_is_the_sorted_set_of_marks_cut_at_the_shard_ranges(
            n in (0usize..8, 1usize..300)
                .prop_map(|(edge, n)| [63, 64, 65, 128].get(edge).copied().unwrap_or(n)),
            shards in 1usize..9,
            threads in 1usize..5,
            marks in proptest::collection::vec(any::<u32>(), 0..400),
            parity in 0usize..2,
        ) {
            let f = Frontier::new(n, shards);
            f.mark(parity ^ 1, n - 1);
            let marks: Vec<usize> = marks.iter().map(|&m| m as usize % n).collect();
            let mut expected: Vec<u32> = marks.iter().map(|&li| li as u32).collect();
            expected.sort_unstable();
            expected.dedup();
            // The ceiling shard ranges: shard t is [⌈t·n/T⌉, ⌈(t+1)·n/T⌉).
            let expected_ends: Vec<u32> = (1..=shards)
                .map(|t| {
                    let bound = ((t * n).div_ceil(shards)) as u32;
                    expected.iter().filter(|&&li| li < bound).count() as u32
                })
                .collect();
            let (mut flat, mut ends) = (vec![99], vec![99]);
            // Twice: a snapshot re-arms its parity for the same indices.
            for round in 0..2 {
                let per = marks.len().div_ceil(threads).max(1);
                std::thread::scope(|s| {
                    for chunk in marks.chunks(per) {
                        let f = &f;
                        s.spawn(move || {
                            for &li in chunk {
                                f.mark(parity, li);
                            }
                        });
                    }
                });
                prop_assert_eq!(f.len(parity), expected.len(), "round {}", round);
                prop_assert!(expected.iter().all(|&li| f.is_marked(parity, li as usize)));
                f.snapshot(parity, &mut flat, &mut ends);
                prop_assert_eq!(&flat, &expected, "round {}", round);
                prop_assert_eq!(&ends, &expected_ends, "round {}", round);
                prop_assert_eq!(f.len(parity), 0);
                prop_assert!((0..n).all(|li| !f.is_marked(parity, li)));
                prop_assert!(
                    f.len(parity ^ 1) == 1 && f.is_marked(parity ^ 1, n - 1),
                    "the other parity is untouched"
                );
            }
        }
    }
}
