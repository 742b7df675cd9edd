//! The double-buffered activation frontier: one bit per master per parity —
//! and the fresh-slot bitmap a dense superstep fills it from.
//!
//! An activation is a bit. A parity is `⌈masters/64⌉` atomic words; `mark`
//! sets a bit with no list push, no lock and no owner lookup, and the
//! snapshot walks the words in order, so the active set comes out ascending
//! with no sort — snapshot order (hence chunk contents, reduction order and
//! float results) is independent of activation interleaving, and compute
//! walks the CSR in index order.
//!
//! A parity is filled from one of two sides, chosen per superstep by the
//! engine (`pull_wins`): *push* — whoever writes a view slot marks the slot's
//! readers, a bit test per reader entry — or *pull* — the writer sets the
//! slot's bit in [`FreshSlots`] and walks nothing, and [`Frontier::fill_from`]
//! later has each still-unmarked master scan its in-edge references for one
//! fresh slot. The reader tables are the inverse of `in_refs`, so both sides
//! produce the same set; which is cheaper depends on how much of the view
//! changed.
//!
//! Who may call what, per worker and parity `p`:
//!
//! * `mark(p, _)` — INIT, before the threads start; then any thread of the
//!   worker, in CMP of a superstep of the other parity (local activations
//!   for the next superstep) and in PRS of a superstep of parity `p` (remote
//!   activations for this one) — of a pushed superstep.
//! * `FreshSlots::writer().set(_)` — the same two sites of a pulled
//!   superstep, in `mark`'s place: master slots in CMP, replica and direct
//!   slots in the next PRS.
//! * `fill_from(p, ..)` — every thread of the worker, each on its own word
//!   range, at the two fill sites of a pulled superstep: after the barrier
//!   that ends the CMP which set master bits (so `len(p)` below sees exactly
//!   the local activations `mark` would have made), and after the barrier
//!   that ends the following PRS, when the replica and direct bits are in
//!   too (before `is_marked` and the snapshot). Nothing marks `p` or sets a
//!   fresh bit during a fill: both writers are behind the barrier it follows.
//! * `FreshSlots::clear()` — the worker leader, after the barrier that ends
//!   the second fill and before the one that opens CMP: every reader of the
//!   bits (the two fills) is behind the first, the next writer (a pulled CMP)
//!   beyond the second. The master bits are not cleared between the fills;
//!   the second re-tests them, which changes nothing — a master the first
//!   fill left unmarked has no fresh master reference.
//! * `is_marked(p, _)` — after PRS's barrier (and a pulled superstep's second
//!   fill) and before the snapshot (checkpoint capture).
//! * `snapshot(p, ..)` — the worker leader alone, between the barrier that
//!   ends PRS and the one that opens CMP. It takes every master and clears
//!   the words as it reads them: the next `mark(p, _)` is in CMP of the
//!   *following* superstep, a full superstep and several barriers later, so
//!   nothing marks a parity while it is being cleared and no per-vertex
//!   re-arm is needed.
//! * `len(p)` — the worker leader, after the barrier that ends the CMP which
//!   marked `p` (and a pulled superstep's first fill).
//!
//! A bucketed run's rounds wait where a per-hop round does; with `p =
//! start_superstep & 1` (the parity INIT and a resume mark):
//!
//! * `p` is the parked set: PRS's receivers and CMP's compute threads park
//!   readers at once, with `mark` (`mark_alone` if the worker has one
//!   thread); `snapshot(p, ..)` takes a round's due masters out; `is_marked`
//!   captures a checkpoint; after the last round, `marked(p)` gives the
//!   smallest parked priority and `len(p)` counts `next_active`.
//! * `p ^ 1` is the superstep's occupancy: its one writer, the leader, marks
//!   each selected master alone, and the epilogue's take-all `snapshot`
//!   counts and clears them.
//!
//! Every access is `Relaxed`: a bit publishes nothing but itself, and each
//! hand-over above crosses one of the worker's barriers, which orders it.

use crate::plan::WorkerPlan;
use std::sync::atomic::{AtomicU64, Ordering};

/// An all-clear bitmap of `bits` bits.
fn clear_words(bits: usize) -> Vec<AtomicU64> {
    (0..bits.div_ceil(64)).map(|_| AtomicU64::new(0)).collect()
}

/// Number of set bits.
fn count_ones(words: &[AtomicU64]) -> usize {
    (words.iter())
        .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
        .sum()
}

/// A double-buffered activation bitmap. `parity` selects which of the two
/// superstep buffers a call touches; the engine marks into `next` while it
/// computes the snapshot of `cur`.
pub struct Frontier {
    num_masters: usize,
    words: [Vec<AtomicU64>; 2],
}

impl Frontier {
    /// Creates an empty frontier over `num_masters` vertices.
    pub fn new(num_masters: usize) -> Self {
        Frontier {
            num_masters,
            words: [clear_words(num_masters), clear_words(num_masters)],
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

    /// [`Self::mark`] for a parity no other thread touches meanwhile (a
    /// bucketed run's occupancy, whose one writer is the worker leader, and
    /// the parked set of a worker with one thread): a plain store, not a
    /// locked `fetch_or`.
    pub(crate) fn mark_alone(&self, parity: usize, li: usize) {
        let word = &self.words[parity & 1][li / 64];
        let bits = word.load(Ordering::Relaxed) | 1 << (li % 64);
        word.store(bits, Ordering::Relaxed);
    }

    /// Whether `li` is currently marked for `parity`.
    #[inline]
    pub fn is_marked(&self, parity: usize, li: usize) -> bool {
        self.words[parity & 1][li / 64].load(Ordering::Relaxed) & (1 << (li % 64)) != 0
    }

    /// Number of masters marked for `parity`.
    pub fn len(&self, parity: usize) -> usize {
        count_ones(&self.words[parity & 1])
    }

    /// The pull side of activation: marks, for `parity`, every master with an
    /// in-edge reference to a fresh slot — what marking the readers of every
    /// fresh slot gives, because the plan's reader tables are the inverse of
    /// `in_refs`. A master already marked is skipped, an unmarked one scans
    /// its references until the first fresh slot, and a word's new bits go in
    /// with one `fetch_or`. A call covers share `part` of `parts` of the
    /// words, so a worker's threads can split a fill without sharing one.
    pub fn fill_from(
        &self,
        parity: usize,
        wp: &WorkerPlan,
        fresh: &FreshSlots,
        (part, parts): (usize, usize),
    ) {
        debug_assert_eq!(wp.num_masters(), self.num_masters);
        let words = &self.words[parity & 1];
        let first = part * words.len() / parts;
        let last = (part + 1) * words.len() / parts;
        for (i, word) in words.iter().enumerate().take(last).skip(first) {
            // The last word's bits past `num_masters` name no master.
            let in_range = match self.num_masters - i * 64 {
                n if n < 64 => (1u64 << n) - 1,
                _ => u64::MAX,
            };
            let mut unmarked = !word.load(Ordering::Relaxed) & in_range;
            let mut woken = 0u64;
            while unmarked != 0 {
                let bit = unmarked.trailing_zeros();
                unmarked &= unmarked - 1;
                let (start, end) = wp.in_ref_range(i * 64 + bit as usize);
                let refs = &wp.in_refs[start..end];
                woken |= (refs.iter().any(|&slot| fresh.is_set(slot as usize)) as u64) << bit;
            }
            if woken != 0 {
                word.fetch_or(woken, Ordering::Relaxed);
            }
        }
    }

    /// Moves the parity's marked masters that are `due` into `flat`,
    /// ascending, and leaves the rest marked (a per-hop round's selection
    /// takes all, a bucketed round's those parked below the bucket's end).
    /// Reads all `⌈n/64⌉` words whatever the parity holds.
    pub fn snapshot(&self, parity: usize, flat: &mut Vec<u32>, mut due: impl FnMut(usize) -> bool) {
        flat.clear();
        for (i, word) in self.words[parity & 1].iter().enumerate() {
            let (marked, mut bits) = (word.load(Ordering::Relaxed), 0);
            let mut rest = marked;
            while rest != 0 {
                let li = i * 64 + rest.trailing_zeros() as usize;
                if due(li) {
                    flat.push(li as u32);
                    bits |= rest & rest.wrapping_neg();
                }
                rest &= rest - 1;
            }
            if bits != 0 {
                word.store(marked & !bits, Ordering::Relaxed);
            }
        }
    }

    /// The parity's marked masters, ascending, left marked. Visits each
    /// word once and each marked bit once.
    pub(crate) fn marked(&self, parity: usize) -> impl Iterator<Item = usize> + '_ {
        (self.words[parity & 1].iter().enumerate()).flat_map(|(i, word)| {
            let mut rest = word.load(Ordering::Relaxed);
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
                rest &= rest - 1;
                Some(i * 64 + bit)
            })
        })
    }
}

/// Which of a worker's view slots were written since the last
/// [`Self::clear`]: one bit per slot of `[masters | replicas | direct slots]`,
/// the bitmap [`Frontier::fill_from`] pulls activations from.
pub struct FreshSlots {
    num_slots: usize,
    words: Vec<AtomicU64>,
}

impl FreshSlots {
    /// An all-clear bitmap over `num_slots` view slots.
    pub fn new(num_slots: usize) -> Self {
        FreshSlots {
            num_slots,
            words: clear_words(num_slots),
        }
    }

    /// A writer that batches the bits of one word into one `fetch_or`. Any
    /// number of writers may run at once; a writer's bits are in the bitmap
    /// once it is dropped.
    pub fn writer(&self) -> FreshWriter<'_> {
        FreshWriter {
            fresh: self,
            word: 0,
            bits: 0,
        }
    }

    /// Whether `slot` was written since the last clear.
    #[inline]
    pub fn is_set(&self, slot: usize) -> bool {
        self.words[slot / 64].load(Ordering::Relaxed) >> (slot % 64) & 1 != 0
    }

    /// Number of fresh slots.
    pub fn count(&self) -> usize {
        count_ones(&self.words)
    }

    /// Marks every slot stale again.
    pub fn clear(&self) {
        for word in &self.words {
            word.store(0, Ordering::Relaxed);
        }
    }
}

/// Sets bits of a [`FreshSlots`], holding back those of the word it last
/// touched: a compute chunk's masters and a batch's remote slots ascend, so
/// a word's bits usually go in with one locked operation instead of one each.
pub struct FreshWriter<'a> {
    fresh: &'a FreshSlots,
    word: usize,
    bits: u64,
}

impl FreshWriter<'_> {
    /// Records that `slot` was written. Panics on a slot past the bitmap's
    /// range — here, not in the deferred flush, and in release builds too:
    /// the last word has spare bits an unchecked slot could land in.
    #[inline]
    pub fn set(&mut self, slot: usize) {
        assert!(slot < self.fresh.num_slots, "slot {slot} out of range");
        if slot / 64 != self.word {
            self.flush();
            self.word = slot / 64;
        }
        self.bits |= 1 << (slot % 64);
    }

    fn flush(&mut self) {
        if self.bits != 0 {
            self.fresh.words[self.word].fetch_or(self.bits, Ordering::Relaxed);
            self.bits = 0;
        }
    }
}

impl Drop for FreshWriter<'_> {
    fn drop(&mut self) {
        self.flush();
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
        let f = Frontier::new(64);
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
        let mut flat = Vec::new();
        f.snapshot(1, &mut flat, |_| true);
        let expected: Vec<u32> = indices.iter().map(|&li| li as u32).collect();
        assert_eq!(flat, expected);
        assert_eq!(f.len(0), 0, "the other parity saw nothing");
    }

    /// Marks every third master of 130 (three words, the last partial) in
    /// `parity`, the odd ones alone, plus master 5 in the other parity.
    fn every_third_of_130(parity: usize) -> (Frontier, Vec<u32>) {
        let f = Frontier::new(130);
        let marks: Vec<u32> = (0..130).step_by(3).collect();
        for &li in &marks {
            match li % 2 {
                0 => f.mark(parity, li as usize),
                _ => f.mark_alone(parity, li as usize),
            }
        }
        f.mark(parity ^ 1, 5);
        (f, marks)
    }

    #[test]
    fn a_due_predicate_drains_exactly_the_due_masters() {
        let (f, marks) = every_third_of_130(1);
        let due = |li: usize| li.is_multiple_of(2) || li == 129;
        let mut flat = vec![7];
        f.snapshot(1, &mut flat, due);
        let (taken, left): (Vec<u32>, Vec<u32>) = marks.iter().partition(|&&li| due(li as usize));
        assert_eq!(flat, taken, "the due masters, ascending");
        assert!((0..130).all(|li| f.is_marked(1, li) == left.contains(&(li as u32))));
        assert_eq!(f.len(1), left.len());
        assert!(
            f.len(0) == 1 && f.is_marked(0, 5),
            "the other parity is untouched"
        );
    }

    #[test]
    fn the_take_all_predicate_drains_the_whole_parity() {
        let (f, marks) = every_third_of_130(0);
        let mut flat = Vec::new();
        f.snapshot(0, &mut flat, |_| true);
        assert_eq!(flat, marks);
        assert_eq!(f.len(0), 0);
        assert!((0..130).all(|li| !f.is_marked(0, li)));
        assert_eq!(f.len(1), 1);
    }

    #[test]
    fn marked_lists_ascending_and_clears_nothing() {
        let (f, marks) = every_third_of_130(1);
        let listed: Vec<u32> = f.marked(1).map(|li| li as u32).collect();
        assert_eq!(listed, marks);
        assert_eq!(f.len(1), marks.len());
        assert_eq!(f.marked(0).collect::<Vec<_>>(), [5]);
    }

    #[test]
    fn fresh_writer_batches_a_word_and_lands_on_drop() {
        let fresh = FreshSlots::new(130);
        let mut w = fresh.writer();
        for slot in [3, 9, 63, 64, 129, 5] {
            w.set(slot); // 5 goes back a word: flushed like any other change
        }
        assert!(
            fresh.is_set(3) && fresh.is_set(64) && fresh.is_set(129),
            "left words are in"
        );
        assert!(!fresh.is_set(5), "the held word is not, until the drop");
        drop(w);
        assert_eq!(fresh.count(), 6);
        assert!((0..130).all(|s| fresh.is_set(s) == [3, 5, 9, 63, 64, 129].contains(&s)));
        fresh.clear();
        assert_eq!(fresh.count(), 0);
    }

    #[test]
    fn fresh_writer_refuses_the_last_words_spare_bits() {
        // 70 slots are two words; slot 70 has a bit in the second but names
        // nothing. A clean panic at the call, nothing set, nothing deferred
        // to the drop.
        let fresh = FreshSlots::new(70);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut w = fresh.writer();
            w.set(69);
            w.set(70);
        }));
        assert!(refused.is_err());
        assert!(
            fresh.is_set(69) && fresh.count() == 1,
            "slot 69 landed during the unwind"
        );
    }

    /// A worker plan with nothing but an in-edge CSR: what `fill_from` reads.
    fn plan_of_in_refs(in_refs: &[Vec<u32>]) -> WorkerPlan {
        let mut wp = WorkerPlan {
            masters: (0..in_refs.len() as u32).collect(),
            in_ref_offsets: vec![0],
            ..Default::default()
        };
        for refs in in_refs {
            wp.in_refs.extend(refs);
            wp.in_ref_offsets.push(wp.in_refs.len() as u32);
        }
        wp
    }

    proptest! {
        /// `fill_from` against its model: afterwards the parity holds the
        /// pre-marks plus every master with a fresh in-edge reference —
        /// what marking `readers(s)` of every fresh `s` gives, the reader
        /// lists being the inverse of `in_refs` — however the words are
        /// shared out, and the other parity is untouched.
        #[test]
        fn fill_from_marks_exactly_the_masters_reading_a_fresh_slot(
            n in (0usize..8, 1usize..200)
                .prop_map(|(edge, n)| [63, 64, 65, 128].get(edge).copied().unwrap_or(n)),
            extra_slots in 0usize..70,
            refs in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..500),
            fresh_picks in proptest::collection::vec(any::<u32>(), 0..60),
            premarks in proptest::collection::vec(any::<u32>(), 0..20),
            parts in 1usize..5,
            parity in 0usize..2,
        ) {
            let slots = n + extra_slots;
            let mut in_refs = vec![Vec::new(); n];
            for (li, slot) in refs {
                in_refs[li as usize % n].push(slot % slots as u32);
            }
            let wp = plan_of_in_refs(&in_refs);
            let fresh = FreshSlots::new(slots);
            let f = Frontier::new(n);
            f.mark(parity ^ 1, n - 1);
            let premarks: Vec<usize> = premarks.iter().map(|&m| m as usize % n).collect();
            for &li in &premarks {
                f.mark(parity, li);
            }
            let marked = |f: &Frontier| -> Vec<usize> {
                (0..n).filter(|&li| f.is_marked(parity, li)).collect()
            };

            // An all-clear bitmap changes nothing.
            for part in 0..parts {
                f.fill_from(parity, &wp, &fresh, (part, parts));
            }
            let mut expected = premarks.clone();
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(marked(&f), expected);

            let mut writer = fresh.writer();
            for &s in &fresh_picks {
                writer.set(s as usize % slots);
            }
            drop(writer);
            let expected: Vec<usize> = (0..n)
                .filter(|li| {
                    premarks.contains(li)
                        || in_refs[*li].iter().any(|&s| fresh.is_set(s as usize))
                })
                .collect();
            // The shares are disjoint word ranges: run them side by side.
            std::thread::scope(|s| {
                for part in 0..parts {
                    let (f, wp, fresh) = (&f, &wp, &fresh);
                    s.spawn(move || f.fill_from(parity, wp, fresh, (part, parts)));
                }
            });
            prop_assert_eq!(marked(&f), expected.clone());
            prop_assert_eq!(f.len(parity), expected.len());
            // A second fill from the same bits (the engine's PRS fill re-reads
            // the master bits of its CMP fill) adds nothing.
            f.fill_from(parity, &wp, &fresh, (0, 1));
            prop_assert_eq!(marked(&f), expected);
            prop_assert!(
                f.len(parity ^ 1) == 1 && f.is_marked(parity ^ 1, n - 1),
                "the other parity is untouched"
            );
        }

        /// The frontier against its model, a sorted set: concurrent marks
        /// with duplicates, word-boundary sizes.
        #[test]
        fn snapshot_is_the_sorted_set_of_marks(
            n in (0usize..8, 1usize..300)
                .prop_map(|(edge, n)| [63, 64, 65, 128].get(edge).copied().unwrap_or(n)),
            threads in 1usize..5,
            marks in proptest::collection::vec(any::<u32>(), 0..400),
            parity in 0usize..2,
        ) {
            let f = Frontier::new(n);
            f.mark(parity ^ 1, n - 1);
            let marks: Vec<usize> = marks.iter().map(|&m| m as usize % n).collect();
            let mut expected: Vec<u32> = marks.iter().map(|&li| li as u32).collect();
            expected.sort_unstable();
            expected.dedup();
            let mut flat = vec![99];
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
                f.snapshot(parity, &mut flat, |_| true);
                prop_assert_eq!(&flat, &expected, "round {}", round);
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
