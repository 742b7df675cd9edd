//! Lock-free disjoint-slot writes.
//!
//! Cyclops' key communication property (§3.4): *"It guarantees each replica
//! only receiving at most one message, thus there is no protection mechanism
//! in message passing"* — multiple receiver threads update replica values in
//! parallel "without protection" because every slot has exactly one writer
//! per superstep. [`DisjointSlots`] encapsulates that pattern: a shared
//! array that threads may write concurrently **provided** they touch
//! disjoint indices; debug builds verify the disjointness claim at runtime.

use std::cell::UnsafeCell;

/// A shared array supporting concurrent writes to disjoint indices.
///
/// The engine establishes the safety protocol: within one epoch (superstep
/// phase), each index is written by at most one thread, and reads never
/// overlap writes (they are separated by a barrier). Debug builds enforce
/// the single-writer rule with an atomic claim table; release builds compile
/// the check away.
pub struct DisjointSlots<T> {
    slots: Vec<UnsafeCell<T>>,
    #[cfg(debug_assertions)]
    claimed: Vec<std::sync::atomic::AtomicBool>,
}

// SAFETY: concurrent access is governed by the documented protocol —
// disjoint-index writes within an epoch, reads separated from writes by a
// barrier. `T: Send` suffices because no `&T` is handed out during writes.
unsafe impl<T: Send> Sync for DisjointSlots<T> {}

impl<T> DisjointSlots<T> {
    /// Creates the slot array from initial values.
    pub fn new(values: Vec<T>) -> Self {
        #[cfg(debug_assertions)]
        let claimed = (0..values.len())
            .map(|_| std::sync::atomic::AtomicBool::new(false))
            .collect();
        DisjointSlots {
            slots: values.into_iter().map(UnsafeCell::new).collect(),
            #[cfg(debug_assertions)]
            claimed,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Writes `value` into slot `idx` without locking.
    ///
    /// # Safety
    ///
    /// Within the current epoch (between two [`Self::begin_epoch`] calls or
    /// barriers), no other thread may write slot `idx`, and no thread may
    /// concurrently read it. Cyclops guarantees this because each replica
    /// receives at most one message per superstep.
    #[inline]
    pub unsafe fn write(&self, idx: usize, value: T) {
        #[cfg(debug_assertions)]
        {
            let was = self.claimed[idx].swap(true, std::sync::atomic::Ordering::Relaxed);
            assert!(!was, "slot {idx} written twice in one epoch");
        }
        *self.slots[idx].get() = value;
    }

    /// Returns a mutable reference into slot `idx` without locking.
    ///
    /// # Safety
    ///
    /// Same protocol as [`Self::write`]: within the current epoch no other
    /// thread may access slot `idx` at all. Debug builds count this as the
    /// slot's one write of the epoch.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn get_mut(&self, idx: usize) -> &mut T {
        #[cfg(debug_assertions)]
        {
            let was = self.claimed[idx].swap(true, std::sync::atomic::Ordering::Relaxed);
            assert!(!was, "slot {idx} written twice in one epoch");
        }
        &mut *self.slots[idx].get()
    }

    /// Reads slot `idx`. Must not race with writes (callers separate the
    /// read phase from the write phase with a barrier).
    #[inline]
    pub fn read(&self, idx: usize) -> &T {
        // SAFETY: per the protocol, no writer is active during reads.
        unsafe { &*self.slots[idx].get() }
    }

    /// Resets the debug-mode claim table, starting a new epoch. Call once
    /// per superstep (between the barrier and the next write phase); no-op
    /// in release builds.
    pub fn begin_epoch(&self) {
        #[cfg(debug_assertions)]
        for c in &self.claimed {
            c.store(false, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Consumes the array, returning the values.
    pub fn into_inner(self) -> Vec<T> {
        self.slots.into_iter().map(UnsafeCell::into_inner).collect()
    }
}

impl<T: Clone> DisjointSlots<T> {
    /// Clones the current contents into a `Vec`. Must not race with writes.
    pub fn snapshot(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.read(i).clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_disjoint_writes_land() {
        let n = 10_000;
        let slots = DisjointSlots::new(vec![0u64; n]);
        let threads = 8;
        std::thread::scope(|s| {
            for t in 0..threads {
                let slots = &slots;
                s.spawn(move || {
                    // Thread t writes indices congruent to t mod threads.
                    let mut i = t;
                    while i < n {
                        // SAFETY: index classes are disjoint across threads.
                        unsafe { slots.write(i, i as u64 * 3) };
                        i += threads;
                    }
                });
            }
        });
        for i in 0..n {
            assert_eq!(*slots.read(i), i as u64 * 3);
        }
    }

    #[test]
    fn epochs_reset_claims() {
        let slots = DisjointSlots::new(vec![0u32; 4]);
        unsafe { slots.write(2, 7) };
        slots.begin_epoch();
        unsafe { slots.write(2, 9) }; // same slot, new epoch: allowed
        assert_eq!(*slots.read(2), 9);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "written twice")]
    fn double_write_detected_in_debug() {
        let slots = DisjointSlots::new(vec![0u32; 4]);
        unsafe { slots.write(1, 1) };
        unsafe { slots.write(1, 2) };
    }

    #[test]
    fn snapshot_and_into_inner() {
        let slots = DisjointSlots::new(vec![1, 20, 3]);
        assert_eq!(slots.snapshot(), vec![1, 20, 3]);
        assert_eq!(slots.into_inner(), vec![1, 20, 3]);
    }
}
