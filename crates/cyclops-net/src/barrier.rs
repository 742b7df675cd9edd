//! The superstep barrier.
//!
//! A flat BSP barrier makes every participant take part in the distributed
//! protocol; with 48 workers the paper observes the SYN phase growing to
//! dominate (§6.5). CyclopsMT instead uses a hierarchical barrier (§5): the
//! threads of one machine meet at a local barrier, then one leader per
//! machine takes part in the global protocol. Every engine waits on
//! [`HierarchicalBarrier`]: a Cyclops run with one "machine" per worker and
//! its compute threads as the local level, the single-threaded Hama and
//! PowerGraph workers as `(workers, 1)`, which is the flat barrier. We model
//! protocol cost by counting *barrier messages* — each non-leader arrival at
//! either level contributes one — so experiments can report the reduction.
//!
//! Two kinds of level carry the waits, chosen by what a wait ends. A
//! superstep wait ([`HierarchicalBarrier::wait`]) parks at once on
//! `std::sync::Barrier`s: it comes once or twice a superstep, and a parked
//! thread leaves its core to the threads still computing. Every wait inside
//! a superstep — a bucketed run's [`HierarchicalBarrier::round_wait`]s and
//! every [`HierarchicalBarrier::local_wait`] among one worker's threads, per
//! hop or bucketed — spins while the run's threads fit the cores, then
//! yields, on spin levels of their own: those come several times a round,
//! where a sleep and a wake-up would cost more than the wait (9–13 µs
//! parked against 0.3 µs spinning, EXPERIMENTS.md "PR 47"). Both other
//! rules were measured and lost (EXPERIMENTS.md "PR 48"): every wait
//! spinning slowed `pr-wiki` and `sssp-road-bucket` in 6 of 8 and 7 of 8
//! pairs, and a spin level that parks after its spin instead of yielding
//! slowed a 48-worker bucketed SSSP from 0.036 to 0.043 s.

use cyclops_obs::{LogLinearHistogram, SpanKind, SpanRing};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// How many `spin_loop` hints a spinning wait spends before it starts
/// yielding its core, while every waiting thread has a core of its own: a
/// few hundred microseconds on a current x86 core, longer than most fused
/// rounds of a road-network settle.
const ROUND_SPINS: u32 = 20_000;

/// One spin level: a spin barrier over `parties` arrivals, on cache lines of
/// its own, which no other level's arrivals evict.
#[repr(align(128))]
struct SpinLevel {
    parties: usize,
    /// `spin_loop` hints before a waiter yields.
    spins: u32,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinLevel {
    fn new(parties: usize, spins: u32) -> Self {
        SpinLevel {
            parties,
            spins,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Arrives at the level. The last arrival returns at once with the
    /// generation it must [`Self::release`]; every other arrival returns
    /// `None` once that release happened. The arrivals' `AcqRel` increments
    /// and the `Release` / `Acquire` pair on `generation` order everything
    /// before any arrival before everything after every return.
    fn arrive(&self) -> Option<usize> {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Nobody arrives again before the release below.
            self.arrived.store(0, Ordering::Relaxed);
            return Some(generation);
        }
        let released = || self.generation.load(Ordering::Acquire) != generation;
        for _ in 0..self.spins {
            if released() {
                return None;
            }
            std::hint::spin_loop();
        }
        while !released() {
            std::thread::yield_now();
        }
        None
    }

    fn release(&self, generation: usize) {
        self.generation
            .store(generation.wrapping_add(1), Ordering::Release);
    }
}

/// A two-level barrier: threads of each machine synchronize locally, then
/// one leader per machine enters the global barrier, and finally the local
/// barrier releases the machine's threads. Parking and spinning waits each
/// have both levels (module doc).
pub struct HierarchicalBarrier {
    /// The superstep wait's levels: one parking barrier per machine, then
    /// one among the machine leaders.
    local: Vec<Barrier>,
    global: Barrier,
    /// The spinning levels: one per machine, then its leaders.
    spin_local: Vec<SpinLevel>,
    spin_global: SpinLevel,
    machines: usize,
    threads_per_machine: usize,
    rounds: AtomicUsize,
    /// `cyclops_barrier_wait_ns{kind="hierarchical"}`, resolved once when a
    /// registry is installed; absent, the wait pays one `Option` check.
    wait_ns: Option<Arc<LogLinearHistogram>>,
}

impl HierarchicalBarrier {
    /// Creates a hierarchical barrier for `machines` machines with
    /// `threads_per_machine` threads each.
    pub fn new(machines: usize, threads_per_machine: usize) -> Self {
        // A thread that spins while the thread it waits for has no core
        // delays that very thread: with more threads than cores, a spinning
        // wait yields at once.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spins = if machines * threads_per_machine <= cores {
            ROUND_SPINS
        } else {
            0
        };
        Self::with_round_spins(machines, threads_per_machine, spins)
    }

    /// [`Self::new`] with the spin levels' budget given.
    fn with_round_spins(machines: usize, threads_per_machine: usize, spins: u32) -> Self {
        HierarchicalBarrier {
            local: (0..machines)
                .map(|_| Barrier::new(threads_per_machine))
                .collect(),
            global: Barrier::new(machines),
            spin_local: (0..machines)
                .map(|_| SpinLevel::new(threads_per_machine, spins))
                .collect(),
            spin_global: SpinLevel::new(machines, spins),
            machines,
            threads_per_machine,
            rounds: AtomicUsize::new(0),
            wait_ns: cyclops_obs::global()
                .map(|reg| reg.histogram("cyclops_barrier_wait_ns", &[("kind", "hierarchical")])),
        }
    }

    /// Blocks the calling thread (thread `thread` of machine `machine`)
    /// until all threads of all machines arrive.
    pub fn wait(&self, machine: usize, _thread: usize) {
        let start = self.wait_ns.as_ref().map(|_| Instant::now());
        // Phase 1: gather locally; one leader per machine emerges.
        let leader = self.local[machine].wait().is_leader();
        // Phase 2: leaders run the global protocol.
        if leader && self.global.wait().is_leader() {
            self.rounds.fetch_add(1, Ordering::Relaxed);
        }
        // Phase 3: release the machine's threads.
        self.local[machine].wait();
        if let (Some(h), Some(start)) = (&self.wait_ns, start) {
            h.record(start.elapsed().as_nanos() as u64);
        }
    }

    /// [`HierarchicalBarrier::wait`], additionally recording the caller's
    /// wait as a barrier span (epoch `epoch`) into its flight-recorder ring
    /// when one is active. `None` costs one `Option` check.
    pub fn wait_traced(&self, machine: usize, thread: usize, ring: Option<&SpanRing>, epoch: u64) {
        let start = ring.map(|r| r.now_ns());
        self.wait(machine, thread);
        if let (Some(r), Some(start)) = (ring, start) {
            r.record(SpanKind::Barrier, start, epoch, 0, 0);
        }
    }

    /// A wait of every thread of every machine, like [`Self::wait`], that
    /// spins and then yields instead of parking: the wait of a bucketed run's
    /// fused rounds, too short and too many to pay a sleep and a wake-up
    /// each. Returns `true` on exactly one thread per round, the last machine
    /// leader to arrive. Counts as a round.
    pub fn round_wait(&self, machine: usize) -> bool {
        let local = &self.spin_local[machine];
        let Some(local_generation) = local.arrive() else {
            return false;
        };
        let leader = match self.spin_global.arrive() {
            Some(generation) => {
                self.rounds.fetch_add(1, Ordering::Relaxed);
                self.spin_global.release(generation);
                true
            }
            None => false,
        };
        local.release(local_generation);
        leader
    }

    /// Machine `machine`'s spin level alone: a wait among its threads that
    /// spins like [`Self::round_wait`], which the global protocol never sees
    /// and [`Self::rounds`] never counts.
    pub fn local_wait(&self, machine: usize) {
        let local = &self.spin_local[machine];
        if let Some(generation) = local.arrive() {
            local.release(generation);
        }
    }

    /// Barrier protocol messages so far: per round — a superstep wait or a
    /// round wait — `threads - 1` local messages per machine plus
    /// `machines - 1` global messages, `M·T − 1`, what a flat barrier over
    /// every thread counts, of which only `M − 1` cross machines.
    pub fn protocol_messages(&self) -> usize {
        let per_round =
            self.machines * (self.threads_per_machine.saturating_sub(1)) + self.machines - 1;
        self.rounds.load(Ordering::Relaxed) * per_round
    }

    /// Completed rounds, superstep and round waits alike.
    pub fn rounds(&self) -> usize {
        self.rounds.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn hierarchical_barrier_synchronizes_all_threads() {
        for (machines, threads) in [(3, 4), (4, 1)] {
            let barrier = HierarchicalBarrier::new(machines, threads);
            let counter = AtomicU32::new(0);
            std::thread::scope(|s| {
                for m in 0..machines {
                    for t in 0..threads {
                        let barrier = &barrier;
                        let counter = &counter;
                        s.spawn(move || {
                            for round in 0..10u32 {
                                counter.fetch_add(1, Ordering::SeqCst);
                                barrier.wait(m, t);
                                let expected = (round + 1) * (machines * threads) as u32;
                                assert_eq!(counter.load(Ordering::SeqCst), expected);
                                barrier.wait(m, t);
                            }
                        });
                    }
                }
            });
            assert_eq!(barrier.rounds(), 20);
        }
    }

    /// Runs `rounds` waits of every thread of a `machines x threads` barrier.
    fn drive(machines: usize, threads: usize, rounds: usize) -> HierarchicalBarrier {
        let barrier = HierarchicalBarrier::new(machines, threads);
        std::thread::scope(|s| {
            for m in 0..machines {
                for t in 0..threads {
                    let barrier = &barrier;
                    s.spawn(move || (0..rounds).for_each(|_| barrier.wait(m, t)));
                }
            }
        });
        barrier
    }

    #[test]
    fn hierarchy_counts_what_a_flat_barrier_counts() {
        // 48 threads as 6 machines x 8 or as 48 single-threaded workers:
        // both count 47 messages a round; the hierarchy's 42 local ones
        // never cross a machine.
        let rounds = 5;
        for (machines, threads) in [(6, 8), (48, 1)] {
            let barrier = drive(machines, threads, rounds);
            assert_eq!(barrier.rounds(), rounds);
            assert_eq!(barrier.protocol_messages(), rounds * 47);
        }
    }

    #[test]
    fn local_level_alone_is_not_a_round() {
        let barrier = HierarchicalBarrier::new(2, 3);
        std::thread::scope(|s| {
            for m in 0..2 {
                for t in 0..3 {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.local_wait(m);
                        barrier.local_wait(m);
                        barrier.wait(m, t);
                        barrier.local_wait(m);
                        barrier.local_wait(m);
                    });
                }
            }
        });
        assert_eq!(barrier.rounds(), 1);
        assert_eq!(barrier.protocol_messages(), 5);
    }

    #[test]
    fn round_wait_elects_one_leader_per_round() {
        for (machines, threads) in [(4, 1), (2, 3)] {
            for spins in [0, ROUND_SPINS] {
                round_wait_leaders(machines, threads, spins);
            }
        }
    }

    /// Every thread of a `machines x threads` barrier runs `rounds` pairs of
    /// round waits, a local wait of its machine between them, as a bucketed
    /// run's rounds do.
    fn round_wait_leaders(machines: usize, threads: usize, spins: u32) {
        let rounds = 200;
        let barrier = HierarchicalBarrier::with_round_spins(machines, threads, spins);
        let leaders = AtomicU32::new(0);
        let counter = AtomicU32::new(0);
        std::thread::scope(|s| {
            for m in 0..machines {
                for _ in 0..threads {
                    let (barrier, leaders, counter) = (&barrier, &leaders, &counter);
                    s.spawn(move || {
                        for round in 0..rounds {
                            counter.fetch_add(1, Ordering::Relaxed);
                            leaders.fetch_add(barrier.round_wait(m) as u32, Ordering::Relaxed);
                            let arrived = (round + 1) * (machines * threads) as u32;
                            assert_eq!(counter.load(Ordering::Relaxed), arrived);
                            barrier.local_wait(m);
                            leaders.fetch_add(barrier.round_wait(m) as u32, Ordering::Relaxed);
                        }
                    });
                }
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), 2 * rounds);
        assert_eq!(barrier.rounds(), 2 * rounds as usize);
        let per_wait = machines * threads - 1;
        assert_eq!(barrier.protocol_messages(), 2 * rounds as usize * per_wait);
    }

    #[test]
    fn round_wait_releases_a_waiter_past_its_spin() {
        for (machines, threads) in [(3, 1), (2, 3)] {
            for spins in [0, ROUND_SPINS] {
                late_round_waiter(machines, threads, spins);
            }
        }
    }

    /// The last thread of the last machine arrives long after the others
    /// have spent their spins and yield. Then round, local and superstep
    /// waits alternate, as a bucketed run's do.
    fn late_round_waiter(machines: usize, threads: usize, spins: u32) {
        let barrier = HierarchicalBarrier::with_round_spins(machines, threads, spins);
        let late = AtomicU32::new(0);
        std::thread::scope(|s| {
            for m in 0..machines {
                for t in 0..threads {
                    let (barrier, late) = (&barrier, &late);
                    s.spawn(move || {
                        if (m, t) == (machines - 1, threads - 1) {
                            let start = Instant::now();
                            while start.elapsed() < std::time::Duration::from_millis(50) {
                                std::thread::yield_now();
                            }
                            late.store(1, Ordering::Relaxed);
                        }
                        barrier.round_wait(m);
                        assert_eq!(late.load(Ordering::Relaxed), 1);
                        barrier.local_wait(m);
                        barrier.wait(m, t);
                        barrier.round_wait(m);
                    });
                }
            }
        });
        assert_eq!(barrier.rounds(), 3);
    }
}
