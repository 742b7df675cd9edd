//! Cluster topology description.
//!
//! The paper's experiments vary three knobs (Figure 12): the number of
//! machines `M`, single-threaded workers per machine `W`, and — for
//! CyclopsMT — compute threads `T` and receiver threads `R` inside the one
//! worker per machine. [`ClusterSpec`] captures an `M x W x T / R`
//! configuration and provides the worker/machine arithmetic every engine
//! needs.

/// An `M x W x T / R` simulated-cluster configuration.
///
/// * Hama / Cyclops runs use `T = R = 1` and vary `M x W`
///   (e.g. the paper's "48 workers" is `6 x 8 x 1`),
/// * CyclopsMT runs use `W = 1` and vary `T` and `R`
///   (the paper's best is `6 x 1 x 8 / 2`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ClusterSpec {
    /// Number of simulated machines.
    pub machines: usize,
    /// Workers per machine. Each worker owns a graph partition.
    pub workers_per_machine: usize,
    /// Compute threads inside each worker (CyclopsMT level 2).
    pub threads_per_worker: usize,
    /// Message receiver threads inside each worker (CyclopsMT).
    pub receivers_per_worker: usize,
}

impl ClusterSpec {
    /// A flat topology of single-threaded workers — the configuration Hama
    /// and (non-MT) Cyclops use.
    pub fn flat(machines: usize, workers_per_machine: usize) -> Self {
        assert!(machines > 0 && workers_per_machine > 0);
        ClusterSpec {
            machines,
            workers_per_machine,
            threads_per_worker: 1,
            receivers_per_worker: 1,
        }
    }

    /// A hierarchical CyclopsMT topology: one worker per machine with
    /// `threads` compute threads and `receivers` receiver threads.
    pub fn mt(machines: usize, threads: usize, receivers: usize) -> Self {
        assert!(machines > 0 && threads > 0 && receivers > 0);
        ClusterSpec {
            machines,
            workers_per_machine: 1,
            threads_per_worker: threads,
            receivers_per_worker: receivers,
        }
    }

    /// Total number of workers (graph partitions).
    #[inline]
    pub fn num_workers(&self) -> usize {
        self.machines * self.workers_per_machine
    }

    /// Total number of compute threads across the cluster — the paper
    /// reports CyclopsMT configurations by this number ("the number of
    /// workers shown ... is equal to the total number of threads", §6.3).
    #[inline]
    pub fn total_threads(&self) -> usize {
        self.num_workers() * self.threads_per_worker
    }

    /// Machine hosting worker `w`. Workers are laid out round-robin-free:
    /// machine 0 holds workers `0..W`, machine 1 holds `W..2W`, etc.
    #[inline]
    pub fn machine_of_worker(&self, w: usize) -> usize {
        debug_assert!(w < self.num_workers());
        w / self.workers_per_machine
    }

    /// Whether workers `a` and `b` live on different simulated machines —
    /// i.e. whether a message between them crosses the (simulated) network
    /// and must be serialized.
    #[inline]
    pub fn crosses_machines(&self, a: usize, b: usize) -> bool {
        self.machine_of_worker(a) != self.machine_of_worker(b)
    }

    /// The paper's configuration label, e.g. `6x8x1` or `6x1x8/2`
    /// (Figure 12's x-axis).
    pub fn label(&self) -> String {
        if self.receivers_per_worker == 1 {
            format!(
                "{}x{}x{}",
                self.machines, self.workers_per_machine, self.threads_per_worker
            )
        } else {
            format!(
                "{}x{}x{}/{}",
                self.machines,
                self.workers_per_machine,
                self.threads_per_worker,
                self.receivers_per_worker
            )
        }
    }
}

impl std::fmt::Display for ClusterSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Drain discipline of the Cyclops engine's bucketed (delta-stepping)
/// scheduler. There is one: each fused round selects the in-bucket vertices
/// in ascending vertex order and publishes between rounds, so a master
/// computes at most once per round, and trace counters (fused rounds,
/// occupancy, messages) and results are bitwise identical across runs and
/// thread counts — `trace-diff`-checkable. The enum keeps its one variant
/// only because the repository benchmark sets `CyclopsConfig::bucket_mode`
/// by name; the next change to the benchmark deletes both.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BucketMode {
    /// Sorted, once-per-round drain. The default and only mode.
    #[default]
    Det,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_topology_arithmetic() {
        let c = ClusterSpec::flat(6, 8);
        assert_eq!(c.num_workers(), 48);
        assert_eq!(c.total_threads(), 48);
        assert_eq!(c.machine_of_worker(0), 0);
        assert_eq!(c.machine_of_worker(7), 0);
        assert_eq!(c.machine_of_worker(8), 1);
        assert_eq!(c.machine_of_worker(47), 5);
    }

    #[test]
    fn cross_machine_detection() {
        let c = ClusterSpec::flat(3, 2);
        assert!(!c.crosses_machines(0, 1));
        assert!(c.crosses_machines(1, 2));
        assert!(c.crosses_machines(0, 5));
    }

    #[test]
    fn mt_topology() {
        let c = ClusterSpec::mt(6, 8, 2);
        assert_eq!(c.num_workers(), 6);
        assert_eq!(c.total_threads(), 48);
        assert_eq!(c.label(), "6x1x8/2");
    }

    #[test]
    fn labels_match_paper_format() {
        assert_eq!(ClusterSpec::flat(6, 4).label(), "6x4x1");
        assert_eq!(ClusterSpec::mt(6, 8, 1).label(), "6x1x8");
    }
}
