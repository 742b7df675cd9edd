//! The seven named workloads: plain data — two types of the system under
//! test name the graph and the cluster, every call into it is in
//! `adapter.rs`.
//!
//! Sizes are multiples of the library-default dataset scale, chosen on a
//! 2-core box so that one driver call takes 0.1–0.7 s: long enough that a
//! run is not timer noise, short enough that a 14-second measuring window
//! holds twenty to a hundred runs — the fastest of which is what gets
//! reported — and the whole benchmark fits its time budget. Every workload
//! runs on exactly two engine threads.

use cyclops_graph::Dataset;
use cyclops_net::ClusterSpec;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algo {
    /// Local-error threshold and superstep cap.
    PageRank { epsilon: f64, max_supersteps: usize },
    /// From a seeded source to quiescence.
    Sssp,
    /// Latent dimension 8, λ = 0.05, `iterations` full alternations.
    Als { iterations: usize },
    /// Label propagation for `sweeps` supersteps.
    Cd { sweeps: usize },
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cut {
    Hash,
    Multilevel,
    /// Hash, then the first `fraction` of the vertex ids piled on worker 0.
    SkewedHash {
        fraction: f64,
    },
}

/// Two single-threaded workers on two machines (`2x1x1`): every replica
/// update crosses the codec and the transport. Spelled as a literal because
/// `ClusterSpec::flat` is not `const`.
pub const FLAT_2X1X1: ClusterSpec = ClusterSpec {
    machines: 2,
    workers_per_machine: 1,
    threads_per_worker: 1,
    receivers_per_worker: 1,
};

/// CyclopsMT `1x1x2/2`: one worker, two compute threads, two receivers.
/// Shared memory only.
pub const MT_1X1X2: ClusterSpec = ClusterSpec {
    machines: 1,
    workers_per_machine: 1,
    threads_per_worker: 2,
    receivers_per_worker: 2,
};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Driver {
    /// `run_cyclops_with_plan` on the prebuilt plan, classic loop.
    Plain,
    /// The same call with the bucketed (delta-stepping) loop, `Det` mode,
    /// auto width with live re-tuning.
    Bucketed,
    /// `run_cyclops_migrated`, a boundary every `every` supersteps.
    Migrated { every: usize },
    /// `run_cyclops_evolving` over `batches` seeded batches of
    /// `edges / edge_divisor` edge inserts, each one closed walk (see
    /// `adapter::closed_walk`), warm-started incrementally.
    Evolving { batches: usize, edge_divisor: usize },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    pub data: Dataset,
    /// Multiple of the dataset's library-default size.
    pub scale: f64,
    pub algo: Algo,
    pub cut: Cut,
    /// `M x W x T / R`; one part of the edge cut per worker.
    pub cluster: ClusterSpec,
    pub driver: Driver,
    /// Hybrid replication at `EdgeCutPartition::auto_replicate_threshold`.
    pub auto_threshold: bool,
    /// Whether the per-layer pass also runs the Hama (BSP) baseline; only
    /// where that fits the time budget.
    pub hama: bool,
    /// Back-to-back set-ups timed as one `setup_s` sample, so that a sample
    /// is 50 ms of work or more even where one set-up is 10 ms.
    pub setup_batch: usize,
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "pr-wiki",
        why: "Dense pull-mode PageRank: gather through the view dominates, replica sync runs in dense wire mode, 20 barriers only so barrier cost is invisible",
        data: Dataset::Wiki,
        scale: 1.0,
        algo: Algo::PageRank { epsilon: 0.0, max_supersteps: 20 },
        cut: Cut::Hash,
        cluster: FLAT_2X1X1,
        driver: Driver::Plain,
        auto_threshold: false,
        hama: true,
        setup_batch: 2,
    },
    Workload {
        name: "sssp-road-hop",
        why: "Hundreds of near-empty supersteps: barrier, drain, sparse wire mode and transport do the work; gather is small",
        data: Dataset::RoadCa,
        scale: 4.0,
        algo: Algo::Sssp,
        cut: Cut::Hash,
        cluster: FLAT_2X1X1,
        driver: Driver::Plain,
        auto_threshold: false,
        hama: true,
        setup_batch: 6,
    },
    Workload {
        name: "sssp-road-bucket",
        why: "The bucketed superstep loop on a multilevel cut: few barriers and near-zero wire traffic, so it bypasses codec and transport; set-up is the Metis-style partitioner",
        data: Dataset::RoadCa,
        scale: 8.0,
        algo: Algo::Sssp,
        cut: Cut::Multilevel,
        cluster: FLAT_2X1X1,
        driver: Driver::Bucketed,
        auto_threshold: false,
        hama: false,
        setup_batch: 1,
    },
    Workload {
        name: "als-syngl",
        why: "68-byte vector payloads through the same codec and transport, with user math (Cholesky) dominating compute, so a gather-only gain should not show",
        data: Dataset::SynGl,
        scale: 8.0,
        algo: Algo::Als { iterations: 5 },
        cut: Cut::Hash,
        cluster: FLAT_2X1X1,
        driver: Driver::Plain,
        auto_threshold: false,
        hama: true,
        setup_batch: 2,
    },
    Workload {
        name: "cd-dblp-mt",
        why: "CyclopsMT, shared memory only: zero wire bytes, dynamic chunk scheduler and a rapidly shrinking frontier; bypasses codec and transport entirely",
        data: Dataset::Dblp,
        scale: 32.0,
        algo: Algo::Cd { sweeps: 20 },
        cut: Cut::Hash,
        cluster: MT_1X1X2,
        driver: Driver::Plain,
        auto_threshold: false,
        hama: false,
        setup_batch: 2,
    },
    Workload {
        name: "pr-gweb-migrate",
        why: "The view written while it is read: checkpoint-carved epochs, incremental plan rewiring and direct slots on a 60%-skewed cut; a gather win that costs plan edits shows here",
        data: Dataset::GWeb,
        scale: 4.0,
        algo: Algo::PageRank { epsilon: 0.0, max_supersteps: 24 },
        cut: Cut::SkewedHash { fraction: 0.6 },
        cluster: FLAT_2X1X1,
        driver: Driver::Migrated { every: 4 },
        auto_threshold: true,
        hama: false,
        setup_batch: 6,
    },
    Workload {
        name: "pr-gweb-evolve",
        why: "The other write path: graph mutation plus a full plan rebuild per batch beside short warm epochs; the workload on which incremental mutation would show",
        data: Dataset::GWeb,
        scale: 2.0,
        algo: Algo::PageRank { epsilon: 1e-8, max_supersteps: 200 },
        cut: Cut::Hash,
        cluster: FLAT_2X1X1,
        driver: Driver::Evolving { batches: 8, edge_divisor: 1000 },
        auto_threshold: false,
        hama: false,
        setup_batch: 8,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// splitmix64: the benchmark's own seeded generator, for the inputs it makes
/// itself (mutation batches), so they depend on nothing but the seed.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0); the modulo bias is below 2^-40 at graph
    /// sizes.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::metrics::valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(find(w.name).unwrap().name, w.name);
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn every_workload_runs_exactly_two_engine_threads() {
        for w in &WORKLOADS {
            assert_eq!(w.cluster.total_threads(), 2, "{}", w.name);
        }
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = {
            let mut r = SplitMix64(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64(8);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!((0..100).all(|_| SplitMix64(3).below(10) < 10));
    }
}
