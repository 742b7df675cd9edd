#![warn(missing_docs)]

//! The paper's four evaluation algorithms on all three engines.
//!
//! | Algorithm | Mode | Engines | Paper workload |
//! |-----------|------|---------|----------------|
//! | [`pagerank`] | pull | BSP, Cyclops, GAS | Amazon, GWeb, LJournal, Wiki |
//! | [`als`] (Alternating Least Squares) | pull | BSP, Cyclops | SYN-GL |
//! | [`cd`] (Community Detection / label propagation) | pull | BSP, Cyclops | DBLP |
//! | [`sssp`] (Single-Source Shortest Path) | push | BSP, Cyclops, GAS | RoadCA |
//!
//! Beyond the paper's four, the crate adds [`cc`] (weakly connected
//! components), [`bfs`] (hop levels), [`triangles`] (triangle counting via
//! adjacency-list publications), and [`kcore`] (k-core decomposition) —
//! demonstrations of the model's generality.
//!
//! **Programs, not runners.** Each module exports program values
//! (`CyclopsPageRank { epsilon }`, `BspSssp { source }`, …) and whatever
//! else is about the algorithm ([`sssp::auto_bucket_width`],
//! [`cc::symmetrize`], [`als::AlsParams`]); nothing here starts a run. A
//! caller hands a program and the engine's one config to the engine's own
//! entry point — `run_cyclops(&program, &graph, &partition, &CyclopsConfig {
//! cluster, max_supersteps, ..Default::default() })`, likewise `run_bsp` /
//! `run_gas` — and what it must know to fill that config in (a BSP program
//! that seeds in superstep 0 needs one more superstep; which BSP programs
//! define `combine`) is a "To run" line on the program struct.
//!
//! [`linalg`] holds ALS's register-tiled normal equations and the small
//! dense Cholesky solver that solves them. Every
//! distributed implementation is cross-checked against the sequential
//! references in `cyclops_graph::reference` (and [`als::reference_als`],
//! [`kcore::reference_kcore`]) by the test suites.

pub mod als;
pub mod bfs;
pub mod cc;
pub mod cd;
pub mod kcore;
pub mod linalg;
pub mod pagerank;
pub mod sssp;
pub mod triangles;

thread_local! {
    /// Scratch for [`with_sorted`]: one buffer per compute thread, kept
    /// across vertex computations so a label mode or an h-index allocates
    /// nothing once the thread has seen its largest in-degree.
    static SORTED: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Calls `f` with `values` sorted ascending, in this thread's reused buffer.
fn with_sorted<R>(values: impl IntoIterator<Item = u32>, f: impl FnOnce(&[u32]) -> R) -> R {
    SORTED.with_borrow_mut(|buf| {
        buf.clear();
        buf.extend(values);
        buf.sort_unstable();
        f(buf)
    })
}
