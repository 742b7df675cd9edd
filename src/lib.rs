//! # Cyclops — distributed graph processing with a distributed immutable view
//!
//! A Rust reproduction of *"Computation and Communication Efficient Graph
//! Processing with Distributed Immutable View"* (Chen et al., HPDC 2014).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — CSR graphs, I/O, generators, the paper's dataset stand-ins,
//! * [`partition`] — hash and multilevel edge-cuts, random/greedy vertex-cuts,
//! * [`net`] — the simulated multicore-cluster substrate (codec, inboxes,
//!   barriers, phase metrics),
//! * [`bsp`] — a Hama/Pregel-style baseline engine,
//! * [`engine`] — the paper's contribution: the Cyclops engine and its
//!   hierarchical CyclopsMT variant,
//! * [`gas`] — a PowerGraph-style Gather-Apply-Scatter baseline engine,
//! * [`algos`] — PageRank, ALS, community detection, and SSSP for all three
//!   engines,
//! * [`obs`] — the metrics/observability layer: log-linear latency
//!   histograms, Prometheus/JSON exposition, one trace summary folded in
//!   one pass and the reports that render it (`cyclops metrics`, `top`,
//!   `why-slow`, `comm`, `timeline`, `mem`), and live trace following
//!   (`cyclops top`).
//!
//! See `README.md` for a tour, `DESIGN.md` for the substitution table mapping
//! the paper's testbed onto this repository, and `EXPERIMENTS.md` for
//! paper-vs-measured numbers of every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use cyclops::prelude::*;
//!
//! // A tiny web graph.
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 0);
//! b.add_edge(3, 2);
//! let graph = b.build();
//!
//! // Run PageRank on the Cyclops engine over a simulated 2-machine cluster.
//! let cluster = ClusterSpec::flat(2, 1);
//! let partition = HashPartitioner.partition(&graph, cluster.num_workers());
//! // A run is a program and the engine's one config, handed to the engine.
//! let config = CyclopsConfig {
//!     cluster,
//!     max_supersteps: 100,
//!     ..Default::default()
//! };
//! let result = run_cyclops(&CyclopsPageRank { epsilon: 1e-9 }, &graph, &partition, &config);
//! assert!((result.values.iter().sum::<f64>() - 1.0).abs() < 1e-6);
//! ```

pub use cyclops_algos as algos;
pub use cyclops_bsp as bsp;
pub use cyclops_engine as engine;
pub use cyclops_gas as gas;
pub use cyclops_graph as graph;
pub use cyclops_net as net;
pub use cyclops_partition as partition;

pub mod obs;

/// Convenience re-exports covering the common experiment workflow.
pub mod prelude {
    pub use cyclops_algos::pagerank::CyclopsPageRank;
    pub use cyclops_engine::{run_cyclops, CyclopsConfig};
    pub use cyclops_graph::{Dataset, Graph, GraphBuilder, VertexId};
    pub use cyclops_net::cluster::ClusterSpec;
    pub use cyclops_partition::{EdgeCutPartitioner, HashPartitioner, MultilevelPartitioner};
}
