//! Quickstart: PageRank over a tiny web graph on the Cyclops engine.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a 6-vertex graph (the shape of the paper's Figure 6 example),
//! partitions it across a simulated 3-machine cluster, runs PageRank through
//! the distributed immutable view, and prints ranks plus the run's
//! communication statistics.

use cyclops::prelude::*;

fn main() {
    // A small directed web graph: vertex ids are "pages", edges are links.
    let mut builder = GraphBuilder::new(6);
    for (src, dst) in [
        (0, 1),
        (1, 0),
        (0, 2),
        (2, 1),
        (2, 3),
        (3, 2),
        (5, 2),
        (4, 5),
        (5, 4),
        (3, 4),
    ] {
        builder.add_edge(src, dst);
    }
    let graph = builder.build();

    // Three simulated machines, one worker each; vertices assigned by hash.
    let cluster = ClusterSpec::flat(3, 1);
    let partition = HashPartitioner.partition(&graph, cluster.num_workers());

    // A run is a program and the engine's one config, handed to the engine:
    // PageRank to a per-vertex error of 1e-9, at most 200 supersteps.
    let config = CyclopsConfig {
        cluster,
        max_supersteps: 200,
        ..Default::default()
    };
    let result = run_cyclops(
        &CyclopsPageRank { epsilon: 1e-9 },
        &graph,
        &partition,
        &config,
    );

    println!("PageRank over {} supersteps:", result.supersteps);
    let mut ranked: Vec<(u32, f64)> = result
        .values
        .iter()
        .enumerate()
        .map(|(v, &r)| (v as u32, r))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (v, r) in &ranked {
        println!("  page {v}: {r:.5}");
    }
    println!(
        "replication factor {:.2}, {} sync messages, {} bytes on the wire",
        result.replication_factor, result.counters.messages, result.counters.bytes
    );
    println!(
        "ingress: load {:?}, replicate {:?}, init {:?}",
        result.ingress.load, result.ingress.replicate, result.ingress.init
    );
}
