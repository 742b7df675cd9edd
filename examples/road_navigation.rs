//! Shortest paths on a road network (the paper's RoadCA workload): SSSP on
//! Cyclops, with the frontier wave visible in the per-superstep statistics.
//!
//! ```sh
//! cargo run --release --example road_navigation
//! ```

use cyclops::prelude::*;
use cyclops_algos::sssp::CyclopsSssp;
use cyclops_graph::gen::road_lattice;
use cyclops_graph::reference;

fn main() {
    // A 60x60 road grid with log-normal travel times (as in §6.2).
    let graph = road_lattice(60, 60, 0.92, 0.05, 7);
    println!(
        "road network: {} junctions, {} road segments",
        graph.num_vertices(),
        graph.num_edges()
    );

    let cluster = ClusterSpec::flat(4, 2);
    let partition = MultilevelPartitioner::default().partition(&graph, cluster.num_workers());
    let source = 0;
    // To quiescence: the cap is far above the grid's diameter.
    let config = CyclopsConfig {
        cluster,
        max_supersteps: 100_000,
        ..Default::default()
    };
    let result = run_cyclops(&CyclopsSssp { source }, &graph, &partition, &config);

    // The push-mode frontier: a wave expanding from the source.
    println!("\nfrontier size per superstep (first 30):");
    for s in result.stats.iter().take(30) {
        println!(
            "  step {:>3}: {:>5} active |{}",
            s.superstep,
            s.active_vertices,
            "#".repeat(s.active_vertices / 4)
        );
    }

    // Validate against Dijkstra and show a few destinations.
    let expected = reference::sssp(&graph, source);
    let mut worst = 0.0f64;
    for (a, b) in result.values.iter().zip(&expected) {
        if b.is_finite() {
            worst = worst.max((a - b).abs());
        }
    }
    println!("\nmax deviation from Dijkstra: {worst:.2e} (must be ~0)");
    assert!(worst < 1e-9);

    let reachable = expected.iter().filter(|d| d.is_finite()).count();
    println!(
        "{} of {} junctions reachable from junction {source};",
        reachable,
        graph.num_vertices()
    );
    for dest in [59u32, 1800, 3599] {
        let d = result.values[dest as usize];
        if d.is_finite() {
            println!("  travel time to junction {dest}: {d:.2}");
        } else {
            println!("  junction {dest} unreachable");
        }
    }
    println!(
        "\n{} supersteps, {} sync messages, replication factor {:.2}",
        result.supersteps, result.counters.messages, result.replication_factor
    );
}
