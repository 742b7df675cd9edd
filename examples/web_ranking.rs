//! Web ranking at dataset scale: PageRank on the GWeb stand-in, comparing
//! all three engines (Hama BSP, Cyclops, PowerGraph GAS) on the same input.
//!
//! ```sh
//! cargo run --release --example web_ranking
//! ```
//!
//! Demonstrates the paper's core claims end to end: the engines agree on
//! the ranking, but Cyclops computes fewer vertices (dynamic computation)
//! and sends far fewer messages (one per replica instead of one per edge,
//! and no 5-message GAS round-trips).

use cyclops::prelude::*;
use cyclops_algos::pagerank::{BspPageRank, GasPageRank};
use cyclops_bsp::{run_bsp, BspConfig};
use cyclops_gas::{run_gas, GasConfig};
use cyclops_partition::{RandomVertexCut, VertexCutPartitioner};

fn main() {
    let graph = Dataset::GWeb.generate_scaled(0.1, Dataset::GWeb.default_seed());
    println!(
        "GWeb stand-in: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    let cluster = ClusterSpec::flat(6, 2);
    let epsilon = 1e-6;
    let edge_cut = HashPartitioner.partition(&graph, cluster.num_workers());
    let vertex_cut = RandomVertexCut::default().partition(&graph, cluster.num_workers());

    // The same program on each engine, each with that engine's one config.
    // Hama's PageRank combines rank shares bound for one vertex, and its
    // redundant re-broadcasts are counted (Figure 3).
    let max_supersteps = 300;
    let hama = run_bsp(
        &BspPageRank { epsilon },
        &graph,
        &edge_cut,
        &BspConfig {
            cluster,
            max_supersteps,
            use_combiner: true,
            track_redundant: true,
            ..Default::default()
        },
    );
    let cyclops = run_cyclops(
        &CyclopsPageRank { epsilon },
        &graph,
        &edge_cut,
        &CyclopsConfig {
            cluster,
            max_supersteps,
            ..Default::default()
        },
    );
    let gas = run_gas(
        &GasPageRank { epsilon },
        &graph,
        &vertex_cut,
        &GasConfig {
            cluster,
            max_supersteps,
        },
    );

    println!(
        "\n{:<12} {:>10} {:>12} {:>14} {:>10}",
        "engine", "supersteps", "messages", "vertex-computes", "time"
    );
    for (name, supersteps, messages, computes, elapsed) in [
        (
            "Hama",
            hama.supersteps,
            hama.counters.messages,
            hama.stats.iter().map(|s| s.active_vertices).sum::<usize>(),
            hama.elapsed,
        ),
        (
            "Cyclops",
            cyclops.supersteps,
            cyclops.counters.messages,
            cyclops
                .stats
                .iter()
                .map(|s| s.active_vertices)
                .sum::<usize>(),
            cyclops.elapsed,
        ),
        (
            "PowerGraph",
            gas.supersteps,
            gas.counters.messages,
            gas.stats.iter().map(|s| s.active_vertices).sum::<usize>(),
            gas.elapsed,
        ),
    ] {
        println!(
            "{name:<12} {supersteps:>10} {messages:>12} {computes:>14} {:>9.3}s",
            elapsed.as_secs_f64()
        );
    }

    // The three engines agree on the top pages.
    let top = |values: &[f64]| -> Vec<u32> {
        let mut idx: Vec<u32> = (0..values.len() as u32).collect();
        idx.sort_by(|&a, &b| values[b as usize].partial_cmp(&values[a as usize]).unwrap());
        idx.truncate(5);
        idx
    };
    println!("\ntop-5 pages: Hama {:?}", top(&hama.values));
    println!("             Cyclops {:?}", top(&cyclops.values));
    println!("             PowerGraph {:?}", top(&gas.values));
    assert_eq!(top(&hama.values), top(&cyclops.values));
    assert_eq!(top(&hama.values), top(&gas.values));
    println!("\nall engines agree on the ranking ✔");
}
