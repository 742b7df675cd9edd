//! Community detection on a collaboration network (the paper's DBLP
//! workload) with label propagation on Cyclops.
//!
//! ```sh
//! cargo run --release --example communities
//! ```
//!
//! Shows dynamic computation at work: as labels stabilize, whole regions of
//! the graph stop computing, which the per-superstep activity trace makes
//! visible.

use cyclops::prelude::*;
use cyclops_algos::cd::CyclopsCommunityDetection;

fn main() {
    let graph = Dataset::Dblp.generate_scaled(0.3, Dataset::Dblp.default_seed());
    println!(
        "DBLP stand-in: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    let cluster = ClusterSpec::flat(4, 2);
    let partition = MultilevelPartitioner::default().partition(&graph, cluster.num_workers());
    println!(
        "multilevel partition: replication factor {:.2} (hash would be {:.2})",
        partition.replication_factor(&graph),
        HashPartitioner
            .partition(&graph, cluster.num_workers())
            .replication_factor(&graph)
    );

    // One label-propagation sweep per superstep: at most 30 sweeps.
    let config = CyclopsConfig {
        cluster,
        max_supersteps: 30,
        ..Default::default()
    };
    let result = run_cyclops(&CyclopsCommunityDetection, &graph, &partition, &config);

    println!("\nactivity per superstep (dynamic computation):");
    for s in &result.stats {
        let bar_len = 40 * s.active_vertices / graph.num_vertices().max(1);
        println!(
            "  step {:>2}: {:>6} active |{}",
            s.superstep,
            s.active_vertices,
            "#".repeat(bar_len)
        );
    }

    // Count communities and show the largest.
    let mut sizes: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for &label in &result.values {
        *sizes.entry(label).or_insert(0) += 1;
    }
    let mut by_size: Vec<(u32, usize)> = sizes.into_iter().collect();
    by_size.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    println!(
        "\n{} communities found in {} supersteps; largest:",
        by_size.len(),
        result.supersteps
    );
    for (label, size) in by_size.iter().take(5) {
        println!("  community {label}: {size} members");
    }
}
