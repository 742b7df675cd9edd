//! Movie recommendation with ALS on the CyclopsMT engine.
//!
//! ```sh
//! cargo run --release --example recommendation
//! ```
//!
//! Generates a users×movies ratings graph (the paper's SYN-GL workload),
//! factorizes it with alternating least squares on a hierarchical
//! 3-machine × 4-thread cluster, shows the fit improving per iteration, and
//! prints recommendations for one user.

use cyclops::prelude::*;
use cyclops_algos::als::{rating_rmse, AlsParams, CyclopsAls};
use cyclops_algos::linalg::dot;
use cyclops_graph::gen::bipartite_ratings;

fn main() {
    let users = 600;
    let movies = 120;
    let (graph, _) = bipartite_ratings(users, movies, 6000, 0.9, 2024);
    println!(
        "ratings graph: {users} users x {movies} movies, {} rating edges",
        graph.num_edges() / 2
    );

    let params = AlsParams {
        users,
        dim: 8,
        lambda: 0.05,
    };
    let cluster = ClusterSpec::mt(3, 4, 2);

    println!("\n{:<10} {:>8}", "iteration", "RMSE");
    let mut factors = Vec::new();
    for iters in [1usize, 2, 4, 8] {
        let partition = HashPartitioner.partition(&graph, cluster.num_workers());
        // One ALS iteration is two supersteps: users solve, then movies.
        let config = CyclopsConfig {
            cluster,
            max_supersteps: iters * 2,
            ..Default::default()
        };
        let result = run_cyclops(&CyclopsAls { params }, &graph, &partition, &config);
        let rmse = rating_rmse(&graph, &result.values);
        println!("{iters:<10} {rmse:>8.4}");
        factors = result.values;
    }

    // Recommend unseen movies for user 0: highest predicted rating.
    let user = 0u32;
    let seen: Vec<u32> = graph.out_neighbors(user).to_vec();
    let mut predictions: Vec<(u32, f64)> = (users as u32..(users + movies) as u32)
        .filter(|m| !seen.contains(m))
        .map(|m| (m, dot(&factors[user as usize], &factors[m as usize])))
        .collect();
    predictions.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!(
        "\nuser {user} rated {} movies; top recommendations:",
        seen.len()
    );
    for (movie, score) in predictions.iter().take(5) {
        println!(
            "  movie {:>4}: predicted rating {score:.2}",
            movie - users as u32
        );
    }
}
