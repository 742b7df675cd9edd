//! `Convergence::GlobalError` (§4.4's legacy aggregator scheme) only decides
//! when a run stops: it ends PageRank before the frontier drains, and what it
//! computed up to there is bit for bit what the default schedule computes.

use cyclops::prelude::*;
use cyclops_engine::Convergence;
use cyclops_partition::EdgeCutPartition;

/// PageRank's values as bits, and the supersteps it ran.
fn run(g: &Graph, p: &EdgeCutPartition, convergence: Convergence, cap: usize) -> (Vec<u64>, usize) {
    let config = CyclopsConfig {
        cluster: ClusterSpec::flat(2, 1),
        max_supersteps: cap,
        convergence,
        ..Default::default()
    };
    let result = run_cyclops(&CyclopsPageRank { epsilon: 1e-12 }, g, p, &config);
    let bits = result.values.iter().map(|x| x.to_bits()).collect();
    (bits, result.supersteps)
}

#[test]
fn global_error_stops_early_on_the_active_vertices_schedule() {
    let g = Dataset::GWeb.generate_scaled(0.05, 1);
    let p = HashPartitioner.partition(&g, 2);
    let (_, drained) = run(&g, &p, Convergence::ActiveVertices, 500);
    assert!(drained < 500, "the frontier drains below the cap");

    let mut larger_epsilon_stopped_at = 0;
    for epsilon in [1e-3, 1e-4, 1e-5, 1e-6, 1e-7] {
        let (values, steps) = run(&g, &p, Convergence::GlobalError { epsilon }, 500);
        assert!(
            steps < drained,
            "epsilon {epsilon}: {steps} supersteps, the drained run took {drained}"
        );
        assert!(
            steps >= larger_epsilon_stopped_at,
            "epsilon {epsilon} stopped at {steps}, a larger one at {larger_epsilon_stopped_at}"
        );
        larger_epsilon_stopped_at = steps;
        let capped = run(&g, &p, Convergence::ActiveVertices, steps);
        assert_eq!(capped, (values, steps), "epsilon {epsilon}");
    }
}
