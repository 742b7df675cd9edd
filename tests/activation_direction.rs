//! Which way activation runs on the shapes of workload the benchmark has,
//! read off `cyclops_activation_supersteps{engine="cyclops",mode}`: one count
//! per worker-superstep, under the direction its leader chose from the
//! frontier's degree sums.
//!
//! One test, because the counters are process-global: this file is its own
//! test binary and nothing else in it runs an engine.

use cyclops_algos::als::{AlsParams, CyclopsAls};
use cyclops_algos::pagerank::CyclopsPageRank;
use cyclops_algos::sssp::CyclopsSssp;
use cyclops_engine::{run_cyclops, CyclopsConfig, CyclopsProgram};
use cyclops_graph::{Dataset, Graph};
use cyclops_net::ClusterSpec;
use cyclops_partition::{EdgeCutPartitioner, HashPartitioner};

/// Runs `program` on two flat workers and returns how many worker-supersteps
/// went `(push, pull)`; together they are every worker-superstep of the run.
fn directions<P: CyclopsProgram>(program: &P, g: &Graph, max_supersteps: usize) -> (u64, u64) {
    let reg = cyclops_obs::install_global();
    let count = |mode| {
        reg.counter(
            "cyclops_activation_supersteps",
            &[("engine", "cyclops"), ("mode", mode)],
        )
        .get()
    };
    let before = (count("push"), count("pull"));
    let cluster = ClusterSpec::flat(2, 1);
    let p = HashPartitioner.partition(g, cluster.num_workers());
    let config = CyclopsConfig {
        cluster,
        max_supersteps,
        ..Default::default()
    };
    let r = run_cyclops(program, g, &p, &config);
    let (push, pull) = (count("push") - before.0, count("pull") - before.1);
    assert_eq!(push + pull, 2 * r.supersteps as u64);
    (push, pull)
}

#[test]
fn sparse_and_alternating_runs_never_pull_and_dense_stationary_ones_do() {
    // A wavefront: no superstep of SSSP on a road network wakes a quarter of
    // a worker (`sssp-road-hop`'s shape).
    let road = Dataset::RoadCa.generate_scaled(0.25, Dataset::RoadCa.default_seed());
    let (push, pull) = directions(&CyclopsSssp { source: 0 }, &road, 10_000);
    assert!(
        push > 100 && pull == 0,
        "SSSP: {push} pushed, {pull} pulled"
    );

    // A bipartite alternation: ALS's user side is nine tenths of every
    // worker, but whoever it wakes is on the other side (`als-syngl`).
    let ratings = Dataset::SynGl.generate_scaled(1.0, Dataset::SynGl.default_seed());
    let params = AlsParams {
        users: Dataset::SynGl.bipartite_users_at(1.0).unwrap(),
        dim: 4,
        lambda: 0.05,
    };
    let (push, pull) = directions(&CyclopsAls { params }, &ratings, 6);
    assert_eq!((push, pull), (12, 0), "ALS");

    // Dense and stationary: PageRank at ε = 0 republishes every rank every
    // superstep (`pr-wiki`) — the counter does move.
    let wiki = Dataset::Wiki.generate_scaled(0.25, Dataset::Wiki.default_seed());
    let (push, pull) = directions(&CyclopsPageRank { epsilon: 0.0 }, &wiki, 8);
    assert_eq!((push, pull), (0, 16), "PageRank");
}
