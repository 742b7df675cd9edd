//! Cross-engine integration tests: the three engines must agree with each
//! other and with the sequential references on every workload, across
//! cluster shapes and partitioners.

use cyclops::prelude::*;
use cyclops_algos::als::{reference_als, AlsParams, BspAls, CyclopsAls, INLINE};
use cyclops_algos::cd::{BspCommunityDetection, CyclopsCommunityDetection};
use cyclops_algos::pagerank::{BspPageRank, GasPageRank};
use cyclops_algos::sssp::{BspSssp, CyclopsSssp, GasSssp};
use cyclops_bsp::{run_bsp, BspConfig};
use cyclops_gas::{run_gas, GasConfig};
use cyclops_graph::reference;
use cyclops_partition::{
    GreedyVertexCut, MultilevelPartitioner, RandomVertexCut, VertexCutPartitioner,
};

fn cyclops_config(cluster: ClusterSpec, max_supersteps: usize) -> CyclopsConfig {
    CyclopsConfig {
        cluster,
        max_supersteps,
        ..Default::default()
    }
}

/// The BSP config of the programs that define no combiner (CD, ALS) and
/// whose redundant broadcasts Figure 3 counts.
fn bsp_config(cluster: ClusterSpec, max_supersteps: usize) -> BspConfig {
    BspConfig {
        cluster,
        max_supersteps,
        track_redundant: true,
        ..Default::default()
    }
}

/// [`bsp_config`] for the programs that combine (PageRank, SSSP).
fn bsp_combining(cluster: ClusterSpec, max_supersteps: usize) -> BspConfig {
    BspConfig {
        use_combiner: true,
        ..bsp_config(cluster, max_supersteps)
    }
}

fn gas_config(cluster: ClusterSpec, max_supersteps: usize) -> GasConfig {
    GasConfig {
        cluster,
        max_supersteps,
    }
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .filter(|(x, y)| x.is_finite() || y.is_finite())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn pagerank_all_engines_match_reference_on_gweb() {
    let g = Dataset::GWeb.generate_scaled(0.05, 1);
    let (expected, _) = reference::pagerank(&g, 0.0, 25);
    let cluster = ClusterSpec::flat(3, 2);

    let edge_cut = HashPartitioner.partition(&g, 6);
    let pagerank = CyclopsPageRank { epsilon: 0.0 };
    let cy = run_cyclops(&pagerank, &g, &edge_cut, &cyclops_config(cluster, 25));
    assert!(max_abs_diff(&cy.values, &expected) < 1e-14, "cyclops");

    // 26 supersteps = 1 seed + 25 updates.
    let pagerank = BspPageRank { epsilon: 0.0 };
    let bsp = run_bsp(&pagerank, &g, &edge_cut, &bsp_combining(cluster, 26));
    assert!(max_abs_diff(&bsp.values, &expected) < 1e-11, "bsp");

    let vertex_cut = RandomVertexCut::default().partition(&g, 6);
    let pagerank = GasPageRank { epsilon: 0.0 };
    let gas = run_gas(&pagerank, &g, &vertex_cut, &gas_config(cluster, 25));
    assert!(max_abs_diff(&gas.values, &expected) < 1e-11, "gas");
}

#[test]
fn pagerank_partitioner_does_not_change_cyclops_results() {
    let g = Dataset::Amazon.generate_scaled(0.05, 2);
    let cluster = ClusterSpec::flat(2, 2);
    let hash = HashPartitioner.partition(&g, 4);
    let metis = MultilevelPartitioner::default().partition(&g, 4);
    let pagerank = CyclopsPageRank { epsilon: 0.0 };
    let a = run_cyclops(&pagerank, &g, &hash, &cyclops_config(cluster, 30));
    let b = run_cyclops(&pagerank, &g, &metis, &cyclops_config(cluster, 30));
    // Same deterministic synchronous iteration: identical results.
    assert_eq!(a.values, b.values);
    // But Metis needs fewer replicas and messages.
    assert!(b.replication_factor <= a.replication_factor);
}

#[test]
fn sssp_all_engines_match_dijkstra_on_road() {
    let g = Dataset::RoadCa.generate_scaled(0.05, 3);
    let expected = reference::sssp(&g, 0);
    let cluster = ClusterSpec::flat(3, 2);
    let edge_cut = HashPartitioner.partition(&g, 6);
    let vertex_cut = GreedyVertexCut::default().partition(&g, 6);
    let cap = 100_000;

    for (name, values) in [
        (
            "cyclops",
            run_cyclops(
                &CyclopsSssp { source: 0 },
                &g,
                &edge_cut,
                &cyclops_config(cluster, cap),
            )
            .values,
        ),
        (
            "bsp",
            run_bsp(
                &BspSssp { source: 0 },
                &g,
                &edge_cut,
                &BspConfig {
                    cluster,
                    max_supersteps: cap,
                    use_combiner: true,
                    ..Default::default()
                },
            )
            .values,
        ),
        (
            "gas",
            run_gas(
                &GasSssp { source: 0 },
                &g,
                &vertex_cut,
                &gas_config(cluster, cap),
            )
            .values,
        ),
    ] {
        for (i, (a, e)) in values.iter().zip(&expected).enumerate() {
            if e.is_finite() {
                assert!((a - e).abs() < 1e-9, "{name} vertex {i}: {a} vs {e}");
            } else {
                assert!(a.is_infinite(), "{name} vertex {i} should be unreachable");
            }
        }
    }
}

#[test]
fn cd_engines_match_reference_on_dblp() {
    let g = Dataset::Dblp.generate_scaled(0.1, 4);
    let sweeps = 10;
    let expected = reference::label_propagation(&g, sweeps);
    let cluster = ClusterSpec::flat(2, 3);
    let p = HashPartitioner.partition(&g, 6);
    let cy = run_cyclops(
        &CyclopsCommunityDetection,
        &g,
        &p,
        &cyclops_config(cluster, sweeps),
    );
    assert_eq!(cy.values, expected, "cyclops");
    // One more superstep on BSP: superstep 0 only seeds.
    let bsp = run_bsp(
        &BspCommunityDetection,
        &g,
        &p,
        &bsp_config(cluster, sweeps + 1),
    );
    assert_eq!(bsp.values, expected, "bsp");
}

#[test]
fn als_engines_match_reference_on_syn_gl() {
    let g = Dataset::SynGl.generate_scaled(0.05, 5);
    let params = AlsParams {
        users: Dataset::SynGl.bipartite_users_at(0.05).unwrap(),
        dim: 4,
        lambda: 0.1,
    };
    let expected = reference_als(&g, params, 2);
    let cluster = ClusterSpec::flat(2, 2);
    let p = HashPartitioner.partition(&g, 4);
    // Two supersteps per iteration; BSP seeds in one more.
    let cy = run_cyclops(&CyclopsAls { params }, &g, &p, &cyclops_config(cluster, 4));
    let bsp = run_bsp(&BspAls { params }, &g, &p, &bsp_config(cluster, 5));
    for (v, exp) in expected.iter().enumerate() {
        for (d, e) in exp.iter().enumerate() {
            assert!((cy.values[v][d] - e).abs() < 1e-9, "cyclops v{v}");
            assert!((bsp.values[v][d] - e).abs() < 1e-8, "bsp v{v}");
        }
    }
}

/// Above `als::INLINE` entries a Cyclops ALS publication spills to the
/// heap; at dimension 12 the run is still the reference's, and the same
/// bits on a flat and a CyclopsMT cluster.
#[test]
fn als_heap_factors_match_reference_on_every_shape() {
    let g = Dataset::SynGl.generate_scaled(0.05, 5);
    let params = AlsParams {
        users: Dataset::SynGl.bipartite_users_at(0.05).unwrap(),
        dim: 12,
        lambda: 0.1,
    };
    assert!(params.dim > INLINE);
    let expected = reference_als(&g, params, 3);
    let run = |cluster: ClusterSpec| {
        let p = HashPartitioner.partition(&g, cluster.num_workers());
        run_cyclops(&CyclopsAls { params }, &g, &p, &cyclops_config(cluster, 6)).values
    };
    let flat = run(ClusterSpec::flat(4, 1));
    for (v, (got, exp)) in flat.iter().zip(&expected).enumerate() {
        assert_eq!(got.len(), params.dim, "v{v}");
        for (x, e) in got.iter().zip(exp) {
            assert!((x - e).abs() < 1e-9, "v{v}: {got:?} vs {exp:?}");
        }
    }
    let bits = |values: &[Vec<f64>]| -> Vec<u64> {
        values.iter().flatten().map(|x| x.to_bits()).collect()
    };
    assert_eq!(bits(&flat), bits(&run(ClusterSpec::mt(2, 3, 2))));
}

#[test]
fn cyclops_mt_configs_agree_with_flat() {
    // The same partition computed by wildly different thread/receiver
    // configurations must produce identical results.
    let g = Dataset::GWeb.generate_scaled(0.03, 6);
    let p = HashPartitioner.partition(&g, 4);
    let pagerank = CyclopsPageRank { epsilon: 0.0 };
    let base = run_cyclops(
        &pagerank,
        &g,
        &p,
        &cyclops_config(ClusterSpec::flat(4, 1), 20),
    );
    for spec in [
        ClusterSpec::mt(4, 2, 1),
        ClusterSpec::mt(4, 4, 2),
        ClusterSpec::mt(4, 4, 4),
        ClusterSpec {
            machines: 2,
            workers_per_machine: 2,
            threads_per_worker: 3,
            receivers_per_worker: 2,
        },
    ] {
        let r = run_cyclops(&pagerank, &g, &p, &cyclops_config(spec, 20));
        assert_eq!(r.values, base.values, "config {spec}");
    }
}

#[test]
fn message_counts_follow_the_papers_ordering() {
    // Cyclops <= Hama messages; GAS ~5x the replicas' worth.
    let g = Dataset::Amazon.generate_scaled(0.1, 7);
    let cluster = ClusterSpec::flat(3, 2);
    let edge_cut = HashPartitioner.partition(&g, 6);
    let eps = 1e-6;
    let hama = run_bsp(
        &BspPageRank { epsilon: eps },
        &g,
        &edge_cut,
        &bsp_combining(cluster, 200),
    );
    let cy = run_cyclops(
        &CyclopsPageRank { epsilon: eps },
        &g,
        &edge_cut,
        &cyclops_config(cluster, 200),
    );
    assert!(
        (cy.counters.messages as f64) < 0.8 * hama.counters.messages as f64,
        "cyclops {} vs hama {}",
        cy.counters.messages,
        hama.counters.messages
    );
    let vertex_cut = RandomVertexCut::default().partition(&g, 6);
    let gas = run_gas(
        &GasPageRank { epsilon: eps },
        &g,
        &vertex_cut,
        &gas_config(cluster, 200),
    );
    assert!(
        gas.counters.messages > cy.counters.messages * 3,
        "gas {} vs cyclops {}",
        gas.counters.messages,
        cy.counters.messages
    );
}
