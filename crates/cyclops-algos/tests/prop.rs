//! Property-based cross-validation of the distributed algorithms against
//! the sequential references on arbitrary graphs, partitions, and cluster
//! shapes.

use cyclops_algos::cc::{symmetrize, CyclopsComponents};
use cyclops_algos::pagerank::{BspPageRank, CyclopsPageRank};
use cyclops_algos::sssp::{BspSssp, CyclopsSssp};
use cyclops_algos::triangles::CyclopsTriangles;
use cyclops_bsp::{run_bsp, BspConfig};
use cyclops_engine::{run_cyclops, CyclopsConfig};
use cyclops_graph::{reference, Graph, GraphBuilder};
use cyclops_net::ClusterSpec;
use cyclops_partition::EdgeCutPartition;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..24).prop_flat_map(|n| {
        prop::collection::vec((0..n as u32, 0..n as u32), 1..70).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (s, t) in edges {
                b.add_edge(s, t);
            }
            b.build()
        })
    })
}

fn arb_weighted_graph() -> impl Strategy<Value = Graph> {
    (3usize..20).prop_flat_map(|n| {
        prop::collection::vec((0..n as u32, 0..n as u32, 1u32..20), 1..60).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (s, t, w) in edges {
                b.add_weighted_edge(s, t, w as f64 * 0.5);
            }
            b.build()
        })
    })
}

fn pseudo_partition(g: &Graph, k: usize, seed: u64) -> EdgeCutPartition {
    let assignment = g
        .vertices()
        .map(|v| (((v as u64 + 1).wrapping_mul(2 * seed + 1) >> 2) % k as u64) as u32)
        .collect();
    EdgeCutPartition::new(k, assignment)
}

/// `k` single-worker machines, capped at `max_supersteps`.
fn cyclops_config(k: usize, max_supersteps: usize) -> CyclopsConfig {
    CyclopsConfig {
        cluster: ClusterSpec::flat(k, 1),
        max_supersteps,
        ..Default::default()
    }
}

/// The same cluster on the BSP baseline; both programs run here define
/// `combine`.
fn bsp_config(k: usize, max_supersteps: usize) -> BspConfig {
    BspConfig {
        cluster: ClusterSpec::flat(k, 1),
        max_supersteps,
        use_combiner: true,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cyclops_pagerank_matches_reference(
        g in arb_graph(),
        k in 1usize..4,
        seed in 0u64..100,
        iters in 1usize..12,
    ) {
        let p = pseudo_partition(&g, k, seed);
        let r = run_cyclops(&CyclopsPageRank { epsilon: 0.0 }, &g, &p, &cyclops_config(k, iters));
        let (expected, _) = reference::pagerank(&g, 0.0, iters);
        for (a, e) in r.values.iter().zip(&expected) {
            prop_assert!((a - e).abs() < 1e-12, "{a} vs {e}");
        }
    }

    #[test]
    fn bsp_pagerank_matches_reference(
        g in arb_graph(),
        k in 1usize..4,
        seed in 0u64..100,
        iters in 1usize..10,
    ) {
        let p = pseudo_partition(&g, k, seed);
        let config = BspConfig { track_redundant: true, ..bsp_config(k, iters + 1) };
        let r = run_bsp(&BspPageRank { epsilon: 0.0 }, &g, &p, &config);
        let (expected, _) = reference::pagerank(&g, 0.0, iters);
        for (a, e) in r.values.iter().zip(&expected) {
            prop_assert!((a - e).abs() < 1e-10, "{a} vs {e}");
        }
    }

    #[test]
    fn sssp_matches_dijkstra(
        g in arb_weighted_graph(),
        k in 1usize..4,
        seed in 0u64..100,
        source_pick in 0usize..100,
    ) {
        let source = (source_pick % g.num_vertices()) as u32;
        let p = pseudo_partition(&g, k, seed);
        let expected = reference::sssp(&g, source);
        for values in [
            run_cyclops(&CyclopsSssp { source }, &g, &p, &cyclops_config(k, 100_000)).values,
            run_bsp(&BspSssp { source }, &g, &p, &bsp_config(k, 100_000)).values,
        ] {
            for (i, (a, e)) in values.iter().zip(&expected).enumerate() {
                if e.is_finite() {
                    prop_assert!((a - e).abs() < 1e-9, "vertex {i}: {a} vs {e}");
                } else {
                    prop_assert!(a.is_infinite(), "vertex {i} should be unreachable");
                }
            }
        }
    }

    #[test]
    fn cc_matches_union_find(
        g in arb_graph(),
        k in 1usize..4,
        seed in 0u64..100,
    ) {
        let sym = symmetrize(&g);
        let p = pseudo_partition(&sym, k, seed);
        let r = run_cyclops(&CyclopsComponents, &sym, &p, &cyclops_config(k, 100_000));
        prop_assert_eq!(r.values, reference::connected_components(&sym));
    }

    #[test]
    fn triangles_match_reference(
        g in arb_graph(),
        k in 1usize..4,
        seed in 0u64..100,
    ) {
        let sym = symmetrize(&g);
        let p = pseudo_partition(&sym, k, seed);
        let r = run_cyclops(&CyclopsTriangles, &sym, &p, &cyclops_config(k, 4));
        prop_assert_eq!(
            r.values.iter().sum::<u64>() as usize,
            reference::triangle_count(&sym)
        );
    }
}
