//! Property-based tests of the partitioners: structural invariants hold on
//! arbitrary graphs for all four partitioning strategies.

use cyclops_graph::{Graph, GraphBuilder};
use cyclops_partition::{
    EdgeCutPartitioner, GreedyVertexCut, HashPartitioner, MultilevelPartitioner, RandomVertexCut,
    VertexCutPartitioner,
};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..30).prop_flat_map(|n| {
        prop::collection::vec((0..n as u32, 0..n as u32), 0..120).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (s, t) in edges {
                b.add_edge(s, t);
            }
            b.build()
        })
    })
}

proptest! {
    #[test]
    fn edge_cut_partitions_are_total_and_in_range(g in arb_graph(), k in 1usize..6) {
        for partition in [
            HashPartitioner.partition(&g, k),
            MultilevelPartitioner::default().partition(&g, k),
        ] {
            prop_assert_eq!(partition.assignment.len(), g.num_vertices());
            prop_assert!(partition.assignment.iter().all(|&p| (p as usize) < k));
            prop_assert_eq!(partition.part_sizes().iter().sum::<usize>(), g.num_vertices());
        }
    }

    #[test]
    fn edge_cut_metrics_are_consistent(g in arb_graph(), k in 1usize..6) {
        let p = HashPartitioner.partition(&g, k);
        // Replicas never exceed the cut edges, and vanish for k = 1.
        prop_assert!(p.total_replicas(&g) <= p.edge_cut(&g));
        if k == 1 {
            prop_assert_eq!(p.edge_cut(&g), 0);
            prop_assert_eq!(p.replication_factor(&g), 0.0);
        }
        // Replication factor is bounded by min(k - 1, max out-degree).
        let max_deg = g.vertices().map(|v| g.out_degree(v)).max().unwrap_or(0);
        let bound = (k - 1).min(max_deg) as f64;
        prop_assert!(p.replication_factor(&g) <= bound + 1e-12);
    }

    #[test]
    fn multilevel_is_deterministic(g in arb_graph(), k in 2usize..5) {
        // The same seed gives the same partition.
        let a = MultilevelPartitioner::default().partition(&g, k);
        let b = MultilevelPartitioner::default().partition(&g, k);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn vertex_cut_masters_live_in_replica_sets(g in arb_graph(), k in 1usize..6) {
        for partition in [
            RandomVertexCut::default().partition(&g, k),
            GreedyVertexCut::default().partition(&g, k),
        ] {
            prop_assert_eq!(partition.edge_assignment.len(), g.num_edges());
            for v in 0..g.num_vertices() {
                prop_assert!(!partition.replicas[v].is_empty());
                prop_assert!(partition.replicas[v].binary_search(&partition.masters[v]).is_ok());
            }
        }
    }

    #[test]
    fn vertex_cut_replicas_cover_edges(g in arb_graph(), k in 1usize..6) {
        let p = GreedyVertexCut::default().partition(&g, k);
        // Every edge's part must appear in both endpoints' replica sets.
        for (e, (u, v, _)) in g.edges().enumerate() {
            let part = p.edge_assignment[e];
            prop_assert!(p.replicas[u as usize].binary_search(&part).is_ok());
            prop_assert!(p.replicas[v as usize].binary_search(&part).is_ok());
        }
    }

    #[test]
    fn hybrid_threshold_zero_matches_full_replication(g in arb_graph(), k in 1usize..6) {
        let p = HashPartitioner.partition(&g, k);
        prop_assert_eq!(p.total_replicas_at_threshold(&g, 0), p.total_replicas(&g));
        prop_assert_eq!(
            p.replication_factor_at_threshold(&g, 0),
            p.replication_factor(&g)
        );
    }

    #[test]
    fn hybrid_replication_factor_is_monotone_in_threshold(g in arb_graph(), k in 1usize..6) {
        let p = HashPartitioner.partition(&g, k);
        let sweep = p.replication_factor_sweep(&g, &[0, 1, 2, 3, 4, 6, 8, 16, 64, u32::MAX]);
        for w in sweep.windows(2) {
            prop_assert!(
                w[1].1 <= w[0].1 + 1e-12,
                "factor rose from {} (t={}) to {} (t={})", w[0].1, w[0].0, w[1].1, w[1].0
            );
        }
        // The boundary split is a partition of the boundary set at every
        // threshold, including the modeled auto pick.
        let boundary = g.vertices()
            .filter(|&u| g.out_neighbors(u).iter().any(|&v| p.part_of(v) != p.part_of(u)))
            .count();
        let auto = p.auto_replicate_threshold(&g);
        for t in [0, 1, 2, 8, auto, u32::MAX] {
            let (replicated, messaged) = p.boundary_split(&g, t);
            prop_assert_eq!(replicated + messaged, boundary);
        }
    }

    #[test]
    fn vertex_cut_replication_factor_bounds(g in arb_graph(), k in 1usize..6) {
        for p in [
            RandomVertexCut::default().partition(&g, k),
            GreedyVertexCut::default().partition(&g, k),
        ] {
            let rf = p.replication_factor();
            prop_assert!(rf >= 1.0 - 1e-12, "every vertex has >= 1 replica");
            prop_assert!(rf <= k as f64 + 1e-12);
            prop_assert_eq!(p.edge_loads().iter().sum::<usize>(), g.num_edges());
        }
    }
}
