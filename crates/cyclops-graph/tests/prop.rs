//! Property-based tests of the graph substrate: CSR invariants, transpose
//! consistency, I/O round-trips, and generator guarantees hold for
//! arbitrary inputs.

use cyclops_graph::{io, Graph, GraphBuilder, VertexId};
use proptest::prelude::*;

/// Strategy: an arbitrary small directed graph as (n, edge list).
fn arb_edges() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..200);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for &(s, t) in edges {
        b.add_edge(s, t);
    }
    b.build()
}

/// What [`Graph::with_edits`] must equal: the builder fed every edge of `g`
/// that no `remove` pair names, in `edges()` order, then `add` in order.
fn rebuilt(
    g: &Graph,
    add_vertices: usize,
    add: &[(u32, u32, Option<f64>)],
    remove: &[(u32, u32)],
) -> Graph {
    let mut b = GraphBuilder::new(g.num_vertices() + add_vertices);
    for (s, t, w) in g.edges() {
        if remove.contains(&(s, t)) {
            continue;
        }
        match g.is_weighted() {
            true => b.add_weighted_edge(s, t, w),
            false => b.add_edge(s, t),
        }
    }
    for &(s, t, w) in add {
        match w {
            Some(w) => b.add_weighted_edge(s, t, w),
            None => b.add_edge(s, t),
        }
    }
    b.build()
}

proptest! {
    #[test]
    fn degree_sums_equal_edge_count((n, edges) in arb_edges()) {
        let g = build(n, &edges);
        prop_assert_eq!(g.num_edges(), edges.len());
        let out_sum: usize = g.vertices().map(|v| g.out_degree(v)).sum();
        let in_sum: usize = g.vertices().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_sum, edges.len());
        prop_assert_eq!(in_sum, edges.len());
    }

    #[test]
    fn adjacency_is_sorted((n, edges) in arb_edges()) {
        let g = build(n, &edges);
        for v in g.vertices() {
            let nbrs = g.out_neighbors(v);
            prop_assert!(nbrs.windows(2).all(|w| w[0] <= w[1]));
            let srcs = g.in_neighbors(v);
            prop_assert!(srcs.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn transpose_is_involutive((n, edges) in arb_edges()) {
        let g = build(n, &edges);
        // Every out-edge appears as an in-edge and vice versa.
        let mut out_pairs: Vec<(VertexId, VertexId)> =
            g.edges().map(|(s, t, _)| (s, t)).collect();
        let mut in_pairs: Vec<(VertexId, VertexId)> = g
            .vertices()
            .flat_map(|v| g.in_neighbors(v).iter().map(move |&s| (s, v)))
            .collect();
        out_pairs.sort_unstable();
        in_pairs.sort_unstable();
        prop_assert_eq!(out_pairs, in_pairs);
    }

    #[test]
    fn edge_multiset_is_preserved((n, edges) in arb_edges()) {
        let g = build(n, &edges);
        let mut expected = edges.clone();
        expected.sort_unstable();
        let mut actual: Vec<(u32, u32)> = g.edges().map(|(s, t, _)| (s, t)).collect();
        actual.sort_unstable();
        prop_assert_eq!(actual, expected);
    }

    #[test]
    fn dedup_removes_exactly_duplicates((n, edges) in arb_edges()) {
        let mut b = GraphBuilder::new(n).dedup(true);
        for &(s, t) in &edges {
            b.add_edge(s, t);
        }
        let g = b.build();
        let mut unique = edges.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(g.num_edges(), unique.len());
    }

    #[test]
    fn with_edits_equals_the_builder(
        (n, edges) in arb_edges(),
        weighted in any::<bool>(),
        add_vertices in 0usize..3,
        adds in prop::collection::vec((0u32..64, 0u32..64, 0u32..4), 0..10),
        removes in prop::collection::vec((0u32..256, 0u32..64, 0u32..3), 0..10),
    ) {
        // Self-loops and parallel edges come with the arbitrary edge list;
        // weights are distinct, so a copy out of order shows.
        let mut b = GraphBuilder::new(n);
        for (i, &(s, t)) in edges.iter().enumerate() {
            match weighted {
                true => b.add_weighted_edge(s, t, i as f64 * 0.25),
                false => b.add_edge(s, t),
            }
        }
        let g = b.build();
        let m = (n + add_vertices) as u32;
        let weight = |i: usize| g.is_weighted().then_some(1000.0 + i as f64);
        let mut add: Vec<(u32, u32, Option<f64>)> = Vec::new();
        for (i, &(x, y, kind)) in adds.iter().enumerate() {
            let (s, t) = match kind {
                // Parallel to an edge the graph has.
                0 if !edges.is_empty() => edges[x as usize % edges.len()],
                // A duplicate of the add before it.
                1 if !add.is_empty() => (add[add.len() - 1].0, add[add.len() - 1].1),
                // To or from a new vertex.
                2 if add_vertices > 0 => {
                    let new = n as u32 + x % add_vertices as u32;
                    match y % 2 {
                        0 => (new, y % m),
                        _ => (y % m, new),
                    }
                }
                _ => (x % m, y % m),
            };
            add.push((s, t, weight(i)));
        }
        let mut remove = Vec::new();
        for &(x, y, kind) in &removes {
            remove.push(match kind {
                // An edge the graph has.
                0 if !edges.is_empty() => edges[x as usize % edges.len()],
                // A pair the same batch adds.
                1 if !add.is_empty() => (add[x as usize % add.len()].0, add[x as usize % add.len()].1),
                // Mostly absent, sometimes beyond the grown range.
                _ => (x % (m + 2), y % (m + 2)),
            });
        }
        prop_assert_eq!(
            g.with_edits(add_vertices, &add, &remove),
            rebuilt(&g, add_vertices, &add, &remove)
        );
        // The empty batch, and one that removes every edge (the builder's
        // result is then unweighted).
        prop_assert_eq!(g.with_edits(0, &[], &[]), g.clone());
        prop_assert_eq!(g.with_edits(0, &[], &edges), rebuilt(&g, 0, &[], &edges));
    }

    #[test]
    fn io_round_trip_unweighted((n, edges) in arb_edges()) {
        let g = build(n, &edges);
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = io::read_edge_list(&buf[..], n).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn io_round_trip_weighted(
        (n, edges) in arb_edges(),
        seed in 0u64..1000,
    ) {
        let mut b = GraphBuilder::new(n);
        for (i, &(s, t)) in edges.iter().enumerate() {
            // Deterministic pseudo-weights; keep them exactly representable.
            let w = ((seed as usize + i) % 17) as f64 * 0.25 + 0.25;
            b.add_weighted_edge(s, t, w);
        }
        let g = b.build();
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = io::read_edge_list(&buf[..], n).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn pagerank_reference_invariants((n, edges) in arb_edges()) {
        let g = build(n, &edges);
        let (pr, _) = cyclops_graph::reference::pagerank(&g, 1e-10, 100);
        // Ranks are positive and bounded by 1.
        prop_assert!(pr.iter().all(|&r| r > 0.0 && r <= 1.0 + 1e-9));
        // A vertex with no in-edges has exactly the base rank.
        for v in g.vertices() {
            if g.in_degree(v) == 0 {
                prop_assert!((pr[v as usize] - 0.15 / n as f64).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sssp_reference_satisfies_triangle_inequality((n, edges) in arb_edges()) {
        let mut b = GraphBuilder::new(n);
        for (i, &(s, t)) in edges.iter().enumerate() {
            b.add_weighted_edge(s, t, 1.0 + (i % 5) as f64);
        }
        let g = b.build();
        let dist = cyclops_graph::reference::sssp(&g, 0);
        prop_assert_eq!(dist[0], 0.0);
        for (s, t, w) in g.edges() {
            if dist[s as usize].is_finite() {
                prop_assert!(dist[t as usize] <= dist[s as usize] + w + 1e-9);
            }
        }
    }
}
