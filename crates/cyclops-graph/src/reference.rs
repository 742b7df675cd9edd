//! Sequential reference implementations of the evaluated algorithms.
//!
//! These are deliberately simple, single-threaded implementations used by the
//! test suite as ground truth for the distributed engines. PageRank and
//! community detection mirror the exact synchronous update rule the engines
//! use (so results match to floating-point accumulation order); SSSP uses
//! Dijkstra, which bounds the Bellman–Ford-style distributed result from
//! below and must agree exactly at convergence. The ALS reference lives in
//! `cyclops-algos` next to the dense solver it shares with the distributed
//! version.
//!
//! The `certify_*` checkers accept or reject an SSSP, BFS or components
//! answer in O(V + E) without recomputing it: an engine computes, a small
//! checker verifies.

use crate::graph::{Graph, VertexId};

/// One synchronous PageRank sweep: `out[v] = 0.15/n + 0.85 * Σ in[u]/deg+(u)`.
/// This is the paper's update rule (Figures 2 and 5) with damping 0.85.
pub fn pagerank_step(g: &Graph, current: &[f64], next: &mut [f64]) {
    let n = g.num_vertices() as f64;
    for v in g.vertices() {
        let mut sum = 0.0;
        for &u in g.in_neighbors(v) {
            sum += current[u as usize] / g.out_degree(u).max(1) as f64;
        }
        next[v as usize] = 0.15 / n + 0.85 * sum;
    }
}

/// Runs synchronous PageRank for at most `max_iters` sweeps, stopping early
/// when every per-vertex change is below `epsilon`. Returns the rank vector
/// and the number of sweeps executed.
pub fn pagerank(g: &Graph, epsilon: f64, max_iters: usize) -> (Vec<f64>, usize) {
    let n = g.num_vertices();
    let mut current = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    for iter in 0..max_iters {
        pagerank_step(g, &current, &mut next);
        let max_delta = current
            .iter()
            .zip(next.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        std::mem::swap(&mut current, &mut next);
        if max_delta < epsilon {
            return (current, iter + 1);
        }
    }
    (current, max_iters)
}

/// Single-source shortest paths by Dijkstra. Returns `f64::INFINITY` for
/// unreachable vertices. Panics on negative edge weights.
pub fn sssp(g: &Graph, source: VertexId) -> Vec<f64> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct Entry(f64, VertexId);
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap on distance.
            other.0.partial_cmp(&self.0).expect("distances are finite")
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut dist = vec![f64::INFINITY; g.num_vertices()];
    dist[source as usize] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(Entry(0.0, source));
    while let Some(Entry(d, v)) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for (t, w) in g.out_edges(v) {
            assert!(w >= 0.0, "negative edge weight");
            let nd = d + w;
            if nd < dist[t as usize] {
                dist[t as usize] = nd;
                heap.push(Entry(nd, t));
            }
        }
    }
    dist
}

/// One synchronous label-propagation sweep: each vertex adopts the most
/// frequent label among its in-neighbors, breaking ties toward the smallest
/// label; isolated vertices keep their own label.
pub fn label_propagation_step(g: &Graph, current: &[VertexId], next: &mut [VertexId]) {
    let mut counts: std::collections::HashMap<VertexId, usize> = std::collections::HashMap::new();
    for v in g.vertices() {
        counts.clear();
        for &u in g.in_neighbors(v) {
            *counts.entry(current[u as usize]).or_insert(0) += 1;
        }
        next[v as usize] = counts
            .iter()
            // Max count, then min label: compare (count, Reverse(label)).
            .max_by_key(|&(label, count)| (*count, std::cmp::Reverse(*label)))
            .map(|(&label, _)| label)
            .unwrap_or(current[v as usize]);
    }
}

/// Runs `iters` synchronous label-propagation sweeps starting from
/// `label(v) = v` and returns the final labels.
pub fn label_propagation(g: &Graph, iters: usize) -> Vec<VertexId> {
    let mut current: Vec<VertexId> = g.vertices().collect();
    let mut next = current.clone();
    for _ in 0..iters {
        label_propagation_step(g, &current, &mut next);
        std::mem::swap(&mut current, &mut next);
    }
    current
}

/// Weakly connected components via union-find (edges treated as
/// undirected). Returns, per vertex, the smallest vertex id in its
/// component — the labeling the distributed min-propagation converges to.
pub fn connected_components(g: &Graph) -> Vec<VertexId> {
    struct Dsu(Vec<u32>);
    impl Dsu {
        fn find(&mut self, x: u32) -> u32 {
            if self.0[x as usize] != x {
                let root = self.find(self.0[x as usize]);
                self.0[x as usize] = root;
            }
            self.0[x as usize]
        }
        fn union(&mut self, a: u32, b: u32) {
            let (ra, rb) = (self.find(a), self.find(b));
            // Union by min id so the root is the component's minimum.
            if ra < rb {
                self.0[rb as usize] = ra;
            } else if rb < ra {
                self.0[ra as usize] = rb;
            }
        }
    }
    let mut dsu = Dsu(g.vertices().collect());
    for (s, t, _) in g.edges() {
        dsu.union(s, t);
    }
    g.vertices().map(|v| dsu.find(v)).collect()
}

/// BFS hop distance from `source` along out-edges; `u32::MAX` marks
/// unreachable vertices.
pub fn bfs_levels(g: &Graph, source: VertexId) -> Vec<u32> {
    let mut level = vec![u32::MAX; g.num_vertices()];
    level[source as usize] = 0;
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        for &t in g.out_neighbors(v) {
            if level[t as usize] == u32::MAX {
                level[t as usize] = level[v as usize] + 1;
                queue.push_back(t);
            }
        }
    }
    level
}

/// Checks `dist` as the shortest-path distances from `source` over a graph
/// with positive weights: the source is at 0, no edge relaxes
/// (`d[v] <= d[u] + w`), and every other reached vertex has an in-edge with
/// `d[v] == d[u] + w` exactly, so following those edges back reaches the
/// source along a path of length `d[v]`. Unreached vertices are infinite.
/// `Err` names the first violation.
pub fn certify_sssp(g: &Graph, source: VertexId, dist: &[f64]) -> Result<(), String> {
    certify_distances(g, source, dist, 0.0, f64::INFINITY, |d, w| d + w)
}

/// [`certify_sssp`] for BFS levels: weight 1 on every edge, `u32` levels,
/// `u32::MAX` meaning unreached.
pub fn certify_bfs(g: &Graph, source: VertexId, levels: &[u32]) -> Result<(), String> {
    certify_distances(g, source, levels, 0, u32::MAX, |d, _| d.saturating_add(1))
}

/// The rules of [`certify_sssp`] for any distance type; `hop(d[u], w)` is
/// the distance an edge of weight `w` offers its target.
fn certify_distances<D: Copy + PartialOrd + std::fmt::Debug>(
    g: &Graph,
    source: VertexId,
    d: &[D],
    zero: D,
    unreached: D,
    hop: impl Fn(D, f64) -> D,
) -> Result<(), String> {
    use std::cmp::Ordering::{Greater, Less};
    if d.len() != g.num_vertices() {
        return Err(format!(
            "{} values for {} vertices",
            d.len(),
            g.num_vertices()
        ));
    }
    if d.get(source as usize) != Some(&zero) {
        return Err(format!("source {source} is not at {zero:?}"));
    }
    for v in g.vertices() {
        let dv = d[v as usize];
        // `None` rejects NaN.
        if matches!(dv.partial_cmp(&zero), None | Some(Less)) {
            return Err(format!("vertex {v} is at {dv:?}"));
        }
        let mut tight = v == source || dv == unreached;
        for (u, w) in g.in_edges(v) {
            let via = hop(d[u as usize], w);
            if matches!(dv.partial_cmp(&via), None | Some(Greater)) {
                return Err(format!("edge {u} -> {v} relaxes {dv:?} to {via:?}"));
            }
            tight |= dv == via;
        }
        if !tight {
            return Err(format!(
                "vertex {v} is at {dv:?} but no in-edge reaches it there"
            ));
        }
    }
    Ok(())
}

/// Checks `labels` as the connected components of a symmetrized `g`, each
/// labelled by its smallest vertex id: labels agree across every edge, no
/// label exceeds its vertex's id, and every vertex is reachable from the
/// vertex its label names. `Err` names the first violation.
pub fn certify_components(g: &Graph, labels: &[VertexId]) -> Result<(), String> {
    if labels.len() != g.num_vertices() {
        return Err(format!(
            "{} labels for {} vertices",
            labels.len(),
            g.num_vertices()
        ));
    }
    for (u, v, _) in g.edges() {
        let (a, b) = (labels[u as usize], labels[v as usize]);
        if a != b {
            return Err(format!("edge {u} -> {v} joins labels {a} and {b}"));
        }
    }
    if let Some(v) = g.vertices().find(|&v| labels[v as usize] > v) {
        return Err(format!("vertex {v} is labelled {}", labels[v as usize]));
    }
    // Labels agree across edges, so a search from every vertex that names
    // itself stays inside its label and reaches exactly what it names.
    let mut seen: Vec<bool> = g.vertices().map(|v| labels[v as usize] == v).collect();
    let mut stack: Vec<VertexId> = g.vertices().filter(|&v| seen[v as usize]).collect();
    while let Some(u) = stack.pop() {
        for &t in g.out_neighbors(u) {
            if !seen[t as usize] {
                seen[t as usize] = true;
                stack.push(t);
            }
        }
    }
    match seen.iter().position(|&s| !s) {
        Some(v) => Err(format!("vertex {v} is not reachable from {}", labels[v])),
        None => Ok(()),
    }
}

/// Counts triangles, treating the graph as undirected and ignoring
/// multiplicities and self-loops. Each triangle is counted once.
pub fn triangle_count(g: &Graph) -> usize {
    // Build deduplicated undirected neighbor sets restricted to higher ids
    // (the standard forward algorithm).
    let n = g.num_vertices();
    let mut fwd: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    for v in g.vertices() {
        let mut nbrs: Vec<VertexId> = g
            .out_neighbors(v)
            .iter()
            .chain(g.in_neighbors(v))
            .copied()
            .filter(|&u| u > v)
            .collect();
        nbrs.sort_unstable();
        nbrs.dedup();
        fwd[v as usize] = nbrs;
    }
    let mut count = 0usize;
    for v in 0..n {
        let nv = &fwd[v];
        for &u in nv {
            let nu = &fwd[u as usize];
            // Intersect the two sorted lists.
            let (mut i, mut j) = (0, 0);
            while i < nv.len() && j < nu.len() {
                match nv[i].cmp(&nu[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    count
}

/// L1 distance between two equally sized vectors; used by the Figure 13(3)
/// convergence experiment and by tests.
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn cycle(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i as VertexId, ((i + 1) % n) as VertexId);
        }
        b.build()
    }

    #[test]
    fn pagerank_on_cycle_is_uniform() {
        let g = cycle(8);
        let (pr, iters) = pagerank(&g, 1e-12, 200);
        assert!(iters < 200);
        for &r in &pr {
            assert!((r - 1.0 / 8.0).abs() < 1e-9, "rank {r}");
        }
    }

    #[test]
    fn pagerank_sums_to_one_without_sinks() {
        let g = cycle(16);
        let (pr, _) = pagerank(&g, 1e-12, 500);
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn pagerank_star_center_ranks_highest() {
        // Star: every leaf points at the hub.
        let mut b = GraphBuilder::new(6);
        for leaf in 1..6 {
            b.add_edge(leaf, 0);
        }
        let g = b.build();
        let (pr, _) = pagerank(&g, 1e-12, 100);
        for leaf in 1..6 {
            assert!(pr[0] > pr[leaf]);
        }
    }

    #[test]
    fn sssp_line_graph() {
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(1, 2, 2.0);
        b.add_weighted_edge(2, 3, 3.0);
        let g = b.build();
        assert_eq!(sssp(&g, 0), vec![0.0, 1.0, 3.0, 6.0]);
    }

    #[test]
    fn sssp_prefers_cheaper_detour() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 2, 10.0);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(1, 2, 1.0);
        let g = b.build();
        assert_eq!(sssp(&g, 0)[2], 2.0);
    }

    #[test]
    fn sssp_unreachable_is_infinite() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 1.0);
        let g = b.build();
        assert!(sssp(&g, 0)[2].is_infinite());
    }

    #[test]
    fn label_propagation_two_cliques() {
        // Two directed 3-cliques joined by nothing: two communities remain.
        let mut b = GraphBuilder::new(6);
        for &(s, t) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_undirected_edge(s, t);
        }
        let g = b.build();
        let labels = label_propagation(&g, 20);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn label_tie_breaks_to_smallest() {
        // Vertex 2 hears labels {0, 1} once each -> picks 0.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let g = b.build();
        let mut next = vec![0, 1, 2];
        label_propagation_step(&g, &[0, 1, 2], &mut next);
        assert_eq!(next[2], 0);
    }

    #[test]
    fn l1_distance_basics() {
        assert_eq!(l1_distance(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(l1_distance(&[0.0, 0.0], &[1.0, -1.0]), 2.0);
    }

    #[test]
    fn connected_components_finds_min_labels() {
        // Components {0,1,2} and {3,4}; 5 isolated.
        let mut b = GraphBuilder::new(6);
        b.add_edge(1, 0);
        b.add_edge(1, 2);
        b.add_edge(4, 3);
        let g = b.build();
        assert_eq!(connected_components(&g), vec![0, 0, 0, 3, 3, 5]);
    }

    #[test]
    fn connected_components_ignore_direction() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 1);
        b.add_edge(1, 0);
        let g = b.build();
        assert_eq!(connected_components(&g), vec![0, 0, 0]);
    }

    #[test]
    fn bfs_levels_on_cycle() {
        let g = cycle(6);
        assert_eq!(bfs_levels(&g, 0), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn bfs_marks_unreachable() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(bfs_levels(&g, 0), vec![0, 1, u32::MAX]);
    }

    #[test]
    fn sssp_certificate_rejects_a_one_entry_change() {
        let mut b = GraphBuilder::new(6);
        for &(s, t, w) in &[
            (0, 1, 1.0),
            (1, 2, 2.0),
            (0, 2, 4.0),
            (2, 3, 0.5),
            (3, 1, 1.0),
            (5, 4, 1.0),
        ] {
            b.add_weighted_edge(s, t, w);
        }
        let g = b.build();
        let dist = sssp(&g, 0);
        assert_eq!(certify_sssp(&g, 0, &dist), Ok(()));
        for v in 0..dist.len() {
            let tos = if dist[v].is_finite() {
                [dist[v] + 0.5, dist[v] - 0.5]
            } else {
                [1.0, 0.0]
            };
            for to in tos {
                let mut bad = dist.clone();
                bad[v] = to;
                assert!(certify_sssp(&g, 0, &bad).is_err(), "vertex {v} at {to}");
            }
        }
    }

    #[test]
    fn bfs_certificate_rejects_a_one_entry_change() {
        let mut b = GraphBuilder::new(8);
        for &(s, t) in &[(0, 1), (1, 2), (0, 3), (3, 2), (2, 4), (4, 0), (5, 6)] {
            b.add_edge(s, t);
        }
        let g = b.build();
        let levels = bfs_levels(&g, 0);
        assert_eq!(certify_bfs(&g, 0, &levels), Ok(()));
        for v in 0..levels.len() {
            for change in [1, u32::MAX] {
                let mut bad = levels.clone();
                bad[v] = bad[v].wrapping_add(change);
                assert!(certify_bfs(&g, 0, &bad).is_err(), "vertex {v}");
            }
        }
    }

    #[test]
    fn components_certificate_rejects_a_one_entry_change() {
        let mut b = GraphBuilder::new(7);
        for &(s, t) in &[(1, 0), (1, 2), (4, 3), (6, 4)] {
            b.add_undirected_edge(s, t);
        }
        let g = b.build();
        let labels = connected_components(&g);
        assert_eq!(certify_components(&g, &labels), Ok(()));
        for v in 0..labels.len() {
            for other in 0..labels.len() as VertexId {
                if other != labels[v] {
                    let mut bad = labels.clone();
                    bad[v] = other;
                    assert!(certify_components(&g, &bad).is_err(), "{v} -> {other}");
                }
            }
        }
    }

    #[test]
    fn triangle_count_small_cases() {
        // A single triangle.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        assert_eq!(triangle_count(&b.build()), 1);
        // K4 has 4 triangles, whatever the edge directions.
        let mut b = GraphBuilder::new(4);
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                b.add_edge(i, j);
            }
        }
        assert_eq!(triangle_count(&b.build()), 4);
        // A path has none.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        assert_eq!(triangle_count(&b.build()), 0);
    }

    #[test]
    fn triangle_count_handles_duplicates_and_loops() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0); // reverse duplicate
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.add_edge(2, 2); // self loop
        assert_eq!(triangle_count(&b.build()), 1);
    }
}
