//! Graph statistics used by the experiments and by dataset validation.

use crate::graph::{Graph, VertexId};

/// Summary statistics of a graph's degree structure.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Mean out-degree (== mean in-degree).
    pub avg_degree: f64,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Fraction of vertices with no out-edges.
    pub sink_fraction: f64,
    /// Fraction of vertices with no in-edges.
    pub source_fraction: f64,
}

/// Computes [`DegreeStats`] for `g`.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    let n = g.num_vertices().max(1);
    let mut max_out = 0;
    let mut max_in = 0;
    let mut sinks = 0usize;
    let mut sources = 0usize;
    for v in g.vertices() {
        let od = g.out_degree(v);
        let id = g.in_degree(v);
        max_out = max_out.max(od);
        max_in = max_in.max(id);
        if od == 0 {
            sinks += 1;
        }
        if id == 0 {
            sources += 1;
        }
    }
    DegreeStats {
        avg_degree: g.num_edges() as f64 / n as f64,
        max_out_degree: max_out,
        max_in_degree: max_in,
        sink_fraction: sinks as f64 / n as f64,
        source_fraction: sources as f64 / n as f64,
    }
}

/// Number of vertices reachable from `src` following out-edges (including
/// `src` itself). BFS; O(V + E).
pub fn reachable_from(g: &Graph, src: VertexId) -> usize {
    let mut seen = vec![false; g.num_vertices()];
    let mut queue = std::collections::VecDeque::new();
    seen[src as usize] = true;
    queue.push_back(src);
    let mut count = 1;
    while let Some(v) = queue.pop_front() {
        for &t in g.out_neighbors(v) {
            if !seen[t as usize] {
                seen[t as usize] = true;
                count += 1;
                queue.push_back(t);
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn chain(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as VertexId, (i + 1) as VertexId);
        }
        b.build()
    }

    #[test]
    fn stats_of_chain() {
        let g = chain(10);
        let s = degree_stats(&g);
        assert_eq!(s.max_out_degree, 1);
        assert_eq!(s.max_in_degree, 1);
        assert!((s.avg_degree - 0.9).abs() < 1e-12);
        assert!((s.sink_fraction - 0.1).abs() < 1e-12);
        assert!((s.source_fraction - 0.1).abs() < 1e-12);
    }

    #[test]
    fn reachability() {
        let g = chain(10);
        assert_eq!(reachable_from(&g, 0), 10);
        assert_eq!(reachable_from(&g, 5), 5);
        assert_eq!(reachable_from(&g, 9), 1);
    }
}
