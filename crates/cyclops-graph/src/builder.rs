//! Mutable edge-list accumulator producing immutable CSR [`Graph`]s.

use crate::graph::{Graph, VertexId};

/// Accumulates directed edges, then builds the two-way CSR representation in
/// one pass. The builder sorts adjacency lists by neighbor id so that engine
/// output is deterministic regardless of insertion order.
///
/// ```
/// use cyclops_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    srcs: Vec<VertexId>,
    dsts: Vec<VertexId>,
    weights: Vec<f64>,
    weighted: bool,
    dedup: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        GraphBuilder {
            num_vertices,
            ..Default::default()
        }
    }

    /// Enables removal of duplicate `(src, dst)` pairs at build time (keeping
    /// the first weight seen). Off by default: multigraphs are allowed.
    pub fn dedup(mut self, yes: bool) -> Self {
        self.dedup = yes;
        self
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.srcs.len()
    }

    /// Number of vertices the final graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Adds an unweighted directed edge. Panics if either endpoint is out of
    /// range.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId) {
        assert!(
            (src as usize) < self.num_vertices && (dst as usize) < self.num_vertices,
            "edge ({src}, {dst}) out of range for {} vertices",
            self.num_vertices
        );
        assert!(!self.weighted, "mixing weighted and unweighted edges");
        self.srcs.push(src);
        self.dsts.push(dst);
    }

    /// Adds a weighted directed edge.
    pub fn add_weighted_edge(&mut self, src: VertexId, dst: VertexId, w: f64) {
        assert!(
            (src as usize) < self.num_vertices && (dst as usize) < self.num_vertices,
            "edge ({src}, {dst}) out of range for {} vertices",
            self.num_vertices
        );
        assert!(
            self.weighted || self.srcs.is_empty(),
            "mixing weighted and unweighted edges"
        );
        self.weighted = true;
        self.srcs.push(src);
        self.dsts.push(dst);
        self.weights.push(w);
    }

    /// Adds both directions of an undirected edge.
    pub fn add_undirected_edge(&mut self, a: VertexId, b: VertexId) {
        self.add_edge(a, b);
        self.add_edge(b, a);
    }

    /// Adds both directions of an undirected weighted edge.
    pub fn add_undirected_weighted_edge(&mut self, a: VertexId, b: VertexId, w: f64) {
        self.add_weighted_edge(a, b, w);
        self.add_weighted_edge(b, a, w);
    }

    /// Builds the immutable CSR graph, consuming the builder.
    pub fn build(self) -> Graph {
        let GraphBuilder {
            num_vertices,
            srcs,
            dsts,
            weights,
            weighted,
            dedup,
        } = self;
        let n = num_vertices;

        // Sort edge indices by (src, dst) via counting sort on src, then an
        // in-bucket sort on dst, which keeps the build O(E log d_max).
        let mut out_offsets = vec![0usize; n + 1];
        for &s in &srcs {
            out_offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let m = srcs.len();
        let mut order: Vec<u32> = vec![0; m];
        {
            let mut cursor = out_offsets.clone();
            for (i, &s) in srcs.iter().enumerate() {
                order[cursor[s as usize]] = i as u32;
                cursor[s as usize] += 1;
            }
        }
        for v in 0..n {
            order[out_offsets[v]..out_offsets[v + 1]].sort_by_key(|&i| dsts[i as usize]);
        }

        // Optionally drop duplicate (src,dst) pairs, keeping the first weight
        // encountered in sorted order.
        let keep: Vec<u32> = if dedup {
            let mut kept = Vec::with_capacity(m);
            for v in 0..n {
                let mut last = None;
                for &i in &order[out_offsets[v]..out_offsets[v + 1]] {
                    let d = dsts[i as usize];
                    if last != Some(d) {
                        kept.push(i);
                        last = Some(d);
                    }
                }
            }
            kept
        } else {
            order
        };

        // Rebuild out-CSR over the kept edges.
        let m = keep.len();
        let mut out_offsets = vec![0usize; n + 1];
        for &i in &keep {
            out_offsets[srcs[i as usize] as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = vec![0 as VertexId; m];
        let mut out_weights = if weighted {
            vec![0.0f64; m]
        } else {
            Vec::new()
        };
        for (pos, &i) in keep.iter().enumerate() {
            out_targets[pos] = dsts[i as usize];
            if weighted {
                out_weights[pos] = weights[i as usize];
            }
        }

        // Build the in-CSR (transpose) with sources sorted per target.
        let mut in_offsets = vec![0usize; n + 1];
        for &t in &out_targets {
            in_offsets[t as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut in_sources = vec![0 as VertexId; m];
        let mut in_weights = if weighted {
            vec![0.0f64; m]
        } else {
            Vec::new()
        };
        {
            let mut cursor = in_offsets.clone();
            // Iterating sources in increasing order keeps each in-adjacency
            // list sorted by source id.
            for v in 0..n {
                for e in out_offsets[v]..out_offsets[v + 1] {
                    let t = out_targets[e] as usize;
                    in_sources[cursor[t]] = v as VertexId;
                    if weighted {
                        in_weights[cursor[t]] = out_weights[e];
                    }
                    cursor[t] += 1;
                }
            }
        }

        Graph::from_csr(
            n,
            out_offsets,
            out_targets,
            if weighted { Some(out_weights) } else { None },
            in_offsets,
            in_sources,
            if weighted { Some(in_weights) } else { None },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_adjacency() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 3);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        let g = b.build();
        assert_eq!(g.out_neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn dedup_drops_duplicates_keeping_first_weight() {
        let mut b = GraphBuilder::new(2).dedup(true);
        b.add_weighted_edge(0, 1, 5.0);
        b.add_weighted_edge(0, 1, 9.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_weights(0), &[5.0]);
    }

    #[test]
    fn multigraph_kept_without_dedup() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn transpose_is_consistent() {
        let mut b = GraphBuilder::new(5);
        let edges = [(0, 1), (2, 1), (4, 1), (3, 2), (1, 0)];
        for (s, t) in edges {
            b.add_edge(s, t);
        }
        let g = b.build();
        assert_eq!(g.in_neighbors(1), &[0, 2, 4]);
        assert_eq!(g.in_neighbors(0), &[1]);
        // Every out-edge appears exactly once as an in-edge.
        let mut from_out: Vec<_> = g.edges().map(|(s, t, _)| (s, t)).collect();
        let mut from_in: Vec<_> = g
            .vertices()
            .flat_map(|v| g.in_neighbors(v).iter().map(move |&s| (s, v)))
            .collect();
        from_out.sort_unstable();
        from_in.sort_unstable();
        assert_eq!(from_out, from_in);
    }

    #[test]
    fn undirected_adds_both_directions() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected_edge(0, 1);
        let g = b.build();
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.out_neighbors(1), &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }
}
