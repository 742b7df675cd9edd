//! Immutable CSR graph representation.
//!
//! The [`Graph`] stores a directed graph in compressed-sparse-row form twice:
//! once by out-edges (for push-mode algorithms and for sending activation) and
//! once by in-edges (for pull-mode algorithms that read all incoming
//! neighbors, the access pattern at the heart of the distributed immutable
//! view). Edge weights, when present, are stored aligned with both views so a
//! pull-mode vertex can read the weight of an incoming edge without an
//! indirection.

/// Identifier of a vertex. Graphs in this reproduction are bounded by `u32`,
/// which comfortably covers the paper's largest dataset (Wiki, 5.7M vertices).
pub type VertexId = u32;

/// Sentinel vertex id used to mark "no vertex" in dense tables.
pub const INVALID_VERTEX: VertexId = u32::MAX;

/// An immutable directed graph in CSR form with both adjacency directions.
///
/// Construct one through [`crate::GraphBuilder`], the generators in
/// [`crate::gen`], or the loaders in [`crate::io`].
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    num_vertices: usize,
    // Out-CSR.
    out_offsets: Vec<usize>,
    out_targets: Vec<VertexId>,
    out_weights: Option<Vec<f64>>,
    // In-CSR (transpose).
    in_offsets: Vec<usize>,
    in_sources: Vec<VertexId>,
    in_weights: Option<Vec<f64>>,
}

impl Graph {
    /// Assembles a graph from raw CSR parts. Intended for use by
    /// [`crate::GraphBuilder`]; panics if the parts are inconsistent.
    pub(crate) fn from_csr(
        num_vertices: usize,
        out_offsets: Vec<usize>,
        out_targets: Vec<VertexId>,
        out_weights: Option<Vec<f64>>,
        in_offsets: Vec<usize>,
        in_sources: Vec<VertexId>,
        in_weights: Option<Vec<f64>>,
    ) -> Self {
        assert_eq!(out_offsets.len(), num_vertices + 1);
        assert_eq!(in_offsets.len(), num_vertices + 1);
        assert_eq!(*out_offsets.last().unwrap(), out_targets.len());
        assert_eq!(*in_offsets.last().unwrap(), in_sources.len());
        assert_eq!(out_targets.len(), in_sources.len());
        if let Some(w) = &out_weights {
            assert_eq!(w.len(), out_targets.len());
        }
        assert_eq!(out_weights.is_some(), in_weights.is_some());
        Graph {
            num_vertices,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_sources,
            in_weights,
        }
    }

    /// An empty graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Graph {
            num_vertices: n,
            out_offsets: vec![0; n + 1],
            out_targets: Vec::new(),
            out_weights: None,
            in_offsets: vec![0; n + 1],
            in_sources: Vec::new(),
            in_weights: None,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Whether the graph carries edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.out_weights.is_some()
    }

    /// Iterator over all vertex ids, `0..num_vertices`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices as VertexId
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.out_offsets[v + 1] - self.out_offsets[v]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.in_offsets[v + 1] - self.in_offsets[v]
    }

    /// Targets of `v`'s out-edges.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// Sources of `v`'s in-edges.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.in_sources[self.in_offsets[v]..self.in_offsets[v + 1]]
    }

    /// Weights of `v`'s out-edges, aligned with [`Self::out_neighbors`].
    /// Returns an empty slice for unweighted graphs.
    #[inline]
    pub fn out_weights(&self, v: VertexId) -> &[f64] {
        match &self.out_weights {
            Some(w) => {
                let v = v as usize;
                &w[self.out_offsets[v]..self.out_offsets[v + 1]]
            }
            None => &[],
        }
    }

    /// Weights of `v`'s in-edges, aligned with [`Self::in_neighbors`].
    /// Returns an empty slice for unweighted graphs.
    #[inline]
    pub fn in_weights(&self, v: VertexId) -> &[f64] {
        match &self.in_weights {
            Some(w) => {
                let v = v as usize;
                &w[self.in_offsets[v]..self.in_offsets[v + 1]]
            }
            None => &[],
        }
    }

    /// Iterator over `(target, weight)` pairs of `v`'s out-edges. For an
    /// unweighted graph every weight is `1.0`.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        let nbrs = self.out_neighbors(v);
        let ws = self.out_weights(v);
        nbrs.iter()
            .enumerate()
            .map(move |(i, &t)| (t, if ws.is_empty() { 1.0 } else { ws[i] }))
    }

    /// Iterator over `(source, weight)` pairs of `v`'s in-edges. For an
    /// unweighted graph every weight is `1.0`.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        let nbrs = self.in_neighbors(v);
        let ws = self.in_weights(v);
        nbrs.iter()
            .enumerate()
            .map(move |(i, &s)| (s, if ws.is_empty() { 1.0 } else { ws[i] }))
    }

    /// Iterator over every directed edge `(src, dst, weight)` in the graph.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, f64)> + '_ {
        (0..self.num_vertices as VertexId)
            .flat_map(move |v| self.out_edges(v).map(move |(t, w)| (v, t, w)))
    }

    /// This graph after one batch of edits: `add_vertices` fresh vertices
    /// appended, every copy of each `remove` pair this graph has dropped,
    /// and `add`'s edges inserted (weight `None` on an unweighted graph).
    /// The result equals, under `==`, the [`crate::GraphBuilder`] build of
    /// the surviving edges in [`Self::edges`] order followed by `add` in
    /// batch order: parallel copies keep the old ones first and the new ones
    /// in batch order, in both directions. A removal reaches only edges of
    /// this graph, never one `add` inserts, and an absent pair removes
    /// nothing. Like the builder's, the result is weighted only while it
    /// has an edge.
    ///
    /// The rows are spliced, not sorted: a row no edit touches is copied
    /// with its neighbours in one slice, and a touched row is merged with
    /// the batch's edges for it. The cost is one copy of each CSR plus the
    /// batch's rows.
    ///
    /// Panics if an added edge's weight does not match the graph, or if an
    /// endpoint is beyond the grown vertex range.
    pub fn with_edits(
        &self,
        add_vertices: usize,
        add: &[(VertexId, VertexId, Option<f64>)],
        remove: &[(VertexId, VertexId)],
    ) -> Graph {
        let n = self.num_vertices + add_vertices;
        for &(s, t, w) in add {
            match (self.is_weighted(), w) {
                (true, None) => panic!("weighted graph needs edge weights"),
                (false, Some(_)) => panic!("unweighted graph cannot take weighted edges"),
                _ => {}
            }
            assert!(
                (s as usize) < n && (t as usize) < n,
                "edge ({s}, {t}) out of range for {n} vertices"
            );
        }
        // The pairs this graph has, once each, with their copy counts.
        let copies = |(s, t): (VertexId, VertexId)| match (s as usize) < self.num_vertices {
            true => {
                let row = self.out_neighbors(s);
                row.partition_point(|&x| x <= t) - row.partition_point(|&x| x < t)
            }
            false => 0,
        };
        let mut removed: Vec<(VertexId, VertexId)> = remove.to_vec();
        removed.sort_unstable();
        removed.dedup();
        removed.retain(|&pair| copies(pair) > 0);
        let dropped: usize = removed.iter().map(|&pair| copies(pair)).sum();
        let len = self.num_edges() - dropped + add.len();
        let weighted = self.is_weighted() && len > 0;

        // Each direction is the same splice with rows and columns swapped.
        // The sorts are stable, so copies of one pair keep batch order.
        let mut out_adds: Vec<(VertexId, VertexId, f64)> = add
            .iter()
            .map(|&(s, t, w)| (s, t, w.unwrap_or_default()))
            .collect();
        out_adds.sort_by_key(|&(s, t, _)| (s, t));
        let mut in_adds: Vec<(VertexId, VertexId, f64)> =
            out_adds.iter().map(|&(s, t, w)| (t, s, w)).collect();
        in_adds.sort_by_key(|&(t, s, _)| (t, s));
        let mut in_removed: Vec<(VertexId, VertexId)> =
            removed.iter().map(|&(s, t)| (t, s)).collect();
        in_removed.sort_unstable();

        let (out_offsets, out_targets, out_weights) = splice(
            (
                &self.out_offsets,
                &self.out_targets,
                self.out_weights.as_deref(),
            ),
            (n, len, weighted),
            &out_adds,
            &removed,
        );
        let (in_offsets, in_sources, in_weights) = splice(
            (
                &self.in_offsets,
                &self.in_sources,
                self.in_weights.as_deref(),
            ),
            (n, len, weighted),
            &in_adds,
            &in_removed,
        );
        Graph::from_csr(
            n,
            out_offsets,
            out_targets,
            out_weights,
            in_offsets,
            in_sources,
            in_weights,
        )
    }

    /// Total bytes of the CSR arrays — the resident size of the topology.
    /// Used by the Table 2 memory-accounting experiment.
    pub fn resident_bytes(&self) -> usize {
        let mut bytes = self.out_offsets.len() * std::mem::size_of::<usize>()
            + self.out_targets.len() * std::mem::size_of::<VertexId>()
            + self.in_offsets.len() * std::mem::size_of::<usize>()
            + self.in_sources.len() * std::mem::size_of::<VertexId>();
        if let Some(w) = &self.out_weights {
            bytes += 2 * w.len() * std::mem::size_of::<f64>();
        }
        bytes
    }
}

/// One direction of [`Graph::with_edits`]: `rows` rows of `len` entries in
/// all, where a row keeps its old entries but the `removed` columns and takes
/// `added`'s entries after the old ones of the same column. Both lists are
/// sorted by `(row, column)`; the rows between the ones they name are copied
/// in one slice, their offsets shifted.
fn splice(
    (offsets, cols, weights): (&[usize], &[VertexId], Option<&[f64]>),
    (rows, len, weighted): (usize, usize, bool),
    added: &[(VertexId, VertexId, f64)],
    removed: &[(VertexId, VertexId)],
) -> (Vec<usize>, Vec<VertexId>, Option<Vec<f64>>) {
    let old_rows = offsets.len() - 1;
    let start = |r: usize| offsets[r.min(old_rows)];
    let weights = weights.filter(|_| weighted);
    let mut new_offsets = Vec::with_capacity(rows + 1);
    let mut new_cols = Vec::with_capacity(len);
    let mut new_weights = Vec::with_capacity(if weighted { len } else { 0 });
    new_offsets.push(0);
    let (mut at, mut a, mut d) = (0, 0, 0);
    while at < rows {
        let next = [added.get(a).map(|e| e.0), removed.get(d).map(|e| e.0)]
            .into_iter()
            .flatten()
            .min()
            .map_or(rows, |r| r as usize);
        let (s, e) = (start(at), start(next));
        let shift = new_cols.len().wrapping_sub(s);
        new_offsets.extend((at + 1..=next).map(|r| start(r).wrapping_add(shift)));
        new_cols.extend_from_slice(&cols[s..e]);
        if let Some(w) = weights {
            new_weights.extend_from_slice(&w[s..e]);
        }
        if next == rows {
            break;
        }
        let a_end = a + added[a..].partition_point(|e| e.0 as usize == next);
        let d_end = d + removed[d..].partition_point(|e| e.0 as usize == next);
        let gone = &removed[d..d_end];
        let mut adds = added[a..a_end].iter().peekable();
        for i in start(next)..start(next + 1) {
            let c = cols[i];
            if gone.binary_search_by_key(&c, |g| g.1).is_ok() {
                continue;
            }
            while let Some(&(_, col, w)) = adds.next_if(|add| add.1 < c) {
                new_cols.push(col);
                new_weights.extend(weights.map(|_| w));
            }
            new_cols.push(c);
            new_weights.extend(weights.map(|w| w[i]));
        }
        for &(_, col, w) in adds {
            new_cols.push(col);
            new_weights.extend(weights.map(|_| w));
        }
        new_offsets.push(new_cols.len());
        (at, a, d) = (next + 1, a_end, d_end);
    }
    debug_assert_eq!(new_offsets.len(), rows + 1);
    debug_assert_eq!(new_cols.len(), len);
    (new_offsets, new_cols, weighted.then_some(new_weights))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> Graph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(3), 2);
    }

    #[test]
    fn unweighted_edges_report_unit_weight() {
        let g = diamond();
        assert!(!g.is_weighted());
        let e: Vec<_> = g.out_edges(0).collect();
        assert_eq!(e, vec![(1, 1.0), (2, 1.0)]);
        assert!(g.out_weights(0).is_empty());
    }

    #[test]
    fn weighted_edges_round_trip_both_views() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 1, 2.5);
        b.add_weighted_edge(1, 2, 0.5);
        b.add_weighted_edge(0, 2, 7.0);
        let g = b.build();
        assert!(g.is_weighted());
        let out0: Vec<_> = g.out_edges(0).collect();
        assert_eq!(out0, vec![(1, 2.5), (2, 7.0)]);
        let in2: Vec<_> = g.in_edges(2).collect();
        assert_eq!(in2, vec![(0, 7.0), (1, 0.5)]);
    }

    #[test]
    fn edges_iterator_visits_everything() {
        let g = diamond();
        let all: Vec<_> = g.edges().map(|(s, t, _)| (s, t)).collect();
        assert_eq!(all, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.out_degree(4), 0);
        assert!(g.out_neighbors(0).is_empty());
    }

    #[test]
    fn resident_bytes_is_positive_and_scales() {
        let small = diamond();
        let mut b = GraphBuilder::new(100);
        for i in 0..99 {
            b.add_edge(i, i + 1);
        }
        let big = b.build();
        assert!(big.resident_bytes() > small.resident_bytes());
    }
}
