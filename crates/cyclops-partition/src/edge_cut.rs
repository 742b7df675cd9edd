//! Edge-cut partitions: every vertex lives on exactly one worker; edges that
//! span workers force Cyclops to create read-only replicas.

use cyclops_graph::{Graph, VertexId};

/// An assignment of every vertex to one of `num_parts` workers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeCutPartition {
    /// Number of parts (workers).
    pub num_parts: usize,
    /// `assignment[v]` is the part owning vertex `v`.
    pub assignment: Vec<u32>,
}

impl EdgeCutPartition {
    /// Builds a partition from an explicit assignment vector; panics if any
    /// entry is out of range.
    pub fn new(num_parts: usize, assignment: Vec<u32>) -> Self {
        assert!(num_parts > 0);
        assert!(
            assignment.iter().all(|&p| (p as usize) < num_parts),
            "part id out of range"
        );
        EdgeCutPartition {
            num_parts,
            assignment,
        }
    }

    /// Part owning vertex `v`.
    #[inline]
    pub fn part_of(&self, v: VertexId) -> u32 {
        self.assignment[v as usize]
    }

    /// Number of vertices assigned to each part.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_parts];
        for &p in &self.assignment {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Number of directed edges whose endpoints live on different parts.
    pub fn edge_cut(&self, g: &Graph) -> usize {
        g.edges()
            .filter(|&(s, t, _)| self.part_of(s) != self.part_of(t))
            .count()
    }

    /// The paper's replication factor (Figure 11): average number of remote
    /// replicas per vertex. A vertex `u` is replicated on every *other* part
    /// that owns at least one of `u`'s out-neighbors — that part needs `u`'s
    /// value for pull-mode reads and `u`'s activation fan-out.
    pub fn replication_factor(&self, g: &Graph) -> f64 {
        if g.num_vertices() == 0 {
            return 0.0;
        }
        self.total_replicas(g) as f64 / g.num_vertices() as f64
    }

    /// Total number of replicas across all parts (see
    /// [`Self::replication_factor`]).
    pub fn total_replicas(&self, g: &Graph) -> usize {
        let mut total = 0usize;
        let mut seen = vec![u32::MAX; self.num_parts];
        for u in g.vertices() {
            let home = self.part_of(u);
            for &v in g.out_neighbors(u) {
                let p = self.part_of(v) as usize;
                if p as u32 != home && seen[p] != u {
                    seen[p] = u;
                    total += 1;
                }
            }
        }
        total
    }

    /// Replication factor of the degree-threshold hybrid view: boundary
    /// vertices whose combined degree (in + out) is below `threshold` get no
    /// replicas — their updates travel as per-edge direct messages instead.
    /// `threshold == 0` is full replication and equals
    /// [`Self::replication_factor`] exactly.
    pub fn replication_factor_at_threshold(&self, g: &Graph, threshold: u32) -> f64 {
        if g.num_vertices() == 0 {
            return 0.0;
        }
        self.total_replicas_at_threshold(g, threshold) as f64 / g.num_vertices() as f64
    }

    /// Total replicas under the degree-threshold hybrid view (see
    /// [`Self::replication_factor_at_threshold`]).
    pub fn total_replicas_at_threshold(&self, g: &Graph, threshold: u32) -> usize {
        let mut total = 0usize;
        let mut seen = vec![u32::MAX; self.num_parts];
        for u in g.vertices() {
            if ((g.out_degree(u) + g.in_degree(u)) as u64) < threshold as u64 {
                continue;
            }
            let home = self.part_of(u);
            for &v in g.out_neighbors(u) {
                let p = self.part_of(v) as usize;
                if p as u32 != home && seen[p] != u {
                    seen[p] = u;
                    total += 1;
                }
            }
        }
        total
    }

    /// Splits the boundary vertices (those with at least one remote
    /// out-neighbor) into `(replicated, messaged)` counts at `threshold`.
    /// The two always sum to the boundary-vertex count.
    pub fn boundary_split(&self, g: &Graph, threshold: u32) -> (usize, usize) {
        let (mut replicated, mut messaged) = (0usize, 0usize);
        for u in g.vertices() {
            let home = self.part_of(u);
            if g.out_neighbors(u).iter().any(|&v| self.part_of(v) != home) {
                if ((g.out_degree(u) + g.in_degree(u)) as u64) < threshold as u64 {
                    messaged += 1;
                } else {
                    replicated += 1;
                }
            }
        }
        (replicated, messaged)
    }

    /// Replication factor at each threshold in `thresholds`, in input order
    /// — the factor-vs-threshold curve behind the Table 4 harness.
    pub fn replication_factor_sweep(&self, g: &Graph, thresholds: &[u32]) -> Vec<(u32, f64)> {
        thresholds
            .iter()
            .map(|&t| (t, self.replication_factor_at_threshold(g, t)))
            .collect()
    }

    /// Picks the degree threshold minimizing modeled update traffic from the
    /// degree histogram. The model prices one wire entry at 16 units and
    /// weights each boundary vertex by its publication frequency: a vertex
    /// with in-degree 0 publishes exactly once (nothing can ever change its
    /// value after init), anything else is assumed to republish across a
    /// nominal 16-superstep run. A replica then costs `16·freq` units per
    /// mirror worker plus a standing 16-unit surcharge (its presence bit in
    /// every dense update batch, INIT seeding, and replica memory); a direct
    /// message costs `19·freq` units per cross-worker out-edge (the extra
    /// 3/16 is the small-batch header tax measured on the direct path).
    /// Evaluated at every distinct boundary degree; ties break toward the
    /// smaller threshold (closer to full replication). In practice this
    /// messages publish-once leaves — where the standing replica cost is
    /// pure waste — and keeps replicas for every vertex that republishes.
    pub fn auto_replicate_threshold(&self, g: &Graph) -> u32 {
        // Per combined-degree class: modeled replica cost (mirror workers)
        // and direct cost (cross-worker out-edges) of its boundary vertices.
        let mut replica_cost: Vec<u64> = Vec::new();
        let mut direct_cost: Vec<u64> = Vec::new();
        let mut seen = vec![u32::MAX; self.num_parts];
        for u in g.vertices() {
            let home = self.part_of(u);
            let (mut mirrors, mut cross) = (0u64, 0u64);
            for &v in g.out_neighbors(u) {
                let p = self.part_of(v) as usize;
                if p as u32 != home {
                    cross += 1;
                    if seen[p] != u {
                        seen[p] = u;
                        mirrors += 1;
                    }
                }
            }
            if cross == 0 {
                continue;
            }
            let d = g.out_degree(u) + g.in_degree(u);
            if replica_cost.len() <= d {
                replica_cost.resize(d + 1, 0);
                direct_cost.resize(d + 1, 0);
            }
            // Publication frequency: in-degree 0 publishes once, everything
            // else nominally every superstep of a 16-superstep run.
            let freq = if g.in_degree(u) == 0 { 1 } else { 16 };
            replica_cost[d] += 16 * freq * mirrors + 16;
            direct_cost[d] += 19 * freq * cross;
        }
        if replica_cost.is_empty() {
            return 0;
        }
        // cost(T) = sum_{d >= T} replica_cost[d] + sum_{d < T} direct_cost[d].
        // Candidate thresholds are 0 and d+1 per degree class.
        let mut replica_suffix: u64 = replica_cost.iter().sum();
        let (mut best_t, mut best_cost) = (0u32, replica_suffix);
        let mut direct_prefix = 0u64;
        for (d, (&a, &b)) in replica_cost.iter().zip(&direct_cost).enumerate() {
            replica_suffix -= a;
            direct_prefix += b;
            let cost = replica_suffix + direct_prefix;
            if cost < best_cost {
                best_cost = cost;
                best_t = (d + 1) as u32;
            }
        }
        best_t
    }

    /// Vertex balance: largest part size divided by the ideal (average) size.
    /// 1.0 is perfect; Metis-style partitioners aim for ≤ 1 + imbalance.
    pub fn balance(&self) -> f64 {
        let sizes = self.part_sizes();
        let max = *sizes.iter().max().unwrap_or(&0);
        let avg = self.assignment.len() as f64 / self.num_parts as f64;
        if avg == 0.0 {
            1.0
        } else {
            max as f64 / avg
        }
    }
}

/// A strategy producing an [`EdgeCutPartition`].
pub trait EdgeCutPartitioner {
    /// Splits `g` into `k` parts.
    fn partition(&self, g: &Graph, k: usize) -> EdgeCutPartition;
    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;
}

/// The default hash partitioner used by Hama and Pregel: `part(v) = v mod k`.
/// Fast, and oblivious to structure, so it cuts most edges. Balanced in
/// *vertex count* only: `v mod k` keeps the id's low bits, and a generator
/// that correlates degree with them passes the correlation on. R-MAT draws a
/// target id's low bit 0 with probability `a + c` = 0.76, so at `k = 2`
/// worker 0 owns 74.5 % of the Wiki stand-in's in-edges, and at `k = 48`
/// workers 0, 16 and 32 hold ≈ 5× the mean each; a road lattice splits
/// 50 | 50. A multiplicative hash of the id gives 49 | 51 on the same graphs
/// (EXPERIMENTS.md, "The hash cut is balanced in vertices, not in edges";
/// ROADMAP open item) but moves every committed traffic digest, so the cut
/// is documented, not changed.
#[derive(Clone, Copy, Debug, Default)]
pub struct HashPartitioner;

impl EdgeCutPartitioner for HashPartitioner {
    fn partition(&self, g: &Graph, k: usize) -> EdgeCutPartition {
        assert!(k > 0);
        let assignment = g.vertices().map(|v| v % k as u32).collect();
        EdgeCutPartition::new(k, assignment)
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_graph::GraphBuilder;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as VertexId, (i + 1) as VertexId);
        }
        b.build()
    }

    #[test]
    fn hash_is_balanced() {
        let g = path(100);
        let p = HashPartitioner.partition(&g, 4);
        assert_eq!(p.part_sizes(), vec![25; 4]);
        assert!((p.balance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hash_cuts_every_path_edge_with_k_equals_n() {
        let g = path(10);
        let p = HashPartitioner.partition(&g, 10);
        assert_eq!(p.edge_cut(&g), 9);
    }

    #[test]
    fn single_part_has_no_cut_or_replicas() {
        let g = path(50);
        let p = HashPartitioner.partition(&g, 1);
        assert_eq!(p.edge_cut(&g), 0);
        assert_eq!(p.replication_factor(&g), 0.0);
    }

    #[test]
    fn replication_counts_distinct_remote_parts_once() {
        // Vertex 0 has two out-neighbors on part 1: only one replica needed.
        let g = {
            let mut b = GraphBuilder::new(3);
            b.add_edge(0, 1);
            b.add_edge(0, 2);
            b.build()
        };
        let p = EdgeCutPartition::new(2, vec![0, 1, 1]);
        assert_eq!(p.total_replicas(&g), 1);
    }

    #[test]
    fn replication_factor_on_path_hash() {
        // Path with alternating parts: every vertex with an out-edge is
        // replicated exactly once.
        let g = path(10);
        let p = HashPartitioner.partition(&g, 2);
        assert_eq!(p.total_replicas(&g), 9);
        assert!((p.replication_factor(&g) - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "part id out of range")]
    fn new_rejects_bad_assignment() {
        EdgeCutPartition::new(2, vec![0, 2]);
    }

    #[test]
    fn threshold_zero_is_full_replication() {
        let g = path(10);
        let p = HashPartitioner.partition(&g, 2);
        assert_eq!(p.total_replicas_at_threshold(&g, 0), p.total_replicas(&g));
        assert_eq!(
            p.replication_factor_at_threshold(&g, 0),
            p.replication_factor(&g)
        );
    }

    #[test]
    fn high_threshold_replicates_nothing_and_split_sums_to_boundary() {
        // Alternating path: every combined degree is <= 2, every vertex but
        // the last is boundary.
        let g = path(10);
        let p = HashPartitioner.partition(&g, 2);
        assert_eq!(p.total_replicas_at_threshold(&g, 3), 0);
        for t in [0, 1, 2, 3, 100] {
            let (replicated, messaged) = p.boundary_split(&g, t);
            assert_eq!(replicated + messaged, 9, "threshold {t}");
        }
        assert_eq!(p.boundary_split(&g, 0), (9, 0));
        assert_eq!(p.boundary_split(&g, 3), (0, 9));
    }

    #[test]
    fn auto_messages_degree_one_leaves() {
        // Ten degree-1 leaves on part 1 each point at a hub on part 0: one
        // mirror each under full replication, one direct entry each when
        // messaged — the 1/16 standing surcharge makes messaging win.
        let mut b = GraphBuilder::new(11);
        for leaf in 1..=10 {
            b.add_edge(leaf, 0);
        }
        let g = b.build();
        let mut assignment = vec![1; 11];
        assignment[0] = 0;
        let p = EdgeCutPartition::new(2, assignment);
        assert_eq!(p.auto_replicate_threshold(&g), 2);
        assert_eq!(p.total_replicas_at_threshold(&g, 2), 0);
    }

    #[test]
    fn auto_keeps_replicas_for_parallel_edges() {
        // Two parallel edges to the same remote part: one replica update
        // beats two direct messages, so auto stays at 0.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        let g = b.build();
        let p = EdgeCutPartition::new(2, vec![0, 1]);
        assert_eq!(p.auto_replicate_threshold(&g), 0);
    }
}
