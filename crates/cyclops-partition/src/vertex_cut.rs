//! Vertex-cut partitions for the PowerGraph baseline.
//!
//! PowerGraph assigns *edges* to workers; a vertex is replicated on every
//! worker that owns one of its edges, with one replica designated master.
//! The paper compares against PowerGraph's random hash placement and its
//! coordinated-greedy heuristic (§6.12, Table 4).

use cyclops_graph::{Graph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An assignment of every directed edge to one of `num_parts` workers, plus
/// the derived per-vertex replica sets and master locations.
#[derive(Clone, Debug)]
pub struct VertexCutPartition {
    /// Number of parts (workers).
    pub num_parts: usize,
    /// `edge_assignment[e]` is the part owning the `e`-th edge in the
    /// graph's canonical edge order (out-CSR order, as yielded by
    /// [`Graph::edges`]).
    pub edge_assignment: Vec<u32>,
    /// For each vertex, the sorted list of parts holding at least one of its
    /// edges (its replica set). Isolated vertices get a singleton set chosen
    /// by hash so every vertex exists somewhere.
    pub replicas: Vec<Vec<u32>>,
    /// For each vertex, the part hosting its master replica.
    pub masters: Vec<u32>,
}

impl VertexCutPartition {
    /// Derives replica sets and masters from an edge assignment.
    /// The master is the replica holding the most of the vertex's edges
    /// (ties toward the smaller part id), matching PowerGraph's
    /// load-conscious master placement closely enough for message counting.
    pub fn from_edge_assignment(g: &Graph, num_parts: usize, edge_assignment: Vec<u32>) -> Self {
        assert_eq!(edge_assignment.len(), g.num_edges());
        assert!(edge_assignment.iter().all(|&p| (p as usize) < num_parts));
        let n = g.num_vertices();
        // Count per-vertex edges on each part using a sparse map per vertex.
        let mut counts: Vec<std::collections::BTreeMap<u32, usize>> =
            vec![std::collections::BTreeMap::new(); n];
        let mut e = 0usize;
        for v in g.vertices() {
            for &t in g.out_neighbors(v) {
                let p = edge_assignment[e];
                *counts[v as usize].entry(p).or_insert(0) += 1;
                *counts[t as usize].entry(p).or_insert(0) += 1;
                e += 1;
            }
        }
        let mut replicas = Vec::with_capacity(n);
        let mut masters = Vec::with_capacity(n);
        for (v, count) in counts.iter().enumerate() {
            let most = count
                .iter()
                .max_by_key(|&(p, c)| (*c, std::cmp::Reverse(*p)));
            match most {
                Some((&master, _)) => {
                    replicas.push(count.keys().copied().collect());
                    masters.push(master);
                }
                // An isolated vertex has no edge to follow.
                None => {
                    let p = (v % num_parts) as u32;
                    replicas.push(vec![p]);
                    masters.push(p);
                }
            }
        }
        VertexCutPartition {
            num_parts,
            edge_assignment,
            replicas,
            masters,
        }
    }

    /// PowerGraph's replication factor: average number of replicas per
    /// vertex **including** the master (this is how the PowerGraph paper and
    /// Table 4 report it, so a perfectly local vertex counts 1).
    pub fn replication_factor(&self) -> f64 {
        if self.replicas.is_empty() {
            return 0.0;
        }
        let total: usize = self.replicas.iter().map(|r| r.len()).sum();
        total as f64 / self.replicas.len() as f64
    }

    /// Number of *mirror* replicas (replicas excluding masters).
    pub fn total_mirrors(&self) -> usize {
        self.replicas.iter().map(|r| r.len() - 1).sum()
    }

    /// Number of edges assigned to each part.
    pub fn edge_loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.num_parts];
        for &p in &self.edge_assignment {
            loads[p as usize] += 1;
        }
        loads
    }

    /// Edge balance: largest part edge count over the average.
    pub fn edge_balance(&self) -> f64 {
        let loads = self.edge_loads();
        let max = *loads.iter().max().unwrap_or(&0);
        let avg = self.edge_assignment.len() as f64 / self.num_parts as f64;
        if avg == 0.0 {
            1.0
        } else {
            max as f64 / avg
        }
    }
}

/// A strategy producing a [`VertexCutPartition`].
pub trait VertexCutPartitioner {
    /// Splits the edges of `g` across `k` parts.
    fn partition(&self, g: &Graph, k: usize) -> VertexCutPartition;
    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;
}

/// Random edge placement: each edge hashes to a part independently.
#[derive(Clone, Copy, Debug)]
pub struct RandomVertexCut {
    /// Hash seed.
    pub seed: u64,
}

impl Default for RandomVertexCut {
    fn default() -> Self {
        RandomVertexCut { seed: 42 }
    }
}

impl VertexCutPartitioner for RandomVertexCut {
    fn partition(&self, g: &Graph, k: usize) -> VertexCutPartition {
        assert!(k > 0);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let assignment = (0..g.num_edges())
            .map(|_| rng.gen_range(0..k as u32))
            .collect();
        VertexCutPartition::from_edge_assignment(g, k, assignment)
    }

    fn name(&self) -> &'static str {
        "random-vertex-cut"
    }
}

/// PowerGraph's coordinated greedy edge placement. For each edge `(u, v)` in
/// stream order:
///
/// 1. if `A(u) ∩ A(v)` is non-empty, place in the least-loaded common part,
/// 2. else if both `A(u)` and `A(v)` are non-empty, place in the least-loaded
///    part of the endpoint with more remaining unplaced edges,
/// 3. else if exactly one endpoint has been seen, follow it,
/// 4. else place in the globally least-loaded part.
#[derive(Clone, Copy, Debug)]
pub struct GreedyVertexCut {
    /// Seed for tie-breaking order.
    pub seed: u64,
}

impl Default for GreedyVertexCut {
    fn default() -> Self {
        GreedyVertexCut { seed: 42 }
    }
}

impl VertexCutPartitioner for GreedyVertexCut {
    fn partition(&self, g: &Graph, k: usize) -> VertexCutPartition {
        assert!(k > 0);
        let n = g.num_vertices();
        let mut seen: Vec<Vec<u32>> = vec![Vec::new(); n]; // A(v), small sorted sets
        let mut loads = vec![0usize; k];
        let mut remaining: Vec<usize> = (0..n)
            .map(|v| g.out_degree(v as VertexId) + g.in_degree(v as VertexId))
            .collect();
        let mut assignment = vec![0u32; g.num_edges()];

        let all_parts: Vec<u32> = (0..k as u32).collect();

        // PowerGraph ingests edges distributed across loaders, i.e. in no
        // particular order. Streaming CSR order (sorted by source) instead
        // lets every source's edges coalesce and collapses the cut, so
        // shuffle deterministically.
        let edges: Vec<(VertexId, VertexId)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        let mut order: Vec<u32> = (0..edges.len() as u32).collect();
        use rand::seq::SliceRandom;
        order.shuffle(&mut StdRng::seed_from_u64(self.seed));

        for &e in &order {
            let (u, v) = edges[e as usize];
            let (u, v) = (u as usize, v as usize);
            let common: Vec<u32> = seen[u]
                .iter()
                .filter(|p| seen[v].binary_search(p).is_ok())
                .copied()
                .collect();
            let candidates = if !common.is_empty() {
                &common
            } else if !seen[u].is_empty() && !seen[v].is_empty() {
                let anchor = if remaining[u] >= remaining[v] { u } else { v };
                &seen[anchor]
            } else if !seen[u].is_empty() {
                &seen[u]
            } else if !seen[v].is_empty() {
                &seen[v]
            } else {
                &all_parts
            };
            // The least-loaded candidate, ties toward the smaller id. Every
            // candidate set is non-empty (`k > 0`): the fallback is never
            // taken.
            let part = (candidates.iter().copied())
                .min_by_key(|&p| (loads[p as usize], p))
                .unwrap_or(0);
            assignment[e as usize] = part;
            loads[part as usize] += 1;
            remaining[u] = remaining[u].saturating_sub(1);
            remaining[v] = remaining[v].saturating_sub(1);
            for w in [u, v] {
                if let Err(pos) = seen[w].binary_search(&part) {
                    seen[w].insert(pos, part);
                }
            }
        }
        VertexCutPartition::from_edge_assignment(g, k, assignment)
    }

    fn name(&self) -> &'static str {
        "greedy-vertex-cut"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_graph::gen::{erdos_renyi, rmat, RmatConfig};
    use cyclops_graph::GraphBuilder;

    #[test]
    fn replication_factor_includes_master() {
        // One edge on one part: both endpoints have exactly one replica.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = b.build();
        let p = VertexCutPartition::from_edge_assignment(&g, 2, vec![0]);
        assert_eq!(p.replication_factor(), 1.0);
        assert_eq!(p.total_mirrors(), 0);
    }

    #[test]
    fn split_star_replicates_center() {
        // Star center 0 with 4 out-edges split across 2 parts: center has 2
        // replicas, leaves have 1.
        let mut b = GraphBuilder::new(5);
        for leaf in 1..5 {
            b.add_edge(0, leaf);
        }
        let g = b.build();
        let p = VertexCutPartition::from_edge_assignment(&g, 2, vec![0, 0, 1, 1]);
        assert_eq!(p.replicas[0], vec![0, 1]);
        assert_eq!(p.total_mirrors(), 1);
        // Master of the center is the smaller part id (equal counts).
        assert_eq!(p.masters[0], 0);
    }

    #[test]
    fn isolated_vertices_get_one_replica() {
        let g = GraphBuilder::new(3).build();
        let p = RandomVertexCut::default().partition(&g, 2);
        for v in 0..3 {
            assert_eq!(p.replicas[v].len(), 1);
            assert_eq!(p.masters[v], p.replicas[v][0]);
        }
    }

    #[test]
    fn greedy_beats_random_on_powerlaw() {
        let g = rmat(
            RmatConfig {
                scale: 10,
                edges: 12_000,
                ..Default::default()
            },
            7,
        );
        let random = RandomVertexCut::default()
            .partition(&g, 8)
            .replication_factor();
        let greedy = GreedyVertexCut::default()
            .partition(&g, 8)
            .replication_factor();
        assert!(greedy < random, "greedy {greedy} vs random {random}");
    }

    #[test]
    fn greedy_is_edge_balanced() {
        let g = erdos_renyi(2000, 12_000, 3);
        let p = GreedyVertexCut::default().partition(&g, 6);
        assert!(p.edge_balance() < 1.3, "balance {}", p.edge_balance());
    }

    #[test]
    fn master_is_in_replica_set() {
        let g = erdos_renyi(500, 3000, 4);
        for part in [
            RandomVertexCut::default().partition(&g, 5),
            GreedyVertexCut::default().partition(&g, 5),
        ] {
            for v in 0..g.num_vertices() {
                assert!(part.replicas[v].binary_search(&part.masters[v]).is_ok());
            }
        }
    }

    #[test]
    fn edge_loads_sum_to_edge_count() {
        let g = erdos_renyi(500, 3000, 5);
        let p = RandomVertexCut::default().partition(&g, 4);
        assert_eq!(p.edge_loads().iter().sum::<usize>(), g.num_edges());
    }

    #[test]
    fn deterministic() {
        let g = erdos_renyi(300, 2000, 6);
        let a = GreedyVertexCut::default().partition(&g, 4);
        let b = GreedyVertexCut::default().partition(&g, 4);
        assert_eq!(a.edge_assignment, b.edge_assignment);
    }
}
