//! k-core decomposition: each vertex's *core number* is the largest `k`
//! such that it belongs to a subgraph where every vertex has degree ≥ `k`.
//!
//! Distributed formulation (Montresor et al.'s locality lemma): a vertex's
//! core number equals the largest `k` such that at least `k` of its
//! neighbors have core number ≥ `k` (capped by its own degree). Vertices
//! publish their current estimate (starting from their degree) and
//! monotonically lower it as neighbors' estimates drop — a pull-mode
//! computation with naturally asymmetric convergence, ideal for the
//! immutable view. Run on a symmetrized graph
//! (see [`crate::cc::symmetrize`]).

use cyclops_engine::{CyclopsContext, CyclopsProgram};
use cyclops_graph::{Graph, VertexId};

/// Largest `k ≤ cap` such that at least `k` of the `estimates` are ≥ `k`.
fn h_index(estimates: impl IntoIterator<Item = u32>, cap: u32) -> u32 {
    crate::with_sorted(estimates, |sorted| {
        let mut k = 0u32;
        for (i, &e) in sorted.iter().rev().enumerate() {
            let rank = (i + 1) as u32;
            if e >= rank && rank <= cap {
                k = rank;
            } else {
                break;
            }
        }
        k.min(cap)
    })
}

/// Cyclops k-core: publish the estimate; recompute the h-index of the
/// in-neighborhood whenever a neighbor's estimate drops.
///
/// To run: on a symmetrized graph, to quiescence; the final values are the
/// core numbers.
pub struct CyclopsKCore;

impl CyclopsProgram for CyclopsKCore {
    /// Current core-number estimate.
    type Value = u32;
    /// Published estimate.
    type Message = u32;

    fn init(&self, v: VertexId, g: &Graph) -> u32 {
        g.in_degree(v) as u32
    }

    fn init_message(&self, _v: VertexId, _g: &Graph, value: &u32) -> Option<u32> {
        Some(*value)
    }

    fn compute(&self, ctx: &mut CyclopsContext<'_, u32, u32>) {
        let new = h_index(ctx.in_messages().map(|(m, _)| *m), *ctx.value());
        if new < *ctx.value() {
            ctx.set_value(new);
            ctx.activate_neighbors(new);
        }
    }
}

/// Sequential reference: classic peeling (repeatedly remove the minimum-
/// degree vertex). Treats the graph as already symmetric and uses
/// in-degrees like the distributed version.
pub fn reference_kcore(g: &Graph) -> Vec<u32> {
    let n = g.num_vertices();
    let mut degree: Vec<u32> = g.vertices().map(|v| g.in_degree(v) as u32).collect();
    let mut core = vec![0u32; n];
    let mut removed = vec![false; n];
    // Bucket queue over degrees.
    let max_deg = degree.iter().copied().max().unwrap_or(0) as usize;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_deg + 1];
    for v in 0..n {
        buckets[degree[v] as usize].push(v as u32);
    }
    let mut k = 0u32;
    for d in 0..=max_deg {
        let mut stack = std::mem::take(&mut buckets[d]);
        while let Some(v) = stack.pop() {
            let vu = v as usize;
            // Stale entries: already peeled, or re-bucketed since (live
            // degree no longer matches this bucket).
            if removed[vu] || degree[vu] as usize != d {
                continue;
            }
            k = k.max(d as u32);
            core[vu] = k;
            removed[vu] = true;
            for &u in g.in_neighbors(v) {
                let uu = u as usize;
                if !removed[uu] && degree[uu] as usize > d {
                    degree[uu] -= 1;
                    if (degree[uu] as usize) <= d {
                        stack.push(u);
                    } else {
                        buckets[degree[uu] as usize].push(u);
                    }
                }
            }
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::symmetrize;
    use cyclops_engine::{run_cyclops, CyclopsConfig, CyclopsResult};
    use cyclops_graph::gen::erdos_renyi;
    use cyclops_graph::GraphBuilder;
    use cyclops_net::ClusterSpec;
    use cyclops_partition::{EdgeCutPartition, EdgeCutPartitioner, HashPartitioner};

    fn cyclops(g: &Graph, p: &EdgeCutPartition, cluster: ClusterSpec) -> CyclopsResult<u32, u32> {
        let config = CyclopsConfig {
            cluster,
            max_supersteps: 100_000,
            ..Default::default()
        };
        run_cyclops(&CyclopsKCore, g, p, &config)
    }

    /// A 4-clique with a pendant path: clique vertices have core 3, the
    /// path has core 1.
    fn clique_plus_tail() -> Graph {
        let mut b = GraphBuilder::new(6);
        for i in 0..4u32 {
            for j in 0..4u32 {
                if i != j {
                    b.add_edge(i, j);
                }
            }
        }
        b.add_undirected_edge(3, 4);
        b.add_undirected_edge(4, 5);
        b.build()
    }

    #[test]
    fn h_index_cases() {
        assert_eq!(h_index(vec![], 5), 0);
        assert_eq!(h_index(vec![3, 3, 3], 3), 3);
        assert_eq!(h_index(vec![5, 5, 1], 3), 2);
        assert_eq!(h_index(vec![9, 9, 9, 9], 2), 2); // capped by own degree
        assert_eq!(h_index(vec![1, 1, 1, 1], 4), 1);
    }

    #[test]
    fn reference_on_clique_plus_tail() {
        let g = clique_plus_tail();
        assert_eq!(reference_kcore(&g), vec![3, 3, 3, 3, 1, 1]);
    }

    #[test]
    fn cyclops_matches_reference_on_clique_plus_tail() {
        let g = clique_plus_tail();
        let p = HashPartitioner.partition(&g, 3);
        let r = cyclops(&g, &p, ClusterSpec::flat(3, 1));
        assert_eq!(r.values, vec![3, 3, 3, 3, 1, 1]);
    }

    #[test]
    fn cyclops_matches_reference_on_er() {
        let g = symmetrize(&erdos_renyi(200, 900, 13));
        let p = HashPartitioner.partition(&g, 4);
        let r = cyclops(&g, &p, ClusterSpec::flat(2, 2));
        assert_eq!(r.values, reference_kcore(&g));
    }

    #[test]
    fn mt_matches_flat() {
        let g = symmetrize(&erdos_renyi(150, 600, 17));
        let p = HashPartitioner.partition(&g, 3);
        let a = cyclops(&g, &p, ClusterSpec::flat(3, 1));
        let b = cyclops(&g, &p, ClusterSpec::mt(3, 4, 2));
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn isolated_vertices_have_core_zero() {
        let g = Graph::empty(4);
        let p = HashPartitioner.partition(&g, 2);
        let r = cyclops(&g, &p, ClusterSpec::flat(2, 1));
        assert_eq!(r.values, vec![0; 4]);
    }
}
