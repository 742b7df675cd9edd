//! Triangle counting through the distributed immutable view.
//!
//! A showcase of the model's expressiveness beyond scalar publications:
//! each vertex *publishes its forward adjacency list* (neighbors with
//! higher id), and every vertex intersects its own forward list with those
//! of its lower-id neighbors — the classic "forward" algorithm, done in a
//! single superstep because initial publications are part of the immutable
//! view. The BSP version needs an explicit broadcast superstep and ships
//! every list as a message.
//!
//! Graphs must be symmetric (use [`crate::cc::symmetrize`]); triangles are
//! counted once each.

use cyclops_bsp::{BspContext, BspProgram};
use cyclops_engine::{CyclopsContext, CyclopsProgram};
use cyclops_graph::{Graph, VertexId};

/// Sorted, deduplicated neighbors of `v` strictly greater than `v`.
fn forward_list(g: &Graph, v: VertexId) -> Vec<u32> {
    let mut nbrs: Vec<u32> = g
        .out_neighbors(v)
        .iter()
        .copied()
        .filter(|&u| u > v)
        .collect();
    nbrs.sort_unstable();
    nbrs.dedup();
    nbrs
}

/// Size of the intersection of two sorted lists.
fn intersect_count(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut c) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Cyclops triangle counting: one superstep, zero algorithmic messages
/// beyond the replica syncs of the initial publications.
///
/// To run: on a symmetrized graph; the values are per-vertex counts (sum
/// them for the global count) and are final after superstep 0, so a small
/// `max_supersteps` (the callers here use 4) is only a safety cap.
pub struct CyclopsTriangles;

impl CyclopsProgram for CyclopsTriangles {
    /// Triangles counted at this vertex.
    type Value = u64;
    /// The published forward adjacency list.
    type Message = Vec<u32>;

    fn init(&self, _v: VertexId, _g: &Graph) -> u64 {
        0
    }

    fn init_message(&self, v: VertexId, g: &Graph, _value: &u64) -> Option<Vec<u32>> {
        Some(forward_list(g, v))
    }

    fn compute(&self, ctx: &mut CyclopsContext<'_, u64, Vec<u32>>) {
        let mine = forward_list(ctx.graph(), ctx.vertex());
        let me = ctx.vertex();
        let mut count = 0u64;
        let mut last_src = None;
        for (list, _) in ctx.in_messages_with_sources() {
            let (src, fwd) = list;
            // Each undirected edge (src, me) contributes once, at the
            // higher endpoint; skip duplicate parallel in-edges.
            if src < me && last_src != Some(src) {
                count += intersect_count(&mine, fwd);
            }
            last_src = Some(src);
        }
        ctx.set_value(count);
        // No activation: the computation completes in one superstep.
    }
}

/// BSP triangle counting: superstep 0 broadcasts `(sender, forward list)`;
/// superstep 1 intersects.
///
/// To run: on a symmetrized graph; two supersteps, so `max_supersteps >= 2`;
/// no `combine` (every list is needed whole).
pub struct BspTriangles;

impl BspProgram for BspTriangles {
    type Value = u64;
    /// `[sender, fwd...]` — the sender id prefixes the list.
    type Message = Vec<u32>;

    fn init(&self, _v: VertexId, _g: &Graph) -> u64 {
        0
    }

    fn compute(&self, ctx: &mut BspContext<'_, u64, Vec<u32>>, msgs: &[Vec<u32>]) {
        if ctx.superstep() == 0 {
            let mut payload = vec![ctx.vertex()];
            payload.extend(forward_list(ctx.graph(), ctx.vertex()));
            ctx.send_to_neighbors(payload);
            return;
        }
        let mine = forward_list(ctx.graph(), ctx.vertex());
        let me = ctx.vertex();
        let mut count = 0u64;
        let mut seen: Vec<u32> = Vec::new();
        for m in msgs {
            let src = m[0];
            if src < me && !seen.contains(&src) {
                seen.push(src);
                count += intersect_count(&mine, &m[1..]);
            }
        }
        ctx.set_value(count);
        ctx.vote_to_halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::symmetrize;
    use cyclops_bsp::{run_bsp, BspConfig};
    use cyclops_engine::{run_cyclops, CyclopsConfig, CyclopsResult};
    use cyclops_graph::gen::erdos_renyi;
    use cyclops_graph::reference;
    use cyclops_net::ClusterSpec;
    use cyclops_partition::{EdgeCutPartition, EdgeCutPartitioner, HashPartitioner};

    fn cyclops(
        g: &Graph,
        p: &EdgeCutPartition,
        cluster: ClusterSpec,
    ) -> CyclopsResult<u64, Vec<u32>> {
        let config = CyclopsConfig {
            cluster,
            max_supersteps: 4,
            ..Default::default()
        };
        run_cyclops(&CyclopsTriangles, g, p, &config)
    }

    fn total(values: &[u64]) -> usize {
        values.iter().sum::<u64>() as usize
    }

    #[test]
    fn cyclops_counts_er_triangles() {
        let g = symmetrize(&erdos_renyi(120, 900, 3));
        let p = HashPartitioner.partition(&g, 4);
        let r = cyclops(&g, &p, ClusterSpec::flat(2, 2));
        assert_eq!(total(&r.values), reference::triangle_count(&g));
    }

    #[test]
    fn bsp_counts_er_triangles() {
        let g = symmetrize(&erdos_renyi(120, 900, 3));
        let p = HashPartitioner.partition(&g, 4);
        let config = BspConfig {
            cluster: ClusterSpec::flat(2, 2),
            max_supersteps: 4,
            ..Default::default()
        };
        let r = run_bsp(&BspTriangles, &g, &p, &config);
        assert_eq!(total(&r.values), reference::triangle_count(&g));
    }

    #[test]
    fn single_triangle_counted_once() {
        let mut b = cyclops_graph::GraphBuilder::new(3);
        b.add_undirected_edge(0, 1);
        b.add_undirected_edge(1, 2);
        b.add_undirected_edge(2, 0);
        let g = b.build();
        let p = HashPartitioner.partition(&g, 3);
        let r = cyclops(&g, &p, ClusterSpec::flat(3, 1));
        assert_eq!(total(&r.values), 1);
        // Counted exactly once across all vertices.
        assert_eq!(r.values.iter().filter(|&&c| c > 0).count(), 1);
    }

    #[test]
    fn cyclops_finishes_in_one_superstep_plus_drain() {
        let g = symmetrize(&erdos_renyi(80, 300, 5));
        let p = HashPartitioner.partition(&g, 2);
        let r = cyclops(&g, &p, ClusterSpec::flat(2, 1));
        assert!(r.supersteps <= 2, "supersteps {}", r.supersteps);
    }

    #[test]
    fn mt_agrees_with_flat() {
        let g = symmetrize(&erdos_renyi(150, 700, 7));
        let p = HashPartitioner.partition(&g, 3);
        let a = cyclops(&g, &p, ClusterSpec::flat(3, 1));
        let b = cyclops(&g, &p, ClusterSpec::mt(3, 3, 2));
        assert_eq!(a.values, b.values);
    }
}
