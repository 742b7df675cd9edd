//! Weakly connected components by minimum-label propagation — a classic
//! pull-mode workload beyond the paper's four, showing the generality of
//! the distributed immutable view. Each vertex's label converges to the
//! smallest vertex id in its (undirection-closed) component.
//!
//! Directed edges propagate labels only forward, so the algorithm runs on a
//! symmetrized view: programs read in-neighbors, and graphs passed here
//! should be symmetrized (e.g. via [`symmetrize`]) for weak components.

use cyclops_bsp::{BspContext, BspProgram};
use cyclops_engine::{CyclopsContext, CyclopsProgram};
use cyclops_graph::{Graph, GraphBuilder, VertexId};

/// Returns the symmetric closure of `g` (each edge in both directions,
/// deduplicated, unweighted).
pub fn symmetrize(g: &Graph) -> Graph {
    let mut b = GraphBuilder::new(g.num_vertices()).dedup(true);
    for (s, t, _) in g.edges() {
        b.add_edge(s, t);
        b.add_edge(t, s);
    }
    b.build()
}

/// Cyclops connected components: publish the current label; recompute when
/// a neighbor's label shrinks.
///
/// To run: on a [`symmetrize`]d graph, to quiescence — a label crosses one
/// hop per superstep, so cap `max_supersteps` above the diameter.
pub struct CyclopsComponents;

impl CyclopsProgram for CyclopsComponents {
    type Value = u32;
    type Message = u32;

    fn init(&self, v: VertexId, _g: &Graph) -> u32 {
        v
    }

    fn init_message(&self, _v: VertexId, _g: &Graph, value: &u32) -> Option<u32> {
        Some(*value)
    }

    fn compute(&self, ctx: &mut CyclopsContext<'_, u32, u32>) {
        let mut best = *ctx.value();
        for (m, _) in ctx.in_messages() {
            best = best.min(*m);
        }
        if best < *ctx.value() {
            ctx.set_value(best);
            ctx.activate_neighbors(best);
        }
    }
}

/// BSP connected components (push-mode min flooding).
///
/// To run: on a [`symmetrize`]d graph, to quiescence; defines `combine`
/// (min), so set `use_combiner`.
pub struct BspComponents;

impl BspProgram for BspComponents {
    type Value = u32;
    type Message = u32;

    fn init(&self, v: VertexId, _g: &Graph) -> u32 {
        v
    }

    fn compute(&self, ctx: &mut BspContext<'_, u32, u32>, msgs: &[u32]) {
        let mut best = *ctx.value();
        for &m in msgs {
            best = best.min(m);
        }
        if best < *ctx.value() || ctx.superstep() == 0 {
            ctx.set_value(best);
            ctx.send_to_neighbors(best);
        }
        ctx.vote_to_halt();
    }

    fn combine(&self, a: &u32, b: &u32) -> Option<u32> {
        Some(*a.min(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_bsp::{run_bsp, BspConfig};
    use cyclops_engine::{run_cyclops, CyclopsConfig, CyclopsResult};
    use cyclops_graph::gen::erdos_renyi;
    use cyclops_graph::reference;
    use cyclops_net::ClusterSpec;
    use cyclops_partition::{EdgeCutPartition, EdgeCutPartitioner, HashPartitioner};

    fn cyclops(g: &Graph, p: &EdgeCutPartition, cluster: ClusterSpec) -> CyclopsResult<u32, u32> {
        let config = CyclopsConfig {
            cluster,
            max_supersteps: 100_000,
            ..Default::default()
        };
        run_cyclops(&CyclopsComponents, g, p, &config)
    }

    #[test]
    fn cyclops_matches_union_find() {
        let g = symmetrize(&erdos_renyi(300, 350, 3));
        let p = HashPartitioner.partition(&g, 4);
        let r = cyclops(&g, &p, ClusterSpec::flat(2, 2));
        assert_eq!(r.values, reference::connected_components(&g));
    }

    #[test]
    fn bsp_matches_union_find() {
        let g = symmetrize(&erdos_renyi(300, 350, 4));
        let p = HashPartitioner.partition(&g, 4);
        let config = BspConfig {
            cluster: ClusterSpec::flat(2, 2),
            max_supersteps: 100_000,
            use_combiner: true,
            ..Default::default()
        };
        let r = run_bsp(&BspComponents, &g, &p, &config);
        assert_eq!(r.values, reference::connected_components(&g));
    }

    #[test]
    fn isolated_vertices_keep_their_own_label() {
        let g = cyclops_graph::Graph::empty(5);
        let p = HashPartitioner.partition(&g, 2);
        let r = cyclops(&g, &p, ClusterSpec::flat(2, 1));
        assert_eq!(r.values, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn mt_matches_flat() {
        let g = symmetrize(&erdos_renyi(200, 260, 5));
        let p = HashPartitioner.partition(&g, 3);
        let flat = cyclops(&g, &p, ClusterSpec::flat(3, 1));
        let mt = cyclops(&g, &p, ClusterSpec::mt(3, 4, 2));
        assert_eq!(flat.values, mt.values);
    }

    #[test]
    fn symmetrize_makes_weak_components() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(2, 1);
        b.add_edge(1, 0);
        let g = symmetrize(&b.build());
        let p = HashPartitioner.partition(&g, 2);
        let r = cyclops(&g, &p, ClusterSpec::flat(2, 1));
        assert_eq!(r.values, vec![0, 0, 0]);
    }
}
