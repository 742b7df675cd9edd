//! Breadth-first search (hop levels from a source) — the simplest
//! push-mode workload: like SSSP with unit weights, but over the hop
//! metric, converging in diameter supersteps.

use cyclops_bsp::{BspContext, BspProgram};
use cyclops_engine::{CyclopsContext, CyclopsProgram};
use cyclops_graph::{Graph, VertexId};

/// Unvisited marker (matches `cyclops_graph::reference::bfs_levels`).
pub const UNREACHED: u32 = u32::MAX;

/// Cyclops BFS: the frontier publishes its level; unvisited in-neighbors
/// adopt level+1.
///
/// To run: takes one superstep per hop, so cap `max_supersteps` above the
/// diameter; declares `priority` (the hop level), so `bucket_width = 1.0`
/// drains exactly one ring per barrier pair and wider buckets fuse that many
/// rings — levels are bitwise identical at every width.
pub struct CyclopsBfs {
    /// The source vertex.
    pub source: VertexId,
}

impl CyclopsProgram for CyclopsBfs {
    type Value = u32;
    type Message = u32;

    fn init(&self, v: VertexId, _g: &Graph) -> u32 {
        if v == self.source {
            0
        } else {
            UNREACHED
        }
    }

    fn init_message(&self, v: VertexId, _g: &Graph, value: &u32) -> Option<u32> {
        (v == self.source).then_some(*value)
    }

    fn initially_active(&self, v: VertexId, _g: &Graph) -> bool {
        v == self.source
    }

    fn compute(&self, ctx: &mut CyclopsContext<'_, u32, u32>) {
        if ctx.superstep() == 0 && ctx.vertex() == self.source {
            ctx.activate_neighbors(0);
            return;
        }
        if *ctx.value() != UNREACHED {
            return; // already visited; levels only shrink via first touch
        }
        let best = ctx
            .in_messages()
            .map(|(m, _)| m.saturating_add(1))
            .min()
            .unwrap_or(UNREACHED);
        if best < *ctx.value() {
            ctx.set_value(best);
            ctx.activate_neighbors(best);
        }
    }

    fn priority(&self, msg: &u32) -> Option<f64> {
        // The payload carries the sender's level and the receiver adopts
        // level+1, so with bucket width 1.0 each hop ring is exactly one
        // bucket: BFS rides the bucket scheduler like unit-weight SSSP,
        // one barrier pair per ring instead of one per hop *per worker
        // wave*. Only the bucketed loop consults this; classic runs are
        // byte-identical with or without it.
        Some(*msg as f64 + 1.0)
    }
}

/// BSP BFS (push-mode flooding).
///
/// To run: one superstep per hop after the seed superstep 0; defines
/// `combine` (min), so set `use_combiner`.
pub struct BspBfs {
    /// The source vertex.
    pub source: VertexId,
}

impl BspProgram for BspBfs {
    type Value = u32;
    type Message = u32;

    fn init(&self, v: VertexId, _g: &Graph) -> u32 {
        if v == self.source {
            0
        } else {
            UNREACHED
        }
    }

    fn compute(&self, ctx: &mut BspContext<'_, u32, u32>, msgs: &[u32]) {
        if ctx.superstep() == 0 {
            if ctx.vertex() == self.source {
                ctx.send_to_neighbors(1);
            }
            ctx.vote_to_halt();
            return;
        }
        if *ctx.value() == UNREACHED {
            if let Some(&level) = msgs.iter().min() {
                ctx.set_value(level);
                ctx.send_to_neighbors(level.saturating_add(1));
            }
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
    use cyclops_graph::gen::{erdos_renyi, road_lattice};
    use cyclops_graph::reference;
    use cyclops_net::ClusterSpec;
    use cyclops_partition::{EdgeCutPartition, EdgeCutPartitioner, HashPartitioner};

    fn cyclops(
        g: &Graph,
        p: &EdgeCutPartition,
        cluster: &ClusterSpec,
        source: VertexId,
    ) -> CyclopsResult<u32, u32> {
        bucketed(g, p, cluster, source, 0.0)
    }

    fn bucketed(
        g: &Graph,
        p: &EdgeCutPartition,
        cluster: &ClusterSpec,
        source: VertexId,
        bucket_width: f64,
    ) -> CyclopsResult<u32, u32> {
        let config = CyclopsConfig {
            cluster: *cluster,
            max_supersteps: 1_000_000,
            bucket_width,
            ..Default::default()
        };
        run_cyclops(&CyclopsBfs { source }, g, p, &config)
    }

    #[test]
    fn cyclops_matches_reference_on_er() {
        let g = erdos_renyi(400, 1200, 9);
        let p = HashPartitioner.partition(&g, 4);
        let r = cyclops(&g, &p, &ClusterSpec::flat(2, 2), 0);
        assert_eq!(r.values, reference::bfs_levels(&g, 0));
    }

    #[test]
    fn bsp_matches_reference_on_er() {
        let g = erdos_renyi(400, 1200, 9);
        let p = HashPartitioner.partition(&g, 4);
        let config = BspConfig {
            cluster: ClusterSpec::flat(2, 2),
            max_supersteps: 1_000_000,
            use_combiner: true,
            ..Default::default()
        };
        let r = run_bsp(&BspBfs { source: 0 }, &g, &p, &config);
        assert_eq!(r.values, reference::bfs_levels(&g, 0));
    }

    #[test]
    fn frontier_wave_on_grid() {
        let g = road_lattice(15, 15, 1.0, 0.0, 1);
        let p = HashPartitioner.partition(&g, 3);
        let r = cyclops(&g, &p, &ClusterSpec::flat(3, 1), 0);
        assert_eq!(r.values, reference::bfs_levels(&g, 0));
        // Supersteps track the eccentricity of the source (+kickoff/drain).
        let max_level = *r.values.iter().filter(|&&l| l != UNREACHED).max().unwrap();
        assert!(r.supersteps as u32 >= max_level);
    }

    #[test]
    fn bucketed_bfs_matches_classic_and_reference() {
        let g = erdos_renyi(400, 1200, 9);
        let p = HashPartitioner.partition(&g, 4);
        let cluster = ClusterSpec::flat(2, 2);
        let classic = cyclops(&g, &p, &cluster, 0);
        let bucketed = bucketed(&g, &p, &cluster, 0, 1.0);
        assert_eq!(bucketed.values, classic.values);
        assert_eq!(bucketed.values, reference::bfs_levels(&g, 0));
        assert!(
            bucketed.supersteps <= classic.supersteps,
            "one superstep per ring must not exceed classic ({} vs {})",
            bucketed.supersteps,
            classic.supersteps
        );
    }

    #[test]
    fn bucketed_bfs_drains_one_ring_per_superstep_on_grid() {
        let g = road_lattice(15, 15, 1.0, 0.0, 1);
        let p = HashPartitioner.partition(&g, 3);
        let r = bucketed(&g, &p, &ClusterSpec::flat(3, 1), 0, 1.0);
        assert_eq!(r.values, reference::bfs_levels(&g, 0));
        let max_level = *r.values.iter().filter(|&&l| l != UNREACHED).max().unwrap() as usize;
        // Kickoff + one settled bucket per ring (+ nothing else).
        assert!(
            r.supersteps <= max_level + 2,
            "supersteps {} vs eccentricity {}",
            r.supersteps,
            max_level
        );
        // A wider bucket fuses that many rings behind one barrier: same
        // levels, ~4x fewer supersteps.
        let wide = bucketed(&g, &p, &ClusterSpec::flat(3, 1), 0, 4.0);
        assert_eq!(wide.values, r.values);
        assert!(
            wide.supersteps <= max_level / 4 + 3,
            "width 4 fused {} supersteps vs eccentricity {}",
            wide.supersteps,
            max_level
        );
    }

    #[test]
    fn source_choice_matters() {
        let g = erdos_renyi(100, 160, 11);
        let p = HashPartitioner.partition(&g, 2);
        let a = cyclops(&g, &p, &ClusterSpec::flat(2, 1), 0);
        let b = cyclops(&g, &p, &ClusterSpec::flat(2, 1), 7);
        assert_eq!(a.values, reference::bfs_levels(&g, 0));
        assert_eq!(b.values, reference::bfs_levels(&g, 7));
    }
}
