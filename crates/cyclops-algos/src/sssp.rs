//! Single-Source Shortest Path — the paper's push-mode workload (§6.1).
//!
//! "A vertex will not do computation unless messages arrive to wake it up."
//! SSSP shows that even without redundant computation to eliminate, Cyclops
//! still wins on communication (contention-free replica updates) and
//! CyclopsMT on hierarchical locality.

use cyclops_bsp::{BspContext, BspProgram};
use cyclops_engine::{CyclopsContext, CyclopsProgram};
use cyclops_gas::GasProgram;
use cyclops_graph::{Graph, VertexId};

/// BSP SSSP: classic Pregel push-mode Bellman–Ford. Vertices sleep and are
/// woken by messages carrying candidate distances.
///
/// To run: defines `combine` (min), so set `use_combiner`. Like Hama, the
/// engine relaxes one hop per superstep.
pub struct BspSssp {
    /// The source vertex.
    pub source: VertexId,
}

impl BspProgram for BspSssp {
    type Value = f64;
    type Message = f64;

    fn init(&self, v: VertexId, _g: &Graph) -> f64 {
        if v == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn compute(&self, ctx: &mut BspContext<'_, f64, f64>, msgs: &[f64]) {
        let mut best = *ctx.value();
        for &m in msgs {
            best = best.min(m);
        }
        let improved = best < *ctx.value();
        if improved {
            ctx.set_value(best);
        }
        if (ctx.superstep() == 0 && ctx.vertex() == self.source) || improved {
            let d = *ctx.value();
            ctx.send_along_edges(|_t, w| d + w);
        }
        ctx.vote_to_halt();
    }

    fn combine(&self, a: &f64, b: &f64) -> Option<f64> {
        Some(a.min(*b))
    }
}

/// Cyclops SSSP: the source publishes distance 0 and activates its
/// neighbors; an activated vertex pulls `min(in-neighbor distance + edge
/// weight)` through the immutable view and propagates only on improvement.
///
/// To run: declares `priority`, so `bucket_width > 0` (see
/// [`auto_bucket_width`]) drains one distance bucket per superstep instead
/// of one hop; distances are bitwise identical at every width.
pub struct CyclopsSssp {
    /// The source vertex.
    pub source: VertexId,
}

impl CyclopsProgram for CyclopsSssp {
    type Value = f64;
    type Message = f64;

    fn init(&self, v: VertexId, _g: &Graph) -> f64 {
        if v == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn init_message(&self, v: VertexId, _g: &Graph, value: &f64) -> Option<f64> {
        // Only the source has something worth publishing initially.
        (v == self.source).then_some(*value)
    }

    fn initially_active(&self, v: VertexId, _g: &Graph) -> bool {
        v == self.source
    }

    fn compute(&self, ctx: &mut CyclopsContext<'_, f64, f64>) {
        if ctx.superstep() == 0 && ctx.vertex() == self.source {
            // Kick-off: wake the neighbors so they pull our distance.
            ctx.activate_neighbors(0.0);
            return;
        }
        let mut best = *ctx.value();
        for (m, w) in ctx.in_messages() {
            best = best.min(m + w);
        }
        if best < *ctx.value() {
            ctx.set_value(best);
            ctx.activate_neighbors(best);
        }
    }

    fn priority(&self, msg: &f64) -> Option<f64> {
        // The publication is the activator's tentative distance — a lower
        // bound on the activated vertex's distance through it (weights are
        // non-negative), which is the delta-stepping bucket priority.
        Some(*msg)
    }
}

/// GAS SSSP for the PowerGraph baseline.
pub struct GasSssp {
    /// The source vertex.
    pub source: VertexId,
}

impl GasProgram for GasSssp {
    type Value = f64;
    type Gather = f64;

    fn init(&self, v: VertexId, _g: &Graph) -> f64 {
        if v == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn initially_active(&self, v: VertexId, _g: &Graph) -> bool {
        v == self.source
    }

    fn gather(&self, _g: &Graph, _src: VertexId, sv: &f64, w: f64, _dst: VertexId) -> f64 {
        sv + w
    }

    fn sum(&self, a: f64, b: f64) -> f64 {
        a.min(b)
    }

    fn apply(&self, _g: &Graph, _v: VertexId, old: &f64, acc: Option<f64>) -> f64 {
        acc.map(|a| a.min(*old)).unwrap_or(*old)
    }

    fn scatter_activates(
        &self,
        _g: &Graph,
        src: VertexId,
        old: &f64,
        new: &f64,
        _w: f64,
        _dst: VertexId,
    ) -> bool {
        // Propagate on improvement; the source's first (no-op) apply must
        // still wake its neighbors.
        new < old || (src == self.source && new.is_finite() && old.is_finite() && new == old)
    }
}

/// Picks a bucket width for delta-stepping SSSP on `graph`: ~8x the mean
/// edge weight. Wider buckets admit more vertices per superstep (fewer
/// barriers — the win on high-diameter road networks) at the cost of some
/// extra idempotent re-relaxation inside a bucket; 8x the mean keeps a
/// road-network bucket a few hops deep. Unweighted graphs (weight 1.0
/// everywhere) get width 8.0; an edgeless graph falls back to 1.0. A run
/// seeded from this width usually also sets `bucket_adapt`, so the engine
/// retunes it from live bucket occupancy instead of trusting the static seed.
pub fn auto_bucket_width(graph: &Graph) -> f64 {
    let mut sum = 0.0f64;
    let mut n = 0u64;
    for (_, _, w) in graph.edges() {
        sum += w;
        n += 1;
    }
    if n == 0 || !(sum / n as f64).is_finite() || sum <= 0.0 {
        1.0
    } else {
        8.0 * (sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_bsp::{run_bsp, BspConfig, BspResult};
    use cyclops_engine::{run_cyclops, run_cyclops_migrated, CyclopsConfig, CyclopsResult};
    use cyclops_gas::{run_gas, GasConfig};
    use cyclops_graph::gen::road_lattice;
    use cyclops_graph::reference;
    use cyclops_net::ClusterSpec;
    use cyclops_partition::{
        EdgeCutPartition, EdgeCutPartitioner, HashPartitioner, MigrationConfig, RandomVertexCut,
        VertexCutPartitioner,
    };

    /// SSSP from vertex 0 to quiescence; `bucketed` runs it delta-stepped at
    /// the auto width, the engine retuning it.
    fn cyclops(
        g: &Graph,
        p: &EdgeCutPartition,
        cluster: ClusterSpec,
        bucketed: bool,
    ) -> CyclopsResult<f64, f64> {
        let config = CyclopsConfig {
            cluster,
            bucket_width: if bucketed { auto_bucket_width(g) } else { 0.0 },
            bucket_adapt: bucketed,
            ..Default::default()
        };
        run_cyclops(&CyclopsSssp { source: 0 }, g, p, &config)
    }

    fn hama(g: &Graph, p: &EdgeCutPartition) -> BspResult<f64, f64> {
        let config = BspConfig {
            cluster: ClusterSpec::flat(2, 2),
            use_combiner: true,
            ..Default::default()
        };
        run_bsp(&BspSssp { source: 0 }, g, p, &config)
    }

    fn assert_distances_match(actual: &[f64], expected: &[f64]) {
        for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
            if e.is_infinite() {
                assert!(a.is_infinite(), "vertex {i}: {a} vs inf");
            } else {
                assert!((a - e).abs() < 1e-9, "vertex {i}: {a} vs {e}");
            }
        }
    }

    #[test]
    fn bsp_matches_dijkstra_on_road() {
        let g = road_lattice(12, 12, 0.9, 0.1, 3);
        let p = HashPartitioner.partition(&g, 4);
        let r = hama(&g, &p);
        assert_distances_match(&r.values, &reference::sssp(&g, 0));
    }

    #[test]
    fn cyclops_matches_dijkstra_on_road() {
        let g = road_lattice(12, 12, 0.9, 0.1, 3);
        let p = HashPartitioner.partition(&g, 4);
        let r = cyclops(&g, &p, ClusterSpec::flat(2, 2), false);
        assert_distances_match(&r.values, &reference::sssp(&g, 0));
    }

    #[test]
    fn gas_matches_dijkstra_on_road() {
        let g = road_lattice(10, 10, 0.9, 0.1, 5);
        let p = RandomVertexCut::default().partition(&g, 4);
        let config = GasConfig {
            cluster: ClusterSpec::flat(2, 2),
            ..Default::default()
        };
        let r = run_gas(&GasSssp { source: 0 }, &g, &p, &config);
        assert_distances_match(&r.values, &reference::sssp(&g, 0));
    }

    #[test]
    fn cyclops_mt_matches_dijkstra() {
        let g = road_lattice(12, 12, 1.0, 0.0, 7);
        let p = HashPartitioner.partition(&g, 3);
        let r = cyclops(&g, &p, ClusterSpec::mt(3, 4, 2), false);
        assert_distances_match(&r.values, &reference::sssp(&g, 0));
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        let mut b = cyclops_graph::GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(2, 3, 1.0);
        let g = b.build();
        let p = HashPartitioner.partition(&g, 2);
        let r = cyclops(&g, &p, ClusterSpec::flat(2, 1), false);
        assert!(r.values[2].is_infinite());
        assert!(r.values[3].is_infinite());
        assert_eq!(r.values[1], 1.0);
    }

    #[test]
    fn migrated_sssp_is_bitwise_identical_on_a_skewed_partition() {
        let g = road_lattice(12, 12, 0.9, 0.1, 3);
        // Deliberately unbalanced: most vertices start on worker 0.
        let n = g.num_vertices();
        let assignment = (0..n)
            .map(|v| if v < n / 4 { (v % 4) as u32 } else { 0 })
            .collect();
        let p = EdgeCutPartition::new(4, assignment);
        let cluster = ClusterSpec::flat(4, 1);
        let plain = cyclops(&g, &p, cluster, false);
        let config = CyclopsConfig {
            cluster,
            ..Default::default()
        };
        let (migrated, report) = run_cyclops_migrated(
            &CyclopsSssp { source: 0 },
            &g,
            &p,
            &config,
            8,
            MigrationConfig::default(),
        );
        assert!(report.migrations_total > 0, "skew must trigger migration");
        assert_eq!(plain.values, migrated.values);
        assert_eq!(plain.supersteps, migrated.supersteps);
        // Every boundary that moved vertices reduced the measured
        // imbalance of the epoch it closed. (The *absolute* level may still
        // rise between epochs — the active wave keeps marching into the
        // skewed region — which is exactly why migration re-plans per
        // epoch.)
        let moved: Vec<_> = report.events.iter().filter(|e| e.moves > 0).collect();
        assert!(!moved.is_empty());
        for e in moved {
            assert!(
                e.imbalance_after < e.imbalance_before,
                "superstep {}: imbalance {} -> {}",
                e.superstep,
                e.imbalance_before,
                e.imbalance_after
            );
        }
    }

    #[test]
    fn bucketed_cyclops_matches_unbucketed_with_fewer_supersteps() {
        let g = road_lattice(12, 12, 0.9, 0.1, 3);
        let p = HashPartitioner.partition(&g, 4);
        let cluster = ClusterSpec::flat(2, 2);
        let flat = cyclops(&g, &p, cluster, false);
        let bucketed = cyclops(&g, &p, cluster, true);
        assert_eq!(flat.values, bucketed.values);
        assert!(
            bucketed.supersteps < flat.supersteps,
            "{} vs {}",
            bucketed.supersteps,
            flat.supersteps
        );
        assert_distances_match(&bucketed.values, &reference::sssp(&g, 0));
    }

    #[test]
    fn bucketed_cyclops_mt_matches_dijkstra() {
        let g = road_lattice(12, 12, 1.0, 0.0, 7);
        let p = HashPartitioner.partition(&g, 3);
        let r = cyclops(&g, &p, ClusterSpec::mt(3, 4, 2), true);
        assert_distances_match(&r.values, &reference::sssp(&g, 0));
    }

    #[test]
    fn auto_bucket_width_tracks_mean_weight() {
        let g = road_lattice(12, 12, 0.9, 0.1, 3);
        let mut sum = 0.0;
        let mut n = 0u64;
        for (_, _, w) in g.edges() {
            sum += w;
            n += 1;
        }
        let mean = sum / n as f64;
        assert!((auto_bucket_width(&g) - 8.0 * mean).abs() < 1e-12);
        // Edgeless graph: sane fallback, not NaN.
        let empty = cyclops_graph::GraphBuilder::new(3).build();
        assert_eq!(auto_bucket_width(&empty), 1.0);
    }

    #[test]
    fn push_mode_activity_is_sparse() {
        let g = road_lattice(20, 20, 1.0, 0.0, 9);
        let p = HashPartitioner.partition(&g, 4);
        let r = cyclops(&g, &p, ClusterSpec::flat(2, 2), false);
        // The frontier is a wavefront: far fewer than all vertices active.
        assert_eq!(r.stats[0].active_vertices, 1);
        let max_active = r.stats.iter().map(|s| s.active_vertices).max().unwrap();
        assert!(max_active < g.num_vertices() / 2, "max active {max_active}");
    }
}
