//! PageRank on all three engines — the paper's running example
//! (Figures 2 and 5) and its main benchmark workload.
//!
//! Update rule: `rank' = 0.15 / n + 0.85 * Σ_in rank(u) / deg⁺(u)`.

use cyclops_bsp::{BspContext, BspProgram};
use cyclops_engine::{CyclopsContext, CyclopsProgram};
use cyclops_gas::GasProgram;
use cyclops_graph::{Graph, VertexId};

const DAMPING: f64 = 0.85;

/// The BSP (Hama) PageRank of the paper's Figure 2: pull-mode forced into
/// push-mode message passing. Every vertex stays alive, pushing its rank
/// share each superstep, until the *global* aggregated error falls below
/// `epsilon` — the redundant computation and messaging §2.2 dissects.
///
/// To run: superstep 0 only seeds, so `n` rank updates take
/// `max_supersteps = n + 1`; defines `combine`, so set `use_combiner`.
pub struct BspPageRank {
    /// Global mean-error convergence threshold.
    pub epsilon: f64,
}

impl BspProgram for BspPageRank {
    type Value = f64;
    type Message = f64;

    fn init(&self, _v: VertexId, g: &Graph) -> f64 {
        1.0 / g.num_vertices() as f64
    }

    fn compute(&self, ctx: &mut BspContext<'_, f64, f64>, msgs: &[f64]) {
        if ctx.superstep() == 0 {
            // Seed round: broadcast the initial rank share.
            let share = *ctx.value() / ctx.out_degree().max(1) as f64;
            ctx.send_to_neighbors(share);
            return;
        }
        let sum: f64 = msgs.iter().sum();
        let value = 0.15 / ctx.num_vertices() as f64 + DAMPING * sum;
        let error = (value - *ctx.value()).abs();
        ctx.set_value(value);
        ctx.aggregate(error);
        // "getGlobalError()": the previous superstep's aggregated mean.
        let global_error = ctx.global_aggregate().unwrap_or(f64::MAX);
        if global_error > self.epsilon {
            let share = value / ctx.out_degree().max(1) as f64;
            ctx.send_to_neighbors(share);
        } else {
            ctx.vote_to_halt();
        }
    }

    fn combine(&self, a: &f64, b: &f64) -> Option<f64> {
        // Rank shares to the same destination simply add.
        Some(a + b)
    }
}

/// The Cyclops PageRank of the paper's Figure 5: reads in-neighbor
/// publications through the distributed immutable view, deactivates itself
/// by default, and re-activates neighbors only while its *local* error
/// exceeds `epsilon` — dynamic computation for free.
pub struct CyclopsPageRank {
    /// Per-vertex local-error threshold.
    pub epsilon: f64,
}

impl CyclopsProgram for CyclopsPageRank {
    type Value = f64;
    type Message = f64;

    fn init(&self, _v: VertexId, g: &Graph) -> f64 {
        1.0 / g.num_vertices() as f64
    }

    fn init_message(&self, _v: VertexId, g: &Graph, value: &f64) -> Option<f64> {
        Some(*value / g.out_degree(_v).max(1) as f64)
    }

    fn compute(&self, ctx: &mut CyclopsContext<'_, f64, f64>) {
        let last = *ctx.value();
        let sum: f64 = ctx.in_messages().map(|(m, _)| *m).sum();
        let value = 0.15 / ctx.num_vertices() as f64 + DAMPING * sum;
        ctx.set_value(value);
        let error = (value - last).abs();
        ctx.report_error(error);
        if error > self.epsilon {
            let share = value / ctx.out_degree().max(1) as f64;
            ctx.activate_neighbors(share);
        }
    }
}

/// PowerGraph-style GAS PageRank (the Table 4 comparison workload).
pub struct GasPageRank {
    /// Local-error threshold deciding scatter activation.
    pub epsilon: f64,
}

impl GasProgram for GasPageRank {
    type Value = f64;
    type Gather = f64;

    fn init(&self, _v: VertexId, g: &Graph) -> f64 {
        1.0 / g.num_vertices() as f64
    }

    fn gather(&self, g: &Graph, src: VertexId, src_value: &f64, _w: f64, _dst: VertexId) -> f64 {
        *src_value / g.out_degree(src).max(1) as f64
    }

    fn sum(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn apply(&self, g: &Graph, _v: VertexId, _old: &f64, acc: Option<f64>) -> f64 {
        0.15 / g.num_vertices() as f64 + DAMPING * acc.unwrap_or(0.0)
    }

    fn scatter_activates(
        &self,
        _g: &Graph,
        _src: VertexId,
        old: &f64,
        new: &f64,
        _w: f64,
        _dst: VertexId,
    ) -> bool {
        (new - old).abs() > self.epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_bsp::{run_bsp, BspConfig, BspResult};
    use cyclops_engine::{run_cyclops, run_cyclops_migrated, CyclopsConfig, CyclopsResult};
    use cyclops_gas::{run_gas, GasConfig};
    use cyclops_graph::gen::erdos_renyi;
    use cyclops_graph::reference;
    use cyclops_net::ClusterSpec;
    use cyclops_partition::{
        EdgeCutPartition, EdgeCutPartitioner, HashPartitioner, MigrationConfig, RandomVertexCut,
        VertexCutPartitioner,
    };

    fn cyclops(
        g: &Graph,
        p: &EdgeCutPartition,
        cluster: &ClusterSpec,
        epsilon: f64,
        max_supersteps: usize,
    ) -> CyclopsResult<f64, f64> {
        let config = CyclopsConfig {
            cluster: *cluster,
            max_supersteps,
            ..Default::default()
        };
        run_cyclops(&CyclopsPageRank { epsilon }, g, p, &config)
    }

    fn hama(
        g: &Graph,
        p: &EdgeCutPartition,
        cluster: &ClusterSpec,
        epsilon: f64,
        max_supersteps: usize,
    ) -> BspResult<f64, f64> {
        let config = BspConfig {
            cluster: *cluster,
            max_supersteps,
            use_combiner: true,
            track_redundant: true,
            ..Default::default()
        };
        run_bsp(&BspPageRank { epsilon }, g, p, &config)
    }

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn cyclops_matches_reference_exactly_on_fixed_iterations() {
        let g = erdos_renyi(300, 1800, 7);
        let p = HashPartitioner.partition(&g, 4);
        // epsilon 0 keeps every vertex active until the cap.
        let r = cyclops(&g, &p, &ClusterSpec::flat(2, 2), 0.0, 20);
        let (expected, _) = reference::pagerank(&g, 0.0, 20);
        assert!(max_abs_diff(&r.values, &expected) < 1e-15);
    }

    #[test]
    fn bsp_matches_reference_on_fixed_iterations() {
        let g = erdos_renyi(300, 1800, 7);
        let p = HashPartitioner.partition(&g, 4);
        // 21 supersteps = 1 seed + 20 updates.
        let r = hama(&g, &p, &ClusterSpec::flat(2, 2), 0.0, 21);
        let (expected, _) = reference::pagerank(&g, 0.0, 20);
        // Message arrival order varies -> floating-point tolerance.
        assert!(max_abs_diff(&r.values, &expected) < 1e-12);
    }

    #[test]
    fn gas_matches_reference_on_fixed_iterations() {
        let g = erdos_renyi(200, 1200, 9);
        let p = RandomVertexCut::default().partition(&g, 4);
        let config = GasConfig {
            cluster: ClusterSpec::flat(2, 2),
            max_supersteps: 20,
        };
        let r = run_gas(&GasPageRank { epsilon: 0.0 }, &g, &p, &config);
        let (expected, _) = reference::pagerank(&g, 0.0, 20);
        assert!(max_abs_diff(&r.values, &expected) < 1e-12);
    }

    #[test]
    fn converged_runs_agree_across_engines() {
        let g = erdos_renyi(300, 2400, 11);
        let p = HashPartitioner.partition(&g, 4);
        let cluster = ClusterSpec::flat(2, 2);
        let cy = cyclops(&g, &p, &cluster, 1e-12, 500);
        let bsp = hama(&g, &p, &cluster, 1e-12, 500);
        assert!(max_abs_diff(&cy.values, &bsp.values) < 1e-8);
    }

    #[test]
    fn cyclops_sends_fewer_messages_than_bsp() {
        let g = erdos_renyi(400, 3200, 13);
        let p = HashPartitioner.partition(&g, 4);
        let cluster = ClusterSpec::flat(4, 1);
        let cy = cyclops(&g, &p, &cluster, 1e-10, 500);
        let bsp = hama(&g, &p, &cluster, 1e-10, 500);
        assert!(
            cy.counters.messages < bsp.counters.messages,
            "cyclops {} vs bsp {}",
            cy.counters.messages,
            bsp.counters.messages
        );
    }

    #[test]
    fn cyclops_activity_decays_bsp_activity_does_not() {
        let g = erdos_renyi(400, 3200, 13);
        let p = HashPartitioner.partition(&g, 4);
        let cluster = ClusterSpec::flat(2, 2);
        let cy = cyclops(&g, &p, &cluster, 1e-8, 500);
        let bsp = hama(&g, &p, &cluster, 1e-8, 500);
        // Dynamic computation: vertices drop out as their local error
        // shrinks, so the total vertex activations are fewer...
        let cy_total: usize = cy.stats.iter().map(|s| s.active_vertices).sum();
        let bsp_total: usize = bsp.stats.iter().map(|s| s.active_vertices).sum();
        assert!(
            cy_total < bsp_total,
            "cyclops {cy_total} vs bsp {bsp_total}"
        );
        // ...and the tail of the run computes only stragglers.
        let cy_tail = cy.stats[cy.stats.len().saturating_sub(2)].active_vertices;
        assert!(cy_tail < 400, "cyclops tail still fully active: {cy_tail}");
        // In BSP every vertex is alive until global convergence.
        let bsp_mid = bsp.stats[bsp.stats.len() / 2].active_vertices;
        assert_eq!(bsp_mid, 400);
    }

    #[test]
    fn migrated_pagerank_is_bitwise_identical_on_a_skewed_partition() {
        let g = erdos_renyi(300, 1800, 7);
        let n = g.num_vertices();
        let assignment = (0..n)
            .map(|v| if v < n / 4 { (v % 4) as u32 } else { 0 })
            .collect();
        let p = EdgeCutPartition::new(4, assignment);
        let cluster = ClusterSpec::flat(4, 1);
        let plain = cyclops(&g, &p, &cluster, 1e-10, 500);
        let config = CyclopsConfig {
            cluster,
            max_supersteps: 500,
            ..Default::default()
        };
        let (migrated, report) = run_cyclops_migrated(
            &CyclopsPageRank { epsilon: 1e-10 },
            &g,
            &p,
            &config,
            6,
            MigrationConfig::default(),
        );
        assert!(report.migrations_total > 0, "skew must trigger migration");
        assert_eq!(plain.values, migrated.values);
        assert_eq!(plain.supersteps, migrated.supersteps);
    }

    #[test]
    fn ranks_sum_to_about_one_without_sinks() {
        // A strongly connected-ish graph: ER with dedup may have sinks, so
        // use a cycle plus chords.
        let mut b = cyclops_graph::GraphBuilder::new(100);
        for i in 0..100u32 {
            b.add_edge(i, (i + 1) % 100);
            b.add_edge(i, (i + 7) % 100);
        }
        let g = b.build();
        let p = HashPartitioner.partition(&g, 4);
        let r = cyclops(&g, &p, &ClusterSpec::flat(2, 2), 1e-12, 1000);
        let total: f64 = r.values.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "sum {total}");
    }
}
