//! Alternating Least Squares — the paper's recommendation workload (§6.1,
//! after Zhou et al.'s Netflix solver).
//!
//! The ratings matrix is a bipartite users×items graph whose edge weights
//! are ratings. Each side holds a latent factor vector of dimension `d`;
//! sides alternate: with item factors fixed, each user solves the
//! regularized normal equations `(Σ x xᵀ + λ n I) f = Σ r x` over its rated
//! items (and vice versa). One "iteration" is therefore two supersteps.

use crate::linalg::{axpy, cholesky_solve, syrk_update};
use cyclops_bsp::{BspContext, BspProgram};
use cyclops_engine::{CyclopsContext, CyclopsProgram};
use cyclops_graph::{Graph, VertexId};

/// Shared ALS parameters.
#[derive(Clone, Copy, Debug)]
pub struct AlsParams {
    /// Number of left-side (user) vertices; `v < users` is a user.
    pub users: usize,
    /// Latent factor dimension.
    pub dim: usize,
    /// Regularization weight λ.
    pub lambda: f64,
}

impl AlsParams {
    fn is_user(&self, v: VertexId) -> bool {
        (v as usize) < self.users
    }

    /// Deterministic pseudo-random initial factor of `v` (hash-seeded so
    /// every engine starts identically).
    fn init_factor(&self, v: VertexId) -> Vec<f64> {
        let mut state = (v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xdead_beef;
        (0..self.dim)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Small positive values in (0, 0.1].
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 0.1 + 1e-3
            })
            .collect()
    }

    /// Solves the regularized normal equations over `(factor, rating)`
    /// pairs; returns the old factor when the vertex has no ratings.
    fn solve<'a>(
        &self,
        neighbors: impl Iterator<Item = (&'a [f64], f64)>,
        old: &[f64],
    ) -> Vec<f64> {
        let d = self.dim;
        let mut a = vec![0.0; d * d];
        let mut b = vec![0.0; d];
        let mut count = 0usize;
        for (x, rating) in neighbors {
            syrk_update(&mut a, x, 1.0);
            axpy(&mut b, x, rating);
            count += 1;
        }
        if count == 0 {
            return old.to_vec();
        }
        let reg = self.lambda * count as f64;
        for i in 0..d {
            a[i * d + i] += reg;
        }
        if cholesky_solve(&mut a, &mut b, d) {
            b
        } else {
            old.to_vec()
        }
    }
}

/// Cyclops ALS: factors are publications; the active side pulls the other
/// side's factors with rating weights through the immutable view, solves,
/// and activates its neighbors (the other side) — the alternation falls out
/// of distributed activation.
///
/// To run: one iteration is two supersteps (users, then items), so `n`
/// iterations take `max_supersteps = 2 * n`.
pub struct CyclopsAls {
    /// Shared parameters.
    pub params: AlsParams,
}

impl CyclopsProgram for CyclopsAls {
    type Value = Vec<f64>;
    type Message = Vec<f64>;

    fn init(&self, v: VertexId, _g: &Graph) -> Vec<f64> {
        self.params.init_factor(v)
    }

    fn init_message(&self, _v: VertexId, _g: &Graph, value: &Vec<f64>) -> Option<Vec<f64>> {
        Some(value.clone())
    }

    fn initially_active(&self, v: VertexId, _g: &Graph) -> bool {
        // Users solve first, against the items' initial factors.
        self.params.is_user(v)
    }

    fn compute(&self, ctx: &mut CyclopsContext<'_, Vec<f64>, Vec<f64>>) {
        // Alternation: users on even supersteps, items on odd. A vertex can
        // only be activated by the other side, so this guard just drops the
        // rare same-superstep double-activation at the boundary.
        let users_turn = ctx.superstep() % 2 == 0;
        if users_turn != self.params.is_user(ctx.vertex()) {
            return;
        }
        let new = self.params.solve(
            ctx.in_messages().map(|(m, r)| (m.as_slice(), r)),
            ctx.value().as_slice(),
        );
        let delta: f64 = new
            .iter()
            .zip(ctx.value())
            .map(|(a, b)| (a - b).abs())
            .sum();
        ctx.set_value(new.clone());
        ctx.report_error(delta);
        ctx.activate_neighbors(new);
    }
}

/// BSP ALS: both sides stay alive; the off-turn side re-broadcasts its
/// factors so the on-turn side has messages to solve against — the
/// redundant traffic Cyclops' immutable view removes.
///
/// To run: two supersteps per iteration plus the seed superstep 0, so `n`
/// iterations take `max_supersteps = 2 * n + 1`; no `combine` (each factor
/// is needed whole).
pub struct BspAls {
    /// Shared parameters.
    pub params: AlsParams,
}

impl BspProgram for BspAls {
    type Value = Vec<f64>;
    type Message = Vec<f64>;

    fn init(&self, v: VertexId, _g: &Graph) -> Vec<f64> {
        self.params.init_factor(v)
    }

    fn compute(&self, ctx: &mut BspContext<'_, Vec<f64>, Vec<f64>>, msgs: &[Vec<f64>]) {
        // Superstep 0: items broadcast initial factors. Superstep s >= 1:
        // users solve on odd s, items on even s, and the solving side
        // broadcasts its new factors for the next superstep.
        let is_user = self.params.is_user(ctx.vertex());
        if ctx.superstep() == 0 {
            if !is_user {
                let mut tagged = Vec::with_capacity(ctx.value().len() + 1);
                tagged.push(ctx.vertex() as f64);
                tagged.extend_from_slice(ctx.value());
                ctx.send_to_neighbors(tagged);
            }
            return;
        }
        let my_turn = (ctx.superstep() % 2 == 1) == is_user;
        if !my_turn {
            return;
        }
        // Hama delivers a vertex's messages in no fixed order, so each one
        // carries its sender's id ahead of the factor (see the sends), and
        // the rating is that sender's weight among this vertex's in-edges,
        // which are sorted by source. Of parallel edges the last one counts.
        let g = ctx.graph();
        let sources = g.in_neighbors(ctx.vertex());
        let weights = g.in_weights(ctx.vertex());
        let rating = |src: VertexId| match sources.partition_point(|&s| s <= src).checked_sub(1) {
            Some(i) if sources[i] == src => weights.get(i).copied().unwrap_or(1.0),
            _ => 0.0,
        };
        let new = self.params.solve(
            msgs.iter().map(|m| (&m[1..], rating(m[0] as VertexId))),
            ctx.value().as_slice(),
        );
        ctx.set_value(new.clone());
        // Broadcast for the other side's turn, tagged with our id.
        let mut tagged = Vec::with_capacity(new.len() + 1);
        tagged.push(ctx.vertex() as f64);
        tagged.extend_from_slice(&new);
        ctx.send_to_neighbors(tagged);
    }
}

/// Sequential reference ALS with the same alternation schedule; used by the
/// tests as ground truth.
pub fn reference_als(graph: &Graph, params: AlsParams, iterations: usize) -> Vec<Vec<f64>> {
    let n = graph.num_vertices();
    let mut factors: Vec<Vec<f64>> = (0..n as u32).map(|v| params.init_factor(v)).collect();
    for it in 0..iterations * 2 {
        let users_turn = it % 2 == 0;
        let snapshot = factors.clone();
        for v in graph.vertices() {
            if params.is_user(v) != users_turn {
                continue;
            }
            let pairs = graph
                .in_edges(v)
                .map(|(s, r)| (snapshot[s as usize].as_slice(), r));
            factors[v as usize] = params.solve(pairs, &snapshot[v as usize]);
        }
    }
    factors
}

/// Root-mean-square error of `factors` against the observed ratings — the
/// quantity ALS minimizes; used to check the optimization makes progress.
pub fn rating_rmse(graph: &Graph, factors: &[Vec<f64>]) -> f64 {
    let mut se = 0.0;
    let mut count = 0usize;
    for (u, v, r) in graph.edges() {
        let pred = crate::linalg::dot(&factors[u as usize], &factors[v as usize]);
        se += (pred - r) * (pred - r);
        count += 1;
    }
    (se / count.max(1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_bsp::{run_bsp, BspConfig};
    use cyclops_engine::{run_cyclops, CyclopsConfig, CyclopsResult};
    use cyclops_graph::gen::bipartite_ratings;
    use cyclops_net::ClusterSpec;
    use cyclops_partition::{EdgeCutPartition, EdgeCutPartitioner, HashPartitioner};

    fn cyclops(
        g: &Graph,
        p: &EdgeCutPartition,
        cluster: ClusterSpec,
        params: AlsParams,
        iterations: usize,
    ) -> CyclopsResult<Vec<f64>, Vec<f64>> {
        let config = CyclopsConfig {
            cluster,
            max_supersteps: iterations * 2,
            ..Default::default()
        };
        run_cyclops(&CyclopsAls { params }, g, p, &config)
    }

    fn small_ratings() -> (Graph, AlsParams) {
        let (g, users) = bipartite_ratings(60, 20, 400, 0.8, 11);
        (
            g,
            AlsParams {
                users,
                dim: 4,
                lambda: 0.05,
            },
        )
    }

    fn max_factor_diff(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
        a.iter()
            .zip(b)
            .flat_map(|(x, y)| x.iter().zip(y).map(|(p, q)| (p - q).abs()))
            .fold(0.0, f64::max)
    }

    #[test]
    fn cyclops_matches_reference() {
        let (g, params) = small_ratings();
        let p = HashPartitioner.partition(&g, 4);
        let r = cyclops(&g, &p, ClusterSpec::flat(2, 2), params, 3);
        let expected = reference_als(&g, params, 3);
        assert!(
            max_factor_diff(&r.values, &expected) < 1e-9,
            "diff {}",
            max_factor_diff(&r.values, &expected)
        );
    }

    #[test]
    fn bsp_matches_reference() {
        let (g, params) = small_ratings();
        let p = HashPartitioner.partition(&g, 4);
        let config = BspConfig {
            cluster: ClusterSpec::flat(2, 2),
            max_supersteps: 3 * 2 + 1,
            track_redundant: true,
            ..Default::default()
        };
        let r = run_bsp(&BspAls { params }, &g, &p, &config);
        let expected = reference_als(&g, params, 3);
        assert!(
            max_factor_diff(&r.values, &expected) < 1e-8,
            "diff {}",
            max_factor_diff(&r.values, &expected)
        );
    }

    #[test]
    fn rmse_decreases_over_iterations() {
        let (g, params) = small_ratings();
        let one = reference_als(&g, params, 1);
        let five = reference_als(&g, params, 5);
        let rmse1 = rating_rmse(&g, &one);
        let rmse5 = rating_rmse(&g, &five);
        assert!(rmse5 < rmse1, "rmse {rmse1} -> {rmse5}");
        assert!(rmse5 < 1.5, "absolute fit too poor: {rmse5}");
    }

    #[test]
    fn mt_matches_flat() {
        let (g, params) = small_ratings();
        let flat = {
            let p = HashPartitioner.partition(&g, 4);
            cyclops(&g, &p, ClusterSpec::flat(4, 1), params, 2)
        };
        let mt = {
            let p = HashPartitioner.partition(&g, 2);
            cyclops(&g, &p, ClusterSpec::mt(2, 3, 2), params, 2)
        };
        assert!(max_factor_diff(&flat.values, &mt.values) < 1e-12);
    }
}
