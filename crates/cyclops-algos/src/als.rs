//! Alternating Least Squares — the paper's recommendation workload (§6.1,
//! after Zhou et al.'s Netflix solver).
//!
//! The ratings matrix is a bipartite users×items graph whose edge weights
//! are ratings. Each side holds a latent factor vector of dimension `d`;
//! sides alternate: with item factors fixed, each user solves the
//! regularized normal equations `(Σ x xᵀ + λ n I) f = Σ r x` over its rated
//! items (and vice versa). One "iteration" is therefore two supersteps.
//!
//! A Cyclops publication is a [`Factor`], which keeps a factor of up to
//! [`INLINE`] entries inside the view slot, so reading an in-neighbour's
//! factor is a load from the view rather than a pointer chase, and
//! publishing one allocates nothing.

use crate::linalg::NormalEquations;
use bytes::{Buf, BufMut, BytesMut};
use cyclops_bsp::{BspContext, BspProgram};
use cyclops_engine::{CyclopsContext, CyclopsProgram};
use cyclops_graph::{Graph, VertexId};
use cyclops_net::Codec;
use std::cell::RefCell;
use std::ops::Deref;

/// Most entries a [`Factor`] stores without a heap allocation: the largest
/// dimension the benchmark, the example and the tests use. A wider inline
/// buffer grows every view slot for dimensions nobody runs.
pub const INLINE: usize = 8;

/// One ALS factor as a publication: stored inline up to [`INLINE`]
/// entries, on the heap above that. It encodes byte for byte as the
/// `Vec<f64>` it holds: a `u32` length, then the entries little-endian.
#[derive(Clone)]
pub struct Factor(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` entries are the factor; the rest are zero.
    Inline { len: u8, data: [f64; INLINE] },
    /// A factor longer than [`INLINE`].
    Heap(Vec<f64>),
}

impl Factor {
    /// A factor of `len` entries written by `fill`.
    fn filled(len: usize, fill: impl FnOnce(&mut [f64])) -> Self {
        if len <= INLINE {
            let mut data = [0.0; INLINE];
            fill(&mut data[..len]);
            Factor(Repr::Inline {
                len: len as u8,
                data,
            })
        } else {
            let mut v = vec![0.0; len];
            fill(&mut v);
            Factor(Repr::Heap(v))
        }
    }
}

impl From<&[f64]> for Factor {
    fn from(x: &[f64]) -> Self {
        Factor::filled(x.len(), |out| out.copy_from_slice(x))
    }
}

impl Deref for Factor {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        match &self.0 {
            Repr::Inline { len, data } => &data[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl Codec for Factor {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.len() as u32);
        for &x in self.iter() {
            buf.put_f64_le(x);
        }
    }
    fn try_decode(buf: &mut impl Buf) -> Option<Self> {
        let len = u32::try_decode(buf)? as usize;
        // Checked before `filled` sizes anything from the declared length.
        if buf.remaining() / 8 < len {
            return None;
        }
        Some(Factor::filled(len, |out| {
            for x in out {
                *x = buf.get_f64_le();
            }
        }))
    }
    fn encoded_len(&self) -> usize {
        4 + 8 * self.len()
    }
}

thread_local! {
    /// The normal equations, one system per compute thread, reused across
    /// solves so a solve allocates nothing.
    static NORMAL: RefCell<NormalEquations> = const { RefCell::new(NormalEquations::new()) };
}

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

    /// Solves the regularized normal equations `(Σ x xᵀ + λ n I) f = Σ r x`
    /// over the `n` `(factor x, rating r)` pairs and writes `f` into `value`
    /// in place; returns `Σ |f − old|` over the entries. Keeps `value` (and
    /// returns 0) when the vertex has no ratings or the system is not
    /// positive definite. The system is built on register tiles in this
    /// thread's [`NormalEquations`] (see [`crate::linalg`]), to the bits of a
    /// per-entry loop taking the pairs in order, so a solve allocates
    /// nothing.
    fn solve<'a>(
        &self,
        neighbors: impl Iterator<Item = (&'a [f64], f64)>,
        value: &mut [f64],
    ) -> f64 {
        NORMAL.with_borrow_mut(|system| {
            system.reset(self.dim);
            for (x, rating) in neighbors {
                system.push(x, rating);
            }
            let Some(new) = system.solve(self.lambda) else {
                return 0.0;
            };
            let delta = new.iter().zip(&*value).map(|(a, b)| (a - b).abs()).sum();
            value.copy_from_slice(new);
            delta
        })
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
    type Message = Factor;

    fn init(&self, v: VertexId, _g: &Graph) -> Vec<f64> {
        self.params.init_factor(v)
    }

    fn init_message(&self, _v: VertexId, _g: &Graph, value: &Vec<f64>) -> Option<Factor> {
        Some(Factor::from(value.as_slice()))
    }

    fn initially_active(&self, v: VertexId, _g: &Graph) -> bool {
        // Users solve first, against the items' initial factors.
        self.params.is_user(v)
    }

    fn compute(&self, ctx: &mut CyclopsContext<'_, Vec<f64>, Factor>) {
        // Alternation: users on even supersteps, items on odd. A vertex can
        // only be activated by the other side, so this guard just drops the
        // rare same-superstep double-activation at the boundary.
        let users_turn = ctx.superstep() % 2 == 0;
        if users_turn != self.params.is_user(ctx.vertex()) {
            return;
        }
        let delta = self
            .params
            .solve(ctx.in_messages().map(|(m, r)| (&m[..], r)), ctx.value_mut());
        let publication = Factor::from(ctx.value().as_slice());
        ctx.report_error(delta);
        ctx.activate_neighbors(publication);
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
                broadcast(ctx);
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
        self.params.solve(
            msgs.iter().map(|m| (&m[1..], rating(m[0] as VertexId))),
            ctx.value_mut(),
        );
        broadcast(ctx);
    }
}

/// Sends this vertex's factor to every out-neighbour for the other side's
/// turn, tagged with the vertex's id.
fn broadcast(ctx: &mut BspContext<'_, Vec<f64>, Vec<f64>>) {
    let mut tagged = Vec::with_capacity(ctx.value().len() + 1);
    tagged.push(ctx.vertex() as f64);
    tagged.extend_from_slice(ctx.value());
    ctx.send_to_neighbors(tagged);
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
            params.solve(pairs, &mut factors[v as usize]);
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
    use proptest::prelude::*;

    fn cyclops(
        g: &Graph,
        p: &EdgeCutPartition,
        cluster: ClusterSpec,
        params: AlsParams,
        iterations: usize,
    ) -> CyclopsResult<Vec<f64>, Factor> {
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

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        /// A factor on either side of the inline capacity encodes to exactly
        /// the bytes of the `Vec<f64>` it holds, and decodes back to it.
        #[test]
        fn factor_encodes_as_its_vec(x in proptest::collection::vec(any::<f64>(), 0..21)) {
            let f = Factor::from(x.as_slice());
            let (mut ours, mut plain) = (BytesMut::new(), BytesMut::new());
            f.encode(&mut ours);
            x.encode(&mut plain);
            prop_assert_eq!(&ours[..], &plain[..]);
            prop_assert_eq!(f.encoded_len(), ours.len());
            let mut rest = &ours[..];
            let back = Factor::try_decode(&mut rest).expect("a whole encoding decodes");
            prop_assert!(rest.is_empty());
            prop_assert_eq!(bits(&back), bits(&x));
        }

        /// Every strict prefix of an encoding is rejected, without a panic.
        #[test]
        fn factor_truncated_anywhere_is_rejected(x in proptest::collection::vec(-1.0f64..1.0, 0..21)) {
            let mut buf = BytesMut::new();
            Factor::from(x.as_slice()).encode(&mut buf);
            for cut in 0..buf.len() {
                prop_assert!(Factor::try_decode(&mut &buf[..cut]).is_none(), "cut at {cut}");
            }
        }

        /// A declared length beyond the bytes that follow is rejected up
        /// front: a length up to `u32::MAX` sizes no buffer.
        #[test]
        fn factor_length_past_the_buffer_is_rejected(
            x in proptest::collection::vec(-1.0f64..1.0, 0..21),
            excess in 1u32..u32::MAX,
        ) {
            let held = x.len() as u32;
            for len in [held + 1, held.saturating_add(excess), u32::MAX] {
                let mut buf = BytesMut::new();
                len.encode(&mut buf);
                for v in &x {
                    v.encode(&mut buf);
                }
                prop_assert!(Factor::try_decode(&mut &buf[..]).is_none(), "length {len}");
            }
        }
    }

    #[test]
    fn solve_keeps_the_value_without_ratings_or_definiteness() {
        let params = AlsParams {
            users: 1,
            dim: 2,
            lambda: 0.0,
        };
        let old = [0.25, -0.5];
        let mut value = old;
        assert_eq!(params.solve(std::iter::empty(), &mut value), 0.0);
        assert_eq!(bits(&value), bits(&old));
        // A factor with a zero entry leaves an unregularized `x xᵀ` singular.
        let x = [0.0, 1.0];
        assert_eq!(params.solve([(&x[..], 3.0)].into_iter(), &mut value), 0.0);
        assert_eq!(bits(&value), bits(&old));
        // Regularized, the same system solves in place: `diag(λ, 1 + λ) f =
        // (0, 3)`, and the returned change is the distance moved.
        let params = AlsParams {
            lambda: 0.05,
            ..params
        };
        let delta = params.solve([(&x[..], 3.0)].into_iter(), &mut value);
        assert_eq!(value[0], 0.0);
        assert!((value[1] - 3.0 / 1.05).abs() < 1e-12, "{value:?}");
        assert!((delta - (0.25 + 3.0 / 1.05 + 0.5)).abs() < 1e-12, "{delta}");
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
