//! Topology mutation — the paper's stated future work (§8: "Cyclops
//! currently has no support for topology mutation of graph yet ... We plan
//! to add such support").
//!
//! This module adds it with *epoch semantics*: a computation runs to
//! quiescence, a [`MutationBatch`] is applied (new vertices, added and
//! removed edges), and the computation resumes **warm** — values and
//! publications carry over, and only the vertices whose neighborhood changed
//! (plus any new vertices) are re-activated. Dynamic computation then
//! propagates the disturbance exactly like any other activation wave, so
//! self-correcting algorithms (PageRank, label propagation, max/min
//! propagation, ALS) converge to the new graph's fixpoint while recomputing
//! only what the mutation touched.
//!
//! A batch edits the topology and the distributed immutable view; it
//! rebuilds neither. [`apply_mutations`] splices the CSR rows the batch
//! touches ([`Graph::with_edits`]). [`run_cyclops_evolving`] builds its plan
//! once and edits it per batch (`plan::edit`): the endpoints of the batch's
//! edges, its new vertices and every vertex the new cut gives another owner
//! are re-seated — their rows and their entries in their neighbours' rows
//! derived again from the new graph — and every other entry is translated.
//! The edited plan equals a build on the new graph and cut, field for
//! field, so a batch costs what it disturbs, not what the graph holds.
//!
//! Algorithms whose state encodes *paths* (e.g. SSSP under edge removal)
//! are not self-correcting: a removed edge can strand a stale-but-small
//! distance that local recomputation will never raise. For those, rerun
//! cold after removals — [`run_cyclops_evolving`] takes a
//! [`WarmStart`] policy so callers can choose per batch.

use crate::checkpoint::CyclopsCheckpoint;
use crate::engine::{run_cyclops_with_plan, CyclopsConfig, CyclopsResult};
use crate::plan::{edit, CyclopsPlan};
use crate::program::CyclopsProgram;
use cyclops_graph::{Graph, VertexId};
use cyclops_partition::EdgeCutPartition;
use std::borrow::Cow;

/// A batch of topology changes applied between computation epochs.
#[derive(Clone, Debug, Default)]
pub struct MutationBatch {
    /// Number of fresh vertices appended (ids continue after the current
    /// maximum).
    pub add_vertices: usize,
    /// Directed edges to add; weight `None` on an unweighted graph.
    pub add_edges: Vec<(VertexId, VertexId, Option<f64>)>,
    /// Directed edges to remove (all parallel copies the graph has).
    pub remove_edges: Vec<(VertexId, VertexId)>,
}

impl MutationBatch {
    /// True when the batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.add_vertices == 0 && self.add_edges.is_empty() && self.remove_edges.is_empty()
    }

    /// The vertices whose local view the batch disturbs: endpoints of added
    /// and removed edges (a source's publication denominator may change, a
    /// destination's in-view does change).
    pub fn disturbed(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.add_edges
            .iter()
            .flat_map(|&(s, t, _)| [s, t])
            .chain(self.remove_edges.iter().flat_map(|&(s, t)| [s, t]))
    }
}

/// Applies a [`MutationBatch`] to a graph, producing the new topology by
/// [`Graph::with_edits`]. Removals apply to the old graph only: a removed
/// pair drops every copy `graph` has, never an edge the same batch adds,
/// and a pair `graph` does not have removes nothing.
/// Panics if an added edge references a vertex beyond the grown range, or
/// mixes weighted edges into an unweighted graph.
pub fn apply_mutations(graph: &Graph, batch: &MutationBatch) -> Graph {
    graph.with_edits(batch.add_vertices, &batch.add_edges, &batch.remove_edges)
}

/// Warm-start policy for the epoch after a mutation batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarmStart {
    /// Carry values and publications over; re-activate only disturbed and
    /// new vertices. Right for self-correcting algorithms.
    Incremental,
    /// Discard state and run the new epoch from `init` (all vertices
    /// activated per `initially_active`). Right after removals for
    /// path-encoding algorithms like SSSP.
    Cold,
}

/// Result of an evolving run: the final topology and plan plus every
/// epoch's result.
#[derive(Debug)]
pub struct EvolvingResult<V, M> {
    /// The graph after all mutation batches.
    pub graph: Graph,
    /// The plan the last epoch ran on: built for the first epoch, edited
    /// per batch, and equal to a build on `graph` and the last cut.
    pub plan: CyclopsPlan,
    /// Per-epoch engine results (`batches.len() + 1` entries).
    pub epochs: Vec<CyclopsResult<V, M>>,
}

impl<V, M> EvolvingResult<V, M> {
    /// The final epoch's vertex values.
    pub fn final_values(&self) -> &[V] {
        self.epochs.last().map_or(&[], |e| &e.values)
    }
}

/// Runs `program` over an evolving graph: an initial epoch on `graph`, then
/// one epoch per `(batch, policy)` pair. `partition_fn` cuts each topology
/// (vertex additions change the vertex set, so the cut is asked again per
/// batch — pass a closure over your partitioner); a vertex it gives a new
/// owner moves with the batch's edit. Panics if `partition_fn` changes the
/// number of parts or leaves a vertex out.
pub fn run_cyclops_evolving<P, F>(
    program: &P,
    graph: &Graph,
    partition_fn: F,
    config: &CyclopsConfig,
    batches: &[(MutationBatch, WarmStart)],
) -> EvolvingResult<P::Value, P::Message>
where
    P: CyclopsProgram,
    F: Fn(&Graph) -> EdgeCutPartition,
{
    let threshold = config.replicate_threshold;
    let mut plan =
        CyclopsPlan::build_parallel_with_threshold(graph, &partition_fn(graph), threshold);
    let mut last = run_cyclops_with_plan(program, graph, &plan, config, None);
    let mut epochs = Vec::with_capacity(batches.len() + 1);
    let mut current = Cow::Borrowed(graph);
    for (batch, policy) in batches {
        let next = apply_mutations(&current, batch);
        let cut = partition_fn(&next);
        assert_eq!(cut.num_parts, plan.workers.len(), "the cut keeps its parts");
        assert_eq!(
            cut.assignment.len(),
            next.num_vertices(),
            "the cut covers the graph"
        );
        let seats = seats(batch, &plan.owner, &cut);
        edit::reseat(&mut plan, &current, &next, seats, threshold);
        plan.recount();
        let resume = match policy {
            WarmStart::Cold => None,
            WarmStart::Incremental => Some(warm_start(program, batch, &last, &next)),
        };
        let result = run_cyclops_with_plan(program, &next, &plan, config, resume.as_ref());
        epochs.push(std::mem::replace(&mut last, result));
        current = Cow::Owned(next);
    }
    epochs.push(last);
    EvolvingResult {
        graph: current.into_owned(),
        plan,
        epochs,
    }
}

/// The vertices a batch re-seats, ascending, each with its owner under
/// `owner` (`None` for a new vertex) and under `cut`: the endpoints of its
/// edges, its new vertices and every vertex `cut` gives another owner.
fn seats(
    batch: &MutationBatch,
    owner: &[u32],
    cut: &EdgeCutPartition,
) -> Vec<(VertexId, Option<u32>, u32)> {
    let owners = &cut.assignment;
    let mut reseated: Vec<bool> = owners.iter().zip(owner).map(|(a, b)| a != b).collect();
    reseated.resize(owners.len(), true);
    for v in batch.disturbed() {
        if let Some(r) = reseated.get_mut(v as usize) {
            *r = true;
        }
    }
    let reseated = reseated.iter().enumerate().filter(|&(_, &r)| r);
    reseated
        .map(|(v, _)| (v as VertexId, owner.get(v).copied(), owners[v]))
        .collect()
}

/// The checkpoint a warm epoch resumes from: every old vertex's value and
/// publication from `prev`, active when the batch disturbed it, then every
/// vertex the batch added with the program's own `init` / `init_message`
/// state and `initially_active` flag — a resume starts every master the
/// checkpoint does not cover *inactive*, which would strand a new vertex
/// the program expects to start active.
fn warm_start<P: CyclopsProgram>(
    program: &P,
    batch: &MutationBatch,
    prev: &CyclopsResult<P::Value, P::Message>,
    next: &Graph,
) -> CyclopsCheckpoint<P::Value, P::Message> {
    let mut active = vec![false; prev.values.len()];
    for v in batch.disturbed() {
        if let Some(a) = active.get_mut(v as usize) {
            *a = true;
        }
    }
    let old = prev.values.iter().zip(&prev.publications).zip(active);
    let carried = old.enumerate().map(|(v, ((value, publication), act))| {
        (v as VertexId, value.clone(), publication.clone(), act)
    });
    let added = (prev.values.len() as VertexId..next.num_vertices() as VertexId).map(|v| {
        let value = program.init(v, next);
        let publication = program.init_message(v, next, &value);
        let act = program.initially_active(v, next);
        (v, value, publication, act)
    });
    CyclopsCheckpoint {
        superstep: 0,
        vertices: carried.chain(added).collect(),
        aggregate: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_cyclops;
    use crate::plan::tests::assert_plans_equal;
    use crate::program::CyclopsContext;
    use cyclops_net::ClusterSpec;
    use cyclops_partition::{EdgeCutPartitioner, HashPartitioner};

    /// Pull-mode max propagation (self-correcting under edge additions).
    struct MaxPull;
    impl CyclopsProgram for MaxPull {
        type Value = u32;
        type Message = u32;
        fn init(&self, v: VertexId, _g: &Graph) -> u32 {
            v * 10
        }
        fn init_message(&self, _v: VertexId, _g: &Graph, value: &u32) -> Option<u32> {
            Some(*value)
        }
        fn compute(&self, ctx: &mut CyclopsContext<'_, u32, u32>) {
            let mut best = *ctx.value();
            for (m, _) in ctx.in_messages() {
                best = best.max(*m);
            }
            if best > *ctx.value() {
                ctx.set_value(best);
                ctx.activate_neighbors(best);
            }
        }
    }

    /// An unweighted graph on `n` vertices with `edges`, in order.
    fn graph(n: usize, edges: &[(VertexId, VertexId)]) -> Graph {
        let batch = MutationBatch {
            add_edges: edges.iter().map(|&(s, t)| (s, t, None)).collect(),
            ..Default::default()
        };
        apply_mutations(&Graph::empty(n), &batch)
    }

    fn path(n: usize) -> Graph {
        let edges: Vec<_> = (1..n as VertexId).map(|i| (i - 1, i)).collect();
        graph(n, &edges)
    }

    fn config() -> CyclopsConfig {
        CyclopsConfig {
            cluster: ClusterSpec::flat(2, 2),
            ..Default::default()
        }
    }

    #[test]
    fn apply_mutations_adds_and_removes() {
        let g = path(4);
        let batch = MutationBatch {
            add_vertices: 1,
            add_edges: vec![(3, 4, None), (4, 0, None)],
            remove_edges: vec![(0, 1)],
        };
        let g2 = apply_mutations(&g, &batch);
        assert_eq!(g2.num_vertices(), 5);
        assert_eq!(g2.num_edges(), 4); // 3 - 1 + 2
        assert!(g2.out_neighbors(0).is_empty());
        assert_eq!(g2.out_neighbors(4), &[0]);
    }

    #[test]
    fn apply_mutations_removes_all_parallel_copies() {
        let g = graph(2, &[(0, 1), (0, 1)]);
        let g2 = apply_mutations(
            &g,
            &MutationBatch {
                remove_edges: vec![(0, 1)],
                ..Default::default()
            },
        );
        assert_eq!(g2.num_edges(), 0);
    }

    #[test]
    fn removals_apply_to_the_old_graph_only() {
        // (0, 1) goes and comes back as the batch's own edge; (2, 0) is
        // not in the old graph, so its removal spares the added copy.
        let g = path(3);
        let batch = MutationBatch {
            add_edges: vec![(0, 1, None), (2, 0, None)],
            remove_edges: vec![(0, 1), (2, 0), (7, 0)],
            ..Default::default()
        };
        let g2 = apply_mutations(&g, &batch);
        let edges: Vec<_> = g2.edges().map(|(s, t, _)| (s, t)).collect();
        assert_eq!(edges, [(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn the_edited_plan_equals_a_rebuild_after_every_batch() {
        // Inserts that take degree-1 path vertices across thresholds 2 and
        // 3, a removal that takes one back, a new vertex, and a cut that
        // moves a third of the owners every batch.
        let g = path(12);
        let cut = |g: &Graph| {
            let m = g.num_edges() as VertexId;
            EdgeCutPartition::new(
                2,
                g.vertices()
                    .map(|v| (v + (v % 3 == m % 3) as u32) % 2)
                    .collect(),
            )
        };
        let batches = [
            (vec![(0, 5), (11, 3)], vec![], 0),
            (vec![(12, 0), (4, 12)], vec![(4, 5), (0, 5)], 1),
            (vec![(6, 6), (6, 6)], vec![(11, 3), (1, 2)], 0),
        ]
        .map(|(add, remove, add_vertices)| {
            let batch = MutationBatch {
                add_vertices,
                add_edges: add.into_iter().map(|(s, t)| (s, t, None)).collect(),
                remove_edges: remove,
            };
            (batch, WarmStart::Incremental)
        });
        for threshold in [0, 2, 3, u32::MAX] {
            let config = CyclopsConfig {
                cluster: ClusterSpec::flat(2, 1),
                replicate_threshold: threshold,
                ..Default::default()
            };
            for len in 1..=batches.len() {
                let r = run_cyclops_evolving(&MaxPull, &g, cut, &config, &batches[..len]);
                let rebuilt =
                    CyclopsPlan::build_with_threshold(&r.graph, &cut(&r.graph), threshold);
                assert_plans_equal(&r.plan, &rebuilt);
            }
        }
    }

    #[test]
    fn incremental_epoch_matches_cold_run_on_final_graph() {
        // Path 0→1→2→3; then connect a new high-valued vertex into the
        // middle. The warm epoch must converge to exactly the cold answer.
        let g = path(8);
        let batch = MutationBatch {
            add_vertices: 1,
            add_edges: vec![(8, 3, None)],
            remove_edges: vec![],
        };
        let partition_fn = |g: &Graph| HashPartitioner.partition(g, 4);
        let evolving = run_cyclops_evolving(
            &MaxPull,
            &g,
            partition_fn,
            &config(),
            &[(batch.clone(), WarmStart::Incremental)],
        );
        let final_graph = apply_mutations(&g, &batch);
        let cold = run_cyclops(
            &MaxPull,
            &final_graph,
            &partition_fn(&final_graph),
            &config(),
        );
        assert_eq!(evolving.final_values(), &cold.values[..]);
        // Vertex 8 publishes 80; everything downstream of 3 must see it.
        assert_eq!(evolving.final_values()[7], 80);
    }

    #[test]
    fn incremental_recomputes_less_than_cold() {
        let g = path(64);
        let batch = MutationBatch {
            add_edges: vec![(0, 32, None)],
            ..Default::default()
        };
        let partition_fn = |g: &Graph| HashPartitioner.partition(g, 4);
        let evolving = run_cyclops_evolving(
            &MaxPull,
            &g,
            partition_fn,
            &config(),
            &[(batch, WarmStart::Incremental)],
        );
        // The disturbance epoch should compute far fewer vertex-activations
        // than the initial epoch did: only the 0→32 edge's consequences.
        let initial: usize = evolving.epochs[0]
            .stats
            .iter()
            .map(|s| s.active_vertices)
            .sum();
        let incremental: usize = evolving.epochs[1]
            .stats
            .iter()
            .map(|s| s.active_vertices)
            .sum();
        assert!(
            incremental * 4 < initial,
            "incremental {incremental} vs initial {initial}"
        );
        // And the answer is still right: 63*10 nowhere, max over ancestors.
        let final_graph = apply_mutations(
            &g,
            &MutationBatch {
                add_edges: vec![(0, 32, None)],
                ..Default::default()
            },
        );
        let cold = run_cyclops(
            &MaxPull,
            &final_graph,
            &partition_fn(&final_graph),
            &config(),
        );
        assert_eq!(evolving.final_values(), &cold.values[..]);
    }

    #[test]
    fn cold_policy_discards_state() {
        // Remove the only edge feeding vertex 1: incremental MaxPull would
        // keep the stale max (monotone state), cold recomputes from init.
        let g = graph(2, &[(1, 0)]); // 0 pulls from 1 -> value 10
        let partition_fn = |g: &Graph| HashPartitioner.partition(g, 4);
        let batch = MutationBatch {
            remove_edges: vec![(1, 0)],
            ..Default::default()
        };
        let cold = run_cyclops_evolving(
            &MaxPull,
            &g,
            partition_fn,
            &config(),
            &[(batch.clone(), WarmStart::Cold)],
        );
        assert_eq!(cold.final_values(), &[0, 10]);
        let warm = run_cyclops_evolving(
            &MaxPull,
            &g,
            partition_fn,
            &config(),
            &[(batch, WarmStart::Incremental)],
        );
        // Warm keeps the stale 10 — exactly why Cold exists.
        assert_eq!(warm.final_values(), &[10, 10]);
    }

    #[test]
    fn evolving_run_honors_the_replication_threshold() {
        // Every path edge crosses the cut, so the degree-1 head (and any
        // vertex below the threshold) is a cold boundary vertex.
        let g = path(12);
        let partition_fn =
            |g: &Graph| EdgeCutPartition::new(2, g.vertices().map(|v| v % 2).collect::<Vec<_>>());
        let batches = [(
            MutationBatch {
                add_vertices: 1,
                add_edges: vec![(12, 5, None), (3, 9, None)],
                remove_edges: vec![],
            },
            WarmStart::Incremental,
        )];
        let run = |replicate_threshold: u32| {
            let config = CyclopsConfig {
                cluster: ClusterSpec::flat(2, 1),
                replicate_threshold,
                ..Default::default()
            };
            run_cyclops_evolving(&MaxPull, &g, partition_fn, &config, &batches)
        };
        let full = run(0);
        assert!(full
            .epochs
            .iter()
            .all(|e| e.ingress.total_direct_slots == 0));
        for threshold in [2, u32::MAX] {
            let hybrid = run(threshold);
            for (h, f) in hybrid.epochs.iter().zip(&full.epochs) {
                assert!(
                    h.ingress.total_direct_slots > 0,
                    "threshold {threshold} must message cold vertices in every epoch"
                );
                assert_eq!(h.values, f.values);
                assert_eq!(h.publications, f.publications);
                assert_eq!(h.supersteps, f.supersteps);
            }
        }
    }

    #[test]
    fn multiple_batches_chain() {
        let g = path(4);
        let partition_fn = |g: &Graph| HashPartitioner.partition(g, 4);
        let batches = vec![
            (
                MutationBatch {
                    add_vertices: 1,
                    add_edges: vec![(4, 0, None)],
                    ..Default::default()
                },
                WarmStart::Incremental,
            ),
            (
                MutationBatch {
                    add_vertices: 1,
                    add_edges: vec![(5, 4, None)],
                    ..Default::default()
                },
                WarmStart::Incremental,
            ),
        ];
        let r = run_cyclops_evolving(&MaxPull, &g, partition_fn, &config(), &batches);
        assert_eq!(r.graph.num_vertices(), 6);
        assert_eq!(r.epochs.len(), 3);
        // Vertex 5 (value 50) feeds 4 feeds 0 feeds the whole path.
        assert!(r.final_values().iter().all(|&v| v == 50));
    }
}
