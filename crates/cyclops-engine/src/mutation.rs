//! Topology mutation — the paper's stated future work (§8: "Cyclops
//! currently has no support for topology mutation of graph yet ... We plan
//! to add such support").
//!
//! This module adds it with *epoch semantics*: a computation runs to
//! quiescence, a [`MutationBatch`] is applied (new vertices, added and
//! removed edges), the distributed immutable view is rebuilt for the new
//! topology (re-partitioned, then wired by the same linear-time routine as
//! any other plan, at the configured replication threshold), and the
//! computation resumes **warm** — values and publications
//! carry over, and only the vertices whose neighborhood changed (plus any
//! new vertices) are re-activated. Dynamic computation then propagates the
//! disturbance exactly like any other activation wave, so self-correcting
//! algorithms (PageRank, label propagation, max/min propagation, ALS)
//! converge to the new graph's fixpoint while recomputing only what the
//! mutation touched.
//!
//! Algorithms whose state encodes *paths* (e.g. SSSP under edge removal)
//! are not self-correcting: a removed edge can strand a stale-but-small
//! distance that local recomputation will never raise. For those, rerun
//! cold after removals — [`run_cyclops_evolving`] takes a
//! [`WarmStart`] policy so callers can choose per batch.

use crate::checkpoint::CyclopsCheckpoint;
use crate::engine::{run_cyclops_with_plan, CyclopsConfig, CyclopsResult};
use crate::plan::CyclopsPlan;
use crate::program::CyclopsProgram;
use cyclops_graph::{Graph, GraphBuilder, VertexId};
use cyclops_partition::EdgeCutPartition;

/// A batch of topology changes applied between computation epochs.
#[derive(Clone, Debug, Default)]
pub struct MutationBatch {
    /// Number of fresh vertices appended (ids continue after the current
    /// maximum).
    pub add_vertices: usize,
    /// Directed edges to add; weight `None` on an unweighted graph.
    pub add_edges: Vec<(VertexId, VertexId, Option<f64>)>,
    /// Directed edges to remove (all parallel copies).
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

/// Applies a [`MutationBatch`] to a graph, producing the new topology.
/// Panics if an added edge references a vertex beyond the grown range, or
/// mixes weighted edges into an unweighted graph.
pub fn apply_mutations(graph: &Graph, batch: &MutationBatch) -> Graph {
    let n = graph.num_vertices() + batch.add_vertices;
    let weighted = graph.is_weighted();
    let mut removed: Vec<(VertexId, VertexId)> = batch.remove_edges.clone();
    removed.sort_unstable();
    let mut b = GraphBuilder::new(n);
    for (s, t, w) in graph.edges() {
        if removed.binary_search(&(s, t)).is_ok() {
            continue;
        }
        if weighted {
            b.add_weighted_edge(s, t, w);
        } else {
            b.add_edge(s, t);
        }
    }
    for &(s, t, w) in &batch.add_edges {
        match (weighted, w) {
            (true, Some(w)) => b.add_weighted_edge(s, t, w),
            (true, None) => panic!("weighted graph needs edge weights"),
            (false, None) => b.add_edge(s, t),
            (false, Some(_)) => panic!("unweighted graph cannot take weighted edges"),
        }
    }
    b.build()
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

/// Result of an evolving run: the final topology plus every epoch's result.
#[derive(Debug)]
pub struct EvolvingResult<V, M> {
    /// The graph after all mutation batches.
    pub graph: Graph,
    /// Per-epoch engine results (`batches.len() + 1` entries).
    pub epochs: Vec<CyclopsResult<V, M>>,
}

impl<V, M> EvolvingResult<V, M> {
    /// The final epoch's vertex values.
    pub fn final_values(&self) -> &[V] {
        &self.epochs.last().expect("at least one epoch").values
    }

    /// Total supersteps across all epochs.
    pub fn total_supersteps(&self) -> usize {
        self.epochs.iter().map(|e| e.supersteps).sum()
    }
}

/// Runs `program` over an evolving graph: an initial epoch on `graph`, then
/// one epoch per `(batch, policy)` pair. `partition_fn` re-partitions each
/// new topology (vertex additions change the vertex set, so the cut must be
/// recomputed — pass a closure over your partitioner).
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
    let mut current = graph.clone();
    let mut epochs = Vec::with_capacity(batches.len() + 1);
    let build = |graph: &Graph| {
        CyclopsPlan::build_parallel_with_threshold(
            graph,
            &partition_fn(graph),
            config.replicate_threshold,
        )
    };
    let plan = build(&current);
    epochs.push(run_cyclops_with_plan(
        program, &current, &plan, config, None,
    ));

    for (batch, policy) in batches {
        let prev: &CyclopsResult<P::Value, P::Message> = epochs.last().unwrap();
        let next_graph = apply_mutations(&current, batch);
        let plan = build(&next_graph);
        let result = match policy {
            WarmStart::Cold => run_cyclops_with_plan(program, &next_graph, &plan, config, None),
            WarmStart::Incremental => {
                // Build a synthetic checkpoint: carried state for old
                // vertices, activation for the disturbance front. Vertices
                // the batch added are chained in with the program's own
                // `init` / `init_message` state and `initially_active`
                // flag — a resume starts every master the checkpoint does
                // not cover *inactive*, which would strand a new vertex the
                // program expects to start active.
                let mut active = vec![false; current.num_vertices()];
                for v in batch.disturbed() {
                    if (v as usize) < active.len() {
                        active[v as usize] = true;
                    }
                }
                let vertices = (0..current.num_vertices() as VertexId)
                    .map(|v| {
                        (
                            v,
                            prev.values[v as usize].clone(),
                            prev.publications[v as usize].clone(),
                            active[v as usize],
                        )
                    })
                    .chain(
                        (current.num_vertices() as VertexId..next_graph.num_vertices() as VertexId)
                            .map(|v| {
                                let value = program.init(v, &next_graph);
                                let publication = program.init_message(v, &next_graph, &value);
                                let act = program.initially_active(v, &next_graph);
                                (v, value, publication, act)
                            }),
                    )
                    .collect();
                let cp = CyclopsCheckpoint {
                    superstep: 0,
                    vertices,
                    aggregate: None,
                };
                run_cyclops_with_plan(program, &next_graph, &plan, config, Some(&cp))
            }
        };
        current = next_graph;
        epochs.push(result);
    }
    EvolvingResult {
        graph: current,
        epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_cyclops;
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

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as VertexId, (i + 1) as VertexId);
        }
        b.build()
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
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        let g = b.build();
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
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 0); // 0 pulls from 1 -> value 10
        let g = b.build();
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
