//! Runtime hot-vertex migration: profiler-driven dynamic load balancing.
//!
//! Static edge-cut partitions fix master placement at load time, so compute
//! skew the profiler observes can never be repaired mid-run. This module
//! closes the loop from observation to action: the engine accumulates
//! deterministic per-vertex cost counters into a
//! [`cyclops_partition::LoadLedger`] while it runs, the run is carved into
//! *epochs* at checkpoint boundaries (the engines' existing value-only
//! checkpoints, §3.6), and between epochs a
//! [`cyclops_partition::MigrationPlanner`] moves hot masters off the
//! straggler worker. The plan is **edited** at the boundary — only the
//! entries an edge of a moved vertex derives are made again, the rest are
//! translated — and the moved vertices' state crosses the simulated wire in
//! a dedicated
//! `MigrationBatch` framing so the transfer cost is accounted like any
//! other traffic.
//!
//! Two properties are load-bearing:
//!
//! * **Determinism** — every migration decision is a pure function of
//!   integer work-mass counters (never wall-clock), so the same inputs
//!   migrate the same vertices at every thread count, and algorithm
//!   results stay bitwise identical to a migration-off run.
//! * **Structural equality** — [`apply_migration`] must leave the plan
//!   exactly equal to a from-scratch
//!   [`CyclopsPlan::build_parallel_with_threshold`] for the new
//!   assignment; a proptest pins every field.

use crate::checkpoint::CyclopsCheckpoint;
use crate::engine::{run_cyclops_with_plan_traced, CyclopsConfig, CyclopsResult};
use crate::plan::{edit, CyclopsPlan};
use crate::program::CyclopsProgram;
use bytes::BytesMut;
use cyclops_graph::Graph;
use cyclops_net::codec::{
    encode_migration_batch, try_decode_migration_batch, Codec, MigrationRecord,
};
use cyclops_net::TraceSink;
use cyclops_partition::{
    compute_imbalance, EdgeCutPartition, LoadLedger, MigrationBatch, MigrationConfig,
    MigrationPlanner,
};
use std::sync::Arc;

/// Applies a [`MigrationBatch`] to a plan in place, producing exactly the
/// plan a from-scratch build would produce for the post-move assignment.
///
/// The plan is edited, not re-wired: each mover is re-seated on its new
/// owner over the same graph (`plan::edit`, which also edits a plan across
/// a mutation batch). Every table entry derived from an edge with neither
/// endpoint moved is copied through a per-worker translation of the view
/// slot space, and only the movers' own rows and their entries in their
/// neighbours' rows are derived again. The cost is the movers' degrees plus
/// one pass over the tables of the workers the batch touches; a worker it
/// does not touch keeps its tables and has only its fan-out entries into
/// the others translated, in place. A move onto its own worker changes
/// nothing. Ingress timings keep the original build's values.
pub fn apply_migration(
    plan: &mut CyclopsPlan,
    graph: &Graph,
    batch: &MigrationBatch,
    threshold: u32,
) {
    let moves = batch.moves.iter().filter(|mv| mv.from != mv.to);
    let seats = moves.map(|mv| (mv.vertex, Some(mv.from), mv.to));
    edit::reseat(plan, graph, graph, seats, threshold);
    plan.recount();
}

/// What one migration epoch boundary did: sizes for observability and the
/// before/after compute-imbalance the decision was based on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MigrationEvent {
    /// Superstep of the epoch boundary.
    pub superstep: usize,
    /// Vertices moved (0 when the planner stood pat).
    pub moves: usize,
    /// Wire bytes of the `MigrationBatch` frame (0 when no moves).
    pub bytes: usize,
    /// Max/mean per-worker compute load before the move, from the ledger.
    pub imbalance_before: f64,
    /// The same ratio after re-attributing the ledger to the new owners.
    pub imbalance_after: f64,
}

/// Summary of a [`run_cyclops_migrated`] run's migration activity.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MigrationReport {
    /// Engine epochs executed (boundaries + 1).
    pub epochs: usize,
    /// Total vertices migrated.
    pub migrations_total: usize,
    /// Total wire bytes of migration batches.
    pub migrated_bytes: usize,
    /// One entry per epoch boundary, in superstep order.
    pub events: Vec<MigrationEvent>,
}

impl MigrationReport {
    /// Imbalance before the first move and after the last, when any
    /// boundary moved vertices.
    pub fn imbalance_span(&self) -> Option<(f64, f64)> {
        let moved: Vec<&MigrationEvent> = self.events.iter().filter(|e| e.moves > 0).collect();
        Some((
            moved.first()?.imbalance_before,
            moved.last()?.imbalance_after,
        ))
    }
}

/// [`run_cyclops_migrated_traced`] without a trace sink.
pub fn run_cyclops_migrated<P: CyclopsProgram>(
    program: &P,
    graph: &Graph,
    partition: &EdgeCutPartition,
    config: &CyclopsConfig,
    every: usize,
    migration: MigrationConfig,
) -> (CyclopsResult<P::Value, P::Message>, MigrationReport) {
    run_cyclops_migrated_traced(program, graph, partition, config, every, migration, None)
}

/// Runs `program` with dynamic vertex migration every `every` supersteps:
/// the run is carved into epochs by stop-at-checkpoint boundaries, and at
/// each boundary the planner may move hot masters off the most loaded
/// worker before the run resumes warm from the checkpoint.
///
/// Results are bitwise identical to a plain run: the checkpoint carries
/// every master's value, publication, and activation across the boundary,
/// and moved vertices' state additionally round-trips through the
/// `MigrationBatch` wire framing (honest byte accounting — the decoded
/// records, not the originals, patch the resume state).
///
/// Restrictions: `config.checkpoint_every` / `stop_at_checkpoint` /
/// `load_ledger` are driver-owned (any caller-set values are overridden),
/// and programs with a global aggregate should not use migration — the
/// per-worker float reduction grouping changes with ownership.
pub fn run_cyclops_migrated_traced<P: CyclopsProgram>(
    program: &P,
    graph: &Graph,
    partition: &EdgeCutPartition,
    config: &CyclopsConfig,
    every: usize,
    migration: MigrationConfig,
    trace: Option<&TraceSink>,
) -> (CyclopsResult<P::Value, P::Message>, MigrationReport) {
    assert!(every > 0, "migration epoch length must be positive");
    let mut plan =
        CyclopsPlan::build_parallel_with_threshold(graph, partition, config.replicate_threshold);
    let ledger = Arc::new(LoadLedger::new(graph.num_vertices()));
    let mut cfg = config.clone();
    cfg.checkpoint_every = Some(every);
    cfg.stop_at_checkpoint = true;
    cfg.load_ledger = Some(ledger.clone());
    let num_workers = cfg.cluster.num_workers();
    let planner = MigrationPlanner::new(migration);

    let mut report = MigrationReport {
        epochs: 1,
        ..MigrationReport::default()
    };
    let mut merged = run_cyclops_with_plan_traced(program, graph, &plan, &cfg, None, trace);
    while let Some(mut cp) = take_boundary(&mut merged) {
        // Plan the boundary from the deterministic counters.
        let totals = ledger.worker_totals(&plan.owner, num_workers);
        let imbalance_before = compute_imbalance(&totals);
        let batch = planner.plan(&ledger, &plan.owner, num_workers);
        let mut event = MigrationEvent {
            superstep: cp.superstep,
            moves: batch.len(),
            bytes: 0,
            imbalance_before,
            imbalance_after: imbalance_before,
        };
        if !batch.is_empty() {
            event.bytes = ship_moved_state(&mut cp, &batch);
            apply_migration(&mut plan, graph, &batch, cfg.replicate_threshold);
            event.imbalance_after =
                compute_imbalance(&ledger.worker_totals(&plan.owner, num_workers));
            if let Some(sink) = trace {
                for mv in &batch.moves {
                    sink.worker(mv.to as usize).add_migrated(1);
                }
            }
            report.migrations_total += batch.len();
            report.migrated_bytes += event.bytes;
        }
        report.events.push(event);
        ledger.reset();
        let epoch = run_cyclops_with_plan_traced(program, graph, &plan, &cfg, Some(&cp), trace);
        report.epochs += 1;
        merged.stats.extend(epoch.stats);
        merged.counters = merged.counters.merge(&epoch.counters);
        merged.direct_messages += epoch.direct_messages;
        merged.elapsed += epoch.elapsed;
        merged.barrier_protocol_messages += epoch.barrier_protocol_messages;
        merged.values = epoch.values;
        merged.publications = epoch.publications;
        merged.supersteps = epoch.supersteps;
        merged.replication_factor = epoch.replication_factor;
        merged.checkpoints = epoch.checkpoints;
    }
    (merged, report)
}

/// The checkpoint an epoch stopped at, taken out of its result. A run
/// stopped at a checkpoint exactly when its last checkpoint sits at the
/// final superstep; a natural finish is always strictly past its last
/// capture.
fn take_boundary<V, M>(result: &mut CyclopsResult<V, M>) -> Option<CyclopsCheckpoint<V, M>> {
    let stopped = result
        .checkpoints
        .last()
        .is_some_and(|cp| cp.superstep == result.supersteps);
    stopped.then(|| result.checkpoints.pop()).flatten()
}

/// Ships the moved masters' values, activation bits and publications over
/// the wire and returns the frame's bytes. The decoded records, not the
/// originals, patch the checkpoint, so the resume consumes what crossed the
/// network: they come back in the order the checkpoint was scanned, so one
/// pass pairs them with the entries they left. A release build that meets
/// a frame that does not decode patches nothing, leaving the state it was
/// encoded from; a debug build fails on it.
fn ship_moved_state<V: Codec + Clone, M: Codec + Clone>(
    cp: &mut CyclopsCheckpoint<V, M>,
    batch: &MigrationBatch,
) -> usize {
    let mut moves = batch.moves.clone();
    moves.sort_unstable_by_key(|mv| mv.vertex);
    let mut records = Vec::with_capacity(moves.len());
    let mut entries = Vec::with_capacity(moves.len());
    for (ci, (v, value, publication, active)) in cp.vertices.iter().enumerate() {
        if let Ok(i) = moves.binary_search_by_key(v, |mv| mv.vertex) {
            entries.push(ci);
            records.push(MigrationRecord {
                vertex: *v,
                from: moves[i].from,
                to: moves[i].to,
                active: *active,
                publication: publication.clone(),
                value: value.clone(),
            });
        }
    }
    let mut buf = BytesMut::new();
    encode_migration_batch(&mut buf, &records);
    let decoded = try_decode_migration_batch::<V, M>(&mut &buf[..]);
    debug_assert!(
        decoded.as_ref().is_some_and(|d| d.len() == entries.len()),
        "a migration batch decodes to one record per moved entry"
    );
    for (rec, &ci) in decoded.into_iter().flatten().zip(&entries) {
        let entry = &mut cp.vertices[ci];
        debug_assert_eq!(entry.0, rec.vertex, "records come back in scan order");
        if entry.0 == rec.vertex {
            (entry.1, entry.2, entry.3) = (rec.value, rec.publication, rec.active);
        }
    }
    buf.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_cyclops;
    use crate::plan::tests::assert_plans_equal;
    use crate::program::{CyclopsContext, CyclopsProgram};
    use cyclops_graph::{GraphBuilder, VertexId};
    use cyclops_net::ClusterSpec;
    use cyclops_partition::{EdgeCutPartitioner, HashPartitioner, VertexMove};

    fn batch(moves: &[(VertexId, u32, u32)]) -> MigrationBatch {
        MigrationBatch {
            moves: moves
                .iter()
                .map(|&(vertex, from, to)| VertexMove {
                    vertex,
                    from,
                    to,
                    cost: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn rewired_plan_matches_from_scratch_build() {
        use cyclops_graph::gen::{erdos_renyi, rmat, RmatConfig};
        let graphs = [
            erdos_renyi(120, 700, 11),
            rmat(
                RmatConfig {
                    scale: 7,
                    edges: 900,
                    ..Default::default()
                },
                3,
            ),
        ];
        for g in &graphs {
            let k = 4;
            let p = HashPartitioner.partition(g, k);
            for threshold in [0u32, 3, u32::MAX] {
                let mut plan = CyclopsPlan::build_parallel_with_threshold(g, &p, threshold);
                // Two rounds of moves, chained: the second applies on top of
                // an already-rewired plan.
                for round in 0..2 {
                    let wanted: Vec<(VertexId, u32, u32)> = if round == 0 {
                        vec![(5, plan.owner[5], (plan.owner[5] + 1) % k as u32)]
                    } else {
                        vec![(9, plan.owner[9], 0), (30, plan.owner[30], 2)]
                    };
                    let moves: Vec<(VertexId, u32, u32)> = wanted
                        .into_iter()
                        .filter(|&(_, from, to)| from != to)
                        .collect();
                    if moves.is_empty() {
                        continue;
                    }
                    let b = batch(&moves);
                    apply_migration(&mut plan, g, &b, threshold);
                    let fresh = CyclopsPlan::build_parallel_with_threshold(
                        g,
                        &EdgeCutPartition::new(k, plan.owner.clone()),
                        threshold,
                    );
                    assert_plans_equal(&plan, &fresh);
                }
            }
        }
    }

    #[test]
    fn untouched_workers_keep_their_tables_and_translate_only_mirrors() {
        // Vertex 0 (worker 0) and vertex 9 (worker 3) both reach into
        // worker 2, so 9's replica — or direct slot — there sits behind
        // 0's. Moving 0 onto worker 2 removes its entry and shifts 9's
        // index down; worker 3 neighbors no moved vertex, so it keeps every
        // table where it was and only its fan-out entry is translated.
        let mut b = GraphBuilder::new(10);
        b.add_edge(0, 6);
        b.add_edge(9, 5);
        let g = b.build();
        let p = EdgeCutPartition::new(4, vec![0, 0, 1, 1, 1, 2, 2, 2, 3, 3]);
        for threshold in [0u32, u32::MAX] {
            let mut plan = CyclopsPlan::build_parallel_with_threshold(&g, &p, threshold);
            let w3 = &plan.workers[3];
            let kept = [
                w3.masters.as_ptr() as usize,
                w3.in_refs.as_ptr() as usize,
                w3.local_out_offsets.as_ptr() as usize,
                w3.mirror_offsets.as_ptr() as usize,
                w3.mirrors.as_ptr() as usize,
                w3.work_mass.as_ptr() as usize,
            ];
            let before = w3.mirrors.clone();
            apply_migration(&mut plan, &g, &batch(&[(0, 0, 2)]), threshold);
            let fresh = CyclopsPlan::build_parallel_with_threshold(
                &g,
                &EdgeCutPartition::new(4, plan.owner.clone()),
                threshold,
            );
            assert_plans_equal(&plan, &fresh);
            let w3 = &plan.workers[3];
            let now = [
                w3.masters.as_ptr() as usize,
                w3.in_refs.as_ptr() as usize,
                w3.local_out_offsets.as_ptr() as usize,
                w3.mirror_offsets.as_ptr() as usize,
                w3.mirrors.as_ptr() as usize,
                w3.work_mass.as_ptr() as usize,
            ];
            assert_eq!(now, kept, "threshold {threshold}: tables stay in place");
            assert_ne!(
                before, w3.mirrors,
                "threshold {threshold}: index must shift"
            );
        }
    }

    /// Pull-mode max propagation: integer-valued, aggregate-free, runs for
    /// about `diameter` supersteps — plenty of epoch boundaries to migrate
    /// across.
    struct MaxPull;
    impl CyclopsProgram for MaxPull {
        type Value = u32;
        type Message = u32;
        fn init(&self, v: VertexId, g: &Graph) -> u32 {
            // Decreasing along vertex ids, so on a path 0 -> 1 -> ... the
            // head's value sweeps forward one vertex per superstep.
            (g.num_vertices() as u32 - v) * 10
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

    fn long_path(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as VertexId, (i + 1) as VertexId);
        }
        b.build()
    }

    /// A deliberately unbalanced assignment: the first `1/k` of the
    /// vertices spread round-robin, the rest all on worker 0.
    fn skewed_partition(n: usize, k: usize) -> EdgeCutPartition {
        let assignment = (0..n)
            .map(|v| if v < n / k { (v % k) as u32 } else { 0 })
            .collect();
        EdgeCutPartition::new(k, assignment)
    }

    #[test]
    fn migrated_run_matches_plain_run_bitwise() {
        let g = long_path(96);
        let partition = skewed_partition(96, 3);
        for cluster in [ClusterSpec::flat(3, 1), ClusterSpec::mt(3, 2, 1)] {
            let config = CyclopsConfig {
                cluster,
                ..Default::default()
            };
            let plain = run_cyclops(&MaxPull, &g, &partition, &config);
            let (migrated, report) = run_cyclops_migrated(
                &MaxPull,
                &g,
                &partition,
                &config,
                8,
                MigrationConfig::default(),
            );
            assert!(
                report.migrations_total > 0,
                "the skewed assignment must trigger migration"
            );
            assert!(report.migrated_bytes > 0);
            assert!(report.epochs > 1);
            assert_eq!(migrated.values, plain.values);
            assert_eq!(migrated.publications, plain.publications);
            assert_eq!(migrated.supersteps, plain.supersteps);
            assert!(migrated.checkpoints.is_empty());
            // Epoch stats concatenate contiguously over the supersteps.
            for (i, s) in migrated.stats.iter().enumerate() {
                assert_eq!(s.superstep, i);
            }
            assert_eq!(migrated.stats.len(), plain.stats.len());
            // The planner should have actually improved the measured skew.
            let (before, after) = report.imbalance_span().unwrap();
            assert!(
                after < before,
                "imbalance must drop: before {before}, after {after}"
            );
        }
    }

    #[test]
    fn balanced_run_migrates_nothing_and_still_matches() {
        let g = long_path(40);
        let partition = HashPartitioner.partition(&g, 4);
        let config = CyclopsConfig {
            cluster: ClusterSpec::flat(4, 1),
            ..Default::default()
        };
        let plain = run_cyclops(&MaxPull, &g, &partition, &config);
        let (migrated, report) = run_cyclops_migrated(
            &MaxPull,
            &g,
            &partition,
            &config,
            16,
            MigrationConfig::default(),
        );
        assert_eq!(report.migrations_total, 0);
        assert_eq!(migrated.values, plain.values);
        assert_eq!(migrated.supersteps, plain.supersteps);
    }
}
