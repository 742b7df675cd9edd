//! Graph ingress: building the distributed immutable view (§4.3).
//!
//! Beyond Hama's ingress, Cyclops adds its own phase that creates replicas
//! and wires up in-edges and local out-edges: every vertex conceptually
//! sends a message along its out-edges, and the receiving worker creates a
//! replica for the sender if one doesn't exist (§4.3).
//! [`CyclopsPlan::build_parallel_with_threshold`] performs the same
//! construction and times its three phases — graph loading (LD), vertex
//! replication (REP), and vertex initialization (INIT) — which Figure 13(1)
//! reports. The wiring itself is the linear-time routine in `plan::wire`. A
//! built plan is edited rather than built again: `plan::edit` re-seats the
//! vertices a migration batch moves ([`crate::migrate::apply_migration`])
//! or a mutation batch disturbs ([`crate::mutation::run_cyclops_evolving`]).
//! [`CyclopsPlan::build_with_threshold`] is the serial reference
//! construction tests compare both against.

use cyclops_graph::{Graph, VertexId};
use cyclops_obs::mem::{Component, MemScope};
use cyclops_partition::EdgeCutPartition;
use std::time::{Duration, Instant};

pub(crate) mod edit;
mod reference;
pub(crate) mod wire;

/// Which range of a worker's view slot space a slot index falls in, with the
/// index local to that range — what [`WorkerPlan::slot_kind`] decodes an
/// in-edge reference to. The engine never needs this: it reads the slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotKind {
    /// A master on the same worker (local index).
    Master(u32),
    /// A read-only replica on this worker (replica index).
    Replica(u32),
    /// A direct-message slot: the publication of a cold boundary vertex with
    /// no replica here arrives per edge (hybrid replication).
    Direct(u32),
}

/// One worker's slice of the distributed immutable view.
#[derive(Clone, Debug, Default)]
pub struct WorkerPlan {
    /// Global ids of the masters this worker owns, ascending.
    pub masters: Vec<VertexId>,
    /// Global ids of the replicas this worker holds, ascending. Replica `i`
    /// of this worker is the read-only copy of vertex `replicas[i]`.
    pub replicas: Vec<VertexId>,

    /// CSR offsets into `in_refs` / `in_weights`, one entry per master + 1.
    pub in_ref_offsets: Vec<u32>,
    /// Resolved in-edge references per master, in the graph's in-edge order:
    /// each is an index into the worker's one view slot space
    /// `[masters 0..nm | replicas nm..nm+nr | direct slots nm+nr..]`, so a
    /// neighbour read is one load whatever kind of neighbour it is.
    pub in_refs: Vec<u32>,
    /// In-edge weights aligned with `in_refs`; empty for unweighted graphs.
    pub in_weights: Vec<f64>,

    /// CSR offsets into `local_out`, one per master + 1: the out-neighbors
    /// of each master that live on this worker (activated directly).
    pub local_out_offsets: Vec<u32>,
    /// Local master indices of same-worker out-neighbors.
    pub local_out: Vec<u32>,

    /// CSR offsets into `mirrors`, one per master + 1.
    pub mirror_offsets: Vec<u32>,
    /// Every master's remote fan-out — the unidirectional sync of §3.4 — as
    /// `(worker, remote slot)`, a remote slot being the destination worker's
    /// view slot minus its master count. A replicated (hot) master has one
    /// entry per worker holding a replica of it, ascending by worker, naming
    /// the replica index there; a messaged (cold) one has one entry per
    /// cross-worker out-edge, in edge order, naming `replicas.len() + slot`
    /// of the direct slot that edge feeds. A master is one or the other.
    pub mirrors: Vec<(u32, u32)>,

    /// CSR offsets into `rep_out`, one per replica + 1: the local
    /// out-neighbors each replica activates on this worker (the paper's
    /// "L-Out" edges of a replica, Figure 6).
    pub rep_out_offsets: Vec<u32>,
    /// Local master indices activated by each replica.
    pub rep_out: Vec<u32>,

    /// Global id of the source vertex feeding each direct-message slot
    /// (hybrid replication; one slot per cross-worker in-edge from a cold
    /// boundary vertex). Used to seed the slots at INIT and after a
    /// checkpoint resume, exactly like replica seeding.
    pub direct_source: Vec<VertexId>,
    /// Local master index each direct slot's activation targets.
    pub direct_target: Vec<u32>,

    /// Per-master compute cost estimate for degree-weighted scheduling:
    /// in-degree + local activation fan-out + remote fan-out + 1 (the
    /// publication itself). Derived from the CSRs above once at plan build.
    pub work_mass: Vec<u32>,
}

impl WorkerPlan {
    /// Number of masters on this worker.
    pub fn num_masters(&self) -> usize {
        self.masters.len()
    }

    /// Number of replicas on this worker.
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Range of `in_refs` indices belonging to master `local`.
    #[inline]
    pub fn in_ref_range(&self, local: usize) -> (usize, usize) {
        (
            self.in_ref_offsets[local] as usize,
            self.in_ref_offsets[local + 1] as usize,
        )
    }

    /// In-edge weights of master `local` (empty slice when unweighted).
    #[inline]
    pub fn in_weights(&self, local: usize) -> &[f64] {
        if self.in_weights.is_empty() {
            &[]
        } else {
            let (s, e) = self.in_ref_range(local);
            &self.in_weights[s..e]
        }
    }

    /// Same-worker out-neighbors (local master indices) of master `local`.
    #[inline]
    pub fn local_out(&self, local: usize) -> &[u32] {
        &self.local_out
            [self.local_out_offsets[local] as usize..self.local_out_offsets[local + 1] as usize]
    }

    /// Remote fan-out of master `local` as `(worker, remote slot)`.
    #[inline]
    pub fn mirrors(&self, local: usize) -> &[(u32, u32)] {
        &self.mirrors[self.mirror_offsets[local] as usize..self.mirror_offsets[local + 1] as usize]
    }

    /// Local out-neighbors activated by replica `rep`.
    #[inline]
    pub fn rep_out(&self, rep: usize) -> &[u32] {
        &self.rep_out[self.rep_out_offsets[rep] as usize..self.rep_out_offsets[rep + 1] as usize]
    }

    /// The local masters that read view slot `slot`, i.e. whom a write to it
    /// wakes: a master slot's same-worker out-neighbors, a replica slot's
    /// local out-neighbors, a direct slot's one target. Over all slots these
    /// lists are the inverse of `in_refs` — `(slot, li)` is here exactly when
    /// master `li` has an in-edge reference to `slot` (once per pair: runs of
    /// parallel edges collapse, waking being idempotent) — which is what lets
    /// [`Frontier::fill_from`](crate::Frontier::fill_from) find the same
    /// masters from the reading side.
    #[inline]
    pub fn readers(&self, slot: usize) -> &[u32] {
        match slot.checked_sub(self.replica_base()) {
            None => self.local_out(slot),
            Some(id) => match id.checked_sub(self.num_replicas()) {
                None => self.rep_out(id),
                Some(direct) => std::slice::from_ref(&self.direct_target[direct]),
            },
        }
    }

    /// Number of direct-message slots on this worker.
    #[inline]
    pub fn num_direct_slots(&self) -> usize {
        self.direct_source.len()
    }

    /// First view slot of the replica range (the master range starts at 0).
    #[inline]
    pub fn replica_base(&self) -> usize {
        self.masters.len()
    }

    /// First view slot of the direct-slot range.
    #[inline]
    pub fn direct_base(&self) -> usize {
        self.masters.len() + self.replicas.len()
    }

    /// Size of this worker's view slot space: masters, then replicas, then
    /// direct slots.
    #[inline]
    pub fn num_view_slots(&self) -> usize {
        self.direct_base() + self.num_direct_slots()
    }

    /// The range view slot `slot` falls in, and its index there.
    pub fn slot_kind(&self, slot: u32) -> SlotKind {
        let (replicas, direct) = (self.replica_base() as u32, self.direct_base() as u32);
        debug_assert!((slot as usize) < self.num_view_slots());
        if slot < replicas {
            SlotKind::Master(slot)
        } else if slot < direct {
            SlotKind::Replica(slot - replicas)
        } else {
            SlotKind::Direct(slot - direct)
        }
    }

    /// Exact heap bytes of this worker's slice of the immutable view, from
    /// vector capacities (see [`MemoryBreakdown`]).
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        MemoryBreakdown {
            plan: vec_bytes(&self.masters)
                + vec_bytes(&self.in_ref_offsets)
                + vec_bytes(&self.in_refs)
                + vec_bytes(&self.in_weights)
                + vec_bytes(&self.local_out_offsets)
                + vec_bytes(&self.local_out)
                + vec_bytes(&self.work_mass),
            replicas: vec_bytes(&self.replicas)
                + vec_bytes(&self.mirror_offsets)
                + vec_bytes(&self.mirrors)
                + vec_bytes(&self.rep_out_offsets)
                + vec_bytes(&self.rep_out),
            direct_slots: vec_bytes(&self.direct_source) + vec_bytes(&self.direct_target),
        }
    }
}

/// Timing and size statistics of the ingress, for Figure 13(1) and Table 2.
#[derive(Clone, Copy, Debug, Default)]
pub struct IngressStats {
    /// Graph loading: distributing vertices to workers (LD).
    pub load: Duration,
    /// Vertex replication: creating replicas and wiring edges (REP).
    pub replicate: Duration,
    /// Vertex initialization (INIT) — timed by the engine, which owns the
    /// value arrays; the plan leaves it zero.
    pub init: Duration,
    /// Total replicas created across all workers.
    pub total_replicas: usize,
    /// Boundary vertices that kept their replicas (combined degree at or
    /// above the replication threshold). Equals the boundary-vertex count
    /// at threshold 0.
    pub replicated_boundary: usize,
    /// Boundary vertices below the threshold, rewired to direct messages.
    pub messaged_boundary: usize,
    /// Total direct-message slots across all workers (one per cross-worker
    /// in-edge from a cold boundary vertex).
    pub total_direct_slots: usize,
}

impl IngressStats {
    /// LD + REP + INIT.
    pub fn total(&self) -> Duration {
        self.load + self.replicate + self.init
    }
}

/// Exact byte counts of a plan's heap storage, split by memory
/// [`Component`] — the static half of the memory ledger. Computed from
/// vector capacities; every plan vector is allocated once, at its final
/// length, under its component's scope, so on an armed run it equals the
/// tracking allocator's `Plan`/`Replicas`/`DirectSlots` live bytes
/// *exactly* (tests pin that equality) and carries no growth slack.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Master lists, in-edge CSRs, local activation fan-out, work-mass
    /// tables, and the plan-level lookup tables.
    pub plan: usize,
    /// Replica id lists, replica activation CSRs, and the sender table
    /// (`mirrors`) — every boundary master's remote fan-out, the cold ones'
    /// per-edge entries included.
    pub replicas: usize,
    /// Direct-slot source/target tables — the receiving-side storage that
    /// exists because cold boundary vertices are messaged.
    pub direct_slots: usize,
}

impl MemoryBreakdown {
    /// All components summed.
    pub fn total(&self) -> usize {
        self.plan + self.replicas + self.direct_slots
    }

    /// Component-wise accumulation.
    pub fn merge(&mut self, other: &MemoryBreakdown) {
        self.plan += other.plan;
        self.replicas += other.replicas;
        self.direct_slots += other.direct_slots;
    }
}

/// Allocated bytes behind a vector: capacity, not length — what the
/// allocator actually handed out.
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// The full ingress product: one [`WorkerPlan`] per worker plus global
/// lookup tables.
#[derive(Clone, Debug)]
pub struct CyclopsPlan {
    /// Per-worker views.
    pub workers: Vec<WorkerPlan>,
    /// `owner[v]` — the worker owning vertex `v`'s master.
    pub owner: Vec<u32>,
    /// `local_of[v]` — `v`'s master index on its owner.
    pub local_of: Vec<u32>,
    /// Ingress phase timings and replica counts.
    pub ingress: IngressStats,
}

impl CyclopsPlan {
    /// [`Self::build_parallel_with_threshold`] at full replication.
    pub fn build_parallel(graph: &Graph, partition: &EdgeCutPartition) -> CyclopsPlan {
        Self::build_parallel_with_threshold(graph, partition, 0)
    }

    /// Builds the distributed immutable view: every simulated worker wires
    /// its own tables (the paper's ingress "generates in-memory data
    /// structures by all workers in parallel", §6.7) in two phases with a
    /// barrier between — what each worker receives through, then what it
    /// sends through, which points into the other workers' first phase. See
    /// `plan::wire` for the routine and its cost.
    ///
    /// `threshold` is the degree threshold of hybrid replication: boundary
    /// vertices with combined degree below it get no replicas — their
    /// cross-worker edges are rewired to the direct-message tables. `0` is
    /// full replication.
    pub fn build_parallel_with_threshold(
        graph: &Graph,
        partition: &EdgeCutPartition,
        threshold: u32,
    ) -> CyclopsPlan {
        let k = partition.num_parts;
        let n = graph.num_vertices();
        assert_eq!(partition.assignment.len(), n);

        // ---- LD: distribute masters (serial: a cheap counting pass). ----
        let ld_start = Instant::now();
        let (owner, mut local_of, mut workers) = {
            let _scope = MemScope::enter(Component::Plan);
            (
                partition.assignment.clone(),
                vec![0u32; n],
                vec![WorkerPlan::default(); k],
            )
        };
        wire::load_masters(&owner, &mut local_of, &mut workers);
        let load = ld_start.elapsed();

        // ---- REP: create replicas and wire edges. ----
        let rep_start = Instant::now();
        let inbound = wire::par_workers(workers.iter_mut(), |w, wp| {
            wire::wire_inbound(graph, &owner, &local_of, threshold, k, w, wp)
        });
        wire::par_workers(workers.iter_mut(), |w, wp| {
            wire::wire_outbound(graph, &owner, &local_of, threshold, w, wp, &inbound)
        });
        drop(inbound);
        let replicate = rep_start.elapsed();

        let mut plan = CyclopsPlan {
            workers,
            owner,
            local_of,
            ingress: IngressStats {
                load,
                replicate,
                ..IngressStats::default()
            },
        };
        plan.recount();
        plan
    }

    /// Whether the fan-out entry `(worker, remote slot)` names a direct slot
    /// of that worker rather than a replica. All of a master's entries are of
    /// one kind (it is hot or cold), so its first one tells for the list.
    #[inline]
    pub fn names_direct_slot(&self, (worker, slot): (u32, u32)) -> bool {
        slot as usize >= self.workers[worker as usize].num_replicas()
    }

    /// Re-derives the size statistics of [`IngressStats`] from the tables:
    /// a boundary vertex is a master with remote fan-out, replicated if its
    /// entries name replicas and messaged if they name direct slots.
    pub(crate) fn recount(&mut self) {
        let (mut replicated, mut messaged) = (0, 0);
        for w in &self.workers {
            for li in 0..w.num_masters() {
                match w.mirrors(li).first() {
                    Some(&first) if self.names_direct_slot(first) => messaged += 1,
                    Some(_) => replicated += 1,
                    None => {}
                }
            }
        }
        let stats = &mut self.ingress;
        stats.total_replicas = self.workers.iter().map(|w| w.replicas.len()).sum();
        stats.total_direct_slots = self.workers.iter().map(|w| w.num_direct_slots()).sum();
        stats.replicated_boundary = replicated;
        stats.messaged_boundary = messaged;
    }

    /// Average number of replicas per vertex — must equal
    /// [`EdgeCutPartition::replication_factor`] at threshold 0, and
    /// [`EdgeCutPartition::replication_factor_at_threshold`] in general.
    pub fn replication_factor(&self, graph: &Graph) -> f64 {
        if graph.num_vertices() == 0 {
            return 0.0;
        }
        self.ingress.total_replicas as f64 / graph.num_vertices() as f64
    }

    /// Bytes of replica publication storage, given the per-publication size
    /// — the memory overhead Table 2 examines.
    pub fn replica_bytes(&self, per_message: usize) -> usize {
        self.ingress.total_replicas * per_message
    }

    /// Exact static audit of the plan's heap bytes, split by memory
    /// component and computed purely from vector capacities — the ledger
    /// `tests/mem_observability.rs` cross-checks against the tracking
    /// allocator's live counters.
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        let mut b = MemoryBreakdown {
            plan: vec_bytes(&self.owner)
                + vec_bytes(&self.local_of)
                + self.workers.capacity() * std::mem::size_of::<WorkerPlan>(),
            replicas: 0,
            direct_slots: 0,
        };
        for w in &self.workers {
            b.merge(&w.memory_breakdown());
        }
        b
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cyclops_graph::GraphBuilder;
    use cyclops_partition::{EdgeCutPartitioner, HashPartitioner};

    /// The paper's Figure 6 sample graph: six vertices on three workers.
    /// Edges (1-indexed in the figure; 0-indexed here).
    fn figure6() -> (Graph, EdgeCutPartition) {
        let mut b = GraphBuilder::new(6);
        // From the figure: 1->2, 2->1, 1->4(? via cut), 3->2, 3->4, 4->3,
        // 1->3, 6->3, 5->6, 6->5, 4->5, 5->2. We reproduce the cut
        // structure, not the exact figure edges: workers {0,1}, {2,3}, {4,5}.
        for &(s, t) in &[
            (0, 1),
            (1, 0),
            (0, 2),
            (2, 1),
            (2, 3),
            (3, 2),
            (5, 2),
            (4, 5),
            (5, 4),
            (3, 4),
        ] {
            b.add_edge(s, t);
        }
        let g = b.build();
        let p = EdgeCutPartition::new(3, vec![0, 0, 1, 1, 2, 2]);
        (g, p)
    }

    /// Asserts two plans are field-identical, memory ledger included — the
    /// contract between the production wiring, the reference builder and
    /// `apply_migration`.
    pub(crate) fn assert_plans_equal(a: &CyclopsPlan, b: &CyclopsPlan) {
        assert_eq!(a.owner, b.owner);
        assert_eq!(a.local_of, b.local_of);
        assert_eq!(a.ingress.total_replicas, b.ingress.total_replicas);
        assert_eq!(a.ingress.replicated_boundary, b.ingress.replicated_boundary);
        assert_eq!(a.ingress.messaged_boundary, b.ingress.messaged_boundary);
        assert_eq!(a.ingress.total_direct_slots, b.ingress.total_direct_slots);
        assert_eq!(a.workers.len(), b.workers.len());
        for (x, y) in a.workers.iter().zip(&b.workers) {
            assert_eq!(x.masters, y.masters);
            assert_eq!(x.replicas, y.replicas);
            assert_eq!(x.in_ref_offsets, y.in_ref_offsets);
            assert_eq!(x.in_refs, y.in_refs);
            assert_eq!(x.in_weights, y.in_weights);
            assert_eq!(x.local_out_offsets, y.local_out_offsets);
            assert_eq!(x.local_out, y.local_out);
            assert_eq!(x.mirror_offsets, y.mirror_offsets);
            assert_eq!(x.mirrors, y.mirrors);
            assert_eq!(x.rep_out_offsets, y.rep_out_offsets);
            assert_eq!(x.rep_out, y.rep_out);
            assert_eq!(x.direct_source, y.direct_source);
            assert_eq!(x.direct_target, y.direct_target);
            assert_eq!(x.work_mass, y.work_mass);
        }
        assert_eq!(a.memory_breakdown(), b.memory_breakdown());
    }

    /// Master `local`'s in-edge references, decoded range by range.
    fn in_ref_kinds(wp: &WorkerPlan, local: usize) -> Vec<SlotKind> {
        let (s, e) = wp.in_ref_range(local);
        wp.in_refs[s..e].iter().map(|&r| wp.slot_kind(r)).collect()
    }

    /// The plan as run paths build it, once it equals the reference
    /// construction — so every fixture below pins both builders.
    fn build(g: &Graph, p: &EdgeCutPartition, threshold: u32) -> CyclopsPlan {
        let plan = CyclopsPlan::build_parallel_with_threshold(g, p, threshold);
        assert_plans_equal(&plan, &CyclopsPlan::build_with_threshold(g, p, threshold));
        plan
    }

    #[test]
    fn masters_partitioned_by_owner() {
        let (g, p) = figure6();
        let plan = build(&g, &p, 0);
        assert_eq!(plan.workers[0].masters, vec![0, 1]);
        assert_eq!(plan.workers[1].masters, vec![2, 3]);
        assert_eq!(plan.workers[2].masters, vec![4, 5]);
    }

    #[test]
    fn replicas_cover_cross_worker_out_edges() {
        let (g, p) = figure6();
        let plan = build(&g, &p, 0);
        // Worker 1 receives edges 0->2 and 5->2: replicas {0, 5}.
        assert_eq!(plan.workers[1].replicas, vec![0, 5]);
        // Worker 0 receives 2->1: replica {2}.
        assert_eq!(plan.workers[0].replicas, vec![2]);
        // Worker 2 receives 3->4: replica {3}.
        assert_eq!(plan.workers[2].replicas, vec![3]);
        assert_eq!(plan.ingress.total_replicas, 4);
    }

    #[test]
    fn replication_factor_matches_partition_metric() {
        let (g, p) = figure6();
        let plan = build(&g, &p, 0);
        assert!((plan.replication_factor(&g) - p.replication_factor(&g)).abs() < 1e-12);
    }

    #[test]
    fn in_refs_resolve_master_vs_replica() {
        let (g, p) = figure6();
        let plan = build(&g, &p, 0);
        // Vertex 2 (worker 1, local 0) has in-edges from 0 (replica slot 0),
        // 3 (master local 1) and 5 (replica slot 1); vertex 3 (worker 1,
        // local 1) from 2 (master local 0).
        let w1 = &plan.workers[1];
        assert_eq!(
            in_ref_kinds(w1, 0),
            vec![
                SlotKind::Replica(0),
                SlotKind::Master(1),
                SlotKind::Replica(1)
            ]
        );
        assert_eq!(in_ref_kinds(w1, 1), vec![SlotKind::Master(0)]);
        // One slot space: two masters, then the two replicas.
        let (s, e) = w1.in_ref_range(0);
        assert_eq!(w1.in_refs[s..e], [2, 1, 3]);
    }

    #[test]
    fn mirrors_point_to_correct_replica_slots() {
        let (g, p) = figure6();
        let plan = build(&g, &p, 0);
        // Master 0 (worker 0) has a mirror on worker 1 at replica slot 0.
        let mirrors = plan.workers[0].mirrors(0);
        assert_eq!(mirrors, &[(1, 0)]);
        // Master 5 (worker 2, local 1) mirrors on worker 1 slot 1.
        let mirrors5 = plan.workers[2].mirrors(1);
        assert_eq!(mirrors5, &[(1, 1)]);
    }

    #[test]
    fn replica_fanout_activates_local_neighbors() {
        let (g, p) = figure6();
        let plan = build(&g, &p, 0);
        // Replica of 0 on worker 1: out-edge 0->2 is local there; activates
        // master index of 2 (local 0).
        let w1 = &plan.workers[1];
        assert_eq!(w1.rep_out(0), &[0]);
        // Replica of 5 on worker 1: edge 5->2 activates local 0 too.
        assert_eq!(w1.rep_out(1), &[0]);
    }

    #[test]
    fn local_out_contains_same_worker_neighbors_only() {
        let (g, p) = figure6();
        let plan = build(&g, &p, 0);
        // Vertex 0 (worker 0): out 1 (local), 2 (remote). Local out = [1].
        assert_eq!(plan.workers[0].local_out(0), &[1]);
    }

    #[test]
    fn weighted_in_refs_align() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 2, 5.0);
        b.add_weighted_edge(1, 2, 7.0);
        let g = b.build();
        let p = EdgeCutPartition::new(2, vec![0, 1, 1]);
        let plan = build(&g, &p, 0);
        // Vertex 2 on worker 1, local index 1 (masters [1, 2]).
        let w1 = &plan.workers[1];
        assert_eq!(w1.masters, vec![1, 2]);
        let weights = w1.in_weights(1);
        assert_eq!(weights, &[5.0, 7.0]);
        assert_eq!(
            in_ref_kinds(w1, 1),
            vec![SlotKind::Replica(0), SlotKind::Master(0)]
        );
    }

    #[test]
    fn single_worker_has_no_replicas() {
        let (g, _) = figure6();
        let p = HashPartitioner.partition(&g, 1);
        let plan = build(&g, &p, 0);
        assert_eq!(plan.ingress.total_replicas, 0);
        assert!(plan.workers[0].mirrors.is_empty());
    }

    #[test]
    fn parallel_build_matches_serial() {
        use cyclops_graph::gen::{erdos_renyi, rmat, RmatConfig};
        for (g, k) in [
            (figure6().0, 3usize),
            (erdos_renyi(300, 1800, 5), 4),
            (
                rmat(
                    RmatConfig {
                        scale: 9,
                        edges: 3000,
                        ..Default::default()
                    },
                    7,
                ),
                6,
            ),
        ] {
            let p = HashPartitioner.partition(&g, k);
            for threshold in [0u32, 2, 4, 8, u32::MAX] {
                build(&g, &p, threshold);
            }
        }
    }

    /// The quadratic guard: two hubs — one local to its 300 k leaves, one
    /// replicated onto their worker — make every per-vertex fan-out list
    /// 300 k long. Linear wiring takes a fraction of a second even
    /// unoptimized; deduplicating those lists by re-scanning them
    /// (4.5·10¹⁰ comparisons each, as the reference builder does) takes
    /// most of a minute optimized.
    #[test]
    fn hub_fanout_wires_in_linear_time() {
        let leaves = 300_000u32;
        let mut b = GraphBuilder::new(leaves as usize + 2);
        for leaf in 2..leaves + 2 {
            b.add_edge(0, leaf);
            b.add_edge(1, leaf);
            b.add_edge(leaf, 0);
        }
        let g = b.build();
        let mut assignment = vec![0u32; g.num_vertices()];
        assignment[1] = 1;
        let p = EdgeCutPartition::new(2, assignment);
        for threshold in [0, u32::MAX] {
            let start = Instant::now();
            let plan = CyclopsPlan::build_parallel_with_threshold(&g, &p, threshold);
            let took = start.elapsed();
            assert!(took < Duration::from_secs(3), "took {took:?}");
            assert_eq!(plan.workers[0].local_out(0).len(), leaves as usize);
            let remote_fanout = plan.workers[0].rep_out.len() + plan.workers[0].direct_source.len();
            assert_eq!(remote_fanout, leaves as usize);
        }
    }

    #[test]
    fn work_mass_counts_in_edges_fanout_and_mirrors() {
        let (g, p) = figure6();
        let plan = build(&g, &p, 0);
        for wp in &plan.workers {
            assert_eq!(wp.work_mass.len(), wp.num_masters());
            for li in 0..wp.num_masters() {
                let (s, e) = wp.in_ref_range(li);
                let expect = (e - s) + wp.local_out(li).len() + wp.mirrors(li).len() + 1;
                assert_eq!(wp.work_mass[li] as usize, expect);
            }
        }
        // Vertex 0 (worker 0, local 0): in-edge from 1, local out {1},
        // mirror on worker 1, plus itself = 4.
        assert_eq!(plan.workers[0].work_mass[0], 4);
    }

    #[test]
    fn threshold_zero_matches_default_build() {
        let (g, p) = figure6();
        let base = build(&g, &p, 0);
        assert_eq!(base.ingress.total_direct_slots, 0);
        assert_eq!(base.ingress.messaged_boundary, 0);
        // Boundary vertices of figure6: 0 (0->2), 2 (2->1), 3 (3->4), 5 (5->2).
        assert_eq!(base.ingress.replicated_boundary, 4);
        for wp in &base.workers {
            assert!(wp.direct_source.is_empty());
            assert!(wp.in_refs.iter().all(|&r| (r as usize) < wp.direct_base()));
        }
    }

    #[test]
    fn hybrid_threshold_splits_figure6() {
        // Combined degrees: 0 -> 3, 2 -> 5, 3 -> 3, 5 -> 3. Threshold 4
        // keeps only vertex 2 replicated; 0, 3 and 5 go cold.
        let (g, p) = figure6();
        let plan = build(&g, &p, 4);
        assert_eq!(plan.ingress.replicated_boundary, 1);
        assert_eq!(plan.ingress.messaged_boundary, 3);
        assert_eq!(plan.ingress.total_replicas, 1);
        assert_eq!(plan.ingress.total_direct_slots, 3);
        // Worker 0 keeps the replica of hot vertex 2.
        assert_eq!(plan.workers[0].replicas, vec![2]);
        assert!(plan.workers[1].replicas.is_empty());
        assert!(plan.workers[2].replicas.is_empty());
        // Worker 1's direct table: slots for 0->2 and 5->2, sorted by
        // (owner, source): 0 before 5.
        let w1 = &plan.workers[1];
        assert_eq!(w1.direct_source, vec![0, 5]);
        assert_eq!(w1.direct_target, vec![0, 0]);
        assert_eq!(
            in_ref_kinds(w1, 0),
            vec![
                SlotKind::Direct(0),
                SlotKind::Master(1),
                SlotKind::Direct(1)
            ]
        );
        // Worker 2's direct table: slot for 3->4.
        assert_eq!(plan.workers[2].direct_source, vec![3]);
        assert_eq!(plan.workers[2].direct_target, vec![0]);
        // Sender side, one table: a cold master's entries name direct slots
        // past the destination's replicas (none on workers 1 and 2)...
        assert_eq!(plan.workers[0].mirrors(0), &[(1, 0)]); // vertex 0
        assert_eq!(plan.workers[2].mirrors(1), &[(1, 1)]); // vertex 5
        assert_eq!(plan.workers[1].mirrors(1), &[(2, 0)]); // vertex 3
                                                           // ...and hot vertex 2 still names its replica on worker 0.
        assert_eq!(plan.workers[1].mirrors(0), &[(0, 0)]);
    }

    #[test]
    fn max_threshold_messages_every_boundary_vertex() {
        let (g, p) = figure6();
        let plan = build(&g, &p, u32::MAX);
        assert_eq!(plan.ingress.total_replicas, 0);
        assert_eq!(plan.ingress.replicated_boundary, 0);
        assert_eq!(plan.ingress.messaged_boundary, 4);
        // One slot per cross-worker edge: 0->2, 2->1, 3->4, 5->2.
        assert_eq!(plan.ingress.total_direct_slots, 4);
        assert!(plan.workers.iter().all(|wp| wp.replicas.is_empty()));
    }

    #[test]
    fn hybrid_direct_slots_align_on_multigraphs() {
        // Two parallel cold edges 0->1 across the cut land in two distinct
        // slots, and the sender's destinations cover both.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        let g = b.build();
        let p = EdgeCutPartition::new(2, vec![0, 1]);
        let plan = build(&g, &p, 100);
        let w1 = &plan.workers[1];
        assert_eq!(w1.direct_source, vec![0, 0]);
        assert_eq!(w1.direct_target, vec![0, 0]);
        assert_eq!(
            in_ref_kinds(w1, 0),
            vec![SlotKind::Direct(0), SlotKind::Direct(1)]
        );
        assert_eq!(plan.workers[0].mirrors(0), &[(1, 0), (1, 1)]);
    }

    #[test]
    fn ingress_timings_are_recorded() {
        let (g, p) = figure6();
        let plan = build(&g, &p, 0);
        // Durations exist (possibly sub-microsecond, but the fields are set).
        assert!(plan.ingress.total() >= plan.ingress.replicate);
    }

    #[test]
    fn memory_breakdown_tracks_the_replication_threshold() {
        let (g, p) = figure6();
        let full = build(&g, &p, 0).memory_breakdown();
        let none = build(&g, &p, u32::MAX).memory_breakdown();
        // Full replication spends bytes on replica tables; an infinite
        // threshold trades them for direct-slot tables. (Both carry a few
        // bytes of empty per-master CSR scaffolding either way, so compare
        // relative, not absolute-zero.)
        assert!(full.replicas > none.replicas);
        assert!(none.direct_slots > full.direct_slots);
        // The component split partitions the total.
        assert_eq!(full.total(), full.plan + full.replicas + full.direct_slots);
        // Plan-side bytes (masters, CSRs, owner/local_of) don't depend on
        // the threshold.
        assert_eq!(full.plan, none.plan);
    }
}
