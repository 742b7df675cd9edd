//! The serial reference builder: the oracle the linear-time wiring in
//! [`super::wire`] is held equal to.
//!
//! It follows the paper's description literally and independently of the
//! production routine — classify boundary vertices, collect and sort each
//! worker's replica set and direct-slot keys, then resolve every
//! cross-worker edge with a `binary_search` into those tables and count
//! parallel-edge occurrences in a `HashMap`. That is `O(E log V)` with an
//! `O(d²)` dedup on hubs, which is fine for what calls it: tests, and
//! `tests/mem_observability.rs`. Nothing on a run path does.

use super::{CyclopsPlan, IngressStats, WorkerPlan};
use cyclops_graph::{Graph, VertexId};
use cyclops_obs::mem::{Component, MemScope};
use cyclops_partition::EdgeCutPartition;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Direct-slot key: `(source owner, source vertex, target local index,
/// occurrence)` — one per cross-worker in-edge from a cold boundary vertex,
/// unique even on multigraphs thanks to the occurrence counter. Sender and
/// receiver derive the same key independently from their own edge lists, so
/// the sorted key table plays the role the shared replica index plays for
/// hot vertices.
type DirectKey = (u32, VertexId, u32, u32);

/// Cold flags plus `(replicated, messaged)` boundary-vertex counts at
/// `threshold`: a vertex is cold when it has a cross-worker out-edge and
/// its combined (in + out) degree is below the threshold. Threshold 0 marks
/// nothing cold — full replication.
fn classify_cold(graph: &Graph, owner: &[u32], threshold: u32) -> (Vec<bool>, usize, usize) {
    let mut cold = vec![false; graph.num_vertices()];
    let (mut replicated, mut messaged) = (0usize, 0usize);
    for u in graph.vertices() {
        let home = owner[u as usize];
        if !graph
            .out_neighbors(u)
            .iter()
            .any(|&x| owner[x as usize] != home)
        {
            continue;
        }
        if ((graph.out_degree(u) + graph.in_degree(u)) as u64) < threshold as u64 {
            cold[u as usize] = true;
            messaged += 1;
        } else {
            replicated += 1;
        }
    }
    (cold, replicated, messaged)
}

/// Worker `w`'s sorted direct-slot key table: one key per cross-worker
/// in-edge from a cold vertex, discovered from the receiver's in-edge lists.
fn direct_keys(
    graph: &Graph,
    owner: &[u32],
    w: usize,
    masters: &[VertexId],
    cold: &[bool],
) -> Vec<DirectKey> {
    let mut keys = Vec::new();
    let mut occ: HashMap<VertexId, u32> = HashMap::new();
    for (li, &v) in masters.iter().enumerate() {
        occ.clear();
        for &u in graph.in_neighbors(v) {
            let p = owner[u as usize];
            if p as usize != w && cold[u as usize] {
                let c = occ.entry(u).or_insert(0);
                keys.push((p, u, li as u32, *c));
                *c += 1;
            }
        }
    }
    keys.sort_unstable();
    keys
}

/// Resolves worker `w`'s in-edge references against its replica list and
/// direct-slot key table, as indices into the worker's view slot space
/// (masters, then replicas, then direct slots). Returns
/// `(offsets, refs, weights)`.
#[allow(clippy::too_many_arguments)]
fn wire_in_refs(
    graph: &Graph,
    owner: &[u32],
    local_of: &[u32],
    w: usize,
    masters: &[VertexId],
    replicas: &[VertexId],
    keys: &[DirectKey],
    cold: &[bool],
) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
    let weighted = graph.is_weighted();
    let replica_base = masters.len() as u32;
    let direct_base = replica_base + replicas.len() as u32;
    let mut offsets = Vec::with_capacity(masters.len() + 1);
    let mut refs = Vec::new();
    let mut weights = Vec::new();
    let mut occ: HashMap<VertexId, u32> = HashMap::new();
    offsets.push(0u32);
    for (li, &v) in masters.iter().enumerate() {
        let srcs = graph.in_neighbors(v);
        let ws = graph.in_weights(v);
        occ.clear();
        for (i, &u) in srcs.iter().enumerate() {
            let p = owner[u as usize];
            if p as usize == w {
                refs.push(local_of[u as usize]);
            } else if cold[u as usize] {
                let c = occ.entry(u).or_insert(0);
                let key = (p, u, li as u32, *c);
                *c += 1;
                let slot = keys.binary_search(&key).expect("direct slot exists") as u32;
                refs.push(direct_base + slot);
            } else {
                let ri = replicas.binary_search(&u).expect("replica exists") as u32;
                refs.push(replica_base + ri);
            }
            if weighted {
                weights.push(ws[i]);
            }
        }
        offsets.push(refs.len() as u32);
    }
    (offsets, refs, weights)
}

/// Wires worker `w`'s sender side: local activation fan-out plus, per
/// master, its remote fan-out — one entry per mirror worker naming the
/// replica index there (hot), or one per cross-worker out-edge naming the
/// direct slot there past that worker's replicas (cold). Returns
/// `(local_out_offsets, local_out, mirror_offsets, mirrors)`.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn wire_out(
    graph: &Graph,
    owner: &[u32],
    local_of: &[u32],
    w: usize,
    masters: &[VertexId],
    cold: &[bool],
    replica_lists: &[Vec<VertexId>],
    key_lists: &[Vec<DirectKey>],
) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<(u32, u32)>) {
    let mut lo_off = vec![0u32];
    let mut lo = Vec::new();
    let mut mir_off = vec![0u32];
    let mut mir: Vec<(u32, u32)> = Vec::new();
    let mut mirror_workers: Vec<u32> = Vec::new();
    let mut occ: HashMap<VertexId, u32> = HashMap::new();
    // Deduplicate multigraph local fan-out: activation is idempotent, keep
    // the list small.
    fn push_local(lo: &mut Vec<u32>, start: u32, xi: u32) {
        if lo[start as usize..].iter().all(|&e| e != xi) {
            lo.push(xi);
        }
    }
    for &u in masters {
        let lo_start = *lo_off.last().unwrap();
        if cold[u as usize] {
            occ.clear();
            for &x in graph.out_neighbors(u) {
                let p = owner[x as usize];
                if p as usize == w {
                    push_local(&mut lo, lo_start, local_of[x as usize]);
                } else {
                    let c = occ.entry(x).or_insert(0);
                    let key = (w as u32, u, local_of[x as usize], *c);
                    *c += 1;
                    let slot = key_lists[p as usize]
                        .binary_search(&key)
                        .expect("direct slot exists");
                    mir.push((p, (replica_lists[p as usize].len() + slot) as u32));
                }
            }
        } else {
            mirror_workers.clear();
            for &x in graph.out_neighbors(u) {
                let p = owner[x as usize];
                if p as usize == w {
                    push_local(&mut lo, lo_start, local_of[x as usize]);
                } else if !mirror_workers.contains(&p) {
                    mirror_workers.push(p);
                }
            }
            mirror_workers.sort_unstable();
            for &p in &mirror_workers {
                let ri = replica_lists[p as usize]
                    .binary_search(&u)
                    .expect("mirror replica exists") as u32;
                mir.push((p, ri));
            }
        }
        lo_off.push(lo.len() as u32);
        mir_off.push(mir.len() as u32);
    }
    (lo_off, lo, mir_off, mir)
}

/// Wires worker `w`'s replica activation fan-out: the local out-neighbors
/// each replica activates (the paper's "L-Out" edges of a replica,
/// Figure 6), deduplicated per replica. Returns `(rep_out_offsets,
/// rep_out)`.
fn wire_rep_out(
    graph: &Graph,
    owner: &[u32],
    local_of: &[u32],
    w: usize,
    replicas: &[VertexId],
) -> (Vec<u32>, Vec<u32>) {
    let mut ro_off = vec![0u32];
    let mut ro = Vec::new();
    for &u in replicas {
        for &x in graph.out_neighbors(u) {
            if owner[x as usize] as usize == w {
                let xi = local_of[x as usize];
                if ro[ro_off.last().copied().unwrap() as usize..]
                    .iter()
                    .all(|&e| e != xi)
                {
                    ro.push(xi);
                }
            }
        }
        ro_off.push(ro.len() as u32);
    }
    (ro_off, ro)
}

/// Fills `work_mass` from the already-built CSRs.
fn compute_work_mass(wp: &mut WorkerPlan) {
    wp.work_mass = (0..wp.num_masters())
        .map(|li| {
            let (s, e) = wp.in_ref_range(li);
            ((e - s) + wp.local_out(li).len() + wp.mirrors(li).len() + 1) as u32
        })
        .collect();
}

/// Re-materializes `v` at exact capacity under `component`'s scope, so the
/// oracle's plans carry the same memory ledger as the production builder's
/// (which allocates that way to begin with).
fn settle<T>(v: &mut Vec<T>, component: Component) {
    let _scope = MemScope::enter(component);
    let old = std::mem::take(v);
    let mut fresh = Vec::with_capacity(old.len());
    fresh.extend(old);
    *v = fresh;
}

impl CyclopsPlan {
    /// [`Self::build_with_threshold`] at full replication.
    pub fn build(graph: &Graph, partition: &EdgeCutPartition) -> CyclopsPlan {
        Self::build_with_threshold(graph, partition, 0)
    }

    /// The single-threaded reference construction of the plan
    /// [`Self::build_parallel_with_threshold`] builds — same fields, same
    /// exact capacities, found by sorting and searching instead. Tests
    /// compare the two; run paths use the parallel builder.
    pub fn build_with_threshold(
        graph: &Graph,
        partition: &EdgeCutPartition,
        threshold: u32,
    ) -> CyclopsPlan {
        let k = partition.num_parts;
        let n = graph.num_vertices();
        assert_eq!(partition.assignment.len(), n);

        // ---- LD: distribute masters. ----
        let ld_start = Instant::now();
        let mut workers: Vec<WorkerPlan> = (0..k).map(|_| WorkerPlan::default()).collect();
        let mut owner = partition.assignment.clone();
        let mut local_of = vec![0u32; n];
        for v in graph.vertices() {
            let w = &mut workers[owner[v as usize] as usize];
            local_of[v as usize] = w.masters.len() as u32;
            w.masters.push(v);
        }
        let load = ld_start.elapsed();

        // ---- REP: create replicas and wire edges. ----
        let rep_start = Instant::now();
        let (cold, replicated_boundary, messaged_boundary) =
            classify_cold(graph, &owner, threshold);
        // Replica discovery: a hot vertex u is replicated on every remote
        // worker owning one of its out-neighbors; cold vertices get direct
        // slots instead.
        let mut replica_lists: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        for u in graph.vertices() {
            if cold[u as usize] {
                continue;
            }
            let home = owner[u as usize];
            for &x in graph.out_neighbors(u) {
                let p = owner[x as usize];
                if p != home {
                    replica_lists[p as usize].push(u);
                }
            }
        }
        for set in replica_lists.iter_mut() {
            set.sort_unstable();
            set.dedup();
        }
        let key_lists: Vec<Vec<DirectKey>> = workers
            .iter()
            .enumerate()
            .map(|(w, wp)| direct_keys(graph, &owner, w, &wp.masters, &cold))
            .collect();

        for (w, worker) in workers.iter_mut().enumerate() {
            // In-edge references (the immutable view of each master).
            let (offsets, refs, weights) = wire_in_refs(
                graph,
                &owner,
                &local_of,
                w,
                &worker.masters,
                &replica_lists[w],
                &key_lists[w],
                &cold,
            );
            worker.in_ref_offsets = offsets;
            worker.in_refs = refs;
            worker.in_weights = weights;
            worker.direct_source = key_lists[w].iter().map(|k| k.1).collect();
            worker.direct_target = key_lists[w].iter().map(|k| k.2).collect();

            // Local activation fan-out and remote fan-out per master;
            // replica activation fan-out per replica.
            let (lo_off, lo, mir_off, mir) = wire_out(
                graph,
                &owner,
                &local_of,
                w,
                &worker.masters,
                &cold,
                &replica_lists,
                &key_lists,
            );
            worker.local_out_offsets = lo_off;
            worker.local_out = lo;
            worker.mirror_offsets = mir_off;
            worker.mirrors = mir;
            let (ro_off, ro) = wire_rep_out(graph, &owner, &local_of, w, &replica_lists[w]);
            worker.rep_out_offsets = ro_off;
            worker.rep_out = ro;
            compute_work_mass(worker);
        }
        for (worker, replicas) in workers.iter_mut().zip(replica_lists) {
            worker.replicas = replicas;
        }
        let replicate = rep_start.elapsed();

        settle(&mut workers, Component::Plan);
        settle(&mut owner, Component::Plan);
        settle(&mut local_of, Component::Plan);
        for w in workers.iter_mut() {
            settle(&mut w.masters, Component::Plan);
            settle(&mut w.in_ref_offsets, Component::Plan);
            settle(&mut w.in_refs, Component::Plan);
            settle(&mut w.in_weights, Component::Plan);
            settle(&mut w.local_out_offsets, Component::Plan);
            settle(&mut w.local_out, Component::Plan);
            settle(&mut w.work_mass, Component::Plan);
            settle(&mut w.replicas, Component::Replicas);
            settle(&mut w.mirror_offsets, Component::Replicas);
            settle(&mut w.mirrors, Component::Replicas);
            settle(&mut w.rep_out_offsets, Component::Replicas);
            settle(&mut w.rep_out, Component::Replicas);
            settle(&mut w.direct_source, Component::DirectSlots);
            settle(&mut w.direct_target, Component::DirectSlots);
        }

        let total_replicas = workers.iter().map(|w| w.replicas.len()).sum();
        let total_direct_slots = workers.iter().map(|w| w.num_direct_slots()).sum();
        CyclopsPlan {
            workers,
            owner,
            local_of,
            ingress: IngressStats {
                load,
                replicate,
                init: Duration::ZERO,
                total_replicas,
                replicated_boundary,
                messaged_boundary,
                total_direct_slots,
            },
        }
    }
}
