//! Property-based tests of the Cyclops engine: for arbitrary graphs,
//! partitions, and cluster shapes, the distributed execution must equal the
//! sequential fixpoint computation, and the §3.4 message invariant must
//! hold.

use cyclops_engine::plan::SlotKind;
use cyclops_engine::{
    apply_migration, apply_mutations, run_cyclops, run_cyclops_evolving, CyclopsConfig,
    CyclopsContext, CyclopsPlan, CyclopsProgram, MutationBatch, WarmStart,
};
use cyclops_graph::gen::{rmat, RmatConfig};
use cyclops_graph::{Graph, GraphBuilder, VertexId};
use cyclops_net::ClusterSpec;
use cyclops_partition::{EdgeCutPartition, MigrationBatch, VertexMove};
use proptest::prelude::*;

/// Pull-mode max propagation (see the engine's unit tests): value becomes
/// the max over in-neighbors; publishes on growth.
struct MaxPull;
impl CyclopsProgram for MaxPull {
    type Value = u32;
    type Message = u32;
    fn init(&self, v: VertexId, _g: &Graph) -> u32 {
        v * 7 + 3
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

/// Sequential fixpoint of the same dynamics.
fn sequential_maxpull(g: &Graph) -> Vec<u32> {
    let mut values: Vec<u32> = g.vertices().map(|v| v * 7 + 3).collect();
    loop {
        let mut changed = false;
        let snapshot = values.clone();
        for v in g.vertices() {
            let mut best = values[v as usize];
            for &u in g.in_neighbors(v) {
                best = best.max(snapshot[u as usize]);
            }
            if best > values[v as usize] {
                values[v as usize] = best;
                changed = true;
            }
        }
        if !changed {
            return values;
        }
    }
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..25).prop_flat_map(|n| {
        prop::collection::vec((0..n as u32, 0..n as u32), 0..80).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (s, t) in edges {
                b.add_edge(s, t);
            }
            b.build()
        })
    })
}

/// An arbitrary total assignment of vertices to `k` parts.
fn arb_partition(g: &Graph, k: usize, seed: u64) -> EdgeCutPartition {
    // Cheap deterministic pseudo-random assignment.
    let assignment = g
        .vertices()
        .map(|v| (((v as u64).wrapping_mul(seed.wrapping_mul(2) + 1) >> 3) % k as u64) as u32)
        .collect();
    EdgeCutPartition::new(k, assignment)
}

/// Hub-heavy multigraphs on 64 vertices: a non-simple R-MAT core (parallel
/// edges and self-loops included), a star around one vertex with every
/// other spoke answered and every third doubled, and arbitrary extra edges.
fn arb_hub_graph() -> impl Strategy<Value = Graph> {
    (
        0u64..500,
        0u32..64,
        1u32..64,
        any::<bool>(),
        prop::collection::vec((0u32..64, 0u32..64), 0..30),
    )
        .prop_map(|(seed, hub, spokes, weighted, extra)| {
            let core = rmat(
                RmatConfig {
                    scale: 6,
                    edges: 200,
                    simple: false,
                    ..Default::default()
                },
                seed,
            );
            let mut edges: Vec<(u32, u32)> = core.edges().map(|(s, t, _)| (s, t)).collect();
            for leaf in 0..spokes {
                edges.push((hub, leaf));
                if leaf % 2 == 0 {
                    edges.push((leaf, hub));
                }
                if leaf % 3 == 0 {
                    edges.push((hub, leaf));
                }
            }
            edges.extend(extra);
            let mut b = GraphBuilder::new(64);
            for (i, (s, t)) in edges.into_iter().enumerate() {
                if weighted {
                    b.add_weighted_edge(s, t, i as f64);
                } else {
                    b.add_edge(s, t);
                }
            }
            b.build()
        })
}

/// The moves `picks[round..]` name on the current plan: one per vertex,
/// no-op moves dropped.
fn moves_from_picks(plan: &CyclopsPlan, picks: &[(usize, u32)], round: usize) -> Vec<VertexMove> {
    let (n, k) = (plan.owner.len(), plan.workers.len() as u32);
    picks
        .iter()
        .skip(round)
        .map(|&(vi, to)| {
            let vertex = (vi % n) as VertexId;
            VertexMove {
                vertex,
                from: plan.owner[vertex as usize],
                to: to % k,
                cost: 1,
            }
        })
        .scan(std::collections::BTreeSet::new(), |seen, mv| {
            Some(seen.insert(mv.vertex).then_some(mv))
        })
        .flatten()
        .filter(|mv| mv.from != mv.to)
        .collect()
}

/// Batches whose movers neighbour one another: each pick moves a vertex and
/// one of its in- or out-neighbours, the vertex onto a worker that holds its
/// replica or direct slots when one does. One move per vertex, no-op moves
/// dropped.
fn neighbouring_moves(
    plan: &CyclopsPlan,
    g: &Graph,
    picks: &[(usize, usize, u32)],
) -> Vec<VertexMove> {
    let (n, k) = (plan.owner.len(), plan.workers.len() as u32);
    let owner = |v: VertexId| plan.owner[v as usize];
    let mut wanted = Vec::new();
    for &(vi, hop, to) in picks {
        let v = (vi % n) as VertexId;
        let (ins, outs) = (g.in_neighbors(v), g.out_neighbors(v));
        let holders: Vec<u32> = outs
            .iter()
            .map(|&x| owner(x))
            .filter(|&p| p != owner(v))
            .collect();
        let dest = match holders.len() {
            0 => to % k,
            len => holders[to as usize % len],
        };
        wanted.push((v, dest));
        let neighbour = match hop % 2 {
            0 if !ins.is_empty() => Some(ins[hop % ins.len()]),
            _ if !outs.is_empty() => Some(outs[hop % outs.len()]),
            _ => None,
        };
        wanted.extend(neighbour.map(|u| (u, (to + 1) % k)));
    }
    let mut seen = std::collections::BTreeSet::new();
    wanted
        .into_iter()
        .filter(|&(v, _)| seen.insert(v))
        .map(|(vertex, to)| VertexMove {
            vertex,
            from: owner(vertex),
            to,
            cost: 1,
        })
        .filter(|mv| mv.from != mv.to)
        .collect()
}

/// One mutation batch on `g`, drawn from `seed`: a few inserts and removals
/// at random (a removal may name an absent pair), up to two new vertices
/// wired both ways, three in-edges into one vertex and every out-edge of
/// another taken away, so endpoints cross a low threshold both ways.
fn arb_mutation(g: &Graph, seed: u64) -> MutationBatch {
    let mut state = seed | 1;
    let mut next = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as VertexId
    };
    let n = g.num_vertices();
    let add_vertices = next(3) as usize;
    let m = n + add_vertices;
    let edges: Vec<(VertexId, VertexId)> = g.edges().map(|(s, t, _)| (s, t)).collect();
    let mut add_edges = Vec::new();
    for _ in 0..next(5) {
        add_edges.push((next(m), next(m)));
    }
    for new in n..m {
        add_edges.push((new as VertexId, next(n)));
        add_edges.push((next(m), new as VertexId));
    }
    let up = next(n);
    for _ in 0..3 {
        add_edges.push((next(n), up));
    }
    let mut remove_edges = Vec::new();
    for _ in 0..next(5) {
        remove_edges.push(match edges.is_empty() {
            true => (next(n), next(n)),
            false => edges[next(edges.len()) as usize],
        });
    }
    remove_edges.push((next(m), next(m)));
    let down = next(n);
    remove_edges.extend(g.out_neighbors(down).iter().map(|&t| (down, t)));
    let weight = |i: usize| g.is_weighted().then_some(0.5 + i as f64);
    let add_edges = (add_edges.into_iter().enumerate())
        .map(|(i, (s, t))| (s, t, weight(i)))
        .collect();
    MutationBatch {
        add_vertices,
        add_edges,
        remove_edges,
    }
}

/// Every vector of the plan was allocated at its final length: capacity
/// slack would inflate `memory_breakdown()` (and `plan_bytes`).
fn exactly_sized(plan: &CyclopsPlan) -> Result<(), String> {
    macro_rules! check {
        ($v:expr, $name:literal) => {
            if $v.len() != $v.capacity() {
                return Err(format!("{}: len {} of {}", $name, $v.len(), $v.capacity()));
            }
        };
    }
    check!(plan.workers, "workers");
    check!(plan.owner, "owner");
    check!(plan.local_of, "local_of");
    for w in &plan.workers {
        check!(w.masters, "masters");
        check!(w.replicas, "replicas");
        check!(w.in_ref_offsets, "in_ref_offsets");
        check!(w.in_refs, "in_refs");
        check!(w.in_weights, "in_weights");
        check!(w.local_out_offsets, "local_out_offsets");
        check!(w.local_out, "local_out");
        check!(w.mirror_offsets, "mirror_offsets");
        check!(w.mirrors, "mirrors");
        check!(w.rep_out_offsets, "rep_out_offsets");
        check!(w.rep_out, "rep_out");
        check!(w.direct_source, "direct_source");
        check!(w.direct_target, "direct_target");
        check!(w.work_mass, "work_mass");
    }
    Ok(())
}

/// The view slot space's invariant: on every worker, the `k`-th in-edge
/// reference of every master is a slot inside `[masters | replicas | direct
/// slots]` that names the `k`-th vertex of `graph.in_neighbors(v)` — by the
/// table of whichever range it falls in — and a direct slot wakes exactly
/// the master that reads it.
fn in_refs_name_in_neighbors(plan: &CyclopsPlan, g: &Graph) -> Result<(), String> {
    for (w, wp) in plan.workers.iter().enumerate() {
        for (li, &v) in wp.masters.iter().enumerate() {
            let (s, e) = wp.in_ref_range(li);
            let sources = g.in_neighbors(v);
            if e - s != sources.len() {
                return Err(format!("worker {w} vertex {v}: {} refs", e - s));
            }
            for (k, (&slot, &u)) in wp.in_refs[s..e].iter().zip(sources).enumerate() {
                if slot as usize >= wp.num_view_slots() {
                    return Err(format!(
                        "worker {w} vertex {v} ref {k}: slot {slot} out of range"
                    ));
                }
                let named = match wp.slot_kind(slot) {
                    SlotKind::Master(i) => wp.masters[i as usize] == u,
                    SlotKind::Replica(i) => wp.replicas[i as usize] == u,
                    SlotKind::Direct(i) => {
                        wp.direct_source[i as usize] == u
                            && wp.direct_target[i as usize] == li as u32
                    }
                };
                if !named {
                    return Err(format!(
                        "worker {w} vertex {v} ref {k}: slot {slot} is not {u}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The sending side of the same invariant: every entry `(p, id)` of a
/// master's fan-out names a remote slot of worker `p` — a replica below
/// `p`'s replica count, a direct slot past it — whose source is that master,
/// and a direct slot it names belongs to an in-edge from the master into the
/// slot's target. Together the entries reach every remote copy exactly once.
fn mirrors_name_their_master(plan: &CyclopsPlan, g: &Graph) -> Result<(), String> {
    let mut reached: Vec<Vec<u32>> = plan
        .workers
        .iter()
        .map(|wp| vec![0; wp.num_replicas() + wp.num_direct_slots()])
        .collect();
    for (w, wp) in plan.workers.iter().enumerate() {
        for (li, &u) in wp.masters.iter().enumerate() {
            for &(p, id) in wp.mirrors(li) {
                let to = &plan.workers[p as usize];
                let Some(hits) = reached[p as usize].get_mut(id as usize) else {
                    return Err(format!("worker {w} vertex {u}: ({p}, {id}) out of range"));
                };
                *hits += 1;
                let named = match to.slot_kind((to.num_masters() + id as usize) as u32) {
                    SlotKind::Master(_) => false,
                    SlotKind::Replica(i) => to.replicas[i as usize] == u,
                    SlotKind::Direct(i) => {
                        let target = to.masters[to.direct_target[i as usize] as usize];
                        to.direct_source[i as usize] == u && g.in_neighbors(target).contains(&u)
                    }
                };
                if p as usize == w || !named {
                    return Err(format!(
                        "worker {w} vertex {u}: ({p}, {id}) is not its copy"
                    ));
                }
            }
        }
    }
    match reached.iter().flatten().position(|&hits| hits != 1) {
        Some(i) => Err(format!(
            "remote slot {i} (flattened) is not reached exactly once"
        )),
        None => Ok(()),
    }
}

/// What lets a superstep's activation run in either direction: on every
/// worker the reader lists are the inverse of the in-edge references. Every
/// pair `(slot, li)` with `li` in `readers(slot)` is there once, and the pairs
/// are exactly the distinct `(in_refs[i], li)` — a run of parallel edges
/// refers to a master or replica slot once per edge and is woken by it once
/// (waking is idempotent; a direct slot is per edge on both sides). So
/// marking the readers of every written slot and scanning every master's
/// references for a written slot find the same masters.
fn readers_invert_in_refs(plan: &CyclopsPlan) -> Result<(), String> {
    for (w, wp) in plan.workers.iter().enumerate() {
        let mut woken_by: Vec<(u32, u32)> = (0..wp.num_view_slots())
            .flat_map(|slot| wp.readers(slot).iter().map(move |&li| (slot as u32, li)))
            .collect();
        woken_by.sort_unstable();
        let mut refers_to: Vec<(u32, u32)> = (0..wp.num_masters())
            .flat_map(|li| {
                let (s, e) = wp.in_ref_range(li);
                wp.in_refs[s..e].iter().map(move |&slot| (slot, li as u32))
            })
            .collect();
        refers_to.sort_unstable();
        refers_to.dedup();
        if let Some(i) =
            (0..woken_by.len().max(refers_to.len())).find(|&i| woken_by.get(i) != refers_to.get(i))
        {
            return Err(format!(
                "worker {w}: reader pair {:?} vs in-ref pair {:?} at {i}",
                woken_by.get(i),
                refers_to.get(i)
            ));
        }
    }
    Ok(())
}

/// Field-by-field structural equality of two plans — the contract
/// [`apply_migration`] promises against a from-scratch build.
fn plans_equal(a: &CyclopsPlan, b: &CyclopsPlan) -> Result<(), String> {
    macro_rules! check {
        ($x:expr, $y:expr, $name:literal) => {
            if $x != $y {
                return Err(format!("{} diverged: {:?} vs {:?}", $name, $x, $y));
            }
        };
    }
    check!(a.owner, b.owner, "owner");
    check!(a.local_of, b.local_of, "local_of");
    check!(
        a.ingress.total_replicas,
        b.ingress.total_replicas,
        "total_replicas"
    );
    check!(
        a.ingress.replicated_boundary,
        b.ingress.replicated_boundary,
        "replicated_boundary"
    );
    check!(
        a.ingress.messaged_boundary,
        b.ingress.messaged_boundary,
        "messaged_boundary"
    );
    check!(
        a.ingress.total_direct_slots,
        b.ingress.total_direct_slots,
        "total_direct_slots"
    );
    for (x, y) in a.workers.iter().zip(&b.workers) {
        check!(x.masters, y.masters, "masters");
        check!(x.replicas, y.replicas, "replicas");
        check!(x.in_ref_offsets, y.in_ref_offsets, "in_ref_offsets");
        check!(x.in_refs, y.in_refs, "in_refs");
        check!(x.in_weights, y.in_weights, "in_weights");
        check!(
            x.local_out_offsets,
            y.local_out_offsets,
            "local_out_offsets"
        );
        check!(x.local_out, y.local_out, "local_out");
        check!(x.mirror_offsets, y.mirror_offsets, "mirror_offsets");
        check!(x.mirrors, y.mirrors, "mirrors");
        check!(x.rep_out_offsets, y.rep_out_offsets, "rep_out_offsets");
        check!(x.rep_out, y.rep_out, "rep_out");
        check!(x.direct_source, y.direct_source, "direct_source");
        check!(x.direct_target, y.direct_target, "direct_target");
        check!(x.work_mass, y.work_mass, "work_mass");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn distributed_fixpoint_equals_sequential(
        g in arb_graph(),
        seed in 0u64..1_000,
        workers in 1usize..5,
        threads in 1usize..4,
        receivers in 1usize..3,
    ) {
        let p = arb_partition(&g, workers, seed);
        let cluster = ClusterSpec {
            machines: workers,
            workers_per_machine: 1,
            threads_per_worker: threads,
            receivers_per_worker: receivers,
        };
        let r = run_cyclops(&MaxPull, &g, &p, &CyclopsConfig {
            cluster,
            max_supersteps: 10_000,
            ..Default::default()
        });
        prop_assert_eq!(r.values, sequential_maxpull(&g));
    }

    #[test]
    fn rewired_plan_equals_from_scratch_build(
        g in arb_graph(),
        seed in 0u64..1_000,
        workers in 2usize..5,
        threshold_idx in 0usize..3,
        picks in prop::collection::vec((0usize..25, 0u32..5), 1..6),
    ) {
        // Arbitrary move batches, applied in two chained rounds: the
        // second rewires an already-rewired plan, so the incremental path
        // must compose, not just match once.
        let threshold = [0u32, 2, u32::MAX][threshold_idx];
        let p = arb_partition(&g, workers, seed);
        let mut plan = CyclopsPlan::build_parallel_with_threshold(&g, &p, threshold);
        for round in 0..2 {
            let moves = moves_from_picks(&plan, &picks, round);
            if moves.is_empty() {
                continue;
            }
            apply_migration(&mut plan, &g, &MigrationBatch { moves }, threshold);
            let fresh = CyclopsPlan::build_parallel_with_threshold(
                &g,
                &EdgeCutPartition::new(workers, plan.owner.clone()),
                threshold,
            );
            if let Err(e) = plans_equal(&plan, &fresh) {
                prop_assert!(false, "round {round}: {e}");
            }
        }
    }

    #[test]
    fn linear_wiring_equals_reference_builder_on_hub_heavy_graphs(
        g in arb_hub_graph(),
        seed in 0u64..1_000,
        workers_idx in 0usize..3,
        threshold_idx in 0usize..3,
        picks in prop::collection::vec((0usize..64, 0u32..5), 1..8),
    ) {
        // The production routine against the independent serial
        // construction, from scratch and after each of two chained
        // rewires, with no capacity slack anywhere.
        let workers = [1usize, 2, 5][workers_idx];
        let threshold = [0u32, 2, u32::MAX][threshold_idx];
        let p = arb_partition(&g, workers, seed);
        let mut plan = CyclopsPlan::build_parallel_with_threshold(&g, &p, threshold);
        for round in 0..3 {
            if round > 0 {
                let moves = moves_from_picks(&plan, &picks, round - 1);
                if moves.is_empty() {
                    continue;
                }
                apply_migration(&mut plan, &g, &MigrationBatch { moves }, threshold);
            }
            let reference = CyclopsPlan::build_with_threshold(
                &g,
                &EdgeCutPartition::new(workers, plan.owner.clone()),
                threshold,
            );
            if let Err(e) = plans_equal(&plan, &reference).and_then(|_| exactly_sized(&plan)) {
                prop_assert!(false, "round {round}: {e}");
            }
            prop_assert_eq!(plan.memory_breakdown(), reference.memory_breakdown());
        }
    }

    #[test]
    fn in_refs_index_one_slot_space_naming_the_in_neighbors(
        g in arb_hub_graph(),
        seed in 0u64..1_000,
        workers_idx in 0usize..3,
        threshold_idx in 0usize..3,
        picks in prop::collection::vec((0usize..64, 0u32..5), 1..8),
    ) {
        // From scratch, then after each of a chain of arbitrary migration
        // batches (a move shifts the range bases of both workers it touches).
        let workers = [1usize, 2, 5][workers_idx];
        let threshold = [0u32, 2, u32::MAX][threshold_idx];
        let p = arb_partition(&g, workers, seed);
        let mut plan = CyclopsPlan::build_parallel_with_threshold(&g, &p, threshold);
        let both_sides = |plan: &CyclopsPlan| {
            in_refs_name_in_neighbors(plan, &g).and_then(|_| mirrors_name_their_master(plan, &g))
        };
        for round in 0..picks.len() {
            if let Err(e) = both_sides(&plan) {
                prop_assert!(false, "before batch {round}: {e}");
            }
            let moves = moves_from_picks(&plan, &picks, round);
            if !moves.is_empty() {
                apply_migration(&mut plan, &g, &MigrationBatch { moves }, threshold);
            }
        }
        if let Err(e) = both_sides(&plan) {
            prop_assert!(false, "after the last batch: {e}");
        }
    }

    #[test]
    fn reader_lists_are_the_inverse_of_in_refs(
        g in arb_hub_graph(),
        seed in 0u64..1_000,
        workers_idx in 0usize..3,
        threshold_idx in 0usize..3,
        picks in prop::collection::vec((0usize..64, 0u32..5), 1..8),
    ) {
        // On the serial reference build, on the production build, and after
        // each of a chain of arbitrary migration batches; multigraphs with
        // self-loops, hot and cold boundary vertices.
        let workers = [1usize, 2, 5][workers_idx];
        let threshold = [0u32, 2, u32::MAX][threshold_idx];
        let p = arb_partition(&g, workers, seed);
        if let Err(e) = readers_invert_in_refs(&CyclopsPlan::build_with_threshold(&g, &p, threshold)) {
            prop_assert!(false, "reference build: {e}");
        }
        let mut plan = CyclopsPlan::build_parallel_with_threshold(&g, &p, threshold);
        for round in 0..picks.len() {
            if let Err(e) = readers_invert_in_refs(&plan) {
                prop_assert!(false, "before batch {round}: {e}");
            }
            let moves = moves_from_picks(&plan, &picks, round);
            if !moves.is_empty() {
                apply_migration(&mut plan, &g, &MigrationBatch { moves }, threshold);
            }
        }
        if let Err(e) = readers_invert_in_refs(&plan) {
            prop_assert!(false, "after the last batch: {e}");
        }
    }

    #[test]
    fn moves_of_neighbouring_vertices_equal_a_rebuild(
        base in arb_graph(),
        seed in 0u64..1_000,
        workers_idx in 0usize..3,
        threshold_idx in 0usize..3,
        picks in prop::collection::vec((0usize..64, 0usize..64, 0u32..5), 1..6),
    ) {
        // Movers adjacent to movers, some with a self-loop or a doubled
        // out-edge, cold at thresholds 2 and 3 on a sparse graph, and moved
        // onto a worker that held their replica or direct slots; two chained
        // batches, each held to the production and the reference builds.
        let n = base.num_vertices();
        let mut b = GraphBuilder::new(n);
        for (s, t, _) in base.edges() {
            b.add_edge(s, t);
        }
        for &(vi, hop, _) in &picks {
            let v = (vi % n) as VertexId;
            match (hop % 3, base.out_neighbors(v).first()) {
                (0, _) => b.add_edge(v, v),
                (1, Some(&x)) => b.add_edge(v, x),
                _ => {}
            }
        }
        let g = b.build();
        let workers = [2usize, 3, 5][workers_idx];
        let threshold = [0u32, 2, 3][threshold_idx];
        let mut plan = CyclopsPlan::build_parallel_with_threshold(&g, &arb_partition(&g, workers, seed), threshold);
        for round in 0..2 {
            let moves = neighbouring_moves(&plan, &g, &picks[round.min(picks.len() - 1)..]);
            if moves.is_empty() {
                continue;
            }
            apply_migration(&mut plan, &g, &MigrationBatch { moves }, threshold);
            let cut = EdgeCutPartition::new(workers, plan.owner.clone());
            let fresh = CyclopsPlan::build_parallel_with_threshold(&g, &cut, threshold);
            let reference = CyclopsPlan::build_with_threshold(&g, &cut, threshold);
            let checked = plans_equal(&plan, &fresh)
                .and_then(|_| plans_equal(&plan, &reference))
                .and_then(|_| exactly_sized(&plan))
                .and_then(|_| readers_invert_in_refs(&plan));
            if let Err(e) = checked {
                prop_assert!(false, "round {round}: {e}");
            }
            prop_assert_eq!(plan.memory_breakdown(), reference.memory_breakdown());
        }
    }

    #[test]
    fn mutation_edits_equal_a_rebuild(
        g in arb_hub_graph(),
        seeds in prop::collection::vec(0u64..1 << 48, 3..4),
        workers_idx in 0usize..3,
        threshold_idx in 0usize..4,
        moving in any::<bool>(),
        cut_seed in 0u64..1_000,
    ) {
        // Chains of three batches, each drawn on the graph the ones before
        // it leave, through the evolving driver; after every batch its plan
        // must be a build on the new graph and cut. The moving cut gives a
        // third of the vertices another owner whenever the edge count moves.
        let workers = [1usize, 2, 5][workers_idx];
        let threshold = [0u32, 2, 3, u32::MAX][threshold_idx];
        let cut = |g: &Graph| match moving {
            true => {
                let m = g.num_edges() as u32;
                let owner = g.vertices().map(|v| (v + u32::from(v % 3 == m % 3)) % workers as u32);
                EdgeCutPartition::new(workers, owner.collect())
            }
            false => arb_partition(g, workers, cut_seed),
        };
        let mut batches = Vec::new();
        let mut graph = g.clone();
        for &seed in &seeds {
            let batch = arb_mutation(&graph, seed);
            graph = apply_mutations(&graph, &batch);
            batches.push((batch, WarmStart::Incremental));
        }
        let config = CyclopsConfig {
            cluster: ClusterSpec::flat(workers, 1),
            replicate_threshold: threshold,
            ..Default::default()
        };
        for len in 1..=batches.len() {
            let r = run_cyclops_evolving(&MaxPull, &g, cut, &config, &batches[..len]);
            let fresh = CyclopsPlan::build_parallel_with_threshold(&r.graph, &cut(&r.graph), threshold);
            let checked = plans_equal(&r.plan, &fresh)
                .and_then(|_| exactly_sized(&r.plan))
                .and_then(|_| in_refs_name_in_neighbors(&r.plan, &r.graph))
                .and_then(|_| mirrors_name_their_master(&r.plan, &r.graph))
                .and_then(|_| readers_invert_in_refs(&r.plan));
            if let Err(e) = checked {
                prop_assert!(false, "after batch {len}: {e}");
            }
            prop_assert_eq!(r.plan.memory_breakdown(), fresh.memory_breakdown());
        }
    }

    #[test]
    fn replication_factor_matches_partition_metric(
        g in arb_graph(),
        seed in 0u64..1_000,
        workers in 1usize..5,
    ) {
        let p = arb_partition(&g, workers, seed);
        let plan = cyclops_engine::CyclopsPlan::build(&g, &p);
        prop_assert!((plan.replication_factor(&g) - p.replication_factor(&g)).abs() < 1e-12);
    }

    #[test]
    fn per_superstep_messages_bounded_by_replicas(
        g in arb_graph(),
        seed in 0u64..1_000,
        workers in 2usize..5,
    ) {
        // §3.4: each replica receives at most one message per superstep, so
        // per-superstep traffic can never exceed the replica count.
        let p = arb_partition(&g, workers, seed);
        let r = run_cyclops(&MaxPull, &g, &p, &CyclopsConfig {
            cluster: ClusterSpec::flat(workers, 1),
            max_supersteps: 10_000,
            ..Default::default()
        });
        let total_replicas = p.total_replicas(&g);
        for s in &r.stats {
            prop_assert!(
                s.messages_sent <= total_replicas,
                "superstep {} sent {} messages with only {} replicas",
                s.superstep, s.messages_sent, total_replicas
            );
        }
    }
}
