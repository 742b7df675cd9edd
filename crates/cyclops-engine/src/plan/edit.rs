//! Plan edits: a batch of re-seated vertices patches the entries it
//! disturbs and translates the rest, instead of wiring workers again.
//!
//! *Re-seating* `v` on worker `t` derives `v`'s own rows and copies again
//! from the new graph, with `v` a master of `t`. A migration re-seats its
//! movers over one graph. A mutation batch re-seats, over the graphs before
//! and after it, the endpoints of every edge it inserts or removes, every
//! new vertex (which arrives with no old slot) and every vertex whose owner
//! changed; a vertex whose owner did not change is re-seated in place. A
//! vertex that is not re-seated has the same edges in both graphs, so an
//! entry between two such vertices is only translated: indices shift as
//! masters, replicas and direct slots enter or leave a worker's view slot
//! space `[masters | replicas | direct slots]`. So is a re-seated vertex's
//! entry in the row of a neighbour that is not, when it stays on its worker;
//! a move drops those entries and derives them again. So per worker the
//! edit
//!
//! 1. derives a translation from the old slot space to the new one,
//!    monotone on each range, with [`GONE`] for a slot that leaves;
//! 2. copies every table through it, a run of rows no re-seat disturbed in
//!    one pass, dropping activations of masters that left;
//! 3. merges in what the re-seats add: each re-seated vertex's own rows and
//!    copies, from its new adjacency, and its entries in its neighbours'
//!    rows, collected once from that adjacency into a [`Patch`] per worker.
//!
//! Old entries are found with the old graph and new ones derived with the
//! new: an edge can take an endpoint across the replication threshold, which
//! switches it between replica and direct slots. A neighbour's row is
//! patched at the re-seated vertex's entries, never re-derived from the
//! graph: a hub's neighbours hold half the graph's edges. Its in-edge
//! references to a vertex hot in both graphs go through the translation (the
//! vertex is read through one master or replica slot before and after);
//! those to any other are found again by binary search in its sorted
//! in-adjacency. Only the sender rows (`mirrors`) of a re-seated vertex's
//! in-neighbours are recomputed, a hot one from replica membership on the
//! workers it had a copy on or a re-seated vertex reached, a cold one from
//! its adjacency, which is shorter than the threshold. A worker no re-seat
//! touches (no re-seated vertex among its masters, old or new, no master
//! adjacent to one) keeps every table in place and only translates its
//! `mirrors` entries into the workers that changed.
//!
//! The cost is the re-seated vertices' degrees, one pass over the touched
//! workers' tables and `O(V/64)` bitmaps; no other edge is read. Every
//! vector is allocated once at its final length, as in `plan::wire`, so the
//! result is a from-scratch build's plan field for field, memory ledger
//! included.

use super::wire::{below_threshold, exact, par_workers, RankSet};
use super::{CyclopsPlan, WorkerPlan};
use cyclops_graph::{Graph, VertexId};
use cyclops_obs::mem::Component;

/// A translated slot with no counterpart: a master that left, a replica or
/// direct slot no longer read, a cold mover's slot. Also the old owner and
/// old local index of a vertex the old graph did not have.
const GONE: u32 = u32::MAX;

/// Consecutive masters that stay on a worker: old indices `old..old + len`
/// are new indices `new..new + len`.
#[derive(Clone, Copy)]
struct Run {
    old: u32,
    new: u32,
    len: u32,
}

/// What a batch changes on one worker, collected from the movers' adjacency
/// before any worker is edited.
#[derive(Default)]
struct Patch {
    /// Whether any table of the worker changes.
    touched: bool,
    /// The masters that stay, ascending; the new indices between runs are
    /// arriving movers.
    runs: Vec<Run>,
    /// Old master index → new, `GONE` for a master that left.
    map: Vec<u32>,
    /// New indices of the masters that stay but have an out-edge to a
    /// mover, ascending: their sending rows are built afresh.
    fresh_rows: Vec<u32>,
    /// `(source, target)` new local indices of the edges into arriving
    /// movers from masters that stay here.
    local_adds: Vec<(u32, u32)>,
    /// Activations of leaving movers in the rows of masters that stay.
    local_drops: usize,
    /// `(source, target)` of the edges into arriving movers from hot remote
    /// vertices that do not move.
    rep_adds: Vec<(VertexId, u32)>,
    /// `(source owner, source, target, occurrence)`: the direct slots that
    /// edges incident to a mover add here.
    slot_adds: Vec<(u32, VertexId, u32, u32)>,
    /// `(mover, target)` for the movers' out-edges into this worker's
    /// masters, one per run of parallel edges, by mover then target.
    mover_out: Vec<(VertexId, u32)>,
}

impl Patch {
    /// Whether every master that stays keeps its index, so that a row
    /// naming only such masters copies as it is.
    fn keeps_indices(&self) -> bool {
        (0..).zip(&self.map).all(|(li, &to)| to == li || to == GONE)
    }

    /// The new local indices a mover's out-edges reach here, ascending.
    fn mover_row(&self, v: VertexId) -> impl Iterator<Item = u32> + '_ {
        let start = self.mover_out.partition_point(|&(m, _)| m < v);
        let len = self.mover_out[start..].partition_point(|&(m, _)| m == v);
        self.mover_out[start..start + len].iter().map(|&(_, li)| li)
    }
}

/// The row order of a rebuilt table: runs of rows that keep an old row,
/// in order, with new rows between them, and the rows among the kept ones
/// that are built afresh (ascending).
struct Layout<'a> {
    runs: &'a [Run],
    rows: usize,
    fresh: &'a [u32],
}

/// A CSR table in `layout`'s row order, allocated once at its final length
/// (`total` entries, or found through scratch when `None`). A run of kept
/// rows is copied in one pass, entries through `translate` (as they are
/// without one), and so is a run of new rows when `new` holds them by row;
/// `row(r, old, out)` builds a fresh row (`old` is its old index) or a new
/// one (`None`).
fn rebuild<T: Copy>(
    component: Component,
    layout: &Layout,
    total: Option<usize>,
    (old_offsets, old): (&[u32], &[T]),
    new: Option<(&[u32], &[T])>,
    translate: Option<impl Fn(T) -> T>,
    mut row: impl FnMut(usize, Option<usize>, &mut Vec<T>),
) -> (Vec<u32>, Vec<T>) {
    let rows = layout.rows;
    let mut offsets = exact(component, rows + 1);
    let mut entries = match total {
        Some(total) => exact(component, total),
        None => Vec::with_capacity(old.len()),
    };
    offsets.push(0);
    let mut fresh = layout.fresh.iter().map(|&r| r as usize).peekable();
    let mut r = 0;
    let tail = Run {
        old: 0,
        new: rows as u32,
        len: 0,
    };
    for run in layout.runs.iter().chain([&tail]) {
        let (start, end) = (run.new as usize, (run.new + run.len) as usize);
        let old_of = |r: usize| run.old as usize + r - start;
        if let (Some((new_offsets, new)), true) = (new, r < start) {
            let (s, e) = (new_offsets[r] as usize, new_offsets[start] as usize);
            let shift = (entries.len() as u32).wrapping_sub(s as u32);
            let shifted = new_offsets[r + 1..=start].iter();
            offsets.extend(shifted.map(|&o| o.wrapping_add(shift)));
            entries.extend_from_slice(&new[s..e]);
            r = start;
        }
        while r < start {
            row(r, None, &mut entries);
            offsets.push(entries.len() as u32);
            r += 1;
        }
        while r < end {
            let stop = fresh.next_if(|&f| f < end).unwrap_or(end);
            if stop > r {
                let (from, to) = (old_of(r), old_of(stop));
                let (s, e) = (old_offsets[from] as usize, old_offsets[to] as usize);
                let shift = (entries.len() as u32).wrapping_sub(s as u32);
                let shifted = old_offsets[from + 1..=to].iter();
                offsets.extend(shifted.map(|&o| o.wrapping_add(shift)));
                match &translate {
                    Some(translate) => entries.extend(old[s..e].iter().map(|&x| translate(x))),
                    None => entries.extend_from_slice(&old[s..e]),
                }
            }
            r = stop;
            if stop < end {
                row(stop, Some(old_of(stop)), &mut entries);
                offsets.push(entries.len() as u32);
                r += 1;
            }
        }
    }
    if total.is_none() {
        let mut exactly = exact(component, entries.len());
        exactly.extend_from_slice(&entries);
        entries = exactly;
    }
    debug_assert_eq!(offsets.len(), rows + 1);
    debug_assert_eq!(entries.len(), entries.capacity(), "a known total is exact");
    (offsets, entries)
}

/// A touched worker's new slot space, as the workers that send into it
/// need it.
struct Slots {
    /// Old view slot → new view slot, `GONE` where there is none; a hot
    /// mover's old slot maps to the one it is read through now.
    map: Vec<u32>,
    /// Old and new master counts: a remote slot is a view slot minus these.
    old_masters: u32,
    masters: u32,
    /// The new replica set; a member's rank is its replica index.
    replicas: RankSet,
}

impl Slots {
    /// A sender's remote slot here, translated; `GONE` when it left.
    fn remote(&self, slot: u32) -> u32 {
        match self.map[(self.old_masters + slot) as usize] {
            GONE => GONE,
            to => to - self.masters,
        }
    }
}

/// What every worker's edit reads.
struct Ctx<'a> {
    /// The graph the plan was built for, and the one it is edited to.
    old: &'a Graph,
    graph: &'a Graph,
    /// Post-move owners and local indices.
    owner: &'a [u32],
    local_of: &'a [u32],
    threshold: u32,
    /// `(vertex, from, to, old local index)` per re-seated vertex (a
    /// *mover*, in place when `from == to`), by vertex; `from` and the index
    /// are `GONE` for a new vertex.
    movers: &'a [(VertexId, u32, u32, u32)],
    /// The workers movers arrive at, ascending.
    dests: &'a [u32],
    moved: &'a RankSet,
    /// The movers and the vertices with an out-edge to one: whose rows are
    /// built afresh rather than translated.
    fresh: &'a RankSet,
}

impl Ctx<'_> {
    /// Whether `u` is cold in the new graph.
    fn cold(&self, u: VertexId) -> bool {
        below_threshold(self.graph, u, self.threshold)
    }

    /// Whether a mover is hot in both graphs, so that every worker reads it
    /// through one master or replica slot before and after.
    fn stays_hot(&self, &(v, from, ..): &(VertexId, u32, u32, u32)) -> bool {
        from != GONE && !below_threshold(self.old, v, self.threshold) && !self.cold(v)
    }
}

/// `(row, value)` pairs grouped by row, each row keeping input order.
struct Grouped {
    offsets: Vec<u32>,
    values: Vec<u32>,
}

impl Grouped {
    fn new(rows: usize, pairs: impl ExactSizeIterator<Item = (u32, u32)> + Clone) -> Grouped {
        if pairs.len() == 0 {
            return Grouped {
                offsets: Vec::new(),
                values: Vec::new(),
            };
        }
        // A counting sort that counts two places ahead, so the fill, which
        // advances `offsets[r + 1]` from row `r`'s start, leaves its end.
        let mut offsets = vec![0u32; rows + 2];
        for (r, _) in pairs.clone() {
            offsets[r as usize + 2] += 1;
        }
        for r in 2..rows + 2 {
            offsets[r] += offsets[r - 1];
        }
        let mut values = vec![0u32; pairs.len()];
        for (r, value) in pairs {
            let at = &mut offsets[r as usize + 1];
            values[*at as usize] = value;
            *at += 1;
        }
        offsets.pop();
        Grouped { offsets, values }
    }

    fn row(&self, r: usize) -> &[u32] {
        match self.offsets.get(r..r + 2) {
            Some(&[start, end]) => &self.values[start as usize..end as usize],
            _ => &[],
        }
    }
}

/// The old activation row `old` translated through the master range of
/// `map` (activations of masters that left dropped), merged with the
/// ascending `added` entries.
fn merge_row(out: &mut Vec<u32>, old: &[u32], map: &[u32], masters: u32, added: &[u32]) {
    let kept = old
        .iter()
        .map(|&li| map[li as usize])
        .filter(|&li| li < masters);
    if added.is_empty() {
        return out.extend(kept);
    }
    let mut added = added.iter().copied().peekable();
    for li in kept {
        while let Some(a) = added.next_if(|&a| a < li) {
            out.push(a);
        }
        out.push(li);
    }
    out.extend(added);
}

/// Re-seats each `(vertex, old owner, new owner)` of `seats` over `graph`,
/// which replaced `old` (the graph the plan was built for; `graph` may only
/// add vertices to it), and edits the plan's tables to match; see the
/// module docs. The old owner is `None` for a vertex `old` does not have.
/// Every such vertex must be seated, and so must both endpoints of every
/// edge the two graphs do not share. The caller recounts the ingress
/// statistics.
pub(crate) fn reseat(
    plan: &mut CyclopsPlan,
    old: &Graph,
    graph: &Graph,
    seats: impl IntoIterator<Item = (VertexId, Option<u32>, u32)>,
    threshold: u32,
) {
    let k = plan.workers.len();
    let (old_n, n) = (old.num_vertices(), graph.num_vertices());
    assert!(
        plan.owner.len() == old_n && old_n <= n,
        "the plan is built for the old graph, and the new one only adds vertices"
    );
    if n > old_n {
        for table in [&mut plan.owner, &mut plan.local_of] {
            let mut grown = exact(Component::Plan, n);
            grown.extend_from_slice(table);
            grown.resize(n, GONE);
            *table = grown;
        }
    }
    let CyclopsPlan {
        workers,
        owner,
        local_of,
        ..
    } = plan;

    // Ownership transfer; movers in id order.
    let mut movers = Vec::new();
    for (v, from, to) in seats {
        let i = v as usize;
        assert_eq!(
            owner[i],
            from.unwrap_or(GONE),
            "a move's source owns the vertex"
        );
        assert!((to as usize) < k, "destination worker out of range");
        owner[i] = to;
        movers.push((v, from.unwrap_or(GONE), to, local_of[i]));
    }
    movers.sort_unstable();
    assert!(
        movers.windows(2).all(|m| m[0].0 < m[1].0),
        "a batch re-seats a vertex at most once"
    );
    assert!(
        !owner[old_n..].contains(&GONE),
        "every new vertex is seated"
    );
    if movers.is_empty() {
        return;
    }
    let ids: Vec<VertexId> = movers.iter().map(|m| m.0).collect();
    let moved = RankSet::of(n, &ids);

    // Master lists of the workers movers leave or reach.
    let mut patches: Vec<Patch> = (0..k).map(|_| Patch::default()).collect();
    for &(_, from, to, _) in &movers {
        if let Some(patch) = patches.get_mut(from as usize) {
            patch.touched = true;
        }
        patches[to as usize].touched = true;
    }
    for (w, (wp, patch)) in workers.iter_mut().zip(&mut patches).enumerate() {
        if patch.touched {
            remaster(w as u32, wp, patch, &movers, local_of);
        }
    }

    // The movers' entries in their neighbours' rows. A vertex that moves
    // too is left to its own rows; one that does not has the same edges to
    // the mover in both graphs, so the new adjacency finds its old entries
    // as well as its new ones. The pass is serial: split into spans of
    // the movers' adjacency, merging the spans' patches cost more than the
    // split saved on two cores.
    let mut fresh = RankSet::of(n, &ids);
    for &(v, from, to, _) in &movers {
        let li_v = local_of[v as usize];
        // A vertex re-seated in place keeps its entries in its neighbours'
        // rows: its edges to them, its worker and their view of it stay.
        let sources = match from == to {
            true => &[][..],
            false => graph.in_neighbors(v),
        };
        for run in sources.chunk_by(|a, b| a == b) {
            let u = run[0];
            if moved.contains(u) {
                continue;
            }
            let (ou, li_u) = (owner[u as usize], local_of[u as usize]);
            let patch = &mut patches[ou as usize];
            patch.touched = true;
            patch.local_drops += (ou == from) as usize;
            if !fresh.contains(u) {
                fresh.insert_if(u, true);
                patch.fresh_rows.push(li_u);
            }
            let patch = &mut patches[to as usize];
            if ou == to {
                patch.local_adds.push((li_u, li_v));
            } else if below_threshold(graph, u, threshold) {
                let slots = (0..run.len() as u32).map(|occ| (ou, u, li_v, occ));
                patch.slot_adds.extend(slots);
            } else {
                patch.rep_adds.push((u, li_v));
            }
        }
        let cold = below_threshold(graph, v, threshold);
        for run in graph.out_neighbors(v).chunk_by(|a, b| a == b) {
            let x = run[0];
            let (p, li_x) = (owner[x as usize], local_of[x as usize]);
            let patch = &mut patches[p as usize];
            patch.touched = true;
            patch.mover_out.push((v, li_x));
            if cold && p != to {
                let slots = (0..run.len() as u32).map(|occ| (to, v, li_x, occ));
                patch.slot_adds.extend(slots);
            }
        }
    }
    for (w, (wp, patch)) in workers.iter().zip(&mut patches).enumerate() {
        patch.fresh_rows.sort_unstable();
        patch.slot_adds.sort_unstable();
        let remastered = movers.iter().any(|m| m.1 == w as u32 || m.2 == w as u32);
        if patch.touched && !remastered {
            let len = wp.masters.len() as u32;
            patch.runs = vec![Run {
                old: 0,
                new: 0,
                len,
            }];
            patch.map = (0..len).collect();
        }
    }

    let mut dests: Vec<u32> = movers.iter().map(|m| m.2).collect();
    dests.sort_unstable();
    dests.dedup();
    let ctx = Ctx {
        old,
        graph,
        owner,
        local_of,
        threshold,
        movers: &movers,
        dests: &dests,
        moved: &moved,
        fresh: &fresh,
    };
    // Each touched worker's receiving half and local fan-out read only its
    // own old tables and the patch, so all of them run at once, the larger
    // receiving half of each worker queued first; the worker with the most
    // in-edges has the most of both.
    let before: &[WorkerPlan] = &workers[..];
    let halves = (0..2 * k).map(|job| (job / 2, job % 2 == 1));
    let mut edited = par_workers(halves, |_, (w, local)| {
        let patch = &patches[w];
        patch.touched.then(|| match local {
            true => Edited::Local(local_fan_out(&ctx, w, &before[w], patch)),
            false => Edited::Received(Box::new(receive(&ctx, w, &before[w], patch))),
        })
    })
    .into_iter();
    let mut slots = Vec::with_capacity(k);
    let mut local = Vec::with_capacity(k);
    for wp in workers.iter_mut() {
        let (lo, received) = match (edited.next().flatten(), edited.next().flatten()) {
            (Some(Edited::Received(received)), Some(Edited::Local(lo))) => {
                let (tables, s) = *received;
                tables.install(wp);
                (Some(lo), Some(s))
            }
            _ => (None, None),
        };
        local.push(lo);
        slots.push(received);
    }

    // The remote fan-out points into every receiving half, so it comes
    // last; a worker no move touches only translates its entries.
    let edited: &[WorkerPlan] = &workers[..];
    let remote = par_workers(patches.iter(), |w, patch| {
        patch
            .touched
            .then(|| remote_fan_out(&ctx, w, edited, patch, &slots))
    });
    for ((wp, local), remote) in workers.iter_mut().zip(local).zip(remote) {
        let (Some(local), Some(remote)) = (local, remote) else {
            for (p, slot) in wp.mirrors.iter_mut() {
                if let Some(to) = &slots[*p as usize] {
                    *slot = to.remote(*slot);
                }
            }
            continue;
        };
        (wp.local_out_offsets, wp.local_out) = local;
        (wp.mirror_offsets, wp.mirrors) = remote;
        wp.work_mass = exact(Component::Plan, wp.num_masters());
        wp.work_mass.extend((0..wp.num_masters()).map(|li| {
            let row = |offsets: &[u32]| offsets[li + 1] - offsets[li];
            row(&wp.in_ref_offsets) + row(&wp.local_out_offsets) + row(&wp.mirror_offsets) + 1
        }));
    }
}

/// What one job of the first phase produced for a touched worker.
enum Edited {
    Local((Vec<u32>, Vec<u32>)),
    Received(Box<(Receiving, Slots)>),
}

/// Drops the movers from worker `w`'s master list and merges the arriving
/// ones in, recording the runs of masters that stay, the master range of
/// the slot map and the new local indices.
fn remaster(
    w: u32,
    wp: &mut WorkerPlan,
    patch: &mut Patch,
    movers: &[(VertexId, u32, u32, u32)],
    local_of: &mut [u32],
) {
    let old = &wp.masters;
    let leaving = movers.iter().filter(|m| m.1 == w);
    let mut leaving = leaving.map(|&(v, _, to, li)| (li, v, to == w)).peekable();
    let mut arriving = movers.iter().filter(|m| m.2 == w).map(|m| m.0).peekable();
    let len = old.len() - leaving.clone().count() + arriving.clone().count();
    let mut masters = exact(Component::Plan, len);
    let mut map = Vec::with_capacity(old.len());
    let mut at = 0;
    loop {
        // Up to the next leaving master, or the old master an arriving one
        // precedes, the masters stay in a run.
        let leave = leaving.peek().map_or(old.len(), |&(li, ..)| li as usize);
        let arrive = arriving
            .peek()
            .map_or(old.len(), |&a| old.partition_point(|&m| m < a));
        let stop = leave.min(arrive);
        if stop > at {
            let new = masters.len() as u32;
            for (li, &v) in (new..).zip(&old[at..stop]) {
                local_of[v as usize] = li;
            }
            map.extend(new..new + (stop - at) as u32);
            masters.extend_from_slice(&old[at..stop]);
            let (old, len) = (at as u32, (stop - at) as u32);
            patch.runs.push(Run { old, new, len });
            at = stop;
        }
        if let Some(a) = arriving.next_if(|_| arrive == stop && arrive <= leave) {
            local_of[a as usize] = masters.len() as u32;
            masters.push(a);
        } else if let Some((_, v, in_place)) = leaving.next_if(|_| leave == stop) {
            // A vertex re-seated in place arrived just before: its entries
            // in the rows of the masters that stay translate to its new
            // index, only its own rows are new.
            map.push(if in_place { local_of[v as usize] } else { GONE });
            at += 1;
        } else {
            break;
        }
    }
    wp.masters = masters;
    patch.map = map;
}

/// Worker `w`'s new receiving half — replicas, in-edge references, replica
/// activation fan-out, direct slots — and the translation of its slot space.
fn receive(ctx: &Ctx, w: usize, wp: &WorkerPlan, patch: &Patch) -> (Receiving, Slots) {
    let (graph, owner, me) = (ctx.graph, ctx.owner, w as u32);
    let masters = wp.masters.len() as u32;
    let old_masters = patch.map.len();
    let stays = |li: u32| patch.map[li as usize] < masters;

    // Replicas: the old ones that still activate a master here, the hot
    // vertices that reach an arriving master, the hot movers that reach one.
    let mut replicas = RankSet::new(graph.num_vertices());
    for (i, &u) in wp.replicas.iter().enumerate() {
        let kept = !ctx.moved.contains(u) && wp.rep_out(i).iter().any(|&li| stays(li));
        replicas.insert_if(u, kept);
    }
    for &(u, _) in &patch.rep_adds {
        replicas.insert_if(u, true);
    }
    for &(v, _) in &patch.mover_out {
        replicas.insert_if(v, owner[v as usize] != me && !ctx.cold(v));
    }
    let num_replicas = replicas.seal();
    let mut replica_ids = exact(Component::Replicas, num_replicas);
    replica_ids.extend(replicas.iter());

    // Replica activation fan-out, in the new replica order. Copies that
    // stay form runs like the masters; the row of one whose vertex reaches
    // a mover is translated and merged with the arriving masters it reaches
    // now. A new copy's row is those arriving masters, or a mover's
    // out-edges here: grouped by row in one pass, and copied in runs.
    let mover_rows = patch
        .mover_out
        .iter()
        .filter(|&&(v, _)| replicas.contains(v));
    let added: Vec<(u32, u32)> = (patch.rep_adds.iter().chain(mover_rows))
        .map(|&(u, li)| (replicas.rank(u), li))
        .collect();
    let added = Grouped::new(num_replicas, added.iter().copied());
    let (mut runs, mut fresh): (Vec<Run>, Vec<u32>) = (Vec::new(), Vec::new());
    for (i, &u) in wp.replicas.iter().enumerate() {
        if ctx.moved.contains(u) || !replicas.contains(u) {
            continue;
        }
        let (old, new) = (i as u32, replicas.rank(u));
        match runs.last_mut() {
            Some(run) if run.old + run.len == old && run.new + run.len == new => run.len += 1,
            _ => runs.push(Run { old, new, len: 1 }),
        }
        if ctx.fresh.contains(u) {
            fresh.push(new);
        }
    }
    let by_replica = Layout {
        runs: &runs,
        rows: num_replicas,
        fresh: &fresh,
    };
    let (rep_out_offsets, rep_out) = rebuild(
        Component::Replicas,
        &by_replica,
        None,
        (&wp.rep_out_offsets, &wp.rep_out),
        (!added.offsets.is_empty()).then_some((&added.offsets, &added.values)),
        (!patch.keeps_indices()).then_some(|li: u32| patch.map[li as usize]),
        |r, old, out| match old {
            Some(i) => merge_row(out, wp.rep_out(i), &patch.map, masters, added.row(r)),
            None => out.extend_from_slice(added.row(r)),
        },
    );

    // Direct slots keep the builder's order (source owner, source, target,
    // occurrence): the surviving ones keep theirs under the monotone master
    // translation, and the added ones merge in.
    let direct_base = masters + num_replicas as u32;
    let alive = |i: usize| !ctx.moved.contains(wp.direct_source[i]) && stays(wp.direct_target[i]);
    let old_slots = wp.direct_source.len();
    let num_slots = (0..old_slots).filter(|&i| alive(i)).count() + patch.slot_adds.len();
    let mut direct_source = exact(Component::DirectSlots, num_slots);
    let mut direct_target = exact(Component::DirectSlots, num_slots);
    let mut direct_map = vec![GONE; old_slots];
    let mut adds = patch.slot_adds.iter().peekable();
    for i in (0..old_slots).filter(|&i| alive(i)) {
        let (s, t) = (wp.direct_source[i], patch.map[wp.direct_target[i] as usize]);
        let key = (owner[s as usize], s, t);
        while let Some(&(_, u, li, _)) = adds.next_if(|a| (a.0, a.1, a.2) < key) {
            direct_source.push(u);
            direct_target.push(li);
        }
        direct_map[i] = direct_base + direct_source.len() as u32;
        direct_source.push(s);
        direct_target.push(t);
    }
    for &(_, u, li, _) in adds {
        direct_source.push(u);
        direct_target.push(li);
    }

    // The rest of the slot map. A mover hot in both graphs is read through
    // one slot here before and after (master or replica), so its old slot
    // maps to its new one; any other mover's references are found again
    // below, per edge.
    let replica_slot = |u: VertexId| masters + replicas.rank(u);
    let mut map = Vec::with_capacity(old_masters + wp.replicas.len() + old_slots);
    map.extend_from_slice(&patch.map);
    map.extend(
        wp.replicas
            .iter()
            .map(|&u| match replicas.contains(u) && !ctx.moved.contains(u) {
                true => replica_slot(u),
                false => GONE,
            }),
    );
    map.extend(direct_map);
    for &(v, from, to, old_li) in ctx.movers.iter().filter(|m| ctx.stays_hot(m)) {
        let old_slot = match wp.replicas.binary_search(&v) {
            _ if from == me => old_li as usize,
            Ok(i) => old_masters + i,
            Err(_) => continue,
        };
        map[old_slot] = match to == me {
            true => ctx.local_of[v as usize],
            false if replicas.contains(v) => replica_slot(v),
            false => GONE,
        };
    }

    // In-edge references: rows of masters that stay go through the map, an
    // arriving master's row is derived from its in-edges.
    let resolve = |li: usize, sources: &[VertexId], pos: usize| -> u32 {
        let u = sources[pos];
        if replicas.contains(u) {
            return replica_slot(u);
        }
        if owner[u as usize] == me {
            return ctx.local_of[u as usize];
        }
        let occ = sources[..pos].iter().rev().take_while(|&&y| y == u).count();
        let key = (owner[u as usize], u);
        let start = direct_source.partition_point(|&s| (owner[s as usize], s) < key);
        let before = direct_source[start..]
            .iter()
            .zip(&direct_target[start..])
            .take_while(|&(&s, &t)| s == u && t < li as u32)
            .count();
        direct_base + (start + before + occ) as u32
    };
    let mut total = wp.in_refs.len();
    for &(v, from, to, _) in ctx.movers {
        if to == me {
            total += graph.in_degree(v);
        }
        if from == me {
            total -= ctx.old.in_degree(v);
        }
    }
    let by_master = Layout {
        runs: &patch.runs,
        rows: masters as usize,
        fresh: &[],
    };
    let (in_ref_offsets, mut in_refs) = rebuild(
        Component::Plan,
        &by_master,
        Some(total),
        (&wp.in_ref_offsets, &wp.in_refs),
        None,
        Some(|r: u32| map[r as usize]),
        |li, _, out| {
            let sources = graph.in_neighbors(wp.masters[li]);
            out.extend((0..sources.len()).map(|pos| resolve(li, sources, pos)));
        },
    );
    // The other movers' references from masters that stay: a run of
    // parallel edges in each out-neighbour's sorted in-adjacency (the same in
    // both graphs, as the neighbour is not re-seated).
    for &(v, ..) in ctx.movers.iter().filter(|m| !ctx.stays_hot(m)) {
        for run in graph.out_neighbors(v).chunk_by(|a, b| a == b) {
            let x = run[0];
            if owner[x as usize] != me || ctx.moved.contains(x) {
                continue;
            }
            let li = ctx.local_of[x as usize] as usize;
            let sources = graph.in_neighbors(x);
            let first = sources.partition_point(|&u| u < v);
            for pos in first..first + run.len() {
                in_refs[in_ref_offsets[li] as usize + pos] = resolve(li, sources, pos);
            }
        }
    }
    debug_assert!(!in_refs.contains(&GONE), "every reference resolved");
    let in_weights = match graph.is_weighted() {
        false => exact(Component::Plan, 0),
        true => {
            let weights = |li: usize, _, out: &mut Vec<f64>| {
                out.extend_from_slice(graph.in_weights(wp.masters[li]))
            };
            let old = (&wp.in_ref_offsets[..], &wp.in_weights[..]);
            rebuild(
                Component::Plan,
                &by_master,
                Some(total),
                old,
                None,
                None::<fn(f64) -> f64>,
                weights,
            )
            .1
        }
    };

    let tables = Receiving {
        replicas: replica_ids,
        in_ref_offsets,
        in_refs,
        in_weights,
        rep_out_offsets,
        rep_out,
        direct_source,
        direct_target,
    };
    let slots = Slots {
        map,
        old_masters: old_masters as u32,
        masters,
        replicas,
    };
    (tables, slots)
}

/// A touched worker's new receiving half.
struct Receiving {
    replicas: Vec<VertexId>,
    in_ref_offsets: Vec<u32>,
    in_refs: Vec<u32>,
    in_weights: Vec<f64>,
    rep_out_offsets: Vec<u32>,
    rep_out: Vec<u32>,
    direct_source: Vec<VertexId>,
    direct_target: Vec<u32>,
}

impl Receiving {
    fn install(self, wp: &mut WorkerPlan) {
        wp.replicas = self.replicas;
        wp.in_ref_offsets = self.in_ref_offsets;
        wp.in_refs = self.in_refs;
        wp.in_weights = self.in_weights;
        wp.rep_out_offsets = self.rep_out_offsets;
        wp.rep_out = self.rep_out;
        wp.direct_source = self.direct_source;
        wp.direct_target = self.direct_target;
    }
}

/// Worker `w`'s new local activation fan-out, from its old one: a fresh row
/// drops its activations of leaving masters and gains those of arriving
/// ones, and an arriving master's row is its out-edges here.
fn local_fan_out(ctx: &Ctx, w: usize, wp: &WorkerPlan, patch: &Patch) -> (Vec<u32>, Vec<u32>) {
    let (me, map, masters) = (w as u32, &patch.map[..], wp.masters.len());
    let added = Grouped::new(masters, patch.local_adds.iter().copied());
    let mut total = wp.local_out.len() + patch.local_adds.len() - patch.local_drops;
    for &(v, from, to, old_li) in ctx.movers {
        if to == me {
            total += patch.mover_row(v).count();
        }
        if from == me {
            total -= wp.local_out(old_li as usize).len();
        }
    }
    let by_master = Layout {
        runs: &patch.runs,
        rows: masters,
        fresh: &patch.fresh_rows,
    };
    rebuild(
        Component::Plan,
        &by_master,
        Some(total),
        (&wp.local_out_offsets, &wp.local_out),
        None,
        (!patch.keeps_indices()).then_some(|li: u32| map[li as usize]),
        |li, old, out| match old {
            None => out.extend(patch.mover_row(wp.masters[li])),
            Some(old) => merge_row(out, wp.local_out(old), map, masters as u32, added.row(li)),
        },
    )
}

/// Worker `w`'s new remote fan-out (`mirrors`), from its old one, once
/// every receiving half is edited.
fn remote_fan_out(
    ctx: &Ctx,
    w: usize,
    workers: &[WorkerPlan],
    patch: &Patch,
    slots: &[Option<Slots>],
) -> (Vec<u32>, Vec<(u32, u32)>) {
    let (wp, me) = (&workers[w], w as u32);
    let by_master = Layout {
        runs: &patch.runs,
        rows: wp.masters.len(),
        fresh: &patch.fresh_rows,
    };
    // A fresh sender row is recomputed. A hot one follows the receivers'
    // replica sets: a vertex that stays can lose a copy only where it had
    // one and gain one only where a mover arrived, so those workers are
    // asked and every other entry is kept; a mover asks every touched
    // worker, as every worker owning an out-neighbour of it is touched. A
    // cold one follows its out-edges, naming its direct slots on each
    // worker one after another.
    let member = |p: u32, u: VertexId| {
        let to = slots[p as usize].as_ref()?;
        to.replicas.contains(u).then(|| (p, to.replicas.rank(u)))
    };
    let fresh_row = |u: VertexId, old: Option<usize>, out: &mut Vec<(u32, u32)>| {
        if !ctx.cold(u) {
            let Some(old) = old else {
                let others = (0..workers.len() as u32).filter(|&p| p != me);
                out.extend(others.filter_map(|p| member(p, u)));
                return;
            };
            let (had, start) = (wp.mirrors(old), out.len());
            for &(p, slot) in had {
                let slot = slots[p as usize]
                    .as_ref()
                    .map_or(slot, |to| to.remote(slot));
                if slot != GONE {
                    out.push((p, slot));
                }
            }
            let gained = ctx.dests.iter().filter_map(|&p| member(p, u));
            out.extend(gained.filter(|&(p, _)| had.iter().all(|e| e.0 != p)));
            out[start..].sort_unstable_by_key(|&(p, _)| p);
            return;
        }
        let mut next: Vec<(u32, u32)> = Vec::new();
        for &x in ctx.graph.out_neighbors(u) {
            let p = ctx.owner[x as usize];
            if p == me {
                continue;
            }
            let at = next.iter().position(|&(q, _)| q == p).unwrap_or_else(|| {
                let (to, owner) = (&workers[p as usize], ctx.owner);
                let first = to
                    .direct_source
                    .partition_point(|&s| (owner[s as usize], s) < (me, u));
                next.push((p, (to.replicas.len() + first) as u32));
                next.len() - 1
            });
            out.push(next[at]);
            next[at].1 += 1;
        }
    };
    rebuild(
        Component::Replicas,
        &by_master,
        None,
        (&wp.mirror_offsets, &wp.mirrors),
        None,
        Some(|(p, slot): (u32, u32)| match &slots[p as usize] {
            Some(to) => (p, to.remote(slot)),
            None => (p, slot),
        }),
        |li, old, out| fresh_row(wp.masters[li], old, out),
    )
}

#[cfg(test)]
mod tests {
    use crate::apply_migration;
    use crate::plan::tests::assert_plans_equal;
    use crate::plan::CyclopsPlan;
    use cyclops_graph::gen::{rmat, RmatConfig};
    use cyclops_graph::{Dataset, Graph};
    use cyclops_partition::{
        EdgeCutPartition, EdgeCutPartitioner, HashPartitioner, LoadLedger, MigrationBatch,
        MigrationConfig, MigrationPlanner, VertexMove,
    };

    fn rebuilt(g: &Graph, plan: &CyclopsPlan, threshold: u32) -> CyclopsPlan {
        let cut = EdgeCutPartition::new(plan.workers.len(), plan.owner.clone());
        CyclopsPlan::build_parallel_with_threshold(g, &cut, threshold)
    }

    #[test]
    fn moving_a_batch_back_restores_the_plan() {
        let g = rmat(
            RmatConfig {
                scale: 8,
                edges: 2_000,
                simple: false,
                ..Default::default()
            },
            5,
        );
        let p = HashPartitioner.partition(&g, 3);
        for threshold in [0u32, 3, u32::MAX] {
            let original = CyclopsPlan::build_parallel_with_threshold(&g, &p, threshold);
            let mut plan = original.clone();
            let moves: Vec<VertexMove> = [0u32, 1, 2, 3, 17, 64]
                .iter()
                .map(|&vertex| {
                    let from = plan.owner[vertex as usize];
                    let to = (from + 1 + vertex % 2) % 3;
                    VertexMove {
                        vertex,
                        from,
                        to,
                        cost: 1,
                    }
                })
                .collect();
            let back = moves
                .iter()
                .map(|mv| VertexMove {
                    from: mv.to,
                    to: mv.from,
                    ..*mv
                })
                .collect();
            apply_migration(&mut plan, &g, &MigrationBatch { moves }, threshold);
            assert_plans_equal(&plan, &rebuilt(&g, &plan, threshold));
            apply_migration(&mut plan, &g, &MigrationBatch { moves: back }, threshold);
            assert_plans_equal(&plan, &original);
        }
    }

    /// The benchmark's regime at a quarter of its size: GWeb with the first
    /// 60 % of the ids piled on worker 0 of two, hybrid replication at the
    /// automatic threshold, and the planner's batches of hubs from a degree
    /// ledger, three chained.
    #[test]
    fn planner_batches_on_a_piled_gweb_equal_a_rebuild() {
        let g = Dataset::GWeb.generate_scaled(1.0, Dataset::GWeb.default_seed());
        let mut assignment = HashPartitioner.partition(&g, 2).assignment;
        let pile = g.num_vertices() * 6 / 10;
        assignment[..pile].fill(0);
        let p = EdgeCutPartition::new(2, assignment);
        let threshold = p.auto_replicate_threshold(&g);
        let ledger = LoadLedger::new(g.num_vertices());
        for v in g.vertices() {
            ledger.record(v, (g.in_degree(v) + g.out_degree(v)) as u64);
        }
        let planner = MigrationPlanner::new(MigrationConfig::default());
        let mut plan = CyclopsPlan::build_parallel_with_threshold(&g, &p, threshold);
        for round in 0..3 {
            let batch = planner.plan(&ledger, &plan.owner, 2);
            assert!(
                !batch.is_empty(),
                "round {round}: the pile still needs moves"
            );
            apply_migration(&mut plan, &g, &batch, threshold);
            assert_plans_equal(&plan, &rebuilt(&g, &plan, threshold));
        }
    }
}
