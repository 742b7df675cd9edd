//! Linear-time plan wiring: the routine behind the parallel build.
//!
//! A worker's tables are wired in two halves, each a count pass followed by
//! a fill pass into vectors allocated once at their final length:
//!
//! * [`wire_inbound`] reads the in-edges of the worker's masters and builds
//!   everything the worker *receives through*: its replica list, in-edge
//!   references, replica activation fan-out and direct-slot tables. It
//!   returns an [`Inbound`] index — two rank bitmaps — that tells senders
//!   at which remote slot (replica index, or replica count + direct slot) a
//!   remote vertex lands here.
//! * [`wire_outbound`] reads the out-edges of the worker's masters and
//!   builds what it *sends through*: local activation fan-out, the remote
//!   fan-out table (`mirrors`) and work mass, resolving remote slots through
//!   every worker's [`Inbound`].
//!
//! Migration and mutation batches do not come here: `plan::edit` patches
//! the tables a batch disturbs and shares only the helpers below.
//!
//! Nothing is searched, sorted or hashed per edge (a master's mirror
//! workers, fewer than `k`, are put in order). Both halves lean on the
//! [`Graph`] invariant that adjacency lists are sorted by neighbor id, so
//! parallel edges are adjacent (a run, detected by comparing with the
//! previous neighbor) and the local indices of one worker's vertices rise
//! with their ids. Work is `O(V/64 + edges of the worker)` per half;
//! scratch is the rank bitmaps (1.5 bits per vertex each), one cursor per
//! replica and cold source, and `k`-sized stamps.
//!
//! [`CyclopsPlan::build_with_threshold`](super::CyclopsPlan::build_with_threshold)
//! is the independent per-edge-search construction the tests hold this
//! module equal to, field for field.

use super::WorkerPlan;
use cyclops_graph::{Graph, VertexId, INVALID_VERTEX};
use cyclops_obs::mem::{Component, MemScope};
use parking_lot::Mutex;

/// An empty vector with room for exactly `len` elements, allocated under
/// `component`'s scope so the memory ledger attributes it without a
/// re-materializing copy.
pub(super) fn exact<T>(component: Component, len: usize) -> Vec<T> {
    let _scope = MemScope::enter(component);
    Vec::with_capacity(len)
}

/// [`exact`], filled with `value` (for tables written by index).
fn filled<T: Clone>(component: Component, len: usize, value: T) -> Vec<T> {
    let _scope = MemScope::enter(component);
    vec![value; len]
}

/// Whether `u`'s combined degree is below the replication threshold: with a
/// cross-worker out-edge that makes `u` a cold boundary vertex (messaged
/// through direct slots, not replicated). Threshold 0 is never below, and
/// says so without touching the graph.
#[inline]
pub(super) fn below_threshold(graph: &Graph, u: VertexId, threshold: u32) -> bool {
    threshold > 0 && ((graph.out_degree(u) + graph.in_degree(u)) as u64) < threshold as u64
}

/// A set of vertex ids as a bitmap with O(1) rank: the index of a member
/// among the members in ascending order.
pub(super) struct RankSet {
    words: Vec<u64>,
    /// Members before each word; filled by [`Self::seal`].
    before: Vec<u32>,
    /// Number of members; set by [`Self::seal`].
    len: usize,
}

impl RankSet {
    pub(super) fn new(num_vertices: usize) -> RankSet {
        RankSet {
            words: vec![0; num_vertices.div_ceil(64)],
            before: Vec::new(),
            len: 0,
        }
    }

    /// The sealed set of `members`.
    pub(super) fn of(num_vertices: usize, members: &[VertexId]) -> RankSet {
        let mut set = RankSet::new(num_vertices);
        for &v in members {
            set.insert_if(v, true);
        }
        set.seal();
        set
    }

    /// Inserts `v` if `wanted`, without branching on it: on a hash cut
    /// "is this neighbor remote" is a coin flip per edge.
    #[inline]
    pub(super) fn insert_if(&mut self, v: VertexId, wanted: bool) {
        self.words[(v >> 6) as usize] |= (wanted as u64) << (v & 63);
    }

    #[inline]
    pub(super) fn contains(&self, v: VertexId) -> bool {
        self.words[(v >> 6) as usize] >> (v & 63) & 1 == 1
    }

    /// Ends the insert phase: computes the ranks and returns the size.
    pub(super) fn seal(&mut self) -> usize {
        let mut total = 0u32;
        self.before = self
            .words
            .iter()
            .map(|w| {
                let before = total;
                total += w.count_ones();
                before
            })
            .collect();
        self.len = total as usize;
        self.len
    }

    /// Index of member `v` in ascending order (sealed sets only).
    #[inline]
    pub(super) fn rank(&self, v: VertexId) -> u32 {
        let i = (v >> 6) as usize;
        self.before[i] + (self.words[i] & ((1u64 << (v & 63)) - 1)).count_ones()
    }

    /// Members in ascending order.
    pub(super) fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    (i as VertexId) << 6 | bit
                })
            })
        })
    }
}

/// Where remote vertices land on one worker: what a sender needs to point
/// its fan-out entries at that worker without searching its tables.
pub(crate) struct Inbound {
    /// The worker's replicas; a member's rank is its replica index.
    replicas: RankSet,
    /// The cold remote sources with direct slots on the worker.
    cold: RankSet,
    /// First direct slot of each cold source, by rank. A source's slots
    /// are contiguous, in the order of its out-edges into the worker.
    slot_start: Vec<u32>,
}

/// LD: hands every vertex to its owner in ascending id order, building the
/// master lists and local indices.
pub(crate) fn load_masters(owner: &[u32], local_of: &mut [u32], workers: &mut [WorkerPlan]) {
    let mut counts = vec![0usize; workers.len()];
    for &w in owner {
        counts[w as usize] += 1;
    }
    for (wp, &count) in workers.iter_mut().zip(&counts) {
        wp.masters = exact(Component::Plan, count);
    }
    for (v, &w) in owner.iter().enumerate() {
        let masters = &mut workers[w as usize].masters;
        local_of[v] = masters.len() as u32;
        masters.push(v as VertexId);
    }
}

/// Runs `f(w, job)` for every job `w` of `jobs` (a worker's tables, or any
/// per-worker item), on as many threads as the machine has cores, the
/// calling one included (each takes the next unclaimed job), and returns
/// the results in job order. A job that panics panics the caller with its
/// own payload, once the other threads have finished.
pub(crate) fn par_workers<T: Send, R: Send>(
    jobs: impl ExactSizeIterator<Item = T> + Send,
    f: impl Fn(usize, T) -> R + Sync,
) -> Vec<R> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(jobs.len());
    if threads <= 1 {
        return jobs.enumerate().map(|(w, job)| f(w, job)).collect();
    }
    let queue = Mutex::new(jobs.enumerate());
    let work = || {
        let mut mine = Vec::new();
        loop {
            let next = queue.lock().next();
            let Some((w, wp)) = next else { break };
            mine.push((w, f(w, wp)));
        }
        mine
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for handle in handles {
            match handle.join() {
                Ok(theirs) => done.extend(theirs),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(w, _)| w);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Wires the receiving half of worker `w` from its master list: replicas,
/// in-edge references and weights, replica activation fan-out and the
/// direct-slot tables.
pub(crate) fn wire_inbound(
    graph: &Graph,
    owner: &[u32],
    local_of: &[u32],
    threshold: u32,
    num_workers: usize,
    w: usize,
    wp: &mut WorkerPlan,
) -> Inbound {
    let me = w as u32;
    let masters = &wp.masters;
    let n = graph.num_vertices();

    // Pass 1: which remote vertices my masters read, split hot (replicated
    // here) from cold (messaged into direct slots). A remote in-neighbor
    // has a cross-worker out-edge by definition, so its degree decides.
    let mut replicas = RankSet::new(n);
    let mut cold = RankSet::new(n);
    let mut num_in_edges = 0usize;
    for &v in masters {
        let sources = graph.in_neighbors(v);
        num_in_edges += sources.len();
        debug_assert!(sources.windows(2).all(|s| s[0] <= s[1]), "sorted adjacency");
        for &u in sources {
            let remote = owner[u as usize] != me;
            let messaged = remote && below_threshold(graph, u, threshold);
            cold.insert_if(u, messaged);
            replicas.insert_if(u, remote & !messaged);
        }
    }
    let num_replicas = replicas.seal();
    let num_cold = cold.seal();

    // Pass 2, per remote source: the masters each replica activates (one
    // per run of parallel edges) and the slots each cold source feeds (one
    // per edge).
    let mut rep_out_offsets = filled(Component::Replicas, num_replicas + 1, 0u32);
    let mut next_slot = vec![0u32; num_cold];
    if num_replicas + num_cold > 0 {
        for &v in masters {
            let mut prev = INVALID_VERTEX;
            for &u in graph.in_neighbors(v) {
                if owner[u as usize] != me {
                    if cold.contains(u) {
                        next_slot[cold.rank(u) as usize] += 1;
                    } else if u != prev {
                        rep_out_offsets[replicas.rank(u) as usize + 1] += 1;
                    }
                }
                prev = u;
            }
        }
    }
    for ri in 0..num_replicas {
        rep_out_offsets[ri + 1] += rep_out_offsets[ri];
    }
    let mut next_rep_out = rep_out_offsets[..num_replicas].to_vec();

    // Direct slots are ordered by (source owner, source, target, occurrence)
    // so that sender and receiver derive the same numbering on their own:
    // bucket the ascending sources by owner, each with its edge count.
    let mut slot_start = vec![0u32; num_cold];
    let mut num_slots = 0u32;
    if num_cold > 0 {
        let mut owner_start = vec![0u32; num_workers];
        for (j, u) in cold.iter().enumerate() {
            owner_start[owner[u as usize] as usize] += next_slot[j];
        }
        for start in owner_start.iter_mut() {
            let count = *start;
            *start = num_slots;
            num_slots += count;
        }
        for (j, u) in cold.iter().enumerate() {
            let start = &mut owner_start[owner[u as usize] as usize];
            slot_start[j] = *start;
            *start += next_slot[j];
        }
        next_slot.copy_from_slice(&slot_start);
    }

    // Pass 3: fill. Masters ascend, so every per-source list comes out in
    // the order of that source's out-edges into this worker. In-edge
    // references are view slots: masters, then replicas, then direct slots.
    let replica_base = masters.len() as u32;
    let direct_base = replica_base + num_replicas as u32;
    let mut in_ref_offsets = exact(Component::Plan, masters.len() + 1);
    let mut in_refs = exact(Component::Plan, num_in_edges);
    let weighted_len = if graph.is_weighted() { num_in_edges } else { 0 };
    let mut in_weights = exact(Component::Plan, weighted_len);
    let mut rep_out = filled(
        Component::Replicas,
        rep_out_offsets[num_replicas] as usize,
        0u32,
    );
    let mut direct_source = filled(Component::DirectSlots, num_slots as usize, 0 as VertexId);
    let mut direct_target = filled(Component::DirectSlots, num_slots as usize, 0u32);
    in_ref_offsets.push(0u32);
    for (li, &v) in masters.iter().enumerate() {
        let mut prev = INVALID_VERTEX;
        for &u in graph.in_neighbors(v) {
            in_refs.push(if owner[u as usize] == me {
                local_of[u as usize]
            } else if cold.contains(u) {
                let next = &mut next_slot[cold.rank(u) as usize];
                let slot = *next;
                *next += 1;
                direct_source[slot as usize] = u;
                direct_target[slot as usize] = li as u32;
                direct_base + slot
            } else {
                let ri = replicas.rank(u);
                if u != prev {
                    let next = &mut next_rep_out[ri as usize];
                    rep_out[*next as usize] = li as u32;
                    *next += 1;
                }
                replica_base + ri
            });
            prev = u;
        }
        in_weights.extend_from_slice(graph.in_weights(v));
        in_ref_offsets.push(in_refs.len() as u32);
    }
    let mut replica_ids = exact(Component::Replicas, num_replicas);
    replica_ids.extend(replicas.iter());

    wp.replicas = replica_ids;
    wp.in_ref_offsets = in_ref_offsets;
    wp.in_refs = in_refs;
    wp.in_weights = in_weights;
    wp.rep_out_offsets = rep_out_offsets;
    wp.rep_out = rep_out;
    wp.direct_source = direct_source;
    wp.direct_target = direct_target;
    Inbound {
        replicas,
        cold,
        slot_start,
    }
}

/// Points a master's remote fan-out entries at their remote slots on the
/// receiving workers.
struct Pointer<'a> {
    inbound: &'a [Inbound],
    /// `seen[p] == li + 1` once cold master `li` has an entry for worker
    /// `p`; the tags rise with `li`, so the stamp never needs clearing.
    seen: Vec<u32>,
    /// Next remote slot on each worker for the current cold master.
    next_slot: Vec<u32>,
}

impl<'a> Pointer<'a> {
    fn new(inbound: &'a [Inbound]) -> Pointer<'a> {
        Pointer {
            inbound,
            seen: vec![0; inbound.len()],
            next_slot: vec![0; inbound.len()],
        }
    }

    /// Resolves the entries of master `li` (vertex `u`). Where `u` is
    /// replicated the entry gets its replica index; where it is messaged,
    /// the entries for a worker get `u`'s direct slots there in edge order,
    /// past the worker's replicas.
    fn point(&mut self, li: usize, u: VertexId, entries: &mut [(u32, u32)]) {
        let tag = li as u32 + 1;
        for (p, slot) in entries {
            let p = *p as usize;
            let to = &self.inbound[p];
            if to.replicas.contains(u) {
                *slot = to.replicas.rank(u);
                continue;
            }
            if self.seen[p] != tag {
                self.seen[p] = tag;
                let first = to.slot_start[to.cold.rank(u) as usize];
                self.next_slot[p] = to.replicas.len as u32 + first;
            }
            *slot = self.next_slot[p];
            self.next_slot[p] += 1;
        }
    }
}

/// Wires the sending half of worker `w`: local activation fan-out, then per
/// master its remote fan-out — one entry per mirror worker (hot) or one per
/// cross-worker out-edge (cold) — and the work mass. `inbound[p]` must
/// describe worker `p`'s current receiving half, and `w`'s own in-edge
/// offsets must be wired.
pub(crate) fn wire_outbound(
    graph: &Graph,
    owner: &[u32],
    local_of: &[u32],
    threshold: u32,
    w: usize,
    wp: &mut WorkerPlan,
    inbound: &[Inbound],
) {
    let me = w as u32;
    let masters = &wp.masters;
    let m = masters.len();

    // Pass 1: count. `seen[p] == li + 1` once master `li` has met worker
    // `p`; the tags rise, so the stamp never needs clearing within a pass.
    let mut seen = vec![0u32; inbound.len()];
    let mut local_out_offsets = exact(Component::Plan, m + 1);
    let mut mirror_offsets = exact(Component::Replicas, m + 1);
    let (mut num_local, mut num_remote) = (0u32, 0u32);
    local_out_offsets.push(0u32);
    mirror_offsets.push(0u32);
    for (li, &u) in masters.iter().enumerate() {
        let cold = below_threshold(graph, u, threshold);
        let tag = li as u32 + 1;
        let targets = graph.out_neighbors(u);
        debug_assert!(targets.windows(2).all(|t| t[0] <= t[1]), "sorted adjacency");
        let mut prev = INVALID_VERTEX;
        for &x in targets {
            // Counted without branching on the owner (see `insert_if`).
            let p = owner[x as usize] as usize;
            let remote = p != w;
            // Activation is idempotent: parallel edges collapse.
            num_local += (!remote & (x != prev)) as u32;
            // A cold master has an entry per edge, a hot one per worker.
            let entry = remote & (cold | (seen[p] != tag));
            seen[p] = if entry { tag } else { seen[p] };
            num_remote += entry as u32;
            prev = x;
        }
        local_out_offsets.push(num_local);
        mirror_offsets.push(num_remote);
    }

    // Pass 2: fill which workers each master fans out to, then point the
    // entries at their slots there.
    seen.fill(0);
    let mut pointer = Pointer::new(inbound);
    let mut local_out = exact(Component::Plan, num_local as usize);
    let mut mirrors: Vec<(u32, u32)> = exact(Component::Replicas, num_remote as usize);
    let mut work_mass = exact(Component::Plan, m);
    for (li, &u) in masters.iter().enumerate() {
        let cold = below_threshold(graph, u, threshold);
        let tag = li as u32 + 1;
        let first = mirrors.len();
        let mut prev = INVALID_VERTEX;
        for &x in graph.out_neighbors(u) {
            let p = owner[x as usize];
            if p == me {
                if x != prev {
                    local_out.push(local_of[x as usize]);
                }
            } else if cold || seen[p as usize] != tag {
                seen[p as usize] = tag;
                mirrors.push((p, 0));
            }
            prev = x;
        }
        if !cold {
            mirrors[first..].sort_unstable_by_key(|&(p, _)| p);
        }
        pointer.point(li, u, &mut mirrors[first..]);
        // In-degree + local activation fan-out + remote fan-out + the
        // publication itself.
        let mass = wp.in_ref_offsets[li + 1] - wp.in_ref_offsets[li]
            + (local_out_offsets[li + 1] - local_out_offsets[li])
            + (mirror_offsets[li + 1] - mirror_offsets[li])
            + 1;
        work_mass.push(mass);
    }

    wp.local_out_offsets = local_out_offsets;
    wp.local_out = local_out;
    wp.mirror_offsets = mirror_offsets;
    wp.mirrors = mirrors;
    wp.work_mass = work_mass;
}
