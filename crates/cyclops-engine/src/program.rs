//! The Cyclops vertex-program abstraction (the paper's Figure 5).
//!
//! A Cyclops program separates two pieces of per-vertex state:
//!
//! * the **value** `V` — private state only the vertex itself touches,
//! * the **publication** `M` — what the vertex exposes to its out-neighbors
//!   through the distributed immutable view (`getMessage()` on an in-edge in
//!   the paper's code; for PageRank it is `rank / out_degree`).
//!
//! `compute` reads all in-neighbor publications from the previous superstep
//! via [`CyclopsContext::in_messages`], updates the private value, and —
//! when the local error warrants it — calls
//! [`CyclopsContext::activate_neighbors`] with a new publication. A vertex
//! deactivates by default after compute and wakes only when activated
//! (§3.1: "a vertex will deactivate itself by default and only become
//! active again upon receiving activation signal").

use crate::plan::WorkerPlan;
use cyclops_graph::{Graph, VertexId};
use cyclops_net::{AggregateStats, Codec, DisjointSlots};

/// A vertex program over the distributed immutable view.
pub trait CyclopsProgram: Sync {
    /// Private per-vertex state; encodable, so a migrated master's value
    /// crosses the wire as itself.
    type Value: Codec + Clone + Send + Sync;
    /// Publication readable by out-neighbors; travels in sync messages, so
    /// it must be encodable.
    type Message: Codec + Clone + Send + Sync;

    /// Initial private value of `vertex`.
    fn init(&self, vertex: VertexId, graph: &Graph) -> Self::Value;

    /// Initial publication of `vertex`, visible to neighbors in superstep 0
    /// (e.g. PageRank publishes `initial_rank / out_degree`). Return `None`
    /// to publish nothing (SSSP's non-source vertices).
    fn init_message(
        &self,
        vertex: VertexId,
        graph: &Graph,
        value: &Self::Value,
    ) -> Option<Self::Message>;

    /// Whether `vertex` starts active in superstep 0. Defaults to `true`
    /// (pull-mode algorithms); push-mode algorithms like SSSP activate only
    /// the source.
    fn initially_active(&self, _vertex: VertexId, _graph: &Graph) -> bool {
        true
    }

    /// The per-vertex kernel, run once per activation.
    fn compute(&self, ctx: &mut CyclopsContext<'_, Self::Value, Self::Message>);

    /// Activation priority carried by a publication, for the bucketed
    /// (delta-stepping) scheduler: a lower bound on how "urgent" the
    /// activated vertex is (for SSSP, the published tentative distance — any
    /// distance reachable through it is at least that). Return `None` (the
    /// default) for algorithms without a priority structure; the bucketed
    /// scheduler then treats every activation as immediately due, degrading
    /// to plain fused execution.
    fn priority(&self, _msg: &Self::Message) -> Option<f64> {
        None
    }
}

/// Everything a [`CyclopsProgram::compute`] invocation may see and do.
pub struct CyclopsContext<'a, V, M> {
    pub(crate) vertex: VertexId,
    pub(crate) local: usize,
    pub(crate) superstep: usize,
    pub(crate) graph: &'a Graph,
    pub(crate) plan: &'a WorkerPlan,
    pub(crate) value: &'a mut V,
    /// This worker's immutable view as of the previous superstep: the
    /// publications of its masters, its replicas and its direct slots in one
    /// slot space, indexed by the plan's in-edge references.
    pub(crate) view: &'a DisjointSlots<Option<M>>,
    /// Set by `activate_neighbors`.
    pub(crate) publish: &'a mut Option<M>,
    /// Local error reported via `report_error`.
    pub(crate) reported_error: &'a mut Option<f64>,
    /// Aggregate contributions of this thread.
    pub(crate) aggregate: &'a mut AggregateStats,
    /// Previous superstep's combined aggregate, if any.
    pub(crate) prev_aggregate: Option<AggregateStats>,
}

/// One pass over a vertex's in-edges — the one gather loop. Walks the plan's
/// in-edge references and weights in step, resolves each reference with a
/// single load from the view, and yields `(k, publication, weight)` for the
/// `k`-th in-edge (in the graph's in-edge order) whose source has published.
struct Gather<'a, M> {
    refs: std::slice::Iter<'a, u32>,
    /// Empty when the graph is unweighted: every weight is 1.0.
    weights: std::slice::Iter<'a, f64>,
    in_degree: usize,
    view: &'a DisjointSlots<Option<M>>,
}

impl<'a, M> Iterator for Gather<'a, M> {
    type Item = (usize, &'a M, f64);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let &slot = self.refs.next()?;
            let w = self.weights.next().map_or(1.0, |w| *w);
            if let Some(m) = self.view.read(slot as usize) {
                return Some((self.in_degree - self.refs.len() - 1, m, w));
            }
        }
    }
}

impl<'a, V, M> CyclopsContext<'a, V, M> {
    /// The vertex this invocation runs on.
    pub fn vertex(&self) -> VertexId {
        self.vertex
    }

    /// Current superstep number (0-based).
    pub fn superstep(&self) -> usize {
        self.superstep
    }

    /// Total number of vertices in the graph.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Out-degree of this vertex ("numEdges" in the paper's Figure 5).
    pub fn out_degree(&self) -> usize {
        self.graph.out_degree(self.vertex)
    }

    /// In-degree of this vertex.
    pub fn in_degree(&self) -> usize {
        self.graph.in_degree(self.vertex)
    }

    /// Current private value.
    pub fn value(&self) -> &V {
        self.value
    }

    /// Overwrites the private value.
    pub fn set_value(&mut self, v: V) {
        *self.value = v;
    }

    /// The private value, to update in place.
    pub fn value_mut(&mut self) -> &mut V {
        self.value
    }

    /// A gather over this vertex's in-edges.
    #[inline]
    fn gather(&self) -> Gather<'a, M> {
        let (start, end) = self.plan.in_ref_range(self.local);
        Gather {
            refs: self.plan.in_refs[start..end].iter(),
            weights: self.plan.in_weights(self.local).iter(),
            in_degree: end - start,
            view: self.view,
        }
    }

    /// Iterator over the in-neighbors' publications from the previous
    /// superstep, each with the in-edge weight (1.0 when unweighted). This
    /// is the distributed immutable view (§3.1): every in-edge holds the
    /// index of its source's slot in the worker's one view array — a local
    /// master, a read-only replica or a direct-message slot, the reader
    /// neither knows nor branches on which — so a read is one local load,
    /// never a trip to a remote machine. Neighbors that have published
    /// nothing yet are skipped. The iterator borrows the view, not the
    /// context, so [`Self::value_mut`] may be written while it is read.
    pub fn in_messages(&self) -> impl Iterator<Item = (&'a M, f64)> + 'a {
        self.gather().map(|(_, m, w)| (m, w))
    }

    /// Like [`Self::in_messages`], but also yields the in-neighbor's vertex
    /// id (the plan's in-edge references are built in the graph's in-edge
    /// order, so ids and publications line up). Used by programs that need
    /// to know *who* published, e.g. triangle counting.
    pub fn in_messages_with_sources(&self) -> impl Iterator<Item = ((VertexId, &M), f64)> + '_ {
        let sources = self.graph.in_neighbors(self.vertex);
        self.gather().map(move |(k, m, w)| ((sources[k], m), w))
    }

    /// The (read-only) global graph topology. A real Cyclops worker only
    /// holds its partition plus replicas; programs should restrict
    /// themselves to this vertex's neighborhood.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Publishes `msg` to all out-neighbors and activates them for the next
    /// superstep — the paper's `activateNeighbors(value)`. Local neighbors
    /// are activated by a lock-free flag write; remote neighbors via one
    /// sync message per replica, applied by the replica's worker (§3.4).
    pub fn activate_neighbors(&mut self, msg: M) {
        *self.publish = Some(msg);
    }

    /// Reports this vertex's local error, feeding the engine's
    /// proportion-based and global-error convergence detectors (§4.4).
    pub fn report_error(&mut self, err: f64) {
        *self.reported_error = Some(err);
    }

    /// Contributes `x` to this superstep's global aggregator.
    pub fn aggregate(&mut self, x: f64) {
        self.aggregate.add(x);
    }

    /// The previous superstep's global aggregate mean, if any vertex
    /// contributed.
    pub fn global_aggregate(&self) -> Option<f64> {
        self.prev_aggregate.and_then(|s| s.mean())
    }

    /// The previous superstep's full aggregate statistics (sum, count, min,
    /// max), for programs that need more than the mean.
    pub fn global_aggregate_stats(&self) -> Option<AggregateStats> {
        self.prev_aggregate
    }
}
