//! The BSP vertex-program abstraction (Pregel's `compute`).

use cyclops_graph::{Graph, VertexId};
use cyclops_net::{AggregateStats, Codec};

/// A vertex program in the Pregel/Hama style: each superstep, an active
/// vertex receives the messages sent to it in the previous superstep,
/// updates its value, and sends messages to other vertices (Figure 2 of the
/// paper shows PageRank in this shape).
pub trait BspProgram: Sync {
    /// Per-vertex state.
    type Value: Clone + Send + Sync;
    /// Message payload exchanged between vertices. Must be encodable, since
    /// cross-machine messages travel through the binary codec.
    type Message: Codec + Clone + Send;

    /// Initial value of `vertex` before superstep 0.
    fn init(&self, vertex: VertexId, graph: &Graph) -> Self::Value;

    /// The per-vertex kernel, run for every active vertex each superstep.
    fn compute(&self, ctx: &mut BspContext<'_, Self::Value, Self::Message>, msgs: &[Self::Message]);

    /// Optional associative+commutative combiner: merge two messages headed
    /// to the same destination vertex from the same worker (§4.1: Hama
    /// "combines the messages sent to the same vertex if possible").
    /// Return `None` (the default) to disable combining.
    fn combine(&self, _a: &Self::Message, _b: &Self::Message) -> Option<Self::Message> {
        None
    }
}

/// Everything a [`BspProgram::compute`] invocation may see and do.
///
/// Mirrors the Hama/Pregel API: read/write the vertex value, send messages
/// along out-edges or to arbitrary vertices, contribute to the global
/// aggregator, read the previous superstep's aggregate ("getGlobalError" in
/// Figure 2), and vote to halt.
pub struct BspContext<'a, V, M> {
    pub(crate) vertex: VertexId,
    pub(crate) superstep: usize,
    pub(crate) graph: &'a Graph,
    pub(crate) value: &'a mut V,
    pub(crate) halted: &'a mut bool,
    /// Messages produced this invocation: `(destination, payload)`.
    pub(crate) outbox: &'a mut Vec<(VertexId, M)>,
    /// Aggregate contributions of this worker.
    pub(crate) aggregate: &'a mut AggregateStats,
    /// Previous superstep's combined aggregate, if any vertex contributed.
    pub(crate) prev_aggregate: Option<AggregateStats>,
}

impl<'a, V, M: Clone> BspContext<'a, V, M> {
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

    /// The (read-only) global graph topology. A real Pregel worker only
    /// holds its own partition's adjacency; programs should restrict
    /// themselves to this vertex's edges.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Out-degree of this vertex ("numEdges" in the paper's Figure 2).
    pub fn out_degree(&self) -> usize {
        self.graph.out_degree(self.vertex)
    }

    /// Current value of this vertex.
    pub fn value(&self) -> &V {
        self.value
    }

    /// Overwrites this vertex's value.
    pub fn set_value(&mut self, v: V) {
        *self.value = v;
    }

    /// Sends `msg` to every out-neighbor.
    pub fn send_to_neighbors(&mut self, msg: M) {
        // Clone per edge: each neighbor gets its own message, exactly as
        // Pregel's sendMessageToAllEdges does.
        let nbrs = self.graph.out_neighbors(self.vertex);
        self.outbox.extend(nbrs.iter().map(|&t| (t, msg.clone())));
    }

    /// Sends `msg` to an arbitrary vertex.
    pub fn send_to(&mut self, dest: VertexId, msg: M) {
        self.outbox.push((dest, msg));
    }

    /// Sends `(weight-annotated)` messages along out-edges; the closure maps
    /// each `(neighbor, edge weight)` to a payload. Used by SSSP to add the
    /// edge weight per edge.
    pub fn send_along_edges(&mut self, mut f: impl FnMut(VertexId, f64) -> M) {
        let vertex = self.vertex;
        let edges: Vec<(VertexId, f64)> = self.graph.out_edges(vertex).collect();
        self.outbox
            .extend(edges.into_iter().map(|(t, w)| (t, f(t, w))));
    }

    /// Contributes `x` to this superstep's global aggregator (a distributed
    /// reduction: the engine gathers per-worker partials at the barrier —
    /// the scheme §2.2.3 describes and critiques).
    pub fn aggregate(&mut self, x: f64) {
        self.aggregate.add(x);
    }

    /// The previous superstep's global aggregate mean — "getGlobalError()"
    /// in the paper's BSP PageRank. `None` before any vertex aggregates.
    pub fn global_aggregate(&self) -> Option<f64> {
        self.prev_aggregate.and_then(|s| s.mean())
    }

    /// The previous superstep's full aggregate statistics (sum, count, min,
    /// max), for programs that need more than the mean.
    pub fn global_aggregate_stats(&self) -> Option<AggregateStats> {
        self.prev_aggregate
    }

    /// Votes to halt: the vertex becomes inactive until a message arrives.
    pub fn vote_to_halt(&mut self) {
        *self.halted = true;
    }
}
