//! The synchronous GAS superstep loop over a vertex-cut.
//!
//! Each worker thread owns the edges assigned to it plus a replica of every
//! vertex incident to one of them. One superstep of an active vertex `v`
//! with `k` mirrors exchanges the paper's five messages per mirror:
//! GatherReq + GatherResp (2), Apply (1), ScatterReq + ScatterResp (2) —
//! plus batched mirror→master activation digests. All incoming messages
//! funnel through a locked global queue per worker, reproducing the
//! master-side contention of PowerGraph's Gather/Scatter phases (§2.3).
//!
//! Where each phase lives: a [`Run`] is what every thread borrows, a
//! [`Worker`] one thread's part plus what it resolved once, and
//! [`gas_worker`] runs the four phases in order, their bodies inline —
//! activation and gather requests (PRS, SND), mirrors' partial gathers,
//! apply and broadcast, scatter (CMP, each followed by [`Worker::flush`]).
//! SYN's leader half is [`Run::close_superstep`], its observer half
//! [`Worker::commit_superstep`]; a message outside its phase dies in
//! [`out_of_phase`].

use crate::program::GasProgram;
use bytes::{Buf, BufMut, BytesMut};
use cyclops_graph::{Graph, GraphBuilder, VertexId};
use cyclops_net::metrics::{CounterSnapshot, EngineObs};
use cyclops_net::trace::{digest_bytes, SpaceSaving, TraceRecord, TraceSink};
use cyclops_net::{
    ClusterSpec, Codec, HierarchicalBarrier, InboxMode, Phase, PhaseTimes, SuperstepStats,
    Transport, WorkerTracer,
};
use cyclops_obs::{MemScope, SpanKind, SpanRing};
use cyclops_partition::VertexCutPartition;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct GasConfig {
    /// Simulated cluster topology (single-threaded workers).
    pub cluster: ClusterSpec,
    /// Hard cap on supersteps.
    pub max_supersteps: usize,
}

impl Default for GasConfig {
    fn default() -> Self {
        GasConfig {
            cluster: ClusterSpec::flat(2, 2),
            max_supersteps: 10_000,
        }
    }
}

/// Output of a GAS run.
#[derive(Clone, Debug)]
pub struct GasResult<V> {
    /// Final vertex values (from masters), indexed by global vertex id.
    pub values: Vec<V>,
    /// Number of supersteps executed.
    pub supersteps: usize,
    /// Per-superstep statistics.
    pub stats: Vec<SuperstepStats>,
    /// Whole-run transport counters.
    pub counters: CounterSnapshot,
    /// Wall-clock time of the superstep loop.
    pub elapsed: Duration,
    /// PowerGraph-style replication factor (replicas incl. masters / |V|).
    pub replication_factor: f64,
}

/// Wire messages of the GAS protocol.
enum GasMsg<V, G> {
    /// Master → mirror: compute your partial gather for replica `local`
    /// and reply to my index `reply`.
    GatherReq { local: u32, reply: u32 },
    /// Mirror → master: partial accumulator for master index `local`
    /// (`None` when the mirror holds no in-edges of the vertex).
    GatherResp { local: u32, acc: Option<G> },
    /// Master → mirror: new value for replica `local`.
    Apply { local: u32, value: V },
    /// Master → mirror: scatter along your local out-edges of `local`.
    ScatterReq { local: u32 },
    /// Mirror → master: scatter done (ack completing the 2-message pattern).
    ScatterResp { local: u32 },
    /// Mirror worker → master worker: batched activations (global ids).
    Activate { vertices: Vec<u32> },
}

/// Every message is drained in the phase after the one that sent it, in
/// transport epoch `4 × superstep + phase`, so each phase sees only the tags
/// the previous one emits; anything else means a sender and a receiver
/// disagree on the epoch.
fn out_of_phase<V, G>(phase: &str, msg: &GasMsg<V, G>) -> ! {
    let tag = match msg {
        GasMsg::GatherReq { .. } => "GatherReq",
        GasMsg::GatherResp { .. } => "GatherResp",
        GasMsg::Apply { .. } => "Apply",
        GasMsg::ScatterReq { .. } => "ScatterReq",
        GasMsg::ScatterResp { .. } => "ScatterResp",
        GasMsg::Activate { .. } => "Activate",
    };
    panic!("{tag} drained in the {phase} phase")
}

impl<V: Codec, G: Codec> Codec for GasMsg<V, G> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            GasMsg::GatherReq { local, reply } => {
                buf.put_u8(0);
                local.encode(buf);
                reply.encode(buf);
            }
            GasMsg::GatherResp { local, acc } => {
                buf.put_u8(1);
                local.encode(buf);
                match acc {
                    Some(g) => {
                        buf.put_u8(1);
                        g.encode(buf);
                    }
                    None => buf.put_u8(0),
                }
            }
            GasMsg::Apply { local, value } => {
                buf.put_u8(2);
                local.encode(buf);
                value.encode(buf);
            }
            GasMsg::ScatterReq { local } => {
                buf.put_u8(3);
                local.encode(buf);
            }
            GasMsg::ScatterResp { local } => {
                buf.put_u8(4);
                local.encode(buf);
            }
            GasMsg::Activate { vertices } => {
                buf.put_u8(5);
                vertices.encode(buf);
            }
        }
    }

    fn try_decode(buf: &mut impl Buf) -> Option<Self> {
        if !buf.has_remaining() {
            return None;
        }
        Some(match buf.get_u8() {
            0 => GasMsg::GatherReq {
                local: u32::try_decode(buf)?,
                reply: u32::try_decode(buf)?,
            },
            1 => {
                let local = u32::try_decode(buf)?;
                // The presence byte is exactly what `encode` writes: any
                // other value would decode to a message that re-encodes to
                // different bytes.
                let acc = match buf.has_remaining().then(|| buf.get_u8())? {
                    0 => None,
                    1 => Some(G::try_decode(buf)?),
                    _ => return None,
                };
                GasMsg::GatherResp { local, acc }
            }
            2 => GasMsg::Apply {
                local: u32::try_decode(buf)?,
                value: V::try_decode(buf)?,
            },
            3 => GasMsg::ScatterReq {
                local: u32::try_decode(buf)?,
            },
            4 => GasMsg::ScatterResp {
                local: u32::try_decode(buf)?,
            },
            5 => GasMsg::Activate {
                vertices: Vec::<u32>::try_decode(buf)?,
            },
            _ => return None,
        })
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            GasMsg::GatherReq { .. } => 8,
            GasMsg::GatherResp { acc, .. } => {
                4 + 1 + acc.as_ref().map(|g| g.encoded_len()).unwrap_or(0)
            }
            GasMsg::Apply { value, .. } => 4 + value.encoded_len(),
            GasMsg::ScatterReq { .. } | GasMsg::ScatterResp { .. } => 4,
            GasMsg::Activate { vertices } => vertices.encoded_len(),
        }
    }
}

/// One worker's share of the vertex-cut.
struct PartState<V> {
    /// Global ids of the vertices replicated on this worker, ascending.
    local_vertices: Vec<VertexId>,
    /// `true` if this worker is the vertex's master, parallel to
    /// `local_vertices`.
    is_master: Vec<bool>,
    /// Replica values, parallel to `local_vertices`.
    data: Vec<V>,
    /// Active flags (meaningful for masters only).
    active: Vec<bool>,
    /// The part's edges, over local indices: a vertex's gather reads its
    /// in-edges, its scatter its out-edges.
    edges: Graph,
    /// Mirror workers per local vertex (masters only; empty otherwise).
    mirror_off: Vec<u32>,
    mirrors: Vec<u32>,
}

/// Index of `v` in a part's ascending `local_vertices`. Edges and messages
/// reach a part only for vertices the cut replicated on it.
fn local_index(local_vertices: &[VertexId], v: VertexId) -> u32 {
    let li = local_vertices.binary_search(&v);
    li.unwrap_or_else(|_| panic!("vertex {v} has no replica on this part")) as u32
}

impl<V> PartState<V> {
    fn local_index(&self, v: VertexId) -> u32 {
        local_index(&self.local_vertices, v)
    }
    fn mirrors_of(&self, li: usize) -> &[u32] {
        &self.mirrors[self.mirror_off[li] as usize..self.mirror_off[li + 1] as usize]
    }
}

/// Run-scoped state, built once and borrowed by every worker thread; a
/// thread is this plus its [`Worker`].
struct Run<'r, P: GasProgram> {
    program: &'r P,
    graph: &'r Graph,
    partition: &'r VertexCutPartition,
    config: &'r GasConfig,
    trace: Option<&'r TraceSink>,
    obs: Option<EngineObs>,
    /// Per-worker CMP nanoseconds for the imbalance histogram (like BSP,
    /// PowerGraph-style workers are single-threaded — skew is cross-worker).
    cmp_ns: Vec<AtomicU64>,
    transport: Transport<GasMsg<P::Value, P::Gather>>,
    /// `(workers, 1)`: one single-threaded "machine" per worker; worker 0
    /// leads each SYN.
    barrier: HierarchicalBarrier,
    stop: AtomicBool,
    active_total: AtomicUsize,
    /// The stats ledger: closed entries, the entry of the superstep in
    /// flight, and the counters as of the last close.
    history: Mutex<Vec<SuperstepStats>>,
    current: Mutex<SuperstepStats>,
    last_counters: Mutex<CounterSnapshot>,
    supersteps_done: AtomicUsize,
}

/// One worker thread's side of a run: its part, and what it resolves once
/// rather than per superstep or per send.
struct Worker<'r, P: GasProgram> {
    run: &'r Run<'r, P>,
    me: usize,
    part: &'r mut PartState<P::Value>,
    tracer: Option<&'r WorkerTracer>,
    /// Per-worker flight-recorder ring (GAS asserts one thread per worker);
    /// absent a recorder each span site is one `Option` check.
    flight: Option<Arc<SpanRing>>,
    /// Whether the sink digests applied values (values mode).
    capture_values: bool,
    /// Hot-vertex capture; disabled it costs one `Option` check per applied
    /// vertex. The GAS cost proxy is the replication factor: 1 + mirror
    /// fan-out, the traffic an apply broadcast generates.
    hot: Option<SpaceSaving>,
    /// Messages held per destination worker until the phase's flush.
    outboxes: Vec<Vec<GasMsg<P::Value, P::Gather>>>,
    /// Encode buffer of the values-mode digest, reused across publications
    /// and supersteps.
    digest_buf: BytesMut,
    /// Worker-slot tag for the tracking allocator (two thread-local writes).
    _mem_tag: MemScope,
}

impl<'r, P: GasProgram> Run<'r, P> {
    /// SYN, leader only, `sync` into the closing barrier: records the
    /// superstep's CMP skew across workers, closes its [`SuperstepStats`]
    /// entry with the messages and bytes the counters gained since the last
    /// close, and publishes it done.
    fn close_superstep(&self, superstep: usize, sync: Duration) {
        if let Some(obs) = &self.obs {
            obs.record_imbalance(self.cmp_ns.iter().map(|a| a.load(Ordering::Relaxed)));
        }
        let snap = self.transport.counters().snapshot();
        let mut last = self.last_counters.lock();
        let mut cur = self.current.lock();
        cur.superstep = superstep;
        cur.messages_sent = snap.messages - last.messages;
        cur.bytes_sent = snap.bytes - last.bytes;
        cur.phase_times.add(Phase::Sync, sync);
        self.history.lock().push(std::mem::take(&mut cur));
        *last = snap;
        self.supersteps_done.store(superstep + 1, Ordering::Release);
    }

    fn worker(&'r self, me: usize, part: &'r mut PartState<P::Value>) -> Worker<'r, P> {
        let hot_k = self.trace.map_or(0, |s| s.hot_k());
        Worker {
            run: self,
            me,
            part,
            tracer: self.trace.map(|s| s.worker(me)),
            flight: cyclops_obs::flight().map(|fr| fr.ring(me as u32, 0)),
            capture_values: self.trace.is_some_and(|s| s.captures_values()),
            hot: (hot_k > 0).then(|| SpaceSaving::new(hot_k)),
            outboxes: (0..self.partition.num_parts).map(|_| Vec::new()).collect(),
            digest_buf: BytesMut::new(),
            _mem_tag: MemScope::worker(me),
        }
    }
}

impl<'r, P: GasProgram> Worker<'r, P> {
    /// Closes this worker's superstep for the observers: the phase-latency
    /// histograms, the trace record (its hot sketch in slot 0 — GAS workers
    /// have one thread; `[frontier, computed, activated]` its counts), and
    /// the memory sample (no-op unless `--mem`).
    fn commit_superstep(&mut self, superstep: usize, counts: [usize; 3], times: &PhaseTimes) {
        if let Some(obs) = &self.run.obs {
            obs.record_phases(times);
            if self.me == 0 {
                obs.set_supersteps(superstep + 1);
            }
        }
        if let Some(tr) = self.tracer {
            if let Some(hs) = self.hot.as_mut() {
                tr.set_thread_hot(0, hs);
                hs.clear();
            }
            let [frontier, computed, activated] = counts.map(|n| n as u64);
            let record = TraceRecord {
                superstep: superstep as u64,
                worker: self.me as u64,
                frontier,
                computed,
                activated,
                ..TraceRecord::default()
            };
            tr.commit(times, record);
        }
        cyclops_obs::mem::sample(superstep as u64, self.me as u32);
    }

    fn span_start(&self) -> Option<u64> {
        self.flight.as_ref().map(|r| r.now_ns())
    }

    /// Ends a span of superstep `superstep`; `phase` tells the three CMP
    /// spans of one superstep apart.
    fn span_end(&self, start: Option<u64>, kind: SpanKind, superstep: usize, phase: u64) {
        if let (Some(r), Some(start)) = (&self.flight, start) {
            r.record(kind, start, superstep as u64, phase, 0);
        }
    }

    /// A barrier wait under a flight span; `true` on worker 0, the SYN
    /// leader.
    fn barrier(&self, superstep: usize) -> bool {
        let flight = self.flight.as_deref();
        self.run
            .barrier
            .wait_traced(self.me, 0, flight, superstep as u64);
        self.me == 0
    }

    /// Sends every nonempty outbox in transport epoch `epoch`.
    fn flush(&mut self, epoch: usize) {
        for (dest, batch) in self.outboxes.iter_mut().enumerate() {
            if !batch.is_empty() {
                let sent = batch.len();
                let receipt = self
                    .run
                    .transport
                    .send(self.me, dest, std::mem::take(batch), epoch);
                if let Some(tr) = self.tracer {
                    tr.add_sent_to(dest, sent as u64, receipt.bytes as u64);
                }
            }
        }
    }
}

/// Runs `program` on `graph` over the vertex-cut `partition`.
pub fn run_gas<P: GasProgram>(
    program: &P,
    graph: &Graph,
    partition: &VertexCutPartition,
    config: &GasConfig,
) -> GasResult<P::Value> {
    run_gas_traced(program, graph, partition, config, None)
}

/// [`run_gas`] with a superstep-trace sink attached. The sink must have been
/// built for the same [`ClusterSpec`] as `config.cluster`.
pub fn run_gas_traced<P: GasProgram>(
    program: &P,
    graph: &Graph,
    partition: &VertexCutPartition,
    config: &GasConfig,
    trace: Option<&TraceSink>,
) -> GasResult<P::Value> {
    let num_workers = config.cluster.num_workers();
    assert_eq!(
        partition.num_parts, num_workers,
        "vertex-cut has {} parts but the cluster has {} workers",
        partition.num_parts, num_workers
    );
    assert_eq!(
        config.cluster.threads_per_worker, 1,
        "the GAS engine uses single-threaded workers"
    );

    // ---- Ingress: per part, its replicas (ascending: the loop is over v),
    // its edges in local indices, then its state. ----
    let mut locals: Vec<Vec<VertexId>> = vec![Vec::new(); num_workers];
    for (v, reps) in partition.replicas.iter().enumerate() {
        for &p in reps {
            locals[p as usize].push(v as VertexId);
        }
    }
    let mut edges: Vec<GraphBuilder> = (locals.iter())
        .map(|l| GraphBuilder::new(l.len()))
        .collect();
    for (e, (u, x, w)) in graph.edges().enumerate() {
        let p = partition.edge_assignment[e] as usize;
        let (ul, xl) = (local_index(&locals[p], u), local_index(&locals[p], x));
        if graph.is_weighted() {
            edges[p].add_weighted_edge(ul, xl, w);
        } else {
            edges[p].add_edge(ul, xl);
        }
    }
    let mut parts: Vec<PartState<P::Value>> = Vec::with_capacity(num_workers);
    for ((p, local_vertices), edges) in locals.into_iter().enumerate().zip(edges) {
        let nl = local_vertices.len();
        let is_master: Vec<bool> = (local_vertices.iter())
            .map(|&v| partition.masters[v as usize] == p as u32)
            .collect();
        let mut mirror_off = vec![0; nl + 1];
        let mut mirrors = Vec::new();
        for (li, &v) in local_vertices.iter().enumerate() {
            if is_master[li] {
                let replicas = partition.replicas[v as usize].iter();
                mirrors.extend(replicas.filter(|&&mp| mp != p as u32));
            }
            mirror_off[li + 1] = mirrors.len() as u32;
        }
        parts.push(PartState {
            data: (local_vertices.iter())
                .map(|&v| program.init(v, graph))
                .collect(),
            active: (local_vertices.iter().zip(&is_master))
                .map(|(&v, &m)| m && program.initially_active(v, graph))
                .collect(),
            is_master,
            edges: edges.build(),
            mirror_off,
            mirrors,
            local_vertices,
        });
    }

    let run = Run {
        program,
        graph,
        partition,
        config,
        trace,
        obs: EngineObs::resolve("gas"),
        cmp_ns: (0..num_workers).map(|_| AtomicU64::new(0)).collect(),
        transport: Transport::new(config.cluster, InboxMode::GlobalQueue),
        barrier: HierarchicalBarrier::new(num_workers, 1),
        stop: AtomicBool::new(false),
        active_total: AtomicUsize::new(0),
        history: Mutex::new(Vec::new()),
        current: Mutex::new(SuperstepStats::default()),
        last_counters: Mutex::new(CounterSnapshot::default()),
        supersteps_done: AtomicUsize::new(0),
    };

    let loop_start = Instant::now();
    std::thread::scope(|scope| {
        for (me, part) in parts.iter_mut().enumerate() {
            let run = &run;
            // Built on its own thread: the memory tag is thread-local.
            scope.spawn(move || gas_worker(run, run.worker(me, part)));
        }
    });
    let elapsed = loop_start.elapsed();

    // A vertex's value is its master's replica.
    let master_value = |v: VertexId| {
        let part = &parts[partition.masters[v as usize] as usize];
        part.data[part.local_index(v) as usize].clone()
    };
    GasResult {
        values: graph.vertices().map(master_value).collect(),
        supersteps: run.supersteps_done.load(Ordering::Acquire),
        stats: run.history.into_inner(),
        counters: run.transport.counters().snapshot(),
        elapsed,
        replication_factor: partition.replication_factor(),
    }
}

fn gas_worker<P: GasProgram>(run: &Run<'_, P>, mut wk: Worker<'_, P>) {
    let (program, graph, config) = (run.program, run.graph, run.config);
    let partition = run.partition;
    let (me, tracer) = (wk.me, wk.tracer);
    let num_workers = partition.num_parts;
    let mut superstep = 0usize;
    // Gather accumulators pending per active master.
    let mut pending: HashMap<u32, Option<P::Gather>> = HashMap::new();
    // Old values of vertices applied this superstep (for scatter).
    let mut old_values: HashMap<u32, P::Value> = HashMap::new();
    // Which local vertices were activated by local scatter this superstep.
    let mut locally_activated: Vec<u32> = Vec::new();

    // Sorted local indices of active masters, maintained incrementally at
    // every `part.active` mutation site, so gather requests go out without a
    // scan of every replica's flag.
    let mut active_list: Vec<u32> = (0..wk.part.active.len() as u32)
        .filter(|&li| wk.part.active[li as usize])
        .collect();

    loop {
        let mut times = PhaseTimes::default();
        let base = superstep * 4;
        let mut drained = 0u64;

        // ---- Phase 0: absorb activations, decide the active set. ----
        let prs_span = wk.span_start();
        times.time(Phase::Parse, || {
            let part = &mut *wk.part;
            let msgs = run.transport.drain(me, base);
            drained += msgs.len() as u64;
            for msg in msgs {
                match msg {
                    GasMsg::Activate { vertices } => {
                        for v in vertices {
                            let li = part.local_index(v) as usize;
                            debug_assert!(part.is_master[li]);
                            // Only the inactive->active transition joins the
                            // list, so entries stay unique.
                            if !part.active[li] {
                                part.active[li] = true;
                                active_list.push(li as u32);
                            }
                        }
                    }
                    GasMsg::ScatterResp { .. } => {} // ack only
                    other => out_of_phase("activation", &other),
                }
            }
            // Activations arrive in message order; restore ascending order.
            active_list.sort_unstable();
        });
        wk.span_end(prs_span, SpanKind::Parse, superstep, 0);
        let my_active = active_list.len();
        debug_assert_eq!(my_active, wk.part.active.iter().filter(|&&a| a).count());
        run.active_total.fetch_add(my_active, Ordering::Relaxed);
        let sync_start = Instant::now();
        if wk.barrier(superstep) {
            let total = run.active_total.swap(0, Ordering::Relaxed);
            let stop = total == 0 || superstep >= config.max_supersteps;
            run.stop.store(stop, Ordering::Release);
        }
        wk.barrier(superstep);
        times.add(Phase::Sync, sync_start.elapsed());
        if run.stop.load(Ordering::Acquire) {
            // Record nothing for the would-be superstep; exit.
            return;
        }

        // ---- Phase 0 (send): gather requests to mirrors, one active master
        //      at a time, ascending. ----
        pending.clear();
        let snd_span = wk.span_start();
        times.time(Phase::Send, || {
            let (part, outboxes) = (&*wk.part, &mut wk.outboxes);
            for &li in &active_list {
                pending.insert(li, None);
                for &mp in part.mirrors_of(li as usize) {
                    // The mirror resolves the replica by global id.
                    outboxes[mp as usize].push(GasMsg::GatherReq {
                        local: part.local_vertices[li as usize],
                        reply: li,
                    });
                }
            }
            wk.flush(base);
        });
        wk.span_end(snd_span, SpanKind::Send, superstep, 0);
        wk.barrier(superstep);

        // ---- Phase 1: mirrors answer gather requests; master's own
        //      partial. ----
        let cmp_span = wk.span_start();
        times.time(Phase::Compute, || {
            let (part, outboxes) = (&*wk.part, &mut wk.outboxes);
            let msgs = run.transport.drain(me, base + 1);
            drained += msgs.len() as u64;
            for msg in msgs {
                if let GasMsg::GatherReq { local: v, reply } = msg {
                    let li = part.local_index(v) as usize;
                    let acc = local_gather(program, graph, part, li);
                    let master = partition.masters[v as usize] as usize;
                    outboxes[master].push(GasMsg::GatherResp { local: reply, acc });
                } else {
                    out_of_phase("gather", &msg);
                }
            }
            // Master's own partial gather.
            for (&li, slot) in pending.iter_mut() {
                *slot = local_gather(program, graph, part, li as usize);
            }
        });
        wk.span_end(cmp_span, SpanKind::Compute, superstep, 1);
        times.time(Phase::Send, || wk.flush(base + 1));
        wk.barrier(superstep);

        // ---- Phase 2: apply at masters, broadcast new values. ----
        old_values.clear();
        let cmp_span = wk.span_start();
        times.time(Phase::Compute, || {
            let msgs = run.transport.drain(me, base + 2);
            drained += msgs.len() as u64;
            for msg in msgs {
                if let GasMsg::GatherResp { local, acc } = msg {
                    if let Some(a) = acc {
                        merge_pending(program, &mut pending, local, Some(a));
                    }
                } else {
                    out_of_phase("apply", &msg);
                }
            }
            let part = &mut *wk.part;
            let mut actives: Vec<(u32, Option<P::Gather>)> = pending.drain().collect();
            actives.sort_unstable_by_key(|&(li, _)| li);
            for (li, acc) in actives {
                let liu = li as usize;
                let v = part.local_vertices[liu];
                let old = part.data[liu].clone();
                let new = program.apply(graph, v, &old, acc);
                // Digest the applied value exactly as it goes on the wire
                // to mirrors (values mode only) so `trace-diff --values`
                // can name the first divergent vertex across engines.
                if let (true, Some(tr)) = (wk.capture_values, tracer) {
                    wk.digest_buf.clear();
                    new.encode(&mut wk.digest_buf);
                    tr.record_publication(v, digest_bytes(&wk.digest_buf));
                }
                part.data[liu] = new.clone();
                old_values.insert(li, old);
                part.active[liu] = false; // deactivate; scatter may re-activate
                if let Some(hs) = wk.hot.as_mut() {
                    hs.record(v, 1 + part.mirrors_of(liu).len() as u64);
                }
                for &mp in part.mirrors_of(liu) {
                    wk.outboxes[mp as usize].push(GasMsg::Apply {
                        local: v,
                        value: new.clone(),
                    });
                    wk.outboxes[mp as usize].push(GasMsg::ScatterReq { local: v });
                }
            }
            // Every applied master was deactivated above; drop them from the
            // list (phase 3 scatter may re-add some).
            active_list.retain(|&li| part.active[li as usize]);
        });
        wk.span_end(cmp_span, SpanKind::Compute, superstep, 2);
        times.time(Phase::Send, || wk.flush(base + 2));
        wk.barrier(superstep);

        // ---- Phase 3: scatter at mirrors and at the master. ----
        locally_activated.clear();
        let computed = old_values.len();
        let cmp_span = wk.span_start();
        times.time(Phase::Compute, || {
            let (part, outboxes) = (&mut *wk.part, &mut wk.outboxes);
            let mut mirror_old: HashMap<u32, P::Value> = HashMap::new();
            let msgs = run.transport.drain(me, base + 3);
            drained += msgs.len() as u64;
            for msg in msgs {
                match msg {
                    GasMsg::Apply { local: v, value } => {
                        let li = part.local_index(v) as usize;
                        mirror_old.insert(v, std::mem::replace(&mut part.data[li], value));
                    }
                    GasMsg::ScatterReq { local: v } => {
                        let li = part.local_index(v) as usize;
                        // A master queues the pair in one batch, Apply first.
                        let old = mirror_old.get(&v);
                        let old = old.unwrap_or_else(|| panic!("ScatterReq {v} before its Apply"));
                        let new = &part.data[li];
                        scatter_local(program, graph, part, li, old, new, &mut locally_activated);
                        let master = partition.masters[v as usize] as usize;
                        outboxes[master].push(GasMsg::ScatterResp { local: v });
                    }
                    other => out_of_phase("scatter", &other),
                }
            }
            // Master scatters its own local out-edges.
            for (&li, old) in &old_values {
                let new = &part.data[li as usize];
                scatter_local(
                    program,
                    graph,
                    part,
                    li as usize,
                    old,
                    new,
                    &mut locally_activated,
                );
            }
            // Route activations: local masters directly, remote via digests.
            locally_activated.sort_unstable();
            locally_activated.dedup();
            let mut digests: Vec<Vec<u32>> = vec![Vec::new(); num_workers];
            for &li in locally_activated.iter() {
                let v = part.local_vertices[li as usize];
                let master = partition.masters[v as usize] as usize;
                if master == me {
                    if !part.active[li as usize] {
                        part.active[li as usize] = true;
                        active_list.push(li);
                    }
                } else {
                    digests[master].push(v);
                }
            }
            for (dest, vs) in digests.into_iter().enumerate() {
                if !vs.is_empty() {
                    outboxes[dest].push(GasMsg::Activate { vertices: vs });
                }
            }
        });
        wk.span_end(cmp_span, SpanKind::Compute, superstep, 3);
        times.time(Phase::Send, || wk.flush(base + 3));

        // ---- SYN: the superstep's stats entry, then the observers. ----
        {
            let mut cur = run.current.lock();
            cur.active_vertices += computed;
            cur.phase_times = cur.phase_times.merge(&times);
        }
        run.cmp_ns[me].store(times.compute.as_nanos() as u64, Ordering::Relaxed);
        let sync_start = Instant::now();
        if wk.barrier(superstep) {
            run.close_superstep(superstep, sync_start.elapsed());
        }
        wk.barrier(superstep);
        times.add(Phase::Sync, sync_start.elapsed());
        if let Some(tr) = tracer {
            tr.add_drained(drained);
        }
        // The frontier is the active set entering the superstep.
        let counts = [my_active, computed, locally_activated.len()];
        wk.commit_superstep(superstep, counts, &times);
        superstep += 1;
    }
}

/// Partial gather of vertex `li` over this part's local in-edges.
fn local_gather<P: GasProgram>(
    program: &P,
    graph: &Graph,
    part: &PartState<P::Value>,
    li: usize,
) -> Option<P::Gather> {
    let dst = part.local_vertices[li];
    let mut acc: Option<P::Gather> = None;
    for (src_li, w) in part.edges.in_edges(li as VertexId) {
        let src = part.local_vertices[src_li as usize];
        let g = program.gather(graph, src, &part.data[src_li as usize], w, dst);
        acc = Some(match acc {
            Some(a) => program.sum(a, g),
            None => g,
        });
    }
    acc
}

fn merge_pending<P: GasProgram>(
    program: &P,
    pending: &mut HashMap<u32, Option<P::Gather>>,
    li: u32,
    acc: Option<P::Gather>,
) {
    let slot = pending.entry(li).or_insert(None);
    *slot = match (slot.take(), acc) {
        (Some(a), Some(b)) => Some(program.sum(a, b)),
        (a, None) => a,
        (None, b) => b,
    };
}

/// Scatter along this part's local out-edges of `li`, collecting activations.
fn scatter_local<P: GasProgram>(
    program: &P,
    graph: &Graph,
    part: &PartState<P::Value>,
    li: usize,
    old: &P::Value,
    new: &P::Value,
    activated: &mut Vec<u32>,
) {
    let src = part.local_vertices[li];
    for (dst_li, w) in part.edges.out_edges(li as VertexId) {
        let dst = part.local_vertices[dst_li as usize];
        if program.scatter_activates(graph, src, old, new, w, dst) {
            activated.push(dst_li);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_partition::{GreedyVertexCut, RandomVertexCut, VertexCutPartitioner};

    /// Max propagation in GAS form.
    struct MaxGas;
    impl GasProgram for MaxGas {
        type Value = u32;
        type Gather = u32;
        fn init(&self, v: VertexId, _g: &Graph) -> u32 {
            v
        }
        fn gather(&self, _g: &Graph, _s: VertexId, sv: &u32, _w: f64, _d: VertexId) -> u32 {
            *sv
        }
        fn sum(&self, a: u32, b: u32) -> u32 {
            a.max(b)
        }
        fn apply(&self, _g: &Graph, _v: VertexId, old: &u32, acc: Option<u32>) -> u32 {
            acc.map(|a| a.max(*old)).unwrap_or(*old)
        }
        fn scatter_activates(
            &self,
            _g: &Graph,
            _s: VertexId,
            old: &u32,
            new: &u32,
            _w: f64,
            _d: VertexId,
        ) -> bool {
            new > old
        }
    }

    fn ring(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i as VertexId, ((i + 1) % n) as VertexId);
        }
        b.build()
    }

    #[test]
    fn max_floods_ring_random_cut() {
        let g = ring(32);
        let p = RandomVertexCut::default().partition(&g, 4);
        let r = run_gas(
            &MaxGas,
            &g,
            &p,
            &GasConfig {
                cluster: ClusterSpec::flat(2, 2),
                ..Default::default()
            },
        );
        assert!(r.values.iter().all(|&v| v == 31), "{:?}", &r.values[..8]);
        assert!(r.supersteps >= 31);
    }

    #[test]
    fn greedy_cut_agrees_with_random_cut() {
        let g = ring(24);
        let cfg = GasConfig {
            cluster: ClusterSpec::flat(3, 1),
            ..Default::default()
        };
        let a = run_gas(
            &MaxGas,
            &g,
            &RandomVertexCut::default().partition(&g, 3),
            &cfg,
        );
        let b = run_gas(
            &MaxGas,
            &g,
            &GreedyVertexCut::default().partition(&g, 3),
            &cfg,
        );
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn message_pattern_is_five_per_mirror() {
        // A two-vertex graph with one edge, split so the edge lives on a
        // non-master part of vertex 0: vertex 0 has one mirror.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let g = b.build();
        // Edge on part 1. Masters: v0 -> part 1 (most edges), v1 -> part 1.
        let p = VertexCutPartition::from_edge_assignment(&g, 2, vec![1]);
        // All replicas on part 1: no mirrors at all -> no messages.
        let r = run_gas(
            &MaxGas,
            &g,
            &p,
            &GasConfig {
                cluster: ClusterSpec::flat(2, 1),
                ..Default::default()
            },
        );
        assert_eq!(r.counters.messages, 0);

        // Force a split: vertex 0's master on part 0, its edge on part 1.
        let mut p2 = VertexCutPartition::from_edge_assignment(&g, 2, vec![1]);
        p2.masters[0] = 0;
        p2.replicas[0] = vec![0, 1];
        let r2 = run_gas(
            &MaxGas,
            &g,
            &p2,
            &GasConfig {
                cluster: ClusterSpec::flat(2, 1),
                ..Default::default()
            },
        );
        // Superstep 0: v0 active with 1 mirror -> 2 gather + 1 apply +
        // 2 scatter = 5; v1 active, no mirrors -> 0. Nothing re-activates
        // (values can only stay equal), so the run ends there.
        assert_eq!(r2.counters.messages, 5);
    }

    #[test]
    fn sssp_style_push_only_runs_active_vertices() {
        // With only vertex 0 initially active, superstep 0 computes 1 vertex.
        struct MaxFromZero;
        impl GasProgram for MaxFromZero {
            type Value = u32;
            type Gather = u32;
            fn init(&self, v: VertexId, _g: &Graph) -> u32 {
                if v == 0 {
                    100
                } else {
                    0
                }
            }
            fn initially_active(&self, v: VertexId, _g: &Graph) -> bool {
                v == 0
            }
            fn gather(&self, _g: &Graph, _s: VertexId, sv: &u32, _w: f64, _d: VertexId) -> u32 {
                *sv
            }
            fn sum(&self, a: u32, b: u32) -> u32 {
                a.max(b)
            }
            fn apply(&self, _g: &Graph, _v: VertexId, old: &u32, acc: Option<u32>) -> u32 {
                acc.map(|a| a.max(*old)).unwrap_or(*old)
            }
            fn scatter_activates(
                &self,
                _g: &Graph,
                _s: VertexId,
                _old: &u32,
                new: &u32,
                _w: f64,
                _d: VertexId,
            ) -> bool {
                *new == 100
            }
        }
        let g = ring(8);
        let p = RandomVertexCut::default().partition(&g, 2);
        let r = run_gas(
            &MaxFromZero,
            &g,
            &p,
            &GasConfig {
                cluster: ClusterSpec::flat(2, 1),
                ..Default::default()
            },
        );
        assert_eq!(r.stats[0].active_vertices, 1);
        assert!(r.values.iter().all(|&v| v == 100));
    }

    /// `None`, or a message whose encoding is exactly the bytes consumed.
    fn assert_rejected_or_canonical(bytes: &[u8]) {
        let mut read = bytes;
        if let Some(msg) = GasMsg::<f64, f64>::try_decode(&mut read) {
            let consumed = &bytes[..bytes.len() - read.remaining()];
            let mut again = BytesMut::new();
            msg.encode(&mut again);
            assert_eq!(&again[..], consumed, "decoded from {bytes:?}");
            assert_eq!(msg.encoded_len(), consumed.len());
        }
    }

    #[test]
    fn gas_msg_decoder_accepts_only_what_the_encoder_emits() {
        let one_of_each: [GasMsg<f64, f64>; 7] = [
            GasMsg::GatherReq { local: 7, reply: 3 },
            GasMsg::GatherResp {
                local: 9,
                acc: Some(0.25),
            },
            GasMsg::GatherResp {
                local: 9,
                acc: None,
            },
            GasMsg::Apply {
                local: 4,
                value: -1.5,
            },
            GasMsg::ScatterReq { local: 11 },
            GasMsg::ScatterResp { local: 12 },
            GasMsg::Activate {
                vertices: vec![1, 2, 300],
            },
        ];
        for msg in one_of_each {
            let mut buf = BytesMut::new();
            msg.encode(&mut buf);
            let bytes = buf.to_vec();
            assert_eq!(bytes.len(), msg.encoded_len());
            // The decoder takes back exactly what the encoder emits.
            let mut read = &bytes[..];
            let decoded = GasMsg::<f64, f64>::try_decode(&mut read).expect("well-formed");
            assert!(read.is_empty());
            let mut again = BytesMut::new();
            decoded.encode(&mut again);
            assert_eq!(&again[..], &bytes[..]);
            // Every truncation, every single-bit flip, every other tag byte.
            for cut in 0..bytes.len() {
                assert_rejected_or_canonical(&bytes[..cut]);
            }
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_rejected_or_canonical(&flipped);
            }
            for tag in 6..=255u8 {
                let mut retagged = bytes.clone();
                retagged[0] = tag;
                let decoded = GasMsg::<f64, f64>::try_decode(&mut &retagged[..]);
                assert!(decoded.is_none(), "tag {tag}");
            }
        }
        // A presence byte other than 0 or 1 is corruption, not "absent".
        let presence_two = [1, 9, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(GasMsg::<f64, f64>::try_decode(&mut &presence_two[..]).is_none());
    }

    #[test]
    fn replication_factor_matches_partition() {
        let g = ring(16);
        let p = RandomVertexCut::default().partition(&g, 4);
        let r = run_gas(
            &MaxGas,
            &g,
            &p,
            &GasConfig {
                cluster: ClusterSpec::flat(4, 1),
                ..Default::default()
            },
        );
        assert_eq!(r.replication_factor, p.replication_factor());
    }
}
