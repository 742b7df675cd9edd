//! The BSP superstep loop over a simulated cluster.
//!
//! Every worker is an OS thread owning one graph partition. A superstep runs
//! the paper's four sequential operations (§3.5): message parsing (PRS),
//! vertex computation (CMP), message sending (SND) and the global barrier
//! (SYN). Messages go through [`Transport`] in
//! [`InboxMode::GlobalQueue`] — one locked queue per worker, exactly Hama's
//! contended design (§4.1).
//!
//! Where each phase lives: a [`Run`] is what every thread borrows, a
//! [`Worker`] one thread's partition plus what it resolved once, and each
//! phase is one method — [`Worker::parse`] (PRS), [`Worker::compute_vertex`]
//! between [`Worker::begin_compute`] and [`Worker::end_compute`] (CMP),
//! [`Worker::send`] (SND), [`Run::checkpoint_due`] with
//! [`Worker::capture_checkpoint`], and [`Worker::sync`] (SYN), whose leader
//! calls [`Run::publish_aggregate`] and [`Run::close_superstep`] and which
//! [`Worker::commit_superstep`] follows for the observers. The driver,
//! [`worker_loop`], keeps the awake list it walks: one relaxation round per
//! superstep, as in Hama.

use crate::checkpoint::Checkpoint;
use crate::program::{BspContext, BspProgram};
use cyclops_graph::{Graph, VertexId};
use cyclops_net::metrics::CounterSnapshot;
use cyclops_net::trace::{digest_bytes, SpaceSaving, TraceRecord, TraceSink};
use cyclops_net::{
    AggregateStats, ClusterSpec, EngineObs, HierarchicalBarrier, InboxMode, Phase, PhaseTimes,
    SuperstepStats, Transport, WorkerTracer,
};
use cyclops_obs::{MemScope, SpanKind, SpanRing};
use cyclops_partition::EdgeCutPartition;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct BspConfig {
    /// Simulated cluster topology. BSP workers are single-threaded, so only
    /// `machines × workers_per_machine` matters.
    pub cluster: ClusterSpec,
    /// Global hard cap on the superstep index (the paper's PageRank also
    /// caps iterations). A checkpoint-resume continues toward the *same*
    /// cap: resuming at or past it executes nothing.
    pub max_supersteps: usize,
    /// Apply the program's combiner before sending (Hama does; §4.1).
    pub use_combiner: bool,
    /// Fingerprint each vertex's outgoing broadcast to count messages that
    /// repeat the previous superstep's value — Figure 3(2)'s "redundant
    /// messages". Costs one encode pass per message.
    pub track_redundant: bool,
    /// Capture a checkpoint every `n` supersteps (§3.6), if set.
    pub checkpoint_every: Option<usize>,
    /// Inbox discipline for the transport. Hama's design is
    /// [`InboxMode::GlobalQueue`] (one locked queue per worker, §4.1) and is
    /// the default; [`InboxMode::Sharded`] swaps in Cyclops' contention-free
    /// per-sender lanes for an apples-to-apples inbox ablation.
    pub inbox: InboxMode,
}

impl Default for BspConfig {
    fn default() -> Self {
        BspConfig {
            cluster: ClusterSpec::flat(2, 2),
            max_supersteps: 10_000,
            use_combiner: false,
            track_redundant: false,
            checkpoint_every: None,
            inbox: InboxMode::GlobalQueue,
        }
    }
}

/// Output of a BSP run.
#[derive(Clone, Debug)]
pub struct BspResult<V, M> {
    /// Final vertex values, indexed by global vertex id.
    pub values: Vec<V>,
    /// Number of supersteps executed.
    pub supersteps: usize,
    /// Per-superstep statistics (aggregated over workers).
    pub stats: Vec<SuperstepStats>,
    /// Whole-run transport counters.
    pub counters: CounterSnapshot,
    /// Wall-clock time of the superstep loop (excludes ingress).
    pub elapsed: Duration,
    /// Checkpoints captured during the run (empty unless configured).
    pub checkpoints: Vec<Checkpoint<V, M>>,
}

/// Per-worker mutable state, owned by the worker's thread during the run.
struct WorkerState<V, M> {
    /// Global ids of the vertices this worker owns, ascending.
    locals: Vec<VertexId>,
    /// Vertex values, parallel to `locals`.
    values: Vec<V>,
    /// Vote-to-halt flags, parallel to `locals`.
    halted: Vec<bool>,
    /// Parsed incoming messages, parallel to `locals`.
    mailbox: Vec<Vec<M>>,
    /// A resumed run's checkpoint messages for this worker, in checkpoint
    /// order: the first PRS parses them ahead of its transport drain.
    resumed: Vec<(VertexId, M)>,
    /// Fingerprint of last superstep's outgoing messages per vertex
    /// (redundancy tracking).
    last_sent: Vec<u64>,
}

impl<V, M> WorkerState<V, M> {
    /// Local indices of the un-halted vertices, ascending — what the driver
    /// seeds its awake list from, so a checkpoint resume starts right.
    fn unhalted(&self) -> Vec<u32> {
        let awake = (0..self.locals.len()).filter(|&li| !self.halted[li]);
        awake.map(|li| li as u32).collect()
    }
}

/// Run-scoped state, built once and borrowed by every worker thread; a
/// thread is this plus its [`Worker`].
struct Run<'r, P: BspProgram> {
    program: &'r P,
    graph: &'r Graph,
    partition: &'r EdgeCutPartition,
    config: &'r BspConfig,
    trace: Option<&'r TraceSink>,
    obs: Option<EngineObs>,
    /// Per-worker CMP nanoseconds for the imbalance histogram (BSP has one
    /// compute thread per worker, so skew shows up *across* workers).
    cmp_ns: Vec<AtomicU64>,
    /// Global vertex -> local index on its owner.
    local_index: Vec<u32>,
    transport: Transport<(VertexId, P::Message)>,
    /// `(workers, 1)`: one single-threaded "machine" per worker; worker 0
    /// leads each SYN.
    barrier: HierarchicalBarrier,
    stop: AtomicBool,
    active_total: AtomicUsize,
    /// The aggregate pair: this superstep's contributions, and last
    /// superstep's total as programs read it.
    aggregate_acc: Mutex<AggregateStats>,
    prev_aggregate: Mutex<Option<AggregateStats>>,
    /// The stats ledger: closed entries, the entry of the superstep in
    /// flight, and the counters as of the last close.
    history: Mutex<Vec<SuperstepStats>>,
    current: Mutex<SuperstepStats>,
    last_counters: Mutex<CounterSnapshot>,
    supersteps_done: AtomicUsize,
    checkpoints: Mutex<Vec<Checkpoint<P::Value, P::Message>>>,
    start_superstep: usize,
}

/// Runs `program` on `graph` over the simulated cluster described by
/// `config`, starting from freshly initialized vertex values.
pub fn run_bsp<P: BspProgram>(
    program: &P,
    graph: &Graph,
    partition: &EdgeCutPartition,
    config: &BspConfig,
) -> BspResult<P::Value, P::Message> {
    run_bsp_inner(program, graph, partition, config, None, None)
}

/// [`run_bsp`] with a superstep-trace sink attached. The sink must have been
/// built for the same [`ClusterSpec`] as `config.cluster`.
pub fn run_bsp_traced<P: BspProgram>(
    program: &P,
    graph: &Graph,
    partition: &EdgeCutPartition,
    config: &BspConfig,
    trace: Option<&TraceSink>,
) -> BspResult<P::Value, P::Message> {
    run_bsp_inner(program, graph, partition, config, None, trace)
}

/// Resumes a BSP run from a checkpoint captured by an earlier run with
/// `checkpoint_every` set. The partition and cluster must match the original
/// run; execution continues from the checkpoint's superstep.
pub fn run_bsp_from_checkpoint<P: BspProgram>(
    program: &P,
    graph: &Graph,
    partition: &EdgeCutPartition,
    config: &BspConfig,
    checkpoint: &Checkpoint<P::Value, P::Message>,
) -> BspResult<P::Value, P::Message> {
    run_bsp_inner(program, graph, partition, config, Some(checkpoint), None)
}

fn run_bsp_inner<P: BspProgram>(
    program: &P,
    graph: &Graph,
    partition: &EdgeCutPartition,
    config: &BspConfig,
    resume: Option<&Checkpoint<P::Value, P::Message>>,
    trace: Option<&TraceSink>,
) -> BspResult<P::Value, P::Message> {
    let num_workers = config.cluster.num_workers();
    assert_eq!(
        partition.num_parts, num_workers,
        "partition has {} parts but the cluster has {} workers",
        partition.num_parts, num_workers
    );
    assert_eq!(partition.assignment.len(), graph.num_vertices());

    // ---- Ingress: build per-worker state. ----
    let mut locals: Vec<Vec<VertexId>> = vec![Vec::new(); num_workers];
    for v in graph.vertices() {
        locals[partition.part_of(v) as usize].push(v);
    }
    let mut local_index = vec![0u32; graph.num_vertices()];
    let build = |locals: Vec<VertexId>| {
        for (i, &v) in locals.iter().enumerate() {
            local_index[v as usize] = i as u32;
        }
        WorkerState {
            values: locals.iter().map(|&v| program.init(v, graph)).collect(),
            halted: vec![false; locals.len()],
            mailbox: locals.iter().map(|_| Vec::new()).collect(),
            resumed: Vec::new(),
            last_sent: vec![0; locals.len()],
            locals,
        }
    };
    let mut states: Vec<WorkerState<P::Value, P::Message>> =
        locals.into_iter().map(build).collect();

    if let Some(cp) = resume {
        let owner = |v: VertexId| partition.part_of(v) as usize;
        let slot = |v: VertexId| local_index[v as usize] as usize;
        for (v, value) in &cp.values {
            states[owner(*v)].values[slot(*v)] = value.clone();
        }
        for (v, halted) in &cp.halted {
            states[owner(*v)].halted[slot(*v)] = *halted;
        }
        for (dest, msg) in &cp.messages {
            states[owner(*dest)].resumed.push((*dest, msg.clone()));
        }
    }
    let start_superstep = resume.map_or(0, |cp| cp.superstep);

    let run = Run {
        program,
        graph,
        partition,
        config,
        trace,
        obs: EngineObs::resolve("bsp"),
        cmp_ns: (0..num_workers).map(|_| AtomicU64::new(0)).collect(),
        local_index,
        transport: Transport::new(config.cluster, config.inbox),
        barrier: HierarchicalBarrier::new(num_workers, 1),
        stop: AtomicBool::new(false),
        active_total: AtomicUsize::new(0),
        aggregate_acc: Mutex::new(AggregateStats::default()),
        prev_aggregate: Mutex::new(resume.and_then(|cp| cp.aggregate)),
        history: Mutex::new(Vec::new()),
        current: Mutex::new(SuperstepStats::default()),
        last_counters: Mutex::new(CounterSnapshot::default()),
        supersteps_done: AtomicUsize::new(start_superstep),
        checkpoints: Mutex::new(Vec::new()),
        start_superstep,
    };

    let loop_start = Instant::now();
    // With the cap at or below the resume point there is no superstep left
    // to run (max_supersteps is a global cap, not a budget from the resume).
    if start_superstep < config.max_supersteps {
        std::thread::scope(|scope| {
            for (me, st) in states.iter_mut().enumerate() {
                let run = &run;
                // The worker is built on its own thread: the memory tag is
                // thread-local.
                scope.spawn(move || worker_loop(run, run.worker(me, st)));
            }
        });
    }
    let elapsed = loop_start.elapsed();

    // ---- Assemble global values: every vertex sits in exactly one worker's
    // ascending locals, so a stable sort by id merges those runs. ----
    let mut owned: Vec<(VertexId, P::Value)> = states
        .into_iter()
        .flat_map(|st| st.locals.into_iter().zip(st.values))
        .collect();
    owned.sort_by_key(|&(v, _)| v);
    BspResult {
        values: owned.into_iter().map(|(_, value)| value).collect(),
        supersteps: run.supersteps_done.load(Ordering::Acquire),
        stats: run.history.into_inner(),
        counters: run.transport.counters().snapshot(),
        elapsed,
        checkpoints: run.checkpoints.into_inner(),
    }
}

/// FNV-1a over encoded message bytes; used to detect a vertex re-sending the
/// same messages as last superstep.
fn fingerprint<M: cyclops_net::Codec>(buf: &mut bytes::BytesMut, msgs: &[(VertexId, M)]) -> u64 {
    use cyclops_net::Codec as _;
    buf.clear();
    for (d, m) in msgs {
        d.encode(buf);
        m.encode(buf);
    }
    // Avoid the empty-outbox fingerprint colliding with "never sent".
    digest_bytes(buf) | 1
}

/// One worker thread's side of a run: its partition, what it resolves once
/// rather than per superstep or per send, and the superstep's bookkeeping.
struct Worker<'r, P: BspProgram> {
    run: &'r Run<'r, P>,
    me: usize,
    st: &'r mut WorkerState<P::Value, P::Message>,
    tracer: Option<&'r WorkerTracer>,
    /// Per-worker flight-recorder ring (BSP workers are single-threaded);
    /// absent a recorder each span site is one `Option` check.
    flight: Option<Arc<SpanRing>>,
    /// Hot-vertex capture; disabled it costs one `Option` check per computed
    /// vertex. BSP has no degree plan, so the cost proxy is the message
    /// volume through the vertex: 1 + inbox + outbox.
    hot: Option<SpaceSaving>,
    /// Messages held per destination worker until SND.
    outboxes: Vec<Vec<(VertexId, P::Message)>>,
    vertex_outbox: Vec<(VertexId, P::Message)>,
    /// Encode buffer of the redundant-message fingerprint, reused across
    /// vertices and supersteps.
    fp_buf: bytes::BytesMut,
    /// The last superstep's aggregate, as this one's programs and checkpoint
    /// see it; the driver reloads it as it loops.
    agg_in: Option<AggregateStats>,
    /// This superstep's phase times, aggregate contributions, redundant
    /// messages and checkpoint flag: [`Self::sync`] adds the first and third
    /// to the open stats entry, [`Self::commit_superstep`] hands the rest to
    /// the observers and resets them all.
    times: PhaseTimes,
    agg: AggregateStats,
    redundant: usize,
    checkpointed: bool,
    /// Worker-slot tag for the tracking allocator (two thread-local writes).
    _mem_tag: MemScope,
}

impl<'r, P: BspProgram> Run<'r, P> {
    fn worker(&'r self, me: usize, st: &'r mut WorkerState<P::Value, P::Message>) -> Worker<'r, P> {
        let hot_k = self.trace.map_or(0, |s| s.hot_k());
        Worker {
            run: self,
            me,
            st,
            tracer: self.trace.map(|s| s.worker(me)),
            flight: cyclops_obs::flight().map(|fr| fr.ring(me as u32, 0)),
            hot: (hot_k > 0).then(|| SpaceSaving::new(hot_k)),
            outboxes: (0..self.partition.num_parts).map(|_| Vec::new()).collect(),
            vertex_outbox: Vec::new(),
            fp_buf: bytes::BytesMut::new(),
            agg_in: None,
            times: PhaseTimes::default(),
            agg: AggregateStats::default(),
            redundant: 0,
            checkpointed: false,
            _mem_tag: MemScope::worker(me),
        }
    }

    /// Whether superstep `superstep` opens with a checkpoint capture — a
    /// pure function of the superstep index, so every worker agrees without
    /// communicating.
    fn checkpoint_due(&self, superstep: usize) -> bool {
        self.config.checkpoint_every.is_some_and(|every| {
            every > 0
                && superstep > self.start_superstep
                && (superstep - self.start_superstep).is_multiple_of(every)
        })
    }

    /// SYN, leader only: hands the contributions every worker merged before
    /// the barrier to the next superstep.
    fn publish_aggregate(&self) {
        let mut acc = self.aggregate_acc.lock();
        *self.prev_aggregate.lock() = (!acc.is_empty()).then_some(*acc);
        *acc = AggregateStats::default();
    }

    /// SYN, leader only: records the superstep's CMP skew across workers,
    /// closes its [`SuperstepStats`] entry with the messages and bytes the
    /// counters gained since the last close, and publishes it done.
    fn close_superstep(&self, superstep: usize) {
        if let Some(obs) = &self.obs {
            obs.record_imbalance(self.cmp_ns.iter().map(|a| a.load(Ordering::Relaxed)));
        }
        let snap = self.transport.counters().snapshot();
        let mut last = self.last_counters.lock();
        let mut cur = self.current.lock();
        cur.superstep = superstep;
        cur.messages_sent = snap.messages - last.messages;
        cur.bytes_sent = snap.bytes - last.bytes;
        self.history.lock().push(std::mem::take(&mut cur));
        *last = snap;
        self.supersteps_done.store(superstep + 1, Ordering::Release);
    }
}

impl<'r, P: BspProgram> Worker<'r, P> {
    fn span_start(&self) -> Option<u64> {
        self.flight.as_ref().map(|r| r.now_ns())
    }

    fn span_end(&self, start: Option<u64>, kind: SpanKind, args: [u64; 3]) {
        if let (Some(r), Some(start)) = (&self.flight, start) {
            r.record(kind, start, args[0], args[1], args[2]);
        }
    }

    /// PRS: drains superstep `superstep`'s messages, behind a resumed run's
    /// checkpoint messages, into the per-vertex mailboxes. A message
    /// reactivates a halted vertex (Pregel semantics); only that transition
    /// joins it to `awake`, so entries stay unique, and `awake` is re-sorted
    /// ascending after the arrivals. Returns the number of messages drained.
    fn parse(&mut self, superstep: usize, awake: &mut Vec<u32>) -> usize {
        let span = self.span_start();
        let (run, me) = (self.run, self.me);
        let st = &mut *self.st;
        let received = self.times.time(Phase::Parse, || {
            let resumed = std::mem::take(&mut st.resumed);
            let drained = run.transport.drain(me, superstep);
            let count = resumed.len() + drained.len();
            for (dest, msg) in resumed.into_iter().chain(drained) {
                let li = run.local_index[dest as usize] as usize;
                debug_assert_eq!(run.partition.part_of(dest) as usize, me);
                if std::mem::replace(&mut st.halted[li], false) {
                    awake.push(li as u32);
                }
                st.mailbox[li].push(msg);
            }
            awake.sort_unstable();
            count
        });
        self.span_end(span, SpanKind::Parse, [superstep as u64, 0, 0]);
        received
    }

    /// Captures this worker's slice of superstep `superstep`'s checkpoint
    /// (cooperative: the first worker to arrive stores its slice as the
    /// entry, the others append theirs). Taken where mailboxes are the only
    /// in-flight state, which go in as the checkpoint's messages.
    fn capture_checkpoint(&mut self, superstep: usize) {
        self.checkpointed = true;
        let st = &*self.st;
        let (mut values, mut halted, mut messages) = (Vec::new(), Vec::new(), Vec::new());
        for (i, &v) in st.locals.iter().enumerate() {
            values.push((v, st.values[i].clone()));
            halted.push((v, st.halted[i]));
            messages.extend(st.mailbox[i].iter().map(|m| (v, m.clone())));
        }
        let mut cps = self.run.checkpoints.lock();
        match cps.last_mut() {
            Some(cp) if cp.superstep == superstep => {
                cp.values.append(&mut values);
                cp.halted.append(&mut halted);
                cp.messages.append(&mut messages);
            }
            _ => cps.push(Checkpoint {
                superstep,
                values,
                halted,
                messages,
                aggregate: self.agg_in,
            }),
        }
    }

    /// Opens CMP: the flight span and the clock [`Self::end_compute`] closes.
    fn begin_compute(&self) -> (Option<u64>, Instant) {
        (self.span_start(), Instant::now())
    }

    /// CMP for one local vertex: runs the program over its mailbox as
    /// superstep `superstep`, records its cost in the hot sketch,
    /// fingerprints its broadcast against last superstep's, and routes its
    /// messages to the per-destination outboxes. Returns whether the vertex
    /// voted to halt.
    #[inline]
    fn compute_vertex(&mut self, li: usize, superstep: usize) -> bool {
        let run = self.run;
        let st = &mut *self.st;
        let vertex = st.locals[li];
        self.vertex_outbox.clear();
        let msgs = std::mem::take(&mut st.mailbox[li]);
        let mut halted = false;
        let mut ctx = BspContext {
            vertex,
            superstep,
            graph: run.graph,
            value: &mut st.values[li],
            halted: &mut halted,
            outbox: &mut self.vertex_outbox,
            aggregate: &mut self.agg,
            prev_aggregate: self.agg_in,
        };
        run.program.compute(&mut ctx, &msgs);
        st.halted[li] = halted;
        let sent = self.vertex_outbox.len();
        if let Some(hs) = self.hot.as_mut() {
            hs.record(vertex, (1 + msgs.len() + sent) as u64);
        }
        if run.config.track_redundant && sent > 0 {
            let fp = fingerprint(&mut self.fp_buf, &self.vertex_outbox);
            if fp == st.last_sent[li] {
                self.redundant += sent;
            }
            st.last_sent[li] = fp;
        }
        for (dest, msg) in self.vertex_outbox.drain(..) {
            self.outboxes[run.partition.part_of(dest) as usize].push((dest, msg));
        }
        halted
    }

    /// Closes the CMP pass `begun` opened, which followed `received`
    /// arrivals: its time joins the imbalance histogram's input, its
    /// aggregate contributions the run's, the arrivals the tracer's.
    fn end_compute(&mut self, begun: (Option<u64>, Instant), superstep: usize, received: usize) {
        self.times.add(Phase::Compute, begun.1.elapsed());
        self.span_end(begun.0, SpanKind::Compute, [superstep as u64, 0, 0]);
        let cmp_ns = self.times.compute.as_nanos() as u64;
        self.run.cmp_ns[self.me].store(cmp_ns, Ordering::Relaxed);
        if !self.agg.is_empty() {
            self.run.aggregate_acc.lock().merge(&self.agg);
        }
        if let Some(tr) = self.tracer {
            tr.add_drained(received as u64);
        }
    }

    /// SND: combines and transmits every nonempty outbox as superstep
    /// `superstep`'s messages.
    fn send(&mut self, superstep: usize) {
        let span = self.span_start();
        let (run, me, tracer) = (self.run, self.me, self.tracer);
        self.times.time(Phase::Send, || {
            for (dest_worker, outbox) in self.outboxes.iter_mut().enumerate() {
                let mut batch = std::mem::take(outbox);
                if batch.is_empty() {
                    continue;
                }
                if run.config.use_combiner {
                    combine_batch(run.program, &mut batch);
                }
                let sent = batch.len();
                // Sender lanes are global thread indices; a BSP worker's
                // single compute thread owns lane `me * threads_per_worker`.
                let lane = me * run.config.cluster.threads_per_worker;
                let receipt = run.transport.send(lane, dest_worker, batch, superstep);
                if let Some(tr) = tracer {
                    tr.add_sent_to(dest_worker, sent as u64, receipt.bytes as u64);
                }
            }
        });
        self.span_end(span, SpanKind::Send, [superstep as u64, 0, 0]);
    }

    /// SYN: adds superstep `superstep`'s `computed` vertices, redundant
    /// messages and PRS / CMP / SND times to the open stats entry, meets the
    /// barrier twice with `leader` run by worker 0 in between, and charges
    /// the wait — to the *next* stats entry (`leader` may have published
    /// this one; summed over workers like the compute phases, the scheme the
    /// Cyclops engine uses) and to this superstep's times, which the trace
    /// record and the phase histograms attribute to the superstep that ran.
    fn sync(&mut self, superstep: usize, computed: usize, leader: impl FnOnce()) {
        let run = self.run;
        {
            let mut cur = run.current.lock();
            cur.active_vertices += computed;
            cur.redundant_messages += std::mem::take(&mut self.redundant);
            cur.phase_times = cur.phase_times.merge(&self.times);
        }
        let flight = self.flight.as_deref();
        let sync_start = Instant::now();
        let epoch = superstep as u64;
        run.barrier.wait_traced(self.me, 0, flight, epoch);
        if self.me == 0 {
            leader();
        }
        run.barrier.wait_traced(self.me, 0, flight, epoch);
        let wait = sync_start.elapsed();
        run.current.lock().phase_times.add(Phase::Sync, wait);
        self.times.add(Phase::Sync, wait);
    }

    /// Closes this worker's superstep for the observers: the phase-latency
    /// histograms, the trace record (its hot sketch in slot 0 — BSP workers
    /// have one thread; `computed` vertices were active entering compute
    /// and `activated` of them stay un-halted), and the memory sample
    /// (no-op unless `--mem`).
    fn commit_superstep(&mut self, superstep: usize, computed: usize, activated: usize) {
        let times = std::mem::take(&mut self.times);
        let agg = std::mem::take(&mut self.agg);
        let checkpointed = std::mem::take(&mut self.checkpointed);
        if let Some(obs) = &self.run.obs {
            obs.record_phases(&times);
            if self.me == 0 {
                obs.set_supersteps(superstep + 1);
            }
        }
        if let Some(tr) = self.tracer {
            if let Some(hs) = self.hot.as_mut() {
                tr.set_thread_hot(0, hs);
                hs.clear();
            }
            let record = TraceRecord {
                superstep: superstep as u64,
                worker: self.me as u64,
                frontier: computed as u64,
                computed: computed as u64,
                activated: activated as u64,
                checkpoint: checkpointed,
                agg: (!agg.is_empty()).then_some(agg),
                ..TraceRecord::default()
            };
            tr.commit(&times, record);
        }
        cyclops_obs::mem::sample(superstep as u64, self.me as u32);
    }
}

/// The classic loop: one relaxation round per superstep.
fn worker_loop<P: BspProgram>(run: &Run<'_, P>, mut wk: Worker<'_, P>) {
    let config = run.config;
    let mut superstep = run.start_superstep;
    // Sorted local indices of un-halted vertices, maintained incrementally:
    // rebuilt from the ascending compute walk each superstep, extended by
    // message reactivations in PRS.
    let mut awake = wk.st.unhalted();
    let mut next_awake: Vec<u32> = Vec::new();

    loop {
        wk.agg_in = *run.prev_aggregate.lock();

        // ---- PRS: arrivals wake their halted vertices. ----
        let received = wk.parse(superstep, &mut awake);
        // The post-parse state is a consistent cut.
        if run.checkpoint_due(superstep) {
            wk.capture_checkpoint(superstep);
        }

        // ---- CMP: run compute on the awake list — every un-halted
        // vertex, ascending. ----
        let computed = awake.len();
        let cmp = wk.begin_compute();
        next_awake.clear();
        for &li in &awake {
            if !wk.compute_vertex(li as usize, superstep) {
                next_awake.push(li);
            }
        }
        wk.end_compute(cmp, superstep, received);
        // The ascending compute walk rebuilt the un-halted set in order.
        std::mem::swap(&mut awake, &mut next_awake);
        run.active_total.fetch_add(computed, Ordering::Relaxed);

        wk.send(superstep);

        wk.sync(superstep, computed, || {
            let total_active = run.active_total.swap(0, Ordering::Relaxed);
            run.publish_aggregate();
            run.close_superstep(superstep);
            // Termination: nothing active and nothing in flight, or the
            // global superstep cap is hit (a resume does not reset it).
            let halt = (total_active == 0 && run.transport.all_empty())
                || superstep + 1 >= config.max_supersteps;
            run.stop.store(halt, Ordering::Release);
        });
        wk.commit_superstep(superstep, computed, awake.len());
        if run.stop.load(Ordering::Acquire) {
            return;
        }
        superstep += 1;
    }
}

/// Sorts a batch by destination and folds adjacent messages with the
/// program's combiner.
fn combine_batch<P: BspProgram>(program: &P, batch: &mut Vec<(VertexId, P::Message)>) {
    if batch.len() < 2 {
        return;
    }
    batch.sort_by_key(|&(d, _)| d);
    let mut out: Vec<(VertexId, P::Message)> = Vec::with_capacity(batch.len());
    for (dest, msg) in batch.drain(..) {
        match out.last_mut() {
            Some((d, last)) if *d == dest => match program.combine(last, &msg) {
                Some(merged) => *last = merged,
                None => out.push((dest, msg)),
            },
            _ => out.push((dest, msg)),
        }
    }
    *batch = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_graph::GraphBuilder;
    use cyclops_partition::{EdgeCutPartitioner, HashPartitioner};

    /// Toy program: every vertex floods its id+1 hops; value = max id seen.
    /// Push-mode: vertices halt and wake on messages.
    struct MaxFlood;
    impl BspProgram for MaxFlood {
        type Value = u32;
        type Message = u32;
        fn init(&self, vertex: VertexId, _g: &Graph) -> u32 {
            vertex
        }
        fn compute(&self, ctx: &mut BspContext<'_, u32, u32>, msgs: &[u32]) {
            let mut best = *ctx.value();
            for &m in msgs {
                best = best.max(m);
            }
            if best > *ctx.value() || ctx.superstep() == 0 {
                ctx.set_value(best);
                ctx.send_to_neighbors(best);
            }
            ctx.vote_to_halt();
        }
        fn combine(&self, a: &u32, b: &u32) -> Option<u32> {
            Some(*a.max(b))
        }
    }

    fn ring(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i as VertexId, ((i + 1) % n) as VertexId);
        }
        b.build()
    }

    fn run_maxflood(cluster: ClusterSpec, use_combiner: bool) -> BspResult<u32, u32> {
        let g = ring(64);
        let p = HashPartitioner.partition(&g, cluster.num_workers());
        run_bsp(
            &MaxFlood,
            &g,
            &p,
            &BspConfig {
                cluster,
                use_combiner,
                ..Default::default()
            },
        )
    }

    #[test]
    fn max_floods_around_ring() {
        let r = run_maxflood(ClusterSpec::flat(2, 2), false);
        assert!(r.values.iter().all(|&v| v == 63), "{:?}", &r.values[..8]);
        // The max needs 63 hops to go around; +1 initial and +1 empty final.
        assert!(r.supersteps >= 64, "supersteps {}", r.supersteps);
    }

    #[test]
    fn single_worker_matches_multi_worker() {
        let a = run_maxflood(ClusterSpec::flat(1, 1), false);
        let b = run_maxflood(ClusterSpec::flat(3, 2), false);
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn combiner_preserves_result() {
        let a = run_maxflood(ClusterSpec::flat(2, 2), false);
        let b = run_maxflood(ClusterSpec::flat(2, 2), true);
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn stats_recorded_per_superstep() {
        let r = run_maxflood(ClusterSpec::flat(2, 2), false);
        assert_eq!(r.stats.len(), r.supersteps);
        // Superstep 0: every vertex computes and sends one message each.
        assert_eq!(r.stats[0].active_vertices, 64);
        assert_eq!(r.stats[0].messages_sent, 64);
        assert!(r.counters.messages >= 64);
    }

    #[test]
    fn max_supersteps_caps_run() {
        let g = ring(64);
        let p = HashPartitioner.partition(&g, 2);
        let r = run_bsp(
            &MaxFlood,
            &g,
            &p,
            &BspConfig {
                cluster: ClusterSpec::flat(2, 1),
                max_supersteps: 5,
                ..Default::default()
            },
        );
        assert_eq!(r.supersteps, 5);
    }

    #[test]
    fn checkpoint_resume_reaches_same_result() {
        let g = ring(64);
        let cluster = ClusterSpec::flat(2, 2);
        let p = HashPartitioner.partition(&g, 4);
        let config = BspConfig {
            cluster,
            checkpoint_every: Some(10),
            ..Default::default()
        };
        let full = run_bsp(&MaxFlood, &g, &p, &config);
        assert!(!full.checkpoints.is_empty());
        // Simulate a crash: resume from the second checkpoint.
        let cp = &full.checkpoints[1];
        assert!(cp.storage_bytes() > 0);
        let resumed = run_bsp_from_checkpoint(
            &MaxFlood,
            &g,
            &p,
            &BspConfig {
                checkpoint_every: None,
                ..config
            },
            cp,
        );
        assert_eq!(resumed.values, full.values);
    }

    #[test]
    fn cross_machine_messages_have_bytes() {
        let r = run_maxflood(ClusterSpec::flat(4, 1), false);
        assert!(r.counters.bytes > 0);
        // Same machine everywhere -> zero bytes.
        let r2 = run_maxflood(ClusterSpec::flat(1, 4), false);
        assert_eq!(r2.counters.bytes, 0);
    }

    /// Push-mode shortest distances: messages carry candidate distances.
    struct MinDistBsp {
        source: VertexId,
    }
    impl BspProgram for MinDistBsp {
        type Value = f64;
        type Message = f64;
        fn init(&self, _v: VertexId, _g: &Graph) -> f64 {
            f64::INFINITY
        }
        fn compute(&self, ctx: &mut BspContext<'_, f64, f64>, msgs: &[f64]) {
            let mut best = *ctx.value();
            if ctx.superstep() == 0 && ctx.vertex() == self.source {
                best = best.min(0.0);
            }
            for &m in msgs {
                best = best.min(m);
            }
            if best < *ctx.value() {
                ctx.set_value(best);
                ctx.send_along_edges(|_, w| best + w);
            }
            ctx.vote_to_halt();
        }
        fn combine(&self, a: &f64, b: &f64) -> Option<f64> {
            Some(a.min(*b))
        }
    }

    #[test]
    fn checkpoint_interval_longer_than_run_captures_nothing() {
        // Regression: a capture interval that never fires (or a degenerate
        // zero interval) must leave the store empty without panicking.
        let g = cyclops_graph::gen::road_lattice(12, 12, 0.9, 0.1, 3);
        let p = HashPartitioner.partition(&g, 4);
        for every in [Some(1000), Some(0)] {
            let config = BspConfig {
                cluster: ClusterSpec::flat(2, 2),
                use_combiner: true,
                checkpoint_every: every,
                ..Default::default()
            };
            let r = run_bsp(&MinDistBsp { source: 0 }, &g, &p, &config);
            assert!(r.checkpoints.is_empty(), "every={every:?}");
            assert!(r.values.iter().any(|v| v.is_finite()));
        }
    }
}
