//! The unified Cyclops / CyclopsMT engine: one set of superstep phases, two
//! drivers.
//!
//! One engine serves both systems: flat Cyclops is a [`ClusterSpec`] with
//! single-threaded workers (`M x W x 1`); CyclopsMT is one worker per
//! machine with `T` compute threads and `R` receiver threads
//! (`M x 1 x T / R`, §5). Because the partition has one part per *worker*,
//! replicas automatically exist at worker granularity for flat Cyclops and
//! at machine granularity for CyclopsMT — the replica/message reduction
//! §6.10 and Table 4 measure.
//!
//! # The phases
//!
//! The paper's superstep is one fixed sequence (§3.4, §4.1) and each step has
//! exactly one definition, a method of `Worker` (one worker as a phase sees
//! it) or of `Run` (the run-scoped state every thread borrows):
//!
//! * **PRS** — `Worker::apply_inbound`: drain a share of the inbound lanes,
//!   write each update into its view slot lock-free, wake the slot's readers;
//! * **CMP** — `Worker::compute_vertex` (build the [`CyclopsContext`], run the
//!   program, fold error / convergence / digest, store the publication, wake
//!   local readers), `Worker::fan_out` (one [`ReplicaUpdate`] per remote copy
//!   of the publication: a replica of a hot master, a direct slot per cross
//!   edge of a cold one) and `Worker::publish_local`;
//! * **SND** — `Worker::send_outboxes`: one batch per non-empty destination,
//!   its receipt booked in the trace;
//! * **SYN** — `Run::close_superstep`: the global leader's reduction,
//!   [`SuperstepStats`], convergence predicate and cap → `stop`;
//!   `Worker::commit_superstep` closes a worker's trace record;
//!   `Run::checkpoint_due` / `Worker::capture_checkpoint` are the checkpoint
//!   cadence and capture.
//!
//! They vary in one thing only, decided by what the caller holds: *how the
//! readers of a written view slot are woken* is a closure over
//! `(slot, &payload)`, the readers being [`WorkerPlan::readers`]`(slot)`. The
//! bucket settle parks them at the priority the payload proposes. The
//! per-barrier driver takes whichever direction is cheaper for the superstep
//! (`pull_wins`): it *pushes* — walks the readers and marks each one's
//! frontier parity bit — or it sets the slot's bit in the worker's
//! [`FreshSlots`] and walks nothing, and the readers *pull* their wake-up
//! afterwards ([`Frontier::fill_from`]). There is one kind of view
//! update from publish to apply: mirroring and messaging are one mechanism with
//! a degree cutoff (Yan et al., arXiv:1503.00626), so a destination's outbox is
//! a `Vec<ReplicaUpdate>`, the run has one [`Transport`], and an update's id is
//! a remote slot of the destination's view, `[replicas | direct slots]`.
//!
//! # The drivers
//!
//! `thread_loop` runs one barrier pair per relaxation round and owns the
//! intra-worker barrier choreography, the frontier snapshot and its mass
//! chunks, chunk claiming and the `[dest][thread]` deposit/merge.
//! `settle_bucket` runs one barrier pair per priority bucket, on the global
//! leader alone, and owns bucket selection, the sorted drain order and Δ
//! retuning.
//!
//! # Safety
//!
//! Three slot arrays per worker are written without locks — `values`,
//! `msg_next` (the masters' write buffer) and `view`, the one array every
//! gather reads: `[masters | replicas | direct slots]`, indexed by the plan's
//! in-edge references. Four `unsafe` sites, each resting on
//! [`DisjointSlots`]' single-writer-per-epoch protocol (verified in debug
//! builds) and stating its argument once for both drivers: `values` and
//! `msg_next` in `Worker::compute_vertex`; the view's master range in
//! `Worker::publish_local` (SND, by the stream that computed the master); the
//! view's replica and direct ranges in `apply_batches` (PRS, by the receiver
//! that drained the slot's lane; the decoded remote slot is range-checked by
//! an explicit `assert!` there, not by the reader lookup, because a pulled
//! superstep looks no readers up). The two view writers never overlap in
//! range or in phase, and no gather runs during either, so one argument
//! covers the array: within an epoch every slot has one writer, and readers
//! are behind a barrier. The activation bitmaps (`Frontier`, `FreshSlots`)
//! are atomics and need no such argument; who may touch them when is the
//! table at the top of `frontier.rs`.

use crate::checkpoint::CyclopsCheckpoint;
use crate::frontier::{FreshSlots, Frontier};
use crate::plan::{CyclopsPlan, WorkerPlan};
use crate::program::{CyclopsContext, CyclopsProgram};
use cyclops_graph::Graph;
use cyclops_net::metrics::CounterSnapshot;
use cyclops_net::trace::{digest_bytes, SpaceSaving, TraceRecord, TraceSink};
use cyclops_net::{
    AggregateStats, BucketMode, ClusterSpec, Codec, DisjointSlots, HierarchicalBarrier, InboxMode,
    Phase, PhaseHists, PhaseTimes, ReplicaUpdate, SchedObs, SuperstepStats, Transport, WireMode,
    WorkerTracer,
};
use cyclops_obs::mem::{Component, MemScope};
use cyclops_obs::{SpanKind, SpanRing};
use cyclops_partition::EdgeCutPartition;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How many chunks of the frontier CMP cuts per compute thread. The chunks
/// are contiguous spans of roughly equal *work mass* (in-edges + activation
/// fan-out + mirrors, prefix-summed once at plan build, see
/// [`build_mass_chunks`]) and threads claim them through an atomic cursor, so
/// a skewed span cannot serialize the superstep behind one thread; per-chunk
/// float partials are reduced in chunk-index order, so the claim order never
/// shows in the results. More chunks → finer rebalancing but more
/// claim/reduce overhead; 4 keeps the straggler window at ~25 % of a thread's
/// share.
const CHUNKS_PER_THREAD: usize = 4;

/// Convergence detection scheme (§4.4).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Convergence {
    /// Halt when no vertex is active and no message is in flight — the
    /// natural endpoint of local-error activation (the default).
    ActiveVertices,
    /// Halt when at least `target` (0..=1) of all vertices have reported a
    /// local error ≤ `epsilon` — the fine-grained detector Cyclops adds
    /// because a global error bound converges different proportions on
    /// different datasets (§2.2.3, §4.4).
    Proportion {
        /// Per-vertex convergence threshold.
        epsilon: f64,
        /// Required converged fraction of all vertices.
        target: f64,
    },
    /// Halt when the mean reported error of this superstep's computed
    /// vertices drops to `epsilon` — the legacy aggregator scheme Cyclops
    /// retains for compatibility.
    GlobalError {
        /// Mean-error threshold.
        epsilon: f64,
    },
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct CyclopsConfig {
    /// Cluster topology; decides flat Cyclops vs CyclopsMT.
    pub cluster: ClusterSpec,
    /// Global hard cap on the superstep index: no superstep with index
    /// `>= max_supersteps` ever executes, and a checkpoint-resume continues
    /// toward the *same* cap (it does not get a fresh budget from the
    /// resume point). Resuming at or past the cap executes nothing.
    pub max_supersteps: usize,
    /// Convergence detection scheme.
    pub convergence: Convergence,
    /// Capture a value-only checkpoint every `n` supersteps (§3.6).
    pub checkpoint_every: Option<usize>,
    /// Cost model for cross-machine traffic (default: ideal / zero delay).
    pub network: cyclops_net::NetworkModel,
    /// Priority-bucket width Δ of the bucketed (delta-stepping) scheduler.
    /// `0.0` (the default) disables bucketing: the engine runs the classic
    /// one-relaxation-round-per-barrier loop. With Δ > 0, each superstep
    /// drains one priority bucket `[bΔ, (b+1)Δ)` to a fixpoint — fusing as
    /// many relaxation rounds as the bucket needs behind a *single* pair of
    /// global barrier waits — before advancing to the next nonempty bucket.
    /// On high-diameter graphs this collapses the paper's Figure 9 SSSP
    /// pathology (~one barrier per hop) to ~one barrier per bucket. Only for
    /// programs with a [`CyclopsProgram::priority`]: without one every
    /// activation is due at once and a bucket runs fused asynchronous
    /// rounds — another schedule, which gives non-monotone programs
    /// (PageRank, CD) other results. The CLI refuses that case.
    pub bucket_width: f64,
    /// Bucket drain discipline. The one drain selects each fused round's
    /// due vertices in ascending order, so a master computes at most once
    /// per round and the trace is a pure function of graph and partition.
    /// Ignored while `bucket_width == 0.0`.
    pub bucket_mode: BucketMode,
    /// Degree threshold of hybrid replication: a boundary vertex whose
    /// combined (in + out) degree is below the threshold gets **no**
    /// replica — its cross-worker in-edges read a per-worker direct-message
    /// table fed by one update per edge instead of one per mirror, in the
    /// same batches. `0` (the default) is full replication,
    /// byte-identical to the pre-hybrid engine. Results are bitwise
    /// identical at every threshold; only the wire traffic and the replica
    /// memory change. Ignored by the `run_cyclops_with_plan*` entry points,
    /// which take a pre-built plan.
    pub replicate_threshold: u32,
    /// Stop the run right after capturing a checkpoint (requires
    /// `checkpoint_every`): every thread exits at the post-capture barrier,
    /// before any superstep-`s` compute. The migration driver uses this to
    /// carve a run into epochs — the run stopped at a checkpoint exactly
    /// when `checkpoints.last().superstep == supersteps` (a naturally
    /// finished run always has its last checkpoint strictly earlier).
    pub stop_at_checkpoint: bool,
    /// Deterministic per-vertex compute-cost ledger fed by the compute
    /// loop: each computed master is charged its static work mass (the
    /// same proxy the compute chunks balance). `None` (the default)
    /// records nothing. Counters, not clocks — the ledger's totals are
    /// bitwise identical across thread counts.
    pub load_ledger: Option<std::sync::Arc<cyclops_partition::LoadLedger>>,
    /// Auto-retune the delta-stepping bucket width Δ from the live bucket
    /// occupancy (`--bucket-width auto`): a bucket that drains far more
    /// mass than the running average over many fused rounds halves Δ, a
    /// near-empty one doubles it, clamped to `[Δ₀/16, 16·Δ₀]`. Decisions
    /// read only deterministic counters, so bucketed traces stay stable
    /// across thread counts; distances are unaffected at any width.
    pub bucket_adapt: bool,
}

impl Default for CyclopsConfig {
    fn default() -> Self {
        CyclopsConfig {
            cluster: ClusterSpec::flat(2, 2),
            max_supersteps: 10_000,
            convergence: Convergence::ActiveVertices,
            checkpoint_every: None,
            network: cyclops_net::NetworkModel::ideal(),
            bucket_width: 0.0,
            bucket_mode: BucketMode::Det,
            replicate_threshold: 0,
            stop_at_checkpoint: false,
            load_ledger: None,
            bucket_adapt: false,
        }
    }
}

/// Output of a Cyclops run.
#[derive(Clone, Debug)]
pub struct CyclopsResult<V, M> {
    /// Final private vertex values, indexed by global vertex id.
    pub values: Vec<V>,
    /// Final publications, indexed by global vertex id.
    pub publications: Vec<Option<M>>,
    /// Number of supersteps executed.
    pub supersteps: usize,
    /// Per-superstep statistics, aggregated over workers.
    pub stats: Vec<SuperstepStats>,
    /// Whole-run transport counters.
    pub counters: CounterSnapshot,
    /// Updates sent to direct slots over the run (hybrid replication's
    /// cold-vertex path; 0 under full replication). A subset of
    /// `counters.messages`.
    pub direct_messages: usize,
    /// Wall-clock time of the superstep loop (excludes ingress).
    pub elapsed: Duration,
    /// Ingress phase breakdown (LD / REP / INIT) and replica counts.
    pub ingress: crate::plan::IngressStats,
    /// Average replicas per vertex for this partition and cluster.
    pub replication_factor: f64,
    /// Value-only checkpoints captured during the run.
    pub checkpoints: Vec<CyclopsCheckpoint<V, M>>,
    /// Cross-machine barrier protocol messages over the run (hierarchical
    /// barriers send one per machine leader instead of one per thread).
    pub barrier_protocol_messages: usize,
}

/// What one compute chunk (or, reduced, one worker's superstep, or the whole
/// superstep) reports to the leader. Addition order cannot change the
/// integer counts, but the float sums are reduced in a fixed order — chunks
/// within a worker, then workers — so the chunk claim order never shows in
/// the results.
#[derive(Clone, Copy, Default)]
struct ChunkPartial {
    agg: AggregateStats,
    err_sum: f64,
    err_count: usize,
    computed: usize,
    /// Updates queued for direct slots (see [`Worker::fan_out`]).
    direct: usize,
    /// Net change of the worker's converged-vertex count (Proportion mode).
    conv_delta: isize,
    /// The worker's locally known next frontier; set once per worker, by its
    /// leader (remote activations are still in flight and covered by the
    /// transport-empty termination check).
    next_active: usize,
}

impl ChunkPartial {
    fn merge(&mut self, other: &ChunkPartial) {
        self.agg.merge(&other.agg);
        self.err_sum += other.err_sum;
        self.err_count += other.err_count;
        self.computed += other.computed;
        self.direct += other.direct;
        self.conv_delta += other.conv_delta;
        self.next_active += other.next_active;
    }
}

/// One empty outbox per destination worker: the view updates a sender holds
/// for it until SND.
fn outboxes<M>(num_workers: usize) -> Vec<Vec<ReplicaUpdate<M>>> {
    let _mem = MemScope::enter(Component::SendPool);
    (0..num_workers).map(|_| Vec::new()).collect()
}

/// Per-worker state shared by that worker's threads.
struct WorkerShared<V, M> {
    values: DisjointSlots<V>,
    /// The immutable view: every publication visible this superstep, in the
    /// plan's slot space `[masters | replicas | direct slots]`. The master
    /// range is copied from `msg_next` at the copy phase; the replica and
    /// direct ranges are written by receiver threads, at most one message
    /// per slot per superstep (one source master per slot, one batch per
    /// sender per superstep). The direct range is empty under full
    /// replication.
    view: DisjointSlots<Option<M>>,
    /// Master publications produced this superstep, made visible at the copy
    /// phase.
    msg_next: DisjointSlots<Option<M>>,
    /// Double-buffered activation bitmap: an activation is one bit, and the
    /// snapshot is an ordered scan of the words.
    frontier: Frontier,
    /// The view slots written by a pulled superstep's CMP and the PRS after
    /// it, until that PRS's fill has read them.
    fresh: FreshSlots,
    /// Whether this superstep's publications wake their readers by pull —
    /// the local ones in its CMP, the remote ones in the next superstep's
    /// PRS on this worker. Decided by the worker leader at the frontier
    /// snapshot, read by every thread after the barrier that follows it.
    pull: AtomicBool,
    /// This superstep's snapshot: the ascending flat frontier...
    flat: parking_lot::RwLock<Vec<u32>>,
    /// ...and its equal-work-mass chunk end offsets: chunk `c` is
    /// `flat[ends[c-1]..ends[c]]`.
    ends: parking_lot::RwLock<Vec<u32>>,
    /// Next unclaimed chunk index.
    cursor: AtomicUsize,
    /// Per-chunk float partials, written by whichever thread computed the
    /// chunk and reduced in chunk-index order by the worker leader.
    partials: Vec<Mutex<ChunkPartial>>,
    /// Per-thread CMP nanoseconds this superstep — the worker leader feeds
    /// the `cyclops_compute_imbalance` histogram from these.
    cmp_ns: Vec<AtomicU64>,
    /// Shared outboxes `[dest][thread]`: threads deposit their per-
    /// destination publications at the end of CMP; flush threads merge the
    /// thread slots in thread order and send **one batch per destination**
    /// per superstep, so the batch count (and its wire framing) stays
    /// deterministic whatever chunks a thread claimed.
    deposits: Vec<Vec<Mutex<Vec<ReplicaUpdate<M>>>>>,
    /// Per-master converged flags (Proportion mode).
    converged: Vec<AtomicBool>,
    /// Intra-worker phase barrier (T participants).
    local: Barrier,
}

/// Run-scoped state, built once and borrowed by every engine thread; a
/// thread is this plus its `(worker, thread)` coordinates.
struct Run<'a, P: CyclopsProgram> {
    program: &'a P,
    graph: &'a Graph,
    plan: &'a CyclopsPlan,
    config: &'a CyclopsConfig,
    force_pull: Option<bool>,
    trace: Option<&'a TraceSink>,
    phase_hists: Option<PhaseHists>,
    sched_obs: Option<SchedObs>,
    threads: usize,
    receivers: usize,
    shared: Vec<WorkerShared<P::Value, P::Message>>,
    transport: Transport<ReplicaUpdate<P::Message>>,
    /// Running total behind [`CyclopsResult::direct_messages`].
    direct_messages: AtomicUsize,
    barrier: HierarchicalBarrier,
    stop: AtomicBool,
    converged_total: AtomicIsize,
    /// One float-partial slot per worker, overwritten each superstep by that
    /// worker's leader (chunk-ordered reduction) and read in worker order by
    /// the global leader — a fully deterministic two-level reduction tree.
    worker_partials: Vec<Mutex<ChunkPartial>>,
    prev_aggregate: Mutex<Option<AggregateStats>>,
    history: Mutex<Vec<SuperstepStats>>,
    current: Mutex<SuperstepStats>,
    checkpoints: Mutex<Vec<CyclopsCheckpoint<P::Value, P::Message>>>,
    last_counters: Mutex<CounterSnapshot>,
    supersteps_done: AtomicUsize,
    start_superstep: usize,
}

/// Runs `program` over `graph` cut by `partition` on the simulated cluster,
/// building the immutable view first. Use [`run_cyclops_with_plan`] to reuse
/// an existing plan across runs (ingress "is a one-time cost as a loaded
/// graph will usually be processed multiple times", §6.7).
pub fn run_cyclops<P: CyclopsProgram>(
    program: &P,
    graph: &Graph,
    partition: &EdgeCutPartition,
    config: &CyclopsConfig,
) -> CyclopsResult<P::Value, P::Message> {
    run_cyclops_traced(program, graph, partition, config, None)
}

/// [`run_cyclops`] with a superstep-trace sink attached. The sink must have
/// been built for the same [`ClusterSpec`] as `config.cluster`.
pub fn run_cyclops_traced<P: CyclopsProgram>(
    program: &P,
    graph: &Graph,
    partition: &EdgeCutPartition,
    config: &CyclopsConfig,
    trace: Option<&TraceSink>,
) -> CyclopsResult<P::Value, P::Message> {
    let plan =
        CyclopsPlan::build_parallel_with_threshold(graph, partition, config.replicate_threshold);
    run_cyclops_with_plan_traced(program, graph, &plan, config, None, trace)
}

/// Resumes from a checkpoint captured by an earlier run (replicas and
/// messages are *not* in the checkpoint — they are reconstructed from the
/// master publications, §3.6).
pub fn run_cyclops_from_checkpoint<P: CyclopsProgram>(
    program: &P,
    graph: &Graph,
    partition: &EdgeCutPartition,
    config: &CyclopsConfig,
    checkpoint: &CyclopsCheckpoint<P::Value, P::Message>,
) -> CyclopsResult<P::Value, P::Message> {
    let plan =
        CyclopsPlan::build_parallel_with_threshold(graph, partition, config.replicate_threshold);
    run_cyclops_with_plan(program, graph, &plan, config, Some(checkpoint))
}

/// Runs `program` against a pre-built [`CyclopsPlan`].
pub fn run_cyclops_with_plan<P: CyclopsProgram>(
    program: &P,
    graph: &Graph,
    plan: &CyclopsPlan,
    config: &CyclopsConfig,
    resume: Option<&CyclopsCheckpoint<P::Value, P::Message>>,
) -> CyclopsResult<P::Value, P::Message> {
    run_cyclops_with_plan_traced(program, graph, plan, config, resume, None)
}

/// [`run_cyclops_with_plan`] with a superstep-trace sink attached. Trace
/// collection is entirely passive when `trace` is `None` — the hot loop
/// only pays for it when a sink is installed.
pub fn run_cyclops_with_plan_traced<P: CyclopsProgram>(
    program: &P,
    graph: &Graph,
    plan: &CyclopsPlan,
    config: &CyclopsConfig,
    resume: Option<&CyclopsCheckpoint<P::Value, P::Message>>,
    trace: Option<&TraceSink>,
) -> CyclopsResult<P::Value, P::Message> {
    run_with_activation(program, graph, plan, config, resume, trace, None)
}

/// The one run function behind every entry point. `force_pull` overrides the
/// per-barrier driver's choice of activation direction ([`pull_wins`], per
/// worker and superstep) with always-pull or always-push; every public entry
/// point passes `None`, and tests force it to hold the two directions equal
/// on runs the rule would send one way only.
fn run_with_activation<P: CyclopsProgram>(
    program: &P,
    graph: &Graph,
    plan: &CyclopsPlan,
    config: &CyclopsConfig,
    resume: Option<&CyclopsCheckpoint<P::Value, P::Message>>,
    trace: Option<&TraceSink>,
    force_pull: Option<bool>,
) -> CyclopsResult<P::Value, P::Message> {
    let spec = config.cluster;
    let num_workers = spec.num_workers();
    let threads = spec.threads_per_worker;
    let planned = plan.workers.len();
    assert_eq!(
        planned, num_workers,
        "plan and cluster disagree on the worker count"
    );

    let start_superstep = resume.map(|cp| cp.superstep).unwrap_or(0);

    // ---- INIT ingress phase: values, publications, replica seeds. ----
    let init_start = Instant::now();
    // A resume restores master state from the checkpoint (the last entry of
    // a vertex wins); only masters it does not cover are initialized, and
    // those start inactive.
    let mut restored = vec![None; resume.map_or(0, |_| graph.num_vertices())];
    for entry in resume.iter().flat_map(|cp| &cp.vertices) {
        restored[entry.0 as usize] = Some(entry);
    }
    let mut shared: Vec<WorkerShared<P::Value, P::Message>> = Vec::with_capacity(num_workers);
    let thread_slots = |_| (outboxes(threads).into_iter().map(Mutex::new)).collect();
    let mut views: Vec<Vec<Option<P::Message>>> = Vec::with_capacity(num_workers);
    for wp in &plan.workers {
        let n = wp.num_masters();
        let mut values: Vec<P::Value> = Vec::with_capacity(n);
        let mut msgs: Vec<Option<P::Message>> = Vec::with_capacity(n);
        let (frontier, fresh) = {
            let _mem = MemScope::enter(Component::Frontier);
            (Frontier::new(n), FreshSlots::new(wp.num_view_slots()))
        };
        for (li, &v) in wp.masters.iter().enumerate() {
            if let Some(Some((_, value, publication, active))) = restored.get(v as usize) {
                values.push(value.clone());
                msgs.push(publication.clone());
                if *active {
                    frontier.mark(start_superstep & 1, li);
                }
                continue;
            }
            let value = program.init(v, graph);
            let msg = program.init_message(v, graph, &value);
            values.push(value);
            msgs.push(msg);
            if resume.is_none() && program.initially_active(v, graph) {
                frontier.mark(0, li);
            }
        }
        // The whole view is one allocation, booked as replica machinery:
        // the master range now, the ranges seeded from other workers below.
        views.push({
            let _mem = MemScope::enter(Component::Replicas);
            let mut view = Vec::with_capacity(wp.num_view_slots());
            view.extend(msgs.iter().cloned());
            view
        });
        shared.push(WorkerShared {
            values: DisjointSlots::new(values),
            view: DisjointSlots::new(Vec::new()), // filled below
            msg_next: DisjointSlots::new(msgs),
            frontier,
            fresh,
            pull: AtomicBool::new(false),
            flat: parking_lot::RwLock::new(Vec::new()),
            ends: parking_lot::RwLock::new(Vec::new()),
            cursor: AtomicUsize::new(0),
            partials: (0..threads * CHUNKS_PER_THREAD)
                .map(|_| Mutex::new(ChunkPartial::default()))
                .collect(),
            cmp_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            deposits: (0..num_workers).map(thread_slots).collect(),
            converged: (0..n).map(|_| AtomicBool::new(false)).collect(),
            local: Barrier::new(threads),
        });
    }
    drop(restored);
    // Seed replica publications and direct slots from their source masters —
    // the initial one-way sync of the ingress (and of checkpoint recovery):
    // superstep 0 (and a resume) reads the identical immutable view through
    // either path.
    for (w, mut view) in views.into_iter().enumerate() {
        let _mem = MemScope::enter(Component::Replicas);
        let wp = &plan.workers[w];
        // `msg_next` still equals the master range of its worker's view.
        let source_pub = |&u: &u32| {
            let ow = plan.owner[u as usize] as usize;
            let li = plan.local_of[u as usize] as usize;
            shared[ow].msg_next.read(li).clone()
        };
        view.extend(wp.replicas.iter().chain(&wp.direct_source).map(source_pub));
        shared[w].view = DisjointSlots::new(view);
    }
    let mut ingress = plan.ingress;
    ingress.init = init_start.elapsed();

    let run = Run {
        program,
        graph,
        plan,
        config,
        force_pull,
        trace,
        phase_hists: PhaseHists::resolve("cyclops"),
        sched_obs: SchedObs::resolve("cyclops"),
        threads,
        receivers: spec.receivers_per_worker.min(threads),
        shared,
        transport: Transport::with_network(spec, InboxMode::Sharded, config.network),
        direct_messages: AtomicUsize::new(0),
        barrier: HierarchicalBarrier::new(num_workers, threads),
        stop: AtomicBool::new(false),
        converged_total: AtomicIsize::new(0),
        worker_partials: (0..num_workers)
            .map(|_| Mutex::new(ChunkPartial::default()))
            .collect(),
        prev_aggregate: Mutex::new(resume.and_then(|cp| cp.aggregate)),
        history: Mutex::new(Vec::new()),
        current: Mutex::new(SuperstepStats::default()),
        checkpoints: Mutex::new(Vec::new()),
        last_counters: Mutex::new(CounterSnapshot::default()),
        supersteps_done: AtomicUsize::new(start_superstep),
        start_superstep,
    };

    let loop_start = Instant::now();
    // With the cap at or below the resume point there is no superstep left
    // to run (max_supersteps is a global cap, not a budget from the resume).
    if start_superstep < config.max_supersteps {
        std::thread::scope(|scope| {
            for w in 0..num_workers {
                for t in 0..threads {
                    let run = &run;
                    scope.spawn(move || thread_loop(run, w, t));
                }
            }
        });
    }
    let elapsed = loop_start.elapsed();

    // ---- Assemble global outputs. ----
    let total_vertices = graph.num_vertices();
    let mut values: Vec<Option<P::Value>> = vec![None; total_vertices];
    let mut publications: Vec<Option<P::Message>> = vec![None; total_vertices];
    for (w, ws) in run.shared.into_iter().enumerate() {
        // The view leads with the master range; the zips stop at its end.
        let msgs = ws.view.into_inner();
        let state = ws.values.into_inner().into_iter().zip(msgs);
        for (&v, (value, publication)) in plan.workers[w].masters.iter().zip(state) {
            values[v as usize] = Some(value);
            publications[v as usize] = publication;
        }
    }
    CyclopsResult {
        values: values.into_iter().map(Option::unwrap).collect(),
        publications,
        supersteps: run.supersteps_done.load(Ordering::Acquire),
        stats: run.history.into_inner(),
        counters: run.transport.counters().snapshot(),
        direct_messages: run.direct_messages.into_inner(),
        elapsed,
        ingress,
        replication_factor: plan.replication_factor(graph),
        checkpoints: run.checkpoints.into_inner(),
        barrier_protocol_messages: run.barrier.protocol_messages(),
    }
}

/// CMP state of one compute stream — an engine thread in the per-barrier
/// loop, one worker's share of a bucket settle.
#[derive(Default)]
struct CmpAcc {
    /// Partial being accumulated (one chunk, or one worker's settle).
    part: ChunkPartial,
    /// Masters whose publication is stored in `msg_next` but not yet visible
    /// ([`Worker::publish_local`] drains it).
    updated: Vec<u32>,
    /// Hot-vertex capture: a Space-Saving sketch of per-vertex work mass,
    /// folded into the tracer each superstep. Disabled (`hot_k == 0`) the
    /// compute loop pays one `Option` check per vertex.
    hot: Option<SpaceSaving>,
    /// Scratch buffer for values-mode publication digests, reused across
    /// publications and supersteps (this used to be a fresh `BytesMut` per
    /// message — the allocation Table 2 flags).
    digest_buf: bytes::BytesMut,
}

impl CmpAcc {
    fn new(trace: Option<&TraceSink>) -> Self {
        let hot_k = trace.map_or(0, |s| s.hot_k());
        CmpAcc {
            hot: (hot_k > 0).then(|| SpaceSaving::new(hot_k)),
            ..Default::default()
        }
    }
}

/// One worker as a phase function sees it. The tracer handle is resolved
/// here — once per thread or per worker visit of a settle, never per send.
struct Worker<'r, P: CyclopsProgram> {
    run: &'r Run<'r, P>,
    w: usize,
    ws: &'r WorkerShared<P::Value, P::Message>,
    wp: &'r WorkerPlan,
    tr: Option<&'r WorkerTracer>,
    /// Whether the sink captures publication digests (values mode).
    digests: bool,
}

impl<'r, P: CyclopsProgram> Run<'r, P> {
    fn worker(&'r self, w: usize) -> Worker<'r, P> {
        Worker {
            run: self,
            w,
            ws: &self.shared[w],
            wp: &self.plan.workers[w],
            tr: self.trace.map(|s| s.worker(w)),
            digests: self.trace.is_some_and(|s| s.captures_values()),
        }
    }

    /// Whether superstep `superstep` opens with a checkpoint capture — a
    /// pure function of the superstep index, so every thread of every
    /// worker agrees without communicating.
    fn checkpoint_due(&self, superstep: usize) -> bool {
        self.config.checkpoint_every.is_some_and(|every| {
            every > 0
                && superstep > self.start_superstep
                && (superstep - self.start_superstep).is_multiple_of(every)
        })
    }

    /// SYN, global leader only, between the superstep's two hierarchical
    /// barrier waits: every worker's partial is in `worker_partials` and its
    /// phase times in `current`. Reduces, records the superstep's
    /// [`SuperstepStats`], and decides `stop`; `budget_exhausted` is the
    /// settle's fused-round cap.
    fn close_superstep(&self, superstep: usize, budget_exhausted: bool) -> bool {
        // Global reduction: merge the per-worker partials in worker order.
        // Two fixed-order levels — chunks within a worker, workers here —
        // make the float results independent of thread scheduling.
        let mut total = ChunkPartial::default();
        for slot in &self.worker_partials {
            total.merge(&slot.lock());
        }
        let before = self
            .converged_total
            .fetch_add(total.conv_delta, Ordering::Relaxed);
        let conv_total = before + total.conv_delta;
        *self.prev_aggregate.lock() = (!total.agg.is_empty()).then_some(total.agg);
        let mean_err = (total.err_count > 0).then(|| total.err_sum / total.err_count as f64);

        self.direct_messages
            .fetch_add(total.direct, Ordering::Relaxed);
        let snap = self.transport.counters().snapshot();
        let mut last = self.last_counters.lock();
        let mut cur = self.current.lock();
        cur.superstep = superstep;
        cur.active_vertices = total.computed;
        cur.messages_sent = snap.messages - last.messages;
        cur.bytes_sent = snap.bytes - last.bytes;
        self.history.lock().push(std::mem::take(&mut cur));
        *last = snap;
        self.supersteps_done.store(superstep + 1, Ordering::Release);

        let converged_enough = match self.config.convergence {
            Convergence::ActiveVertices => false,
            Convergence::Proportion { target, .. } => {
                conv_total as f64 >= target * self.graph.num_vertices() as f64
            }
            Convergence::GlobalError { epsilon } => mean_err.is_some_and(|e| e <= epsilon),
        };
        let drained = total.next_active == 0 && self.transport.all_empty();
        // A *global* cap on the superstep index: resumed runs continue
        // toward the same cap rather than getting a fresh budget.
        let capped = superstep + 1 >= self.config.max_supersteps || budget_exhausted;
        let stop = drained || converged_enough || capped;
        self.stop.store(stop, Ordering::Release);
        stop
    }
}

/// PRS core: writes every update of `batches` into its view slot — the
/// worker's master count plus the update's remote slot — and wakes the slot's
/// readers (`wake(slot, &payload)`): a replica's local out-neighbors, a
/// direct slot's one target. Returns the number of updates applied.
#[inline]
fn apply_batches<M>(
    batches: Vec<(usize, Vec<ReplicaUpdate<M>>)>,
    view: &DisjointSlots<Option<M>>,
    wp: &WorkerPlan,
    wake: &mut impl FnMut(usize, &M),
) -> u64 {
    let base = wp.replica_base();
    let remote_slots = wp.num_view_slots() - base;
    let mut applied = 0u64;
    for (_, batch) in batches {
        applied += batch.len() as u64;
        for upd in batch {
            let id = upd.replica as usize;
            // A decoded id is checked here, once, for both wake directions:
            // pushing would bounds-check it in the reader lookup, pulling
            // looks nothing up, and a fresh bit past the last slot would sit
            // unseen in the bitmap's last word.
            assert!(
                id < remote_slots,
                "update for remote slot {id}, worker has {remote_slots}"
            );
            wake(base + id, &upd.payload);
            // SAFETY: each slot has one source master (a replica's master,
            // a direct slot's cross edge) whose `mirrors` entries hold this
            // id, and the assert above keeps `base + id` inside the replica
            // and direct ranges; a master reaches a slot at most once per
            // epoch (one update per remote copy per superstep; in the settle
            // a master computes at most once per round, and each round is
            // its own epoch), and lanes touching the same slot are drained
            // by one receiver — so within an epoch no slot is written twice,
            // the master range is written in another phase, and readers are
            // behind a barrier (or, in the settle, on this same thread).
            unsafe { view.write(base + id, Some(upd.payload)) };
        }
    }
    applied
}

impl<'r, P: CyclopsProgram> Worker<'r, P> {
    /// Opens a write epoch on every slot array (resets the debug-mode
    /// single-writer claim tables; no-op in release builds).
    fn begin_epoch(&self) {
        self.ws.values.begin_epoch();
        self.ws.view.begin_epoch();
        self.ws.msg_next.begin_epoch();
    }

    /// PRS: drains receiver `part` of `parts`' share of this worker's
    /// inbound lanes for `epoch` and applies them to the view.
    /// `wake(slot, &payload)` is how the caller activates the local masters
    /// that read an updated slot.
    fn apply_inbound(
        &self,
        epoch: usize,
        (part, parts): (usize, usize),
        mut wake: impl FnMut(usize, &P::Message),
    ) {
        let transport = &self.run.transport;
        let batches = transport.drain_lanes_partitioned(self.w, epoch, part, parts);
        let drained = apply_batches(batches, &self.ws.view, self.wp, &mut wake);
        if let Some(tr) = self.tr {
            tr.add_drained(drained);
        }
    }

    /// CMP core: runs the program on local master `li` against the
    /// immutable view and does everything a computed vertex owes — the
    /// stream's counters and float partial, the `converged` flag, the
    /// values-mode digest, storing the publication in `msg_next`, and
    /// waking the same-worker readers (`wake(li, &publication)`: the master's
    /// own view slot; lock-free bit operations in the per-barrier loop, §5).
    /// Returns the stored publication, if the vertex published, for the
    /// caller to fan out.
    #[inline]
    fn compute_vertex(
        &self,
        li: usize,
        superstep: usize,
        agg_in: Option<AggregateStats>,
        acc: &mut CmpAcc,
        mut wake: impl FnMut(usize, &P::Message),
    ) -> Option<&'r P::Message> {
        let (ws, wp) = (self.ws, self.wp);
        acc.part.computed += 1;
        if let Some(hs) = acc.hot.as_mut() {
            // Degree-derived work mass is the per-vertex cost proxy — the
            // same estimate the compute chunks balance on.
            hs.record(wp.masters[li], wp.work_mass[li].max(1) as u64);
        }
        let (mut publish, mut reported) = (None, None);
        // SAFETY: a driver computes each master at most once per epoch — the
        // per-barrier loop's chunks partition a duplicate-free frontier, the
        // settle's selection is duplicate-free (mark / select keep set
        // semantics) and sequential — and nothing else touches `values`
        // during CMP.
        let value = unsafe { ws.values.get_mut(li) };
        self.run.program.compute(&mut CyclopsContext {
            vertex: wp.masters[li],
            local: li,
            superstep,
            graph: self.run.graph,
            plan: wp,
            value,
            view: &ws.view,
            publish: &mut publish,
            reported_error: &mut reported,
            aggregate: &mut acc.part.agg,
            prev_aggregate: agg_in,
        });
        if let Some(err) = reported {
            acc.part.err_sum += err;
            acc.part.err_count += 1;
            if let Convergence::Proportion { epsilon, .. } = self.run.config.convergence {
                let now = err <= epsilon;
                let was = ws.converged[li].swap(now, Ordering::Relaxed);
                acc.part.conv_delta += now as isize - was as isize;
            }
        }
        let m = publish?;
        // Digest the publication exactly as it would go on the wire (values
        // mode only — the diagnostic path that lets trace-diff name the
        // first divergent vertex).
        if let Some(tr) = self.tr.filter(|_| self.digests) {
            acc.digest_buf.clear();
            m.encode(&mut acc.digest_buf);
            tr.record_publication(wp.masters[li], digest_bytes(&acc.digest_buf));
        }
        wake(li, &m);
        // SAFETY: one write per master per epoch, by the one stream that
        // computed it (see above); `msg_next` has no reader until
        // `publish_local`.
        unsafe { ws.msg_next.write(li, Some(m)) };
        acc.updated.push(li as u32);
        ws.msg_next.read(li).as_ref()
    }

    /// CMP of the per-barrier loop's unit of work: computes the masters of
    /// `chunk` in order and queues each publication's remote fan-out in
    /// `out`.
    fn compute_chunk(
        &self,
        chunk: &[u32],
        superstep: usize,
        agg_in: Option<AggregateStats>,
        acc: &mut CmpAcc,
        out: &mut [Vec<ReplicaUpdate<P::Message>>],
        mut wake: impl FnMut(usize, &P::Message),
    ) {
        for &li in chunk {
            let li = li as usize;
            if let Some(ledger) = &self.run.config.load_ledger {
                // Same cost proxy as the hot sketch; relaxed integer adds
                // commute, so the ledger — and every migration decision read
                // from it — is independent of thread count and chunk claim
                // order.
                ledger.record(self.wp.masters[li], self.wp.work_mass[li].max(1) as u64);
            }
            if let Some(m) = self.compute_vertex(li, superstep, agg_in, acc, &mut wake) {
                acc.part.direct += self.fan_out(li, m, out);
            }
        }
    }

    /// Makes the stream's stored publications visible to readers (`msg_next`
    /// → the view's master range, where slot = local index) and empties
    /// `updated`.
    fn publish_local(&self, updated: &mut Vec<u32>) {
        for li in updated.drain(..) {
            let m = self.ws.msg_next.read(li as usize).clone();
            // SAFETY: only the stream that computed `li` copies it, once
            // per epoch, into a range PRS never writes, and no reader is
            // active — the per-barrier loop is past its post-compute
            // barrier, the settle is sequential.
            unsafe { self.ws.view.write(li as usize, m) };
        }
    }

    /// Queues master `li`'s publication `m` for its remote readers: exactly
    /// one update per remote copy — a replica per mirror worker if the master
    /// is hot, a direct slot per cross edge if it is cold. Returns how many
    /// of them went to direct slots, the `direct_messages` the run reports
    /// (all or none: see [`CyclopsPlan::names_direct_slot`]).
    #[inline]
    fn fan_out(
        &self,
        li: usize,
        m: &P::Message,
        out: &mut [Vec<ReplicaUpdate<P::Message>>],
    ) -> usize {
        let copies = self.wp.mirrors(li);
        for &(p, id) in copies {
            out[p as usize].push(ReplicaUpdate::new(id, m.clone(), true));
        }
        match copies.first() {
            Some(&first) if self.run.plan.names_direct_slot(first) => copies.len(),
            _ => 0,
        }
    }

    /// SND: sends every non-empty outbox on `lane` for `epoch` — one batch
    /// per destination — leaving `out` empty (capacity given away), and books
    /// each receipt: tracer totals, comm-matrix row and the wire mode's
    /// dense/sparse batch count (intra-machine sends count as neither).
    fn send_outboxes(&self, lane: usize, epoch: usize, out: &mut [Vec<ReplicaUpdate<P::Message>>]) {
        let transport = &self.run.transport;
        for (dest, batch) in out.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let sent = batch.len() as u64;
            let receipt = transport.send(lane, dest, std::mem::take(batch), epoch);
            if let Some(tr) = self.tr {
                tr.add_sent_to(dest, sent, receipt.bytes as u64);
                match receipt.wire_mode {
                    Some(WireMode::Dense) => tr.add_wire_batches_to(dest, 1, 0),
                    Some(WireMode::Sparse) => tr.add_wire_batches_to(dest, 0, 1),
                    _ => {}
                }
            }
        }
    }

    /// Captures this worker's share of a value-only checkpoint (cooperative:
    /// the first worker to arrive creates the superstep's entry). `active`
    /// reports a master's activation flag — the per-barrier loop reads the
    /// frontier parity bit, the settle its parked set.
    fn capture_checkpoint(
        &self,
        superstep: usize,
        aggregate: Option<AggregateStats>,
        active: impl Fn(usize) -> bool,
    ) {
        let mut vertices: Vec<_> = (self.wp.masters.iter().enumerate())
            .map(|(li, &v)| {
                let (value, publication) = (self.ws.values.read(li), self.ws.view.read(li));
                (v, value.clone(), publication.clone(), active(li))
            })
            .collect();
        let mut cps = self.run.checkpoints.lock();
        match cps.last_mut() {
            Some(cp) if cp.superstep == superstep => cp.vertices.append(&mut vertices),
            _ => cps.push(CyclopsCheckpoint {
                superstep,
                vertices,
                aggregate,
            }),
        }
    }

    /// Folds a compute stream's hot-vertex sketch into slot `t` of this
    /// worker's trace record (slots merge in thread order at commit) and
    /// clears it. Call before the worker's commit.
    fn trace_hot(&self, t: usize, acc: &mut CmpAcc) {
        if let (Some(tr), Some(hs)) = (self.tr, acc.hot.as_mut()) {
            tr.set_thread_hot(t, hs);
            hs.clear();
        }
    }

    /// Closes this worker's superstep for the observers: phase-latency
    /// histograms, the trace record (the worker's reduced partial `part`,
    /// whether the superstep opened with a checkpoint and, from the settle,
    /// the `(bucket, fused, occupancy)` triple), and the memory sample
    /// (no-op unless `--mem` armed the tracking allocator; lands in
    /// `{"mem":…}` JSONL lines outside the trace-diff contract). One caller
    /// per worker, after all its streams finished.
    fn commit_superstep(
        &self,
        superstep: usize,
        frontier: usize,
        times: &PhaseTimes,
        part: &ChunkPartial,
        bucket: Option<(u64, u64, u64)>,
    ) {
        if let Some(ph) = &self.run.phase_hists {
            ph.record(times);
            if self.w == 0 {
                ph.set_supersteps(superstep + 1);
            }
        }
        if let Some(tr) = self.tr {
            let (bucket, fused, bucket_occupancy) = bucket.unwrap_or_default();
            let record = TraceRecord {
                superstep: superstep as u64,
                worker: self.w as u64,
                frontier: frontier as u64,
                computed: part.computed as u64,
                activated: part.next_active as u64,
                converged_delta: part.conv_delta as i64,
                direct_messages: part.direct as u64,
                checkpoint: self.run.checkpoint_due(superstep),
                agg: (!part.agg.is_empty()).then_some(part.agg),
                bucket,
                fused,
                bucket_occupancy,
                ..TraceRecord::default()
            };
            tr.commit(times, record);
        }
        cyclops_obs::mem::sample(superstep as u64, self.w as u32);
    }
}

/// Ends a flight-recorder span opened with `ring.map(|r| r.now_ns())`. With
/// no recorder installed (the default) every span site is one `Option`
/// check, the same discipline as the tracer and the phase histograms.
#[inline]
fn end_span(ring: Option<&SpanRing>, start: Option<u64>, kind: SpanKind, args: [u64; 3]) {
    if let (Some(r), Some(start)) = (ring, start) {
        r.record(kind, start, args[0], args[1], args[2]);
    }
}

/// Body of one engine thread: the per-barrier driver, or (with a bucket
/// width set) the bucketed one.
fn thread_loop<P: CyclopsProgram>(run: &Run<'_, P>, w: usize, t: usize) {
    // Per-thread flight-recorder ring, resolved once.
    let flight = cyclops_obs::flight().map(|fr| fr.ring(w as u32, t as u32));
    let flight = flight.as_deref();
    // Tag this thread's allocations with its worker slot for the tracking
    // allocator (two thread-local writes; the allocator itself is a single
    // relaxed load when disarmed).
    let _mem_tag = MemScope::worker(w);
    if run.config.bucket_width > 0.0 {
        return bucketed_thread_loop(run, w, t, flight);
    }
    let wk = run.worker(w);
    let (ws, wp) = (wk.ws, wk.wp);
    let lane = w * run.threads + t;
    let num_workers = run.plan.workers.len();
    // Compute chunks per superstep. Fixed per run, so every partial slot in
    // `0..chunks` is written every superstep — no stale-slot hazard.
    let chunks = run.threads * CHUNKS_PER_THREAD;

    // How this driver wakes the readers of a written slot, for the parity of
    // the superstep that will compute them: push a lock-free frontier bit to
    // each (§5), or leave one fresh bit for `fill_from` to pull them by. Two
    // closures, picked per phase, so neither loop tests the direction.
    let push_into = |parity: usize| {
        move |slot: usize, _: &P::Message| {
            for &lo in wp.readers(slot) {
                ws.frontier.mark(parity, lo as usize);
            }
        }
    };
    let pull_fresh = || {
        let mut fresh = ws.fresh.writer();
        move |slot: usize, _: &P::Message| fresh.set(slot)
    };
    let fill_share = (t, run.threads);

    let mut superstep = run.start_superstep;
    let mut out = outboxes(num_workers);
    let mut flush = outboxes(num_workers);
    let mut acc = CmpAcc::new(run.trace);
    // The direction the previous superstep's leader chose, which this
    // superstep's PRS still owes its remote activations.
    let mut pull_inbound = false;

    loop {
        let mut times = PhaseTimes::default();
        let mut frontier_len = 0usize;
        let step = superstep as u64;
        let cur_parity = superstep & 1;
        let next_parity = (superstep + 1) & 1;
        let agg_in = *run.prev_aggregate.lock();

        // ---- Superstep prologue (worker leader). ----
        if t == 0 {
            wk.begin_epoch();
        }
        let checkpoint_now = run.checkpoint_due(superstep);
        ws.local.wait();

        // ---- Apply phase (PRS): receivers update the view lock-free. ----
        let apply_start = Instant::now();
        let prs_span = flight.map(|r| r.now_ns());
        if t < run.receivers {
            let share = (t, run.receivers);
            if pull_inbound {
                wk.apply_inbound(superstep, share, pull_fresh());
            } else {
                wk.apply_inbound(superstep, share, push_into(cur_parity));
            }
        }
        // Only the drain/apply above is parse work; the barrier waits (and
        // the optional checkpoint they bracket) are coordination time and
        // belong to SYN — charging them to PRS used to inflate the parse
        // column by a full barrier interval per superstep.
        times.add(Phase::Parse, apply_start.elapsed());
        end_span(flight, prs_span, SpanKind::Parse, [step, 0, 0]);
        let mut wait_start = Instant::now();
        ws.local.wait();
        if pull_inbound {
            // The second fill: the replica and direct bits are in, on top of
            // the master bits the first fill already used. Its time is the
            // marking PRS did not do; its barrier is paid by pulled
            // supersteps only.
            times.add(Phase::Sync, wait_start.elapsed());
            let fill_start = Instant::now();
            ws.frontier.fill_from(cur_parity, wp, &ws.fresh, fill_share);
            times.add(Phase::Parse, fill_start.elapsed());
            wait_start = Instant::now();
            ws.local.wait();
        }
        // Value-only checkpoint (no replicas, no messages — §3.6), taken on
        // the post-apply consistent cut: remote activations delivered this
        // superstep are reflected in the activation flags, and every replica
        // equals its master's publication, so a restore can rebuild replicas
        // from masters alone.
        if checkpoint_now {
            if t == 0 {
                wk.capture_checkpoint(superstep, agg_in, |li| {
                    ws.frontier.is_marked(cur_parity, li)
                });
            }
            ws.local.wait();
            // Epoch boundary: every thread of every worker reaches this
            // exact point and returns together — transports are drained,
            // the frontier still holds superstep `s`'s activations (which
            // the checkpoint captured), and `supersteps_done` already reads
            // `s`. The migration driver resumes from the checkpoint.
            if run.config.stop_at_checkpoint {
                return;
            }
        }
        times.add(Phase::Sync, wait_start.elapsed());
        // Snapshot the frontier: everything activated for this superstep by
        // last superstep's local activations plus this superstep's replica
        // messages, ascending — compute walks the CSR in index order and
        // chunk contents (hence float reduction groups) are independent of
        // activation interleaving. The snapshot clears the parity.
        if t == 0 {
            let snap_start = Instant::now();
            if pull_inbound {
                // Both fills have read the bits; the next writer is this
                // superstep's CMP, behind the barrier below.
                ws.fresh.clear();
            }
            let mut flat = ws.flat.write();
            ws.frontier.snapshot(cur_parity, &mut flat);
            frontier_len = flat.len();
            build_mass_chunks(&flat, &mut ws.ends.write(), &wp.work_mass, chunks);
            ws.cursor.store(0, Ordering::Relaxed);
            let pull = run.force_pull.unwrap_or_else(|| pull_wins(&flat, wp));
            ws.pull.store(pull, Ordering::Relaxed);
            if let Some(so) = &run.sched_obs {
                so.record_activation(pull);
            }
            times.add(Phase::Parse, snap_start.elapsed());
        }
        let wait_start = Instant::now();
        ws.local.wait();
        times.add(Phase::Sync, wait_start.elapsed());

        // ---- Compute phase (CMP). ----
        let pull = ws.pull.load(Ordering::Relaxed);
        let compute_start = Instant::now();
        let cmp_span = flight.map(|r| r.now_ns());
        {
            let flat = ws.flat.read();
            let ends = ws.ends.read();
            // Claim whatever chunk the cursor hands out next.
            let claim = || Some(ws.cursor.fetch_add(1, Ordering::Relaxed)).filter(|&c| c < chunks);
            while let Some(c) = claim() {
                let lo = if c == 0 { 0 } else { ends[c - 1] as usize };
                let hi = ends[c] as usize;
                // Each claim is an event worth its own timeline row.
                let chunk_span = flight.map(|r| r.now_ns());
                acc.part = ChunkPartial::default();
                let chunk = &flat[lo..hi];
                if pull {
                    // The writer drops with the call, which puts the chunk's
                    // last fresh bits in.
                    wk.compute_chunk(chunk, superstep, agg_in, &mut acc, &mut out, pull_fresh());
                } else {
                    let wake = push_into(next_parity);
                    wk.compute_chunk(chunk, superstep, agg_in, &mut acc, &mut out, wake);
                }
                // Publish the chunk's float partial into its slot; the
                // worker leader reduces slots in chunk-index order, so claim
                // order never affects the float results.
                *ws.partials[c].lock() = acc.part;
                end_span(
                    flight,
                    chunk_span,
                    SpanKind::Chunk,
                    [step, c as u64, (hi - lo) as u64],
                );
            }
        }
        let cmp_elapsed = compute_start.elapsed();
        ws.cmp_ns[t].store(cmp_elapsed.as_nanos() as u64, Ordering::Relaxed);
        times.add(Phase::Compute, cmp_elapsed);
        end_span(flight, cmp_span, SpanKind::Compute, [step, 0, 0]);
        // Deposit this thread's outboxes into the worker's `deposits` slots
        // (swaps — the slot left empty by last superstep's flush trades
        // places with the filled local outbox, so capacities recycle).
        let deposit_start = Instant::now();
        for (dest, ob) in out.iter_mut().enumerate() {
            if !ob.is_empty() {
                std::mem::swap(&mut *ws.deposits[dest][t].lock(), ob);
            }
        }
        times.add(Phase::Send, deposit_start.elapsed());
        let wait_start = Instant::now();
        ws.local.wait();
        times.add(Phase::Sync, wait_start.elapsed());
        if pull {
            // The first fill: only master bits are fresh, so the parity gets
            // exactly the local activations CMP's marks would have made, and
            // the leader's count below is the count it has always been. Its
            // time is the marking CMP did not do.
            let fill_start = Instant::now();
            ws.frontier
                .fill_from(next_parity, wp, &ws.fresh, fill_share);
            times.add(Phase::Compute, fill_start.elapsed());
        }

        // ---- Publish & send phase (SND). ----
        let send_start = Instant::now();
        let snd_span = flight.map(|r| r.now_ns());
        wk.publish_local(&mut acc.updated);
        // Flush: destination `dest` is flushed by thread `dest % threads`,
        // merging every compute thread's deposit in thread order (see
        // `deposits`; the adaptive wire format canonicalizes each batch by
        // slot id, so the *bytes* are order-independent too) into `flush`,
        // not `out` — the send gives the buffer away, and the deposit slots
        // and local outboxes keep the capacities they trade.
        for dest in (t..num_workers).step_by(run.threads) {
            for slot in &ws.deposits[dest] {
                flush[dest].append(&mut slot.lock());
            }
        }
        wk.send_outboxes(lane, superstep, &mut flush);
        times.add(Phase::Send, send_start.elapsed());
        end_span(flight, snd_span, SpanKind::Send, [step, 0, 0]);

        // ---- Publish this thread's sketch; reduce the worker's partials. ----
        wk.trace_hot(t, &mut acc);
        if pull {
            // Every thread's share of the first fill, before the leader
            // counts the parity.
            let wait_start = Instant::now();
            ws.local.wait();
            times.add(Phase::Sync, wait_start.elapsed());
        }
        let mut reduced = ChunkPartial::default();
        if t == 0 {
            // Worker-leader reduction: fold the chunk partials in chunk-index
            // order — a fixed order regardless of which thread computed which
            // chunk — so floating-point aggregation stays bitwise
            // deterministic.
            for slot in &ws.partials {
                reduced.merge(&slot.lock());
            }
            // All compute-phase local activations are in.
            reduced.next_active = ws.frontier.len(next_parity);
            if let Some(so) = &run.sched_obs {
                so.record_threads(ws.cmp_ns.iter().map(|a| a.load(Ordering::Relaxed)));
            }
            *run.worker_partials[w].lock() = reduced;
            let mut cur = run.current.lock();
            cur.phase_times = cur.phase_times.merge(&times);
        }

        // ---- SYN: hierarchical barrier + leader bookkeeping. ----
        let sync_start = Instant::now();
        run.barrier.wait_traced(w, t, flight, superstep as u64);
        if w == 0 && t == 0 {
            run.close_superstep(superstep, false);
        }
        run.barrier.wait_traced(w, t, flight, superstep as u64);
        if t == 0 {
            let final_sync = sync_start.elapsed();
            run.current.lock().phase_times.add(Phase::Sync, final_sync);
            times.add(Phase::Sync, final_sync);
            wk.commit_superstep(superstep, frontier_len, &times, &reduced, None);
        }
        if run.stop.load(Ordering::Acquire) {
            return;
        }
        superstep += 1;
        pull_inbound = pull;
    }
}

/// Whether a superstep computing the ascending frontier `flat` should wake
/// its readers by pull. Both directions find the same masters (see
/// [`WorkerPlan::readers`]); this compares what each would walk, from counts
/// only — never a clock — so every run of the same input decides alike.
///
/// With `out_f` and `in_f` the frontier's summed `local_out` lengths and
/// in-degrees: pushing walks `out_f` local reader entries in CMP, and the
/// remote updates of the next PRS are taken to wake in the same proportion,
/// so it walks about `out_f / |local_out|` of all `|in_refs|` reader entries.
/// Pulling scans the in-edges of the masters that do not get woken early:
/// those outside the frontier are taken to find nothing and be scanned in
/// full, `|in_refs| − in_f`, those inside it to find a fresh slot within two
/// probes, `2·|flat|`. Pull iff the first exceeds the second, cross-multiplied
/// to stay in integers — which also makes a worker with no local out-edges
/// (`0 > 0`) push. Three regimes:
///
/// * dense and stationary (PageRank while most ranks still move): `out_f` and
///   `in_f` near their totals, so push walks every reader entry and pull two
///   probes per master — pull, whenever the mean in-degree exceeds two;
/// * dense but alternating (ALS on a bipartite graph): the frontier is one
///   side, its readers the other, so nobody about to be woken is in `flat`
///   and pull would scan the readers' in-edges in full — exactly the entries
///   push walks — plus the two probes: push;
/// * sparse (an SSSP wavefront): pull rescans nearly every in-edge to find a
///   few readers — push; below a quarter of the masters the sums are not
///   even taken, so a sparse superstep pays one compare.
fn pull_wins(flat: &[u32], wp: &WorkerPlan) -> bool {
    if flat.len() < wp.num_masters() / 4 {
        return false;
    }
    let (mut out_f, mut in_f) = (0u64, 0u64);
    for &li in flat {
        let (start, end) = wp.in_ref_range(li as usize);
        out_f += wp.local_out(li as usize).len() as u64;
        in_f += (end - start) as u64;
    }
    let (readers, in_refs) = (wp.local_out.len() as u128, wp.in_refs.len() as u128);
    let pull_walk = in_refs - in_f as u128 + 2 * flat.len() as u128;
    out_f as u128 * in_refs > pull_walk * readers
}

/// Re-cuts a sorted frontier into `chunks` contiguous ranges of roughly
/// equal *work mass* (the plan's per-vertex degree-derived cost estimate).
/// Chunk `c` is `flat[ends[c-1]..ends[c]]`; the cut points satisfy
/// `cum·chunks ≥ c·total` (cross-multiplied to stay in integers), and short
/// frontiers simply leave trailing chunks empty.
fn build_mass_chunks(flat: &[u32], ends: &mut Vec<u32>, mass: &[u32], chunks: usize) {
    ends.clear();
    let total: u64 = flat.iter().map(|&li| mass[li as usize] as u64).sum();
    let mut cum = 0u64;
    let mut next = 1usize;
    for (pos, &li) in flat.iter().enumerate() {
        cum += mass[li as usize] as u64;
        while next < chunks && cum * chunks as u64 >= next as u64 * total {
            ends.push(pos as u32 + 1);
            next += 1;
        }
    }
    while ends.len() < chunks {
        ends.push(flat.len() as u32);
    }
}

// ---- Bucketed (delta-stepping) execution. ----
//
// "One priority bucket per barrier" instead of "one relaxation round per
// barrier" (what and why: `CyclopsConfig::bucket_width`). Vertices carry an
// activation priority (for SSSP, the tentative distance proposed by the
// activating publication) and parked activations wait in a bucket queue of
// width Δ. Correctness does not depend on the drain order: with non-negative
// weights, min-relaxation reaches the same fixpoint under any schedule; the
// priority is only a lower bound used to avoid relaxing vertices whose turn
// has not come.

/// Ordered-key sentinel for "due in whatever bucket is current". Initial
/// actives and priority-less activations use it; it compares below the
/// [`priority_key`] of every non-negative finite priority.
const IMMEDIATE_KEY: u64 = 0;

/// Ordered-key encoding of an `f64` activation priority: a monotone map into
/// `u64` so the settle can compare and min priorities as plain integers.
/// Every non-negative float maps to `>= 1 << 63`, keeping [`IMMEDIATE_KEY`]
/// strictly first.
#[inline]
fn priority_key(p: f64) -> u64 {
    let b = p.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b ^ (1 << 63)
    }
}

/// Inverse of [`priority_key`], used when advancing to the bucket that holds
/// the smallest parked priority.
#[inline]
fn priority_key_inv(k: u64) -> f64 {
    if k >> 63 == 1 {
        f64::from_bits(k ^ (1 << 63))
    } else {
        f64::from_bits(!k)
    }
}

/// The settle's activation set: where the per-barrier loop marks a frontier
/// parity bit, the settle parks the vertex at a priority.
struct Parked {
    /// Per worker: local indices of parked/pending activations.
    pending: Vec<Vec<u32>>,
    /// Per worker, per master: whether the vertex is in `pending`.
    marked: Vec<Vec<bool>>,
    /// Per worker, per master: ordered-key activation priority. Valid only
    /// while marked; re-marks fold with `min`.
    prio: Vec<Vec<u64>>,
}

impl Parked {
    /// Parks an activation of each of worker `w`'s local masters `readers`
    /// at priority `key` (re-activations keep the smaller key).
    fn mark(&mut self, w: usize, readers: &[u32], key: u64) {
        for &li in readers {
            let prio = &mut self.prio[w][li as usize];
            if std::mem::replace(&mut self.marked[w][li as usize], true) {
                *prio = key.min(*prio);
            } else {
                *prio = key;
                self.pending[w].push(li);
            }
        }
    }

    /// Moves worker `w`'s due activations (priority below `end_key`) out of
    /// its pending list into `sel`, in order; parked vertices stay pending.
    fn select(&mut self, w: usize, end_key: u64, sel: &mut Vec<u32>) {
        let (prio, marked) = (&self.prio[w], &mut self.marked[w]);
        self.pending[w].retain(|&li| {
            let due = prio[li as usize] < end_key;
            if due {
                marked[li as usize] = false;
                sel.push(li);
            }
            !due
        });
    }
}

/// Leader-owned state of the bucketed scheduler.
///
/// Only the global leader (worker 0, thread 0) ever touches it: the whole
/// bucket settle runs sequentially between a superstep's two hierarchical
/// barrier waits while every other thread sleeps at the second wait. That
/// trades the compute parallelism of one superstep — negligible on these
/// near-empty high-diameter supersteps — for a superstep (and barrier)
/// count of ~one per nonempty bucket instead of one per hop.
struct BucketSched<M> {
    parked: Parked,
    /// Per worker, per master: superstep generation of the last selection —
    /// counts distinct bucket occupancy without a per-superstep reset pass.
    sel_gen: Vec<Vec<u64>>,
    /// Scratch: the current fused round's selection, per worker.
    selected: Vec<Vec<u32>>,
    /// Scratch: per-destination outboxes, reused per worker and round.
    out: Vec<Vec<ReplicaUpdate<M>>>,
    /// Per worker: this superstep's CMP accumulators (scratch recycled
    /// across supersteps).
    accs: Vec<CmpAcc>,
    /// Index of the bucket the current superstep drains.
    bucket: u64,
    /// Live bucket width. Seeded from `config.bucket_width`; when
    /// `config.bucket_adapt` is set it is retuned at bucket advances from
    /// the occupancy history (see [`retune_delta`]).
    delta: f64,
    /// The seed width — anchor of the adaptation clamp.
    delta0: f64,
    /// Running sum of per-superstep bucket occupancy (all workers).
    occ_sum: u64,
    /// Number of supersteps folded into `occ_sum`.
    occ_count: u64,
    /// Transport epoch of the next fused round. Independent of the
    /// superstep index: every round is its own send/drain parity cycle.
    epoch: usize,
    /// Fused relaxation rounds executed across the whole run — each is one
    /// logical superstep of the classic loop, so the run's round budget is
    /// capped at `max_supersteps` (never looser than classic).
    rounds_total: usize,
}

impl<M> BucketSched<M> {
    fn new<P: CyclopsProgram<Message = M>>(run: &Run<'_, P>) -> Self {
        let masters = || run.shared.iter().map(|ws| ws.values.len());
        let per_master = || -> Vec<Vec<u64>> { masters().map(|n| vec![0; n]).collect() };
        let num_workers = run.shared.len();
        let mut s = BucketSched {
            parked: Parked {
                pending: vec![Vec::new(); num_workers],
                marked: masters().map(|n| vec![false; n]).collect(),
                prio: per_master(),
            },
            sel_gen: per_master(),
            selected: vec![Vec::new(); num_workers],
            out: outboxes(num_workers),
            accs: (0..num_workers).map(|_| CmpAcc::new(run.trace)).collect(),
            bucket: 0,
            delta: run.config.bucket_width,
            delta0: run.config.bucket_width,
            occ_sum: 0,
            occ_count: 0,
            epoch: 0,
            rounds_total: 0,
        };
        // Seed from the initial (or checkpoint-restored) frontier marks;
        // their priorities are unknown, so they are due immediately.
        for (w, ws) in run.shared.iter().enumerate() {
            for li in 0..ws.values.len() {
                if ws.frontier.is_marked(run.start_superstep & 1, li) {
                    s.parked.mark(w, &[li as u32], IMMEDIATE_KEY);
                }
            }
        }
        s
    }
}

/// Thread body of a bucketed run. Every thread still meets the two
/// hierarchical barrier waits per superstep, so barrier-protocol accounting
/// stays comparable with the per-barrier loop (see [`BucketSched`]).
fn bucketed_thread_loop<P: CyclopsProgram>(
    run: &Run<'_, P>,
    w: usize,
    t: usize,
    flight: Option<&SpanRing>,
) {
    let mut sched = (w == 0 && t == 0).then(|| BucketSched::new(run));
    let mut superstep = run.start_superstep;
    loop {
        run.barrier.wait_traced(w, t, flight, superstep as u64);
        if let Some(sched) = sched.as_mut() {
            settle_bucket(run, sched, superstep, flight);
        }
        run.barrier.wait_traced(w, t, flight, superstep as u64);
        if run.stop.load(Ordering::Acquire) {
            return;
        }
        superstep += 1;
    }
}

/// One bucketed superstep, run by the global leader alone: drain the
/// current bucket to a fixpoint (fused relaxation rounds, each a PRS → CMP
/// → SND pass over every worker in worker order), then close the superstep.
fn settle_bucket<P: CyclopsProgram>(
    run: &Run<'_, P>,
    sched: &mut BucketSched<P::Message>,
    superstep: usize,
    ring: Option<&SpanRing>,
) {
    let settle_start = Instant::now();
    let num_workers = run.plan.workers.len();
    let bucket = sched.bucket;
    let end_key = priority_key((bucket + 1) as f64 * sched.delta);
    let agg_in = *run.prev_aggregate.lock();
    let gen = superstep as u64 + 1;
    // Activations park at the priority their payload proposes.
    let key_of = |m: &P::Message| (run.program.priority(m)).map_or(IMMEDIATE_KEY, priority_key);

    // Value-only checkpoint on the bucket boundary: the previous settle's
    // final drain applied every in-flight update, so the transport is empty
    // and each replica equals its master — the same consistent cut the
    // per-barrier loop captures. Parked priorities are not stored; a resume
    // reactivates the parked set as immediately due, costing at most one
    // extra (idempotent) relaxation.
    if run.checkpoint_due(superstep) {
        for (w, marked) in sched.parked.marked.iter().enumerate() {
            run.worker(w)
                .capture_checkpoint(superstep, agg_in, |li| marked[li]);
        }
    }

    // Per-worker accumulators for this superstep's trace records.
    let mut occupancy = vec![0u64; num_workers];
    let mut times: Vec<PhaseTimes> = vec![PhaseTimes::default(); num_workers];
    let mut rounds = 0u64;
    let mut budget_exhausted = false;

    // ---- Fused relaxation rounds. ----
    loop {
        let round_span = ring.map(|r| r.now_ns());
        // A program that keeps re-activating (which the per-barrier loop
        // would cut off at its superstep cap) must not spin the drain
        // forever: stop once the run has spent as many fused rounds as the
        // per-barrier loop would have been allowed barrier rounds.
        if sched.rounds_total >= run.config.max_supersteps {
            budget_exhausted = true;
            break;
        }
        // Phase A (PRS): every worker, in worker order.
        for (w, t) in times.iter_mut().enumerate() {
            let wk = run.worker(w);
            let t0 = Instant::now();
            wk.begin_epoch();
            let wake =
                |slot: usize, m: &P::Message| sched.parked.mark(w, wk.wp.readers(slot), key_of(m));
            wk.apply_inbound(sched.epoch, (0, 1), wake);
            t.add(Phase::Parse, t0.elapsed());
        }

        // Phase B: select this round's due vertices per worker.
        let mut total_selected = 0usize;
        for (w, sel) in sched.selected.iter_mut().enumerate() {
            sel.clear();
            sched.parked.select(w, end_key, sel);
            // Deterministic drain (and float-reduction) order.
            sel.sort_unstable();
            total_selected += sel.len();
        }
        if total_selected == 0 && run.transport.all_empty() {
            break;
        }
        rounds += 1;
        sched.rounds_total += 1;
        // Each fused round is one logical superstep of relaxation; the
        // program only ever sees the run's very first pass as superstep 0,
        // so kick-off branches (`ctx.superstep() == 0`) fire exactly once
        // even when the first bucket needs several rounds — or when a
        // self-loop re-selects an initially active vertex.
        let kickoff_round = superstep == 0 && sched.rounds_total == 1;
        let round_superstep = if kickoff_round { 0 } else { superstep.max(1) };

        // Phase C+D (CMP, SND): compute each worker's selection against the
        // immutable view, queue each publication for its remote readers —
        // the selection is a set, so a master computes and fans out at most
        // once per round — publish locally, and send one sync batch per
        // destination.
        for w in 0..num_workers {
            let wk = run.worker(w);
            let acc = &mut sched.accs[w];
            let t_cmp = Instant::now();
            for &li in &sched.selected[w] {
                let li = li as usize;
                if sched.sel_gen[w][li] != gen {
                    sched.sel_gen[w][li] = gen;
                    occupancy[w] += 1;
                }
                let wake = |slot: usize, m: &P::Message| {
                    sched.parked.mark(w, wk.wp.readers(slot), key_of(m))
                };
                if let Some(m) = wk.compute_vertex(li, round_superstep, agg_in, acc, wake) {
                    acc.part.direct += wk.fan_out(li, m, &mut sched.out);
                }
            }
            // Publish this round's updates so the next round reads them.
            wk.publish_local(&mut acc.updated);
            times[w].add(Phase::Compute, t_cmp.elapsed());
            let t_snd = Instant::now();
            wk.send_outboxes(w * run.threads, sched.epoch, &mut sched.out);
            times[w].add(Phase::Send, t_snd.elapsed());
        }
        sched.epoch += 1;
        let span_args = [bucket, rounds, total_selected as u64];
        end_span(ring, round_span, SpanKind::Round, span_args);
    }

    // ---- Superstep epilogue: hand the leader's SYN what the per-barrier
    // loop's worker leaders hand it. ----
    let settle_elapsed = settle_start.elapsed();
    let mut phase_total = PhaseTimes::default();
    for t in times.iter_mut() {
        // The settle is sequential: while one worker's state is processed
        // every other worker's threads wait, so a worker's sync share is the
        // superstep wall minus its own work — making why-slow's wait
        // attribution reflect the serialization honestly.
        let work = t.total();
        t.add(Phase::Sync, settle_elapsed.saturating_sub(work));
        phase_total = phase_total.merge(t);
    }
    run.current.lock().phase_times = phase_total;
    for (w, acc) in sched.accs.iter_mut().enumerate() {
        // The locally-known next frontier is the parked set.
        acc.part.next_active = sched.parked.pending[w].len();
        *run.worker_partials[w].lock() = acc.part;
    }
    let stop = run.close_superstep(superstep, budget_exhausted);
    // The settle runs on the global leader, so it commits (and samples
    // memory) on every worker's behalf.
    for (w, acc) in sched.accs.iter_mut().enumerate() {
        let wk = run.worker(w);
        wk.trace_hot(0, acc);
        let frontier = occupancy[w] as usize;
        let triple = Some((bucket, rounds.max(1), occupancy[w]));
        wk.commit_superstep(superstep, frontier, &times[w], &acc.part, triple);
        acc.part = ChunkPartial::default(); // the next superstep starts clean
    }

    // ---- Bucket advance. ----
    if stop {
        return;
    }
    // Feed the live occupancy histogram into the width controller.
    // Counters, never clocks: the same run retunes identically on any
    // machine or thread count, keeping the trace stable.
    let total_occ: u64 = occupancy.iter().sum();
    sched.occ_sum += total_occ;
    sched.occ_count += 1;
    let new_delta = if run.config.bucket_adapt {
        retune_delta(
            sched.delta,
            sched.delta0,
            total_occ,
            rounds,
            sched.occ_sum,
            sched.occ_count,
        )
    } else {
        sched.delta
    };
    // Jump straight to the bucket holding the smallest parked priority
    // (parked keys are all >= end_key, so this always advances).
    let parked = &sched.parked;
    let keys = (parked.pending.iter().zip(&parked.prio))
        .flat_map(|(pending, prio)| pending.iter().map(|&li| prio[li as usize]));
    if let Some(p) = keys.min().map(priority_key_inv) {
        let next = if p.is_finite() && p >= 0.0 {
            (p / new_delta) as u64
        } else {
            sched.bucket + 1
        };
        // Bucket indices are in units of the width, so the monotonic guard
        // only means something while the width stands. After a retune the
        // index containing the smallest parked priority is taken as is;
        // progress is still guaranteed — the next end key strictly exceeds
        // that priority, so every superstep selects at least one vertex.
        sched.bucket = if new_delta == sched.delta {
            next.max(sched.bucket + 1)
        } else {
            next
        };
        sched.delta = new_delta;
    }
}

/// Deterministic bucket-width controller for `--bucket-width auto` runs:
/// replaces the static 8x-mean-edge-weight rule with feedback from the live
/// bucket-occupancy histogram. A bucket far fatter than the running mean
/// that also needed many fused rounds halves the width (too much in-bucket
/// re-relaxation); a bucket far thinner doubles it (too many near-empty
/// barrier rounds). Inputs are pure counters — never wall-clock — so any
/// topology and thread count makes the identical decision, and the result
/// is clamped to [`delta0`/16, 16*`delta0`] so one skewed bucket cannot run
/// the width away.
fn retune_delta(
    delta: f64,
    delta0: f64,
    occ: u64,
    rounds: u64,
    occ_sum: u64,
    occ_count: u64,
) -> f64 {
    if occ_count < 2 {
        return delta; // No history yet: the first bucket is its own mean.
    }
    let avg = occ_sum / occ_count;
    let wanted = if occ > 4 * avg && rounds > 4 {
        delta / 2.0
    } else if occ * 4 < avg {
        delta * 2.0
    } else {
        delta
    };
    wanted.clamp(delta0 / 16.0, delta0 * 16.0)
}
#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_graph::{GraphBuilder, VertexId};
    use cyclops_partition::{EdgeCutPartition, EdgeCutPartitioner, HashPartitioner};

    /// Pull-mode max propagation: each vertex's value becomes the max of
    /// its own value and its in-neighbors' publications; it re-publishes
    /// (and thereby activates neighbors) only when its value grew.
    /// Converges in diameter+1 supersteps with strongly asymmetric
    /// per-vertex convergence times — a miniature of the paper's
    /// pull-mode workloads.
    struct MaxPull;
    impl CyclopsProgram for MaxPull {
        type Value = u32;
        type Message = u32;
        fn init(&self, v: VertexId, _g: &Graph) -> u32 {
            v
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
                ctx.report_error(1.0);
                ctx.activate_neighbors(best);
            } else {
                ctx.report_error(0.0);
            }
        }
    }

    fn ring(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            b.add_edge(i as VertexId, ((i + 1) % n) as VertexId);
        }
        b.build()
    }

    fn run_maxpull(cluster: ClusterSpec) -> CyclopsResult<u32, u32> {
        let g = ring(48);
        let p = HashPartitioner.partition(&g, cluster.num_workers());
        run_cyclops(
            &MaxPull,
            &g,
            &p,
            &CyclopsConfig {
                cluster,
                ..Default::default()
            },
        )
    }

    #[test]
    fn ring_max_floods_everywhere() {
        let r = run_maxpull(ClusterSpec::flat(2, 2));
        assert!(r.values.iter().all(|&v| v == 47), "{:?}", &r.values[..8]);
        // The max needs 47 hops; activity then drains.
        assert!(r.supersteps >= 47, "supersteps {}", r.supersteps);
    }

    #[test]
    fn dynamic_computation_reduces_active_vertices() {
        let r = run_maxpull(ClusterSpec::flat(2, 2));
        let first = r.stats.first().unwrap().active_vertices;
        let last = r.stats.last().unwrap().active_vertices;
        assert_eq!(first, 48);
        assert!(last < first, "activity should decay: {first} -> {last}");
    }

    #[test]
    fn replication_factor_reported() {
        let r = run_maxpull(ClusterSpec::flat(4, 1));
        // Ring with hash partition over 4 workers: every vertex's successor
        // is remote, so one replica each.
        assert!((r.replication_factor - 1.0).abs() < 1e-12);
    }

    /// Complete directed graph on `n` vertices.
    fn clique(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n as VertexId {
            for j in 0..n as VertexId {
                if i != j {
                    b.add_edge(i, j);
                }
            }
        }
        b.build()
    }

    #[test]
    fn mt_reduces_replicas_and_messages() {
        let g = clique(16);
        // 4 single-thread workers on 4 machines...
        let flat = {
            let p = HashPartitioner.partition(&g, 4);
            run_cyclops(
                &MaxPull,
                &g,
                &p,
                &CyclopsConfig {
                    cluster: ClusterSpec::flat(4, 1),
                    ..Default::default()
                },
            )
        };
        // ...vs 2 machines with 2 threads each (4 total threads).
        let mt = {
            let p = HashPartitioner.partition(&g, 2);
            run_cyclops(
                &MaxPull,
                &g,
                &p,
                &CyclopsConfig {
                    cluster: ClusterSpec::mt(2, 2, 1),
                    ..Default::default()
                },
            )
        };
        assert!(mt.replication_factor < flat.replication_factor);
        assert!(mt.counters.messages < flat.counters.messages);
        assert_eq!(flat.values, mt.values);
    }

    #[test]
    fn proportion_convergence_halts_early() {
        let g = ring(48);
        let p = HashPartitioner.partition(&g, 4);
        let full = run_cyclops(
            &MaxPull,
            &g,
            &p,
            &CyclopsConfig {
                cluster: ClusterSpec::flat(2, 2),
                max_supersteps: 200,
                ..Default::default()
            },
        );
        let prop = run_cyclops(
            &MaxPull,
            &g,
            &p,
            &CyclopsConfig {
                cluster: ClusterSpec::flat(2, 2),
                max_supersteps: 200,
                convergence: Convergence::Proportion {
                    epsilon: 0.5,
                    target: 0.6,
                },
                ..Default::default()
            },
        );
        assert!(
            prop.supersteps < full.supersteps,
            "prop {} vs full {}",
            prop.supersteps,
            full.supersteps
        );
    }

    #[test]
    fn sync_messages_only_for_remote_mirrors() {
        let g = ring(8);
        // Single worker: no replicas, no messages at all.
        let p = HashPartitioner.partition(&g, 1);
        let r = run_cyclops(
            &MaxPull,
            &g,
            &p,
            &CyclopsConfig {
                cluster: ClusterSpec::flat(1, 1),
                ..Default::default()
            },
        );
        assert_eq!(r.counters.messages, 0);
        assert!(r.values.iter().all(|&v| v == 7));
    }

    #[test]
    fn global_error_convergence_halts() {
        // MaxPull reports error 1.0 on change, 0.0 when stable; the
        // GlobalError detector stops once the mean reported error drops
        // under the bound — before full quiescence drains the frontier.
        let g = ring(48);
        let p = HashPartitioner.partition(&g, 4);
        let full = run_cyclops(
            &MaxPull,
            &g,
            &p,
            &CyclopsConfig {
                cluster: ClusterSpec::flat(2, 2),
                ..Default::default()
            },
        );
        let ge = run_cyclops(
            &MaxPull,
            &g,
            &p,
            &CyclopsConfig {
                cluster: ClusterSpec::flat(2, 2),
                convergence: Convergence::GlobalError { epsilon: 0.6 },
                ..Default::default()
            },
        );
        assert!(
            ge.supersteps < full.supersteps,
            "global-error {} vs full {}",
            ge.supersteps,
            full.supersteps
        );
    }

    #[test]
    fn max_supersteps_caps() {
        let g = ring(16);
        let p = HashPartitioner.partition(&g, 2);
        let r = run_cyclops(
            &MaxPull,
            &g,
            &p,
            &CyclopsConfig {
                cluster: ClusterSpec::flat(2, 1),
                max_supersteps: 3,
                ..Default::default()
            },
        );
        assert_eq!(r.supersteps, 3);
        assert_eq!(r.stats.len(), 3);
    }

    /// SSSP-shaped program with an activation priority: the published
    /// tentative distance. The miniature of what the bucketed scheduler is
    /// for.
    struct MinDist {
        source: VertexId,
    }
    impl CyclopsProgram for MinDist {
        type Value = f64;
        type Message = f64;
        fn init(&self, v: VertexId, _g: &Graph) -> f64 {
            if v == self.source {
                0.0
            } else {
                f64::INFINITY
            }
        }
        fn init_message(&self, v: VertexId, _g: &Graph, value: &f64) -> Option<f64> {
            (v == self.source).then_some(*value)
        }
        fn initially_active(&self, v: VertexId, _g: &Graph) -> bool {
            v == self.source
        }
        fn compute(&self, ctx: &mut CyclopsContext<'_, f64, f64>) {
            let mut best = *ctx.value();
            for (m, w) in ctx.in_messages() {
                best = best.min(m + w);
            }
            if ctx.superstep() == 0 && ctx.vertex() == self.source {
                ctx.activate_neighbors(0.0);
            }
            if best < *ctx.value() {
                ctx.set_value(best);
                ctx.activate_neighbors(best);
            }
        }
        fn priority(&self, msg: &f64) -> Option<f64> {
            Some(*msg)
        }
    }

    fn run_mindist(config: &CyclopsConfig) -> CyclopsResult<f64, f64> {
        let g = cyclops_graph::gen::road_lattice(12, 12, 0.9, 0.1, 3);
        let p = HashPartitioner.partition(&g, config.cluster.num_workers());
        run_cyclops(&MinDist { source: 0 }, &g, &p, config)
    }

    #[test]
    fn bucketed_sssp_matches_classic_and_cuts_supersteps() {
        let base = CyclopsConfig {
            cluster: ClusterSpec::flat(4, 1),
            ..Default::default()
        };
        let classic = run_mindist(&base);
        let reference = cyclops_graph::reference::sssp(
            &cyclops_graph::gen::road_lattice(12, 12, 0.9, 0.1, 3),
            0,
        );
        for (a, b) in classic.values.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()));
        }
        let bucketed = run_mindist(&CyclopsConfig {
            bucket_width: 2.0,
            ..base
        });
        // Relaxation order never changes the min fixpoint (and each
        // candidate is the same left-folded path sum), so distances are
        // bitwise identical, not merely close.
        assert_eq!(classic.values, bucketed.values);
        assert!(
            bucketed.supersteps < classic.supersteps,
            "bucketed {} vs classic {} supersteps",
            bucketed.supersteps,
            classic.supersteps
        );
    }

    #[test]
    fn retune_delta_is_bounded_and_direction_correct() {
        // No history: first bucket is its own mean, width untouched.
        assert_eq!(retune_delta(4.0, 4.0, 100, 10, 100, 1), 4.0);
        // Fat bucket with many fused rounds halves (avg = 80/4 = 20).
        assert_eq!(retune_delta(4.0, 4.0, 100, 10, 80, 4), 2.0);
        // Fat bucket that settled in few rounds is left alone (the width is
        // not the bottleneck — the frontier just happened to be wide).
        assert_eq!(retune_delta(4.0, 4.0, 100, 2, 80, 4), 4.0);
        // Thin bucket doubles.
        assert_eq!(retune_delta(4.0, 4.0, 1, 1, 80, 4), 8.0);
        // Ordinary bucket: unchanged.
        assert_eq!(retune_delta(4.0, 4.0, 20, 3, 80, 4), 4.0);
        // Clamp: never below delta0/16 or above 16*delta0.
        assert_eq!(retune_delta(4.0 / 16.0, 4.0, 100, 10, 80, 4), 4.0 / 16.0);
        assert_eq!(retune_delta(64.0, 4.0, 1, 1, 800, 4), 64.0);
        // All-idle history never divides by zero or drifts.
        assert_eq!(retune_delta(4.0, 4.0, 0, 0, 0, 3), 4.0);
    }

    #[test]
    fn priority_keys_are_order_preserving() {
        let vals = [0.0, 1e-300, 0.5, 1.0, 2.5, 1e18, f64::INFINITY];
        for w in vals.windows(2) {
            assert!(
                priority_key(w[0]) < priority_key(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
            assert_eq!(priority_key_inv(priority_key(w[0])), w[0]);
        }
        assert!(IMMEDIATE_KEY < priority_key(0.0));
        assert!(priority_key(-1.0) < priority_key(0.0));
    }

    #[test]
    fn adaptive_bucketed_sssp_matches_classic_bitwise() {
        let base = CyclopsConfig {
            cluster: ClusterSpec::flat(4, 1),
            ..Default::default()
        };
        let classic = run_mindist(&base);
        // A deliberately thin seed: the controller must widen it while the
        // fixpoint (and thus every distance bit) stays put.
        let adaptive = CyclopsConfig {
            bucket_width: 0.25,
            bucket_adapt: true,
            ..base.clone()
        };
        let flat = run_mindist(&adaptive);
        assert_eq!(classic.values, flat.values);
        let static_width = run_mindist(&CyclopsConfig {
            bucket_adapt: false,
            ..adaptive.clone()
        });
        assert_eq!(classic.values, static_width.values);
        assert!(
            flat.supersteps < static_width.supersteps,
            "widening must cut barrier rounds (adaptive {} vs static {})",
            flat.supersteps,
            static_width.supersteps
        );
        // The controller reads counters only, and occupancy counts vertices,
        // not per-worker shares: two workers of three threads (another
        // partition) settle the same buckets in as many supersteps.
        let mt = run_mindist(&CyclopsConfig {
            cluster: ClusterSpec::mt(2, 3, 2),
            ..adaptive
        });
        assert_eq!(flat.values, mt.values);
        assert_eq!(flat.supersteps, mt.supersteps);
    }

    #[test]
    fn bucketed_traces_carry_fused_rounds() {
        let g = cyclops_graph::gen::road_lattice(12, 12, 0.9, 0.1, 3);
        let cluster = ClusterSpec::flat(2, 2);
        let p = HashPartitioner.partition(&g, cluster.num_workers());
        let mut sink = TraceSink::new("cyclops", &cluster);
        run_cyclops_with_plan_traced(
            &MinDist { source: 0 },
            &g,
            &CyclopsPlan::build_parallel(&g, &p),
            &CyclopsConfig {
                cluster,
                bucket_width: 2.0,
                ..Default::default()
            },
            None,
            Some(&sink),
        );
        let records = sink.take_records();
        assert!(!records.is_empty());
        assert!(
            records.iter().all(|r| r.fused >= 1),
            "every bucketed superstep fuses at least one round"
        );
        assert!(
            records.iter().any(|r| r.fused > 1),
            "some bucket needs more than one relaxation round"
        );
        // Buckets drain in nondecreasing order.
        let mut by_step: Vec<(u64, u64)> =
            records.iter().map(|r| (r.superstep, r.bucket)).collect();
        by_step.sort_unstable();
        assert!(by_step.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    /// PageRank as `cyclops-algos` writes it (this crate cannot depend on
    /// it): republish while the local error exceeds `epsilon`.
    struct Rank {
        epsilon: f64,
    }
    impl CyclopsProgram for Rank {
        type Value = f64;
        type Message = f64;
        fn init(&self, _v: VertexId, g: &Graph) -> f64 {
            1.0 / g.num_vertices() as f64
        }
        fn init_message(&self, v: VertexId, g: &Graph, value: &f64) -> Option<f64> {
            Some(*value / g.out_degree(v).max(1) as f64)
        }
        fn compute(&self, ctx: &mut CyclopsContext<'_, f64, f64>) {
            let last = *ctx.value();
            let sum: f64 = ctx.in_messages().map(|(m, _)| *m).sum();
            let value = 0.15 / ctx.num_vertices() as f64 + 0.85 * sum;
            ctx.set_value(value);
            let error = (value - last).abs();
            ctx.report_error(error);
            if error > self.epsilon {
                ctx.activate_neighbors(value / ctx.out_degree().max(1) as f64);
            }
        }
    }

    /// Everything a run lets an observer see except its clocks: the result,
    /// every per-superstep count, every checkpoint (vertices by id — workers
    /// append their share in arrival order) and the values-mode trace.
    fn observed<V: Clone + std::fmt::Debug, M: Clone + std::fmt::Debug>(
        r: &CyclopsResult<V, M>,
        sink: &mut TraceSink,
    ) -> String {
        let stats: Vec<_> = (r.stats.iter())
            .map(|s| {
                (
                    s.superstep,
                    s.active_vertices,
                    s.messages_sent,
                    s.bytes_sent,
                    s.redundant_messages,
                )
            })
            .collect();
        let mut checkpoints = r.checkpoints.clone();
        for cp in &mut checkpoints {
            cp.vertices.sort_by_key(|entry| entry.0);
        }
        let mut records = sink.take_records();
        for rec in &mut records {
            (rec.parse_ns, rec.compute_ns, rec.send_ns, rec.sync_ns) = (0, 0, 0, 0);
        }
        // The queue peaks and allocation totals depend on thread timing.
        let c = &r.counters;
        let traffic = (
            c.messages,
            c.bytes,
            c.wire_dense_batches,
            c.wire_sparse_batches,
        );
        format!(
            "{:?}\n{:?}\n{} {traffic:?} {}\n{stats:?}\n{checkpoints:?}\n{records:?}",
            r.values, r.publications, r.supersteps, r.direct_messages,
        )
    }

    /// Runs `program` once per activation policy — always push, always pull,
    /// the rule — and holds the three observably equal.
    fn assert_directions_agree<P: CyclopsProgram>(
        program: &P,
        g: &Graph,
        config: &CyclopsConfig,
        label: &str,
    ) where
        P::Value: std::fmt::Debug,
        P::Message: std::fmt::Debug,
    {
        let p = HashPartitioner.partition(g, config.cluster.num_workers());
        let plan = CyclopsPlan::build_parallel_with_threshold(g, &p, config.replicate_threshold);
        let run = |force_pull| {
            let mut sink = TraceSink::with_values("cyclops", &config.cluster);
            let r = run_with_activation(program, g, &plan, config, None, Some(&sink), force_pull);
            assert!(!r.checkpoints.is_empty(), "{label}: no checkpoint captured");
            (r.supersteps, observed(&r, &mut sink))
        };
        let pulled = cyclops_obs::install_global().counter(
            "cyclops_activation_supersteps",
            &[("engine", "cyclops"), ("mode", "pull")],
        );
        let (before, (supersteps, pull)) = (pulled.get(), run(Some(true)));
        // Other tests of this binary may be counting too, so at least:
        let expected = (supersteps * plan.workers.len()) as u64;
        assert!(
            pulled.get() - before >= expected,
            "{label}: pull not forced"
        );
        let (_, push) = run(Some(false));
        assert_same(&push, &pull, &format!("{label}: push vs pull"));
        assert_same(&push, &run(None).1, &format!("{label}: push vs the rule"));
    }

    /// `assert_eq!` for two long dumps: shows where they part, not all of both.
    fn assert_same(a: &str, b: &str, label: &str) {
        let Some(at) = (a.bytes().zip(b.bytes())).position(|(x, y)| x != y) else {
            return assert_eq!(a.len(), b.len(), "{label}: one dump is a prefix");
        };
        let shown = |s: &str| s[at.saturating_sub(300)..(at + 100).min(s.len())].to_owned();
        panic!("{label}: diverge at byte {at}\n{}\n{}", shown(a), shown(b));
    }

    #[test]
    fn pushed_and_pulled_activation_are_one_run() {
        // A multigraph with hubs and self-loops for the pull-mode programs,
        // a weighted lattice for the wavefront.
        let web = cyclops_graph::gen::rmat(
            cyclops_graph::gen::RmatConfig {
                scale: 9,
                edges: 4000,
                simple: false,
                ..Default::default()
            },
            11,
        );
        let road = cyclops_graph::gen::road_lattice(12, 12, 0.9, 0.1, 3);
        for cluster in [ClusterSpec::flat(3, 1), ClusterSpec::mt(2, 3, 2)] {
            for replicate_threshold in [0, 2] {
                let config = CyclopsConfig {
                    cluster,
                    replicate_threshold,
                    max_supersteps: 14,
                    checkpoint_every: Some(3),
                    ..Default::default()
                };
                let label =
                    |name: &str| format!("{name} on {cluster:?}, threshold {replicate_threshold}");
                assert_directions_agree(&Rank { epsilon: 0.0 }, &web, &config, &label("PR"));
                let rank = Rank { epsilon: 1e-4 };
                assert_directions_agree(&rank, &web, &config, &label("PR 1e-4"));
                assert_directions_agree(&MaxPull, &web, &config, &label("CC"));
                let sssp = MinDist { source: 0 };
                assert_directions_agree(&sssp, &road, &config, &label("SSSP"));
            }
        }
    }

    #[test]
    fn pulled_supersteps_survive_a_resume() {
        // The schedule the matrix above does not reach: a run resumed from a
        // checkpoint that a pulled PRS filled, continued in either direction.
        let g = ring(48);
        let config = CyclopsConfig {
            cluster: ClusterSpec::mt(2, 3, 2),
            checkpoint_every: Some(5),
            ..Default::default()
        };
        let p = HashPartitioner.partition(&g, 2);
        let plan = CyclopsPlan::build_parallel(&g, &p);
        let full = run_with_activation(&MaxPull, &g, &plan, &config, None, None, Some(true));
        let cp = &full.checkpoints[1];
        for force_pull in [Some(true), Some(false)] {
            let resumed =
                run_with_activation(&MaxPull, &g, &plan, &config, Some(cp), None, force_pull);
            assert_eq!(full.values, resumed.values);
            assert_eq!(full.supersteps, resumed.supersteps);
        }
    }

    /// Worker 0's plan of `dataset` cut by hash over two workers.
    fn worker_plan(dataset: cyclops_graph::Dataset, scale: f64) -> WorkerPlan {
        let g = dataset.generate_scaled(scale, dataset.default_seed());
        let p = HashPartitioner.partition(&g, 2);
        CyclopsPlan::build_parallel(&g, &p).workers.swap_remove(0)
    }

    #[test]
    fn pull_wins_on_dense_stationary_frontiers_only() {
        use cyclops_graph::Dataset;
        // Dense and stationary: every master of a power-law graph computes
        // and will again — PageRank's bulk phase.
        let wiki = worker_plan(Dataset::Wiki, 0.25);
        let all: Vec<u32> = (0..wiki.num_masters() as u32).collect();
        assert!(pull_wins(&all, &wiki));
        // The same plan, a fifth of it: below the quarter, not even summed.
        assert!(!pull_wins(&all[..all.len() / 5], &wiki));

        // Dense but alternating: ALS's user side is nine tenths of the
        // masters, and everyone it wakes is on the item side.
        let syn = worker_plan(Dataset::SynGl, 1.0);
        let users = Dataset::SynGl.bipartite_users_at(1.0).unwrap() as u32;
        let user_side: Vec<u32> = (0..syn.num_masters() as u32)
            .filter(|&li| syn.masters[li as usize] < users)
            .collect();
        assert!(user_side.len() > syn.num_masters() * 3 / 4);
        assert!(!pull_wins(&user_side, &syn));
        let item_side: Vec<u32> = (0..syn.num_masters() as u32)
            .filter(|&li| syn.masters[li as usize] >= users)
            .collect();
        assert!(!pull_wins(&item_side, &syn));

        // Sparse: a wavefront over a fifth of a road network — and, were it
        // wider, degree-3 vertices still make marking cheaper than scanning.
        let road = worker_plan(Dataset::RoadCa, 0.25);
        let n = road.num_masters() as u32;
        let wavefront: Vec<u32> = (n / 3..n / 3 + n / 5).collect();
        assert!(!pull_wins(&wavefront, &road));
        let wide: Vec<u32> = (n / 3..n / 3 + n / 2).collect();
        assert!(!pull_wins(&wide, &road));

        // No local out-edge at all (a bipartite graph cut by side): nothing
        // to divide by, and pushing walks nothing in CMP.
        let mut b = GraphBuilder::new(8);
        for v in 0..4 {
            b.add_edge(v, v + 4);
            b.add_edge(v + 4, (v + 1) % 4);
        }
        let g = b.build();
        let p = EdgeCutPartition::new(2, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let plan = CyclopsPlan::build_parallel(&g, &p);
        for wp in &plan.workers {
            assert!(wp.local_out.is_empty() && !wp.in_refs.is_empty());
            assert!(!pull_wins(&[0, 1, 2, 3], wp));
        }
        assert!(!pull_wins(&[], &WorkerPlan::default()));
    }

    #[test]
    fn an_out_of_range_remote_slot_is_a_clean_panic_in_both_directions() {
        // Figure-6-sized worker: 2 masters, remote slots for ids 0 and 1 —
        // 4 view slots, so the fresh bitmap's one word has 60 spare bits an
        // unchecked id could land in.
        let mut b = GraphBuilder::new(4);
        b.add_edge(2, 0);
        b.add_edge(3, 1);
        let g = b.build();
        let p = EdgeCutPartition::new(2, vec![0, 0, 1, 1]);
        let plan = CyclopsPlan::build_parallel(&g, &p);
        let wp = &plan.workers[0];
        assert_eq!((wp.num_masters(), wp.num_view_slots()), (2, 4));
        let frontier = Frontier::new(2);
        let fresh = FreshSlots::new(4);
        for pull in [false, true] {
            for bad in [2u32, 61, 64, u32::MAX] {
                let view = DisjointSlots::new(vec![None::<u32>; 4]);
                let batch = vec![
                    ReplicaUpdate::new(1, 7, true),
                    ReplicaUpdate::new(bad, 8, true),
                ];
                let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut writer = fresh.writer();
                    let mut wake = |slot: usize, _: &u32| {
                        if pull {
                            return writer.set(slot);
                        }
                        for &li in wp.readers(slot) {
                            frontier.mark(0, li as usize);
                        }
                    };
                    apply_batches(vec![(0, batch)], &view, wp, &mut wake)
                }));
                assert!(refused.is_err(), "id {bad}, pull {pull}");
                // The good update before it landed; the bad one left no
                // trace in the view, the frontier or the bitmap.
                assert_eq!(view.into_inner(), vec![None, None, None, Some(7)]);
                frontier.fill_from(0, wp, &fresh, (0, 1));
                assert_eq!(fresh.count(), pull as usize);
                assert_eq!((frontier.len(0), frontier.is_marked(0, 1)), (1, true));
                fresh.clear();
                frontier.snapshot(0, &mut Vec::new());
            }
        }
    }

    #[test]
    fn checkpoint_interval_longer_than_run_captures_nothing() {
        // Regression for the checkpoint-capture invariant: an interval the
        // run never reaches must yield an empty checkpoint list — not a
        // panic on an empty store — in both the classic and bucketed loops.
        let g = ring(16);
        let p = HashPartitioner.partition(&g, 2);
        for every in [Some(1000), Some(0)] {
            let r = run_cyclops(
                &MaxPull,
                &g,
                &p,
                &CyclopsConfig {
                    cluster: ClusterSpec::flat(2, 1),
                    checkpoint_every: every,
                    ..Default::default()
                },
            );
            assert!(r.checkpoints.is_empty(), "checkpoint_every {every:?}");
            assert!(r.values.iter().all(|&v| v == 15));
            let b = run_mindist(&CyclopsConfig {
                cluster: ClusterSpec::flat(2, 2),
                bucket_width: 2.0,
                checkpoint_every: every,
                ..Default::default()
            });
            assert!(
                b.checkpoints.is_empty(),
                "bucketed checkpoint_every {every:?}"
            );
        }
    }
}
