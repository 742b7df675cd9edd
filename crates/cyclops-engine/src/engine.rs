//! The unified Cyclops / CyclopsMT engine: one set of superstep phases, one
//! superstep loop.
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
//!   program, fold error / convergence / digest, wake local readers, return
//!   the publication), `Worker::fan_out` (one [`ReplicaUpdate`] per remote
//!   copy of the publication: a replica of a hot master, a direct slot per
//!   cross edge of a cold one) and `Worker::publish_local`;
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
//! `(slot, &payload)`, the readers being [`WorkerPlan::readers`]`(slot)`. A
//! bucketed round parks them at the priority the payload proposes. A per-hop
//! round takes whichever direction is cheaper for the superstep
//! (`pull_wins`): it *pushes* — walks the readers and marks each one's
//! frontier parity bit — or it sets the slot's bit in the worker's
//! [`FreshSlots`] and walks nothing, and the readers *pull* their wake-up
//! afterwards ([`Frontier::fill_from`]). There is one kind of view
//! update from publish to apply: mirroring and messaging are one mechanism with
//! a degree cutoff (Yan et al., arXiv:1503.00626), so a destination's outbox is
//! a `Vec<ReplicaUpdate>`, the run has one [`Transport`], and an update's id is
//! a remote slot of the destination's view, `[replicas | direct slots]`.
//!
//! # The loop
//!
//! Every engine thread runs `thread_loop`, and a superstep is one or more
//! *rounds*, then one epilogue. A round is PRS on the receivers' shares,
//! selection (the worker leader's frontier snapshot and its mass chunks),
//! CMP on the chunks every compute thread claims, and SND (the
//! `[dest][thread]` deposit merge, one batch per destination). A per-hop
//! superstep is one round; a bucketed one drains a priority bucket in as
//! many fused rounds as it needs. In every round of either kind a worker's
//! threads meet at the barrier's spinning local level, and a bucketed round
//! adds two spinning round waits over every thread. The epilogue is the
//! worker leader's reduction and commit around the superstep barrier pair,
//! the only waits that park, between whose waits the global leader closes
//! the superstep and, when bucketed, advances the bucket and retunes Δ.
//!
//! # Safety
//!
//! Two slot arrays per worker are written without locks — `values` and
//! `view`, the one array every gather reads and the one place a publication
//! is stored: `[masters | replicas | direct slots]`, indexed by the plan's
//! in-edge references. An epoch is a round's CMP and SND and the next round's
//! PRS: the worker leader opens it at selection, when every PRS write is
//! behind one wait and every CMP write beyond the next. Three `unsafe` sites,
//! each resting on [`DisjointSlots`]' single-writer-per-epoch protocol
//! (verified in debug builds) and stating its argument once for both kinds
//! of round, per hop and bucketed, on any number of threads: `values` in
//! `Worker::compute_vertex`; the view's master range in
//! `Worker::publish_local` (SND, by the stream that computed the master); the
//! view's replica and direct ranges in `apply_batches` (PRS, by the receiver
//! that drained the slot's lane; the decoded remote slot is range-checked by
//! an explicit `assert!` there, not by the reader lookup, because a pulled
//! superstep looks no readers up). The two view writers never overlap in
//! range or in phase, and no gather runs during either, so one argument
//! covers the array: within an epoch every slot has one writer, and readers
//! are behind a wait. The activation bitmaps (`Frontier`, `FreshSlots`) and
//! a bucketed run's parking priorities are atomics and need no such
//! argument; who may touch them when is the table at the top of
//! `frontier.rs`.

use crate::checkpoint::CyclopsCheckpoint;
use crate::frontier::{FreshSlots, Frontier};
use crate::plan::{CyclopsPlan, WorkerPlan};
use crate::program::{CyclopsContext, CyclopsProgram};
use cyclops_graph::Graph;
use cyclops_net::metrics::CounterSnapshot;
use cyclops_net::trace::{digest_bytes, SpaceSaving, TraceRecord, TraceSink};
use cyclops_net::{
    AggregateStats, BucketMode, ClusterSpec, Codec, DisjointSlots, EngineObs, HierarchicalBarrier,
    InboxMode, Phase, PhaseTimes, ReplicaUpdate, SuperstepStats, Transport, WireMode, WorkerTracer,
};
use cyclops_obs::mem::{Component, MemScope};
use cyclops_obs::{SpanKind, SpanRing};
use cyclops_partition::EdgeCutPartition;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, AtomicUsize, Ordering};
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

/// A bucketed run's parking priority of a master that is not parked: `+∞`,
/// as the bits the priority array holds.
const UNPARKED: u64 = f64::INFINITY.to_bits();

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
    /// resume point). Resuming at or past the cap executes nothing. A
    /// bucketed run also caps its fused rounds here and a resume restarts
    /// that count, so it keeps this promise only while that budget is slack.
    pub max_supersteps: usize,
    /// Convergence detection scheme.
    pub convergence: Convergence,
    /// Capture a value-only checkpoint every `n` supersteps (§3.6).
    pub checkpoint_every: Option<usize>,
    /// Priority-bucket width Δ of the bucketed (delta-stepping) scheduler.
    /// `0.0` (the default) disables bucketing: every superstep is one
    /// relaxation round, one hop. With Δ > 0, each superstep
    /// drains one priority bucket `[bΔ, (b+1)Δ)` to a fixpoint — fusing as
    /// many relaxation rounds as the bucket needs behind a *single* pair of
    /// superstep waits — before advancing to the next nonempty bucket. A
    /// fused round is the per-hop round on the bucket's due masters: the
    /// cluster's receivers drain, every compute thread claims chunks of the
    /// worker's selection, and all threads of all workers meet at two short
    /// spinning round waits per round instead of a superstep barrier pair.
    /// On high-diameter graphs this collapses the paper's Figure 9 SSSP
    /// pathology (~one barrier per hop) to ~one barrier per bucket. Only for
    /// programs with a [`CyclopsProgram::priority`]: without one every
    /// activation is due at once and a bucket runs fused asynchronous
    /// rounds — another schedule, which gives non-monotone programs
    /// (PageRank, CD) other results. The CLI refuses that case. A resume
    /// restarts the round budget (see `max_supersteps`), the bucket index
    /// and the width, and relaxes the whole parked set at once.
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
    /// Barrier protocol messages over the run: every non-leader arrival at
    /// either level, `M·T − 1` per wait — what a flat barrier over every
    /// thread counts. The hierarchy's saving is that only `M − 1` of them
    /// cross machines. A bucketed run's round waits count too, over every
    /// thread like a superstep wait; waits among one machine's threads alone
    /// do not.
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
    /// The immutable view, the one store of a publication: every one visible
    /// this round, in the plan's slot space `[masters | replicas | direct
    /// slots]`. A new master publication waits in its stream's
    /// [`CmpAcc::updated`] until `Worker::publish_local` moves it into the
    /// master range at SND, so a gather reads the previous round; receiver
    /// threads write the replica and direct ranges, at most one message per
    /// slot per round (one source master per slot, one batch per sender per
    /// round). The direct range is empty under full replication.
    view: DisjointSlots<Option<M>>,
    /// Double-buffered activation bitmap: an activation is one bit, and the
    /// snapshot is an ordered scan of the words.
    frontier: Frontier,
    /// Per master, a bucketed run's parking priority as `f64` bits: `+∞`
    /// while the master is not parked, `-∞` (due at once) for INIT's and a
    /// resume's marks. Empty in a per-hop run.
    prio: Vec<AtomicU64>,
    /// The view slots written by a pulled superstep's CMP and the PRS after
    /// it, until that PRS's fill has read them.
    fresh: FreshSlots,
    /// Whether this superstep's publications wake their readers by pull —
    /// the local ones in its CMP, the remote ones in the next superstep's
    /// PRS on this worker. Decided by the worker leader at the frontier
    /// snapshot, read by every thread after the barrier that follows it.
    pull: AtomicBool,
    /// This round's snapshot: the ascending flat frontier...
    flat: parking_lot::RwLock<Vec<u32>>,
    /// ...and its equal-work-mass chunk end offsets: chunk `c` is
    /// `flat[ends[c-1]..ends[c]]`.
    ends: parking_lot::RwLock<Vec<u32>>,
    /// Next unclaimed chunk index.
    cursor: AtomicUsize,
    /// Per-chunk float partials, written by whichever thread computed the
    /// chunk and reduced in chunk-index order by the worker leader.
    partials: Vec<Mutex<ChunkPartial>>,
    /// Per-thread CMP nanoseconds this superstep, summed over a bucketed
    /// superstep's rounds — the global leader feeds every worker's to the
    /// `cyclops_compute_imbalance` histogram.
    cmp_ns: Vec<AtomicU64>,
    /// Shared outboxes `[dest][thread]`: threads deposit their per-
    /// destination publications at the end of CMP; flush threads merge the
    /// thread slots in thread order and send **one batch per destination**
    /// per round, so the batch count (and its wire framing) stays
    /// deterministic whatever chunks a thread claimed.
    deposits: Vec<Vec<Mutex<Vec<ReplicaUpdate<M>>>>>,
    /// Per-master converged flags (Proportion mode).
    converged: Vec<AtomicBool>,
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
    obs: Option<EngineObs>,
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
    /// A bucketed run's cross-worker state (unused per hop).
    buckets: Buckets,
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

/// The one run function behind every entry point. `force_pull` overrides a
/// per-hop round's choice of activation direction ([`pull_wins`], per
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
        let (frontier, fresh) = {
            let _mem = MemScope::enter(Component::Frontier);
            (Frontier::new(n), FreshSlots::new(wp.num_view_slots()))
        };
        // The whole view is one allocation, booked as replica machinery:
        // the master range now, the ranges seeded from other workers below.
        let mut view = {
            let _mem = MemScope::enter(Component::Replicas);
            Vec::with_capacity(wp.num_view_slots())
        };
        for (li, &v) in wp.masters.iter().enumerate() {
            if let Some(Some((_, value, publication, active))) = restored.get(v as usize) {
                values.push(value.clone());
                view.push(publication.clone());
                if *active {
                    frontier.mark(start_superstep & 1, li);
                }
                continue;
            }
            let value = program.init(v, graph);
            view.push(program.init_message(v, graph, &value));
            values.push(value);
            if resume.is_none() && program.initially_active(v, graph) {
                frontier.mark(0, li);
            }
        }
        views.push(view);
        // A bucketed run's parking priorities: INIT's and a resume's marks
        // are due at once (a value-only checkpoint holds no priorities).
        let parked = |li| match frontier.is_marked(start_superstep & 1, li) {
            true => AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            false => AtomicU64::new(UNPARKED),
        };
        let bucketed = if config.bucket_width > 0.0 { n } else { 0 };
        let prio = (0..bucketed).map(parked).collect();
        shared.push(WorkerShared {
            values: DisjointSlots::new(values),
            view: DisjointSlots::new(Vec::new()), // filled below
            frontier,
            prio,
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
        });
    }
    drop(restored);
    // Seed replica publications and direct slots from their source masters'
    // view slots — the initial one-way sync of the ingress (and of checkpoint
    // recovery): superstep 0 (and a resume) reads the identical immutable
    // view through either path. A remote slot's source is another worker's
    // master, so its owner's view is in `lo` or `hi`, never `view`.
    for w in 0..num_workers {
        let _mem = MemScope::enter(Component::Replicas);
        let (lo, rest) = views.split_at_mut(w);
        let (view, hi) = rest.split_at_mut(1);
        let source_pub = |&u: &u32| {
            let ow = plan.owner[u as usize] as usize;
            let owner = if ow < w { &lo[ow] } else { &hi[ow - w - 1] };
            owner[plan.local_of[u as usize] as usize].clone()
        };
        let wp = &plan.workers[w];
        view[0].extend(wp.replicas.iter().chain(&wp.direct_source).map(source_pub));
    }
    for (ws, view) in shared.iter_mut().zip(views) {
        ws.view = DisjointSlots::new(view);
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
        obs: EngineObs::resolve("cyclops"),
        threads,
        receivers: spec.receivers_per_worker.min(threads),
        shared,
        transport: Transport::new(spec, InboxMode::Sharded),
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
        buckets: Buckets::new(num_workers, config.bucket_width),
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

/// CMP state of one compute stream, an engine thread.
struct CmpAcc<M> {
    /// Partial being accumulated, one chunk's.
    part: ChunkPartial,
    /// This stream's publications of the current CMP, `(master, publication)`,
    /// held out of the view until [`Worker::publish_local`] moves them into
    /// its master range.
    updated: Vec<(u32, M)>,
    /// Hot-vertex capture: a Space-Saving sketch of per-vertex work mass,
    /// folded into the tracer each superstep. Disabled (`hot_k == 0`) the
    /// compute loop pays one `Option` check per vertex.
    hot: Option<SpaceSaving>,
    /// Scratch buffer for values-mode publication digests, reused across
    /// publications and supersteps (this used to be a fresh `BytesMut` per
    /// message — the allocation Table 2 flags).
    digest_buf: bytes::BytesMut,
}

impl<M> CmpAcc<M> {
    fn new(trace: Option<&TraceSink>) -> Self {
        let hot_k = trace.map_or(0, |s| s.hot_k());
        CmpAcc {
            part: ChunkPartial::default(),
            updated: Vec::new(),
            hot: (hot_k > 0).then(|| SpaceSaving::new(hot_k)),
            digest_buf: bytes::BytesMut::new(),
        }
    }
}

/// One worker as a phase function sees it. The tracer handle is resolved
/// here — once per thread, never per send.
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
    /// phase times in `current`. Reduces, records the superstep's compute
    /// imbalance and [`SuperstepStats`], and decides `stop`;
    /// `budget_exhausted` is a bucketed run's fused-round cap.
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
        if let Some(obs) = &self.obs {
            let cmp_ns = self.shared.iter().flat_map(|ws| &ws.cmp_ns);
            obs.record_imbalance(cmp_ns.map(|a| a.load(Ordering::Relaxed)));
        }
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
            // epoch (one update per remote copy per round: a round computes
            // a frontier snapshot, a set), and lanes touching the same slot
            // are drained by one receiver — so within an epoch no slot is
            // written twice, the master range is written in another phase,
            // and every gather is behind the wait that ends PRS.
            unsafe { view.write(base + id, Some(upd.payload)) };
        }
    }
    applied
}

impl<'r, P: CyclopsProgram> Worker<'r, P> {
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
    /// values-mode digest and waking the same-worker readers
    /// (`wake(li, &publication)`: the master's own view slot; lock-free bit
    /// operations, §5). Returns the publication, if
    /// the vertex published, by value: the caller fans it out and holds it
    /// for `publish_local`.
    #[inline]
    fn compute_vertex(
        &self,
        li: usize,
        superstep: usize,
        agg_in: Option<AggregateStats>,
        acc: &mut CmpAcc<P::Message>,
        mut wake: impl FnMut(usize, &P::Message),
    ) -> Option<P::Message> {
        let (ws, wp) = (self.ws, self.wp);
        acc.part.computed += 1;
        if let Some(hs) = acc.hot.as_mut() {
            // Degree-derived work mass is the per-vertex cost proxy — the
            // same estimate the compute chunks balance on.
            hs.record(wp.masters[li], wp.work_mass[li].max(1) as u64);
        }
        let (mut publish, mut reported) = (None, None);
        // SAFETY: a round computes each master at most once per epoch — its
        // chunks partition a duplicate-free frontier snapshot, one per round,
        // whichever threads claim them — and nothing else touches `values`
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
        Some(m)
    }

    /// CMP's unit of work, a claimed chunk: computes the masters of `chunk`
    /// in order, queues each publication's remote fan-out in `out` and holds
    /// the publication in `acc.updated`.
    fn compute_chunk(
        &self,
        chunk: &[u32],
        superstep: usize,
        agg_in: Option<AggregateStats>,
        acc: &mut CmpAcc<P::Message>,
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
                acc.part.direct += self.fan_out(li, &m, out);
                acc.updated.push((li as u32, m));
            }
        }
    }

    /// Makes the stream's held publications visible to readers: moves each
    /// of `updated` into the view's master range, where slot = local index,
    /// leaving `updated` empty.
    fn publish_local(&self, updated: &mut Vec<(u32, P::Message)>) {
        for (li, m) in updated.drain(..) {
            // SAFETY: only the stream that computed `li`, at most once per
            // epoch, holds its publication, so it writes the slot once, in a
            // range PRS never writes, and no reader is active: every thread
            // of the worker is past the round's post-compute wait, and the
            // next gather is behind the next round's PRS wait.
            unsafe { self.ws.view.write(li as usize, Some(m)) };
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
    /// the first worker to arrive creates the superstep's entry). A master's
    /// activation flag is its frontier bit in `parity` — the superstep's
    /// parity per hop, the parked set when bucketed.
    fn capture_checkpoint(
        &self,
        superstep: usize,
        aggregate: Option<AggregateStats>,
        parity: usize,
    ) {
        let mut vertices: Vec<_> = (self.wp.masters.iter().enumerate())
            .map(|(li, &v)| {
                let (value, publication) = (self.ws.values.read(li), self.ws.view.read(li));
                let active = self.ws.frontier.is_marked(parity, li);
                (v, value.clone(), publication.clone(), active)
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

    /// A bucketed run's wake: parks each reader of a written slot in parity
    /// `par` at the priority the payload proposes (`-∞`, due at once, if
    /// none), unless it is parked at a smaller one in `f64::total_cmp` order.
    /// A worker's receivers and compute threads park at once: a priority
    /// falls from [`UNPARKED`] by compare-and-swap, and the park that finds
    /// it unparked marks. A worker with one thread, its arrays' one writer,
    /// parks with plain loads and stores, a priority counting only while its
    /// master is marked: a few percent of its run (EXPERIMENTS.md).
    fn park<'a>(&'a self, par: usize) -> impl Fn(usize, &P::Message) + use<'a, 'r, P> {
        let alone = self.run.threads == 1;
        move |slot, m| {
            let p = self.run.program.priority(m).unwrap_or(f64::NEG_INFINITY);
            let bits = p.to_bits();
            let lower = |cur| p.total_cmp(&f64::from_bits(cur)).is_lt().then_some(bits);
            for &li in self.wp.readers(slot) {
                let (li, prio) = (li as usize, &self.ws.prio[li as usize]);
                if alone {
                    let marked = self.ws.frontier.is_marked(par, li);
                    if !marked || lower(prio.load(Ordering::Relaxed)).is_some() {
                        prio.store(bits, Ordering::Relaxed);
                        self.ws.frontier.mark_alone(par, li);
                    }
                } else {
                    let (Ok(cur) | Err(cur)) =
                        prio.fetch_update(Ordering::Relaxed, Ordering::Relaxed, lower);
                    if cur == UNPARKED {
                        self.ws.frontier.mark(par, li);
                    }
                }
            }
        }
    }

    /// Folds a compute stream's hot-vertex sketch into slot `t` of this
    /// worker's trace record (slots merge in thread order at commit) and
    /// clears it. Call before the worker's commit.
    fn trace_hot(&self, t: usize, acc: &mut CmpAcc<P::Message>) {
        if let (Some(tr), Some(hs)) = (self.tr, acc.hot.as_mut()) {
            tr.set_thread_hot(t, hs);
            hs.clear();
        }
    }

    /// Closes this worker's superstep for the observers: phase-latency
    /// histograms, the trace record (the worker's reduced partial `part`,
    /// whether the superstep opened with a checkpoint and, when bucketed,
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
        if let Some(obs) = &self.run.obs {
            obs.record_phases(times);
            if self.w == 0 {
                obs.set_supersteps(superstep + 1);
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

/// Body of one engine thread, thread `t` of worker `w`: the one superstep
/// loop (module doc, "The loop"). The worker's threads meet at
/// [`HierarchicalBarrier::local_wait`] where one phase hands over to the
/// next: at the superstep's opening, after PRS, after a checkpoint, after a
/// per-hop selection, after CMP, and after each of a pulled superstep's two
/// fills. After its selection a bucketed round meets
/// instead at a [`HierarchicalBarrier::round_wait`] over every thread, so
/// that every thread sums the workers' counts and all agree on whether the
/// bucket is drained, and after SND at a second one, so that the next PRS
/// sees every send.
fn thread_loop<P: CyclopsProgram>(run: &Run<'_, P>, w: usize, t: usize) {
    // Per-thread flight-recorder ring, resolved once.
    let flight = cyclops_obs::flight().map(|fr| fr.ring(w as u32, t as u32));
    let flight = flight.as_deref();
    // Tag this thread's allocations with its worker slot for the tracking
    // allocator (two thread-local writes; the allocator itself is a single
    // relaxed load when disarmed).
    let _mem_tag = MemScope::worker(w);
    let wk = run.worker(w);
    let (ws, wp) = (wk.ws, wk.wp);
    let bucketed = run.config.bucket_width > 0.0;
    let lane = w * run.threads + t;
    let num_workers = run.plan.workers.len();
    // Compute chunks per round, fixed per run: every partial slot in
    // `0..chunks` is written every round. A one-thread worker's bucketed round
    // has no thread to balance and is one chunk (EXPERIMENTS.md); per hop, the
    // cut fixes the float reduction order the traces pin.
    let chunks = match (bucketed, run.threads) {
        (true, 1) => 1,
        (_, threads) => threads * CHUNKS_PER_THREAD,
    };

    // How a per-hop round wakes the readers of a written slot, for the
    // parity of the superstep that will compute them: push a lock-free
    // frontier bit to each (§5), or leave one fresh bit for `fill_from` to
    // pull them by. A bucketed round parks them (`Worker::park`) in parity
    // `par`, INIT's and a resume's, and counts its occupancy in the other.
    // One closure per kind, picked per phase, so no loop tests the kind.
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
    let par = run.start_superstep & 1;
    let fill_share = (t, run.threads);

    let mut superstep = run.start_superstep;
    let mut out = outboxes(num_workers);
    let mut flush = outboxes(num_workers);
    let mut acc = CmpAcc::new(run.trace);
    // The direction the previous superstep's leader chose, which this
    // superstep's PRS still owes its remote activations.
    let mut pull_inbound = false;
    // Rounds run so far, the same count on every thread, which caps a
    // bucketed run's fused rounds at `max_supersteps` (a per-hop run meets
    // its superstep cap first) and numbers the transport epochs.
    let mut rounds_run = 0usize;

    loop {
        let mut times = PhaseTimes::default();
        let step = superstep as u64;
        let agg_in = *run.prev_aggregate.lock();
        // The parity PRS wakes and selection takes, and the one CMP wakes:
        // this superstep's and the next one's per hop, the parked set when
        // bucketed.
        let take = if bucketed { par } else { superstep & 1 };
        let wake_into = if bucketed { par } else { take ^ 1 };
        let (bucket, end) = {
            let cur = run.buckets.cursor.lock();
            (cur.bucket, (cur.bucket + 1) as f64 * cur.delta)
        };
        let checkpoint_now = run.checkpoint_due(superstep);
        // The worker leader's commit of the last superstep is in before this
        // one's PRS feeds the worker's tracer.
        run.barrier.local_wait(w);

        let (mut rounds, mut frontier_len, mut cmp_ns) = (0u64, 0usize, 0u64);
        let (mut pull, mut budget_exhausted) = (false, false);
        // The worker leader's reduction of the superstep's chunk partials.
        let mut reduced = ChunkPartial::default();
        loop {
            // A program that keeps re-activating must not spin a bucket's
            // drain forever.
            if rounds_run >= run.config.max_supersteps {
                budget_exhausted = true;
                break;
            }
            let round_span = flight.map(|r| r.now_ns());
            let epoch = run.start_superstep + rounds_run;

            // ---- PRS: receivers update the view lock-free. ----
            let apply_start = Instant::now();
            let prs_span = flight.map(|r| r.now_ns());
            if t < run.receivers {
                let share = (t, run.receivers);
                if bucketed {
                    wk.apply_inbound(epoch, share, wk.park(par));
                } else if pull_inbound {
                    wk.apply_inbound(epoch, share, pull_fresh());
                } else {
                    wk.apply_inbound(epoch, share, push_into(take));
                }
            }
            // Only the drain/apply above is parse work; the waits (and the
            // optional checkpoint they bracket) are coordination time and
            // belong to SYN.
            times.add(Phase::Parse, apply_start.elapsed());
            end_span(flight, prs_span, SpanKind::Parse, [step, 0, 0]);
            let mut wait_start = Instant::now();
            run.barrier.local_wait(w);
            if pull_inbound {
                // The second fill: the replica and direct bits are in, on top
                // of the master bits the first fill already used. Its time is
                // the marking PRS did not do; its wait is paid by pulled
                // supersteps only.
                times.add(Phase::Sync, wait_start.elapsed());
                let fill_start = Instant::now();
                ws.frontier.fill_from(take, wp, &ws.fresh, fill_share);
                times.add(Phase::Parse, fill_start.elapsed());
                wait_start = Instant::now();
                run.barrier.local_wait(w);
            }
            // Value-only checkpoint (no replicas, no messages — §3.6) on the
            // superstep's first post-apply cut: every delivered activation is
            // in the flags (a bucketed superstep's first PRS drains nothing),
            // and every replica equals its master's publication, so a restore
            // can rebuild replicas from masters alone. Parked priorities are
            // not stored: a resume's marks are due at once, costing at most
            // one extra (idempotent) relaxation per parked master.
            if checkpoint_now && rounds == 0 {
                if t == 0 {
                    wk.capture_checkpoint(superstep, agg_in, take);
                }
                run.barrier.local_wait(w);
                // Epoch boundary: every thread of every worker reaches this
                // exact point and returns together — transports are drained,
                // the frontier still holds superstep `s`'s activations (which
                // the checkpoint captured), and `supersteps_done` already
                // reads `s`. The migration driver resumes from the checkpoint.
                if run.config.stop_at_checkpoint {
                    return;
                }
            }
            times.add(Phase::Sync, wait_start.elapsed());

            // ---- Selection (worker leader). ----
            // The due masters, ascending — compute walks the CSR in index
            // order and chunk contents (hence float reduction groups) are
            // independent of activation interleaving. The snapshot clears
            // what it takes.
            if t == 0 {
                let snap_start = Instant::now();
                if pull_inbound {
                    // Both fills have read the bits; the next writer is this
                    // superstep's CMP, behind the wait below.
                    ws.fresh.clear();
                }
                // A new write epoch on both slot arrays: every PRS write is
                // behind the wait above, and every CMP write behind the one
                // below.
                ws.values.begin_epoch();
                ws.view.begin_epoch();
                let mut flat = ws.flat.write();
                let (prio, work_mass) = (&ws.prio[..], &wp.work_mass[..]);
                let mut mass = 0u64;
                if bucketed {
                    // The due test runs on every parked master: the due ones'
                    // mass is a pass of its own.
                    let parked = |li: usize| f64::from_bits(prio[li].load(Ordering::Relaxed));
                    ws.frontier
                        .snapshot(take, &mut flat, |li| parked(li).total_cmp(&end).is_lt());
                    if chunks > 1 {
                        mass = flat.iter().map(|&li| work_mass[li as usize] as u64).sum();
                    }
                } else {
                    ws.frontier.snapshot(take, &mut flat, |li| {
                        mass += work_mass[li] as u64;
                        true
                    });
                }
                frontier_len = flat.len();
                build_mass_chunks(&flat, &mut ws.ends.write(), &wp.work_mass, mass, chunks);
                ws.cursor.store(0, Ordering::Relaxed);
                if bucketed {
                    // Count the selection into the superstep's occupancy, and
                    // unpark it where threads park at once (`Worker::park`).
                    for &li in flat.iter() {
                        if run.threads > 1 {
                            prio[li as usize].store(UNPARKED, Ordering::Relaxed);
                        }
                        ws.frontier.mark_alone(par ^ 1, li as usize);
                    }
                    run.buckets.selected[epoch & 1][w].store(flat.len(), Ordering::Relaxed);
                } else {
                    let pull = run.force_pull.unwrap_or_else(|| pull_wins(&flat, wp));
                    ws.pull.store(pull, Ordering::Relaxed);
                    if let Some(obs) = &run.obs {
                        obs.record_activation(pull);
                    }
                }
                times.add(Phase::Parse, snap_start.elapsed());
            }
            let wait_start = Instant::now();
            let selected: usize = if bucketed {
                run.barrier.round_wait(w);
                let counts = &run.buckets.selected[epoch & 1];
                counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
            } else {
                run.barrier.local_wait(w);
                0
            };
            times.add(Phase::Sync, wait_start.elapsed());
            // Nobody selected anything, so nobody sends: the transport stays
            // as every thread reads it here.
            if bucketed && selected == 0 && run.transport.all_empty() {
                break;
            }
            rounds += 1;
            rounds_run += 1;
            // The program only ever sees the run's very first round as
            // superstep 0, so kick-off branches (`ctx.superstep() == 0`) fire
            // exactly once even when the first bucket needs several rounds —
            // or when a self-loop re-selects an initially active vertex.
            let round_superstep = superstep.max(usize::from(rounds_run > 1));

            // ---- CMP: claim chunks against the immutable view. ----
            pull = ws.pull.load(Ordering::Relaxed);
            let compute_start = Instant::now();
            let cmp_span = flight.map(|r| r.now_ns());
            {
                let flat = ws.flat.read();
                let ends = ws.ends.read();
                // Claim whatever chunk the cursor hands out next.
                let cursor = &ws.cursor;
                let claim = || Some(cursor.fetch_add(1, Ordering::Relaxed)).filter(|&c| c < chunks);
                while let Some(c) = claim() {
                    let lo = if c == 0 { 0 } else { ends[c - 1] as usize };
                    let hi = ends[c] as usize;
                    // Each claim is an event worth its own timeline row.
                    let chunk_span = flight.map(|r| r.now_ns());
                    acc.part = ChunkPartial::default();
                    let (chunk, s) = (&flat[lo..hi], round_superstep);
                    if bucketed {
                        wk.compute_chunk(chunk, s, agg_in, &mut acc, &mut out, wk.park(par));
                    } else if pull {
                        // The writer drops with the call, which puts the
                        // chunk's last fresh bits in.
                        wk.compute_chunk(chunk, s, agg_in, &mut acc, &mut out, pull_fresh());
                    } else {
                        let wake = push_into(wake_into);
                        wk.compute_chunk(chunk, s, agg_in, &mut acc, &mut out, wake);
                    }
                    // Publish the chunk's float partial into its slot; the
                    // worker leader reduces slots in chunk-index order, so
                    // claim order never affects the float results.
                    *ws.partials[c].lock() = acc.part;
                    let args = [step, c as u64, (hi - lo) as u64];
                    end_span(flight, chunk_span, SpanKind::Chunk, args);
                }
            }
            let cmp_elapsed = compute_start.elapsed();
            cmp_ns += cmp_elapsed.as_nanos() as u64;
            times.add(Phase::Compute, cmp_elapsed);
            end_span(flight, cmp_span, SpanKind::Compute, [step, 0, 0]);
            // Deposit this thread's outboxes into the worker's `deposits`
            // slots (swaps — the slot left empty by the last flush trades
            // places with the filled local outbox, so capacities recycle).
            let deposit_start = Instant::now();
            for (dest, ob) in out.iter_mut().enumerate() {
                if !ob.is_empty() {
                    std::mem::swap(&mut *ws.deposits[dest][t].lock(), ob);
                }
            }
            times.add(Phase::Send, deposit_start.elapsed());
            let wait_start = Instant::now();
            run.barrier.local_wait(w);
            times.add(Phase::Sync, wait_start.elapsed());
            if t == 0 {
                // Worker-leader reduction: fold the chunk partials in
                // chunk-index order — a fixed order regardless of which
                // thread computed which chunk — so floating-point aggregation
                // stays bitwise deterministic.
                for slot in &ws.partials[..chunks] {
                    reduced.merge(&slot.lock());
                }
            }
            if pull {
                // The first fill: only master bits are fresh, so the parity
                // gets exactly the local activations CMP's marks would have
                // made, and the leader's count below is the count it has
                // always been. Its time is the marking CMP did not do.
                let fill_start = Instant::now();
                ws.frontier.fill_from(wake_into, wp, &ws.fresh, fill_share);
                times.add(Phase::Compute, fill_start.elapsed());
            }

            // ---- SND: publish locally, then one batch per destination. ----
            let send_start = Instant::now();
            let snd_span = flight.map(|r| r.now_ns());
            wk.publish_local(&mut acc.updated);
            // Destination `dest` is flushed by thread `dest % threads`,
            // merging every compute thread's deposit in thread order (see
            // `deposits`; the adaptive wire format canonicalizes each batch
            // by slot id, so the *bytes* are order-independent too) into
            // `flush`, not `out` — the send gives the buffer away, and the
            // deposit slots and local outboxes keep the capacities they trade.
            for dest in (t..num_workers).step_by(run.threads) {
                for slot in &ws.deposits[dest] {
                    flush[dest].append(&mut slot.lock());
                }
            }
            wk.send_outboxes(lane, epoch, &mut flush);
            times.add(Phase::Send, send_start.elapsed());
            end_span(flight, snd_span, SpanKind::Send, [step, 0, 0]);
            if !bucketed {
                break;
            }
            let wait_start = Instant::now();
            run.barrier.round_wait(w);
            times.add(Phase::Sync, wait_start.elapsed());
            let span_args = [bucket, rounds, selected as u64];
            end_span(flight, round_span, SpanKind::Round, span_args);
        }

        // ---- Epilogue: the worker's superstep, reduced for the leader. ----
        wk.trace_hot(t, &mut acc);
        if pull {
            // Every thread's share of the first fill, before the leader
            // counts the parity.
            let wait_start = Instant::now();
            run.barrier.local_wait(w);
            times.add(Phase::Sync, wait_start.elapsed());
        }
        ws.cmp_ns[t].store(cmp_ns, Ordering::Relaxed);
        if t == 0 {
            // Every local activation of the superstep is in.
            reduced.next_active = ws.frontier.len(wake_into);
            if bucketed {
                // The bucket advance's inputs. Draining the occupancy parity
                // counts it and clears it; it is the superstep's frontier.
                let mut occupied = ws.flat.write();
                ws.frontier.snapshot(par ^ 1, &mut occupied, |_| true);
                frontier_len = occupied.len();
                let parked = ws.frontier.marked(par);
                let min = parked.map(|li| f64::from_bits(ws.prio[li].load(Ordering::Relaxed)));
                *run.buckets.shares[w].lock() = (frontier_len as u64, min.min_by(f64::total_cmp));
            }
            *run.worker_partials[w].lock() = reduced;
            let mut cur = run.current.lock();
            cur.phase_times = cur.phase_times.merge(&times);
        }

        // ---- SYN: hierarchical barrier + leader bookkeeping. ----
        let sync_start = Instant::now();
        run.barrier.wait_traced(w, t, flight, step);
        if w == 0 && t == 0 && !run.close_superstep(superstep, budget_exhausted) && bucketed {
            run.advance_bucket(rounds);
        }
        run.barrier.wait_traced(w, t, flight, step);
        if t == 0 {
            let final_sync = sync_start.elapsed();
            run.current.lock().phase_times.add(Phase::Sync, final_sync);
            times.add(Phase::Sync, final_sync);
            let triple = bucketed.then_some((bucket, rounds.max(1), frontier_len as u64));
            wk.commit_superstep(superstep, frontier_len, &times, &reduced, triple);
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
/// equal *work mass* (the plan's per-vertex degree-derived cost estimate),
/// given `total`, the frontier's summed mass, which the snapshot that built
/// `flat` adds up on its way. Chunk `c` is `flat[ends[c-1]..ends[c]]`; the
/// cut points satisfy `cum·chunks ≥ c·total` (cross-multiplied to stay in
/// integers), and short frontiers simply leave trailing chunks empty. The
/// last chunk ends where the frontier does, so the walk stops at the last
/// cut before it.
fn build_mass_chunks(flat: &[u32], ends: &mut Vec<u32>, mass: &[u32], total: u64, chunks: usize) {
    ends.clear();
    let mut cum = 0u64;
    let mut next = 1usize;
    for (pos, &li) in flat.iter().enumerate() {
        if next == chunks {
            break;
        }
        cum += mass[li as usize] as u64;
        while next < chunks && cum * chunks as u64 >= next as u64 * total {
            ends.push(pos as u32 + 1);
            next += 1;
        }
    }
    ends.resize(chunks, flat.len() as u32);
}

// ---- Bucketed (delta-stepping) execution. ----
//
// "One priority bucket per barrier" instead of "one relaxation round per
// barrier" (what and why: `CyclopsConfig::bucket_width`). Vertices carry an
// activation priority (for SSSP, the tentative distance proposed by the
// activating publication), parked on the worker's frontier until a bucket of
// width Δ takes it. Correctness does not depend on the drain order: with
// non-negative weights, min-relaxation reaches the same fixpoint under any
// schedule; the priority is only a lower bound used to avoid relaxing
// vertices whose turn has not come.

/// Run-scoped state of a bucketed run: what a worker leader hands the other
/// workers in a fused round, and the global leader at the close.
struct Buckets {
    /// Per round parity, per worker: the size of the worker's selection in
    /// a fused round, written by its leader before the round's first wait
    /// and summed by every thread after it (`Relaxed`: the round wait in
    /// between orders them). Alternating parities keep one round's counts
    /// apart from the next round's writes.
    selected: [Vec<AtomicUsize>; 2],
    /// Per worker: the superstep's occupancy and smallest parked priority,
    /// written by its leader before the superstep's first wait and read by
    /// the global leader's bucket advance.
    shares: Vec<Mutex<(u64, Option<f64>)>>,
    /// The bucket being drained. The global leader advances it between a
    /// superstep's two waits; every thread reads it after them.
    cursor: Mutex<BucketCursor>,
}

/// Which bucket the next bucketed superstep drains, and the width history
/// [`retune_delta`] reads.
struct BucketCursor {
    /// Index of the bucket, in units of `delta`.
    bucket: u64,
    /// Live bucket width. Seeded from `config.bucket_width`; when
    /// `config.bucket_adapt` is set it is retuned at bucket advances.
    delta: f64,
    /// Running sum of per-superstep bucket occupancy (all workers).
    occ_sum: u64,
    /// Number of supersteps folded into `occ_sum`.
    occ_count: u64,
}

impl Buckets {
    fn new(num_workers: usize, width: f64) -> Self {
        let counts = || (0..num_workers).map(|_| AtomicUsize::new(0)).collect();
        Buckets {
            selected: [counts(), counts()],
            shares: (0..num_workers).map(|_| Mutex::new((0, None))).collect(),
            cursor: Mutex::new(BucketCursor {
                bucket: 0,
                delta: width,
                occ_sum: 0,
                occ_count: 0,
            }),
        }
    }
}

impl<P: CyclopsProgram> Run<'_, P> {
    /// The bucket advance, global leader only, after [`Run::close_superstep`]
    /// of a superstep that did not stop: feeds the occupancy the workers
    /// reported into the width controller and moves the cursor to the bucket
    /// that holds the smallest parked priority.
    fn advance_bucket(&self, rounds: u64) {
        let shares: Vec<_> = self.buckets.shares.iter().map(|s| *s.lock()).collect();
        let total_occ = shares.iter().map(|&(occupancy, _)| occupancy).sum();
        let min_parked = shares.iter().filter_map(|&(_, p)| p).min_by(f64::total_cmp);
        let mut cur = self.buckets.cursor.lock();
        // Counters, never clocks: the same run retunes identically on any
        // machine or thread count, keeping the trace stable.
        cur.occ_sum += total_occ;
        cur.occ_count += 1;
        let (occ_sum, occ_count) = (cur.occ_sum, cur.occ_count);
        let new_delta = if self.config.bucket_adapt {
            let delta0 = self.config.bucket_width;
            retune_delta(cur.delta, delta0, total_occ, rounds, occ_sum, occ_count)
        } else {
            cur.delta
        };
        // Parked priorities are all >= the drained bucket's end, so this
        // always advances.
        if let Some(p) = min_parked {
            let next = if p.is_finite() && p >= 0.0 {
                (p / new_delta) as u64
            } else {
                cur.bucket + 1
            };
            // Bucket indices are in units of the width, so the monotonic
            // guard only means something while the width stands. After a
            // retune the index containing the smallest parked priority is
            // taken as is; progress is still guaranteed — the next end key
            // strictly exceeds that priority, so every superstep selects at
            // least one vertex.
            cur.bucket = if new_delta == cur.delta {
                next.max(cur.bucket + 1)
            } else {
                next
            };
            cur.delta = new_delta;
        }
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
    use proptest::prelude::{any, prop_assert_eq, proptest, Strategy};

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

    /// The two-pass chunk cutter `build_mass_chunks` replaced: sums the
    /// frontier's mass itself, then cuts.
    fn two_pass_mass_chunks(flat: &[u32], mass: &[u32], chunks: usize) -> Vec<u32> {
        let mut ends = Vec::new();
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
        ends
    }

    proptest! {
        /// One pass cuts where two did, with the total summed by the
        /// snapshot: any masses (zeros and `u32::MAX` too), any frontier,
        /// any chunk count.
        #[test]
        fn one_pass_mass_chunks_cut_where_two_passes_did(
            mass in proptest::collection::vec(
                (0u32..4, any::<u32>()).prop_map(|(kind, m)| match kind {
                    0 => m % 8,
                    1 => m % 100_000,
                    2 => u32::MAX,
                    _ => m,
                }),
                1..300,
            ),
            picks in proptest::collection::vec(any::<u32>(), 0..300),
            chunks in 1usize..40,
        ) {
            let n = mass.len();
            let frontier = Frontier::new(n);
            for &p in &picks {
                frontier.mark(0, p as usize % n);
            }
            let (mut flat, mut total) = (Vec::new(), 0u64);
            frontier.snapshot(0, &mut flat, |li| {
                total += mass[li] as u64;
                true
            });
            let mut ends = vec![7];
            build_mass_chunks(&flat, &mut ends, &mass, total, chunks);
            prop_assert_eq!(ends, two_pass_mass_chunks(&flat, &mass, chunks));
        }
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

    #[test]
    fn per_hop_runs_pay_their_superstep_waits() {
        // A per-hop superstep pays its two superstep waits, `M·T − 1`
        // protocol messages each; the waits among a worker's threads
        // (opening, PRS, pulled fills, checkpoint, selection, CMP) never
        // count. SSSP pushes, PageRank pulls, and each runs with and without
        // checkpoints.
        let g = cyclops_graph::gen::road_lattice(12, 12, 0.9, 0.1, 3);
        for cluster in [ClusterSpec::flat(2, 2), ClusterSpec::mt(2, 3, 2)] {
            let p = HashPartitioner.partition(&g, cluster.num_workers());
            for checkpoint_every in [None, Some(3)] {
                let config = CyclopsConfig {
                    cluster,
                    max_supersteps: 30,
                    checkpoint_every,
                    ..Default::default()
                };
                let sssp = run_cyclops(&MinDist { source: 0 }, &g, &p, &config);
                let rank = run_cyclops(&Rank { epsilon: 1e-9 }, &g, &p, &config);
                for (supersteps, messages) in [
                    (sssp.supersteps, sssp.barrier_protocol_messages),
                    (rank.supersteps, rank.barrier_protocol_messages),
                ] {
                    let per_superstep = 2 * (cluster.total_threads() - 1);
                    assert_eq!(messages, supersteps * per_superstep, "{config:?}");
                }
            }
        }
    }

    #[test]
    fn bucketed_runs_pay_their_superstep_and_round_waits() {
        // A distributed settle pays two round waits per fused round and one
        // more for the round that finds the bucket drained, beside the two
        // superstep waits. Every wait covers every thread, so it counts
        // `M·T − 1` protocol messages: 3 on `flat(2, 2)`, 5 on `mt(2, 3, 2)`.
        let g = cyclops_graph::gen::road_lattice(12, 12, 0.9, 0.1, 3);
        for cluster in [ClusterSpec::flat(2, 2), ClusterSpec::mt(2, 3, 2)] {
            let p = HashPartitioner.partition(&g, cluster.num_workers());
            let mut sink = TraceSink::new("cyclops", &cluster);
            let r = run_cyclops_with_plan_traced(
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
            // Every superstep ran a round, so `fused` is its round count,
            // not the floor of one; none met the round budget.
            assert!(r.stats.iter().all(|s| s.active_vertices > 0));
            let rounds: u64 = (sink.take_records().iter())
                .filter(|rec| rec.worker == 0)
                .map(|rec| rec.fused)
                .sum();
            let supersteps = r.supersteps as u64;
            let waits = 2 * supersteps + 2 * rounds + supersteps;
            assert_eq!(
                r.barrier_protocol_messages as u64,
                waits * (cluster.total_threads() as u64 - 1),
                "{cluster:?}: {supersteps} supersteps, {rounds} rounds"
            );
        }
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

    /// Publishes its superstep index (`u32::MAX`, superstep −1, at INIT) and
    /// counts the supersteps in which every in-edge read saw the one before.
    struct Stamp;
    impl CyclopsProgram for Stamp {
        type Value = u32;
        type Message = u32;
        fn init(&self, _v: VertexId, _g: &Graph) -> u32 {
            0
        }
        fn init_message(&self, _v: VertexId, _g: &Graph, _value: &u32) -> Option<u32> {
            Some(u32::MAX)
        }
        fn compute(&self, ctx: &mut CyclopsContext<'_, u32, u32>) {
            let previous = (ctx.superstep() as u32).wrapping_sub(1);
            let seen = ctx.in_messages().filter(|&(&m, _)| m == previous).count();
            if seen == ctx.in_degree() {
                ctx.set_value(ctx.value() + 1);
            }
            ctx.activate_neighbors(ctx.superstep() as u32);
        }
    }

    #[test]
    fn every_gather_reads_the_previous_superstep() {
        // Every vertex reads itself, its two predecessors and the one five
        // back, so every vertex computes every superstep. Cut by `v % 2`,
        // `v - 2` is the same worker's previous master, computed just before
        // it, mostly in the same chunk; the other two are replicas. On one
        // worker of two threads they are masters of the same or the other
        // thread's chunks.
        let n = 64;
        let mut b = GraphBuilder::new(n);
        for v in 0..n as VertexId {
            for d in [0, 1, 2, 5] {
                b.add_edge(v, (v + d) % n as VertexId);
            }
        }
        let g = b.build();
        let supersteps = 6;
        for cluster in [ClusterSpec::flat(2, 1), ClusterSpec::mt(1, 2, 2)] {
            let p = HashPartitioner.partition(&g, cluster.num_workers());
            let plan = CyclopsPlan::build_parallel(&g, &p);
            let config = CyclopsConfig {
                cluster,
                max_supersteps: supersteps,
                ..Default::default()
            };
            for force_pull in [Some(false), Some(true)] {
                let r = run_with_activation(&Stamp, &g, &plan, &config, None, None, force_pull);
                let label = format!("{cluster:?}, force_pull {force_pull:?}");
                assert_eq!(r.supersteps, supersteps, "{label}");
                assert!(r.stats.iter().all(|s| s.active_vertices == n), "{label}");
                assert_eq!(r.values, vec![supersteps as u32; n], "{label}");
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
                frontier.snapshot(0, &mut Vec::new(), |_| true);
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
