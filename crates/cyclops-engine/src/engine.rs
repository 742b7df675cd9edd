//! The unified Cyclops / CyclopsMT superstep loop.
//!
//! One engine serves both systems: flat Cyclops is a [`ClusterSpec`] with
//! single-threaded workers (`M x W x 1`); CyclopsMT is one worker per
//! machine with `T` compute threads and `R` receiver threads
//! (`M x 1 x T / R`, §5). Because the partition has one part per *worker*,
//! replicas automatically exist at worker granularity for flat Cyclops and
//! at machine granularity for CyclopsMT — the replica/message reduction
//! §6.10 and Table 4 measure.
//!
//! Superstep structure (per worker, with `T` threads and `R ≤ T` receivers):
//!
//! 1. **apply** — receiver threads drain their share of the inbound lanes
//!    and update replica publications lock-free ([`DisjointSlots`]): each
//!    replica receives at most one message per superstep, the paper's §3.4
//!    invariant (debug builds actually verify it);
//! 2. **compute** — compute threads run the program on their chunk of the
//!    active masters, reading in-neighbor publications from the immutable
//!    view;
//! 3. **publish & send** — updated publications become visible locally and
//!    one sync+activation message per mirror goes out through private
//!    per-thread lanes;
//! 4. **barrier** — a hierarchical barrier (local then global) ends the
//!    superstep; the global leader evaluates convergence.

use crate::checkpoint::CyclopsCheckpoint;
use crate::frontier::ShardedFrontier;
use crate::plan::CyclopsPlan;
use crate::program::{CyclopsContext, CyclopsProgram};
use cyclops_graph::Graph;
use cyclops_net::metrics::CounterSnapshot;
use cyclops_net::metrics::PhaseHists;
use cyclops_net::trace::{digest_bytes, TraceSink};
use cyclops_net::{
    AggregateStats, BucketMode, ClusterSpec, Codec, DirectMessage, DisjointSlots,
    HierarchicalBarrier, InboxMode, Phase, PhaseTimes, ReplicaUpdate, SchedObs, SendReceipt,
    SuperstepStats, Transport, WireMode,
};
use cyclops_obs::mem::{Component, MemScope};
use cyclops_obs::{SpanKind, SpanRing};
use cyclops_partition::EdgeCutPartition;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How many work-mass chunks the dynamic scheduler cuts per compute thread.
/// More chunks → finer rebalancing but more claim/reduce overhead; 4 keeps
/// the straggler window at ~25 % of a thread's share.
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

/// Compute-phase scheduling policy (the CLI's `--sched` dial).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Sched {
    /// Each compute thread processes exactly its own frontier shard —
    /// no scan-and-skip, but degree skew can leave one thread the
    /// straggler. Kept as the ablation baseline.
    Static,
    /// The frontier is cut into [`CHUNKS_PER_THREAD`]`×T` spans of roughly
    /// equal *work mass* (in-edges + activation fan-out + mirrors,
    /// prefix-summed once at plan build) and threads claim spans through an
    /// atomic cursor, so a skewed span cannot serialize the superstep
    /// behind one thread. Per-chunk float partials are reduced in
    /// chunk-index order, keeping results bitwise deterministic regardless
    /// of claim order. The default.
    #[default]
    Dynamic,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct CyclopsConfig {
    /// Cluster topology; decides flat Cyclops vs CyclopsMT.
    pub cluster: ClusterSpec,
    /// Compute-phase scheduling policy.
    pub sched: Sched,
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
    /// Reuse per-lane encode buffers for cross-machine batches (default
    /// true). Off only in the ablation bench, which quantifies the
    /// allocation cost the pool removes (Table 2).
    pub pooled: bool,
    /// Sparse-superstep fast path threshold, as a fraction of a worker's
    /// local masters: when a worker's frontier falls below
    /// `sparse_cutoff × num_masters`, the superstep runs on a single
    /// compute thread with direct lane sends — skipping chunk claiming and
    /// the per-thread outbox fan-out whose fixed cost dominates sparse
    /// high-diameter workloads (SSSP on road networks). `0.0` disables the
    /// fast path. Results are identical either way; only the schedule
    /// changes.
    pub sparse_cutoff: f64,
    /// Priority-bucket width Δ of the bucketed (delta-stepping) scheduler.
    /// `0.0` (the default) disables bucketing: the engine runs the classic
    /// one-relaxation-round-per-barrier loop. With Δ > 0, each superstep
    /// drains one priority bucket `[bΔ, (b+1)Δ)` to a fixpoint — fusing as
    /// many relaxation rounds as the bucket needs behind a *single* pair of
    /// global barrier waits — before advancing to the next nonempty bucket.
    /// On high-diameter graphs this collapses the paper's Figure 9 SSSP
    /// pathology (~one barrier per hop) to ~one barrier per bucket. Only
    /// useful for programs with a [`CyclopsProgram::priority`]; without one,
    /// every activation is immediately due and bucketing degrades to plain
    /// fused execution (still correct, still fewer barriers).
    pub bucket_width: f64,
    /// Bucket drain discipline: deterministic (trace-diff-checkable) or
    /// fast same-round chaining. Ignored while `bucket_width == 0.0`.
    pub bucket_mode: BucketMode,
    /// Degree threshold of hybrid replication: a boundary vertex whose
    /// combined (in + out) degree is below the threshold gets **no**
    /// replica — its cross-worker in-edges read a per-worker direct-message
    /// table fed by per-edge `DirectBatch` sends instead of the one-sync-
    /// per-mirror replica path. `0` (the default) is full replication,
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
    /// same proxy the dynamic scheduler balances). `None` (the default)
    /// records nothing. Counters, not clocks — the ledger's totals are
    /// bitwise identical across thread counts.
    pub load_ledger: Option<std::sync::Arc<cyclops_partition::LoadLedger>>,
    /// Auto-retune the delta-stepping bucket width Δ from the live bucket
    /// occupancy (`--bucket-width auto`): a bucket that drains far more
    /// mass than the running average over many fused rounds halves Δ, a
    /// near-empty one doubles it, clamped to `[Δ₀/16, 16·Δ₀]`. Decisions
    /// read only deterministic counters, so `det`-mode traces stay stable
    /// across thread counts; distances are unaffected at any width.
    pub bucket_adapt: bool,
}

impl Default for CyclopsConfig {
    fn default() -> Self {
        CyclopsConfig {
            cluster: ClusterSpec::flat(2, 2),
            sched: Sched::Dynamic,
            max_supersteps: 10_000,
            convergence: Convergence::ActiveVertices,
            checkpoint_every: None,
            network: cyclops_net::NetworkModel::ideal(),
            pooled: true,
            sparse_cutoff: 0.015,
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
    /// Whole-run transport counters — replica-update and direct-message
    /// transports merged (totals add, queue peaks take the max).
    pub counters: CounterSnapshot,
    /// Direct messages sent over the run (hybrid replication's cold-vertex
    /// path; 0 under full replication).
    pub direct_messages: usize,
    /// Cross-machine wire bytes of those direct-message batches.
    pub direct_bytes: usize,
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

/// Float accumulators of one compute chunk (or, reduced, of one worker's
/// superstep). Integer counters stay in racing atomics — addition order
/// cannot change them — but float sums are reduced in a fixed order so the
/// dynamic scheduler's claim order never shows in the results.
#[derive(Clone, Copy, Default)]
struct ChunkPartial {
    agg: AggregateStats,
    err_sum: f64,
    err_count: usize,
}

impl ChunkPartial {
    fn merge(&mut self, other: &ChunkPartial) {
        self.agg.merge(&other.agg);
        self.err_sum += other.err_sum;
        self.err_count += other.err_count;
    }
}

/// Per-worker state shared by that worker's threads.
struct WorkerShared<V, M> {
    values: DisjointSlots<V>,
    /// Publications visible this superstep (the immutable view).
    msg_cur: DisjointSlots<Option<M>>,
    /// Publications produced this superstep, made visible at the copy phase.
    msg_next: DisjointSlots<Option<M>>,
    /// Replica publications (updated by receiver threads).
    rep_msg: DisjointSlots<Option<M>>,
    /// Direct-message slots (hybrid replication): the publications of cold
    /// boundary in-neighbors, updated by receiver threads under the same
    /// at-most-one-message-per-slot-per-superstep discipline as `rep_msg`
    /// (one source master per slot, one batch per sender per superstep).
    /// Empty under full replication.
    direct_msg: DisjointSlots<Option<M>>,
    /// Owner-sharded double-buffered activation frontier: activations route
    /// to the owning thread's shard list, so snapshotting is O(frontier)
    /// with no scan-and-skip and no single contended list.
    frontier: ShardedFrontier,
    /// This superstep's snapshot: the globally sorted flat frontier...
    flat: parking_lot::RwLock<Vec<u32>>,
    /// ...and its chunk end offsets — shard ends under [`Sched::Static`],
    /// equal-work-mass ends under [`Sched::Dynamic`]. Chunk `c` is
    /// `flat[ends[c-1]..ends[c]]`.
    ends: parking_lot::RwLock<Vec<u32>>,
    /// Next unclaimed chunk index (dynamic scheduling).
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
    /// deterministic under dynamic chunk claiming.
    #[allow(clippy::type_complexity)]
    outboxes: Vec<Vec<Mutex<Vec<ReplicaUpdate<M>>>>>,
    /// Direct-message analogue of `outboxes`, same `[dest][thread]` layout
    /// and one-batch-per-destination flush discipline. Deposits stay empty
    /// under full replication (no master has a `direct_out` list).
    #[allow(clippy::type_complexity)]
    direct_outboxes: Vec<Vec<Mutex<Vec<DirectMessage<M>>>>>,
    /// Whether this superstep runs on the sparse fast path (decided by the
    /// worker leader at frontier snapshot, read by every thread after the
    /// post-snapshot barrier).
    fast_path: AtomicBool,
    /// Per-master converged flags (Proportion mode).
    converged: Vec<AtomicBool>,
    /// Intra-worker phase barrier (T participants).
    local: Barrier,
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
    let plan =
        CyclopsPlan::build_parallel_with_threshold(graph, partition, config.replicate_threshold);
    run_cyclops_with_plan(program, graph, &plan, config, None)
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
    let spec = config.cluster;
    let num_workers = spec.num_workers();
    let threads = spec.threads_per_worker;
    let receivers = spec.receivers_per_worker.min(threads);
    assert_eq!(
        plan.workers.len(),
        num_workers,
        "plan has {} workers but the cluster has {}",
        plan.workers.len(),
        num_workers
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
    for wp in &plan.workers {
        let n = wp.num_masters();
        let mut values: Vec<P::Value> = Vec::with_capacity(n);
        let mut msgs: Vec<Option<P::Message>> = Vec::with_capacity(n);
        let frontier = {
            let _mem = MemScope::enter(Component::Frontier);
            ShardedFrontier::new(n, threads)
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
        shared.push(WorkerShared {
            values: DisjointSlots::new(values),
            msg_cur: DisjointSlots::new(msgs.clone()),
            msg_next: DisjointSlots::new(msgs),
            rep_msg: DisjointSlots::new(Vec::new()), // filled below
            direct_msg: DisjointSlots::new(Vec::new()), // filled below
            frontier,
            flat: parking_lot::RwLock::new(Vec::new()),
            ends: parking_lot::RwLock::new(Vec::new()),
            cursor: AtomicUsize::new(0),
            partials: (0..threads * CHUNKS_PER_THREAD)
                .map(|_| Mutex::new(ChunkPartial::default()))
                .collect(),
            cmp_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            outboxes: {
                let _mem = MemScope::enter(Component::SendPool);
                (0..num_workers)
                    .map(|_| (0..threads).map(|_| Mutex::new(Vec::new())).collect())
                    .collect()
            },
            direct_outboxes: {
                let _mem = MemScope::enter(Component::SendPool);
                (0..num_workers)
                    .map(|_| (0..threads).map(|_| Mutex::new(Vec::new())).collect())
                    .collect()
            },
            fast_path: AtomicBool::new(false),
            converged: (0..n).map(|_| AtomicBool::new(false)).collect(),
            local: Barrier::new(threads),
        });
    }
    drop(restored);
    // Seed replica publications from their masters — the initial one-way
    // sync of the ingress (and of checkpoint recovery).
    for w in 0..num_workers {
        let reps: Vec<Option<P::Message>> = {
            let _mem = MemScope::enter(Component::Replicas);
            plan.workers[w]
                .replicas
                .iter()
                .map(|&u| {
                    let ow = plan.owner[u as usize] as usize;
                    let li = plan.local_of[u as usize] as usize;
                    shared[ow].msg_cur.read(li).clone()
                })
                .collect()
        };
        shared[w].rep_msg = DisjointSlots::new(reps);
        // Direct slots seed the same way: each slot starts at its source
        // master's current publication, so superstep 0 (and a checkpoint
        // resume) reads the identical immutable view the replica path
        // would have provided.
        let dirs: Vec<Option<P::Message>> = {
            let _mem = MemScope::enter(Component::DirectSlots);
            plan.workers[w]
                .direct_source
                .iter()
                .map(|&u| {
                    let ow = plan.owner[u as usize] as usize;
                    let li = plan.local_of[u as usize] as usize;
                    shared[ow].msg_cur.read(li).clone()
                })
                .collect()
        };
        shared[w].direct_msg = DisjointSlots::new(dirs);
    }
    let mut ingress = plan.ingress;
    ingress.init = init_start.elapsed();

    let transport: Transport<ReplicaUpdate<P::Message>> =
        Transport::with_pooling(spec, InboxMode::Sharded, config.network, config.pooled);
    // Second transport for hybrid replication's direct-message batches.
    // Same lanes, same pooled-send contract, its own `DirectBatch` framing;
    // completely idle (and allocation-free past construction) when the plan
    // has no direct slots.
    let direct_transport: Transport<DirectMessage<P::Message>> =
        Transport::with_pooling(spec, InboxMode::Sharded, config.network, config.pooled);
    let barrier = HierarchicalBarrier::new(num_workers, threads);

    // ---- Shared coordination state. ----
    let stop = AtomicBool::new(false);
    let computed_total = AtomicUsize::new(0);
    let next_active_total = AtomicUsize::new(0);
    let converged_delta = AtomicIsize::new(0);
    let converged_total = AtomicIsize::new(0);
    // One float-partial slot per worker, overwritten each superstep by that
    // worker's leader (chunk-ordered reduction) and read in worker order by
    // the global leader — a fully deterministic two-level reduction tree.
    let worker_partials: Vec<Mutex<ChunkPartial>> = (0..num_workers)
        .map(|_| Mutex::new(ChunkPartial::default()))
        .collect();
    let prev_aggregate: Mutex<Option<AggregateStats>> =
        Mutex::new(resume.and_then(|cp| cp.aggregate));
    let history: Mutex<Vec<SuperstepStats>> = Mutex::new(Vec::new());
    let current: Mutex<SuperstepStats> = Mutex::new(SuperstepStats::default());
    let checkpoints: Mutex<Vec<CyclopsCheckpoint<P::Value, P::Message>>> = Mutex::new(Vec::new());
    let last_counters = Mutex::new(CounterSnapshot::default());
    let supersteps_done = AtomicUsize::new(start_superstep);
    let total_vertices = graph.num_vertices();

    let phase_hists = cyclops_net::metrics::PhaseHists::resolve("cyclops");
    let sched_obs = SchedObs::resolve("cyclops");

    let loop_start = Instant::now();
    // With the cap at or below the resume point there is no superstep left
    // to run (max_supersteps is a global cap, not a budget from the resume).
    let budget_left = start_superstep < config.max_supersteps;
    if budget_left {
        std::thread::scope(|scope| {
            for w in 0..num_workers {
                for t in 0..threads {
                    let shared = &shared;
                    let plan_ref = plan;
                    let transport = &transport;
                    let direct_transport = &direct_transport;
                    let barrier = &barrier;
                    let stop = &stop;
                    let computed_total = &computed_total;
                    let next_active_total = &next_active_total;
                    let converged_delta = &converged_delta;
                    let converged_total = &converged_total;
                    let worker_partials = &worker_partials;
                    let prev_aggregate = &prev_aggregate;
                    let history = &history;
                    let current = &current;
                    let checkpoints = &checkpoints;
                    let last_counters = &last_counters;
                    let supersteps_done = &supersteps_done;
                    let phase_hists = phase_hists.as_ref();
                    let sched_obs = sched_obs.as_ref();
                    scope.spawn(move || {
                        thread_loop(ThreadEnv {
                            w,
                            t,
                            trace,
                            phase_hists,
                            sched_obs,
                            threads,
                            receivers,
                            program,
                            graph,
                            plan: plan_ref,
                            config,
                            shared,
                            transport,
                            direct_transport,
                            barrier,
                            stop,
                            computed_total,
                            next_active_total,
                            converged_delta,
                            converged_total,
                            worker_partials,
                            prev_aggregate,
                            history,
                            current,
                            checkpoints,
                            last_counters,
                            supersteps_done,
                            total_vertices,
                            start_superstep,
                        });
                    });
                }
            }
        });
    }
    let elapsed = loop_start.elapsed();

    // ---- Assemble global outputs. ----
    let mut values: Vec<Option<P::Value>> = vec![None; total_vertices];
    let mut publications: Vec<Option<P::Message>> = vec![None; total_vertices];
    for (w, ws) in shared.into_iter().enumerate() {
        let vals = ws.values.into_inner();
        let msgs = ws.msg_cur.into_inner();
        for (i, &v) in plan.workers[w].masters.iter().enumerate() {
            values[v as usize] = Some(vals[i].clone());
            publications[v as usize] = msgs[i].clone();
        }
    }
    let direct_snap = direct_transport.counters().snapshot();
    CyclopsResult {
        values: values.into_iter().map(Option::unwrap).collect(),
        publications,
        supersteps: supersteps_done.load(Ordering::Acquire),
        stats: history.into_inner(),
        counters: transport.counters().snapshot().merge(&direct_snap),
        direct_messages: direct_snap.messages,
        direct_bytes: direct_snap.bytes,
        elapsed,
        ingress,
        replication_factor: plan.replication_factor(graph),
        checkpoints: checkpoints.into_inner(),
        barrier_protocol_messages: barrier.protocol_messages(),
    }
}

/// Everything one engine thread needs; bundling keeps the spawn readable.
struct ThreadEnv<'a, P: CyclopsProgram> {
    w: usize,
    t: usize,
    trace: Option<&'a TraceSink>,
    phase_hists: Option<&'a PhaseHists>,
    sched_obs: Option<&'a SchedObs>,
    threads: usize,
    receivers: usize,
    program: &'a P,
    graph: &'a Graph,
    plan: &'a CyclopsPlan,
    config: &'a CyclopsConfig,
    shared: &'a [WorkerShared<P::Value, P::Message>],
    transport: &'a Transport<ReplicaUpdate<P::Message>>,
    direct_transport: &'a Transport<DirectMessage<P::Message>>,
    barrier: &'a HierarchicalBarrier,
    stop: &'a AtomicBool,
    computed_total: &'a AtomicUsize,
    next_active_total: &'a AtomicUsize,
    converged_delta: &'a AtomicIsize,
    converged_total: &'a AtomicIsize,
    worker_partials: &'a [Mutex<ChunkPartial>],
    prev_aggregate: &'a Mutex<Option<AggregateStats>>,
    history: &'a Mutex<Vec<SuperstepStats>>,
    current: &'a Mutex<SuperstepStats>,
    checkpoints: &'a Mutex<Vec<CyclopsCheckpoint<P::Value, P::Message>>>,
    last_counters: &'a Mutex<CounterSnapshot>,
    supersteps_done: &'a AtomicUsize,
    total_vertices: usize,
    start_superstep: usize,
}

fn thread_loop<P: CyclopsProgram>(env: ThreadEnv<'_, P>) {
    if env.config.bucket_width > 0.0 {
        return bucketed_thread_loop(env);
    }
    let ws = &env.shared[env.w];
    let wp = &env.plan.workers[env.w];
    let lane = env.w * env.threads + env.t;
    let num_workers = env.plan.workers.len();
    let sched = env.config.sched;
    // Number of compute chunks per superstep: the thread shards themselves
    // (static) or finer equal-work-mass spans claimed via the cursor
    // (dynamic). Fixed per run, so every partial slot in `0..chunks` is
    // written every superstep — no stale-slot hazard.
    let chunks = match sched {
        Sched::Static => env.threads,
        Sched::Dynamic => env.threads * CHUNKS_PER_THREAD,
    };

    let mut superstep = env.start_superstep;
    let mut outboxes: Vec<Vec<ReplicaUpdate<P::Message>>> =
        (0..num_workers).map(|_| Vec::new()).collect();
    let mut direct_outboxes: Vec<Vec<DirectMessage<P::Message>>> =
        (0..num_workers).map(|_| Vec::new()).collect();
    // Whether this worker can ever produce or receive direct messages —
    // lets a full-replication run skip the whole second publication path.
    let hybrid = env.plan.workers.iter().any(|p| p.num_direct_slots() > 0);
    let mut updated: Vec<u32> = Vec::new();
    // Scratch buffer for values-mode publication digests, reused across
    // publications and supersteps (this used to be a fresh `BytesMut` per
    // message — the allocation Table 2 flags).
    let mut digest_buf = bytes::BytesMut::new();
    let tracer = env.trace.map(|s| s.worker(env.w));
    // Per-thread flight-recorder ring, resolved once; with no recorder
    // installed (the default) every span site below is one `Option` check,
    // the same discipline as the tracer and the phase histograms.
    let flight = cyclops_obs::flight().map(|fr| fr.ring(env.w as u32, env.t as u32));
    // Tag this thread's allocations with its worker slot for the tracking
    // allocator (two thread-local writes; the allocator itself is a single
    // relaxed load when disarmed).
    let _mem_tag = cyclops_obs::mem::MemScope::worker(env.w);
    let capture_values = env.trace.map(|s| s.captures_values()).unwrap_or(false);
    // Hot-vertex capture, resolved once: a per-thread Space-Saving sketch of
    // per-vertex work mass, folded into the tracer each superstep. Disabled
    // (`hot_k == 0`) the compute loop pays one Option check per vertex.
    let hot_k = env.trace.map(|s| s.hot_k()).unwrap_or(0);
    let mut hot_local = (hot_k > 0).then(|| cyclops_net::trace::SpaceSaving::new(hot_k));

    loop {
        let mut times = PhaseTimes::default();
        let mut frontier_len = 0usize;
        let cur_parity = superstep & 1;
        let next_parity = (superstep + 1) & 1;
        let agg_in = *env.prev_aggregate.lock();

        // ---- Superstep prologue (worker leader). ----
        if env.t == 0 {
            ws.values.begin_epoch();
            ws.msg_cur.begin_epoch();
            ws.msg_next.begin_epoch();
            ws.rep_msg.begin_epoch();
            if hybrid {
                ws.direct_msg.begin_epoch();
            }
        }
        let checkpoint_now = match env.config.checkpoint_every {
            Some(every) => {
                every > 0
                    && superstep > env.start_superstep
                    && (superstep - env.start_superstep).is_multiple_of(every)
            }
            None => false,
        };
        ws.local.wait();

        // ---- Apply phase (PRS): receivers update replicas lock-free. ----
        let apply_start = Instant::now();
        let prs_span = flight.as_ref().map(|r| r.now_ns());
        if env.t < env.receivers {
            let mut drained = 0u64;
            for (_, batch) in
                env.transport
                    .drain_lanes_partitioned(env.w, superstep, env.t, env.receivers)
            {
                drained += batch.len() as u64;
                for upd in batch {
                    // SAFETY: each replica receives at most one message per
                    // superstep (one master, one sync), and lanes touching
                    // the same replica are handled by one receiver.
                    unsafe { ws.rep_msg.write(upd.replica as usize, Some(upd.payload)) };
                    if upd.activate {
                        for &lo in wp.rep_out(upd.replica as usize) {
                            ws.frontier.mark(cur_parity, lo as usize);
                        }
                    }
                }
            }
            if hybrid {
                for (_, batch) in env.direct_transport.drain_lanes_partitioned(
                    env.w,
                    superstep,
                    env.t,
                    env.receivers,
                ) {
                    drained += batch.len() as u64;
                    for dm in batch {
                        // SAFETY: each direct slot belongs to exactly one
                        // remote master (one slot per cross edge), masters
                        // publish at most once per superstep, and lanes
                        // touching the same slot are handled by one receiver.
                        unsafe { ws.direct_msg.write(dm.slot as usize, Some(dm.payload)) };
                        if dm.activate {
                            ws.frontier
                                .mark(cur_parity, wp.direct_target[dm.slot as usize] as usize);
                        }
                    }
                }
            }
            if let Some(tr) = tracer {
                tr.add_drained(drained);
            }
        }
        // Only the drain/apply loop above is parse work; the barrier waits
        // (and the optional checkpoint they bracket) are coordination time
        // and belong to SYN — charging them to PRS used to inflate the parse
        // column by a full barrier interval per superstep.
        times.add(Phase::Parse, apply_start.elapsed());
        if let (Some(r), Some(start)) = (&flight, prs_span) {
            r.record(SpanKind::Parse, start, superstep as u64, 0, 0);
        }
        let wait_start = Instant::now();
        ws.local.wait();
        // Value-only checkpoint (no replicas, no messages — §3.6), taken on
        // the post-apply consistent cut: remote activations delivered this
        // superstep are reflected in the activation flags, and every replica
        // equals its master's publication, so a restore can rebuild replicas
        // from masters alone.
        if checkpoint_now {
            if env.t == 0 {
                capture_checkpoint(
                    env.checkpoints,
                    wp,
                    ws,
                    superstep,
                    env.config.checkpoint_every,
                    |li| ws.frontier.is_marked(cur_parity, li),
                    agg_in,
                );
            }
            ws.local.wait();
            // Epoch boundary: `checkpoint_now` is a pure function of the
            // superstep index, so every thread of every worker reaches this
            // exact point and returns together — transports are drained,
            // the frontier still holds superstep `s`'s activations (which
            // the checkpoint captured), and `supersteps_done` already reads
            // `s`. The migration driver resumes from the checkpoint.
            if env.config.stop_at_checkpoint {
                return;
            }
        }
        times.add(Phase::Sync, wait_start.elapsed());
        // Snapshot the frontier: everything activated for this superstep by
        // last superstep's local activations plus this superstep's replica
        // messages. The shard lists drain in shard order, each sorted, so
        // `flat` is globally sorted — compute walks the CSR in index order
        // and chunk contents (hence float reduction groups) are independent
        // of activation interleaving. O(frontier log(frontier/T)), no
        // scan-and-skip.
        if env.t == 0 {
            let snap_start = Instant::now();
            let mut flat = ws.flat.write();
            let mut ends = ws.ends.write();
            ws.frontier.drain_sorted(cur_parity, &mut flat, &mut ends);
            frontier_len = flat.len();
            if sched == Sched::Dynamic {
                // Replace the shard ends with equal-work-mass chunk ends.
                build_mass_chunks(&flat, &mut ends, &wp.work_mass, chunks);
            }
            ws.cursor.store(0, Ordering::Relaxed);
            // Sparse fast path: below the cutoff the whole frontier runs on
            // this thread, walking the same chunk boundaries in chunk order
            // (identical float-reduction grouping), while the other threads
            // sit out the claim loop and the outbox fan-out is bypassed.
            let fast = env.config.sparse_cutoff > 0.0
                && (frontier_len as f64) < env.config.sparse_cutoff * wp.num_masters() as f64;
            ws.fast_path.store(fast, Ordering::Relaxed);
            times.add(Phase::Parse, snap_start.elapsed());
        }
        let wait_start = Instant::now();
        ws.local.wait();
        times.add(Phase::Sync, wait_start.elapsed());

        // ---- Compute phase (CMP). ----
        let fast = ws.fast_path.load(Ordering::Relaxed);
        let compute_start = Instant::now();
        let cmp_span = flight.as_ref().map(|r| r.now_ns());
        let mut computed = 0usize;
        let mut conv_delta = 0isize;
        updated.clear();
        {
            let flat = ws.flat.read();
            let ends = ws.ends.read();
            let mut static_done = false;
            let mut fast_next = 0usize;
            loop {
                // Claim the next chunk: statically this thread's own shard,
                // dynamically whatever the cursor hands out — or, on the
                // fast path, every chunk in index order on the leader alone
                // (same chunk grouping, so the chunk-ordered float
                // reduction is bitwise identical to the parallel schedule).
                let c = if fast {
                    if env.t != 0 || fast_next >= chunks {
                        break;
                    }
                    fast_next += 1;
                    fast_next - 1
                } else {
                    match sched {
                        Sched::Static => {
                            if static_done {
                                break;
                            }
                            static_done = true;
                            env.t
                        }
                        Sched::Dynamic => {
                            let c = ws.cursor.fetch_add(1, Ordering::Relaxed);
                            if c >= chunks {
                                break;
                            }
                            c
                        }
                    }
                };
                let lo = if c == 0 { 0 } else { ends[c - 1] as usize };
                let hi = ends[c] as usize;
                // Dynamic claims are the events worth their own timeline
                // rows; static shards and fast-path walks are already the
                // compute span.
                let chunk_span = flight
                    .as_ref()
                    .filter(|_| sched == Sched::Dynamic && !fast)
                    .map(|r| r.now_ns());
                let mut part = ChunkPartial::default();
                for &li in &flat[lo..hi] {
                    let li = li as usize;
                    // Consume the activation so the parity slot can be
                    // reused two supersteps from now.
                    ws.frontier.consume(cur_parity, li);
                    computed += 1;
                    if let Some(hs) = hot_local.as_mut() {
                        // Degree-derived work mass is the per-vertex cost
                        // proxy — the same estimate the dynamic scheduler
                        // balances on.
                        hs.record(wp.masters[li], wp.work_mass[li].max(1) as u64);
                    }
                    if let Some(ledger) = &env.config.load_ledger {
                        // Same cost proxy as the hot sketch; relaxed integer
                        // adds commute, so the ledger — and every migration
                        // decision read from it — is independent of thread
                        // count and chunk claim order.
                        ledger.record(wp.masters[li], wp.work_mass[li].max(1) as u64);
                    }
                    let mut publish: Option<P::Message> = None;
                    let mut reported: Option<f64> = None;
                    {
                        // SAFETY: chunks partition the frontier and the
                        // frontier is duplicate-free, so each master is
                        // computed at most once per superstep.
                        let value = unsafe { ws.values.get_mut(li) };
                        let mut ctx = CyclopsContext {
                            vertex: wp.masters[li],
                            local: li,
                            superstep,
                            graph: env.graph,
                            plan: wp,
                            value,
                            msg_cur: &ws.msg_cur,
                            rep_msg: &ws.rep_msg,
                            direct_msg: &ws.direct_msg,
                            publish: &mut publish,
                            reported_error: &mut reported,
                            aggregate: &mut part.agg,
                            prev_aggregate: agg_in,
                        };
                        env.program.compute(&mut ctx);
                    }
                    if let Some(err) = reported {
                        part.err_sum += err;
                        part.err_count += 1;
                        if let Convergence::Proportion { epsilon, .. } = env.config.convergence {
                            let now = err <= epsilon;
                            let was = ws.converged[li].swap(now, Ordering::Relaxed);
                            conv_delta += now as isize - was as isize;
                        }
                    }
                    if let Some(m) = publish {
                        // Digest the publication exactly as it would go on
                        // the wire (values mode only — this is the
                        // diagnostic path that lets trace-diff name the
                        // first divergent vertex).
                        if capture_values {
                            if let Some(tr) = tracer {
                                digest_buf.clear();
                                m.encode(&mut digest_buf);
                                tr.record_publication(wp.masters[li], digest_bytes(&digest_buf));
                            }
                        }
                        // Publish for local readers (visible next
                        // superstep)... SAFETY: one write per master per
                        // superstep.
                        unsafe { ws.msg_next.write(li, Some(m.clone())) };
                        updated.push(li as u32);
                        // ...activate same-worker neighbors (lock-free bit
                        // test, §5)...
                        for &lo in wp.local_out(li) {
                            ws.frontier.mark(next_parity, lo as usize);
                        }
                        // ...and send exactly one sync+activation message
                        // per mirror.
                        for &(mw, rep_idx) in wp.mirrors(li) {
                            outboxes[mw as usize].push(ReplicaUpdate::new(
                                rep_idx,
                                m.clone(),
                                true,
                            ));
                        }
                        // ...and one direct message per cross edge into a
                        // cold (unreplicated) neighbor's inbox slot.
                        if hybrid {
                            for &(dw, slot) in wp.direct_out(li) {
                                direct_outboxes[dw as usize].push(DirectMessage::new(
                                    slot,
                                    m.clone(),
                                    true,
                                ));
                            }
                        }
                    }
                }
                // Publish the chunk's float partial into its slot; the
                // worker leader reduces slots in chunk-index order, so claim
                // order never affects the float results.
                *ws.partials[c].lock() = part;
                if let (Some(r), Some(start)) = (&flight, chunk_span) {
                    r.record(
                        SpanKind::Chunk,
                        start,
                        superstep as u64,
                        c as u64,
                        (hi - lo) as u64,
                    );
                }
            }
        }
        let cmp_elapsed = compute_start.elapsed();
        ws.cmp_ns[env.t].store(cmp_elapsed.as_nanos() as u64, Ordering::Relaxed);
        times.add(Phase::Compute, cmp_elapsed);
        if let (Some(r), Some(start)) = (&flight, cmp_span) {
            r.record(SpanKind::Compute, start, superstep as u64, 0, 0);
        }
        // Deposit this thread's outboxes into the worker-shared per-
        // destination slots (Vec swaps — the slot left empty by last
        // superstep's flush trades places with the filled local vec, so
        // capacities recycle). Flush threads merge them after the barrier.
        // The fast path skips the fan-out entirely: the leader holds every
        // message already and sends directly after the barrier.
        if !fast {
            let deposit_start = Instant::now();
            for (dest, batch) in outboxes.iter_mut().enumerate() {
                if !batch.is_empty() {
                    std::mem::swap(&mut *ws.outboxes[dest][env.t].lock(), batch);
                }
            }
            if hybrid {
                for (dest, batch) in direct_outboxes.iter_mut().enumerate() {
                    if !batch.is_empty() {
                        std::mem::swap(&mut *ws.direct_outboxes[dest][env.t].lock(), batch);
                    }
                }
            }
            times.add(Phase::Send, deposit_start.elapsed());
        }
        let wait_start = Instant::now();
        ws.local.wait();
        times.add(Phase::Sync, wait_start.elapsed());

        // ---- Publish & send phase (SND). ----
        let send_start = Instant::now();
        let snd_span = flight.as_ref().map(|r| r.now_ns());
        for &li in &updated {
            let li = li as usize;
            // SAFETY: only the owning thread copies its updated slots, after
            // the post-compute barrier (no readers are active).
            let m = ws.msg_next.read(li).clone();
            unsafe { ws.msg_cur.write(li, m) };
        }
        // All compute-phase local activations are in; the frontier length is
        // the worker's locally-known next frontier (remote activations are
        // still in flight and covered by the transport-empty termination
        // check).
        let next_active = if env.t == 0 {
            ws.frontier.len(next_parity)
        } else {
            0
        };
        // Flush the worker-shared outboxes: destination `dest` is flushed by
        // thread `dest % threads`, merging every compute thread's deposit in
        // thread order. Exactly one batch goes out per non-empty destination
        // per superstep, so the batch *count* stays deterministic even
        // though dynamic chunk claiming shuffles which thread produced which
        // message (and the adaptive wire format canonicalizes each batch by
        // replica id, so the *bytes* are order-independent too). On the
        // fast path the leader sends its local outboxes directly on its own
        // lane — same one-batch-per-destination framing, no merge.
        if fast {
            if env.t == 0 {
                for (dest, batch) in outboxes.iter_mut().enumerate() {
                    if !batch.is_empty() {
                        let sent = batch.len();
                        let receipt =
                            env.transport
                                .send(lane, dest, std::mem::take(batch), superstep);
                        if let Some(tr) = tracer {
                            tr.add_sent_to(dest, sent as u64, receipt.bytes as u64);
                            record_wire_mode(tr, dest, receipt);
                        }
                    }
                }
                if hybrid {
                    for (dest, batch) in direct_outboxes.iter_mut().enumerate() {
                        if !batch.is_empty() {
                            let sent = batch.len();
                            let receipt = env.direct_transport.send(
                                lane,
                                dest,
                                std::mem::take(batch),
                                superstep,
                            );
                            if let Some(tr) = tracer {
                                tr.add_sent_to(dest, sent as u64, receipt.bytes as u64);
                                tr.add_direct(sent as u64, receipt.bytes as u64);
                                record_wire_mode(tr, dest, receipt);
                            }
                        }
                    }
                }
            }
        } else {
            let mut flush: Vec<ReplicaUpdate<P::Message>> = Vec::new();
            let mut dflush: Vec<DirectMessage<P::Message>> = Vec::new();
            for dest in (env.t..num_workers).step_by(env.threads) {
                flush.clear();
                for slot in &ws.outboxes[dest] {
                    flush.append(&mut slot.lock());
                }
                if !flush.is_empty() {
                    let sent = flush.len();
                    let receipt =
                        env.transport
                            .send(lane, dest, std::mem::take(&mut flush), superstep);
                    if let Some(tr) = tracer {
                        tr.add_sent_to(dest, sent as u64, receipt.bytes as u64);
                        record_wire_mode(tr, dest, receipt);
                    }
                }
                if hybrid {
                    dflush.clear();
                    for slot in &ws.direct_outboxes[dest] {
                        dflush.append(&mut slot.lock());
                    }
                    if !dflush.is_empty() {
                        let sent = dflush.len();
                        let receipt = env.direct_transport.send(
                            lane,
                            dest,
                            std::mem::take(&mut dflush),
                            superstep,
                        );
                        if let Some(tr) = tracer {
                            tr.add_sent_to(dest, sent as u64, receipt.bytes as u64);
                            tr.add_direct(sent as u64, receipt.bytes as u64);
                            record_wire_mode(tr, dest, receipt);
                        }
                    }
                }
            }
        }
        times.add(Phase::Send, send_start.elapsed());
        if let (Some(r), Some(start)) = (&flight, snd_span) {
            r.record(SpanKind::Send, start, superstep as u64, 0, 0);
        }

        // ---- Publish per-thread statistics. ----
        env.computed_total.fetch_add(computed, Ordering::Relaxed);
        env.next_active_total
            .fetch_add(next_active, Ordering::Relaxed);
        if conv_delta != 0 {
            env.converged_delta.fetch_add(conv_delta, Ordering::Relaxed);
        }
        if let Some(tr) = tracer {
            tr.add_computed(computed as u64);
            tr.add_converged_delta(conv_delta as i64);
            if env.t == 0 {
                tr.add_activated(next_active as u64);
                if fast {
                    tr.mark_sparse_fast_path();
                }
            }
            if let Some(hs) = hot_local.as_mut() {
                // Fold this thread's sketch before the barrier; the leader
                // merges the slots in thread order at commit.
                tr.set_thread_hot(env.t, hs);
                hs.clear();
            }
        }
        if env.t == 0 {
            // Worker-leader reduction: fold the chunk partials in chunk-index
            // order — a fixed order regardless of which thread computed which
            // chunk — so floating-point aggregation stays bitwise
            // deterministic under dynamic claiming.
            let mut reduced = ChunkPartial::default();
            for slot in &ws.partials[..chunks] {
                reduced.merge(&slot.lock());
            }
            if let Some(tr) = tracer {
                if !reduced.agg.is_empty() {
                    // Slot 0 carries the whole worker's reduction; commit()
                    // already reset every thread slot last superstep.
                    tr.set_thread_agg(0, reduced.agg);
                }
            }
            if let Some(so) = env.sched_obs {
                // Fast-path supersteps are single-threaded by design; their
                // max/mean ratio is not scheduler skew, so don't record it.
                if !fast {
                    so.record_threads(ws.cmp_ns.iter().map(|a| a.load(Ordering::Relaxed)));
                }
            }
            *env.worker_partials[env.w].lock() = reduced;
        }
        if env.t == 0 {
            let mut cur = env.current.lock();
            cur.phase_times = cur.phase_times.merge(&times);
        }
        {
            let mut cur = env.current.lock();
            cur.active_vertices += computed;
        }

        // ---- SYN: hierarchical barrier + leader bookkeeping. ----
        let sync_start = Instant::now();
        env.barrier
            .wait_traced(env.w, env.t, flight.as_deref(), superstep as u64);
        if env.w == 0 && env.t == 0 {
            let total_computed = env.computed_total.swap(0, Ordering::Relaxed);
            let total_next = env.next_active_total.swap(0, Ordering::Relaxed);
            let delta = env.converged_delta.swap(0, Ordering::Relaxed);
            let conv_total = env.converged_total.fetch_add(delta, Ordering::Relaxed) + delta;
            // Global reduction: merge the per-worker partials in worker
            // order (each worker's leader wrote its slot before the first
            // hierarchical barrier above). Two fixed-order levels — chunks
            // within a worker, workers here — make the float results
            // independent of thread scheduling.
            let mut agg = AggregateStats::default();
            let mut err = (0.0f64, 0usize);
            for slot in env.worker_partials.iter() {
                let part = slot.lock();
                agg.merge(&part.agg);
                err.0 += part.err_sum;
                err.1 += part.err_count;
            }
            *env.prev_aggregate.lock() = if agg.is_empty() { None } else { Some(agg) };
            let mean_err = if err.1 > 0 {
                Some(err.0 / err.1 as f64)
            } else {
                None
            };

            let snap = env
                .transport
                .counters()
                .snapshot()
                .merge(&env.direct_transport.counters().snapshot());
            let mut last = env.last_counters.lock();
            let mut cur = env.current.lock();
            cur.superstep = superstep;
            cur.messages_sent = snap.messages - last.messages;
            cur.bytes_sent = snap.bytes - last.bytes;
            debug_assert_eq!(cur.active_vertices, total_computed);
            env.history.lock().push(std::mem::take(&mut cur));
            *last = snap;
            env.supersteps_done.store(superstep + 1, Ordering::Release);

            let converged_enough = match env.config.convergence {
                Convergence::ActiveVertices => false,
                Convergence::Proportion { target, .. } => {
                    conv_total as f64 >= target * env.total_vertices as f64
                }
                Convergence::GlobalError { epsilon } => {
                    mean_err.map(|e| e <= epsilon).unwrap_or(false)
                }
            };
            let drained =
                total_next == 0 && env.transport.all_empty() && env.direct_transport.all_empty();
            // A *global* cap on the superstep index: resumed runs continue
            // toward the same cap rather than getting a fresh budget.
            let capped = superstep + 1 >= env.config.max_supersteps;
            env.stop
                .store(drained || converged_enough || capped, Ordering::Release);
        }
        env.barrier
            .wait_traced(env.w, env.t, flight.as_deref(), superstep as u64);
        if env.t == 0 {
            let final_sync = sync_start.elapsed();
            env.current.lock().phase_times.add(Phase::Sync, final_sync);
            times.add(Phase::Sync, final_sync);
            // Worker leaders feed the phase-latency histograms (one Option
            // check when no registry is installed).
            if let Some(ph) = env.phase_hists {
                ph.record(&times);
                if env.w == 0 {
                    ph.set_supersteps(superstep + 1);
                }
            }
            // Commit this worker's superstep record. Safe to read every
            // thread's accumulators: all of them published before the first
            // hierarchical barrier above.
            if let Some(tr) = tracer {
                tr.commit(superstep, env.w, frontier_len, &times, checkpoint_now);
            }
            // Per-superstep memory sample (no-op unless `--mem` armed the
            // tracking allocator); lands in `{"mem":…}` JSONL lines beside
            // the records, outside the trace-diff contract.
            cyclops_obs::mem::sample(superstep as u64, env.w as u32);
        }
        if env.stop.load(Ordering::Acquire) {
            return;
        }
        superstep += 1;
    }
}

/// Folds one send receipt's wire mode into the tracer's per-superstep
/// dense/sparse batch counts — both the record totals and destination
/// `dest`'s comm-matrix row (legacy and intra-machine sends count as
/// neither).
fn record_wire_mode(tr: &cyclops_net::WorkerTracer, dest: usize, receipt: SendReceipt) {
    match receipt.wire_mode {
        Some(WireMode::Dense) => tr.add_wire_batches_to(dest, 1, 0),
        Some(WireMode::Sparse) => tr.add_wire_batches_to(dest, 0, 1),
        _ => {}
    }
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

/// Captures a value-only checkpoint of one worker's masters (cooperative:
/// the first worker to arrive creates the superstep's entry). `active`
/// reports the vertex's activation flag — the barrier-per-superstep loop
/// reads the frontier parity bit, the bucketed loop its pending-mark set.
fn capture_checkpoint<V: Clone, M: Clone>(
    checkpoints: &Mutex<Vec<CyclopsCheckpoint<V, M>>>,
    wp: &crate::plan::WorkerPlan,
    ws: &WorkerShared<V, M>,
    superstep: usize,
    interval: Option<usize>,
    active: impl Fn(usize) -> bool,
    aggregate: Option<AggregateStats>,
) {
    let mut cps = checkpoints.lock();
    if cps.last().map(|c| c.superstep) != Some(superstep) {
        cps.push(CyclopsCheckpoint {
            superstep,
            vertices: Vec::new(),
            aggregate,
        });
    }
    let cp = cps.last_mut().unwrap_or_else(|| {
        // The push above guarantees an entry for this superstep exists; an
        // empty store here means the capture cadence and the store went out
        // of sync (e.g. a caller invoked capture without its trigger).
        panic!(
            "checkpoint store empty at superstep {superstep} despite a capture trigger \
             (checkpoint_every = {interval:?})"
        )
    });
    for (li, &v) in wp.masters.iter().enumerate() {
        cp.vertices.push((
            v,
            ws.values.read(li).clone(),
            ws.msg_cur.read(li).clone(),
            active(li),
        ));
    }
}

// ---- Bucketed (delta-stepping) execution. ----
//
// The paper's Figure 9 SSSP-on-RoadCA pathology: ~600 near-empty supersteps,
// one global barrier pair per hop, so barrier cost dominates and Cyclops
// loses to Hama. The bucketed scheduler replaces "one relaxation round per
// barrier" with "one priority bucket per barrier": vertices carry an
// activation priority (for SSSP, the tentative distance proposed by the
// activating publication), parked activations wait in a bucket queue of
// width Δ, and each superstep drains the lowest nonempty bucket to a local
// fixpoint — fusing all the light-edge relaxation rounds the bucket needs —
// before the one global barrier pair runs. Correctness does not depend on
// the drain order: with non-negative weights, min-relaxation reaches the
// same fixpoint under any schedule; the priority is only a lower bound used
// to avoid relaxing vertices whose turn has not come.

use cyclops_net::{priority_key as okey, priority_key_inv as okey_inv, IMMEDIATE_KEY as IMMEDIATE};

/// Leader-owned state of the bucketed scheduler.
///
/// Only the global leader (worker 0, thread 0) ever touches it: the whole
/// bucket settle runs sequentially between a superstep's two hierarchical
/// barrier waits while every other thread sleeps at the second wait. That
/// trades the compute parallelism of one superstep — negligible on these
/// near-empty high-diameter supersteps — for a superstep (and barrier)
/// count of ~one per nonempty bucket instead of one per hop.
struct BucketSched<M> {
    /// Per worker: local indices of parked/pending activations.
    pending: Vec<Vec<u32>>,
    /// Per worker, per master: whether the vertex is in `pending`.
    marked: Vec<Vec<bool>>,
    /// Per worker, per master: ordered-key activation priority. Valid only
    /// while marked; re-marks fold with `min`.
    prio: Vec<Vec<u64>>,
    /// Per worker, per master: superstep generation of the last selection —
    /// counts distinct bucket occupancy without a per-superstep reset pass.
    sel_gen: Vec<Vec<u64>>,
    /// Per worker, per master: round generation of the last publication —
    /// dedups the round's dirty list so each mirror is sent exactly one
    /// update per round even when fast-mode chaining republished a master.
    dirty_gen: Vec<Vec<u64>>,
    /// Scratch: masters that published this round (per-round dirty list).
    dirty: Vec<u32>,
    /// Scratch: the current fused round's selection, per worker.
    selected: Vec<Vec<u32>>,
    /// Scratch: per-destination replica-update outboxes, reused per round.
    outboxes: Vec<Vec<ReplicaUpdate<M>>>,
    /// Scratch: per-destination direct-message outboxes (hybrid replication),
    /// reused per round.
    direct_outboxes: Vec<Vec<DirectMessage<M>>>,
    /// Scratch: masters whose publication changed this round.
    updated: Vec<u32>,
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
    fn new<V>(shared: &[WorkerShared<V, M>], start_parity: usize, delta: f64) -> Self {
        let num_workers = shared.len();
        let mut s = BucketSched {
            pending: (0..num_workers).map(|_| Vec::new()).collect(),
            marked: shared
                .iter()
                .map(|ws| vec![false; ws.values.len()])
                .collect(),
            prio: shared
                .iter()
                .map(|ws| vec![0u64; ws.values.len()])
                .collect(),
            sel_gen: shared
                .iter()
                .map(|ws| vec![0u64; ws.values.len()])
                .collect(),
            dirty_gen: shared
                .iter()
                .map(|ws| vec![0u64; ws.values.len()])
                .collect(),
            dirty: Vec::new(),
            selected: (0..num_workers).map(|_| Vec::new()).collect(),
            outboxes: (0..num_workers).map(|_| Vec::new()).collect(),
            direct_outboxes: (0..num_workers).map(|_| Vec::new()).collect(),
            updated: Vec::new(),
            bucket: 0,
            delta,
            delta0: delta,
            occ_sum: 0,
            occ_count: 0,
            epoch: 0,
            rounds_total: 0,
        };
        // Seed from the initial (or checkpoint-restored) frontier marks;
        // their priorities are unknown, so they are due immediately.
        for (w, ws) in shared.iter().enumerate() {
            for li in 0..ws.values.len() {
                if ws.frontier.is_marked(start_parity, li) {
                    s.mark(w, li, IMMEDIATE);
                }
            }
        }
        s
    }

    /// Parks an activation of worker `w`'s local master `li` at priority
    /// `key` (re-activations keep the smaller key).
    fn mark(&mut self, w: usize, li: usize, key: u64) {
        if self.marked[w][li] {
            let p = &mut self.prio[w][li];
            if key < *p {
                *p = key;
            }
        } else {
            self.marked[w][li] = true;
            self.prio[w][li] = key;
            self.pending[w].push(li as u32);
        }
    }

    /// Moves worker `w`'s due activations (priority below `end_key`) out of
    /// its pending list into `sel`, in place; parked vertices stay pending.
    fn select(&mut self, w: usize, end_key: u64, sel: &mut Vec<u32>) {
        let prio = &self.prio[w];
        let marked = &mut self.marked[w];
        let pending = &mut self.pending[w];
        let mut keep = 0;
        for i in 0..pending.len() {
            let li = pending[i];
            if prio[li as usize] < end_key {
                marked[li as usize] = false;
                sel.push(li);
            } else {
                pending[keep] = li;
                keep += 1;
            }
        }
        pending.truncate(keep);
    }
}

/// Thread body of a bucketed run. Every thread still meets the two
/// hierarchical barrier waits per superstep — so barrier-protocol
/// accounting stays comparable with the classic loop — but all settle work
/// happens on the global leader between them.
fn bucketed_thread_loop<P: CyclopsProgram>(env: ThreadEnv<'_, P>) {
    let is_leader = env.w == 0 && env.t == 0;
    let mut sched = is_leader
        .then(|| BucketSched::new(env.shared, env.start_superstep & 1, env.config.bucket_width));
    let flight = cyclops_obs::flight().map(|fr| fr.ring(env.w as u32, env.t as u32));
    // Worker-slot tag for the tracking allocator (see `thread_loop`).
    let _mem_tag = cyclops_obs::mem::MemScope::worker(env.w);
    let mut superstep = env.start_superstep;
    loop {
        env.barrier
            .wait_traced(env.w, env.t, flight.as_deref(), superstep as u64);
        if let Some(sched) = sched.as_mut() {
            settle_bucket(&env, sched, superstep, flight.as_deref());
        }
        env.barrier
            .wait_traced(env.w, env.t, flight.as_deref(), superstep as u64);
        if env.stop.load(Ordering::Acquire) {
            return;
        }
        superstep += 1;
    }
}

/// One bucketed superstep, run by the global leader alone: drain the
/// current bucket to a fixpoint (fused relaxation rounds), then do the
/// whole-superstep bookkeeping the classic loop's leader does at SYN.
fn settle_bucket<P: CyclopsProgram>(
    env: &ThreadEnv<'_, P>,
    sched: &mut BucketSched<P::Message>,
    superstep: usize,
    ring: Option<&SpanRing>,
) {
    let settle_start = Instant::now();
    let num_workers = env.plan.workers.len();
    let hybrid = env.plan.workers.iter().any(|p| p.num_direct_slots() > 0);
    let delta = sched.delta;
    let fast_mode = env.config.bucket_mode == BucketMode::Fast;
    let bucket = sched.bucket;
    let end_key = okey((bucket + 1) as f64 * delta);
    let agg_in = *env.prev_aggregate.lock();
    let capture_values = env.trace.map(|s| s.captures_values()).unwrap_or(false);
    let hot_k = env.trace.map(|s| s.hot_k()).unwrap_or(0);
    let gen = superstep as u64 + 1;

    // Value-only checkpoint on the bucket boundary: the previous settle's
    // final drain applied every in-flight update, so the transport is empty
    // and each replica equals its master — the same consistent cut the
    // classic loop captures. Parked priorities are not stored; a resume
    // reactivates the parked set as immediately due, costing at most one
    // extra (idempotent) relaxation.
    let checkpoint_now = match env.config.checkpoint_every {
        Some(every) => {
            every > 0
                && superstep > env.start_superstep
                && (superstep - env.start_superstep).is_multiple_of(every)
        }
        None => false,
    };
    if checkpoint_now {
        for w in 0..num_workers {
            let marked = &sched.marked[w];
            capture_checkpoint(
                env.checkpoints,
                &env.plan.workers[w],
                &env.shared[w],
                superstep,
                env.config.checkpoint_every,
                |li| marked[li],
                agg_in,
            );
        }
    }

    // Per-worker accumulators for this superstep's trace records.
    let mut drained = vec![0u64; num_workers];
    let mut occupancy = vec![0u64; num_workers];
    let mut computed = vec![0usize; num_workers];
    let mut conv_delta = vec![0isize; num_workers];
    let mut partials: Vec<ChunkPartial> = vec![ChunkPartial::default(); num_workers];
    let mut times: Vec<PhaseTimes> = vec![PhaseTimes::default(); num_workers];
    let mut hot: Vec<Option<cyclops_net::trace::SpaceSaving>> = (0..num_workers)
        .map(|_| (hot_k > 0).then(|| cyclops_net::trace::SpaceSaving::new(hot_k)))
        .collect();
    let mut digest_buf = bytes::BytesMut::new();
    let mut rounds = 0u64;
    let mut budget_exhausted = false;

    // ---- Fused relaxation rounds. ----
    loop {
        let round_span = ring.map(|r| r.now_ns());
        // A program that keeps re-activating (which the classic loop would
        // cut off at its superstep cap) must not spin the drain forever:
        // stop once the run has spent as many fused rounds as the classic
        // loop would have been allowed barrier rounds.
        if sched.rounds_total >= env.config.max_supersteps {
            budget_exhausted = true;
            break;
        }
        // Phase A: drain inbound sync messages and apply them to replicas,
        // every worker in worker order; activations park at the priority
        // their payload proposes.
        for w in 0..num_workers {
            let ws = &env.shared[w];
            let wp = &env.plan.workers[w];
            let t0 = Instant::now();
            ws.rep_msg.begin_epoch();
            let batch = env.transport.drain(w, sched.epoch);
            drained[w] += batch.len() as u64;
            for upd in batch {
                let key = env
                    .program
                    .priority(&upd.payload)
                    .map(okey)
                    .unwrap_or(IMMEDIATE);
                let rep = upd.replica as usize;
                // SAFETY: the settle is sequential and the epoch is fresh —
                // one writer, at most one write per replica per round.
                unsafe { ws.rep_msg.write(rep, Some(upd.payload)) };
                if upd.activate {
                    for &lo in wp.rep_out(rep) {
                        sched.mark(w, lo as usize, key);
                    }
                }
            }
            if hybrid {
                ws.direct_msg.begin_epoch();
                let batch = env.direct_transport.drain(w, sched.epoch);
                drained[w] += batch.len() as u64;
                for dm in batch {
                    let key = env
                        .program
                        .priority(&dm.payload)
                        .map(okey)
                        .unwrap_or(IMMEDIATE);
                    let slot = dm.slot as usize;
                    // SAFETY: sequential settle, fresh epoch, and the dirty
                    // list dedup sends at most one message per slot per round.
                    unsafe { ws.direct_msg.write(slot, Some(dm.payload)) };
                    if dm.activate {
                        sched.mark(w, wp.direct_target[slot] as usize, key);
                    }
                }
            }
            times[w].add(Phase::Parse, t0.elapsed());
        }

        // Phase B: select this round's due vertices per worker.
        let mut selected = std::mem::take(&mut sched.selected);
        let mut total_selected = 0usize;
        for (w, sel) in selected.iter_mut().enumerate() {
            sel.clear();
            sched.select(w, end_key, sel);
            if !fast_mode {
                // Deterministic drain (and float-reduction) order.
                sel.sort_unstable();
            }
            total_selected += sel.len();
        }
        if total_selected == 0 && env.transport.all_empty() && env.direct_transport.all_empty() {
            sched.selected = selected;
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

        // Phase C+D: compute each worker's selection against the immutable
        // view, publish, and send one sync batch per destination. In fast
        // mode, newly due same-worker activations chain into extra passes
        // of the same round instead of waiting for the next one.
        for w in 0..num_workers {
            let ws = &env.shared[w];
            let wp = &env.plan.workers[w];
            let mut outboxes = std::mem::take(&mut sched.outboxes);
            let mut direct_outboxes = std::mem::take(&mut sched.direct_outboxes);
            let mut updated = std::mem::take(&mut sched.updated);
            let mut dirty = std::mem::take(&mut sched.dirty);
            // Round generation for the dirty-list dedup: the transport epoch
            // is unique per round and never reset.
            let rgen = sched.epoch as u64 + 1;
            let sel = &mut selected[w];
            let t_cmp = Instant::now();
            let mut pass_superstep = if kickoff_round { 0 } else { superstep.max(1) };
            loop {
                ws.values.begin_epoch();
                ws.msg_cur.begin_epoch();
                ws.msg_next.begin_epoch();
                updated.clear();
                for &li in sel.iter() {
                    let li = li as usize;
                    computed[w] += 1;
                    if sched.sel_gen[w][li] != gen {
                        sched.sel_gen[w][li] = gen;
                        occupancy[w] += 1;
                    }
                    if let Some(hs) = hot[w].as_mut() {
                        hs.record(wp.masters[li], wp.work_mass[li].max(1) as u64);
                    }
                    let mut publish: Option<P::Message> = None;
                    let mut reported: Option<f64> = None;
                    {
                        // SAFETY: `sel` is duplicate-free (mark/select keep
                        // set semantics) and the settle is sequential.
                        let value = unsafe { ws.values.get_mut(li) };
                        let mut ctx = CyclopsContext {
                            vertex: wp.masters[li],
                            local: li,
                            superstep: pass_superstep,
                            graph: env.graph,
                            plan: wp,
                            value,
                            msg_cur: &ws.msg_cur,
                            rep_msg: &ws.rep_msg,
                            direct_msg: &ws.direct_msg,
                            publish: &mut publish,
                            reported_error: &mut reported,
                            aggregate: &mut partials[w].agg,
                            prev_aggregate: agg_in,
                        };
                        env.program.compute(&mut ctx);
                    }
                    if let Some(err) = reported {
                        partials[w].err_sum += err;
                        partials[w].err_count += 1;
                        if let Convergence::Proportion { epsilon, .. } = env.config.convergence {
                            let now = err <= epsilon;
                            let was = ws.converged[li].swap(now, Ordering::Relaxed);
                            conv_delta[w] += now as isize - was as isize;
                        }
                    }
                    if let Some(m) = publish {
                        if capture_values {
                            if let Some(trace) = env.trace {
                                digest_buf.clear();
                                m.encode(&mut digest_buf);
                                trace
                                    .worker(w)
                                    .record_publication(wp.masters[li], digest_bytes(&digest_buf));
                            }
                        }
                        let key = env.program.priority(&m).map(okey).unwrap_or(IMMEDIATE);
                        // SAFETY: one write per master per epoch (per pass).
                        unsafe { ws.msg_next.write(li, Some(m)) };
                        updated.push(li as u32);
                        for &lo in wp.local_out(li) {
                            sched.mark(w, lo as usize, key);
                        }
                        if sched.dirty_gen[w][li] != rgen {
                            sched.dirty_gen[w][li] = rgen;
                            dirty.push(li as u32);
                        }
                    }
                }
                // Publish this pass's updates so the next round — or, in
                // fast mode, the next chained pass — reads them.
                for &li in &updated {
                    let li = li as usize;
                    let m = ws.msg_next.read(li).clone();
                    // SAFETY: sequential; fresh epoch began this pass.
                    unsafe { ws.msg_cur.write(li, m) };
                }
                if !fast_mode {
                    break;
                }
                sel.clear();
                sched.select(w, end_key, sel);
                if sel.is_empty() {
                    break;
                }
                // A chained pass is a later logical superstep.
                pass_superstep = superstep.max(1);
            }
            // Sync each dirty master's *final* publication to its mirrors —
            // exactly one update per replica per round, preserving the §3.4
            // at-most-one-message invariant even when fast-mode chaining
            // republished a master several times within the round (that
            // collapse is delta-stepping's message saving).
            for &li in &dirty {
                let li = li as usize;
                if let Some(m) = ws.msg_cur.read(li) {
                    for &(mw, rep_idx) in wp.mirrors(li) {
                        outboxes[mw as usize].push(ReplicaUpdate::new(rep_idx, m.clone(), true));
                    }
                    if hybrid {
                        for &(dw, slot) in wp.direct_out(li) {
                            direct_outboxes[dw as usize].push(DirectMessage::new(
                                slot,
                                m.clone(),
                                true,
                            ));
                        }
                    }
                }
            }
            dirty.clear();
            times[w].add(Phase::Compute, t_cmp.elapsed());
            let t_snd = Instant::now();
            let lane = w * env.threads;
            for (dest, batch) in outboxes.iter_mut().enumerate() {
                if !batch.is_empty() {
                    let sent = batch.len();
                    let receipt =
                        env.transport
                            .send(lane, dest, std::mem::take(batch), sched.epoch);
                    if let Some(trace) = env.trace {
                        let tr = trace.worker(w);
                        tr.add_sent_to(dest, sent as u64, receipt.bytes as u64);
                        record_wire_mode(tr, dest, receipt);
                    }
                }
            }
            if hybrid {
                for (dest, batch) in direct_outboxes.iter_mut().enumerate() {
                    if !batch.is_empty() {
                        let sent = batch.len();
                        let receipt = env.direct_transport.send(
                            lane,
                            dest,
                            std::mem::take(batch),
                            sched.epoch,
                        );
                        if let Some(trace) = env.trace {
                            let tr = trace.worker(w);
                            tr.add_sent_to(dest, sent as u64, receipt.bytes as u64);
                            tr.add_direct(sent as u64, receipt.bytes as u64);
                            record_wire_mode(tr, dest, receipt);
                        }
                    }
                }
            }
            times[w].add(Phase::Send, t_snd.elapsed());
            sched.outboxes = outboxes;
            sched.direct_outboxes = direct_outboxes;
            sched.updated = updated;
            sched.dirty = dirty;
        }
        sched.selected = selected;
        sched.epoch += 1;
        if let (Some(r), Some(start)) = (ring, round_span) {
            r.record(
                SpanKind::Round,
                start,
                bucket,
                rounds,
                total_selected as u64,
            );
        }
    }

    // ---- Superstep epilogue: the classic loop's leader bookkeeping. ----
    let total_computed: usize = computed.iter().sum();
    let delta_conv: isize = conv_delta.iter().sum();
    let conv_total = env.converged_total.fetch_add(delta_conv, Ordering::Relaxed) + delta_conv;
    // Two-level deterministic float reduction: per worker sequentially
    // above, workers merged in worker order here.
    let mut agg = AggregateStats::default();
    let mut err = (0.0f64, 0usize);
    for part in &partials {
        agg.merge(&part.agg);
        err.0 += part.err_sum;
        err.1 += part.err_count;
    }
    *env.prev_aggregate.lock() = if agg.is_empty() { None } else { Some(agg) };
    let mean_err = if err.1 > 0 {
        Some(err.0 / err.1 as f64)
    } else {
        None
    };

    let settle_elapsed = settle_start.elapsed();
    // The settle is sequential: while one worker's state is processed every
    // other worker's threads wait, so a worker's sync share is the superstep
    // wall minus its own work — making why-slow's wait attribution reflect
    // the serialization honestly.
    for t in times.iter_mut() {
        let work = t.total();
        t.add(Phase::Sync, settle_elapsed.saturating_sub(work));
    }

    let snap = env
        .transport
        .counters()
        .snapshot()
        .merge(&env.direct_transport.counters().snapshot());
    let mut last = env.last_counters.lock();
    let mut stats = SuperstepStats {
        superstep,
        active_vertices: total_computed,
        messages_sent: snap.messages - last.messages,
        bytes_sent: snap.bytes - last.bytes,
        ..SuperstepStats::default()
    };
    for t in &times {
        stats.phase_times = stats.phase_times.merge(t);
    }
    env.history.lock().push(stats);
    *last = snap;
    drop(last);
    env.supersteps_done.store(superstep + 1, Ordering::Release);

    if let Some(trace) = env.trace {
        for w in 0..num_workers {
            let tr = trace.worker(w);
            tr.add_drained(drained[w]);
            tr.add_computed(computed[w] as u64);
            tr.add_converged_delta(conv_delta[w] as i64);
            // The locally-known next frontier is the parked set.
            tr.add_activated(sched.pending[w].len() as u64);
            tr.set_bucket(bucket, rounds.max(1), occupancy[w]);
            if !partials[w].agg.is_empty() {
                tr.set_thread_agg(0, partials[w].agg);
            }
            if let Some(hs) = hot[w].as_ref() {
                tr.set_thread_hot(0, hs);
            }
            tr.commit(
                superstep,
                w,
                occupancy[w] as usize,
                &times[w],
                checkpoint_now,
            );
            // Per-superstep memory sample for each worker's slot (no-op
            // unless `--mem` armed the allocator); the settle runs on the
            // global leader, so it samples on every worker's behalf.
            cyclops_obs::mem::sample(superstep as u64, w as u32);
        }
    }
    if let Some(ph) = env.phase_hists {
        for t in &times {
            ph.record(t);
        }
        ph.set_supersteps(superstep + 1);
    }

    // ---- Termination / bucket advance. ----
    let converged_enough = match env.config.convergence {
        Convergence::ActiveVertices => false,
        Convergence::Proportion { target, .. } => {
            conv_total as f64 >= target * env.total_vertices as f64
        }
        Convergence::GlobalError { epsilon } => mean_err.map(|e| e <= epsilon).unwrap_or(false),
    };
    let all_parked_empty = sched.pending.iter().all(|p| p.is_empty());
    let drained_all =
        all_parked_empty && env.transport.all_empty() && env.direct_transport.all_empty();
    let capped = superstep + 1 >= env.config.max_supersteps || budget_exhausted;
    let stop = drained_all || converged_enough || capped;
    if !stop {
        // Feed the live occupancy histogram into the width controller.
        // Counters, never clocks: the same run retunes identically on any
        // machine or thread count, keeping `det` mode trace-stable.
        let total_occ: u64 = occupancy.iter().sum();
        sched.occ_sum += total_occ;
        sched.occ_count += 1;
        let new_delta = if env.config.bucket_adapt {
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
        let mut min_key = u64::MAX;
        for (w, p) in sched.pending.iter().enumerate() {
            for &li in p {
                min_key = min_key.min(sched.prio[w][li as usize]);
            }
        }
        if min_key != u64::MAX {
            let p = okey_inv(min_key);
            if new_delta != sched.delta {
                // Bucket indices are in units of the width; after a retune
                // re-derive the index containing the smallest parked
                // priority directly (the monotonic guard below compares
                // old-unit indices and would be meaningless). Progress is
                // still guaranteed: the next end key strictly exceeds the
                // smallest parked priority, so every superstep selects at
                // least one vertex.
                sched.delta = new_delta;
                sched.bucket = if p.is_finite() && p >= 0.0 {
                    (p / new_delta) as u64
                } else {
                    sched.bucket + 1
                };
            } else {
                let nb = if p.is_finite() && p >= 0.0 {
                    (p / delta) as u64
                } else {
                    sched.bucket + 1
                };
                sched.bucket = nb.max(sched.bucket + 1);
            }
        }
    }
    env.stop.store(stop, Ordering::Release);
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
    use cyclops_partition::{EdgeCutPartitioner, HashPartitioner};

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
    fn flat_and_mt_agree() {
        // 4 single-threaded workers vs 2 workers with 2 threads each.
        let flat = run_maxpull(ClusterSpec::flat(4, 1));
        let mt = run_maxpull(ClusterSpec::mt(2, 2, 1));
        // Different partitions (4 vs 2 parts) — compare values only.
        assert_eq!(flat.values, mt.values);
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

    #[test]
    fn hybrid_thresholds_match_full_replication_classic() {
        let g = clique(16);
        for cluster in [ClusterSpec::flat(4, 1), ClusterSpec::mt(2, 2, 1)] {
            let p = HashPartitioner.partition(&g, cluster.num_workers());
            let run = |threshold: u32| {
                run_cyclops(
                    &MaxPull,
                    &g,
                    &p,
                    &CyclopsConfig {
                        cluster,
                        replicate_threshold: threshold,
                        ..Default::default()
                    },
                )
            };
            let full = run(0);
            assert_eq!(full.direct_messages, 0);
            assert_eq!(full.ingress.messaged_boundary, 0);
            for threshold in [2u32, 8, u32::MAX] {
                let hybrid = run(threshold);
                assert_eq!(full.values, hybrid.values, "threshold {threshold}");
                assert_eq!(full.supersteps, hybrid.supersteps, "threshold {threshold}");
                assert_eq!(
                    hybrid.ingress.replicated_boundary + hybrid.ingress.messaged_boundary,
                    full.ingress.replicated_boundary,
                    "threshold {threshold}: boundary split must partition the boundary"
                );
            }
            // Every clique vertex has combined degree 30, so u32::MAX
            // demotes all of them — all sync traffic rides the direct path.
            let all_direct = run(u32::MAX);
            assert!(all_direct.direct_messages > 0);
            assert!(all_direct.replication_factor == 0.0);
        }
    }

    #[test]
    fn hybrid_thresholds_match_full_replication_bucketed() {
        let base = CyclopsConfig {
            cluster: ClusterSpec::flat(4, 1),
            bucket_width: 2.0,
            ..Default::default()
        };
        let full = run_mindist(&base);
        assert_eq!(full.direct_messages, 0);
        for threshold in [2u32, 8, u32::MAX] {
            let hybrid = run_mindist(&CyclopsConfig {
                replicate_threshold: threshold,
                ..base.clone()
            });
            assert_eq!(full.values, hybrid.values, "threshold {threshold}");
        }
        let all_direct = run_mindist(&CyclopsConfig {
            replicate_threshold: u32::MAX,
            ..base
        });
        assert!(all_direct.direct_messages > 0);
        assert!(all_direct.direct_bytes > 0);
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
    fn checkpoint_resume_matches_full_run() {
        let g = ring(32);
        let p = HashPartitioner.partition(&g, 4);
        let config = CyclopsConfig {
            cluster: ClusterSpec::flat(2, 2),
            checkpoint_every: Some(5),
            ..Default::default()
        };
        let full = run_cyclops(&MaxPull, &g, &p, &config);
        assert!(!full.checkpoints.is_empty());
        let cp = &full.checkpoints[0];
        let resumed = run_cyclops_from_checkpoint(
            &MaxPull,
            &g,
            &p,
            &CyclopsConfig {
                checkpoint_every: None,
                ..config
            },
            cp,
        );
        assert_eq!(full.values, resumed.values);
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
    fn sparse_fast_path_is_result_and_counter_invariant() {
        // Force the fast path on every superstep (cutoff 2.0 > any
        // frontier fraction) and compare against a run with it disabled:
        // values, superstep count, message count, and wire bytes must all
        // be bitwise identical — the fast path is a schedule change only.
        let g = ring(48);
        let run = |cutoff: f64, cluster: ClusterSpec| {
            let p = HashPartitioner.partition(&g, cluster.num_workers());
            run_cyclops(
                &MaxPull,
                &g,
                &p,
                &CyclopsConfig {
                    cluster,
                    sparse_cutoff: cutoff,
                    ..Default::default()
                },
            )
        };
        for cluster in [ClusterSpec::flat(4, 1), ClusterSpec::mt(2, 3, 2)] {
            let slow = run(0.0, cluster);
            let fast = run(2.0, cluster);
            assert_eq!(slow.values, fast.values);
            assert_eq!(slow.supersteps, fast.supersteps);
            assert_eq!(slow.counters.messages, fast.counters.messages);
            assert_eq!(slow.counters.bytes, fast.counters.bytes);
            assert!(fast.counters.bytes > 0, "cross-machine traffic expected");
        }
    }

    #[test]
    fn fast_path_supersteps_are_flagged_in_traces() {
        let g = ring(48);
        let cluster = ClusterSpec::flat(2, 2);
        let p = HashPartitioner.partition(&g, cluster.num_workers());
        let mut sink = TraceSink::new("cyclops", &cluster);
        run_cyclops_traced(
            &MaxPull,
            &g,
            &p,
            &CyclopsConfig {
                cluster,
                sparse_cutoff: 2.0,
                ..Default::default()
            },
            Some(&sink),
        );
        let records = sink.take_records();
        assert!(!records.is_empty());
        assert!(
            records.iter().all(|r| r.sparse_fast_path),
            "cutoff 2.0 must put every superstep on the fast path"
        );
        assert!(
            records.iter().any(|r| r.wire_dense + r.wire_sparse > 0),
            "cross-machine batches should be counted by wire mode"
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
        for mode in [BucketMode::Det, BucketMode::Fast] {
            let bucketed = run_mindist(&CyclopsConfig {
                bucket_width: 2.0,
                bucket_mode: mode,
                ..base.clone()
            });
            // Relaxation order never changes the min fixpoint (and each
            // candidate is the same left-folded path sum), so distances are
            // bitwise identical, not merely close.
            assert_eq!(classic.values, bucketed.values, "{mode:?}");
            assert!(
                bucketed.supersteps < classic.supersteps,
                "{mode:?}: bucketed {} vs classic {} supersteps",
                bucketed.supersteps,
                classic.supersteps
            );
        }
    }

    #[test]
    fn bucketed_runs_agree_across_cluster_shapes() {
        let flat = run_mindist(&CyclopsConfig {
            cluster: ClusterSpec::flat(4, 1),
            bucket_width: 1.5,
            ..Default::default()
        });
        let mt = run_mindist(&CyclopsConfig {
            cluster: ClusterSpec::mt(2, 3, 2),
            bucket_width: 1.5,
            ..Default::default()
        });
        assert_eq!(flat.values, mt.values);
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
    fn adaptive_bucketed_sssp_matches_classic_bitwise() {
        let base = CyclopsConfig {
            cluster: ClusterSpec::flat(4, 1),
            ..Default::default()
        };
        let classic = run_mindist(&base);
        for mode in [BucketMode::Det, BucketMode::Fast] {
            // A deliberately thin seed: the controller must widen it while
            // the fixpoint (and thus every distance bit) stays put.
            let adaptive = run_mindist(&CyclopsConfig {
                bucket_width: 0.25,
                bucket_mode: mode,
                bucket_adapt: true,
                ..base.clone()
            });
            assert_eq!(classic.values, adaptive.values, "{mode:?}");
            let static_width = run_mindist(&CyclopsConfig {
                bucket_width: 0.25,
                bucket_mode: mode,
                ..base.clone()
            });
            assert_eq!(classic.values, static_width.values, "{mode:?}");
            assert!(
                adaptive.supersteps < static_width.supersteps,
                "{mode:?}: widening must cut barrier rounds \
                 (adaptive {} vs static {})",
                adaptive.supersteps,
                static_width.supersteps
            );
        }
    }

    #[test]
    fn adaptive_bucketed_runs_agree_across_cluster_shapes() {
        let flat = run_mindist(&CyclopsConfig {
            cluster: ClusterSpec::flat(4, 1),
            bucket_width: 0.5,
            bucket_adapt: true,
            ..Default::default()
        });
        let mt = run_mindist(&CyclopsConfig {
            cluster: ClusterSpec::mt(2, 3, 2),
            bucket_width: 0.5,
            bucket_adapt: true,
            ..Default::default()
        });
        assert_eq!(flat.values, mt.values);
        // The controller is counter-driven, so even the superstep *count*
        // (one per settled bucket) is topology-independent... within the
        // same worker count it is identical by construction; across worker
        // counts occupancy sums match because occupancy counts vertices,
        // not per-worker shares.
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
    fn bucketed_checkpoint_resume_matches_full_run() {
        let config = CyclopsConfig {
            cluster: ClusterSpec::flat(2, 2),
            bucket_width: 2.0,
            checkpoint_every: Some(3),
            ..Default::default()
        };
        let full = run_mindist(&config);
        assert!(!full.checkpoints.is_empty());
        let resumed_config = CyclopsConfig {
            checkpoint_every: None,
            ..config
        };
        let g = cyclops_graph::gen::road_lattice(12, 12, 0.9, 0.1, 3);
        let p = HashPartitioner.partition(&g, 4);
        let resumed = run_cyclops_from_checkpoint(
            &MinDist { source: 0 },
            &g,
            &p,
            &resumed_config,
            &full.checkpoints[0],
        );
        assert_eq!(full.values, resumed.values);
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
