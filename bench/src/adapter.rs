//! The only file that calls into the system under test.
//!
//! The call surface is pinned on purpose (README.md lists it): programs and
//! generic drivers only, none of the `cyclops_algos::run_*` permutations. A
//! change that renames or collapses one of these symbols either keeps this
//! file compiling or comes with its own benchmark issue.

use crate::workloads::{Algo, Cut, Driver, SplitMix64, Workload};
use bytes::BytesMut;
use cyclops_algos::als::{rating_rmse, reference_als, AlsParams, BspAls, CyclopsAls};
use cyclops_algos::cd::{BspCommunityDetection, CyclopsCommunityDetection};
use cyclops_algos::pagerank::{BspPageRank, CyclopsPageRank};
use cyclops_algos::sssp::{auto_bucket_width, BspSssp, CyclopsSssp};
use cyclops_bsp::{run_bsp, BspConfig, BspProgram, BspResult};
use cyclops_engine::{
    apply_migration, apply_mutations, run_cyclops_evolving, run_cyclops_migrated,
    run_cyclops_with_plan, run_cyclops_with_plan_traced, CyclopsConfig, CyclopsContext,
    CyclopsPlan, CyclopsProgram, CyclopsResult, MutationBatch, WarmStart,
};
use cyclops_graph::{reference, Graph, VertexId};
use cyclops_net::metrics::CounterSnapshot;
use cyclops_net::{
    BucketMode, ClusterSpec, Codec, HierarchicalBarrier, InboxMode, PhaseTimes, ReplicaUpdate,
    TraceSink, Transport, WireFormat,
};
use cyclops_partition::{
    EdgeCutPartition, EdgeCutPartitioner, HashPartitioner, LoadLedger, MigrationConfig,
    MigrationPlanner, MultilevelPartitioner,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

const ALS_DIM: usize = 8;
const ALS_LAMBDA: f64 = 0.05;
const DAMPING: f64 = 0.85;

/// Everything a workload's runs read, made from the seed alone.
pub struct Input {
    pub graph: Graph,
    /// SSSP source: the first vertex from the middle of the id range with at
    /// least three roads, so no seed starts in a dead end.
    pub source: VertexId,
    pub als: AlsParams,
    /// Edge-insert batches of the evolving workload (empty elsewhere).
    pub batches: Vec<(MutationBatch, WarmStart)>,
}

/// Final vertex values of a run, whatever the program's value type.
#[derive(Clone, Debug, PartialEq)]
pub enum Values {
    F64(Vec<f64>),
    U32(Vec<u32>),
    Factors(Vec<Vec<f64>>),
}

impl Values {
    /// FNV-1a over the exact bits: two runs agree bitwise iff digests agree.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        match self {
            Values::F64(v) => v.iter().for_each(|x| eat(x.to_bits())),
            Values::U32(v) => v.iter().for_each(|x| eat(u64::from(*x))),
            Values::Factors(v) => v.iter().flatten().for_each(|x| eat(x.to_bits())),
        }
        h
    }
}

/// What one driver call did, with the counts `compare` holds exact.
pub struct Outcome {
    /// Wall time of the driver call, as the caller sees it.
    pub wall_s: f64,
    /// Time inside superstep loops (`CyclopsResult::elapsed`, summed over
    /// epochs).
    pub loop_s: f64,
    pub supersteps: u64,
    pub messages: u64,
    /// Cross-machine bytes: replica and direct-message batches (the run's
    /// merged transport counters) plus migration batches.
    pub wire_bytes: u64,
    /// Σ `stats[].active_vertices`: vertex programs actually executed.
    pub vertex_updates: u64,
    /// Thread-seconds per phase, summed over workers and supersteps.
    pub phases: PhaseTimes,
    pub counters: CounterSnapshot,
    pub barrier_protocol_messages: u64,
    pub epochs: u64,
    pub migration_moves: u64,
    pub migration_bytes: u64,
    pub values: Values,
}

impl Outcome {
    /// Sums the epochs of one driver call; the caller moves the final values
    /// in afterwards.
    fn of<'a, V: 'a, M: 'a>(
        wall: Duration,
        epochs: impl IntoIterator<Item = &'a CyclopsResult<V, M>>,
    ) -> Outcome {
        let mut out = Outcome {
            wall_s: wall.as_secs_f64(),
            loop_s: 0.0,
            supersteps: 0,
            messages: 0,
            wire_bytes: 0,
            vertex_updates: 0,
            phases: PhaseTimes::default(),
            counters: CounterSnapshot::default(),
            barrier_protocol_messages: 0,
            epochs: 0,
            migration_moves: 0,
            migration_bytes: 0,
            values: Values::U32(Vec::new()),
        };
        for r in epochs {
            out.epochs += 1;
            out.loop_s += r.elapsed.as_secs_f64();
            out.supersteps += r.stats.len() as u64;
            out.messages += r.counters.messages as u64;
            out.wire_bytes += r.counters.bytes as u64;
            out.counters = out.counters.merge(&r.counters);
            out.barrier_protocol_messages += r.barrier_protocol_messages as u64;
            for s in &r.stats {
                out.vertex_updates += s.active_vertices as u64;
                out.phases = out.phases.merge(&s.phase_times);
            }
        }
        out
    }
}

/// Generates the workload's input. `seed` 1 reproduces the library's default
/// graphs; every other seed offsets each dataset's default seed. `shrink`
/// divides the size (`--quick` passes 8).
pub fn generate(w: &Workload, seed: u64, shrink: f64) -> Input {
    let ds = w.data;
    let scale = w.scale / shrink;
    let graph = ds.generate_scaled(scale, ds.default_seed().wrapping_add(seed).wrapping_sub(1));
    let n = graph.num_vertices();
    let source = (0..n)
        .map(|i| ((n / 2 + i) % n) as VertexId)
        .find(|&v| graph.out_degree(v) >= 3)
        .unwrap_or(0);
    let als = AlsParams {
        users: ds.bipartite_users_at(scale).unwrap_or(0),
        dim: ALS_DIM,
        lambda: ALS_LAMBDA,
    };
    let batches = match w.driver {
        Driver::Evolving {
            batches,
            edge_divisor,
        } => {
            let mut rng = SplitMix64(seed ^ 0x6d75_7461_7465);
            let per_batch = (graph.num_edges() / edge_divisor).max(2);
            (0..batches)
                .map(|_| {
                    let batch = MutationBatch {
                        add_edges: closed_walk(&mut rng, n, per_batch),
                        ..Default::default()
                    };
                    (batch, WarmStart::Incremental)
                })
                .collect()
        }
        _ => Vec::new(),
    };
    Input {
        graph,
        source,
        als,
        batches,
    }
}

/// `edges` (≥ 2) seeded edge inserts forming one closed walk over random
/// vertices: each edge starts where the previous one ended and the last
/// returns to the start — a crawler following new links home. Every source
/// of a new edge therefore also gains an in-edge, so its rank moves and it
/// republishes against its new out-degree. `WarmStart::Incremental` needs
/// that: a re-activated source whose rank does not move by more than ε keeps
/// its old publication, `rank / old_out_degree` (README.md, "Found while
/// building it"), and with independent random inserts the run settled 6e-3
/// (L1) from the fixed point, outside the ε-scaled tolerance of `validate`.
fn closed_walk(
    rng: &mut SplitMix64,
    n: usize,
    edges: usize,
) -> Vec<(VertexId, VertexId, Option<f64>)> {
    let start = rng.below(n);
    let mut at = start;
    let mut walk = Vec::with_capacity(edges);
    for i in 0..edges {
        let mut next = (at + 1 + rng.below(n - 1)) % n;
        if i + 1 == edges && at != start {
            next = start;
        }
        walk.push((at as VertexId, next as VertexId, None));
        at = next;
    }
    walk
}

/// The workload's edge cut, one part per worker.
pub fn partition(w: &Workload, graph: &Graph) -> EdgeCutPartition {
    let k = w.cluster.num_workers();
    match w.cut {
        Cut::Hash => HashPartitioner.partition(graph, k),
        Cut::Multilevel => MultilevelPartitioner::default().partition(graph, k),
        Cut::SkewedHash { fraction } => {
            let mut assignment = HashPartitioner.partition(graph, k).assignment;
            let pile = (fraction * graph.num_vertices() as f64) as usize;
            assignment[..pile].fill(0);
            EdgeCutPartition::new(k, assignment)
        }
    }
}

pub fn replicate_threshold(w: &Workload, graph: &Graph, part: &EdgeCutPartition) -> u32 {
    if w.auto_threshold {
        part.auto_replicate_threshold(graph)
    } else {
        0
    }
}

pub fn build_plan(graph: &Graph, part: &EdgeCutPartition, threshold: u32) -> CyclopsPlan {
    CyclopsPlan::build_parallel_with_threshold(graph, part, threshold)
}

/// `(edge_cut, balance)` of a cut.
pub fn cut_quality(graph: &Graph, part: &EdgeCutPartition) -> (usize, f64) {
    (part.edge_cut(graph), part.balance())
}

/// `VmHWM` of this process in kB (0 where `/proc` does not say).
pub fn peak_rss_kb() -> u64 {
    cyclops_obs::mem::read_vm_status().1.unwrap_or(0)
}

/// `(plan, replicas, direct_slots)` bytes, replica count, replication factor.
pub fn plan_shape(graph: &Graph, plan: &CyclopsPlan) -> ([usize; 3], usize, f64) {
    let b = plan.memory_breakdown();
    (
        [b.plan, b.replicas, b.direct_slots],
        plan.ingress.total_replicas,
        plan.replication_factor(graph),
    )
}

fn engine_config(w: &Workload, input: &Input, threshold: u32) -> CyclopsConfig {
    let max_supersteps = match w.algo {
        Algo::PageRank { max_supersteps, .. } => max_supersteps,
        Algo::Sssp => CyclopsConfig::default().max_supersteps,
        Algo::Als { iterations } => iterations * 2,
        Algo::Cd { sweeps } => sweeps,
    };
    let mut cfg = CyclopsConfig {
        cluster: w.cluster,
        max_supersteps,
        replicate_threshold: threshold,
        ..Default::default()
    };
    if w.driver == Driver::Bucketed {
        cfg.bucket_width = auto_bucket_width(&input.graph);
        cfg.bucket_mode = BucketMode::Det;
        cfg.bucket_adapt = true;
    }
    cfg
}

/// Binds `$program` to the workload's Cyclops program and `$wrap` to the
/// constructor that erases its value type, then evaluates `$body` — the
/// four programs have three different value types, and closures cannot be
/// generic over them.
macro_rules! with_program {
    ($w:expr, $input:expr, |$program:ident, $wrap:ident| $body:expr) => {
        match $w.algo {
            Algo::PageRank { epsilon, .. } => {
                let $program = CyclopsPageRank { epsilon };
                let $wrap = Values::F64;
                $body
            }
            Algo::Sssp => {
                let $program = CyclopsSssp {
                    source: $input.source,
                };
                let $wrap = Values::F64;
                $body
            }
            Algo::Als { .. } => {
                let $program = CyclopsAls { params: $input.als };
                let $wrap = Values::Factors;
                $body
            }
            Algo::Cd { .. } => {
                let $program = CyclopsCommunityDetection;
                let $wrap = Values::U32;
                $body
            }
        }
    };
}

/// One call of the workload's own driver: the thing `run_s` times.
pub fn run(
    w: &Workload,
    input: &Input,
    part: &EdgeCutPartition,
    plan: &CyclopsPlan,
    threshold: u32,
) -> Outcome {
    let cfg = engine_config(w, input, threshold);
    with_program!(w, input, |program, wrap| drive(
        w, &program, input, part, plan, &cfg, wrap
    ))
}

fn drive<P: CyclopsProgram>(
    w: &Workload,
    program: &P,
    input: &Input,
    part: &EdgeCutPartition,
    plan: &CyclopsPlan,
    cfg: &CyclopsConfig,
    wrap: fn(Vec<P::Value>) -> Values,
) -> Outcome {
    let start = Instant::now();
    match w.driver {
        Driver::Plain | Driver::Bucketed => {
            let r = run_cyclops_with_plan(program, &input.graph, plan, cfg, None);
            let wall = start.elapsed();
            let mut out = Outcome::of(wall, [&r]);
            out.values = wrap(r.values);
            out
        }
        Driver::Migrated { every } => {
            let (r, report) = run_cyclops_migrated(
                program,
                &input.graph,
                part,
                cfg,
                every,
                MigrationConfig::default(),
            );
            let wall = start.elapsed();
            // The driver already merged its epochs into one result.
            let mut out = Outcome::of(wall, [&r]);
            out.values = wrap(r.values);
            out.epochs = report.epochs as u64;
            out.migration_moves = report.migrations_total as u64;
            out.migration_bytes = report.migrated_bytes as u64;
            out.wire_bytes += report.migrated_bytes as u64;
            out
        }
        Driver::Evolving { .. } => {
            let k = w.cluster.num_workers();
            let r = run_cyclops_evolving(
                program,
                &input.graph,
                |g| HashPartitioner.partition(g, k),
                cfg,
                &input.batches,
            );
            let wall = start.elapsed();
            let mut out = Outcome::of(wall, &r.epochs);
            out.values = wrap(r.final_values().to_vec());
            out
        }
    }
}

/// The workload's program on the prebuilt plan with no migration and no
/// mutation — the run the trace-overhead pair times, and the run migrated
/// values must equal bitwise. With `traced`, a values-mode sink is installed
/// and handed back for [`trace_shape`].
pub fn run_plain(
    w: &Workload,
    input: &Input,
    plan: &CyclopsPlan,
    threshold: u32,
    traced: bool,
) -> (Outcome, Option<TraceSink>) {
    let cfg = engine_config(w, input, threshold);
    with_program!(w, input, |program, wrap| {
        let sink = traced.then(|| TraceSink::with_values("cyclops", &cfg.cluster));
        let start = Instant::now();
        let r =
            run_cyclops_with_plan_traced(&program, &input.graph, plan, &cfg, None, sink.as_ref());
        let wall = start.elapsed();
        let mut out = Outcome::of(wall, [&r]);
        out.values = wrap(r.values);
        (out, sink)
    })
}

/// `(records, jsonl_bytes)` of a finished run's trace: what the observer
/// would have written, measured without writing it.
pub fn trace_shape(mut sink: TraceSink) -> (u64, u64) {
    let records = sink.take_records();
    let mut line = String::new();
    let mut bytes = 0u64;
    for rec in &records {
        line.clear();
        rec.to_json(&mut line);
        bytes += line.len() as u64 + 1;
    }
    (records.len() as u64, bytes)
}

/// What the validators compare a run against.
pub struct Reference {
    /// Output of the single-thread reference implementation.
    pub values: Values,
    /// ALS only: the reference factors' RMSE on the observed ratings.
    pub rmse: f64,
}

/// Runs the independent single-thread reference of the workload's algorithm
/// (`cyclops_graph::reference`, `als::reference_als`).
pub fn reference_run(w: &Workload, input: &Input) -> Reference {
    let g = &input.graph;
    let plain = |values| Reference { values, rmse: 0.0 };
    match (w.algo, w.driver) {
        (Algo::PageRank { .. }, Driver::Evolving { .. }) => {
            // The fixed point of the final topology, to well below the
            // engine's own stopping threshold.
            let mut graph = g.clone();
            for (batch, _) in &input.batches {
                graph = apply_mutations(&graph, batch);
            }
            plain(Values::F64(reference::pagerank(&graph, 1e-13, 1000).0))
        }
        (
            Algo::PageRank {
                epsilon,
                max_supersteps,
            },
            _,
        ) => plain(Values::F64(
            reference::pagerank(g, epsilon, max_supersteps).0,
        )),
        (Algo::Sssp, _) => plain(Values::F64(reference::sssp(g, input.source))),
        (Algo::Als { iterations }, _) => {
            let factors = reference_als(g, input.als, iterations);
            Reference {
                rmse: rating_rmse(g, &factors),
                values: Values::Factors(factors),
            }
        }
        (Algo::Cd { sweeps }, _) => plain(Values::U32(reference::label_propagation(g, sweeps))),
    }
}

/// Checks a run's values against the reference. The rules are the issue's:
/// PageRank L1 ≤ 1e-9, SSSP ≤ 1e-9 per vertex, ALS RMSE ≤ reference + 1e-6,
/// CD labels equal; the evolving run within `2 · n · ε / (1 − d)` (L1) of
/// the final graph's fixed point. Every vertex may stop within ε of its own
/// fixed-point equation, and the damped sweep amplifies a residual by at
/// most `1 / (1 − d)`: that is the first `n · ε / (1 − d)`, and a cold run
/// uses three quarters of it. The second is for moves smaller than ε, which
/// are never published and which nine epochs pile up instead of one: at
/// full size they bring the run back to 0.7 of the first term, at an eighth
/// of the size to 1.2 of it. Nothing else is allowed for: the fixed point
/// of the unmutated graph is 4.6 tolerances away.
pub fn validate(w: &Workload, input: &Input, values: &Values, r: &Reference) -> Result<(), String> {
    match (w.algo, values, &r.values) {
        (Algo::PageRank { epsilon, .. }, Values::F64(got), Values::F64(want)) => {
            if got.len() != want.len() {
                return Err(format!("{} ranks, reference has {}", got.len(), want.len()));
            }
            let tolerance = match w.driver {
                Driver::Evolving { .. } => 2.0 * want.len() as f64 * epsilon / (1.0 - DAMPING),
                _ => 1e-9,
            };
            let l1 = reference::l1_distance(got, want);
            if l1 <= tolerance {
                Ok(())
            } else {
                Err(format!("pagerank L1 {l1:e} > {tolerance:e}"))
            }
        }
        (Algo::Sssp, Values::F64(got), Values::F64(want)) => {
            if got.len() != want.len() {
                return Err(format!(
                    "{} distances, reference has {}",
                    got.len(),
                    want.len()
                ));
            }
            match got
                .iter()
                .zip(want)
                .position(|(a, b)| !(a == b || (a - b).abs() <= 1e-9))
            {
                None => Ok(()),
                Some(v) => Err(format!("sssp vertex {v}: {} vs {}", got[v], want[v])),
            }
        }
        (Algo::Als { .. }, Values::Factors(got), _) => {
            let rmse = rating_rmse(&input.graph, got);
            if rmse <= r.rmse + 1e-6 {
                Ok(())
            } else {
                Err(format!("als rmse {rmse} > reference {}", r.rmse))
            }
        }
        (Algo::Cd { .. }, Values::U32(got), Values::U32(want)) => {
            match got.iter().zip(want).position(|(a, b)| a != b) {
                None if got.len() == want.len() => Ok(()),
                None => Err("cd label count differs".into()),
                Some(v) => Err(format!("cd vertex {v}: label {} vs {}", got[v], want[v])),
            }
        }
        _ => Err("value type does not match the algorithm".into()),
    }
}

/// One Hama (BSP) run of the same algorithm on the same cut.
pub struct HamaOutcome {
    pub wall_s: f64,
    pub messages: u64,
    pub wire_bytes: u64,
    pub values: Values,
}

pub fn run_hama(w: &Workload, input: &Input, part: &EdgeCutPartition) -> HamaOutcome {
    fn go<P: BspProgram>(
        program: &P,
        input: &Input,
        part: &EdgeCutPartition,
        cfg: &BspConfig,
        wrap: fn(Vec<P::Value>) -> Values,
    ) -> HamaOutcome {
        let start = Instant::now();
        let r: BspResult<P::Value, P::Message> = run_bsp(program, &input.graph, part, cfg);
        HamaOutcome {
            wall_s: start.elapsed().as_secs_f64(),
            messages: r.counters.messages as u64,
            wire_bytes: r.counters.bytes as u64,
            values: wrap(r.values),
        }
    }
    let cfg = |max_supersteps, use_combiner| BspConfig {
        cluster: w.cluster,
        max_supersteps,
        use_combiner,
        ..Default::default()
    };
    match w.algo {
        // One seed superstep, then as many sweeps as the Cyclops run.
        Algo::PageRank {
            epsilon,
            max_supersteps,
        } => go(
            &BspPageRank { epsilon },
            input,
            part,
            &cfg(max_supersteps + 1, true),
            Values::F64,
        ),
        Algo::Sssp => go(
            &BspSssp {
                source: input.source,
            },
            input,
            part,
            &cfg(BspConfig::default().max_supersteps, true),
            Values::F64,
        ),
        Algo::Als { iterations } => go(
            &BspAls { params: input.als },
            input,
            part,
            &cfg(iterations * 2 + 1, false),
            Values::Factors,
        ),
        Algo::Cd { sweeps } => go(
            &BspCommunityDetection,
            input,
            part,
            &cfg(sweeps + 1, false),
            Values::U32,
        ),
    }
}

/// A program that only folds `in_messages()` and keeps the whole frontier
/// awake: its CMP time is the cost of reading the immutable view, with no
/// user math and no convergence.
struct GatherProbe;

impl CyclopsProgram for GatherProbe {
    type Value = f64;
    type Message = f64;

    fn init(&self, _v: VertexId, _g: &Graph) -> f64 {
        0.0
    }

    fn init_message(&self, _v: VertexId, _g: &Graph, _value: &f64) -> Option<f64> {
        Some(1.0)
    }

    fn compute(&self, ctx: &mut CyclopsContext<'_, f64, f64>) {
        let sum: f64 = ctx.in_messages().map(|(m, _)| *m).sum();
        ctx.set_value(sum);
        ctx.activate_neighbors(1.0);
    }
}

const GATHER_SUPERSTEPS: usize = 4;

/// In-edges read through the view per CMP thread-second. Every superstep
/// gathers each in-edge once: superstep 0 starts all-active, and every
/// vertex with an in-edge is re-activated by it.
pub fn gather_probe(w: &Workload, input: &Input, plan: &CyclopsPlan, threshold: u32) -> f64 {
    let cfg = CyclopsConfig {
        cluster: w.cluster,
        max_supersteps: GATHER_SUPERSTEPS,
        replicate_threshold: threshold,
        ..Default::default()
    };
    let r = run_cyclops_with_plan(&GatherProbe, &input.graph, plan, &cfg, None);
    let cmp: Duration = r.stats.iter().map(|s| s.phase_times.compute).sum();
    (r.stats.len() * input.graph.num_edges()) as f64 / cmp.as_secs_f64().max(1e-9)
}

/// Throughput of the wire layers alone, on a batch shaped like the
/// workload's replica traffic.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireDrive {
    pub encode_mb_s: f64,
    pub decode_mb_s: f64,
    pub bytes_per_update: f64,
    pub send_drain_mb_s: f64,
}

/// Drives codec and transport in isolation for `budget` each. The batch is
/// worker 0's mirror list toward worker 1, thinned to `density` (the share
/// of mirrors the workload's run actually updated per superstep), with the
/// workload's payload type. All zero when the cluster has no second worker.
pub fn wire_drive(w: &Workload, plan: &CyclopsPlan, density: f64, budget: Duration) -> WireDrive {
    let Some(ids) = mirror_ids(plan, density) else {
        return WireDrive::default();
    };
    let spec = w.cluster;
    match w.algo {
        Algo::PageRank { .. } | Algo::Sssp => drive_wire(spec, &ids, 0.5f64, budget),
        Algo::Cd { .. } => drive_wire(spec, &ids, 7u32, budget),
        Algo::Als { .. } => drive_wire(spec, &ids, vec![0.25f64; ALS_DIM], budget),
    }
}

fn mirror_ids(plan: &CyclopsPlan, density: f64) -> Option<Vec<u32>> {
    if plan.workers.len() < 2 {
        return None;
    }
    let sender = &plan.workers[0];
    let all: Vec<u32> = (0..sender.num_masters())
        .flat_map(|li| sender.mirrors(li))
        .filter(|&&(dest, _)| dest == 1)
        .map(|&(_, replica)| replica)
        .collect();
    if all.is_empty() {
        return None;
    }
    let stride = (1.0 / density.clamp(1e-6, 1.0)).round().max(1.0) as usize;
    Some(all.into_iter().step_by(stride).collect())
}

fn drive_wire<M: Codec + Clone + Send>(
    spec: ClusterSpec,
    ids: &[u32],
    payload: M,
    budget: Duration,
) -> WireDrive {
    let batch: Vec<ReplicaUpdate<M>> = ids
        .iter()
        .map(|&id| ReplicaUpdate::new(id, payload.clone(), true))
        .collect();
    // Small batches are nanoseconds each: repeat them between clock reads.
    let reps = (4096 / batch.len()).max(1);

    let mut msgs = batch.clone();
    let mut buf = BytesMut::new();
    let (mut bytes, start) = (0usize, Instant::now());
    while start.elapsed() < budget {
        for _ in 0..reps {
            ReplicaUpdate::wire_encode_batch_into(&mut buf, &mut msgs);
            bytes += black_box(buf.len());
        }
    }
    let encode_mb_s = bytes as f64 / 1e6 / start.elapsed().as_secs_f64();
    let encoded = buf.len();

    let (mut bytes, start) = (0usize, Instant::now());
    while start.elapsed() < budget {
        for _ in 0..reps {
            let decoded = ReplicaUpdate::<M>::wire_try_decode_batch(&mut &buf[..])
                .expect("a batch this crate just encoded decodes");
            bytes += encoded;
            black_box(decoded);
        }
    }
    let decode_mb_s = bytes as f64 / 1e6 / start.elapsed().as_secs_f64();

    // Sender lane 0 is worker 0's only thread; worker 1 drains the next
    // epoch, as the engine's PRS phase does. The clone of the batch is part
    // of the figure (the engine builds a fresh Vec per flush too).
    let transport: Transport<ReplicaUpdate<M>> = Transport::new(spec, InboxMode::Sharded);
    let (mut bytes, mut epoch, start) = (0usize, 0usize, Instant::now());
    while start.elapsed() < budget {
        for _ in 0..reps {
            bytes += transport.send(0, 1, batch.clone(), epoch).bytes;
            black_box(transport.drain_lanes(1, epoch + 1));
            epoch += 1;
        }
    }
    let send_drain_mb_s = bytes as f64 / 1e6 / start.elapsed().as_secs_f64();

    WireDrive {
        encode_mb_s,
        decode_mb_s,
        bytes_per_update: encoded as f64 / batch.len() as f64,
        send_drain_mb_s,
    }
}

/// Nanoseconds per barrier round on the barrier the engine builds for this
/// cluster (`HierarchicalBarrier::new(workers, threads_per_worker)`), with
/// every engine thread waiting and nothing else to do.
pub fn barrier_drive(w: &Workload, rounds: usize) -> f64 {
    let spec = w.cluster;
    let barrier = HierarchicalBarrier::new(spec.num_workers(), spec.threads_per_worker);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for machine in 0..spec.num_workers() {
            for thread in 0..spec.threads_per_worker {
                let barrier = &barrier;
                scope.spawn(move || {
                    for _ in 0..rounds {
                        barrier.wait(machine, thread);
                    }
                });
            }
        }
    });
    start.elapsed().as_nanos() as f64 / rounds as f64
}

/// A full ledger (every vertex charged its degree) and the time the
/// migration planner takes to plan one boundary from it.
pub fn plan_moves_drive(graph: &Graph, plan: &CyclopsPlan) -> f64 {
    let ledger = degree_ledger(graph);
    let planner = MigrationPlanner::new(MigrationConfig::default());
    let start = Instant::now();
    black_box(planner.plan(&ledger, &plan.owner, plan.workers.len()));
    start.elapsed().as_secs_f64()
}

fn degree_ledger(graph: &Graph) -> LoadLedger {
    let ledger = LoadLedger::new(graph.num_vertices());
    for v in graph.vertices() {
        ledger.record(v, (graph.in_degree(v) + graph.out_degree(v)) as u64);
    }
    ledger
}

/// Time of one incremental `apply_migration` on a copy of the plan, for the
/// batch the planner picks from a degree ledger (the skewed cut guarantees
/// there is one).
pub fn apply_migration_drive(graph: &Graph, plan: &CyclopsPlan, threshold: u32) -> f64 {
    let ledger = degree_ledger(graph);
    let batch = MigrationPlanner::new(MigrationConfig::default()).plan(
        &ledger,
        &plan.owner,
        plan.workers.len(),
    );
    let mut copy = plan.clone();
    let start = Instant::now();
    apply_migration(&mut copy, graph, &batch, threshold);
    let elapsed = start.elapsed().as_secs_f64();
    black_box(copy);
    elapsed
}

/// `(apply_s, rebuild_s)`: the evolving driver's two costs outside the
/// superstep loop, replayed alone — `apply_mutations` per batch, and the
/// re-partition plus full plan build of each mutated graph.
pub fn mutation_drive(w: &Workload, input: &Input) -> (f64, f64) {
    let (mut apply_s, mut rebuild_s) = (0.0, 0.0);
    let mut graph = input.graph.clone();
    for (batch, _) in &input.batches {
        let start = Instant::now();
        graph = apply_mutations(&graph, batch);
        apply_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let part = HashPartitioner.partition(&graph, w.cluster.num_workers());
        black_box(build_plan(&graph, &part, 0));
        rebuild_s += start.elapsed().as_secs_f64();
    }
    (apply_s, rebuild_s)
}
