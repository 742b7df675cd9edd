//! One oracle for every engine dial.
//!
//! Cyclops keeps BSP's "synchronous and deterministic nature" (§3), so every
//! legal setting of the engine's dials must give bitwise the values of one
//! canonical run. A case draws a shipped program, a small generated graph, a
//! worker count and a cut, and then every dial: the machines × workers split
//! and the threads and receivers per worker, the replication threshold, the
//! schedule (per-hop, or bucketed at a fixed or adaptive width for the
//! programs with a `priority()`), a checkpoint interval and a migration
//! epoch — only in the combinations the CLI accepts. The canonical run is
//! the same program, graph and cut on `flat(k, 1)`, threshold 0, per-hop,
//! traced in values mode; an sssp, bfs or cc canonical run must pass its
//! `reference::certify_*` checker. Checks:
//!
//! 1. final values are bitwise equal to the canonical run's;
//! 2. a per-hop case has the canonical superstep count and a values-mode
//!    trace with no `first_value_divergence`;
//! 3. the case rerun on the same split with other thread and receiver
//!    counts has no `first_divergence(a, b, true)`;
//! 4. hybrid accounting: threshold 0 messages nothing; replicated + messaged
//!    boundary is the canonical replicated boundary; the replication factor
//!    is no higher than the canonical one (without migration, whose last
//!    plan it reports); `u32::MAX` leaves no replica; a bucketed case sends
//!    direct messages exactly when the per-hop run at its threshold does;
//! 5. a resume from each checkpoint the case captured gives its values and
//!    superstep count.
//!
//! A failing case is printed with a reduced case: each dial is reset to its
//! canonical value in turn, and a reset is kept while the case still fails.
//! The tier-1 test runs a fixed number of cases and asserts they moved
//! vertices, fused rounds, sent direct messages and resumed; an ignored
//! wide twin runs many more (`cargo test --release --test settings_oracle
//! -- --ignored`). `tests/engine_oracle.rs` pins runs across commits; this
//! pins them across settings.
//!
//! It draws over every dial what these hand-written tests pin at fixed
//! points, which stay as named regressions:
//! - `bucketed_equivalence.rs`: bucketed sssp at thresholds 0 / 2 /
//!   `u32::MAX` (checks 1 and 4) and its trace across thread counts (3).
//! - `migration.rs`: migration every 4 or 8 on the 60 % cut (1, 2 and 3).
//! - `hybrid_replication.rs`: pagerank, sssp and cc at thresholds 2 / 8 /
//!   auto (1, 2 and 4), the hybrid trace across thread counts (3), and all
//!   eight programs at thresholds 2 / `u32::MAX` (1, 2 and 4).
//! - `determinism_and_faults.rs`: repeated and multi-threaded runs (1 and
//!   3) and a resume from every checkpoint (5).
//! - `cross_engine.rs`: the machines × workers split, threads and receivers
//!   against the flat run (1).
//!
//! The `cyclops-engine` unit tests it replaces:
//! `hybrid_thresholds_match_full_replication_{classic,bucketed}` (1, 2 and
//! 4; the coverage guard for direct messages),
//! `{bucketed,adaptive_bucketed}_runs_agree_across_cluster_shapes` (1 and 3;
//! the superstep count across worker counts moved into the kept
//! `adaptive_bucketed_sssp_matches_classic_bitwise`),
//! `{,bucketed_}checkpoint_resume_matches_full_run` (5), and
//! `flat_and_mt_agree` (values across worker counts, still asserted by the
//! kept `mt_reduces_replicas_and_messages`).

use cyclops::prelude::*;
use cyclops_algos::als::{AlsParams, CyclopsAls};
use cyclops_algos::bfs::CyclopsBfs;
use cyclops_algos::cc::{symmetrize, CyclopsComponents};
use cyclops_algos::cd::CyclopsCommunityDetection;
use cyclops_algos::kcore::CyclopsKCore;
use cyclops_algos::sssp::{auto_bucket_width, CyclopsSssp};
use cyclops_algos::triangles::CyclopsTriangles;
use cyclops_engine::{
    run_cyclops_from_checkpoint, run_cyclops_migrated_traced, run_cyclops_traced, CyclopsProgram,
    CyclopsResult,
};
use cyclops_graph::gen::{bipartite_ratings, rmat, road_lattice, RmatConfig};
use cyclops_graph::reference::{certify_bfs, certify_components, certify_sssp};
use cyclops_net::trace::{diff, RunTrace, TraceSink};
use cyclops_partition::{EdgeCutPartition, MigrationConfig};
use proptest::prelude::*;
use proptest::TestRng;
use std::fmt::Debug;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Program {
    PageRank,
    Sssp,
    Bfs,
    Cc,
    Cd,
    Als,
    KCore,
    Triangles,
}

const PROGRAMS: [Program; 8] = [
    Program::PageRank,
    Program::Sssp,
    Program::Bfs,
    Program::Cc,
    Program::Cd,
    Program::Als,
    Program::KCore,
    Program::Triangles,
];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Cut {
    Hash,
    /// Hash, then the first 60 % of the ids piled onto worker 0 (`--skew 0.6`).
    Skewed,
    Multilevel,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Threshold {
    Fixed(u32),
    Auto,
}

const THRESHOLDS: [Threshold; 5] = [
    Threshold::Fixed(0),
    Threshold::Fixed(2),
    Threshold::Fixed(8),
    Threshold::Auto,
    Threshold::Fixed(u32::MAX),
];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Schedule {
    PerHop,
    /// Bucketed at a fixed width: this fraction of the `auto` one.
    Fixed(f64),
    /// The CLI's `--bucket-width auto`.
    Auto,
}

/// One legal setting of every dial, over one program, graph and cut.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Case {
    program: Program,
    graph_seed: u64,
    workers: usize,
    cut: Cut,
    machines: usize,
    threads: usize,
    receivers: usize,
    threshold: Threshold,
    schedule: Schedule,
    checkpoint_every: Option<usize>,
    migrate_every: Option<usize>,
}

/// The legal settings. Bucketing is for the programs with a `priority()`,
/// migration for pagerank and sssp on the per-hop schedule, as in the CLI;
/// a migrated run's checkpoints are its epoch boundaries, so it draws none.
fn settings() -> impl Strategy<Value = Case> {
    let input = (0..PROGRAMS.len(), 0u64..1 << 20, 2usize..5, 0usize..3);
    let cluster = (0usize..3, 1usize..4, 0usize..3, 0..THRESHOLDS.len());
    let schedule = (0usize..3, 0usize..3, 0usize..3);
    (input, cluster, schedule).prop_map(|(input, cluster, schedule)| {
        let (program, graph_seed, workers, cut) = input;
        let (split, threads, receivers, threshold) = cluster;
        let (bucketing, checkpoint, migration) = schedule;
        let program = PROGRAMS[program];
        let splits: Vec<usize> = (1..=workers).filter(|m| workers % m == 0).collect();
        let schedule = match (program, bucketing) {
            (Program::Sssp | Program::Bfs, 1) => Schedule::Fixed(0.5),
            (Program::Sssp | Program::Bfs, 2) => Schedule::Auto,
            _ => Schedule::PerHop,
        };
        let migrates =
            matches!(program, Program::PageRank | Program::Sssp) && schedule == Schedule::PerHop;
        let migrate_every = [None, Some(4), Some(8)][migration].filter(|_| migrates);
        Case {
            program,
            graph_seed,
            workers,
            cut: [Cut::Hash, Cut::Skewed, Cut::Multilevel][cut],
            machines: splits[split % splits.len()],
            threads,
            receivers: 1 + receivers % threads,
            threshold: THRESHOLDS[threshold],
            schedule,
            checkpoint_every: [None, Some(3), Some(7)][checkpoint]
                .filter(|_| migrate_every.is_none()),
            migrate_every,
        }
    })
}

/// What the cases of a run reached, for the coverage guard.
#[derive(Clone, Copy, Debug, Default)]
struct Reached {
    moved: bool,
    fused: bool,
    direct: bool,
    resumed: bool,
}

/// Fails the enclosing check with a message.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// A web-like multigraph with hubs, self-loops and repeated edges.
fn web(seed: u64) -> Graph {
    let config = RmatConfig {
        scale: 8,
        edges: 1500,
        simple: false,
        ..Default::default()
    };
    rmat(config, seed)
}

/// Runs the case's program on its graph: the program and its graph family,
/// superstep cap, `auto` bucket width and the certificate its canonical run
/// must pass are fixed per program, the rest is the case's.
fn check(case: &Case) -> Result<Reached, String> {
    let road = || road_lattice(12, 12, 0.9, 0.1, case.graph_seed);
    match case.program {
        Program::PageRank => {
            let program = CyclopsPageRank { epsilon: 1e-6 };
            check_program(&program, &web(case.graph_seed), case, 30, 1.0, |_| Ok(()))
        }
        Program::Sssp => {
            let g = road();
            let auto = auto_bucket_width(&g);
            let certificate = |d: &[f64]| certify_sssp(&g, 0, d);
            check_program(
                &CyclopsSssp { source: 0 },
                &g,
                case,
                1_000,
                auto,
                certificate,
            )
        }
        Program::Bfs => {
            let g = road();
            let certificate = |levels: &[u32]| certify_bfs(&g, 0, levels);
            check_program(&CyclopsBfs { source: 0 }, &g, case, 1_000, 1.0, certificate)
        }
        Program::Cc => {
            let g = symmetrize(&web(case.graph_seed));
            let certificate = |labels: &[u32]| certify_components(&g, labels);
            check_program(&CyclopsComponents, &g, case, 1_000, 1.0, certificate)
        }
        Program::Cd => check_program(
            &CyclopsCommunityDetection,
            &web(case.graph_seed),
            case,
            10,
            1.0,
            |_| Ok(()),
        ),
        Program::Als => {
            let (g, users) = bipartite_ratings(48, 12, 200, 0.9, case.graph_seed);
            let params = AlsParams {
                users,
                dim: 4,
                lambda: 0.1,
            };
            // Two supersteps per ALS iteration.
            check_program(&CyclopsAls { params }, &g, case, 6, 1.0, |_| Ok(()))
        }
        Program::KCore => {
            let g = symmetrize(&web(case.graph_seed));
            check_program(&CyclopsKCore, &g, case, 1_000, 1.0, |_| Ok(()))
        }
        Program::Triangles => {
            let g = symmetrize(&web(case.graph_seed));
            check_program(&CyclopsTriangles, &g, case, 4, 1.0, |_| Ok(()))
        }
    }
}

/// A run, its values-mode trace and how many vertices it migrated.
struct Ran<V, M> {
    result: CyclopsResult<V, M>,
    trace: RunTrace,
    moves: usize,
}

fn run<P: CyclopsProgram>(
    program: &P,
    g: &Graph,
    p: &EdgeCutPartition,
    config: &CyclopsConfig,
    migrate_every: Option<usize>,
) -> Ran<P::Value, P::Message> {
    let mut sink = TraceSink::with_values("cyclops", &config.cluster);
    let (result, moves) = match migrate_every {
        Some(every) => {
            let migration = MigrationConfig::default();
            let (r, report) =
                run_cyclops_migrated_traced(program, g, p, config, every, migration, Some(&sink));
            (r, report.migrations_total)
        }
        None => (run_cyclops_traced(program, g, p, config, Some(&sink)), 0),
    };
    let trace = RunTrace {
        spans: Vec::new(),
        mem: Vec::new(),
        meta: sink.meta().clone(),
        records: sink.take_records(),
    };
    Ran {
        result,
        trace,
        moves,
    }
}

/// Bitwise equality through `Debug`: a float's `Debug` is its shortest
/// round-trip form, so equal text is equal bits for every value type the
/// programs use.
fn same_values<V: Debug>(a: &[V], b: &[V], what: &str) -> Result<(), String> {
    ensure!(
        a.len() == b.len(),
        "{what}: {} vs {} values",
        a.len(),
        b.len()
    );
    for (v, (x, y)) in a.iter().zip(b).enumerate() {
        let (x, y) = (format!("{x:?}"), format!("{y:?}"));
        ensure!(x == y, "{what}: vertex {v} is {x} vs {y}");
    }
    Ok(())
}

fn check_program<P: CyclopsProgram>(
    program: &P,
    g: &Graph,
    case: &Case,
    max_supersteps: usize,
    auto_width: f64,
    certificate: impl Fn(&[P::Value]) -> Result<(), String>,
) -> Result<Reached, String>
where
    P::Value: Debug,
{
    let k = case.workers;
    let mut p = match case.cut {
        Cut::Multilevel => MultilevelPartitioner::default().partition(g, k),
        Cut::Hash | Cut::Skewed => HashPartitioner.partition(g, k),
    };
    if case.cut == Cut::Skewed {
        let cut = g.num_vertices() * 6 / 10;
        p.assignment[..cut].fill(0);
    }
    let canonical = CyclopsConfig {
        cluster: ClusterSpec::flat(k, 1),
        max_supersteps,
        ..Default::default()
    };
    let base = run(program, g, &p, &canonical, None);
    certificate(&base.result.values).map_err(|e| format!("canonical run: {e}"))?;
    let threshold = match case.threshold {
        Threshold::Fixed(t) => t,
        Threshold::Auto => p.auto_replicate_threshold(g),
    };
    let cluster = ClusterSpec {
        machines: case.machines,
        workers_per_machine: k / case.machines,
        threads_per_worker: case.threads,
        receivers_per_worker: case.receivers,
    };
    let per_hop = CyclopsConfig {
        cluster,
        replicate_threshold: threshold,
        ..canonical.clone()
    };
    let config = CyclopsConfig {
        checkpoint_every: case.checkpoint_every,
        ..match case.schedule {
            Schedule::PerHop => per_hop.clone(),
            Schedule::Fixed(fraction) => CyclopsConfig {
                bucket_width: fraction * auto_width,
                ..per_hop.clone()
            },
            // sssp seeds the width at eight mean weights and retunes it; bfs
            // drains one hop ring per bucket.
            Schedule::Auto => CyclopsConfig {
                bucket_width: auto_width,
                bucket_adapt: case.program == Program::Sssp,
                ..per_hop.clone()
            },
        }
    };
    let ran = run(program, g, &p, &config, case.migrate_every);
    let (r, b) = (&ran.result, &base.result);

    // 1. Values.
    same_values(&b.values, &r.values, "values vs the canonical run")?;

    // 2. Per-hop schedule.
    if case.schedule == Schedule::PerHop {
        ensure!(
            r.supersteps == b.supersteps,
            "{} supersteps vs the canonical {}",
            r.supersteps,
            b.supersteps
        );
        let divergence = diff::first_value_divergence(&base.trace, &ran.trace);
        ensure!(divergence.is_none(), "values-mode trace: {divergence:?}");
    }

    // 3. Other thread and receiver counts on the same split.
    let threads = case.threads % 3 + 1;
    let other = CyclopsConfig {
        cluster: ClusterSpec {
            threads_per_worker: threads,
            receivers_per_worker: threads,
            ..cluster
        },
        ..config.clone()
    };
    let rerun = run(program, g, &p, &other, case.migrate_every);
    same_values(&r.values, &rerun.result.values, "values of the rerun")?;
    let divergence = diff::first_divergence(&ran.trace, &rerun.trace, true);
    ensure!(
        divergence.is_none(),
        "rerun on {}: {divergence:?}",
        other.cluster
    );

    // 4. Hybrid accounting.
    let (ing, base_ing) = (&r.ingress, &b.ingress);
    if threshold == 0 {
        ensure!(
            r.direct_messages == 0 && ing.messaged_boundary == 0,
            "threshold 0 sent {} direct messages",
            r.direct_messages
        );
    }
    ensure!(
        ing.replicated_boundary + ing.messaged_boundary == base_ing.replicated_boundary,
        "boundary split {} + {} vs {}",
        ing.replicated_boundary,
        ing.messaged_boundary,
        base_ing.replicated_boundary
    );
    if case.migrate_every.is_none() {
        ensure!(
            r.replication_factor
                .total_cmp(&b.replication_factor)
                .is_le(),
            "replication factor {} vs the canonical {}",
            r.replication_factor,
            b.replication_factor
        );
    }
    if threshold == u32::MAX {
        ensure!(
            ing.total_replicas == 0 && r.replication_factor == 0.0,
            "u32::MAX left {} replicas",
            ing.total_replicas
        );
    }
    if case.schedule != Schedule::PerHop {
        let hop = run(program, g, &p, &per_hop, None).result;
        ensure!(
            (r.direct_messages > 0) == (hop.direct_messages > 0),
            "bucketed sent {} direct messages, per-hop {}",
            r.direct_messages,
            hop.direct_messages
        );
    }

    // 5. Resume from every checkpoint.
    let resume_config = CyclopsConfig {
        checkpoint_every: None,
        ..config.clone()
    };
    for cp in &r.checkpoints {
        let resumed = run_cyclops_from_checkpoint(program, g, &p, &resume_config, cp);
        let what = format!("resume from superstep {}", cp.superstep);
        same_values(&r.values, &resumed.values, &what)?;
        ensure!(
            resumed.supersteps == r.supersteps,
            "{what}: {} supersteps vs {}",
            resumed.supersteps,
            r.supersteps
        );
    }

    Ok(Reached {
        moved: ran.moves > 0,
        fused: ran.trace.records.iter().any(|rec| rec.fused > 1),
        direct: r.direct_messages > 0,
        resumed: !r.checkpoints.is_empty(),
    })
}

/// A case's outcome, with an engine panic counted as a failure.
fn outcome(case: &Case) -> Result<Reached, String> {
    std::panic::catch_unwind(|| check(case)).unwrap_or_else(|panic| {
        let msg = (panic.downcast_ref::<String>().cloned())
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
        Err(format!("panicked: {}", msg.unwrap_or_default()))
    })
}

/// Resets each dial to its canonical value in turn, keeping a reset while
/// the case still fails; returns the reduced case and its failure.
fn reduce(mut case: Case, mut failure: String) -> (Case, String) {
    let resets: [fn(&mut Case); 7] = [
        |c| c.migrate_every = None,
        |c| c.schedule = Schedule::PerHop,
        |c| c.checkpoint_every = None,
        |c| c.threshold = Threshold::Fixed(0),
        |c| c.machines = c.workers,
        |c| c.receivers = 1,
        |c| c.threads = 1,
    ];
    for reset in resets {
        let mut candidate = case;
        reset(&mut candidate);
        candidate.receivers = candidate.receivers.min(candidate.threads);
        if candidate != case {
            if let Err(e) = outcome(&candidate) {
                (case, failure) = (candidate, e);
            }
        }
    }
    (case, failure)
}

/// Checks `cases` settings drawn from a generator seeded by `name`.
fn run_oracle(name: &str, cases: u32) -> Reached {
    let mut rng = TestRng::from_name(name);
    let strategy = settings();
    let mut reached = Reached::default();
    for i in 0..cases {
        let case = strategy.generate(&mut rng);
        match outcome(&case) {
            Ok(r) => {
                reached.moved |= r.moved;
                reached.fused |= r.fused;
                reached.direct |= r.direct;
                reached.resumed |= r.resumed;
            }
            Err(failure) => {
                let (reduced, why) = reduce(case, failure.clone());
                panic!(
                    "case {i} fails: {failure}\n  case:    {case:?}\n  \
                     reduced: {reduced:?}\n  which fails: {why}"
                );
            }
        }
    }
    reached
}

#[test]
fn every_legal_setting_matches_the_canonical_run() {
    let reached = run_oracle("settings_oracle", 64);
    assert!(
        reached.moved && reached.fused && reached.direct && reached.resumed,
        "the cases must move vertices, fuse rounds, message directly and resume: {reached:?}"
    );
}

#[test]
#[ignore = "wide: cargo test --release --test settings_oracle -- --ignored"]
fn every_legal_setting_matches_the_canonical_run_wide() {
    run_oracle("settings_oracle_wide", 1_000);
}
