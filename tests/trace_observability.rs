//! Regression tests for the superstep-trace observability layer.
//!
//! Three properties: (1) all three engines emit one trace record per
//! superstep × worker and agree on superstep counts for the same fixed-
//! iteration run; (2) `trace::diff` pinpoints a seeded single-vertex
//! perturbation down to the exact superstep, worker, and vertex; (3)
//! checkpoint-resume stays deterministic on a CyclopsMT cluster whose
//! R > 1 receiver threads split each worker's sender lanes.

use cyclops::prelude::*;
use cyclops_algos::pagerank::{BspPageRank, CyclopsPageRank, GasPageRank};
use cyclops_algos::sssp::{auto_bucket_width, CyclopsSssp};
use cyclops_bsp::{run_bsp_traced, BspConfig, BspResult};
use cyclops_engine::{
    run_cyclops, run_cyclops_from_checkpoint, run_cyclops_traced, Convergence, CyclopsConfig,
    CyclopsContext, CyclopsProgram, CyclopsResult,
};
use cyclops_gas::{run_gas_traced, GasConfig, GasResult};
use cyclops_net::trace::{diff, read_jsonl, RunTrace, TraceSink};
use cyclops_partition::{
    EdgeCutPartition, RandomVertexCut, VertexCutPartition, VertexCutPartitioner,
};

// PageRank with every vertex kept active (epsilon 0), so each engine runs
// exactly `supersteps`; one traced run per engine.

fn cyclops_pagerank(
    g: &Graph,
    p: &EdgeCutPartition,
    cluster: ClusterSpec,
    supersteps: usize,
    sink: &TraceSink,
) -> CyclopsResult<f64, f64> {
    let config = CyclopsConfig {
        cluster,
        max_supersteps: supersteps,
        ..Default::default()
    };
    run_cyclops_traced(&CyclopsPageRank { epsilon: 0.0 }, g, p, &config, Some(sink))
}

fn bsp_pagerank(
    g: &Graph,
    p: &EdgeCutPartition,
    cluster: ClusterSpec,
    supersteps: usize,
    sink: &TraceSink,
) -> BspResult<f64, f64> {
    let config = BspConfig {
        cluster,
        max_supersteps: supersteps,
        use_combiner: true,
        track_redundant: true,
        ..Default::default()
    };
    run_bsp_traced(&BspPageRank { epsilon: 0.0 }, g, p, &config, Some(sink))
}

fn gas_pagerank(
    g: &Graph,
    p: &VertexCutPartition,
    cluster: ClusterSpec,
    supersteps: usize,
    sink: &TraceSink,
) -> GasResult<f64> {
    let config = GasConfig {
        cluster,
        max_supersteps: supersteps,
    };
    run_gas_traced(&GasPageRank { epsilon: 0.0 }, g, p, &config, Some(sink))
}

fn finish(mut sink: TraceSink) -> RunTrace {
    RunTrace {
        spans: Vec::new(),
        mem: Vec::new(),
        meta: sink.meta().clone(),
        records: sink.take_records(),
    }
}

#[test]
fn engines_emit_identical_superstep_counts_for_the_same_run() {
    let g = Dataset::Amazon.generate_scaled(0.05, 1);
    let cluster = ClusterSpec::flat(2, 2);
    let edge_cut = HashPartitioner.partition(&g, 4);
    let vertex_cut = RandomVertexCut::default().partition(&g, 4);
    let supersteps = 12;

    // epsilon = 0 keeps every vertex active, so each engine runs its full
    // fixed budget and the traces must agree on the superstep count.
    let cy_sink = TraceSink::new("cyclops", &cluster);
    let cy = cyclops_pagerank(&g, &edge_cut, cluster, supersteps, &cy_sink);
    let bsp_sink = TraceSink::new("bsp", &cluster);
    let bsp = bsp_pagerank(&g, &edge_cut, cluster, supersteps, &bsp_sink);
    let gas_sink = TraceSink::new("gas", &cluster);
    let gas = gas_pagerank(&g, &vertex_cut, cluster, supersteps, &gas_sink);

    for (name, trace, ran) in [
        ("cyclops", finish(cy_sink), cy.supersteps),
        ("bsp", finish(bsp_sink), bsp.supersteps),
        ("gas", finish(gas_sink), gas.supersteps),
    ] {
        assert_eq!(
            trace.supersteps(),
            supersteps as u64,
            "{name} superstep count"
        );
        assert_eq!(ran, supersteps, "{name} result superstep count");
        assert_eq!(
            trace.records.len(),
            supersteps * cluster.num_workers(),
            "{name}: one record per superstep x worker"
        );
        // Records arrive sorted by (superstep, worker) with no gaps.
        for (i, r) in trace.records.iter().enumerate() {
            assert_eq!(r.superstep as usize, i / cluster.num_workers(), "{name}");
            assert_eq!(r.worker as usize, i % cluster.num_workers(), "{name}");
        }
    }
}

/// Delegates to [`CyclopsPageRank`] but overwrites one vertex's publication
/// at one superstep — the smallest perturbation the diff must localise.
struct PerturbedPageRank {
    inner: CyclopsPageRank,
    victim: VertexId,
    at: usize,
}

impl CyclopsProgram for PerturbedPageRank {
    type Value = f64;
    type Message = f64;

    fn init(&self, v: VertexId, g: &Graph) -> f64 {
        self.inner.init(v, g)
    }

    fn init_message(&self, v: VertexId, g: &Graph, value: &f64) -> Option<f64> {
        self.inner.init_message(v, g, value)
    }

    fn compute(&self, ctx: &mut CyclopsContext<'_, f64, f64>) {
        self.inner.compute(ctx);
        if ctx.vertex() == self.victim && ctx.superstep() == self.at {
            ctx.activate_neighbors(1.0);
        }
    }
}

#[test]
fn trace_diff_pinpoints_a_seeded_single_vertex_perturbation() {
    let g = Dataset::Amazon.generate_scaled(0.05, 2);
    let cluster = ClusterSpec::flat(2, 2);
    let p = HashPartitioner.partition(&g, 4);
    let victim: VertexId = (0..g.num_vertices() as VertexId)
        .find(|&v| g.out_degree(v) > 0)
        .expect("graph has a vertex with out-edges");
    let at = 3usize;
    let config = CyclopsConfig {
        cluster,
        max_supersteps: 8,
        convergence: Convergence::ActiveVertices,
        ..Default::default()
    };

    // Both runs write the JSONL files the CLI's trace-diff consumes, so the
    // test covers exactly what `cyclops trace-diff` sees.
    let dir = std::env::temp_dir().join(format!("cyclops-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path_a = dir.join("base.jsonl");
    let path_b = dir.join("perturbed.jsonl");
    let (path_a, path_b) = (path_a.to_str().unwrap(), path_b.to_str().unwrap());

    let base_sink = TraceSink::create("cyclops", &cluster, path_a, true).unwrap();
    run_cyclops_traced(
        &CyclopsPageRank { epsilon: 0.0 },
        &g,
        &p,
        &config,
        Some(&base_sink),
    );
    let perturbed_sink = TraceSink::create("cyclops", &cluster, path_b, true).unwrap();
    run_cyclops_traced(
        &PerturbedPageRank {
            inner: CyclopsPageRank { epsilon: 0.0 },
            victim,
            at,
        },
        &g,
        &p,
        &config,
        Some(&perturbed_sink),
    );
    base_sink.finish().unwrap();
    perturbed_sink.finish().unwrap();
    let a = read_jsonl(path_a).unwrap();
    let b = read_jsonl(path_b).unwrap();

    // Overwriting one publication changes no deterministic counter (same
    // message counts, same byte volume, same activation with epsilon = 0),
    // so the counter-level diff sees identical runs...
    assert_eq!(diff::first_divergence(&a, &b, false), None);

    // ...but value mode names the exact superstep, worker, and vertex.
    let d = diff::first_divergence(&a, &b, true).expect("values diff must detect perturbation");
    assert_eq!(d.superstep, at as u64, "first divergent superstep");
    assert_eq!(
        d.worker,
        u64::from(p.part_of(victim)),
        "first divergent worker"
    );
    assert_eq!(d.counter, "publication_digest");
    assert_eq!(d.vertex, Some(victim), "first divergent vertex");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_resume_is_deterministic_under_sharded_mt_cluster() {
    // CyclopsMT runs on InboxMode::Sharded; mt(2, 2, 2) gives R = 2
    // receiver threads per worker, each draining its share of the sender
    // lanes. Resuming from every checkpoint must reproduce the full run
    // bitwise.
    let g = Dataset::GWeb.generate_scaled(0.05, 4);
    let p = HashPartitioner.partition(&g, 2);
    let program = CyclopsPageRank { epsilon: 0.0 };
    let config = CyclopsConfig {
        cluster: ClusterSpec::mt(2, 2, 2),
        max_supersteps: 18,
        checkpoint_every: Some(6),
        ..Default::default()
    };
    let full = run_cyclops(&program, &g, &p, &config);
    assert!(!full.checkpoints.is_empty(), "run captured no checkpoints");
    for cp in &full.checkpoints {
        // max_supersteps is a *global* cap on the superstep index, so the
        // resumed run reuses the original cap unchanged and still stops at
        // the same place the crashed run would have.
        let resumed = run_cyclops_from_checkpoint(
            &program,
            &g,
            &p,
            &CyclopsConfig {
                checkpoint_every: None,
                ..config.clone()
            },
            cp,
        );
        assert_eq!(
            resumed.supersteps, full.supersteps,
            "superstep count after resume"
        );
        assert_eq!(
            resumed.values, full.values,
            "resume from superstep {}",
            cp.superstep
        );
    }
}

#[test]
fn comm_matrix_rows_sum_to_sent_counters_across_engines() {
    // Every engine populates the per-record communication matrix through
    // the same per-destination tracer cells its `messages`/`bytes` totals
    // come from, so the row sums must match the totals exactly — the
    // consistency contract `cyclops comm` enforces with a non-zero exit.
    let g = Dataset::Amazon.generate_scaled(0.05, 5);
    let cluster = ClusterSpec::flat(2, 2);
    let edge_cut = HashPartitioner.partition(&g, 4);
    let vertex_cut = RandomVertexCut::default().partition(&g, 4);
    let supersteps = 6;

    let cy_sink = TraceSink::new("cyclops", &cluster);
    cyclops_pagerank(&g, &edge_cut, cluster, supersteps, &cy_sink);
    let bsp_sink = TraceSink::new("bsp", &cluster);
    bsp_pagerank(&g, &edge_cut, cluster, supersteps, &bsp_sink);
    let gas_sink = TraceSink::new("gas", &cluster);
    gas_pagerank(&g, &vertex_cut, cluster, supersteps, &gas_sink);

    for (name, trace) in [
        ("cyclops", finish(cy_sink)),
        ("bsp", finish(bsp_sink)),
        ("gas", finish(gas_sink)),
    ] {
        let mut with_rows = 0usize;
        let mut cross_machine_bytes = 0u64;
        for r in &trace.records {
            assert!(
                r.comm_consistent(),
                "{name}: superstep {} worker {}: comm rows {:?} disagree with \
                 messages={} bytes={}",
                r.superstep,
                r.worker,
                r.comm,
                r.messages,
                r.bytes
            );
            for e in &r.comm {
                assert!(
                    (e.dst as usize) < cluster.num_workers(),
                    "{name}: bogus dst {}",
                    e.dst
                );
                assert!(
                    e.messages > 0 || e.bytes > 0,
                    "{name}: all-zero comm row for dst {} survived commit",
                    e.dst
                );
                cross_machine_bytes += e.bytes;
            }
            with_rows += usize::from(!r.comm.is_empty());
        }
        assert!(with_rows > 0, "{name}: no comm rows recorded");
        assert!(
            cross_machine_bytes > 0,
            "{name}: no cross-machine bytes attributed to any pair"
        );
    }
}

#[test]
fn comm_matrix_is_identical_across_thread_counts() {
    // The matrix is a pure function of graph + partition: engines merge
    // thread outboxes into one batch per (worker, dest) per superstep, so
    // the per-pair (dst, messages, bytes) splits must be bitwise identical
    // however many compute threads share a worker — under the dynamic
    // chunk-claiming scheduler and the deterministic bucket mode alike.
    // `diff::first_divergence` compares the comm column, so trace-diff
    // covers the same promise.
    type CommRows = Vec<(u64, u64, Vec<(u32, u64, u64)>)>;
    let comm_of = |trace: &RunTrace| -> CommRows {
        trace
            .records
            .iter()
            .map(|r| {
                (
                    r.superstep,
                    r.worker,
                    r.comm
                        .iter()
                        .map(|e| (e.dst, e.messages, e.bytes))
                        .collect(),
                )
            })
            .collect()
    };

    // Dynamic scheduler, PageRank.
    let g = Dataset::GWeb.generate_scaled(0.05, 6);
    let p = HashPartitioner.partition(&g, 2);
    let mut base: Option<RunTrace> = None;
    for threads in [1usize, 2, 4] {
        let cluster = ClusterSpec::mt(2, threads, 1);
        let sink = TraceSink::new("cyclops", &cluster);
        cyclops_pagerank(&g, &p, cluster, 8, &sink);
        let trace = finish(sink);
        match &base {
            None => base = Some(trace),
            Some(b) => {
                assert_eq!(
                    diff::first_divergence(b, &trace, false),
                    None,
                    "dynamic sched diverged at {threads} threads"
                );
                assert_eq!(
                    comm_of(b),
                    comm_of(&trace),
                    "comm matrix differs at {threads} threads (dynamic sched)"
                );
            }
        }
    }

    // Deterministic bucket mode, delta-stepping SSSP.
    let g = Dataset::RoadCa.generate_scaled(0.05, 7);
    let p = HashPartitioner.partition(&g, 2);
    let mut base: Option<RunTrace> = None;
    for threads in [1usize, 3] {
        let cluster = ClusterSpec::mt(2, threads, 1);
        let sink = TraceSink::new("cyclops", &cluster);
        // The auto width, retuned by the engine.
        let config = CyclopsConfig {
            cluster,
            max_supersteps: 100_000,
            bucket_width: auto_bucket_width(&g),
            bucket_adapt: true,
            ..Default::default()
        };
        run_cyclops_traced(&CyclopsSssp { source: 0 }, &g, &p, &config, Some(&sink));
        let trace = finish(sink);
        match &base {
            None => base = Some(trace),
            Some(b) => {
                assert_eq!(
                    diff::first_divergence(b, &trace, false),
                    None,
                    "bucketed run diverged at {threads} threads"
                );
                assert_eq!(
                    comm_of(b),
                    comm_of(&trace),
                    "comm matrix differs at {threads} threads (bucketed)"
                );
            }
        }
    }
}

#[test]
fn hot_vertex_capture_works_across_all_three_engines() {
    // Every engine feeds its per-thread Space-Saving sketches through the
    // same tracer plumbing; with --hot k enabled each record must carry at
    // most k entries, weight-descending, naming real vertices — and with
    // it disabled (the default) the hot lists must stay empty.
    let g = Dataset::Amazon.generate_scaled(0.05, 3);
    let cluster = ClusterSpec::flat(2, 2);
    let edge_cut = HashPartitioner.partition(&g, 4);
    let vertex_cut = RandomVertexCut::default().partition(&g, 4);
    let supersteps = 6;
    let k = 4usize;

    let cy_sink = TraceSink::new("cyclops", &cluster).with_hot_k(k);
    cyclops_pagerank(&g, &edge_cut, cluster, supersteps, &cy_sink);
    let bsp_sink = TraceSink::new("bsp", &cluster).with_hot_k(k);
    bsp_pagerank(&g, &edge_cut, cluster, supersteps, &bsp_sink);
    let gas_sink = TraceSink::new("gas", &cluster).with_hot_k(k);
    gas_pagerank(&g, &vertex_cut, cluster, supersteps, &gas_sink);

    for (name, trace) in [
        ("cyclops", finish(cy_sink)),
        ("bsp", finish(bsp_sink)),
        ("gas", finish(gas_sink)),
    ] {
        let mut non_empty = 0usize;
        for r in &trace.records {
            assert!(r.hot.len() <= k, "{name}: {} entries > k", r.hot.len());
            for w in r.hot.windows(2) {
                assert!(w[0].1 >= w[1].1, "{name}: hot not weight-descending");
            }
            for &(v, cost) in &r.hot {
                assert!((v as usize) < g.num_vertices(), "{name}: bogus vertex {v}");
                assert!(cost > 0, "{name}: zero-cost hot entry");
            }
            non_empty += usize::from(!r.hot.is_empty());
        }
        assert!(non_empty > 0, "{name}: no hot vertices captured at all");
    }

    // Disabled path: no sketches, no hot content in any record.
    let off_sink = TraceSink::new("cyclops", &cluster);
    cyclops_pagerank(&g, &edge_cut, cluster, supersteps, &off_sink);
    let off = finish(off_sink);
    assert!(off.records.iter().all(|r| r.hot.is_empty()));
}
