//! Dynamic migration equivalence matrix (ISSUE 10).
//!
//! `--migrate` moves hot masters between workers at superstep boundaries,
//! but the planner's inputs are deterministic compute-cost counters and
//! the edited plan preserves the immutable-view contract, so algorithm
//! results must be **bitwise identical** to the static run at every epoch
//! length, on every engine topology. These tests pin that for PageRank
//! and SSSP on deliberately skewed partitions, across epoch lengths
//! {4, 8} × flat Cyclops and CyclopsMT, down to the values-mode trace —
//! and pin the migrated run itself as bitwise stable across thread
//! counts.

use cyclops::prelude::*;
use cyclops_algos::sssp::CyclopsSssp;
use cyclops_engine::{
    run_cyclops_migrated_traced, run_cyclops_traced, CyclopsProgram, CyclopsResult, MigrationReport,
};
use cyclops_net::trace::{diff, RunTrace, TraceSink};
use cyclops_partition::{EdgeCutPartition, MigrationConfig};

fn capped(cluster: ClusterSpec, max_supersteps: usize) -> CyclopsConfig {
    CyclopsConfig {
        cluster,
        max_supersteps,
        ..Default::default()
    }
}

/// The static run and its values-mode trace.
fn run_static<P: CyclopsProgram>(
    program: &P,
    g: &Graph,
    p: &EdgeCutPartition,
    config: &CyclopsConfig,
) -> (CyclopsResult<P::Value, P::Message>, RunTrace) {
    let sink = TraceSink::with_values("cyclops", &config.cluster);
    let r = run_cyclops_traced(program, g, p, config, Some(&sink));
    (r, finish(sink))
}

/// The same run migrating every `every` supersteps, and its trace.
fn run_migrated<P: CyclopsProgram>(
    program: &P,
    g: &Graph,
    p: &EdgeCutPartition,
    config: &CyclopsConfig,
    every: usize,
) -> (
    CyclopsResult<P::Value, P::Message>,
    MigrationReport,
    RunTrace,
) {
    let sink = TraceSink::with_values("cyclops", &config.cluster);
    let migration = MigrationConfig::default();
    let (r, report) =
        run_cyclops_migrated_traced(program, g, p, config, every, migration, Some(&sink));
    (r, report, finish(sink))
}

fn finish(mut sink: TraceSink) -> RunTrace {
    RunTrace {
        spans: Vec::new(),
        mem: Vec::new(),
        meta: sink.meta().clone(),
        records: sink.take_records(),
    }
}

/// A pathologically skewed assignment: hash-partition, then pile the
/// first 60% of vertex ids onto worker 0 (the CLI's `--skew 0.6`).
fn skewed(g: &Graph, workers: usize) -> EdgeCutPartition {
    let mut p = HashPartitioner.partition(g, workers);
    let cut = (0.6 * g.num_vertices() as f64) as usize;
    for a in p.assignment.iter_mut().take(cut) {
        *a = 0;
    }
    p
}

/// Both engine topologies with the same worker count, so one partition —
/// and therefore one migration schedule — serves both.
fn clusters() -> Vec<ClusterSpec> {
    vec![ClusterSpec::flat(4, 1), ClusterSpec::mt(4, 2, 1)]
}

fn assert_matches_static(
    label: &str,
    report: &MigrationReport,
    base: &CyclopsResult<f64, f64>,
    migrated: &CyclopsResult<f64, f64>,
    base_trace: &RunTrace,
    migrated_trace: &RunTrace,
) {
    assert!(
        report.migrations_total > 0,
        "{label}: skew must trigger moves"
    );
    assert_eq!(migrated.supersteps, base.supersteps, "{label}");
    for (v, (a, b)) in base.values.iter().zip(&migrated.values).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label} vertex {v}");
    }
    assert_eq!(
        diff::first_value_divergence(base_trace, migrated_trace),
        None,
        "{label}: values-mode trace must match the static run"
    );
}

#[test]
fn migrated_pagerank_matches_static_across_topologies() {
    let g = Dataset::GWeb.generate_scaled(0.04, 11);
    let mut per_cluster: Vec<CyclopsResult<f64, f64>> = Vec::new();
    for cluster in clusters() {
        let p = skewed(&g, cluster.num_workers());
        let pagerank = CyclopsPageRank { epsilon: 1e-8 };
        let config = capped(cluster, 200);
        let (base, base_trace) = run_static(&pagerank, &g, &p, &config);
        for every in [4usize, 8] {
            let (migrated, report, trace) = run_migrated(&pagerank, &g, &p, &config, every);
            assert_matches_static(
                &format!("{cluster:?} every={every}"),
                &report,
                &base,
                &migrated,
                &base_trace,
                &trace,
            );
            if every == 8 {
                per_cluster.push(migrated);
            }
        }
    }
    // The migration schedule is a pure function of graph + partition +
    // superstep index, so the migrated run is itself bitwise stable
    // across thread counts.
    let (flat, mt) = (&per_cluster[0], &per_cluster[1]);
    assert_eq!(flat.supersteps, mt.supersteps);
    for (a, b) in flat.values.iter().zip(&mt.values) {
        assert_eq!(a.to_bits(), b.to_bits(), "flat vs MT migrated run");
    }
}

#[test]
fn migrated_sssp_matches_static_across_topologies() {
    let g = Dataset::RoadCa.generate_scaled(0.04, 7);
    let mut traces: Vec<RunTrace> = Vec::new();
    for cluster in clusters() {
        let p = skewed(&g, cluster.num_workers());
        let sssp = CyclopsSssp { source: 0 };
        let config = capped(cluster, 100_000);
        let (base, base_trace) = run_static(&sssp, &g, &p, &config);
        for every in [4usize, 8] {
            let (migrated, report, trace) = run_migrated(&sssp, &g, &p, &config, every);
            assert_matches_static(
                &format!("{cluster:?} every={every}"),
                &report,
                &base,
                &migrated,
                &base_trace,
                &trace,
            );
            if every == 8 {
                traces.push(trace);
            }
        }
    }
    // Same schedule on both topologies: even the values-mode *traces* of
    // the migrated runs agree across thread counts once aggregated per
    // superstep.
    assert_eq!(
        diff::first_value_divergence(&traces[0], &traces[1]),
        None,
        "migrated flat vs MT trace"
    );
}
