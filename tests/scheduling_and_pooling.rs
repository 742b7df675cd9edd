//! Regression tests for PR 3: skew-aware compute scheduling and the
//! zero-allocation send path.
//!
//! Two properties: (1) the static and dynamic schedulers produce
//! bitwise-identical results *and* bitwise-identical values-mode traces for
//! PageRank, SSSP, and connected components — the determinism story that
//! makes the dynamic scheduler a pure performance dial; (2) the send path
//! pools its encode buffers, so steady-state supersteps allocate nothing:
//! total send allocation is a warm-up constant in the number of lanes ×
//! destinations, not a function of message count (the Table 2 story).

use cyclops::prelude::*;
use cyclops_algos::cc::{symmetrize, CyclopsComponents};
use cyclops_algos::sssp::CyclopsSssp;
use cyclops_engine::{run_cyclops_traced, CyclopsProgram, CyclopsResult, Sched};
use cyclops_net::trace::{diff, RunTrace, TraceSink};
use cyclops_partition::EdgeCutPartition;

fn finish(mut sink: TraceSink) -> RunTrace {
    RunTrace {
        spans: Vec::new(),
        mem: Vec::new(),
        meta: sink.meta().clone(),
        records: sink.take_records(),
    }
}

/// `program` under one scheduler, with its values-mode trace.
fn traced<P: CyclopsProgram>(
    program: &P,
    g: &Graph,
    p: &EdgeCutPartition,
    cluster: ClusterSpec,
    max_supersteps: usize,
    sched: Sched,
) -> (CyclopsResult<P::Value, P::Message>, RunTrace) {
    let config = CyclopsConfig {
        cluster,
        max_supersteps,
        sched,
        ..Default::default()
    };
    let sink = TraceSink::with_values("cyclops", &cluster);
    let r = run_cyclops_traced(program, g, p, &config, Some(&sink));
    (r, finish(sink))
}

/// Static and dynamic scheduling must be observationally equivalent down to
/// the values-mode trace: same per-superstep counters, same wire bytes,
/// same publication digests. CyclopsMT topology so multiple compute threads
/// actually race for chunks.
#[test]
fn schedulers_produce_identical_pagerank_traces() {
    let g = Dataset::GWeb.generate_scaled(0.04, 7);
    let cluster = ClusterSpec::mt(2, 3, 1);
    let p = HashPartitioner.partition(&g, cluster.num_workers());

    let pagerank = CyclopsPageRank { epsilon: 1e-9 };
    let (rs, ts) = traced(&pagerank, &g, &p, cluster, 60, Sched::Static);
    let (rd, td) = traced(&pagerank, &g, &p, cluster, 60, Sched::Dynamic);

    assert_eq!(rs.supersteps, rd.supersteps);
    for (v, (a, b)) in rs.values.iter().zip(&rd.values).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "vertex {v}: {a} vs {b}");
    }
    assert_eq!(
        diff::first_divergence(&ts, &td, true),
        None,
        "static and dynamic traces must be indistinguishable"
    );
}

#[test]
fn schedulers_produce_identical_sssp_traces() {
    let g = cyclops_graph::gen::road_lattice(16, 16, 0.9, 0.1, 11);
    let cluster = ClusterSpec::mt(2, 2, 1);
    let p = HashPartitioner.partition(&g, cluster.num_workers());

    let sssp = CyclopsSssp { source: 0 };
    let (rs, ts) = traced(&sssp, &g, &p, cluster, 10_000, Sched::Static);
    let (rd, td) = traced(&sssp, &g, &p, cluster, 10_000, Sched::Dynamic);

    assert_eq!(rs.supersteps, rd.supersteps);
    for (v, (a, b)) in rs.values.iter().zip(&rd.values).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "vertex {v}: {a} vs {b}");
    }
    assert_eq!(diff::first_divergence(&ts, &td, true), None);
}

#[test]
fn schedulers_produce_identical_cc_traces() {
    let g = symmetrize(&cyclops_graph::gen::erdos_renyi(500, 900, 23));
    let cluster = ClusterSpec::mt(2, 3, 1);
    let p = HashPartitioner.partition(&g, cluster.num_workers());

    let (rs, ts) = traced(&CyclopsComponents, &g, &p, cluster, 100_000, Sched::Static);
    let (rd, td) = traced(&CyclopsComponents, &g, &p, cluster, 100_000, Sched::Dynamic);

    assert_eq!(rs.supersteps, rd.supersteps);
    assert_eq!(rs.values, rd.values);
    assert_eq!(diff::first_divergence(&ts, &td, true), None);
}

/// The Table 2 claim: send buffers are pooled, so allocation is a one-time
/// warm-up cost — doubling the superstep count roughly doubles the wire
/// bytes but adds *zero* new allocation, i.e. per-superstep allocation is
/// O(destination machines), not O(messages).
#[test]
fn pooled_send_path_stops_allocating_after_warmup() {
    let g = Dataset::GWeb.generate_scaled(0.05, 3);
    let cluster = ClusterSpec::flat(3, 2);
    let p = HashPartitioner.partition(&g, cluster.num_workers());

    // epsilon = 0 keeps every vertex active, so every superstep ships the
    // same full frontier and steady-state batch sizes are constant.
    let run = |max_supersteps| {
        let config = CyclopsConfig {
            cluster,
            max_supersteps,
            ..Default::default()
        };
        run_cyclops(&CyclopsPageRank { epsilon: 0.0 }, &g, &p, &config)
    };
    let (short, long) = (run(10), run(20));

    assert!(
        short.counters.message_bytes_allocated > 0,
        "warm-up allocates"
    );
    assert!(
        long.counters.bytes > short.counters.bytes * 18 / 10,
        "doubling supersteps must roughly double wire bytes \
         ({} vs {})",
        long.counters.bytes,
        short.counters.bytes
    );
    assert_eq!(
        long.counters.message_bytes_allocated, short.counters.message_bytes_allocated,
        "steady-state supersteps must allocate nothing: all growth happens \
         in the first supersteps' warm-up"
    );
    // The warm-up itself is bounded by one max-size batch per sender lane —
    // a far cry from one allocation per wire byte.
    assert!(
        long.counters.message_bytes_allocated < long.counters.bytes as u64 / 4,
        "total allocation ({}) must be a small fraction of wire bytes ({})",
        long.counters.message_bytes_allocated,
        long.counters.bytes
    );
}
