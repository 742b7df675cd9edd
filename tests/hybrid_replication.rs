//! Hybrid replication equivalence matrix (ISSUE 8).
//!
//! `--replicate-threshold` trades replicas for direct messages on cold
//! boundary vertices, but the immutable-view contract is unchanged: a
//! master's publication reaches every cross-worker reader exactly once per
//! superstep, through a replica slot or a direct-message slot. Results must
//! therefore be **bitwise identical** to full replication at every
//! threshold, on every engine topology, under every scheduler. These tests
//! pin that for PageRank/SSSP/CC on an R-MAT power-law graph and a path
//! graph, across thresholds {0, 2, 8, auto} × flat Cyclops and CyclopsMT,
//! down to the values-mode trace.

use cyclops::prelude::*;
use cyclops_algos::cc::{run_cyclops_cc_tuned, symmetrize};
use cyclops_algos::pagerank::run_cyclops_pagerank_tuned;
use cyclops_algos::sssp::run_cyclops_sssp_tuned;
use cyclops_algos::triangles::CyclopsTriangles;
use cyclops_engine::{run_cyclops, CyclopsConfig, Sched};
use cyclops_net::trace::{diff, RunTrace, TraceSink};
use cyclops_partition::EdgeCutPartition;

/// Default sparse-superstep cutoff (the tuned entry points take it
/// explicitly).
const SPARSE: f64 = 0.015;

fn finish(mut sink: TraceSink) -> RunTrace {
    assert_eq!(sink.dropped_records(), 0, "ring buffer overflowed");
    RunTrace {
        spans: Vec::new(),
        mem: Vec::new(),
        meta: sink.meta().clone(),
        records: sink.take_records(),
    }
}

/// A weighted path 0 → 1 → … → n-1: every cut edge crosses workers under a
/// hash partition, and every vertex has combined degree ≤ 2, so any
/// threshold ≥ 3 messages the *entire* boundary.
fn path_graph(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 0..n - 1 {
        b.add_weighted_edge(v as u32, v as u32 + 1, 1.0 + (v % 7) as f64 / 10.0);
    }
    b.build()
}

/// The threshold matrix from the issue: full replication, two fixed
/// degree cuts, and the traffic-model auto pick.
fn thresholds(g: &Graph, p: &EdgeCutPartition) -> Vec<(String, u32)> {
    vec![
        ("t=2".into(), 2),
        ("t=8".into(), 8),
        (
            format!("auto (t={})", p.auto_replicate_threshold(g)),
            p.auto_replicate_threshold(g),
        ),
    ]
}

/// Both engine topologies with the same worker count, so one partition
/// serves both: flat Cyclops (one thread per worker) and CyclopsMT.
fn clusters() -> Vec<ClusterSpec> {
    vec![ClusterSpec::flat(3, 2), ClusterSpec::mt(3, 2, 1)]
}

#[test]
fn pagerank_hybrid_matches_full_replication_on_rmat() {
    let g = Dataset::GWeb.generate_scaled(0.04, 11);
    for cluster in clusters() {
        let p = HashPartitioner.partition(&g, cluster.num_workers());
        let sink0 = TraceSink::with_values("cyclops", &cluster);
        let full = run_cyclops_pagerank_tuned(
            &g,
            &p,
            &cluster,
            1e-8,
            60,
            Sched::Static,
            SPARSE,
            0,
            Some(&sink0),
        );
        assert_eq!(full.direct_messages, 0, "threshold 0 sends no directs");
        let base = finish(sink0);
        for (name, t) in thresholds(&g, &p) {
            let sink = TraceSink::with_values("cyclops", &cluster);
            let hy = run_cyclops_pagerank_tuned(
                &g,
                &p,
                &cluster,
                1e-8,
                60,
                Sched::Static,
                SPARSE,
                t,
                Some(&sink),
            );
            assert_eq!(hy.supersteps, full.supersteps, "{cluster:?} {name}");
            for (v, (a, b)) in full.values.iter().zip(&hy.values).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{cluster:?} {name} vertex {v}");
            }
            assert_eq!(
                diff::first_value_divergence(&base, &finish(sink)),
                None,
                "{cluster:?} {name}: values-mode trace must match threshold 0"
            );
            // Every boundary vertex is accounted for on exactly one path.
            assert_eq!(
                hy.ingress.replicated_boundary + hy.ingress.messaged_boundary,
                full.ingress.replicated_boundary,
                "{cluster:?} {name}"
            );
            assert!(
                hy.replication_factor <= full.replication_factor,
                "{cluster:?} {name}: messaging cold vertices cannot add replicas"
            );
        }
    }
}

#[test]
fn sssp_hybrid_matches_full_replication_on_rmat_and_path() {
    let rmat = Dataset::GWeb.generate_scaled(0.04, 13);
    let path = path_graph(64);
    for g in [&rmat, &path] {
        for cluster in clusters() {
            let p = HashPartitioner.partition(g, cluster.num_workers());
            let full =
                run_cyclops_sssp_tuned(g, &p, &cluster, 0, 10_000, Sched::Static, SPARSE, 0, None);
            for (name, t) in thresholds(g, &p) {
                let hy = run_cyclops_sssp_tuned(
                    g,
                    &p,
                    &cluster,
                    0,
                    10_000,
                    Sched::Static,
                    SPARSE,
                    t,
                    None,
                );
                assert_eq!(hy.supersteps, full.supersteps, "{cluster:?} {name}");
                for (v, (a, b)) in full.values.iter().zip(&hy.values).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{cluster:?} {name} vertex {v}");
                }
            }
        }
    }
    // The path graph's boundary is all degree ≤ 2: threshold 8 replicates
    // nothing and runs entirely on direct messages.
    let p = HashPartitioner.partition(&path, 6);
    let all_direct = run_cyclops_sssp_tuned(
        &path,
        &p,
        &ClusterSpec::flat(3, 2),
        0,
        10_000,
        Sched::Static,
        SPARSE,
        8,
        None,
    );
    assert_eq!(all_direct.ingress.replicated_boundary, 0);
    assert!(all_direct.direct_messages > 0);
    assert_eq!(all_direct.replication_factor, 0.0);
}

#[test]
fn cc_hybrid_matches_full_replication_on_rmat() {
    let g = symmetrize(&Dataset::Amazon.generate_scaled(0.05, 17));
    for cluster in clusters() {
        let p = HashPartitioner.partition(&g, cluster.num_workers());
        let full = run_cyclops_cc_tuned(&g, &p, &cluster, Sched::Static, SPARSE, 0, None);
        for (name, t) in thresholds(&g, &p) {
            let hy = run_cyclops_cc_tuned(&g, &p, &cluster, Sched::Static, SPARSE, t, None);
            assert_eq!(hy.values, full.values, "{cluster:?} {name}");
            assert_eq!(hy.supersteps, full.supersteps, "{cluster:?} {name}");
        }
    }
}

/// Triangle counting is the one program that gathers through
/// `in_messages_with_sources`, so it pins the other face of the gather loop
/// to the slot space: the source id zipped beside each publication must stay
/// aligned whether the slot read is a master, a replica or a direct slot.
/// It never republishes — the whole view it reads is the INIT seeding — so
/// no direct message is ever sent; what shows that the reads went through
/// direct slots is the plan's slot count. Threshold 2 messages nothing on a
/// symmetric graph (a boundary vertex has an edge each way), 16 mixes all
/// three ranges, `u32::MAX` leaves no replica at all.
#[test]
fn triangles_gather_with_sources_through_every_slot_range() {
    let g = symmetrize(&Dataset::Amazon.generate_scaled(0.05, 17));
    let expected = cyclops::graph::reference::triangle_count(&g);
    assert!(expected > 0);
    for cluster in [ClusterSpec::flat(3, 1), ClusterSpec::mt(2, 3, 2)] {
        let p = HashPartitioner.partition(&g, cluster.num_workers());
        let run = |replicate_threshold| {
            let config = CyclopsConfig {
                cluster,
                max_supersteps: 4,
                replicate_threshold,
                ..Default::default()
            };
            run_cyclops(&CyclopsTriangles, &g, &p, &config)
        };
        let full = run(0);
        assert_eq!(full.values.iter().sum::<u64>() as usize, expected);
        assert_eq!(full.ingress.total_direct_slots, 0);
        for t in [2, 16, u32::MAX] {
            let hy = run(t);
            assert_eq!(hy.values, full.values, "{cluster:?} t={t}");
            assert_eq!(hy.direct_messages, 0, "{cluster:?} t={t}");
            let (slots, replicas) = (hy.ingress.total_direct_slots, hy.ingress.total_replicas);
            match t {
                2 => assert_eq!((slots, replicas), (0, full.ingress.total_replicas)),
                16 => assert!(
                    slots > 0 && replicas > 0,
                    "{cluster:?}: {slots} / {replicas}"
                ),
                _ => assert!(
                    slots > 0 && replicas == 0,
                    "{cluster:?}: {slots} / {replicas}"
                ),
            }
        }
    }
}

/// Under `--sched dynamic` the per-chunk reduction order is pinned, so the
/// values-mode trace of a hybrid run must be identical across compute
/// thread counts — the determinism story survives the second publication
/// path.
#[test]
fn hybrid_dynamic_sched_trace_is_stable_across_thread_counts() {
    let g = Dataset::GWeb.generate_scaled(0.04, 19);
    let narrow = ClusterSpec::mt(2, 2, 1);
    let wide = ClusterSpec::mt(2, 4, 2);
    assert_eq!(narrow.num_workers(), wide.num_workers());
    let p = HashPartitioner.partition(&g, narrow.num_workers());
    let t = p.auto_replicate_threshold(&g);

    let sink_n = TraceSink::with_values("cyclops", &narrow);
    let rn = run_cyclops_pagerank_tuned(
        &g,
        &p,
        &narrow,
        1e-8,
        60,
        Sched::Dynamic,
        SPARSE,
        t,
        Some(&sink_n),
    );
    let sink_w = TraceSink::with_values("cyclops", &wide);
    let rw = run_cyclops_pagerank_tuned(
        &g,
        &p,
        &wide,
        1e-8,
        60,
        Sched::Dynamic,
        SPARSE,
        t,
        Some(&sink_w),
    );
    for (v, (a, b)) in rn.values.iter().zip(&rw.values).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "vertex {v}");
    }
    assert_eq!(rn.direct_messages, rw.direct_messages);
    assert_eq!(rn.counters.bytes, rw.counters.bytes);
    assert_eq!(
        diff::first_value_divergence(&finish(sink_n), &finish(sink_w)),
        None,
        "hybrid dynamic-sched trace must not depend on thread count"
    );
}
