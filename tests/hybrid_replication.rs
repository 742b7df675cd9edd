//! Hybrid replication equivalence matrix (ISSUE 8).
//!
//! `--replicate-threshold` trades replicas for direct messages on cold
//! boundary vertices, but the immutable-view contract is unchanged: a
//! master's publication reaches every cross-worker reader exactly once per
//! superstep, through a replica slot or a direct-message slot. Results must
//! therefore be **bitwise identical** to full replication at every
//! threshold and on every engine topology. These tests pin that for
//! PageRank/SSSP/CC on an R-MAT power-law graph and a path graph, across
//! thresholds {0, 2, 8, auto} × flat Cyclops and CyclopsMT,
//! down to the values-mode trace — and, since the threshold is a field of
//! the engine's config and not of an algorithm's runner, for every program
//! the repo ships (`every_program_is_threshold_invariant`).

use cyclops::prelude::*;
use cyclops_algos::als::{AlsParams, CyclopsAls};
use cyclops_algos::bfs::CyclopsBfs;
use cyclops_algos::cc::{symmetrize, CyclopsComponents};
use cyclops_algos::cd::CyclopsCommunityDetection;
use cyclops_algos::kcore::CyclopsKCore;
use cyclops_algos::sssp::CyclopsSssp;
use cyclops_algos::triangles::CyclopsTriangles;
use cyclops_engine::{run_cyclops_traced, CyclopsProgram, CyclopsResult};
use cyclops_net::trace::{diff, RunTrace, TraceSink};
use cyclops_partition::EdgeCutPartition;

/// The one knob these tests turn.
fn config(cluster: ClusterSpec, max_supersteps: usize, replicate_threshold: u32) -> CyclopsConfig {
    CyclopsConfig {
        cluster,
        max_supersteps,
        replicate_threshold,
        ..Default::default()
    }
}

/// PageRank to a local error of 1e-8 (at most 60 supersteps), traced.
fn pagerank(
    g: &Graph,
    p: &EdgeCutPartition,
    cluster: ClusterSpec,
    threshold: u32,
    sink: &TraceSink,
) -> CyclopsResult<f64, f64> {
    run_cyclops_traced(
        &CyclopsPageRank { epsilon: 1e-8 },
        g,
        p,
        &config(cluster, 60, threshold),
        Some(sink),
    )
}

/// SSSP from vertex 0.
fn sssp(
    g: &Graph,
    p: &EdgeCutPartition,
    cluster: ClusterSpec,
    threshold: u32,
) -> CyclopsResult<f64, f64> {
    run_cyclops(
        &CyclopsSssp { source: 0 },
        g,
        p,
        &config(cluster, 10_000, threshold),
    )
}

fn finish(mut sink: TraceSink) -> RunTrace {
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
        let full = pagerank(&g, &p, cluster, 0, &sink0);
        assert_eq!(full.direct_messages, 0, "threshold 0 sends no directs");
        let base = finish(sink0);
        for (name, t) in thresholds(&g, &p) {
            let sink = TraceSink::with_values("cyclops", &cluster);
            let hy = pagerank(&g, &p, cluster, t, &sink);
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
            let full = sssp(g, &p, cluster, 0);
            for (name, t) in thresholds(g, &p) {
                let hy = sssp(g, &p, cluster, t);
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
    let all_direct = sssp(&path, &p, ClusterSpec::flat(3, 2), 8);
    assert_eq!(all_direct.ingress.replicated_boundary, 0);
    assert!(all_direct.direct_messages > 0);
    assert_eq!(all_direct.replication_factor, 0.0);
}

#[test]
fn cc_hybrid_matches_full_replication_on_rmat() {
    let g = symmetrize(&Dataset::Amazon.generate_scaled(0.05, 17));
    for cluster in clusters() {
        let p = HashPartitioner.partition(&g, cluster.num_workers());
        let cc = |t| run_cyclops(&CyclopsComponents, &g, &p, &config(cluster, 100_000, t));
        let full = cc(0);
        for (name, t) in thresholds(&g, &p) {
            let hy = cc(t);
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
        let run = |t| run_cyclops(&CyclopsTriangles, &g, &p, &config(cluster, 4, t));
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

/// The per-chunk reduction order is pinned, so the values-mode trace of a
/// hybrid run must be identical across compute thread counts — the
/// determinism story survives the second publication path.
#[test]
fn hybrid_dynamic_sched_trace_is_stable_across_thread_counts() {
    let g = Dataset::GWeb.generate_scaled(0.04, 19);
    let narrow = ClusterSpec::mt(2, 2, 1);
    let wide = ClusterSpec::mt(2, 4, 2);
    assert_eq!(narrow.num_workers(), wide.num_workers());
    let p = HashPartitioner.partition(&g, narrow.num_workers());
    let t = p.auto_replicate_threshold(&g);

    let sink_n = TraceSink::with_values("cyclops", &narrow);
    let rn = pagerank(&g, &p, narrow, t, &sink_n);
    let sink_w = TraceSink::with_values("cyclops", &wide);
    let rw = pagerank(&g, &p, wide, t, &sink_w);
    for (v, (a, b)) in rn.values.iter().zip(&rw.values).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "vertex {v}");
    }
    assert_eq!(rn.direct_messages, rw.direct_messages);
    assert_eq!(rn.counters.bytes, rw.counters.bytes);
    assert_eq!(
        diff::first_value_divergence(&finish(sink_n), &finish(sink_w)),
        None,
        "hybrid trace must not depend on thread count"
    );
}

/// `replicate_threshold` is a field of the engine's config, so its promise —
/// bitwise-equal values at every threshold — is a promise about every
/// program, not about the ones somebody wired a runner for. One generic
/// helper, every program the repo ships: thresholds 0 (full replication),
/// 2 and `u32::MAX` (no replica at all) on a flat and an MT cluster, each
/// compared with the threshold-0 run of the same shape.
fn assert_threshold_invariant<P: CyclopsProgram>(
    name: &str,
    program: &P,
    g: &Graph,
    max_supersteps: usize,
) where
    P::Value: std::fmt::Debug,
{
    for cluster in [ClusterSpec::flat(3, 1), ClusterSpec::mt(2, 3, 2)] {
        let p = HashPartitioner.partition(g, cluster.num_workers());
        let run = |t| run_cyclops(program, g, &p, &config(cluster, max_supersteps, t));
        let full = run(0);
        assert!(full.supersteps > 0, "{name} {cluster:?}: nothing ran");
        for t in [2, u32::MAX] {
            let hy = run(t);
            assert_eq!(hy.supersteps, full.supersteps, "{name} {cluster:?} t={t}");
            for (v, (a, b)) in full.values.iter().zip(&hy.values).enumerate() {
                // `Debug` of a float is its shortest round-trip form, so
                // equal text is equal bits (and -0.0 is not 0.0) for every
                // value type the programs use.
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "{name} {cluster:?} t={t} vertex {v}"
                );
            }
            if t == u32::MAX {
                assert_eq!(hy.ingress.total_replicas, 0, "{name} {cluster:?}");
            }
        }
    }
}

#[test]
fn every_program_is_threshold_invariant() {
    let web = Dataset::GWeb.generate_scaled(0.03, 23);
    let sym = symmetrize(&web);
    let ratings = Dataset::SynGl.generate_scaled(0.03, 29);
    let params = AlsParams {
        users: Dataset::SynGl.bipartite_users_at(0.03).unwrap(),
        dim: 4,
        lambda: 0.1,
    };
    assert_threshold_invariant("pagerank", &CyclopsPageRank { epsilon: 1e-8 }, &web, 60);
    assert_threshold_invariant("sssp", &CyclopsSssp { source: 0 }, &web, 10_000);
    assert_threshold_invariant("bfs", &CyclopsBfs { source: 0 }, &web, 1_000_000);
    assert_threshold_invariant("cc", &CyclopsComponents, &sym, 100_000);
    assert_threshold_invariant("cd", &CyclopsCommunityDetection, &web, 10);
    // Two supersteps per ALS iteration.
    assert_threshold_invariant("als", &CyclopsAls { params }, &ratings, 4);
    assert_threshold_invariant("kcore", &CyclopsKCore, &sym, 100_000);
    assert_threshold_invariant("triangles", &CyclopsTriangles, &sym, 4);
}
