//! Bucketed (delta-stepping) execution equivalence tests.
//!
//! Non-negative edge weights make SSSP relaxation a min-fold over path
//! sums, so *any* drain order reaches the same fixpoint with bitwise
//! identical distances. These tests pin that property on random weighted
//! graphs across all three bucketed engines (flat Cyclops, CyclopsMT,
//! BSP) against the barrier-per-superstep oracle, and pin the det bucket
//! mode's trace against itself across thread counts.

use cyclops::prelude::*;
use cyclops_algos::sssp::{
    run_bsp_sssp_bucketed, run_cyclops_sssp, run_cyclops_sssp_bucketed, run_cyclops_sssp_tuned,
};
use cyclops_engine::Sched;
use cyclops_net::trace::{diff, read_jsonl, RunTrace, TraceSink};
use cyclops_net::BucketMode;
use proptest::prelude::*;

/// A random directed weighted graph: vertex count, edge list, and a bucket
/// width (0.0 = auto-tune from the mean edge weight).
fn arb_graph_and_width() -> impl Strategy<Value = (Graph, f64)> {
    (2usize..28).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32, 1u32..1000), 1..120);
        (edges, 0u32..4).prop_map(move |(edges, w)| {
            let mut b = GraphBuilder::new(n);
            for (s, t, milli) in edges {
                // Weights in (0, 10): small enough that several hops land in
                // one bucket, so fused rounds actually exercise re-entry.
                b.add_weighted_edge(s, t, f64::from(milli) / 100.0);
            }
            let width = match w {
                0 => 0.0, // auto
                1 => 0.25,
                2 => 1.5,
                _ => 50.0, // effectively one bucket for the whole run
            };
            (b.build(), width)
        })
    })
}

proptest! {
    /// Bucketed SSSP distances are bitwise equal to the unbucketed
    /// barrier-per-superstep run on all three engines, in both det and
    /// fast mode, for arbitrary graphs and bucket widths — and, on the
    /// Cyclops engines, at every hybrid-replication threshold.
    #[test]
    fn bucketed_sssp_matches_barrier_per_superstep((g, width) in arb_graph_and_width()) {
        let p = HashPartitioner.partition(&g, 3);
        let flat = ClusterSpec::flat(3, 1);
        let oracle = run_cyclops_sssp(&g, &p, &flat, 0, 100_000);

        // Threshold 0 is full replication; 2 messages the leaves; u32::MAX
        // messages the whole boundary, so every cross-worker publication of
        // the settle travels as a direct message.
        for threshold in [0, 2, u32::MAX] {
            let bucketed = |cluster: &ClusterSpec, mode| {
                run_cyclops_sssp_bucketed(&g, &p, cluster, 0, 100_000, width, mode, threshold, None)
            };
            let flat_det = bucketed(&flat, BucketMode::Det);
            prop_assert_eq!(&oracle.values, &flat_det.values, "flat det, t={}", threshold);
            let flat_fast = bucketed(&flat, BucketMode::Fast);
            prop_assert_eq!(&oracle.values, &flat_fast.values, "flat fast, t={}", threshold);
            let mt = bucketed(&ClusterSpec::mt(3, 2, 2), BucketMode::Det);
            prop_assert_eq!(&oracle.values, &mt.values, "cyclops-mt det, t={}", threshold);

            // The direct path is really taken: whenever the barrier-per-hop
            // run at this threshold sends direct messages, so does each
            // settle (fusing rounds dedups messages, it never drops a path).
            let per_hop = run_cyclops_sssp_tuned(
                &g, &p, &flat, 0, 100_000, Sched::Dynamic, 0.015, threshold, None,
            );
            prop_assert_eq!(&oracle.values, &per_hop.values, "per-hop, t={}", threshold);
            for r in [&flat_det, &flat_fast, &mt] {
                prop_assert_eq!(r.direct_messages > 0, per_hop.direct_messages > 0, "t={}", threshold);
            }
        }

        let bsp = run_bsp_sssp_bucketed(&g, &p, &flat, 0, 100_000, width, BucketMode::Det);
        prop_assert_eq!(&oracle.values, &bsp.values, "bsp det");
    }
}

/// Det bucket mode fixes the in-bucket drain order, so the full trace —
/// counters and per-publication value digests — is identical whatever the
/// per-worker thread count.
#[test]
fn det_bucket_trace_is_stable_across_thread_counts() {
    let g = Dataset::RoadCa.generate_scaled(0.03, 7);
    let p = HashPartitioner.partition(&g, 4);
    let dir = std::env::temp_dir().join(format!("cyclops-bucket-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let run = |cluster: ClusterSpec, name: &str| {
        let sink = TraceSink::with_values("cyclops", &cluster);
        let r = run_cyclops_sssp_bucketed(
            &g,
            &p,
            &cluster,
            0,
            100_000,
            0.0, // auto width
            BucketMode::Det,
            0,
            Some(&sink),
        );
        let mut sink = sink;
        assert_eq!(sink.dropped_records(), 0, "ring buffer overflowed");
        // Round-trip through JSONL so the comparison covers exactly what
        // the CLI's trace-diff sees.
        let path = dir.join(name);
        sink.write_jsonl(path.to_str().unwrap()).unwrap();
        (r, read_jsonl(path.to_str().unwrap()).unwrap())
    };

    // Same 4 workers and the same partition; 1 thread vs 3 compute threads
    // and 2 receivers inside each worker.
    let (r1, t1): (_, RunTrace) = run(ClusterSpec::flat(4, 1), "flat.jsonl");
    let (r3, t3) = run(ClusterSpec::mt(4, 3, 2), "mt.jsonl");

    assert_eq!(r1.values, r3.values);
    assert_eq!(r1.supersteps, r3.supersteps);
    assert_eq!(
        diff::first_divergence(&t1, &t3, false),
        None,
        "counter diff"
    );
    assert_eq!(diff::first_divergence(&t1, &t3, true), None, "values diff");
    std::fs::remove_dir_all(&dir).ok();
}
