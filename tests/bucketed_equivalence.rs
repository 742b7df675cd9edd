//! Bucketed (delta-stepping) execution equivalence tests.
//!
//! Non-negative edge weights make SSSP relaxation a min-fold over path
//! sums, so *any* drain order reaches the same fixpoint with bitwise
//! identical distances. These tests pin that property on random weighted
//! graphs across both bucketed engine shapes (flat Cyclops and CyclopsMT)
//! against the barrier-per-superstep oracle, and pin the bucketed run's
//! trace against itself across thread counts. The same promise over every
//! other engine dial is drawn by `tests/settings_oracle.rs`.

use cyclops::prelude::*;
use cyclops_algos::sssp::{auto_bucket_width, CyclopsSssp};
use cyclops_engine::{
    run_cyclops_traced, run_cyclops_with_plan, run_cyclops_with_plan_traced, CyclopsPlan,
};
use cyclops_graph::gen::road_lattice;
use cyclops_net::trace::{diff, read_jsonl, RunTrace, TraceSink};
use proptest::prelude::*;

const SOURCE: CyclopsSssp = CyclopsSssp { source: 0 };

/// Per-hop SSSP to quiescence at a hybrid-replication threshold.
fn per_hop(cluster: ClusterSpec, replicate_threshold: u32) -> CyclopsConfig {
    CyclopsConfig {
        cluster,
        max_supersteps: 100_000,
        replicate_threshold,
        ..Default::default()
    }
}

/// [`per_hop`] on the bucketed scheduler; width 0.0 is `auto`: seeded from
/// the mean edge weight, then retuned by the engine.
fn bucketed(g: &Graph, width: f64, base: CyclopsConfig) -> CyclopsConfig {
    CyclopsConfig {
        bucket_width: if width > 0.0 {
            width
        } else {
            auto_bucket_width(g)
        },
        bucket_adapt: width <= 0.0,
        ..base
    }
}

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
    /// barrier-per-superstep run on flat Cyclops and CyclopsMT, for
    /// arbitrary graphs and bucket widths, at every hybrid-replication
    /// threshold.
    #[test]
    fn bucketed_sssp_matches_barrier_per_superstep((g, width) in arb_graph_and_width()) {
        let p = HashPartitioner.partition(&g, 3);
        let flat = ClusterSpec::flat(3, 1);
        let oracle = run_cyclops(&SOURCE, &g, &p, &per_hop(flat, 0));

        // Threshold 0 is full replication; 2 messages the leaves; u32::MAX
        // messages the whole boundary, so every cross-worker publication of
        // the settle travels as a direct message.
        for threshold in [0, 2, u32::MAX] {
            let run = |cluster| {
                run_cyclops(&SOURCE, &g, &p, &bucketed(&g, width, per_hop(cluster, threshold)))
            };
            let flat_run = run(flat);
            prop_assert_eq!(&oracle.values, &flat_run.values, "flat, t={}", threshold);
            let mt = run(ClusterSpec::mt(3, 2, 2));
            prop_assert_eq!(&oracle.values, &mt.values, "cyclops-mt, t={}", threshold);

            // The direct path is really taken: whenever the barrier-per-hop
            // run at this threshold sends direct messages, so does each
            // settle (fusing rounds dedups messages, it never drops a path).
            let hop = run_cyclops(&SOURCE, &g, &p, &per_hop(flat, threshold));
            prop_assert_eq!(&oracle.values, &hop.values, "per-hop, t={}", threshold);
            for r in [&flat_run, &mt] {
                prop_assert_eq!(r.direct_messages > 0, hop.direct_messages > 0, "t={}", threshold);
            }
        }
    }
}

/// The bucketed drain fixes the in-bucket order, so the full trace —
/// counters and per-publication value digests — is identical whatever the
/// per-worker thread count.
#[test]
fn det_bucket_trace_is_stable_across_thread_counts() {
    let g = Dataset::RoadCa.generate_scaled(0.03, 7);
    let p = HashPartitioner.partition(&g, 4);
    let dir = std::env::temp_dir().join(format!("cyclops-bucket-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let run = |cluster: ClusterSpec, name: &str| {
        // Round-trip through JSONL so the comparison covers exactly what
        // the CLI's trace-diff sees.
        let path = dir.join(name);
        let path = path.to_str().unwrap();
        let sink = TraceSink::create("cyclops", &cluster, path, true).unwrap();
        // Width 0.0: auto.
        let config = bucketed(&g, 0.0, per_hop(cluster, 0));
        let r = run_cyclops_traced(&SOURCE, &g, &p, &config, Some(&sink));
        sink.finish().unwrap();
        (r, read_jsonl(path).unwrap())
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

/// A bucketed run resumed from any of its checkpoints ends with the full
/// run's distances, bit for bit, and by draining, not at the cap. A
/// value-only checkpoint holds no parked priorities, so the resume re-parks
/// every captured activation as due at once: the path this pins on both
/// engine shapes, with the width fixed and retuned. The superstep count is
/// not pinned: the resume restarts at bucket 0 with the seed width and
/// relaxes the whole parked set in its first superstep, so its count differs
/// from the full run's (by one on most of these checkpoints).
#[test]
fn bucketed_resume_matches_the_full_run() {
    let g = road_lattice(20, 20, 0.9, 0.1, 3);
    let p = HashPartitioner.partition(&g, 2);
    let plan = CyclopsPlan::build_parallel(&g, &p);
    for cluster in [ClusterSpec::flat(2, 1), ClusterSpec::mt(2, 2, 1)] {
        // Every third superstep resumes in both parities.
        for (bucket_adapt, every) in [(false, 2), (true, 2), (false, 3)] {
            let config = CyclopsConfig {
                cluster,
                bucket_width: auto_bucket_width(&g) / 8.0,
                bucket_adapt,
                checkpoint_every: Some(every),
                ..Default::default()
            };
            let full = run_cyclops_with_plan(&SOURCE, &g, &plan, &config, None);
            let label = format!("{cluster:?} adapt {bucket_adapt} every {every}");
            assert!(full.checkpoints.len() >= 3, "{label}");
            for cp in &full.checkpoints {
                let resumed = run_cyclops_with_plan(&SOURCE, &g, &plan, &config, Some(cp));
                let label = format!("{label} from {}", cp.superstep);
                let differs = (full.values.iter().zip(&resumed.values))
                    .position(|(a, b)| a.to_bits() != b.to_bits());
                assert_eq!(differs, None, "{label}: first differing vertex");
                assert!(resumed.supersteps < config.max_supersteps, "{label}");
            }
        }
    }
}

/// Every worker settles its own share of a fused round, on its own thread,
/// and the workers meet at two round waits per round. Run after run the
/// values-mode trace stays the first run's, with the boundary replicated and
/// partly messaged, and with checkpoints captured concurrently by the
/// workers at every other bucket boundary.
#[test]
fn a_distributed_settle_repeats_its_trace() {
    let g = Dataset::RoadCa.generate_scaled(0.03, 7);
    for cluster in [ClusterSpec::flat(4, 1), ClusterSpec::mt(2, 3, 2)] {
        let p = HashPartitioner.partition(&g, cluster.num_workers());
        for threshold in [0, 8] {
            let plan = CyclopsPlan::build_parallel_with_threshold(&g, &p, threshold);
            let config = CyclopsConfig {
                checkpoint_every: Some(2),
                // A narrow fixed width: many buckets, so many boundaries.
                ..bucketed(&g, auto_bucket_width(&g) / 8.0, per_hop(cluster, threshold))
            };
            let run = || {
                let mut sink = TraceSink::with_values("cyclops", &cluster);
                let r =
                    run_cyclops_with_plan_traced(&SOURCE, &g, &plan, &config, None, Some(&sink));
                let trace = RunTrace {
                    meta: sink.meta().clone(),
                    records: sink.take_records(),
                    spans: Vec::new(),
                    mem: Vec::new(),
                };
                (r, trace)
            };
            let (first, first_trace) = run();
            assert!(first.checkpoints.len() >= 4, "{cluster:?}, t={threshold}");
            for attempt in 1..20 {
                let label = format!("{cluster:?}, t={threshold}, run {attempt}");
                let (r, trace) = run();
                assert_eq!(first.values, r.values, "{label}");
                assert_eq!(first.supersteps, r.supersteps, "{label}");
                let divergence = diff::first_divergence(&first_trace, &trace, true);
                assert_eq!(divergence, None, "{label}");
            }
        }
    }
}
