//! Ablations of the design choices, beyond the paper's own figures:
//!
//! 1. **dynamic computation** — Cyclops with local-error deactivation vs
//!    the same engine forced to keep every vertex active (ε = 0),
//! 2. **combiner** — Hama with and without message combining,
//! 3. **checkpoint content** — value-only Cyclops checkpoints (§3.6) vs
//!    full BSP checkpoints (values + flags + in-flight messages),
//! 4. **incremental vs cold restart** under topology mutation (the §8
//!    extension): recomputation cost of absorbing an edge insertion,
//! 5. **network model** — the traffic a run counted, priced on an ideal
//!    wire, modeled 1 GigE and a congested wire,
//! 6. **inbox discipline** — Hama with its own GlobalQueue inbox vs
//!    Cyclops' sharded per-sender lanes grafted on,
//! 7. **adaptive wire format** — the self-selecting sparse/dense
//!    `ReplicaBatch` framing vs the legacy per-update tuple framing it
//!    replaced (the encoder computes both sizes exactly, so one run
//!    reports both),
//! 8. **bucketed execution** — delta-stepping priority buckets vs one
//!    barrier per hop on the high-diameter SSSP workload,
//! 9. **hybrid replication** — full boundary replication vs the degree
//!    threshold that messages cold boundary vertices directly.

use cyclops_algos::pagerank::{BspPageRank, CyclopsPageRank};
use cyclops_algos::sssp::{auto_bucket_width, CyclopsSssp};
use cyclops_bench::report::{self, Table};
use cyclops_bench::workloads;
use cyclops_bsp::{run_bsp, run_bsp_traced, BspConfig};
use cyclops_engine::{
    run_cyclops, run_cyclops_evolving, run_cyclops_traced, CyclopsConfig, MutationBatch, WarmStart,
};
use cyclops_graph::Dataset;
use cyclops_net::{NetworkModel, TraceSink};
use cyclops_partition::{EdgeCutPartitioner, HashPartitioner};

fn main() {
    let fraction = workloads::scale();
    report::heading(&format!("Ablations (scale {fraction})"));
    let g = workloads::gen_graph(Dataset::GWeb, fraction);
    let cluster = workloads::paper_cluster(12);
    let p = HashPartitioner.partition(&g, cluster.num_workers());

    // ---- 1. Dynamic computation. ----
    report::subheading("dynamic computation: local-error deactivation vs always-active");
    let dynamic = run_cyclops(
        &CyclopsPageRank { epsilon: 1e-7 },
        &g,
        &p,
        &CyclopsConfig {
            cluster,
            max_supersteps: 100,
            ..Default::default()
        },
    );
    let exhaustive = run_cyclops(
        &CyclopsPageRank { epsilon: 0.0 },
        &g,
        &p,
        &CyclopsConfig {
            cluster,
            max_supersteps: dynamic.supersteps,
            ..Default::default()
        },
    );
    let mut table = Table::new(&[
        "variant",
        "supersteps",
        "vertex computes",
        "messages",
        "time (s)",
    ]);
    for (name, r) in [
        ("dynamic (eps=1e-7)", &dynamic),
        ("always-active (eps=0)", &exhaustive),
    ] {
        table.row(vec![
            name.into(),
            r.supersteps.to_string(),
            report::count(r.stats.iter().map(|s| s.active_vertices).sum()),
            report::count(r.counters.messages),
            report::secs(r.elapsed),
        ]);
    }
    table.print();

    // ---- 2. Combiner. ----
    report::subheading("Hama combiner: on vs off (PageRank rank-share messages)");
    let mut table = Table::new(&["variant", "messages", "bytes", "time (s)"]);
    for (name, use_combiner) in [("combiner on", true), ("combiner off", false)] {
        let r = run_bsp(
            &BspPageRank { epsilon: 1e-7 },
            &g,
            &p,
            &BspConfig {
                cluster,
                max_supersteps: 100,
                use_combiner,
                ..Default::default()
            },
        );
        table.row(vec![
            name.into(),
            report::count(r.counters.messages),
            report::count(r.counters.bytes),
            report::secs(r.elapsed),
        ]);
    }
    table.print();
    println!("  (combining helps only when several local vertices share a remote target)");

    // ---- 3. Checkpoint content. ----
    report::subheading("checkpoint size: Cyclops value-only (§3.6) vs BSP full state");
    let cy = run_cyclops(
        &CyclopsPageRank { epsilon: 1e-9 },
        &g,
        &p,
        &CyclopsConfig {
            cluster,
            max_supersteps: 40,
            checkpoint_every: Some(10),
            ..Default::default()
        },
    );
    let bsp = run_bsp(
        &BspPageRank { epsilon: 1e-9 },
        &g,
        &p,
        &BspConfig {
            cluster,
            max_supersteps: 40,
            checkpoint_every: Some(10),
            ..Default::default()
        },
    );
    let mut table = Table::new(&["engine", "superstep", "checkpoint bytes"]);
    for cp in &cy.checkpoints {
        table.row(vec![
            "Cyclops".into(),
            cp.superstep.to_string(),
            report::count(cp.storage_bytes()),
        ]);
    }
    for cp in &bsp.checkpoints {
        table.row(vec![
            "Hama".into(),
            cp.superstep.to_string(),
            report::count(cp.storage_bytes()),
        ]);
    }
    table.print();
    println!(
        "  (BSP checkpoints carry in-flight messages; Cyclops rebuilds replicas from masters)"
    );

    // ---- 4. Incremental vs cold mutation absorption. ----
    report::subheading("topology mutation: incremental warm start vs cold rerun");
    let batch = MutationBatch {
        add_edges: vec![(0, (g.num_vertices() / 2) as u32, None)],
        ..Default::default()
    };
    let config = CyclopsConfig {
        cluster,
        max_supersteps: 200,
        ..Default::default()
    };
    let partition_fn =
        |g: &cyclops_graph::Graph| HashPartitioner.partition(g, cluster.num_workers());
    let mut table = Table::new(&[
        "policy",
        "epoch supersteps",
        "epoch vertex computes",
        "epoch messages",
    ]);
    for (name, policy) in [
        ("incremental", WarmStart::Incremental),
        ("cold", WarmStart::Cold),
    ] {
        let r = run_cyclops_evolving(
            &CyclopsPageRank { epsilon: 1e-7 },
            &g,
            partition_fn,
            &config,
            &[(batch.clone(), policy)],
        );
        let epoch = &r.epochs[1];
        table.row(vec![
            name.into(),
            epoch.supersteps.to_string(),
            report::count(epoch.stats.iter().map(|s| s.active_vertices).sum()),
            report::count(epoch.counters.messages),
        ]);
    }
    table.print();
    println!("  (the warm epoch recomputes only the disturbance wave of the inserted edge)");

    // ---- 5. Network model: the counted traffic priced on three wires. ----
    report::subheading("network model: traced run + wire time on three wires (PR, 12 workers)");
    let mut hama_sink = TraceSink::new("bsp", &cluster);
    let hama = run_bsp_traced(
        &BspPageRank { epsilon: 1e-7 },
        &g,
        &p,
        &BspConfig {
            cluster,
            max_supersteps: 100,
            use_combiner: true,
            ..Default::default()
        },
        Some(&hama_sink),
    );
    let mut cy_sink = TraceSink::new("cyclops", &cluster);
    let cy = run_cyclops_traced(
        &CyclopsPageRank { epsilon: 1e-7 },
        &g,
        &p,
        &CyclopsConfig {
            cluster,
            max_supersteps: 100,
            ..Default::default()
        },
        Some(&cy_sink),
    );
    let (hama_records, cy_records) = (hama_sink.take_records(), cy_sink.take_records());
    let mut table = Table::new(&["network", "engine", "time (s)", "speedup over Hama"]);
    // "congested" scales the wire down with the graphs: at 1/600 of the
    // paper's data volume, a proportionally slower wire puts the runs in the
    // same bandwidth-bound regime the real cluster was in.
    let congested = NetworkModel {
        bandwidth_bytes_per_sec: Some(10e6),
        batch_latency: std::time::Duration::from_micros(5),
        per_message: std::time::Duration::from_nanos(100),
    };
    for (name, network) in [
        ("ideal", NetworkModel::ideal()),
        ("gigabit", NetworkModel::gigabit()),
        ("congested", congested),
    ] {
        let hama_s = hama.elapsed + network.wire_time(&hama_records);
        let cy_s = cy.elapsed + network.wire_time(&cy_records);
        let speedup = report::speedup(hama_s.as_secs_f64() / cy_s.as_secs_f64());
        table.row(vec![
            name.into(),
            "Hama".into(),
            report::secs(hama_s),
            "1.00x".into(),
        ]);
        table.row(vec![
            name.into(),
            "Cyclops".into(),
            report::secs(cy_s),
            speedup,
        ]);
    }
    table.print();
    println!(
        "  (time = the wall-clock of one run that records a memory trace + the\n\
         \x20 modeled wire time of the traffic that trace counted; at this scale the\n\
         \x20 gigabit wire is bound by its 50 µs per batch, the congested one by bytes,\n\
         \x20 where the byte-volume ratio shows)"
    );

    // ---- 6. Inbox discipline on the Hama baseline. ----
    report::subheading("Hama inbox: GlobalQueue (one locked queue) vs Sharded sender lanes");
    let mut table = Table::new(&["inbox", "messages", "lock contentions", "time (s)"]);
    for (name, inbox) in [
        ("global queue", cyclops_net::InboxMode::GlobalQueue),
        ("sharded lanes", cyclops_net::InboxMode::Sharded),
    ] {
        let r = run_bsp(
            &BspPageRank { epsilon: 1e-7 },
            &g,
            &p,
            &BspConfig {
                cluster,
                max_supersteps: 100,
                use_combiner: true,
                inbox,
                ..Default::default()
            },
        );
        table.row(vec![
            name.into(),
            report::count(r.counters.messages),
            report::count(r.counters.lock_contentions),
            report::secs(r.elapsed),
        ]);
    }
    table.print();
    println!("  (sharded lanes remove enqueue contention even under Hama's semantics)");

    // ---- 7. Adaptive wire format vs legacy framing. ----
    report::subheading("wire format: adaptive sparse/dense ReplicaBatch vs legacy tuple framing");
    let road = workloads::gen_graph(Dataset::RoadCa, fraction);
    let proad = HashPartitioner.partition(&road, cluster.num_workers());
    let pr = run_cyclops(
        &CyclopsPageRank { epsilon: 1e-7 },
        &g,
        &p,
        &CyclopsConfig {
            cluster,
            max_supersteps: 100,
            ..Default::default()
        },
    );
    let sssp_program = CyclopsSssp {
        source: workloads::SSSP_SOURCE,
    };
    let per_hop = CyclopsConfig {
        cluster,
        max_supersteps: 100_000,
        ..Default::default()
    };
    let sssp = run_cyclops(&sssp_program, &road, &proad, &per_hop);
    let mut table = Table::new(&[
        "workload",
        "wire bytes",
        "legacy bytes",
        "saved",
        "dense batches",
        "sparse batches",
    ]);
    for (name, c) in [("PR GWeb", &pr.counters), ("SSSP RoadCA", &sssp.counters)] {
        let legacy = c.bytes + c.wire_saved_bytes;
        table.row(vec![
            name.into(),
            report::count(c.bytes),
            report::count(legacy),
            format!("{:.1}%", 100.0 * c.wire_saved_bytes as f64 / legacy as f64),
            report::count(c.wire_dense_batches),
            report::count(c.wire_sparse_batches),
        ]);
    }
    table.print();
    println!(
        "  (the encoder prices both framings exactly and keeps the smaller, so\n\
         \x20 one run reports both; PageRank mixes dense early supersteps with a\n\
         \x20 sparse convergence tail, the SSSP wavefront stays sparse throughout)"
    );

    // ---- 8. Bucketed delta-stepping vs barrier-per-hop SSSP. ----
    report::subheading("bucketed execution: delta-stepping buckets vs one barrier per hop");
    let width = auto_bucket_width(&road);
    let bucketed = run_cyclops(
        &sssp_program,
        &road,
        &proad,
        &CyclopsConfig {
            bucket_width: width,
            bucket_mode: cyclops_net::BucketMode::Det,
            ..per_hop
        },
    );
    assert_eq!(
        sssp.values, bucketed.values,
        "bucketed distances must be bitwise identical"
    );
    let mut table = Table::new(&["variant", "supersteps", "messages", "bytes", "time (s)"]);
    for (name, supersteps, c, elapsed) in [
        (
            "barrier per hop",
            sssp.supersteps,
            &sssp.counters,
            sssp.elapsed,
        ),
        (
            "bucketed (auto width, det)",
            bucketed.supersteps,
            &bucketed.counters,
            bucketed.elapsed,
        ),
    ] {
        table.row(vec![
            name.into(),
            supersteps.to_string(),
            report::count(c.messages),
            report::count(c.bytes),
            report::secs(elapsed),
        ]);
    }
    table.print();
    println!(
        "  (width {width:.3} = 8x mean edge weight; each superstep drains one\n\
         \x20 priority bucket to a fixpoint behind a single barrier pair, so the\n\
         \x20 ~diameter-long chain of near-empty supersteps collapses; distances\n\
         \x20 are bitwise identical — asserted above)"
    );

    // ---- 9. Hybrid replication degree threshold. ----
    // Convergence epsilon, not the quick-mode one: a messaged vertex trades
    // standing per-superstep replica costs for a one-shot direct frame, so
    // the byte balance only settles once the run is long enough to amortize
    // the frame's fixed bytes.
    report::subheading(
        "hybrid replication: full vs degree-threshold (PR to convergence on GWeb, 12 workers)",
    );
    let auto = p.auto_replicate_threshold(&g);
    let pr_workload = workloads::Workload {
        dataset: Dataset::GWeb,
        algo: workloads::Algo::PageRank,
    };
    let mut table = Table::new(&[
        "threshold",
        "repl factor",
        "replicated",
        "messaged",
        "messages",
        "bytes",
        "direct msgs",
        "time (s)",
    ]);
    let mut baseline_values: Option<Vec<f64>> = None;
    for (label, t) in [
        ("0 (full)".to_string(), 0),
        ("2".to_string(), 2),
        ("8".to_string(), 8),
        (format!("auto ({auto})"), auto),
    ] {
        let r = workloads::run_on_cyclops(
            &pr_workload,
            &g,
            &p,
            &cluster,
            fraction,
            t,
            workloads::PR_CONVERGENCE_EPSILON,
        );
        let values = r.values_f64.clone().unwrap();
        match &baseline_values {
            None => baseline_values = Some(values),
            Some(base) => assert_eq!(
                base, &values,
                "hybrid results must be bitwise identical at threshold {t}"
            ),
        }
        let ingress = r.ingress.unwrap();
        table.row(vec![
            label,
            format!("{:.3}", r.replication_factor),
            report::count(ingress.replicated_boundary),
            report::count(ingress.messaged_boundary),
            report::count(r.counters.messages),
            report::count(r.counters.bytes),
            report::count(r.direct_messages),
            report::secs(r.elapsed),
        ]);
    }
    table.print();
    println!(
        "  (cold boundary vertices — combined degree below the threshold — lose\n\
         \x20 their replicas and are reached by direct messages instead; ranks are\n\
         \x20 bitwise identical at every threshold — asserted above)"
    );
}
