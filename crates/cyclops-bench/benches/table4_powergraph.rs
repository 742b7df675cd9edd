//! Table 4 (§6.12): CyclopsMT vs PowerGraph, PageRank on the four web/social
//! graphs under hash-based and heuristic partitioning.
//!
//! Reported per (dataset, partitioner): execution time, average replicas
//! per vertex, total messages, messages-per-replica ratio, and the CMP share
//! of execution time. The paper's headline: comparable replication factors,
//! but PowerGraph sends ~5 messages per replica per iteration vs at most 1
//! for Cyclops, so Cyclops sends ~5-6x fewer messages.

use cyclops_bench::report::{self, Table};
use cyclops_bench::workloads::{self, run_on_cyclops, run_on_gas};
use cyclops_partition::{
    EdgeCutPartitioner, GreedyVertexCut, HashPartitioner, MultilevelPartitioner, RandomVertexCut,
    VertexCutPartitioner,
};

fn main() {
    let fraction = workloads::scale();
    report::heading(&format!(
        "Table 4: CyclopsMT vs PowerGraph, PageRank (scale {fraction})"
    ));

    for heuristic in [false, true] {
        report::subheading(if heuristic {
            "Heuristic partition (Cyclops: Metis edge-cut; PG: coordinated greedy vertex-cut)"
        } else {
            "Hash-based partition (Cyclops: vertex hash; PG: random edge placement)"
        });
        let mut table = Table::new(&[
            "dataset",
            "Cy time (s)",
            "PG time (s)",
            "Cy replicas",
            "PG replicas",
            "Cy msgs",
            "PG msgs",
            "msg ratio",
            "Cy msg/rep/iter",
            "PG msg/rep/iter",
            "Cy CMP%",
        ]);
        for w in &workloads::paper_workloads()[..4] {
            let g = workloads::gen_graph(w.dataset, fraction);

            // CyclopsMT on 6 machines x 8 threads.
            let mt_cluster = workloads::paper_cluster_mt(48);
            let edge_cut = if heuristic {
                MultilevelPartitioner::default().partition(&g, mt_cluster.num_workers())
            } else {
                HashPartitioner.partition(&g, mt_cluster.num_workers())
            };
            let cy = run_on_cyclops(
                w,
                &g,
                &edge_cut,
                &mt_cluster,
                fraction,
                0,
                workloads::PR_EPSILON,
            );

            // PowerGraph runs one process per machine: the vertex-cut has 6
            // parts, like the paper's 6-machine deployment.
            let gas_cluster = cyclops_net::ClusterSpec::flat(6, 1);
            let vertex_cut = if heuristic {
                GreedyVertexCut::default().partition(&g, 6)
            } else {
                RandomVertexCut::default().partition(&g, 6)
            };
            let pg = run_on_gas(w, &g, &vertex_cut, &gas_cluster);

            let cy_phases = cy
                .stats
                .iter()
                .fold(cyclops_net::PhaseTimes::default(), |a, s| {
                    a.merge(&s.phase_times)
                });
            let cmp_pct = 100.0 * cy_phases.compute.as_secs_f64()
                / cy_phases.total().as_secs_f64().max(1e-12);

            // Messages per replica per iteration.
            let cy_replicas = cy.ingress.map(|i| i.total_replicas).unwrap_or(0).max(1);
            let pg_mirrors = vertex_cut.total_mirrors().max(1);
            let cy_rate =
                cy.counters.messages as f64 / (cy_replicas as f64 * cy.supersteps.max(1) as f64);
            let pg_rate =
                pg.counters.messages as f64 / (pg_mirrors as f64 * pg.supersteps.max(1) as f64);

            table.row(vec![
                w.dataset.to_string(),
                report::secs(cy.elapsed),
                report::secs(pg.elapsed),
                format!("{:.2}", cy.replication_factor),
                format!("{:.2}", pg.replication_factor),
                report::count(cy.counters.messages),
                report::count(pg.counters.messages),
                format!(
                    "{:.1}x",
                    pg.counters.messages as f64 / cy.counters.messages.max(1) as f64
                ),
                format!("{cy_rate:.2}"),
                format!("{pg_rate:.2}"),
                format!("{cmp_pct:.0}%"),
            ]);
        }
        table.print();
    }
    println!(
        "  paper: comparable replication factors; PG sends ~5 msgs/replica/iter vs\n\
         \x20 <=1 for Cyclops -> ~5-6x message ratio. (Cy replicas counted per the\n\
         \x20 edge-cut definition, PG per vertex-cut incl. masters, as the paper does.)"
    );

    // ---- Replication factor vs hybrid degree threshold. ----
    // Cold boundary vertices (combined degree below the threshold) lose their
    // replicas and fall back to direct messages, so the factor can only fall
    // as the threshold rises; `auto` picks the traffic-model minimum.
    report::subheading("Replication factor vs --replicate-threshold (hash partition, 48 workers)");
    let thresholds: &[u32] = &[0, 2, 4, 8, 16, 64];
    let mut header: Vec<String> = vec!["dataset".into()];
    header.extend(thresholds.iter().map(|t| format!("t={t}")));
    header.push("auto".into());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut sweep_table = Table::new(&header_refs);
    for w in &workloads::paper_workloads()[..4] {
        let g = workloads::gen_graph(w.dataset, fraction);
        let p = HashPartitioner.partition(&g, 48);
        let mut row = vec![w.dataset.to_string()];
        row.extend(
            p.replication_factor_sweep(&g, thresholds)
                .iter()
                .map(|(_, f)| format!("{f:.3}")),
        );
        let auto = p.auto_replicate_threshold(&g);
        row.push(format!(
            "{:.3} (t={auto})",
            p.replication_factor_at_threshold(&g, auto)
        ));
        sweep_table.row(row);
    }
    sweep_table.print();
    println!(
        "  t=0 is full replication (the paper's immutable view); higher thresholds\n\
         \x20 trade replicas for direct messages on cold boundary vertices."
    );

    // ---- Memory vs replication threshold. ----
    // The replication factor sweep above counts replicas; this panel prices
    // them, using the same capacity-exact `memory_breakdown` audit that the
    // `--mem` tracking allocator is tested against. "boundary" is the sum of
    // the `Replicas` and `DirectSlots` ledgers: everything the hybrid
    // threshold can trade, and the bytes the paper's Table 4 memory column
    // is about.
    report::subheading("Plan memory vs --replicate-threshold (hash partition, 48 workers)");
    let mut mem_table = Table::new(&[
        "dataset",
        "full boundary",
        "auto boundary",
        "t=8 boundary",
        "auto replicas",
        "auto direct",
        "auto saving",
    ]);
    for w in &workloads::paper_workloads()[..4] {
        let g = workloads::gen_graph(w.dataset, fraction);
        let p = HashPartitioner.partition(&g, 48);
        let auto = p.auto_replicate_threshold(&g);
        let boundary = |t: u32| {
            let b = cyclops_engine::CyclopsPlan::build_parallel_with_threshold(&g, &p, t)
                .memory_breakdown();
            (b.replicas + b.direct_slots, b.replicas, b.direct_slots)
        };
        let (full, _, _) = boundary(0);
        let (auto_total, auto_reps, auto_direct) = boundary(auto);
        let (t8, _, _) = boundary(8);
        assert!(
            auto_total < full,
            "{}: auto threshold {auto} must shrink boundary memory \
             ({auto_total} vs {full} bytes at t=0)",
            w.dataset
        );
        mem_table.row(vec![
            w.dataset.to_string(),
            report::bytes(full),
            format!("{} (t={auto})", report::bytes(auto_total)),
            report::bytes(t8),
            report::bytes(auto_reps),
            report::bytes(auto_direct),
            format!("{:.1}%", 100.0 * (full - auto_total) as f64 / full as f64),
        ]);
    }
    mem_table.print();
    println!(
        "  boundary = Replicas + DirectSlots bytes from CyclopsPlan::memory_breakdown\n\
         \x20 (capacity-exact; equals what the --mem allocator tracks). auto drops cold\n\
         \x20 replicas for slim direct slots, so its boundary bytes sit strictly below\n\
         \x20 full replication on every power-law graph."
    );
}
