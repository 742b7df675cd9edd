//! Skewed-partition dynamic migration panel (beyond the paper's own
//! figures): a pathological edge-cut piles the majority of masters onto
//! worker 0, and the superstep-boundary migration planner walks the skew
//! off at runtime — hot masters hop from the straggler to underloaded
//! workers under a hysteresis band and a per-epoch move budget.
//!
//! The planner consumes deterministic compute-cost counters, never
//! clocks, so results are bitwise identical at every `--migrate` setting;
//! both panels assert that. Wall-clock improves only insofar as the
//! compute imbalance (max/mean per-worker epoch load) actually drops —
//! both columns are printed side by side.

use cyclops_algos::pagerank::CyclopsPageRank;
use cyclops_algos::sssp::CyclopsSssp;
use cyclops_bench::report::{self, Table};
use cyclops_bench::workloads;
use cyclops_engine::{
    run_cyclops, run_cyclops_migrated, CyclopsConfig, CyclopsResult, MigrationReport,
};
use cyclops_graph::{Dataset, Graph};
use cyclops_partition::{EdgeCutPartition, EdgeCutPartitioner, HashPartitioner, MigrationConfig};

/// The skew the panel fights: fraction of the vertex ids re-homed onto
/// worker 0 on top of a hash partition (the CLI's `--skew` in library
/// form).
const SKEW: f64 = 0.6;

fn skewed(g: &Graph, workers: usize) -> EdgeCutPartition {
    let mut p = HashPartitioner.partition(g, workers);
    let cut = (SKEW * g.num_vertices() as f64) as usize;
    for a in p.assignment.iter_mut().take(cut) {
        *a = 0;
    }
    p
}

fn span(report: &MigrationReport) -> String {
    match report.imbalance_span() {
        Some((before, after)) => format!("{before:.2} -> {after:.2}"),
        None => "-".into(),
    }
}

fn row(
    table: &mut Table,
    name: &str,
    r: &CyclopsResult<f64, f64>,
    migration: Option<&MigrationReport>,
    baseline: &CyclopsResult<f64, f64>,
) {
    let bitwise = r
        .values
        .iter()
        .zip(&baseline.values)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(bitwise, "{name}: migrated values drifted from static run");
    table.row(vec![
        name.into(),
        migration
            .map(|m| m.migrations_total.to_string())
            .unwrap_or_else(|| "-".into()),
        migration
            .map(|m| report::count(m.migrated_bytes))
            .unwrap_or_else(|| "-".into()),
        migration.map(span).unwrap_or_else(|| "-".into()),
        r.supersteps.to_string(),
        report::secs(r.elapsed),
        "yes".into(),
    ]);
}

fn main() {
    let fraction = workloads::scale();
    report::heading(&format!(
        "Dynamic migration on a skewed partition (scale {fraction}, skew {SKEW})"
    ));
    let cluster = workloads::paper_cluster(12);
    let headers = [
        "variant",
        "moves",
        "migration bytes",
        "imbalance",
        "supersteps",
        "time (s)",
        "bitwise",
    ];

    // ---- SSSP on RoadCA: a long wavefront marches through the skew. ----
    report::subheading("SSSP RoadCA, 12 workers, 60% of masters piled on worker 0");
    let road = workloads::gen_graph(Dataset::RoadCa, fraction);
    let p = skewed(&road, cluster.num_workers());
    let sssp = CyclopsSssp {
        source: workloads::SSSP_SOURCE,
    };
    let config = CyclopsConfig {
        cluster,
        max_supersteps: 100_000,
        ..Default::default()
    };
    let baseline = run_cyclops(&sssp, &road, &p, &config);
    let mut table = Table::new(&headers);
    row(
        &mut table,
        "static (migrate off)",
        &baseline,
        None,
        &baseline,
    );
    for every in [4usize, 8, 16] {
        let (r, m) =
            run_cyclops_migrated(&sssp, &road, &p, &config, every, MigrationConfig::default());
        row(
            &mut table,
            &format!("migrate every {every}"),
            &r,
            Some(&m),
            &baseline,
        );
    }
    table.print();

    // ---- PageRank on GWeb: stable frontier, skew persists all run. ----
    report::subheading("PageRank GWeb, 12 workers, 60% of masters piled on worker 0");
    let web = workloads::gen_graph(Dataset::GWeb, fraction);
    let p = skewed(&web, cluster.num_workers());
    let pagerank = CyclopsPageRank {
        epsilon: workloads::PR_CONVERGENCE_EPSILON,
    };
    let config = CyclopsConfig {
        cluster,
        max_supersteps: workloads::PR_MAX_SUPERSTEPS,
        ..Default::default()
    };
    let baseline = run_cyclops(&pagerank, &web, &p, &config);
    let mut table = Table::new(&headers);
    row(
        &mut table,
        "static (migrate off)",
        &baseline,
        None,
        &baseline,
    );
    for every in [4usize, 8] {
        let (r, m) = run_cyclops_migrated(
            &pagerank,
            &web,
            &p,
            &config,
            every,
            MigrationConfig::default(),
        );
        row(
            &mut table,
            &format!("migrate every {every}"),
            &r,
            Some(&m),
            &baseline,
        );
    }
    table.print();
    println!(
        "  (the planner moves hot masters off worker 0 whenever its epoch load\n\
         \x20 exceeds 1.2x the mean, at most 8 per boundary; the load counters are\n\
         \x20 deterministic compute-cost proxies, so every variant lands on bitwise\n\
         \x20 identical values — asserted per row above)"
    );
}
