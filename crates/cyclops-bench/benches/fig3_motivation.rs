//! Figure 3 (§2.2): the motivation for dynamic computation.
//!
//! 1. number of vertices converging in each superstep of BSP PageRank on
//!    GWeb (convergence is strongly asymmetric),
//! 2. ratio of redundant (same-value) messages per superstep,
//! 3. final per-vertex error distribution when the *global* error bound is
//!    reached, plus the GWeb-vs-Amazon converged-proportion mismatch the
//!    paper quotes (94.9% vs 87.7% at the same bound, §2.2.3).

use cyclops_algos::pagerank::BspPageRank;
use cyclops_bench::report::{self, Table};
use cyclops_bench::workloads;
use cyclops_bsp::{run_bsp, BspConfig, BspResult};
use cyclops_graph::{reference, Dataset, Graph};
use cyclops_net::ClusterSpec;
use cyclops_partition::{EdgeCutPartition, EdgeCutPartitioner, HashPartitioner};

const EPSILON: f64 = 1e-10;

/// Hama PageRank to a global error of [`EPSILON`], combining, with the
/// redundant re-broadcasts panel 2 plots counted.
fn hama_pagerank(
    g: &Graph,
    p: &EdgeCutPartition,
    cluster: ClusterSpec,
    max_supersteps: usize,
) -> BspResult<f64, f64> {
    let config = BspConfig {
        cluster,
        max_supersteps,
        use_combiner: true,
        track_redundant: true,
        ..Default::default()
    };
    run_bsp(&BspPageRank { epsilon: EPSILON }, g, p, &config)
}

fn main() {
    let fraction = workloads::scale();
    report::heading(&format!(
        "Figure 3: BSP PageRank motivation (GWeb stand-in, scale {fraction})"
    ));

    let g = workloads::gen_graph(Dataset::GWeb, fraction);
    println!(
        "graph: {} vertices, {} edges",
        report::count(g.num_vertices()),
        report::count(g.num_edges())
    );

    // ---- Panel 1: vertices converged per superstep (reference sweeps). ----
    report::subheading("Fig 3(1): newly converged vertices per superstep (|Δ| <= 1e-10)");
    let n = g.num_vertices();
    let mut current = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    let mut converged = vec![false; n];
    let mut table = Table::new(&["superstep", "newly converged", "cumulative %"]);
    let mut cumulative = 0usize;
    let mut rows = 0usize;
    for step in 0..300 {
        reference::pagerank_step(&g, &current, &mut next);
        let mut newly = 0usize;
        for v in 0..n {
            if !converged[v] && (next[v] - current[v]).abs() <= EPSILON {
                converged[v] = true;
                newly += 1;
            }
        }
        cumulative += newly;
        std::mem::swap(&mut current, &mut next);
        if newly > 0 && rows < 30 {
            rows += 1;
            table.row(vec![
                step.to_string(),
                report::count(newly),
                format!("{:.1}%", 100.0 * cumulative as f64 / n as f64),
            ]);
        }
        if cumulative == n {
            break;
        }
    }
    table.print();

    // ---- Panel 2: redundant message ratio per superstep (BSP engine). ----
    report::subheading("Fig 3(2): ratio of redundant messages per superstep (BSP)");
    let cluster = workloads::paper_cluster(12);
    let p = HashPartitioner.partition(&g, cluster.num_workers());
    let r = hama_pagerank(&g, &p, cluster, 60);
    let mut table = Table::new(&["superstep", "messages", "redundant", "ratio"]);
    for s in r
        .stats
        .iter()
        .filter(|s| s.superstep % 4 == 0 || s.superstep < 8)
    {
        let ratio = if s.messages_sent > 0 {
            s.redundant_messages as f64 / s.messages_sent as f64
        } else {
            0.0
        };
        table.row(vec![
            s.superstep.to_string(),
            report::count(s.messages_sent),
            report::count(s.redundant_messages),
            format!("{:.2}", ratio),
        ]);
    }
    table.print();
    let late: Vec<&cyclops_net::SuperstepStats> =
        r.stats.iter().filter(|s| s.superstep >= 14).collect();
    if !late.is_empty() {
        let msgs: usize = late.iter().map(|s| s.messages_sent).sum();
        let red: usize = late.iter().map(|s| s.redundant_messages).sum();
        println!(
            "  after superstep 14: {:.0}% of messages are redundant (paper: >30%)",
            100.0 * red as f64 / msgs.max(1) as f64
        );
    }

    // ---- Panel 3: final error distribution at global convergence. ----
    report::subheading("Fig 3(3): per-vertex error when the GLOBAL bound is reached");
    let final_errors = |g: &cyclops_graph::Graph, values: &[f64]| -> Vec<f64> {
        let mut next = vec![0.0; values.len()];
        reference::pagerank_step(g, values, &mut next);
        values
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .collect()
    };
    let mut proportions = Vec::new();
    for ds in [Dataset::GWeb, Dataset::Amazon] {
        let g = workloads::gen_graph(ds, fraction);
        let p = HashPartitioner.partition(&g, cluster.num_workers());
        let r = hama_pagerank(&g, &p, cluster, 400);
        let errors = final_errors(&g, &r.values);
        let converged = errors.iter().filter(|&&e| e <= EPSILON).count();
        let prop = 100.0 * converged as f64 / g.num_vertices() as f64;
        proportions.push((ds, prop));

        // The paper's key point: unconverged vertices concentrate among the
        // high-rank (important) vertices.
        let mut by_rank: Vec<(f64, f64)> = r
            .values
            .iter()
            .copied()
            .zip(errors.iter().copied())
            .collect();
        by_rank.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        let top = &by_rank[..by_rank.len() / 10];
        let bottom = &by_rank[by_rank.len() / 2..];
        let unconv = |slice: &[(f64, f64)]| {
            100.0 * slice.iter().filter(|&&(_, e)| e > EPSILON).count() as f64 / slice.len() as f64
        };
        println!(
            "  {ds}: {prop:.1}% converged at global bound; unconverged among top-10% ranks: \
             {:.1}%, among bottom-50%: {:.1}%",
            unconv(top),
            unconv(bottom)
        );
    }
    println!(
        "  same bound, different graphs -> different converged proportions: \
         {} {:.1}% vs {} {:.1}% (paper: 94.9% vs 87.7%)",
        proportions[0].0, proportions[0].1, proportions[1].0, proportions[1].1
    );
}
