//! Figure 13 (§6.7–6.9): ingress time, scaling with graph size, and
//! convergence speed.
//!
//! 1. graph ingress breakdown (LD / REP / INIT) per dataset, Hama vs
//!    Cyclops,
//! 2. ALS execution time vs graph size (CyclopsMT),
//! 3. L1-norm distance to the converged PageRank result over execution
//!    time for Hama, Cyclops and CyclopsMT on GWeb.

use cyclops_algos::pagerank::{BspPageRank, CyclopsPageRank};
use cyclops_bench::report::{self, Table};
use cyclops_bench::workloads::{self, run_on_cyclops, run_on_hama};
use cyclops_bsp::{run_bsp, BspConfig};
use cyclops_engine::{run_cyclops, CyclopsConfig, CyclopsPlan};
use cyclops_graph::{reference, Dataset};
use cyclops_partition::{EdgeCutPartitioner, HashPartitioner};
use std::time::Instant;

fn main() {
    let fraction = workloads::scale();
    report::heading(&format!("Figure 13 (scale {fraction})"));

    // ---- Panel 1: ingress time. ----
    report::subheading("Fig 13(1): graph ingress breakdown, 48 workers (ms)");
    let mut table = Table::new(&[
        "dataset",
        "Hama LD",
        "Hama INIT",
        "Hama TOT",
        "Cy LD",
        "Cy REP",
        "Cy INIT",
        "Cy TOT",
    ]);
    let ms = |d: std::time::Duration| format!("{:.2}", d.as_secs_f64() * 1e3);
    for ds in Dataset::all() {
        let g = workloads::gen_graph(ds, fraction);
        let p = HashPartitioner.partition(&g, 48);

        // Hama ingress: distribute vertices (LD) + initialize values (INIT).
        let ld_start = Instant::now();
        let mut locals: Vec<Vec<u32>> = vec![Vec::new(); 48];
        for v in g.vertices() {
            locals[p.part_of(v) as usize].push(v);
        }
        let hama_ld = ld_start.elapsed();
        let init_start = Instant::now();
        let n = g.num_vertices() as f64;
        let mut values = 0.0f64;
        for worker in &locals {
            for _ in worker {
                values += 1.0 / n; // per-vertex initialization work
            }
        }
        std::hint::black_box(values);
        let hama_init = init_start.elapsed();

        // Cyclops ingress: LD + REP from the plan; INIT measured over the
        // same per-vertex initialization plus replica seeding.
        let plan = CyclopsPlan::build_parallel(&g, &p);
        let init_start = Instant::now();
        let mut seeded = 0usize;
        for wp in &plan.workers {
            seeded += wp.num_masters() + wp.num_replicas();
        }
        std::hint::black_box(seeded);
        let cy_init = init_start.elapsed() + hama_init;

        table.row(vec![
            ds.to_string(),
            ms(hama_ld),
            ms(hama_init),
            ms(hama_ld + hama_init),
            ms(plan.ingress.load),
            ms(plan.ingress.replicate),
            ms(cy_init),
            ms(plan.ingress.load + plan.ingress.replicate + cy_init),
        ]);
    }
    table.print();
    println!("  paper: Cyclops' extra cost is the replication phase — a one-time cost");

    // ---- Panel 2: ALS scaling with graph size. ----
    report::subheading("Fig 13(2): ALS execution time vs graph size (CyclopsMT)");
    let mut table = Table::new(&["edges", "time (s)"]);
    for mult in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let f = fraction * mult;
        let g = workloads::gen_graph(Dataset::SynGl, f);
        let w = workloads::paper_workloads()[4];
        let mt = workloads::paper_cluster_mt(48);
        let p = HashPartitioner.partition(&g, mt.num_workers());
        let out = run_on_cyclops(&w, &g, &p, &mt, f, 0, workloads::PR_EPSILON);
        table.row(vec![
            report::count(g.num_edges()),
            report::secs(out.elapsed),
        ]);
    }
    table.print();
    println!("  paper: 9.6s at 0.34M edges to 207.7s at 20.2M — roughly linear");

    // ---- Panel 3: convergence speed (L1-norm over time). ----
    report::subheading("Fig 13(3): L1-norm distance to final PageRank vs time (GWeb)");
    let g = workloads::gen_graph(Dataset::GWeb, fraction);
    let (final_ranks, _) = reference::pagerank(&g, 1e-14, 500);
    let mut table = Table::new(&["supersteps", "engine", "time (s)", "L1-norm"]);
    for k in [2usize, 5, 10, 20, 40] {
        // Truncated runs: rerun each engine capped at k supersteps and
        // measure distance of the partial result to the converged ranks.
        let flat = workloads::paper_cluster(48);
        let p48 = HashPartitioner.partition(&g, 48);
        // Hama's superstep 0 only seeds, so k updates take k + 1.
        let hama = run_bsp(
            &BspPageRank { epsilon: 0.0 },
            &g,
            &p48,
            &BspConfig {
                cluster: flat,
                max_supersteps: k + 1,
                use_combiner: true,
                track_redundant: true,
                ..Default::default()
            },
        );
        table.row(vec![
            k.to_string(),
            "Hama".into(),
            report::secs(hama.elapsed),
            format!("{:.2e}", reference::l1_distance(&hama.values, &final_ranks)),
        ]);
        let capped = |cluster| CyclopsConfig {
            cluster,
            max_supersteps: k,
            ..Default::default()
        };
        let pagerank = CyclopsPageRank { epsilon: 0.0 };
        let cy = run_cyclops(&pagerank, &g, &p48, &capped(flat));
        table.row(vec![
            k.to_string(),
            "Cyclops".into(),
            report::secs(cy.elapsed),
            format!("{:.2e}", reference::l1_distance(&cy.values, &final_ranks)),
        ]);
        let mt_cluster = workloads::paper_cluster_mt(48);
        let p6 = HashPartitioner.partition(&g, mt_cluster.num_workers());
        let mt = run_cyclops(&pagerank, &g, &p6, &capped(mt_cluster));
        table.row(vec![
            k.to_string(),
            "CyclopsMT".into(),
            report::secs(mt.elapsed),
            format!("{:.2e}", reference::l1_distance(&mt.values, &final_ranks)),
        ]);
    }
    table.print();
    let _ = run_on_hama;
    let _ = run_on_cyclops;
    println!("  paper: Cyclops and CyclopsMT reach any given L1-norm sooner than Hama");
}
