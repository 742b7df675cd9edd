//! Figure 10 (§6.4): where the speedup comes from.
//!
//! 1. execution-time breakdown (SYN / PRS / CMP / SND) for Hama, Cyclops
//!    and CyclopsMT on every workload with 48 workers,
//! 2. number of active vertices per superstep (PageRank on GWeb),
//! 3. number of messages per superstep (PageRank on GWeb).

use cyclops_bench::report::{self, Table};
use cyclops_bench::workloads::{self, run_on_cyclops, run_on_hama, Outcome};
use cyclops_graph::Dataset;
use cyclops_net::PhaseTimes;
use cyclops_partition::{EdgeCutPartitioner, HashPartitioner};

fn phase_row(label: String, engine: &str, t: &PhaseTimes, hama_total: f64) -> Vec<String> {
    let ms = |d: std::time::Duration| format!("{:.1}", d.as_secs_f64() * 1e3);
    vec![
        label,
        engine.to_string(),
        ms(t.sync),
        ms(t.parse),
        ms(t.compute),
        ms(t.send),
        format!(
            "{:.0}%",
            100.0 * t.total().as_secs_f64() / hama_total.max(1e-12)
        ),
    ]
}

fn total_phases(o: &Outcome) -> PhaseTimes {
    o.stats
        .iter()
        .fold(PhaseTimes::default(), |acc, s| acc.merge(&s.phase_times))
}

fn main() {
    let fraction = workloads::scale();
    report::heading(&format!(
        "Figure 10: performance breakdown (scale {fraction})"
    ));

    // ---- Panel 1: phase breakdown per workload. ----
    report::subheading("Fig 10(1): execution time breakdown, 48 workers (ms, summed over workers)");
    let mut table = Table::new(&[
        "workload",
        "engine",
        "SYN",
        "PRS",
        "CMP",
        "SND",
        "total vs Hama",
    ]);
    for w in workloads::paper_workloads() {
        let g = workloads::gen_graph(w.dataset, fraction);
        let label = format!("{} {}", w.algo, w.dataset);
        let flat = workloads::paper_cluster(48);
        let p48 = HashPartitioner.partition(&g, 48);
        let hama = run_on_hama(&w, &g, &p48, &flat, fraction);
        let hama_total = total_phases(&hama).total().as_secs_f64();
        table.row(phase_row(
            label.clone(),
            "Hama",
            &total_phases(&hama),
            hama_total,
        ));
        let cy = run_on_cyclops(&w, &g, &p48, &flat, fraction, 0, workloads::PR_EPSILON);
        table.row(phase_row(
            label.clone(),
            "Cyclops",
            &total_phases(&cy),
            hama_total,
        ));
        let mt_cluster = workloads::paper_cluster_mt(48);
        let p6 = HashPartitioner.partition(&g, mt_cluster.num_workers());
        let mt = run_on_cyclops(&w, &g, &p6, &mt_cluster, fraction, 0, workloads::PR_EPSILON);
        table.row(phase_row(
            label,
            "CyclopsMT",
            &total_phases(&mt),
            hama_total,
        ));
    }
    table.print();
    println!(
        "  paper: normalized to Hama; Cyclops removes PRS and shrinks CMP/SND on\n\
         \x20 pull-mode workloads (phase times here are summed across workers)"
    );

    // ---- Panels 2 & 3: per-superstep series, PageRank on GWeb. ----
    let g = workloads::gen_graph(Dataset::GWeb, fraction);
    let w = workloads::paper_workloads()[1];
    let flat = workloads::paper_cluster(48);
    let p = HashPartitioner.partition(&g, 48);
    let hama = run_on_hama(&w, &g, &p, &flat, fraction);
    let cy = run_on_cyclops(&w, &g, &p, &flat, fraction, 0, workloads::PR_EPSILON);

    report::subheading("Fig 10(2): active vertices per superstep (PR on GWeb)");
    let mut table = Table::new(&["superstep", "Hama", "Cyclops"]);
    let steps = hama.stats.len().max(cy.stats.len());
    for s in (0..steps).filter(|s| s % 4 == 0 || *s < 8) {
        let h = hama.stats.get(s).map(|x| x.active_vertices).unwrap_or(0);
        let c = cy.stats.get(s).map(|x| x.active_vertices).unwrap_or(0);
        table.row(vec![s.to_string(), report::count(h), report::count(c)]);
    }
    table.print();

    report::subheading("Fig 10(3): messages per superstep (PR on GWeb)");
    let mut table = Table::new(&["superstep", "Hama", "Cyclops"]);
    for s in (0..steps).filter(|s| s % 4 == 0 || *s < 8) {
        let h = hama.stats.get(s).map(|x| x.messages_sent).unwrap_or(0);
        let c = cy.stats.get(s).map(|x| x.messages_sent).unwrap_or(0);
        table.row(vec![s.to_string(), report::count(h), report::count(c)]);
    }
    table.print();
    let h_total: usize = hama.stats.iter().map(|s| s.messages_sent).sum();
    let c_total: usize = cy.stats.iter().map(|s| s.messages_sent).sum();
    println!(
        "  totals: Hama {} vs Cyclops {} messages ({:.1}x fewer)",
        report::count(h_total),
        report::count(c_total),
        h_total as f64 / c_total.max(1) as f64
    );
}
