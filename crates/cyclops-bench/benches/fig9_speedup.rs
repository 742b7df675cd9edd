//! Figure 9 (§6.3): overall performance.
//!
//! 1. speedup of Cyclops and CyclopsMT over Hama with 48 workers on every
//!    workload (hash partition),
//! 2. scalability over 6/12/24/48 workers, normalized to Hama with 6.
//!
//! Set `CYCLOPS_FULL=1` to run the full scalability sweep; the default runs
//! panel 1 plus a reduced sweep (6 and 24 workers) to stay fast on small
//! machines. Set `CYCLOPS_BENCH_JSON=<path>` to additionally write panel 1
//! as a machine-readable JSON baseline (the committed `BENCH_fig9.json`).
//! Panel 1b diffs the fresh Cyclops bytes/time per workload against the
//! committed baseline (override its path with `CYCLOPS_BENCH_BASELINE`).
//! PageRank/SSSP rows also carry hybrid-replication fields (replication
//! factor and total bytes at the auto degree threshold, asserted bitwise
//! identical to the full-replication run).

use cyclops_bench::report::{self, JsonReport, Table};
use cyclops_bench::workloads::{self, run_on_cyclops, run_on_hama};
use cyclops_partition::{EdgeCutPartitioner, HashPartitioner};

fn main() {
    let fraction = workloads::scale();
    let full = std::env::var("CYCLOPS_FULL").is_ok();
    report::heading(&format!("Figure 9: overall performance (scale {fraction})"));

    // ---- Panel 1: speedup over Hama at 48 workers. ----
    report::subheading("Fig 9(1): speedup over Hama, 48 workers, hash partition");
    let mut table = Table::new(&[
        "workload",
        "Hama (s)",
        "Cyclops (s)",
        "CyclopsMT (s)",
        "Cyclops speedup",
        "CyclopsMT speedup",
    ]);
    let mut json = JsonReport::new("fig9_speedup_panel1");
    json.meta("scale", fraction).meta("workers", 48usize);
    let mut current: Vec<(String, f64, usize)> = Vec::new();
    for w in workloads::paper_workloads() {
        let g = workloads::gen_graph(w.dataset, fraction);
        let flat = workloads::paper_cluster(48);
        let p48 = HashPartitioner.partition(&g, 48);
        let hama = run_on_hama(&w, &g, &p48, &flat, fraction);
        let cy = run_on_cyclops(&w, &g, &p48, &flat, fraction, 0, workloads::PR_EPSILON);
        let mt_cluster = workloads::paper_cluster_mt(48);
        let p6 = HashPartitioner.partition(&g, mt_cluster.num_workers());
        let mt = run_on_cyclops(&w, &g, &p6, &mt_cluster, fraction, 0, workloads::PR_EPSILON);
        table.row(vec![
            format!("{} {}", w.algo, w.dataset),
            report::secs(hama.elapsed),
            report::secs(cy.elapsed),
            report::secs(mt.elapsed),
            report::speedup(hama.elapsed.as_secs_f64() / cy.elapsed.as_secs_f64()),
            report::speedup(hama.elapsed.as_secs_f64() / mt.elapsed.as_secs_f64()),
        ]);
        let mut row = vec![
            ("workload", format!("{} {}", w.algo, w.dataset).into()),
            ("hama_s", hama.elapsed.as_secs_f64().into()),
            ("cyclops_s", cy.elapsed.as_secs_f64().into()),
            ("cyclops_mt_s", mt.elapsed.as_secs_f64().into()),
            (
                "cyclops_speedup",
                (hama.elapsed.as_secs_f64() / cy.elapsed.as_secs_f64()).into(),
            ),
            (
                "cyclops_mt_speedup",
                (hama.elapsed.as_secs_f64() / mt.elapsed.as_secs_f64()).into(),
            ),
            ("hama_messages", hama.counters.messages.into()),
            ("cyclops_messages", cy.counters.messages.into()),
            ("hama_bytes", hama.counters.bytes.into()),
            ("cyclops_bytes", cy.counters.bytes.into()),
            ("cyclops_replication_factor", cy.replication_factor.into()),
        ];
        // Hybrid replication at the auto threshold, on the PageRank and SSSP
        // rows — the ones the committed `BENCH_fig9.json` carries hybrid
        // columns for. Both sides run at the convergence epsilon
        // (messaging a cold vertex trades standing per-superstep replica
        // costs for a one-shot direct frame, so the byte balance is a
        // steady-state property): `hybrid_bytes` counts replica updates AND
        // direct messages and compares against `hybrid_full_bytes`, the
        // threshold-0 run at identical settings.
        if matches!(w.algo, workloads::Algo::PageRank | workloads::Algo::Sssp) {
            let eps = workloads::PR_CONVERGENCE_EPSILON;
            let auto = p48.auto_replicate_threshold(&g);
            let full = run_on_cyclops(&w, &g, &p48, &flat, fraction, 0, eps);
            let hy = run_on_cyclops(&w, &g, &p48, &flat, fraction, auto, eps);
            if let Some(v) = (full.values_f64.as_ref()).zip(hy.values_f64.as_ref()) {
                assert_eq!(v.0, v.1, "hybrid results must be bitwise identical");
            }
            row.extend([
                ("hybrid_auto_threshold", u64::from(auto).into()),
                ("hybrid_replication_factor", hy.replication_factor.into()),
                ("hybrid_full_bytes", full.counters.bytes.into()),
                ("hybrid_bytes", hy.counters.bytes.into()),
                ("hybrid_direct_messages", hy.direct_messages.into()),
            ]);
        }
        json.row(row);
        current.push((
            format!("{} {}", w.algo, w.dataset),
            cy.elapsed.as_secs_f64(),
            cy.counters.bytes,
        ));
    }
    table.print();
    println!(
        "  paper: Cyclops 1.33x-5.03x, CyclopsMT 2.06x-8.69x; largest on Wiki, smallest on SSSP"
    );
    // Read the committed baseline BEFORE `CYCLOPS_BENCH_JSON` may overwrite
    // it, so the delta panel diffs against what was committed.
    let baseline =
        std::env::var("CYCLOPS_BENCH_BASELINE").unwrap_or_else(|_| "BENCH_fig9.json".into());
    let baseline_text = std::fs::read_to_string(&baseline);
    if let Ok(path) = std::env::var("CYCLOPS_BENCH_JSON") {
        let path = std::path::PathBuf::from(path);
        match json.write(&path) {
            Ok(()) => println!("  wrote JSON baseline to {}", path.display()),
            Err(e) => eprintln!("  failed to write {}: {e}", path.display()),
        }
    }

    // ---- Panel 1b: per-workload delta vs the committed baseline. ----
    match baseline_text {
        Ok(text) => {
            report::subheading(&format!("Fig 9(1b): delta vs committed {baseline}"));
            let base = report::parse_json_rows(&text);
            let mut table = Table::new(&[
                "workload",
                "bytes (base)",
                "bytes (now)",
                "bytes delta",
                "time base (s)",
                "time now (s)",
                "time delta",
            ]);
            let pct = |old: f64, new: f64| {
                if old > 0.0 {
                    format!("{:+.1}%", 100.0 * (new - old) / old)
                } else {
                    "-".into()
                }
            };
            for (name, now_s, now_bytes) in &current {
                let Some(row) = base
                    .iter()
                    .find(|r| r.get("workload").map(String::as_str) == Some(name))
                else {
                    continue;
                };
                let parse = |key: &str| row.get(key).and_then(|v| v.parse::<f64>().ok());
                let (Some(base_bytes), Some(base_s)) = (parse("cyclops_bytes"), parse("cyclops_s"))
                else {
                    continue;
                };
                table.row(vec![
                    name.clone(),
                    report::count(base_bytes as usize),
                    report::count(*now_bytes),
                    pct(base_bytes, *now_bytes as f64),
                    format!("{base_s:.3}"),
                    format!("{now_s:.3}"),
                    pct(base_s, *now_s),
                ]);
            }
            table.print();
            println!(
                "  (byte deltas are deterministic wire-format effects; time deltas\n\
                 \x20 are quick-mode wall clock and correspondingly noisy)"
            );
        }
        Err(_) => println!("  (no committed baseline at {baseline}; skipping delta table)"),
    }

    // ---- Panel 2: scalability. ----
    let worker_counts: Vec<usize> = if full {
        vec![6, 12, 24, 48]
    } else {
        vec![6, 24]
    };
    report::subheading(&format!(
        "Fig 9(2): scalability over {worker_counts:?} workers (normalized to Hama/6)"
    ));
    let mut table = Table::new(&["workload", "workers", "Hama", "Cyclops", "CyclopsMT"]);
    for w in workloads::paper_workloads() {
        let g = workloads::gen_graph(w.dataset, fraction);
        let mut hama6 = None;
        for &workers in &worker_counts {
            let flat = workloads::paper_cluster(workers);
            let p = HashPartitioner.partition(&g, workers);
            let hama = run_on_hama(&w, &g, &p, &flat, fraction);
            let cy = run_on_cyclops(&w, &g, &p, &flat, fraction, 0, workloads::PR_EPSILON);
            let mt_cluster = workloads::paper_cluster_mt(workers);
            let pmt = HashPartitioner.partition(&g, mt_cluster.num_workers());
            let mt = run_on_cyclops(
                &w,
                &g,
                &pmt,
                &mt_cluster,
                fraction,
                0,
                workloads::PR_EPSILON,
            );
            let base = *hama6.get_or_insert(hama.elapsed.as_secs_f64());
            table.row(vec![
                format!("{} {}", w.algo, w.dataset),
                workers.to_string(),
                report::speedup(base / hama.elapsed.as_secs_f64()),
                report::speedup(base / cy.elapsed.as_secs_f64()),
                report::speedup(base / mt.elapsed.as_secs_f64()),
            ]);
        }
    }
    table.print();
    println!(
        "  note: the simulated cluster runs on the host's cores; with one core,\n\
         \x20 wall time measures total work, so adding workers shows overhead,\n\
         \x20 not parallel speedup (see EXPERIMENTS.md)."
    );
}
