//! Table 2 (§6.10): memory behaviour of PageRank on Wiki.
//!
//! The paper reports JVM heap caps and GC counts; our substitution (see
//! DESIGN.md) reports the byte-level quantities that drive them: message
//! churn over the run (wire bytes — what an allocate-per-batch sender, and
//! hence GC, churns through), the bytes the pooled send path *actually*
//! allocates (buffer capacity growth only; the PR 3 zero-allocation story),
//! peak bytes in in-flight message queues, replica-publication storage, and
//! the resident graph state per worker. Two orderings must reproduce: the
//! paper's — Cyclops trades replica memory for far less message churn, and
//! CyclopsMT replaces internal messages with references — and the pool's —
//! allocation is a warm-up constant, a small fraction of churn.

use cyclops_bench::report::{self, Table};
use cyclops_bench::workloads::{self, run_on_cyclops, run_on_hama};
use cyclops_graph::Dataset;
use cyclops_partition::{EdgeCutPartitioner, HashPartitioner};

fn main() {
    let fraction = workloads::scale();
    report::heading(&format!(
        "Table 2: memory behaviour, PageRank on Wiki (scale {fraction})"
    ));
    let g = workloads::gen_graph(Dataset::Wiki, fraction);
    let w = workloads::paper_workloads()[3];
    let msg_size = std::mem::size_of::<f64>();

    let mut table = Table::new(&[
        "config",
        "msg churn bytes",
        "pool alloc bytes",
        "peak queued msgs",
        "replica bytes",
        "graph bytes/worker",
        "messages",
    ]);

    // Hama with 48 workers.
    let flat = workloads::paper_cluster(48);
    let p48 = HashPartitioner.partition(&g, 48);
    let hama = run_on_hama(&w, &g, &p48, &flat, fraction);
    table.row(vec![
        "Hama/48".into(),
        report::count(hama.counters.bytes),
        report::count(hama.counters.message_bytes_allocated as usize),
        report::count(hama.counters.peak_queue_messages as usize),
        "0".into(),
        report::count(g.resident_bytes() / 48),
        report::count(hama.counters.messages),
    ]);

    // Cyclops with 48 workers.
    let cy = run_on_cyclops(&w, &g, &p48, &flat, fraction, 0, workloads::PR_EPSILON);
    let cy_replicas = cy.ingress.map(|i| i.total_replicas).unwrap_or(0);
    table.row(vec![
        "Cyclops/48".into(),
        report::count(cy.counters.bytes),
        report::count(cy.counters.message_bytes_allocated as usize),
        report::count(cy.counters.peak_queue_messages as usize),
        report::count(cy_replicas * msg_size),
        report::count(g.resident_bytes() / 48),
        report::count(cy.counters.messages),
    ]);

    // CyclopsMT 6x8.
    let mt_cluster = workloads::paper_cluster_mt(48);
    let p6 = HashPartitioner.partition(&g, mt_cluster.num_workers());
    let mt = run_on_cyclops(&w, &g, &p6, &mt_cluster, fraction, 0, workloads::PR_EPSILON);
    let mt_replicas = mt.ingress.map(|i| i.total_replicas).unwrap_or(0);
    table.row(vec![
        "CyclopsMT/6x8".into(),
        report::count(mt.counters.bytes),
        report::count(mt.counters.message_bytes_allocated as usize),
        report::count(mt.counters.peak_queue_messages as usize),
        report::count(mt_replicas * msg_size),
        report::count(g.resident_bytes() / 6),
        report::count(mt.counters.messages),
    ]);

    table.print();
    println!(
        "  paper analogue: Cyclops allocates more for replicas but churns far fewer\n\
         \x20 message bytes (fewer GCs); CyclopsMT shares replicas across threads\n\
         \x20 and uses the least message memory per worker. The pooled send path\n\
         \x20 reduces actual allocation to the per-lane warm-up (churn bytes are\n\
         \x20 what an allocate-per-batch sender, i.e. a GC'd runtime, would churn)."
    );
    assert!(
        cy.counters.bytes < hama.counters.bytes,
        "Cyclops must churn fewer message bytes than Hama"
    );
    assert!(
        mt.counters.bytes <= cy.counters.bytes,
        "CyclopsMT must churn no more message bytes than Cyclops"
    );
    // The PR 3 allocation drop: pooled send buffers allocate a warm-up
    // fraction of the churn, not the churn itself.
    for (name, o) in [("Hama", &hama), ("Cyclops", &cy), ("CyclopsMT", &mt)] {
        assert!(
            o.counters.message_bytes_allocated <= o.counters.bytes as u64,
            "{name}: pooled allocation must not exceed wire churn"
        );
    }
    assert!(
        cy.counters.message_bytes_allocated * 4 <= cy.counters.bytes as u64,
        "Cyclops/48: pool must cut steady-state allocation well below churn"
    );
}
