//! Figure 12 (§6.5): CyclopsMT configuration sweep.
//!
//! PageRank on GWeb under `MxWxT/R` configurations: scaling workers
//! (6xWx1), scaling threads (6x1xT), and scaling receiver threads
//! (6x1x8/R), with the SYN / CMP / SND breakdown per configuration.

use cyclops_bench::report::{self, Table};
use cyclops_bench::workloads::{self, run_on_cyclops};
use cyclops_graph::Dataset;
use cyclops_net::ClusterSpec;
use cyclops_partition::{EdgeCutPartitioner, HashPartitioner};

fn main() {
    let fraction = workloads::scale();
    report::heading(&format!(
        "Figure 12: CyclopsMT configurations, PageRank on GWeb (scale {fraction})"
    ));
    let g = workloads::gen_graph(Dataset::GWeb, fraction);
    let w = workloads::paper_workloads()[1];

    let configs: Vec<ClusterSpec> = vec![
        // 6xWx1: flat Cyclops, more single-threaded workers per machine.
        ClusterSpec::flat(6, 1),
        ClusterSpec::flat(6, 2),
        ClusterSpec::flat(6, 4),
        ClusterSpec::flat(6, 8),
        // 6x1xT: one worker per machine, more compute threads.
        ClusterSpec::mt(6, 1, 1),
        ClusterSpec::mt(6, 2, 1),
        ClusterSpec::mt(6, 4, 1),
        ClusterSpec::mt(6, 8, 1),
        // 6x1x8/R: receiver-thread sweep.
        ClusterSpec::mt(6, 8, 1),
        ClusterSpec::mt(6, 8, 2),
        ClusterSpec::mt(6, 8, 4),
        ClusterSpec::mt(6, 8, 8),
    ];

    let mut table = Table::new(&[
        "config",
        "total (s)",
        "SYN (s)",
        "CMP (s)",
        "SND (s)",
        "replicas/vertex",
        "messages",
    ]);
    for spec in configs {
        let p = HashPartitioner.partition(&g, spec.num_workers());
        let out = run_on_cyclops(&w, &g, &p, &spec, fraction, 0, workloads::PR_EPSILON);
        let phases = out
            .stats
            .iter()
            .fold(cyclops_net::PhaseTimes::default(), |acc, s| {
                acc.merge(&s.phase_times)
            });
        table.row(vec![
            spec.label(),
            report::secs(out.elapsed),
            report::secs(phases.sync),
            report::secs(phases.compute),
            report::secs(phases.send + phases.parse),
            format!("{:.2}", out.replication_factor),
            report::count(out.counters.messages),
        ]);
    }
    table.print();
    println!(
        "  paper: more workers raise replicas+messages; threads keep them constant;\n\
         \x20 the best configuration is 6x1x8/2 (too many receivers contend on the NIC)"
    );
}
