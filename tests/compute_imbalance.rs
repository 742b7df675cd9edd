//! `cyclops_compute_imbalance` means one thing under every engine: once per
//! superstep, the slowest compute thread's CMP time over the mean of every
//! compute thread of every worker, in permille.
//!
//! One `#[test]` only, in its own binary: the registry is process-global,
//! and a second run under the same engine label would add its samples.

use cyclops::obs::install_global;
use cyclops::partition::EdgeCutPartition;
use cyclops::prelude::*;

#[test]
fn compute_imbalance_is_one_cross_worker_sample_per_superstep() {
    let registry = install_global();
    let g = Dataset::Amazon.generate_scaled(0.05, 1);
    // 90 % of the vertices on worker 0 of a flat 2x1x1 cluster: one compute
    // thread per worker, so the skew is only visible across workers.
    let cut = g.num_vertices() as u32 * 9 / 10;
    let owner = g.vertices().map(|v| u32::from(v >= cut)).collect();
    let partition = EdgeCutPartition::new(2, owner);
    let config = CyclopsConfig {
        cluster: ClusterSpec::flat(2, 1),
        max_supersteps: 12,
        ..Default::default()
    };
    let run = run_cyclops(&CyclopsPageRank { epsilon: 0.0 }, &g, &partition, &config);

    let hist = registry.histogram("cyclops_compute_imbalance", &[("engine", "cyclops")]);
    let s = hist.snapshot();
    assert!(
        s.count <= run.supersteps as u64,
        "{} samples over {} supersteps: at most one per superstep",
        s.count,
        run.supersteps
    );
    assert!(
        s.max > 1000,
        "the loaded worker never outlasted the mean (max {}‰)",
        s.max
    );
}
