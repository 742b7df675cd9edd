//! A bucketed CyclopsMT run samples `cyclops_compute_imbalance` over the
//! threads that compute: one per worker, since a settle runs each worker's
//! share on one thread. Max over mean of two computing threads is at most
//! 2 000‰; a thread that only waits would add a zero to the mean and push
//! every sample to 3 000‰ and beyond on `mt(2, 3, 2)`.
//!
//! One `#[test]` only, in its own binary: the registry is process-global
//! (see `tests/compute_imbalance.rs`), and the flat run there would add
//! its samples to this one's under the same engine label.

use cyclops::algos::sssp::{auto_bucket_width, CyclopsSssp};
use cyclops::obs::install_global;
use cyclops::prelude::*;

#[test]
fn bucketed_compute_imbalance_counts_only_computing_threads() {
    let registry = install_global();
    let g = Dataset::RoadCa.generate_scaled(0.05, 1);
    let cluster = ClusterSpec::mt(2, 3, 2);
    let partition = HashPartitioner.partition(&g, cluster.num_workers());
    let config = CyclopsConfig {
        cluster,
        bucket_width: auto_bucket_width(&g),
        ..Default::default()
    };
    let run = run_cyclops(&CyclopsSssp { source: 0 }, &g, &partition, &config);

    let hist = registry.histogram("cyclops_compute_imbalance", &[("engine", "cyclops")]);
    let s = hist.snapshot();
    assert!(s.count > 0, "no superstep sampled the imbalance");
    assert!(s.count <= run.supersteps as u64);
    assert!(
        s.max <= 2000,
        "max {}‰ over {} samples: more than two threads entered the mean",
        s.max,
        s.count
    );
}
