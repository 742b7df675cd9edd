//! Every compute thread of a bucketed CyclopsMT run computes. A bucketed
//! round is the per-hop round's PRS, selection, CMP and SND, so its CMP
//! claims the selection's mass chunks on all `T` threads of a worker, and
//! `cyclops_compute_imbalance` samples each thread's CMP time summed over a
//! superstep's rounds. The flight recorder's `Chunk` spans say which thread
//! computed how many masters: on `mt(2, 3, 2)` each of the six threads must
//! have computed some, and together exactly the masters the run computed.
//!
//! One `#[test]` only, in its own binary: the registry and the flight
//! recorder are process-global (see `tests/compute_imbalance.rs`), and a
//! second run would add its samples and spans to this one's.

use cyclops::algos::sssp::{auto_bucket_width, CyclopsSssp};
use cyclops::obs::{install_flight, install_global};
use cyclops::prelude::*;
use cyclops_obs::SpanKind;

#[test]
fn every_compute_thread_of_a_bucketed_run_computes() {
    let registry = install_global();
    let flight = install_flight();
    let g = Dataset::RoadCa.generate_scaled(0.05, 1);
    let cluster = ClusterSpec::mt(2, 3, 2);
    let partition = HashPartitioner.partition(&g, cluster.num_workers());
    let config = CyclopsConfig {
        cluster,
        bucket_width: auto_bucket_width(&g),
        ..Default::default()
    };
    let run = run_cyclops(&CyclopsSssp { source: 0 }, &g, &partition, &config);

    let dump = flight.drain();
    assert_eq!(dump.dropped, 0, "the rings kept every span");
    let threads = cluster.threads_per_worker;
    let mut computed = vec![0u64; cluster.total_threads()];
    for span in dump.spans.iter().filter(|s| s.kind == SpanKind::Chunk) {
        // A chunk span's last argument is the chunk's master count.
        computed[span.worker as usize * threads + span.thread as usize] += span.c;
    }
    let total: usize = run.stats.iter().map(|s| s.active_vertices).sum();
    assert_eq!(computed.iter().sum::<u64>(), total as u64);
    assert!(
        computed.iter().all(|&n| n > 0),
        "masters computed per thread, worker-major: {computed:?}"
    );

    let hist = registry.histogram("cyclops_compute_imbalance", &[("engine", "cyclops")]);
    let s = hist.snapshot();
    assert!(s.count > 0, "no superstep sampled the imbalance");
    assert!(s.count <= run.supersteps as u64);
}
