//! Every superstep wait an engine makes is a flight-recorder `Barrier` span,
//! so `cyclops timeline` shows a run's SYN without gaps. The expected spans
//! are counted from the engines' loops:
//!
//! - Cyclops: every thread of every worker waits twice per superstep, around
//!   the global leader's close. Round and local waits are not superstep
//!   waits and record no `Barrier` span.
//! - BSP (Hama): each worker waits twice per superstep in `sync`.
//! - GAS (PowerGraph): each worker waits twice to agree on the active set,
//!   once after each of the three phases that send, and twice around the
//!   close — seven per superstep — and the superstep that finds nothing
//!   active makes only the first two before it stops.
//!
//! A span's epoch is its superstep. One `#[test]` only, in its own binary:
//! the flight recorder is process-global, and a second test's spans would
//! land in this one's rings.

use cyclops::algos::pagerank::{BspPageRank, GasPageRank};
use cyclops::algos::sssp::{auto_bucket_width, CyclopsSssp};
use cyclops::bsp::{run_bsp, BspConfig};
use cyclops::gas::{run_gas, GasConfig};
use cyclops::obs::install_flight;
use cyclops::partition::{RandomVertexCut, VertexCutPartitioner};
use cyclops::prelude::*;
use cyclops_obs::{FlightRecorder, SpanKind};
use std::collections::BTreeMap;

/// `(worker, thread, superstep)` → barrier spans.
type Spans = BTreeMap<(u32, u32, u64), usize>;

/// Drains the recorder and counts its `Barrier` spans.
fn barrier_spans(flight: &FlightRecorder) -> Spans {
    let dump = flight.drain();
    assert_eq!(dump.dropped, 0, "the rings kept every span");
    let mut spans = Spans::new();
    for s in dump.spans.iter().filter(|s| s.kind == SpanKind::Barrier) {
        *spans.entry((s.worker, s.thread, s.a)).or_default() += 1;
    }
    spans
}

/// `waits(superstep)` spans for every thread of `cluster` in each of
/// `supersteps`.
fn expected(
    cluster: ClusterSpec,
    supersteps: std::ops::Range<usize>,
    waits: impl Fn(usize) -> usize,
) -> Spans {
    let mut spans = Spans::new();
    for s in supersteps {
        for w in 0..cluster.num_workers() {
            for t in 0..cluster.threads_per_worker {
                spans.insert((w as u32, t as u32, s as u64), waits(s));
            }
        }
    }
    spans
}

#[test]
fn every_superstep_wait_is_a_barrier_span() {
    let flight = install_flight();
    let road = Dataset::RoadCa.generate_scaled(0.02, 1);

    // Cyclops, per hop and bucketed, flat and CyclopsMT.
    for cluster in [ClusterSpec::flat(2, 1), ClusterSpec::mt(2, 3, 2)] {
        let partition = HashPartitioner.partition(&road, cluster.num_workers());
        for bucket_width in [0.0, auto_bucket_width(&road)] {
            let config = CyclopsConfig {
                cluster,
                bucket_width,
                ..Default::default()
            };
            let run = run_cyclops(&CyclopsSssp { source: 0 }, &road, &partition, &config);
            assert_eq!(
                barrier_spans(flight),
                expected(cluster, 0..run.supersteps, |_| 2),
                "cyclops {cluster:?}, bucket width {bucket_width}"
            );
        }
    }

    // BSP.
    let amazon = Dataset::Amazon.generate_scaled(0.01, 1);
    let cluster = ClusterSpec::flat(3, 1);
    let partition = HashPartitioner.partition(&amazon, cluster.num_workers());
    let config = BspConfig {
        cluster,
        max_supersteps: 12,
        ..Default::default()
    };
    let run = run_bsp(&BspPageRank { epsilon: 1e-9 }, &amazon, &partition, &config);
    assert_eq!(
        barrier_spans(flight),
        expected(cluster, 0..run.supersteps, |_| 2),
        "bsp"
    );

    // GAS: one run that converges and one the cap stops.
    let cut = RandomVertexCut::default().partition(&amazon, cluster.num_workers());
    for max_supersteps in [10_000, 5] {
        let config = GasConfig {
            cluster,
            max_supersteps,
        };
        let run = run_gas(&GasPageRank { epsilon: 1e-3 }, &amazon, &cut, &config);
        let last = run.supersteps;
        let waits = |s| if s < last { 7 } else { 2 };
        assert_eq!(
            barrier_spans(flight),
            expected(cluster, 0..last + 1, waits),
            "gas, {last} supersteps, cap {max_supersteps}"
        );
    }
}
