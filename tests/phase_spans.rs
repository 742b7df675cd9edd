//! One clock per interval: a BSP or GAS worker times each PRS, CMP and SND
//! interval once, and that interval is both its trace column and its flight
//! span. So every record's `parse_ns`, `compute_ns` and `send_ns` is, to the
//! nanosecond, the sum of that worker's `Parse`, `Compute` and `Send` spans
//! in that superstep: one for each on BSP; on GAS one `Parse`, three
//! `Compute` (gather, apply, scatter) and four `Send` (the gather requests
//! and three flushes).
//!
//! One `#[test]` only, in its own binary: the flight recorder is
//! process-global, and a second test's spans would land in this one's rings.

use cyclops::algos::pagerank::{BspPageRank, GasPageRank};
use cyclops::bsp::{run_bsp_traced, BspConfig};
use cyclops::gas::{run_gas_traced, GasConfig};
use cyclops::net::trace::{TraceRecord, TraceSink};
use cyclops::obs::install_flight;
use cyclops::partition::{RandomVertexCut, VertexCutPartitioner};
use cyclops::prelude::*;
use cyclops_obs::{FlightRecorder, SpanKind};
use std::collections::BTreeMap;

/// `(worker, superstep)` → summed `[Parse, Compute, Send]` span
/// nanoseconds and span counts.
type Sums = BTreeMap<(u64, u64), ([u64; 3], [usize; 3])>;

fn phase_spans(flight: &FlightRecorder) -> Sums {
    let dump = flight.drain();
    assert_eq!(dump.dropped, 0, "the rings kept every span");
    let mut sums = Sums::new();
    for s in &dump.spans {
        let i = match s.kind {
            SpanKind::Parse => 0,
            SpanKind::Compute => 1,
            SpanKind::Send => 2,
            _ => continue,
        };
        assert_eq!(s.thread, 0, "single-threaded workers");
        let (ns, n) = sums.entry((s.worker as u64, s.a)).or_default();
        ns[i] += s.dur_ns;
        n[i] += 1;
    }
    sums
}

/// Holds every record's phase columns to the spans, and each
/// worker-superstep to `spans` spans of each phase.
fn check(name: &str, records: &[TraceRecord], sums: &Sums, spans: [usize; 3]) {
    assert!(!records.is_empty(), "{name}: no records");
    for r in records {
        let (ns, n) = sums[&(r.worker, r.superstep)];
        let columns = [r.parse_ns, r.compute_ns, r.send_ns];
        let at = (r.worker, r.superstep);
        assert_eq!(n, spans, "{name}: spans of worker-superstep {at:?}");
        assert_eq!(columns, ns, "{name}: columns against spans of {at:?}");
    }
}

#[test]
fn every_phase_column_is_the_sum_of_its_spans() {
    let flight = install_flight();
    let amazon = Dataset::Amazon.generate_scaled(0.01, 1);
    let cluster = ClusterSpec::flat(3, 1);

    let partition = HashPartitioner.partition(&amazon, cluster.num_workers());
    let config = BspConfig {
        cluster,
        max_supersteps: 12,
        ..Default::default()
    };
    let mut sink = TraceSink::new("bsp", &cluster);
    run_bsp_traced(
        &BspPageRank { epsilon: 1e-9 },
        &amazon,
        &partition,
        &config,
        Some(&sink),
    );
    check("bsp", &sink.take_records(), &phase_spans(flight), [1, 1, 1]);

    let cut = RandomVertexCut::default().partition(&amazon, cluster.num_workers());
    let config = GasConfig {
        cluster,
        max_supersteps: 8,
    };
    let mut sink = TraceSink::new("gas", &cluster);
    run_gas_traced(
        &GasPageRank { epsilon: 1e-3 },
        &amazon,
        &cut,
        &config,
        Some(&sink),
    );
    // The superstep that stops has a `Parse` span and no record.
    check("gas", &sink.take_records(), &phase_spans(flight), [1, 3, 4]);
}
