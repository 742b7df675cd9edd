//! Every wait an engine thread makes is one flight-recorder `Barrier` span,
//! its `b` the wait's kind (0 superstep, 1 round, 2 local), so `cyclops
//! timeline` shows a run's SYN without gaps. The expected spans are counted
//! from the engines' loops:
//!
//! - Cyclops: every thread of every worker makes two superstep waits per
//!   superstep, around the global leader's close. A per-hop superstep makes
//!   no round wait and four local waits — at its opening, after PRS, after
//!   selection and after CMP — plus one after a checkpoint, one after the
//!   second fill of a superstep whose predecessor pulled, and one after the
//!   first fill of a superstep that pulls. A bucketed superstep makes one
//!   round wait after each round's selection and one after each round's SND
//!   but the last, which finds the bucket drained, and one local wait at its
//!   opening and one after each of those round waits' CMP or PRS: one more
//!   local wait than round waits.
//! - BSP (Hama): each worker waits twice per superstep in `sync`.
//! - GAS (PowerGraph): each worker waits twice to agree on the active set,
//!   once after each of the three phases that send, and twice around the
//!   close — seven per superstep — and the superstep that finds nothing
//!   active makes only the first two before it stops.
//!
//! A span's epoch is its superstep. One `#[test]` only, in its own binary:
//! the flight recorder and the metrics registry are process-global, and a
//! second test's spans would land in this one's rings.

use cyclops::algos::pagerank::{BspPageRank, GasPageRank};
use cyclops::algos::sssp::{auto_bucket_width, CyclopsSssp};
use cyclops::bsp::{run_bsp, BspConfig};
use cyclops::gas::{run_gas, GasConfig};
use cyclops::obs::install_flight;
use cyclops::partition::{RandomVertexCut, VertexCutPartitioner};
use cyclops::prelude::*;
use cyclops_obs::{FlightRecorder, SpanKind};
use std::collections::BTreeMap;

/// `(worker, thread, superstep)` → barrier spans of each wait kind:
/// superstep, round and local waits.
type Spans = BTreeMap<(u32, u32, u64), [usize; 3]>;

/// Drains the recorder and counts its `Barrier` spans by kind, and its
/// `Round` spans per thread.
fn barrier_spans(flight: &FlightRecorder) -> (Spans, BTreeMap<(u32, u32), usize>) {
    let dump = flight.drain();
    assert_eq!(dump.dropped, 0, "the rings kept every span");
    let (mut spans, mut rounds) = (Spans::new(), BTreeMap::new());
    for s in &dump.spans {
        match s.kind {
            SpanKind::Barrier => {
                spans.entry((s.worker, s.thread, s.a)).or_default()[s.b as usize] += 1
            }
            SpanKind::Round => *rounds.entry((s.worker, s.thread)).or_default() += 1,
            _ => {}
        }
    }
    (spans, rounds)
}

/// `waits(superstep)` spans for every thread of `cluster` in each of
/// `supersteps`.
fn expected(
    cluster: ClusterSpec,
    supersteps: std::ops::Range<usize>,
    waits: impl Fn(usize) -> [usize; 3],
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

/// Worker-supersteps whose leader chose to pull so far.
fn pulled() -> u64 {
    let reg = cyclops_obs::install_global();
    let labels = [("engine", "cyclops"), ("mode", "pull")];
    reg.counter("cyclops_activation_supersteps", &labels).get()
}

#[test]
fn every_superstep_wait_is_a_barrier_span() {
    let flight = install_flight();
    let road = Dataset::RoadCa.generate_scaled(0.02, 1);

    // Cyclops per hop, flat and CyclopsMT, pushed: SSSP never pulls. The
    // CyclopsMT run checkpoints every third superstep.
    for cluster in [ClusterSpec::flat(2, 1), ClusterSpec::mt(2, 3, 2)] {
        let partition = HashPartitioner.partition(&road, cluster.num_workers());
        let config = CyclopsConfig {
            cluster,
            checkpoint_every: (cluster.threads_per_worker > 1).then_some(3),
            ..Default::default()
        };
        let before = pulled();
        let run = run_cyclops(&CyclopsSssp { source: 0 }, &road, &partition, &config);
        assert_eq!(pulled(), before, "SSSP pushes");
        let checkpointed = |s| run.checkpoints.iter().any(|c| c.superstep == s);
        assert!(cluster.threads_per_worker == 1 || checkpointed(3));
        let (spans, _) = barrier_spans(flight);
        let waits = |s| [2, 0, 4 + checkpointed(s) as usize];
        assert_eq!(
            spans,
            expected(cluster, 0..run.supersteps, waits),
            "cyclops {cluster:?}"
        );
    }

    // Cyclops per hop on CyclopsMT, pulled in every superstep: PageRank at
    // ε = 0 on a dense graph, checkpointed at superstep 2.
    let wiki = Dataset::Wiki.generate_scaled(0.1, Dataset::Wiki.default_seed());
    let cluster = ClusterSpec::mt(2, 3, 2);
    let partition = HashPartitioner.partition(&wiki, cluster.num_workers());
    let config = CyclopsConfig {
        cluster,
        max_supersteps: 5,
        checkpoint_every: Some(2),
        ..Default::default()
    };
    let before = pulled();
    let run = run_cyclops(
        &CyclopsPageRank { epsilon: 0.0 },
        &wiki,
        &partition,
        &config,
    );
    assert_eq!(
        pulled() - before,
        2 * run.supersteps as u64,
        "every worker-superstep pulls"
    );
    let checkpointed = |s| run.checkpoints.iter().any(|c| c.superstep == s);
    assert!(checkpointed(2) && run.supersteps == 5);
    let waits = |s| [2, 0, 5 + (s > 0) as usize + checkpointed(s) as usize];
    assert_eq!(
        barrier_spans(flight).0,
        expected(cluster, 0..5, waits),
        "cyclops pulled"
    );

    // Cyclops bucketed, flat and CyclopsMT: every thread waits alike, and
    // the round waits are the rounds the barrier counted beyond the
    // superstep waits.
    for cluster in [ClusterSpec::flat(2, 1), ClusterSpec::mt(2, 3, 2)] {
        let partition = HashPartitioner.partition(&road, cluster.num_workers());
        let config = CyclopsConfig {
            cluster,
            bucket_width: auto_bucket_width(&road),
            ..Default::default()
        };
        let run = run_cyclops(&CyclopsSssp { source: 0 }, &road, &partition, &config);
        let (spans, rounds) = barrier_spans(flight);
        let label = format!("cyclops bucketed {cluster:?}");
        let per_wait = cluster.num_workers() * cluster.threads_per_worker - 1;
        let round_waits = run.barrier_protocol_messages / per_wait - 2 * run.supersteps;
        let per_superstep: Vec<[usize; 3]> = (0..run.supersteps as u64)
            .map(|s| spans[&(0, 0, s)])
            .collect();
        for [sw, rw, lw] in &per_superstep {
            assert_eq!((*sw, *lw), (2, rw + 1), "{label}");
            assert_eq!(rw % 2, 1, "{label}: a drained round ends every superstep");
        }
        let waits = |s: usize| per_superstep[s];
        assert_eq!(
            spans,
            expected(cluster, 0..run.supersteps, waits),
            "{label}"
        );
        assert_eq!(
            per_superstep.iter().map(|w| w[1]).sum::<usize>(),
            round_waits,
            "{label}"
        );
        let fused = (round_waits - run.supersteps) / 2;
        let threads = cluster.num_workers() * cluster.threads_per_worker;
        assert_eq!(
            rounds.values().sum::<usize>(),
            threads * fused,
            "{label}: a round span per round"
        );
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
        barrier_spans(flight).0,
        expected(cluster, 0..run.supersteps, |_| [2, 0, 0]),
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
        let waits = |s| [if s < last { 7 } else { 2 }, 0, 0];
        assert_eq!(
            barrier_spans(flight).0,
            expected(cluster, 0..last + 1, waits),
            "gas, {last} supersteps, cap {max_supersteps}"
        );
    }
}
