//! Exactness tests for the tagged tracking allocator: the static audit
//! (`CyclopsPlan::memory_breakdown`) must equal the live bytes the armed
//! allocator tracked for the `Plan`/`Replicas`/`DirectSlots` components,
//! and memory samples must round-trip through the trace file format.
//!
//! This lives in its own test binary because arming is process-global and
//! one-way; the `#[global_allocator]` below makes every allocation in this
//! process flow through the tracker.

use cyclops::engine::CyclopsPlan;
use cyclops::net::metrics::PhaseTimes;
use cyclops::net::trace::{read_jsonl, TraceRecord, TraceSink};
use cyclops::obs::mem::{self, Component};
use cyclops::prelude::*;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: cyclops::obs::MemAlloc = cyclops::obs::MemAlloc;

/// Live-byte assertions read process-global counters, so the tests that
/// make them serialize on this lock (the harness runs tests in threads).
static LOCK: Mutex<()> = Mutex::new(());

fn plan_components_live() -> [i64; 3] {
    [
        mem::live_bytes(Component::Plan),
        mem::live_bytes(Component::Replicas),
        mem::live_bytes(Component::DirectSlots),
    ]
}

/// The audit contract: construction allocates every vector once, at its
/// final length, under its component scope, so the tracked live deltas
/// equal the capacity-computed breakdown byte for byte — and dropping the
/// plan returns every component to its baseline.
#[test]
fn plan_breakdown_matches_tracked_bytes_exactly() {
    let _guard = LOCK.lock().unwrap();
    mem::arm();
    let g = Dataset::Amazon.generate_scaled(0.05, Dataset::Amazon.default_seed());
    let partition = HashPartitioner.partition(&g, 4);
    for threshold in [0u32, 4, u32::MAX] {
        let before = plan_components_live();
        let plan = CyclopsPlan::build_parallel_with_threshold(&g, &partition, threshold);
        let after = plan_components_live();
        let b = plan.memory_breakdown();
        assert_eq!(
            (after[0] - before[0]) as usize,
            b.plan,
            "Plan bytes diverge from the audit at threshold {threshold}"
        );
        assert_eq!(
            (after[1] - before[1]) as usize,
            b.replicas,
            "Replicas bytes diverge from the audit at threshold {threshold}"
        );
        assert_eq!(
            (after[2] - before[2]) as usize,
            b.direct_slots,
            "DirectSlots bytes diverge from the audit at threshold {threshold}"
        );
        drop(plan);
        assert_eq!(
            plan_components_live(),
            before,
            "drop did not return components to baseline at threshold {threshold}"
        );
    }
}

/// The serial reference builder attributes identically (it shrinks each
/// vector to fit under its scope), and the replica ledger shrinks as the
/// threshold trades replicas for direct slots — the bench panel's claim
/// in miniature.
#[test]
fn serial_build_attributes_and_threshold_shrinks_replicas() {
    let _guard = LOCK.lock().unwrap();
    mem::arm();
    let g = Dataset::Amazon.generate_scaled(0.05, Dataset::Amazon.default_seed());
    let partition = HashPartitioner.partition(&g, 4);

    let before = plan_components_live();
    let full = CyclopsPlan::build_with_threshold(&g, &partition, 0);
    let after = plan_components_live();
    let bf = full.memory_breakdown();
    assert_eq!((after[1] - before[1]) as usize, bf.replicas);

    let hybrid = CyclopsPlan::build_with_threshold(&g, &partition, 8);
    let bh = hybrid.memory_breakdown();
    assert!(
        bh.replicas < bf.replicas,
        "threshold 8 must spend fewer replica bytes than full replication \
         ({} vs {})",
        bh.replicas,
        bf.replicas
    );
    assert!(
        bh.direct_slots > bf.direct_slots,
        "threshold 8 must spend more direct-slot bytes than full replication"
    );
}

fn temp_trace(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("cyclops-memobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

/// Memory samples survive the JSONL round trip: `sample` → a file sink's
/// `finish` → `read_jsonl` yields the bytes the tracker held, parked in
/// `RunTrace::mem` away from the record stream (the trace-diff contract).
#[test]
fn samples_round_trip_through_the_trace_file() {
    let _guard = LOCK.lock().unwrap();
    mem::arm();
    let path = temp_trace("roundtrip.jsonl");
    let sink = TraceSink::create("cyclops", &ClusterSpec::flat(1, 1), &path, false).unwrap();
    let record = TraceRecord {
        frontier: 1,
        ..TraceRecord::default()
    };
    sink.worker(0).commit(&PhaseTimes::default(), record);

    // Something live on worker 0's slot, so the sample is not all zeros.
    let held = {
        let _worker = mem::MemScope::worker(0);
        vec![1u8; 4096]
    };
    mem::take_samples(); // discard anything a previous test parked
    mem::sample(7, 0);
    let live: Vec<i64> = Component::ALL
        .iter()
        .map(|&c| mem::worker_live_bytes(Some(0), c))
        .collect();
    let peak: Vec<u64> = Component::ALL
        .iter()
        .map(|&c| mem::worker_peak_bytes(Some(0), c))
        .collect();
    let summary = sink.finish().unwrap();
    assert_eq!(summary.mem_samples, 2, "worker 0 adds the untagged slot");

    let trace = read_jsonl(&path).unwrap();
    assert_eq!(trace.mem.len(), 2);
    assert_eq!(trace.records.len(), 1, "mem lines must not enter records");
    let rec = trace.mem.iter().find(|m| m.worker == 0).unwrap();
    assert_eq!(rec.superstep, 7);
    assert_eq!(rec.live.to_vec(), live);
    assert_eq!(rec.peak.to_vec(), peak);
    drop(held);
}

/// A run that panics drops its file sink unfinished; the drop runs the same
/// close, so every committed record and every sample still reaches the
/// file.
#[test]
fn a_panicking_run_still_writes_every_record_and_sample() {
    let _guard = LOCK.lock().unwrap();
    mem::arm();
    let path = temp_trace("panicked.jsonl");
    mem::take_samples();
    let died = std::panic::catch_unwind(|| {
        let sink = TraceSink::create("cyclops", &ClusterSpec::flat(1, 2), &path, false).unwrap();
        for s in 0..50 {
            for w in 0..2 {
                let record = TraceRecord {
                    superstep: s as u64,
                    worker: w as u64,
                    frontier: 1,
                    ..TraceRecord::default()
                };
                sink.worker(w).commit(&PhaseTimes::default(), record);
                mem::sample(s as u64, w as u32);
            }
        }
        panic!("the run dies after superstep 49");
    });
    assert!(died.is_err());
    let trace = read_jsonl(&path).unwrap();
    assert_eq!(trace.records.len(), 100);
    assert_eq!(trace.supersteps(), 50);
    assert_eq!(trace.mem.len(), 150, "worker 0 adds the untagged slot");
}

/// The zero-allocation send contract, held by the allocator and not by the
/// pooled buffer's own growth counter: a one-thread worker's outbox is
/// already in id order, and encoding it into a warm buffer allocates nothing
/// — std's stable sort would take a scratch the size of the batch (4 096 ×
/// 16 B) before looking at the data. A batch that does need the sort still
/// encodes to the bytes of its sorted copy.
#[test]
fn presorted_batch_encodes_into_a_warm_buffer_without_allocating() {
    use cyclops::net::codec::{encode_batch, ReplicaUpdate, WireFormat};
    let _guard = LOCK.lock().unwrap();
    mem::arm();
    let sorted: Vec<ReplicaUpdate<f64>> = (0..4096u32)
        .map(|i| ReplicaUpdate::new(i * 3, i as f64, true))
        .collect();
    // An empty legacy batch is the facade's way to a pooled buffer.
    let mut buf = encode_batch::<f64>(&[]);
    let mut batch = sorted.clone();
    ReplicaUpdate::wire_encode_batch_into(&mut buf, &mut batch); // warm-up
    let want = buf.to_vec();
    {
        let _scope = mem::MemScope::enter(Component::SendPool);
        mem::reset_peaks();
        let before = mem::peak_bytes(Component::SendPool);
        let stats = ReplicaUpdate::wire_encode_batch_into(&mut buf, &mut batch);
        assert_eq!(stats.grown, 0, "warm buffer grew");
        assert_eq!(
            mem::peak_bytes(Component::SendPool),
            before,
            "encoding a presorted batch allocated"
        );
    }
    assert_eq!(&buf[..], &want[..]);

    let mut unsorted = sorted;
    unsorted.reverse();
    unsorted.swap(7, 2000);
    ReplicaUpdate::wire_encode_batch_into(&mut buf, &mut unsorted);
    assert_eq!(&buf[..], &want[..], "bytes depend on batch order");
}
