//! The zero-allocation send path: compute threads deposit their outboxes,
//! flush threads merge them into one batch per destination, and the encode
//! buffers behind those batches are pooled — so steady-state supersteps
//! allocate nothing, and total send allocation is a warm-up constant in the
//! number of lanes × destinations, not a function of message count (the
//! Table 2 story). Thread-race coverage of the chunk claiming that feeds the
//! deposits is the engine oracle's (`tests/engine_oracle.rs`, its
//! `flat(3,2)` and `mt(2,3,2)` cells).

use cyclops::prelude::*;

/// The Table 2 claim: send buffers are pooled, so allocation is a one-time
/// warm-up cost — doubling the superstep count roughly doubles the wire
/// bytes but adds *zero* new allocation, i.e. per-superstep allocation is
/// O(destination machines), not O(messages).
#[test]
fn pooled_send_path_stops_allocating_after_warmup() {
    let g = Dataset::GWeb.generate_scaled(0.05, 3);
    let cluster = ClusterSpec::flat(3, 2);
    let p = HashPartitioner.partition(&g, cluster.num_workers());

    // epsilon = 0 keeps every vertex active, so every superstep ships the
    // same full frontier and steady-state batch sizes are constant.
    let run = |max_supersteps| {
        let config = CyclopsConfig {
            cluster,
            max_supersteps,
            ..Default::default()
        };
        run_cyclops(&CyclopsPageRank { epsilon: 0.0 }, &g, &p, &config)
    };
    let (short, long) = (run(10), run(20));

    assert!(
        short.counters.message_bytes_allocated > 0,
        "warm-up allocates"
    );
    assert!(
        long.counters.bytes > short.counters.bytes * 18 / 10,
        "doubling supersteps must roughly double wire bytes \
         ({} vs {})",
        long.counters.bytes,
        short.counters.bytes
    );
    assert_eq!(
        long.counters.message_bytes_allocated, short.counters.message_bytes_allocated,
        "steady-state supersteps must allocate nothing: all growth happens \
         in the first supersteps' warm-up"
    );
    // The warm-up itself is bounded by one max-size batch per sender lane —
    // a far cry from one allocation per wire byte.
    assert!(
        long.counters.message_bytes_allocated < long.counters.bytes as u64 / 4,
        "total allocation ({}) must be a small fraction of wire bytes ({})",
        long.counters.message_bytes_allocated,
        long.counters.bytes
    );
}
