#![warn(missing_docs)]

//! Simulated multicore-cluster substrate.
//!
//! The paper evaluates on a 6-machine cluster (12 cores and 64 GB each,
//! 1 GigE). This crate replaces that testbed with an **in-process simulated
//! cluster** (see DESIGN.md): machines are groups of OS threads, and messages
//! that cross a simulated machine boundary round-trip through a real binary
//! codec into byte buffers, so serialization cost, message counts, byte
//! volumes, queue contention, and barrier structure are all real — only the
//! wire is missing.
//!
//! Building blocks:
//!
//! * [`cluster::ClusterSpec`] — the `M x W x T / R` topology of the paper's
//!   Figure 12 (machines × workers × compute threads / receiver threads),
//! * [`codec::Codec`] — the hand-written binary encoding used for
//!   cross-machine messages,
//! * [`transport::Transport`] — worker-to-worker message delivery with two
//!   inbox disciplines: [`transport::InboxMode::GlobalQueue`] (one locked
//!   queue per worker — Hama's design, §4.1) and
//!   [`transport::InboxMode::Sharded`] (per-sender lanes, contention-free —
//!   Cyclops' design),
//! * [`barrier::HierarchicalBarrier`] — the superstep barrier of every
//!   engine, hierarchical on CyclopsMT (§5) and flat as `(workers, 1)`,
//! * [`metrics`] — per-superstep phase timing (SYN/PRS/CMP/SND), message and
//!   byte counters, contention counters, and allocation accounting for the
//!   Table 2 memory experiment,
//! * [`slots::DisjointSlots`] — the lock-free "update replicas without
//!   protection" write path that Cyclops' at-most-one-message-per-replica
//!   guarantee makes safe (§3.4, Table 3),
//! * [`trace`] — structured superstep-trace observability shared by every
//!   engine (per-superstep × worker counter records kept in memory or
//!   streamed to a JSONL file, and [`trace::diff`] for root-causing run
//!   divergence).
//!
//! The transport and the barrier are additionally instrumented against
//! the `cyclops-obs` metrics registry (message-size, lane-depth, and
//! barrier-wait histograms; [`metrics::EngineObs`] for the engines' phase
//! latencies and schedule). Instrumentation resolves its handles once at construction
//! from [`cyclops_obs::global`]; with no registry installed the hot paths
//! pay a single `Option` check.

pub mod barrier;
pub mod cluster;
pub mod codec;
pub mod metrics;
pub mod slots;
pub mod trace;
pub mod transport;

pub use barrier::HierarchicalBarrier;
pub use cluster::{BucketMode, ClusterSpec};
pub use codec::{
    encode_migration_batch, try_decode_migration_batch, Codec, MigrationRecord, ReplicaUpdate,
    WireFormat, WireMode, WireStats,
};
pub use metrics::{AggregateStats, EngineObs, Phase, PhaseTimes, SuperstepStats};
pub use slots::DisjointSlots;
pub use trace::{RunTrace, StreamSummary, TraceLine, TraceRecord, TraceSink, WorkerTracer};
pub use transport::{InboxMode, NetworkModel, SendReceipt, Transport};
