//! Superstep-trace observability shared by all three engines.
//!
//! A [`TraceSink`] collects one [`TraceRecord`] per superstep × worker:
//! phase durations, frontier size, computed / activated / converged counts,
//! messages and bytes sent and drained, the worker's aggregate contribution,
//! and checkpoint captures. Records land in preallocated per-worker ring
//! buffers with no locks on the hot path: worker threads accumulate into
//! relaxed per-worker atomics, and only the worker leader commits a record
//! (one writer per ring). When no sink is installed, engines skip every
//! trace call — the observability layer costs nothing unless asked for.
//!
//! Traces serialize to JSON lines (hand-written; no external dependencies)
//! via [`TraceSink::write_jsonl`] and load back with [`read_jsonl`]. The
//! [`diff`] module compares two runs and reports the first divergent
//! superstep, worker, and counter — and, when publication digests were
//! captured ([`TraceSink::with_values`]), the first divergent vertex —
//! which is how a nondeterministic run is root-caused to the superstep
//! where it forked.
//!
//! Two sink flavours exist. The **buffered** sink ([`TraceSink::new`])
//! keeps records in the rings and serializes after the run; rings overwrite
//! their oldest entries past [`DEFAULT_RING_CAPACITY`] supersteps, so very
//! long runs lose their head (reported via
//! [`TraceSink::dropped_records`]). The **streaming** sink
//! ([`TraceSink::streaming`]) instead hands each committed record to a
//! dedicated writer thread over a bounded channel and appends JSONL
//! incrementally, covering runs of any length with bounded memory. The hot
//! path stays lock-free: a worker leader never blocks on I/O — when the
//! channel is momentarily full the record parks in a leader-owned backlog
//! (retried at the next commit, counted by
//! [`TraceSink::records_deferred`]), and [`TraceSink::finish`] flushes
//! everything, so no record is ever dropped. A live streaming file can be
//! tailed mid-run (`cyclops top`); the writer flushes whenever it catches
//! up with the channel.

use crate::cluster::ClusterSpec;
use crate::metrics::{AggregateStats, HotObs, PhaseTimes};
pub use cyclops_obs::SpaceSaving;
pub use cyclops_obs::{FlightSpan, SpanKind};
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::io::{BufRead, BufWriter, Write};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};

/// Default per-worker ring capacity (records). A record is ~150 bytes
/// without digests, so the default bounds a worker's trace memory at a few
/// hundred KiB while holding far more supersteps than any workload here
/// runs.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Default bound of the streaming sink's record channel. Deep enough that
/// the writer thread absorbs bursts from every worker committing at one
/// barrier; when it still fills, records defer to the committing leader's
/// backlog rather than blocking the barrier.
pub const STREAM_CHANNEL_CAPACITY: usize = 1024;

/// One superstep on one worker.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceRecord {
    /// Superstep index.
    pub superstep: u64,
    /// Worker id.
    pub worker: u64,
    /// PRS (drain + replica apply) nanoseconds, worker-leader thread.
    pub parse_ns: u64,
    /// CMP nanoseconds, worker-leader thread.
    pub compute_ns: u64,
    /// SND nanoseconds, worker-leader thread.
    pub send_ns: u64,
    /// SYN (barrier wait) nanoseconds, worker-leader thread.
    pub sync_ns: u64,
    /// Frontier size entering the compute phase.
    pub frontier: u64,
    /// Vertices that ran the compute function on this worker.
    pub computed: u64,
    /// Local activations produced for the next superstep.
    pub activated: u64,
    /// Net change in this worker's converged-vertex count (Proportion
    /// convergence); 0 for engines/modes that don't track it.
    pub converged_delta: i64,
    /// Messages drained by this worker's receivers during PRS.
    pub drained: u64,
    /// Messages this worker sent during SND.
    pub messages: u64,
    /// Cross-machine wire bytes this worker sent during SND.
    pub bytes: u64,
    /// Whether a checkpoint was captured this superstep.
    pub checkpoint: bool,
    /// Whether this worker ran the superstep on the sparse fast path
    /// (single compute thread, direct lane sends). Diagnostic: deliberately
    /// excluded from [`diff`]'s counter comparison, because the fast path
    /// changes the schedule, never the results.
    pub sparse_fast_path: bool,
    /// Cross-machine batches this worker sent in the dense wire mode.
    /// Deterministic for a deterministic schedule, but excluded from
    /// [`diff`] so adaptive-encoding runs stay comparable with legacy runs.
    pub wire_dense: u64,
    /// Cross-machine batches this worker sent in the sparse wire mode.
    pub wire_sparse: u64,
    /// Direct messages this worker sent during SND under hybrid
    /// replication (cold boundary masters messaging instead of syncing a
    /// replica). A subset of `messages`; 0 on full-replication runs — the
    /// fields are then omitted from JSONL, keeping threshold-0 traces
    /// byte-identical to pre-hybrid ones. Deterministic for a given
    /// threshold and compared by [`diff`]; runs at *different* thresholds
    /// compare with [`diff::first_value_divergence`], which skips every
    /// traffic counter.
    pub direct_messages: u64,
    /// Wire bytes of those messages, in traces written when they travelled
    /// in batches of their own. No run records it any more (one batch per
    /// destination carries both kinds); the column is read, compared and
    /// re-serialized so older trace files keep loading.
    pub direct_bytes: u64,
    /// Masters migrated *onto* this worker at the epoch boundary preceding
    /// this superstep (dynamic load balancing). 0 on migration-off runs —
    /// the field is then omitted from JSONL, keeping migration-off traces
    /// byte-identical to pre-migration ones. Excluded from [`diff`]'s
    /// values-only comparison like the other schedule-shaped counters.
    pub migrated: u64,
    /// Relaxation rounds fused into this superstep by the bucketed
    /// scheduler (0 on non-bucketed runs — the field is then omitted from
    /// JSONL, keeping bucket-off traces byte-identical to pre-bucketing
    /// ones). Each fused round is one logical superstep of light-edge
    /// relaxation that did *not* pay a global barrier.
    pub fused: u64,
    /// Priority-bucket index this superstep drained (bucketed runs only).
    pub bucket: u64,
    /// Distinct vertices this worker selected into the bucket across all
    /// fused rounds (bucketed runs only).
    pub bucket_occupancy: u64,
    /// This worker's aggregate contribution, reduced over its threads in
    /// thread order (deterministic, unlike the engines' global merge).
    pub agg: Option<AggregateStats>,
    /// `(vertex, digest)` publication digests, present only when the sink
    /// was created with [`TraceSink::with_values`]. Sorted by vertex.
    pub pubs: Vec<(u32, u64)>,
    /// `(vertex, cost)` hot-vertex top-K from the merged per-thread
    /// Space-Saving sketches, weight-descending; present only when the sink
    /// was created with [`TraceSink::with_hot_k`]. Diagnostic, not part of
    /// the determinism contract: under dynamic scheduling the sketch
    /// contents can depend on thread timing.
    pub hot: Vec<(u32, u64)>,
    /// Worker-pair communication matrix row: this worker's per-destination
    /// traffic for the superstep, ascending by destination, all-zero rows
    /// omitted (so matrix-off records serialize byte-identically to older
    /// traces). Row sums equal the `messages` / `bytes` counters exactly —
    /// [`TraceRecord::comm_consistent`] checks it. The `(dst, messages,
    /// bytes)` portion is deterministic across thread counts and compared
    /// by [`diff`]; the per-pair wire-mode counts are diagnostic, excluded
    /// like `wire_dense` / `wire_sparse`.
    pub comm: Vec<CommEntry>,
}

/// One row of the worker-pair communication matrix: what the record's
/// worker sent to `dst` during one superstep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommEntry {
    /// Destination worker.
    pub dst: u32,
    /// Messages sent to `dst` (intra- and cross-machine alike).
    pub messages: u64,
    /// Cross-machine wire bytes sent to `dst` (0 for intra-machine pairs).
    pub bytes: u64,
    /// Cross-machine batches to `dst` encoded in the dense wire mode.
    pub wire_dense: u64,
    /// Cross-machine batches to `dst` encoded in the sparse wire mode.
    pub wire_sparse: u64,
}

/// Per-destination traffic accumulators for one worker's current
/// superstep (see [`WorkerTracer::add_sent_to`]).
#[derive(Default)]
struct CommCell {
    messages: AtomicU64,
    bytes: AtomicU64,
    wire_dense: AtomicU64,
    wire_sparse: AtomicU64,
}

/// Fixed-capacity ring of records; overwrites the oldest when full.
struct Ring {
    buf: Vec<TraceRecord>,
    cap: usize,
    start: usize,
    /// Count of records dropped to overwriting.
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(cap),
            cap: cap.max(1),
            start: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, r: TraceRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(r);
        } else {
            self.buf[self.start] = r;
            self.start = (self.start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    fn drain_in_order(&mut self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.start..]);
        out.extend_from_slice(&self.buf[..self.start]);
        self.buf.clear();
        self.start = 0;
        out
    }
}

/// Per-worker trace accumulator. Threads of the worker add into relaxed
/// atomics; the worker leader alone commits records into the ring.
pub struct WorkerTracer {
    computed: AtomicU64,
    activated: AtomicU64,
    converged_delta: AtomicI64,
    drained: AtomicU64,
    messages: AtomicU64,
    bytes: AtomicU64,
    /// Set when this superstep ran on the sparse fast path (swapped to
    /// `false` at commit, like the counters).
    fast_path: std::sync::atomic::AtomicBool,
    /// Cross-machine batches sent in the dense / sparse wire modes this
    /// superstep.
    wire_dense: AtomicU64,
    wire_sparse: AtomicU64,
    /// Direct messages sent this superstep (hybrid replication).
    direct_messages: AtomicU64,
    /// Masters migrated onto this worker at the preceding epoch boundary.
    migrated: AtomicU64,
    /// Bucketed-scheduler accounting for this superstep: fused relaxation
    /// rounds, the bucket index drained, and distinct selected vertices.
    fused: AtomicU64,
    bucket: AtomicU64,
    bucket_occupancy: AtomicU64,
    /// Per-destination traffic accumulators (the communication matrix row),
    /// one slot per worker in the cluster. Relaxed atomics like the rest:
    /// threads of the worker attribute sends concurrently, the leader
    /// drains at commit.
    comm: Vec<CommCell>,
    /// Per-thread aggregate partials, reduced in thread order at commit so
    /// the recorded aggregate is deterministic regardless of which thread
    /// finishes first. One slot per thread: no cross-thread contention.
    thread_aggs: Vec<Mutex<AggregateStats>>,
    /// Publication digests for the current superstep (values mode only;
    /// a short lock per publishing thread, acceptable for a diagnostic
    /// mode that already pays for hashing every publication).
    pubs: Mutex<Vec<(u32, u64)>>,
    /// Per-thread hot-vertex sketches for the current superstep, merged in
    /// thread order at commit (deterministic merge order, like
    /// `thread_aggs`). Empty unless [`TraceSink::with_hot_k`] enabled it.
    thread_hot: Vec<Mutex<SpaceSaving>>,
    /// Sketch capacity; 0 disables hot-vertex capture.
    hot_k: usize,
    /// Resolved gauges for live hot-vertex exposition (None without a
    /// global registry).
    hot_obs: Option<HotObs>,
    ring: UnsafeCell<Ring>,
    /// Streaming mode: committed records go to the writer thread instead of
    /// the ring.
    stream: Option<SyncSender<TraceRecord>>,
    /// Records the channel could not take immediately, retried oldest-first
    /// at subsequent commits and flushed synchronously by
    /// [`TraceSink::finish`]. Leader-owned, like the ring.
    deferred: UnsafeCell<VecDeque<TraceRecord>>,
    /// How many records were deferred at least once (backpressure events).
    deferred_events: AtomicU64,
}

// SAFETY: the ring and the deferred backlog are written only by the
// worker-leader thread (commit) and read only after the run's threads have
// joined (take_records / finish on an exclusive TraceSink) — the same
// single-writer discipline DisjointSlots relies on.
unsafe impl Sync for WorkerTracer {}

impl WorkerTracer {
    fn new(
        threads: usize,
        workers: usize,
        cap: usize,
        stream: Option<SyncSender<TraceRecord>>,
    ) -> Self {
        WorkerTracer {
            computed: AtomicU64::new(0),
            activated: AtomicU64::new(0),
            converged_delta: AtomicI64::new(0),
            drained: AtomicU64::new(0),
            messages: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            fast_path: std::sync::atomic::AtomicBool::new(false),
            wire_dense: AtomicU64::new(0),
            wire_sparse: AtomicU64::new(0),
            direct_messages: AtomicU64::new(0),
            migrated: AtomicU64::new(0),
            fused: AtomicU64::new(0),
            bucket: AtomicU64::new(0),
            bucket_occupancy: AtomicU64::new(0),
            comm: (0..workers).map(|_| CommCell::default()).collect(),
            thread_aggs: (0..threads.max(1))
                .map(|_| Mutex::new(AggregateStats::default()))
                .collect(),
            pubs: Mutex::new(Vec::new()),
            thread_hot: Vec::new(),
            hot_k: 0,
            hot_obs: None,
            ring: UnsafeCell::new(Ring::new(cap)),
            stream,
            deferred: UnsafeCell::new(VecDeque::new()),
            deferred_events: AtomicU64::new(0),
        }
    }

    /// Adds vertices computed by the calling thread this superstep.
    #[inline]
    pub fn add_computed(&self, n: u64) {
        self.computed.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds local activations produced for the next superstep.
    #[inline]
    pub fn add_activated(&self, n: u64) {
        self.activated.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds the calling thread's net converged-count change.
    #[inline]
    pub fn add_converged_delta(&self, d: i64) {
        if d != 0 {
            self.converged_delta.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Adds messages drained by the calling receiver thread.
    #[inline]
    pub fn add_drained(&self, n: u64) {
        self.drained.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds messages/bytes sent by the calling thread without attributing a
    /// destination (the communication-matrix row stays empty). Engines use
    /// [`WorkerTracer::add_sent_to`]; this remains for callers that have no
    /// destination to attribute.
    #[inline]
    pub fn add_sent(&self, messages: u64, bytes: u64) {
        self.messages.fetch_add(messages, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Adds messages/bytes sent by the calling thread to worker `dst`,
    /// feeding both the run totals and this worker's communication-matrix
    /// row. Using this (never [`WorkerTracer::add_sent`]) at every send
    /// site is what keeps the row sums equal to the totals.
    #[inline]
    pub fn add_sent_to(&self, dst: usize, messages: u64, bytes: u64) {
        self.messages.fetch_add(messages, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        if let Some(cell) = self.comm.get(dst) {
            cell.messages.fetch_add(messages, Ordering::Relaxed);
            cell.bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Marks this superstep as having run on the sparse fast path.
    #[inline]
    pub fn mark_sparse_fast_path(&self) {
        self.fast_path.store(true, Ordering::Relaxed);
    }

    /// Adds cross-machine batches sent in the dense / sparse wire modes by
    /// the calling thread.
    #[inline]
    pub fn add_wire_batches(&self, dense: u64, sparse: u64) {
        if dense > 0 {
            self.wire_dense.fetch_add(dense, Ordering::Relaxed);
        }
        if sparse > 0 {
            self.wire_sparse.fetch_add(sparse, Ordering::Relaxed);
        }
    }

    /// Adds direct messages this worker queued this superstep (hybrid
    /// replication's cold-vertex path). They are a subset of what
    /// [`WorkerTracer::add_sent_to`] counts; this only feeds the separate
    /// `direct_messages` record column.
    #[inline]
    pub fn add_direct(&self, messages: u64) {
        if messages > 0 {
            self.direct_messages.fetch_add(messages, Ordering::Relaxed);
        }
    }

    /// Adds masters migrated onto this worker at the epoch boundary that
    /// precedes the superstep being accumulated (the migration driver calls
    /// this between epochs; the count lands on the resumed epoch's first
    /// committed record).
    #[inline]
    pub fn add_migrated(&self, n: u64) {
        if n > 0 {
            self.migrated.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Like [`WorkerTracer::add_wire_batches`], additionally attributing
    /// the batches to destination `dst` in the communication-matrix row.
    #[inline]
    pub fn add_wire_batches_to(&self, dst: usize, dense: u64, sparse: u64) {
        self.add_wire_batches(dense, sparse);
        if dense == 0 && sparse == 0 {
            return;
        }
        if let Some(cell) = self.comm.get(dst) {
            if dense > 0 {
                cell.wire_dense.fetch_add(dense, Ordering::Relaxed);
            }
            if sparse > 0 {
                cell.wire_sparse.fetch_add(sparse, Ordering::Relaxed);
            }
        }
    }

    /// Records the bucketed scheduler's accounting for this superstep: the
    /// bucket index being drained, how many relaxation rounds were fused
    /// into the one global barrier, and how many distinct vertices this
    /// worker selected into the bucket. `fused >= 1` on any bucketed
    /// superstep; non-bucketed supersteps never call this.
    #[inline]
    pub fn set_bucket(&self, bucket: u64, fused: u64, occupancy: u64) {
        self.bucket.store(bucket, Ordering::Relaxed);
        self.fused.store(fused, Ordering::Relaxed);
        self.bucket_occupancy.store(occupancy, Ordering::Relaxed);
    }

    /// Stores thread `t`'s aggregate partial for this superstep.
    pub fn set_thread_agg(&self, t: usize, agg: AggregateStats) {
        *self.thread_aggs[t].lock() = agg;
    }

    /// Records one publication digest (values mode).
    pub fn record_publication(&self, vertex: u32, digest: u64) {
        self.pubs.lock().push((vertex, digest));
    }

    /// Folds thread `t`'s hot-vertex sketch for this superstep into its
    /// slot. No-op unless the sink was built with
    /// [`TraceSink::with_hot_k`]. Call once per thread per superstep,
    /// before the worker leader commits.
    pub fn set_thread_hot(&self, t: usize, sketch: &SpaceSaving) {
        if let Some(slot) = self.thread_hot.get(t) {
            slot.lock().merge(sketch);
        }
    }

    /// Commits the accumulated superstep into the ring and resets the
    /// accumulators. Must be called by exactly one thread per worker (the
    /// worker leader), after this worker's threads have published their
    /// counts for the superstep.
    pub fn commit(
        &self,
        superstep: usize,
        worker: usize,
        frontier: usize,
        times: &PhaseTimes,
        checkpoint: bool,
    ) {
        let mut agg = AggregateStats::default();
        for slot in &self.thread_aggs {
            let mut s = slot.lock();
            agg.merge(&s);
            *s = AggregateStats::default();
        }
        let mut pubs = std::mem::take(&mut *self.pubs.lock());
        pubs.sort_unstable();
        let hot = if self.hot_k > 0 {
            // Merge the per-thread sketches in thread order (deterministic
            // for a deterministic schedule) and reset them for the next
            // superstep.
            let mut merged = SpaceSaving::new(self.hot_k);
            for slot in &self.thread_hot {
                let mut s = slot.lock();
                merged.merge(&s);
                s.clear();
            }
            let top = merged.top();
            if let Some(obs) = &self.hot_obs {
                obs.record(&top);
            }
            top
        } else {
            Vec::new()
        };
        // Drain (and reset) every destination cell; all-zero rows are
        // dropped so matrix-off records serialize exactly as before.
        let comm: Vec<CommEntry> = self
            .comm
            .iter()
            .enumerate()
            .filter_map(|(dst, cell)| {
                let messages = cell.messages.swap(0, Ordering::Relaxed);
                let bytes = cell.bytes.swap(0, Ordering::Relaxed);
                let wire_dense = cell.wire_dense.swap(0, Ordering::Relaxed);
                let wire_sparse = cell.wire_sparse.swap(0, Ordering::Relaxed);
                (messages | bytes | wire_dense | wire_sparse != 0).then_some(CommEntry {
                    dst: dst as u32,
                    messages,
                    bytes,
                    wire_dense,
                    wire_sparse,
                })
            })
            .collect();
        let record = TraceRecord {
            superstep: superstep as u64,
            worker: worker as u64,
            parse_ns: times.parse.as_nanos() as u64,
            compute_ns: times.compute.as_nanos() as u64,
            send_ns: times.send.as_nanos() as u64,
            sync_ns: times.sync.as_nanos() as u64,
            frontier: frontier as u64,
            computed: self.computed.swap(0, Ordering::Relaxed),
            activated: self.activated.swap(0, Ordering::Relaxed),
            converged_delta: self.converged_delta.swap(0, Ordering::Relaxed),
            drained: self.drained.swap(0, Ordering::Relaxed),
            messages: self.messages.swap(0, Ordering::Relaxed),
            bytes: self.bytes.swap(0, Ordering::Relaxed),
            checkpoint,
            sparse_fast_path: self.fast_path.swap(false, Ordering::Relaxed),
            wire_dense: self.wire_dense.swap(0, Ordering::Relaxed),
            wire_sparse: self.wire_sparse.swap(0, Ordering::Relaxed),
            direct_messages: self.direct_messages.swap(0, Ordering::Relaxed),
            direct_bytes: 0,
            migrated: self.migrated.swap(0, Ordering::Relaxed),
            fused: self.fused.swap(0, Ordering::Relaxed),
            bucket: self.bucket.swap(0, Ordering::Relaxed),
            bucket_occupancy: self.bucket_occupancy.swap(0, Ordering::Relaxed),
            agg: if agg.is_empty() { None } else { Some(agg) },
            pubs,
            hot,
            comm,
        };
        if let Some(tx) = &self.stream {
            // SAFETY: single committer per worker (see the Sync impl above).
            let backlog = unsafe { &mut *self.deferred.get() };
            // Retry deferred records oldest-first so the file stays close to
            // superstep order even across backpressure episodes.
            while let Some(r) = backlog.pop_front() {
                match tx.try_send(r) {
                    Ok(()) => {}
                    Err(TrySendError::Full(r)) => {
                        backlog.push_front(r);
                        break;
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        // Writer died on an I/O error; finish() surfaces it.
                        backlog.clear();
                        break;
                    }
                }
            }
            let record = if backlog.is_empty() {
                match tx.try_send(record) {
                    Ok(()) => return,
                    Err(TrySendError::Full(r)) => r,
                    Err(TrySendError::Disconnected(_)) => return,
                }
            } else {
                record
            };
            backlog.push_back(record);
            self.deferred_events.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: single committer per worker (see the Sync impl above).
        unsafe { (*self.ring.get()).push(record) };
    }
}

/// Run-level trace metadata, written as the first JSONL line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceMeta {
    /// Engine label: "cyclops", "bsp", or "gas".
    pub engine: String,
    /// Cluster label, e.g. "3x2x2/2".
    pub cluster: String,
    /// Number of workers (records per superstep).
    pub workers: u64,
    /// Whether publication digests were captured.
    pub values: bool,
}

/// Result of closing a streaming sink with [`TraceSink::finish`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Records the writer thread appended to the file.
    pub records_written: u64,
    /// Records that hit channel backpressure at commit and were parked in a
    /// leader backlog before eventually being written. Always `<=`
    /// `records_written`; nonzero means the writer briefly fell behind, not
    /// that anything was lost.
    pub records_deferred: u64,
}

/// Streaming machinery owned by a [`TraceSink`] in streaming mode.
struct StreamState {
    handle: std::thread::JoinHandle<std::io::Result<u64>>,
}

/// Shared trace collector for one engine run.
pub struct TraceSink {
    meta: TraceMeta,
    capture_values: bool,
    hot_k: usize,
    workers: Vec<WorkerTracer>,
    stream: Option<StreamState>,
    /// When set, dropping the sink without [`TraceSink::write_jsonl`] /
    /// [`TraceSink::finish`] flushes the buffered tail to this path — so a
    /// panicking run still writes the supersteps that would explain it.
    flush_path: Option<String>,
}

impl TraceSink {
    /// A sink for `engine` on `spec`, counters only.
    pub fn new(engine: &str, spec: &ClusterSpec) -> Self {
        Self::build(engine, spec, false, DEFAULT_RING_CAPACITY)
    }

    /// A sink that additionally captures per-publication value digests —
    /// heavier (hashes every publication, locks a per-worker vec) but lets
    /// [`diff`] name the first divergent vertex.
    pub fn with_values(engine: &str, spec: &ClusterSpec) -> Self {
        Self::build(engine, spec, true, DEFAULT_RING_CAPACITY)
    }

    /// A streaming sink appending JSONL to `path` as the run progresses.
    /// Ring capacity no longer caps coverage; close with
    /// [`TraceSink::finish`] to flush and collect the [`StreamSummary`].
    pub fn streaming(engine: &str, spec: &ClusterSpec, path: &str) -> std::io::Result<Self> {
        Self::build_streaming(engine, spec, false, path, STREAM_CHANNEL_CAPACITY)
    }

    /// A streaming sink that also captures publication digests.
    pub fn streaming_with_values(
        engine: &str,
        spec: &ClusterSpec,
        path: &str,
    ) -> std::io::Result<Self> {
        Self::build_streaming(engine, spec, true, path, STREAM_CHANNEL_CAPACITY)
    }

    /// [`TraceSink::streaming`] with an explicit channel bound — exposed so
    /// tests can force backpressure deterministically with a tiny bound.
    pub fn streaming_with_channel_capacity(
        engine: &str,
        spec: &ClusterSpec,
        path: &str,
        channel_capacity: usize,
    ) -> std::io::Result<Self> {
        Self::build_streaming(engine, spec, false, path, channel_capacity)
    }

    fn build(engine: &str, spec: &ClusterSpec, values: bool, cap: usize) -> Self {
        let workers = spec.num_workers();
        TraceSink {
            meta: TraceMeta {
                engine: engine.to_string(),
                cluster: spec.label(),
                workers: workers as u64,
                values,
            },
            capture_values: values,
            hot_k: 0,
            workers: (0..workers)
                .map(|_| WorkerTracer::new(spec.threads_per_worker, workers, cap, None))
                .collect(),
            stream: None,
            flush_path: None,
        }
    }

    fn build_streaming(
        engine: &str,
        spec: &ClusterSpec,
        values: bool,
        path: &str,
        channel_capacity: usize,
    ) -> std::io::Result<Self> {
        let workers = spec.num_workers();
        let meta = TraceMeta {
            engine: engine.to_string(),
            cluster: spec.label(),
            workers: workers as u64,
            values,
        };
        let mut f = BufWriter::new(std::fs::File::create(path)?);
        write_header(&mut f, &meta)?;
        f.flush()?;
        let (tx, rx) = sync_channel(channel_capacity.max(1));
        let handle = std::thread::Builder::new()
            .name("cyclops-trace-writer".to_string())
            .spawn(move || stream_writer_loop(rx, f))?;
        Ok(TraceSink {
            capture_values: values,
            hot_k: 0,
            workers: (0..workers)
                // Streamed records bypass the ring; capacity 1 keeps the
                // preallocation negligible.
                .map(|_| WorkerTracer::new(spec.threads_per_worker, workers, 1, Some(tx.clone())))
                .collect(),
            meta,
            stream: Some(StreamState { handle }),
            flush_path: None,
        })
    }

    /// Arms the panic-safety guard: if this sink is dropped without a
    /// [`TraceSink::write_jsonl`] / [`TraceSink::finish`] — a panic
    /// unwinding the run being the interesting case — the buffered records,
    /// any flight-recorder spans, and any memory samples are best-effort
    /// flushed to `path` so the trace tail that would explain the crash
    /// survives. Normal completion paths disarm the guard, so nothing is
    /// written twice.
    pub fn flush_on_drop(mut self, path: &str) -> Self {
        self.flush_path = Some(path.to_string());
        self
    }

    /// Enables hot-vertex capture: every compute thread keeps a
    /// [`SpaceSaving`] sketch of per-vertex cost, folded into per-thread
    /// slots via [`WorkerTracer::set_thread_hot`] and merged (thread
    /// order) into [`TraceRecord::hot`] at commit. When a global metrics
    /// registry is installed, the merged top-K is also published as
    /// `cyclops_hot_vertex_{cost,id}{engine,worker,rank}` gauges.
    /// `k == 0` leaves capture disabled.
    pub fn with_hot_k(mut self, k: usize) -> Self {
        self.hot_k = k;
        for (w, tracer) in self.workers.iter_mut().enumerate() {
            tracer.hot_k = k;
            tracer.thread_hot = (0..tracer.thread_aggs.len())
                .map(|_| Mutex::new(SpaceSaving::new(k)))
                .collect();
            tracer.hot_obs = HotObs::resolve(&self.meta.engine, w, k);
        }
        self
    }

    /// The hot-vertex sketch capacity (0 = capture disabled). Engines read
    /// this once at run start to size their per-thread sketches.
    #[inline]
    pub fn hot_k(&self) -> usize {
        self.hot_k
    }

    /// Whether this sink streams records to a file as they commit.
    pub fn is_streaming(&self) -> bool {
        self.stream.is_some()
    }

    /// Total backpressure deferrals across workers (streaming mode; 0
    /// otherwise). See [`StreamSummary::records_deferred`].
    pub fn records_deferred(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.deferred_events.load(Ordering::Relaxed))
            .sum()
    }

    /// Closes a streaming sink: synchronously flushes every deferred
    /// record, disconnects the channel, joins the writer thread, and
    /// returns what was written. Call after the run's threads have joined.
    ///
    /// Panics on a buffered sink (use [`TraceSink::write_jsonl`] there).
    pub fn finish(mut self) -> std::io::Result<StreamSummary> {
        self.flush_path = None; // normal completion: disarm the Drop guard
        let state = self
            .stream
            .take()
            .expect("finish() called on a buffered TraceSink; use write_jsonl");
        let mut deferred = 0;
        for w in &mut self.workers {
            deferred += w.deferred_events.load(Ordering::Relaxed);
            if let Some(tx) = w.stream.take() {
                for r in w.deferred.get_mut().drain(..) {
                    // A blocking send is fine here: the run is over and the
                    // writer drains continuously until disconnect.
                    if tx.send(r).is_err() {
                        break;
                    }
                }
                // `tx` drops here; once every worker's clone is gone the
                // writer sees the disconnect and exits.
            }
        }
        let written = state
            .handle
            .join()
            .map_err(|_| std::io::Error::other("trace writer thread panicked"))??;
        Ok(StreamSummary {
            records_written: written,
            records_deferred: deferred,
        })
    }

    /// Whether publication digests should be recorded.
    #[inline]
    pub fn captures_values(&self) -> bool {
        self.capture_values
    }

    /// The tracer for worker `w`.
    #[inline]
    pub fn worker(&self, w: usize) -> &WorkerTracer {
        &self.workers[w]
    }

    /// Run metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Extracts all committed records ordered by `(superstep, worker)`.
    /// Requires `&mut self`: the run's threads must have finished.
    pub fn take_records(&mut self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        for w in &mut self.workers {
            out.append(&mut w.ring.get_mut().drain_in_order());
        }
        out.sort_by_key(|r| (r.superstep, r.worker));
        out
    }

    /// Total records overwritten by ring wraparound, across workers.
    pub fn dropped_records(&self) -> u64 {
        // SAFETY: read-only scan; callers invoke this between supersteps or
        // after the run, and a racing u64 read of `dropped` is harmless for
        // a diagnostic count.
        self.workers
            .iter()
            .map(|w| unsafe { (*w.ring.get()).dropped })
            .sum()
    }

    /// Writes the trace as JSON lines: one metadata line, then one line per
    /// record ordered by `(superstep, worker)`. Buffered sinks only — a
    /// streaming sink already wrote its file; close it with
    /// [`TraceSink::finish`] instead.
    pub fn write_jsonl(&mut self, path: &str) -> std::io::Result<()> {
        if self.is_streaming() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "write_jsonl on a streaming TraceSink; use finish()",
            ));
        }
        self.flush_path = None; // normal completion: disarm the Drop guard
        let records = self.take_records();
        let mut f = BufWriter::new(std::fs::File::create(path)?);
        write_header(&mut f, &self.meta)?;
        let mut line = String::with_capacity(256);
        for r in &records {
            line.clear();
            r.to_json(&mut line);
            writeln!(f, "{line}")?;
        }
        f.flush()
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        // Only an armed guard (flush_on_drop without a completing
        // write_jsonl/finish) does anything; every write is best-effort —
        // this runs during panic unwinding, where a second panic aborts.
        let Some(path) = self.flush_path.take() else {
            return;
        };
        if let Some(state) = self.stream.take() {
            // Streaming: the writer thread already appended everything that
            // reached the channel; push the deferred backlog through and
            // join it, exactly as finish() would.
            for w in &mut self.workers {
                if let Some(tx) = w.stream.take() {
                    for r in w.deferred.get_mut().drain(..) {
                        if tx.send(r).is_err() {
                            break;
                        }
                    }
                }
            }
            let _ = state.handle.join();
        } else {
            let mut buffered = self.take_records();
            buffered.sort_by_key(|r| (r.superstep, r.worker));
            let write = || -> std::io::Result<()> {
                let mut f = BufWriter::new(std::fs::File::create(&path)?);
                write_header(&mut f, &self.meta)?;
                let mut line = String::with_capacity(256);
                for r in &buffered {
                    line.clear();
                    r.to_json(&mut line);
                    writeln!(f, "{line}")?;
                }
                f.flush()
            };
            if write().is_err() {
                return;
            }
        }
        // Flight spans and memory samples survive the crash too.
        if let Some(fr) = cyclops_obs::flight() {
            let dump = fr.drain();
            if !dump.spans.is_empty() {
                let _ = append_spans_jsonl(&path, &dump.spans);
            }
        }
        let samples = cyclops_obs::mem::take_samples();
        if !samples.is_empty() {
            let _ = append_mem_jsonl(&path, &samples);
        }
    }
}

fn write_header(f: &mut impl Write, meta: &TraceMeta) -> std::io::Result<()> {
    writeln!(
        f,
        "{{\"engine\":\"{}\",\"cluster\":\"{}\",\"workers\":{},\"values\":{}}}",
        meta.engine, meta.cluster, meta.workers, meta.values
    )
}

/// Body of the streaming sink's writer thread: append each record as one
/// JSONL line, flushing whenever the channel is momentarily drained so a
/// live tail (`cyclops top`) sees records promptly without paying one
/// syscall per record under load.
fn stream_writer_loop(
    rx: Receiver<TraceRecord>,
    mut f: BufWriter<std::fs::File>,
) -> std::io::Result<u64> {
    let mut written = 0u64;
    let mut line = String::with_capacity(256);
    while let Ok(first) = rx.recv() {
        line.clear();
        first.to_json(&mut line);
        writeln!(f, "{line}")?;
        written += 1;
        while let Ok(r) = rx.try_recv() {
            line.clear();
            r.to_json(&mut line);
            writeln!(f, "{line}")?;
            written += 1;
        }
        f.flush()?;
    }
    f.flush()?;
    Ok(written)
}

impl TraceRecord {
    /// Whether the communication-matrix row sums equal the record's
    /// `messages` / `bytes` totals. Trivially true when no matrix was
    /// recorded (older traces, or sends attributed via
    /// [`WorkerTracer::add_sent`]).
    pub fn comm_consistent(&self) -> bool {
        if self.comm.is_empty() {
            return true;
        }
        let (m, b) = self
            .comm
            .iter()
            .fold((0u64, 0u64), |(m, b), e| (m + e.messages, b + e.bytes));
        m == self.messages && b == self.bytes
    }

    /// Appends this record as a single JSON object (no trailing newline).
    pub fn to_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"superstep\":{},\"worker\":{},\"parse_ns\":{},\"compute_ns\":{},\
             \"send_ns\":{},\"sync_ns\":{},\"frontier\":{},\"computed\":{},\
             \"activated\":{},\"converged_delta\":{},\"drained\":{},\
             \"messages\":{},\"bytes\":{},\"checkpoint\":{}",
            self.superstep,
            self.worker,
            self.parse_ns,
            self.compute_ns,
            self.send_ns,
            self.sync_ns,
            self.frontier,
            self.computed,
            self.activated,
            self.converged_delta,
            self.drained,
            self.messages,
            self.bytes,
            self.checkpoint
        );
        // New-in-PR-5 fields are written only when set, so older readers
        // (and older traces fed to trace-diff) keep working unchanged.
        if self.sparse_fast_path {
            out.push_str(",\"sparse_fast_path\":true");
        }
        if self.wire_dense > 0 {
            let _ = write!(out, ",\"wire_dense\":{}", self.wire_dense);
        }
        if self.wire_sparse > 0 {
            let _ = write!(out, ",\"wire_sparse\":{}", self.wire_sparse);
        }
        if self.direct_messages > 0 {
            let _ = write!(out, ",\"direct_messages\":{}", self.direct_messages);
        }
        if self.direct_bytes > 0 {
            let _ = write!(out, ",\"direct_bytes\":{}", self.direct_bytes);
        }
        if self.migrated > 0 {
            let _ = write!(out, ",\"migrated\":{}", self.migrated);
        }
        if self.fused > 0 {
            let _ = write!(
                out,
                ",\"fused\":{},\"bucket\":{},\"bucket_occupancy\":{}",
                self.fused, self.bucket, self.bucket_occupancy
            );
        }
        if !self.comm.is_empty() {
            out.push_str(",\"comm\":[");
            for (i, e) in self.comm.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "[{},{},{},{},{}]",
                    e.dst, e.messages, e.bytes, e.wire_dense, e.wire_sparse
                );
            }
            out.push(']');
        }
        if let Some(a) = &self.agg {
            let _ = write!(
                out,
                ",\"agg\":{{\"sum\":{:?},\"count\":{},\"min\":{:?},\"max\":{:?}}}",
                a.sum, a.count, a.min, a.max
            );
        }
        if !self.pubs.is_empty() {
            out.push_str(",\"pubs\":[");
            for (i, (v, d)) in self.pubs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{v},{d}]");
            }
            out.push(']');
        }
        if !self.hot.is_empty() {
            out.push_str(",\"hot\":[");
            for (i, (v, w)) in self.hot.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{v},{w}]");
            }
            out.push(']');
        }
        out.push('}');
    }
}

/// One flight-recorder span as stored in trace JSONL: span lines sit after
/// the records (appended once the run's threads have joined and the rings
/// are drained) and are keyed by a leading `"span"` field so record
/// parsers and older traces are unaffected. Timestamps are wall-clock and
/// inherently nondeterministic — spans are never part of the [`diff`]
/// contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Worker id (Chrome `pid`).
    pub worker: u32,
    /// Thread id within the worker (Chrome `tid`).
    pub thread: u32,
    /// What the span measures.
    pub kind: SpanKind,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Kind-specific argument (see [`SpanKind`]).
    pub a: u64,
    /// Kind-specific argument.
    pub b: u64,
    /// Kind-specific argument.
    pub c: u64,
}

impl From<FlightSpan> for SpanRecord {
    fn from(s: FlightSpan) -> Self {
        SpanRecord {
            worker: s.worker,
            thread: s.thread,
            kind: s.event.kind,
            start_ns: s.event.start_ns,
            dur_ns: s.event.dur_ns,
            a: s.event.a,
            b: s.event.b,
            c: s.event.c,
        }
    }
}

impl SpanRecord {
    /// Appends this span as a single JSON object (no trailing newline).
    pub fn to_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"span\":\"{}\",\"worker\":{},\"thread\":{},\"start_ns\":{},\
             \"dur_ns\":{},\"a\":{},\"b\":{},\"c\":{}}}",
            self.kind.name(),
            self.worker,
            self.thread,
            self.start_ns,
            self.dur_ns,
            self.a,
            self.b,
            self.c
        );
    }
}

/// Parses one span line of a JSONL trace. Returns `None` when the line is
/// not a span line (record lines and garbage alike).
pub fn parse_span_line(line: &str) -> Option<SpanRecord> {
    let kind = SpanKind::parse(&string_field(line, "span")?)?;
    Some(SpanRecord {
        worker: num(line, "worker")?,
        thread: num(line, "thread")?,
        kind,
        start_ns: num(line, "start_ns")?,
        dur_ns: num(line, "dur_ns")?,
        a: num(line, "a")?,
        b: num(line, "b")?,
        c: num(line, "c")?,
    })
}

/// Appends flight-recorder spans to an existing trace file (one JSONL line
/// per span), as the CLI does after a `--flight` run finishes. Returns the
/// number of lines written.
pub fn append_spans_jsonl(path: &str, spans: &[FlightSpan]) -> std::io::Result<u64> {
    let f = std::fs::OpenOptions::new().append(true).open(path)?;
    let mut f = BufWriter::new(f);
    let mut line = String::with_capacity(128);
    for &s in spans {
        line.clear();
        SpanRecord::from(s).to_json(&mut line);
        writeln!(f, "{line}")?;
    }
    f.flush()?;
    Ok(spans.len() as u64)
}

/// One memory sample as stored in trace JSONL: mem lines sit after the
/// records (appended once the run's threads have joined, like flight
/// spans) and are keyed by a leading `"mem"` field so record parsers and
/// older traces are unaffected. Byte counts are allocator-tracked and
/// inherently nondeterministic — mem lines are never part of the [`diff`]
/// contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRecord {
    /// Superstep the sample's barrier closed.
    pub superstep: u64,
    /// Worker id, or `u32::MAX` for the untagged (main-thread) slot.
    pub worker: u32,
    /// Live bytes per component, [`cyclops_obs::Component::ALL`] order.
    pub live: [i64; cyclops_obs::NUM_COMPONENTS],
    /// Peak bytes per component, [`cyclops_obs::Component::ALL`] order.
    pub peak: [u64; cyclops_obs::NUM_COMPONENTS],
    /// `/proc/self/status` VmRSS in kB (0 = absent or not sampled here).
    pub rss_kb: u64,
    /// `/proc/self/status` VmHWM in kB (0 = absent or not sampled here).
    pub hwm_kb: u64,
}

impl From<cyclops_obs::MemSample> for MemRecord {
    fn from(s: cyclops_obs::MemSample) -> Self {
        MemRecord {
            superstep: s.superstep,
            worker: s.worker,
            live: s.live,
            peak: s.peak,
            rss_kb: s.rss_kb,
            hwm_kb: s.hwm_kb,
        }
    }
}

impl MemRecord {
    /// Appends this sample as a single JSON object (no trailing newline).
    pub fn to_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"mem\":1,\"superstep\":{},\"worker\":{},\"live\":[",
            self.superstep, self.worker
        );
        for (i, v) in self.live.iter().enumerate() {
            let _ = write!(out, "{}{v}", if i > 0 { "," } else { "" });
        }
        out.push_str("],\"peak\":[");
        for (i, v) in self.peak.iter().enumerate() {
            let _ = write!(out, "{}{v}", if i > 0 { "," } else { "" });
        }
        let _ = write!(
            out,
            "],\"rss_kb\":{},\"hwm_kb\":{}}}",
            self.rss_kb, self.hwm_kb
        );
    }
}

/// Parses a fixed-length numeric array like `[1,2,3]` into `N` slots.
fn parse_array<T: std::str::FromStr + Copy + Default, const N: usize>(raw: &str) -> Option<[T; N]> {
    let inner = raw.trim().strip_prefix('[')?.strip_suffix(']')?;
    let mut out = [T::default(); N];
    let mut n = 0;
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        // Older traces may carry fewer components; extras are rejected.
        if n >= N {
            return None;
        }
        out[n] = part.parse().ok()?;
        n += 1;
    }
    Some(out)
}

/// Parses one mem line of a JSONL trace. Returns `None` when the line is
/// not a mem line (record lines and garbage alike).
pub fn parse_mem_line(line: &str) -> Option<MemRecord> {
    field(line, "mem")?;
    Some(MemRecord {
        superstep: num(line, "superstep")?,
        worker: num(line, "worker")?,
        live: parse_array(field(line, "live")?)?,
        peak: parse_array(field(line, "peak")?)?,
        rss_kb: num(line, "rss_kb").unwrap_or(0),
        hwm_kb: num(line, "hwm_kb").unwrap_or(0),
    })
}

/// Appends memory samples to an existing trace file (one JSONL line per
/// sample), as the CLI does after a `--mem` run finishes. Returns the
/// number of lines written.
pub fn append_mem_jsonl(path: &str, samples: &[cyclops_obs::MemSample]) -> std::io::Result<u64> {
    let f = std::fs::OpenOptions::new().append(true).open(path)?;
    let mut f = BufWriter::new(f);
    let mut line = String::with_capacity(256);
    for &s in samples {
        line.clear();
        MemRecord::from(s).to_json(&mut line);
        writeln!(f, "{line}")?;
    }
    f.flush()?;
    Ok(samples.len() as u64)
}

/// A loaded trace: metadata plus records ordered by `(superstep, worker)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunTrace {
    /// Run metadata from the header line.
    pub meta: TraceMeta,
    /// All records, ordered by `(superstep, worker)`.
    pub records: Vec<TraceRecord>,
    /// Flight-recorder spans, ordered by `(start_ns, worker, thread)`;
    /// empty unless the run recorded with `--flight`.
    pub spans: Vec<SpanRecord>,
    /// Memory samples, ordered by `(superstep, worker)`; empty unless the
    /// run recorded with `--mem`. Like spans, never part of [`diff`].
    pub mem: Vec<MemRecord>,
}

impl RunTrace {
    /// Number of supersteps covered (max superstep index + 1).
    pub fn supersteps(&self) -> u64 {
        self.records.last().map(|r| r.superstep + 1).unwrap_or(0)
    }
}

/// FNV-1a digest of a byte string — the publication digest used by values
/// mode. Stable across runs and platforms.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---- Minimal JSON reading for exactly the lines this module writes. ----

/// Pulls the raw text of `"key":<value>` out of a JSON object line, where
/// the value runs until the next top-level `,` or the closing `}`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '[' | '{' => depth += 1,
            ']' | '}' if depth > 0 => depth -= 1,
            ',' | '}' if depth == 0 => return Some(&rest[..i]),
            _ => {}
        }
    }
    Some(rest)
}

fn num<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    field(line, key)?.trim().parse().ok()
}

fn string_field(line: &str, key: &str) -> Option<String> {
    let raw = field(line, key)?.trim();
    Some(raw.trim_matches('"').to_string())
}

/// Parses the header (first) line of a JSONL trace. Returns `None` when
/// the line is not a trace header.
pub fn parse_meta_line(line: &str) -> Option<TraceMeta> {
    Some(TraceMeta {
        engine: string_field(line, "engine")?,
        cluster: string_field(line, "cluster").unwrap_or_default(),
        workers: num(line, "workers")?,
        values: field(line, "values")
            .map(|v| v.trim() == "true")
            .unwrap_or(false),
    })
}

/// Parses one record line of a JSONL trace (anything after the header).
/// Exposed so incremental readers (`cyclops top`) can tail a live file
/// without re-reading it from the start.
pub fn parse_record_line(line: &str) -> Option<TraceRecord> {
    parse_record(line)
}

fn parse_record(line: &str) -> Option<TraceRecord> {
    let mut r = TraceRecord {
        superstep: num(line, "superstep")?,
        worker: num(line, "worker")?,
        parse_ns: num(line, "parse_ns")?,
        compute_ns: num(line, "compute_ns")?,
        send_ns: num(line, "send_ns")?,
        sync_ns: num(line, "sync_ns")?,
        frontier: num(line, "frontier")?,
        computed: num(line, "computed")?,
        activated: num(line, "activated")?,
        converged_delta: num(line, "converged_delta")?,
        drained: num(line, "drained")?,
        messages: num(line, "messages")?,
        bytes: num(line, "bytes")?,
        checkpoint: field(line, "checkpoint")?.trim() == "true",
        sparse_fast_path: field(line, "sparse_fast_path")
            .map(|v| v.trim() == "true")
            .unwrap_or(false),
        wire_dense: num(line, "wire_dense").unwrap_or(0),
        wire_sparse: num(line, "wire_sparse").unwrap_or(0),
        direct_messages: num(line, "direct_messages").unwrap_or(0),
        direct_bytes: num(line, "direct_bytes").unwrap_or(0),
        migrated: num(line, "migrated").unwrap_or(0),
        fused: num(line, "fused").unwrap_or(0),
        bucket: num(line, "bucket").unwrap_or(0),
        bucket_occupancy: num(line, "bucket_occupancy").unwrap_or(0),
        agg: None,
        pubs: Vec::new(),
        hot: Vec::new(),
        comm: Vec::new(),
    };
    if let Some(agg) = field(line, "agg") {
        r.agg = Some(AggregateStats {
            sum: num(agg, "sum")?,
            count: num(agg, "count")?,
            min: num(agg, "min")?,
            max: num(agg, "max")?,
        });
    }
    if let Some(pubs) = field(line, "pubs") {
        r.pubs = parse_pairs(pubs)?;
    }
    if let Some(hot) = field(line, "hot") {
        r.hot = parse_pairs(hot)?;
    }
    if let Some(comm) = field(line, "comm") {
        r.comm = parse_comm(comm)?;
    }
    Some(r)
}

/// Parses a `[[a,b],[c,d],...]` pair list (the `pubs`/`hot` encoding).
fn parse_pairs(raw: &str) -> Option<Vec<(u32, u64)>> {
    let inner = raw.trim().trim_start_matches('[').trim_end_matches(']');
    let mut out = Vec::new();
    for pair in inner.split("],[") {
        let pair = pair.trim_matches(|c| c == '[' || c == ']');
        if pair.is_empty() {
            continue;
        }
        let (v, d) = pair.split_once(',')?;
        out.push((v.trim().parse().ok()?, d.trim().parse().ok()?));
    }
    Some(out)
}

/// Parses a `[[dst,messages,bytes,dense,sparse],...]` communication-matrix
/// row list (the `comm` encoding).
fn parse_comm(raw: &str) -> Option<Vec<CommEntry>> {
    let inner = raw.trim().trim_start_matches('[').trim_end_matches(']');
    let mut out = Vec::new();
    for row in inner.split("],[") {
        let row = row.trim_matches(|c| c == '[' || c == ']');
        if row.is_empty() {
            continue;
        }
        let mut it = row.split(',').map(|v| v.trim().parse::<u64>().ok());
        let mut next = || it.next().flatten();
        out.push(CommEntry {
            dst: next()? as u32,
            messages: next()?,
            bytes: next()?,
            wire_dense: next()?,
            wire_sparse: next()?,
        });
    }
    Some(out)
}

/// Loads a trace written by [`TraceSink::write_jsonl`].
pub fn read_jsonl(path: &str) -> std::io::Result<RunTrace> {
    let corrupt = |what: String| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
    let f = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut lines = f.lines();
    let header = lines
        .next()
        .ok_or_else(|| corrupt(format!("{path}: empty trace")))??;
    let meta =
        parse_meta_line(&header).ok_or_else(|| corrupt(format!("{path}: bad trace header")))?;
    let mut records = Vec::new();
    let mut spans = Vec::new();
    let mut mem = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        if line.trim_start().starts_with("{\"span\"") {
            spans.push(
                parse_span_line(&line)
                    .ok_or_else(|| corrupt(format!("{path}: bad span on line {}", i + 2)))?,
            );
            continue;
        }
        if line.trim_start().starts_with("{\"mem\"") {
            mem.push(
                parse_mem_line(&line)
                    .ok_or_else(|| corrupt(format!("{path}: bad mem line on line {}", i + 2)))?,
            );
            continue;
        }
        records.push(
            parse_record(&line)
                .ok_or_else(|| corrupt(format!("{path}: bad record on line {}", i + 2)))?,
        );
    }
    records.sort_by_key(|r| (r.superstep, r.worker));
    spans.sort_by_key(|s| (s.start_ns, s.worker, s.thread));
    mem.sort_by_key(|m| (m.superstep, m.worker));
    Ok(RunTrace {
        meta,
        records,
        spans,
        mem,
    })
}

/// Comparing two traces: find where runs diverge.
pub mod diff {
    use super::{RunTrace, TraceRecord};

    /// The first difference between two runs.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Divergence {
        /// Superstep where the traces first differ.
        pub superstep: u64,
        /// Worker whose record first differs (0 when the difference is
        /// run-level, e.g. superstep counts).
        pub worker: u64,
        /// Name of the first divergent counter.
        pub counter: &'static str,
        /// The counter's value in run A, rendered.
        pub a: String,
        /// The counter's value in run B, rendered.
        pub b: String,
        /// First divergent vertex, when publication digests differ.
        pub vertex: Option<u32>,
    }

    /// Compares the pubs lists of two records, returning the first vertex
    /// whose digest differs (or exists on one side only).
    fn first_divergent_vertex(a: &TraceRecord, b: &TraceRecord) -> Option<u32> {
        let (mut i, mut j) = (0, 0);
        while i < a.pubs.len() && j < b.pubs.len() {
            let (va, da) = a.pubs[i];
            let (vb, db) = b.pubs[j];
            match va.cmp(&vb) {
                std::cmp::Ordering::Less => return Some(va),
                std::cmp::Ordering::Greater => return Some(vb),
                std::cmp::Ordering::Equal => {
                    if da != db {
                        return Some(va);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        a.pubs.get(i).or_else(|| b.pubs.get(j)).map(|&(v, _)| v)
    }

    /// The deterministic counters compared per record, in report order.
    /// Phase durations are deliberately excluded: wall-clock differs
    /// between identical runs. The bucketed-scheduler counters *are*
    /// compared: the deterministic bucket mode promises identical drain
    /// order (and hence fused-round and occupancy counts) across thread
    /// counts, and `trace-diff` is how that promise is checked. The
    /// communication matrix joins them — per-destination message/byte
    /// splits are a pure function of graph + partition — but only its
    /// `(dst, messages, bytes)` portion: per-pair wire-mode counts stay
    /// diagnostic, like `wire_dense`/`wire_sparse`. With `values_only`
    /// every traffic-, schedule-, and visibility-shaped counter
    /// (activated, drained, messages, bytes, direct_*, migrated, bucket
    /// accounting, comm) is skipped: those legitimately differ between
    /// runs at different replication thresholds or migration settings,
    /// while the computation-shaped counters and the publication digests
    /// must not.
    fn counters(r: &TraceRecord, values_only: bool) -> Vec<(&'static str, String)> {
        let mut out = vec![
            ("frontier", r.frontier.to_string()),
            ("computed", r.computed.to_string()),
            ("converged_delta", r.converged_delta.to_string()),
        ];
        if !values_only {
            let comm = if r.comm.is_empty() {
                "-".to_string()
            } else {
                r.comm
                    .iter()
                    .map(|e| format!("{}:{}/{}", e.dst, e.messages, e.bytes))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            out.extend([
                // `activated` is the worker's *locally-known* next
                // frontier — activations crossing a worker boundary are
                // still in flight when it is sampled, so its superstep sum
                // depends on ownership and legitimately shifts when
                // migration re-homes masters. Visibility-shaped, not
                // computation-shaped; `frontier` (sampled after remote
                // merge) is the ownership-independent counter.
                ("activated", r.activated.to_string()),
                ("drained", r.drained.to_string()),
                ("messages", r.messages.to_string()),
                ("bytes", r.bytes.to_string()),
                ("direct_messages", r.direct_messages.to_string()),
                ("direct_bytes", r.direct_bytes.to_string()),
                ("migrated", r.migrated.to_string()),
                ("fused", r.fused.to_string()),
                ("bucket", r.bucket.to_string()),
                ("bucket_occupancy", r.bucket_occupancy.to_string()),
                ("comm", comm),
            ]);
        }
        out.push((
            "agg",
            r.agg
                .map(|a| format!("{:?}/{}/{:?}/{:?}", a.sum, a.count, a.min, a.max))
                .unwrap_or_else(|| "-".to_string()),
        ));
        out
    }

    /// Returns the first divergence between `a` and `b`, or `None` when
    /// every compared counter matches. When `values` is set (and both
    /// traces carry digests), publication digests are compared too and the
    /// divergence names the first differing vertex.
    pub fn first_divergence(a: &RunTrace, b: &RunTrace, values: bool) -> Option<Divergence> {
        divergence(a, b, values, false)
    }

    /// Values-only comparison for runs whose *traffic* is expected to
    /// differ — e.g. the same algorithm at two replication thresholds, or
    /// with and without runtime migration. Compares superstep alignment,
    /// the computation-shaped counters (frontier, computed,
    /// converged_delta, agg), and the publication digests, skipping every
    /// message/byte/schedule counter — and `activated`, whose local-only
    /// visibility makes even its superstep sum ownership-dependent (see
    /// [`counters`]). Records are aggregated **per
    /// superstep across workers** before comparing: migration moves a
    /// master's compute (and its publication digest) to a different
    /// worker, so per-worker attribution legitimately shifts while the
    /// superstep-level totals and the merged digest multiset must not.
    /// Per-worker-equal runs trivially aggregate equal, so this remains
    /// how hybrid replication's bitwise-identical-results promise is
    /// checked too.
    pub fn first_value_divergence(a: &RunTrace, b: &RunTrace) -> Option<Divergence> {
        divergence(a, b, true, true)
    }

    /// Collapses a (superstep, worker)-sorted record list into one record
    /// per superstep: integer counters sum, aggregates merge in worker
    /// order, publication digests merge and re-sort. Only the
    /// values-compared fields are filled; the skipped traffic counters are
    /// left at zero.
    fn aggregate_by_superstep(records: &[TraceRecord]) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = Vec::new();
        for r in records {
            match out.last_mut() {
                Some(acc) if acc.superstep == r.superstep => {
                    acc.frontier += r.frontier;
                    acc.computed += r.computed;
                    acc.converged_delta += r.converged_delta;
                    match (&mut acc.agg, &r.agg) {
                        (Some(a), Some(b)) => a.merge(b),
                        (None, Some(b)) => acc.agg = Some(*b),
                        _ => {}
                    }
                    acc.pubs.extend(r.pubs.iter().copied());
                }
                _ => {
                    let mut acc = TraceRecord {
                        superstep: r.superstep,
                        worker: 0,
                        frontier: r.frontier,
                        computed: r.computed,
                        converged_delta: r.converged_delta,
                        agg: r.agg,
                        pubs: r.pubs.clone(),
                        ..TraceRecord::default()
                    };
                    acc.checkpoint = r.checkpoint;
                    out.push(acc);
                }
            }
        }
        for acc in &mut out {
            acc.pubs.sort_unstable();
        }
        out
    }

    fn divergence(
        a: &RunTrace,
        b: &RunTrace,
        values: bool,
        values_only: bool,
    ) -> Option<Divergence> {
        let (agg_a, agg_b);
        let (recs_a, recs_b): (&[TraceRecord], &[TraceRecord]) = if values_only {
            agg_a = aggregate_by_superstep(&a.records);
            agg_b = aggregate_by_superstep(&b.records);
            (&agg_a, &agg_b)
        } else {
            (&a.records, &b.records)
        };
        let mut ia = recs_a.iter().peekable();
        let mut ib = recs_b.iter().peekable();
        loop {
            match (ia.peek(), ib.peek()) {
                (None, None) => return None,
                (Some(ra), None) => {
                    return Some(Divergence {
                        superstep: ra.superstep,
                        worker: ra.worker,
                        counter: "supersteps",
                        a: a.supersteps().to_string(),
                        b: b.supersteps().to_string(),
                        vertex: None,
                    })
                }
                (None, Some(rb)) => {
                    return Some(Divergence {
                        superstep: rb.superstep,
                        worker: rb.worker,
                        counter: "supersteps",
                        a: a.supersteps().to_string(),
                        b: b.supersteps().to_string(),
                        vertex: None,
                    })
                }
                (Some(ra), Some(rb)) => {
                    let ka = (ra.superstep, ra.worker);
                    let kb = (rb.superstep, rb.worker);
                    if ka != kb {
                        let (s, w) = ka.min(kb);
                        return Some(Divergence {
                            superstep: s,
                            worker: w,
                            counter: "record",
                            a: format!("s{}/w{}", ka.0, ka.1),
                            b: format!("s{}/w{}", kb.0, kb.1),
                            vertex: None,
                        });
                    }
                    for ((name, va), (_, vb)) in counters(ra, values_only)
                        .iter()
                        .zip(counters(rb, values_only).iter())
                    {
                        if va != vb {
                            return Some(Divergence {
                                superstep: ra.superstep,
                                worker: ra.worker,
                                counter: name,
                                a: va.clone(),
                                b: vb.clone(),
                                vertex: if values {
                                    first_divergent_vertex(ra, rb)
                                } else {
                                    None
                                },
                            });
                        }
                    }
                    if values && ra.pubs != rb.pubs {
                        return Some(Divergence {
                            superstep: ra.superstep,
                            worker: ra.worker,
                            counter: "publication_digest",
                            a: format!("{} pubs", ra.pubs.len()),
                            b: format!("{} pubs", rb.pubs.len()),
                            vertex: first_divergent_vertex(ra, rb),
                        });
                    }
                    ia.next();
                    ib.next();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec::flat(1, 2)
    }

    fn committed(sink: &TraceSink, w: usize, superstep: usize) {
        let t = sink.worker(w);
        t.add_computed(10 + w as u64);
        t.add_activated(5);
        t.add_drained(3);
        t.add_sent(4, 48);
        let mut agg = AggregateStats::default();
        agg.add(0.25 * (w + 1) as f64);
        t.set_thread_agg(0, agg);
        t.commit(superstep, w, 12, &PhaseTimes::default(), superstep == 2);
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let mut sink = TraceSink::with_values("cyclops", &spec());
        for s in 0..3 {
            for w in 0..2 {
                sink.worker(w)
                    .record_publication(7 + w as u32, 0xdead + s as u64);
                committed(&sink, w, s);
            }
        }
        let path = std::env::temp_dir().join("cyclops-trace-roundtrip.jsonl");
        let path = path.to_str().unwrap().to_string();
        // take_records consumes; serialize a clone through a second sink run.
        let mut sink2 = TraceSink::with_values("cyclops", &spec());
        for s in 0..3 {
            for w in 0..2 {
                sink2
                    .worker(w)
                    .record_publication(7 + w as u32, 0xdead + s as u64);
                committed(&sink2, w, s);
            }
        }
        let records = sink.take_records();
        sink2.write_jsonl(&path).unwrap();
        let loaded = read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.meta.engine, "cyclops");
        assert_eq!(loaded.meta.workers, 2);
        assert!(loaded.meta.values);
        assert_eq!(loaded.records, records);
        assert_eq!(loaded.supersteps(), 3);
        assert!(loaded.records.iter().any(|r| r.checkpoint));
    }

    #[test]
    fn accumulators_reset_between_commits() {
        let sink = TraceSink::new("bsp", &spec());
        sink.worker(0).add_computed(5);
        sink.worker(0)
            .commit(0, 0, 5, &PhaseTimes::default(), false);
        sink.worker(0)
            .commit(1, 0, 0, &PhaseTimes::default(), false);
        let mut sink = sink;
        let records = sink.take_records();
        assert_eq!(records[0].computed, 5);
        assert_eq!(records[1].computed, 0);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut sink = TraceSink::build("gas", &spec(), false, 2);
        for s in 0..5 {
            sink.worker(0)
                .commit(s, 0, 0, &PhaseTimes::default(), false);
        }
        assert_eq!(sink.dropped_records(), 3);
        let records = sink.take_records();
        let steps: Vec<u64> = records.iter().map(|r| r.superstep).collect();
        assert_eq!(steps, vec![3, 4]);
    }

    #[test]
    fn thread_aggs_reduce_in_thread_order() {
        let spec = ClusterSpec::mt(1, 3, 1);
        let sink = TraceSink::new("cyclops", &spec);
        for t in 0..3 {
            let mut a = AggregateStats::default();
            a.add(t as f64 + 1.0);
            sink.worker(0).set_thread_agg(t, a);
        }
        sink.worker(0)
            .commit(0, 0, 0, &PhaseTimes::default(), false);
        let mut sink = sink;
        let agg = sink.take_records()[0].agg.unwrap();
        assert_eq!(agg.sum, 6.0);
        assert_eq!(agg.count, 3);
        assert_eq!(agg.min, 1.0);
        assert_eq!(agg.max, 3.0);
    }

    #[test]
    fn diff_reports_first_divergent_counter() {
        let base = RunTrace {
            meta: TraceMeta::default(),
            spans: Vec::new(),
            mem: Vec::new(),
            records: vec![
                TraceRecord {
                    superstep: 0,
                    worker: 0,
                    computed: 10,
                    ..Default::default()
                },
                TraceRecord {
                    superstep: 1,
                    worker: 0,
                    computed: 8,
                    ..Default::default()
                },
            ],
        };
        let mut other = base.clone();
        other.records[1].computed = 9;
        let d = diff::first_divergence(&base, &other, false).unwrap();
        assert_eq!(d.superstep, 1);
        assert_eq!(d.worker, 0);
        assert_eq!(d.counter, "computed");
        assert_eq!((d.a.as_str(), d.b.as_str()), ("8", "9"));
        assert_eq!(diff::first_divergence(&base, &base.clone(), false), None);
    }

    #[test]
    fn diff_reports_first_divergent_vertex_in_values_mode() {
        let mk = |digest: u64| RunTrace {
            meta: TraceMeta::default(),
            spans: Vec::new(),
            mem: Vec::new(),
            records: vec![TraceRecord {
                superstep: 4,
                worker: 1,
                pubs: vec![(2, 11), (5, digest), (9, 33)],
                ..Default::default()
            }],
        };
        let d = diff::first_divergence(&mk(22), &mk(99), true).unwrap();
        assert_eq!(d.superstep, 4);
        assert_eq!(d.worker, 1);
        assert_eq!(d.counter, "publication_digest");
        assert_eq!(d.vertex, Some(5));
        // Without values mode the digests are ignored.
        assert_eq!(diff::first_divergence(&mk(22), &mk(99), false), None);
    }

    #[test]
    fn direct_fields_round_trip_and_values_only_diff_skips_traffic() {
        // Nonzero direct counters survive JSONL; zero ones are omitted so
        // threshold-0 lines stay byte-identical to pre-hybrid traces.
        let mut r = TraceRecord {
            superstep: 2,
            worker: 1,
            direct_messages: 7,
            direct_bytes: 120,
            ..Default::default()
        };
        let mut line = String::new();
        r.to_json(&mut line);
        assert!(line.contains("\"direct_messages\":7"));
        assert!(line.contains("\"direct_bytes\":120"));
        assert_eq!(parse_record_line(&line), Some(r.clone()));
        r.direct_messages = 0;
        r.direct_bytes = 0;
        line.clear();
        r.to_json(&mut line);
        assert!(!line.contains("direct_"));

        // Full diff flags a direct-counter difference; the values-only
        // diff (and digest compare) sees the runs as equivalent.
        let mk = |dm: u64, db: u64, bytes: u64| RunTrace {
            meta: TraceMeta::default(),
            spans: Vec::new(),
            mem: Vec::new(),
            records: vec![TraceRecord {
                superstep: 0,
                worker: 0,
                computed: 5,
                messages: 9,
                bytes,
                direct_messages: dm,
                direct_bytes: db,
                pubs: vec![(1, 42), (3, 7)],
                ..Default::default()
            }],
        };
        let a = mk(0, 0, 200);
        let b = mk(4, 64, 150);
        let d = diff::first_divergence(&a, &b, true).unwrap();
        assert_eq!(d.counter, "bytes");
        assert_eq!(diff::first_value_divergence(&a, &b), None);
        // ...but a real value divergence is still caught.
        let mut c = b.clone();
        c.records[0].pubs[1] = (3, 8);
        let d = diff::first_value_divergence(&a, &c).unwrap();
        assert_eq!(d.counter, "publication_digest");
        assert_eq!(d.vertex, Some(3));
        let mut e = b.clone();
        e.records[0].computed = 6;
        assert_eq!(
            diff::first_value_divergence(&a, &e).unwrap().counter,
            "computed"
        );
    }

    #[test]
    fn migrated_field_round_trips_and_values_only_diff_aggregates_workers() {
        // Nonzero `migrated` survives JSONL; zero is omitted so
        // migration-off lines stay byte-identical to pre-migration traces.
        let mut r = TraceRecord {
            superstep: 3,
            worker: 0,
            migrated: 2,
            ..Default::default()
        };
        let mut line = String::new();
        r.to_json(&mut line);
        assert!(line.contains("\"migrated\":2"));
        assert_eq!(parse_record_line(&line), Some(r.clone()));
        r.migrated = 0;
        line.clear();
        r.to_json(&mut line);
        assert!(!line.contains("migrated"));

        // Migration shifts a vertex's compute (and its publication digest)
        // between workers mid-run. The full diff flags the per-worker
        // shift; the values-only diff aggregates per superstep across
        // workers and sees the runs as equivalent.
        let mk = |on_worker_one: bool| {
            let rec = |worker, computed, pubs: Vec<(u32, u64)>| TraceRecord {
                superstep: 0,
                worker,
                frontier: 4,
                computed,
                activated: computed,
                pubs,
                ..Default::default()
            };
            RunTrace {
                meta: TraceMeta::default(),
                spans: Vec::new(),
                mem: Vec::new(),
                records: if on_worker_one {
                    vec![rec(0, 2, vec![(1, 10)]), rec(1, 3, vec![(5, 50), (7, 70)])]
                } else {
                    vec![rec(0, 3, vec![(1, 10), (7, 70)]), rec(1, 2, vec![(5, 50)])]
                },
            }
        };
        let a = mk(true);
        let b = mk(false);
        assert_eq!(
            diff::first_divergence(&a, &b, true).unwrap().counter,
            "computed"
        );
        assert_eq!(diff::first_value_divergence(&a, &b), None);
        // A digest changed anywhere still diverges after aggregation.
        let mut c = b.clone();
        c.records[1].pubs[0] = (5, 51);
        let d = diff::first_value_divergence(&a, &c).unwrap();
        assert_eq!(d.counter, "publication_digest");
        assert_eq!(d.vertex, Some(5));
        // `activated` is local-only visibility: a boundary activation
        // that goes remote after migration drops out of the sender's
        // count without any computation change, so even the superstep
        // total shifts with ownership. The values-only diff skips it;
        // the full diff still flags it.
        let mut e = b.clone();
        e.records[0].activated = 2;
        assert_eq!(diff::first_value_divergence(&a, &e), None);
        assert_eq!(
            diff::first_divergence(&a, &e, false).unwrap().counter,
            "computed"
        );
        let mut f = b.clone();
        f.records[0].computed = 2;
        f.records[0].activated = 1;
        f.records[1].computed = 3;
        f.records[1].activated = 3;
        assert_eq!(
            diff::first_divergence(&a, &f, false).unwrap().counter,
            "activated"
        );
    }

    #[test]
    fn diff_reports_superstep_count_mismatch() {
        let r = |s| TraceRecord {
            superstep: s,
            worker: 0,
            ..Default::default()
        };
        let a = RunTrace {
            meta: TraceMeta::default(),
            spans: Vec::new(),
            mem: Vec::new(),
            records: vec![r(0), r(1)],
        };
        let b = RunTrace {
            meta: TraceMeta::default(),
            spans: Vec::new(),
            mem: Vec::new(),
            records: vec![r(0)],
        };
        let d = diff::first_divergence(&a, &b, false).unwrap();
        assert_eq!(d.counter, "supersteps");
        assert_eq!((d.a.as_str(), d.b.as_str()), ("2", "1"));
    }

    #[test]
    fn streaming_sink_appends_every_commit() {
        let path = std::env::temp_dir().join("cyclops-trace-streaming-basic.jsonl");
        let path = path.to_str().unwrap().to_string();
        let sink = TraceSink::streaming("cyclops", &spec(), &path).unwrap();
        assert!(sink.is_streaming());
        for s in 0..10 {
            for w in 0..2 {
                committed(&sink, w, s);
            }
        }
        assert_eq!(sink.dropped_records(), 0);
        let summary = sink.finish().unwrap();
        assert_eq!(summary.records_written, 20);
        let loaded = read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.meta.engine, "cyclops");
        assert_eq!(loaded.records.len(), 20);
        assert_eq!(loaded.supersteps(), 10);
        // Streaming preserves the same record contents a buffered sink sees.
        assert_eq!(loaded.records[3].computed, 11);
    }

    #[test]
    fn streaming_backpressure_defers_but_never_drops() {
        let path = std::env::temp_dir().join("cyclops-trace-streaming-bp.jsonl");
        let path = path.to_str().unwrap().to_string();
        // A 1-slot channel makes commit bursts outpace the writer.
        let sink = TraceSink::streaming_with_channel_capacity("bsp", &spec(), &path, 1).unwrap();
        let n = 5000;
        for s in 0..n {
            for w in 0..2 {
                committed(&sink, w, s);
            }
        }
        let summary = sink.finish().unwrap();
        assert_eq!(summary.records_written, 2 * n as u64);
        let loaded = read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.records.len(), 2 * n);
        // Every (superstep, worker) pair appears exactly once.
        for (i, r) in loaded.records.iter().enumerate() {
            assert_eq!(r.superstep as usize, i / 2);
            assert_eq!(r.worker as usize, i % 2);
        }
    }

    #[test]
    fn write_jsonl_rejects_streaming_sinks() {
        let path = std::env::temp_dir().join("cyclops-trace-streaming-guard.jsonl");
        let path = path.to_str().unwrap().to_string();
        let mut sink = TraceSink::streaming("gas", &spec(), &path).unwrap();
        let err = sink.write_jsonl(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        let _ = sink.finish().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_helpers_read_sink_output_line_by_line() {
        let mut line = String::new();
        let r = TraceRecord {
            superstep: 3,
            worker: 1,
            computed: 7,
            pubs: vec![(4, 99)],
            ..Default::default()
        };
        r.to_json(&mut line);
        assert_eq!(parse_record_line(&line), Some(r));
        assert_eq!(parse_record_line("not json"), None);
        let mut header = Vec::new();
        let meta = TraceMeta {
            engine: "bsp".into(),
            cluster: "1x2x1".into(),
            workers: 2,
            values: false,
        };
        write_header(&mut header, &meta).unwrap();
        let parsed = parse_meta_line(std::str::from_utf8(&header).unwrap().trim()).unwrap();
        assert_eq!(parsed, meta);
    }

    #[test]
    fn hot_sketches_merge_in_thread_order_and_round_trip() {
        let spec = ClusterSpec::mt(1, 2, 1);
        let sink = TraceSink::new("cyclops", &spec).with_hot_k(3);
        assert_eq!(sink.hot_k(), 3);
        let mut t0 = SpaceSaving::new(3);
        t0.record(10, 100);
        t0.record(11, 5);
        let mut t1 = SpaceSaving::new(3);
        t1.record(20, 70);
        t1.record(10, 30);
        sink.worker(0).set_thread_hot(0, &t0);
        sink.worker(0).set_thread_hot(1, &t1);
        sink.worker(0)
            .commit(0, 0, 0, &PhaseTimes::default(), false);
        // Slots reset between supersteps.
        sink.worker(0)
            .commit(1, 0, 0, &PhaseTimes::default(), false);
        let mut sink = sink;
        let records = sink.take_records();
        assert_eq!(records[0].hot, vec![(10, 130), (20, 70), (11, 5)]);
        assert!(records[1].hot.is_empty());
        // JSONL round-trip preserves the hot list.
        let mut line = String::new();
        records[0].to_json(&mut line);
        assert_eq!(parse_record_line(&line).unwrap(), records[0]);
    }

    #[test]
    fn hot_capture_disabled_by_default() {
        let sink = TraceSink::new("bsp", &spec());
        assert_eq!(sink.hot_k(), 0);
        let mut s = SpaceSaving::new(4);
        s.record(1, 1);
        // set_thread_hot without with_hot_k is a no-op, not a panic.
        sink.worker(0).set_thread_hot(0, &s);
        sink.worker(0)
            .commit(0, 0, 0, &PhaseTimes::default(), false);
        let mut sink = sink;
        assert!(sink.take_records()[0].hot.is_empty());
    }

    #[test]
    fn fast_path_and_wire_mode_fields_round_trip_but_never_diff() {
        let sink = TraceSink::new("cyclops", &spec());
        sink.worker(0).mark_sparse_fast_path();
        sink.worker(0).add_wire_batches(3, 2);
        sink.worker(0)
            .commit(0, 0, 4, &PhaseTimes::default(), false);
        // Flags reset at commit, like the counters.
        sink.worker(0)
            .commit(1, 0, 0, &PhaseTimes::default(), false);
        let mut sink = sink;
        let records = sink.take_records();
        assert!(records[0].sparse_fast_path);
        assert_eq!(records[0].wire_dense, 3);
        assert_eq!(records[0].wire_sparse, 2);
        assert!(!records[1].sparse_fast_path);
        assert_eq!(records[1].wire_dense, 0);
        let mut line = String::new();
        records[0].to_json(&mut line);
        assert!(line.contains("\"sparse_fast_path\":true"));
        assert_eq!(parse_record_line(&line), Some(records[0].clone()));
        // A record without the new fields omits them entirely (old readers
        // keep working) and parses back with defaults.
        let mut plain = String::new();
        records[1].to_json(&mut plain);
        assert!(!plain.contains("sparse_fast_path"));
        assert!(!plain.contains("wire_"));
        assert_eq!(parse_record_line(&plain), Some(records[1].clone()));
        // diff must treat fast-path and legacy-path runs of the same
        // workload as identical: the fields are schedule, not results.
        let mk = |fast: bool, dense: u64| RunTrace {
            meta: TraceMeta::default(),
            spans: Vec::new(),
            mem: Vec::new(),
            records: vec![TraceRecord {
                superstep: 0,
                worker: 0,
                computed: 5,
                sparse_fast_path: fast,
                wire_dense: dense,
                ..Default::default()
            }],
        };
        assert_eq!(
            diff::first_divergence(&mk(true, 7), &mk(false, 0), true),
            None
        );
    }

    #[test]
    fn bucket_fields_round_trip_and_are_diffed() {
        let sink = TraceSink::new("cyclops", &spec());
        sink.worker(0).set_bucket(7, 12, 40);
        sink.worker(0)
            .commit(0, 0, 40, &PhaseTimes::default(), false);
        // Reset at commit, like the counters.
        sink.worker(0)
            .commit(1, 0, 0, &PhaseTimes::default(), false);
        let mut sink = sink;
        let records = sink.take_records();
        assert_eq!(records[0].bucket, 7);
        assert_eq!(records[0].fused, 12);
        assert_eq!(records[0].bucket_occupancy, 40);
        assert_eq!(records[1].fused, 0);
        let mut line = String::new();
        records[0].to_json(&mut line);
        assert!(line.contains("\"fused\":12"));
        assert_eq!(parse_record_line(&line), Some(records[0].clone()));
        // Bucket-off records omit the fields entirely, so pre-bucketing
        // traces stay byte-identical and parse back with defaults.
        let mut plain = String::new();
        records[1].to_json(&mut plain);
        assert!(!plain.contains("fused"));
        assert!(!plain.contains("bucket"));
        assert_eq!(parse_record_line(&plain), Some(records[1].clone()));
        // Unlike the fast-path flag, bucket accounting is part of the
        // deterministic-mode contract: trace-diff must flag a fused-round
        // divergence.
        let mk = |fused: u64| RunTrace {
            meta: TraceMeta::default(),
            spans: Vec::new(),
            mem: Vec::new(),
            records: vec![TraceRecord {
                superstep: 0,
                worker: 0,
                fused,
                bucket: 1,
                ..Default::default()
            }],
        };
        let d = diff::first_divergence(&mk(3), &mk(4), false).unwrap();
        assert_eq!(d.counter, "fused");
        assert_eq!(diff::first_divergence(&mk(3), &mk(3), false), None);
    }

    #[test]
    fn comm_matrix_rows_round_trip_and_are_diffed() {
        let sink = TraceSink::new("cyclops", &spec());
        // Worker 0 sends to both workers; wire batches only cross-machine.
        sink.worker(0).add_sent_to(0, 5, 0);
        sink.worker(0).add_sent_to(1, 3, 120);
        sink.worker(0).add_wire_batches_to(1, 1, 2);
        sink.worker(0)
            .commit(0, 0, 8, &PhaseTimes::default(), false);
        // Rows reset at commit, like the counters.
        sink.worker(0)
            .commit(1, 0, 0, &PhaseTimes::default(), false);
        let mut sink = sink;
        let records = sink.take_records();
        assert_eq!(
            records[0].comm,
            vec![
                CommEntry {
                    dst: 0,
                    messages: 5,
                    bytes: 0,
                    wire_dense: 0,
                    wire_sparse: 0,
                },
                CommEntry {
                    dst: 1,
                    messages: 3,
                    bytes: 120,
                    wire_dense: 1,
                    wire_sparse: 2,
                },
            ]
        );
        // Row sums equal the totals: the consistency contract.
        assert_eq!(records[0].messages, 8);
        assert_eq!(records[0].bytes, 120);
        assert!(records[0].comm_consistent());
        assert!(records[1].comm.is_empty());
        let mut line = String::new();
        records[0].to_json(&mut line);
        assert!(line.contains("\"comm\":[[0,5,0,0,0],[1,3,120,1,2]]"));
        assert_eq!(parse_record_line(&line), Some(records[0].clone()));
        // Matrix-off records omit the field entirely, so pre-matrix traces
        // stay byte-identical and parse back with defaults.
        let mut plain = String::new();
        records[1].to_json(&mut plain);
        assert!(!plain.contains("comm"));
        assert_eq!(parse_record_line(&plain), Some(records[1].clone()));
        // The (dst, messages, bytes) portion is part of the determinism
        // contract: trace-diff must flag a divergent row...
        let mk = |bytes: u64, dense: u64| RunTrace {
            meta: TraceMeta::default(),
            spans: Vec::new(),
            mem: Vec::new(),
            records: vec![TraceRecord {
                superstep: 0,
                worker: 0,
                messages: 3,
                bytes,
                comm: vec![CommEntry {
                    dst: 1,
                    messages: 3,
                    bytes,
                    wire_dense: dense,
                    wire_sparse: 0,
                }],
                ..Default::default()
            }],
        };
        let d = diff::first_divergence(&mk(10, 0), &mk(11, 0), false).unwrap();
        assert_eq!(d.counter, "bytes", "totals diverge first, by report order");
        let mut a = mk(10, 0);
        a.records[0].comm[0].messages = 2;
        a.records[0].comm.push(CommEntry {
            dst: 0,
            messages: 1,
            ..Default::default()
        });
        let d = diff::first_divergence(&a, &mk(10, 0), false).unwrap();
        assert_eq!(d.counter, "comm");
        // ...while per-pair wire-mode counts never diff (diagnostic, like
        // the record-level wire counters).
        assert_eq!(diff::first_divergence(&mk(10, 4), &mk(10, 0), false), None);
    }

    #[test]
    fn comm_consistency_detects_missing_attribution() {
        let mut r = TraceRecord {
            messages: 10,
            bytes: 50,
            comm: vec![CommEntry {
                dst: 2,
                messages: 10,
                bytes: 50,
                ..Default::default()
            }],
            ..Default::default()
        };
        assert!(r.comm_consistent());
        r.messages = 11; // one send bypassed add_sent_to
        assert!(!r.comm_consistent());
        // Legacy records (no matrix) are trivially consistent.
        r.comm.clear();
        assert!(r.comm_consistent());
    }

    #[test]
    fn span_lines_round_trip_and_load_beside_records() {
        let span = SpanRecord {
            worker: 1,
            thread: 2,
            kind: SpanKind::Flush,
            start_ns: 1000,
            dur_ns: 250,
            a: 3,
            b: 4096,
            c: 2,
        };
        let mut line = String::new();
        span.to_json(&mut line);
        assert_eq!(
            line,
            "{\"span\":\"flush\",\"worker\":1,\"thread\":2,\"start_ns\":1000,\
             \"dur_ns\":250,\"a\":3,\"b\":4096,\"c\":2}"
        );
        assert_eq!(parse_span_line(&line), Some(span));
        assert_eq!(parse_span_line("{\"span\":\"nope\"}"), None);
        // A trace file with spans appended after the records loads both.
        let path = std::env::temp_dir().join("cyclops-trace-spans.jsonl");
        let path = path.to_str().unwrap().to_string();
        let mut sink = TraceSink::new("cyclops", &spec());
        committed(&sink, 0, 0);
        sink.write_jsonl(&path).unwrap();
        let fr = cyclops_obs::FlightRecorder::new(8);
        let ring = fr.ring(0, 0);
        let t0 = ring.now_ns();
        ring.record(SpanKind::Parse, t0, 0, 0, 0);
        ring.record(SpanKind::Barrier, ring.now_ns(), 0, 0, 0);
        let dump = fr.drain();
        assert_eq!(append_spans_jsonl(&path, &dump.spans).unwrap(), 2);
        let loaded = read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.spans.len(), 2);
        assert_eq!(loaded.spans[0].kind, SpanKind::Parse);
        assert_eq!(loaded.spans[1].kind, SpanKind::Barrier);
        assert!(loaded.spans[0].start_ns <= loaded.spans[1].start_ns);
    }

    #[test]
    fn digest_is_stable() {
        assert_eq!(digest_bytes(b""), 0xcbf29ce484222325);
        assert_eq!(digest_bytes(b"cyclops"), digest_bytes(b"cyclops"));
        assert_ne!(digest_bytes(b"a"), digest_bytes(b"b"));
    }
}
