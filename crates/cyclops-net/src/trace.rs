//! Superstep-trace observability shared by all three engines.
//!
//! A [`TraceSink`] collects one [`TraceRecord`] per superstep × worker:
//! phase durations, frontier size, computed / activated / converged counts,
//! messages and bytes sent and drained, the worker's aggregate contribution,
//! and checkpoint captures. Each column has one feeder:
//!
//! * the worker leader passes what it has already reduced to
//!   [`WorkerTracer::commit`] — superstep, worker, frontier, computed,
//!   activated, converged_delta, direct_messages, checkpoint, the aggregate
//!   and the bucket / fused / occupancy triple;
//! * the worker's threads add what several of them feed at once into its
//!   [`WorkerTracer`] — drained (receivers), the comm row (senders),
//!   publication digests and hot sketches (compute threads) — in relaxed
//!   atomics and per-thread slots, so the hot path takes no lock outside
//!   values mode;
//! * the migration driver adds `migrated` between epochs;
//! * commit sets the phase columns from the leader's [`PhaseTimes`], and
//!   messages, bytes and wire batches as the comm row's sums.
//!
//! When no sink is installed, engines skip every trace call — the
//! observability layer costs nothing unless asked for.
//!
//! Every sink owns one unbounded record channel; a commit sends its record
//! on it, so a leader never blocks and no record is lost. A **memory** sink
//! ([`TraceSink::new`], [`TraceSink::with_values`]) keeps the receiver and
//! drains it in [`TraceSink::take_records`]. A **file** sink
//! ([`TraceSink::create`]) hands it to a writer thread that appends each
//! record as one JSON line, flushing whenever it catches up, so a live file
//! can be tailed mid-run (`cyclops top`). [`TraceSink::finish`] is the one
//! close: it drops every sender, joins the writer, and appends the
//! flight-recorder spans and memory samples. Dropping an unfinished file
//! sink runs the same close, best-effort, so a panicking run still leaves
//! the supersteps that explain it.
//!
//! Every line of a trace file is one [`TraceLine`] — the header, a record,
//! a flight span or a memory sample — written by its `to_json` and read
//! back by [`TraceLine::parse`] (hand-written; no external dependencies);
//! [`read_jsonl`] loads a whole file. The [`diff`] module compares two runs
//! and reports the first divergent superstep, worker, and counter — and,
//! when publication digests were captured, the first divergent vertex —
//! which is how a nondeterministic run is root-caused to the superstep
//! where it forked.

use crate::cluster::ClusterSpec;
use crate::metrics::{AggregateStats, HotObs, PhaseTimes};
pub use cyclops_obs::SpaceSaving;
pub use cyclops_obs::{FlightSpan, MemSample, SpanKind};
use parking_lot::Mutex;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// One superstep on one worker.
///
/// Every column has a writer in some engine. A JSONL line is read by key,
/// so a column an older trace carries and no run writes any more (the
/// fast-path flag, the direct messages' own wire bytes) is skipped on load.
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
    /// Cross-machine batches this worker sent in the dense wire mode.
    /// Deterministic for a deterministic schedule, but excluded from
    /// [`diff`] so adaptive-encoding runs stay comparable with legacy runs.
    pub wire_dense: u64,
    /// Cross-machine batches this worker sent in the sparse wire mode.
    pub wire_sparse: u64,
    /// Direct messages this worker sent during SND under hybrid
    /// replication (cold boundary masters messaging instead of syncing a
    /// replica). A subset of `messages`; 0 on full-replication runs — the
    /// field is then omitted from JSONL, keeping threshold-0 traces
    /// byte-identical to pre-hybrid ones. Deterministic for a given
    /// threshold and compared by [`diff`]; runs at *different* thresholds
    /// compare with [`diff::first_value_divergence`], which skips every
    /// traffic counter.
    pub direct_messages: u64,
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
    /// This worker's aggregate contribution, as its worker leader reduced it
    /// (in a fixed order, so deterministic).
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
    /// traces). Commit writes the `messages` / `bytes` / wire totals as the
    /// row sums; [`TraceRecord::comm_consistent`] checks a loaded trace
    /// still agrees. The `(dst, messages, bytes)` portion is deterministic
    /// across thread counts and compared by [`diff`]; the per-pair wire-mode
    /// counts are diagnostic, excluded like `wire_dense` / `wire_sparse`.
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

/// Per-worker trace accumulator: the columns several threads of the worker
/// feed at once (receivers drain, every thread sends, publishes and
/// sketches), in relaxed atomics and per-thread slots, plus the migration
/// driver's count between epochs. What the worker leader reduces itself it
/// hands to [`WorkerTracer::commit`], which sends the record to the sink.
pub struct WorkerTracer {
    drained: AtomicU64,
    /// Masters migrated onto this worker at the preceding epoch boundary.
    migrated: AtomicU64,
    /// Per-destination traffic accumulators (the communication matrix row),
    /// one slot per worker in the cluster and the only count of sent
    /// traffic. Relaxed atomics like the rest: threads of the worker
    /// attribute sends concurrently, the leader drains at commit.
    comm: Vec<CommCell>,
    /// Publication digests for the current superstep (values mode only;
    /// a short lock per publishing thread, acceptable for a diagnostic
    /// mode that already pays for hashing every publication).
    pubs: Mutex<Vec<(u32, u64)>>,
    /// Compute threads of the worker: the hot-sketch slot count.
    threads: usize,
    /// Per-thread hot-vertex sketches for the current superstep, merged in
    /// thread order at commit, so the merge order is deterministic. Empty
    /// unless [`TraceSink::with_hot_k`] enabled it.
    thread_hot: Vec<Mutex<SpaceSaving>>,
    /// Sketch capacity; 0 disables hot-vertex capture.
    hot_k: usize,
    /// Resolved gauges for live hot-vertex exposition (None without a
    /// global registry).
    hot_obs: Option<HotObs>,
    /// This tracer's end of the sink's record channel; the worker leader
    /// sends once per commit.
    tx: Sender<TraceRecord>,
}

impl WorkerTracer {
    fn new(threads: usize, workers: usize, tx: Sender<TraceRecord>) -> Self {
        WorkerTracer {
            drained: AtomicU64::new(0),
            migrated: AtomicU64::new(0),
            comm: (0..workers).map(|_| CommCell::default()).collect(),
            pubs: Mutex::new(Vec::new()),
            threads: threads.max(1),
            thread_hot: Vec::new(),
            hot_k: 0,
            hot_obs: None,
            tx,
        }
    }

    /// Adds messages drained by the calling receiver thread.
    #[inline]
    pub fn add_drained(&self, n: u64) {
        self.drained.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds messages/bytes sent by the calling thread to worker `dst`, in
    /// this worker's communication-matrix row; commit sums the row into the
    /// record's totals.
    #[inline]
    pub fn add_sent_to(&self, dst: usize, messages: u64, bytes: u64) {
        let cell = &self.comm[dst];
        cell.messages.fetch_add(messages, Ordering::Relaxed);
        cell.bytes.fetch_add(bytes, Ordering::Relaxed);
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

    /// Adds cross-machine batches sent to worker `dst` in the dense / sparse
    /// wire modes by the calling thread, in this worker's
    /// communication-matrix row.
    #[inline]
    pub fn add_wire_batches_to(&self, dst: usize, dense: u64, sparse: u64) {
        let cell = &self.comm[dst];
        if dense > 0 {
            cell.wire_dense.fetch_add(dense, Ordering::Relaxed);
        }
        if sparse > 0 {
            cell.wire_sparse.fetch_add(sparse, Ordering::Relaxed);
        }
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

    /// Sends one superstep's record to the sink and resets the
    /// accumulators. `record` carries what the worker leader reduced itself —
    /// superstep, worker, frontier, computed, activated, converged_delta,
    /// direct_messages, checkpoint, agg and, on a bucketed superstep, the
    /// bucket / fused / occupancy triple; commit sets the phase columns from
    /// `times`, every column this tracer accumulated, and the traffic totals
    /// as the comm row's sums. Called once per worker and superstep, by the
    /// worker leader, after this worker's threads have fed their counts.
    pub fn commit(&self, times: &PhaseTimes, record: TraceRecord) {
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
        let sum = |f: fn(&CommEntry) -> u64| comm.iter().map(f).sum();
        let record = TraceRecord {
            parse_ns: times.parse.as_nanos() as u64,
            compute_ns: times.compute.as_nanos() as u64,
            send_ns: times.send.as_nanos() as u64,
            sync_ns: times.sync.as_nanos() as u64,
            drained: self.drained.swap(0, Ordering::Relaxed),
            messages: sum(|e| e.messages),
            bytes: sum(|e| e.bytes),
            wire_dense: sum(|e| e.wire_dense),
            wire_sparse: sum(|e| e.wire_sparse),
            migrated: self.migrated.swap(0, Ordering::Relaxed),
            pubs,
            hot,
            comm,
            ..record
        };
        // Fails only when a file sink's writer died on an I/O error, which
        // the close surfaces.
        let _ = self.tx.send(record);
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

impl TraceMeta {
    /// Appends the header as a single JSON object (no trailing newline).
    pub fn to_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"engine\":\"{}\",\"cluster\":\"{}\",\"workers\":{},\"values\":{}}}",
            self.engine, self.cluster, self.workers, self.values
        );
    }
}

/// What closing a file sink with [`TraceSink::finish`] wrote.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Records the writer thread appended to the file.
    pub records_written: u64,
    /// Flight-recorder spans appended after the records (0 without an
    /// installed recorder).
    pub spans: u64,
    /// Spans the flight recorder lost to ring wraparound during the run.
    pub spans_dropped: u64,
    /// Memory samples appended after the spans (0 unless the tracking
    /// allocator was armed).
    pub mem_samples: u64,
}

/// A file sink's writer thread: it hands the file back once every sender
/// is gone, for the close to append spans and samples to.
type Writer = JoinHandle<io::Result<(u64, BufWriter<File>)>>;

/// Shared trace collector for one engine run.
pub struct TraceSink {
    meta: TraceMeta,
    hot_k: usize,
    workers: Vec<WorkerTracer>,
    /// A memory sink's end of the record channel (a file sink's writer
    /// thread owns it instead).
    kept: Option<Mutex<Receiver<TraceRecord>>>,
    /// `Some` on a file sink until its close.
    writer: Option<Writer>,
}

impl TraceSink {
    /// A memory sink for `engine` on `spec`, counters only.
    pub fn new(engine: &str, spec: &ClusterSpec) -> Self {
        Self::memory(engine, spec, false)
    }

    /// A memory sink that additionally captures per-publication value
    /// digests — heavier (hashes every publication, locks a per-worker vec)
    /// but lets [`diff`] name the first divergent vertex.
    pub fn with_values(engine: &str, spec: &ClusterSpec) -> Self {
        Self::memory(engine, spec, true)
    }

    fn memory(engine: &str, spec: &ClusterSpec, values: bool) -> Self {
        let (mut sink, rx) = Self::build(engine, spec, values);
        sink.kept = Some(Mutex::new(rx));
        sink
    }

    /// A file sink: truncates `path`, writes the header line, and appends
    /// each record as the run commits it; `values` captures publication
    /// digests as [`TraceSink::with_values`] does. Close it with
    /// [`TraceSink::finish`].
    pub fn create(engine: &str, spec: &ClusterSpec, path: &str, values: bool) -> io::Result<Self> {
        let (mut sink, rx) = Self::build(engine, spec, values);
        let mut f = BufWriter::new(File::create(path)?);
        let header = TraceLine::Meta(sink.meta.clone());
        write_line(&mut f, &mut String::new(), &header)?;
        f.flush()?;
        sink.writer = Some(
            std::thread::Builder::new()
                .name("cyclops-trace-writer".to_string())
                .spawn(move || write_records(rx, f))?,
        );
        Ok(sink)
    }

    /// A sink with no receiver attached yet, and its record channel's
    /// receiving end.
    fn build(engine: &str, spec: &ClusterSpec, values: bool) -> (Self, Receiver<TraceRecord>) {
        let workers = spec.num_workers();
        let (tx, rx) = channel();
        let sink = TraceSink {
            meta: TraceMeta {
                engine: engine.to_string(),
                cluster: spec.label(),
                workers: workers as u64,
                values,
            },
            hot_k: 0,
            workers: (0..workers)
                .map(|_| WorkerTracer::new(spec.threads_per_worker, workers, tx.clone()))
                .collect(),
            kept: None,
            writer: None,
        };
        (sink, rx)
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
            tracer.thread_hot = (0..tracer.threads)
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

    /// Closes a file sink after the run's threads have joined: drops every
    /// tracer's sender, joins the writer thread, then appends the
    /// flight-recorder spans and memory samples the run collected. A memory
    /// sink has no file to close: `InvalidInput` (read its records with
    /// [`TraceSink::take_records`]).
    pub fn finish(mut self) -> io::Result<StreamSummary> {
        self.close()
    }

    /// The one close, shared by [`TraceSink::finish`] and `Drop`.
    fn close(&mut self) -> io::Result<StreamSummary> {
        let Some(writer) = self.writer.take() else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "finish() on a memory TraceSink; read its records with take_records()",
            ));
        };
        // The writer drains the channel until every sender is gone.
        self.workers.clear();
        let (records_written, mut f) = writer
            .join()
            .map_err(|_| io::Error::other("trace writer thread panicked"))??;
        // Every flight ring and every barrier sample is complete now that
        // the run's threads have joined.
        let mut line = String::with_capacity(256);
        let mut summary = StreamSummary {
            records_written,
            ..StreamSummary::default()
        };
        if let Some(fr) = cyclops_obs::flight() {
            let dump = fr.drain();
            summary.spans = dump.spans.len() as u64;
            summary.spans_dropped = dump.dropped;
            for s in dump.spans {
                write_line(&mut f, &mut line, &TraceLine::Span(s))?;
            }
        }
        for s in cyclops_obs::mem::take_samples() {
            write_line(&mut f, &mut line, &TraceLine::Mem(s))?;
            summary.mem_samples += 1;
        }
        f.flush()?;
        Ok(summary)
    }

    /// Whether publication digests should be recorded.
    #[inline]
    pub fn captures_values(&self) -> bool {
        self.meta.values
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

    /// Extracts a memory sink's records ordered by `(superstep, worker)`
    /// (empty on a file sink: its records are in the file). Requires
    /// `&mut self`: the run's threads must have finished.
    pub fn take_records(&mut self) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = match &mut self.kept {
            Some(rx) => rx.get_mut().try_iter().collect(),
            None => Vec::new(),
        };
        out.sort_by_key(|r| (r.superstep, r.worker));
        out
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        // A file sink dropped unfinished — a panic unwinding the run is the
        // case that matters — closes the same way, best-effort, so the
        // supersteps that would explain the crash reach the file.
        if self.writer.is_some() {
            let _ = self.close();
        }
    }
}

/// Appends `line` to `f` as one JSONL line, serialized through `buf`.
fn write_line(f: &mut impl Write, buf: &mut String, line: &TraceLine) -> io::Result<()> {
    buf.clear();
    line.to_json(buf);
    writeln!(f, "{buf}")
}

/// Body of a file sink's writer thread: append each record as one JSONL
/// line, flushing whenever the channel is momentarily drained so a live
/// tail (`cyclops top`) sees records promptly without paying one syscall
/// per record under load.
fn write_records(
    rx: Receiver<TraceRecord>,
    mut f: BufWriter<File>,
) -> io::Result<(u64, BufWriter<File>)> {
    let mut written = 0u64;
    let mut buf = String::with_capacity(256);
    while let Ok(first) = rx.recv() {
        for r in std::iter::once(first).chain(rx.try_iter()) {
            write_line(&mut f, &mut buf, &TraceLine::Record(r))?;
            written += 1;
        }
        f.flush()?;
    }
    Ok((written, f))
}

impl TraceRecord {
    /// Whether the communication-matrix row sums equal the record's
    /// `messages` / `bytes` totals. Trivially true when no matrix was
    /// recorded (older traces).
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
        // Later columns are written only when set, so older readers (and
        // older traces fed to trace-diff) keep working unchanged.
        if self.wire_dense > 0 {
            let _ = write!(out, ",\"wire_dense\":{}", self.wire_dense);
        }
        if self.wire_sparse > 0 {
            let _ = write!(out, ",\"wire_sparse\":{}", self.wire_sparse);
        }
        if self.direct_messages > 0 {
            let _ = write!(out, ",\"direct_messages\":{}", self.direct_messages);
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

/// Appends a flight-recorder span as a single JSON object (no trailing
/// newline). Span lines sit after the records, keyed by a leading `"span"`
/// field so record parsers and older traces are unaffected. Timestamps are
/// wall-clock and inherently nondeterministic — spans are never part of the
/// [`diff`] contract.
fn span_to_json(s: &FlightSpan, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"span\":\"{}\",\"worker\":{},\"thread\":{},\"start_ns\":{},\
         \"dur_ns\":{},\"a\":{},\"b\":{},\"c\":{}}}",
        s.kind.name(),
        s.worker,
        s.thread,
        s.start_ns,
        s.dur_ns,
        s.a,
        s.b,
        s.c
    );
}

/// Appends a memory sample as a single JSON object (no trailing newline).
fn mem_to_json(m: &MemSample, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"mem\":1,\"superstep\":{},\"worker\":{},\"live\":[",
        m.superstep, m.worker
    );
    for (i, v) in m.live.iter().enumerate() {
        let _ = write!(out, "{}{v}", if i > 0 { "," } else { "" });
    }
    out.push_str("],\"peak\":[");
    for (i, v) in m.peak.iter().enumerate() {
        let _ = write!(out, "{}{v}", if i > 0 { "," } else { "" });
    }
    let _ = write!(out, "],\"rss_kb\":{},\"hwm_kb\":{}}}", m.rss_kb, m.hwm_kb);
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

/// A loaded trace: metadata plus records ordered by `(superstep, worker)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunTrace {
    /// Run metadata from the header line.
    pub meta: TraceMeta,
    /// All records, ordered by `(superstep, worker)`.
    pub records: Vec<TraceRecord>,
    /// Flight-recorder spans, ordered by `(start_ns, worker, thread)`;
    /// empty unless the run recorded with `--flight`.
    pub spans: Vec<FlightSpan>,
    /// Memory samples, ordered by `(superstep, worker)`; empty unless the
    /// run recorded with `--mem`. Like spans, never part of [`diff`].
    pub mem: Vec<MemSample>,
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

/// One line of a JSONL trace file, by kind.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceLine {
    /// The header, always the first line.
    Meta(TraceMeta),
    /// One superstep on one worker.
    Record(TraceRecord),
    /// A flight-recorder span, appended after the records.
    Span(FlightSpan),
    /// A memory sample, appended after the spans. Byte counts are
    /// allocator-tracked and nondeterministic — never part of [`diff`].
    Mem(MemSample),
}

/// The first key of a JSON object line — `engine`, `superstep`, `span` or
/// `mem` on the lines this module writes.
fn leading_key(line: &str) -> Option<&str> {
    line.trim_start().strip_prefix("{\"")?.split('"').next()
}

impl TraceLine {
    /// Parses one line, dispatching on its leading key. `None` for a line
    /// of another kind or a malformed one; [`read_jsonl`] makes that an
    /// error, a live tail skips it.
    pub fn parse(line: &str) -> Option<TraceLine> {
        Some(match leading_key(line)? {
            "engine" => TraceLine::Meta(TraceMeta {
                engine: string_field(line, "engine")?,
                cluster: string_field(line, "cluster").unwrap_or_default(),
                workers: num(line, "workers")?,
                values: field(line, "values").is_some_and(|v| v.trim() == "true"),
            }),
            "superstep" => TraceLine::Record(parse_record(line)?),
            "span" => TraceLine::Span(FlightSpan {
                kind: SpanKind::parse(&string_field(line, "span")?)?,
                worker: num(line, "worker")?,
                thread: num(line, "thread")?,
                start_ns: num(line, "start_ns")?,
                dur_ns: num(line, "dur_ns")?,
                a: num(line, "a")?,
                b: num(line, "b")?,
                c: num(line, "c")?,
            }),
            "mem" => TraceLine::Mem(MemSample {
                superstep: num(line, "superstep")?,
                worker: num(line, "worker")?,
                live: parse_array(field(line, "live")?)?,
                peak: parse_array(field(line, "peak")?)?,
                rss_kb: num(line, "rss_kb").unwrap_or(0),
                hwm_kb: num(line, "hwm_kb").unwrap_or(0),
            }),
            _ => return None,
        })
    }

    /// Appends the line as a single JSON object (no trailing newline).
    pub fn to_json(&self, out: &mut String) {
        match self {
            TraceLine::Meta(m) => m.to_json(out),
            TraceLine::Record(r) => r.to_json(out),
            TraceLine::Span(s) => span_to_json(s, out),
            TraceLine::Mem(m) => mem_to_json(m, out),
        }
    }
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
        wire_dense: num(line, "wire_dense").unwrap_or(0),
        wire_sparse: num(line, "wire_sparse").unwrap_or(0),
        direct_messages: num(line, "direct_messages").unwrap_or(0),
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

/// Loads a trace file: the header, then records, spans and mem lines in
/// any order. Strict: a missing header or any later line that is not one
/// of the three is `InvalidData`, naming the path and the line.
pub fn read_jsonl(path: &str) -> io::Result<RunTrace> {
    let corrupt =
        |what: String| io::Error::new(io::ErrorKind::InvalidData, format!("{path}: {what}"));
    let mut lines = BufReader::new(File::open(path)?).lines();
    let header = lines
        .next()
        .ok_or_else(|| corrupt("empty trace".into()))??;
    let Some(TraceLine::Meta(meta)) = TraceLine::parse(&header) else {
        return Err(corrupt("bad trace header".into()));
    };
    let mut trace = RunTrace {
        meta,
        ..RunTrace::default()
    };
    for (i, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match TraceLine::parse(&line) {
            Some(TraceLine::Record(r)) => trace.records.push(r),
            Some(TraceLine::Span(s)) => trace.spans.push(s),
            Some(TraceLine::Mem(m)) => trace.mem.push(m),
            _ => {
                let what = match leading_key(&line) {
                    Some("span") => "span",
                    Some("mem") => "mem line",
                    _ => "record",
                };
                return Err(corrupt(format!("bad {what} on line {}", i + 2)));
            }
        }
    }
    trace.records.sort_by_key(|r| (r.superstep, r.worker));
    trace
        .spans
        .sort_by_key(|s| (s.start_ns, s.worker, s.thread));
    trace.mem.sort_by_key(|m| (m.superstep, m.worker));
    Ok(trace)
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
    /// compared: the settle drains each round in sorted order, which fixes
    /// the fused-round and occupancy counts across thread counts, and
    /// `trace-diff` is how that promise is checked. The
    /// communication matrix joins them — per-destination message/byte
    /// splits are a pure function of graph + partition — but only its
    /// `(dst, messages, bytes)` portion: per-pair wire-mode counts stay
    /// diagnostic, like `wire_dense`/`wire_sparse`. With `values_only`
    /// every traffic-, schedule-, and visibility-shaped counter
    /// (activated, drained, messages, bytes, direct_messages, migrated,
    /// bucket accounting, comm) is skipped: those legitimately differ
    /// between runs at different replication thresholds or migration
    /// settings, while the computation-shaped counters and the publication
    /// digests must not.
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

    /// What a worker leader hands to `commit`, with its ids and frontier
    /// set.
    fn leader(superstep: usize, worker: usize, frontier: usize) -> TraceRecord {
        TraceRecord {
            superstep: superstep as u64,
            worker: worker as u64,
            frontier: frontier as u64,
            ..Default::default()
        }
    }

    fn committed(sink: &TraceSink, w: usize, superstep: usize) {
        let t = sink.worker(w);
        t.add_drained(3);
        t.add_sent_to(1 - w, 4, 48);
        let mut agg = AggregateStats::default();
        agg.add(0.25 * (w + 1) as f64);
        let record = TraceRecord {
            computed: 10 + w as u64,
            activated: 5,
            checkpoint: superstep == 2,
            agg: Some(agg),
            ..leader(superstep, w, 12)
        };
        t.commit(&PhaseTimes::default(), record);
    }

    fn tmp(name: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("cyclops-trace-{}-{name}.jsonl", std::process::id()));
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let path = tmp("roundtrip");
        // The same commits into a memory sink and a file sink.
        let mut memory = TraceSink::with_values("cyclops", &spec());
        let file = TraceSink::create("cyclops", &spec(), &path, true).unwrap();
        for s in 0..3 {
            for w in 0..2 {
                for sink in [&memory, &file] {
                    sink.worker(w)
                        .record_publication(7 + w as u32, 0xdead + s as u64);
                    committed(sink, w, s);
                }
            }
        }
        let records = memory.take_records();
        assert_eq!(file.finish().unwrap().records_written, 6);
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
        sink.worker(0).add_drained(5);
        let record = TraceRecord {
            computed: 5,
            ..leader(0, 0, 5)
        };
        sink.worker(0).commit(&PhaseTimes::default(), record);
        sink.worker(0)
            .commit(&PhaseTimes::default(), leader(1, 0, 0));
        let mut sink = sink;
        let records = sink.take_records();
        assert_eq!(records[0].computed, 5);
        assert_eq!(records[1].computed, 0);
        assert_eq!(records[0].drained, 5);
        assert_eq!(records[1].drained, 0);
    }

    #[test]
    fn memory_sink_keeps_every_record() {
        let mut sink = TraceSink::new("gas", &spec());
        for s in 0..5000 {
            sink.worker(0)
                .commit(&PhaseTimes::default(), leader(s, 0, 0));
        }
        let steps: Vec<u64> = sink.take_records().iter().map(|r| r.superstep).collect();
        assert_eq!(steps, (0..5000).collect::<Vec<u64>>());
        assert!(sink.take_records().is_empty(), "taken records are gone");
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
        // A nonzero direct count survives JSONL; zero is omitted so
        // threshold-0 lines stay byte-identical to pre-hybrid traces.
        let mut r = TraceRecord {
            superstep: 2,
            worker: 1,
            direct_messages: 7,
            ..Default::default()
        };
        let mut line = String::new();
        r.to_json(&mut line);
        assert!(line.contains("\"direct_messages\":7"));
        assert_eq!(TraceLine::parse(&line), Some(TraceLine::Record(r.clone())));
        r.direct_messages = 0;
        line.clear();
        r.to_json(&mut line);
        assert!(!line.contains("direct_"));

        // Full diff flags a direct-counter difference; the values-only
        // diff (and digest compare) sees the runs as equivalent.
        let mk = |dm: u64, bytes: u64| RunTrace {
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
                pubs: vec![(1, 42), (3, 7)],
                ..Default::default()
            }],
        };
        let a = mk(0, 200);
        let b = mk(4, 150);
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
        assert_eq!(TraceLine::parse(&line), Some(TraceLine::Record(r.clone())));
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
    fn file_sink_appends_every_commit() {
        let path = tmp("file-basic");
        let sink = TraceSink::create("cyclops", &spec(), &path, false).unwrap();
        for s in 0..10 {
            for w in 0..2 {
                committed(&sink, w, s);
            }
        }
        let summary = sink.finish().unwrap();
        assert_eq!(summary.records_written, 20);
        let loaded = read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.meta.engine, "cyclops");
        assert_eq!(loaded.records.len(), 20);
        assert_eq!(loaded.supersteps(), 10);
        // The file holds the same record contents a memory sink keeps.
        assert_eq!(loaded.records[3].computed, 11);
    }

    #[test]
    fn a_commit_burst_reaches_the_file_exactly_once() {
        let path = tmp("file-burst");
        // Commits outpace the writer; the channel queues, never drops.
        let sink = TraceSink::create("bsp", &spec(), &path, false).unwrap();
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
    fn dropping_an_unfinished_file_sink_closes_it() {
        let path = tmp("file-drop");
        // Records still queued in the channel reach the file at the close.
        let sink = TraceSink::create("cyclops", &spec(), &path, false).unwrap();
        for s in 0..500 {
            for w in 0..2 {
                committed(&sink, w, s);
            }
        }
        drop(sink);
        let loaded = read_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.records.len(), 1000);
        assert_eq!(loaded.supersteps(), 500);
    }

    #[test]
    fn finish_on_a_memory_sink_is_invalid_input() {
        let err = TraceSink::new("gas", &spec()).finish().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn trace_line_dispatches_on_the_leading_key() {
        let lines = [
            TraceLine::Meta(TraceMeta {
                engine: "bsp".into(),
                cluster: "1x2x1".into(),
                workers: 2,
                values: false,
            }),
            TraceLine::Record(TraceRecord {
                superstep: 3,
                worker: 1,
                computed: 7,
                pubs: vec![(4, 99)],
                ..Default::default()
            }),
            TraceLine::Span(FlightSpan {
                worker: 1,
                thread: 0,
                kind: SpanKind::Barrier,
                start_ns: 5,
                dur_ns: 6,
                a: 7,
                b: 0,
                c: 0,
            }),
            TraceLine::Mem(MemSample {
                superstep: 3,
                worker: u32::MAX,
                live: [-1; cyclops_obs::NUM_COMPONENTS],
                peak: [2; cyclops_obs::NUM_COMPONENTS],
                rss_kb: 9,
                hwm_kb: 10,
            }),
        ];
        for l in lines {
            let mut json = String::new();
            l.to_json(&mut json);
            assert_eq!(TraceLine::parse(&json), Some(l), "{json}");
        }
        for garbage in [
            "not json",
            "",
            "{}",
            "{\"nope\":1}",
            "{\"superstep\":0,\"worker\"",
        ] {
            assert_eq!(TraceLine::parse(garbage), None, "{garbage}");
        }
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
            .commit(&PhaseTimes::default(), leader(0, 0, 0));
        // Slots reset between supersteps.
        sink.worker(0)
            .commit(&PhaseTimes::default(), leader(1, 0, 0));
        let mut sink = sink;
        let records = sink.take_records();
        assert_eq!(records[0].hot, vec![(10, 130), (20, 70), (11, 5)]);
        assert!(records[1].hot.is_empty());
        // JSONL round-trip preserves the hot list.
        let mut line = String::new();
        records[0].to_json(&mut line);
        assert_eq!(
            TraceLine::parse(&line),
            Some(TraceLine::Record(records[0].clone()))
        );
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
            .commit(&PhaseTimes::default(), leader(0, 0, 0));
        let mut sink = sink;
        assert!(sink.take_records()[0].hot.is_empty());
    }

    #[test]
    fn wire_mode_fields_reset_at_commit_round_trip_and_never_diff() {
        let sink = TraceSink::new("cyclops", &spec());
        sink.worker(0).add_wire_batches_to(1, 3, 2);
        sink.worker(0)
            .commit(&PhaseTimes::default(), leader(0, 0, 4));
        // Counts reset at commit.
        sink.worker(0)
            .commit(&PhaseTimes::default(), leader(1, 0, 0));
        let mut sink = sink;
        let records = sink.take_records();
        assert_eq!(records[0].wire_dense, 3);
        assert_eq!(records[0].wire_sparse, 2);
        assert_eq!(records[1].wire_dense, 0);
        let mut line = String::new();
        records[0].to_json(&mut line);
        assert_eq!(
            TraceLine::parse(&line),
            Some(TraceLine::Record(records[0].clone()))
        );
        // A record without wire batches omits the fields entirely (old
        // readers keep working) and parses back with defaults.
        let mut plain = String::new();
        records[1].to_json(&mut plain);
        assert!(!plain.contains("wire_"));
        assert_eq!(
            TraceLine::parse(&plain),
            Some(TraceLine::Record(records[1].clone()))
        );
        // diff treats runs that differ only in wire modes as identical: the
        // encoding is chosen per batch, the results are not.
        let mk = |dense: u64| RunTrace {
            records: vec![TraceRecord {
                computed: 5,
                wire_dense: dense,
                ..Default::default()
            }],
            ..Default::default()
        };
        assert_eq!(diff::first_divergence(&mk(7), &mk(0), true), None);
    }

    #[test]
    fn an_old_line_with_retired_columns_parses_as_without_them() {
        // Traces written while the engines had a sparse fast path and sent
        // direct messages in batches of their own carry two more keys.
        let old = r#"{"superstep":3,"worker":1,"parse_ns":10,"compute_ns":20,"send_ns":30,"sync_ns":40,"frontier":5,"computed":5,"activated":2,"converged_delta":0,"drained":4,"messages":6,"bytes":48,"checkpoint":false,"sparse_fast_path":true,"direct_messages":2,"direct_bytes":5}"#;
        let plain = old
            .replace(r#","sparse_fast_path":true"#, "")
            .replace(r#","direct_bytes":5"#, "");
        let record = |line: &str| match TraceLine::parse(line) {
            Some(TraceLine::Record(r)) => r,
            other => panic!("not a record: {other:?}"),
        };
        let (a, b) = (record(old), record(&plain));
        assert_eq!(a, b);
        let mut line = String::new();
        a.to_json(&mut line);
        assert_eq!(line, plain, "the retired keys are not written back");
        let run = |r: TraceRecord| RunTrace {
            records: vec![r],
            ..Default::default()
        };
        assert_eq!(diff::first_divergence(&run(a), &run(b), true), None);
    }

    #[test]
    fn bucket_fields_round_trip_and_are_diffed() {
        let sink = TraceSink::new("cyclops", &spec());
        let record = TraceRecord {
            bucket: 7,
            fused: 12,
            bucket_occupancy: 40,
            ..leader(0, 0, 40)
        };
        sink.worker(0).commit(&PhaseTimes::default(), record);
        // A superstep that was not bucketed hands no triple.
        sink.worker(0)
            .commit(&PhaseTimes::default(), leader(1, 0, 0));
        let mut sink = sink;
        let records = sink.take_records();
        assert_eq!(records[0].bucket, 7);
        assert_eq!(records[0].fused, 12);
        assert_eq!(records[0].bucket_occupancy, 40);
        assert_eq!(records[1].fused, 0);
        let mut line = String::new();
        records[0].to_json(&mut line);
        assert!(line.contains("\"fused\":12"));
        assert_eq!(
            TraceLine::parse(&line),
            Some(TraceLine::Record(records[0].clone()))
        );
        // Bucket-off records omit the fields entirely, so pre-bucketing
        // traces stay byte-identical and parse back with defaults.
        let mut plain = String::new();
        records[1].to_json(&mut plain);
        assert!(!plain.contains("fused"));
        assert!(!plain.contains("bucket"));
        assert_eq!(
            TraceLine::parse(&plain),
            Some(TraceLine::Record(records[1].clone()))
        );
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
            .commit(&PhaseTimes::default(), leader(0, 0, 8));
        // Rows reset at commit, like the counters.
        sink.worker(0)
            .commit(&PhaseTimes::default(), leader(1, 0, 0));
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
        assert_eq!(
            TraceLine::parse(&line),
            Some(TraceLine::Record(records[0].clone()))
        );
        // Matrix-off records omit the field entirely, so pre-matrix traces
        // stay byte-identical and parse back with defaults.
        let mut plain = String::new();
        records[1].to_json(&mut plain);
        assert!(!plain.contains("comm"));
        assert_eq!(
            TraceLine::parse(&plain),
            Some(TraceLine::Record(records[1].clone()))
        );
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
        r.messages = 11; // a row that misses a send
        assert!(!r.comm_consistent());
        // Legacy records (no matrix) are trivially consistent.
        r.comm.clear();
        assert!(r.comm_consistent());
    }

    #[test]
    fn span_lines_round_trip_and_load_beside_records() {
        let span = FlightSpan {
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
        TraceLine::Span(span).to_json(&mut line);
        assert_eq!(
            line,
            "{\"span\":\"flush\",\"worker\":1,\"thread\":2,\"start_ns\":1000,\
             \"dur_ns\":250,\"a\":3,\"b\":4096,\"c\":2}"
        );
        assert_eq!(TraceLine::parse(&line), Some(TraceLine::Span(span)));
        assert_eq!(TraceLine::parse("{\"span\":\"nope\"}"), None);
        // A trace file with spans after the records loads both.
        let path = tmp("spans");
        let fr = cyclops_obs::FlightRecorder::new(8);
        let ring = fr.ring(0, 0);
        let t0 = ring.now_ns();
        ring.record(SpanKind::Parse, t0, 0, 0, 0);
        ring.record(SpanKind::Barrier, ring.now_ns(), 0, 0, 0);
        let mut file = String::new();
        let lines = [
            TraceLine::Meta(TraceSink::new("cyclops", &spec()).meta().clone()),
            TraceLine::Record(TraceRecord::default()),
        ];
        let spans = fr.drain().spans.into_iter().map(TraceLine::Span);
        for l in lines.into_iter().chain(spans) {
            l.to_json(&mut file);
            file.push('\n');
        }
        std::fs::write(&path, file).unwrap();
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
