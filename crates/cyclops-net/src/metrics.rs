//! Phase timing, message/byte counters, and allocation accounting.
//!
//! The paper decomposes each superstep into four sequential operations
//! (§3.5): message parsing (PRS), vertex computation (CMP), message sending
//! (SND), and the global barrier (SYN). Figure 10(1) and Figure 12 report
//! per-phase execution-time breakdowns; Figure 10(2,3) report active-vertex
//! and message counts per superstep; Table 2 reports memory behaviour. The
//! types here collect all of that.

use crate::codec::WireMode;
pub use cyclops_obs::Phase;
use cyclops_obs::{Counter, Gauge, LogLinearHistogram};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A distributed aggregation over `f64` contributions: the engines gather
/// per-worker partials at the superstep barrier and publish the combined
/// statistics for the next superstep (the Pregel aggregator pattern; the
/// paper's PageRank uses the mean as its "global error", §2.2.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AggregateStats {
    /// Sum of all contributions.
    pub sum: f64,
    /// Number of contributions.
    pub count: usize,
    /// Minimum contribution.
    pub min: f64,
    /// Maximum contribution.
    pub max: f64,
}

impl Default for AggregateStats {
    fn default() -> Self {
        AggregateStats {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl AggregateStats {
    /// Adds one contribution.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.sum += x;
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another partial into this one.
    pub fn merge(&mut self, other: &AggregateStats) {
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of the contributions, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Whether anything was contributed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// Wall-clock time spent in each phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimes {
    /// PRS time.
    pub parse: Duration,
    /// CMP time.
    pub compute: Duration,
    /// SND time.
    pub send: Duration,
    /// SYN time.
    pub sync: Duration,
}

impl PhaseTimes {
    /// Adds `d` to the accumulator of `phase`.
    pub fn add(&mut self, phase: Phase, d: Duration) {
        match phase {
            Phase::Parse => self.parse += d,
            Phase::Compute => self.compute += d,
            Phase::Send => self.send += d,
            Phase::Sync => self.sync += d,
        }
    }

    /// Sum of all four phases.
    pub fn total(&self) -> Duration {
        self.parse + self.compute + self.send + self.sync
    }

    /// Element-wise sum.
    pub fn merge(&self, other: &PhaseTimes) -> PhaseTimes {
        PhaseTimes {
            parse: self.parse + other.parse,
            compute: self.compute + other.compute,
            send: self.send + other.send,
            sync: self.sync + other.sync,
        }
    }

    /// Times a closure and adds the elapsed duration to `phase`; returns the
    /// closure's result.
    pub fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(phase, start.elapsed());
        out
    }
}

/// Statistics of one superstep, aggregated over all workers.
#[derive(Clone, Debug, Default)]
pub struct SuperstepStats {
    /// Superstep index (0-based).
    pub superstep: usize,
    /// Number of vertices that executed the compute function.
    pub active_vertices: usize,
    /// Messages sent this superstep (all workers).
    pub messages_sent: usize,
    /// Bytes of cross-machine traffic this superstep.
    pub bytes_sent: usize,
    /// Messages carrying the same value as the previous superstep — the
    /// paper's "redundant messages" (Figure 3(2)). Only pull-mode BSP
    /// algorithms produce these; engines that don't track it leave 0.
    pub redundant_messages: usize,
    /// Per-phase times, summed across workers (so a perfectly parallel
    /// phase on `P` workers contributes `P ×` its wall time; the figures
    /// normalize, so only ratios matter — same as the paper's "ratio of
    /// execution time" presentation).
    pub phase_times: PhaseTimes,
}

/// Thread-safe counters shared by all workers of one engine run.
///
/// Everything is a relaxed atomic: the counters are statistics, not
/// synchronization (the barrier provides the happens-before edges that make
/// final reads exact).
#[derive(Debug, Default)]
pub struct RunCounters {
    /// Total messages sent.
    pub messages: AtomicUsize,
    /// Total cross-machine bytes.
    pub bytes: AtomicUsize,
    /// Times a sender found the destination queue lock already held —
    /// the contention the paper eliminates (§2.2.2, §4.1).
    pub lock_contentions: AtomicUsize,
    /// Bytes allocated for message buffers over the whole run (Table 2's
    /// "messages occupy a large number of memory in each superstep").
    pub message_bytes_allocated: AtomicU64,
    /// Peak bytes held in in-flight message queues: the in-flight message
    /// count times the message type's `size_of`, heap payloads (a `Vec`
    /// message's elements) excluded.
    pub peak_queue_bytes: AtomicU64,
    /// Messages currently sitting in queues (enqueued minus drained).
    pub inflight_messages: AtomicU64,
    /// Peak of `inflight_messages` over the run.
    pub peak_queue_messages: AtomicU64,
    /// Cross-machine batches encoded in the dense (bitmap) wire mode.
    pub wire_dense_batches: AtomicUsize,
    /// Cross-machine batches encoded in the sparse (delta-varint) wire mode.
    pub wire_sparse_batches: AtomicUsize,
    /// Cross-machine batches encoded with the legacy fixed-width framing.
    pub wire_legacy_batches: AtomicUsize,
    /// Bytes the adaptive encoding saved versus the legacy fixed-width
    /// framing of the same batches (legacy size minus actual wire size).
    pub wire_saved_bytes: AtomicUsize,
}

impl RunCounters {
    /// Adds to the message counter.
    #[inline]
    pub fn add_messages(&self, n: usize) {
        self.messages.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds to the wire-byte counter. Wire traffic and buffer allocation
    /// are accounted separately: with pooled send buffers a batch can cross
    /// the wire without allocating at all, which is exactly the Table 2
    /// story — call [`Self::add_alloc`] only when capacity actually grew.
    #[inline]
    pub fn add_bytes(&self, n: usize) {
        self.bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds to the message-buffer allocation accounting (Table 2): the send
    /// path charges only the capacity-growth delta of the reused buffer.
    #[inline]
    pub fn add_alloc(&self, n: usize) {
        self.message_bytes_allocated
            .fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records one contended lock acquisition.
    #[inline]
    pub fn add_contention(&self) {
        self.lock_contentions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` messages of `size` bytes each entering queues, updating
    /// the peak watermarks.
    #[inline]
    pub fn queue_enter(&self, n: usize, size: usize) {
        let now = self
            .inflight_messages
            .fetch_add(n as u64, Ordering::Relaxed)
            + n as u64;
        self.peak_queue_messages.fetch_max(now, Ordering::Relaxed);
        self.peak_queue_bytes
            .fetch_max(now.saturating_mul(size as u64), Ordering::Relaxed);
    }

    /// Records one cross-machine batch encoded in `mode`, saving `saved`
    /// bytes versus the legacy fixed-width framing of the same messages.
    #[inline]
    pub fn add_wire_batch(&self, mode: WireMode, saved: usize) {
        let counter = match mode {
            WireMode::Dense => &self.wire_dense_batches,
            WireMode::Sparse => &self.wire_sparse_batches,
            WireMode::Legacy => &self.wire_legacy_batches,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if saved > 0 {
            self.wire_saved_bytes.fetch_add(saved, Ordering::Relaxed);
        }
    }

    /// Records `n` messages leaving queues.
    #[inline]
    pub fn queue_leave(&self, n: usize) {
        if n > 0 {
            self.inflight_messages
                .fetch_sub(n as u64, Ordering::Relaxed);
        }
    }

    /// Snapshot of the counters as plain numbers.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            messages: self.messages.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            lock_contentions: self.lock_contentions.load(Ordering::Relaxed),
            message_bytes_allocated: self.message_bytes_allocated.load(Ordering::Relaxed),
            peak_queue_bytes: self.peak_queue_bytes.load(Ordering::Relaxed),
            peak_queue_messages: self.peak_queue_messages.load(Ordering::Relaxed),
            wire_dense_batches: self.wire_dense_batches.load(Ordering::Relaxed),
            wire_sparse_batches: self.wire_sparse_batches.load(Ordering::Relaxed),
            wire_legacy_batches: self.wire_legacy_batches.load(Ordering::Relaxed),
            wire_saved_bytes: self.wire_saved_bytes.load(Ordering::Relaxed),
        }
    }
}

/// An engine run's pre-resolved registry handles. Engines call
/// [`EngineObs::resolve`] **once** at run start; with no global
/// [`cyclops_obs::MetricsRegistry`] installed it returns `None` and the run
/// pays one `Option` check per superstep — the same discipline as the
/// tracer. Every series is registered at resolve, so each line exists from
/// the first scrape:
///
/// - `cyclops_phase_ns{engine,phase}` histograms, `phase` one of
///   [`Phase::name`] — each worker leader's four phase durations per
///   superstep (§3.5);
/// - `cyclops_run_supersteps{engine}` gauge, set by worker 0;
/// - `cyclops_compute_imbalance{engine}` histogram — once per superstep, the
///   slowest compute thread's CMP time over the mean of every compute thread
///   of every worker, in **permille** (1000 = all finished together, 2000 =
///   the straggler took twice the mean);
/// - `cyclops_activation_supersteps{engine,mode}` counters, `mode` one of
///   `push`, `pull` — worker-supersteps whose publications woke their
///   readers in that direction; an engine that never chooses a direction
///   (BSP, GAS) leaves both at 0.
pub struct EngineObs {
    phases: [Arc<LogLinearHistogram>; 4],
    supersteps: Arc<Gauge>,
    imbalance: Arc<LogLinearHistogram>,
    pushed: Arc<Counter>,
    pulled: Arc<Counter>,
}

impl EngineObs {
    /// Resolves the handles from the global registry, or `None` when no
    /// registry is installed.
    pub fn resolve(engine: &str) -> Option<EngineObs> {
        let reg = cyclops_obs::global()?;
        let labels = |key, value| [("engine", engine), (key, value)];
        let activation = |mode| reg.counter("cyclops_activation_supersteps", &labels("mode", mode));
        Some(EngineObs {
            phases: Phase::ALL
                .map(|p| reg.histogram("cyclops_phase_ns", &labels("phase", p.name()))),
            supersteps: reg.gauge("cyclops_run_supersteps", &[("engine", engine)]),
            imbalance: reg.histogram("cyclops_compute_imbalance", &[("engine", engine)]),
            pushed: activation("push"),
            pulled: activation("pull"),
        })
    }

    /// Records one superstep's phase durations (worker-leader scope).
    #[inline]
    pub fn record_phases(&self, t: &PhaseTimes) {
        for (h, d) in self.phases.iter().zip([t.parse, t.compute, t.send, t.sync]) {
            h.record(d.as_nanos() as u64);
        }
    }

    /// Sets the superstep gauge.
    #[inline]
    pub fn set_supersteps(&self, completed: usize) {
        self.supersteps.set(completed as i64);
    }

    /// Counts one worker-superstep under the activation direction chosen
    /// for it.
    #[inline]
    pub fn record_activation(&self, pull: bool) {
        if pull { &self.pulled } else { &self.pushed }.inc(1);
    }

    /// Records one superstep's max/mean CMP-time ratio from the compute
    /// threads' durations in nanoseconds. Empty or all-zero supersteps
    /// record nothing.
    pub fn record_imbalance(&self, cmp_ns: impl IntoIterator<Item = u64>) {
        let (mut max, mut sum, mut n) = (0u64, 0u64, 0u64);
        for ns in cmp_ns {
            max = max.max(ns);
            sum += ns;
            n += 1;
        }
        if sum > 0 {
            self.imbalance.record(max * 1000 / (sum / n).max(1));
        }
    }
}

/// Pre-resolved gauges for the per-worker hot-vertex top-K:
/// `cyclops_hot_vertex_cost{engine,worker,rank}` and
/// `cyclops_hot_vertex_id{engine,worker,rank}`.
///
/// One instance per worker, resolved once at sink construction (same
/// `Option` discipline as [`EngineObs`]); [`HotObs::record`] publishes the
/// merged Space-Saving top-K at superstep commit, so a scrape mid-run sees
/// the heavy vertices of the most recent superstep.
pub struct HotObs {
    ranks: Vec<(Arc<Gauge>, Arc<Gauge>)>,
}

impl HotObs {
    /// Resolves `k` rank slots for `worker` from the global registry, or
    /// `None` when no registry is installed or `k` is zero.
    pub fn resolve(engine: &str, worker: usize, k: usize) -> Option<HotObs> {
        if k == 0 {
            return None;
        }
        let reg = cyclops_obs::global()?;
        let worker = worker.to_string();
        let ranks = (0..k)
            .map(|r| {
                let rank = r.to_string();
                let labels = [
                    ("engine", engine),
                    ("worker", worker.as_str()),
                    ("rank", rank.as_str()),
                ];
                (
                    reg.gauge("cyclops_hot_vertex_cost", &labels),
                    reg.gauge("cyclops_hot_vertex_id", &labels),
                )
            })
            .collect();
        Some(HotObs { ranks })
    }

    /// Publishes the merged top-K (weight-descending). Ranks beyond
    /// `top.len()` are zeroed so stale values from a hotter superstep don't
    /// linger.
    pub fn record(&self, top: &[(u32, u64)]) {
        for (r, (cost, id)) in self.ranks.iter().enumerate() {
            match top.get(r) {
                Some(&(v, w)) => {
                    cost.set(w.min(i64::MAX as u64) as i64);
                    id.set(v as i64);
                }
                None => {
                    cost.set(0);
                    id.set(0);
                }
            }
        }
    }
}

/// Plain-number snapshot of [`RunCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Total messages sent.
    pub messages: usize,
    /// Total cross-machine bytes.
    pub bytes: usize,
    /// Contended lock acquisitions.
    pub lock_contentions: usize,
    /// Message buffer bytes allocated over the run.
    pub message_bytes_allocated: u64,
    /// Peak bytes in in-flight queues: the in-flight message count times
    /// the message type's `size_of`, heap payloads (a `Vec` message's
    /// elements) excluded.
    pub peak_queue_bytes: u64,
    /// Peak number of messages in in-flight queues.
    pub peak_queue_messages: u64,
    /// Cross-machine batches encoded dense.
    pub wire_dense_batches: usize,
    /// Cross-machine batches encoded sparse.
    pub wire_sparse_batches: usize,
    /// Cross-machine batches with legacy fixed-width framing.
    pub wire_legacy_batches: usize,
    /// Bytes saved versus legacy framing over the run.
    pub wire_saved_bytes: usize,
}

impl CounterSnapshot {
    /// Combines two snapshots — totals add, peaks take the maximum. Used to
    /// fold a run's replica-update and direct-message transports into one
    /// set of run counters.
    pub fn merge(&self, other: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            messages: self.messages + other.messages,
            bytes: self.bytes + other.bytes,
            lock_contentions: self.lock_contentions + other.lock_contentions,
            message_bytes_allocated: self.message_bytes_allocated + other.message_bytes_allocated,
            peak_queue_bytes: self.peak_queue_bytes.max(other.peak_queue_bytes),
            peak_queue_messages: self.peak_queue_messages.max(other.peak_queue_messages),
            wire_dense_batches: self.wire_dense_batches + other.wire_dense_batches,
            wire_sparse_batches: self.wire_sparse_batches + other.wire_sparse_batches,
            wire_legacy_batches: self.wire_legacy_batches + other.wire_legacy_batches,
            wire_saved_bytes: self.wire_saved_bytes + other.wire_saved_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_stats_track_all_moments() {
        let mut a = AggregateStats::default();
        assert!(a.is_empty());
        assert_eq!(a.mean(), None);
        a.add(2.0);
        a.add(-1.0);
        a.add(5.0);
        assert_eq!(a.sum, 6.0);
        assert_eq!(a.count, 3);
        assert_eq!(a.min, -1.0);
        assert_eq!(a.max, 5.0);
        assert_eq!(a.mean(), Some(2.0));
    }

    #[test]
    fn aggregate_stats_merge() {
        let mut a = AggregateStats::default();
        a.add(1.0);
        let mut b = AggregateStats::default();
        b.add(9.0);
        b.add(-3.0);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 7.0);
        assert_eq!(a.min, -3.0);
        assert_eq!(a.max, 9.0);
        // Merging an empty partial is a no-op.
        a.merge(&AggregateStats::default());
        assert_eq!(a.count, 3);
        assert_eq!(a.min, -3.0);
    }

    #[test]
    fn phase_times_accumulate() {
        let mut t = PhaseTimes::default();
        t.add(Phase::Parse, Duration::from_millis(5));
        t.add(Phase::Parse, Duration::from_millis(5));
        t.add(Phase::Sync, Duration::from_millis(2));
        assert_eq!(t.parse, Duration::from_millis(10));
        assert_eq!(t.total(), Duration::from_millis(12));
    }

    #[test]
    fn time_closure_returns_value() {
        let mut t = PhaseTimes::default();
        let v = t.time(Phase::Compute, || 42);
        assert_eq!(v, 42);
        assert!(t.compute >= Duration::ZERO); // recorded
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = PhaseTimes::default();
        a.add(Phase::Send, Duration::from_millis(1));
        let mut b = PhaseTimes::default();
        b.add(Phase::Send, Duration::from_millis(2));
        b.add(Phase::Sync, Duration::from_millis(3));
        let m = a.merge(&b);
        assert_eq!(m.send, Duration::from_millis(3));
        assert_eq!(m.sync, Duration::from_millis(3));
    }

    #[test]
    fn counters_accumulate_across_threads() {
        let c = RunCounters::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add_messages(1);
                        c.add_bytes(8);
                        c.add_alloc(2);
                    }
                });
            }
        });
        let snap = c.snapshot();
        assert_eq!(snap.messages, 4000);
        assert_eq!(snap.bytes, 32_000);
        // Allocation accounting is independent of wire bytes: a pooled
        // sender moves bytes without allocating.
        assert_eq!(snap.message_bytes_allocated, 8_000);
    }

    #[test]
    fn engine_obs_records_max_over_mean_permille() {
        let reg = cyclops_obs::install_global();
        let obs = EngineObs::resolve("sched-test").expect("registry installed");
        // Threads at 100/100/100/500 ns: mean 200, max 500 → 2500‰.
        obs.record_imbalance([100, 100, 100, 500]);
        // All-idle supersteps record nothing.
        obs.record_imbalance([0, 0]);
        obs.record_imbalance(std::iter::empty());
        let h = reg.histogram("cyclops_compute_imbalance", &[("engine", "sched-test")]);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        let p50 = s.percentile(0.50) as f64;
        assert!(
            (p50 - 2500.0).abs() / 2500.0 <= 0.125,
            "imbalance p50 {p50} should be ~2500‰"
        );
    }

    #[test]
    fn hot_obs_publishes_ranked_gauges_and_zeroes_stale_ranks() {
        let reg = cyclops_obs::install_global();
        let obs = HotObs::resolve("hot-test", 2, 3).expect("registry installed");
        obs.record(&[(42, 900), (7, 100), (3, 10)]);
        let g = |name: &str, rank: &str| {
            reg.gauge(
                name,
                &[("engine", "hot-test"), ("worker", "2"), ("rank", rank)],
            )
            .get()
        };
        assert_eq!(g("cyclops_hot_vertex_id", "0"), 42);
        assert_eq!(g("cyclops_hot_vertex_cost", "0"), 900);
        assert_eq!(g("cyclops_hot_vertex_id", "2"), 3);
        // A cooler superstep zeroes the unused tail ranks.
        obs.record(&[(5, 77)]);
        assert_eq!(g("cyclops_hot_vertex_id", "0"), 5);
        assert_eq!(g("cyclops_hot_vertex_cost", "1"), 0);
        assert_eq!(g("cyclops_hot_vertex_id", "2"), 0);
        // k == 0 disables resolution outright.
        assert!(HotObs::resolve("hot-test", 2, 0).is_none());
    }
}
