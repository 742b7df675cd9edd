//! Flight recorder: per-thread rings of timestamped span events.
//!
//! Per-(superstep, worker) aggregates say *how much* work and traffic a
//! superstep cost, but not *when inside the superstep* it happened — fused
//! bucket-drain rounds, dynamic chunk claims, and per-destination send
//! flushes are invisible in time. The flight recorder captures them as
//! [`SpanEvent`]s in fixed-capacity per-thread rings ([`SpanRing`]), cheap
//! enough to leave compiled in:
//!
//! - **Disabled** (no [`install_flight`] call): instrumented code resolves
//!   [`flight`] once at construction and holds `None`; every potential span
//!   costs exactly one resolved `Option` check — the same discipline as the
//!   metrics registry.
//! - **Enabled**: each instrumented thread owns one [`SpanRing`]; recording
//!   is two `Instant` reads plus a bounds-checked write into a preallocated
//!   buffer. No locks, no allocation past the ring's first lap. When a ring
//!   fills it overwrites its oldest events (and counts them), so a long run
//!   keeps its most recent window instead of failing.
//!
//! Rings are drained after the run's threads have joined ([
//! `FlightRecorder::drain`]) and exported by the CLI as extra JSONL lines
//! next to the superstep records, which `cyclops timeline --chrome` turns
//! into Chrome trace-event JSON. Timestamps are wall-clock nanoseconds
//! relative to the recorder's epoch: inherently nondeterministic, which is
//! why spans live beside — never inside — the deterministic trace records.

use std::cell::UnsafeCell;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-ring capacity in events. A [`SpanEvent`] is 48 bytes, so a
/// full ring costs ~3 MiB per thread while holding far more events than the
/// workloads here produce.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1 << 16;

/// What interval a span measures. The names are the short phase labels the
/// rest of the observability stack already uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// PRS: inbox drain + replica apply. `a` = superstep.
    Parse,
    /// CMP: the compute phase. `a` = superstep.
    Compute,
    /// SND: the send phase as a whole. `a` = superstep.
    Send,
    /// One barrier wait (the SYN cost as this thread saw it). `a` = epoch.
    Barrier,
    /// One fused bucket-drain relaxation round. `a` = bucket, `b` = round.
    Round,
    /// One dynamically claimed compute chunk. `a` = superstep, `b` = chunk
    /// index, `c` = vertices in the chunk.
    Chunk,
    /// One per-destination send flush. `a` = destination worker, `b` = wire
    /// bytes (0 intra-machine), `c` = wire mode (see [`SpanEvent::c`]).
    Flush,
}

impl SpanKind {
    /// Every kind, in serialization order.
    pub const ALL: [SpanKind; 7] = [
        SpanKind::Parse,
        SpanKind::Compute,
        SpanKind::Send,
        SpanKind::Barrier,
        SpanKind::Round,
        SpanKind::Chunk,
        SpanKind::Flush,
    ];

    /// Short stable label: `prs`, `cmp`, `snd`, `barrier`, `round`,
    /// `chunk`, `flush`.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Parse => "prs",
            SpanKind::Compute => "cmp",
            SpanKind::Send => "snd",
            SpanKind::Barrier => "barrier",
            SpanKind::Round => "round",
            SpanKind::Chunk => "chunk",
            SpanKind::Flush => "flush",
        }
    }

    /// Inverse of [`SpanKind::name`].
    pub fn parse(name: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One recorded span: a `[start, start + dur)` interval on one thread, with
/// kind-specific integer arguments (documented per [`SpanKind`] variant).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// What the interval measures.
    pub kind: SpanKind,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// First kind-specific argument (superstep / epoch / bucket / dest).
    pub a: u64,
    /// Second kind-specific argument (round / chunk index / wire bytes).
    pub b: u64,
    /// Third kind-specific argument. For [`SpanKind::Flush`]: the wire
    /// mode — 0 intra-machine (no serialization), 1 legacy, 2 sparse,
    /// 3 dense.
    pub c: u64,
}

struct RingBuf {
    buf: Vec<SpanEvent>,
    /// Oldest-entry index once the ring has wrapped.
    head: usize,
    dropped: u64,
}

/// A fixed-capacity single-writer ring of [`SpanEvent`]s, owned by one
/// instrumented thread. Created via [`FlightRecorder::ring`]; the recorder
/// keeps a handle for draining after the run.
pub struct SpanRing {
    worker: u32,
    thread: u32,
    epoch: Instant,
    cap: usize,
    inner: UnsafeCell<RingBuf>,
}

// SAFETY: `inner` is written only by the one thread that owns the ring
// (engines resolve a ring per worker thread; the transport one per sender
// lane, each lane having exactly one sending thread) and read only by
// `FlightRecorder::drain` after those threads have joined — the same
// single-writer discipline the superstep tracer's per-worker records use.
unsafe impl Sync for SpanRing {}
unsafe impl Send for SpanRing {}

impl SpanRing {
    fn new(worker: u32, thread: u32, epoch: Instant, cap: usize) -> Self {
        SpanRing {
            worker,
            thread,
            epoch,
            cap: cap.max(1),
            inner: UnsafeCell::new(RingBuf {
                buf: Vec::with_capacity(cap.clamp(1, 1024)),
                head: 0,
                dropped: 0,
            }),
        }
    }

    /// Worker id this ring belongs to (Chrome `pid`).
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// Thread id within the worker (Chrome `tid`).
    pub fn thread(&self) -> u32 {
        self.thread
    }

    /// Nanoseconds since the recorder's epoch — capture before the work,
    /// pass to [`SpanRing::record`] after.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span that started at `start_ns` (from [`SpanRing::now_ns`])
    /// and ends now.
    #[inline]
    pub fn record(&self, kind: SpanKind, start_ns: u64, a: u64, b: u64, c: u64) {
        let dur_ns = self.now_ns().saturating_sub(start_ns);
        self.push(SpanEvent {
            kind,
            start_ns,
            dur_ns,
            a,
            b,
            c,
        });
    }

    /// Appends one event, overwriting the oldest when full.
    #[inline]
    pub fn push(&self, ev: SpanEvent) {
        // SAFETY: single writer (see the Sync impl above).
        let rb = unsafe { &mut *self.inner.get() };
        if rb.buf.len() < self.cap {
            rb.buf.push(ev);
        } else {
            rb.buf[rb.head] = ev;
            rb.head = (rb.head + 1) % self.cap;
            rb.dropped += 1;
        }
    }

    /// Copies the ring's events in chronological order and clears it.
    /// Only called by `FlightRecorder::drain`, after writers have joined.
    fn take(&self) -> (Vec<SpanEvent>, u64) {
        // SAFETY: callers guarantee the owning thread has finished.
        let rb = unsafe { &mut *self.inner.get() };
        let mut out = Vec::with_capacity(rb.buf.len());
        out.extend_from_slice(&rb.buf[rb.head..]);
        out.extend_from_slice(&rb.buf[..rb.head]);
        let dropped = rb.dropped;
        rb.buf.clear();
        rb.head = 0;
        rb.dropped = 0;
        (out, dropped)
    }
}

/// One drained span tagged with the ring it came from: a [`SpanEvent`]'s
/// fields beside the ring's worker and thread. It is also what a trace file's
/// span line stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightSpan {
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

/// Everything [`FlightRecorder::drain`] extracted: spans in start order
/// plus how many events ring wraparound overwrote.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightDump {
    /// All spans, sorted by `(start_ns, worker, thread)`.
    pub spans: Vec<FlightSpan>,
    /// Events overwritten by ring wraparound, across all rings.
    pub dropped: u64,
}

/// The flight recorder: hands out per-thread [`SpanRing`]s sharing one time
/// epoch, and drains them after the run.
pub struct FlightRecorder {
    epoch: Instant,
    cap: usize,
    rings: Mutex<Vec<Arc<SpanRing>>>,
}

impl FlightRecorder {
    /// A recorder whose rings hold `cap_per_ring` events each.
    pub fn new(cap_per_ring: usize) -> Self {
        FlightRecorder {
            epoch: Instant::now(),
            cap: cap_per_ring,
            rings: Mutex::new(Vec::new()),
        }
    }

    /// Registers and returns a fresh ring for one instrumented thread
    /// (worker `worker`, thread `thread` within it). Call once per thread
    /// at construction/loop start — never on a hot path — and record
    /// through the returned handle. Multiple rings may share a
    /// `(worker, thread)` identity (e.g. the engine's ring and the
    /// transport's lane ring for the same thread); their spans merge at
    /// drain.
    pub fn ring(&self, worker: u32, thread: u32) -> Arc<SpanRing> {
        let ring = Arc::new(SpanRing::new(worker, thread, self.epoch, self.cap));
        self.rings
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&ring));
        ring
    }

    /// Nanoseconds since this recorder's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Drains every ring: returns all spans sorted by start time and clears
    /// the rings. Must only be called after the instrumented threads have
    /// finished (engines join their workers before the CLI drains).
    pub fn drain(&self) -> FlightDump {
        let rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        let mut spans = Vec::new();
        let mut dropped = 0;
        for ring in rings.iter() {
            let (events, d) = ring.take();
            dropped += d;
            spans.extend(events.into_iter().map(|e| FlightSpan {
                worker: ring.worker(),
                thread: ring.thread(),
                kind: e.kind,
                start_ns: e.start_ns,
                dur_ns: e.dur_ns,
                a: e.a,
                b: e.b,
                c: e.c,
            }));
        }
        spans.sort_by_key(|s| (s.start_ns, s.worker, s.thread));
        FlightDump { spans, dropped }
    }
}

static FLIGHT: OnceLock<FlightRecorder> = OnceLock::new();

/// Installs (or returns the already-installed) process-global flight
/// recorder with [`DEFAULT_FLIGHT_CAPACITY`] rings. Idempotent; the
/// recorder lives for the rest of the process, like the metrics registry.
pub fn install_flight() -> &'static FlightRecorder {
    FLIGHT.get_or_init(|| FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY))
}

/// The process-global flight recorder, or `None` when [`install_flight`]
/// was never called. Instrumented code checks this once at construction; a
/// `None` means every potential span costs one resolved `Option` check.
pub fn flight() -> Option<&'static FlightRecorder> {
    FLIGHT.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_durations_and_args() {
        let fr = FlightRecorder::new(16);
        let ring = fr.ring(2, 1);
        let t0 = ring.now_ns();
        ring.record(SpanKind::Flush, t0, 3, 4096, 2);
        let dump = fr.drain();
        assert_eq!(dump.spans.len(), 1);
        assert_eq!(dump.dropped, 0);
        let s = dump.spans[0];
        assert_eq!((s.worker, s.thread), (2, 1));
        assert_eq!(s.kind, SpanKind::Flush);
        assert_eq!((s.a, s.b, s.c), (3, 4096, 2));
        assert!(s.start_ns >= t0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let fr = FlightRecorder::new(4);
        let ring = fr.ring(0, 0);
        for i in 0..7u64 {
            ring.push(SpanEvent {
                kind: SpanKind::Chunk,
                start_ns: i,
                dur_ns: 1,
                a: i,
                b: 0,
                c: 0,
            });
        }
        let dump = fr.drain();
        assert_eq!(dump.dropped, 3);
        let kept: Vec<u64> = dump.spans.iter().map(|s| s.a).collect();
        assert_eq!(kept, vec![3, 4, 5, 6], "the most recent window survives");
    }

    #[test]
    fn drain_merges_rings_in_start_order_and_clears() {
        let fr = FlightRecorder::new(8);
        let a = fr.ring(0, 0);
        let b = fr.ring(1, 0);
        let mk = |start| SpanEvent {
            kind: SpanKind::Barrier,
            start_ns: start,
            dur_ns: 5,
            a: 0,
            b: 0,
            c: 0,
        };
        b.push(mk(20));
        a.push(mk(10));
        a.push(mk(30));
        let dump = fr.drain();
        let order: Vec<(u64, u32)> = dump.spans.iter().map(|s| (s.start_ns, s.worker)).collect();
        assert_eq!(order, vec![(10, 0), (20, 1), (30, 0)]);
        assert!(fr.drain().spans.is_empty(), "drain clears the rings");
    }

    #[test]
    fn rings_accept_concurrent_writers_one_per_ring() {
        let fr = Arc::new(FlightRecorder::new(1024));
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let fr = Arc::clone(&fr);
                s.spawn(move || {
                    let ring = fr.ring(w, 0);
                    for i in 0..500u64 {
                        let t0 = ring.now_ns();
                        ring.record(SpanKind::Compute, t0, i, 0, 0);
                    }
                });
            }
        });
        let dump = fr.drain();
        assert_eq!(dump.spans.len(), 2000);
        assert_eq!(dump.dropped, 0);
    }

    #[test]
    fn kind_names_round_trip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::parse(k.name()), Some(k));
        }
        assert_eq!(SpanKind::parse("nope"), None);
    }

    #[test]
    fn global_flight_is_a_single_option_check_until_installed() {
        // Deliberately NOT installing here: other tests in this binary must
        // also observe the disabled path, and OnceLock is process-global.
        // The disabled contract itself — `flight()` is None and costs one
        // check — is what the criterion bench pins.
        let resolved = flight();
        if let Some(f) = resolved {
            // Another test (or bench harness) installed it; the handle must
            // still be usable.
            assert!(f.now_ns() < u64::MAX);
        }
    }
}
