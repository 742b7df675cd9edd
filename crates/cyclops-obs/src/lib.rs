//! Metrics substrate for the Cyclops reproduction: atomic counters and
//! gauges, log-linear (HDR-style) histograms, and Prometheus exposition.
//!
//! The paper's evaluation is built from per-superstep telemetry (Fig 10's
//! phase breakdowns, Fig 10(2,3)'s active-vertex and message curves,
//! Table 2's memory behaviour), and message-reduction analyses such as
//! Pregel+ show that *distribution shape* — message-size skew, queue-depth
//! skew, barrier-wait tails — explains communication wins where totals
//! cannot. This crate provides the shape-capturing half of that telemetry:
//!
//! - [`LogLinearHistogram`]: base-2 buckets × 4 linear sub-buckets, so any
//!   reported quantile is within 12.5 % of the true value, with wait-free
//!   relaxed-atomic recording.
//! - [`MetricsRegistry`]: get-or-create named metrics with labels, plus a
//!   process-global instance ([`install_global`] / [`global`]) that
//!   instrumented code resolves **once** at construction — when absent the
//!   hot path pays a single `Option` check, the same discipline as the
//!   superstep tracer.
//! - [`render_prometheus`]: deterministic text exposition for scraping or
//!   golden-file testing.
//! - [`sparkline`]: terminal-dashboard rendering used by `cyclops metrics`
//!   and `cyclops top`.
//! - [`CriticalPath`]: barrier-structured critical-path extraction with
//!   exact straggler attribution (`cyclops why-slow`'s analysis core).
//! - [`SpaceSaving`]: bounded heavy-hitter sketch for hot-vertex top-K.
//! - [`MetricsServer`]: std-only HTTP listener serving `GET /metrics`
//!   (live Prometheus exposition) and `/healthz`.
//! - [`FlightRecorder`]: per-thread rings of timestamped span events
//!   (phase spans, barrier waits, fused bucket rounds, dynamic chunk
//!   claims, per-destination send flushes), drained after a run and
//!   exported as Chrome trace-event JSON by `cyclops timeline --chrome`.
//! - [`mem`]: a tagged tracking allocator ([`MemAlloc`]) with per-worker,
//!   per-[`Component`] live/peak accounting, scope-tagged via [`MemScope`]
//!   and sampled at superstep barriers into `{"mem":…}` trace lines.
//!
//! The crate is deliberately std-only and sits *below* `cyclops-net` in the
//! dependency order, so the transport and barrier layers can be
//! instrumented without a cycle.

#![warn(missing_docs)]

mod critpath;
mod expo;
mod flight;
mod hist;
pub mod mem;
mod registry;
mod serve;
mod spark;
mod topk;

pub use critpath::{
    CriticalPath, Phase, PhaseSample, StragglerShare, SuperstepPath, WorkerAttribution,
};
pub use expo::render_prometheus;
pub use flight::{
    flight, install_flight, FlightDump, FlightRecorder, FlightSpan, SpanEvent, SpanKind, SpanRing,
    Wait, DEFAULT_FLIGHT_CAPACITY,
};
pub use mem::{Component, MemAlloc, MemSample, MemScope, NUM_COMPONENTS};

pub use hist::{
    bucket_bounds, bucket_index, bucket_mid, HistogramSnapshot, LogLinearHistogram, NUM_BUCKETS,
};
pub use registry::{global, install_global, Counter, Gauge, Metric, MetricId, MetricsRegistry};
pub use serve::MetricsServer;
pub use spark::{sparkline, sparkline_last};
pub use topk::SpaceSaving;
