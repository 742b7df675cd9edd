//! Run-level observability: one summary of a trace, the reports rendered
//! from it, and a live trace follower.
//!
//! [`TraceSummary`] folds a superstep trace (see [`cyclops_net::trace`]) —
//! its records, flight spans and memory samples — in one pass, and every
//! trace report is a view of it: `cyclops metrics` (phase quantiles and
//! sparklines), `cyclops top` (the same, live, fed record by record while
//! the run is still writing), `why-slow`, `comm`, `timeline` and `mem`.
//! Its rows are keyed by the superstep and worker ids the records carry, so
//! no size a trace file claims (its header's worker count, a record's
//! superstep index) sizes an allocation or a loop. Latencies are
//! accumulated into the same log-linear histograms the engines feed
//! ([`cyclops_obs::LogLinearHistogram`], ≤ 12.5 % relative bucket error),
//! so quantiles here and quantiles from the in-process registry agree.

pub use cyclops_obs::{
    flight, global, install_flight, install_global, mem, render_prometheus, sparkline,
    sparkline_last, Component, Counter, CriticalPath, FlightDump, FlightRecorder, Gauge,
    HistogramSnapshot, LogLinearHistogram, MemAlloc, MetricsRegistry, MetricsServer, Phase,
    PhaseSample, SpaceSaving, NUM_COMPONENTS,
};

use cyclops_net::trace::{FlightSpan, RunTrace, TraceLine, TraceMeta, TraceRecord};
use cyclops_obs::SpanKind;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io::{Read, Seek, SeekFrom};

/// One superstep of a trace, aggregated over the records that name it.
#[derive(Clone, Debug, Default)]
pub struct StepRow {
    /// Each record's phase nanoseconds, in the order the records came: the
    /// critical path's input, and the superstep's time and compute balance.
    pub samples: Vec<PhaseSample>,
    /// Vertices that ran compute, summed over workers.
    pub computed: u64,
    /// Messages sent, summed over workers.
    pub messages: u64,
    /// Cross-machine batches that self-selected the dense wire encoding.
    pub wire_dense: u64,
    /// Cross-machine batches that self-selected the sparse wire encoding.
    pub wire_sparse: u64,
    /// Priority bucket this superstep drained (bucketed runs only).
    pub bucket: u64,
    /// Relaxation rounds fused behind this superstep's barrier pair; 0 on
    /// unbucketed runs. Every worker records the same count; the max
    /// guards against partially written traces.
    pub fused: u64,
    /// Distinct vertices drained from the bucket, summed over workers.
    pub occupancy: u64,
    /// Masters migrated at the epoch boundary before this superstep,
    /// summed over receiving workers; 0 on static runs.
    pub migrated: u64,
}

impl StepRow {
    fn total_ns(&self) -> u64 {
        self.samples
            .iter()
            .fold(0, |t, s| t.saturating_add(s.span_ns()))
    }

    /// Max/mean compute-time imbalance across the superstep's workers (1.0 =
    /// perfectly balanced; 0.0 when the superstep has no compute time).
    fn compute_imbalance(&self) -> f64 {
        let (sum, max) = self.samples.iter().fold((0u64, 0u64), |(sum, max), s| {
            (sum.saturating_add(s.compute_ns), max.max(s.compute_ns))
        });
        if sum == 0 {
            0.0
        } else {
            max as f64 * self.samples.len() as f64 / sum as f64
        }
    }

    fn is_mixed(&self) -> bool {
        self.wire_dense > 0 || self.wire_sparse > 0
    }

    fn is_bucketed(&self) -> bool {
        self.fused > 0
    }

    fn is_boundary(&self) -> bool {
        self.migrated > 0
    }
}

/// One `(src, dst)` cell of the worker-pair communication matrix,
/// aggregated over the whole run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommPair {
    /// Sending worker.
    pub src: u64,
    /// Receiving worker.
    pub dst: u64,
    /// Messages sent from `src` to `dst` (intra- and cross-machine alike).
    pub messages: u64,
    /// Cross-machine wire bytes from `src` to `dst`.
    pub bytes: u64,
    /// Cross-machine batches encoded in the dense wire mode.
    pub wire_dense: u64,
    /// Cross-machine batches encoded in the sparse wire mode.
    pub wire_sparse: u64,
}

/// Everything the report commands say about one trace, folded in one pass.
/// [`TraceSummary::of`] folds a loaded trace; `cyclops top` starts from
/// [`TraceSummary::default`] and feeds each poll's records to
/// [`TraceSummary::add`] — out of order is fine.
#[derive(Default)]
pub struct TraceSummary {
    /// The trace header; empty on a summary fed only through
    /// [`TraceSummary::add`].
    pub meta: TraceMeta,
    /// Records absorbed.
    pub records: u64,
    /// Phase latency histograms, indexed like [`Phase::ALL`].
    pub hists: [LogLinearHistogram; 4],
    /// One row per superstep that has records, ascending.
    pub steps: BTreeMap<u64, StepRow>,
    /// Ids of the workers that wrote records, ascending.
    pub workers: BTreeSet<u64>,
    /// Direct messages (hybrid replication's no-replica path), summed.
    pub direct_messages: u64,
    /// Hot-vertex sketch cost summed per vertex; empty when the trace was
    /// recorded without `--hot`.
    pub hot: BTreeMap<u32, u64>,
    /// The worker-pair communication matrix, summed over supersteps. Empty
    /// for traces recorded before the matrix existed.
    pub comm: BTreeMap<(u64, u64), CommPair>,
    /// `(superstep, worker)` of every record whose matrix row sums disagree
    /// with its `messages`/`bytes` counters. Always empty for healthy
    /// traces: the matrix is filled from the counters' own transport cells.
    pub mismatches: Vec<(u64, u64)>,
    /// Per-worker peak bytes by component over the memory samples (peaks
    /// are monotonic within a run, so this is the component-wise maximum).
    /// The untagged (non-engine-thread) slot is worker [`u32::MAX`], last.
    pub mem_peaks: BTreeMap<u32, [u64; NUM_COMPONENTS]>,
    /// Memory samples absorbed.
    pub mem_samples: u64,
    /// Maximum `/proc/self/status` VmRSS over the samples, kB (0 when
    /// unavailable — non-Linux or restricted environments).
    pub rss_kb: u64,
    /// Maximum VmHWM over the samples, kB (0 when unavailable).
    pub hwm_kb: u64,
    /// `(count, total nanoseconds)` of the flight-recorder spans of each
    /// kind, indexed like [`SpanKind::ALL`].
    pub spans: [(u64, u64); SpanKind::ALL.len()],
}

impl TraceSummary {
    /// Folds a loaded trace: its header, records, spans and memory samples.
    pub fn of(trace: &RunTrace) -> Self {
        let mut s = TraceSummary {
            meta: trace.meta.clone(),
            ..Self::default()
        };
        for r in &trace.records {
            s.add(r);
        }
        for span in &trace.spans {
            let (count, total) = &mut s.spans[span.kind as usize];
            *count += 1;
            *total = total.saturating_add(span.dur_ns);
        }
        for m in &trace.mem {
            s.rss_kb = s.rss_kb.max(m.rss_kb);
            s.hwm_kb = s.hwm_kb.max(m.hwm_kb);
            let row = s.mem_peaks.entry(m.worker).or_default();
            for (slot, &p) in row.iter_mut().zip(&m.peak) {
                *slot = (*slot).max(p);
            }
        }
        s.mem_samples = trace.mem.len() as u64;
        s
    }

    /// Absorbs one record.
    pub fn add(&mut self, r: &TraceRecord) {
        self.records += 1;
        for (h, ns) in self
            .hists
            .iter()
            .zip([r.parse_ns, r.compute_ns, r.send_ns, r.sync_ns])
        {
            h.record(ns);
        }
        self.workers.insert(r.worker);
        let step = self.steps.entry(r.superstep).or_default();
        step.samples.push(PhaseSample {
            worker: r.worker,
            parse_ns: r.parse_ns,
            compute_ns: r.compute_ns,
            send_ns: r.send_ns,
            sync_ns: r.sync_ns,
        });
        step.computed += r.computed;
        step.messages += r.messages;
        step.wire_dense += r.wire_dense;
        step.wire_sparse += r.wire_sparse;
        if r.fused > 0 {
            step.bucket = r.bucket;
            step.fused = step.fused.max(r.fused);
            step.occupancy += r.bucket_occupancy;
        }
        step.migrated += r.migrated;
        self.direct_messages += r.direct_messages;
        for &(v, w) in &r.hot {
            *self.hot.entry(v).or_default() += w;
        }
        for e in &r.comm {
            let dst = u64::from(e.dst);
            let pair = self.comm.entry((r.worker, dst)).or_insert(CommPair {
                src: r.worker,
                dst,
                ..CommPair::default()
            });
            pair.messages += e.messages;
            pair.bytes += e.bytes;
            pair.wire_dense += e.wire_dense;
            pair.wire_sparse += e.wire_sparse;
        }
        if !r.comm_consistent() {
            self.mismatches.push((r.superstep, r.worker));
        }
    }

    /// Supersteps that have records.
    pub fn supersteps(&self) -> u64 {
        self.steps.len() as u64
    }

    /// The run's critical path: each superstep's samples analysed as one
    /// link of the barrier chain.
    pub fn critical_chain(&self) -> CriticalPath {
        CriticalPath::analyze(
            self.steps
                .iter()
                .map(|(&step, row)| (step, row.samples.clone())),
        )
    }

    /// The `k` hottest vertices by summed sketch cost (ties → lowest vertex).
    pub fn hottest(&self, k: usize) -> Vec<(u32, u64)> {
        let mut out: Vec<(u32, u64)> = self.hot.iter().map(|(&v, &w)| (v, w)).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    /// The matrix's pairs by volume: bytes, then messages, descending (ties
    /// → `(src, dst)` ascending).
    pub fn pairs_by_volume(&self) -> Vec<&CommPair> {
        let mut ranked: Vec<&CommPair> = self.comm.values().collect();
        ranked.sort_by_key(|p| {
            (
                std::cmp::Reverse(p.bytes),
                std::cmp::Reverse(p.messages),
                p.src,
                p.dst,
            )
        });
        ranked
    }

    /// The superstep rows `keep` selects, ascending.
    fn rows(&self, keep: fn(&StepRow) -> bool) -> Vec<(u64, &StepRow)> {
        self.steps
            .iter()
            .filter(|(_, row)| keep(row))
            .map(|(&step, row)| (step, row))
            .collect()
    }

    fn imbalance(&self, superstep: u64) -> f64 {
        self.steps
            .get(&superstep)
            .map_or(0.0, StepRow::compute_imbalance)
    }

    fn mem_totals(&self) -> [u64; NUM_COMPONENTS] {
        let mut totals = [0u64; NUM_COMPONENTS];
        for row in self.mem_peaks.values() {
            for (t, p) in totals.iter_mut().zip(row) {
                *t += p;
            }
        }
        totals
    }

    /// The line every report opens with.
    fn header(&self, out: &mut String, command: &str, n: u64, what: &str) {
        let _ = writeln!(
            out,
            "{command}engine {} on {} ({} workers), {n} {what} over {} supersteps",
            self.meta.engine,
            self.meta.cluster,
            self.meta.workers,
            self.supersteps(),
        );
    }

    /// The per-phase quantile table: count, mean, p50/p90/p99, max.
    fn phase_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<5} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "phase", "records", "mean", "p50", "p90", "p99", "max"
        );
        for (name, h) in Phase::ALL.map(Phase::name).iter().zip(&self.hists) {
            let s = h.snapshot();
            if s.is_empty() {
                let _ = writeln!(out, "{name:<5} {:>9} {:>10}", 0, "-");
                continue;
            }
            let _ = writeln!(
                out,
                "{:<5} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
                name,
                s.count,
                fmt_ns(s.mean() as u64),
                fmt_ns(s.percentile(0.50)),
                fmt_ns(s.percentile(0.90)),
                fmt_ns(s.percentile(0.99)),
                fmt_ns(s.max),
            );
        }
        out
    }

    /// Sparkline rows over the last `width` supersteps: wall time per
    /// superstep, computed vertices, and messages sent.
    fn sparkline_table(&self, width: usize) -> String {
        let series: [(&str, Vec<u64>); 3] = [
            ("time", self.steps.values().map(StepRow::total_ns).collect()),
            (
                "computed",
                self.steps.values().map(|r| r.computed).collect(),
            ),
            (
                "messages",
                self.steps.values().map(|r| r.messages).collect(),
            ),
        ];
        let mut out = String::new();
        let _ = writeln!(
            out,
            "last {} of {} supersteps (left = older):",
            self.steps.len().min(width),
            self.steps.len()
        );
        for (name, values) in series {
            let _ = writeln!(out, "{:>9} {}", name, sparkline_last(&values, width));
        }
        out
    }
}

/// The last 16 rows of a table.
fn last16<T>(rows: &[T]) -> &[T] {
    &rows[rows.len().saturating_sub(16)..]
}

/// Writes each item with `each`, `sep` between items.
fn join<T>(
    out: &mut String,
    sep: &str,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        each(out, item);
    }
}

/// `"component": bytes` for every component, comma-separated.
fn component_fields(out: &mut String, row: &[u64; NUM_COMPONENTS]) {
    join(out, ", ", Component::ALL.iter().zip(row), |out, (c, p)| {
        let _ = write!(out, "\"{}\": {p}", c.name());
    });
}

/// Renders nanoseconds with an adaptive unit (`ns`, `us`, `ms`, `s`).
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{:.1}us", ns as f64 / 1e3),
        10_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Formats a byte count compactly and deterministically (`999 B`,
/// `1.5 KiB`, `23.4 MiB`, `1.2 GiB`).
pub fn fmt_bytes(b: u64) -> String {
    const KIB: f64 = 1024.0;
    let bf = b as f64;
    if bf >= KIB * KIB * KIB {
        format!("{:.1} GiB", bf / (KIB * KIB * KIB))
    } else if bf >= KIB * KIB {
        format!("{:.1} MiB", bf / (KIB * KIB))
    } else if bf >= KIB {
        format!("{:.1} KiB", bf / KIB)
    } else {
        format!("{b} B")
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// The `cyclops metrics` report: run header, per-phase quantile table, and
/// superstep sparklines.
pub fn metrics_report(s: &TraceSummary) -> String {
    let mut out = String::new();
    s.header(&mut out, "", s.records, "records");
    out.push_str(&s.phase_table());
    out.push('\n');
    out.push_str(&s.sparkline_table(64));
    out
}

/// One frame of the `cyclops top` dashboard; `meta` is `None` until the
/// followed file's header has been read.
pub fn top_frame(meta: Option<&TraceMeta>, s: &TraceSummary, width: usize) -> String {
    let mut out = String::new();
    match meta {
        Some(m) => {
            let _ = writeln!(
                out,
                "cyclops top — engine {} on {} ({} workers)",
                m.engine, m.cluster, m.workers
            );
        }
        None => {
            let _ = writeln!(out, "cyclops top — waiting for trace header...");
        }
    }
    let complete = meta
        .is_some_and(|m| m.workers > 0 && s.supersteps().checked_mul(m.workers) == Some(s.records));
    let _ = writeln!(
        out,
        "{} records, {} supersteps{}",
        s.records,
        s.supersteps(),
        if complete { "" } else { " (partial)" },
    );
    out.push('\n');
    out.push_str(&s.phase_table());
    out.push('\n');
    out.push_str(&s.sparkline_table(width));
    out
}

const SHADES: [char; 5] = ['.', '░', '▒', '▓', '█'];

fn shade(value: u64, max: u64) -> char {
    if value == 0 || max == 0 {
        SHADES[0]
    } else {
        // Map (0, max] onto the four non-zero shades.
        let i = 1 + (value.saturating_mul(3)) / max;
        SHADES[i.min(4) as usize]
    }
}

/// The `cyclops comm` report: a worker-pair heatmap of wire bytes over the
/// workers that wrote records, the top pairs by volume, and the row-sum
/// consistency verdict. Deterministic for a fixed trace file.
pub fn comm_report(s: &TraceSummary) -> String {
    let mut out = String::new();
    s.header(&mut out, "comm: ", s.records, "records");
    if s.comm.is_empty() {
        out.push_str("no communication matrix recorded (trace predates comm rows)\n");
        return out;
    }
    let (mut total_msgs, mut total_bytes, mut dense, mut sparse) = (0u64, 0u64, 0u64, 0u64);
    for p in s.comm.values() {
        total_msgs += p.messages;
        total_bytes += p.bytes;
        dense += p.wire_dense;
        sparse += p.wire_sparse;
    }
    let _ = writeln!(
        out,
        "{total_msgs} messages / {total_bytes} wire bytes over {} worker pairs \
         ({dense} dense / {sparse} sparse batches)",
        s.comm.len(),
    );
    out.push('\n');

    // Shade heatmap of wire bytes (messages fall back when no pair crossed
    // a machine boundary, e.g. single-machine clusters).
    let unit = if total_bytes > 0 {
        "wire bytes"
    } else {
        "messages"
    };
    let cell = |src: u64, dst: u64| {
        s.comm
            .get(&(src, dst))
            .map_or(0, |p| if total_bytes > 0 { p.bytes } else { p.messages })
    };
    let max = s
        .comm
        .keys()
        .filter(|(src, dst)| s.workers.contains(src) && s.workers.contains(dst))
        .map(|&(src, dst)| cell(src, dst))
        .max()
        .unwrap_or(0);
    let _ = writeln!(out, "heatmap ({unit}, src rows -> dst cols):");
    out.push_str("       ");
    for d in &s.workers {
        let _ = write!(out, "{d:>3}");
    }
    out.push('\n');
    for &src in &s.workers {
        let _ = write!(out, "  {src:>4} ");
        for &dst in &s.workers {
            let _ = write!(out, "  {}", shade(cell(src, dst), max));
        }
        out.push('\n');
    }
    out.push('\n');

    out.push_str("top pairs by volume:\n");
    let _ = writeln!(
        out,
        "  {:>4} {:>4} {:>10} {:>12} {:>7} {:>7}",
        "src", "dst", "messages", "bytes", "dense", "sparse"
    );
    for p in s.pairs_by_volume().iter().take(12) {
        let _ = writeln!(
            out,
            "  {:>4} {:>4} {:>10} {:>12} {:>7} {:>7}",
            p.src, p.dst, p.messages, p.bytes, p.wire_dense, p.wire_sparse
        );
    }
    out.push('\n');

    if s.mismatches.is_empty() {
        let _ = writeln!(
            out,
            "row sums consistent with sent counters in all {} records",
            s.records
        );
    } else {
        let _ = writeln!(
            out,
            "ROW-SUM MISMATCH in {} records (superstep, worker): {:?}",
            s.mismatches.len(),
            &s.mismatches[..s.mismatches.len().min(8)]
        );
    }
    out
}

/// Renders `ns` as Chrome trace-event microseconds (`ts`/`dur` fields):
/// integer microseconds with the nanosecond remainder as three decimals.
fn chrome_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn chrome_args(s: &FlightSpan) -> String {
    match s.kind {
        SpanKind::Parse | SpanKind::Send => format!("{{\"superstep\":{}}}", s.a),
        SpanKind::Compute => {
            if s.b > 0 {
                format!("{{\"superstep\":{},\"sub\":{}}}", s.a, s.b)
            } else {
                format!("{{\"superstep\":{}}}", s.a)
            }
        }
        // `b` is the `Wait` kind; a superstep wait (0) prints as every
        // barrier span did before waits had kinds.
        SpanKind::Barrier => match s.b {
            0 => format!("{{\"epoch\":{}}}", s.a),
            1 => format!("{{\"epoch\":{},\"wait\":\"round\"}}", s.a),
            _ => format!("{{\"epoch\":{},\"wait\":\"local\"}}", s.a),
        },
        SpanKind::Round => format!(
            "{{\"bucket\":{},\"round\":{},\"selected\":{}}}",
            s.a, s.b, s.c
        ),
        SpanKind::Chunk => format!(
            "{{\"superstep\":{},\"chunk\":{},\"vertices\":{}}}",
            s.a, s.b, s.c
        ),
        SpanKind::Flush => format!("{{\"dst\":{},\"bytes\":{},\"mode\":{}}}", s.a, s.b, s.c),
    }
}

/// The `cyclops mem` report: a per-worker, per-component peak table from
/// the trace's `{"mem":…}` samples, plus the process RSS high-water marks.
pub fn mem_report(s: &TraceSummary) -> String {
    let mut out = String::new();
    s.header(&mut out, "mem: ", s.mem_samples, "samples");
    if s.mem_samples == 0 {
        out.push_str("no memory samples recorded (run without --mem)\n");
        return out;
    }
    out.push_str("peak bytes by worker and component:\n");
    let _ = write!(out, "  {:>8}", "worker");
    for c in Component::ALL {
        let _ = write!(out, " {:>12}", c.name());
    }
    let _ = writeln!(out, " {:>12}", "total");
    let mut line = |label: &dyn std::fmt::Display, row: &[u64; NUM_COMPONENTS]| {
        let _ = write!(out, "  {label:>8}");
        for p in row {
            let _ = write!(out, " {:>12}", fmt_bytes(*p));
        }
        let _ = writeln!(out, " {:>12}", fmt_bytes(row.iter().sum()));
    };
    for (w, row) in &s.mem_peaks {
        match *w {
            u32::MAX => line(&"untagged", row),
            _ => line(w, row),
        }
    }
    line(&"all", &s.mem_totals());
    if s.rss_kb > 0 || s.hwm_kb > 0 {
        let _ = writeln!(
            out,
            "process rss: peak {} (VmHWM {})",
            fmt_bytes(s.rss_kb * 1024),
            fmt_bytes(s.hwm_kb * 1024),
        );
    } else {
        out.push_str("process rss: unavailable (/proc/self/status not readable)\n");
    }
    out
}

/// The `cyclops mem --json` report: the memory peaks as one deterministic
/// JSON object (stable key order, integers only; the untagged slot is
/// reported as worker `-1`).
pub fn mem_json(s: &TraceSummary) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"engine\": \"{}\",\n  \"cluster\": \"{}\",\n  \"samples\": {},\n  \
         \"supersteps\": {},\n  \"rss_kb\": {},\n  \"hwm_kb\": {},\n  \"workers\": [",
        s.meta.engine,
        s.meta.cluster,
        s.mem_samples,
        s.supersteps(),
        s.rss_kb,
        s.hwm_kb,
    );
    join(&mut out, ",", &s.mem_peaks, |out, (&w, row)| {
        let worker = if w == u32::MAX { -1 } else { i64::from(w) };
        let _ = write!(out, "\n    {{\"worker\": {worker}, \"peak\": {{");
        component_fields(out, row);
        out.push_str("}}");
    });
    out.push_str("\n  ],\n  \"totals\": {");
    component_fields(&mut out, &s.mem_totals());
    out.push_str("}\n}\n");
    out
}

/// Exports a trace as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto), one process per worker that wrote records. Real
/// flight-recorder spans are used when the trace has them (`--flight`
/// runs); otherwise one complete-event per phase per record is synthesized
/// on a per-worker cumulative clock, which preserves relative phase widths
/// but not true wall-clock alignment across workers.
pub fn chrome_trace(trace: &RunTrace, s: &TraceSummary) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let emit = |out: &mut String, first: &mut bool, line: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(&line);
    };
    for w in &s.workers {
        emit(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"M\",\"pid\":{w},\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"worker {w}\"}}}}"
            ),
        );
    }
    if trace.spans.is_empty() {
        // Synthesized fallback: per-worker cumulative clocks from the
        // deterministic phase counters.
        let mut clock: BTreeMap<u64, u64> = BTreeMap::new();
        for r in &trace.records {
            let t = clock.entry(r.worker).or_default();
            for (phase, ns) in
                Phase::ALL
                    .into_iter()
                    .zip([r.parse_ns, r.compute_ns, r.send_ns, r.sync_ns])
            {
                emit(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"X\",\"pid\":{},\"tid\":0,\"ts\":{},\"dur\":{},\
                         \"name\":\"{}\",\"args\":{{\"superstep\":{},\"synthetic\":true}}}}",
                        r.worker,
                        chrome_us(*t),
                        chrome_us(ns),
                        phase.name(),
                        r.superstep
                    ),
                );
                *t = t.saturating_add(ns);
            }
        }
    } else {
        for span in &trace.spans {
            emit(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
                     \"name\":\"{}\",\"args\":{}}}",
                    span.worker,
                    span.thread,
                    chrome_us(span.start_ns),
                    chrome_us(span.dur_ns),
                    span.kind.name(),
                    chrome_args(span)
                ),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// The `cyclops timeline` stdout summary: span counts and total time per
/// kind, or the synthesized-fallback note for traces without spans.
pub fn timeline_summary(s: &TraceSummary) -> String {
    let mut out = String::new();
    let spans: u64 = s.spans.iter().map(|&(count, _)| count).sum();
    s.header(&mut out, "timeline: ", spans, "spans");
    if spans == 0 {
        out.push_str(
            "no flight-recorder spans in trace (record with --flight); \
             --chrome synthesizes phase spans from the records instead\n",
        );
        return out;
    }
    let _ = writeln!(
        out,
        "  {:<8} {:>8} {:>12} {:>12}",
        "kind", "spans", "total", "mean"
    );
    for (kind, &(count, total)) in SpanKind::ALL.iter().zip(&s.spans) {
        if count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "  {:<8} {:>8} {:>12} {:>12}",
            kind.name(),
            count,
            fmt_ns(total),
            fmt_ns(total / count),
        );
    }
    out
}

/// The human `cyclops why-slow` report: run summary, wall-time
/// decomposition, straggler ranking, per-superstep critical path,
/// hot-vertex table, the wire, communication, hybrid, bucket, migration
/// and memory paragraphs, and sparkline timelines. Deterministic for a
/// fixed trace file.
pub fn why_slow_report(s: &TraceSummary) -> String {
    let cp = s.critical_chain();
    let mut out = String::new();
    s.header(&mut out, "why-slow: ", s.records, "records");
    let _ = writeln!(
        out,
        "critical path {} (chain of per-superstep maxima)",
        fmt_ns(cp.total_span_ns)
    );
    // The attribution pool: every worker's exact span decomposition, summed.
    let pool = cp
        .total_work_ns
        .saturating_add(cp.total_wait_ns)
        .saturating_add(cp.total_residual_ns);
    let _ = writeln!(
        out,
        "aggregate worker time: work {:.1}%  barrier-wait {:.1}%  residual {:.1}%",
        pct(cp.total_work_ns, pool),
        pct(cp.total_wait_ns, pool),
        pct(cp.total_residual_ns, pool),
    );
    out.push('\n');

    let ranking = cp.straggler_ranking();
    if ranking.is_empty() {
        out.push_str("no supersteps recorded\n");
        return out;
    }
    out.push_str("straggler ranking (barrier wait each worker's phase caused in others):\n");
    for share in ranking.iter().take(8) {
        let _ = writeln!(
            out,
            "  worker {} {}  {:>10}  {:>5.1}% of aggregate time  ({} supersteps)",
            share.worker,
            share.phase.label(),
            fmt_ns(share.caused_wait_ns),
            pct(share.caused_wait_ns, pool),
            share.supersteps,
        );
    }
    out.push('\n');

    out.push_str("per-superstep critical path (last 16):\n");
    let _ = writeln!(
        out,
        "  {:>5} {:>10} {:>9} {:>6} {:>10} {:>12}",
        "step", "span", "straggler", "phase", "work", "caused-wait"
    );
    for p in last16(&cp.supersteps) {
        let _ = writeln!(
            out,
            "  {:>5} {:>10} {:>9} {:>6} {:>10} {:>12}",
            p.superstep,
            fmt_ns(p.span_ns),
            p.straggler,
            p.straggler_phase.label(),
            fmt_ns(p.straggler_work_ns),
            fmt_ns(p.caused_wait_ns),
        );
    }
    out.push('\n');

    let hot = s.hottest(10);
    if hot.is_empty() {
        out.push_str("hot vertices: none recorded (run with --hot K to capture)\n");
    } else {
        let total: u64 = hot.iter().map(|&(_, w)| w).sum();
        out.push_str("hot vertices (sketch cost summed over supersteps):\n");
        let _ = writeln!(out, "  {:>10} {:>12} {:>7}", "vertex", "cost", "share");
        for &(v, w) in &hot {
            let _ = writeln!(out, "  {:>10} {:>12} {:>6.1}%", v, w, pct(w, total));
        }
    }
    out.push('\n');

    let mix = s.rows(StepRow::is_mixed);
    if mix.is_empty() {
        out.push_str("wire encoding: no adaptive batches recorded (legacy codec path)\n");
    } else {
        let dense: u64 = mix.iter().map(|(_, r)| r.wire_dense).sum();
        let sparse: u64 = mix.iter().map(|(_, r)| r.wire_sparse).sum();
        let _ = writeln!(
            out,
            "wire encoding: {dense} dense / {sparse} sparse batches"
        );
        let _ = writeln!(out, "  {:>5} {:>7} {:>7}", "step", "dense", "sparse");
        for (step, r) in last16(&mix) {
            let _ = writeln!(
                out,
                "  {:>5} {:>7} {:>7}",
                step, r.wire_dense, r.wire_sparse
            );
        }
    }
    out.push('\n');

    if s.comm.is_empty() {
        out.push_str("communication matrix: none recorded (trace predates comm rows)\n");
    } else {
        let msgs: u64 = s.comm.values().map(|p| p.messages).sum();
        let bytes: u64 = s.comm.values().map(|p| p.bytes).sum();
        let verdict = if s.mismatches.is_empty() {
            "row sums consistent".to_string()
        } else {
            format!("ROW-SUM MISMATCH in {} records", s.mismatches.len())
        };
        let _ = writeln!(
            out,
            "communication matrix: {msgs} messages / {bytes} wire bytes over {} worker pairs, \
             {verdict}",
            s.comm.len(),
        );
        let _ = writeln!(
            out,
            "  {:>4} {:>4} {:>10} {:>12}",
            "src", "dst", "messages", "bytes"
        );
        for p in s.pairs_by_volume().iter().take(8) {
            let _ = writeln!(
                out,
                "  {:>4} {:>4} {:>10} {:>12}",
                p.src, p.dst, p.messages, p.bytes
            );
        }
    }
    out.push('\n');

    // Hybrid replication: direct messages bypass replicas for cold boundary
    // vertices; their share of the traffic is what the threshold trades for
    // the replicas it saves. They ride in the same batches as replica syncs,
    // so there is a message share and no byte share.
    if s.direct_messages == 0 {
        out.push_str("hybrid replication: off (every boundary vertex replicated)\n");
    } else {
        let total_msgs: u64 = s.steps.values().map(|r| r.messages).sum();
        let _ = writeln!(
            out,
            "hybrid replication: {} direct messages ({:.1}% of messages) took the \
             no-replica path; the rest is replica sync for hot boundary vertices",
            s.direct_messages,
            pct(s.direct_messages, total_msgs),
        );
    }
    out.push('\n');

    let buckets = s.rows(StepRow::is_bucketed);
    if buckets.is_empty() {
        out.push_str("bucketed execution: off (one barrier per relaxation hop)\n");
    } else {
        let rounds: u64 = buckets.iter().map(|(_, r)| r.fused).sum();
        let _ = writeln!(
            out,
            "bucketed execution: {rounds} relaxation rounds fused into {} supersteps \
             ({} barrier rounds saved)",
            buckets.len(),
            rounds.saturating_sub(buckets.len() as u64),
        );
        let _ = writeln!(
            out,
            "  {:>5} {:>7} {:>6} {:>10}",
            "step", "bucket", "fused", "occupancy"
        );
        for (step, r) in last16(&buckets) {
            let _ = writeln!(
                out,
                "  {:>5} {:>7} {:>6} {:>10}",
                step, r.bucket, r.fused, r.occupancy
            );
        }
    }
    out.push('\n');

    // Migration paragraph — only for `--migrate` traces (static runs
    // record no `migrated` counters, keeping pre-existing reports
    // byte-identical).
    let moves = s.rows(StepRow::is_boundary);
    if !moves.is_empty() {
        let moved: u64 = moves.iter().map(|(_, r)| r.migrated).sum();
        let _ = writeln!(
            out,
            "dynamic migration: {moved} masters moved across {} epoch boundaries \
             (imbalance = max/mean worker compute time per superstep)",
            moves.len(),
        );
        let _ = writeln!(
            out,
            "  {:>5} {:>7} {:>11} {:>11}",
            "step", "moved", "imb-before", "imb-after"
        );
        for &(step, r) in last16(&moves) {
            let _ = writeln!(
                out,
                "  {:>5} {:>7} {:>11.2} {:>11.2}",
                step,
                r.migrated,
                s.imbalance(step.saturating_sub(1)),
                r.compute_imbalance()
            );
        }
        out.push('\n');
    }

    // Memory paragraph — only for `--mem` traces (plain traces carry no
    // samples, keeping pre-existing reports byte-identical).
    if s.mem_samples > 0 {
        let _ = write!(out, "memory ({} samples): peak", s.mem_samples);
        for (c, total) in Component::ALL.iter().zip(s.mem_totals()) {
            if total > 0 {
                let _ = write!(out, " {} {}", c.name(), fmt_bytes(total));
            }
        }
        out.push('\n');
        if s.rss_kb > 0 {
            let _ = writeln!(
                out,
                "  process rss peak {} (VmHWM {}); see `cyclops mem` for the per-worker table",
                fmt_bytes(s.rss_kb * 1024),
                fmt_bytes(s.hwm_kb * 1024),
            );
        } else {
            out.push_str("  process rss unavailable; see `cyclops mem` for the per-worker table\n");
        }
        out.push('\n');
    }

    let spans: Vec<u64> = cp.supersteps.iter().map(|p| p.span_ns).collect();
    let waits: Vec<u64> = cp.supersteps.iter().map(|p| p.caused_wait_ns).collect();
    let _ = writeln!(
        out,
        "timelines over {} supersteps (left = older):",
        cp.supersteps.len()
    );
    let _ = writeln!(out, "{:>12} {}", "span", sparkline_last(&spans, 64));
    let _ = writeln!(out, "{:>12} {}", "caused-wait", sparkline_last(&waits, 64));
    out
}

/// The `cyclops why-slow --json` report: the same analysis as
/// [`why_slow_report`] as one deterministic JSON object (stable key order,
/// integers only), suitable for golden-file testing and scripting.
pub fn why_slow_json(s: &TraceSummary) -> String {
    let cp = s.critical_chain();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"engine\": \"{}\",\n  \"cluster\": \"{}\",\n  \"workers\": {},\n  \
         \"records\": {},\n  \"supersteps\": {},\n  \"critical_path_ns\": {},\n  \
         \"work_ns\": {},\n  \"wait_ns\": {},\n  \"residual_ns\": {},\n",
        s.meta.engine,
        s.meta.cluster,
        s.meta.workers,
        s.records,
        s.supersteps(),
        cp.total_span_ns,
        cp.total_work_ns,
        cp.total_wait_ns,
        cp.total_residual_ns,
    );
    out.push_str("  \"stragglers\": [");
    join(&mut out, ",", cp.straggler_ranking(), |out, x| {
        let _ = write!(
            out,
            "\n    {{\"worker\": {}, \"phase\": \"{}\", \"caused_wait_ns\": {}, \"supersteps\": {}}}",
            x.worker,
            x.phase.name(),
            x.caused_wait_ns,
            x.supersteps,
        );
    });
    out.push_str("\n  ],\n  \"superstep_paths\": [");
    join(&mut out, ",", &cp.supersteps, |out, p| {
        let _ = write!(
            out,
            "\n    {{\"superstep\": {}, \"span_ns\": {}, \"critical_worker\": {}, \
             \"straggler\": {}, \"phase\": \"{}\", \"straggler_work_ns\": {}, \
             \"caused_wait_ns\": {}, \"barrier_ns\": {}}}",
            p.superstep,
            p.span_ns,
            p.critical_worker,
            p.straggler,
            p.straggler_phase.name(),
            p.straggler_work_ns,
            p.caused_wait_ns,
            p.barrier_ns,
        );
    });
    out.push_str("\n  ],\n  \"hot_vertices\": [");
    join(&mut out, ",", s.hottest(10), |out, (v, w)| {
        let _ = write!(out, "\n    {{\"vertex\": {v}, \"cost\": {w}}}");
    });
    out.push_str("\n  ],\n  \"wire_mix\": [");
    join(
        &mut out,
        ",",
        s.rows(StepRow::is_mixed),
        |out, (step, r)| {
            let _ = write!(
                out,
                "\n    {{\"superstep\": {step}, \"dense\": {}, \"sparse\": {}}}",
                r.wire_dense, r.wire_sparse
            );
        },
    );
    let _ = write!(
        out,
        "\n  ],\n  \"comm_consistent\": {},\n  \"comm\": [",
        s.mismatches.is_empty()
    );
    join(&mut out, ",", s.comm.values(), |out, p| {
        let _ = write!(
            out,
            "\n    {{\"src\": {}, \"dst\": {}, \"messages\": {}, \"bytes\": {}, \
             \"wire_dense\": {}, \"wire_sparse\": {}}}",
            p.src, p.dst, p.messages, p.bytes, p.wire_dense, p.wire_sparse
        );
    });
    out.push_str("\n  ],\n  \"bucketing\": [");
    join(
        &mut out,
        ",",
        s.rows(StepRow::is_bucketed),
        |out, (step, r)| {
            let _ = write!(
                out,
                "\n    {{\"superstep\": {step}, \"bucket\": {}, \"fused\": {}, \"occupancy\": {}}}",
                r.bucket, r.fused, r.occupancy
            );
        },
    );
    out.push_str("\n  ]");
    // Migration array — only for `--migrate` traces, so goldens from
    // static runs are unchanged. Imbalance is reported in integer
    // permille to keep the object float-free.
    let moves = s.rows(StepRow::is_boundary);
    if !moves.is_empty() {
        out.push_str(",\n  \"migrations\": [");
        join(&mut out, ",", moves, |out, (step, r)| {
            let _ = write!(
                out,
                "\n    {{\"superstep\": {step}, \"moved\": {}, \
                 \"imbalance_before_permille\": {}, \"imbalance_after_permille\": {}}}",
                r.migrated,
                (s.imbalance(step.saturating_sub(1)) * 1000.0).round() as u64,
                (r.compute_imbalance() * 1000.0).round() as u64,
            );
        });
        out.push_str("\n  ]");
    }
    // Memory object — only for `--mem` traces, so goldens from plain runs
    // are unchanged.
    if s.mem_samples > 0 {
        let _ = write!(
            out,
            ",\n  \"memory\": {{\"samples\": {}, \"rss_kb\": {}, \"hwm_kb\": {}, \"peak\": {{",
            s.mem_samples, s.rss_kb, s.hwm_kb
        );
        component_fields(&mut out, &s.mem_totals());
        out.push_str("}}");
    }
    out.push_str("\n}\n");
    out
}

/// Tails a trace file incrementally: each [`TraceFollower::poll`] reads
/// only the bytes appended since the previous poll and yields the newly
/// completed records. A partially written last line (the writer flushes
/// whole lines, but a poll can still race the OS) is buffered until its
/// newline arrives.
pub struct TraceFollower {
    path: String,
    offset: u64,
    partial: String,
    meta: Option<TraceMeta>,
}

impl TraceFollower {
    /// A follower for `path`, starting at the beginning of the file.
    pub fn new(path: &str) -> Self {
        TraceFollower {
            path: path.to_string(),
            offset: 0,
            partial: String::new(),
            meta: None,
        }
    }

    /// The trace header, once a poll has seen it.
    pub fn meta(&self) -> Option<&TraceMeta> {
        self.meta.as_ref()
    }

    /// The byte offset the next poll resumes from — everything before it
    /// has already been read and will not be read again.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Reads newly appended bytes and parses the completed lines. Returns
    /// the new records; the header, when first seen, lands in
    /// [`TraceFollower::meta`], and span, mem and unparsable lines are
    /// skipped — a live file may still be starting.
    pub fn poll(&mut self) -> std::io::Result<Vec<TraceRecord>> {
        let mut f = std::fs::File::open(&self.path)?;
        let len = f.metadata()?.len();
        if len < self.offset {
            // Truncated behind us (file replaced): start over.
            self.offset = 0;
            self.partial.clear();
            self.meta = None;
        }
        if len == self.offset {
            return Ok(Vec::new());
        }
        f.seek(SeekFrom::Start(self.offset))?;
        let mut buf = String::new();
        f.take(len - self.offset).read_to_string(&mut buf)?;
        self.offset = len;
        self.partial.push_str(&buf);
        let mut records = Vec::new();
        while let Some(nl) = self.partial.find('\n') {
            let line: String = self.partial.drain(..=nl).collect();
            match TraceLine::parse(&line) {
                Some(TraceLine::Meta(meta)) if self.meta.is_none() => self.meta = Some(meta),
                Some(TraceLine::Record(r)) => records.push(r),
                _ => {}
            }
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(superstep: u64, worker: u64, ns: u64) -> TraceRecord {
        TraceRecord {
            superstep,
            worker,
            parse_ns: ns,
            compute_ns: 2 * ns,
            send_ns: ns / 2,
            sync_ns: ns,
            computed: 10,
            messages: 5,
            ..Default::default()
        }
    }

    #[test]
    fn stats_accumulate_per_phase_and_per_superstep() {
        let mut s = TraceSummary::default();
        for step in 0..3 {
            for w in 0..2 {
                s.add(&record(step, w, 1000));
            }
        }
        assert_eq!(s.records, 6);
        assert_eq!(s.supersteps(), 3);
        let cmp = s.hists[1].snapshot();
        assert_eq!(cmp.count, 6);
        // 2000ns falls in a log-linear bucket; midpoint error ≤ 12.5 %.
        let p50 = cmp.percentile(0.5) as f64;
        assert!((p50 - 2000.0).abs() / 2000.0 <= 0.125, "p50 {p50}");
        assert_eq!(s.steps[&0].computed, 20);
        assert_eq!(s.steps[&0].total_ns(), 2 * (1000 + 2000 + 500 + 1000));
    }

    #[test]
    fn phase_table_lists_all_four_phases() {
        let mut s = TraceSummary::default();
        s.add(&record(0, 0, 5000));
        let t = s.phase_table();
        for name in Phase::ALL.map(Phase::name) {
            assert!(t.contains(name), "missing {name} in:\n{t}");
        }
        assert!(t.contains("p99"));
    }

    #[test]
    fn fmt_ns_picks_sensible_units() {
        assert_eq!(fmt_ns(120), "120ns");
        assert_eq!(fmt_ns(45_000), "45.0us");
        assert_eq!(fmt_ns(12_000_000), "12.0ms");
        assert_eq!(fmt_ns(3_200_000_000), "3.20s");
    }

    #[test]
    fn follower_tails_a_growing_file_across_partial_lines() {
        let dir = std::env::temp_dir().join(format!("cyclops-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("follow.jsonl");
        let path_s = path.to_str().unwrap();

        // Exactly the lines a file sink writes (header + records).
        let header = r#"{"engine":"cyclops","cluster":"2x1","workers":2,"values":false}"#;
        let line = |s: u64, w: u64| {
            let mut out = String::new();
            TraceRecord {
                superstep: s,
                worker: w,
                parse_ns: 1,
                compute_ns: 2,
                send_ns: 3,
                sync_ns: 4,
                computed: 1,
                ..Default::default()
            }
            .to_json(&mut out);
            out
        };

        std::fs::write(&path, format!("{header}\n{}\n", line(0, 0))).unwrap();
        let mut fo = TraceFollower::new(path_s);
        let r = fo.poll().unwrap();
        assert_eq!(r.len(), 1);
        assert!(fo.meta().is_some());
        assert_eq!(fo.meta().unwrap().workers, 2);

        // Append one full line plus the *front half* of another.
        let l2 = line(0, 1);
        let l3 = line(1, 0);
        let (front, back) = l3.split_at(20);
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str(&format!("{l2}\n{front}"));
        std::fs::write(&path, &content).unwrap();
        let r = fo.poll().unwrap();
        assert_eq!(r.len(), 1, "half-written line must not parse yet");
        assert_eq!(r[0].worker, 1);

        // Complete the line; the follower stitches it back together.
        content.push_str(&format!("{back}\n"));
        std::fs::write(&path, &content).unwrap();
        let r = fo.poll().unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].superstep, 1);

        // Nothing new -> empty poll.
        assert!(fo.poll().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn follower_polls_incrementally_from_the_last_byte_offset() {
        // Regression pin for the incremental contract: a poll reads only
        // appended bytes. Proven by corrupting the already-consumed head
        // in-place (same length, so no truncation reset) — if poll re-read
        // from byte 0 it would now fail to parse; instead the appended
        // record comes back cleanly.
        let dir = std::env::temp_dir().join(format!("cyclops-obs-inc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("incremental.jsonl");
        let path_s = path.to_str().unwrap();

        let header = r#"{"engine":"bsp","cluster":"1x2","workers":2,"values":false}"#;
        let line = |s: u64, w: u64| {
            let mut out = String::new();
            TraceRecord {
                superstep: s,
                worker: w,
                compute_ns: 10,
                ..Default::default()
            }
            .to_json(&mut out);
            out
        };
        std::fs::write(&path, format!("{header}\n{}\n", line(0, 0))).unwrap();
        let mut fo = TraceFollower::new(path_s);
        assert_eq!(fo.offset(), 0);
        assert_eq!(fo.poll().unwrap().len(), 1);
        let consumed = fo.offset();
        assert_eq!(consumed, std::fs::metadata(&path).unwrap().len());

        // Overwrite every consumed byte with garbage of identical length,
        // then append one more record.
        let garbage = "x".repeat(consumed as usize);
        std::fs::write(&path, format!("{garbage}{}\n", line(0, 1))).unwrap();
        let r = fo.poll().unwrap();
        assert_eq!(r.len(), 1, "appended record parses without re-reading");
        assert_eq!(r[0].worker, 1);
        assert!(fo.offset() > consumed, "offset only moves forward");

        // Truncation below the offset resets the follower to byte 0.
        std::fs::write(&path, format!("{header}\n{}\n", line(5, 0))).unwrap();
        let r = fo.poll().unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].superstep, 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn phase_record(s: u64, w: u64, prs: u64, cmp: u64, snd: u64, syn: u64) -> TraceRecord {
        TraceRecord {
            superstep: s,
            worker: w,
            parse_ns: prs,
            compute_ns: cmp,
            send_ns: snd,
            sync_ns: syn,
            ..Default::default()
        }
    }

    fn skewed_trace() -> RunTrace {
        RunTrace {
            spans: Vec::new(),
            mem: Vec::new(),
            meta: TraceMeta {
                engine: "cyclops".into(),
                cluster: "1x2x1".into(),
                workers: 2,
                values: false,
            },
            records: vec![
                phase_record(0, 0, 10, 900, 40, 50),
                phase_record(0, 1, 10, 100, 40, 850),
                phase_record(1, 0, 10, 80, 10, 0),
                phase_record(1, 1, 60, 20, 20, 0),
            ],
        }
    }

    fn why_slow(trace: &RunTrace) -> String {
        why_slow_report(&TraceSummary::of(trace))
    }

    fn why_slow_js(trace: &RunTrace) -> String {
        why_slow_json(&TraceSummary::of(trace))
    }

    /// `(superstep, a, b, c)` of the superstep rows `keep` selects.
    fn step_cols<T>(
        trace: &RunTrace,
        keep: fn(&StepRow) -> bool,
        cols: fn(&StepRow) -> T,
    ) -> Vec<(u64, T)> {
        let s = TraceSummary::of(trace);
        let rows = s.rows(keep);
        rows.into_iter().map(|(step, r)| (step, cols(r))).collect()
    }

    #[test]
    fn critical_path_bridge_groups_records_by_superstep() {
        let cp = TraceSummary::of(&skewed_trace()).critical_chain();
        assert_eq!(cp.supersteps.len(), 2);
        assert_eq!(cp.supersteps[0].straggler, 0);
        assert_eq!(cp.supersteps[0].straggler_phase, Phase::Compute);
        assert_eq!(cp.supersteps[0].caused_wait_ns, 850);
        assert_eq!(cp.total_span_ns, 1000 + 100);
    }

    #[test]
    fn hot_vertices_sum_across_supersteps() {
        let mut trace = skewed_trace();
        trace.records[0].hot = vec![(7, 100), (3, 40)];
        trace.records[2].hot = vec![(7, 60), (9, 50)];
        let s = TraceSummary::of(&trace);
        assert_eq!(s.hottest(10), vec![(7, 160), (9, 50), (3, 40)]);
        assert_eq!(s.hottest(1), vec![(7, 160)]);
        assert!(TraceSummary::of(&skewed_trace()).hottest(10).is_empty());
    }

    #[test]
    fn why_slow_report_names_the_straggler() {
        let report = why_slow(&skewed_trace());
        assert!(report.contains("critical path"), "{report}");
        assert!(report.contains("worker 0 CMP"), "{report}");
        assert!(report.contains("straggler ranking"), "{report}");
        assert!(report.contains("--hot K"), "{report}");
        // Deterministic for a fixed trace.
        assert_eq!(report, why_slow(&skewed_trace()));
    }

    #[test]
    fn wire_mix_aggregates_and_surfaces_in_reports() {
        let mut trace = skewed_trace();
        trace.records[0].wire_dense = 3;
        trace.records[1].wire_sparse = 2;
        trace.records[2].wire_sparse = 1;
        let mix = step_cols(&trace, StepRow::is_mixed, |r| (r.wire_dense, r.wire_sparse));
        assert_eq!(mix, vec![(0, (3, 2)), (1, (0, 1))]);
        let report = why_slow(&trace);
        assert!(report.contains("3 dense / 3 sparse batches\n"), "{report}");
        let j = why_slow_js(&trace);
        assert!(j.contains("\"wire_mix\": ["), "{j}");
        assert!(
            j.contains("{\"superstep\": 1, \"dense\": 0, \"sparse\": 1}"),
            "{j}"
        );
        // Legacy traces degrade to an explicit absence line / empty array.
        assert!(why_slow(&skewed_trace()).contains("no adaptive batches"));
        assert!(why_slow_js(&skewed_trace()).contains("\"wire_mix\": [\n  ]"));
    }

    #[test]
    fn bucketing_aggregates_and_surfaces_in_reports() {
        let mut trace = skewed_trace();
        // Superstep 0 drained bucket 0 over 5 fused rounds; worker 0
        // computed 7 distinct vertices, worker 1 computed 4.
        trace.records[0].fused = 5;
        trace.records[0].bucket = 0;
        trace.records[0].bucket_occupancy = 7;
        trace.records[1].fused = 5;
        trace.records[1].bucket = 0;
        trace.records[1].bucket_occupancy = 4;
        trace.records[2].fused = 2;
        trace.records[2].bucket = 3;
        trace.records[2].bucket_occupancy = 1;
        let rows = step_cols(&trace, StepRow::is_bucketed, |r| {
            (r.bucket, r.fused, r.occupancy)
        });
        assert_eq!(rows, vec![(0, (0, 5, 11)), (1, (3, 2, 1))]);
        let report = why_slow(&trace);
        assert!(
            report.contains("7 relaxation rounds fused into 2 supersteps"),
            "{report}"
        );
        assert!(report.contains("(5 barrier rounds saved)"), "{report}");
        let j = why_slow_js(&trace);
        assert!(j.contains("\"bucketing\": ["), "{j}");
        assert!(
            j.contains("{\"superstep\": 0, \"bucket\": 0, \"fused\": 5, \"occupancy\": 11}"),
            "{j}"
        );
        // Unbucketed traces degrade to an explicit off line / empty array.
        assert!(why_slow(&skewed_trace()).contains("bucketed execution: off"));
        assert!(why_slow_js(&skewed_trace()).contains("\"bucketing\": [\n  ]"));
    }

    #[test]
    fn migrations_aggregate_and_surface_in_reports() {
        let mut trace = skewed_trace();
        // Boundary before superstep 1: 3 masters landed on worker 0, 2 on
        // worker 1. Superstep 0 compute is 900/100ns (imbalance 1.8);
        // superstep 1 is 80/20ns (imbalance 1.6).
        trace.records[2].migrated = 3;
        trace.records[3].migrated = 2;
        let s = TraceSummary::of(&trace);
        let rows = s.rows(StepRow::is_boundary);
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].0, rows[0].1.migrated), (1, 5));
        assert!((s.imbalance(0) - 1.8).abs() < 1e-9);
        assert!((rows[0].1.compute_imbalance() - 1.6).abs() < 1e-9);
        let report = why_slow(&trace);
        assert!(
            report.contains("dynamic migration: 5 masters moved across 1 epoch boundaries"),
            "{report}"
        );
        assert!(report.contains("imb-before"), "{report}");
        let j = why_slow_js(&trace);
        assert!(
            j.contains(
                "{\"superstep\": 1, \"moved\": 5, \"imbalance_before_permille\": 1800, \
                 \"imbalance_after_permille\": 1600}"
            ),
            "{j}"
        );
        // Static runs keep their reports byte-identical: no paragraph, no
        // JSON key at all (goldens from pre-migration traces still match).
        let plain = TraceSummary::of(&skewed_trace());
        assert!(plain.rows(StepRow::is_boundary).is_empty());
        assert!(!why_slow(&skewed_trace()).contains("dynamic migration"));
        assert!(!why_slow_js(&skewed_trace()).contains("migrations"));
    }

    #[test]
    fn comm_pairs_aggregate_and_surface_in_reports() {
        use cyclops_net::trace::CommEntry;
        let mut trace = skewed_trace();
        trace.records[0].messages = 12;
        trace.records[0].bytes = 300;
        trace.records[0].comm = vec![
            CommEntry {
                dst: 0,
                messages: 4,
                bytes: 0,
                wire_dense: 0,
                wire_sparse: 0,
            },
            CommEntry {
                dst: 1,
                messages: 8,
                bytes: 300,
                wire_dense: 1,
                wire_sparse: 0,
            },
        ];
        trace.records[2].messages = 5;
        trace.records[2].bytes = 90;
        trace.records[2].comm = vec![CommEntry {
            dst: 1,
            messages: 5,
            bytes: 90,
            wire_dense: 0,
            wire_sparse: 1,
        }];
        let s = TraceSummary::of(&trace);
        let pairs: Vec<CommPair> = s.comm.values().copied().collect();
        assert_eq!(
            pairs,
            vec![
                CommPair {
                    src: 0,
                    dst: 0,
                    messages: 4,
                    bytes: 0,
                    wire_dense: 0,
                    wire_sparse: 0
                },
                CommPair {
                    src: 0,
                    dst: 1,
                    messages: 13,
                    bytes: 390,
                    wire_dense: 1,
                    wire_sparse: 1
                },
            ]
        );
        assert!(s.mismatches.is_empty());
        let report = comm_report(&s);
        assert!(report.contains("13"), "{report}");
        assert!(report.contains("row sums consistent"), "{report}");
        assert!(report.contains("heatmap"), "{report}");
        let ws = why_slow(&trace);
        assert!(
            ws.contains("communication matrix: 17 messages / 390 wire bytes over 2 worker pairs"),
            "{ws}"
        );
        let j = why_slow_js(&trace);
        assert!(j.contains("\"comm_consistent\": true"), "{j}");
        assert!(
            j.contains(
                "{\"src\": 0, \"dst\": 1, \"messages\": 13, \"bytes\": 390, \
                 \"wire_dense\": 1, \"wire_sparse\": 1}"
            ),
            "{j}"
        );
        // Legacy traces degrade to an explicit absence line / empty array.
        assert!(why_slow(&skewed_trace()).contains("communication matrix: none recorded"));
        assert!(why_slow_js(&skewed_trace()).contains("\"comm\": [\n  ]"));
        let plain = comm_report(&TraceSummary::of(&skewed_trace()));
        assert!(plain.contains("no communication matrix recorded"));
    }

    #[test]
    fn comm_mismatch_is_reported_loudly() {
        use cyclops_net::trace::CommEntry;
        let mut trace = skewed_trace();
        trace.records[0].messages = 10;
        trace.records[0].comm = vec![CommEntry {
            dst: 1,
            messages: 7, // != the record's sent counter
            bytes: 0,
            wire_dense: 0,
            wire_sparse: 0,
        }];
        let s = TraceSummary::of(&trace);
        assert_eq!(s.mismatches, vec![(0, 0)]);
        assert!(comm_report(&s).contains("ROW-SUM MISMATCH in 1 records"));
        assert!(why_slow_json(&s).contains("\"comm_consistent\": false"));
    }

    fn span(kind: SpanKind, worker: u32, start_ns: u64, dur_ns: u64) -> FlightSpan {
        FlightSpan {
            worker,
            thread: 0,
            kind,
            start_ns,
            dur_ns,
            a: 1,
            b: 2,
            c: 3,
        }
    }

    fn chrome(trace: &RunTrace) -> String {
        chrome_trace(trace, &TraceSummary::of(trace))
    }

    #[test]
    fn chrome_trace_exports_real_spans() {
        let mut trace = skewed_trace();
        trace.spans = vec![
            span(SpanKind::Compute, 0, 1_500, 2_750),
            span(SpanKind::Flush, 1, 4_000, 500),
        ];
        let j = chrome(&trace);
        assert!(j.contains("\"traceEvents\""), "{j}");
        assert!(j.contains("\"ph\":\"X\""), "{j}");
        assert!(
            j.contains("\"ts\":1.500,\"dur\":2.750,\"name\":\"cmp\""),
            "{j}"
        );
        assert!(
            j.contains("\"args\":{\"dst\":1,\"bytes\":2,\"mode\":3}"),
            "{j}"
        );
        assert!(j.contains("\"name\":\"worker 0\""), "{j}");
        assert!(!j.contains("synthetic"), "{j}");
        assert_eq!(j, chrome(&trace));
    }

    #[test]
    fn chrome_trace_synthesizes_from_records_without_spans() {
        let trace = skewed_trace();
        let j = chrome(&trace);
        assert!(j.contains("\"synthetic\":true"), "{j}");
        // Worker 0 superstep 0: prs 10ns at t=0, cmp 900ns at t=10ns.
        assert!(
            j.contains("\"pid\":0,\"tid\":0,\"ts\":0.010,\"dur\":0.900,\"name\":\"cmp\""),
            "{j}"
        );
        // Worker 1's clock is independent of worker 0's.
        assert!(
            j.contains("\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":0.010,\"name\":\"prs\""),
            "{j}"
        );
        assert_eq!(j, chrome(&trace));
    }

    #[test]
    fn timeline_summary_counts_spans_per_kind() {
        let mut trace = skewed_trace();
        let s = timeline_summary(&TraceSummary::of(&trace));
        assert!(s.contains("no flight-recorder spans"), "{s}");
        trace.spans = vec![
            span(SpanKind::Compute, 0, 0, 1_000),
            span(SpanKind::Compute, 1, 0, 3_000),
            span(SpanKind::Barrier, 0, 1_000, 500),
        ];
        let s = timeline_summary(&TraceSummary::of(&trace));
        assert!(s.contains("3 spans"), "{s}");
        assert!(s.contains("cmp"), "{s}");
        assert!(s.contains("barrier"), "{s}");
        assert!(!s.contains("flush"), "{s}");
    }

    #[test]
    fn why_slow_json_is_deterministic_and_exact() {
        let j = why_slow_js(&skewed_trace());
        assert!(j.contains("\"critical_path_ns\": 1100"), "{j}");
        assert!(j.contains("\"phase\": \"cmp\""), "{j}");
        assert!(j.contains("\"caused_wait_ns\": 850"), "{j}");
        assert_eq!(j, why_slow_js(&skewed_trace()));
    }
}
