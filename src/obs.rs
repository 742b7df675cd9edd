//! Run-level observability: phase-latency summaries, sparkline tables, and
//! a live trace follower.
//!
//! This module turns superstep traces (see [`cyclops_net::trace`]) into the
//! human-facing reports behind `cyclops metrics` (post-hoc summary of a
//! trace file) and `cyclops top` (live dashboard tailing a trace while the
//! run is still writing it). Latencies are accumulated into
//! the same log-linear histograms the engines feed
//! ([`cyclops_obs::LogLinearHistogram`], ≤ 12.5 % relative bucket error),
//! so quantiles here and quantiles from the in-process registry agree.

pub use cyclops_obs::{
    flight, global, install_flight, install_global, mem, render_json, render_prometheus, sparkline,
    sparkline_last, Component, Counter, CpPhase, CriticalPath, FlightDump, FlightRecorder, Gauge,
    HistogramSnapshot, LogLinearHistogram, MemAlloc, MetricsRegistry, MetricsServer, PhaseSample,
    SpaceSaving, NUM_COMPONENTS,
};

use cyclops_net::trace::{RunTrace, SpanRecord, TraceLine, TraceMeta, TraceRecord};
use cyclops_obs::SpanKind;
use std::fmt::Write as _;
use std::io::{Read, Seek, SeekFrom};

/// The four phase names, in the paper's order (§3.5).
pub const PHASES: [&str; 4] = ["prs", "cmp", "snd", "syn"];

/// Streaming accumulator over trace records: per-phase latency histograms
/// plus compact per-superstep aggregates for sparklines. Feed it records
/// with [`TraceStats::add`] — out of order is fine — and render at any
/// point; `cyclops top` keeps one alive across polls.
#[derive(Default)]
pub struct TraceStats {
    /// Phase latency histograms, indexed like [`PHASES`].
    hists: [LogLinearHistogram; 4],
    /// Per-superstep totals, indexed by superstep (summed over workers).
    supersteps: Vec<SuperstepAgg>,
    /// Records absorbed so far.
    records: u64,
}

/// Per-superstep aggregate over workers.
#[derive(Clone, Copy, Debug, Default)]
pub struct SuperstepAgg {
    /// Sum of all four phase latencies over all workers, nanoseconds.
    pub total_ns: u64,
    /// Vertices that ran compute, summed over workers.
    pub computed: u64,
    /// Messages sent, summed over workers.
    pub messages: u64,
    /// Workers that reported this superstep.
    pub workers: u64,
}

impl TraceStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the accumulator from a fully loaded trace.
    pub fn from_trace(trace: &RunTrace) -> Self {
        let mut s = Self::new();
        for r in &trace.records {
            s.add(r);
        }
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
        let s = r.superstep as usize;
        if s >= self.supersteps.len() {
            self.supersteps.resize(s + 1, SuperstepAgg::default());
        }
        let agg = &mut self.supersteps[s];
        agg.total_ns += r.parse_ns + r.compute_ns + r.send_ns + r.sync_ns;
        agg.computed += r.computed;
        agg.messages += r.messages;
        agg.workers += 1;
    }

    /// Records absorbed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Supersteps seen so far (highest superstep index + 1).
    pub fn supersteps(&self) -> usize {
        self.supersteps.len()
    }

    /// Snapshot of one phase's latency histogram (index into [`PHASES`]).
    pub fn phase_snapshot(&self, phase: usize) -> HistogramSnapshot {
        self.hists[phase].snapshot()
    }

    /// The per-phase quantile table: count, mean, p50/p90/p99, max.
    pub fn phase_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<5} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "phase", "records", "mean", "p50", "p90", "p99", "max"
        );
        for (i, name) in PHASES.iter().enumerate() {
            let s = self.hists[i].snapshot();
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
    pub fn sparkline_table(&self, width: usize) -> String {
        let series: [(&str, Vec<u64>); 3] = [
            ("time", self.supersteps.iter().map(|a| a.total_ns).collect()),
            (
                "computed",
                self.supersteps.iter().map(|a| a.computed).collect(),
            ),
            (
                "messages",
                self.supersteps.iter().map(|a| a.messages).collect(),
            ),
        ];
        let mut out = String::new();
        let shown = self.supersteps.len().min(width);
        let _ = writeln!(
            out,
            "last {shown} of {} supersteps (left = older):",
            self.supersteps.len()
        );
        for (name, values) in series {
            let _ = writeln!(out, "{:>9} {}", name, sparkline_last(&values, width));
        }
        out
    }
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

/// The full `cyclops metrics` report for a loaded trace: run header,
/// per-phase quantile table, and superstep sparklines.
pub fn metrics_report(trace: &RunTrace) -> String {
    let stats = TraceStats::from_trace(trace);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "engine {} on {} ({} workers), {} records over {} supersteps",
        trace.meta.engine,
        trace.meta.cluster,
        trace.meta.workers,
        stats.records(),
        stats.supersteps(),
    );
    out.push_str(&stats.phase_table());
    out.push('\n');
    out.push_str(&stats.sparkline_table(64));
    out
}

/// One frame of the `cyclops top` dashboard.
pub fn top_frame(meta: Option<&TraceMeta>, stats: &TraceStats, width: usize) -> String {
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
        .map(|m| m.workers > 0 && stats.records() == stats.supersteps() as u64 * m.workers)
        .unwrap_or(false);
    let _ = writeln!(
        out,
        "{} records, {} supersteps{}",
        stats.records(),
        stats.supersteps(),
        if complete { "" } else { " (partial)" },
    );
    out.push('\n');
    out.push_str(&stats.phase_table());
    out.push('\n');
    out.push_str(&stats.sparkline_table(width));
    out
}

/// Projects a loaded trace onto the engine-agnostic critical-path model:
/// records grouped by superstep, each worker's phase nanoseconds becoming
/// one [`PhaseSample`].
pub fn critical_path(trace: &RunTrace) -> CriticalPath {
    let mut grouped: std::collections::BTreeMap<u64, Vec<PhaseSample>> =
        std::collections::BTreeMap::new();
    for r in &trace.records {
        grouped.entry(r.superstep).or_default().push(PhaseSample {
            worker: r.worker,
            parse_ns: r.parse_ns,
            compute_ns: r.compute_ns,
            send_ns: r.send_ns,
            sync_ns: r.sync_ns,
        });
    }
    CriticalPath::analyze(grouped)
}

/// The run-level hot-vertex table: per-superstep sketch outputs summed per
/// vertex over the whole trace, top `k` by total cost (ties → lowest
/// vertex). Empty when the trace was recorded without `--hot`.
pub fn hot_vertices(trace: &RunTrace, k: usize) -> Vec<(u32, u64)> {
    let mut totals: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    for r in &trace.records {
        for &(v, w) in &r.hot {
            *totals.entry(v).or_default() += w;
        }
    }
    let mut out: Vec<(u32, u64)> = totals.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out.truncate(k);
    out
}

/// Per-superstep adaptive wire-encoding mix, summed over workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireMixRow {
    /// Superstep index.
    pub superstep: u64,
    /// Cross-machine batches that self-selected the dense bitmap encoding.
    pub dense: u64,
    /// Cross-machine batches that self-selected the sparse delta encoding.
    pub sparse: u64,
    /// Workers that ran this superstep on the sparse fast path.
    pub fast_workers: u64,
}

/// The per-superstep wire-encoding mix of a trace: dense/sparse batch counts
/// and fast-path worker counts, summed over workers. Supersteps with neither
/// adaptive batches nor fast-path workers are omitted, so a legacy trace
/// yields an empty vec.
pub fn wire_mix(trace: &RunTrace) -> Vec<WireMixRow> {
    let mut rows: std::collections::BTreeMap<u64, WireMixRow> = std::collections::BTreeMap::new();
    for r in &trace.records {
        if r.wire_dense == 0 && r.wire_sparse == 0 && !r.sparse_fast_path {
            continue;
        }
        let row = rows.entry(r.superstep).or_default();
        row.superstep = r.superstep;
        row.dense += r.wire_dense;
        row.sparse += r.wire_sparse;
        row.fast_workers += r.sparse_fast_path as u64;
    }
    rows.into_values().collect()
}

/// Per-superstep bucketed-scheduler accounting, aggregated over workers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BucketRow {
    /// Superstep index.
    pub superstep: u64,
    /// Index of the priority bucket this superstep drained.
    pub bucket: u64,
    /// Relaxation rounds fused behind this superstep's single barrier pair
    /// (every worker records the same global round count; the max guards
    /// against partially written traces).
    pub fused: u64,
    /// Distinct vertices drained from the bucket, summed over workers.
    pub occupancy: u64,
}

/// The per-superstep bucket occupancy of a trace: which bucket each
/// superstep drained, how many relaxation rounds it fused, and how many
/// distinct vertices it computed. Unbucketed runs (and legacy traces)
/// record no fused rounds and yield an empty vec.
pub fn bucketing(trace: &RunTrace) -> Vec<BucketRow> {
    let mut rows: std::collections::BTreeMap<u64, BucketRow> = std::collections::BTreeMap::new();
    for r in &trace.records {
        if r.fused == 0 {
            continue;
        }
        let row = rows.entry(r.superstep).or_default();
        row.superstep = r.superstep;
        row.bucket = r.bucket;
        row.fused = row.fused.max(r.fused);
        row.occupancy += r.bucket_occupancy;
    }
    rows.into_values().collect()
}

/// One dynamic-migration epoch boundary, reconstructed from the trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MigrationRow {
    /// First superstep *after* the boundary (the superstep whose records
    /// carry the `migrated` counters).
    pub superstep: u64,
    /// Masters moved at this boundary, summed over receiving workers.
    pub moved: u64,
    /// Compute-time imbalance (max/mean of worker `cmp` nanoseconds) on
    /// the last superstep before the boundary; 0 when unmeasurable.
    pub imbalance_before: f64,
    /// Compute-time imbalance on the first superstep after the boundary.
    pub imbalance_after: f64,
}

/// Max/mean compute-time imbalance across the workers of one superstep
/// (1.0 = perfectly balanced; 0.0 when the superstep has no compute time).
fn superstep_compute_imbalance(trace: &RunTrace, superstep: u64) -> f64 {
    let (mut sum, mut max, mut n) = (0u64, 0u64, 0u64);
    for r in trace.records.iter().filter(|r| r.superstep == superstep) {
        sum += r.compute_ns;
        max = max.max(r.compute_ns);
        n += 1;
    }
    if sum == 0 {
        0.0
    } else {
        max as f64 * n as f64 / sum as f64
    }
}

/// The dynamic-migration boundaries of a trace: supersteps whose records
/// carry nonzero `migrated` counters, with moved-master totals and the
/// compute-time imbalance on either side of each boundary. Static runs
/// (and legacy traces) record no `migrated` counters and yield an empty
/// vec, so their reports are unchanged.
pub fn migrations(trace: &RunTrace) -> Vec<MigrationRow> {
    let mut rows: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for r in &trace.records {
        if r.migrated > 0 {
            *rows.entry(r.superstep).or_default() += r.migrated;
        }
    }
    rows.into_iter()
        .map(|(superstep, moved)| MigrationRow {
            superstep,
            moved,
            imbalance_before: superstep_compute_imbalance(trace, superstep.saturating_sub(1)),
            imbalance_after: superstep_compute_imbalance(trace, superstep),
        })
        .collect()
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

/// The worker-pair communication matrix of a trace: per-record `comm` rows
/// summed over supersteps, keyed and ordered by `(src, dst)`. Empty for
/// traces recorded before the matrix existed.
pub fn comm_pairs(trace: &RunTrace) -> Vec<CommPair> {
    let mut rows: std::collections::BTreeMap<(u64, u64), CommPair> =
        std::collections::BTreeMap::new();
    for r in &trace.records {
        for e in &r.comm {
            let row = rows.entry((r.worker, e.dst as u64)).or_default();
            row.src = r.worker;
            row.dst = e.dst as u64;
            row.messages += e.messages;
            row.bytes += e.bytes;
            row.wire_dense += e.wire_dense;
            row.wire_sparse += e.wire_sparse;
        }
    }
    rows.into_values().collect()
}

/// The `(superstep, worker)` keys of records whose communication-matrix
/// row sums disagree with their `messages`/`bytes` counters. Always empty
/// for healthy traces — the matrix is populated from the same transport
/// counters the totals come from.
pub fn comm_mismatches(trace: &RunTrace) -> Vec<(u64, u64)> {
    trace
        .records
        .iter()
        .filter(|r| !r.comm_consistent())
        .map(|r| (r.superstep, r.worker))
        .collect()
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

/// The `cyclops comm` report: a worker-pair heatmap of wire bytes, the top
/// pairs by volume, and the row-sum consistency verdict. Deterministic for
/// a fixed trace file.
pub fn comm_report(trace: &RunTrace) -> String {
    let pairs = comm_pairs(trace);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "comm: engine {} on {} ({} workers), {} records over {} supersteps",
        trace.meta.engine,
        trace.meta.cluster,
        trace.meta.workers,
        trace.records.len(),
        trace.supersteps(),
    );
    if pairs.is_empty() {
        out.push_str("no communication matrix recorded (trace predates comm rows)\n");
        return out;
    }
    let workers = trace.meta.workers as usize;
    let mut bytes = vec![0u64; workers * workers];
    let mut msgs = vec![0u64; workers * workers];
    for p in &pairs {
        if (p.src as usize) < workers && (p.dst as usize) < workers {
            bytes[p.src as usize * workers + p.dst as usize] = p.bytes;
            msgs[p.src as usize * workers + p.dst as usize] = p.messages;
        }
    }
    let total_msgs: u64 = pairs.iter().map(|p| p.messages).sum();
    let total_bytes: u64 = pairs.iter().map(|p| p.bytes).sum();
    let dense: u64 = pairs.iter().map(|p| p.wire_dense).sum();
    let sparse: u64 = pairs.iter().map(|p| p.wire_sparse).sum();
    let _ = writeln!(
        out,
        "{total_msgs} messages / {total_bytes} wire bytes over {} worker pairs \
         ({dense} dense / {sparse} sparse batches)",
        pairs.len(),
    );
    out.push('\n');

    // Shade heatmap of wire bytes (messages fall back when no pair crossed
    // a machine boundary, e.g. single-machine clusters).
    let (cells, unit) = if total_bytes > 0 {
        (&bytes, "wire bytes")
    } else {
        (&msgs, "messages")
    };
    let max = cells.iter().copied().max().unwrap_or(0);
    let _ = writeln!(out, "heatmap ({unit}, src rows -> dst cols):");
    out.push_str("       ");
    for d in 0..workers {
        let _ = write!(out, "{d:>3}");
    }
    out.push('\n');
    for s in 0..workers {
        let _ = write!(out, "  {s:>4} ");
        for d in 0..workers {
            let _ = write!(out, "  {}", shade(cells[s * workers + d], max));
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
    let mut ranked = pairs.clone();
    ranked.sort_by(|a, b| {
        (b.bytes, b.messages, a.src, a.dst).cmp(&(a.bytes, a.messages, b.src, b.dst))
    });
    for p in ranked.iter().take(12) {
        let _ = writeln!(
            out,
            "  {:>4} {:>4} {:>10} {:>12} {:>7} {:>7}",
            p.src, p.dst, p.messages, p.bytes, p.wire_dense, p.wire_sparse
        );
    }
    out.push('\n');

    let bad = comm_mismatches(trace);
    if bad.is_empty() {
        let _ = writeln!(
            out,
            "row sums consistent with sent counters in all {} records",
            trace.records.len()
        );
    } else {
        let _ = writeln!(
            out,
            "ROW-SUM MISMATCH in {} records (superstep, worker): {:?}",
            bad.len(),
            &bad[..bad.len().min(8)]
        );
    }
    out
}

/// Renders `ns` as Chrome trace-event microseconds (`ts`/`dur` fields):
/// integer microseconds with the nanosecond remainder as three decimals.
fn chrome_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn chrome_args(s: &SpanRecord) -> String {
    match s.kind {
        SpanKind::Parse | SpanKind::Send => format!("{{\"superstep\":{}}}", s.a),
        SpanKind::Compute => {
            if s.b > 0 {
                format!("{{\"superstep\":{},\"sub\":{}}}", s.a, s.b)
            } else {
                format!("{{\"superstep\":{}}}", s.a)
            }
        }
        SpanKind::Barrier => format!("{{\"epoch\":{}}}", s.a),
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

/// Per-worker peak bytes by component, aggregated from a trace's
/// `{"mem":…}` samples. Peaks are monotonic within a run, so each row is
/// the component-wise maximum over that worker's samples. The untagged
/// (non-engine-thread) slot is reported as worker [`u32::MAX`].
pub struct MemPeaks {
    /// `(worker, per-component peak bytes)` rows, workers ascending with
    /// the untagged slot last.
    pub workers: Vec<(u32, [u64; NUM_COMPONENTS])>,
    /// Component-wise sum over all rows.
    pub totals: [u64; NUM_COMPONENTS],
    /// Maximum `/proc/self/status` VmRSS seen across samples, kB (0 when
    /// unavailable — non-Linux or restricted environments).
    pub rss_kb: u64,
    /// Maximum VmHWM seen across samples, kB (0 when unavailable).
    pub hwm_kb: u64,
    /// Number of mem samples aggregated.
    pub samples: usize,
}

/// Aggregates a trace's mem samples into [`MemPeaks`] rows.
pub fn mem_peaks(trace: &RunTrace) -> MemPeaks {
    let mut rows: Vec<(u32, [u64; NUM_COMPONENTS])> = Vec::new();
    let mut rss_kb = 0u64;
    let mut hwm_kb = 0u64;
    for m in &trace.mem {
        rss_kb = rss_kb.max(m.rss_kb);
        hwm_kb = hwm_kb.max(m.hwm_kb);
        let row = match rows.iter_mut().find(|(w, _)| *w == m.worker) {
            Some((_, row)) => row,
            None => {
                rows.push((m.worker, [0; NUM_COMPONENTS]));
                &mut rows.last_mut().unwrap().1
            }
        };
        for (slot, &p) in row.iter_mut().zip(m.peak.iter()) {
            *slot = (*slot).max(p);
        }
    }
    // Workers ascending; u32::MAX (untagged) naturally sorts last.
    rows.sort_by_key(|&(w, _)| w);
    let mut totals = [0u64; NUM_COMPONENTS];
    for (_, row) in &rows {
        for (t, p) in totals.iter_mut().zip(row.iter()) {
            *t += p;
        }
    }
    MemPeaks {
        workers: rows,
        totals,
        rss_kb,
        hwm_kb,
        samples: trace.mem.len(),
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

/// The `cyclops mem` report: a per-worker, per-component peak table from
/// the trace's `{"mem":…}` samples, plus the process RSS high-water marks.
pub fn mem_report(trace: &RunTrace) -> String {
    let peaks = mem_peaks(trace);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mem: engine {} on {} ({} workers), {} samples over {} supersteps",
        trace.meta.engine,
        trace.meta.cluster,
        trace.meta.workers,
        peaks.samples,
        trace.supersteps(),
    );
    if peaks.samples == 0 {
        out.push_str("no memory samples recorded (run without --mem)\n");
        return out;
    }
    out.push_str("peak bytes by worker and component:\n");
    let _ = write!(out, "  {:>8}", "worker");
    for c in Component::ALL {
        let _ = write!(out, " {:>12}", c.name());
    }
    let _ = writeln!(out, " {:>12}", "total");
    for (w, row) in &peaks.workers {
        if *w == u32::MAX {
            let _ = write!(out, "  {:>8}", "untagged");
        } else {
            let _ = write!(out, "  {:>8}", w);
        }
        for p in row {
            let _ = write!(out, " {:>12}", fmt_bytes(*p));
        }
        let _ = writeln!(out, " {:>12}", fmt_bytes(row.iter().sum()));
    }
    let _ = write!(out, "  {:>8}", "all");
    for t in &peaks.totals {
        let _ = write!(out, " {:>12}", fmt_bytes(*t));
    }
    let _ = writeln!(out, " {:>12}", fmt_bytes(peaks.totals.iter().sum()));
    if peaks.rss_kb > 0 || peaks.hwm_kb > 0 {
        let _ = writeln!(
            out,
            "process rss: peak {} (VmHWM {})",
            fmt_bytes(peaks.rss_kb * 1024),
            fmt_bytes(peaks.hwm_kb * 1024),
        );
    } else {
        out.push_str("process rss: unavailable (/proc/self/status not readable)\n");
    }
    out
}

/// The `cyclops mem --json` report: [`mem_peaks`] as one deterministic
/// JSON object (stable key order, integers only; the untagged slot is
/// reported as worker `-1`).
pub fn mem_json(trace: &RunTrace) -> String {
    let peaks = mem_peaks(trace);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"engine\": \"{}\",\n  \"cluster\": \"{}\",\n  \"samples\": {},\n  \
         \"supersteps\": {},\n  \"rss_kb\": {},\n  \"hwm_kb\": {},\n  \"workers\": [",
        trace.meta.engine,
        trace.meta.cluster,
        peaks.samples,
        trace.supersteps(),
        peaks.rss_kb,
        peaks.hwm_kb,
    );
    for (i, (w, row)) in peaks.workers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let worker = if *w == u32::MAX { -1 } else { *w as i64 };
        let _ = write!(out, "\n    {{\"worker\": {worker}, \"peak\": {{");
        for (j, c) in Component::ALL.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {}", c.name(), row[j]);
        }
        out.push_str("}}");
    }
    out.push_str("\n  ],\n  \"totals\": {");
    for (j, c) in Component::ALL.iter().enumerate() {
        if j > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {}", c.name(), peaks.totals[j]);
    }
    out.push_str("}\n}\n");
    out
}

/// Exports a trace as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto). Real flight-recorder spans are used when the trace has them
/// (`--flight` runs); otherwise one complete-event per phase per record is
/// synthesized on a per-worker cumulative clock, which preserves relative
/// phase widths but not true wall-clock alignment across workers.
pub fn chrome_trace(trace: &RunTrace) -> String {
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
    for w in 0..trace.meta.workers {
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
        let mut clock: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for r in &trace.records {
            let t = clock.entry(r.worker).or_default();
            for (name, ns) in PHASES
                .iter()
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
                        name,
                        r.superstep
                    ),
                );
                *t += ns;
            }
        }
    } else {
        for s in &trace.spans {
            emit(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\
                     \"name\":\"{}\",\"args\":{}}}",
                    s.worker,
                    s.thread,
                    chrome_us(s.start_ns),
                    chrome_us(s.dur_ns),
                    s.kind.name(),
                    chrome_args(s)
                ),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// The `cyclops timeline` stdout summary: span counts and total time per
/// kind, or the synthesized-fallback note for traces without spans.
pub fn timeline_summary(trace: &RunTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeline: engine {} on {} ({} workers), {} spans over {} supersteps",
        trace.meta.engine,
        trace.meta.cluster,
        trace.meta.workers,
        trace.spans.len(),
        trace.supersteps(),
    );
    if trace.spans.is_empty() {
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
    for kind in SpanKind::ALL {
        let (count, total) = trace
            .spans
            .iter()
            .filter(|s| s.kind == kind)
            .fold((0u64, 0u64), |(c, t), s| (c + 1, t + s.dur_ns));
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

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// The human `cyclops why-slow` report: run summary, wall-time
/// decomposition, straggler ranking, per-superstep critical path,
/// hot-vertex table, and sparkline timelines. Deterministic for a fixed
/// trace file.
pub fn why_slow_report(trace: &RunTrace) -> String {
    let cp = critical_path(trace);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "why-slow: engine {} on {} ({} workers), {} records over {} supersteps",
        trace.meta.engine,
        trace.meta.cluster,
        trace.meta.workers,
        trace.records.len(),
        trace.supersteps(),
    );
    let _ = writeln!(
        out,
        "critical path {} (chain of per-superstep maxima)",
        fmt_ns(cp.total_span_ns)
    );
    // The attribution pool: every worker's exact span decomposition, summed.
    let pool = cp.total_work_ns + cp.total_wait_ns + cp.total_residual_ns;
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
    let tail = cp.supersteps.len().saturating_sub(16);
    for s in &cp.supersteps[tail..] {
        let _ = writeln!(
            out,
            "  {:>5} {:>10} {:>9} {:>6} {:>10} {:>12}",
            s.superstep,
            fmt_ns(s.span_ns),
            s.straggler,
            s.straggler_phase.label(),
            fmt_ns(s.straggler_work_ns),
            fmt_ns(s.caused_wait_ns),
        );
    }
    out.push('\n');

    let hot = hot_vertices(trace, 10);
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

    let mix = wire_mix(trace);
    if mix.is_empty() {
        out.push_str("wire encoding: no adaptive batches recorded (legacy codec path)\n");
    } else {
        let dense: u64 = mix.iter().map(|m| m.dense).sum();
        let sparse: u64 = mix.iter().map(|m| m.sparse).sum();
        let fast_steps = mix.iter().filter(|m| m.fast_workers > 0).count();
        let _ = writeln!(
            out,
            "wire encoding: {dense} dense / {sparse} sparse batches, \
             {fast_steps} of {} supersteps on the sparse fast path",
            trace.supersteps(),
        );
        let _ = writeln!(
            out,
            "  {:>5} {:>7} {:>7} {:>12}",
            "step", "dense", "sparse", "fast-workers"
        );
        let tail = mix.len().saturating_sub(16);
        for m in &mix[tail..] {
            let _ = writeln!(
                out,
                "  {:>5} {:>7} {:>7} {:>12}",
                m.superstep, m.dense, m.sparse, m.fast_workers
            );
        }
    }
    out.push('\n');

    let pairs = comm_pairs(trace);
    if pairs.is_empty() {
        out.push_str("communication matrix: none recorded (trace predates comm rows)\n");
    } else {
        let msgs: u64 = pairs.iter().map(|p| p.messages).sum();
        let bytes: u64 = pairs.iter().map(|p| p.bytes).sum();
        let bad = comm_mismatches(trace);
        let verdict = if bad.is_empty() {
            "row sums consistent".to_string()
        } else {
            format!("ROW-SUM MISMATCH in {} records", bad.len())
        };
        let _ = writeln!(
            out,
            "communication matrix: {msgs} messages / {bytes} wire bytes over {} worker pairs, \
             {verdict}",
            pairs.len(),
        );
        let mut ranked = pairs.clone();
        ranked.sort_by(|a, b| {
            (b.bytes, b.messages, a.src, a.dst).cmp(&(a.bytes, a.messages, b.src, b.dst))
        });
        let _ = writeln!(
            out,
            "  {:>4} {:>4} {:>10} {:>12}",
            "src", "dst", "messages", "bytes"
        );
        for p in ranked.iter().take(8) {
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
    let direct_msgs: u64 = trace.records.iter().map(|r| r.direct_messages).sum();
    if direct_msgs == 0 {
        out.push_str("hybrid replication: off (every boundary vertex replicated)\n");
    } else {
        let total_msgs: u64 = trace.records.iter().map(|r| r.messages).sum();
        let _ = writeln!(
            out,
            "hybrid replication: {direct_msgs} direct messages ({:.1}% of messages) took the \
             no-replica path; the rest is replica sync for hot boundary vertices",
            pct(direct_msgs, total_msgs),
        );
    }
    out.push('\n');

    let buckets = bucketing(trace);
    if buckets.is_empty() {
        out.push_str("bucketed execution: off (one barrier per relaxation hop)\n");
    } else {
        let rounds: u64 = buckets.iter().map(|b| b.fused).sum();
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
        let tail = buckets.len().saturating_sub(16);
        for b in &buckets[tail..] {
            let _ = writeln!(
                out,
                "  {:>5} {:>7} {:>6} {:>10}",
                b.superstep, b.bucket, b.fused, b.occupancy
            );
        }
    }
    out.push('\n');

    // Migration paragraph — only for `--migrate` traces (static runs
    // record no `migrated` counters, keeping pre-existing reports
    // byte-identical).
    let moves = migrations(trace);
    if !moves.is_empty() {
        let moved: u64 = moves.iter().map(|m| m.moved).sum();
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
        let tail = moves.len().saturating_sub(16);
        for m in &moves[tail..] {
            let _ = writeln!(
                out,
                "  {:>5} {:>7} {:>11.2} {:>11.2}",
                m.superstep, m.moved, m.imbalance_before, m.imbalance_after
            );
        }
        out.push('\n');
    }

    // Memory paragraph — only for `--mem` traces (plain traces carry no
    // samples, keeping pre-existing reports byte-identical).
    if !trace.mem.is_empty() {
        let peaks = mem_peaks(trace);
        let _ = write!(out, "memory ({} samples): peak", peaks.samples);
        for (j, c) in Component::ALL.iter().enumerate() {
            if peaks.totals[j] > 0 {
                let _ = write!(out, " {} {}", c.name(), fmt_bytes(peaks.totals[j]));
            }
        }
        out.push('\n');
        if peaks.rss_kb > 0 {
            let _ = writeln!(
                out,
                "  process rss peak {} (VmHWM {}); see `cyclops mem` for the per-worker table",
                fmt_bytes(peaks.rss_kb * 1024),
                fmt_bytes(peaks.hwm_kb * 1024),
            );
        } else {
            out.push_str("  process rss unavailable; see `cyclops mem` for the per-worker table\n");
        }
        out.push('\n');
    }

    let spans: Vec<u64> = cp.supersteps.iter().map(|s| s.span_ns).collect();
    let waits: Vec<u64> = cp.supersteps.iter().map(|s| s.caused_wait_ns).collect();
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
pub fn why_slow_json(trace: &RunTrace) -> String {
    let cp = critical_path(trace);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"engine\": \"{}\",\n  \"cluster\": \"{}\",\n  \"workers\": {},\n  \
         \"records\": {},\n  \"supersteps\": {},\n  \"critical_path_ns\": {},\n  \
         \"work_ns\": {},\n  \"wait_ns\": {},\n  \"residual_ns\": {},\n",
        trace.meta.engine,
        trace.meta.cluster,
        trace.meta.workers,
        trace.records.len(),
        trace.supersteps(),
        cp.total_span_ns,
        cp.total_work_ns,
        cp.total_wait_ns,
        cp.total_residual_ns,
    );
    out.push_str("  \"stragglers\": [");
    for (i, s) in cp.straggler_ranking().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"worker\": {}, \"phase\": \"{}\", \"caused_wait_ns\": {}, \"supersteps\": {}}}",
            s.worker,
            s.phase.name(),
            s.caused_wait_ns,
            s.supersteps,
        );
    }
    out.push_str("\n  ],\n  \"superstep_paths\": [");
    for (i, s) in cp.supersteps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"superstep\": {}, \"span_ns\": {}, \"critical_worker\": {}, \
             \"straggler\": {}, \"phase\": \"{}\", \"straggler_work_ns\": {}, \
             \"caused_wait_ns\": {}, \"barrier_ns\": {}}}",
            s.superstep,
            s.span_ns,
            s.critical_worker,
            s.straggler,
            s.straggler_phase.name(),
            s.straggler_work_ns,
            s.caused_wait_ns,
            s.barrier_ns,
        );
    }
    out.push_str("\n  ],\n  \"hot_vertices\": [");
    for (i, (v, w)) in hot_vertices(trace, 10).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    {{\"vertex\": {v}, \"cost\": {w}}}");
    }
    out.push_str("\n  ],\n  \"wire_mix\": [");
    for (i, m) in wire_mix(trace).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"superstep\": {}, \"dense\": {}, \"sparse\": {}, \"fast_path_workers\": {}}}",
            m.superstep, m.dense, m.sparse, m.fast_workers
        );
    }
    let _ = write!(
        out,
        "\n  ],\n  \"comm_consistent\": {},\n  \"comm\": [",
        comm_mismatches(trace).is_empty()
    );
    for (i, p) in comm_pairs(trace).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"src\": {}, \"dst\": {}, \"messages\": {}, \"bytes\": {}, \
             \"wire_dense\": {}, \"wire_sparse\": {}}}",
            p.src, p.dst, p.messages, p.bytes, p.wire_dense, p.wire_sparse
        );
    }
    out.push_str("\n  ],\n  \"bucketing\": [");
    for (i, b) in bucketing(trace).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"superstep\": {}, \"bucket\": {}, \"fused\": {}, \"occupancy\": {}}}",
            b.superstep, b.bucket, b.fused, b.occupancy
        );
    }
    out.push_str("\n  ]");
    // Migration array — only for `--migrate` traces, so goldens from
    // static runs are unchanged. Imbalance is reported in integer
    // permille to keep the object float-free.
    let moves = migrations(trace);
    if !moves.is_empty() {
        out.push_str(",\n  \"migrations\": [");
        for (i, m) in moves.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"superstep\": {}, \"moved\": {}, \
                 \"imbalance_before_permille\": {}, \"imbalance_after_permille\": {}}}",
                m.superstep,
                m.moved,
                (m.imbalance_before * 1000.0).round() as u64,
                (m.imbalance_after * 1000.0).round() as u64,
            );
        }
        out.push_str("\n  ]");
    }
    // Memory object — only for `--mem` traces, so goldens from plain runs
    // are unchanged.
    if !trace.mem.is_empty() {
        let peaks = mem_peaks(trace);
        let _ = write!(
            out,
            ",\n  \"memory\": {{\"samples\": {}, \"rss_kb\": {}, \"hwm_kb\": {}, \"peak\": {{",
            peaks.samples, peaks.rss_kb, peaks.hwm_kb
        );
        for (j, c) in Component::ALL.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {}", c.name(), peaks.totals[j]);
        }
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
        let mut s = TraceStats::new();
        for step in 0..3 {
            for w in 0..2 {
                s.add(&record(step, w, 1000));
            }
        }
        assert_eq!(s.records(), 6);
        assert_eq!(s.supersteps(), 3);
        let cmp = s.phase_snapshot(1);
        assert_eq!(cmp.count, 6);
        // 2000ns falls in a log-linear bucket; midpoint error ≤ 12.5 %.
        let p50 = cmp.percentile(0.5) as f64;
        assert!((p50 - 2000.0).abs() / 2000.0 <= 0.125, "p50 {p50}");
        assert_eq!(s.supersteps[0].computed, 20);
        assert_eq!(s.supersteps[0].total_ns, 2 * (1000 + 2000 + 500 + 1000));
    }

    #[test]
    fn phase_table_lists_all_four_phases() {
        let mut s = TraceStats::new();
        s.add(&record(0, 0, 5000));
        let t = s.phase_table();
        for name in PHASES {
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

    #[test]
    fn critical_path_bridge_groups_records_by_superstep() {
        let cp = critical_path(&skewed_trace());
        assert_eq!(cp.supersteps.len(), 2);
        assert_eq!(cp.supersteps[0].straggler, 0);
        assert_eq!(cp.supersteps[0].straggler_phase, CpPhase::Compute);
        assert_eq!(cp.supersteps[0].caused_wait_ns, 850);
        assert_eq!(cp.total_span_ns, 1000 + 100);
    }

    #[test]
    fn hot_vertices_sum_across_supersteps() {
        let mut trace = skewed_trace();
        trace.records[0].hot = vec![(7, 100), (3, 40)];
        trace.records[2].hot = vec![(7, 60), (9, 50)];
        assert_eq!(hot_vertices(&trace, 10), vec![(7, 160), (9, 50), (3, 40)]);
        assert_eq!(hot_vertices(&trace, 1), vec![(7, 160)]);
        assert!(hot_vertices(&skewed_trace(), 10).is_empty());
    }

    #[test]
    fn why_slow_report_names_the_straggler() {
        let report = why_slow_report(&skewed_trace());
        assert!(report.contains("critical path"), "{report}");
        assert!(report.contains("worker 0 CMP"), "{report}");
        assert!(report.contains("straggler ranking"), "{report}");
        assert!(report.contains("--hot K"), "{report}");
        // Deterministic for a fixed trace.
        assert_eq!(report, why_slow_report(&skewed_trace()));
    }

    #[test]
    fn wire_mix_aggregates_and_surfaces_in_reports() {
        let mut trace = skewed_trace();
        trace.records[0].wire_dense = 3;
        trace.records[1].wire_sparse = 2;
        trace.records[2].sparse_fast_path = true;
        trace.records[2].wire_sparse = 1;
        let mix = wire_mix(&trace);
        assert_eq!(
            mix,
            vec![
                WireMixRow {
                    superstep: 0,
                    dense: 3,
                    sparse: 2,
                    fast_workers: 0
                },
                WireMixRow {
                    superstep: 1,
                    dense: 0,
                    sparse: 1,
                    fast_workers: 1
                },
            ]
        );
        let report = why_slow_report(&trace);
        assert!(report.contains("3 dense / 3 sparse batches"), "{report}");
        assert!(
            report.contains("1 of 2 supersteps on the sparse fast path"),
            "{report}"
        );
        let j = why_slow_json(&trace);
        assert!(j.contains("\"wire_mix\": ["), "{j}");
        assert!(j.contains("\"fast_path_workers\": 1"), "{j}");
        // Legacy traces degrade to an explicit absence line / empty array.
        assert!(why_slow_report(&skewed_trace()).contains("no adaptive batches"));
        assert!(why_slow_json(&skewed_trace()).contains("\"wire_mix\": [\n  ]"));
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
        assert_eq!(
            bucketing(&trace),
            vec![
                BucketRow {
                    superstep: 0,
                    bucket: 0,
                    fused: 5,
                    occupancy: 11
                },
                BucketRow {
                    superstep: 1,
                    bucket: 3,
                    fused: 2,
                    occupancy: 1
                },
            ]
        );
        let report = why_slow_report(&trace);
        assert!(
            report.contains("7 relaxation rounds fused into 2 supersteps"),
            "{report}"
        );
        assert!(report.contains("(5 barrier rounds saved)"), "{report}");
        let j = why_slow_json(&trace);
        assert!(j.contains("\"bucketing\": ["), "{j}");
        assert!(
            j.contains("{\"superstep\": 0, \"bucket\": 0, \"fused\": 5, \"occupancy\": 11}"),
            "{j}"
        );
        // Unbucketed traces degrade to an explicit off line / empty array.
        assert!(why_slow_report(&skewed_trace()).contains("bucketed execution: off"));
        assert!(why_slow_json(&skewed_trace()).contains("\"bucketing\": [\n  ]"));
    }

    #[test]
    fn migrations_aggregate_and_surface_in_reports() {
        let mut trace = skewed_trace();
        // Boundary before superstep 1: 3 masters landed on worker 0, 2 on
        // worker 1. Superstep 0 compute is 900/100ns (imbalance 1.8);
        // superstep 1 is 80/20ns (imbalance 1.6).
        trace.records[2].migrated = 3;
        trace.records[3].migrated = 2;
        let rows = migrations(&trace);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].superstep, 1);
        assert_eq!(rows[0].moved, 5);
        assert!((rows[0].imbalance_before - 1.8).abs() < 1e-9, "{rows:?}");
        assert!((rows[0].imbalance_after - 1.6).abs() < 1e-9, "{rows:?}");
        let report = why_slow_report(&trace);
        assert!(
            report.contains("dynamic migration: 5 masters moved across 1 epoch boundaries"),
            "{report}"
        );
        assert!(report.contains("imb-before"), "{report}");
        let j = why_slow_json(&trace);
        assert!(
            j.contains(
                "{\"superstep\": 1, \"moved\": 5, \"imbalance_before_permille\": 1800, \
                 \"imbalance_after_permille\": 1600}"
            ),
            "{j}"
        );
        // Static runs keep their reports byte-identical: no paragraph, no
        // JSON key at all (goldens from pre-migration traces still match).
        assert!(migrations(&skewed_trace()).is_empty());
        assert!(!why_slow_report(&skewed_trace()).contains("dynamic migration"));
        assert!(!why_slow_json(&skewed_trace()).contains("migrations"));
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
        let pairs = comm_pairs(&trace);
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
        assert!(comm_mismatches(&trace).is_empty());
        let report = comm_report(&trace);
        assert!(report.contains("13"), "{report}");
        assert!(report.contains("row sums consistent"), "{report}");
        assert!(report.contains("heatmap"), "{report}");
        let ws = why_slow_report(&trace);
        assert!(
            ws.contains("communication matrix: 17 messages / 390 wire bytes over 2 worker pairs"),
            "{ws}"
        );
        let j = why_slow_json(&trace);
        assert!(j.contains("\"comm_consistent\": true"), "{j}");
        assert!(
            j.contains(
                "{\"src\": 0, \"dst\": 1, \"messages\": 13, \"bytes\": 390, \
                 \"wire_dense\": 1, \"wire_sparse\": 1}"
            ),
            "{j}"
        );
        // Legacy traces degrade to an explicit absence line / empty array.
        assert!(why_slow_report(&skewed_trace()).contains("communication matrix: none recorded"));
        assert!(why_slow_json(&skewed_trace()).contains("\"comm\": [\n  ]"));
        assert!(comm_report(&skewed_trace()).contains("no communication matrix recorded"));
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
        assert_eq!(comm_mismatches(&trace), vec![(0, 0)]);
        assert!(comm_report(&trace).contains("ROW-SUM MISMATCH in 1 records"));
        assert!(why_slow_json(&trace).contains("\"comm_consistent\": false"));
    }

    fn span(kind: SpanKind, worker: u32, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
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

    #[test]
    fn chrome_trace_exports_real_spans() {
        let mut trace = skewed_trace();
        trace.spans = vec![
            span(SpanKind::Compute, 0, 1_500, 2_750),
            span(SpanKind::Flush, 1, 4_000, 500),
        ];
        let j = chrome_trace(&trace);
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
        assert_eq!(j, chrome_trace(&trace));
    }

    #[test]
    fn chrome_trace_synthesizes_from_records_without_spans() {
        let trace = skewed_trace();
        let j = chrome_trace(&trace);
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
        assert_eq!(j, chrome_trace(&trace));
    }

    #[test]
    fn timeline_summary_counts_spans_per_kind() {
        let mut trace = skewed_trace();
        let s = timeline_summary(&trace);
        assert!(s.contains("no flight-recorder spans"), "{s}");
        trace.spans = vec![
            span(SpanKind::Compute, 0, 0, 1_000),
            span(SpanKind::Compute, 1, 0, 3_000),
            span(SpanKind::Barrier, 0, 1_000, 500),
        ];
        let s = timeline_summary(&trace);
        assert!(s.contains("3 spans"), "{s}");
        assert!(s.contains("cmp"), "{s}");
        assert!(s.contains("barrier"), "{s}");
        assert!(!s.contains("flush"), "{s}");
    }

    #[test]
    fn why_slow_json_is_deterministic_and_exact() {
        let j = why_slow_json(&skewed_trace());
        assert!(j.contains("\"critical_path_ns\": 1100"), "{j}");
        assert!(j.contains("\"phase\": \"cmp\""), "{j}");
        assert!(j.contains("\"caused_wait_ns\": 850"), "{j}");
        assert_eq!(j, why_slow_json(&skewed_trace()));
    }
}
