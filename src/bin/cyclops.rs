//! `cyclops` — command-line driver for the graph engines.
//!
//! ```text
//! cyclops <command> [options]
//!
//! commands:
//!   pagerank    PageRank ranks
//!   sssp        single-source shortest paths (needs weights or unit)
//!   bfs         hop levels from a source
//!   cc          weakly connected components
//!   cd          community detection (label propagation)
//!   triangles   triangle count
//!   gen         generate a dataset stand-in as an edge list
//!   info        graph statistics
//!   trace-diff  compare two superstep traces: `trace-diff A B [--values]`
//!   metrics     summarize a trace: per-phase p50/p90/p99 + sparklines
//!   top         live dashboard tailing a streaming trace file
//!   why-slow    critical-path profile of a trace: straggler attribution,
//!               hot-vertex table, per-superstep spans (`--json` for machines)
//!   timeline    span-level timeline of a trace; `--chrome OUT.json` exports
//!               Chrome trace-event JSON (chrome://tracing, Perfetto)
//!   comm        worker-pair communication matrix: heatmap + row-sum check
//!   mem         per-worker/per-component peak-memory table from a `--mem`
//!               trace (`--json` for machines)
//!
//! input (choose one):
//!   --input FILE          edge-list file ("src dst [weight]" per line)
//!   --dataset NAME        Amazon|GWeb|LJournal|Wiki|SYN-GL|DBLP|RoadCA
//!   --scale F             dataset scale fraction (default 0.1)
//!
//! execution:
//!   --engine E            cyclops (default) | hama
//!   --machines M          simulated machines (default 2)
//!   --workers W           workers per machine (default 2)
//!   --threads T           compute threads per worker (default 1)
//!   --receivers R         receiver threads per worker (default 1)
//!   --partitioner P       hash (default) | metis
//!   --inbox MODE          hama inbox: global (default) | sharded
//!   --sched S             cyclops compute scheduler: static |
//!                         dynamic (default, degree-weighted chunk claiming)
//!   --sparse-cutoff F     sparse-superstep fast path: engage when the
//!                         frontier is below F of local masters
//!                         (default 0.015; 0 disables; results identical)
//!   --bucket-width D      bucketed (delta-stepping) sssp or hop-ring
//!                         bfs: drain one priority bucket of width D per
//!                         superstep (`auto` tunes from the mean edge
//!                         weight; default 0 = off; results identical)
//!   --bucket-mode M       bucket drain order: det (default, reproducible
//!                         schedule) | fast (arrival order)
//!   --replicate-threshold N|auto  hybrid replication: boundary vertices
//!                         with combined degree below N get no replica —
//!                         their cross-worker edges are messaged directly
//!                         (`auto` picks the threshold minimizing modeled
//!                         update traffic; default 0 = replicate every
//!                         boundary vertex; results identical)
//!   --migrate off|K|auto  runtime hot-vertex migration (cyclops engine,
//!                         pagerank/sssp): every K supersteps move hot
//!                         masters off the most loaded worker and rewire
//!                         the plan incrementally, decided from
//!                         deterministic compute counters (`auto` = every
//!                         8; default off; results bitwise identical)
//!   --skew F              pile the first F-fraction of the vertices onto
//!                         worker 0 before running — a deterministic way
//!                         to manufacture the imbalance --migrate repairs
//!
//! algorithm:
//!   --epsilon F           convergence threshold (pagerank; default 1e-9)
//!   --max-supersteps N    superstep cap (default 10000)
//!   --source V            source vertex (sssp/bfs; default 0)
//!   --sweeps N            label-propagation sweeps (cd; default 30)
//!
//! output:
//!   --output FILE         write per-vertex results ("vertex value" lines)
//!   --top N               print the N best-ranked vertices (default 10)
//!   --seed N              generator seed (gen; default dataset seed)
//!   --stats               print per-superstep statistics
//!   --trace FILE          write a superstep trace (JSON lines;
//!                         pagerank, and sssp/cc on the cyclops engine)
//!   --stream              stream the trace to FILE mid-run (no ring cap)
//!   --values              capture/compare per-publication value digests
//!   --prom FILE           write Prometheus metrics exposition after the run
//!   --listen ADDR         serve GET /metrics + /healthz live during the run
//!   --hot K               per-worker hot-vertex top-K sketch in the trace
//!   --flight              record flight-recorder spans during the run and
//!                         append them to the trace file (needs --trace)
//!   --mem                 arm the tracking allocator and append per-superstep
//!                         memory samples to the trace file (needs --trace;
//!                         results and trace records stay identical)
//!   --chrome FILE         timeline: write Chrome trace-event JSON to FILE
//!   --json                why-slow: emit the report as JSON
//!   --once                top: render one frame and exit
//!   --refresh-ms N        top: refresh interval (default 500)
//! ```

use cyclops::prelude::*;
use cyclops_partition::EdgeCutPartition;
use std::io::Write;
use std::process::ExitCode;

/// Tracking allocator: a pure pass-through over the system allocator (one
/// relaxed bool load per call) until `--mem` arms per-component accounting.
#[global_allocator]
static ALLOC: cyclops::obs::MemAlloc = cyclops::obs::MemAlloc;

/// Parsed command-line options.
#[derive(Clone, Debug)]
struct Options {
    command: String,
    input: Option<String>,
    dataset: Option<String>,
    scale: f64,
    engine: String,
    machines: usize,
    workers: usize,
    threads: usize,
    receivers: usize,
    partitioner: String,
    epsilon: f64,
    max_supersteps: usize,
    source: u32,
    sweeps: usize,
    output: Option<String>,
    top: usize,
    seed: Option<u64>,
    stats: bool,
    trace: Option<String>,
    stream: bool,
    values: bool,
    values_only: bool,
    inbox: String,
    sched: String,
    sparse_cutoff: f64,
    bucket_width: f64,
    bucket_auto: bool,
    bucket_mode: String,
    replicate_threshold: u32,
    replicate_auto: bool,
    migrate_every: usize,
    migrate_auto: bool,
    skew: f64,
    prom: Option<String>,
    listen: Option<String>,
    hot: usize,
    flight: bool,
    mem: bool,
    chrome: Option<String>,
    json: bool,
    once: bool,
    refresh_ms: u64,
    /// Non-flag arguments after the command (trace-diff's two paths).
    positional: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            command: String::new(),
            input: None,
            dataset: None,
            scale: 0.1,
            engine: "cyclops".into(),
            machines: 2,
            workers: 2,
            threads: 1,
            receivers: 1,
            partitioner: "hash".into(),
            epsilon: 1e-9,
            max_supersteps: 10_000,
            source: 0,
            sweeps: 30,
            output: None,
            top: 10,
            seed: None,
            stats: false,
            trace: None,
            stream: false,
            values: false,
            values_only: false,
            inbox: "global".into(),
            sched: "dynamic".into(),
            // Matches the engines' config defaults.
            sparse_cutoff: 0.015,
            // 0 = bucketing off, keeping default traces/output unchanged.
            bucket_width: 0.0,
            bucket_auto: false,
            bucket_mode: "det".into(),
            // 0 = full replication, keeping default runs/traces unchanged.
            replicate_threshold: 0,
            replicate_auto: false,
            // 0 = migration off, keeping default runs byte-identical.
            migrate_every: 0,
            migrate_auto: false,
            // 0 = no artificial skew; the partitioner's assignment stands.
            skew: 0.0,
            prom: None,
            listen: None,
            hot: 0,
            flight: false,
            mem: false,
            chrome: None,
            json: false,
            once: false,
            refresh_ms: 500,
            positional: Vec::new(),
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    opts.command = it
        .next()
        .ok_or_else(|| "missing command; try `cyclops help`".to_string())?
        .clone();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--input" => opts.input = Some(value("--input")?),
            "--dataset" => opts.dataset = Some(value("--dataset")?),
            "--scale" => {
                opts.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--engine" => opts.engine = value("--engine")?,
            "--machines" => {
                opts.machines = value("--machines")?
                    .parse()
                    .map_err(|e| format!("--machines: {e}"))?
            }
            "--workers" => {
                opts.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--receivers" => {
                opts.receivers = value("--receivers")?
                    .parse()
                    .map_err(|e| format!("--receivers: {e}"))?
            }
            "--partitioner" => opts.partitioner = value("--partitioner")?,
            "--epsilon" => {
                opts.epsilon = value("--epsilon")?
                    .parse()
                    .map_err(|e| format!("--epsilon: {e}"))?
            }
            "--max-supersteps" => {
                opts.max_supersteps = value("--max-supersteps")?
                    .parse()
                    .map_err(|e| format!("--max-supersteps: {e}"))?
            }
            "--source" => {
                opts.source = value("--source")?
                    .parse()
                    .map_err(|e| format!("--source: {e}"))?
            }
            "--sweeps" => {
                opts.sweeps = value("--sweeps")?
                    .parse()
                    .map_err(|e| format!("--sweeps: {e}"))?
            }
            "--output" => opts.output = Some(value("--output")?),
            "--top" => opts.top = value("--top")?.parse().map_err(|e| format!("--top: {e}"))?,
            "--seed" => {
                opts.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--stats" => opts.stats = true,
            "--trace" => opts.trace = Some(value("--trace")?),
            "--stream" => opts.stream = true,
            "--values" => opts.values = true,
            "--values-only" => opts.values_only = true,
            "--inbox" => opts.inbox = value("--inbox")?,
            "--sched" => opts.sched = value("--sched")?,
            "--sparse-cutoff" => {
                opts.sparse_cutoff = value("--sparse-cutoff")?
                    .parse()
                    .map_err(|e| format!("--sparse-cutoff: {e}"))?
            }
            "--bucket-width" => {
                let v = value("--bucket-width")?;
                if v == "auto" {
                    opts.bucket_auto = true;
                    opts.bucket_width = 0.0;
                } else {
                    opts.bucket_auto = false;
                    opts.bucket_width = v.parse().map_err(|e| format!("--bucket-width: {e}"))?;
                }
            }
            "--bucket-mode" => opts.bucket_mode = value("--bucket-mode")?,
            "--replicate-threshold" => {
                let v = value("--replicate-threshold")?;
                if v == "auto" {
                    opts.replicate_auto = true;
                    opts.replicate_threshold = 0;
                } else {
                    opts.replicate_auto = false;
                    opts.replicate_threshold = v
                        .parse()
                        .map_err(|e| format!("--replicate-threshold: {e}"))?;
                }
            }
            "--migrate" => {
                let v = value("--migrate")?;
                match v.as_str() {
                    "off" => {
                        opts.migrate_auto = false;
                        opts.migrate_every = 0;
                    }
                    "auto" => {
                        opts.migrate_auto = true;
                        opts.migrate_every = 0;
                    }
                    _ => {
                        opts.migrate_auto = false;
                        opts.migrate_every = v.parse().map_err(|e| format!("--migrate: {e}"))?;
                    }
                }
            }
            "--skew" => {
                opts.skew = value("--skew")?
                    .parse()
                    .map_err(|e| format!("--skew: {e}"))?
            }
            "--prom" => opts.prom = Some(value("--prom")?),
            "--listen" => opts.listen = Some(value("--listen")?),
            "--hot" => opts.hot = value("--hot")?.parse().map_err(|e| format!("--hot: {e}"))?,
            "--flight" => opts.flight = true,
            "--mem" => opts.mem = true,
            "--chrome" => opts.chrome = Some(value("--chrome")?),
            "--json" => opts.json = true,
            "--once" => opts.once = true,
            "--refresh-ms" => {
                opts.refresh_ms = value("--refresh-ms")?
                    .parse()
                    .map_err(|e| format!("--refresh-ms: {e}"))?
            }
            other if !other.starts_with('-') => opts.positional.push(other.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.machines == 0 || opts.workers == 0 || opts.threads == 0 || opts.receivers == 0 {
        return Err("cluster dimensions must be positive".into());
    }
    if !opts.sparse_cutoff.is_finite() || opts.sparse_cutoff < 0.0 || opts.sparse_cutoff > 1e6 {
        return Err("--sparse-cutoff must be a finite fraction in [0, 1e6]".into());
    }
    if !opts.bucket_auto
        && (!opts.bucket_width.is_finite() || opts.bucket_width < 0.0 || opts.bucket_width > 1e18)
    {
        return Err("--bucket-width must be `auto` or a finite width in [0, 1e18]".into());
    }
    if !matches!(opts.bucket_mode.as_str(), "det" | "fast") {
        return Err(format!(
            "unknown bucket mode {}; expected det or fast",
            opts.bucket_mode
        ));
    }
    if !opts.skew.is_finite() || opts.skew < 0.0 || opts.skew >= 1.0 {
        return Err("--skew must be a fraction in [0, 1)".into());
    }
    // Spans ride on the trace file; without one they would vanish.
    if opts.flight && opts.trace.is_none() {
        return Err("--flight needs --trace FILE".into());
    }
    // Memory samples ride on the trace file the same way.
    if opts.mem && opts.trace.is_none() {
        return Err("--mem needs --trace FILE".into());
    }
    Ok(opts)
}

fn dataset_by_name(name: &str) -> Option<Dataset> {
    Dataset::all()
        .into_iter()
        .find(|d| d.info().name.eq_ignore_ascii_case(name))
}

fn load_graph(opts: &Options) -> Result<Graph, String> {
    match (&opts.input, &opts.dataset) {
        (Some(path), None) => {
            cyclops_graph::io::read_edge_list_file(path).map_err(|e| format!("reading {path}: {e}"))
        }
        (None, Some(name)) => {
            let ds = dataset_by_name(name)
                .ok_or_else(|| format!("unknown dataset {name}; see `cyclops help`"))?;
            Ok(ds.generate_scaled(opts.scale, opts.seed.unwrap_or(ds.default_seed())))
        }
        (None, None) => Err("provide --input FILE or --dataset NAME".into()),
        (Some(_), Some(_)) => Err("--input and --dataset are mutually exclusive".into()),
    }
}

fn build_cluster(opts: &Options) -> ClusterSpec {
    ClusterSpec {
        machines: opts.machines,
        workers_per_machine: opts.workers,
        threads_per_worker: opts.threads,
        receivers_per_worker: opts.receivers,
    }
}

/// Resolves `--replicate-threshold` against the run's actual graph and
/// partition (`auto` models replica-update vs direct-message traffic from
/// the boundary degree histogram and picks the argmin).
fn resolve_replicate_threshold(opts: &Options, g: &Graph, partition: &EdgeCutPartition) -> u32 {
    if opts.replicate_auto {
        let t = partition.auto_replicate_threshold(g);
        println!("replicate-threshold: auto -> {t}");
        t
    } else {
        opts.replicate_threshold
    }
}

/// Prints the hybrid-replication summary line (stable `key=value` fields,
/// greppable by CI) and publishes the replication-mode metrics to the
/// global registry when one is installed.
fn report_hybrid<V, M>(threshold: u32, r: &cyclops_engine::CyclopsResult<V, M>) {
    let ing = &r.ingress;
    println!(
        "hybrid: threshold={} replicated={} messaged={} boundary={} \
         direct_messages={} replication_factor={:.6}",
        threshold,
        ing.replicated_boundary,
        ing.messaged_boundary,
        ing.replicated_boundary + ing.messaged_boundary,
        r.direct_messages,
        r.replication_factor,
    );
    if let Some(reg) = cyclops::obs::global() {
        let mode = if threshold > 0 { "hybrid" } else { "full" };
        reg.float_gauge("cyclops_replication_factor", &[("mode", mode)])
            .set(r.replication_factor);
        reg.counter("cyclops_direct_messages_total", &[])
            .inc(r.direct_messages as u64);
    }
}

fn build_partition(opts: &Options, g: &Graph, k: usize) -> Result<EdgeCutPartition, String> {
    let mut p = match opts.partitioner.as_str() {
        "hash" => HashPartitioner.partition(g, k),
        "metis" | "multilevel" => MultilevelPartitioner::default().partition(g, k),
        other => return Err(format!("unknown partitioner {other} (hash|metis)")),
    };
    // `--skew f` piles the first f-fraction of the vertices onto worker 0
    // on top of whatever the partitioner chose — a deterministic way to
    // manufacture the unbalanced assignments the migration planner exists
    // to repair (and the skewed bench panel measures).
    if opts.skew > 0.0 {
        let cut = (opts.skew * g.num_vertices() as f64) as usize;
        for a in p.assignment.iter_mut().take(cut) {
            *a = 0;
        }
    }
    Ok(p)
}

/// Resolves `--migrate` to a concrete epoch length in supersteps (0 = off).
/// `auto` re-plans every 8 supersteps — short enough to catch a drifting
/// hot set, long enough that the per-epoch stop/replan cost amortizes.
fn resolve_migrate_every(opts: &Options) -> usize {
    if opts.migrate_auto {
        println!("migrate: auto -> every 8");
        8
    } else {
        opts.migrate_every
    }
}

/// Prints the migration summary line (stable `key=value` fields, greppable
/// by CI) and publishes the migration metrics to the global registry when
/// one is installed.
fn report_migration(report: &cyclops_engine::MigrationReport) {
    let (before, after) = report.imbalance_span().unwrap_or((0.0, 0.0));
    println!(
        "migration: epochs={} moves={} bytes={} imbalance_before={:.6} imbalance_after={:.6}",
        report.epochs, report.migrations_total, report.migrated_bytes, before, after,
    );
    if let Some(reg) = cyclops::obs::global() {
        reg.counter("cyclops_migrations_total", &[])
            .inc(report.migrations_total as u64);
        reg.counter("cyclops_migrated_bytes", &[])
            .inc(report.migrated_bytes as u64);
        reg.float_gauge("cyclops_compute_imbalance", &[("when", "before")])
            .set(before);
        reg.float_gauge("cyclops_compute_imbalance", &[("when", "after")])
            .set(after);
    }
}

/// Renders a trace I/O error consistently across every trace-reading
/// command (`metrics`, `top`, `trace-diff`, `why-slow`): always prefixed
/// `trace <path>:`, so scripts can match one shape for missing, truncated,
/// and malformed files alike.
fn trace_error(path: &str, e: std::io::Error) -> String {
    match e.kind() {
        std::io::ErrorKind::NotFound => format!("trace {path}: file not found"),
        // read_jsonl's InvalidData messages already lead with the path
        // ("<path>: empty trace" / "bad trace header" / "bad record on
        // line N").
        std::io::ErrorKind::InvalidData => format!("trace {e}"),
        _ => format!("trace {path}: {e}"),
    }
}

/// The one loader every trace-reading command goes through.
fn load_trace(path: &str) -> Result<cyclops_net::trace::RunTrace, String> {
    cyclops_net::trace::read_jsonl(path).map_err(|e| trace_error(path, e))
}

/// Writes `vertex value` lines to `path`.
fn write_output<T: std::fmt::Display>(path: &str, values: &[T]) -> Result<(), String> {
    let mut f = std::io::BufWriter::new(
        std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?,
    );
    for (v, x) in values.iter().enumerate() {
        writeln!(f, "{v} {x}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Builds the optional superstep-trace sink for a run command, honoring
/// `--stream`, `--values` and `--hot`. Call after `install_global` so the
/// hot-vertex gauges resolve.
fn build_sink(
    opts: &Options,
    engine: &str,
    cluster: &ClusterSpec,
) -> Result<Option<cyclops_net::trace::TraceSink>, String> {
    use cyclops_net::trace::TraceSink;
    if opts.stream && opts.trace.is_none() {
        return Err("--stream needs --trace FILE".into());
    }
    if opts.hot > 0 && opts.trace.is_none() {
        // Hot-vertex sketches ride on the trace sink; without one they
        // would be silently dropped.
        return Err("--hot needs --trace FILE".into());
    }
    let _mem = cyclops::obs::mem::MemScope::enter(cyclops::obs::Component::Trace);
    let mut sink = match &opts.trace {
        Some(path) if opts.stream => Some(
            if opts.values {
                TraceSink::streaming_with_values(engine, cluster, path)
            } else {
                TraceSink::streaming(engine, cluster, path)
            }
            .map_err(|e| format!("opening trace {path}: {e}"))?,
        ),
        Some(_) if opts.values => Some(TraceSink::with_values(engine, cluster)),
        Some(_) => Some(TraceSink::new(engine, cluster)),
        None => None,
    };
    if opts.hot > 0 {
        sink = sink.map(|s| s.with_hot_k(opts.hot));
    }
    // Panic safety: if the run dies before `finish_sink`, the sink's Drop
    // guard still writes the buffered trace tail (plus any flight spans and
    // memory samples) to the trace path.
    if let Some(path) = &opts.trace {
        sink = sink.map(|s| s.flush_on_drop(path));
    }
    Ok(sink)
}

/// Writes (buffered) or closes (streaming) the trace after the run.
fn finish_sink(opts: &Options, sink: Option<cyclops_net::trace::TraceSink>) -> Result<(), String> {
    let (Some(path), Some(mut sink)) = (&opts.trace, sink) else {
        return Ok(());
    };
    if sink.is_streaming() {
        let summary = sink
            .finish()
            .map_err(|e| format!("closing trace {path}: {e}"))?;
        println!(
            "trace streamed to {path}: {} records ({} deferred)",
            summary.records_written, summary.records_deferred
        );
    } else {
        sink.write_jsonl(path)
            .map_err(|e| format!("writing trace {path}: {e}"))?;
        println!("trace written to {path}");
    }
    // Spans drain only after the engine's scoped threads have joined (the
    // run returned), so every ring is quiescent here.
    if opts.flight {
        if let Some(fr) = cyclops::obs::flight() {
            let dump = fr.drain();
            let n = cyclops_net::trace::append_spans_jsonl(path, &dump.spans)
                .map_err(|e| format!("appending spans to {path}: {e}"))?;
            if dump.dropped > 0 {
                eprintln!(
                    "warning: flight recorder dropped {} spans to ring wraparound",
                    dump.dropped
                );
            }
            println!("{n} flight-recorder spans appended to {path}");
        }
    }
    // Memory samples drain the same way: the engine threads have joined, so
    // the per-barrier samples are complete.
    if opts.mem {
        let samples = cyclops::obs::mem::take_samples();
        let n = cyclops_net::trace::append_mem_jsonl(path, &samples)
            .map_err(|e| format!("appending memory samples to {path}: {e}"))?;
        println!("{n} memory samples appended to {path}");
    }
    Ok(())
}

fn print_stats(stats: &[cyclops_net::SuperstepStats]) {
    println!("superstep  active  messages  bytes");
    for s in stats {
        println!(
            "{:>9}  {:>6}  {:>8}  {:>5}",
            s.superstep, s.active_vertices, s.messages_sent, s.bytes_sent
        );
    }
}

fn run(opts: &Options) -> Result<(), String> {
    if opts.command == "help" || opts.command == "--help" || opts.command == "-h" {
        // The module doc is the manual.
        print!("{}", HELP);
        return Ok(());
    }
    const COMMANDS: &[&str] = &[
        "pagerank",
        "sssp",
        "bfs",
        "cc",
        "cd",
        "triangles",
        "gen",
        "info",
        "trace-diff",
        "metrics",
        "top",
        "why-slow",
        "timeline",
        "comm",
        "mem",
    ];
    if !COMMANDS.contains(&opts.command.as_str()) {
        return Err(format!(
            "unknown command {}; try `cyclops help`",
            opts.command
        ));
    }

    // `trace-diff` compares two trace files and exits.
    if opts.command == "trace-diff" {
        let [a, b] = opts.positional.as_slice() else {
            return Err(
                "trace-diff needs two trace files: trace-diff A B [--values|--values-only]".into(),
            );
        };
        let ta = load_trace(a)?;
        let tb = load_trace(b)?;
        let want_values = opts.values || opts.values_only;
        let values = want_values && ta.meta.values && tb.meta.values;
        if want_values && !values {
            eprintln!("warning: values requested but at least one trace lacks digests");
        }
        // `--values-only` compares only the result-determined columns
        // (frontier, computed, publications, aggregates), skipping traffic
        // counters — the mode that can certify two hybrid-replication runs
        // at different thresholds computed bitwise-identical values even
        // though their wire traffic legitimately differs.
        let divergence = if opts.values_only {
            cyclops_net::trace::diff::first_value_divergence(&ta, &tb)
        } else {
            cyclops_net::trace::diff::first_divergence(&ta, &tb, values)
        };
        match divergence {
            None => println!(
                "traces agree{}: {} supersteps x {} workers",
                if opts.values_only {
                    " (values only)"
                } else {
                    ""
                },
                ta.supersteps(),
                ta.meta.workers
            ),
            Some(d) => {
                println!(
                    "first divergence at superstep {} worker {}: {} = {} vs {}",
                    d.superstep, d.worker, d.counter, d.a, d.b
                );
                if let Some(v) = d.vertex {
                    println!("first divergent vertex: {v}");
                }
                // Non-zero exit so CI can gate on agreement, matching
                // `cyclops comm`'s consistency-check semantics.
                return Err("traces diverge".into());
            }
        }
        return Ok(());
    }

    // `metrics` summarizes a trace file and exits.
    if opts.command == "metrics" {
        let [path] = opts.positional.as_slice() else {
            return Err("metrics needs one trace file: metrics TRACE.jsonl".into());
        };
        let trace = load_trace(path)?;
        print!("{}", cyclops::obs::metrics_report(&trace));
        return Ok(());
    }

    // `why-slow` runs the critical-path profile and exits.
    if opts.command == "why-slow" {
        let [path] = opts.positional.as_slice() else {
            return Err("why-slow needs one trace file: why-slow TRACE.jsonl [--json]".into());
        };
        let trace = load_trace(path)?;
        if opts.json {
            print!("{}", cyclops::obs::why_slow_json(&trace));
        } else {
            print!("{}", cyclops::obs::why_slow_report(&trace));
        }
        return Ok(());
    }

    // `mem` renders the per-worker/per-component peak-memory table from a
    // `--mem` trace's samples and exits.
    if opts.command == "mem" {
        let [path] = opts.positional.as_slice() else {
            return Err("mem needs one trace file: mem TRACE.jsonl [--json]".into());
        };
        let trace = load_trace(path)?;
        if opts.json {
            print!("{}", cyclops::obs::mem_json(&trace));
        } else {
            print!("{}", cyclops::obs::mem_report(&trace));
        }
        return Ok(());
    }

    // `timeline` summarizes spans and optionally exports Chrome trace JSON.
    if opts.command == "timeline" {
        let [path] = opts.positional.as_slice() else {
            return Err(
                "timeline needs one trace file: timeline TRACE.jsonl [--chrome OUT.json]".into(),
            );
        };
        let trace = load_trace(path)?;
        print!("{}", cyclops::obs::timeline_summary(&trace));
        if let Some(out) = &opts.chrome {
            std::fs::write(out, cyclops::obs::chrome_trace(&trace))
                .map_err(|e| format!("writing {out}: {e}"))?;
            println!("chrome trace written to {out} (open in chrome://tracing or ui.perfetto.dev)");
        }
        return Ok(());
    }

    // `comm` renders the worker-pair communication matrix and verifies it.
    if opts.command == "comm" {
        let [path] = opts.positional.as_slice() else {
            return Err("comm needs one trace file: comm TRACE.jsonl".into());
        };
        let trace = load_trace(path)?;
        print!("{}", cyclops::obs::comm_report(&trace));
        if !cyclops::obs::comm_mismatches(&trace).is_empty() {
            return Err(format!(
                "trace {path}: comm row sums disagree with sent counters"
            ));
        }
        return Ok(());
    }

    // `top` tails a (possibly still growing) trace file.
    if opts.command == "top" {
        let [path] = opts.positional.as_slice() else {
            return Err(
                "top needs one trace file: top TRACE.jsonl [--once] [--refresh-ms N]".into(),
            );
        };
        // One-shot mode reads a complete trace: validate it through the
        // shared loader so a missing/empty/corrupt file fails exactly like
        // `metrics` or `why-slow` would. Live mode keeps the tolerant
        // follower — an empty or mid-write file just means "no data yet".
        if opts.once {
            let trace = load_trace(path)?;
            let mut stats = cyclops::obs::TraceStats::new();
            for r in &trace.records {
                stats.add(r);
            }
            print!("{}", cyclops::obs::top_frame(Some(&trace.meta), &stats, 64));
            return Ok(());
        }
        let mut follower = cyclops::obs::TraceFollower::new(path);
        let mut stats = cyclops::obs::TraceStats::new();
        loop {
            for r in follower.poll().map_err(|e| trace_error(path, e))? {
                stats.add(&r);
            }
            let frame = cyclops::obs::top_frame(follower.meta(), &stats, 64);
            // Clear the screen and redraw, like top(1).
            print!("\x1b[2J\x1b[H{frame}");
            std::io::stdout().flush().ok();
            std::thread::sleep(std::time::Duration::from_millis(opts.refresh_ms.max(50)));
        }
    }

    // `gen` writes an edge list and exits.
    if opts.command == "gen" {
        let name = opts.dataset.as_deref().ok_or("gen needs --dataset")?;
        let ds = dataset_by_name(name).ok_or_else(|| format!("unknown dataset {name}"))?;
        let g = ds.generate_scaled(opts.scale, opts.seed.unwrap_or(ds.default_seed()));
        let path = opts.output.as_deref().ok_or("gen needs --output FILE")?;
        cyclops_graph::io::write_edge_list_file(&g, path).map_err(|e| e.to_string())?;
        println!(
            "wrote {}: {} vertices, {} edges",
            path,
            g.num_vertices(),
            g.num_edges()
        );
        return Ok(());
    }

    // Arm the tracking allocator before the graph is even loaded, so every
    // long-lived structure (graph, plan, replicas, slots, pools) is
    // attributed. One-way: disarming mid-run would let frees drift the live
    // counters negative.
    if opts.mem {
        cyclops::obs::mem::arm();
    }
    let g = {
        let _mem = cyclops::obs::mem::MemScope::enter(cyclops::obs::Component::Graph);
        load_graph(opts)?
    };
    if opts.command == "info" {
        let s = cyclops_graph::stats::degree_stats(&g);
        println!("vertices: {}", g.num_vertices());
        println!("edges: {}", g.num_edges());
        println!("weighted: {}", g.is_weighted());
        println!("avg degree: {:.2}", s.avg_degree);
        println!("max out-degree: {}", s.max_out_degree);
        println!("max in-degree: {}", s.max_in_degree);
        println!("sinks: {:.1}%", 100.0 * s.sink_fraction);
        println!("sources: {:.1}%", 100.0 * s.source_fraction);
        return Ok(());
    }

    let cluster = build_cluster(opts);
    let partition = build_partition(opts, &g, cluster.num_workers())?;
    let use_hama = match opts.engine.as_str() {
        "cyclops" => false,
        "hama" | "bsp" => true,
        other => return Err(format!("unknown engine {other} (cyclops|hama)")),
    };
    let inbox = match opts.inbox.as_str() {
        "global" | "global_queue" => cyclops_net::InboxMode::GlobalQueue,
        "sharded" => cyclops_net::InboxMode::Sharded,
        other => return Err(format!("unknown inbox mode {other} (global|sharded)")),
    };
    let sched = match opts.sched.as_str() {
        "static" => cyclops_engine::Sched::Static,
        "dynamic" => cyclops_engine::Sched::Dynamic,
        other => return Err(format!("unknown scheduler {other} (static|dynamic)")),
    };
    let hybrid_requested = opts.replicate_auto || opts.replicate_threshold > 0;
    if hybrid_requested && use_hama {
        return Err("--replicate-threshold needs --engine cyclops".into());
    }
    if hybrid_requested && !matches!(opts.command.as_str(), "pagerank" | "sssp" | "cc") {
        return Err("--replicate-threshold applies to pagerank, sssp, and cc".into());
    }
    let migrate_requested = opts.migrate_auto || opts.migrate_every > 0;
    if migrate_requested && use_hama {
        return Err("--migrate needs --engine cyclops".into());
    }
    // Aggregate-free programs only: migration regroups the per-worker float
    // reductions, so a program folding a global aggregate could see its
    // convergence decision drift (see `run_cyclops_migrated_traced`).
    if migrate_requested && !matches!(opts.command.as_str(), "pagerank" | "sssp") {
        return Err("--migrate applies to pagerank and sssp".into());
    }
    // Migration pauses the classic loop on checkpoint epochs; the bucketed
    // settle has its own superstep structure.
    if migrate_requested && (opts.bucket_auto || opts.bucket_width > 0.0) {
        return Err("--migrate and --bucket-width are mutually exclusive".into());
    }
    // Install the global metrics registry *before* the engines construct
    // their transports/barriers, so instrumentation handles resolve.
    if opts.prom.is_some() || opts.listen.is_some() {
        cyclops::obs::install_global();
    }
    // Likewise the flight recorder: transports resolve their per-lane span
    // rings once, at construction.
    if opts.flight {
        cyclops::obs::install_flight();
    }
    // The scrape endpoint serves the live registry for the whole run; the
    // server thread shuts down when `server` drops at the end of `run`.
    let server = match &opts.listen {
        Some(addr) => {
            let reg = cyclops::obs::global().expect("registry installed above");
            let srv = cyclops::obs::MetricsServer::start(addr.as_str(), reg)
                .map_err(|e| format!("listening on {addr}: {e}"))?;
            println!("metrics listening on http://{}/metrics", srv.addr());
            Some(srv)
        }
        None => None,
    };
    if (opts.source as usize) >= g.num_vertices() && matches!(opts.command.as_str(), "sssp" | "bfs")
    {
        return Err(format!(
            "--source {} out of range ({} vertices)",
            opts.source,
            g.num_vertices()
        ));
    }

    match opts.command.as_str() {
        "pagerank" => {
            let engine = if use_hama { "bsp" } else { "cyclops" };
            let sink = build_sink(opts, engine, &cluster)?;
            let (values, supersteps, messages, stats) = if use_hama {
                let r = cyclops_bsp::run_bsp_traced(
                    &cyclops_algos::pagerank::BspPageRank {
                        epsilon: opts.epsilon,
                    },
                    &g,
                    &partition,
                    &cyclops_bsp::BspConfig {
                        cluster,
                        max_supersteps: opts.max_supersteps,
                        use_combiner: true,
                        track_redundant: true,
                        inbox,
                        sparse_cutoff: opts.sparse_cutoff,
                        ..Default::default()
                    },
                    sink.as_ref(),
                );
                (r.values, r.supersteps, r.counters.messages, r.stats)
            } else {
                let threshold = resolve_replicate_threshold(opts, &g, &partition);
                let every = resolve_migrate_every(opts);
                let r = if every > 0 {
                    let (r, migration) = cyclops_algos::pagerank::run_cyclops_pagerank_migrated(
                        &g,
                        &partition,
                        &cluster,
                        opts.epsilon,
                        opts.max_supersteps,
                        sched,
                        opts.sparse_cutoff,
                        threshold,
                        every,
                        cyclops_partition::MigrationConfig::default(),
                        sink.as_ref(),
                    );
                    report_migration(&migration);
                    r
                } else {
                    cyclops_algos::pagerank::run_cyclops_pagerank_tuned(
                        &g,
                        &partition,
                        &cluster,
                        opts.epsilon,
                        opts.max_supersteps,
                        sched,
                        opts.sparse_cutoff,
                        threshold,
                        sink.as_ref(),
                    )
                };
                report_hybrid(threshold, &r);
                (r.values, r.supersteps, r.counters.messages, r.stats)
            };
            finish_sink(opts, sink)?;
            println!("pagerank: {supersteps} supersteps, {messages} messages");
            let mut ranked: Vec<(u32, f64)> = values
                .iter()
                .enumerate()
                .map(|(v, &r)| (v as u32, r))
                .collect();
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            for (v, r) in ranked.iter().take(opts.top) {
                println!("  {v} {r:.6e}");
            }
            if opts.stats {
                print_stats(&stats);
            }
            if let Some(path) = &opts.output {
                write_output(path, &values)?;
            }
        }
        "sssp" => {
            if opts.trace.is_some() && use_hama {
                return Err("--trace with sssp needs --engine cyclops".into());
            }
            let sink = if use_hama {
                None
            } else {
                build_sink(opts, "cyclops", &cluster)?
            };
            // `auto` reaches the runners as width 0, which they resolve from
            // the mean edge weight; an explicit positive width passes through.
            let bucketed = opts.bucket_auto || opts.bucket_width > 0.0;
            let bucket_mode = match opts.bucket_mode.as_str() {
                "fast" => cyclops_net::BucketMode::Fast,
                _ => cyclops_net::BucketMode::Det,
            };
            let (values, supersteps) = if use_hama {
                let r = if bucketed {
                    cyclops_algos::sssp::run_bsp_sssp_bucketed(
                        &g,
                        &partition,
                        &cluster,
                        opts.source,
                        opts.max_supersteps,
                        opts.bucket_width,
                        bucket_mode,
                    )
                } else {
                    cyclops_algos::sssp::run_bsp_sssp(
                        &g,
                        &partition,
                        &cluster,
                        opts.source,
                        opts.max_supersteps,
                    )
                };
                (r.values, r.supersteps)
            } else if bucketed {
                let threshold = resolve_replicate_threshold(opts, &g, &partition);
                let r = cyclops_algos::sssp::run_cyclops_sssp_bucketed(
                    &g,
                    &partition,
                    &cluster,
                    opts.source,
                    opts.max_supersteps,
                    opts.bucket_width,
                    bucket_mode,
                    threshold,
                    sink.as_ref(),
                );
                report_hybrid(threshold, &r);
                (r.values, r.supersteps)
            } else {
                let threshold = resolve_replicate_threshold(opts, &g, &partition);
                let every = resolve_migrate_every(opts);
                let r = if every > 0 {
                    let (r, migration) = cyclops_algos::sssp::run_cyclops_sssp_migrated(
                        &g,
                        &partition,
                        &cluster,
                        opts.source,
                        opts.max_supersteps,
                        sched,
                        opts.sparse_cutoff,
                        threshold,
                        every,
                        cyclops_partition::MigrationConfig::default(),
                        sink.as_ref(),
                    );
                    report_migration(&migration);
                    r
                } else {
                    cyclops_algos::sssp::run_cyclops_sssp_tuned(
                        &g,
                        &partition,
                        &cluster,
                        opts.source,
                        opts.max_supersteps,
                        sched,
                        opts.sparse_cutoff,
                        threshold,
                        sink.as_ref(),
                    )
                };
                report_hybrid(threshold, &r);
                (r.values, r.supersteps)
            };
            finish_sink(opts, sink)?;
            let reachable = values.iter().filter(|d| d.is_finite()).count();
            println!(
                "sssp from {}: {supersteps} supersteps, {reachable}/{} reachable",
                opts.source,
                g.num_vertices()
            );
            if let Some(path) = &opts.output {
                write_output(path, &values)?;
            }
        }
        "bfs" => {
            let bucketed = opts.bucket_auto || opts.bucket_width > 0.0;
            if bucketed && use_hama {
                return Err("--bucket-width with bfs needs --engine cyclops".into());
            }
            let (values, supersteps) = if use_hama {
                let r = cyclops_algos::bfs::run_bsp_bfs(&g, &partition, &cluster, opts.source);
                (r.values, r.supersteps)
            } else if bucketed {
                // `auto` reaches the runner as width 0, which it resolves
                // to one hop ring per bucket.
                let bucket_mode = match opts.bucket_mode.as_str() {
                    "fast" => cyclops_net::BucketMode::Fast,
                    _ => cyclops_net::BucketMode::Det,
                };
                let r = cyclops_algos::bfs::run_cyclops_bfs_bucketed(
                    &g,
                    &partition,
                    &cluster,
                    opts.source,
                    opts.bucket_width,
                    bucket_mode,
                );
                (r.values, r.supersteps)
            } else {
                let r = cyclops_algos::bfs::run_cyclops_bfs(&g, &partition, &cluster, opts.source);
                (r.values, r.supersteps)
            };
            let reached = values.iter().filter(|&&l| l != u32::MAX).count();
            let depth = values
                .iter()
                .filter(|&&l| l != u32::MAX)
                .max()
                .copied()
                .unwrap_or(0);
            println!(
                "bfs from {}: {supersteps} supersteps, {reached}/{} reached, depth {depth}",
                opts.source,
                g.num_vertices()
            );
            if let Some(path) = &opts.output {
                write_output(path, &values)?;
            }
        }
        "cc" => {
            if opts.trace.is_some() && use_hama {
                return Err("--trace with cc needs --engine cyclops".into());
            }
            let sym = cyclops_algos::cc::symmetrize(&g);
            let partition = build_partition(opts, &sym, cluster.num_workers())?;
            let sink = if use_hama {
                None
            } else {
                build_sink(opts, "cyclops", &cluster)?
            };
            let values = if use_hama {
                cyclops_algos::cc::run_bsp_cc(&sym, &partition, &cluster).values
            } else {
                // Resolved against the symmetrized graph — the one the run
                // actually partitions and replicates.
                let threshold = resolve_replicate_threshold(opts, &sym, &partition);
                let r = cyclops_algos::cc::run_cyclops_cc_tuned(
                    &sym,
                    &partition,
                    &cluster,
                    sched,
                    opts.sparse_cutoff,
                    threshold,
                    sink.as_ref(),
                );
                report_hybrid(threshold, &r);
                r.values
            };
            finish_sink(opts, sink)?;
            let mut labels = values.clone();
            labels.sort_unstable();
            labels.dedup();
            println!("cc: {} components", labels.len());
            if let Some(path) = &opts.output {
                write_output(path, &values)?;
            }
        }
        "cd" => {
            let values = if use_hama {
                cyclops_algos::cd::run_bsp_cd(&g, &partition, &cluster, opts.sweeps + 1).values
            } else {
                cyclops_algos::cd::run_cyclops_cd(&g, &partition, &cluster, opts.sweeps).values
            };
            let mut sizes: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
            for &l in &values {
                *sizes.entry(l).or_insert(0) += 1;
            }
            println!(
                "cd: {} communities after {} sweeps",
                sizes.len(),
                opts.sweeps
            );
            let mut by_size: Vec<(u32, usize)> = sizes.into_iter().collect();
            by_size.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
            for (label, n) in by_size.iter().take(opts.top) {
                println!("  community {label}: {n} members");
            }
            if let Some(path) = &opts.output {
                write_output(path, &values)?;
            }
        }
        "triangles" => {
            let sym = cyclops_algos::cc::symmetrize(&g);
            let partition = build_partition(opts, &sym, cluster.num_workers())?;
            let values = if use_hama {
                cyclops_algos::triangles::run_bsp_triangles(&sym, &partition, &cluster).values
            } else {
                cyclops_algos::triangles::run_cyclops_triangles(&sym, &partition, &cluster).values
            };
            println!("triangles: {}", values.iter().sum::<u64>());
        }
        other => return Err(format!("unknown command {other}; try `cyclops help`")),
    }
    if let Some(path) = &opts.prom {
        let reg = cyclops::obs::global().expect("registry installed above");
        std::fs::write(path, cyclops::obs::render_prometheus(reg))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("metrics exposition written to {path}");
    }
    drop(server); // stop the scrape endpoint after the final exposition
    Ok(())
}

const HELP: &str = "cyclops — distributed graph processing with distributed immutable view

usage: cyclops <command> [options]

commands:
  pagerank | sssp | bfs | cc | cd | triangles | gen | info
  trace-diff | metrics | top | why-slow | timeline | comm | mem | help

input:       --input FILE | --dataset NAME [--scale F] [--seed N]
             datasets: Amazon GWeb LJournal Wiki SYN-GL DBLP RoadCA
execution:   --engine cyclops|hama  --machines M --workers W
             --threads T --receivers R  --partitioner hash|metis
             --inbox global|sharded (hama)
             --sched static|dynamic (cyclops; dynamic = degree-weighted
             chunk claiming, bitwise-identical results to static)
             --sparse-cutoff F  sparse-superstep fast path when the
             frontier is below F of local masters (default 0.015;
             0 disables; results bitwise identical either way)
             --bucket-width D|auto  bucketed (delta-stepping) sssp
             or hop-ring bfs: each superstep drains one priority
             bucket of width D, fusing the relaxation rounds behind a
             single barrier (auto = 8x mean edge weight for sssp, one
             hop ring for bfs; default 0 = off; results bitwise
             identical)
             --bucket-mode det|fast  det (default) fixes the in-bucket
             drain order for reproducible traces; fast keeps arrival
             order
             --replicate-threshold N|auto  hybrid replication (cyclops
             pagerank/sssp/cc): boundary vertices with combined degree
             below N get no replica — their cross-worker edges receive
             direct messages instead (auto = modeled-traffic argmin;
             default 0 = replicate every boundary vertex; results
             bitwise identical at every threshold)
             --migrate off|K|auto  runtime hot-vertex migration (cyclops
             pagerank/sssp): every K supersteps move hot masters off the
             most loaded worker and rewire the plan incrementally,
             decided from deterministic compute counters — never clocks
             (auto = every 8; default off; results bitwise identical)
             --skew F  pile the first F-fraction of the vertices onto
             worker 0 before running (deterministic imbalance for
             migration experiments; F in [0, 1))
algorithm:   --epsilon F  --max-supersteps N  --source V  --sweeps N
output:      --output FILE  --top N  --stats
tracing:     --trace FILE (pagerank; sssp/cc on cyclops)  --stream  --values
             --hot K  per-worker hot-vertex top-K sketch in the trace
             --prom FILE  writes Prometheus metrics after the run
             --listen ADDR  serves GET /metrics + /healthz live during
             the run (e.g. --listen 127.0.0.1:9184)
             trace-diff A B [--values]  reports the first divergent
             superstep/worker/counter between two runs and exits
             non-zero on divergence; --values-only compares only
             result-determined columns (certifies two hybrid-threshold
             runs computed identical values even though their traffic
             counters differ)
             metrics TRACE.jsonl  per-phase p50/p90/p99 + sparklines
             top TRACE.jsonl [--once] [--refresh-ms N]  live dashboard
             why-slow TRACE.jsonl [--json]  critical-path profile:
             straggler attribution + hot-vertex table + comm matrix
             --flight  record span-level flight-recorder events during
             the run and append them to the trace (needs --trace)
             --mem  arm the tracking allocator: per-worker/per-component
             live/peak bytes (+ VmRSS) sampled at each superstep barrier
             and appended to the trace (needs --trace; results and trace
             records stay bitwise identical)
             mem TRACE.jsonl [--json]  per-worker/per-component peak
             table from a --mem trace's samples
             timeline TRACE.jsonl [--chrome OUT.json]  span summary;
             --chrome exports Chrome trace-event JSON (chrome://tracing,
             ui.perfetto.dev); traces without spans synthesize phase
             spans from the deterministic counters
             comm TRACE.jsonl  worker-pair communication matrix heatmap;
             exits non-zero when row sums disagree with sent counters

examples:
  cyclops pagerank --dataset GWeb --scale 0.2 --machines 3 --workers 2
  cyclops sssp --dataset RoadCA --source 5 --partitioner metis
  cyclops sssp --dataset RoadCA --bucket-width auto --bucket-mode det
  cyclops pagerank --dataset GWeb --replicate-threshold auto
  cyclops pagerank --dataset GWeb --skew 0.6 --migrate auto
  cyclops gen --dataset Wiki --scale 0.1 --output wiki.txt
  cyclops cc --input wiki.txt --engine hama
  cyclops pagerank --dataset Amazon --trace run-a.jsonl --values
  cyclops trace-diff run-a.jsonl run-b.jsonl --values
  cyclops pagerank --dataset Amazon --trace run.jsonl --stream --prom run.prom
  cyclops pagerank --dataset GWeb --trace run.jsonl --hot 8 --listen 127.0.0.1:9184
  cyclops metrics run.jsonl
  cyclops top run.jsonl --once
  cyclops why-slow run.jsonl --json
  cyclops pagerank --dataset Amazon --trace run.jsonl --flight
  cyclops timeline run.jsonl --chrome run.chrome.json
  cyclops comm run.jsonl
  cyclops pagerank --dataset Amazon --trace run.jsonl --mem
  cyclops mem run.jsonl --json
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|opts| run(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_full_command_line() {
        let o = parse_args(&args(
            "pagerank --dataset GWeb --scale 0.2 --engine hama --machines 3 \
             --workers 4 --threads 2 --receivers 2 --partitioner metis \
             --epsilon 1e-6 --max-supersteps 50 --top 3 --stats",
        ))
        .unwrap();
        assert_eq!(o.command, "pagerank");
        assert_eq!(o.dataset.as_deref(), Some("GWeb"));
        assert_eq!(o.scale, 0.2);
        assert_eq!(o.engine, "hama");
        assert_eq!(o.machines, 3);
        assert_eq!(o.workers, 4);
        assert_eq!(o.threads, 2);
        assert_eq!(o.receivers, 2);
        assert_eq!(o.partitioner, "metis");
        assert_eq!(o.epsilon, 1e-6);
        assert_eq!(o.max_supersteps, 50);
        assert_eq!(o.top, 3);
        assert!(o.stats);
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(parse_args(&args("pagerank --bogus")).is_err());
        assert!(parse_args(&args("pagerank --scale")).is_err());
        assert!(parse_args(&args("")).is_err());
    }

    #[test]
    fn parses_trace_flags_and_positionals() {
        let o = parse_args(&args("pagerank --dataset GWeb --trace out.jsonl --values")).unwrap();
        assert_eq!(o.trace.as_deref(), Some("out.jsonl"));
        assert!(o.values);
        let o = parse_args(&args("trace-diff a.jsonl b.jsonl --values")).unwrap();
        assert_eq!(o.command, "trace-diff");
        assert_eq!(o.positional, vec!["a.jsonl", "b.jsonl"]);
        assert!(o.values);
    }

    #[test]
    fn parses_metrics_flags() {
        let o = parse_args(&args(
            "pagerank --dataset GWeb --trace out.jsonl --stream --prom out.prom \
             --engine hama --inbox sharded",
        ))
        .unwrap();
        assert!(o.stream);
        assert_eq!(o.prom.as_deref(), Some("out.prom"));
        assert_eq!(o.inbox, "sharded");
        let o = parse_args(&args("pagerank --dataset GWeb --sched static")).unwrap();
        assert_eq!(o.sched, "static");
        let o = parse_args(&args("pagerank --dataset GWeb")).unwrap();
        assert_eq!(o.sched, "dynamic");
        assert_eq!(o.sparse_cutoff, 0.015);
        let o = parse_args(&args("sssp --dataset RoadCA --sparse-cutoff 0.05")).unwrap();
        assert_eq!(o.sparse_cutoff, 0.05);
        let o = parse_args(&args("sssp --dataset RoadCA --sparse-cutoff 0")).unwrap();
        assert_eq!(o.sparse_cutoff, 0.0);
        assert!(parse_args(&args("sssp --sparse-cutoff -1")).is_err());
        assert!(parse_args(&args("sssp --sparse-cutoff nope")).is_err());
        assert!(parse_args(&args("sssp --sparse-cutoff inf")).is_err());
        assert!(parse_args(&args("sssp --sparse-cutoff 1e9")).is_err());
        let o = parse_args(&args("top run.jsonl --once --refresh-ms 100")).unwrap();
        assert_eq!(o.command, "top");
        assert_eq!(o.positional, vec!["run.jsonl"]);
        assert!(o.once);
        assert_eq!(o.refresh_ms, 100);
        let o = parse_args(&args("metrics run.jsonl")).unwrap();
        assert_eq!(o.command, "metrics");
        assert_eq!(o.positional, vec!["run.jsonl"]);
    }

    #[test]
    fn parses_and_validates_bucket_flags() {
        // Off by default; no bucket flags means the classic path.
        let o = parse_args(&args("sssp --dataset RoadCA")).unwrap();
        assert_eq!(o.bucket_width, 0.0);
        assert!(!o.bucket_auto);
        assert_eq!(o.bucket_mode, "det");
        let o = parse_args(&args("sssp --dataset RoadCA --bucket-width 2.5")).unwrap();
        assert_eq!(o.bucket_width, 2.5);
        assert!(!o.bucket_auto);
        let o = parse_args(&args("sssp --dataset RoadCA --bucket-width auto")).unwrap();
        assert!(o.bucket_auto);
        assert_eq!(o.bucket_width, 0.0);
        let o = parse_args(&args(
            "sssp --dataset RoadCA --bucket-width 1 --bucket-mode fast",
        ))
        .unwrap();
        assert_eq!(o.bucket_mode, "fast");
        // Rejections: NaN, negative, non-finite, absurd, junk, bad mode.
        assert!(parse_args(&args("sssp --bucket-width NaN")).is_err());
        assert!(parse_args(&args("sssp --bucket-width -2")).is_err());
        assert!(parse_args(&args("sssp --bucket-width inf")).is_err());
        assert!(parse_args(&args("sssp --bucket-width 1e19")).is_err());
        assert!(parse_args(&args("sssp --bucket-width nope")).is_err());
        assert!(parse_args(&args("sssp --bucket-width")).is_err());
        assert!(parse_args(&args("sssp --bucket-width 1 --bucket-mode greedy")).is_err());
    }

    #[test]
    fn parses_and_validates_replicate_threshold() {
        // Off by default: full replication.
        let o = parse_args(&args("pagerank --dataset GWeb")).unwrap();
        assert_eq!(o.replicate_threshold, 0);
        assert!(!o.replicate_auto);
        let o = parse_args(&args("pagerank --dataset GWeb --replicate-threshold 8")).unwrap();
        assert_eq!(o.replicate_threshold, 8);
        assert!(!o.replicate_auto);
        let o = parse_args(&args("pagerank --dataset GWeb --replicate-threshold auto")).unwrap();
        assert!(o.replicate_auto);
        assert_eq!(o.replicate_threshold, 0);
        // Rejections mirror --bucket-width: junk, negative, fractional,
        // overflow, missing value.
        assert!(parse_args(&args("pagerank --replicate-threshold nope")).is_err());
        assert!(parse_args(&args("pagerank --replicate-threshold -1")).is_err());
        assert!(parse_args(&args("pagerank --replicate-threshold 2.5")).is_err());
        assert!(parse_args(&args("pagerank --replicate-threshold 5000000000")).is_err());
        assert!(parse_args(&args("pagerank --replicate-threshold")).is_err());
    }

    #[test]
    fn parses_and_validates_migrate_and_skew() {
        // Off by default: static placement, unskewed partition.
        let o = parse_args(&args("pagerank --dataset GWeb")).unwrap();
        assert_eq!(o.migrate_every, 0);
        assert!(!o.migrate_auto);
        assert_eq!(o.skew, 0.0);
        let o = parse_args(&args("pagerank --dataset GWeb --migrate 8")).unwrap();
        assert_eq!(o.migrate_every, 8);
        assert!(!o.migrate_auto);
        let o = parse_args(&args("pagerank --dataset GWeb --migrate auto")).unwrap();
        assert!(o.migrate_auto);
        assert_eq!(o.migrate_every, 0);
        let o = parse_args(&args("pagerank --dataset GWeb --migrate off")).unwrap();
        assert!(!o.migrate_auto);
        assert_eq!(o.migrate_every, 0);
        let o = parse_args(&args("pagerank --dataset GWeb --skew 0.6 --migrate auto")).unwrap();
        assert_eq!(o.skew, 0.6);
        // Rejections: junk, negative, fractional epoch, missing value.
        assert!(parse_args(&args("pagerank --migrate nope")).is_err());
        assert!(parse_args(&args("pagerank --migrate -1")).is_err());
        assert!(parse_args(&args("pagerank --migrate 2.5")).is_err());
        assert!(parse_args(&args("pagerank --migrate")).is_err());
        // Skew is a fraction in [0, 1): reject 1.0 and up, negatives, NaN.
        assert!(parse_args(&args("pagerank --skew 1.0")).is_err());
        assert!(parse_args(&args("pagerank --skew -0.1")).is_err());
        assert!(parse_args(&args("pagerank --skew NaN")).is_err());
        assert!(parse_args(&args("pagerank --skew nope")).is_err());
        assert!(parse_args(&args("pagerank --skew")).is_err());
    }

    #[test]
    fn parses_values_only_diff_flag() {
        let o = parse_args(&args("trace-diff a.jsonl b.jsonl --values-only")).unwrap();
        assert!(o.values_only);
        assert!(!o.values);
    }

    #[test]
    fn parses_profiler_flags() {
        let o = parse_args(&args(
            "pagerank --dataset GWeb --trace run.jsonl --hot 8 --listen 127.0.0.1:9184",
        ))
        .unwrap();
        assert_eq!(o.hot, 8);
        assert_eq!(o.listen.as_deref(), Some("127.0.0.1:9184"));
        let o = parse_args(&args("why-slow run.jsonl --json")).unwrap();
        assert_eq!(o.command, "why-slow");
        assert_eq!(o.positional, vec!["run.jsonl"]);
        assert!(o.json);
        let o = parse_args(&args("why-slow run.jsonl")).unwrap();
        assert!(!o.json);
        assert_eq!(o.hot, 0);
        assert!(parse_args(&args("pagerank --hot nope")).is_err());
        assert!(parse_args(&args("pagerank --listen")).is_err());
    }

    #[test]
    fn parses_mem_flags() {
        let o = parse_args(&args("pagerank --dataset GWeb --trace run.jsonl --mem")).unwrap();
        assert!(o.mem);
        // Memory samples ride on the trace file, so --mem alone is an error.
        assert!(parse_args(&args("pagerank --dataset GWeb --mem")).is_err());
        let o = parse_args(&args("mem run.jsonl --json")).unwrap();
        assert_eq!(o.command, "mem");
        assert_eq!(o.positional, vec!["run.jsonl"]);
        assert!(o.json);
        let o = parse_args(&args("mem run.jsonl")).unwrap();
        assert!(!o.json);
    }

    #[test]
    fn parses_flight_and_timeline_flags() {
        let o = parse_args(&args("pagerank --dataset GWeb --trace run.jsonl --flight")).unwrap();
        assert!(o.flight);
        // Spans ride on the trace file, so --flight alone is an error.
        assert!(parse_args(&args("pagerank --dataset GWeb --flight")).is_err());
        let o = parse_args(&args("timeline run.jsonl --chrome out.json")).unwrap();
        assert_eq!(o.command, "timeline");
        assert_eq!(o.positional, vec!["run.jsonl"]);
        assert_eq!(o.chrome.as_deref(), Some("out.json"));
        let o = parse_args(&args("timeline run.jsonl")).unwrap();
        assert!(o.chrome.is_none());
        assert!(parse_args(&args("timeline run.jsonl --chrome")).is_err());
        let o = parse_args(&args("comm run.jsonl")).unwrap();
        assert_eq!(o.command, "comm");
        assert_eq!(o.positional, vec!["run.jsonl"]);
    }

    #[test]
    fn rejects_zero_cluster_dimensions() {
        assert!(parse_args(&args("pagerank --machines 0")).is_err());
    }

    #[test]
    fn dataset_names_resolve_case_insensitively() {
        assert_eq!(dataset_by_name("gweb"), Some(Dataset::GWeb));
        assert_eq!(dataset_by_name("SYN-GL"), Some(Dataset::SynGl));
        assert_eq!(dataset_by_name("roadca"), Some(Dataset::RoadCa));
        assert_eq!(dataset_by_name("nope"), None);
    }

    #[test]
    fn load_graph_requires_exactly_one_source() {
        let mut o = Options::default();
        assert!(load_graph(&o).is_err());
        o.input = Some("x".into());
        o.dataset = Some("GWeb".into());
        assert!(load_graph(&o).is_err());
    }
}
