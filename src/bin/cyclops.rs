//! `cyclops` — command-line driver for the graph engines.
//!
//! `cyclops help` prints the manual — [`HELP`], at the end of this file:
//! every command, flag and default, and which flag is refused where and why.
//!
//! Six commands run a vertex program (`pagerank`, `sssp`, `bfs`, `cc`, `cd`,
//! `triangles`) on `--engine cyclops|hama`; `gen` and `info` make and
//! describe graphs; `trace-diff`, `metrics`, `top`, `why-slow`, `timeline`,
//! `comm` and `mem` read the trace file a run wrote with `--trace`.
//!
//! There is one way a command runs: `run` maps [`Options`] to each engine's
//! one config once, the command adds its program and its superstep cap, and
//! [`drive_cyclops`] / [`drive_hama`] do the rest (sink, run, report lines),
//! so an execution flag reaches every command on every engine that has the
//! dial, and what is refused is an error with a reason, never a dropped flag.

use cyclops::obs;
use cyclops::prelude::*;
use cyclops_bsp::{run_bsp_traced, BspConfig, BspProgram};
use cyclops_engine::{run_cyclops_migrated_traced, run_cyclops_traced, CyclopsProgram};
use cyclops_net::SuperstepStats;
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
    /// `--max-supersteps`; absent, each command keeps its own cap.
    max_supersteps: Option<usize>,
    source: u32,
    sweeps: usize,
    output: Option<String>,
    top: usize,
    seed: Option<u64>,
    stats: bool,
    trace: Option<String>,
    values: bool,
    values_only: bool,
    inbox: String,
    bucket_width: f64,
    bucket_auto: bool,
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
            max_supersteps: None,
            source: 0,
            sweeps: 30,
            output: None,
            top: 10,
            seed: None,
            stats: false,
            trace: None,
            values: false,
            values_only: false,
            inbox: "global".into(),
            // 0 = bucketing off, keeping default traces/output unchanged.
            bucket_width: 0.0,
            bucket_auto: false,
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

/// Parses one flag's value, naming the flag in the error.
fn parsed<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    opts.command = it
        .next()
        .ok_or_else(|| "missing command; try `cyclops help`".to_string())?
        .clone();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--input" => opts.input = Some(value()?),
            "--dataset" => opts.dataset = Some(value()?),
            "--scale" => opts.scale = parsed(flag, value()?)?,
            "--engine" => opts.engine = value()?,
            "--machines" => opts.machines = parsed(flag, value()?)?,
            "--workers" => opts.workers = parsed(flag, value()?)?,
            "--threads" => opts.threads = parsed(flag, value()?)?,
            "--receivers" => opts.receivers = parsed(flag, value()?)?,
            "--partitioner" => opts.partitioner = value()?,
            "--epsilon" => opts.epsilon = parsed(flag, value()?)?,
            "--max-supersteps" => opts.max_supersteps = Some(parsed(flag, value()?)?),
            "--source" => opts.source = parsed(flag, value()?)?,
            "--sweeps" => opts.sweeps = parsed(flag, value()?)?,
            "--output" => opts.output = Some(value()?),
            "--top" => opts.top = parsed(flag, value()?)?,
            "--seed" => opts.seed = Some(parsed(flag, value()?)?),
            "--stats" => opts.stats = true,
            "--trace" => opts.trace = Some(value()?),
            "--values" => opts.values = true,
            "--values-only" => opts.values_only = true,
            "--inbox" => opts.inbox = value()?,
            // `auto` / `off` are kept beside a zeroed number, so a later
            // explicit value overrides an earlier keyword and vice versa.
            "--bucket-width" => {
                let v = value()?;
                opts.bucket_auto = v == "auto";
                opts.bucket_width = if opts.bucket_auto {
                    0.0
                } else {
                    parsed(flag, v)?
                };
            }
            "--replicate-threshold" => {
                let v = value()?;
                opts.replicate_auto = v == "auto";
                opts.replicate_threshold = if opts.replicate_auto {
                    0
                } else {
                    parsed(flag, v)?
                };
            }
            "--migrate" => {
                let v = value()?;
                opts.migrate_auto = v == "auto";
                opts.migrate_every = if opts.migrate_auto || v == "off" {
                    0
                } else {
                    parsed(flag, v)?
                };
            }
            "--skew" => opts.skew = parsed(flag, value()?)?,
            "--prom" => opts.prom = Some(value()?),
            "--listen" => opts.listen = Some(value()?),
            "--hot" => opts.hot = parsed(flag, value()?)?,
            "--flight" => opts.flight = true,
            "--mem" => opts.mem = true,
            "--chrome" => opts.chrome = Some(value()?),
            "--json" => opts.json = true,
            "--once" => opts.once = true,
            "--refresh-ms" => opts.refresh_ms = parsed(flag, value()?)?,
            other if !other.starts_with('-') => opts.positional.push(other.to_string()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.machines == 0 || opts.workers == 0 || opts.threads == 0 || opts.receivers == 0 {
        return Err("cluster dimensions must be positive".into());
    }
    if !opts.bucket_auto
        && (!opts.bucket_width.is_finite() || opts.bucket_width < 0.0 || opts.bucket_width > 1e18)
    {
        return Err("--bucket-width must be `auto` or a finite width in [0, 1e18]".into());
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
        reg.float_gauge("cyclops_migration_imbalance", &[("when", "before")])
            .set(before);
        reg.float_gauge("cyclops_migration_imbalance", &[("when", "after")])
            .set(after);
    }
}

/// Renders a trace I/O error consistently across every trace-reading
/// command (`trace-diff`, `metrics`, `top`, `why-slow`, `timeline`, `comm`,
/// `mem`): always prefixed `trace <path>:`, so scripts can match one shape
/// for missing, truncated, and malformed files alike.
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

/// Opens the run's trace file when `--trace` asks for one, honoring
/// `--values` and `--hot`. Call after `install_global` so the hot-vertex
/// gauges resolve. If the run dies before `finish_sink`, dropping the sink
/// still closes the file.
fn build_sink(
    opts: &Options,
    engine: &str,
    cluster: &ClusterSpec,
) -> Result<Option<cyclops_net::trace::TraceSink>, String> {
    let Some(path) = &opts.trace else {
        // Hot-vertex sketches ride on the trace sink; without one they
        // would be silently dropped.
        if opts.hot > 0 {
            return Err("--hot needs --trace FILE".into());
        }
        return Ok(None);
    };
    let _mem = cyclops::obs::mem::MemScope::enter(cyclops::obs::Component::Trace);
    let sink = cyclops_net::trace::TraceSink::create(engine, cluster, path, opts.values)
        .map_err(|e| format!("opening trace {path}: {e}"))?;
    Ok(Some(match opts.hot {
        0 => sink,
        k => sink.with_hot_k(k),
    }))
}

/// Closes the trace file after the run; the sink appends the flight spans
/// and memory samples itself.
fn finish_sink(opts: &Options, sink: Option<cyclops_net::trace::TraceSink>) -> Result<(), String> {
    let (Some(path), Some(sink)) = (&opts.trace, sink) else {
        return Ok(());
    };
    let summary = sink
        .finish()
        .map_err(|e| format!("closing trace {path}: {e}"))?;
    println!(
        "trace written to {path}: {} records",
        summary.records_written
    );
    if opts.flight {
        if summary.spans_dropped > 0 {
            eprintln!(
                "warning: flight recorder dropped {} spans to ring wraparound",
                summary.spans_dropped
            );
        }
        println!("{} flight-recorder spans appended to {path}", summary.spans);
    }
    if opts.mem {
        println!("{} memory samples appended to {path}", summary.mem_samples);
    }
    Ok(())
}

fn print_stats(stats: &[SuperstepStats]) {
    println!("superstep  active  messages  bytes");
    for s in stats {
        println!(
            "{:>9}  {:>6}  {:>8}  {:>5}",
            s.superstep, s.active_vertices, s.messages_sent, s.bytes_sent
        );
    }
}

/// What a run command's summary reads, whichever engine produced it.
struct Ran<V> {
    values: Vec<V>,
    supersteps: usize,
    messages: usize,
    stats: Vec<SuperstepStats>,
}

impl<V: std::fmt::Display> Ran<V> {
    /// `--stats` and `--output`, after the command's own summary lines.
    fn finish(&self, opts: &Options) -> Result<(), String> {
        if opts.stats {
            print_stats(&self.stats);
        }
        if let Some(path) = &opts.output {
            write_output(path, &self.values)?;
        }
        Ok(())
    }
}

/// The one way a command runs on the Cyclops engine: resolve
/// `--replicate-threshold` against the graph and partition the run really
/// uses, build the trace sink, run plain or with `--migrate`, print the
/// report lines, finish the sink. `config` arrives with everything else the
/// flags and the command decided.
fn drive_cyclops<P: CyclopsProgram>(
    opts: &Options,
    program: &P,
    g: &Graph,
    partition: &EdgeCutPartition,
    config: CyclopsConfig,
) -> Result<Ran<P::Value>, String> {
    let sink = build_sink(opts, "cyclops", &config.cluster)?;
    // `auto` models replica-update vs direct-message traffic from the
    // boundary degree histogram and picks the argmin.
    let replicate_threshold = if opts.replicate_auto {
        let t = partition.auto_replicate_threshold(g);
        println!("replicate-threshold: auto -> {t}");
        t
    } else {
        opts.replicate_threshold
    };
    let config = CyclopsConfig {
        replicate_threshold,
        ..config
    };
    // `auto` re-plans every 8 supersteps — short enough to catch a drifting
    // hot set, long enough that the per-epoch stop/replan cost amortizes.
    let every = if opts.migrate_auto {
        println!("migrate: auto -> every 8");
        8
    } else {
        opts.migrate_every
    };
    let r = if every > 0 {
        let (r, migration) = run_cyclops_migrated_traced(
            program,
            g,
            partition,
            &config,
            every,
            cyclops_partition::MigrationConfig::default(),
            sink.as_ref(),
        );
        report_migration(&migration);
        r
    } else {
        run_cyclops_traced(program, g, partition, &config, sink.as_ref())
    };
    report_hybrid(config.replicate_threshold, &r);
    finish_sink(opts, sink)?;
    Ok(Ran {
        values: r.values,
        supersteps: r.supersteps,
        messages: r.counters.messages,
        stats: r.stats,
    })
}

/// The one way a command runs on the Hama baseline: build the sink, run,
/// finish the sink. Hama has no replicas and no migration to report.
fn drive_hama<P: BspProgram>(
    opts: &Options,
    program: &P,
    g: &Graph,
    partition: &EdgeCutPartition,
    config: &BspConfig,
) -> Result<Ran<P::Value>, String> {
    let sink = build_sink(opts, "bsp", &config.cluster)?;
    let r = run_bsp_traced(program, g, partition, config, sink.as_ref());
    finish_sink(opts, sink)?;
    Ok(Ran {
        values: r.values,
        supersteps: r.supersteps,
        messages: r.counters.messages,
        stats: r.stats,
    })
}

fn run(opts: &Options) -> Result<(), String> {
    if opts.command == "help" || opts.command == "--help" || opts.command == "-h" {
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

    // The report commands fold one trace file into one summary and render
    // it. `top --once` loads through the shared loader like the others, so a
    // missing, empty or corrupt file fails the same way everywhere; live
    // `top` tails the file with the tolerant follower, since an empty or
    // mid-write file just means "no data yet".
    let usage = match opts.command.as_str() {
        "metrics" | "comm" => Some(""),
        "why-slow" | "mem" => Some(" [--json]"),
        "timeline" => Some(" [--chrome OUT.json]"),
        "top" => Some(" [--once] [--refresh-ms N]"),
        _ => None,
    };
    if let Some(usage) = usage {
        let command = opts.command.as_str();
        let [path] = opts.positional.as_slice() else {
            return Err(format!(
                "{command} needs one trace file: {command} TRACE.jsonl{usage}"
            ));
        };
        if command == "top" && !opts.once {
            let mut follower = obs::TraceFollower::new(path);
            let mut summary = obs::TraceSummary::default();
            loop {
                for r in follower.poll().map_err(|e| trace_error(path, e))? {
                    summary.add(&r);
                }
                let frame = obs::top_frame(follower.meta(), &summary, 64);
                // Clear the screen and redraw, like top(1).
                print!("\x1b[2J\x1b[H{frame}");
                std::io::stdout().flush().ok();
                std::thread::sleep(std::time::Duration::from_millis(opts.refresh_ms.max(50)));
            }
        }
        let trace = load_trace(path)?;
        let summary = obs::TraceSummary::of(&trace);
        let report = match (command, opts.json) {
            ("metrics", _) => obs::metrics_report(&summary),
            ("top", _) => obs::top_frame(Some(&trace.meta), &summary, 64),
            ("why-slow", true) => obs::why_slow_json(&summary),
            ("why-slow", false) => obs::why_slow_report(&summary),
            ("mem", true) => obs::mem_json(&summary),
            ("mem", false) => obs::mem_report(&summary),
            ("timeline", _) => obs::timeline_summary(&summary),
            _ => obs::comm_report(&summary),
        };
        print!("{report}");
        if let (Some(out), "timeline") = (&opts.chrome, command) {
            std::fs::write(out, obs::chrome_trace(&trace, &summary))
                .map_err(|e| format!("writing {out}: {e}"))?;
            println!("chrome trace written to {out} (open in chrome://tracing or ui.perfetto.dev)");
        }
        if command == "comm" && !summary.mismatches.is_empty() {
            return Err(format!(
                "trace {path}: comm row sums disagree with sent counters"
            ));
        }
        return Ok(());
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
    // The restrictions below are the ones with a reason in an engine; every
    // other execution flag reaches every command on every engine that has
    // the dial.
    let command = opts.command.as_str();
    // Hama has no replicas to withhold.
    if (opts.replicate_auto || opts.replicate_threshold > 0) && use_hama {
        return Err("--replicate-threshold needs --engine cyclops".into());
    }
    let migrate_requested = opts.migrate_auto || opts.migrate_every > 0;
    if migrate_requested && use_hama {
        return Err("--migrate needs --engine cyclops".into());
    }
    // Aggregate-free programs only: migration regroups the per-worker float
    // reductions, so a program folding a global aggregate could see its
    // convergence decision drift (see `run_cyclops_migrated_traced`).
    if migrate_requested && !matches!(command, "pagerank" | "sssp") {
        return Err("--migrate applies to pagerank and sssp".into());
    }
    let bucketed = opts.bucket_auto || opts.bucket_width > 0.0;
    // `--bucket-width`, with `auto` resolved to the width the command's
    // program suggests.
    let bucket_width_or = |auto: f64| {
        if opts.bucket_auto {
            auto
        } else {
            opts.bucket_width
        }
    };
    // Migration pauses the classic loop on checkpoint epochs; the bucketed
    // settle has its own superstep structure.
    if migrate_requested && bucketed {
        return Err("--migrate and --bucket-width are mutually exclusive".into());
    }
    // Buckets order activations by the program's `priority()`; without one
    // every activation is due at once and a bucket degrades to fused
    // asynchronous rounds — another schedule, and for the non-monotone
    // programs (pagerank, cd) other results.
    if bucketed && !matches!(command, "sssp" | "bfs") {
        return Err(
            "--bucket-width applies to sssp and bfs (the programs that declare a priority)".into(),
        );
    }
    // Hama runs one relaxation round per superstep, as the paper's baseline.
    if bucketed && use_hama {
        return Err("--bucket-width needs --engine cyclops".into());
    }
    // Each engine's one config, mapped from the flags once; a command adds
    // its superstep cap and what only its program knows.
    let cyclops_base = CyclopsConfig {
        cluster,
        ..Default::default()
    };
    let hama_base = BspConfig {
        cluster,
        inbox,
        ..Default::default()
    };
    // Install the global metrics registry *before* the engines construct
    // their transports/barriers, so instrumentation handles resolve.
    let registry =
        (opts.prom.is_some() || opts.listen.is_some()).then(cyclops::obs::install_global);
    // Likewise the flight recorder: transports resolve their per-lane span
    // rings once, at construction.
    if opts.flight {
        cyclops::obs::install_flight();
    }
    // The scrape endpoint serves the live registry for the whole run; the
    // server thread shuts down when `server` drops at the end of `run`.
    let server = match (&opts.listen, registry) {
        (Some(addr), Some(reg)) => {
            let srv = cyclops::obs::MetricsServer::start(addr.as_str(), reg)
                .map_err(|e| format!("listening on {addr}: {e}"))?;
            println!("metrics listening on http://{}/metrics", srv.addr());
            Some(srv)
        }
        _ => None,
    };
    if (opts.source as usize) >= g.num_vertices() && matches!(opts.command.as_str(), "sssp" | "bfs")
    {
        return Err(format!(
            "--source {} out of range ({} vertices)",
            opts.source,
            g.num_vertices()
        ));
    }

    match command {
        "pagerank" => {
            use cyclops_algos::pagerank::{BspPageRank, CyclopsPageRank};
            let max_supersteps = opts.max_supersteps.unwrap_or(10_000);
            let epsilon = opts.epsilon;
            let ran = if use_hama {
                let config = BspConfig {
                    max_supersteps,
                    use_combiner: true,
                    track_redundant: true,
                    ..hama_base
                };
                drive_hama(opts, &BspPageRank { epsilon }, &g, &partition, &config)?
            } else {
                let config = CyclopsConfig {
                    max_supersteps,
                    ..cyclops_base
                };
                drive_cyclops(opts, &CyclopsPageRank { epsilon }, &g, &partition, config)?
            };
            println!(
                "pagerank: {} supersteps, {} messages",
                ran.supersteps, ran.messages
            );
            let mut ranked: Vec<(u32, f64)> = ran
                .values
                .iter()
                .enumerate()
                .map(|(v, &r)| (v as u32, r))
                .collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            for (v, r) in ranked.iter().take(opts.top) {
                println!("  {v} {r:.6e}");
            }
            ran.finish(opts)?;
        }
        "sssp" => {
            use cyclops_algos::sssp::{auto_bucket_width, BspSssp, CyclopsSssp};
            let max_supersteps = opts.max_supersteps.unwrap_or(10_000);
            let source = opts.source;
            let ran = if use_hama {
                let config = BspConfig {
                    max_supersteps,
                    use_combiner: true,
                    ..hama_base
                };
                drive_hama(opts, &BspSssp { source }, &g, &partition, &config)?
            } else {
                let config = CyclopsConfig {
                    max_supersteps,
                    // `auto` seeds the width from the mean edge weight; the
                    // engine then retunes it from live bucket occupancy.
                    bucket_width: bucket_width_or(auto_bucket_width(&g)),
                    bucket_adapt: opts.bucket_auto,
                    ..cyclops_base
                };
                drive_cyclops(opts, &CyclopsSssp { source }, &g, &partition, config)?
            };
            let reachable = ran.values.iter().filter(|d| d.is_finite()).count();
            println!(
                "sssp from {}: {} supersteps, {reachable}/{} reachable",
                opts.source,
                ran.supersteps,
                g.num_vertices()
            );
            ran.finish(opts)?;
        }
        "bfs" => {
            use cyclops_algos::bfs::{BspBfs, CyclopsBfs, UNREACHED};
            let max_supersteps = opts.max_supersteps.unwrap_or(1_000_000);
            let source = opts.source;
            let ran = if use_hama {
                let config = BspConfig {
                    max_supersteps,
                    use_combiner: true,
                    ..hama_base
                };
                drive_hama(opts, &BspBfs { source }, &g, &partition, &config)?
            } else {
                let config = CyclopsConfig {
                    max_supersteps,
                    // `auto` is one hop ring per bucket.
                    bucket_width: bucket_width_or(1.0),
                    ..cyclops_base
                };
                drive_cyclops(opts, &CyclopsBfs { source }, &g, &partition, config)?
            };
            let reached = ran.values.iter().filter(|&&l| l != UNREACHED).count();
            let depth = ran
                .values
                .iter()
                .filter(|&&l| l != UNREACHED)
                .max()
                .copied()
                .unwrap_or(0);
            println!(
                "bfs from {}: {} supersteps, {reached}/{} reached, depth {depth}",
                opts.source,
                ran.supersteps,
                g.num_vertices()
            );
            ran.finish(opts)?;
        }
        "cc" => {
            use cyclops_algos::cc::{symmetrize, BspComponents, CyclopsComponents};
            let max_supersteps = opts.max_supersteps.unwrap_or(100_000);
            // Weak components: the run partitions, replicates and resolves
            // `--replicate-threshold auto` against the symmetrized graph.
            let g = symmetrize(&g);
            let partition = build_partition(opts, &g, cluster.num_workers())?;
            let ran = if use_hama {
                let config = BspConfig {
                    max_supersteps,
                    use_combiner: true,
                    ..hama_base
                };
                drive_hama(opts, &BspComponents, &g, &partition, &config)?
            } else {
                let config = CyclopsConfig {
                    max_supersteps,
                    ..cyclops_base
                };
                drive_cyclops(opts, &CyclopsComponents, &g, &partition, config)?
            };
            let mut labels = ran.values.clone();
            labels.sort_unstable();
            labels.dedup();
            println!("cc: {} components", labels.len());
            ran.finish(opts)?;
        }
        "cd" => {
            use cyclops_algos::cd::{BspCommunityDetection, CyclopsCommunityDetection};
            // One sweep per superstep; Hama's superstep 0 only seeds.
            let seed = usize::from(use_hama);
            let max_supersteps = opts.max_supersteps.unwrap_or(opts.sweeps + seed);
            let ran = if use_hama {
                let config = BspConfig {
                    max_supersteps,
                    track_redundant: true,
                    ..hama_base
                };
                drive_hama(opts, &BspCommunityDetection, &g, &partition, &config)?
            } else {
                let config = CyclopsConfig {
                    max_supersteps,
                    ..cyclops_base
                };
                drive_cyclops(opts, &CyclopsCommunityDetection, &g, &partition, config)?
            };
            let mut sizes: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
            for &l in &ran.values {
                *sizes.entry(l).or_insert(0) += 1;
            }
            println!(
                "cd: {} communities after {} sweeps",
                sizes.len(),
                max_supersteps.saturating_sub(seed)
            );
            let mut by_size: Vec<(u32, usize)> = sizes.into_iter().collect();
            // Ties by label, so the listing does not follow the hasher.
            by_size.sort_by_key(|&(label, n)| (std::cmp::Reverse(n), label));
            for (label, n) in by_size.iter().take(opts.top) {
                println!("  community {label}: {n} members");
            }
            ran.finish(opts)?;
        }
        "triangles" => {
            use cyclops_algos::triangles::{BspTriangles, CyclopsTriangles};
            let max_supersteps = opts.max_supersteps.unwrap_or(4);
            let g = cyclops_algos::cc::symmetrize(&g);
            let partition = build_partition(opts, &g, cluster.num_workers())?;
            let ran = if use_hama {
                let config = BspConfig {
                    max_supersteps,
                    ..hama_base
                };
                drive_hama(opts, &BspTriangles, &g, &partition, &config)?
            } else {
                let config = CyclopsConfig {
                    max_supersteps,
                    ..cyclops_base
                };
                drive_cyclops(opts, &CyclopsTriangles, &g, &partition, config)?
            };
            println!("triangles: {}", ran.values.iter().sum::<u64>());
            ran.finish(opts)?;
        }
        other => return Err(format!("unknown command {other}; try `cyclops help`")),
    }
    if let (Some(path), Some(reg)) = (&opts.prom, registry) {
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
             --threads T --receivers R  per worker (a bucketed run's
             fused rounds compute on all T threads too)
             --partitioner hash|metis
             --inbox global|sharded (hama)
             --bucket-width D|auto  bucketed (delta-stepping) sssp
             or hop-ring bfs: each superstep drains one priority
             bucket of width D, fusing the relaxation rounds behind a
             single barrier (auto = 8x mean edge weight for sssp, one
             hop ring for bfs; default 0 = off; results bitwise
             identical)
             --replicate-threshold N|auto  hybrid replication: boundary
             vertices with combined degree below N get no replica —
             their cross-worker edges receive direct messages instead
             (auto = modeled-traffic argmin; default 0 = replicate every
             boundary vertex; results bitwise identical at every
             threshold, on every command)
             --migrate off|K|auto  runtime hot-vertex migration: every K
             supersteps move hot masters off the most loaded worker and
             edit the plan in place, decided from deterministic
             compute counters — never clocks (auto = every 8; default
             off; results bitwise identical)
             --skew F  pile the first F-fraction of the vertices onto
             worker 0 before running (deterministic imbalance for
             migration experiments; F in [0, 1))
             Every execution flag reaches every run command on every
             engine that has the dial. What is refused, and why:
               --migrate            cyclops only; pagerank and sssp only
                                    (migration regroups the per-worker
                                    float reductions, so a program must
                                    be aggregate-free, and these two are
                                    pinned bitwise equal under it); not
                                    with --bucket-width (the bucketed
                                    loop has no checkpoint epochs to
                                    pause on)
               --bucket-width       cyclops only (hama runs one
                                    relaxation round per superstep, as
                                    the paper's baseline); sssp and bfs
                                    only (buckets order activations by
                                    the program's priority(); no other
                                    program declares one)
               --replicate-threshold  cyclops only (hama has no replicas)
algorithm:   --epsilon F  --source V  --sweeps N
             --max-supersteps N  hard superstep cap on every command
             (default: pagerank/sssp 10000, bfs 1000000, cc 100000,
             triangles 4, cd one per --sweeps plus hama's seed superstep)
output:      --output FILE  --top N  --stats  (every run command)
tracing:     --trace FILE (every run command, both engines): every record
             streams to the file as it commits; `top` tails it live
             --values
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
  cyclops sssp --dataset RoadCA --bucket-width auto
  cyclops pagerank --dataset GWeb --replicate-threshold auto
  cyclops pagerank --dataset GWeb --skew 0.6 --migrate auto
  cyclops gen --dataset Wiki --scale 0.1 --output wiki.txt
  cyclops cc --input wiki.txt --engine hama
  cyclops pagerank --dataset Amazon --trace run-a.jsonl --values
  cyclops trace-diff run-a.jsonl run-b.jsonl --values
  cyclops pagerank --dataset Amazon --trace run.jsonl --prom run.prom
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
        assert_eq!(o.max_supersteps, Some(50));
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
            "pagerank --dataset GWeb --trace out.jsonl --prom out.prom \
             --engine hama --inbox sharded",
        ))
        .unwrap();
        assert_eq!(o.prom.as_deref(), Some("out.prom"));
        // Every trace streams; the flag that asked for it is gone.
        assert!(parse_args(&args("pagerank --trace out.jsonl --stream")).is_err());
        assert_eq!(o.inbox, "sharded");
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
        let o = parse_args(&args("sssp --dataset RoadCA --bucket-width 2.5")).unwrap();
        assert_eq!(o.bucket_width, 2.5);
        assert!(!o.bucket_auto);
        let o = parse_args(&args("sssp --dataset RoadCA --bucket-width auto")).unwrap();
        assert!(o.bucket_auto);
        assert_eq!(o.bucket_width, 0.0);
        // Rejections: NaN, negative, non-finite, absurd, junk, missing.
        assert!(parse_args(&args("sssp --bucket-width NaN")).is_err());
        assert!(parse_args(&args("sssp --bucket-width -2")).is_err());
        assert!(parse_args(&args("sssp --bucket-width inf")).is_err());
        assert!(parse_args(&args("sssp --bucket-width 1e19")).is_err());
        assert!(parse_args(&args("sssp --bucket-width nope")).is_err());
        assert!(parse_args(&args("sssp --bucket-width")).is_err());
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
