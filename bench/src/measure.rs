//! The two passes over one workload.
//!
//! `end_to_end` measures what a user sees, with no trace sink anywhere:
//! set-up, repeated driver calls for the measuring window, memory, counts,
//! and validation against the single-thread reference. `per_layer` is a
//! separate pass that records spans around each layer call, reads the phase
//! times and counters the engine already publishes, drives the wire layers
//! and the barrier alone, and prices the observer (traced ÷ untraced).
//!
//! Clocks are reported as the fastest of their samples. On the shared 2-core
//! boxes this runs on, the same build and seed gives medians 35 % apart from
//! one minute to the next (neighbours on the host slow both cores for
//! seconds at a time, and the noise only ever adds), while the fastest of a
//! few dozen calls moves by a few percent. So that the steadiness of that
//! estimate is itself on record, the window is cut into [`WINDOWS`]
//! sub-windows, each with its own set-ups and driver calls: the fastest
//! sample of each is one more estimate of the same thing, and their q1–q3
//! spread is the dispersion `compare` judges by.

use crate::adapter::{self, Outcome};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::record::{MetricSet, PassRecord, Span};
use crate::workloads::{Driver, Workload};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    /// The measuring window.
    pub seconds: f64,
    /// Smoke test: smaller inputs, one run, no warm-up, no repeats. Counts
    /// are meaningful, clocks and memory are not.
    pub quick: bool,
}

/// What `--quick` divides every input size by; this crate's own tests run
/// unoptimised and divide by 64.
const QUICK_SHRINK: f64 = if cfg!(test) { 64.0 } else { 8.0 };

impl Options {
    /// Divides every input size.
    pub fn shrink(&self) -> f64 {
        if self.quick {
            QUICK_SHRINK
        } else {
            1.0
        }
    }
}

const MAX_ERRORS: usize = 4;
/// Sub-windows of the end-to-end measuring window.
const WINDOWS: usize = 6;
/// `setup_s` samples per sub-window (each a batch, see `Workload`).
const SETUPS_PER_WINDOW: usize = 3;
/// `peak_rss_mb` is read from fresh processes: this many groups of
/// [`RSS_PROBES_PER_WINDOW`], the lowest reading of a group being one
/// estimate, as the fastest call of a sub-window is for a clock.
const RSS_WINDOWS: usize = 3;
const RSS_PROBES_PER_WINDOW: usize = 2;
/// The subcommand a probe process is started with.
pub const RSS_PROBE_COMMAND: &str = "rss-probe";

/// Tallies engine runs and the ones that went wrong.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }
}

/// The counts and the value digest every repeat of a deterministic run must
/// reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fingerprint {
    supersteps: u64,
    messages: u64,
    wire_bytes: u64,
    vertex_updates: u64,
    digest: u64,
}

impl Fingerprint {
    fn of(o: &Outcome) -> Fingerprint {
        Fingerprint {
            supersteps: o.supersteps,
            messages: o.messages,
            wire_bytes: o.wire_bytes,
            vertex_updates: o.vertex_updates,
            digest: o.values.digest(),
        }
    }

    fn same_as(&self, first: &Fingerprint) -> Result<(), String> {
        if self == first {
            Ok(())
        } else {
            Err(format!("run not repeatable: {self:?} vs {first:?}"))
        }
    }
}

/// What a user's process does, once: generate the input, set up, make one
/// driver call. Returns its `VmHWM` in kB. Run in a process of its own
/// (`rss-probe`), this is one `peak_rss_mb` reading: a high-water mark
/// cannot be taken twice in one process, and the measuring process, with
/// its repeated set-ups, is not what a user runs.
pub fn rss_probe(w: &Workload, seed: u64) -> u64 {
    let input = adapter::generate(w, seed, 1.0);
    let part = adapter::partition(w, &input.graph);
    let threshold = adapter::replicate_threshold(w, &input.graph, &part);
    let plan = adapter::build_plan(&input.graph, &part, threshold);
    std::hint::black_box(adapter::run(w, &input, &part, &plan, threshold));
    adapter::peak_rss_kb()
}

/// Starts one `rss-probe` process of this executable, waits for it, and
/// returns the `VmHWM` it printed, in MB.
fn rss_probe_process(w: &Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // `output` waits for the child to end before returning.
    let output = Command::new(exe)
        .args([RSS_PROBE_COMMAND, "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let kb: u64 = text
        .trim()
        .parse()
        .map_err(|e| format!("printed {text:?}: {e}"))?;
    Ok(kb as f64 / 1024.0)
}

/// The pass with tracing off: every end-to-end metric.
pub fn end_to_end(w: &Workload, opts: Options) -> PassRecord {
    let load_before = loadavg();
    let mut tally = Tally::default();

    // Memory first, while this process is still small: one reading per
    // fresh process. The smoke test reads its own mark instead, at the end.
    let mut rss_mb = vec![Vec::new(); RSS_WINDOWS];
    if !opts.quick {
        for window in &mut rss_mb {
            for _ in 0..RSS_PROBES_PER_WINDOW {
                let reading = rss_probe_process(w, opts.seed);
                tally.check("rss probe", reading.map(|mb| window.push(mb)));
            }
        }
    }

    let input = adapter::generate(w, opts.seed, opts.shrink());
    let graph = &input.graph;

    // One `setup_s` sample is the mean of `setup_batch` back-to-back set-ups,
    // sized so a sample is tens of milliseconds of work and not one thread
    // spawn's luck. A set-up replaces the plan the runs use (plans are a
    // pure function of the input, so nothing else changes); the old plan is
    // dropped first so two never coexist.
    let set_up = |built: &mut Option<_>, samples: &mut Vec<f64>| {
        let start = Instant::now();
        for _ in 0..w.setup_batch {
            drop(built.take());
            let part = adapter::partition(w, graph);
            let threshold = adapter::replicate_threshold(w, graph, &part);
            let plan = adapter::build_plan(graph, &part, threshold);
            *built = Some((part, threshold, plan));
        }
        samples.push(start.elapsed().as_secs_f64() / w.setup_batch as f64);
    };
    // The first run's output is kept for validation; every later run must
    // reproduce its fingerprint.
    let mut first: Option<(Outcome, Fingerprint)> = None;
    let mut keep = |o: Outcome, tally: &mut Tally| {
        let print = Fingerprint::of(&o);
        match &first {
            None => first = Some((o, print)),
            Some((_, f)) => tally.check("repeat", print.same_as(f)),
        }
    };
    let run = |built: &Option<(_, u32, _)>| {
        let (part, threshold, plan) = built.as_ref().expect("a set-up came first");
        adapter::run(w, &input, part, plan, *threshold)
    };

    // Each sub-window spends its share of the window on driver calls, with
    // its set-up samples spaced evenly between them: the box's slow spells
    // last a second or more, and samples of one metric taken apart see more
    // of its moods than samples in one burst. The very first call is a
    // warm-up (page faults, allocator growth) and is not timed.
    let (windows, setups) = if opts.quick {
        (1, 1)
    } else {
        (WINDOWS, SETUPS_PER_WINDOW)
    };
    let share = opts.seconds / windows as f64;
    let mut built = None;
    let mut setup_samples = vec![Vec::new(); windows];
    let mut run_samples = vec![Vec::new(); windows];
    let start = Instant::now();
    for k in 0..windows {
        loop {
            let elapsed = start.elapsed().as_secs_f64();
            let taken = setup_samples[k].len();
            let setup_due = share * (k as f64 + taken as f64 / setups as f64);
            if taken < setups && (taken == 0 || elapsed >= setup_due) {
                set_up(&mut built, &mut setup_samples[k]);
                if k == 0 && taken == 0 && !opts.quick {
                    keep(run(&built), &mut tally);
                }
            } else if run_samples[k].is_empty() || (!opts.quick && elapsed < share * (k + 1) as f64)
            {
                let o = run(&built);
                run_samples[k].push(o.wall_s);
                keep(o, &mut tally);
            } else {
                break;
            }
        }
    }
    let (_part, threshold, plan) = built.expect("a set-up came first");

    let (outcome, print) = first.expect("at least one run");
    let reference = adapter::reference_run(w, &input);
    tally.check(
        "validate",
        adapter::validate(w, &input, &outcome.values, &reference),
    );
    if matches!(w.driver, Driver::Migrated { .. }) {
        // Migration must not change a single bit of the answer.
        let (plain, _) = adapter::run_plain(w, &input, &plan, threshold, false);
        let same = plain.values.digest() == print.digest;
        tally.check(
            "migrated == unmigrated",
            same.then_some(())
                .ok_or_else(|| "values differ".to_string()),
        );
    }
    if rss_mb.iter().all(Vec::is_empty) {
        rss_mb[0].push(adapter::peak_rss_kb() as f64 / 1024.0);
    }

    let mut set = MetricSet::new(&END_TO_END);
    set.set_windows("run_s", &run_samples);
    set.set_windows("setup_s", &setup_samples);
    set.set_windows("peak_rss_mb", &rss_mb);
    set.set(
        "plan_bytes",
        adapter::plan_shape(graph, &plan).0.iter().sum::<usize>() as f64,
    );
    set.set("supersteps", outcome.supersteps as f64);
    set.set("vertex_updates", outcome.vertex_updates as f64);
    PassRecord {
        workload: w.name.to_string(),
        seed: opts.seed,
        traced: false,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        metrics: set.finish(),
        spans: Vec::new(),
        loadavg: [load_before, loadavg()],
    }
}

/// In-memory span recorder for the per-layer pass. Spans are flat: the
/// benchmark calls one layer at a time, inside the `pass` span.
struct Spans {
    origin: Instant,
    done: Vec<Span>,
}

impl Spans {
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.origin.elapsed().as_secs_f64();
        let out = f();
        let end = self.origin.elapsed().as_secs_f64();
        self.done.push(Span {
            name: name.to_string(),
            start_s: start,
            end_s: end,
        });
        (out, end - start)
    }

    fn finish(mut self) -> Vec<Span> {
        let root = Span {
            name: "pass".to_string(),
            start_s: 0.0,
            end_s: self.origin.elapsed().as_secs_f64(),
        };
        self.done.insert(0, root);
        self.done
    }
}

/// The separate traced pass: every per-layer metric.
pub fn per_layer(w: &Workload, opts: Options) -> PassRecord {
    let load_before = loadavg();
    let mut tally = Tally::default();
    let mut set = MetricSet::new(&PER_LAYER);
    let mut spans = Spans {
        origin: Instant::now(),
        done: Vec::new(),
    };
    let slice = Duration::from_secs_f64(if opts.quick {
        0.02
    } else {
        opts.seconds / 20.0
    });

    // graph → partition → plan, one span each.
    let (input, gen_s) = spans.time("graph.generate", || {
        adapter::generate(w, opts.seed, opts.shrink())
    });
    let graph = &input.graph;
    let vertices = graph.num_vertices() as f64;
    set.set("graph.vertices", vertices);
    set.set("graph.edges", graph.num_edges() as f64);
    set.set("graph.gen_s", gen_s);

    let (part, partition_s) = spans.time("partition", || adapter::partition(w, graph));
    let (edge_cut, balance) = adapter::cut_quality(graph, &part);
    set.set("partition.partition_s", partition_s);
    set.set("partition.vertices_per_s", vertices / partition_s);
    set.set("partition.edge_cut", edge_cut as f64);
    set.set("partition.balance", balance);

    let ((threshold, plan), build_s) = spans.time("plan_build", || {
        let threshold = adapter::replicate_threshold(w, graph, &part);
        (threshold, adapter::build_plan(graph, &part, threshold))
    });
    let (bytes, replicas, replication_factor) = adapter::plan_shape(graph, &plan);
    set.set("plan.build_s", build_s);
    set.set("plan.vertices_per_s", vertices / build_s);
    set.set("plan.bytes_plan", bytes[0] as f64);
    set.set("plan.bytes_replicas", bytes[1] as f64);
    set.set("plan.bytes_direct_slots", bytes[2] as f64);
    set.set("plan.replicas", replicas as f64);
    set.set("partition.replication_factor", replication_factor);
    let (moves_s, _) = spans.time("partition.plan_moves", || {
        adapter::plan_moves_drive(graph, &plan)
    });
    set.set("partition.plan_moves_s", moves_s);

    // The single-thread reference: the validator, and Khan's break-even row.
    let (reference, ref_run_s) = spans.time("reference", || adapter::reference_run(w, &input));
    set.set("graph.ref_run_s", ref_run_s);

    // Untraced / traced pairs of the plain program on the prebuilt plan,
    // alternating, for half the window.
    let mut plain: Vec<Outcome> = Vec::new();
    let mut traced_wall = Vec::new();
    let mut last_sink = None;
    let mut print: Option<Fingerprint> = None;
    let window = Instant::now();
    while plain.is_empty() || (!opts.quick && window.elapsed().as_secs_f64() < opts.seconds / 2.0) {
        let (o, _) = spans
            .time("run", || {
                adapter::run_plain(w, &input, &plan, threshold, false)
            })
            .0;
        let (t, sink) = spans
            .time("run.traced", || {
                adapter::run_plain(w, &input, &plan, threshold, true)
            })
            .0;
        let first = *print.get_or_insert_with(|| Fingerprint::of(&o));
        tally.check("untraced", Fingerprint::of(&o).same_as(&first));
        tally.check("traced", Fingerprint::of(&t).same_as(&first));
        traced_wall.push(t.wall_s);
        last_sink = sink;
        plain.push(o);
    }
    let plain_wall: Vec<f64> = plain.iter().map(|o| o.wall_s).collect();
    set.set(
        "trace.overhead_ratio",
        fastest(&traced_wall) / fastest(&plain_wall),
    );
    let (records, jsonl_bytes) = adapter::trace_shape(last_sink.expect("a traced run was made"));
    set.set("trace.records", records as f64);
    set.set("trace.jsonl_bytes", jsonl_bytes as f64);

    // The workload's own driver: the plain runs above, unless it migrates
    // or mutates, in which case it gets its own calls.
    let own_driver = matches!(w.driver, Driver::Migrated { .. } | Driver::Evolving { .. });
    let driven: Vec<Outcome> = if own_driver {
        (0..if opts.quick { 1 } else { 2 })
            .map(|_| {
                spans
                    .time("run.driver", || {
                        adapter::run(w, &input, &part, &plan, threshold)
                    })
                    .0
            })
            .collect()
    } else {
        Vec::new()
    };
    let runs: &[Outcome] = if own_driver { &driven } else { &plain };
    spans.time("validate", || {
        tally.check(
            "validate",
            adapter::validate(w, &input, &runs[0].values, &reference),
        );
    });
    for o in &driven[driven.len().min(1)..] {
        tally.check(
            "driver repeat",
            Fingerprint::of(o).same_as(&Fingerprint::of(&driven[0])),
        );
    }

    // One run stands for the workload in the rows below: the fastest, so
    // that its phase times add up to its own loop time.
    let o = fastest_run(runs);
    let (run_s, loop_s) = (o.wall_s, o.loop_s);
    let p = fastest_run(&plain);
    set.set("baseline.cost_vs_ref", run_s / ref_run_s);
    set.set("engine.loop_s", loop_s);
    set.set("engine.call_overhead_s", p.wall_s - p.loop_s);
    let prs = o.phases.parse.as_secs_f64();
    let cmp = o.phases.compute.as_secs_f64();
    let snd = o.phases.send.as_secs_f64();
    let syn = o.phases.sync.as_secs_f64();
    set.set("engine.prs_s", prs);
    set.set("engine.cmp_s", cmp);
    set.set("engine.snd_s", snd);
    set.set("engine.syn_s", syn);
    set.set("engine.syn_share", syn / (prs + cmp + snd + syn));
    set.set(
        "engine.ns_per_superstep",
        loop_s * 1e9 / o.supersteps as f64,
    );
    set.set("engine.updates_per_s", o.vertex_updates as f64 / loop_s);
    set.set("engine.messages", o.messages as f64);
    set.set("engine.wire_bytes", o.wire_bytes as f64);
    set.set("codec.dense_batches", o.counters.wire_dense_batches as f64);
    set.set(
        "codec.sparse_batches",
        o.counters.wire_sparse_batches as f64,
    );
    set.set("codec.saved_bytes", o.counters.wire_saved_bytes as f64);
    let batches = o.counters.wire_dense_batches
        + o.counters.wire_sparse_batches
        + o.counters.wire_legacy_batches;
    set.set("transport.batches", batches as f64);
    set.set(
        "transport.peak_queue_bytes",
        o.counters.peak_queue_bytes as f64,
    );
    set.set(
        "transport.lock_contentions",
        o.counters.lock_contentions as f64,
    );
    set.set(
        "barrier.protocol_messages",
        o.barrier_protocol_messages as f64,
    );

    let (gather, _) = spans.time("engine.gather_probe", || {
        adapter::gather_probe(w, &input, &plan, threshold)
    });
    set.set("engine.gather_edges_per_s", gather);

    // Codec and transport alone, on a batch shaped like this workload's
    // replica traffic: its mirror list at its measured mean density.
    let density = plain[0].messages as f64 / (plain[0].supersteps * replicas.max(1) as u64) as f64;
    let (wire, _) = spans.time("net.wire_drive", || {
        adapter::wire_drive(w, &plan, density, slice)
    });
    set.set("codec.encode_mb_s", wire.encode_mb_s);
    set.set("codec.decode_mb_s", wire.decode_mb_s);
    set.set("codec.bytes_per_update", wire.bytes_per_update);
    set.set("transport.send_drain_mb_s", wire.send_drain_mb_s);
    let rounds = if opts.quick { 2_000 } else { 20_000 };
    let (ns_per_wait, _) = spans.time("net.barrier_drive", || adapter::barrier_drive(w, rounds));
    set.set("barrier.ns_per_wait", ns_per_wait);

    match w.driver {
        Driver::Migrated { .. } => {
            set.set("migrate.epochs", o.epochs as f64);
            set.set("migrate.moves", o.migration_moves as f64);
            set.set("migrate.bytes", o.migration_bytes as f64);
            let (apply_s, _) = spans.time("migrate.apply", || {
                adapter::apply_migration_drive(graph, &plan, threshold)
            });
            set.set("migrate.apply_s", apply_s);
            // The driver builds its own plan; what is left after the loops
            // and that build is checkpoint carving, rewiring and re-init.
            set.set("migrate.driver_overhead_s", run_s - loop_s - build_s);
        }
        Driver::Evolving { .. } => {
            let ((apply_s, rebuild_s), _) =
                spans.time("mutation.drive", || adapter::mutation_drive(w, &input));
            set.set("mutation.apply_s", apply_s);
            set.set("mutation.rebuild_s", rebuild_s);
            set.set("mutation.loop_s", loop_s);
            set.set("mutation.supersteps", o.supersteps as f64);
        }
        Driver::Plain | Driver::Bucketed => {}
    }

    if w.hama {
        let (hama, _) = spans.time("bsp.run", || adapter::run_hama(w, &input, &part));
        tally.check(
            "hama",
            adapter::validate(w, &input, &hama.values, &reference),
        );
        set.set("bsp.run_s", hama.wall_s);
        set.set("bsp.messages", hama.messages as f64);
        set.set("bsp.wire_bytes", hama.wire_bytes as f64);
        set.set("baseline.speedup_vs_hama", hama.wall_s / run_s);
        set.set(
            "baseline.msg_ratio_vs_hama",
            hama.messages as f64 / o.messages as f64,
        );
    }

    PassRecord {
        workload: w.name.to_string(),
        seed: opts.seed,
        traced: true,
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        metrics: set.finish(),
        spans: spans.finish(),
        loadavg: [load_before, loadavg()],
    }
}

fn fastest_run(runs: &[Outcome]) -> &Outcome {
    runs.iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one run")
}

fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_failures_and_keeps_few_messages() {
        let mut t = Tally::default();
        t.check("a", Ok(()));
        for i in 0..10 {
            t.check("b", Err(format!("e{i}")));
        }
        assert_eq!((t.attempted, t.failed), (11, 10));
        assert_eq!(t.errors.len(), MAX_ERRORS);
        assert_eq!(t.errors[0], "b: e0");
    }
}
