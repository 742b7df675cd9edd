//! Acceptance tests for the streaming-metrics subsystem.
//!
//! Covers: (1) a memory sink and a file sink both keep every record of a
//! run longer than 4 096 supersteps, byte-identically; (2) a real PageRank
//! run past 4 096 supersteps streams a complete trace whose log-linear
//! quantiles stay within the histogram's 12.5 % bucket-error bound of the
//! exact sorted percentiles; (3) the
//! Prometheus exposition is golden-file stable; (4) GAS apply-phase
//! publication digests let `trace-diff --values` name the divergent vertex;
//! (5) the BSP inbox ablation (`InboxMode::Sharded`) reproduces GlobalQueue
//! results without lock contention; (6) `max_supersteps` is a *global* cap
//! that checkpoint-resume inherits unchanged, in both resumable engines.

use cyclops::obs::{render_prometheus, LogLinearHistogram, MetricsRegistry};
use cyclops::prelude::*;
use cyclops_algos::pagerank::{BspPageRank, CyclopsPageRank, GasPageRank};
use cyclops_bsp::{run_bsp, run_bsp_from_checkpoint, BspConfig};
use cyclops_engine::{run_cyclops, run_cyclops_from_checkpoint, run_cyclops_traced, CyclopsConfig};
use cyclops_gas::{run_gas_traced, GasConfig, GasProgram};
use cyclops_net::metrics::PhaseTimes;
use cyclops_net::trace::{diff, read_jsonl, RunTrace, TraceRecord, TraceSink};
use cyclops_net::InboxMode;
use cyclops_partition::{RandomVertexCut, VertexCutPartitioner};

/// A process-unique temp path for one test's trace file.
fn tmp_path(name: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "cyclops-streaming-{}-{name}.jsonl",
            std::process::id()
        ))
        .to_str()
        .unwrap()
        .to_string()
}

/// Directed ring over `n` vertices — PageRank's exact fixed point from
/// superstep 0, so convergence behaviour is fully controlled by epsilon.
fn ring(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 0..n as VertexId {
        b.add_edge(v, (v + 1) % n as VertexId);
    }
    b.build()
}

fn finish(mut sink: TraceSink) -> RunTrace {
    RunTrace {
        spans: Vec::new(),
        mem: Vec::new(),
        meta: sink.meta().clone(),
        records: sink.take_records(),
    }
}

/// Both destinations keep every record — past the 4 096 supersteps a
/// per-worker ring once held, where the oldest records were overwritten
/// without a word — and agree byte for byte.
#[test]
fn memory_and_file_sinks_keep_every_record_past_4096_supersteps() {
    let spec = ClusterSpec::flat(1, 2);
    let workers = 2usize;
    let n = 4096 + 100;
    let times = PhaseTimes::default();
    let path = tmp_path("every-record");

    let mut memory = TraceSink::new("synthetic", &spec);
    let file = TraceSink::create("synthetic", &spec, &path, false).unwrap();
    for s in 0..n {
        for w in 0..workers {
            for sink in [&memory, &file] {
                let record = TraceRecord {
                    superstep: s as u64,
                    worker: w as u64,
                    frontier: (s + w) as u64,
                    ..TraceRecord::default()
                };
                sink.worker(w).commit(&times, record);
            }
        }
    }
    let kept = memory.take_records();
    assert_eq!(kept.len(), n * workers, "a memory sink keeps every record");
    let summary = file.finish().unwrap();
    assert_eq!(summary.records_written, (n * workers) as u64);

    let streamed = read_jsonl(&path).unwrap();
    assert_eq!(streamed.records.len(), n * workers);
    // Exactly-once coverage of every (superstep, worker), the same lines.
    for (i, (a, b)) in kept.iter().zip(&streamed.records).enumerate() {
        assert_eq!(a.superstep as usize, i / workers);
        assert_eq!(a.worker as usize, i % workers);
        let (mut ja, mut jb) = (String::new(), String::new());
        a.to_json(&mut ja);
        b.to_json(&mut jb);
        assert_eq!(ja, jb, "memory and file sinks disagree on record {i}");
    }
    std::fs::remove_file(&path).ok();
}

/// A real PageRank run past 4 096 supersteps: `epsilon = -1.0` never
/// converges (every per-vertex error exceeds it), so the engine executes
/// exactly `max_supersteps` supersteps and the streamed trace must cover
/// all of them. The log-linear phase quantiles must agree with the exact
/// nearest-rank percentiles within the histogram's 12.5 % bucket error.
#[test]
fn streaming_pagerank_past_ring_capacity_is_complete_and_quantile_accurate() {
    let supersteps = 4096 + 64;
    let g = ring(8);
    let cluster = ClusterSpec::flat(1, 2);
    let p = HashPartitioner.partition(&g, 2);
    let path = tmp_path("pagerank");
    let sink = TraceSink::create("cyclops", &cluster, &path, false).unwrap();
    let config = CyclopsConfig {
        cluster,
        max_supersteps: supersteps,
        ..Default::default()
    };
    let r = run_cyclops_traced(
        &CyclopsPageRank { epsilon: -1.0 },
        &g,
        &p,
        &config,
        Some(&sink),
    );
    assert_eq!(r.supersteps, supersteps, "epsilon < 0 must never converge");
    let summary = sink.finish().unwrap();
    let workers = cluster.num_workers();
    assert_eq!(
        summary.records_written,
        (supersteps * workers) as u64,
        "records_written must equal supersteps x workers"
    );

    let trace = read_jsonl(&path).unwrap();
    assert_eq!(trace.records.len(), supersteps * workers);
    assert_eq!(trace.supersteps(), supersteps as u64);
    for (i, rec) in trace.records.iter().enumerate() {
        assert_eq!(rec.superstep as usize, i / workers);
        assert_eq!(rec.worker as usize, i % workers);
    }

    // Quantile accuracy: per-record total superstep latency, histogram vs
    // exact sorted nearest-rank.
    let mut exact: Vec<u64> = trace
        .records
        .iter()
        .map(|rec| rec.parse_ns + rec.compute_ns + rec.send_ns + rec.sync_ns)
        .collect();
    let h = LogLinearHistogram::new();
    for &v in &exact {
        h.record(v);
    }
    exact.sort_unstable();
    let snap = h.snapshot();
    for q in [0.50, 0.90, 0.99] {
        let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len()) - 1;
        let want = exact[rank];
        let got = snap.percentile(q);
        if want == 0 {
            assert_eq!(got, 0, "p{q} of all-zero samples");
        } else {
            let rel = (got as f64 - want as f64).abs() / want as f64;
            assert!(
                rel <= 0.125,
                "p{q}: histogram {got} vs exact {want} ({:.1} % off)",
                rel * 100.0
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

/// Deterministic registry contents shared with the golden file.
fn golden_registry() -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    reg.counter(
        "cyclops_messages_total",
        &[("engine", "cyclops"), ("mode", "sharded")],
    )
    .inc(1234);
    reg.counter(
        "cyclops_message_bytes_total",
        &[("engine", "cyclops"), ("mode", "sharded")],
    )
    .inc(987_654);
    reg.gauge("cyclops_run_supersteps", &[("engine", "cyclops")])
        .set(18);
    let h = reg.histogram(
        "cyclops_phase_ns",
        &[("engine", "cyclops"), ("phase", "cmp")],
    );
    for v in [800u64, 3_000, 3_100, 65_000, 1_048_576, 9_999_999] {
        h.record(v);
    }
    reg
}

/// The Prometheus text exposition is byte-stable against a golden file.
/// Regenerate with `BLESS=1 cargo test prometheus_exposition`.
#[test]
fn prometheus_exposition_matches_golden_file() {
    let got = render_prometheus(&golden_registry());
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(golden, &got).unwrap();
    }
    let want = std::fs::read_to_string(golden)
        .expect("tests/golden/metrics.prom missing; run with BLESS=1 to create it");
    assert_eq!(
        got, want,
        "Prometheus exposition drifted from tests/golden/metrics.prom; \
         rerun with BLESS=1 if the change is intentional"
    );
}

/// Delegates to [`GasPageRank`] but nudges one vertex's applied value — a
/// perturbation invisible to every deterministic counter (same actives,
/// same message counts) and visible only through publication digests.
struct PerturbedGasPageRank {
    inner: GasPageRank,
    victim: VertexId,
}

impl GasProgram for PerturbedGasPageRank {
    type Value = f64;
    type Gather = f64;

    fn init(&self, v: VertexId, g: &Graph) -> f64 {
        self.inner.init(v, g)
    }

    fn gather(&self, g: &Graph, src: VertexId, src_value: &f64, w: f64, dst: VertexId) -> f64 {
        self.inner.gather(g, src, src_value, w, dst)
    }

    fn sum(&self, a: f64, b: f64) -> f64 {
        self.inner.sum(a, b)
    }

    fn apply(&self, g: &Graph, v: VertexId, old: &f64, acc: Option<f64>) -> f64 {
        let new = self.inner.apply(g, v, old, acc);
        if v == self.victim {
            new + 0.5
        } else {
            new
        }
    }

    fn scatter_activates(
        &self,
        g: &Graph,
        src: VertexId,
        old: &f64,
        new: &f64,
        w: f64,
        dst: VertexId,
    ) -> bool {
        self.inner.scatter_activates(g, src, old, new, w, dst)
    }
}

/// GAS masters digest every applied value in values mode, so
/// `trace-diff --values` localises a pure value perturbation down to the
/// superstep and vertex — while the counter-only diff sees nothing.
#[test]
fn gas_values_trace_diff_names_the_divergent_vertex() {
    let g = ring(16);
    let cluster = ClusterSpec::flat(2, 1);
    let vc = RandomVertexCut::default().partition(&g, cluster.num_workers());
    let victim: VertexId = 3;
    // Huge epsilon: scatter never re-activates, in the base run *and* under
    // the 0.5 perturbation, so both runs execute exactly one superstep with
    // identical counters.
    let config = GasConfig {
        cluster,
        max_supersteps: 4,
    };

    let base_sink = TraceSink::with_values("gas", &cluster);
    run_gas_traced(
        &GasPageRank { epsilon: 10.0 },
        &g,
        &vc,
        &config,
        Some(&base_sink),
    );
    let pert_sink = TraceSink::with_values("gas", &cluster);
    run_gas_traced(
        &PerturbedGasPageRank {
            inner: GasPageRank { epsilon: 10.0 },
            victim,
        },
        &g,
        &vc,
        &config,
        Some(&pert_sink),
    );
    let (base, pert) = (finish(base_sink), finish(pert_sink));

    // Every master's apply was digested: across workers the superstep-0
    // records carry one publication per vertex.
    let pubs_at_0: usize = base
        .records
        .iter()
        .filter(|r| r.superstep == 0)
        .map(|r| r.pubs.len())
        .sum();
    assert_eq!(pubs_at_0, g.num_vertices(), "one digest per applied master");

    // Counters alone cannot see a pure value perturbation...
    assert_eq!(diff::first_divergence(&base, &pert, false), None);
    // ...but the digests name the exact superstep and vertex.
    let d = diff::first_divergence(&base, &pert, true)
        .expect("values-mode diff must expose the perturbation");
    assert_eq!(d.counter, "publication_digest");
    assert_eq!(d.superstep, 0);
    assert_eq!(d.vertex, Some(victim));
}

/// Swapping Hama's global locked inbox for Cyclops' sharded per-sender
/// lanes must not change the computation — same superstep count, same
/// values (up to f64 summation order) — and the sharded inbox must be
/// contention-free by construction.
#[test]
fn bsp_sharded_inbox_matches_global_queue_and_is_contention_free() {
    let g = Dataset::Amazon.generate_scaled(0.05, 1);
    let cluster = ClusterSpec::flat(2, 2);
    let p = HashPartitioner.partition(&g, cluster.num_workers());
    let mk = |inbox: InboxMode| BspConfig {
        cluster,
        max_supersteps: 8,
        use_combiner: true,
        inbox,
        ..Default::default()
    };
    let prog = BspPageRank { epsilon: 0.0 };
    let global = run_bsp(&prog, &g, &p, &mk(InboxMode::GlobalQueue));
    let sharded = run_bsp(&prog, &g, &p, &mk(InboxMode::Sharded));

    assert_eq!(global.supersteps, sharded.supersteps);
    for (i, (a, b)) in global.values.iter().zip(&sharded.values).enumerate() {
        assert!(
            (a - b).abs() < 1e-12,
            "vertex {i}: global-queue {a} vs sharded {b}"
        );
    }
    assert_eq!(
        sharded.counters.lock_contentions, 0,
        "per-sender lanes never contend"
    );
    assert_eq!(global.counters.messages, sharded.counters.messages);
}

/// `max_supersteps` caps the global superstep index: a Cyclops resume with
/// the original config stops exactly where the uninterrupted run did, and
/// resuming at or past the cap executes nothing.
#[test]
fn max_supersteps_is_a_global_cap_across_cyclops_resume() {
    let g = ring(8);
    let cluster = ClusterSpec::flat(1, 2);
    let p = HashPartitioner.partition(&g, cluster.num_workers());
    let prog = CyclopsPageRank { epsilon: -1.0 }; // never converges
    let config = CyclopsConfig {
        cluster,
        max_supersteps: 12,
        checkpoint_every: Some(5),
        ..Default::default()
    };

    let full = run_cyclops(&prog, &g, &p, &config);
    assert_eq!(full.supersteps, 12);
    let cp = full.checkpoints.last().expect("checkpoints captured");
    assert!(cp.superstep > 0 && cp.superstep < 12);

    // Resume under the unchanged config: the cap is global, so the resumed
    // run finishes at superstep 12 — not 12 more from the resume point.
    let resumed = run_cyclops_from_checkpoint(
        &prog,
        &g,
        &p,
        &CyclopsConfig {
            checkpoint_every: None,
            ..config.clone()
        },
        cp,
    );
    assert_eq!(resumed.supersteps, 12);
    assert_eq!(full.values, resumed.values, "resume must be deterministic");

    // Resuming at (or past) the cap executes nothing at all.
    let noop = run_cyclops_from_checkpoint(
        &prog,
        &g,
        &p,
        &CyclopsConfig {
            checkpoint_every: None,
            max_supersteps: cp.superstep,
            ..config
        },
        cp,
    );
    assert_eq!(noop.supersteps, cp.superstep);
    assert!(noop.stats.is_empty(), "no superstep may have executed");
}

/// The same global-cap semantics hold for the BSP engine's checkpoints.
#[test]
fn max_supersteps_is_a_global_cap_across_bsp_resume() {
    let g = ring(8);
    let cluster = ClusterSpec::flat(1, 2);
    let p = HashPartitioner.partition(&g, cluster.num_workers());
    let prog = BspPageRank { epsilon: -1.0 }; // mean error is never < 0
    let config = BspConfig {
        cluster,
        max_supersteps: 10,
        checkpoint_every: Some(4),
        ..Default::default()
    };

    let full = run_bsp(&prog, &g, &p, &config);
    assert_eq!(full.supersteps, 10);
    let cp = full.checkpoints.last().expect("checkpoints captured");
    assert!(cp.superstep > 0 && cp.superstep < 10);

    let resumed = run_bsp_from_checkpoint(
        &prog,
        &g,
        &p,
        &BspConfig {
            checkpoint_every: None,
            ..config.clone()
        },
        cp,
    );
    assert_eq!(resumed.supersteps, 10, "resume inherits the original cap");
    for (i, (a, b)) in full.values.iter().zip(&resumed.values).enumerate() {
        assert!((a - b).abs() < 1e-12, "vertex {i}: {a} vs {b}");
    }

    let noop = run_bsp_from_checkpoint(
        &prog,
        &g,
        &p,
        &BspConfig {
            checkpoint_every: None,
            max_supersteps: cp.superstep,
            ..config
        },
        cp,
    );
    assert_eq!(noop.supersteps, cp.superstep);
    assert!(noop.stats.is_empty(), "no superstep may have executed");
}
