//! Criterion micro-benchmarks of the substrate kernels the experiments rest
//! on: codec throughput, the adaptive replica-update wire format vs the
//! legacy framing across batch densities, inbox enqueue under the two
//! disciplines, barrier latency, CSR neighbor iteration, the ALS Cholesky
//! solve, the metrics hot path (histogram record vs the disabled Option
//! check), hot-vertex top-K capture (Space-Saving record vs the disabled
//! Option check), the flight recorder's span hot path (ring write vs the
//! disabled Option check), the communication matrix's per-flush accounting
//! (per-destination cells vs the aggregate counters), hybrid plan
//! construction against the full-replication build it extends, the two
//! per-edge operations of the view (a frontier mark — first, repeated, and
//! repeated through a real plan's reader lists — and a gather through
//! `in_messages`), the frontier's per-superstep snapshot across densities, a
//! dense superstep's activation pushed against pulled, and the tracking
//! allocator's malloc/free overhead disarmed vs armed.

use bytes::BytesMut;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use cyclops_algos::linalg::{cholesky_solve, NormalEquations};
use cyclops_engine::{
    run_cyclops_with_plan, CyclopsConfig, CyclopsContext, CyclopsPlan, CyclopsProgram, FreshSlots,
    Frontier,
};
use cyclops_graph::gen::{rmat, RmatConfig};
use cyclops_graph::{Dataset, Graph, VertexId};
use cyclops_net::codec::{encode_batch, encode_batch_into, try_decode_batch};
use cyclops_net::metrics::{EngineObs, PhaseTimes};
use cyclops_net::{
    ClusterSpec, HierarchicalBarrier, InboxMode, ReplicaUpdate, Transport, WireFormat,
};
use cyclops_partition::{EdgeCutPartitioner, HashPartitioner};

/// Route every allocation in this bench binary through the tracking
/// allocator so `bench_mem_tracking` prices the real disarmed and armed
/// paths. Disarmed it is a pure pass-through, so the other groups are
/// unaffected; `bench_mem_tracking` arms it and therefore runs last.
#[global_allocator]
static ALLOC: cyclops_obs::MemAlloc = cyclops_obs::MemAlloc;

fn bench_codec(c: &mut Criterion) {
    let msgs: Vec<(u32, f64)> = (0..4096).map(|i| (i, i as f64 * 0.5)).collect();
    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Elements(msgs.len() as u64));
    group.bench_function("encode_batch_4096", |b| {
        b.iter(|| encode_batch(std::hint::black_box(&msgs)))
    });
    let encoded = encode_batch(&msgs);
    group.bench_function("try_decode_batch_4096", |b| {
        b.iter(|| {
            let mut buf = encoded.clone().freeze();
            let out: Option<Vec<(u32, f64)>> = try_decode_batch(&mut buf);
            std::hint::black_box(out)
        })
    });
    group.finish();
}

/// The adaptive `ReplicaBatch` wire format vs the legacy tuple framing at
/// three batch densities over a 4096-slot replica range. At 1% the adaptive
/// encoder self-selects sparse (delta-varint ids), at 90% dense (presence
/// bitmap + packed payloads); 10% sits near the break-even. Throughput is
/// per update, so the numbers read as ns/vertex; the encoded byte sizes —
/// the half of the story criterion cannot time — are printed alongside.
fn bench_wire_encoding(c: &mut Criterion) {
    const SPAN: u32 = 4096;
    for (label, density) in [("1pct", 0.01), ("10pct", 0.10), ("90pct", 0.90)] {
        let count = (SPAN as f64 * density) as u32;
        // Evenly spread unique ids: strictly increasing because the stride
        // 1/density > 1, deterministic so runs are comparable.
        let mut updates: Vec<ReplicaUpdate<f64>> = (0..count)
            .map(|k| ReplicaUpdate {
                replica: (k as f64 / density) as u32,
                payload: k as f64 * 0.5,
                activate: true,
            })
            .collect();
        let legacy: Vec<(u32, f64, bool)> = updates
            .iter()
            .map(|u| (u.replica, u.payload, u.activate))
            .collect();

        let mut adaptive_buf = BytesMut::new();
        let stats = ReplicaUpdate::wire_encode_batch_into(&mut adaptive_buf, &mut updates);
        let mut legacy_buf = BytesMut::new();
        encode_batch_into(&mut legacy_buf, &legacy);
        println!(
            "wire_encoding/{label}: {count} updates, adaptive {} B ({}), legacy {} B ({:.1}% saved)",
            adaptive_buf.len(),
            stats.mode.label(),
            legacy_buf.len(),
            100.0 * (1.0 - adaptive_buf.len() as f64 / legacy_buf.len() as f64),
        );

        let mut group = c.benchmark_group(&format!("wire_encoding_{label}"));
        group.throughput(Throughput::Elements(count as u64));
        group.bench_function(&format!("encode_{}", stats.mode.label()), |b| {
            let mut buf = BytesMut::new();
            b.iter(|| {
                let stats = ReplicaUpdate::wire_encode_batch_into(
                    std::hint::black_box(&mut buf),
                    std::hint::black_box(&mut updates),
                );
                std::hint::black_box(stats.mode)
            })
        });
        group.bench_function("encode_legacy", |b| {
            let mut buf = BytesMut::new();
            b.iter(|| {
                std::hint::black_box(encode_batch_into(
                    std::hint::black_box(&mut buf),
                    std::hint::black_box(&legacy),
                ))
            })
        });
        group.bench_function(&format!("decode_{}", stats.mode.label()), |b| {
            b.iter(|| {
                let mut buf = adaptive_buf.clone().freeze();
                let out: Vec<ReplicaUpdate<f64>> =
                    ReplicaUpdate::wire_try_decode_batch(&mut buf).unwrap();
                std::hint::black_box(out)
            })
        });
        group.finish();
    }
}

fn bench_inbox(c: &mut Criterion) {
    let mut group = c.benchmark_group("inbox_enqueue_1k_batches");
    for (name, mode) in [
        ("global_queue", InboxMode::GlobalQueue),
        ("sharded", InboxMode::Sharded),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || Transport::<(u32, f64)>::new(ClusterSpec::flat(4, 1), mode),
                |t| {
                    std::thread::scope(|s| {
                        for sender in 0..4usize {
                            let t = &t;
                            s.spawn(move || {
                                for i in 0..64u32 {
                                    let batch: Vec<(u32, f64)> =
                                        (0..16).map(|j| (i * 16 + j, 1.0)).collect();
                                    t.send(sender, 3, batch, 0);
                                }
                            });
                        }
                    });
                    std::hint::black_box(t.all_empty());
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_barrier(c: &mut Criterion) {
    let mut group = c.benchmark_group("barrier_8_threads_100_rounds");
    // `(8, 1)` is the flat barrier the Hama and PowerGraph baselines wait on.
    for (name, machines, threads) in [("flat_8x1", 8, 1), ("hierarchical_2x4", 2, 4)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let barrier = HierarchicalBarrier::new(machines, threads);
                std::thread::scope(|s| {
                    for m in 0..machines {
                        for t in 0..threads {
                            let barrier = &barrier;
                            s.spawn(move || {
                                for _ in 0..100 {
                                    barrier.wait(m, t);
                                }
                            });
                        }
                    }
                });
            })
        });
    }
    group.finish();
}

fn bench_csr(c: &mut Criterion) {
    let g = rmat(
        RmatConfig {
            scale: 12,
            edges: 40_000,
            ..Default::default()
        },
        3,
    );
    let mut group = c.benchmark_group("csr");
    group.throughput(Throughput::Elements(g.num_edges() as u64));
    group.bench_function("sum_in_neighbors", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for v in g.vertices() {
                for &u in g.in_neighbors(v) {
                    acc = acc.wrapping_add(u as u64);
                }
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();
}

fn bench_cholesky(c: &mut Criterion) {
    let d = 8;
    // SPD system resembling an ALS normal-equation solve.
    let mut a = vec![0.0f64; d * d];
    for i in 0..d {
        for j in 0..d {
            a[i * d + j] = if i == j {
                4.0
            } else {
                1.0 / (1.0 + (i + j) as f64)
            };
        }
    }
    let b0: Vec<f64> = (0..d).map(|i| i as f64).collect();
    c.bench_function("cholesky_solve_8x8", |b| {
        b.iter(|| {
            let mut a2 = a.clone();
            let mut b2 = b0.clone();
            assert!(cholesky_solve(&mut a2, d, &mut b2));
            std::hint::black_box(b2)
        })
    });
    // One whole ALS solve at the benchmark's dimension and about twice
    // `als-syngl`'s mean degree: the tiled build of 24 neighbours, then the
    // solve above.
    let neighbours: Vec<Vec<f64>> = (0..24)
        .map(|k| {
            (0..d)
                .map(|i| ((k * 7 + i * 3) % 13) as f64 / 13.0 + 0.01)
                .collect()
        })
        .collect();
    let mut system = NormalEquations::new();
    c.bench_function("als_normal_equations_8x24", |b| {
        b.iter(|| {
            system.reset(d);
            for (k, x) in std::hint::black_box(&neighbours).iter().enumerate() {
                system.push(x, 1.0 + (k % 5) as f64);
            }
            std::hint::black_box(system.solve(0.05).expect("the system is regularized")[0])
        })
    });
}

/// The per-superstep instrumentation cost at both ends of the dial: the
/// disabled path (no registry installed — the engine's `Option` check and
/// nothing else) and the enabled path (four log-linear histogram records).
/// The acceptance bar is that the disabled path costs nothing measurable.
fn bench_metrics(c: &mut Criterion) {
    // Resolve BEFORE installing the global registry, exactly as an engine
    // run without `--prom` would: the handle is `None` for the whole run.
    let disabled = EngineObs::resolve("bench-disabled");
    assert!(disabled.is_none(), "no registry installed yet");
    let times = PhaseTimes::default();

    let mut group = c.benchmark_group("metrics_per_superstep");
    group.bench_function("disabled_option_check", |b| {
        b.iter(|| {
            if let Some(obs) = std::hint::black_box(&disabled) {
                obs.record_phases(std::hint::black_box(&times));
            }
        })
    });

    cyclops_obs::install_global();
    let enabled = EngineObs::resolve("bench-enabled");
    assert!(enabled.is_some(), "registry installed");
    group.bench_function("enabled_4_hist_records", |b| {
        b.iter(|| {
            if let Some(obs) = std::hint::black_box(&enabled) {
                obs.record_phases(std::hint::black_box(&times));
            }
        })
    });

    let hist = cyclops_obs::install_global().histogram("bench_record_ns", &[]);
    group.bench_function("single_hist_record", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(1_337);
            hist.record(std::hint::black_box(v));
        })
    });
    group.finish();
}

/// The per-vertex cost of hot-vertex capture at both ends of the dial: the
/// disabled path (`hot_k == 0` — one resolved-`Option` check per vertex,
/// exactly what every untraced run pays) and the enabled path (a
/// Space-Saving `record` against a k=16 sketch). The acceptance bar is
/// that the disabled check is free.
fn bench_hot_vertex(c: &mut Criterion) {
    use cyclops_obs::SpaceSaving;
    let mut group = c.benchmark_group("hot_vertex_per_vertex");

    // Disabled: the engine holds `None` and pays one Option check.
    let mut disabled: Option<SpaceSaving> = None;
    group.bench_function("disabled_option_check", |b| {
        let mut v = 0u32;
        b.iter(|| {
            v = v.wrapping_add(7);
            if let Some(hs) = std::hint::black_box(&mut disabled) {
                hs.record(v, 1);
            }
        })
    });

    // Enabled: k=16 sketch over a skewed stream (most records miss the
    // sketch and hit the evict-min path — the worst case).
    let mut enabled = Some(SpaceSaving::new(16));
    group.bench_function("enabled_k16_record", |b| {
        let mut v = 0u32;
        b.iter(|| {
            v = v.wrapping_add(7);
            if let Some(hs) = std::hint::black_box(&mut enabled) {
                hs.record(v & 0x3ff, 1 + (v & 7) as u64);
            }
        })
    });
    group.finish();
}

/// The flight recorder's per-span cost at both ends of the dial, through the
/// one span timer the engines' chunk spans and the transport's flush spans
/// use: the disabled path (no recorder installed — the engine resolved
/// `None` once per thread loop, and the timer checks that `Option` and reads
/// no clock) and the enabled path (two clock reads plus one ring-buffer
/// write). The acceptance bar pins the tentpole's overhead claim: the
/// disabled check costs nothing measurable.
fn bench_span_event(c: &mut Criterion) {
    use cyclops_obs::{FlightRecorder, SpanKind, SpanRing, DEFAULT_FLIGHT_CAPACITY};
    use std::sync::Arc;

    assert!(
        cyclops_obs::flight().is_none(),
        "benches must not install the global flight recorder"
    );
    let mut group = c.benchmark_group("span_event_disabled");

    // Exactly the engine's span-site shape: time the (elided) work as a span
    // when the ring resolved.
    let disabled: Option<Arc<SpanRing>> = None;
    group.bench_function("disabled_option_check", |b| {
        b.iter(|| {
            let ring = std::hint::black_box(&disabled).as_deref();
            PhaseTimes::span(ring, SpanKind::Compute, || ((), [1, 0, 0]))
        })
    });

    // Enabled: a local (non-global) recorder so the rest of the bench
    // binary still sees the disabled path.
    let fr = FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY);
    let enabled: Option<Arc<SpanRing>> = Some(fr.ring(0, 0));
    group.bench_function("enabled_clock_and_ring_write", |b| {
        b.iter(|| {
            let ring = std::hint::black_box(&enabled).as_deref();
            PhaseTimes::span(ring, SpanKind::Compute, || ((), [1, 0, 0]))
        })
    });
    group.finish();
}

/// The communication matrix's per-flush accounting cost: the destination
/// cell's sent counters (`add_sent_to`) alone, and with the
/// wire-mode batch count the engines add for a cross-machine batch. Both
/// are a handful of relaxed atomic adds; the bar is that the batch count
/// costs no more than a few nanoseconds over the counters.
fn bench_comm_matrix(c: &mut Criterion) {
    use cyclops_net::trace::TraceSink;
    let cluster = ClusterSpec::flat(2, 2);
    let sink = TraceSink::new("bench", &cluster);
    let tr = sink.worker(0);

    let mut group = c.benchmark_group("comm_matrix_per_flush");
    group.bench_function("add_sent_to_only", |b| {
        let mut dst = 0usize;
        b.iter(|| {
            dst = (dst + 1) & 3;
            tr.add_sent_to(
                std::hint::black_box(dst),
                std::hint::black_box(16),
                std::hint::black_box(256),
            );
        })
    });
    group.bench_function("add_sent_to_pair_cells", |b| {
        let mut dst = 0usize;
        b.iter(|| {
            dst = (dst + 1) & 3;
            tr.add_sent_to(
                std::hint::black_box(dst),
                std::hint::black_box(16),
                std::hint::black_box(256),
            );
            tr.add_wire_batches_to(std::hint::black_box(dst), 1, 0);
        })
    });
    group.finish();
}

/// Ingress cost of hybrid plan construction: rewiring cold boundary
/// vertices to direct-message tables happens once at plan build, and this
/// pins its price against the threshold-0 build it replaces.
fn bench_plan_build_hybrid(c: &mut Criterion) {
    let g = rmat(
        RmatConfig {
            scale: 13,
            edges: 60_000,
            ..Default::default()
        },
        11,
    );
    let p = HashPartitioner.partition(&g, 6);
    let auto = p.auto_replicate_threshold(&g);
    let mut group = c.benchmark_group("plan_build_hybrid");
    group.bench_function("threshold_0_full_replication", |b| {
        b.iter(|| {
            std::hint::black_box(cyclops_engine::CyclopsPlan::build_parallel_with_threshold(
                &g, &p, 0,
            ))
        })
    });
    group.bench_function(&format!("threshold_auto_{auto}"), |b| {
        b.iter(|| {
            std::hint::black_box(cyclops_engine::CyclopsPlan::build_parallel_with_threshold(
                &g, &p, auto,
            ))
        })
    });
    group.finish();
}

/// Ingress on hub-heavy inputs, where per-vertex fan-out lists are long —
/// a star's hub owns half the edges, an R-MAT's head a few percent each,
/// and either makes a wiring routine that is superlinear in the degree
/// visible at once. Per edge: a from-scratch build against an 8-move
/// `apply_migration` (the planner's batch cap) on the same plan, once
/// moving the eight highest-degree vertices, whose neighbors' owners are
/// every worker, and once the eight lowest-degree ones, which touch few.
fn bench_plan_build_hub(c: &mut Criterion) {
    const WORKERS: usize = 48;
    let star = {
        let leaves = 100_000u32;
        let mut b = cyclops_graph::GraphBuilder::new(leaves as usize + 1);
        for leaf in 1..=leaves {
            b.add_edge(0, leaf);
            b.add_edge(leaf, 0);
        }
        b.build()
    };
    let hub = rmat(
        RmatConfig {
            scale: 15,
            edges: 400_000,
            a: 0.7,
            b: 0.12,
            c: 0.12,
            ..Default::default()
        },
        5,
    );
    let mut group = c.benchmark_group("plan_build_hub");
    for (label, g) in [("star_100k", &star), ("rmat_hub_400k", &hub)] {
        let p = HashPartitioner.partition(g, WORKERS);
        let plan = cyclops_engine::CyclopsPlan::build_parallel(g, &p);
        let mut by_degree: Vec<u32> = g
            .vertices()
            .filter(|&v| g.out_degree(v) + g.in_degree(v) > 0)
            .collect();
        by_degree.sort_by_key(|&v| g.out_degree(v) + g.in_degree(v));
        // Each moved vertex hops one worker on.
        let hop = |vertices: &[u32]| cyclops_partition::MigrationBatch {
            moves: vertices
                .iter()
                .map(|&vertex| cyclops_partition::VertexMove {
                    vertex,
                    from: plan.owner[vertex as usize],
                    to: (plan.owner[vertex as usize] + 1) % WORKERS as u32,
                    cost: 1,
                })
                .collect(),
        };
        group.throughput(Throughput::Elements(g.num_edges() as u64));
        group.bench_function(&format!("{label}_full_rebuild"), |b| {
            b.iter(|| std::hint::black_box(cyclops_engine::CyclopsPlan::build_parallel(g, &p)))
        });
        for (moved, batch) in [
            ("hubs", hop(&by_degree[by_degree.len() - 8..])),
            ("leaves", hop(&by_degree[..8])),
        ] {
            group.bench_function(&format!("{label}_apply_migration_8_{moved}"), |b| {
                b.iter_batched(
                    || plan.clone(),
                    |mut plan| {
                        cyclops_engine::apply_migration(&mut plan, g, &batch, 0);
                        std::hint::black_box(plan)
                    },
                    BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

/// Worker 0 of `pr-wiki`'s plan (Wiki × 1, hash cut over two workers): the
/// reader lists a dense superstep's activation walks.
fn wiki_worker_plan() -> cyclops_engine::plan::WorkerPlan {
    let g = Dataset::Wiki.generate_scaled(1.0, Dataset::Wiki.default_seed());
    let p = HashPartitioner.partition(&g, 2);
    CyclopsPlan::build_parallel(&g, &p).workers.swap_remove(0)
}

/// The wake-up's cases, per mark, uncontended: the first mark of an index in
/// a parity epoch (a load, then a `fetch_or` on the index's word) against
/// re-marking an index whose bit is already set (the load alone) — all but
/// one of a reader's wake-ups in a pull-mode superstep — first with the
/// index a loop counter, then in situ: every reader entry of
/// [`wiki_worker_plan`], in the order a superstep that rewrote every slot
/// walks them, which adds the entry's load and the scattered word.
fn bench_frontier_mark(c: &mut Criterion) {
    const N: usize = 4096;
    let mut group = c.benchmark_group("frontier_mark");
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("first_mark", |b| {
        b.iter_batched(
            || Frontier::new(N),
            |f| {
                for li in 0..N {
                    f.mark(0, li);
                }
                f
            },
            BatchSize::SmallInput,
        )
    });
    let marked = Frontier::new(N);
    for li in 0..N {
        marked.mark(0, li);
    }
    group.bench_function("remark_set_bit", |b| {
        b.iter(|| {
            for li in 0..N {
                marked.mark(0, li);
            }
        })
    });
    let wp = wiki_worker_plan();
    let marked = Frontier::new(wp.num_masters());
    let entries: usize = (0..wp.num_view_slots()).map(|s| wp.readers(s).len()).sum();
    for li in (0..wp.num_view_slots()).flat_map(|s| wp.readers(s)) {
        marked.mark(0, *li as usize);
    }
    group.throughput(Throughput::Elements(entries as u64));
    group.bench_function("remark_scattered", |b| {
        b.iter(|| {
            for slot in 0..wp.num_view_slots() {
                for &li in wp.readers(slot) {
                    marked.mark(0, li as usize);
                }
            }
        })
    });
    group.finish();
}

/// One superstep's activation on [`wiki_worker_plan`], cut two ways, with a
/// scattered 1 %, 10 %, 50 % and 100 % of the view slots written: *push*
/// walks `readers(slot)` of every written slot and marks each entry, *pull*
/// sets the slot's fresh bit and has `fill_from` scan each master's in-edge
/// references for one. Both end in the snapshot (equal on the two sides, and
/// what re-arms the parity), and both wake the same masters. Time is per
/// superstep: where the two rows cross is what the engine's `pull_wins`
/// estimates from counts.
fn bench_activation_dense(c: &mut Criterion) {
    let wp = wiki_worker_plan();
    let slots = wp.num_view_slots();
    let frontier = Frontier::new(wp.num_masters());
    let fresh = FreshSlots::new(slots);
    let mut flat = Vec::new();
    let mut group = c.benchmark_group("activation_dense");
    for percent in [1usize, 10, 50, 100] {
        // 40 503 is odd and not a multiple of 5, so `s * 40_503 % 100` runs
        // through every residue: the written slots are `percent` in 100.
        let written: Vec<usize> = (0..slots).filter(|s| s * 40_503 % 100 < percent).collect();
        let mut woken = [0usize; 2];
        group.bench_function(&format!("push_{percent}pct"), |b| {
            b.iter(|| {
                for &slot in &written {
                    for &li in wp.readers(slot) {
                        frontier.mark(0, li as usize);
                    }
                }
                frontier.snapshot(0, &mut flat, |_| true);
                woken[0] = flat.len();
            })
        });
        group.bench_function(&format!("pull_{percent}pct"), |b| {
            b.iter(|| {
                let mut writer = fresh.writer();
                for &slot in &written {
                    writer.set(slot);
                }
                drop(writer);
                frontier.fill_from(0, &wp, &fresh, (0, 1));
                fresh.clear();
                frontier.snapshot(0, &mut flat, |_| true);
                woken[1] = flat.len();
            })
        });
        assert_eq!(woken[0], woken[1], "push and pull wake the same masters");
        println!(
            "activation_dense/{percent}pct: {} of {slots} slots written wake {} of {} masters",
            written.len(),
            woken[0],
            wp.num_masters()
        );
    }
    group.finish();
}

/// One superstep of frontier work for a worker of `sssp-road-hop`'s size
/// (61 250 masters, 958 words a parity) at five densities: mark the active
/// set in scrambled order, then snapshot it into a reused `flat`. The
/// 0 % row is what a superstep that woke nobody pays to find that out — the
/// number a summary level over the words would have to beat.
fn bench_frontier_snapshot(c: &mut Criterion) {
    const N: usize = 61_250;
    // Odd and free of N's prime factors (2, 5, 7): `i * STRIDE % N` is a
    // permutation, so its first `count` values are distinct and scattered.
    const STRIDE: usize = 40_503;
    let mut group = c.benchmark_group("frontier_snapshot");
    let f = Frontier::new(N);
    let mut flat = Vec::new();
    for (density, count) in [
        ("0", 0),
        ("0.01pct", N / 10_000),
        ("1pct", N / 100),
        ("10pct", N / 10),
        ("100pct", N),
    ] {
        group.bench_function(&format!("mark_then_snapshot_{density}"), |b| {
            b.iter(|| {
                for i in 0..count {
                    f.mark(0, i * STRIDE % N);
                }
                f.snapshot(0, &mut flat, |_| true);
                assert_eq!(flat.len(), count);
            })
        });
    }
    group.finish();
}

/// Folds every in-neighbor publication once and publishes nothing: with
/// every vertex initially active, one superstep is one gather over the
/// whole graph through the view.
struct GatherFold;

impl CyclopsProgram for GatherFold {
    type Value = f64;
    type Message = f64;
    fn init(&self, _v: VertexId, _g: &Graph) -> f64 {
        0.0
    }
    fn init_message(&self, v: VertexId, _g: &Graph, _value: &f64) -> Option<f64> {
        Some(v as f64)
    }
    fn compute(&self, ctx: &mut CyclopsContext<'_, f64, f64>) {
        let sum = ctx.in_messages().map(|(m, w)| m * w).sum();
        ctx.set_value(sum);
    }
}

/// The read side of the view, per in-edge: one full-frontier superstep of
/// [`GatherFold`] over the Wiki stand-in on the repo benchmark's `2x1x1`
/// cluster, under full replication (masters and replicas interleaved by the
/// hash cut) and at the auto threshold (direct slots too). An iteration also
/// pays the run's INIT and thread start, the same on either side of a
/// comparison; the rate is in-edges per second.
fn bench_view_gather(c: &mut Criterion) {
    let g = Dataset::Wiki.generate_scaled(1.0, Dataset::Wiki.default_seed());
    let cluster = ClusterSpec::flat(2, 1);
    let p = HashPartitioner.partition(&g, cluster.num_workers());
    let config = CyclopsConfig {
        cluster,
        max_supersteps: 1,
        ..Default::default()
    };
    let mut group = c.benchmark_group("view_gather");
    group.throughput(Throughput::Elements(g.num_edges() as u64));
    let auto = p.auto_replicate_threshold(&g);
    for (label, threshold) in [
        ("threshold_0".to_string(), 0),
        (format!("threshold_auto_{auto}"), auto),
    ] {
        let plan = CyclopsPlan::build_parallel_with_threshold(&g, &p, threshold);
        group.bench_function(&label, |b| {
            b.iter(|| run_cyclops_with_plan(&GatherFold, &g, &plan, &config, None).values)
        });
    }
    group.finish();
}

/// The tracking allocator's bargain: a disarmed `--mem` machinery must
/// cost a single relaxed bool load per malloc/free, and the armed path's
/// price (scope lookup, sharded side table, peak maintenance) is what a
/// `--mem` run pays. Measured on the same allocate-and-free loop before
/// and after the one-way `arm()`, plus the `MemScope::enter` guard itself.
///
/// This group MUST stay last in `criterion_group!`: arming is process-
/// global and irreversible, and every other group's numbers assume the
/// disarmed pass-through.
fn bench_mem_tracking(c: &mut Criterion) {
    let mut group = c.benchmark_group("mem_tracking");
    assert!(
        !cyclops_obs::mem::armed(),
        "mem_tracking must run before anything arms the allocator"
    );
    group.bench_function("alloc_free_256B_disarmed", |b| {
        b.iter(|| std::hint::black_box(Vec::<u8>::with_capacity(256)))
    });
    group.bench_function("alloc_free_4KiB_disarmed", |b| {
        b.iter(|| std::hint::black_box(Vec::<u8>::with_capacity(4096)))
    });
    cyclops_obs::mem::arm();
    group.bench_function("alloc_free_256B_armed", |b| {
        b.iter(|| std::hint::black_box(Vec::<u8>::with_capacity(256)))
    });
    group.bench_function("alloc_free_4KiB_armed", |b| {
        b.iter(|| std::hint::black_box(Vec::<u8>::with_capacity(4096)))
    });
    group.bench_function("alloc_free_256B_armed_scoped", |b| {
        let _scope = cyclops_obs::mem::MemScope::enter(cyclops_obs::Component::SendPool);
        b.iter(|| std::hint::black_box(Vec::<u8>::with_capacity(256)))
    });
    group.bench_function("scope_enter_exit_armed", |b| {
        b.iter(|| {
            std::hint::black_box(cyclops_obs::mem::MemScope::enter(
                cyclops_obs::Component::Inbox,
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_codec,
    bench_wire_encoding,
    bench_inbox,
    bench_barrier,
    bench_csr,
    bench_cholesky,
    bench_metrics,
    bench_hot_vertex,
    bench_span_event,
    bench_comm_matrix,
    bench_plan_build_hybrid,
    bench_plan_build_hub,
    bench_frontier_mark,
    bench_frontier_snapshot,
    bench_activation_dense,
    bench_view_gather,
    bench_mem_tracking
);
criterion_main!(benches);
