//! Cross-commit oracle for the two baseline engines (`cyclops-bsp`, the Hama
//! stand-in, and `cyclops-gas`, the PowerGraph stand-in).
//!
//! The twin of `tests/engine_oracle.rs`: every other baseline gate compares
//! setting A with setting B at one commit, so a refactor that moves both
//! sides alike passes them all. This one is absolute. Each cell runs a
//! program traced in values mode with hot-vertex capture on, folds every
//! deterministic column of every trace record (all fields but `*_ns`), the
//! run's `supersteps`, every [`SuperstepStats`] count, the schedule-free
//! [`CounterSnapshot`] fields and the final values into one FNV-1a digest,
//! and compares it with [`EXPECTED`]. The fifteen `…/checkpoint/…`
//! constants were captured, in debug and release, at the commit before BSP
//! delta-stepping was deleted (`c1eefeb`), once that cell had dropped its
//! bucketed iteration; the other cells held across that deletion unchanged.
//! Those were captured at the commit before the sparse-superstep fast path
//! was deleted (`90b3c94`) with the read-only `sparse_fast_path` column
//! taken out of the fold; there every cell equalled its twin with the fast
//! path forced off. The table before them was captured at the commit before
//! the baselines got one run struct and one set of phases (`0b744c5`).
//!
//! Cells (66). `run_bsp_traced` × {SSSP, CC, PageRank} × {`flat(2,1)`,
//! `flat(3,1)`, `flat(4,1)`} × {classic, combiner, `track_redundant`,
//! checkpoint-every-k + `run_bsp_from_checkpoint`} × inbox, PageRank under
//! `Sharded` only (60); `run_gas_traced` × {PageRank, SSSP} × {random,
//! greedy cut} × {`flat(2,1)`, `flat(3,1)`}, PageRank on `flat(2,1)` only
//! (6).
//!
//! What is deliberately left out, because the parent does not repeat it from
//! run to run: PageRank under [`InboxMode::GlobalQueue`] (arrival order moves
//! the float sums' last ulp, so PageRank cells are `Sharded` only; SSSP and
//! CC fold min, so they run under both inboxes); GAS PageRank on three
//! workers (GAS has the global queue only, and a master with two mirrors sums
//! their partials in arrival order — 12 of 12 runs differed); and the
//! [`CounterSnapshot`] fields that measure thread timing
//! (`lock_contentions`, the queue peaks, allocation growth).
//!
//! To re-capture after an intended behaviour change, run the test and paste
//! the table it prints.

use cyclops::prelude::*;
use cyclops_algos::cc::{symmetrize, BspComponents};
use cyclops_algos::pagerank::{BspPageRank, GasPageRank};
use cyclops_algos::sssp::{BspSssp, GasSssp};
use cyclops_bsp::{
    run_bsp_from_checkpoint, run_bsp_traced, BspConfig, BspProgram, BspResult, Checkpoint,
};
use cyclops_gas::{run_gas_traced, GasConfig, GasProgram};
use cyclops_net::metrics::CounterSnapshot;
use cyclops_net::trace::{digest_bytes, TraceRecord, TraceSink};
use cyclops_net::{InboxMode, SuperstepStats};
use cyclops_partition::{
    GreedyVertexCut, RandomVertexCut, VertexCutPartition, VertexCutPartitioner,
};

/// Hot-vertex sketch capacity of every traced cell.
const HOT_K: usize = 4;

/// The words of one cell, little-endian, digested with the trace's own
/// FNV-1a ([`digest_bytes`]) once the cell is complete.
#[derive(Default)]
struct Fold(Vec<u8>);

impl Fold {
    fn word(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    fn words(&mut self, xs: impl IntoIterator<Item = u64>) {
        for x in xs {
            self.word(x);
        }
    }

    /// Every deterministic column of one record; `*_ns` are excluded.
    fn record(&mut self, r: &TraceRecord) {
        self.words([
            r.superstep,
            r.worker,
            r.frontier,
            r.computed,
            r.activated,
            r.converged_delta as u64,
            r.drained,
            r.messages,
            r.bytes,
            u64::from(r.checkpoint),
            r.wire_dense,
            r.wire_sparse,
            r.direct_messages,
            r.direct_bytes,
            r.migrated,
            r.fused,
            r.bucket,
            r.bucket_occupancy,
        ]);
        match &r.agg {
            Some(a) => self.words([
                1,
                a.sum.to_bits(),
                a.count as u64,
                a.min.to_bits(),
                a.max.to_bits(),
            ]),
            None => self.word(0),
        }
        for pairs in [&r.pubs, &r.hot] {
            self.word(pairs.len() as u64);
            for &(v, x) in pairs {
                self.words([u64::from(v), x]);
            }
        }
        self.word(r.comm.len() as u64);
        for c in &r.comm {
            self.words([
                u64::from(c.dst),
                c.messages,
                c.bytes,
                c.wire_dense,
                c.wire_sparse,
            ]);
        }
    }

    fn trace(&mut self, mut sink: TraceSink) {
        let records = sink.take_records();
        self.word(records.len() as u64);
        for rec in &records {
            self.record(rec);
        }
    }

    /// What every engine result carries: the superstep count, each
    /// superstep's counts, the whole-run counters and the final values.
    fn outcome<V: Bits>(
        &mut self,
        supersteps: usize,
        stats: &[SuperstepStats],
        counters: &CounterSnapshot,
        values: &[V],
    ) {
        self.word(supersteps as u64);
        self.word(stats.len() as u64);
        for s in stats {
            self.words(
                [
                    s.superstep,
                    s.active_vertices,
                    s.messages_sent,
                    s.bytes_sent,
                    s.redundant_messages,
                ]
                .map(|x| x as u64),
            );
        }
        self.words(
            [
                counters.messages,
                counters.bytes,
                counters.wire_dense_batches,
                counters.wire_sparse_batches,
                counters.wire_legacy_batches,
                counters.wire_saved_bytes,
            ]
            .map(|x| x as u64),
        );
        for v in values {
            self.word(v.bits());
        }
    }
}

/// Bit pattern of a final vertex value, for the digest.
trait Bits {
    fn bits(&self) -> u64;
}

impl Bits for f64 {
    fn bits(&self) -> u64 {
        self.to_bits()
    }
}

impl Bits for u32 {
    fn bits(&self) -> u64 {
        u64::from(*self)
    }
}

/// One BSP run folded into `h`: the trace when `traced`, the outcome, and
/// the shape of every checkpoint (their message *order* follows arrival
/// order under the global queue; their counts do not).
fn bsp_folded<P: BspProgram>(
    h: &mut Fold,
    program: &P,
    graph: &Graph,
    config: &BspConfig,
    traced: bool,
    resume: Option<&Checkpoint<P::Value, P::Message>>,
) -> BspResult<P::Value, P::Message>
where
    P::Value: Bits,
{
    let partition = HashPartitioner.partition(graph, config.cluster.num_workers());
    let r = match resume {
        Some(cp) => run_bsp_from_checkpoint(program, graph, &partition, config, cp),
        None => {
            let sink = TraceSink::with_values("bsp", &config.cluster).with_hot_k(HOT_K);
            let r = run_bsp_traced(program, graph, &partition, config, Some(&sink));
            if traced {
                h.trace(sink);
            }
            r
        }
    };
    h.outcome(r.supersteps, &r.stats, &r.counters, &r.values);
    h.word(r.checkpoints.len() as u64);
    for cp in &r.checkpoints {
        h.words(
            [
                cp.superstep,
                cp.values.len(),
                cp.halted.len(),
                cp.messages.len(),
            ]
            .map(|x| x as u64),
        );
    }
    r
}

const BSP_VARIANTS: [&str; 4] = ["classic", "combiner", "redundant", "checkpoint"];

fn bsp_cell<P: BspProgram>(
    program: &P,
    graph: &Graph,
    base: BspConfig,
    variant: &str,
    every: usize,
) -> u64
where
    P::Value: Bits,
{
    let mut h = Fold::default();
    let mut one = |config: BspConfig, traced: bool| {
        bsp_folded(&mut h, program, graph, &config, traced, None);
    };
    match variant {
        "classic" => one(base, true),
        "combiner" => one(
            BspConfig {
                use_combiner: true,
                ..base
            },
            true,
        ),
        "redundant" => one(
            BspConfig {
                track_redundant: true,
                ..base
            },
            true,
        ),
        "checkpoint" => {
            // The capture trigger, and a resume from the middle checkpoint
            // if the run captured one.
            let config = BspConfig {
                checkpoint_every: Some(every),
                ..base
            };
            let full = bsp_folded(&mut h, program, graph, &config, true, None);
            if let Some(cp) = full.checkpoints.get(full.checkpoints.len() / 2) {
                let rest = BspConfig {
                    checkpoint_every: None,
                    ..config
                };
                bsp_folded(&mut h, program, graph, &rest, false, Some(cp));
            }
        }
        other => unreachable!("unknown variant {other}"),
    }
    digest_bytes(&h.0)
}

fn gas_cell<P: GasProgram>(
    program: &P,
    graph: &Graph,
    cut: &VertexCutPartition,
    config: &GasConfig,
) -> u64
where
    P::Value: Bits,
{
    let mut h = Fold::default();
    let sink = TraceSink::with_values("gas", &config.cluster).with_hot_k(HOT_K);
    let r = run_gas_traced(program, graph, cut, config, Some(&sink));
    h.trace(sink);
    h.outcome(r.supersteps, &r.stats, &r.counters, &r.values);
    digest_bytes(&h.0)
}

fn cells() -> Vec<(String, u64)> {
    let rmat = Dataset::GWeb.generate_scaled(0.02, 11);
    let road = Dataset::RoadCa.generate_scaled(0.02, 7);
    let sym = symmetrize(&rmat);
    let both = [
        ("global", InboxMode::GlobalQueue),
        ("sharded", InboxMode::Sharded),
    ];
    let mut out = Vec::new();
    for workers in [2, 3, 4] {
        let cluster = ClusterSpec::flat(workers, 1);
        for variant in BSP_VARIANTS {
            for (iname, inbox) in both {
                let name = |p: &str| format!("bsp/{p}/flat({workers},1)/{variant}/{iname}");
                let base = BspConfig {
                    cluster,
                    inbox,
                    ..Default::default()
                };
                let sssp = BspSssp { source: 0 };
                out.push((
                    name("sssp"),
                    bsp_cell(&sssp, &road, base.clone(), variant, 40),
                ));
                out.push((
                    name("cc"),
                    bsp_cell(&BspComponents, &sym, base.clone(), variant, 3),
                ));
                if inbox == InboxMode::Sharded {
                    let config = BspConfig {
                        max_supersteps: 25,
                        ..base
                    };
                    let pr = BspPageRank { epsilon: 1e-7 };
                    out.push((name("pr"), bsp_cell(&pr, &rmat, config, variant, 7)));
                }
            }
        }
    }
    for workers in [2, 3] {
        let cluster = ClusterSpec::flat(workers, 1);
        let cuts = [
            (
                "random",
                RandomVertexCut::default().partition(&rmat, workers),
            ),
            (
                "greedy",
                GreedyVertexCut::default().partition(&rmat, workers),
            ),
        ];
        let road_cuts = [
            (
                "random",
                RandomVertexCut::default().partition(&road, workers),
            ),
            (
                "greedy",
                GreedyVertexCut::default().partition(&road, workers),
            ),
        ];
        let name = |p: &str, cut: &str| format!("gas/{p}/flat({workers},1)/{cut}");
        let config = GasConfig {
            cluster,
            ..Default::default()
        };
        // Two mirrors answer one master in arrival order, so PageRank's
        // gather sum repeats only where a vertex has at most one mirror.
        for (cname, cut) in cuts.iter().filter(|_| workers == 2) {
            let config = GasConfig {
                max_supersteps: 20,
                ..config
            };
            let pr = GasPageRank { epsilon: 1e-7 };
            out.push((name("pr", cname), gas_cell(&pr, &rmat, cut, &config)));
        }
        for (cname, cut) in &road_cuts {
            let sssp = GasSssp { source: 0 };
            out.push((name("sssp", cname), gas_cell(&sssp, &road, cut, &config)));
        }
    }
    out
}

#[test]
fn baseline_behaviour_matches_the_parent_commit() {
    let actual = cells();
    let matches = actual.len() == EXPECTED.len()
        && actual
            .iter()
            .zip(EXPECTED)
            .all(|((name, digest), (ename, expected))| name == ename && digest == expected);
    if !matches {
        let mut table = String::new();
        for (name, digest) in &actual {
            let moved = match EXPECTED.iter().find(|(n, _)| n == name) {
                Some((_, d)) if d != digest => " // CHANGED",
                Some(_) => "",
                None => " // new",
            };
            table.push_str(&format!("    (\"{name}\", {digest:#018x}),{moved}\n"));
        }
        panic!("baseline digests diverge from the captured constants; actual table:\n{table}");
    }
}

/// `(cell, digest)`; see the module docs for where they were captured.
#[rustfmt::skip] // one cell per line, as the failing test prints them
const EXPECTED: &[(&str, u64)] = &[
    ("bsp/sssp/flat(2,1)/classic/global", 0xa05d81e7ef69b369),
    ("bsp/cc/flat(2,1)/classic/global", 0xe2adeb113e29fd99),
    ("bsp/sssp/flat(2,1)/classic/sharded", 0xa05d81e7ef69b369),
    ("bsp/cc/flat(2,1)/classic/sharded", 0xe2adeb113e29fd99),
    ("bsp/pr/flat(2,1)/classic/sharded", 0x67437bd153e02f6c),
    ("bsp/sssp/flat(2,1)/combiner/global", 0x45772cf75ac8204e),
    ("bsp/cc/flat(2,1)/combiner/global", 0xe425a1e666a0d764),
    ("bsp/sssp/flat(2,1)/combiner/sharded", 0x45772cf75ac8204e),
    ("bsp/cc/flat(2,1)/combiner/sharded", 0xe425a1e666a0d764),
    ("bsp/pr/flat(2,1)/combiner/sharded", 0x4ae55b1f1fe37da0),
    ("bsp/sssp/flat(2,1)/redundant/global", 0xa05d81e7ef69b369),
    ("bsp/cc/flat(2,1)/redundant/global", 0xe2adeb113e29fd99),
    ("bsp/sssp/flat(2,1)/redundant/sharded", 0xa05d81e7ef69b369),
    ("bsp/cc/flat(2,1)/redundant/sharded", 0xe2adeb113e29fd99),
    ("bsp/pr/flat(2,1)/redundant/sharded", 0x43c1c7ee19d3391b),
    ("bsp/sssp/flat(2,1)/checkpoint/global", 0xf2f0ad57270f2c2e),
    ("bsp/cc/flat(2,1)/checkpoint/global", 0x7c5fa65be44885dc),
    ("bsp/sssp/flat(2,1)/checkpoint/sharded", 0xf2f0ad57270f2c2e),
    ("bsp/cc/flat(2,1)/checkpoint/sharded", 0x7c5fa65be44885dc),
    ("bsp/pr/flat(2,1)/checkpoint/sharded", 0x3bc49f3aaf8dbd82),
    ("bsp/sssp/flat(3,1)/classic/global", 0x33e6dd54d41c7f91),
    ("bsp/cc/flat(3,1)/classic/global", 0x983e466ba513f2b6),
    ("bsp/sssp/flat(3,1)/classic/sharded", 0x33e6dd54d41c7f91),
    ("bsp/cc/flat(3,1)/classic/sharded", 0x983e466ba513f2b6),
    ("bsp/pr/flat(3,1)/classic/sharded", 0x2b009023706999e1),
    ("bsp/sssp/flat(3,1)/combiner/global", 0xb2d8172d79034b9b),
    ("bsp/cc/flat(3,1)/combiner/global", 0xaaeef265ac32cc47),
    ("bsp/sssp/flat(3,1)/combiner/sharded", 0xb2d8172d79034b9b),
    ("bsp/cc/flat(3,1)/combiner/sharded", 0xaaeef265ac32cc47),
    ("bsp/pr/flat(3,1)/combiner/sharded", 0x781de1c7b758fbed),
    ("bsp/sssp/flat(3,1)/redundant/global", 0x33e6dd54d41c7f91),
    ("bsp/cc/flat(3,1)/redundant/global", 0x983e466ba513f2b6),
    ("bsp/sssp/flat(3,1)/redundant/sharded", 0x33e6dd54d41c7f91),
    ("bsp/cc/flat(3,1)/redundant/sharded", 0x983e466ba513f2b6),
    ("bsp/pr/flat(3,1)/redundant/sharded", 0x1d6db3561994045a),
    ("bsp/sssp/flat(3,1)/checkpoint/global", 0xb3784c2c6f1ab994),
    ("bsp/cc/flat(3,1)/checkpoint/global", 0x8ea2d23d9f18fa2f),
    ("bsp/sssp/flat(3,1)/checkpoint/sharded", 0xb3784c2c6f1ab994),
    ("bsp/cc/flat(3,1)/checkpoint/sharded", 0x8ea2d23d9f18fa2f),
    ("bsp/pr/flat(3,1)/checkpoint/sharded", 0x96e9d1ca792514a7),
    ("bsp/sssp/flat(4,1)/classic/global", 0xb705199eac18ab48),
    ("bsp/cc/flat(4,1)/classic/global", 0xefe08e5bb977bdbf),
    ("bsp/sssp/flat(4,1)/classic/sharded", 0xb705199eac18ab48),
    ("bsp/cc/flat(4,1)/classic/sharded", 0xefe08e5bb977bdbf),
    ("bsp/pr/flat(4,1)/classic/sharded", 0xb62a687008c28e9d),
    ("bsp/sssp/flat(4,1)/combiner/global", 0x5edb64c6ee1ccb27),
    ("bsp/cc/flat(4,1)/combiner/global", 0x73d84ea14acaccd3),
    ("bsp/sssp/flat(4,1)/combiner/sharded", 0x5edb64c6ee1ccb27),
    ("bsp/cc/flat(4,1)/combiner/sharded", 0x73d84ea14acaccd3),
    ("bsp/pr/flat(4,1)/combiner/sharded", 0x278de7739f32b994),
    ("bsp/sssp/flat(4,1)/redundant/global", 0xb705199eac18ab48),
    ("bsp/cc/flat(4,1)/redundant/global", 0xefe08e5bb977bdbf),
    ("bsp/sssp/flat(4,1)/redundant/sharded", 0xb705199eac18ab48),
    ("bsp/cc/flat(4,1)/redundant/sharded", 0xefe08e5bb977bdbf),
    ("bsp/pr/flat(4,1)/redundant/sharded", 0x33c66c21eabcd22a),
    ("bsp/sssp/flat(4,1)/checkpoint/global", 0xeb745a5060996b70),
    ("bsp/cc/flat(4,1)/checkpoint/global", 0xdead1f7e36348bc4),
    ("bsp/sssp/flat(4,1)/checkpoint/sharded", 0xeb745a5060996b70),
    ("bsp/cc/flat(4,1)/checkpoint/sharded", 0xdead1f7e36348bc4),
    ("bsp/pr/flat(4,1)/checkpoint/sharded", 0xdbeb7c7573dfcd33),
    ("gas/pr/flat(2,1)/random", 0x022b32b2f0652a2f),
    ("gas/pr/flat(2,1)/greedy", 0x0e593108b39cf44e),
    ("gas/sssp/flat(2,1)/random", 0xa686d38e3e7fbb4d),
    ("gas/sssp/flat(2,1)/greedy", 0x29cfa9903c3be5e0),
    ("gas/sssp/flat(3,1)/random", 0xee65ae93858dc4aa),
    ("gas/sssp/flat(3,1)/greedy", 0x091e4453559dda6a),
];
