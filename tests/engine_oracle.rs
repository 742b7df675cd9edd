//! Cross-commit oracle for the Cyclops engine's superstep phases.
//!
//! Every other engine gate in this repository is *relative* — setting A
//! against setting B at the same commit — so a refactor that changes both
//! sides the same way passes them all. This test is absolute: it runs
//! PageRank (activity- and proportion-converged), SSSP, CC, `det`-bucketed
//! SSSP (fixed and adaptive width) and a stop-at-checkpoint + resume pair on
//! small fixed inputs over `{flat(2,1), flat(3,2), mt(2,3,2)}` × threshold
//! `{0, 2, 8}` (2 messages the power-law input's leaves; only 8 reaches a
//! vertex SSSP or CC ever republishes), folds every deterministic column of
//! every values-mode trace record plus the run's results into two FNV-1a
//! digests per cell, and compares them with [`EXPECTED`]. Phase durations and
//! the read-only `sparse_fast_path` column are the only columns left out.
//! The two multi-threaded clusters are where compute threads race for
//! chunks.
//!
//! The `values` digest covers everything a change of wire framing must leave
//! alone: frontier, computed, activated, drained, message counts (per record,
//! per destination and per superstep), `direct_messages`, checkpoint and
//! bucket columns, aggregates, publication digests and the final values. Its
//! constants were captured, in debug and release, at the commit before the
//! sparse-superstep fast path was deleted (`90b3c94`) with that column taken
//! out of the fold; there the cells agreed with the fast path on and forced
//! off, under either compute scheduler, and the table before it went back
//! through the framing change (`21f0a30`) to the phase unification
//! (`283582a`). The `traffic` digest covers what such a change moves —
//! `bytes`, `wire_dense` and `wire_sparse` per record and per destination,
//! `stats[].bytes_sent`, `counters.bytes` — and is captured at the commit
//! that intends the move.
//!
//! To re-capture after an intended behaviour change, run the test and paste
//! the table it prints; a `VALUES CHANGED` mark is a change of results.

use cyclops::prelude::*;
use cyclops_algos::cc::{symmetrize, CyclopsComponents};
use cyclops_algos::pagerank::CyclopsPageRank;
use cyclops_algos::sssp::{auto_bucket_width, CyclopsSssp};
use cyclops_engine::{
    run_cyclops_with_plan_traced, Convergence, CyclopsConfig, CyclopsPlan, CyclopsProgram,
    CyclopsResult,
};
use cyclops_net::trace::{digest_bytes, TraceRecord, TraceSink};
use cyclops_net::BucketMode;

/// The words of one cell, little-endian, in two streams digested with the
/// trace's own FNV-1a ([`digest_bytes`]) once the cell is complete: `values`
/// is everything a change to the wire framing must leave alone, `traffic`
/// the byte and batch counts it is allowed to move.
#[derive(Default)]
struct Fold {
    values: Vec<u8>,
    traffic: Vec<u8>,
}

impl Fold {
    fn value(&mut self, x: u64) {
        self.values.extend_from_slice(&x.to_le_bytes());
    }

    fn traffic(&mut self, x: u64) {
        self.traffic.extend_from_slice(&x.to_le_bytes());
    }

    /// Every deterministic column of one record; `*_ns` are excluded.
    fn record(&mut self, r: &TraceRecord) {
        for x in [
            r.superstep,
            r.worker,
            r.frontier,
            r.computed,
            r.activated,
            r.converged_delta as u64,
            r.drained,
            r.messages,
        ] {
            self.value(x);
        }
        self.traffic(r.bytes);
        self.value(u64::from(r.checkpoint));
        self.traffic(r.wire_dense);
        self.traffic(r.wire_sparse);
        self.value(r.direct_messages);
        for x in [r.migrated, r.fused, r.bucket, r.bucket_occupancy] {
            self.value(x);
        }
        match &r.agg {
            Some(a) => {
                for x in [
                    1,
                    a.sum.to_bits(),
                    a.count as u64,
                    a.min.to_bits(),
                    a.max.to_bits(),
                ] {
                    self.value(x);
                }
            }
            None => self.value(0),
        }
        self.value(r.pubs.len() as u64);
        for &(v, d) in &r.pubs {
            self.value(u64::from(v));
            self.value(d);
        }
        self.value(r.comm.len() as u64);
        for c in &r.comm {
            self.value(u64::from(c.dst));
            self.value(c.messages);
            for x in [c.bytes, c.wire_dense, c.wire_sparse] {
                self.traffic(x);
            }
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

/// Runs `program` traced in values mode and folds the trace and the result
/// into `h`; returns the result so a caller can resume from its checkpoint.
fn run_folded<P: CyclopsProgram>(
    h: &mut Fold,
    program: &P,
    graph: &Graph,
    plan: &CyclopsPlan,
    config: &CyclopsConfig,
    resume: Option<&cyclops_engine::CyclopsCheckpoint<P::Value, P::Message>>,
) -> CyclopsResult<P::Value, P::Message>
where
    P::Value: Bits,
{
    let mut sink = TraceSink::with_values("cyclops", &config.cluster);
    let r = run_cyclops_with_plan_traced(program, graph, plan, config, resume, Some(&sink));
    let records = sink.take_records();
    h.value(records.len() as u64);
    for rec in &records {
        h.record(rec);
    }
    h.value(r.supersteps as u64);
    for s in &r.stats {
        for x in [s.superstep, s.active_vertices, s.messages_sent] {
            h.value(x as u64);
        }
        h.traffic(s.bytes_sent as u64);
    }
    h.value(r.counters.messages as u64);
    h.traffic(r.counters.bytes as u64);
    h.value(r.direct_messages as u64);
    h.value(r.checkpoints.len() as u64);
    for v in &r.values {
        h.value(v.bits());
    }
    r
}

fn digest_cell(
    (rmat, road): (&Graph, &Graph),
    workload: &str,
    cluster: ClusterSpec,
    threshold: u32,
) -> [u64; 2] {
    let base = CyclopsConfig {
        cluster,
        replicate_threshold: threshold,
        ..Default::default()
    };
    let plan_for = |g: &Graph| {
        let p = HashPartitioner.partition(g, cluster.num_workers());
        CyclopsPlan::build_parallel_with_threshold(g, &p, threshold)
    };
    let mut h = Fold::default();
    match workload {
        "pr" => {
            let config = CyclopsConfig {
                max_supersteps: 25,
                ..base
            };
            let program = CyclopsPageRank { epsilon: 1e-7 };
            run_folded(&mut h, &program, rmat, &plan_for(rmat), &config, None);
        }
        "pr-prop" => {
            // Proportion convergence: the only mode that moves the
            // `converged_delta` column and stops on the leader's predicate.
            let config = CyclopsConfig {
                max_supersteps: 40,
                convergence: Convergence::Proportion {
                    epsilon: 1e-6,
                    target: 0.9,
                },
                ..base
            };
            let program = CyclopsPageRank { epsilon: 1e-9 };
            run_folded(&mut h, &program, rmat, &plan_for(rmat), &config, None);
        }
        "sssp" => {
            let program = CyclopsSssp { source: 0 };
            run_folded(&mut h, &program, road, &plan_for(road), &base, None);
        }
        "cc" => {
            let g = symmetrize(rmat);
            run_folded(&mut h, &CyclopsComponents, &g, &plan_for(&g), &base, None);
        }
        "bucket" | "bucket-adapt" => {
            // The adaptive cell is seeded at the mean edge weight, an eighth
            // of the auto width, so the controller has to retune on the way
            // (at the auto width it never fires on this input).
            let adapt = workload == "bucket-adapt";
            let config = CyclopsConfig {
                bucket_width: auto_bucket_width(road) / if adapt { 8.0 } else { 1.0 },
                bucket_mode: BucketMode::Det,
                bucket_adapt: adapt,
                ..base
            };
            let program = CyclopsSssp { source: 0 };
            run_folded(&mut h, &program, road, &plan_for(road), &config, None);
        }
        "stop-resume" => {
            let program = CyclopsPageRank { epsilon: 1e-7 };
            let plan = plan_for(rmat);
            let epoch = CyclopsConfig {
                max_supersteps: 14,
                checkpoint_every: Some(5),
                stop_at_checkpoint: true,
                ..base.clone()
            };
            let first = run_folded(&mut h, &program, rmat, &plan, &epoch, None);
            let cp = first.checkpoints.last().expect("stopped at a checkpoint");
            assert_eq!(cp.superstep, first.supersteps, "run stopped at the capture");
            let rest = CyclopsConfig {
                max_supersteps: 14,
                ..base
            };
            run_folded(&mut h, &program, rmat, &plan, &rest, Some(cp));
        }
        other => unreachable!("unknown workload {other}"),
    }
    [&h.values, &h.traffic].map(|words| digest_bytes(words))
}

const WORKLOADS: [&str; 7] = [
    "pr",
    "pr-prop",
    "sssp",
    "cc",
    "bucket",
    "bucket-adapt",
    "stop-resume",
];

fn cells() -> Vec<(String, [u64; 2])> {
    let clusters = [
        ("flat(2,1)", ClusterSpec::flat(2, 1)),
        ("flat(3,2)", ClusterSpec::flat(3, 2)),
        ("mt(2,3,2)", ClusterSpec::mt(2, 3, 2)),
    ];
    let rmat = Dataset::GWeb.generate_scaled(0.02, 11);
    let road = Dataset::RoadCa.generate_scaled(0.02, 7);
    let mut out = Vec::new();
    for workload in WORKLOADS {
        for (cname, cluster) in clusters {
            for threshold in [0u32, 2, 8] {
                out.push((
                    format!("{workload}/{cname}/t{threshold}"),
                    digest_cell((&rmat, &road), workload, cluster, threshold),
                ));
            }
        }
    }
    out
}

#[test]
fn engine_behaviour_matches_the_parent_commit() {
    let actual = cells();
    let matches = actual.len() == EXPECTED.len()
        && actual
            .iter()
            .zip(EXPECTED)
            .all(|((name, digests), (ename, values, traffic))| {
                name == ename && digests == &[*values, *traffic]
            });
    if !matches {
        let mut table = String::new();
        for (name, [values, traffic]) in &actual {
            let moved = match EXPECTED.iter().find(|(n, ..)| n == name) {
                Some((_, v, _)) if v != values => " // VALUES CHANGED",
                Some((_, _, t)) if t != traffic => " // traffic changed",
                _ => "",
            };
            table.push_str(&format!(
                "    (\"{name}\", {values:#018x}, {traffic:#018x}),{moved}\n"
            ));
        }
        panic!("engine digests diverge from the captured constants; actual table:\n{table}");
    }
}

/// `(cell, values digest, traffic digest)`; see the module docs for which was
/// captured where.
#[rustfmt::skip] // one cell per line, as the failing test prints them
const EXPECTED: &[(&str, u64, u64)] = &[
    ("pr/flat(2,1)/t0", 0xb181d43ae660c3b9, 0xc686141cf6451460),
    ("pr/flat(2,1)/t2", 0x2f1836c56823cab5, 0x3b070acf17730483),
    ("pr/flat(2,1)/t8", 0xf0ecfaf665ea8744, 0x67f6809a63b7ba87),
    ("pr/flat(3,2)/t0", 0x777a8aaf1874cd39, 0x07d49fcd3f38c7e1),
    ("pr/flat(3,2)/t2", 0x0a4ad64225f04fef, 0x4b2802bf32f62d1a),
    ("pr/flat(3,2)/t8", 0x89aa771b8c5e61ba, 0x5f8ecb32f2514088),
    ("pr/mt(2,3,2)/t0", 0xb181d43ae660c3b9, 0xc686141cf6451460),
    ("pr/mt(2,3,2)/t2", 0x2f1836c56823cab5, 0x3b070acf17730483),
    ("pr/mt(2,3,2)/t8", 0xf0ecfaf665ea8744, 0x67f6809a63b7ba87),
    ("pr-prop/flat(2,1)/t0", 0xa77f669dc6d6362c, 0x1494d6437f9c1d4d),
    ("pr-prop/flat(2,1)/t2", 0x3d206ed8c48e6f28, 0x02f559ac485520a5),
    ("pr-prop/flat(2,1)/t8", 0xc3d1b397a45e3f31, 0x09daffedff76653f),
    ("pr-prop/flat(3,2)/t0", 0xeec862281d2f0fd3, 0x159d57789082fbe3),
    ("pr-prop/flat(3,2)/t2", 0xfb8749f72dfc3ffd, 0xb71ef6fc984a0a14),
    ("pr-prop/flat(3,2)/t8", 0x7c04b33f11fd674e, 0xf7175a42639ccb87),
    ("pr-prop/mt(2,3,2)/t0", 0xa77f669dc6d6362c, 0x1494d6437f9c1d4d),
    ("pr-prop/mt(2,3,2)/t2", 0x3d206ed8c48e6f28, 0x02f559ac485520a5),
    ("pr-prop/mt(2,3,2)/t8", 0xc3d1b397a45e3f31, 0x09daffedff76653f),
    ("sssp/flat(2,1)/t0", 0xf69e83b9eebb88f4, 0x2cdfdafa25514c34),
    ("sssp/flat(2,1)/t2", 0xf69e83b9eebb88f4, 0x2cdfdafa25514c34),
    ("sssp/flat(2,1)/t8", 0x972bcea1efa14178, 0x752d2c310f5380e5),
    ("sssp/flat(3,2)/t0", 0x406991ff14dc1b01, 0x829d6714ded08d0f),
    ("sssp/flat(3,2)/t2", 0x406991ff14dc1b01, 0x829d6714ded08d0f),
    ("sssp/flat(3,2)/t8", 0x52d37ff2f7eae809, 0x41784d289fb1f4bd),
    ("sssp/mt(2,3,2)/t0", 0xf69e83b9eebb88f4, 0x2cdfdafa25514c34),
    ("sssp/mt(2,3,2)/t2", 0xf69e83b9eebb88f4, 0x2cdfdafa25514c34),
    ("sssp/mt(2,3,2)/t8", 0x972bcea1efa14178, 0x752d2c310f5380e5),
    ("cc/flat(2,1)/t0", 0xd09afd8631fa7316, 0x290ce93109ff48d6),
    ("cc/flat(2,1)/t2", 0xd09afd8631fa7316, 0x290ce93109ff48d6),
    ("cc/flat(2,1)/t8", 0xf4c2436cb1ce4fc9, 0x664ed4279476229d),
    ("cc/flat(3,2)/t0", 0x0cca519e8f2956ce, 0xdc8e8bd49c9458bc),
    ("cc/flat(3,2)/t2", 0x0cca519e8f2956ce, 0xdc8e8bd49c9458bc),
    ("cc/flat(3,2)/t8", 0x520d5e69a4327930, 0xf07ca833ca35c0a1),
    ("cc/mt(2,3,2)/t0", 0xd09afd8631fa7316, 0x290ce93109ff48d6),
    ("cc/mt(2,3,2)/t2", 0xd09afd8631fa7316, 0x290ce93109ff48d6),
    ("cc/mt(2,3,2)/t8", 0xf4c2436cb1ce4fc9, 0x664ed4279476229d),
    ("bucket/flat(2,1)/t0", 0x42e7d47c24fe5c99, 0x9bb8207c48dbc899),
    ("bucket/flat(2,1)/t2", 0x42e7d47c24fe5c99, 0x9bb8207c48dbc899),
    ("bucket/flat(2,1)/t8", 0x353978724aa2bc87, 0x738519963775e260),
    ("bucket/flat(3,2)/t0", 0x87784b2600b729d8, 0x4e10f2d96dd09d89),
    ("bucket/flat(3,2)/t2", 0x87784b2600b729d8, 0x4e10f2d96dd09d89),
    ("bucket/flat(3,2)/t8", 0x7b2f130a16091507, 0xda178bb6a09b80a1),
    ("bucket/mt(2,3,2)/t0", 0x42e7d47c24fe5c99, 0x9bb8207c48dbc899),
    ("bucket/mt(2,3,2)/t2", 0x42e7d47c24fe5c99, 0x9bb8207c48dbc899),
    ("bucket/mt(2,3,2)/t8", 0x353978724aa2bc87, 0x738519963775e260),
    ("bucket-adapt/flat(2,1)/t0", 0x86d1bc4da825f3e4, 0x29fde6ab85c752de),
    ("bucket-adapt/flat(2,1)/t2", 0x86d1bc4da825f3e4, 0x29fde6ab85c752de),
    ("bucket-adapt/flat(2,1)/t8", 0x7ea76463fdff14f2, 0x81336b076f50271b),
    ("bucket-adapt/flat(3,2)/t0", 0x4a4d6028998536f1, 0xa0dfd518c3ecd927),
    ("bucket-adapt/flat(3,2)/t2", 0x4a4d6028998536f1, 0xa0dfd518c3ecd927),
    ("bucket-adapt/flat(3,2)/t8", 0x0c4230170f2dccbb, 0x15819337f3471c51),
    ("bucket-adapt/mt(2,3,2)/t0", 0x86d1bc4da825f3e4, 0x29fde6ab85c752de),
    ("bucket-adapt/mt(2,3,2)/t2", 0x86d1bc4da825f3e4, 0x29fde6ab85c752de),
    ("bucket-adapt/mt(2,3,2)/t8", 0x7ea76463fdff14f2, 0x81336b076f50271b),
    ("stop-resume/flat(2,1)/t0", 0x5a91f1a69b71321f, 0x20107e71fd32254d),
    ("stop-resume/flat(2,1)/t2", 0x7211eb9bb2a26c2b, 0x88f6a3ed48d80739),
    ("stop-resume/flat(2,1)/t8", 0x1c9737e1768a0b76, 0x53bb96f75e11d68e),
    ("stop-resume/flat(3,2)/t0", 0x87ad1ed6bb3613a3, 0x90ba7a4d80a2b1aa),
    ("stop-resume/flat(3,2)/t2", 0x990fd0067e964971, 0xba8e0b8e6df52d74),
    ("stop-resume/flat(3,2)/t8", 0x461b4f862eef1883, 0xeec3476c7f1497fb),
    ("stop-resume/mt(2,3,2)/t0", 0x5a91f1a69b71321f, 0x20107e71fd32254d),
    ("stop-resume/mt(2,3,2)/t2", 0x7211eb9bb2a26c2b, 0x88f6a3ed48d80739),
    ("stop-resume/mt(2,3,2)/t8", 0x1c9737e1768a0b76, 0x53bb96f75e11d68e),
];
