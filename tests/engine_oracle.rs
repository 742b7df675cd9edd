//! Cross-commit oracle for the Cyclops engine's superstep phases.
//!
//! Every other engine gate in this repository is *relative* — setting A
//! against setting B at the same commit — so a refactor that changes both
//! sides the same way passes them all. This test is absolute: it runs
//! PageRank (activity- and proportion-converged), SSSP, CC, `det`-bucketed SSSP (fixed and adaptive width) and a
//! stop-at-checkpoint + resume pair on small fixed inputs over
//! `{flat(2,1), flat(3,2), mt(2,3,2)}` × `Sched::{Static, Dynamic}` ×
//! threshold `{0, 2, 8}` (2 messages the power-law input's leaves; only 8
//! reaches a vertex SSSP or CC ever republishes), folds every deterministic
//! column of every values-mode trace record plus the run's results into one
//! FNV-1a digest per cell, and compares it with [`EXPECTED`] — constants captured by
//! running this same file at the commit *before* the phases were unified
//! (PR 12, `283582a`). Phase durations are the only columns left out.
//!
//! To re-capture after an intended behaviour change, empty `EXPECTED`, run
//! the test, and paste the table it prints.

use cyclops::prelude::*;
use cyclops_algos::cc::{symmetrize, CyclopsComponents};
use cyclops_algos::pagerank::CyclopsPageRank;
use cyclops_algos::sssp::{auto_bucket_width, CyclopsSssp};
use cyclops_engine::{
    run_cyclops_with_plan_traced, Convergence, CyclopsConfig, CyclopsPlan, CyclopsProgram,
    CyclopsResult, Sched,
};
use cyclops_net::trace::{digest_bytes, TraceRecord, TraceSink};
use cyclops_net::BucketMode;

/// The words of one cell, little-endian, digested with the trace's own
/// FNV-1a ([`digest_bytes`]) once the cell is complete.
struct Fold(Vec<u8>);

impl Fold {
    fn word(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
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
            r.bytes,
            u64::from(r.checkpoint),
            u64::from(r.sparse_fast_path),
            r.wire_dense,
            r.wire_sparse,
            r.direct_messages,
            r.direct_bytes,
            r.migrated,
            r.fused,
            r.bucket,
            r.bucket_occupancy,
        ] {
            self.word(x);
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
                    self.word(x);
                }
            }
            None => self.word(0),
        }
        self.word(r.pubs.len() as u64);
        for &(v, d) in &r.pubs {
            self.word(u64::from(v));
            self.word(d);
        }
        self.word(r.comm.len() as u64);
        for c in &r.comm {
            for x in [
                u64::from(c.dst),
                c.messages,
                c.bytes,
                c.wire_dense,
                c.wire_sparse,
            ] {
                self.word(x);
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
    assert_eq!(sink.dropped_records(), 0, "trace ring overflowed");
    let records = sink.take_records();
    h.word(records.len() as u64);
    for rec in &records {
        h.record(rec);
    }
    h.word(r.supersteps as u64);
    for s in &r.stats {
        for x in [
            s.superstep,
            s.active_vertices,
            s.messages_sent,
            s.bytes_sent,
        ] {
            h.word(x as u64);
        }
    }
    for x in [
        r.counters.messages,
        r.counters.bytes,
        r.direct_messages,
        r.direct_bytes,
        r.checkpoints.len(),
    ] {
        h.word(x as u64);
    }
    for v in &r.values {
        h.word(v.bits());
    }
    r
}

fn digest_cell(
    (rmat, road): (&Graph, &Graph),
    workload: &str,
    cluster: ClusterSpec,
    sched: Sched,
    threshold: u32,
) -> u64 {
    let base = CyclopsConfig {
        cluster,
        sched,
        replicate_threshold: threshold,
        ..Default::default()
    };
    let plan_for = |g: &Graph| {
        let p = HashPartitioner.partition(g, cluster.num_workers());
        CyclopsPlan::build_parallel_with_threshold(g, &p, threshold)
    };
    let mut h = Fold(Vec::new());
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
    digest_bytes(&h.0)
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

fn cells() -> Vec<(String, u64)> {
    let clusters = [
        ("flat(2,1)", ClusterSpec::flat(2, 1)),
        ("flat(3,2)", ClusterSpec::flat(3, 2)),
        ("mt(2,3,2)", ClusterSpec::mt(2, 3, 2)),
    ];
    let scheds = [("static", Sched::Static), ("dynamic", Sched::Dynamic)];
    let rmat = Dataset::GWeb.generate_scaled(0.02, 11);
    let road = Dataset::RoadCa.generate_scaled(0.02, 7);
    let mut out = Vec::new();
    for workload in WORKLOADS {
        for (cname, cluster) in clusters {
            for (sname, sched) in scheds {
                for threshold in [0u32, 2, 8] {
                    out.push((
                        format!("{workload}/{cname}/{sname}/t{threshold}"),
                        digest_cell((&rmat, &road), workload, cluster, sched, threshold),
                    ));
                }
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
            .all(|((name, digest), (ename, edigest))| name == ename && digest == edigest);
    if !matches {
        let mut table = String::new();
        for (name, digest) in &actual {
            let stale = EXPECTED
                .iter()
                .find(|(n, _)| n == name)
                .is_some_and(|(_, d)| d != digest);
            table.push_str(&format!(
                "    (\"{name}\", {digest:#018x}),{}\n",
                if stale { " // CHANGED" } else { "" }
            ));
        }
        panic!("engine digests diverge from the captured constants; actual table:\n{table}");
    }
}

/// `(cell, digest)` captured at the parent commit (see the module docs).
const EXPECTED: &[(&str, u64)] = &[
    ("pr/flat(2,1)/static/t0", 0xb7b2d81f221e71e1),
    ("pr/flat(2,1)/static/t2", 0x394ee508730885a1),
    ("pr/flat(2,1)/static/t8", 0x023d3c1cfd964787),
    ("pr/flat(2,1)/dynamic/t0", 0xb7b2d81f221e71e1),
    ("pr/flat(2,1)/dynamic/t2", 0x394ee508730885a1),
    ("pr/flat(2,1)/dynamic/t8", 0x023d3c1cfd964787),
    ("pr/flat(3,2)/static/t0", 0x26fdaa2b4266f3ea),
    ("pr/flat(3,2)/static/t2", 0xd3118f335868994b),
    ("pr/flat(3,2)/static/t8", 0x6237bd4708d11bf3),
    ("pr/flat(3,2)/dynamic/t0", 0x26fdaa2b4266f3ea),
    ("pr/flat(3,2)/dynamic/t2", 0xd3118f335868994b),
    ("pr/flat(3,2)/dynamic/t8", 0x6237bd4708d11bf3),
    ("pr/mt(2,3,2)/static/t0", 0xb7b2d81f221e71e1),
    ("pr/mt(2,3,2)/static/t2", 0x394ee508730885a1),
    ("pr/mt(2,3,2)/static/t8", 0x023d3c1cfd964787),
    ("pr/mt(2,3,2)/dynamic/t0", 0xb7b2d81f221e71e1),
    ("pr/mt(2,3,2)/dynamic/t2", 0x394ee508730885a1),
    ("pr/mt(2,3,2)/dynamic/t8", 0x023d3c1cfd964787),
    ("pr-prop/flat(2,1)/static/t0", 0xa5a1798ac0283e91),
    ("pr-prop/flat(2,1)/static/t2", 0x850c9754be818777),
    ("pr-prop/flat(2,1)/static/t8", 0x9c7442f086d8e415),
    ("pr-prop/flat(2,1)/dynamic/t0", 0xa5a1798ac0283e91),
    ("pr-prop/flat(2,1)/dynamic/t2", 0x850c9754be818777),
    ("pr-prop/flat(2,1)/dynamic/t8", 0x9c7442f086d8e415),
    ("pr-prop/flat(3,2)/static/t0", 0xca85f3be059c88b7),
    ("pr-prop/flat(3,2)/static/t2", 0xe4a05570feb6a18f),
    ("pr-prop/flat(3,2)/static/t8", 0x04ff377af8386a16),
    ("pr-prop/flat(3,2)/dynamic/t0", 0xca85f3be059c88b7),
    ("pr-prop/flat(3,2)/dynamic/t2", 0xe4a05570feb6a18f),
    ("pr-prop/flat(3,2)/dynamic/t8", 0x04ff377af8386a16),
    ("pr-prop/mt(2,3,2)/static/t0", 0xa5a1798ac0283e91),
    ("pr-prop/mt(2,3,2)/static/t2", 0x850c9754be818777),
    ("pr-prop/mt(2,3,2)/static/t8", 0x9c7442f086d8e415),
    ("pr-prop/mt(2,3,2)/dynamic/t0", 0xa5a1798ac0283e91),
    ("pr-prop/mt(2,3,2)/dynamic/t2", 0x850c9754be818777),
    ("pr-prop/mt(2,3,2)/dynamic/t8", 0x9c7442f086d8e415),
    ("sssp/flat(2,1)/static/t0", 0x80de1f1fbca3a0ac),
    ("sssp/flat(2,1)/static/t2", 0x80de1f1fbca3a0ac),
    ("sssp/flat(2,1)/static/t8", 0x8f425036e9dedc3a),
    ("sssp/flat(2,1)/dynamic/t0", 0x80de1f1fbca3a0ac),
    ("sssp/flat(2,1)/dynamic/t2", 0x80de1f1fbca3a0ac),
    ("sssp/flat(2,1)/dynamic/t8", 0x8f425036e9dedc3a),
    ("sssp/flat(3,2)/static/t0", 0x5fc20ee00a3f56bb),
    ("sssp/flat(3,2)/static/t2", 0x5fc20ee00a3f56bb),
    ("sssp/flat(3,2)/static/t8", 0x1d625300c8d58158),
    ("sssp/flat(3,2)/dynamic/t0", 0x5fc20ee00a3f56bb),
    ("sssp/flat(3,2)/dynamic/t2", 0x5fc20ee00a3f56bb),
    ("sssp/flat(3,2)/dynamic/t8", 0x1d625300c8d58158),
    ("sssp/mt(2,3,2)/static/t0", 0x80de1f1fbca3a0ac),
    ("sssp/mt(2,3,2)/static/t2", 0x80de1f1fbca3a0ac),
    ("sssp/mt(2,3,2)/static/t8", 0x8f425036e9dedc3a),
    ("sssp/mt(2,3,2)/dynamic/t0", 0x80de1f1fbca3a0ac),
    ("sssp/mt(2,3,2)/dynamic/t2", 0x80de1f1fbca3a0ac),
    ("sssp/mt(2,3,2)/dynamic/t8", 0x8f425036e9dedc3a),
    ("cc/flat(2,1)/static/t0", 0xf13a51b550e6e6d9),
    ("cc/flat(2,1)/static/t2", 0xf13a51b550e6e6d9),
    ("cc/flat(2,1)/static/t8", 0x9cac90d33df5bd1c),
    ("cc/flat(2,1)/dynamic/t0", 0xf13a51b550e6e6d9),
    ("cc/flat(2,1)/dynamic/t2", 0xf13a51b550e6e6d9),
    ("cc/flat(2,1)/dynamic/t8", 0x9cac90d33df5bd1c),
    ("cc/flat(3,2)/static/t0", 0xb87a057c5c688793),
    ("cc/flat(3,2)/static/t2", 0xb87a057c5c688793),
    ("cc/flat(3,2)/static/t8", 0x6edbcbe6926fe996),
    ("cc/flat(3,2)/dynamic/t0", 0xb87a057c5c688793),
    ("cc/flat(3,2)/dynamic/t2", 0xb87a057c5c688793),
    ("cc/flat(3,2)/dynamic/t8", 0x6edbcbe6926fe996),
    ("cc/mt(2,3,2)/static/t0", 0xf13a51b550e6e6d9),
    ("cc/mt(2,3,2)/static/t2", 0xf13a51b550e6e6d9),
    ("cc/mt(2,3,2)/static/t8", 0x9cac90d33df5bd1c),
    ("cc/mt(2,3,2)/dynamic/t0", 0xf13a51b550e6e6d9),
    ("cc/mt(2,3,2)/dynamic/t2", 0xf13a51b550e6e6d9),
    ("cc/mt(2,3,2)/dynamic/t8", 0x9cac90d33df5bd1c),
    ("bucket/flat(2,1)/static/t0", 0x408a569c227cea0a),
    ("bucket/flat(2,1)/static/t2", 0x408a569c227cea0a),
    ("bucket/flat(2,1)/static/t8", 0xa3a2dd0dab787ce5),
    ("bucket/flat(2,1)/dynamic/t0", 0x408a569c227cea0a),
    ("bucket/flat(2,1)/dynamic/t2", 0x408a569c227cea0a),
    ("bucket/flat(2,1)/dynamic/t8", 0xa3a2dd0dab787ce5),
    ("bucket/flat(3,2)/static/t0", 0x744663616b13aba7),
    ("bucket/flat(3,2)/static/t2", 0x744663616b13aba7),
    ("bucket/flat(3,2)/static/t8", 0x1e581965e8aa197d),
    ("bucket/flat(3,2)/dynamic/t0", 0x744663616b13aba7),
    ("bucket/flat(3,2)/dynamic/t2", 0x744663616b13aba7),
    ("bucket/flat(3,2)/dynamic/t8", 0x1e581965e8aa197d),
    ("bucket/mt(2,3,2)/static/t0", 0x408a569c227cea0a),
    ("bucket/mt(2,3,2)/static/t2", 0x408a569c227cea0a),
    ("bucket/mt(2,3,2)/static/t8", 0xa3a2dd0dab787ce5),
    ("bucket/mt(2,3,2)/dynamic/t0", 0x408a569c227cea0a),
    ("bucket/mt(2,3,2)/dynamic/t2", 0x408a569c227cea0a),
    ("bucket/mt(2,3,2)/dynamic/t8", 0xa3a2dd0dab787ce5),
    ("bucket-adapt/flat(2,1)/static/t0", 0x17a6b21570482b95),
    ("bucket-adapt/flat(2,1)/static/t2", 0x17a6b21570482b95),
    ("bucket-adapt/flat(2,1)/static/t8", 0x898c841d734b5080),
    ("bucket-adapt/flat(2,1)/dynamic/t0", 0x17a6b21570482b95),
    ("bucket-adapt/flat(2,1)/dynamic/t2", 0x17a6b21570482b95),
    ("bucket-adapt/flat(2,1)/dynamic/t8", 0x898c841d734b5080),
    ("bucket-adapt/flat(3,2)/static/t0", 0xa0b236f41a61b76f),
    ("bucket-adapt/flat(3,2)/static/t2", 0xa0b236f41a61b76f),
    ("bucket-adapt/flat(3,2)/static/t8", 0x261f659a554bba52),
    ("bucket-adapt/flat(3,2)/dynamic/t0", 0xa0b236f41a61b76f),
    ("bucket-adapt/flat(3,2)/dynamic/t2", 0xa0b236f41a61b76f),
    ("bucket-adapt/flat(3,2)/dynamic/t8", 0x261f659a554bba52),
    ("bucket-adapt/mt(2,3,2)/static/t0", 0x17a6b21570482b95),
    ("bucket-adapt/mt(2,3,2)/static/t2", 0x17a6b21570482b95),
    ("bucket-adapt/mt(2,3,2)/static/t8", 0x898c841d734b5080),
    ("bucket-adapt/mt(2,3,2)/dynamic/t0", 0x17a6b21570482b95),
    ("bucket-adapt/mt(2,3,2)/dynamic/t2", 0x17a6b21570482b95),
    ("bucket-adapt/mt(2,3,2)/dynamic/t8", 0x898c841d734b5080),
    ("stop-resume/flat(2,1)/static/t0", 0x81caf46258ba0a7b),
    ("stop-resume/flat(2,1)/static/t2", 0xe9d493db7bdd3ddb),
    ("stop-resume/flat(2,1)/static/t8", 0x75397eae2e31af1f),
    ("stop-resume/flat(2,1)/dynamic/t0", 0x81caf46258ba0a7b),
    ("stop-resume/flat(2,1)/dynamic/t2", 0xe9d493db7bdd3ddb),
    ("stop-resume/flat(2,1)/dynamic/t8", 0x75397eae2e31af1f),
    ("stop-resume/flat(3,2)/static/t0", 0x49110b7cf405061f),
    ("stop-resume/flat(3,2)/static/t2", 0xfe1721d119cccf15),
    ("stop-resume/flat(3,2)/static/t8", 0x3fccb0977997ba50),
    ("stop-resume/flat(3,2)/dynamic/t0", 0x49110b7cf405061f),
    ("stop-resume/flat(3,2)/dynamic/t2", 0xfe1721d119cccf15),
    ("stop-resume/flat(3,2)/dynamic/t8", 0x3fccb0977997ba50),
    ("stop-resume/mt(2,3,2)/static/t0", 0x81caf46258ba0a7b),
    ("stop-resume/mt(2,3,2)/static/t2", 0xe9d493db7bdd3ddb),
    ("stop-resume/mt(2,3,2)/static/t8", 0x75397eae2e31af1f),
    ("stop-resume/mt(2,3,2)/dynamic/t0", 0x81caf46258ba0a7b),
    ("stop-resume/mt(2,3,2)/dynamic/t2", 0xe9d493db7bdd3ddb),
    ("stop-resume/mt(2,3,2)/dynamic/t8", 0x75397eae2e31af1f),
];
