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
//! column of every values-mode trace record plus the run's results into two
//! FNV-1a digests per cell, and compares them with [`EXPECTED`]. Phase
//! durations are the only columns left out.
//!
//! The `values` digest covers everything a change of wire framing must leave
//! alone: frontier, computed, activated, drained, message counts (per record,
//! per destination and per superstep), `direct_messages`, checkpoint and
//! bucket columns, aggregates, publication digests and the final values. Its
//! constants were captured by running this file at the commit *before* view
//! updates got one framing (`21f0a30`), where the single digest of all the
//! words in their old order still equalled the table captured before the
//! phases were unified (PR 12, `283582a`). The `traffic` digest covers what
//! such a change moves — `bytes`, `wire_dense` and `wire_sparse` per record and
//! per destination, `stats[].bytes_sent`, `counters.bytes` — and is captured at
//! the commit that intends the move.
//!
//! To re-capture after an intended behaviour change, run the test and paste
//! the table it prints; a `VALUES CHANGED` mark is a change of results.

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
        self.value(u64::from(r.sparse_fast_path));
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
    sched: Sched,
    threshold: u32,
) -> [u64; 2] {
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
    ("pr/flat(2,1)/static/t0", 0x2c08807de1a5a059, 0xc686141cf6451460),
    ("pr/flat(2,1)/static/t2", 0xe7973bdb26d128d5, 0x3b070acf17730483),
    ("pr/flat(2,1)/static/t8", 0x69c8cd9e61a055a4, 0x67f6809a63b7ba87),
    ("pr/flat(2,1)/dynamic/t0", 0x2c08807de1a5a059, 0xc686141cf6451460),
    ("pr/flat(2,1)/dynamic/t2", 0xe7973bdb26d128d5, 0x3b070acf17730483),
    ("pr/flat(2,1)/dynamic/t8", 0x69c8cd9e61a055a4, 0x67f6809a63b7ba87),
    ("pr/flat(3,2)/static/t0", 0x4aa46423476b3779, 0x07d49fcd3f38c7e1),
    ("pr/flat(3,2)/static/t2", 0xea4df2db8709094f, 0x4b2802bf32f62d1a),
    ("pr/flat(3,2)/static/t8", 0xff0ce88650082cfa, 0x5f8ecb32f2514088),
    ("pr/flat(3,2)/dynamic/t0", 0x4aa46423476b3779, 0x07d49fcd3f38c7e1),
    ("pr/flat(3,2)/dynamic/t2", 0xea4df2db8709094f, 0x4b2802bf32f62d1a),
    ("pr/flat(3,2)/dynamic/t8", 0xff0ce88650082cfa, 0x5f8ecb32f2514088),
    ("pr/mt(2,3,2)/static/t0", 0x2c08807de1a5a059, 0xc686141cf6451460),
    ("pr/mt(2,3,2)/static/t2", 0xe7973bdb26d128d5, 0x3b070acf17730483),
    ("pr/mt(2,3,2)/static/t8", 0x69c8cd9e61a055a4, 0x67f6809a63b7ba87),
    ("pr/mt(2,3,2)/dynamic/t0", 0x2c08807de1a5a059, 0xc686141cf6451460),
    ("pr/mt(2,3,2)/dynamic/t2", 0xe7973bdb26d128d5, 0x3b070acf17730483),
    ("pr/mt(2,3,2)/dynamic/t8", 0x69c8cd9e61a055a4, 0x67f6809a63b7ba87),
    ("pr-prop/flat(2,1)/static/t0", 0x6b67fa8fdbd60ccc, 0x1494d6437f9c1d4d),
    ("pr-prop/flat(2,1)/static/t2", 0x10a3507013e4f8c8, 0x02f559ac485520a5),
    ("pr-prop/flat(2,1)/static/t8", 0xf72478792dd71f31, 0x09daffedff76653f),
    ("pr-prop/flat(2,1)/dynamic/t0", 0x6b67fa8fdbd60ccc, 0x1494d6437f9c1d4d),
    ("pr-prop/flat(2,1)/dynamic/t2", 0x10a3507013e4f8c8, 0x02f559ac485520a5),
    ("pr-prop/flat(2,1)/dynamic/t8", 0xf72478792dd71f31, 0x09daffedff76653f),
    ("pr-prop/flat(3,2)/static/t0", 0x01cb2e299f6c10f3, 0x159d57789082fbe3),
    ("pr-prop/flat(3,2)/static/t2", 0x62af03d64247e8bd, 0xb71ef6fc984a0a14),
    ("pr-prop/flat(3,2)/static/t8", 0xf88fb2115a2d4e4e, 0xf7175a42639ccb87),
    ("pr-prop/flat(3,2)/dynamic/t0", 0x01cb2e299f6c10f3, 0x159d57789082fbe3),
    ("pr-prop/flat(3,2)/dynamic/t2", 0x62af03d64247e8bd, 0xb71ef6fc984a0a14),
    ("pr-prop/flat(3,2)/dynamic/t8", 0xf88fb2115a2d4e4e, 0xf7175a42639ccb87),
    ("pr-prop/mt(2,3,2)/static/t0", 0x6b67fa8fdbd60ccc, 0x1494d6437f9c1d4d),
    ("pr-prop/mt(2,3,2)/static/t2", 0x10a3507013e4f8c8, 0x02f559ac485520a5),
    ("pr-prop/mt(2,3,2)/static/t8", 0xf72478792dd71f31, 0x09daffedff76653f),
    ("pr-prop/mt(2,3,2)/dynamic/t0", 0x6b67fa8fdbd60ccc, 0x1494d6437f9c1d4d),
    ("pr-prop/mt(2,3,2)/dynamic/t2", 0x10a3507013e4f8c8, 0x02f559ac485520a5),
    ("pr-prop/mt(2,3,2)/dynamic/t8", 0xf72478792dd71f31, 0x09daffedff76653f),
    ("sssp/flat(2,1)/static/t0", 0x3c4f8494508a12a9, 0x2cdfdafa25514c34),
    ("sssp/flat(2,1)/static/t2", 0x3c4f8494508a12a9, 0x2cdfdafa25514c34),
    ("sssp/flat(2,1)/static/t8", 0x9c91e04fab28a0cd, 0x752d2c310f5380e5),
    ("sssp/flat(2,1)/dynamic/t0", 0x3c4f8494508a12a9, 0x2cdfdafa25514c34),
    ("sssp/flat(2,1)/dynamic/t2", 0x3c4f8494508a12a9, 0x2cdfdafa25514c34),
    ("sssp/flat(2,1)/dynamic/t8", 0x9c91e04fab28a0cd, 0x752d2c310f5380e5),
    ("sssp/flat(3,2)/static/t0", 0x49a5ce443c37a079, 0x829d6714ded08d0f),
    ("sssp/flat(3,2)/static/t2", 0x49a5ce443c37a079, 0x829d6714ded08d0f),
    ("sssp/flat(3,2)/static/t8", 0x2e794073fb1489a1, 0x41784d289fb1f4bd),
    ("sssp/flat(3,2)/dynamic/t0", 0x49a5ce443c37a079, 0x829d6714ded08d0f),
    ("sssp/flat(3,2)/dynamic/t2", 0x49a5ce443c37a079, 0x829d6714ded08d0f),
    ("sssp/flat(3,2)/dynamic/t8", 0x2e794073fb1489a1, 0x41784d289fb1f4bd),
    ("sssp/mt(2,3,2)/static/t0", 0x3c4f8494508a12a9, 0x2cdfdafa25514c34),
    ("sssp/mt(2,3,2)/static/t2", 0x3c4f8494508a12a9, 0x2cdfdafa25514c34),
    ("sssp/mt(2,3,2)/static/t8", 0x9c91e04fab28a0cd, 0x752d2c310f5380e5),
    ("sssp/mt(2,3,2)/dynamic/t0", 0x3c4f8494508a12a9, 0x2cdfdafa25514c34),
    ("sssp/mt(2,3,2)/dynamic/t2", 0x3c4f8494508a12a9, 0x2cdfdafa25514c34),
    ("sssp/mt(2,3,2)/dynamic/t8", 0x9c91e04fab28a0cd, 0x752d2c310f5380e5),
    ("cc/flat(2,1)/static/t0", 0x81b876d85cb65e63, 0x290ce93109ff48d6),
    ("cc/flat(2,1)/static/t2", 0x81b876d85cb65e63, 0x290ce93109ff48d6),
    ("cc/flat(2,1)/static/t8", 0x4903a36a33c62548, 0x664ed4279476229d),
    ("cc/flat(2,1)/dynamic/t0", 0x81b876d85cb65e63, 0x290ce93109ff48d6),
    ("cc/flat(2,1)/dynamic/t2", 0x81b876d85cb65e63, 0x290ce93109ff48d6),
    ("cc/flat(2,1)/dynamic/t8", 0x4903a36a33c62548, 0x664ed4279476229d),
    ("cc/flat(3,2)/static/t0", 0xe914ea9fc9a93ace, 0xdc8e8bd49c9458bc),
    ("cc/flat(3,2)/static/t2", 0xe914ea9fc9a93ace, 0xdc8e8bd49c9458bc),
    ("cc/flat(3,2)/static/t8", 0x5f276dc682207890, 0xf07ca833ca35c0a1),
    ("cc/flat(3,2)/dynamic/t0", 0xe914ea9fc9a93ace, 0xdc8e8bd49c9458bc),
    ("cc/flat(3,2)/dynamic/t2", 0xe914ea9fc9a93ace, 0xdc8e8bd49c9458bc),
    ("cc/flat(3,2)/dynamic/t8", 0x5f276dc682207890, 0xf07ca833ca35c0a1),
    ("cc/mt(2,3,2)/static/t0", 0x81b876d85cb65e63, 0x290ce93109ff48d6),
    ("cc/mt(2,3,2)/static/t2", 0x81b876d85cb65e63, 0x290ce93109ff48d6),
    ("cc/mt(2,3,2)/static/t8", 0x4903a36a33c62548, 0x664ed4279476229d),
    ("cc/mt(2,3,2)/dynamic/t0", 0x81b876d85cb65e63, 0x290ce93109ff48d6),
    ("cc/mt(2,3,2)/dynamic/t2", 0x81b876d85cb65e63, 0x290ce93109ff48d6),
    ("cc/mt(2,3,2)/dynamic/t8", 0x4903a36a33c62548, 0x664ed4279476229d),
    ("bucket/flat(2,1)/static/t0", 0xcc34634ddd5194b9, 0x9bb8207c48dbc899),
    ("bucket/flat(2,1)/static/t2", 0xcc34634ddd5194b9, 0x9bb8207c48dbc899),
    ("bucket/flat(2,1)/static/t8", 0x62b2841bcbdca8a7, 0x738519963775e260),
    ("bucket/flat(2,1)/dynamic/t0", 0xcc34634ddd5194b9, 0x9bb8207c48dbc899),
    ("bucket/flat(2,1)/dynamic/t2", 0xcc34634ddd5194b9, 0x9bb8207c48dbc899),
    ("bucket/flat(2,1)/dynamic/t8", 0x62b2841bcbdca8a7, 0x738519963775e260),
    ("bucket/flat(3,2)/static/t0", 0x8ed998bf42dcd078, 0x4e10f2d96dd09d89),
    ("bucket/flat(3,2)/static/t2", 0x8ed998bf42dcd078, 0x4e10f2d96dd09d89),
    ("bucket/flat(3,2)/static/t8", 0xb9721e0703b97427, 0xda178bb6a09b80a1),
    ("bucket/flat(3,2)/dynamic/t0", 0x8ed998bf42dcd078, 0x4e10f2d96dd09d89),
    ("bucket/flat(3,2)/dynamic/t2", 0x8ed998bf42dcd078, 0x4e10f2d96dd09d89),
    ("bucket/flat(3,2)/dynamic/t8", 0xb9721e0703b97427, 0xda178bb6a09b80a1),
    ("bucket/mt(2,3,2)/static/t0", 0xcc34634ddd5194b9, 0x9bb8207c48dbc899),
    ("bucket/mt(2,3,2)/static/t2", 0xcc34634ddd5194b9, 0x9bb8207c48dbc899),
    ("bucket/mt(2,3,2)/static/t8", 0x62b2841bcbdca8a7, 0x738519963775e260),
    ("bucket/mt(2,3,2)/dynamic/t0", 0xcc34634ddd5194b9, 0x9bb8207c48dbc899),
    ("bucket/mt(2,3,2)/dynamic/t2", 0xcc34634ddd5194b9, 0x9bb8207c48dbc899),
    ("bucket/mt(2,3,2)/dynamic/t8", 0x62b2841bcbdca8a7, 0x738519963775e260),
    ("bucket-adapt/flat(2,1)/static/t0", 0x9127ec9cd416dd84, 0x29fde6ab85c752de),
    ("bucket-adapt/flat(2,1)/static/t2", 0x9127ec9cd416dd84, 0x29fde6ab85c752de),
    ("bucket-adapt/flat(2,1)/static/t8", 0xddb8fc33ca71dcf2, 0x81336b076f50271b),
    ("bucket-adapt/flat(2,1)/dynamic/t0", 0x9127ec9cd416dd84, 0x29fde6ab85c752de),
    ("bucket-adapt/flat(2,1)/dynamic/t2", 0x9127ec9cd416dd84, 0x29fde6ab85c752de),
    ("bucket-adapt/flat(2,1)/dynamic/t8", 0xddb8fc33ca71dcf2, 0x81336b076f50271b),
    ("bucket-adapt/flat(3,2)/static/t0", 0x6358251f80636fb1, 0xa0dfd518c3ecd927),
    ("bucket-adapt/flat(3,2)/static/t2", 0x6358251f80636fb1, 0xa0dfd518c3ecd927),
    ("bucket-adapt/flat(3,2)/static/t8", 0xe5946e49e794a55b, 0x15819337f3471c51),
    ("bucket-adapt/flat(3,2)/dynamic/t0", 0x6358251f80636fb1, 0xa0dfd518c3ecd927),
    ("bucket-adapt/flat(3,2)/dynamic/t2", 0x6358251f80636fb1, 0xa0dfd518c3ecd927),
    ("bucket-adapt/flat(3,2)/dynamic/t8", 0xe5946e49e794a55b, 0x15819337f3471c51),
    ("bucket-adapt/mt(2,3,2)/static/t0", 0x9127ec9cd416dd84, 0x29fde6ab85c752de),
    ("bucket-adapt/mt(2,3,2)/static/t2", 0x9127ec9cd416dd84, 0x29fde6ab85c752de),
    ("bucket-adapt/mt(2,3,2)/static/t8", 0xddb8fc33ca71dcf2, 0x81336b076f50271b),
    ("bucket-adapt/mt(2,3,2)/dynamic/t0", 0x9127ec9cd416dd84, 0x29fde6ab85c752de),
    ("bucket-adapt/mt(2,3,2)/dynamic/t2", 0x9127ec9cd416dd84, 0x29fde6ab85c752de),
    ("bucket-adapt/mt(2,3,2)/dynamic/t8", 0xddb8fc33ca71dcf2, 0x81336b076f50271b),
    ("stop-resume/flat(2,1)/static/t0", 0x0630d390cdf8a71f, 0x20107e71fd32254d),
    ("stop-resume/flat(2,1)/static/t2", 0xa23ec3453ef8a4ab, 0x88f6a3ed48d80739),
    ("stop-resume/flat(2,1)/static/t8", 0x6a93c9c36f5d4ef6, 0x53bb96f75e11d68e),
    ("stop-resume/flat(2,1)/dynamic/t0", 0x0630d390cdf8a71f, 0x20107e71fd32254d),
    ("stop-resume/flat(2,1)/dynamic/t2", 0xa23ec3453ef8a4ab, 0x88f6a3ed48d80739),
    ("stop-resume/flat(2,1)/dynamic/t8", 0x6a93c9c36f5d4ef6, 0x53bb96f75e11d68e),
    ("stop-resume/flat(3,2)/static/t0", 0xcd245dd258701583, 0x90ba7a4d80a2b1aa),
    ("stop-resume/flat(3,2)/static/t2", 0x8c7e022783cdb431, 0xba8e0b8e6df52d74),
    ("stop-resume/flat(3,2)/static/t8", 0x839b2a5811757a63, 0xeec3476c7f1497fb),
    ("stop-resume/flat(3,2)/dynamic/t0", 0xcd245dd258701583, 0x90ba7a4d80a2b1aa),
    ("stop-resume/flat(3,2)/dynamic/t2", 0x8c7e022783cdb431, 0xba8e0b8e6df52d74),
    ("stop-resume/flat(3,2)/dynamic/t8", 0x839b2a5811757a63, 0xeec3476c7f1497fb),
    ("stop-resume/mt(2,3,2)/static/t0", 0x0630d390cdf8a71f, 0x20107e71fd32254d),
    ("stop-resume/mt(2,3,2)/static/t2", 0xa23ec3453ef8a4ab, 0x88f6a3ed48d80739),
    ("stop-resume/mt(2,3,2)/static/t8", 0x6a93c9c36f5d4ef6, 0x53bb96f75e11d68e),
    ("stop-resume/mt(2,3,2)/dynamic/t0", 0x0630d390cdf8a71f, 0x20107e71fd32254d),
    ("stop-resume/mt(2,3,2)/dynamic/t2", 0xa23ec3453ef8a4ab, 0x88f6a3ed48d80739),
    ("stop-resume/mt(2,3,2)/dynamic/t8", 0x6a93c9c36f5d4ef6, 0x53bb96f75e11d68e),
];
