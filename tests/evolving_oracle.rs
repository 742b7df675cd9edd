//! Cross-commit oracle for evolving runs (`run_cyclops_evolving`).
//!
//! The mutation unit tests and proptests compare an evolving run with a cold
//! run, or an edited plan with a rebuilt one, at one commit. This test is
//! absolute: each cell runs a program over a graph that absorbs four
//! mutation batches, folds every epoch's supersteps, per-superstep counts,
//! counters, ingress sizes, final values and publications into one FNV-1a
//! digest, and compares it with [`EXPECTED`]. The constants were captured at
//! the commit before mutation batches became graph and plan edits
//! (`bb9b701`), where the driver rebuilt both per batch.
//!
//! Cells. {PageRank with closed-walk inserts, PageRank with independent
//! inserts, max-label propagation, SSSP} × {hash cut, a cut that moves a
//! fifth of the owners every batch} × {`flat(2,1)`, `flat(3,2)`,
//! `mt(2,3,2)`} × threshold {0, 2, `u32::MAX`}. The batches are: inserts;
//! removals, with an absent and an out-of-range pair among them (SSSP runs
//! the epoch after them cold); two new vertices with edges to and from
//! them; inserts with one pair both removed and re-added.
//!
//! The independent-insert PageRank cells pin a known defect on purpose: a
//! warm epoch keeps an inserted edge's source publishing against its old
//! out-degree. A fix re-captures them in its own change.
//!
//! To re-capture after an intended behaviour change, run the test and paste
//! the table it prints.

use cyclops::prelude::*;
use cyclops_algos::sssp::CyclopsSssp;
use cyclops_engine::{
    run_cyclops_evolving, CyclopsContext, CyclopsProgram, CyclopsResult, MutationBatch, WarmStart,
};
use cyclops_net::trace::digest_bytes;
use cyclops_partition::EdgeCutPartition;

/// The words of one cell, little-endian, digested with the trace's own
/// FNV-1a ([`digest_bytes`]) once the cell is complete.
#[derive(Default)]
struct Fold(Vec<u8>);

impl Fold {
    fn word(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    /// What one epoch's result carries, wall-clock times left out.
    fn epoch<V: Bits, M: Bits>(&mut self, r: &CyclopsResult<V, M>) {
        self.word(r.supersteps as u64);
        self.word(r.stats.len() as u64);
        for s in &r.stats {
            for x in [
                s.superstep,
                s.active_vertices,
                s.messages_sent,
                s.bytes_sent,
            ] {
                self.word(x as u64);
            }
        }
        self.word(r.counters.messages as u64);
        self.word(r.counters.bytes as u64);
        self.word(r.direct_messages as u64);
        let i = &r.ingress;
        for x in [
            i.total_replicas,
            i.replicated_boundary,
            i.messaged_boundary,
            i.total_direct_slots,
        ] {
            self.word(x as u64);
        }
        self.word(r.values.len() as u64);
        for v in &r.values {
            self.word(v.bits());
        }
        for p in &r.publications {
            match p {
                Some(m) => {
                    self.word(1);
                    self.word(m.bits());
                }
                None => self.word(0),
            }
        }
    }
}

/// Bit pattern of a value or publication, for the digest.
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

/// Pull-mode max-label propagation: a vertex takes the largest label among
/// its in-neighbours' publications and republishes when it grows. Labels
/// are scrambled ids, so the winner is not simply the last vertex.
struct MaxLabel;

impl CyclopsProgram for MaxLabel {
    type Value = u32;
    type Message = u32;

    fn init(&self, v: VertexId, _g: &Graph) -> u32 {
        v.wrapping_mul(2_654_435_761) >> 8
    }

    fn init_message(&self, _v: VertexId, _g: &Graph, value: &u32) -> Option<u32> {
        Some(*value)
    }

    fn compute(&self, ctx: &mut CyclopsContext<'_, u32, u32>) {
        let mut best = *ctx.value();
        for (m, _) in ctx.in_messages() {
            best = best.max(*m);
        }
        if best > *ctx.value() {
            ctx.set_value(best);
            ctx.activate_neighbors(best);
        }
    }
}

/// A xorshift stream, so the batches depend on nothing but the graph.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn vertex(&mut self, n: usize) -> VertexId {
        self.below(n) as VertexId
    }
}

/// The four batches of a cell; `walk` makes each insert batch one closed
/// walk over random vertices instead of independent pairs.
fn batches(g: &Graph, walk: bool, cold_after_removals: bool) -> Vec<(MutationBatch, WarmStart)> {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let n = g.num_vertices();
    let weighted = g.is_weighted();
    let edges: Vec<(VertexId, VertexId)> = g.edges().map(|(s, t, _)| (s, t)).collect();
    let weight = |rng: &mut Rng| weighted.then(|| 1.0 + rng.below(8) as f64);
    let inserts = |rng: &mut Rng, n: usize, count: usize| {
        let mut out = Vec::with_capacity(count);
        if walk {
            let stops: Vec<VertexId> = (0..count).map(|_| rng.vertex(n)).collect();
            for (i, &s) in stops.iter().enumerate() {
                out.push((s, stops[(i + 1) % count], weight(rng)));
            }
        } else {
            for _ in 0..count {
                let (s, t) = (rng.vertex(n), rng.vertex(n));
                out.push((s, t, weight(rng)));
            }
        }
        out
    };

    let first = MutationBatch {
        add_edges: inserts(&mut rng, n, 12),
        ..Default::default()
    };
    let mut remove_edges: Vec<(VertexId, VertexId)> =
        (0..6).map(|_| edges[rng.below(edges.len())]).collect();
    remove_edges.push((n as VertexId + 50, 1));
    remove_edges.push((rng.vertex(n), rng.vertex(n)));
    let removals = MutationBatch {
        remove_edges,
        ..Default::default()
    };
    let (a, b) = (n as VertexId, n as VertexId + 1);
    let mut grow = vec![(a, rng.vertex(n), weight(&mut rng))];
    grow.push((rng.vertex(n), a, weight(&mut rng)));
    grow.push((b, a, weight(&mut rng)));
    grow.push((rng.vertex(n), b, weight(&mut rng)));
    grow.push((a, rng.vertex(n), weight(&mut rng)));
    let growth = MutationBatch {
        add_vertices: 2,
        add_edges: grow,
        ..Default::default()
    };
    let (s, t) = edges[rng.below(edges.len())];
    let mut add_edges = inserts(&mut rng, n + 2, 8);
    add_edges.push((s, t, weight(&mut rng)));
    let last = MutationBatch {
        add_edges,
        remove_edges: vec![(s, t)],
        ..Default::default()
    };
    let after_removals = match cold_after_removals {
        true => WarmStart::Cold,
        false => WarmStart::Incremental,
    };
    vec![
        (first, WarmStart::Incremental),
        (removals, after_removals),
        (growth, WarmStart::Incremental),
        (last, WarmStart::Incremental),
    ]
}

/// `v % k`, except the fifth of the vertices the edge count picks, which sit
/// one worker over: every batch changes the edge count, so owners move.
fn shifted_cut(g: &Graph, k: usize) -> EdgeCutPartition {
    let m = g.num_edges() as u32;
    let owner = g
        .vertices()
        .map(|v| (v + u32::from(v % 5 == m % 5)) % k as u32);
    EdgeCutPartition::new(k, owner.collect())
}

fn evolve<P: CyclopsProgram>(
    program: &P,
    graph: &Graph,
    shift: bool,
    config: &CyclopsConfig,
    batches: &[(MutationBatch, WarmStart)],
) -> u64
where
    P::Value: Bits,
    P::Message: Bits,
{
    let k = config.cluster.num_workers();
    let cut = |g: &Graph| match shift {
        true => shifted_cut(g, k),
        false => HashPartitioner.partition(g, k),
    };
    let r = run_cyclops_evolving(program, graph, cut, config, batches);
    let mut h = Fold::default();
    h.word(r.graph.num_vertices() as u64);
    h.word(r.graph.num_edges() as u64);
    h.word(r.epochs.len() as u64);
    for epoch in &r.epochs {
        h.epoch(epoch);
    }
    digest_bytes(&h.0)
}

fn cells() -> Vec<(String, u64)> {
    let rmat = Dataset::GWeb.generate_scaled(0.02, 11);
    let road = Dataset::RoadCa.generate_scaled(0.02, 7);
    let clusters = [
        ("flat(2,1)", ClusterSpec::flat(2, 1)),
        ("flat(3,2)", ClusterSpec::flat(3, 2)),
        ("mt(2,3,2)", ClusterSpec::mt(2, 3, 2)),
    ];
    let pr = CyclopsPageRank { epsilon: 1e-7 };
    let sssp = CyclopsSssp { source: 0 };
    let mut out = Vec::new();
    for program in ["pr-walk", "pr-indep", "max", "sssp"] {
        for (cut, shift) in [("hash", false), ("shift", true)] {
            for (cname, cluster) in clusters {
                for threshold in [0, 2, u32::MAX] {
                    let config = CyclopsConfig {
                        cluster,
                        max_supersteps: 60,
                        replicate_threshold: threshold,
                        ..Default::default()
                    };
                    let digest = match program {
                        "pr-walk" => {
                            evolve(&pr, &rmat, shift, &config, &batches(&rmat, true, false))
                        }
                        "pr-indep" => {
                            evolve(&pr, &rmat, shift, &config, &batches(&rmat, false, false))
                        }
                        "max" => evolve(
                            &MaxLabel,
                            &rmat,
                            shift,
                            &config,
                            &batches(&rmat, false, false),
                        ),
                        _ => evolve(&sssp, &road, shift, &config, &batches(&road, false, true)),
                    };
                    let t = match threshold {
                        u32::MAX => "max".to_string(),
                        t => t.to_string(),
                    };
                    out.push((format!("{program}/{cut}/{cname}/t{t}"), digest));
                }
            }
        }
    }
    out
}

#[test]
fn evolving_runs_match_the_parent_commit() {
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
        panic!("evolving digests diverge from the captured constants; actual table:\n{table}");
    }
}

/// `(cell, digest)`; see the module docs for where they were captured.
#[rustfmt::skip] // one cell per line, as the failing test prints them
const EXPECTED: &[(&str, u64)] = &[
    ("pr-walk/hash/flat(2,1)/t0", 0x347fde2dc48874c5),
    ("pr-walk/hash/flat(2,1)/t2", 0x77d1dd2c9b6acc06),
    ("pr-walk/hash/flat(2,1)/tmax", 0x79105d703b002359),
    ("pr-walk/hash/flat(3,2)/t0", 0x52d759482fcb434e),
    ("pr-walk/hash/flat(3,2)/t2", 0xd19da7a409cc9154),
    ("pr-walk/hash/flat(3,2)/tmax", 0x6580abdb567eca0f),
    ("pr-walk/hash/mt(2,3,2)/t0", 0x347fde2dc48874c5),
    ("pr-walk/hash/mt(2,3,2)/t2", 0x77d1dd2c9b6acc06),
    ("pr-walk/hash/mt(2,3,2)/tmax", 0x79105d703b002359),
    ("pr-walk/shift/flat(2,1)/t0", 0x95694833fd462b87),
    ("pr-walk/shift/flat(2,1)/t2", 0x8f1ecd0062de5406),
    ("pr-walk/shift/flat(2,1)/tmax", 0x4b8a07d9d2876eba),
    ("pr-walk/shift/flat(3,2)/t0", 0x01571cc74ab61bd9),
    ("pr-walk/shift/flat(3,2)/t2", 0x87177fe7bd545e08),
    ("pr-walk/shift/flat(3,2)/tmax", 0xb208d3ccf67e29a6),
    ("pr-walk/shift/mt(2,3,2)/t0", 0x95694833fd462b87),
    ("pr-walk/shift/mt(2,3,2)/t2", 0x8f1ecd0062de5406),
    ("pr-walk/shift/mt(2,3,2)/tmax", 0x4b8a07d9d2876eba),
    ("pr-indep/hash/flat(2,1)/t0", 0x624757f16fbc6f4b),
    ("pr-indep/hash/flat(2,1)/t2", 0x1404caa6dc60064b),
    ("pr-indep/hash/flat(2,1)/tmax", 0xbc1e7f367aed1d41),
    ("pr-indep/hash/flat(3,2)/t0", 0xb9f3fe48a0d4e502),
    ("pr-indep/hash/flat(3,2)/t2", 0x619ae27699ad117b),
    ("pr-indep/hash/flat(3,2)/tmax", 0x41a01a7c266f75df),
    ("pr-indep/hash/mt(2,3,2)/t0", 0x624757f16fbc6f4b),
    ("pr-indep/hash/mt(2,3,2)/t2", 0x1404caa6dc60064b),
    ("pr-indep/hash/mt(2,3,2)/tmax", 0xbc1e7f367aed1d41),
    ("pr-indep/shift/flat(2,1)/t0", 0x737ade67986c3faf),
    ("pr-indep/shift/flat(2,1)/t2", 0x63713971b3da24df),
    ("pr-indep/shift/flat(2,1)/tmax", 0x8c7fc44bd7e4ed83),
    ("pr-indep/shift/flat(3,2)/t0", 0xe5912852ee4b6114),
    ("pr-indep/shift/flat(3,2)/t2", 0x7d0b2d5796aa44b0),
    ("pr-indep/shift/flat(3,2)/tmax", 0xc9d887448dd9596d),
    ("pr-indep/shift/mt(2,3,2)/t0", 0x737ade67986c3faf),
    ("pr-indep/shift/mt(2,3,2)/t2", 0x63713971b3da24df),
    ("pr-indep/shift/mt(2,3,2)/tmax", 0x8c7fc44bd7e4ed83),
    ("max/hash/flat(2,1)/t0", 0x23b8906445094412),
    ("max/hash/flat(2,1)/t2", 0x86824cb6d15e5384),
    ("max/hash/flat(2,1)/tmax", 0x1b0f1de4996aad09),
    ("max/hash/flat(3,2)/t0", 0xa1bb7a9eb75bef88),
    ("max/hash/flat(3,2)/t2", 0x35f35c53aeaeaa76),
    ("max/hash/flat(3,2)/tmax", 0x23d67c335d2ef5f3),
    ("max/hash/mt(2,3,2)/t0", 0x23b8906445094412),
    ("max/hash/mt(2,3,2)/t2", 0x86824cb6d15e5384),
    ("max/hash/mt(2,3,2)/tmax", 0x1b0f1de4996aad09),
    ("max/shift/flat(2,1)/t0", 0x086d874a6dbb09b4),
    ("max/shift/flat(2,1)/t2", 0x055a62cb69f745f2),
    ("max/shift/flat(2,1)/tmax", 0x1b11c2731fc00cdc),
    ("max/shift/flat(3,2)/t0", 0xb22f448417cc0cf9),
    ("max/shift/flat(3,2)/t2", 0xbe232197941695b0),
    ("max/shift/flat(3,2)/tmax", 0x17656de28a5a7b48),
    ("max/shift/mt(2,3,2)/t0", 0x086d874a6dbb09b4),
    ("max/shift/mt(2,3,2)/t2", 0x055a62cb69f745f2),
    ("max/shift/mt(2,3,2)/tmax", 0x1b11c2731fc00cdc),
    ("sssp/hash/flat(2,1)/t0", 0x2d6314c5a75fed1b),
    ("sssp/hash/flat(2,1)/t2", 0x2d6314c5a75fed1b),
    ("sssp/hash/flat(2,1)/tmax", 0xb76cd142de758e2f),
    ("sssp/hash/flat(3,2)/t0", 0xd49e56094f6cdbd7),
    ("sssp/hash/flat(3,2)/t2", 0xd49e56094f6cdbd7),
    ("sssp/hash/flat(3,2)/tmax", 0x7e0563f3197cb3ae),
    ("sssp/hash/mt(2,3,2)/t0", 0x2d6314c5a75fed1b),
    ("sssp/hash/mt(2,3,2)/t2", 0x2d6314c5a75fed1b),
    ("sssp/hash/mt(2,3,2)/tmax", 0xb76cd142de758e2f),
    ("sssp/shift/flat(2,1)/t0", 0x464720781d537603),
    ("sssp/shift/flat(2,1)/t2", 0x464720781d537603),
    ("sssp/shift/flat(2,1)/tmax", 0xf6162e17d91385d4),
    ("sssp/shift/flat(3,2)/t0", 0xe2e2a97c5d8a0663),
    ("sssp/shift/flat(3,2)/t2", 0xe2e2a97c5d8a0663),
    ("sssp/shift/flat(3,2)/tmax", 0x779e0de65be79345),
    ("sssp/shift/mt(2,3,2)/t0", 0x464720781d537603),
    ("sssp/shift/mt(2,3,2)/t2", 0x464720781d537603),
    ("sssp/shift/mt(2,3,2)/tmax", 0xf6162e17d91385d4),
];
