//! Cross-commit oracle for the vertex kernels in `cyclops-algos`: the label
//! mode of community detection, the k-core h-index and the ALS normal
//! equations.
//!
//! `engine_oracle.rs` and `baseline_oracle.rs` pin what the engines do
//! around a program; this test pins what the programs compute. Each cell
//! runs one kernel on a small fixed input, folds the run's superstep count
//! and the bits of every final value into one FNV-1a digest
//! ([`digest_bytes`]), and compares it with [`EXPECTED`]. A kernel rewrite
//! that changes a label tie-break, the order of a floating-point sum or the
//! weight a parallel edge contributes moves a digest.
//!
//! Cells: CD on Cyclops `flat(2,1)` and `mt(1,2,2)` and on Hama; ALS on
//! Cyclops, on Hama (sharded inbox: the solve sums messages in arrival
//! order) and `reference_als`, over SYN-GL and over a hand-made graph with
//! parallel ratings; k-core on Cyclops `flat(2,1)` and `mt(1,2,2)`. The
//! constants were captured, in debug and release, at the commit before the
//! label mode lost its hash map and the Gram update its upper triangle.
//!
//! To re-capture after an intended behaviour change, run the test and paste
//! the table it prints.

use cyclops::prelude::*;
use cyclops_algos::als::{reference_als, AlsParams, BspAls, CyclopsAls};
use cyclops_algos::cd::{BspCommunityDetection, CyclopsCommunityDetection};
use cyclops_algos::kcore::CyclopsKCore;
use cyclops_bsp::{run_bsp, BspConfig};
use cyclops_engine::CyclopsProgram;
use cyclops_net::trace::digest_bytes;
use cyclops_net::InboxMode;

/// Little-endian words of one cell, digested once the cell is complete.
#[derive(Default)]
struct Fold(Vec<u8>);

impl Fold {
    fn word(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    fn labels(&mut self, values: &[u32]) {
        self.word(values.len() as u64);
        for &v in values {
            self.word(u64::from(v));
        }
    }

    fn factors(&mut self, values: &[Vec<f64>]) {
        self.word(values.len() as u64);
        for f in values {
            self.word(f.len() as u64);
            for x in f {
                self.word(x.to_bits());
            }
        }
    }
}

fn cyclops<P: CyclopsProgram>(
    program: &P,
    g: &Graph,
    cluster: ClusterSpec,
    max_supersteps: usize,
) -> (usize, Vec<P::Value>) {
    let p = HashPartitioner.partition(g, cluster.num_workers());
    let config = CyclopsConfig {
        cluster,
        max_supersteps,
        ..Default::default()
    };
    let r = run_cyclops(program, g, &p, &config);
    (r.supersteps, r.values)
}

fn hama_config(max_supersteps: usize) -> BspConfig {
    BspConfig {
        cluster: ClusterSpec::flat(2, 1),
        max_supersteps,
        inbox: InboxMode::Sharded,
        ..Default::default()
    }
}

/// Two users, three items, and every user rating one item twice with
/// different weights: Hama's per-message rating lookup must keep the last
/// in-edge of a pair, the other two sum both.
fn parallel_ratings() -> (Graph, AlsParams) {
    let mut b = GraphBuilder::new(5);
    for &(u, i, r) in &[
        (0, 2, 4.0),
        (0, 3, 1.0),
        (0, 3, 5.0),
        (1, 3, 2.0),
        (1, 4, 3.0),
        (1, 4, 0.5),
        (0, 4, 2.5),
    ] {
        b.add_weighted_edge(u, i, r);
        b.add_weighted_edge(i, u, r);
    }
    let params = AlsParams {
        users: 2,
        dim: 3,
        lambda: 0.05,
    };
    (b.build(), params)
}

const CD_SWEEPS: usize = 10;
const ALS_ITERATIONS: usize = 3;

fn cells() -> Vec<(String, u64)> {
    // DBLP's stand-in is symmetric, as k-core needs.
    let dblp = Dataset::Dblp.generate_scaled(0.25, 7);
    let syngl = Dataset::SynGl.generate_scaled(0.1, 5);
    let syngl_params = AlsParams {
        users: Dataset::SynGl.bipartite_users_at(0.1).unwrap(),
        dim: 8,
        lambda: 0.05,
    };
    let parallel = parallel_ratings();
    let flat = ClusterSpec::flat(2, 1);
    let mt = ClusterSpec::mt(1, 2, 2);

    let mut out = Vec::new();
    let mut cell = |name: String, fill: &dyn Fn(&mut Fold)| {
        let mut h = Fold::default();
        fill(&mut h);
        out.push((name, digest_bytes(&h.0)));
    };
    for (name, cluster) in [("cd/cyclops/flat(2,1)", flat), ("cd/cyclops/mt(1,2,2)", mt)] {
        cell(name.into(), &|h| {
            let (steps, values) = cyclops(&CyclopsCommunityDetection, &dblp, cluster, CD_SWEEPS);
            h.word(steps as u64);
            h.labels(&values);
        });
    }
    cell("cd/hama/flat(2,1)".into(), &|h| {
        let p = HashPartitioner.partition(&dblp, 2);
        let r = run_bsp(
            &BspCommunityDetection,
            &dblp,
            &p,
            &hama_config(CD_SWEEPS + 1),
        );
        h.word(r.supersteps as u64);
        h.labels(&r.values);
    });
    for (input, g, params) in [
        ("syngl", &syngl, syngl_params),
        ("parallel", &parallel.0, parallel.1),
    ] {
        let name = |engine: &str| format!("als-{input}/{engine}");
        cell(name("cyclops/flat(2,1)"), &|h| {
            let program = CyclopsAls { params };
            let (steps, values) = cyclops(&program, g, flat, ALS_ITERATIONS * 2);
            h.word(steps as u64);
            h.factors(&values);
        });
        cell(name("hama/flat(2,1)"), &|h| {
            let p = HashPartitioner.partition(g, 2);
            let config = hama_config(ALS_ITERATIONS * 2 + 1);
            let r = run_bsp(&BspAls { params }, g, &p, &config);
            h.word(r.supersteps as u64);
            h.factors(&r.values);
        });
        cell(name("reference"), &|h| {
            h.factors(&reference_als(g, params, ALS_ITERATIONS));
        });
    }
    for (name, cluster) in [
        ("kcore/cyclops/flat(2,1)", flat),
        ("kcore/cyclops/mt(1,2,2)", mt),
    ] {
        cell(name.into(), &|h| {
            let (steps, values) = cyclops(&CyclopsKCore, &dblp, cluster, 100_000);
            h.word(steps as u64);
            h.labels(&values);
        });
    }
    out
}

#[test]
fn vertex_kernels_match_the_parent_commit() {
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
                _ => "",
            };
            table.push_str(&format!("    (\"{name}\", {digest:#018x}),{moved}\n"));
        }
        panic!("kernel digests diverge from the captured constants; actual table:\n{table}");
    }
}

/// `(cell, digest)`, captured as the module docs say.
#[rustfmt::skip] // one cell per line, as the failing test prints them
const EXPECTED: &[(&str, u64)] = &[
    ("cd/cyclops/flat(2,1)", 0x092e216d16627cb4),
    ("cd/cyclops/mt(1,2,2)", 0x092e216d16627cb4),
    ("cd/hama/flat(2,1)", 0x33f60e36188b1bb1),
    ("als-syngl/cyclops/flat(2,1)", 0x198f314a6d4b897e),
    ("als-syngl/hama/flat(2,1)", 0xb05f467fc7471b75),
    ("als-syngl/reference", 0xeaeb55f176c91fa4),
    ("als-parallel/cyclops/flat(2,1)", 0x3a363fdd158dd1cb),
    ("als-parallel/hama/flat(2,1)", 0xeb28b48dfaa72ee4),
    ("als-parallel/reference", 0xe562aa53de3950c1),
    ("kcore/cyclops/flat(2,1)", 0x6761930f8089991b),
    ("kcore/cyclops/mt(1,2,2)", 0x6761930f8089991b),
];
