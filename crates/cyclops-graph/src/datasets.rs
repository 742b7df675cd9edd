//! Scaled stand-ins for the seven real-world graphs of the paper's Table 1.
//!
//! The originals (SNAP's Amazon/GoogleWeb/LiveJournal, Haselgrove's Wiki
//! link graph, SYN-GL, DBLP, RoadCA) are not redistributable inside this
//! repository, so each dataset is replaced by a deterministic synthetic graph
//! with the same *shape* — degree distribution, directedness, weights, and
//! bipartite structure — at roughly 1/60 scale by default (see DESIGN.md).
//! Every generator takes an explicit seed; the default seed is the dataset's
//! index so the whole suite is reproducible.
//!
//! | Dataset  | paper `\|V\|` / `\|E\|`      | stand-in                         |
//! |----------|------------------------------|----------------------------------|
//! | Amazon   | 403,394 / 3,387,388          | R-MAT 2^13, 55k edges            |
//! | GWeb     | 875,713 / 5,105,039          | R-MAT 2^14, 95k edges            |
//! | LJournal | 4,847,571 / 69,993,773       | R-MAT 2^15, 400k edges           |
//! | Wiki     | 5,716,808 / 130,160,392      | R-MAT 2^15, 745k edges           |
//! | SYN-GL   | 110,000 / 2,729,572          | bipartite 5000×500, 34k ratings  |
//! | DBLP     | 317,080 / 1,049,866          | symmetrized R-MAT 2^13, 27k dir. |
//! | RoadCA   | 1,965,206 / 5,533,214        | 175×175 lattice, keep 0.75       |

use crate::gen::{bipartite_ratings, rmat, road_lattice, RmatConfig};
use crate::graph::Graph;
use crate::GraphBuilder;

/// The seven evaluation datasets of the paper (Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Amazon co-purchase network (PageRank workload).
    Amazon,
    /// Google web graph (PageRank workload; the motivation figures use it).
    GWeb,
    /// LiveJournal social network (PageRank workload).
    LJournal,
    /// Wikipedia page-link graph — the paper's largest input (PageRank).
    Wiki,
    /// Synthetic users×movies ratings matrix (ALS workload).
    SynGl,
    /// DBLP co-authorship network (community-detection workload).
    Dblp,
    /// California road network with synthetic log-normal weights (SSSP).
    RoadCa,
}

/// Metadata describing a dataset stand-in and its paper-reported original.
#[derive(Clone, Debug)]
pub struct DatasetInfo {
    /// Short name as used in the paper's tables.
    pub name: &'static str,
    /// Vertex count of the original graph reported in Table 1.
    pub paper_vertices: usize,
    /// Edge count of the original graph reported in Table 1.
    pub paper_edges: usize,
    /// For bipartite graphs, the number of left-side (user) vertices.
    pub bipartite_users: Option<usize>,
    /// Whether edges carry weights.
    pub weighted: bool,
    /// The algorithm the paper runs on this graph.
    pub algorithm: &'static str,
}

impl Dataset {
    /// All seven datasets in the paper's table order.
    pub fn all() -> [Dataset; 7] {
        [
            Dataset::Amazon,
            Dataset::GWeb,
            Dataset::LJournal,
            Dataset::Wiki,
            Dataset::SynGl,
            Dataset::Dblp,
            Dataset::RoadCa,
        ]
    }

    /// Default deterministic seed for this dataset.
    pub fn default_seed(&self) -> u64 {
        Dataset::all().iter().position(|d| d == self).unwrap() as u64 + 1
    }

    /// Dataset metadata (names and paper-reported sizes from Table 1).
    pub fn info(&self) -> DatasetInfo {
        match self {
            Dataset::Amazon => DatasetInfo {
                name: "Amazon",
                paper_vertices: 403_394,
                paper_edges: 3_387_388,
                bipartite_users: None,
                weighted: false,
                algorithm: "PageRank",
            },
            Dataset::GWeb => DatasetInfo {
                name: "GWeb",
                paper_vertices: 875_713,
                paper_edges: 5_105_039,
                bipartite_users: None,
                weighted: false,
                algorithm: "PageRank",
            },
            Dataset::LJournal => DatasetInfo {
                name: "LJournal",
                paper_vertices: 4_847_571,
                paper_edges: 69_993_773,
                bipartite_users: None,
                weighted: false,
                algorithm: "PageRank",
            },
            Dataset::Wiki => DatasetInfo {
                name: "Wiki",
                paper_vertices: 5_716_808,
                paper_edges: 130_160_392,
                bipartite_users: None,
                weighted: false,
                algorithm: "PageRank",
            },
            Dataset::SynGl => DatasetInfo {
                name: "SYN-GL",
                paper_vertices: 110_000,
                paper_edges: 2_729_572,
                bipartite_users: Some(5000),
                weighted: true,
                algorithm: "ALS",
            },
            Dataset::Dblp => DatasetInfo {
                name: "DBLP",
                paper_vertices: 317_080,
                paper_edges: 1_049_866,
                bipartite_users: None,
                weighted: false,
                algorithm: "CD",
            },
            Dataset::RoadCa => DatasetInfo {
                name: "RoadCA",
                paper_vertices: 1_965_206,
                paper_edges: 5_533_214,
                bipartite_users: None,
                weighted: true,
                algorithm: "SSSP",
            },
        }
    }

    /// Generates the stand-in at `fraction` of the default scale (edge counts
    /// scale linearly; vertex counts scale to preserve average degree).
    /// `fraction` must be positive; values above 1 grow the graph.
    pub fn generate_scaled(&self, fraction: f64, seed: u64) -> Graph {
        assert!(fraction > 0.0, "scale fraction must be positive");
        let level_shift = fraction.log2().round() as i32;
        let rmat_at = |base_scale: i32, base_edges: usize| -> Graph {
            let scale = (base_scale + level_shift).clamp(6, 24) as u32;
            let edges = ((base_edges as f64 * fraction) as usize).max(64);
            rmat(
                RmatConfig {
                    scale,
                    edges,
                    ..Default::default()
                },
                seed,
            )
        };
        match self {
            Dataset::Amazon => rmat_at(13, 55_000),
            Dataset::GWeb => rmat_at(14, 95_000),
            Dataset::LJournal => rmat_at(15, 400_000),
            Dataset::Wiki => rmat_at(15, 745_000),
            Dataset::SynGl => {
                let users = ((5000.0 * fraction) as usize).max(32);
                let items = ((500.0 * fraction) as usize).max(8);
                let ratings = ((34_000.0 * fraction) as usize).max(128);
                bipartite_ratings(users, items, ratings, 0.9, seed).0
            }
            Dataset::Dblp => {
                // Symmetrize an R-MAT graph: co-authorship is undirected.
                let directed = rmat_at(13, 13_500);
                let mut b = GraphBuilder::new(directed.num_vertices()).dedup(true);
                for (s, t, _) in directed.edges() {
                    b.add_edge(s, t);
                    b.add_edge(t, s);
                }
                b.build()
            }
            Dataset::RoadCa => {
                let side = ((175.0 * fraction.sqrt()) as usize).max(8);
                road_lattice(side, side, 0.75, 0.05, seed)
            }
        }
    }

    /// Bipartite split point for this dataset at `fraction` scale, if any.
    /// (`SynGl` is the only bipartite dataset.)
    pub fn bipartite_users_at(&self, fraction: f64) -> Option<usize> {
        match self {
            Dataset::SynGl => Some(((5000.0 * fraction) as usize).max(32)),
            _ => None,
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.info().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::degree_stats;

    #[test]
    fn all_defaults_generate() {
        for d in Dataset::all() {
            let g = d.generate_scaled(0.1, d.default_seed());
            assert!(g.num_vertices() > 0, "{d}");
            assert!(g.num_edges() > 0, "{d}");
            assert_eq!(g.is_weighted(), d.info().weighted, "{d}");
        }
    }

    #[test]
    fn size_ordering_matches_paper() {
        // The four PageRank graphs, in the paper's size order.
        let sizes: Vec<usize> = [
            Dataset::Amazon,
            Dataset::GWeb,
            Dataset::LJournal,
            Dataset::Wiki,
        ]
        .iter()
        .map(|d| d.generate_scaled(0.25, 1).num_edges())
        .collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]), "sizes {sizes:?}");
    }

    #[test]
    fn dblp_is_symmetric() {
        let g = Dataset::Dblp.generate_scaled(0.2, 3);
        for v in g.vertices() {
            for &t in g.out_neighbors(v) {
                assert!(g.out_neighbors(t).contains(&v), "missing {t} -> {v}");
            }
        }
    }

    #[test]
    fn syn_gl_is_bipartite_weighted() {
        let users = Dataset::SynGl.bipartite_users_at(0.2).unwrap();
        let g = Dataset::SynGl.generate_scaled(0.2, 5);
        assert!(g.is_weighted());
        for v in g.vertices() {
            for &t in g.out_neighbors(v) {
                assert_ne!((v as usize) < users, (t as usize) < users);
            }
        }
    }

    #[test]
    fn road_ca_has_low_degree() {
        let g = Dataset::RoadCa.generate_scaled(0.3, 7);
        assert!(degree_stats(&g).avg_degree < 6.0);
        assert!(g.is_weighted());
    }

    #[test]
    fn scaling_changes_size_monotonically() {
        let small = Dataset::GWeb.generate_scaled(0.1, 1);
        let large = Dataset::GWeb.generate_scaled(0.5, 1);
        assert!(small.num_edges() < large.num_edges());
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            Dataset::Amazon.generate_scaled(0.2, 9),
            Dataset::Amazon.generate_scaled(0.2, 9)
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(Dataset::SynGl.to_string(), "SYN-GL");
        assert_eq!(Dataset::RoadCa.to_string(), "RoadCA");
    }
}
