//! The paper's seven benchmark workloads (Table 1), runnable on every
//! engine with one call.

use cyclops_algos::als::{run_bsp_als, run_cyclops_als, AlsParams};
use cyclops_algos::cd::{run_bsp_cd, run_cyclops_cd};
use cyclops_algos::pagerank::{
    run_bsp_pagerank, run_cyclops_pagerank, run_cyclops_pagerank_tuned, run_gas_pagerank,
};
use cyclops_algos::sssp::{run_bsp_sssp, run_cyclops_sssp_bucketed, run_gas_sssp};
use cyclops_engine::IngressStats;
use cyclops_graph::{Dataset, Graph};
use cyclops_net::metrics::CounterSnapshot;
use cyclops_net::{ClusterSpec, SuperstepStats};
use cyclops_partition::{EdgeCutPartition, VertexCutPartition};
use std::time::Duration;

/// PageRank local/global error threshold used across the experiments.
pub const PR_EPSILON: f64 = 1e-4;
/// Tight PageRank threshold for steady-state comparisons (hybrid
/// replication): runs to full convergence (~50+ supersteps) so per-superstep
/// standing costs dominate one-shot setup costs, as in a production run.
pub const PR_CONVERGENCE_EPSILON: f64 = 1e-8;
/// PageRank superstep cap.
pub const PR_MAX_SUPERSTEPS: usize = 150;
/// Community-detection sweep cap.
pub const CD_SWEEPS: usize = 20;
/// ALS alternations.
pub const ALS_ITERS: usize = 3;
/// ALS latent dimension.
pub const ALS_DIM: usize = 8;
/// ALS regularization.
pub const ALS_LAMBDA: f64 = 0.05;
/// SSSP source vertex.
pub const SSSP_SOURCE: u32 = 0;

/// Experiment scale factor from `CYCLOPS_SCALE` (default 0.1). Datasets are
/// generated at `scale()` of their library-default size.
pub fn scale() -> f64 {
    std::env::var("CYCLOPS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&f| f > 0.0)
        .unwrap_or(0.1)
}

/// The paper's in-house cluster: 6 machines. "48 workers" is `6 x 8`.
pub fn paper_cluster(workers: usize) -> ClusterSpec {
    assert!(
        workers.is_multiple_of(6),
        "the paper's cluster has 6 machines"
    );
    ClusterSpec::flat(6, workers / 6)
}

/// The CyclopsMT configuration matched to `workers` total threads
/// (the paper's best uses 2 receiver threads, §6.5).
pub fn paper_cluster_mt(workers: usize) -> ClusterSpec {
    assert!(workers.is_multiple_of(6));
    ClusterSpec::mt(6, workers / 6, 2.min(workers / 6).max(1))
}

/// One of the four evaluated algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// PageRank (pull).
    PageRank,
    /// Alternating Least Squares (pull).
    Als,
    /// Community Detection / label propagation (pull).
    Cd,
    /// Single-Source Shortest Path (push).
    Sssp,
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Algo::PageRank => "PageRank",
            Algo::Als => "ALS",
            Algo::Cd => "CD",
            Algo::Sssp => "SSSP",
        })
    }
}

/// A dataset×algorithm pairing.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Input graph.
    pub dataset: Dataset,
    /// Algorithm the paper runs on it.
    pub algo: Algo,
}

/// The paper's seven workloads in Figure 9 order.
pub fn paper_workloads() -> Vec<Workload> {
    vec![
        Workload {
            dataset: Dataset::Amazon,
            algo: Algo::PageRank,
        },
        Workload {
            dataset: Dataset::GWeb,
            algo: Algo::PageRank,
        },
        Workload {
            dataset: Dataset::LJournal,
            algo: Algo::PageRank,
        },
        Workload {
            dataset: Dataset::Wiki,
            algo: Algo::PageRank,
        },
        Workload {
            dataset: Dataset::SynGl,
            algo: Algo::Als,
        },
        Workload {
            dataset: Dataset::Dblp,
            algo: Algo::Cd,
        },
        Workload {
            dataset: Dataset::RoadCa,
            algo: Algo::Sssp,
        },
    ]
}

/// Generates the workload's graph at `fraction` of library-default scale.
pub fn gen_graph(dataset: Dataset, fraction: f64) -> Graph {
    dataset.generate_scaled(fraction, dataset.default_seed())
}

/// ALS parameters matched to the SYN-GL stand-in at `fraction` scale.
pub fn als_params(fraction: f64) -> AlsParams {
    AlsParams {
        users: Dataset::SynGl.bipartite_users_at(fraction).unwrap(),
        dim: ALS_DIM,
        lambda: ALS_LAMBDA,
    }
}

/// Engine-agnostic outcome of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Superstep-loop wall time.
    pub elapsed: Duration,
    /// Supersteps executed.
    pub supersteps: usize,
    /// Transport counters for the whole run.
    pub counters: CounterSnapshot,
    /// Per-superstep statistics.
    pub stats: Vec<SuperstepStats>,
    /// Replication factor (0 for BSP, which has no replicas).
    pub replication_factor: f64,
    /// Direct messages sent for cold boundary vertices (hybrid replication;
    /// 0 unless a Cyclops engine ran with a nonzero threshold).
    pub direct_messages: usize,
    /// Ingress breakdown (Cyclops engines only).
    pub ingress: Option<IngressStats>,
    /// Final values as f64 when the algorithm is PageRank/SSSP (for
    /// convergence-quality comparisons).
    pub values_f64: Option<Vec<f64>>,
}

/// Runs `workload` on the Hama baseline.
pub fn run_on_hama(
    workload: &Workload,
    graph: &Graph,
    partition: &EdgeCutPartition,
    cluster: &ClusterSpec,
    fraction: f64,
) -> Outcome {
    match workload.algo {
        Algo::PageRank => {
            let r = run_bsp_pagerank(graph, partition, cluster, PR_EPSILON, PR_MAX_SUPERSTEPS);
            Outcome {
                elapsed: r.elapsed,
                supersteps: r.supersteps,
                counters: r.counters,
                stats: r.stats,
                replication_factor: 0.0,
                direct_messages: 0,
                ingress: None,
                values_f64: Some(r.values),
            }
        }
        Algo::Als => {
            let r = run_bsp_als(graph, partition, cluster, als_params(fraction), ALS_ITERS);
            Outcome {
                elapsed: r.elapsed,
                supersteps: r.supersteps,
                counters: r.counters,
                stats: r.stats,
                replication_factor: 0.0,
                direct_messages: 0,
                ingress: None,
                values_f64: None,
            }
        }
        Algo::Cd => {
            let r = run_bsp_cd(graph, partition, cluster, CD_SWEEPS + 1);
            Outcome {
                elapsed: r.elapsed,
                supersteps: r.supersteps,
                counters: r.counters,
                stats: r.stats,
                replication_factor: 0.0,
                direct_messages: 0,
                ingress: None,
                values_f64: None,
            }
        }
        Algo::Sssp => {
            let r = run_bsp_sssp(graph, partition, cluster, SSSP_SOURCE, 100_000);
            Outcome {
                elapsed: r.elapsed,
                supersteps: r.supersteps,
                counters: r.counters,
                stats: r.stats,
                replication_factor: 0.0,
                direct_messages: 0,
                ingress: None,
                values_f64: Some(r.values),
            }
        }
    }
}

/// Runs `workload` on Cyclops (flat) or CyclopsMT, depending on `cluster`.
pub fn run_on_cyclops(
    workload: &Workload,
    graph: &Graph,
    partition: &EdgeCutPartition,
    cluster: &ClusterSpec,
    fraction: f64,
) -> Outcome {
    match workload.algo {
        Algo::PageRank => {
            let r = run_cyclops_pagerank(graph, partition, cluster, PR_EPSILON, PR_MAX_SUPERSTEPS);
            Outcome {
                elapsed: r.elapsed,
                supersteps: r.supersteps,
                counters: r.counters,
                stats: r.stats,
                replication_factor: r.replication_factor,
                direct_messages: r.direct_messages,
                ingress: Some(r.ingress),
                values_f64: Some(r.values),
            }
        }
        Algo::Als => {
            let r = run_cyclops_als(graph, partition, cluster, als_params(fraction), ALS_ITERS);
            Outcome {
                elapsed: r.elapsed,
                supersteps: r.supersteps,
                counters: r.counters,
                stats: r.stats,
                replication_factor: r.replication_factor,
                direct_messages: r.direct_messages,
                ingress: Some(r.ingress),
                values_f64: None,
            }
        }
        Algo::Cd => {
            let r = run_cyclops_cd(graph, partition, cluster, CD_SWEEPS);
            Outcome {
                elapsed: r.elapsed,
                supersteps: r.supersteps,
                counters: r.counters,
                stats: r.stats,
                replication_factor: r.replication_factor,
                direct_messages: r.direct_messages,
                ingress: Some(r.ingress),
                values_f64: None,
            }
        }
        Algo::Sssp => {
            // Bucketed delta-stepping with the auto-tuned width and the
            // deterministic drain order: the high-diameter road workload is
            // exactly what the fused-superstep scheduler exists for, and the
            // distances stay bitwise identical to the unbucketed run (the
            // Hama baseline above stays unbucketed, as in the paper).
            let r = run_cyclops_sssp_bucketed(
                graph,
                partition,
                cluster,
                SSSP_SOURCE,
                100_000,
                0.0,
                cyclops_net::BucketMode::Det,
                0,
                None,
            );
            Outcome {
                elapsed: r.elapsed,
                supersteps: r.supersteps,
                counters: r.counters,
                stats: r.stats,
                replication_factor: r.replication_factor,
                direct_messages: r.direct_messages,
                ingress: Some(r.ingress),
                values_f64: Some(r.values),
            }
        }
    }
}

/// [`run_on_cyclops`] with a hybrid replication degree threshold (PageRank
/// and SSSP — the workloads with tuned entry points; the hybrid ablations
/// run on those, so others panic rather than silently ignoring the
/// threshold).
///
/// `pr_epsilon` sets the PageRank convergence threshold (ignored by SSSP).
/// Hybrid comparisons should run both sides at
/// [`PR_CONVERGENCE_EPSILON`]: messaging a cold vertex trades a replica's
/// *standing* costs (its presence bit in every dense batch, all run) for a
/// one-shot direct frame, so the byte balance is a steady-state property —
/// the quick-mode [`PR_EPSILON`] stops after a handful of supersteps,
/// before the standing savings amortize the direct frame's fixed bytes.
pub fn run_on_cyclops_threshold(
    workload: &Workload,
    graph: &Graph,
    partition: &EdgeCutPartition,
    cluster: &ClusterSpec,
    threshold: u32,
    pr_epsilon: f64,
) -> Outcome {
    let from_result = |r: cyclops_engine::CyclopsResult<f64, f64>| Outcome {
        elapsed: r.elapsed,
        supersteps: r.supersteps,
        counters: r.counters,
        stats: r.stats,
        replication_factor: r.replication_factor,
        direct_messages: r.direct_messages,
        ingress: Some(r.ingress),
        values_f64: Some(r.values),
    };
    match workload.algo {
        Algo::PageRank => from_result(run_cyclops_pagerank_tuned(
            graph,
            partition,
            cluster,
            pr_epsilon,
            PR_MAX_SUPERSTEPS,
            cyclops_engine::Sched::default(),
            cyclops_engine::CyclopsConfig::default().sparse_cutoff,
            threshold,
            None,
        )),
        Algo::Sssp => from_result(run_cyclops_sssp_bucketed(
            graph,
            partition,
            cluster,
            SSSP_SOURCE,
            100_000,
            0.0,
            cyclops_net::BucketMode::Det,
            threshold,
            None,
        )),
        _ => panic!("hybrid replication runs are wired for PageRank and SSSP only"),
    }
}

/// Runs the PowerGraph baseline (PageRank and SSSP only — the algorithms
/// the paper compares on it).
pub fn run_on_gas(
    workload: &Workload,
    graph: &Graph,
    partition: &VertexCutPartition,
    cluster: &ClusterSpec,
) -> Outcome {
    match workload.algo {
        Algo::PageRank => {
            let r = run_gas_pagerank(graph, partition, cluster, PR_EPSILON, PR_MAX_SUPERSTEPS);
            Outcome {
                elapsed: r.elapsed,
                supersteps: r.supersteps,
                counters: r.counters,
                stats: r.stats,
                replication_factor: r.replication_factor,
                direct_messages: 0,
                ingress: None,
                values_f64: Some(r.values),
            }
        }
        Algo::Sssp => {
            let r = run_gas_sssp(graph, partition, cluster, SSSP_SOURCE, 100_000);
            Outcome {
                elapsed: r.elapsed,
                supersteps: r.supersteps,
                counters: r.counters,
                stats: r.stats,
                replication_factor: r.replication_factor,
                direct_messages: 0,
                ingress: None,
                values_f64: Some(r.values),
            }
        }
        _ => panic!("the GAS baseline runs PageRank and SSSP only"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_partition::{EdgeCutPartitioner, HashPartitioner};

    #[test]
    fn all_workloads_run_on_both_edge_cut_engines() {
        let fraction = 0.03;
        for w in paper_workloads() {
            let g = gen_graph(w.dataset, fraction);
            let cluster = ClusterSpec::flat(2, 2);
            let p = HashPartitioner.partition(&g, 4);
            let hama = run_on_hama(&w, &g, &p, &cluster, fraction);
            let cy = run_on_cyclops(&w, &g, &p, &cluster, fraction);
            assert!(hama.supersteps > 0, "{w:?}");
            assert!(cy.supersteps > 0, "{w:?}");
            if let (Some(a), Some(b)) = (&hama.values_f64, &cy.values_f64) {
                // The engines stop under different criteria (global vs local
                // error at PR_EPSILON), leaving an absolute gap bounded by
                // ~PR_EPSILON / (1 - damping); SSSP distances agree exactly
                // (both run to quiescence).
                for (x, y) in a.iter().zip(b) {
                    if x.is_finite() || y.is_finite() {
                        assert!((x - y).abs() < 2e-3, "{w:?}: {x} vs {y}");
                    }
                }
            }
        }
    }

    #[test]
    fn scale_env_parses() {
        // Default path (no env set in tests).
        assert!(scale() > 0.0);
    }

    #[test]
    fn paper_cluster_labels() {
        assert_eq!(paper_cluster(48).label(), "6x8x1");
        assert_eq!(paper_cluster_mt(48).label(), "6x1x8/2");
    }
}
