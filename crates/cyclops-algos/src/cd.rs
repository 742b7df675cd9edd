//! Community Detection by label propagation — the paper's DBLP workload
//! (§6.1, after Zhou et al.). Each vertex adopts the most frequent label
//! among its in-neighbors (ties toward the smaller label); vertices sharing
//! a label form a community.

use cyclops_bsp::{BspContext, BspProgram};
use cyclops_engine::{CyclopsContext, CyclopsProgram};
use cyclops_graph::{Graph, VertexId};

/// Picks the most frequent label, breaking ties toward the smallest; `None`
/// when the iterator is empty. Sorting puts equal labels in runs, ascending,
/// so the first longest run is the answer.
fn most_frequent_label(labels: impl IntoIterator<Item = u32>) -> Option<u32> {
    crate::with_sorted(labels, |sorted| {
        let mut best: Option<&[u32]> = None;
        for run in sorted.chunk_by(|a, b| a == b) {
            if best.is_none_or(|b| run.len() > b.len()) {
                best = Some(run);
            }
        }
        best.map(|run| run[0])
    })
}

/// BSP label propagation: every vertex rebroadcasts its label every
/// superstep (pull-mode forced through messages); a changed-label count
/// aggregated globally decides termination.
///
/// To run: superstep 0 only seeds, so `n` sweeps take
/// `max_supersteps = n + 1`; no `combine` (the label histogram needs every
/// message).
pub struct BspCommunityDetection;

impl BspProgram for BspCommunityDetection {
    type Value = u32;
    type Message = u32;

    fn init(&self, v: VertexId, _g: &Graph) -> u32 {
        v
    }

    fn compute(&self, ctx: &mut BspContext<'_, u32, u32>, msgs: &[u32]) {
        if ctx.superstep() == 0 {
            ctx.send_to_neighbors(*ctx.value());
            return;
        }
        let new = most_frequent_label(msgs.iter().copied()).unwrap_or(*ctx.value());
        let changed = new != *ctx.value();
        ctx.set_value(new);
        ctx.aggregate(changed as u32 as f64);
        // Stop when the previous sweep changed nothing: the aggregator's
        // *sum* is the exact count of changed labels.
        let changed_last_sweep = ctx
            .global_aggregate_stats()
            .map(|s| s.sum > 0.0)
            .unwrap_or(true);
        if changed_last_sweep {
            ctx.send_to_neighbors(new);
        } else {
            ctx.vote_to_halt();
        }
    }
}

/// Cyclops label propagation: labels are publications; a vertex recomputes
/// only when an in-neighbor's label changed — dynamic computation makes the
/// quiescent parts of the graph free.
///
/// To run: one sweep per superstep, so `n` sweeps take `max_supersteps = n`.
pub struct CyclopsCommunityDetection;

impl CyclopsProgram for CyclopsCommunityDetection {
    type Value = u32;
    type Message = u32;

    fn init(&self, v: VertexId, _g: &Graph) -> u32 {
        v
    }

    fn init_message(&self, _v: VertexId, _g: &Graph, value: &u32) -> Option<u32> {
        Some(*value)
    }

    fn compute(&self, ctx: &mut CyclopsContext<'_, u32, u32>) {
        let new = most_frequent_label(ctx.in_messages().map(|(m, _)| *m)).unwrap_or(*ctx.value());
        if new != *ctx.value() {
            ctx.set_value(new);
            ctx.report_error(1.0);
            ctx.activate_neighbors(new);
        } else {
            ctx.report_error(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_bsp::{run_bsp, BspConfig};
    use cyclops_engine::{run_cyclops, CyclopsConfig, CyclopsResult};
    use cyclops_graph::reference;
    use cyclops_graph::GraphBuilder;
    use cyclops_net::ClusterSpec;
    use cyclops_partition::{EdgeCutPartition, EdgeCutPartitioner, HashPartitioner};
    use proptest::prelude::*;

    /// The label mode as a hash map of counts, as it was computed before the
    /// sort; the model [`most_frequent_label`] is held to.
    fn hash_map_mode(labels: &[u32]) -> Option<u32> {
        let mut counts = std::collections::HashMap::new();
        for &l in labels {
            *counts.entry(l).or_insert(0usize) += 1;
        }
        counts
            .iter()
            .max_by_key(|&(label, count)| (*count, std::cmp::Reverse(*label)))
            .map(|(&label, _)| label)
    }

    #[test]
    fn most_frequent_label_cases() {
        assert_eq!(most_frequent_label([]), None);
        assert_eq!(most_frequent_label([7]), Some(7));
        assert_eq!(most_frequent_label([5, 3, 5, 3]), Some(3)); // tie: smallest
        assert_eq!(most_frequent_label([9, 1, 9]), Some(9));
        assert_eq!(most_frequent_label([u32::MAX, 0, u32::MAX]), Some(u32::MAX));
        assert_eq!(most_frequent_label([4; 1000]), Some(4));
    }

    proptest! {
        /// Equal to the hash-map model on empty inputs, one label, ties and
        /// long runs: a six-label alphabet repeats labels, the full `u32`
        /// range spreads them, and a call after a longer one reuses the
        /// buffer.
        #[test]
        fn most_frequent_label_matches_the_hash_map_model(
            small in proptest::collection::vec(0u32..6, 0..300),
            wide in proptest::collection::vec(any::<u32>(), 0..40),
            split in 0usize..300,
        ) {
            let mut mixed = small.clone();
            mixed.splice(split.min(mixed.len())..split.min(mixed.len()), wide.iter().copied());
            for labels in [&small, &wide, &mixed, &small[..split.min(small.len())]] {
                prop_assert_eq!(most_frequent_label(labels.iter().copied()), hash_map_mode(labels));
            }
        }
    }

    fn cyclops(
        g: &Graph,
        p: &EdgeCutPartition,
        cluster: ClusterSpec,
        sweeps: usize,
    ) -> CyclopsResult<u32, u32> {
        let config = CyclopsConfig {
            cluster,
            max_supersteps: sweeps,
            ..Default::default()
        };
        run_cyclops(&CyclopsCommunityDetection, g, p, &config)
    }

    /// Two directed triangles bridged by one edge.
    fn two_communities() -> Graph {
        let mut b = GraphBuilder::new(6);
        for &(s, t) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            b.add_undirected_edge(s, t);
        }
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn cyclops_matches_reference_sweeps() {
        let g = two_communities();
        let p = HashPartitioner.partition(&g, 2);
        let r = cyclops(&g, &p, ClusterSpec::flat(2, 1), 8);
        let expected = reference::label_propagation(&g, 8);
        assert_eq!(r.values, expected);
    }

    #[test]
    fn bsp_matches_reference_sweeps() {
        let g = two_communities();
        let p = HashPartitioner.partition(&g, 2);
        // 9 supersteps = 1 seed + 8 sweeps.
        let config = BspConfig {
            cluster: ClusterSpec::flat(2, 1),
            max_supersteps: 9,
            track_redundant: true,
            ..Default::default()
        };
        let r = run_bsp(&BspCommunityDetection, &g, &p, &config);
        let expected = reference::label_propagation(&g, 8);
        assert_eq!(r.values, expected);
    }

    #[test]
    fn communities_form_on_clustered_graph() {
        let g = two_communities();
        let p = HashPartitioner.partition(&g, 4);
        let r = cyclops(&g, &p, ClusterSpec::flat(2, 2), 30);
        assert_eq!(r.values[0], r.values[1]);
        assert_eq!(r.values[1], r.values[2]);
        assert_eq!(r.values[3], r.values[4]);
        assert_eq!(r.values[4], r.values[5]);
    }

    #[test]
    fn engines_agree_on_larger_graph() {
        let g = cyclops_graph::gen::erdos_renyi(200, 900, 17);
        let p = HashPartitioner.partition(&g, 4);
        let sweeps = 12;
        let cy = cyclops(&g, &p, ClusterSpec::flat(2, 2), sweeps);
        let expected = reference::label_propagation(&g, sweeps);
        assert_eq!(cy.values, expected);
    }
}
