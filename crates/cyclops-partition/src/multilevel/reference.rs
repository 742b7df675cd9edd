//! The per-vertex `Vec` partitioner: the oracle the flat-array one in
//! [`super`] is held equal to, bit for bit.
//!
//! This is the multilevel scheme as it was written first, kept verbatim:
//! one heap `Vec<(u32, u64)>` per vertex per level, an edge scatter plus a
//! sort per list to build every level, and FM passes that recompute part
//! connectivity for every vertex, interior ones included. Same algorithm,
//! same random stream, so for every `(graph, k, seed, imbalance,
//! refine_passes, initial_trials)` both return the same assignment. Only
//! tests call it.

use super::MultilevelPartitioner;
use crate::edge_cut::EdgeCutPartition;
use cyclops_graph::Graph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// [`MultilevelPartitioner::partition`] on the per-vertex `Vec` layout.
pub(super) fn partition(ml: &MultilevelPartitioner, g: &Graph, k: usize) -> EdgeCutPartition {
    assert!(k > 0);
    let n = g.num_vertices();
    if k == 1 || n == 0 {
        return EdgeCutPartition::new(k, vec![0; n]);
    }
    let mut rng = StdRng::seed_from_u64(ml.seed);

    // Build the undirected weighted working graph.
    let mut levels = vec![WorkGraph::from_graph(g)];
    let mut maps: Vec<Vec<u32>> = Vec::new();

    // Coarsen until small or stuck. Cap coarse-vertex weight so no
    // super-vertex alone busts the balance constraint (Metis does the
    // same): a part's target is total/k, so limit to a third of that.
    let stop_at = (25 * k).max(128);
    let max_vwgt = (levels[0].total_weight() / (3 * k as u64)).max(1);
    while levels.last().unwrap().len() > stop_at {
        let (coarse, map) = levels.last().unwrap().coarsen(&mut rng, max_vwgt);
        if coarse.len() as f64 > 0.95 * levels.last().unwrap().len() as f64 {
            break; // matching made no progress (e.g., star graphs)
        }
        levels.push(coarse);
        maps.push(map);
    }

    // Initial partition on the coarsest level: several randomized
    // region-growing trials, keeping the lowest refined cut (cheap at
    // coarsest size, and the quality carries down through projection).
    let coarsest = levels.last().unwrap();
    let mut assignment = Vec::new();
    let mut best_cut = u64::MAX;
    for _ in 0..ml.initial_trials.max(1) {
        let mut candidate = coarsest.grow_regions(k, &mut rng);
        coarsest.refine(&mut candidate, k, ml.imbalance, ml.refine_passes, &mut rng);
        let cut = coarsest.cut(&candidate);
        if cut < best_cut {
            best_cut = cut;
            assignment = candidate;
        }
    }

    // Uncoarsen with refinement at every level.
    for level in (0..maps.len()).rev() {
        let fine = &levels[level];
        let map = &maps[level];
        let mut fine_assignment = vec![0u32; fine.len()];
        for v in 0..fine.len() {
            fine_assignment[v] = assignment[map[v] as usize];
        }
        fine.refine(
            &mut fine_assignment,
            k,
            ml.imbalance,
            ml.refine_passes,
            &mut rng,
        );
        assignment = fine_assignment;
    }

    EdgeCutPartition::new(k, assignment)
}

/// Undirected weighted graph used internally across coarsening levels.
struct WorkGraph {
    /// Vertex weights (number of original vertices collapsed into each).
    vwgt: Vec<u64>,
    /// Adjacency: per vertex, `(neighbor, edge weight)` with parallel edges
    /// merged and self-loops dropped. Sorted by neighbor id.
    adj: Vec<Vec<(u32, u64)>>,
}

impl WorkGraph {
    fn len(&self) -> usize {
        self.vwgt.len()
    }

    fn total_weight(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    fn from_graph(g: &Graph) -> Self {
        let n = g.num_vertices();
        let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for (s, t, _) in g.edges() {
            if s == t {
                continue;
            }
            adj[s as usize].push((t, 1));
            adj[t as usize].push((s, 1));
        }
        for list in &mut adj {
            merge_parallel(list);
        }
        WorkGraph {
            vwgt: vec![1; n],
            adj,
        }
    }

    /// One round of heavy-edge matching; returns the coarse graph and the
    /// fine-to-coarse vertex map. Matches whose combined vertex weight
    /// exceeds `max_vwgt` are skipped so balance stays achievable.
    fn coarsen(&self, rng: &mut StdRng, max_vwgt: u64) -> (WorkGraph, Vec<u32>) {
        let n = self.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        let mut mate: Vec<u32> = vec![u32::MAX; n];
        for &v in &order {
            let v = v as usize;
            if mate[v] != u32::MAX {
                continue;
            }
            // Heaviest unmatched neighbor within the weight cap.
            let best = self.adj[v]
                .iter()
                .filter(|&&(u, _)| {
                    mate[u as usize] == u32::MAX
                        && u as usize != v
                        && self.vwgt[v] + self.vwgt[u as usize] <= max_vwgt
                })
                .max_by_key(|&&(u, w)| (w, u));
            match best {
                Some(&(u, _)) => {
                    mate[v] = u;
                    mate[u as usize] = v as u32;
                }
                None => mate[v] = v as u32, // matched with itself
            }
        }

        // Assign coarse ids.
        let mut map = vec![u32::MAX; n];
        let mut next = 0u32;
        for v in 0..n {
            if map[v] != u32::MAX {
                continue;
            }
            map[v] = next;
            let m = mate[v] as usize;
            if m != v && map[m] == u32::MAX {
                map[m] = next;
            }
            next += 1;
        }

        // Build coarse graph.
        let cn = next as usize;
        let mut vwgt = vec![0u64; cn];
        for v in 0..n {
            vwgt[map[v] as usize] += self.vwgt[v];
        }
        let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); cn];
        for v in 0..n {
            let cv = map[v];
            for &(u, w) in &self.adj[v] {
                let cu = map[u as usize];
                if cu != cv {
                    adj[cv as usize].push((cu, w));
                }
            }
        }
        for list in &mut adj {
            merge_parallel(list);
        }
        (WorkGraph { vwgt, adj }, map)
    }

    /// Total weight of edges whose endpoints sit in different parts.
    fn cut(&self, assignment: &[u32]) -> u64 {
        let mut cut = 0u64;
        for v in 0..self.len() {
            for &(u, w) in &self.adj[v] {
                if assignment[v] != assignment[u as usize] {
                    cut += w;
                }
            }
        }
        cut / 2 // each undirected edge seen from both sides
    }

    /// Greedy gain-guided region growing: grow `k` regions to the target
    /// weight, always absorbing the frontier vertex most strongly connected
    /// to the region (classic greedy graph growing, not plain BFS).
    fn grow_regions(&self, k: usize, rng: &mut StdRng) -> Vec<u32> {
        let n = self.len();
        let total = self.total_weight();
        let target = total / k as u64 + 1;
        let mut assignment = vec![u32::MAX; n];
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        let mut cursor = 0usize;
        // Max-heap on connectivity to the growing region.
        let mut heap: std::collections::BinaryHeap<(u64, u32)> =
            std::collections::BinaryHeap::new();
        // conn[v]: weight from v into the current region (reset lazily via
        // a generation stamp).
        let mut conn = vec![0u64; n];
        let mut stamp = vec![0u32; n];
        let mut generation = 0u32;

        for part in 0..k as u32 {
            let mut weight = 0u64;
            generation += 1;
            heap.clear();
            while weight < target {
                let v = loop {
                    match heap.pop() {
                        Some((key, v)) => {
                            let v = v as usize;
                            if assignment[v] != u32::MAX {
                                continue; // stale entry
                            }
                            // Skip entries whose connectivity went stale
                            // (a fresher one is in the heap).
                            if stamp[v] == generation && conn[v] != key {
                                continue;
                            }
                            break Some(v);
                        }
                        None => {
                            while cursor < n && assignment[order[cursor] as usize] != u32::MAX {
                                cursor += 1;
                            }
                            break if cursor >= n {
                                None
                            } else {
                                Some(order[cursor] as usize)
                            };
                        }
                    }
                };
                let Some(v) = v else { break };
                if assignment[v] != u32::MAX {
                    continue;
                }
                assignment[v] = part;
                weight += self.vwgt[v];
                for &(u, w) in &self.adj[v] {
                    let u = u as usize;
                    if assignment[u] == u32::MAX {
                        if stamp[u] != generation {
                            stamp[u] = generation;
                            conn[u] = 0;
                        }
                        conn[u] += w;
                        heap.push((conn[u], u as u32));
                    }
                }
            }
        }
        // Any leftovers go to the lightest part.
        let mut weights = vec![0u64; k];
        for v in 0..n {
            if assignment[v] != u32::MAX {
                weights[assignment[v] as usize] += self.vwgt[v];
            }
        }
        for (v, a) in assignment.iter_mut().enumerate() {
            if *a == u32::MAX {
                let lightest = (0..k).min_by_key(|&p| weights[p]).unwrap();
                *a = lightest as u32;
                weights[lightest] += self.vwgt[v];
            }
        }
        assignment
    }

    /// Boundary FM refinement: move vertices to the adjacent part with the
    /// highest positive cut gain, respecting the balance constraint.
    fn refine(
        &self,
        assignment: &mut [u32],
        k: usize,
        imbalance: f64,
        passes: usize,
        rng: &mut StdRng,
    ) {
        let n = self.len();
        let total = self.total_weight();
        let max_weight = ((total as f64 / k as f64) * (1.0 + imbalance)).ceil() as u64;
        let mut weights = vec![0u64; k];
        for v in 0..n {
            weights[assignment[v] as usize] += self.vwgt[v];
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut conn = vec![0u64; k]; // scratch: weight to each part

        for _ in 0..passes {
            order.shuffle(rng);
            let mut moved = 0usize;
            for &v in &order {
                let v = v as usize;
                let home = assignment[v] as usize;
                if self.adj[v].is_empty() {
                    continue;
                }
                // Connectivity of v to each adjacent part.
                for c in conn.iter_mut() {
                    *c = 0;
                }
                let mut internal = 0u64;
                for &(u, w) in &self.adj[v] {
                    let p = assignment[u as usize] as usize;
                    if p == home {
                        internal += w;
                    } else {
                        conn[p] += w;
                    }
                }
                // Best destination by gain, then by resulting balance.
                let mut best: Option<(usize, i64)> = None;
                for &(u, _) in &self.adj[v] {
                    let p = assignment[u as usize] as usize;
                    if p == home || conn[p] == 0 {
                        continue;
                    }
                    let gain = conn[p] as i64 - internal as i64;
                    let fits = weights[p] + self.vwgt[v] <= max_weight;
                    let improves_balance = weights[p] + self.vwgt[v] < weights[home];
                    if fits && (gain > 0 || (gain == 0 && improves_balance)) {
                        match best {
                            Some((_, g)) if g >= gain => {}
                            _ => best = Some((p, gain)),
                        }
                    }
                    conn[p] = 0; // visit each part once
                }
                if let Some((dest, _)) = best {
                    weights[home] -= self.vwgt[v];
                    weights[dest] += self.vwgt[v];
                    assignment[v] = dest as u32;
                    moved += 1;
                }
            }
            if moved == 0 {
                break;
            }
        }

        // Explicit rebalance: initial growing (and lumpy coarse vertices)
        // can overload parts; push boundary vertices of overloaded parts to
        // underloaded ones, taking the least cut damage.
        for _ in 0..4 {
            let overloaded: Vec<usize> = (0..k).filter(|&p| weights[p] > max_weight).collect();
            if overloaded.is_empty() {
                break;
            }
            order.shuffle(rng);
            let mut moved = false;
            for &v in &order {
                let v = v as usize;
                let home = assignment[v] as usize;
                if weights[home] <= max_weight {
                    continue;
                }
                // Cheapest escape: the part v is most connected to (other
                // than home) that has room; fall back to the lightest part.
                for c in conn.iter_mut() {
                    *c = 0;
                }
                for &(u, w) in &self.adj[v] {
                    let p = assignment[u as usize] as usize;
                    if p != home {
                        conn[p] += w;
                    }
                }
                let dest = (0..k)
                    .filter(|&p| p != home && weights[p] + self.vwgt[v] <= max_weight)
                    .max_by_key(|&p| (conn[p], std::cmp::Reverse(weights[p])));
                if let Some(dest) = dest {
                    weights[home] -= self.vwgt[v];
                    weights[dest] += self.vwgt[v];
                    assignment[v] = dest as u32;
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
    }
}

/// Sorts an adjacency list by neighbor and sums weights of parallel edges.
fn merge_parallel(list: &mut Vec<(u32, u64)>) {
    list.sort_unstable_by_key(|&(u, _)| u);
    let mut out = 0usize;
    for i in 0..list.len() {
        if out > 0 && list[out - 1].0 == list[i].0 {
            list[out - 1].1 += list[i].1;
        } else {
            list[out] = list[i];
            out += 1;
        }
    }
    list.truncate(out);
}
