//! Runtime vertex migration: profiler-driven dynamic load balancing.
//!
//! Cyclops' static edge-cut fixes master placement at load time, so the
//! skew the critical-path profiler measures (one straggler worker charged
//! with most of the caused barrier wait) can never be repaired at runtime.
//! Following Yan et al. (arXiv:1503.00626), this module closes the loop
//! from observation to action: a [`LoadLedger`] accumulates deterministic
//! per-vertex compute-cost proxies during a migration epoch, and at an
//! epoch boundary a [`MigrationPlanner`] turns the ledger into a
//! [`MigrationBatch`] — hot masters to move off the straggler worker.
//!
//! **Determinism rule: counters, not clocks.** Every decision input is an
//! integer count (work-mass units per computed vertex) summed with
//! commutative atomic adds, so the plan is a pure function of
//! graph + partition + algorithm — bitwise reproducible across thread
//! counts and machines. Wall-clock never feeds the planner.

use cyclops_graph::VertexId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Deterministic per-vertex compute-cost accumulator for one migration
/// epoch.
///
/// Worker threads call [`LoadLedger::record`] for every master they
/// compute, charging its static work-mass proxy (in-refs + out-fanout + 1,
/// the same units the chunk scheduler balances). Atomic relaxed adds of
/// integers are commutative, so the totals — and every migration decision
/// derived from them — are identical regardless of thread count or
/// interleaving.
pub struct LoadLedger {
    counts: Vec<AtomicU64>,
}

impl std::fmt::Debug for LoadLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadLedger")
            .field("vertices", &self.counts.len())
            .finish()
    }
}

impl LoadLedger {
    /// A ledger for `num_vertices` vertices, all counts zero.
    pub fn new(num_vertices: usize) -> Self {
        LoadLedger {
            counts: (0..num_vertices).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Charges `cost` compute units to `vertex`. Called from worker
    /// threads; relaxed ordering is sufficient because integer addition
    /// commutes and the planner only reads between epochs (behind a
    /// barrier).
    #[inline]
    pub fn record(&self, vertex: VertexId, cost: u64) {
        self.counts[vertex as usize].fetch_add(cost, Ordering::Relaxed);
    }

    /// The accumulated cost of `vertex` this epoch.
    pub fn load(&self, vertex: VertexId) -> u64 {
        self.counts[vertex as usize].load(Ordering::Relaxed)
    }

    /// Number of vertices the ledger tracks.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the ledger tracks no vertices.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Sums per-worker totals under the ownership map `owner`
    /// (`owner[v]` = worker that masters `v`).
    pub fn worker_totals(&self, owner: &[u32], num_workers: usize) -> Vec<u64> {
        let mut totals = vec![0u64; num_workers];
        for (v, c) in self.counts.iter().enumerate() {
            totals[owner[v] as usize] += c.load(Ordering::Relaxed);
        }
        totals
    }

    /// Zeroes every count, starting a fresh epoch. Hysteresis works on
    /// per-epoch load, not lifetime totals, so a transient hot phase does
    /// not haunt later epochs.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Planner knobs. The defaults are deliberately conservative: migration
/// must never thrash, and a missed rebalance costs far less than an
/// oscillating one.
#[derive(Clone, Copy, Debug)]
pub struct MigrationConfig {
    /// Act only when the most-loaded worker exceeds `hysteresis × mean`
    /// epoch load. Below the band the imbalance is noise, not skew.
    pub hysteresis: f64,
    /// Maximum vertices moved per epoch. Bounds both the state-transfer
    /// burst and the plan-edit work behind one barrier.
    pub budget: usize,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            hysteresis: 1.2,
            budget: 8,
        }
    }
}

/// One planned ownership change: master `vertex` moves from worker `from`
/// to worker `to`, carrying `cost` epoch compute units with it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VertexMove {
    /// The vertex whose master moves.
    pub vertex: VertexId,
    /// Current owner.
    pub from: u32,
    /// New owner.
    pub to: u32,
    /// The vertex's epoch load, in ledger units.
    pub cost: u64,
}

/// An epoch's planned moves, in planner emission order (cost descending,
/// vertex id ascending within ties — deterministic).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MigrationBatch {
    /// The moves.
    pub moves: Vec<VertexMove>,
}

impl MigrationBatch {
    /// Number of planned moves.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Whether the planner decided to move nothing this epoch.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Turns an epoch's [`LoadLedger`] into a [`MigrationBatch`].
///
/// The algorithm is greedy and wholly deterministic:
///
/// 1. Sum per-worker epoch totals. If the maximum does not exceed
///    `hysteresis × mean`, emit nothing (the hysteresis band).
/// 2. The source is the most-loaded worker (lowest id on ties).
/// 3. Its masters, in (epoch cost descending, id ascending) order, are
///    offered to the currently least-loaded worker (lowest id on ties),
///    accepting a move only while it strictly lowers the pair maximum —
///    `dst + cost < src` — which cannot oscillate: the reverse move fails
///    the same strict test in the next epoch.
/// 4. Zero-cost vertices are never moved (no evidence), the source is
///    never emptied, and at most `budget` moves are emitted.
#[derive(Clone, Copy, Debug, Default)]
pub struct MigrationPlanner {
    /// Planner knobs.
    pub config: MigrationConfig,
}

impl MigrationPlanner {
    /// A planner with explicit knobs.
    pub fn new(config: MigrationConfig) -> Self {
        MigrationPlanner { config }
    }

    /// Plans one epoch's moves. `owner[v]` is the worker currently
    /// mastering `v`; `num_workers` is the worker count.
    pub fn plan(&self, ledger: &LoadLedger, owner: &[u32], num_workers: usize) -> MigrationBatch {
        assert_eq!(ledger.len(), owner.len(), "ledger/owner length mismatch");
        let mut batch = MigrationBatch::default();
        if num_workers < 2 {
            return batch;
        }
        let mut totals = vec![0u64; num_workers];
        let mut masters = vec![0usize; num_workers];
        for (v, &o) in owner.iter().enumerate() {
            totals[o as usize] += ledger.load(v as VertexId);
            masters[o as usize] += 1;
        }
        let sum: u64 = totals.iter().sum();
        if sum == 0 {
            return batch;
        }
        let mean = sum as f64 / num_workers as f64;
        let src = argmax(&totals);
        if totals[src] as f64 <= self.config.hysteresis * mean {
            return batch;
        }

        // The straggler's masters, hottest first; ids break ties so the
        // order is total. A heap is built in linear time and popped only as
        // far as the batch reads, where sorting every candidate would pay
        // for all of them.
        let mut cand: BinaryHeap<(u64, Reverse<VertexId>)> = owner
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o as usize == src)
            .map(|(v, _)| (ledger.load(v as VertexId), Reverse(v as VertexId)))
            .filter(|&(c, _)| c > 0)
            .collect();

        while let Some((cost, Reverse(v))) = cand.pop() {
            if batch.len() >= self.config.budget || masters[src] <= 1 {
                break;
            }
            let dst = argmin_except(&totals, src);
            // Strictly lower the (src, dst) pair maximum: the destination
            // must stay below the source's *pre-move* load, so each epoch
            // monotonically shrinks the spread and a reverse move can
            // never qualify next epoch.
            if totals[dst] + cost < totals[src] {
                batch.moves.push(VertexMove {
                    vertex: v,
                    from: src as u32,
                    to: dst as u32,
                    cost,
                });
                totals[src] -= cost;
                totals[dst] += cost;
                masters[src] -= 1;
                masters[dst] += 1;
            }
        }
        batch
    }
}

/// Index of the maximum, lowest index on ties.
fn argmax(xs: &[u64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Index of the minimum excluding `skip`, lowest index on ties.
fn argmin_except(xs: &[u64], skip: usize) -> usize {
    let mut best = usize::MAX;
    for (i, &x) in xs.iter().enumerate() {
        if i == skip {
            continue;
        }
        if best == usize::MAX || x < xs[best] {
            best = i;
        }
    }
    best
}

/// Max/mean compute imbalance of per-worker totals (1.0 = perfectly even;
/// 0.0 when there is no load at all). The number the skewed-partition
/// bench panel and `why-slow` report before and after migration.
pub fn compute_imbalance(totals: &[u64]) -> f64 {
    let sum: u64 = totals.iter().sum();
    if sum == 0 || totals.is_empty() {
        return 0.0;
    }
    let mean = sum as f64 / totals.len() as f64;
    let max = totals.iter().copied().max().unwrap_or(0) as f64;
    max / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The planner as it was written first, sorting every candidate: the
    /// oracle the heap-driven loop is held to.
    fn plan_by_sorting(
        config: MigrationConfig,
        ledger: &LoadLedger,
        owner: &[u32],
        k: usize,
    ) -> MigrationBatch {
        let mut batch = MigrationBatch::default();
        if k < 2 {
            return batch;
        }
        let mut totals = vec![0u64; k];
        let mut masters = vec![0usize; k];
        for (v, &o) in owner.iter().enumerate() {
            totals[o as usize] += ledger.load(v as VertexId);
            masters[o as usize] += 1;
        }
        let sum: u64 = totals.iter().sum();
        if sum == 0 {
            return batch;
        }
        let src = argmax(&totals);
        if totals[src] as f64 <= config.hysteresis * (sum as f64 / k as f64) {
            return batch;
        }
        let mut cand: Vec<(u64, VertexId)> = owner
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o as usize == src)
            .map(|(v, _)| (ledger.load(v as VertexId), v as VertexId))
            .filter(|&(c, _)| c > 0)
            .collect();
        cand.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (cost, v) in cand {
            if batch.len() >= config.budget || masters[src] <= 1 {
                break;
            }
            let dst = argmin_except(&totals, src);
            if totals[dst] + cost < totals[src] {
                batch.moves.push(VertexMove {
                    vertex: v,
                    from: src as u32,
                    to: dst as u32,
                    cost,
                });
                totals[src] -= cost;
                totals[dst] += cost;
                masters[src] -= 1;
                masters[dst] += 1;
            }
        }
        batch
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn heap_planner_emits_the_sorted_planners_batch(
            costs in prop::collection::vec(0u64..12, 1..120),
            owners in prop::collection::vec(0u32..6, 120..121),
            k in 2usize..6,
            pile in 0usize..120,
            budget in 0usize..12,
            hysteresis_idx in 0usize..4,
        ) {
            // Small cost ranges give zero costs and many ties; a pile on
            // worker 0 makes it the straggler often enough that batches
            // read past candidates that fail the pair-maximum test.
            let ledger = LoadLedger::new(costs.len());
            for (v, &c) in costs.iter().enumerate() {
                ledger.record(v as VertexId, c);
            }
            let owner: Vec<u32> = (0..costs.len())
                .map(|v| if v < pile { 0 } else { owners[v] % k as u32 })
                .collect();
            let config = MigrationConfig {
                hysteresis: [0.5, 1.0, 1.2, 2.0][hysteresis_idx],
                budget,
            };
            let heap = MigrationPlanner::new(config).plan(&ledger, &owner, k);
            prop_assert_eq!(heap, plan_by_sorting(config, &ledger, &owner, k));
        }
    }

    fn ledger_with(loads: &[u64]) -> LoadLedger {
        let l = LoadLedger::new(loads.len());
        for (v, &c) in loads.iter().enumerate() {
            l.record(v as VertexId, c);
        }
        l
    }

    #[test]
    fn ledger_accumulates_and_resets() {
        let l = LoadLedger::new(3);
        l.record(1, 5);
        l.record(1, 2);
        l.record(2, 1);
        assert_eq!(l.load(0), 0);
        assert_eq!(l.load(1), 7);
        assert_eq!(l.worker_totals(&[0, 0, 1], 2), vec![7, 1]);
        l.reset();
        assert_eq!(l.worker_totals(&[0, 0, 1], 2), vec![0, 0]);
    }

    #[test]
    fn balanced_load_plans_nothing() {
        let l = ledger_with(&[10, 10, 10, 10]);
        let p = MigrationPlanner::default();
        assert!(p.plan(&l, &[0, 1, 0, 1], 2).is_empty());
    }

    #[test]
    fn hysteresis_band_suppresses_mild_skew() {
        // Worker 0 at 1.1x mean: inside the default 1.2 band.
        let l = ledger_with(&[11, 9]);
        let p = MigrationPlanner::default();
        assert!(p.plan(&l, &[0, 1], 2).is_empty());
    }

    #[test]
    fn hot_master_moves_off_the_straggler() {
        // Worker 0 masters a single hot vertex plus background; worker 1
        // idles. The hot vertex must move, hottest first.
        let l = ledger_with(&[100, 5, 5, 0]);
        let p = MigrationPlanner::default();
        let b = p.plan(&l, &[0, 0, 0, 1], 2);
        assert_eq!(
            b.moves,
            vec![VertexMove {
                vertex: 0,
                from: 0,
                to: 1,
                cost: 100
            }]
        );
        // The 5-cost followers stay: after the hot move the totals are
        // [10, 100], and 100 + 5 < 10 fails — the pair-maximum rule stops
        // exactly where another move would start oscillating.
    }

    #[test]
    fn budget_caps_moves_and_source_never_empties() {
        let loads: Vec<u64> = (0..20).map(|i| 100 - i as u64).collect();
        let l = ledger_with(&loads);
        let owner = vec![0u32; 20];
        // All on worker 0 of 4: only `budget` moves, never all 20.
        let p = MigrationPlanner::new(MigrationConfig {
            hysteresis: 1.0,
            budget: 6,
        });
        let b = p.plan(&l, &owner, 4);
        assert_eq!(b.len(), 6);
        assert!(b.moves.iter().all(|m| m.from == 0 && m.to != 0));
        // Costs emitted hottest-first.
        let costs: Vec<u64> = b.moves.iter().map(|m| m.cost).collect();
        let mut sorted = costs.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(costs, sorted);

        // Two masters, one must stay even with budget to spare.
        let l = ledger_with(&[50, 50, 0]);
        let b = p.plan(&l, &[0, 0, 1], 2);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn zero_cost_vertices_never_move() {
        let l = ledger_with(&[60, 0, 0, 0]);
        let p = MigrationPlanner::new(MigrationConfig {
            hysteresis: 1.0,
            budget: 8,
        });
        let b = p.plan(&l, &[0, 0, 1, 1], 2);
        // Vertex 0 is the only evidence-bearing master; 1 never moves.
        assert!(b.moves.iter().all(|m| m.cost > 0));
    }

    #[test]
    fn plan_is_deterministic_under_tied_loads() {
        let l = ledger_with(&[10, 10, 10, 10, 0, 0]);
        let p = MigrationPlanner::new(MigrationConfig {
            hysteresis: 1.0,
            budget: 2,
        });
        let a = p.plan(&l, &[0, 0, 0, 0, 1, 2], 3);
        let b = p.plan(&l, &[0, 0, 0, 0, 1, 2], 3);
        assert_eq!(a, b);
        // Ties break toward the lowest vertex id and lowest worker id.
        assert_eq!(a.moves[0].vertex, 0);
        assert_eq!(a.moves[0].to, 1);
    }

    #[test]
    fn single_worker_plans_nothing() {
        let l = ledger_with(&[100, 0]);
        assert!(MigrationPlanner::default().plan(&l, &[0, 0], 1).is_empty());
    }

    #[test]
    fn imbalance_metric() {
        assert_eq!(compute_imbalance(&[]), 0.0);
        assert_eq!(compute_imbalance(&[0, 0]), 0.0);
        assert_eq!(compute_imbalance(&[10, 10]), 1.0);
        assert!((compute_imbalance(&[30, 10]) - 1.5).abs() < 1e-12);
    }
}
