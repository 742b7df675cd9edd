//! Determinism and fault-tolerance integration tests.
//!
//! Cyclops retains BSP's "synchronous and deterministic nature" (§3): for a
//! fixed seed and partition, every run must be bitwise identical, whatever
//! the thread interleaving. Checkpoint/restore (§3.6) must converge to the
//! same answer after a simulated crash at any checkpoint.

use cyclops::prelude::*;
use cyclops_algos::sssp::CyclopsSssp;
use cyclops_bsp::{run_bsp, run_bsp_from_checkpoint, BspConfig};
use cyclops_engine::run_cyclops_from_checkpoint;

fn capped(cluster: ClusterSpec, max_supersteps: usize) -> CyclopsConfig {
    CyclopsConfig {
        cluster,
        max_supersteps,
        ..Default::default()
    }
}

#[test]
fn cyclops_runs_are_bitwise_deterministic() {
    let g = Dataset::GWeb.generate_scaled(0.05, 1);
    let p = HashPartitioner.partition(&g, 3);
    let cluster = ClusterSpec::mt(3, 2, 2);
    let pagerank = CyclopsPageRank { epsilon: 1e-8 };
    let runs: Vec<Vec<f64>> = (0..3)
        .map(|_| run_cyclops(&pagerank, &g, &p, &capped(cluster, 300)).values)
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}

#[test]
fn sssp_deterministic_across_thread_counts() {
    let g = Dataset::RoadCa.generate_scaled(0.05, 2);
    let p = HashPartitioner.partition(&g, 4);
    let sssp = CyclopsSssp { source: 0 };
    let a = run_cyclops(&sssp, &g, &p, &capped(ClusterSpec::flat(4, 1), 100_000));
    // Same 4 workers (and the same partition), but 3 compute threads and 2
    // receivers inside each.
    let b = run_cyclops(&sssp, &g, &p, &capped(ClusterSpec::mt(4, 3, 2), 100_000));
    assert_eq!(a.values, b.values);
}

#[test]
fn cyclops_crash_recovery_from_every_checkpoint() {
    let g = Dataset::Amazon.generate_scaled(0.05, 3);
    let p = HashPartitioner.partition(&g, 4);
    let config = CyclopsConfig {
        cluster: ClusterSpec::flat(2, 2),
        max_supersteps: 60,
        checkpoint_every: Some(7),
        ..Default::default()
    };
    let program = CyclopsPageRank { epsilon: 1e-7 };
    let full = run_cyclops(&program, &g, &p, &config);
    assert!(
        full.checkpoints.len() >= 2,
        "expected several checkpoints, got {}",
        full.checkpoints.len()
    );
    for cp in &full.checkpoints {
        let resumed = run_cyclops_from_checkpoint(
            &program,
            &g,
            &p,
            &CyclopsConfig {
                checkpoint_every: None,
                ..config.clone()
            },
            cp,
        );
        for (a, b) in full.values.iter().zip(&resumed.values) {
            assert!(
                (a - b).abs() < 1e-12,
                "resume from superstep {} diverged: {a} vs {b}",
                cp.superstep
            );
        }
    }
}

#[test]
fn bsp_crash_recovery_preserves_results() {
    use cyclops_algos::pagerank::BspPageRank;
    let g = Dataset::Amazon.generate_scaled(0.05, 4);
    let p = HashPartitioner.partition(&g, 4);
    let config = BspConfig {
        cluster: ClusterSpec::flat(2, 2),
        max_supersteps: 40,
        checkpoint_every: Some(9),
        ..Default::default()
    };
    let program = BspPageRank { epsilon: 1e-7 };
    let full = run_bsp(&program, &g, &p, &config);
    assert!(!full.checkpoints.is_empty());
    let cp = full.checkpoints.last().unwrap();
    let resumed = run_bsp_from_checkpoint(
        &program,
        &g,
        &p,
        &BspConfig {
            checkpoint_every: None,
            ..config
        },
        cp,
    );
    for (a, b) in full.values.iter().zip(&resumed.values) {
        assert!((a - b).abs() < 1e-12);
    }
}

#[test]
fn cyclops_checkpoints_are_smaller_than_bsp_checkpoints() {
    // §3.6: Cyclops does not save replicas or in-flight messages.
    use cyclops_algos::pagerank::BspPageRank;
    let g = Dataset::GWeb.generate_scaled(0.05, 5);
    let p = HashPartitioner.partition(&g, 4);
    let cluster = ClusterSpec::flat(2, 2);

    let bsp = run_bsp(
        &BspPageRank { epsilon: 1e-9 },
        &g,
        &p,
        &BspConfig {
            cluster,
            max_supersteps: 30,
            checkpoint_every: Some(10),
            ..Default::default()
        },
    );
    let cy = run_cyclops(
        &CyclopsPageRank { epsilon: 1e-9 },
        &g,
        &p,
        &CyclopsConfig {
            cluster,
            max_supersteps: 30,
            checkpoint_every: Some(10),
            ..Default::default()
        },
    );
    let bsp_cp = bsp.checkpoints.first().expect("bsp checkpoint");
    let cy_cp = cy.checkpoints.first().expect("cyclops checkpoint");
    assert!(
        cy_cp.storage_bytes() < bsp_cp.storage_bytes(),
        "cyclops {} vs bsp {} bytes",
        cy_cp.storage_bytes(),
        bsp_cp.storage_bytes()
    );
}

#[test]
fn replica_invariant_holds_under_thread_stress() {
    // Debug builds verify the at-most-one-message-per-replica invariant
    // inside DisjointSlots; drive a write-heavy workload through many
    // receiver threads to exercise it.
    let g = Dataset::Wiki.generate_scaled(0.02, 6);
    let p = HashPartitioner.partition(&g, 3);
    let cluster = ClusterSpec::mt(3, 4, 4);
    let r = run_cyclops(
        &CyclopsPageRank { epsilon: 0.0 },
        &g,
        &p,
        &capped(cluster, 15),
    );
    assert_eq!(r.supersteps, 15);
}
