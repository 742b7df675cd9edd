//! Property-based tests of the critical-path attribution model.
//!
//! The headline invariant of [`CriticalPath::analyze`] is *exactness*: for
//! every worker in every superstep, `work + wait + residual == span` of
//! that superstep's critical path — attributed time is an exact partition
//! of the barrier-to-barrier span, not an approximation. These tests drive
//! the analyzer with arbitrary multi-worker synthetic traces and pin that
//! partition, the per-superstep chain sum, and the tie-break determinism.

use cyclops::obs::{CriticalPath, Phase, PhaseSample};
use proptest::prelude::*;

/// An arbitrary per-worker phase sample. Phase durations are kept below
/// 2^48 ns (~3 days) so per-superstep sums cannot overflow u64 even with
/// 64 workers; the analyzer itself saturates, but the test oracle adds.
fn arb_sample() -> impl Strategy<Value = PhaseSample> {
    (0u64..1 << 48, 0u64..1 << 48, 0u64..1 << 48, 0u64..1 << 48).prop_map(
        |(parse_ns, compute_ns, send_ns, sync_ns)| PhaseSample {
            worker: 0,
            parse_ns,
            compute_ns,
            send_ns,
            sync_ns,
        },
    )
}

/// A run of 1..=12 supersteps over a fixed roster of 1..=8 workers.
fn arb_run() -> impl Strategy<Value = Vec<(u64, Vec<PhaseSample>)>> {
    (1usize..9).prop_flat_map(|workers| {
        prop::collection::vec(
            prop::collection::vec(arb_sample(), workers..workers + 1).prop_map(
                |mut samples: Vec<PhaseSample>| {
                    for (w, s) in samples.iter_mut().enumerate() {
                        s.worker = w as u64;
                    }
                    samples
                },
            ),
            1..13,
        )
        .prop_map(|steps| {
            steps
                .into_iter()
                .enumerate()
                .map(|(i, samples)| (i as u64, samples))
                .collect()
        })
    })
}

proptest! {
    /// For every worker of every superstep, the attributed triple is an
    /// exact partition of that superstep's critical-path span.
    #[test]
    fn attribution_sums_exactly_to_the_critical_path_span(run in arb_run()) {
        let cp = CriticalPath::analyze(run.clone());
        prop_assert_eq!(cp.supersteps.len(), run.len());
        for path in &cp.supersteps {
            for w in &path.workers {
                let total = w.work_ns + w.wait_ns + w.residual_ns;
                prop_assert_eq!(
                    total, path.span_ns,
                    "superstep {} worker {}: {} + {} + {} != span {}",
                    path.superstep, w.worker, w.work_ns, w.wait_ns, w.residual_ns, path.span_ns
                );
            }
        }
    }

    /// The run-level critical path is exactly the chain of per-superstep
    /// maxima, and the run-level totals are exactly the per-superstep sums.
    #[test]
    fn run_totals_are_exact_chain_sums(run in arb_run()) {
        let cp = CriticalPath::analyze(run.clone());
        let span_sum: u64 = cp.supersteps.iter().map(|p| p.span_ns).sum();
        prop_assert_eq!(cp.total_span_ns, span_sum);
        let expected_span: u64 = run
            .iter()
            .map(|(_, samples)| samples.iter().map(|s| s.span_ns()).max().unwrap_or(0))
            .sum();
        prop_assert_eq!(cp.total_span_ns, expected_span);
        let work_sum: u64 = cp
            .supersteps
            .iter()
            .flat_map(|p| p.workers.iter().map(|w| w.work_ns))
            .sum();
        prop_assert_eq!(cp.total_work_ns, work_sum);
        // Exactness lifts to the aggregate: pool == workers × span chain.
        let pool = cp.total_work_ns + cp.total_wait_ns + cp.total_residual_ns;
        let workers = run.first().map(|(_, s)| s.len() as u64).unwrap_or(0);
        prop_assert_eq!(pool, span_sum * workers);
    }

    /// The critical worker and straggler are the argmax of span and work
    /// respectively, with ties broken toward the lowest worker id — the
    /// determinism contract `why-slow` and the golden report rely on.
    #[test]
    fn straggler_is_the_deterministic_work_argmax(run in arb_run()) {
        let cp = CriticalPath::analyze(run.clone());
        for (path, (_, samples)) in cp.supersteps.iter().zip(&run) {
            let max_span = samples.iter().map(|s| s.span_ns()).max().unwrap();
            let expected_cw = samples.iter().find(|s| s.span_ns() == max_span).unwrap().worker;
            prop_assert_eq!(path.critical_worker, expected_cw);
            let max_work = samples.iter().map(|s| s.work_ns()).max().unwrap();
            let expected_straggler =
                samples.iter().find(|s| s.work_ns() == max_work).unwrap().worker;
            prop_assert_eq!(path.straggler, expected_straggler);
        }
        // Analysis is a pure function: re-running is byte-identical.
        let again = CriticalPath::analyze(run);
        prop_assert_eq!(format!("{cp:?}"), format!("{again:?}"));
    }

    /// Caused wait + the straggler's own barrier time account for every
    /// nanosecond of sync across the superstep's workers.
    #[test]
    fn caused_wait_partitions_sync_time(run in arb_run()) {
        let cp = CriticalPath::analyze(run.clone());
        for (path, (_, samples)) in cp.supersteps.iter().zip(&run) {
            let wait_sum: u64 = path.workers.iter().map(|w| w.wait_ns).sum();
            prop_assert_eq!(path.caused_wait_ns + path.barrier_ns, wait_sum);
            let sync_sum: u64 = samples.iter().map(|s| s.sync_ns).sum();
            prop_assert_eq!(wait_sum, sync_sum);
        }
        let rank_sum: u64 = cp.straggler_ranking().iter().map(|s| s.caused_wait_ns).sum();
        prop_assert_eq!(rank_sum, cp.total_caused_wait_ns());
    }
}

/// A single-worker run degenerates cleanly: span == own span, zero caused
/// wait, all sync attributed as the straggler's own barrier time.
#[test]
fn single_worker_has_no_caused_wait() {
    let cp = CriticalPath::analyze(vec![(
        0,
        vec![PhaseSample {
            worker: 0,
            parse_ns: 5,
            compute_ns: 10,
            send_ns: 3,
            sync_ns: 7,
        }],
    )]);
    let path = &cp.supersteps[0];
    assert_eq!(path.span_ns, 25);
    assert_eq!(path.caused_wait_ns, 0);
    assert_eq!(path.barrier_ns, 7);
    assert_eq!(path.straggler_phase, Phase::Compute);
    assert!(cp.straggler_ranking().is_empty() || cp.total_caused_wait_ns() == 0);
}
