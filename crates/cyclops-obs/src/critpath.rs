//! Critical-path extraction and straggler attribution for barrier-structured
//! runs.
//!
//! A BSP superstep is a barrier-closed region: every worker runs its work
//! phases (PRS, CMP, SND — §3.5) and then waits at the barrier (SYN) until
//! the slowest worker arrives. Wall clock therefore decomposes as a *chain*
//! of superstep spans, each span set by the slowest worker of that
//! superstep — the run's **critical path**. Fig 10-style phase breakdowns
//! show that barrier wait is large; this module answers the follow-up
//! question they cannot: *whose* work made everyone else wait, and in
//! *which phase*.
//!
//! The model is deliberately exact rather than statistical. For one
//! superstep with per-worker samples `(parse, compute, send, sync)`:
//!
//! - a worker's **work** is `parse + compute + send`;
//! - its **span** is `work + sync` (in an ideal measurement every worker's
//!   span is equal — they all leave the barrier together);
//! - the superstep's **critical-path span** is the maximum span over its
//!   workers;
//! - the **straggler** is the worker with the maximum *work* — the last
//!   arriver at the barrier, the one every other worker's SYN time waits
//!   for. Its dominant work phase is the *cause* the wait is attributed to.
//!
//! Every worker's barrier wait is then attributed: `sync` is wait caused by
//! the straggler's dominant phase (for the straggler itself it is pure
//! barrier-protocol overhead), and the non-negative remainder
//! `span − work − sync` is measurement residual (clock jitter between
//! workers). By construction the invariant
//!
//! ```text
//! work + wait + residual == critical-path span      (for every worker)
//! ```
//!
//! holds *exactly* — the property the attribution proptest pins. All
//! arithmetic saturates, so adversarial inputs cannot wrap.

/// One worker's phase nanoseconds for one superstep — the engine-agnostic
/// projection of a trace record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSample {
    /// Worker id.
    pub worker: u64,
    /// PRS nanoseconds.
    pub parse_ns: u64,
    /// CMP nanoseconds.
    pub compute_ns: u64,
    /// SND nanoseconds.
    pub send_ns: u64,
    /// SYN (barrier wait) nanoseconds.
    pub sync_ns: u64,
}

impl PhaseSample {
    /// Work time: everything except barrier wait.
    pub fn work_ns(&self) -> u64 {
        self.parse_ns
            .saturating_add(self.compute_ns)
            .saturating_add(self.send_ns)
    }

    /// Total span: work plus barrier wait.
    pub fn span_ns(&self) -> u64 {
        self.work_ns().saturating_add(self.sync_ns)
    }

    /// The dominant work phase (the attribution target when this sample is
    /// the straggler). Ties break toward the earlier phase in superstep
    /// order (PRS, then CMP, then SND), deterministically.
    pub fn dominant_phase(&self) -> Phase {
        let mut best = (Phase::Parse, self.parse_ns);
        if self.compute_ns > best.1 {
            best = (Phase::Compute, self.compute_ns);
        }
        if self.send_ns > best.1 {
            best = (Phase::Send, self.send_ns);
        }
        best.0
    }
}

/// The four superstep phases of the BSP execution model (§3.5), in
/// superstep order — the one phase vocabulary of the engines' timers, the
/// registry's `phase` label and the reports. As an attribution target,
/// [`Phase::Sync`] is the straggler's own barrier wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Message parsing (PRS) — delivering received messages to vertices.
    Parse,
    /// Vertex computation (CMP) — running the user compute function.
    Compute,
    /// Message sending (SND) — serializing and transmitting messages.
    Send,
    /// Global barrier (SYN) — waiting for all workers.
    Sync,
}

impl Phase {
    /// Every phase, in superstep order.
    pub const ALL: [Phase; 4] = [Phase::Parse, Phase::Compute, Phase::Send, Phase::Sync];

    /// Short lowercase name (`prs`/`cmp`/`snd`/`syn`): the registry's
    /// `phase` label and the reports' column names.
    pub fn name(self) -> &'static str {
        ["prs", "cmp", "snd", "syn"][self as usize]
    }

    /// Uppercase paper-style name (`PRS`/`CMP`/`SND`/`SYN`).
    pub fn label(self) -> &'static str {
        ["PRS", "CMP", "SND", "SYN"][self as usize]
    }
}

/// One worker's exact decomposition of a superstep's critical-path span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerAttribution {
    /// Worker id.
    pub worker: u64,
    /// The worker's own work (PRS + CMP + SND).
    pub work_ns: u64,
    /// Barrier wait, attributed to the superstep's straggler (for the
    /// straggler itself: barrier-protocol overhead, attributed to SYN).
    pub wait_ns: u64,
    /// Non-negative measurement residual: `span − work − wait`. Zero in an
    /// ideal trace; clock jitter between workers otherwise.
    pub residual_ns: u64,
}

/// The critical-path analysis of one superstep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuperstepPath {
    /// Superstep index.
    pub superstep: u64,
    /// Critical-path span: the maximum per-worker span.
    pub span_ns: u64,
    /// The worker with the maximum span (ties → lowest id); the worker
    /// whose record *is* this link of the critical-path chain.
    pub critical_worker: u64,
    /// The worker with the maximum work (ties → lowest id): the last
    /// barrier arriver that every other worker waited for.
    pub straggler: u64,
    /// The straggler's dominant work phase — what the wait is blamed on.
    pub straggler_phase: Phase,
    /// The straggler's work time.
    pub straggler_work_ns: u64,
    /// Total barrier wait of the *other* workers, attributed to
    /// `(straggler, straggler_phase)`.
    pub caused_wait_ns: u64,
    /// The straggler's own barrier wait: protocol overhead, not caused by
    /// any worker's work.
    pub barrier_ns: u64,
    /// Exact per-worker decomposition; for every entry
    /// `work + wait + residual == span_ns`.
    pub workers: Vec<WorkerAttribution>,
}

/// One `(worker, phase)` line of the run-level straggler ranking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StragglerShare {
    /// The straggling worker.
    pub worker: u64,
    /// Its dominant phase in the supersteps it straggled.
    pub phase: Phase,
    /// Total barrier wait it caused in other workers.
    pub caused_wait_ns: u64,
    /// How many supersteps it was the straggler with this phase.
    pub supersteps: u64,
}

/// The critical path of a whole run: one [`SuperstepPath`] per superstep,
/// chained by the barriers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Per-superstep links, in superstep order.
    pub supersteps: Vec<SuperstepPath>,
    /// Run critical path: the sum of the per-superstep spans.
    pub total_span_ns: u64,
    /// Sum of every worker's work over all supersteps.
    pub total_work_ns: u64,
    /// Sum of every worker's attributed barrier wait.
    pub total_wait_ns: u64,
    /// Sum of every worker's measurement residual.
    pub total_residual_ns: u64,
}

impl CriticalPath {
    /// Analyzes grouped samples: one `(superstep, samples)` entry per
    /// superstep, each with one [`PhaseSample`] per reporting worker.
    /// Supersteps with no samples are skipped.
    pub fn analyze(supersteps: impl IntoIterator<Item = (u64, Vec<PhaseSample>)>) -> CriticalPath {
        let mut cp = CriticalPath::default();
        for (superstep, samples) in supersteps {
            if samples.is_empty() {
                continue;
            }
            let link = analyze_superstep(superstep, &samples);
            cp.total_span_ns = cp.total_span_ns.saturating_add(link.span_ns);
            for w in &link.workers {
                cp.total_work_ns = cp.total_work_ns.saturating_add(w.work_ns);
                cp.total_wait_ns = cp.total_wait_ns.saturating_add(w.wait_ns);
                cp.total_residual_ns = cp.total_residual_ns.saturating_add(w.residual_ns);
            }
            cp.supersteps.push(link);
        }
        cp
    }

    /// The run-level straggler ranking: total caused wait per
    /// `(worker, phase)`, sorted by caused wait descending (ties: worker
    /// then phase ascending, deterministically).
    pub fn straggler_ranking(&self) -> Vec<StragglerShare> {
        let mut by_cause: std::collections::BTreeMap<(u64, Phase), (u64, u64)> =
            std::collections::BTreeMap::new();
        for s in &self.supersteps {
            let e = by_cause
                .entry((s.straggler, s.straggler_phase))
                .or_default();
            e.0 = e.0.saturating_add(s.caused_wait_ns);
            e.1 += 1;
        }
        let mut out: Vec<StragglerShare> = by_cause
            .into_iter()
            .map(
                |((worker, phase), (caused_wait_ns, supersteps))| StragglerShare {
                    worker,
                    phase,
                    caused_wait_ns,
                    supersteps,
                },
            )
            .collect();
        out.sort_by(|a, b| {
            b.caused_wait_ns
                .cmp(&a.caused_wait_ns)
                .then(a.worker.cmp(&b.worker))
                .then(a.phase.cmp(&b.phase))
        });
        out
    }

    /// Total barrier wait caused across workers (excludes the stragglers'
    /// own protocol overhead).
    pub fn total_caused_wait_ns(&self) -> u64 {
        self.supersteps
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.caused_wait_ns))
    }
}

fn analyze_superstep(superstep: u64, samples: &[PhaseSample]) -> SuperstepPath {
    // max span (ties → lowest worker id) sets the critical-path span.
    let critical = samples
        .iter()
        .fold(None::<&PhaseSample>, |best, s| match best {
            None => Some(s),
            Some(b) => {
                if s.span_ns() > b.span_ns() || (s.span_ns() == b.span_ns() && s.worker < b.worker)
                {
                    Some(s)
                } else {
                    Some(b)
                }
            }
        })
        .expect("non-empty samples");
    let span_ns = critical.span_ns();
    // max work (ties → lowest worker id) names the straggler.
    let straggler = samples
        .iter()
        .fold(None::<&PhaseSample>, |best, s| match best {
            None => Some(s),
            Some(b) => {
                if s.work_ns() > b.work_ns() || (s.work_ns() == b.work_ns() && s.worker < b.worker)
                {
                    Some(s)
                } else {
                    Some(b)
                }
            }
        })
        .expect("non-empty samples");
    let straggler_id = straggler.worker;
    let straggler_phase = straggler.dominant_phase();

    let mut workers = Vec::with_capacity(samples.len());
    let mut caused_wait_ns = 0u64;
    let mut barrier_ns = 0u64;
    for s in samples {
        let work_ns = s.work_ns();
        // Clip the wait so `work + wait` never exceeds the sample's own
        // (saturating) span; residual then closes the gap to the superstep
        // span exactly, and both terms stay non-negative by construction.
        let wait_ns = s.span_ns().saturating_sub(work_ns);
        let residual_ns = span_ns.saturating_sub(s.span_ns());
        if s.worker == straggler_id {
            barrier_ns = barrier_ns.saturating_add(wait_ns);
        } else {
            caused_wait_ns = caused_wait_ns.saturating_add(wait_ns);
        }
        workers.push(WorkerAttribution {
            worker: s.worker,
            work_ns,
            wait_ns,
            residual_ns,
        });
    }
    SuperstepPath {
        superstep,
        span_ns,
        critical_worker: critical.worker,
        straggler: straggler_id,
        straggler_phase,
        straggler_work_ns: straggler.work_ns(),
        caused_wait_ns,
        barrier_ns,
        workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(worker: u64, prs: u64, cmp: u64, snd: u64, syn: u64) -> PhaseSample {
        PhaseSample {
            worker,
            parse_ns: prs,
            compute_ns: cmp,
            send_ns: snd,
            sync_ns: syn,
        }
    }

    #[test]
    fn straggler_is_max_work_and_wait_is_attributed_to_its_dominant_phase() {
        // Worker 1 computes for 900 while 0 and 2 wait.
        let cp = CriticalPath::analyze([(
            0u64,
            vec![
                sample(0, 50, 100, 50, 800),
                sample(1, 50, 900, 50, 0),
                sample(2, 100, 100, 100, 700),
            ],
        )]);
        let s = &cp.supersteps[0];
        assert_eq!(s.straggler, 1);
        assert_eq!(s.straggler_phase, Phase::Compute);
        assert_eq!(s.straggler_work_ns, 1000);
        assert_eq!(s.span_ns, 1000); // all spans equal here
        assert_eq!(s.caused_wait_ns, 800 + 700);
        assert_eq!(s.barrier_ns, 0);
        assert_eq!(s.critical_worker, 0); // tie on span → lowest id
    }

    #[test]
    fn per_worker_decomposition_sums_exactly_to_the_span() {
        // Deliberately jittery: spans differ, so residuals are nonzero.
        let cp = CriticalPath::analyze([(
            3u64,
            vec![
                sample(0, 10, 20, 5, 100),
                sample(1, 80, 40, 10, 0),
                sample(2, 1, 2, 3, 4),
            ],
        )]);
        let s = &cp.supersteps[0];
        for w in &s.workers {
            assert_eq!(
                w.work_ns + w.wait_ns + w.residual_ns,
                s.span_ns,
                "worker {} must decompose the span exactly",
                w.worker
            );
        }
        assert_eq!(s.superstep, 3);
    }

    #[test]
    fn run_totals_chain_superstep_spans() {
        let cp = CriticalPath::analyze([
            (0u64, vec![sample(0, 0, 100, 0, 0), sample(1, 0, 40, 0, 60)]),
            (1u64, vec![sample(0, 0, 30, 0, 50), sample(1, 0, 80, 0, 0)]),
        ]);
        assert_eq!(cp.total_span_ns, 100 + 80);
        assert_eq!(cp.total_wait_ns, 60 + 50);
        assert_eq!(cp.total_caused_wait_ns(), 60 + 50);
        assert_eq!(cp.supersteps[0].straggler, 0);
        assert_eq!(cp.supersteps[1].straggler, 1);
    }

    #[test]
    fn ranking_accumulates_per_worker_phase_and_sorts_by_caused_wait() {
        let cp = CriticalPath::analyze([
            (0u64, vec![sample(0, 0, 100, 0, 0), sample(1, 0, 10, 0, 90)]),
            (
                1u64,
                vec![sample(0, 0, 200, 0, 0), sample(1, 0, 20, 0, 180)],
            ),
            (2u64, vec![sample(0, 0, 5, 0, 45), sample(1, 50, 0, 0, 0)]),
        ]);
        let rank = cp.straggler_ranking();
        assert_eq!(rank.len(), 2);
        assert_eq!(rank[0].worker, 0);
        assert_eq!(rank[0].phase, Phase::Compute);
        assert_eq!(rank[0].caused_wait_ns, 90 + 180);
        assert_eq!(rank[0].supersteps, 2);
        assert_eq!(rank[1].worker, 1);
        assert_eq!(rank[1].phase, Phase::Parse);
        assert_eq!(rank[1].caused_wait_ns, 45);
    }

    #[test]
    fn dominant_phase_ties_break_in_superstep_order() {
        assert_eq!(sample(0, 5, 5, 5, 0).dominant_phase(), Phase::Parse);
        assert_eq!(sample(0, 5, 9, 9, 0).dominant_phase(), Phase::Compute);
        assert_eq!(sample(0, 0, 0, 1, 0).dominant_phase(), Phase::Send);
    }

    #[test]
    fn saturating_arithmetic_survives_adversarial_inputs() {
        let cp = CriticalPath::analyze([(
            0u64,
            vec![
                sample(0, u64::MAX, u64::MAX, u64::MAX, u64::MAX),
                sample(1, 0, 0, 0, 0),
            ],
        )]);
        let s = &cp.supersteps[0];
        assert_eq!(s.span_ns, u64::MAX);
        for w in &s.workers {
            assert_eq!(
                w.work_ns
                    .saturating_add(w.wait_ns)
                    .saturating_add(w.residual_ns),
                s.span_ns
            );
        }
    }

    #[test]
    fn empty_supersteps_are_skipped() {
        let cp = CriticalPath::analyze([(0u64, vec![]), (1u64, vec![sample(0, 1, 2, 3, 4)])]);
        assert_eq!(cp.supersteps.len(), 1);
        assert_eq!(cp.supersteps[0].superstep, 1);
    }
}
