//! Every metric the benchmark emits, by name: unit, direction, and how
//! `compare` judges it. `BENCHMARK.json` lists the same names; a test keeps
//! the two equal.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How `compare` judges a metric between two records of one seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// A clock or a memory high-water mark: the new value may be worse than
    /// the old by at most the metric's `bound`; a metric whose own
    /// sub-window spread is wider than the bound makes the row `unresolved`.
    Bounded,
    /// A count the program repeats exactly for a given seed: any worsening
    /// is a regression.
    Exact,
    /// Reported, never gated: a single layer's number explains an
    /// end-to-end change, it does not justify one.
    Info,
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub gate: Gate,
    /// The `bound` of the metric's `BENCHMARK.json` entry: every end-to-end
    /// metric has one, no per-layer metric does. The driver holds medians
    /// over ten *different* seeds against it, so an `Exact` count carries
    /// one too: three times its widest q1–q3 spread over ten seeds, whose
    /// graphs differ (README.md has the measurements).
    pub bound: Option<f64>,
}

use Better::{Higher, Lower};
use Gate::{Bounded, Exact, Info};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    gate: Gate,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        gate,
        bound: Some(bound),
    }
}

const fn m(name: &'static str, unit: &'static str, better: Better, gate: Gate) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        gate,
        bound: None,
    }
}

/// What a user of the system sees, measured with tracing off. README.md
/// says where each bound comes from. The clocks have the widest the contract
/// allows (no bound is larger than `setup_s`'s, as it asks): in a noisy hour
/// on the shared boxes this runs on, ten seeds of one workload spread up to
/// 21 % between their quartiles, and the contract refuses a benchmark whose
/// spread exceeds its own bound. Memory, read from fresh processes, spreads
/// under 4 % and gets the issue's 10 %.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("run_s", "s", Lower, Bounded, 0.25),
    e2e("setup_s", "s", Lower, Bounded, 0.25),
    e2e("peak_rss_mb", "MB", Lower, Bounded, 0.10),
    e2e("plan_bytes", "B", Lower, Exact, 0.05),
    e2e("supersteps", "count", Lower, Exact, 0.25),
    e2e("vertex_updates", "count", Lower, Exact, 0.15),
];

/// Single layers, from the separate traced pass. Layer = prefix = module.
pub const PER_LAYER: [MetricDef; 58] = [
    // cyclops-graph: input generation and the single-thread reference.
    m("graph.vertices", "count", Higher, Info),
    m("graph.edges", "count", Higher, Info),
    m("graph.gen_s", "s", Lower, Info),
    m("graph.ref_run_s", "s", Lower, Info),
    m("baseline.cost_vs_ref", "x", Lower, Info),
    // cyclops-partition.
    m("partition.partition_s", "s", Lower, Info),
    m("partition.vertices_per_s", "1/s", Higher, Info),
    m("partition.edge_cut", "count", Lower, Info),
    m("partition.balance", "x", Lower, Info),
    m("partition.replication_factor", "x", Lower, Info),
    m("partition.plan_moves_s", "s", Lower, Info),
    // cyclops-engine::plan.
    m("plan.build_s", "s", Lower, Info),
    m("plan.vertices_per_s", "1/s", Higher, Info),
    m("plan.bytes_plan", "B", Lower, Info),
    m("plan.bytes_replicas", "B", Lower, Info),
    m("plan.bytes_direct_slots", "B", Lower, Info),
    m("plan.replicas", "count", Lower, Info),
    // cyclops-engine::engine. Phase times are thread-seconds summed over
    // workers, as `SuperstepStats::phase_times` reports them.
    m("engine.loop_s", "s", Lower, Info),
    m("engine.call_overhead_s", "s", Lower, Info),
    m("engine.prs_s", "s", Lower, Info),
    m("engine.cmp_s", "s", Lower, Info),
    m("engine.snd_s", "s", Lower, Info),
    m("engine.syn_s", "s", Lower, Info),
    m("engine.syn_share", "share", Lower, Info),
    m("engine.ns_per_superstep", "ns", Lower, Info),
    m("engine.updates_per_s", "1/s", Higher, Info),
    m("engine.gather_edges_per_s", "1/s", Higher, Info),
    // The two traffic counts are zero on the shared-memory workload, so
    // they cannot be end-to-end metrics of the contract; `compare` still
    // holds them to "may not worsen at all".
    m("engine.messages", "count", Lower, Exact),
    m("engine.wire_bytes", "B", Lower, Exact),
    // cyclops-net::codec.
    m("codec.encode_mb_s", "MB/s", Higher, Info),
    m("codec.decode_mb_s", "MB/s", Higher, Info),
    m("codec.bytes_per_update", "B", Lower, Info),
    m("codec.dense_batches", "count", Lower, Info),
    m("codec.sparse_batches", "count", Lower, Info),
    m("codec.saved_bytes", "B", Higher, Info),
    // cyclops-net::transport.
    m("transport.send_drain_mb_s", "MB/s", Higher, Info),
    m("transport.batches", "count", Lower, Info),
    m("transport.peak_queue_bytes", "B", Lower, Info),
    m("transport.lock_contentions", "count", Lower, Info),
    // cyclops-net::barrier.
    m("barrier.ns_per_wait", "ns", Lower, Info),
    m("barrier.protocol_messages", "count", Lower, Info),
    // cyclops-engine::migrate (zero except on pr-gweb-migrate).
    m("migrate.epochs", "count", Lower, Info),
    m("migrate.moves", "count", Lower, Info),
    m("migrate.bytes", "B", Lower, Info),
    m("migrate.apply_s", "s", Lower, Info),
    m("migrate.driver_overhead_s", "s", Lower, Info),
    // cyclops-engine::mutation (zero except on pr-gweb-evolve).
    m("mutation.apply_s", "s", Lower, Info),
    m("mutation.rebuild_s", "s", Lower, Info),
    m("mutation.loop_s", "s", Lower, Info),
    m("mutation.supersteps", "count", Lower, Info),
    // cyclops-net::trace: what the observer costs.
    m("trace.overhead_ratio", "x", Lower, Info),
    m("trace.records", "count", Lower, Info),
    m("trace.jsonl_bytes", "B", Lower, Info),
    // cyclops-bsp: the Hama baseline (zero where it is not run).
    m("bsp.run_s", "s", Lower, Info),
    m("bsp.messages", "count", Lower, Info),
    m("bsp.wire_bytes", "B", Lower, Info),
    m("baseline.speedup_vs_hama", "x", Higher, Info),
    m("baseline.msg_ratio_vs_hama", "x", Higher, Info),
];

#[cfg(test)]
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

#[cfg(test)]
/// The naming rule of `BENCHMARK.json`: starts with a letter or digit, then
/// at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// The unit rule: at most 16 of letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_follow_the_contract() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{} {}", d.name, d.unit);
            assert!(
                all[..i].iter().all(|o| o.name != d.name),
                "{} twice",
                d.name
            );
        }
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_unit("a b") && !valid_unit("seventeen_letters"));
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_and_setup_has_the_largest() {
        let setup = find("setup_s").unwrap().bound.unwrap();
        for d in &END_TO_END {
            let b = d.bound.expect(d.name);
            assert!(b > 0.0 && b <= setup && b <= 0.25, "{}", d.name);
            assert_ne!(d.gate, Info, "{}", d.name);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn per_layer_rows_carry_their_layer() {
        for d in &PER_LAYER {
            assert!(d.name.contains('.'), "{} has no layer prefix", d.name);
        }
    }
}
