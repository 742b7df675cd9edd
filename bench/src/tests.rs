//! Tests that cross modules: seeded inputs, the names the binary emits
//! against `BENCHMARK.json`, and a tiny run of every workload.

use crate::adapter;
use crate::json::{self, Value};
use crate::measure::{self, Options};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::{Driver, WORKLOADS};

/// The smoke test, which in this crate's tests is small enough for a debug
/// build: every graph at 1/64 of benchmark size.
const TINY: Options = Options {
    seed: 3,
    seconds: 0.1,
    quick: true,
};

#[test]
fn same_seed_same_input_other_seed_other_input() {
    for w in &WORKLOADS {
        let a = adapter::generate(w, 5, 64.0);
        let b = adapter::generate(w, 5, 64.0);
        let c = adapter::generate(w, 6, 64.0);
        assert!(a.graph == b.graph, "{}: same seed, different graph", w.name);
        assert!(
            a.graph != c.graph,
            "{}: seeds 5 and 6 give one graph",
            w.name
        );
        assert_eq!(a.source, b.source, "{}", w.name);
        let edges = |i: &adapter::Input| -> Vec<_> {
            i.batches.iter().map(|(b, _)| b.add_edges.clone()).collect()
        };
        assert_eq!(edges(&a), edges(&b), "{}", w.name);
        if let Driver::Evolving { batches, .. } = w.driver {
            assert_eq!(a.batches.len(), batches);
            assert!(a.batches.iter().all(|(b, _)| !b.add_edges.is_empty()));
            assert_ne!(edges(&a), edges(&c), "{}: batches ignore the seed", w.name);
        } else {
            assert!(a.batches.is_empty(), "{}", w.name);
        }
    }
}

#[test]
fn seed_one_is_the_library_default_graph() {
    let w = crate::workloads::find("pr-gweb-migrate").unwrap();
    let ours = adapter::generate(w, 1, 1.0).graph;
    let theirs = cyclops_graph::Dataset::GWeb
        .generate_scaled(w.scale, cyclops_graph::Dataset::GWeb.default_seed());
    assert!(ours == theirs);
}

/// The evolving run is held to the final graph's fixed point tightly enough
/// that a run which ignored the mutation batches — all of them, or only the
/// last — is a failed run.
#[test]
fn evolving_validator_rejects_a_run_that_ignores_mutations() {
    let w = crate::workloads::find("pr-gweb-evolve").unwrap();
    let input = adapter::generate(w, 3, 64.0);
    let reference = adapter::reference_run(w, &input);
    let check = |values| adapter::validate(w, &input, values, &reference);
    assert_eq!(check(&reference.values), Ok(()));

    let mut ignoring = adapter::generate(w, 3, 64.0);
    ignoring.batches.pop();
    let last_ignored = adapter::reference_run(w, &ignoring).values;
    assert!(
        check(&last_ignored).is_err(),
        "last batch ignored, accepted"
    );
    ignoring.batches.clear();
    let all_ignored = adapter::reference_run(w, &ignoring).values;
    assert!(
        check(&all_ignored).is_err(),
        "every batch ignored, accepted"
    );
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")).unwrap()
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
}

#[test]
fn benchmark_json_names_exactly_what_the_binary_emits() {
    let b = benchmark_json();
    let keys: Vec<&str> = b
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = b.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (listed, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(field(listed, "name"), w.name);
        assert_eq!(field(listed, "why"), w.why);
    }

    let check = |listed: &[Value], defs: &[MetricDef]| {
        assert_eq!(listed.len(), defs.len());
        for (l, d) in listed.iter().zip(defs) {
            assert_eq!(field(l, "name"), d.name);
            assert_eq!(field(l, "unit"), d.unit, "{}", d.name);
            assert_eq!(field(l, "better"), d.better.label(), "{}", d.name);
            assert_eq!(
                l.get("bound").and_then(Value::as_f64),
                d.bound,
                "{}",
                d.name
            );
        }
    };
    check(b.get("end_to_end").unwrap().as_arr().unwrap(), &END_TO_END);
    check(b.get("per_layer").unwrap().as_arr().unwrap(), &PER_LAYER);

    assert_eq!(
        b.get("run_seconds").and_then(Value::as_f64),
        Some(crate::DEFAULT_SECONDS)
    );
    let strings = |key: &str| -> Vec<&str> {
        let items = b.get(key).unwrap().as_arr().unwrap();
        items.iter().map(|s| s.as_str().unwrap()).collect()
    };
    assert_eq!(strings("paths"), ["bench"]);
    let command = strings("command");
    assert_eq!(command.first(), Some(&"cargo"));
    assert!(command.contains(&"bench/Cargo.toml"));
    assert_eq!(command.last(), Some(&"run"));
}

#[test]
fn every_workload_runs_validates_and_emits_every_name() {
    for w in &WORKLOADS {
        for (traced, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let pass = if traced {
                measure::per_layer(w, TINY)
            } else {
                measure::end_to_end(w, TINY)
            };
            assert_eq!(
                pass.failed, 0,
                "{} traced={traced}: {:?}",
                w.name, pass.errors
            );
            assert!(pass.attempted >= 1);
            let names: Vec<&str> = pass.metrics.iter().map(|m| m.name.as_str()).collect();
            let declared: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(names, declared, "{}", w.name);
            for m in &pass.metrics {
                assert!(
                    m.value.is_finite() && m.value >= 0.0,
                    "{} {}",
                    w.name,
                    m.name
                );
            }
            // End-to-end metrics may never be zero: the contract forbids it.
            if !traced {
                for m in &pass.metrics {
                    assert!(m.value > 0.0, "{} {} is zero", w.name, m.name);
                }
            }
            let line = json::parse(&pass.contract_line()).unwrap();
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(
                line.get("metrics").unwrap().as_obj().unwrap().len(),
                defs.len()
            );
            assert_eq!(
                traced,
                !pass.spans.is_empty(),
                "spans only in the traced pass"
            );
        }
    }
}

#[test]
fn same_seed_same_counts() {
    let w = crate::workloads::find("pr-gweb-migrate").unwrap();
    let counts = |seed| {
        let pass = measure::end_to_end(w, Options { seed, ..TINY });
        ["plan_bytes", "supersteps", "vertex_updates"].map(|n| pass.metric(n).unwrap().value)
    };
    assert_eq!(counts(4), counts(4));
}
