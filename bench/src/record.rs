//! What one benchmark pass writes down: named metrics with their dispersion,
//! the spans recorded around each layer call, and the load on the box.

use crate::json::Value;
use crate::metrics::MetricDef;
use crate::stats::{summarize, Summary};

#[derive(Clone, Debug, PartialEq)]
pub struct MetricValue {
    pub name: String,
    pub unit: String,
    /// The fastest sample for clocks (see `measure.rs` for why not the
    /// median), the count or reading otherwise.
    pub value: f64,
    /// Present when the metric was sampled.
    pub dispersion: Option<Dispersion>,
}

/// How a sampled metric varied within one pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dispersion {
    /// Over the fastest sample of each sub-window: several estimates of the
    /// reported value, each from its own share of the pass. Their q1–q3
    /// spread is what `compare` holds against the metric's bound.
    pub windows: Summary,
    /// Over every sample: what a caller saw call by call.
    pub calls: Summary,
}

/// A span the benchmark recorded around one of its own calls into a layer.
/// Spans are flat: the first, `pass`, covers the whole pass, and every
/// other one lies inside it and beside the rest.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
}

/// One pass (end-to-end or per-layer) over one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct PassRecord {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Engine runs made, and how many of them panicked or failed validation.
    pub attempted: u64,
    pub failed: u64,
    /// First few validation messages, for the person reading a failure.
    pub errors: Vec<String>,
    pub metrics: Vec<MetricValue>,
    pub spans: Vec<Span>,
    /// `/proc/loadavg` before and after: a loaded box explains a slow run.
    pub loadavg: [String; 2],
}

impl PassRecord {
    pub fn metric(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line the benchmark contract asks for: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Value::obj([
                                    ("value", Value::Num(m.value)),
                                    ("unit", Value::str(m.unit.as_str())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .write()
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("workload", Value::str(self.workload.as_str())),
            ("seed", Value::Num(self.seed as f64)),
            ("traced", Value::Bool(self.traced)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "errors",
                Value::Arr(self.errors.iter().map(|e| Value::str(e.as_str())).collect()),
            ),
            (
                "metrics",
                Value::Arr(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let mut fields = vec![
                                ("name".to_string(), Value::str(m.name.as_str())),
                                ("unit".to_string(), Value::str(m.unit.as_str())),
                                ("value".to_string(), Value::Num(m.value)),
                            ];
                            if let Some(d) = m.dispersion {
                                fields.push(("windows".to_string(), d.windows.to_json()));
                                fields.push(("calls".to_string(), d.calls.to_json()));
                            }
                            Value::Obj(fields)
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Value::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Value::obj([
                                ("name", Value::str(s.name.as_str())),
                                ("start_s", Value::Num(s.start_s)),
                                ("end_s", Value::Num(s.end_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "loadavg",
                Value::Arr(
                    self.loadavg
                        .iter()
                        .map(|l| Value::str(l.as_str()))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<PassRecord> {
        let strings = |key: &str| -> Option<Vec<String>> {
            v.get(key)?
                .as_arr()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect()
        };
        let loadavg = strings("loadavg")?;
        Some(PassRecord {
            workload: v.get("workload")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_f64()? as u64,
            traced: matches!(v.get("traced")?, Value::Bool(true)),
            attempted: v.get("attempted")?.as_f64()? as u64,
            failed: v.get("failed")?.as_f64()? as u64,
            errors: strings("errors")?,
            metrics: v
                .get("metrics")?
                .as_arr()?
                .iter()
                .map(|m| {
                    Some(MetricValue {
                        name: m.get("name")?.as_str()?.to_string(),
                        unit: m.get("unit")?.as_str()?.to_string(),
                        value: m.get("value")?.as_f64()?,
                        dispersion: match (m.get("windows"), m.get("calls")) {
                            (Some(w), Some(c)) => Some(Dispersion {
                                windows: Summary::from_json(w)?,
                                calls: Summary::from_json(c)?,
                            }),
                            _ => None,
                        },
                    })
                })
                .collect::<Option<_>>()?,
            spans: v
                .get("spans")?
                .as_arr()?
                .iter()
                .map(|s| {
                    Some(Span {
                        name: s.get("name")?.as_str()?.to_string(),
                        start_s: s.get("start_s")?.as_f64()?,
                        end_s: s.get("end_s")?.as_f64()?,
                    })
                })
                .collect::<Option<_>>()?,
            loadavg: [loadavg.first()?.clone(), loadavg.get(1)?.clone()],
        })
    }
}

/// Collects a pass's metrics against the declared list: setting a name the
/// list does not have is a bug, and every declared name is emitted (zero
/// where the workload does not exercise the layer).
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<Option<(f64, Option<Dispersion>)>>,
}

impl MetricSet {
    pub fn new(defs: &'static [MetricDef]) -> MetricSet {
        MetricSet {
            defs,
            values: vec![None; defs.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.put(name, value, None);
    }

    /// Sets a sampled metric from its samples, grouped by the sub-window
    /// they were taken in: the value is the fastest of them all.
    pub fn set_windows(&mut self, name: &str, windows: &[Vec<f64>]) {
        let fastest: Vec<f64> = windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| w.iter().copied().fold(f64::INFINITY, f64::min))
            .collect();
        let d = Dispersion {
            windows: summarize(&fastest),
            calls: summarize(&windows.concat()),
        };
        self.put(name, d.windows.min, Some(d));
    }

    fn put(&mut self, name: &str, value: f64, dispersion: Option<Dispersion>) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        // JSON has no NaN; a degenerate ratio is reported as zero.
        let value = if value.is_finite() { value } else { 0.0 };
        self.values[i] = Some((value, dispersion));
    }

    pub fn finish(self) -> Vec<MetricValue> {
        self.defs
            .iter()
            .zip(self.values)
            .map(|(d, v)| {
                let (value, dispersion) = v.unwrap_or((0.0, None));
                MetricValue {
                    name: d.name.to_string(),
                    unit: d.unit.to_string(),
                    value,
                    dispersion,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::metrics::END_TO_END;

    fn sample() -> PassRecord {
        let mut set = MetricSet::new(&END_TO_END);
        set.set_windows("run_s", &[vec![0.5, 0.75], vec![], vec![0.25, 1.0, 0.3]]);
        set.set("supersteps", 20.0);
        set.set("plan_bytes", f64::NAN);
        PassRecord {
            workload: "pr-wiki".into(),
            seed: 7,
            traced: false,
            attempted: 4,
            failed: 0,
            errors: vec!["none \"yet\"".into()],
            metrics: set.finish(),
            spans: vec![
                Span {
                    name: "pass".into(),
                    start_s: 0.0,
                    end_s: 2.5,
                },
                Span {
                    name: "run".into(),
                    start_s: 0.5,
                    end_s: 1.25,
                },
            ],
            loadavg: [
                "0.10 0.20 0.30 1/100 1".into(),
                "0.5 0.2 0.3 2/100 2".into(),
            ],
        }
    }

    #[test]
    fn record_round_trips_through_json_text() {
        let r = sample();
        let text = r.to_json().write_pretty();
        assert_eq!(PassRecord::from_json(&json::parse(&text).unwrap()), Some(r));
    }

    #[test]
    fn every_declared_metric_is_emitted_in_order() {
        let r = sample();
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, declared);
        // The fastest call of all; one estimate per non-empty sub-window.
        let run = r.metric("run_s").unwrap();
        assert_eq!(run.value, 0.25);
        let d = run.dispersion.unwrap();
        assert_eq!((d.windows.n, d.windows.min, d.windows.max), (2, 0.25, 0.5));
        assert_eq!((d.calls.n, d.calls.median), (5, 0.5));
        assert_eq!(r.metric("plan_bytes").unwrap().value, 0.0);
        assert_eq!(r.metric("setup_s").unwrap().value, 0.0);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_a_bug() {
        MetricSet::new(&END_TO_END).set("nope", 1.0);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = sample().contract_line();
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let run = v.get("metrics").unwrap().get("run_s").unwrap();
        let keys: Vec<&str> = run
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["value", "unit"]);
        assert!(!line.contains('\n'));
    }
}
