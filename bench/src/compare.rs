//! `compare OLD.json NEW.json`: one row per workload × metric, judged by the
//! metric's gate. Counts that repeat exactly per seed may not worsen at all;
//! clocks and memory may worsen by their bound. What is compared is each
//! side's fastest sample, and what says whether that estimate is steady is
//! the q1–q3 spread of the same estimate taken per sub-window: wider than
//! the bound on either side, and the row cannot be called unchanged.

use crate::json::Value;
use crate::metrics::{Better, Gate, MetricDef, END_TO_END, PER_LAYER};
use crate::record::{MetricValue, PassRecord};

/// A full benchmark record: provenance plus both passes of every workload.
#[derive(Clone, Debug, PartialEq)]
pub struct SuiteRecord {
    pub provenance: Value,
    pub workloads: Vec<(PassRecord, PassRecord)>,
}

impl SuiteRecord {
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("schema", Value::Num(1.0)),
            ("provenance", self.provenance.clone()),
            (
                "workloads",
                Value::Arr(
                    self.workloads
                        .iter()
                        .map(|(e2e, layers)| {
                            Value::obj([
                                ("name", Value::str(e2e.workload.as_str())),
                                ("end_to_end", e2e.to_json()),
                                ("per_layer", layers.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<SuiteRecord> {
        Some(SuiteRecord {
            provenance: v.get("provenance")?.clone(),
            workloads: v
                .get("workloads")?
                .as_arr()?
                .iter()
                .map(|w| {
                    Some((
                        PassRecord::from_json(w.get("end_to_end")?)?,
                        PassRecord::from_json(w.get("per_layer")?)?,
                    ))
                })
                .collect::<Option<_>>()?,
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, or the same count.
    Ok,
    /// Better by more than the bound, or a lower count.
    Improved,
    /// A bounded metric worse by more than its bound.
    Regress,
    /// An exact count that got worse.
    Mismatch,
    /// Not worse beyond the bound, but one side's sub-window estimates
    /// spread wider than the bound, so "unchanged" cannot be claimed.
    Unresolved,
    /// A per-layer number: shown, never judged.
    Info,
    /// Present on one side only.
    Missing,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regress => "REGRESS",
            Verdict::Mismatch => "MISMATCH",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
            Verdict::Missing => "MISSING",
        }
    }

    /// Whether `compare` exits non-zero because of this row.
    pub fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Regress | Verdict::Mismatch | Verdict::Missing
        )
    }

    /// Whether two runs of the same build disagree on this row (`noise`).
    pub fn disagrees(self) -> bool {
        !matches!(self, Verdict::Ok | Verdict::Info)
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub old: f64,
    pub new: f64,
    pub verdict: Verdict,
}

/// How much worse `new` is than `old`, as a share of `old`; negative when
/// better. A zero base with a non-zero new value is infinitely worse.
fn worse_by(better: Better, old: f64, new: f64) -> f64 {
    let delta = match better {
        Better::Lower => new - old,
        Better::Higher => old - new,
    };
    if delta == 0.0 {
        0.0
    } else if old == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / old.abs()
    }
}

pub fn judge(def: &MetricDef, old: &MetricValue, new: &MetricValue) -> Verdict {
    let worse = worse_by(def.better, old.value, new.value);
    match def.gate {
        Gate::Info => Verdict::Info,
        Gate::Exact => {
            if worse > 0.0 {
                Verdict::Mismatch
            } else if worse < 0.0 {
                Verdict::Improved
            } else {
                Verdict::Ok
            }
        }
        Gate::Bounded => {
            let bound = def.bound.expect("a bounded metric declares its bound");
            let spread = |m: &MetricValue| m.dispersion.map_or(0.0, |d| d.windows.spread());
            if worse > bound {
                Verdict::Regress
            } else if spread(old) > bound || spread(new) > bound {
                Verdict::Unresolved
            } else if worse < -bound {
                Verdict::Improved
            } else {
                Verdict::Ok
            }
        }
    }
}

fn pass_rows(defs: &[MetricDef], old: &PassRecord, new: &PassRecord, rows: &mut Vec<Row>) {
    for def in defs {
        let (o, n) = (old.metric(def.name), new.metric(def.name));
        rows.push(Row {
            workload: old.workload.clone(),
            metric: def.name.to_string(),
            unit: def.unit.to_string(),
            old: o.map_or(f64::NAN, |m| m.value),
            new: n.map_or(f64::NAN, |m| m.value),
            verdict: match (o, n) {
                (Some(o), Some(n)) => judge(def, o, n),
                _ => Verdict::Missing,
            },
        });
    }
}

/// Every row of OLD against NEW, workloads in OLD's order. A workload NEW
/// lacks is one `Missing` row; failed runs are their own exact row.
pub fn compare(old: &SuiteRecord, new: &SuiteRecord) -> Vec<Row> {
    let mut rows = Vec::new();
    for (old_e2e, old_layers) in &old.workloads {
        let name = &old_e2e.workload;
        let Some((new_e2e, new_layers)) = new.workloads.iter().find(|(e, _)| &e.workload == name)
        else {
            rows.push(Row {
                workload: name.clone(),
                metric: "*".to_string(),
                unit: "-".to_string(),
                old: f64::NAN,
                new: f64::NAN,
                verdict: Verdict::Missing,
            });
            continue;
        };
        let failed = |e: &PassRecord, l: &PassRecord| (e.failed + l.failed) as f64;
        let (old_failed, new_failed) = (failed(old_e2e, old_layers), failed(new_e2e, new_layers));
        rows.push(Row {
            workload: name.clone(),
            metric: "failed_runs".to_string(),
            unit: "count".to_string(),
            old: old_failed,
            new: new_failed,
            verdict: if new_failed > old_failed || new_failed > 0.0 {
                Verdict::Mismatch
            } else {
                Verdict::Ok
            },
        });
        pass_rows(&END_TO_END, old_e2e, new_e2e, &mut rows);
        pass_rows(&PER_LAYER, old_layers, new_layers, &mut rows);
    }
    rows
}

/// The table `compare` prints; ratios are NEW ÷ OLD, base OLD.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<18} {:<30} {:<6} {:>16} {:>16} {:>8}  {}\n",
        "workload", "metric", "unit", "old", "new", "new/old", "verdict"
    );
    for r in rows {
        let ratio = if r.old != 0.0 && r.old.is_finite() && r.new.is_finite() {
            format!("{:.3}", r.new / r.old)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "{:<18} {:<30} {:<6} {:>16} {:>16} {:>8}  {}\n",
            r.workload,
            r.metric,
            r.unit,
            short(r.old),
            short(r.new),
            ratio,
            r.verdict.label()
        ));
    }
    out
}

fn short(x: f64) -> String {
    if !x.is_finite() {
        "-".to_string()
    } else if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;
    use crate::record::Dispersion;
    use crate::stats::summarize;

    /// A metric whose sub-windows had these fastest samples (one sample: a
    /// count, no dispersion).
    fn value(name: &str, fastest: &[f64]) -> MetricValue {
        let s = summarize(fastest);
        MetricValue {
            name: name.to_string(),
            unit: find(name).unwrap().unit.to_string(),
            value: s.min,
            dispersion: (fastest.len() > 1).then_some(Dispersion {
                windows: s,
                calls: s,
            }),
        }
    }

    #[test]
    fn bounded_metric_verdicts() {
        let run = find("run_s").unwrap();
        let b = run.bound.unwrap();
        // Sub-window estimates within a fiftieth of the bound of each other.
        let tight = |m: f64| value("run_s", &[m, m * (1.0 + b / 100.0), m * (1.0 + b / 50.0)]);
        assert_eq!(judge(run, &tight(1.0), &tight(1.0 + b * 0.5)), Verdict::Ok);
        assert_eq!(judge(run, &tight(1.0), &tight(1.0 - b * 0.5)), Verdict::Ok);
        assert_eq!(
            judge(run, &tight(1.0), &tight(1.0 + b * 1.2)),
            Verdict::Regress
        );
        assert_eq!(
            judge(run, &tight(1.0), &tight(1.0 - b * 1.2)),
            Verdict::Improved
        );
        // Estimates that disagree by more than the bound cannot be called
        // unchanged, on whichever side they are...
        let wide = value(
            "run_s",
            &[1.0, 1.0 + b, 1.0 + 2.0 * b, 1.0 + 3.0 * b, 1.0 + 4.0 * b],
        );
        assert!(wide.dispersion.unwrap().windows.spread() > b);
        assert_eq!(judge(run, &wide, &tight(1.02)), Verdict::Unresolved);
        assert_eq!(judge(run, &tight(1.0), &wide), Verdict::Unresolved);
        // ...but a regression beyond the bound is still a regression.
        assert_eq!(judge(run, &wide, &tight(1.0 + b * 2.0)), Verdict::Regress);
        // The memory mark is sampled and judged the same way.
        let rss = find("peak_rss_mb").unwrap();
        assert_eq!(rss.gate, Gate::Bounded);
    }

    #[test]
    fn exact_counts_may_not_worsen_at_all() {
        let steps = find("supersteps").unwrap();
        let v = |x: f64| value("supersteps", &[x]);
        assert_eq!(judge(steps, &v(20.0), &v(20.0)), Verdict::Ok);
        assert_eq!(judge(steps, &v(20.0), &v(21.0)), Verdict::Mismatch);
        assert_eq!(judge(steps, &v(20.0), &v(19.0)), Verdict::Improved);
        // Zero traffic that becomes non-zero is a mismatch, not a division.
        let bytes = find("engine.wire_bytes").unwrap();
        let b = |x: f64| value("engine.wire_bytes", &[x]);
        assert_eq!(judge(bytes, &b(0.0), &b(0.0)), Verdict::Ok);
        assert_eq!(judge(bytes, &b(0.0), &b(8.0)), Verdict::Mismatch);
    }

    #[test]
    fn per_layer_numbers_are_never_judged() {
        let cmp = find("engine.cmp_s").unwrap();
        let v = |x: f64| value("engine.cmp_s", &[x]);
        assert_eq!(judge(cmp, &v(1.0), &v(9.0)), Verdict::Info);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        assert!(worse_by(Better::Higher, 100.0, 80.0) > 0.0);
        assert!(worse_by(Better::Higher, 100.0, 120.0) < 0.0);
        assert!(worse_by(Better::Lower, 100.0, 120.0) > 0.0);
    }

    fn pass(workload: &str, traced: bool, run_s: f64, supersteps: f64, failed: u64) -> PassRecord {
        let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
        PassRecord {
            workload: workload.to_string(),
            seed: 1,
            traced,
            attempted: 3,
            failed,
            errors: Vec::new(),
            metrics: defs
                .iter()
                .map(|d| match d.name {
                    "run_s" => value("run_s", &[run_s, run_s * 1.01, run_s * 1.02]),
                    "supersteps" => value("supersteps", &[supersteps]),
                    name => value(name, &[1.0]),
                })
                .collect(),
            spans: Vec::new(),
            loadavg: ["-".into(), "-".into()],
        }
    }

    fn suite(run_s: f64, supersteps: f64, failed: u64) -> SuiteRecord {
        SuiteRecord {
            provenance: Value::obj([("seed", Value::Num(1.0))]),
            workloads: vec![(
                pass("pr-wiki", false, run_s, supersteps, failed),
                pass("pr-wiki", true, run_s, supersteps, 0),
            )],
        }
    }

    #[test]
    fn one_row_per_workload_and_metric() {
        let rows = compare(&suite(1.0, 20.0, 0), &suite(1.0, 20.0, 0));
        assert_eq!(rows.len(), 1 + END_TO_END.len() + PER_LAYER.len());
        assert!(rows
            .iter()
            .all(|r| !r.verdict.fails() && !r.verdict.disagrees()));
        assert!(render(&rows).lines().count() == rows.len() + 1);
    }

    #[test]
    fn regressions_mismatches_and_failed_runs_fail_the_comparison() {
        let failing = |new: SuiteRecord| -> Vec<String> {
            compare(&suite(1.0, 20.0, 0), &new)
                .into_iter()
                .filter(|r| r.verdict.fails())
                .map(|r| r.metric)
                .collect()
        };
        assert_eq!(failing(suite(1.4, 20.0, 0)), ["run_s"]);
        assert_eq!(failing(suite(1.0, 22.0, 0)), ["supersteps"]);
        assert_eq!(failing(suite(1.0, 20.0, 2)), ["failed_runs"]);
        let mut gone = suite(1.0, 20.0, 0);
        gone.workloads.clear();
        assert_eq!(failing(gone), ["*"]);
    }

    #[test]
    fn suite_record_round_trips() {
        let s = suite(0.731_234_567_891, 20.0, 0);
        let text = s.to_json().write_pretty();
        assert_eq!(
            SuiteRecord::from_json(&crate::json::parse(&text).unwrap()),
            Some(s)
        );
    }
}
