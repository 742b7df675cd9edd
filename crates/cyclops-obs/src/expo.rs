//! Exposition: Prometheus text format.
//!
//! The renderer walks the registry in its deterministic order, so output
//! for a fixed set of recordings is byte-stable (golden-file testable).
//! Histograms render in the cumulative-`le` Prometheus convention, emitting
//! only buckets whose cumulative count changed plus the trailing `+Inf`.

use crate::hist::{bucket_bounds, HistogramSnapshot};
use crate::registry::{Metric, MetricId, MetricsRegistry};
use std::fmt::Write as _;

/// Renders the registry in the Prometheus text exposition format.
pub fn render_prometheus(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    let mut last_name = String::new();
    reg.for_each(|id, metric| {
        if id.name != last_name {
            let _ = writeln!(out, "# TYPE {} {}", id.name, type_of(metric));
            last_name = id.name.clone();
        }
        match metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "{} {}", id.render(), c.get());
            }
            Metric::Gauge(g) => {
                let _ = writeln!(out, "{} {}", id.render(), g.get());
            }
            Metric::FloatGauge(g) => {
                let _ = writeln!(out, "{} {}", id.render(), g.get());
            }
            Metric::Histogram(h) => {
                render_histogram(&mut out, id, &h.snapshot());
            }
        }
    });
    out
}

fn type_of(metric: &Metric) -> &'static str {
    match metric {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) | Metric::FloatGauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
    }
}

fn render_histogram(out: &mut String, id: &MetricId, s: &HistogramSnapshot) {
    let mut cum = 0u64;
    for (i, &c) in s.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cum += c;
        // Buckets are [low, high) over integers, so `le = high - 1` is the
        // inclusive upper bound Prometheus expects.
        let le = bucket_bounds(i).1 - 1;
        let _ = writeln!(out, "{} {}", with_le(id, &le.to_string()), cum);
    }
    let _ = writeln!(out, "{} {}", with_le(id, "+Inf"), s.count);
    let _ = writeln!(out, "{}_sum{} {}", id.name, labels_only(id), s.sum);
    let _ = writeln!(out, "{}_count{} {}", id.name, labels_only(id), s.count);
}

fn with_le(id: &MetricId, le: &str) -> String {
    let mut pairs: Vec<String> = id
        .labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect();
    pairs.push(format!("le=\"{le}\""));
    format!("{}_bucket{{{}}}", id.name, pairs.join(","))
}

fn labels_only(id: &MetricId) -> String {
    if id.labels.is_empty() {
        return String::new();
    }
    let pairs: Vec<String> = id
        .labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{v}\""))
        .collect();
    format!("{{{}}}", pairs.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.counter("cyclops_messages_total", &[("mode", "sharded")])
            .inc(42);
        r.gauge("cyclops_run_supersteps", &[("engine", "cyclops")])
            .set(7);
        let h = r.histogram(
            "cyclops_phase_ns",
            &[("engine", "cyclops"), ("phase", "cmp")],
        );
        h.record(3);
        h.record(100);
        h.record(100);
        r
    }

    #[test]
    fn prometheus_text_has_types_values_and_cumulative_buckets() {
        let text = render_prometheus(&sample_registry());
        assert!(text.contains("# TYPE cyclops_messages_total counter"));
        assert!(text.contains("cyclops_messages_total{mode=\"sharded\"} 42"));
        assert!(text.contains("# TYPE cyclops_run_supersteps gauge"));
        assert!(text.contains("cyclops_run_supersteps{engine=\"cyclops\"} 7"));
        assert!(text.contains("# TYPE cyclops_phase_ns histogram"));
        // 3 lands in the unit bucket le="3"; the two 100s share one bucket
        // and the cumulative count reaches 3 there.
        assert!(text.contains("phase=\"cmp\",le=\"3\"} 1"));
        assert!(text.contains("le=\"+Inf\"} 3"));
        assert!(text.contains("cyclops_phase_ns_sum{engine=\"cyclops\",phase=\"cmp\"} 203"));
        assert!(text.contains("cyclops_phase_ns_count{engine=\"cyclops\",phase=\"cmp\"} 3"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let r = MetricsRegistry::new();
        let h = r.histogram("h", &[]);
        h.record(1);
        h.record(2);
        h.record(1000);
        let text = render_prometheus(&r);
        let lines: Vec<&str> = text.lines().filter(|l| l.contains("h_bucket")).collect();
        assert_eq!(lines.len(), 4); // 3 distinct buckets + +Inf
        assert!(lines[0].ends_with(" 1"));
        assert!(lines[1].ends_with(" 2"));
        assert!(lines[2].ends_with(" 3"));
        assert!(lines[3].contains("+Inf") && lines[3].ends_with(" 3"));
    }

    #[test]
    fn float_gauge_renders_fractional_values() {
        let r = MetricsRegistry::new();
        r.float_gauge("cyclops_replication_factor", &[("mode", "hybrid")])
            .set(1.375);
        let text = render_prometheus(&r);
        assert!(text.contains("# TYPE cyclops_replication_factor gauge"));
        assert!(text.contains("cyclops_replication_factor{mode=\"hybrid\"} 1.375"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = render_prometheus(&sample_registry());
        let b = render_prometheus(&sample_registry());
        assert_eq!(a, b);
    }
}
