//! Named-metric registry with a process-global instance.
//!
//! Instrumented code resolves its metric handles **once** (at engine or
//! transport construction) via [`global`]; when no registry was installed
//! the handle is `None` and the hot path pays exactly one `Option` check —
//! the same two-`Option`-check discipline the superstep tracer uses. The
//! registration path (`counter`/`gauge`/`histogram`) takes a mutex, but it
//! runs O(metrics) times per run, never per message or per superstep.

use crate::hist::LogLinearHistogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn inc(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.v.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A gauge holding a floating-point value (f64 bits in an atomic), for
/// ratios like the replication factor that an integer gauge would truncate.
#[derive(Debug, Default)]
pub struct FloatGauge {
    bits: AtomicU64,
}

impl FloatGauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fully qualified metric identity: name plus sorted label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// Metric name, e.g. `cyclops_phase_ns`.
    pub name: String,
    /// Label pairs, sorted by key for a deterministic identity.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }

    /// Renders as `name` or `name{k="v",...}`.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let pairs: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        format!("{}{{{}}}", self.name, pairs.join(","))
    }
}

/// One registered metric.
#[derive(Clone, Debug)]
pub enum Metric {
    /// Monotonic counter.
    Counter(Arc<Counter>),
    /// Up/down gauge.
    Gauge(Arc<Gauge>),
    /// Floating-point gauge.
    FloatGauge(Arc<FloatGauge>),
    /// Log-linear histogram.
    Histogram(Arc<LogLinearHistogram>),
}

impl Metric {
    /// The Prometheus type: `counter`, `gauge` or `histogram`.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) | Metric::FloatGauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A get-or-create registry of named metrics: one map, ordered by name and
/// then labels, so exposition output is stable — the golden-file test
/// relies on that. Every registration resolves a handle once (a transport,
/// barrier, sink or run being built, a report after the run), never per
/// message, so one lock serves them all.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<MetricId, Metric>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The map, recovered from poisoning: it holds only registration state
    /// (no half-applied invariants — an insert is atomic), so a panic on
    /// another thread while it held the lock must not take the
    /// process-global registry (and every later scrape) down with it.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<MetricId, Metric>> {
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the counter `name{labels}`, creating it on first use.
    ///
    /// Panics if `name` was already registered, under any labels, as a
    /// different metric kind (a programming error, not a runtime condition):
    /// a Prometheus family has one type. The same holds for every getter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, labels, || {
            Metric::Counter(Arc::new(Counter::default()))
        }) {
            Metric::Counter(c) => c,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Returns the gauge `name{labels}`, creating it on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_insert(name, labels, || Metric::Gauge(Arc::new(Gauge::default()))) {
            Metric::Gauge(g) => g,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Returns the float gauge `name{labels}`, creating it on first use.
    pub fn float_gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<FloatGauge> {
        match self.get_or_insert(name, labels, || {
            Metric::FloatGauge(Arc::new(FloatGauge::default()))
        }) {
            Metric::FloatGauge(g) => g,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Returns the histogram `name{labels}`, creating it on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<LogLinearHistogram> {
        match self.get_or_insert(name, labels, || {
            Metric::Histogram(Arc::new(LogLinearHistogram::new()))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// The metric `name{labels}`, made on first use. When `name` already
    /// names a metric of another kind, that metric is returned uninserted,
    /// for the caller's kind match to refuse.
    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let id = MetricId::new(name, labels);
        let mut metrics = self.lock();
        if let Some(m) = metrics.get(&id) {
            return m.clone();
        }
        let made = make();
        // A family's identities sort together, the label-free one lowest.
        match metrics.range(MetricId::new(name, &[])..).next() {
            Some((other, m)) if other.name == name && m.kind() != made.kind() => m.clone(),
            _ => {
                metrics.insert(id, made.clone());
                made
            }
        }
    }

    /// Visits every metric in deterministic order (by name, then labels).
    /// Entries are snapshotted out of the lock first, so the visitor runs
    /// lock-free and a panicking visitor cannot poison the registry.
    pub fn for_each(&self, mut f: impl FnMut(&MetricId, &Metric)) {
        let all: Vec<(MetricId, Metric)> = self
            .lock()
            .iter()
            .map(|(id, m)| (id.clone(), m.clone()))
            .collect();
        for (id, m) in &all {
            f(id, m);
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// Installs (or returns the already-installed) process-global registry.
/// Idempotent; the registry lives for the rest of the process.
pub fn install_global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// The process-global registry, or `None` when [`install_global`] was never
/// called. Instrumented code checks this once at construction time; a
/// `None` means the run pays no metric overhead beyond that check.
pub fn global() -> Option<&'static MetricsRegistry> {
    GLOBAL.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_instance() {
        let r = MetricsRegistry::new();
        let a = r.counter("x_total", &[("engine", "bsp")]);
        let b = r.counter("x_total", &[("engine", "bsp")]);
        a.inc(3);
        b.inc(4);
        assert_eq!(a.get(), 7);
        assert_eq!(r.len(), 1);
        // Different labels → different metric.
        let c = r.counter("x_total", &[("engine", "gas")]);
        c.inc(1);
        assert_eq!(c.get(), 1);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = MetricsRegistry::new();
        let a = r.gauge("g", &[("a", "1"), ("b", "2")]);
        let b = r.gauge("g", &[("b", "2"), ("a", "1")]);
        a.set(9);
        assert_eq!(b.get(), 9);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("m", &[]);
        r.gauge("m", &[]);
    }

    #[test]
    #[should_panic(expected = "cyclops_x already registered as a histogram")]
    fn a_name_keeps_one_kind_under_every_label_set() {
        let r = MetricsRegistry::new();
        r.histogram("cyclops_x", &[("engine", "bsp")]);
        // Another kind under other labels would put gauge samples under the
        // family's `# TYPE cyclops_x histogram` line.
        r.float_gauge("cyclops_x", &[("when", "after")]);
    }

    #[test]
    fn gauge_kinds_share_a_family() {
        let r = MetricsRegistry::new();
        r.gauge("g", &[("a", "1")]).set(2);
        r.float_gauge("g", &[("a", "2")]).set(0.5);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::default();
        g.set(10);
        g.add(-25);
        assert_eq!(g.get(), -15);
    }

    #[test]
    fn poisoned_registry_still_registers_and_scrapes() {
        let r = std::sync::Arc::new(MetricsRegistry::new());
        r.counter("before_total", &[]).inc(1);
        // A visitor that panics on another thread must not break the
        // registry. (for_each snapshots the entries before visiting, so the
        // panic can't even poison the lock — and every lock path still
        // recovers via `into_inner` if it ever is.)
        let r2 = std::sync::Arc::clone(&r);
        let res = std::thread::spawn(move || {
            r2.for_each(|_, _| panic!("visitor panic during a scrape"));
        })
        .join();
        assert!(res.is_err(), "the visitor should have panicked");
        // Registration, scraping and len must all survive the panic.
        assert_eq!(r.len(), 1);
        let c = r.counter("after_total", &[("engine", "bsp")]);
        c.inc(5);
        assert_eq!(r.len(), 2);
        let mut seen = Vec::new();
        r.for_each(|id, _| seen.push(id.render()));
        assert_eq!(seen, vec!["after_total{engine=\"bsp\"}", "before_total"]);
        assert_eq!(r.counter("after_total", &[("engine", "bsp")]).get(), 5);
    }

    #[test]
    fn concurrent_registration_lands_once_and_scrapes_in_sorted_order() {
        // A per-worker-pair family registered from many threads at once:
        // every identity must land exactly once and exposition order must
        // stay sorted, whatever the registration order.
        let r = std::sync::Arc::new(MetricsRegistry::new());
        std::thread::scope(|s| {
            for src in 0..8u32 {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    let src = src.to_string();
                    for dst in 0..8u32 {
                        r.counter(
                            "comm_pair_bytes",
                            &[("src", &src), ("dst", &dst.to_string())],
                        )
                        .inc(1);
                    }
                });
            }
        });
        assert_eq!(r.len(), 64);
        let mut seen = Vec::new();
        r.for_each(|id, _| seen.push(id.clone()));
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted, "for_each must visit in sorted identity order");
        assert_eq!(
            r.counter("comm_pair_bytes", &[("dst", "3"), ("src", "5")])
                .get(),
            1
        );
    }

    #[test]
    fn metric_id_renders_prometheus_style() {
        let id = MetricId::new("m_total", &[("b", "2"), ("a", "1")]);
        assert_eq!(id.render(), "m_total{a=\"1\",b=\"2\"}");
        assert_eq!(MetricId::new("bare", &[]).render(), "bare");
    }
}
