//! The named metric directory and its deterministic snapshot/dump.

use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

/// A handle to a registered metric: either registry-owned (`Arc`) or a
/// mounted `'static` (the kernel layers declare `static` metrics and
/// mount them, so recording needs no registry plumbing at all).
#[derive(Debug)]
pub struct MetricHandle<T: 'static> {
    repr: Repr<T>,
}

#[derive(Debug)]
enum Repr<T: 'static> {
    Owned(Arc<T>),
    Static(&'static T),
}

impl<T> Clone for MetricHandle<T> {
    fn clone(&self) -> Self {
        Self {
            repr: match &self.repr {
                Repr::Owned(a) => Repr::Owned(Arc::clone(a)),
                Repr::Static(s) => Repr::Static(s),
            },
        }
    }
}

impl<T> std::ops::Deref for MetricHandle<T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.repr {
            Repr::Owned(a) => a,
            Repr::Static(s) => s,
        }
    }
}

impl<T> MetricHandle<T> {
    fn owned(v: T) -> Self {
        Self {
            repr: Repr::Owned(Arc::new(v)),
        }
    }

    fn of_static(v: &'static T) -> Self {
        Self {
            repr: Repr::Static(v),
        }
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(MetricHandle<Counter>),
    Gauge(MetricHandle<Gauge>),
    Histogram(MetricHandle<Histogram>),
}

/// A directory of named metrics (see the crate docs for the naming
/// scheme).
///
/// Registration (`counter`/`gauge`/`histogram`/`mount_*`) takes a lock
/// and may allocate; hot paths therefore register once and keep the
/// returned handle. Recording through a handle never touches the
/// registry. Asking for an existing name returns the existing metric;
/// asking with a *mismatched kind* returns a fresh detached handle
/// (recordable but never dumped) so the record path stays infallible.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Slot>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Slot>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Gets or registers the counter `name`.
    pub fn counter(&self, name: &str) -> MetricHandle<Counter> {
        let mut map = self.lock();
        match map.get(name) {
            Some(Slot::Counter(h)) => h.clone(),
            Some(_) => MetricHandle::owned(Counter::new()),
            None => {
                let h = MetricHandle::owned(Counter::new());
                map.insert(name.to_owned(), Slot::Counter(h.clone()));
                h
            }
        }
    }

    /// Gets or registers the gauge `name`.
    pub fn gauge(&self, name: &str) -> MetricHandle<Gauge> {
        let mut map = self.lock();
        match map.get(name) {
            Some(Slot::Gauge(h)) => h.clone(),
            Some(_) => MetricHandle::owned(Gauge::new()),
            None => {
                let h = MetricHandle::owned(Gauge::new());
                map.insert(name.to_owned(), Slot::Gauge(h.clone()));
                h
            }
        }
    }

    /// Gets or registers the histogram `name`.
    pub fn histogram(&self, name: &str) -> MetricHandle<Histogram> {
        let mut map = self.lock();
        match map.get(name) {
            Some(Slot::Histogram(h)) => h.clone(),
            Some(_) => MetricHandle::owned(Histogram::new()),
            None => {
                let h = MetricHandle::owned(Histogram::new());
                map.insert(name.to_owned(), Slot::Histogram(h.clone()));
                h
            }
        }
    }

    /// Mounts a `static` counter under `name` (first registration wins).
    pub fn mount_counter(&self, name: &str, c: &'static Counter) {
        self.lock()
            .entry(name.to_owned())
            .or_insert(Slot::Counter(MetricHandle::of_static(c)));
    }

    /// Mounts a `static` gauge under `name` (first registration wins).
    pub fn mount_gauge(&self, name: &str, g: &'static Gauge) {
        self.lock()
            .entry(name.to_owned())
            .or_insert(Slot::Gauge(MetricHandle::of_static(g)));
    }

    /// Mounts a `static` histogram under `name` (first registration
    /// wins).
    pub fn mount_histogram(&self, name: &str, h: &'static Histogram) {
        self.lock()
            .entry(name.to_owned())
            .or_insert(Slot::Histogram(MetricHandle::of_static(h)));
    }

    /// A point-in-time copy of every registered metric, in name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.lock();
        let mut snap = MetricsSnapshot::default();
        for (name, slot) in map.iter() {
            match slot {
                Slot::Counter(h) => {
                    snap.counters.insert(name.clone(), h.get());
                }
                Slot::Gauge(h) => {
                    snap.gauges.insert(name.clone(), h.get());
                }
                Slot::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// A deterministic (name-ordered) copy of a registry's state.
#[derive(Debug, Default, Clone)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter total, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge value, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Histogram snapshot, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }
}

/// The stable `amalur-obs/v1` dump, which the bench bins embed in their
/// `BENCH_*.json` files: `schema`, then `counters`, `gauges` and
/// `histograms`, each keyed by metric name in name order.
impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("schema".into(), "amalur-obs/v1".to_value()),
            ("counters".into(), self.counters.to_value()),
            ("gauges".into(), self.gauges.to_value()),
            ("histograms".into(), self.histograms.to_value()),
        ])
    }
}

/// One histogram of the `amalur-obs/v1` dump: count, sum, mean, the
/// p50/p95/p99 estimates and the non-empty buckets as
/// `[lower_bound, count]` pairs.
impl Serialize for HistogramSnapshot {
    fn to_value(&self) -> Value {
        let buckets: Vec<Vec<u64>> = self
            .nonzero_buckets()
            .into_iter()
            .map(|(lo, c)| vec![lo, c])
            .collect();
        Value::Object(vec![
            ("count".into(), self.count().to_value()),
            ("sum".into(), self.sum().to_value()),
            ("mean".into(), self.mean().to_value()),
            ("p50".into(), self.quantile(0.50).to_value()),
            ("p95".into(), self.quantile(0.95).to_value()),
            ("p99".into(), self.quantile(0.99).to_value()),
            ("buckets".into(), buckets.to_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_same_metric() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x.calls");
        let b = reg.counter("x.calls");
        a.inc();
        b.inc();
        assert_eq!(reg.snapshot().counter("x.calls"), Some(2));
    }

    #[test]
    fn kind_mismatch_yields_detached_handle() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        let g = reg.gauge("x"); // wrong kind: detached
        g.set(7);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x"), Some(0));
        assert_eq!(snap.gauge("x"), None);
    }

    #[test]
    fn mounted_statics_appear_in_snapshot() {
        static C: Counter = Counter::new();
        static H: Histogram = Histogram::new();
        let reg = MetricsRegistry::new();
        reg.mount_counter("kernel.calls", &C);
        reg.mount_histogram("kernel.ns", &H);
        C.add(3);
        H.record(100);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("kernel.calls"), Some(3));
        assert_eq!(snap.histogram("kernel.ns").map(|h| h.count()), Some(1));
    }

    #[test]
    fn json_dump_is_stable_and_ordered() {
        let reg = MetricsRegistry::new();
        reg.counter("b.second").add(2);
        reg.counter("a.first").inc();
        reg.gauge("z.gauge").set(9);
        let h = reg.histogram("m.hist");
        for v in [5, 5, 100] {
            h.record(v);
        }
        let json = serde_json::to_string_pretty(&reg.snapshot()).unwrap();
        let a = json.find("a.first").expect("a.first present");
        let b = json.find("b.second").expect("b.second present");
        assert!(a < b, "counters serialize in name order");
        assert!(json.contains("\"schema\": \"amalur-obs/v1\""));
        assert_eq!(
            serde_json::to_string_pretty(&reg.snapshot()).unwrap(),
            json,
            "dump is deterministic"
        );

        let dump: Value = serde_json::from_str(&json).unwrap();
        let hist = dump
            .get("histograms")
            .and_then(|v| v.get("m.hist"))
            .unwrap();
        let snap = h.snapshot();
        let buckets: Vec<Vec<u64>> = snap
            .nonzero_buckets()
            .into_iter()
            .map(|(lo, c)| vec![lo, c])
            .collect();
        assert_eq!(hist.get("count"), Some(&Value::Int(3)));
        assert_eq!(hist.get("sum"), Some(&Value::Int(110)));
        assert_eq!(hist.get("mean"), Some(&Value::Float(snap.mean())));
        assert_eq!(hist.get("p99"), Some(&snap.quantile(0.99).to_value()));
        assert_eq!(hist.get("buckets"), Some(&buckets.to_value()));
    }

    #[test]
    fn empty_registry_dumps_empty_maps() {
        let json = serde_json::to_string_pretty(&MetricsRegistry::new().snapshot()).unwrap();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"histograms\": {}"));
    }

    /// Dynamic name parts come from callers (a published dataset's name
    /// lands in `serve.dataset.<name>.predicts`), so the dump must escape
    /// them and still parse, with every metric under its exact name.
    #[test]
    fn dump_escapes_metric_names() {
        let names = ["serve.dataset.a\"b.predicts", "back\\slash", "new\nline"];
        let reg = MetricsRegistry::new();
        for (i, name) in names.iter().enumerate() {
            reg.counter(name).add(i as u64 + 1);
        }
        let json = serde_json::to_string_pretty(&reg.snapshot()).unwrap();
        let dump: Value = serde_json::from_str(&json).expect("the dump parses");
        let counters = dump.get("counters").expect("counters present");
        for (i, name) in names.iter().enumerate() {
            assert_eq!(
                counters.get(name),
                Some(&Value::Int(i as i64 + 1)),
                "{name:?}"
            );
        }
    }
}
