//! Metric registration and snapshotting.
//!
//! A [`MetricsRegistry`] owns the enabled flag (shared by every handle it
//! hands out) and a name → metric map. Registration locks a mutex; holding
//! the returned [`Counter`]/[`Gauge`]/[`Histogram`] handle keeps the hot
//! path lock-free thereafter.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::histogram::{Histogram, HistogramCore, HistogramSnapshot};

/// The shared on/off flag. One relaxed load per recording call when off.
pub(crate) struct Switch(AtomicBool);

impl Switch {
    #[inline]
    pub(crate) fn is_on(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Monotonically increasing event counter.
#[derive(Clone)]
pub struct Counter {
    on: Arc<Switch>,
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add `n` to the counter (no-op while the registry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if self.on.is_on() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.value())
    }
}

/// Last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Clone)]
pub struct Gauge {
    on: Arc<Switch>,
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the gauge (no-op while the registry is disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if self.on.is_on() {
            self.cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `v` if `v` is larger (running maximum, e.g.
    /// best-accuracy-so-far). Not atomic across racing writers, which is
    /// fine for the single-writer gauges this repo keeps.
    #[inline]
    pub fn set_max(&self, v: f64) {
        if self.on.is_on() && v > self.value() {
            self.cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.value())
    }
}

#[derive(Default)]
struct Metrics {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<HistogramCore>>,
}

/// The cell registered under `name`, created by `make` on first use. Looks
/// up by `&str` first: only a series' registration allocates its key.
fn fetch<T>(map: &mut BTreeMap<String, Arc<T>>, name: &str, make: impl FnOnce() -> T) -> Arc<T> {
    if let Some(cell) = map.get(name) {
        return Arc::clone(cell);
    }
    Arc::clone(map.entry(name.to_string()).or_insert_with(|| Arc::new(make())))
}

/// The registry: enabled flag + named metrics.
pub struct MetricsRegistry {
    on: Arc<Switch>,
    metrics: Mutex<Metrics>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").field("enabled", &self.enabled()).finish()
    }
}

impl MetricsRegistry {
    /// Fresh registry; `enabled` mirrors the paper's launch-time flag.
    pub fn new(enabled: bool) -> Self {
        MetricsRegistry {
            on: Arc::new(Switch(AtomicBool::new(enabled))),
            metrics: Mutex::new(Metrics::default()),
        }
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.on.is_on()
    }

    /// Toggle recording at runtime. Already-recorded values are kept.
    pub fn set_enabled(&self, on: bool) {
        self.on.0.store(on, Ordering::Relaxed);
    }

    /// Register (or fetch) a counter. Registration pre-creates the series so
    /// it exports as `0` even before the first event — the acceptance shape
    /// for "retry counter present in every snapshot".
    pub fn counter(&self, name: &str) -> Counter {
        let cell = fetch(&mut self.metrics.lock().counters, name, || AtomicU64::new(0));
        Counter { on: Arc::clone(&self.on), cell }
    }

    /// Register (or fetch) a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let cell = fetch(&mut self.metrics.lock().gauges, name, || AtomicU64::new(0f64.to_bits()));
        Gauge { on: Arc::clone(&self.on), cell }
    }

    /// Register (or fetch) a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        let core = fetch(&mut self.metrics.lock().histograms, name, HistogramCore::new);
        Histogram { on: Arc::clone(&self.on), core }
    }

    /// One-shot histogram observation by name. Convenience for cold paths;
    /// hot paths should hold a [`Histogram`] handle instead. The disabled
    /// path is still the single relaxed check, before any locking.
    pub fn observe(&self, name: &str, value: u64) {
        if !self.on.is_on() {
            return;
        }
        self.histogram(name).record(value);
    }

    /// Snapshot every registered metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics.lock();
        MetricsSnapshot {
            counters: m
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: m
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
                .collect(),
            histograms: m
                .histograms
                .iter()
                .map(|(k, v)| {
                    let h = Histogram { on: Arc::clone(&self.on), core: Arc::clone(v) };
                    (k.clone(), h.snapshot())
                })
                .collect(),
        }
    }
}

/// Point-in-time copy of a registry: what the exporters consume.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` counter pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauge pairs, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, digest)` histogram pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Value of a gauge by exact name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Digest of a histogram by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Fold `other`'s series into this snapshot, keeping name order — used
    /// to export one combined view of several registries (e.g. a runtime's
    /// registry plus the process-global one). Callers are expected to keep
    /// series names disjoint across registries; on a name collision both
    /// entries are kept and exporters emit both.
    pub fn merge(&mut self, other: MetricsSnapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_combines_and_sorts_series() {
        let a = MetricsRegistry::new(true);
        a.counter("b_total").incr();
        a.gauge("z_depth").set(1.0);
        let b = MetricsRegistry::new(true);
        b.counter("a_total").add(2);
        b.histogram("lat_us").record(5);
        let mut snap = a.snapshot();
        snap.merge(b.snapshot());
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a_total", "b_total"], "sorted after merge");
        assert_eq!(snap.counter("a_total"), Some(2));
        assert_eq!(snap.gauge("z_depth"), Some(1.0));
        assert_eq!(snap.histogram("lat_us").unwrap().count, 1);
    }

    #[test]
    fn counters_add_and_survive_relookup() {
        let reg = MetricsRegistry::new(true);
        let c = reg.counter("x_total");
        c.incr();
        c.add(4);
        assert_eq!(reg.counter("x_total").value(), 5, "same series by name");
        assert_eq!(reg.snapshot().counter("x_total"), Some(5));
    }

    #[test]
    fn gauges_set_and_set_max() {
        let reg = MetricsRegistry::new(true);
        let g = reg.gauge("depth");
        g.set(3.0);
        g.set_max(1.0);
        assert_eq!(g.value(), 3.0, "set_max never lowers");
        g.set_max(9.5);
        assert_eq!(reg.snapshot().gauge("depth"), Some(9.5));
        g.set(0.5);
        assert_eq!(g.value(), 0.5, "set always writes");
    }

    #[test]
    fn disabled_registry_is_inert_and_toggleable() {
        let reg = MetricsRegistry::new(false);
        let c = reg.counter("c_total");
        let g = reg.gauge("g");
        let h = reg.histogram("h_us");
        c.incr();
        g.set(1.0);
        h.record(10);
        reg.observe("h_us", 10);
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0.0);
        assert_eq!(h.count(), 0);
        reg.set_enabled(true);
        c.incr();
        assert_eq!(c.value(), 1);
    }

    #[test]
    fn registration_pre_creates_zero_series() {
        let reg = MetricsRegistry::new(true);
        let _ = reg.counter("retries_total");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("retries_total"), Some(0), "present at 0 before any event");
    }

    #[test]
    fn concurrent_counter_increments_are_lossless() {
        let reg = Arc::new(MetricsRegistry::new(true));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = reg.counter("hot_total");
            let h = reg.histogram("hot_us");
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    c.incr();
                    h.record(i % 512);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(reg.counter("hot_total").value(), 80_000);
        assert_eq!(reg.histogram("hot_us").snapshot().count, 80_000);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = MetricsRegistry::new(true);
        reg.counter("zz");
        reg.counter("aa");
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["aa", "zz"]);
    }
}
