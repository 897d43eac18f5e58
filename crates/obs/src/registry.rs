//! The process-global metric registry and the lazy call-site handles.

use crate::family::{GaugeFamily, HistogramFamily};
use crate::metrics::{Counter, Histogram};
use crate::snapshot::MetricsSnapshot;
use std::collections::BTreeMap;
use std::sync::{OnceLock, RwLock};

/// All registered metrics, keyed by name.
///
/// Handles are `&'static`: a registered metric lives for the process
/// (the set of metric names is small and fixed, so the leak is bounded),
/// which is what lets call sites cache a handle once and record with no
/// further lookups or locks.
#[derive(Default)]
pub(crate) struct Registry {
    counters: RwLock<BTreeMap<String, &'static Counter>>,
    histograms: RwLock<BTreeMap<String, &'static Histogram>>,
    gauge_families: RwLock<BTreeMap<String, &'static GaugeFamily>>,
    histogram_families: RwLock<BTreeMap<String, &'static HistogramFamily>>,
}

/// Looks `name` up in `map`, registering a fresh leaked `T` on first use.
fn get_or_register<T>(
    map: &RwLock<BTreeMap<String, &'static T>>,
    name: &str,
    fresh: impl FnOnce() -> T,
) -> &'static T {
    if let Some(existing) = map.read().expect("metric registry poisoned").get(name) {
        return existing;
    }
    let mut writer = map.write().expect("metric registry poisoned");
    // A racing registration may have won; the map keeps exactly one
    // handle per name either way.
    writer
        .entry(name.to_owned())
        .or_insert_with(|| Box::leak(Box::new(fresh())))
}

impl Registry {
    pub(crate) fn counter(&self, name: &str) -> &'static Counter {
        get_or_register(&self.counters, name, Counter::new)
    }

    pub(crate) fn histogram(&self, name: &str) -> &'static Histogram {
        get_or_register(&self.histograms, name, Histogram::new)
    }

    pub(crate) fn gauge_family(
        &self,
        name: &str,
        label_key: &str,
        slots: usize,
    ) -> &'static GaugeFamily {
        get_or_register(&self.gauge_families, name, || {
            GaugeFamily::new(label_key, slots)
        })
    }

    pub(crate) fn histogram_family(
        &self,
        name: &str,
        label_key: &str,
        slots: usize,
    ) -> &'static HistogramFamily {
        get_or_register(&self.histogram_families, name, || {
            HistogramFamily::new(label_key, slots)
        })
    }

    pub(crate) fn snapshot(&self, enabled: bool) -> MetricsSnapshot {
        MetricsSnapshot {
            enabled,
            reset_epoch: crate::reset_epoch(),
            gauge_families: self
                .gauge_families
                .read()
                .expect("metric registry poisoned")
                .iter()
                .map(|(name, f)| (name.clone(), f.snapshot()))
                .collect(),
            histogram_families: self
                .histogram_families
                .read()
                .expect("metric registry poisoned")
                .iter()
                .map(|(name, f)| (name.clone(), f.snapshot()))
                .collect(),
            counters: self
                .counters
                .read()
                .expect("metric registry poisoned")
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("metric registry poisoned")
                .iter()
                .map(|(name, h)| (name.clone(), crate::snapshot::HistogramSnapshot::of(h)))
                .collect(),
        }
    }

    pub(crate) fn reset(&self) {
        for c in self
            .counters
            .read()
            .expect("metric registry poisoned")
            .values()
        {
            c.reset();
        }
        for h in self
            .histograms
            .read()
            .expect("metric registry poisoned")
            .values()
        {
            h.reset();
        }
        for f in self
            .gauge_families
            .read()
            .expect("metric registry poisoned")
            .values()
        {
            f.reset();
        }
        for f in self
            .histogram_families
            .read()
            .expect("metric registry poisoned")
            .values()
        {
            f.reset();
        }
    }
}

pub(crate) fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The counter named `name`, registered on first use.
pub fn counter(name: &str) -> &'static Counter {
    global().counter(name)
}

/// The histogram named `name`, registered on first use.
pub fn histogram(name: &str) -> &'static Histogram {
    global().histogram(name)
}

/// The labeled gauge family named `name`, registered on first use with
/// `slots` exclusive label slots keyed by `label_key`. Later calls with a
/// different key or slot count return the first registration unchanged.
pub fn gauge_family(name: &str, label_key: &str, slots: usize) -> &'static GaugeFamily {
    global().gauge_family(name, label_key, slots)
}

/// The labeled histogram family named `name` (see [`gauge_family`]).
pub fn histogram_family(name: &str, label_key: &str, slots: usize) -> &'static HistogramFamily {
    global().histogram_family(name, label_key, slots)
}

/// Resolves a `&'static T` metric handle once, on first recorded event.
struct LazyHandle<T: 'static> {
    name: &'static str,
    cell: OnceLock<&'static T>,
}

impl<T> LazyHandle<T> {
    const fn new(name: &'static str) -> Self {
        LazyHandle {
            name,
            cell: OnceLock::new(),
        }
    }

    #[inline]
    fn get(&self, resolve: fn(&str) -> &'static T) -> &'static T {
        self.cell.get_or_init(|| resolve(self.name))
    }
}

/// A [`Counter`] declared `static` at its call site; the registry lookup
/// happens once, on the first recorded event. While metrics are disabled
/// a record costs one relaxed atomic load.
pub struct LazyCounter(LazyHandle<Counter>);

impl LazyCounter {
    /// Declares a counter handle with a global name.
    pub const fn new(name: &'static str) -> Self {
        LazyCounter(LazyHandle::new(name))
    }

    /// [`Counter::add`].
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.get(counter).add(n);
        }
    }

    /// [`Counter::incr`].
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }
}

/// A [`Histogram`] declared `static` at its call site (see
/// [`LazyCounter`]). To time a scope, declare a [`Stage`](crate::Stage),
/// which records into one of these.
pub struct LazyHistogram(LazyHandle<Histogram>);

impl LazyHistogram {
    /// Declares a histogram handle with a global name.
    pub const fn new(name: &'static str) -> Self {
        LazyHistogram(LazyHandle::new(name))
    }

    /// [`Histogram::record`].
    #[inline]
    pub fn record(&self, ns: u64) {
        if crate::enabled() {
            self.0.get(histogram).record(ns);
        }
    }

    pub(crate) fn resolve(&self) -> &'static Histogram {
        self.0.get(histogram)
    }
}
