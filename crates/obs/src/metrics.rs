//! The global metrics registry: named counters and gauges. (How long
//! each stage took is not kept here: it is in the span log, see
//! [`crate::span`].)
//!
//! Handles are `&'static` references to leaked atomic cells, so the
//! hot path is a single relaxed atomic operation with no locking.
//! The registry mutex is held only while resolving a name to a handle
//! — callers on per-record paths should resolve once and reuse the
//! handle (see e.g. the k-way merge, which caches its counters in the
//! merge structure).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time level (queue depth, heap size, fit residual).
/// Stored as `f64` bits so both sizes and ratios fit naturally.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the level to `v` if `v` is higher (high-water mark).
    #[inline]
    pub fn set_max(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.set(0.0);
    }
}

/// Name → handle maps. One per metric kind so a counter and a gauge
/// may not collide under one name.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<HashMap<String, &'static Counter>>,
    gauges: Mutex<HashMap<String, &'static Gauge>>,
}

impl MetricsRegistry {
    /// Resolves (registering on first use) a counter.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut map = self.counters.lock();
        if let Some(c) = map.get(name) {
            return c;
        }
        let c: &'static Counter = Box::leak(Box::new(Counter::default()));
        map.insert(name.to_string(), c);
        c
    }

    /// Resolves (registering on first use) a gauge.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut map = self.gauges.lock();
        if let Some(g) = map.get(name) {
            return g;
        }
        let g: &'static Gauge = Box::leak(Box::new(Gauge::default()));
        map.insert(name.to_string(), g);
        g
    }

    /// Zeroes every registered metric (names stay registered). Used by
    /// `ute report` so one process can measure several runs, and by
    /// tests.
    pub fn reset(&self) {
        for c in self.counters.lock().values() {
            c.reset();
        }
        for g in self.gauges.lock().values() {
            g.reset();
        }
    }

    pub(crate) fn visit_counters(&self, mut f: impl FnMut(&str, u64)) {
        for (name, c) in self.counters.lock().iter() {
            f(name, c.get());
        }
    }

    pub(crate) fn visit_gauges(&self, mut f: impl FnMut(&str, f64)) {
        for (name, g) in self.gauges.lock().iter() {
            f(name, g.get());
        }
    }
}

/// The process-global registry.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::default)
}

/// Global counter by name.
pub fn counter(name: &str) -> &'static Counter {
    global().counter(name)
}

/// Global gauge by name.
pub fn gauge(name: &str) -> &'static Gauge {
    global().gauge(name)
}

/// Zeroes every metric in the global registry.
pub fn reset() {
    global().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = counter("test/metrics/counter_accumulates");
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn same_name_same_handle() {
        let a = counter("test/metrics/same_handle") as *const Counter;
        let b = counter("test/metrics/same_handle") as *const Counter;
        assert_eq!(a, b);
    }

    #[test]
    fn gauge_set_max_is_high_water() {
        let g = gauge("test/metrics/gauge_hwm");
        g.set_max(3.0);
        g.set_max(10.0);
        g.set_max(7.0);
        assert_eq!(g.get(), 10.0);
    }

    #[test]
    fn concurrent_counters_are_exact() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let c = counter("test/metrics/concurrent_total");
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn registration_race_yields_one_handle() {
        // N threads registering the same name concurrently must all get
        // the same cell, so increments can never be split across copies.
        const THREADS: usize = 8;
        let ptrs: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        let c = counter("test/metrics/registration_race");
                        c.inc();
                        c as *const Counter as usize
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ptrs.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(
            counter("test/metrics/registration_race").get(),
            THREADS as u64
        );
    }
}
