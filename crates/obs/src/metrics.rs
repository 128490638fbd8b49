//! Metrics registry: named counters, gauges, and log-linear-bucket
//! histograms, all updated through atomics so recording never blocks other
//! recorders: a known name is found under a shared read lock, and only the
//! registration of a *new* name takes the exclusive write lock.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Monotonically increasing value. Stored as f64 bits so the same type
/// serves integer counts (`inc`) and cumulative quantities like total
/// stress-test milliseconds (`add`); f64 is exact for counts below 2^53.
#[derive(Debug, Default)]
pub struct Counter {
    bits: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1.0);
    }

    pub fn add(&self, delta: f64) {
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Sub-buckets per power-of-two octave. Bucket edges grow by a factor of
/// `1 + 1/SUB_BUCKETS` within an octave, bounding the relative quantile
/// error at ~`1 / (2 * SUB_BUCKETS)`.
pub const SUB_BUCKETS: usize = 16;
const SUB_BITS: u32 = 4; // log2(SUB_BUCKETS)
/// Smallest distinguishable exponent: values below 2^MIN_EXP land in
/// bucket 0.
pub const MIN_EXP: i32 = -20;
/// Largest exponent: values at or above 2^(MAX_EXP+1) land in the top
/// bucket.
pub const MAX_EXP: i32 = 43;
const OCTAVES: usize = (MAX_EXP - MIN_EXP + 1) as usize;
pub(crate) const BUCKETS: usize = OCTAVES * SUB_BUCKETS;

/// Maps a positive finite value to its log-linear bucket index.
pub(crate) fn bucket_index(value: f64) -> usize {
    debug_assert!(value > 0.0 && value.is_finite());
    let bits = value.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
    if exp < MIN_EXP {
        return 0;
    }
    if exp > MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = ((bits >> (52 - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    (exp - MIN_EXP) as usize * SUB_BUCKETS + sub
}

/// Lower and upper edges of the bucket that `value` falls into. Exposed so
/// tests can verify the log-linear layout directly.
pub fn bucket_edges(value: f64) -> (f64, f64) {
    let index = bucket_index(value);
    let exp = MIN_EXP + (index / SUB_BUCKETS) as i32;
    let sub = (index % SUB_BUCKETS) as f64;
    let base = (exp as f64).exp2();
    let lower = base * (1.0 + sub / SUB_BUCKETS as f64);
    let upper = base * (1.0 + (sub + 1.0) / SUB_BUCKETS as f64);
    (lower, upper)
}

/// Representative value reported for a bucket (its midpoint).
pub(crate) fn bucket_midpoint(index: usize) -> f64 {
    let exp = MIN_EXP + (index / SUB_BUCKETS) as i32;
    let sub = (index % SUB_BUCKETS) as f64;
    (exp as f64).exp2() * (1.0 + (sub + 0.5) / SUB_BUCKETS as f64)
}

/// Fixed-size log-linear histogram. Recording is one atomic increment plus
/// a few CAS updates; no allocation.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    /// Values `<= 0` (and non-finite negatives) — reported as 0.0.
    zero_count: AtomicU64,
    count: AtomicU64,
    sum: Counter,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            zero_count: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: Counter::default(),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

impl Histogram {
    pub fn record(&self, value: f64) {
        if !value.is_finite() {
            return;
        }
        if value > 0.0 {
            self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        } else {
            self.zero_count.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.add(value);
        update_extreme(&self.min_bits, value, |new, old| new < old);
        update_extreme(&self.max_bits, value, |new, old| new > old);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        self.sum.value()
    }

    pub fn min(&self) -> f64 {
        let v = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }

    pub fn max(&self) -> f64 {
        let v = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`, accurate to the bucket width
    /// (~3% relative) and clamped to the observed min/max.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (count as f64 - 1.0)).round() as u64;
        let mut seen = self.zero_count.load(Ordering::Relaxed);
        if rank < seen {
            return Some(self.min().min(0.0));
        }
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if rank < seen {
                return Some(bucket_midpoint(i).clamp(self.min(), self.max()));
            }
        }
        Some(self.max())
    }

    /// The standard p50/p95/p99 readout.
    pub fn summary(&self, name: &str) -> HistogramSummary {
        HistogramSummary {
            name: name.to_string(),
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50).unwrap_or(0.0),
            p95: self.quantile(0.95).unwrap_or(0.0),
            p99: self.quantile(0.99).unwrap_or(0.0),
        }
    }
}

fn update_extreme(bits: &AtomicU64, value: f64, better: impl Fn(f64, f64) -> bool) {
    let mut current = bits.load(Ordering::Relaxed);
    while better(value, f64::from_bits(current)) {
        match bits.compare_exchange_weak(
            current,
            value.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

/// Exported histogram readout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    pub name: String,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

/// Name → instrument maps. A lookup of a known name holds only the shared
/// read lock, and [`crate::Obs`] updates the instrument borrowed under it,
/// so concurrent recorders never exclude one another; only a name the
/// registry has never seen takes the write lock. The readers list each
/// map in name order.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.with_counter(name, Arc::clone)
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.with_gauge(name, Arc::clone)
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.with_histogram(name, Arc::clone)
    }

    /// Runs `f` on the named counter (registered if new).
    pub(crate) fn with_counter<R>(&self, name: &str, f: impl FnOnce(&Arc<Counter>) -> R) -> R {
        with_instrument(&self.counters, name, f)
    }

    /// Runs `f` on the named gauge (registered if new).
    pub(crate) fn with_gauge<R>(&self, name: &str, f: impl FnOnce(&Arc<Gauge>) -> R) -> R {
        with_instrument(&self.gauges, name, f)
    }

    /// Runs `f` on the named histogram (registered if new).
    pub(crate) fn with_histogram<R>(&self, name: &str, f: impl FnOnce(&Arc<Histogram>) -> R) -> R {
        with_instrument(&self.histograms, name, f)
    }

    pub fn counter_values(&self) -> Vec<(String, f64)> {
        let map = self.counters.read().expect("registry poisoned");
        map.iter().map(|(k, v)| (k.clone(), v.value())).collect()
    }

    pub fn gauge_values(&self) -> Vec<(String, f64)> {
        let map = self.gauges.read().expect("registry poisoned");
        map.iter().map(|(k, v)| (k.clone(), v.value())).collect()
    }

    pub fn histogram_summaries(&self) -> Vec<HistogramSummary> {
        let map = self.histograms.read().expect("registry poisoned");
        map.iter().map(|(k, v)| v.summary(k)).collect()
    }
}

/// Runs `f` on the instrument named `name`, under the read lock when the
/// name is known and under the write lock when it must be registered.
fn with_instrument<T: Default, R>(
    map: &RwLock<BTreeMap<String, Arc<T>>>,
    name: &str,
    f: impl FnOnce(&Arc<T>) -> R,
) -> R {
    if let Some(found) = map.read().expect("registry poisoned").get(name) {
        return f(found);
    }
    let mut map = map.write().expect("registry poisoned");
    f(map.entry(name.to_string()).or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_exact_for_counts() {
        let c = Counter::default();
        for _ in 0..1000 {
            c.inc();
        }
        c.add(0.5);
        assert_eq!(c.value(), 1000.5);
    }

    #[test]
    fn bucket_edges_are_log_linear() {
        // Within an octave, edges are evenly spaced (linear).
        let (lo1, hi1) = bucket_edges(1.0);
        let (lo2, hi2) = bucket_edges(1.0 + 1.0 / SUB_BUCKETS as f64);
        assert_eq!(lo1, 1.0);
        assert!((hi1 - lo1 - (hi2 - lo2)).abs() < 1e-12);
        assert_eq!(hi1, lo2);
        // Across octaves, widths double.
        let (lo4, hi4) = bucket_edges(2.0);
        assert!(((hi4 - lo4) / (hi1 - lo1) - 2.0).abs() < 1e-12);
        // Every value sits inside its own bucket.
        for &v in &[0.001, 0.5, 1.0, 3.7, 1024.0, 9e9] {
            let (lo, hi) = bucket_edges(v);
            assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi})");
        }
    }

    #[test]
    fn quantiles_on_uniform_distribution() {
        let h = Histogram::default();
        for i in 1..=10_000 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.50).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.05, "p50={p50}");
        assert!((p95 - 9_500.0).abs() / 9_500.0 < 0.05, "p95={p95}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.05, "p99={p99}");
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 10_000.0);
    }

    #[test]
    fn quantiles_on_point_mass() {
        let h = Histogram::default();
        for _ in 0..100 {
            h.record(42.0);
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((v - 42.0).abs() / 42.0 < 0.04, "q{q}={v}");
        }
    }

    #[test]
    fn quantiles_on_bimodal_distribution() {
        let h = Histogram::default();
        for _ in 0..90 {
            h.record(10.0);
        }
        for _ in 0..10 {
            h.record(1000.0);
        }
        let p50 = h.quantile(0.50).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        assert!((p50 - 10.0).abs() / 10.0 < 0.04, "p50={p50}");
        assert!((p95 - 1000.0).abs() / 1000.0 < 0.04, "p95={p95}");
    }

    #[test]
    fn zeros_and_negatives_count_toward_rank() {
        let h = Histogram::default();
        for _ in 0..50 {
            h.record(0.0);
        }
        for _ in 0..50 {
            h.record(100.0);
        }
        assert_eq!(h.quantile(0.25).unwrap(), 0.0);
        let p75 = h.quantile(0.75).unwrap();
        assert!((p75 - 100.0).abs() / 100.0 < 0.04, "p75={p75}");
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        let s = h.summary("empty");
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, 0.0);
    }

    #[test]
    fn registry_returns_same_instrument_for_same_name() {
        let r = Registry::default();
        r.counter("a").inc();
        r.counter("a").inc();
        assert_eq!(r.counter("a").value(), 2.0);
        r.gauge("g").set(7.0);
        assert_eq!(r.gauge("g").value(), 7.0);
        r.histogram("h").record(3.0);
        assert_eq!(r.histogram("h").count(), 1);
        assert_eq!(r.counter_values(), vec![("a".to_string(), 2.0)]);
    }
}
