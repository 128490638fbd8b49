//! `relm-obs`: observability for the tuning stack — span tracing, a
//! metrics registry, and JSONL telemetry export.
//!
//! The entry point is [`Obs`], a cheaply clonable handle threaded through
//! the engine, the tuning environment, and every tuner. A default-built
//! (`Obs::disabled()`) handle is a no-op: every recording method checks one
//! `Option` and returns, so instrumented code pays nothing when
//! observability is off. Enable it explicitly with [`Obs::enabled`] or via
//! the `RELM_OBS=1` environment variable with [`Obs::from_env`].
//!
//! ## Thread safety
//!
//! [`Obs`] (and its clones) may be shared freely across threads: counters
//! and gauges are lock-free atomics whose increments are exact for
//! integer-valued totals below 2^53, histograms are arrays of atomic
//! bucket counts, and the span ring is behind a `Mutex`. The
//! *per-thread* aspects are span **parenting** and [`Obs::tally`] scopes:
//! the open spans and scopes live in thread-local storage, so a span
//! opened on a worker thread never parents under a span opened on another
//! thread, and a scope never holds another thread's increments — by
//! design, since cross-thread edges would depend on scheduling. The threaded
//! stress test (`tests/threaded_stress.rs`) pins these guarantees with
//! exact cross-thread reconciliation.
//!
//! ```
//! let obs = relm_obs::Obs::enabled();
//! {
//!     let mut span = obs.span("engine.run");
//!     span.set("gc_ms", 12.5);
//!     obs.record("engine.run_ms", 830.0);
//!     obs.inc("engine.runs");
//! }
//! let snapshot = obs.snapshot();
//! assert_eq!(snapshot.spans.len(), 1);
//! println!("{}", relm_obs::summary_table(&snapshot));
//! ```

mod expo;
mod flightrec;
mod metrics;
mod sink;
mod span;
pub mod trace;
mod window;

pub use expo::{parse_prometheus, render_prometheus, MetricsSnapshot};
pub use flightrec::{
    read_dump, save_dump, FlightDump, FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY,
    FLIGHTREC_VERSION,
};
pub use metrics::{
    bucket_edges, Counter, Gauge, Histogram, HistogramSummary, Registry, MAX_EXP, MIN_EXP,
    SUB_BUCKETS,
};
pub use sink::{events, read_jsonl, summary_table, write_jsonl, write_jsonl_file, Event};
pub use span::{FieldValue, SpanGuard, SpanRecord, SpanRing};
pub use window::{WindowedCounter, WindowedHistogram, DEFAULT_WINDOW_EPOCHS};

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::path::Path;
use std::sync::Arc;

/// Default ring-buffer capacity: enough for the longest experiment runs
/// while bounding memory at a few MB.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

#[derive(Debug)]
struct Inner {
    tracer: Arc<span::Tracer>,
    registry: Registry,
}

/// Shared observability handle. `Clone` is an `Arc` bump; all clones feed
/// the same buffers.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl Obs {
    /// A no-op handle: spans and metrics are discarded at the call site.
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// A recording handle with the default span capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A recording handle retaining at most `span_capacity` completed
    /// spans (older spans are overwritten, never reallocated).
    pub fn with_capacity(span_capacity: usize) -> Self {
        Obs {
            inner: Some(Arc::new(Inner {
                tracer: Arc::new(span::Tracer::new(span_capacity)),
                registry: Registry::default(),
            })),
        }
    }

    /// Enabled iff the `RELM_OBS` environment variable is set to `1`
    /// (or `true`); disabled otherwise.
    pub fn from_env() -> Self {
        match std::env::var("RELM_OBS") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Self::enabled(),
            _ => Self::disabled(),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a timed span; drop the guard to commit it. Fields can be
    /// attached with [`SpanGuard::set`] / [`SpanGuard::with`].
    pub fn span(&self, name: &str) -> SpanGuard {
        span::begin_span(self.inner.as_ref().map(|i| &i.tracer), name)
    }

    /// Opens a span whose start time is back-dated to `start_us` (a value
    /// previously read from [`Obs::now_us`]). This is how one span covers
    /// an interval that began on another thread — e.g. queue wait, opened
    /// by the worker at dequeue but stamped from the enqueue timestamp
    /// carried with the work item.
    pub fn span_at(&self, name: &str, start_us: u64) -> SpanGuard {
        let mut guard = self.span(name);
        guard.set_start_us(start_us);
        guard
    }

    /// Microseconds since this handle was created (0 when disabled) — the
    /// clock every span start/end is stamped on.
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.tracer.now_us(),
            None => 0,
        }
    }

    /// Increments the named counter by 1.
    pub fn inc(&self, name: &str) {
        self.add(name, 1.0);
    }

    /// Adds `delta` to the named counter, or to this thread's innermost
    /// open [`Obs::tally`] scope on this handle's registry.
    pub fn add(&self, name: &str, delta: f64) {
        if let Some(inner) = &self.inner {
            if !tally_absorb(Arc::as_ptr(inner), name, delta) {
                inner.registry.counter(name).add(delta);
            }
        }
    }

    /// Runs `f` with this thread's counter increments to this handle's
    /// registry held back and summed per name. When `f` returns or
    /// unwinds, each total is added once (to the registry, or to an
    /// enclosing scope on it) and `f`'s result comes back with the totals,
    /// name-sorted. Booking the totals again later counts exactly what `f`
    /// counted: other threads and other registries never enter the scope.
    /// A disabled handle returns `(f(), vec![])`.
    pub fn tally<R>(&self, f: impl FnOnce() -> R) -> (R, Vec<(String, f64)>) {
        let Some(inner) = &self.inner else {
            return (f(), Vec::new());
        };
        TALLIES.with(|t| t.borrow_mut().push((Arc::as_ptr(inner), Vec::new())));
        let mut totals = Vec::new();
        let scope = TallyScope {
            obs: self,
            totals: &mut totals,
        };
        let out = f();
        drop(scope);
        (out, totals)
    }

    /// Reads a counter's current value (0 when disabled or unregistered).
    pub fn counter_value(&self, name: &str) -> f64 {
        match &self.inner {
            Some(inner) => inner.registry.counter(name).value(),
            None => 0.0,
        }
    }

    /// Sets the named gauge.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge(name).set(value);
        }
    }

    /// Records one observation into the named histogram.
    pub fn record(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.histogram(name).record(value);
        }
    }

    /// A clonable handle to the named histogram, for hot paths that want
    /// to skip the per-record registry lookup. `None` when disabled.
    pub fn histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        self.inner.as_ref().map(|i| i.registry.histogram(name))
    }

    /// Reads a quantile from the named histogram.
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.inner
            .as_ref()
            .and_then(|i| i.registry.histogram(name).quantile(q))
    }

    /// Captures the current spans and metric values.
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            None => Snapshot::default(),
            Some(inner) => {
                let ring = inner.tracer.ring.lock().expect("span ring poisoned");
                Snapshot {
                    spans: ring.snapshot(),
                    dropped_spans: ring.dropped(),
                    counters: inner.registry.counter_values(),
                    gauges: inner.registry.gauge_values(),
                    histograms: inner.registry.histogram_summaries(),
                }
            }
        }
    }

    /// Captures the current metric values without the span ring — the
    /// cheap, scrape-friendly subset of [`Obs::snapshot`] that the serve
    /// `Metrics` endpoint ships (as JSON and via [`render_prometheus`]).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(inner) => MetricsSnapshot {
                counters: inner.registry.counter_values(),
                gauges: inner.registry.gauge_values(),
                histograms: inner.registry.histogram_summaries(),
                dropped_spans: inner
                    .tracer
                    .ring
                    .lock()
                    .expect("span ring poisoned")
                    .dropped(),
            },
        }
    }

    /// Summarizes every histogram, name-sorted (empty when disabled) —
    /// the histogram part of [`Obs::snapshot`] without copying the span
    /// ring.
    pub fn histogram_summaries(&self) -> Vec<HistogramSummary> {
        match &self.inner {
            Some(inner) => inner.registry.histogram_summaries(),
            None => Vec::new(),
        }
    }

    /// Writes the current snapshot as JSON Lines to `path`. A disabled
    /// handle writes nothing and reports success.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        if !self.is_enabled() {
            return Ok(());
        }
        write_jsonl_file(path, &self.snapshot())
    }
}

/// Per-name totals held back by an open [`Obs::tally`] scope, keyed by
/// its registry.
type Tally = (*const Inner, Vec<(String, f64)>);

thread_local! {
    /// Tally scopes open on this thread, innermost last.
    static TALLIES: RefCell<Vec<Tally>> = const { RefCell::new(Vec::new()) };
}

/// Adds `delta` to the innermost scope open on this thread for
/// `registry`; false when there is none.
fn tally_absorb(registry: *const Inner, name: &str, delta: f64) -> bool {
    let absorb = |t: &RefCell<Vec<Tally>>| {
        let mut t = t.borrow_mut();
        let Some((_, totals)) = t.iter_mut().rev().find(|(r, _)| *r == registry) else {
            return false;
        };
        match totals.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += delta,
            None => totals.push((name.to_string(), delta)),
        }
        true
    };
    // While the thread's locals are torn down there is no scope.
    TALLIES.try_with(absorb).unwrap_or(false)
}

/// Closes an [`Obs::tally`] scope when dropped, on return or unwind: pops
/// it, books its totals through [`Obs::add`] and leaves them, name-sorted,
/// in `totals`.
struct TallyScope<'a> {
    obs: &'a Obs,
    totals: &'a mut Vec<(String, f64)>,
}

impl Drop for TallyScope<'_> {
    fn drop(&mut self) {
        let popped = TALLIES.try_with(|t| t.borrow_mut().pop()).ok().flatten();
        let mut totals = popped.map(|(_, totals)| totals).unwrap_or_default();
        totals.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, total) in &totals {
            self.obs.add(name, *total);
        }
        *self.totals = totals;
    }
}

// The serving layer hands one `Obs` to every worker thread; these
// bindings break the build if any layer of the handle stops being
// shareable.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Obs>();
    assert_send_sync::<Counter>();
    assert_send_sync::<Gauge>();
    assert_send_sync::<Histogram>();
    assert_send_sync::<Registry>();
};

/// Point-in-time export of everything an [`Obs`] handle has recorded.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    pub spans: Vec<SpanRecord>,
    pub dropped_spans: u64,
    pub counters: Vec<(String, f64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<HistogramSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        {
            let mut span = obs.span("ignored");
            span.set("k", 1u64);
        }
        obs.inc("c");
        obs.record("h", 1.0);
        obs.gauge("g", 1.0);
        let snap = obs.snapshot();
        assert_eq!(snap, Snapshot::default());
        assert_eq!(obs.counter_value("c"), 0.0);
        assert_eq!(obs.histogram_quantile("h", 0.5), None);
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.inc("shared");
        obs.add("shared", 2.0);
        assert_eq!(obs.counter_value("shared"), 3.0);
    }

    #[test]
    fn spans_nest_across_handle_clones() {
        let obs = Obs::enabled();
        {
            let _outer = obs.span("outer").with("layer", "harness");
            let clone = obs.clone();
            let _inner = clone.span("inner");
        }
        let snap = obs.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let inner = snap.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = snap.spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(
            outer.fields,
            vec![("layer".to_string(), FieldValue::Str("harness".into()))]
        );
    }

    #[test]
    fn from_env_respects_flag() {
        // Avoid mutating the process environment (tests run in parallel):
        // only assert the disabled default when the variable is unset.
        if std::env::var("RELM_OBS").is_err() {
            assert!(!Obs::from_env().is_enabled());
        }
    }

    #[test]
    fn histogram_summaries_match_the_snapshot() {
        let obs = Obs::enabled();
        {
            let _span = obs.span("unit");
        }
        obs.record("b_ms", 2.0);
        obs.record("a_ms", 1.0);
        obs.record("a_ms", 3.0);
        assert_eq!(obs.histogram_summaries(), obs.snapshot().histograms);
        assert!(Obs::disabled().histogram_summaries().is_empty());
    }

    /// A tally holds its thread's increments back and books one total per
    /// name when it ends; another thread's increments and another
    /// registry's pass straight through.
    #[test]
    fn tally_books_its_own_totals_once() {
        let obs = Obs::enabled();
        let other = Obs::enabled();
        let ((), totals) = obs.tally(|| {
            obs.inc("runs");
            obs.add("ms", 0.1);
            obs.add("ms", 0.2);
            obs.clone().inc("runs");
            assert_eq!(obs.counter_value("runs"), 0.0, "held back until the end");
            other.inc("runs");
            std::thread::scope(|s| {
                s.spawn(|| obs.inc("noise"));
            });
        });
        assert_eq!(
            totals,
            vec![("ms".to_string(), 0.1 + 0.2), ("runs".to_string(), 2.0)]
        );
        assert_eq!(obs.counter_value("runs"), 2.0);
        assert_eq!(obs.counter_value("ms"), 0.1 + 0.2);
        assert_eq!(obs.counter_value("noise"), 1.0);
        assert_eq!(other.counter_value("runs"), 1.0);
        // Booking the totals again counts the same work twice, exactly.
        for (name, total) in &totals {
            obs.add(name, *total);
        }
        assert_eq!(obs.counter_value("runs"), 4.0);
        assert_eq!(Obs::disabled().tally(|| 7), (7, Vec::new()));
    }

    #[test]
    fn nested_tallies_join_the_outer_and_unwinding_books() {
        let obs = Obs::enabled();
        let (inner, outer) = obs.tally(|| {
            obs.inc("a");
            let ((), inner) = obs.tally(|| obs.add("b", 2.0));
            inner
        });
        assert_eq!(inner, vec![("b".to_string(), 2.0)]);
        assert_eq!(outer, vec![("a".to_string(), 1.0), ("b".to_string(), 2.0)]);
        assert_eq!(obs.counter_value("b"), 2.0);

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            obs.tally(|| {
                obs.inc("c");
                panic!("evaluation failed");
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(obs.counter_value("c"), 1.0);
        obs.inc("c");
        assert_eq!(obs.counter_value("c"), 2.0, "the unwound scope is closed");
    }

    #[test]
    fn snapshot_serializes_and_rehydrates() {
        let obs = Obs::enabled();
        {
            let mut s = obs.span("unit");
            s.set("n", 3u64);
        }
        obs.inc("count");
        obs.record("lat_ms", 5.0);
        let snap = obs.snapshot();
        let text = serde_json::to_string(&snap).unwrap();
        let back: Snapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(snap, back);
    }
}
