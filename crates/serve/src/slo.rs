//! Windowed SLO tracking for the serving layer.
//!
//! An `SloTracker` (crate-internal) feeds rolling-window instruments
//! ([`relm_obs::WindowedHistogram`] / [`relm_obs::WindowedCounter`]) from
//! the evaluation path and publishes the readout as `serve.slo.*` gauges,
//! so a `Metrics` scrape answers "how is the service doing *lately*"
//! rather than "since boot". The readout is computed when it is read, not
//! on every evaluation: the gauges are published at each window rotation,
//! at each admission rejection and at each `Metrics` scrape (which
//! publishes before it captures, so a scrape always reads the live
//! window). An in-process [`relm_obs::Obs::snapshot`] between those points
//! may read gauges up to `SLO_EPOCH_EVALS - 1` evaluations old. Window
//! rotation is driven by evaluation count — every [`SLO_EPOCH_EVALS`]
//! completed evaluations, never by a wall clock — so nothing here perturbs
//! the deterministic path; only the recorded latencies themselves are
//! timing-dependent, and those are telemetry by definition.
//!
//! ## Published series
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `serve.slo.evaluations` | counter | evaluations the tracker has seen (reconciles with `serve.evaluations`) |
//! | `serve.slo.errors` | counter | error-budget spend since boot (censored evaluations + admission rejections) |
//! | `serve.slo.latency_p50_ms` (`p95`, `p99`) | gauge | evaluate latency quantiles over the live window |
//! | `serve.slo.window.evals` | gauge | samples in the live window |
//! | `serve.slo.window.errors` | gauge | error-budget spend in the live window |
//! | `serve.slo.rotations` | counter | completed window rotations |
//!
//! The tracker increments `serve.slo.evaluations` *before* the caller
//! increments `serve.evaluations`; together with the registry's
//! name-sorted read order (`serve.evaluations` is read first) this makes
//! `serve.slo.evaluations >= serve.evaluations` hold in every mid-load
//! scrape, and exact equality hold once the service is quiescent.

use relm_obs::{Obs, WindowedCounter, WindowedHistogram, DEFAULT_WINDOW_EPOCHS};
use std::sync::atomic::{AtomicU64, Ordering};

/// Completed evaluations per SLO window epoch. With
/// [`DEFAULT_WINDOW_EPOCHS`] live epochs the quantiles cover the last
/// ~256 evaluations.
pub const SLO_EPOCH_EVALS: u64 = 64;

/// Rolling-window SLO state shared by the worker pool.
pub(crate) struct SloTracker {
    latency: WindowedHistogram,
    errors: WindowedCounter,
    /// Evaluations recorded since the last rotation decision; drives the
    /// event-count rotation cadence.
    recorded: AtomicU64,
}

impl SloTracker {
    pub(crate) fn new() -> Self {
        SloTracker {
            latency: WindowedHistogram::new(DEFAULT_WINDOW_EPOCHS),
            errors: WindowedCounter::new(DEFAULT_WINDOW_EPOCHS),
            recorded: AtomicU64::new(0),
        }
    }

    /// Records one completed evaluation: latency into the window,
    /// error-budget spend if it was censored, and rotation bookkeeping. A
    /// rotation also publishes the gauge readout.
    pub(crate) fn record_eval(&self, obs: &Obs, latency_ms: f64, censored: bool) {
        self.latency.record(latency_ms);
        if censored {
            self.errors.add(1.0);
            obs.inc("serve.slo.errors");
        }
        obs.inc("serve.slo.evaluations");
        let n = self.recorded.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(SLO_EPOCH_EVALS) {
            self.latency.rotate();
            self.errors.rotate();
            obs.inc("serve.slo.rotations");
            self.publish(obs);
        }
    }

    /// Spends error budget on an admission rejection (the client was
    /// turned away; no evaluation latency to record).
    pub(crate) fn record_rejection(&self, obs: &Obs) {
        self.errors.add(1.0);
        obs.inc("serve.slo.errors");
        self.publish(obs);
    }

    /// Publishes the current windowed readout as gauges.
    pub(crate) fn publish(&self, obs: &Obs) {
        let s = self.latency.summary("serve.slo.latency_ms");
        obs.gauge("serve.slo.latency_p50_ms", s.p50);
        obs.gauge("serve.slo.latency_p95_ms", s.p95);
        obs.gauge("serve.slo.latency_p99_ms", s.p99);
        obs.gauge("serve.slo.window.evals", self.latency.live_count() as f64);
        obs.gauge("serve.slo.window.errors", self.errors.window_value());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_reconciles_and_rotates() {
        let obs = Obs::enabled();
        let slo = SloTracker::new();
        for i in 0..(SLO_EPOCH_EVALS * 2 + 5) {
            slo.record_eval(&obs, 1.0 + i as f64, i % 10 == 0);
        }
        slo.record_rejection(&obs);
        let n = SLO_EPOCH_EVALS * 2 + 5;
        assert_eq!(obs.counter_value("serve.slo.evaluations"), n as f64);
        assert_eq!(obs.counter_value("serve.slo.rotations"), 2.0);
        // 14 censored (i % 10 == 0 over 0..133) + 1 rejection.
        assert_eq!(obs.counter_value("serve.slo.errors"), 15.0);
        // Lifetime count never loses samples to rotation.
        assert_eq!(slo.latency.total_count(), n);
        let snap = obs.snapshot();
        let gauge = |name: &str| {
            snap.gauges
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        // Two rotations opened a third epoch; with a 4-epoch window all
        // samples are still live.
        assert_eq!(gauge("serve.slo.window.evals"), n as f64);
        assert!(gauge("serve.slo.latency_p50_ms") > 0.0);
        assert!(gauge("serve.slo.window.errors") >= 1.0);
    }

    #[test]
    fn gauges_are_published_on_read_and_at_rotation() {
        let obs = Obs::enabled();
        let slo = SloTracker::new();
        let gauge = |name: &str| {
            obs.snapshot()
                .gauges
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        for i in 0..5 {
            slo.record_eval(&obs, 2.0 + i as f64, false);
        }
        // No rotation and no rejection yet: nothing was published until
        // a reader asks.
        assert_eq!(gauge("serve.slo.window.evals"), None);
        slo.publish(&obs);
        assert_eq!(gauge("serve.slo.window.evals"), Some(5.0));
        assert!(gauge("serve.slo.latency_p50_ms").unwrap() > 0.0);

        // The rotation at the 64th evaluation publishes by itself; the
        // next evaluation leaves the readout as the rotation wrote it.
        for _ in 5..SLO_EPOCH_EVALS {
            slo.record_eval(&obs, 1.0, false);
        }
        assert_eq!(
            gauge("serve.slo.window.evals"),
            Some(SLO_EPOCH_EVALS as f64)
        );
        slo.record_eval(&obs, 1.0, false);
        assert_eq!(
            gauge("serve.slo.window.evals"),
            Some(SLO_EPOCH_EVALS as f64)
        );
    }
}
