//! Layer rows: how much of a workload's blocking time each layer
//! explains, and the telemetry-overhead measurement.

use crate::probes::ProbeResults;
use crate::util::{mean, median, quantile};
use crate::Report;

/// Obs-off/Obs-on segment pairs of the traced run's overhead measurement.
const OVERHEAD_PAIRS: usize = 4;

/// Telemetry overhead: alternating Obs-off/Obs-on segments of identical
/// work (about an eighth of the timed pass each), each pair giving
/// `1 - on/off`. Returns the median pair estimate and the spread of
/// the pair estimates (the noise floor it must clear).
pub fn obs_overhead(mut segment: impl FnMut(bool, usize) -> f64) -> (f64, f64) {
    let mut estimates = Vec::new();
    for pair in 0..OVERHEAD_PAIRS {
        let order = if pair % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        let mut rate = [0.0; 2];
        for (k, on) in order.into_iter().enumerate() {
            rate[usize::from(on)] = segment(on, 2 * pair + k);
        }
        if rate[0] > 0.0 {
            estimates.push(1.0 - rate[1] / rate[0]);
        }
    }
    let spread = quantile(&estimates, 0.75) - quantile(&estimates, 0.25);
    (median(&estimates), spread)
}

/// Self time per `TuningEnv::evaluate` call beyond the engine and
/// `derive_stats` work it wraps: priced on the replay path when the
/// workload's evaluations were cache hits, on the live path otherwise.
pub fn tune_self_us(probe: &ProbeResults, cached: bool) -> f64 {
    let derive = probe.clean_frac() * mean(&probe.derive_us);
    let total = if cached {
        mean(&probe.replay_us) - derive
    } else {
        mean(&probe.evaluate_us) - probe.attempts_per_eval() * mean(&probe.run_us) - derive
    };
    total.max(0.0)
}

/// Calls per layer in the timed pass, priced at the probe's mean cost per
/// call, against the clients' blocking time.
pub struct LayerRows {
    pub base_ms: f64,
    pub app_calls: f64,
    pub profile_calls: f64,
    pub tune_calls: f64,
    pub tune_self_us: f64,
    pub surrogate_calls: f64,
    pub serve_calls: f64,
    pub serve_us: f64,
    /// Rows priced by the program's own instruments: `(layer, (calls,
    /// busy ms))`.
    pub extra: Vec<(&'static str, (f64, f64))>,
}

impl LayerRows {
    /// Reports the probe layers' per-call figures, one row per layer, and
    /// the share no layer explains.
    pub fn report(&self, probe: &ProbeResults, report: &mut Report) {
        let fit_max_n = probe.fit_us.iter().map(|(n, _)| *n).max().unwrap_or(0);
        let at_max = |samples: &[(usize, f64)]| -> Vec<f64> {
            samples
                .iter()
                .filter(|(n, _)| *n == fit_max_n)
                .map(|(_, us)| *us)
                .collect()
        };
        let fit: Vec<f64> = probe.fit_us.iter().map(|(_, us)| *us).collect();
        let ei: Vec<f64> = probe.ei_us.iter().map(|(_, us)| *us).collect();
        report.set("tune.evaluate_us", median(&probe.evaluate_us));
        report.set("tune.replay_us", median(&probe.replay_us));
        report.set(
            "tune.retry_frac",
            probe.retries / probe.stress_tests.max(1.0),
        );
        report.set("app.run_us.p50", quantile(&probe.run_us, 0.5));
        report.set("app.run_us.p99", quantile(&probe.run_us, 0.99));
        report.set("app.profile_bytes", median(&probe.profile_bytes));
        report.set(
            "app.abort_frac",
            probe.aborts as f64 / probe.run_us.len().max(1) as f64,
        );
        report.set("profile.derive_stats_us", median(&probe.derive_us));
        report.set("surrogate.fit_us", median(&fit));
        report.set("surrogate.ei_us", median(&ei));
        report.set("surrogate.fit_us.n_max", median(&at_max(&probe.fit_us)));
        report.set("surrogate.ei_us.n_max", median(&at_max(&probe.ei_us)));
        report.set("surrogate.n_max", fit_max_n as f64);
        report.set("core.recommend_us", median(&probe.recommend_us));
        report.set("fleet.complete_bytes", median(&probe.complete_bytes));

        let mut busy_total = 0.0;
        let mut row = |layer: &str, calls: f64, per_call_us: f64, report: &mut Report| {
            let busy_ms = calls * per_call_us / 1e3;
            busy_total += busy_ms;
            report.set(&format!("{layer}.calls"), calls);
            report.set(&format!("{layer}.busy_ms"), busy_ms);
            report.set(&format!("{layer}.share"), busy_ms / self.base_ms.max(1e-9));
        };
        row("app", self.app_calls, mean(&probe.run_us), report);
        row(
            "profile",
            self.profile_calls,
            mean(&probe.derive_us),
            report,
        );
        row("tune", self.tune_calls, self.tune_self_us, report);
        row(
            "surrogate",
            self.surrogate_calls,
            mean(&fit) + mean(&ei),
            report,
        );
        row("serve", self.serve_calls, self.serve_us, report);
        for (layer, (calls, busy_ms)) in &self.extra {
            let per_call_us = if *calls > 0.0 {
                busy_ms * 1e3 / calls
            } else {
                0.0
            };
            row(layer, *calls, per_call_us, report);
        }
        report.set(
            "unattributed_frac",
            1.0 - busy_total / self.base_ms.max(1e-9),
        );
    }
}
