//! The cost ledger: one benchmark for the whole RelM tuning stack.
//!
//! ```text
//! ledger --workload <serve_cold|serve_replay|tune_direct> --seed N
//!        --seconds S --trace <0|1> [--out DIR]
//! ```
//!
//! Each workload is a closed loop driven through public APIs only: the TCP
//! frontend (`TcpClient`) for the two serve workloads, `Tuner::tune` on a
//! `TuningEnv` for `tune_direct`. The seed is the only input; every session
//! spec derives from it. A run sets up (several times, reporting the median),
//! measures for `--seconds`, checks its outputs, and prints one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The traced run also writes its bench-side spans to
//! `DIR/spans-<workload>.jsonl` (default `DIR` is `bench_ledger/out`).
//! See `NOTES.md` for why each workload exists and what each layer metric
//! should move.

mod layers;
mod probes;
mod serve_wl;
mod tune_wl;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics: emitted by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("evals_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("session_p50_ms", "ms"),
    ("best_runtime_min", "sim-min"),
    ("stress_time_min", "sim-min"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: emitted by every workload with `--trace 1`. A layer
/// the workload does not pass through reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("step_p90_ms", "ms"),
    ("step_p99_ms", "ms"),
    ("session_p90_ms", "ms"),
    ("serve.rtt_ms.create_session", "ms"),
    ("serve.rtt_ms.step_auto", "ms"),
    ("serve.rtt_ms.step_guided", "ms"),
    ("serve.rtt_ms.join", "ms"),
    ("serve.rtt_ms.result", "ms"),
    ("serve.rtt_ms.status", "ms"),
    ("serve.rtt_ms.drain", "ms"),
    ("serve.result_bytes", "bytes"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.evaluate_ms.p50", "ms"),
    ("serve.evaluate_ms.p99", "ms"),
    ("serve.overloaded", "count"),
    ("serve.drain_ms", "ms"),
    ("serve.checkpoint_bytes", "bytes"),
    ("serve.calls", "count"),
    ("serve.busy_ms", "ms"),
    ("serve.share", "ratio"),
    ("evalcache.hit_ratio", "ratio"),
    ("evalcache.bytes_per_entry", "bytes"),
    ("tune.evaluate_us", "us"),
    ("tune.replay_us", "us"),
    ("tune.retry_frac", "ratio"),
    ("tune.calls", "count"),
    ("tune.busy_ms", "ms"),
    ("tune.share", "ratio"),
    ("tune_ms.relm", "ms"),
    ("tune_ms.bo", "ms"),
    ("tune_ms.gbo", "ms"),
    ("tune_ms.ddpg", "ms"),
    ("app.run_us.p50", "us"),
    ("app.run_us.p99", "us"),
    ("app.profile_bytes", "bytes"),
    ("app.abort_frac", "ratio"),
    ("app.calls", "count"),
    ("app.busy_ms", "ms"),
    ("app.share", "ratio"),
    ("profile.derive_stats_us", "us"),
    ("profile.calls", "count"),
    ("profile.busy_ms", "ms"),
    ("profile.share", "ratio"),
    ("surrogate.fit_us", "us"),
    ("surrogate.ei_us", "us"),
    ("surrogate.fit_us.n_max", "us"),
    ("surrogate.ei_us.n_max", "us"),
    ("surrogate.n_max", "count"),
    ("surrogate.calls", "count"),
    ("surrogate.busy_ms", "ms"),
    ("surrogate.share", "ratio"),
    ("bo.fit_ms", "ms"),
    ("bo.acq_ms", "ms"),
    ("gbo.fit_ms", "ms"),
    ("gbo.acq_ms", "ms"),
    ("bo.calls", "count"),
    ("bo.busy_ms", "ms"),
    ("bo.share", "ratio"),
    ("core.recommend_us", "us"),
    ("core.calls", "count"),
    ("core.busy_ms", "ms"),
    ("core.share", "ratio"),
    ("ddpg.act_ms", "ms"),
    ("ddpg.update_ms", "ms"),
    ("ddpg.calls", "count"),
    ("ddpg.busy_ms", "ms"),
    ("ddpg.share", "ratio"),
    ("fleet.complete_bytes", "bytes"),
    ("obs.overhead_frac", "ratio"),
    ("obs.noise_frac", "ratio"),
    ("unattributed_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// Run options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    /// Process start, the origin of every span timestamp.
    pub epoch: Instant,
}

/// What one run found: its metrics and the outcome of its output checks.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    /// Failed sessions and output checks: any of these fails the run.
    pub failed: u64,
    /// `Overloaded` replies.
    pub rejected: u64,
    pub failures: Vec<String>,
}

impl Report {
    /// Records a metric. Names must be declared above, so a typo fails
    /// loudly instead of silently dropping a row.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not declared in END_TO_END or PER_LAYER"
        );
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets every per-layer metric under `prefixes` that is not set yet
    /// to 0: those layers are not on this workload's path.
    pub fn absent(&mut self, prefixes: &[&str]) {
        for (name, _) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) && !self.metrics.contains_key(*name) {
                self.metrics.insert(name.to_string(), 0.0);
            }
        }
    }

    /// Counts one operation against `attempted`; a failure also counts in
    /// `failed` and fails the run.
    pub fn outcome(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts requests sent to the service; `Overloaded` replies count as
    /// failed operations but not as failed checks (the client backs off
    /// and retries them).
    pub fn requests(&mut self, sent: u64, overloaded: u64) {
        self.attempted += sent;
        self.rejected += overloaded;
    }

    /// Counts a failed session or check in `failed`, which fails the run.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

fn usage(message: &str) -> ! {
    eprintln!("ledger: {message}");
    eprintln!(
        "usage: ledger --workload <serve_cold|serve_replay|tune_direct> --seed N \
         --seconds S --trace <0|1> [--out DIR]"
    );
    std::process::exit(2);
}

fn parse_args(epoch: Instant) -> Opts {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("bench_ledger/out"),
        epoch,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("missing value for {flag}")));
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                opts.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--out" => opts.out = PathBuf::from(value),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    opts
}

/// Formats a metric value as JSON; a non-finite value is a bug upstream
/// and is reported as 0 with the run marked incorrect.
fn json_number(value: f64) -> Option<String> {
    value.is_finite().then(|| format!("{value}"))
}

fn main() {
    let epoch = Instant::now();
    let opts = parse_args(epoch);
    let mut report = Report::default();
    match opts.workload.as_str() {
        "serve_cold" => serve_wl::run(&opts, false, &mut report),
        "serve_replay" => serve_wl::run(&opts, true, &mut report),
        "tune_direct" => tune_wl::run(&opts, &mut report),
        other => usage(&format!("unknown workload `{other}`")),
    }
    if opts.trace {
        let failed_frac = (report.failed + report.rejected) as f64 / report.attempted.max(1) as f64;
        report.set("failed_frac", failed_frac);
    }
    let declared = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let value = match report.metrics.get(*name) {
            Some(v) => *v,
            None => {
                report.fail(format!("metric `{name}` was not measured"));
                0.0
            }
        };
        let number = match json_number(value) {
            Some(n) => n,
            None => {
                report.fail(format!("metric `{name}` is not finite: {value}"));
                "0".to_string()
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {number}, \"unit\": \"{unit}\"}}"
        ));
    }
    for failure in &report.failures {
        eprintln!("ledger: check failed: {failure}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed + report.rejected,
        fields.join(", ")
    );
}
