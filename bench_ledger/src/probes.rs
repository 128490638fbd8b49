//! Per-layer probes: after a traced run, replay the run's own recorded
//! inputs through each crate's public functions and time every call from
//! outside. Every probe that can reproduce an output also checks it.

use crate::util::{mean, mix, SpanLog};
use crate::Report;
use relm_app::{AppSpec, Engine};
use relm_cluster::ClusterSpec;
use relm_common::Rng;
use relm_core::RelmTuner;
use relm_faults::{FaultConfig, FaultPlan};
use relm_obs::{FieldValue, Obs};
use relm_profile::derive_stats;
use relm_serve::{encode, EvalOutcome, Request};
use relm_surrogate::{maximize_ei, GpFitter, SparsePolicy};
use relm_tune::space::DIMS;
use relm_tune::{ConfigSpace, EvalStore, Observation, TuningEnv};
use std::time::Instant;

/// One recorded tuning session: everything its evaluations are a pure
/// function of, plus the history the workload observed.
#[derive(Debug, Clone)]
pub struct ProbeSession {
    pub app: AppSpec,
    pub base_seed: u64,
    pub faults: Option<(u64, FaultConfig)>,
    pub history: Vec<Observation>,
    /// History length at the first surrogate-guided proposal; histories
    /// with no guided steps set it to their length.
    pub guided_from: usize,
}

impl ProbeSession {
    fn engine(&self, obs: Obs) -> Engine {
        let mut engine = Engine::new(ClusterSpec::cluster_a()).with_obs(obs);
        if let Some((seed, faults)) = self.faults {
            engine = engine.with_faults(FaultPlan::new(seed, faults));
        }
        engine
    }

    fn env(&self, obs: Obs) -> TuningEnv {
        TuningEnv::new(self.engine(obs), self.app.clone(), self.base_seed)
    }
}

/// How the workload's own environments were configured, so the timed
/// probe passes pay what the workload paid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvMode {
    /// Serve sessions: telemetry on and an instrumented shared cache.
    Served,
    /// Direct tuning: telemetry off, no cache.
    Direct,
}

/// Per-call samples of every probed layer.
#[derive(Debug, Default)]
pub struct ProbeResults {
    pub evaluate_us: Vec<f64>,
    pub replay_us: Vec<f64>,
    pub run_us: Vec<f64>,
    pub aborts: usize,
    pub retries: f64,
    pub stress_tests: f64,
    pub profile_bytes: Vec<f64>,
    pub derive_us: Vec<f64>,
    pub recommend_us: Vec<f64>,
    /// `(history length, µs)` per guided step.
    pub fit_us: Vec<(usize, f64)>,
    pub ei_us: Vec<(usize, f64)>,
    pub complete_bytes: Vec<f64>,
    pub entry_bytes: Vec<f64>,
    /// Evaluations and the clean ones among them, over the probed sessions.
    pub evaluations: usize,
    pub clean: usize,
}

impl ProbeResults {
    pub fn attempts_per_eval(&self) -> f64 {
        self.run_us.len() as f64 / self.evaluations.max(1) as f64
    }

    pub fn clean_frac(&self) -> f64 {
        self.clean as f64 / self.evaluations.max(1) as f64
    }
}

/// Runs `f`, records it as a span named `name` under `parent`, and
/// returns its result with its duration in µs.
fn timed<T>(
    log: &mut SpanLog,
    parent: u64,
    trace: u64,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let id = log.open();
    log.close(id, parent, trace, name, start, end);
    (out, (end - start).as_secs_f64() * 1e6)
}

/// The seed of every engine attempt the session made, in order, read off
/// the `engine.run` spans of a recording replay.
fn attempt_seeds(session: &ProbeSession, results: &mut ProbeResults) -> Vec<u64> {
    let obs = Obs::with_capacity(8192);
    let mut env = session.env(obs.clone());
    for o in &session.history {
        env.evaluate(&o.config);
    }
    results.retries += obs.counter_value("env.retries");
    results.stress_tests += obs.counter_value("env.stress_tests");
    obs.snapshot()
        .spans
        .iter()
        .filter(|s| s.name == "engine.run")
        .filter_map(|s| {
            s.fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("seed", FieldValue::U64(seed)) => Some(*seed),
                _ => None,
            })
        })
        .collect()
}

/// Replays `sessions` through `TuningEnv::evaluate` (cold, then against
/// the warm store), `Engine::run`, `derive_stats`,
/// `RelmTuner::recommend_from_stats`, and the GP fit/EI of every guided
/// step, checking each reproducible output against the recorded history.
/// Every timed call is also a span in `log`, under one `probe.session`
/// span per session whose trace id is `traces[i]`.
pub fn run(
    sessions: &[ProbeSession],
    traces: &[u64],
    mode: EnvMode,
    log: &mut SpanLog,
    report: &mut Report,
) -> ProbeResults {
    let mut out = ProbeResults::default();
    let cluster = ClusterSpec::cluster_a();
    let served_obs = Obs::enabled();
    let store = match mode {
        EnvMode::Served => EvalStore::instrumented(served_obs.clone()),
        EnvMode::Direct => EvalStore::new(),
    };
    let timed_obs = match mode {
        EnvMode::Served => served_obs.clone(),
        EnvMode::Direct => Obs::disabled(),
    };

    for (index, session) in sessions.iter().enumerate() {
        let trace = traces[index];
        let parent = log.open();
        let session_started = Instant::now();
        out.evaluations += session.history.len();
        out.clean += session.history.iter().filter(|o| !o.is_censored()).count();

        // tune, cold: the workload's own environment shape.
        let mut env = session.env(timed_obs.clone());
        if mode == EnvMode::Served {
            env = env.with_cache(store.clone());
        }
        for (k, o) in session.history.iter().enumerate() {
            let (got, us) = timed(log, parent, trace, "probe.tune.evaluate", || {
                env.evaluate(&o.config)
            });
            out.evaluate_us.push(us);
            report.outcome(got == *o, || {
                format!("session {index} eval {k}: live re-evaluation differs from the run")
            });
        }
        // Direct mode has no cache on the timed path; fill one untimed.
        if mode == EnvMode::Direct {
            let mut fill = session.env(Obs::disabled()).with_cache(store.clone());
            for o in &session.history {
                fill.evaluate(&o.config);
            }
        }
        // tune, warm: every evaluation replays from the store.
        let mut warm = session.env(timed_obs.clone()).with_cache(store.clone());
        for (k, o) in session.history.iter().enumerate() {
            let (got, us) = timed(log, parent, trace, "probe.tune.replay", || {
                warm.evaluate(&o.config)
            });
            out.replay_us.push(us);
            report.outcome(got == *o, || {
                format!("session {index} eval {k}: cache replay differs from the run")
            });
        }
        report.outcome(warm.cache_hits() == session.history.len() as u64, || {
            format!("session {index}: warm replay missed the cache")
        });

        // app / profile / core: every engine attempt, by its recorded seed.
        let seeds = attempt_seeds(session, &mut out);
        let attempts: usize = session.history.iter().map(|o| o.retries as usize + 1).sum();
        report.outcome(seeds.len() == attempts, || {
            format!(
                "session {index}: {} engine.run spans for {attempts} attempts",
                seeds.len()
            )
        });
        let engine = session.engine(Obs::disabled());
        let mut seeds = seeds.into_iter();
        'history: for o in &session.history {
            for attempt in 0..=o.retries {
                let Some(seed) = seeds.next() else {
                    break 'history;
                };
                let ((result, profile), us) = timed(log, parent, trace, "probe.app.run", || {
                    engine.run(&session.app, &o.config, seed)
                });
                out.run_us.push(us);
                out.aborts += usize::from(result.aborted);
                if attempt < o.retries {
                    continue;
                }
                report.outcome(result == o.result, || {
                    format!("session {index}: engine re-run differs from the recorded result")
                });
                out.profile_bytes
                    .push(serde_json::to_string(&profile).map_or(0, |s| s.len()) as f64);
                if !result.aborted {
                    let (stats, us) =
                        timed(log, parent, trace, "probe.profile.derive_stats", || {
                            derive_stats(&profile)
                        });
                    out.derive_us.push(us);
                    let (recommended, us) =
                        timed(log, parent, trace, "probe.core.recommend", || {
                            RelmTuner::default().recommend_from_stats(&cluster, stats)
                        });
                    out.recommend_us.push(us);
                    std::hint::black_box(recommended.ok());
                }
            }
        }

        // surrogate: a fresh fit + EI on each guided step's settled history.
        let space = ConfigSpace::for_app(&cluster, &session.app);
        for k in session.guided_from..session.history.len() {
            let settled = &session.history[..k];
            let mut fitter = GpFitter::new(1).with_policy(SparsePolicy::large_n());
            for o in settled {
                if let Err(e) = fitter.observe(space.encode(&o.config).to_vec(), o.score_mins) {
                    report.fail(format!("session {index}: GP observe failed: {e}"));
                }
            }
            let (fitted, us) = timed(log, parent, trace, "probe.surrogate.fit", || {
                fitter.fit_full(mix(session.base_seed, k as u64))
            });
            out.fit_us.push((k, us));
            let gp = match fitted {
                Ok(gp) => gp,
                Err(e) => {
                    report.fail(format!("session {index}: GP fit failed: {e}"));
                    continue;
                }
            };
            let tau = settled
                .iter()
                .map(|o| o.score_mins)
                .fold(f64::INFINITY, f64::min);
            let mut rng = Rng::new(mix(session.base_seed ^ 0xE1, k as u64));
            let (proposal, us) = timed(log, parent, trace, "probe.surrogate.ei", || {
                maximize_ei(&gp, DIMS, tau, &mut rng)
            });
            out.ei_us.push((k, us));
            std::hint::black_box(proposal);
        }
        log.close(
            parent,
            0,
            trace,
            "probe.session",
            session_started,
            Instant::now(),
        );
    }

    // fleet / evalcache: what each memoized evaluation costs to ship and
    // to keep.
    for (task, (_, eval)) in store.entries().into_iter().enumerate() {
        let eval = (*eval).clone();
        out.entry_bytes
            .push(serde_json::to_string(&eval).map_or(0, |s| s.len()) as f64);
        let frame = encode(&Request::Complete {
            worker: "ledger-worker".to_string(),
            task: task as u64,
            outcome: EvalOutcome { eval, wall_ms: 0.0 },
        });
        out.complete_bytes.push(frame.len() as f64);
    }
    if mean(&out.entry_bytes) == 0.0 {
        report.fail("the probe store holds no evaluations".to_string());
    }
    out
}
