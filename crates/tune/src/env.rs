//! The tuning environment: stress-test execution, objective scoring, and
//! bookkeeping shared by every tuning policy.

use crate::cache::{CachedEval, EvalStore};
use crate::export::SessionCheckpoint;
use crate::space::ConfigSpace;
use relm_app::{AppSpec, Engine, RunResult};
use relm_common::{Mem, MemoryConfig, Millis};
use relm_evalcache::{EvalKey, KeyBuilder};
use relm_faults::{AbortCause, AbortClass};
use relm_obs::Obs;
use relm_profile::{DerivedStats, StatsAccumulator};
use serde::{Deserialize, Serialize};

/// Multiplier applied to the worst observed runtime when scoring an
/// aborted run (§6.1).
pub const ABORT_PENALTY_FACTOR: f64 = 2.0;

/// One evaluated configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// The configuration that was run.
    pub config: MemoryConfig,
    /// The metrics of the *final* attempt.
    pub result: RunResult,
    /// Objective value in minutes. Aborted runs are penalized at twice the
    /// worst runtime observed so far (§6.1), which keeps the failing region
    /// ranked low during exploration. When the final attempt aborted or
    /// timed out this is a *censored* score: the surrogate sees the
    /// penalty, not the (unknown) true runtime.
    pub score_mins: f64,
    /// How many extra attempts the retry policy spent before this
    /// observation settled (0 = first attempt stood).
    pub retries: u32,
}

impl Observation {
    /// True when the score is censored — the run never finished cleanly,
    /// so `score_mins` is a penalty bound rather than a measurement.
    pub fn is_censored(&self) -> bool {
        self.result.aborted
    }
}

/// Bounded retry/recovery for stress tests on a faulty substrate.
///
/// A real tuning session does not give up on a configuration because a
/// spot instance was preempted mid-run; it re-submits, with backoff, a
/// bounded number of times — and only for abort causes where retrying can
/// help. [`AbortClass::Persistent`] failures (the configuration's own
/// OOMs) are never retried: the rerun would fail the same way and the
/// stress-time budget is better spent elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum re-executions after a retryable abort (mirrors Spark's
    /// `spark.task.maxFailures = 4`).
    pub max_retries: u32,
    /// Backoff before the first retry, charged to stress time.
    pub backoff: Millis,
    /// Backoff growth per retry (exponential).
    pub backoff_factor: f64,
    /// Per-evaluation budget: a run that would exceed this is cut off and
    /// censored as a [`AbortCause::Timeout`] abort at the budget.
    pub timeout: Option<Millis>,
}

impl RetryPolicy {
    /// The default policy: up to 4 retries, 10 s doubling backoff, no
    /// timeout.
    pub fn standard() -> Self {
        RetryPolicy {
            max_retries: 4,
            backoff: Millis::secs(10.0),
            backoff_factor: 2.0,
            timeout: None,
        }
    }

    /// Never retry, never time out — every abort is recorded as-is.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff: Millis::ZERO,
            backoff_factor: 1.0,
            timeout: None,
        }
    }

    /// The backoff charged before retry number `retry` (1-based).
    pub fn backoff_for(&self, retry: u32) -> Millis {
        let exp = self
            .backoff_factor
            .max(1.0)
            .powi(retry.saturating_sub(1) as i32);
        Millis::ms(self.backoff.as_ms() * exp)
    }

    /// Whether a run aborted with `cause` should be retried after `retries`
    /// re-executions already spent.
    pub fn should_retry(&self, cause: AbortCause, retries: u32) -> bool {
        retries < self.max_retries && cause.class() != AbortClass::Persistent
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::standard()
    }
}

/// Wraps an engine + application + space, executing stress tests and keeping
/// the evaluation history a tuning policy accumulates.
pub struct TuningEnv {
    engine: Engine,
    app: AppSpec,
    space: ConfigSpace,
    history: Vec<Observation>,
    next_seed: u64,
    worst_mins: f64,
    retry: RetryPolicy,
    /// Simulated time burned on failed attempts and backoff — part of the
    /// session's stress time even though no observation records it.
    retry_time: Millis,
    /// Optional shared evaluation cache. `None` (the default) runs every
    /// stress test live.
    cache: Option<EvalStore>,
    /// Lazily computed fingerprint of the cache key's per-session
    /// constants (app, cluster, cost model, fault plan, retry policy), so
    /// per-evaluation keys only re-encode what actually varies.
    cache_static_fp: Option<EvalKey>,
    /// Evaluations answered from the cache instead of run live — cost
    /// attribution for the serving layer's per-session status.
    cache_hits: u64,
    /// Running aggregate of each clean evaluation's Table-6 statistics:
    /// the compact remainder `relm-memory` fingerprints a session from.
    /// Fed identically by the live and cache-replay paths.
    stats_acc: StatsAccumulator,
}

impl TuningEnv {
    /// Creates an environment. `base_seed` makes the whole tuning session
    /// reproducible; policies repeated with different base seeds produce the
    /// run-to-run variability of Figures 18–20.
    ///
    /// The environment counts through the engine's observability handle,
    /// so a single `Engine::with_obs` call instruments the whole stack.
    pub fn new(engine: Engine, app: AppSpec, base_seed: u64) -> Self {
        let space = ConfigSpace::for_app(engine.cluster(), &app);
        TuningEnv {
            engine,
            app,
            space,
            history: Vec::new(),
            next_seed: base_seed,
            worst_mins: 0.0,
            retry: RetryPolicy::standard(),
            retry_time: Millis::ZERO,
            cache: None,
            cache_static_fp: None,
            cache_hits: 0,
            stats_acc: StatsAccumulator::new(),
        }
    }

    /// Rebuilds on `engine` the environment a [`SessionCheckpoint`]
    /// captured: the same seed chain, penalty baseline, retry time,
    /// history, Table-6 aggregate and cache-hit count. The retry policy
    /// and the cache start as in [`TuningEnv::new`]: they belong to the
    /// caller, not to the session.
    pub(crate) fn from_checkpoint(engine: Engine, ckpt: SessionCheckpoint) -> Self {
        TuningEnv {
            history: ckpt.history,
            worst_mins: ckpt.worst_mins,
            retry_time: Millis::ms(ckpt.retry_time_ms),
            cache_hits: ckpt.cache_hits,
            stats_acc: ckpt.stats,
            ..TuningEnv::new(engine, ckpt.app, ckpt.next_seed)
        }
    }

    /// The seed the next evaluation will run under (checkpoint state).
    pub fn next_seed(&self) -> u64 {
        self.next_seed
    }

    /// The worst observed runtime in minutes — the abort-penalty baseline
    /// (checkpoint state).
    pub fn worst_mins(&self) -> f64 {
        self.worst_mins
    }

    /// Replaces the retry policy (the default is [`RetryPolicy::standard`]).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        // The retry policy is part of the cache key's static fingerprint.
        self.cache_static_fp = None;
        self
    }

    /// The retry policy in effect.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Attaches a shared evaluation cache. Evaluations whose full input —
    /// application, cluster, cost model, configuration, seed-chain
    /// position, fault plan, retry policy — was already simulated (by this
    /// environment, a sibling worker, or a previous process via the
    /// persistent store) are replayed from the cached outcome instead of
    /// re-simulated: same history bytes, same counter totals, no engine
    /// time.
    pub fn with_cache(mut self, cache: EvalStore) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached evaluation cache, if any.
    pub fn cache(&self) -> Option<&EvalStore> {
        self.cache.as_ref()
    }

    /// The observability handle shared by the engine, this environment
    /// and the tuners driving it: the engine's.
    pub fn obs(&self) -> &Obs {
        self.engine.obs()
    }

    /// The configuration space.
    pub fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// The application under tuning.
    pub fn app(&self) -> &AppSpec {
        &self.app
    }

    /// The engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Scores a settled result against the current penalty baseline
    /// without touching observability. Shared by the live path (which adds
    /// the `env.abort_penalties` counter on top) and the cache-replay path
    /// (where that counter arrives with the live run's booked totals).
    fn score_value(&mut self, result: &RunResult) -> f64 {
        let mins = result.runtime_mins();
        // `worst_mins` tracks the worst *observed* runtime, never a
        // penalized score — otherwise consecutive aborts would compound the
        // ×2 penalty and blow up the objective scale.
        self.worst_mins = self.worst_mins.max(mins);
        if result.aborted {
            ABORT_PENALTY_FACTOR * self.worst_mins
        } else {
            mins
        }
    }

    fn score(&mut self, result: &RunResult) -> f64 {
        if result.aborted {
            self.obs().inc("env.abort_penalties");
        }
        self.score_value(result)
    }

    /// Runs a stress test: executes the application under `config`, scores
    /// it, and appends to the history. Returns the observation.
    pub fn evaluate(&mut self, config: &MemoryConfig) -> Observation {
        let (obs, _) = self.evaluate_with_stats(config);
        obs
    }

    /// Applies the per-evaluation timeout: a run that would exceed the
    /// budget is cut off there and censored as a `Timeout` abort.
    fn apply_timeout(&self, result: &mut RunResult) {
        if let Some(budget) = self.retry.timeout {
            if result.runtime > budget {
                result.runtime = budget;
                result.aborted = true;
                result.abort_cause = Some(AbortCause::Timeout);
                self.obs().inc("env.timeouts");
            }
        }
    }

    /// Runs one attempt and classifies the outcome.
    fn run_attempt(&mut self, config: &MemoryConfig) -> (RunResult, DerivedStats) {
        let seed = self.next_seed;
        self.next_seed = self.next_seed.wrapping_add(0x9E37).wrapping_mul(3) | 1;
        let mut span = self.obs().span("env.evaluate");
        let (mut result, stats) = self.engine.run_stats(&self.app, config, seed);
        self.apply_timeout(&mut result);
        if let Some(cause) = result.abort_cause.filter(|_| result.aborted) {
            // Per-cause abort histogram; summed over causes this equals
            // env.retries + the number of censored observations.
            self.obs().inc(cause.aborts_counter());
        }
        if span.is_recording() {
            span.set("seed", seed);
            span.set("aborted", result.aborted);
            if let Some(cause) = result.abort_cause {
                span.set("abort_cause", cause.as_str());
            }
            self.obs().inc("env.stress_tests");
            self.obs().add("env.stress_time_ms", result.runtime.as_ms());
        }
        (result, stats)
    }

    /// Like [`TuningEnv::evaluate`] but also returns the Table-6
    /// statistics of the settled run's profile (used by RelM, GBO and
    /// DDPG). They come with every settled evaluation, censored ones
    /// included.
    ///
    /// Failed attempts whose abort cause is transient or infrastructural
    /// are retried (with backoff) up to the policy's bound; each retry runs
    /// under a fresh seed so an injected fault does not recur identically.
    /// Only the attempt that settles is recorded in the history — but every
    /// attempt's runtime, plus backoff, is charged to
    /// [`TuningEnv::stress_time`].
    ///
    /// A live evaluation runs inside an [`Obs::tally`] scope, cached or
    /// not, so its counters are booked once, as one total per name.
    /// With a cache attached (see [`TuningEnv::with_cache`]) the
    /// evaluation is first looked up under its content-addressed key; a
    /// hit replays the memoized outcome — advancing the seed chain,
    /// charging retry time, booking the live run's counter totals, and
    /// re-scoring against the current penalty baseline — producing the
    /// exact history and counters a live run would have.
    pub fn evaluate_with_stats(&mut self, config: &MemoryConfig) -> (Observation, DerivedStats) {
        let Some(cache) = self.cache.clone() else {
            return self.obs().clone().tally(|| self.evaluate_live(config)).0;
        };
        let key = self.eval_key(config);
        if let Some(cached) = cache.get(&key) {
            return self.replay_cached(config, &cached);
        }
        let retry_time_before = self.retry_time;
        let ((obs, stats), counters) = self.obs().clone().tally(|| self.evaluate_live(config));
        cache.insert(
            key,
            CachedEval {
                result: obs.result.clone(),
                stats,
                retries: obs.retries,
                retry_time: Millis::ms(self.retry_time.as_ms() - retry_time_before.as_ms()),
                counters,
            },
        );
        (obs, stats)
    }

    /// The content-addressed identity of the *next* evaluation of
    /// `config`: everything the engine's outcome is a pure function of.
    /// The seed-chain position is part of the key, so repeated evaluations
    /// of the same configuration within a session stay distinct — exactly
    /// as they are live.
    ///
    /// The session constants (application, cluster, cost model, fault
    /// plan, retry policy) are folded into one fingerprint on first use;
    /// per-evaluation keys then only encode the configuration and the seed
    /// position, keeping key construction off the replay hot path's
    /// critical cost.
    ///
    /// Public because the serving fleet uses the same key as its
    /// cross-worker deduplication identity: the center computes it when
    /// leasing an evaluation to a remote worker, and any worker's result
    /// landed under it commits at most once.
    pub fn eval_key(&mut self, config: &MemoryConfig) -> EvalKey {
        let fp = *self.cache_static_fp.get_or_insert_with(|| {
            let mut key = KeyBuilder::new("tuning-env-static/v1")
                .field("app", &self.app)
                .field("cluster", self.engine.cluster())
                .field("cost", self.engine.cost_model())
                .field("retry", &self.retry);
            if let Some(plan) = self.engine.faults() {
                key = key.field("faults", plan);
            }
            key.finish()
        });
        KeyBuilder::new("tuning-env/v1")
            .field("env", &fp.hex())
            .field("config", config)
            .field("seed", &self.next_seed)
            .finish()
    }

    /// Runs the retry loop live against the engine.
    fn evaluate_live(&mut self, config: &MemoryConfig) -> (Observation, DerivedStats) {
        let mut retries = 0u32;
        let (result, stats) = loop {
            let (result, stats) = self.run_attempt(config);
            let retryable = result
                .abort_cause
                .filter(|_| result.aborted)
                .is_some_and(|cause| self.retry.should_retry(cause, retries));
            if !retryable {
                break (result, stats);
            }
            retries += 1;
            let backoff = self.retry.backoff_for(retries);
            self.retry_time += result.runtime + backoff;
            self.obs().inc("env.retries");
            self.obs().add("env.backoff_ms", backoff.as_ms());
        };
        let score = self.score(&result);
        self.obs().record("env.score_mins", score);
        if !result.aborted {
            self.stats_acc.add(&stats);
        }
        let obs = Observation {
            config: *config,
            result,
            score_mins: score,
            retries,
        };
        self.history.push(obs.clone());
        (obs, stats)
    }

    /// Replays a memoized evaluation: identical session state transitions
    /// (seed chain, retry time, penalty baseline, history) and identical
    /// counters (the live run's stored totals) — without touching the
    /// engine.
    fn replay_cached(
        &mut self,
        config: &MemoryConfig,
        cached: &CachedEval,
    ) -> (Observation, DerivedStats) {
        self.cache_hits += 1;
        // One seed-chain step per attempt, exactly as `run_attempt` would
        // have advanced it.
        for _ in 0..=cached.retries {
            self.next_seed = self.next_seed.wrapping_add(0x9E37).wrapping_mul(3) | 1;
        }
        self.retry_time += cached.retry_time;
        for (name, total) in &cached.counters {
            self.obs().add(name, *total);
        }
        // Scores are session state, not evaluation state: re-derive against
        // the *current* worst-runtime baseline. `env.abort_penalties` was
        // already booked with the totals, so the silent scorer is the
        // right one here.
        let score = self.score_value(&cached.result);
        self.obs().record("env.score_mins", score);
        // The replayed statistics feed the aggregate exactly as the live
        // run would have — a warm session fingerprints identically.
        if !cached.result.aborted {
            self.stats_acc.add(&cached.stats);
        }
        let obs = Observation {
            config: *config,
            result: cached.result.clone(),
            score_mins: score,
            retries: cached.retries,
        };
        self.history.push(obs.clone());
        (obs, cached.stats)
    }

    /// All evaluations so far, in order.
    pub fn history(&self) -> &[Observation] {
        &self.history
    }

    /// Number of stress tests run.
    pub fn evaluations(&self) -> usize {
        self.history.len()
    }

    /// The best (lowest-score) observation so far. NaN scores (which a
    /// degenerate surrogate or corrupted profile can produce) sort last
    /// instead of panicking.
    pub fn best(&self) -> Option<&Observation> {
        self.history
            .iter()
            .min_by(|a, b| a.score_mins.total_cmp(&b.score_mins))
    }

    /// Total simulated wall-clock time spent in stress tests, including
    /// failed attempts and retry backoff — the dominant training overhead
    /// of Figure 16.
    pub fn stress_time(&self) -> Millis {
        self.history
            .iter()
            .map(|o| o.result.runtime)
            .sum::<Millis>()
            + self.retry_time
    }

    /// Simulated time burned on failed attempts and backoff alone.
    pub fn retry_time(&self) -> Millis {
        self.retry_time
    }

    /// Total retries across all evaluations.
    pub fn total_retries(&self) -> u32 {
        self.history.iter().map(|o| o.retries).sum()
    }

    /// Evaluations answered from the shared cache instead of run live
    /// (checkpoint state).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// The running aggregate of clean evaluations' Table-6 statistics —
    /// the compact per-session remainder `relm-memory` fingerprints a
    /// workload from (checkpoint state).
    pub fn stats_accumulator(&self) -> &StatsAccumulator {
        &self.stats_acc
    }

    /// Mean Table-6 statistics over the session's clean evaluations, or
    /// `None` while every run aborted (or none ran).
    pub fn mean_stats(&self) -> Option<DerivedStats> {
        self.stats_acc.mean()
    }

    /// Convenience: the per-container heap for `n` containers per node.
    pub fn heap_for(&self, containers_per_node: u32) -> Mem {
        self.engine.cluster().heap_for(containers_per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relm_cluster::ClusterSpec;
    use relm_workloads::{max_resource_allocation, wordcount};

    fn env() -> TuningEnv {
        TuningEnv::new(Engine::new(ClusterSpec::cluster_a()), wordcount(), 11)
    }

    #[test]
    fn evaluate_records_history_and_best() {
        let mut env = env();
        let cfg = max_resource_allocation(&ClusterSpec::cluster_a(), env.app());
        let o1 = env.evaluate(&cfg);
        let mut thin = cfg;
        thin.containers_per_node = 4;
        thin.heap = env.heap_for(4);
        let o2 = env.evaluate(&thin);
        assert_eq!(env.evaluations(), 2);
        assert!(env.stress_time() > Millis::ZERO);
        let best = env.best().unwrap();
        assert_eq!(best.score_mins, o1.score_mins.min(o2.score_mins));
    }

    #[test]
    fn aborted_runs_are_penalized() {
        let mut env = TuningEnv::new(
            Engine::new(ClusterSpec::cluster_a()),
            relm_workloads::pagerank(),
            3,
        );
        // A config that is safe first, then one that aborts.
        let safe = MemoryConfig {
            containers_per_node: 2,
            heap: ClusterSpec::cluster_a().heap_for(2),
            task_concurrency: 1,
            cache_fraction: 0.2,
            shuffle_fraction: 0.0,
            new_ratio: 3,
            survivor_ratio: 8,
        };
        let safe_obs = env.evaluate(&safe);
        assert!(!safe_obs.result.aborted);
        assert_eq!(safe_obs.score_mins, safe_obs.result.runtime_mins());

        let oomy = MemoryConfig {
            task_concurrency: 8,
            cache_fraction: 0.8,
            ..safe
        };
        let mut saw_abort = false;
        for _ in 0..6 {
            let obs = env.evaluate(&oomy);
            if obs.result.aborted {
                saw_abort = true;
                assert!(
                    obs.score_mins >= obs.result.runtime_mins() * 2.0
                        || obs.score_mins >= 2.0 * safe_obs.score_mins,
                    "aborted run must be penalized"
                );
            }
        }
        assert!(
            saw_abort,
            "expected the hostile config to abort at least once"
        );
    }

    #[test]
    fn abort_penalty_does_not_compound_across_consecutive_aborts() {
        let mut env = TuningEnv::new(
            Engine::new(ClusterSpec::cluster_a()),
            relm_workloads::pagerank(),
            3,
        );
        let hostile = MemoryConfig {
            containers_per_node: 2,
            heap: ClusterSpec::cluster_a().heap_for(2),
            task_concurrency: 8,
            cache_fraction: 0.8,
            shuffle_fraction: 0.0,
            new_ratio: 3,
            survivor_ratio: 8,
        };
        for _ in 0..8 {
            env.evaluate(&hostile);
        }
        // Every penalized score must be exactly 2× the worst runtime seen
        // up to that point; feeding penalized scores back into the
        // baseline would instead double it on every consecutive abort.
        let mut worst = 0.0f64;
        let mut aborts = 0;
        for o in env.history() {
            worst = worst.max(o.result.runtime_mins());
            if o.result.aborted {
                aborts += 1;
                assert_eq!(o.score_mins, ABORT_PENALTY_FACTOR * worst);
            }
        }
        assert!(aborts >= 2, "hostile config should abort repeatedly");
    }

    #[test]
    fn seeds_differ_across_evaluations() {
        let mut env = env();
        let cfg = max_resource_allocation(&ClusterSpec::cluster_a(), env.app());
        let a = env.evaluate(&cfg);
        let b = env.evaluate(&cfg);
        assert_ne!(a.result.runtime, b.result.runtime);
    }

    fn nan_observation(cfg: MemoryConfig, score: f64) -> Observation {
        Observation {
            config: cfg,
            result: RunResult {
                runtime: Millis::secs(60.0),
                aborted: false,
                abort_cause: None,
                container_failures: 0,
                injected_faults: 0,
                oom_failures: 0,
                rss_kills: 0,
                max_heap_util: 0.5,
                avg_cpu_util: 0.5,
                avg_disk_util: 0.1,
                gc_overhead: 0.05,
                cache_hit_ratio: 1.0,
                spill_fraction: 0.0,
                young_gcs: 10,
                full_gcs: 1,
            },
            score_mins: score,
            retries: 0,
        }
    }

    #[test]
    fn best_survives_nan_scores() {
        // Regression: `best()` used to panic on NaN via
        // `partial_cmp().expect()`. NaN must sort last, not crash the
        // session.
        let mut env = env();
        let cfg = max_resource_allocation(&ClusterSpec::cluster_a(), env.app());
        let good = env.evaluate(&cfg);
        env.history.push(nan_observation(cfg, f64::NAN));
        let best = env.best().expect("history is non-empty");
        assert_eq!(best.score_mins, good.score_mins);
        assert!(!best.score_mins.is_nan());
    }

    #[test]
    fn transient_aborts_are_retried_within_the_bound() {
        use relm_faults::{FaultConfig, FaultPlan};
        // A kill rate this high fails every wave attempt somewhere, so the
        // engine aborts and the env retries until the bound.
        let mut config = FaultConfig::off();
        config.container_kill_rate = 0.5;
        let engine = Engine::new(ClusterSpec::cluster_a()).with_faults(FaultPlan::new(7, config));
        let mut env = TuningEnv::new(engine, wordcount(), 11);
        let cfg = max_resource_allocation(&ClusterSpec::cluster_a(), env.app());
        let obs = env.evaluate(&cfg);
        assert!(obs.retries <= env.retry_policy().max_retries);
        if obs.is_censored() {
            assert_eq!(
                obs.result.abort_cause.unwrap().class(),
                AbortClass::Transient
            );
            assert_eq!(
                obs.retries,
                env.retry_policy().max_retries,
                "a censored transient abort means the whole retry budget was spent"
            );
        }
        assert!(env.retry_time() > Millis::ZERO);
        assert!(env.stress_time() > obs.result.runtime);
    }

    #[test]
    fn persistent_aborts_are_never_retried() {
        let mut env = TuningEnv::new(
            Engine::new(ClusterSpec::cluster_a()),
            relm_workloads::pagerank(),
            3,
        );
        let hostile = MemoryConfig {
            containers_per_node: 2,
            heap: ClusterSpec::cluster_a().heap_for(2),
            task_concurrency: 8,
            cache_fraction: 0.8,
            shuffle_fraction: 0.0,
            new_ratio: 3,
            survivor_ratio: 8,
        };
        let mut saw_abort = false;
        for _ in 0..6 {
            let obs = env.evaluate(&hostile);
            assert_eq!(obs.retries, 0, "config's own OOMs must not be retried");
            saw_abort |= obs.result.aborted;
        }
        assert!(saw_abort);
        assert_eq!(env.total_retries(), 0);
        assert_eq!(env.retry_time(), Millis::ZERO);
    }

    #[test]
    fn timeout_censors_and_caps_the_charged_runtime() {
        let budget = Millis::secs(5.0);
        let mut env = env().with_retry_policy(RetryPolicy {
            max_retries: 0,
            backoff: Millis::ZERO,
            backoff_factor: 1.0,
            timeout: Some(budget),
        });
        let cfg = max_resource_allocation(&ClusterSpec::cluster_a(), env.app());
        let obs = env.evaluate(&cfg);
        assert!(obs.is_censored());
        assert_eq!(obs.result.abort_cause, Some(AbortCause::Timeout));
        assert_eq!(obs.result.runtime, budget);
        assert!(obs.score_mins >= obs.result.runtime_mins());
    }
}
