//! The RelM tuner: Enumerator + Selector (Figure 12) wired into the common
//! [`Tuner`] interface.

use crate::arbitrator::{Arbitrator, ArbitratorOutcome};
use crate::initializer::Initializer;
use crate::DEFAULT_SAFETY;
use relm_common::{MemoryConfig, Result};
use relm_profile::DerivedStats;
use relm_tune::{recommendation, Recommendation, Tuner, TuningEnv};
use relm_workloads::max_resource_allocation;
use serde::{Deserialize, Serialize};

/// Utility ordering key: NaN (possible when the model runs on a corrupted
/// profile) ranks below every real utility instead of panicking.
fn utility_key(u: f64) -> f64 {
    if u.is_nan() {
        f64::NEG_INFINITY
    } else {
        u
    }
}

/// One enumerated candidate: the best arbitrated configuration for a
/// container size, with its utility score.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RelmCandidate {
    /// Containers per node of the candidate.
    pub containers_per_node: u32,
    /// The arbitrated configuration.
    pub config: MemoryConfig,
    /// Utility score `U`.
    pub utility: f64,
}

/// The RelM tuner.
#[derive(Debug, Clone)]
pub struct RelmTuner {
    delta: f64,
    /// The last statistics used (exposed for analysis binaries).
    last_stats: Option<DerivedStats>,
    /// Arbitration traces per candidate (Figure 13).
    last_outcomes: Vec<(u32, ArbitratorOutcome)>,
}

impl Default for RelmTuner {
    fn default() -> Self {
        RelmTuner::new(DEFAULT_SAFETY)
    }
}

impl RelmTuner {
    /// Creates a tuner with safety fraction δ.
    pub fn new(delta: f64) -> Self {
        RelmTuner {
            delta,
            last_stats: None,
            last_outcomes: Vec::new(),
        }
    }

    /// The statistics derived during the last [`Tuner::tune`] call.
    pub fn last_stats(&self) -> Option<&DerivedStats> {
        self.last_stats.as_ref()
    }

    /// The per-container-size arbitration outcomes of the last run.
    pub fn last_outcomes(&self) -> &[(u32, ArbitratorOutcome)] {
        &self.last_outcomes
    }

    /// Pure model evaluation: enumerate container sizes, run
    /// Initializer + Arbitrator on each, and rank by utility. This is the
    /// whole analytical pipeline given already-derived statistics — no
    /// stress tests involved.
    pub fn candidates_from_stats(
        &self,
        cluster: &relm_cluster::ClusterSpec,
        stats: DerivedStats,
    ) -> Vec<RelmCandidate> {
        let init = Initializer::new(stats, self.delta);
        let arb = Arbitrator::new(self.delta);
        let mut out = Vec::new();
        for (n, heap) in cluster.container_options() {
            let max_p = cluster.max_task_concurrency(n);
            let initial = init.initialize(n, heap, max_p);
            if let Ok(outcome) = arb.arbitrate(&init, &initial) {
                out.push(RelmCandidate {
                    containers_per_node: n,
                    config: outcome.config,
                    utility: outcome.utility,
                });
            }
        }
        // Selector: rank by utility, best first. A corrupted profile can
        // drive the model to a NaN utility; those candidates sort last
        // instead of panicking the session.
        out.sort_by(|a, b| utility_key(b.utility).total_cmp(&utility_key(a.utility)));
        out
    }

    /// Recommends a configuration from derived statistics.
    pub fn recommend_from_stats(
        &mut self,
        cluster: &relm_cluster::ClusterSpec,
        stats: DerivedStats,
    ) -> Result<MemoryConfig> {
        self.last_stats = Some(stats);
        let init = Initializer::new(stats, self.delta);
        let arb = Arbitrator::new(self.delta);
        self.last_outcomes.clear();
        for (n, heap) in cluster.container_options() {
            let max_p = cluster.max_task_concurrency(n);
            let initial = init.initialize(n, heap, max_p);
            if let Ok(outcome) = arb.arbitrate(&init, &initial) {
                self.last_outcomes.push((n, outcome));
            }
        }
        self.last_outcomes
            .iter()
            .max_by(|a, b| utility_key(a.1.utility).total_cmp(&utility_key(b.1.utility)))
            .map(|(_, o)| o.config)
            .ok_or_else(|| {
                relm_common::Error::Tuning(
                    "no container size can safely run the application".into(),
                )
            })
    }

    /// The §4.1 re-profiling heuristic for profiles without full-GC events:
    /// decrease heap (more containers), increase task concurrency, and
    /// increase `NewRatio` — all raising GC pressure.
    pub fn reprofile_config(env: &TuningEnv, base: &MemoryConfig) -> MemoryConfig {
        let cluster = env.engine().cluster();
        let n = (base.containers_per_node * 2).min(4);
        let max_p = cluster.max_task_concurrency(n);
        MemoryConfig {
            containers_per_node: n,
            heap: cluster.heap_for(n),
            task_concurrency: (base.task_concurrency + 1).min(max_p),
            new_ratio: 8,
            ..*base
        }
    }
}

impl Tuner for RelmTuner {
    fn name(&self) -> &'static str {
        "RelM"
    }

    fn tune(&mut self, env: &mut TuningEnv) -> Result<Recommendation> {
        let telemetry = env.obs().clone();
        let _session = telemetry.span("tuner.tune").with("policy", self.name());
        // Profile once under the vendor defaults (Thoth collects the profile
        // with minimal overhead, §6.1).
        let default = max_resource_allocation(env.engine().cluster(), env.app());
        let (obs0, mut stats) = env.evaluate_with_stats(&default);
        let censored0 = obs0.result.aborted;

        // §4.1: a profile without full-GC events cannot yield an accurate
        // M_u; make one additional profiling run with GC pressure raised.
        // A censored first run (aborted or timed out on a faulty substrate)
        // also warrants re-profiling: its truncated profile may mislead the
        // model.
        if !stats.m_u_from_full_gc || censored0 {
            let pressure_cfg = Self::reprofile_config(env, &default);
            let (obs2, stats2) = env.evaluate_with_stats(&pressure_cfg);
            if stats2.m_u_from_full_gc || (censored0 && !obs2.result.aborted) {
                stats = stats2;
            }
        }

        let cluster = env.engine().cluster().clone();
        let decide_started = std::time::Instant::now();
        let config = {
            let _decide = telemetry.span("relm.decide").with("delta", self.delta);
            self.recommend_from_stats(&cluster, stats)?
        };
        telemetry.record(
            "relm.decide_ms",
            decide_started.elapsed().as_secs_f64() * 1e3,
        );
        Ok(recommendation(self.name(), env, config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relm_app::Engine;
    use relm_cluster::ClusterSpec;
    use relm_tune::TuningEnv;
    use relm_workloads::{kmeans, pagerank, sortbykey, wordcount};

    fn tune_app(app: relm_app::AppSpec, seed: u64) -> (Recommendation, RelmTuner, TuningEnv) {
        let mut env = TuningEnv::new(Engine::new(ClusterSpec::cluster_a()), app, seed);
        let mut tuner = RelmTuner::default();
        let rec = tuner
            .tune(&mut env)
            .expect("RelM should find a configuration");
        (rec, tuner, env)
    }

    #[test]
    fn relm_needs_at_most_two_profiling_runs() {
        for app in [wordcount(), sortbykey(), kmeans(), pagerank()] {
            let name = app.name.clone();
            let (rec, _, _) = tune_app(app, 17);
            assert!(
                rec.evaluations <= 2,
                "{name}: RelM used {} profiled runs",
                rec.evaluations
            );
            assert!(rec.config.validate().is_ok());
        }
    }

    #[test]
    fn relm_recommendation_is_safe_to_run() {
        for app in [wordcount(), sortbykey(), kmeans(), pagerank()] {
            let name = app.name.clone();
            let (rec, _, env) = tune_app(app.clone(), 23);
            // Execute the recommendation 3 times; no aborts allowed.
            let engine = env.engine().clone();
            for seed in 100..103 {
                let (result, _) = engine.run(&app, &rec.config, seed);
                assert!(
                    !result.aborted,
                    "{name}: RelM config aborted under seed {seed}: {}",
                    rec.config
                );
            }
        }
    }

    #[test]
    fn relm_beats_the_default_on_pagerank() {
        let app = pagerank();
        let (rec, _, env) = tune_app(app.clone(), 31);
        let engine = env.engine().clone();
        let default = max_resource_allocation(engine.cluster(), &app);
        let (def_run, _) = engine.run(&app, &default, 500);
        let (relm_run, _) = engine.run(&app, &rec.config, 500);
        let def_score = if def_run.aborted {
            f64::INFINITY
        } else {
            def_run.runtime_mins()
        };
        assert!(
            relm_run.runtime_mins() < def_score,
            "RelM ({}) should beat default ({:?})",
            relm_run.runtime_mins(),
            def_run
        );
        assert!(!relm_run.aborted);
    }

    #[test]
    fn selector_ranks_by_utility() {
        let (_, tuner, _) = tune_app(kmeans(), 41);
        let stats = *tuner.last_stats().unwrap();
        let candidates = tuner.candidates_from_stats(&ClusterSpec::cluster_a(), stats);
        assert!(!candidates.is_empty());
        for pair in candidates.windows(2) {
            assert!(pair[0].utility >= pair[1].utility);
        }
    }
}
