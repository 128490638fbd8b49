//! The BO/GBO tuning loop.

use relm_common::{MemoryConfig, Result, Rng};
use relm_core::QModel;
use relm_surrogate::{
    maximize_ei, Forest, ForestParams, GpFitStats, GpFitter, SparsePolicy, Surrogate,
};
use relm_tune::{recommendation, ConfigSpace, Recommendation, Tuner, TuningEnv};
use serde::{Deserialize, Serialize};

/// Which surrogate model the optimizer fits (§6.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SurrogateKind {
    /// Gaussian process (the default, with confidence-bound guarantees).
    GaussianProcess,
    /// Random forest (better at non-linear interactions, heuristic
    /// uncertainty).
    RandomForest,
}

/// Optimizer settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoConfig {
    /// Bootstrap samples drawn by Latin Hypercube Sampling — the paper uses
    /// 4, matching the dimensionality of the space.
    pub bootstrap_samples: usize,
    /// Minimum adaptive samples before the stopping rule can fire
    /// (CherryPick's 6).
    pub min_adaptive_samples: usize,
    /// Stop when the maximum expected improvement falls below this fraction
    /// of the incumbent's objective (10%).
    pub ei_threshold: f64,
    /// Hard cap on adaptive iterations.
    pub max_iterations: usize,
    /// Surrogate model.
    pub surrogate: SurrogateKind,
    /// Sparse large-n surrogate policy. The default
    /// ([`SparsePolicy::exact`]) never approximates, so historical traces
    /// replay byte-identically; [`SparsePolicy::large_n`] caps GP fits at a
    /// deterministic inducing subset once the history (including any warm
    /// start) outgrows the threshold.
    pub sparse: SparsePolicy,
}

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            bootstrap_samples: 4,
            min_adaptive_samples: 6,
            ei_threshold: 0.1,
            max_iterations: 24,
            surrogate: SurrogateKind::GaussianProcess,
            sparse: SparsePolicy::exact(),
        }
    }
}

/// One optimizer step, for the convergence plots (Figure 20, Table 9).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoStep {
    /// The point in the unit hypercube.
    pub x: Vec<f64>,
    /// The decoded configuration.
    pub config: MemoryConfig,
    /// The objective value observed.
    pub score_mins: f64,
    /// Whether this was a bootstrap (LHS) sample.
    pub bootstrap: bool,
    /// The EI the acquisition assigned (bootstrap samples have none).
    pub ei: Option<f64>,
}

/// The Bayesian optimizer. `guided = true` turns it into GBO.
#[derive(Debug, Clone)]
pub struct BayesOpt {
    cfg: BoConfig,
    guided: bool,
    seed: u64,
    trace: Vec<BoStep>,
    q_locked: bool,
    warm_start: Vec<(Vec<f64>, f64)>,
}

impl BayesOpt {
    /// Vanilla BO.
    pub fn new(seed: u64) -> Self {
        BayesOpt {
            cfg: BoConfig::default(),
            guided: false,
            seed,
            trace: Vec::new(),
            q_locked: false,
            warm_start: Vec::new(),
        }
    }

    /// Guided BO (§5.2).
    pub fn guided(seed: u64) -> Self {
        BayesOpt {
            cfg: BoConfig::default(),
            guided: true,
            seed,
            trace: Vec::new(),
            q_locked: false,
            warm_start: Vec::new(),
        }
    }

    /// Overrides the optimizer settings.
    pub fn with_config(mut self, cfg: BoConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Warm-starts the surrogate with observations from a previously tuned,
    /// similar workload (OtterTune-style model reuse, §6.6). The seeded
    /// observations inform the model but cost no stress tests; they replace
    /// the LHS bootstrap.
    pub fn with_warm_start(mut self, observations: Vec<(Vec<f64>, f64)>) -> Self {
        self.warm_start = observations;
        self
    }

    /// Warm-starts from a cross-session memory prior
    /// ([`relm_memory::PriorBundle`]): the similarity-allocated GP
    /// observations seed the surrogate in place of the LHS bootstrap. An
    /// empty prior (a retrieval miss) leaves the tuner cold.
    pub fn with_memory_prior(self, prior: &relm_memory::PriorBundle) -> Self {
        if prior.gp_obs.is_empty() {
            return self;
        }
        self.with_warm_start(prior.gp_obs.clone())
    }

    /// The step trace of the last tuning session.
    pub fn trace(&self) -> &[BoStep] {
        &self.trace
    }

    /// Whether this instance runs guided.
    pub fn is_guided(&self) -> bool {
        self.guided
    }

    /// Builds the surrogate's feature vector for a point: the raw
    /// coordinates, extended with model-Q metrics when guided.
    pub fn features(space: &ConfigSpace, q: Option<&QModel>, x: &[f64]) -> Vec<f64> {
        let mut f = Vec::with_capacity(x.len() + if q.is_some() { 3 } else { 0 });
        f.extend_from_slice(x);
        if let Some(q) = q {
            let config = space.decode(x);
            let mut qv = [0.0; 3];
            q.q_into(&config, &mut qv);
            f.extend(qv);
        }
        f
    }

    /// The tuner's surrogate-fit and acquisition histograms, named after
    /// the lower-cased [`Tuner::name`].
    fn metric_names(&self) -> (&'static str, &'static str) {
        if self.guided {
            ("gbo.fit_ms", "gbo.acq_ms")
        } else {
            match self.cfg.surrogate {
                SurrogateKind::GaussianProcess => ("bo.fit_ms", "bo.acq_ms"),
                SurrogateKind::RandomForest => ("bo-rf.fit_ms", "bo-rf.acq_ms"),
            }
        }
    }
}

/// The acquisition adapter BO and GBO maximize EI through: a surrogate over
/// the extended features of [`BayesOpt::features`], exposed as a surrogate
/// over the raw 4-dimensional space. Q metrics are deterministic functions
/// of the configuration, so they are appended on the fly during
/// acquisition; with `q: None` the features are the raw coordinates.
pub struct SpaceSurrogate<'a> {
    /// The surrogate fitted on feature vectors.
    pub inner: &'a dyn Surrogate,
    /// Decodes a point into the configuration the Q metrics read.
    pub space: &'a ConfigSpace,
    /// GBO's guiding model; `None` for vanilla BO.
    pub q: Option<&'a QModel>,
}

impl Surrogate for SpaceSurrogate<'_> {
    fn predict(&self, x: &[f64]) -> (f64, f64) {
        let f = BayesOpt::features(self.space, self.q, x);
        self.inner.predict(&f)
    }

    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
        // Map the whole batch to feature space once, then let the inner
        // surrogate amortize its solve buffers over the fused batch. The
        // inner contract (batch ≡ per-point, bitwise) carries through.
        let feats: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| BayesOpt::features(self.space, self.q, x))
            .collect();
        self.inner.predict_batch(&feats)
    }
}

impl Tuner for BayesOpt {
    fn name(&self) -> &'static str {
        if self.guided {
            "GBO"
        } else {
            match self.cfg.surrogate {
                SurrogateKind::GaussianProcess => "BO",
                SurrogateKind::RandomForest => "BO-RF",
            }
        }
    }

    fn tune(&mut self, env: &mut TuningEnv) -> Result<Recommendation> {
        self.trace.clear();
        self.q_locked = false;
        let telemetry = env.obs().clone();
        let _session = telemetry.span("tuner.tune").with("policy", self.name());
        let (fit_metric, acq_metric) = self.metric_names();
        let mut rng = Rng::new(self.seed);
        let space = env.space().clone();
        let dims = 4;

        // Bootstrap with LHS samples — unless a warm start from a mapped
        // prior workload replaces them; GBO derives the white-box model from
        // the first bootstrap run's profile.
        let lhs = if self.warm_start.is_empty() {
            relm_surrogate::latin_hypercube(self.cfg.bootstrap_samples, dims, &mut rng)
        } else {
            // Incumbent transfer: the single bootstrap evaluation goes to
            // the prior's best-known point, not a random LHS sample — the
            // mapped workload's incumbent is the highest-value probe, and
            // re-scoring it on *this* workload anchors the surrogate where
            // the prior claims the optimum lives.
            let best = self
                .warm_start
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(x, _)| x.clone())
                .expect("warm start is non-empty");
            vec![best]
        };
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut scores: Vec<f64> = Vec::new();
        let mut qmodel: Option<QModel> = None;
        for (x, y) in self.warm_start.clone() {
            xs.push(x);
            scores.push(y);
        }

        for x in lhs {
            let config = space.decode(&x);
            let (obs, stats) = env.evaluate_with_stats(&config);
            // GBO's guiding model comes from "a prior execution, not
            // necessarily using the same configuration" (§5.2). Prefer the
            // first *clean* bootstrap run — a censored run's truncated
            // profile, or one degraded by injected faults, would poison the
            // guidance — falling back to whatever profile exists if every
            // bootstrap run failed.
            if self.guided && !self.q_locked {
                qmodel = Some(QModel::new(stats, relm_core::DEFAULT_SAFETY));
                self.q_locked = !obs.result.aborted && obs.result.injected_faults == 0;
            }
            self.trace.push(BoStep {
                x: x.clone(),
                config,
                score_mins: obs.score_mins,
                bootstrap: true,
                ei: None,
            });
            xs.push(x);
            scores.push(obs.score_mins);
        }

        // Persistent GP fitter: the Gram cache of pairwise feature
        // differences survives across iterations (the q-model is locked
        // after bootstrap, so feature vectors are stable).
        let mut fitter = GpFitter::default().with_policy(self.cfg.sparse);
        for (x, y) in xs.iter().zip(&scores) {
            fitter.observe(Self::features(&space, qmodel.as_ref(), x), *y)?;
        }
        let mut last_stats = GpFitStats::default();

        // Adaptive sampling.
        let mut adaptive = 0usize;
        while adaptive < self.cfg.max_iterations {
            let fit_started = std::time::Instant::now();
            let surrogate: Box<dyn Surrogate> = {
                let _fit = telemetry
                    .span("bo.fit_surrogate")
                    .with("iter", adaptive)
                    .with("samples", xs.len())
                    .with("guided", self.guided);
                match self.cfg.surrogate {
                    SurrogateKind::GaussianProcess => {
                        Box::new(fitter.fit_full(self.seed ^ (adaptive as u64) << 8)?)
                    }
                    SurrogateKind::RandomForest => {
                        let features: Vec<Vec<f64>> = xs
                            .iter()
                            .map(|x| Self::features(&space, qmodel.as_ref(), x))
                            .collect();
                        Box::new(Forest::fit(
                            &features,
                            &scores,
                            ForestParams::default(),
                            self.seed ^ (adaptive as u64) << 8,
                        )?)
                    }
                }
            };
            let fit_ms = fit_started.elapsed().as_secs_f64() * 1e3;
            telemetry.record(fit_metric, fit_ms);
            telemetry.record("surrogate.fit_ms", fit_ms);
            let stats = fitter.stats();
            telemetry.add(
                "surrogate.gram_reuse",
                (stats.gram_reused_dims - last_stats.gram_reused_dims) as f64,
            );
            telemetry.add(
                "surrogate.chol_jitter_retries",
                (stats.chol_jitter_retries - last_stats.chol_jitter_retries) as f64,
            );
            telemetry.add(
                "surrogate.sparse_fits",
                (stats.sparse_fits - last_stats.sparse_fits) as f64,
            );
            last_stats = stats;
            let tau = scores.iter().cloned().fold(f64::INFINITY, f64::min);

            let acq_started = std::time::Instant::now();
            let (x_next, ei) = {
                let _acq = telemetry
                    .span("bo.maximize_ei")
                    .with("iter", adaptive)
                    .with("tau", tau);
                let wrapped = SpaceSurrogate {
                    inner: surrogate.as_ref(),
                    space: &space,
                    q: qmodel.as_ref(),
                };
                maximize_ei(&wrapped, dims, tau, &mut rng)
            };
            let acq_ms = acq_started.elapsed().as_secs_f64() * 1e3;
            telemetry.record(acq_metric, acq_ms);
            telemetry.record("surrogate.ei_ms", acq_ms);

            let config = space.decode(&x_next);
            let obs = env.evaluate(&config);
            self.trace.push(BoStep {
                x: x_next.clone(),
                config,
                score_mins: obs.score_mins,
                bootstrap: false,
                ei: Some(ei),
            });
            fitter.observe(
                Self::features(&space, qmodel.as_ref(), &x_next),
                obs.score_mins,
            )?;
            xs.push(x_next);
            scores.push(obs.score_mins);
            adaptive += 1;

            // CherryPick stopping rule: enough adaptive samples and the
            // expected improvement has fallen below 10% of the incumbent.
            if adaptive >= self.cfg.min_adaptive_samples && ei < self.cfg.ei_threshold * tau {
                break;
            }
        }

        let best = env
            .best()
            .ok_or_else(|| relm_common::Error::Tuning("no observations".into()))?
            .config;
        Ok(recommendation(self.name(), env, best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relm_app::Engine;
    use relm_cluster::ClusterSpec;
    use relm_workloads::{max_resource_allocation, sortbykey, svm};

    fn env(app: relm_app::AppSpec, seed: u64) -> TuningEnv {
        TuningEnv::new(Engine::new(ClusterSpec::cluster_a()), app, seed)
    }

    #[test]
    fn bo_respects_bootstrap_and_minimum_samples() {
        let mut e = env(sortbykey(), 1);
        let mut bo = BayesOpt::new(1);
        let rec = bo.tune(&mut e).unwrap();
        // 4 bootstrap + at least 6 adaptive.
        assert!(rec.evaluations >= 10, "evaluations = {}", rec.evaluations);
        assert!(rec.evaluations <= 4 + 24);
        let bootstraps = bo.trace().iter().filter(|s| s.bootstrap).count();
        assert_eq!(bootstraps, 4);
    }

    #[test]
    fn bo_improves_on_the_default() {
        let mut e = env(sortbykey(), 2);
        let rec = BayesOpt::new(7).tune(&mut e).unwrap();
        let engine = Engine::new(ClusterSpec::cluster_a());
        let app = sortbykey();
        let default = max_resource_allocation(engine.cluster(), &app);
        let (d, _) = engine.run(&app, &default, 900);
        let (b, _) = engine.run(&app, &rec.config, 900);
        assert!(
            b.runtime_mins() <= d.runtime_mins() * 1.05,
            "BO ({}) should not lose to the default ({})",
            b.runtime_mins(),
            d.runtime_mins()
        );
    }

    #[test]
    fn gbo_uses_q_features() {
        let mut e = env(svm(), 3);
        let mut gbo = BayesOpt::guided(3);
        let rec = gbo.tune(&mut e).unwrap();
        assert!(gbo.is_guided());
        assert_eq!(rec.policy, "GBO");
        assert!(rec.evaluations >= 10);
    }

    #[test]
    fn forest_surrogate_works() {
        let mut e = env(sortbykey(), 4);
        let mut bo = BayesOpt::new(4).with_config(BoConfig {
            surrogate: SurrogateKind::RandomForest,
            max_iterations: 8,
            ..BoConfig::default()
        });
        let rec = bo.tune(&mut e).unwrap();
        assert_eq!(rec.policy, "BO-RF");
        assert!(rec.evaluations >= 10);
    }

    #[test]
    fn trace_is_reproducible_given_seeds() {
        let mut e1 = env(sortbykey(), 5);
        let mut e2 = env(sortbykey(), 5);
        let mut a = BayesOpt::new(11);
        let mut b = BayesOpt::new(11);
        let ra = a.tune(&mut e1).unwrap();
        let rb = b.tune(&mut e2).unwrap();
        assert_eq!(ra.config, rb.config);
        assert_eq!(a.trace().len(), b.trace().len());
    }

    #[test]
    fn sparse_policy_below_threshold_leaves_the_trace_identical() {
        // A large-n policy whose threshold the run never crosses must be
        // invisible: byte-identical trace to the exact default.
        let run = |sparse: SparsePolicy| {
            let mut e = env(sortbykey(), 9);
            let mut bo = BayesOpt::new(17).with_config(BoConfig {
                sparse,
                max_iterations: 10,
                ..BoConfig::default()
            });
            bo.tune(&mut e).unwrap();
            bo.trace().to_vec()
        };
        let exact = run(SparsePolicy::exact());
        let sparse = run(SparsePolicy::large_n());
        assert_eq!(exact, sparse, "large_n policy engaged below threshold");
    }

    #[test]
    fn sparse_trace_is_deterministic() {
        // Force the sparse path with a tiny threshold: the subset fits must
        // replay byte-identically, guided included, exactly like exact.
        let run = |guided: bool| {
            let mut e = env(svm(), 10);
            let mut bo = if guided {
                BayesOpt::guided(23)
            } else {
                BayesOpt::new(23)
            };
            bo = bo.with_config(BoConfig {
                sparse: SparsePolicy {
                    threshold: 8,
                    inducing: 8,
                },
                max_iterations: 12,
                min_adaptive_samples: 12,
                ..BoConfig::default()
            });
            bo.tune(&mut e).unwrap();
            bo.trace().to_vec()
        };
        for guided in [false, true] {
            let first = run(guided);
            assert!(
                first.len() > 8 + 4,
                "trace must actually cross the sparse threshold"
            );
            assert_eq!(first, run(guided), "guided={guided}");
        }
    }

    #[test]
    fn sparse_proposals_stay_within_five_percent_of_exact() {
        // The regret gate: over fig20-style seeded runs, the best score a
        // sparse-surrogate BO reaches must stay within 5% of the exact-GP
        // best on the same workload and seeds.
        let best_with = |sparse: SparsePolicy, seed: u64| -> f64 {
            let mut e = env(sortbykey(), 30 + seed);
            let mut bo = BayesOpt::new(400 + seed * 19).with_config(BoConfig {
                sparse,
                max_iterations: 16,
                min_adaptive_samples: 16,
                ..BoConfig::default()
            });
            bo.tune(&mut e).unwrap();
            bo.trace()
                .iter()
                .map(|s| s.score_mins)
                .fold(f64::INFINITY, f64::min)
        };
        let tiny = SparsePolicy {
            threshold: 8,
            inducing: 8,
        };
        let mut exact_total = 0.0;
        let mut sparse_total = 0.0;
        for seed in 0..3 {
            let exact = best_with(SparsePolicy::exact(), seed);
            let sparse = best_with(tiny, seed);
            assert!(
                sparse <= exact * 1.05,
                "seed {seed}: sparse best {sparse} vs exact best {exact}"
            );
            exact_total += exact;
            sparse_total += sparse;
        }
        assert!(
            sparse_total <= exact_total * 1.05,
            "aggregate regret: sparse {sparse_total} vs exact {exact_total}"
        );
    }

    #[test]
    fn metric_names_follow_the_tuner_name() {
        let rf = BoConfig {
            surrogate: SurrogateKind::RandomForest,
            ..BoConfig::default()
        };
        for bo in [
            BayesOpt::new(1),
            BayesOpt::guided(1),
            BayesOpt::new(1).with_config(rf),
        ] {
            let prefix = bo.name().to_ascii_lowercase();
            let (fit, acq) = bo.metric_names();
            assert_eq!(fit, format!("{prefix}.fit_ms"));
            assert_eq!(acq, format!("{prefix}.acq_ms"));
        }
    }

    #[test]
    fn features_extend_with_q_when_guided() {
        let cluster = ClusterSpec::cluster_a();
        let space = ConfigSpace::for_app(&cluster, &svm());
        let x = [0.3, 0.5, 0.7, 0.2];
        let plain = BayesOpt::features(&space, None, &x);
        assert_eq!(plain.len(), 4);
    }
}
