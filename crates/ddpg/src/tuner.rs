//! The DDPG tuning policy (Figure 15): the agent interacts with the tuning
//! environment in discrete timesteps — an *action* changes the configuration
//! knobs, the *state* is the resource-usage metrics of the resulting run
//! (Table 6 statistics plus the model-Q metrics), and the *reward* follows
//! CDBTune.

use crate::agent::{AgentConfig, DdpgAgent};
use crate::replay::Transition;
use crate::reward::cdbtune_reward;
use relm_common::{MemoryConfig, Result};
use relm_core::QModel;
use relm_profile::{derive_stats, DerivedStats, Profile};
use relm_tune::{recommendation, Recommendation, Tuner, TuningEnv};
use relm_workloads::max_resource_allocation;

/// Dimensionality of the state vector built by [`state_vector`].
pub const STATE_DIMS: usize = 14;

/// Builds the agent's state from a run's profile: normalized Table-6
/// statistics plus the model-Q metrics of the configuration that produced
/// the profile (§5.3).
pub fn state_vector(profile: &Profile) -> Vec<f64> {
    let stats: DerivedStats = derive_stats(profile);
    state_vector_from_stats(&stats, &profile.config)
}

/// Like [`state_vector`], but from an already-derived statistics vector
/// and the configuration that produced it. This is the form cross-session
/// memory uses to reconstruct states from a [`relm_memory::SessionDigest`]
/// (which keeps mean stats and configs, not profiles) when pre-filling the
/// replay buffer — the featurization is shared so seeded and live
/// transitions live in the same state space.
pub fn state_vector_from_stats(stats: &DerivedStats, config: &MemoryConfig) -> Vec<f64> {
    let q = QModel::new(*stats, relm_core::DEFAULT_SAFETY).q(config);
    let heap = stats.heap.as_mb().max(1.0);
    vec![
        stats.cpu_avg / 100.0,
        stats.disk_avg / 100.0,
        stats.m_i.as_mb() / heap,
        stats.m_c.as_mb() / heap,
        stats.m_s.as_mb() / heap,
        stats.m_u.as_mb() / heap,
        stats.p as f64 / 8.0,
        stats.h,
        stats.s,
        stats.containers_per_node as f64 / 4.0,
        heap / 16_384.0,
        q[0].min(3.0),
        q[1].min(5.0) / 5.0,
        q[2].min(5.0) / 5.0,
    ]
    .into_iter()
    // A corrupted or truncated profile must not feed NaN/Inf into the
    // networks — one bad state would propagate through every later update.
    .map(|v| if v.is_finite() { v } else { 0.0 })
    .collect()
}

/// The DDPG tuner. The agent persists across [`Tuner::tune`] calls, which is
/// what gives DDPG its adaptability to new environments (§6.6, Figure 27):
/// tune on Cluster A, then call `tune` again with a Cluster-B environment
/// and a small budget.
#[derive(Debug, Clone)]
pub struct DdpgTuner {
    agent: DdpgAgent,
    /// Stress tests per tuning session (the paper stops DDPG after
    /// observing 10 new samples).
    budget: usize,
    /// Gradient steps after each observation.
    updates_per_step: usize,
}

impl DdpgTuner {
    /// Creates a fresh tuner with the paper's 10-sample session budget.
    pub fn new(seed: u64) -> Self {
        DdpgTuner {
            agent: DdpgAgent::new(AgentConfig::for_dims(STATE_DIMS, 4), seed),
            budget: 10,
            updates_per_step: 12,
        }
    }

    /// Overrides the per-session stress-test budget.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// The underlying agent (for analysis).
    pub fn agent(&self) -> &DdpgAgent {
        &self.agent
    }

    /// Pre-fills the replay buffer with transitions reconstructed from
    /// cross-session memory (see [`crate::warm::transitions_from_prior`])
    /// and pre-trains on them, so the first session on a new workload
    /// starts from experience instead of noise. Returns how many
    /// transitions were seeded. Training is a no-op until the buffer
    /// holds a batch, exactly as during a live session.
    pub fn seed_replay(&mut self, transitions: impl IntoIterator<Item = Transition>) -> usize {
        let mut seeded = 0usize;
        for t in transitions {
            self.agent.observe(t);
            seeded += 1;
        }
        if seeded > 0 {
            for _ in 0..self.updates_per_step.saturating_mul(4) {
                self.agent.train_step();
            }
        }
        seeded
    }
}

impl Tuner for DdpgTuner {
    fn name(&self) -> &'static str {
        "DDPG"
    }

    fn tune(&mut self, env: &mut TuningEnv) -> Result<Recommendation> {
        let telemetry = env.obs().clone();
        let _session = telemetry.span("tuner.tune").with("policy", self.name());
        self.agent.begin_session(0.12);
        // Initial observation: the vendor default, which also seeds the
        // reward baseline.
        let default = max_resource_allocation(env.engine().cluster(), env.app());
        let (obs0, stats0) = env.evaluate_with_stats(&default);
        let initial_score = obs0.score_mins;
        let mut prev_score = initial_score;
        let mut state = state_vector_from_stats(&stats0, &default);

        for iter in 0..self.budget {
            let act_started = std::time::Instant::now();
            let action = {
                let _act = telemetry.span("ddpg.act").with("iter", iter);
                self.agent.act_noisy(&state)
            };
            telemetry.record("ddpg.act_ms", act_started.elapsed().as_secs_f64() * 1e3);
            let config = env.space().decode(&action);
            let (obs, stats) = env.evaluate_with_stats(&config);
            let reward = cdbtune_reward(initial_score, prev_score, obs.score_mins);
            let next_state = state_vector_from_stats(&stats, &config);
            self.agent.observe(Transition {
                state: state.clone(),
                action,
                reward,
                next_state: next_state.clone(),
            });
            let update_started = std::time::Instant::now();
            {
                let _update = telemetry
                    .span("ddpg.update")
                    .with("iter", iter)
                    .with("steps", self.updates_per_step);
                for _ in 0..self.updates_per_step {
                    self.agent.train_step();
                }
            }
            telemetry.record(
                "ddpg.update_ms",
                update_started.elapsed().as_secs_f64() * 1e3,
            );
            self.agent.decay_noise(0.93);
            prev_score = obs.score_mins;
            state = next_state;
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
    use relm_workloads::{sortbykey, svm};

    #[test]
    fn state_vector_has_declared_dims_and_is_finite() {
        let engine = Engine::new(ClusterSpec::cluster_a());
        let app = svm();
        let cfg = max_resource_allocation(engine.cluster(), &app);
        let (_, profile) = engine.run(&app, &cfg, 3);
        let s = state_vector(&profile);
        assert_eq!(s.len(), STATE_DIMS);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn ddpg_session_respects_budget() {
        let mut env = TuningEnv::new(Engine::new(ClusterSpec::cluster_a()), sortbykey(), 1);
        let mut tuner = DdpgTuner::new(1).with_budget(5);
        let rec = tuner.tune(&mut env).unwrap();
        // 1 initial + 5 exploratory runs.
        assert_eq!(rec.evaluations, 6);
        assert_eq!(rec.policy, "DDPG");
        assert!(tuner.agent().replay_len() == 5);
    }

    #[test]
    fn agent_persists_across_sessions() {
        let mut tuner = DdpgTuner::new(2).with_budget(4);
        let mut env_a = TuningEnv::new(Engine::new(ClusterSpec::cluster_a()), svm(), 2);
        tuner.tune(&mut env_a).unwrap();
        let replay_after_a = tuner.agent().replay_len();
        let mut env_b = TuningEnv::new(Engine::new(ClusterSpec::cluster_b()), svm(), 3);
        tuner.tune(&mut env_b).unwrap();
        assert!(
            tuner.agent().replay_len() > replay_after_a,
            "replay should accumulate"
        );
    }

    #[test]
    fn recommendation_is_best_observed() {
        let mut env = TuningEnv::new(Engine::new(ClusterSpec::cluster_a()), sortbykey(), 5);
        let mut tuner = DdpgTuner::new(5).with_budget(6);
        let rec = tuner.tune(&mut env).unwrap();
        let best = env.best().unwrap();
        assert_eq!(rec.config, best.config);
    }
}
