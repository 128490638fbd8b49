//! The seeded fault plan: rates plus a deterministic site-addressed
//! injector.

use relm_common::Rng;
use serde::{Deserialize, Serialize};

/// A fault the plan injects into one wave attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjectedFault {
    /// Kill one container (a transient infrastructure hiccup: preemption,
    /// an operator restart, a kernel OOM-killer race).
    ContainerKill,
    /// Lose a whole node: every container on it dies at once.
    NodeLoss,
}

/// Injection rates. All probabilities are per decision site; a rate of 0
/// disables that fault class entirely.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability that a container is killed during one wave attempt.
    pub container_kill_rate: f64,
    /// Probability that a node is lost during one wave attempt.
    pub node_loss_rate: f64,
    /// Probability that a container straggles during one wave attempt.
    pub straggler_rate: f64,
    /// Wall-time multiplier applied to a straggling container's wave
    /// (≥ 1.0).
    pub straggler_slowdown: f64,
    /// Probability that a run's collected profile comes back degraded
    /// (monitoring gaps, clock skew, lost samples).
    pub profile_corruption_rate: f64,
    /// Relative noise applied to a corrupted profile's summary statistics.
    pub profile_noise: f64,
}

impl FaultConfig {
    /// No faults at all.
    pub fn off() -> Self {
        FaultConfig {
            container_kill_rate: 0.0,
            node_loss_rate: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: 1.0,
            profile_corruption_rate: 0.0,
            profile_noise: 0.0,
        }
    }

    /// A balanced mix scaled by one headline `rate` — the knob the
    /// fault-rate sweep turns. Container kills fire at the full rate,
    /// node loss at a quarter of it (nodes fail less often than
    /// containers), stragglers at half, and profile corruption at half.
    pub fn uniform(rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        FaultConfig {
            container_kill_rate: rate,
            node_loss_rate: rate * 0.25,
            straggler_rate: rate * 0.5,
            straggler_slowdown: 2.5,
            profile_corruption_rate: rate * 0.5,
            profile_noise: 0.25,
        }
    }

    /// True when every rate is zero — the plan will never inject.
    pub fn is_off(&self) -> bool {
        self.container_kill_rate == 0.0
            && self.node_loss_rate == 0.0
            && self.straggler_rate == 0.0
            && self.profile_corruption_rate == 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::off()
    }
}

/// Site tags keep the per-site random streams decorrelated: two different
/// fault classes drawing at the same `(run, stage, wave, container,
/// attempt)` coordinates see independent uniforms.
#[derive(Clone, Copy)]
enum Site {
    ContainerKill = 1,
    NodeLoss = 2,
    Straggler = 3,
    Profile = 4,
}

/// A fully deterministic fault plan. Every decision is a pure function of
/// `(plan seed, site)`, so two engines holding equal plans inject exactly
/// the same faults regardless of evaluation order, thread, or platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
}

// Site addressing uses FNV-1a from `relm_common::hash`: the same
// construction the engine uses for sticky data skew and the evaluation
// cache uses for content addressing, chosen for cross-platform stability.
use relm_common::hash::{fnv1a64_str as str_hash, Fnv64};

impl FaultPlan {
    /// Creates a plan from a seed and rates.
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        FaultPlan { seed, config }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's rates.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// True when this plan never injects anything.
    pub fn is_off(&self) -> bool {
        self.config.is_off()
    }

    /// The FNV-1a state after `(plan seed, site, run seed, stage_hash)`,
    /// each fed as a little-endian `u64`. A decision at the site hashes its
    /// remaining coordinates on top.
    fn site_prefix(&self, site: Site, run_seed: u64, stage_hash: u64) -> Fnv64 {
        let mut h = Fnv64::new();
        for part in [self.seed, site as u64, run_seed, stage_hash] {
            h.write_u64(part);
        }
        h
    }

    /// The decision sites of one stage of one run, hashed once: each
    /// decision then feeds only its `(wave, container, attempt)`
    /// coordinates.
    pub fn stage_sites(&self, run_seed: u64, stage: &str) -> StageSites {
        let stage = str_hash(stage);
        StageSites {
            config: self.config,
            container_kill: self.site_prefix(Site::ContainerKill, run_seed, stage),
            node_loss: self.site_prefix(Site::NodeLoss, run_seed, stage),
            straggler: self.site_prefix(Site::Straggler, run_seed, stage),
        }
    }

    /// Is this run's profile corrupted? Returns a noise generator for the
    /// corruption, seeded per run.
    pub fn profile_corruption(&self, run_seed: u64) -> Option<ProfileNoise> {
        if self.config.profile_corruption_rate <= 0.0 {
            return None;
        }
        let mut rng = Rng::new(
            self.site_prefix(Site::Profile, run_seed, str_hash(""))
                .finish(),
        );
        rng.chance(self.config.profile_corruption_rate)
            .then_some(ProfileNoise {
                rng,
                relative: self.config.profile_noise,
            })
    }
}

/// One stage's fault decisions (from [`FaultPlan::stage_sites`]). Each is a
/// pure function of the plan seed, the site, the run seed, the stage, and
/// the coordinates passed in.
#[derive(Debug, Clone)]
pub struct StageSites {
    config: FaultConfig,
    container_kill: Fnv64,
    node_loss: Fnv64,
    straggler: Fnv64,
}

/// The random stream of one decision: `prefix` plus its coordinates.
fn site_rng(prefix: Fnv64, coords: &[u64]) -> Rng {
    let mut h = prefix;
    for &c in coords {
        h.write_u64(c);
    }
    Rng::new(h.finish())
}

impl StageSites {
    /// Does this wave attempt kill `container`? Transient: a retry of the
    /// same wave draws a new attempt coordinate and usually survives.
    pub fn container_kill(
        &self,
        wave: u32,
        container: usize,
        attempt: u32,
    ) -> Option<InjectedFault> {
        if self.config.container_kill_rate <= 0.0 {
            return None;
        }
        let mut rng = site_rng(
            self.container_kill,
            &[wave as u64, container as u64, attempt as u64],
        );
        rng.chance(self.config.container_kill_rate)
            .then_some(InjectedFault::ContainerKill)
    }

    /// Does this wave attempt lose a node? Returns the victim node index
    /// in `[0, nodes)`.
    pub fn node_loss(&self, wave: u32, attempt: u32, nodes: u32) -> Option<u32> {
        if self.config.node_loss_rate <= 0.0 || nodes == 0 {
            return None;
        }
        let mut rng = site_rng(self.node_loss, &[wave as u64, attempt as u64]);
        rng.chance(self.config.node_loss_rate)
            .then(|| rng.below(nodes as usize) as u32)
    }

    /// Does `container` straggle during this wave attempt? Returns the
    /// slowdown multiplier (≥ 1.0).
    pub fn straggler(&self, wave: u32, container: usize, attempt: u32) -> Option<f64> {
        if self.config.straggler_rate <= 0.0 {
            return None;
        }
        let mut rng = site_rng(
            self.straggler,
            &[wave as u64, container as u64, attempt as u64],
        );
        if !rng.chance(self.config.straggler_rate) {
            return None;
        }
        // Spread the slowdown in [1 + (s-1)/2, 1 + 3(s-1)/2]: some
        // stragglers limp, some crawl.
        let base = self.config.straggler_slowdown.max(1.0) - 1.0;
        Some(1.0 + base * rng.uniform_in(0.5, 1.5))
    }
}

/// Deterministic noise source for one corrupted profile.
#[derive(Debug)]
pub struct ProfileNoise {
    rng: Rng,
    relative: f64,
}

impl ProfileNoise {
    /// The next multiplicative noise factor, centred at 1.0 and clamped
    /// away from zero.
    pub fn factor(&mut self) -> f64 {
        self.rng.noise_factor(self.relative)
    }

    /// A deterministic biased coin, for dropping individual samples
    /// (monitoring gaps lose events, not just precision).
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.chance(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn plan(rate: f64) -> FaultPlan {
        FaultPlan::new(42, FaultConfig::uniform(rate))
    }

    /// The per-call construction that [`FaultPlan::stage_sites`] replaced:
    /// every decision hashed its whole site, stage name included.
    mod per_call {
        use super::super::*;
        use relm_common::hash::fnv1a64_parts;

        fn site_rng(
            plan: &FaultPlan,
            site: Site,
            run_seed: u64,
            stage: &str,
            coords: &[u64],
        ) -> Rng {
            let mut parts = vec![plan.seed, site as u64, run_seed, str_hash(stage)];
            parts.extend_from_slice(coords);
            Rng::new(fnv1a64_parts(&parts))
        }

        pub fn container_kill(
            plan: &FaultPlan,
            run_seed: u64,
            stage: &str,
            wave: u32,
            container: usize,
            attempt: u32,
        ) -> Option<InjectedFault> {
            if plan.config.container_kill_rate <= 0.0 {
                return None;
            }
            let coords = [wave as u64, container as u64, attempt as u64];
            let mut rng = site_rng(plan, Site::ContainerKill, run_seed, stage, &coords);
            rng.chance(plan.config.container_kill_rate)
                .then_some(InjectedFault::ContainerKill)
        }

        pub fn node_loss(
            plan: &FaultPlan,
            run_seed: u64,
            stage: &str,
            wave: u32,
            attempt: u32,
            nodes: u32,
        ) -> Option<u32> {
            if plan.config.node_loss_rate <= 0.0 || nodes == 0 {
                return None;
            }
            let coords = [wave as u64, attempt as u64];
            let mut rng = site_rng(plan, Site::NodeLoss, run_seed, stage, &coords);
            rng.chance(plan.config.node_loss_rate)
                .then(|| rng.below(nodes as usize) as u32)
        }

        pub fn straggler(
            plan: &FaultPlan,
            run_seed: u64,
            stage: &str,
            wave: u32,
            container: usize,
            attempt: u32,
        ) -> Option<f64> {
            if plan.config.straggler_rate <= 0.0 {
                return None;
            }
            let coords = [wave as u64, container as u64, attempt as u64];
            let mut rng = site_rng(plan, Site::Straggler, run_seed, stage, &coords);
            if !rng.chance(plan.config.straggler_rate) {
                return None;
            }
            let base = plan.config.straggler_slowdown.max(1.0) - 1.0;
            Some(1.0 + base * rng.uniform_in(0.5, 1.5))
        }

        pub fn profile_corruption(plan: &FaultPlan, run_seed: u64) -> Option<ProfileNoise> {
            if plan.config.profile_corruption_rate <= 0.0 {
                return None;
            }
            let mut rng = site_rng(plan, Site::Profile, run_seed, "", &[]);
            rng.chance(plan.config.profile_corruption_rate)
                .then_some(ProfileNoise {
                    rng,
                    relative: plan.config.profile_noise,
                })
        }
    }

    /// Stage names of up to five characters, empty and multi-byte ones
    /// included.
    fn stage_name(rng: &mut proptest::TestRng) -> String {
        const CHARS: [char; 8] = ['m', 'a', 'p', '_', '7', 'é', '日', '🦀'];
        let len = rng.next_u64() % 6;
        (0..len)
            .map(|_| CHARS[(rng.next_u64() % CHARS.len() as u64) as usize])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn stage_sites_match_the_per_call_construction(
            plan_seed in 0u64..u64::MAX,
            rates in proptest::array::uniform4(-0.25f64..1.0),
            run_seed in 0u64..u64::MAX,
            stage in proptest::FnStrategy(stage_name),
            wave in 0u32..200,
            container in 0usize..64,
            attempt in 0u32..6,
            nodes in 0u32..16,
        ) {
            // Negative draws switch a fault class off.
            let [kill, node, straggle, corrupt] = rates.map(|r| r.max(0.0));
            let plan = FaultPlan::new(plan_seed, FaultConfig {
                container_kill_rate: kill,
                node_loss_rate: node,
                straggler_rate: straggle,
                straggler_slowdown: 1.0 + 4.0 * straggle,
                profile_corruption_rate: corrupt,
                profile_noise: 0.25,
            });
            let sites = plan.stage_sites(run_seed, &stage);
            prop_assert_eq!(
                sites.container_kill(wave, container, attempt),
                per_call::container_kill(&plan, run_seed, &stage, wave, container, attempt)
            );
            prop_assert_eq!(
                sites.node_loss(wave, attempt, nodes),
                per_call::node_loss(&plan, run_seed, &stage, wave, attempt, nodes)
            );
            prop_assert_eq!(
                sites.straggler(wave, container, attempt).map(f64::to_bits),
                per_call::straggler(&plan, run_seed, &stage, wave, container, attempt)
                    .map(f64::to_bits)
            );
            prop_assert_eq!(
                plan.profile_corruption(run_seed).map(|mut n| n.factor().to_bits()),
                per_call::profile_corruption(&plan, run_seed).map(|mut n| n.factor().to_bits())
            );
        }
    }

    #[test]
    fn off_plan_never_injects() {
        let p = FaultPlan::new(1, FaultConfig::off());
        assert!(p.is_off());
        let sites = p.stage_sites(9, "map");
        for wave in 0..50 {
            assert!(sites.container_kill(wave, 3, 0).is_none());
            assert!(sites.node_loss(wave, 0, 8).is_none());
            assert!(sites.straggler(wave, 3, 0).is_none());
        }
        assert!(p.profile_corruption(9).is_none());
    }

    #[test]
    fn decisions_are_deterministic_per_site() {
        let a = plan(0.3).stage_sites(7, "shuffle");
        let b = plan(0.3).stage_sites(7, "shuffle");
        for wave in 0..100 {
            for container in 0..4 {
                assert_eq!(
                    a.container_kill(wave, container, 1),
                    b.container_kill(wave, container, 1)
                );
                assert_eq!(
                    a.straggler(wave, container, 1),
                    b.straggler(wave, container, 1)
                );
            }
            assert_eq!(a.node_loss(wave, 2, 8), b.node_loss(wave, 2, 8));
        }
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let a = FaultPlan::new(1, FaultConfig::uniform(0.3)).stage_sites(5, "map");
        let b = FaultPlan::new(2, FaultConfig::uniform(0.3)).stage_sites(5, "map");
        let hits = |s: &StageSites| -> usize {
            (0..200)
                .filter(|&w| s.container_kill(w, 0, 0).is_some())
                .count()
        };
        // Same expected rate, different draw sites.
        let ha = hits(&a);
        let hb = hits(&b);
        assert!(ha > 0 && hb > 0);
        let same: usize = (0..200)
            .filter(|&w| a.container_kill(w, 0, 0).is_some() == b.container_kill(w, 0, 0).is_some())
            .count();
        assert!(same < 200, "plans with different seeds must disagree");
    }

    #[test]
    fn retry_attempts_draw_independently() {
        // A kill on attempt 0 must not imply a kill on attempt 1 — that is
        // what makes injected kills *transient*.
        let s = plan(0.3).stage_sites(3, "map");
        let differs = (0..200)
            .any(|w| s.container_kill(w, 0, 0).is_some() != s.container_kill(w, 0, 1).is_some());
        assert!(differs);
    }

    #[test]
    fn rates_are_approximately_honoured() {
        let s = FaultPlan::new(11, FaultConfig::uniform(0.2)).stage_sites(1, "map");
        let n = 5_000;
        let kills = (0..n)
            .filter(|&w| s.container_kill(w, 0, 0).is_some())
            .count();
        let frac = kills as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.03, "kill rate {frac} far from 0.2");
    }

    #[test]
    fn straggler_slowdown_is_above_one() {
        let s = plan(0.9).stage_sites(2, "map");
        let mut seen = 0;
        for w in 0..100 {
            if let Some(slowdown) = s.straggler(w, 1, 0) {
                assert!(slowdown > 1.0, "slowdown {slowdown} must exceed 1.0");
                seen += 1;
            }
        }
        assert!(seen > 0);
    }

    #[test]
    fn node_loss_victim_is_in_range() {
        let s = FaultPlan::new(3, FaultConfig::uniform(1.0)).stage_sites(4, "map");
        for w in 0..50 {
            if let Some(node) = s.node_loss(w, 0, 8) {
                assert!(node < 8);
            }
        }
    }

    #[test]
    fn profile_noise_is_deterministic() {
        let mut config = FaultConfig::off();
        config.profile_corruption_rate = 1.0;
        config.profile_noise = 0.25;
        let p = FaultPlan::new(42, config);
        let mut a = p.profile_corruption(17).unwrap();
        let mut b = p.profile_corruption(17).unwrap();
        for _ in 0..16 {
            assert_eq!(a.factor(), b.factor());
        }
    }

    #[test]
    fn plan_round_trips_through_json() {
        let p = plan(0.15);
        let text = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(p, back);
    }
}
