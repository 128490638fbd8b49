//! The compact remainder of a tuning session: everything cross-session
//! warm starting needs, and nothing a live session holds.
//!
//! A [`SessionDigest`] is extracted when a session settles (a serve drain
//! that feeds a memory store, or an explicit [`SessionDigest::from_env`]):
//! the workload label, the mean Table-6 statistics over its clean runs
//! (via [`relm_tune::TuningEnv::stats_accumulator`]), and the full
//! `(config, score)` observation list. Fingerprinting and prior
//! construction work from digests alone — ingest never needs a live
//! environment or a retained profile.

use crate::fingerprint::Fingerprint;
use relm_common::MemoryConfig;
use relm_evalcache::{EvalKey, KeyBuilder};
use relm_profile::DerivedStats;
use relm_tune::TuningEnv;
use serde::{Deserialize, Serialize};

/// Digest schema version; bumped on any incompatible layout change.
pub const DIGEST_VERSION: u32 = 1;

/// One settled observation, compacted for cross-session reuse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DigestObs {
    /// The evaluated configuration.
    pub config: MemoryConfig,
    /// Objective value in minutes (penalized when censored).
    pub score_mins: f64,
    /// True when the run never finished cleanly — the score is a penalty
    /// bound, not a measurement.
    pub censored: bool,
}

/// The persistent remainder of one tuning session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionDigest {
    /// Schema version ([`DIGEST_VERSION`]).
    pub version: u32,
    /// Normalized workload label (see [`normalize_label`]).
    pub workload: String,
    /// The session's base seed — with the label, the digest's identity.
    pub base_seed: u64,
    /// Settled evaluations the session ran.
    pub evaluations: usize,
    /// Clean (non-aborted) evaluations aggregated into `stats`.
    pub profiled: u64,
    /// Mean Table-6 statistics over the clean runs; `None` when every run
    /// aborted (such a digest stores observations but cannot be
    /// fingerprinted or retrieved).
    pub stats: Option<DerivedStats>,
    /// Every settled observation, in history order.
    pub observations: Vec<DigestObs>,
}

/// Normalizes a workload label the way the serving layer resolves
/// workload names: ASCII alphanumerics only, lowercased (`K-means` ==
/// `kmeans`).
pub fn normalize_label(name: &str) -> String {
    name.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase()
}

impl SessionDigest {
    /// Extracts the digest of a settled session. `workload` is normalized;
    /// `base_seed` is the seed the session's seed chain started from.
    pub fn from_env(workload: &str, base_seed: u64, env: &TuningEnv) -> Self {
        let acc = env.stats_accumulator();
        SessionDigest {
            version: DIGEST_VERSION,
            workload: normalize_label(workload),
            base_seed,
            evaluations: env.evaluations(),
            profiled: acc.count(),
            stats: acc.mean(),
            observations: env
                .history()
                .iter()
                .map(|o| DigestObs {
                    config: o.config,
                    score_mins: o.score_mins,
                    censored: o.is_censored(),
                })
                .collect(),
        }
    }

    /// The digest's content address in the store: a canonical hash of the
    /// normalized label and base seed. Two runs of the same session land
    /// on the same key (dedup); different seeds of one workload are
    /// distinct store entries.
    pub fn key(&self) -> EvalKey {
        KeyBuilder::new("memory/v1")
            .field("workload", &self.workload)
            .field("base_seed", &self.base_seed)
            .finish()
    }

    /// The workload fingerprint, when the session produced at least one
    /// clean profile.
    pub fn fingerprint(&self) -> Option<Fingerprint> {
        self.stats.as_ref().map(Fingerprint::from_stats)
    }

    /// The best clean score, when any run finished (NaN-safe).
    pub fn best_clean_score(&self) -> Option<f64> {
        self.observations
            .iter()
            .filter(|o| !o.censored)
            .map(|o| o.score_mins)
            .min_by(f64::total_cmp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryStore;
    use relm_app::Engine;
    use relm_cluster::ClusterSpec;
    use relm_workloads::{max_resource_allocation, wordcount};

    fn settled_env() -> TuningEnv {
        let mut env = TuningEnv::new(Engine::new(ClusterSpec::cluster_a()), wordcount(), 7);
        let cfg = max_resource_allocation(&ClusterSpec::cluster_a(), env.app());
        env.evaluate(&cfg);
        let mut thin = cfg;
        thin.containers_per_node = 4;
        thin.heap = env.heap_for(4);
        env.evaluate(&thin);
        env
    }

    #[test]
    fn digest_captures_history_and_fingerprints() {
        let env = settled_env();
        let digest = SessionDigest::from_env("WordCount", 7, &env);
        assert_eq!(digest.workload, "wordcount");
        assert_eq!(digest.evaluations, 2);
        assert_eq!(digest.observations.len(), 2);
        assert!(digest.profiled >= 1);
        assert!(digest.fingerprint().is_some());
        assert!(digest.best_clean_score().is_some());
        // Identity is (label, seed) — not history contents.
        assert_eq!(
            digest.key(),
            SessionDigest::from_env("word-count", 7, &env).key()
        );
        assert_ne!(
            digest.key(),
            SessionDigest::from_env("WordCount", 8, &env).key()
        );
    }

    #[test]
    fn digest_round_trips_through_disk() {
        let env = settled_env();
        let digest = SessionDigest::from_env("WordCount", 7, &env);
        let dir = std::env::temp_dir().join(format!("relm_digest_{}", std::process::id()));
        let path = dir.join("memory.jsonl");
        let mut store = MemoryStore::new();
        store.ingest(digest.clone());
        store.save(&path).unwrap();
        let loaded = MemoryStore::load(&path, relm_obs::Obs::disabled()).unwrap();
        let stored: Vec<&SessionDigest> = loaded.sessions().map(|(_, d)| d).collect();
        assert_eq!(stored, vec![&digest]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_version_is_rejected() {
        let env = settled_env();
        let mut digest = SessionDigest::from_env("WordCount", 7, &env);
        digest.version = 99;
        let dir = std::env::temp_dir().join(format!("relm_digest_v_{}", std::process::id()));
        let path = dir.join("memory.jsonl");
        let mut store = MemoryStore::new();
        store.ingest(digest);
        store.save(&path).unwrap();
        let obs = relm_obs::Obs::enabled();
        let loaded = MemoryStore::load(&path, obs.clone()).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.skipped(), 1);
        assert_eq!(obs.counter_value("memory.skipped"), 1.0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
